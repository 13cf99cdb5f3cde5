#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "graph/generators.hpp"

namespace lr {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_connected());
}

TEST(GraphTest, SingleNode) {
  Graph g(1, {});
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.is_connected());
}

TEST(GraphTest, TriangleBasics) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_TRUE(g.is_connected());
}

TEST(GraphTest, EndpointsAreCanonical) {
  Graph g(3, {{2, 0}, {1, 0}});
  // Edges are stored with the smaller endpoint first regardless of input order.
  EXPECT_EQ(g.edge_u(0), 0u);
  EXPECT_EQ(g.edge_v(0), 2u);
  EXPECT_EQ(g.edge_u(1), 0u);
  EXPECT_EQ(g.edge_v(1), 1u);
}

TEST(GraphTest, OtherEndpoint) {
  Graph g(2, {{0, 1}});
  EXPECT_EQ(g.other_endpoint(0, 0), 1u);
  EXPECT_EQ(g.other_endpoint(0, 1), 0u);
}

TEST(GraphTest, IsEndpoint) {
  Graph g(3, {{0, 1}});
  EXPECT_TRUE(g.is_endpoint(0, 0));
  EXPECT_TRUE(g.is_endpoint(0, 1));
  EXPECT_FALSE(g.is_endpoint(0, 2));
}

TEST(GraphTest, NeighborsSortedAscending) {
  Graph g(5, {{4, 2}, {2, 0}, {2, 3}, {2, 1}});
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 3u);
  EXPECT_EQ(nbrs[3], 4u);
}

TEST(GraphTest, NeighborIncidenceEdgeIdsConsistent) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  for (NodeId u = 0; u < 4; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto edges = g.incident_edges(u);
    ASSERT_EQ(edges.size(), nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_TRUE(g.is_endpoint(edges[i], u));
      EXPECT_EQ(g.other_endpoint(edges[i], u), nbrs[i]);
    }
  }
}

TEST(GraphTest, EdgeBetween) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_NE(g.edge_between(0, 1), kNoEdge);
  EXPECT_EQ(g.edge_between(0, 1), g.edge_between(1, 0));
  EXPECT_EQ(g.edge_between(0, 2), kNoEdge);
  EXPECT_EQ(g.edge_between(0, 3), kNoEdge);
  EXPECT_TRUE(g.adjacent(2, 3));
  EXPECT_FALSE(g.adjacent(0, 3));
}

TEST(GraphTest, RejectsSelfLoop) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
}

TEST(GraphTest, RejectsParallelEdges) {
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph(2, {{0, 2}}), std::invalid_argument);
}

TEST(GraphTest, DisconnectedDetected) {
  Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.is_connected());
}

TEST(GraphTest, Describe) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.describe(), "Graph(n=3, m=2)");
}

TEST(GraphTest, Equality) {
  Graph a(3, {{0, 1}, {1, 2}});
  Graph b(3, {{0, 1}, {1, 2}});
  Graph c(3, {{0, 1}, {0, 2}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

/// Runs `build` and returns the message of the std::invalid_argument it
/// throws ("" when it throws none).
template <typename Build>
std::string rejection(Build&& build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Strictly ascending canonical input skips the duplicate sort and the
// per-node sorts; any other order takes the general path.  Both must build
// the same adjacency.
TEST(GraphTest, CanonicalInputBuildsWhatTheGeneralPathBuilds) {
  std::mt19937_64 rng(3);
  const Graph canonical = make_wide_random_graph(300, 6.0, rng);
  const auto& edges = canonical.edges();
  ASSERT_TRUE(std::is_sorted(edges.begin(), edges.end()));

  // Same order with every endpoint pair swapped: canonicalizes back to the
  // same ascending list, so the same graph, edge ids included.
  std::vector<std::pair<NodeId, NodeId>> swapped(edges.begin(), edges.end());
  for (auto& [a, b] : swapped) std::swap(a, b);
  EXPECT_EQ(Graph(300, swapped), canonical);

  // Shuffled, with every other pair swapped: the general path.  Edge ids
  // follow the input order, so compare each incidence through its edge's
  // endpoints.
  std::vector<std::pair<NodeId, NodeId>> shuffled(edges.begin(), edges.end());
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (std::size_t i = 0; i < shuffled.size(); i += 2) {
    std::swap(shuffled[i].first, shuffled[i].second);
  }
  const Graph general(300, shuffled);
  ASSERT_EQ(general.num_edges(), canonical.num_edges());
  for (NodeId u = 0; u < 300; ++u) {
    const auto want = canonical.neighbors(u);
    const auto got = general.neighbors(u);
    ASSERT_EQ(got.size(), want.size()) << "node " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "node " << u;
      EXPECT_EQ(general.edges()[general.incident_edges(u)[i]],
                canonical.edges()[canonical.incident_edges(u)[i]])
          << "node " << u;
    }
  }
}

TEST(GraphTest, SortedInputStillRejectsParallelEdges) {
  EXPECT_EQ(rejection([] { Graph(3, {{0, 1}, {0, 1}}); }), "Graph: parallel edge not allowed");
  EXPECT_EQ(rejection([] { Graph(3, {{0, 1}, {1, 2}, {1, 2}}); }),
            "Graph: parallel edge not allowed");
  EXPECT_EQ(rejection([] { Graph(3, {{0, 1}, {2, 1}, {1, 2}}); }),
            "Graph: parallel edge not allowed");
}

TEST(GraphTest, SortedInputStillRejectsBadEndpoints) {
  EXPECT_EQ(rejection([] { Graph(3, {{0, 1}, {1, 3}}); }), "Graph: edge endpoint out of range");
  EXPECT_EQ(rejection([] { Graph(3, {{0, 1}, {2, 2}}); }), "Graph: self loop not allowed");
  EXPECT_EQ(rejection([] { Graph(3, {{0, 0}, {0, 1}}); }), "Graph: self loop not allowed");
}

}  // namespace
}  // namespace lr
