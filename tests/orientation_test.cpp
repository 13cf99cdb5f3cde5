#include "graph/orientation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace lr {
namespace {

Graph chain3() { return Graph(3, {{0, 1}, {1, 2}}); }

TEST(OrientationTest, SenseDeterminesHeadAndTail) {
  Graph g = chain3();
  Orientation o(g, {EdgeSense::kForward, EdgeSense::kBackward});
  EXPECT_EQ(o.tail(0), 0u);
  EXPECT_EQ(o.head(0), 1u);
  EXPECT_EQ(o.tail(1), 2u);
  EXPECT_EQ(o.head(1), 1u);
}

TEST(OrientationTest, DirMatchesPaperConvention) {
  Graph g = chain3();
  Orientation o(g, {EdgeSense::kForward, EdgeSense::kBackward});
  // Edge 0 points 0 -> 1: out of 0, into 1.
  EXPECT_EQ(o.dir(0, 1), Dir::kOut);
  EXPECT_EQ(o.dir(1, 0), Dir::kIn);
  // Edge 1 points 2 -> 1: out of 2, into 1.
  EXPECT_EQ(o.dir(2, 1), Dir::kOut);
  EXPECT_EQ(o.dir(1, 2), Dir::kIn);
}

TEST(OrientationTest, TwoSidedConsistencyInvariant31) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  Orientation o = Orientation::from_ranking(g, std::vector<std::uint32_t>{0, 1, 2, 3});
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId u = g.edge_u(e);
    const NodeId v = g.edge_v(e);
    EXPECT_EQ(o.dir(u, v), opposite(o.dir(v, u)));
  }
}

TEST(OrientationTest, DegreesAndSinks) {
  Graph g = chain3();
  // 0 -> 1 <- 2 : node 1 is the unique sink.
  Orientation o(g, {EdgeSense::kForward, EdgeSense::kBackward});
  EXPECT_EQ(o.out_degree(0), 1u);
  EXPECT_EQ(o.out_degree(1), 0u);
  EXPECT_EQ(o.out_degree(2), 1u);
  EXPECT_EQ(o.in_degree(1), 2u);
  EXPECT_TRUE(o.is_sink(1));
  EXPECT_FALSE(o.is_sink(0));
  ASSERT_EQ(o.sinks().size(), 1u);
  EXPECT_EQ(o.sinks().next(0), 1u);
  EXPECT_EQ(o.sinks().next(0, 1), kNoNode);
}

TEST(OrientationTest, SourceDetection) {
  Graph g = chain3();
  Orientation o(g, {EdgeSense::kForward, EdgeSense::kForward});  // 0 -> 1 -> 2
  EXPECT_TRUE(o.is_source(0));
  EXPECT_FALSE(o.is_source(1));
  EXPECT_FALSE(o.is_source(2));
  EXPECT_TRUE(o.is_sink(2));
}

TEST(OrientationTest, ReverseEdgeUpdatesEverything) {
  Graph g = chain3();
  Orientation o(g, {EdgeSense::kForward, EdgeSense::kForward});  // 0 -> 1 -> 2
  EXPECT_TRUE(o.is_sink(2));
  o.reverse_edge(1);  // now 0 -> 1 <- 2
  EXPECT_EQ(o.head(1), 1u);
  EXPECT_TRUE(o.is_sink(1));
  EXPECT_FALSE(o.is_sink(2));
  EXPECT_EQ(o.reversal_count(), 1u);
}

TEST(OrientationTest, SinkSetMaintainedAcrossManyReversals) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  Orientation o = Orientation::from_ranking(g, std::vector<std::uint32_t>{0, 1, 2, 3});
  // Reverse a few edges and verify the sink set always matches a fresh scan.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    o.reverse_edge(e);
    std::vector<NodeId> expected;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (o.out_degree(u) == 0) expected.push_back(u);
    }
    std::vector<NodeId> actual;
    o.sinks().for_each([&actual](NodeId u) { actual.push_back(u); });
    EXPECT_EQ(actual, expected) << "after reversing edge " << e;
    EXPECT_EQ(o.sinks().size(), expected.size());
  }
}

TEST(OrientationTest, PointAwayFromIsIdempotent) {
  Graph g = chain3();
  Orientation o(g, {EdgeSense::kForward, EdgeSense::kForward});
  o.point_away_from(0, 0);  // already points away from 0
  EXPECT_EQ(o.reversal_count(), 0u);
  o.point_away_from(1, 0);  // flips
  EXPECT_EQ(o.reversal_count(), 1u);
  EXPECT_EQ(o.tail(0), 1u);
}

TEST(OrientationTest, OutAndInNeighbors) {
  Graph g(4, {{0, 1}, {0, 2}, {0, 3}});
  Orientation o(g, {EdgeSense::kForward, EdgeSense::kBackward, EdgeSense::kForward});
  EXPECT_EQ(o.out_neighbors(0), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(o.in_neighbors(0), (std::vector<NodeId>{2}));
}

TEST(OrientationTest, FromRankingMakesEdgesPointLowToHigh) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  Orientation o = Orientation::from_ranking(g, std::vector<std::uint32_t>{2, 0, 1});
  // rank(1)=0 < rank(2)=1 < rank(0)=2: edges point 1->2, 1->0, 2->0.
  EXPECT_EQ(o.dir(1, 2), Dir::kOut);
  EXPECT_EQ(o.dir(1, 0), Dir::kOut);
  EXPECT_EQ(o.dir(2, 0), Dir::kOut);
}

TEST(OrientationTest, FromRankingRejectsWrongSize) {
  Graph g = chain3();
  EXPECT_THROW(Orientation::from_ranking(g, std::vector<std::uint32_t>{0, 1}),
               std::invalid_argument);
}

TEST(OrientationTest, ConstructorRejectsWrongSenseCount) {
  Graph g = chain3();
  EXPECT_THROW(Orientation(g, {EdgeSense::kForward}), std::invalid_argument);
}

TEST(OrientationTest, EqualityComparesSenses) {
  Graph g = chain3();
  Orientation a(g, {EdgeSense::kForward, EdgeSense::kForward});
  Orientation b(g, {EdgeSense::kForward, EdgeSense::kForward});
  EXPECT_TRUE(a == b);
  b.reverse_edge(0);
  EXPECT_FALSE(a == b);
}

TEST(OrientationTest, IsolatedNodeIsSinkNotSource) {
  Graph g(2, {});
  Orientation o(g, {});
  EXPECT_TRUE(o.is_sink(0));
  EXPECT_FALSE(o.is_source(0));
}

}  // namespace
}  // namespace lr
