// Tests for the immutable CSR execution core (graph/csr.hpp): conversion
// round-trips against the Graph front-end, the initial in/out partition
// against the automata's reference definition of the paper's constant
// sets, what a freeze adds to its Graph, and churned routing adjacency
// against fresh rebuilds.

#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/lr_base.hpp"
#include "graph/generators.hpp"
#include "routing/dynamic_heights.hpp"

namespace {
// Bytes this thread asks operator new for while it points here: lets a
// test see everything one construction allocates, not only the arrays it
// has accessors for.
thread_local std::size_t* counted_bytes = nullptr;
}  // namespace

// The replacements pair malloc with free; GCC cannot see that once it
// inlines them into a new/delete pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t bytes) {
  if (counted_bytes != nullptr) *counted_bytes += bytes;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace lr {
namespace {

std::vector<Instance> test_instances() {
  std::vector<Instance> instances;
  instances.push_back(make_worst_case_chain(9));
  std::mt19937_64 rng(7);
  instances.push_back(make_random_instance(24, 24, rng));
  instances.push_back(make_grid_instance(4, 5, rng));
  instances.push_back(make_sink_source_instance(9));
  instances.push_back(make_layered_bad_instance(4, 4, 0.4, rng));
  instances.push_back(make_unit_disk_instance(20, 0.35, rng));
  return instances;
}

std::vector<NodeId> graph_neighbor_ids(const Graph& g, NodeId u) {
  const auto nbrs = g.neighbors(u);
  return {nbrs.begin(), nbrs.end()};
}

TEST(CsrGraphTest, RoundTripNeighborSetsEqualGraph) {
  for (const Instance& instance : test_instances()) {
    const Graph& g = instance.graph;
    const CsrGraph csr(g, instance.senses);
    ASSERT_EQ(csr.num_nodes(), g.num_nodes());
    ASSERT_EQ(csr.num_edges(), g.num_edges());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(csr.degree(u), g.degree(u));
      const auto nbrs = csr.neighbors(u);
      const std::vector<NodeId> expected = graph_neighbor_ids(g, u);
      ASSERT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), expected) << "node " << u;
      const auto edges = csr.incident_edges(u);
      ASSERT_EQ(edges.size(), nbrs.size());
      for (std::size_t i = 0; i < edges.size(); ++i) {
        EXPECT_EQ(g.edge_between(u, nbrs[i]), edges[i]);
      }
    }
  }
}

TEST(CsrGraphTest, GraphOnlyConversionUsesAllForwardSenses) {
  const Graph g = make_chain_graph(6);
  const CsrGraph csr(g);
  for (const EdgeSense sense : csr.initial_senses()) {
    EXPECT_EQ(sense, EdgeSense::kForward);
  }
  // Forward = smaller -> larger id, so in-neighbors are exactly the
  // smaller-id neighbors.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : csr.initial_in_neighbors(u)) EXPECT_LT(v, u);
    for (const NodeId v : csr.initial_out_neighbors(u)) EXPECT_GT(v, u);
  }
}

TEST(CsrGraphTest, InitialPartitionMatchesAutomatonReferenceSets) {
  for (const Instance& instance : test_instances()) {
    const CsrGraph csr(instance.graph, instance.senses);
    const LinkReversalBase reference(instance.graph, instance.make_orientation(),
                                     instance.destination);
    for (NodeId u = 0; u < csr.num_nodes(); ++u) {
      const auto in = csr.initial_in_neighbors(u);
      const auto out = csr.initial_out_neighbors(u);
      EXPECT_EQ(std::vector<NodeId>(in.begin(), in.end()), reference.initial_in_neighbors(u));
      EXPECT_EQ(std::vector<NodeId>(out.begin(), out.end()), reference.initial_out_neighbors(u));
      EXPECT_EQ(csr.initial_in_degree(u) + csr.initial_out_degree(u), csr.degree(u));
    }
  }
}

TEST(CsrGraphTest, PointsOutOfMatchesOrientationDir) {
  for (const Instance& instance : test_instances()) {
    const CsrGraph csr(instance.graph, instance.senses);
    const Orientation o = instance.make_orientation();
    for (NodeId u = 0; u < csr.num_nodes(); ++u) {
      for (CsrPos p = csr.adjacency_begin(u); p < csr.adjacency_end(u); ++p) {
        EXPECT_EQ(csr.points_out_of(p, u, o.senses()),
                  o.dir_from(u, csr.edge_at(p)) == Dir::kOut);
      }
    }
  }
}

TEST(CsrGraphTest, DegenerateGraphs) {
  const CsrGraph empty;
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);

  const CsrGraph empty_converted((Graph()));
  EXPECT_EQ(empty_converted.num_nodes(), 0u);

  const Graph single(1, {});
  const CsrGraph single_csr(single);
  EXPECT_EQ(single_csr.num_nodes(), 1u);
  EXPECT_TRUE(single_csr.neighbors(0).empty());
  EXPECT_TRUE(single_csr.initial_in_neighbors(0).empty());
  EXPECT_TRUE(single_csr.initial_out_neighbors(0).empty());

  // Disconnected graph with an isolated middle node.
  const Graph disconnected(5, {{0, 1}, {3, 4}});
  const CsrGraph disconnected_csr(disconnected);
  EXPECT_TRUE(disconnected_csr.neighbors(2).empty());
  EXPECT_EQ(disconnected_csr.degree(0), 1u);
  EXPECT_EQ(disconnected_csr.neighbors(3).front(), 4u);
}

TEST(CsrGraphTest, RejectsSenseVectorOfWrongSize) {
  const Graph g = make_chain_graph(4);
  const std::vector<EdgeSense> too_short(g.num_edges() - 1, EdgeSense::kForward);
  EXPECT_THROW(CsrGraph(g, too_short), std::invalid_argument);
}

// One adjacency store: the CSR form reads the graph's own offsets,
// neighbour and edge arrays, copies share every array, and the shared
// arrays outlive the Graph they came from.
TEST(CsrGraphTest, SharesTheGraphAdjacency) {
  std::mt19937_64 rng(11);
  const Instance instance = make_random_instance(40, 60, rng);
  const auto edges = instance.graph.edges();
  CsrGraph csr;
  std::uint64_t fingerprint = 0;
  {
    const Graph g(instance.graph.num_nodes(), {edges.begin(), edges.end()});
    const Graph g_copy = g;
    EXPECT_EQ(g_copy.neighbors(0).data(), g.neighbors(0).data());
    csr = CsrGraph(g, instance.senses);
    EXPECT_EQ(csr.raw_neighbors().data(), g.neighbors(0).data());
    EXPECT_EQ(csr.raw_edges().data(), g.incident_edges(0).data());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(csr.neighbors(u).data(), g.neighbors(u).data()) << "node " << u;
      EXPECT_EQ(csr.incident_edges(u).data(), g.incident_edges(u).data()) << "node " << u;
    }
    const CsrGraph csr_copy = csr;
    EXPECT_EQ(csr_copy.raw_partition_neighbors().data(), csr.raw_partition_neighbors().data());
    EXPECT_EQ(csr_copy.raw_splits().data(), csr.raw_splits().data());
    fingerprint = csr.fingerprint();
  }  // both Graphs die here; the arrays live on in csr
  EXPECT_EQ(csr.fingerprint(), fingerprint);
  EXPECT_EQ(Graph(csr), instance.graph);
}

// A freeze reuses the Graph's offsets, neighbour and edge arrays and adds
// exactly the paper's constant sets (2m partition ids), one split per node
// and one sense per edge: no other per-position array, whether or not it
// has an accessor.
TEST(CsrGraphTest, FreezeAddsOnlyThePartitionSplitsAndSenses) {
  std::mt19937_64 rng(5);
  for (const Instance& instance :
       {make_worst_case_chain(100), make_random_instance(300, 600, rng),
        make_grid_instance(12, 15, rng), make_unit_disk_instance(200, 0.2, rng)}) {
    const Graph& g = instance.graph;
    const std::size_t n = g.num_nodes();
    const std::size_t m = g.num_edges();
    std::size_t allocated = 0;
    counted_bytes = &allocated;
    const CsrGraph csr(g, instance.senses);
    counted_bytes = nullptr;

    // Two freezes of g read one offsets array, so neither copied it.
    EXPECT_EQ(csr.raw_offsets().data(), CsrGraph(g).raw_offsets().data());
    EXPECT_EQ(csr.raw_neighbors().data(), g.neighbors(0).data());
    EXPECT_EQ(csr.raw_edges().data(), g.incident_edges(0).data());
    EXPECT_EQ(csr.raw_partition_neighbors().size_bytes(), 2 * m * sizeof(NodeId));
    EXPECT_EQ(csr.raw_splits().size_bytes(), n * sizeof(CsrPos));
    EXPECT_EQ(csr.initial_senses().size_bytes(), m * sizeof(EdgeSense));
    EXPECT_TRUE(csr.raw_mirrors().empty());
    EXPECT_TRUE(csr.raw_partition_positions().empty());

    // Beyond the three arrays, one AdjacencyStore and its shared_ptr
    // control block, which is less than one more 4-byte entry per position.
    const std::size_t arrays = csr.raw_partition_neighbors().size_bytes() +
                               csr.raw_splits().size_bytes() + csr.initial_senses().size_bytes();
    const std::size_t store = sizeof(AdjacencyStore) + 32;
    ASSERT_LT(store, 2 * m * sizeof(CsrPos));
    EXPECT_GE(allocated, arrays);
    EXPECT_LE(allocated, arrays + store);
  }
}

// ---------------------------------------------------------------------------
// Churned adjacency against fresh rebuilds
// ---------------------------------------------------------------------------

TEST(CsrGraphPatchTest, RandomizedChurnStaysIdenticalToRebuilds) {
  // A CsrGraph is never patched: link churn updates DynamicHeightsDag's
  // per-node neighbour lists in place.  After every random insert or
  // remove, those lists and the DAG's height orientation must equal a
  // CsrGraph rebuilt from scratch over the same link set, with each
  // link's sense read off the heights.
  const std::size_t n = 16;
  std::mt19937_64 rng(2024);
  std::vector<std::pair<NodeId, NodeId>> links;  // sorted canonical
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng() % 3 == 0) links.push_back({u, v});
    }
  }
  DynamicHeightsDag dag(Graph(n, links), 0);
  for (int op = 0; op < 200; ++op) {
    const NodeId u = static_cast<NodeId>(rng() % n);
    NodeId v = static_cast<NodeId>(rng() % n);
    if (u == v) v = (v + 1) % n;
    const auto link = u < v ? std::pair{u, v} : std::pair{v, u};
    const auto rank = std::lower_bound(links.begin(), links.end(), link);
    if (rank != links.end() && *rank == link) {
      dag.remove_link(u, v);
      links.erase(rank);
    } else {
      dag.add_link(u, v);
      links.insert(rank, link);
    }
    if (op % 4 == 0) dag.stabilize();  // reverse some links so senses mix

    std::vector<EdgeSense> senses;
    for (const auto& [a, b] : links) {
      senses.push_back(dag.directed_from(a, b) ? EdgeSense::kForward : EdgeSense::kBackward);
    }
    const CsrGraph rebuilt(Graph(n, links), senses);
    for (NodeId w = 0; w < n; ++w) {
      const auto mine = dag.neighbors(w);
      const auto theirs = rebuilt.neighbors(w);
      ASSERT_TRUE(std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end()))
          << "op " << op << " node " << w << ": neighbour lists differ";
      std::vector<NodeId> out;
      for (const NodeId x : mine) {
        if (dag.directed_from(w, x)) out.push_back(x);
      }
      const auto rebuilt_out = rebuilt.initial_out_neighbors(w);
      std::vector<NodeId> expected_out(rebuilt_out.begin(), rebuilt_out.end());
      std::sort(expected_out.begin(), expected_out.end());
      ASSERT_EQ(out, expected_out) << "op " << op << " node " << w;
      ASSERT_EQ(dag.is_sink(w), rebuilt.degree(w) > 0 && rebuilt.initial_out_degree(w) == 0)
          << "op " << op << " node " << w;
    }
  }
}

}  // namespace
}  // namespace lr
