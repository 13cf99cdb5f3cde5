#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>

#include "graph/csr.hpp"
#include "graph/digraph_algos.hpp"
#include "runner/scenario.hpp"

namespace lr {
namespace {

TEST(GeneratorsTest, ChainGraph) {
  Graph g = make_chain_graph(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(GeneratorsTest, RingGraph) {
  Graph g = make_ring_graph(6);
  EXPECT_EQ(g.num_edges(), 6u);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_THROW(make_ring_graph(2), std::invalid_argument);
}

TEST(GeneratorsTest, GridGraph) {
  Graph g = make_grid_graph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3u + 2u * 4u);  // horizontal + vertical
  EXPECT_TRUE(g.is_connected());
}

TEST(GeneratorsTest, CompleteGraph) {
  Graph g = make_complete_graph(5);
  EXPECT_EQ(g.num_edges(), 10u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.degree(u), 4u);
}

TEST(GeneratorsTest, StarGraph) {
  Graph g = make_star_graph(6);
  EXPECT_EQ(g.degree(0), 5u);
  for (NodeId u = 1; u < 6; ++u) EXPECT_EQ(g.degree(u), 1u);
}

TEST(GeneratorsTest, BinaryTreeGraph) {
  Graph g = make_binary_tree_graph(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(0), 2u);  // root has children 1, 2
}

TEST(GeneratorsTest, RandomTreeIsConnectedTree) {
  std::mt19937_64 rng(42);
  for (const std::size_t n : {2u, 5u, 17u, 64u}) {
    Graph g = make_random_tree_graph(n, rng);
    EXPECT_EQ(g.num_edges(), n - 1);
    EXPECT_TRUE(g.is_connected());
  }
}

TEST(GeneratorsTest, RandomConnectedGraphHasRequestedEdges) {
  std::mt19937_64 rng(7);
  Graph g = make_random_connected_graph(20, 15, rng);
  EXPECT_EQ(g.num_edges(), 19u + 15u);
  EXPECT_TRUE(g.is_connected());
}

TEST(GeneratorsTest, RandomConnectedGraphClampsToComplete) {
  std::mt19937_64 rng(7);
  Graph g = make_random_connected_graph(4, 100, rng);
  EXPECT_EQ(g.num_edges(), 6u);  // complete graph on 4 nodes
}

TEST(GeneratorsTest, LayeredGraphConnected) {
  std::mt19937_64 rng(3);
  Graph g = make_layered_graph(4, 5, 0.3, rng);
  EXPECT_EQ(g.num_nodes(), 1u + 3u * 5u);
  EXPECT_TRUE(g.is_connected());
}

TEST(GeneratorsTest, RandomRankingIsPermutation) {
  std::mt19937_64 rng(1);
  auto rank = random_ranking(10, rng);
  std::sort(rank.begin(), rank.end());
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(rank[i], i);
}

TEST(GeneratorsTest, DestinationOrientedRankingYieldsOrientedDag) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_random_connected_graph(30, 20, rng);
    const auto rank = destination_oriented_ranking(g, 0, rng);
    // Edges point low -> high rank; routing must go *down* rank towards the
    // destination, so orient with the *reversed* ranking for this check:
    // instead verify: from_ranking then destination 0 has every node
    // reaching it via in-edges... The ranking construction guarantees every
    // non-destination node has a neighbor with smaller rank, i.e. an
    // incoming edge from the routing perspective.  Concretely:
    Orientation o = Orientation::from_ranking(g, rank);
    // Every non-destination node must have at least one *out*-edge towards
    // lower rank?  No: edges point low->high.  Destination has rank 0, so
    // all its edges point away from it; reversing the interpretation, the
    // DAG oriented *towards* the destination is the one with flipped
    // senses.  We simply check the flipped orientation is
    // destination-oriented.
    std::vector<EdgeSense> flipped(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      flipped[e] = o.sense(e) == EdgeSense::kForward ? EdgeSense::kBackward : EdgeSense::kForward;
    }
    Orientation toward(g, flipped);
    EXPECT_TRUE(is_destination_oriented(toward, 0));
  }
}

TEST(GeneratorsTest, WorstCaseChainAllNodesBad) {
  Instance inst = make_worst_case_chain(8);
  Orientation o = inst.make_orientation();
  EXPECT_EQ(bad_nodes(o, inst.destination).size(), 7u);
  EXPECT_TRUE(is_acyclic(o));
}

TEST(GeneratorsTest, RandomInstanceIsAcyclicDag) {
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Instance inst = make_random_instance(25, 15, rng);
    Orientation o = inst.make_orientation();
    EXPECT_TRUE(is_acyclic(o)) << inst.name;
    EXPECT_TRUE(inst.graph.is_connected());
  }
}

TEST(GeneratorsTest, LayeredBadInstanceMostNodesBad) {
  std::mt19937_64 rng(9);
  Instance inst = make_layered_bad_instance(4, 3, 0.5, rng);
  Orientation o = inst.make_orientation();
  EXPECT_EQ(bad_nodes(o, inst.destination).size(), inst.graph.num_nodes() - 1);
}

TEST(GeneratorsTest, SinkSourceInstanceHasInitialSinksAndSources) {
  Instance inst = make_sink_source_instance(9);
  Orientation o = inst.make_orientation();
  bool has_sink = false;
  bool has_source = false;
  for (NodeId u = 0; u < inst.graph.num_nodes(); ++u) {
    if (u == inst.destination) continue;
    if (o.is_sink(u)) has_sink = true;
    if (o.is_source(u)) has_source = true;
  }
  EXPECT_TRUE(has_sink);
  EXPECT_TRUE(has_source);
  EXPECT_TRUE(is_acyclic(o));
}

TEST(GeneratorsTest, UnitDiskGraphConnectedAndValid) {
  std::mt19937_64 rng(23);
  for (const std::size_t n : {5u, 20u, 50u}) {
    Graph g = make_unit_disk_graph(n, 0.3, rng);
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_TRUE(g.is_connected());
  }
  EXPECT_THROW(make_unit_disk_graph(0, 0.3, rng), std::invalid_argument);
  EXPECT_THROW(make_unit_disk_graph(5, 0.0, rng), std::invalid_argument);
}

TEST(GeneratorsTest, UnitDiskTinyRadiusStillConnectsByGrowing) {
  // A hopeless radius must be grown internally rather than looping forever.
  std::mt19937_64 rng(24);
  Graph g = make_unit_disk_graph(12, 0.01, rng);
  EXPECT_TRUE(g.is_connected());
}

TEST(GeneratorsTest, UnitDiskInstanceAcyclic) {
  std::mt19937_64 rng(25);
  Instance inst = make_unit_disk_instance(20, 0.35, rng);
  EXPECT_TRUE(is_acyclic(inst.make_orientation()));
  EXPECT_EQ(inst.destination, 0u);
}

TEST(GeneratorsTest, BarbellGraphShape) {
  Graph g = make_barbell_graph(4, 2);
  EXPECT_EQ(g.num_nodes(), 10u);
  // Two K4s (6 edges each) + bridge path of 3 edges.
  EXPECT_EQ(g.num_edges(), 6u + 6u + 3u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_THROW(make_barbell_graph(1, 2), std::invalid_argument);
}

TEST(GeneratorsTest, BarbellZeroBridgeJoinsCliquesDirectly) {
  Graph g = make_barbell_graph(3, 0);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_TRUE(g.adjacent(2, 3));
  EXPECT_TRUE(g.is_connected());
}

TEST(GeneratorsTest, InstanceOrientationIsFreshEachTime) {
  Instance inst = make_worst_case_chain(4);
  Orientation a = inst.make_orientation();
  a.reverse_edge(0);
  Orientation b = inst.make_orientation();
  EXPECT_EQ(b.reversal_count(), 0u);
  EXPECT_FALSE(a == b);
}

/// FNV-1a over each event's (u, v, up), in schedule order.
std::uint64_t schedule_hash(const std::vector<LinkEvent>& churn) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const LinkEvent& ev : churn) {
    mix(ev.u, 4);
    mix(ev.v, 4);
    mix(ev.up ? 1 : 0, 1);
  }
  return h;
}

// Golden values of the randomized sweep topologies: the CSR fingerprint of
// make_churn_instance(spec) and, for waypoint with churn_events = 100, the
// hash of its schedule.  Any change to a generator's RNG draws, dedup or
// edge order moves them, so a generator rewrite must leave this table alone.
TEST(GeneratorsTest, SeededInstancesMatchGoldenFingerprints) {
  constexpr std::uint64_t kNoSchedule = 0xcbf29ce484222325ull;  // hash of an empty schedule
  struct Golden {
    TopologyKind topology;
    std::size_t size;
    std::uint64_t seed;
    std::uint64_t csr_fingerprint;
    std::uint64_t schedule;
  };
  const Golden golden[] = {
      {TopologyKind::kWideRandom, 8, 1, 0xa1753a918f2cc119ull, kNoSchedule},
      {TopologyKind::kWideRandom, 8, 2, 0x74f4429961e7d0cdull, kNoSchedule},
      {TopologyKind::kWideRandom, 8, 3, 0x44d78a3944d4f8e1ull, kNoSchedule},
      {TopologyKind::kWideRandom, 300, 1, 0x1ae4fc2a7c9d80d7ull, kNoSchedule},
      {TopologyKind::kWideRandom, 300, 2, 0xbab793dd50d591c2ull, kNoSchedule},
      {TopologyKind::kWideRandom, 300, 3, 0x3aae03d699ff32d0ull, kNoSchedule},
      {TopologyKind::kWideRandom, 5000, 1, 0x657d202c12f85431ull, kNoSchedule},
      {TopologyKind::kWideRandom, 5000, 2, 0x98f8a9cd13045d30ull, kNoSchedule},
      {TopologyKind::kWideRandom, 5000, 3, 0x9ba7f5d18753f635ull, kNoSchedule},
      {TopologyKind::kRandom, 8, 1, 0xd4787b932a077aa5ull, kNoSchedule},
      {TopologyKind::kRandom, 8, 2, 0x83e130572dd34e58ull, kNoSchedule},
      {TopologyKind::kRandom, 8, 3, 0xba8e177a4b1ae18eull, kNoSchedule},
      {TopologyKind::kRandom, 300, 1, 0x62bf6893ffcea2f2ull, kNoSchedule},
      {TopologyKind::kRandom, 300, 2, 0x41a3b94ef99201f1ull, kNoSchedule},
      {TopologyKind::kRandom, 300, 3, 0x7f4f01b81200dfcdull, kNoSchedule},
      {TopologyKind::kRandom, 5000, 1, 0x6be60af317f60ea8ull, kNoSchedule},
      {TopologyKind::kRandom, 5000, 2, 0x0626d62d32f48fd6ull, kNoSchedule},
      {TopologyKind::kRandom, 5000, 3, 0x4331cd17e586fe33ull, kNoSchedule},
      {TopologyKind::kLayered, 8, 1, 0x0dde9d411209b5ccull, kNoSchedule},
      {TopologyKind::kLayered, 8, 2, 0x5cf5e4d8739f81b8ull, kNoSchedule},
      {TopologyKind::kLayered, 8, 3, 0x51c1dcd737a84dfcull, kNoSchedule},
      {TopologyKind::kLayered, 300, 1, 0x888c8ce0a5b4bbe8ull, kNoSchedule},
      {TopologyKind::kLayered, 300, 2, 0x41cf0b5caed03ff0ull, kNoSchedule},
      {TopologyKind::kLayered, 300, 3, 0x115ca50b03f2320eull, kNoSchedule},
      {TopologyKind::kLayered, 5000, 1, 0xc3b0c37d8acde586ull, kNoSchedule},
      {TopologyKind::kLayered, 5000, 2, 0x7c28caac58fd7854ull, kNoSchedule},
      {TopologyKind::kLayered, 5000, 3, 0x367c9fc3ebaa0e4full, kNoSchedule},
      {TopologyKind::kUnitDisk, 8, 1, 0xb338d219f9cae92bull, kNoSchedule},
      {TopologyKind::kUnitDisk, 8, 2, 0xa739caca28651ac7ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 8, 3, 0x676b022343674102ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 300, 1, 0xfa2003441ded656eull, kNoSchedule},
      {TopologyKind::kUnitDisk, 300, 2, 0x4f31739cbfc9a89aull, kNoSchedule},
      {TopologyKind::kUnitDisk, 300, 3, 0x51f086ee778a0d92ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 5000, 1, 0x7958bdd46aab57d1ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 5000, 2, 0xa558cf1f26ed0a35ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 5000, 3, 0x2dbf9c74f07a3dfdull, kNoSchedule},
      {TopologyKind::kWaypoint, 8, 1, 0x663831e1404fd6adull, 0x9eebd8dd214c576dull},
      {TopologyKind::kWaypoint, 8, 2, 0x9fc9253ea8d50de1ull, 0x74ed45829ad8f476ull},
      {TopologyKind::kWaypoint, 8, 3, 0x9f876ac2e9686147ull, 0x4fa1ce9952a88fccull},
      {TopologyKind::kWaypoint, 300, 1, 0x68b7d7c68923f0e3ull, 0x36eeed8afb25ebb7ull},
      {TopologyKind::kWaypoint, 300, 2, 0x98f277a9034be692ull, 0x10ce8807060f68a4ull},
      {TopologyKind::kWaypoint, 300, 3, 0x9977475a49d0a130ull, 0xbb7c0a758bcbd36cull},
      {TopologyKind::kWaypoint, 5000, 1, 0x927afc7b1ac5c316ull, 0xe2f0720c9db64ffcull},
      {TopologyKind::kWaypoint, 5000, 2, 0x35e31315b835a47cull, 0x029262483e275fb0ull},
      {TopologyKind::kWaypoint, 5000, 3, 0x1090904a53ab876aull, 0x6e458e505958065eull},
  };
  for (const Golden& g : golden) {
    RunSpec spec;
    spec.topology = g.topology;
    spec.size = g.size;
    spec.seed = g.seed;
    if (g.topology == TopologyKind::kWaypoint) spec.churn_events = 100;
    SCOPED_TRACE(std::string(topology_token(g.topology)) + "-" + std::to_string(g.size) +
                 " seed " + std::to_string(g.seed));
    const ChurnInstance churn = make_churn_instance(spec);
    EXPECT_EQ(CsrGraph(churn.instance.graph, churn.instance.senses).fingerprint(),
              g.csr_fingerprint);
    EXPECT_EQ(schedule_hash(churn.churn), g.schedule);
  }
}

// The generator contract (docs/ARCHITECTURE.md): every sweep topology's
// edge list is strictly ascending in canonical (min, max) order, which is
// what lets Graph skip its duplicate sort and per-node sorts.
TEST(GeneratorsTest, SweepTopologiesEmitStrictlyAscendingCanonicalEdges) {
  for (const TopologyKind topology :
       {TopologyKind::kChain, TopologyKind::kRandom, TopologyKind::kGrid, TopologyKind::kLayered,
        TopologyKind::kStar, TopologyKind::kUnitDisk, TopologyKind::kTorus,
        TopologyKind::kWideRandom, TopologyKind::kWaypoint}) {
    RunSpec spec;
    spec.topology = topology;
    spec.size = 300;
    const Instance instance = make_instance(spec);
    const auto& edges = instance.graph.edges();
    EXPECT_EQ(std::adjacent_find(edges.begin(), edges.end(),
                                 [](const auto& x, const auto& y) { return !(x < y); }),
              edges.end())
        << topology_token(topology);
  }
}

// Golden CSR fingerprints of the torus (all-forward senses) pin its edge
// list, which no randomized golden above covers; every node has degree 4
// and m = 2 * rows * cols.
TEST(GeneratorsTest, TorusMatchesGoldenFingerprints) {
  struct Golden {
    std::size_t rows;
    std::size_t cols;
    std::uint64_t fingerprint;
  };
  const Golden golden[] = {
      {3, 3, 0x6065a1d62806932eull},
      {3, 5, 0x8b31d76c1e8e1010ull},
      {8, 13, 0xd96db716d503b600ull},
      {100, 100, 0xed29802516efede0ull},
  };
  for (const Golden& g : golden) {
    const Graph torus = make_torus_graph(g.rows, g.cols);
    EXPECT_EQ(torus.num_edges(), 2 * g.rows * g.cols) << g.rows << "x" << g.cols;
    for (NodeId u = 0; u < torus.num_nodes(); ++u) ASSERT_EQ(torus.degree(u), 4u);
    EXPECT_EQ(CsrGraph(torus).fingerprint(), g.fingerprint) << g.rows << "x" << g.cols;
  }
  EXPECT_THROW(make_torus_graph(2, 5), std::invalid_argument);
}

TEST(GeneratorsTest, WaypointChurnReplayRestoresInitialFingerprint) {
  // The random-waypoint schedule's healing suffix guarantees full replay
  // returns to the initial link set, so the snapshot frozen from the
  // replayed links is byte-identical to the initial one.
  std::mt19937_64 rng(4242);
  const ChurnInstance churned = make_waypoint_churn_instance(200, 0.18, 400, rng);
  ASSERT_GE(churned.churn.size(), 400u);

  const Graph& initial = churned.instance.graph;
  std::set<std::pair<NodeId, NodeId>> links(initial.edges().begin(), initial.edges().end());
  const auto initial_links = links;
  bool diverged = false;
  for (const LinkEvent& event : churned.churn) {
    const std::pair<NodeId, NodeId> link = std::minmax(event.u, event.v);
    ASSERT_EQ(links.count(link), event.up ? 0u : 1u) << "event must flip the link";
    if (event.up) {
      links.insert(link);
    } else {
      links.erase(link);
    }
    diverged = diverged || links != initial_links;
  }
  EXPECT_TRUE(diverged) << "schedule never changed the topology";
  const Graph replayed(initial.num_nodes(), {links.begin(), links.end()});
  EXPECT_EQ(CsrGraph(replayed, churned.instance.senses).fingerprint(),
            CsrGraph(initial, churned.instance.senses).fingerprint());
}

}  // namespace
}  // namespace lr
