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
      {TopologyKind::kWideRandom, 8, 1, 0xa40092b170a329d9ull, kNoSchedule},
      {TopologyKind::kWideRandom, 8, 2, 0x5ab77bebe22cf14dull, kNoSchedule},
      {TopologyKind::kWideRandom, 8, 3, 0xc091c2aba40bafe1ull, kNoSchedule},
      {TopologyKind::kWideRandom, 300, 1, 0xb835f2b089a924fbull, kNoSchedule},
      {TopologyKind::kWideRandom, 300, 2, 0xdb9489b88ef418feull, kNoSchedule},
      {TopologyKind::kWideRandom, 300, 3, 0x567788a168b4b280ull, kNoSchedule},
      {TopologyKind::kWideRandom, 5000, 1, 0x94bc80abd4870b11ull, kNoSchedule},
      {TopologyKind::kWideRandom, 5000, 2, 0x967b95cdc1615bdcull, kNoSchedule},
      {TopologyKind::kWideRandom, 5000, 3, 0x0d1edc1bb38ba7a9ull, kNoSchedule},
      {TopologyKind::kRandom, 8, 1, 0xbf6dc9edace8dd25ull, kNoSchedule},
      {TopologyKind::kRandom, 8, 2, 0xfed823f44ced5598ull, kNoSchedule},
      {TopologyKind::kRandom, 8, 3, 0x0e90d374afab4daeull, kNoSchedule},
      {TopologyKind::kRandom, 300, 1, 0x7497d582083c099aull, kNoSchedule},
      {TopologyKind::kRandom, 300, 2, 0x00c8bbeb069cbf35ull, kNoSchedule},
      {TopologyKind::kRandom, 300, 3, 0x734c25cda55098e9ull, kNoSchedule},
      {TopologyKind::kRandom, 5000, 1, 0xd746ad2cb4ff5f64ull, kNoSchedule},
      {TopologyKind::kRandom, 5000, 2, 0xdd24cf7a1920300aull, kNoSchedule},
      {TopologyKind::kRandom, 5000, 3, 0x9561918b9d147a1full, kNoSchedule},
      {TopologyKind::kLayered, 8, 1, 0xb3ee24aed84da4ccull, kNoSchedule},
      {TopologyKind::kLayered, 8, 2, 0x52ae0abec5112598ull, kNoSchedule},
      {TopologyKind::kLayered, 8, 3, 0x88f7d8a7a92511dcull, kNoSchedule},
      {TopologyKind::kLayered, 300, 1, 0x6c2626a696063f54ull, kNoSchedule},
      {TopologyKind::kLayered, 300, 2, 0x5e757a6774d26660ull, kNoSchedule},
      {TopologyKind::kLayered, 300, 3, 0x86ee05d08253c026ull, kNoSchedule},
      {TopologyKind::kLayered, 5000, 1, 0xae7ca2c8b99c21caull, kNoSchedule},
      {TopologyKind::kLayered, 5000, 2, 0xced21b6f3c7ca1d4ull, kNoSchedule},
      {TopologyKind::kLayered, 5000, 3, 0x54751283d8b6d5cfull, kNoSchedule},
      {TopologyKind::kUnitDisk, 8, 1, 0x679e79db2c2c7bebull, kNoSchedule},
      {TopologyKind::kUnitDisk, 8, 2, 0x10c13d17608d3947ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 8, 3, 0xacae6680fddd6c02ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 300, 1, 0x72b9ca140c6bc3caull, kNoSchedule},
      {TopologyKind::kUnitDisk, 300, 2, 0x9d19e7b05f566c1eull, kNoSchedule},
      {TopologyKind::kUnitDisk, 300, 3, 0x2afeeaae8e24c976ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 5000, 1, 0xf4cf91710a602849ull, kNoSchedule},
      {TopologyKind::kUnitDisk, 5000, 2, 0x1f5e18ae8acf812dull, kNoSchedule},
      {TopologyKind::kUnitDisk, 5000, 3, 0xf89b9c1961fedb59ull, kNoSchedule},
      {TopologyKind::kWaypoint, 8, 1, 0x833579853bbdd3adull, 0x9eebd8dd214c576dull},
      {TopologyKind::kWaypoint, 8, 2, 0xd173de60c441c681ull, 0x74ed45829ad8f476ull},
      {TopologyKind::kWaypoint, 8, 3, 0x26b2d0f90f56f3e7ull, 0x4fa1ce9952a88fccull},
      {TopologyKind::kWaypoint, 300, 1, 0xbef9cafec94ddfcbull, 0x36eeed8afb25ebb7ull},
      {TopologyKind::kWaypoint, 300, 2, 0x2905b6a89f621d12ull, 0x10ce8807060f68a4ull},
      {TopologyKind::kWaypoint, 300, 3, 0x8f4108a5263c63a0ull, 0xbb7c0a758bcbd36cull},
      {TopologyKind::kWaypoint, 5000, 1, 0xf271bbe962262b9aull, 0xe2f0720c9db64ffcull},
      {TopologyKind::kWaypoint, 5000, 2, 0x07a74c9508ba95e4ull, 0x029262483e275fb0ull},
      {TopologyKind::kWaypoint, 5000, 3, 0xa622b06d0e310a32ull, 0x6e458e505958065eull},
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
      {3, 3, 0xa9f43ac964fb18eeull},
      {3, 5, 0x7d79277692f47690ull},
      {8, 13, 0x97b136d113f62370ull},
      {100, 100, 0x552cf47fe15f2ee0ull},
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
