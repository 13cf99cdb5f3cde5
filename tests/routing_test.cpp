#include <gtest/gtest.h>

#include <span>

#include "dynamic_heights_oracle.hpp"
#include "graph/generators.hpp"
#include "routing/dynamic_heights.hpp"
#include "routing/leader_election.hpp"
#include "routing/mutex.hpp"
#include "routing/tora.hpp"

namespace lr {
namespace {

// ---------------------------------------------------------------------------
// DynamicHeightsDag
// ---------------------------------------------------------------------------

TEST(DynamicHeightsTest, AddRemoveLinksIdempotent) {
  DynamicHeightsDag dag(4, 0);
  dag.add_link(0, 1);
  dag.add_link(0, 1);
  EXPECT_TRUE(dag.has_link(0, 1));
  EXPECT_TRUE(dag.has_link(1, 0));
  dag.remove_link(1, 0);
  dag.remove_link(1, 0);
  EXPECT_FALSE(dag.has_link(0, 1));
}

TEST(DynamicHeightsTest, StabilizeOrientsChainTowardsDestination) {
  DynamicHeightsDag dag(5, 0);
  for (NodeId u = 0; u + 1 < 5; ++u) dag.add_link(u, u + 1);
  dag.stabilize();
  for (NodeId u = 1; u < 5; ++u) {
    const auto path = dag.route(u);
    ASSERT_TRUE(path.has_value()) << "node " << u;
    EXPECT_EQ(path->back(), 0u);
  }
}

TEST(DynamicHeightsTest, HeightsStrictlyDecreaseAlongRoutes) {
  std::mt19937_64 rng(41);
  Graph g = make_random_connected_graph(20, 15, rng);
  DynamicHeightsDag dag(20, 3);
  for (EdgeId e = 0; e < g.num_edges(); ++e) dag.add_link(g.edge_u(e), g.edge_v(e));
  dag.stabilize();
  for (NodeId u = 0; u < 20; ++u) {
    const auto path = dag.route(u);
    ASSERT_TRUE(path.has_value());
    for (std::size_t i = 0; i + 1 < path->size(); ++i) {
      EXPECT_GT(dag.height((*path)[i]), dag.height((*path)[i + 1]));
    }
  }
}

TEST(DynamicHeightsTest, DisconnectedComponentReportedUnroutable) {
  DynamicHeightsDag dag(4, 0);
  dag.add_link(0, 1);
  dag.add_link(2, 3);  // separate component
  dag.stabilize();
  EXPECT_TRUE(dag.routable(1));
  EXPECT_FALSE(dag.routable(2));
  EXPECT_FALSE(dag.route(2).has_value());
}

TEST(DynamicHeightsTest, RemovalThenStabilizeRestoresRoutes) {
  // Ring: two disjoint routes; removing one link must not break routing.
  DynamicHeightsDag dag(6, 0);
  for (NodeId u = 0; u < 6; ++u) dag.add_link(u, (u + 1) % 6);
  dag.stabilize();
  dag.remove_link(0, 1);  // 1 must now route the long way
  dag.stabilize();
  const auto path = dag.route(1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->back(), 0u);
  EXPECT_GE(path->size(), 3u);
}

TEST(DynamicHeightsTest, SinkDetection) {
  DynamicHeightsDag dag(3, 0);
  dag.add_link(0, 1);
  dag.add_link(1, 2);
  dag.stabilize();
  EXPECT_FALSE(dag.is_sink(1));
  EXPECT_FALSE(dag.is_sink(2));
  // Destination is the global sink.
  EXPECT_TRUE(dag.is_sink(0));
}

TEST(DynamicHeightsTest, RejectsBadArguments) {
  DynamicHeightsDag dag(3, 0);
  EXPECT_THROW(dag.add_link(0, 0), std::invalid_argument);
  EXPECT_THROW(dag.add_link(0, 9), std::invalid_argument);
  EXPECT_THROW(dag.set_destination(9), std::invalid_argument);
  EXPECT_THROW(DynamicHeightsDag(3, 7), std::invalid_argument);
  EXPECT_THROW(DynamicHeightsDag(make_chain_graph(3), 7), std::invalid_argument);
}

TEST(DynamicHeightsTest, BatchConstructorMatchesIncrementalConstruction) {
  std::mt19937_64 rng(47);
  const Graph g = make_random_connected_graph(24, 20, rng);

  DynamicHeightsDag batch(g, 5);
  DynamicHeightsDag incremental(g.num_nodes(), 5);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    incremental.add_link(g.edge_u(e), g.edge_v(e));
  }
  EXPECT_EQ(batch.stabilize(), incremental.stabilize());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(batch.height(u), incremental.height(u)) << "node " << u;
    EXPECT_EQ(batch.is_sink(u), incremental.is_sink(u)) << "node " << u;
    EXPECT_EQ(batch.route(u), incremental.route(u)) << "node " << u;
  }
}

TEST(DynamicHeightsTest, NeighborsSliceTracksChurnAndStaysAscending) {
  DynamicHeightsDag dag(5, 0);
  dag.add_link(2, 4);
  dag.add_link(2, 0);
  dag.add_link(2, 3);
  const auto slice = dag.neighbors(2);
  EXPECT_EQ(std::vector<NodeId>(slice.begin(), slice.end()),
            (std::vector<NodeId>{0, 3, 4}));
  dag.remove_link(2, 3);
  const auto after = dag.neighbors(2);
  EXPECT_EQ(std::vector<NodeId>(after.begin(), after.end()), (std::vector<NodeId>{0, 4}));
  EXPECT_TRUE(dag.neighbors(1).empty());
}

TEST(DynamicHeightsTest, QueriesBetweenChurnEventsShareOneSnapshot) {
  // Interleaved queries after a single churn event must agree with a
  // freshly built DAG over the same link set.
  DynamicHeightsDag dag(6, 0);
  for (NodeId u = 0; u + 1 < 6; ++u) dag.add_link(u, u + 1);
  dag.stabilize();
  dag.remove_link(2, 3);
  EXPECT_FALSE(dag.has_link(2, 3));  // queried before stabilize()
  dag.stabilize();
  EXPECT_TRUE(dag.routable(2));
  EXPECT_FALSE(dag.routable(3));
  EXPECT_FALSE(dag.route(3).has_value());
  const auto path = dag.route(2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->back(), 0u);
}

TEST(DynamicHeightsTest, SingleLinkChurnPatchesInsteadOfRebuilding) {
  std::mt19937_64 rng(53);
  const Graph g = make_random_connected_graph(24, 28, rng);
  DynamicHeightsDag dag(g, 0);
  EXPECT_EQ(dag.snapshot_rebuilds(), 1u);  // the constructor's build
  dag.stabilize();

  // 40 single-link events with stabilize/route traffic in between update
  // the adjacency in place: one patch each, no further rebuild.
  std::uint64_t events = 0;
  for (int i = 0; i < 40; ++i) {
    const NodeId u = static_cast<NodeId>(rng() % 24);
    NodeId v = static_cast<NodeId>(rng() % 24);
    if (u == v) v = (v + 1) % 24;
    if (dag.has_link(u, v)) {
      dag.remove_link(u, v);
    } else {
      dag.add_link(u, v);
    }
    ++events;
    dag.stabilize();
    dag.route(u);
  }
  EXPECT_EQ(dag.snapshot_rebuilds(), 1u);
  EXPECT_EQ(dag.snapshot_patches(), events);
}

TEST(DynamicHeightsTest, PatchedAndRebuiltSnapshotsBehaveIdentically) {
  // Two DAGs, identical event streams: `patched` updates its neighbour
  // lists, sink counts and component membership in place per event;
  // `control` is the whole-graph oracle, which rebuilds a CSR snapshot and
  // re-derives the destination's component on the first query after every
  // event.  Heights, stabilization work, sinks and routes must agree after
  // every event.
  std::mt19937_64 rng(59);
  const Graph g = make_random_connected_graph(20, 24, rng);
  DynamicHeightsDag patched(g, 2);
  oracle::DynamicHeightsDag control(g, 2);
  ASSERT_EQ(patched.stabilize(), control.stabilize());
  std::uint64_t events = 0;
  for (int i = 0; i < 30; ++i) {
    const NodeId u = static_cast<NodeId>(rng() % 20);
    NodeId v = static_cast<NodeId>(rng() % 20);
    if (u == v) v = (v + 1) % 20;
    if (patched.has_link(u, v)) {
      patched.remove_link(u, v);
      control.remove_link(u, v);
    } else {
      patched.add_link(u, v);
      control.add_link(u, v);
    }
    ++events;
    ASSERT_EQ(patched.stabilize(), control.stabilize()) << "event " << i;
    for (NodeId w = 0; w < 20; ++w) {
      ASSERT_EQ(patched.height(w), control.height(w)) << "event " << i << " node " << w;
      ASSERT_EQ(patched.is_sink(w), control.is_sink(w)) << "event " << i << " node " << w;
      ASSERT_EQ(patched.routable(w), control.routable(w)) << "event " << i << " node " << w;
      ASSERT_EQ(patched.route(w), control.route(w)) << "event " << i << " node " << w;
    }
  }
  EXPECT_EQ(patched.snapshot_rebuilds(), 1u);
  EXPECT_EQ(patched.snapshot_patches(), events);
}

TEST(DynamicHeightsTest, BatchChurnFallsBackToOneRebuild) {
  // A batch of link events between two stabilize() calls costs no rebuild
  // beyond the constructor's one, however large: each effective event is
  // one O(deg) patch.  The outcome must equal the whole-graph oracle's,
  // which rebuilds its snapshot once per batch.
  DynamicHeightsDag dag(make_chain_graph(8), 0);
  oracle::DynamicHeightsDag control(make_chain_graph(8), 0);
  const auto apply = [&](std::span<const LinkEvent> batch) {
    for (const LinkEvent& event : batch) {
      if (event.up) {
        dag.add_link(event.u, event.v);
        control.add_link(event.u, event.v);
      } else {
        dag.remove_link(event.u, event.v);
        control.remove_link(event.u, event.v);
      }
    }
  };
  const auto expect_same = [&](const char* context) {
    for (NodeId u = 0; u < 8; ++u) {
      ASSERT_EQ(dag.height(u), control.height(u)) << context << " node " << u;
      ASSERT_EQ(dag.route(u), control.route(u)) << context << " node " << u;
    }
  };
  ASSERT_EQ(dag.stabilize(), control.stabilize());
  EXPECT_EQ(dag.snapshot_rebuilds(), 1u);

  const LinkEvent small_batch[] = {{0, 2, true}, {0, 3, true}};
  apply(small_batch);
  EXPECT_EQ(dag.snapshot_rebuilds(), 1u);
  EXPECT_EQ(dag.snapshot_patches(), 2u);
  ASSERT_EQ(dag.stabilize(), control.stabilize());
  expect_same("small batch");

  const LinkEvent large_batch[] = {{0, 4, true}, {0, 5, true}, {1, 3, true},
                                   {1, 4, true}, {2, 4, true}, {0, 2, false}};
  apply(large_batch);
  EXPECT_EQ(dag.snapshot_patches(), 8u);
  ASSERT_EQ(dag.stabilize(), control.stabilize());
  EXPECT_EQ(dag.snapshot_rebuilds(), 1u);
  EXPECT_TRUE(dag.has_link(2, 4));
  EXPECT_FALSE(dag.has_link(0, 2));
  expect_same("large batch");
  for (NodeId u = 1; u < 8; ++u) {
    ASSERT_TRUE(dag.route(u).has_value()) << u;
  }
}

// ---------------------------------------------------------------------------
// ToraRouter
// ---------------------------------------------------------------------------

TEST(ToraTest, DeliversFromEveryNodeInitially) {
  std::mt19937_64 rng(50);
  Graph g = make_random_connected_graph(25, 20, rng);
  ToraRouter router(g, 0);
  for (NodeId u = 1; u < 25; ++u) {
    const DeliveryResult r = router.send_packet(u);
    EXPECT_TRUE(r.delivered) << "node " << u;
    EXPECT_EQ(r.path.front(), u);
    EXPECT_EQ(r.path.back(), 0u);
  }
  EXPECT_EQ(router.stats().packets_delivered, 24u);
}

TEST(ToraTest, ReroutesAfterLinkFailure) {
  // Ring: cut one link adjacent to the destination; everything still routes.
  Graph g = make_ring_graph(8);
  ToraRouter router(g, 0);
  router.link_down(0, 1);
  for (NodeId u = 1; u < 8; ++u) {
    EXPECT_TRUE(router.send_packet(u).delivered) << "node " << u;
  }
  EXPECT_GT(router.stats().reversals, 0u) << "maintenance must have reversed links";
}

TEST(ToraTest, ReportsUndeliverableWhenPartitioned) {
  Graph g = make_chain_graph(6);
  ToraRouter router(g, 0);
  router.link_down(2, 3);  // 3,4,5 cut off
  EXPECT_TRUE(router.send_packet(1).delivered);
  EXPECT_FALSE(router.send_packet(4).delivered);
  EXPECT_FALSE(router.has_route(4));
  // Heal the partition.
  router.link_up(2, 3);
  EXPECT_TRUE(router.send_packet(4).delivered);
}

TEST(ToraTest, PacketPathsAreLoopFree) {
  std::mt19937_64 rng(51);
  Graph g = make_random_connected_graph(30, 25, rng);
  ToraRouter router(g, 5);
  for (NodeId u = 0; u < 30; ++u) {
    const DeliveryResult r = router.send_packet(u);
    ASSERT_TRUE(r.delivered);
    std::set<NodeId> seen(r.path.begin(), r.path.end());
    EXPECT_EQ(seen.size(), r.path.size()) << "loop in path from " << u;
  }
}

TEST(ToraTest, BuffersPacketsDuringPartitionAndFlushesOnHeal) {
  Graph g = make_chain_graph(6);
  ToraRouter router(g, 0);
  router.link_down(2, 3);  // 3, 4, 5 partitioned
  EXPECT_FALSE(router.send_packet(4).delivered);
  EXPECT_FALSE(router.send_packet(5).delivered);
  EXPECT_EQ(router.buffered_packets(), 2u);
  EXPECT_EQ(router.stats().packets_buffered, 2u);
  EXPECT_EQ(router.stats().packets_delivered, 0u);

  router.link_up(2, 3);  // heal: buffered packets flush automatically
  EXPECT_EQ(router.buffered_packets(), 0u);
  EXPECT_EQ(router.stats().packets_flushed, 2u);
  EXPECT_EQ(router.stats().packets_delivered, 2u);
}

TEST(ToraTest, BufferedPacketsStayParkedWhileStillPartitioned) {
  Graph g = make_chain_graph(6);
  ToraRouter router(g, 0);
  router.link_down(2, 3);
  router.send_packet(5);
  EXPECT_EQ(router.buffered_packets(), 1u);
  // An unrelated topology event on the connected side must not flush.
  router.link_down(0, 1);
  router.link_up(0, 1);
  EXPECT_EQ(router.buffered_packets(), 1u);
  router.link_up(2, 3);
  EXPECT_EQ(router.buffered_packets(), 0u);
}

TEST(ToraTest, ChurnMaintenanceIsRebuildFree) {
  // The service's maintenance loop is all single-link events: one build
  // at construction, a patch per event, zero rebuilds.
  std::mt19937_64 rng(61);
  const Graph g = make_random_connected_graph(32, 40, rng);
  ToraRouter router(g, 0);
  std::uniform_int_distribution<EdgeId> pick_edge(0, static_cast<EdgeId>(g.num_edges() - 1));
  for (int i = 0; i < 50; ++i) {
    const EdgeId e = pick_edge(rng);
    const NodeId u = g.edge_u(e);
    const NodeId v = g.edge_v(e);
    if (router.dag().has_link(u, v)) {
      router.link_down(u, v);
    } else {
      router.link_up(u, v);
    }
    router.send_packet(static_cast<NodeId>(rng() % 32));
  }
  EXPECT_EQ(router.dag().snapshot_rebuilds(), 1u);
  EXPECT_EQ(router.dag().snapshot_patches(), 50u);
}

TEST(ToraTest, PacketAccountingConsistentUnderChurn) {
  std::mt19937_64 rng(53);
  Graph g = make_random_connected_graph(16, 10, rng);
  ToraRouter router(g, 0);
  std::uniform_int_distribution<EdgeId> pick_edge(0, static_cast<EdgeId>(g.num_edges() - 1));
  std::uniform_int_distribution<NodeId> pick_node(0, 15);
  for (int event = 0; event < 60; ++event) {
    const EdgeId e = pick_edge(rng);
    if (router.dag().has_link(g.edge_u(e), g.edge_v(e))) {
      router.link_down(g.edge_u(e), g.edge_v(e));
    } else {
      router.link_up(g.edge_u(e), g.edge_v(e));
    }
    for (int p = 0; p < 4; ++p) router.send_packet(pick_node(rng));
    const ToraStats& s = router.stats();
    ASSERT_LE(s.packets_delivered, s.packets_sent);
    // Every sent packet is delivered or still parked.
    ASSERT_EQ(s.packets_delivered + router.buffered_packets(), s.packets_sent);
    ASSERT_LE(s.packets_flushed, s.packets_buffered);
  }
}

TEST(ToraTest, ChurnScenarioKeepsDeliveringWhenConnected) {
  std::mt19937_64 rng(52);
  Graph g = make_random_connected_graph(20, 30, rng);
  const ToraStats stats = run_churn_scenario(g, 0, 40, 5, 99);
  EXPECT_EQ(stats.packets_sent, 40u * 5u);
  // Dense graph: the vast majority of sends should survive churn.
  EXPECT_GT(stats.packets_delivered, stats.packets_sent * 8 / 10);
  EXPECT_EQ(stats.link_events, 40u);
}

// ---------------------------------------------------------------------------
// LeaderElectionService
// ---------------------------------------------------------------------------

TEST(LeaderElectionTest, InitialLeaderIsHighestId) {
  Graph g = make_ring_graph(7);
  LeaderElectionService service(g);
  ASSERT_TRUE(service.leader().has_value());
  EXPECT_EQ(*service.leader(), 6u);
  EXPECT_TRUE(service.leader_reachable_from_all());
}

TEST(LeaderElectionTest, ReelectsAfterLeaderFailure) {
  Graph g = make_ring_graph(7);
  LeaderElectionService service(g);
  service.fail_node(6);
  ASSERT_TRUE(service.leader().has_value());
  EXPECT_EQ(*service.leader(), 5u);
  EXPECT_TRUE(service.leader_reachable_from_all());
  EXPECT_FALSE(service.alive(6));
  EXPECT_EQ(service.alive_count(), 6u);
}

TEST(LeaderElectionTest, NonLeaderFailureKeepsLeader) {
  Graph g = make_complete_graph(6);
  LeaderElectionService service(g);
  service.fail_node(2);
  EXPECT_EQ(*service.leader(), 5u);
  EXPECT_TRUE(service.leader_reachable_from_all());
}

TEST(LeaderElectionTest, CascadingFailuresDownToOneNode) {
  Graph g = make_complete_graph(5);
  LeaderElectionService service(g);
  for (NodeId u = 4; u > 0; --u) {
    service.fail_node(u);
    ASSERT_TRUE(service.leader().has_value());
    EXPECT_EQ(*service.leader(), u - 1);
    EXPECT_TRUE(service.leader_reachable_from_all());
  }
  EXPECT_EQ(service.alive_count(), 1u);
  service.fail_node(0);
  EXPECT_FALSE(service.leader().has_value());
}

TEST(LeaderElectionTest, FailingDeadNodeIsNoOp) {
  Graph g = make_ring_graph(5);
  LeaderElectionService service(g);
  service.fail_node(3);
  const auto reversals = service.total_reversals();
  EXPECT_EQ(service.fail_node(3), 0u);
  EXPECT_EQ(service.total_reversals(), reversals);
}

// ---------------------------------------------------------------------------
// LinkReversalMutex
// ---------------------------------------------------------------------------

TEST(MutexTest, TokenStartsAtInitialHolder) {
  Graph g = make_ring_graph(6);
  LinkReversalMutex mutex(g, 2);
  EXPECT_EQ(mutex.holder(), 2u);
  EXPECT_TRUE(mutex.may_enter(2));
  EXPECT_FALSE(mutex.may_enter(3));
}

TEST(MutexTest, FifoGrantOrder) {
  Graph g = make_ring_graph(6);
  LinkReversalMutex mutex(g, 0);
  mutex.request(3);
  mutex.request(1);
  mutex.request(5);
  EXPECT_EQ(mutex.release(), 3u);
  EXPECT_EQ(mutex.release(), 1u);
  EXPECT_EQ(mutex.release(), 5u);
  EXPECT_TRUE(mutex.queue().empty());
}

TEST(MutexTest, ExactlyOneHolderAlways) {
  std::mt19937_64 rng(60);
  Graph g = make_random_connected_graph(15, 12, rng);
  LinkReversalMutex mutex(g, 0);
  std::uniform_int_distribution<NodeId> pick(0, 14);
  for (int i = 0; i < 50; ++i) {
    mutex.request(pick(rng));
    const NodeId holder = mutex.release();
    std::size_t holders = 0;
    for (NodeId u = 0; u < 15; ++u) {
      if (mutex.may_enter(u)) ++holders;
    }
    EXPECT_EQ(holders, 1u);
    EXPECT_TRUE(mutex.may_enter(holder));
  }
}

TEST(MutexTest, RequestsRouteAlongDagToHolder) {
  Graph g = make_chain_graph(7);
  LinkReversalMutex mutex(g, 0);
  const std::size_t hops = mutex.request(6);
  EXPECT_EQ(hops, 6u) << "chain request must travel the full path";
}

TEST(MutexTest, ReleaseWithoutRequestsKeepsToken) {
  Graph g = make_ring_graph(5);
  LinkReversalMutex mutex(g, 1);
  EXPECT_EQ(mutex.release(), 1u);
  EXPECT_EQ(mutex.holder(), 1u);
}

TEST(MutexTest, DuplicateRequestIgnored) {
  Graph g = make_ring_graph(5);
  LinkReversalMutex mutex(g, 0);
  EXPECT_GT(mutex.request(2), 0u);
  EXPECT_EQ(mutex.request(2), 0u);
  EXPECT_EQ(mutex.queue().size(), 1u);
}

TEST(MutexTest, EveryoneCanStillRequestAfterManyHandoffs) {
  Graph g = make_grid_graph(3, 3);
  LinkReversalMutex mutex(g, 0);
  for (NodeId round = 0; round < 3; ++round) {
    for (NodeId u = 0; u < 9; ++u) {
      if (u != mutex.holder()) mutex.request(u);
    }
    while (!mutex.queue().empty()) mutex.release();
  }
  EXPECT_EQ(mutex.stats().grants, mutex.stats().requests);
  EXPECT_GT(mutex.stats().total_reversals, 0u);
}

TEST(MutexTest, LinkChurnPartitionsAndHealsTheTokenRoute) {
  // Chain 0-1-2-3-4-5, token at 0.  Cutting (2,3) strands 3..5; the
  // service-layer contract is that callers see the partition through
  // dag().route() and never call request() blind.
  Graph g = make_chain_graph(6);
  LinkReversalMutex mutex(g, 0);
  mutex.link_down(2, 3);
  EXPECT_FALSE(mutex.dag().route(4).has_value());
  EXPECT_THROW(mutex.request(4), std::logic_error);
  // The connected side still works.
  EXPECT_TRUE(mutex.dag().route(1).has_value());
  EXPECT_GT(mutex.request(1), 0u);
  EXPECT_EQ(mutex.release(), 1u);
  // Healing restores service to the stranded side.
  mutex.link_up(2, 3);
  ASSERT_TRUE(mutex.dag().route(4).has_value());
  EXPECT_GT(mutex.request(4), 0u);
  EXPECT_EQ(mutex.release(), 4u);
  EXPECT_TRUE(mutex.may_enter(4));
}

TEST(MutexTest, LinkChurnIsIdempotent) {
  Graph g = make_ring_graph(5);
  LinkReversalMutex mutex(g, 0);
  mutex.link_down(1, 2);
  mutex.link_down(1, 2);  // repeat: no-op
  mutex.link_up(1, 2);
  mutex.link_up(1, 2);  // repeat: no-op
  for (NodeId u = 1; u < 5; ++u) {
    ASSERT_TRUE(mutex.dag().route(u).has_value()) << "node " << u;
  }
}

TEST(LeaderElectionTest, LinkChurnReroutesToTheLeader) {
  // Ring of 7, leader 6.  One cut keeps the ring connected (reroute the
  // long way); a second cut strands a segment from the leader.
  Graph g = make_ring_graph(7);
  LeaderElectionService service(g);
  service.link_down(5, 6);
  ASSERT_TRUE(service.leader().has_value());
  EXPECT_EQ(*service.leader(), 6u);
  EXPECT_TRUE(service.leader_reachable_from_all());
  service.link_down(2, 3);
  EXPECT_FALSE(service.dag().route(3).has_value());
  EXPECT_TRUE(service.dag().route(1).has_value());
  // Healing either cut reconnects everyone.
  service.link_up(5, 6);
  EXPECT_TRUE(service.leader_reachable_from_all());
}

TEST(LeaderElectionTest, LinkChurnToDeadNodesIsIgnored) {
  Graph g = make_complete_graph(5);
  LeaderElectionService service(g);
  service.fail_node(2);
  ASSERT_TRUE(service.leader().has_value());
  const NodeId leader = *service.leader();
  // Links touching a dead node never come (back) up.
  service.link_up(2, 3);
  service.link_up(2, leader);
  EXPECT_FALSE(service.alive(2));
  EXPECT_EQ(*service.leader(), leader);
  EXPECT_TRUE(service.leader_reachable_from_all());
}

}  // namespace
}  // namespace lr
