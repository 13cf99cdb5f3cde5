#include "sim/dist_mutex.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.hpp"

namespace lr {
namespace {

TEST(DistMutexTest, InitialHolderMayEnter) {
  const Graph g = make_ring_graph(6);
  Network net(g, {.min_delay = 1, .max_delay = 4, .seed = 1});
  DistMutex mutex(g, 2, net);
  EXPECT_EQ(mutex.holder(), std::optional<NodeId>{2});
  EXPECT_TRUE(mutex.may_enter(2));
  EXPECT_FALSE(mutex.may_enter(3));
}

TEST(DistMutexTest, SingleRequestGranted) {
  const Graph g = make_chain_graph(6);
  Network net(g, {.min_delay = 1, .max_delay = 4, .seed = 2});
  DistMutex mutex(g, 0, net);
  mutex.request(5);
  net.run_until_idle();
  ASSERT_EQ(mutex.queued_requests(), 1u);
  mutex.release();
  net.run_until_idle();
  EXPECT_EQ(mutex.holder(), std::optional<NodeId>{5});
  EXPECT_EQ(mutex.grants(), 1u);
}

TEST(DistMutexTest, FifoGrantOrderAcrossNodes) {
  const Graph g = make_complete_graph(6);
  Network net(g, {.min_delay = 1, .max_delay = 1, .seed = 3});
  DistMutex mutex(g, 0, net);
  // With unit delays on a complete graph, requests arrive in injection
  // order (FIFO tie-break in the event queue).
  mutex.request(3);
  net.run_until_idle();
  mutex.request(1);
  net.run_until_idle();
  mutex.request(5);
  net.run_until_idle();
  ASSERT_EQ(mutex.queued_requests(), 3u);

  mutex.release();
  net.run_until_idle();
  EXPECT_EQ(mutex.holder(), std::optional<NodeId>{3});
}

TEST(DistMutexTest, ShardedLanesMatchSerialTokenPassing) {
  // The same scripted request/release schedule replayed on the sharded
  // per-node event lanes must grant in the same order with the same
  // counters at every worker count, including across repeated idle
  // points (each run_until_idle re-enters the sharded loop).
  std::mt19937_64 rng(21);
  const Graph g = make_random_connected_graph(24, 20, rng);
  const NetworkConfig base{.min_delay = 1, .max_delay = 5, .seed = 17};

  const auto run_script = [&g](NetworkConfig config, std::vector<std::optional<NodeId>>& holders,
                               std::uint64_t& grants, std::uint64_t& steps, SimTime& now) {
    Network net(g, config);
    DistMutex mutex(g, 0, net);
    for (const NodeId u : {NodeId{7}, NodeId{3}, NodeId{19}, NodeId{11}}) {
      mutex.request(u);
      net.run_until_idle();
    }
    for (int round = 0; round < 4; ++round) {
      mutex.release();
      net.run_until_idle();
      holders.push_back(mutex.holder());
    }
    grants = mutex.grants();
    steps = mutex.reversal_steps();
    now = net.now();
  };

  std::vector<std::optional<NodeId>> serial_holders;
  std::uint64_t serial_grants = 0, serial_steps = 0;
  SimTime serial_now = 0;
  run_script(base, serial_holders, serial_grants, serial_steps, serial_now);

  for (const std::size_t workers : {2u, 4u}) {
    NetworkConfig config = base;
    config.scheduler = EventSchedulerKind::kWheel;
    config.sim_threads = workers;
    std::vector<std::optional<NodeId>> holders;
    std::uint64_t grants = 0, steps = 0;
    SimTime now = 0;
    run_script(config, holders, grants, steps, now);
    EXPECT_EQ(holders, serial_holders);
    EXPECT_EQ(grants, serial_grants);
    EXPECT_EQ(steps, serial_steps);
    EXPECT_EQ(now, serial_now);
  }
}

TEST(DistMutexTest, AtMostOneHolderAtAllTimes) {
  std::mt19937_64 rng(4);
  const Graph g = make_random_connected_graph(12, 10, rng);
  Network net(g, {.min_delay = 1, .max_delay = 6, .seed = 5});
  DistMutex mutex(g, 0, net);

  std::uniform_int_distribution<NodeId> pick(0, 11);
  for (int round = 0; round < 20; ++round) {
    mutex.request(pick(rng));
    mutex.request(pick(rng));
    net.run_until_idle();
    mutex.release();
    // Drain step by step, checking the exclusivity invariant throughout.
    while (net.queue().run_one()) {
      std::size_t holders = 0;
      for (NodeId u = 0; u < 12; ++u) {
        if (mutex.may_enter(u)) ++holders;
      }
      ASSERT_LE(holders, 1u);
    }
  }
}

TEST(DistMutexTest, EveryRequestEventuallyGranted) {
  std::mt19937_64 rng(6);
  const Graph g = make_random_connected_graph(10, 8, rng);
  Network net(g, {.min_delay = 1, .max_delay = 5, .seed = 7});
  DistMutex mutex(g, 0, net);

  // All other nodes request; serve until the queue drains.
  for (NodeId u = 1; u < 10; ++u) mutex.request(u);
  net.run_until_idle();

  std::size_t grants = 0;
  for (int safety = 0; safety < 100 && grants < 9; ++safety) {
    mutex.release();
    net.run_until_idle();
    grants = mutex.grants();
  }
  EXPECT_EQ(grants, 9u);
}

TEST(DistMutexTest, TokenReturnsOnRepeatRequests) {
  const Graph g = make_ring_graph(5);
  Network net(g, {.min_delay = 1, .max_delay = 3, .seed = 8});
  DistMutex mutex(g, 0, net);

  for (int cycle = 0; cycle < 5; ++cycle) {
    const NodeId requester = static_cast<NodeId>((cycle + 1) % 5);
    if (requester == mutex.holder()) continue;
    mutex.request(requester);
    net.run_until_idle();
    mutex.release();
    net.run_until_idle();
    EXPECT_EQ(mutex.holder(), std::optional<NodeId>{requester}) << "cycle " << cycle;
  }
}

TEST(DistMutexTest, DuplicateRequestIgnored) {
  const Graph g = make_chain_graph(4);
  Network net(g, {.min_delay = 1, .max_delay = 2, .seed = 9});
  DistMutex mutex(g, 0, net);
  mutex.request(3);
  mutex.request(3);
  net.run_until_idle();
  EXPECT_EQ(mutex.queued_requests(), 1u);
}

TEST(DistMutexTest, ReleaseWithEmptyQueueKeepsToken) {
  const Graph g = make_ring_graph(4);
  Network net(g, {.min_delay = 1, .max_delay = 2, .seed = 10});
  DistMutex mutex(g, 1, net);
  mutex.release();
  net.run_until_idle();
  EXPECT_EQ(mutex.holder(), std::optional<NodeId>{1});
  EXPECT_EQ(mutex.grants(), 0u);
}

TEST(DistMutexTest, RequestDrivenReversalsHappenOnStuckPaths) {
  // After the token moves, later requests can strand at the old holder (a
  // stale local minimum) and must trigger request-driven reversal steps.
  const Graph g = make_chain_graph(8);
  Network net(g, {.min_delay = 1, .max_delay = 4, .seed = 11});
  DistMutex mutex(g, 0, net);

  mutex.request(7);
  net.run_until_idle();
  mutex.release();
  net.run_until_idle();
  ASSERT_EQ(mutex.holder(), std::optional<NodeId>{7});

  // Now node 1 requests: the path must re-orient towards 7.
  mutex.request(1);
  net.run_until_idle();
  mutex.release();
  net.run_until_idle();
  EXPECT_EQ(mutex.holder(), std::optional<NodeId>{1});
  EXPECT_GT(mutex.reversal_steps(), 0u);
}

TEST(DistMutexTest, HeavyContentionOnUnitDisk) {
  std::mt19937_64 rng(12);
  const Graph g = make_unit_disk_graph(16, 0.4, rng);
  Network net(g, {.min_delay = 1, .max_delay = 6, .seed = 13});
  DistMutex mutex(g, 0, net);

  std::uniform_int_distribution<NodeId> pick(0, 15);
  std::size_t expected_grants = 0;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 4; ++i) mutex.request(pick(rng));
    net.run_until_idle();
    while (mutex.queued_requests() > 0) {
      const auto before = mutex.grants();
      mutex.release();
      net.run_until_idle();
      ASSERT_GT(mutex.grants(), before) << "release must make progress";
      ++expected_grants;
    }
  }
  EXPECT_EQ(mutex.grants(), expected_grants);
  EXPECT_TRUE(mutex.holder().has_value());
}

TEST(DistMutexTest, RejectsANetworkOverAnotherGraph) {
  // The service reads the network's frozen adjacency, so both must be
  // built over the same graph.
  const Graph ring = make_ring_graph(6);
  const Graph chain = make_chain_graph(6);
  Network net(chain, {.min_delay = 1, .max_delay = 2, .seed = 14});
  EXPECT_THROW({ DistMutex mutex(ring, 0, net); }, std::invalid_argument);
}

}  // namespace
}  // namespace lr
