#include "sim/dist_leader.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.hpp"

namespace lr {
namespace {

struct LeaderParam {
  std::size_t n;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const LeaderParam& p) {
    return os << "n" << p.n << "_s" << p.seed;
  }
};

class DistLeaderSweep : public ::testing::TestWithParam<LeaderParam> {};

TEST_P(DistLeaderSweep, ElectsMaxIdWithSinkCertificate) {
  std::mt19937_64 rng(GetParam().seed * 131 + 7);
  const Graph g = make_random_connected_graph(GetParam().n, GetParam().n, rng);
  Network net(g, {.min_delay = 1, .max_delay = 8, .seed = GetParam().seed});
  DistLeaderElection election(g, net);
  election.start();
  net.run_until_idle();

  const auto leader = election.agreed_leader();
  ASSERT_TRUE(leader.has_value()) << "candidates did not converge";
  EXPECT_EQ(*leader, GetParam().n - 1) << "max id must win";
  EXPECT_TRUE(election.leader_is_unique_sink())
      << "the elected leader must be the unique sink (local certificate)";
}

TEST(DistLeaderTest, ShardedLanesMatchSerialElection) {
  // The election on the sharded per-node event lanes must reproduce the
  // serial run exactly — counters, quiescence time, and outcome — at
  // every worker count and with either time-index backend.
  std::mt19937_64 rng(99);
  const Graph g = make_random_connected_graph(40, 36, rng);
  const NetworkConfig base{.min_delay = 1, .max_delay = 8, .seed = 13};

  Network serial_net(g, base);
  DistLeaderElection serial(g, serial_net);
  serial.start();
  serial_net.run_until_idle();
  const auto serial_leader = serial.agreed_leader();
  ASSERT_TRUE(serial_leader.has_value());

  for (const std::size_t workers : {2u, 4u}) {
    for (const EventSchedulerKind scheduler :
         {EventSchedulerKind::kHeap, EventSchedulerKind::kWheel}) {
      NetworkConfig config = base;
      config.scheduler = scheduler;
      config.sim_threads = workers;
      Network net(g, config);
      DistLeaderElection election(g, net);
      election.start();
      net.run_until_idle();
      EXPECT_EQ(election.agreed_leader(), serial_leader);
      EXPECT_TRUE(election.leader_is_unique_sink());
      EXPECT_EQ(net.now(), serial_net.now());
      EXPECT_EQ(net.messages_sent(), serial_net.messages_sent());
      EXPECT_EQ(net.messages_delivered(), serial_net.messages_delivered());
      EXPECT_EQ(election.candidate_adoptions(), serial.candidate_adoptions());
      EXPECT_EQ(election.height_steps(), serial.height_steps());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistLeaderSweep,
                         ::testing::Values(LeaderParam{4, 1}, LeaderParam{8, 2},
                                           LeaderParam{8, 3}, LeaderParam{16, 4},
                                           LeaderParam{16, 5}, LeaderParam{32, 6},
                                           LeaderParam{64, 7}),
                         [](const ::testing::TestParamInfo<LeaderParam>& info) {
                           std::ostringstream oss;
                           oss << info.param;
                           return oss.str();
                         });

TEST(DistLeaderTest, RingElection) {
  const Graph ring = make_ring_graph(10);
  Network net(ring, {.min_delay = 1, .max_delay = 5, .seed = 3});
  DistLeaderElection election(ring, net);
  election.start();
  net.run_until_idle();
  EXPECT_EQ(election.agreed_leader(), std::optional<NodeId>{9});
  EXPECT_TRUE(election.leader_is_unique_sink());
  EXPECT_GT(election.candidate_adoptions(), 0u);
}

TEST(DistLeaderTest, MaxIdNodeNeverAdopts) {
  const Graph g = make_complete_graph(6);
  Network net(g, {.min_delay = 1, .max_delay = 3, .seed = 4});
  DistLeaderElection election(g, net);
  election.start();
  net.run_until_idle();
  EXPECT_EQ(election.candidate(5), 5u);
  EXPECT_EQ(election.agreed_leader(), std::optional<NodeId>{5});
}

TEST(DistLeaderTest, StarTopologyWithLeafLeader) {
  // Leaves only talk through the hub: adoption must still propagate the
  // max leaf id everywhere.
  const Graph star = make_star_graph(9);  // hub 0, leaves 1..8
  Network net(star, {.min_delay = 1, .max_delay = 4, .seed = 5});
  DistLeaderElection election(star, net);
  election.start();
  net.run_until_idle();
  EXPECT_EQ(election.agreed_leader(), std::optional<NodeId>{8});
  EXPECT_TRUE(election.leader_is_unique_sink());
}

TEST(DistLeaderTest, UnitDiskManetTopology) {
  std::mt19937_64 rng(9);
  const Graph g = make_unit_disk_graph(24, 0.35, rng);
  Network net(g, {.min_delay = 1, .max_delay = 10, .seed = 6});
  DistLeaderElection election(g, net);
  election.start();
  net.run_until_idle();
  EXPECT_EQ(election.agreed_leader(), std::optional<NodeId>{23});
  EXPECT_TRUE(election.leader_is_unique_sink());
}

TEST(DistLeaderTest, DuplicatedMessagesDoNotBreakElection) {
  std::mt19937_64 rng(10);
  const Graph g = make_random_connected_graph(16, 12, rng);
  Network net(g, {.min_delay = 1, .max_delay = 6, .seed = 7, .duplicate_probability = 0.4});
  DistLeaderElection election(g, net);
  election.start();
  net.run_until_idle();
  EXPECT_EQ(election.agreed_leader(), std::optional<NodeId>{15});
  EXPECT_TRUE(election.leader_is_unique_sink());
}

TEST(DistLeaderTest, TwoNodeEdgeCase) {
  const Graph g(2, {{0, 1}});
  Network net(g, {.min_delay = 1, .max_delay = 2, .seed = 8});
  DistLeaderElection election(g, net);
  election.start();
  net.run_until_idle();
  EXPECT_EQ(election.agreed_leader(), std::optional<NodeId>{1});
  EXPECT_TRUE(election.leader_is_unique_sink());
}

TEST(DistLeaderTest, RejectsANetworkOverAnotherGraph) {
  // The election reads the network's frozen adjacency, so both must be
  // built over the same graph.
  const Graph ring = make_ring_graph(6);
  const Graph chain = make_chain_graph(6);
  Network net(chain, {.min_delay = 1, .max_delay = 2, .seed = 9});
  EXPECT_THROW({ DistLeaderElection election(ring, net); }, std::invalid_argument);
}

}  // namespace
}  // namespace lr
