#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>

#include "graph/digraph_algos.hpp"
#include "graph/generators.hpp"
#include "sim/dist_lr.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/sharded_loop.hpp"
#include "sim/time_index.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every replaceable operator new form bumps it,
// so a test can assert that a code region performed zero heap allocations
// (the event-pool acceptance criterion; see SteadyStateAllocationTest).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_heap_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size ? size : alignment) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace lr {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&order] { order.push_back(5); });
  q.schedule_at(1, [&order] { order.push_back(1); });
  q.schedule_at(3, [&order] { order.push_back(3); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueueTest, FifoTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2, [&order] { order.push_back(1); });
  q.schedule_at(2, [&order] { order.push_back(2); });
  q.schedule_at(2, [&order] { order.push_back(3); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] {
    ++fired;
    q.schedule_in(4, [&] { ++fired; });
  });
  q.run_until_idle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueueTest, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run_one();
  EXPECT_THROW(q.schedule_at(3, [] {}), std::invalid_argument);
}

TEST(EventQueueTest, MaxEventsBudget) {
  EventQueue q;
  // A self-perpetuating event chain.
  std::function<void()> tick = [&] { q.schedule_in(1, tick); };
  q.schedule_at(0, tick);
  const auto ran = q.run_until_idle(100);
  EXPECT_EQ(ran, 100u);
  EXPECT_FALSE(q.empty());
}

// ---------------------------------------------------------------------------
// Event pool (slab/freelist) behavior
// ---------------------------------------------------------------------------

TEST(EventQueueTest, PoolReusesSlotsAtSteadyState) {
  EventQueue q;
  const auto churn = [&q] {
    for (int i = 0; i < 64; ++i) q.schedule_in(static_cast<SimTime>(i % 5), [] {});
    q.run_until_idle();
  };
  churn();  // warm-up: grows the pool to the cycle's high-water mark
  const std::size_t slots = q.pool_slots();
  ASSERT_GT(slots, 0u);
  for (int round = 0; round < 10; ++round) churn();
  EXPECT_EQ(q.pool_slots(), slots);  // steady state: no further growth
  EXPECT_EQ(q.free_slots(), slots);  // idle queue: every slot recycled
}

TEST(EventQueueTest, PoolGrowsOnExhaustionThenStabilizes) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.schedule_in(1, [] {});
  q.run_until_idle();
  EXPECT_EQ(q.pool_slots(), 8u);

  // A burst beyond the freelist exhausts it: the pool must grow and every
  // event must still run exactly once.
  int fired = 0;
  for (int i = 0; i < 20; ++i) q.schedule_in(1, [&fired] { ++fired; });
  q.run_until_idle();
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(q.pool_slots(), 20u);

  // The grown pool absorbs an identical burst without growing again.
  for (int i = 0; i < 20; ++i) q.schedule_in(1, [&fired] { ++fired; });
  q.run_until_idle();
  EXPECT_EQ(fired, 40);
  EXPECT_EQ(q.pool_slots(), 20u);
  EXPECT_EQ(q.free_slots(), 20u);
}

TEST(EventQueueTest, InterleavedScheduleAndRunRecyclesAggressively) {
  // One event in flight at a time: a self-rescheduling chain must reuse a
  // single slot no matter how long it runs.
  EventQueue q;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) q.schedule_in(1, hop);
  };
  q.schedule_at(0, hop);
  q.run_until_idle();
  EXPECT_EQ(hops, 100);
  // The chain holds at most one pending event plus the one being run.
  EXPECT_LE(q.pool_slots(), 2u);
}

TEST(EventQueueTest, ThrowingCallbackStillReleasesItsSlot) {
  EventQueue q;
  const auto tracker = std::make_shared<int>(1);
  q.schedule_at(1, [tracker] { throw std::runtime_error("boom"); });
  EXPECT_THROW(q.run_one(), std::runtime_error);
  // The callable was destroyed during unwinding and its slot went back to
  // the freelist, so the next schedule reuses it instead of growing.
  EXPECT_EQ(tracker.use_count(), 1);
  EXPECT_EQ(q.free_slots(), q.pool_slots());
  int fired = 0;
  q.schedule_in(1, [&fired] { ++fired; });
  EXPECT_EQ(q.pool_slots(), 1u);
  q.run_until_idle();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, DestroysPendingCallbacksOnDestruction) {
  const auto tracker = std::make_shared<int>(7);
  {
    EventQueue q;
    q.schedule_at(5, [tracker] {});
    q.schedule_at(9, [tracker] {});
    EXPECT_EQ(tracker.use_count(), 3);
    // q destroyed with both events still pending.
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(EventQueueTest, SchedulingAllocatesNothingOnceWarm) {
  EventQueue q;
  const auto churn = [&q] {
    for (int i = 0; i < 32; ++i) q.schedule_in(static_cast<SimTime>(i % 3), [] {});
    q.run_until_idle();
  };
  churn();
  churn();
  const std::uint64_t before = g_heap_allocations.load();
  churn();
  EXPECT_EQ(g_heap_allocations.load() - before, 0u);
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

TEST(NetworkTest, DeliversToHandlerWithinDelayBounds) {
  Graph g(2, {{0, 1}});
  Network net(g, {.min_delay = 2, .max_delay = 5, .seed = 1});
  SimTime delivered_at = 0;
  net.set_handler(1, [&](const NetMessage& m) {
    EXPECT_EQ(m.from, 0u);
    EXPECT_EQ(m.payload, (std::vector<std::int64_t>{42}));
    delivered_at = net.now();
  });
  net.send(0, 1, {42});
  net.run_until_idle();
  EXPECT_GE(delivered_at, 2u);
  EXPECT_LE(delivered_at, 5u);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(NetworkTest, RejectsNonAdjacentSend) {
  Graph g(3, {{0, 1}});
  Network net(g, {});
  EXPECT_THROW(net.send(0, 2, {1}), std::invalid_argument);
}

TEST(NetworkTest, DownLinkDropsMessages) {
  Graph g(2, {{0, 1}});
  Network net(g, {});
  int received = 0;
  net.set_handler(1, [&](const NetMessage&) { ++received; });
  net.set_link_up(0, false);
  net.send(0, 1, {1});
  net.run_until_idle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_dropped(), 1u);
  net.set_link_up(0, true);
  net.send(0, 1, {2});
  net.run_until_idle();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, RejectsBadDelayConfig) {
  Graph g(2, {{0, 1}});
  EXPECT_THROW(Network(g, {.min_delay = 0, .max_delay = 5, .seed = 1}), std::invalid_argument);
  EXPECT_THROW(Network(g, {.min_delay = 6, .max_delay = 5, .seed = 1}), std::invalid_argument);
}

TEST(NetworkTest, BorrowedFrozenSnapshotMatchesOwnedBehavior) {
  Graph g(3, {{0, 1}, {1, 2}});
  const CsrGraph frozen(g);
  Network owned(g, {.min_delay = 1, .max_delay = 1, .seed = 4});
  Network borrowed(g, {.min_delay = 1, .max_delay = 1, .seed = 4}, frozen);
  // The borrowed network shares the snapshot's arrays; the owned one
  // freezes g once, over g's own adjacency.
  EXPECT_EQ(borrowed.csr().raw_partition_neighbors().data(),
            frozen.raw_partition_neighbors().data());
  EXPECT_EQ(owned.csr().raw_neighbors().data(), g.neighbors(0).data());
  for (Network* net : {&owned, &borrowed}) {
    int received = 0;
    net->set_handler(2, [&received](const NetMessage&) { ++received; });
    net->send(1, 2, {5});
    EXPECT_THROW(net->send(0, 2, {5}), std::invalid_argument);
    net->run_until_idle();
    EXPECT_EQ(received, 1);
  }
  Graph other(4, {{0, 1}});
  EXPECT_THROW(Network(other, {}, frozen), std::invalid_argument);
}

TEST(NetworkTest, MessagePoolIsReusedAcrossSendCycles) {
  Graph g(2, {{0, 1}});
  Network net(g, {.min_delay = 1, .max_delay = 3, .seed = 2});
  net.set_handler(1, [](const NetMessage&) {});
  const auto cycle = [&net] {
    for (int i = 0; i < 16; ++i) net.send(0, 1, {i, i + 1});
    net.run_until_idle();
  };
  cycle();
  const std::size_t slots = net.message_pool_slots();
  ASSERT_GT(slots, 0u);
  for (int round = 0; round < 8; ++round) cycle();
  EXPECT_EQ(net.message_pool_slots(), slots);
}

// ---------------------------------------------------------------------------
// Distributed link reversal
// ---------------------------------------------------------------------------

struct DistParam {
  std::size_t size;
  std::uint64_t seed;
  ReversalRule rule;

  friend std::ostream& operator<<(std::ostream& os, const DistParam& p) {
    return os << (p.rule == ReversalRule::kFull ? "FR" : "PR") << "_n" << p.size << "_s" << p.seed;
  }
};

class DistLRSweep : public ::testing::TestWithParam<DistParam> {};

TEST_P(DistLRSweep, ConvergesToDestinationOrientedDag) {
  std::mt19937_64 rng(GetParam().seed * 997 + 3);
  const Instance inst = make_random_instance(GetParam().size, GetParam().size, rng);
  Network net(inst.graph, {.min_delay = 1, .max_delay = 7, .seed = GetParam().seed});
  DistLinkReversal proto(inst, GetParam().rule, net);
  proto.start();
  net.run_until_idle();
  EXPECT_TRUE(proto.converged()) << inst.name;
  EXPECT_TRUE(is_acyclic(proto.derived_orientation()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistLRSweep,
    ::testing::Values(DistParam{8, 1, ReversalRule::kFull}, DistParam{8, 1, ReversalRule::kPartial},
                      DistParam{16, 2, ReversalRule::kFull},
                      DistParam{16, 2, ReversalRule::kPartial},
                      DistParam{32, 3, ReversalRule::kFull},
                      DistParam{32, 3, ReversalRule::kPartial},
                      DistParam{64, 4, ReversalRule::kPartial}),
    [](const ::testing::TestParamInfo<DistParam>& info) {
      std::ostringstream oss;
      oss << info.param;
      return oss.str();
    });

TEST(DistLRTest, AlreadyOrientedInstanceNeedsNoSteps) {
  std::mt19937_64 rng(9);
  Graph g = make_random_connected_graph(12, 8, rng);
  const auto rank = destination_oriented_ranking(g, 0, rng);
  // Edges point low -> high rank; flip so everything routes to node 0.
  Orientation o = Orientation::from_ranking(g, rank);
  std::vector<EdgeSense> flipped(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    flipped[e] = o.sense(e) == EdgeSense::kForward ? EdgeSense::kBackward : EdgeSense::kForward;
  }
  Instance inst{std::move(g), std::move(flipped), 0, "pre-oriented"};

  Network net(inst.graph, {.min_delay = 1, .max_delay = 3, .seed = 2});
  DistLinkReversal proto(inst, ReversalRule::kPartial, net);
  proto.start();
  net.run_until_idle();
  EXPECT_TRUE(proto.converged());
  EXPECT_EQ(proto.total_steps(), 0u);
  EXPECT_EQ(net.messages_sent(), 0u);
}

TEST(DistLRTest, DerivedOrientationAlwaysAcyclicMidFlight) {
  // Acyclicity-by-total-order holds at *every* instant, not just at
  // convergence: sample mid-execution.
  std::mt19937_64 rng(10);
  const Instance inst = make_random_instance(20, 15, rng);
  Network net(inst.graph, {.min_delay = 1, .max_delay = 9, .seed = 5});
  DistLinkReversal proto(inst, ReversalRule::kPartial, net);
  proto.start();
  std::uint64_t guard = 0;
  while (net.queue().run_one() && guard++ < 100000) {
    if (guard % 7 == 0) {
      ASSERT_TRUE(is_acyclic(proto.derived_orientation()));
    }
  }
  EXPECT_TRUE(proto.converged());
}

TEST(DistLRTest, LinkChurnRecoversAfterRestore) {
  const Instance inst = make_worst_case_chain(8);
  Network net(inst.graph, {.min_delay = 1, .max_delay = 4, .seed = 6});
  DistLinkReversal proto(inst, ReversalRule::kPartial, net);

  // Take a mid-chain link down before starting: updates over it are lost.
  const EdgeId cut = 3;
  net.set_link_up(cut, false);
  proto.start();
  net.run_until_idle();

  // Restore and resynchronize.
  net.set_link_up(cut, true);
  proto.notify_link_restored(cut);
  net.run_until_idle();
  EXPECT_TRUE(proto.converged());
}

TEST(DistLRTest, FrozenSnapshotConstructorMatchesOwnedSnapshot) {
  std::mt19937_64 rng(13);
  const Instance inst = make_random_instance(20, 16, rng);
  const CsrGraph frozen(inst.graph, inst.senses);

  Network owned_net(inst.graph, {.min_delay = 1, .max_delay = 6, .seed = 3});
  DistLinkReversal owned(inst, ReversalRule::kPartial, owned_net);
  owned.start();
  owned_net.run_until_idle();

  Network frozen_net(inst.graph, {.min_delay = 1, .max_delay = 6, .seed = 3}, frozen);
  DistLinkReversal borrowed(inst, ReversalRule::kPartial, frozen_net, frozen);
  borrowed.start();
  frozen_net.run_until_idle();

  EXPECT_EQ(owned.total_steps(), borrowed.total_steps());
  EXPECT_EQ(owned_net.messages_sent(), frozen_net.messages_sent());
  for (NodeId u = 0; u < inst.graph.num_nodes(); ++u) {
    EXPECT_EQ(owned.height(u), borrowed.height(u));
  }
  EXPECT_TRUE(borrowed.converged());

  // A mismatched snapshot is rejected.
  const Instance other = make_worst_case_chain(5);
  const CsrGraph wrong(other.graph, other.senses);
  Network net3(inst.graph, {.min_delay = 1, .max_delay = 6, .seed = 3});
  EXPECT_THROW(DistLinkReversal(inst, ReversalRule::kPartial, net3, wrong),
               std::invalid_argument);
}

TEST(SteadyStateAllocationTest, WarmedDistProtocolRunsAllocationFree) {
  // The acceptance criterion of the pooled event core: once the event and
  // message pools, the heap index, and the payload buffers have reached
  // their high-water marks, an entire resync storm (every node broadcasts,
  // every message is delivered and filtered) performs zero heap
  // allocations.
  std::mt19937_64 rng(21);
  const Instance inst = make_random_instance(24, 24, rng);
  Network net(inst.graph, {.min_delay = 1, .max_delay = 6, .seed = 11});
  DistLinkReversal proto(inst, ReversalRule::kPartial, net);
  proto.start();
  net.run_until_idle();
  // Two identical warm-up storms grow every pool to its high-water mark.
  proto.resync_round();
  net.run_until_idle();
  proto.resync_round();
  net.run_until_idle();

  const std::uint64_t before = g_heap_allocations.load();
  proto.resync_round();
  net.run_until_idle();
  const std::uint64_t after = g_heap_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(proto.converged());
}

// ---------------------------------------------------------------------------
// TimeIndex: the timing wheel is byte-identical to the heap
// ---------------------------------------------------------------------------

TEST(TimeIndexTest, WheelMatchesHeapPopOrderUnderRandomizedChurn) {
  // Drive both backends with one randomized (push-batch | pop-batch)
  // stream — deltas span all four wheel levels plus the overflow ring —
  // and demand identical (time, seq, slot) pops throughout.
  std::mt19937_64 rng(0x7ee1);
  for (int trial = 0; trial < 4; ++trial) {
    TimeIndex heap(EventSchedulerKind::kHeap);
    TimeIndex wheel(EventSchedulerKind::kWheel);
    SimTime clock = 0;  // last popped time: the "never push the past" floor
    std::uint64_t seq = 0;
    for (int op = 0; op < 250; ++op) {
      if (rng() % 3 != 0 || heap.empty()) {
        const int batch = 1 + static_cast<int>(rng() % 8);
        for (int i = 0; i < batch; ++i) {
          SimTime delta = rng() % 64;  // level 0 by default
          const std::uint64_t stretch = rng() % 8;
          if (stretch == 0) {
            delta = rng() % (SimTime{1} << 26);  // often beyond the horizon
          } else if (stretch == 1) {
            delta = rng() % (SimTime{1} << 14);  // upper wheel levels
          }
          const std::uint32_t slot = static_cast<std::uint32_t>(rng());
          heap.push(clock + delta, seq, slot);
          wheel.push(clock + delta, seq, slot);
          ++seq;
        }
      } else {
        const std::size_t batch = 1 + rng() % heap.size();
        for (std::size_t i = 0; i < batch; ++i) {
          TimeIndexEntry he{}, we{};
          ASSERT_TRUE(heap.pop_min(he));
          ASSERT_TRUE(wheel.pop_min(we));
          ASSERT_EQ(he.time, we.time);
          ASSERT_EQ(he.seq, we.seq);
          ASSERT_EQ(he.slot, we.slot);
          clock = he.time;
        }
      }
      SimTime heap_min = 0, wheel_min = 0;
      const bool heap_any = heap.peek_min_time(heap_min);
      ASSERT_EQ(heap_any, wheel.peek_min_time(wheel_min));
      if (heap_any) {
        ASSERT_EQ(heap_min, wheel_min);
      }
      ASSERT_EQ(heap.size(), wheel.size());
    }
    TimeIndexEntry he{}, we{};
    while (heap.pop_min(he)) {
      ASSERT_TRUE(wheel.pop_min(we));
      ASSERT_EQ(he.time, we.time);
      ASSERT_EQ(he.seq, we.seq);
      ASSERT_EQ(he.slot, we.slot);
    }
    EXPECT_FALSE(wheel.pop_min(we));
  }
}

TEST(EventQueueTest, WheelBackendRunsInOrderWithFifoTies) {
  EventQueue q(EventSchedulerKind::kWheel);
  std::vector<int> order;
  q.schedule_at(5, [&order] { order.push_back(5); });
  q.schedule_at(2, [&order] { order.push_back(2); });
  q.schedule_at(2, [&order] { order.push_back(20); });  // FIFO within a tick
  q.schedule_at((SimTime{1} << 25) + 3, [&order] { order.push_back(99); });  // overflow
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{2, 20, 5, 99}));
  EXPECT_EQ(q.now(), (SimTime{1} << 25) + 3);
}

TEST(EventQueueTest, WheelMatchesHeapUnderRandomizedScheduleRunMix) {
  // The satellite property test: >= 200 mixed schedule_at / schedule_in /
  // run_until_idle operations replayed against both backends must execute
  // the same callbacks at the same times in the same order.
  std::mt19937_64 rng(0x5eed);
  EventQueue heap(EventSchedulerKind::kHeap);
  EventQueue wheel(EventSchedulerKind::kWheel);
  std::vector<std::pair<SimTime, int>> heap_log, wheel_log;
  int next_id = 0;
  const auto random_delta = [&rng]() -> SimTime {
    switch (rng() % 8) {
      case 0:
        return rng() % (SimTime{1} << 26);  // overflow territory
      case 1:
        return rng() % (SimTime{1} << 14);  // upper wheel levels
      default:
        return rng() % 64;  // level 0
    }
  };
  for (int op = 0; op < 240; ++op) {
    ASSERT_EQ(heap.now(), wheel.now());
    switch (rng() % 4) {
      case 0:
      case 1: {  // schedule_at an absolute time at or after now
        const SimTime at = heap.now() + random_delta();
        const int id = next_id++;
        heap.schedule_at(at, [&heap_log, &heap, id] { heap_log.emplace_back(heap.now(), id); });
        wheel.schedule_at(at,
                          [&wheel_log, &wheel, id] { wheel_log.emplace_back(wheel.now(), id); });
        break;
      }
      case 2: {  // schedule_in a relative delay
        const SimTime delay = random_delta();
        const int id = next_id++;
        heap.schedule_in(delay, [&heap_log, &heap, id] { heap_log.emplace_back(heap.now(), id); });
        wheel.schedule_in(delay,
                          [&wheel_log, &wheel, id] { wheel_log.emplace_back(wheel.now(), id); });
        break;
      }
      default: {  // run a bounded burst
        const std::uint64_t budget = rng() % 16;
        ASSERT_EQ(heap.run_until_idle(budget), wheel.run_until_idle(budget));
        break;
      }
    }
    ASSERT_EQ(heap.pending(), wheel.pending());
    ASSERT_EQ(heap_log, wheel_log);
  }
  EXPECT_EQ(heap.run_until_idle(), wheel.run_until_idle());
  EXPECT_EQ(heap_log, wheel_log);
  EXPECT_EQ(heap.now(), wheel.now());
  EXPECT_GE(next_id, 100);  // the mix really did schedule plenty of work
}

// ---------------------------------------------------------------------------
// Sharded event loop: byte-identical to the serial queue at every size
// ---------------------------------------------------------------------------

TEST(ShardedNetworkTest, DistLRMatchesSerialAtEveryWorkerCount) {
  std::mt19937_64 rng(31);
  const Instance inst = make_random_instance(48, 40, rng);
  const NetworkConfig base{.min_delay = 1, .max_delay = 7, .seed = 9};

  Network serial_net(inst.graph, base);
  DistLinkReversal serial(inst, ReversalRule::kPartial, serial_net);
  serial.start();
  serial_net.run_until_idle();
  ASSERT_TRUE(serial.converged());

  for (const std::size_t workers : {2u, 4u, 8u}) {
    for (const EventSchedulerKind kind :
         {EventSchedulerKind::kHeap, EventSchedulerKind::kWheel}) {
      NetworkConfig config = base;
      config.sim_threads = workers;
      config.scheduler = kind;
      Network net(inst.graph, config);
      ASSERT_NE(net.sharded_loop(), nullptr);
      DistLinkReversal proto(inst, ReversalRule::kPartial, net);
      proto.start();
      net.run_until_idle();
      const std::string context =
          "workers=" + std::to_string(workers) + " " + event_scheduler_token(kind);
      EXPECT_TRUE(proto.converged()) << context;
      EXPECT_EQ(net.now(), serial_net.now()) << context;
      EXPECT_EQ(net.messages_sent(), serial_net.messages_sent()) << context;
      EXPECT_EQ(net.messages_delivered(), serial_net.messages_delivered()) << context;
      EXPECT_EQ(net.messages_dropped(), serial_net.messages_dropped()) << context;
      EXPECT_EQ(proto.total_steps(), serial.total_steps()) << context;
      for (NodeId u = 0; u < inst.graph.num_nodes(); ++u) {
        ASSERT_EQ(proto.height(u), serial.height(u)) << context << " node " << u;
      }
    }
  }
}

TEST(ShardedNetworkTest, LossyResyncRunsMatchSerialRngStream) {
  // Drops and duplicates draw from the same RNG stream as delays, so this
  // pins the sharded merge's serial-order RNG replay, not just delivery
  // order.  Resync rounds drive repeated quiescence cycles through one
  // network.
  std::mt19937_64 rng(47);
  const Instance inst = make_random_instance(32, 28, rng);
  NetworkConfig base{.min_delay = 1, .max_delay = 5, .seed = 13};
  base.drop_probability = 0.15;
  base.duplicate_probability = 0.1;

  Network serial_net(inst.graph, base);
  DistLinkReversal serial(inst, ReversalRule::kPartial, serial_net);
  const auto serial_rounds = serial.run_with_resync(64);
  ASSERT_TRUE(serial_rounds.has_value());

  for (const std::size_t workers : {2u, 4u}) {
    NetworkConfig config = base;
    config.sim_threads = workers;
    config.scheduler = EventSchedulerKind::kWheel;
    Network net(inst.graph, config);
    DistLinkReversal proto(inst, ReversalRule::kPartial, net);
    const auto rounds = proto.run_with_resync(64);
    const std::string context = "workers=" + std::to_string(workers);
    ASSERT_TRUE(rounds.has_value()) << context;
    EXPECT_EQ(*rounds, *serial_rounds) << context;
    EXPECT_EQ(net.now(), serial_net.now()) << context;
    EXPECT_EQ(net.messages_sent(), serial_net.messages_sent()) << context;
    EXPECT_EQ(net.messages_delivered(), serial_net.messages_delivered()) << context;
    EXPECT_EQ(net.messages_dropped(), serial_net.messages_dropped()) << context;
    for (NodeId u = 0; u < inst.graph.num_nodes(); ++u) {
      ASSERT_EQ(proto.height(u), serial.height(u)) << context << " node " << u;
    }
  }
}

TEST(ShardedNetworkTest, RejectsAppEventsCoScheduledThroughQueue) {
  Graph g(2, {{0, 1}});
  NetworkConfig config;
  config.sim_threads = 2;
  Network net(g, config);
  net.set_handler(1, [](const NetMessage&) {});
  net.queue().schedule_at(1, [] {});
  EXPECT_THROW(net.run_until_idle(), std::logic_error);
}

TEST(DistLRTest, MessageComplexityIsStepsTimesDegree) {
  std::mt19937_64 rng(11);
  const Instance inst = make_random_instance(16, 10, rng);
  Network net(inst.graph, {.min_delay = 1, .max_delay = 5, .seed = 7});
  DistLinkReversal proto(inst, ReversalRule::kPartial, net);
  proto.start();
  net.run_until_idle();
  // Every step broadcasts to the stepping node's neighbors; verify the
  // global bound sent <= sum over steps of degree.
  std::uint64_t bound = 0;
  for (NodeId u = 0; u < inst.graph.num_nodes(); ++u) {
    bound += proto.steps(u) * inst.graph.degree(u);
  }
  EXPECT_EQ(net.messages_sent(), bound);
}

}  // namespace
}  // namespace lr
