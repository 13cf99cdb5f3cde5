/// Pins the ServiceHarness contract (src/service/service_harness.hpp):
/// byte-identical traces and histograms under both event-scheduler
/// backends, exactly-once request accounting through partition-and-heal
/// fault injection, patch-only (rebuild-free) churn through the DAGs'
/// in-place link updates, and sweep integration — the service kernel
/// runs serially (no ThreadPool, with or without a WorkerPoolCache), and
/// its records are invariant across sim_threads / scheduler / process
/// sharding.

#include "service/service_harness.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "graph/generators.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/thread_pool.hpp"

namespace lr {
namespace {

Instance chain_instance(std::size_t n) { return make_worst_case_chain(n); }

Instance random_instance(std::size_t n) {
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = n;
  spec.seed = 3;
  return make_instance(spec);
}

ServiceReport run_harness(const Instance& inst, ServiceOptions options) {
  ServiceHarness harness(inst.graph, inst.destination, options);
  return harness.run();
}

// ---------------------------------------------------------------------------
// Determinism battery: heap/wheel
// ---------------------------------------------------------------------------

TEST(ServiceHarnessDeterminism, WorkerCountAndSchedulerNeverChangeTheReport) {
  const Instance inst = random_instance(32);
  ServiceOptions base;
  base.clients = 8;
  base.duration = 192;
  base.churn_interval = 12;
  base.keep_trace = true;

  // Reference: serial, heap.
  const ServiceReport reference = run_harness(inst, base);
  ASSERT_GT(reference.total_issued(), 0u);
  ASSERT_FALSE(reference.trace.empty());

  for (const EventSchedulerKind scheduler :
       {EventSchedulerKind::kHeap, EventSchedulerKind::kWheel}) {
    ServiceOptions options = base;
    options.scheduler = scheduler;
    const ServiceReport report = run_harness(inst, options);
    SCOPED_TRACE(testing::Message()
                 << "scheduler=" << (scheduler == EventSchedulerKind::kHeap ? "heap" : "wheel"));
    // Trace: field-by-field identical, in the same issue order.
    ASSERT_EQ(report.trace.size(), reference.trace.size());
    for (std::size_t i = 0; i < report.trace.size(); ++i) {
      EXPECT_EQ(report.trace[i].id, reference.trace[i].id);
      EXPECT_EQ(report.trace[i].kind, reference.trace[i].kind);
      EXPECT_EQ(report.trace[i].source, reference.trace[i].source);
      EXPECT_EQ(report.trace[i].issued, reference.trace[i].issued);
      EXPECT_EQ(report.trace[i].latency, reference.trace[i].latency);
      EXPECT_EQ(report.trace[i].hops, reference.trace[i].hops);
      EXPECT_EQ(report.trace[i].status, reference.trace[i].status);
    }
    // Histograms and counters: structurally equal, same fingerprint.
    for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
      EXPECT_EQ(report.kinds[kind].histogram, reference.kinds[kind].histogram);
      EXPECT_EQ(report.kinds[kind].issued, reference.kinds[kind].issued);
      EXPECT_EQ(report.kinds[kind].completed, reference.kinds[kind].completed);
      EXPECT_EQ(report.kinds[kind].failed, reference.kinds[kind].failed);
      EXPECT_EQ(report.kinds[kind].hops, reference.kinds[kind].hops);
    }
    EXPECT_EQ(report.churn_events, reference.churn_events);
    EXPECT_EQ(report.reversal_steps, reference.reversal_steps);
    EXPECT_EQ(report.fingerprint(), reference.fingerprint());
  }
}

TEST(ServiceHarnessDeterminism, EveryWorkloadMixIsSchedulerInvariant) {
  const Instance inst = random_instance(20);
  for (const ServiceWorkload workload : {ServiceWorkload::kRoute, ServiceWorkload::kLock,
                                         ServiceWorkload::kLeader, ServiceWorkload::kMixed}) {
    ServiceOptions options;
    options.clients = 5;
    options.duration = 64;
    options.workload = workload;
    const std::uint64_t heap = run_harness(inst, options).fingerprint();
    options.scheduler = EventSchedulerKind::kWheel;
    EXPECT_EQ(run_harness(inst, options).fingerprint(), heap)
        << service_workload_token(workload);
  }
}

// ---------------------------------------------------------------------------
// Fault injection: partition-and-heal with exactly-once accounting
// ---------------------------------------------------------------------------

TEST(ServiceHarnessFaults, PartitionAndHealAccountsEveryRequestExactlyOnce) {
  // A chain is the cleanest partition: cutting (k, k+1) strands every
  // client at nodes > k from destination 0 until the link heals.
  const Instance inst = chain_instance(12);
  const NodeId cut = 5;
  std::vector<ScriptedLinkEvent> script = {
      {32, {cut, cut + 1, false}},   // partition
      {96, {cut, cut + 1, true}},    // heal
      {128, {cut, cut + 1, false}},  // partition again
      {160, {cut, cut + 1, true}},   // heal again
  };
  ServiceOptions options;
  options.clients = 8;
  options.duration = 224;
  options.churn_script = &script;
  options.keep_trace = true;
  const ServiceReport report = run_harness(inst, options);

  // All four scripted flips applied, and only those.
  EXPECT_EQ(report.churn_events, script.size());

  // Exactly-once: ids are a permutation of 0..issued-1, each with a
  // terminal status; total splits into completed + failed.
  ASSERT_EQ(report.trace.size(), report.total_issued());
  std::vector<bool> seen(report.trace.size(), false);
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  for (const ServiceRequest& request : report.trace) {
    ASSERT_LT(request.id, seen.size());
    EXPECT_FALSE(seen[request.id]) << "duplicate id " << request.id;
    seen[request.id] = true;
    if (request.status == RequestStatus::kOk) {
      ++ok;
      EXPECT_GE(request.latency, 1u);
    } else {
      ++failed;
      // A failure always carries a reason token distinct from "ok".
      EXPECT_STRNE(request_status_token(request.status), "ok");
    }
  }
  EXPECT_EQ(ok, report.total_completed());
  EXPECT_EQ(failed, report.total_failed());
  EXPECT_EQ(ok + failed, report.total_issued());
  // The partition windows must actually strand someone, and the healed
  // windows must actually serve someone.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(ok, 0u);

  // Cross-check: per-kind histograms rebuilt from the trace are
  // byte-identical to the report's.
  LatencyHistogram rebuilt[kRequestKinds];
  for (const ServiceRequest& request : report.trace) {
    if (request.status == RequestStatus::kOk) {
      rebuilt[static_cast<std::size_t>(request.kind)].record(request.latency);
    }
  }
  for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
    EXPECT_EQ(rebuilt[kind], report.kinds[kind].histogram) << "kind " << kind;
  }
}

TEST(ServiceHarnessFaults, FailuresDuringPartitionAreStampedPartitioned) {
  const Instance inst = chain_instance(8);
  // Cut the destination's only link for the whole run: every route
  // request from a non-destination node must fail partitioned.
  std::vector<ScriptedLinkEvent> script = {{0, {0, 1, false}}};
  ServiceOptions options;
  options.clients = 4;
  options.duration = 64;
  options.workload = ServiceWorkload::kRoute;
  options.churn_script = &script;
  options.keep_trace = true;
  const ServiceReport report = run_harness(inst, options);
  ASSERT_GT(report.total_issued(), 0u);
  for (const ServiceRequest& request : report.trace) {
    if (request.source == inst.destination) {
      EXPECT_EQ(request.status, RequestStatus::kOk);
    } else {
      EXPECT_EQ(request.status, RequestStatus::kPartitioned);
    }
  }
}

TEST(ServiceHarnessFaults, ChurnRidesTheIncrementalPatchPath) {
  // Steady-state churn must flow through add_link/remove_link patches:
  // the only adjacency builds are the three services' constructions, no
  // matter how many links flip mid-run.
  const Instance inst = random_instance(24);
  ServiceOptions options;
  options.clients = 6;
  options.duration = 256;
  options.churn_interval = 4;  // aggressive churn
  const ServiceReport report = run_harness(inst, options);
  EXPECT_GT(report.churn_events, 20u);
  EXPECT_EQ(report.snapshot_rebuilds, 3u);
  EXPECT_GT(report.snapshot_patches, 0u);
}

// ---------------------------------------------------------------------------
// Sweep integration: no pool, and record invariance
// ---------------------------------------------------------------------------

RunSpec service_spec(std::size_t sim_threads) {
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = 24;
  spec.algorithm = AlgorithmKind::kService;
  spec.seed = 5;
  spec.sim_threads = sim_threads;
  spec.service_clients = 6;
  spec.service_duration = 96;
  return spec;
}

TEST(ServicePoolCache, ServiceRunsConstructNoThreadPool) {
  // The harness serves every request serially, so sim_threads = 4 must
  // spawn no pool and borrow none from the cache.
  const RunSpec spec = service_spec(4);
  WorkerPoolCache pools;
  const std::uint64_t before = ThreadPool::total_constructed();
  for (int i = 0; i < 2; ++i) {
    const RunRecord uncached = execute_run(spec);
    EXPECT_TRUE(uncached.error.empty()) << uncached.error;
    const RunRecord cached = execute_run(spec, nullptr, &pools);
    EXPECT_TRUE(cached.error.empty()) << cached.error;
  }
  EXPECT_EQ(ThreadPool::total_constructed() - before, 0u);
}

TEST(ServicePoolCache, CachedAndUncachedRecordsAreIdentical) {
  const RunSpec spec = service_spec(2);
  WorkerPoolCache pools;
  const RunRecord cached = execute_run(spec, nullptr, &pools);
  const RunRecord uncached = execute_run(spec, nullptr, nullptr);
  EXPECT_EQ(cached.work, uncached.work);
  EXPECT_EQ(cached.messages, uncached.messages);
  EXPECT_EQ(cached.rounds, uncached.rounds);
  EXPECT_EQ(cached.edge_reversals, uncached.edge_reversals);
  EXPECT_EQ(cached.abstract_steps, uncached.abstract_steps);
  EXPECT_EQ(cached.dummy_steps, uncached.dummy_steps);
  EXPECT_EQ(cached.converged, uncached.converged);
}

TEST(ServiceRunner, RecordIsInvariantAcrossThreadsAndScheduler) {
  const RunRecord reference = execute_run(service_spec(1));
  ASSERT_TRUE(reference.error.empty()) << reference.error;
  ASSERT_TRUE(reference.converged);
  EXPECT_NE(reference.dummy_steps, 0u) << "dummy_steps must carry the report fingerprint";
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    for (const EventSchedulerKind scheduler :
         {EventSchedulerKind::kHeap, EventSchedulerKind::kWheel}) {
      RunSpec spec = service_spec(threads);
      spec.sim_scheduler = scheduler;
      const RunRecord record = execute_run(spec);
      EXPECT_EQ(record.work, reference.work);
      EXPECT_EQ(record.messages, reference.messages);
      EXPECT_EQ(record.rounds, reference.rounds);
      EXPECT_EQ(record.edge_reversals, reference.edge_reversals);
      EXPECT_EQ(record.abstract_steps, reference.abstract_steps);
      EXPECT_EQ(record.dummy_steps, reference.dummy_steps);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden pins: route maintenance on a churned MANET instance
// ---------------------------------------------------------------------------

TEST(RouteMaintenanceGolden, WaypointChurnServiceAndToraMatchPins) {
  // waypoint-2000 with a 100-event churn schedule, seeds 1-3: the service
  // report (default mixed load: 8 clients, 256 ticks) and the tora churn
  // record.  Any change to the partial-reversal step, its queue order or
  // the services' start-up orientation moves one of these.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t service_fingerprint;
    std::uint64_t service_reversal_steps;
    std::uint64_t tora_work;
    std::uint64_t tora_rounds;
    std::uint64_t tora_messages;
  };
  const Golden golden[] = {
      {1, 0x0c3029e8397c97a1ull, 43791, 2566, 204, 204},
      {2, 0x5eba680951e31e85ull, 47246, 3592, 208, 208},
      {3, 0x1d0c6d4a51d286e7ull, 55758, 3018, 268, 268},
  };
  for (const Golden& pin : golden) {
    RunSpec spec;
    spec.topology = TopologyKind::kWaypoint;
    spec.size = 2000;
    spec.seed = pin.seed;
    spec.churn_events = 100;
    const Instance inst = make_instance(spec);
    ServiceOptions options;
    options.clients = spec.service_clients;
    options.duration = spec.service_duration;
    options.workload = spec.service_workload;
    options.seed = spec.network_seed();
    const ServiceReport report = run_harness(inst, options);
    EXPECT_EQ(report.fingerprint(), pin.service_fingerprint) << "seed " << pin.seed;
    EXPECT_EQ(report.reversal_steps, pin.service_reversal_steps) << "seed " << pin.seed;

    spec.algorithm = AlgorithmKind::kTora;
    const RunRecord tora = execute_run(spec);
    ASSERT_TRUE(tora.error.empty()) << tora.error;
    EXPECT_EQ(tora.work, pin.tora_work) << "seed " << pin.seed;
    EXPECT_EQ(tora.rounds, pin.tora_rounds) << "seed " << pin.seed;
    EXPECT_EQ(tora.messages, pin.tora_messages) << "seed " << pin.seed;
  }
}

TEST(ServiceRunner, SweepShipsServiceScalarsToEveryRecord) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain};
  sweep.sizes = {12};
  sweep.algorithms = {AlgorithmKind::kService};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};
  sweep.service_workload = ServiceWorkload::kLock;
  sweep.service_clients = 3;
  sweep.service_duration = 48;
  const ScenarioRunner runner({.threads = 1});
  const SweepReport report = runner.run(sweep);
  ASSERT_EQ(report.records.size(), 2u);
  for (const RunRecord& record : report.records) {
    EXPECT_EQ(record.spec.service_workload, ServiceWorkload::kLock);
    EXPECT_EQ(record.spec.service_clients, 3u);
    EXPECT_EQ(record.spec.service_duration, 48u);
    EXPECT_TRUE(record.error.empty()) << record.error;
    EXPECT_TRUE(record.converged);
  }
}

}  // namespace
}  // namespace lr
