/// Pins the ServiceHarness contract (src/service/service_harness.hpp):
/// byte-identical traces and histograms at every worker count and under
/// both event-scheduler backends, exactly-once request accounting
/// through partition-and-heal fault injection, patch-only (rebuild-free)
/// churn through the DAGs' in-place link updates, and sweep integration — the
/// service kernel rides WorkerPoolCache instead of spawning a pool per
/// run, and its records are invariant across sim_threads / scheduler /
/// process sharding.

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
// Determinism battery: 1/2/4/8 workers x heap/wheel
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

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    for (const EventSchedulerKind scheduler :
         {EventSchedulerKind::kHeap, EventSchedulerKind::kWheel}) {
      ServiceOptions options = base;
      options.workers = workers;
      options.scheduler = scheduler;
      const ServiceReport report = run_harness(inst, options);
      SCOPED_TRACE(testing::Message() << "workers=" << workers << " scheduler="
                                      << (scheduler == EventSchedulerKind::kHeap ? "heap"
                                                                                 : "wheel"));
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
}

TEST(ServiceHarnessDeterminism, BorrowedPoolMatchesLocalPool) {
  const Instance inst = random_instance(24);
  ServiceOptions options;
  options.clients = 6;
  options.duration = 96;
  options.workers = 4;
  const std::uint64_t local = run_harness(inst, options).fingerprint();
  ThreadPool pool(4);
  options.pool = &pool;
  EXPECT_EQ(run_harness(inst, options).fingerprint(), local);
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
    options.workers = 2;
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
// Sweep integration: WorkerPoolCache reuse and record invariance
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

TEST(ServicePoolCache, SharedCacheSpawnsOnePoolAcrossManyRuns) {
  const RunSpec spec = service_spec(4);
  // Warm-up outside the measured window (first-use lazies).
  (void)execute_run(spec, nullptr, nullptr);

  WorkerPoolCache pools;
  const std::uint64_t before_cached = ThreadPool::total_constructed();
  for (int i = 0; i < 4; ++i) {
    const RunRecord record = execute_run(spec, nullptr, &pools);
    EXPECT_TRUE(record.error.empty()) << record.error;
  }
  const std::uint64_t cached_delta = ThreadPool::total_constructed() - before_cached;
  EXPECT_EQ(cached_delta, 1u) << "4 cached service runs must share one pool";

  const std::uint64_t before_uncached = ThreadPool::total_constructed();
  for (int i = 0; i < 4; ++i) (void)execute_run(spec, nullptr, nullptr);
  const std::uint64_t uncached_delta = ThreadPool::total_constructed() - before_uncached;
  EXPECT_EQ(uncached_delta, 4u) << "uncached service runs spawn one pool each";
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
