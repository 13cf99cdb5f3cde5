#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/bounds.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "trace/report.hpp"

/// Tests for the scenario-sweep engine: spec parsing and expansion order,
/// per-run seed derivation, thread-count-invariant determinism, degenerate
/// sweeps, and the CSV/JSON golden-file round-trip through trace/report.

namespace lr {
namespace {

// ---------------------------------------------------------------------------
// Sweep spec parsing
// ---------------------------------------------------------------------------

TEST(SweepSpecTest, ParsesFullSpecWithRangesAndComments) {
  const SweepSpec spec = SweepSpec::parse_string(
      "# a comment line\n"
      "topology  = chain, random   # trailing comment\n"
      "size      = 8, 16\n"
      "algorithm = fr, pr, newpr\n"
      "scheduler = lowest, random\n"
      "seed      = 1..3, 10\n"
      "max_steps = 5000\n");
  EXPECT_EQ(spec.topologies, (std::vector<TopologyKind>{TopologyKind::kChain,
                                                        TopologyKind::kRandom}));
  EXPECT_EQ(spec.sizes, (std::vector<std::size_t>{8, 16}));
  EXPECT_EQ(spec.algorithms.size(), 3u);
  EXPECT_EQ(spec.schedulers.size(), 2u);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3, 10}));
  EXPECT_EQ(spec.max_steps, 5000u);
  EXPECT_EQ(spec.run_count(), 2u * 2 * 3 * 2 * 4);
}

TEST(SweepSpecTest, DefaultsSchedulerAndSeed) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\n"
      "size = 8\n"
      "algorithm = pr\n");
  ASSERT_EQ(spec.schedulers, (std::vector<SchedulerKind>{SchedulerKind::kLowestId}));
  ASSERT_EQ(spec.seeds, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(spec.run_count(), 1u);
}

TEST(SweepSpecTest, RejectsMalformedInput) {
  EXPECT_THROW(SweepSpec::parse_string("topology = moebius\nsize=8\nalgorithm=pr\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse_string("size = 8\nalgorithm = pr\n"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse_string("topology = chain\ntopology = chain\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse_string("topology chain\n"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse_string("topology = chain\nsize = 9..5\nalgorithm = pr\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse_string("topology = chain\nsize = 8\nalgorithm = pr\n"
                                       "seed = 1..99999999\n"),
               std::invalid_argument);
  // Integer overflow is rejected on its line: a range whose size wraps
  // the guard (hi - lo + 1 overflows to 0), and a value past 2^64 - 1.
  for (const auto& [text, line] :
       {std::pair<const char*, const char*>{"topology = chain\nsize = 8\nalgorithm = pr\n"
                                            "seed = 0..18446744073709551615\n",
                                            "line 4:"},
        {"topology = chain\nsize = 99999999999999999999\nalgorithm = pr\n", "line 2:"}}) {
    try {
      SweepSpec::parse_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(line), std::string::npos) << error.what();
    }
  }
}

TEST(SweepSpecTest, RangeEndingAtTheLargestValueTerminates) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\nsize = 8\nalgorithm = pr\n"
      "seed = 18446744073709551614..18446744073709551615\n");
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{18446744073709551614ULL,
                                                     18446744073709551615ULL}));
}

TEST(SweepSpecTest, ParsesEventCoreOptionsAndStampsEveryRun) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\n"
      "size = 8\n"
      "algorithm = dist-fr, dist-pr\n"
      "seed = 1, 2\n"
      "sim_scheduler = wheel\n"
      "sim_threads = 4\n");
  EXPECT_EQ(spec.sim_scheduler, EventSchedulerKind::kWheel);
  EXPECT_EQ(spec.sim_threads, 4u);
  for (const RunSpec& run : spec.expand()) {
    EXPECT_EQ(run.sim_scheduler, EventSchedulerKind::kWheel);
    EXPECT_EQ(run.sim_threads, 4u);
  }
}

TEST(SweepSpecTest, EventCoreOptionsDefaultToSerialHeap) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\n"
      "size = 8\n"
      "algorithm = pr\n");
  EXPECT_EQ(spec.sim_scheduler, EventSchedulerKind::kHeap);
  EXPECT_EQ(spec.sim_threads, 1u);
}

TEST(SweepSpecTest, RejectsBadEventCoreOptions) {
  const std::string base =
      "topology = chain\n"
      "size = 8\n"
      "algorithm = pr\n";
  // Unknown backend token.
  EXPECT_THROW(SweepSpec::parse_string(base + "sim_scheduler = calendar\n"),
               std::invalid_argument);
  // Both are perf switches, not sweep axes: lists are rejected.
  EXPECT_THROW(SweepSpec::parse_string(base + "sim_scheduler = heap, wheel\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse_string(base + "sim_threads = 1, 2\n"),
               std::invalid_argument);
}

TEST(SweepSpecTest, RejectsThreadCountsAboveTheLimit) {
  const std::string base =
      "topology = chain\n"
      "size = 8\n"
      "algorithm = pr\n";
  const std::uint64_t pools_before = ThreadPool::total_constructed();
  for (const char* key : {"engine_threads", "sim_threads"}) {
    try {
      SweepSpec::parse_string(base + key + " = 1000000\n");
      ADD_FAILURE() << key << " = 1000000 must be rejected";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::to_string(kMaxThreads)), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(SweepSpec::parse_string(base + key + " = " + std::to_string(kMaxThreads) + "\n")
                  .run_count(),
              1u);
  }
  EXPECT_EQ(ThreadPool::total_constructed(), pools_before);
}

TEST(SweepSpecTest, ParsesServiceScalarsAndStampsEveryRun) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = random\n"
      "size = 16\n"
      "algorithm = service\n"
      "seed = 1, 2\n"
      "service_workload = lock\n"
      "service_clients = 12\n"
      "service_duration = 512\n");
  EXPECT_EQ(spec.service_workload, ServiceWorkload::kLock);
  EXPECT_EQ(spec.service_clients, 12u);
  EXPECT_EQ(spec.service_duration, 512u);
  for (const RunSpec& run : spec.expand()) {
    EXPECT_EQ(run.algorithm, AlgorithmKind::kService);
    EXPECT_EQ(run.service_workload, ServiceWorkload::kLock);
    EXPECT_EQ(run.service_clients, 12u);
    EXPECT_EQ(run.service_duration, 512u);
  }
}

TEST(SweepSpecTest, ServiceScalarsDefaultToMixedReferenceLoad) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\n"
      "size = 8\n"
      "algorithm = service\n");
  EXPECT_EQ(spec.service_workload, ServiceWorkload::kMixed);
  EXPECT_EQ(spec.service_clients, 8u);
  EXPECT_EQ(spec.service_duration, 256u);
}

TEST(SweepSpecTest, RejectsBadServiceScalars) {
  const std::string base =
      "topology = chain\n"
      "size = 8\n"
      "algorithm = service\n";
  // Unknown workload token.
  EXPECT_THROW(SweepSpec::parse_string(base + "service_workload = batch\n"),
               std::invalid_argument);
  // Scalars, not sweep axes: lists are rejected.
  EXPECT_THROW(SweepSpec::parse_string(base + "service_workload = route, lock\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse_string(base + "service_clients = 4, 8\n"),
               std::invalid_argument);
  // A service with zero clients is meaningless.
  EXPECT_THROW(SweepSpec::parse_string(base + "service_clients = 0\n"),
               std::invalid_argument);
}

TEST(SweepSpecTest, ServiceScalarsRoundTripThroughFormat) {
  SweepSpec spec;
  spec.topologies = {TopologyKind::kRandom};
  spec.sizes = {16};
  spec.algorithms = {AlgorithmKind::kService};
  spec.schedulers = {SchedulerKind::kLowestId};
  spec.seeds = {1, 2};
  spec.service_workload = ServiceWorkload::kLeader;
  spec.service_clients = 5;
  spec.service_duration = 128;
  const std::string text = format_sweep_spec(spec);
  const SweepSpec reparsed = SweepSpec::parse_string(text);
  EXPECT_EQ(reparsed.service_workload, ServiceWorkload::kLeader);
  EXPECT_EQ(reparsed.service_clients, 5u);
  EXPECT_EQ(reparsed.service_duration, 128u);
  EXPECT_EQ(format_sweep_spec(reparsed), text);
}

TEST(SweepSpecTest, ExpansionOrderIsSeedInnermost) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain, star\n"
      "size = 8\n"
      "algorithm = fr, pr\n"
      "seed = 1, 2\n");
  const std::vector<RunSpec> runs = spec.expand();
  ASSERT_EQ(runs.size(), 8u);
  EXPECT_EQ(runs[0].topology, TopologyKind::kChain);
  EXPECT_EQ(runs[0].algorithm, AlgorithmKind::kFullReversal);
  EXPECT_EQ(runs[0].seed, 1u);
  EXPECT_EQ(runs[1].seed, 2u);  // seed is the innermost axis
  EXPECT_EQ(runs[2].algorithm, AlgorithmKind::kOneStepPR);
  EXPECT_EQ(runs[4].topology, TopologyKind::kStar);
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(RunSpecTest, InstanceSeedIgnoresAlgorithmAndScheduler) {
  RunSpec a;
  a.topology = TopologyKind::kRandom;
  a.size = 32;
  a.seed = 7;
  a.algorithm = AlgorithmKind::kFullReversal;
  a.scheduler = SchedulerKind::kLowestId;
  RunSpec b = a;
  b.algorithm = AlgorithmKind::kOneStepPR;
  b.scheduler = SchedulerKind::kRandom;
  EXPECT_EQ(a.instance_seed(), b.instance_seed());

  RunSpec c = a;
  c.seed = 8;
  EXPECT_NE(a.instance_seed(), c.instance_seed());
  RunSpec d = a;
  d.size = 33;
  EXPECT_NE(a.instance_seed(), d.instance_seed());
}

TEST(RunSpecTest, SpecDigestChangesWithEveryField) {
  // Shard record frames carry spec_digest() instead of the spec, so a
  // change to any one field — each of the five axes and each scalar of
  // the for_each_scalar() list — must change the digest.
  RunSpec base;
  base.topology = TopologyKind::kRandom;
  base.size = 32;
  base.algorithm = AlgorithmKind::kDistPR;
  base.scheduler = SchedulerKind::kRandom;
  base.seed = 7;
  const std::uint64_t digest = spec_digest(base);
  EXPECT_EQ(spec_digest(base), digest);  // a pure function

  std::vector<RunSpec> variants(5, base);
  variants[0].topology = TopologyKind::kGrid;
  variants[1].size = 33;
  variants[2].algorithm = AlgorithmKind::kDistFR;
  variants[3].scheduler = SchedulerKind::kLowestId;
  variants[4].seed = 8;
  std::size_t scalars = 0;
  for_each_scalar(base, [&scalars](const char*, const auto&) { ++scalars; });
  EXPECT_EQ(scalars, 9u);
  for (std::size_t field = 0; field < scalars; ++field) {
    RunSpec variant = base;
    std::size_t index = 0;
    for_each_scalar(variant, [&](const char*, auto& value) {
      if (index++ == field) {
        value = static_cast<std::remove_reference_t<decltype(value)>>(
            static_cast<std::uint64_t>(value) ^ 1);
      }
    });
    variants.push_back(variant);
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(spec_digest(variants[i]), digest) << "field #" << i;
  }
}

TEST(RunSpecTest, DerivedStreamsAreDistinct) {
  const RunSpec spec;
  EXPECT_NE(spec.instance_seed(), spec.scheduler_seed());
  EXPECT_NE(spec.instance_seed(), spec.network_seed());
  EXPECT_NE(spec.scheduler_seed(), spec.network_seed());
}

TEST(RunSpecTest, SameSpecSameInstance) {
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = 24;
  spec.seed = 5;
  const Instance first = make_instance(spec);
  const Instance second = make_instance(spec);
  EXPECT_EQ(first.graph.num_nodes(), second.graph.num_nodes());
  EXPECT_EQ(first.graph.num_edges(), second.graph.num_edges());
  EXPECT_EQ(first.senses, second.senses);
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

TEST(ExecuteRunTest, EveryAlgorithmKernelExecutesCleanly) {
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR,
        AlgorithmKind::kHybrid, AlgorithmKind::kTora, AlgorithmKind::kDistFR,
        AlgorithmKind::kDistPR, AlgorithmKind::kSimRPrime, AlgorithmKind::kSimR,
        AlgorithmKind::kSimRRev, AlgorithmKind::kService}) {
    RunSpec spec;
    spec.topology = TopologyKind::kRandom;
    spec.size = 16;
    spec.algorithm = algorithm;
    spec.scheduler = SchedulerKind::kRandom;
    spec.seed = 3;
    const RunRecord record = execute_run(spec);
    EXPECT_TRUE(record.error.empty()) << algorithm_token(algorithm) << ": " << record.error;
    EXPECT_TRUE(record.converged) << algorithm_token(algorithm);
    EXPECT_EQ(record.nodes, 16u) << algorithm_token(algorithm);
  }
}

TEST(ExecuteRunTest, ToraOnAnEdgelessChainIsAnOkRecord) {
  // A one-node chain has no link to flip; run_churn_scenario used to draw
  // an edge id from an empty range and read past the edge table.
  RunSpec spec;
  spec.topology = TopologyKind::kChain;
  spec.size = 1;
  spec.algorithm = AlgorithmKind::kTora;
  const RunRecord record = execute_run(spec);
  EXPECT_TRUE(record.error.empty()) << record.error;
  EXPECT_EQ(record.nodes, 1u);
  EXPECT_TRUE(record.converged);
}

TEST(ExecuteRunTest, ChainWorkMatchesClosedForms) {
  RunSpec spec;
  spec.topology = TopologyKind::kChain;
  spec.size = 9;  // n_b = 8
  spec.algorithm = AlgorithmKind::kFullReversal;
  const RunRecord fr = execute_run(spec);
  EXPECT_EQ(fr.bad_nodes, 8u);
  EXPECT_EQ(fr.work, fr_chain_work(8));
  spec.algorithm = AlgorithmKind::kOneStepPR;
  const RunRecord pr = execute_run(spec);
  EXPECT_EQ(pr.work, pr_chain_work(8));
  EXPECT_GT(fr.rounds, 0u);
  EXPECT_GT(pr.rounds, 0u);
}

TEST(ExecuteRunTest, BudgetCutStrategyRecordsMatchTheLegacyPath) {
  // A run cut by max_steps reports no rounds from its round clocks, so the
  // CSR path falls back to the rounds pass under the same budget, as the
  // legacy path does; every field of the record must agree.
  std::size_t cut = 0;
  for (const TopologyKind topology : {TopologyKind::kChain, TopologyKind::kRandom,
                                      TopologyKind::kLayered, TopologyKind::kGrid}) {
    for (const AlgorithmKind algorithm :
         {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR}) {
      for (const SchedulerKind scheduler : {SchedulerKind::kLowestId, SchedulerKind::kRandom,
                                            SchedulerKind::kRoundRobin,
                                            SchedulerKind::kFarthestFirst}) {
        for (const std::uint64_t max_steps : {1u, 40u, 150u}) {
          RunSpec spec;
          spec.topology = topology;
          spec.size = 64;
          spec.algorithm = algorithm;
          spec.scheduler = scheduler;
          spec.seed = 4;
          spec.max_steps = max_steps;
          SweepCache cache;
          const RunRecord csr = execute_run(spec, &cache);
          spec.path = ExecutionPath::kLegacy;
          const RunRecord legacy = execute_run(spec);
          const std::string context = std::string(topology_token(topology)) + "/" +
                                      algorithm_token(algorithm) + "/" +
                                      scheduler_token(scheduler) + " max_steps " +
                                      std::to_string(max_steps);
          EXPECT_EQ(csr.bad_nodes, legacy.bad_nodes) << context;
          EXPECT_EQ(csr.work, legacy.work) << context;
          EXPECT_EQ(csr.edge_reversals, legacy.edge_reversals) << context;
          EXPECT_EQ(csr.rounds, legacy.rounds) << context;
          EXPECT_EQ(csr.dummy_steps, legacy.dummy_steps) << context;
          EXPECT_EQ(csr.converged, legacy.converged) << context;
          EXPECT_EQ(csr.error, legacy.error) << context;
          if (!csr.converged) {
            EXPECT_EQ(csr.work, max_steps) << context;
            EXPECT_GT(csr.rounds, 0u) << context;
            ++cut;
          }
        }
      }
    }
  }
  EXPECT_GT(cut, 48u);
}

TEST(ExecuteRunTest, SimulationKernelsReportVerdicts) {
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = 20;
  spec.seed = 11;
  spec.scheduler = SchedulerKind::kRandom;

  spec.algorithm = AlgorithmKind::kSimRPrime;
  const RunRecord rprime = execute_run(spec);
  EXPECT_EQ(rprime.relation, RelationVerdict::kHolds) << rprime.error;
  EXPECT_GE(rprime.abstract_steps, rprime.work);  // |S| one-step actions per set step

  spec.algorithm = AlgorithmKind::kSimR;
  const RunRecord r = execute_run(spec);
  EXPECT_EQ(r.relation, RelationVerdict::kHolds) << r.error;
  EXPECT_GE(r.abstract_steps, r.work);       // 1..2 NewPR steps per OneStepPR step
  EXPECT_LE(r.abstract_steps, 2 * r.work);

  spec.algorithm = AlgorithmKind::kSimRRev;
  const RunRecord rrev = execute_run(spec);
  EXPECT_EQ(rrev.relation, RelationVerdict::kHolds) << rrev.error;
  EXPECT_LE(rrev.abstract_steps, rrev.work);  // dummy steps map to empty sequences
}

TEST(ExecuteRunTest, UnsupportedSchedulerBecomesErrorRecordNotCrash) {
  RunSpec spec;
  spec.algorithm = AlgorithmKind::kSimRPrime;
  spec.scheduler = SchedulerKind::kRoundRobin;
  const RunRecord record = execute_run(spec);
  EXPECT_FALSE(record.error.empty());
  EXPECT_FALSE(record.converged);
}

// ---------------------------------------------------------------------------
// Parallel determinism (the sweep engine's core contract)
// ---------------------------------------------------------------------------

SweepSpec determinism_sweep() {
  // 2 topologies x 1 size x 3 algorithms x 2 schedulers x 5 seeds = 60 runs,
  // mixing deterministic and seeded-random kernels and schedulers.
  return SweepSpec::parse_string(
      "topology = chain, random\n"
      "size = 16\n"
      "algorithm = fr, pr, sim-r\n"
      "scheduler = lowest, random\n"
      "seed = 1..5\n");
}

TEST(ScenarioRunnerTest, AggregatesIdenticalAcrossThreadCounts) {
  const SweepSpec spec = determinism_sweep();
  ASSERT_GE(spec.run_count(), 50u);
  const SweepReport serial = ScenarioRunner({.threads = 1}).run(spec);
  const SweepReport parallel4 = ScenarioRunner({.threads = 4}).run(spec);
  const SweepReport parallel7 = ScenarioRunner({.threads = 7}).run(spec);

  std::ostringstream s1, s4, s7;
  write_table_csv(s1, serial.records_table());
  write_table_csv(s4, parallel4.records_table());
  write_table_csv(s7, parallel7.records_table());
  EXPECT_EQ(s1.str(), s4.str());
  EXPECT_EQ(s1.str(), s7.str());

  std::ostringstream a1, a4;
  write_table_csv(a1, serial.aggregate_table());
  write_table_csv(a4, parallel4.aggregate_table());
  EXPECT_EQ(a1.str(), a4.str());
}

// ---------------------------------------------------------------------------
// Sweep cache and execution-path invariance for the tora / dist-* kernels
// ---------------------------------------------------------------------------

TEST(SweepCacheTest, GeneratesOncePerTopologySizeSeed) {
  SweepCache cache;
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = 12;
  spec.seed = 5;
  const auto first = cache.get(spec);
  spec.algorithm = AlgorithmKind::kDistPR;  // algorithm must not affect the key
  spec.scheduler = SchedulerKind::kRandom;  // neither must the scheduler
  const auto second = cache.get(spec);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  spec.seed = 6;
  const auto third = cache.get(spec);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().peak_entries, 2u);
}

TEST(ScenarioRunnerTest, SweepReportSurfacesCacheCounters) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kRandom};
  sweep.sizes = {12};
  sweep.algorithms = {AlgorithmKind::kTora, AlgorithmKind::kDistFR};  // share workloads
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};
  const SweepReport report = ScenarioRunner(RunnerOptions{.threads = 1}).run(sweep);
  EXPECT_EQ(report.cache.peak_entries, 1u);  // one workload at a time on one thread
  EXPECT_EQ(report.cache.misses, 2u);
  EXPECT_EQ(report.cache.hits, 2u);  // the second kernel hits both workloads
}

std::string tables_of(const SweepReport& report) {
  std::ostringstream oss;
  write_table_csv(oss, report.records_table());
  write_table_csv(oss, report.aggregate_table());
  return oss.str();
}

/// 4 seeds x fr, pr, newpr: 12 runs over 4 workloads, seed innermost.
SweepSpec four_workload_sweep() {
  return SweepSpec::parse_string(
      "topology = random\n"
      "size = 64\n"
      "algorithm = fr, pr, newpr\n"
      "seed = 1..4\n");
}

TEST(ScenarioRunnerTest, OneThreadHoldsOneWorkloadAtATime) {
  // The expansion interleaves the seeds, but the runner runs each workload's
  // three runs together, so one thread builds each workload once and drops
  // it before the next.
  const SweepSpec sweep = four_workload_sweep();
  const SweepReport serial = ScenarioRunner({.threads = 1}).run(sweep);
  EXPECT_EQ(serial.cache.misses, 4u);
  EXPECT_EQ(serial.cache.hits, 8u);
  EXPECT_EQ(serial.cache.peak_entries, 1u);
  for (const std::size_t threads : {2u, 4u}) {
    const SweepReport parallel = ScenarioRunner({.threads = threads}).run(sweep);
    EXPECT_EQ(parallel.cache.misses, serial.cache.misses) << threads;
    EXPECT_EQ(parallel.cache.hits, serial.cache.hits) << threads;
    EXPECT_LE(parallel.cache.peak_entries, threads) << threads;
    EXPECT_EQ(tables_of(parallel), tables_of(serial)) << threads;
  }
}

TEST(WorkloadGroupsTest, GroupsByFirstAppearanceAndKeepsExpansionOrder) {
  const std::vector<RunSpec> runs = four_workload_sweep().expand();  // fr s1..s4, pr s1..s4, ...
  const std::vector<std::vector<std::size_t>> groups = group_by_workload(runs);
  EXPECT_EQ(groups, (std::vector<std::vector<std::size_t>>{
                        {0, 4, 8}, {1, 5, 9}, {2, 6, 10}, {3, 7, 11}}));
  for (const std::vector<std::size_t>& group : groups) {
    for (const std::size_t index : group) {
      EXPECT_EQ(workload_key(runs[index]), workload_key(runs[group.front()]));
    }
  }
  EXPECT_TRUE(group_by_workload({}).empty());
}

TEST(SweepCacheTest, ConcurrentGetsOfOneKeyShareOneBuild) {
  RunSpec spec;
  spec.topology = TopologyKind::kWideRandom;
  spec.size = 20'000;  // a build long enough for the callers to overlap it
  SweepCache cache;
  constexpr std::size_t kCallers = 8;
  std::vector<const FrozenInstance*> seen(kCallers, nullptr);
  std::latch start(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[i] = cache.get(spec).get();
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, kCallers - 1);
  for (const FrozenInstance* frozen : seen) EXPECT_EQ(frozen, seen[0]);
  EXPECT_NE(seen[0], nullptr);
}

TEST(SweepCacheTest, FailedBuildReachesEveryConcurrentCaller) {
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = 0;  // the generator refuses an empty graph
  ASSERT_THROW(make_instance(spec), std::invalid_argument);
  SweepCache cache;
  constexpr std::size_t kCallers = 8;
  std::vector<std::string> errors(kCallers);
  std::latch start(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      start.arrive_and_wait();
      try {
        cache.get(spec);
      } catch (const std::exception& error) {
        errors[i] = error.what();
      }
    });
  }
  for (std::thread& caller : callers) caller.join();  // none hangs
  EXPECT_EQ(cache.stats().misses, 1u);
  for (const std::string& error : errors) {
    EXPECT_NE(error.find("must be positive"), std::string::npos) << error;
  }
  spec.algorithm = AlgorithmKind::kDistFR;
  EXPECT_NE(execute_run(spec, &cache).error.find("must be positive"), std::string::npos);
}

TEST(SweepCacheTest, PlannedCacheDropsEachWorkloadAfterItsLastPlannedGet) {
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = 12;
  std::vector<RunSpec> plan;
  for (const std::uint64_t seed : {1u, 2u, 1u}) {
    spec.seed = seed;
    plan.push_back(spec);
  }
  // use_count() counts the cache's reference next to the ones held here.
  SweepCache cache(plan);
  spec.seed = 1;
  const auto first = cache.get(spec);
  EXPECT_EQ(first.use_count(), 2);
  spec.seed = 2;
  const auto only = cache.get(spec);  // seed 2's one planned get: dropped at once
  EXPECT_EQ(only.use_count(), 1);
  spec.seed = 1;
  EXPECT_EQ(cache.get(spec).get(), first.get());  // seed 1's last planned get
  EXPECT_EQ(first.use_count(), 1);

  spec.seed = 3;  // outside the plan: stays until the cache dies
  const auto unplanned = cache.get(spec);
  EXPECT_EQ(cache.get(spec).get(), unplanned.get());
  EXPECT_EQ(unplanned.use_count(), 2);
  spec.seed = 1;  // beyond its plan: built again, and kept
  const auto again = cache.get(spec);
  EXPECT_NE(again.get(), first.get());
  EXPECT_EQ(again.use_count(), 2);
  const SweepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.peak_entries, 2u);
}

TEST(SweepCacheTest, FrozenInstanceMatchesFreshGeneration) {
  SweepCache cache;
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = 16;
  spec.seed = 9;
  const auto frozen = cache.get(spec);
  const Instance fresh = make_instance(spec);
  EXPECT_EQ(frozen->instance.graph, fresh.graph);
  EXPECT_EQ(frozen->instance.senses, fresh.senses);
  EXPECT_EQ(frozen->instance.destination, fresh.destination);
  EXPECT_EQ(frozen->csr.num_nodes(), fresh.graph.num_nodes());
  EXPECT_EQ(frozen->csr.num_edges(), fresh.graph.num_edges());
}

TEST(SweepCacheTest, CachedAndUncachedRecordsAgreeForEveryKernel) {
  // Each kernel runs uncached, from an unplanned cache (always frozen),
  // from a cache planned over the run itself (frozen iff the kernel reads
  // the CSR), and from a cache planned over a tora run of the same
  // workload (never frozen, so a CSR reader falls back to its own freeze).
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR,
        AlgorithmKind::kHybrid, AlgorithmKind::kTora, AlgorithmKind::kDistFR,
        AlgorithmKind::kDistPR, AlgorithmKind::kSimRPrime, AlgorithmKind::kSimR,
        AlgorithmKind::kSimRRev, AlgorithmKind::kService}) {
    RunSpec spec;
    spec.topology = TopologyKind::kRandom;
    spec.size = 12;
    spec.seed = 2;
    spec.algorithm = algorithm;
    spec.service_duration = 64;
    RunSpec tora = spec;
    tora.algorithm = AlgorithmKind::kTora;
    const RunRecord uncached = execute_run(spec);
    SweepCache unplanned;
    SweepCache planned({spec});
    SweepCache planned_tora({tora});
    const std::pair<const char*, SweepCache*> caches[] = {
        {"unplanned", &unplanned}, {"planned", &planned}, {"planned over tora", &planned_tora}};
    for (const auto& [name, cache] : caches) {
      const RunRecord cached = execute_run(spec, cache);
      const std::string context = std::string(algorithm_token(algorithm)) + ", " + name;
      EXPECT_EQ(cached.bad_nodes, uncached.bad_nodes) << context;
      EXPECT_EQ(cached.work, uncached.work) << context;
      EXPECT_EQ(cached.edge_reversals, uncached.edge_reversals) << context;
      EXPECT_EQ(cached.rounds, uncached.rounds) << context;
      EXPECT_EQ(cached.dummy_steps, uncached.dummy_steps) << context;
      EXPECT_EQ(cached.abstract_steps, uncached.abstract_steps) << context;
      EXPECT_EQ(cached.messages, uncached.messages) << context;
      EXPECT_EQ(cached.converged, uncached.converged) << context;
      EXPECT_EQ(cached.relation, uncached.relation) << context;
      EXPECT_EQ(cached.error, uncached.error) << context;
    }
  }
}

TEST(ScenarioRunnerTest, ToraAndDistTablesAreBytewisePathInvariant) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {8, 12};
  sweep.algorithms = {AlgorithmKind::kTora, AlgorithmKind::kDistFR, AlgorithmKind::kDistPR};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};

  const auto csv_of = [](const SweepSpec& spec) {
    const SweepReport report = ScenarioRunner(RunnerOptions{.threads = 2}).run(spec);
    std::ostringstream oss;
    write_table_csv(oss, report.records_table());
    write_table_csv(oss, report.aggregate_table());
    return oss.str();
  };
  SweepSpec csr = sweep;
  csr.path = ExecutionPath::kCsr;
  SweepSpec legacy = sweep;
  legacy.path = ExecutionPath::kLegacy;
  EXPECT_EQ(csv_of(csr), csv_of(legacy));
}

TEST(ScenarioRunnerTest, DistTablesAreBytewiseEventCoreInvariant) {
  // The event-core switches (scheduler backend, event-lane worker count)
  // are pure perf knobs: every combination must reproduce the serial-heap
  // tables byte for byte, including through the runner's worker pool cache.
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {8, 12};
  sweep.algorithms = {AlgorithmKind::kDistFR, AlgorithmKind::kDistPR};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};

  const auto csv_of = [&sweep](EventSchedulerKind scheduler, std::size_t threads) {
    SweepSpec spec = sweep;
    spec.sim_scheduler = scheduler;
    spec.sim_threads = threads;
    const SweepReport report = ScenarioRunner(RunnerOptions{.threads = 2}).run(spec);
    std::ostringstream oss;
    write_table_csv(oss, report.records_table());
    write_table_csv(oss, report.aggregate_table());
    return oss.str();
  };
  const std::string baseline = csv_of(EventSchedulerKind::kHeap, 1);
  EXPECT_EQ(baseline, csv_of(EventSchedulerKind::kWheel, 1));
  EXPECT_EQ(baseline, csv_of(EventSchedulerKind::kHeap, 2));
  EXPECT_EQ(baseline, csv_of(EventSchedulerKind::kWheel, 4));
}

TEST(ScenarioRunnerTest, ThreadCountZeroResolvesToHardware) {
  EXPECT_GE(ScenarioRunner(RunnerOptions{}).threads(), 1u);
  EXPECT_EQ(ScenarioRunner({.threads = 3}).threads(), 3u);
}

TEST(ScenarioRunnerTest, EmptySweepYieldsHeaderOnlyTables) {
  const SweepReport report = ScenarioRunner({.threads = 2}).run(SweepSpec{});
  EXPECT_TRUE(report.records.empty());
  EXPECT_TRUE(report.records_table().rows.empty());
  EXPECT_TRUE(report.aggregate_table().rows.empty());
  EXPECT_FALSE(report.records_table().columns.empty());
}

TEST(ScenarioRunnerTest, DegenerateSingleNodeInstanceRuns) {
  RunSpec spec;
  spec.topology = TopologyKind::kChain;
  spec.size = 1;  // destination only: no edges, no bad nodes, nothing to do
  spec.algorithm = AlgorithmKind::kOneStepPR;
  const RunRecord record = execute_run(spec);
  EXPECT_TRUE(record.error.empty()) << record.error;
  EXPECT_EQ(record.work, 0u);
  EXPECT_EQ(record.bad_nodes, 0u);
  EXPECT_TRUE(record.converged);
}

TEST(ScenarioRunnerTest, AggregateCountsRelationVerdictsAndConvergence) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = random\n"
      "size = 12\n"
      "algorithm = pr, sim-rprime\n"
      "scheduler = random\n"
      "seed = 1..4\n");
  const SweepReport report = ScenarioRunner({.threads = 2}).run(spec);
  const Table aggregate = report.aggregate_table();
  ASSERT_EQ(aggregate.rows.size(), 2u);  // one group per algorithm
  const auto cell = [&](std::size_t row, const std::string& column) {
    for (std::size_t c = 0; c < aggregate.columns.size(); ++c) {
      if (aggregate.columns[c] == column) return aggregate.rows[row][c];
    }
    ADD_FAILURE() << "no column " << column;
    return std::string{};
  };
  EXPECT_EQ(cell(0, "algorithm"), "pr");
  EXPECT_EQ(cell(0, "runs"), "4");
  EXPECT_EQ(cell(0, "converged"), "4");
  EXPECT_EQ(cell(0, "relation_checked"), "0");
  EXPECT_EQ(cell(1, "algorithm"), "sim-rprime");
  EXPECT_EQ(cell(1, "relation_checked"), "4");
  EXPECT_EQ(cell(1, "relation_ok"), "4");
}

// ---------------------------------------------------------------------------
// Report tables: golden strings and round-trip
// ---------------------------------------------------------------------------

TEST(ReportTableTest, CsvGoldenWithQuoting) {
  Table table;
  table.columns = {"name", "value", "note"};
  table.add_row({"plain", "42", "no quoting"});
  table.add_row({"comma,case", "3.5", "quote \"this\""});
  std::ostringstream os;
  write_table_csv(os, table);
  EXPECT_EQ(os.str(),
            "name,value,note\n"
            "plain,42,no quoting\n"
            "\"comma,case\",3.5,\"quote \"\"this\"\"\"\n");
}

TEST(ReportTableTest, JsonGoldenTypesNumbersAndEscapes) {
  Table table;
  table.columns = {"name", "value"};
  table.add_row({"answer", "42"});
  table.add_row({"ratio", "-1.5"});
  table.add_row({"text \"q\"", "007"});  // leading zero stays a string
  table.add_row({"seed", "5294858384698045469"});  // > 2^53 stays a string
  std::ostringstream os;
  write_table_json(os, table);
  EXPECT_EQ(os.str(),
            "[\n"
            "  {\"name\": \"answer\", \"value\": 42},\n"
            "  {\"name\": \"ratio\", \"value\": -1.5},\n"
            "  {\"name\": \"text \\\"q\\\"\", \"value\": \"007\"},\n"
            "  {\"name\": \"seed\", \"value\": \"5294858384698045469\"}\n"
            "]\n");
}

TEST(ReportTableTest, CsvRoundTripsExactly) {
  Table table;
  table.columns = {"a", "b"};
  table.add_row({"x,y", "line\nbreak"});
  table.add_row({"\"quoted\"", ""});
  std::ostringstream os;
  write_table_csv(os, table);
  std::istringstream is(os.str());
  EXPECT_EQ(read_table_csv(is), table);
}

TEST(ReportTableTest, RejectsRaggedRowsAndBadCsv) {
  Table table;
  table.columns = {"a", "b"};
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  std::istringstream ragged("a,b\n1\n");
  EXPECT_THROW(read_table_csv(ragged), std::invalid_argument);
  std::istringstream unterminated("a\n\"open\n");
  EXPECT_THROW(read_table_csv(unterminated), std::invalid_argument);
  std::istringstream empty("");
  EXPECT_THROW(read_table_csv(empty), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scale topologies, churn schedules, and snapshot-dir persistence
// ---------------------------------------------------------------------------

/// Self-cleaning scratch directory for snapshot-dir sweeps.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    char name[] = "/tmp/lr_runner_test_XXXXXX";
    if (::mkdtemp(name) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = name;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(RunSpecTest, ScaleTopologyTokensRoundTrip) {
  for (const TopologyKind kind :
       {TopologyKind::kTorus, TopologyKind::kWideRandom, TopologyKind::kWaypoint}) {
    EXPECT_EQ(parse_topology(topology_token(kind)), kind);
  }
}

TEST(SweepSpecTest, ChurnEventsRoundTripsThroughFormatAndStampsRuns) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = waypoint\n"
      "size = 32\n"
      "algorithm = tora\n"
      "churn_events = 24\n"
      "seed = 1, 2\n");
  EXPECT_EQ(spec.churn_events, 24u);
  for (const RunSpec& run : spec.expand()) EXPECT_EQ(run.churn_events, 24u);
  const std::string text = format_sweep_spec(spec);
  EXPECT_EQ(SweepSpec::parse_string(text).churn_events, 24u);
  EXPECT_THROW(SweepSpec::parse_string("topology = waypoint\nsize = 8\nalgorithm = tora\n"
                                       "churn_events = 1, 2\n"),
               std::invalid_argument);
}

TEST(RunSpecTest, WaypointChurnScheduleSharesTheStaticInstance) {
  RunSpec spec;
  spec.topology = TopologyKind::kWaypoint;
  spec.size = 64;
  spec.seed = 5;
  spec.churn_events = 40;
  const ChurnInstance churned = make_churn_instance(spec);
  EXPECT_GE(churned.churn.size(), 40u);

  // The schedule draws come strictly after instance construction, so the
  // static part is identical to make_instance at every churn length.
  const Instance static_part = make_instance(spec);
  EXPECT_EQ(churned.instance.graph, static_part.graph);
  EXPECT_EQ(churned.instance.senses, static_part.senses);
  RunSpec longer = spec;
  longer.churn_events = 80;
  const ChurnInstance more = make_churn_instance(longer);
  EXPECT_EQ(more.instance.graph, static_part.graph);
  EXPECT_GE(more.churn.size(), 80u);

  // churn_events = 0 and non-waypoint topologies get empty schedules.
  RunSpec quiet = spec;
  quiet.churn_events = 0;
  EXPECT_TRUE(make_churn_instance(quiet).churn.empty());
  RunSpec torus = spec;
  torus.topology = TopologyKind::kTorus;
  EXPECT_TRUE(make_churn_instance(torus).churn.empty());
}

TEST(SweepCacheTest, ChurnLengthIsPartOfTheKey) {
  SweepCache cache;
  RunSpec spec;
  spec.topology = TopologyKind::kWaypoint;
  spec.size = 32;
  spec.seed = 3;
  spec.churn_events = 16;
  const auto short_schedule = cache.get(spec);
  EXPECT_GE(short_schedule->churn.size(), 16u);
  spec.churn_events = 32;
  const auto long_schedule = cache.get(spec);
  EXPECT_NE(short_schedule.get(), long_schedule.get());
  EXPECT_GE(long_schedule->churn.size(), 32u);
  EXPECT_EQ(cache.stats().misses, 2u);
  // Same static workload underneath, regardless of schedule length.
  EXPECT_EQ(short_schedule->csr.fingerprint(), long_schedule->csr.fingerprint());
}

TEST(SweepCacheTest, SnapshotDirReloadIsByteIdentical) {
  const ScratchDir dir;
  RunSpec spec;
  spec.topology = TopologyKind::kTorus;
  spec.size = 48;
  spec.seed = 9;

  SweepCache writer({}, dir.path);
  const auto generated = writer.get(spec);
  EXPECT_EQ(writer.stats().snapshot_saves, 1u);
  EXPECT_EQ(writer.stats().snapshot_loads, 0u);

  SweepCache reader({}, dir.path);
  const auto reloaded = reader.get(spec);
  EXPECT_EQ(reader.stats().snapshot_loads, 1u);
  // The reload reads the file's sections, which lie back to back (nbr,
  // then edge, then mirror: 2m 4-byte entries each, no padding); separate
  // heap vectors never do.  The Graph reads the same memory as the CSR.
  const CsrGraph& csr = reloaded->csr;
  const std::size_t positions = csr.raw_neighbors().size();
  EXPECT_EQ(static_cast<const void*>(csr.raw_neighbors().data() + positions),
            static_cast<const void*>(csr.raw_edges().data()));
  EXPECT_EQ(static_cast<const void*>(csr.raw_edges().data() + positions),
            static_cast<const void*>(csr.raw_mirrors().data()));
  EXPECT_NE(static_cast<const void*>(generated->csr.raw_neighbors().data() + positions),
            static_cast<const void*>(generated->csr.raw_edges().data()));
  EXPECT_EQ(reloaded->instance.graph.neighbors(0).data(), csr.raw_neighbors().data());
  EXPECT_EQ(reloaded->instance.graph.incident_edges(0).data(), csr.raw_edges().data());
  EXPECT_EQ(reloaded->csr.fingerprint(), generated->csr.fingerprint());
  EXPECT_EQ(reloaded->instance.graph, generated->instance.graph);
  EXPECT_EQ(reloaded->instance.senses, generated->instance.senses);

  // Churn workloads bypass the files entirely (schedules are not
  // persisted) — no saves, no loads.
  RunSpec churny;
  churny.topology = TopologyKind::kWaypoint;
  churny.size = 32;
  churny.seed = 9;
  churny.churn_events = 8;
  SweepCache churn_cache({}, dir.path);
  const auto churned = churn_cache.get(churny);
  EXPECT_GE(churned->churn.size(), 8u);
  EXPECT_EQ(churn_cache.stats().snapshot_saves, 0u);
  EXPECT_EQ(churn_cache.stats().snapshot_loads, 0u);
}

TEST(SweepCacheTest, CachedBadNodeCountMatchesACountOfTheInstance) {
  // FrozenInstance counts the bad nodes once per workload, whether it was
  // generated or reloaded from a snapshot file; the count must be the one
  // count_bad_nodes gives for the instance, which every record reports.
  const ScratchDir dir;
  for (const TopologyKind topology : {TopologyKind::kChain, TopologyKind::kRandom,
                                      TopologyKind::kLayered, TopologyKind::kWideRandom}) {
    RunSpec spec;
    spec.topology = topology;
    spec.size = 200;
    spec.seed = 5;
    const std::size_t expected = count_bad_nodes(make_instance(spec));
    SweepCache writer({}, dir.path);
    const auto generated = writer.get(spec);
    SweepCache reader({}, dir.path);
    const auto reloaded = reader.get(spec);
    ASSERT_EQ(reader.stats().snapshot_loads, 1u) << topology_token(topology);
    EXPECT_EQ(generated->bad_nodes, expected) << topology_token(topology);
    EXPECT_EQ(reloaded->bad_nodes, expected) << topology_token(topology);
    EXPECT_EQ(count_bad_nodes(reloaded->instance), expected) << topology_token(topology);
    spec.algorithm = AlgorithmKind::kOneStepPR;
    EXPECT_EQ(execute_run(spec, &reader).bad_nodes, expected) << topology_token(topology);
  }
  RunSpec chain;
  chain.topology = TopologyKind::kChain;
  chain.size = 200;
  SweepCache cache;
  EXPECT_EQ(cache.get(chain)->bad_nodes, 199u);  // every node but D routes away from it
}

TEST(SweepCacheTest, OlderSnapshotVersionIsRegenerated) {
  const ScratchDir dir;
  RunSpec spec;
  spec.topology = TopologyKind::kWideRandom;
  spec.size = 40;
  spec.seed = 2;
  const std::string path = dir.path + "/widerandom-40-s2.lrsnap";

  SweepCache writer({}, dir.path);
  const auto generated = writer.get(spec);
  ASSERT_EQ(writer.stats().snapshot_saves, 1u);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Stamp the file as each older format version (the u32 after the 8-byte
  // magic); the cache regenerates and rewrites it every time.
  for (std::uint32_t version = 1; version < kSnapshotVersion; ++version) {
    {
      std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(8);
      file.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    EXPECT_THROW(Snapshot::load(path), std::runtime_error) << "version " << version;

    SweepCache reader({}, dir.path);
    const auto regenerated = reader.get(spec);
    EXPECT_EQ(reader.stats().snapshot_loads, 0u) << "version " << version;
    EXPECT_EQ(reader.stats().snapshot_saves, 1u) << "version " << version;
    EXPECT_EQ(regenerated->csr.fingerprint(), generated->csr.fingerprint());
    EXPECT_EQ(Snapshot::load(path).csr().fingerprint(), generated->csr.fingerprint());
  }
}

TEST(SweepCacheTest, FreezesTheCsrOnlyForWorkloadsThatReadIt) {
  RunSpec spec;
  spec.topology = TopologyKind::kWaypoint;
  spec.size = 64;
  spec.seed = 3;
  spec.churn_events = 4;
  const auto with = [&spec](AlgorithmKind algorithm) {
    RunSpec run = spec;
    run.algorithm = algorithm;
    return run;
  };
  const Instance fresh = make_instance(spec);
  const std::uint64_t expected = CsrGraph(fresh.graph, fresh.senses).fingerprint();
  const auto expect_frozen = [expected](const FrozenInstance& frozen, const std::string& context) {
    EXPECT_TRUE(frozen.has_csr) << context;
    EXPECT_EQ(frozen.csr.fingerprint(), expected) << context;
  };
  const std::vector<RunSpec> skippers = {
      with(AlgorithmKind::kTora),  with(AlgorithmKind::kService), with(AlgorithmKind::kSimRPrime),
      with(AlgorithmKind::kSimR),  with(AlgorithmKind::kSimRRev), with(AlgorithmKind::kHybrid)};

  // A workload whose planned runs all read the instance alone: no freeze.
  SweepCache skipping(skippers);
  const auto bare = skipping.get(skippers.front());
  EXPECT_FALSE(bare->has_csr);
  EXPECT_EQ(bare->csr.num_nodes(), 0u);
  EXPECT_EQ(bare->instance.graph, fresh.graph);
  EXPECT_GE(bare->churn.size(), spec.churn_events);

  // One CSR reader among the planned runs is enough.
  for (const AlgorithmKind reader :
       {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR,
        AlgorithmKind::kDistFR, AlgorithmKind::kDistPR}) {
    std::vector<RunSpec> plan = skippers;
    plan.push_back(with(reader));
    SweepCache cache(plan);
    expect_frozen(*cache.get(skippers.front()), algorithm_token(reader));
  }

  // An unplanned cache, and a key outside the plan, always freeze.
  SweepCache unplanned;
  expect_frozen(*unplanned.get(with(AlgorithmKind::kTora)), "unplanned cache");
  RunSpec other = with(AlgorithmKind::kTora);
  other.seed = 4;
  SweepCache outside({other});
  expect_frozen(*outside.get(with(AlgorithmKind::kTora)), "key outside the plan");

  // A snapshot file holds the CSR arrays, so writing one freezes; reading
  // one binds them.  Churn workloads write no file.
  const ScratchDir dir;
  RunSpec still = with(AlgorithmKind::kTora);
  still.churn_events = 0;
  SweepCache writer({still}, dir.path);
  expect_frozen(*writer.get(still), "snapshot written");
  EXPECT_EQ(writer.stats().snapshot_saves, 1u);
  SweepCache reader({still}, dir.path);
  expect_frozen(*reader.get(still), "snapshot read");
  EXPECT_EQ(reader.stats().snapshot_loads, 1u);
  SweepCache churn_dir(skippers, dir.path);
  EXPECT_FALSE(churn_dir.get(skippers.front())->has_csr);
  EXPECT_EQ(churn_dir.stats().snapshot_saves, 0u);
}

TEST(ScenarioRunnerTest, SnapshotDirSweepTablesAreByteIdentical) {
  const ScratchDir dir;
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = torus, widerandom\n"
      "size = 48\n"
      "algorithm = fr, pr\n"
      "seed = 1, 2\n");

  const SweepReport plain = ScenarioRunner({.threads = 1}).run(spec);
  const SweepReport cold = ScenarioRunner({.threads = 1, .snapshot_dir = dir.path}).run(spec);
  const SweepReport warm = ScenarioRunner({.threads = 1, .snapshot_dir = dir.path}).run(spec);

  std::ostringstream p, c, w;
  write_table_csv(p, plain.records_table());
  write_table_csv(c, cold.records_table());
  write_table_csv(w, warm.records_table());
  EXPECT_EQ(p.str(), c.str());
  EXPECT_EQ(p.str(), w.str());

  // The cold pass generated and persisted every workload; the warm pass
  // served every miss from the files.
  EXPECT_EQ(cold.cache.snapshot_loads, 0u);
  EXPECT_GT(cold.cache.snapshot_saves, 0u);
  EXPECT_EQ(warm.cache.snapshot_loads, warm.cache.misses);
  EXPECT_GT(warm.cache.snapshot_loads, 0u);
}

TEST(ReportTableTest, SweepRecordsRoundTripThroughCsv) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\n"
      "size = 8\n"
      "algorithm = fr, pr, newpr\n"
      "seed = 1, 2\n");
  const SweepReport report = ScenarioRunner({.threads = 2}).run(spec);
  const Table records = report.records_table();
  ASSERT_EQ(records.rows.size(), 6u);
  std::ostringstream os;
  write_table_csv(os, records);
  std::istringstream is(os.str());
  EXPECT_EQ(read_table_csv(is), records);
}

}  // namespace
}  // namespace lr
