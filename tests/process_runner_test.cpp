#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_coordinator.hpp"
#include "runner/shard_protocol.hpp"
#include "runner/shard_server.hpp"
#include "trace/report.hpp"

/// Acceptance battery of sharded sweeps on local worker processes
/// (make_shard_coordinator with process_workers and no hosts): the claim
/// plan, spec round-trip, byte-identical merges at every worker count
/// (including sweeps that exercise the engine / sim parallelism knobs and
/// a shared snapshot dir), and the fault-injection battery — a worker
/// killed at a frame boundary or mid-frame, or gone silent, must recover
/// via a retry of the claim it was serving with identical tables, and an
/// unrecoverable fault must fail loudly with per-claim diagnostics, never
/// hang or drop runs.  Faults come from the LR_TEST_TRANSPORT_FAULT knob, which wraps
/// the process transport like any other (the TCP side of the battery is
/// tests/multi_host_runner_test.cpp).
///
/// The test binary is its own sweep worker: main() below forwards a
/// `sweep-worker` argv[1] straight to sweep_worker_main(), which is the
/// same self-hosting arrangement lr_cli and bench_e7 use.

namespace lr {
namespace {

/// RAII setenv/unsetenv so a failing test cannot leak fault knobs into
/// its neighbours.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// The byte string the determinism contract is stated over: records CSV,
/// aggregate CSV, and records JSON concatenated.
std::string tables_of(const SweepReport& report) {
  std::ostringstream os;
  write_table_csv(os, report.records_table());
  write_table_csv(os, report.aggregate_table());
  write_table_json(os, report.records_table());
  return os.str();
}

/// A small but heterogeneous sweep: 24 runs over two topologies and
/// three kernels, enough to spread non-trivially over up to 8 shards.
SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {8, 12};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kTora};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};
  sweep.max_steps = 200'000;
  return sweep;
}

/// A sweep through the distributed kernels with every parallelism knob
/// turned: wheel scheduler, sharded sim loop, parallel engine rounds.
/// Multi-process merges must stay byte-identical to the in-process run
/// even when the workers themselves are internally parallel.
SweepSpec parallel_knobs_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain};
  sweep.sizes = {8, 10};
  sweep.algorithms = {AlgorithmKind::kDistFR, AlgorithmKind::kDistPR,
                      AlgorithmKind::kNewPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kRandom};
  sweep.seeds = {3};
  sweep.max_steps = 200'000;
  sweep.sim_scheduler = EventSchedulerKind::kWheel;
  sweep.sim_threads = 2;
  sweep.engine_threads = 2;
  return sweep;
}

std::string in_process_tables(const SweepSpec& sweep) {
  const ScenarioRunner runner({.threads = 1});
  return tables_of(runner.run(sweep));
}

TEST(ShardRanges, PartitionIsContiguousBalancedAndComplete) {
  for (const std::size_t runs : {0u, 1u, 7u, 24u, 100u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 150u}) {
      const auto ranges = shard_ranges(runs, shards);
      if (runs == 0) {
        EXPECT_TRUE(ranges.empty());
        continue;
      }
      // Clamped: never more shards than runs, never an empty shard.
      EXPECT_EQ(ranges.size(), std::min(runs, shards));
      std::size_t cursor = 0;
      std::size_t smallest = runs, largest = 0;
      for (const ShardRange& range : ranges) {
        EXPECT_EQ(range.begin, cursor);  // contiguous, in order
        EXPECT_GT(range.size(), 0u);
        smallest = std::min(smallest, range.size());
        largest = std::max(largest, range.size());
        cursor = range.end;
      }
      EXPECT_EQ(cursor, runs);             // complete coverage
      EXPECT_LE(largest - smallest, 1u);   // maximally balanced
      // Deterministic: same inputs, same partition.
      EXPECT_EQ(shard_ranges(runs, shards), ranges);
    }
  }
}

/// The shard-fanout campaign of perfbench: 90 workloads of 8 runs.
SweepSpec fanout_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kRandom, TopologyKind::kGrid, TopologyKind::kChain};
  sweep.sizes = {256};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kNewPR, AlgorithmKind::kDistPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kRandom};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) sweep.seeds.push_back(seed);
  return sweep;
}

TEST(ClaimPlan, CoversTheWorkloadOrderOnceInWholeNonIncreasingClaims) {
  SweepSpec five_seeds = small_sweep();
  five_seeds.seeds = {1, 2, 3, 4, 5};
  for (const SweepSpec& sweep : {small_sweep(), five_seeds, fanout_sweep()}) {
    const std::vector<RunSpec> runs = sweep.expand();
    const std::vector<std::size_t> order = workload_order(runs);
    const std::size_t workloads = group_by_workload(runs).size();
    for (std::size_t lanes = 1; lanes <= workloads; ++lanes) {
      const std::vector<ShardRange> claims = plan_claims(runs, lanes);
      EXPECT_EQ(plan_claims(runs, lanes), claims) << lanes << " lanes";  // deterministic
      std::size_t cursor = 0;
      std::map<WorkloadKey, std::set<std::size_t>> claims_of;
      for (std::size_t c = 0; c < claims.size(); ++c) {
        EXPECT_EQ(claims[c].begin, cursor) << lanes << " lanes";  // contiguous, in order
        EXPECT_GT(claims[c].size(), 0u);
        if (c > 0) {
          EXPECT_LE(claims[c].size(), claims[c - 1].size()) << lanes << " lanes";
        }
        for (std::size_t position = claims[c].begin; position < claims[c].end; ++position) {
          claims_of[workload_key(runs[order[position]])].insert(c);
        }
        cursor = claims[c].end;
      }
      EXPECT_EQ(cursor, runs.size()) << lanes << " lanes";  // every position, once
      EXPECT_EQ(claims_of.size(), workloads);
      for (const auto& [key, holders] : claims_of) {
        EXPECT_EQ(holders.size(), 1u) << lanes << " lanes: a workload straddles claims";
      }
    }
  }
}

TEST(ClaimPlan, FewerWorkloadsThanLanesFallsBackToEqualCountRanges) {
  // One workload of three runs on three lanes spreads one run per lane;
  // eight three-run workloads on twelve lanes take 2 runs per lane.
  SweepSpec one = small_sweep();
  one.topologies = {TopologyKind::kChain};
  one.sizes = {8};
  one.seeds = {1};
  EXPECT_EQ(plan_claims(one.expand(), 3), shard_ranges(3, 3));
  const std::vector<RunSpec> runs = small_sweep().expand();
  EXPECT_EQ(plan_claims(runs, 12), shard_ranges(runs.size(), 12));
  EXPECT_EQ(plan_claims(runs, 64).size(), runs.size());  // never an empty claim
  EXPECT_TRUE(plan_claims({}, 4).empty());
  EXPECT_TRUE(plan_claims(runs, 0).empty());
}

TEST(ClaimPlan, ShardFanoutOnTwoLanes) {
  // Each claim holds at least ceil(remaining / 4) runs, in whole
  // eight-run workloads.
  const std::vector<std::size_t> expected = {184, 136, 104, 80, 56, 40, 32,
                                             24,  16,  16,  8,  8,  8,  8};
  std::vector<std::size_t> sizes;
  for (const ShardRange& claim : plan_claims(fanout_sweep().expand(), 2)) {
    sizes.push_back(claim.size());
  }
  EXPECT_EQ(sizes, expected);
}

TEST(FormatSweepSpec, RoundTripsThroughTheParser) {
  for (const SweepSpec& sweep : {small_sweep(), parallel_knobs_sweep()}) {
    const std::string text = format_sweep_spec(sweep);
    const SweepSpec reparsed = SweepSpec::parse_string(text);
    // The round-trip contract is stated over the expansion.
    const auto original = sweep.expand();
    const auto recovered = reparsed.expand();
    ASSERT_EQ(recovered.size(), original.size());
    // A second format pass must be a fixed point.
    EXPECT_EQ(format_sweep_spec(reparsed), text);
    // Spot-check the scalars survived.
    EXPECT_EQ(reparsed.sim_scheduler, sweep.sim_scheduler);
    EXPECT_EQ(reparsed.sim_threads, sweep.sim_threads);
    EXPECT_EQ(reparsed.engine_threads, sweep.engine_threads);
    EXPECT_EQ(reparsed.path, sweep.path);
    EXPECT_EQ(reparsed.max_steps, sweep.max_steps);
  }
}

/// The coordinator of a `--processes N` sweep.
ShardCoordinator process_coordinator(RunnerOptions options) {
  return make_shard_coordinator(options, {});
}

TEST(ProcessShardRunner, RejectsZeroWorkers) {
  EXPECT_THROW(process_coordinator({.process_workers = 0}), std::invalid_argument);
}

TEST(ProcessShardRunner, ClampsWorkersToRunCount) {
  ShardCoordinator coordinator = process_coordinator({.threads = 1, .process_workers = 64});
  EXPECT_EQ(coordinator.total_capacity(), 64u);
  SweepSpec sweep = small_sweep();
  sweep.sizes = {8};
  sweep.algorithms = {AlgorithmKind::kFullReversal};
  sweep.seeds = {1, 2, 3};  // 2 topologies x 3 seeds = 6 runs
  coordinator.run(sweep);
  EXPECT_EQ(coordinator.shard_diagnostics().size(), 6u);  // one claim per run
  std::set<std::size_t> sessions;
  for (const ShardDiagnostics& diag : coordinator.shard_diagnostics()) {
    sessions.insert(diag.attempt_log.at(0).session);
  }
  EXPECT_EQ(sessions.size(), 6u);  // one worker per claim, not 64
}

TEST(ProcessShardRunner, TablesAreByteIdenticalAtEveryWorkerCount) {
  const SweepSpec sweep = small_sweep();
  const std::string baseline = in_process_tables(sweep);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ShardCoordinator coordinator = process_coordinator({.threads = 1, .process_workers = workers});
    const SweepReport report = coordinator.run(sweep);
    EXPECT_EQ(tables_of(report), baseline) << workers << " workers";
    // Every shard completed on its first attempt.
    for (const ShardDiagnostics& diag : coordinator.shard_diagnostics()) {
      EXPECT_TRUE(diag.completed);
      EXPECT_EQ(diag.attempts, 1u);
      EXPECT_TRUE(diag.failures.empty());
    }
  }
}

TEST(ProcessShardRunner, ParallelismKnobsDoNotPerturbTheMerge) {
  const SweepSpec sweep = parallel_knobs_sweep();
  const std::string baseline = in_process_tables(sweep);
  for (const std::size_t workers : {2u, 4u}) {
    ShardCoordinator coordinator = process_coordinator({.threads = 2, .process_workers = workers});
    EXPECT_EQ(tables_of(coordinator.run(sweep)), baseline) << workers << " workers";
  }
}

TEST(ProcessShardRunner, EmptySweepYieldsEmptyReport) {
  SweepSpec sweep = small_sweep();
  sweep.seeds.clear();  // run_count() == 0
  ShardCoordinator coordinator = process_coordinator({.process_workers = 4});
  const SweepReport report = coordinator.run(sweep);
  EXPECT_TRUE(report.records.empty());
  EXPECT_TRUE(coordinator.shard_diagnostics().empty());
}

TEST(ProcessShardRunner, MergedCacheStatsCoverEveryRun) {
  const SweepSpec sweep = small_sweep();
  ShardCoordinator coordinator = process_coordinator({.threads = 1, .process_workers = 3});
  const SweepReport report = coordinator.run(sweep);
  // Every CSR-path run consults its worker's cache exactly once, and the
  // coordinator sums the per-worker counters.
  EXPECT_EQ(report.cache.hits + report.cache.misses, sweep.run_count());
  EXPECT_GT(report.cache.misses, 0u);
}

TEST(ProcessShardRunner, WorkersShareTheSnapshotDir) {
  // The request carries snapshot_dir: the first sweep's workers generate
  // and save every workload, the second sweep's workers mmap-reload the
  // same files (a save would replace a file, changing its inode).
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lr_process_snapshots_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  SweepSpec sweep = small_sweep();
  sweep.topologies = {TopologyKind::kTorus, TopologyKind::kRandom};
  const std::string baseline = in_process_tables(sweep);
  const RunnerOptions options{.threads = 1, .process_workers = 3, .snapshot_dir = dir.string()};

  const auto inodes = [&dir] {
    std::vector<std::pair<std::string, ino_t>> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      struct stat info {};
      EXPECT_EQ(::stat(entry.path().c_str(), &info), 0) << entry.path();
      files.emplace_back(entry.path().string(), info.st_ino);
    }
    std::sort(files.begin(), files.end());
    return files;
  };

  // The workers' done frames carry their snapshot counters.  Claims are
  // whole workloads, so the workers miss once per workload, 8 times.  A
  // cold miss generates and saves, or reloads a file another worker saved
  // first; a warm miss always reloads.
  const SweepReport cold = process_coordinator(options).run(sweep);
  EXPECT_EQ(tables_of(cold), baseline);
  EXPECT_EQ(cold.cache.misses, 8u);
  EXPECT_EQ(cold.cache.snapshot_loads + cold.cache.snapshot_saves, cold.cache.misses);
  EXPECT_GE(cold.cache.snapshot_saves, 8u);
  const auto saved = inodes();
  EXPECT_EQ(saved.size(), 8u);  // one file per (topology, size, seed): 2 x 2 x 2
  const SweepReport warm = process_coordinator(options).run(sweep);
  EXPECT_EQ(tables_of(warm), baseline);
  EXPECT_EQ(warm.cache.snapshot_loads, warm.cache.misses);
  EXPECT_EQ(warm.cache.snapshot_saves, 0u);
  EXPECT_EQ(inodes(), saved) << "a warm sweep rewrote a snapshot instead of reloading it";
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fault-injection battery
// ---------------------------------------------------------------------------

/// The LR_TEST_TRANSPORT_FAULT knob standing in for the worker crash a
/// battery case is named after, armed on `shard` for its first `attempts`
/// attempts.  On the process transport `drop` kills the child: with the
/// stream cut right after the hello, a frame boundary (`exit`), mid-record
/// (`segv`), or 8 bytes into the first record (`truncate`).  `hbstall`
/// silences the stream (`stall`).
std::string fault_knob(const std::string& kind, std::size_t shard, std::size_t attempts) {
  const std::size_t hello = encode_frame(HelloFrame{}).size();
  const std::string target = std::to_string(shard) + ":" + std::to_string(attempts);
  if (kind == "exit") return "drop:" + target + ":" + std::to_string(hello);
  if (kind == "segv") return "drop:" + target;
  if (kind == "truncate") return "drop:" + target + ":" + std::to_string(hello + 8);
  return "hbstall:" + target;
}

/// How the coordinator classifies each kind: '|'-separated alternatives
/// (a silenced worker trips the inactivity watchdog, or a beacon write
/// fails first; both are loud and both recover).
const char* expected_failure(const std::string& kind) {
  if (kind == "exit") return "exited before completing its shard";
  if (kind == "stall") return "stalled|heartbeat failed";
  return "truncated mid-frame";
}

bool matches_any(const std::string& text, const std::string& alternatives) {
  std::istringstream tokens(alternatives);
  std::string token;
  while (std::getline(tokens, token, '|')) {
    if (text.find(token) != std::string::npos) return true;
  }
  return false;
}

/// Each fault kind: the sweep must recover on the retry, the merged
/// tables must match the in-process baseline byte for byte, and the
/// diagnostics must record exactly one failed attempt on the faulted
/// claim.
class WorkerFaultRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkerFaultRecovery, RetriesOnceAndMergesIdentically) {
  const std::string kind = GetParam();
  const SweepSpec sweep = small_sweep();
  const std::string baseline = in_process_tables(sweep);

  // Arm the fault on the session claim 2 opens, first attempt only.
  const ScopedEnv fault("LR_TEST_TRANSPORT_FAULT", fault_knob(kind, 2, 1));
  // The stall fault only resolves via the inactivity watchdog; keep the
  // test fast with a short deadline (generous enough for a real frame).
  const ScopedEnv timeout("LR_TEST_WORKER_TIMEOUT_MS", "1500");

  ShardCoordinator coordinator =
      process_coordinator({.threads = 1, .process_workers = 4, .worker_retries = 2});
  const SweepReport report = coordinator.run(sweep);
  EXPECT_EQ(tables_of(report), baseline) << "fault kind " << kind;

  const auto& diagnostics = coordinator.shard_diagnostics();
  ASSERT_EQ(diagnostics.size(), 8u);  // one three-run workload per claim
  for (const ShardDiagnostics& diag : diagnostics) {
    EXPECT_TRUE(diag.completed) << "claim " << diag.shard;
    if (diag.shard == 2) {
      EXPECT_EQ(diag.attempts, 2u);
      ASSERT_EQ(diag.failures.size(), 1u);
      EXPECT_TRUE(matches_any(diag.failures[0], expected_failure(kind))) << diag.failures[0];
    } else {
      EXPECT_EQ(diag.attempts, 1u);
      EXPECT_TRUE(diag.failures.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFaultKinds, WorkerFaultRecovery,
                         ::testing::Values("exit", "segv", "truncate", "stall"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(WorkerFaultExhaustion, BoundedRetriesThenLoudFailure) {
  // Four workloads on four workers: four claims, each opening its own
  // session, so the retry of claim 1 opens one on the lane its failure
  // freed, and the fault, armed per opening claim, fires again.
  SweepSpec sweep = small_sweep();
  sweep.sizes = {8};
  // Fault every attempt (99 >> retry budget) on claim 1.
  const ScopedEnv fault("LR_TEST_TRANSPORT_FAULT", fault_knob("exit", 1, 99));

  ShardCoordinator coordinator =
      process_coordinator({.threads = 1, .process_workers = 4, .worker_retries = 1});
  try {
    coordinator.run(sweep);
    FAIL() << "a claim faulting on every attempt must fail the sweep";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    // The message must name the dead claim and read as diagnostics, not
    // as a generic failure.
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("attempt"), std::string::npos) << what;
  }

  const auto& diagnostics = coordinator.shard_diagnostics();
  ASSERT_EQ(diagnostics.size(), 4u);
  for (const ShardDiagnostics& diag : diagnostics) {
    if (diag.shard == 1) {
      EXPECT_FALSE(diag.completed);
      EXPECT_EQ(diag.attempts, 2u);  // 1 + worker_retries
      EXPECT_EQ(diag.failures.size(), 2u);
    }
  }
}

TEST(WorkerFaultExhaustion, StallFaultNeverHangsTheSweep) {
  const SweepSpec sweep = small_sweep();
  const ScopedEnv fault("LR_TEST_TRANSPORT_FAULT", fault_knob("stall", 0, 99));
  const ScopedEnv timeout("LR_TEST_WORKER_TIMEOUT_MS", "400");
  ShardCoordinator coordinator =
      process_coordinator({.threads = 1, .process_workers = 2, .worker_retries = 1});
  // Two stalled attempts at ~400 ms each: the sweep must fail within the
  // watchdog budget rather than waiting on the silenced workers forever.
  EXPECT_THROW(coordinator.run(sweep), std::runtime_error);
  ASSERT_FALSE(coordinator.shard_diagnostics().empty());
  const ShardDiagnostics& diag = coordinator.shard_diagnostics()[0];
  EXPECT_FALSE(diag.completed);
  ASSERT_EQ(diag.failures.size(), 2u);
  EXPECT_TRUE(matches_any(diag.failures[0], expected_failure("stall"))) << diag.failures[0];
}

TEST(WorkerFaultRecoveryUnderLoad, MidSweepCrashStillMergesByteIdentically) {
  // The determinism-under-crashes acceptance test: a worker killed mid
  // sweep with internally parallel workers must not perturb a single
  // byte of the merged tables.
  const SweepSpec sweep = parallel_knobs_sweep();
  const std::string baseline = in_process_tables(sweep);
  const ScopedEnv fault("LR_TEST_TRANSPORT_FAULT", fault_knob("segv", 0, 1));
  ShardCoordinator coordinator =
      process_coordinator({.threads = 2, .process_workers = 2, .worker_retries = 2});
  EXPECT_EQ(tables_of(coordinator.run(sweep)), baseline);
}

}  // namespace
}  // namespace lr

/// Self-hosting worker dispatch: the process transport fork/execs this
/// very binary (/proc/self/exe) as `<test> sweep-worker`, so forward that
/// argv before gtest sees it.
int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "sweep-worker") {
    return lr::sweep_worker_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
