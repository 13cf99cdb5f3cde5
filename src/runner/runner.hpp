#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "graph/csr.hpp"
#include "graph/snapshot.hpp"
#include "runner/scenario.hpp"
#include "runner/thread_pool.hpp"
#include "trace/report.hpp"

/// \file runner.hpp
/// The parallel scenario-sweep engine (docs/ARCHITECTURE.md, runner
/// layer): executes the runs a SweepSpec expands to on a fixed-size
/// std::thread pool and aggregates work / rounds / social cost /
/// relation-check verdicts into trace-layer Tables (CSV/JSON).
///
/// Determinism contract: every run derives its RNG streams from its
/// RunSpec alone (scenario.hpp), records land at their expansion index,
/// and aggregation is a serial pass over that vector — so record and
/// aggregate tables are byte-identical across thread counts.  The
/// single-run path (run_one) is the same code the `lr_cli run` subcommand
/// and the retargeted experiment harnesses (bench_e2/e3/e5) execute, so
/// swept and standalone measurements cannot drift apart.

namespace lr {

/// Verdict of the per-run simulation-relation check (sim-* kernels).
enum class RelationVerdict : std::uint8_t {
  kNotChecked,  ///< kernel does not check a relation
  kHolds,       ///< every check of check_forward_simulation passed:
                ///< exact when both automata write only inside the
                ///< fired footprint; a stray write outside it is caught
                ///< only if it lasts until the next full check
  kViolated,    ///< relation (or an abstract precondition) failed
};

/// Record-table token of a verdict ("-", "ok", "violated").
const char* relation_verdict_token(RelationVerdict verdict);

/// Everything one run produced.  Semantics of the generic counters per
/// kernel family are spelled out in docs/EXPERIMENTS.md; in brief:
/// `work` is node reversal steps for automaton kernels (the game's social
/// cost), concrete steps for sim-* kernels, and maintenance reversal steps
/// for tora; `rounds` is greedy rounds for fr/pr and resync rounds for
/// dist-*; `messages` counts network sends for dist-* and delivered
/// packets for tora.
struct RunRecord {
  RunSpec spec;                       ///< the scenario that was run
  std::uint64_t run_seed = 0;         ///< realized instance-stream seed
  std::uint64_t nodes = 0;            ///< realized instance node count
  std::uint64_t bad_nodes = 0;        ///< initial n_b of the instance
  std::uint64_t work = 0;             ///< node reversal / concrete steps
  std::uint64_t edge_reversals = 0;   ///< single-edge flips
  std::uint64_t rounds = 0;           ///< greedy or resync rounds
  std::uint64_t dummy_steps = 0;      ///< NewPR dummy actions
  std::uint64_t abstract_steps = 0;   ///< abstract actions (sim-* kernels)
  std::uint64_t messages = 0;         ///< network messages / packets
  bool converged = false;             ///< reached the kernel's goal state
  RelationVerdict relation = RelationVerdict::kNotChecked;  ///< sim-* verdict
  std::string error;                  ///< non-empty iff the run threw
};

/// A workload generated once and frozen for reuse across every kernel of a
/// sweep: the instance plus the CSR form of its graph and initial
/// orientation (the execution form the engine, the sim layer, and the
/// network all consume).  `csr` shares `instance.graph`'s adjacency arrays;
/// for a workload reloaded from a snapshot file both read the mapping,
/// which lives as long as either does.
struct FrozenInstance {
  Instance instance;  ///< the generated (or reloaded) workload
  CsrGraph csr;       ///< CSR form of instance.graph + instance.senses
  /// True iff `csr` holds the freeze.  A SweepCache leaves it empty for a
  /// workload whose planned runs all skip the CSR (see SweepCache).
  bool has_csr = false;
  /// `count_bad_nodes(instance)`, counted once when the workload is
  /// generated or reloaded rather than once per run.
  std::uint64_t bad_nodes = 0;
  /// The churn schedule of a waypoint workload with churn_events > 0;
  /// empty otherwise (see RunSpec::churn_events).
  std::vector<LinkEvent> churn;
};

/// The workload a run measures: (topology, size, seed, churn_events), the
/// only fields its instance and churn schedule depend on.
using WorkloadKey = std::tuple<TopologyKind, std::size_t, std::uint64_t, std::size_t>;

/// The key of `spec`'s workload; the one place the key is spelled.
WorkloadKey workload_key(const RunSpec& spec);

/// Groups a run list by workload, the unit a sweep schedules, caches and
/// shards: one list of run indexes per distinct workload_key(), workloads
/// in order of first appearance, each workload's runs in list order.
std::vector<std::vector<std::size_t>> group_by_workload(const std::vector<RunSpec>& runs);

/// Counters of a SweepCache, reported next to a sweep's timing (a sharded
/// sweep sums its workers').
struct SweepCacheStats {
  std::size_t peak_entries = 0;  ///< most workloads the cache held at once
  std::uint64_t hits = 0;        ///< get() calls served from the cache or a build in flight
  std::uint64_t misses = 0;      ///< get() calls that generated or reloaded the workload
  /// Misses served by mmap snapshot reloads / workloads persisted as
  /// snapshot files (snapshot_dir mode only).
  std::uint64_t snapshot_loads = 0;
  std::uint64_t snapshot_saves = 0;
};

/// Thread-safe cache of workload_key() -> FrozenInstance shared by the runs
/// of one sweep, so the CSR path generates and freezes each workload once
/// instead of once per kernel (docs/PERFORMANCE.md measures the effect).
/// Results are unaffected by construction: generation is deterministic in
/// the key, so a hit returns byte-identical data to a rebuild.
///
/// get() is single-flight: the first caller of a key builds it outside
/// the lock, concurrent callers of that key wait for that build, and a
/// build that throws throws in every one of them.
///
/// A planned cache is built over the runs it will serve and holds each
/// workload only while those runs need it: every run of the plan makes
/// one get(), and the last planned get() of a key drops the cache's
/// reference (the runs still holding the shared_ptr keep the workload
/// alive until they finish).  Keys outside the plan, and every key of an
/// unplanned cache, stay until the cache dies.
///
/// The plan also decides the CSR freeze: a planned workload is frozen
/// only if one of its planned runs reads the CSR (fr, pr, newpr, dist-fr,
/// dist-pr) or a snapshot file is written for it.  tora, service, hybrid
/// and sim-* runs read the instance alone.  A key outside the plan is
/// always frozen.  `FrozenInstance::has_csr` tells which happened.
class SweepCache {
 public:
  /// A cache planned over `runs` (none: an unplanned cache), optionally
  /// backed by a directory of mmap snapshot files (graph/snapshot.hpp,
  /// created if absent): a miss on a churn-free workload first tries
  /// `<snapshot_dir>/<topology>-<size>-s<seed>.lrsnap`, a zero-fixup
  /// reload whose pages every worker process mapping the file shares, and
  /// generates (then persists) on a missing or invalid file.  The file
  /// holds exactly the arrays a generation produces, checksum-verified on
  /// load, so results are byte-identical either way.  Churn workloads
  /// bypass the files (schedules are not persisted).
  explicit SweepCache(const std::vector<RunSpec>& runs = {}, std::string snapshot_dir = {});

  /// Returns the frozen workload of `spec`, generating and freezing it on
  /// first use (see the class comment for waiting and dropping).
  std::shared_ptr<const FrozenInstance> get(const RunSpec& spec);

  /// The cache's counters so far.
  SweepCacheStats stats() const;

 private:
  /// One build, shared by every get() of its key.
  using Build = std::shared_future<std::shared_ptr<const FrozenInstance>>;

  /// What the plan says of one workload.
  struct Plan {
    std::size_t gets = 0;    ///< planned get() calls still to come
    bool reads_csr = false;  ///< some planned run's kernel reads the CSR
  };

  /// Generates or reloads `spec`'s workload (outside the lock), freezing
  /// its CSR when `freeze` is set or a snapshot file is written.
  std::shared_ptr<const FrozenInstance> build(const RunSpec& spec, bool freeze);

  mutable std::mutex mutex_;
  std::map<WorkloadKey, Build> entries_;
  std::map<WorkloadKey, Plan> plan_;  ///< planned workloads not yet fully served
  std::string snapshot_dir_;  ///< empty = no snapshot files
  SweepCacheStats stats_;
};

/// Per-worker cache of the ThreadPools a run's sharded kernels borrow —
/// the engine's greedy rounds (`engine_threads`) and the network's
/// sharded event loop (`sim_threads`).  A sweep worker keeps one pool per
/// requested size alive across all the runs it claims, so the spawn cost
/// is paid once per (worker, size).  Records are byte-identical either way
/// (pools carry no run state).
///
/// NOT thread-safe: each ScenarioRunner worker owns a private cache, and
/// execute_run makes a local one when its caller passes none.
class WorkerPoolCache {
 public:
  /// The cached pool of `threads` logical workers (0 = hardware
  /// concurrency), spawned on first use.  Borrowed, never owned, by the
  /// run: the pool outlives the call and is reused by the next run that
  /// requests the same size.
  ThreadPool* get(std::size_t threads);

 private:
  std::vector<std::pair<std::size_t, std::unique_ptr<ThreadPool>>> pools_;
};

/// Executes one RunSpec synchronously and returns its record.  Exceptions
/// become RunRecord::error instead of propagating, so one failing scenario
/// cannot take down a sweep.  This is the shared single-run code path.
///
/// A CSR-path run draws its workload from `cache` when one is given (the
/// legacy path regenerates per run, preserving the historical cost model
/// the A/B harness compares against).  Its sharded kernels borrow their
/// pools from `pools`, or from a WorkerPoolCache local to the call when
/// none is given.  Records are byte-identical with and without either.
RunRecord execute_run(const RunSpec& spec, SweepCache* cache = nullptr,
                      WorkerPoolCache* pools = nullptr);

/// A finished sweep: per-run records in expansion order plus table views.
struct SweepReport {
  std::vector<RunRecord> records;  ///< one record per expanded RunSpec
  SweepCacheStats cache;           ///< the sweep's shared-cache counters

  /// Per-run table, one row per record in expansion order.  Columns:
  /// topology,size,algorithm,scheduler,seed,run_seed,nodes,bad_nodes,
  /// work,edge_reversals,rounds,dummy_steps,abstract_steps,messages,
  /// converged,relation,status.
  Table records_table() const;

  /// Aggregate table grouped by (topology, size, algorithm, scheduler)
  /// over the seed axis, rows in first-appearance (= expansion) order.
  /// Columns: topology,size,algorithm,scheduler,runs,errors,converged,
  /// work_total,work_mean,work_min,work_max,edge_reversals_mean,
  /// rounds_mean,relation_checked,relation_ok.
  Table aggregate_table() const;
};

/// Configuration of a ScenarioRunner.
struct RunnerOptions {
  /// Worker threads in the pool; 0 means std::thread::hardware_concurrency
  /// (at least 1).  Results are identical for every value by construction.
  std::size_t threads = 0;

  /// Worker *processes* of a sharded sweep (make_shard_coordinator in
  /// runner/shard_coordinator.hpp): 0 = in-process execution on this
  /// runner's thread pool (the default), N >= 1 = shard the expanded run
  /// list across N shared-nothing `sweep-worker` child processes, which
  /// claim its workloads on demand (at most one process per claim).
  /// Like `threads`, a pure deployment knob: the merged tables are
  /// byte-identical at every value by construction.
  std::size_t process_workers = 0;

  /// How many times the claim a crashed / unresponsive /
  /// protocol-violating worker was serving is retried before the whole
  /// sweep fails loudly (sharded sweeps only).  Total attempts per claim
  /// is 1 + worker_retries.
  std::size_t worker_retries = 2;

  /// Inactivity watchdog per worker in milliseconds: a worker that sends
  /// no frame for this long — not even the heartbeats it sends while a
  /// long run computes — is presumed unresponsive, aborted, and retried
  /// (sharded sweeps only).  The LR_TEST_WORKER_TIMEOUT_MS environment
  /// variable overrides it (test hook for the stall-fault battery).
  int worker_timeout_ms = 30'000;

  /// Directory of mmap-backed instance snapshot files shared by the
  /// sweep's caches (see SweepCache's snapshot_dir constructor); empty =
  /// disabled.  With process_workers > 0 the session request carries the
  /// directory to every `sweep-worker` child, so all workers mmap the
  /// same files and the kernel shares one physical copy of each
  /// workload's pages across the whole worker fleet.  Purely a performance knob:
  /// tables are byte-identical with and without it.
  std::string snapshot_dir;
};

/// Executes sweeps on a fixed-size `ThreadPool` (runner/thread_pool.hpp,
/// the pool the reversal engine's sharded greedy rounds share).
///
/// Workers claim whole workloads (group_by_workload) in order, and a
/// worker that finds none left takes the unclaimed runs of the workloads
/// still in progress.  Distinct workloads thus build in parallel, and a
/// sweep holds at most threads() workloads at once.  Determinism is
/// unaffected because records are written to their expansion slot and
/// never depend on claim order.
class ScenarioRunner {
 public:
  /// Creates a runner; see RunnerOptions for the thread-count rule.  The
  /// pool is spawned once here and reused by every run()/run_all() call.
  explicit ScenarioRunner(RunnerOptions options = {});

  /// The resolved worker-thread count (>= 1).
  std::size_t threads() const noexcept { return pool_.size(); }

  /// Expands `spec` and executes every run; returns the full report
  /// (records plus the sweep's cache counters).
  SweepReport run(const SweepSpec& spec) const;

  /// Executes an explicit run list (already expanded or hand-built);
  /// records are returned in input order.  The runs share one SweepCache
  /// planned over them, so CSR-path kernels over the same workload reuse
  /// one frozen instance instead of regenerating it per kernel.
  std::vector<RunRecord> run_all(const std::vector<RunSpec>& specs) const;

  /// run_all() over an externally owned cache (reported through `run()`'s
  /// SweepReport::cache); the building block the two calls above share.
  /// A cache planned over more runs than `specs` (a worker session's
  /// claim, across its chunks) keeps what the later runs need.
  std::vector<RunRecord> run_all(const std::vector<RunSpec>& specs, SweepCache& cache) const;

 private:
  std::string snapshot_dir_;  ///< forwarded to the caches run()/run_all() build
  /// Serializes dispatches onto the shared pool: a ThreadPool runs one
  /// fork/join job at a time, and the historical spawn-per-call runner was
  /// safe to share across caller threads, so concurrent run()/run_all()
  /// calls on one runner must stay legal — they now queue on this lock
  /// (results are unaffected; only their wall clocks overlap less).
  mutable std::mutex dispatch_mutex_;
  /// The worker pool; mutable because dispatching jobs mutates pool state
  /// while a runner stays logically const (results are state-independent).
  mutable ThreadPool pool_;
  /// One sharded-kernel pool cache per worker (indexed by the pool's
  /// worker id), so runs claimed by the same worker reuse its pools.
  /// Safe without locks: dispatches are serialized by dispatch_mutex_ and
  /// each worker touches only its own slot.
  mutable std::vector<WorkerPoolCache> worker_pools_;
};

}  // namespace lr
