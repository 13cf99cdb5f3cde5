#pragma once

#include <cstdint>
#include <list>
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
  /// `count_bad_nodes(instance)`, counted once when the workload is
  /// generated or reloaded rather than once per run.
  std::uint64_t bad_nodes = 0;
  /// The churn schedule of a waypoint workload with churn_events > 0;
  /// empty otherwise (see RunSpec::churn_events).
  std::vector<LinkEvent> churn;
};

/// Thread-safe cache of (topology, size, seed) -> FrozenInstance shared by
/// the runs of one sweep.
///
/// `RunSpec::instance_seed()` is algorithm- and scheduler-independent by
/// design, so every kernel of a sweep measures the same instances; without
/// a cache each run still *regenerates* its instance and re-freezes the
/// CSR snapshot.  A ScenarioRunner gives each sweep a cache so that work
/// happens once per (topology, size, seed) on the CSR path
/// (docs/PERFORMANCE.md measures the effect).  Results are unaffected by
/// construction — generation is deterministic in the key, so a hit returns
/// byte-identical data to a rebuild, and an *evicted* entry is simply
/// regenerated on its next use.
///
/// Memory bound: by default entries live until the cache dies with its
/// sweep, but very large topology×size×seed products can pin every
/// distinct workload at once; construct with `max_entries > 0` to keep an
/// LRU bound instead.  Eviction only drops the cache's own reference —
/// runs still holding the shared_ptr keep their snapshot alive.
class SweepCache {
 public:
  /// Unbounded cache (the historical default).
  SweepCache() = default;

  /// Cache holding at most `max_entries` workloads, evicting the least
  /// recently used beyond that; 0 means unbounded.
  explicit SweepCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// Same, additionally backed by a directory of mmap snapshot files
  /// (graph/snapshot.hpp): an in-memory miss on a churn-free workload
  /// first tries `<snapshot_dir>/<topology>-<size>-s<seed>.lrsnap` — a
  /// zero-fixup reload whose pages the kernel shares across every sweep
  /// worker process mapping the same file — and falls back to generating
  /// (then persisting) on a missing or invalid file, including a file of
  /// an older format version.  Results
  /// are byte-identical either way: the file stores exactly the arrays a
  /// fresh generation would produce, checksum-verified on load.  An empty
  /// dir (the default) disables persistence.  The directory is created if
  /// absent.  Workloads with a churn schedule bypass the files (schedules
  /// are not persisted) but still key on churn_events so they can never
  /// alias a static workload.
  SweepCache(std::size_t max_entries, std::string snapshot_dir);

  /// Returns the frozen workload of `spec`'s (topology, size, seed,
  /// churn_events), generating and freezing it on first use.  Concurrent
  /// misses on the same key may build duplicates; exactly one wins the
  /// map slot and the others are discarded, so callers always share one
  /// snapshot.
  std::shared_ptr<const FrozenInstance> get(const RunSpec& spec);

  /// Number of distinct workloads currently cached.
  std::size_t entries() const;

  /// get() calls served from the cache.
  std::uint64_t hits() const;

  /// get() calls that generated (or raced to generate) the workload.
  std::uint64_t misses() const;

  /// Workloads dropped by the LRU bound (0 for an unbounded cache).
  std::uint64_t evictions() const;

  /// Misses served by mmap-reloading a snapshot file instead of
  /// generating (snapshot_dir mode only).
  std::uint64_t snapshot_loads() const;

  /// Generated workloads persisted as snapshot files (snapshot_dir mode
  /// only; save failures are non-fatal and simply do not count).
  std::uint64_t snapshot_saves() const;

  /// The configured LRU bound (0 = unbounded).
  std::size_t max_entries() const noexcept { return max_entries_; }

  /// The snapshot directory (empty = persistence disabled).
  const std::string& snapshot_dir() const noexcept { return snapshot_dir_; }

 private:
  using Key = std::tuple<TopologyKind, std::size_t, std::uint64_t, std::size_t>;
  struct Entry {
    std::shared_ptr<const FrozenInstance> frozen;  ///< the shared workload
    std::list<Key>::iterator lru_position;         ///< this entry in lru_
  };

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< most recently used first
  std::size_t max_entries_ = 0;
  std::string snapshot_dir_;  ///< empty = no snapshot files
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t snapshot_loads_ = 0;
  std::uint64_t snapshot_saves_ = 0;
};

/// Per-worker cache of the ThreadPools a run's sharded kernels borrow —
/// the engine's greedy rounds (`engine_threads`) and the network's
/// sharded event loop (`sim_threads`).  Historically every such run
/// spawned and joined a short-lived pool; a sweep worker now keeps one
/// pool per requested size alive across all the runs it claims, so the
/// spawn cost is paid once per (worker, size) instead of once per run.
/// Records are byte-identical either way (pools carry no run state).
///
/// NOT thread-safe: each ScenarioRunner worker owns a private cache, and
/// standalone callers may hold a local one next to their execute_run loop.
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
/// the A/B harness compares against), and its sharded kernels borrow
/// their pools from `pools` when one is given (else they spawn
/// short-lived pools when the spec asks for parallelism that looks worth
/// the spawn).  Records are byte-identical with and without either.
RunRecord execute_run(const RunSpec& spec, SweepCache* cache = nullptr,
                      WorkerPoolCache* pools = nullptr);

/// Counters of the SweepCache one sweep ran over, surfaced so callers
/// (e.g. `lr_cli sweep`) can report cache effectiveness next to timing.
struct SweepCacheStats {
  std::size_t entries = 0;       ///< distinct workloads resident at sweep end
  std::uint64_t hits = 0;        ///< get() calls served from the cache
  std::uint64_t misses = 0;      ///< get() calls that generated or reloaded the workload
  std::uint64_t evictions = 0;   ///< workloads dropped by the LRU bound
  /// Misses served by mmap snapshot reloads / workloads persisted as
  /// snapshot files (snapshot_dir mode; a sharded sweep sums its
  /// workers' counters, like the four above).
  std::uint64_t snapshot_loads = 0;
  std::uint64_t snapshot_saves = 0;
};

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

  /// LRU bound of the per-sweep SweepCache (0 = unbounded, the default).
  /// Purely a memory knob: records are byte-identical at every value.
  std::size_t cache_max_entries = 0;

  /// Worker *processes* of a sharded sweep (make_shard_coordinator in
  /// runner/shard_coordinator.hpp): 0 = in-process execution on this
  /// runner's thread pool (the default), N >= 1 = shard the expanded run
  /// list across N shared-nothing `sweep-worker` child processes (clamped
  /// to the run count).  Like `threads`, a pure deployment knob: the
  /// merged tables are byte-identical at every value by construction.
  std::size_t process_workers = 0;

  /// How many times a crashed / unresponsive / protocol-violating
  /// worker's shard is retried before the whole sweep fails loudly
  /// (sharded sweeps only).  Total attempts per shard is
  /// 1 + worker_retries.
  std::size_t worker_retries = 2;

  /// Inactivity watchdog per worker in milliseconds: a worker that sends
  /// no frame for this long — not even the heartbeats it sends while a
  /// long run computes — is presumed unresponsive, aborted, and retried
  /// (sharded sweeps only).  The LR_TEST_WORKER_TIMEOUT_MS environment
  /// variable overrides it (test hook for the stall-fault battery).
  int worker_timeout_ms = 30'000;

  /// Directory of mmap-backed instance snapshot files shared by the
  /// sweep's caches (see SweepCache's snapshot_dir constructor); empty =
  /// disabled.  With process_workers > 0 the shard request carries the
  /// directory to every `sweep-worker` child, so all shards mmap the same
  /// files and the kernel shares one physical copy of each workload's
  /// pages across the whole worker fleet.  Purely a performance knob:
  /// tables are byte-identical with and without it.
  std::string snapshot_dir;
};

/// Executes sweeps on a fixed-size `ThreadPool` (runner/thread_pool.hpp,
/// the pool the reversal engine's sharded greedy rounds share).
///
/// Work distribution is an atomic cursor over the expanded run list, so
/// threads self-balance across runs of very different cost; determinism is
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
  /// records are returned in input order.  The runs share one SweepCache,
  /// so CSR-path kernels over the same (topology, size, seed) reuse one
  /// frozen instance instead of regenerating it per kernel.
  std::vector<RunRecord> run_all(const std::vector<RunSpec>& specs) const;

  /// run_all() over an externally owned cache (reported through `run()`'s
  /// SweepReport::cache); the building block the two calls above share.
  std::vector<RunRecord> run_all(const std::vector<RunSpec>& specs, SweepCache& cache) const;

 private:
  std::size_t cache_max_entries_;
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
