#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/game.hpp"
#include "graph/generators.hpp"
#include "service/workload.hpp"
#include "sim/time_index.hpp"

/// \file scenario.hpp
/// Declarative scenario-sweep specifications: the input language of the
/// scenario runner (runner.hpp, docs/EXPERIMENTS.md §"Sweep specs").
///
/// A sweep is the cartesian product of five axes — topology family ×
/// instance size × algorithm kernel × scheduler × seed — expanded in a
/// fixed documented order so that run #k means the same scenario on every
/// machine and at every thread count.  Each expanded RunSpec derives its
/// RNG streams (instance construction, scheduler choices, network delays)
/// from the axis values alone via SplitMix64, never from expansion order
/// or wall clock, which is what makes swept executions reproducible and
/// thread-count-invariant (the acceptance property runner_test.cpp locks
/// in).
///
/// The algorithm axis names *measurement kernels* over the paper's
/// artifacts rather than automata alone: the Section 3 automata (FR /
/// OneStepPR / NewPR), the Charron-Bost-style hybrid strategy game, the
/// TORA routing service, the distributed message-passing protocols, and
/// the Section 5 simulation-relation checkers (Lemmas 5.1 / 5.3 and the
/// conclusion's reverse direction).

namespace lr {

/// Topology families the sweep axis can name.  Construction recipes (how
/// `size` maps to generator arguments) live in make_instance() and are
/// documented in docs/EXPERIMENTS.md.
enum class TopologyKind : std::uint8_t {
  kChain,       ///< away-oriented worst-case chain (E2's gadget)
  kRandom,      ///< connected random graph, random acyclic orientation
  kGrid,        ///< size/8+2 rows x 8 columns, random orientation
  kLayered,     ///< layered all-bad instance (E2's second gadget)
  kStar,        ///< alternating star with initial sinks and sources (E4)
  kUnitDisk,    ///< unit-disk MANET instance (the deployment model)
  kTorus,       ///< ~sqrt(size)-sided torus, degree 4 (million-node E10)
  kWideRandom,  ///< wide random connected graph, avg degree 8 (E10)
  kWaypoint,    ///< unit-disk + random-waypoint churn schedule (E10)
};

/// Measurement kernels the sweep axis can name.
enum class AlgorithmKind : std::uint8_t {
  kFullReversal,  ///< FR run to quiescence (Gafni–Bertsekas baseline)
  kOneStepPR,     ///< OneStepPR (paper Algorithm 3) run to quiescence
  kNewPR,         ///< NewPR (paper Algorithm 2) run to quiescence
  kHybrid,        ///< per-node random FR/PR strategy profile (game, E3.4)
  kTora,          ///< TORA-style routing service under link churn
  kDistFR,        ///< distributed FR over the simulated network (E7)
  kDistPR,        ///< distributed PR over the simulated network (E7)
  kSimRPrime,     ///< relation R' checker: PR -> OneStepPR (Lemma 5.1)
  kSimR,          ///< relation R checker: OneStepPR -> NewPR (Lemma 5.3)
  kSimRRev,       ///< reverse relation checker: NewPR -> OneStepPR
  kService,       ///< request-serving harness with latency SLOs (E9)
};

/// Which execution back-end a run uses.
///
/// For the fr/pr/newpr kernels the CSR path batches the whole execution
/// through core/reversal_engine.hpp while the legacy path drives the
/// paper-shaped automata; for the tora and dist-* kernels the CSR path
/// additionally consumes the sweep's cached frozen Instance + CsrGraph
/// snapshot (runner.hpp, SweepCache) while the legacy path regenerates and
/// re-freezes per run.  In every case both paths execute the identical
/// action sequence and fill identical records
/// (tests/reversal_engine_test.cpp, tests/runner_test.cpp), so this is a
/// performance switch, not a semantics switch: record and aggregate tables
/// are byte-identical across paths by design, which is what makes the
/// bench_e2/e5/e7 A/B comparisons meaningful.  The remaining kernels
/// (hybrid, sim-*) have no batched implementation; for them the switch
/// only selects the instance source, which is itself deterministic.
enum class ExecutionPath : std::uint8_t {
  kCsr,     ///< batched CSR kernels + cached frozen snapshots — default
  kLegacy,  ///< paper-shaped automata; per-run instance regeneration
};

/// Spec-file token of an execution path ("csr", "legacy").
const char* path_token(ExecutionPath path);

/// Parses an execution-path token; throws std::invalid_argument when
/// unknown.
ExecutionPath parse_path(const std::string& token);

/// The most threads a spec's engine_threads or sim_threads, or a session
/// request, may ask for, and the most worker processes `lr_cli sweep
/// --processes` accepts.  Larger counts are refused before any pool is
/// sized or worker forked, so no spec file, protocol peer or typo can
/// start millions of threads or processes.
inline constexpr std::size_t kMaxThreads = 256;

/// The nine scalar options of a sweep, declared once: a SweepSpec holds
/// one value of each and stamps it on every RunSpec it expands to, so both
/// derive from this struct.  Every place that names the fields one by one
/// (the spec parser, format_sweep_spec(), spec_digest()) walks them
/// through for_each_scalar() below, and expand() copies this base whole.
///
/// The fields are scalars, not axes, for one of two reasons: a
/// performance switch leaves every record byte-identical at every value
/// (path, engine_threads, sim_scheduler, sim_threads), so sweeping it
/// would only duplicate rows; the rest parameterize a workload rather than
/// name an independent axis (sweep the algorithm axis to compare kernels).
struct SpecScalars {
  /// `max_steps =`: the per-run step/round safety budget.
  std::uint64_t max_steps = 10'000'000;

  /// `path =` (`csr` default, `legacy` for A/B comparison): the execution
  /// back-end (see ExecutionPath).
  ExecutionPath path = ExecutionPath::kCsr;

  /// `engine_threads =`: worker threads of the reversal engine's sharded
  /// greedy-rounds kernel (CSR path, fr/pr kernels only): 1 = serial
  /// (default), 0 = hardware concurrency, N <= kMaxThreads = a pool of N.
  /// The parallel engine is deterministic and byte-identical to the serial
  /// one at every value (tests/reversal_engine_test.cpp).  A converged run reads its
  /// rounds off the single-step run's round clocks, so only runs cut by
  /// max_steps reach the kernel; there a value > 1 borrows a pool per
  /// worker, worth it on large topologies (docs/PERFORMANCE.md measures
  /// torus-2.5e5, whose fr and pr runs the default budget cuts), overhead
  /// on tiny ones.
  std::size_t engine_threads = 1;

  /// `sim_scheduler =` (`heap` default, `wheel`): the event-scheduler
  /// backend of the simulated network's time index (dist-fr / dist-pr
  /// kernels; sim/time_index.hpp).  Pop order, and hence every record, is
  /// byte-identical across backends (tests/sim_test.cpp).
  EventSchedulerKind sim_scheduler = EventSchedulerKind::kHeap;

  /// `sim_threads =`: worker threads of the simulated network's sharded
  /// event loop (dist-fr / dist-pr kernels): 1 = the serial event queue
  /// (default), 0 = hardware concurrency, N <= kMaxThreads = a pool of N
  /// per-node event lanes (sim/sharded_loop.hpp).  Byte-identical to the
  /// serial loop at every value, like engine_threads.  Every other kernel
  /// ignores it (the service harness runs serially).
  std::size_t sim_threads = 1;

  /// `service_workload =` (`mixed` default): the client-request mix of the
  /// service kernel (service/service_harness.hpp); ignored by every other
  /// kernel.
  ServiceWorkload service_workload = ServiceWorkload::kMixed;

  /// `service_clients =` (>= 1): closed-loop client count of the service
  /// kernel.
  std::size_t service_clients = 8;

  /// `service_duration =`: virtual-tick duration of the service kernel's
  /// run.
  std::uint64_t service_duration = 256;

  /// `churn_events =`: minimum length of the churn schedule attached to a
  /// `waypoint` workload (make_churn_instance); 0 = a static instance with
  /// an empty schedule (the default).  The tora kernel replays the
  /// schedule over the dynamic-heights core when it is non-empty; every
  /// other kernel measures the static pre-churn instance.  Part of the
  /// workload identity: SweepCache keys include it so runs with different
  /// churn schedules can never alias one cached instance.
  std::size_t churn_events = 0;
};

/// Calls `visit(key, field)` for each SpecScalars field, in the canonical
/// order, with `key` the field's spec-file name.  The one list of scalar
/// fields: the parser, format_sweep_spec() and spec_digest() walk it
/// instead of naming the fields themselves.
template <typename Scalars, typename Visit>
void for_each_scalar(Scalars& scalars, Visit&& visit) {
  visit("max_steps", scalars.max_steps);
  visit("path", scalars.path);
  visit("engine_threads", scalars.engine_threads);
  visit("sim_scheduler", scalars.sim_scheduler);
  visit("sim_threads", scalars.sim_threads);
  visit("service_workload", scalars.service_workload);
  visit("service_clients", scalars.service_clients);
  visit("service_duration", scalars.service_duration);
  visit("churn_events", scalars.churn_events);
}

/// One fully resolved scenario: a point of the sweep's cartesian product
/// (the five axis values) plus the sweep's scalar options.
struct RunSpec : SpecScalars {
  TopologyKind topology = TopologyKind::kChain;  ///< topology family
  std::size_t size = 8;                          ///< nominal instance size
  AlgorithmKind algorithm = AlgorithmKind::kOneStepPR;  ///< kernel to run
  SchedulerKind scheduler = SchedulerKind::kLowestId;   ///< demon resolving nondeterminism
  std::uint64_t seed = 1;      ///< master seed of this run's RNG streams

  /// Seed of the instance-construction RNG stream.  Depends only on
  /// (topology, size, seed) — *not* on algorithm or scheduler — so all
  /// kernels of one sweep measure the same instances, which is what makes
  /// FR-vs-PR comparisons within a sweep meaningful.
  std::uint64_t instance_seed() const;

  /// Seed of the scheduler RNG stream (random scheduler choices).
  std::uint64_t scheduler_seed() const;

  /// Seed of the network RNG stream (message delays, drops, churn).
  std::uint64_t network_seed() const;
};

/// 64-bit digest of every field of `spec` (the five axes and the nine
/// scalars).  Two specs that differ in any one field have different
/// digests.  A shard worker ships it in each record frame in place of the
/// spec itself; the coordinator compares it with the digest of its own
/// expansion's run (runner/shard_protocol.hpp).
std::uint64_t spec_digest(const RunSpec& spec);

/// SplitMix64 — the seed-derivation hash behind the per-run RNG streams.
std::uint64_t splitmix64(std::uint64_t x);

/// Builds the workload instance a RunSpec describes.  Deterministic in
/// (topology, size, seed); the recipes are fixed sweep-format contract
/// (docs/EXPERIMENTS.md) shared with `lr_cli gen`.
Instance make_instance(const RunSpec& spec);

/// Builds the workload plus its churn schedule: for the `waypoint`
/// topology the schedule holds at least `spec.churn_events` link events
/// (empty when churn_events == 0); for every other topology the schedule
/// is empty and the instance equals make_instance(spec).  The instance is
/// identical to make_instance(spec) in all cases — churn draws consume
/// the RNG stream strictly after instance construction — so cached
/// snapshots of the static part stay byte-identical across churn lengths.
ChurnInstance make_churn_instance(const RunSpec& spec);

// ---------------------------------------------------------------------------
// Axis token names (the sweep-spec file vocabulary)
// ---------------------------------------------------------------------------

/// Spec-file token of a topology family ("chain", "random", ...).
const char* topology_token(TopologyKind kind);

/// Spec-file token of an algorithm kernel ("fr", "pr", "newpr", "hybrid",
/// "tora", "dist-fr", "dist-pr", "sim-rprime", "sim-r", "sim-rrev",
/// "service").
const char* algorithm_token(AlgorithmKind kind);

/// Spec-file token of a scheduler ("lowest", "random", "rr", "farthest"),
/// matching the `lr_cli run` vocabulary.
const char* scheduler_token(SchedulerKind kind);

/// Parses a topology token; throws std::invalid_argument when unknown.
TopologyKind parse_topology(const std::string& token);

/// Parses an algorithm token; throws std::invalid_argument when unknown.
AlgorithmKind parse_algorithm(const std::string& token);

/// Parses a scheduler token; throws std::invalid_argument when unknown.
SchedulerKind parse_scheduler(const std::string& token);

/// A declarative sweep: the five value lists whose cartesian product is
/// the set of runs, plus the scalar options stamped on every run.
///
/// Text form (see docs/EXPERIMENTS.md §"Sweep specs"): one `key = values`
/// line per axis or scalar, `#` comments, values comma-separated, integer
/// axes also accepting inclusive `lo..hi` ranges:
///
///     topology  = chain, random
///     size      = 16, 32
///     algorithm = fr, pr
///     scheduler = lowest, random
///     seed      = 1..5
///     max_steps = 1000000
///
/// `scheduler` defaults to `lowest` and `seed` to `1` when omitted;
/// `topology`, `size`, and `algorithm` are required.  A scalar takes a
/// single value.
struct SweepSpec : SpecScalars {
  std::vector<TopologyKind> topologies;     ///< `topology =` axis
  std::vector<std::size_t> sizes;           ///< `size =` axis
  std::vector<AlgorithmKind> algorithms;    ///< `algorithm =` axis
  std::vector<SchedulerKind> schedulers;    ///< `scheduler =` axis
  std::vector<std::uint64_t> seeds;         ///< `seed =` axis

  /// Number of runs the spec expands to (the axes' size product).
  std::size_t run_count() const;

  /// Expands the cartesian product in the canonical order: topology
  /// outermost, then size, algorithm, scheduler, and seed innermost.
  std::vector<RunSpec> expand() const;

  /// Parses the text form.  Throws std::invalid_argument on unknown keys,
  /// unknown tokens, duplicate keys, a list for a scalar, an integer out
  /// of range (including a thread count above kMaxThreads), or a missing
  /// required axis; errors on a line name it.
  static SweepSpec parse(std::istream& is);

  /// Convenience overload of parse() taking the spec text directly.
  static SweepSpec parse_string(const std::string& text);
};

/// Canonical text form of a sweep spec: one `key = values` line per axis
/// plus every scalar option, in a fixed order.  The round-trip contract
/// `SweepSpec::parse_string(format_sweep_spec(s)).expand() == s.expand()`
/// is what lets a sharded sweep ship a spec to its workers as text
/// (runner/shard_protocol.hpp) without the coordinator and the workers
/// ever disagreeing about what run #k means.
std::string format_sweep_spec(const SweepSpec& spec);

}  // namespace lr
