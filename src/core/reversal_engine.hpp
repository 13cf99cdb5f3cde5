#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/sink_index.hpp"
#include "runner/thread_pool.hpp"

/// \file reversal_engine.hpp
/// The batched CSR execution engine: FR / OneStepPR / NewPR run to
/// quiescence as flat-array kernels.
///
/// The automaton classes in this layer (`full_reversal.hpp`, `pr.hpp`,
/// `newpr.hpp`) are the paper's I/O automata stated as faithfully as
/// possible — one object per algorithm, per-step preconditions, orientation
/// updates routed through `Orientation::reverse_edge` so every invariant
/// checker can watch them.  That fidelity costs time: each step re-derives
/// neighbor sets and binary-searches adjacency lists.
///
/// `ReversalEngine` is the production path.  It executes the *same*
/// algorithms over a `CsrGraph` snapshot with:
///
///  * per-node out-degree counters, plus only the state each algorithm
///    defines: FR and NewPR keep one step count (mod 4) per node, and an
///    edge's direction is its initial sense flipped by the parity of the
///    flips its endpoints' counts imply; OneStepPR keeps one byte per
///    edge, its current sense and one "other endpoint ∈ my list" bit per
///    endpoint,
///  * sinks tracked as out-degrees hit zero, so no step scans for them (a
///    graph/sink_index.hpp index, or farthest-first's lazy key heap),
///  * batched per-node kernels that exploit the sink precondition (every
///    incident edge of a firing node points at it, so a "reversal set" is
///    just a slice of neighbours to notify): an FR step reads `nbr`, a
///    NewPR step the constant set `in-nbrs_u` or `out-nbrs_u` of `part_nbr`
///    that its count's parity selects, and a OneStepPR step `nbr`, `edge`
///    and the state bytes, counting `|list[u]|` in the same scan,
///  * a destination check that reads the same state: a BFS over `part_nbr`
///    and the step counts (FR, NewPR) or over `nbr`, `edge` and the state
///    bytes (OneStepPR), and
///  * a round clock per node in FR and OneStepPR runs, from which one
///    single-step run also reports its greedy-rounds count (see
///    `EngineResult::greedy_rounds`).
///
/// Besides `offsets`, `split` and the initial senses, those are the only CSR
/// arrays a run reads, and a freeze builds no others (graph/csr.hpp).  The
/// orientation as one sense per edge is derived only when `senses()` or
/// `state_checksum()` asks for it.
///
/// Equivalence contract: for every (algorithm, policy, seed, step budget),
/// `run()` performs the *identical action sequence* as the corresponding
/// automaton driven by the same scheduler from `automata/scheduler.hpp`,
/// and therefore produces identical work counts, per-node costs, dummy
/// counts, and orientations, after any step budget: both paths make each
/// id-ordered choice with the same `SinkIndex` query.  `tests/reversal_engine_test.cpp` locks
/// this in across algorithms × policies × topologies, which is what makes
/// the scenario runner's legacy/CSR A/B mode byte-identical.

namespace lr {

/// The three run-to-quiescence algorithms the engine implements.
enum class EngineAlgorithm : std::uint8_t {
  kFullReversal,  ///< FR: a firing sink reverses all incident edges
  kOneStepPR,     ///< OneStepPR (Algorithm 3): list-based partial reversal
  kNewPR,         ///< NewPR (Algorithm 2): parity-selected constant sets
};

/// Scheduling policies, mirroring the single-step schedulers the legacy
/// path uses (`automata/scheduler.hpp`); each engine policy reproduces the
/// exact choice sequence of its scheduler counterpart.
enum class EnginePolicy : std::uint8_t {
  kLowestId,       ///< always the smallest-id enabled sink (sink index)
  kRandom,         ///< k-th smallest for a uniform k (sink index, same draws)
  kRoundRobin,     ///< next sink at or after the cursor (sink index)
  kFarthestFirst,  ///< max (BFS distance to destination, id) (lazy max-heap)
};

/// Execution limits and instrumentation switches for `ReversalEngine::run`.
struct EngineRunOptions {
  /// Hard step budget, matching `RunOptions::max_steps` on the legacy path.
  std::uint64_t max_steps = 10'000'000;

  /// Seed of the scheduling RNG (used by `EnginePolicy::kRandom` only);
  /// pass `RunSpec::scheduler_seed()` to match a swept legacy run.
  std::uint64_t scheduler_seed = 0;

  /// When true, `EngineResult::node_cost` records per-node fire counts
  /// (one extra array increment per step).
  bool record_node_costs = false;
};

/// Everything one engine execution produced; the flat-path counterpart of
/// `RunResult` plus the strategy-game measures.
struct EngineResult {
  std::uint64_t steps = 0;            ///< actions fired (dummy steps included)
  std::uint64_t edge_reversals = 0;   ///< single-edge flips performed
  std::uint64_t dummy_steps = 0;      ///< NewPR steps that flipped nothing
  bool quiescent = false;             ///< no enabled sink remained
  bool destination_oriented = false;  ///< final G' routes every node to D
  std::vector<std::uint64_t> node_cost;  ///< per-node fires; empty unless recorded

  /// The greedy (maximal-set) rounds count of the same instance, equal to
  /// `run_greedy_rounds(...).rounds`, read off the run's round clocks: a
  /// firing of u gets c = clock[u] + 1, stored back in clock[u], and every
  /// edge it flips toward v raises clock[v] to at least c; the count is the
  /// largest c.  It holds whatever the policy, because every complete
  /// execution fires the same partial order (docs/ARCHITECTURE.md,
  /// "Greedy rounds from one single-step run").  Engaged only for
  /// quiescent FR and OneStepPR runs of at most 2^32 - 1 steps (a clock
  /// never exceeds the step count, so none of their 32-bit clocks has
  /// wrapped); never for NewPR (which has no rounds measure) or a
  /// budget-cut run.
  std::optional<std::uint64_t> greedy_rounds;
};

/// Result of a batched greedy-rounds execution (`run_greedy_rounds`).
struct EngineRoundsResult {
  std::uint64_t rounds = 0;          ///< maximal-set rounds fired
  std::uint64_t node_steps = 0;      ///< total sink fires over all rounds
  std::uint64_t edge_reversals = 0;  ///< total single-edge flips
  bool converged = false;            ///< quiescent within the round budget
};

/// Execution limits and parallelism knobs for `run_greedy_rounds`.
///
/// Why greedy rounds parallelize at all: a round's sinks are pairwise
/// non-adjacent (two adjacent nodes cannot both be sinks — their shared
/// edge points out of one of them), so each edge is flipped by at most one
/// firing node per round and the only cross-shard state is the out-degree
/// counters of *non-firing* neighbors, whose updates commute.  The engine never applies those updates concurrently, though:
/// each firing shard records them as delta events bucketed by the
/// *owner* shard of the neighbor (contiguous node ranges), and a second
/// barrier phase has every owner drain the buckets aimed at its range.
/// Every counter keeps a single writer per phase — no atomic RMW, no
/// contended hub cache line — and the merge order (firer-major, firing
/// order within a firer) is fixed, so the execution is deterministic at
/// every pool size; docs/ARCHITECTURE.md §"Parallel execution" spells out
/// the merge invariants.
struct EngineRoundsOptions {
  /// Hard round budget, matching the legacy `run_greedy_rounds` limit.
  std::uint64_t max_rounds = 10'000'000;

  /// Worker pool to shard each round's worklist across; nullptr (or a
  /// single-worker pool) runs the serial kernel.  Results are byte-
  /// identical to the serial engine at every pool size.  The pool is
  /// borrowed, never owned, so one pool can serve a whole sweep or bench
  /// loop (and is the same `ThreadPool` the scenario runner uses).
  ThreadPool* pool = nullptr;

  /// Rounds whose estimated work — round width times the maximum degree
  /// among the firing sinks — falls below this fire serially even when a
  /// pool is supplied.  Width alone misleads on skewed graphs: a round of
  /// 2048 degree-1 leaves (star topologies) is ~2048 counter decrements,
  /// far too cheap to amortize a dispatch, while 2048 degree-2 chain nodes
  /// are worth sharding.  The firing-degree scan is O(width) over CSR
  /// offset pairs, noise next to the round itself.  Purely a performance
  /// knob (results never depend on it); tests lower it to 1 to force the
  /// sharded kernel onto tiny rounds.
  std::size_t min_parallel_work = 4096;
};

/// FNV-1a checksum of an edge-sense vector — the canonical fingerprint of
/// a final orientation (from which any height assignment is derived).
/// Benches use it to make legacy/CSR A/B runs self-verifying.
std::uint64_t senses_checksum(std::span<const EdgeSense> senses);

/// Batched link-reversal executor over a `CsrGraph` snapshot.
///
/// The engine owns all mutable state and can be re-run: every `run` /
/// `run_greedy_rounds` call first resets to the snapshot's initial
/// orientation, so one engine amortizes its allocations across a whole
/// benchmark or sweep loop (zero per-step and per-run allocation after the
/// first call).  A run allocates only the arrays its algorithm reads.
class ReversalEngine {
 public:
  /// Creates an engine over `csr` with the given destination.  The engine
  /// holds a copy of `csr`, which shares its arrays.  Throws
  /// std::invalid_argument if the destination is out of range.
  ReversalEngine(const CsrGraph& csr, NodeId destination);

  /// Convenience: engine over a fresh snapshot of `instance` (graph +
  /// initial senses + destination).
  explicit ReversalEngine(const Instance& instance);

  /// Runs `algorithm` to quiescence (or budget exhaustion) under `policy`,
  /// resetting to the initial orientation first.
  EngineResult run(EngineAlgorithm algorithm, EnginePolicy policy,
                   const EngineRunOptions& options = {});

  /// Runs the greedy (maximal-set) rounds execution of FR or OneStepPR,
  /// resetting first; the batched counterpart of
  /// `analysis/rounds.hpp::run_greedy_rounds` totals.  NewPR is rejected
  /// with std::invalid_argument, matching the legacy rounds API surface.
  EngineRoundsResult run_greedy_rounds(EngineAlgorithm algorithm, std::uint64_t max_rounds);

  /// Same, with the full option set: supply `options.pool` to shard each
  /// round's worklist across the pool's workers (results byte-identical to
  /// the serial kernel at every pool size; see EngineRoundsOptions).
  EngineRoundsResult run_greedy_rounds(EngineAlgorithm algorithm,
                                       const EngineRoundsOptions& options);

  /// The CSR snapshot this engine executes over.
  const CsrGraph& csr() const noexcept { return csr_; }

  /// The destination node D.
  NodeId destination() const noexcept { return destination_; }

  /// Edge senses after the most recent run (initial senses before any),
  /// derived from the run's state in O(m) on each call.  The span stays
  /// valid until the next call or run.
  std::span<const EdgeSense> senses() const;

  /// Checksum of the current (post-run) orientation; see senses_checksum().
  std::uint64_t state_checksum() const { return senses_checksum(senses()); }

  /// True iff `u` currently has no outgoing edge (degree-0 nodes included,
  /// matching `Orientation::is_sink`).
  bool is_sink(NodeId u) const { return node_[u].out_degree == 0; }

 private:
  /// One node's hot counters, side by side so a flip touches one line.
  struct NodeSlot {
    std::uint32_t out_degree;  ///< current out-degree
    std::uint32_t clock;       ///< round clock (single-step runs)
  };

  void reset(EngineAlgorithm algorithm);
  void ensure_distances();
  bool compute_destination_oriented();

  // The fire kernels are policy-templated: `Ops` supplies the
  // neighbor-side effect of an edge flip (out-degree decrement) plus the
  // zero-flip self-requeue.  Serial paths apply them in place; the
  // sharded rounds kernel *defers* them as per-owner delta events
  // instead — a hub neighbor shared by thousands of firing leaves would
  // otherwise serialize every shard on one contended counter cache line.
  // See run_greedy_rounds for the two-phase fire/merge that applies the
  // deltas without any atomic RMW.
  template <typename Ops>
  std::uint32_t fire(EngineAlgorithm algorithm, NodeId u, Ops& ops);
  template <typename Ops>
  std::uint32_t fire_full(NodeId u, Ops& ops);
  template <typename Ops>
  std::uint32_t fire_pr(NodeId u, Ops& ops);
  template <typename Ops>
  std::uint32_t fire_newpr(NodeId u, Ops& ops);

  CsrGraph csr_;
  NodeId destination_ = 0;

  // Mutable G' state (reset per run).
  EngineAlgorithm algorithm_ = EngineAlgorithm::kFullReversal;  // which state below is live
  std::vector<NodeSlot> node_;  // out-degree and round clock per node
  // FR and NewPR: each node's step count mod 4, which fixes the direction
  // of every incident edge (see the masks in reversal_engine.cpp).
  std::vector<std::uint8_t> fires_;
  // OneStepPR, by edge id: bit 0 the current sense (EdgeSense's value),
  // bit 1 "the larger endpoint is in the smaller's list", bit 2 the
  // converse.  A firing writes only its own edges' bytes.
  std::vector<std::uint8_t> edge_state_;

  std::uint64_t dummy_steps_ = 0;

  // senses()' buffer, filled on demand.  An engine is used by one thread
  // at a time, so the const accessor may fill it.
  mutable std::vector<EdgeSense> senses_;

  // Scheduling scratch (persistent so repeated runs do not allocate).
  SinkIndex sink_index_;                // id-ordered policies: sinks but D
  std::vector<std::uint64_t> key_heap_; // farthest-first lazy max-heap
  std::vector<std::uint8_t> queued_;    // one live heap entry per node
  std::vector<NodeId> round_current_;   // greedy rounds: this round's set
  std::vector<NodeId> round_next_;      // greedy rounds: next round's set
  std::vector<std::vector<NodeId>> shard_next_;   // per-shard next-round buffers
  std::vector<std::uint64_t> shard_reversals_;    // per-shard flip counters
  // Sharded-round delta buckets, indexed [firing shard * shards + owner
  // shard]; each holds the neighbor ids whose out-degree the firer would
  // have decremented, drained by the owner in the merge phase (capacity
  // persists across rounds).
  std::vector<std::vector<NodeId>> degree_events_;
  std::vector<std::uint32_t> distance_; // undirected BFS distance to D
  std::vector<std::uint8_t> visited_;   // destination-oriented BFS scratch
  std::vector<NodeId> bfs_queue_;       // BFS scratch
};

}  // namespace lr
