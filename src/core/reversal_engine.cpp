#include "core/reversal_engine.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>

namespace lr {

namespace {

/// In-place neighbor updates for every serial execution path (single-step
/// runs and un-sharded rounds): a decrement lands immediately and a node
/// is requeued the instant its out-degree hits zero.  With `kClock` (the
/// single-step runs) each flip toward v also raises v's round clock to the
/// firing's round `clock`.
template <typename Slot, typename PushSink, bool kClock = false>
struct SerialOps {
  Slot* node;
  std::uint32_t* list_size;
  PushSink& push;
  std::uint32_t clock = 0;  // round of the firing in progress (kClock only)

  void flipped(NodeId v) {
    Slot& slot = node[v];
    if constexpr (kClock) slot.clock = std::max(slot.clock, clock);
    if (--slot.out_degree == 0) push(v);
  }
  void listed(NodeId v) { ++list_size[v]; }
  void self_sink(NodeId u) { push(u); }
};

/// Deferred neighbor updates for the sharded rounds kernel.  Touching a
/// neighbor's counter directly would need an atomic RMW (a non-firing hub
/// can neighbor every concurrently firing shard), and on hub topologies
/// those RMWs all land on one cache line — star-4097's first round is
/// 4096 leaves decrementing the same hub counter, which serializes the
/// whole "parallel" round.  Instead the firing phase appends the neighbor
/// id to a bucket addressed by the neighbor's *owner* shard; the merge
/// phase has each owner drain the buckets aimed at its contiguous node
/// range, so every counter keeps exactly one writer and no RMW is atomic.
struct DeltaOps {
  std::vector<NodeId>* degree_bucket;  // this firer's row: one bucket per owner
  std::vector<NodeId>* list_bucket;
  std::vector<NodeId>* next;  // this shard's next-round buffer (zero-flip requeues)
  std::size_t shards;
  std::size_t nodes;

  std::size_t owner(NodeId v) const {
    return static_cast<std::size_t>(v) * shards / nodes;
  }
  void flipped(NodeId v) { degree_bucket[owner(v)].push_back(v); }
  void listed(NodeId v) { list_bucket[owner(v)].push_back(v); }
  // The destination never fires, so a zero-flip self-requeue needs no
  // destination filter here (the merge phase filters its own pushes).
  void self_sink(NodeId u) { next->push_back(u); }
};

}  // namespace

std::uint64_t senses_checksum(std::span<const EdgeSense> senses) {
  // FNV-1a over one byte per edge, the same encoding the automata use in
  // their state fingerprints (1 = forward, 0 = backward).
  std::uint64_t hash = 14695981039346656037ULL;
  for (const EdgeSense sense : senses) {
    hash ^= sense == EdgeSense::kForward ? 1u : 0u;
    hash *= 1099511628211ULL;
  }
  return hash;
}

ReversalEngine::ReversalEngine(const CsrGraph& csr, NodeId destination)
    : csr_(csr), destination_(destination) {
  if (destination_ >= csr_.num_nodes()) {
    throw std::invalid_argument("ReversalEngine: destination out of range");
  }
  reset(EngineAlgorithm::kFullReversal);
}

ReversalEngine::ReversalEngine(const Instance& instance)
    : ReversalEngine(CsrGraph(instance.graph, instance.senses), instance.destination) {}

void ReversalEngine::reset(EngineAlgorithm algorithm) {
  const std::size_t n = csr_.num_nodes();
  sense_.assign(csr_.initial_senses().begin(), csr_.initial_senses().end());
  node_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    node_[u] = {static_cast<std::uint32_t>(csr_.initial_out_degree(u)), 0};
  }
  // FR reads nothing else; the PR lists and the NewPR parities are
  // allocated only by the runs that read them.
  if (algorithm == EngineAlgorithm::kOneStepPR) {
    in_list_.assign(2 * csr_.num_edges(), 0);
    list_size_.assign(n, 0);
  } else if (algorithm == EngineAlgorithm::kNewPR) {
    parity_.assign(n, 0);
  }
  dummy_steps_ = 0;
}

void ReversalEngine::ensure_distances() {
  const std::size_t n = csr_.num_nodes();
  if (!distance_.empty()) return;  // the snapshot is immutable: compute once
  distance_.assign(n, std::numeric_limits<std::uint32_t>::max());
  bfs_queue_.clear();
  distance_[destination_] = 0;
  bfs_queue_.push_back(destination_);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId x = bfs_queue_[head];
    for (const NodeId v : csr_.neighbors(x)) {
      if (distance_[v] == std::numeric_limits<std::uint32_t>::max()) {
        distance_[v] = distance_[x] + 1;
        bfs_queue_.push_back(v);
      }
    }
  }
}

bool ReversalEngine::compute_destination_oriented() {
  const std::size_t n = csr_.num_nodes();
  visited_.assign(n, 0);
  bfs_queue_.clear();
  visited_[destination_] = 1;
  bfs_queue_.push_back(destination_);
  std::size_t reached = 1;
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId x = bfs_queue_[head];
    const CsrPos end = csr_.adjacency_end(x);
    for (CsrPos p = csr_.adjacency_begin(x); p < end; ++p) {
      // Traverse edges *into* x: their tails route to D through x.
      if (csr_.points_out_of(p, x, sense_)) continue;
      const NodeId v = csr_.neighbor_at(p);
      if (!visited_[v]) {
        visited_[v] = 1;
        bfs_queue_.push_back(v);
        ++reached;
      }
    }
  }
  return reached == n;
}

template <typename Ops>
void ReversalEngine::flip(CsrPos p, Ops& ops) {
  const EdgeId e = csr_.edge_at(p);
  sense_[e] = sense_[e] == EdgeSense::kForward ? EdgeSense::kBackward : EdgeSense::kForward;
  ops.flipped(csr_.neighbor_at(p));
}


template <typename Ops>
std::uint32_t ReversalEngine::fire_full(NodeId u, Ops& ops) {
  const CsrPos begin = csr_.adjacency_begin(u);
  const CsrPos end = csr_.adjacency_end(u);
  for (CsrPos p = begin; p < end; ++p) flip(p, ops);
  const std::uint32_t flips = end - begin;
  // Plain store in the sharded kernel too: u's round peers are pairwise
  // non-adjacent to it and delta events only target non-firing nodes, so
  // no other shard touches node_[u] this round.
  node_[u].out_degree = flips;
  if (flips == 0) ops.self_sink(u);  // a degree-0 node stays a (vacuous) sink
  return flips;
}

template <typename Ops>
std::uint32_t ReversalEngine::fire_pr(NodeId u, Ops& ops) {
  const CsrPos begin = csr_.adjacency_begin(u);
  const CsrPos end = csr_.adjacency_end(u);
  const bool reverse_all = list_size_[u] == end - begin;
  std::uint32_t flips = 0;
  for (CsrPos p = begin; p < end; ++p) {
    if (!reverse_all && in_list_[p]) continue;  // v ∈ list[u]: keep the edge
    flip(p, ops);
    ++flips;
    // list[v] := list[v] ∪ {u}, addressed through the mirror position.
    // The mirror slot is written by at most one shard per round (it names
    // the {u, v} edge from v's side and u is the only firing endpoint);
    // v's list-size counter is shared with u's round peers, which is why
    // the increment goes through ops (deferred to v's owner when sharded).
    const CsrPos mp = csr_.mirror(p);
    if (!in_list_[mp]) {
      in_list_[mp] = 1;
      ops.listed(csr_.neighbor_at(p));
    }
  }
  for (CsrPos p = begin; p < end; ++p) in_list_[p] = 0;  // list[u] := ∅
  list_size_[u] = 0;
  node_[u].out_degree = flips;
  if (flips == 0) ops.self_sink(u);
  return flips;
}

template <typename Ops>
std::uint32_t ReversalEngine::fire_newpr(NodeId u, Ops& ops) {
  const std::span<const CsrPos> selected =
      parity_[u] ? csr_.initial_out_positions(u) : csr_.initial_in_positions(u);
  for (const CsrPos p : selected) flip(p, ops);
  const std::uint32_t flips = static_cast<std::uint32_t>(selected.size());
  node_[u].out_degree = flips;
  if (flips == 0) {
    ++dummy_steps_;  // the selected constant set is empty: a dummy step
    ops.self_sink(u);
  }
  parity_[u] ^= 1;
  return flips;
}

template <typename Ops>
std::uint32_t ReversalEngine::fire(EngineAlgorithm algorithm, NodeId u, Ops& ops) {
  switch (algorithm) {
    case EngineAlgorithm::kFullReversal:
      return fire_full(u, ops);
    case EngineAlgorithm::kOneStepPR:
      return fire_pr(u, ops);
    case EngineAlgorithm::kNewPR:
      return fire_newpr(u, ops);  // single-step only: rounds reject NewPR
  }
  throw std::invalid_argument("ReversalEngine: unknown algorithm");
}

EngineResult ReversalEngine::run(EngineAlgorithm algorithm, EnginePolicy policy,
                                 const EngineRunOptions& options) {
  reset(algorithm);
  const std::size_t n = csr_.num_nodes();
  EngineResult result;
  if (options.record_node_costs) result.node_cost.assign(n, 0);
  std::uint32_t rounds = 0;  // the largest round clock so far

  // Fires u: a firing's round is one past u's clock, which `ops` carries
  // to every neighbour the firing flips toward.
  const auto step = [&](NodeId u, auto& ops) {
    ops.clock = ++node_[u].clock;
    rounds = std::max(rounds, ops.clock);
    result.edge_reversals += fire(algorithm, u, ops);
    ++result.steps;
    if (!result.node_cost.empty()) ++result.node_cost[u];
  };

  if (policy != EnginePolicy::kFarthestFirst) {
    // The id-ordered policies share one sink index, which never holds D.
    // Random takes the k-th smallest sink for a uniform k: the same
    // mt19937_64 draws and the same query RandomScheduler makes.
    //
    // Lowest-id is round-robin with the cursor pinned at 0: each choice is
    // the smallest sink at or after `from` (u + 1 for round-robin), else
    // the smallest sink.  No sink leaves the index while u fires, so that
    // choice is the smaller of the sink after u that was there before the
    // step (`ahead`, one query, made before u fires so its block can be
    // prefetched) and the smallest sink at or after `from` that the step
    // inserted (`inserted`, tracked by the push).  Only a round-robin wrap
    // queries again.
    sink_index_.reset(n);
    NodeId from = kNoNode;  // tracks no insertion until a lowest-id/rr step
    NodeId inserted = kNoNode;
    const auto push = [this, &from, &inserted](NodeId v) {
      if (v == destination_) return;
      sink_index_.insert(v);
      if (v >= from && v < inserted) inserted = v;
    };
    for (NodeId u = 0; u < n; ++u) {
      if (node_[u].out_degree == 0) push(u);
    }
    SerialOps<NodeSlot, decltype(push), true> ops{node_.data(), list_size_.data(), push};
    if (policy == EnginePolicy::kRandom) {
      std::mt19937_64 rng(options.scheduler_seed);
      while (result.steps < options.max_steps) {
        if (sink_index_.size() == 0) {
          result.quiescent = true;
          break;
        }
        std::uniform_int_distribution<std::size_t> pick(0, sink_index_.size() - 1);
        const NodeId u = sink_index_.select(pick(rng));
        sink_index_.erase(u);  // a zero-flip step re-inserts it through ops
        step(u, ops);
      }
    } else {
      const bool round_robin = policy == EnginePolicy::kRoundRobin;
      NodeId u = sink_index_.next(0);
      while (result.steps < options.max_steps) {
        if (u == kNoNode) {
          result.quiescent = true;
          break;
        }
        sink_index_.erase(u);  // a zero-flip step re-inserts it through ops
        const NodeId ahead = sink_index_.next(u);
        if (ahead != kNoNode) {
          // Its neighbour and edge ids name every other line it touches.
          const CsrPos begin = csr_.adjacency_begin(ahead);
          __builtin_prefetch(csr_.raw_neighbors().data() + begin);
          __builtin_prefetch(csr_.raw_edges().data() + begin);
        }
        from = round_robin ? u + 1 : 0;
        inserted = kNoNode;
        step(u, ops);
        u = std::min(ahead, inserted);
        if (u == kNoNode && round_robin) u = sink_index_.next(0);
      }
    }
  } else {
    // Lazy max-heap keyed (BFS distance to D, id), matching the max over
    // the same keys that FarthestFirstScheduler scans for.
    ensure_distances();
    const auto key_of = [this](NodeId u) {
      return (static_cast<std::uint64_t>(distance_[u]) << 32) | u;
    };
    key_heap_.clear();
    queued_.assign(n, 0);
    const auto push = [this, &key_of](NodeId v) {
      if (!queued_[v]) {
        queued_[v] = 1;
        key_heap_.push_back(key_of(v));
        std::push_heap(key_heap_.begin(), key_heap_.end());
      }
    };
    for (NodeId u = 0; u < n; ++u) {
      if (node_[u].out_degree == 0) push(u);  // keys are unique: the pop order is fixed
    }
    SerialOps<NodeSlot, decltype(push), true> ops{node_.data(), list_size_.data(), push};
    while (result.steps < options.max_steps) {
      NodeId u = kNoNode;
      while (!key_heap_.empty()) {
        std::pop_heap(key_heap_.begin(), key_heap_.end());
        const NodeId top = static_cast<NodeId>(key_heap_.back() & 0xffffffffu);
        key_heap_.pop_back();
        queued_[top] = 0;
        if (top != destination_ && node_[top].out_degree == 0) {
          u = top;
          break;
        }
      }
      if (u == kNoNode) {
        result.quiescent = true;
        break;
      }
      step(u, ops);
    }
  }

  result.dummy_steps = dummy_steps_;
  result.destination_oriented = compute_destination_oriented();
  // NewPR has no rounds measure.  A clock never exceeds the step count,
  // so no 32-bit clock of a run of at most 2^32 - 1 steps has wrapped.
  if (algorithm != EngineAlgorithm::kNewPR && result.quiescent &&
      result.steps <= std::numeric_limits<std::uint32_t>::max()) {
    result.greedy_rounds = rounds;
  }
  return result;
}

EngineRoundsResult ReversalEngine::run_greedy_rounds(EngineAlgorithm algorithm,
                                                     std::uint64_t max_rounds) {
  return run_greedy_rounds(algorithm, EngineRoundsOptions{.max_rounds = max_rounds});
}

EngineRoundsResult ReversalEngine::run_greedy_rounds(EngineAlgorithm algorithm,
                                                     const EngineRoundsOptions& options) {
  if (algorithm == EngineAlgorithm::kNewPR) {
    throw std::invalid_argument(
        "ReversalEngine::run_greedy_rounds: greedy rounds are defined for FR and "
        "OneStepPR only (matching analysis/rounds.hpp)");
  }
  reset(algorithm);
  const std::size_t n = csr_.num_nodes();
  EngineRoundsResult result;

  round_current_.clear();
  for (NodeId u = 0; u < n; ++u) {
    if (u != destination_ && node_[u].out_degree == 0) round_current_.push_back(u);
  }
  // Within a round, a non-firing node's out-degree only decreases and a
  // firing node's is rewritten once, so every node reaches zero at most
  // once per round: the next-round list needs no deduplication.  Firing
  // order within a round is immaterial — round sinks are pairwise
  // non-adjacent, and PR list additions only flow from firing nodes to
  // their (non-firing) neighbors — so the list also needs no sorting.
  const auto push = [this](NodeId v) {
    if (v != destination_) round_next_.push_back(v);
  };
  SerialOps<NodeSlot, decltype(push)> serial_ops{node_.data(), list_size_.data(), push};
  const std::size_t shards = options.pool != nullptr ? options.pool->size() : 1;
  std::size_t width = 0;
  std::function<void(std::size_t)> fire_job;
  std::function<void(std::size_t)> merge_job;
  if (shards > 1) {
    shard_next_.resize(shards);
    shard_reversals_.assign(shards, 0);
    degree_events_.resize(shards * shards);
    list_events_.resize(shards * shards);
    // Both jobs are built once per execution (not per round): the fire job
    // reads the current round's size through `width`.
    fire_job = [this, algorithm, &width, shards](std::size_t shard) {
      const std::size_t begin = width * shard / shards;
      const std::size_t end = width * (shard + 1) / shards;
      DeltaOps ops{degree_events_.data() + shard * shards,
                   list_events_.data() + shard * shards,
                   &shard_next_[shard],
                   shards,
                   csr_.num_nodes()};
      std::uint64_t reversals = 0;
      for (std::size_t i = begin; i < end; ++i) {
        reversals += fire(algorithm, round_current_[i], ops);
      }
      shard_reversals_[shard] = reversals;
    };
    merge_job = [this, shards](std::size_t owner) {
      // Drain every firer's buckets aimed at this owner's node range, in
      // firer order.  Each counter in the range has this job as its only
      // writer, so no decrement is atomic, and the decrement that lands on
      // zero — hence the requeue — is the same at every pool size.
      std::vector<NodeId>& next = shard_next_[owner];
      for (std::size_t firer = 0; firer < shards; ++firer) {
        std::vector<NodeId>& degree = degree_events_[firer * shards + owner];
        for (const NodeId v : degree) {
          if (--node_[v].out_degree == 0 && v != destination_) next.push_back(v);
        }
        degree.clear();
        std::vector<NodeId>& list = list_events_[firer * shards + owner];
        for (const NodeId v : list) ++list_size_[v];
        list.clear();
      }
    };
  }
  while (!round_current_.empty() && result.rounds < options.max_rounds) {
    ++result.rounds;
    result.node_steps += round_current_.size();
    width = round_current_.size();
    // Work estimate: width x the widest firing sink's adjacency span.  The
    // scan is two offset loads per sink; it keeps star-like rounds (many
    // degree-1 leaves, almost no per-node work) on the inline path where
    // they are fastest.
    std::size_t work = 0;
    if (shards > 1) {
      std::size_t max_degree = 0;
      for (const NodeId u : round_current_) {
        max_degree = std::max(max_degree,
                              static_cast<std::size_t>(csr_.adjacency_end(u) -
                                                       csr_.adjacency_begin(u)));
      }
      work = width * max_degree;
    }
    // width > 1: a single sink cannot be split across shards, however
    // heavy (star hubs hit exactly this — one firing node of huge degree).
    if (shards > 1 && width > 1 && work >= options.min_parallel_work) {
      // Sharded round, two barrier phases over contiguous worklist slices.
      // Phase 1 (fire): edge flips are disjoint across shards (round sinks
      // are pairwise non-adjacent), and every neighbor-counter update is
      // deferred as a delta event bucketed by the neighbor's owner shard —
      // nothing shared is written, so hub neighbors cost each firer an
      // append into its private bucket instead of a contended RMW.
      // Phase 2 (merge): each owner drains the buckets aimed at its node
      // range and requeues the sinks it zeroes into its own buffer.
      for (std::vector<NodeId>& buffer : shard_next_) buffer.clear();
      options.pool->run(fire_job);
      options.pool->run(merge_job);
      round_current_.clear();
      for (std::size_t shard = 0; shard < shards; ++shard) {
        result.edge_reversals += shard_reversals_[shard];
        round_current_.insert(round_current_.end(), shard_next_[shard].begin(),
                              shard_next_[shard].end());
      }
      // The merged list is fully deterministic: bucket membership follows
      // from the fixed slice boundaries, and each owner drains its buckets
      // in firer order.  Order within a round is unobservable anyway —
      // round sinks are pairwise non-adjacent, so every counter update and
      // edge flip commutes — which is why the merge needs no sort and
      // results stay byte-identical at every pool size
      // (tests/reversal_engine_test.cpp pins this).
    } else {
      round_next_.clear();
      for (const NodeId u : round_current_) {
        result.edge_reversals += fire(algorithm, u, serial_ops);
      }
      round_current_.swap(round_next_);
    }
  }
  result.converged = round_current_.empty();
  return result;
}

}  // namespace lr
