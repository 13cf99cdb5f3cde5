#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sink_index.hpp"
#include "graph/types.hpp"

/// \file orientation.hpp
/// The mutable directed version G' of the fixed undirected graph G.
///
/// The paper stores two state variables `dir[u,v]` and `dir[v,u]` per edge
/// and proves (Invariant 3.1) that they always disagree.  We store a single
/// *sense* bit per edge relative to the canonical endpoint order, which
/// makes Invariant 3.1 true by construction; the two-sided view of the
/// paper is recovered through `dir_from()`.  The invariant checker in
/// src/core still exercises the two-sided API so the paper's statement is
/// tested rather than merely assumed.
///
/// The orientation also maintains per-node out-degrees and an ascending
/// index of current sinks (graph/sink_index.hpp), because every automaton's
/// precondition is "u is a sink" and choosing an enabled action must be
/// cheap (experiment E8.3 measures this ablation; docs/EXPERIMENTS.md).

namespace lr {

/// Direction of an edge relative to its canonical endpoints (u < v).
enum class EdgeSense : std::uint8_t {
  kForward,   ///< points u -> v (from smaller id to larger id)
  kBackward,  ///< points v -> u
};

class Orientation {
 public:
  /// Creates an orientation of `g` from one sense per edge (indexed by
  /// EdgeId).  Throws std::invalid_argument on size mismatch.
  Orientation(const Graph& g, std::vector<EdgeSense> senses);

  /// Creates the orientation induced by a ranking: every edge points from
  /// its lower-ranked endpoint to its higher-ranked endpoint ("left to
  /// right" in the paper's planar-embedding argument).  `rank` must be a
  /// permutation-like vector of distinct values, one per node; the result
  /// is acyclic by construction.
  static Orientation from_ranking(const Graph& g, std::span<const std::uint32_t> rank);

  /// Underlying undirected graph (not owned; must outlive the orientation).
  const Graph& graph() const noexcept { return *graph_; }

  /// Current sense of edge `e`.
  EdgeSense sense(EdgeId e) const { return senses_[e]; }

  /// All edge senses, indexed by EdgeId.  Useful for snapshotting G' and
  /// for re-creating an orientation later (generators, trace replay).
  const std::vector<EdgeSense>& senses() const noexcept { return senses_; }

  /// Node the edge currently points *to*.
  NodeId head(EdgeId e) const {
    return senses_[e] == EdgeSense::kForward ? graph_->edge_v(e) : graph_->edge_u(e);
  }

  /// Node the edge currently points *from*.
  NodeId tail(EdgeId e) const {
    return senses_[e] == EdgeSense::kForward ? graph_->edge_u(e) : graph_->edge_v(e);
  }

  /// The paper's `dir[u, v]` for endpoint `u` of edge `e`:
  /// kIn if the edge points towards u, kOut otherwise.
  Dir dir_from(NodeId u, EdgeId e) const {
    return head(e) == u ? Dir::kIn : Dir::kOut;
  }

  /// The paper's `dir[u, v]` addressed by the node pair.  Precondition:
  /// {u, v} ∈ E.
  Dir dir(NodeId u, NodeId v) const { return dir_from(u, graph_->edge_between(u, v)); }

  /// Reverses edge `e` (the elementary effect of every reverse action).
  /// Updates degrees and the sink index in O(log n).
  void reverse_edge(EdgeId e);

  /// Points edge `e` away from node `u` if it is not already; no-op
  /// otherwise.  Precondition: u is an endpoint of e.
  void point_away_from(NodeId u, EdgeId e) {
    if (head(e) == u) reverse_edge(e);
  }

  /// Number of edges currently pointing away from `u`.
  std::size_t out_degree(NodeId u) const { return out_degree_[u]; }
  /// Number of edges currently pointing towards `u`.
  std::size_t in_degree(NodeId u) const { return graph_->degree(u) - out_degree_[u]; }

  /// True iff every incident edge of `u` is incoming.  Matches the paper's
  /// sink precondition: a degree-0 node is vacuously a sink.
  bool is_sink(NodeId u) const { return out_degree_[u] == 0; }

  /// True iff every incident edge of `u` is outgoing (and u has at least
  /// one edge, matching the usual convention that an isolated node is a
  /// sink, not a source).
  bool is_source(NodeId u) const {
    return graph_->degree(u) > 0 && out_degree_[u] == graph_->degree(u);
  }

  /// Current sinks, ascending, maintained incrementally.  Includes the
  /// destination if it happens to be a sink — callers skip it.
  const SinkIndex& sinks() const noexcept { return sink_index_; }

  /// Current out-neighbors of `u` (computed on demand, ascending order).
  std::vector<NodeId> out_neighbors(NodeId u) const;

  /// Current in-neighbors of `u` (computed on demand, ascending order).
  std::vector<NodeId> in_neighbors(NodeId u) const;

  /// Total number of single-edge reversals applied since construction.
  /// This is the work measure used by the Θ(n_b²) analysis.
  std::uint64_t reversal_count() const noexcept { return reversal_count_; }

  /// Directed-graph equality: same topology and same edge senses.  Used by
  /// the simulation relations (s.G' = t.G').
  friend bool operator==(const Orientation& a, const Orientation& b) {
    return (a.graph_ == b.graph_ || *a.graph_ == *b.graph_) && a.senses_ == b.senses_;
  }

 private:
  const Graph* graph_ = nullptr;
  std::vector<EdgeSense> senses_;
  std::vector<std::uint32_t> out_degree_;
  SinkIndex sink_index_;
  std::uint64_t reversal_count_ = 0;
};

}  // namespace lr
