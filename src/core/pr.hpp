#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/lr_base.hpp"

/// \file pr.hpp
/// The original Partial Reversal algorithm: the paper's `PR` automaton
/// (Algorithm 1, set steps) and `OneStepPR` automaton (Algorithm 3, single
/// steps).  Both share the same state — `dir` plus one dynamic `list[u]`
/// per node — and the same per-node effect; they differ only in how many
/// sinks fire per action, so both are thin wrappers over
/// PartialReversalState.
///
/// Per-node effect (paper, Section 3.1): when sink u fires,
///   * if list[u] != nbrs_u: reverse the edges to nbrs_u \ list[u],
///   * else: reverse the edges to all of nbrs_u;
/// each neighbor v whose edge was reversed adds u to list[v]; finally
/// list[u] := ∅.

namespace lr {

/// Shared state and per-node step of PR / OneStepPR.
class PartialReversalState : public LinkReversalBase {
 public:
  /// Builds PR state (empty lists) over an externally owned graph.
  PartialReversalState(const Graph& g, Orientation initial, NodeId destination);
  /// Convenience constructor from a generator Instance.
  explicit PartialReversalState(const Instance& instance);

  /// The paper's list[u], as a sorted node vector (for invariant checks and
  /// the simulation relation R').
  std::vector<NodeId> list(NodeId u) const;

  /// |list[u]| in O(1).
  std::size_t list_size(NodeId u) const { return list_size_[u]; }

  /// list[u] as one flag per incidence of u, aligned with
  /// graph().neighbors(u): flag i is set iff the i-th neighbour is in
  /// list[u].  Allocation-free view for the relation clauses.
  std::span<const std::uint8_t> list_flags(NodeId u) const {
    return {in_list_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// True iff v ∈ list[u].  Precondition: {u, v} ∈ E.
  bool list_contains(NodeId u, NodeId v) const;

  /// True iff list[u] = nbrs_u (the branch condition of the effect).
  bool list_full(NodeId u) const { return list_size_[u] == graph().degree(u); }

  /// Lists of the two states are identical (part 2 of relation R').
  bool lists_equal(const PartialReversalState& other) const {
    return in_list_ == other.in_list_;
  }

  /// Fires the per-node effect for sink `u`.  Precondition: sink_enabled(u).
  void node_step(NodeId u);

 protected:
  /// Fires the *Full Reversal* effect for sink `u` while keeping PR's list
  /// bookkeeping consistent: all incident edges reverse, every neighbor
  /// adds u to its list, and list[u] is cleared.  Used by the hybrid
  /// strategy game (hybrid.hpp); not part of the paper's PR automaton.
  void node_step_full(NodeId u);

 public:

  /// Number of node steps taken in total (work measure).
  std::uint64_t total_node_steps() const noexcept { return total_node_steps_; }

  /// Unique encoding of (G', all lists) for the exhaustive model checker.
  std::vector<std::uint8_t> state_fingerprint() const {
    std::vector<std::uint8_t> fp;
    fp.reserve(graph().num_edges() + in_list_.size());
    append_orientation_fingerprint(fp);
    fp.insert(fp.end(), in_list_.begin(), in_list_.end());
    return fp;
  }

 private:
  std::size_t slot(NodeId u, std::size_t incidence_index) const {
    return offsets_[u] + incidence_index;
  }
  std::size_t incidence_index_of(NodeId u, NodeId v) const;

  std::vector<std::size_t> offsets_;   // CSR offsets into in_list_, size n+1
  std::vector<std::uint8_t> in_list_;  // flag per (node, incidence): neighbor ∈ list[node]
  std::vector<std::uint32_t> list_size_;
  std::uint64_t total_node_steps_ = 0;
};

/// Algorithm 1: the original PR automaton with set actions reverse(S).
/// Precondition: S non-empty, D ∉ S, every u ∈ S is a sink.  (Nodes of S
/// are automatically pairwise non-adjacent: neighbors cannot both be
/// sinks.)
class PRAutomaton : public PartialReversalState {
 public:
  /// Actions are non-empty sink sets: reverse(S).
  using Action = std::vector<NodeId>;
  using PartialReversalState::PartialReversalState;

  /// Precondition of reverse(S): S non-empty, every u in S a sink.
  bool enabled(const Action& s) const {
    if (s.empty()) return false;
    for (const NodeId u : s) {
      if (!sink_enabled(u)) return false;
    }
    return true;
  }

  /// Effect of reverse(S): the per-node PR effect for every u in S.
  void apply(const Action& s) {
    // The nodes of S are pairwise non-adjacent, so the per-node effects are
    // independent and any application order yields the paper's simultaneous
    // effect.
    for (const NodeId u : s) node_step(u);
  }
};

/// Algorithm 3: OneStepPR — identical state, one sink per action.
class OneStepPRAutomaton : public PartialReversalState {
 public:
  /// Actions are single nodes: reverse(u).
  using Action = NodeId;
  using PartialReversalState::PartialReversalState;

  /// Precondition of reverse(u): u is a non-destination sink.
  bool enabled(NodeId u) const { return sink_enabled(u); }
  /// Effect of reverse(u): the per-node PR effect.
  void apply(NodeId u) { node_step(u); }
};

}  // namespace lr
