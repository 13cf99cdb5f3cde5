#pragma once

#include <stdexcept>
#include <vector>

#include "graph/digraph_algos.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"

/// \file lr_base.hpp
/// State shared by every link-reversal automaton in the paper.
///
/// All four automata (PR, OneStepPR, NewPR, and the FR baseline) operate on
/// the same substrate: the fixed undirected graph G, the mutable directed
/// version G', the destination D, and the *initial* in-/out-neighbor sets
/// (`in-nbrs_u`, `out-nbrs_u`), which the paper defines once with respect
/// to G'_init and never changes.

namespace lr {

/// State shared by every link-reversal automaton: the orientation G', the
/// destination D, and the frozen initial in/out-neighbor sets.
class LinkReversalBase {
 public:
  /// Builds the automaton state over an externally owned graph with the
  /// given initial orientation.  The graph must outlive the automaton.
  LinkReversalBase(const Graph& g, Orientation initial, NodeId destination)
      : orientation_(std::move(initial)),
        destination_(destination),
        initial_senses_(orientation_.senses()) {
    if (&orientation_.graph() != &g) {
      throw std::invalid_argument("LinkReversalBase: orientation must reference the given graph");
    }
    if (destination_ >= g.num_nodes()) {
      throw std::invalid_argument("LinkReversalBase: destination out of range");
    }
  }

  /// Convenience constructor from a generator Instance (which owns the
  /// graph; the Instance must outlive the automaton).
  explicit LinkReversalBase(const Instance& instance)
      : LinkReversalBase(instance.graph, instance.make_orientation(), instance.destination) {}

  /// The fixed undirected graph G.
  const Graph& graph() const noexcept { return orientation_.graph(); }
  /// The current directed version G'.
  const Orientation& orientation() const noexcept { return orientation_; }
  /// The destination node D.
  NodeId destination() const noexcept { return destination_; }

  /// The paper's `dir[u, v]` addressed by edge, *initial* value (w.r.t.
  /// G'_init): kIn iff the other endpoint is in `in-nbrs_u`.
  Dir initial_dir(NodeId u, EdgeId e) const {
    const bool forward = initial_senses_[e] == EdgeSense::kForward;
    const bool u_is_smaller = graph().edge_u(e) == u;
    // Forward means smaller -> larger; the edge is *out* of u iff u is on
    // the tail side.
    return (forward == u_is_smaller) ? Dir::kOut : Dir::kIn;
  }

  /// True iff v was an initial in-neighbor of u (v ∈ in-nbrs_u).
  bool is_initial_in_neighbor(NodeId u, NodeId v) const {
    return initial_dir(u, graph().edge_between(u, v)) == Dir::kIn;
  }

  /// The paper's in-nbrs_u (ascending order).
  std::vector<NodeId> initial_in_neighbors(NodeId u) const {
    return initial_neighbors(u, Dir::kIn);
  }

  /// The paper's out-nbrs_u (ascending order).
  std::vector<NodeId> initial_out_neighbors(NodeId u) const {
    return initial_neighbors(u, Dir::kOut);
  }

  /// Sinks other than the destination — the nodes with an enabled reverse
  /// action in every automaton.  Ascending order for determinism.
  std::vector<NodeId> enabled_sinks() const { return sinks_excluding(orientation_, destination_); }

  /// True iff no reverse action is enabled.
  bool quiescent() const {
    return orientation_.sinks().size() == (orientation_.is_sink(destination_) ? 1 : 0);
  }

  /// True iff `u` is a non-destination sink (the common precondition).
  bool sink_enabled(NodeId u) const {
    return u < graph().num_nodes() && u != destination_ && orientation_.is_sink(u);
  }

 protected:
  /// Appends one byte per edge (the current sense) to `out` — the shared
  /// part of every automaton's state_fingerprint().
  void append_orientation_fingerprint(std::vector<std::uint8_t>& out) const {
    for (EdgeId e = 0; e < graph().num_edges(); ++e) {
      out.push_back(orientation_.sense(e) == EdgeSense::kForward ? 1 : 0);
    }
  }

 public:

 protected:
  Orientation orientation_;                ///< the mutable directed version G'
  NodeId destination_;                     ///< the destination D
  std::vector<EdgeSense> initial_senses_;  ///< G'_init, for the constant sets

 private:
  /// The neighbours v of u (ascending) whose edge had direction `d` from u
  /// in G'_init.
  std::vector<NodeId> initial_neighbors(NodeId u, Dir d) const {
    std::vector<NodeId> result;
    const auto nbrs = graph().neighbors(u);
    const auto edges = graph().incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (initial_dir(u, edges[i]) == d) result.push_back(nbrs[i]);
    }
    return result;
  }
};

}  // namespace lr
