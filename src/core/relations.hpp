#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/newpr.hpp"
#include "core/pr.hpp"

/// \file relations.hpp
/// The binary relations of Section 5, as executable predicates, plus the
/// step correspondences their proofs construct.  Together with
/// automata/simulation.hpp these let the test suite mechanically re-play
/// Lemmas 5.1 and 5.3 along arbitrary executions:
///
///  * R' ⊆ states(PR) × states(OneStepPR):   same G', same lists.
///    One PR step reverse(S) corresponds to |S| OneStepPR steps.
///  * R  ⊆ states(OneStepPR) × states(NewPR): same G'; parity[u] even =>
///    list[u] ⊆ out-nbrs_u; parity[u] odd => list[u] ⊆ in-nbrs_u.
///    One OneStepPR step corresponds to one NewPR step, or two when
///    list[w] = nbrs_w (the dummy step followed by the real reversal).
///
/// We additionally implement the *reverse-direction* relation the paper's
/// conclusion proposes as future work ("showing a binary relation in the
/// reverse direction too"): NewPR -> OneStepPR.  A dummy NewPR step maps to
/// the empty OneStepPR sequence, which temporarily leaves the pair in a
/// "post-dummy" state the forward relation R does not cover; R_rev extends
/// R with exactly those two post-dummy cases (see clause_R_rev).
///
/// All three relations share one shape: the two directed graphs are equal
/// and a per-node *clause* holds at every node, where u's clause reads only
/// u's list, u's parity and u's constant in-/out-neighbour sets.  Each
/// relation is defined once, by its clause, and ClauseRelation derives the
/// two forms the checker needs from it: the full relation, and a local
/// form that re-checks only what a step can have changed — the proofs of
/// Lemmas 5.1 and 5.3 rest on a step of u touching only u's incident
/// edges, u's parity and the lists of u and its neighbours.

namespace lr {

// ---------------------------------------------------------------------------
// Per-node clauses
// ---------------------------------------------------------------------------

/// R' at u: s.list[u] = t.list[u].
bool clause_R_prime(const PartialReversalState& s, const PartialReversalState& t, NodeId u);

/// R at u: parity[u] even => s.list[u] ⊆ out-nbrs_u, odd => s.list[u] ⊆
/// in-nbrs_u.
bool clause_R(const PartialReversalState& s, const NewPRAutomaton& t, NodeId u);

/// R_rev at u (t the NewPR state, s the OneStepPR state), one of:
///   (1) parity[u] even and s.list[u] ⊆ out-nbrs_u            (as in R)
///   (2) parity[u] odd  and s.list[u] ⊆ in-nbrs_u             (as in R)
///   (3) parity[u] even, out-nbrs_u = ∅, s.list[u] = nbrs_u   (initial sink,
///       dummy already taken, real reversal of in-nbrs pending)
///   (4) parity[u] odd,  in-nbrs_u = ∅,  s.list[u] = nbrs_u   (initial
///       source, dummy already taken, real reversal of out-nbrs pending)
bool clause_R_rev(const NewPRAutomaton& t, const PartialReversalState& s, NodeId u);

// ---------------------------------------------------------------------------
// The relation forms derived from a clause
// ---------------------------------------------------------------------------

/// (a, b) ∈ Rel iff a.G' = b.G' and Clause(a, b, u) for every node u.
/// Both forms are allocation-free and add the clauses they evaluate to a
/// caller-owned counter.
template <typename A, typename B, bool (*Clause)(const A&, const B&, NodeId)>
class ClauseRelation {
 public:
  /// The full relation: O(n + m).
  bool operator()(const A& a, const B& b) const {
    std::uint64_t clause_checks = 0;
    return holds(a, b, clause_checks);
  }

  /// The full relation, adding the n clause evaluations to `clause_checks`.
  bool holds(const A& a, const B& b, std::uint64_t& clause_checks) const {
    if (!(a.orientation() == b.orientation())) return false;
    const std::size_t n = a.graph().num_nodes();
    for (NodeId u = 0; u < n; ++u) {
      ++clause_checks;
      if (!Clause(a, b, u)) return false;
    }
    return true;
  }

  /// The local form: the edges incident to a node of `fired` and the
  /// clauses of their closed neighbourhoods.  It equals the full relation
  /// after a step if the full relation held before it and the step changed
  /// nothing but the fired nodes' incident edges, their parities and the
  /// lists of their closed neighbourhoods.  Costs O(Σ over fired u of the
  /// degrees in u's closed neighbourhood) and evaluates at most
  /// Σ (deg(u) + 1) clauses.
  bool holds_near(const A& a, const B& b, std::span<const NodeId> fired,
                  std::uint64_t& clause_checks) const {
    const Orientation& ao = a.orientation();
    const Orientation& bo = b.orientation();
    for (const NodeId u : fired) {
      const auto nbrs = a.graph().neighbors(u);
      for (const Incidence& inc : nbrs) {
        if (ao.sense(inc.edge) != bo.sense(inc.edge)) return false;
      }
      ++clause_checks;
      if (!Clause(a, b, u)) return false;
      for (const Incidence& inc : nbrs) {
        ++clause_checks;
        if (!Clause(a, b, inc.neighbor)) return false;
      }
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// R' : PR -> OneStepPR (Section 5.2)
// ---------------------------------------------------------------------------

/// (s, t) ∈ R'  iff  s.G' = t.G' and s.list[u] = t.list[u] for all u.
inline constexpr ClauseRelation<PartialReversalState, PartialReversalState, &clause_R_prime>
    relation_R_prime{};

/// Lemma 5.1's step mapping: reverse(S) with S = {u1, ..., un} corresponds
/// to the OneStepPR sequence reverse(u1), ..., reverse(un) (any order; we
/// keep S's order).
inline std::vector<NodeId> correspondence_R_prime(const PRAutomaton& /*s*/,
                                                  const std::vector<NodeId>& action,
                                                  const OneStepPRAutomaton& /*t*/) {
  return action;
}

// ---------------------------------------------------------------------------
// R : OneStepPR -> NewPR (Section 5.3)
// ---------------------------------------------------------------------------

/// (s, t) ∈ R iff s.G' = t.G', and for each node u:
///   parity[u] = even  =>  s.list[u] ⊆ out-nbrs_u,
///   parity[u] = odd   =>  s.list[u] ⊆ in-nbrs_u.
inline constexpr ClauseRelation<PartialReversalState, NewPRAutomaton, &clause_R> relation_R{};

/// Lemma 5.3's step mapping: one reverse(w), except two consecutive
/// reverse(w) when s.list[w] = nbrs_w (NewPR needs a dummy step first).
inline std::vector<NodeId> correspondence_R(const OneStepPRAutomaton& s, NodeId action,
                                            const NewPRAutomaton& /*t*/) {
  if (s.list_full(action)) return {action, action};
  return {action};
}

// ---------------------------------------------------------------------------
// Reverse direction: NewPR -> OneStepPR (the paper's proposed extension)
// ---------------------------------------------------------------------------

/// R_rev extends R (with the roles of the automata swapped) by the two
/// "post-dummy" states that arise because a dummy NewPR step maps to *zero*
/// OneStepPR steps: (t, s) ∈ R_rev iff t.G' = s.G' and clause_R_rev holds
/// at every node.
inline constexpr ClauseRelation<NewPRAutomaton, PartialReversalState, &clause_R_rev>
    reverse_relation_R{};

/// Step mapping for the reverse direction: a dummy step corresponds to the
/// empty OneStepPR sequence; a real step corresponds to reverse(u).
inline std::vector<NodeId> correspondence_R_reverse(const NewPRAutomaton& t, NodeId action,
                                                    const OneStepPRAutomaton& /*s*/) {
  if (t.would_be_dummy_step(action)) return {};
  return {action};
}

// ---------------------------------------------------------------------------
// OneStepPR -> PR (completes the cycle of relations; trivial direction)
// ---------------------------------------------------------------------------

/// A OneStepPR step reverse(u) is the PR set step reverse({u}).
inline std::vector<std::vector<NodeId>> correspondence_one_step_to_set(
    const OneStepPRAutomaton& /*s*/, NodeId action, const PRAutomaton& /*t*/) {
  return {{action}};
}

}  // namespace lr
