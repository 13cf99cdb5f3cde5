#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "automata/concepts.hpp"

/// \file simulation.hpp
/// Mechanical checking of forward simulation relations (Section 5).
///
/// A forward simulation from concrete automaton C to abstract automaton B
/// consists of a relation R over (state of C, state of B) such that
///  (a) related initial states exist, and
///  (b) for every concrete step from an R-related pair there is a finite
///      abstract step sequence re-establishing R (Lemmas 5.1 / 5.3).
///
/// The checker below validates (b) *along an execution*: it drives the
/// concrete automaton with a scheduler, asks a step-correspondence function
/// for the matching abstract action sequence, applies both, and verifies R
/// after every matched pair.  This does not constitute a proof (the paper
/// supplies that); it is the executable counterpart that catches any
/// implementation divergence from the paper's argument.
///
/// Verifying R after a step does not need the whole state.  For a relation
/// with a local form (core/relations.hpp) the checker re-checks only the
/// fired nodes' neighbourhoods after most steps, and checks R in full at
/// the initial state, after steps 1, 2, 4, 8, … and at the final state.
/// The verdict is exact as long as both automata change nothing outside
/// the fired nodes' footprint.  A stray write outside it is caught only if
/// it lasts until the next full check, which may be at a later step than
/// the write; one undone before then goes unseen.  Checking costs
/// O(touched degree) per step plus O((n + m) · log steps) overall.

namespace lr {

struct SimulationCheckResult {
  bool ok = true;
  std::uint64_t concrete_steps = 0;   ///< concrete actions fired
  std::uint64_t abstract_steps = 0;   ///< abstract actions fired in response
  std::uint64_t clause_checks = 0;    ///< per-node clauses evaluated (local
                                      ///< relations only; 0 otherwise)
  std::string failure;                ///< human-readable diagnosis when !ok

  explicit operator bool() const noexcept { return ok; }
};

/// A relation with a local form, like the ClauseRelation instances of
/// core/relations.hpp: `holds` is the full relation and `holds_near` the
/// re-check after a step whose fired nodes are given; both count the
/// clauses they evaluate.
template <typename R, typename C, typename B>
concept LocalRelation = requires(const R& r, const C& c, const B& b,
                                 std::span<const NodeId> fired, std::uint64_t& clause_checks) {
  { r.holds(c, b, clause_checks) } -> std::same_as<bool>;
  { r.holds_near(c, b, fired, clause_checks) } -> std::same_as<bool>;
};

namespace detail {

inline void append_fired(std::vector<NodeId>& fired, NodeId u) { fired.push_back(u); }

inline void append_fired(std::vector<NodeId>& fired, const std::vector<NodeId>& set) {
  fired.insert(fired.end(), set.begin(), set.end());
}

}  // namespace detail

/// Checks a forward simulation along one execution.
///
/// \param concrete   the low-level automaton (e.g. PR)
/// \param abstract   the high-level automaton (e.g. OneStepPR)
/// \param scheduler  drives the concrete automaton; any scheduler type whose
///                   choose(concrete) yields std::optional<C::Action>
/// \param relation   the relation R: a LocalRelation, checked as described
///                   in the file comment, or any callable
///                   (const C&, const B&) -> bool, which has no cheaper
///                   local form and is evaluated after every step
/// \param correspond callable (const C&, const C::Action&, const B&)
///                   -> std::vector<B::Action>, Lemma 5.x's step mapping,
///                   evaluated *before* the concrete step fires
/// \param max_steps  execution length bound
template <typename C, typename B, typename Scheduler, typename Relation, typename Correspondence>
SimulationCheckResult check_forward_simulation(C& concrete, B& abstract, Scheduler& scheduler,
                                               Relation&& relation, Correspondence&& correspond,
                                               std::uint64_t max_steps = 1'000'000) {
  constexpr bool kLocal = LocalRelation<std::remove_cvref_t<Relation>, C, B>;
  SimulationCheckResult result;
  std::vector<NodeId> fired;  // nodes the current step fired, in either automaton
  std::size_t step_abstract_actions = 0;

  // The full relation if `full`, else its local form around `fired`; an
  // opaque relation is always evaluated in full.
  const auto holds = [&](bool full) {
    if constexpr (kLocal) {
      if (full) return relation.holds(concrete, abstract, result.clause_checks);
      std::sort(fired.begin(), fired.end());
      fired.erase(std::unique(fired.begin(), fired.end()), fired.end());
      return relation.holds_near(concrete, abstract, std::span<const NodeId>(fired),
                                 result.clause_checks);
    } else {
      return static_cast<bool>(relation(concrete, abstract));
    }
  };
  const auto violated = [&](const char* caught_by) {
    result.ok = false;
    std::ostringstream oss;
    oss << "relation violated after concrete step " << result.concrete_steps << " ("
        << step_abstract_actions << " abstract steps applied; caught by the " << caught_by
        << ")";
    result.failure = oss.str();
    return result;
  };

  if (!holds(true)) {
    result.ok = false;
    result.failure = "relation does not hold between the initial states";
    return result;
  }
  while (result.concrete_steps < max_steps) {
    const auto action = scheduler.choose(concrete);
    if (!action) break;  // concrete automaton quiescent under this scheduler

    const auto abstract_actions = correspond(concrete, *action, abstract);
    step_abstract_actions = abstract_actions.size();

    fired.clear();
    detail::append_fired(fired, *action);
    concrete.apply(*action);
    ++result.concrete_steps;

    for (const auto& abstract_action : abstract_actions) {
      if (!abstract.enabled(abstract_action)) {
        result.ok = false;
        std::ostringstream oss;
        oss << "abstract action not enabled at concrete step " << result.concrete_steps;
        result.failure = oss.str();
        return result;
      }
      detail::append_fired(fired, abstract_action);
      abstract.apply(abstract_action);
      ++result.abstract_steps;
    }

    const bool checkpoint = std::has_single_bit(result.concrete_steps);
    if (!holds(checkpoint)) {
      return violated(!kLocal      ? "full check"
                      : checkpoint ? "checkpoint full check"
                                   : "local check");
    }
  }
  // The last step's state was checked in full already if it was a
  // checkpoint (or if no step fired).
  if (kLocal && result.concrete_steps > 0 && !std::has_single_bit(result.concrete_steps) &&
      !holds(true)) {
    return violated("final full check");
  }
  return result;
}

}  // namespace lr
