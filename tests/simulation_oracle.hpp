#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "automata/simulation.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"

/// \file simulation_oracle.hpp
/// Test oracle for the Section 5 checker: the relations written directly
/// from their set definitions over freshly built neighbour vectors, and a
/// checker that evaluates the whole relation after every step.  It shares
/// no code with core/relations.hpp or the checkpointed, local checker of
/// automata/simulation.hpp, so the equivalence tests and bench_e5's E5.4
/// compare two independent implementations.  Cost: O(n + m) allocations
/// and work per step.

namespace lr::oracle {

inline bool is_subset(const std::vector<NodeId>& sub, const std::vector<NodeId>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

/// R': same G', same lists.
inline bool relation_R_prime(const PartialReversalState& s, const PartialReversalState& t) {
  return s.orientation() == t.orientation() && s.lists_equal(t);
}

/// R: same G'; parity even => list ⊆ out-nbrs, odd => list ⊆ in-nbrs.
inline bool relation_R(const PartialReversalState& s, const NewPRAutomaton& t) {
  if (!(s.orientation() == t.orientation())) return false;
  for (NodeId u = 0; u < s.graph().num_nodes(); ++u) {
    const auto list = s.list(u);
    if (list.empty()) continue;
    const bool ok = t.parity(u) == Parity::kEven ? is_subset(list, s.initial_out_neighbors(u))
                                                 : is_subset(list, s.initial_in_neighbors(u));
    if (!ok) return false;
  }
  return true;
}

/// R_rev: R's cases plus the two post-dummy cases.
inline bool reverse_relation_R(const NewPRAutomaton& t, const PartialReversalState& s) {
  if (!(t.orientation() == s.orientation())) return false;
  const Graph& g = t.graph();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto list = s.list(u);
    const auto in_nbrs = s.initial_in_neighbors(u);
    const auto out_nbrs = s.initial_out_neighbors(u);
    const bool even = t.parity(u) == Parity::kEven;
    const bool case_regular = even ? is_subset(list, out_nbrs) : is_subset(list, in_nbrs);
    const bool case_post_dummy_sink = even && out_nbrs.empty() && list.size() == g.degree(u);
    const bool case_post_dummy_source = !even && in_nbrs.empty() && list.size() == g.degree(u);
    if (!case_regular && !case_post_dummy_sink && !case_post_dummy_source) return false;
  }
  return true;
}

/// The every-step checker: `relation` evaluated in full after each step.
/// Same contract and failure texts (minus the "caught by" note) as
/// lr::check_forward_simulation.
template <typename C, typename B, typename Scheduler, typename Relation, typename Correspondence>
SimulationCheckResult check_forward_simulation(C& concrete, B& abstract, Scheduler& scheduler,
                                               Relation&& relation, Correspondence&& correspond,
                                               std::uint64_t max_steps = 1'000'000) {
  SimulationCheckResult result;
  if (!relation(concrete, abstract)) {
    result.ok = false;
    result.failure = "relation does not hold between the initial states";
    return result;
  }
  while (result.concrete_steps < max_steps) {
    const auto action = scheduler.choose(concrete);
    if (!action) break;
    const auto abstract_actions = correspond(concrete, *action, abstract);
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
      abstract.apply(abstract_action);
      ++result.abstract_steps;
    }
    if (!relation(concrete, abstract)) {
      result.ok = false;
      std::ostringstream oss;
      oss << "relation violated after concrete step " << result.concrete_steps << " ("
          << abstract_actions.size() << " abstract steps applied)";
      result.failure = oss.str();
      return result;
    }
  }
  return result;
}

}  // namespace lr::oracle
