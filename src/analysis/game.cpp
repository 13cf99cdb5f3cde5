#include "analysis/game.hpp"

#include <algorithm>
#include <sstream>

#include "core/full_reversal.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"

namespace lr {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kFullReversal:
      return "FR";
    case Strategy::kPartialReversal:
      return "PR";
    case Strategy::kNewPR:
      return "NewPR";
  }
  return "?";
}

const char* scheduler_name(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kLowestId:
      return "lowest-id";
    case SchedulerKind::kRandom:
      return "random";
    case SchedulerKind::kRoundRobin:
      return "round-robin";
    case SchedulerKind::kFarthestFirst:
      return "farthest-first";
  }
  return "?";
}

std::uint64_t CostProfile::max_node_cost() const {
  if (node_cost.empty()) return 0;
  return *std::max_element(node_cost.begin(), node_cost.end());
}

namespace {

template <typename A>
CostProfile run_strategy(A automaton, Strategy strategy, SchedulerKind scheduler,
                         std::uint64_t seed, const RunOptions& options) {
  CostProfile profile;
  profile.strategy = strategy;
  profile.node_cost.assign(automaton.graph().num_nodes(), 0);

  const auto observer = [&profile](const A&, NodeId u) { ++profile.node_cost[u]; };
  const RunResult result = with_single_scheduler(scheduler, seed, [&](auto&& s) {
    return run_to_quiescence(automaton, s, observer, options);
  });
  profile.social_cost = result.steps;
  profile.edge_reversals = result.edge_reversals;
  profile.converged = result.quiescent && result.destination_oriented;
  if constexpr (std::is_same_v<A, NewPRAutomaton>) {
    profile.dummy_steps = automaton.dummy_steps();
  }
  return profile;
}

}  // namespace

CostProfile measure_cost(const Instance& instance, Strategy strategy, SchedulerKind scheduler,
                         std::uint64_t seed, const RunOptions& options) {
  switch (strategy) {
    case Strategy::kFullReversal:
      return run_strategy(FullReversalAutomaton(instance), strategy, scheduler, seed, options);
    case Strategy::kPartialReversal:
      return run_strategy(OneStepPRAutomaton(instance), strategy, scheduler, seed, options);
    case Strategy::kNewPR:
      return run_strategy(NewPRAutomaton(instance), strategy, scheduler, seed, options);
  }
  return {};
}

std::vector<std::uint64_t> measure_profile_costs(const Instance& instance,
                                                 const std::vector<NodeStrategy>& profile) {
  HybridStrategyAutomaton automaton(instance, profile);
  std::vector<std::uint64_t> costs(instance.graph.num_nodes(), 0);
  LowestIdScheduler scheduler;
  run_to_quiescence(automaton, scheduler,
                    [&costs](const HybridStrategyAutomaton&, NodeId u) { ++costs[u]; });
  return costs;
}

NashCheckResult check_nash_equilibrium(const Instance& instance,
                                       const std::vector<NodeStrategy>& profile) {
  const std::vector<std::uint64_t> base_costs = measure_profile_costs(instance, profile);
  NashCheckResult result;
  for (NodeId u = 0; u < instance.graph.num_nodes(); ++u) {
    if (u == instance.destination) continue;  // the destination never plays
    std::vector<NodeStrategy> deviation = profile;
    deviation[u] = deviation[u] == NodeStrategy::kFullReversal
                       ? NodeStrategy::kPartialReversal
                       : NodeStrategy::kFullReversal;
    const std::vector<std::uint64_t> deviated_costs =
        measure_profile_costs(instance, deviation);
    if (deviated_costs[u] < base_costs[u]) {
      result.is_equilibrium = false;
      result.improving_node = u;
      result.cost_before = base_costs[u];
      result.cost_after = deviated_costs[u];
      return result;
    }
  }
  return result;
}

bool pareto_dominates(const CostProfile& a, const CostProfile& b) {
  if (a.node_cost.size() != b.node_cost.size()) return false;
  for (std::size_t i = 0; i < a.node_cost.size(); ++i) {
    if (a.node_cost[i] > b.node_cost[i]) return false;
  }
  return true;
}

std::string compare_line(const Instance& instance, const CostProfile& fr, const CostProfile& pr,
                         const CostProfile& newpr) {
  std::ostringstream oss;
  oss << instance.name << ": FR=" << fr.social_cost << " PR=" << pr.social_cost
      << " NewPR=" << newpr.social_cost << " (dummy=" << newpr.dummy_steps << ")"
      << " ratio(FR/PR)=";
  if (pr.social_cost == 0) {
    oss << "inf";
  } else {
    oss << static_cast<double>(fr.social_cost) / static_cast<double>(pr.social_cost);
  }
  return oss.str();
}

}  // namespace lr
