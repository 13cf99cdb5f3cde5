#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "automata/executor.hpp"
#include "automata/scheduler.hpp"
#include "core/hybrid.hpp"
#include "graph/generators.hpp"

/// \file game.hpp
/// The Charron-Bost–Welch–Widder game-theoretic comparison of link-reversal
/// strategies ("Link reversal: how to play better to work less"), which the
/// paper cites to explain why PR beats FR in practice despite identical
/// worst-case bounds.
///
/// Each node's *strategy* is how much it reverses when it fires (all edges
/// for FR; the non-listed edges for PR; the parity-selected constant set
/// for NewPR).  A node's *cost* is the number of reverse actions it takes
/// before global quiescence; the *social cost* is the sum.  We measure
/// these profiles per instance, per strategy, per scheduler, and report the
/// comparisons E3 relies on:
///   * social_cost(PR) ≤ social_cost(FR) on every tested instance,
///   * NewPR = PR + dummy steps.

namespace lr {

enum class Strategy : std::uint8_t { kFullReversal, kPartialReversal, kNewPR };

const char* strategy_name(Strategy s);

enum class SchedulerKind : std::uint8_t { kLowestId, kRandom, kRoundRobin, kFarthestFirst };

const char* scheduler_name(SchedulerKind k);

/// Applies `f` (taking `auto&&`) to a fresh single-step scheduler of kind
/// `kind`, seeded with `seed` if it draws.  Schedulers are stateful
/// templates, so every SchedulerKind dispatch goes through here.
template <typename F>
decltype(auto) with_single_scheduler(SchedulerKind kind, std::uint64_t seed, F&& f) {
  switch (kind) {
    case SchedulerKind::kLowestId:
      return f(LowestIdScheduler{});
    case SchedulerKind::kRandom:
      return f(RandomScheduler(seed));
    case SchedulerKind::kRoundRobin:
      return f(RoundRobinScheduler{});
    case SchedulerKind::kFarthestFirst:
      return f(FarthestFirstScheduler{});
  }
  throw std::invalid_argument("unknown scheduler kind");
}

/// Work profile of one strategy on one instance under one scheduler.
struct CostProfile {
  Strategy strategy = Strategy::kPartialReversal;
  std::vector<std::uint64_t> node_cost;  ///< reverse actions per node
  std::uint64_t social_cost = 0;         ///< total actions (the game's objective)
  std::uint64_t dummy_steps = 0;         ///< NewPR only
  std::uint64_t edge_reversals = 0;
  bool converged = false;

  std::uint64_t max_node_cost() const;
};

/// Runs `strategy` on `instance` under `scheduler` and returns the profile.
/// `options` bounds the execution (the scenario runner passes its per-run
/// step budget through here so swept and standalone runs behave alike).
CostProfile measure_cost(const Instance& instance, Strategy strategy, SchedulerKind scheduler,
                         std::uint64_t seed, const RunOptions& options = {});

/// True iff profile `a` weakly Pareto-dominates `b`: every node's cost in
/// `a` is <= its cost in `b`.
bool pareto_dominates(const CostProfile& a, const CostProfile& b);

/// Human-readable one-line comparison for harness output.
std::string compare_line(const Instance& instance, const CostProfile& fr, const CostProfile& pr,
                         const CostProfile& newpr);

// ---------------------------------------------------------------------------
// The strategy game proper (per-node strategy profiles; hybrid.hpp)
// ---------------------------------------------------------------------------

/// Runs a strategy profile to quiescence (lowest-id scheduler; per-node
/// work is schedule-independent, so the scheduler choice is immaterial and
/// tested to be) and returns each node's cost.
std::vector<std::uint64_t> measure_profile_costs(const Instance& instance,
                                                 const std::vector<NodeStrategy>& profile);

struct NashCheckResult {
  bool is_equilibrium = true;
  NodeId improving_node = kNoNode;        ///< a node whose deviation pays off
  std::uint64_t cost_before = 0;          ///< its cost under the profile
  std::uint64_t cost_after = 0;           ///< its cost after deviating
};

/// Checks whether `profile` is a Nash equilibrium of the reversal game on
/// `instance`: no single node can strictly lower its own cost by switching
/// its strategy (FR <-> PR).  O(n) full executions.
NashCheckResult check_nash_equilibrium(const Instance& instance,
                                       const std::vector<NodeStrategy>& profile);

}  // namespace lr
