#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <random>
#include <vector>

#include "automata/concepts.hpp"
#include "graph/digraph_algos.hpp"

/// \file scheduler.hpp
/// Schedulers resolve the nondeterminism of the I/O-automaton model: at
/// each point they choose which enabled action fires next.  The paper's
/// safety results (acyclicity, the invariants, the simulation relations)
/// must hold under *every* scheduler, so the test suite sweeps all of the
/// strategies below; the work/convergence experiments (E2, E3, E6) compare
/// them quantitatively.
///
/// A single-step scheduler's `choose(automaton)` returns the next node to
/// fire, or nullopt when the automaton is quiescent.  A set scheduler
/// returns a non-empty set of sinks (pairwise non-adjacent automatically:
/// no two neighbors can both be sinks).
///
/// These schedulers are the *reference* path: one observable action per
/// choose() call, so invariant checkers, traces, and the model checker can
/// watch every intermediate state.  Production sweeps and benches run the
/// batched CSR engine instead (core/reversal_engine.hpp), whose
/// EnginePolicy values reproduce the exact choice sequences of
/// LowestIdScheduler / RandomScheduler / RoundRobinScheduler /
/// FarthestFirstScheduler over a flat sink worklist — the two paths are
/// interchangeable by construction and tests/reversal_engine_test.cpp
/// keeps them that way.
///
/// The single-step schedulers other than RoundRobinScheduler choose
/// straight from the orientation's unordered sink set in O(#sinks),
/// without materialising the sorted enabled_sinks() vector; each picks
/// the same node it would pick from that vector (tests/scheduler_test.cpp
/// pins all six against it).  RoundRobinScheduler walks node ids forward
/// from its cursor instead: cheap while sinks are dense, O(n) per choice
/// when they are sparse.

namespace lr {

/// The enabled sink (a sink other than the destination) that is least
/// under the strict total order `less`, or nullopt at quiescence.  A total
/// order makes the choice independent of how the sink set is ordered.
template <SingleStepAutomaton A, typename Less>
std::optional<NodeId> least_enabled_sink(const A& automaton, Less less) {
  std::optional<NodeId> best;
  for (const NodeId u : automaton.orientation().sinks()) {
    if (u == automaton.destination()) continue;
    if (!best || less(u, *best)) best = u;
  }
  return best;
}

/// Picks uniformly at random among enabled sinks: one draw k per choice,
/// firing the k-th smallest id.
class RandomScheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}

  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) {
    const auto sinks = automaton.orientation().sinks();
    candidates_.clear();
    for (const NodeId u : sinks) {
      if (u != automaton.destination()) candidates_.push_back(u);
    }
    if (candidates_.empty()) return std::nullopt;
    std::uniform_int_distribution<std::size_t> pick(0, candidates_.size() - 1);
    const auto kth = candidates_.begin() + static_cast<std::ptrdiff_t>(pick(rng_));
    std::nth_element(candidates_.begin(), kth, candidates_.end());
    return *kth;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<NodeId> candidates_;  // reused across choices
};

/// Deterministic: always fires the smallest-id enabled sink.
class LowestIdScheduler {
 public:
  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) const {
    return least_enabled_sink(automaton, std::less<NodeId>{});
  }
};

/// Round-robin: cycles through node ids, firing the next enabled sink at
/// or after the cursor.  Models a fair scheduler.
class RoundRobinScheduler {
 public:
  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) {
    const std::size_t n = automaton.graph().num_nodes();
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId candidate = static_cast<NodeId>((cursor_ + i) % n);
      if (candidate != automaton.destination() && automaton.enabled(candidate)) {
        cursor_ = (candidate + 1) % n;
        return candidate;
      }
    }
    return std::nullopt;
  }

 private:
  std::size_t cursor_ = 0;
};

/// Adversarial heuristic: fires the enabled sink whose undirected distance
/// to the destination is largest (ties by id).  Reversal work tends to grow
/// with how far disorder is from the destination, so this approximates a
/// work-maximizing adversary for experiment E2/E6.
class FarthestFirstScheduler {
 public:
  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) {
    if (distance_.empty()) compute_distances(automaton.graph(), automaton.destination());
    return least_enabled_sink(automaton, [this](NodeId a, NodeId b) {
      return std::pair(distance_[a], a) > std::pair(distance_[b], b);
    });
  }

 private:
  void compute_distances(const Graph& g, NodeId destination) {
    distance_.assign(g.num_nodes(), std::numeric_limits<std::size_t>::max());
    std::queue<NodeId> frontier;
    distance_[destination] = 0;
    frontier.push(destination);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (const Incidence& inc : g.neighbors(u)) {
        if (distance_[inc.neighbor] == std::numeric_limits<std::size_t>::max()) {
          distance_[inc.neighbor] = distance_[u] + 1;
          frontier.push(inc.neighbor);
        }
      }
    }
  }

  std::vector<std::size_t> distance_;
};

/// Replays a fixed node sequence; `choose` fails (returns nullopt) past the
/// end or if the scripted node is not enabled.  Used by trace replay and by
/// the simulation-relation checker to drive two automata identically.
class ReplayScheduler {
 public:
  explicit ReplayScheduler(std::vector<NodeId> script) : script_(std::move(script)) {}

  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) {
    if (next_ >= script_.size()) return std::nullopt;
    const NodeId u = script_[next_];
    if (!automaton.enabled(u)) return std::nullopt;
    ++next_;
    return u;
  }

  std::size_t consumed() const noexcept { return next_; }

 private:
  std::vector<NodeId> script_;
  std::size_t next_ = 0;
};

/// Fairness-maximizing: fires the enabled sink that has waited longest
/// since it last fired (never-fired nodes first, by id).  Models the
/// "oldest request first" policies common in real schedulers.
class LeastRecentlyFiredScheduler {
 public:
  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) {
    if (last_fired_.size() < automaton.graph().num_nodes()) {
      last_fired_.assign(automaton.graph().num_nodes(), 0);
    }
    const auto pick = least_enabled_sink(automaton, [this](NodeId a, NodeId b) {
      return std::pair(last_fired_[a], a) < std::pair(last_fired_[b], b);
    });
    if (pick) last_fired_[*pick] = ++clock_;
    return pick;
  }

 private:
  std::vector<std::uint64_t> last_fired_;
  std::uint64_t clock_ = 0;
};

/// Degree-greedy: fires the enabled sink with the most incident edges
/// (ties by id).  Maximizes the number of edges flipped per PR/FR step; a
/// useful contrast scheduler for the convergence experiments.
class MaxDegreeScheduler {
 public:
  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) const {
    const Graph& g = automaton.graph();
    return least_enabled_sink(automaton, [&g](NodeId a, NodeId b) {
      return std::pair(g.degree(a), a) > std::pair(g.degree(b), b);
    });
  }
};

// ---------------------------------------------------------------------------
// Set schedulers (for the paper's PR automaton, Algorithm 1)
// ---------------------------------------------------------------------------

/// Fires *all* current sinks together — the maximal concurrent step.  This
/// is the "greedy" execution studied in the link-reversal literature, where
/// executions proceed in rounds.
class MaximalSetScheduler {
 public:
  template <SetStepAutomaton A>
  std::optional<std::vector<NodeId>> choose(const A& automaton) const {
    auto sinks = automaton.enabled_sinks();
    if (sinks.empty()) return std::nullopt;
    return sinks;
  }
};

/// Fires a uniformly random non-empty subset of the current sinks.
class RandomSetScheduler {
 public:
  explicit RandomSetScheduler(std::uint64_t seed) : rng_(seed) {}

  template <SetStepAutomaton A>
  std::optional<std::vector<NodeId>> choose(const A& automaton) {
    const auto sinks = automaton.enabled_sinks();
    if (sinks.empty()) return std::nullopt;
    std::vector<NodeId> subset;
    std::bernoulli_distribution flip(0.5);
    for (const NodeId u : sinks) {
      if (flip(rng_)) subset.push_back(u);
    }
    if (subset.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, sinks.size() - 1);
      subset.push_back(sinks[pick(rng_)]);
    }
    return subset;
  }

 private:
  std::mt19937_64 rng_;
};

/// Fires one random sink at a time through the set interface (singleton
/// sets); the set-automaton analogue of RandomScheduler.
class SingletonSetScheduler {
 public:
  explicit SingletonSetScheduler(std::uint64_t seed) : rng_(seed) {}

  template <SetStepAutomaton A>
  std::optional<std::vector<NodeId>> choose(const A& automaton) {
    const auto sinks = automaton.enabled_sinks();
    if (sinks.empty()) return std::nullopt;
    std::uniform_int_distribution<std::size_t> pick(0, sinks.size() - 1);
    return std::vector<NodeId>{sinks[pick(rng_)]};
  }

 private:
  std::mt19937_64 rng_;
};

}  // namespace lr
