#pragma once

#include <cstdint>
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
/// EnginePolicy values reproduce the exact choice sequences of the first
/// four schedulers below (tests/reversal_engine_test.cpp).
///
/// RandomScheduler, LowestIdScheduler and RoundRobinScheduler are each one
/// query on the orientation's sink index (graph/sink_index.hpp) skipping
/// the destination, O(log n) words per choice — the query the engine asks
/// of its own index.  The other three scan the index for the sink with the
/// least key under their own order, O(n/4096 + #sinks) per choice.
/// tests/scheduler_test.cpp pins all six against choosers that test
/// enabled(u) for every id.

namespace lr {

/// The enabled sink (a sink other than the destination) with the least
/// `key(u)`, or nullopt at quiescence; each key includes the node id, so
/// keys are distinct.  Selects, not a branch, keep the running minimum: an ascending
/// scan for a max order's key takes the update at every tie.
template <SingleStepAutomaton A, typename Key>
std::optional<NodeId> least_enabled_sink(const A& automaton, Key key) {
  NodeId best = kNoNode;
  decltype(key(NodeId{})) best_key{};
  automaton.orientation().sinks().for_each([&](NodeId u) {
    const auto k = key(u);
    const bool take = (u != automaton.destination()) & ((best == kNoNode) | (k < best_key));
    best = take ? u : best;
    best_key = take ? k : best_key;
  });
  return best == kNoNode ? std::nullopt : std::optional<NodeId>(best);
}

/// Picks uniformly at random among enabled sinks: one draw k per choice,
/// firing the k-th smallest id.
class RandomScheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}

  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) {
    const SinkIndex& sinks = automaton.orientation().sinks();
    const std::size_t enabled = sinks.size() - (sinks.contains(automaton.destination()) ? 1 : 0);
    if (enabled == 0) return std::nullopt;
    std::uniform_int_distribution<std::size_t> pick(0, enabled - 1);
    return sinks.select(pick(rng_), automaton.destination());
  }

 private:
  std::mt19937_64 rng_;
};

/// Deterministic: always fires the smallest-id enabled sink.
class LowestIdScheduler {
 public:
  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) const {
    const NodeId u = automaton.orientation().sinks().next(0, automaton.destination());
    return u == kNoNode ? std::nullopt : std::optional<NodeId>(u);
  }
};

/// Round-robin: cycles through node ids, firing the next enabled sink at
/// or after the cursor (wrapping round).  Models a fair scheduler.
class RoundRobinScheduler {
 public:
  template <SingleStepAutomaton A>
  std::optional<NodeId> choose(const A& automaton) {
    const SinkIndex& sinks = automaton.orientation().sinks();
    NodeId u = sinks.next(cursor_, automaton.destination());
    if (u == kNoNode) u = sinks.next(0, automaton.destination());
    if (u == kNoNode) return std::nullopt;
    cursor_ = static_cast<NodeId>((u + 1) % automaton.graph().num_nodes());
    return u;
  }

 private:
  NodeId cursor_ = 0;
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
    return least_enabled_sink(automaton, [this](NodeId u) {
      return ~(std::uint64_t{distance_[u]} << 32 | u);  // max (distance, id)
    });
  }

 private:
  void compute_distances(const Graph& g, NodeId destination) {
    distance_.assign(g.num_nodes(), std::numeric_limits<std::uint32_t>::max());
    std::queue<NodeId> frontier;
    distance_[destination] = 0;
    frontier.push(destination);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (const NodeId v : g.neighbors(u)) {
        if (distance_[v] == std::numeric_limits<std::uint32_t>::max()) {
          distance_[v] = distance_[u] + 1;
          frontier.push(v);
        }
      }
    }
  }

  std::vector<std::uint32_t> distance_;  // unreachable nodes rank farthest
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
    const auto pick = least_enabled_sink(
        automaton, [this](NodeId u) { return std::pair(last_fired_[u], u); });
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
    return least_enabled_sink(automaton, [&g](NodeId u) {
      return ~(std::uint64_t{g.degree(u)} << 32 | u);  // max (degree, id)
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
