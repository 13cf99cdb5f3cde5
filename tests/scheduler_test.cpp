#include "automata/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "automata/executor.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"
#include "graph/generators.hpp"

namespace lr {
namespace {

TEST(SchedulerTest, LowestIdPicksSmallestSink) {
  Graph g(3, {{0, 1}, {1, 2}});
  Orientation o(g, {EdgeSense::kBackward, EdgeSense::kForward});  // 1->0, 1->2
  OneStepPRAutomaton pr(g, std::move(o), 1);                      // destination: the source
  LowestIdScheduler scheduler;
  const auto choice = scheduler.choose(pr);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(*choice, 0u);
}

TEST(SchedulerTest, AllSchedulersReturnNulloptAtQuiescence) {
  // Chain oriented towards destination 0: already quiescent.
  Graph g(3, {{0, 1}, {1, 2}});
  Orientation o(g, {EdgeSense::kBackward, EdgeSense::kBackward});
  OneStepPRAutomaton pr(g, std::move(o), 0);
  ASSERT_TRUE(pr.quiescent());

  LowestIdScheduler lowest;
  RandomScheduler random(1);
  RoundRobinScheduler rr;
  FarthestFirstScheduler farthest;
  EXPECT_FALSE(lowest.choose(pr).has_value());
  EXPECT_FALSE(random.choose(pr).has_value());
  EXPECT_FALSE(rr.choose(pr).has_value());
  EXPECT_FALSE(farthest.choose(pr).has_value());
}

TEST(SchedulerTest, RandomSchedulerIsDeterministicGivenSeed) {
  std::mt19937_64 rng(20);
  Instance inst = make_random_instance(20, 12, rng);
  const auto run_with_seed = [&inst](std::uint64_t seed) {
    OneStepPRAutomaton pr(inst);
    RandomScheduler scheduler(seed);
    std::vector<NodeId> fired;
    run_to_quiescence(pr, scheduler,
                      [&fired](const OneStepPRAutomaton&, NodeId u) { fired.push_back(u); });
    return fired;
  };
  EXPECT_EQ(run_with_seed(7), run_with_seed(7));
  // Different seeds overwhelmingly give different schedules on this size.
  EXPECT_NE(run_with_seed(7), run_with_seed(8));
}

TEST(SchedulerTest, ReplayReproducesExecution) {
  std::mt19937_64 rng(21);
  Instance inst = make_random_instance(15, 10, rng);
  OneStepPRAutomaton original(inst);
  RandomScheduler random(99);
  std::vector<NodeId> script;
  run_to_quiescence(original, random,
                    [&script](const OneStepPRAutomaton&, NodeId u) { script.push_back(u); });

  OneStepPRAutomaton replayed(inst);
  ReplayScheduler replay(script);
  const RunResult result = run_to_quiescence(replayed, replay);
  EXPECT_EQ(result.steps, script.size());
  EXPECT_EQ(replay.consumed(), script.size());
  EXPECT_TRUE(original.orientation() == replayed.orientation());
}

TEST(SchedulerTest, ReplayStopsOnNonEnabledNode) {
  Instance inst = make_worst_case_chain(3);
  OneStepPRAutomaton pr(inst);
  ReplayScheduler replay({1});  // node 1 is not a sink initially
  EXPECT_FALSE(replay.choose(pr).has_value());
  EXPECT_EQ(replay.consumed(), 0u);
}

TEST(SchedulerTest, RoundRobinVisitsAllSinksFairly) {
  // On the sink/source star, several leaves are sinks at once; round-robin
  // must cycle through them rather than starving any.
  Instance inst = make_sink_source_instance(11);
  OneStepPRAutomaton pr(inst);
  RoundRobinScheduler scheduler;
  std::set<NodeId> fired_first_round;
  for (int i = 0; i < 4; ++i) {
    const auto choice = scheduler.choose(pr);
    ASSERT_TRUE(choice.has_value());
    EXPECT_TRUE(fired_first_round.insert(*choice).second)
        << "round robin repeated " << *choice << " while other sinks waited";
    pr.apply(*choice);
  }
}

TEST(SchedulerTest, FarthestFirstPicksMostDistantSink) {
  // Star, destination = leaf 1; the initial sinks are the even leaves, all
  // at distance 2 from the destination.  On the away-chain the unique sink
  // is trivially farthest; build a Y-shape instead:
  //   0 - 1 - 2 - 3 and 1 - 4; destination 3; orient everything away from 3.
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {1, 4}});
  // Distances from 3: node 2: 1, node 1: 2, nodes 0, 4: 3.
  // Orientation: edges point towards 0/4 so that 0 and 4 are sinks:
  // 1->0, 2->1, 3->2, 1->4.
  Orientation o(g, {EdgeSense::kBackward, EdgeSense::kBackward, EdgeSense::kBackward,
                    EdgeSense::kForward});
  OneStepPRAutomaton pr(g, std::move(o), 3);
  FarthestFirstScheduler scheduler;
  const auto choice = scheduler.choose(pr);
  ASSERT_TRUE(choice.has_value());
  // Both 0 and 4 are at distance 3; ties break towards the larger id.
  EXPECT_EQ(*choice, 4u);
}

TEST(SchedulerTest, MaximalSetSchedulerFiresAllSinks) {
  Instance inst = make_sink_source_instance(9);
  PRAutomaton pr(inst);
  MaximalSetScheduler scheduler;
  const auto choice = scheduler.choose(pr);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(*choice, pr.enabled_sinks());
  EXPECT_GT(choice->size(), 1u);
}

TEST(SchedulerTest, RandomSetSchedulerReturnsNonEmptySinkSubsets) {
  Instance inst = make_sink_source_instance(9);
  PRAutomaton pr(inst);
  RandomSetScheduler scheduler(33);
  for (int i = 0; i < 10; ++i) {
    const auto choice = scheduler.choose(pr);
    ASSERT_TRUE(choice.has_value());
    ASSERT_FALSE(choice->empty());
    EXPECT_TRUE(pr.enabled(*choice));
  }
}

TEST(SchedulerTest, SingletonSetSchedulerDrivesToQuiescence) {
  Instance inst = make_worst_case_chain(7);
  PRAutomaton pr(inst);
  SingletonSetScheduler scheduler(4);
  const RunResult result = run_to_quiescence_set(pr, scheduler);
  EXPECT_TRUE(result.quiescent);
  EXPECT_TRUE(result.destination_oriented);
  EXPECT_EQ(result.steps, result.node_steps);
}

TEST(SchedulerTest, MaxStepsBudgetRespected) {
  Instance inst = make_worst_case_chain(64);
  OneStepPRAutomaton pr(inst);
  LowestIdScheduler scheduler;
  RunOptions options;
  options.max_steps = 5;
  const RunResult result = run_to_quiescence(pr, scheduler, options);
  EXPECT_EQ(result.steps, 5u);
  EXPECT_FALSE(result.quiescent);
}

// ---------------------------------------------------------------------------
// The six single-step schedulers pinned against reference choosers that
// test enabled(u) for every id, so they share nothing with the sink index
// the schedulers query
// ---------------------------------------------------------------------------

/// The enabled nodes in ascending order, by an O(n) scan of enabled(u).
template <typename A>
std::vector<NodeId> enabled_by_scan(const A& automaton) {
  std::vector<NodeId> enabled;
  for (NodeId u = 0; u < automaton.graph().num_nodes(); ++u) {
    if (automaton.enabled(u)) enabled.push_back(u);
  }
  return enabled;
}

struct ReferenceLowestId {
  template <typename A>
  std::optional<NodeId> choose(const A& automaton) {
    const auto sinks = enabled_by_scan(automaton);
    if (sinks.empty()) return std::nullopt;
    return sinks.front();
  }
};

struct ReferenceRandom {
  std::mt19937_64 rng;

  template <typename A>
  std::optional<NodeId> choose(const A& automaton) {
    const auto sinks = enabled_by_scan(automaton);
    if (sinks.empty()) return std::nullopt;
    std::uniform_int_distribution<std::size_t> pick(0, sinks.size() - 1);
    return sinks[pick(rng)];
  }
};

struct ReferenceRoundRobin {
  std::size_t cursor = 0;

  template <typename A>
  std::optional<NodeId> choose(const A& automaton) {
    const auto sinks = enabled_by_scan(automaton);
    if (sinks.empty()) return std::nullopt;
    const auto at_or_after = std::lower_bound(sinks.begin(), sinks.end(), cursor);
    const NodeId pick = at_or_after == sinks.end() ? sinks.front() : *at_or_after;
    cursor = (pick + 1) % automaton.graph().num_nodes();
    return pick;
  }
};

struct ReferenceFarthestFirst {
  std::vector<std::size_t> distance;

  template <typename A>
  std::optional<NodeId> choose(const A& automaton) {
    if (distance.empty()) {
      const Graph& g = automaton.graph();
      distance.assign(g.num_nodes(), std::numeric_limits<std::size_t>::max());
      std::vector<NodeId> frontier{automaton.destination()};
      distance[automaton.destination()] = 0;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        for (const NodeId v : g.neighbors(frontier[i])) {
          if (distance[v] != std::numeric_limits<std::size_t>::max()) continue;
          distance[v] = distance[frontier[i]] + 1;
          frontier.push_back(v);
        }
      }
    }
    const auto sinks = enabled_by_scan(automaton);
    if (sinks.empty()) return std::nullopt;
    return *std::max_element(sinks.begin(), sinks.end(), [this](NodeId a, NodeId b) {
      return std::pair(distance[a], a) < std::pair(distance[b], b);
    });
  }
};

struct ReferenceLeastRecentlyFired {
  std::vector<std::uint64_t> last_fired;
  std::uint64_t clock = 0;

  template <typename A>
  std::optional<NodeId> choose(const A& automaton) {
    const auto sinks = enabled_by_scan(automaton);
    if (sinks.empty()) return std::nullopt;
    last_fired.resize(automaton.graph().num_nodes(), 0);
    const NodeId pick = *std::min_element(sinks.begin(), sinks.end(), [this](NodeId a, NodeId b) {
      return std::pair(last_fired[a], a) < std::pair(last_fired[b], b);
    });
    last_fired[pick] = ++clock;
    return pick;
  }
};

struct ReferenceMaxDegree {
  template <typename A>
  std::optional<NodeId> choose(const A& automaton) {
    const auto sinks = enabled_by_scan(automaton);
    if (sinks.empty()) return std::nullopt;
    const Graph& g = automaton.graph();
    return *std::max_element(sinks.begin(), sinks.end(), [&g](NodeId a, NodeId b) {
      return std::pair(g.degree(a), a) < std::pair(g.degree(b), b);
    });
  }
};

/// Drives one automaton with `scheduler` to quiescence, asking `reference`
/// for its choice at every state; the two sequences must be identical.
template <typename Automaton, typename Scheduler, typename Reference>
void expect_reference_choices(const Instance& inst, Scheduler scheduler, Reference reference,
                              const std::string& label) {
  Automaton automaton(inst);
  for (std::size_t step = 0;; ++step) {
    const std::optional<NodeId> choice = scheduler.choose(automaton);
    const std::optional<NodeId> expected = reference.choose(automaton);
    ASSERT_EQ(choice, expected) << label << " step " << step;
    if (!choice) break;
    automaton.apply(*choice);
  }
}

/// Runs the pin over random graphs of several sizes and densities and
/// several seeds, on OneStepPR and on NewPR (whose dummy steps keep a
/// fired node a sink).  `make` builds a (scheduler, reference) pair.  The
/// one 5,000-node graph spans two index levels and many leaf words, so
/// cross-word and summary-level queries run under the pin too.
template <typename Make>
void pin_against_reference(Make make) {
  const auto pin = [&make](std::size_t n, std::size_t extra, std::uint64_t seed) {
    std::mt19937_64 rng(seed * 7919 + n);
    const Instance inst = make_random_instance(n, extra, rng);
    const std::string label = "n=" + std::to_string(n) + " extra=" + std::to_string(extra) +
                              " seed=" + std::to_string(seed);
    {
      auto [scheduler, reference] = make(seed);
      expect_reference_choices<OneStepPRAutomaton>(inst, scheduler, reference,
                                                   "OneStepPR " + label);
    }
    {
      auto [scheduler, reference] = make(seed);
      expect_reference_choices<NewPRAutomaton>(inst, scheduler, reference, "NewPR " + label);
    }
  };
  for (const std::size_t n : {6, 40, 150}) {
    for (const std::size_t extra : {n / 4, 2 * n}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) pin(n, extra, seed);
    }
  }
  pin(5000, 5000 / 4, 1);
}

TEST(SchedulerTest, LowestIdMatchesTheEnabledSinksReference) {
  pin_against_reference(
      [](std::uint64_t) { return std::pair(LowestIdScheduler{}, ReferenceLowestId{}); });
}

TEST(SchedulerTest, RandomMatchesTheEnabledSinksReference) {
  pin_against_reference([](std::uint64_t seed) {
    return std::pair(RandomScheduler(seed), ReferenceRandom{std::mt19937_64(seed)});
  });
}

TEST(SchedulerTest, RoundRobinMatchesTheEnabledSinksReference) {
  pin_against_reference(
      [](std::uint64_t) { return std::pair(RoundRobinScheduler{}, ReferenceRoundRobin{}); });
}

TEST(SchedulerTest, FarthestFirstMatchesTheEnabledSinksReference) {
  pin_against_reference([](std::uint64_t) {
    return std::pair(FarthestFirstScheduler{}, ReferenceFarthestFirst{});
  });
}

TEST(SchedulerTest, LeastRecentlyFiredMatchesTheEnabledSinksReference) {
  pin_against_reference([](std::uint64_t) {
    return std::pair(LeastRecentlyFiredScheduler{}, ReferenceLeastRecentlyFired{});
  });
}

TEST(SchedulerTest, MaxDegreeMatchesTheEnabledSinksReference) {
  pin_against_reference(
      [](std::uint64_t) { return std::pair(MaxDegreeScheduler{}, ReferenceMaxDegree{}); });
}

}  // namespace
}  // namespace lr
