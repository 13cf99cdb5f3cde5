#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "automata/scheduler.hpp"
#include "automata/simulation.hpp"
#include "core/relations.hpp"
#include "runner/scenario.hpp"
#include "simulation_oracle.hpp"

/// The checkpointed, local Section 5 checker against the every-step oracle
/// (simulation_oracle.hpp): identical verdicts on faithful and on faulty
/// step correspondences over every topology family and scheduler, and a
/// work bound on the clauses it evaluates.

namespace lr {
namespace {

/// What the two checkers must agree on.  `failing_step` is the concrete
/// step the failure text names (0 when the run holds).
struct Verdict {
  bool ok;
  std::uint64_t concrete_steps;
  std::uint64_t abstract_steps;
  std::uint64_t failing_step;

  friend bool operator==(const Verdict&, const Verdict&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Verdict& v) {
    return os << "{ok=" << v.ok << " concrete=" << v.concrete_steps
              << " abstract=" << v.abstract_steps << " failing_step=" << v.failing_step << "}";
  }
};

Verdict verdict_of(const SimulationCheckResult& result) {
  std::uint64_t failing_step = 0;
  const std::size_t at = result.failure.find("step ");
  if (at != std::string::npos) failing_step = std::stoull(result.failure.substr(at + 5));
  return {result.ok, result.concrete_steps, result.abstract_steps, failing_step};
}

Instance instance_of(TopologyKind topology, std::size_t size, std::uint64_t seed) {
  RunSpec spec;
  spec.topology = topology;
  spec.size = size;
  spec.seed = seed;
  return make_instance(spec);
}

/// Calls f with a fresh single-step scheduler of `kind`.
template <typename F>
void with_scheduler(SchedulerKind kind, std::uint64_t seed, F&& f) {
  switch (kind) {
    case SchedulerKind::kLowestId: {
      LowestIdScheduler s;
      return f(s);
    }
    case SchedulerKind::kRandom: {
      RandomScheduler s(seed);
      return f(s);
    }
    case SchedulerKind::kRoundRobin: {
      RoundRobinScheduler s;
      return f(s);
    }
    case SchedulerKind::kFarthestFirst: {
      FarthestFirstScheduler s;
      return f(s);
    }
  }
}

/// Runs both checkers on fresh automata over `inst` and returns the pair of
/// results (incremental, oracle).
template <typename C, typename B, typename Scheduler, typename Relation, typename OracleRelation,
          typename Correspondence>
std::pair<SimulationCheckResult, SimulationCheckResult> run_both(
    const Instance& inst, Scheduler incremental_scheduler, Scheduler oracle_scheduler,
    const Relation& relation, OracleRelation oracle_relation, Correspondence correspond) {
  C c1(inst);
  B b1(inst);
  const SimulationCheckResult incremental = check_forward_simulation(
      c1, b1, incremental_scheduler, relation, Correspondence(correspond));
  C c2(inst);
  B b2(inst);
  const SimulationCheckResult every_step = oracle::check_forward_simulation(
      c2, b2, oracle_scheduler, oracle_relation, Correspondence(correspond));
  return {incremental, every_step};
}

// Step mappings that break the lemmas in a way that shows up mid-run.

/// Lemma 5.3 without its dummy step: fails at the first full list.
std::vector<NodeId> correspondence_R_without_dummy(const OneStepPRAutomaton&, NodeId u,
                                                   const NewPRAutomaton&) {
  return {u};
}

/// R_rev mapping dummy steps to a real OneStepPR step: fails at the first
/// dummy step.
std::vector<NodeId> correspondence_R_reverse_without_skip(const NewPRAutomaton&, NodeId u,
                                                          const OneStepPRAutomaton&) {
  return {u};
}

/// Lemma 5.1 dropping one node of every set of three or more sinks.
std::vector<NodeId> correspondence_R_prime_dropping(const PRAutomaton&,
                                                    const std::vector<NodeId>& set,
                                                    const OneStepPRAutomaton&) {
  std::vector<NodeId> mapped = set;
  if (mapped.size() >= 3) mapped.pop_back();
  return mapped;
}

/// Lemma 5.3's mapping plus, once, a NewPR dummy step of another sink x.
/// G' stays equal and only parity[x] changes, so only a clause check can
/// catch it.
auto correspondence_R_with_stray_dummy() {
  return [done = false](const OneStepPRAutomaton& s, NodeId w,
                        const NewPRAutomaton& t) mutable {
    std::vector<NodeId> mapped = correspondence_R(s, w, t);
    if (done) return mapped;
    const SinkIndex& sinks = t.orientation().sinks();
    for (NodeId x = sinks.next(0); x != kNoNode; x = sinks.next(x + 1)) {
      if (x != w && x != t.destination() && t.would_be_dummy_step(x)) {
        mapped.push_back(x);
        done = true;
        break;
      }
    }
    return mapped;
  };
}

/// `correspond` with the abstract actions of concrete step `skip_at`
/// dropped: fails at that step on every topology that runs that long.
template <typename Correspondence>
auto skipping_step(std::uint64_t skip_at, Correspondence correspond) {
  return [skip_at, correspond, calls = std::uint64_t{0}](const auto& c, const auto& action,
                                                          const auto& b) mutable {
    auto mapped = correspond(c, action, b);
    if (++calls == skip_at) mapped.clear();
    return mapped;
  };
}

constexpr TopologyKind kTopologies[] = {TopologyKind::kRandom, TopologyKind::kGrid,
                                        TopologyKind::kChain, TopologyKind::kStar,
                                        TopologyKind::kLayered};
constexpr std::size_t kSizes[] = {10, 33};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

class SingleStepEquivalence
    : public ::testing::TestWithParam<std::tuple<TopologyKind, SchedulerKind>> {};

TEST_P(SingleStepEquivalence, RAndReverseRMatchTheEveryStepOracle) {
  const auto [topology, kind] = GetParam();
  std::size_t caught_locally = 0;
  std::size_t caught_at_checkpoint = 0;
  for (const std::size_t size : kSizes) {
    for (const std::uint64_t seed : kSeeds) {
      const Instance inst = instance_of(topology, size, seed);
      const auto compare = [&](const char* label, const auto& pair) {
        EXPECT_EQ(verdict_of(pair.first), verdict_of(pair.second))
            << label << " n=" << size << " seed=" << seed << "\n  incremental: "
            << pair.first.failure << "\n  oracle: " << pair.second.failure;
        caught_locally += pair.first.failure.find("local check") != std::string::npos;
        caught_at_checkpoint += pair.first.failure.find("checkpoint") != std::string::npos;
      };
      // Seeds 1, 2, 3 skip steps 8 (a checkpoint), 13 and 18 (local checks).
      const std::uint64_t skip_at = 3 + 5 * seed;
      with_scheduler(kind, seed, [&](auto& s) {
        compare("R", run_both<OneStepPRAutomaton, NewPRAutomaton>(
                         inst, s, s, relation_R, oracle::relation_R, correspondence_R));
        compare("R with a stray dummy step",
                run_both<OneStepPRAutomaton, NewPRAutomaton>(
                    inst, s, s, relation_R, oracle::relation_R,
                    correspondence_R_with_stray_dummy()));
        compare("R skipping a step",
                run_both<OneStepPRAutomaton, NewPRAutomaton>(
                    inst, s, s, relation_R, oracle::relation_R,
                    skipping_step(skip_at, &correspondence_R)));
        compare("R without dummy",
                run_both<OneStepPRAutomaton, NewPRAutomaton>(
                    inst, s, s, relation_R, oracle::relation_R, correspondence_R_without_dummy));
        compare("R_rev", run_both<NewPRAutomaton, OneStepPRAutomaton>(
                             inst, s, s, reverse_relation_R, oracle::reverse_relation_R,
                             correspondence_R_reverse));
        compare("R_rev without skip",
                run_both<NewPRAutomaton, OneStepPRAutomaton>(
                    inst, s, s, reverse_relation_R, oracle::reverse_relation_R,
                    correspondence_R_reverse_without_skip));
        compare("R_rev skipping a step",
                run_both<NewPRAutomaton, OneStepPRAutomaton>(
                    inst, s, s, reverse_relation_R, oracle::reverse_relation_R,
                    skipping_step(skip_at, &correspondence_R_reverse)));
      });
    }
  }
  EXPECT_GT(caught_locally, 0u) << "some faulty mapping must fail between checkpoints";
  EXPECT_GT(caught_at_checkpoint, 0u) << "some faulty mapping must fail at a checkpoint";
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SingleStepEquivalence,
    ::testing::Combine(::testing::ValuesIn(kTopologies),
                       ::testing::Values(SchedulerKind::kLowestId, SchedulerKind::kRandom,
                                         SchedulerKind::kRoundRobin,
                                         SchedulerKind::kFarthestFirst)),
    [](const auto& info) {
      return std::string(topology_token(std::get<0>(info.param))) + "_" +
             scheduler_token(std::get<1>(info.param));
    });

class SetStepEquivalence : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(SetStepEquivalence, RPrimeMatchesTheEveryStepOracle) {
  for (const std::size_t size : kSizes) {
    for (const std::uint64_t seed : kSeeds) {
      const Instance inst = instance_of(GetParam(), size, seed);
      const auto compare = [&](const char* label, const auto& pair) {
        EXPECT_EQ(verdict_of(pair.first), verdict_of(pair.second))
            << label << " n=" << size << " seed=" << seed << "\n  incremental: "
            << pair.first.failure << "\n  oracle: " << pair.second.failure;
      };
      for (const auto correspond : {&correspondence_R_prime, &correspondence_R_prime_dropping}) {
        compare("R' maximal sets", run_both<PRAutomaton, OneStepPRAutomaton>(
                                       inst, MaximalSetScheduler{}, MaximalSetScheduler{},
                                       relation_R_prime, oracle::relation_R_prime, correspond));
        compare("R' random sets",
                run_both<PRAutomaton, OneStepPRAutomaton>(
                    inst, RandomSetScheduler(seed), RandomSetScheduler(seed), relation_R_prime,
                    oracle::relation_R_prime, correspond));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SetStepEquivalence, ::testing::ValuesIn(kTopologies),
                         [](const auto& info) { return topology_token(info.param); });

TEST(SimulationEquivalenceTest, WrongCorrespondenceMatchesTheOracle) {
  // checker_negative_test's SimulationCheckerFlagsWrongCorrespondence.
  std::mt19937_64 rng(3);
  const Instance inst = make_random_instance(10, 8, rng);
  const auto empty = [](const OneStepPRAutomaton&, NodeId, const NewPRAutomaton&) {
    return std::vector<NodeId>{};
  };
  const auto [incremental, every_step] = run_both<OneStepPRAutomaton, NewPRAutomaton>(
      inst, RandomScheduler(1), RandomScheduler(1), relation_R, oracle::relation_R, empty);
  EXPECT_FALSE(incremental.ok);
  EXPECT_NE(incremental.failure.find("relation violated"), std::string::npos);
  EXPECT_EQ(verdict_of(incremental), verdict_of(every_step));
}

TEST(SimulationEquivalenceTest, DisabledAbstractActionMatchesTheOracle) {
  // checker_negative_test's SimulationCheckerFlagsDisabledAbstractAction.
  const Instance inst = make_worst_case_chain(5);
  const auto destination = [](const OneStepPRAutomaton&, NodeId, const OneStepPRAutomaton&) {
    return std::vector<NodeId>{0};
  };
  const auto [incremental, every_step] = run_both<OneStepPRAutomaton, OneStepPRAutomaton>(
      inst, LowestIdScheduler{}, LowestIdScheduler{}, relation_R_prime, oracle::relation_R_prime,
      destination);
  EXPECT_FALSE(incremental.ok);
  EXPECT_NE(incremental.failure.find("not enabled"), std::string::npos);
  EXPECT_EQ(verdict_of(incremental), verdict_of(every_step));
  EXPECT_EQ(incremental.failure, every_step.failure);
}

// ---------------------------------------------------------------------------
// The local form's footprint, probed directly
// ---------------------------------------------------------------------------

NodeId g_failing_node = kNoNode;

/// A clause that fails at g_failing_node only.
bool clause_fails_at_marked_node(const OneStepPRAutomaton&, const OneStepPRAutomaton&, NodeId u) {
  return u != g_failing_node;
}

bool in_closed_neighbourhood(const Graph& g, NodeId u, NodeId v) {
  return u == v || g.adjacent(u, v);
}

TEST(SimulationEquivalenceTest, LocalFormReadsFiredEdgesAndClosedNeighbourhoodClauses) {
  const Instance inst = instance_of(TopologyKind::kGrid, 24, 1);
  const Graph& g = inst.graph;
  const ClauseRelation<OneStepPRAutomaton, OneStepPRAutomaton, &clause_fails_at_marked_node>
      relation;
  OneStepPRAutomaton a(inst);
  OneStepPRAutomaton b(inst);
  std::uint64_t clause_checks = 0;

  // Clauses: a failing clause at v is seen from u iff v ∈ N[u].
  for (const NodeId v : {NodeId{0}, NodeId{5}, NodeId{13}}) {
    g_failing_node = v;
    EXPECT_FALSE(relation.holds(a, b, clause_checks));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const NodeId fired[] = {u};
      EXPECT_EQ(relation.holds_near(a, b, fired, clause_checks),
                !in_closed_neighbourhood(g, u, v))
          << "failing clause at " << v << ", fired " << u;
    }
  }

  // Edges: after w steps in b only, the senses differ exactly on w's
  // edges, which the local form sees from w and from w's neighbours.
  g_failing_node = kNoNode;
  const NodeId w = b.enabled_sinks().front();
  b.apply(w);
  EXPECT_FALSE(relation.holds(a, b, clause_checks));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId fired[] = {u};
    EXPECT_EQ(relation.holds_near(a, b, fired, clause_checks), !in_closed_neighbourhood(g, u, w))
        << "w = " << w << ", fired " << u;
  }
}

// ---------------------------------------------------------------------------
// Work bound: clause checks ≤ Σ (deg(u) + 1) over fired u + one n + m per
// full check
// ---------------------------------------------------------------------------

/// Wraps a scheduler and sums deg(u) + 1 over every node it fires.
template <typename Inner>
struct FootprintCounter {
  Inner inner;
  std::uint64_t closed_degrees = 0;

  template <typename A>
  auto choose(const A& automaton) {
    auto action = inner.choose(automaton);
    if (action) {
      if constexpr (std::is_same_v<typename A::Action, NodeId>) {
        closed_degrees += automaton.graph().degree(*action) + 1;
      } else {
        for (const NodeId u : *action) closed_degrees += automaton.graph().degree(u) + 1;
      }
    }
    return action;
  }
};

void expect_within_bound(const char* label, const Instance& inst,
                         const SimulationCheckResult& result, std::uint64_t closed_degrees) {
  ASSERT_TRUE(result.ok) << label << ": " << result.failure;
  const std::uint64_t n = inst.graph.num_nodes();
  const std::uint64_t m = inst.graph.num_edges();
  const std::uint64_t steps = result.concrete_steps;
  const std::uint64_t floor_log2_steps = steps == 0 ? 0 : std::bit_width(steps) - 1;
  EXPECT_LE(result.clause_checks, closed_degrees + (floor_log2_steps + 2) * (n + m))
      << label << ": steps=" << steps << " n=" << n << " m=" << m;
  EXPECT_GE(result.clause_checks, steps) << label << ": every step checks its fired node";
  EXPECT_GE(steps, n / 2) << label << ": the instance should run long enough to matter";
}

class ClauseWorkBound : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(ClauseWorkBound, ClauseChecksStayWithinTouchedDegreePlusCheckpoints) {
  const Instance inst = instance_of(GetParam(), 96, 1);
  {
    FootprintCounter<LowestIdScheduler> scheduler{};
    OneStepPRAutomaton concrete(inst);
    NewPRAutomaton abstract(inst);
    const auto result = check_forward_simulation(concrete, abstract, scheduler, relation_R,
                                                 correspondence_R);
    expect_within_bound("R", inst, result, scheduler.closed_degrees);
  }
  {
    FootprintCounter<RandomScheduler> scheduler{RandomScheduler(5)};
    NewPRAutomaton concrete(inst);
    OneStepPRAutomaton abstract(inst);
    const auto result = check_forward_simulation(concrete, abstract, scheduler,
                                                 reverse_relation_R, correspondence_R_reverse);
    expect_within_bound("R_rev", inst, result, scheduler.closed_degrees);
  }
  {
    FootprintCounter<SingletonSetScheduler> scheduler{SingletonSetScheduler(6)};
    PRAutomaton concrete(inst);
    OneStepPRAutomaton abstract(inst);
    const auto result = check_forward_simulation(concrete, abstract, scheduler,
                                                 relation_R_prime, correspondence_R_prime);
    expect_within_bound("R'", inst, result, scheduler.closed_degrees);
  }
}

INSTANTIATE_TEST_SUITE_P(ChainGridStar, ClauseWorkBound,
                         ::testing::Values(TopologyKind::kChain, TopologyKind::kGrid,
                                           TopologyKind::kStar),
                         [](const auto& info) { return topology_token(info.param); });

TEST(SimulationEquivalenceTest, OpaqueRelationsAreCheckedEveryStepWithoutClauseCount) {
  const Instance inst = instance_of(TopologyKind::kRandom, 24, 2);
  OneStepPRAutomaton concrete(inst);
  NewPRAutomaton abstract(inst);
  RandomScheduler scheduler(2);
  std::uint64_t evaluations = 0;
  const auto result = check_forward_simulation(
      concrete, abstract, scheduler,
      [&evaluations](const OneStepPRAutomaton& s, const NewPRAutomaton& t) {
        ++evaluations;
        return relation_R(s, t);
      },
      correspondence_R);
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(evaluations, result.concrete_steps + 1);
  EXPECT_EQ(result.clause_checks, 0u);
}

}  // namespace
}  // namespace lr
