// Tests for the batched CSR execution engine (core/reversal_engine.hpp):
// step-for-step equivalence with the legacy automaton + scheduler path
// across all three algorithms and all four scheduling policies, greedy-
// rounds equivalence, incremental sink detection on disconnected/degenerate
// graphs, and record-level A/B equality through the scenario runner.

#include "core/reversal_engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "analysis/game.hpp"
#include "analysis/rounds.hpp"
#include "automata/executor.hpp"
#include "automata/scheduler.hpp"
#include "core/full_reversal.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"
#include "graph/digraph_algos.hpp"
#include "runner/runner.hpp"
#include "trace/report.hpp"

// GCC defines __SANITIZE_THREAD__ under -fsanitize=thread; Clang reports
// the sanitizer through __has_feature.
#if defined(__SANITIZE_THREAD__)
#define LR_THREAD_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LR_THREAD_SANITIZER 1
#endif
#endif
#ifndef LR_THREAD_SANITIZER
#define LR_THREAD_SANITIZER 0
#endif

namespace lr {
namespace {

struct NamedPolicy {
  SchedulerKind scheduler;
  EnginePolicy policy;
};

const NamedPolicy kPolicies[] = {
    {SchedulerKind::kLowestId, EnginePolicy::kLowestId},
    {SchedulerKind::kRandom, EnginePolicy::kRandom},
    {SchedulerKind::kRoundRobin, EnginePolicy::kRoundRobin},
    {SchedulerKind::kFarthestFirst, EnginePolicy::kFarthestFirst},
};

const Strategy kStrategies[] = {Strategy::kFullReversal, Strategy::kPartialReversal,
                                Strategy::kNewPR};

EngineAlgorithm engine_algorithm(Strategy strategy) {
  switch (strategy) {
    case Strategy::kFullReversal:
      return EngineAlgorithm::kFullReversal;
    case Strategy::kPartialReversal:
      return EngineAlgorithm::kOneStepPR;
    case Strategy::kNewPR:
      return EngineAlgorithm::kNewPR;
  }
  ADD_FAILURE() << "unknown strategy";
  return EngineAlgorithm::kFullReversal;
}

std::vector<Instance> equivalence_instances() {
  std::vector<Instance> instances;
  instances.push_back(make_worst_case_chain(17));
  std::mt19937_64 rng(99);
  for (const std::uint64_t trial : {1u, 2u, 3u}) {
    (void)trial;
    instances.push_back(make_random_instance(20, 25, rng));
  }
  instances.push_back(make_grid_instance(4, 5, rng));
  instances.push_back(make_layered_bad_instance(4, 4, 0.4, rng));
  instances.push_back(make_sink_source_instance(11));
  instances.push_back(make_unit_disk_instance(18, 0.35, rng));
  return instances;
}

/// Calls `body(automaton)` on a fresh reference automaton for `strategy`.
template <typename Body>
void with_reference_automaton(const Instance& instance, Strategy strategy, Body&& body) {
  switch (strategy) {
    case Strategy::kFullReversal: {
      FullReversalAutomaton automaton(instance);
      body(automaton);
      return;
    }
    case Strategy::kPartialReversal: {
      OneStepPRAutomaton automaton(instance);
      body(automaton);
      return;
    }
    case Strategy::kNewPR: {
      NewPRAutomaton automaton(instance);
      body(automaton);
      return;
    }
  }
  ADD_FAILURE() << "unknown strategy";
}

/// Runs the legacy automaton for `strategy` under the scheduler `kind` and
/// returns its final edge senses (the engine must reproduce them exactly).
std::vector<EdgeSense> legacy_final_senses(const Instance& instance, Strategy strategy,
                                           SchedulerKind kind, std::uint64_t seed) {
  std::vector<EdgeSense> senses;
  with_reference_automaton(instance, strategy, [&](auto& automaton) {
    with_single_scheduler(kind, seed, [&automaton](auto&& s) { run_to_quiescence(automaton, s); });
    senses = automaton.orientation().senses();
  });
  return senses;
}

/// One state of a reference execution: its orientation, and whether that
/// orientation is destination-oriented.
struct ReferenceState {
  std::vector<EdgeSense> senses;
  bool destination_oriented = false;
};

/// Every state of the legacy run of `strategy` under `kind`: the initial
/// one, then one after each step.
std::vector<ReferenceState> legacy_states(const Instance& instance, Strategy strategy,
                                          SchedulerKind kind, std::uint64_t seed) {
  std::vector<ReferenceState> states;
  with_reference_automaton(instance, strategy, [&](auto& automaton) {
    const auto record = [&states](const auto& a) {
      states.push_back({a.orientation().senses(),
                        is_destination_oriented(a.orientation(), a.destination())});
    };
    record(automaton);
    with_single_scheduler(kind, seed, [&](auto&& s) {
      run_to_quiescence(automaton, s, [&record](const auto& a, NodeId) { record(a); });
    });
  });
  return states;
}

TEST(ReversalEngineTest, MatchesLegacyPathAcrossAlgorithmsAndPolicies) {
  const std::uint64_t seed = 12345;
  // The small instances fit in one leaf word of the sink index; one graph
  // above 4,096 nodes puts its summary levels and cross-word select on
  // both paths.
  std::vector<Instance> instances = equivalence_instances();
  std::mt19937_64 rng(4242);
  instances.push_back(make_random_instance(5000, 5000 / 4, rng));
  for (const Instance& instance : instances) {
    ReversalEngine engine(instance);
    for (const Strategy strategy : kStrategies) {
      // The analysis layer's rounds count, which every fr/pr run's round
      // clocks must reproduce whatever the policy.
      std::optional<std::uint64_t> legacy_rounds;
      if (strategy != Strategy::kNewPR) {
        legacy_rounds = run_greedy_rounds(instance, strategy == Strategy::kFullReversal
                                                        ? RoundStrategy::kFullReversal
                                                        : RoundStrategy::kPartialReversal)
                            .total_rounds();
      }
      for (const NamedPolicy& pair : kPolicies) {
        const CostProfile profile = measure_cost(instance, strategy, pair.scheduler, seed);
        const EngineResult result =
            engine.run(engine_algorithm(strategy), pair.policy,
                       {.scheduler_seed = seed, .record_node_costs = true});
        const std::string context = std::string(instance.name) + " " + strategy_name(strategy) +
                                    " " + scheduler_name(pair.scheduler);
        EXPECT_EQ(result.steps, profile.social_cost) << context;
        EXPECT_EQ(result.edge_reversals, profile.edge_reversals) << context;
        EXPECT_EQ(result.dummy_steps, profile.dummy_steps) << context;
        EXPECT_EQ(result.quiescent && result.destination_oriented, profile.converged) << context;
        EXPECT_EQ(result.node_cost, profile.node_cost) << context;
        ASSERT_TRUE(result.quiescent) << context;
        EXPECT_EQ(result.greedy_rounds, legacy_rounds) << context;

        const std::vector<EdgeSense> expected =
            legacy_final_senses(instance, strategy, pair.scheduler, seed);
        const std::span<const EdgeSense> senses = engine.senses();
        EXPECT_TRUE(std::equal(senses.begin(), senses.end(), expected.begin(), expected.end()))
            << context << ": final orientations differ";
        EXPECT_EQ(engine.state_checksum(), senses_checksum(expected)) << context;
      }
    }
  }
}

TEST(ReversalEngineTest, EveryStepBudgetLeavesTheReferenceState) {
  // The engine keeps no sense per edge for FR and NewPR, and OneStepPR
  // keeps its senses beside its lists, so a budget of k steps must stop it
  // in the reference automaton's state after k steps: the senses it
  // derives and its destination check, at every k.  Comparing only final
  // orientations would let a flip parity that is wrong at odd step counts
  // pass.
  const std::uint64_t seed = 12345;
  std::size_t checked = 0;
  for (const Instance& instance : equivalence_instances()) {
    ReversalEngine engine(instance);
    for (const Strategy strategy : kStrategies) {
      for (const NamedPolicy& pair : kPolicies) {
        const std::vector<ReferenceState> states =
            legacy_states(instance, strategy, pair.scheduler, seed);
        for (std::uint64_t k = 0; k < states.size(); ++k) {
          const EngineResult result = engine.run(engine_algorithm(strategy), pair.policy,
                                                 {.max_steps = k, .scheduler_seed = seed});
          const std::string context = std::string(instance.name) + " " +
                                      strategy_name(strategy) + " " +
                                      scheduler_name(pair.scheduler) + " k=" + std::to_string(k);
          ASSERT_EQ(result.steps, k) << context;
          const std::span<const EdgeSense> senses = engine.senses();
          ASSERT_TRUE(std::equal(senses.begin(), senses.end(), states[k].senses.begin(),
                                 states[k].senses.end()))
              << context << ": orientations differ";
          ASSERT_EQ(result.destination_oriented, states[k].destination_oriented) << context;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u) << checked;
}

TEST(ReversalEngineTest, GreedyRoundsMatchLegacyRounds) {
  for (const Instance& instance : equivalence_instances()) {
    ReversalEngine engine(instance);
    for (const RoundStrategy strategy :
         {RoundStrategy::kFullReversal, RoundStrategy::kPartialReversal}) {
      const RoundHistory history = run_greedy_rounds(instance, strategy);
      const EngineRoundsResult result = engine.run_greedy_rounds(
          strategy == RoundStrategy::kFullReversal ? EngineAlgorithm::kFullReversal
                                                   : EngineAlgorithm::kOneStepPR,
          1'000'000);
      EXPECT_EQ(result.rounds, history.total_rounds()) << instance.name;
      EXPECT_EQ(result.node_steps, history.total_node_steps()) << instance.name;
      EXPECT_EQ(result.converged, history.converged) << instance.name;
    }
  }
}

TEST(ReversalEngineTest, RoundClocksMatchTheRoundsPassOnEverySweepTopology) {
  // A greedy round is a firing's depth in the one partial order every
  // complete FR or OneStepPR execution fires, so the round clocks of each
  // policy's single-step run must give the rounds pass's count, and the
  // run must fire as many steps and flips as the pass.
  //
  // The case is single-threaded, and the thread-sanitizer build, which runs
  // this binary for its concurrent cases, would spend about two minutes on
  // the 1,000- and 3,000-node instances; it stops at 300 nodes.
  const std::vector<std::size_t> sizes =
      LR_THREAD_SANITIZER ? std::vector<std::size_t>{1, 2, 3, 9, 40, 300}
                          : std::vector<std::size_t>{1, 2, 3, 9, 40, 300, 1000, 3000};
  std::size_t cases = 0;
  std::size_t converged = 0;
  for (const TopologyKind topology :
       {TopologyKind::kChain, TopologyKind::kRandom, TopologyKind::kGrid, TopologyKind::kLayered,
        TopologyKind::kStar, TopologyKind::kUnitDisk, TopologyKind::kTorus,
        TopologyKind::kWideRandom, TopologyKind::kWaypoint}) {
    for (const std::size_t size : sizes) {
      if (topology == TopologyKind::kStar && size < 2) continue;  // a star needs 3 nodes
      // The chain is one instance whatever the seed, and its FR work is
      // quadratic: above 300 nodes it would take most of the test's time.
      if (topology == TopologyKind::kChain && size > 300) continue;
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        RunSpec spec;
        spec.topology = topology;
        spec.size = size;
        spec.seed = seed;
        ReversalEngine engine(make_instance(spec));
        for (const EngineAlgorithm algorithm :
             {EngineAlgorithm::kFullReversal, EngineAlgorithm::kOneStepPR}) {
          const EngineRoundsResult pass = engine.run_greedy_rounds(algorithm, 10'000'000);
          for (const NamedPolicy& pair : kPolicies) {
            ++cases;
            const EngineResult result =
                engine.run(algorithm, pair.policy, {.scheduler_seed = seed});
            const std::string context =
                std::string(topology_token(topology)) + "-" + std::to_string(size) + " seed " +
                std::to_string(seed) +
                (algorithm == EngineAlgorithm::kFullReversal ? " fr " : " pr ") +
                scheduler_token(pair.scheduler);
            ASSERT_EQ(result.quiescent, pass.converged) << context;
            if (!result.quiescent) continue;
            ASSERT_TRUE(result.greedy_rounds.has_value()) << context;
            EXPECT_EQ(*result.greedy_rounds, pass.rounds) << context;
            EXPECT_EQ(result.steps, pass.node_steps) << context;
            EXPECT_EQ(result.edge_reversals, pass.edge_reversals) << context;
            ++converged;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, LR_THREAD_SANITIZER ? 2544u : 3312u);
  EXPECT_EQ(converged, cases);  // every instance is connected, so every run converges
}

TEST(ReversalEngineTest, RoundClockReportsWhateverTheStepBudget) {
  // Only the step count, never the budget, decides whether a converged
  // run's 32-bit clocks can be trusted, so budgets at and past 2^32 report
  // the same rounds as small ones.
  const Instance instance = make_worst_case_chain(9);
  ReversalEngine engine(instance);
  const std::uint64_t rounds =
      run_greedy_rounds(instance, RoundStrategy::kFullReversal).total_rounds();
  for (const std::uint64_t max_steps :
       {std::uint64_t{100}, (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 32,
        std::numeric_limits<std::uint64_t>::max()}) {
    const EngineResult result =
        engine.run(EngineAlgorithm::kFullReversal, EnginePolicy::kLowestId,
                   {.max_steps = max_steps});
    ASSERT_TRUE(result.quiescent) << max_steps;
    EXPECT_EQ(result.greedy_rounds, rounds) << max_steps;
  }
}

TEST(ReversalEngineTest, RunToQuiescenceBridgeMatchesAutomatonRun) {
  const Instance instance = make_worst_case_chain(9);
  FullReversalAutomaton automaton(instance);
  LowestIdScheduler scheduler;
  const RunResult expected = run_to_quiescence(automaton, scheduler);

  ReversalEngine engine(instance);
  const RunResult actual = run_to_quiescence(engine, EngineAlgorithm::kFullReversal,
                                             EnginePolicy::kLowestId);
  EXPECT_EQ(actual.steps, expected.steps);
  EXPECT_EQ(actual.node_steps, expected.node_steps);
  EXPECT_EQ(actual.edge_reversals, expected.edge_reversals);
  EXPECT_EQ(actual.quiescent, expected.quiescent);
  EXPECT_EQ(actual.destination_oriented, expected.destination_oriented);
}

// ---------------------------------------------------------------------------
// Worklist sink detection on disconnected / degenerate graphs
// ---------------------------------------------------------------------------

Instance disconnected_instance(NodeId destination) {
  Instance instance;
  instance.graph = Graph(5, {{0, 1}, {3, 4}});
  instance.senses = {EdgeSense::kForward, EdgeSense::kForward};  // 0->1, 3->4
  instance.destination = destination;
  instance.name = "disconnected-5";
  return instance;
}

TEST(ReversalEngineTest, DisconnectedGraphMatchesLegacyBudgetExhaustion) {
  // Node 2 is isolated: a vacuous sink forever, so neither path can reach
  // quiescence — both must burn the identical budget and report the same
  // non-converged outcome.  This pins the engine's worklist re-push
  // semantics for degree-0 nodes to the legacy scheduler semantics.
  const Instance instance = disconnected_instance(0);
  const std::uint64_t budget = 64;
  for (const Strategy strategy : kStrategies) {
    for (const NamedPolicy& pair : kPolicies) {
      const CostProfile profile =
          measure_cost(instance, strategy, pair.scheduler, 7, {.max_steps = budget});
      ReversalEngine engine(instance);
      const EngineResult result =
          engine.run(engine_algorithm(strategy), pair.policy,
                     {.max_steps = budget, .scheduler_seed = 7, .record_node_costs = true});
      const std::string context =
          std::string(strategy_name(strategy)) + " " + scheduler_name(pair.scheduler);
      EXPECT_EQ(result.steps, profile.social_cost) << context;
      EXPECT_EQ(result.node_cost, profile.node_cost) << context;
      EXPECT_FALSE(result.quiescent) << context;
      EXPECT_FALSE(result.destination_oriented) << context;
      EXPECT_FALSE(result.greedy_rounds.has_value()) << context;
      EXPECT_FALSE(profile.converged) << context;
    }
  }
}

TEST(ReversalEngineTest, DisconnectedGraphGreedyRoundsExhaustBudgetIdentically) {
  const Instance instance = disconnected_instance(0);
  const std::uint64_t budget = 32;
  ReversalEngine engine(instance);
  for (const RoundStrategy strategy :
       {RoundStrategy::kFullReversal, RoundStrategy::kPartialReversal}) {
    const RoundHistory history = run_greedy_rounds(instance, strategy, budget);
    const EngineRoundsResult result = engine.run_greedy_rounds(
        strategy == RoundStrategy::kFullReversal ? EngineAlgorithm::kFullReversal
                                                 : EngineAlgorithm::kOneStepPR,
        budget);
    EXPECT_EQ(result.rounds, history.total_rounds());
    EXPECT_EQ(result.node_steps, history.total_node_steps());
    EXPECT_FALSE(result.converged);
    EXPECT_FALSE(history.converged);
  }
}

TEST(ReversalEngineTest, SingleNodeGraphIsImmediatelyQuiescent) {
  Instance instance;
  instance.graph = Graph(1, {});
  instance.destination = 0;
  instance.name = "single";
  ReversalEngine engine(instance);
  const EngineResult result = engine.run(EngineAlgorithm::kOneStepPR, EnginePolicy::kLowestId);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_TRUE(result.quiescent);
  EXPECT_TRUE(result.destination_oriented);
}

TEST(ReversalEngineTest, InitialSourceAndSinkInstanceCountsDummiesLikeLegacy) {
  const Instance instance = make_sink_source_instance(9);
  const CostProfile profile =
      measure_cost(instance, Strategy::kNewPR, SchedulerKind::kLowestId, 1);
  ReversalEngine engine(instance);
  const EngineResult result = engine.run(EngineAlgorithm::kNewPR, EnginePolicy::kLowestId);
  EXPECT_GT(result.dummy_steps, 0u);  // the instance exists to force dummies
  EXPECT_EQ(result.dummy_steps, profile.dummy_steps);
  EXPECT_EQ(result.steps, profile.social_cost);
}

TEST(ReversalEngineTest, ConstructorValidatesDestination) {
  const Instance instance = make_worst_case_chain(4);
  const CsrGraph csr(instance.graph, instance.senses);
  EXPECT_THROW(ReversalEngine(csr, 99), std::invalid_argument);
}

TEST(ReversalEngineTest, GreedyRoundsRejectNewPR) {
  ReversalEngine engine(make_worst_case_chain(4));
  EXPECT_THROW(engine.run_greedy_rounds(EngineAlgorithm::kNewPR, 10), std::invalid_argument);
}

TEST(ReversalEngineTest, ChecksumDistinguishesOrientations) {
  std::vector<EdgeSense> senses(8, EdgeSense::kForward);
  const std::uint64_t base = senses_checksum(senses);
  senses[3] = EdgeSense::kBackward;
  EXPECT_NE(base, senses_checksum(senses));
  EXPECT_EQ(senses_checksum(senses), senses_checksum(senses));
}

// ---------------------------------------------------------------------------
// Record-level A/B equality through the scenario runner
// ---------------------------------------------------------------------------

void expect_records_equal(const RunRecord& csr, const RunRecord& legacy,
                          const std::string& context) {
  EXPECT_EQ(csr.run_seed, legacy.run_seed) << context;
  EXPECT_EQ(csr.nodes, legacy.nodes) << context;
  EXPECT_EQ(csr.bad_nodes, legacy.bad_nodes) << context;
  EXPECT_EQ(csr.work, legacy.work) << context;
  EXPECT_EQ(csr.edge_reversals, legacy.edge_reversals) << context;
  EXPECT_EQ(csr.rounds, legacy.rounds) << context;
  EXPECT_EQ(csr.dummy_steps, legacy.dummy_steps) << context;
  EXPECT_EQ(csr.converged, legacy.converged) << context;
  EXPECT_EQ(csr.error, legacy.error) << context;
}

TEST(ReversalEngineTest, ExecuteRunIsPathInvariant) {
  for (const TopologyKind topology : {TopologyKind::kChain, TopologyKind::kRandom,
                                      TopologyKind::kLayered, TopologyKind::kStar}) {
    for (const AlgorithmKind algorithm :
         {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR}) {
      for (const NamedPolicy& pair : kPolicies) {
        RunSpec spec;
        spec.topology = topology;
        spec.size = 16;
        spec.algorithm = algorithm;
        spec.scheduler = pair.scheduler;
        spec.seed = 3;
        spec.path = ExecutionPath::kCsr;
        const RunRecord csr = execute_run(spec);
        spec.path = ExecutionPath::kLegacy;
        const RunRecord legacy = execute_run(spec);
        const std::string context = std::string(topology_token(topology)) + "/" +
                                    algorithm_token(algorithm) + "/" +
                                    scheduler_token(pair.scheduler);
        expect_records_equal(csr, legacy, context);
      }
    }
  }
}

TEST(ReversalEngineTest, SweepTablesAreBytewisePathInvariant) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {8, 16};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kNewPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kRandom};
  sweep.seeds = {1, 2};

  const auto csv_of = [](const SweepSpec& spec) {
    const SweepReport report = ScenarioRunner(RunnerOptions{.threads = 1}).run(spec);
    std::ostringstream oss;
    write_table_csv(oss, report.records_table());
    write_table_csv(oss, report.aggregate_table());
    return oss.str();
  };
  sweep.path = ExecutionPath::kCsr;
  const std::string csr_csv = csv_of(sweep);
  sweep.path = ExecutionPath::kLegacy;
  const std::string legacy_csv = csv_of(sweep);
  EXPECT_EQ(csr_csv, legacy_csv);
}

// ---------------------------------------------------------------------------
// Parallel greedy rounds: byte-identical to the serial kernel everywhere
// ---------------------------------------------------------------------------

TEST(ReversalEngineTest, ParallelGreedyRoundsMatchSerialAtEveryPoolSize) {
  for (const Instance& instance : equivalence_instances()) {
    ReversalEngine engine(instance);
    for (const EngineAlgorithm algorithm :
         {EngineAlgorithm::kFullReversal, EngineAlgorithm::kOneStepPR}) {
      const EngineRoundsResult serial = engine.run_greedy_rounds(algorithm, 1'000'000);
      const std::uint64_t serial_checksum = engine.state_checksum();
      for (const std::size_t workers : {2u, 4u, 8u}) {
        ThreadPool pool(workers);
        // min_parallel_work = 1 forces the sharded kernel onto every
        // round, however narrow — the worst case for determinism.
        const EngineRoundsResult parallel = engine.run_greedy_rounds(
            algorithm, {.max_rounds = 1'000'000, .pool = &pool, .min_parallel_work = 1});
        const std::string context = std::string(instance.name) + " workers=" +
                                    std::to_string(workers) +
                                    (algorithm == EngineAlgorithm::kFullReversal ? " fr" : " pr");
        EXPECT_EQ(parallel.rounds, serial.rounds) << context;
        EXPECT_EQ(parallel.node_steps, serial.node_steps) << context;
        EXPECT_EQ(parallel.edge_reversals, serial.edge_reversals) << context;
        EXPECT_EQ(parallel.converged, serial.converged) << context;
        EXPECT_EQ(engine.state_checksum(), serial_checksum) << context;
      }
    }
  }
}

TEST(ReversalEngineTest, ParallelGreedyRoundsExhaustBudgetIdentically) {
  const Instance instance = disconnected_instance(0);
  ReversalEngine engine(instance);
  const EngineRoundsResult serial =
      engine.run_greedy_rounds(EngineAlgorithm::kFullReversal, 32);
  ThreadPool pool(4);
  const EngineRoundsResult parallel = engine.run_greedy_rounds(
      EngineAlgorithm::kFullReversal, {.max_rounds = 32, .pool = &pool, .min_parallel_work = 1});
  EXPECT_EQ(parallel.rounds, serial.rounds);
  EXPECT_EQ(parallel.node_steps, serial.node_steps);
  EXPECT_FALSE(parallel.converged);
  EXPECT_FALSE(serial.converged);
}

TEST(ReversalEngineTest, ParallelGreedyRoundsRejectNewPR) {
  ReversalEngine engine(make_worst_case_chain(4));
  ThreadPool pool(2);
  EXPECT_THROW(engine.run_greedy_rounds(EngineAlgorithm::kNewPR,
                                        {.max_rounds = 10, .pool = &pool}),
               std::invalid_argument);
}

TEST(ReversalEngineTest, ExecuteRunIsEngineThreadInvariant) {
  // The satellite determinism contract: records byte-identical across
  // 1/2/4/8 engine threads for every algorithm x scheduler pair (the
  // engine_threads knob only touches the fr/pr rounds kernel, but the
  // sweep-format contract is that *no* record ever depends on it).
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR}) {
    for (const NamedPolicy& pair : kPolicies) {
      RunSpec spec;
      spec.topology = TopologyKind::kRandom;
      spec.size = 24;
      spec.algorithm = algorithm;
      spec.scheduler = pair.scheduler;
      spec.seed = 11;
      spec.engine_threads = 1;
      const RunRecord baseline = execute_run(spec);
      for (const std::size_t threads : {2u, 4u, 8u}) {
        spec.engine_threads = threads;
        const RunRecord record = execute_run(spec);
        const std::string context = std::string(algorithm_token(algorithm)) + "/" +
                                    scheduler_token(pair.scheduler) + " engine_threads=" +
                                    std::to_string(threads);
        expect_records_equal(record, baseline, context);
      }
    }
  }
}

TEST(ReversalEngineTest, ExecuteRunShardsWideTopologiesIdentically) {
  // The cases above stay below the runner's num_nodes >= 1024 pool gate,
  // so they pin record invariance but compare serial against serial.
  // torus-10^4 both spawns the per-run pool and clears the sharding
  // threshold (round width x max firing degree >= 4096: about a fifth of
  // its degree-4 nodes are initial sinks), so this is the one ctest case
  // where execute_run's engine_threads plumbing drives the sharded kernel
  // end to end.  A star never does: its leaf rounds carry degree 1.  Only
  // a budget-cut run takes the rounds pass, so 1,000 steps cut the
  // single-step pass; the rounds pass's first rounds are the wide ones.
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR}) {
    RunSpec spec;
    spec.topology = TopologyKind::kTorus;
    spec.size = 10000;
    spec.algorithm = algorithm;
    spec.seed = 1;
    spec.max_steps = 1000;
    spec.engine_threads = 1;
    const RunRecord baseline = execute_run(spec);
    ASSERT_GE(baseline.nodes, 1024u);
    ASSERT_FALSE(baseline.converged);
    ASSERT_GT(baseline.rounds, 0u);
    for (const std::size_t threads : {2u, 4u}) {
      spec.engine_threads = threads;
      const RunRecord record = execute_run(spec);
      expect_records_equal(record, baseline,
                           std::string(algorithm_token(algorithm)) + " wide engine_threads=" +
                               std::to_string(threads));
    }
  }
}

TEST(ReversalEngineTest, SweepTablesAreEngineThreadInvariant) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kLayered};
  sweep.sizes = {16, 32};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kRandom};
  sweep.seeds = {1, 2};

  const auto csv_of = [&sweep](std::size_t engine_threads) {
    SweepSpec configured = sweep;
    configured.engine_threads = engine_threads;
    const SweepReport report = ScenarioRunner(RunnerOptions{.threads = 2}).run(configured);
    std::ostringstream oss;
    write_table_csv(oss, report.records_table());
    write_table_csv(oss, report.aggregate_table());
    return oss.str();
  };
  const std::string serial_csv = csv_of(1);
  EXPECT_EQ(serial_csv, csv_of(2));
  EXPECT_EQ(serial_csv, csv_of(4));
}

TEST(ReversalEngineTest, SweepSpecParsesEngineThreadsOption) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\nsize = 8\nalgorithm = pr\nengine_threads = 4\n");
  EXPECT_EQ(spec.engine_threads, 4u);
  ASSERT_EQ(spec.expand().size(), 1u);
  EXPECT_EQ(spec.expand()[0].engine_threads, 4u);
  EXPECT_EQ(SweepSpec::parse_string("topology = chain\nsize = 8\nalgorithm = pr\n")
                .engine_threads,
            1u);
  EXPECT_THROW(SweepSpec::parse_string(
                   "topology = chain\nsize = 8\nalgorithm = pr\nengine_threads = 2, 4\n"),
               std::invalid_argument);
}

TEST(ReversalEngineTest, SweepSpecParsesPathOption) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\nsize = 8\nalgorithm = pr\npath = legacy\n");
  EXPECT_EQ(spec.path, ExecutionPath::kLegacy);
  ASSERT_EQ(spec.expand().size(), 1u);
  EXPECT_EQ(spec.expand()[0].path, ExecutionPath::kLegacy);
  EXPECT_EQ(SweepSpec::parse_string("topology = chain\nsize = 8\nalgorithm = pr\n").path,
            ExecutionPath::kCsr);
  EXPECT_THROW(
      SweepSpec::parse_string("topology = chain\nsize = 8\nalgorithm = pr\npath = turbo\n"),
      std::invalid_argument);
}

}  // namespace
}  // namespace lr
