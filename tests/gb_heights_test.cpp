#include "core/gb_heights.hpp"

#include <gtest/gtest.h>

#include "automata/executor.hpp"
#include "automata/scheduler.hpp"
#include "core/full_reversal.hpp"
#include "core/invariants.hpp"
#include "core/pr.hpp"
#include "graph/digraph_algos.hpp"
#include "graph/generators.hpp"

namespace lr {
namespace {

/// Drives two single-step automata with the same schedule (always the
/// lowest-id enabled sink of automaton A) and asserts their orientations
/// stay identical after every step.  Returns the number of steps.
template <typename A, typename B>
std::size_t run_lockstep_and_compare(A& a, B& b, std::size_t max_steps = 100000) {
  std::size_t steps = 0;
  LowestIdScheduler scheduler;
  while (steps < max_steps) {
    const auto choice = scheduler.choose(a);
    if (!choice) break;
    EXPECT_TRUE(b.enabled(*choice)) << "divergent enabled sets at step " << steps;
    a.apply(*choice);
    b.apply(*choice);
    EXPECT_TRUE(a.orientation() == b.orientation()) << "divergence after step " << steps
                                                    << " (node " << *choice << ")";
    ++steps;
  }
  return steps;
}

TEST(GBHeightsTest, InitialHeightsConsistentWithInitialDag) {
  std::mt19937_64 rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst = make_random_instance(20, 15, rng);
    GBPairHeightsAutomaton pair(inst);
    GBTripleHeightsAutomaton triple(inst);
    EXPECT_TRUE(pair.heights_consistent());
    EXPECT_TRUE(triple.heights_consistent());
  }
}

TEST(GBHeightsTest, PairHeightsImplementFullReversal) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst = make_random_instance(18, 12, rng);
    GBPairHeightsAutomaton gb(inst);
    FullReversalAutomaton fr(inst);
    run_lockstep_and_compare(gb, fr);
    EXPECT_TRUE(gb.quiescent());
    EXPECT_TRUE(fr.quiescent());
    EXPECT_TRUE(is_destination_oriented(gb.orientation(), inst.destination));
  }
}

TEST(GBHeightsTest, TripleHeightsImplementPartialReversal) {
  std::mt19937_64 rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst = make_random_instance(18, 12, rng);
    GBTripleHeightsAutomaton gb(inst);
    OneStepPRAutomaton pr(inst);
    run_lockstep_and_compare(gb, pr);
    EXPECT_TRUE(gb.quiescent());
    EXPECT_TRUE(pr.quiescent());
    EXPECT_TRUE(is_destination_oriented(gb.orientation(), inst.destination));
  }
}

TEST(GBHeightsTest, TripleMatchesPROnWorstCaseChain) {
  Instance inst = make_worst_case_chain(12);
  GBTripleHeightsAutomaton gb(inst);
  OneStepPRAutomaton pr(inst);
  run_lockstep_and_compare(gb, pr);
  EXPECT_TRUE(is_destination_oriented(gb.orientation(), inst.destination));
}

TEST(GBHeightsTest, TripleMatchesPROnSinkSourceInstance) {
  Instance inst = make_sink_source_instance(11);
  GBTripleHeightsAutomaton gb(inst);
  OneStepPRAutomaton pr(inst);
  run_lockstep_and_compare(gb, pr);
  EXPECT_TRUE(is_destination_oriented(gb.orientation(), inst.destination));
}

TEST(GBHeightsTest, HeightsStayConsistentThroughExecution) {
  std::mt19937_64 rng(6);
  Instance inst = make_random_instance(15, 10, rng);
  GBPairHeightsAutomaton pair(inst);
  RandomScheduler s1(1);
  run_to_quiescence(pair, s1, [](const GBPairHeightsAutomaton& a, NodeId) {
    ASSERT_TRUE(a.heights_consistent());
  });

  GBTripleHeightsAutomaton triple(inst);
  RandomScheduler s2(2);
  run_to_quiescence(triple, s2, [](const GBTripleHeightsAutomaton& a, NodeId) {
    ASSERT_TRUE(a.heights_consistent());
  });
}

TEST(GBHeightsTest, TotalOrderImpliesAcyclicAlways) {
  // The GB argument: heights form a total order, so G' is trivially acyclic
  // — verified via the generic checker at every step.
  std::mt19937_64 rng(7);
  Instance inst = make_random_instance(15, 12, rng);
  GBTripleHeightsAutomaton gb(inst);
  RandomScheduler scheduler(5);
  run_to_quiescence(gb, scheduler, [](const GBTripleHeightsAutomaton& a, NodeId) {
    ASSERT_TRUE(check_acyclic(a.orientation())) << check_acyclic(a.orientation()).detail;
  });
}

TEST(GBHeightsTest, PairStepRaisesAboveAllNeighbors) {
  Instance inst = make_worst_case_chain(4);
  GBPairHeightsAutomaton gb(inst);
  LowestIdScheduler scheduler;
  run_to_quiescence(gb, scheduler, [](const GBPairHeightsAutomaton& a, NodeId fired) {
    for (const NodeId v : a.graph().neighbors(fired)) {
      EXPECT_GT(a.height(fired), a.height(v));
    }
  });
}

TEST(GBHeightsTest, ApplyThrowsWhenNotSink) {
  Instance inst = make_worst_case_chain(3);
  GBPairHeightsAutomaton pair(inst);
  EXPECT_THROW(pair.apply(0), std::logic_error);
  GBTripleHeightsAutomaton triple(inst);
  EXPECT_THROW(triple.apply(1), std::logic_error);
}

}  // namespace
}  // namespace lr
