#include "core/relations.hpp"

#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include "automata/executor.hpp"
#include "automata/scheduler.hpp"
#include "automata/simulation.hpp"
#include "graph/digraph_algos.hpp"
#include "graph/generators.hpp"

/// Mechanical re-play of Section 5: the relations R' and R are checked
/// along randomized executions using the step correspondences from the
/// proofs of Lemmas 5.1 and 5.3, plus the reverse-direction relation the
/// conclusion proposes as future work.

namespace lr {
namespace {

struct RelParam {
  std::size_t size;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const RelParam& p) {
    return os << "n" << p.size << "_s" << p.seed;
  }
};

class RelationSweep : public ::testing::TestWithParam<RelParam> {
 protected:
  Instance make_inst() const {
    std::mt19937_64 rng(GetParam().seed * 101 + 7);
    return make_random_instance(GetParam().size, GetParam().size / 2, rng);
  }
};

TEST_P(RelationSweep, RPrimeForwardSimulationPRToOneStepPR) {
  const Instance inst = make_inst();
  PRAutomaton concrete(inst);
  OneStepPRAutomaton abstract(inst);
  RandomSetScheduler scheduler(GetParam().seed);

  const auto result = check_forward_simulation(concrete, abstract, scheduler, relation_R_prime,
                                               correspondence_R_prime);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.abstract_steps, concrete.total_node_steps())
      << "every node of every set step maps to exactly one OneStepPR step";
  EXPECT_TRUE(is_destination_oriented(abstract.orientation(), inst.destination));
}

TEST_P(RelationSweep, RForwardSimulationOneStepPRToNewPR) {
  const Instance inst = make_inst();
  OneStepPRAutomaton concrete(inst);
  NewPRAutomaton abstract(inst);
  RandomScheduler scheduler(GetParam().seed + 1);

  const auto result =
      check_forward_simulation(concrete, abstract, scheduler, relation_R, correspondence_R);
  EXPECT_TRUE(result.ok) << result.failure;
  // Lemma 5.3: 1 or 2 NewPR steps per OneStepPR step.
  EXPECT_GE(result.abstract_steps, result.concrete_steps);
  EXPECT_LE(result.abstract_steps, 2 * result.concrete_steps);
  // The extra abstract steps are exactly NewPR's dummy steps.
  EXPECT_EQ(result.abstract_steps - result.concrete_steps, abstract.dummy_steps());
}

TEST_P(RelationSweep, ReverseSimulationNewPRToOneStepPR) {
  const Instance inst = make_inst();
  NewPRAutomaton concrete(inst);
  OneStepPRAutomaton abstract(inst);
  RandomScheduler scheduler(GetParam().seed + 2);

  const auto result = check_forward_simulation(concrete, abstract, scheduler, reverse_relation_R,
                                               correspondence_R_reverse);
  EXPECT_TRUE(result.ok) << result.failure;
  // Dummy steps map to the empty sequence.
  EXPECT_EQ(result.concrete_steps - result.abstract_steps, concrete.dummy_steps());
}

TEST_P(RelationSweep, OneStepPRToSetPRTrivialDirection) {
  const Instance inst = make_inst();
  OneStepPRAutomaton concrete(inst);
  PRAutomaton abstract(inst);
  RandomScheduler scheduler(GetParam().seed + 3);

  const auto result = check_forward_simulation(concrete, abstract, scheduler, relation_R_prime,
                                               correspondence_one_step_to_set);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.abstract_steps, result.concrete_steps);
}

TEST_P(RelationSweep, ComposedRelationPreservesOrientationEndToEnd) {
  // Theorem 5.5's composition: drive PR (set steps); map through R' to
  // OneStepPR and through R to NewPR; all three orientations must coincide
  // whenever the relations hold, hence acyclicity transfers from NewPR to PR.
  const Instance inst = make_inst();
  PRAutomaton pr(inst);
  OneStepPRAutomaton onestep(inst);
  NewPRAutomaton newpr(inst);
  RandomSetScheduler scheduler(GetParam().seed + 4);

  while (true) {
    const auto action = scheduler.choose(pr);
    if (!action) break;
    pr.apply(*action);
    for (const NodeId u : *action) {
      // R' mapping: one OneStepPR step per node of S.
      const auto newpr_actions = correspondence_R(onestep, u, newpr);
      onestep.apply(u);
      for (const NodeId w : newpr_actions) newpr.apply(w);
    }
    ASSERT_TRUE(pr.orientation() == onestep.orientation());
    ASSERT_TRUE(onestep.orientation() == newpr.orientation());
    ASSERT_TRUE(check_invariant_3_2(pr)) << check_invariant_3_2(pr).detail;
  }
  EXPECT_TRUE(is_destination_oriented(pr.orientation(), inst.destination));
  EXPECT_TRUE(is_destination_oriented(newpr.orientation(), inst.destination));
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, RelationSweep,
                         ::testing::Values(RelParam{8, 1}, RelParam{8, 2}, RelParam{12, 3},
                                           RelParam{16, 4}, RelParam{16, 5}, RelParam{24, 6},
                                           RelParam{32, 7}, RelParam{32, 8}),
                         [](const ::testing::TestParamInfo<RelParam>& info) {
                           std::ostringstream oss;
                           oss << info.param;
                           return oss.str();
                         });

TEST(RelationsTest, RPrimeHoldsInitially) {
  Instance inst = make_worst_case_chain(5);
  PRAutomaton s(inst);
  OneStepPRAutomaton t(inst);
  EXPECT_TRUE(relation_R_prime(s, t));
}

TEST(RelationsTest, RPrimeFailsAfterDivergence) {
  Instance inst = make_worst_case_chain(5);
  PRAutomaton s(inst);
  OneStepPRAutomaton t(inst);
  t.apply(4);
  EXPECT_FALSE(relation_R_prime(s, t));
}

TEST(RelationsTest, RHoldsInitially) {
  Instance inst = make_worst_case_chain(5);
  OneStepPRAutomaton s(inst);
  NewPRAutomaton t(inst);
  EXPECT_TRUE(relation_R(s, t));
}

TEST(RelationsTest, CorrespondenceRDoublesOnlyWhenListFull) {
  // Star: hub 0, leaves 1..4; destination leaf 1 (see
  // make_sink_source_instance).  After leaves 2, 4 and the hub fire, leaf 3
  // is a sink with list[3] = {0} = nbrs_3 — the list-full case where one
  // OneStepPR step maps to two NewPR steps (dummy + real).
  Instance inst = make_sink_source_instance(5);
  OneStepPRAutomaton s(inst);
  NewPRAutomaton t(inst);
  for (const NodeId u : {2u, 4u, 0u}) {
    EXPECT_EQ(correspondence_R(s, u, t).size(), 1u) << "node " << u;
    s.apply(u);
    t.apply(u);
  }
  ASSERT_TRUE(s.enabled(3));
  ASSERT_TRUE(s.list_full(3));
  EXPECT_EQ(correspondence_R(s, 3, t).size(), 2u);
}

TEST(RelationsTest, ReverseRelationAcceptsPostDummyStates) {
  Instance inst = make_sink_source_instance(5);
  NewPRAutomaton t(inst);
  OneStepPRAutomaton s(inst);
  for (const NodeId u : {2u, 4u, 0u}) {
    t.apply(u);
    s.apply(u);
  }
  ASSERT_TRUE(t.would_be_dummy_step(3));
  t.apply(3);  // dummy: abstract OneStepPR does nothing
  EXPECT_TRUE(reverse_relation_R(t, s)) << "post-dummy state must be in R_rev";
  EXPECT_FALSE(relation_R(s, t)) << "the forward relation R does not cover post-dummy states";
}

}  // namespace
}  // namespace lr
