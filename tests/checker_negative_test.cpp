#include <gtest/gtest.h>

#include <bit>

#include "automata/scheduler.hpp"
#include "automata/simulation.hpp"
#include "core/invariants.hpp"
#include "core/relations.hpp"
#include "graph/generators.hpp"
#include "simulation_oracle.hpp"

/// Negative tests: every checker must *fail* on states that violate its
/// property.  A checker that can never fire is worthless as evidence, so
/// each one is pointed at a hand-crafted violating state here.

namespace lr {
namespace {

TEST(CheckerNegativeTest, AcyclicityCheckerFlagsCycle) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  Orientation cyclic(g, {EdgeSense::kForward, EdgeSense::kForward, EdgeSense::kBackward});
  const auto result = check_acyclic(cyclic);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("cycle"), std::string::npos);
}

TEST(CheckerNegativeTest, Invariant32ViolationsUnrepresentableViaPublicApi) {
  // Deliberate design property: an automaton constructed from any
  // orientation treats it as G'_init (in-/out-nbrs re-derive from it), so
  // "orientation changed behind the lists' back" states cannot be built
  // through the public API — tampering with the orientation before
  // construction yields a *different*, self-consistent initial state.
  Instance inst = make_worst_case_chain(4);
  Orientation tampered = inst.make_orientation();
  tampered.reverse_edge(2);  // flip edge {2,3} before construction
  OneStepPRAutomaton fresh(inst.graph, std::move(tampered), inst.destination);
  EXPECT_TRUE(check_invariant_3_2(fresh))
      << "pre-construction tampering just defines a new consistent G'_init";
}

TEST(CheckerNegativeTest, Invariant32FlagsDegenerateIsolatedNode) {
  // The checker's "exactly one case" clause fires when *both* cases hold,
  // which happens for a degree-0 node (both vacuously true).  The paper's
  // model excludes such nodes (connected G); the checker flags them rather
  // than silently accepting — exercising its failure path.
  Graph g(2, {});
  OneStepPRAutomaton pr(g, Orientation(g, {}), 0);
  const auto result = check_invariant_3_2(pr);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("both"), std::string::npos);
}

TEST(CheckerNegativeTest, Invariant41FlagsWrongParityDirection) {
  // Two neighbors, both even parity (counts 0), edge directed right-to-left.
  Graph g(2, {{0, 1}});
  Orientation initial(g, {EdgeSense::kForward});
  const LeftRightEmbedding emb(initial);
  Orientation flipped(g, {EdgeSense::kBackward});
  NewPRAutomaton newpr(g, std::move(flipped), 0);
  // Both counts are 0 (even) but the edge goes right-to-left w.r.t. the
  // embedding of the *forward* initial orientation.
  const auto result = check_invariant_4_1(newpr, emb);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("4.1"), std::string::npos);
}

TEST(CheckerNegativeTest, Invariant42FlagsDirectionAgainstCounts) {
  // Legal counts (node 2 has fired once, others zero) paired with an
  // orientation where the edge {1,2} still points 1 -> 2 contradict part
  // (d): count[2] > count[1] requires the edge to point 2 -> 1.  Build the
  // contradiction with a checker-level embedding mismatch: run the legal
  // step, then check against an automaton whose orientation was never
  // updated.  Since counts are not settable from outside (by design), the
  // *embedding* is the tamper point instead: swap left/right.
  Instance inst = make_worst_case_chain(3);
  NewPRAutomaton newpr(inst);
  const LeftRightEmbedding emb(newpr.orientation());
  newpr.apply(2);
  ASSERT_TRUE(check_invariant_4_2(newpr, emb));

  // Reversed embedding: node 2 claims to be leftmost.  Part (c) now reads
  // "count[1]=0 even and 2 left of 1 => counts equal", which fails because
  // count[2]=1.
  const LeftRightEmbedding reversed(std::vector<std::uint32_t>{2, 1, 0});
  const auto result = check_invariant_4_2(newpr, reversed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("4.2"), std::string::npos);
}

TEST(CheckerNegativeTest, QuiescenceConsistencyFlagsOrientedWithSink) {
  // A disconnected-looking contradiction: build a graph where node 2 is a
  // sink but everything "reaches" the destination is false -> quiescent
  // check must flag the mismatch.
  Graph g(3, {{0, 1}, {1, 2}});
  // 1 -> 0 and 2 -> 1: destination-oriented towards 0, no sinks besides 0.
  Orientation oriented(g, {EdgeSense::kBackward, EdgeSense::kBackward});
  EXPECT_TRUE(check_quiescence_consistency(oriented, 0));
  // 0 -> 1 and 2 -> 1: node 1 is a non-destination sink and 2 cannot reach 0.
  Orientation stuck(g, {EdgeSense::kForward, EdgeSense::kBackward});
  const auto result = check_quiescence_consistency(stuck, 0);
  EXPECT_TRUE(result.ok) << "non-quiescent and non-oriented is consistent";
  // Destination 1: the graph IS oriented towards 1 and 1 is the only sink.
  EXPECT_TRUE(check_quiescence_consistency(stuck, 1));
}

TEST(CheckerNegativeTest, SimulationCheckerFlagsWrongCorrespondence) {
  // Map every OneStepPR step to the *empty* NewPR sequence: the relation R
  // must break as soon as the orientations diverge.
  std::mt19937_64 rng(3);
  const Instance inst = make_random_instance(10, 8, rng);
  OneStepPRAutomaton concrete(inst);
  NewPRAutomaton abstract(inst);
  RandomScheduler scheduler(1);
  const auto result = check_forward_simulation(
      concrete, abstract, scheduler, relation_R,
      [](const OneStepPRAutomaton&, NodeId, const NewPRAutomaton&) {
        return std::vector<NodeId>{};  // deliberately wrong
      });
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("relation violated"), std::string::npos);
}

/// NewPR that also reverses one edge away from the fired node: on its
/// `stray_at`-th step, or with stray_at = 0 on the step that leaves it
/// quiescent.  It writes outside the footprint the local re-check reads,
/// so only the checker's full checks can catch it.
class StrayEdgeNewPR : public NewPRAutomaton {
 public:
  StrayEdgeNewPR(const Instance& instance, std::uint64_t stray_at)
      : NewPRAutomaton(instance), stray_at_(stray_at) {}

  void apply(NodeId u) {
    NewPRAutomaton::apply(u);
    if (stray_at_ == 0 ? quiescent() : total_steps() == stray_at_) {
      EdgeId e = 0;
      while (graph().edge_u(e) == u || graph().edge_v(e) == u) ++e;
      orientation_.reverse_edge(e);
    }
  }

 private:
  std::uint64_t stray_at_;
};

TEST(CheckerNegativeTest, SimulationCheckerCatchesAStrayWriteAtACheckpoint) {
  const Instance inst = make_worst_case_chain(16);
  OneStepPRAutomaton concrete(inst);
  StrayEdgeNewPR abstract(inst, 3);
  LowestIdScheduler scheduler;
  const auto result =
      check_forward_simulation(concrete, abstract, scheduler, relation_R, correspondence_R);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("relation violated after concrete step 4"), std::string::npos)
      << result.failure;
  EXPECT_NE(result.failure.find("caught by the checkpoint full check"), std::string::npos)
      << result.failure;

  // The stray write happened at step 3, where the local re-check missed it:
  // the every-step oracle flags that step.
  OneStepPRAutomaton oracle_concrete(inst);
  StrayEdgeNewPR oracle_abstract(inst, 3);
  LowestIdScheduler oracle_scheduler;
  const auto every_step = oracle::check_forward_simulation(
      oracle_concrete, oracle_abstract, oracle_scheduler, oracle::relation_R, correspondence_R);
  EXPECT_NE(every_step.failure.find("after concrete step 3 "), std::string::npos)
      << every_step.failure;
}

TEST(CheckerNegativeTest, SimulationCheckerCatchesAStrayWriteAtTheFinalFullCheck) {
  const Instance inst = make_worst_case_chain(16);
  OneStepPRAutomaton concrete(inst);
  StrayEdgeNewPR abstract(inst, 0);
  LowestIdScheduler scheduler;
  const auto result =
      check_forward_simulation(concrete, abstract, scheduler, relation_R, correspondence_R);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(std::has_single_bit(result.concrete_steps))
      << "the last step must not be a checkpoint for the final check to be the one that fires";
  EXPECT_NE(result.failure.find("caught by the final full check"), std::string::npos)
      << result.failure;
}

TEST(CheckerNegativeTest, SimulationCheckerFlagsDisabledAbstractAction) {
  // Map each step to a node that is not a sink in the abstract automaton.
  std::mt19937_64 rng(4);
  const Instance inst = make_worst_case_chain(5);
  OneStepPRAutomaton concrete(inst);
  OneStepPRAutomaton abstract(inst);
  LowestIdScheduler scheduler;
  const auto result = check_forward_simulation(
      concrete, abstract, scheduler,
      [](const OneStepPRAutomaton& s, const OneStepPRAutomaton& t) {
        return s.orientation() == t.orientation() || true;  // relation never fails
      },
      [](const OneStepPRAutomaton&, NodeId, const OneStepPRAutomaton&) {
        return std::vector<NodeId>{0};  // destination: never enabled
      });
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("not enabled"), std::string::npos);
}

TEST(CheckerNegativeTest, RelationRPrimeFlagsListMismatch) {
  Instance inst = make_worst_case_chain(4);
  PRAutomaton s(inst);
  OneStepPRAutomaton t(inst);
  ASSERT_TRUE(relation_R_prime(s, t));
  // Apply the same orientation change through both, but make the abstract
  // automaton take an extra full cycle that restores the orientation while
  // perturbing lists: simplest divergence is one unmatched step.
  t.apply(3);
  EXPECT_FALSE(relation_R_prime(s, t));
}

}  // namespace
}  // namespace lr
