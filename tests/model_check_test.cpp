#include "automata/model_check.hpp"

#include <gtest/gtest.h>

#include "automata/scheduler.hpp"
#include "core/bll.hpp"
#include "core/full_reversal.hpp"
#include "core/invariants.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"
#include "graph/digraph_algos.hpp"
#include "graph/generators.hpp"

/// Exhaustive verification: the schedulers sample single executions, but
/// the paper's theorems quantify over ALL executions.  These tests explore
/// the entire reachable state space of each automaton on small graphs and
/// check every invariant in every state — the strongest form of empirical
/// evidence the implementation matches the proofs.

namespace lr {
namespace {

std::vector<Instance> small_instances() {
  std::vector<Instance> instances;
  instances.push_back(make_worst_case_chain(4));
  instances.push_back(make_worst_case_chain(6));
  instances.push_back(make_sink_source_instance(5));
  // Diamond with a chord.
  {
    Graph g(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
    Instance inst;
    inst.senses = Orientation::from_ranking(g, identity_ranking(4)).senses();
    inst.graph = std::move(g);
    inst.destination = 0;
    inst.name = "diamond";
    instances.push_back(std::move(inst));
  }
  // Small random DAGs.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    instances.push_back(make_random_instance(6, 4, rng));
  }
  return instances;
}

std::string acyclic_property_message(const Orientation& o) {
  const auto check = check_acyclic(o);
  return check.ok ? std::string{} : check.detail;
}

TEST(ModelCheckTest, OneStepPRAllInvariantsInAllReachableStates) {
  for (const Instance& inst : small_instances()) {
    OneStepPRAutomaton initial(inst);
    const auto result = model_check(initial, [](const OneStepPRAutomaton& a) -> std::string {
      if (const auto c = check_acyclic(a.orientation()); !c.ok) return c.detail;
      if (const auto c = check_invariant_3_1(a.orientation()); !c.ok) return c.detail;
      if (const auto c = check_invariant_3_2(a); !c.ok) return c.detail;
      if (const auto c = check_corollary_3_3(a); !c.ok) return c.detail;
      if (const auto c = check_corollary_3_4(a); !c.ok) return c.detail;
      return {};
    });
    EXPECT_TRUE(result.ok) << inst.name << ": " << result.failure;
    EXPECT_GT(result.states_explored, 1u) << inst.name;
  }
}

TEST(ModelCheckTest, NewPRAllInvariantsInAllReachableStates) {
  for (const Instance& inst : small_instances()) {
    NewPRAutomaton initial(inst);
    const LeftRightEmbedding emb(initial.orientation());
    const auto result =
        model_check(initial, [&emb](const NewPRAutomaton& a) -> std::string {
          if (const auto c = check_acyclic(a.orientation()); !c.ok) return c.detail;
          if (const auto c = check_invariant_4_1(a, emb); !c.ok) return c.detail;
          if (const auto c = check_invariant_4_2(a, emb); !c.ok) return c.detail;
          return {};
        });
    EXPECT_TRUE(result.ok) << inst.name << ": " << result.failure;
  }
}

TEST(ModelCheckTest, FullReversalAcyclicInAllReachableStates) {
  for (const Instance& inst : small_instances()) {
    FullReversalAutomaton initial(inst);
    const auto result = model_check(initial, [](const FullReversalAutomaton& a) {
      return acyclic_property_message(a.orientation());
    });
    EXPECT_TRUE(result.ok) << inst.name << ": " << result.failure;
  }
}

TEST(ModelCheckTest, BLLWithPRLabelingAcyclicEverywhere) {
  for (const Instance& inst : small_instances()) {
    BLLAutomaton initial = BLLAutomaton::pr_labeling(inst);
    const auto result = model_check(initial, [](const BLLAutomaton& a) {
      return acyclic_property_message(a.orientation());
    });
    EXPECT_TRUE(result.ok) << inst.name << ": " << result.failure;
  }
}

TEST(ModelCheckTest, EveryQuiescentStateIsDestinationOriented) {
  for (const Instance& inst : small_instances()) {
    OneStepPRAutomaton initial(inst);
    const auto result = model_check(initial, [](const OneStepPRAutomaton& a) -> std::string {
      if (!a.quiescent()) return {};
      return is_destination_oriented(a.orientation(), a.destination())
                 ? std::string{}
                 : "quiescent but not destination-oriented";
    });
    EXPECT_TRUE(result.ok) << inst.name << ": " << result.failure;
  }
}

// ---------------------------------------------------------------------------
// The checker must be able to FIND violations: a deliberately broken
// reversal rule ("reverse exactly one incoming edge") creates cycles.
// ---------------------------------------------------------------------------

class BrokenSingleEdgeReversal : public LinkReversalBase {
 public:
  using Action = NodeId;
  using LinkReversalBase::LinkReversalBase;

  bool enabled(NodeId u) const { return sink_enabled(u); }

  void apply(NodeId u) {
    // Broken on purpose: reverse only the first incident edge.
    orientation_.reverse_edge(graph().incident_edges(u).front());
  }

  std::vector<std::uint8_t> state_fingerprint() const {
    std::vector<std::uint8_t> fp;
    append_orientation_fingerprint(fp);
    return fp;
  }
};

TEST(ModelCheckTest, FindsCycleInDeliberatelyBrokenAlgorithm) {
  // Triangle DAG 0 -> 1 -> 2, 0 -> 2 with destination 0.
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  Orientation o = Orientation::from_ranking(g, identity_ranking(3));
  BrokenSingleEdgeReversal broken(g, std::move(o), 0);
  const auto result = model_check(broken, [](const BrokenSingleEdgeReversal& a) {
    return acyclic_property_message(a.orientation());
  });
  ASSERT_FALSE(result.ok) << "the broken rule must create a cycle somewhere";
  EXPECT_FALSE(result.counterexample.empty());
  EXPECT_NE(result.failure.find("cycle"), std::string::npos);

  // The counterexample schedule must actually replay to a cyclic state.
  BrokenSingleEdgeReversal replay(g, Orientation::from_ranking(g, identity_ranking(3)), 0);
  for (const NodeId u : result.counterexample) {
    ASSERT_TRUE(replay.enabled(u));
    replay.apply(u);
  }
  EXPECT_FALSE(is_acyclic(replay.orientation()));
}

TEST(ModelCheckTest, StateBudgetEnforced) {
  Instance inst = make_worst_case_chain(12);
  OneStepPRAutomaton initial(inst);
  EXPECT_THROW(model_check(
                   initial, [](const OneStepPRAutomaton&) { return std::string{}; }, 3),
               std::runtime_error);
}

TEST(ModelCheckTest, AllPropertiesCombinator) {
  Instance inst = make_worst_case_chain(4);
  OneStepPRAutomaton initial(inst);
  const auto combined = all_properties(
      [](const OneStepPRAutomaton& a) { return acyclic_property_message(a.orientation()); },
      [](const OneStepPRAutomaton& a) {
        const auto c = check_corollary_3_3(a);
        return c.ok ? std::string{} : c.detail;
      });
  const auto result = model_check(initial, combined);
  EXPECT_TRUE(result.ok) << result.failure;
}

TEST(ModelCheckTest, TransitionCountsAtLeastStatesMinusOne) {
  Instance inst = make_worst_case_chain(5);
  OneStepPRAutomaton initial(inst);
  const auto result =
      model_check(initial, [](const OneStepPRAutomaton&) { return std::string{}; });
  EXPECT_GE(result.transitions_explored + 1, result.states_explored);
}

}  // namespace
}  // namespace lr
