#pragma once

#include <cstdint>
#include <vector>

#include "core/lr_base.hpp"

/// \file newpr.hpp
/// The paper's new algorithm (Algorithm 2, `NewPR`).
///
/// NewPR is the static reformulation of Partial Reversal at the heart of
/// the paper's label-free acyclicity proof.  Each node keeps only a step
/// counter `count[u]`; the derived `parity[u]` selects which of the two
/// *constant* sets is reversed when u fires as a sink:
///
///   * parity even  -> reverse the edges to in-nbrs_u  (initial in-set),
///   * parity odd   -> reverse the edges to out-nbrs_u (initial out-set).
///
/// If the selected set is empty (u was an initial source or sink) the
/// action is a "dummy" step: no edge moves, only the counter increments.
/// Dummy steps are what let the proof treat all nodes uniformly, and their
/// cost is quantified by experiment E4.

namespace lr {

/// The derived variable parity[u] = count[u] mod 2.
enum class Parity : std::uint8_t {
  kEven,  ///< next firing reverses the initial in-set
  kOdd,   ///< next firing reverses the initial out-set
};

/// The paper's NewPR automaton (Algorithm 2).
class NewPRAutomaton : public LinkReversalBase {
 public:
  /// Actions are single nodes: reverse(u).
  using Action = NodeId;

  /// Builds NewPR state over an externally owned graph.
  NewPRAutomaton(const Graph& g, Orientation initial, NodeId destination)
      : LinkReversalBase(g, std::move(initial), destination),
        count_(graph().num_nodes(), 0) {}

  /// Convenience constructor from a generator Instance.
  explicit NewPRAutomaton(const Instance& instance)
      : NewPRAutomaton(instance.graph, instance.make_orientation(), instance.destination) {}

  /// The history variable count[u]: steps u has taken so far.
  std::uint64_t count(NodeId u) const { return count_[u]; }

  /// The derived variable parity[u].
  Parity parity(NodeId u) const {
    return count_[u] % 2 == 0 ? Parity::kEven : Parity::kOdd;
  }

  /// Precondition of reverse(u): u is a non-destination sink.
  bool enabled(NodeId u) const { return sink_enabled(u); }

  /// True iff firing u *now* would reverse no edges (the selected constant
  /// set is empty).  Meaningful only while u is a sink.
  bool would_be_dummy_step(NodeId u) const {
    return selected_set_size(u) == 0;
  }

  /// Total dummy steps taken so far (the overhead NewPR pays over
  /// OneStepPR; see Section 4.1's discussion and experiment E4).
  std::uint64_t dummy_steps() const noexcept { return dummy_steps_; }

  /// Total steps taken (dummy + real).
  std::uint64_t total_steps() const noexcept { return total_steps_; }

  /// Effect of reverse(u).
  void apply(NodeId u);

  /// Unique encoding of (G', all counts) for the exhaustive model checker.
  /// Counts are included in full (not just parities) because Invariant 4.2
  /// constrains their values.
  std::vector<std::uint8_t> state_fingerprint() const {
    std::vector<std::uint8_t> fp;
    fp.reserve(graph().num_edges() + 8 * count_.size());
    append_orientation_fingerprint(fp);
    for (const std::uint64_t c : count_) {
      for (int shift = 0; shift < 64; shift += 8) {
        fp.push_back(static_cast<std::uint8_t>(c >> shift));
      }
    }
    return fp;
  }

 private:
  std::size_t selected_set_size(NodeId u) const {
    // Count of initial in-nbrs (even parity) or out-nbrs (odd parity).
    std::size_t in_count = 0;
    for (const EdgeId e : graph().incident_edges(u)) {
      if (initial_dir(u, e) == Dir::kIn) ++in_count;
    }
    return parity(u) == Parity::kEven ? in_count : graph().degree(u) - in_count;
  }

  std::vector<std::uint64_t> count_;
  std::uint64_t dummy_steps_ = 0;
  std::uint64_t total_steps_ = 0;
};

}  // namespace lr
