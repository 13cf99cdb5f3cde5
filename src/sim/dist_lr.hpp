#pragma once

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "sim/network.hpp"

/// \file dist_lr.hpp
/// Distributed link reversal over the simulated asynchronous network —
/// the deployment the algorithms were designed for (routing in networks
/// "with frequently changing topology", Gafni–Bertsekas).
///
/// Protocol: height-based, TORA-style.  Every node keeps its own height
/// (a pair for Full Reversal, a triple for Partial Reversal) plus its last
/// received view of each neighbor's height.  The edge {u, v} is directed
/// from the higher height to the lower, so the *global* orientation is
/// acyclic at every instant by total order, and each node can evaluate its
/// sink condition purely locally.  When a node's view says it is a sink, it
/// applies the GB height update and broadcasts UPDATE(height) to its
/// neighbors.
///
/// Heights increase monotonically, so stale (re-ordered) UPDATEs are
/// filtered by a "newer wins" guard; when the event queue drains, all
/// views agree with the true heights and no non-destination sink remains,
/// i.e. the derived orientation is destination-oriented.  Experiment E7
/// measures message complexity and convergence time under delay and churn
/// sweeps.

namespace lr {

/// Which Gafni–Bertsekas height update a DistLinkReversal node applies.
enum class ReversalRule : std::uint8_t {
  kFull,     ///< pair heights, a := max(neighbors) + 1
  kPartial,  ///< triple heights, GB partial-reversal update
};

/// The height-based distributed link-reversal protocol; see the file
/// comment.
class DistLinkReversal {
 public:
  /// Heights are initialized from the instance's initial orientation (a
  /// topological-level assignment), and each node starts with an exact view
  /// of its neighbors' initial heights.  The network must outlive this
  /// object and be built over `instance.graph` (else
  /// std::invalid_argument); the protocol reads the network's CSR.
  DistLinkReversal(const Instance& instance, ReversalRule rule, Network& network);

  /// Same, but reads `frozen` — a CSR snapshot of `instance.graph` (e.g.
  /// the sweep cache's) — instead of the network's.  `frozen` must match
  /// the instance's node and edge counts (else std::invalid_argument);
  /// only its adjacency arrays are read, so its initial orientation need
  /// not match the instance's.
  DistLinkReversal(const Instance& instance, ReversalRule rule, Network& network,
                   const CsrGraph& frozen);

  /// Kicks off the protocol: every node evaluates its sink condition once.
  /// Drive the network (network.run_until_idle()) afterwards.
  void start();

  /// Re-announces both endpoints' heights over a restored link.  Call after
  /// Network::set_link_up(e, true) so the endpoints re-synchronize views
  /// that went stale while the link was down.
  void notify_link_restored(EdgeId e);

  /// Anti-entropy round (TORA's periodic refresh, simplified): every node
  /// re-broadcasts its current height.  Because stale views are the *only*
  /// effect of lost messages, a resync round after quiescence repairs any
  /// divergence; repeat until converged.  Returns messages sent.
  std::uint64_t resync_round();

  /// Drives the protocol to convergence under message loss: start, drain,
  /// then resync+drain until converged or `max_rounds` exhausted.  Returns
  /// the number of resync rounds used, or std::nullopt if still unconverged
  /// (e.g. 100% loss).
  std::optional<std::size_t> run_with_resync(std::size_t max_rounds = 64);

  /// The node's true height as a lexicographic triple (a, b, id); for the
  /// full-reversal rule b is fixed at 0.
  std::tuple<std::int64_t, std::int64_t, NodeId> height(NodeId u) const {
    return {a_[u], b_[u], u};
  }

  /// Orientation derived from the *true* heights (higher endpoint -> lower).
  /// Acyclic by construction at any time.
  Orientation derived_orientation() const;

  /// True iff the derived orientation is destination-oriented (call once
  /// the network is idle).
  bool converged() const;

  /// The destination node D.
  NodeId destination() const noexcept { return destination_; }
  /// Reversal steps performed by all nodes so far (the sum of the per-node
  /// counters — kept per node rather than global so handlers running on
  /// different shards of the sharded event loop never share a counter).
  std::uint64_t total_steps() const;
  /// Reversal steps performed by node `u` so far.
  std::uint64_t steps(NodeId u) const { return steps_[u]; }

  /// The neighbor u would forward a data packet to: the one with the
  /// lexicographically smallest *viewed* height, provided that height is
  /// below u's own (i.e. u believes the link points away from itself).
  /// nullopt if u believes itself a sink.  This is the data-plane query
  /// used by DistRouter.
  std::optional<NodeId> best_out_neighbor_view(NodeId u) const;

 private:
  bool locally_sink(NodeId u) const;
  void maybe_step(NodeId u);
  void broadcast_height(NodeId u);
  void on_message(const NetMessage& message);

  const Graph* graph_;
  Network* network_;
  ReversalRule rule_;
  NodeId destination_;

  // Flat CSR snapshot of the topology: the event-loop hot path (sink test,
  // height update, broadcast, view refresh on every delivered message)
  // iterates its contiguous id arrays, and neighbor-view slots below are
  // addressed by CSR position.  Shares the network's (or the supplied
  // snapshot's) arrays.
  CsrGraph csr_;

  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
  // Views of neighbor heights, indexed by CSR adjacency position.
  std::vector<std::int64_t> view_a_;
  std::vector<std::int64_t> view_b_;

  std::vector<std::uint64_t> steps_;
};

}  // namespace lr
