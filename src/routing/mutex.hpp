#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "routing/dynamic_heights.hpp"

/// \file mutex.hpp
/// Mutual exclusion via link reversal — the third application named in the
/// paper's abstract.  This is the centralized service; its message-passing
/// counterpart is sim/dist_mutex.hpp.
///
/// Token-based scheme on a destination-oriented DAG (Welch–Walter style,
/// in the spirit of Raymond's tree algorithm generalized to DAGs): the
/// token holder is the DAG's destination, so every requester always has a
/// directed path to the current holder along which its request travels.
/// Granting the token to the next requester re-targets the DAG and lets
/// partial reversal re-orient the edges towards the new holder.  Acyclicity
/// (the paper's theorem) is what keeps request routes loop-free throughout.

namespace lr {

/// Service-lifetime counters of a LinkReversalMutex.
struct MutexStats {
  std::uint64_t requests = 0;            ///< accepted request() calls
  std::uint64_t grants = 0;              ///< token hand-offs performed
  std::uint64_t total_request_hops = 0;  ///< hops request paths traveled
  std::uint64_t total_reversals = 0;     ///< reversal steps re-orienting on grants
};

/// The centralized token-based mutual-exclusion service; see the file
/// comment.
class LinkReversalMutex {
 public:
  /// The token starts at `initial_holder`.  The topology must be connected
  /// for global liveness.
  LinkReversalMutex(const Graph& topology, NodeId initial_holder);

  /// The node currently holding the token.
  NodeId holder() const noexcept { return dag_.destination(); }

  /// True iff `u` currently holds the token and may enter its critical
  /// section.  Exactly one node satisfies this at any time (safety).
  bool may_enter(NodeId u) const { return u == holder(); }

  /// Requests the critical section for `u`.  The request is routed along
  /// the DAG to the holder and queued FIFO.  Returns the hop count of the
  /// request path (0 if u already holds the token or has a pending
  /// request).
  std::size_t request(NodeId u);

  /// Releases the critical section at the current holder and, if requests
  /// are pending, hands the token to the oldest requester (re-orienting the
  /// DAG via partial reversal).  Returns the new holder.
  NodeId release();

  /// Topology churn (the service-harness path): adds / removes an
  /// undirected link and immediately re-stabilizes towards the holder, so
  /// request routes stay valid across churn.  Idempotent, incremental
  /// (O(deg) plus the reversal steps that follow).  A removal can partition
  /// requesters from the holder; request() then has no route, which
  /// callers detect via dag().route() first.
  void link_up(NodeId u, NodeId v);
  /// \copydoc link_up
  void link_down(NodeId u, NodeId v);

  /// Pending requests in grant order.
  const std::deque<NodeId>& queue() const noexcept { return queue_; }

  /// Service-lifetime counters.
  const MutexStats& stats() const noexcept { return stats_; }
  /// The underlying height DAG (read-only).
  const DynamicHeightsDag& dag() const noexcept { return dag_; }

 private:
  DynamicHeightsDag dag_;
  std::deque<NodeId> queue_;
  std::vector<bool> pending_;
  MutexStats stats_;
};

}  // namespace lr
