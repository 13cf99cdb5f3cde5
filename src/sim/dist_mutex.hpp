#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

/// \file dist_mutex.hpp
/// Distributed mutual exclusion by link reversal over the simulated
/// network — a simplified Walter–Welch–Vaidya-style token algorithm (the
/// third application from the paper's abstract, in its message-passing
/// form).
///
/// Mechanics:
///  * Every node has a partial-reversal height; the token holder is always
///    the global height minimum, so the height-induced DAG is
///    destination-oriented towards the token.
///  * REQUEST(origin, path) messages route greedily *downhill* using local
///    height views.  A non-holder node with a pending request and no
///    downhill neighbor performs a request-driven partial-reversal step
///    (raises itself) and retries — reversals happen exactly where requests
///    are stuck, the algorithm's signature property.
///  * The holder queues requests FIFO; on release it sends the TOKEN back
///    along the recorded request path, and the recipient drops its height
///    just below the sender's, becoming the new global minimum.
///  * Heights can *decrease* on token receipt, so view updates carry
///    per-sender sequence numbers instead of relying on height
///    monotonicity.
///
/// Safety (at most one holder ever) and liveness (every request eventually
/// granted) are asserted by the tests.

namespace lr {

/// Message-passing token-based mutual exclusion over the simulated
/// network; see the file comment for the mechanics.
class DistMutex {
 public:
  /// Builds the service over `topology` (which must outlive this object),
  /// seats the token at `initial_holder`, and installs every node's
  /// delivery handler on `network`, which must be built over `topology`
  /// (else std::invalid_argument); the service reads the network's CSR.
  DistMutex(const Graph& topology, NodeId initial_holder, Network& network);

  /// Node u asks for the critical section.  No-op if u already holds the
  /// token or has an outstanding request.  Drive the network afterwards.
  void request(NodeId u);

  /// The current holder finishes its critical section; if requests are
  /// queued, the token is granted to the oldest (drive the network to let
  /// it travel).  No-op while the token is in flight.
  void release();

  /// The node currently holding the token, or nullopt while it is in
  /// flight between holder and grantee.
  std::optional<NodeId> holder() const;

  /// True iff u may enter its critical section now.
  bool may_enter(NodeId u) const { return is_holder_[u] != 0; }

  /// Requests waiting at the holder, in grant order (summed over the
  /// per-node queues; only the holder's can be non-empty at quiescence).
  std::size_t queued_requests() const;

  /// Token hand-offs completed so far (summed over the per-node counters —
  /// kept per node so handlers running on different shards of the sharded
  /// event loop never share a counter; same for the other per-node state
  /// below).
  std::uint64_t grants() const;
  /// Request-driven partial-reversal steps fired so far (summed per node).
  std::uint64_t reversal_steps() const;

 private:
  enum MessageKind : std::int64_t { kHeight = 0, kRequest = 1, kToken = 2 };

  struct QueuedRequest {
    NodeId origin;
    std::vector<NodeId> path;  ///< origin .. holder
  };

  void on_message(const NetMessage& message);
  void handle_height(NodeId u, const NetMessage& message);
  void handle_request(NodeId u, const NetMessage& message);
  void handle_token(NodeId u, const NetMessage& message);
  void try_forward_pending(NodeId u);
  void forward_request(NodeId u, QueuedRequest request);
  std::optional<NodeId> downhill_neighbor(NodeId u) const;
  void reversal_step(NodeId u);
  void broadcast_height(NodeId u);
  std::size_t view_slot(NodeId u, NodeId neighbor) const;

  const Graph* graph_;
  Network* network_;
  // Flat CSR snapshot of the topology (the network's, shared): the
  // event-loop hot path (downhill scan, request-driven reversal,
  // broadcast, view refresh) iterates its contiguous id arrays, and the
  // view slots below are addressed by CSR position.
  CsrGraph csr_;

  // Sharded-loop discipline: every member a delivery handler touches is
  // per-node state owned by the receiving node (its shard), so handlers on
  // different shards never write the same element.  The token-holder fact
  // is therefore a per-node flag (set by the grantee's handle_token, only
  // ever for itself; cleared by the main-thread release()) instead of one
  // shared NodeId.
  std::vector<std::uint8_t> is_holder_;  ///< all zero while in flight

  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
  std::vector<std::int64_t> seq_;

  struct View {
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t seq = -1;
  };
  std::vector<View> views_;  // neighbor views, indexed by CSR position

  // Reused per-node payload buffers for REQUEST/TOKEN assembly:
  // Network::send copies the words into its message pool before returning,
  // so one scratch vector per node serves every send without steady-state
  // allocation (per node, not shared, for the sharding discipline above).
  std::vector<std::vector<std::int64_t>> payload_scratch_;

  std::vector<std::deque<QueuedRequest>> grant_queue_;  // at the holder
  std::vector<std::deque<QueuedRequest>> pending_;  // stuck at intermediate nodes
  // Origin has an unserved request.  uint8_t, not vector<bool>: packed
  // bits would let two shards' byte-level writes race on neighbors.
  std::vector<std::uint8_t> outstanding_;

  std::vector<std::uint64_t> grants_;          // per-node grant counters
  std::vector<std::uint64_t> reversal_steps_;  // per-node reversal counters
};

}  // namespace lr
