#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "graph/graph.hpp"
#include "routing/dynamic_heights.hpp"

/// \file tora.hpp
/// A TORA-style routing service: the motivating application of link
/// reversal (Gafni–Bertsekas; Park–Corson's TORA).  The service maintains a
/// destination-oriented DAG over a churning topology and forwards packets
/// greedily "downhill" along it.  This is the centralized service; the
/// message-passing control/data planes are sim/dist_lr.hpp and
/// sim/dist_router.hpp.
///
/// Route maintenance *is* partial reversal: a link removal can strand nodes
/// as sinks, and `stabilize()` reverses links until every node in the
/// destination's component is re-oriented.  Packets between maintenance
/// events follow strictly decreasing heights, so forwarding is loop-free —
/// precisely the property the paper's acyclicity theorem guarantees.

namespace lr {

/// Outcome of one send_packet() call.
struct DeliveryResult {
  bool delivered = false;    ///< true iff the packet reached the destination
  std::vector<NodeId> path;  ///< hop sequence (source first, destination last)
};

/// Service-lifetime counters of a ToraRouter.
struct ToraStats {
  std::uint64_t packets_sent = 0;       ///< send_packet() calls
  std::uint64_t packets_delivered = 0;  ///< packets that reached the destination
  std::uint64_t packets_buffered = 0;   ///< parked while source was partitioned
  std::uint64_t packets_flushed = 0;    ///< buffered packets later delivered
  std::uint64_t total_hops = 0;         ///< hops of all delivered packets
  std::uint64_t link_events = 0;        ///< link_up/link_down calls
  std::uint64_t reversals = 0;  ///< reversal steps across all maintenance
};

/// The centralized TORA-style routing service; see the file comment.
class ToraRouter {
 public:
  /// Builds the service over an initial topology and stabilizes it.
  ToraRouter(const Graph& initial_topology, NodeId destination);

  /// The destination all packets are addressed to.
  NodeId destination() const noexcept { return dag_.destination(); }

  /// Topology churn.  Each call re-stabilizes the DAG immediately (the
  /// centralized analogue of TORA's maintenance phase).
  void link_up(NodeId u, NodeId v);
  void link_down(NodeId u, NodeId v);

  /// Sends a packet from `source`; returns the path taken if a route
  /// exists.  If the source is partitioned from the destination the packet
  /// is *buffered* at the source (TORA's behavior) and re-tried after every
  /// subsequent topology event; `DeliveryResult.delivered` is then false.
  DeliveryResult send_packet(NodeId source);

  /// True iff `u` currently has a route to the destination.
  bool has_route(NodeId u) const { return dag_.routable(u); }

  /// Packets currently parked at partitioned sources.
  std::size_t buffered_packets() const;

  /// Service-lifetime counters.
  const ToraStats& stats() const noexcept { return stats_; }
  /// The underlying height DAG (read-only).
  const DynamicHeightsDag& dag() const noexcept { return dag_; }

 private:
  void flush_buffers();

  DynamicHeightsDag dag_;
  std::vector<std::uint32_t> buffer_;  ///< parked packet count per source
  std::vector<NodeId> parked_;         ///< sources with parked packets, ascending
  ToraStats stats_;
};

/// Scripted churn driver for experiments: flips `events` random links
/// (down if up, up if down) over the lifetime of the run, sending `packets`
/// random-source packets after every event.  Returns the final stats.
ToraStats run_churn_scenario(const Graph& topology, NodeId destination, std::size_t events,
                             std::size_t packets_per_event, std::uint64_t seed);

}  // namespace lr
