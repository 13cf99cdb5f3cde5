#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

/// \file dist_leader.hpp
/// Distributed leader election by link reversal over the simulated
/// asynchronous network — the message-passing counterpart of
/// routing/leader_election.hpp.
///
/// Protocol sketch (a simplified variant of the Welch–Walter / Ingram et
/// al. leader-election-by-link-reversal family, adapted to our height
/// substrate):
///
///  * Every node u keeps a *candidate* c_u (initially itself) and a
///    partial-reversal height; the DAG is conceptually oriented towards
///    the current best candidate.
///  * Nodes gossip CANDIDATE(c, height) messages.  A node adopting a
///    better candidate (higher id) resets its height below its neighbors'
///    so the DAG re-orients towards the better candidate's region.
///  * When candidates are equal, ordinary partial-reversal height updates
///    fire at local sinks that are not the candidate itself, routing
///    everyone towards the leader.
///
/// On a connected component the maximum id wins everywhere (gossip
/// convergence), after which the height mechanics make the leader the
/// unique sink.  We verify both: candidate agreement and the sink
/// certificate.

namespace lr {

/// Message-passing leader election over the simulated network; see the
/// file comment for the protocol sketch.
class DistLeaderElection {
 public:
  /// Builds the election over `topology` (which must outlive this object)
  /// and installs every node's delivery handler on `network`, which must
  /// be built over `topology` (else std::invalid_argument); the election
  /// reads the network's CSR.
  DistLeaderElection(const Graph& topology, Network& network);

  /// Starts the election: every node announces its initial candidate.
  void start();

  /// The candidate node `u` currently believes in.
  NodeId candidate(NodeId u) const { return candidate_[u]; }

  /// True iff all nodes agree on one candidate (call when the network is
  /// idle); returns the agreed leader if so.
  std::optional<NodeId> agreed_leader() const;

  /// True iff, per the current heights, the agreed leader is the unique
  /// sink — the local leadership certificate.
  bool leader_is_unique_sink() const;

  /// Times any node adopted a better candidate (summed over the per-node
  /// counters — kept per node so handlers running on different shards of
  /// the sharded event loop never share a counter).
  std::uint64_t candidate_adoptions() const;
  /// Ordinary partial-reversal height steps fired (summed per node, for
  /// the same reason).
  std::uint64_t height_steps() const;

 private:
  struct View {
    NodeId candidate = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
  };

  bool height_below_all_neighbors(NodeId u) const;
  void maybe_act(NodeId u);
  void broadcast(NodeId u);
  void on_message(const NetMessage& message);
  std::size_t view_slot(NodeId u, NodeId neighbor) const;

  const Graph* graph_;
  Network* network_;
  // Flat CSR snapshot of the topology (the network's, shared): every hot
  // loop (candidate adoption, sink test, partial-reversal update,
  // broadcast, view refresh) iterates its contiguous id arrays, and the
  // view slots below are addressed by CSR position.
  CsrGraph csr_;
  std::vector<NodeId> candidate_;
  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
  std::vector<View> views_;  // neighbor views, indexed by CSR position
  // Per-node action counters (see the accessor comments).
  std::vector<std::uint64_t> adoptions_;
  std::vector<std::uint64_t> height_steps_;
};

}  // namespace lr
