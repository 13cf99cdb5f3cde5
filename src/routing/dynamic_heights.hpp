#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <tuple>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

/// \file dynamic_heights.hpp
/// A dynamic-topology partial-reversal core shared by the routing services
/// (TORA-style routing, leader election, mutual exclusion).
///
/// Unlike the Section 3/4 automata — which fix G once — the applications
/// the paper's abstract names (routing, leader election, mutual exclusion)
/// live on networks whose links come and go and whose "destination" can
/// change (a new leader, the next token holder).  This class maintains
/// Gafni–Bertsekas triple heights over a mutable undirected topology:
///
///   * every link is directed from its lexicographically higher endpoint's
///     height to the lower one (acyclic by total order, always),
///   * `stabilize()` repeatedly applies the partial-reversal height update
///     to non-destination sinks until the destination's component is
///     destination-oriented,
///   * nodes outside the destination's component are reported unroutable
///     rather than reversed forever (the paper's model assumes
///     connectivity; TORA handles partition detection separately, which we
///     approximate by the component check).
///
/// Every event pays for what it touches, not for n (docs/ARCHITECTURE.md,
/// "src/routing"):
///
///   * **Links.**  Each node keeps an ascending neighbour list, so
///     `add_link`/`remove_link` cost O(deg) and `has_link` is one binary
///     search.  Per-node out-degree counters, kept up to date under height
///     updates, make a sink test O(1).
///   * **Component.**  Membership in the destination's component is an
///     epoch stamp per node, so `routable()` is O(1).  A link that joins
///     another component absorbs that side by BFS.  A removal searches
///     only when it may split the component: on a stabilized DAG, only
///     when the higher endpoint lost its last out-link, since every other
///     node still has a descending path to the destination.  The search
///     runs BFS from both endpoints in lockstep, one neighbour scan per
///     side per round, and relabels the side that runs out first, so it
///     costs O(smaller side + its degree sum).  A re-target inside the
///     component is O(1); one outside it relabels the new component.
///   * **Stabilization.**  Only three events can create a non-destination
///     sink in the component: a removal can sink its higher endpoint, a
///     merge can bring in the absorbed side's sinks, and a re-target turns
///     the old destination into one.  Those candidates wait in a pending
///     list; `stabilize()` sorts it ascending and filters it exactly like
///     an all-n sink scan would, so the reversal sequence is the one a
///     whole-graph scan produces.
///
/// `maintenance_visits()` counts the nodes the component searches and the
/// seeding visit, which is how the tests pin this cost model.

namespace lr {

/// The dynamic-topology partial-reversal height core; see the file comment.
class DynamicHeightsDag {
 public:
  /// Starts with `num_nodes` nodes, no links, and the given destination.
  /// Heights start at (0, id) — distinct, so any initial link set is
  /// acyclic by total order.
  DynamicHeightsDag(std::size_t num_nodes, NodeId destination);

  /// Batch form: starts with all of `topology`'s links (equivalent to
  /// add_link over every edge, in O(n + m)).
  DynamicHeightsDag(const Graph& topology, NodeId destination);

  /// Number of nodes (fixed at construction; links churn, nodes do not).
  std::size_t num_nodes() const noexcept { return a_.size(); }

  /// The node the DAG is oriented towards.
  NodeId destination() const noexcept { return destination_; }

  /// Re-targets the DAG (new leader / token holder).  Call stabilize()
  /// afterwards.  O(1) when `d` is in the current destination's
  /// component; otherwise O(size of d's component).
  void set_destination(NodeId d);

  /// Adds / removes an undirected link.  Idempotent.  Call stabilize()
  /// afterwards to restore destination orientation.  O(deg) plus any
  /// component search the file comment describes.
  void add_link(NodeId u, NodeId v);
  /// \copydoc add_link
  void remove_link(NodeId u, NodeId v);
  /// True iff the undirected link {u, v} is currently present.
  bool has_link(NodeId u, NodeId v) const;

  /// Adjacency builds performed: always 1, the construction.  Link events
  /// update the neighbour lists in place and never rebuild; the tora churn
  /// records report this counter.
  std::uint64_t snapshot_rebuilds() const noexcept { return 1; }

  /// Effective add_link/remove_link calls so far (an idempotent repeat
  /// changes nothing and is not counted).
  std::uint64_t snapshot_patches() const noexcept { return snapshot_patches_; }

  /// Nodes visited by maintenance so far: one per node an absorb BFS or a
  /// split search reaches, and one per pending candidate `stabilize()`
  /// examines when seeding its work-list.  Reversal steps and their
  /// neighbour scans are not included (`total_reversals()` counts those).
  /// A work counter for tests and benches; no record reports it.
  std::uint64_t maintenance_visits() const noexcept { return maintenance_visits_; }

  /// The Gafni–Bertsekas triple height of `u`: (a, b, id), compared
  /// lexicographically.
  std::tuple<std::int64_t, std::int64_t, NodeId> height(NodeId u) const {
    return {a_[u], b_[u], u};
  }

  /// True iff the link {u, v} is currently directed u -> v.
  bool directed_from(NodeId u, NodeId v) const { return height(u) > height(v); }

  /// True iff u has no outgoing link (and at least one link).  O(1) via the
  /// maintained out-degree counters.
  bool is_sink(NodeId u) const { return !adj_[u].empty() && out_degree_[u] == 0; }

  /// Applies partial-reversal height updates to non-destination sinks in
  /// the destination's component until none remain.  Returns the number of
  /// reversal steps performed.  Nodes in other components are left alone.
  std::uint64_t stabilize();

  /// True iff u is in the destination's component (i.e. routable once
  /// stabilized).  O(1).
  bool routable(NodeId u) const { return member_[u] == epoch_; }

  /// The out-neighbor with the smallest height (the steepest-descent next
  /// hop), or nullopt if u is the destination, a sink, or unroutable.
  std::optional<NodeId> next_hop(NodeId u) const;

  /// Follows next hops from u to the destination; nullopt if unroutable.
  /// The returned path starts at u and ends at the destination.
  std::optional<std::vector<NodeId>> route(NodeId u) const;

  /// Total reversal steps performed by all stabilize() calls so far.
  std::uint64_t total_reversals() const noexcept { return total_reversals_; }

  /// Current neighbors of `u`, ascending.  Invalidated by the next
  /// add_link/remove_link touching `u`.
  std::span<const NodeId> neighbors(NodeId u) const { return adj_[u]; }

 private:
  void partial_reversal_step(NodeId u);
  /// Queues `u` for the next stabilize() if it is a non-destination sink
  /// in the destination's component.
  void note_sink(NodeId u);
  /// Stamps every node reachable from `root` through unstamped nodes with
  /// the current epoch, noting the sinks it reaches.
  void absorb(NodeId root);
  /// After the link {u, v} went away inside the component: finds whether
  /// u and v are still connected and, if not, relabels the side that ran
  /// out first.
  void split_search(NodeId u, NodeId v);

  NodeId destination_;
  std::vector<std::vector<NodeId>> adj_;  ///< ascending neighbour lists
  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
  std::vector<std::uint32_t> out_degree_;  ///< derived from heights
  /// Component stamp: `member_[u] == epoch_` iff u is in the destination's
  /// component.  0 is never an epoch.
  std::vector<std::uint64_t> member_;
  std::uint64_t epoch_ = 1;
  /// Split-search scratch: `mark_[u]` is 2·search or 2·search + 1 when
  /// the current search reached u from the first or second endpoint.
  std::vector<std::uint64_t> mark_;
  std::uint64_t search_ = 0;
  std::vector<NodeId> side_[2];  ///< split-search BFS queues (also the visit lists)
  std::vector<NodeId> frontier_;  ///< absorb BFS queue
  /// Sink candidates since the last stabilize(); a superset of the
  /// non-destination sinks in the destination's component.
  std::vector<NodeId> pending_;
  std::queue<NodeId> work_;  ///< stabilize()'s FIFO, kept so its blocks are reused
  /// True when the destination's component is known to hold no
  /// non-destination sink (set by stabilize(), cleared by note_sink()).
  bool oriented_ = true;
  std::uint64_t total_reversals_ = 0;
  std::uint64_t snapshot_patches_ = 0;
  std::uint64_t maintenance_visits_ = 0;
};

}  // namespace lr
