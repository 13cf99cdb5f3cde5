#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"

/// \file graph.hpp
/// The undirected graph substrate G = (V, E).
///
/// G is immutable for the lifetime of a link-reversal execution: the paper
/// assumes "no nodes and edges are added or removed from the graph", so the
/// topology is frozen at construction and only the *orientation* (see
/// orientation.hpp) changes.  The routing layer (src/routing) models
/// topology churn by constructing successive Graph values.
///
/// The adjacency is stored in the CSR layout that `CsrGraph` executes on
/// (graph/csr.hpp): `offsets` (n+1 block boundaries), `nbr` and `edge` (2m
/// positions, ascending neighbour order per block), plus one endpoint pair
/// per edge id.  The arrays are read-only spans behind one shared owner —
/// a block of vectors, or a snapshot's mmap (graph/snapshot.hpp) — so
/// copying a Graph, or freezing it into a CsrGraph, shares the arrays
/// instead of duplicating them.

namespace lr {

class CsrGraph;

/// Immutable undirected multigraph-free graph with dense node/edge ids.
///
/// Invariants established at construction:
///  * no self loops,
///  * no parallel edges,
///  * endpoints of edge e are stored canonically as (a, b) with a < b,
///  * every adjacency block lists its neighbours in ascending order.
class Graph {
 public:
  /// Builds a graph with `num_nodes` nodes and the given undirected edges;
  /// edge i of the list becomes EdgeId i.  The vector is canonicalized in
  /// place and kept as the endpoint array, without a copy.  Strictly
  /// ascending canonical input (what the generators emit) is accepted in
  /// O(n + m): it cannot hold parallel edges and needs no sorting.  Throws
  /// std::invalid_argument on self loops, parallel edges, or out-of-range
  /// endpoints, and std::overflow_error when the adjacency would exceed the
  /// 32-bit CSR position space (2·E >= 2^32; see the offset-width policy in
  /// graph/types.hpp).
  Graph(std::size_t num_nodes, std::vector<std::pair<NodeId, NodeId>> edges);

  /// The Graph of a frozen CSR: shares `csr`'s offsets, neighbour and edge
  /// arrays (and whatever owns them — for a loaded snapshot, the mapping)
  /// and derives only the endpoint array, in O(n + m).  A CsrGraph is
  /// either the freeze of a validated Graph or a checksummed snapshot of
  /// one, so no sorting or duplicate check is needed; throws
  /// std::invalid_argument when an edge id or neighbour is out of range.
  explicit Graph(const CsrGraph& csr);

  /// An empty graph (0 nodes).  Useful as a placeholder before assignment.
  Graph() = default;

  /// Number of nodes.
  std::size_t num_nodes() const noexcept { return offsets_.size() - 1; }
  /// Number of undirected edges.
  std::size_t num_edges() const noexcept { return endpoints_.size(); }

  /// Smaller endpoint of edge `e` (canonical order).
  NodeId edge_u(EdgeId e) const { return endpoints_[e].first; }
  /// Larger endpoint of edge `e` (canonical order).
  NodeId edge_v(EdgeId e) const { return endpoints_[e].second; }

  /// Given one endpoint of `e`, returns the other.  Precondition: `n` is an
  /// endpoint of `e`.
  NodeId other_endpoint(EdgeId e, NodeId n) const {
    return endpoints_[e].first == n ? endpoints_[e].second : endpoints_[e].first;
  }

  /// True iff `n` is an endpoint of edge `e`.
  bool is_endpoint(EdgeId e, NodeId n) const {
    return endpoints_[e].first == n || endpoints_[e].second == n;
  }

  /// The paper's `nbrs_u`: the neighbours of node `u`, ascending.  The
  /// returned span is valid as long as the graph (or a copy of it) lives.
  std::span<const NodeId> neighbors(NodeId u) const { return nbr_.subspan(offsets_[u], degree(u)); }

  /// Edge ids incident to `u`, aligned with `neighbors(u)`.
  std::span<const EdgeId> incident_edges(NodeId u) const {
    return edge_.subspan(offsets_[u], degree(u));
  }

  /// Degree of node `u`.
  std::size_t degree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }

  /// Looks up the edge between `u` and `v`; returns kNoEdge if absent.
  /// O(log deg(u)) via binary search over the sorted adjacency of `u`.
  EdgeId edge_between(NodeId u, NodeId v) const;

  /// True iff `u` and `v` are adjacent in G.
  bool adjacent(NodeId u, NodeId v) const { return edge_between(u, v) != kNoEdge; }

  /// True iff G is connected (the model assumes every node can eventually
  /// be oriented towards the destination, which requires connectivity).
  bool is_connected() const;

  /// All edges as canonical (u, v) pairs, indexed by EdgeId.
  std::span<const std::pair<NodeId, NodeId>> edges() const noexcept { return endpoints_; }

  /// Human-readable summary, e.g. "Graph(n=5, m=7)".
  std::string describe() const;

  /// Structural equality: same node count and identical edge list (the
  /// adjacency is a function of the two).
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  friend class CsrGraph;

  static constexpr CsrPos kNoOffsets[1] = {0};  // the empty graph's offsets

  std::shared_ptr<const void> owner_;  // keeps every array below alive
  std::span<const std::pair<NodeId, NodeId>> endpoints_;  // by EdgeId, canonical
  std::span<const CsrPos> offsets_ = kNoOffsets;  // size n+1; CsrPos by graph/types.hpp
  std::span<const NodeId> nbr_;      // size 2m; neighbours, ascending per block
  std::span<const EdgeId> edge_;     // size 2m; edge ids, aligned with nbr_
};

}  // namespace lr
