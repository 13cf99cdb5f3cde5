#pragma once

#include <cstddef>
#include <span>
#include <string>
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

namespace lr {

/// An incidence record: the neighbor reached through an edge, plus the
/// edge's id so per-edge state can be looked up in O(1).
struct Incidence {
  NodeId neighbor = kNoNode;  ///< the node reached through the edge
  EdgeId edge = kNoEdge;      ///< the edge's id (for per-edge state)

  /// Member-wise equality.
  friend bool operator==(const Incidence&, const Incidence&) = default;
};

/// Immutable undirected multigraph-free graph with dense node/edge ids.
///
/// Invariants established at construction:
///  * no self loops,
///  * no parallel edges,
///  * endpoints of edge e are stored canonically as (a, b) with a < b.
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

  /// Already-validated construction parts for the trusted fast path
  /// (`from_trusted_parts`): the exact private representation of a Graph.
  struct TrustedParts {
    std::vector<std::pair<NodeId, NodeId>> endpoints;  ///< by EdgeId, canonical
    std::vector<Incidence> adjacency;                  ///< CSR payload, ascending per node
    std::vector<CsrPos> offsets;                       ///< CSR offsets, size n+1
  };

  /// Adopts `parts` without validation or sorting — the O(m) reload path
  /// for representations whose invariants are already established (the
  /// mmap snapshot loader reconstructs a Graph from a checksummed
  /// `CsrGraph`, whose canonical order and dedup were validated when the
  /// snapshot was first built).  Precondition: `parts` satisfies every
  /// class invariant; passing unvalidated data breaks the graph silently.
  static Graph from_trusted_parts(TrustedParts parts);

  /// An empty graph (0 nodes).  Useful as a placeholder before assignment.
  Graph() = default;

  /// Number of nodes.
  std::size_t num_nodes() const noexcept { return adjacency_offsets_.empty() ? 0 : adjacency_offsets_.size() - 1; }
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

  /// The paper's `nbrs_u`: all incidences of node `u`, in ascending
  /// neighbor order.  The returned span is valid as long as the graph lives.
  std::span<const Incidence> neighbors(NodeId u) const {
    return std::span<const Incidence>(adjacency_)
        .subspan(adjacency_offsets_[u], adjacency_offsets_[u + 1] - adjacency_offsets_[u]);
  }

  /// Degree of node `u`.
  std::size_t degree(NodeId u) const {
    return adjacency_offsets_[u + 1] - adjacency_offsets_[u];
  }

  /// Looks up the edge between `u` and `v`; returns kNoEdge if absent.
  /// O(log deg(u)) via binary search over the sorted adjacency of `u`.
  EdgeId edge_between(NodeId u, NodeId v) const;

  /// True iff `u` and `v` are adjacent in G.
  bool adjacent(NodeId u, NodeId v) const { return edge_between(u, v) != kNoEdge; }

  /// True iff G is connected (the model assumes every node can eventually
  /// be oriented towards the destination, which requires connectivity).
  bool is_connected() const;

  /// All edges as canonical (u, v) pairs, indexed by EdgeId.
  const std::vector<std::pair<NodeId, NodeId>>& edges() const noexcept { return endpoints_; }

  /// Human-readable summary, e.g. "Graph(n=5, m=7)".
  std::string describe() const;

  /// Structural equality: same node count and identical edge list.
  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  std::vector<std::pair<NodeId, NodeId>> endpoints_;   // by EdgeId, canonical
  std::vector<Incidence> adjacency_;                   // CSR payload
  /// CSR offsets, size n+1.  32-bit by the offset-width policy
  /// (graph/types.hpp): half the memory of the historical std::size_t
  /// offsets at large n, guarded against 2m >= 2^32 at construction.
  std::vector<CsrPos> adjacency_offsets_;
};

}  // namespace lr
