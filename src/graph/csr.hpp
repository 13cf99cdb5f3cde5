#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/orientation.hpp"

/// \file csr.hpp
/// The immutable compressed-sparse-row (CSR) execution core.
///
/// `Graph` (graph/graph.hpp) and `CsrGraph` share one adjacency store:
/// `offsets` (n+1 block boundaries), `nbr` and `edge` (2m positions, each
/// block in ascending neighbour order).  `Graph` adds one endpoint pair per
/// edge id, for validation-time construction and binary-searched lookups.
/// `CsrGraph` is the *execution* form: the shared adjacency plus one
/// initial orientation and the arrays derived from it, so the reversal hot
/// path (core/reversal_engine.hpp) touches nothing but contiguous integer
/// arrays — no per-step allocation, no binary searches inside kernels.
///
/// On top of the shared adjacency, `CsrGraph(graph, senses)` builds:
///
///  1. **Initial in/out partition** — per node, the neighbour ids
///     (`part_nbr`) of its initial in-edges and initial out-edges with
///     respect to the *initial* orientation, as O(1) spans split at
///     `split[u]`.  These are the paper's constant sets `in-nbrs_u` /
///     `out-nbrs_u` that NewPR reverses by parity.
///  2. **Initial senses** — the orientation itself, one byte per edge.
///
/// So a freeze adds 4 B per adjacency position, 4 B per node and 1 B per
/// edge to its Graph, and nothing else.  What the engine's kernels read
/// (core/reversal_engine.hpp): an FR step reads `nbr`, a NewPR step the
/// `part_nbr` slice its parity selects, and a OneStepPR step `nbr` and
/// `edge`; the destination check reads `part_nbr` (FR, NewPR) or `nbr`
/// and `edge` (OneStepPR).  Every array here has a reader.
///
/// Storage: every array is a read-only span behind one shared owner — a
/// block of vectors (the graph's adjacency plus the arrays built here), or
/// the mmap of a snapshot file (graph/snapshot.hpp), whose sections hold
/// each array exactly as it lives in memory.  Every CsrGraph is thus the
/// freeze of a Graph, or a snapshot of one.  Copying a CsrGraph shares the arrays, and the copy
/// keeps them alive, so a copy outlives the Graph or the Snapshot it came
/// from.
///
/// A `CsrGraph` never changes: mutable execution state (out-degrees, step
/// counts, PR lists and senses) lives in the engine.  Topologies
/// whose links churn keep their own mutable adjacency instead
/// (routing/dynamic_heights.hpp).

namespace lr {

/// The owning block behind the spans of every in-memory `Graph` and
/// `CsrGraph`.  Each construction fills only the vectors it derives and
/// keeps, in `shared`, the owner of the arrays it reuses instead:
///
///  * `Graph(n, edges)`: endpoints, offsets, nbr, edge;
///  * `CsrGraph(graph, senses)`: part_nbr, split, senses; `shared` is
///    the graph's store;
///  * `Graph(csr)`: endpoints; `shared` is the CSR's owner (a store, or a
///    snapshot's mapping).
///
/// Nothing writes a store once a Graph or CsrGraph is bound to it.
struct AdjacencyStore {
  std::shared_ptr<const void> shared;                ///< owner of reused arrays, or null
  std::vector<std::pair<NodeId, NodeId>> endpoints;  ///< size m; by EdgeId, canonical
  std::vector<CsrPos> offsets;                       ///< size n+1; block boundaries
  std::vector<NodeId> nbr;                           ///< size 2m; ascending per block
  std::vector<EdgeId> edge;                          ///< size 2m; aligned with nbr
  std::vector<NodeId> part_nbr;                      ///< size 2m; [in-block | out-block]
  std::vector<CsrPos> split;                         ///< size n; where the out-block starts
  std::vector<EdgeSense> senses;                     ///< size m; the initial orientation
};

/// Flat, immutable CSR form of a `Graph` plus an initial orientation.
class CsrGraph {
 public:
  /// An empty CSR graph (0 nodes); useful as a placeholder before assignment.
  CsrGraph() = default;

  /// Converts `g` using the all-forward initial orientation (every edge
  /// pointing from its smaller to its larger endpoint, the canonical
  /// sense).  Shares `g`'s adjacency arrays; `g` may be destroyed
  /// afterwards.
  explicit CsrGraph(const Graph& g);

  /// Converts `g` with the given initial orientation (one sense per edge,
  /// as stored by `Orientation::senses()` and `Instance::senses`).  Shares
  /// `g`'s offsets, neighbour and edge arrays and builds only the
  /// partition, the splits and a copy of the senses.  Throws
  /// std::invalid_argument if `initial.size() != g.num_edges()`.
  CsrGraph(const Graph& g, std::span<const EdgeSense> initial);

  /// The six flat arrays of one CSR graph as read-only spans, plus the
  /// owner that keeps their memory alive — the snapshot loader's input
  /// (graph/snapshot.hpp binds the spans over its mapping and passes the
  /// mapping as `owner`).
  struct Arrays {
    std::shared_ptr<const void> owner;  ///< keeps the spans' memory alive
    std::size_t num_nodes = 0;          ///< n
    std::span<const CsrPos> offsets;    ///< size n+1
    std::span<const NodeId> nbr;        ///< size 2m
    std::span<const EdgeId> edge;       ///< size 2m
    std::span<const NodeId> part_nbr;   ///< size 2m
    std::span<const CsrPos> split;      ///< size n
    std::span<const EdgeSense> senses;  ///< size m
  };

  /// A CsrGraph over `arrays`, sharing their owner.  Throws
  /// std::invalid_argument when the span sizes are mutually inconsistent,
  /// or when the contents every accessor indexes by are out of range:
  /// `offsets` must start at 0, never decrease and end at 2m, each
  /// `split[u]` must lie in u's block, and every `part_nbr` id must be a
  /// node.  Two sequential passes, over `offsets` with `split` and over
  /// `part_nbr`; `Graph(csr)` range-checks `nbr` and `edge` on its own.  The
  /// snapshot layer validates a checksum before binding the arrays, so
  /// these checks catch a file that is intact but wrong.
  explicit CsrGraph(Arrays arrays);

  /// Number of nodes.
  std::size_t num_nodes() const noexcept { return a_.num_nodes; }

  /// Number of undirected edges.
  std::size_t num_edges() const noexcept { return a_.senses.size(); }

  /// First flat position of node `u`'s adjacency block.
  CsrPos adjacency_begin(NodeId u) const { return a_.offsets[u]; }

  /// One past the last flat position of node `u`'s adjacency block.
  CsrPos adjacency_end(NodeId u) const { return a_.offsets[u + 1]; }

  /// Neighbor at flat position `p`.
  NodeId neighbor_at(CsrPos p) const { return a_.nbr[p]; }

  /// Edge id at flat position `p`.
  EdgeId edge_at(CsrPos p) const { return a_.edge[p]; }

  /// Flat position of neighbor `v` inside `u`'s adjacency block, or
  /// nullopt when `v` is not adjacent to `u`.  O(log deg(u)) over the
  /// ascending neighbor slice — the one lookup the sim layer's
  /// view-by-position state and the network's adjacency checks share.
  std::optional<CsrPos> position_of(NodeId u, NodeId v) const {
    const auto nbrs = neighbors(u);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (it == nbrs.end() || *it != v) return std::nullopt;
    return a_.offsets[u] + static_cast<CsrPos>(it - nbrs.begin());
  }

  /// Degree of node `u`.
  std::size_t degree(NodeId u) const { return a_.offsets[u + 1] - a_.offsets[u]; }

  /// All neighbors of `u`, ascending (the same memory as `Graph::neighbors`
  /// of the graph this CSR was built from).
  std::span<const NodeId> neighbors(NodeId u) const {
    return a_.nbr.subspan(a_.offsets[u], degree(u));
  }

  /// Edge ids incident to `u`, aligned with `neighbors(u)`.
  std::span<const EdgeId> incident_edges(NodeId u) const {
    return a_.edge.subspan(a_.offsets[u], degree(u));
  }

  /// The initial orientation this CSR graph was built with.
  std::span<const EdgeSense> initial_senses() const noexcept { return a_.senses; }

  /// The paper's constant set `in-nbrs_u` (ascending) as an O(1) slice;
  /// the NewPR even-parity reversal set.
  std::span<const NodeId> initial_in_neighbors(NodeId u) const {
    return a_.part_nbr.subspan(a_.offsets[u], a_.split[u] - a_.offsets[u]);
  }

  /// The paper's constant set `out-nbrs_u` (ascending) as an O(1) slice;
  /// the NewPR odd-parity reversal set.
  std::span<const NodeId> initial_out_neighbors(NodeId u) const {
    return a_.part_nbr.subspan(a_.split[u], a_.offsets[u + 1] - a_.split[u]);
  }

  /// |in-nbrs_u| with respect to the initial orientation.
  std::size_t initial_in_degree(NodeId u) const { return a_.split[u] - a_.offsets[u]; }

  /// |out-nbrs_u| with respect to the initial orientation.
  std::size_t initial_out_degree(NodeId u) const { return a_.offsets[u + 1] - a_.split[u]; }

  /// True iff the edge at position `p` points *out of* the block owner `u`
  /// under the given current senses.  Canonical endpoint order makes this a
  /// pure comparison: forward means smaller-id -> larger-id.
  bool points_out_of(CsrPos p, NodeId u, std::span<const EdgeSense> senses) const {
    return (senses[a_.edge[p]] == EdgeSense::kForward) == (u < a_.nbr[p]);
  }

  // -------------------------------------------------------------------------
  // Whole-array views of the six arrays (the snapshot writer's, the
  // engine's and the test suite's flat window into one CSR graph)
  // -------------------------------------------------------------------------

  /// Block-boundary offsets, size n+1.
  std::span<const CsrPos> raw_offsets() const noexcept { return a_.offsets; }
  /// Neighbor ids by position, size 2m.
  std::span<const NodeId> raw_neighbors() const noexcept { return a_.nbr; }
  /// Edge ids by position, size 2m.
  std::span<const EdgeId> raw_edges() const noexcept { return a_.edge; }
  /// Partition neighbor ids, size 2m.
  std::span<const NodeId> raw_partition_neighbors() const noexcept { return a_.part_nbr; }
  /// Out-block start per node, size n.
  std::span<const CsrPos> raw_splits() const noexcept { return a_.split; }

  /// Always empty: a CsrGraph keeps no mirror array.  Kept only because
  /// `perfbench/trace_replay.cpp` sums its size into `graph.csr_mb`; goes
  /// with that call in the next change to the benchmark.
  std::span<const CsrPos> raw_mirrors() const noexcept { return {}; }
  /// Always empty: a CsrGraph keeps no partition-position array.  Kept
  /// only for the same caller as `raw_mirrors()`, and goes with it.
  std::span<const CsrPos> raw_partition_positions() const noexcept { return {}; }

  /// FNV-1a fingerprint over every array (node count, offsets,
  /// adjacency, partition, splits, senses).  Two CSR graphs with equal
  /// fingerprints are byte-identical for every accessor — the
  /// self-verification hook of the E10 bench, the snapshot round trips
  /// and the generators' golden fingerprints.
  std::uint64_t fingerprint() const;

 private:
  friend class Graph;

  Arrays a_;
};

}  // namespace lr
