#pragma once

#include <cstdint>
#include <limits>

/// \file types.hpp
/// Fundamental identifier types shared by every module in the library.
///
/// The paper (Radeva & Lynch 2011) models the system as an undirected graph
/// G = (V, E) with a distinguished destination node D, plus a mutable
/// directed version G' that assigns exactly one direction to every edge.
/// We use dense integer ids for both nodes and edges so that all per-node
/// and per-edge state can live in flat vectors.

namespace lr {

/// Dense node identifier: nodes of a graph with n nodes are 0..n-1.
using NodeId = std::uint32_t;

/// Dense edge identifier: edges of a graph with m edges are 0..m-1.
using EdgeId = std::uint32_t;

/// Flat position index into a CSR adjacency layout; positions run over
/// `[0, 2m)` with node `u`'s block at `[offsets[u], offsets[u+1])`.
///
/// Offset-width policy (one adjacency store serves `Graph` and `CsrGraph`,
/// so one `offsets` array of this type serves both): node and edge
/// *counts* are `std::size_t` end-to-end, but adjacency *positions* are
/// 32-bit on purpose — position-indexed arrays dominate graph memory (five
/// 2m-sized arrays in a CsrGraph, two of them shared with its Graph), so
/// 32-bit positions and ids halve the footprint of every million-node
/// topology relative to `std::size_t`.
/// The width limits a graph to 2·E < 2^32 adjacency slots (~2.1 billion
/// undirected edges); every CSR construction path guards that bound
/// loudly (`std::overflow_error`) instead of wrapping silently.
using CsrPos = std::uint32_t;

/// One past the largest representable CSR position: constructions with
/// `2 * num_edges() >= kCsrPosLimit` must be rejected.
inline constexpr std::uint64_t kCsrPosLimit = std::uint64_t{1} << 32;

/// One undirected topology event of a churn schedule: the link {u, v}
/// comes up or goes down.  Produced by the churn-schedule generators
/// (graph/generators.hpp) and replayed one event at a time through
/// `DynamicHeightsDag::add_link` / `remove_link`.
struct LinkEvent {
  NodeId u = 0;     ///< one endpoint
  NodeId v = 0;     ///< the other endpoint
  bool up = false;  ///< true = link comes up, false = link goes down
};

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Sentinel for "no edge".
inline constexpr EdgeId kNoEdge = std::numeric_limits<EdgeId>::max();

/// Direction of an edge from the perspective of one of its endpoints,
/// matching the paper's per-node `dir[u, v] ∈ {in, out}` state variable.
enum class Dir : std::uint8_t {
  kIn,   ///< The edge currently points *towards* this endpoint.
  kOut,  ///< The edge currently points *away from* this endpoint.
};

/// Flips `kIn` to `kOut` and vice versa (Invariant 3.1: the two endpoints
/// of an edge always see opposite directions).
constexpr Dir opposite(Dir d) noexcept {
  return d == Dir::kIn ? Dir::kOut : Dir::kIn;
}

}  // namespace lr
