#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lr {

CsrGraph::CsrGraph(const Graph& g)
    : CsrGraph(g, std::vector<EdgeSense>(g.num_edges(), EdgeSense::kForward)) {}

CsrGraph::CsrGraph(const Graph& g, std::span<const EdgeSense> initial) {
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  if (initial.size() != m) {
    throw std::invalid_argument("CsrGraph: one initial sense per edge required");
  }
  auto store = std::make_shared<AdjacencyStore>();
  store->shared = g.owner_;
  store->senses.assign(initial.begin(), initial.end());
  store->part_nbr.resize(2 * m);
  store->split.resize(n);
  a_ = Arrays{nullptr,         n,           g.offsets_,   g.nbr_, g.edge_,
              store->part_nbr, store->split, store->senses};
  // Initial in/out partition: in-block first, out-block second, both in
  // ascending neighbor order because the adjacency scan is ascending.
  for (NodeId u = 0; u < n; ++u) {
    const CsrPos begin = a_.offsets[u];
    const CsrPos end = a_.offsets[u + 1];
    CsrPos in_cursor = begin;
    for (CsrPos q = begin; q < end; ++q) {
      if (!points_out_of(q, u, a_.senses)) ++in_cursor;
    }
    store->split[u] = in_cursor;
    CsrPos out_cursor = in_cursor;
    in_cursor = begin;
    for (CsrPos q = begin; q < end; ++q) {
      CsrPos& slot = points_out_of(q, u, a_.senses) ? out_cursor : in_cursor;
      store->part_nbr[slot++] = a_.nbr[q];
    }
  }
  a_.owner = std::move(store);
}

CsrGraph::CsrGraph(Arrays arrays) : a_(std::move(arrays)) {
  const std::size_t n = a_.num_nodes;
  const std::size_t m = a_.senses.size();
  const bool sized = a_.offsets.size() == n + 1 && a_.nbr.size() == 2 * m &&
                     a_.edge.size() == 2 * m && a_.part_nbr.size() == 2 * m &&
                     a_.split.size() == n;
  if (!sized) throw std::invalid_argument("CsrGraph: inconsistent array sizes");
  // Every accessor slices by offsets and split, and NewPR indexes per-node
  // state by part_nbr ids.  offsets[u] <= split[u] <= offsets[u+1] for
  // every u, with offsets running from 0 to 2m, bounds every block; the
  // loops carry no branch, so a reload pays about one read of each array.
  bool out_of_range = a_.offsets[0] != 0 || a_.offsets[n] != 2 * m;
  for (std::size_t u = 0; u < n; ++u) {
    out_of_range |= (a_.offsets[u] > a_.split[u]) | (a_.split[u] > a_.offsets[u + 1]);
  }
  NodeId largest = 0;
  for (const NodeId v : a_.part_nbr) largest = std::max(largest, v);
  if (out_of_range || (m > 0 && largest >= n)) {
    throw std::invalid_argument("CsrGraph: offsets, splits or partition ids out of range");
  }
}

std::uint64_t CsrGraph::fingerprint() const {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (x >> (8 * i)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  mix(a_.num_nodes);
  for (const CsrPos x : a_.offsets) mix(x);
  for (const NodeId x : a_.nbr) mix(x);
  for (const EdgeId x : a_.edge) mix(x);
  for (const NodeId x : a_.part_nbr) mix(x);
  for (const CsrPos x : a_.split) mix(x);
  for (const EdgeSense s : a_.senses) mix(s == EdgeSense::kForward ? 1u : 0u);
  return hash;
}

}  // namespace lr
