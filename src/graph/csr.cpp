#include "graph/csr.hpp"

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
  store->mirror.resize(2 * m);
  store->part_nbr.resize(2 * m);
  store->part_pos.resize(2 * m);
  store->split.resize(n);
  a_ = Arrays{nullptr,          n,              g.offsets_,     g.nbr_,
              g.edge_,          store->mirror,  store->part_nbr, store->part_pos,
              store->split,     store->senses};
  // Mirrors: blocks are visited in ascending u, and v's block lists its
  // smaller neighbours first, ascending, so the k-th edge (u, v), u < v,
  // met for v sits at v's k-th position.
  std::vector<CsrPos> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (CsrPos p = g.offsets_[u]; p < g.offsets_[u + 1]; ++p) {
      const NodeId v = g.nbr_[p];
      if (u > v) continue;
      const CsrPos q = cursor[v]++;
      store->mirror[p] = q;
      store->mirror[q] = p;
    }
  }
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
      store->part_nbr[slot] = a_.nbr[q];
      store->part_pos[slot] = q;
      ++slot;
    }
  }
  a_.owner = std::move(store);
}

CsrGraph::CsrGraph(Arrays arrays) : a_(std::move(arrays)) {
  const std::size_t n = a_.num_nodes;
  const std::size_t m = a_.senses.size();
  const bool consistent = a_.offsets.size() == n + 1 && a_.nbr.size() == 2 * m &&
                          a_.edge.size() == 2 * m && a_.mirror.size() == 2 * m &&
                          a_.part_nbr.size() == 2 * m && a_.part_pos.size() == 2 * m &&
                          a_.split.size() == n && a_.offsets.back() == 2 * m;
  if (!consistent) {
    throw std::invalid_argument("CsrGraph: inconsistent array sizes");
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
  for (const CsrPos x : a_.mirror) mix(x);
  for (const NodeId x : a_.part_nbr) mix(x);
  for (const CsrPos x : a_.part_pos) mix(x);
  for (const CsrPos x : a_.split) mix(x);
  for (const EdgeSense s : a_.senses) mix(s == EdgeSense::kForward ? 1u : 0u);
  return hash;
}

}  // namespace lr
