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
  // Mirrors: blocks are visited in ascending u, and v's block lists its
  // smaller neighbours first, ascending, so the k-th edge (u, v), u < v,
  // met for v sits at v's k-th position.
  store->mirror.resize(2 * m);
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
  *this = CsrGraph(std::move(store), n, g.offsets_, g.nbr_, g.edge_);
}

CsrGraph::CsrGraph(std::shared_ptr<AdjacencyStore> store, std::size_t num_nodes,
                   std::span<const CsrPos> offsets, std::span<const NodeId> nbr,
                   std::span<const EdgeId> edge) {
  store->part_nbr.resize(nbr.size());
  store->part_pos.resize(nbr.size());
  store->split.resize(num_nodes);
  a_ = Arrays{nullptr,       num_nodes,       offsets,         nbr,
              edge,          store->mirror,   store->part_nbr, store->part_pos,
              store->split,  store->senses};
  // Initial in/out partition: in-block first, out-block second, both in
  // ascending neighbor order because the adjacency scan is ascending.
  for (NodeId u = 0; u < num_nodes; ++u) {
    const CsrPos begin = offsets[u];
    const CsrPos end = offsets[u + 1];
    CsrPos in_cursor = begin;
    for (CsrPos q = begin; q < end; ++q) {
      if (!points_out_of(q, u, a_.senses)) ++in_cursor;
    }
    store->split[u] = in_cursor;
    CsrPos out_cursor = in_cursor;
    in_cursor = begin;
    for (CsrPos q = begin; q < end; ++q) {
      CsrPos& cursor = points_out_of(q, u, a_.senses) ? out_cursor : in_cursor;
      store->part_nbr[cursor] = nbr[q];
      store->part_pos[cursor] = q;
      ++cursor;
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

// ---------------------------------------------------------------------------
// CsrBuilder: streaming two-pass construction
// ---------------------------------------------------------------------------

CsrBuilder::CsrBuilder(std::size_t num_nodes, std::uint64_t position_limit)
    : store_(std::make_shared<AdjacencyStore>()),
      num_nodes_(num_nodes),
      position_limit_(position_limit) {
  // Pass 1 counts node u's degree in offsets[u]; begin_placement() turns
  // the counts into block starts in place.
  store_->offsets.assign(num_nodes + 1, 0);
}

std::pair<NodeId, NodeId> CsrBuilder::next_edge(NodeId u, NodeId v, std::size_t index) {
  const std::size_t n = num_nodes_;
  if (u >= n || v >= n) {
    throw std::invalid_argument("CsrBuilder: edge endpoint out of range");
  }
  if (u == v) {
    throw std::invalid_argument("CsrBuilder: self loop not allowed");
  }
  const NodeId a = std::min(u, v);
  const NodeId b = std::max(u, v);
  if (index > 0 && !(prev_a_ < a || (prev_a_ == a && prev_b_ < b))) {
    throw std::invalid_argument(
        "CsrBuilder: edges must stream in strictly ascending canonical (min, max) "
        "order (strict ascent also rules out parallel edges)");
  }
  prev_a_ = a;
  prev_b_ = b;
  return {a, b};
}

void CsrBuilder::count_edge(NodeId u, NodeId v) {
  if (placing_) {
    throw std::logic_error("CsrBuilder::count_edge: already placing (pass 2)");
  }
  const auto [a, b] = next_edge(u, v, counted_);
  ++store_->offsets[a];
  ++store_->offsets[b];
  ++counted_;
}

void CsrBuilder::begin_placement() {
  if (placing_) {
    throw std::logic_error("CsrBuilder::begin_placement: called twice");
  }
  if (2 * static_cast<std::uint64_t>(counted_) >= position_limit_) {
    throw std::overflow_error(
        "CsrBuilder: adjacency exceeds the 32-bit CSR position space (2*E >= 2^32)");
  }
  const std::size_t m = counted_;
  // Exclusive prefix sum in place: offsets[u] becomes u's block start and
  // doubles as u's placement cursor during pass 2 (finish() restores it).
  auto& offsets = store_->offsets;
  CsrPos total = 0;
  for (std::size_t u = 0; u < num_nodes_; ++u) {
    const CsrPos degree = offsets[u];
    offsets[u] = total;
    total += degree;
  }
  offsets[num_nodes_] = total;
  store_->nbr.resize(2 * m);
  store_->edge.resize(2 * m);
  store_->mirror.resize(2 * m);
  store_->senses.reserve(m);
  placing_ = true;
  placed_ = 0;
}

void CsrBuilder::place_edge(NodeId u, NodeId v, EdgeSense sense) {
  if (!placing_) {
    throw std::logic_error("CsrBuilder::place_edge: begin_placement() not called");
  }
  if (placed_ == counted_) {
    throw std::invalid_argument("CsrBuilder: pass 2 placed more edges than pass 1 counted");
  }
  const auto [a, b] = next_edge(u, v, placed_);
  const EdgeId e = static_cast<EdgeId>(placed_);
  // Both endpoints of the edge land at once, so the mirrors link directly.
  AdjacencyStore& s = *store_;
  const CsrPos pa = s.offsets[a]++;
  const CsrPos pb = s.offsets[b]++;
  s.nbr[pa] = b;
  s.edge[pa] = e;
  s.mirror[pa] = pb;
  s.nbr[pb] = a;
  s.edge[pb] = e;
  s.mirror[pb] = pa;
  s.senses.push_back(sense);
  ++placed_;
}

CsrGraph CsrBuilder::finish() {
  if (!placing_) {
    throw std::logic_error("CsrBuilder::finish: begin_placement() not called");
  }
  if (placed_ != counted_) {
    throw std::invalid_argument("CsrBuilder: pass 2 replayed fewer edges than pass 1 counted");
  }
  // Placement advanced every cursor to its block end, i.e. offsets[u] now
  // holds the final offsets[u + 1]; shift right to restore block starts.
  auto& offsets = store_->offsets;
  for (std::size_t u = num_nodes_ >= 1 ? num_nodes_ - 1 : 0; u >= 1; --u) {
    offsets[u] = offsets[u - 1];
  }
  if (num_nodes_ > 0) offsets[0] = 0;
  placing_ = false;
  const std::span<const CsrPos> bound_offsets = offsets;
  const std::span<const NodeId> nbr = store_->nbr;
  const std::span<const EdgeId> edge = store_->edge;
  return CsrGraph(std::move(store_), num_nodes_, bound_offsets, nbr, edge);
}

}  // namespace lr
