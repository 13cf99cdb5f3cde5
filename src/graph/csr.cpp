#include "graph/csr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace lr {

namespace {

constexpr CsrPos kUnseenPos = std::numeric_limits<CsrPos>::max();

std::vector<EdgeSense> all_forward(std::size_t m) {
  return std::vector<EdgeSense>(m, EdgeSense::kForward);
}

}  // namespace

CsrGraph::CsrGraph(const Graph& g) { build(g, all_forward(g.num_edges())); }

CsrGraph::CsrGraph(const Graph& g, std::span<const EdgeSense> initial) {
  if (initial.size() != g.num_edges()) {
    throw std::invalid_argument("CsrGraph: one initial sense per edge required");
  }
  build(g, initial);
}

void CsrGraph::rebind() noexcept {
  v_offsets_ = offsets_;
  v_nbr_ = nbr_;
  v_edge_ = edge_;
  v_mirror_ = mirror_;
  v_part_nbr_ = part_nbr_;
  v_part_pos_ = part_pos_;
  v_split_ = split_;
  v_senses_ = initial_senses_;
}

CsrGraph::CsrGraph(const CsrGraph& other)
    : num_nodes_(other.num_nodes_),
      borrowed_(other.borrowed_),
      offsets_(other.offsets_),
      nbr_(other.nbr_),
      edge_(other.edge_),
      mirror_(other.mirror_),
      part_nbr_(other.part_nbr_),
      part_pos_(other.part_pos_),
      split_(other.split_),
      initial_senses_(other.initial_senses_) {
  if (borrowed_) {
    // Both copies alias the same external memory: copy the views.
    v_offsets_ = other.v_offsets_;
    v_nbr_ = other.v_nbr_;
    v_edge_ = other.v_edge_;
    v_mirror_ = other.v_mirror_;
    v_part_nbr_ = other.v_part_nbr_;
    v_part_pos_ = other.v_part_pos_;
    v_split_ = other.v_split_;
    v_senses_ = other.v_senses_;
  } else {
    rebind();
  }
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  if (this != &other) {
    CsrGraph copy(other);
    *this = std::move(copy);
  }
  return *this;
}

CsrGraph::CsrGraph(CsrGraph&& other) noexcept { *this = std::move(other); }

CsrGraph& CsrGraph::operator=(CsrGraph&& other) noexcept {
  if (this == &other) return *this;
  num_nodes_ = other.num_nodes_;
  borrowed_ = other.borrowed_;
  offsets_ = std::move(other.offsets_);
  nbr_ = std::move(other.nbr_);
  edge_ = std::move(other.edge_);
  mirror_ = std::move(other.mirror_);
  part_nbr_ = std::move(other.part_nbr_);
  part_pos_ = std::move(other.part_pos_);
  split_ = std::move(other.split_);
  initial_senses_ = std::move(other.initial_senses_);
  if (borrowed_) {
    v_offsets_ = other.v_offsets_;
    v_nbr_ = other.v_nbr_;
    v_edge_ = other.v_edge_;
    v_mirror_ = other.v_mirror_;
    v_part_nbr_ = other.v_part_nbr_;
    v_part_pos_ = other.v_part_pos_;
    v_split_ = other.v_split_;
    v_senses_ = other.v_senses_;
  } else {
    rebind();
  }
  other.num_nodes_ = 0;
  other.borrowed_ = false;
  other.rebind();  // moved-from: empty views over its (moved-from) vectors
  return *this;
}

CsrGraph CsrGraph::borrow(const BorrowedArrays& arrays) {
  const std::size_t n = arrays.num_nodes;
  const std::size_t m = arrays.senses.size();
  const bool consistent = arrays.offsets.size() == n + 1 && arrays.nbr.size() == 2 * m &&
                          arrays.edge.size() == 2 * m && arrays.mirror.size() == 2 * m &&
                          arrays.part_nbr.size() == 2 * m && arrays.part_pos.size() == 2 * m &&
                          arrays.split.size() == n &&
                          (n == 0 || arrays.offsets.back() == 2 * m);
  if (!consistent) {
    throw std::invalid_argument("CsrGraph::borrow: inconsistent array sizes");
  }
  CsrGraph g;
  g.num_nodes_ = n;
  g.borrowed_ = true;
  g.v_offsets_ = arrays.offsets;
  g.v_nbr_ = arrays.nbr;
  g.v_edge_ = arrays.edge;
  g.v_mirror_ = arrays.mirror;
  g.v_part_nbr_ = arrays.part_nbr;
  g.v_part_pos_ = arrays.part_pos;
  g.v_split_ = arrays.split;
  g.v_senses_ = arrays.senses;
  return g;
}

void CsrGraph::materialize() {
  if (!borrowed_) return;
  offsets_.assign(v_offsets_.begin(), v_offsets_.end());
  nbr_.assign(v_nbr_.begin(), v_nbr_.end());
  edge_.assign(v_edge_.begin(), v_edge_.end());
  mirror_.assign(v_mirror_.begin(), v_mirror_.end());
  part_nbr_.assign(v_part_nbr_.begin(), v_part_nbr_.end());
  part_pos_.assign(v_part_pos_.begin(), v_part_pos_.end());
  split_.assign(v_split_.begin(), v_split_.end());
  initial_senses_.assign(v_senses_.begin(), v_senses_.end());
  borrowed_ = false;
  rebind();
}

std::uint64_t CsrGraph::fingerprint() const {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (x >> (8 * i)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  mix(num_nodes_);
  for (const CsrPos x : v_offsets_) mix(x);
  for (const NodeId x : v_nbr_) mix(x);
  for (const EdgeId x : v_edge_) mix(x);
  for (const CsrPos x : v_mirror_) mix(x);
  for (const NodeId x : v_part_nbr_) mix(x);
  for (const CsrPos x : v_part_pos_) mix(x);
  for (const CsrPos x : v_split_) mix(x);
  for (const EdgeSense s : v_senses_) mix(s == EdgeSense::kForward ? 1u : 0u);
  return hash;
}

void CsrGraph::build(const Graph& g, std::span<const EdgeSense> initial) {
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  num_nodes_ = n;
  initial_senses_.assign(initial.begin(), initial.end());

  offsets_.assign(n + 1, 0);
  nbr_.resize(2 * m);
  edge_.resize(2 * m);
  mirror_.resize(2 * m);
  part_nbr_.resize(2 * m);
  part_pos_.resize(2 * m);
  split_.assign(n, 0);

  // Adjacency: copy Graph's CSR payload (already ascending per node) into
  // the flat id arrays, linking mirror positions through a per-edge slot.
  std::vector<CsrPos> first_pos(m, kUnseenPos);
  CsrPos p = 0;
  for (NodeId u = 0; u < n; ++u) {
    offsets_[u] = p;
    for (const Incidence& inc : g.neighbors(u)) {
      nbr_[p] = inc.neighbor;
      edge_[p] = inc.edge;
      if (first_pos[inc.edge] == kUnseenPos) {
        first_pos[inc.edge] = p;
      } else {
        mirror_[p] = first_pos[inc.edge];
        mirror_[first_pos[inc.edge]] = p;
      }
      ++p;
    }
  }
  offsets_[n] = p;

  rebind();
  fill_partition();
}

void CsrGraph::fill_partition() {
  // Initial in/out partition: in-block first, out-block second, both in
  // ascending neighbor order because the adjacency scan is ascending.
  for (NodeId u = 0; u < num_nodes_; ++u) {
    const CsrPos begin = offsets_[u];
    const CsrPos end = offsets_[u + 1];
    CsrPos in_cursor = begin;
    for (CsrPos q = begin; q < end; ++q) {
      if (!points_out_of(q, u, initial_senses_)) ++in_cursor;
    }
    split_[u] = in_cursor;
    CsrPos out_cursor = in_cursor;
    in_cursor = begin;
    for (CsrPos q = begin; q < end; ++q) {
      CsrPos& cursor = points_out_of(q, u, initial_senses_) ? out_cursor : in_cursor;
      part_nbr_[cursor] = nbr_[q];
      part_pos_[cursor] = q;
      ++cursor;
    }
  }
}

// ---------------------------------------------------------------------------
// CsrBuilder: streaming two-pass construction
// ---------------------------------------------------------------------------

CsrBuilder::CsrBuilder(std::size_t num_nodes, std::uint64_t position_limit)
    : position_limit_(position_limit) {
  out_.num_nodes_ = num_nodes;
  // Pass 1 counts node u's degree in offsets_[u]; begin_placement() turns
  // the counts into block starts in place.
  out_.offsets_.assign(num_nodes + 1, 0);
}

std::pair<NodeId, NodeId> CsrBuilder::next_edge(NodeId u, NodeId v, std::size_t index) {
  const std::size_t n = out_.num_nodes_;
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
  ++out_.offsets_[a];
  ++out_.offsets_[b];
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
  const std::size_t n = out_.num_nodes_;
  const std::size_t m = counted_;
  // Exclusive prefix sum in place: offsets_[u] becomes u's block start and
  // doubles as u's placement cursor during pass 2 (finish() restores it).
  CsrPos total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const CsrPos degree = out_.offsets_[u];
    out_.offsets_[u] = total;
    total += degree;
  }
  out_.offsets_[n] = total;
  out_.nbr_.resize(2 * m);
  out_.edge_.resize(2 * m);
  out_.mirror_.resize(2 * m);
  out_.part_nbr_.resize(2 * m);
  out_.part_pos_.resize(2 * m);
  out_.split_.assign(n, 0);
  out_.initial_senses_.reserve(m);
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
  // Both endpoints of the edge land at once, so the mirrors link directly
  // — no per-edge first-position scratch like the batch converter's.
  const CsrPos pa = out_.offsets_[a]++;
  const CsrPos pb = out_.offsets_[b]++;
  out_.nbr_[pa] = b;
  out_.edge_[pa] = e;
  out_.mirror_[pa] = pb;
  out_.nbr_[pb] = a;
  out_.edge_[pb] = e;
  out_.mirror_[pb] = pa;
  out_.initial_senses_.push_back(sense);
  ++placed_;
}

CsrGraph CsrBuilder::finish() {
  if (!placing_) {
    throw std::logic_error("CsrBuilder::finish: begin_placement() not called");
  }
  if (placed_ != counted_) {
    throw std::invalid_argument("CsrBuilder: pass 2 replayed fewer edges than pass 1 counted");
  }
  // Placement advanced every cursor to its block end, i.e. offsets_[u] now
  // holds the final offsets_[u + 1]; shift right to restore block starts.
  const std::size_t n = out_.num_nodes_;
  for (std::size_t u = n >= 1 ? n - 1 : 0; u >= 1; --u) {
    out_.offsets_[u] = out_.offsets_[u - 1];
  }
  if (n > 0) out_.offsets_[0] = 0;
  out_.rebind();
  out_.fill_partition();
  placing_ = false;
  return std::move(out_);
}

}  // namespace lr
