#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"

/// \file edge_key_table.hpp
/// The edge set of the randomized generators (graph/generators.cpp): each
/// drawn edge is inserted once, and `insert` says whether it was new, so a
/// generator can draw until the set holds the edges it wants.  The table is
/// one flat array of 64-bit keys, with no heap node per edge, and it hands
/// the edges back in canonical order in O(n + m).

namespace lr {

/// Packs the undirected edge {a, b} into one 64-bit key, (min << 32) | max.
/// The key is non-zero whenever a != b.
constexpr std::uint64_t edge_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

/// A set of edge keys, open-addressed with linear probing in a power-of-two
/// slot array that doubles whenever an insert would pass half load.  Key 0
/// marks an empty slot: it would be the self loop (0, 0), which no caller
/// inserts.
class EdgeKeyTable {
 public:
  /// An empty table with room for `expected` keys before it first grows.
  explicit EdgeKeyTable(std::size_t expected = 0) {
    std::size_t capacity = kMinCapacity;
    while (capacity < 2 * expected) capacity *= 2;
    rehash(capacity);
  }

  /// Inserts `key` (an edge_key of two distinct endpoints).  Returns true
  /// iff it was absent, as `std::unordered_set::insert(key).second` does.
  bool insert(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
      if (slots_[i] == 0) {
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }

  /// True iff `key` is in the table.
  bool contains(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i] == 0) return false;
    }
  }

  /// Number of keys held.
  std::size_t size() const noexcept { return size_; }

  /// The held edges as canonical (min, max) pairs in ascending order, for
  /// keys whose endpoints are all below `num_nodes`.  A counting sort on
  /// the smaller endpoint places each edge in its node's bucket; each
  /// bucket, of about the node's degree, is then sorted on its own.
  std::vector<std::pair<NodeId, NodeId>> sorted_edges(std::size_t num_nodes) const {
    // end[u] counts, then bounds, node u's bucket: it is filled from the
    // exclusive prefix sum upward, so afterwards bucket u is
    // [end[u - 1], end[u]).
    std::vector<std::size_t> end(num_nodes, 0);
    for (const std::uint64_t key : slots_) {
      if (key != 0) ++end[key >> 32];
    }
    std::size_t total = 0;
    for (std::size_t& e : end) total += std::exchange(e, total);
    std::vector<std::pair<NodeId, NodeId>> edges(size_);
    for (const std::uint64_t key : slots_) {
      if (key == 0) continue;
      const auto u = static_cast<NodeId>(key >> 32);
      edges[end[u]++] = {u, static_cast<NodeId>(key)};
    }
    std::size_t begin = 0;
    for (const std::size_t bucket_end : end) {
      std::sort(edges.begin() + static_cast<std::ptrdiff_t>(begin),
                edges.begin() + static_cast<std::ptrdiff_t>(bucket_end),
                [](const auto& x, const auto& y) { return x.second < y.second; });
      begin = bucket_end;
    }
    return edges;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// The key's first probe slot: Fibonacci hashing keeps the top bits of
  /// key * 2^64/phi, so both endpoints spread over every slot.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Moves every key into a fresh array of `capacity` slots (a power of two).
  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old(capacity, 0);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = home(key);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;  // 0 = empty
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace lr
