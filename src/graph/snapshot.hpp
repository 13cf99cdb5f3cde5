#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "graph/csr.hpp"
#include "graph/generators.hpp"

/// \file snapshot.hpp
/// mmap-backed frozen instance snapshots — the persistent form of a
/// `FrozenInstance` (runner layer) and the disk owner of the shared
/// adjacency store described in graph/graph.hpp and graph/csr.hpp.
///
/// A snapshot file is *flat*: one fixed-size header followed by the eight
/// CSR arrays plus the instance metadata (destination, name), each laid
/// out exactly as it lives in memory and padded to 8-byte alignment.
/// Loading is therefore `mmap` + pointer arithmetic: the `CsrGraph` and
/// the instance's `Graph` are both bound straight over the mapping, and
/// the only per-element work is deriving the Graph's endpoint array
/// (8 B per edge) and copying the initial senses into `Instance::senses`
/// (1 B per edge).  The page cache shares the mapped bytes across every
/// process mapping the same file (the worker processes of a sharded
/// sweep, runner/shard_coordinator.hpp).
///
/// Integrity over portability: the header carries a magic, a version, the
/// array extents, and a checksum over the header (checksum field zeroed)
/// and the payload: FNV-1a over 8-byte words in four interleaved lanes,
/// so a single changed word always changes it.  `load` rejects any
/// mismatch loudly (wrong magic, wrong version, truncation, extent/size
/// disagreement, a node count outside the NodeId range, a destination that
/// is not a node, checksum failure).  The byte order is the writing
/// host's — a snapshot is a *cache artifact* regenerable from (topology,
/// size, seed), not an interchange format, so cross-endian portability is
/// explicitly out of scope (the version field guards against silently
/// misreading a foreign file as long as sizes disagree, and the checksum
/// catches the rest).
///
/// Write path: `save_snapshot` streams the sections through the checksum
/// into `path + ".tmp.<pid>.<call>"`, a name no other call uses, and
/// renames into place, so concurrent writers (two sweep threads or shards
/// racing to warm the same cache entry) and crashes mid-write leave either
/// the old file or a complete new one — never a torn snapshot.

namespace lr {

/// Snapshot file format version; bumped on any layout or checksum change.
/// Version 2 extended the checksum over the header; version 3 hashes 8-byte
/// words in four lanes instead of single bytes.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Writes `instance` + its frozen CSR form to `path` (atomically, via a
/// same-directory temp file + rename).  Throws std::runtime_error on I/O
/// failure and std::invalid_argument when `csr` is inconsistent with
/// `instance` (node/edge counts or senses disagree).
void save_snapshot(const std::string& path, const Instance& instance, const CsrGraph& csr);

/// One loaded snapshot: the instance and its CSR form, both reading the
/// mapping.  The mapping is shared by every copy of the instance's Graph
/// and of the CsrGraph, so either outlives this object: the file is
/// unmapped when the last of them dies.
class Snapshot {
 public:
  /// Maps `path` read-only and validates it: magic, version, header/array
  /// extent consistency against the file size, the node and destination
  /// ranges, and the checksum over header and payload.  Throws
  /// std::runtime_error naming the failure on any rejection.
  static Snapshot load(const std::string& path);

  /// The stored instance.  Its Graph shares the mapped offsets, neighbour
  /// and edge arrays with `csr()`; only its endpoint array and the senses
  /// are in memory of their own.
  const Instance& instance() const noexcept { return instance_; }

  /// The CSR form, bound over the mapping.
  const CsrGraph& csr() const noexcept { return csr_; }

  /// The instance's destination node D.
  NodeId destination() const noexcept { return instance_.destination; }

  /// The instance's human-readable workload label.
  const std::string& name() const noexcept { return instance_.name; }

  /// Node count of the stored graph.
  std::size_t num_nodes() const noexcept { return csr_.num_nodes(); }

  /// Edge count of the stored graph.
  std::size_t num_edges() const noexcept { return csr_.num_edges(); }

  /// The mapped file, header included.
  std::span<const std::byte> bytes() const noexcept { return bytes_; }

  /// Size of the mapped file in bytes.
  std::size_t file_bytes() const noexcept { return bytes_.size(); }

 private:
  Snapshot() = default;

  Instance instance_;
  CsrGraph csr_;
  std::span<const std::byte> bytes_;  ///< the mapping, owned through csr_
};

}  // namespace lr
