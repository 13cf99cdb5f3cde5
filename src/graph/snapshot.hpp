#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/csr.hpp"
#include "graph/generators.hpp"

/// \file snapshot.hpp
/// mmap-backed frozen instance snapshots — the persistent form of a
/// `FrozenInstance` (runner layer) and the disk half of the CSR storage
/// modes described in graph/csr.hpp.
///
/// A snapshot file is *flat*: one fixed-size header followed by the eight
/// CSR arrays plus the instance metadata (destination, name), each laid
/// out exactly as it lives in memory and padded to 8-byte alignment.
/// Loading is therefore `mmap` + pointer arithmetic + `CsrGraph::borrow`
/// — zero fixup, zero per-element work, and the page cache shares the
/// bytes across every process mapping the same file (the worker processes
/// of a sharded sweep, runner/shard_coordinator.hpp).
///
/// Integrity over portability: the header carries a magic, a version, the
/// array extents, and an FNV-1a checksum over the payload, and `load`
/// rejects any mismatch loudly (wrong magic, wrong version, truncation,
/// extent/size disagreement, checksum failure).  The byte order is the
/// writing host's — a snapshot is a *cache artifact* regenerable from
/// (topology, size, seed), not an interchange format, so cross-endian
/// portability is explicitly out of scope (the version field guards
/// against silently misreading a foreign file as long as sizes disagree,
/// and the checksum catches the rest).
///
/// Write path: `save_snapshot` streams the sections through the checksum
/// into `path + ".tmp.<pid>"` and renames into place, so concurrent
/// writers (two sweep shards racing to warm the same cache entry) and
/// crashes mid-write leave either the old file or a complete new one —
/// never a torn snapshot.

namespace lr {

/// Snapshot file format version; bumped on any layout change.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Writes `instance` + its frozen CSR form to `path` (atomically, via a
/// same-directory temp file + rename).  Throws std::runtime_error on I/O
/// failure and std::invalid_argument when `csr` is inconsistent with
/// `instance` (node/edge counts or senses disagree).
void save_snapshot(const std::string& path, const Instance& instance, const CsrGraph& csr);

/// One loaded snapshot: the mapping plus a borrowed `CsrGraph` bound over
/// it.  Move-only; the mapping lives exactly as long as this object, and
/// every span handed out (via `csr()`) dies with it — holders that need
/// the CSR data past the Snapshot's lifetime must `materialize()` their
/// copy (runner code instead keeps the Snapshot alive alongside the
/// borrowed graph).
class Snapshot {
 public:
  /// Maps `path` read-only and validates it: magic, version, header/array
  /// extent consistency against the file size, and (unless
  /// `verify_checksum` is false — a bench knob for isolating checksum
  /// cost, not a production switch) the FNV-1a payload checksum.  Throws
  /// std::runtime_error naming the failure on any rejection.
  static Snapshot load(const std::string& path, bool verify_checksum = true);

  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  /// Unmaps the file.
  ~Snapshot();

  /// The borrowed CSR snapshot over the mapping (see csr.hpp storage
  /// modes).  Valid while this Snapshot lives.
  const CsrGraph& csr() const noexcept { return csr_; }

  /// The instance's destination node D.
  NodeId destination() const noexcept { return destination_; }

  /// The instance's human-readable workload label.
  const std::string& name() const noexcept { return name_; }

  /// Node count of the stored graph.
  std::size_t num_nodes() const noexcept { return csr_.num_nodes(); }

  /// Edge count of the stored graph.
  std::size_t num_edges() const noexcept { return csr_.num_edges(); }

  /// Size of the mapped file in bytes.
  std::size_t file_bytes() const noexcept { return map_bytes_; }

  /// Reconstructs the full `Instance` (Graph front-end + senses +
  /// metadata) from the mapping — the one O(m) step of a reload, via
  /// `Graph::from_trusted_parts` with no validation, sorting, or hashing.
  /// The result owns its memory and outlives this Snapshot.
  Instance thaw_instance() const;

 private:
  Snapshot() = default;

  void* map_ = nullptr;        ///< mmap base (nullptr once moved-from)
  std::size_t map_bytes_ = 0;  ///< mapping length
  CsrGraph csr_;               ///< borrowed over the mapping
  NodeId destination_ = 0;
  std::string name_;
};

}  // namespace lr
