#include "graph/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

namespace lr {
namespace {

/// Fixed 64-byte file header.  All multi-byte fields are host-endian (see
/// the file comment in snapshot.hpp: cache artifact, not interchange).
struct SnapshotHeader {
  char magic[8];               ///< kSnapshotMagic
  std::uint32_t version;       ///< kSnapshotVersion
  std::uint32_t reserved;      ///< 0
  std::uint64_t num_nodes;     ///< n
  std::uint64_t num_edges;     ///< m
  std::uint64_t destination;   ///< Instance::destination
  std::uint64_t name_bytes;    ///< unpadded length of Instance::name
  std::uint64_t payload_bytes; ///< total bytes after the header
  std::uint64_t checksum;      ///< Checksum of this header (checksum 0) + payload
};
static_assert(sizeof(SnapshotHeader) == 64, "snapshot header layout drifted");

constexpr char kSnapshotMagic[8] = {'L', 'R', 'S', 'N', 'A', 'P', '\n', '\0'};

/// The file's mapping; unmapped when the last array reading it dies.
struct Mapping {
  Mapping(void* base, std::size_t bytes) : base(base), bytes(bytes) {}
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() { ::munmap(base, bytes); }

  void* base;
  std::size_t bytes;
};

/// The file checksum: FNV-1a over host-endian 8-byte words in four lanes.
/// Word i of the checksummed stream (header, then payload) folds into lane
/// i mod 4, and the digest folds the four lanes in order.  Every step is a
/// bijection of its lane's state, so a change confined to one word always
/// changes the digest.  The lanes are independent multiply chains, which
/// is what lets a load hash the file at memory speed instead of one byte
/// per multiply.  Callers mix whole words: the header is 64 bytes and
/// every section is padded to 8.
class Checksum {
 public:
  void mix(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t words = bytes / 8;
    const auto next_word = [&p] {
      std::uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      p += sizeof(word);
      return word;
    };
    for (; words > 0 && next_ != 0; --words) step(next_word());
    std::uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    for (; words >= kLanes; words -= kLanes) {
      a = (a ^ next_word()) * kPrime;
      b = (b ^ next_word()) * kPrime;
      c = (c ^ next_word()) * kPrime;
      d = (d ^ next_word()) * kPrime;
    }
    lanes_[0] = a, lanes_[1] = b, lanes_[2] = c, lanes_[3] = d;
    for (; words > 0; --words) step(next_word());
  }

  std::uint64_t digest() const {
    std::uint64_t h = kBasis;
    for (const std::uint64_t lane : lanes_) h = (h ^ lane) * kPrime;
    return h;
  }

 private:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::uint64_t kBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  void step(std::uint64_t word) {
    lanes_[next_] = (lanes_[next_] ^ word) * kPrime;
    next_ = (next_ + 1) % kLanes;
  }

  std::uint64_t lanes_[kLanes] = {kBasis, kBasis, kBasis, kBasis};
  std::size_t next_ = 0;  ///< lane of the next word
};

/// Rounds `bytes` up to the file format's 8-byte section alignment.
constexpr std::uint64_t pad8(std::uint64_t bytes) { return (bytes + 7) & ~std::uint64_t{7}; }

/// Payload section extents for a snapshot of n nodes / m edges with a
/// `name_bytes`-byte label, in file order.  Kept in one place so the
/// writer and the loader can never disagree.
struct Extents {
  std::uint64_t name, offsets, split, nbr, edge, mirror, part_nbr, part_pos, senses;

  Extents(std::uint64_t n, std::uint64_t m, std::uint64_t name_len)
      : name(pad8(name_len)),
        offsets(pad8((n + 1) * sizeof(CsrPos))),
        split(pad8(n * sizeof(CsrPos))),
        nbr(pad8(2 * m * sizeof(NodeId))),
        edge(pad8(2 * m * sizeof(EdgeId))),
        mirror(pad8(2 * m * sizeof(CsrPos))),
        part_nbr(pad8(2 * m * sizeof(NodeId))),
        part_pos(pad8(2 * m * sizeof(CsrPos))),
        senses(pad8(m * sizeof(EdgeSense))) {}

  std::uint64_t total() const {
    return name + offsets + split + nbr + edge + mirror + part_nbr + part_pos + senses;
  }
};

[[noreturn]] void reject(const std::string& path, const char* why) {
  throw std::runtime_error("snapshot: " + path + ": " + why);
}

/// Streams one padded section into `out` while folding it into `sum`: the
/// whole words as they are, then the last partial word with its zero
/// padding, exactly as the loader reads the file.
void write_section(std::ofstream& out, Checksum& sum, const void* data, std::uint64_t bytes) {
  static constexpr char kZeros[8] = {};
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  const std::uint64_t whole = bytes & ~std::uint64_t{7};
  sum.mix(data, whole);
  if (whole == bytes) return;
  char last[8] = {};
  std::memcpy(last, static_cast<const char*>(data) + whole, bytes - whole);
  sum.mix(last, sizeof(last));
  out.write(kZeros, static_cast<std::streamsize>(pad8(bytes) - bytes));
}

}  // namespace

void save_snapshot(const std::string& path, const Instance& instance, const CsrGraph& csr) {
  const std::size_t n = csr.num_nodes();
  const std::size_t m = csr.num_edges();
  if (instance.graph.num_nodes() != n || instance.graph.num_edges() != m ||
      !std::ranges::equal(instance.senses, csr.initial_senses())) {
    throw std::invalid_argument("save_snapshot: instance and CSR snapshot disagree");
  }

  // Same-directory temp file so the final rename is atomic (rename across
  // filesystems is not), named by pid and a per-process call number so
  // racing sweep shards and racing threads of one sweep never share one.
  static std::atomic<std::uint64_t> calls{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(calls.fetch_add(1, std::memory_order_relaxed));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) reject(path, "cannot open temp file for writing");

  SnapshotHeader header = {};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = kSnapshotVersion;
  header.num_nodes = n;
  header.num_edges = m;
  header.destination = instance.destination;
  header.name_bytes = instance.name.size();
  header.payload_bytes = Extents(n, m, instance.name.size()).total();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));

  Checksum sum;
  sum.mix(&header, sizeof(header));  // checksum field still 0
  write_section(out, sum, instance.name.data(), instance.name.size());
  write_section(out, sum, csr.raw_offsets().data(), (n + 1) * sizeof(CsrPos));
  write_section(out, sum, csr.raw_splits().data(), n * sizeof(CsrPos));
  write_section(out, sum, csr.raw_neighbors().data(), 2 * m * sizeof(NodeId));
  write_section(out, sum, csr.raw_edges().data(), 2 * m * sizeof(EdgeId));
  write_section(out, sum, csr.raw_mirrors().data(), 2 * m * sizeof(CsrPos));
  write_section(out, sum, csr.raw_partition_neighbors().data(), 2 * m * sizeof(NodeId));
  write_section(out, sum, csr.raw_partition_positions().data(), 2 * m * sizeof(CsrPos));
  write_section(out, sum, csr.initial_senses().data(), m * sizeof(EdgeSense));

  // Patch the now-known checksum into the header and publish.
  header.checksum = sum.digest();
  out.seekp(0);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    reject(path, "write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    reject(path, "rename into place failed");
  }
}

Snapshot Snapshot::load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) reject(path, "cannot open");
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    reject(path, "cannot stat");
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < sizeof(SnapshotHeader)) {
    ::close(fd);
    reject(path, "truncated (shorter than the header)");
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (map == MAP_FAILED) reject(path, "mmap failed");
  // From here every rejection unmaps when `mapping` unwinds — validation
  // failures must not leak the mapping.
  const auto mapping = std::make_shared<const Mapping>(map, file_bytes);

  SnapshotHeader header;
  std::memcpy(&header, map, sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    reject(path, "bad magic (not a snapshot file)");
  }
  if (header.version != kSnapshotVersion) reject(path, "unsupported snapshot version");

  const std::uint64_t n = header.num_nodes;
  const std::uint64_t m = header.num_edges;
  if (n > kNoNode) reject(path, "node count exceeds the NodeId range");
  if (header.destination >= n) reject(path, "destination is not a node");
  if (2 * m >= kCsrPosLimit) reject(path, "edge count exceeds the 32-bit CSR position space");
  const Extents ext(n, m, header.name_bytes);
  if (header.name_bytes > header.payload_bytes || header.payload_bytes != ext.total()) {
    reject(path, "header extents are inconsistent");
  }
  if (file_bytes != sizeof(SnapshotHeader) + header.payload_bytes) {
    reject(path, "file size disagrees with the header (truncated or trailing garbage)");
  }

  const char* payload = static_cast<const char*>(map) + sizeof(SnapshotHeader);
  SnapshotHeader unsealed = header;
  unsealed.checksum = 0;
  Checksum sum;
  sum.mix(&unsealed, sizeof(unsealed));
  sum.mix(payload, header.payload_bytes);
  if (sum.digest() != header.checksum) reject(path, "checksum mismatch (corrupt file)");

  // Bind the arrays.  Every section starts 8-byte aligned (the header is
  // 64 bytes, sections are padded), so the reinterpret_casts below are
  // aligned for their 4-byte element types.
  const char* p = payload;
  Snapshot snap;
  snap.instance_.name.assign(p, header.name_bytes);
  p += ext.name;
  CsrGraph::Arrays arrays;
  arrays.owner = mapping;
  arrays.num_nodes = n;
  arrays.offsets = {reinterpret_cast<const CsrPos*>(p), static_cast<std::size_t>(n + 1)};
  p += ext.offsets;
  arrays.split = {reinterpret_cast<const CsrPos*>(p), static_cast<std::size_t>(n)};
  p += ext.split;
  arrays.nbr = {reinterpret_cast<const NodeId*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.nbr;
  arrays.edge = {reinterpret_cast<const EdgeId*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.edge;
  arrays.mirror = {reinterpret_cast<const CsrPos*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.mirror;
  arrays.part_nbr = {reinterpret_cast<const NodeId*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.part_nbr;
  arrays.part_pos = {reinterpret_cast<const CsrPos*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.part_pos;
  arrays.senses = {reinterpret_cast<const EdgeSense*>(p), static_cast<std::size_t>(m)};

  try {
    snap.csr_ = CsrGraph(std::move(arrays));
    snap.instance_.graph = Graph(snap.csr_);
  } catch (const std::invalid_argument&) {
    // A checksum-clean file can still lie about its contents: offsets that
    // do not end at 2m, or ids out of range.
    reject(path, "array contents are inconsistent with the header");
  }
  const auto senses = snap.csr_.initial_senses();
  snap.instance_.senses.assign(senses.begin(), senses.end());
  snap.instance_.destination = static_cast<NodeId>(header.destination);
  snap.bytes_ = {static_cast<const std::byte*>(map), static_cast<std::size_t>(file_bytes)};
  return snap;
}

}  // namespace lr
