// Tests for the mmap-backed instance snapshots (graph/snapshot.hpp):
// save -> load round-trip byte-identity of every CSR array, the reloaded
// instance, the one adjacency store (Graph and CsrGraph both read the
// mapping, and copies outlive it), and loud rejection of corrupted files
// (bad magic, bad version, truncation, extent disagreement, header and
// payload bit flips, out-of-range header fields) in the style of
// shard_protocol_test.

#include "graph/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace lr {
namespace {

/// Self-cleaning scratch directory for snapshot files.
struct TempDir {
  std::string path;

  TempDir() {
    char name[] = "/tmp/lr_snapshot_test_XXXXXX";
    if (::mkdtemp(name) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = name;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Instance sample_instance() {
  std::mt19937_64 rng(7);
  Instance instance = make_random_instance(60, 80, rng);
  instance.name = "snapshot-test-workload";
  instance.destination = 3;
  return instance;
}

template <typename T>
bool spans_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// True iff every element of `array` lies inside the mapped file.
template <typename T>
bool reads_mapping(const Snapshot& snapshot, std::span<const T> array) {
  const auto* begin = reinterpret_cast<const std::byte*>(array.data());
  const auto file = snapshot.bytes();
  return begin >= file.data() && begin + array.size_bytes() <= file.data() + file.size();
}

TEST(Snapshot, RoundTripIsByteIdenticalPerArray) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("roundtrip.lrsnap");
  save_snapshot(path, instance, csr);

  const Snapshot loaded = Snapshot::load(path);
  EXPECT_TRUE(reads_mapping(loaded, loaded.csr().raw_offsets()));
  EXPECT_TRUE(reads_mapping(loaded, loaded.csr().raw_partition_neighbors()));
  EXPECT_TRUE(reads_mapping(loaded, loaded.csr().initial_senses()));
  EXPECT_EQ(loaded.num_nodes(), csr.num_nodes());
  EXPECT_EQ(loaded.num_edges(), csr.num_edges());
  EXPECT_EQ(loaded.destination(), instance.destination);
  EXPECT_EQ(loaded.name(), instance.name);
  EXPECT_GT(loaded.file_bytes(), std::size_t{64});

  // The fingerprint covers everything, but the satellite contract is
  // per-array byte identity — assert each flat window explicitly.
  const CsrGraph& reloaded = loaded.csr();
  EXPECT_TRUE(spans_equal(reloaded.raw_offsets(), csr.raw_offsets()));
  EXPECT_TRUE(spans_equal(reloaded.raw_neighbors(), csr.raw_neighbors()));
  EXPECT_TRUE(spans_equal(reloaded.raw_edges(), csr.raw_edges()));
  EXPECT_TRUE(spans_equal(reloaded.raw_mirrors(), csr.raw_mirrors()));
  EXPECT_TRUE(spans_equal(reloaded.raw_partition_neighbors(), csr.raw_partition_neighbors()));
  EXPECT_TRUE(spans_equal(reloaded.raw_partition_positions(), csr.raw_partition_positions()));
  EXPECT_TRUE(spans_equal(reloaded.raw_splits(), csr.raw_splits()));
  EXPECT_TRUE(spans_equal(reloaded.initial_senses(), csr.initial_senses()));
  EXPECT_EQ(reloaded.fingerprint(), csr.fingerprint());
}

TEST(Snapshot, ThawReconstructsTheInstance) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("thaw.lrsnap");
  save_snapshot(path, instance, csr);

  const Snapshot loaded = Snapshot::load(path);
  const Instance& reloaded = loaded.instance();
  EXPECT_EQ(reloaded.graph, instance.graph);
  EXPECT_EQ(reloaded.senses, instance.senses);
  EXPECT_EQ(reloaded.destination, instance.destination);
  EXPECT_EQ(reloaded.name, instance.name);
}

TEST(Snapshot, MaterializedCopyOutlivesTheMapping) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("materialize.lrsnap");
  save_snapshot(path, instance, csr);

  CsrGraph copy;
  Graph graph_copy;
  {
    const Snapshot loaded = Snapshot::load(path);
    copy = loaded.csr();  // shares the mapping, and keeps it mapped
    graph_copy = loaded.instance().graph;
    EXPECT_TRUE(reads_mapping(loaded, copy.raw_neighbors()));
    EXPECT_TRUE(reads_mapping(loaded, graph_copy.neighbors(0)));
  }  // the Snapshot dies here; its mapping does not
  EXPECT_EQ(copy.fingerprint(), csr.fingerprint());
  EXPECT_EQ(graph_copy, instance.graph);
  EXPECT_EQ(CsrGraph(graph_copy, instance.senses).fingerprint(), csr.fingerprint());
}

// One adjacency copy per reload: the instance's Graph and the CsrGraph
// read the same mapped offsets, neighbour and edge sections.
TEST(Snapshot, LoadedGraphAndCsrReadTheMapping) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const std::string path = dir.file("shared.lrsnap");
  save_snapshot(path, instance, CsrGraph(instance.graph, instance.senses));

  const Snapshot loaded = Snapshot::load(path);
  const Graph& graph = loaded.instance().graph;
  const CsrGraph& csr = loaded.csr();
  EXPECT_TRUE(reads_mapping(loaded, csr.raw_neighbors()));
  EXPECT_TRUE(reads_mapping(loaded, csr.raw_edges()));
  ASSERT_EQ(graph.num_nodes(), csr.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    EXPECT_EQ(graph.neighbors(u).data(), csr.neighbors(u).data()) << "node " << u;
    EXPECT_EQ(graph.incident_edges(u).data(), csr.incident_edges(u).data()) << "node " << u;
  }
}

TEST(Snapshot, SaveRejectsSensesThatDisagreeWithTheCsr) {
  const TempDir dir;
  const Instance instance = sample_instance();
  std::vector<EdgeSense> flipped = instance.senses;
  flipped[flipped.size() / 2] = flipped[flipped.size() / 2] == EdgeSense::kForward
                                    ? EdgeSense::kBackward
                                    : EdgeSense::kForward;
  const CsrGraph csr(instance.graph, flipped);
  const std::string path = dir.file("flipped.lrsnap");
  EXPECT_THROW(save_snapshot(path, instance, csr), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Snapshot, SaveIsAtomicAndIdempotent) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("atomic.lrsnap");
  save_snapshot(path, instance, csr);
  save_snapshot(path, instance, csr);  // overwrite in place via tmp+rename

  const Snapshot loaded = Snapshot::load(path);
  EXPECT_EQ(loaded.csr().fingerprint(), csr.fingerprint());

  // No temp files may survive a completed save.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

TEST(Snapshot, ConcurrentSavesOfOnePathAllSucceed) {
  // Threads of one sweep that miss the same workload save the same path at
  // once.  Each save writes a temp file of its own, so every save succeeds,
  // the published file is one complete snapshot, and no temp file is left.
  // The instance is a few MiB, so the writes overlap.
  const TempDir dir;
  std::mt19937_64 rng(11);
  const Instance instance = make_random_instance(20000, 30000, rng);
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("raced.lrsnap");
  constexpr int kThreads = 6;
  for (int round = 0; round < 4; ++round) {
    std::latch start(kThreads);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        start.arrive_and_wait();
        try {
          save_snapshot(path, instance, csr);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "round " << round;
    EXPECT_EQ(Snapshot::load(path).csr().fingerprint(), csr.fingerprint()) << "round " << round;
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

// ---------------------------------------------------------------------------
// Corruption battery — every tampered file must be rejected loudly.
// Header layout (snapshot.cpp): magic[8], version u32, reserved u32, then
// u64 num_nodes / num_edges / destination / name_bytes / payload_bytes /
// checksum; payload starts at byte 64.  The checksum is FNV-1a over the
// 8-byte words of the header (checksum field zeroed) and the payload, word
// i into lane i mod 4, then over the four lanes in order.
// ---------------------------------------------------------------------------

constexpr std::size_t kNumNodesAt = 16;
constexpr std::size_t kDestinationAt = 32;
constexpr std::size_t kChecksumAt = 56;

std::uint64_t read_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

void write_u64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

/// Recomputes the stored checksum, so a tampered header field reaches the
/// loader's range checks instead of the checksum comparison.
void reseal(std::vector<std::uint8_t>& bytes) {
  constexpr std::uint64_t kBasis = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  write_u64(bytes, kChecksumAt, 0);
  std::uint64_t lanes[4] = {kBasis, kBasis, kBasis, kBasis};
  for (std::size_t at = 0; at < bytes.size(); at += 8) {
    std::uint64_t& lane = lanes[(at / 8) % 4];
    lane = (lane ^ read_u64(bytes, at)) * kPrime;
  }
  std::uint64_t h = kBasis;
  for (const std::uint64_t lane : lanes) h = (h ^ lane) * kPrime;
  write_u64(bytes, kChecksumAt, h);
}

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = sample_instance();
    csr_ = CsrGraph(instance_.graph, instance_.senses);
    path_ = dir_.file("victim.lrsnap");
    save_snapshot(path_, instance_, csr_);
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), std::size_t{64});
  }

  /// Writes a tampered copy and expects load() to reject it.
  void expect_rejected(const std::vector<std::uint8_t>& bytes, const char* what) {
    const std::string tampered = dir_.file("tampered.lrsnap");
    write_file(tampered, bytes);
    EXPECT_THROW(Snapshot::load(tampered), std::runtime_error) << what;
  }

  TempDir dir_;
  Instance instance_;
  CsrGraph csr_;
  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(SnapshotCorruption, PristineFileLoads) {
  EXPECT_EQ(Snapshot::load(path_).csr().fingerprint(), csr_.fingerprint());
}

TEST_F(SnapshotCorruption, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[0] ^= 0x5a;
  expect_rejected(bytes, "magic");
}

TEST_F(SnapshotCorruption, WrongVersionRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[8] ^= 0xff;  // version u32, little end
  expect_rejected(bytes, "version");
}

TEST_F(SnapshotCorruption, TruncationRejected) {
  // Below the header, at the header boundary, and mid-payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{17}, std::size_t{64}, bytes_.size() - 1}) {
    std::vector<std::uint8_t> bytes(bytes_.begin(),
                                    bytes_.begin() + static_cast<std::ptrdiff_t>(keep));
    expect_rejected(bytes, "truncation");
  }
}

TEST_F(SnapshotCorruption, ExtentDisagreementRejected) {
  // Bump num_edges: the declared extents no longer match payload_bytes /
  // the file size, independent of the checksum.
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[24] += 1;  // num_edges u64, little end
  expect_rejected(bytes, "extents");
}

TEST_F(SnapshotCorruption, PayloadBitFlipRejectedByChecksum) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[64 + (bytes.size() - 64) / 2] ^= 0x01;
  expect_rejected(bytes, "checksum");
}

TEST_F(SnapshotCorruption, EveryBitOfAPayloadWordIsCovered) {
  // The checksum reads whole words: a flip of any of a word's 64 bits, in
  // the middle of the payload or in the file's last (padded) word, and two
  // swapped words, must all be rejected.
  ASSERT_EQ(bytes_.size() % 8, 0u);
  const std::size_t middle = 64 + ((bytes_.size() - 64) / 16) * 8;
  for (const std::size_t word : {middle, bytes_.size() - 8}) {
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<std::uint8_t> bytes = bytes_;
      write_u64(bytes, word, read_u64(bytes, word) ^ (std::uint64_t{1} << bit));
      expect_rejected(bytes, ("word at " + std::to_string(word) + ", bit " +
                              std::to_string(bit)).c_str());
    }
  }
  std::size_t at = 64;
  while (at + 16 <= bytes_.size() && read_u64(bytes_, at) == read_u64(bytes_, at + 8)) at += 8;
  ASSERT_LE(at + 16, bytes_.size());
  std::vector<std::uint8_t> swapped = bytes_;
  write_u64(swapped, at, read_u64(bytes_, at + 8));
  write_u64(swapped, at + 8, read_u64(bytes_, at));
  expect_rejected(swapped, "two adjacent words swapped");
}

TEST_F(SnapshotCorruption, ResealMatchesTheWriter) {
  // The test's checksum recomputation matches the writer's, so the range
  // checks below are reached with a valid checksum.
  std::vector<std::uint8_t> bytes = bytes_;
  reseal(bytes);
  ASSERT_EQ(bytes, bytes_);
}

TEST_F(SnapshotCorruption, DestinationBitFlipRejected) {
  // Flipping bit 0 of the destination keeps it a valid node (3 -> 2) but
  // silently changes every run's workload: only the header checksum sees it.
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[kDestinationAt] ^= 0x01;
  expect_rejected(bytes, "destination bit flip");
}

TEST_F(SnapshotCorruption, DestinationOutOfRangeRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  write_u64(bytes, kDestinationAt, instance_.graph.num_nodes());
  expect_rejected(bytes, "destination = n, stale checksum");
  reseal(bytes);
  expect_rejected(bytes, "destination = n, resealed");
}

TEST_F(SnapshotCorruption, NodeCountOutsideNodeIdRangeRejected) {
  // Bit 62 of num_nodes: the (n + 1) * 4-byte offset extent wraps around to
  // the true one, so only the NodeId range check and the checksum see it.
  std::vector<std::uint8_t> bytes = bytes_;
  write_u64(bytes, kNumNodesAt, read_u64(bytes, kNumNodesAt) ^ (std::uint64_t{1} << 62));
  expect_rejected(bytes, "num_nodes bit 62, stale checksum");
  reseal(bytes);
  expect_rejected(bytes, "num_nodes bit 62, resealed");
}

TEST_F(SnapshotCorruption, ChecksumFieldTamperRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[kChecksumAt] ^= 0x01;  // stored checksum itself
  expect_rejected(bytes, "stored checksum");
}

TEST_F(SnapshotCorruption, TrailingGarbageRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes.push_back(0x77);
  expect_rejected(bytes, "file longer than declared extents");
}

TEST_F(SnapshotCorruption, MissingFileRejected) {
  EXPECT_THROW(Snapshot::load(dir_.file("does-not-exist.lrsnap")), std::runtime_error);
}

}  // namespace
}  // namespace lr
