#include "runner/shard_protocol.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

/// Unit tests of the sharded sweep wire protocol
/// (runner/shard_protocol.hpp): frame round-trips for every frame type,
/// rejection of truncated / oversized / corrupted / garbage input, and a
/// randomized fuzz loop over frame boundaries — the parser must decode
/// the identical frame sequence no matter how the socket chunks the
/// bytes.

namespace lr {
namespace {

RunRecord sample_record() {
  RunRecord record;
  record.spec.topology = TopologyKind::kUnitDisk;
  record.spec.size = 4097;
  record.spec.algorithm = AlgorithmKind::kDistPR;
  record.spec.scheduler = SchedulerKind::kRandom;
  record.spec.seed = 0xfeedfacecafebeefULL;
  record.spec.max_steps = 123456789;
  record.spec.path = ExecutionPath::kLegacy;
  record.spec.engine_threads = 4;
  record.spec.sim_scheduler = EventSchedulerKind::kWheel;
  record.spec.sim_threads = 8;
  record.run_seed = 0x1234567890abcdefULL;
  record.nodes = 4097;
  record.bad_nodes = 17;
  record.work = 99999;
  record.edge_reversals = 88888;
  record.rounds = 7;
  record.dummy_steps = 3;
  record.abstract_steps = 11;
  record.messages = 1'000'000'007;
  record.converged = true;
  record.relation = RelationVerdict::kViolated;
  record.error = "worlds, \"quoted\",\nand newlines";
  return record;
}

/// Every record field a frame carries; the spec travels as its digest.
void expect_records_equal(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.run_seed, b.run_seed);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.bad_nodes, b.bad_nodes);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.edge_reversals, b.edge_reversals);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.dummy_steps, b.dummy_steps);
  EXPECT_EQ(a.abstract_steps, b.abstract_steps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.relation, b.relation);
  EXPECT_EQ(a.error, b.error);
}

/// Wraps a raw payload in a frame header and a matching checksum, so a
/// test can hand the parser payloads the encoders never produce.
std::vector<std::uint8_t> frame_payload(FrameType type, const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> bytes;
  for (int byte = 0; byte < 4; ++byte) bytes.push_back((kFrameMagic >> (8 * byte)) & 0xffu);
  bytes.push_back(static_cast<std::uint8_t>(type));
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  for (int byte = 0; byte < 4; ++byte) bytes.push_back((len >> (8 * byte)) & 0xffu);
  bytes.insert(bytes.end(), body.begin(), body.end());
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  };
  mix(static_cast<std::uint8_t>(type));
  for (const std::uint8_t byte : body) mix(byte);
  for (int byte = 0; byte < 8; ++byte) bytes.push_back((hash >> (8 * byte)) & 0xffu);
  return bytes;
}

/// Feeds a byte stream in one gulp and pops one frame.
Frame decode_single(const std::vector<std::uint8_t>& bytes) {
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  const auto frame = parser.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_FALSE(parser.mid_frame());
  return *frame;
}

TEST(ShardProtocol, HelloRoundTrip) {
  HelloFrame hello;
  hello.shard = 3;
  hello.begin = 120;
  hello.end = 160;
  hello.attempt = 2;
  const Frame frame = decode_single(encode_frame(hello));
  ASSERT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.hello.version, kShardProtocolVersion);
  EXPECT_EQ(kShardProtocolVersion, 7u);  // v7: persistent sessions, one kClaim per claim
  EXPECT_EQ(frame.hello.shard, 3u);
  EXPECT_EQ(frame.hello.begin, 120u);
  EXPECT_EQ(frame.hello.end, 160u);
  EXPECT_EQ(frame.hello.attempt, 2u);
}

TEST(ShardProtocol, RecordRoundTripPreservesEveryField) {
  RecordFrame record;
  record.global_index = 0xdeadbeefULL;
  record.record = sample_record();
  const Frame frame = decode_single(encode_frame(record));
  ASSERT_EQ(frame.type, FrameType::kRecord);
  EXPECT_EQ(frame.record.global_index, 0xdeadbeefULL);
  EXPECT_EQ(frame.record.spec_digest, spec_digest(record.record.spec));
  expect_records_equal(frame.record.record, record.record);
}

TEST(ShardProtocol, ShardDoneRoundTrip) {
  ShardDoneFrame done;
  done.records_emitted = 40;
  done.cache = {5, 100, 6, 4, 2};
  const Frame frame = decode_single(encode_frame(done));
  ASSERT_EQ(frame.type, FrameType::kShardDone);
  EXPECT_EQ(frame.done.records_emitted, 40u);
  EXPECT_EQ(frame.done.cache.peak_entries, 5u);
  EXPECT_EQ(frame.done.cache.hits, 100u);
  EXPECT_EQ(frame.done.cache.misses, 6u);
  EXPECT_EQ(frame.done.cache.snapshot_loads, 4u);
  EXPECT_EQ(frame.done.cache.snapshot_saves, 2u);
}

TEST(ShardProtocol, HeartbeatRoundTripBothDirections) {
  for (const std::uint8_t from_coordinator : {0, 1}) {
    HeartbeatFrame beacon;
    beacon.from_coordinator = from_coordinator;
    beacon.sequence = 0x0123456789abcdefULL;
    const Frame frame = decode_single(encode_frame(beacon));
    ASSERT_EQ(frame.type, FrameType::kHeartbeat);
    EXPECT_EQ(frame.heartbeat.from_coordinator, from_coordinator);
    EXPECT_EQ(frame.heartbeat.sequence, 0x0123456789abcdefULL);
  }
}

TEST(ShardProtocol, ShardRequestRoundTripPreservesEveryField) {
  ShardRequestFrame request;
  request.total = 4000;
  request.threads = 16;
  request.heartbeat_ms = 750;
  request.liveness_timeout_ms = 30000;
  request.spec_text = "topology = chain\nsize = 8, 16\nseed = 1\nalgorithm = fr\n";
  request.snapshot_dir = "/var/cache/lr snapshots";
  const Frame frame = decode_single(encode_frame(request));
  ASSERT_EQ(frame.type, FrameType::kShardRequest);
  EXPECT_EQ(frame.request.version, kShardProtocolVersion);
  EXPECT_EQ(frame.request.total, 4000u);
  EXPECT_EQ(frame.request.threads, 16u);
  EXPECT_EQ(frame.request.heartbeat_ms, 750u);
  EXPECT_EQ(frame.request.liveness_timeout_ms, 30000u);
  EXPECT_EQ(frame.request.spec_text, request.spec_text);
  EXPECT_EQ(frame.request.snapshot_dir, request.snapshot_dir);
}

TEST(ShardProtocol, ClaimRoundTrip) {
  ClaimFrame claim;
  claim.shard = 13;
  claim.begin = 712;
  claim.end = 720;
  claim.attempt = 2;
  const Frame frame = decode_single(encode_frame(claim));
  ASSERT_EQ(frame.type, FrameType::kClaim);
  EXPECT_EQ(frame.claim.shard, 13u);
  EXPECT_EQ(frame.claim.begin, 712u);
  EXPECT_EQ(frame.claim.end, 720u);
  EXPECT_EQ(frame.claim.attempt, 2u);
}

TEST(ShardProtocol, ShardErrorRoundTripIncludingAwkwardMessages) {
  for (const std::string& message :
       {std::string{}, std::string{"spec expands to 4 runs but coordinator expected 8"},
        std::string{"quotes \" and\nnewlines \x01 survive"}}) {
    ShardErrorFrame error;
    error.message = message;
    const Frame frame = decode_single(encode_frame(error));
    ASSERT_EQ(frame.type, FrameType::kShardError);
    EXPECT_EQ(frame.error.message, message);
  }
}

TEST(ShardProtocol, SkewedVersionsDecodeFaithfullyForLoudRejection) {
  // The parser itself decodes old-version handshakes; rejecting them is
  // the receiver's job (coordinator for hellos, shard-server for
  // requests) so the failure names the skew instead of a bare parse
  // error.  The version field must therefore survive the round trip.
  HelloFrame hello;
  hello.version = 2;
  EXPECT_EQ(decode_single(encode_frame(hello)).hello.version, 2u);
  ShardRequestFrame request;
  request.version = 2;
  request.spec_text = "topology = chain\n";
  EXPECT_EQ(decode_single(encode_frame(request)).request.version, 2u);
}

TEST(ShardProtocol, OlderRequestLayoutStillDecodesItsVersion) {
  // A version-6 request carried its shard's index and range before the
  // run total and its attempt after it.  Its payload is 32 bytes longer
  // than a version-7 one, so only the version is decoded, for the worker
  // to refuse by name rather than as a parse error.
  ShardRequestFrame request;
  request.spec_text = "topology = chain\n";
  const std::vector<std::uint8_t> encoded = encode_frame(request);
  std::vector<std::uint8_t> body(encoded.begin() + 9, encoded.end() - 8);
  body[0] = 6;  // the version's low byte
  body.insert(body.begin() + 4, 3 * 8, 0);       // shard, begin, end
  body.insert(body.begin() + 4 + 4 * 8, 8, 0);   // attempt, after the total
  const Frame frame = decode_single(frame_payload(FrameType::kShardRequest, body));
  ASSERT_EQ(frame.type, FrameType::kShardRequest);
  EXPECT_EQ(frame.request.version, 6u);
}

TEST(ShardProtocol, TruncatedFrameIsIncompleteNotAFrame) {
  const std::vector<std::uint8_t> bytes = encode_frame(HelloFrame{});
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{9},
                                 bytes.size() - 9, bytes.size() - 1}) {
    FrameParser parser;
    parser.feed(bytes.data(), keep);
    EXPECT_FALSE(parser.next().has_value()) << "prefix of " << keep << " bytes";
    EXPECT_EQ(parser.mid_frame(), keep > 0);
  }
}

TEST(ShardProtocol, GarbageMagicRejected) {
  std::vector<std::uint8_t> bytes = encode_frame(HelloFrame{});
  bytes[0] ^= 0x5a;
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_THROW(parser.next(), ShardProtocolError);
}

TEST(ShardProtocol, UnknownFrameTypeRejected) {
  std::vector<std::uint8_t> bytes = encode_frame(HelloFrame{});
  bytes[4] = 200;  // type byte
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_THROW(parser.next(), ShardProtocolError);
}

TEST(ShardProtocol, OversizedPayloadRejectedWithoutBuffering) {
  std::vector<std::uint8_t> bytes = encode_frame(HelloFrame{});
  // Claim a payload over the limit; only the header is present, but the
  // parser must reject on the length field alone instead of waiting for
  // 2^31 bytes that will never come.
  const std::uint32_t huge = kMaxFramePayload + 1;
  for (int byte = 0; byte < 4; ++byte) bytes[5 + byte] = (huge >> (8 * byte)) & 0xffu;
  FrameParser parser;
  parser.feed(bytes.data(), 9);
  EXPECT_THROW(parser.next(), ShardProtocolError);
}

TEST(ShardProtocol, ChecksumMismatchRejected) {
  RecordFrame record;
  record.record = sample_record();
  std::vector<std::uint8_t> bytes = encode_frame(record);
  bytes[bytes.size() / 2] ^= 1;  // flip one payload bit
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_THROW(parser.next(), ShardProtocolError);
}

TEST(ShardProtocol, BadEnumInsideRecordRejected) {
  // A record whose relation byte is out of range, with the checksum
  // recomputed to match: the payload decoder itself must reject it (the
  // checksum only guards transport corruption, not a buggy sender).
  RecordFrame record;
  record.record = sample_record();
  std::vector<std::uint8_t> bytes = encode_frame(record);
  // Payload starts at offset 9: global_index and spec digest (8 bytes
  // each), nine u64 counters, the converged byte, then the relation.
  bytes[9 + 8 + 8 + 9 * 8 + 1] = 250;
  // Recompute the trailing checksum over (type || payload).
  const std::size_t payload_len = bytes.size() - 9 - 8;
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  };
  mix(bytes[4]);
  for (std::size_t i = 0; i < payload_len; ++i) mix(bytes[9 + i]);
  for (int byte = 0; byte < 8; ++byte) {
    bytes[9 + payload_len + byte] = (hash >> (8 * byte)) & 0xffu;
  }
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_THROW(parser.next(), ShardProtocolError);
}

TEST(ShardProtocol, TrailingPayloadBytesRejected) {
  // Lengthen a hello payload by one byte (checksum recomputed): decoders
  // must consume their payload exactly.
  const HelloFrame hello;
  std::vector<std::uint8_t> body;
  {
    const std::vector<std::uint8_t> encoded = encode_frame(hello);
    body.assign(encoded.begin() + 9, encoded.end() - 8);
  }
  body.push_back(0x77);
  const std::vector<std::uint8_t> bytes = frame_payload(FrameType::kHello, body);
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_THROW(parser.next(), ShardProtocolError);
}

/// The boundary fuzz: a realistic multi-frame stream — now with the v3
/// frames (shard-request, heartbeats either direction, shard-error) and
/// the v7 claim interleaved — fed at every chunking a socket might
/// produce must decode identically.
TEST(ShardProtocol, FuzzRandomChunkBoundaries) {
  std::mt19937_64 rng(20260808);
  std::vector<std::uint8_t> stream;
  std::vector<FrameType> expected_types;
  std::vector<std::uint64_t> indexes;
  const auto append = [&stream, &expected_types](const std::vector<std::uint8_t>& bytes,
                                                 FrameType type) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    expected_types.push_back(type);
  };
  {
    ShardRequestFrame request;
    request.total = 400;
    request.spec_text = "topology = chain\nsize = 8\nseed = 1\nalgorithm = fr\n";
    append(encode_frame(request), FrameType::kShardRequest);
    ClaimFrame claim;
    claim.shard = 1;
    claim.begin = 100;
    claim.end = 140;
    append(encode_frame(claim), FrameType::kClaim);
  }
  {
    HelloFrame hello;
    hello.shard = 1;
    hello.begin = 100;
    hello.end = 140;
    append(encode_frame(hello), FrameType::kHello);
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    if (i % 8 == 0) {
      HeartbeatFrame beacon;
      beacon.from_coordinator = i % 16 == 0 ? 1 : 0;
      beacon.sequence = i / 8;
      append(encode_frame(beacon), FrameType::kHeartbeat);
    }
    RecordFrame record;
    record.global_index = 100 + i;
    record.record = sample_record();
    record.record.work = i * 17;
    record.record.error = (i % 3 == 0) ? "" : std::string(i, 'x');
    indexes.push_back(record.global_index);
    append(encode_frame(record), FrameType::kRecord);
  }
  {
    ShardErrorFrame error;
    error.message = "not actually an error, just exercising the framing";
    append(encode_frame(error), FrameType::kShardError);
  }
  {
    ShardDoneFrame done;
    done.records_emitted = 40;
    append(encode_frame(done), FrameType::kShardDone);
  }

  for (int round = 0; round < 50; ++round) {
    FrameParser parser;
    std::size_t fed = 0;
    std::vector<Frame> frames;
    std::uniform_int_distribution<std::size_t> chunk(1, round % 2 == 0 ? 7 : 1000);
    while (fed < stream.size()) {
      const std::size_t n = std::min(chunk(rng), stream.size() - fed);
      parser.feed(stream.data() + fed, n);
      fed += n;
      while (auto frame = parser.next()) frames.push_back(*frame);
    }
    ASSERT_EQ(frames.size(), expected_types.size()) << "round " << round;
    std::size_t record_index = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(frames[i].type, expected_types[i]) << "round " << round << " frame " << i;
      if (frames[i].type == FrameType::kRecord) {
        EXPECT_EQ(frames[i].record.global_index, indexes[record_index]);
        EXPECT_EQ(frames[i].record.record.work, record_index * 17);
        ++record_index;
      }
    }
    EXPECT_EQ(record_index, 40u);
    EXPECT_FALSE(parser.mid_frame());
  }
}

/// Single-byte corruption anywhere in the stream must never yield the
/// original frame sequence silently: the parser either throws, stalls
/// mid-frame (truncation detected at EOF), or produces a diverging
/// decode — it must not crash.
TEST(ShardProtocol, FuzzSingleByteCorruptionNeverSilentlyAccepted) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < 5; ++i) {
    RecordFrame record;
    record.global_index = i;
    record.record = sample_record();
    const auto bytes = encode_frame(record);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::size_t> position(0, stream.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> mutated = stream;
    mutated[position(rng)] ^= static_cast<std::uint8_t>(1u << bit(rng));
    FrameParser parser;
    parser.feed(mutated.data(), mutated.size());
    std::size_t decoded = 0;
    bool rejected = false;
    try {
      while (auto frame = parser.next()) {
        if (frame->type != FrameType::kRecord || frame->record.global_index != decoded) {
          rejected = true;  // diverging decode is a visible failure too
          break;
        }
        ++decoded;
      }
    } catch (const ShardProtocolError&) {
      rejected = true;
    }
    // Either some frame was rejected/diverged, or the stream no longer
    // parses to completion (mid-frame at EOF = truncation, also loud).
    EXPECT_TRUE(rejected || decoded < 5 || parser.mid_frame()) << "round " << round;
  }
}

/// Same single-byte-corruption guarantee over a stream of the v3 frame
/// types (shard-request with an embedded spec, heartbeats both ways,
/// shard-error) and v7's claim: corruption is always loud, never a silent
/// identical decode and never a crash or hang.
TEST(ShardProtocol, FuzzSingleByteCorruptionV3FramesNeverSilentlyAccepted) {
  std::vector<std::uint8_t> stream;
  std::vector<FrameType> expected_types;
  const auto append = [&stream, &expected_types](const std::vector<std::uint8_t>& bytes,
                                                 FrameType type) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    expected_types.push_back(type);
  };
  {
    ShardRequestFrame request;
    request.total = 40;
    request.heartbeat_ms = 500;
    request.liveness_timeout_ms = 10000;
    request.spec_text = "topology = chain, random\nsize = 8\nseed = 1, 2\nalgorithm = fr\n";
    append(encode_frame(request), FrameType::kShardRequest);
    ClaimFrame claim;
    claim.shard = 2;
    claim.begin = 10;
    claim.end = 20;
    append(encode_frame(claim), FrameType::kClaim);
  }
  for (const std::uint8_t direction : {1, 0}) {
    HeartbeatFrame beacon;
    beacon.from_coordinator = direction;
    beacon.sequence = direction + 5u;
    append(encode_frame(beacon), FrameType::kHeartbeat);
  }
  {
    ShardErrorFrame error;
    error.message = "protocol version mismatch (coordinator 2, worker 3)";
    append(encode_frame(error), FrameType::kShardError);
  }

  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::size_t> position(0, stream.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> mutated = stream;
    const std::size_t at = position(rng);
    mutated[at] ^= static_cast<std::uint8_t>(1u << bit(rng));
    FrameParser parser;
    parser.feed(mutated.data(), mutated.size());
    std::size_t decoded = 0;
    bool rejected = false;
    try {
      while (auto frame = parser.next()) {
        if (decoded >= expected_types.size() || frame->type != expected_types[decoded]) {
          rejected = true;
          break;
        }
        ++decoded;
      }
    } catch (const ShardProtocolError&) {
      rejected = true;
    }
    EXPECT_TRUE(rejected || decoded < expected_types.size() || parser.mid_frame())
        << "round " << round << " corrupting byte " << at;
  }
}

}  // namespace
}  // namespace lr
