#include "runner/shard_protocol.hpp"

#include <algorithm>
#include <cstring>

namespace lr {

namespace {

// ---------------------------------------------------------------------------
// Primitive little-endian encoding
// ---------------------------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value) { out.push_back(value); }

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int byte = 0; byte < 4; ++byte) out.push_back((value >> (8 * byte)) & 0xffu);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) out.push_back((value >> (8 * byte)) & 0xffu);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& value) {
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

std::uint64_t fnv1a(FrameType type, const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  };
  mix(static_cast<std::uint8_t>(type));
  for (std::size_t i = 0; i < size; ++i) mix(data[i]);
  return hash;
}

/// Bounds-checked little-endian decoding cursor over one frame payload.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t value = 0;
    for (int byte = 0; byte < 4; ++byte) value |= std::uint32_t{data_[pos_++]} << (8 * byte);
    return value;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t value = 0;
    for (int byte = 0; byte < 8; ++byte) value |= std::uint64_t{data_[pos_++]} << (8 * byte);
    return value;
  }

  std::string string() {
    const std::uint32_t length = u32();
    need(length);
    std::string value(reinterpret_cast<const char*>(data_ + pos_), length);
    pos_ += length;
    return value;
  }

  /// Every payload decoder ends with this: leftover bytes mean the
  /// sender and receiver disagree about the schema.
  void expect_exhausted() const {
    if (pos_ != size_) throw ShardProtocolError("shard frame payload has trailing bytes");
  }

 private:
  void need(std::size_t bytes) const {
    if (size_ - pos_ < bytes) throw ShardProtocolError("shard frame payload truncated");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Decodes an enum byte, rejecting values outside the known range so a
/// corrupted record can never smuggle an out-of-range discriminator into
/// the merged report.
template <typename Enum>
Enum checked_enum(std::uint8_t raw, Enum max, const char* what) {
  if (raw > static_cast<std::uint8_t>(max)) {
    throw ShardProtocolError(std::string("shard frame: bad ") + what + " value " +
                             std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

// ---------------------------------------------------------------------------
// Payload encoders / decoders per frame type
// ---------------------------------------------------------------------------

void encode_payload(std::vector<std::uint8_t>& out, const HelloFrame& hello) {
  put_u32(out, hello.version);
  put_u64(out, hello.shard);
  put_u64(out, hello.begin);
  put_u64(out, hello.end);
  put_u64(out, hello.attempt);
}

HelloFrame decode_hello(Cursor& cursor) {
  HelloFrame hello;
  hello.version = cursor.u32();
  hello.shard = cursor.u64();
  hello.begin = cursor.u64();
  hello.end = cursor.u64();
  hello.attempt = cursor.u64();
  cursor.expect_exhausted();
  return hello;
}

void encode_payload(std::vector<std::uint8_t>& out, const RecordFrame& frame) {
  put_u64(out, frame.global_index);
  put_u64(out, spec_digest(frame.record.spec));
  const RunRecord& record = frame.record;
  put_u64(out, record.run_seed);
  put_u64(out, record.nodes);
  put_u64(out, record.bad_nodes);
  put_u64(out, record.work);
  put_u64(out, record.edge_reversals);
  put_u64(out, record.rounds);
  put_u64(out, record.dummy_steps);
  put_u64(out, record.abstract_steps);
  put_u64(out, record.messages);
  put_u8(out, record.converged ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(record.relation));
  put_string(out, record.error);
}

RecordFrame decode_record(Cursor& cursor) {
  RecordFrame frame;
  frame.global_index = cursor.u64();
  frame.spec_digest = cursor.u64();
  RunRecord& record = frame.record;
  record.run_seed = cursor.u64();
  record.nodes = cursor.u64();
  record.bad_nodes = cursor.u64();
  record.work = cursor.u64();
  record.edge_reversals = cursor.u64();
  record.rounds = cursor.u64();
  record.dummy_steps = cursor.u64();
  record.abstract_steps = cursor.u64();
  record.messages = cursor.u64();
  const std::uint8_t converged = cursor.u8();
  if (converged > 1) throw ShardProtocolError("shard frame: bad converged flag");
  record.converged = converged == 1;
  record.relation = checked_enum(cursor.u8(), RelationVerdict::kViolated, "relation");
  record.error = cursor.string();
  cursor.expect_exhausted();
  return frame;
}

void encode_payload(std::vector<std::uint8_t>& out, const HeartbeatFrame& heartbeat) {
  put_u8(out, heartbeat.from_coordinator);
  put_u64(out, heartbeat.sequence);
}

HeartbeatFrame decode_heartbeat(Cursor& cursor) {
  HeartbeatFrame heartbeat;
  heartbeat.from_coordinator = cursor.u8();
  if (heartbeat.from_coordinator > 1) {
    throw ShardProtocolError("shard frame: bad heartbeat direction flag");
  }
  heartbeat.sequence = cursor.u64();
  cursor.expect_exhausted();
  return heartbeat;
}

void encode_payload(std::vector<std::uint8_t>& out, const ShardRequestFrame& request) {
  put_u32(out, request.version);
  put_u64(out, request.total);
  put_u64(out, request.threads);
  put_u32(out, request.heartbeat_ms);
  put_u32(out, request.liveness_timeout_ms);
  put_string(out, request.spec_text);
  put_string(out, request.snapshot_dir);
}

ShardRequestFrame decode_request(Cursor& cursor) {
  ShardRequestFrame request;
  request.version = cursor.u32();
  // Another version may lay its fields out differently: keep the version
  // for the worker's refusal, which names both versions, and skip the rest.
  if (request.version != kShardProtocolVersion) return request;
  request.total = cursor.u64();
  request.threads = cursor.u64();
  request.heartbeat_ms = cursor.u32();
  request.liveness_timeout_ms = cursor.u32();
  request.spec_text = cursor.string();
  request.snapshot_dir = cursor.string();
  cursor.expect_exhausted();
  return request;
}

void encode_payload(std::vector<std::uint8_t>& out, const ClaimFrame& claim) {
  put_u64(out, claim.shard);
  put_u64(out, claim.begin);
  put_u64(out, claim.end);
  put_u64(out, claim.attempt);
}

ClaimFrame decode_claim(Cursor& cursor) {
  ClaimFrame claim;
  claim.shard = cursor.u64();
  claim.begin = cursor.u64();
  claim.end = cursor.u64();
  claim.attempt = cursor.u64();
  cursor.expect_exhausted();
  return claim;
}

void encode_payload(std::vector<std::uint8_t>& out, const ShardErrorFrame& error) {
  put_string(out, error.message);
}

ShardErrorFrame decode_error(Cursor& cursor) {
  ShardErrorFrame error;
  error.message = cursor.string();
  cursor.expect_exhausted();
  return error;
}

void encode_payload(std::vector<std::uint8_t>& out, const ShardDoneFrame& done) {
  put_u64(out, done.records_emitted);
  put_u64(out, done.cache.peak_entries);
  put_u64(out, done.cache.hits);
  put_u64(out, done.cache.misses);
  put_u64(out, done.cache.snapshot_loads);
  put_u64(out, done.cache.snapshot_saves);
}

ShardDoneFrame decode_done(Cursor& cursor) {
  ShardDoneFrame done;
  done.records_emitted = cursor.u64();
  done.cache.peak_entries = static_cast<std::size_t>(cursor.u64());
  done.cache.hits = cursor.u64();
  done.cache.misses = cursor.u64();
  done.cache.snapshot_loads = cursor.u64();
  done.cache.snapshot_saves = cursor.u64();
  cursor.expect_exhausted();
  return done;
}

template <typename Payload>
std::vector<std::uint8_t> encode(FrameType type, const Payload& payload) {
  std::vector<std::uint8_t> body;
  encode_payload(body, payload);
  std::vector<std::uint8_t> out;
  out.reserve(body.size() + 17);
  put_u32(out, kFrameMagic);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  put_u64(out, fnv1a(type, body.data(), body.size()));
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const HelloFrame& hello) {
  return encode(FrameType::kHello, hello);
}

std::vector<std::uint8_t> encode_frame(const RecordFrame& record) {
  return encode(FrameType::kRecord, record);
}

std::vector<std::uint8_t> encode_frame(const ShardDoneFrame& done) {
  return encode(FrameType::kShardDone, done);
}

std::vector<std::uint8_t> encode_frame(const HeartbeatFrame& heartbeat) {
  return encode(FrameType::kHeartbeat, heartbeat);
}

std::vector<std::uint8_t> encode_frame(const ShardRequestFrame& request) {
  return encode(FrameType::kShardRequest, request);
}

std::vector<std::uint8_t> encode_frame(const ShardErrorFrame& error) {
  return encode(FrameType::kShardError, error);
}

std::vector<std::uint8_t> encode_frame(const ClaimFrame& claim) {
  return encode(FrameType::kClaim, claim);
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: drop fully decoded bytes once they dominate the
  // buffer so a long-lived worker stream stays O(frame), not O(stream).
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameParser::next() {
  constexpr std::size_t kHeaderSize = 4 + 1 + 4;  // magic + type + payload_len
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kHeaderSize) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  std::uint32_t magic = 0;
  for (int byte = 0; byte < 4; ++byte) magic |= std::uint32_t{head[byte]} << (8 * byte);
  if (magic != kFrameMagic) throw ShardProtocolError("shard frame: bad magic");
  const std::uint8_t raw_type = head[4];
  if (raw_type < static_cast<std::uint8_t>(FrameType::kHello) ||
      raw_type > static_cast<std::uint8_t>(FrameType::kClaim)) {
    throw ShardProtocolError("shard frame: unknown frame type " + std::to_string(raw_type));
  }
  std::uint32_t payload_len = 0;
  for (int byte = 0; byte < 4; ++byte) payload_len |= std::uint32_t{head[5 + byte]} << (8 * byte);
  if (payload_len > kMaxFramePayload) {
    throw ShardProtocolError("shard frame: oversized payload (" + std::to_string(payload_len) +
                             " bytes)");
  }
  if (available < kHeaderSize + payload_len + 8) return std::nullopt;  // checksum still missing
  const std::uint8_t* payload = head + kHeaderSize;
  const FrameType type = static_cast<FrameType>(raw_type);
  std::uint64_t checksum = 0;
  for (int byte = 0; byte < 8; ++byte) {
    checksum |= std::uint64_t{payload[payload_len + byte]} << (8 * byte);
  }
  if (checksum != fnv1a(type, payload, payload_len)) {
    throw ShardProtocolError("shard frame: checksum mismatch");
  }
  Cursor cursor(payload, payload_len);
  Frame frame;
  frame.type = type;
  switch (type) {
    case FrameType::kHello:
      frame.hello = decode_hello(cursor);
      break;
    case FrameType::kRecord:
      frame.record = decode_record(cursor);
      break;
    case FrameType::kShardDone:
      frame.done = decode_done(cursor);
      break;
    case FrameType::kHeartbeat:
      frame.heartbeat = decode_heartbeat(cursor);
      break;
    case FrameType::kShardRequest:
      frame.request = decode_request(cursor);
      break;
    case FrameType::kShardError:
      frame.error = decode_error(cursor);
      break;
    case FrameType::kClaim:
      frame.claim = decode_claim(cursor);
      break;
  }
  consumed_ += kHeaderSize + payload_len + 8;
  return frame;
}

}  // namespace lr
