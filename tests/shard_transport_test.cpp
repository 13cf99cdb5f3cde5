#include "runner/shard_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/retry_policy.hpp"

/// Unit tests of the transport-layer plumbing that the sharded sweep
/// dataplane rides on: the shared RetryPolicy backoff schedule
/// (runner/retry_policy.hpp), the `--hosts` endpoint-list parser, and
/// the LR_TEST_TRANSPORT_FAULT knob parser (runner/shard_transport.hpp).
/// The transports themselves are exercised end-to-end in
/// multi_host_runner_test.cpp and process_runner_test.cpp.

namespace lr {
namespace {

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, FirstAttemptNeverWaits) {
  const RetryPolicy policy;
  for (std::size_t shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(policy.delay(shard, 0).count(), 0);
  }
}

TEST(RetryPolicy, DeterministicPureFunctionOfShardAndAttempt) {
  const RetryPolicy a;
  const RetryPolicy b;  // identical defaults => identical schedule
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (std::size_t attempt = 0; attempt < 6; ++attempt) {
      EXPECT_EQ(a.delay(shard, attempt), b.delay(shard, attempt))
          << "shard " << shard << " attempt " << attempt;
    }
  }
}

TEST(RetryPolicy, DelaysStayInsideTheJitterBand) {
  RetryPolicy policy;
  policy.initial_ms = 100;
  policy.cap_ms = 1'000;
  policy.jitter = 0.5;
  for (std::size_t shard = 0; shard < 16; ++shard) {
    for (std::size_t attempt = 1; attempt < 8; ++attempt) {
      const std::uint64_t base =
          std::min<std::uint64_t>(std::uint64_t{policy.initial_ms} << (attempt - 1),
                                  policy.cap_ms);
      const auto delay = policy.delay(shard, attempt).count();
      EXPECT_GE(delay, static_cast<long long>(base / 2) - 1)
          << "shard " << shard << " attempt " << attempt;
      EXPECT_LE(delay, static_cast<long long>(base)) << "shard " << shard << " attempt "
                                                     << attempt;
    }
  }
}

TEST(RetryPolicy, ZeroJitterIsExactExponentialBackoffWithCap) {
  RetryPolicy policy;
  policy.initial_ms = 25;
  policy.cap_ms = 200;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.delay(3, 1).count(), 25);
  EXPECT_EQ(policy.delay(3, 2).count(), 50);
  EXPECT_EQ(policy.delay(3, 3).count(), 100);
  EXPECT_EQ(policy.delay(3, 4).count(), 200);
  EXPECT_EQ(policy.delay(3, 5).count(), 200);  // capped from here on
  EXPECT_EQ(policy.delay(3, 20).count(), 200);
}

TEST(RetryPolicy, ZeroInitialDisablesBackoffEntirely) {
  RetryPolicy policy;
  policy.initial_ms = 0;
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(policy.delay(0, attempt).count(), 0);
  }
}

TEST(RetryPolicy, JitterDesynchronizesShards) {
  // The whole point of per-shard jitter: a fleet of shards failing
  // together must not retry in lockstep.
  RetryPolicy policy;
  policy.initial_ms = 1'000;
  policy.cap_ms = 10'000;
  policy.jitter = 0.5;
  bool any_difference = false;
  const auto reference = policy.delay(0, 1);
  for (std::size_t shard = 1; shard < 16 && !any_difference; ++shard) {
    any_difference = policy.delay(shard, 1) != reference;
  }
  EXPECT_TRUE(any_difference);
}

// ---------------------------------------------------------------------------
// shard_ranges
// ---------------------------------------------------------------------------

TEST(ShardRanges, ContiguousCoverBalancedLargerFirst) {
  const std::vector<ShardRange> ranges = shard_ranges(10, 4);
  ASSERT_EQ(ranges.size(), 4u);
  std::size_t expected_begin = 0;
  for (const ShardRange& range : ranges) {
    EXPECT_EQ(range.begin, expected_begin);
    expected_begin = range.end;
  }
  EXPECT_EQ(expected_begin, 10u);
  EXPECT_EQ(ranges[0].size(), 3u);
  EXPECT_EQ(ranges[1].size(), 3u);
  EXPECT_EQ(ranges[2].size(), 2u);
  EXPECT_EQ(ranges[3].size(), 2u);
}

TEST(ShardRanges, ClampsShardCountToRuns) {
  EXPECT_EQ(shard_ranges(3, 16).size(), 3u);
  EXPECT_TRUE(shard_ranges(0, 4).empty());
}

// ---------------------------------------------------------------------------
// parse_host_list
// ---------------------------------------------------------------------------

TEST(ParseHostList, SingleHostDefaultsToOneWorker) {
  const std::vector<HostSpec> hosts = parse_host_list("node-a:9000");
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0].host, "node-a");
  EXPECT_EQ(hosts[0].port, 9000);
  EXPECT_EQ(hosts[0].workers, 1u);
}

TEST(ParseHostList, MultipleHostsWithWorkerCounts) {
  const std::vector<HostSpec> hosts =
      parse_host_list("10.0.0.1:9000*4,10.0.0.2:9001,localhost:65535*1024");
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_EQ(hosts[0].host, "10.0.0.1");
  EXPECT_EQ(hosts[0].port, 9000);
  EXPECT_EQ(hosts[0].workers, 4u);
  EXPECT_EQ(hosts[1].host, "10.0.0.2");
  EXPECT_EQ(hosts[1].port, 9001);
  EXPECT_EQ(hosts[1].workers, 1u);
  EXPECT_EQ(hosts[2].host, "localhost");
  EXPECT_EQ(hosts[2].port, 65535);
  EXPECT_EQ(hosts[2].workers, 1024u);
}

TEST(ParseHostList, RejectionBatteryNamesTheOffendingEntry) {
  const auto expect_rejected = [](const std::string& text, const std::string& fragment) {
    try {
      parse_host_list(text);
      FAIL() << "'" << text << "' was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
          << "'" << text << "' rejected as: " << error.what();
    }
  };
  expect_rejected("", "empty entry");
  expect_rejected("a:1,,b:2", "empty entry");
  expect_rejected("a:1,", "empty entry");            // trailing comma
  expect_rejected("hostonly", "missing ':port'");
  expect_rejected(":9000", "empty host");
  expect_rejected("a:0", "port");                    // port below range
  expect_rejected("a:65536", "port");                // port above range
  expect_rejected("a:port", "port");                 // non-numeric port
  expect_rejected("a:", "port");                     // missing port digits
  expect_rejected("a:9000*0", "worker count");       // zero workers
  expect_rejected("a:9000*1025", "worker count");    // above bound
  expect_rejected("a:9000*many", "worker count");    // non-numeric
  // The message must carry the literal entry so a long list is debuggable.
  expect_rejected("good:1,bad:0*2,fine:3", "bad:0*2");
}

// ---------------------------------------------------------------------------
// parse_transport_fault
// ---------------------------------------------------------------------------

TEST(ParseTransportFault, EveryKindWithDefaults) {
  const struct {
    const char* text;
    TransportFault::Kind kind;
  } cases[] = {
      {"connect:0", TransportFault::Kind::kConnectRefuse},
      {"drop:1", TransportFault::Kind::kDrop},
      {"corrupt:2", TransportFault::Kind::kCorrupt},
      {"hbstall:3", TransportFault::Kind::kHeartbeatStall},
      {"delay:4", TransportFault::Kind::kDelay},
  };
  for (const auto& test_case : cases) {
    const TransportFault fault = parse_transport_fault(test_case.text);
    EXPECT_EQ(fault.kind, test_case.kind) << test_case.text;
    EXPECT_EQ(fault.shard,
              static_cast<std::size_t>(test_case.text[std::strlen(test_case.text) - 1] - '0'))
        << test_case.text;
    EXPECT_EQ(fault.attempts, 1u) << test_case.text;  // defaults to first attempt only
  }
}

TEST(ParseTransportFault, ExplicitAttemptCount) {
  const TransportFault fault = parse_transport_fault("drop:3:5");
  EXPECT_EQ(fault.kind, TransportFault::Kind::kDrop);
  EXPECT_EQ(fault.shard, 3u);
  EXPECT_EQ(fault.attempts, 5u);
  EXPECT_EQ(fault.at_byte, TransportFault{}.at_byte);  // default cut
}

TEST(ParseTransportFault, ExplicitStreamOffset) {
  const TransportFault fault = parse_transport_fault("drop:1:2:53");
  EXPECT_EQ(fault.kind, TransportFault::Kind::kDrop);
  EXPECT_EQ(fault.shard, 1u);
  EXPECT_EQ(fault.attempts, 2u);
  EXPECT_EQ(fault.at_byte, 53u);
}

TEST(ParseTransportFault, RejectionBattery) {
  for (const std::string text : {"", "drop", "explode:1", "drop:x", "drop:1:0", "drop:1:x",
                                 "drop:1:1:x", "drop:1:1:2:3", "drop:1::2"}) {
    EXPECT_THROW(parse_transport_fault(text), std::invalid_argument) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace lr
