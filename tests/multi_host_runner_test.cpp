#include "runner/shard_coordinator.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_protocol.hpp"
#include "runner/shard_server.hpp"
#include "runner/shard_transport.hpp"
#include "trace/report.hpp"

/// Acceptance battery of the sharded sweep dataplane
/// (runner/shard_coordinator.hpp + runner/shard_server.hpp): real TCP
/// sessions against in-process ShardServers must merge byte-identically
/// to the in-process ScenarioRunner at every host/worker count, recover
/// from every injected fault class within the retry budget — on TCP and
/// on local worker processes, which serve the same session — reassign a
/// dead host's shards to survivors, fall back to local worker processes
/// when every host dies, keep a run longer than the watchdog alive on
/// worker heartbeats, and reject protocol version skew and foreign
/// records loudly — and no configuration may hang.
///
/// The test binary is its own `sweep-worker` (main() below forwards the
/// subcommand), because the process transport fork/execs it.

namespace lr {
namespace {

/// RAII setenv/unsetenv so a failing test cannot leak fault knobs into
/// its neighbours.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// The byte string the determinism contract is stated over: records CSV,
/// aggregate CSV, and records JSON concatenated.
std::string tables_of(const SweepReport& report) {
  std::ostringstream os;
  write_table_csv(os, report.records_table());
  write_table_csv(os, report.aggregate_table());
  write_table_json(os, report.records_table());
  return os.str();
}

/// A small but heterogeneous sweep: 24 runs over two topologies and
/// three kernels, enough to spread non-trivially over several shards.
SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {8, 12};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kTora};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};
  sweep.max_steps = 200'000;
  return sweep;
}

/// A somewhat longer sweep through the distributed kernels, used by the
/// mid-run host-death test so there is a run window to kill a host in.
SweepSpec longer_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain};
  sweep.sizes = {48, 64};
  sweep.algorithms = {AlgorithmKind::kDistFR, AlgorithmKind::kDistPR};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2, 3};
  sweep.max_steps = 200'000;
  return sweep;
}

std::string in_process_tables(const SweepSpec& sweep) {
  const ScenarioRunner runner({.threads = 1});
  return tables_of(runner.run(sweep));
}

/// Starts `count` loopback shard servers and returns them; hosts() maps
/// them to a --hosts style endpoint list with `workers` lanes each.
std::vector<std::unique_ptr<ShardServer>> start_servers(std::size_t count) {
  std::vector<std::unique_ptr<ShardServer>> servers;
  for (std::size_t i = 0; i < count; ++i) {
    servers.push_back(std::make_unique<ShardServer>());
    servers.back()->start();
  }
  return servers;
}

std::vector<HostSpec> hosts_of(const std::vector<std::unique_ptr<ShardServer>>& servers,
                               std::size_t workers) {
  std::vector<HostSpec> hosts;
  for (const auto& server : servers) {
    hosts.push_back({"127.0.0.1", server->port(), workers});
  }
  return hosts;
}

/// A loopback port with nothing listening on it: bound, inspected, and
/// closed, so connects are refused (the "host that is already dead"
/// staging used by the reassignment and fallback batteries).
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  socklen_t length = sizeof(address);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length), 0);
  const std::uint16_t port = ntohs(address.sin_port);
  ::close(fd);
  return port;
}

/// A scripted worker on a loopback port: answers every connection with
/// `reply`, then keeps the connection open, so whatever the coordinator
/// concludes comes from the bytes, not from a dropped connection.
class FakeWorker {
 public:
  explicit FakeWorker(std::vector<std::uint8_t> reply) : reply_(std::move(reply)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    const int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t length = sizeof(address);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length), 0);
    port_ = ntohs(address.sin_port);
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        pollfd poll_item{listen_fd_, POLLIN, 0};
        if (::poll(&poll_item, 1, 50) <= 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        accepted_.push_back(fd);
        (void)!::send(fd, reply_.data(), reply_.size(), MSG_NOSIGNAL);
      }
    });
  }

  ~FakeWorker() {
    stop_.store(true);
    thread_.join();
    for (const int fd : accepted_) ::close(fd);
    ::close(listen_fd_);
  }

  FakeWorker(const FakeWorker&) = delete;
  FakeWorker& operator=(const FakeWorker&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  std::vector<std::uint8_t> reply_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<int> accepted_;  ///< touched by the accept thread only
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Byte identity
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, ByteIdenticalAcrossHostAndWorkerCounts) {
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const auto servers = start_servers(2);
    ShardCoordinator runner = make_shard_coordinator({.threads = 1}, hosts_of(servers, workers));
    EXPECT_EQ(runner.total_capacity(), 2 * workers);
    const SweepReport report = runner.run(sweep);
    EXPECT_EQ(tables_of(report), expected) << workers << " worker(s) per host";
    EXPECT_FALSE(runner.fallback_engaged());
    for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
      EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
      EXPECT_EQ(diag.attempts, 1u) << "shard " << diag.shard;
      EXPECT_TRUE(diag.failures.empty()) << "shard " << diag.shard;
      ASSERT_EQ(diag.attempt_log.size(), 1u);
      EXPECT_EQ(diag.attempt_log[0].outcome, "ok");
      EXPECT_NE(diag.attempt_log[0].endpoint.find("127.0.0.1:"), std::string::npos);
    }
  }
}

TEST(MultiHostRunner, WorkerThreadsInsideHostsKeepTablesIdentical) {
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  const auto servers = start_servers(2);
  ShardCoordinator runner = make_shard_coordinator({.threads = 2}, hosts_of(servers, 2));
  EXPECT_EQ(tables_of(runner.run(sweep)), expected);
}

// ---------------------------------------------------------------------------
// Fault battery: every class recovers with identical tables, on both
// transports
// ---------------------------------------------------------------------------

/// Which transport a battery case shards over.
enum class Transport : std::uint8_t { kTcp, kProcess };

struct FaultCase {
  const char* knob;          ///< LR_TEST_TRANSPORT_FAULT value
  const char* expect_in_failure;  ///< substring of the logged failure
  bool recovers_via_retry;   ///< true = one failed attempt then success
  Transport transport;       ///< 2 TCP hosts x 2 lanes, or 4 worker processes
};

/// `drop` with the stream cut right after the hello, at a frame boundary:
/// the worker vanishes between frames instead of mid-frame.
const std::string kDropAfterHello = "drop:1:1:" + std::to_string(encode_frame(HelloFrame{}).size());

class MultiHostFaultBattery : public ::testing::TestWithParam<FaultCase> {};

TEST_P(MultiHostFaultBattery, RecoversWithinBudgetAndStaysByteIdentical) {
  const FaultCase fault = GetParam();
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  const ScopedEnv knob("LR_TEST_TRANSPORT_FAULT", fault.knob);
  // Short watchdog so the heartbeat-stall case fires in test time.
  const ScopedEnv watchdog("LR_TEST_WORKER_TIMEOUT_MS", "400");
  const auto servers = start_servers(fault.transport == Transport::kTcp ? 2 : 0);
  ShardCoordinator runner =
      fault.transport == Transport::kTcp
          ? make_shard_coordinator({.threads = 1}, hosts_of(servers, 2))
          : make_shard_coordinator({.threads = 1, .process_workers = 4}, {});
  const SweepReport report = runner.run(sweep);
  EXPECT_EQ(tables_of(report), expected) << fault.knob;
  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_GT(diagnostics.size(), 1u);
  const ShardDiagnostics& hit = diagnostics[1];  // faults target shard 1
  EXPECT_TRUE(hit.completed);
  if (fault.recovers_via_retry) {
    EXPECT_EQ(hit.attempts, 2u) << fault.knob;
    ASSERT_EQ(hit.failures.size(), 1u) << fault.knob;
    // `expect_in_failure` lists acceptable classifications, '|'-separated
    // (a stalled channel may surface as the inactivity watchdog or as a
    // coordinator heartbeat failing on the dead-looking socket — both
    // are loud and both recover; which fires first is a timing race).
    {
      std::istringstream alternatives(fault.expect_in_failure);
      std::string token;
      bool matched = false;
      while (std::getline(alternatives, token, '|')) {
        matched = matched || hit.failures[0].find(token) != std::string::npos;
      }
      EXPECT_TRUE(matched) << fault.knob << " logged: " << hit.failures[0];
    }
    ASSERT_EQ(hit.attempt_log.size(), 2u);
    EXPECT_NE(hit.attempt_log[0].outcome, "ok");
    EXPECT_EQ(hit.attempt_log[1].outcome, "ok");
  } else {
    EXPECT_EQ(hit.attempts, 1u) << fault.knob;
    EXPECT_TRUE(hit.failures.empty()) << fault.knob;
  }
  for (const ShardDiagnostics& diag : diagnostics) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetworkFaults, MultiHostFaultBattery,
    ::testing::ValuesIn([] {
      std::vector<FaultCase> cases;
      for (const Transport transport : {Transport::kTcp, Transport::kProcess}) {
        for (const FaultCase& fault :
             {FaultCase{"drop:1", "truncated mid-frame|exited before completing", true},
              FaultCase{"corrupt:1", "shard frame", true},
              FaultCase{"hbstall:1", "stalled|heartbeat failed", true},
              FaultCase{"connect:1", "connect", true},
              FaultCase{"delay:1", "", false},
              FaultCase{kDropAfterHello.c_str(), "exited before completing its shard", true}}) {
          cases.push_back(fault);
          cases.back().transport = transport;
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      const std::string knob = info.param.knob;
      std::string name = knob.substr(0, knob.find(':'));
      if (knob == kDropAfterHello) name += "_after_hello";
      return info.param.transport == Transport::kProcess ? "process_" + name : name;
    });

TEST(MultiHostRunner, UnrecoverableFaultExhaustsBudgetLoudly) {
  // Four workloads on four lanes: four claims, each opening its own
  // session, so the retry of the faulted claim opens one too (on the lane
  // the failure freed) and the fault, armed per opening claim, fires again.
  SweepSpec sweep = small_sweep();
  sweep.sizes = {8};
  // The fault outlives the budget: 2 total attempts, 20 armed failures.
  const ScopedEnv knob("LR_TEST_TRANSPORT_FAULT", "drop:0:20");
  const auto servers = start_servers(2);
  RunnerOptions options{.threads = 1};
  options.worker_retries = 1;
  ShardCoordinator runner = make_shard_coordinator(options, hosts_of(servers, 2));
  try {
    runner.run(sweep);
    FAIL() << "budget exhaustion must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("multi-host sweep failed: retry budget exhausted"), std::string::npos)
        << what;
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
  }
  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_FALSE(diagnostics[0].completed);
  EXPECT_EQ(diagnostics[0].attempts, 2u);
  EXPECT_EQ(diagnostics[0].failures.size(), 2u);
}

TEST(MultiHostRunner, SessionLostOnItsSecondClaimRetriesOnlyThatClaim) {
  // One lane: the session opened by claim 0 serves it, takes claim 1 on
  // demand, and dies 50 bytes into claim 1's second record.  Claim 0
  // stays merged from its first attempt; only claim 1 is retried, on a
  // fresh session, and the tables are byte-identical.  Both transports
  // run the one session, so both must behave alike.
  const SweepSpec sweep = small_sweep();  // 8 workloads: claims of 12, 6, 3, 3 runs
  const std::string expected = in_process_tables(sweep);
  const std::vector<ShardRange> claims = plan_claims(sweep.expand(), 1);
  ASSERT_EQ(claims.size(), 4u);
  // Fixed-width frames: an error-free record, a hello and a done frame
  // encode to the same size whatever their values.
  const std::size_t hello = encode_frame(HelloFrame{}).size();
  const std::size_t record = encode_frame(RecordFrame{}).size();
  const std::size_t done = encode_frame(ShardDoneFrame{}).size();
  const std::size_t cut = hello + claims[0].size() * record + done + hello + record + 50;
  const ScopedEnv knob("LR_TEST_TRANSPORT_FAULT", "drop:0:1:" + std::to_string(cut));
  const auto servers = start_servers(1);
  for (const bool over_tcp : {true, false}) {
    const char* transport = over_tcp ? "tcp" : "process";
    ShardCoordinator runner =
        over_tcp ? make_shard_coordinator({.threads = 1}, hosts_of(servers, 1))
                 : make_shard_coordinator({.threads = 1, .process_workers = 1}, {});
    EXPECT_EQ(tables_of(runner.run(sweep)), expected) << transport;
    const auto& diagnostics = runner.shard_diagnostics();
    ASSERT_EQ(diagnostics.size(), claims.size()) << transport;
    for (const ShardDiagnostics& diag : diagnostics) {
      EXPECT_TRUE(diag.completed) << transport << " claim " << diag.shard;
      EXPECT_EQ(diag.attempts, diag.shard == 1 ? 2u : 1u) << transport << " claim " << diag.shard;
    }
    ASSERT_EQ(diagnostics[0].attempt_log.size(), 1u) << transport;
    EXPECT_EQ(diagnostics[0].attempt_log[0].outcome, "ok") << transport;
    const ShardDiagnostics& lost = diagnostics[1];
    ASSERT_EQ(lost.failures.size(), 1u) << transport;
    EXPECT_TRUE(lost.failures[0].find("truncated mid-frame") != std::string::npos ||
                lost.failures[0].find("exited before completing") != std::string::npos)
        << transport << ": " << lost.failures[0];
    ASSERT_EQ(lost.attempt_log.size(), 2u) << transport;
    EXPECT_EQ(lost.attempt_log[0].session, diagnostics[0].attempt_log[0].session) << transport;
    EXPECT_EQ(lost.attempt_log[1].outcome, "ok") << transport;
    EXPECT_NE(lost.attempt_log[1].session, lost.attempt_log[0].session) << transport;
  }
}

// ---------------------------------------------------------------------------
// Host death: reassignment, fallback, loud all-dead failure
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, DeadHostShardsReassignToSurvivor) {
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  const auto servers = start_servers(1);
  std::vector<HostSpec> hosts = hosts_of(servers, 2);
  hosts.push_back({"127.0.0.1", dead_port(), 2});
  ShardCoordinator runner = make_shard_coordinator({.threads = 1}, hosts);
  const SweepReport report = runner.run(sweep);
  EXPECT_EQ(tables_of(report), expected);
  EXPECT_FALSE(runner.fallback_engaged());
  bool any_refused = false;
  for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
    for (const std::string& failure : diag.failures) {
      any_refused = any_refused || failure.find("connect") != std::string::npos;
    }
    ASSERT_FALSE(diag.attempt_log.empty());
    // Whoever failed, the attempt that completed ran on the live server.
    EXPECT_EQ(diag.attempt_log.back().endpoint,
              "127.0.0.1:" + std::to_string(servers[0]->port()));
  }
  EXPECT_TRUE(any_refused);  // the dead host was actually tried
}

TEST(MultiHostRunner, HostStoppedMidRunIsRecoveredFrom) {
  const SweepSpec sweep = longer_sweep();
  const std::string expected = in_process_tables(sweep);
  auto servers = start_servers(2);
  std::thread killer([&servers] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    servers[1]->stop();  // coordinators observe dropped connections
  });
  ShardCoordinator runner = make_shard_coordinator({.threads = 1}, hosts_of(servers, 2));
  const SweepReport report = runner.run(sweep);
  killer.join();
  EXPECT_EQ(tables_of(report), expected);
  for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
  }
}

TEST(MultiHostRunner, AllHostsDeadEngagesLocalProcessFallback) {
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  std::vector<HostSpec> hosts = {{"127.0.0.1", dead_port(), 2},
                                 {"127.0.0.1", dead_port(), 2}};
  RunnerOptions options{.threads = 1};
  options.process_workers = 2;  // arms the local fork/exec fallback
  ShardCoordinator runner = make_shard_coordinator(options, hosts);
  const SweepReport report = runner.run(sweep);
  EXPECT_EQ(tables_of(report), expected);
  EXPECT_TRUE(runner.fallback_engaged());
  for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
    ASSERT_FALSE(diag.attempt_log.empty());
    EXPECT_EQ(diag.attempt_log.back().endpoint, "process");
  }
}

TEST(MultiHostRunner, AllHostsDeadWithoutFallbackFailsLoudly) {
  const SweepSpec sweep = small_sweep();
  std::vector<HostSpec> hosts = {{"127.0.0.1", dead_port(), 2}};
  ShardCoordinator runner = make_shard_coordinator({.threads = 1}, hosts);
  try {
    runner.run(sweep);
    FAIL() << "an all-dead deployment with no fallback must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("multi-host sweep failed"), std::string::npos) << what;
    EXPECT_NE(what.find("every endpoint is dead"), std::string::npos) << what;
  }
}

TEST(MultiHostRunner, EmptyHostListRejected) {
  // No hosts and no worker processes: nowhere to run.
  EXPECT_THROW(make_shard_coordinator({.threads = 1}, {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Version skew: rejected loudly in both directions, never a hang
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, ServerRejectsSkewedRequestVersionLoudly) {
  const auto servers = start_servers(1);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(servers[0]->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  timeval timeout{};
  timeout.tv_sec = 5;  // reads are bounded: a hang fails the test, loudly
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  ShardRequestFrame request;
  request.version = 2;  // several protocol generations behind
  request.total = 4;
  request.spec_text = "topology = chain\nsize = 8\nseed = 1\nalgorithm = fr\n";
  const std::vector<std::uint8_t> bytes = encode_frame(request);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  FrameParser parser;
  bool got_error = false;
  bool got_eof = false;
  std::uint8_t buffer[4096];
  while (!got_eof) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GE(n, 0) << "server went silent instead of refusing";
    if (n == 0) {
      got_eof = true;
      break;
    }
    parser.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = parser.next()) {
      ASSERT_EQ(frame->type, FrameType::kShardError);
      EXPECT_NE(frame->error.message.find("protocol version mismatch"), std::string::npos)
          << frame->error.message;
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(got_eof);  // refusal then close, not a wedged session
  ::close(fd);
}

TEST(MultiHostRunner, ServerRefusesThreadCountsAboveTheLimit) {
  // A request for a million worker threads.  The session runs on this
  // thread over a socketpair, so the test itself starts no thread; the
  // session must refuse by name before it sizes any pool.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  ShardRequestFrame request;
  request.total = 1;
  request.threads = 1'000'000;
  request.spec_text = "topology = chain\nsize = 8\nseed = 1\nalgorithm = fr\n";
  const std::vector<std::uint8_t> bytes = encode_frame(request);
  ASSERT_EQ(::send(fds[0], bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  const std::uint64_t pools_before = ThreadPool::total_constructed();
  std::atomic<bool> cancelled{false};
  EXPECT_FALSE(serve_shard_session(fds[1], 5'000, cancelled));
  EXPECT_EQ(ThreadPool::total_constructed(), pools_before);
  ::close(fds[1]);

  FrameParser parser;
  std::string refusal;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fds[0], buffer, sizeof(buffer), 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    parser.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = parser.next()) {
      ASSERT_EQ(frame->type, FrameType::kShardError);
      refusal = frame->error.message;
    }
  }
  ::close(fds[0]);
  EXPECT_NE(refusal.find("1000000"), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("limit is " + std::to_string(kMaxThreads)), std::string::npos)
      << refusal;
}

TEST(MultiHostRunner, ServerRefusesAClaimOutsideTheSweep) {
  // A valid session request for a one-run sweep, then a claim of runs
  // [0, 5): the session must refuse the claim by name, not index past
  // its expansion.  It runs on this thread over a socketpair.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  ShardRequestFrame request;
  request.total = 1;
  request.heartbeat_ms = 10'000;  // no beacon, and no liveness cancel, within the test
  request.liveness_timeout_ms = 10'000;
  request.spec_text = "topology = chain\nsize = 8\nseed = 1\nalgorithm = fr\n";
  ClaimFrame claim;
  claim.end = 5;
  std::vector<std::uint8_t> bytes = encode_frame(request);
  const std::vector<std::uint8_t> claim_bytes = encode_frame(claim);
  bytes.insert(bytes.end(), claim_bytes.begin(), claim_bytes.end());
  ASSERT_EQ(::send(fds[0], bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  std::atomic<bool> cancelled{false};
  EXPECT_FALSE(serve_shard_session(fds[1], 5'000, cancelled));
  ::close(fds[1]);

  FrameParser parser;
  std::vector<FrameType> types;
  std::string refusal;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fds[0], buffer, sizeof(buffer), 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    parser.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = parser.next()) {
      types.push_back(frame->type);
      if (frame->type == FrameType::kShardError) refusal = frame->error.message;
    }
  }
  ::close(fds[0]);
  EXPECT_EQ(types, std::vector<FrameType>{FrameType::kShardError});  // no hello, no record
  EXPECT_NE(refusal.find("claim range [0, 5) exceeds the sweep's 1 runs"), std::string::npos)
      << refusal;
}

TEST(MultiHostRunner, CoordinatorRejectsSkewedHelloLoudly) {
  // A fake "old worker" answers with a version-2 hello.  The coordinator
  // must classify the skew by name.
  HelloFrame hello;
  hello.version = 2;
  hello.begin = 0;
  hello.end = 24;
  const FakeWorker fake(encode_frame(hello));

  RunnerOptions options{.threads = 1};
  options.worker_retries = 0;  // one attempt: the skew itself must surface
  ShardCoordinator runner = make_shard_coordinator(options, {{"127.0.0.1", fake.port(), 1}});
  try {
    runner.run(small_sweep());
    FAIL() << "version skew must fail the sweep";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("protocol version mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("worker 2"), std::string::npos) << what;
  }
}

TEST(MultiHostRunner, CoordinatorRejectsRecordOfAnotherRun) {
  // A fake worker whose first record names the claim's first run but
  // carries the digest of its second: a worker that expanded the spec
  // differently.  The coordinator must refuse to merge it, by name.
  const SweepSpec sweep = small_sweep();
  const std::vector<RunSpec> runs = sweep.expand();
  const std::vector<std::size_t> order = workload_order(runs);
  HelloFrame hello;
  hello.begin = 0;
  hello.end = plan_claims(runs, 1)[0].end;
  RunRecord record;
  record.spec = runs[order[1]];
  std::vector<std::uint8_t> reply = encode_frame(hello);
  const std::vector<std::uint8_t> foreign = encode_frame(RecordFrame{order[0], record});
  reply.insert(reply.end(), foreign.begin(), foreign.end());
  const FakeWorker fake(reply);

  RunnerOptions options{.threads = 1};
  options.worker_retries = 0;
  ShardCoordinator runner = make_shard_coordinator(options, {{"127.0.0.1", fake.port(), 1}});
  try {
    runner.run(sweep);
    FAIL() << "a record of another run must fail the attempt";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    const std::string expected =
        "record #" + std::to_string(order[0]) + " carries a spec that differs";
    EXPECT_NE(what.find(expected), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Worker heartbeats: a run longer than the watchdog is not a dead worker
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, LongRunOutlivesTheWatchdogOnBothTransports) {
  // One run lasting several watchdog periods: only the worker's session
  // beacons keep the attempt alive, since no record flows until the run
  // ends.  It must complete on its first attempt over TCP and over a
  // worker process alike.
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain};
  sweep.sizes = {15'000};  // FR on the away chain: ~n^2/2 node steps, ~1 s
  sweep.algorithms = {AlgorithmKind::kFullReversal};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1};
  constexpr int kWatchdogMs = 250;
  const ScopedEnv watchdog("LR_TEST_WORKER_TIMEOUT_MS", std::to_string(kWatchdogMs));
  const auto started = std::chrono::steady_clock::now();
  const std::string expected = in_process_tables(sweep);
  // The test means nothing unless the run outlasts the watchdog.
  EXPECT_GT(std::chrono::steady_clock::now() - started, std::chrono::milliseconds(2 * kWatchdogMs));

  const auto servers = start_servers(1);
  for (const bool over_tcp : {true, false}) {
    ShardCoordinator runner = over_tcp
                                  ? make_shard_coordinator({.threads = 1}, hosts_of(servers, 1))
                                  : make_shard_coordinator({.threads = 1, .process_workers = 1}, {});
    EXPECT_EQ(tables_of(runner.run(sweep)), expected) << (over_tcp ? "tcp" : "process");
    ASSERT_EQ(runner.shard_diagnostics().size(), 1u);
    const ShardDiagnostics& diag = runner.shard_diagnostics()[0];
    EXPECT_EQ(diag.attempts, 1u) << (over_tcp ? "tcp" : "process");
    EXPECT_TRUE(diag.failures.empty()) << (diag.failures.empty() ? "" : diag.failures[0]);
  }
}

// ---------------------------------------------------------------------------
// Server refusals carry their cause to the coordinator's diagnostics
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, ServerRefusalNamesTheCauseInDiagnostics) {
  // A coordinator whose spec disagrees with its own advertised total:
  // stage it by driving the raw protocol (the runner itself can never
  // produce this, which is exactly why the server must refuse it).
  const auto servers = start_servers(1);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(servers[0]->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  ShardRequestFrame request;  // current version, wrong run-count claim
  request.total = 999;
  request.spec_text = "topology = chain\nsize = 8\nseed = 1\nalgorithm = fr\n";
  const std::vector<std::uint8_t> bytes = encode_frame(request);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  FrameParser parser;
  std::string refusal;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    parser.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = parser.next()) {
      ASSERT_EQ(frame->type, FrameType::kShardError);
      refusal = frame->error.message;
    }
  }
  ::close(fd);
  EXPECT_NE(refusal.find("expands to"), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("999"), std::string::npos) << refusal;
}

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "sweep-worker") {
    return lr::sweep_worker_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
