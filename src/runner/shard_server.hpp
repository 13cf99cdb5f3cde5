#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

/// \file shard_server.hpp
/// The worker side of the sharded sweep dataplane: one worker session,
/// served over a connected stream socket, and the two ways a coordinator
/// (runner/shard_coordinator.hpp) reaches it.  A `shard-server` daemon
/// serves one session per accepted TCP connection (TcpShardTransport); a
/// `sweep-worker` child serves one session on the socketpair end it
/// inherits as stdin and stdout (ProcessShardTransport).
///
/// Session contract: the coordinator opens with one kShardRequest; the
/// worker validates it (protocol version, parseable spec, run-count
/// cross-check, at most kMaxThreads threads) and either answers with a
/// single loud kShardError and ends, or expands the spec once and serves
/// the kClaim frames that follow, one at a time, for as long as the
/// coordinator keeps the session open.  Each claim is answered with a
/// kHello, its runs executed in workload order with the session's one
/// ScenarioRunner and a SweepCache planned on the claim (dropped when the
/// claim ends), in chunks, streamed as kRecord frames, then a kShardDone;
/// a claim whose range lies outside the sweep is refused with a
/// kShardError.  The coordinator's EOF after the last claim ends the
/// session.  A reader thread queues the claims, reads the coordinator's
/// beacons and sends the worker's own, so neither a long-running chunk
/// nor an idle wait looks like a dead worker; a coordinator silent past
/// the request's liveness timeout — or a connection closed mid-claim —
/// makes the worker abandon the session, so an orphaned worker never
/// computes for a dead coordinator.  Every wait is deadline-bounded: no
/// peer behavior can hang a session.
///
/// ShardServer is embeddable (tests and benches run real TCP sessions
/// in-process, no daemon needed); `shard_server_main` wraps it as the
/// `lr_cli shard-server --listen <port>` subcommand.

namespace lr {

/// Serves one worker session (see the file comment) on the connected
/// stream socket `fd`, which stays open for the caller to close.
/// `request_timeout_ms` bounds the wait for the coordinator's request.
/// Setting `cancelled` and shutting `fd` down abandons the session from
/// any thread; the session does the same itself when the coordinator
/// goes silent or away.  Returns true when the coordinator ended the
/// session with every claim it sent answered by a shard-done frame.
bool serve_shard_session(int fd, int request_timeout_ms, std::atomic<bool>& cancelled);

/// Configuration of a ShardServer.
struct ShardServerOptions {
  /// Address to bind; the default serves loopback only (the multi-host
  /// smoke deployments); daemons meant for real remote coordinators
  /// bind 0.0.0.0 explicitly.
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  std::uint16_t port = 0;

  /// Budget for a connected coordinator to deliver its session request
  /// (kShardRequest) before the connection is dropped.
  int request_timeout_ms = 10'000;
};

/// A running shard server: binds in the constructor (so the port is
/// known immediately), serves after start(), drains after stop().
class ShardServer {
 public:
  /// Binds and listens; throws std::runtime_error when the address or
  /// port cannot be bound.
  explicit ShardServer(ShardServerOptions options = {});

  /// Stops and joins everything still running.
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// The bound port (the realized one when options asked for 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Starts accepting connections (idempotent).
  void start();

  /// Stops accepting, cancels every in-flight session (their
  /// coordinators observe a dropped connection and retry elsewhere —
  /// this is how tests stage whole-host death), and joins all threads.
  /// Idempotent.
  void stop();

  /// Sessions that ended cleanly (the coordinator closed them with every
  /// claim answered) since construction.
  std::uint64_t sessions_completed() const noexcept { return sessions_completed_.load(); }

  /// Sessions that ended any other way: refused requests, protocol
  /// errors, dead coordinators, cancellation by stop().
  std::uint64_t sessions_failed() const noexcept { return sessions_failed_.load(); }

 private:
  struct Session;

  void accept_loop();

  ShardServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread accept_thread_;
  std::mutex sessions_mutex_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::atomic<std::uint64_t> sessions_completed_{0};
  std::atomic<std::uint64_t> sessions_failed_{0};
};

/// Entry point of the internal `sweep-worker` subcommand: serves one
/// worker session on stdin/stdout, which ProcessShardTransport connects to
/// one end of a socketpair.  Returns the process exit code (0 when the
/// session ended cleanly).  Refuses to run (exit 2, clear stderr message) when
/// given arguments or unless the LR_SWEEP_WORKER environment variable
/// marks the invocation as coming from a coordinator — humans get pointed
/// at `lr_cli sweep --processes N` instead.
int sweep_worker_main(int argc, char** argv);

/// Entry point of the `shard-server` subcommand: parses
/// `shard-server --listen <port> [--bind <address>]`, prints one
/// "shard-server listening on <address>:<port>" line to stdout (the
/// ready signal deployment scripts wait for), and serves until SIGINT
/// or SIGTERM.  Returns the process exit code (2 with a usage message
/// on bad arguments, matching the CLI's validation convention).
int shard_server_main(int argc, char** argv);

}  // namespace lr
