#include "runner/shard_server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_protocol.hpp"
#include "runner/shard_transport.hpp"

namespace lr {

namespace {

using Clock = std::chrono::steady_clock;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Abandons a session: further writes fail immediately and a blocked
/// peer observes a closed connection.  Safe from any thread.
void cancel_session(int fd, std::atomic<bool>& cancelled) {
  cancelled.store(true);
  ::shutdown(fd, SHUT_RDWR);
}

long long now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Per-connection state shared between the session's thread and the
/// server's stop() path.
struct ShardServer::Session {
  int fd = -1;
  std::atomic<bool> cancelled{false};  ///< serve_shard_session's cancel flag
  std::atomic<bool> done{false};       ///< session returned; the fd is the reaper's
  std::thread thread;
};

ShardServer::ShardServer(ShardServerOptions options) : options_(std::move(options)) {
  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* addresses = nullptr;
  const std::string port_text = std::to_string(options_.port);
  const int resolve =
      ::getaddrinfo(options_.bind_address.c_str(), port_text.c_str(), &hints, &addresses);
  if (resolve != 0) {
    throw std::runtime_error("ShardServer: cannot resolve bind address '" +
                             options_.bind_address + "': " + ::gai_strerror(resolve));
  }
  std::string last_error = "no addresses";
  for (struct addrinfo* address = addresses; address != nullptr; address = address->ai_next) {
    listen_fd_ =
        ::socket(address->ai_family, address->ai_socktype | SOCK_CLOEXEC, address->ai_protocol);
    if (listen_fd_ < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    if (::bind(listen_fd_, address->ai_addr, address->ai_addrlen) == 0 &&
        ::listen(listen_fd_, 64) == 0) {
      break;
    }
    last_error = std::string("bind/listen: ") + std::strerror(errno);
    close_fd(listen_fd_);
  }
  ::freeaddrinfo(addresses);
  if (listen_fd_ < 0) {
    throw std::runtime_error("ShardServer: cannot listen on " + options_.bind_address + ":" +
                             port_text + " (" + last_error + ")");
  }
  struct sockaddr_storage bound {};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound), &bound_len);
  if (bound.ss_family == AF_INET) {
    port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
  } else if (bound.ss_family == AF_INET6) {
    port_ = ntohs(reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
  } else {
    port_ = options_.port;
  }
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::start() {
  if (started_) return;
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ShardServer::stop() {
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fd(listen_fd_);
  std::vector<std::shared_ptr<Session>> sessions;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (const auto& session : sessions) cancel_session(session->fd, session->cancelled);
  for (const auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
    close_fd(session->fd);
  }
}

void ShardServer::accept_loop() {
  while (!stopping_.load()) {
    // Reap finished sessions so a long-lived daemon's fd/thread footprint
    // stays proportional to the in-flight load, not its history.  The
    // accept loop is the only closer besides stop(), and stop() only
    // closes after this loop has exited, so each fd closes exactly once.
    {
      const std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (std::size_t i = 0; i < sessions_.size();) {
        if (sessions_[i]->done.load()) {
          if (sessions_[i]->thread.joinable()) sessions_[i]->thread.join();
          close_fd(sessions_[i]->fd);
          sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++i;
      }
    }
    struct pollfd pfd {
      listen_fd_, POLLIN, 0
    };
    const int ready = ::poll(&pfd, 1, 100);
    if (stopping_.load()) break;
    if (ready <= 0) continue;
    // CLOEXEC: a worker process forked by a coordinator in this process
    // must not hold the connection open past the session.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto session = std::make_shared<Session>();
    session->fd = fd;
    {
      const std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions_.push_back(session);
    }
    session->thread = std::thread([this, session] {
      if (serve_shard_session(session->fd, options_.request_timeout_ms, session->cancelled)) {
        sessions_completed_.fetch_add(1);
      } else {
        sessions_failed_.fetch_add(1);
      }
      session->done.store(true);  // last: hands the fd to the reaper
    });
  }
}

bool serve_shard_session(int fd, int request_timeout_ms, std::atomic<bool>& cancelled) {
  // Records and beacons come from two threads; the mutex keeps frames
  // whole.  MSG_NOSIGNAL because the session may run in a process that
  // does not ignore SIGPIPE.  A failed write cancels the session.
  std::mutex write_mutex;
  const auto send_bytes = [&](const std::vector<std::uint8_t>& bytes) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + written, bytes.size() - written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        cancel_session(fd, cancelled);
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
    return true;
  };

  // ---- Phase 1: receive the session request, deadline-bounded. --------
  FrameParser parser;
  std::optional<Frame> request_frame;
  std::string refusal;
  const Clock::time_point request_deadline =
      Clock::now() + std::chrono::milliseconds(request_timeout_ms);
  while (!request_frame && refusal.empty() && !cancelled.load()) {
    const auto remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(request_deadline - Clock::now())
            .count();
    if (remaining_ms <= 0) {
      refusal = "no session request within " + std::to_string(request_timeout_ms) + " ms";
      break;
    }
    struct pollfd pfd {
      fd, POLLIN, 0
    };
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(remaining_ms, 200)));
    if (ready <= 0) continue;
    std::uint8_t buffer[65536];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n == 0) {
      refusal = "coordinator closed before sending a session request";
      break;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      refusal = std::string("recv: ") + std::strerror(errno);
      break;
    }
    try {
      parser.feed(buffer, static_cast<std::size_t>(n));
      if (auto frame = parser.next()) {
        if (frame->type != FrameType::kShardRequest) {
          refusal = "first frame must be a session request";
        } else {
          request_frame = std::move(frame);
        }
      }
    } catch (const ShardProtocolError& error) {
      refusal = std::string("malformed request stream: ") + error.what();
    }
  }

  // ---- Phase 2: validate, refusing loudly on any mismatch. ------------
  std::vector<RunSpec> runs;
  if (refusal.empty() && request_frame) {
    const ShardRequestFrame& request = request_frame->request;
    if (request.version != kShardProtocolVersion) {
      refusal = "protocol version mismatch (coordinator " + std::to_string(request.version) +
                ", worker " + std::to_string(kShardProtocolVersion) + ")";
    } else {
      try {
        runs = SweepSpec::parse_string(request.spec_text).expand();
      } catch (const std::exception& error) {
        refusal = std::string("cannot parse sweep spec: ") + error.what();
      }
      if (refusal.empty() && runs.size() != request.total) {
        refusal = "spec expands to " + std::to_string(runs.size()) +
                  " runs but coordinator expected " + std::to_string(request.total);
      }
      if (refusal.empty() && request.threads > kMaxThreads) {
        refusal = "request asks for " + std::to_string(request.threads) +
                  " worker threads; the limit is " + std::to_string(kMaxThreads);
      }
    }
  }
  if (!refusal.empty() || !request_frame) {
    if (!refusal.empty() && !cancelled.load()) {
      ShardErrorFrame error;
      error.message = refusal;
      send_bytes(encode_frame(error));
    }
    return false;
  }

  const ShardRequestFrame request = request_frame->request;
  const std::vector<std::size_t> order = workload_order(runs);

  // ---- Phase 3: serve claims as they arrive, under a liveness watchdog.
  const int heartbeat_ms = static_cast<int>(std::max<std::uint32_t>(request.heartbeat_ms, 1));
  const int liveness_ms =
      static_cast<int>(std::max<std::uint32_t>(request.liveness_timeout_ms, 1));
  std::atomic<long long> last_heard_ms{now_ms()};
  std::atomic<bool> finished{false};
  std::atomic<bool> busy{false};  // a claim is being served
  std::mutex claims_mutex;
  std::condition_variable claims_ready;
  std::deque<ClaimFrame> claims;  // guarded by claims_mutex
  bool closed = false;            // no claim can come any more; guarded by claims_mutex
  bool coordinator_closed = false;  // the coordinator ended the session; guarded likewise

  // Queues every buffered claim for the serving loop below; coordinator
  // beacons reset the liveness deadline.  Returns false on any other
  // frame.  The first call, on this thread, takes the first claim from
  // the bytes the request arrived with.
  const auto drain = [&]() -> bool {
    try {
      while (auto frame = parser.next()) {
        if (frame->type == FrameType::kClaim) {
          const std::lock_guard<std::mutex> lock(claims_mutex);
          claims.push_back(frame->claim);
          claims_ready.notify_one();
        } else if (frame->type != FrameType::kHeartbeat ||
                   frame->heartbeat.from_coordinator != 1) {
          return false;
        }
        last_heard_ms.store(now_ms());
      }
    } catch (const ShardProtocolError&) {
      return false;
    }
    return true;
  };
  const bool request_in_contract = drain();

  // The reader owns the read side from here: it drains what arrives;
  // silence past the liveness deadline, or a protocol error, cancels the
  // session so the serving loop unwinds at its next chunk boundary or
  // failed write.  EOF is the coordinator ending the session: clean
  // between claims, a cancel in the middle of one.  It also sends this
  // worker's own beacons, so a chunk that takes longer than the
  // coordinator's watchdog, or an idle wait for the next claim, does not
  // read as a dead worker.
  std::thread reader([&] {
    std::uint64_t beacon_sequence = 0;
    Clock::time_point next_beacon = Clock::now() + std::chrono::milliseconds(heartbeat_ms);
    bool eof = false;
    bool in_contract = request_in_contract;
    while (in_contract && !finished.load() && !cancelled.load()) {
      const Clock::time_point now = Clock::now();
      if (now_ms() - last_heard_ms.load() > liveness_ms) {
        in_contract = false;  // coordinator presumed dead or partitioned
        break;
      }
      if (now >= next_beacon) {
        HeartbeatFrame beacon;
        beacon.from_coordinator = 0;
        beacon.sequence = beacon_sequence++;
        if (!send_bytes(encode_frame(beacon))) break;
        next_beacon = now + std::chrono::milliseconds(heartbeat_ms);
      }
      const auto until_beacon =
          std::chrono::duration_cast<std::chrono::milliseconds>(next_beacon - now).count();
      struct pollfd pfd {
        fd, POLLIN, 0
      };
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::clamp<long long>(until_beacon, 1, 100)));
      if (ready <= 0) continue;
      std::uint8_t buffer[4096];
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n == 0) {
        eof = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        in_contract = false;
        break;
      }
      parser.feed(buffer, static_cast<std::size_t>(n));
      in_contract = drain();
    }
    // EOF in the middle of a claim, silence and protocol errors abandon
    // the claim being served; either way no claim follows.
    if (!in_contract || (eof && busy.load())) cancel_session(fd, cancelled);
    const std::lock_guard<std::mutex> lock(claims_mutex);
    closed = true;
    coordinator_closed = eof && !cancelled.load();  // not our own shutdown()
    claims_ready.notify_all();
  });

  // Shared-nothing execution of each claim's runs, in the workload order
  // it was cut from, with this session's one runner and a cache planned
  // on the claim and dropped with it, so the session holds at most
  // `threads` workloads at a time; chunked so records flow long before a
  // claim finishes.
  constexpr std::size_t kChunk = 16;
  const ScenarioRunner runner({.threads = static_cast<std::size_t>(request.threads)});
  std::size_t received = 0;
  std::size_t answered = 0;
  for (;;) {
    ClaimFrame claim;
    {
      std::unique_lock<std::mutex> lock(claims_mutex);
      claims_ready.wait(lock, [&] { return !claims.empty() || closed; });
      if (closed || cancelled.load()) break;
      claim = claims.front();
      claims.pop_front();
      busy.store(true);
    }
    ++received;
    if (claim.begin > claim.end || claim.end > runs.size()) {
      ShardErrorFrame error;
      error.message = "claim range [" + std::to_string(claim.begin) + ", " +
                      std::to_string(claim.end) + ") exceeds the sweep's " +
                      std::to_string(runs.size()) + " runs";
      send_bytes(encode_frame(error));
      cancel_session(fd, cancelled);
      break;
    }
    HelloFrame hello;
    hello.shard = claim.shard;
    hello.begin = claim.begin;
    hello.end = claim.end;
    hello.attempt = claim.attempt;
    send_bytes(encode_frame(hello));

    std::vector<RunSpec> claimed;
    for (std::uint64_t position = claim.begin; position < claim.end; ++position) {
      claimed.push_back(runs[order[position]]);
    }
    SweepCache cache(claimed, request.snapshot_dir);
    std::size_t emitted = 0;
    for (std::size_t offset = 0; offset < claimed.size() && !cancelled.load();
         offset += kChunk) {
      const std::size_t stop = std::min(offset + kChunk, claimed.size());
      const std::vector<RunSpec> slice(claimed.begin() + static_cast<std::ptrdiff_t>(offset),
                                       claimed.begin() + static_cast<std::ptrdiff_t>(stop));
      const std::vector<RunRecord> records = runner.run_all(slice, cache);
      for (std::size_t i = 0; i < records.size() && !cancelled.load(); ++i) {
        const std::uint64_t index = order[claim.begin + offset + i];
        if (send_bytes(encode_frame(RecordFrame{index, records[i]}))) ++emitted;
      }
    }
    if (emitted == claimed.size() && !cancelled.load()) {
      ShardDoneFrame done;
      done.records_emitted = emitted;
      done.cache = cache.stats();
      if (send_bytes(encode_frame(done))) ++answered;
    }
    busy.store(false);
  }
  // Shutting the read side wakes the reader from its poll at once, so a
  // worker process exits without waiting for its next beacon slot.
  finished.store(true);
  ::shutdown(fd, SHUT_RD);
  reader.join();
  return coordinator_closed && answered == received;
}

// ---------------------------------------------------------------------------
// shard-server subcommand
// ---------------------------------------------------------------------------

namespace {

int server_argv_error(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: lr_cli shard-server --listen <port> [--bind <address>]\n"
               "Serves sweep shards to a remote `lr_cli sweep --hosts` coordinator over the\n"
               "shard protocol; binds 127.0.0.1 unless --bind says otherwise.\n",
               why.c_str());
  return 2;
}

int worker_argv_error(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\n"
               "sweep-worker is an internal subcommand: a sharded sweep spawns it with one\n"
               "end of a socketpair as stdin and stdout, and speaks the binary shard protocol\n"
               "over it.  To run a multi-process sweep, use: lr_cli sweep <spec> --processes N\n",
               why.c_str());
  return 2;
}

}  // namespace

int sweep_worker_main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "sweep-worker") != 0) {
    return worker_argv_error("sweep-worker takes no arguments");
  }
  if (std::getenv("LR_SWEEP_WORKER") == nullptr) {
    return worker_argv_error(
        "direct invocation rejected: sweep-worker serves a coordinator over its stdin");
  }
  std::atomic<bool> cancelled{false};
  return serve_shard_session(STDIN_FILENO, ShardServerOptions{}.request_timeout_ms, cancelled)
             ? 0
             : 1;
}

int shard_server_main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "shard-server") != 0) {
    return server_argv_error("shard_server_main invoked without the shard-server subcommand");
  }
  ShardServerOptions options;
  bool listen_seen = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return server_argv_error("flag '" + flag + "' is missing its value");
    const std::string value = argv[++i];
    if (flag == "--bind") {
      if (value.empty()) return server_argv_error("--bind needs a non-empty address");
      options.bind_address = value;
    } else if (flag == "--listen") {
      char* end = nullptr;
      const unsigned long port = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || port == 0 || port > 65535) {
        return server_argv_error("--listen needs a port in 1..65535, got '" + value + "'");
      }
      options.port = static_cast<std::uint16_t>(port);
      listen_seen = true;
    } else {
      return server_argv_error("unknown flag '" + flag + "'");
    }
  }
  if (!listen_seen) return server_argv_error("--listen <port> is required");

  // Serve until SIGINT/SIGTERM; the mask is installed before the server
  // threads spawn so they inherit it and sigwait below is race-free.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  try {
    ShardServer server(options);
    server.start();
    std::printf("shard-server listening on %s:%u\n", options.bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    int signal_number = 0;
    ::sigwait(&signals, &signal_number);
    server.stop();
    std::fprintf(stderr, "shard-server: shutting down (signal %d), served %llu session(s)\n",
                 signal_number,
                 static_cast<unsigned long long>(server.sessions_completed()));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}

}  // namespace lr
