#include "runner/shard_transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace lr {

std::vector<std::size_t> workload_order(const std::vector<RunSpec>& runs) {
  std::vector<std::size_t> order;
  order.reserve(runs.size());
  for (const std::vector<std::size_t>& group : group_by_workload(runs)) {
    order.insert(order.end(), group.begin(), group.end());
  }
  return order;
}

std::vector<ShardRange> shard_ranges(std::size_t runs, std::size_t parts) {
  std::vector<ShardRange> ranges;
  if (runs == 0 || parts == 0) return ranges;
  parts = std::min(parts, runs);
  ranges.reserve(parts);
  const std::size_t base = runs / parts;
  const std::size_t extra = runs % parts;  // first `extra` ranges take one more
  std::size_t begin = 0;
  for (std::size_t part = 0; part < parts; ++part) {
    const std::size_t size = base + (part < extra ? 1 : 0);
    ranges.push_back({begin, begin + size});
    begin += size;
  }
  return ranges;
}

std::vector<ShardRange> plan_claims(const std::vector<RunSpec>& runs, std::size_t lanes) {
  if (lanes == 0) return {};
  const std::vector<std::vector<std::size_t>> workloads = group_by_workload(runs);
  if (workloads.size() < lanes) return shard_ranges(runs.size(), lanes);
  std::vector<ShardRange> claims;
  std::size_t begin = 0;
  std::size_t next = 0;  // first workload not yet claimed
  while (next < workloads.size()) {
    const std::size_t remaining = runs.size() - begin;
    const std::size_t target = (remaining + 2 * lanes - 1) / (2 * lanes);
    std::size_t end = begin;
    while (next < workloads.size() && end - begin < target) end += workloads[next++].size();
    claims.push_back({begin, end});
    begin = end;
  }
  return claims;
}

namespace {

using Clock = std::chrono::steady_clock;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Human-readable cause of a child's wait status.
std::string describe_status(int status) {
  if (WIFEXITED(status)) return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "killed by signal " + std::to_string(sig) + (name ? std::string(" (") + name + ")" : "");
  }
  return "unknown wait status " + std::to_string(status);
}

/// The running binary's path: the worker command, so any binary that
/// forwards `sweep-worker` argv to sweep_worker_main() self-hosts its
/// workers.
std::string self_executable_path() {
  char buffer[4096];
  const ssize_t length = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (length <= 0) throw std::runtime_error("ProcessShardTransport: cannot resolve /proc/self/exe");
  buffer[length] = '\0';
  return buffer;
}

/// Writes `bytes` to a nonblocking socket, polling for writability until
/// `deadline`.  MSG_NOSIGNAL: a dead peer is an EPIPE failure of this
/// attempt, never a SIGPIPE for the whole sweep.  Returns 0 on success,
/// else the errno of the failure (ETIMEDOUT past the deadline).
int send_all(int fd, const std::vector<std::uint8_t>& bytes, Clock::time_point deadline) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written, bytes.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return errno;
    const auto remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (remaining_ms <= 0) return ETIMEDOUT;
    struct pollfd pfd {
      fd, POLLOUT, 0
    };
    if (::poll(&pfd, 1, static_cast<int>(std::min<long long>(remaining_ms, 1000))) < 0 &&
        errno != EINTR) {
      return errno;
    }
  }
  return 0;
}

/// The one channel: a nonblocking stream socket to a worker session —
/// a TCP connection to a shard-server, or a socketpair end whose other
/// end the `sweep-worker` child `child` holds (child <= 0: no child).
class SocketShardChannel final : public ShardChannel {
 public:
  SocketShardChannel(int fd, pid_t child) : fd_(fd), child_(child) {}
  ~SocketShardChannel() override {
    if (!completed_) abort();
    if (child_ > 0) reap();  // a completed session's worker exits on the EOF
  }

  int poll_fd() const noexcept override { return fd_; }

  ChannelRead read_some(std::uint8_t* buffer, std::size_t capacity) override {
    for (;;) {
      const ssize_t n = ::read(fd_, buffer, capacity);
      if (n > 0) return {ChannelRead::Kind::kData, static_cast<std::size_t>(n), {}};
      if (n == 0) return {ChannelRead::Kind::kEof, 0, {}};
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return {ChannelRead::Kind::kWouldBlock, 0, {}};
      return {ChannelRead::Kind::kError, 0, std::string("read error: ") + std::strerror(errno)};
    }
  }

  std::string send(const std::vector<std::uint8_t>& frame) override {
    if (fd_ < 0) return "connection already closed";
    // Claims and beacons are tiny, and the session reads them as they
    // come; if the socket cannot absorb one within a second the worker is
    // effectively dead.  A peer that closed its end is left to the read
    // side, which reports the frames it sent before closing and then EOF.
    const int error = send_all(fd_, frame, Clock::now() + std::chrono::milliseconds(1000));
    if (error == 0 || error == EPIPE || error == ECONNRESET) return {};
    return std::string("send to worker failed (") + std::strerror(error) + ")";
  }

  std::string abort() override {
    const bool was_open = fd_ >= 0;
    close_fd(fd_);
    if (child_ > 0) {
      ::kill(child_, SIGKILL);
      return reap();
    }
    return was_open ? "connection closed by coordinator" : "not connected";
  }

  void complete() override {
    close_fd(fd_);  // the worker's session sees EOF and exits
    completed_ = true;
  }

 private:
  std::string reap() {
    int status = 0;
    ::waitpid(child_, &status, 0);
    child_ = -1;
    return describe_status(status);
  }

  int fd_;
  pid_t child_;
  bool completed_ = false;
};

/// Ships `request` and `first_claim` over a freshly connected channel;
/// the channel on success, else the failure (the channel is aborted).
ShardStart ship_request(std::unique_ptr<SocketShardChannel> channel,
                        const ShardRequestFrame& request, const ClaimFrame& first_claim,
                        Clock::time_point deadline, const std::string& endpoint) {
  ShardStart result;
  std::vector<std::uint8_t> bytes = encode_frame(request);
  const std::vector<std::uint8_t> claim = encode_frame(first_claim);
  bytes.insert(bytes.end(), claim.begin(), claim.end());
  const int error = send_all(channel->poll_fd(), bytes, deadline);
  if (error != 0) {
    result.error = endpoint + ": failed shipping session request (" + std::strerror(error) +
                   ", " + channel->abort() + ")";
    return result;
  }
  result.channel = std::move(channel);
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProcessShardTransport
// ---------------------------------------------------------------------------

ProcessShardTransport::ProcessShardTransport(std::size_t workers) : workers_(workers) {
  if (workers_ == 0) {
    throw std::invalid_argument("ProcessShardTransport: workers must be >= 1");
  }
}

ShardStart ProcessShardTransport::start(const ShardRequestFrame& request,
                                        const ClaimFrame& first_claim, int start_timeout_ms) {
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(start_timeout_ms);
  ShardStart result;
  // Everything the child needs is built before fork(): until execve the
  // child of a multithreaded coordinator may only make async-signal-safe
  // calls.  LR_SWEEP_WORKER marks the invocation as coming from here.
  const std::string command = self_executable_path();
  const char* argv[] = {command.c_str(), "sweep-worker", nullptr};
  std::vector<const char*> envp;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "LR_SWEEP_WORKER=", 16) != 0) envp.push_back(*entry);
  }
  envp.push_back("LR_SWEEP_WORKER=1");
  envp.push_back(nullptr);

  // CLOEXEC on both ends: no other worker may inherit this pair, or the
  // child would not see EOF when the coordinator closes its end.
  int ends[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0) {
    result.error = std::string("socketpair() failed: ") + std::strerror(errno);
    return result;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    result.error = std::string("fork() failed: ") + std::strerror(errno);
    close_fd(ends[0]);
    close_fd(ends[1]);
    return result;
  }
  if (pid == 0) {
    // Child: the session socket on stdin and stdout (dup2 clears
    // CLOEXEC); stderr passes through so worker messages surface.
    ::dup2(ends[1], STDIN_FILENO);
    ::dup2(ends[1], STDOUT_FILENO);
    ::execve(command.c_str(), const_cast<char**>(argv), const_cast<char**>(envp.data()));
    constexpr char kExecFailed[] = "error: cannot exec sweep worker\n";
    (void)!::write(STDERR_FILENO, kExecFailed, sizeof(kExecFailed) - 1);
    ::_exit(127);
  }
  close_fd(ends[1]);
  ::fcntl(ends[0], F_SETFL, O_NONBLOCK);
  return ship_request(std::make_unique<SocketShardChannel>(ends[0], pid), request, first_claim,
                      deadline, endpoint_);
}

// ---------------------------------------------------------------------------
// TcpShardTransport
// ---------------------------------------------------------------------------

TcpShardTransport::TcpShardTransport(std::string host, std::uint16_t port, std::size_t workers)
    : host_(std::move(host)), port_(port), workers_(workers) {
  if (workers_ == 0) {
    throw std::invalid_argument("TcpShardTransport: workers must be >= 1");
  }
  if (port_ == 0) {
    throw std::invalid_argument("TcpShardTransport: port must be 1..65535");
  }
  endpoint_ = host_ + ":" + std::to_string(port_);
}

ShardStart TcpShardTransport::start(const ShardRequestFrame& request,
                                    const ClaimFrame& first_claim, int start_timeout_ms) {
  ShardStart result;
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(start_timeout_ms);

  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* addresses = nullptr;
  const std::string port_text = std::to_string(port_);
  const int resolve = ::getaddrinfo(host_.c_str(), port_text.c_str(), &hints, &addresses);
  if (resolve != 0) {
    result.error = endpoint_ + ": cannot resolve host (" + ::gai_strerror(resolve) + ")";
    return result;
  }

  int fd = -1;
  std::string last_error = "no addresses";
  for (struct addrinfo* address = addresses; address != nullptr; address = address->ai_next) {
    fd = ::socket(address->ai_family, address->ai_socktype | SOCK_CLOEXEC, address->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    if (::connect(fd, address->ai_addr, address->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS) {
      // Nonblocking connect: poll for writability, then read SO_ERROR —
      // a refused or timed-out connection is a returned failure the
      // coordinator can charge and retry elsewhere, never a hang.
      const auto remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
      struct pollfd pfd {
        fd, POLLOUT, 0
      };
      const int ready = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(remaining_ms, 0)));
      int so_error = ETIMEDOUT;
      socklen_t so_len = sizeof(so_error);
      if (ready > 0) ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len);
      if (ready > 0 && so_error == 0) break;
      last_error = std::string("connect: ") + std::strerror(so_error);
    } else {
      last_error = std::string("connect: ") + std::strerror(errno);
    }
    close_fd(fd);
  }
  ::freeaddrinfo(addresses);
  if (fd < 0) {
    result.error = endpoint_ + ": " + last_error;
    return result;
  }

  // Records are small and latency-sensitive relative to the watchdogs;
  // don't let Nagle batch them against delayed ACKs.
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return ship_request(std::make_unique<SocketShardChannel>(fd, -1), request, first_claim,
                      deadline, endpoint_);
}

// ---------------------------------------------------------------------------
// Host-list parsing
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void bad_host_entry(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("bad --hosts entry '" + entry + "': " + why +
                              " (want host:port[*workers])");
}

/// Strict non-negative integer parse; returns false on empty input,
/// non-digits, or overflow past `max`.
bool parse_uint(const std::string& text, std::uint64_t max, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > max) return false;
  }
  out = value;
  return true;
}

}  // namespace

std::vector<HostSpec> parse_host_list(const std::string& text) {
  std::vector<HostSpec> hosts;
  std::size_t position = 0;
  while (position <= text.size()) {
    const std::size_t comma = text.find(',', position);
    const std::string entry =
        text.substr(position, comma == std::string::npos ? std::string::npos : comma - position);
    position = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (entry.empty()) bad_host_entry(entry, "empty entry");

    std::string body = entry;
    std::uint64_t workers = 1;
    const std::size_t star = body.find('*');
    if (star != std::string::npos) {
      const std::string workers_text = body.substr(star + 1);
      if (!parse_uint(workers_text, 1024, workers) || workers == 0) {
        bad_host_entry(entry, "worker count must be an integer in 1..1024");
      }
      body.resize(star);
    }
    const std::size_t colon = body.rfind(':');
    if (colon == std::string::npos) bad_host_entry(entry, "missing ':port'");
    const std::string host = body.substr(0, colon);
    if (host.empty()) bad_host_entry(entry, "empty host");
    std::uint64_t port = 0;
    if (!parse_uint(body.substr(colon + 1), 65535, port) || port == 0) {
      bad_host_entry(entry, "port must be an integer in 1..65535");
    }
    hosts.push_back({host, static_cast<std::uint16_t>(port), static_cast<std::size_t>(workers)});
  }
  if (hosts.empty()) throw std::invalid_argument("--hosts list is empty");
  return hosts;
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TransportFault parse_transport_fault(const std::string& text) {
  const auto bad = [&](const std::string& why) -> TransportFault {
    throw std::invalid_argument("bad transport fault '" + text + "': " + why +
                                " (want kind:shard[:attempts[:at_byte]], kind in "
                                "connect|drop|corrupt|hbstall|delay)");
  };
  std::vector<std::string> fields;
  for (std::size_t begin = 0;;) {
    const std::size_t colon = text.find(':', begin);
    fields.push_back(text.substr(begin, colon == std::string::npos ? colon : colon - begin));
    if (colon == std::string::npos) break;
    begin = colon + 1;
  }
  if (fields.size() < 2) return bad("missing ':shard'");
  if (fields.size() > 4) return bad("too many fields");
  const std::string& kind_token = fields[0];
  std::uint64_t shard = 0;
  if (!parse_uint(fields[1], 1u << 20, shard)) return bad("shard must be a non-negative integer");
  std::uint64_t attempts = 1;
  if (fields.size() > 2 && (!parse_uint(fields[2], 1u << 20, attempts) || attempts == 0)) {
    return bad("attempts must be a positive integer");
  }
  std::uint64_t at_byte = TransportFault{}.at_byte;
  if (fields.size() > 3 && !parse_uint(fields[3], 1u << 30, at_byte)) {
    return bad("at_byte must be a non-negative integer");
  }

  TransportFault fault;
  if (kind_token == "connect") {
    fault.kind = TransportFault::Kind::kConnectRefuse;
  } else if (kind_token == "drop") {
    fault.kind = TransportFault::Kind::kDrop;
  } else if (kind_token == "corrupt") {
    fault.kind = TransportFault::Kind::kCorrupt;
  } else if (kind_token == "hbstall") {
    fault.kind = TransportFault::Kind::kHeartbeatStall;
  } else if (kind_token == "delay") {
    fault.kind = TransportFault::Kind::kDelay;
  } else {
    return bad("unknown kind '" + kind_token + "'");
  }
  fault.shard = static_cast<std::size_t>(shard);
  fault.attempts = static_cast<std::size_t>(attempts);
  fault.at_byte = static_cast<std::size_t>(at_byte);
  return fault;
}

namespace {

/// Channel decorator applying one armed TransportFault to the byte
/// stream of the session it wraps.
class FaultyChannel final : public ShardChannel {
 public:
  FaultyChannel(std::unique_ptr<ShardChannel> inner, TransportFault fault)
      : inner_(std::move(inner)), fault_(fault) {
    if (fault_.kind == TransportFault::Kind::kHeartbeatStall) {
      // A never-readable fd the coordinator can park its poll() on once
      // the stream goes silent, so the watchdog fires on schedule
      // instead of the loop spinning hot.
      if (::pipe2(stall_pipe_, O_CLOEXEC) != 0) stall_pipe_[0] = stall_pipe_[1] = -1;
    }
  }

  ~FaultyChannel() override {
    close_fd(stall_pipe_[0]);
    close_fd(stall_pipe_[1]);
  }

  int poll_fd() const noexcept override {
    if (tripped_ && fault_.kind == TransportFault::Kind::kHeartbeatStall && stall_pipe_[0] >= 0) {
      return stall_pipe_[0];
    }
    return inner_->poll_fd();
  }

  ChannelRead read_some(std::uint8_t* buffer, std::size_t capacity) override {
    switch (fault_.kind) {
      case TransportFault::Kind::kDrop: {
        if (tripped_) {
          inner_->abort();
          return {ChannelRead::Kind::kEof, 0, {}};
        }
        ChannelRead read = inner_->read_some(buffer, capacity);
        if (read.kind == ChannelRead::Kind::kData) {
          if (seen_ + read.bytes >= fault_.at_byte) {
            // Deliver only up to the cut so the stream dies mid-frame.
            read.bytes = fault_.at_byte > seen_ ? fault_.at_byte - seen_ : 0;
            tripped_ = true;
            if (read.bytes == 0) {
              inner_->abort();
              return {ChannelRead::Kind::kEof, 0, {}};
            }
          }
          seen_ += read.bytes;
        }
        return read;
      }
      case TransportFault::Kind::kCorrupt: {
        ChannelRead read = inner_->read_some(buffer, capacity);
        if (read.kind == ChannelRead::Kind::kData) {
          if (!tripped_ && seen_ <= fault_.at_byte && fault_.at_byte < seen_ + read.bytes) {
            buffer[fault_.at_byte - seen_] ^= 0x20;  // one flipped bit; checksum must catch it
            tripped_ = true;
          }
          seen_ += read.bytes;
        }
        return read;
      }
      case TransportFault::Kind::kHeartbeatStall: {
        if (tripped_) return {ChannelRead::Kind::kWouldBlock, 0, {}};
        ChannelRead read = inner_->read_some(buffer, capacity);
        if (read.kind == ChannelRead::Kind::kData) {
          if (seen_ + read.bytes >= fault_.at_byte) {
            const std::size_t deliver = fault_.at_byte > seen_ ? fault_.at_byte - seen_ : 0;
            tripped_ = true;  // stream goes silent from here; watchdog must fire
            seen_ += deliver;
            if (deliver == 0) return {ChannelRead::Kind::kWouldBlock, 0, {}};
            read.bytes = deliver;
            return read;
          }
          seen_ += read.bytes;
        }
        return read;
      }
      case TransportFault::Kind::kDelay: {
        // Trickle: tiny reads with a per-read pause, modeling a slow
        // link.  The claims still complete, just late.
        std::this_thread::sleep_for(std::chrono::milliseconds(fault_.delay_ms));
        ChannelRead read = inner_->read_some(buffer, std::min<std::size_t>(capacity, 64));
        if (read.kind == ChannelRead::Kind::kData) seen_ += read.bytes;
        return read;
      }
      case TransportFault::Kind::kConnectRefuse:
      case TransportFault::Kind::kNone:
        break;
    }
    return inner_->read_some(buffer, capacity);
  }

  std::string send(const std::vector<std::uint8_t>& frame) override {
    // Beacons keep flowing during a receive stall — the fault models a
    // one-directional partition, the harder case for the watchdog.
    return inner_->send(frame);
  }

  std::string abort() override { return inner_->abort(); }
  void complete() override { inner_->complete(); }

 private:
  std::unique_ptr<ShardChannel> inner_;
  TransportFault fault_;
  std::size_t seen_ = 0;   ///< bytes delivered to the coordinator so far
  bool tripped_ = false;   ///< the fault has fired
  int stall_pipe_[2] = {-1, -1};
};

}  // namespace

FaultyTransport::FaultyTransport(std::shared_ptr<ShardTransport> inner, TransportFault fault)
    : inner_(std::move(inner)), fault_(fault) {}

ShardStart FaultyTransport::start(const ShardRequestFrame& request,
                                  const ClaimFrame& first_claim, int start_timeout_ms) {
  const bool armed = fault_.kind != TransportFault::Kind::kNone &&
                     first_claim.shard == fault_.shard && first_claim.attempt < fault_.attempts;
  if (armed && fault_.kind == TransportFault::Kind::kConnectRefuse) {
    ShardStart refused;
    refused.error = endpoint() + ": connect: Connection refused (injected fault)";
    return refused;
  }
  ShardStart started = inner_->start(request, first_claim, start_timeout_ms);
  if (armed && started.channel != nullptr) {
    started.channel = std::make_unique<FaultyChannel>(std::move(started.channel), fault_);
  }
  return started;
}

}  // namespace lr
