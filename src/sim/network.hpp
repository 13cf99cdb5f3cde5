#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "sim/event_queue.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time_index.hpp"

/// \file network.hpp
/// A simulated asynchronous message-passing network over a fixed topology
/// graph: point-to-point messages with random per-message delays, link
/// up/down churn, and per-node delivery handlers.
///
/// This is the substitute substrate for the mobile ad-hoc networks that
/// motivate link reversal routing (Gafni–Bertsekas's "frequently changing
/// topology"; docs/ARCHITECTURE.md, sim layer): the algorithms only
/// require eventual delivery on up links, which the simulator provides.
///
/// Hot-path layout (docs/PERFORMANCE.md): adjacency checks run over the
/// network's `CsrGraph` (shared with the sweep cache when available, and
/// read by the protocols built over the network), and
/// every in-flight message lives in a pooled slot whose payload vector is
/// recycled — combined with the pooled `EventQueue`, a warmed-up simulation
/// sends, delivers, and re-sends messages with zero heap allocation.

namespace lr {

class ShardedEventLoop;
class ThreadPool;

/// An application message.  The payload layout is protocol-defined (the
/// distributed link-reversal protocol ships heights as int64 tuples).
struct NetMessage {
  NodeId from = kNoNode;              ///< sending node
  NodeId to = kNoNode;                ///< receiving node
  std::vector<std::int64_t> payload;  ///< protocol-defined words
};

/// Delay, seed, and failure-injection knobs of a simulated network.
struct NetworkConfig {
  SimTime min_delay = 1;   ///< per-message delay lower bound (ticks)
  SimTime max_delay = 10;  ///< per-message delay upper bound (ticks)
  std::uint64_t seed = 1;  ///< RNG seed for delays and failures

  /// Failure injection: each message is independently dropped with this
  /// probability (in addition to down-link drops), and delivered twice with
  /// `duplicate_probability` (modeling link-layer retransmit duplicates).
  /// Protocols must tolerate both; see DistLinkReversal's monotone-height
  /// filter and resync rounds.
  double drop_probability = 0.0;
  /// See `drop_probability`.
  double duplicate_probability = 0.0;

  /// Time-index backend of the event core (heap or timing wheel,
  /// time_index.hpp).  Purely a performance switch: delivery order,
  /// counters, and quiescence times are byte-identical across backends.
  EventSchedulerKind scheduler = EventSchedulerKind::kHeap;

  /// Event-loop worker count: 1 (default) drives the serial EventQueue;
  /// 0 means hardware concurrency; N > 1 runs the sharded per-node event
  /// lanes (sharded_loop.hpp) on N workers.  Also purely a performance
  /// switch — the sharded loop's deterministic merge reproduces the serial
  /// queue's delivery order, RNG stream, and counters byte-for-byte at
  /// every worker count.  Sharded mode drives protocol messages only;
  /// application events co-scheduled through queue() (e.g. DistRouter's
  /// packet hops) are unsupported there and rejected by run_until_idle.
  std::size_t sim_threads = 1;

  /// Optional borrowed worker pool for sharded mode (its size overrides
  /// `sim_threads`); nullptr makes the network own a pool.  Borrowing lets
  /// a sweep reuse one pool across runs (runner.hpp's per-worker cache).
  ThreadPool* sim_pool = nullptr;
};

/// The simulated asynchronous network: messages, delays, churn, handlers.
class Network {
 public:
  /// Per-node delivery callback.  The referenced message is valid only for
  /// the duration of the call (its slot is recycled afterwards).
  using Handler = std::function<void(const NetMessage&)>;

  /// Builds the network over `g`, which must outlive it, and freezes `g`
  /// once into the `CsrGraph` its adjacency lookups (and the protocols
  /// built over it) read.
  Network(const Graph& g, NetworkConfig config);

  /// Same, but shares `frozen` — a CSR snapshot of `g` (e.g. the sweep
  /// cache's) — instead of freezing `g` again.  `frozen` must match `g`'s
  /// node and edge counts (else std::invalid_argument); only its
  /// adjacency is read, so its initial orientation is irrelevant.
  Network(const Graph& g, NetworkConfig config, const CsrGraph& frozen);

  /// Handlers and in-flight events capture `this`; copying or moving would
  /// dangle them, so both are disabled.
  Network(const Network&) = delete;
  /// \copydoc Network(const Network&)
  Network& operator=(const Network&) = delete;

  /// Out-of-line so the sharded loop can be an incomplete type here.
  ~Network();

  /// The topology graph the network was built over.
  const Graph& graph() const noexcept { return *graph_; }

  /// The frozen adjacency of `graph()` (positions, neighbours, edge ids)
  /// — the one CSR the protocols over this network read.
  const CsrGraph& csr() const noexcept { return csr_; }

  /// The underlying event queue (for co-scheduling application events;
  /// serial mode only — see NetworkConfig::sim_threads).
  EventQueue& queue() noexcept { return queue_; }

  /// Current simulated time.
  SimTime now() const noexcept;

  /// Installs the delivery callback of node `u`.
  void set_handler(NodeId u, Handler handler) { handlers_[u] = std::move(handler); }

  /// Sends `payload` from `from` to adjacent node `to`.  The message is
  /// delivered after a random delay if the link is up *at send time*;
  /// otherwise it is dropped (counted).  Throws if the nodes are not
  /// adjacent in the topology graph.  The payload is copied into a pooled
  /// message slot before this call returns, so callers may reuse their
  /// buffer immediately.
  void send(NodeId from, NodeId to, std::span<const std::int64_t> payload);

  /// Braced-list convenience: `send(u, v, {a, b})` ships the words without
  /// materializing a vector.
  void send(NodeId from, NodeId to, std::initializer_list<std::int64_t> payload) {
    send(from, to, std::span<const std::int64_t>(payload.begin(), payload.size()));
  }

  /// Marks a link up or down.  Messages already in flight still arrive
  /// (they model frames already on the medium).
  void set_link_up(EdgeId e, bool up) { link_up_[e] = up; }
  /// True iff link `e` is currently up.
  bool link_up(EdgeId e) const { return link_up_[e]; }

  /// Runs the simulation until no events remain (or the safety budget is
  /// hit); returns events executed.  In sharded mode the budget binds at
  /// tick granularity (whole ticks execute atomically); the default budget
  /// never binds either way.
  std::uint64_t run_until_idle(std::uint64_t max_events = 50'000'000);

  /// The sharded event loop when sim_threads selected one, else nullptr.
  const ShardedEventLoop* sharded_loop() const noexcept { return sharded_.get(); }

  /// Messages handed to send() (dropped ones included).
  std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  /// Messages delivered to a handler slot (duplicates counted).
  std::uint64_t messages_delivered() const noexcept { return messages_delivered_; }
  /// Messages dropped by down links or injected loss.
  std::uint64_t messages_dropped() const noexcept { return messages_dropped_; }

  /// Message-pool slots ever allocated (the high-water mark of in-flight
  /// messages); stable across steady-state send/deliver cycles.  Sharded
  /// mode sums the per-shard pools.
  std::size_t message_pool_slots() const noexcept;

 private:
  friend class ShardedEventLoop;  ///< drives plan_send/handlers_/counters

  void deliver(std::uint32_t index);

  /// The send decision shared by the serial path and the sharded merge:
  /// adjacency check (throws when not adjacent), sent/dropped counters,
  /// link-state and loss filtering, and the delay/duplicate RNG draws —
  /// in exactly the serial draw order, so both paths consume the one RNG
  /// stream identically.  Returns the number of copies to deliver (0 when
  /// dropped) and fills `delays` with that many per-copy delays.
  std::size_t plan_send(NodeId from, NodeId to, SimTime (&delays)[2]);

  const Graph* graph_;
  CsrGraph csr_;  ///< frozen adjacency of *graph_ (arrays shared, never copied)
  NetworkConfig config_;
  EventQueue queue_;
  std::mt19937_64 rng_;
  std::vector<Handler> handlers_;
  std::vector<std::uint8_t> link_up_;
  /// In-flight message pool (slot_pool.hpp); recycled payload vectors keep
  /// their capacity, so steady-state sends do not allocate.
  SlotPool<NetMessage> pool_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  /// Engaged when sim_threads selected sharded mode; replaces queue_ as
  /// the execution engine (queue_ stays for the serial path and the
  /// queue() accessor).  Last member: it captures `this` internals.
  std::unique_ptr<ShardedEventLoop> sharded_;
};

}  // namespace lr
