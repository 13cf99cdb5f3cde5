#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/sharded_loop.hpp"

namespace lr {

namespace {

void validate_delays(const NetworkConfig& config) {
  if (config.min_delay == 0 || config.min_delay > config.max_delay) {
    throw std::invalid_argument("Network: require 0 < min_delay <= max_delay");
  }
}

/// True iff `config` selects the sharded event loop.  min_delay >= 1
/// (validated above) is what makes sharding sound: same-tick deliveries on
/// distinct nodes cannot be causally related, so whole ticks parallelize.
bool wants_sharded(const NetworkConfig& config) {
  return config.sim_pool != nullptr || config.sim_threads != 1;
}

}  // namespace

Network::Network(const Graph& g, NetworkConfig config) : Network(g, config, CsrGraph(g)) {}

Network::Network(const Graph& g, NetworkConfig config, const CsrGraph& frozen)
    : graph_(&g),
      csr_(frozen),
      config_(config),
      queue_(config.scheduler),
      rng_(config.seed),
      handlers_(g.num_nodes()),
      link_up_(g.num_edges(), 1) {
  validate_delays(config_);
  if (frozen.num_nodes() != g.num_nodes() || frozen.num_edges() != g.num_edges()) {
    throw std::invalid_argument("Network: frozen CSR snapshot does not match the graph");
  }
  if (wants_sharded(config_)) {
    sharded_ = std::make_unique<ShardedEventLoop>(*this, config_.sim_threads, config_.scheduler,
                                                  config_.sim_pool);
  }
}

Network::~Network() = default;

SimTime Network::now() const noexcept {
  return sharded_ != nullptr ? sharded_->now() : queue_.now();
}

std::uint64_t Network::run_until_idle(std::uint64_t max_events) {
  if (sharded_ != nullptr) return sharded_->run_until_idle(max_events);
  return queue_.run_until_idle(max_events);
}

std::size_t Network::message_pool_slots() const noexcept {
  return sharded_ != nullptr ? sharded_->message_pool_slots() : pool_.slots();
}

void Network::deliver(std::uint32_t index) {
  ++messages_delivered_;
  const NetMessage& message = pool_[index];
  if (handlers_[message.to]) handlers_[message.to](message);
  pool_[index].payload.clear();  // keeps capacity for the next send
  pool_.release(index);
}

std::size_t Network::plan_send(NodeId from, NodeId to, SimTime (&delays)[2]) {
  const auto position = csr_.position_of(from, to);
  if (!position) {
    throw std::invalid_argument("Network::send: nodes are not adjacent");
  }
  const EdgeId e = csr_.edge_at(*position);
  ++messages_sent_;
  if (!link_up_[e]) {
    ++messages_dropped_;
    return 0;
  }
  if (config_.drop_probability > 0.0) {
    std::bernoulli_distribution drop(config_.drop_probability);
    if (drop(rng_)) {
      ++messages_dropped_;
      return 0;
    }
  }
  std::uniform_int_distribution<SimTime> delay(config_.min_delay, config_.max_delay);
  std::size_t copies = 1;
  if (config_.duplicate_probability > 0.0) {
    std::bernoulli_distribution duplicate(config_.duplicate_probability);
    if (duplicate(rng_)) copies = 2;
  }
  for (std::size_t i = 0; i < copies; ++i) delays[i] = delay(rng_);
  return copies;
}

void Network::send(NodeId from, NodeId to, std::span<const std::int64_t> payload) {
  if (sharded_ != nullptr) {
    sharded_->submit(from, to, payload);
    return;
  }
  SimTime delays[2];
  const std::size_t copies = plan_send(from, to, delays);
  for (std::size_t i = 0; i < copies; ++i) {
    const std::uint32_t index = pool_.acquire();
    NetMessage& message = pool_[index];
    message.from = from;
    message.to = to;
    message.payload.assign(payload.begin(), payload.end());
    queue_.schedule_in(delays[i], [this, index] { deliver(index); });
  }
}

}  // namespace lr
