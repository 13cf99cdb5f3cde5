#include "runner/runner.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "analysis/bounds.hpp"
#include "analysis/rounds.hpp"
#include "analysis/stats.hpp"
#include "automata/executor.hpp"
#include "automata/scheduler.hpp"
#include "automata/simulation.hpp"
#include "core/hybrid.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"
#include "core/relations.hpp"
#include "core/reversal_engine.hpp"
#include "graph/csr.hpp"
#include "graph/digraph_algos.hpp"
#include "routing/dynamic_heights.hpp"
#include "routing/tora.hpp"
#include "service/service_harness.hpp"
#include "sim/dist_lr.hpp"
#include "sim/network.hpp"

namespace lr {

const char* relation_verdict_token(RelationVerdict verdict) {
  switch (verdict) {
    case RelationVerdict::kNotChecked:
      return "-";
    case RelationVerdict::kHolds:
      return "ok";
    case RelationVerdict::kViolated:
      return "violated";
  }
  return "?";
}

namespace {

/// Instantiates the single-step scheduler `kind` names and applies `f` to
/// it (schedulers are stateful templates, so dispatch happens here once).
template <typename F>
decltype(auto) with_single_scheduler(SchedulerKind kind, std::uint64_t seed, F&& f) {
  switch (kind) {
    case SchedulerKind::kLowestId: {
      LowestIdScheduler s;
      return f(s);
    }
    case SchedulerKind::kRandom: {
      RandomScheduler s(seed);
      return f(s);
    }
    case SchedulerKind::kRoundRobin: {
      RoundRobinScheduler s;
      return f(s);
    }
    case SchedulerKind::kFarthestFirst: {
      FarthestFirstScheduler s;
      return f(s);
    }
  }
  throw std::invalid_argument("unknown scheduler kind");
}

void fill_instance_shape(RunRecord& record, const Instance& instance) {
  record.nodes = instance.graph.num_nodes();
  record.bad_nodes = count_bad_nodes(instance);
}

/// Engine-side names of the strategy and scheduler axes (the CSR path).
EngineAlgorithm engine_algorithm(Strategy strategy) {
  switch (strategy) {
    case Strategy::kFullReversal:
      return EngineAlgorithm::kFullReversal;
    case Strategy::kPartialReversal:
      return EngineAlgorithm::kOneStepPR;
    case Strategy::kNewPR:
      return EngineAlgorithm::kNewPR;
  }
  throw std::invalid_argument("unknown strategy");
}

EnginePolicy engine_policy(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kLowestId:
      return EnginePolicy::kLowestId;
    case SchedulerKind::kRandom:
      return EnginePolicy::kRandom;
    case SchedulerKind::kRoundRobin:
      return EnginePolicy::kRoundRobin;
    case SchedulerKind::kFarthestFirst:
      return EnginePolicy::kFarthestFirst;
  }
  throw std::invalid_argument("unknown scheduler kind");
}

/// fr / pr / newpr: run to quiescence under the spec's scheduler, then
/// attach the greedy-round time measure where the strategy has one.
///
/// Two back-ends fill identical records (the equivalence is locked in by
/// tests/reversal_engine_test.cpp): the default CSR path batches the whole
/// execution through core/reversal_engine.hpp — over the sweep cache's
/// frozen snapshot when one is supplied — and the legacy path drives the
/// paper-shaped automata through the analysis layer's measure_cost.  The
/// bench_e2 A/B mode times one against the other.
void run_strategy_kernel(RunRecord& record, const Instance& instance, const CsrGraph* frozen,
                         Strategy strategy, WorkerPoolCache* pools) {
  const RunSpec& spec = record.spec;
  if (spec.path == ExecutionPath::kCsr) {
    const CsrGraph local =
        frozen != nullptr ? CsrGraph() : CsrGraph(instance.graph, instance.senses);
    const CsrGraph& csr = frozen != nullptr ? *frozen : local;
    ReversalEngine engine(csr, instance.destination);
    const EngineResult result =
        engine.run(engine_algorithm(strategy), engine_policy(spec.scheduler),
                   {.max_steps = spec.max_steps, .scheduler_seed = spec.scheduler_seed()});
    record.work = result.steps;
    record.edge_reversals = result.edge_reversals;
    record.dummy_steps = result.dummy_steps;
    record.converged = result.quiescent && result.destination_oriented;
    if (strategy != Strategy::kNewPR) {
      const EngineAlgorithm rounds_algorithm = strategy == Strategy::kFullReversal
                                                   ? EngineAlgorithm::kFullReversal
                                                   : EngineAlgorithm::kOneStepPR;
      // engine_threads != 1 shards the rounds across a worker pool (0 =
      // hardware concurrency).  The record is byte-identical either way;
      // only the wall clock moves (docs/PERFORMANCE.md).  With a
      // WorkerPoolCache the pool is borrowed (spawned once per sweep
      // worker); without one a short-lived local pool is spawned, but only
      // when the instance could plausibly clear the engine's work
      // threshold — 2|E| caps the *total* degree any round's sinks can
      // carry, so instances below it never shard (the cap is a heuristic:
      // width x max-degree can exceed it on skewed graphs, which at worst
      // keeps such a run serial, never changes its record).
      EngineRoundsOptions rounds_options{.max_rounds = spec.max_steps};
      std::optional<ThreadPool> local_pool;
      if (spec.engine_threads != 1) {
        if (pools != nullptr) {
          rounds_options.pool = pools->get(spec.engine_threads);
        } else if (2 * csr.num_edges() >= rounds_options.min_parallel_work) {
          rounds_options.pool = &local_pool.emplace(spec.engine_threads);
        }
      }
      record.rounds = engine.run_greedy_rounds(rounds_algorithm, rounds_options).rounds;
    }
    return;
  }
  const CostProfile profile = measure_cost(instance, strategy, spec.scheduler,
                                           spec.scheduler_seed(), {.max_steps = spec.max_steps});
  record.work = profile.social_cost;
  record.edge_reversals = profile.edge_reversals;
  record.dummy_steps = profile.dummy_steps;
  record.converged = profile.converged;
  if (strategy != Strategy::kNewPR) {
    const RoundStrategy round_strategy = strategy == Strategy::kFullReversal
                                             ? RoundStrategy::kFullReversal
                                             : RoundStrategy::kPartialReversal;
    record.rounds = run_greedy_rounds(instance, round_strategy, spec.max_steps).total_rounds();
  }
}

/// hybrid: a per-node random FR/PR strategy profile (the E3.4 game),
/// drawn from its own seed stream so the profile is sweep-reproducible.
void run_hybrid_kernel(RunRecord& record, const Instance& instance) {
  const RunSpec& spec = record.spec;
  std::mt19937_64 profile_rng(splitmix64(spec.instance_seed() ^ 0x9b1dULL));
  std::bernoulli_distribution flip(0.5);
  std::vector<NodeStrategy> profile(instance.graph.num_nodes());
  for (auto& strategy : profile) {
    strategy = flip(profile_rng) ? NodeStrategy::kFullReversal : NodeStrategy::kPartialReversal;
  }
  HybridStrategyAutomaton automaton(instance, std::move(profile));
  const RunResult result = with_single_scheduler(
      spec.scheduler, spec.scheduler_seed(), [&](auto& scheduler) {
        return run_to_quiescence(automaton, scheduler, {.max_steps = spec.max_steps});
      });
  record.work = result.node_steps;
  record.edge_reversals = result.edge_reversals;
  record.converged = result.quiescent && result.destination_oriented;
}

/// tora: the routing service under link churn; work is maintenance
/// reversals, messages is delivered packets.
///
/// With churn_events > 0 the kernel instead replays the spec's
/// precomputed churn schedule (make_churn_instance; drawn from the cached
/// FrozenInstance when the sweep already generated it) over the
/// dynamic-heights core, stabilizing after every event — the E10
/// steady-state regime.  Record mapping: work = total reversal steps,
/// rounds = events replayed, messages = effective link events
/// (`snapshot_patches()`), abstract_steps = adjacency rebuilds after
/// warm-up (always 0: link events update the neighbour lists in place).
void run_tora_kernel(RunRecord& record, const Instance& instance,
                     const std::vector<LinkEvent>* churn) {
  const RunSpec& spec = record.spec;
  if (spec.churn_events > 0) {
    std::vector<LinkEvent> local_churn;
    if (churn == nullptr) {
      local_churn = make_churn_instance(spec).churn;
      churn = &local_churn;
    }
    DynamicHeightsDag dag(instance.graph, instance.destination);
    dag.stabilize();
    const std::uint64_t warm_rebuilds = dag.snapshot_rebuilds();
    for (const LinkEvent& event : *churn) {
      if (event.up) {
        dag.add_link(event.u, event.v);
      } else {
        dag.remove_link(event.u, event.v);
      }
      dag.stabilize();
    }
    record.work = dag.total_reversals();
    record.rounds = churn->size();
    record.messages = dag.snapshot_patches();
    record.abstract_steps = dag.snapshot_rebuilds() - warm_rebuilds;
    record.converged = record.abstract_steps == 0;
    return;
  }
  const ToraStats stats = run_churn_scenario(instance.graph, instance.destination, spec.size, 2,
                                             spec.network_seed());
  record.work = stats.reversals;
  record.messages = stats.packets_delivered;
  record.converged = true;  // the service re-stabilizes after every event
}

/// dist-fr / dist-pr: the message-passing protocol over the simulated
/// asynchronous network, driven to convergence with resync rounds.  On the
/// CSR path with a warm sweep cache, both the network and the protocol
/// borrow the cached frozen snapshot instead of freezing their own; the
/// snapshot's contents are identical either way, so records are too.
void run_dist_kernel(RunRecord& record, const Instance& instance, const CsrGraph* frozen,
                     ReversalRule rule, WorkerPoolCache* pools) {
  const RunSpec& spec = record.spec;
  NetworkConfig config;
  config.seed = spec.network_seed();
  // Event-core knobs: the time-index backend and the sharded event loop's
  // worker count (both byte-identical to the defaults by construction;
  // tests/sim_test.cpp pins it).  With a pool cache the loop borrows the
  // worker's pool instead of spawning its own per run.
  config.scheduler = spec.sim_scheduler;
  config.sim_threads = spec.sim_threads;
  if (spec.sim_threads != 1 && pools != nullptr) {
    config.sim_pool = pools->get(spec.sim_threads);
  }
  std::optional<Network> network;
  std::optional<DistLinkReversal> protocol;
  if (frozen != nullptr) {
    network.emplace(instance.graph, config, *frozen);
    protocol.emplace(instance, rule, *network, *frozen);
  } else {
    network.emplace(instance.graph, config);
    protocol.emplace(instance, rule, *network);
  }
  const auto resync_rounds = protocol->run_with_resync();
  record.work = protocol->total_steps();
  record.messages = network->messages_sent();
  record.rounds = resync_rounds.value_or(0);
  record.converged = resync_rounds.has_value() && protocol->converged();
}

/// service: the request-serving harness (service/service_harness.hpp)
/// under random link churn.  Record mapping (docs/EXPERIMENTS.md):
/// work = requests served, messages = route hops, rounds = churn events,
/// edge_reversals = reversal steps, abstract_steps = failed requests,
/// dummy_steps = the report fingerprint (so cross-process and
/// cross-thread byte-identity checks pin the full latency histograms,
/// not just the scalar counters).  `sim_threads` is the harness's
/// parallel read-phase worker count; with a WorkerPoolCache the pool is
/// borrowed (spawned once per sweep worker), satisfying the pool-reuse
/// contract the pool-construction-counting test pins.
void run_service_kernel(RunRecord& record, const Instance& instance, WorkerPoolCache* pools) {
  const RunSpec& spec = record.spec;
  ServiceOptions options;
  options.clients = spec.service_clients;
  options.duration = spec.service_duration;
  options.workload = spec.service_workload;
  options.seed = spec.network_seed();
  options.scheduler = spec.sim_scheduler;
  options.workers = spec.sim_threads;
  if (spec.sim_threads != 1 && pools != nullptr) {
    options.pool = pools->get(spec.sim_threads);
  }
  ServiceHarness harness(instance.graph, instance.destination, options);
  const ServiceReport report = harness.run();
  record.work = report.total_completed();
  record.messages = 0;
  for (const ServiceKindStats& kind : report.kinds) record.messages += kind.hops;
  record.rounds = report.churn_events;
  record.edge_reversals = report.reversal_steps;
  record.abstract_steps = report.total_failed();
  record.dummy_steps = report.fingerprint();
  record.converged = report.total_issued() == report.total_completed() + report.total_failed();
}

void fill_simulation_result(RunRecord& record, const SimulationCheckResult& result,
                            const Orientation& concrete_orientation, NodeId destination) {
  record.work = result.concrete_steps;
  record.abstract_steps = result.abstract_steps;
  record.relation = result.ok ? RelationVerdict::kHolds : RelationVerdict::kViolated;
  record.edge_reversals = concrete_orientation.reversal_count();
  record.converged = is_destination_oriented(concrete_orientation, destination);
}

/// sim-rprime: Lemma 5.1's forward simulation, PR (set steps) refined by
/// OneStepPR.  The concrete automaton takes set actions, so only the two
/// set schedulers apply: lowest = maximal greedy sets, random = random
/// non-empty sink subsets.
void run_sim_rprime_kernel(RunRecord& record, const Instance& instance) {
  const RunSpec& spec = record.spec;
  PRAutomaton concrete(instance);
  OneStepPRAutomaton abstract(instance);
  SimulationCheckResult result;
  switch (spec.scheduler) {
    case SchedulerKind::kLowestId: {
      MaximalSetScheduler scheduler;
      result = check_forward_simulation(concrete, abstract, scheduler, relation_R_prime,
                                        correspondence_R_prime, spec.max_steps);
      break;
    }
    case SchedulerKind::kRandom: {
      RandomSetScheduler scheduler(spec.scheduler_seed());
      result = check_forward_simulation(concrete, abstract, scheduler, relation_R_prime,
                                        correspondence_R_prime, spec.max_steps);
      break;
    }
    default:
      throw std::invalid_argument(
          "sim-rprime drives the set-step PR automaton; scheduler must be "
          "'lowest' (maximal sets) or 'random' (random sink subsets)");
  }
  fill_simulation_result(record, result, concrete.orientation(), concrete.destination());
}

/// sim-r: Lemma 5.3's forward simulation, OneStepPR refined by NewPR.
void run_sim_r_kernel(RunRecord& record, const Instance& instance) {
  const RunSpec& spec = record.spec;
  OneStepPRAutomaton concrete(instance);
  NewPRAutomaton abstract(instance);
  const SimulationCheckResult result = with_single_scheduler(
      spec.scheduler, spec.scheduler_seed(), [&](auto& scheduler) {
        return check_forward_simulation(concrete, abstract, scheduler, relation_R,
                                        correspondence_R, spec.max_steps);
      });
  fill_simulation_result(record, result, concrete.orientation(), concrete.destination());
}

/// sim-rrev: the conclusion's proposed reverse relation, NewPR refined by
/// OneStepPR (dummy steps map to empty abstract sequences).
void run_sim_rrev_kernel(RunRecord& record, const Instance& instance) {
  const RunSpec& spec = record.spec;
  NewPRAutomaton concrete(instance);
  OneStepPRAutomaton abstract(instance);
  const SimulationCheckResult result = with_single_scheduler(
      spec.scheduler, spec.scheduler_seed(), [&](auto& scheduler) {
        return check_forward_simulation(concrete, abstract, scheduler, reverse_relation_R,
                                        correspondence_R_reverse, spec.max_steps);
      });
  fill_simulation_result(record, result, concrete.orientation(), concrete.destination());
}

}  // namespace

SweepCache::SweepCache(std::size_t max_entries, std::string snapshot_dir)
    : max_entries_(max_entries), snapshot_dir_(std::move(snapshot_dir)) {
  if (!snapshot_dir_.empty()) {
    ::mkdir(snapshot_dir_.c_str(), 0755);  // EEXIST is the common case
  }
}

std::shared_ptr<const FrozenInstance> SweepCache::get(const RunSpec& spec) {
  const Key key{spec.topology, spec.size, spec.seed, spec.churn_events};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);  // mark most recent
      return it->second.frozen;
    }
  }
  // Build outside the lock so concurrent misses on different keys do not
  // serialize; a race on the same key wastes one duplicate build at most.
  //
  // With a snapshot directory, a churn-free workload tries the mmap file
  // first: an O(1) zero-fixup reload (the borrowed CsrGraph views point
  // straight into the checksum-verified mapping, kept alive by
  // FrozenInstance::backing).  Any load failure — missing file, torn
  // write, version skew — falls back to generating, after which the file
  // is (re)written for the next sweep.  Workloads with churn schedules
  // always generate: the schedule is derived state the file does not
  // carry.
  auto frozen = std::make_shared<FrozenInstance>();
  bool loaded = false;
  bool saved = false;
  std::string snapshot_path;
  if (!snapshot_dir_.empty() && spec.churn_events == 0) {
    snapshot_path = snapshot_dir_ + "/" + topology_token(spec.topology) + "-" +
                    std::to_string(spec.size) + "-s" + std::to_string(spec.seed) + ".lrsnap";
    try {
      auto snap = std::make_shared<Snapshot>(Snapshot::load(snapshot_path));
      frozen->instance = snap->thaw_instance();
      frozen->csr = snap->csr();  // cheap view copy aliasing the mapping
      frozen->backing = std::move(snap);
      loaded = true;
    } catch (const std::exception&) {
      // fall through to generation (and persist below)
    }
  }
  if (!loaded) {
    ChurnInstance churn = make_churn_instance(spec);
    frozen->instance = std::move(churn.instance);
    frozen->churn = std::move(churn.churn);
    frozen->csr = CsrGraph(frozen->instance.graph, frozen->instance.senses);
    if (!snapshot_path.empty()) {
      try {
        save_snapshot(snapshot_path, frozen->instance, frozen->csr);
        saved = true;
      } catch (const std::exception&) {
        // Persistence is best-effort: an unwritable directory degrades to
        // the generate-every-sweep behavior, never fails the run.
      }
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  if (loaded) ++snapshot_loads_;
  if (saved) ++snapshot_saves_;
  const auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);  // lost the build race
    return it->second.frozen;
  }
  it->second.frozen = std::move(frozen);
  lru_.push_front(key);
  it->second.lru_position = lru_.begin();
  if (max_entries_ != 0 && entries_.size() > max_entries_) {
    // Evict the least recently used entry (never the one just inserted:
    // max_entries_ >= 1, so the list has at least two entries here).
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  return it->second.frozen;
}

std::size_t SweepCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t SweepCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t SweepCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t SweepCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::uint64_t SweepCache::snapshot_loads() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_loads_;
}

std::uint64_t SweepCache::snapshot_saves() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_saves_;
}

ThreadPool* WorkerPoolCache::get(std::size_t threads) {
  for (auto& [size, pool] : pools_) {
    if (size == threads) return pool.get();
  }
  pools_.emplace_back(threads, std::make_unique<ThreadPool>(threads));
  return pools_.back().second.get();
}

RunRecord execute_run(const RunSpec& spec) { return execute_run(spec, nullptr, nullptr); }

RunRecord execute_run(const RunSpec& spec, SweepCache* cache) {
  return execute_run(spec, cache, nullptr);
}

RunRecord execute_run(const RunSpec& spec, SweepCache* cache, WorkerPoolCache* pools) {
  RunRecord record;
  record.spec = spec;
  record.run_seed = spec.instance_seed();
  try {
    // The CSR path draws the frozen workload from the sweep cache; the
    // legacy path regenerates per run (the historical cost model the A/B
    // harness compares against).  Generation is deterministic in the axis
    // values, so the two sources yield byte-identical instances.
    std::shared_ptr<const FrozenInstance> shared;
    Instance local;
    const Instance* instance = nullptr;
    const CsrGraph* frozen = nullptr;
    const std::vector<LinkEvent>* churn = nullptr;
    if (cache != nullptr && spec.path == ExecutionPath::kCsr) {
      shared = cache->get(spec);
      instance = &shared->instance;
      frozen = &shared->csr;
      // A snapshot-file reload carries no schedule; leave churn null so
      // the tora kernel derives it from the spec (same bytes either way).
      if (!shared->churn.empty() || spec.churn_events == 0) churn = &shared->churn;
    } else {
      local = make_instance(spec);
      instance = &local;
    }
    fill_instance_shape(record, *instance);
    switch (spec.algorithm) {
      case AlgorithmKind::kFullReversal:
        run_strategy_kernel(record, *instance, frozen, Strategy::kFullReversal, pools);
        break;
      case AlgorithmKind::kOneStepPR:
        run_strategy_kernel(record, *instance, frozen, Strategy::kPartialReversal, pools);
        break;
      case AlgorithmKind::kNewPR:
        run_strategy_kernel(record, *instance, frozen, Strategy::kNewPR, pools);
        break;
      case AlgorithmKind::kHybrid:
        run_hybrid_kernel(record, *instance);
        break;
      case AlgorithmKind::kTora:
        run_tora_kernel(record, *instance, churn);
        break;
      case AlgorithmKind::kDistFR:
        run_dist_kernel(record, *instance, frozen, ReversalRule::kFull, pools);
        break;
      case AlgorithmKind::kDistPR:
        run_dist_kernel(record, *instance, frozen, ReversalRule::kPartial, pools);
        break;
      case AlgorithmKind::kSimRPrime:
        run_sim_rprime_kernel(record, *instance);
        break;
      case AlgorithmKind::kSimR:
        run_sim_r_kernel(record, *instance);
        break;
      case AlgorithmKind::kSimRRev:
        run_sim_rrev_kernel(record, *instance);
        break;
      case AlgorithmKind::kService:
        run_service_kernel(record, *instance, pools);
        break;
    }
  } catch (const std::exception& error) {
    record.error = error.what();
    record.converged = false;
  }
  return record;
}

namespace {

std::string fmt_mean(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

std::string u64(std::uint64_t value) { return std::to_string(value); }

}  // namespace

Table SweepReport::records_table() const {
  Table table;
  table.columns = {"topology",    "size",        "algorithm",      "scheduler",
                   "seed",        "run_seed",    "nodes",          "bad_nodes",
                   "work",        "edge_reversals", "rounds",      "dummy_steps",
                   "abstract_steps", "messages", "converged",      "relation",
                   "status"};
  for (const RunRecord& record : records) {
    table.add_row({topology_token(record.spec.topology), u64(record.spec.size),
                   algorithm_token(record.spec.algorithm), scheduler_token(record.spec.scheduler),
                   u64(record.spec.seed), u64(record.run_seed), u64(record.nodes),
                   u64(record.bad_nodes), u64(record.work), u64(record.edge_reversals),
                   u64(record.rounds), u64(record.dummy_steps), u64(record.abstract_steps),
                   u64(record.messages), record.converged ? "yes" : "no",
                   relation_verdict_token(record.relation),
                   record.error.empty() ? "ok" : "error: " + record.error});
  }
  return table;
}

Table SweepReport::aggregate_table() const {
  struct Group {
    const RunRecord* first = nullptr;
    std::uint64_t runs = 0;
    std::uint64_t errors = 0;
    std::uint64_t converged = 0;
    std::uint64_t relation_checked = 0;
    std::uint64_t relation_ok = 0;
    Aggregate work;
    Aggregate edge_reversals;
    Aggregate rounds;
  };
  std::vector<Group> groups;
  std::map<std::tuple<TopologyKind, std::size_t, AlgorithmKind, SchedulerKind>, std::size_t>
      group_index;
  for (const RunRecord& record : records) {
    const auto key = std::tuple(record.spec.topology, record.spec.size, record.spec.algorithm,
                                record.spec.scheduler);
    const auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().first = &record;
    }
    Group& group = groups[it->second];
    ++group.runs;
    if (!record.error.empty()) {
      ++group.errors;
      continue;  // error runs carry no measurements
    }
    if (record.converged) ++group.converged;
    if (record.relation != RelationVerdict::kNotChecked) {
      ++group.relation_checked;
      if (record.relation == RelationVerdict::kHolds) ++group.relation_ok;
    }
    group.work.add(static_cast<double>(record.work));
    group.edge_reversals.add(static_cast<double>(record.edge_reversals));
    group.rounds.add(static_cast<double>(record.rounds));
  }

  Table table;
  table.columns = {"topology",   "size",      "algorithm",  "scheduler",
                   "runs",       "errors",    "converged",  "work_total",
                   "work_mean",  "work_min",  "work_max",   "edge_reversals_mean",
                   "rounds_mean", "relation_checked", "relation_ok"};
  for (const Group& group : groups) {
    const RunSpec& spec = group.first->spec;
    table.add_row({topology_token(spec.topology), u64(spec.size), algorithm_token(spec.algorithm),
                   scheduler_token(spec.scheduler), u64(group.runs), u64(group.errors),
                   u64(group.converged), u64(static_cast<std::uint64_t>(group.work.sum)),
                   fmt_mean(group.work.mean()), u64(static_cast<std::uint64_t>(group.work.min)),
                   u64(static_cast<std::uint64_t>(group.work.max)),
                   fmt_mean(group.edge_reversals.mean()), fmt_mean(group.rounds.mean()),
                   u64(group.relation_checked), u64(group.relation_ok)});
  }
  return table;
}

ScenarioRunner::ScenarioRunner(RunnerOptions options)
    : cache_max_entries_(options.cache_max_entries),
      snapshot_dir_(std::move(options.snapshot_dir)),
      pool_(options.threads) {
  worker_pools_.resize(pool_.size());
}

SweepReport ScenarioRunner::run(const SweepSpec& spec) const {
  SweepCache cache(cache_max_entries_, snapshot_dir_);  // dies with the sweep
  SweepReport report{run_all(spec.expand(), cache), {}};
  report.cache = {cache.entries(),       cache.hits(),           cache.misses(),
                  cache.evictions(),     cache.snapshot_loads(), cache.snapshot_saves()};
  return report;
}

std::vector<RunRecord> ScenarioRunner::run_all(const std::vector<RunSpec>& specs) const {
  SweepCache cache(cache_max_entries_, snapshot_dir_);
  return run_all(specs, cache);
}

std::vector<RunRecord> ScenarioRunner::run_all(const std::vector<RunSpec>& specs,
                                               SweepCache& cache) const {
  std::vector<RunRecord> records(specs.size());
  if (specs.empty()) return records;
  std::atomic<std::size_t> cursor{0};
  const std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
  pool_.run([this, &specs, &records, &cursor, &cache](std::size_t worker) {
    WorkerPoolCache& pools = worker_pools_[worker];
    while (true) {
      const std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= specs.size()) return;
      records[index] = execute_run(specs[index], &cache, &pools);
    }
  });
  return records;
}

}  // namespace lr
