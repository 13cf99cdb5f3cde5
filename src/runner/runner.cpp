#include "runner/runner.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
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
                         Strategy strategy, WorkerPoolCache& pools) {
  const RunSpec& spec = record.spec;
  if (spec.path == ExecutionPath::kCsr) {
    ReversalEngine engine(frozen != nullptr ? *frozen : CsrGraph(instance.graph, instance.senses),
                          instance.destination);
    const EngineResult result =
        engine.run(engine_algorithm(strategy), engine_policy(spec.scheduler),
                   {.max_steps = spec.max_steps, .scheduler_seed = spec.scheduler_seed()});
    record.work = result.steps;
    record.edge_reversals = result.edge_reversals;
    record.dummy_steps = result.dummy_steps;
    record.converged = result.quiescent && result.destination_oriented;
    if (strategy == Strategy::kNewPR) return;
    // A quiescent run reports its greedy rounds from its round clocks; only
    // a budget-cut run needs the rounds pass, under the same budget.
    if (result.greedy_rounds) {
      record.rounds = *result.greedy_rounds;
      return;
    }
    // engine_threads != 1 shards the rounds across a borrowed worker pool
    // (0 = hardware concurrency).  The record is byte-identical either
    // way; only the wall clock moves (docs/PERFORMANCE.md).
    EngineRoundsOptions rounds_options{.max_rounds = spec.max_steps};
    if (spec.engine_threads != 1) rounds_options.pool = pools.get(spec.engine_threads);
    record.rounds = engine.run_greedy_rounds(engine_algorithm(strategy), rounds_options).rounds;
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
      spec.scheduler, spec.scheduler_seed(), [&](auto&& scheduler) {
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
/// CSR path with a warm sweep cache, the network shares the cached frozen
/// snapshot instead of freezing its own, and the protocol reads the
/// network's; the adjacency is identical either way, so records are too.
void run_dist_kernel(RunRecord& record, const Instance& instance, const CsrGraph* frozen,
                     ReversalRule rule, WorkerPoolCache& pools) {
  const RunSpec& spec = record.spec;
  NetworkConfig config;
  config.seed = spec.network_seed();
  // Event-core knobs: the time-index backend and the sharded event loop's
  // worker count (both byte-identical to the defaults by construction;
  // tests/sim_test.cpp pins it).  The sharded loop borrows its pool.
  config.scheduler = spec.sim_scheduler;
  config.sim_threads = spec.sim_threads;
  if (spec.sim_threads != 1) config.sim_pool = pools.get(spec.sim_threads);
  Network network(instance.graph, config,
                  frozen != nullptr ? *frozen : CsrGraph(instance.graph));
  DistLinkReversal protocol(instance, rule, network);
  const auto resync_rounds = protocol.run_with_resync();
  record.work = protocol.total_steps();
  record.messages = network.messages_sent();
  record.rounds = resync_rounds.value_or(0);
  record.converged = resync_rounds.has_value() && protocol.converged();
}

/// service: the request-serving harness (service/service_harness.hpp)
/// under random link churn.  Record mapping (docs/EXPERIMENTS.md):
/// work = requests served, messages = route hops, rounds = churn events,
/// edge_reversals = reversal steps, abstract_steps = failed requests,
/// dummy_steps = the report fingerprint (so cross-process and
/// cross-thread byte-identity checks pin the full latency histograms,
/// not just the scalar counters).  The harness runs serially, so the
/// run borrows no pool and ignores `sim_threads`.
void run_service_kernel(RunRecord& record, const Instance& instance) {
  const RunSpec& spec = record.spec;
  ServiceOptions options;
  options.clients = spec.service_clients;
  options.duration = spec.service_duration;
  options.workload = spec.service_workload;
  options.seed = spec.network_seed();
  options.scheduler = spec.sim_scheduler;
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
      spec.scheduler, spec.scheduler_seed(), [&](auto&& scheduler) {
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
      spec.scheduler, spec.scheduler_seed(), [&](auto&& scheduler) {
        return check_forward_simulation(concrete, abstract, scheduler, reverse_relation_R,
                                        correspondence_R_reverse, spec.max_steps);
      });
  fill_simulation_result(record, result, concrete.orientation(), concrete.destination());
}

/// True iff `algorithm`'s kernel reads the workload's CSR on the CSR path.
bool reads_csr(AlgorithmKind algorithm) {
  switch (algorithm) {
    case AlgorithmKind::kFullReversal:
    case AlgorithmKind::kOneStepPR:
    case AlgorithmKind::kNewPR:
    case AlgorithmKind::kDistFR:
    case AlgorithmKind::kDistPR:
      return true;
    case AlgorithmKind::kHybrid:
    case AlgorithmKind::kTora:
    case AlgorithmKind::kSimRPrime:
    case AlgorithmKind::kSimR:
    case AlgorithmKind::kSimRRev:
    case AlgorithmKind::kService:
      return false;
  }
  return true;
}

}  // namespace

WorkloadKey workload_key(const RunSpec& spec) {
  return {spec.topology, spec.size, spec.seed, spec.churn_events};
}

std::vector<std::vector<std::size_t>> group_by_workload(const std::vector<RunSpec>& runs) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<WorkloadKey, std::size_t> group_of;
  for (std::size_t index = 0; index < runs.size(); ++index) {
    const auto [it, inserted] = group_of.try_emplace(workload_key(runs[index]), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(index);
  }
  return groups;
}

SweepCache::SweepCache(const std::vector<RunSpec>& runs, std::string snapshot_dir)
    : snapshot_dir_(std::move(snapshot_dir)) {
  for (const RunSpec& run : runs) {
    Plan& plan = plan_[workload_key(run)];
    ++plan.gets;
    plan.reads_csr = plan.reads_csr || reads_csr(run.algorithm);
  }
  if (!snapshot_dir_.empty()) {
    ::mkdir(snapshot_dir_.c_str(), 0755);  // EEXIST is the common case
  }
}

std::shared_ptr<const FrozenInstance> SweepCache::get(const RunSpec& spec) {
  const WorkloadKey key = workload_key(spec);
  std::optional<std::promise<std::shared_ptr<const FrozenInstance>>> builder;
  Build shared;
  bool freeze = true;  // a key outside the plan is always frozen
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
      it->second = builder.emplace().get_future().share();
      ++stats_.misses;
      stats_.peak_entries = std::max(stats_.peak_entries, entries_.size());
    } else {
      ++stats_.hits;
    }
    shared = it->second;
    const auto planned = plan_.find(key);
    if (planned != plan_.end()) {
      freeze = planned->second.reads_csr;
      if (--planned->second.gets == 0) {
        plan_.erase(planned);
        entries_.erase(it);  // the last planned get: the runs hold it from here
      }
    }
  }
  if (builder) {
    try {
      builder->set_value(build(spec, freeze));
    } catch (...) {
      builder->set_exception(std::current_exception());
    }
  }
  return shared.get();  // waits for the build; rethrows its exception
}

std::shared_ptr<const FrozenInstance> SweepCache::build(const RunSpec& spec, bool freeze) {
  // With a snapshot directory, a churn-free workload tries the mmap file
  // first: a zero-fixup reload (the Graph and the CsrGraph both read the
  // checksum-verified mapping, which they keep alive).  Any load failure —
  // missing file, torn write, version skew — falls back to generating,
  // after which the file is (re)written for the next sweep.  Workloads with churn schedules
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
      const Snapshot snap = Snapshot::load(snapshot_path);
      frozen->instance = snap.instance();
      frozen->csr = snap.csr();
      frozen->has_csr = true;
      loaded = true;
    } catch (const std::exception&) {
      // fall through to generation (and persist below)
    }
  }
  if (!loaded) {
    ChurnInstance churn = make_churn_instance(spec);
    frozen->instance = std::move(churn.instance);
    frozen->churn = std::move(churn.churn);
    if (freeze || !snapshot_path.empty()) {  // the file holds the CSR arrays
      frozen->csr = CsrGraph(frozen->instance.graph, frozen->instance.senses);
      frozen->has_csr = true;
    }
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
  frozen->bad_nodes = count_bad_nodes(frozen->instance);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (loaded) ++stats_.snapshot_loads;
  if (saved) ++stats_.snapshot_saves;
  return frozen;
}

SweepCacheStats SweepCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ThreadPool* WorkerPoolCache::get(std::size_t threads) {
  for (auto& [size, pool] : pools_) {
    if (size == threads) return pool.get();
  }
  pools_.emplace_back(threads, std::make_unique<ThreadPool>(threads));
  return pools_.back().second.get();
}

RunRecord execute_run(const RunSpec& spec, SweepCache* cache, WorkerPoolCache* pools) {
  RunRecord record;
  record.spec = spec;
  record.run_seed = spec.instance_seed();
  WorkerPoolCache local_pools;  // spawns nothing unless a kernel asks for a pool
  WorkerPoolCache& run_pools = pools != nullptr ? *pools : local_pools;
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
      if (shared->has_csr) frozen = &shared->csr;  // else a kernel freezes its own
      record.bad_nodes = shared->bad_nodes;
      // A snapshot-file reload carries no schedule; leave churn null so
      // the tora kernel derives it from the spec (same bytes either way).
      if (!shared->churn.empty() || spec.churn_events == 0) churn = &shared->churn;
    } else {
      local = make_instance(spec);
      instance = &local;
      record.bad_nodes = count_bad_nodes(local);
    }
    record.nodes = instance->graph.num_nodes();
    switch (spec.algorithm) {
      case AlgorithmKind::kFullReversal:
        run_strategy_kernel(record, *instance, frozen, Strategy::kFullReversal, run_pools);
        break;
      case AlgorithmKind::kOneStepPR:
        run_strategy_kernel(record, *instance, frozen, Strategy::kPartialReversal, run_pools);
        break;
      case AlgorithmKind::kNewPR:
        run_strategy_kernel(record, *instance, frozen, Strategy::kNewPR, run_pools);
        break;
      case AlgorithmKind::kHybrid:
        run_hybrid_kernel(record, *instance);
        break;
      case AlgorithmKind::kTora:
        run_tora_kernel(record, *instance, churn);
        break;
      case AlgorithmKind::kDistFR:
        run_dist_kernel(record, *instance, frozen, ReversalRule::kFull, run_pools);
        break;
      case AlgorithmKind::kDistPR:
        run_dist_kernel(record, *instance, frozen, ReversalRule::kPartial, run_pools);
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
        run_service_kernel(record, *instance);
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
    : snapshot_dir_(std::move(options.snapshot_dir)), pool_(options.threads) {
  worker_pools_.resize(pool_.size());
}

SweepReport ScenarioRunner::run(const SweepSpec& spec) const {
  const std::vector<RunSpec> runs = spec.expand();
  SweepCache cache(runs, snapshot_dir_);  // dies with the sweep
  return {run_all(runs, cache), cache.stats()};
}

std::vector<RunRecord> ScenarioRunner::run_all(const std::vector<RunSpec>& specs) const {
  SweepCache cache(specs, snapshot_dir_);
  return run_all(specs, cache);
}

std::vector<RunRecord> ScenarioRunner::run_all(const std::vector<RunSpec>& specs,
                                               SweepCache& cache) const {
  std::vector<RunRecord> records(specs.size());
  if (specs.empty()) return records;
  const std::vector<std::vector<std::size_t>> groups = group_by_workload(specs);
  std::atomic<std::size_t> next_workload{0};
  std::vector<std::atomic<std::size_t>> next_run(groups.size());  // per workload
  const auto claim = [](std::atomic<std::size_t>& cursor) {
    return cursor.fetch_add(1, std::memory_order_relaxed);
  };
  const auto run_workload = [&](std::size_t w, WorkerPoolCache& pools) {
    for (std::size_t k = claim(next_run[w]); k < groups[w].size(); k = claim(next_run[w])) {
      records[groups[w][k]] = execute_run(specs[groups[w][k]], &cache, &pools);
    }
  };
  const std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
  pool_.run([&](std::size_t worker) {
    WorkerPoolCache& pools = worker_pools_[worker];
    for (std::size_t w = claim(next_workload); w < groups.size(); w = claim(next_workload)) {
      run_workload(w, pools);
    }
    // No workload left to claim: help finish the ones still in progress.
    for (std::size_t w = 0; w < groups.size(); ++w) run_workload(w, pools);
  });
  return records;
}

}  // namespace lr
