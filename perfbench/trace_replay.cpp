// lr_trace_replay — the benchmark's traced replay of one `lr_cli sweep`.
//
//   lr_trace_replay <spec.sweep> <out_dir> [--frames]
//
// Re-executes every run the spec expands to, in expansion order, through
// the library's public entry points and in the order execute_run() calls
// them: the SweepCache lookup (generation and CSR freeze on a miss), then
// the run's kernel (ReversalEngine, DynamicHeightsDag, ServiceHarness,
// Network + DistLinkReversal, or check_forward_simulation), and finally
// write_table_csv of the records and aggregate tables.  Every call is
// wrapped in a span (name, start, end, parent, run index) kept in memory
// and written to <out_dir>/spans.csv when the replay ends, next to
// records.csv / aggregate.csv (byte-comparable with the `lr_cli sweep`
// outputs of the same spec) and counts.csv (the exact work counters).
//
// With --frames the records are additionally encoded as shard-protocol
// record frames and parsed back, as a sharded sweep ships them.
//
// Only the execution defaults are replayed (csr path, engine_threads = 1,
// heap scheduler, sim_threads = 1): a spec that sets another value is
// refused, so a benchmark spec can never quietly depend on a knob.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/bounds.hpp"
#include "automata/scheduler.hpp"
#include "automata/simulation.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"
#include "core/relations.hpp"
#include "core/reversal_engine.hpp"
#include "graph/csr.hpp"
#include "graph/digraph_algos.hpp"
#include "routing/dynamic_heights.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_protocol.hpp"
#include "service/service_harness.hpp"
#include "sim/dist_lr.hpp"
#include "sim/network.hpp"
#include "trace/report.hpp"

namespace {

using namespace lr;
using Clock = std::chrono::steady_clock;

/// In-memory span log.  Spans nest strictly (one thread), so the open
/// stack gives every span its parent.
class SpanLog {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;  ///< index of the enclosing span, -1 at the root
    std::int64_t run;     ///< expansion index, -1 outside any run
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::int64_t run) : log_(log) {
      index_ = log.spans_.size();
      const std::int64_t parent = log.open_.empty() ? -1 : log.open_.back();
      log.open_.push_back(static_cast<std::int64_t>(index_));
      log.spans_.push_back({name, Clock::now(), {}, parent, run});
    }
    ~Scope() {
      log_.spans_[index_].end = Clock::now();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  void write_csv(std::ostream& os) const {
    os << "name,start_ns,end_ns,parent,run\n";
    for (const Span& span : spans_) {
      os << span.name << ',' << ns_since_origin(span.start) << ',' << ns_since_origin(span.end)
         << ',' << span.parent << ',' << span.run << '\n';
    }
  }

 private:
  long long ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// The exact work counters of the replay, summed over its runs.
struct Counts {
  std::uint64_t csr_bytes = 0;  ///< CSR array bytes of every cached workload
  std::uint64_t patches = 0;    ///< DynamicHeightsDag in-place snapshot patches (tora, service)
  std::uint64_t rebuilds = 0;   ///< DynamicHeightsDag full snapshot builds (tora, service)
  std::uint64_t engine_steps = 0;
  std::uint64_t engine_edge_reversals = 0;
  std::uint64_t engine_rounds = 0;
  std::uint64_t concrete_steps = 0;
  std::uint64_t abstract_steps = 0;
  std::uint64_t routing_events = 0;
  std::uint64_t routing_reversals = 0;
  std::uint64_t service_issued = 0;
  std::uint64_t service_failed = 0;
  std::uint64_t service_reversal_steps = 0;
  std::uint64_t sim_messages = 0;
  std::uint64_t sim_resync_rounds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t frame_bytes = 0;
};

std::uint64_t csr_array_bytes(const CsrGraph& csr) {
  return csr.raw_offsets().size_bytes() + csr.raw_neighbors().size_bytes() +
         csr.raw_edges().size_bytes() + csr.raw_mirrors().size_bytes() +
         csr.raw_partition_neighbors().size_bytes() +
         csr.raw_partition_positions().size_bytes() + csr.raw_splits().size_bytes() +
         csr.initial_senses().size_bytes();
}

class Replay {
 public:
  /// One run, mirroring execute_run(spec, cache, pools) on the defaults.
  RunRecord run(const RunSpec& spec, std::int64_t index) {
    const SpanLog::Scope run_span(spans_, "runner.run", index);
    RunRecord record;
    record.spec = spec;
    record.run_seed = spec.instance_seed();
    try {
      if (spec.path != ExecutionPath::kCsr || spec.engine_threads != 1 ||
          spec.sim_scheduler != EventSchedulerKind::kHeap || spec.sim_threads != 1) {
        throw std::invalid_argument("the replay covers the default execution knobs only");
      }
      const std::shared_ptr<const FrozenInstance> frozen = cache_get(spec, index);
      const Instance& instance = frozen->instance;
      record.nodes = instance.graph.num_nodes();
      record.bad_nodes = count_bad_nodes(instance);
      switch (spec.algorithm) {
        case AlgorithmKind::kFullReversal:
          engine(record, *frozen, EngineAlgorithm::kFullReversal, index);
          break;
        case AlgorithmKind::kOneStepPR:
          engine(record, *frozen, EngineAlgorithm::kOneStepPR, index);
          break;
        case AlgorithmKind::kNewPR:
          engine(record, *frozen, EngineAlgorithm::kNewPR, index);
          break;
        case AlgorithmKind::kTora:
          tora_churn(record, *frozen, index);
          break;
        case AlgorithmKind::kDistFR:
          dist(record, *frozen, ReversalRule::kFull, index);
          break;
        case AlgorithmKind::kDistPR:
          dist(record, *frozen, ReversalRule::kPartial, index);
          break;
        case AlgorithmKind::kSimRPrime:
          sim_rprime(record, instance, index);
          break;
        case AlgorithmKind::kSimR:
          sim_r(record, instance, index);
          break;
        case AlgorithmKind::kSimRRev:
          sim_rrev(record, instance, index);
          break;
        case AlgorithmKind::kService:
          service(record, instance, index);
          break;
        case AlgorithmKind::kHybrid:
          throw std::invalid_argument("the replay does not cover the hybrid kernel");
      }
    } catch (const std::exception& error) {
      record.error = error.what();
      record.converged = false;
    }
    return record;
  }

  /// Encodes every record as a shard-protocol record frame and parses the
  /// stream back; returns false if a decoded record differs.
  bool codec(const std::vector<RunRecord>& records) {
    const SpanLog::Scope codec_span(spans_, "runner.codec", -1);
    std::vector<std::uint8_t> stream;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::vector<std::uint8_t> frame = encode_frame(RecordFrame{i, records[i]});
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    counts_.frame_bytes += stream.size();
    FrameParser parser;
    parser.feed(stream.data(), stream.size());
    std::size_t decoded = 0;
    while (const std::optional<Frame> frame = parser.next()) {
      if (frame->type != FrameType::kRecord || frame->record.global_index != decoded ||
          decoded >= records.size() || frame->record.record.work != records[decoded].work ||
          frame->record.record.error != records[decoded].error) {
        return false;
      }
      ++decoded;
    }
    return decoded == records.size() && !parser.mid_frame();
  }

  SpanLog& spans() { return spans_; }
  Counts& counts() { return counts_; }

 private:
  using Key = std::tuple<TopologyKind, std::size_t, std::uint64_t, std::size_t>;

  /// SweepCache::get's contract on the replay's own map (same key, same
  /// miss path), so generation and the CSR freeze get spans of their own.
  std::shared_ptr<const FrozenInstance> cache_get(const RunSpec& spec, std::int64_t index) {
    const SpanLog::Scope get_span(spans_, "runner.cache_get", index);
    const Key key{spec.topology, spec.size, spec.seed, spec.churn_events};
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++counts_.cache_hits;
      return it->second;
    }
    ++counts_.cache_misses;
    auto frozen = std::make_shared<FrozenInstance>();
    {
      const SpanLog::Scope generate_span(spans_, "graph.generate", index);
      ChurnInstance churn = make_churn_instance(spec);
      frozen->instance = std::move(churn.instance);
      frozen->churn = std::move(churn.churn);
    }
    {
      const SpanLog::Scope freeze_span(spans_, "graph.freeze", index);
      frozen->csr = CsrGraph(frozen->instance.graph, frozen->instance.senses);
    }
    counts_.csr_bytes += csr_array_bytes(frozen->csr);
    cache_.emplace(key, frozen);
    return frozen;
  }

  void engine(RunRecord& record, const FrozenInstance& frozen, EngineAlgorithm algorithm,
              std::int64_t index) {
    const RunSpec& spec = record.spec;
    std::optional<ReversalEngine> engine;
    {
      const SpanLog::Scope engine_span(spans_, "core.engine", index);
      engine.emplace(frozen.csr, frozen.instance.destination);
      const EngineResult result =
          engine->run(algorithm, engine_policy(spec.scheduler),
                      {.max_steps = spec.max_steps, .scheduler_seed = spec.scheduler_seed()});
      record.work = result.steps;
      record.edge_reversals = result.edge_reversals;
      record.dummy_steps = result.dummy_steps;
      record.converged = result.quiescent && result.destination_oriented;
    }
    counts_.engine_steps += record.work;
    counts_.engine_edge_reversals += record.edge_reversals;
    if (algorithm == EngineAlgorithm::kNewPR) return;
    const SpanLog::Scope rounds_span(spans_, "core.rounds", index);
    record.rounds = engine->run_greedy_rounds(algorithm, {.max_rounds = spec.max_steps}).rounds;
    counts_.engine_rounds += record.rounds;
  }

  void tora_churn(RunRecord& record, const FrozenInstance& frozen, std::int64_t index) {
    if (record.spec.churn_events == 0) {
      throw std::invalid_argument("the replay covers the tora kernel with churn_events > 0 only");
    }
    DynamicHeightsDag dag(frozen.instance.graph, frozen.instance.destination);
    {
      const SpanLog::Scope warm_span(spans_, "routing.stabilize", index);
      dag.stabilize();
    }
    const std::uint64_t warm_rebuilds = dag.snapshot_rebuilds();
    for (const LinkEvent& event : frozen.churn) {
      const SpanLog::Scope event_span(spans_, "routing.event", index);
      {
        const SpanLog::Scope link_span(spans_, "routing.link", index);
        if (event.up) {
          dag.add_link(event.u, event.v);
        } else {
          dag.remove_link(event.u, event.v);
        }
      }
      const SpanLog::Scope stabilize_span(spans_, "routing.stabilize", index);
      dag.stabilize();
    }
    record.work = dag.total_reversals();
    record.rounds = frozen.churn.size();
    record.messages = dag.snapshot_patches();
    record.abstract_steps = dag.snapshot_rebuilds() - warm_rebuilds;
    record.converged = record.abstract_steps == 0;
    counts_.patches += dag.snapshot_patches();
    counts_.rebuilds += dag.snapshot_rebuilds();
    counts_.routing_events += frozen.churn.size();
    counts_.routing_reversals += dag.total_reversals();
  }

  void dist(RunRecord& record, const FrozenInstance& frozen, ReversalRule rule,
            std::int64_t index) {
    const SpanLog::Scope dist_span(spans_, "sim.dist", index);
    NetworkConfig config;
    config.seed = record.spec.network_seed();
    Network network(frozen.instance.graph, config, frozen.csr);
    DistLinkReversal protocol(frozen.instance, rule, network, frozen.csr);
    const std::optional<std::size_t> resync_rounds = protocol.run_with_resync();
    record.work = protocol.total_steps();
    record.messages = network.messages_sent();
    record.rounds = resync_rounds.value_or(0);
    record.converged = resync_rounds.has_value() && protocol.converged();
    counts_.sim_messages += record.messages;
    counts_.sim_resync_rounds += record.rounds;
  }

  void service(RunRecord& record, const Instance& instance, std::int64_t index) {
    const RunSpec& spec = record.spec;
    ServiceOptions options;
    options.clients = spec.service_clients;
    options.duration = spec.service_duration;
    options.workload = spec.service_workload;
    options.seed = spec.network_seed();
    std::optional<ServiceHarness> harness;
    {
      const SpanLog::Scope build_span(spans_, "service.build", index);
      harness.emplace(instance.graph, instance.destination, options);
    }
    std::optional<ServiceReport> report;
    {
      const SpanLog::Scope run_span(spans_, "service.run", index);
      report.emplace(harness->run());
    }
    record.work = report->total_completed();
    record.messages = 0;
    for (const ServiceKindStats& kind : report->kinds) record.messages += kind.hops;
    record.rounds = report->churn_events;
    record.edge_reversals = report->reversal_steps;
    record.abstract_steps = report->total_failed();
    record.dummy_steps = report->fingerprint();
    record.converged =
        report->total_issued() == report->total_completed() + report->total_failed();
    counts_.service_issued += report->total_issued();
    counts_.service_failed += report->total_failed();
    counts_.service_reversal_steps += report->reversal_steps;
    counts_.patches += report->snapshot_patches;
    counts_.rebuilds += report->snapshot_rebuilds;
  }

  template <typename Concrete, typename Abstract, typename Scheduler, typename Relation,
            typename Correspondence>
  void check(RunRecord& record, Concrete& concrete, Abstract& abstract, Scheduler& scheduler,
             Relation&& relation, Correspondence&& correspond, std::int64_t index) {
    SimulationCheckResult result;
    {
      const SpanLog::Scope check_span(spans_, "automata.check", index);
      result = check_forward_simulation(concrete, abstract, scheduler, relation, correspond,
                                        record.spec.max_steps);
    }
    record.work = result.concrete_steps;
    record.abstract_steps = result.abstract_steps;
    record.relation = result.ok ? RelationVerdict::kHolds : RelationVerdict::kViolated;
    record.edge_reversals = concrete.orientation().reversal_count();
    record.converged = is_destination_oriented(concrete.orientation(), concrete.destination());
    counts_.concrete_steps += result.concrete_steps;
    counts_.abstract_steps += result.abstract_steps;
  }

  void sim_rprime(RunRecord& record, const Instance& instance, std::int64_t index) {
    PRAutomaton concrete(instance);
    OneStepPRAutomaton abstract(instance);
    const auto relation = [](const PRAutomaton& s, const OneStepPRAutomaton& t) {
      return relation_R_prime(s, t);
    };
    if (record.spec.scheduler == SchedulerKind::kLowestId) {
      MaximalSetScheduler scheduler;
      check(record, concrete, abstract, scheduler, relation, correspondence_R_prime, index);
    } else if (record.spec.scheduler == SchedulerKind::kRandom) {
      RandomSetScheduler scheduler(record.spec.scheduler_seed());
      check(record, concrete, abstract, scheduler, relation, correspondence_R_prime, index);
    } else {
      throw std::invalid_argument(
          "sim-rprime drives the set-step PR automaton; scheduler must be "
          "'lowest' (maximal sets) or 'random' (random sink subsets)");
    }
  }

  void sim_r(RunRecord& record, const Instance& instance, std::int64_t index) {
    OneStepPRAutomaton concrete(instance);
    NewPRAutomaton abstract(instance);
    with_scheduler(record.spec, [&](auto& scheduler) {
      check(record, concrete, abstract, scheduler,
            [](const OneStepPRAutomaton& s, const NewPRAutomaton& t) { return relation_R(s, t); },
            correspondence_R, index);
    });
  }

  void sim_rrev(RunRecord& record, const Instance& instance, std::int64_t index) {
    NewPRAutomaton concrete(instance);
    OneStepPRAutomaton abstract(instance);
    with_scheduler(record.spec, [&](auto& scheduler) {
      check(record, concrete, abstract, scheduler,
            [](const NewPRAutomaton& t, const OneStepPRAutomaton& s) {
              return reverse_relation_R(t, s);
            },
            correspondence_R_reverse, index);
    });
  }

  template <typename F>
  static void with_scheduler(const RunSpec& spec, F&& f) {
    switch (spec.scheduler) {
      case SchedulerKind::kLowestId: {
        LowestIdScheduler s;
        return f(s);
      }
      case SchedulerKind::kRandom: {
        RandomScheduler s(spec.scheduler_seed());
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

  static EnginePolicy engine_policy(SchedulerKind kind) {
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

  SpanLog spans_;
  Counts counts_;
  std::map<Key, std::shared_ptr<const FrozenInstance>> cache_;
};

void write_counts(std::ostream& os, const Counts& c) {
  const std::pair<const char*, std::uint64_t> rows[] = {
      {"graph.csr_bytes", c.csr_bytes},
      {"graph.patches", c.patches},
      {"graph.rebuilds", c.rebuilds},
      {"core.steps", c.engine_steps},
      {"core.edge_reversals", c.engine_edge_reversals},
      {"core.rounds", c.engine_rounds},
      {"automata.concrete_steps", c.concrete_steps},
      {"automata.abstract_steps", c.abstract_steps},
      {"routing.events", c.routing_events},
      {"routing.reversals", c.routing_reversals},
      {"service.issued", c.service_issued},
      {"service.failed", c.service_failed},
      {"service.reversal_steps", c.service_reversal_steps},
      {"sim.messages", c.sim_messages},
      {"sim.resync_rounds", c.sim_resync_rounds},
      {"runner.cache_hits", c.cache_hits},
      {"runner.cache_misses", c.cache_misses},
      {"runner.frame_bytes", c.frame_bytes},
  };
  os << "counter,value\n";
  for (const auto& [name, value] : rows) os << name << ',' << value << '\n';
}

std::ofstream open_output(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write '" + path + "'");
  return os;
}

}  // namespace

int main(int argc, char** argv) {
  const bool frames = argc == 4 && std::string(argv[3]) == "--frames";
  if (argc != 3 && !frames) {
    std::fprintf(stderr, "usage: lr_trace_replay <spec.sweep> <out_dir> [--frames]\n");
    return 2;
  }
  try {
    std::ifstream spec_file(argv[1]);
    if (!spec_file) throw std::runtime_error(std::string("cannot open '") + argv[1] + "'");
    const std::vector<RunSpec> specs = SweepSpec::parse(spec_file).expand();
    const std::string out_dir = argv[2];

    Replay replay;
    bool codec_ok = true;
    {
      const SpanLog::Scope sweep_span(replay.spans(), "runner.sweep", -1);
      SweepReport report;
      report.records.reserve(specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        report.records.push_back(replay.run(specs[i], static_cast<std::int64_t>(i)));
      }
      if (frames) codec_ok = replay.codec(report.records);
      const SpanLog::Scope csv_span(replay.spans(), "trace.csv", -1);
      std::ofstream records = open_output(out_dir + "/records.csv");
      write_table_csv(records, report.records_table());
      std::ofstream aggregate = open_output(out_dir + "/aggregate.csv");
      write_table_csv(aggregate, report.aggregate_table());
    }
    std::ofstream spans = open_output(out_dir + "/spans.csv");
    replay.spans().write_csv(spans);
    std::ofstream counts = open_output(out_dir + "/counts.csv");
    write_counts(counts, replay.counts());
    if (!codec_ok) {
      std::fprintf(stderr, "error: record frames did not round-trip\n");
      return 1;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
