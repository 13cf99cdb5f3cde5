/// Experiment E5 — the Section 5 simulation relations, measured: every PR
/// step maps to |S| OneStepPR steps (Lemma 5.1) and every OneStepPR step to
/// 1..2 NewPR steps (Lemma 5.3); the relations hold at every matched point;
/// the reverse direction (the conclusion's proposed extension) holds with
/// dummy steps mapping to empty sequences.
///
/// The measurement loop runs the sim-rprime / sim-r / sim-rrev kernels of
/// the scenario runner (src/runner), i.e. the same relation-check code
/// `lr_cli sweep` executes, fanned out over the thread pool.
///
/// E5.2 is the execution-path A/B mode (docs/PERFORMANCE.md): the sim-*
/// kernels replayed on `path = legacy` (per-run instance regeneration)
/// versus `path = csr` (the sweep cache's frozen instances).  The relation
/// checkers themselves are inherently legacy-shaped — they drive the
/// paper's automata step by step — so this A/B isolates exactly the sweep
/// cache's instance-amortization win.  Record tables must be
/// byte-identical (FNV-1a table checksums) before the timings are trusted;
/// the harness exits non-zero otherwise.  `--smoke` shrinks the series,
/// skips the micro-timings, and also fails on any relation violation.
///
/// E5.3 is the event-core scheduler A/B: a self-replenishing event storm
/// replayed on the binary-heap and timing-wheel time-index backends
/// (sim/time_index.hpp), with an execution-order FNV fingerprint that both
/// must reproduce exactly before the events/sec figures are trusted.
///
/// E5.4 is the scaling series of the relation checker itself: sim-r and
/// sim-rrev on random graphs of 10^3–10^5 nodes, reporting steps, µs per
/// concrete step and clauses evaluated per step.  At 2·10^3 nodes it also
/// runs the every-step oracle (tests/simulation_oracle.hpp) and fails on
/// any difference in the runs' record checksums.

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "automata/scheduler.hpp"
#include "automata/simulation.hpp"
#include "core/relations.hpp"
#include "graph/digraph_algos.hpp"
#include "graph/generators.hpp"
#include "runner/runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/time_index.hpp"
#include "simulation_oracle.hpp"

#include "bench_util.hpp"

namespace lr {
namespace {

const char* relation_label(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kSimRPrime:
      return "R'(PR->1Step)";
    case AlgorithmKind::kSimR:
      return "R(1Step->New)";
    case AlgorithmKind::kSimRRev:
      return "Rrev(New->1Step)";
    default:
      return "?";
  }
}

/// E5.1 driver; returns false if any relation check failed (the smoke
/// mode's correctness gate).
bool print_expansion_table(bool smoke) {
  bench::print_header("E5.1: simulation-relation checks & step expansion factors",
                      "R'/R hold everywhere; expansion in [1,2] for R, = |S| for R'");
  bench::print_row({"n", "relation", "concrete", "abstract", "expansion", "ok"});
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kRandom};
  sweep.sizes = smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64, 256};
  sweep.algorithms = {AlgorithmKind::kSimRPrime, AlgorithmKind::kSimR, AlgorithmKind::kSimRRev};
  sweep.schedulers = {SchedulerKind::kRandom};
  sweep.seeds = {1};
  const SweepReport report = ScenarioRunner().run(sweep);
  bool all_hold = true;
  for (const RunRecord& record : report.records) {
    const double expansion = record.work == 0 ? 0.0
                                              : static_cast<double>(record.abstract_steps) /
                                                    static_cast<double>(record.work);
    const bool holds = record.relation == RelationVerdict::kHolds;
    all_hold &= holds;
    bench::print_row({bench::fmt_u(record.spec.size), relation_label(record.spec.algorithm),
                      bench::fmt_u(record.work), bench::fmt_u(record.abstract_steps),
                      bench::fmt(expansion), holds ? "yes" : "NO"});
  }
  return all_hold;
}

// ---------------------------------------------------------------------------
// E5.2: the legacy-vs-CSR A/B comparison of the sim-* kernels
// ---------------------------------------------------------------------------

/// The stock E5 scenario set the A/B equality check replays on both paths.
std::vector<RunSpec> stock_specs(bool smoke) {
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{12} : std::vector<std::size_t>{16, 48};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2, 3};
  std::vector<RunSpec> specs;
  for (const std::size_t size : sizes) {
    for (const AlgorithmKind algorithm :
         {AlgorithmKind::kSimRPrime, AlgorithmKind::kSimR, AlgorithmKind::kSimRRev}) {
      for (const std::uint64_t seed : seeds) {
        RunSpec spec;
        spec.topology = TopologyKind::kRandom;
        spec.size = size;
        spec.algorithm = algorithm;
        spec.scheduler = SchedulerKind::kRandom;
        spec.seed = seed;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// E5.2 driver; returns false (failing the harness) if any path pair
/// diverged in tables or checksums.  The equality check, the warm-cache
/// timing protocol, and the checksum columns are the shared kit in
/// bench_util.hpp.
bool print_ab_series(bool smoke) {
  bench::print_header("E5.2: execution-path A/B, per-run regeneration vs cached instances",
                      "identical tables and table checksums; csr amortizes instance "
                      "generation across a sweep (docs/PERFORMANCE.md)");
  const bool tables_ok = bench::ab_tables_identical(stock_specs(smoke));

  const std::size_t n = smoke ? 12 : 48;
  const std::string label = "random-" + std::to_string(n);
  std::vector<bench::AbSample> samples;
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kSimRPrime, AlgorithmKind::kSimR, AlgorithmKind::kSimRRev}) {
    RunSpec spec;
    spec.topology = TopologyKind::kRandom;
    spec.size = n;
    spec.algorithm = algorithm;
    spec.scheduler = SchedulerKind::kRandom;
    spec.seed = 1;
    samples.push_back(bench::measure_cached_ab(label, spec, smoke ? 20.0 : 300.0));
  }
  bench::emit_csv(bench::ab_table(samples));

  bool checksums_ok = true;
  for (const bench::AbSample& sample : samples) checksums_ok &= sample.identical();
  std::printf("table checksums: %s\n", checksums_ok ? "all identical" : "MISMATCH");
  return tables_ok && checksums_ok;
}

// ---------------------------------------------------------------------------
// E5.3: the event-core scheduler A/B (binary heap vs hierarchical wheel)
// ---------------------------------------------------------------------------

/// One self-replenishing event storm on a fresh EventQueue: each fired
/// event draws from the RNG *in execution order* and reschedules followers
/// with a bimodal (mostly-near, occasionally-far) delay profile.  Heap and
/// wheel therefore produce the same order fingerprint only if they agree
/// on the exact execution order — any divergence forks the RNG stream and
/// snowballs into a different checksum.
struct StormResult {
  std::uint64_t checksum = 0;
  std::uint64_t executed = 0;
};

StormResult run_event_storm(EventSchedulerKind backend, std::uint64_t events,
                            std::uint64_t seed) {
  EventQueue queue(backend);
  std::mt19937_64 rng(seed);
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  std::uint64_t remaining = events;
  std::function<void()> fire;
  fire = [&] {
    mix(queue.now());
    const std::uint64_t fan = 1 + rng() % 2;
    for (std::uint64_t i = 0; i < fan && remaining > 0; ++i) {
      --remaining;
      const SimTime delay = rng() % 16 == 0 ? 1 + static_cast<SimTime>(rng() % 4096)
                                            : 1 + static_cast<SimTime>(rng() % 12);
      queue.schedule_in(delay, fire);
    }
  };
  for (int i = 0; i < 32 && remaining > 0; ++i) {
    --remaining;
    queue.schedule_at(rng() % 8, fire);
  }
  StormResult result;
  result.executed = queue.run_until_idle();
  result.checksum = hash;
  return result;
}

/// E5.3 driver; returns false if the two backends disagree on the order
/// fingerprint (a correctness failure of the wheel, not a perf matter).
bool print_event_core_series(bool smoke) {
  bench::print_header("E5.3: event-core scheduler A/B, binary heap vs timing wheel",
                      "identical execution-order fingerprints; events/sec per backend "
                      "(docs/PERFORMANCE.md)");
  const std::uint64_t events = smoke ? 20'000 : 400'000;
  Table table;
  table.columns = {"backend", "events", "ns_per_event", "events_per_sec", "order_checksum",
                   "identical"};
  StormResult reference;
  bool identical = true;
  for (const EventSchedulerKind backend :
       {EventSchedulerKind::kHeap, EventSchedulerKind::kWheel}) {
    StormResult result;
    const double ns_per_storm = bench::measure_ns_per_iter(
        [&] { result = run_event_storm(backend, events, 41); }, smoke ? 1 : 5,
        smoke ? 0.0 : 200.0);
    if (backend == EventSchedulerKind::kHeap) reference = result;
    identical &= result.checksum == reference.checksum && result.executed == reference.executed;
    const double ns_per_event = ns_per_storm / static_cast<double>(result.executed);
    table.add_row({event_scheduler_token(backend), bench::fmt_u(result.executed),
                   bench::fmt(ns_per_event), bench::fmt(1e9 / ns_per_event),
                   bench::fmt_hex(result.checksum),
                   result.checksum == reference.checksum ? "yes" : "NO"});
  }
  bench::emit_csv(table);
  std::printf("order checksums: %s\n", identical ? "identical" : "MISMATCH");
  return identical;
}

// ---------------------------------------------------------------------------
// E5.4: the relation checker at scale, and against the every-step oracle
// ---------------------------------------------------------------------------

/// One sim-r / sim-rrev run as the runner's kernel executes it (lowest-id
/// scheduler, the sweep default): the checker's result, the other record
/// fields, and the time of one check.
struct CheckRun {
  SimulationCheckResult result;
  std::uint64_t edge_reversals = 0;
  bool converged = false;
  double ns = 0.0;

  /// FNV-1a over the fields the run's sweep record carries.
  std::uint64_t record_checksum() const {
    return bench::fnv1a(std::to_string(result.concrete_steps) + "," +
                        std::to_string(result.abstract_steps) + "," +
                        (result.ok ? "ok," : "violated,") + std::to_string(edge_reversals) + "," +
                        (converged ? "yes" : "no"));
  }
};

/// Times `check(concrete, abstract, scheduler)` on fresh automata over
/// `inst` (repeated up to `min_total_ms` for the small sizes).
template <typename C, typename B, typename Check>
CheckRun time_check(const Instance& inst, Check&& check, double min_total_ms) {
  CheckRun run;
  run.ns = bench::measure_ns_per_iter(
      [&] {
        C concrete(inst);
        B abstract(inst);
        LowestIdScheduler scheduler;
        run.result = check(concrete, abstract, scheduler);
        run.edge_reversals = concrete.orientation().reversal_count();
        run.converged = is_destination_oriented(concrete.orientation(), concrete.destination());
      },
      1, min_total_ms);
  return run;
}

/// Runs one relation at one size with the production checker and, when
/// `with_oracle`, with the every-step oracle; adds the table row and
/// returns false on a violated relation or a checksum difference.
template <typename C, typename B, typename Relation, typename OracleRelation,
          typename Correspondence>
bool scale_row(Table& table, std::size_t n, const char* label, const Instance& inst,
               const Relation& relation, OracleRelation oracle_relation,
               Correspondence correspond, bool with_oracle, double min_total_ms) {
  const CheckRun run = time_check<C, B>(
      inst,
      [&](C& c, B& b, LowestIdScheduler& s) {
        return check_forward_simulation(c, b, s, relation, correspond);
      },
      min_total_ms);
  const double steps = static_cast<double>(std::max<std::uint64_t>(run.result.concrete_steps, 1));
  std::vector<std::string> row = {bench::fmt_u(n),
                                  label,
                                  bench::fmt_u(run.result.concrete_steps),
                                  bench::fmt(run.ns / 1e6),
                                  bench::fmt(run.ns / 1e3 / steps),
                                  bench::fmt(static_cast<double>(run.result.clause_checks) / steps),
                                  bench::fmt_hex(run.record_checksum())};
  bool ok = run.result.ok;
  if (with_oracle) {
    const CheckRun every_step = time_check<C, B>(
        inst,
        [&](C& c, B& b, LowestIdScheduler& s) {
          return oracle::check_forward_simulation(c, b, s, oracle_relation, correspond);
        },
        0.0);
    const bool identical = every_step.record_checksum() == run.record_checksum();
    ok &= identical;
    row.insert(row.end(), {bench::fmt(every_step.ns / 1e6),
                           bench::fmt_hex(every_step.record_checksum()), identical ? "yes" : "NO"});
  } else {
    row.insert(row.end(), {"-", "-", "-"});
  }
  table.add_row(row);
  return ok;
}

/// Prints E5.4; returns false on any violated relation or any record
/// checksum that differs from the oracle's.
bool print_checker_scaling_series(bool smoke) {
  bench::print_header("E5.4: relation checker scaling, local re-checks + checkpoints",
                      "cost per step tracks touched degree; records identical to the "
                      "every-step oracle (docs/PERFORMANCE.md)");
  constexpr std::size_t kOracleSize = 2000;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{kOracleSize}
            : std::vector<std::size_t>{1000, kOracleSize, 10'000, 100'000};
  const double min_total_ms = smoke ? 0.0 : 200.0;
  Table table;
  table.columns = {"n",         "relation",        "steps",    "check_ms",
                   "us_per_step", "clauses_per_step", "checksum", "oracle_ms",
                   "oracle_checksum", "identical"};
  bool ok = true;
  for (const std::size_t n : sizes) {
    RunSpec spec;
    spec.topology = TopologyKind::kRandom;
    spec.size = n;
    const Instance inst = make_instance(spec);
    const bool with_oracle = n == kOracleSize;
    ok &= scale_row<OneStepPRAutomaton, NewPRAutomaton>(
        table, n, "sim-r", inst, relation_R, oracle::relation_R, correspondence_R, with_oracle,
        min_total_ms);
    ok &= scale_row<NewPRAutomaton, OneStepPRAutomaton>(
        table, n, "sim-rrev", inst, reverse_relation_R, oracle::reverse_relation_R,
        correspondence_R_reverse, with_oracle, min_total_ms);
  }
  bench::emit_csv(table);
  std::printf("relations and oracle checksums: %s\n", ok ? "all hold, identical" : "FAILED");
  return ok;
}

void BM_SimulationCheckRPrime(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(9);
  const Instance inst = make_random_instance(n, n, rng);
  for (auto _ : state) {
    PRAutomaton concrete(inst);
    OneStepPRAutomaton abstract(inst);
    RandomSetScheduler scheduler(1);
    const auto r = check_forward_simulation(concrete, abstract, scheduler, relation_R_prime,
                                            correspondence_R_prime);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_SimulationCheckRPrime)->Arg(32)->Arg(128);

void BM_RelationRPredicate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(10);
  const Instance inst = make_random_instance(n, n, rng);
  OneStepPRAutomaton s(inst);
  NewPRAutomaton t(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(relation_R(s, t));
  }
}
BENCHMARK(BM_RelationRPredicate)->Arg(64)->Arg(512);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  const bool smoke = lr::bench::consume_smoke_flag(argc, argv);
  const bool relations_ok = lr::print_expansion_table(smoke);
  if (smoke && !relations_ok) {
    std::fprintf(stderr, "E5.1 relation check FAILED\n");
    return 1;
  }
  if (!lr::print_ab_series(smoke)) {
    std::fprintf(stderr, "E5.2 A/B verification FAILED\n");
    return 1;
  }
  if (!lr::print_event_core_series(smoke)) {
    std::fprintf(stderr, "E5.3 event-core A/B verification FAILED\n");
    return 1;
  }
  if (!lr::print_checker_scaling_series(smoke)) {
    std::fprintf(stderr, "E5.4 relation checker verification FAILED\n");
    return 1;
  }
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
