/// Experiment E2 — the Θ(n_b²) worst-case work bound (Busch et al.;
/// Welch–Walter), the quantitative backdrop of the paper's Section 1.
///
/// Series reproduced:
///  1. FR on the away-oriented chain: exactly n_b(n_b+1)/2 reversals —
///     growth exponent ≈ 2 (the tight worst case).
///  2. PR on the same chain: exactly n_b reversals — exponent ≈ 1 (the
///     chain is PR's *best* case; its Θ(n_b²) worst case needs a different
///     gadget, approximated below by an empirical adversarial search, per
///     docs/EXPERIMENTS.md).
///  3. Layered bad instances: measured work for both, still within the
///     quadratic ceiling.
///  4. Empirical PR worst case: max work/n_b over random instances and an
///     adversarial scheduler sweep.
///  5. A/B execution-path comparison (docs/PERFORMANCE.md): the batched
///     CSR engine vs the legacy automaton path on the stock E2 scenario
///     set.  Result tables must be byte-identical and final-state
///     checksums must match — the harness exits non-zero otherwise — and
///     the per-iteration nanoseconds on the largest stock topology are the
///     committed baseline numbers.
///  6. Parallel greedy rounds: the engine's sharded worklist kernels vs
///     the serial kernel across thread counts, plus the runner-level
///     engine_threads table A/B.  Results and final orientations must be
///     byte-identical at every thread count; the scaling numbers land in
///     docs/PERFORMANCE.md.
///
/// All measurement loops run through the scenario runner (src/runner), so
/// these series use exactly the code path of `lr_cli sweep` and execute
/// their runs on the thread pool.  Series tables are emitted as
/// trace-layer CSV (bench_util.hpp).  `--smoke` shrinks every series to
/// seconds and skips the google-benchmark micro-timings; CI runs it to
/// keep this harness from bit-rotting.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/rounds.hpp"
#include "automata/executor.hpp"
#include "automata/scheduler.hpp"
#include "core/full_reversal.hpp"
#include "core/pr.hpp"
#include "core/reversal_engine.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "runner/runner.hpp"

#include "bench_util.hpp"

namespace lr {
namespace {

RunSpec chain_spec(std::size_t n, AlgorithmKind algorithm) {
  RunSpec spec;
  spec.topology = TopologyKind::kChain;
  spec.size = n;
  spec.algorithm = algorithm;
  spec.scheduler = SchedulerKind::kLowestId;
  spec.seed = 1;
  return spec;
}

/// Largest chain of the stock series: nb = 512 (nb = 32 under --smoke).
std::size_t max_chain_nb(bool smoke) { return smoke ? 32 : 512; }

void print_chain_series(bool smoke) {
  bench::print_header("E2.1/E2.2: away-chain work, FR vs PR",
                      "FR = nb(nb+1)/2 exactly (Θ(nb²)); PR = nb exactly (Θ(nb))");
  std::vector<RunSpec> specs;
  std::vector<std::uint64_t> nbs;
  for (std::size_t nb = 4; nb <= max_chain_nb(smoke); nb *= 2) {
    specs.push_back(chain_spec(nb + 1, AlgorithmKind::kFullReversal));
    specs.push_back(chain_spec(nb + 1, AlgorithmKind::kOneStepPR));
    nbs.push_back(nb);
  }
  const std::vector<RunRecord> records = ScenarioRunner().run_all(specs);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fr_series, pr_series;
  Table table;
  table.columns = {"nb", "fr_measured", "fr_closed", "pr_measured", "pr_closed"};
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    const std::uint64_t nb = nbs[i];
    const RunRecord& fr = records[2 * i];
    const RunRecord& pr = records[2 * i + 1];
    fr_series.emplace_back(nb, fr.work);
    pr_series.emplace_back(nb, pr.work);
    table.add_row({bench::fmt_u(nb), bench::fmt_u(fr.work), bench::fmt_u(fr_chain_work(nb)),
                   bench::fmt_u(pr.work), bench::fmt_u(pr_chain_work(nb))});
  }
  bench::emit_csv(table);
  std::printf("growth exponent: FR=%.3f (expect ~2), PR=%.3f (expect ~1)\n",
              fit_growth_exponent(fr_series), fit_growth_exponent(pr_series));
}

/// The E2.3 scenario list (fr/pr pairs per (size, seed)); shared by the
/// series printer and the A/B equality set so they cannot drift apart.
std::vector<RunSpec> layered_specs(bool smoke) {
  const std::vector<std::size_t> sizes = smoke ? std::vector<std::size_t>{16}
                                               : std::vector<std::size_t>{16, 48, 112};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2};
  std::vector<RunSpec> specs;
  for (const std::size_t size : sizes) {
    for (const std::uint64_t seed : seeds) {
      for (const AlgorithmKind algorithm :
           {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR}) {
        RunSpec spec;
        spec.topology = TopologyKind::kLayered;
        spec.size = size;
        spec.algorithm = algorithm;
        spec.seed = seed;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

void print_layered_series(bool smoke) {
  bench::print_header("E2.3: layered all-bad instances",
                      "work within the 2·nb²+nb ceiling for both algorithms");
  const std::vector<RunRecord> records = ScenarioRunner().run_all(layered_specs(smoke));
  Table table;
  table.columns = {"size", "nodes", "nb", "fr_work", "pr_work", "ceiling"};
  for (std::size_t i = 0; i + 1 < records.size(); i += 2) {
    const RunRecord& fr = records[i];
    const RunRecord& pr = records[i + 1];
    table.add_row({bench::fmt_u(fr.spec.size), bench::fmt_u(fr.nodes),
                   bench::fmt_u(fr.bad_nodes), bench::fmt_u(fr.work), bench::fmt_u(pr.work),
                   bench::fmt_u(quadratic_work_ceiling(fr.bad_nodes))});
  }
  bench::emit_csv(table);
}

SweepSpec adversarial_sweep(bool smoke) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kRandom};
  sweep.sizes = smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 32, 64};
  sweep.algorithms = {AlgorithmKind::kOneStepPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kFarthestFirst,
                      SchedulerKind::kRandom};
  const std::uint64_t seed_count = smoke ? 8 : 40;
  for (std::uint64_t seed = 1; seed <= seed_count; ++seed) sweep.seeds.push_back(seed);
  return sweep;
}

void print_pr_adversarial_search(bool smoke) {
  bench::print_header("E2.4: empirical PR worst case (adversarial search)",
                      "max PR work / nb over random instances & schedulers; "
                      "bounded by the quadratic ceiling");
  const SweepSpec sweep = adversarial_sweep(smoke);
  const SweepReport report = ScenarioRunner().run(sweep);
  Table table;
  table.columns = {"n", "instances", "max_work_per_nb", "max_work_per_nb2", "ceiling_ok"};
  for (const std::size_t n : sweep.sizes) {
    double max_ratio_linear = 0;
    double max_ratio_quad = 0;
    bool ceiling_ok = true;
    for (const RunRecord& record : report.records) {
      if (record.spec.size != n || record.bad_nodes == 0) continue;
      const auto nb = static_cast<double>(record.bad_nodes);
      max_ratio_linear = std::max(max_ratio_linear, static_cast<double>(record.work) / nb);
      max_ratio_quad = std::max(max_ratio_quad, static_cast<double>(record.work) / (nb * nb));
      if (record.work > quadratic_work_ceiling(record.bad_nodes)) ceiling_ok = false;
    }
    table.add_row({std::to_string(n), bench::fmt_u(sweep.seeds.size()) + "x3",
                   bench::fmt(max_ratio_linear), bench::fmt(max_ratio_quad),
                   ceiling_ok ? "yes" : "NO"});
  }
  bench::emit_csv(table);
}

// ---------------------------------------------------------------------------
// E2.5: the legacy-vs-CSR A/B comparison
// ---------------------------------------------------------------------------

/// The stock E2 scenario set (series 1–3), the set the A/B equality check
/// replays on both execution paths.
std::vector<RunSpec> stock_specs(bool smoke) {
  std::vector<RunSpec> specs;
  for (std::size_t nb = 4; nb <= max_chain_nb(smoke); nb *= 2) {
    specs.push_back(chain_spec(nb + 1, AlgorithmKind::kFullReversal));
    specs.push_back(chain_spec(nb + 1, AlgorithmKind::kOneStepPR));
  }
  for (const RunSpec& spec : layered_specs(smoke)) specs.push_back(spec);
  for (const RunSpec& spec : adversarial_sweep(smoke).expand()) specs.push_back(spec);
  return specs;
}

/// Final-orientation checksum of one spec on the legacy path (automaton +
/// LowestIdScheduler, the stock chain-series configuration).
std::uint64_t legacy_checksum(const RunSpec& spec) {
  const Instance instance = make_instance(spec);
  LowestIdScheduler scheduler;
  if (spec.algorithm == AlgorithmKind::kFullReversal) {
    FullReversalAutomaton automaton(instance);
    run_to_quiescence(automaton, scheduler, RunOptions{.max_steps = spec.max_steps});
    return senses_checksum(automaton.orientation().senses());
  }
  OneStepPRAutomaton automaton(instance);
  run_to_quiescence(automaton, scheduler, RunOptions{.max_steps = spec.max_steps});
  return senses_checksum(automaton.orientation().senses());
}

/// Final-orientation checksum of one spec on the CSR path.
std::uint64_t csr_checksum(const RunSpec& spec) {
  const Instance instance = make_instance(spec);
  ReversalEngine engine(instance);
  engine.run(spec.algorithm == AlgorithmKind::kFullReversal ? EngineAlgorithm::kFullReversal
                                                            : EngineAlgorithm::kOneStepPR,
             EnginePolicy::kLowestId, {.max_steps = spec.max_steps});
  return engine.state_checksum();
}

/// Times execute_run (instance construction + kernel, the exact per-run
/// work of a sweep) on both paths for one scenario.  A converged fr/pr run
/// on the CSR path reads its greedy rounds off the single-step run's round
/// clocks; the legacy path still runs its rounds pass.  The
/// checksum helpers above verify the lowest-id configuration, so that is
/// the only scheduler this harness accepts.
bench::AbSample measure_ab(const std::string& topology_label, RunSpec spec, bool smoke) {
  if (spec.scheduler != SchedulerKind::kLowestId) {
    throw std::invalid_argument("measure_ab: checksums are computed for lowest-id only");
  }
  const double min_ms = smoke ? 20.0 : 300.0;
  bench::AbSample sample;
  sample.topology = topology_label;
  sample.label = algorithm_token(spec.algorithm);
  spec.path = ExecutionPath::kLegacy;
  sample.legacy_ns_per_iter = bench::measure_ns_per_iter(
      [&spec] { execute_run(spec); }, 5, min_ms, &sample.legacy_iterations);
  sample.legacy_checksum = legacy_checksum(spec);
  spec.path = ExecutionPath::kCsr;
  sample.csr_ns_per_iter = bench::measure_ns_per_iter([&spec] { execute_run(spec); }, 5, min_ms,
                                                      &sample.csr_iterations);
  sample.csr_checksum = csr_checksum(spec);
  return sample;
}

/// E2.5 driver; returns false (failing the harness) if any path pair
/// diverged in tables or checksums.
bool print_ab_series(bool smoke) {
  bench::print_header("E2.5: execution-path A/B, legacy automata vs batched CSR engine",
                      "identical tables and final states; CSR >= 3x on the largest "
                      "stock topology (docs/PERFORMANCE.md)");
  const bool tables_ok = bench::ab_tables_identical(stock_specs(smoke));

  const std::size_t nb = max_chain_nb(smoke);
  std::vector<bench::AbSample> samples;
  const std::string chain_label = "chain-" + std::to_string(nb);
  samples.push_back(measure_ab(chain_label, chain_spec(nb + 1, AlgorithmKind::kFullReversal),
                               smoke));
  samples.push_back(measure_ab(chain_label, chain_spec(nb + 1, AlgorithmKind::kOneStepPR),
                               smoke));
  if (!smoke) {
    RunSpec layered;
    layered.topology = TopologyKind::kLayered;
    layered.size = 112;
    layered.seed = 1;
    layered.algorithm = AlgorithmKind::kFullReversal;
    samples.push_back(measure_ab("layered-112", layered, smoke));
    layered.algorithm = AlgorithmKind::kOneStepPR;
    samples.push_back(measure_ab("layered-112", layered, smoke));
  }
  bench::emit_csv(bench::ab_table(samples));

  bool checksums_ok = true;
  for (const bench::AbSample& sample : samples) checksums_ok &= sample.identical();
  std::printf("checksums: %s\n", checksums_ok ? "all identical" : "MISMATCH");
  if (!smoke) {
    std::printf("largest stock topology (%s) speedup: fr=%.2fx pr=%.2fx (target >= 3x)\n",
                chain_label.c_str(), samples[0].speedup(), samples[1].speedup());
  }
  return tables_ok && checksums_ok;
}

// ---------------------------------------------------------------------------
// E2.6: parallel greedy rounds — serial engine vs sharded worklist kernels
// ---------------------------------------------------------------------------

/// One rounds A/B measurement on a fixed instance: the legacy maximal-set
/// path (analysis/rounds.hpp, the ExecutionPath::kLegacy counterpart) vs
/// the batched engine serial and sharded with pools of 2 / 4 workers.
/// Every engine configuration is checksum-verified against the serial
/// result, and the legacy path against the round/step totals, before any
/// timing is trusted.
struct RoundsSample {
  std::string topology;              ///< instance label, e.g. "grid-64"
  std::string kernel;                ///< "fr" or "pr"
  std::uint64_t rounds = 0;          ///< greedy rounds to convergence
  std::uint64_t node_steps = 0;      ///< total sink fires (round widths sum)
  double legacy_ns = 0.0;            ///< legacy maximal-set path
  double serial_ns = 0.0;            ///< engine, 1 worker
  double t2_ns = 0.0;                ///< engine, 2 workers
  double t4_ns = 0.0;                ///< engine, 4 workers
  std::uint64_t serial_checksum = 0;  ///< final orientation, serial kernel
  bool identical = true;  ///< all configurations matched the serial kernel

  /// Rounds per second at the given per-execution cost.
  double throughput(double ns) const {
    return ns > 0.0 ? static_cast<double>(rounds) * 1e9 / ns : 0.0;
  }
};

RoundsSample measure_parallel_rounds(const std::string& label, const Instance& instance,
                                     EngineAlgorithm algorithm, bool smoke) {
  const double min_ms = smoke ? 10.0 : 200.0;
  const std::uint64_t budget = 10'000'000;
  RoundsSample sample;
  sample.topology = label;
  sample.kernel = algorithm == EngineAlgorithm::kFullReversal ? "fr" : "pr";

  ReversalEngine engine(instance);
  const EngineRoundsResult serial = engine.run_greedy_rounds(algorithm, budget);
  sample.rounds = serial.rounds;
  sample.node_steps = serial.node_steps;
  sample.serial_checksum = engine.state_checksum();
  sample.serial_ns =
      bench::measure_ns_per_iter([&] { engine.run_greedy_rounds(algorithm, budget); }, 3, min_ms);

  const RoundStrategy legacy_strategy = algorithm == EngineAlgorithm::kFullReversal
                                            ? RoundStrategy::kFullReversal
                                            : RoundStrategy::kPartialReversal;
  const RoundHistory history = run_greedy_rounds(instance, legacy_strategy, budget);
  sample.identical &= history.total_rounds() == serial.rounds &&
                      history.total_node_steps() == serial.node_steps &&
                      history.converged == serial.converged;
  sample.legacy_ns = bench::measure_ns_per_iter(
      [&] { run_greedy_rounds(instance, legacy_strategy, budget); }, 3, min_ms);

  for (const std::size_t workers : {2u, 4u}) {
    ThreadPool pool(workers);
    // Verification forces the sharded kernel onto *every* round
    // (min_parallel_work = 1) so the equality check genuinely exercises
    // the parallel path at smoke sizes too; the timing runs keep the
    // default threshold, the configuration users get.
    const EngineRoundsOptions verify_options{
        .max_rounds = budget, .pool = &pool, .min_parallel_work = 1};
    const EngineRoundsResult parallel = engine.run_greedy_rounds(algorithm, verify_options);
    sample.identical &= parallel.rounds == serial.rounds &&
                        parallel.node_steps == serial.node_steps &&
                        parallel.edge_reversals == serial.edge_reversals &&
                        parallel.converged == serial.converged &&
                        engine.state_checksum() == sample.serial_checksum;
    const EngineRoundsOptions timing_options{.max_rounds = budget, .pool = &pool};
    const double ns = bench::measure_ns_per_iter(
        [&] { engine.run_greedy_rounds(algorithm, timing_options); }, 3, min_ms);
    (workers == 2 ? sample.t2_ns : sample.t4_ns) = ns;
  }
  return sample;
}

/// E2.6 driver; returns false if any thread count diverged from the serial
/// kernel (results or final orientation).  Also replays a stock scenario
/// subset through the runner at engine_threads 1 vs 4 and demands
/// byte-identical record + aggregate tables — the ExecutionPath-style
/// harness for the engine_threads sweep option.
bool print_parallel_rounds_series(bool smoke) {
  bench::print_header(
      "E2.6: parallel greedy rounds, serial vs sharded worklist kernels",
      "byte-identical results and orientations at every thread count; wide "
      "rounds scale with cores (docs/PERFORMANCE.md records the table)");

  // Runner-level A/B over the chain + layered stock scenarios: the rounds
  // pass is the only engine_threads consumer, so tables must be
  // byte-identical across thread counts.  A converged fr/pr run reads its
  // rounds off the single-step run's round clocks and never reaches the
  // pass, and the stock sizes all sit below the engine's work threshold
  // (round width x max firing degree >= min_parallel_work) anyway, so two
  // wide specs ride along with step budgets that cut the single-step run
  // but not the rounds pass: chain-4096 (8,390,656 FR steps cut at 10^6;
  // 8,191 rounds, peak width 2048 at degree 2 — work 4096, shards) and
  // star-4097 (6,144 steps cut at 1,000; 3 rounds whose leaf rounds are
  // 2048 x degree 1 — work 2048, and the hub fires alone — the negative
  // control that must stay on the inline path even with a pool in hand).
  // Without a cut chain-4096 the A/B would compare serial against serial,
  // so the harness fails if either wide spec converges.
  std::vector<RunSpec> specs;
  for (std::size_t nb = 4; nb <= max_chain_nb(smoke); nb *= 2) {
    specs.push_back(chain_spec(nb + 1, AlgorithmKind::kFullReversal));
    specs.push_back(chain_spec(nb + 1, AlgorithmKind::kOneStepPR));
  }
  for (const RunSpec& spec : layered_specs(smoke)) specs.push_back(spec);
  const std::size_t wide_begin = specs.size();
  RunSpec wide_chain = chain_spec(4097, AlgorithmKind::kFullReversal);
  wide_chain.max_steps = 1'000'000;
  specs.push_back(wide_chain);
  RunSpec wide_star;
  wide_star.topology = TopologyKind::kStar;
  wide_star.size = 4097;
  wide_star.algorithm = AlgorithmKind::kFullReversal;
  wide_star.max_steps = 1'000;
  specs.push_back(wide_star);
  const auto records_at = [&specs](std::size_t engine_threads) {
    std::vector<RunSpec> configured = specs;
    for (RunSpec& spec : configured) spec.engine_threads = engine_threads;
    return ScenarioRunner().run_all(configured);
  };
  const std::vector<RunRecord> serial = records_at(1);
  const bool tables_ok = bench::sweep_report_csv(SweepReport{serial, {}}) ==
                         bench::sweep_report_csv(SweepReport{records_at(4), {}});
  std::printf("engine_threads 1 vs 4 over %zu stock scenarios: %s\n", specs.size(),
              tables_ok ? "byte-identical tables" : "TABLE MISMATCH");
  bool wide_cut = true;
  for (std::size_t i = wide_begin; i < serial.size(); ++i) {
    wide_cut &= !serial[i].converged && serial[i].rounds > 0;
  }
  std::printf("wide specs cut by their step budgets, rounds from the rounds pass: %s\n",
              wide_cut ? "yes" : "NO (the engine_threads A/B compared serial against serial)");

  // Engine-level scaling: narrow-round worst case (chain), mixed-width
  // (grid, random), and maximally wide rounds (star).
  std::mt19937_64 rng(23);
  const std::size_t chain_nb = smoke ? 256 : 4096;
  const std::size_t grid_side = smoke ? 16 : 64;
  const std::size_t star_n = smoke ? 257 : 4097;
  const std::size_t random_n = smoke ? 256 : 4096;
  std::vector<RoundsSample> samples;
  samples.push_back(measure_parallel_rounds("chain-" + std::to_string(chain_nb),
                                            make_worst_case_chain(chain_nb + 1),
                                            EngineAlgorithm::kFullReversal, smoke));
  const Instance grid = make_grid_instance(grid_side, grid_side, rng);
  samples.push_back(measure_parallel_rounds("grid-" + std::to_string(grid_side), grid,
                                            EngineAlgorithm::kFullReversal, smoke));
  samples.push_back(measure_parallel_rounds("grid-" + std::to_string(grid_side), grid,
                                            EngineAlgorithm::kOneStepPR, smoke));
  samples.push_back(measure_parallel_rounds("star-" + std::to_string(star_n),
                                            make_sink_source_instance(star_n),
                                            EngineAlgorithm::kFullReversal, smoke));
  samples.push_back(measure_parallel_rounds("random-" + std::to_string(random_n),
                                            make_random_instance(random_n, 2 * random_n, rng),
                                            EngineAlgorithm::kOneStepPR, smoke));

  Table table;
  table.columns = {"topology",       "kernel",        "rounds",        "node_steps",
                   "legacy_ns",      "serial_ns",     "t2_ns",         "t4_ns",
                   "rounds_per_sec_t2", "speedup_vs_legacy_t2", "speedup_vs_serial_t2",
                   "speedup_vs_serial_t4", "serial_checksum", "identical"};
  bool checksums_ok = true;
  for (const RoundsSample& sample : samples) {
    checksums_ok &= sample.identical;
    table.add_row({sample.topology, sample.kernel, bench::fmt_u(sample.rounds),
                   bench::fmt_u(sample.node_steps), bench::fmt(sample.legacy_ns),
                   bench::fmt(sample.serial_ns), bench::fmt(sample.t2_ns),
                   bench::fmt(sample.t4_ns), bench::fmt(sample.throughput(sample.t2_ns)),
                   bench::fmt(sample.t2_ns > 0 ? sample.legacy_ns / sample.t2_ns : 0.0),
                   bench::fmt(sample.t2_ns > 0 ? sample.serial_ns / sample.t2_ns : 0.0),
                   bench::fmt(sample.t4_ns > 0 ? sample.serial_ns / sample.t4_ns : 0.0),
                   bench::fmt_hex(sample.serial_checksum), sample.identical ? "yes" : "NO"});
  }
  bench::emit_csv(table);
  std::printf("parallel-vs-serial and legacy-vs-engine results: %s\n",
              checksums_ok ? "all identical" : "MISMATCH");
  return tables_ok && wide_cut && checksums_ok;
}

void BM_FRChain(benchmark::State& state) {
  const std::size_t nb = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_worst_case_chain(nb + 1);
  for (auto _ : state) {
    FullReversalAutomaton fr(inst);
    LowestIdScheduler scheduler;
    benchmark::DoNotOptimize(run_to_quiescence(fr, scheduler).node_steps);
  }
  state.SetComplexityN(static_cast<std::int64_t>(nb));
}
BENCHMARK(BM_FRChain)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_PRChain(benchmark::State& state) {
  const std::size_t nb = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_worst_case_chain(nb + 1);
  for (auto _ : state) {
    OneStepPRAutomaton pr(inst);
    LowestIdScheduler scheduler;
    benchmark::DoNotOptimize(run_to_quiescence(pr, scheduler).node_steps);
  }
  state.SetComplexityN(static_cast<std::int64_t>(nb));
}
BENCHMARK(BM_PRChain)->RangeMultiplier(2)->Range(8, 256)->Complexity();

/// The batched engine on the same chains (contrast with BM_FRChain /
/// BM_PRChain; the engine amortizes its allocations across iterations the
/// same way a sweep does).
void BM_EngineChain(benchmark::State& state) {
  const std::size_t nb = static_cast<std::size_t>(state.range(0));
  const bool full = state.range(1) != 0;
  const Instance inst = make_worst_case_chain(nb + 1);
  ReversalEngine engine(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_to_quiescence(engine,
                          full ? EngineAlgorithm::kFullReversal : EngineAlgorithm::kOneStepPR,
                          EnginePolicy::kLowestId)
            .node_steps);
  }
  state.SetComplexityN(static_cast<std::int64_t>(nb));
}
BENCHMARK(BM_EngineChain)->ArgsProduct({{8, 16, 32, 64, 128, 256}, {0, 1}})->Complexity();

/// The parallel sweep engine itself, end to end (expansion + pool + tables).
void BM_ScenarioSweep(benchmark::State& state) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {32};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR};
  sweep.schedulers = {SchedulerKind::kLowestId};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) sweep.seeds.push_back(seed);
  const ScenarioRunner runner(RunnerOptions{.threads = static_cast<std::size_t>(state.range(0))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(sweep).records.size());
  }
}
BENCHMARK(BM_ScenarioSweep)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  const bool smoke = lr::bench::consume_smoke_flag(argc, argv);
  lr::print_chain_series(smoke);
  lr::print_layered_series(smoke);
  lr::print_pr_adversarial_search(smoke);
  if (!lr::print_ab_series(smoke)) {
    std::fprintf(stderr, "E2.5 A/B verification FAILED\n");
    return 1;
  }
  if (!lr::print_parallel_rounds_series(smoke)) {
    std::fprintf(stderr, "E2.6 parallel-rounds verification FAILED\n");
    return 1;
  }
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
