#!/usr/bin/env python3
"""The repository's benchmark: four `lr_cli sweep` workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout: it builds `lr_cli`, the traced
replay and the launcher into `.bench_build/`, measures the workload for
`--seconds` seconds and prints one JSON object as the last line of stdout.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced replay.  Progress and the per-operation log go to
stderr.  `--pin` regenerates `pins.json` (see README.md).
"""

import argparse
import csv
import dataclasses
import datetime
import io
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
PINS = HERE / "pins.json"

OP_TIMEOUT_S = 120
SETUP_SAMPLES_PER_OP = 3
# The host's speed drifts by +-20% over minutes and moves every timing with
# it, so wall_s and setup_s are scaled by HOST_PROBE_REF_S / (this run's
# median probe time): seconds at a reference host speed.  The probe
# (`lr_bench_launch --spin`) runs none of the program's code, so no change to
# the program can move it; HOST_PROBE_REF_S is its typical time on the
# 4-vCPU host the benchmark was defined on.
HOST_PROBE_REF_S = 0.0075
POOL = {"full": 48, "toy": 3}  # pinned operations per workload, by scale


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    deploy: tuple          # lr_cli sweep flags: the deployment
    sharded: bool          # True when the sweep runs on worker processes
    spec: object           # (entry, scale) -> spec text of one operation
    setup_spec: object     # (seed) -> spec text of the set-up probe


def _spec(**fields):
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


# Every operation lasts ~0.5-1 s, so a run holds 25-40 of them and the
# 10-20% noise of a single operation averages out in the run's median.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="static-scale",
            deploy=("--threads", "1"),
            sharded=False,
            spec=lambda i, scale: _spec(
                topology="widerandom",
                size=100000 if scale == "full" else 2000,
                algorithm="fr, pr, newpr",
                seed=i + 1),
            setup_spec=lambda seed: _spec(
                topology="widerandom", size=8, algorithm="fr", seed=seed),
        ),
        Workload(
            name="churn-routing",
            deploy=("--threads", "1"),
            sharded=False,
            spec=lambda i, scale: _spec(
                topology="waypoint",
                size=10000 if scale == "full" else 500,
                algorithm="tora, service",
                seed=i + 1,
                churn_events=100 if scale == "full" else 50,
                service_workload="mixed",
                service_clients=8,
                service_duration=256 if scale == "full" else 64),
            setup_spec=lambda seed: _spec(
                topology="waypoint", size=8, algorithm="tora", seed=seed,
                churn_events=100),
        ),
        Workload(
            name="paper-check",
            deploy=("--threads", "1"),
            sharded=False,
            spec=lambda i, scale: _spec(
                topology="random",
                size=1000 if scale == "full" else 60,
                algorithm="sim-rprime, sim-r, sim-rrev",
                seed=i + 1),
            setup_spec=lambda seed: _spec(
                topology="random", size=8, algorithm="sim-rprime", seed=seed),
        ),
        Workload(
            name="shard-fanout",
            deploy=("--processes", "2"),
            sharded=True,
            spec=lambda i, scale: _spec(
                topology="random, grid, chain",
                size=256 if scale == "full" else 16,
                algorithm="fr, pr, newpr, dist-pr",
                scheduler="lowest, random",
                seed=(f"{30 * i + 1}..{30 * i + 30}" if scale == "full"
                      else f"{4 * i + 1}..{4 * i + 4}")),
            # One run per worker process, so the probe spawns and
            # handshakes both workers like the measured sweeps do.
            setup_spec=lambda seed: _spec(
                topology="random", size=8, algorithm="fr", seed=f"{seed}, {seed + 1}"),
        ),
    ]
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
]

PER_LAYER = [
    ("graph.generate_s", "s"),
    ("graph.freeze_s", "s"),
    ("graph.csr_mb", "MiB"),
    ("graph.patches", "count"),
    ("graph.rebuilds", "count"),
    ("core.engine_s", "s"),
    ("core.rounds_s", "s"),
    ("core.ns_per_step", "ns"),
    ("core.steps", "count"),
    ("core.edge_reversals", "count"),
    ("core.rounds", "count"),
    ("automata.check_s", "s"),
    ("automata.us_per_step", "us"),
    ("automata.concrete_steps", "count"),
    ("automata.abstract_steps", "count"),
    ("routing.link_s", "s"),
    ("routing.stabilize_s", "s"),
    ("routing.event_p50_us", "us"),
    ("routing.event_p99_us", "us"),
    ("routing.event_samples", "count"),
    ("routing.events", "count"),
    ("routing.reversals", "count"),
    ("service.build_s", "s"),
    ("service.run_s", "s"),
    ("service.issued", "count"),
    ("service.failed", "count"),
    ("service.reversal_steps", "count"),
    ("sim.dist_s", "s"),
    ("sim.messages", "count"),
    ("sim.resync_rounds", "count"),
    ("runner.cache_get_s", "s"),
    ("runner.cache_hits", "count"),
    ("runner.cache_misses", "count"),
    ("runner.run_p50_ms", "ms"),
    ("runner.run_p99_ms", "ms"),
    ("runner.run_samples", "count"),
    ("runner.shard_imbalance", "ratio"),
    ("runner.dup_builds", "count"),
    ("runner.frame_bytes", "bytes"),
    ("runner.codec_s", "s"),
    ("runner.shard_retries", "count"),
    ("trace.csv_s", "s"),
    ("trace.overhead_s", "s"),
]

# Span name -> per-layer metric carrying its summed self time.
SELF_TIME_METRICS = {
    "graph.generate": "graph.generate_s",
    "graph.freeze": "graph.freeze_s",
    "core.engine": "core.engine_s",
    "core.rounds": "core.rounds_s",
    "automata.check": "automata.check_s",
    "routing.link": "routing.link_s",
    "routing.stabilize": "routing.stabilize_s",
    "service.build": "service.build_s",
    "service.run": "service.run_s",
    "sim.dist": "sim.dist_s",
    "runner.cache_get": "runner.cache_get_s",
    "runner.codec": "runner.codec_s",
    "trace.csv": "trace.csv_s",
}

# Replay counter -> per-layer metric, for the counters reported as they are.
EXACT_COUNTERS = [
    "graph.patches", "graph.rebuilds", "core.steps", "core.edge_reversals", "core.rounds",
    "automata.concrete_steps", "automata.abstract_steps", "routing.events",
    "routing.reversals", "service.issued", "service.failed", "service.reversal_steps",
    "sim.messages", "sim.resync_rounds", "runner.cache_hits", "runner.cache_misses",
    "runner.frame_bytes",
]

TIMED_UNITS = {"s", "ms", "us", "ns", "ratio"}

COUNT_COLUMNS = ["work", "edge_reversals", "rounds", "dummy_steps", "abstract_steps", "messages"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------------
# Build and process control
# --------------------------------------------------------------------------

def build():
    """Builds lr_cli, the traced replay and the launcher from the checkout's
    sources (an up-to-date build takes well under a second)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.log", "wb") as out:
        for step in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                     ["cmake", "--build", str(BUILD), "-j", "3",
                      "--target", "lr_cli", "lr_trace_replay", "lr_bench_launch"]):
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log((BUILD / "build.log").read_text(errors="replace")[-4000:])
                raise SystemExit("perfbench: build failed")
    return BUILD / "repo" / "examples" / "lr_cli", BUILD / "lr_trace_replay"


LAUNCH = BUILD / "lr_bench_launch"


def isolated_env(directory):
    """The environment of one operation: HOME, TMPDIR and XDG_CACHE_HOME
    point at its fresh directory, and no LR_TEST_* fault knob leaks in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LR_TEST_")}
    env.update(HOME=str(directory), TMPDIR=str(directory), XDG_CACHE_HOME=str(directory))
    return env


def run_process(cmd, cwd, stdout_path, stderr_path):
    """Runs cmd through lr_bench_launch in its own process group; returns
    (exit code, wall seconds from launch to exit, peak RSS in KiB of the
    largest process in it)."""
    report = cwd / "launch.report"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen([str(LAUNCH), str(report), *cmd], cwd=cwd, env=isolated_env(cwd),
                                stdout=out, stderr=err, start_new_session=True)
        _running.add(proc.pid)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            _running.discard(proc.pid)
    _kill_group(proc.pid)  # stragglers of a crashed sweep, if any
    if not report.exists():
        return proc.returncode or -1, 0.0, 0
    wall_ns, rss_kib = report.read_text().split()
    return proc.returncode, int(wall_ns) / 1e9, int(rss_kib)


_running = set()  # process groups of the commands in flight


def _stop(signum, _frame):
    """Kills the commands in flight before the benchmark itself exits."""
    for pgid in list(_running):
        _kill_group(pgid)
    sys.exit(128 + signum)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class OpDir:
    """A fresh, empty directory for one operation, removed afterwards."""

    counter = 0

    def __enter__(self):
        OpDir.counter += 1
        self.path = WORK / f"{os.getpid()}-{OpDir.counter}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


# --------------------------------------------------------------------------
# One operation and its checks
# --------------------------------------------------------------------------

@dataclasses.dataclass
class Op:
    code: int
    wall: float
    rss_kib: int
    aggregate: bytes
    records: bytes
    stderr: str
    shard_log: str


def run_op(lr_cli, workload, spec_text):
    """One cold, isolated `lr_cli sweep` operation."""
    with OpDir() as d:
        (d / "spec.sweep").write_text(spec_text)
        if any(d.rglob("*.lrsnap")):
            raise SystemExit("perfbench: a snapshot file exists before the operation")
        cmd = [str(lr_cli), "sweep", "spec.sweep", *workload.deploy, "--records", "records.csv"]
        if workload.sharded:
            cmd += ["--shard-log", "shards.csv"]
        code, wall, rss = run_process(cmd, d, d / "aggregate.csv", d / "stderr.txt")
        read = lambda name: (d / name).read_bytes() if (d / name).exists() else b""
        return Op(code, wall, rss, read("aggregate.csv"), read("records.csv"),
                  read("stderr.txt").decode(errors="replace"),
                  read("shards.csv").decode(errors="replace"))


def record_counts(records):
    """Per-column sums of the exact counters of a records table."""
    rows = list(csv.DictReader(io.StringIO(records.decode())))
    return len(rows), {c: sum(int(r[c]) for r in rows) for c in COUNT_COLUMNS}, rows


def bad_runs(rows):
    """Runs that failed: an error, converged = no, a violated relation, or
    a failed service request."""
    return sum(
        1 for r in rows
        if r["status"] != "ok" or r["converged"] != "yes" or r["relation"] not in ("-", "ok")
        or (r["algorithm"] == "service" and r["abstract_steps"] != "0"))


def check_op(op, pin):
    """Failed runs of an operation and why: every run fails when the
    output fingerprints or exact counts differ from the pin."""
    problems = []
    if op.code != 0:
        problems.append(f"exit code {op.code}")
    if fnv1a64(op.aggregate) != pin["aggregate_fnv"]:
        problems.append("aggregate fingerprint differs")
    if fnv1a64(op.records) != pin["records_fnv"]:
        problems.append("records fingerprint differs")
    try:
        runs, counts, rows = record_counts(op.records)
    except (KeyError, ValueError, UnicodeDecodeError):
        runs, counts, rows = 0, {}, []
        problems.append("records table unreadable")
    if runs != pin["runs"] or counts != pin["counts"]:
        problems.append("exact counts differ")
    if problems:
        return pin["runs"], problems
    failed = bad_runs(rows)
    return failed, ([f"{failed} failed run(s)"] if failed else [])


def cache_counters(stderr):
    match = re.search(r"cache: \d+ workload\(s\) resident, (\d+) hit\(s\), (\d+) miss\(es\)",
                      stderr)
    return (int(match.group(1)), int(match.group(2))) if match else (None, None)


def load_pins(workload, scale):
    pins = json.loads(PINS.read_text())["workloads"][workload.name][scale]
    if len(pins) != POOL[scale]:
        raise SystemExit(f"perfbench: pins.json holds {len(pins)} {scale} pins for "
                         f"{workload.name}, expected {POOL[scale]}")
    return pins


def run_order(workload, seed, scale):
    """The seed's order over the pinned operations of the workload."""
    entries = list(range(POOL[scale]))
    random.Random(f"{workload.name}:{seed}").shuffle(entries)
    return entries


def stamp():
    return datetime.datetime.now(datetime.timezone.utc).strftime("%H:%M:%S.%f")[:-3]


# --------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# --------------------------------------------------------------------------

def probe(cmd, samples):
    """Launch-to-exit times of `samples` runs of cmd, each in a fresh
    directory.  Returns (times, failed runs)."""
    times, failed = [], 0
    for _ in range(samples):
        with OpDir() as d:
            code, wall, _ = run_process(cmd(d), d, d / "out.txt", d / "err.txt")
            times.append(wall)
            failed += code != 0
    return times, failed


def untraced_run(tools, workload, seed, seconds, scale):
    lr_cli, _ = tools
    pins = load_pins(workload, scale)
    order = run_order(workload, seed, scale)

    def setup_cmd(d):
        """The set-up probe: the same command and deployment on a spec of
        the smallest instance."""
        (d / "spec.sweep").write_text(workload.setup_spec(seed))
        return [str(lr_cli), "sweep", "spec.sweep", *workload.deploy]

    def host_cmd(_):
        return [str(LAUNCH), "--spin"]

    walls, rss, setup_times, host_times = [], [], [], []
    attempted = failed = probes_failed = 0
    start = time.perf_counter()
    position = 0
    while position == 0 or time.perf_counter() - start < seconds:
        entry = order[position % len(order)]
        began, offset = stamp(), time.perf_counter() - start
        op = run_op(lr_cli, workload, workload.spec(entry, scale))
        op_failed, problems = check_op(op, pins[entry])
        attempted += pins[entry]["runs"]
        failed += op_failed
        if not problems:
            walls.append(op.wall)
            rss.append(op.rss_kib / 1024)
        setup, setup_failed = probe(setup_cmd, SETUP_SAMPLES_PER_OP)
        host, host_failed = probe(host_cmd, SETUP_SAMPLES_PER_OP)
        setup_times += setup
        host_times += host
        probes_failed += setup_failed + host_failed
        log(f"op position={position} start={began} offset={offset:.3f}s entry={entry} "
            f"wall_s={op.wall:.4f} peak_rss_mb={op.rss_kib / 1024:.1f} runs={pins[entry]['runs']} "
            f"failed={op_failed} setup_s={median(setup):.5f} host_probe_s={median(host):.5f}"
            + (f" ({'; '.join(problems)})" if problems else ""))
        position += 1
    speed = HOST_PROBE_REF_S / median(host_times)
    log(f"summary: {position} operation(s), {len(walls)} timed; medians: wall_s "
        f"{median(walls):.4f} over {len(walls)}, setup_s {median(setup_times):.5f} and host "
        f"probe {median(host_times):.5f} over {len(setup_times)} probe(s) each "
        f"({probes_failed} failed); reported times x {speed:.4f}; "
        f"{failed}/{attempted} run(s) failed")
    metrics = {
        "wall_s": median(walls) * speed,
        "setup_s": median(setup_times) * speed,
        "peak_rss_mb": median(rss),
        "ok_share": (attempted - failed) / attempted,
    }
    correct = failed == 0 and probes_failed == 0 and len(walls) == position
    return correct, attempted, failed, metrics


# --------------------------------------------------------------------------
# Traced run: per-layer metrics
# --------------------------------------------------------------------------

def read_spans(path):
    """Self time per span name, plus the durations of every runner.run and
    routing.event span."""
    with open(path) as f:
        rows = list(csv.DictReader(f))
    duration = [(int(r["end_ns"]) - int(r["start_ns"])) / 1e9 for r in rows]
    covered = [0.0] * len(rows)
    for r, d in zip(rows, duration):
        if int(r["parent"]) >= 0:
            covered[int(r["parent"])] += d  # children of one span never overlap
    self_time, durations = {}, {"runner.run": [], "routing.event": []}
    for r, d, c in zip(rows, duration, covered):
        self_time[r["name"]] = self_time.get(r["name"], 0.0) + d - c
        if r["name"] in durations:
            durations[r["name"]].append(d)
    return self_time, durations


def replay(replay_bin, workload, spec_text):
    """One traced replay; returns (exit code, wall, output files, spans),
    spans being read_spans' result (None if the replay failed)."""
    with OpDir() as d:
        (d / "spec.sweep").write_text(spec_text)
        cmd = [str(replay_bin), "spec.sweep", "."] + (["--frames"] if workload.sharded else [])
        code, wall, _ = run_process(cmd, d, d / "out.txt", d / "err.txt")
        files = {name: (d / name).read_bytes() if (d / name).exists() else b""
                 for name in ("records.csv", "aggregate.csv", "counts.csv")}
        if code != 0:
            log((d / "err.txt").read_text(errors="replace"))
            return code, wall, files, None
        return code, wall, files, read_spans(d / "spans.csv")


def layer_metrics(spans, counters):
    self_time, durations = spans
    m = {metric: self_time.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    m.update({name: counters[name] for name in EXACT_COUNTERS})
    m["graph.csr_mb"] = counters["graph.csr_bytes"] / 2**20
    m["core.ns_per_step"] = m["core.engine_s"] * 1e9 / max(1, m["core.steps"])
    m["automata.us_per_step"] = m["automata.check_s"] * 1e6 / max(1, m["automata.concrete_steps"])
    events_us = [d * 1e6 for d in durations["routing.event"]]
    runs_ms = [d * 1e3 for d in durations["runner.run"]]
    m["routing.event_p50_us"] = percentile(events_us, 50)
    m["routing.event_p99_us"] = percentile(events_us, 99)
    m["routing.event_samples"] = len(events_us)
    m["runner.run_p50_ms"] = percentile(runs_ms, 50)
    m["runner.run_p99_ms"] = percentile(runs_ms, 99)
    m["runner.run_samples"] = len(runs_ms)
    return m


def shard_metrics(op, replay_misses):
    """Shard imbalance and retries from the sweep's shard log, duplicate
    builds from its merged cache counters against the in-process replay."""
    rows = list(csv.DictReader(io.StringIO(op.shard_log)))
    elapsed = [int(r["elapsed_ms"]) for r in rows if r["outcome"] == "ok"]
    shards = {r["shard"] for r in rows}
    _, misses = cache_counters(op.stderr)
    return {
        "runner.shard_imbalance": max(elapsed) / statistics.mean(elapsed) if elapsed else 0.0,
        "runner.shard_retries": len(rows) - len(shards),
        "runner.dup_builds": misses - replay_misses,
    }


def traced_run(tools, workload, seed, seconds, scale):
    """Alternates the untraced sweep and the traced replay of the seed's
    first pinned operation until `seconds` have passed; timings are the
    medians over the rounds, counts must repeat exactly in every round."""
    lr_cli, replay_bin = tools
    pins = load_pins(workload, scale)
    entry = run_order(workload, seed, scale)[0]
    pin, spec_text = pins[entry], workload.spec(entry, scale)
    rounds, untraced_walls, traced_walls = [], [], []
    attempted = failed = 0
    correct = True
    counters_seen = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        position = len(rounds)
        began, offset = stamp(), time.perf_counter() - start
        op = run_op(lr_cli, workload, spec_text)
        op_failed, problems = check_op(op, pin)
        code, wall, files, spans = replay(replay_bin, workload, spec_text)
        attempted += 2 * pin["runs"]
        failed += op_failed
        if (code != 0 or fnv1a64(files["records.csv"]) != pin["records_fnv"]
                or fnv1a64(files["aggregate.csv"]) != pin["aggregate_fnv"]):
            problems.append(f"replay (exit code {code}) differs from the untraced sweep")
            failed += pin["runs"]
        correct = correct and not problems
        log(f"round position={position} start={began} offset={offset:.3f}s entry={entry} "
            f"untraced_wall_s={op.wall:.4f} traced_wall_s={wall:.4f}"
            + (f" ({'; '.join(problems)})" if problems else ""))
        if problems:
            break
        counters = {r["counter"]: int(r["value"])
                    for r in csv.DictReader(io.StringIO(files["counts.csv"].decode()))}
        if counters_seen is not None and counters != counters_seen:
            log("error: replay counters did not repeat exactly")
            correct = False
            break
        counters_seen = counters
        hits, misses = cache_counters(op.stderr)
        gets = counters["runner.cache_hits"] + counters["runner.cache_misses"]
        if (hits is None or hits + misses != gets or
                (not workload.sharded and misses != counters["runner.cache_misses"])):
            log(f"error: sweep cache counters {hits}/{misses} disagree with the replay's")
            correct = False
            break
        m = layer_metrics(spans, counters)
        m.update({"runner.shard_imbalance": 0.0, "runner.shard_retries": 0,
                  "runner.dup_builds": 0})
        if workload.sharded:
            m.update(shard_metrics(op, counters["runner.cache_misses"]))
        rounds.append(m)
        untraced_walls.append(op.wall)
        traced_walls.append(wall)
    # Timings are medians over the rounds; counts come from the first round
    # (the counters were checked to repeat exactly in every round).
    metrics = {name: (median([m[name] for m in rounds]) if unit in TIMED_UNITS
                      else rounds[0][name] if rounds else 0)
               for name, unit in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    log(f"summary: {len(rounds)} round(s) of entry {entry}; per-layer timings are medians "
        f"over the rounds; {failed}/{attempted} run(s) failed")
    return correct and bool(rounds), attempted, failed, metrics


# --------------------------------------------------------------------------
# Pins
# --------------------------------------------------------------------------

def pin_workload(tools, workload, scale):
    """Runs every pool operation through lr_cli and the replay, requires
    identical, fully successful outputs, and returns their pins."""
    lr_cli, replay_bin = tools
    pins = []
    for entry in range(POOL[scale]):
        spec_text = workload.spec(entry, scale)
        op = run_op(lr_cli, workload, spec_text)
        code, _, files, _ = replay(replay_bin, workload, spec_text)
        runs, counts, rows = record_counts(op.records)
        if (op.code != 0 or code != 0 or bad_runs(rows) or
                files["records.csv"] != op.records or files["aggregate.csv"] != op.aggregate):
            raise SystemExit(f"perfbench: {workload.name} {scale} entry {entry} cannot be "
                             f"pinned (exit {op.code}/{code}, {bad_runs(rows)} failed run(s))")
        pins.append({"entry": entry, "runs": runs, "aggregate_fnv": fnv1a64(op.aggregate),
                     "records_fnv": fnv1a64(op.records), "counts": counts})
        log(f"pinned {workload.name} {scale} entry {entry}: {runs} runs, wall {op.wall:.3f}s")
    return pins


def write_pins(tools, names, scales):
    data = json.loads(PINS.read_text()) if PINS.exists() else {"workloads": {}}
    for name in names:
        for scale in scales:
            pins = pin_workload(tools, WORKLOADS[name], scale)
            data["workloads"].setdefault(name, {})[scale] = pins
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes are for the self-test")
    parser.add_argument("--pin", action="store_true",
                        help="regenerate pins.json (all workloads unless --workload)")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    tools = build()
    if args.pin:
        names = [args.workload] if args.workload else list(WORKLOADS)
        write_pins(tools, names, ["full", "toy"] if args.scale == "full" else ["toy"])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    correct, attempted, failed, values = run(tools, workload, args.seed, args.seconds,
                                             args.scale)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
