#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced at toy sizes
(about a second each), prints every metric with its unit, and fails
(exit 1) unless every run is correct, reports exactly the metrics
BENCHMARK.json declares, logs each operation's start time and position
next to its metrics, and repeats its exact counts on a second traced run.
It also feeds the fingerprint check a damaged operation, which must fail.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SECONDS = "1"
SEED = "7"

# A counter each workload's traced run must move.
LAYER_PROBES = {
    "static-scale": "core.steps",
    "churn-routing": "routing.events",
    "paper-check": "automata.concrete_steps",
    "shard-fanout": "runner.frame_bytes",
}


def invoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", SEED,
         "--seconds", SECONDS, "--trace", str(trace), "--scale", "toy"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check_result(workload, trace, result, stderr, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if {name: m["unit"] for name, m in metrics.items()} != declared:
        problems.append("metric names or units differ from BENCHMARK.json")
    for name, m in metrics.items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
        print(f"  {workload:14s} trace={trace} {name:26s} {value:>16.6g} {m['unit']}")
    kind = "round" if trace else "op"
    if not any(line.startswith(f"{kind} position=0 start=") for line in stderr.splitlines()):
        problems.append("no per-operation log line with start time and position")
    return problems


def check_damaged_pin():
    """The fingerprint check must fail an operation whose output differs."""
    records = (b"topology,size,algorithm,scheduler,seed,run_seed,nodes,bad_nodes,work,"
               b"edge_reversals,rounds,dummy_steps,abstract_steps,messages,converged,relation,"
               b"status\nchain,8,fr,lowest,1,1,8,7,28,28,7,0,0,0,yes,-,ok\n")
    op = bench.Op(0, 0.1, 1024, b"aggregate", records, "", "")
    runs, counts, _ = bench.record_counts(records)
    pin = {"runs": runs, "counts": counts, "records_fnv": bench.fnv1a64(records),
           "aggregate_fnv": bench.fnv1a64(b"aggregate")}
    problems = []
    if bench.check_op(op, pin) != (0, []):
        problems.append("an operation matching its pin was failed")
    damaged = dict(pin, aggregate_fnv=bench.fnv1a64(b"other"))
    if bench.check_op(op, damaged)[0] != runs:
        problems.append("an aggregate fingerprint mismatch was not counted as failed runs")
    bad_records = records.replace(b"yes,-,ok", b"no,-,ok")
    bad = bench.Op(0, 0.1, 1024, b"aggregate", bad_records, "", "")
    bad_pin = dict(pin, records_fnv=bench.fnv1a64(bad_records))
    if bench.check_op(bad, bad_pin)[0] != 1:
        problems.append("a non-converged run was not failed although its output matched")
    return problems


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = check_damaged_pin()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result, stderr = invoke(workload, trace)
            problems += [f"{workload} trace={trace}: {p}"
                         for p in check_result(workload, trace, result, stderr, declared)]
            if trace:
                again, _ = invoke(workload, trace)
                for name, unit in per_layer.items():
                    if unit not in bench.TIMED_UNITS and (
                            again["metrics"][name]["value"] != result["metrics"][name]["value"]):
                        problems.append(f"{workload}: {name} did not repeat exactly")
                if result["metrics"][LAYER_PROBES[workload]]["value"] <= 0:
                    problems.append(f"{workload}: {LAYER_PROBES[workload]} is 0")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
