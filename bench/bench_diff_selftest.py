#!/usr/bin/env python3
"""Self-test for bench_diff.py: exercises the gate's decision logic on
synthetic records — the default threshold, the per-row noise_margin
widening, single-core-host parallel-row skipping, the hit-rate gate, the
exact-counter gate, and the table's workers column — by invoking
bench_diff.py as a subprocess exactly the way CI does.

Run: bench_diff_selftest.py (no arguments; registered as a ctest target).
Exit status: 0 = all cases behave, 1 = some case failed.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def record(rows, meta=None):
    doc = {"schema": "linrec-bench-engine/v3", "results": rows}
    if meta is not None:
        doc["meta"] = meta
    return doc


def row(workload, dps, workers=1, noise_margin=None, strategy="semi_naive",
        n=100, derivations=1000, result_size=10):
    r = {"workload": workload, "strategy": strategy, "n": n,
         "workers": workers, "reps": 3, "wall_ms_mean": 1.0,
         "wall_ms_min": 1.0, "derivations": derivations,
         "derivations_per_sec": dps, "result_size": result_size}
    if noise_margin is not None:
        r["noise_margin"] = noise_margin
    return r


def run_diff(prev, curr, extra_args=()):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "prev.json")
        c = os.path.join(d, "curr.json")
        with open(p, "w") as f:
            json.dump(prev, f)
        with open(c, "w") as f:
            json.dump(curr, f)
        proc = subprocess.run(
            [sys.executable, BENCH_DIFF, p, c, *extra_args],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    def case(name, got_rc, want_rc, output):
        if got_rc != want_rc:
            failures.append(
                f"{name}: exit {got_rc}, wanted {want_rc}\n{output}")

    # Steady throughput passes.
    rc, out = run_diff(record([row("tc_chain", 1000.0)]),
                       record([row("tc_chain", 990.0)]))
    case("steady passes", rc, 0, out)

    # A 30% drop fails the default 20% gate.
    rc, out = run_diff(record([row("tc_chain", 1000.0)]),
                       record([row("tc_chain", 700.0)]))
    case("30% drop fails default gate", rc, 1, out)

    # The same 30% drop passes when the row declares a 50% noise margin —
    # on either side of the comparison.
    rc, out = run_diff(
        record([row("tc_random", 1000.0, noise_margin=0.50)]),
        record([row("tc_random", 700.0, noise_margin=0.50)]))
    case("noise_margin widens gate (both sides)", rc, 0, out)
    rc, out = run_diff(
        record([row("tc_random", 1000.0)]),  # old record predates the field
        record([row("tc_random", 700.0, noise_margin=0.50)]))
    case("noise_margin widens gate (new side only)", rc, 0, out)

    # A drop past even the declared margin still fails.
    rc, out = run_diff(
        record([row("tc_random", 1000.0, noise_margin=0.50)]),
        record([row("tc_random", 400.0, noise_margin=0.50)]))
    case("60% drop fails 50% margin", rc, 1, out)

    # noise_margin never *tightens* below the CLI threshold.
    rc, out = run_diff(
        record([row("tc_chain", 1000.0, noise_margin=0.05)]),
        record([row("tc_chain", 850.0, noise_margin=0.05)]))
    case("margin below CLI threshold is ignored", rc, 0, out)

    # Parallel rows are skipped (not gated) when a single-core host
    # produced either record.
    rc, out = run_diff(
        record([row("tc_chain", 1000.0, workers=4)],
               meta={"single_core_host": True}),
        record([row("tc_chain", 100.0, workers=4)],
               meta={"single_core_host": False}))
    case("single-core host skips parallel rows", rc, 0, out)

    # Hit-rate collapse fails regardless of row throughput.
    rc, out = run_diff(
        record([row("tc_chain", 1000.0)],
               meta={"plan_cache_hit_rate": 0.99}),
        record([row("tc_chain", 1000.0)],
               meta={"plan_cache_hit_rate": 0.10}))
    case("hit-rate collapse fails", rc, 1, out)

    # Exact counters: a changed result size fails, even with throughput
    # steady.
    rc, out = run_diff(record([row("tc_chain", 1000.0, result_size=10)]),
                       record([row("tc_chain", 1000.0, result_size=11)]))
    case("changed result_size fails", rc, 1, out)

    # More derivations for the same row fail...
    rc, out = run_diff(record([row("tc_chain", 1000.0, derivations=1000)]),
                       record([row("tc_chain", 1000.0, derivations=1001)]))
    case("derivations rise fails", rc, 1, out)

    # ...and fewer pass: the paper's yardstick, lower is better.
    rc, out = run_diff(record([row("tc_chain", 1000.0, derivations=1000)]),
                       record([row("tc_chain", 1000.0, derivations=900)]))
    case("derivations drop passes", rc, 0, out)

    # The counter gate covers parallel rows a single-core host skips for
    # throughput.
    rc, out = run_diff(
        record([row("tc_chain", 1000.0, workers=4, result_size=10)],
               meta={"single_core_host": True}),
        record([row("tc_chain", 1000.0, workers=4, result_size=12)]))
    case("counters gated on skipped parallel rows", rc, 1, out)

    # The throughput table names each row's workers, so the workers 1/4
    # variants of one workload are told apart — and '-' when one record
    # predates the field.
    def table_has(output, fields):
        return any(line.split()[:len(fields)] == fields
                   for line in output.splitlines())

    rc, out = run_diff(
        record([row("tc_chain", 1000.0, workers=1),
                row("tc_chain", 1000.0, workers=4)]),
        record([row("tc_chain", 990.0, workers=1),
                row("tc_chain", 980.0, workers=4)]))
    case("worker variants pass", rc, 0, out)
    if not table_has(out, ["tc_chain", "semi_naive", "100", "4"]):
        failures.append(f"workers=4 row's line does not name its workers\n"
                        f"{out}")
    old = row("tc_chain", 1000.0)
    del old["workers"]
    rc, out = run_diff(record([old]), record([row("tc_chain", 990.0)]))
    case("record predating workers passes", rc, 0, out)
    if not table_has(out, ["tc_chain", "semi_naive", "100", "-"]):
        failures.append(f"row keyed without workers does not print '-'\n"
                        f"{out}")

    if failures:
        print("bench_diff self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("bench_diff self-test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
