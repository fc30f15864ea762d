#!/usr/bin/env python3
"""Bench regression gate: fail when derivations/sec drops too far, or an
exact counter changes.

Usage: bench_diff.py PREVIOUS.json CURRENT.json [--max-drop 0.20]

Compares BENCH_engine.json records row by row. Rows are keyed on
(workload, strategy, n, workers); a key present in only one file is
reported but never fails the gate (workloads get added and renamed — the
gate exists to catch regressions on work both records measured). `workers`
participates in the key only when both records carry it, so a v1 record
(pre-workers schema) still gates the overlapping rows of a v2 record.

When either record's `meta` block carries `single_core_host: true`
(emitted since PR 8 when `hardware_concurrency == 1`), rows with
workers > 1 are skipped instead of gated: on a one-thread host those rows
measure the parallel machinery's overhead, not scaling, and their
run-to-run noise would gate nothing meaningful.

A row may carry `noise_margin` (fractional, e.g. 0.50): the workload's
measured same-binary run-to-run spread, stamped by bench_engine where it
exceeds the default gate (tc_random's random-graph closure has been
observed at 0.54-1.0x across identical binaries). The effective threshold
for a row is max(--max-drop, either side's noise_margin) — the gate never
tightens below the CLI threshold, and a workload's own noise never reads
as a regression.

Every row both records carry — parallel rows included, whatever the host —
also passes an exact-counter gate. Both counts are deterministic, so no
noise margin applies: the row fails when its `result_size` differs from
the previous record (the query computed something else), or when its
`derivations` rose (the paper's yardstick: the same answer now costs more
derivations). Fewer derivations pass.

Besides the per-row throughput gate, the `meta` block's
`plan_cache_hit_rate` (the one-shot σ-sweep's hits / lookups; present
since schema v3) is gated when both records carry it: the sweep runs N
distinct selection constants over one query structure, so the rate must
stay near (N-1)/N — a planner change that keys plans on the σ value again
collapses it to ~0, which fails the gate (--max-hit-rate-drop, absolute).

Exit status: 0 = no regression beyond the threshold, 1 = regression,
2 = usage/parse error.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = doc.get("results", [])
    if not isinstance(rows, list):
        print(f"bench_diff: {path} has no results list", file=sys.stderr)
        sys.exit(2)
    return doc, rows


def key_of(row, with_workers):
    key = (row.get("workload"), row.get("strategy"), row.get("n"))
    if with_workers:
        key += (row.get("workers"),)
    return key


def index_rows(rows, with_workers):
    """Keys rows for comparison.

    When `workers` is excluded from the key (one record predates it),
    several worker-variant rows can collide on one key; keep the serial
    (workers == 1 or absent) row — serial-to-serial is the comparison the
    old record actually measured — rather than whichever happened last.
    """
    table = {}
    for row in rows:
        key = key_of(row, with_workers)
        if key in table and row.get("workers", 1) != 1:
            continue
        table[key] = row
    return table


def counter_changes(prev, curr):
    """Exact-counter regressions over the rows both records carry.

    Returns (key, what, previous, current) per failing count: a changed
    `result_size`, or `derivations` that rose. A count missing from
    either row is not compared.
    """
    changes = []
    for key in sorted(prev, key=str):
        if key not in curr:
            continue
        p, c = prev[key], curr[key]
        if "result_size" in p and "result_size" in c and (
            p["result_size"] != c["result_size"]
        ):
            changes.append((key, "result_size changed", p["result_size"],
                            c["result_size"]))
        if "derivations" in p and "derivations" in c and (
            c["derivations"] > p["derivations"]
        ):
            changes.append((key, "derivations rose", p["derivations"],
                            c["derivations"]))
    return changes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("previous")
    parser.add_argument("current")
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.20,
        help="maximum tolerated fractional drop in derivations_per_sec "
        "(default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--max-hit-rate-drop",
        type=float,
        default=0.25,
        help="maximum tolerated absolute drop in the meta block's "
        "plan_cache_hit_rate (default 0.25)",
    )
    args = parser.parse_args()

    prev_doc, prev_rows = load(args.previous)
    curr_doc, curr_rows = load(args.current)

    # `workers` joins the key only when both schemas record it.
    with_workers = all(
        "workers" in row for row in prev_rows + curr_rows
    ) and bool(prev_rows) and bool(curr_rows)

    prev = index_rows(prev_rows, with_workers)
    curr = index_rows(curr_rows, with_workers)

    # Parallel rows are meaningless noise on a one-thread host (either
    # side: a record from such a host measured overhead, not scaling).
    skip_parallel = bool(
        (prev_doc.get("meta") or {}).get("single_core_host")
        or (curr_doc.get("meta") or {}).get("single_core_host")
    )

    header = (f"{'workload':<24} {'strategy':<12} {'n':>6} {'workers':>7} "
              f"{'prev d/s':>14} {'curr d/s':>14} {'ratio':>7}")
    print(header)
    print("-" * len(header))

    failures = []
    for key in sorted(prev, key=str):
        if key not in curr:
            print(f"SKIP {key}: missing from current record")
            continue
        if skip_parallel and prev[key].get("workers", 1) > 1:
            print(f"SKIP {key}: workers>1 on a single-core host")
            continue
        p = prev[key].get("derivations_per_sec", 0.0)
        c = curr[key].get("derivations_per_sec", 0.0)
        if p <= 0:
            print(f"SKIP {key}: previous throughput is zero")
            continue
        ratio = c / p
        # Widest declared noise margin from either side, floored at the
        # CLI threshold: a workload's own measured spread never gates.
        max_drop = max(
            args.max_drop,
            float(prev[key].get("noise_margin", 0.0) or 0.0),
            float(curr[key].get("noise_margin", 0.0) or 0.0),
        )
        # '-' when one record predates `workers` and the key lacks it.
        workers = key[3] if with_workers else "-"
        name = f"{key[0]:<24} {key[1]:<12} {key[2]:>6} {workers!s:>7}"
        flag = ""
        if ratio < 1.0 - max_drop:
            flag = "  << REGRESSION"
            failures.append((key, p, c, ratio, max_drop))
        elif max_drop > args.max_drop:
            flag = f"  (noise margin {max_drop:.0%})"
        print(f"{name} {p:>14.1f} {c:>14.1f} {ratio:>6.2f}x{flag}")
    for key in sorted(curr, key=str):
        if key not in prev:
            print(f"NEW  {key}: no previous record")

    changes = counter_changes(prev, curr)
    compared = sum(1 for key in prev if key in curr)
    print(f"\nexact counters: {compared} row(s) compared, "
          f"{len(changes)} regression(s)")

    # Planner observability gate: absolute plan-cache hit-rate drop (only
    # when both records carry the metric — v2 and older have no meta rate).
    prev_rate = (prev_doc.get("meta") or {}).get("plan_cache_hit_rate")
    curr_rate = (curr_doc.get("meta") or {}).get("plan_cache_hit_rate")
    hit_rate_failure = None
    if isinstance(prev_rate, (int, float)) and isinstance(
        curr_rate, (int, float)
    ):
        drop = prev_rate - curr_rate
        flag = ""
        if drop > args.max_hit_rate_drop:
            flag = "  << REGRESSION"
            hit_rate_failure = (prev_rate, curr_rate, drop)
        print(
            f"\nplan_cache_hit_rate: {prev_rate:.4f} -> {curr_rate:.4f}"
            f"{flag}"
        )

    if hit_rate_failure:
        prev_rate, curr_rate, drop = hit_rate_failure
        print(
            f"\nFAIL: meta plan_cache_hit_rate dropped {drop:.2f} "
            f"(absolute), more than {args.max_hit_rate_drop:.2f}: "
            f"{prev_rate:.4f} -> {curr_rate:.4f} — the planner is "
            f"re-planning structures it should serve from the cache "
            f"(σ value back in the digest?)",
            file=sys.stderr,
        )

    if changes:
        print(
            f"\nFAIL: {len(changes)} exact counter(s) regressed:",
            file=sys.stderr,
        )
        for key, what, p, c in changes:
            print(f"  {key}: {what}: {p} -> {c}", file=sys.stderr)

    if failures:
        print(
            f"\nFAIL: {len(failures)} workload(s) dropped beyond their "
            f"threshold in derivations_per_sec:",
            file=sys.stderr,
        )
        for key, p, c, ratio, max_drop in failures:
            print(
                f"  {key}: {p:.1f} -> {c:.1f} ({ratio:.2f}x, "
                f"threshold {max_drop:.0%})",
                file=sys.stderr)
        return 1
    if hit_rate_failure or changes:
        return 1
    print("\nOK: no workload regressed beyond the threshold, and no exact "
          "counter regressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
