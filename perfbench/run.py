#!/usr/bin/env python3
"""linrecd end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workers 1 --workload point_lookup \\
        --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Builds linrecd and the perfbench client from this tree (one Release build
under .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when that is
set), runs one workload against fresh daemons, and prints '#' context lines
followed by one JSON result line. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ledger. --selfcheck replays each workload's traced
ops twice with one seed and once with the next, and checks that the exact
counters repeat and that a new seed changes the ops but not the shape.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point_lookup", "fanout_read", "update_mix", "session_churn")
# A run must finish within 180 s, build check and reaping included.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def require_tree():
    missing = [p for p in ("CMakeLists.txt", "src", "tools/linrecd.cc")
               if not (ROOT / p).exists()]
    if missing:
        log("not a linrec source tree (missing " + ", ".join(missing) + ")")
        sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build_step(cmd):
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        log("build failed: " + " ".join(cmd))
        sys.exit(1)


def build():
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        build_step(cmd)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    build_step(["cmake", "--build", str(out), "--target", "perfbench",
                "linrecd", "-j", jobs])
    return out


def cache_value(out, key):
    for line in (out / "CMakeCache.txt").read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def git_sha():
    # Ask git about this tree only, never about a repository above it.
    if not (ROOT / ".git").exists():
        return None
    probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
    return probe.stdout.strip() if probe.returncode == 0 else None


def tree_digest():
    """sha256 of the sources the build reads (checkouts may lack git)."""
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and not p.is_symlink())
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(out, workers):
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    version = "unknown"
    if compiler:
        probe = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True)
        if probe.returncode == 0 and probe.stdout:
            version = probe.stdout.splitlines()[0]
    return {
        "git_sha": git_sha(),
        "tree_sha256": tree_digest(),
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
    }


def run_client(out, args):
    """Runs the perfbench binary; returns (context lines, result dict)."""
    cmd = [str(out / "perfbench"),
           "--linrecd", str(out / "linrec" / "tools" / "linrecd")] + args
    # A session of its own, so a timeout can stop the client and every
    # daemon it started together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"perfbench exited with status {proc.returncode}")
        sys.exit(1)
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("perfbench printed no result line")
        sys.exit(1)
    return lines[:-1], result


def traced_counts(out, workload, seed, workers):
    context, result = run_client(out, [
        "--workload", workload, "--seed", str(seed), "--seconds", "10",
        "--trace", "1", "--workers", str(workers)])
    for line in context:
        if line.startswith("# counts "):
            return json.loads(line[len("# counts "):]), result
    log(f"{workload}: the traced run printed no counts")
    sys.exit(1)


def selfcheck(out, workloads, seed, workers):
    ok = True
    for workload in workloads:
        first, r1 = traced_counts(out, workload, seed, workers)
        again, r2 = traced_counts(out, workload, seed, workers)
        other, r3 = traced_counts(out, workload, seed + 1, workers)
        problems = []
        if any(not r["correct"] or r["failed"] for r in (r1, r2, r3)):
            problems.append("a traced run failed its checks")
        for key in ("shape", "exact", "op_digest"):
            if first[key] != again[key]:
                problems.append(f"same seed, different {key}: "
                                f"{first[key]} vs {again[key]}")
        if first["shape"] != other["shape"]:
            problems.append(f"seed {seed + 1} changed the shape: "
                            f"{first['shape']} vs {other['shape']}")
        if first["op_digest"] == other["op_digest"]:
            problems.append(f"seed {seed + 1} did not change the ops")
        print(f"{workload}: {'ok' if not problems else 'FAILED'} "
              f"exact={json.dumps(first['exact'])}")
        for problem in problems:
            print("  " + problem)
        ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="linrecd --workers (engine lanes per query)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    require_tree()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    out = build()
    if args.selfcheck:
        workloads = [args.workload] if args.workload else WORKLOADS
        sys.exit(selfcheck(out, workloads, args.seed, args.workers))
    print("# host " + json.dumps(host_record(out, args.workers)), flush=True)
    context, result = run_client(out, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workers", str(args.workers)])
    for line in context:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
