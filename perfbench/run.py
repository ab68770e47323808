#!/usr/bin/env python3
"""Build and run the QTLS real-plane benchmark (perfbench/main.cc).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tls13_full --seed 1 --seconds 45 --trace 0

The first run configures and builds the repository's src/ libraries and the
benchmark program into $CARGO_TARGET_DIR (default .bench_build); later runs
rebuild incrementally. Build output goes to stderr.

--trace 0 runs the program once and prints its end-to-end metrics.
--trace 1 runs the program untraced, then traced with the same seed, and
prints the per-layer metrics together with the tracing overhead (the traced
run's end-to-end figures against the untraced run's).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 only when every run
built, finished and passed its correctness checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Each program run must finish well inside the 180 s a run may take; a
# traced run makes two program runs.
RUN_TIMEOUT_S = 80


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the program; returns its path or None."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "qtls_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(build_dir, "qtls_perfbench")


def run_bench(binary, args, trace, workdir):
    """Runs the program once; returns (exit status, result dict or None)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", workdir]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: program timed out after %d s" % RUN_TIMEOUT_S)
        return 1, None
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["tls13_full", "ticket_resume", "tls13_bulk"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        return 1

    if args.trace == 0:
        rc, result = run_bench(binary, args, 0, build_dir)
        if result is None:
            return rc or 1
        print(json.dumps(result), flush=True)
        return rc

    rc0, untraced = run_bench(binary, args, 0, build_dir)
    rc1, traced = run_bench(binary, args, 1, build_dir)
    if untraced is None or traced is None:
        return rc0 or rc1 or 1
    metrics = traced["metrics"]
    # Tracing overhead: traced end-to-end figures over the untraced ones.
    for name in ("resp_per_s", "response_p50_ms", "server_cpu_us_per_resp"):
        base = untraced["metrics"][name]["value"]
        mine = metrics["traced." + name]["value"]
        metrics["trace.overhead." + name] = {
            "value": (mine / base - 1.0) if base else 0.0, "unit": "share"}
        log("tracing overhead %-24s untraced=%-12.6g traced=%-12.6g (%+.2f%%)"
            % (name, base, mine, 100.0 * ((mine / base - 1.0) if base else 0.0)))
    out = {
        "correct": bool(untraced["correct"] and traced["correct"]),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": metrics,
    }
    print(json.dumps(out), flush=True)
    return rc0 or rc1


if __name__ == "__main__":
    sys.exit(main())
