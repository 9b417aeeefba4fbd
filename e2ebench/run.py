#!/usr/bin/env python3
"""End-to-end DAT benchmark: build from source, run one workload, report.

    python3 e2ebench/run.py --workload sim-fleet --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root (any directory works; paths are resolved
from this file). The first run configures and builds libdat and the
benchmark in Release mode into .bench_build/ at the repository root; later
runs only re-check the build. The benchmark binary prints notes, a
host/build fingerprint and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.

An untraced run starts the binary several times in a row (PROCESSES), each
process setting up once and measuring an equal share of --seconds, and
prints as its last line the merged result: every metric is the median over
the processes, operations attempted and failed are summed, and the run is
correct only if every process was. A traced run (--trace 1) is one process;
it also writes a Chrome trace to .bench_build/traces/<workload>-seed<seed>.json.

--selftest runs the benchmark's self-tests: the measurement code on
synthetic inputs, the compare statistics, and the determinism check (two
sim-fleet runs with one seed must give identical virtual-time results).

A run ends within 180 s of starting, or within 900 s when it has to build
first: the benchmark binary is stopped at that deadline and the run fails
without a result. The slowest run on the reference host (README) is the
traced sim-fleet run, at about 130 s.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")
STARTED = time.monotonic()
# Deadlines of a whole run, counted from the start of this script, with a
# few seconds kept for reporting and for stopping the binary.
RUN_BUDGET_S = 175
BUILD_RUN_BUDGET_S = 890
# Processes per untraced run. On a shared host one process runs its whole
# measurement at a speed of its own, often a tenth or more apart from the
# next process started seconds later (README, "Steadiness"); the median over
# several processes is less exposed to one slow process than one longer
# process is. sim-fleet sets up in about 20 s, so it runs two.
PROCESSES = {"sim-fleet": 2, "udp-push": 3, "udp-query": 3}


def log(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.stderr.flush()


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure.
    Returns True when anything had to be configured or compiled."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("libdat sources not found at %s; nothing to build" % os.path.join(ROOT, "src"))
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
    if configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs])
    compiled = False
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            log("build step failed: %s" % " ".join(cmd))
            sys.exit(2)
        compiled = compiled or b"Building CXX" in proc.stdout
    return configured or compiled


def src_digest():
    """SHA-1 over the paths and contents of the sources the benchmark builds."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
        return out.stdout.decode().strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_binary(args, budget_s=RUN_BUDGET_S):
    """Runs the benchmark binary until `budget_s` after this script started;
    returns (returncode, stdout text)."""
    timeout = max(1.0, budget_s - (time.monotonic() - STARTED))
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark stopped: the run did not finish within %d s" % budget_s)
        return 1, ""
    return proc.returncode, proc.stdout.decode(errors="replace")


def determinism_check():
    """Two sim-fleet runs with one seed, as BENCHMARK.json runs them, must
    agree on every virtual-time result."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"] / PROCESSES["sim-fleet"]
    digests = []
    for _ in range(2):
        rc, out = run_binary(["--workload", "sim-fleet", "--seed", "7", "--seconds",
                              repr(seconds), "--trace", "0"],
                             budget_s=time.monotonic() - STARTED + RUN_BUDGET_S)
        lines = [l for l in out.splitlines() if l.startswith("e2ebench virtual ")]
        if rc != 0 or len(lines) != 1:
            print("FAIL: determinism run did not complete (exit %d)" % rc)
            return False
        digests.append(lines[0])
    same = digests[0] == digests[1]
    print("%s: same seed, same virtual-time results (%s)"
          % ("ok" if same else "FAIL", digests[0][len("e2ebench virtual "):]))
    return same


def merge_check():
    """merge() on synthetic process results with a known answer."""
    results = [{"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"x_ms": {"value": v, "unit": "ms"}}} for v in (3.5, 1.25, 2.0)]
    merged = merge(results)
    ok = (merged["metrics"]["x_ms"] == {"value": 2.0, "unit": "ms"}
          and merged["attempted"] == 30 and merged["failed"] == 0 and merged["correct"])
    results[1]["correct"] = False
    results[2]["failed"] = 4
    merged = merge(results)
    ok = ok and not merged["correct"] and merged["failed"] == 4
    print("%s: a run's result is the median over its processes" % ("ok" if ok else "FAIL"))
    return ok


def selftest():
    build()
    rc, out = run_binary(["--selftest"], budget_s=time.monotonic() - STARTED + RUN_BUDGET_S)
    sys.stdout.write(out)
    ok = rc == 0
    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True
    import compare  # noqa: E402  (sibling module)
    ok = compare.selftest() and ok
    ok = merge_check() and ok
    ok = determinism_check() and ok
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")

    budget = BUILD_RUN_BUDGET_S if build() else RUN_BUDGET_S
    processes = 1 if args.trace else PROCESSES.get(args.workload, 1)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / processes), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if args.trace:
        trace_out = os.path.join(BUILD, "traces", "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        cmd += ["--trace-out", trace_out]
    results, report = [], []
    for i in range(processes):
        rc, out = run_binary(cmd, budget)
        lines = out.rstrip("\n").split("\n")
        report.append("e2ebench process %d/%d" % (i + 1, processes))
        report.extend(lines[:-1])
        if rc != 0:
            # No result line on failure: pass the notes on as diagnostics only.
            sys.stderr.write("\n".join(report + lines[-1:]) + "\n")
            log("benchmark exited with code %d" % rc)
            return rc or 1
        report.append("e2ebench process result %s" % lines[-1])
        results.append(json.loads(lines[-1]))
    print("\n".join(report))
    print(json.dumps(merge(results)))
    return 0


def merge(results):
    """One run's result from its processes' results: each metric is the
    median over the processes; operations are summed."""
    names = list(results[0]["metrics"])
    if any(list(r["metrics"]) != names for r in results):
        raise ValueError("processes of one run reported different metrics")
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {n: {"value": statistics.median(r["metrics"][n]["value"] for r in results),
                        "unit": results[0]["metrics"][n]["unit"]} for n in names},
    }


if __name__ == "__main__":
    sys.exit(main())
