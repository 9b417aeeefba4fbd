#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 e2ebench/compare.py collect --out DIR [--runs 10]
                                        [--workloads sim-fleet,udp-push,udp-query]
    python3 e2ebench/compare.py spread DIR
    python3 e2ebench/compare.py diff BASE_DIR NEW_DIR

collect runs run.py untraced once per seed 1..runs and workload and keeps
each run's standard output as DIR/<workload>-seed<n>.out. spread prints,
per workload and end-to-end metric, the median, the quartiles and the
inter-quartile spread as a share of the median, and flags every metric
whose spread is above a third of its bound in BENCHMARK.json. diff compares two sets: for each workload and metric it
prints both medians and quartiles, the share of pairs (matched by seed)
the new set wins, and a verdict:

  better      the new set wins at least 9/10 of the pairs and its median is
              better by more than the base set's inter-quartile distance
  worse       the new median is worse than the base median by more than
              the bound
  unresolved  either set spreads wider than the bound and the new set does
              not beat every base run
  no worse    otherwise

Runs whose host/build fingerprints differ, or that come from an
unoptimised build, are never compared.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fingerprint fields that must match for two timings to be comparable.
HOST_KEYS = ("nproc", "cpu_model", "build_type", "optimized", "compiler")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(text):
    """Returns (run info, fingerprint, result) from one run's stdout."""
    info = fingerprint = result = None
    lines = [l for l in text.splitlines() if l.strip()]
    for line in lines:
        if line.startswith("e2ebench run "):
            info = json.loads(line[len("e2ebench run "):])
        elif line.startswith("e2ebench fingerprint "):
            fingerprint = json.loads(line[len("e2ebench fingerprint "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return info, fingerprint, result


def load_set(directory):
    """{workload: [(seed, fingerprint, result)]} for every run in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as f:
            info, fp, result = parse_run(f.read())
        if info is None or fp is None or result is None:
            sys.stderr.write("compare: %s holds no complete run, skipped\n" % path)
            continue
        runs.setdefault(info["workload"], []).append((info["seed"], fp, result))
    for workload in runs:
        runs[workload].sort(key=lambda r: r[0])
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, better, bound, pairs):
    """Verdict for one metric; `pairs` are (base, new) values matched by seed."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    share_won = wins / len(pairs) if pairs else 0.0
    gain = sign * (nmed - bmed)
    worse_by = -gain / abs(bmed) if bmed else 0.0
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if pairs and share_won >= 0.9 and gain > (bq3 - bq1):
        v = "better"
    elif worse_by > bound:
        v = "worse"
    elif max(spread(base), spread(new)) > bound and not all_better:
        v = "unresolved"
    else:
        v = "no worse"
    return v, share_won, wins, losses


def check_fingerprints(*sets):
    prints = set()
    for s in sets:
        for runs in s.values():
            for _, fp, _ in runs:
                if not fp.get("optimized", False):
                    return "a run comes from an unoptimised build"
                prints.add(tuple(str(fp.get(k)) for k in HOST_KEYS))
    if len(prints) > 1:
        return "runs come from different hosts or builds: %s" % sorted(prints)
    return None


def cmd_collect(args):
    os.makedirs(args.out, exist_ok=True)
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    for workload in workloads:
        for i in range(args.runs):
            seed = 1 + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            path = os.path.join(args.out, "%s-seed%d.out" % (workload, seed))
            with open(path, "wb") as f:
                f.write(proc.stdout)
            status = "ok" if proc.returncode == 0 else "exit %d" % proc.returncode
            print("%s seed %d: %s" % (workload, seed, status), flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
    return 0


def cmd_spread(args):
    bench = load_benchmark()
    runs = load_set(args.dir)
    problem = check_fingerprints(runs)
    if problem:
        print("compare: %s" % problem)
        return 1
    worst = 0
    for workload, rs in sorted(runs.items()):
        results = [r for _, _, r in rs]
        failed_share = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, all correct: %s, failed share: %s"
              % (workload, len(rs), all(r["correct"] for r in results), failed_share))
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results
                      if metric["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            limit = metric["bound"] / 3
            flag = "" if s <= limit else "  <-- above bound/3"
            if flag:
                worst = 1
            print("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f  bound %.3f%s"
                  % (metric["name"], med, q1, q3, s, metric["bound"], flag))
    return worst


def cmd_diff(args):
    bench = load_benchmark()
    base, new = load_set(args.base), load_set(args.new)
    problem = check_fingerprints(base, new)
    if problem:
        print("compare: not compared, %s" % problem)
        return 1
    for workload in sorted(set(base) & set(new)):
        b_runs = {seed: r for seed, _, r in base[workload]}
        n_runs = {seed: r for seed, _, r in new[workload]}
        print("%s (%d base runs, %d new runs)" % (workload, len(b_runs), len(n_runs)))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs.values() if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs.values() if name in r["metrics"]]
            if not bv or not nv:
                continue
            pairs = [(b_runs[s]["metrics"][name]["value"], n_runs[s]["metrics"][name]["value"])
                     for s in sorted(set(b_runs) & set(n_runs))]
            if not pairs:  # different seeds: pair in run order
                pairs = list(zip(bv, nv))
            v, share, _, _ = verdict(bv, nv, metric["better"], metric["bound"], pairs)
            bq = quartiles(bv)
            nq = quartiles(nv)
            print("  %-20s base %-11.5g [%-.5g, %-.5g]  new %-11.5g [%-.5g, %-.5g]  "
                  "won %3.0f%%  %s" % (name, bq[1], bq[0], bq[2], nq[1], nq[0], nq[2],
                                        100 * share, v))
    return 0


def selftest():
    """Checks the statistics above on synthetic sets with known verdicts."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        if not cond:
            ok = False
            print("FAIL: compare %s" % what)

    expect(quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25),
           "quartiles follow statistics.quantiles(n=4)")
    expect(abs(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - 5.5 / 5.5) < 1e-12,
           "spread is the inter-quartile distance over the median")
    base = [100 + i for i in range(10)]
    faster = [80 + i for i in range(10)]
    pairs = list(zip(base, faster))
    expect(verdict(base, faster, "lower", 0.1, pairs)[0] == "better", "a clear gain is better")
    expect(verdict(faster, base, "lower", 0.1, list(zip(faster, base)))[0] == "worse",
           "a clear loss beyond the bound is worse")
    same = [100 + ((i * 7) % 10) for i in range(10)]
    expect(verdict(base, same, "lower", 0.1, list(zip(base, same)))[0] == "no worse",
           "a reshuffle of the same values is no worse")
    noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    expect(verdict(base, noisy, "lower", 0.1, list(zip(base, noisy)))[0] == "unresolved",
           "a set spreading wider than the bound is unresolved")
    higher = [x + 10 for x in base]
    expect(verdict(base, higher, "higher", 0.1, list(zip(base, higher)))[0] == "better",
           "a consistent gain on a higher-is-better metric is better")
    nudged = [x + 1 for x in base]
    expect(verdict(base, nudged, "higher", 0.1, list(zip(base, nudged)))[0] == "no worse",
           "a gain smaller than the base spread is not claimed")
    expect(check_fingerprints({"w": [(1, {"optimized": False}, {})]}) is not None,
           "unoptimised builds are refused")
    fp = dict(nproc=4, cpu_model="x", build_type="Release", optimized=True, compiler="gcc")
    other = dict(fp, nproc=1)
    expect(check_fingerprints({"w": [(1, fp, {})]}, {"w": [(1, other, {})]}) is not None,
           "different hosts are refused")
    expect(check_fingerprints({"w": [(1, fp, {})]}, {"w": [(2, dict(fp), {})]}) is None,
           "the same host and build compare")
    print("compare selftest %s" % ("ok" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--workloads")
    s = sub.add_parser("spread")
    s.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = parser.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
