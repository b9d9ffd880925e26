#!/usr/bin/env python3
"""Steadiness self-check: run each workload repeatedly on one build.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py [--runs 10] [--seconds N]
                                    [--workloads kv-write,txn-bank]
                                    [--trace 0] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) for
every workload and prints, for each metric, the median, the first and third
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and, for
end-to-end metrics, the bound BENCHMARK.json allows and whether the spread
stays below it and below a third of it. It also prints each workload's share
of failed operations, which must be the same in every run. The per-run JSON
lines are kept in --log for later comparison. Exits non-zero if any run
fails, reports incorrect output, a spread exceeds its bound, or the failed
shares differ between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    # The program's one-line summary (tail latencies, host steal) and its
    # account of each failed operation.
    result["stderr"] = [l for l in out.stderr.splitlines()
                        if l.startswith("perfbench:")]
    for line in result["stderr"]:
        if "FAILED" in line:
            print("    " + line)
    return result


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--log", default=None,
                   help="append every run's JSON result to this file")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds, args.trace)
            if r is None:
                print("%s seed %d: run failed" % (workload, seed))
                ok = False
                continue
            if not r["correct"]:
                print("%s seed %d: incorrect output" % (workload, seed))
                ok = False
            r["seed"] = seed
            results.append(r)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "trace": args.trace,
                                        "result": r}) + "\n")
        if len(results) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, failed share %s" %
              (workload, len(results), " ".join("%.6g" % s for s in shares)))
        if len(shares) != 1:
            print("  failed shares differ between runs: " + ", ".join(
                "seed %d: %d of %d" % (r["seed"], r["failed"], r["attempted"])
                for r in results if r["failed"]))
            ok = False
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = "  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f" \
                % (name, med, q1, q3, spread)
            if name in bounds:
                b = bounds[name]
                verdict = "ok" if spread < b / 3 else \
                    ("within bound" if spread <= b else "TOO WIDE")
                if spread > b:
                    ok = False
                line += "  bound %.2f %s" % (b, verdict)
            print(line)
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
