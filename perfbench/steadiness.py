#!/usr/bin/env python3
"""Steadiness check for one workload of the PAST benchmark.

    python3 perfbench/steadiness.py --workload web-trace [--runs 10]
        [--seconds 10] [--first-seed 1] [--json out.json]

Runs two sets of untraced runs, interleaved run by run (A1 B1 B2 A2 A3 B3 ...)
so that the host's slow speed drift falls on both sets alike. Set A uses seeds
first-seed.., set B seeds first-seed+100... For each end-to-end metric in
BENCHMARK.json it prints each set's median and quartiles, the spread
(Q3 - Q1) / median, and whether the two sets agree: set B's median is no
worse than set A's by more than the metric's bound, and each spread (setup_s
excepted) is within the bound. "suggest" is the smallest bound that would
keep the measured spreads below a third of it and the median shift below it.
Exits 1 if a check fails or the failed-op shares of the sets differ.

Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed: workload {workload} seed {seed} exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result: workload {workload} seed {seed}")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", default=None, help="also write the per-run results here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for name in order:
            seed = args.first_seed + i + (100 if name == "B" else 0)
            result = run_once(args.workload, seed, seconds)
            sets[name].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                              for m in metrics)
            print(f"run {i + 1}{name} seed {seed}: {values}", flush=True)

    ok = True
    shares = {name: [r["failed"] / r["attempted"] for r in runs] for name, runs in sets.items()}
    if len(set(shares["A"] + shares["B"])) != 1:
        print(f"FAILED-SHARE MISMATCH: {shares}")
        ok = False

    print(f"\n{args.workload}: {args.runs} + {args.runs} interleaved runs, {seconds} s each")
    print(f"{'metric':16} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'bound':>6} {'shift':>7} {'suggest':>7} verdict")
    report = {"workload": args.workload, "seconds": seconds, "runs": sets, "metrics": {}}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        stats = {s: summary([r["metrics"][name]["value"] for r in sets[s]]) for s in sets}
        a, b = stats["A"]["median"], stats["B"]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        spreads = [stats[s]["spread"] for s in sets]
        agree = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
        suggest = max(3 * max(spreads), abs(worse))
        ok &= agree
        for s in sets:
            st = stats[s]
            tail = (f"{bound:6.3f} {worse:+7.3f} {suggest:7.3f} {'ok' if agree else 'DISAGREE'}"
                    if s == "B" else "")
            print(f"{name:16} {s:3} {st['median']:12.5g} {st['q1']:12.5g} {st['q3']:12.5g} "
                  f"{st['spread']:7.3f} {tail}")
        report["metrics"][name] = {"A": stats["A"], "B": stats["B"], "shift": worse,
                                   "bound": bound, "agree": agree}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
