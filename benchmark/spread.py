#!/usr/bin/env python3
"""Run every workload with N seeds and print, per end-to-end metric, the
median, the quartiles and the quartile distance as a share of the median
(the number BENCHMARK.json's bounds are set against: a bound should be at
least three times it).

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--seconds 8] [--out FILE]
"""
import argparse, json, statistics, subprocess, sys, time

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--seconds", type=int, default=None)
ap.add_argument("--out", default=None)
ap.add_argument("--workloads", default=None)
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
seconds = args.seconds or bench["run_seconds"]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
table = {}
for workload in names:
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {out.returncode}\n{out.stdout}\n{out.stderr}")
        last = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{workload} seed={seed} {time.time() - start:.1f}s " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(last["metrics"].items())), flush=True)
        for k, v in last["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    table[workload] = {}
    for k, v in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        table[workload][k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(v)}
        flag = "" if k == "setup_s" or 3 * spread <= bounds[k] else "  <-- above a third of the bound"
        print(f"  {workload:14s} {k:9s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={100 * spread:5.2f}% bound={100 * bounds[k]:.0f}%{flag}", flush=True)
if args.out:
    json.dump(table, open(args.out, "w"), indent=1)
