#!/usr/bin/env python3
"""Check the benchmark against its own bounds.

    python3 perfbench/selfcheck.py spread [--seeds N] [--workloads a,b]
    python3 perfbench/selfcheck.py sensitivity --target W [--seeds N] [--delay F]

spread: run every workload once per seed (seeds 1..N) and print, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) as a
share of the median, against the metric's bound from BENCHMARK.json.

sensitivity: run every workload over the seeds twice, once plain and
once with --inject-delay TARGET=F (which stretches only TARGET's timed
region), and report which (workload, metric) pairs the injected runs
flag as worse than the plain ones by more than the bound.  The check
passes when TARGET is flagged and no other workload is.

Run from the repository root; each run goes through perfbench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed, extra=()):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", "0",
                              *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, res
    return {k: v["value"] for k, v in res["metrics"].items()}


def runs(workload, seeds, extra=()):
    rs = [run(workload, s, extra) for s in seeds]
    return {k: [r[k] for r in rs] for k in rs[0]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(base, new, metric):
    """How much worse the median of [new] is than that of [base]."""
    b, n = statistics.median(base), statistics.median(new)
    if BOUNDS[metric]["better"] == "lower":
        return n / b - 1
    return b / n - 1


def cmd_spread(args):
    ok = True
    for w in args.workloads:
        vals = runs(w, range(1, args.seeds + 1))
        for k, vs in vals.items():
            s, bound = spread(vs), BOUNDS[k]["bound"]
            flag = "" if k == "setup_s" or s < bound / 3 else "  <-- above bound/3"
            if k != "setup_s" and s > bound:
                ok = False
            print(f"{w:14} {k:16} median {statistics.median(vs):14.6g}"
                  f"  spread {s:7.4f}  bound {bound}{flag}", flush=True)
            print(f"{'':31} values {' '.join(f'{v:.6g}' for v in vs)}", flush=True)
    return 0 if ok else 1


def cmd_sensitivity(args):
    seeds = range(1, args.seeds + 1)
    inject = ("--inject-delay", f"{args.target}={args.delay}")
    flagged = []
    for w in args.workloads:
        base, hit = runs(w, seeds), runs(w, seeds, inject)
        for k in base:
            if k == "setup_s":
                continue  # set-up is outside every timed region
            d = worse(base[k], hit[k], k)
            mark = d > BOUNDS[k]["bound"]
            if mark:
                flagged.append((w, k))
            print(f"{w:14} {k:16} worse by {d:+.4f}  bound {BOUNDS[k]['bound']}"
                  f"{'  FLAGGED' if mark else ''}", flush=True)
    on_target = any(w == args.target for w, _ in flagged)
    elsewhere = [f for f in flagged if f[0] != args.target]
    print(f"target flagged: {on_target}; flagged elsewhere: {elsewhere or 'none'}")
    return 0 if on_target and not elsewhere else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["spread", "sensitivity"])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--target", default="steane-concat")
    p.add_argument("--delay", type=float, default=0.3)
    args = p.parse_args()
    args.workloads = args.workloads.split(",")
    return cmd_spread(args) if args.mode == "spread" else cmd_sensitivity(args)


if __name__ == "__main__":
    sys.exit(main())
