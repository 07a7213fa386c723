"""Steadiness check: repeated runs per workload against BENCHMARK.json bounds.

    python3 hsibench/steady.py --runs 10 [--workloads scene,ensemble] [--first-seed 1] [--trace]

Runs the benchmark command once per seed (first-seed, first-seed + 1, ...)
on each workload, one run at a time, and prints for every end-to-end metric
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median against the metric's bound; a spread at or
above a third of the bound is flagged. The share of failed operations is
printed per workload. With ``--trace`` each seed also gets a traced run, and
the traced rates recorded in its trace file are set against the untraced
ones as tracing overhead. Every result line is kept in
``hsibench/out/steady-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    os.makedirs(OUT, exist_ok=True)
    steady = True
    for name in names:
        lines, traced = [], []
        with open(os.path.join(OUT, f"steady-{name}.jsonl"), "w") as log:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                line = run_once(spec, name, seed, 0)
                log.write(json.dumps({"seed": seed, **line}) + "\n")
                log.flush()
                lines.append(line)
                if args.trace:
                    run_once(spec, name, seed, 1)
                    with open(os.path.join(OUT, f"trace-{name}-{seed}.json")) as fh:
                        traced.append(json.load(fh)["traced_rates"])
        shares = sorted({ln["failed"] / ln["attempted"] for ln in lines})
        correct = all(ln["correct"] for ln in lines)
        print(f"{name}: {len(lines)} runs, correct={correct}, failed share {shares}")
        steady = steady and correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [ln["metrics"][key]["value"] for ln in lines]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  <-- spread >= bound/3"
            if key != "setup_s":
                steady = steady and spread < metric["bound"]
            overhead = ""
            if traced:
                t_med = statistics.median(t[key] for t in traced)
                overhead = f"  traced {t_med:.6g} ({(t_med - med) / med:+.1%})"
            print(f"  {key:24s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:6.2%} bound {metric['bound']:.0%}{overhead}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
