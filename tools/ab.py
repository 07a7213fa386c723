"""Paired A/B runs of the benchmark between a parent tree and a changed tree.

    python3 tools/ab.py <parent-tree> <this-tree> --pairs 3 --out BENCH_<pr>.json

Pair i (i = 1..N) runs, for each workload, each tree's own ``BENCHMARK.json``
command with ``--workload W --seed i --seconds S --trace 0`` in that tree, one
run at a time, the parent first in odd pairs; ``S`` defaults to ``run_seconds``.
Workloads and metrics (``better``, ``bound``) come from the changed tree.

``--out`` gets the command, the machine, each tree's ``src/`` line count,
whether ``tools/fingerprint.py`` prints the same lines on each tree's ``src/``
(with a failing side's last error line), and every run: its result line, or
its exit code (``"timeout"`` past S + 600 s) and last stderr line. Per workload
and metric, over the pairs where both runs were correct: each side's median and
quartiles, the change's wins, the relative change of the medians, the bound and
whether the change is worse beyond it. It is rewritten after every run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

SIDES = ("parent", "change")


def run(cmd, limit, **kwargs):
    """``cmd``'s exit code, standard output and last line of standard error."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=limit, **kwargs)
    except subprocess.TimeoutExpired:
        return "timeout", "", f"no exit after {limit} s"
    return done.returncode, done.stdout, (done.stderr.strip().splitlines() or [""])[-1]


def run_bench(tree, workload, seed, seconds):
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    code, out, err = run(cmd, seconds + 600, cwd=tree)
    try:
        line = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
    except (IndexError, json.JSONDecodeError):
        line = None
    return {"result": line} if isinstance(line, dict) else {"exit": code, "stderr": err}


def fingerprint(tree):
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    code, out, err = run([sys.executable, Path(__file__).with_name("fingerprint.py")], 600, env=env)
    return (out, None) if code == 0 else (None, err)


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric, parent, change):
    """The change's medians against the parent's, for one metric over paired values."""
    sign = 1 if metric["better"] == "higher" else -1
    med_p, med_c = statistics.median(parent), statistics.median(change)
    rel = (med_c - med_p) / med_p
    return {"parent": quartiles(parent), "change": quartiles(change),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "change_of_median": rel, "bound": metric["bound"],
            "worse_beyond_bound": sign * rel < -metric["bound"]}


def summarize(spec, runs, workload):
    pairs = {}
    for r in runs:
        if r["workload"] == workload and r.get("result", {}).get("correct") is True:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    both = [p for p in pairs.values() if len(p) == 2]
    metrics = {m["name"]: compare(m, *([p[side][m["name"]]["value"] for p in both]
                                       for side in SIDES))
               for m in spec["end_to_end"]} if both else {}
    return {"pairs": len(both), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, metavar="tree", help="the parent tree, then the changed one")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=float, help="budget per run; default run_seconds")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("give at least one pair")
    trees = [Path(t).resolve() for t in args.trees]
    spec = json.loads((trees[1] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    prints, errors = zip(*map(fingerprint, trees))
    report = {
        "command": spec["command"] + ["--workload", "<workload>", "--seed", "<pair>",
                                      "--seconds", str(seconds), "--trace", "0"],
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": version("numpy")},
        "src_lines": {side: sum(len(p.read_text().splitlines()) for p in (t / "src").rglob("*.py"))
                      for side, t in zip(SIDES, trees)},
        "fingerprint_equal": None not in prints and prints[0] == prints[1],
        "fingerprint_errors": dict(zip(SIDES, errors)),
        "runs": [],
    }
    for seed in range(1, args.pairs + 1):
        for workload in workloads:
            for side in ((0, 1) if seed % 2 else (1, 0)):
                r = {"side": SIDES[side], "workload": workload, "seed": seed,
                     **run_bench(trees[side], workload, seed, seconds)}
                report["runs"].append(r)
                print(f"pair {seed} {workload} {r['side']}:", f"exit {r['exit']}" if "exit" in r
                      else f"correct {r['result'].get('correct')}", flush=True)
                report["workloads"] = {w: summarize(spec, report["runs"], w) for w in workloads}
                Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
