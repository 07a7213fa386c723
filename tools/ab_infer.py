"""Alternating A/B timing of ensemble inference between two source trees.

    python3 tools/ab_infer.py <tree-a> <tree-b> --workload ensemble --pairs 10

Each tree is a checkout holding ``src/hsiseg`` and ``hsibench/run.py``. For
every pair, one fresh process per tree (tree A first in even pairs, tree B
first in odd ones, one BLAS thread each) builds the benchmark's seeded
tri-spectral set and untrained net for the workload, makes one warm-up
prediction, and then calls ``pipeline.run_inference_set`` over the whole set
until a fixed window has passed (at least once). Its rate is images per
second at the 90th percentile of the call times, the statistic of the
benchmark's ``infer_images_per_s``.

Prints one line per pair, then how many pairs B won and the median rate of
each side with its interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SEED = 0  # the synthetic scene every child builds


def child(tree, workload, seconds):
    """Time ``run_inference_set`` in this process on ``tree``'s sources."""
    sys.path.insert(0, os.path.join(tree, "hsibench"))
    import run  # puts the tree's src/ first on sys.path

    from hsiseg import pipeline, trispec
    from hsiseg.synth import synth_scene

    wl = run.WORKLOADS[workload]
    cube, truth, _ = synth_scene(SEED, wl.size, wl.size, wl.bands, wl.classes,
                                 labels_per_class=wl.labels_per_class)
    tri = trispec.generate_set(cube, wl.groups)
    net = run.build_net(wl)
    run.warm_up(wl, net)
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        pipeline.run_inference_set(net, tri, truth=truth)
        times.append(time.perf_counter() - start)
    print(json.dumps({"images_per_s": len(tri.images) / run.slow_decile(times),
                      "calls": len(times)}))


def measure(tree, args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", tree,
         "--workload", args.workload, "--seconds", str(args.seconds)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["images_per_s"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", metavar="tree")
    ap.add_argument("--workload", default="ensemble")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0, help="timing window per process")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child, args.workload, args.seconds)
        return 0
    if len(args.trees) != 2 or args.pairs < 1:
        ap.error("give two trees and at least one pair")
    trees = [os.path.abspath(t) for t in args.trees]
    rates = ([], [])
    wins = 0
    for i in range(args.pairs):
        pair = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side] = measure(trees[side], args)
            rates[side].append(pair[side])
        wins += pair[1] > pair[0]
        print(f"pair {i + 1}: A {pair[0]:.1f}  B {pair[1]:.1f} images/s"
              f"  ({'A' if i % 2 == 0 else 'B'} first)", flush=True)
    print(f"B faster in {wins} of {args.pairs} pairs")
    for name, values in zip("AB", rates):
        q1, q3 = quartiles(values)
        print(f"{name}: median {statistics.median(values):.1f} images/s, "
              f"IQR {q3 - q1:.1f} ({q1:.1f}-{q3:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
