"""Alternating A/B timing of inference or training between two source trees.

    python3 tools/ab_infer.py <tree-a> <tree-b> --workload ensemble --pairs 10
    python3 tools/ab_infer.py <tree-a> <tree-b> --workload scene --op train

Each tree is a checkout holding ``src/hsiseg`` and ``hsibench/run.py``. For
every pair, one fresh process per tree (tree A first in even pairs, tree B
first in odd ones, one BLAS thread each) builds the benchmark's seeded
tri-spectral set and nets for the workload, makes one warm-up prediction,
and then repeats the op until a fixed window has passed (at least once).

``--op infer`` (the default) calls ``pipeline.run_inference_set`` over the
whole set with the untrained net; its rate is images per second at the 90th
percentile of the call times, the statistic of the benchmark's
``infer_images_per_s``. ``--op train`` calls ``pipeline.train`` with the
workload's schedule on the same net, as the benchmark's train op does; its
rate is one over the 90th percentile of the per-image iteration times, the
statistic of ``train_images_per_s``. Each process also reports its peak RSS.

Prints one line per pair, then how many pairs B won on rate and the median
rate and peak RSS of each side with their interquartile ranges.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

SEED = 0  # the synthetic scene every child builds


def child(tree, workload, op, seconds):
    """Time ``op`` in this process on ``tree``'s sources."""
    sys.path.insert(0, os.path.join(tree, "hsibench"))
    import run  # puts the tree's src/ first on sys.path

    from hsiseg import pipeline, trispec
    from hsiseg.synth import synth_scene

    wl = run.WORKLOADS[workload]
    cube, truth, labels = synth_scene(SEED, wl.size, wl.size, wl.bands, wl.classes,
                                      labels_per_class=wl.labels_per_class)
    tri = trispec.generate_set(cube, wl.groups)
    net = run.build_net(wl, run.ClockedNet)  # its zero_grad stamps each iteration
    run.warm_up(wl, net)
    if op == "train":
        n_train = wl.train_images or len(tri.images)
        train_set = trispec.TriSpectralSet(tri.images[:n_train], tri.manifest[:n_train],
                                           tri.degenerate[:n_train])
        cfg = pipeline.TrainConfig(epochs=wl.epochs, batch=wl.batch, **run.TRAIN)

    per_image = []
    end = time.perf_counter() + seconds
    while not per_image or time.perf_counter() < end:
        if op == "train":
            net.stamps.clear()
            pipeline.train(train_set, labels, net, cfg)
            per_image += run.iteration_seconds(net.stamps, time.perf_counter(), n_train,
                                               wl.batch, wl.epochs)
        else:
            start = time.perf_counter()
            pipeline.run_inference_set(net, tri, truth=truth)
            per_image.append((time.perf_counter() - start) / len(tri.images))
    print(json.dumps({"images_per_s": 1.0 / run.slow_decile(per_image),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


def measure(tree, args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", tree,
         "--workload", args.workload, "--op", args.op, "--seconds", str(args.seconds)],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["images_per_s"], result["peak_rss_mb"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", metavar="tree")
    ap.add_argument("--workload", default="ensemble")
    ap.add_argument("--op", choices=("infer", "train"), default="infer")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0, help="timing window per process")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child, args.workload, args.op, args.seconds)
        return 0
    if len(args.trees) != 2 or args.pairs < 1:
        ap.error("give two trees and at least one pair")
    trees = [os.path.abspath(t) for t in args.trees]
    rates, rss = ([], []), ([], [])
    wins = 0
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            rate, peak = measure(trees[side], args)
            rates[side].append(rate)
            rss[side].append(peak)
        wins += rates[1][-1] > rates[0][-1]
        print(f"pair {i + 1}: A {rates[0][-1]:.1f} images/s {rss[0][-1]:.1f} MB"
              f"  B {rates[1][-1]:.1f} images/s {rss[1][-1]:.1f} MB"
              f"  ({'A' if i % 2 == 0 else 'B'} first)", flush=True)
    print(f"B faster in {wins} of {args.pairs} pairs")
    for name, side in zip("AB", (0, 1)):
        (r1, r3), (m1, m3) = quartiles(rates[side]), quartiles(rss[side])
        print(f"{name}: median {statistics.median(rates[side]):.1f} images/s, "
              f"IQR {r3 - r1:.1f} ({r1:.1f}-{r3:.1f}); "
              f"peak RSS median {statistics.median(rss[side]):.1f} MB, IQR {m3 - m1:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
