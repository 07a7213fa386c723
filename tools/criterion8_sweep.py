"""Acceptance criterion 8 over a range of synth seeds.

    PYTHONPATH=src python3 tools/criterion8_sweep.py --first 100 --count 11

Runs the set-up of ``test_criterion_8_desk_scale_trainability`` in
``tests/test_acceptance.py`` once per synth seed: a 32x32x20 scene with 3
classes and 100 labels per class, its G=5 tri-spectral set (10 images), and
the desk net (C=32, Z=16, T=3, h=2, net seed 1) trained for the criterion's
fixed 300 iterations. The test itself checks synth seed 0 only.

Prints one line per seed: soft-voted OA on the training pixels, the best
and worst single-image OA, the mean loss over the last epoch, the most empty
areas in any image's final forward pass, and how many of those passes fell
back to a previous center (``AreaAssignment.used_fallback``). A closing line
counts the seeds whose soft-voted OA is below 0.95. Nothing is tuned: the
threshold, schedule and seeds are the criterion's own.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from hsiseg import autodiff as ad
from hsiseg.model import BackboneConfig, DualContextNet
from hsiseg.pipeline import TrainConfig, run_inference_set, train
from hsiseg.synth import synth_scene
from hsiseg.trispec import generate_set

THRESHOLD = 0.95


def run_seed(seed):
    cube, _, labels = synth_scene(seed, 32, 32, 20, 3, labels_per_class=100)
    tri = generate_set(cube, 5)
    model = DualContextNet(
        num_classes=3,
        backbone=BackboneConfig(widths=(16, 32, 64, 64), convs_per_stage=(1, 1, 2, 2)),
        channels=32, num_areas=16, iterations=3, heads=2, seed=1)
    cfg = TrainConfig(epochs=100, batch=4, lr=0.001, momentum=0.95,
                      weight_decay=0.0001, head_lr_multiplier=10.0, seed=1,
                      val_fraction=0.0)
    result = train(tri, labels, model, cfg)
    per_epoch = math.ceil(tri.capacity / cfg.batch)
    last_loss = float(np.mean([loss for _, _, loss in result.train_rows[-per_epoch:]]))

    report = run_inference_set(model, tri, truth=labels)[3]
    singles = report["single"]
    voted = report["soft"]["oa"]
    with ad.no_grad():
        areas = [model.context(model.features(img))[1] for img in tri.images]
    empty = max(int(np.count_nonzero(a.counts == 0)) for a in areas)
    fallback = sum(a.used_fallback for a in areas)
    return voted, max(singles), min(singles), last_loss, empty, fallback


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first", type=int, default=0, help="first synth seed (default 0)")
    ap.add_argument("--count", type=int, default=40, help="number of seeds (default 40)")
    args = ap.parse_args(argv)

    print("seed  soft_oa  best_oa  worst_oa  last_loss  empty  fallback  seconds")
    below = []
    for seed in range(args.first, args.first + args.count):
        start = time.perf_counter()
        voted, best, worst, loss, empty, fallback = run_seed(seed)
        print(f"{seed:4d}  {voted:7.4f}  {best:7.4f}  {worst:8.4f}  {loss:9.4f}  "
              f"{empty:5d}  {fallback:8d}  {time.perf_counter() - start:7.1f}", flush=True)
        if voted < THRESHOLD:
            below.append(seed)
    print(f"{len(below)} of {args.count} seeds below soft-voted OA {THRESHOLD}: {below}")


if __name__ == "__main__":
    main()
