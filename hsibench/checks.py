"""Correctness checks, computed apart from the program.

Each check recomputes a result from its definition (nearest-rank stretch,
bincount plurality, float64 probability sums, a confusion matrix) or tests a
property the method must have. None compares against stored output. A check
returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PROB_SUM_TOL = 1e-4
METRIC_TOL = 1e-12
STRETCH_SAMPLES = 8


def capacity(tri, groups):
    expected = groups * (groups - 1) * (groups - 2) // 6
    if len(tri.images) != expected or len(tri.manifest) != expected:
        return [f"{len(tri.images)} images for G={groups}, expected {expected}"]
    return []


def _stretch(raw):
    flat = np.sort(raw, axis=None)
    n = flat.size
    p, q = flat[math.floor(0.02 * (n - 1))], flat[math.ceil(0.98 * (n - 1))]
    if p == q:
        return np.zeros(raw.shape, np.uint8)
    return np.clip(np.floor(255.0 * (raw - p) / (q - p) + 0.5), 0, 255).astype(np.uint8)


def stretch_sample(cube, groups, tri):
    """Manifest order and a spread of images against a nearest-rank 2%/98% stretch."""
    triplets = sorted((tuple(sorted(c, reverse=True))
                       for c in itertools.combinations(range(1, groups + 1), 3)), reverse=True)
    got = [(t.g1, t.g2, t.g3) for t in tri.manifest]
    if got != triplets:
        return ["manifest is not the descending triplet enumeration"]
    bands, h, w = cube.values.shape
    means = cube.values.astype(np.float64).reshape(groups, bands // groups, h, w).mean(axis=1)
    errors = []
    for i in sorted(set(np.linspace(0, len(triplets) - 1, STRETCH_SAMPLES).astype(int))):
        ref = _stretch(np.stack([means[g - 1] for g in triplets[i]]))
        if not np.array_equal(tri.images[i], ref):
            errors.append(f"image {i} differs from the nearest-rank stretch")
    return errors


def probabilities(probs):
    errors = []
    for i, p in enumerate(probs):
        v = p.values
        if not np.all(np.isfinite(v)):
            errors.append(f"probability map {i} is not finite")
        elif np.abs(v.sum(axis=0, dtype=np.float64) - 1.0).max() > PROB_SUM_TOL:
            errors.append(f"probability map {i} does not sum to 1 per pixel")
    return errors


def hard_vote_oracle(class_maps):
    stack = np.stack([m.labels.astype(np.int64).ravel() for m in class_maps])
    n = stack.shape[1]
    k = int(stack.max())
    counts = np.bincount((stack * n + np.arange(n)).ravel(), minlength=(k + 1) * n)
    return counts.reshape(k + 1, n)[1:].argmax(axis=0).reshape(class_maps[0].labels.shape) + 1


def soft_vote_oracle(probs):
    total = np.zeros(probs[0].values.shape, np.float64)
    for p in probs:
        total += p.values
    return total.argmax(axis=0) + 1


def votes(probs, class_maps, hard, soft):
    errors = []
    for i, (p, cm) in enumerate(zip(probs, class_maps)):
        if not np.array_equal(cm.labels, p.values.argmax(axis=0) + 1):
            errors.append(f"class map {i} is not the argmax of its probabilities")
            break
    if not np.array_equal(hard.labels, hard_vote_oracle(class_maps)):
        errors.append("hard vote differs from the bincount plurality")
    if not np.array_equal(soft.labels, soft_vote_oracle(probs)):
        errors.append("soft vote differs from the argmax of float64 sums")
    return errors


def scores(pred, truth):
    """OA, AA and kappa from a bincount confusion matrix."""
    mask = truth > 0
    t = truth[mask].astype(np.int64) - 1
    p = pred[mask].astype(np.int64) - 1
    k = int(max(t.max(), p.max())) + 1
    confusion = np.bincount(t * k + p, minlength=k * k).reshape(k, k).astype(np.float64)
    n = confusion.sum()
    rows, cols, diag = confusion.sum(axis=1), confusion.sum(axis=0), np.diag(confusion)
    oa = diag.sum() / n
    aa = np.mean(diag[rows > 0] / rows[rows > 0])
    chance = (rows * cols).sum() / (n * n)
    kappa = (oa - chance) / (1.0 - chance) if chance != 1.0 else None
    return oa, aa, kappa


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= METRIC_TOL


def report(rep, hard, soft, class_maps, truth):
    errors = []
    for name, fused in (("hard", hard), ("soft", soft)):
        oa, aa, kappa = scores(fused.labels, truth.labels)
        got = rep[name]
        if not (_close(got["oa"], oa) and _close(got["aa"], aa) and _close(got["kappa"], kappa)):
            errors.append(f"{name} OA/AA/kappa differ from the confusion-matrix oracle")
    mask = truth.labels > 0
    singles = [float(np.mean(cm.labels[mask] == truth.labels[mask])) for cm in class_maps]
    if not all(_close(a, b) for a, b in zip(rep["single"], singles)) \
            or len(rep["single"]) != len(singles):
        errors.append("per-image OA differs from the oracle")
    return errors


def losses(rows, per_epoch, must_fall):
    values = [loss for _, _, loss in rows]
    if not all(math.isfinite(v) for v in values):
        return ["a training loss is not finite"]
    if must_fall and not np.mean(values[-per_epoch:]) < values[0]:
        return [f"last epoch mean loss {np.mean(values[-per_epoch:]):.4f} "
                f"is not below the first loss {values[0]:.4f}"]
    return []
