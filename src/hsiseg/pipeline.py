"""Training, ensemble inference, voting fusion, and accuracy metrics."""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, DataError
from .formats import (
    ClassMap,
    LabelMap,
    ProbMap,
    save_class_map,
    save_probmap,
    write_atomic,
    write_class_ppm,
)
from .trispec import TriSpectralSet

# Prediction runs in chunks of about this many pixels: eight 32x32 images share
# one forward, two 64x64 images do, and a 128x128 image runs alone. A forward
# has a fixed cost of about two 32x32 images, which eight images spread thin;
# larger chunks buy little more speed and grow the peak memory of the
# full-resolution im2col.
PIXELS_PER_CHUNK = 8 * 32 * 32


@dataclass
class TrainConfig:
    epochs: int = 30
    batch: int = 4
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0001
    poly_power: float = 0.9
    head_lr_multiplier: float = 10.0
    seed: int = 0
    val_fraction: float = 0.05

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError(
                f"training needs epochs >= 1 and batch >= 1, got {self.epochs} and {self.batch}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (math.isfinite(self.poly_power) and self.poly_power >= 0):
            raise ConfigError(f"poly_power must be finite and >= 0, got {self.poly_power}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not (math.isfinite(self.head_lr_multiplier) and self.head_lr_multiplier > 0):
            raise ConfigError(
                f"head_lr_multiplier must be finite and positive, got {self.head_lr_multiplier}")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class Metrics:
    per_class: list  # recall per class id 1..C, NaN where the class is absent
    oa: float
    aa: float
    kappa: float  # NaN where kappa is undefined (chance agreement is total)
    n_labeled: int

    def to_dict(self):
        return {
            "oa": self.oa,
            "aa": self.aa,
            "kappa": None if math.isnan(self.kappa) else self.kappa,
            "per_class": [None if math.isnan(v) else v for v in self.per_class],
            "n_labeled": self.n_labeled,
        }


@dataclass
class TrainResult:
    train_rows: list  # (iteration, lr, loss)
    val_rows: list  # (epoch, oa_hard, oa_soft)
    holdout: list  # image indices kept for validation


def iteration_count(num_images, epochs, batch):
    return epochs * math.ceil(num_images / batch)


def train(tri_set: TriSpectralSet, labels: LabelMap, model, cfg: TrainConfig,
          out_dir=None) -> TrainResult:
    """Momentum SGD over whole tri-spectral images with a poly learning rate.

    Every batch indexes (B, 3, H, W) complete images from the set's array and
    runs them through the net on one tape, against the shared label map. With a
    positive ``val_fraction`` a seeded slice of images is held out and scored
    by voting after each epoch. Writes train_log.csv / val_log.csv when
    ``out_dir`` is given.
    """
    m = tri_set.capacity
    if labels.labeled_count == 0:
        raise ContractError("training needs at least one labeled pixel")
    rng = np.random.default_rng(cfg.seed)

    indices = rng.permutation(m)
    n_val = 0
    if cfg.val_fraction > 0 and m > 1:
        n_val = min(m - 1, max(1, round(cfg.val_fraction * m)))
    holdout = sorted(int(i) for i in indices[:n_val])
    held_out = TriSpectralSet(tri_set.images[holdout], [tri_set.manifest[i] for i in holdout],
                              [tri_set.degenerate[i] for i in holdout]) if holdout else None
    train_idx = np.array(sorted(int(i) for i in indices[n_val:]))

    per_epoch = math.ceil(len(train_idx) / cfg.batch)
    max_iter = iteration_count(len(train_idx), cfg.epochs, cfg.batch)
    opt = ad.SGD(model.parameters(), momentum=cfg.momentum,
                 weight_decay=cfg.weight_decay,
                 head_lr_multiplier=cfg.head_lr_multiplier)

    train_rows, val_rows = [], []
    iteration = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx)
        for b in range(per_epoch):
            chunk = order[b * cfg.batch:(b + 1) * cfg.batch]
            lr = ad.poly_lr(cfg.lr, iteration, max_iter, cfg.poly_power)
            model.zero_grad()
            loss = model.loss_on(tri_set.images[chunk], labels)
            if not np.isfinite(loss.data).all():
                raise DataError(
                    f"non-finite loss {loss.item()!r} at iteration {iteration} on images "
                    f"{[int(i) for i in chunk]}, produced by op {ad.nonfinite_op(loss)!r}")
            loss.backward()
            for p in opt.params:
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise DataError(
                        f"non-finite gradient of parameter {p.name} at iteration {iteration} "
                        f"on images {[int(i) for i in chunk]}")
            opt.step(lr)
            train_rows.append((iteration, lr, loss.item()))
            del loss  # free this batch's tape before the next forward builds one
            iteration += 1
        if holdout:
            report = run_inference_set(model, held_out, truth=labels)[3]
            val_rows.append((epoch, report["hard"]["oa"], report["soft"]["oa"]))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_atomic(os.path.join(out_dir, "train_log.csv"), "iter,lr,loss\n" + "".join(
            f"{it},{lr!r},{loss!r}\n" for it, lr, loss in train_rows))
        write_atomic(os.path.join(out_dir, "val_log.csv"), "epoch,oa_hard,oa_soft\n" + "".join(
            f"{epoch},{oa_hard!r},{oa_soft!r}\n" for epoch, oa_hard, oa_soft in val_rows))
    return TrainResult(train_rows, val_rows, holdout)


def predict_image(model, image):
    """A ProbMap for one (3, H, W) image, or a list of them for a (B, 3, H, W) batch."""
    probs = model.predict_probabilities(image)
    return ProbMap(probs) if probs.ndim == 3 else [ProbMap(p) for p in probs]


def classify(prob: ProbMap) -> ClassMap:
    return ClassMap(prob.values.argmax(axis=0) + 1)


def _check_same_shapes(shapes):
    if len(set(shapes)) != 1:
        raise ContractError(f"maps disagree on shape: {sorted(set(shapes))}")


def hard_vote(maps) -> ClassMap:
    """Per-pixel plurality class; ties resolve to the smallest class id."""
    maps = list(maps)
    if not maps:
        raise ContractError("hard_vote needs at least one map")
    _check_same_shapes([m.labels.shape for m in maps])
    num_classes = max(int(m.labels.max()) for m in maps)
    h, w = maps[0].labels.shape
    counts = np.zeros((num_classes, h * w), dtype=np.int32)
    pixels = np.arange(h * w)
    for m in maps:
        # each pixel holds one class per map, so no (class, pixel) pair repeats
        counts[m.labels.ravel().astype(np.intp) - 1, pixels] += 1
    return ClassMap(counts.argmax(axis=0).reshape(h, w) + 1)


def soft_vote(maps) -> ClassMap:
    """Argmax of summed probability vectors; ties resolve to the smallest class id."""
    maps = list(maps)
    if not maps:
        raise ContractError("soft_vote needs at least one map")
    _check_same_shapes([m.values.shape for m in maps])
    total = np.zeros(maps[0].values.shape, dtype=np.float64)
    for m in maps:
        total += m.values
    return ClassMap(total.argmax(axis=0) + 1)


def evaluate(pred: ClassMap, truth: LabelMap) -> Metrics:
    """Overall/average accuracy and kappa over the labeled pixels of ``truth``."""
    if pred.labels.shape != truth.labels.shape:
        raise ContractError(
            f"prediction {pred.labels.shape} does not match truth {truth.labels.shape}")
    mask = truth.labels > 0
    n = int(mask.sum())
    if n == 0:
        raise ContractError("evaluation needs at least one labeled pixel")
    t = truth.labels[mask].astype(np.int64)
    p = pred.labels[mask].astype(np.int64)
    k = int(max(t.max(), p.max()))
    confusion = np.bincount((t - 1) * k + (p - 1), minlength=k * k).reshape(k, k)

    row = confusion.sum(axis=1)
    col = confusion.sum(axis=0)
    diag = np.diag(confusion)
    per_class = [diag[c] / row[c] if row[c] > 0 else float("nan") for c in range(k)]
    present = row > 0
    oa = float(diag.sum() / n)
    aa = float(np.mean([per_class[c] for c in range(k) if present[c]]))
    agree = int(diag.sum())
    chance = int((row * col).sum())
    if n * n == chance:
        return Metrics(per_class, oa, aa, float("nan"), n)
    kappa = (n * agree - chance) / (n * n - chance)
    return Metrics(per_class, oa, aa, float(kappa), n)


def run_inference_set(model, tri_set: TriSpectralSet, out_dir=None, truth=None,
                      jobs=1):
    """Predict every image, fuse by both voting schemes, optionally score and persist.

    Images are predicted in chunks of ``max(1, PIXELS_PER_CHUNK // (H * W))``,
    one batched forward per chunk, each chunk a view of the set's array;
    ``jobs > 1`` spreads the chunks over a thread pool. Returns (prob maps,
    hard-vote map, soft-vote map, report dict). The report names the
    degenerate images. Per-image probability and class maps plus both fused
    maps are written under ``out_dir`` when given; metrics require ``truth``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    images = tri_set.images
    h, w = images.shape[2:]
    size = max(1, PIXELS_PER_CHUNK // (h * w))
    chunks = [images[i:i + size] for i in range(0, len(images), size)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(lambda chunk: predict_image(model, chunk), chunks))
    else:  # a pool thread's own malloc arena adds 3-6 MB to a 128x128 run's peak RSS
        batches = [predict_image(model, chunk) for chunk in chunks]
    probs = [p for batch in batches for p in batch]
    class_maps = [classify(p) for p in probs]
    hard = hard_vote(class_maps)
    soft = soft_vote(probs)

    report = {"images": len(images),
              "degenerate": [i for i, flag in enumerate(tri_set.degenerate) if flag]}
    if truth is not None:
        report["hard"] = evaluate(hard, truth).to_dict()
        report["soft"] = evaluate(soft, truth).to_dict()
        report["single"] = [evaluate(cm, truth).oa for cm in class_maps]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for i, (p, cm) in enumerate(zip(probs, class_maps)):
            save_probmap(p, os.path.join(out_dir, f"prob_{i}.prb"))
            save_class_map(cm, os.path.join(out_dir, f"cls_{i}.lbl"))
            write_class_ppm(cm, os.path.join(out_dir, f"cls_{i}.ppm"))
        for name, fused in (("hard", hard), ("soft", soft)):
            save_class_map(fused, os.path.join(out_dir, f"vote_{name}.lbl"))
            write_class_ppm(fused, os.path.join(out_dir, f"vote_{name}.ppm"))
        write_atomic(os.path.join(out_dir, "report.json"), json.dumps(report, indent=2))
    return probs, hard, soft, report
