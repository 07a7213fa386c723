"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 8 trains the desk-scale network end to end and is the only
slow entry (about a minute on one CPU core).
"""

import math
import time

import numpy as np
import pytest

from hsiseg.autodiff import Tensor
from hsiseg.cluster import run_clustering
from hsiseg.dcm import DualContextModule
from hsiseg.formats import ClassMap, LabelMap, ProbMap
from hsiseg.gradcheck import full_report
from hsiseg.model import BackboneConfig, DualContextNet
from hsiseg.pipeline import (
    TrainConfig,
    classify,
    evaluate,
    hard_vote,
    predict_image,
    soft_vote,
    train,
)
from hsiseg.synth import synth_scene
from hsiseg.trispec import compute_capacity, generate_set, linear_stretch

from helpers import zero_parameters


def _report(number, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {marker}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_capacity_table():
    """Ensemble capacity for G in {3,5,6,9,10,15,18} is exactly
    {1,10,20,84,120,455,816}."""
    expected = {3: 1, 5: 10, 6: 20, 9: 84, 10: 120, 15: 455, 18: 816}
    got = {g: compute_capacity(g) for g in expected}
    _report(1, got == expected, f"capacity table {got}")


def test_criterion_2_stretch_oracle():
    """linear_stretch matches a sort-based percentile + per-element linear-map
    oracle bit-exactly on 200 random images; monotone, in range."""
    from test_trispec import stretch_oracle

    rng = np.random.default_rng(2024)
    checked = 0
    for i in range(200):
        shape = (3, int(rng.integers(4, 12)), int(rng.integers(4, 12)))
        raw = rng.standard_normal(shape) * rng.uniform(0.1, 50) + rng.uniform(-20, 20)
        mine, f1 = linear_stretch(raw)
        ref, f2 = stretch_oracle(raw)
        assert f1 == f2
        if not np.array_equal(mine, ref):
            _report(2, False, f"mismatch on image {i}")
        order = np.argsort(raw.ravel(), kind="stable")
        out = mine.ravel().astype(int)[order]
        assert np.all(np.diff(out) >= 0), "monotonicity violated"
        assert mine.min() >= 0 and mine.max() <= 255
        checked += 1
    _report(2, checked == 200, f"{checked} images bit-exact vs brute-force oracle")


def test_criterion_3_gradient_suite():
    """Finite differences confirm every primitive, both transformer layers,
    the context block, and the end-to-end toy loss."""
    start = time.time()
    rows = full_report(seed=0)
    worst = max(err for _, err in rows)
    bad = [name for name, err in rows if err >= 1e-4]
    elapsed = time.time() - start
    _report(3, not bad and elapsed < 120,
            f"{len(rows)} blocks, worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_clustering_oracle():
    """Windowed clustering equals a dense brute-force implementation on 50
    random 8x8x4 maps for T in {1,3,5}: identical labels, centers to 1e-6."""
    from test_cluster import dense_clustering_oracle

    rng = np.random.default_rng(4)
    worst_center = 0.0
    for _ in range(50):
        f = rng.standard_normal((4, 8, 8))
        for t in (1, 3, 5):
            areas = run_clustering(f[None], 4, t)
            labels, centers = dense_clustering_oracle(f, 4, t, areas.layout)
            if not np.array_equal(areas.labels[0], labels):
                _report(4, False, f"label mismatch at T={t}")
            worst_center = max(worst_center,
                               float(np.abs(areas.centers[0] - centers).max()))
    _report(4, worst_center < 1e-6,
            f"150 runs, labels identical, max center error {worst_center:.2e}")


def test_criterion_5_structural_identity():
    """With attention and MLP output projections zeroed, the context module
    returns concat(F, F + positional encoding of F) to 1e-6."""
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        block = DualContextModule(channels=8, num_areas=4, iterations=3, heads=2, mlp_ratio=2,
                                  use_input=True, use_regional=True, use_global=True, rng=rng)
        zero_parameters(block)
        f = Tensor(rng.standard_normal((1, 8, 8, 8)))
        out, _ = block(f)
        pos = block.pos_map(f).data
        expected = np.concatenate([f.data, f.data + pos], axis=1)
        worst = max(worst, float(np.abs(out.data - expected).max()))
    _report(5, worst < 1e-6, f"zero-projection identity, max deviation {worst:.2e}")


def test_criterion_6_voting_equivalence():
    """Soft voting over one-hot probability maps equals hard voting over their
    argmax class maps, exactly, on 500 random small ensembles."""
    rng = np.random.default_rng(6)
    for draw in range(500):
        m = int(rng.integers(1, 7))
        classes = int(rng.integers(2, 5))
        probs = []
        for _ in range(m):
            winners = rng.integers(0, classes, (3, 3))
            probs.append(ProbMap(np.moveaxis(
                np.eye(classes, dtype=np.float32)[winners], -1, 0)))
        soft = soft_vote(probs).labels
        hard = hard_vote([classify(p) for p in probs]).labels
        if not np.array_equal(soft, hard):
            _report(6, False, f"divergence on draw {draw}")
    _report(6, True, "500 one-hot ensembles agree exactly")


def test_criterion_7_metrics_oracle():
    """OA/AA/kappa match a loop-based confusion oracle to 1e-12; the two
    pinned analytic cases hold."""
    from test_pipeline import metrics_oracle

    rng = np.random.default_rng(7)
    worst = 0.0
    done = 0
    while done < 100:
        truth = LabelMap(rng.integers(0, 5, (7, 7)).astype(np.uint16))
        if truth.labeled_count == 0:
            continue
        pred = ClassMap(rng.integers(1, 6, (7, 7)))
        m = evaluate(pred, truth)
        po, aa, kappa, _ = metrics_oracle(pred, truth)
        worst = max(worst, abs(m.oa - po), abs(m.aa - aa))
        if math.isnan(kappa):
            assert math.isnan(m.kappa)
        else:
            worst = max(worst, abs(m.kappa - kappa))
        done += 1

    perfect = evaluate(ClassMap(np.array([[1, 2], [2, 1]])),
                       LabelMap(np.array([[1, 2], [2, 1]], np.uint16)))
    balanced = evaluate(ClassMap(np.array([[1, 2], [1, 2]])),
                        LabelMap(np.array([[1, 1], [2, 2]], np.uint16)))
    analytic = perfect.kappa == 1.0 and perfect.oa == 1.0 and balanced.kappa == 0.0
    _report(7, worst < 1e-12 and analytic,
            f"100 random pairs, max deviation {worst:.2e}; kappa analytic cases hold")


def test_criterion_8_desk_scale_trainability():
    """32x32x20 synthetic scene, 3 classes, G=5 (10 images), desk network
    (C=32, Z=16, T=3, h=2), 300 iterations: soft-voted OA on the training
    pixels reaches 0.95 and voting does not degrade the best single image by
    more than 0.02."""
    start = time.time()
    cube, truth, train_labels = synth_scene(0, 32, 32, 20, 3, labels_per_class=100)
    tri = generate_set(cube, 5)
    assert tri.capacity == 10

    model = DualContextNet(
        num_classes=3,
        backbone=BackboneConfig(widths=(16, 32, 64, 64), convs_per_stage=(1, 1, 2, 2)),
        channels=32, num_areas=16, iterations=3, heads=2, seed=1)
    cfg = TrainConfig(epochs=100, batch=4, lr=0.001, momentum=0.95,
                      weight_decay=0.0001, head_lr_multiplier=10.0, seed=1,
                      val_fraction=0.0)
    result = train(tri, train_labels, model, cfg)
    assert len(result.train_rows) == 300

    probs = [predict_image(model, img) for img in tri.images]
    singles = [evaluate(classify(p), train_labels).oa for p in probs]
    voted = evaluate(soft_vote(probs), train_labels).oa
    elapsed = time.time() - start
    ok = voted >= 0.95 and voted >= max(singles) - 0.02 and elapsed < 600
    _report(8, ok,
            f"soft-voted OA {voted:.4f} (threshold 0.95), best single "
            f"{max(singles):.4f}, {elapsed:.0f}s")


def test_criterion_9_loss_sanity():
    """Uniform logits give (1 + 0.4) ln C exactly; unlabeled pixels receive
    exactly zero gradient."""
    model = DualContextNet(
        num_classes=4,
        backbone=BackboneConfig(widths=(4, 6, 8, 8), convs_per_stage=(1, 1, 1, 1)),
        channels=8, num_areas=4, iterations=1, heads=2, seed=0, dtype=np.float64)
    labels = np.zeros((8, 8), np.uint16)
    labels[2, 3] = 1
    labels[5, 6] = 4
    main = Tensor(np.zeros((1, 4, 8, 8)), requires_grad=True)
    aux = Tensor(np.zeros((1, 4, 8, 8)), requires_grad=True)
    loss = model.loss(main, aux, labels)
    value_ok = abs(loss.item() - 1.4 * math.log(4)) < 1e-6

    loss.backward()
    mask = labels > 0
    zero_ok = (np.all(main.grad[0][:, ~mask] == 0.0) and np.all(aux.grad[0][:, ~mask] == 0.0)
               and np.any(main.grad[0][:, mask] != 0.0))
    _report(9, value_ok and zero_ok,
            f"uniform-logit loss {loss.item():.8f} vs 1.4 ln 4 = {1.4 * math.log(4):.8f}; "
            f"unlabeled gradients exactly zero")


def test_criterion_10_train_determinism(tmp_path):
    """Two CLI training runs with the same seed produce byte-identical loss
    logs and checkpoints."""
    from hsiseg.cli import dispatch

    scene_dir = tmp_path / "scene"
    assert dispatch(["synth", "--seed", "5", "--height", "16", "--width", "16",
                     "--bands", "10", "--classes", "3", "--labels-per-class", "10",
                     "--out", str(scene_dir)]) == 0
    set_dir = scene_dir / "set"
    assert dispatch(["generate", "--cube", str(scene_dir / "scene.hsc"),
                     "--groups", "5", "--out", str(set_dir)]) == 0
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "backbone.widths = 4,6,8,8\nbackbone.convs = 1,1,1,1\n"
        "dcm.C = 8\ndcm.Z = 4\ndcm.T = 2\ndcm.heads = 2\n"
        "train.epochs = 2\ntrain.batch = 4\ntrain.val_fraction = 0\n")

    digests = []
    for run in ("a", "b"):
        out = tmp_path / run / "model.ckpt"
        out.parent.mkdir()
        assert dispatch(["train", "--set", str(set_dir),
                         "--labels", str(scene_dir / "train.lbl"),
                         "--config", str(cfg), "--out", str(out),
                         "--seed", "11"]) == 0
        digests.append((out.read_bytes(),
                        (out.parent / "train_log.csv").read_bytes()))
    same = digests[0] == digests[1]
    _report(10, same, "seeded reruns give byte-identical checkpoint and loss log")
