"""Voting fusion, metrics, and the training loop's bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiseg import autodiff as ad
from hsiseg import pipeline
from hsiseg.errors import ConfigError, ContractError, DataError
from hsiseg.formats import ClassMap, LabelMap, ProbMap
from hsiseg.model import BackboneConfig, DualContextNet
from hsiseg.pipeline import (
    TrainConfig,
    classify,
    evaluate,
    hard_vote,
    iteration_count,
    predict_image,
    run_inference_set,
    soft_vote,
    train,
)
from hsiseg.trispec import BandTriplet, TriSpectralSet


def metrics_oracle(pred, truth):
    """Loop-based confusion matrix, recall, OA, AA, kappa."""
    t = truth.labels
    p = pred.labels
    pairs = [(int(tv), int(pv)) for tv, pv in zip(t.ravel(), p.ravel()) if tv > 0]
    n = len(pairs)
    k = max(max(a, b) for a, b in pairs)
    conf = [[0] * k for _ in range(k)]
    for tv, pv in pairs:
        conf[tv - 1][pv - 1] += 1
    correct = sum(conf[i][i] for i in range(k))
    po = correct / n
    pe = sum(sum(conf[i]) * sum(row[i] for row in conf) for i in range(k)) / (n * n)
    kappa = float("nan") if pe == 1 else (po - pe) / (1 - pe)
    recalls = {}
    for i in range(k):
        row_total = sum(conf[i])
        if row_total:
            recalls[i] = conf[i][i] / row_total
    aa = sum(recalls.values()) / len(recalls)
    return po, aa, kappa, recalls


def _tiny_model(seed=0, cls=DualContextNet):
    return cls(
        num_classes=3,
        backbone=BackboneConfig(widths=(4, 6, 8, 8), convs_per_stage=(1, 1, 1, 1)),
        channels=8, num_areas=4, iterations=2, heads=2, seed=seed)


def _desk_model():
    """The float64 criterion-8 net with 3 classes."""
    return DualContextNet(
        num_classes=3, backbone=BackboneConfig(widths=(16, 32, 64, 64),
                                               convs_per_stage=(1, 1, 2, 2)),
        channels=32, num_areas=16, iterations=3, heads=2, seed=1, dtype=np.float64)


def _tiny_set(n_images=4, size=16, seed=0, degenerate=None):
    rng = np.random.default_rng(seed)
    images = [rng.integers(0, 256, (3, size, size)).astype(np.uint8)
              for _ in range(n_images)]
    manifest = [BandTriplet(3 + i, 2, 1) for i in range(n_images)]
    return TriSpectralSet(images, manifest, degenerate or [False] * n_images)


def _sparse_labels(size=16, classes=3, per_class=6, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.zeros(size * size, np.uint16)
    chosen = rng.choice(size * size, classes * per_class, replace=False)
    for i, pix in enumerate(chosen):
        labels[pix] = i % classes + 1
    return LabelMap(labels.reshape(size, size))


class TestHardVote:
    def test_single_map_identity(self):
        cm = ClassMap(np.array([[1, 2], [3, 1]]))
        np.testing.assert_array_equal(hard_vote([cm]).labels, cm.labels)

    def test_plurality(self):
        maps = [ClassMap(np.array([[v]])) for v in (1, 1, 2)]
        assert hard_vote(maps).labels[0, 0] == 1

    def test_tie_goes_to_smallest_class(self):
        maps = [ClassMap(np.array([[1]])), ClassMap(np.array([[2]]))]
        assert hard_vote(maps).labels[0, 0] == 1
        maps = [ClassMap(np.array([[3]])), ClassMap(np.array([[2]]))]
        assert hard_vote(maps).labels[0, 0] == 2

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        maps = [ClassMap(rng.integers(1, 5, (4, 4))) for _ in range(7)]
        a = hard_vote(maps).labels
        b = hard_vote(maps[::-1]).labels
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            hard_vote([ClassMap(np.ones((2, 2), int)), ClassMap(np.ones((3, 2), int))])


class TestSoftVote:
    def test_single_map_argmax(self):
        p = ProbMap(np.array([[[0.2]], [[0.8]]], np.float32))
        assert soft_vote([p]).labels[0, 0] == 2

    def test_summed_probabilities(self):
        a = ProbMap(np.array([[[0.6]], [[0.4]]], np.float32))
        b = ProbMap(np.array([[[0.1]], [[0.9]]], np.float32))
        assert soft_vote([a, b]).labels[0, 0] == 2

    def test_tie_goes_to_smallest(self):
        a = ProbMap(np.array([[[0.5]], [[0.5]]], np.float32))
        assert soft_vote([a]).labels[0, 0] == 1

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_one_hot_equivalence_with_hard_vote(self, seed, m, classes):
        """Soft voting over one-hot maps is exactly hard voting over argmaxes."""
        rng = np.random.default_rng(seed)
        probs = []
        for _ in range(m):
            winners = rng.integers(0, classes, (3, 3))
            onehot = np.eye(classes, dtype=np.float32)[winners]  # (3, 3, C)
            probs.append(ProbMap(np.moveaxis(onehot, -1, 0)))
        soft = soft_vote(probs).labels
        hard = hard_vote([classify(p) for p in probs]).labels
        np.testing.assert_array_equal(soft, hard)


class TestEvaluate:
    def test_perfect_prediction(self):
        truth = LabelMap(np.array([[1, 2], [0, 3]], np.uint16))
        pred = ClassMap(np.array([[1, 2], [2, 3]]))
        m = evaluate(pred, truth)
        assert m.oa == 1.0 and m.aa == 1.0 and m.kappa == 1.0
        assert m.n_labeled == 3

    def test_balanced_confusion_gives_zero_kappa(self):
        """Confusion [[1,1],[1,1]]: OA 0.5, chance agreement 0.5, kappa 0."""
        truth = LabelMap(np.array([[1, 1], [2, 2]], np.uint16))
        pred = ClassMap(np.array([[1, 2], [1, 2]]))
        m = evaluate(pred, truth)
        assert m.oa == 0.5
        assert m.kappa == 0.0

    def test_single_class_truth_undefined_kappa(self):
        truth = LabelMap(np.full((2, 2), 1, np.uint16))
        pred = ClassMap(np.full((2, 2), 1))
        m = evaluate(pred, truth)
        assert math.isnan(m.kappa)
        assert m.to_dict()["kappa"] is None
        assert m.oa == 1.0

    def test_unlabeled_pixels_excluded(self):
        truth = LabelMap(np.array([[1, 0], [0, 2]], np.uint16))
        pred = ClassMap(np.array([[1, 9], [9, 1]]))
        m = evaluate(pred, truth)
        assert m.n_labeled == 2
        assert m.oa == 0.5

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            truth = LabelMap(rng.integers(0, 4, (6, 6)).astype(np.uint16))
            if truth.labeled_count == 0:
                continue
            pred = ClassMap(rng.integers(1, 5, (6, 6)))
            m = evaluate(pred, truth)
            po, aa, kappa, recalls = metrics_oracle(pred, truth)
            assert abs(m.oa - po) < 1e-12
            assert abs(m.aa - aa) < 1e-12
            if math.isnan(kappa):
                assert math.isnan(m.kappa)
            else:
                assert abs(m.kappa - kappa) < 1e-12

    def test_report_schema(self):
        truth = LabelMap(np.array([[1, 2], [0, 2]], np.uint16))
        pred = ClassMap(np.array([[1, 2], [1, 1]]))
        d = evaluate(pred, truth).to_dict()
        assert set(d) == {"oa", "aa", "kappa", "per_class", "n_labeled"}


class TestTrain:
    def test_iteration_formula(self):
        assert iteration_count(455, 30, 4) == 3420
        assert iteration_count(10, 100, 4) == 300

    def test_logs_and_rates(self):
        model = _tiny_model()
        cfg = TrainConfig(epochs=2, batch=2, lr=0.001, seed=0, val_fraction=0.0)
        result = train(_tiny_set(), _sparse_labels(), model, cfg)
        assert len(result.train_rows) == 4
        first_iter, first_lr, first_loss = result.train_rows[0]
        assert first_iter == 0
        assert first_lr == 0.001  # backbone rate; the head group runs 10x inside SGD
        assert np.isfinite(first_loss)
        lrs = [row[1] for row in result.train_rows]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_validation_split_logged(self):
        model = _tiny_model()
        cfg = TrainConfig(epochs=2, batch=2, seed=0, val_fraction=0.25)
        result = train(_tiny_set(), _sparse_labels(), model, cfg)
        assert len(result.holdout) == 1
        assert len(result.val_rows) == 2
        for _, oa_hard, oa_soft in result.val_rows:
            assert 0 <= oa_hard <= 1 and 0 <= oa_soft <= 1

    def test_validation_rows_are_run_inference_set_votes(self):
        tri, labels = _tiny_set(), _sparse_labels()
        model = _tiny_model()
        cfg = TrainConfig(epochs=2, batch=2, seed=0, val_fraction=0.5)
        result = train(tri, labels, model, cfg)
        held_out = TriSpectralSet([tri.images[i] for i in result.holdout],
                                  [tri.manifest[i] for i in result.holdout],
                                  [tri.degenerate[i] for i in result.holdout])
        report = run_inference_set(model, held_out, truth=labels)[3]
        assert result.val_rows[-1] == (1, report["hard"]["oa"], report["soft"]["oa"])

    def test_holdout_keeps_degenerate_flags(self, monkeypatch):
        tri = _tiny_set(degenerate=[True, False, True, False])
        seen = []
        real = pipeline.run_inference_set

        def spy(model, held_out, **kwargs):
            seen.append(held_out.degenerate)
            return real(model, held_out, **kwargs)

        monkeypatch.setattr(pipeline, "run_inference_set", spy)
        cfg = TrainConfig(epochs=1, batch=2, seed=0, val_fraction=0.5)
        result = train(tri, _sparse_labels(), _tiny_model(), cfg)
        assert seen == [[tri.degenerate[i] for i in result.holdout]]

    def test_seeded_determinism(self):
        cfg = TrainConfig(epochs=2, batch=2, seed=7, val_fraction=0.0)
        r1 = train(_tiny_set(), _sparse_labels(), _tiny_model(seed=7), cfg)
        r2 = train(_tiny_set(), _sparse_labels(), _tiny_model(seed=7), cfg)
        assert r1.train_rows == r2.train_rows

    def test_empty_inputs_rejected(self):
        with pytest.raises(ContractError):
            train(TriSpectralSet([], [], []), _sparse_labels(), _tiny_model(),
                  TrainConfig())
        with pytest.raises(ContractError):
            train(_tiny_set(), LabelMap(np.zeros((16, 16), np.uint16)),
                  _tiny_model(), TrainConfig())

    def test_non_finite_loss_stops_before_any_step(self):
        model = _tiny_model()
        model.head.weight.data[0, 0, 1, 1] = np.inf
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(epochs=1, batch=2, seed=0, val_fraction=0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(DataError) as exc:
                train(_tiny_set(), _sparse_labels(), model, cfg)
        message = str(exc.value)
        assert "iteration 0" in message
        assert "head.weight" in message
        rng = np.random.default_rng(cfg.seed)  # train's draws: the split, then the epoch order
        rng.permutation(4)
        first_batch = [int(i) for i in rng.permutation(np.arange(4))[:2]]
        assert f"images {first_batch}" in message
        for p, old in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, old, err_msg=p.name)
            assert p.grad is None

    def test_non_finite_gradient_stops_before_any_step(self):
        """A finite loss whose gradient is not finite raises, naming the
        parameter and the iteration, and no parameter moves."""

        class InfGradientNet(DualContextNet):
            """Adds a zero to the loss whose backward sends inf to head.bias."""

            def loss_on(self, image, labels):
                bias = self.head.bias

                def bw(g):
                    bias.grad = np.full(bias.shape, np.inf, bias.dtype)

                poison = ad.Tensor._from_op(np.zeros((), bias.dtype), (bias,), "poison", bw)
                return super().loss_on(image, labels) + poison

        model = _tiny_model(cls=InfGradientNet)
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(epochs=1, batch=2, seed=0, val_fraction=0.0)
        with pytest.raises(DataError) as exc:
            train(_tiny_set(), _sparse_labels(), model, cfg)
        message = str(exc.value)
        assert "gradient of parameter head.bias at iteration 0" in message
        for p, old in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, old, err_msg=p.name)

    def test_log_files_written(self, tmp_path):
        model = _tiny_model()
        cfg = TrainConfig(epochs=1, batch=4, seed=0, val_fraction=0.25)
        train(_tiny_set(), _sparse_labels(), model, cfg, out_dir=tmp_path)
        train_log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert train_log[0] == "iter,lr,loss"
        assert len(train_log) == 2
        val_log = (tmp_path / "val_log.csv").read_text().splitlines()
        assert val_log[0] == "epoch,oa_hard,oa_soft"


    def test_logs_written_atomically(self, tmp_path, monkeypatch):
        """The logs hold exactly the returned rows and no temp file is left;
        a write that fails before its rename keeps the previous file whole."""
        cfg = TrainConfig(epochs=2, batch=2, seed=0, val_fraction=0.25)
        result = train(_tiny_set(), _sparse_labels(), _tiny_model(), cfg, out_dir=tmp_path)
        assert (tmp_path / "train_log.csv").read_text() == "iter,lr,loss\n" + "".join(
            f"{it},{lr!r},{loss!r}\n" for it, lr, loss in result.train_rows)
        assert (tmp_path / "val_log.csv").read_text() == "epoch,oa_hard,oa_soft\n" + "".join(
            f"{e},{h!r},{s!r}\n" for e, h, s in result.val_rows)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train_log.csv", "val_log.csv"]

        before = (tmp_path / "train_log.csv").read_text()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("hsiseg.pipeline.os.replace", failing_replace)
        with pytest.raises(OSError):
            train(_tiny_set(), _sparse_labels(), _tiny_model(), cfg, out_dir=tmp_path)
        assert (tmp_path / "train_log.csv").read_text() == before
        assert not list(tmp_path.glob("*.tmp"))


def _chunk_sizes(count, size):
    """Images per forward when ``run_inference_set`` predicts ``count`` size x size images."""
    per = max(1, pipeline.PIXELS_PER_CHUNK // (size * size))
    return [min(per, count - i) for i in range(0, count, per)]


class TestInference:
    def test_probabilities_and_argmax_agree(self):
        model = _tiny_model()
        img = _tiny_set(1).images[0]
        prob = predict_image(model, img)
        np.testing.assert_allclose(prob.values.sum(axis=0), 1.0, atol=1e-5)
        np.testing.assert_array_equal(classify(prob).labels,
                                      prob.values.argmax(axis=0) + 1)

    def test_unanimous_vote_is_identity(self):
        rng = np.random.default_rng(2)
        cm = ClassMap(rng.integers(1, 4, (5, 5)))
        np.testing.assert_array_equal(hard_vote([cm] * 5).labels, cm.labels)

    def test_run_inference_set_outputs(self, tmp_path):
        model = _tiny_model()
        tri = _tiny_set(3)
        truth = _sparse_labels()
        probs, hard, soft, report = run_inference_set(
            model, tri, out_dir=tmp_path, truth=truth)
        assert len(probs) == 3
        assert (tmp_path / "prob_0.prb").exists()
        assert (tmp_path / "cls_2.lbl").exists()
        assert (tmp_path / "vote_hard.lbl").exists()
        assert (tmp_path / "vote_soft.ppm").exists()
        assert (tmp_path / "report.json").exists()
        assert "hard" in report and "soft" in report and len(report["single"]) == 3

    def test_image_order_does_not_change_votes(self):
        model = _tiny_model()
        tri = _tiny_set(4)
        probs = [predict_image(model, img) for img in tri.images]
        soft_a = soft_vote(probs).labels
        soft_b = soft_vote(probs[::-1]).labels
        np.testing.assert_array_equal(soft_a, soft_b)

    def test_parallel_jobs_match_sequential(self):
        model = _tiny_model()
        tri = _tiny_set(4)
        seq = run_inference_set(model, tri)[0]
        par = run_inference_set(model, tri, jobs=3)[0]
        for a, b in zip(seq, par):
            np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_any_work(self, tmp_path, monkeypatch, jobs):
        def refuse(net, batch):
            raise AssertionError("predicted with an invalid job count")

        monkeypatch.setattr(pipeline, "predict_image", refuse)
        out = tmp_path / "pred"
        with pytest.raises(ConfigError, match=f"jobs must be at least 1, got {jobs}"):
            run_inference_set(_tiny_model(), _tiny_set(2), out_dir=out, jobs=jobs)
        assert not out.exists()

    @pytest.mark.parametrize("size, chunks", [(32, _chunk_sizes(10, 32)),
                                              (128, _chunk_sizes(2, 128))])
    def test_chunks_match_per_image_predictions(self, monkeypatch, size, chunks):
        """Float64: 32x32 images run several to a forward and agree with
        single-image prediction to 1e-12; 128x128 images run alone and are
        bit-identical. Two threads give the same maps, and both votes are the
        votes over the returned maps."""
        model = _desk_model()
        tri = _tiny_set(sum(chunks), size, seed=size)
        seen = []

        def counting(net, batch):
            seen.append(len(batch))
            return predict_image(net, batch)

        monkeypatch.setattr(pipeline, "predict_image", counting)
        probs, hard, soft, _ = run_inference_set(model, tri)
        assert seen == chunks
        for p, q in zip(probs, run_inference_set(model, tri, jobs=2)[0]):
            np.testing.assert_array_equal(p.values, q.values)
        for i, (p, img) in enumerate(zip(probs, tri.images)):
            expected = model.predict_probabilities(img)
            if size == 128:
                np.testing.assert_array_equal(p.values, expected, err_msg=f"image {i}")
            else:
                np.testing.assert_allclose(p.values, expected, rtol=1e-12, atol=1e-12,
                                           err_msg=f"image {i}")
        np.testing.assert_array_equal(hard.labels, hard_vote([classify(p) for p in probs]).labels)
        np.testing.assert_array_equal(soft.labels, soft_vote(probs).labels)

    def test_mixed_image_sizes_rejected(self):
        images = [*_tiny_set(1, 16).images, *_tiny_set(1, 32).images]
        with pytest.raises(ContractError, match="images disagree on shape"):
            TriSpectralSet(images, [BandTriplet(3, 2, 1), BandTriplet(4, 2, 1)], [False] * 2)

    def test_prediction_chunks_are_views_of_the_set(self, monkeypatch):
        tri = _tiny_set(10, 32)
        seen = []
        real = pipeline.predict_image

        def spy(model, chunk):
            seen.append(chunk)
            return real(model, chunk)

        monkeypatch.setattr(pipeline, "predict_image", spy)
        run_inference_set(_tiny_model(), tri)
        assert [len(chunk) for chunk in seen] == _chunk_sizes(10, 32)
        assert all(np.shares_memory(chunk, tri.images) for chunk in seen)
        np.testing.assert_array_equal(np.concatenate(seen), tri.images)

    def test_report_names_degenerate_images(self):
        tri = _tiny_set(3, degenerate=[False, True, False])
        assert run_inference_set(_tiny_model(), tri)[3]["degenerate"] == [1]
        assert run_inference_set(_tiny_model(), _tiny_set(3))[3]["degenerate"] == []
