"""Network assembly: backbone strides, forward shapes, loss analytics."""

import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hsiseg.autodiff as ad
from hsiseg.autodiff import SGD, Tensor
from hsiseg.errors import ConfigError, ContractError, DataError
from hsiseg.dcm import DualContextModule
from hsiseg.model import STRIDE, Backbone, BackboneConfig, Conv3x3, DualContextNet
from hsiseg.nn import (
    Mlp,
    MultiHeadAttention,
    PositionalConv1d,
    PositionalConv2d,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    _Norm,
    uniform_init,
)

from helpers import assert_consumers_first, recorded_ops


def tiny_model(seed=0, classes=3, dtype=np.float64):
    return DualContextNet(
        num_classes=classes,
        backbone=BackboneConfig(widths=(4, 6, 8, 8), convs_per_stage=(1, 1, 1, 1)),
        channels=8, num_areas=4, iterations=2, heads=2, seed=seed, dtype=dtype)


class TestBackbone:
    def test_stride_four(self):
        rng = np.random.default_rng(0)
        bb = Backbone(BackboneConfig(), rng)
        stage3, stage4 = bb.forward(Tensor(rng.standard_normal((1, 3, 32, 32))))
        assert stage3.shape == (1, 64, 8, 8)
        assert stage4.shape == (1, 64, 8, 8)

    def test_constant_input_constant_interior(self):
        rng = np.random.default_rng(1)
        bb = Backbone(BackboneConfig(widths=(4, 4, 4, 4), convs_per_stage=(1, 1, 1, 1)), rng)
        conv = bb.stages[0][0]
        out = conv(Tensor(np.full((1, 3, 8, 8), 0.7))).data[0]
        interior = out[:, 1:-1, 1:-1]
        # zero padding only disturbs the one-pixel border
        np.testing.assert_allclose(
            interior, np.broadcast_to(interior[:, :1, :1], interior.shape), atol=1e-12)
        assert not np.allclose(out[:, 0, :], interior[:, 0, 0].reshape(-1, 1))

    def test_full_scale_checkpoint_import(self, tmp_path):
        donor = DualContextNet(num_classes=4,
                               backbone=BackboneConfig(widths=(64, 128, 256, 512)),
                               channels=16, num_areas=4, iterations=1, heads=2, seed=1)
        path = tmp_path / "full.ckpt"
        donor.save(path)
        target = DualContextNet(num_classes=4,
                                backbone=BackboneConfig(widths=(64, 128, 256, 512)),
                                channels=16, num_areas=4, iterations=1, heads=2, seed=2)
        target.load(path)
        for (_, a), (_, b) in zip(donor.named_parameters(), target.named_parameters()):
            np.testing.assert_array_equal(a.data.astype(np.float32), b.data)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BackboneConfig(widths=(8, 8, 8))


class TestForward:
    def test_output_matches_input_size(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (3, 16, 16)).astype(np.uint8)
        assert model.predict_probabilities(img).shape == (3, 16, 16)

    def test_non_multiple_of_four_padded_and_cropped(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (3, 10, 14)).astype(np.uint8)
        assert model.predict_probabilities(img).shape == (3, 10, 14)

    def test_too_small_rejected(self):
        model = tiny_model()
        with pytest.raises(ContractError):
            model.predict_probabilities(np.zeros((3, 4, 4), np.uint8))

    def test_probabilities_normalized(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, (3, 16, 16)).astype(np.uint8)
        probs = model.predict_probabilities(img)
        assert probs.shape == (3, 16, 16)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-5)
        assert probs.min() >= 0

    @pytest.mark.parametrize("h, w", [(16, 16), (10, 14)])
    def test_probabilities_match_upsampled_main_logits(self, h, w):
        """Softmax of the x4-upsampled main logits, cropped to the image."""
        model = tiny_model()
        img = np.random.default_rng(h * w).integers(0, 256, (3, h, w)).astype(np.uint8)
        x, _ = model.prepare_input(img)
        main = ad.bilinear_upsample(model.forward_from_tensor(x)[0], 4).data[0, :, :h, :w]
        e = np.exp(main - main.max(axis=0))
        expected = (e / e.sum(axis=0)).astype(np.float32)
        assert model.predict_probabilities(img).tobytes() == expected.tobytes()

    def test_features_record_no_tape(self):
        """The map ``hsiseg areas --checkpoint`` clusters is a leaf with the
        values of the recorded backbone-and-reduce forward."""
        model = tiny_model()
        img = np.random.default_rng(6).integers(0, 256, (3, 16, 16)).astype(np.uint8)
        features = model.features(img)
        assert features._parents == () and not features.requires_grad
        taped = model.reduce(model.backbone.forward(model.prepare_input(img)[0])[1])
        assert taped._parents
        assert features.data.tobytes() == taped.data.tobytes()

    def test_forward_deterministic(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (3, 16, 16)).astype(np.uint8)
        a = model.predict_probabilities(img)
        b = model.predict_probabilities(img)
        assert a.tobytes() == b.tobytes()


class TestLoss:
    def _logit_pair(self, classes, h, w, fill=0.0):
        shape = (1, classes, h, w)
        return Tensor(np.full(shape, fill)), Tensor(np.full(shape, fill))

    def test_uniform_logits_analytic_value(self):
        """Uniform logits with weight-0.4 auxiliary: loss = 1.4 ln C."""
        model = tiny_model(classes=5)
        main, aux = self._logit_pair(5, 4, 4)
        labels = np.zeros((4, 4), np.uint16)
        labels[1, 2] = 3
        labels[0, 0] = 1
        loss = model.loss(main, aux, labels)
        np.testing.assert_allclose(loss.item(), 1.4 * math.log(5), atol=1e-6)

    def test_perfect_prediction_zero_loss(self):
        model = tiny_model(classes=3)
        labels = np.zeros((4, 4), np.uint16)
        labels[2, 2] = 2
        logits = np.zeros((1, 3, 4, 4))
        logits[0, 1, 2, 2] = 60.0  # softmax saturates to one
        loss = model.loss(Tensor(logits), Tensor(logits), labels)
        assert 0 <= loss.item() < 1e-12

    def test_hand_evaluated_sparse_case(self):
        rng = np.random.default_rng(6)
        model = tiny_model(classes=3)
        main = rng.standard_normal((3, 2, 2))
        aux = rng.standard_normal((3, 2, 2))
        labels = np.array([[1, 0], [0, 3]], np.uint16)

        def ce(logits):
            total = 0.0
            entries = [((0, 0), 0), ((1, 1), 2)]
            for (y, x), cls in entries:
                col = logits[:, y, x]
                log_z = math.log(sum(math.exp(v) for v in col))
                total += -(col[cls] - log_z)
            return total / len(entries)

        expected = ce(main) + 0.4 * ce(aux)
        loss = model.loss(Tensor(main[None]), Tensor(aux[None]), labels)
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-12)

    def test_unlabeled_gradient_exactly_zero(self):
        model = tiny_model(classes=3)
        rng = np.random.default_rng(7)
        main = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
        aux = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
        labels = np.zeros((4, 4), np.uint16)
        labels[0, 1] = 2
        labels[3, 3] = 1
        model.loss(main, aux, labels).backward()
        mask = labels > 0
        for g in (main.grad[0], aux.grad[0]):
            assert np.all(g[:, ~mask] == 0.0)
            assert np.any(g[:, mask] != 0.0)

    def test_loss_nonnegative(self):
        model = tiny_model(classes=4)
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 5, (4, 4)).astype(np.uint16)
        labels[0, 0] = 1
        for _ in range(5):
            main = Tensor(rng.standard_normal((1, 4, 4, 4)) * 3)
            aux = Tensor(rng.standard_normal((1, 4, 4, 4)) * 3)
            assert model.loss(main, aux, labels).item() >= 0

    def test_no_labels_rejected(self):
        model = tiny_model()
        main, aux = self._logit_pair(3, 4, 4)
        with pytest.raises(ContractError):
            model.loss(main, aux, np.zeros((4, 4), np.uint16))

    def test_label_id_above_classes_rejected(self):
        model = tiny_model(classes=3)
        main, aux = self._logit_pair(3, 4, 4)
        labels = np.zeros((4, 4), np.uint16)
        labels[0, 0] = 2
        labels[2, 1] = 5
        with pytest.raises(ContractError) as exc:
            model.loss(main, aux, labels)
        assert "label id 5" in str(exc.value) and "3 classes" in str(exc.value)
        img = np.random.default_rng(10).integers(0, 256, (3, 16, 16)).astype(np.uint8)
        big = np.zeros((16, 16), np.uint16)
        big[7, 9] = 5
        with pytest.raises(ContractError):
            model.loss_on(img, big)

    def test_single_pixel_descent(self):
        """One SGD step on one labeled pixel strictly decreases its loss."""
        model = tiny_model(seed=9)
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, (3, 16, 16)).astype(np.uint8)
        labels = np.zeros((16, 16), np.uint16)
        labels[5, 5] = 2
        before = model.loss_on(img, labels)
        model.zero_grad()
        before.backward()
        SGD(model.parameters(), momentum=0.0, weight_decay=0.0,
            head_lr_multiplier=10.0).step(1e-4)
        after = model.loss_on(img, labels)
        assert after.item() < before.item()


def desk_model(dtype):
    """The criterion-8 net: widths 16..64, convs 1,1,2,2, C=32, Z=16, T=3, h=2."""
    return DualContextNet(
        num_classes=9, backbone=BackboneConfig(widths=(16, 32, 64, 64),
                                               convs_per_stage=(1, 1, 2, 2)),
        channels=32, num_areas=16, iterations=3, heads=2, seed=1, dtype=dtype)


def random_labels(rng, h, w, count, classes):
    labels = np.zeros(h * w, np.uint16)
    labels[rng.choice(h * w, count, replace=False)] = rng.integers(1, classes + 1, count)
    return labels.reshape(h, w)


class TestStrideFourLoss:
    """Training samples the stride-4 logits at labeled pixels; this must equal
    upsampling them x4 and taking cross entropy at those pixels."""

    @staticmethod
    def reference_loss(model, image, labels):
        x, _ = model.prepare_input(image)
        main, stage3, _ = model.forward_from_tensor(x)
        aux = model.aux_head(stage3)
        ys, xs = np.nonzero(labels)
        onehot = np.zeros((ys.size, model.num_classes))
        onehot[np.arange(ys.size), labels[ys, xs].astype(np.int64) - 1] = 1.0

        def ce(logits):
            full = ad.bilinear_upsample(logits, 4)  # padded size; labeled pixels lie inside
            tokens = ad.transpose(ad.reshape(full, (model.num_classes, -1)))
            picked = ad.gather_rows(tokens, ys * full.shape[3] + xs)
            return (ad.log_softmax(picked, axis=-1) * Tensor(onehot)).sum() * (-1.0 / ys.size)

        return ce(main) + 0.4 * ce(aux)

    @pytest.mark.parametrize("size", [32, 30])
    def test_matches_upsample_then_select(self, size):
        rng = np.random.default_rng(size)
        image = rng.integers(0, 256, (3, size, size)).astype(np.uint8)
        labels = random_labels(rng, size, size, 60, 9)
        model = desk_model(np.float64)
        params = model.parameters()

        loss = model.loss_on(image, labels)
        loss.backward()
        grads = [p.grad.copy() for p in params]
        model.zero_grad()
        expected = self.reference_loss(model, image, labels)
        expected.backward()

        np.testing.assert_allclose(loss.item(), expected.item(), rtol=1e-13)
        for p, g in zip(params, grads):
            np.testing.assert_allclose(g, p.grad, rtol=1e-9, atol=1e-13, err_msg=p.name)

    def test_logits_at_other_scales_rejected(self):
        model = tiny_model()
        labels = np.ones((30, 30), np.uint16)

        def logits(h, w):
            return Tensor(np.zeros((1, 3, h, w)))

        model.loss(logits(8, 8), logits(8, 8), labels)  # stride 4 of the 32x32 padding
        for h, w in ((7, 8), (15, 15), (16, 16)):
            with pytest.raises(ContractError):
                model.loss(logits(h, w), logits(h, w), labels)

    def test_float32_tape_has_no_other_dtype(self):
        rng = np.random.default_rng(31)
        image = rng.integers(0, 256, (3, 32, 32)).astype(np.uint8)
        labels = random_labels(rng, 32, 32, 60, 9)
        model = desk_model(np.float32)
        loss = model.loss_on(image, labels)
        nodes = ad.tape(loss)
        assert {id(p) for p in model.parameters()} <= {id(node) for node in nodes}
        assert [node._op for node in nodes if node._parents and node.dtype != model.dtype] == []

    def test_float32_net_is_the_float64_net_cast(self):
        """The blocks draw in float64 and the net casts each parameter once,
        so both nets hold the same draws, each in its own contiguous array."""
        wide, narrow = desk_model(np.float64), desk_model(np.float32)
        for (name, a), (_, b) in zip(wide.named_parameters(), narrow.named_parameters()):
            assert b.dtype == np.float32 and b.data.flags.c_contiguous, name
            np.testing.assert_array_equal(a.data.astype(np.float32), b.data, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, bool, np.float16])
    def test_unsupported_dtype_rejected(self, dtype):
        """Integers round every weight to 0, and float16 turns the finite
        masked logit into -inf."""
        with pytest.raises(ConfigError, match="float32 or float64"):
            tiny_model(dtype=dtype)

    def test_only_the_net_takes_a_dtype(self):
        blocks = [Conv3x3, Backbone, DualContextModule, MultiHeadAttention, Mlp, _Norm,
                  TransformerEncoderLayer, TransformerDecoderLayer, PositionalConv2d,
                  PositionalConv1d, uniform_init]
        assert [b.__name__ for b in blocks if "dtype" in inspect.signature(b).parameters] == []
        assert "dtype" in inspect.signature(DualContextNet).parameters

    def test_tape_lists_consumers_first(self):
        """The walk ``backward`` runs: the loss first, each node before its parents."""
        rng = np.random.default_rng(32)
        images = rng.integers(0, 256, (2, 3, 32, 32)).astype(np.uint8)
        labels = random_labels(rng, 32, 32, 60, 9)
        loss = desk_model(np.float32).loss_on(images, labels)
        nodes = ad.tape(loss)
        assert nodes[0] is loss
        assert_consumers_first(nodes)

    def test_engine_records_only_the_model_ops(self):
        """The op names the engine records are those of a desk training tape,
        plus the upsample that dense logits take on a recorded tape."""
        rng = np.random.default_rng(33)
        images = rng.integers(0, 256, (4, 3, 32, 32)).astype(np.uint8)
        model = desk_model(np.float32)
        loss = model.loss_on(images, random_labels(rng, 32, 32, 60, 9))
        x, _ = model.prepare_input(images)
        dense = ad.bilinear_upsample(model.forward_from_tensor(x)[0], STRIDE)
        used = {node._op for out in (loss, dense) for node in ad.tape(out) if node._parents}
        assert recorded_ops() == used


class TestTapeMemory:
    def test_desk_tape_holds_no_im2col(self):
        """The tape of a 64x64 desk-net image keeps each conv's input, not its
        im2col matrix (nine times the input), and no pre-activation of the
        backbone's ReLUs. Measured 8.9 MB after the forward and an 11.2 MB
        backward peak when the convs held their im2col, 3.4 and 5.7 MB since."""
        rng = np.random.default_rng(41)
        image = rng.integers(0, 256, (3, 64, 64)).astype(np.uint8)
        labels = random_labels(rng, 64, 64, 200, 9)
        model = desk_model(np.float32)
        model.loss_on(image, labels).backward()  # first-call allocations
        model.zero_grad()
        tracemalloc.start()
        try:
            loss = model.loss_on(image, labels)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 6e6, f"tape holds {held / 1e6:.2f} MB after the forward"
        assert peak < 8.5e6, f"backward peaks at {peak / 1e6:.2f} MB"


def four_images():
    """Four 32x32 images whose desk-net forward passes have 14, 16, 16 and 15
    live areas at float64; the first has two empty areas, and the third is
    constant, so its clustering ties."""
    rng = np.random.default_rng(50)
    images = rng.integers(0, 256, (4, 3, 32, 32)).astype(np.uint8)
    yy, xx = np.mgrid[0:32, 0:32]
    images[1] = np.stack([(yy * 8) % 256, (xx * 8) % 256, ((yy + xx) * 4) % 256])
    images[2] = 128
    labels = np.zeros(32 * 32, np.uint16)
    labels[rng.choice(32 * 32, 60, replace=False)] = rng.integers(1, 10, 60)
    return images, labels.reshape(32, 32)


class TestBatchedTraining:
    """Float64: one tape over a (B, 3, H, W) batch equals the mean of B
    per-image tapes, on the loss and on every parameter gradient."""

    def test_images_differ_in_live_areas(self):
        images, _ = four_images()
        model = desk_model(np.float64)
        with ad.no_grad():
            _, _, areas = model.forward_from_tensor(model.prepare_input(images)[0])
        assert areas.counts.shape == (4, 16)
        assert list(np.count_nonzero(areas.counts, axis=1)) == [14, 16, 16, 15]

    @pytest.mark.parametrize("batch", [1, 2, 4])
    def test_matches_per_image_tapes(self, batch):
        images, labels = four_images()
        model = desk_model(np.float64)
        params = model.parameters()

        loss = model.loss_on(images[:batch], labels)
        loss.backward()
        grads = [p.grad.copy() for p in params]
        model.zero_grad()
        per_image = [model.loss_on(images[i], labels) for i in range(batch)]
        total = per_image[0]
        for term in per_image[1:]:
            total = total + term
        total = total * (1.0 / batch)
        total.backward()

        np.testing.assert_allclose(loss.item(), total.item(), rtol=1e-12)
        # relative to the largest gradient entry: the attention key biases have
        # an exactly zero true gradient, so theirs is rounding noise on both sides
        scale = max(np.abs(p.grad).max() for p in params)
        for p, g in zip(params, grads):
            np.testing.assert_allclose(g, p.grad, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=p.name)

    def test_predictions_match_per_image_network(self):
        """Float64 desk net with 3 classes: ``predict_probabilities`` equals
        the output the network gave before it had a batch axis (commit
        856b011), stored in tests/data/desk_predict_per_image.npz."""
        model = DualContextNet(
            num_classes=3, backbone=BackboneConfig(widths=(16, 32, 64, 64),
                                                   convs_per_stage=(1, 1, 2, 2)),
            channels=32, num_areas=16, iterations=3, heads=2, seed=1, dtype=np.float64)
        rng = np.random.default_rng(2026)
        stored = np.load(Path(__file__).parent / "data" / "desk_predict_per_image.npz")
        for key, (h, w) in (("probs_32x32", (32, 32)), ("probs_30x34", (30, 34))):
            probs = model.predict_probabilities(rng.integers(0, 256, (3, h, w)).astype(np.uint8))
            np.testing.assert_allclose(probs, stored[key], rtol=1e-12, atol=1e-12, err_msg=key)

    def test_batch_prediction_matches_per_image(self):
        """Float64: one (B, 3, H, W) forward gives (B, K, H, W) probabilities
        equal to the B single-image predictions; the third image is constant,
        so its clustering ties."""
        images, _ = four_images()
        model = desk_model(np.float64)
        probs = model.predict_probabilities(images)
        assert probs.shape == (4, 9, 32, 32) and probs.dtype == np.float32
        assert probs.flags.c_contiguous
        for i, image in enumerate(images):
            np.testing.assert_allclose(probs[i], model.predict_probabilities(image),
                                       rtol=1e-12, atol=1e-12, err_msg=f"image {i}")

    def test_prediction_rejects_other_ranks(self):
        images, _ = four_images()
        for bad in (images[0, 0], images[None]):
            with pytest.raises(ContractError):
                tiny_model().predict_probabilities(bad)


class TestFullScale:
    def test_full_width_forward(self):
        """Full-scale preset (widths 64..512, C=256, Z=128, h=4, 9 classes)
        runs one forward pass; Z=128 needs a 16x16 feature map or larger."""
        model = DualContextNet(num_classes=9,
                               backbone=BackboneConfig(widths=(64, 128, 256, 512)),
                               channels=256, num_areas=128, iterations=5, heads=4, seed=0)
        rng = np.random.default_rng(20)
        img = rng.integers(0, 256, (3, 64, 64)).astype(np.uint8)
        probs = model.predict_probabilities(img)
        assert probs.shape == (9, 64, 64)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-5)

    def test_area_count_must_fit_feature_grid(self):
        model = DualContextNet(num_classes=9,
                               backbone=BackboneConfig(widths=(64, 128, 256, 512)),
                               channels=256, num_areas=128, iterations=5, heads=4, seed=0)
        img = np.zeros((3, 48, 48), np.uint8)  # 12x12 features, no 128-cell grid
        with pytest.raises(ConfigError):
            model.predict_probabilities(img)


def _desk_parameter_layout():
    """(name, shape) of every desk-net parameter, in checkpoint order."""
    def conv(name, *shape):
        return [(f"{name}.weight", shape), (f"{name}.bias", shape[:1])]

    def layer(prefix):
        attn = [(f"{prefix}.attn.{n}", (32, 32)) for n in ("wq", "wk", "wv")] \
            + [(f"{prefix}.attn.{n}", (32,)) for n in ("bq", "bk", "bv")] \
            + [(f"{prefix}.attn.wo", (32, 32)), (f"{prefix}.attn.bo", (32,))]
        mlp = [(f"{prefix}.mlp.w1", (32, 64)), (f"{prefix}.mlp.b1", (64,)),
               (f"{prefix}.mlp.w2", (64, 32)), (f"{prefix}.mlp.b2", (32,))]
        norms = [(f"{prefix}.norm{i}.{n}", (32,)) for i in (1, 2) for n in ("gamma", "beta")]
        return attn + mlp + norms

    rows = conv("backbone.stage1.conv0", 16, 3, 3, 3) + conv("backbone.stage2.conv0", 32, 16, 3, 3) \
        + conv("backbone.stage3.conv0", 64, 32, 3, 3) + conv("backbone.stage3.conv1", 64, 64, 3, 3) \
        + conv("backbone.stage4.conv0", 64, 64, 3, 3) + conv("backbone.stage4.conv1", 64, 64, 3, 3) \
        + conv("reduce", 32, 64, 3, 3)
    rows += conv("context.pos_map", 32, 3, 3) + layer("context.region")
    rows += conv("context.pos_seq", 32, 3) + layer("context.summary") + layer("context.decode")
    return rows + conv("head", 9, 64, 3, 3) + conv("aux_head", 9, 64, 3, 3)


class TestPersistence:
    def test_desk_parameter_names_and_shapes(self):
        """Checkpoint layout of the criterion-8 net; the positional convs keep
        their (C, 3, 3) and (C, 3) weights."""
        got = [(name, p.shape) for name, p in desk_model(np.float32).named_parameters()]
        assert got == _desk_parameter_layout()

    def test_save_load_round_trip(self, tmp_path):
        model = tiny_model(seed=10, dtype=np.float32)
        rng = np.random.default_rng(10)
        img = rng.integers(0, 256, (3, 16, 16)).astype(np.uint8)
        path = tmp_path / "m.ckpt"
        model.save(path)
        clone = tiny_model(seed=99, dtype=np.float32)
        clone.load(path)
        np.testing.assert_array_equal(model.predict_probabilities(img),
                                      clone.predict_probabilities(img))

    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_parameter_rejected_by_name(self, tmp_path, index, bad):
        """The error names the parameter, and no parameter is replaced."""
        from hsiseg.formats import save_checkpoint

        rows = [(name, p.data.copy())
                for name, p in tiny_model(seed=11, dtype=np.float32).named_parameters()]
        name, arr = rows[index]
        arr.flat[-1] = bad
        save_checkpoint(rows, tmp_path / "bad.ckpt")
        target = tiny_model(seed=12, dtype=np.float32)
        before = [p.data.copy() for p in target.parameters()]
        with pytest.raises(DataError, match=f"parameter {name} holds non-finite"):
            target.load(tmp_path / "bad.ckpt")
        for p, data in zip(target.parameters(), before):
            np.testing.assert_array_equal(p.data, data)

    def test_partial_backbone_import(self, tmp_path):
        """A checkpoint holding only backbone weights loads with strict=False,
        leaving the heads at their own initialization."""
        from hsiseg.formats import save_checkpoint

        donor = tiny_model(seed=21, dtype=np.float32)
        path = tmp_path / "backbone_only.ckpt"
        save_checkpoint([(p.name, p.data) for p in donor.backbone.parameters()], path)

        target = tiny_model(seed=22, dtype=np.float32)
        head_before = target.head.weight.data.copy()
        missing = target.load(path, strict=False)
        assert missing and all(not n.startswith("backbone.") for n in missing)
        for a, b in zip(donor.backbone.parameters(), target.backbone.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(target.head.weight.data, head_before)
        with pytest.raises(ContractError):
            target.load(path)  # strict load still demands every parameter

