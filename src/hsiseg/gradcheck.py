"""Finite-difference verification programs for every differentiable block.

Shared by the ``gradcheck`` CLI subcommand and the acceptance suite. Each
program pairs a scalar-valued tensor function with float64 inputs sampled
away from relu/maxpool kinks.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .dcm import DualContextModule
from .model import BackboneConfig, DualContextNet
from .nn import AttentionConfig, TransformerDecoderLayer, TransformerEncoderLayer


def _coeff(rng, shape):
    return Tensor(rng.standard_normal(shape))


def _kink_free(rng, shape, low=0.2, high=1.5):
    """Values bounded away from zero so relu/maxpool stay locally linear."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def primitive_programs(rng):
    """Yield (name, f, inputs) for every autodiff primitive."""
    x34 = rng.standard_normal((3, 4))
    c34 = Tensor(rng.standard_normal((3, 4)))
    w34 = _coeff(rng, (3, 4))

    yield "add", (lambda x: ((x + c34) * w34).sum()), Tensor(x34.copy())
    yield "sub", (lambda x: ((x - c34) * w34).sum()), Tensor(x34.copy())
    yield "mul", (lambda x: ((x * c34) * w34).sum()), Tensor(x34.copy())
    den = Tensor(rng.uniform(0.5, 2.0, (3, 4)))
    yield "div", (lambda x: ((x / den) * w34).sum()), Tensor(x34.copy())
    yield "div_denominator", (lambda x: ((c34 / x) * w34).sum()), Tensor(rng.uniform(0.5, 2.0, (3, 4)))

    m = Tensor(rng.standard_normal((4, 5)))
    wm = _coeff(rng, (3, 5))
    yield "matmul", (lambda x: (ad.matmul(x, m) * wm).sum()), Tensor(x34.copy())
    # own generator, so the draws of every other program stay as they were
    bat = np.random.default_rng(20231105)
    m45 = Tensor(bat.standard_normal((4, 5)), requires_grad=True)
    m245 = Tensor(bat.standard_normal((2, 4, 5)), requires_grad=True)
    wb1, wb2 = _coeff(bat, (2, 3, 5)), _coeff(bat, (2, 3, 5))
    yield "matmul_batched", \
        (lambda x, b, bb: (ad.matmul(x, b) * wb1).sum() + (ad.matmul(x, bb) * wb2).sum()), \
        [Tensor(bat.standard_normal((2, 3, 4))), m45, m245]
    wt = _coeff(rng, (4, 3))
    yield "transpose", (lambda x: (ad.transpose(x) * wt).sum()), Tensor(x34.copy())
    wr = _coeff(rng, (2, 6))
    yield "reshape", (lambda x: (ad.reshape(x, (2, 6)) * wr).sum()), Tensor(x34.copy())
    wcat = _coeff(rng, (6, 4))
    yield "concat", (lambda x: (ad.concat([x, c34], axis=0) * wcat).sum()), Tensor(x34.copy())

    yield "relu", (lambda x: (ad.relu(x) * w34).sum()), Tensor(_kink_free(rng, (3, 4)))

    yield "softmax", (lambda x: (ad.softmax(x, axis=-1) * w34).sum()), Tensor(x34.copy())
    mask4 = np.array([True, False, True, True])
    yield "softmax_masked", (lambda x: (ad.softmax(x, axis=-1, mask=mask4) * w34).sum()), \
        Tensor(x34.copy())
    yield "log_softmax", (lambda x: (ad.log_softmax(x, axis=-1) * w34).sum()), Tensor(x34.copy())

    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = Tensor(rng.standard_normal(4), requires_grad=True)
    yield "layernorm", (lambda x, g, b: (ad.layernorm(x, g, b) * w34).sum()), \
        [Tensor(x34.copy()), gamma, beta]

    img = rng.standard_normal((1, 2, 5, 6))
    kern = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    bias = Tensor(rng.standard_normal(3), requires_grad=True)
    wconv = _coeff(rng, (1, 3, 5, 6))
    yield "conv2d", (lambda x, w, b: (ad.conv2d(x, w, b) * wconv).sum()), \
        [Tensor(img.copy()), kern, bias]

    dk = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    db = Tensor(rng.standard_normal(2), requires_grad=True)
    wdw = _coeff(rng, (1, 2, 5, 6))
    yield "depthwise_conv2d", (lambda x, w, b: (ad.depthwise_conv2d(x, w, b) * wdw).sum()), \
        [Tensor(img.copy()), dk, db]

    wpool = _coeff(rng, (1, 2, 2, 3))
    yield "maxpool2d", (lambda x: (ad.maxpool2d(x, 2) * wpool).sum()), \
        Tensor(_kink_free(rng, (1, 2, 4, 6)))

    wup = _coeff(rng, (1, 2, 8, 6))
    yield "bilinear_upsample", (lambda x: (ad.bilinear_upsample(x, 2) * wup).sum()), \
        Tensor(rng.standard_normal((1, 2, 4, 3)))

    # own generator, so the draws of every other program stay as they were
    own = np.random.default_rng(20230419)
    ys = np.concatenate([[0, 7, 7], own.integers(0, 8, 6)])
    xs = np.concatenate([[0, 5, 0], own.integers(0, 6, 6)])
    wsb = Tensor(own.standard_normal((1, 9, 2)))
    yield "sample_bilinear", (lambda x: (ad.sample_bilinear(x, ys, xs, 2) * wsb).sum()), \
        Tensor(own.standard_normal((1, 2, 4, 3)))

    idx = np.array([0, 2, 2, 4, 1])
    wg = _coeff(rng, (5, 3))
    yield "gather_rows", (lambda x: (ad.gather_rows(x, idx) * wg).sum()), \
        Tensor(rng.standard_normal((5, 3)))

    # own generator, so the draws of every other program stay as they were
    grid = np.random.default_rng(20261018)
    idx_grid = grid.integers(0, 4, (2, 3))
    wgg = Tensor(grid.standard_normal((2, 3, 2, 3)))
    yield "gather_rows_grid", (lambda x: (ad.gather_rows(x, idx_grid) * wgg).sum()), \
        Tensor(grid.standard_normal((4, 2, 3)))

    groups = np.array([0, 1, 0, 2, 1, 0])
    ws = _coeff(rng, (4, 3))
    yield "scatter_mean", (lambda x: (ad.scatter_mean(x, groups, 4) * ws).sum()), \
        Tensor(rng.standard_normal((6, 3)))

    wsum = _coeff(rng, (4,))
    yield "sum_axis", (lambda x: (x.sum(axis=0) * wsum).sum()), Tensor(x34.copy())

    yield from batched_image_programs()


def batched_image_programs():
    """The image primitives on a batch of B = 2 images, each program on its own
    generator, so that the draws of every other program stay as they were."""
    rng = np.random.default_rng(20261101)
    kern = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    bias = Tensor(rng.standard_normal(3), requires_grad=True)
    wconv = _coeff(rng, (2, 3, 4, 5))
    yield "conv2d_batched", (lambda x, w, b: (ad.conv2d(x, w, b) * wconv).sum()), \
        [Tensor(rng.standard_normal((2, 2, 4, 5))), kern, bias]

    rng = np.random.default_rng(20261102)
    dk = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    db = Tensor(rng.standard_normal(2), requires_grad=True)
    wdw = _coeff(rng, (2, 2, 4, 5))
    yield "depthwise_conv2d_batched", \
        (lambda x, w, b: (ad.depthwise_conv2d(x, w, b) * wdw).sum()), \
        [Tensor(rng.standard_normal((2, 2, 4, 5))), dk, db]

    rng = np.random.default_rng(20261103)
    wpool = _coeff(rng, (2, 2, 2, 3))
    yield "maxpool2d_batched", (lambda x: (ad.maxpool2d(x, 2) * wpool).sum()), \
        Tensor(_kink_free(rng, (2, 2, 4, 6)))

    rng = np.random.default_rng(20261104)
    wup = _coeff(rng, (2, 2, 6, 8))
    yield "bilinear_upsample_batched", \
        (lambda x: (ad.bilinear_upsample(x, 2) * wup).sum()), \
        Tensor(rng.standard_normal((2, 2, 3, 4)))

    rng = np.random.default_rng(20261105)
    ys = np.concatenate([[0, 5, 5], rng.integers(0, 6, 5)])
    xs = np.concatenate([[0, 7, 0], rng.integers(0, 8, 5)])
    wsb = _coeff(rng, (2, 8, 2))
    yield "sample_bilinear_batched", \
        (lambda x: (ad.sample_bilinear(x, ys, xs, 2) * wsb).sum()), \
        Tensor(rng.standard_normal((2, 2, 3, 4)))

    # every pre-activation of the fused ReLU stays 0.07 or more from its kink:
    # the centre tap of input channel 0 (|w| >= 0.5, |x| >= 0.5) outweighs the
    # other 17 taps (|w| <= 0.005, |x| <= 1.5) and the bias (|b| <= 0.05)
    rng = np.random.default_rng(20261106)
    kern = rng.uniform(-0.005, 0.005, (3, 2, 3, 3))
    kern[:, 0, 1, 1] = _kink_free(rng, 3, 0.5)
    bias = Tensor(rng.uniform(-0.05, 0.05, 3), requires_grad=True)
    wconv = _coeff(rng, (2, 3, 4, 5))
    yield "conv2d_relu_batched", \
        (lambda x, w, b: (ad.conv2d(x, w, b, relu=True) * wconv).sum()), \
        [Tensor(_kink_free(rng, (2, 2, 4, 5), 0.5)), Tensor(kern, requires_grad=True), bias]


def encoder_program(rng):
    cfg = AttentionConfig(channels=8, heads=2)
    layer = TransformerEncoderLayer(cfg, rng, dtype=np.float64)
    pos = Tensor(rng.standard_normal((1, 5, 8)))
    w = _coeff(rng, (1, 5, 8))

    def f(x, *params):
        return (layer(x, pos=pos) * w).sum()

    return f, [Tensor(rng.standard_normal((1, 5, 8)))] + layer.parameters()


def decoder_program(rng):
    cfg = AttentionConfig(channels=8, heads=2)
    layer = TransformerDecoderLayer(cfg, rng, dtype=np.float64)
    memory = Tensor(rng.standard_normal((1, 4, 8)))
    w = _coeff(rng, (1, 7, 8))

    def f(x, *params):
        return (layer(x, memory) * w).sum()

    return f, [Tensor(rng.standard_normal((1, 7, 8)))] + layer.parameters()


def dcm_program(rng):
    block = DualContextModule(channels=8, num_areas=4, iterations=2, heads=2,
                              rng=rng, dtype=np.float64)
    w = _coeff(rng, (1, 16, 6, 6))

    def f(x):
        out, _ = block(x)
        return (out * w).sum()

    return f, [Tensor(rng.standard_normal((1, 8, 6, 6)))]


def model_program(rng):
    model = DualContextNet(
        num_classes=3,
        backbone=BackboneConfig(widths=(4, 6, 8, 8), convs_per_stage=(1, 1, 1, 1)),
        channels=8, num_areas=4, iterations=2, heads=2,
        seed=int(rng.integers(1 << 31)), dtype=np.float64)
    labels = np.zeros((16, 16), dtype=np.uint16)
    flat = labels.reshape(-1)
    flat[rng.choice(256, size=20, replace=False)] = rng.integers(1, 4, size=20)

    def f(x):
        main, stage3, _ = model.forward_from_tensor(x)
        return model.loss(main, model.aux_head(stage3), labels)

    return f, [Tensor(0.5 * rng.standard_normal((1, 3, 16, 16)))]


def full_report(seed=0, eps=1e-5):
    """Run every verification program; returns [(name, max relative error)]."""
    rng = np.random.default_rng(seed)
    rows = []
    for name, f, xs in primitive_programs(rng):
        rows.append((f"primitive.{name}", grad_check(f, xs, eps)))
    for name, maker in (("encoder_layer", encoder_program),
                        ("decoder_layer", decoder_program),
                        ("dcm_block", dcm_program),
                        ("model_loss", model_program)):
        f, xs = maker(rng)
        rows.append((name, grad_check(f, xs, eps)))
    return rows
