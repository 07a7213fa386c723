"""Finite-difference verification of every differentiable op and block.

Shared by the ``gradcheck`` CLI subcommand and the acceptance suite. ``ROWS``
holds one program per op the engine records, plus the fused-ReLU ``conv2d``
and the masked ``softmax``, and four block programs. Image ops run on a batch
of B = 2. Each row draws its constants and float64 inputs from its own
generator, seeded by the report's seed and the CRC-32 of the row's name, so
adding or deleting a row changes no other row's draws. A row is drawn again
(constants, parameters and inputs) while its tape holds a kink within
``KINK_MARGIN``, where a central difference would straddle it.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import FD_STEP, Tensor, grad_check
from .dcm import DualContextModule
from .errors import GradCheckError
from .model import BackboneConfig, DualContextNet
from .nn import AttentionConfig, TransformerDecoderLayer, TransformerEncoderLayer

KINK_MARGIN = 10 * FD_STEP
_REDRAWS = 20


def _op(fn, *shapes):
    """A row of ``fn`` on standard-normal inputs of the given shapes."""
    return lambda rng: (fn, shapes, [])


def _sample_bilinear(rng):
    ys = np.concatenate([[0, 5, 5], rng.integers(0, 6, 5)])  # corners hit the clipped taps
    xs = np.concatenate([[0, 7, 0], rng.integers(0, 8, 5)])
    return (lambda x: ad.sample_bilinear(x, ys, xs, 2)), [(2, 2, 3, 4)], []


def _encoder_layer(rng):
    layer = TransformerEncoderLayer(AttentionConfig(channels=8, heads=2), rng, dtype=np.float64)
    pos = Tensor(rng.standard_normal((1, 5, 8)))
    return (lambda x, *params: layer(x, pos=pos)), [(1, 5, 8)], layer.parameters()


def _decoder_layer(rng):
    layer = TransformerDecoderLayer(AttentionConfig(channels=8, heads=2), rng, dtype=np.float64)
    memory = Tensor(rng.standard_normal((1, 4, 8)))
    return (lambda x, *params: layer(x, memory)), [(1, 7, 8)], layer.parameters()


def _dcm_block(rng):
    block = DualContextModule(channels=8, num_areas=4, iterations=2, heads=2,
                              rng=rng, dtype=np.float64)
    return (lambda x: block(x)[0]), [(1, 8, 6, 6)], []


def _model_loss(rng):
    model = DualContextNet(
        num_classes=3,
        backbone=BackboneConfig(widths=(4, 6, 8, 8), convs_per_stage=(1, 1, 1, 1)),
        channels=8, num_areas=4, iterations=2, heads=2,
        seed=int(rng.integers(1 << 31)), dtype=np.float64)
    labels = np.zeros((16, 16), dtype=np.uint16)
    labels.reshape(-1)[rng.choice(256, size=20, replace=False)] = rng.integers(1, 4, size=20)

    def loss(x):
        main, stage3, _ = model.forward_from_tensor(x)
        return model.loss(main, model.aux_head(stage3), labels)

    return loss, [(1, 3, 16, 16)], []


# (name, build): build(rng) draws the row's constants and returns (f, input
# shapes, parameters); f maps the standard-normal inputs and then the
# parameters to the tensor whose gradient is checked
ROWS = [
    ("primitive.add", _op(ad.add, (3, 4), (4,))),
    ("primitive.mul", _op(ad.mul, (3, 4), (1, 4))),
    ("primitive.relu", _op(ad.relu, (3, 4))),
    ("primitive.transpose", _op(lambda x: ad.transpose(x, (2, 0, 1)), (2, 3, 4))),
    ("primitive.reshape", _op(lambda x: ad.reshape(x, (2, 6)), (3, 4))),
    ("primitive.concat", _op(lambda a, b: ad.concat([a, b], axis=1), (3, 4), (3, 2))),
    ("primitive.sum", _op(lambda x: x.sum(axis=0), (3, 4))),
    ("primitive.matmul", _op(ad.matmul, (2, 1, 3, 4), (3, 4, 5))),  # batch broadcasts both ways
    ("primitive.softmax", _op(ad.softmax, (3, 4))),
    ("primitive.softmax_masked",
     _op(lambda x: ad.softmax(x, mask=[True, False, True, True]), (3, 4))),
    ("primitive.log_softmax", _op(ad.log_softmax, (3, 4))),
    ("primitive.layernorm", _op(ad.layernorm, (3, 4), (4,), (4,))),
    ("primitive.conv2d", _op(ad.conv2d, (2, 2, 4, 5), (3, 2, 3, 3), (3,))),
    ("primitive.conv2d_relu", _op(lambda x, w, b: ad.conv2d(x, w, b, relu=True),
                                  (2, 2, 4, 5), (3, 2, 3, 3), (3,))),
    ("primitive.depthwise_conv2d", _op(ad.depthwise_conv2d, (2, 2, 4, 5), (2, 3, 3), (2,))),
    ("primitive.maxpool2d", _op(lambda x: ad.maxpool2d(x, 2), (2, 2, 4, 6))),
    ("primitive.bilinear_upsample", _op(lambda x: ad.bilinear_upsample(x, 2), (2, 2, 3, 4))),
    ("primitive.sample_bilinear", _sample_bilinear),
    # six picks of four rows repeat some; group 3 of the four stays empty
    ("primitive.gather_rows", lambda rng: (
        partial(ad.gather_rows, idx=rng.integers(0, 4, (2, 3))), [(4, 2, 3)], [])),
    ("primitive.scatter_mean", lambda rng: (
        partial(ad.scatter_mean, index=rng.integers(0, 3, 6), num_groups=4), [(6, 3)], [])),
    ("encoder_layer", _encoder_layer),
    ("decoder_layer", _decoder_layer),
    ("dcm_block", _dcm_block),
    ("model_loss", _model_loss),
]


def kink_distance(out):
    """The smallest distance to a kink on the tape below ``out``: the magnitude
    of every ReLU input, the fused ReLUs of ``conv2d`` included, and the gap
    between the two largest entries of every max-pool window."""
    dist = np.inf
    for node in ad.tape(out):
        if node._op == "relu":
            gaps = np.abs(node._parents[0].data)
        elif node._op == "conv2d" and node.data.min() >= 0:
            # a fused ReLU keeps no pre-activation, so rebuild it; an unfused
            # conv with no negative output is checked too, at worst a redraw
            with ad.no_grad():
                gaps = np.abs(ad.conv2d(*node._parents).data)
        elif node._op == "maxpool2d":
            nb, c, oh, ow = node.shape
            size = node._parents[0].shape[2] // oh
            win = node._parents[0].data.reshape(nb, c, oh, size, ow, size).swapaxes(3, 4)
            top = np.sort(win.reshape(nb, c, oh, ow, -1))[..., -2:]
            # a window whose maximum is exactly 0 holds ReLU-clamped entries,
            # which stay tied under any probe
            gaps = (top[..., 1] - top[..., 0])[top[..., 1] != 0]
        else:
            continue
        dist = min(dist, gaps.min(initial=np.inf))
    return dist


def programs(seed=0):
    """Yield (name, f, inputs) per row: ``f`` reduces the row's output to a
    scalar with standard-normal weights of the output's shape."""
    for name, build in ROWS:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        for _ in range(_REDRAWS):
            fn, shapes, params = build(rng)
            xs = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes] + params
            out = fn(*xs)
            if kink_distance(out) >= KINK_MARGIN:
                break
        else:
            raise GradCheckError(f"{name}: {_REDRAWS} draws all lie within {KINK_MARGIN} of a kink")
        w = Tensor(rng.standard_normal(out.shape))
        yield name, (lambda *a, fn=fn, w=w: (fn(*a) * w).sum()), xs


def full_report(seed=0):
    """Run every row's program; returns [(name, max relative error)]."""
    return [(name, grad_check(f, xs)) for name, f, xs in programs(seed)]
