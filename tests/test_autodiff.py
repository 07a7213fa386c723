"""Engine-level tests: forward examples, backward rules, optimizer."""

import numpy as np
import pytest

import hsiseg.autodiff as ad
from hsiseg.autodiff import (
    SGD,
    Parameter,
    Tensor,
    grad_check,
    poly_lr,
)
from hsiseg.errors import ConfigError, ContractError

from helpers import assert_consumers_first, recorded_ops


class TestForwardExamples:
    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor(np.array([0.0, 0.0])), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5))
        out = ad.matmul(Tensor(np.eye(2)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_conv_1x1_doubling(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 4, 4))
        w = np.full((1, 1, 1, 1), 2.0)
        out = ad.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, 2.0 * x)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ContractError) as exc:
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_matmul_batches_leading_axes(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        bb = rng.standard_normal((2, 4, 5))
        np.testing.assert_array_equal(ad.matmul(Tensor(a), Tensor(b)).data, a @ b)
        np.testing.assert_array_equal(ad.matmul(Tensor(a), Tensor(bb)).data, a @ bb)

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (2, 5, 6)), ((2, 3, 4), (3, 4, 5)),
                                        ((4,), (4, 5)), ((3, 4), (4,))])
    def test_matmul_bad_shapes_rejected(self, shapes):
        a, b = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ContractError) as exc:
            ad.matmul(a, b)
        assert str(shapes[0]) in str(exc.value) and str(shapes[1]) in str(exc.value)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_accumulation_across_tapes(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * x).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 4 * np.ones(3))

    def test_repeated_backward_adds_one_gradient_per_call(self):
        """Interior nodes pass their gradient on once: a second backward on
        the same tape doubles the leaf gradient, no more."""
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = ((x * 2) * 1).sum()
        loss.backward()
        single = x.grad.copy()
        np.testing.assert_array_equal(single, [2.0, 2.0, 2.0])
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * single)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_composite_graph_matches_fd(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((2, 1, 3, 3)))
        target = Tensor(np.eye(2)[rng.integers(0, 2, 9)].reshape(-1))

        def f(x):
            h = ad.relu(ad.conv2d(x, w))
            tokens = ad.transpose(ad.reshape(h, (2, 9)))
            lp = ad.log_softmax(tokens, axis=-1)
            return (ad.reshape(lp, (-1,)) * target).sum() * (-1 / 9)

        err = grad_check(f, Tensor(rng.standard_normal((1, 1, 3, 3))))
        assert err < 1e-6

    def test_diamond_graph_visits_nodes_once(self):
        """Shared subexpressions contribute once per use: z = y + y with
        y = x*x gives dz/dx = 4x, not 8x."""
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        y = x * x
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, 4 * x.data)

    def test_tape_lists_each_node_before_its_parents(self):
        """A diamond whose shared leaf feeds two consumers: the leaf comes
        after both, and every node is listed once."""
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        a, b = x * 2.0, x * 3.0
        out = (a + b).sum()
        nodes = ad.tape(out)
        assert_consumers_first(nodes)
        assert nodes[0] is out
        assert len(nodes) == 7  # out, a + b, a, b, x and the two constants

    def test_maxpool_tie_routes_to_first(self):
        x = Tensor(np.array([[[[1.0, 1.0], [0.0, 0.0]]]]), requires_grad=True)
        ad.maxpool2d(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


class TestInvariants:
    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(2)
        out = ad.softmax(Tensor(rng.standard_normal((7, 9)) * 5), axis=-1)
        assert out.data.min() > 0
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_layernorm_statistics(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((6, 16)) * 3 + 1)
        gamma = Tensor(np.ones(16))
        beta = Tensor(np.zeros(16))
        out = ad.layernorm(x, gamma, beta).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1).max() < 1e-5

    def test_bilinear_preserves_constants_exactly(self):
        x = Tensor(np.full((1, 2, 5, 7), 3.1415926))
        out = ad.bilinear_upsample(x, 4)
        assert out.shape == (1, 2, 20, 28)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 20, 28), 3.1415926))

    def test_scatter_then_gather_reproduces_group_means(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((10, 3)))
        index = rng.integers(0, 4, 10)
        means = ad.scatter_mean(x, index, 4)
        back = ad.gather_rows(means, index)
        for i in range(10):
            np.testing.assert_allclose(back.data[i], x.data[index == index[i]].mean(axis=0))

    def test_forward_determinism(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))

        def run():
            return ad.conv2d(Tensor(x), Tensor(w)).data.tobytes()

        assert run() == run()


def _direct_same_correlation(x, w, b, g, depthwise=False):
    """Direct-sum stride-1 "same" correlation with zero padding k // 2.

    Returns the output and, for the cotangent ``g``, the x, w and b gradients."""
    cin, h, width = x.shape
    kh, kw = w.shape[-2:]
    cout = w.shape[0]
    out = np.zeros((cout, h, width))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for y in range(h):
        for xo in range(width):
            for i in range(kh):
                for j in range(kw):
                    ys, xs = y + i - kh // 2, xo + j - kw // 2
                    if not (0 <= ys < h and 0 <= xs < width):
                        continue
                    if depthwise:
                        out[:, y, xo] += w[:, i, j] * x[:, ys, xs]
                        dx[:, ys, xs] += w[:, i, j] * g[:, y, xo]
                        dw[:, i, j] += g[:, y, xo] * x[:, ys, xs]
                    else:
                        out[:, y, xo] += w[:, :, i, j] @ x[:, ys, xs]
                        dx[:, ys, xs] += w[:, :, i, j].T @ g[:, y, xo]
                        dw[:, :, i, j] += np.outer(g[:, y, xo], x[:, ys, xs])
    return out + b[:, None, None], dx, dw, g.sum(axis=(1, 2))


def _check_against_direct_sum(op, x_shape, w_shape, depthwise, seed, batch=1):
    """``op`` on a batch of ``batch`` (C, H, W) images against the per-image
    direct sums; the w and b gradients sum over the images."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((batch, *x_shape)), requires_grad=True)
    w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)
    out = op(x, w, b)
    g = rng.standard_normal(out.shape)
    (out * Tensor(g)).sum().backward()
    refs = [_direct_same_correlation(x.data[i], w.data, b.data, g[i], depthwise)
            for i in range(batch)]
    want = (np.stack([r[0] for r in refs]), np.stack([r[1] for r in refs]),
            sum(r[2] for r in refs), sum(r[3] for r in refs))
    for got, ref in zip((out.data, x.grad, w.grad, b.grad), want):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


class TestSameConvolutions:
    """Stride-1 "same" convolutions against direct sums, in float64."""

    @pytest.mark.parametrize("cin,cout,k,h,w", [
        (3, 5, 3, 4, 6),   # Cout > Cin
        (5, 2, 3, 5, 4),   # Cout < Cin
        (2, 4, 1, 3, 5),   # 1x1, Cout > Cin
        (4, 3, 1, 5, 2),   # 1x1, Cout < Cin
        (3, 2, 3, 6, 1),   # 1-pixel-wide map
        (2, 3, 3, 1, 5),   # 1-pixel-tall map
        (2, 2, 3, 1, 1),   # single pixel
    ])
    def test_conv2d(self, cin, cout, k, h, w):
        _check_against_direct_sum(ad.conv2d, (cin, h, w), (cout, cin, k, k), False, 40 + cin)

    @pytest.mark.parametrize("x_shape,w_shape", [
        ((3, 5, 6), (3, 3, 3)),
        ((2, 1, 4), (2, 3, 3)),
        ((4, 1, 7), (4, 1, 3)),   # a (C, 1, N) token sequence, kernel 1x3
        ((4, 1, 1), (4, 1, 3)),   # the same with N = 1
    ])
    def test_depthwise_conv2d(self, x_shape, w_shape):
        _check_against_direct_sum(ad.depthwise_conv2d, x_shape, w_shape, True, 50 + x_shape[2])

    @pytest.mark.parametrize("op,w_shape,depthwise", [
        (ad.conv2d, (4, 3, 3, 3), False),
        (ad.conv2d, (2, 3, 1, 1), False),
        (ad.depthwise_conv2d, (3, 3, 3), True),
        (ad.depthwise_conv2d, (3, 1, 3), True),
    ])
    def test_batch_of_three_images(self, op, w_shape, depthwise):
        _check_against_direct_sum(op, (3, 4, 5), w_shape, depthwise, 60, batch=3)

    @pytest.mark.parametrize("op,x_shape,w_shape", [
        (ad.conv2d, (1, 2, 4, 4), (3, 2, 2, 2)),
        (ad.conv2d, (1, 2, 4, 4), (3, 2, 3, 2)),
        (ad.depthwise_conv2d, (1, 2, 4, 4), (2, 2, 2)),
        (ad.depthwise_conv2d, (1, 2, 1, 4), (2, 1, 4)),
    ])
    def test_even_kernel_rejected(self, op, x_shape, w_shape):
        with pytest.raises(ContractError, match="odd"):
            op(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)))


class TestSampleBilinear:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("factor", [1, 4])
    def test_rows_equal_upsampled_pixels(self, dtype, factor):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((1, 3, 5, 7)).astype(dtype))
        ys = np.array([0, 19, 19, 3, 10, 10]) % (5 * factor)
        xs = np.array([0, 27, 0, 14, 5, 5]) % (7 * factor)
        rows = ad.sample_bilinear(x, ys, xs, factor)
        full = ad.bilinear_upsample(x, factor)
        assert rows.dtype == full.dtype == dtype
        np.testing.assert_array_equal(rows.data[0], full.data[0][:, ys, xs].T)

    def test_gradient_equals_upsample_then_select(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((1, 2, 4, 3)), requires_grad=True)
        ys = rng.integers(0, 16, 20)
        xs = rng.integers(0, 12, 20)
        w = rng.standard_normal((1, 20, 2))
        (ad.sample_bilinear(x, ys, xs, 4) * Tensor(w)).sum().backward()
        sampled = x.grad
        x.grad = None
        cot = np.zeros((1, 2, 16, 12))
        np.add.at(cot[0], (slice(None), ys, xs), w[0].T)
        (ad.bilinear_upsample(x, 4) * Tensor(cot)).sum().backward()
        np.testing.assert_allclose(sampled, x.grad, rtol=1e-13, atol=1e-14)

    def test_batch_equals_per_image(self):
        """sample_bilinear, bilinear_upsample and maxpool2d on a batch of three
        images give each image's own result, values and gradients alike."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 2, 4, 6))
        ys, xs = rng.integers(0, 8, 7), rng.integers(0, 12, 7)
        ops = [lambda t: ad.sample_bilinear(t, ys, xs, 2),
               lambda t: ad.bilinear_upsample(t, 2), lambda t: ad.maxpool2d(t, 2)]
        for op in ops:
            batch = Tensor(x.copy(), requires_grad=True)
            out = op(batch)
            g = rng.standard_normal(out.shape)
            (out * Tensor(g)).sum().backward()
            for i in range(3):
                one = Tensor(x[i:i + 1].copy(), requires_grad=True)
                ref = op(one)
                (ref * Tensor(g[i:i + 1])).sum().backward()
                np.testing.assert_array_equal(out.data[i:i + 1], ref.data)
                np.testing.assert_allclose(batch.grad[i:i + 1], one.grad, rtol=1e-14, atol=1e-15)

    def test_points_outside_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ContractError):
            ad.sample_bilinear(x, [8], [0], 4)
        with pytest.raises(ContractError):
            ad.sample_bilinear(x, [0, 1], [0], 4)


# The kernels that maxpool2d and bilinear_upsample replaced, kept verbatim as
# references: an argmax over transposed windows, and four full-resolution
# gathers with an np.add.at adjoint.


def _argmax_maxpool2d(x, size=2):
    ad._check_images("maxpool2d", x)
    nb, c, h, w = x.shape
    if h % size or w % size:
        raise ContractError(f"maxpool2d: {x.shape} not divisible by {size}")
    oh, ow = h // size, w // size
    win = x.data.reshape(nb, c, oh, size, ow, size).transpose(0, 1, 2, 4, 3, 5) \
        .reshape(nb, c, oh, ow, size * size)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], -1)[..., 0]

    def bw(g):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, arg[..., None], g[..., None], -1)
        dx = dwin.reshape(nb, c, oh, ow, size, size).transpose(0, 1, 2, 4, 3, 5) \
            .reshape(nb, c, h, w)
        ad._accumulate(x, dx)

    return Tensor._from_op(out, (x,), "maxpool2d", bw)


def _gather_bilinear_upsample(x, factor):
    factor = ad._check_factor("bilinear_upsample", factor)
    ad._check_images("bilinear_upsample", x)
    h, w = x.shape[2:]
    y0, y1, wy0, wy1 = ad._bilinear_taps(np.arange(h * factor), h, factor, x.dtype)
    x0, x1, wx0, wx1 = ad._bilinear_taps(np.arange(w * factor), w, factor, x.dtype)
    wy0, wy1 = wy0[:, None], wy1[:, None]
    wx0, wx1 = wx0[None, :], wx1[None, :]
    d = x.data
    out = wy0 * (wx0 * d[:, :, y0[:, None], x0] + wx1 * d[:, :, y0[:, None], x1]) \
        + wy1 * (wx0 * d[:, :, y1[:, None], x0] + wx1 * d[:, :, y1[:, None], x1])

    def bw(g):
        dx = np.zeros_like(d)
        for yi, wy in ((y0, wy0), (y1, wy1)):
            for xi, wx in ((x0, wx0), (x1, wx1)):
                np.add.at(dx, (slice(None), slice(None), yi[:, None], xi), wy * wx * g)
        ad._accumulate(x, dx)

    return Tensor._from_op(out, (x,), "bilinear_upsample", bw)


# conv2d before its backward rebuilt the im2col matrix: the node held ``col``
# from the forward until backward ran.


def _col_correlate(x, w):
    """Stride-1 "same" correlation of (B, Cin, H, W) with (Cout, Cin, kh, kw) as one GEMM.

    Returns the (B, Cout, H, W) output and the (Cin*kh*kw, B*H*W) im2col matrix."""
    cout, cin, kh, kw = w.shape
    nb, _, h, width = x.shape
    col = ad._im2col(ad._pad_same("conv2d", x, w.shape), kh, kw).reshape(cin * kh * kw, -1)
    out = (w.reshape(cout, -1) @ col).reshape(cout, nb, h, width)
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3)), col


def _col_conv2d(x, w, b=None):
    """Stride-1 "same" convolution: x (B, Cin, H, W), w (Cout, Cin, kh, kw), odd kh, kw."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ContractError(f"conv2d: input {x.shape} does not match weight {w.shape}")
    out, col = _col_correlate(x.data, w.data)
    if b is not None:
        out = out + b.data[:, None, None]

    def bw(g):
        ad._accumulate(w, (ad._channels_first(g) @ col.T).reshape(w.shape))
        if b is not None:
            ad._accumulate(b, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            # at stride 1, dx correlates g with the flipped, in/out-transposed kernel
            ad._accumulate(x, _col_correlate(g, w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))[0])

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._from_op(out, parents, "conv2d", bw)


def _conv_value_and_grads(op, x, w, b, x_grad, cotangent_seed):
    """Output and the x, w, b gradients (None where not asked) of ``op``."""
    leaves = [Tensor(x.copy(), requires_grad=x_grad), Tensor(w.copy(), requires_grad=True),
              None if b is None else Tensor(b.copy(), requires_grad=True)]
    out = op(*leaves)
    g = np.random.default_rng(cotangent_seed).standard_normal(out.shape).astype(x.dtype)
    (out * Tensor(g)).sum().backward()
    return [out.data] + [None if t is None else t.grad for t in leaves]


def _value_and_grad(op, x, cotangent_seed):
    leaf = Tensor(x.copy(), requires_grad=True)
    out = op(leaf)
    g = np.random.default_rng(cotangent_seed).standard_normal(out.shape).astype(x.dtype)
    (out * Tensor(g)).sum().backward()
    return out.data, leaf.grad


def _assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()  # signed zeros included


class TestReplacedKernels:
    """maxpool2d, bilinear_upsample and conv2d against the kernels they replaced."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape,size", [((1, 2, 4, 6), 2), ((3, 3, 8, 10), 2),
                                            ((1, 2, 6, 9), 3), ((3, 2, 9, 6), 3)])
    def test_maxpool_matches_argmax_kernel(self, shape, size, dtype):
        """Quantized values after a ReLU give ties, positive ones and all-zero
        windows among them; values and gradients are bit-identical."""
        rng = np.random.default_rng(21)
        x = np.maximum(rng.integers(-3, 3, shape) * 0.5, 0).astype(dtype)
        x[0, 0, :size, :size] = 0.0  # an all-zero window
        x[-1, -1, -size:, -size:] = 1.5  # a window that is one positive tie
        new = _value_and_grad(lambda t: ad.maxpool2d(t, size), x, 5)
        ref = _value_and_grad(lambda t: _argmax_maxpool2d(t, size), x, 5)
        for actual, expected in zip(new, ref):
            _assert_same_bits(actual, expected)

    def test_maxpool_propagates_nan(self):
        x = np.arange(32.0).reshape(1, 2, 4, 4)
        x[0, 1, 2, 3] = np.nan
        out = ad.maxpool2d(Tensor(x), 2).data
        assert np.isnan(out[0, 1, 1, 1])
        assert np.isfinite(np.delete(out.ravel(), 7)).all()

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize("shape", [(1, 2, 5, 7), (3, 3, 4, 6), (3, 2, 7, 5)])
    def test_upsample_matches_gather_kernel(self, shape, factor, dtype, atol):
        """Values are bit-identical; the matrix adjoint sums in another order."""
        x = np.random.default_rng(22).standard_normal(shape).astype(dtype)
        new_out, new_grad = _value_and_grad(lambda t: ad.bilinear_upsample(t, factor), x, 6)
        ref_out, ref_grad = _value_and_grad(lambda t: _gather_bilinear_upsample(t, factor), x, 6)
        _assert_same_bits(new_out, ref_out)
        assert new_grad.dtype == dtype
        np.testing.assert_allclose(new_grad, ref_grad, rtol=0, atol=atol)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("relu", [False, True])
    def test_conv2d_matches_col_holding_kernel(self, dtype, batch, bias, x_grad, relu):
        """Outputs and gradients are bit-identical to the kernel that held its
        im2col matrix; ``relu=True`` matches it followed by ``ad.relu``. An
        input without ``requires_grad`` is the network's first layer."""
        rng = np.random.default_rng(23)
        x = rng.standard_normal((batch, 3, 6, 7)).astype(dtype)
        w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype) if bias else None

        def ref(x, w, b):
            out = _col_conv2d(x, w, b)
            return ad.relu(out) if relu else out

        new = _conv_value_and_grads(lambda x, w, b: ad.conv2d(x, w, b, relu=relu),
                                    x, w, b, x_grad, 7)
        old = _conv_value_and_grads(ref, x, w, b, x_grad, 7)
        if relu:
            assert 0 < (new[0] > 0).mean() < 1
        for actual, expected in zip(new, old):
            if expected is None:
                assert actual is None
            else:
                _assert_same_bits(actual, expected)

    def test_upsample_writes_class_planes(self):
        out = ad.bilinear_upsample(Tensor(np.zeros((2, 3, 5, 7))), 4).data
        assert out.flags["C_CONTIGUOUS"]


class TestMaskedSoftmax:
    def test_equals_softmax_over_live_entries(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 5)) * 4
        mask = np.array([[True, False, True, True, False], [False] * 4 + [True]])[:, None, :]
        out = ad.softmax(Tensor(x), axis=-1, mask=mask).data
        assert np.all(out[~np.broadcast_to(mask, out.shape)] == 0.0)
        for b in range(2):
            live = mask[b, 0]
            e = np.exp(x[b][:, live] - x[b][:, live].max(axis=-1, keepdims=True))
            np.testing.assert_allclose(out[b][:, live], e / e.sum(axis=-1, keepdims=True),
                                       rtol=1e-14)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_bias_add_formulation(self, dtype):
        """Same values and gradient as adding a -1e30 bias to the masked logits."""
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((4, 6)).astype(dtype), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 6)).astype(dtype))
        mask = np.array([True, True, False, True, False, True])
        masked = ad.softmax(x, axis=-1, mask=mask)
        (masked * w).sum().backward()
        grad, x.grad = x.grad, None
        biased = ad.softmax(x + Tensor(np.where(mask, 0.0, -1e30).astype(dtype)), axis=-1)
        (biased * w).sum().backward()
        assert masked.dtype == grad.dtype == dtype
        np.testing.assert_array_equal(masked.data, biased.data)
        np.testing.assert_array_equal(grad, x.grad)


class TestGatherScatter:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gather_with_index_grid(self, dtype):
        """A (2, 3, 4) index over (5, 2, 3) rows gives (2, 3, 4, 2, 3); the
        gradient sums duplicates as np.add.at does."""
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((5, 2, 3)).astype(dtype), requires_grad=True)
        idx = rng.integers(0, 5, (2, 3, 4))
        g = rng.standard_normal((2, 3, 4, 2, 3)).astype(dtype)
        out = ad.gather_rows(x, idx)
        np.testing.assert_array_equal(out.data, x.data[idx])
        (out * Tensor(g)).sum().backward()
        ref = np.zeros((5, 2, 3))
        np.add.at(ref, idx, g.astype(np.float64))
        assert x.grad.dtype == dtype
        np.testing.assert_allclose(x.grad, ref, rtol=1e-6 if dtype == np.float32 else 1e-13)

    def test_scatter_mean_against_add_at(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((40, 3))
        index = rng.integers(0, 7, 40)
        index[index == 5] = 6  # group 5 empty
        sums = np.zeros((7, 3))
        np.add.at(sums, index, x)
        counts = np.maximum(np.bincount(index, minlength=7), 1)
        out = ad.scatter_mean(Tensor(x), index, 7).data
        np.testing.assert_allclose(out, sums / counts[:, None], rtol=1e-13)
        np.testing.assert_array_equal(out[5], 0.0)


class TestDtype:
    def test_float32_stays_float32(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((6, 3)).astype(np.float32), requires_grad=True)
        means = ad.scatter_mean(x, np.array([0, 1, 0, 2, 1, 0]), 4)
        image = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32), requires_grad=True)
        up = ad.bilinear_upsample(image, 4)
        assert means.dtype == up.dtype == np.float32
        (means.sum() + up.sum()).backward()
        assert x.grad.dtype == image.grad.dtype == np.float32


class TestSgd:
    def test_plain_gradient_step(self):
        p = Parameter(np.array([1.0, 2.0]), group="backbone")
        p.grad = np.array([0.5, -0.5])
        opt = SGD([p], momentum=0.0, weight_decay=0.0, head_lr_multiplier=10.0)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_head_group_runs_ten_times_faster(self):
        pb = Parameter(np.array([1.0]), group="backbone")
        ph = Parameter(np.array([1.0]), group="head")
        for p in (pb, ph):
            p.grad = np.array([1.0])
        SGD([pb, ph], momentum=0.0, weight_decay=0.0, head_lr_multiplier=10.0).step(0.001)
        np.testing.assert_allclose(pb.data, [1.0 - 0.001])
        np.testing.assert_allclose(ph.data, [1.0 - 0.01])

    def test_two_momentum_steps_match_scalar_simulation(self):
        """Constant grad g, momentum 0.9: total update lr * (1 + 1.9) * g."""
        g, lr = 0.37, 0.01
        p = Parameter(np.array([5.0]))
        opt = SGD([p], momentum=0.9, weight_decay=0.0, head_lr_multiplier=1.0)
        for _ in range(2):
            p.grad = np.array([g])
            opt.step(lr)
        # independent scalar simulation of the stated update rule
        w, v = 5.0, 0.0
        for _ in range(2):
            v = 0.9 * v + g
            w = w - lr * v
        np.testing.assert_allclose(p.data, [w])
        np.testing.assert_allclose(p.data, [5.0 - lr * (1 + 1.9) * g])

    def test_reference_hyperparameters_accepted(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([1.0])
        opt = SGD([p], momentum=0.9, weight_decay=0.0001, head_lr_multiplier=1.0)
        opt.step(0.001)
        # v = g + wd * w = 1.0001; w <- 1 - 0.001 * 1.0001
        np.testing.assert_allclose(p.data, [1.0 - 0.001 * 1.0001])

    def test_missing_grad_rejected(self):
        p = Parameter(np.zeros(2))
        with pytest.raises(ContractError):
            SGD([p], momentum=0.9, weight_decay=0.0001, head_lr_multiplier=10.0).step(0.1)


class TestPolyLr:
    def test_endpoints(self):
        assert poly_lr(0.001, 0, 100, 0.9) == 0.001
        assert poly_lr(0.001, 100, 100, 0.9) == 0.0

    def test_midpoint_value(self):
        np.testing.assert_allclose(poly_lr(0.001, 50, 100, 0.9), 0.001 * 0.5 ** 0.9)
        np.testing.assert_allclose(poly_lr(0.001, 50, 100, 0.9), 5.358867e-4, rtol=1e-6)

    def test_zero_max_iter_rejected(self):
        with pytest.raises(ConfigError):
            poly_lr(0.001, 0, 0, 0.9)

    def test_monotone_non_increasing(self):
        values = [poly_lr(0.01, i, 500, 0.9) for i in range(501)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestGradCheckHarness:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((4, 4)))

        def f(x):
            return (ad.matmul(ad.matmul(ad.transpose(x), a.data + a.data.T), x)).sum()

        err = grad_check(f, Tensor(rng.standard_normal((4, 1))))
        assert err < 1e-8

    def test_float32_rejected(self):
        with pytest.raises(ContractError):
            grad_check(lambda x: x.sum(), Tensor(np.ones(2, np.float32)))

    def test_non_finite_names_op(self):
        from hsiseg.errors import GradCheckError

        def f(x):
            return (x * x).sum()

        with np.errstate(over="ignore"):
            with pytest.raises(GradCheckError) as exc:
                grad_check(f, Tensor(np.array([1e200, 1.0])))
        assert "mul" in str(exc.value)


class TestPrimitiveGradients:
    def test_every_primitive_at_ten_random_points(self):
        """Tape gradients match central differences for all primitive rows,
        resampled at ten seeds (rows drawn again near relu/maxpool kinks)."""
        from hsiseg.gradcheck import programs

        for seed in range(1000, 1010):
            for name, f, xs in programs(seed):
                if name.startswith("primitive."):
                    err = grad_check(f, xs)
                    assert err < 1e-4, f"{name} at seed {seed}: error {err:.2e}"


BLOCK_ROWS = {"encoder_layer", "decoder_layer", "dcm_block", "model_loss"}


class TestGradcheckTable:
    def test_seed_reaches_every_row(self):
        from hsiseg.gradcheck import ROWS, programs

        pairs = list(zip(programs(0), programs(1)))
        assert len(pairs) == len(ROWS)
        for (name, _, xs0), (_, _, xs1) in pairs:
            assert not np.array_equal(xs0[0].data, xs1[0].data), name

    def test_rows_draw_independently_of_the_table(self, monkeypatch):
        """Deleting or reordering rows changes no other row's draws."""
        from hsiseg import gradcheck

        full = {name: xs for name, _, xs in gradcheck.programs(3)}
        monkeypatch.setattr(gradcheck, "ROWS", gradcheck.ROWS[::-2])
        for name, _, xs in gradcheck.programs(3):
            for a, b in zip(xs, full[name], strict=True):
                np.testing.assert_array_equal(a.data, b.data)

    def test_every_recorded_op_has_its_row(self):
        """Each op name the engine records appears on the tape of its own
        primitive row."""
        from hsiseg.gradcheck import programs

        recorded = recorded_ops()
        assert recorded == {
            "add", "mul", "relu", "transpose", "reshape", "concat", "sum",
            "matmul", "softmax", "log_softmax", "layernorm", "conv2d", "depthwise_conv2d",
            "maxpool2d", "bilinear_upsample", "sample_bilinear", "gather_rows", "scatter_mean"}
        tapes = {name: {node._op for node in ad.tape(f(*xs))} for name, f, xs in programs(0)}
        for op in recorded:
            assert op in tapes[f"primitive.{op}"], op

    def test_kink_distance_sees_every_kink(self):
        from hsiseg.gradcheck import kink_distance

        x = Tensor(np.array([[0.5, -3e-5], [2.0, 1.0]]), requires_grad=True)
        assert kink_distance(ad.relu(x)) == pytest.approx(3e-5)
        img = Tensor(np.array([1.0, 1.00002, -1.0, 0.3]).reshape(1, 1, 2, 2), requires_grad=True)
        assert kink_distance(ad.maxpool2d(img, 2)) == pytest.approx(2e-5)
        w = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        fused = ad.conv2d(img, w, Tensor(np.array([-0.99995])), relu=True)
        assert kink_distance(fused) == pytest.approx(5e-5)  # the pre-activation 1 - 0.99995
        # a window of ReLU-clamped zeros stays tied under any probe
        neg = Tensor(-1.0 - np.arange(4.0).reshape(1, 1, 2, 2), requires_grad=True)
        assert kink_distance(ad.maxpool2d(ad.relu(neg), 2)) == 1.0

    def test_row_that_stays_on_a_kink_fails(self, monkeypatch):
        from hsiseg import gradcheck
        from hsiseg.errors import GradCheckError

        def on_kink(rng):
            return (lambda x: ad.relu(x * 0.0)), [(2,)], []

        monkeypatch.setattr(gradcheck, "ROWS", [("on_kink", on_kink)])
        with pytest.raises(GradCheckError, match="on_kink"):
            gradcheck.full_report()

    def test_block_rows_keep_relu_inputs_clear_of_the_kink(self):
        """Forward only, at ten seeds: every ReLU input of the block rows, the
        fused ReLUs of the backbone's convs included, lies at least
        KINK_MARGIN from zero."""
        from hsiseg.gradcheck import KINK_MARGIN, programs

        for seed in range(10):
            for name, f, xs in programs(seed):
                if name not in BLOCK_ROWS:
                    continue
                relus = 0
                for node in ad.tape(f(*xs)):
                    if node._op == "relu":
                        pre = node._parents[0].data
                    elif node._op == "conv2d" and node._parents[1].name.startswith("backbone."):
                        with ad.no_grad():
                            pre = ad.conv2d(*node._parents).data
                    else:
                        continue
                    relus += 1
                    assert np.abs(pre).min() >= KINK_MARGIN, f"{name} at seed {seed}"
                assert relus, name


class TestNoGrad:
    def test_suppresses_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        assert y._parents == ()

    def test_thread_local_recording(self):
        """Concurrent no_grad blocks must not disable the tape for other threads."""
        from concurrent.futures import ThreadPoolExecutor

        def worker(_):
            x = Tensor(np.ones(4), requires_grad=True)
            with ad.no_grad():
                (x * x).sum()
            return True

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(worker, range(32)))
        x = Tensor(np.ones(4), requires_grad=True)
        y = (x * x).sum()
        assert y.requires_grad, "tape left disabled after threaded no_grad use"

    def test_param_groups_are_fixed(self):
        with pytest.raises(ConfigError):
            Parameter(np.ones(1), group="something")
