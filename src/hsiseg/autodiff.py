"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine in the micrograd tradition: every operation
returns a new Tensor whose closure knows how to route the upstream
gradient to its inputs. The tape is the implicit DAG of ``_parents``
links. ``tape`` is its one walk: every node once, each before its parents.
``backward`` runs the closures in that order, and the non-finite and kink
probes read the same list.

Everything runs on the CPU in whatever float dtype the caller supplies.
Training defaults to float32 for throughput; finite-difference
verification requires float64.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ConfigError, ContractError, GradCheckError

_tape_state = threading.local()


def _recording():
    return getattr(_tape_state, "enabled", True)


class no_grad:
    """Context manager that pauses tape recording on the current thread."""

    def __enter__(self):
        self._saved = _recording()
        _tape_state.enabled = False
        return self

    def __exit__(self, *exc):
        _tape_state.enabled = self._saved
        return False


class Tensor:
    """N-d float array with optional gradient-tape participation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data, parents, op, backward):
        t = cls(data)
        if _recording() and any(p.requires_grad for p in parents):
            t.requires_grad = True
            t._parents = tuple(parents)
            t._backward = backward
            t._op = op
        return t

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, grad={self.requires_grad})"

    # -- backward pass ---------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        Repeated calls keep accumulating into the leaves until their ``grad``
        is set back to None.
        Interior nodes drop their gradient once it has been passed on, so a
        second call on the same tape adds exactly one more gradient.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        _accumulate(self, np.ones_like(self.data))
        for node in tape(self):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operator sugar ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis, keepdims)


class Parameter(Tensor):
    """Trainable tensor with a learning-rate group tag (``backbone`` or ``head``)."""

    __slots__ = ("name", "group")

    def __init__(self, data, group="head", name=""):
        if group not in ("backbone", "head"):
            raise ConfigError(f"unknown parameter group {group!r}")
        super().__init__(data, requires_grad=True)
        self.group = group
        self.name = name


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _accumulate(t, g):
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g), t.data.shape)
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad = t.grad + g


# -- elementwise arithmetic -------------------------------------------------------


def _binary(op, a, b, forward):
    """Coerce both operands to tensors (a bare number takes the other's dtype)
    and apply ``forward`` to their arrays, naming ``op`` if they do not broadcast."""
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    try:
        return a, b, forward(a.data, b.data)
    except ValueError:
        raise ContractError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def add(a, b):
    a, b, out = _binary("add", a, b, np.add)

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor._from_op(out, (a, b), "add", bw)


def mul(a, b):
    a, b, out = _binary("mul", a, b, np.multiply)

    def bw(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return Tensor._from_op(out, (a, b), "mul", bw)


def relu(a):
    out = np.maximum(a.data, 0)

    def bw(g):
        _accumulate(a, g * (a.data > 0))

    return Tensor._from_op(out, (a,), "relu", bw)


# -- shape manipulation -----------------------------------------------------------


def transpose(a, axes=None):
    out = np.transpose(a.data, axes)

    def bw(g):
        _accumulate(a, np.transpose(g, None if axes is None else np.argsort(axes)))

    return Tensor._from_op(out, (a,), "transpose", bw)


def reshape(a, shape):
    out = a.data.reshape(shape)
    orig = a.data.shape

    def bw(g):
        _accumulate(a, g.reshape(orig))

    return Tensor._from_op(out, (a,), "reshape", bw)


def concat(tensors, axis=0):
    tensors = [(_as_tensor(t)) for t in tensors]
    if not tensors:
        raise ContractError("concat: empty input list")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ContractError(f"concat: incompatible shapes {[t.shape for t in tensors]}")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return Tensor._from_op(out, tuple(tensors), "concat", bw)


# -- reductions ---------------------------------------------------------------------


def tensor_sum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return Tensor._from_op(out, (a,), "sum", bw)


# -- linear algebra -------------------------------------------------------------------


def matmul(a, b):
    """Matrix product over the last two axes; leading axes broadcast as a batch."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    incompatible = f"matmul: shapes {a.shape} and {b.shape} are incompatible"
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError(incompatible)
    try:
        out = a.data @ b.data
    except ValueError:
        raise ContractError(incompatible)

    def bw(g):
        _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return Tensor._from_op(out, (a, b), "matmul", bw)


# -- softmax family --------------------------------------------------------------------

_MASKED_LOGIT = -1e30  # finite, so a fully masked row stays uniform rather than NaN


def softmax(a, axis=-1, mask=None):
    """Softmax along ``axis``; entries where the broadcast ``mask`` is False get weight 0."""
    x = a.data if mask is None else np.where(mask, a.data, _MASKED_LOGIT)
    m = x.max(axis=axis, keepdims=True)
    # x - m is the one new array; exp and the division run in place on it
    out = x - m
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accumulate(a, out * (g - dot))

    return Tensor._from_op(out, (a,), "softmax", bw)


def log_softmax(a, axis=-1):
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def bw(g):
        _accumulate(a, g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._from_op(out, (a,), "log_softmax", bw)


def layernorm(x, gamma, beta, axis=-1, eps=1e-5):
    """Normalize along ``axis`` to zero mean / unit variance, then affine-map."""
    mu = x.data.mean(axis=axis, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma.data * xhat + beta.data

    def bw(g):
        _accumulate(gamma, g * xhat)
        _accumulate(beta, g)
        dxhat = g * gamma.data
        term = dxhat - dxhat.mean(axis=axis, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True)
        _accumulate(x, inv * term)

    return Tensor._from_op(out, (x, gamma, beta), "layernorm", bw)


# -- convolutions ------------------------------------------------------------------------
#
# Every image op takes a (B, C, H, W) batch; B = 1 is one image.


def _pad_same(op, x, kernel_shape):
    """Zero-pad a (B, C, H, W) array by k // 2 per side, so that a stride-1
    correlation with the odd kernel keeps the input's size."""
    kh, kw = kernel_shape[-2:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ContractError(f"{op}: kernel {kh}x{kw} has no centre tap; sizes must be odd")
    nb, c, h, width = x.shape
    # zeros plus one slice copy: np.pad's per-call overhead dominates on small maps
    xp = np.zeros((nb, c, h + kh - 1, width + kw - 1), x.dtype)
    xp[:, :, kh // 2:kh // 2 + h, kw // 2:kw // 2 + width] = x
    return xp


def _im2col(xp, kh, kw):
    """(C, kh*kw, B*H*W) stride-1 windows of a (B, C, H + kh - 1, W + kw - 1) padded array."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(xp.shape[1], kh * kw, -1)


def _channels_first(a):
    """(B, C, H, W) -> (C, B*H*W), the column order of ``_im2col``."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def _columns(x, kernel_shape):
    """The (Cin*kh*kw, B*H*W) im2col matrix of a (B, Cin, H, W) array, "same"-padded."""
    kh, kw = kernel_shape[-2:]
    return _im2col(_pad_same("conv2d", x, kernel_shape), kh, kw).reshape(x.shape[1] * kh * kw, -1)


def _correlate(x, w):
    """Stride-1 "same" correlation of (B, Cin, H, W) with (Cout, Cin, kh, kw) as one
    GEMM; returns a (B, Cout, H, W) array of its own."""
    nb, _, h, width = x.shape
    out = (w.reshape(w.shape[0], -1) @ _columns(x, w.shape)).reshape(-1, nb, h, width)
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def _check_images(op, x):
    if x.ndim != 4:
        raise ContractError(f"{op}: expected a (B, C, H, W) input, got {x.shape}")


def conv2d(x, w, b=None, relu=False):
    """Stride-1 "same" convolution: x (B, Cin, H, W), w (Cout, Cin, kh, kw), odd kh, kw.

    ``relu=True`` applies a ReLU to the output in place, so the tape holds no
    pre-activation. The node keeps only its inputs and output: the backward
    rebuilds the im2col matrix from ``x``."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ContractError(f"conv2d: input {x.shape} does not match weight {w.shape}")
    out = _correlate(x.data, w.data)
    if b is not None:
        out += b.data[:, None, None]
    if relu:
        np.maximum(out, 0, out=out)

    def bw(g):
        if relu:
            g = g * (out > 0)  # out > 0 exactly where the pre-activation is positive
        col = _columns(x.data, w.shape)
        _accumulate(w, (_channels_first(g) @ col.T).reshape(w.shape))
        del col  # before the input gradient builds the im2col matrix of g
        if b is not None:
            _accumulate(b, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            # at stride 1, dx correlates g with the flipped, in/out-transposed kernel
            _accumulate(x, _correlate(g, w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._from_op(out, parents, "conv2d", bw)


def _depthwise_correlate(x, w):
    """Per-channel stride-1 "same" correlation of (B, C, H, W) with (C, kh, kw),
    one shifted multiply-add per tap."""
    h, width = x.shape[2:]
    _, kh, kw = w.shape
    xp = _pad_same("depthwise_conv2d", x, w.shape)
    out = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            out += w[:, i, j, None, None] * xp[:, :, i:i + h, j:j + width]
    return out


def depthwise_conv2d(x, w, b=None):
    """Per-channel stride-1 "same" convolution: x (B, C, H, W), w (C, kh, kw), odd kh, kw.

    Like ``conv2d``, the backward re-pads ``x`` rather than holding the padded copy."""
    if x.ndim != 4 or w.ndim != 3 or x.shape[1] != w.shape[0]:
        raise ContractError(f"depthwise_conv2d: input {x.shape} vs weight {w.shape}")
    out = _depthwise_correlate(x.data, w.data)
    if b is not None:
        out += b.data[:, None, None]

    def bw(g):
        c, kh, kw = w.shape
        xp = _pad_same("depthwise_conv2d", x.data, w.shape)
        dw = _im2col(xp, kh, kw) @ _channels_first(g)[:, :, None]
        _accumulate(w, dw.reshape(w.shape))
        if b is not None:
            _accumulate(b, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            _accumulate(x, _depthwise_correlate(g, w.data[:, ::-1, ::-1]))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._from_op(out, parents, "depthwise_conv2d", bw)


def maxpool2d(x, size=2):
    """Non-overlapping max pooling of (B, C, H, W); ties route the gradient to the first maximum.

    The forward is an elementwise maximum over the size² strided tap views of
    each window. The loop over taps stays because the one batched op that
    does the job, ``max(axis=(3, 5))`` over the windows, measured 30x slower
    on a (1, 16, 128, 128) map, and 2.5x slower than the argmax it replaced."""
    _check_images("maxpool2d", x)
    nb, c, h, w = x.shape
    if h % size or w % size:
        raise ContractError(f"maxpool2d: {x.shape} not divisible by {size}")
    oh, ow = h // size, w // size
    win = x.data.reshape(nb, c, oh, size, ow, size)
    taps = [(i, j) for i in range(size) for j in range(size)]  # row-major window order
    out = win[:, :, :, 0, :, 0].copy()
    for i, j in taps[1:]:
        np.maximum(out, win[:, :, :, i, :, j], out=out)

    def bw(g):
        # each tap takes g where it holds the maximum and no earlier tap did;
        # a product with the mask is several times faster than a masked copy
        dwin = np.empty_like(win)
        free = np.ones(out.shape, dtype=bool)  # windows whose maximum is not yet routed
        for i, j in taps:
            hit = win[:, :, :, i, :, j] == out
            hit &= free
            free ^= hit  # hit is a subset of free
            np.multiply(g, hit, out=dwin[:, :, :, i, :, j])
        dwin += 0  # turns the -0.0 of a negative g times False into +0.0
        _accumulate(x, dwin.reshape(nb, c, h, w))

    return Tensor._from_op(out, (x,), "maxpool2d", bw)


def _bilinear_taps(coords, n, factor, dtype):
    """Source taps of output coordinates along one axis of length ``n``.

    Output pixel i samples the input at (i+0.5)/f - 0.5, clipped to the
    edges. Returns (i0, i1, w0, w1) with weights in ``dtype``."""
    src = (np.asarray(coords) + 0.5) / factor - 0.5
    src = np.clip(src, 0, n - 1)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n - 1)
    frac = (src - i0).astype(dtype)
    return i0, i1, 1 - frac, frac


def _check_factor(name, factor):
    if factor < 1 or int(factor) != factor:
        raise ContractError(f"{name}: bad factor {factor}")
    return int(factor)


def _interpolation_matrix(taps, n):
    """(outputs, n) matrix whose row i holds the two weights of ``_bilinear_taps`` output i."""
    i0, i1, w0, w1 = taps
    rows = np.arange(i0.size)
    m = np.zeros((i0.size, n), w0.dtype)
    m[rows, i0] = w0
    m[rows, i1] += w1  # at the clipped edges i0 == i1 and the weights add
    return m


def bilinear_upsample(x, factor):
    """Upsample (B, C, H, W) by an integer factor; sample centers at (i+0.5)/f - 0.5.

    Separable: a column pass, then a row pass over its result. The backward is
    the adjoint of both passes, My^T @ g @ Mx, with interpolation matrices."""
    factor = _check_factor("bilinear_upsample", factor)
    _check_images("bilinear_upsample", x)
    h, w = x.shape[2:]
    ty = y0, y1, wy0, wy1 = _bilinear_taps(np.arange(h * factor), h, factor, x.dtype)
    tx = x0, x1, wx0, wx1 = _bilinear_taps(np.arange(w * factor), w, factor, x.dtype)
    d = x.data
    cols = wx0 * np.take(d, x0, axis=3) + wx1 * np.take(d, x1, axis=3)
    out = wy0[:, None] * np.take(cols, y0, axis=2) + wy1[:, None] * np.take(cols, y1, axis=2)

    def bw(g):
        _accumulate(x, _interpolation_matrix(ty, h).T @ (g @ _interpolation_matrix(tx, w)))

    return Tensor._from_op(out, (x,), "bilinear_upsample", bw)


def sample_bilinear(x, ys, xs, factor):
    """Rows of ``bilinear_upsample(x, factor)`` at pixels (ys, xs) of every image, as (B, P, C).

    Only the four taps of each requested pixel are read, so the result equals
    upsampling then selecting without building the full-resolution map."""
    factor = _check_factor("sample_bilinear", factor)
    _check_images("sample_bilinear", x)
    nb, c, h, w = x.shape
    ys = np.asarray(ys, dtype=np.intp)
    xs = np.asarray(xs, dtype=np.intp)
    if ys.shape != xs.shape or ys.ndim != 1:
        raise ContractError(f"sample_bilinear: coordinates {ys.shape} and {xs.shape}")
    if ys.size and (ys.min() < 0 or xs.min() < 0 or ys.max() >= h * factor
                    or xs.max() >= w * factor):
        raise ContractError(f"sample_bilinear: points outside {h * factor}x{w * factor}")
    y0, y1, wy0, wy1 = _bilinear_taps(ys, h, factor, x.dtype)
    x0, x1, wx0, wx1 = _bilinear_taps(xs, w, factor, x.dtype)
    wy0, wy1, wx0, wx1 = wy0[:, None], wy1[:, None], wx0[:, None], wx1[:, None]
    d = x.data.transpose(0, 2, 3, 1)  # (B, H, W, C): each tap gathers whole rows
    out = wy0 * (wx0 * d[:, y0, x0] + wx1 * d[:, y0, x1]) \
        + wy1 * (wx0 * d[:, y1, x0] + wx1 * d[:, y1, x1])

    def bw(g):
        taps = ((y0, x0, wy0 * wx0), (y0, x1, wy0 * wx1), (y1, x0, wy1 * wx0), (y1, x1, wy1 * wx1))
        pixel = np.concatenate([yi * w + xi for yi, xi, _ in taps])
        rows = (np.arange(nb)[:, None] * (h * w) + pixel).ravel()
        values = np.concatenate([wt * g for _, _, wt in taps], axis=1).reshape(-1, c)
        dx = _sum_rows(rows, values, nb * h * w)
        _accumulate(x, dx.reshape(nb, h, w, c).transpose(0, 3, 1, 2).astype(x.dtype, copy=False))

    return Tensor._from_op(out, (x,), "sample_bilinear", bw)


# -- indexed gathers and scatters -------------------------------------------------------------


def _sum_rows(rows, values, num_rows):
    """(num_rows, C) float64 sums of the (P, C) ``values`` by target row, via one bincount."""
    cols = values.shape[1]
    flat = (rows[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(flat, values.ravel(), minlength=num_rows * cols).reshape(num_rows, cols)


def gather_rows(x, idx):
    """Select rows of a (N, ...) tensor by an index array of any shape.

    The result has shape ``idx.shape + x.shape[1:]``; duplicate indices are allowed."""
    idx = np.asarray(idx, dtype=np.intp)
    out = x.data[idx]
    row_size = math.prod(x.shape[1:])

    def bw(g):
        dx = _sum_rows(idx.ravel(), g.reshape(idx.size, row_size), x.shape[0])
        _accumulate(x, dx.reshape(x.shape).astype(x.dtype, copy=False))

    return Tensor._from_op(out, (x,), "gather_rows", bw)


def scatter_mean(x, index, num_groups):
    """Group rows of a (N, C) tensor by ``index`` and average; empty groups are zero."""
    index = np.asarray(index, dtype=np.intp)
    if index.shape[0] != x.shape[0]:
        raise ContractError(f"scatter_mean: {index.shape[0]} indices for {x.shape[0]} rows")
    counts = np.maximum(np.bincount(index, minlength=num_groups), 1).astype(x.dtype)
    out = _sum_rows(index, x.data, num_groups).astype(x.dtype, copy=False) / counts[:, None]

    def bw(g):
        _accumulate(x, g[index] / counts[index][:, None])

    return Tensor._from_op(out, (x,), "scatter_mean", bw)


# -- optimization -------------------------------------------------------------------------------


class SGD:
    """Momentum SGD with weight decay and a two-rate parameter grouping.

    Update rule per parameter: v <- momentum * v + grad + weight_decay * w,
    then w <- w - lr(group) * v where the head group runs at
    ``head_lr_multiplier`` times the backbone rate.
    """

    def __init__(self, params, momentum, weight_decay, head_lr_multiplier):
        self.params = list(params)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.head_lr_multiplier = float(head_lr_multiplier)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                raise ContractError(f"parameter {p.name or '<unnamed>'} has no gradient")
            v *= self.momentum
            v += p.grad
            if self.weight_decay:
                v += self.weight_decay * p.data
            rate = lr * (self.head_lr_multiplier if p.group == "head" else 1.0)
            p.data -= rate * v


def poly_lr(initial, iteration, max_iter, power):
    """Polynomial decay: initial * (1 - iteration / max_iter) ** power."""
    if max_iter <= 0:
        raise ConfigError(f"poly_lr: max_iter must be positive, got {max_iter}")
    if not 0 <= iteration <= max_iter:
        raise ContractError(f"poly_lr: iteration {iteration} outside [0, {max_iter}]")
    return float(initial) * (1.0 - iteration / max_iter) ** power


# -- finite-difference verification --------------------------------------------------------------


def tape(out):
    """Every node below ``out`` once, each before its parents: the reverse of a
    depth-first post-order from ``out``. This is the one walk of the tape;
    ``backward`` runs the closures in this order."""
    post = []
    visited = set()
    stack = [(out, False)]
    while stack:  # iterative DFS; deep tapes overflow Python recursion
        node, expanded = stack.pop()
        if expanded:
            post.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    post.reverse()
    return post


def nonfinite_op(out):
    """Walk the tape below ``out``; name the op that introduced non-finite values.

    Returns None when every value on the tape is finite. The op is the deepest
    offender: a node with non-finite output from finite inputs. A named
    parameter that holds non-finite values is reported by its name."""
    culprit = None
    for node in tape(out):
        if not np.all(np.isfinite(node.data)):
            culprit = node
            if all(np.all(np.isfinite(p.data)) for p in node._parents):
                break
    if culprit is None:
        return None
    name = getattr(culprit, "name", "")
    return f"{culprit._op} {name}" if name else culprit._op


FD_STEP = 1e-5  # the central difference's step on each input component


def grad_check(f, xs):
    """Max relative error between tape gradients and central finite differences.

    ``f`` maps the given tensors to a scalar Tensor. Inputs must be float64;
    the error at component k is |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    """
    if isinstance(xs, Tensor):
        xs = [xs]
    for x in xs:
        if x.data.dtype != np.float64:
            raise ContractError("grad_check requires float64 inputs")
        x.requires_grad = True
        x.grad = None
    out = f(*xs)
    if out.data.size != 1:
        raise ContractError("grad_check: program must be scalar-valued")
    culprit = nonfinite_op(out)
    if culprit is not None:
        raise GradCheckError(f"non-finite values produced by op {culprit!r}")
    out.backward()
    grads = [np.zeros_like(x.data) if x.grad is None else x.grad.copy() for x in xs]
    worst = 0.0
    with no_grad():
        for x, ga in zip(xs, grads):
            flat = x.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + FD_STEP
                fp = float(f(*xs).data)
                flat[i] = saved - FD_STEP
                fm = float(f(*xs).data)
                flat[i] = saved
                if not (math.isfinite(fp) and math.isfinite(fm)):
                    raise GradCheckError("non-finite value during finite-difference probe")
                gfd = (fp - fm) / (2.0 * FD_STEP)
                err = abs(gflat[i] - gfd) / max(1.0, abs(gflat[i]), abs(gfd))
                worst = max(worst, err)
    return worst

