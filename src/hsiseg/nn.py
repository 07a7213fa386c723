"""Transformer building blocks.

Tokens are rows: a batch of B feature sequences is a (B, N, C) tensor.
Attention follows the scaled-dot-product form with softmax over the key
axis, so every query's weights sum to 1. Encoder and decoder layers are
pre-norm residual blocks; the decoder carries no self-attention and no
positional term. Self-attention can be confined to groups of tokens: every
per-token step runs once over all B*N tokens, and only the scores are
batched group by group. Blocks draw their parameters in float64; the net
that owns them casts them to its dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .errors import ConfigError, ContractError

# live groups of a grouped attention are split by size into this many
# batches, each padded to its own longest group
GROUP_BUCKETS = 4


@dataclass
class AttentionConfig:
    channels: int
    heads: int
    mlp_ratio: int

    def __post_init__(self):
        if self.channels < 1 or self.heads < 1 or self.mlp_ratio < 1:
            raise ConfigError(
                f"attention needs channels, heads and mlp_ratio >= 1, got "
                f"{self.channels}, {self.heads} and {self.mlp_ratio}")
        if self.channels % self.heads != 0:
            raise ConfigError(f"{self.heads} heads do not divide {self.channels} channels")

    @property
    def head_dim(self):
        return self.channels // self.heads


class Module:
    """A block of the network whose parameters are its attributes.

    ``parameters()`` walks the instance's attributes in assignment order: a
    ``Parameter`` is itself, a list gives its entries in order, and anything
    with a ``parameters`` method (a sub-block, or a wrapper that forwards
    attribute access to one) gives its own. Other values, ``None`` among
    them, hold none. That order is the checkpoint's entry order and the
    optimizer's.
    """

    def parameters(self):
        return _parameters_of(list(vars(self).values()))


def _parameters_of(value):
    if isinstance(value, Parameter):
        return [value]
    if isinstance(value, list):
        return [p for item in value for p in _parameters_of(item)]
    if hasattr(value, "parameters"):
        return value.parameters()
    return []


def uniform_init(rng, shape, fan_in):
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def attention_head(q, k, v, key_mask=None):
    """Attention over the last two axes: q (..., Nq, d), k/v (..., Nk, d) -> (..., Nq, d).

    Leading axes are a batch (images and heads, in ``MultiHeadAttention``). The
    softmax runs over the key axis, so each query row's weights sum to 1;
    ``key_mask`` (broadcast against the scores) gives masked keys weight 0.
    """
    d = q.shape[-1]
    k_t = ad.transpose(k, (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
    # q is scaled, not the scores: one q-sized node instead of a score-sized one
    logits = ad.matmul(q * (1.0 / math.sqrt(d)), k_t)
    mask = None if key_mask is None else np.asarray(key_mask, dtype=bool)
    weights = ad.softmax(logits, axis=-1, mask=mask)
    return ad.matmul(weights, v)


def group_buckets(groups):
    """Token slots of every live group, batched by group size.

    The live groups are sorted by size and split into at most
    ``GROUP_BUCKETS`` batches of near-equal group count. Each batch is a pair
    (tokens, mask) of (Zb, Lb) arrays: row z holds the token indices of one
    group, padded to the batch's longest group Lb with some valid token
    index, and ``mask`` marks the real slots.
    """
    order = np.argsort(groups, kind="stable")
    _, starts, sizes = np.unique(groups[order], return_index=True, return_counts=True)
    by_size = np.argsort(sizes, kind="stable")
    buckets = []
    for members in np.array_split(by_size, min(GROUP_BUCKETS, by_size.size)):
        slot = np.arange(sizes[members].max())
        mask = slot < sizes[members][:, None]
        buckets.append((order[np.where(mask, starts[members][:, None] + slot, 0)], mask))
    return buckets


class MultiHeadAttention(Module):
    """h parallel heads, channel-concatenated and projected back to C.

    Queries come from the first input; keys and values from the second.
    Self-attention is the special case of passing the same tensor twice;
    only then may ``groups`` (one label per token) confine every token's
    attention to the tokens of its own group. Each projection is one (C, C)
    matrix; head i owns its columns i*d:(i+1)*d, and all heads attend in
    one batched pass (one per size bucket of groups).
    """

    def __init__(self, cfg: AttentionConfig, rng, prefix):
        c, h, d = cfg.channels, cfg.heads, cfg.head_dim
        self.cfg = cfg
        # drawn head by head (q, k, v per head), then joined column-wise
        w = uniform_init(rng, (h, 3, c, d), c).transpose(1, 2, 0, 3).reshape(3, c, c)
        self.wq, self.wk, self.wv = (Parameter(w[j], name=f"{prefix}.w{n}")
                                     for j, n in enumerate("qkv"))
        self.bq, self.bk, self.bv = (Parameter(np.zeros(c), name=f"{prefix}.b{n}")
                                     for n in "qkv")
        self.wo = Parameter(uniform_init(rng, (c, c), c), name=f"{prefix}.wo")
        self.bo = Parameter(np.zeros(c), name=f"{prefix}.bo")

    def _split_heads(self, x, w, b):
        """(B, N, C) tokens -> per-head projections, (B, h, N, d)."""
        shape = (*x.shape[:2], self.cfg.heads, self.cfg.head_dim)
        return ad.transpose(ad.reshape(ad.matmul(x, w) + b, shape), (0, 2, 1, 3))

    def __call__(self, x_q, x_kv, key_mask=None, groups=None):
        """(B, Nq, C) queries and (B, Nk, C) keys/values -> (B, Nq, C).

        ``key_mask`` is (B, Nk); ``groups`` is (B, Nq), with ids that no two
        images share."""
        c = self.cfg.channels
        if (x_q.ndim != 3 or x_kv.ndim != 3 or x_q.shape[0] != x_kv.shape[0]
                or x_q.shape[2] != c or x_kv.shape[2] != c):
            raise ContractError(
                f"attention expects (B, N, {c}) tokens, got {x_q.shape} and {x_kv.shape}")
        nb, nq = x_q.shape[:2]
        if groups is None:
            mask = None
            if key_mask is not None:
                mask = np.asarray(key_mask, dtype=bool)
                if mask.shape != (nb, x_kv.shape[1]):
                    raise ContractError(f"key mask {mask.shape} for keys {x_kv.shape[:2]}")
                mask = mask[:, None, None, :]
            heads = attention_head(self._split_heads(x_q, self.wq, self.bq),
                                   self._split_heads(x_kv, self.wk, self.bk),
                                   self._split_heads(x_kv, self.wv, self.bv), mask)
            joined = ad.reshape(ad.transpose(heads, (0, 2, 1, 3)), (nb, nq, c))
        else:
            if x_kv is not x_q or key_mask is not None:
                raise ContractError("groups apply to self-attention without a key mask")
            joined = self._grouped_heads(x_q, np.asarray(groups))
        return ad.matmul(joined, self.wo) + self.bo

    def _grouped_heads(self, x, groups):
        """(B, N, C) tokens -> (B, N, C) joined heads, each token attending within its group.

        The batch's tokens are one sequence of n = B*N rows. q/k/v are
        projected once and viewed token-major as (n*h, d) rows, row t*h + i
        holding head i of token t, so one gather per bucket yields
        (Zb, h, Lb, d) directly; the padded keys are masked and the padded
        queries are never read back.
        """
        nb, n_img, c = x.shape
        n, h, d = nb * n_img, self.cfg.heads, self.cfg.head_dim
        if groups.shape != (nb, n_img):
            raise ContractError(f"attention groups {groups.shape} for tokens {x.shape[:2]}")
        rows = [ad.reshape(ad.matmul(x, w) + b, (n * h, d))
                for w, b in ((self.wq, self.bq), (self.wk, self.bk), (self.wv, self.bv))]
        slot = np.empty((n, h), dtype=np.intp)  # where each token's heads land
        pieces, filled = [], 0
        for tokens, mask in group_buckets(groups.ravel()):
            zb, lb = tokens.shape
            index = tokens[:, None, :] * h + np.arange(h)[:, None]  # (Zb, h, Lb)
            out = attention_head(*(ad.gather_rows(r, index) for r in rows),
                                 key_mask=mask[:, None, None, :])
            pieces.append(ad.reshape(out, (zb * h * lb, d)))
            z, pos = np.nonzero(mask)
            slot[tokens[z, pos]] = filled + (z[:, None] * h + np.arange(h)) * lb + pos[:, None]
            filled += zb * h * lb
        joined = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=0)
        return ad.reshape(ad.gather_rows(joined, slot), (nb, n_img, c))


class Mlp(Module):
    """linear(C -> ratio*C), ReLU, linear(-> C)."""

    def __init__(self, cfg: AttentionConfig, rng, prefix):
        c, hidden = cfg.channels, cfg.mlp_ratio * cfg.channels
        self.w1 = Parameter(uniform_init(rng, (c, hidden), c), name=f"{prefix}.w1")
        self.b1 = Parameter(np.zeros(hidden), name=f"{prefix}.b1")
        self.w2 = Parameter(uniform_init(rng, (hidden, c), hidden), name=f"{prefix}.w2")
        self.b2 = Parameter(np.zeros(c), name=f"{prefix}.b2")

    def __call__(self, x):
        h = ad.matmul(x, self.w1) + self.b1
        return ad.matmul(ad.relu(h), self.w2) + self.b2


class _Norm(Module):
    def __init__(self, channels, name):
        self.gamma = Parameter(np.ones(channels), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), name=f"{name}.beta")

    def __call__(self, x):
        return ad.layernorm(x, self.gamma, self.beta, axis=-1)


class TransformerEncoderLayer(Module):
    """Pre-norm residual pair: y = (x+p) + attn(norm(x+p)); out = y + mlp(norm(y)).

    With ``groups`` the attention stays within each token's group, so one
    call encodes every group as if it ran alone.
    """

    def __init__(self, cfg: AttentionConfig, rng, prefix):
        self.attn = MultiHeadAttention(cfg, rng, prefix=f"{prefix}.attn")
        self.mlp = Mlp(cfg, rng, prefix=f"{prefix}.mlp")
        self.norm1 = _Norm(cfg.channels, f"{prefix}.norm1")
        self.norm2 = _Norm(cfg.channels, f"{prefix}.norm2")

    def __call__(self, x, pos=None, key_mask=None, groups=None):
        base = x + pos if pos is not None else x
        normed = self.norm1(base)
        y = base + self.attn(normed, normed, key_mask, groups)
        return y + self.mlp(self.norm2(y))


class TransformerDecoderLayer(TransformerEncoderLayer):
    """Cross-attention block: y = x + attn(norm(x), memory); out = y + mlp(norm(y))."""

    def __call__(self, x, memory, key_mask=None):
        y = x + self.attn(self.norm1(x), memory, key_mask)
        return y + self.mlp(self.norm2(y))


class PositionalConv2d(Module):
    """3x3 depthwise convolution over a (B, C, H, W) batch of maps, padding 1."""

    def __init__(self, channels, rng, prefix):
        self.weight = Parameter(uniform_init(rng, (channels, 3, 3), 9), name=f"{prefix}.weight")
        self.bias = Parameter(np.zeros(channels), name=f"{prefix}.bias")

    def __call__(self, x):
        return ad.depthwise_conv2d(x, self.weight, self.bias)


class PositionalConv1d(Module):
    """Depthwise 1-D convolution along each (N, C) sequence of a (B, N, C) batch,
    kernel 3, padding 1.

    Runs as a depthwise 1x3 convolution of the tokens viewed as a (B, C, 1, N) map."""

    def __init__(self, channels, rng, prefix):
        self.weight = Parameter(uniform_init(rng, (channels, 3), 3), name=f"{prefix}.weight")
        self.bias = Parameter(np.zeros(channels), name=f"{prefix}.bias")

    def __call__(self, x):
        nb, n, c = x.shape
        seq = ad.reshape(ad.transpose(x, (0, 2, 1)), (nb, c, 1, n))
        out = ad.depthwise_conv2d(seq, ad.reshape(self.weight, (-1, 1, 3)), self.bias)
        return ad.transpose(ad.reshape(out, (nb, c, n)), (0, 2, 1))
