"""Homogeneous area generation by windowed soft clustering.

A stride-reduced feature map is tiled into a near-uniform grid whose cell
means seed the cluster centers. Each iteration recomputes per-pixel
affinities exp(-||f - r||^2) against the centers of the pixel's 3x3
grid-cell neighborhood, then soft-updates every center as the
affinity-weighted feature mean. The loop is differentiable; the final hard
argmax assignment is exported as plain index structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError


@dataclass
class GridLayout:
    """Initial tiling of an H x W map into Z = n_rows * n_cols cells."""

    height: int
    width: int
    num_areas: int
    n_rows: int
    n_cols: int
    cell_index: np.ndarray  # (N,) initial cell of each pixel, row-major
    window_mask: np.ndarray  # (N, Z) bool, pixel's candidate clusters


def _divisors(z):
    out = []
    for d in range(1, z + 1):
        if z % d == 0:
            out.append(d)
    return out


def make_grid(height, width, num_areas) -> GridLayout:
    """Pick the grid shape closest to square cells and precompute windows."""
    n = height * width
    if num_areas < 4:
        raise ConfigError(f"need at least 4 areas, got {num_areas}")
    if num_areas > n:
        raise ConfigError(f"{num_areas} areas exceed {n} pixels")
    target = math.sqrt(num_areas * height / width)
    best = None
    for d in _divisors(num_areas):
        if d <= height and num_areas // d <= width:
            score = abs(d - target)
            if best is None or score < best[0]:
                best = (score, d)
    if best is None:
        raise ConfigError(f"no {num_areas}-cell grid fits a {height}x{width} map")
    n_rows = best[1]
    n_cols = num_areas // n_rows

    row_band = np.searchsorted(
        np.array([(k * height) // n_rows for k in range(n_rows + 1)]),
        np.arange(height), side="right") - 1
    col_band = np.searchsorted(
        np.array([(k * width) // n_cols for k in range(n_cols + 1)]),
        np.arange(width), side="right") - 1
    cell = (row_band[:, None] * n_cols + col_band[None, :]).reshape(-1)

    # candidate window: the 3x3 grid-cell neighborhood, fixed for all iterations
    r, c = np.divmod(np.arange(num_areas), n_cols)
    cell_window = (np.abs(r[:, None] - r[None, :]) <= 1) & (np.abs(c[:, None] - c[None, :]) <= 1)
    return GridLayout(height, width, num_areas, n_rows, n_cols, cell, cell_window[cell])


@dataclass
class AreaAssignment:
    """Output of the clustering loop.

    ``affinity`` and ``centers`` stay on the gradient tape; ``labels`` and
    ``counts`` are hard, non-differentiable structure.
    """

    affinity: Tensor  # (N, Z), exact zeros outside each pixel's window
    labels: np.ndarray  # (N,) argmax area per pixel
    counts: np.ndarray  # (Z,) pixels per area
    centers: Tensor  # (Z, C)
    layout: GridLayout
    used_fallback: bool = False

    @property
    def num_areas(self):
        return self.layout.num_areas

    def label_grid(self):
        return self.labels.reshape(self.layout.height, self.layout.width)


def _to_tokens(features):
    """(C, H, W) tensor or array -> ((N, C) tensor, C, H, W)."""
    if not isinstance(features, Tensor):
        features = Tensor(np.asarray(features))
    if features.ndim != 3:
        raise ContractError(f"expected (C, H, W) features, got {features.shape}")
    c, h, w = features.shape
    return ad.transpose(ad.reshape(features, (c, h * w))), c, h, w


def init_centers(features, num_areas):
    """Grid-cell feature means; returns (layout, (Z, C) centers)."""
    tokens, _, h, w = _to_tokens(features)
    layout = make_grid(h, w, num_areas)
    return layout, ad.scatter_mean(tokens, layout.cell_index, num_areas)


def compute_affinity(tokens, centers, layout):
    """exp(-squared euclidean distance) inside each pixel's window, zero outside."""
    sq_t = (tokens * tokens).sum(axis=1, keepdims=True)  # (N, 1)
    sq_c = (centers * centers).sum(axis=1)  # (Z,)
    cross = ad.matmul(tokens, ad.transpose(centers))  # (N, Z)
    d2 = ad.relu(sq_t - 2.0 * cross + sq_c)  # clamp float negatives at zero distance
    mask = Tensor(layout.window_mask.astype(tokens.dtype))
    return ad.exp(-d2) * mask


def soft_update_centers(tokens, affinity, prev_centers):
    """Affinity-weighted feature means; zero-mass clusters keep their old center.

    Returns (centers, used_fallback).
    """
    mass = affinity.sum(axis=0)  # (Z,)
    zero = mass.data <= 0.0
    weighted = ad.matmul(ad.transpose(affinity), tokens)  # (Z, C)
    if zero.any():
        safe = mass + Tensor(zero.astype(mass.dtype))
        fresh = weighted / ad.reshape(safe, (-1, 1))
        keep = Tensor(zero.astype(mass.dtype)[:, None])
        return keep * prev_centers + (1.0 - keep) * fresh, True
    return weighted / ad.reshape(mass, (-1, 1)), False


def hard_assign(affinity, layout):
    """Argmax over each pixel's candidate window; ties pick the smallest index."""
    a = np.asarray(affinity.data if isinstance(affinity, Tensor) else affinity)
    candidates = np.where(layout.window_mask, a, -1.0)
    labels = candidates.argmax(axis=1)
    counts = np.bincount(labels, minlength=layout.num_areas)
    return labels, counts


def run_clustering(features, num_areas, iterations) -> AreaAssignment:
    """T affinity/center rounds followed by one hard assignment."""
    if iterations < 1:
        raise ContractError(f"need at least one iteration, got {iterations}")
    tokens = _to_tokens(features)[0]
    layout, centers = init_centers(features, num_areas)
    affinity = None
    used_fallback = False
    for _ in range(iterations):
        affinity = compute_affinity(tokens, centers, layout)
        centers, flagged = soft_update_centers(tokens, affinity, centers)
        used_fallback = used_fallback or flagged
    labels, counts = hard_assign(affinity, layout)
    return AreaAssignment(affinity, labels, counts, centers, layout, used_fallback)
