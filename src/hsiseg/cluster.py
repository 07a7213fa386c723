"""Homogeneous area generation by windowed soft clustering.

A stride-reduced feature map is tiled into a near-uniform grid whose cell
means seed the cluster centers. Each iteration recomputes per-pixel
affinities exp(-||f - r||^2) against the centers of the pixel's 3x3
grid-cell neighborhood, then soft-updates every center as the
affinity-weighted feature mean. The areas are index structure that no
gradient flows through, so the loop runs on plain arrays; the final hard
argmax assignment is exported as the labels.
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
    """Output of the clustering loop over a batch of B feature maps.

    Every image has its own Z areas.
    """

    affinity: np.ndarray  # (B, N, Z), exact zeros outside each pixel's window
    labels: np.ndarray  # (B, N) argmax area per pixel
    counts: np.ndarray  # (B, Z) pixels per area
    centers: np.ndarray  # (B, Z, C)
    layout: GridLayout
    used_fallback: bool = False  # in any image

    @property
    def num_areas(self):
        return self.layout.num_areas

    @property
    def area_ids(self):
        """(B, N) labels offset by b * Z, so that no two images share an area id."""
        return offset_labels(self.labels, self.num_areas)

    def label_grid(self):
        return self.labels.reshape(-1, self.layout.height, self.layout.width)


def offset_labels(labels, num_areas):
    """(B, N) per-image labels in [0, Z) -> batch-wide ids b * Z + z."""
    return labels + num_areas * np.arange(labels.shape[0])[:, None]


def area_means(tokens, labels, num_areas):
    """(B, Z, C) means of (B, N, C) tokens over each image's (B, N) area labels.

    One ``scatter_mean`` over all B*N rows; empty areas are zero rows."""
    nb, n, c = tokens.shape
    ids = offset_labels(np.broadcast_to(labels, (nb, n)), num_areas).ravel()
    means = ad.scatter_mean(ad.reshape(tokens, (nb * n, c)), ids, nb * num_areas)
    return ad.reshape(means, (nb, num_areas, c))


def _to_tokens(features):
    """(B, C, H, W) float array -> ((B, N, C) token view, C, H, W)."""
    features = np.asarray(features)
    if features.ndim != 4 or features.dtype.kind != "f":
        raise ContractError(
            f"expected (B, C, H, W) float features, got {features.dtype} {features.shape}")
    nb, c, h, w = features.shape
    return features.reshape(nb, c, h * w).transpose(0, 2, 1), c, h, w


def init_centers(features, num_areas):
    """Grid-cell feature means; returns (layout, (B, Z, C) centers)."""
    tokens, _, h, w = _to_tokens(features)
    layout = make_grid(h, w, num_areas)
    return layout, area_means(Tensor(tokens), layout.cell_index, num_areas).data


def compute_affinity(tokens, centers, layout):
    """exp(-squared euclidean distance) inside each pixel's window, zero outside.

    tokens (B, N, C) and centers (B, Z, C) give (B, N, Z); the (N, Z) window
    mask broadcasts over the batch."""
    nb, z = centers.shape[:2]
    sq_t = (tokens * tokens).sum(axis=2, keepdims=True)  # (B, N, 1)
    sq_c = (centers * centers).sum(axis=2).reshape(nb, 1, z)
    cross = tokens @ centers.transpose(0, 2, 1)  # (B, N, Z)
    d2 = np.maximum(sq_t - 2.0 * cross + sq_c, 0)  # clamp float negatives at zero distance
    return np.exp(-d2) * layout.window_mask.astype(tokens.dtype)


def soft_update_centers(tokens, affinity, prev_centers):
    """Affinity-weighted feature means; zero-mass clusters keep their old center.

    Returns ((B, Z, C) centers, used_fallback).
    """
    mass = affinity.sum(axis=1)[..., None]  # (B, Z, 1)
    weighted = affinity.transpose(0, 2, 1) @ tokens  # (B, Z, C)
    zero = mass <= 0.0
    return np.where(zero, prev_centers, weighted / np.where(zero, 1, mass)), bool(zero.any())


def hard_assign(affinity, layout):
    """Argmax over each pixel's candidate window; ties pick the smallest index.

    (B, N, Z) affinity -> (B, N) labels and (B, Z) counts."""
    candidates = np.where(layout.window_mask, affinity, -1.0)
    labels = candidates.argmax(axis=-1)
    z = layout.num_areas
    counts = np.bincount(offset_labels(labels, z).ravel(), minlength=labels.shape[0] * z)
    return labels, counts.reshape(-1, z)


def run_clustering(features, num_areas, iterations) -> AreaAssignment:
    """T affinity/center rounds over (B, C, H, W) features, then one hard assignment."""
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
