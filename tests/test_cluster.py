"""Homogeneous area generation: grid layout, affinity, soft updates, oracle match."""

import math

import numpy as np
import pytest

import hsiseg.autodiff as ad
from hsiseg.autodiff import Tensor
from hsiseg.cluster import (
    AreaAssignment,
    area_means,
    compute_affinity,
    hard_assign,
    init_centers,
    make_grid,
    run_clustering,
    soft_update_centers,
)
from hsiseg.errors import ConfigError, ContractError

from test_autodiff import _assert_same_bits


def dense_clustering_oracle(f, num_areas, iterations, layout):
    """Independent re-implementation: dense affinity over all clusters,
    direct squared differences, no windowing shortcuts."""
    c, h, w = f.shape
    tokens = f.reshape(c, h * w).T.astype(np.float64)
    centers = np.stack([tokens[layout.cell_index == i].mean(axis=0)
                        for i in range(num_areas)])
    affinity = None
    for _ in range(iterations):
        diff = tokens[:, None, :] - centers[None, :, :]
        affinity = np.exp(-(diff ** 2).sum(axis=2))
        centers = (affinity.T @ tokens) / affinity.sum(axis=0)[:, None]
    labels = affinity.argmax(axis=1)
    return labels, centers


class TestGrid:
    def test_even_square_split(self):
        layout = make_grid(4, 4, 4)
        assert (layout.n_rows, layout.n_cols) == (2, 2)
        expected = np.array([[0, 0, 1, 1],
                             [0, 0, 1, 1],
                             [2, 2, 3, 3],
                             [2, 2, 3, 3]]).reshape(-1)
        np.testing.assert_array_equal(layout.cell_index, expected)

    def test_non_divisible_extents_banded(self):
        layout = make_grid(5, 7, 4)
        # every cell non-empty, bands near-uniform
        counts = np.bincount(layout.cell_index, minlength=4)
        assert counts.min() >= 1
        assert counts.sum() == 35

    def test_window_sizes(self):
        """Interior pixels see 9 candidate clusters, corner pixels 4."""
        layout = make_grid(9, 9, 9)  # 3x3 grid of 3x3 cells
        mask = layout.window_mask.reshape(9, 9, 9)
        assert mask[4, 4].sum() == 9  # center cell pixel
        assert mask[0, 0].sum() == 4  # corner pixel
        assert mask[0, 4].sum() == 6  # edge pixel

    def test_window_matches_nested_loop_reference(self):
        """The vectorized window equals the 3x3 cell neighborhood built by
        looping over cells and offsets, on every grid of a size sweep."""
        checked = 0
        for h, w in ((4, 4), (5, 7), (9, 9), (8, 16), (13, 6), (16, 16), (3, 20)):
            for z in (4, 6, 8, 9, 12, 16, 20, 30):
                try:
                    layout = make_grid(h, w, z)
                except ConfigError:
                    continue
                rows, cols = layout.n_rows, layout.n_cols
                ref = np.zeros((z, z), dtype=bool)
                for r in range(rows):
                    for c in range(cols):
                        for dr in (-1, 0, 1):
                            for dc in (-1, 0, 1):
                                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                                    ref[r * cols + c, (r + dr) * cols + c + dc] = True
                assert layout.window_mask.shape == (h * w, z)
                np.testing.assert_array_equal(layout.window_mask, ref[layout.cell_index])
                checked += 1
        assert checked >= 30

    def test_rejects_bad_area_counts(self):
        with pytest.raises(ConfigError):
            make_grid(4, 4, 3)
        with pytest.raises(ConfigError):
            make_grid(2, 2, 8)


class TestInitCenters:
    def test_quadrant_means(self):
        values = np.zeros((1, 4, 4))
        values[0, :2, :2] = 1.0
        values[0, :2, 2:] = 2.0
        values[0, 2:, :2] = 3.0
        values[0, 2:, 2:] = 4.0
        layout, centers = init_centers(values[None], 4)
        np.testing.assert_allclose(centers.ravel(), [1, 2, 3, 4])

    def test_constant_map(self):
        layout, centers = init_centers(np.full((1, 3, 4, 4), 2.5), 4)
        np.testing.assert_allclose(centers, 2.5)


class TestAffinity:
    def test_zero_distance_gives_one(self):
        layout = make_grid(4, 4, 4)
        tokens = np.zeros((1, 16, 2))
        centers = np.zeros((1, 4, 2))
        a = compute_affinity(tokens, centers, layout)
        assert np.all(a[0][layout.window_mask] == 1.0)
        assert np.all(a[0][~layout.window_mask] == 0.0)

    def test_unit_distance_value(self):
        layout = make_grid(4, 4, 4)
        tokens = np.zeros((1, 16, 1))
        centers = np.ones((1, 4, 1))
        a = compute_affinity(tokens, centers, layout)
        np.testing.assert_allclose(a[0][layout.window_mask], math.exp(-1), rtol=1e-12)

    def test_affinity_in_unit_interval(self):
        rng = np.random.default_rng(0)
        layout = make_grid(6, 6, 4)
        tokens = rng.standard_normal((1, 36, 3))
        centers = rng.standard_normal((1, 4, 3))
        a = compute_affinity(tokens, centers, layout)[0]
        inside = a[layout.window_mask]
        assert inside.min() > 0 and inside.max() <= 1.0


class TestSoftUpdate:
    def test_one_hot_columns_give_hard_means(self):
        rng = np.random.default_rng(1)
        tokens = rng.standard_normal((1, 6, 2))
        a = np.zeros((6, 4))
        groups = np.array([0, 1, 2, 3, 0, 1])
        a[np.arange(6), groups] = 1.0
        centers, flagged = soft_update_centers(tokens, a[None], np.zeros((1, 4, 2)))
        assert not flagged
        for i in range(4):
            np.testing.assert_allclose(centers[0, i],
                                       tokens[0, groups == i].mean(axis=0))

    def test_uniform_affinity_gives_global_mean(self):
        rng = np.random.default_rng(2)
        tokens = rng.standard_normal((1, 8, 3))
        a = np.full((1, 8, 4), 0.25)
        centers, _ = soft_update_centers(tokens, a, np.zeros((1, 4, 3)))
        for i in range(4):
            np.testing.assert_allclose(centers[0, i], tokens[0].mean(axis=0))

    def test_two_pixel_hand_case(self):
        tokens = np.array([[[1.0], [3.0]]])
        a = np.array([[[0.8, 0.2], [0.2, 0.8]]])
        centers, _ = soft_update_centers(tokens, a, np.zeros((1, 2, 1)))
        np.testing.assert_allclose(centers.ravel(),
                                   [(0.8 * 1 + 0.2 * 3) / 1.0, (0.2 * 1 + 0.8 * 3) / 1.0])

    def test_zero_mass_column_keeps_previous_center(self):
        tokens = np.array([[[1.0], [3.0]]])
        a = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        prev = np.array([[[10.0], [20.0]]])
        centers, flagged = soft_update_centers(tokens, a, prev)
        assert flagged
        np.testing.assert_allclose(centers.ravel(), [2.0, 20.0])


class TestHardAssign:
    def test_single_candidate(self):
        layout = make_grid(4, 4, 4)
        a = np.zeros((16, 4))
        a[:, 0] = 0.5  # only cluster 0 has support
        labels, counts = hard_assign(np.where(layout.window_mask, a, 0)[None], layout)
        assert np.all(labels[0][layout.window_mask[:, 0]] == 0)

    def test_tie_breaks_to_smallest_index(self):
        layout = make_grid(6, 6, 9)
        a = np.where(layout.window_mask, 0.7, 0.0)
        labels, _ = hard_assign(a[None], layout)
        # every pixel's label is the smallest cluster in its window
        expected = np.array([np.nonzero(row)[0][0] for row in layout.window_mask])
        np.testing.assert_array_equal(labels[0], expected)

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(3)
        layout = make_grid(6, 6, 4)
        a = np.where(layout.window_mask, rng.random((36, 4)), 0.0)
        labels, counts = hard_assign(a[None], layout)
        for j in range(36):
            best, best_val = None, -1
            for i in range(4):
                if layout.window_mask[j, i] and a[j, i] > best_val:
                    best, best_val = i, a[j, i]
            assert labels[0, j] == best
        assert counts.sum() == 36


class TestRunClustering:
    def test_quadrant_constants_recover_quadrants(self):
        values = np.zeros((2, 4, 4))
        for (r, c), v in zip([(0, 0), (0, 1), (1, 0), (1, 1)], [0.0, 4.0, 8.0, 12.0]):
            values[:, 2 * r:2 * r + 2, 2 * c:2 * c + 2] = v
        areas = run_clustering(values[None], 4, 1)
        grid = areas.label_grid()[0]
        assert len(np.unique(grid)) == 4
        for (r, c), label in zip([(0, 0), (0, 1), (1, 0), (1, 1)], [0, 1, 2, 3]):
            assert np.all(grid[2 * r:2 * r + 2, 2 * c:2 * c + 2] == label)

    def test_constant_map_tie_rule(self):
        areas = run_clustering(np.full((1, 2, 6, 6), 1.0), 4, 3)
        expected = np.array([np.nonzero(row)[0][0] for row in areas.layout.window_mask])
        np.testing.assert_array_equal(areas.labels[0], expected)

    def test_two_blobs_two_areas(self):
        values = np.zeros((1, 4, 8))
        values[0, :, 4:] = 10.0
        areas = run_clustering(values[None], 4, 5)
        grid = areas.label_grid()[0]
        left = set(np.unique(grid[:, :4]))
        right = set(np.unique(grid[:, 4:]))
        assert left.isdisjoint(right)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            f = rng.standard_normal((4, 8, 8))
            for t in (1, 3, 5):
                areas = run_clustering(f[None], 4, t)
                labels, centers = dense_clustering_oracle(f, 4, t, areas.layout)
                np.testing.assert_array_equal(areas.labels[0], labels)
                np.testing.assert_allclose(areas.centers[0], centers, atol=1e-6)

    def test_partition_and_locality(self):
        rng = np.random.default_rng(5)
        areas = run_clustering(rng.standard_normal((1, 3, 8, 12)), 8, 3)
        assert areas.counts.sum() == 96
        # every label inside the pixel's candidate window
        assert np.all(areas.layout.window_mask[np.arange(96), areas.labels[0]])

    def test_idempotent_once_stable(self):
        values = np.zeros((1, 4, 8))
        values[0, :, 4:] = 10.0
        a5 = run_clustering(values[None], 4, 5)
        a8 = run_clustering(values[None], 4, 8)
        np.testing.assert_array_equal(a5.labels, a8.labels)

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((4, 6, 6))
        base = run_clustering(f[None], 4, 3)
        perm = run_clustering(f[None, [2, 0, 3, 1]], 4, 3)
        np.testing.assert_array_equal(base.labels, perm.labels)
        np.testing.assert_allclose(perm.centers, base.centers[:, :, [2, 0, 3, 1]])

    def test_batch_equals_per_image(self):
        """Three maps clustered as one batch give each map's own areas; one map
        is constant, so its clusters tie."""
        rng = np.random.default_rng(8)
        f = rng.standard_normal((3, 4, 8, 8))
        f[1] = 0.5
        batch = run_clustering(f, 4, 3)
        assert batch.labels.shape == (3, 64) and batch.counts.shape == (3, 4)
        np.testing.assert_array_equal(batch.area_ids, batch.labels + 4 * np.arange(3)[:, None])
        for i in range(3):
            one = run_clustering(f[i:i + 1], 4, 3)
            np.testing.assert_array_equal(batch.labels[i], one.labels[0])
            np.testing.assert_array_equal(batch.counts[i], one.counts[0])
            np.testing.assert_allclose(batch.centers[i], one.centers[0],
                                       rtol=1e-14, atol=1e-15)

    def test_iteration_precondition(self):
        with pytest.raises(ContractError):
            run_clustering(np.zeros((1, 2, 4, 4)), 4, 0)


# -- the tape path that run_clustering replaced, kept as its reference ----------


def _tape_exp(a):
    out = np.exp(a.data)

    def bw(g):
        ad._accumulate(a, g * out)

    return Tensor._from_op(out, (a,), "exp", bw)


def _tape_div(a, b):
    out = a.data / b.data

    def bw(g):
        ad._accumulate(a, g / b.data)
        ad._accumulate(b, -g * a.data / (b.data * b.data))

    return Tensor._from_op(out, (a, b), "div", bw)


def _tape_to_tokens(features):
    """(B, C, H, W) tensor or array -> ((B, N, C) tensor, C, H, W)."""
    if not isinstance(features, Tensor):
        features = Tensor(np.asarray(features))
    if features.ndim != 4:
        raise ContractError(f"expected (B, C, H, W) features, got {features.shape}")
    nb, c, h, w = features.shape
    return ad.transpose(ad.reshape(features, (nb, c, h * w)), (0, 2, 1)), c, h, w


def _tape_init_centers(features, num_areas):
    """Grid-cell feature means; returns (layout, (B, Z, C) centers)."""
    tokens, _, h, w = _tape_to_tokens(features)
    layout = make_grid(h, w, num_areas)
    return layout, area_means(tokens, layout.cell_index, num_areas)


def _tape_compute_affinity(tokens, centers, layout):
    """exp(-squared euclidean distance) inside each pixel's window, zero outside.

    tokens (B, N, C) and centers (B, Z, C) give (B, N, Z); the (N, Z) window
    mask broadcasts over the batch."""
    nb, z = centers.shape[:2]
    sq_t = (tokens * tokens).sum(axis=2, keepdims=True)  # (B, N, 1)
    sq_c = ad.reshape((centers * centers).sum(axis=2), (nb, 1, z))
    cross = ad.matmul(tokens, ad.transpose(centers, (0, 2, 1)))  # (B, N, Z)
    # sq_t + cross * -2.0 is sq_t - 2.0 * cross bit for bit: both scalings are exact
    d2 = ad.relu(sq_t + cross * -2.0 + sq_c)  # clamp float negatives at zero distance
    mask = Tensor(layout.window_mask.astype(tokens.dtype))
    return _tape_exp(d2 * -1.0) * mask


def _tape_soft_update_centers(tokens, affinity, prev_centers):
    """Affinity-weighted feature means; zero-mass clusters keep their old center.

    Returns ((B, Z, C) centers, used_fallback).
    """
    mass = affinity.sum(axis=1)  # (B, Z)
    mass_col = (*mass.shape, 1)
    zero = mass.data <= 0.0
    weighted = ad.matmul(ad.transpose(affinity, (0, 2, 1)), tokens)  # (B, Z, C)
    if zero.any():
        safe = mass + Tensor(zero.astype(mass.dtype))
        fresh = _tape_div(weighted, ad.reshape(safe, mass_col))
        keep = zero.astype(mass.dtype)[..., None]
        return Tensor(keep) * prev_centers + Tensor(1.0 - keep) * fresh, True
    return _tape_div(weighted, ad.reshape(mass, mass_col)), False


def _tape_run_clustering(features, num_areas, iterations) -> AreaAssignment:
    """T affinity/center rounds over (B, C, H, W) features, then one hard assignment."""
    if iterations < 1:
        raise ContractError(f"need at least one iteration, got {iterations}")
    tokens = _tape_to_tokens(features)[0]
    layout, centers = _tape_init_centers(features, num_areas)
    affinity = None
    used_fallback = False
    for _ in range(iterations):
        affinity = _tape_compute_affinity(tokens, centers, layout)
        centers, flagged = _tape_soft_update_centers(tokens, affinity, centers)
        used_fallback = used_fallback or flagged
    labels, counts = hard_assign(affinity.data, layout)
    return AreaAssignment(affinity, labels, counts, centers, layout, used_fallback)


class TestReplacedTapePath:
    """run_clustering on arrays against the Tensor path it replaced."""

    @staticmethod
    def _features(kind, batch, dtype):
        rng = np.random.default_rng(31)
        f = rng.standard_normal((batch, 5, 12, 16))
        if kind == "fallback":
            # cell 0 of image 0 is a +-100 checkerboard around 500: no pixel
            # keeps any affinity to its center, so that area's mass is zero
            f[0, :, :3, :4] = 500.0 + 100.0 * np.where(np.indices((3, 4)).sum(axis=0) % 2, 1, -1)
        return f.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kind", ["normal", "fallback"])
    def test_same_bits_as_tape_path(self, kind, batch, dtype):
        f = self._features(kind, batch, dtype)
        new = run_clustering(f, 16, 3)
        with ad.no_grad():
            ref = _tape_run_clustering(Tensor(f), 16, 3)
        assert new.used_fallback == ref.used_fallback == (kind == "fallback")
        np.testing.assert_array_equal(new.labels, ref.labels)
        np.testing.assert_array_equal(new.counts, ref.counts)
        _assert_same_bits(new.centers, ref.centers.data)
        _assert_same_bits(new.affinity, ref.affinity.data)
        _assert_same_bits(init_centers(f, 16)[1], _tape_init_centers(Tensor(f), 16)[1].data)
