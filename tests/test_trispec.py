"""Tri-spectral generation: aggregation, triplet enumeration, stretching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiseg.errors import ConfigError, ContractError
from hsiseg.formats import HsiCube
from hsiseg.trispec import (
    BandTriplet,
    TriSpectralSet,
    compute_capacity,
    enumerate_triplets,
    generate_set,
    group_and_aggregate,
    linear_stretch,
    load_set,
    render_raw,
    write_set,
)


def stretch_oracle(raw):
    """Brute-force reference: sort, nearest-rank pick, per-element linear map."""
    import math

    flat = sorted(float(v) for v in np.asarray(raw, np.float64).ravel())
    n = len(flat)
    p = flat[math.floor(0.02 * (n - 1))]
    q = flat[math.ceil(0.98 * (n - 1))]
    if p == q:
        return np.zeros(np.shape(raw), np.uint8), True
    out = np.empty(np.shape(raw), np.uint8)
    it = np.nditer(np.asarray(raw, np.float64), flags=["multi_index"])
    for v in it:
        x = float(v)
        if x <= p:
            y = 0
        elif x >= q:
            y = 255
        else:
            y = math.floor(255.0 * (x - p) / (q - p) + 0.5)
            y = min(max(y, 0), 255)
        out[it.multi_index] = y
    return out, False


class TestAggregation:
    def test_hand_evaluated_means(self):
        """L=6, G=3: per-pixel spectrum (1,3,5,7,9,11) -> planes (2,6,10)."""
        values = np.array([1, 3, 5, 7, 9, 11], np.float32).reshape(6, 1, 1)
        planes = group_and_aggregate(HsiCube(np.broadcast_to(values, (6, 2, 2)).copy()), 3)
        np.testing.assert_allclose(planes[:, 0, 0], [2, 6, 10])
        np.testing.assert_allclose(planes[:, 1, 1], [2, 6, 10])

    def test_group_per_band_is_identity(self):
        rng = np.random.default_rng(0)
        cube = HsiCube(rng.standard_normal((5, 3, 4)).astype(np.float32))
        planes = group_and_aggregate(cube, 5)
        np.testing.assert_allclose(planes, cube.values, rtol=0, atol=0)

    def test_full_scale_grouping(self):
        cube = HsiCube(np.ones((270, 2, 2), np.float32))
        planes = group_and_aggregate(cube, 15)
        assert planes.shape == (15, 2, 2) and planes.dtype == np.float64
        # each plane is the mean of 18 consecutive bands
        rng = np.random.default_rng(1)
        cube = HsiCube(rng.random((270, 2, 2)).astype(np.float32))
        planes = group_and_aggregate(cube, 15)
        manual = cube.values.astype(np.float64)[18 * 4:18 * 5].mean(axis=0)
        np.testing.assert_allclose(planes[4], manual)

    def test_non_divisible_rejected(self):
        cube = HsiCube(np.zeros((7, 2, 2), np.float32))
        with pytest.raises(ConfigError):
            group_and_aggregate(cube, 3)

    def test_too_few_groups_rejected(self):
        cube = HsiCube(np.zeros((4, 2, 2), np.float32))
        with pytest.raises(ConfigError):
            group_and_aggregate(cube, 2)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((6, 3, 3)).astype(np.float32)
        a = group_and_aggregate(HsiCube(3.0 * v), 3)
        b = group_and_aggregate(HsiCube(v), 3)
        np.testing.assert_allclose(a, 3.0 * b, rtol=1e-6)


class TestTriplets:
    def test_capacity_values(self):
        assert compute_capacity(15) == 455
        assert compute_capacity(3) == 1
        assert compute_capacity(10) == 120

    def test_capacity_domain(self):
        with pytest.raises(ConfigError):
            compute_capacity(2)

    def test_all_combinations_once(self):
        assert enumerate_triplets(3) == [BandTriplet(3, 2, 1)]
        assert enumerate_triplets(4) == [
            BandTriplet(4, 3, 2), BandTriplet(4, 3, 1),
            BandTriplet(4, 2, 1), BandTriplet(3, 2, 1)]
        assert len(enumerate_triplets(6)) == 20

    def test_capacity_law_exhaustive(self):
        for g in range(3, 31):
            triplets = enumerate_triplets(g)
            assert len(triplets) == compute_capacity(g)
            assert len(set(triplets)) == len(triplets)

    def test_descending_lexicographic_order(self):
        triplets = enumerate_triplets(7)
        keys = [(t.g1, t.g2, t.g3) for t in triplets]
        assert keys == sorted(keys, reverse=True)

    def test_triplet_ordering_invariant(self):
        with pytest.raises(ContractError):
            BandTriplet(2, 3, 1)


class TestRenderRaw:
    def test_index_permutation(self):
        planes = np.stack([np.full((2, 2), v) for v in (1.0, 2.0, 3.0)])
        raw = render_raw(planes, BandTriplet(3, 2, 1))
        np.testing.assert_array_equal(raw[:, 0, 0], [3, 2, 1])

    def test_wavelength_descending_flips(self):
        planes = np.stack([np.full((1, 1), v) for v in (1.0, 2.0, 3.0)])
        raw = render_raw(planes, BandTriplet(3, 2, 1),
                         wavelength_descending=True)
        np.testing.assert_array_equal(raw[:, 0, 0], [1, 2, 3])

    def test_constant_planes(self):
        raw = render_raw(np.full((4, 3, 3), 7.0), BandTriplet(4, 2, 1))
        assert np.all(raw == 7.0)

    def test_triplet_past_last_group_rejected(self):
        with pytest.raises(ContractError):
            render_raw(np.zeros((3, 2, 2)), BandTriplet(4, 2, 1))


class TestLinearStretch:
    def test_hand_computed_percentiles(self):
        """Pooled 1..300 on 3x10x10: p=6, q=295, 150 -> 127."""
        rng = np.random.default_rng(0)
        vals = np.arange(1, 301, dtype=np.float64)
        rng.shuffle(vals)
        raw = vals.reshape(3, 10, 10)
        out, flag = linear_stretch(raw)
        assert not flag
        assert out[raw == 150][0] == 127
        assert np.all(out[raw <= 6] == 0)
        assert np.all(out[raw >= 295] == 255)

    def test_constant_image_degenerate(self):
        out, flag = linear_stretch(np.full((3, 4, 4), 9.5))
        assert flag
        assert np.all(out == 0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            raw = rng.standard_normal((3, 6, 7)) * rng.uniform(0.5, 100)
            mine, f1 = linear_stretch(raw)
            ref, f2 = stretch_oracle(raw)
            assert f1 == f2
            np.testing.assert_array_equal(mine, ref)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_in_range(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((3, 5, 5)) * 10
        out, flag = linear_stretch(raw)
        assert out.dtype == np.uint8
        flat_in = raw.ravel()
        flat_out = out.ravel().astype(int)
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= 0)

    def test_extremes_hit_when_spread(self):
        rng = np.random.default_rng(9)
        raw = rng.permutation(np.linspace(0, 1, 75)).reshape(3, 5, 5)
        out, _ = linear_stretch(raw)
        assert out.min() == 0 and out.max() == 255

    def test_channel_permutation_commutes(self):
        """p, q pool all channels, so permuting channels permutes outputs."""
        rng = np.random.default_rng(10)
        raw = rng.standard_normal((3, 4, 4))
        out, _ = linear_stretch(raw)
        perm, _ = linear_stretch(raw[[2, 0, 1]])
        np.testing.assert_array_equal(perm, out[[2, 0, 1]])


class TestGenerateSet:
    def test_single_image_for_three_groups(self):
        cube = HsiCube(np.random.default_rng(0).random((6, 4, 4)).astype(np.float32))
        ts = generate_set(cube, 3)
        assert ts.capacity == 1

    def test_counts_and_manifest(self, tmp_path):
        cube = HsiCube(np.random.default_rng(1).random((10, 8, 8)).astype(np.float32))
        out = tmp_path / "set"
        ts = generate_set(cube, 5, out_dir=out)
        assert ts.capacity == 10
        lines = (out / "manifest.txt").read_text().strip().splitlines()
        assert len(lines) == 10
        assert len(list(out.glob("img_*.ppm"))) == 10

    def test_round_trip_via_directory(self, tmp_path):
        cube = HsiCube(np.random.default_rng(2).random((8, 8, 8)).astype(np.float32))
        out = tmp_path / "set"
        ts = generate_set(cube, 4, out_dir=out)
        loaded = load_set(out)
        assert loaded.capacity == ts.capacity
        assert loaded.manifest == ts.manifest
        for images in (ts.images, loaded.images):
            assert isinstance(images, np.ndarray)
            assert images.dtype == np.uint8 and images.shape == (4, 3, 8, 8)
        np.testing.assert_array_equal(loaded.images, ts.images)

    def test_round_trip_keeps_degenerate_flags(self, tmp_path):
        """Bands 0-8 constant: groups 1-3 are flat, so only triplet (3, 2, 1) is degenerate."""
        values = np.random.default_rng(5).random((12, 6, 6)).astype(np.float32)
        values[:9] = 0.5
        out = tmp_path / "set"
        ts = generate_set(HsiCube(values), 4, out_dir=out)
        assert ts.degenerate == [False, False, False, True]
        assert load_set(out).degenerate == ts.degenerate

    def test_full_grouping_on_270_bands(self):
        """The headline configuration: 270 bands, 15 groups, 455 images."""
        rng = np.random.default_rng(4)
        cube = HsiCube(rng.random((270, 16, 16)).astype(np.float32))
        ts = generate_set(cube, 15)
        assert ts.capacity == 455
        assert (ts.manifest[0].g1, ts.manifest[0].g2, ts.manifest[0].g3) == (15, 14, 13)
        assert (ts.manifest[-1].g1, ts.manifest[-1].g2, ts.manifest[-1].g3) == (3, 2, 1)
        assert all(img.dtype == np.uint8 and img.shape == (3, 16, 16) for img in ts.images)

    def test_deterministic_bytes(self, tmp_path):
        cube = HsiCube(np.random.default_rng(3).random((8, 6, 6)).astype(np.float32))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_set(cube, 4, out_dir=d1)
        generate_set(cube, 4, out_dir=d2)
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _images(m, size=4):
    return np.random.default_rng(6).integers(0, 256, (m, 3, size, size), dtype=np.uint8)


class TestTriSpectralSet:
    def test_a_list_is_stacked_and_an_array_is_kept(self):
        images = _images(3)
        manifest = enumerate_triplets(5)[:3]
        stacked = TriSpectralSet(list(images), manifest, [False] * 3)
        assert isinstance(stacked.images, np.ndarray)
        np.testing.assert_array_equal(stacked.images, images)
        assert TriSpectralSet(images[:2], manifest[:2], [False] * 2).images.base is images

    @pytest.mark.parametrize("images", [[], np.zeros((0, 3, 4, 4), np.uint8)])
    def test_empty_set_rejected(self, images):
        with pytest.raises(ContractError, match="empty tri-spectral set"):
            TriSpectralSet(images, [], [])

    def test_mixed_shapes_rejected(self):
        images = [_images(1, 4)[0], _images(1, 8)[0]]
        with pytest.raises(ContractError, match="images disagree on shape"):
            TriSpectralSet(images, enumerate_triplets(4)[:2], [False] * 2)

    @pytest.mark.parametrize("images", [
        np.zeros((2, 4, 4, 4), np.uint8), np.zeros((2, 3, 4), np.uint8),
        np.zeros((2, 3, 4, 4), np.float32)])
    def test_not_m_by_3_by_h_by_w_uint8_rejected(self, images):
        with pytest.raises(ContractError, match=r"must be \(M, 3, H, W\) uint8"):
            TriSpectralSet(images, enumerate_triplets(4)[:2], [False] * 2)

    @pytest.mark.parametrize("manifest_len, flags_len", [(4, 2), (2, 4), (1, 2), (2, 0)])
    def test_misaligned_manifest_or_flags_rejected(self, manifest_len, flags_len):
        with pytest.raises(ContractError, match="2 images but"):
            TriSpectralSet(_images(2), enumerate_triplets(5)[:manifest_len],
                           [False, False, True, True][:flags_len])

    def test_load_set_rejects_mixed_shapes(self, tmp_path):
        """A 1x1 image would broadcast into an 8x8 slot without the check."""
        write_set(TriSpectralSet(_images(2, 8), enumerate_triplets(4)[:2], [False] * 2), tmp_path)
        write_set(TriSpectralSet(_images(1, 1), enumerate_triplets(4)[:1], [False]),
                  tmp_path / "small")
        (tmp_path / "small" / "img_0.ppm").replace(tmp_path / "img_1.ppm")
        with pytest.raises(ContractError, match="images disagree on shape"):
            load_set(tmp_path)
