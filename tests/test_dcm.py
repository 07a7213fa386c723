"""Dual context module: per-area encoding, descriptors, global broadcast."""

import itertools

import numpy as np
import pytest

import hsiseg.autodiff as ad
from hsiseg.autodiff import Tensor
from hsiseg.cluster import AreaAssignment, make_grid
from hsiseg.dcm import DualContextModule
from hsiseg.errors import ConfigError

from helpers import zero_parameters


def _manual_assignment(labels, num_areas, h, w):
    """Area structure of one image built directly from a label vector (bypasses clustering)."""
    layout = make_grid(h, w, num_areas)
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=num_areas)
    return AreaAssignment(
        affinity=np.zeros((1, h * w, num_areas)),
        labels=labels[None], counts=counts[None],
        centers=np.zeros((1, num_areas, 1)), layout=layout)


# every use_input/use_regional/use_global combination with a stream enabled
LEGAL_FLAGS = [f for f in itertools.product((True, False), repeat=3) if any(f)]


def _block(rng, channels=6, areas=4, iters=2, heads=2,
           use_input=True, use_regional=True, use_global=True):
    return DualContextModule(channels, areas, iterations=iters, heads=heads, mlp_ratio=2,
                             use_input=use_input, use_regional=use_regional,
                             use_global=use_global, rng=rng)


class TestStructuralIdentity:
    def test_zero_projections_reduce_to_concat(self):
        rng = np.random.default_rng(0)
        block = _block(rng)
        zero_parameters(block)
        f = Tensor(rng.standard_normal((1, 6, 8, 8)))
        out, _ = block(f)
        pos = block.pos_map(f).data
        expected = np.concatenate([f.data, f.data + pos], axis=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_output_channel_count_doubles(self):
        rng = np.random.default_rng(1)
        block = _block(rng)
        assert block.out_channels == 12
        out, _ = block(Tensor(rng.standard_normal((1, 6, 8, 8))))
        assert out.shape == (1, 12, 8, 8)


class TestStreamFlags:
    def test_regional_only(self):
        rng = np.random.default_rng(2)
        block = _block(rng, use_global=False)
        assert block.out_channels == 12
        out, _ = block(Tensor(rng.standard_normal((1, 6, 8, 8))))
        assert out.shape == (1, 12, 8, 8)

    def test_global_without_regional(self):
        rng = np.random.default_rng(3)
        block = _block(rng, use_regional=False)
        assert block.out_channels == 12
        out, _ = block(Tensor(rng.standard_normal((1, 6, 8, 8))))
        assert out.shape == (1, 12, 8, 8)

    def test_context_only(self):
        rng = np.random.default_rng(4)
        block = _block(rng, use_input=False)
        assert block.out_channels == 6

    def test_input_only_is_identity(self):
        rng = np.random.default_rng(5)
        block = _block(rng, use_regional=False, use_global=False)
        f = Tensor(rng.standard_normal((1, 6, 8, 8)))
        out, _ = block(f)
        np.testing.assert_array_equal(out.data, f.data)

    def test_all_disabled_rejected(self):
        with pytest.raises(ConfigError):
            _block(np.random.default_rng(6), use_input=False,
                   use_regional=False, use_global=False)

    @pytest.mark.parametrize("areas,iters", [(3, 2), (4, 0)])
    def test_unclusterable_settings_rejected_at_construction(self, areas, iters):
        with pytest.raises(ConfigError):
            _block(np.random.default_rng(6), areas=areas, iters=iters)

    @pytest.mark.parametrize("flags", LEGAL_FLAGS)
    def test_parameters_follow_streams(self, flags):
        """Exactly the enabled branches' blocks own parameters, each listed once."""
        use_input, use_regional, use_global = flags
        block = _block(np.random.default_rng(7), use_input=use_input,
                       use_regional=use_regional, use_global=use_global)
        params = block.parameters()
        assert len({id(p) for p in params}) == len(params)
        branches = {"pos_map": use_regional, "region": use_regional, "pos_seq": use_global,
                    "summary": use_global, "decode": use_global}
        assert {p.name.split(".")[1] for p in params} == {b for b, on in branches.items() if on}

    @pytest.mark.parametrize("flags", LEGAL_FLAGS)
    def test_out_channels_match_forward(self, flags):
        use_input, use_regional, use_global = flags
        rng = np.random.default_rng(8)
        block = _block(rng, use_input=use_input, use_regional=use_regional,
                       use_global=use_global)
        out, _ = block(Tensor(rng.standard_normal((1, 6, 8, 8))))
        assert out.shape == (1, block.out_channels, 8, 8)


class TestRegionalEncoding:
    def test_single_area_equals_full_image_pass(self):
        rng = np.random.default_rng(7)
        block = _block(rng, channels=4, areas=4)
        tokens = Tensor(rng.standard_normal((1, 16, 4)))
        pos = Tensor(rng.standard_normal((1, 16, 4)))
        areas = _manual_assignment(np.zeros(16, dtype=int), 4, 4, 4)
        out = block.encode_regions(tokens, pos, areas)
        full = block.region_encoder(tokens, pos=pos)
        np.testing.assert_allclose(out.data, full.data, atol=1e-12)

    def test_two_areas_match_separate_passes(self):
        rng = np.random.default_rng(8)
        block = _block(rng, channels=4, areas=4)
        tokens = rng.standard_normal((16, 4))
        pos = rng.standard_normal((16, 4))
        labels = np.array([0] * 7 + [3] * 9)
        areas = _manual_assignment(labels, 4, 4, 4)
        out = block.encode_regions(Tensor(tokens[None]), Tensor(pos[None]), areas).data[0]
        for area in (0, 3):
            idx = np.nonzero(labels == area)[0]
            manual = block.region_encoder(Tensor(tokens[None, idx]), pos=Tensor(pos[None, idx]))
            np.testing.assert_allclose(out[idx], manual.data[0], atol=1e-12)

    def test_scatter_gather_round_trip(self):
        """Restitched rows land exactly where their pixels came from."""
        rng = np.random.default_rng(9)
        block = _block(rng, channels=4, areas=4)
        zero_parameters(block.region_encoder)
        tokens = rng.standard_normal((16, 4))
        pos = np.zeros((16, 4))
        labels = rng.integers(0, 4, 16)
        areas = _manual_assignment(labels, 4, 4, 4)
        out = block.encode_regions(Tensor(tokens[None]), Tensor(pos[None]), areas)
        np.testing.assert_allclose(out.data[0], tokens)

    def test_single_pixel_area_handled(self):
        rng = np.random.default_rng(10)
        block = _block(rng, channels=4, areas=4)
        labels = np.array([1] + [0] * 15)
        areas = _manual_assignment(labels, 4, 4, 4)
        out = block.encode_regions(Tensor(rng.standard_normal((1, 16, 4))),
                                   Tensor(rng.standard_normal((1, 16, 4))), areas)
        assert np.all(np.isfinite(out.data))

    def test_head_rows_are_views_of_the_projections(self):
        """q, k and v reach their per-bucket gathers as one token-major
        reshape of the biased projection, with no head transpose between."""
        rng = np.random.default_rng(11)
        block = _block(rng, channels=4, areas=4)
        areas = _manual_assignment(rng.integers(0, 4, 16), 4, 4, 4)
        out = block.encode_regions(Tensor(rng.standard_normal((1, 16, 4)), requires_grad=True),
                                   Tensor(rng.standard_normal((1, 16, 4))), areas)
        gathers = [node for node in ad.tape(out) if node._op == "gather_rows" and node.ndim == 4]
        assert gathers  # (Zb, h, Lb, d) per bucket, for each of q, k and v
        for node in gathers:
            source = node._parents[0]
            assert source._op == "reshape"
            assert source._parents[0]._op == "add"


def per_area_loop(block, tokens, pos, areas):
    """The encoder run once per live area of one image's (1, N, C) tokens,
    restitched into token order."""
    n, c = tokens.shape[1:]
    tokens, pos = ad.reshape(tokens, (n, c)), ad.reshape(pos, (n, c))
    order = np.argsort(areas.labels[0], kind="stable")
    pieces, start = [], 0
    for count in areas.counts[0]:
        if count == 0:
            continue
        idx = order[start:start + count][None]
        start += count
        out = block.region_encoder(ad.gather_rows(tokens, idx), pos=ad.gather_rows(pos, idx))
        pieces.append(ad.reshape(out, (count, c)))
    stacked = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=0)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n)
    return ad.reshape(ad.gather_rows(stacked, inverse), (1, n, c))


def _skewed(rng, n, z):
    labels = rng.integers(0, z, n)
    labels[rng.random(n) < 0.7] = 3  # 70 % in one area
    return labels


class TestAreaBatchedEquivalence:
    """Float64: one grouped encoder pass equals the per-area loop on the
    output, both input gradients and every encoder parameter gradient."""

    @pytest.mark.parametrize("make_labels", [
        lambda rng, n, z: rng.integers(0, z, n),  # random sizes, more areas than buckets
        _skewed,
        lambda rng, n, z: np.full(n, 5),  # a single live area
        lambda rng, n, z: np.where(np.arange(n) < 3, np.arange(n) * 4,
                                   10 + np.arange(n) % 3),  # singletons and empties
    ], ids=["random", "skewed", "single_live", "singletons_and_empty"])
    def test_matches_per_area_loop(self, make_labels):
        rng = np.random.default_rng(40)
        h, w, z, c = 6, 8, 16, 8
        block = _block(rng, channels=c, areas=z, heads=2)
        for p in block.region_encoder.parameters():
            p.data = p.data + 0.1 * rng.standard_normal(p.shape)  # nonzero biases
        labels = make_labels(rng, h * w, z)
        areas = _manual_assignment(labels, z, h, w)
        tokens, pos = rng.standard_normal((1, h * w, c)), rng.standard_normal((1, h * w, c))
        weight = Tensor(rng.standard_normal((1, h * w, c)))

        results = []
        for encode in (block.encode_regions, lambda t, p, a: per_area_loop(block, t, p, a)):
            for p in block.parameters():
                p.grad = None
            t, p = Tensor(tokens, requires_grad=True), Tensor(pos, requires_grad=True)
            out = encode(t, p, areas)
            (out * weight).sum().backward()
            results.append([out.data, t.grad, p.grad]
                           + [q.grad for q in block.region_encoder.parameters()])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestDescriptors:
    def test_uniform_area_value(self):
        rng = np.random.default_rng(11)
        block = _block(rng, channels=4, areas=4)
        tokens = np.ones((1, 16, 4)) * 2.5
        areas = _manual_assignment(rng.integers(0, 4, 16), 4, 4, 4)
        summaries, valid = block.build_descriptors(Tensor(tokens), areas)
        np.testing.assert_allclose(summaries.data[valid], 2.5)

    def test_pairwise_mean(self):
        block = _block(np.random.default_rng(12), channels=2, areas=4, heads=1)
        tokens = np.array([[1.0, 0.0], [3.0, 0.0]] + [[0.0, 0.0]] * 14)
        labels = np.array([2, 2] + [0] * 14)
        areas = _manual_assignment(labels, 4, 4, 4)
        summaries, _ = block.build_descriptors(Tensor(tokens[None]), areas)
        np.testing.assert_allclose(summaries.data[0, 2], [2.0, 0.0])

    def test_mass_conservation(self):
        """sum_i n_i v_i equals the total token mass."""
        rng = np.random.default_rng(13)
        block = _block(rng, channels=6, areas=4)
        tokens = rng.standard_normal((36, 6))
        areas = _manual_assignment(rng.integers(0, 4, 36), 4, 6, 6)
        summaries, _ = block.build_descriptors(Tensor(tokens[None]), areas)
        weighted = (areas.counts[0, :, None] * summaries.data[0]).sum(axis=0)
        np.testing.assert_allclose(weighted, tokens.sum(axis=0), atol=1e-5)

    def test_empty_area_masked(self):
        rng = np.random.default_rng(14)
        block = _block(rng, channels=4, areas=4)
        labels = np.zeros(16, dtype=int)  # areas 1..3 empty
        areas = _manual_assignment(labels, 4, 4, 4)
        summaries, valid = block.build_descriptors(
            Tensor(rng.standard_normal((1, 16, 4))), areas)
        np.testing.assert_array_equal(valid, [[True, False, False, False]])
        np.testing.assert_array_equal(summaries.data[0, 1:], 0.0)


class TestForward:
    def test_deterministic(self):
        rng = np.random.default_rng(15)
        block = _block(rng)
        f = rng.standard_normal((1, 6, 8, 8))
        a, _ = block(Tensor(f))
        b, _ = block(Tensor(f))
        assert a.data.tobytes() == b.data.tobytes()

    def test_gradient_check_through_block(self):
        rng = np.random.default_rng(16)
        block = _block(rng, channels=4, areas=4, iters=2)
        w = Tensor(rng.standard_normal((1, 8, 6, 6)))

        def f(x):
            out, _ = block(x)
            return (out * w).sum()

        err = ad.grad_check(f, Tensor(rng.standard_normal((1, 4, 6, 6))))
        assert err < 1e-4

    def test_areas_returned_cover_map(self):
        rng = np.random.default_rng(17)
        block = _block(rng)
        _, areas = block(Tensor(rng.standard_normal((1, 6, 8, 8))))
        assert areas.counts.sum() == 64
