"""Dual context capture over homogeneous areas.

Pipeline: cluster the feature map into areas, run one transformer encoder
pass over all pixel tokens with attention confined to each area (regional
context), average each area into a descriptor, relate descriptors with a
second encoder (global context), and broadcast the result back to every
pixel through a cross-attention decoder. The module output concatenates the
raw feature map with the final context stream.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .cluster import AreaAssignment, area_means, run_clustering
from .errors import ConfigError
from .nn import (
    AttentionConfig,
    Module,
    PositionalConv1d,
    PositionalConv2d,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
)


class DualContextModule(Module):
    """Area-structured context extraction over a (B, C, H, W) batch of feature maps.

    Stream flags select what the output concatenates: the raw input map, the
    per-area encoded map, and the globally aggregated map. When the global
    branch runs, the regional map feeds it and only the global result is
    concatenated, so the default configuration emits 2C channels.
    """

    def __init__(self, channels, num_areas, iterations=5, heads=2, mlp_ratio=2,
                 use_input=True, use_regional=True, use_global=True,
                 rng=None, dtype=np.float32, prefix="context"):
        if not (use_input or use_regional or use_global):
            raise ConfigError("at least one context stream must be enabled")
        if num_areas < 4 or iterations < 1:
            raise ConfigError(f"need at least 4 areas and 1 clustering iteration, "
                              f"got {num_areas} and {iterations}")
        if rng is None:
            rng = np.random.default_rng(0)
        cfg = AttentionConfig(channels, heads, mlp_ratio)
        self.attn_cfg = cfg
        self.channels = channels
        self.num_areas = num_areas
        self.iterations = iterations
        self.use_input = use_input
        self.use_regional = use_regional
        self.use_global = use_global
        self.pos_map = None
        self.region_encoder = None
        self.pos_seq = None
        self.summary_encoder = None
        self.context_decoder = None
        if use_regional:
            self.pos_map = PositionalConv2d(channels, rng, dtype, prefix=f"{prefix}.pos_map")
            self.region_encoder = TransformerEncoderLayer(cfg, rng, dtype, prefix=f"{prefix}.region")
        if use_global:
            self.pos_seq = PositionalConv1d(channels, rng, dtype, prefix=f"{prefix}.pos_seq")
            self.summary_encoder = TransformerEncoderLayer(cfg, rng, dtype, prefix=f"{prefix}.summary")
            self.context_decoder = TransformerDecoderLayer(cfg, rng, dtype, prefix=f"{prefix}.decode")

    @property
    def out_channels(self):
        return (int(self.use_input) + int(self.use_regional or self.use_global)) * self.channels

    # -- stages ----------------------------------------------------------------

    def encode_regions(self, tokens, pos_tokens, areas: AreaAssignment):
        """Encode (B, N, C) tokens with attention confined to each token's own
        area, in one pass over the whole batch."""
        return self.region_encoder(tokens, pos=pos_tokens, groups=areas.area_ids)

    def build_descriptors(self, tokens, areas: AreaAssignment):
        """(B, Z, C) per-area token means; empty areas yield zero rows, and the
        (B, Z) validity mask marks the rest."""
        summaries = area_means(tokens, areas.labels, areas.num_areas)
        return summaries, areas.counts > 0

    def forward(self, features):
        """(B, C, H, W) tensor -> (B, out_channels, H, W) tensor plus the area structure."""
        nb, c, h, w = features.shape
        n = h * w
        # areas are index structure; gradients reach the features through the
        # token paths, so clustering runs on the plain array
        areas = run_clustering(features.data, self.num_areas, self.iterations)

        def as_tokens(maps):
            return ad.transpose(ad.reshape(maps, (nb, c, n)), (0, 2, 1))

        def as_maps(tokens):
            return ad.reshape(ad.transpose(tokens, (0, 2, 1)), (nb, c, h, w))

        tokens = as_tokens(features)
        regional_tokens = tokens
        if self.use_regional:
            regional_tokens = self.encode_regions(tokens, as_tokens(self.pos_map(features)), areas)

        streams = []
        if self.use_input:
            streams.append(features)
        if self.use_global:
            summaries, valid = self.build_descriptors(regional_tokens, areas)
            encoded = self.summary_encoder(
                summaries, pos=self.pos_seq(summaries), key_mask=valid)
            decoded = self.context_decoder(regional_tokens, encoded, key_mask=valid)
            streams.append(as_maps(decoded))
        elif self.use_regional:
            streams.append(as_maps(regional_tokens))

        out = streams[0] if len(streams) == 1 else ad.concat(streams, axis=1)
        return out, areas

    __call__ = forward
