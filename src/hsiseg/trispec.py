"""Tri-spectral image generation.

A hyperspectral cube is reduced to G per-group mean planes, every descending
triplet of group indices becomes a three-channel image (longest-wavelength
group first, mirroring R/G/B order), and each image is contrast-stretched by
mapping the pooled 2nd..98th percentile range onto [0, 255].
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError, FormatError
from .formats import HsiCube, read_ppm, write_atomic, write_ppm


@dataclass(frozen=True)
class BandTriplet:
    """1-based group indices in strictly descending order; g1 has the longest wavelength."""

    g1: int
    g2: int
    g3: int

    def __post_init__(self):
        if not self.g1 > self.g2 > self.g3 >= 1:
            raise ContractError(f"triplet {self} must be strictly descending and >= 1")


@dataclass
class TriSpectralSet:
    """The generated ensemble: M three-channel uint8 images plus their manifest."""

    images: list  # of (3, H, W) uint8 arrays
    manifest: list  # of BandTriplet, aligned with images
    degenerate: list  # per-image flat-histogram flags

    @property
    def capacity(self):
        return len(self.images)


def group_and_aggregate(cube: HsiCube, groups: int) -> np.ndarray:
    """Mean-collapse each of ``groups`` equal sequential band runs to one plane:
    a (G, H, W) float64 array, group index ascending with wavelength."""
    if groups < 3:
        raise ConfigError(f"need at least 3 groups, got {groups}")
    if cube.bands % groups != 0:
        raise ConfigError(f"{cube.bands} bands are not divisible into {groups} groups")
    run = cube.bands // groups
    v = cube.values.astype(np.float64)
    return v.reshape(groups, run, cube.height, cube.width).mean(axis=1)


def compute_capacity(groups: int) -> int:
    """Number of distinct descending triplets: G choose 3."""
    if groups < 3:
        raise ConfigError(f"capacity undefined for {groups} groups")
    return math.comb(groups, 3)


def enumerate_triplets(groups: int):
    """All 3-combinations of 1..G in descending lexicographic order."""
    if groups < 3:
        raise ConfigError(f"need at least 3 groups, got {groups}")
    return [BandTriplet(*t) for t in itertools.combinations(range(groups, 0, -1), 3)]


def render_raw(planes: np.ndarray, triplet: BandTriplet, wavelength_descending=False):
    """Stack the triplet's (G, H, W) ``planes`` channel-first, longest wavelength as channel 0.

    ``wavelength_descending`` flips the convention for cubes whose band index
    decreases with wavelength.
    """
    if triplet.g1 > planes.shape[0]:
        raise ContractError(f"triplet {triplet} exceeds {planes.shape[0]} groups")
    order = (triplet.g1, triplet.g2, triplet.g3)
    if wavelength_descending:
        order = order[::-1]
    return np.stack([planes[g - 1] for g in order])


def linear_stretch(raw):
    """Contrast-stretch a (3, H, W) real image to uint8.

    p and q are the nearest-rank 2nd and 98th percentiles of the pooled values
    of all three channels: sorted ascending v[0..n-1], p = v[floor(0.02 (n-1))],
    q = v[ceil(0.98 (n-1))]. Values at or below p map to 0, at or above q to
    255, in between to round(255 (x - p) / (q - p)) with ties away from zero.

    Returns (image, degenerate) where degenerate flags a flat histogram
    (p == q), in which case the image is all zeros.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise DataError("stretch input contains non-finite values")
    pooled = np.sort(raw, axis=None)
    n = pooled.size
    p = pooled[math.floor(0.02 * (n - 1))]
    q = pooled[math.ceil(0.98 * (n - 1))]
    if p == q:
        return np.zeros(raw.shape, dtype=np.uint8), True
    scaled = 255.0 * (raw - p) / (q - p)
    out = np.clip(np.floor(scaled + 0.5), 0.0, 255.0)
    return out.astype(np.uint8), False


def generate_set(cube: HsiCube, groups: int, out_dir=None, wavelength_descending=False) -> TriSpectralSet:
    """Run the full pipeline; optionally persist images and manifest to ``out_dir``."""
    planes = group_and_aggregate(cube, groups)
    triplets = enumerate_triplets(groups)
    images, flags = [], []
    for t in triplets:
        img, degenerate = linear_stretch(render_raw(planes, t, wavelength_descending))
        images.append(img)
        flags.append(degenerate)
    ts = TriSpectralSet(images, triplets, flags)
    if out_dir is not None:
        write_set(ts, out_dir)
    return ts


def write_set(ts: TriSpectralSet, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, (img, t) in enumerate(zip(ts.images, ts.manifest)):
        write_ppm(img, os.path.join(out_dir, f"img_{i}.ppm"))
        lines.append(f"{i} {t.g1} {t.g2} {t.g3}\n")
    write_atomic(os.path.join(out_dir, "manifest.txt"), "".join(lines))


def load_set(in_dir) -> TriSpectralSet:
    manifest_path = os.path.join(in_dir, "manifest.txt")
    if not os.path.exists(manifest_path):
        raise FormatError(f"no manifest.txt under {in_dir}")
    images, manifest = [], []
    with open(manifest_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(f"bad manifest line {line!r}")
            idx, g1, g2, g3 = (int(x) for x in parts)
            images.append(read_ppm(os.path.join(in_dir, f"img_{idx}.ppm")))
            manifest.append(BandTriplet(g1, g2, g3))
    if not images:
        raise FormatError(f"empty manifest under {in_dir}")
    # a stretched image is all zeros exactly when its histogram was flat: any
    # other image maps its 98th percentile to 255
    return TriSpectralSet(images, manifest, [not img.any() for img in images])
