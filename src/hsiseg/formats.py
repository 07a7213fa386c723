"""On-disk artifact formats.

Four tiny magic-tagged little-endian binary layouts plus binary PPM:

  HSC1  hyperspectral cube   header (H, W, L, dtype_code) u32, then L planes
        of H rows of W float32 values (band-sequential, wavelength ascending)
  LBL1  label map            header (H, W) u32, then H*W uint16 (0 = unlabeled)
  PRB1  probability map      header (C, H, W) u32, then C planes of float32
  P6    portable pixmap      text header, maxval 255, interleaved RGB bytes

Every format round-trips bit-exactly. Class maps are stored as LBL1 and can
additionally be rendered through a fixed golden-angle palette for inspection.
"""

from __future__ import annotations

import colorsys
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, FormatError, SizeError

CUBE_MAGIC = b"HSC1"
LABEL_MAGIC = b"LBL1"
PROB_MAGIC = b"PRB1"


# -- domain types ------------------------------------------------------------


@dataclass
class HsiCube:
    """Radiance cube stored band-sequentially: values[k] is band k's H x W plane."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise DataError(f"cube must be (bands, height, width), got {v.shape}")
        bands, h, w = v.shape
        if bands < 3 or h < 1 or w < 1:
            raise DataError(f"cube needs bands >= 3 and positive extents, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("cube contains non-finite values")
        self.values = v

    @property
    def bands(self):
        return self.values.shape[0]

    @property
    def height(self):
        return self.values.shape[1]

    @property
    def width(self):
        return self.values.shape[2]

    def band_plane(self, k):
        return self.values[k]


@dataclass
class LabelMap:
    """Per-pixel class ids; 0 means unlabeled."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise DataError(f"label map must be 2-D, got {lab.shape}")
        if lab.min(initial=0) < 0 or lab.max(initial=0) > 0xFFFF:
            raise DataError("labels must fit in uint16")
        self.labels = lab.astype(np.uint16)

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]

    @property
    def num_classes(self):
        return int(self.labels.max(initial=0))

    @property
    def labeled_count(self):
        return int(np.count_nonzero(self.labels))


@dataclass
class ClassMap:
    """Dense prediction: every pixel carries a class id in 1..C."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise DataError(f"class map must be 2-D, got {lab.shape}")
        if lab.size and lab.min() < 1:
            raise DataError("class maps must label every pixel (ids start at 1)")
        if lab.max(initial=1) > 0xFFFF:
            raise DataError("class ids must fit in uint16")
        self.labels = lab.astype(np.uint16)

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]


@dataclass
class ProbMap:
    """Per-pixel class scores, class-major layout (C, H, W)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise DataError(f"probability map must be (classes, H, W), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("probability map contains non-finite values")
        if v.size and v.min() < 0:
            raise DataError("probability map contains negative scores")
        self.values = v

    @property
    def classes(self):
        return self.values.shape[0]

    @property
    def height(self):
        return self.values.shape[1]

    @property
    def width(self):
        return self.values.shape[2]

    def argmax_map(self):
        return ClassMap(self.values.argmax(axis=0) + 1)


# -- cube I/O -----------------------------------------------------------------


def save_cube(cube: HsiCube, path):
    v = np.asarray(cube.values, dtype="<f4")
    if v.ndim != 3 or v.shape[0] < 3:
        raise DataError(f"refusing to write invalid cube of shape {v.shape}")
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(struct.pack("<4I", v.shape[1], v.shape[2], v.shape[0], 0))
        fh.write(np.ascontiguousarray(v).tobytes())


def load_cube(path) -> HsiCube:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CUBE_MAGIC:
        raise FormatError(f"bad cube magic {blob[:4]!r}")
    if len(blob) < 20:
        raise SizeError("cube header truncated")
    h, w, bands, code = struct.unpack("<4I", blob[4:20])
    if code != 0:
        raise FormatError(f"unsupported cube dtype code {code}")
    if bands < 3 or h < 1 or w < 1:
        raise FormatError(f"cube header declares invalid extents {(h, w, bands)}")
    expected = 20 + 4 * h * w * bands
    if len(blob) != expected:
        raise SizeError(f"cube payload is {len(blob) - 20} bytes, expected {expected - 20}")
    values = np.frombuffer(blob, dtype="<f4", offset=20).reshape(bands, h, w)
    if not np.all(np.isfinite(values)):
        raise DataError("cube payload contains non-finite values")
    return HsiCube(values.copy())


# -- label map I/O ----------------------------------------------------------------


def save_labels(labels: LabelMap, path):
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC)
        fh.write(struct.pack("<2I", labels.height, labels.width))
        fh.write(np.ascontiguousarray(labels.labels, dtype="<u2").tobytes())


def load_labels(path) -> LabelMap:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != LABEL_MAGIC:
        raise FormatError(f"bad label magic {blob[:4]!r}")
    if len(blob) < 12:
        raise SizeError("label header truncated")
    h, w = struct.unpack("<2I", blob[4:12])
    expected = 12 + 2 * h * w
    if len(blob) != expected:
        raise SizeError(f"label payload is {len(blob) - 12} bytes, expected {expected - 12}")
    labels = np.frombuffer(blob, dtype="<u2", offset=12).reshape(h, w)
    return LabelMap(labels.copy())


def save_class_map(cm: ClassMap, path):
    save_labels(LabelMap(cm.labels), path)


def load_class_map(path) -> ClassMap:
    lm = load_labels(path)
    if np.any(lm.labels == 0):
        raise DataError("class map file contains unlabeled pixels")
    return ClassMap(lm.labels)


# -- probability map I/O -------------------------------------------------------------


def save_probmap(p: ProbMap, path):
    with open(path, "wb") as fh:
        fh.write(PROB_MAGIC)
        fh.write(struct.pack("<3I", p.classes, p.height, p.width))
        fh.write(np.ascontiguousarray(p.values, dtype="<f4").tobytes())


def load_probmap(path) -> ProbMap:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != PROB_MAGIC:
        raise FormatError(f"bad probability magic {blob[:4]!r}")
    if len(blob) < 16:
        raise SizeError("probability header truncated")
    c, h, w = struct.unpack("<3I", blob[4:16])
    expected = 16 + 4 * c * h * w
    if len(blob) != expected:
        raise SizeError(f"probability payload is {len(blob) - 16} bytes, expected {expected - 16}")
    values = np.frombuffer(blob, dtype="<f4", offset=16).reshape(c, h, w)
    return ProbMap(values.copy())


# -- portable pixmap ---------------------------------------------------------------------


def write_ppm(image, path):
    """Binary P6 write of a channel-first (3, H, W) uint8 image; channel 0 is red."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ContractError(f"write_ppm needs a (3, H, W) image, got {img.shape}")
    if img.dtype != np.uint8:
        raise ContractError(f"write_ppm needs uint8 samples, got {img.dtype}")
    _, h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(np.moveaxis(img, 0, -1)).tobytes())


def _ppm_tokens(blob):
    """Yield header tokens, skipping whitespace and # comments."""
    pos = 0
    while True:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated pixmap header")
        yield blob[start:pos], pos


def read_ppm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = _ppm_tokens(blob)
    try:
        magic, _ = next(tokens)
        if magic != b"P6":
            raise FormatError(f"bad pixmap magic {magic!r}")
        (wtok, _), (htok, _), (mtok, end) = next(tokens), next(tokens), next(tokens)
        w, h, maxval = int(wtok), int(htok), int(mtok)
    except (StopIteration, ValueError):
        raise FormatError("malformed pixmap header")
    if w < 1 or h < 1:
        raise FormatError(f"pixmap size {w}x{h} is not positive")
    if maxval != 255:
        raise FormatError(f"unsupported pixmap maxval {maxval}")
    payload = blob[end + 1:]
    if len(payload) != 3 * w * h:
        raise SizeError(f"pixmap payload is {len(payload)} bytes, expected {3 * w * h}")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
    return np.moveaxis(img, -1, 0).copy()


# -- class map rendering ---------------------------------------------------------------------

GOLDEN_ANGLE_DEG = 137.50776405003785
PALETTE_SIZE = 22


def _build_palette():
    rows = [(0, 0, 0)]  # index 0: unlabeled, black
    for c in range(1, PALETTE_SIZE + 1):
        hue = ((c - 1) * GOLDEN_ANGLE_DEG % 360.0) / 360.0
        rgb = colorsys.hsv_to_rgb(hue, 0.75, 0.95)
        rows.append(tuple(int(round(255 * v)) for v in rgb))
    return np.array(rows, dtype=np.uint8)


CLASS_PALETTE = _build_palette()


def labels_to_image(labels):
    """Render any (H, W) label grid through the fixed palette; 0 stays black."""
    lab = np.asarray(labels).astype(np.int64)
    idx = np.where(lab > 0, (lab - 1) % PALETTE_SIZE + 1, 0)
    return np.moveaxis(CLASS_PALETTE[idx], -1, 0)


def write_class_ppm(cm: ClassMap, path):
    write_ppm(labels_to_image(cm.labels), path)
