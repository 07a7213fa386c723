"""On-disk artifact formats, and the one place that writes files.

Four tiny magic-tagged little-endian binary layouts plus binary PPM:

  HSC1  hyperspectral cube   header (H, W, L, dtype_code) u32, then L planes
        of H rows of W float32 values (band-sequential, wavelength ascending)
  LBL1  label map            header (H, W) u32, then H*W uint16 (0 = unlabeled)
  PRB1  probability map      header (C, H, W) u32, then C planes of float32
  CKPT  named float32 arrays count u32, then per entry: name length u32, UTF-8
        name, rank u32, rank extents u32, float32 values
  P6    portable pixmap      text header, maxval 255, interleaved RGB bytes

Every format round-trips bit-exactly. Class maps are stored as LBL1 and can
additionally be rendered through a fixed golden-angle palette for inspection.
Every artifact, text ones included, is written through ``write_atomic``.
"""

from __future__ import annotations

import colorsys
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, FormatError, SizeError

CUBE_MAGIC = b"HSC1"
LABEL_MAGIC = b"LBL1"
PROB_MAGIC = b"PRB1"
CKPT_MAGIC = b"CKPT"


# -- domain types ------------------------------------------------------------


@dataclass(frozen=True)
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
        object.__setattr__(self, "values", v)

    @property
    def bands(self):
        return self.values.shape[0]

    @property
    def height(self):
        return self.values.shape[1]

    @property
    def width(self):
        return self.values.shape[2]


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel class ids; 0 means unlabeled."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise DataError(f"label map must be 2-D, got {lab.shape}")
        if lab.min(initial=0) < 0 or lab.max(initial=0) > 0xFFFF:
            raise DataError("labels must fit in uint16")
        object.__setattr__(self, "labels", lab.astype(np.uint16))

    @property
    def num_classes(self):
        return int(self.labels.max(initial=0))

    @property
    def labeled_count(self):
        return int(np.count_nonzero(self.labels))


@dataclass(frozen=True)
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
        object.__setattr__(self, "labels", lab.astype(np.uint16))


@dataclass(frozen=True)
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
        object.__setattr__(self, "values", v)


# -- writing and framed reading -----------------------------------------------


def write_atomic(path, data):
    """Write bytes or text to ``<path>.tmp`` beside ``path``, then rename it
    into place, so that an interrupted run never leaves a partial file."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _framed(magic, header, payload):
    """Magic, u32 header fields, then the array's bytes as stored."""
    return magic + struct.pack(f"<{len(header)}I", *header) + payload.tobytes()


def _read_framed(path, magic, what, fields, payload_size=None):
    """Read a file of ``magic``, ``fields`` u32 header values and a payload.

    ``payload_size(*header)`` gives the byte count the header implies (and may
    reject the header); the payload must fill the rest of the file exactly.
    Without it the payload is simply the rest of the file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise FormatError(f"bad {what} magic {blob[:4]!r}")
    start = 4 + 4 * fields
    if len(blob) < start:
        raise SizeError(f"{what} header truncated")
    header = struct.unpack(f"<{fields}I", blob[4:start])
    if payload_size is not None:
        expected = payload_size(*header)
        if len(blob) - start != expected:
            raise SizeError(f"{what} payload is {len(blob) - start} bytes, expected {expected}")
    return header, memoryview(blob)[start:]


# -- cube I/O -----------------------------------------------------------------


def save_cube(cube: HsiCube, path):
    v = np.asarray(cube.values, dtype="<f4")
    if v.ndim != 3 or v.shape[0] < 3:
        raise DataError(f"refusing to write invalid cube of shape {v.shape}")
    write_atomic(path, _framed(CUBE_MAGIC, (v.shape[1], v.shape[2], v.shape[0], 0), v))


def _cube_payload_size(h, w, bands, code):
    if code != 0:
        raise FormatError(f"unsupported cube dtype code {code}")
    if bands < 3 or h < 1 or w < 1:
        raise FormatError(f"cube header declares invalid extents {(h, w, bands)}")
    return 4 * h * w * bands


def load_cube(path) -> HsiCube:
    (h, w, bands, _), payload = _read_framed(path, CUBE_MAGIC, "cube", 4, _cube_payload_size)
    return HsiCube(np.frombuffer(payload, dtype="<f4").reshape(bands, h, w).copy())


# -- label map I/O ----------------------------------------------------------------


def save_labels(labels: LabelMap, path):
    write_atomic(path, _framed(LABEL_MAGIC, labels.labels.shape,
                               labels.labels.astype("<u2", copy=False)))


def load_labels(path) -> LabelMap:
    (h, w), payload = _read_framed(path, LABEL_MAGIC, "label", 2, lambda h, w: 2 * h * w)
    return LabelMap(np.frombuffer(payload, dtype="<u2").reshape(h, w).copy())


def save_class_map(cm: ClassMap, path):
    save_labels(LabelMap(cm.labels), path)


def load_class_map(path) -> ClassMap:
    lm = load_labels(path)
    if np.any(lm.labels == 0):
        raise DataError("class map file contains unlabeled pixels")
    return ClassMap(lm.labels)


# -- probability map I/O -------------------------------------------------------------


def save_probmap(p: ProbMap, path):
    write_atomic(path, _framed(PROB_MAGIC, p.values.shape, p.values.astype("<f4", copy=False)))


def load_probmap(path) -> ProbMap:
    (c, h, w), payload = _read_framed(path, PROB_MAGIC, "probability", 3,
                                      lambda c, h, w: 4 * c * h * w)
    return ProbMap(np.frombuffer(payload, dtype="<f4").reshape(c, h, w).copy())


# -- portable pixmap ---------------------------------------------------------------------


def write_ppm(image, path):
    """Binary P6 write of a channel-first (3, H, W) uint8 image; channel 0 is red."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ContractError(f"write_ppm needs a (3, H, W) image, got {img.shape}")
    if img.dtype != np.uint8:
        raise ContractError(f"write_ppm needs uint8 samples, got {img.dtype}")
    _, h, w = img.shape
    write_atomic(path, b"P6\n%d %d\n255\n" % (w, h)
                 + np.ascontiguousarray(np.moveaxis(img, 0, -1)).tobytes())


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


# -- checkpoint I/O ---------------------------------------------------------------------------


def save_checkpoint(named_arrays, path):
    """Write (name, array) pairs: magic, count, then per entry the name length,
    name bytes, rank, extents and float32 payload, all little-endian. A name
    given twice is rejected before anything is written."""
    items = list(named_arrays)
    parts = [CKPT_MAGIC, struct.pack("<I", len(items))]
    seen = set()
    for name, arr in items:
        if name in seen:
            raise FormatError(f"checkpoint would hold parameter {name!r} twice")
        seen.add(name)
        nb = name.encode("utf-8")
        a = np.asarray(arr, dtype="<f4")
        parts += [struct.pack("<I", len(nb)), nb,
                  struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape), a.tobytes()]
    write_atomic(path, b"".join(parts))


def load_checkpoint(path):
    """Read a checkpoint back into an ordered dict of name -> float32 array."""
    _, blob = _read_framed(path, CKPT_MAGIC, "checkpoint", 0)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise SizeError("truncated checkpoint")
        pos += n
        return blob[pos - n:pos]

    def u32s(k):
        return struct.unpack(f"<{k}I", take(4 * k))

    (count,) = u32s(1)
    out = {}
    for _ in range(count):
        (nlen,) = u32s(1)
        name = bytes(take(nlen)).decode("utf-8")
        if name in out:
            raise FormatError(f"checkpoint holds parameter {name!r} twice")
        (rank,) = u32s(1)
        shape = u32s(rank)
        out[name] = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape).copy()
    if pos != len(blob):
        raise SizeError("trailing bytes after checkpoint payload")
    return out
