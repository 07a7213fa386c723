"""Round-trip, layout, error-path and atomic-write tests for the artifact formats."""

import os
import struct

import numpy as np
import pytest

from hsiseg.config import dump_config
from hsiseg.errors import DataError, FormatError, SizeError
from hsiseg.formats import (
    CLASS_PALETTE,
    ClassMap,
    HsiCube,
    LabelMap,
    ProbMap,
    labels_to_image,
    load_checkpoint,
    load_class_map,
    load_cube,
    load_labels,
    load_probmap,
    read_ppm,
    save_checkpoint,
    save_class_map,
    save_cube,
    save_labels,
    save_probmap,
    write_atomic,
    write_ppm,
)


class TestCube:
    def test_identity_decode(self, tmp_path):
        """A 2x2x3 file with values 0..11 decodes plane-by-plane."""
        cube = HsiCube(np.arange(12, dtype=np.float32).reshape(3, 2, 2))
        path = tmp_path / "c.hsc"
        save_cube(cube, path)
        loaded = load_cube(path)
        np.testing.assert_array_equal(loaded.values[0], [[0, 1], [2, 3]])
        np.testing.assert_array_equal(loaded.values[2], [[8, 9], [10, 11]])

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        cube = HsiCube(rng.standard_normal((5, 4, 3)).astype(np.float32))
        path = tmp_path / "c.hsc"
        save_cube(cube, path)
        assert load_cube(path).values.tobytes() == cube.values.tobytes()

    def test_byte_counts(self, tmp_path):
        """1x1x3 cube: 20-byte header plus 12-byte payload."""
        path = tmp_path / "c.hsc"
        save_cube(HsiCube(np.zeros((3, 1, 1), np.float32)), path)
        assert path.stat().st_size == 20 + 12

    def test_survey_scale_header_accepted(self, tmp_path):
        """A 550x400 cube with 270 bands loads (header check only, tiny payload)."""
        # full size would be 237 MB; emulate by checking header parsing on a
        # smaller cube with the same code path plus an explicit header decode
        import struct

        h, w, bands = 550, 400, 270
        header = b"HSC1" + struct.pack("<4I", h, w, bands, 0)
        assert struct.unpack("<4I", header[4:20]) == (h, w, bands, 0)
        # end-to-end on a reduced-but-valid cube
        cube = HsiCube(np.ones((270, 5, 4), np.float32))
        path = tmp_path / "c.hsc"
        save_cube(cube, path)
        assert load_cube(path).bands == 270

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.hsc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_cube(path)

    def test_truncated_payload(self, tmp_path):
        cube = HsiCube(np.zeros((3, 2, 2), np.float32))
        path = tmp_path / "c.hsc"
        save_cube(cube, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(SizeError):
            load_cube(path)

    def test_non_finite_rejected(self, tmp_path):
        cube = HsiCube(np.zeros((3, 2, 2), np.float32))
        path = tmp_path / "c.hsc"
        save_cube(cube, path)
        blob = bytearray(path.read_bytes())
        blob[20:24] = np.array([np.nan], "<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_cube(path)

    def test_zero_band_cube_rejected(self):
        with pytest.raises(DataError):
            HsiCube(np.zeros((0, 2, 2), np.float32))

    def test_band_sequential_layout(self, tmp_path):
        """values[k] equals the k-th contiguous plane of the file."""
        cube = HsiCube(np.arange(24, dtype=np.float32).reshape(4, 3, 2))
        path = tmp_path / "c.hsc"
        save_cube(cube, path)
        blob = path.read_bytes()
        for k in range(4):
            start = 20 + k * 6 * 4
            plane = np.frombuffer(blob[start:start + 24], "<f4").reshape(3, 2)
            np.testing.assert_array_equal(plane, load_cube(path).values[k])


class TestLabels:
    def test_all_zero_is_valid(self, tmp_path):
        path = tmp_path / "l.lbl"
        save_labels(LabelMap(np.zeros((3, 3), np.uint16)), path)
        loaded = load_labels(path)
        assert loaded.labeled_count == 0

    def test_direct_decode(self, tmp_path):
        """Payload [0,1,2,1] on 2x2 decodes to two classes present."""
        path = tmp_path / "l.lbl"
        save_labels(LabelMap(np.array([[0, 1], [2, 1]], np.uint16)), path)
        loaded = load_labels(path)
        assert loaded.num_classes == 2
        assert sorted(np.unique(loaded.labels[loaded.labels > 0])) == [1, 2]

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "l.lbl"
        save_labels(LabelMap(np.zeros((2, 2), np.uint16)), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(SizeError):
            load_labels(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "l.lbl"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_labels(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        lm = LabelMap(rng.integers(0, 9, (6, 5)).astype(np.uint16))
        path = tmp_path / "l.lbl"
        save_labels(lm, path)
        np.testing.assert_array_equal(load_labels(path).labels, lm.labels)


class TestClassMap:
    def test_rejects_unlabeled(self):
        with pytest.raises(DataError):
            ClassMap(np.array([[0, 1], [1, 1]]))

    def test_stored_as_label_file(self, tmp_path):
        cm = ClassMap(np.array([[1, 2], [3, 1]]))
        path = tmp_path / "c.lbl"
        save_class_map(cm, path)
        assert path.read_bytes()[:4] == b"LBL1"
        np.testing.assert_array_equal(load_class_map(path).labels, cm.labels)

    def test_load_rejects_zero(self, tmp_path):
        save_labels(LabelMap(np.array([[0, 1], [1, 1]], np.uint16)), tmp_path / "c.lbl")
        with pytest.raises(DataError):
            load_class_map(tmp_path / "c.lbl")


class TestProbMap:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        p = ProbMap(rng.random((4, 3, 2)).astype(np.float32))
        path = tmp_path / "p.prb"
        save_probmap(p, path)
        assert load_probmap(path).values.tobytes() == p.values.tobytes()

    def test_byte_count(self, tmp_path):
        """2-class 1x1 map: 8-byte payload after the 16-byte header."""
        path = tmp_path / "p.prb"
        save_probmap(ProbMap(np.array([[[0.25]], [[0.75]]], np.float32)), path)
        assert path.stat().st_size == 16 + 8

    def test_negative_rejected_on_load(self, tmp_path):
        path = tmp_path / "p.prb"
        save_probmap(ProbMap(np.ones((2, 1, 1), np.float32)), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = np.array([-0.5], "<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_probmap(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "p.prb"
        save_probmap(ProbMap(np.ones((2, 2, 2), np.float32)), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(SizeError):
            load_probmap(path)


class TestPpm:
    def test_single_pixel_body(self, tmp_path):
        path = tmp_path / "x.ppm"
        write_ppm(np.array([[[255]], [[0]], [[0]]], np.uint8), path)
        assert path.read_bytes().endswith(b"\xff\x00\x00")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (3, 4, 7)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(img, path)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_payload_length(self, tmp_path):
        """2 rows x 3 cols: payload is 18 bytes."""
        path = tmp_path / "x.ppm"
        write_ppm(np.zeros((3, 2, 3), np.uint8), path)
        blob = path.read_bytes()
        header = b"P6\n3 2\n255\n"
        assert blob.startswith(header)
        assert len(blob) - len(header) == 18

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_ppm(path)

    @pytest.mark.parametrize("header,payload", [(b"P6\n0 5\n255\n", b""),
                                                (b"P6\n4 0\n255\n", b""),
                                                (b"P6\n-1 -1\n255\n", bytes(3))])
    def test_non_positive_size_rejected(self, tmp_path, header, payload):
        path = tmp_path / "x.ppm"
        path.write_bytes(header + payload)
        with pytest.raises(FormatError, match="not positive"):
            read_ppm(path)

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(6))
        assert read_ppm(path).shape == (3, 1, 2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        named = [("a.weight", rng.standard_normal((3, 2)).astype(np.float32)),
                 ("b.bias", rng.standard_normal(4).astype(np.float32))]
        path = tmp_path / "m.ckpt"
        save_checkpoint(named, path)
        loaded = load_checkpoint(path)
        assert list(loaded) == ["a.weight", "b.bias"]
        for name, arr in named:
            np.testing.assert_array_equal(loaded[name], arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE....")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint([("w", np.ones(5, np.float32))], path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(SizeError):
            load_checkpoint(path)

    def test_byte_layout(self, tmp_path):
        """Rank-0, rank-1 and rank-2 entries against a hand-packed layout."""
        path = tmp_path / "m.ckpt"
        save_checkpoint([("s", np.float32(1.5)),
                         ("bias", np.array([1, 2, 3], np.float64)),
                         ("w", np.arange(6, dtype=np.float32).reshape(2, 3))], path)
        expected = (b"CKPT" + struct.pack("<I", 3)
                    + struct.pack("<I", 1) + b"s" + struct.pack("<I", 0)
                    + struct.pack("<f", 1.5)
                    + struct.pack("<I", 4) + b"bias" + struct.pack("<II", 1, 3)
                    + struct.pack("<3f", 1, 2, 3)
                    + struct.pack("<I", 1) + b"w" + struct.pack("<III", 2, 2, 3)
                    + struct.pack("<6f", 0, 1, 2, 3, 4, 5))
        assert path.read_bytes() == expected
        loaded = load_checkpoint(path)
        assert [a.shape for a in loaded.values()] == [(), (3,), (2, 3)]

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint([("w", np.ones(2, np.float32))], path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SizeError, match="trailing"):
            load_checkpoint(path)

    def test_duplicate_name_rejected(self, tmp_path):
        """A second entry under one name would silently replace the first."""
        path = tmp_path / "m.ckpt"

        def entry(name, values):
            return (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, len(values))
                    + struct.pack(f"<{len(values)}f", *values))

        path.write_bytes(b"CKPT" + struct.pack("<I", 3) + entry(b"w", [1, 1])
                         + entry(b"b", [0]) + entry(b"w", [0, 0]))
        with pytest.raises(FormatError, match="'w' twice"):
            load_checkpoint(path)

    def test_duplicate_name_not_written(self, tmp_path):
        """The writer refuses what the reader would reject, and writes nothing."""
        path = tmp_path / "m.ckpt"
        with pytest.raises(FormatError, match="'w' twice"):
            save_checkpoint([("w", np.ones(2, np.float32)), ("b", np.zeros(1, np.float32)),
                             ("w", np.zeros(2, np.float32))], path)
        assert os.listdir(tmp_path) == []


WRITERS = {
    "cube": lambda path, v: save_cube(HsiCube(np.full((3, 2, 2), v, np.float32)), path),
    "labels": lambda path, v: save_labels(LabelMap(np.full((2, 3), v, np.uint16)), path),
    "probmap": lambda path, v: save_probmap(ProbMap(np.full((2, 2, 2), v, np.float32)), path),
    "ppm": lambda path, v: write_ppm(np.full((3, 2, 2), v, np.uint8), path),
    "checkpoint": lambda path, v: save_checkpoint([("w", np.full(3, v, np.float32))], path),
    "config": lambda path, v: dump_config({"dcm.Z": str(v)}, path),
    "text": lambda path, v: write_atomic(path, f"report {v}\n"),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, kind):
    """A write whose rename fails leaves the previous file byte-identical
    and no temp file behind."""
    path = tmp_path / "artifact"
    WRITERS[kind](path, 1)
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[kind](path, 2)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


class TestPalette:
    def test_fixed_and_deterministic(self):
        assert CLASS_PALETTE.shape == (23, 3)
        assert tuple(CLASS_PALETTE[0]) == (0, 0, 0)
        # 22 distinct colors, none black
        colors = {tuple(row) for row in CLASS_PALETTE[1:]}
        assert len(colors) == 22
        assert (0, 0, 0) not in colors

    def test_rendering_is_pure(self):
        labels = np.array([[0, 1], [5, 22]])
        a = labels_to_image(labels)
        b = labels_to_image(labels.copy())
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 2, 2)
        np.testing.assert_array_equal(a[:, 0, 0], (0, 0, 0))

    def test_same_map_identical_bytes(self, tmp_path):
        cm = ClassMap(np.array([[1, 2], [3, 4]]))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        from hsiseg.formats import write_class_ppm

        write_class_ppm(cm, p1)
        write_class_ppm(cm, p2)
        assert p1.read_bytes() == p2.read_bytes()
