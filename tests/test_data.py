"""IDX parsing, synthetic datasets and the design matrix a step forwards.

Header layouts are built by hand with struct.pack so the parser is checked
against the byte format itself, not against the writer.
"""

import gzip
import struct

import numpy as np
import pytest

from ska import data


def images_bytes(n, rows, cols, payload=None):
    if payload is None:
        payload = bytes((i * 7) % 256 for i in range(n * rows * cols))
    return struct.pack(">IIII", 2051, n, rows, cols) + payload


# ------------------------------------------------------------------ load ---


def test_load_images_hand_built_header(tmp_path):
    raw = struct.pack(">IIII", 2051, 1, 2, 2) + bytes([0, 255, 0, 255])
    p = tmp_path / "img.idx"
    p.write_bytes(raw)
    out = data.load_idx_images(p)
    np.testing.assert_array_equal(out, [[0.0, 1.0, 0.0, 1.0]])


def test_gzip_transparent(tmp_path):
    p = tmp_path / "img.idx.gz"
    with gzip.open(p, "wb") as fh:
        fh.write(images_bytes(2, 3, 3))
    out = data.load_idx_images(p)
    assert out.shape == (2, 9)


def test_bad_magic(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(struct.pack(">IIII", 2052, 1, 2, 2) + bytes(4))
    with pytest.raises(data.BadMagicError):
        data.load_idx_images(p)
    # the IDX label magic is not an image file's either
    p.write_bytes(struct.pack(">IIII", 2049, 1, 2, 2) + bytes(4))
    with pytest.raises(data.BadMagicError):
        data.load_idx_images(p)


def test_truncated_header_and_payload(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(struct.pack(">II", 2051, 1))
    with pytest.raises(data.TruncatedFileError):
        data.load_idx_images(p)
    p.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes(5))
    with pytest.raises(data.TruncatedFileError):
        data.load_idx_images(p)


def test_dimension_overflow(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(struct.pack(">IIII", 2051, 2**31, 2**20, 2**20))
    with pytest.raises(data.DimensionOverflowError):
        data.load_idx_images(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(images_bytes(1, 2, 2) + b"\x00")
    with pytest.raises(data.IdxFormatError):
        data.load_idx_images(p)


# ----------------------------------------------------------------- write ---


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    pixels = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    ip = tmp_path / "img.idx"
    data.save_idx_images(ip, pixels)
    back = (data.load_idx_images(ip) * 255.0).round().astype(np.uint8)
    np.testing.assert_array_equal(back.reshape(5, 4, 3), pixels)
    # header bytes are exactly the documented big-endian words
    raw = ip.read_bytes()
    assert raw[:16] == struct.pack(">IIII", 2051, 5, 4, 3)


def test_save_validations(tmp_path):
    with pytest.raises(ValueError):
        data.save_idx_images(tmp_path / "x.idx", np.zeros((2, 2)))


# --------------------------------------------------------------- Dataset ---


def test_dataset_validation():
    ds = data.Dataset(np.array([[0.0, 1.0], [0.5, 0.25]]))
    assert ds.inputs.shape == (2, 2)
    with pytest.raises(ValueError, match="2-D"):
        data.Dataset(np.zeros(3))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        data.Dataset(np.array([[1.5, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            data.Dataset(np.array([[0.5, bad], [0.0, 1.0]]))


def test_from_idx_limit(tmp_path):
    pixels = np.arange(6 * 4, dtype=np.uint8).reshape(6, 2, 2)
    ip = tmp_path / "i.idx"
    data.save_idx_images(ip, pixels)
    ds = data.from_idx(ip, limit=4)
    assert ds.n == 4
    np.testing.assert_array_equal(ds.inputs, pixels[:4].reshape(4, 4) / 255.0)


@pytest.mark.parametrize("limit", [0, -15])
def test_from_idx_rejects_a_limit_below_one(tmp_path, limit):
    """A negative limit would slice rows off the end, zero would leave none."""
    ip = tmp_path / "i.idx"
    data.save_idx_images(ip, np.zeros((20, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="^limit must be positive$"):
        data.from_idx(ip, limit=limit)


def test_synthetic_blobs_structure():
    ds = data.synthetic_blobs(60, 5, 3, seed=9)
    assert ds.inputs.shape == (60, 5)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
    # sample i is of class i mod 3, and class means sit apart: within-class
    # spread is far below between-class
    means = np.stack([ds.inputs[c::3].mean(axis=0) for c in range(3)])
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.linalg.norm(means[a] - means[b]) > 0.3
    # deterministic in the seed
    again = data.synthetic_blobs(60, 5, 3, seed=9)
    np.testing.assert_array_equal(ds.inputs, again.inputs)
    assert not np.array_equal(ds.inputs, data.synthetic_blobs(60, 5, 3, seed=10).inputs)


def test_synthetic_blobs_rejects_impossible_spacing():
    with pytest.raises(ValueError, match="cannot place"):
        data.synthetic_blobs(10, 2, 40, seed=0, center_spacing=0.9)


def test_constant_dataset():
    ds = data.constant_dataset(3, 2, 0.75)
    np.testing.assert_array_equal(ds.inputs, np.full((3, 2), 0.75))
    with pytest.raises(ValueError):
        data.constant_dataset(0, 2)


def test_glyph_images_deterministic_and_bounded():
    px = data.glyph_images(30, seed=5)
    assert px.shape == (30, 28, 28) and px.dtype == np.uint8
    np.testing.assert_array_equal(px, data.glyph_images(30, seed=5))
    assert not np.array_equal(px, data.glyph_images(30, seed=6))
    # mostly background, some ink
    ink = float(np.mean(px > 64))
    assert 0.05 < ink < 0.4


def test_glyph_idx_files_load_through_parser(tmp_path):
    ip = tmp_path / "g.idx.gz"
    data.save_idx_images(ip, data.glyph_images(40, seed=3))
    ds = data.from_idx(ip)
    np.testing.assert_array_equal(ds.inputs, data.glyph_dataset(40, seed=3).inputs)


# ------------------------------------------------------------ take_batch ---


def test_take_batch_is_the_whole_design_matrix():
    ds = data.Dataset(np.linspace(0, 1, 12).reshape(6, 2))
    assert data.take_batch(ds) is ds.inputs
