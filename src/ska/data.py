"""Input pipeline: IDX image and label files, synthetic blobs, batch selection.

IDX files are big-endian: a u32 magic (2051 for images, 2049 for labels),
u32 dimension sizes, then a flat unsigned-byte payload. Pixel bytes are
scaled by 1/255 on load so every model input lives in [0, 1]. Files ending
in .gz are transparently decompressed.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

# Refuse to believe a header that declares more than this many payload bytes.
# Catches corrupt dimension words before any allocation is attempted.
_MAX_PAYLOAD = 1 << 36


class IdxFormatError(ValueError):
    """Base for all IDX parsing failures."""


class BadMagicError(IdxFormatError):
    """Leading magic word is not the expected image/label constant."""


class TruncatedFileError(IdxFormatError):
    """File ends before the header-declared payload does."""


class DimensionOverflowError(IdxFormatError):
    """Header declares dimensions whose product is absurdly large."""


class LabelRangeError(IdxFormatError):
    """A label byte falls outside the declared class range."""


def _read_bytes(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        return fh.read()


def _parse_header(raw: bytes, expected_magic: int, n_dims: int, path) -> tuple:
    header_len = 4 * (1 + n_dims)
    if len(raw) < header_len:
        raise TruncatedFileError(f"{path}: file shorter than {header_len}-byte header")
    magic = int.from_bytes(raw[0:4], "big")
    if magic != expected_magic:
        raise BadMagicError(f"{path}: magic {magic}, expected {expected_magic}")
    dims = struct.unpack(f">{n_dims}I", raw[4:header_len])
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_PAYLOAD:
        raise DimensionOverflowError(f"{path}: declared sizes {dims} overflow")
    if len(raw) < header_len + count:
        raise TruncatedFileError(
            f"{path}: payload has {len(raw) - header_len} bytes, header declares {count}"
        )
    if len(raw) > header_len + count:
        raise IdxFormatError(
            f"{path}: {len(raw) - header_len - count} trailing bytes after payload"
        )
    return dims, raw[header_len:]


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into an (n, rows*cols) float64 array in [0, 1]."""
    raw = _read_bytes(path)
    (n, rows, cols), payload = _parse_header(raw, IMAGE_MAGIC, 3, path)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols)
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path, classes: int = 10) -> np.ndarray:
    """Read an IDX label file into an (n,) int64 array in [0, classes)."""
    raw = _read_bytes(path)
    (n,), payload = _parse_header(raw, LABEL_MAGIC, 1, path)
    labels = np.frombuffer(payload, dtype=np.uint8)
    if labels.size and int(labels.max()) >= classes:
        bad = int(labels.max())
        raise LabelRangeError(f"{path}: label {bad} out of range for {classes} classes")
    return labels.astype(np.int64)


def save_idx_images(path, pixels: np.ndarray) -> None:
    """Write an (n, rows, cols) uint8 array as an IDX image file."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3:
        raise ValueError(f"expected (n, rows, cols), got shape {pixels.shape}")
    n, rows, cols = pixels.shape
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"expected flat labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise ValueError("labels must fit in a byte")
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, labels.size))
        fh.write(labels.astype(np.uint8).tobytes())


@dataclass
class Dataset:
    """A fixed design matrix with entries in [0, 1] plus optional labels."""

    inputs: np.ndarray
    labels: np.ndarray | None = None
    source: str = "unspecified"

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        # min and max propagate NaN, so the negated test rejects NaN as well
        # as every value outside [0, 1], infinities included.
        if self.inputs.size and not (self.inputs.min() >= 0.0 and self.inputs.max() <= 1.0):
            raise ValueError("input entries must be finite and lie in [0, 1]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.inputs.shape[0],):
                raise ValueError("labels length must match the number of rows")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def from_idx(image_path, label_path=None, limit: int | None = None) -> Dataset:
    """The IDX images (and labels), or their first limit rows."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    inputs = load_idx_images(image_path)
    labels = load_idx_labels(label_path) if label_path else None
    if limit is not None:
        inputs = inputs[:limit]
        labels = labels[:limit] if labels is not None else None
    return Dataset(inputs, labels, source="mnist-file")


def synthetic_blobs(
    n: int,
    d: int,
    classes: int,
    seed: int,
    center_spacing: float = 0.45,
    std: float = 0.08,
) -> Dataset:
    """Class-conditional Gaussian blobs clipped to the unit box.

    Class centers are drawn inside [0.25, 0.75]^d and redrawn until every
    pair is at least center_spacing apart, so the class structure survives
    the clip. Sample i belongs to class i mod classes. Fully determined by
    the seed.
    """
    if n < 1 or d < 1 or classes < 1:
        raise ValueError("n, d and classes must be positive")
    rng = np.random.default_rng(seed)
    centers = np.empty((classes, d))
    placed = 0
    attempts = 0
    while placed < classes:
        cand = rng.uniform(0.25, 0.75, size=d)
        ok = all(np.linalg.norm(cand - centers[j]) >= center_spacing for j in range(placed))
        if ok:
            centers[placed] = cand
            placed += 1
        attempts += 1
        if attempts > 10000:
            raise ValueError(
                f"cannot place {classes} centers {center_spacing} apart in {d} dims"
            )
    labels = np.arange(n, dtype=np.int64) % classes
    inputs = centers[labels] + std * rng.standard_normal((n, d))
    np.clip(inputs, 0.0, 1.0, out=inputs)
    return Dataset(inputs, labels, source="synthetic")


def constant_dataset(n: int, d: int, value: float = 1.0) -> Dataset:
    """Every sample is the same constant vector. Useful for scalar-unit runs."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    return Dataset(np.full((n, d), float(value)), source="constant")


# 7x5 digit stencils. '#' is ink. Upscaled 3x and jittered at render time.
_GLYPHS = (
    (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    (".###.", "#...#", "....#", "..##.", "....#", "#...#", ".###."),
    ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    ("..##.", ".#...", "#....", "####.", "#...#", "#...#", ".###."),
    ("#####", "....#", "...#.", "...#.", "..#..", "..#..", "..#.."),
    (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    (".###.", "#...#", "#...#", ".####", "....#", "...#.", ".##.."),
)


def glyph_images(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Render n deterministic 28x28 digit images plus labels.

    Sample i draws the stencil for digit i mod 10, upscaled 3x to 21x15,
    placed on a 28x28 canvas with a per-sample integer jitter, a per-sample
    stroke intensity, and mild additive pixel noise. Everything comes from
    one seeded generator, so the byte content is a pure function of (n,
    seed). Returns ((n, 28, 28) uint8, (n,) int64).
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    masks = [
        np.kron(
            np.array([[c == "#" for c in row] for row in _GLYPHS[d]], dtype=np.float64),
            np.ones((3, 3)),
        )
        for d in range(10)
    ]
    labels = np.arange(n, dtype=np.int64) % 10
    pixels = np.zeros((n, 28, 28), dtype=np.uint8)
    for i in range(n):
        dy = int(rng.integers(-2, 3))
        dx = int(rng.integers(-3, 4))
        intensity = rng.uniform(150.0, 255.0)
        canvas = np.zeros((28, 28))
        canvas[3 + dy : 24 + dy, 6 + dx : 21 + dx] = masks[labels[i]] * intensity
        canvas += rng.normal(0.0, 6.0, (28, 28))
        pixels[i] = np.clip(canvas, 0.0, 255.0).astype(np.uint8)
    return pixels, labels


def glyph_dataset(n: int, seed: int) -> Dataset:
    pixels, labels = glyph_images(n, seed)
    return Dataset(pixels.reshape(n, -1) / 255.0, labels, source="glyphs")


def write_glyph_idx(image_path, label_path, n: int, seed: int) -> None:
    """Write a rendered glyph set as a standard IDX image/label file pair."""
    pixels, labels = glyph_images(n, seed)
    save_idx_images(image_path, pixels)
    save_idx_labels(label_path, labels)


def take_batch(ds: Dataset, size: int | None = None, mode: str = "full", k: int = 0) -> np.ndarray:
    """Select the step-k batch.

    In "full" mode the same leading block is returned at every step, which
    keeps the weight dynamics autonomous (the update rule sees a fixed
    right-hand side, so trajectories at different step sizes discretize one
    well-posed dynamical system). "cyclic" walks blocks of the given size
    through the dataset in order, wrapping at the end.
    """
    if size is None:
        size = ds.n
    if size < 1:
        raise ValueError("batch size must be positive")
    if size > ds.n:
        raise ValueError(f"batch size {size} exceeds dataset size {ds.n}")
    if mode == "full":
        return ds.inputs[:size]
    if mode == "cyclic":
        start = (k * size) % ds.n
        idx = (start + np.arange(size)) % ds.n
        return ds.inputs[idx]
    raise ValueError(f"unknown batch mode {mode!r}")
