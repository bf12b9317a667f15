"""Input pipeline: IDX image files, synthetic blobs and glyphs.

The dynamics read a design matrix and nothing else, so a dataset carries no
labels, and every step forwards the whole matrix. An IDX image file is a
big-endian u32 header, the magic 2051 and the sizes n, rows and cols, then
a flat unsigned-byte payload. Pixel bytes are scaled by 1/255 on load so
every model input lives in [0, 1]. Files ending in .gz are transparently
decompressed.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 2051
_HEADER = struct.Struct(">4I")

# Refuse to believe a header that declares more than this many payload bytes.
# Catches corrupt dimension words before any allocation is attempted.
_MAX_PAYLOAD = 1 << 36


class IdxFormatError(ValueError):
    """An IDX file that is not a well-formed image file, or a damaged gzip stream."""


def _open(path, mode: str):
    """path opened in binary mode, through gzip when it ends in .gz."""
    return (gzip.open if str(path).endswith(".gz") else open)(path, mode)


def save_idx_images(path, pixels: np.ndarray) -> None:
    """Write an (n, rows, cols) uint8 array as an IDX image file."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3:
        raise ValueError(f"expected (n, rows, cols), got shape {pixels.shape}")
    with _open(path, "wb") as fh:
        fh.write(_HEADER.pack(IMAGE_MAGIC, *pixels.shape))
        fh.write(pixels.tobytes())


@dataclass
class Dataset:
    """A fixed design matrix with entries in [0, 1]."""

    inputs: np.ndarray

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        # min and max propagate NaN, so the negated test rejects NaN as well
        # as every value outside [0, 1], infinities included.
        if self.inputs.size and not (self.inputs.min() >= 0.0 and self.inputs.max() <= 1.0):
            raise ValueError("input entries must be finite and lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def from_idx(images, limit: int | None = None) -> Dataset:
    """The IDX image file at path images, or its first limit rows, scaled into
    [0, 1]. The whole file is validated whatever the limit; only kept rows are converted."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    try:
        with _open(images, "rb") as fh:
            raw = fh.read()
    except EOFError as exc:
        raise IdxFormatError(f"{images}: compressed stream ends early") from exc
    except (zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{images}: damaged compressed stream: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise IdxFormatError(f"{images}: file shorter than {_HEADER.size}-byte header")
    magic, n, rows, cols = _HEADER.unpack_from(raw)
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(f"{images}: magic {magic}, expected {IMAGE_MAGIC}")
    count = n * rows * cols
    if count > _MAX_PAYLOAD:
        raise IdxFormatError(f"{images}: declared sizes {(n, rows, cols)} overflow")
    payload = len(raw) - _HEADER.size
    if payload < count:
        raise IdxFormatError(
            f"{images}: payload has {payload} bytes, header declares {count}"
        )
    if payload > count:
        raise IdxFormatError(f"{images}: {payload - count} trailing bytes after payload")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size).reshape(n, rows * cols)
    return Dataset(pixels[:limit] / 255.0)


def synthetic_blobs(
    n: int,
    dim: int,
    classes: int,
    seed: int,
    center_spacing: float = 0.45,
    std: float = 0.08,
) -> Dataset:
    """Class-conditional Gaussian blobs clipped to the unit box.

    Class centers are drawn inside [0.25, 0.75]^dim and redrawn until every
    pair is at least center_spacing apart, so the class structure survives
    the clip. Sample i belongs to class i mod classes. Fully determined by
    the seed.
    """
    if n < 1 or dim < 1 or classes < 1:
        raise ValueError("n, dim and classes must be positive")
    rng = np.random.default_rng(seed)
    centers = np.empty((classes, dim))
    placed = 0
    attempts = 0
    while placed < classes:
        cand = rng.uniform(0.25, 0.75, size=dim)
        ok = all(np.linalg.norm(cand - centers[j]) >= center_spacing for j in range(placed))
        if ok:
            centers[placed] = cand
            placed += 1
        attempts += 1
        if attempts > 10000:
            raise ValueError(
                f"cannot place {classes} centers {center_spacing} apart in {dim} dims"
            )
    inputs = centers[np.arange(n) % classes] + std * rng.standard_normal((n, dim))
    np.clip(inputs, 0.0, 1.0, out=inputs)
    return Dataset(inputs)


def constant_dataset(n: int, dim: int, value: float = 1.0) -> Dataset:
    """Every sample is the same constant vector. Useful for scalar-unit runs."""
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be positive")
    return Dataset(np.full((n, dim), float(value)))


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


# Samples whose arrays are rendered together; the loop between renders only
# draws from the generator.
_GLYPH_CHUNK = 256


def glyph_images(n: int, seed: int) -> np.ndarray:
    """Render n deterministic 28x28 digit images.

    Sample i draws the stencil for digit i mod 10, upscaled 3x to 21x15,
    placed on a 28x28 canvas with a per-sample integer jitter, a per-sample
    stroke intensity, and mild additive pixel noise. Everything comes from
    one seeded generator, so the byte content is a pure function of (n,
    seed). Returns an (n, 28, 28) uint8 array.

    Each sample draws, in this order, dy = integers(-2, 3), dx =
    integers(-3, 4), u = random() and 784 standard normals z; its pixels are
    (6 z + 0) + stencil * (150 + 105 u), clipped to [0, 255] and truncated.
    Those are numpy's normal(0, 6) and uniform(150, 255) draws, and adding
    the stencil after the noise gives the same sums, so rendering a chunk of
    samples at once keeps the bytes of rendering them one by one.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    stencils = np.kron(
        np.array([[[c == "#" for c in row] for row in g] for g in _GLYPHS], dtype=np.float64),
        np.ones((1, 3, 3)),
    )
    pixels = np.empty((n, 28, 28), dtype=np.uint8)
    noise = np.empty((_GLYPH_CHUNK, 28, 28))
    for start in range(0, n, _GLYPH_CHUNK):
        m = min(_GLYPH_CHUNK, n - start)
        draws = []
        for j in range(m):
            draws.append((rng.integers(-2, 3), rng.integers(-3, 4), rng.random()))
            rng.standard_normal(out=noise[j])
        dy, dx, u = np.array(draws).T
        canvas = noise[:m]
        canvas *= 6.0
        canvas += 0.0
        ink = 150.0 + 105.0 * u
        # the jitter as one of 35 codes; np.unique would cost 6 ms on first use
        shift = (dy + 2) * 7 + (dx + 3)
        for code in range(35):
            idx = np.flatnonzero(shift == code)
            y, x = divmod(code, 7)
            canvas[idx, 1 + y : 22 + y, 3 + x : 18 + x] += (
                stencils[(start + idx) % 10] * ink[idx, None, None]
            )
        np.clip(canvas, 0.0, 255.0, out=canvas)
        np.copyto(pixels[start : start + m], canvas, casting="unsafe")
    return pixels


def glyph_dataset(n: int, seed: int) -> Dataset:
    return Dataset(glyph_images(n, seed).reshape(n, -1) / 255.0)


def take_batch(ds: Dataset) -> np.ndarray:
    """The design matrix a step forwards: all of ds, at every step.

    A fixed matrix keeps the weight dynamics autonomous, so runs at
    different step sizes discretize one flow. The function stays because
    the benchmark tracer wraps it and pins its calls, one probe plus one
    per step of every run.
    """
    return ds.inputs
