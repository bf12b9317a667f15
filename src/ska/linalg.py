"""Dense float64 kernels of the Euler step and the metric pass.

matmul, outer_mean, the Frobenius norm, the flattened cosine and inner, the
one reduction under the norm, the cosine, the entropy and the net: the
operations the dynamics and the metrics run on every step. blas_threads caps
the threads of numpy's OpenBLAS for the length of a run; keep_heap sets the C
allocator's policy for the process that runs the steps. matmul, outer_mean
and the cosine check their shapes and raise ShapeMismatchError instead of
letting broadcasting paper over a mistake. Matrices are 2-D float64 arrays,
row-major, one sample per row where a batch is involved. Nothing mutates its
inputs. matmul and outer_mean return a fresh array; outer_mean scales its
product in place rather than allocating a second one. inner reads its
operands in C order, copying a non-contiguous one, so a reduction's bits do
not depend on memory layout. On one element every kernel multiplies Python
floats through inner, which adds +0.0, as numpy's 1x1 product is a sum that
starts from +0.0.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math

import numpy as np

# Thread getter and setter of the OpenBLAS builds numpy ships or links, in
# the order they are looked for.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# (name, glibc mallopt parameter, value) that keep_heap sets: M_MMAP_THRESHOLD
# at its 64-bit maximum, above every block a step allocates, and
# M_TRIM_THRESHOLD far above any run's heap.
_HEAP_POLICY = (("mmap_threshold", -3, 32 << 20), ("trim_threshold", -1, 1 << 30))


class ShapeMismatchError(ValueError):
    """Two operands whose shapes cannot be combined by the requested op."""

    def __init__(self, op: str, left: tuple, right: tuple):
        super().__init__(f"{op}: incompatible shapes {left} x {right}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    if a.size == 1 == b.size:
        return np.array([[inner(a, b)]])
    return a @ b


def outer_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batch mean of per-sample outer products.

    a is (n, p), b is (n, q); the result is (p, q), the average over the n
    rows of a[i] (outer) b[i]. Equals matmul(a.T, b) scaled by 1/n.
    """
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError("outer_mean", a.shape, b.shape)
    if a.shape[0] == 0:
        raise ValueError("outer_mean: empty batch")
    if a.size == 1 == b.size:
        return np.array([[inner(a, b) / a.shape[0]]])
    out = a.T @ b
    out /= a.shape[0]
    return out


def frobenius_norm(m: np.ndarray) -> float:
    return math.sqrt(inner(m, m))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the elementwise products of two same-shape arrays: the dot
    product of the operands flattened in C order, or a.item() * b.item() + 0.0
    on one element, the sum from +0.0 that the dot product takes on longer arrays."""
    if a.size == 1:
        return a.item() * b.item() + 0.0
    return np.dot(a.ravel(), b.ravel())


def cosine_flat(a: np.ndarray, b: np.ndarray, *, norm_a: float | None = None) -> float:
    """Cosine of the angle between two same-shape arrays flattened to vectors.

    NaN when either operand has zero norm, where the cosine is undefined,
    or is not finite; a finite result is clamped to [-1, 1] so downstream
    acos never sees a rounding excursion. norm_a, when given, must be
    frobenius_norm(a), which then is not computed a second time.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError("cosine_flat", a.shape, b.shape)
    # never frobenius_norm: the traced benchmark counts its calls per step
    na = math.sqrt(inner(a, a)) if norm_a is None else norm_a
    nb = math.sqrt(inner(b, b))
    if na == 0.0 or nb == 0.0:
        return math.nan
    # one element: na, nb >= 2**-537, so na * nb > 0 and the float division cannot raise
    c = float(inner(a, b) / (na * nb))
    return c if math.isnan(c) else min(1.0, max(-1.0, c))


@functools.cache
def _openblas():
    """(get, set) thread functions of the OpenBLAS numpy is linked against,
    or None. dlsym on numpy's extension module searches its dependencies."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get, put in _OPENBLAS_SYMBOLS:
        if hasattr(lib, get) and hasattr(lib, put):
            get, put = getattr(lib, get), getattr(lib, put)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def blas_threads(limit: int | None):
    """Run the body with numpy's OpenBLAS on at most limit threads (None: the
    caller's count), restoring the caller's count on exit; yields the count
    in effect, or None, changing nothing, when no OpenBLAS is found."""
    switch = _openblas()
    before = switch[0]() if switch else None
    if before is None or limit is None or limit >= before:
        yield before
        return
    switch[1](limit)
    try:
        yield limit
    finally:
        switch[1](before)


@functools.cache
def keep_heap() -> dict | None:
    """Keep the blocks a step frees in the heap, for the next step to reuse.

    glibc's default mmap threshold is 128 KiB, the size of a 512x32 float64
    array, and its trim threshold follows it, so a freed block of that size
    goes back to the kernel whenever it lands at the top of the heap and the
    next step faults its pages in again. Sets both thresholds once for the
    process, which keeps them: only a program that owns its process should
    call this. Returns each value set (None where mallopt refused it), or
    None, changing nothing, where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return {name: value if mallopt(param, value) else None for name, param, value in _HEAP_POLICY}
