"""Dense helper checks against explicit Python-loop oracles."""

import math

import numpy as np
import pytest

from ska import linalg


def loop_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal((5, 4))
    np.testing.assert_allclose(linalg.matmul(a, b), loop_matmul(a, b), rtol=1e-13)


def test_matmul_identity_and_shape_error():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 6))
    np.testing.assert_array_equal(linalg.matmul(a, np.eye(6)), a)
    with pytest.raises(linalg.ShapeMismatchError,
                       match=r"^matmul: incompatible shapes \(3, 6\) x \(5, 2\)$"):
        linalg.matmul(a, rng.standard_normal((5, 2)))


def test_outer_mean_matches_per_sample_loop():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((9, 4))
    b = rng.standard_normal((9, 6))
    acc = np.zeros((4, 6))
    for i in range(9):
        acc += np.outer(a[i], b[i])
    np.testing.assert_allclose(linalg.outer_mean(a, b), acc / 9, rtol=1e-13)


def test_outer_mean_rejects_batch_mismatch_and_empty():
    with pytest.raises(linalg.ShapeMismatchError,
                       match=r"^outer_mean: incompatible shapes \(3, 2\) x \(4, 2\)$"):
        linalg.outer_mean(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="empty batch"):
        linalg.outer_mean(np.ones((0, 2)), np.ones((0, 2)))


def test_frobenius_norm_loop_oracle():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((5, 8))
    expect = math.sqrt(sum(float(v) ** 2 for v in m.ravel()))
    assert abs(linalg.frobenius_norm(m) - expect) < 1e-12
    assert linalg.frobenius_norm(np.zeros((3, 3))) == 0.0


def test_cosine_flat_known_values():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert linalg.cosine_flat(a, a) == 1.0
    assert linalg.cosine_flat(a, -a) == -1.0
    assert linalg.cosine_flat(a, b) == 0.0
    # 3-4-5 triangle: cos = 3/5
    c = np.array([[3.0, 4.0]])
    d = np.array([[1.0, 0.0]])
    assert abs(linalg.cosine_flat(c, d) - 0.6) < 1e-15


def test_cosine_flat_loop_oracle_and_clamp():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    num = sum(float(x) * float(y) for x, y in zip(a.ravel(), b.ravel()))
    den = math.sqrt(sum(float(x) ** 2 for x in a.ravel()))
    den *= math.sqrt(sum(float(y) ** 2 for y in b.ravel()))
    assert abs(linalg.cosine_flat(a, b) - num / den) < 1e-12
    # a norm the caller already holds gives the same bits
    assert linalg.cosine_flat(a, b, norm_a=linalg.frobenius_norm(a)) == linalg.cosine_flat(a, b)
    # parallel vectors must clamp, never exceed 1
    v = rng.standard_normal((1, 64))
    assert linalg.cosine_flat(v, 3.0 * v) == 1.0


def test_cosine_flat_nan_is_not_clamped():
    # min(1, max(-1, nan)) is -1, a valid-looking cosine; NaN must stay NaN
    assert math.isnan(linalg.cosine_flat(np.array([[np.nan, 1.0]]), np.array([[1.0, 1.0]])))


def test_cosine_flat_errors():
    # a zero-norm operand leaves the cosine undefined: NaN, not an error
    assert math.isnan(linalg.cosine_flat(np.zeros((2, 2)), np.ones((2, 2))))
    assert math.isnan(linalg.cosine_flat(np.ones((2, 2)), np.zeros((2, 2))))
    assert math.isnan(linalg.cosine_flat(np.ones((2, 2)), np.zeros((2, 2)), norm_a=2.0))
    with pytest.raises(linalg.ShapeMismatchError,
                       match=r"^cosine_flat: incompatible shapes \(2, 2\) x \(2, 3\)$"):
        linalg.cosine_flat(np.ones((2, 2)), np.ones((2, 3)))


def test_reductions_read_their_operands_in_c_order():
    """The norm, inner and the cosine (with and without norm_a) give the same
    bits on F-ordered and transposed operands as on C-contiguous copies: a
    reduction is the dot product of the operands flattened in C order,
    whatever their memory layout."""
    rng = np.random.default_rng(16)

    def reductions(a, b):
        return [linalg.frobenius_norm(a), linalg.frobenius_norm(b), linalg.inner(a, b),
                linalg.cosine_flat(a, b),
                linalg.cosine_flat(a, b, norm_a=linalg.frobenius_norm(a))]

    differ = total = 0
    for _ in range(50):
        a, b = rng.standard_normal((2, 37, 53))
        for x, y in ((np.asfortranarray(a), np.asfortranarray(b)), (a.T, b.T)):
            assert not (x.flags.c_contiguous or y.flags.c_contiguous)
            got = [float(v).hex() for v in reductions(x, y)]
            want = [float(v).hex() for v in reductions(np.ascontiguousarray(x),
                                                       np.ascontiguousarray(y))]
            differ += sum(g != w for g, w in zip(got, want))
            total += len(got)
    assert differ == 0, f"{differ} of {total} reductions depend on the layout"


def test_blas_threads_lowers_and_restores(two_blas_threads):
    with linalg.blas_threads(1) as threads:
        assert threads == 1 == two_blas_threads()
    assert two_blas_threads() == 2
    with pytest.raises(RuntimeError):
        with linalg.blas_threads(1):
            raise RuntimeError("stop")
    assert two_blas_threads() == 2


def test_blas_threads_never_raises_the_count(two_blas_threads):
    for limit in (None, 2, 8):
        with linalg.blas_threads(limit) as threads:
            assert threads == 2 == two_blas_threads()
    assert two_blas_threads() == 2
