"""Tests for the numerical kernels, and for the oracles' extended Gauss rule and solve."""

import ctypes
import itertools
import math
import os
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdpg import numkit
from helmdpg.errors import DimensionMismatch, NotHermitian, NotPositiveDefinite
from helmdpg.numkit import Precision

from oracles import gauss_legendre_1d, hermitian_solve, min_eigenvalue_bound

EXT30 = Precision.extended(30)


# ---------------------------------------------------------------------- quadrature


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_gauss_legendre_basic_properties(n):
    x, w = numkit.gauss_legendre_1d(n)
    assert len(x) == n and len(w) == n
    assert abs(w.sum() - 1.0) < 1e-14
    assert np.all(x > 0) and np.all(x < 1)
    # nodes symmetric about 1/2
    assert np.allclose(x + x[::-1], 1.0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_gauss_legendre_monomial_exactness(n):
    # oracle: integral of x^k over [0,1] is 1/(k+1); rule exact through 2n-1
    x, w = numkit.gauss_legendre_1d(n)
    for k in range(2 * n):
        assert abs(w @ x**k - 1.0 / (k + 1)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_quadrature_integrates_random_polynomials(coeffs):
    # degree <= 7 polynomial, rule n=4 exact through degree 7
    x, w = numkit.gauss_legendre_1d(4)
    val = sum(c * (w @ x**k) for k, c in enumerate(coeffs))
    exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
    assert abs(val - exact) <= 1e-13 * max(1.0, abs(exact))


def test_gauss_legendre_extended_matches_double():
    xd, wd = numkit.gauss_legendre_1d(6)
    xe, we = gauss_legendre_1d(6, 30)
    assert max(abs(float(a) - b) for a, b in zip(xe, xd)) < 1e-15
    assert max(abs(float(a) - b) for a, b in zip(we, wd)) < 1e-15


def test_gauss_legendre_extended_high_degree_exactness():
    x, w = gauss_legendre_1d(6, 30)
    with mp.workdps(30):
        for k in (9, 10, 11):
            val = sum(wi * xi**k for wi, xi in zip(w, x))
            assert abs(val - mp.mpf(1) / (k + 1)) < mp.mpf("1e-28")


def test_gauss_legendre_repeatable():
    a = numkit.gauss_legendre_1d(7)
    b = numkit.gauss_legendre_1d(7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_tensor_rule_weights_and_shape():
    rule = numkit.tensor_rule(3)
    assert rule.points.shape == (9, 2)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    # integrates x^2 * y^4 exactly
    val = rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 4)
    assert abs(val - (1 / 3) * (1 / 5)) < 1e-14


# ------------------------------------------------------------------ hermitian_solve


def _random_hpd(n, rng, dtype=complex):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m.conj().T @ m + np.eye(n)


def test_hermitian_solve_identity():
    b = np.arange(6, dtype=float).reshape(3, 2) + 0j
    x = hermitian_solve(np.eye(3, dtype=complex), b)
    assert np.allclose(x, b, atol=0)


def test_hermitian_solve_matches_lapack():
    rng = np.random.default_rng(7)
    a = _random_hpd(9, rng)
    b = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    x = hermitian_solve(a, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-11, atol=1e-11)
    res = np.linalg.norm(a @ x - b)
    assert res <= 1e-10 * np.linalg.norm(b)


def test_hermitian_solve_hilbert8_extended():
    # Hilbert(8): rhs = H @ ones must return ones despite conditioning ~1e10
    n = 8
    with mp.workdps(30):
        h = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                h[i, j] = mp.mpf(1) / (i + j + 1)
        ones = np.array([mp.mpf(1)] * n, dtype=object)
        rhs = h @ ones
        x = hermitian_solve(h, rhs)
    assert max(abs(float(v - 1)) for v in x) < 1e-6


def test_hermitian_solve_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        hermitian_solve(a, np.ones(2, dtype=complex))


def test_hermitian_solve_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        hermitian_solve(-np.eye(3, dtype=complex), np.ones(3, dtype=complex))


def test_hermitian_solve_shape_check():
    with pytest.raises(DimensionMismatch):
        hermitian_solve(np.eye(3, dtype=complex), np.ones(4, dtype=complex))


# ------------------------------------------------------------------- determinants


def _stacked(k, seed, n=3):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    obj = np.empty(f.shape, dtype=object)
    for idx in np.ndindex(f.shape):
        obj[idx] = mp.mpc(f[idx].real, f[idx].imag)
    return f, obj


def test_det_small_closed_forms():
    f2 = np.array([[1 + 1j, 2.0], [3.0, 4 - 1j]])
    assert numkit.det_small(f2) == (1 + 1j) * (4 - 1j) - 6.0
    assert numkit.det_small(np.array([[5.0 + 0j]])) == 5.0 + 0j
    # a (k, 3, 3) stack gives each matrix's determinant, in either dtype
    f, obj = _stacked(4, 7)
    dets = numkit.det_small(f)
    exact = numkit.det_small(obj)
    assert dets.shape == exact.shape == (4,)
    for i in range(4):
        assert dets[i] == pytest.approx(np.linalg.det(f[i]), abs=1e-12)
        assert exact[i] == numkit.det_small(obj[i])
        assert isinstance(exact[i], mp.mpc)
        assert complex(exact[i]) == pytest.approx(dets[i], abs=1e-14)


def test_det3_matches_lu_determinant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ours = numkit.det_small(f)
        lu = np.linalg.det(f)
        assert abs(ours - lu) <= 1e-12 * max(1.0, abs(lu))


def test_permanent_small_sums_every_product():
    assert numkit.permanent_small(np.array([[2.0]])) == 2.0
    assert numkit.permanent_small(np.array([[1.0, 2.0], [3.0, 4.0]])) == 10.0
    a = np.abs(_stacked(4, 5)[0])
    perms = numkit.permanent_small(a)
    assert perms.shape == (4,)
    for i in range(4):
        want = sum(
            math.prod(a[i, row, col] for row, col in enumerate(p))
            for p in itertools.permutations(range(3))
        )
        assert perms[i] == pytest.approx(want, rel=4e-15)
        # it bounds the determinant of any matrix with these magnitudes
        assert abs(numkit.det_small(a[i] * np.exp(1j * np.arange(9).reshape(3, 3)))) <= perms[i]


def test_det_small_rejects_big_matrices():
    with pytest.raises(DimensionMismatch):
        numkit.det_small(np.eye(4))


def test_adjugate_identity():
    for n in (1, 2, 3):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        adj = numkit.adjugate_small(f)
        det = numkit.det_small(f)
        assert np.allclose(adj @ f, det * np.eye(n), atol=1e-12 * abs(det))
        # stacked input, complex and object dtype: adj(F) F = det(F) I per matrix
        f, obj = _stacked(5, 3, n)
        adj, dets = numkit.adjugate_small(f), numkit.det_small(f)
        assert adj.shape == (5, n, n)
        for i in range(5):
            assert np.allclose(adj[i] @ f[i], dets[i] * np.eye(n), atol=1e-12 * abs(dets[i]))
            assert np.array_equal(adj[i], numkit.adjugate_small(f[i]))
        adj_exact = numkit.adjugate_small(obj)
        assert adj_exact.dtype == object and adj_exact.shape == (5, n, n)
        for i in range(5):
            resid = adj_exact[i] @ obj[i] - numkit.det_small(obj[i]) * np.eye(n)
            assert max(abs(v) for v in resid.ravel()) <= 1e-12 * abs(dets[i])


# ------------------------------------------------------------ min_eigenvalue_bound


def test_min_eig_bound_identity():
    bound = min_eigenvalue_bound(np.eye(4, dtype=complex))
    assert 1 - 1e-12 <= bound <= 1.0


def test_min_eig_bound_psd_with_kernel():
    bound = min_eigenvalue_bound(np.diag([0.0, 1.0]).astype(complex))
    assert bound <= 0.0 <= bound + 1e-12


def test_min_eig_bound_random_hermitian():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    h = 0.5 * (m + m.conj().T)
    bound = min_eigenvalue_bound(h)
    true_min = np.linalg.eigvalsh(h)[0]
    assert bound <= true_min + 1e-12
    assert bound >= true_min - 1e-9 * max(1.0, abs(true_min))


def test_min_eig_bound_extended():
    with mp.workdps(30):
        h = np.empty((2, 2), dtype=object)
        h[0, 0], h[1, 1] = mp.mpf(2), mp.mpf(3)
        h[0, 1] = mp.mpc(0, 1)
        h[1, 0] = mp.mpc(0, -1)
        bound = min_eigenvalue_bound(h, EXT30)
    # eigenvalues (5 +/- sqrt(5))/2
    true_min = (5 - math.sqrt(5)) / 2
    assert bound <= true_min <= bound + 1e-9


# ----------------------------------------------------------------------- plumbing


def test_as_complex128_roundtrip():
    with mp.workdps(30):
        a = np.array([[mp.mpc(1, 2), mp.mpf(3)]], dtype=object)
    out = numkit.as_complex128(a)
    assert out.dtype == complex
    assert out[0, 0] == 1 + 2j and out[0, 1] == 3.0
    # a random 30-digit matrix, mpf on the diagonal and mpc elsewhere: every
    # entry must round exactly as complex(v) does
    vals = np.random.default_rng(11).uniform(-9.0, 9.0, (11, 11, 2))
    big = np.empty((11, 11), dtype=object)
    with mp.workdps(30):
        for i, j in np.ndindex(11, 11):
            re, im = mp.mpf(vals[i, j, 0]) / 3, mp.mpf(vals[i, j, 1]) / 7
            big[i, j] = re if i == j else mp.mpc(re, im)
    out = numkit.as_complex128(big)
    assert out.dtype == complex and out.shape == (11, 11)
    assert all(out[i, j] == complex(big[i, j]) for i in range(11) for j in range(11))


def test_extended_floor_enforced():
    with pytest.raises(ValueError):
        Precision.extended(10)


def test_no_spurious_warnings_on_well_conditioned():
    rng = np.random.default_rng(1)
    a = _random_hpd(5, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hermitian_solve(a, np.ones(5, dtype=complex))


def test_blas_pools_single_threaded():
    import helmdpg.assembly  # noqa: F401  (loads scipy's pool and pins both)

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        pytest.skip("no /proc/self/maps")
    pools = sorted(p for p in paths if "openblas" in os.path.basename(p))
    if not pools:
        pytest.skip("no OpenBLAS mapped")
    getters = [n.replace("_set_", "_get_") for n in numkit._BLAS_THREAD_SETTERS]
    for path in pools:
        lib = ctypes.CDLL(path)
        name = next(n for n in getters if hasattr(lib, n))
        getter = getattr(lib, name)
        getter.argtypes, getter.restype = [], ctypes.c_int
        assert getter() == 1, f"{path}: {name}() = {getter()}"
