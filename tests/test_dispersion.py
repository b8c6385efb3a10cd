import itertools
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import from_float, to_fixed
from oracles import (
    band_diagram_sequential,
    convergence_roots_sequential,
    polish_two_evaluations,
    symbol_exact_mpmath,
)

from helmdpg import dispersion, stencil
from helmdpg.errors import BranchAmbiguity, NoRootFound
from helmdpg.stencil import VERTEX, StencilSet


def second_difference_stencils(zeta):
    # 1D lattice Helmholtz: (2 - zeta^2) u_0 - u_{-1} - u_{+1} = 0, whose
    # plane-wave roots satisfy cos z = 1 - zeta^2 / 2.
    weights = {(VERTEX, VERTEX): {(0, 0): 2.0 - zeta**2, (2, 0): -1.0, (-2, 0): -1.0}}
    return StencilSet("custom", zeta, None, None, (VERTEX,), weights)


def test_second_difference_closed_form():
    zeta = 0.5
    res = dispersion.solve_root(second_difference_stencils(zeta), 0.0, zeta)
    want = np.arccos(1.0 - zeta**2 / 2.0)
    assert res.z == pytest.approx(want, abs=1e-12)
    assert res.det_abs <= 1e-12 * res.scale


def fem_axis_root(zeta):
    # Bilinear elements reduce along a lattice axis to
    # cos z = (1 - zeta^2/3) / (1 + zeta^2/6); beyond zeta = sqrt(12) the
    # right side drops below -1 and the root moves to pi + i*t.
    c = (1.0 - zeta**2 / 3.0) / (1.0 + zeta**2 / 6.0)
    if c >= -1.0:
        return complex(np.arccos(c))
    return np.pi + 1j * np.arccosh(-c)


@pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 3.0])
def test_fem_closed_form_below_cutoff(zeta):
    st = stencil.extract_stencils("fem", zeta, normalize=False)
    res = dispersion.solve_root(st, 0.0, zeta)
    want = fem_axis_root(zeta)
    assert res.z == pytest.approx(want, abs=1e-10)
    assert abs(res.z.imag) <= 1e-12


@pytest.mark.parametrize("zeta", [3.6, 4.0, 5.0])
def test_fem_closed_form_above_cutoff(zeta):
    st = stencil.extract_stencils("fem", zeta, normalize=False)
    res = dispersion.solve_root(st, 0.0, zeta)
    want = fem_axis_root(zeta)
    assert res.z.real == pytest.approx(np.pi, abs=1e-10)
    assert res.z.imag == pytest.approx(want.imag, abs=1e-10)
    assert res.z.imag > 0


def fem_root_closed_form(zeta, theta):
    # bilinear dispersion relation s(kx)/m(kx) + s(ky)/m(ky) = zeta^2 with
    # s(x) = 2(1 - cos x), m(x) = (2 + cos x)/3, solved on the ray inside
    # the first Brillouin zone, where its left side increases with z
    from scipy.optimize import brentq

    def lhs(x):
        return 6.0 * (1.0 - np.cos(x)) / (2.0 + np.cos(x))

    c, s = abs(np.cos(theta)), abs(np.sin(theta))
    return brentq(
        lambda z: lhs(z * c) + lhs(z * s) - zeta**2,
        1e-3, np.pi / max(c, s), xtol=1e-15, rtol=4 * np.finfo(float).eps,
    )


@pytest.mark.parametrize("zeta,theta", [(3.15, 0.0), (3.4, 0.0), (3.4, 0.3)])
def test_fem_root_inside_brillouin_zone(zeta, theta):
    # between pi and the cutoff sqrt(12) the alias 2*pi - z of the root z
    # lies nearer zeta; only the root inside the zone is admissible
    st = stencil.extract_stencils("fem", zeta, normalize=False)
    res = dispersion.solve_root(st, theta, zeta)
    assert res.z.real == pytest.approx(fem_root_closed_form(zeta, theta), abs=1e-10)
    assert abs(res.z.imag) <= 1e-12


def test_root_above_zone_edge_is_alias_inside_zone():
    # at zeta = 4 every fosls start converges outside the zone; the root
    # reported is the in-zone alias, whose mirror 2*pi - conj(z) is a root
    zeta = 4.0
    st = stencil.extract_stencils("fosls", zeta, normalize=False)
    res = dispersion.solve_root(st, 0.0, zeta)
    assert 0.0 < res.z.real <= np.pi
    assert res.det_abs <= 1e-10 * res.scale
    sym = dispersion.SymbolMatrix(st, 0.0)
    assert abs(sym.det(2 * np.pi - res.z.conjugate())) <= 1e-10 * res.scale


def test_symbol_derivative_matches_finite_difference():
    st = stencil.extract_stencils("dpg", 0.8, 0.5, 2, normalize=False)
    sym = dispersion.SymbolMatrix(st, 0.35)
    zs = np.array([0.8 + 0.0j, 0.7 + 0.05j, 1.1 - 0.02j])
    for z in zs:
        g, gp, e = sym.det_and_derivative(z)
        assert g == pytest.approx(sym.det(z), rel=1e-13)
        assert 0 < e <= 1e-12 * abs(g)
        d = 1e-6
        fd = (sym.det(z + d) - sym.det(z - d)) / (2 * d)
        assert gp == pytest.approx(fd, rel=2e-6)
    # one batched evaluation gives every point's scalar result
    g, gp, e = sym.det_and_derivative(zs)
    f = sym.value(zs)
    assert g.shape == gp.shape == e.shape == (3,) and f.shape == (3, 3, 3)
    for i, z in enumerate(zs):
        assert np.array_equal(sym.det_and_derivative(z), (g[i], gp[i], e[i]))
        assert g[i] == sym.det(z) == sym.det(zs)[i]
        assert np.array_equal(f[i], sym.value(z))


def _direct_det(st, theta, z):
    """det F(z) summed term by term from the StencilSet dicts in 30 digits.

    The offsets are projected in double, as ``SymbolMatrix`` documents, so
    only the weights' arithmetic and the summation differ from it.
    """
    k = np.array([np.cos(theta), np.sin(theta)])
    weights = st.exact if st.exact is not None else st.weights
    f = mp.matrix(len(st.types), len(st.types))
    for i, t in enumerate(st.types):
        for j, s in enumerate(st.types):
            for off, c in (weights.get((t, s)) or {}).items():
                d = mp.mpf(float(np.array(off, dtype=float) / 2.0 @ k))
                f[i, j] += mp.mpc(c) * mp.exp(mp.mpc(0, 1) * z * d)
    return mp.det(f)


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("method", ["dpg", "fosls"])
def test_exact_symbol_matches_direct_sum(method, theta):
    if method == "dpg":
        zeta = 2 * np.pi / 64
        st = stencil.extract_stencils("dpg", zeta, 0.0, 3, normalize=False)
        assert st.exact is not None  # the 30-digit route
    else:
        zeta = np.pi / 4
        st = stencil.extract_stencils("fosls", zeta, normalize=False)
        assert st.exact is None
    sym = dispersion.SymbolMatrix(st, theta)
    with mp.workdps(30):
        h = mp.mpf("1e-10")
        for z in (mp.mpc(zeta) * mp.mpc(1.05, 0.02), mp.mpc(zeta) * mp.mpc(0.9, -0.01)):
            g, gp = sym.det_and_derivative_exact(z, 0)
            want = _direct_det(st, theta, z)
            fd = (_direct_det(st, theta, z + h) - _direct_det(st, theta, z - h)) / (2 * h)
            assert abs(g - want) <= mp.mpf("1e-22") * abs(want)
            assert abs(gp - fd) <= mp.mpf("1e-12") * abs(fd)


def _sweep_and_band_symbols():
    # 13 directions of one set, and 5 sets of a band grid on one direction,
    # all at eps_n = 1e-6
    st = dispersion._method_stencils("dpg", np.pi / 4, 1e-6, 3)
    thetas = np.linspace(0.0, np.pi / 2, 13)
    zetas = dispersion.band_grid(0.5, 0.1)
    sets = [dispersion._method_stencils("dpg", zeta, 1e-6, 3) for zeta in zetas]
    return (
        (dispersion.SymbolMatrix(st, thetas), [(st, th, np.pi / 4) for th in thetas]),
        (dispersion.SymbolMatrix(sets, 0.0), [(s, 0.0, zeta) for s, zeta in zip(sets, zetas)]),
    )


def test_exact_symbol_evaluates_every_row():
    # row t of a many-row symbol is, exactly, the one-row symbol of its set
    # and direction; a take reuses the copies its parent built, which are
    # built once per set and once per (set, direction)
    for sym, rows in _sweep_and_band_symbols():
        with mp.workdps(30):
            for t, (st, theta, zeta) in enumerate(rows):
                z = mp.mpc(zeta) * mp.mpc(1.01, 0.02)
                got = sym.det_and_derivative_exact(z, t)
                want = dispersion.SymbolMatrix(st, theta).det_and_derivative_exact(z, 0)
                assert got[0] == want[0] and got[1] == want[1]
            built = dict(sym._shared)
            assert len(built) == len({id(st) for st, _, _ in rows}) + len(rows)
            sub = sym.take([len(rows) - 1, 1])
            assert sub.det_and_derivative_exact(z, 0) == got
            sub.det_and_derivative_exact(z, 1)
        assert sub._shared is sym._shared and sym._shared.keys() == built.keys()
        assert all(sym._shared[k] is v for k, v in built.items())


def _leibniz_det(f):
    """det of an mpmath matrix by the Leibniz sum over permutations."""
    n = f.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * mp.fprod(f[i, perm[i]] for i in range(n))
    return total


def _direct_symbol(st, theta, z):
    """det F(z) and its z-derivative (Jacobi's formula, one row of F
    replaced by its derivative's at a time), summed term by term from the
    StencilSet dicts in mpmath at the ambient precision, at the double
    projections c (ox/2) + s (oy/2) the symbol sums over."""
    c, s = float(np.cos(theta)), float(np.sin(theta))
    weights = st.exact if st.exact is not None else st.weights
    n = len(st.types)
    f, df = mp.matrix(n, n), mp.matrix(n, n)
    for i, t in enumerate(st.types):
        for j, u in enumerate(st.types):
            for (ox, oy), w in (weights.get((t, u)) or {}).items():
                d = mp.mpf(c * (ox / 2) + s * (oy / 2))
                term = mp.mpc(w) * mp.exp(mp.mpc(0, 1) * z * d)
                f[i, j] += term
                df[i, j] += mp.mpc(0, 1) * d * term
    deriv = 0
    for i in range(n):
        g = f.copy()
        for j in range(n):
            g[i, j] = df[i, j]
        deriv += _leibniz_det(g)
    return _leibniz_det(f), deriv


# (method, zeta, eps_n): the 30-digit route at eps_n = 0 (S_exact weights)
# and the double weights at eps_n = 1e-6, fosls and fem
_SYMBOL_SETS = [
    ("fem", np.pi / 4, None),
    ("fosls", np.pi / 4, None),
    ("dpg", np.pi / 4, 1e-6),
    ("dpg", 2 * np.pi / 64, 0.0),
    ("dpg", 2 * np.pi / 128, 0.0),
]


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 8, np.pi / 4, 1.2])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("method,zeta,eps_n", _SYMBOL_SETS)
def test_fixed_point_symbol_matches_50_digit_sum_and_mpmath_route(
    method, zeta, eps_n, normalize, theta
):
    # the integer route against a 50-digit direct sum of the same function
    # (measured: g within 2.4e-32 of |g'| |z| and g' within 9.4e-32 of
    # itself, the 30-digit rounding) and against the former mpmath route
    # (whose own errors measured 1.2e-18 and 3.5e-20)
    st = stencil.extract_stencils(method, zeta, eps_n, 3 if eps_n is not None else None, normalize)
    assert (st.exact is not None) == (eps_n == 0.0)
    sym = dispersion.SymbolMatrix(st, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchAmbiguity)  # 2 pi/128 at pi/4
        root = dispersion.solve_root(st, theta, zeta).z
    for z0 in (root, root * (1.01 + 0.02j)):
        with mp.workdps(30):
            z = mp.mpc(z0)
            g, gp = sym.det_and_derivative_exact(z, 0)
            g_mp, gp_mp = symbol_exact_mpmath(sym, z, 0)
        with mp.workdps(50):
            want, dwant = _direct_symbol(st, theta, z)
            scale = abs(dwant) * abs(z)
            assert abs(g - want) <= 1e-30 * scale
            assert abs(gp - dwant) <= 1e-30 * abs(dwant)
            assert abs(g - g_mp) <= 1e-17 * scale
            assert abs(gp - gp_mp) <= 1e-18 * abs(dwant)


def test_fixed_point_symbol_follows_working_precision():
    # Q = mp.prec + FIXED_GUARD_BITS: in 50 digits the same symbol meets a
    # 70-digit sum 18 digits closer than in 30, and rebuilds its per-set
    # copy in place, so the shared copies keep one entry per set and one
    # per (set, direction)
    st = stencil.extract_stencils("dpg", 2 * np.pi / 128, 0.0, 3, normalize=False)
    sym = dispersion.SymbolMatrix(st, 0.3)
    z0 = 2 * np.pi / 128 * (1.01 + 0.02j)
    with mp.workdps(70):
        want, dwant = _direct_symbol(st, 0.3, mp.mpc(z0))
        scale = abs(dwant) * abs(z0)
    errors = []
    for dps in (30, 50):
        with mp.workdps(dps):
            g, gp = sym.det_and_derivative_exact(mp.mpc(z0), 0)
            assert sym._shared[0][0] == mp.mp.prec + dispersion.FIXED_GUARD_BITS
        errors.append(float(abs(g - want) / scale))
        assert abs(gp - dwant) <= 10.0 ** (2 - dps) * abs(dwant)
    assert errors[1] <= 1e-48 and errors[0] > 1e18 * errors[1]
    assert set(sym._shared) == {0, (0, 0.3)}


def test_fixed_point_symbol_on_two_types():
    # n = 2, which no method makes: the dpg vertex and hedge equations alone
    st = stencil.extract_stencils("dpg", np.pi / 4, 1e-6, 3, normalize=False)
    weights = {k: v for k, v in st.weights.items() if stencil.VEDGE not in k}
    pair = StencilSet("pair", st.omega_n, None, None, (VERTEX, stencil.HEDGE), weights)
    sym = dispersion.SymbolMatrix(pair, 0.3)
    z0 = np.pi / 4 * (1.01 + 0.02j)
    with mp.workdps(30):
        g, gp = sym.det_and_derivative_exact(mp.mpc(z0), 0)
        g_mp, gp_mp = symbol_exact_mpmath(sym, mp.mpc(z0), 0)
    with mp.workdps(50):
        want, dwant = _direct_symbol(pair, 0.3, mp.mpc(z0))
        assert abs(g - want) <= 1e-30 * abs(dwant) * abs(z0)
        assert abs(gp - dwant) <= 1e-30 * abs(dwant)
        assert abs(g - g_mp) <= 1e-17 * abs(dwant) * abs(z0)


def test_fixed_floats_round_toward_minus_infinity():
    # the double weights' integer copy is floor(c * 2**k), to_fixed's
    # rounding: negative values, subnormals, zeros and large doubles
    tiny = np.nextafter(0.0, 1.0)
    values = [
        0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1 / 3, -1 / 3, tiny, -tiny, 3 * tiny, -3 * tiny,
        1e-310, -1e-310, 1e300, -1e300, np.finfo(float).max, -np.finfo(float).max,
        -2.5, 2.5, np.pi, -np.e,
    ]
    x = np.array(values)
    for shift in (0, 1, 52, 53, 151, 218, 1100, -1, -60, -1000):
        # within the range where x 2**shift is a finite, nonzero double
        top = np.frexp(x)[1] + shift
        fits = x[(top <= 1024) & ((x == 0) | (top > -1073))]
        got = dispersion._fixed_floats(fits, shift)
        assert got.dtype == object and all(type(v) is int for v in got)
        assert got.tolist() == [to_fixed(from_float(v), shift) for v in fits.tolist()]
        assert len(fits) >= 5


def test_fixed_set_copy_is_padded_like_the_table():
    # the per-set integer copy: (bits, cr, ci, top) with cr and ci shaped
    # like the offset table, zero in its padding, for double and for
    # 30-digit weights, also where a row's power of two is below 1; c =
    # C 2**(top - bits) within one unit of C
    double, raw = (
        stencil.extract_stencils("dpg", zeta, eps_n, 3, normalize=False)
        for eps_n, zeta in ((1e-6, np.pi / 4), (0.0, 2 * np.pi / 64))
    )
    with mp.workdps(30):
        small = [
            {k: {off: w / 10**24 for off, w in row.items()} for k, row in weights.items()}
            for weights in (raw.weights, raw.exact)
        ]
    sets = [double, raw] + [
        StencilSet("custom", raw.omega_n, None, None, raw.types, small[0], exact)
        for exact in (None, small[1])
    ]
    for st in sets:
        sym = dispersion.SymbolMatrix(st, 0.3)
        with mp.workdps(30):
            sym.det_and_derivative_exact(mp.mpc(st.omega_n), 0)
            bits = mp.mp.prec + dispersion.FIXED_GUARD_BITS
        entry = sym._shared[0]
        assert len(entry) == 4
        got_bits, cr, ci, top = entry
        assert got_bits == bits and len(top) == 3
        assert cr.shape == ci.shape == sym._at.shape
        own = np.zeros(sym._at.shape, dtype=bool)
        for ti, t in enumerate(st.types):
            for si, s in enumerate(st.types):
                own[ti, si, : len(st.weights.get((t, s)) or {})] = True
        assert not own.all()
        assert all(v == 0 for v in cr[~own]) and all(v == 0 for v in ci[~own])
        weights = st.exact if st.exact is not None else st.weights
        for ti, t in enumerate(st.types):
            # 2**top is the least power of two above every part of the row
            largest = 0
            for si, s in enumerate(st.types):
                for k, w in enumerate((weights.get((t, s)) or {}).values()):
                    w = mp.mpc(w)
                    largest = max(largest, abs(w.real), abs(w.imag))
                    unit = mp.mpf(2) ** (top[ti] - bits)
                    assert 0 <= w.real - cr[ti, si, k] * unit < unit
                    assert 0 <= w.imag - ci[ti, si, k] * unit < unit
            assert 2 ** (top[ti] - 1) <= largest < 2 ** top[ti]


def test_symbol_rejects_extended_weights_missing_an_offset():
    # every offset of a set's double rows needs an extended weight, checked
    # at construction like a mismatched offset table
    st = stencil.extract_stencils("dpg", 2 * np.pi / 64, 0.0, 3, normalize=False)
    assert st.exact is not None
    key = (VERTEX, VERTEX)
    exact = dict(st.exact)
    exact[key] = {off: w for off, w in exact[key].items() if off != (2, 2)}
    short = StencilSet(st.method, st.omega_n, st.eps_n, st.r, st.types, st.weights, exact)
    with pytest.raises(ValueError, match="extended weight"):
        dispersion.SymbolMatrix(short, 0.3)
    with pytest.raises(ValueError, match="extended weight"):
        dispersion.SymbolMatrix([st, short], 0.3)


def _solve_with(monkeypatch, sym, zeta, oracle):
    """``_solve`` on ``sym``, its polish on the mpmath route when ``oracle``."""
    with monkeypatch.context() as m:
        if oracle:
            m.setattr(dispersion.SymbolMatrix, "det_and_derivative_exact", symbol_exact_mpmath)
        return dispersion._solve(sym, zeta)


def test_fixed_point_symbol_gives_the_mpmath_route_roots(monkeypatch):
    # the polish on either route: bit for bit at eps_n = 1e-6, where the
    # polished roots are simple; to 1e-13 at eps_n = 0, where they are
    # nearly double and the routes' noise can move the last steps
    # (measured 4.3e-21, with equal step counts)
    (sweep, _), (band, band_rows) = _sweep_and_band_symbols()
    raw = stencil.extract_stencils("dpg", 2 * np.pi / 64, 0.0, 3, normalize=False)
    cases = [
        (sweep, np.pi / 4, 0.0),
        (band, np.array([zeta for _, _, zeta in band_rows]), 0.0),
        (dispersion.SymbolMatrix(raw, np.linspace(0.0, np.pi / 4, 5)), 2 * np.pi / 64, 1e-13),
    ]
    for sym, zeta, rtol in cases:
        z, iters, _, _, polished, _ = _solve_with(monkeypatch, sym, zeta, oracle=False)
        z_mp, iters_mp, _, _, polished_mp, _ = _solve_with(monkeypatch, sym, zeta, oracle=True)
        assert polished.any()
        np.testing.assert_array_equal(polished, polished_mp)
        if rtol:
            assert np.all(np.abs(z - z_mp) <= rtol * np.abs(z))
        else:
            np.testing.assert_array_equal(z, z_mp)
            np.testing.assert_array_equal(iters, iters_mp)


def test_theta_reflection_symmetry():
    st = stencil.extract_stencils("dpg", 0.9, 0.5, 2, normalize=False)
    th = 0.3
    z1 = dispersion.solve_root(st, th, 0.9).z
    z2 = dispersion.solve_root(st, np.pi / 2 - th, 0.9).z
    assert z1 == pytest.approx(z2, abs=1e-10)


def test_root_certificates_fosls():
    st = stencil.extract_stencils("fosls", 0.7, normalize=False)
    res = dispersion.solve_root(st, 0.25, 0.7)
    assert res.det_abs <= 1e-12 * res.scale
    assert res.z.imag >= -1e-15
    resid, amp = dispersion.ansatz_residual(st, 0.25, res.z)
    wmax = max(st.max_abs(t) for t in st.types)
    assert resid <= 1e-8 * wmax
    assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-12)


def test_conjugate_root_also_vanishes():
    st = stencil.extract_stencils("fosls", 1.2, normalize=False)
    res = dispersion.solve_root(st, 0.1, 1.2)
    sym = dispersion.SymbolMatrix(st, 0.1)
    assert abs(sym.det(res.z.conjugate())) <= 1e-10 * res.scale


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("method,eps_n", [("fem", None), ("fosls", None), ("dpg", 1e-2), ("dpg", 0.0)])
@pytest.mark.parametrize("zeta", [2 * np.pi / 64, np.pi / 4])
def test_conjugate_fold_is_exact(zeta, method, eps_n, normalize):
    # solve_root folds a candidate z to conj(z) with no second Newton pass:
    # the weights pair Hermitianly, so det F(conj z) = conj det F(z), and in
    # double the two evaluations differ by no more than the rounding error
    # (at most 0.094 of it over these stencils)
    args = (eps_n, 3) if method == "dpg" else ()
    st = stencil.extract_stencils(method, zeta, *args, normalize=normalize)
    z = zeta * np.array([1.05 + 0.02j, 0.9 + 0.1j, 1 + 1e-4j, 1.2 - 0.05j])
    for theta in (0.0, 0.3, np.pi / 4, 1.2):
        sym = dispersion.SymbolMatrix(st, theta)
        g, _, e = sym.det_and_derivative(z)
        g_conj = sym.det(z.conj())
        assert np.all(np.abs(g_conj - g.conj()) <= e)


def test_normalization_leaves_root_invariant():
    raw = stencil.extract_stencils("dpg", 0.8, 0.5, 2, normalize=False)
    nrm = stencil.extract_stencils("dpg", 0.8, 0.5, 2, normalize=True)
    z1 = dispersion.solve_root(raw, 0.4, 0.8).z
    z2 = dispersion.solve_root(nrm, 0.4, 0.8).z
    assert z1 == pytest.approx(z2, abs=1e-9)


def test_branch_ambiguity_warns():
    # symbol 2 cos(2z): roots pi/4 and 3*pi/4 inside the zone, equidistant
    # from zeta = pi/2
    weights = {(VERTEX, VERTEX): {(0, 0): 0.0, (4, 0): 1.0, (-4, 0): 1.0}}
    st = StencilSet("custom", np.pi / 2, None, None, (VERTEX,), weights)
    with pytest.warns(BranchAmbiguity):
        res = dispersion.solve_root(st, 0.0, np.pi / 2)
    assert min(abs(res.z - np.pi / 4), abs(res.z - 3 * np.pi / 4)) < 1e-10


def test_no_root_found():
    weights = {(VERTEX, VERTEX): {(0, 0): 1.0}}
    st = StencilSet("custom", 1.0, None, None, (VERTEX,), weights)
    with pytest.raises(NoRootFound):
        dispersion.solve_root(st, 0.0, 1.0)


def test_zeta_must_be_positive():
    st = second_difference_stencils(0.5)
    with pytest.raises(ValueError):
        dispersion.solve_root(st, 0.0, 0.0)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_theta_must_be_finite(theta):
    st = second_difference_stencils(0.5)
    with pytest.raises(ValueError, match="theta must be finite"):
        dispersion.solve_root(st, theta, 0.5)


def test_root_messages_print_plain_floats():
    # numpy scalars in, plain Python reprs out
    weights = {(VERTEX, VERTEX): {(0, 0): 1.0}}
    st = StencilSet("custom", 1.0, None, None, (VERTEX,), weights)
    with pytest.raises(NoRootFound, match=r"zeta=1\.0 for theta=0\.0 ") as exc:
        dispersion.solve_root(st, np.float64(0.0), np.float64(1.0))
    assert "np." not in str(exc.value)
    weights = {(VERTEX, VERTEX): {(0, 0): 0.0, (4, 0): 1.0, (-4, 0): 1.0}}
    st = StencilSet("custom", np.pi / 2, None, None, (VERTEX,), weights)
    with pytest.warns(BranchAmbiguity, match=r"zeta=1\.5707963267948966 at theta=0\.0: \(") as rec:
        dispersion.solve_root(st, np.float64(0.0), np.float64(np.pi / 2))
    assert all("np." not in str(w.message) for w in rec)


def test_theta_sweep_fem_below_cutoff():
    st = stencil.extract_stencils("fem", 0.5, normalize=False)
    sweep = dispersion.theta_sweep(st, n_theta=25)
    assert sweep.z.shape == (25,)
    assert sweep.eta <= 1e-12
    # a real root is certified on a circle centred on the real axis and
    # reported with Im z = 0 exactly
    assert sweep.eta == 0.0
    axis_err = abs(fem_axis_root(0.5).real - 0.5) / 0.5
    assert axis_err - 1e-12 <= sweep.rho <= 1.05 * axis_err
    assert np.max(np.abs(np.diff(sweep.z))) < 0.05
    assert sweep.z[0] == pytest.approx(fem_axis_root(0.5), abs=1e-10)


def test_theta_sweep_symmetric_endpoints():
    st = stencil.extract_stencils("fosls", 0.8, normalize=False)
    sweep = dispersion.theta_sweep(st, n_theta=21)
    assert sweep.z[0] == pytest.approx(sweep.z[-1], abs=1e-9)


def test_convergence_study_fem_slope():
    study = dispersion.convergence_study("fem", levels=(3, 4, 5))
    assert study.slope == pytest.approx(3.0, abs=0.3)
    assert np.all(np.diff(study.errors) < 0)
    # closed-form cross-check of every fitted point
    for zeta, z in zip(study.zetas, study.z):
        assert z == pytest.approx(fem_axis_root(zeta), abs=1e-10)


@pytest.mark.parametrize("levels", [(1, 2), (2, 3), (3, 3)])
def test_convergence_study_needs_two_fitted_levels(levels, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before checking the levels")

    monkeypatch.setattr(dispersion, "_method_stencils", no_solve)
    with pytest.raises(ValueError, match="FIT_LEVELS"):
        dispersion.convergence_study("fem", levels=levels)


def test_band_diagram_fem_cutoff():
    band = dispersion.band_diagram("fem", zeta_max=4.5, zeta_step=0.25)
    below = band.zetas < 3.0
    above = band.zetas > 3.6
    assert np.max(np.abs(band.z.imag[below])) <= 1e-10
    assert np.allclose(band.z.real[above], np.pi, atol=1e-8)
    assert np.all(band.z.imag[above] > 0.05)


def _ambiguous_zetas(run):
    """``run()`` and the zeta of each BranchAmbiguity it warns, in order."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = run()
    found = [w for w in rec if issubclass(w.category, BranchAmbiguity)]
    return out, [float(re.search(r"zeta=(\S+) at", str(w.message)).group(1)) for w in found]


@pytest.mark.parametrize(
    "method,eps_n,r,zeta_step",
    [
        # through the alias pi < zeta < sqrt(12) and the stopband above pi
        ("fem", None, None, 0.05),
        ("fem", None, None, 0.25),
        ("fosls", None, None, 0.05),
        ("dpg", 1e-6, 3, 0.05),
    ],
)
def test_band_diagram_matches_sequential_tracker(method, eps_n, r, zeta_step):
    # the band solves its points as rows of one symbol in two batched
    # passes; the tracker solves them one by one, each from the previous
    # root.  The two start the continuation from roots that may differ in
    # their last bits, so agreement is to rounding, not bit for bit
    (zetas, ref), warned_ref = _ambiguous_zetas(
        lambda: band_diagram_sequential(method, eps_n, r, zeta_max=6.0, zeta_step=zeta_step)
    )
    band, warned = _ambiguous_zetas(
        lambda: dispersion.band_diagram(method, eps_n, r, zeta_max=6.0, zeta_step=zeta_step)
    )
    np.testing.assert_array_equal(band.zetas, zetas)
    assert np.all(np.abs(band.z - ref) <= 1e-10 * np.abs(ref))
    assert warned == warned_ref


@pytest.mark.parametrize(
    "method,eps,r,levels",
    [
        ("fem", None, None, (3, 4, 5, 6, 7)),
        ("fosls", None, None, (3, 4, 5, 6, 7)),
        ("dpg", 1.0, 3, (3, 4, 5, 6, 7)),
        ("dpg", 1e-6, 3, (3, 5)),
        ("dpg", 0.0, 3, (3, 5)),  # polished
        ("fem", None, None, (1, 2, 3, 4)),  # zeta = pi and pi/2 at levels 1 and 2
    ],
)
def test_convergence_study_matches_sequential_tracker(method, eps, r, levels):
    (zetas, ref), warned_ref = _ambiguous_zetas(
        lambda: convergence_roots_sequential(method, eps, r, levels, omega=1.0)
    )
    study, warned = _ambiguous_zetas(
        lambda: dispersion.convergence_study(method, eps, r, levels, omega=1.0)
    )
    np.testing.assert_array_equal(study.zetas, zetas)
    assert np.all(np.abs(study.z - ref) <= 1e-10 * np.abs(ref))
    assert warned == warned_ref


def test_band_diagram_warns_per_point_like_sequential_tracker(monkeypatch):
    # symbol 2 cos(2z) at every point: roots pi/4 and 3*pi/4, equidistant
    # from zeta = pi/2, the fourth point of the grid
    weights = {(VERTEX, VERTEX): {(0, 0): 0.0, (4, 0): 1.0, (-4, 0): 1.0}}
    monkeypatch.setattr(
        dispersion,
        "_method_stencils",
        lambda method, zeta, eps_n, r: StencilSet(method, zeta, None, None, (VERTEX,), weights),
    )
    (_, ref), warned_ref = _ambiguous_zetas(
        lambda: band_diagram_sequential("custom", zeta_max=np.pi, zeta_step=np.pi / 8)
    )
    band, warned = _ambiguous_zetas(
        lambda: dispersion.band_diagram("custom", zeta_max=np.pi, zeta_step=np.pi / 8)
    )
    assert warned == warned_ref == [np.pi / 2]
    assert np.all(np.abs(band.z - ref) <= 1e-10 * np.abs(ref))


def two_branch_stencils(zeta):
    # symbol (c - 2 cos a)(c - 2 cos w)(c - 2 cos conj(w)), c = 2 cos z: a
    # real root a = zeta / 2 and a complex one w = zeta + i*beta, Hermitian
    # weights.  beta = zeta / 20 up to zeta = 0.5, then it grows by 0.065
    # per 0.1 of zeta: from zeta = 1 on the near-real common starts all run
    # to a, though w stays nearer zeta
    a, w = zeta / 2, zeta + 1j * two_branch_beta(zeta)
    ca, cw = 2 * np.cos(a), 2 * np.cos(w)
    c2 = -(ca + 2 * cw.real)
    c1 = 2 * ca * cw.real + abs(cw) ** 2
    c0 = -ca * abs(cw) ** 2
    row = {
        (0, 0): 2 * c2 + c0, (2, 0): 3 + c1, (-2, 0): 3 + c1, (4, 0): c2, (-4, 0): c2,
        (6, 0): 1.0, (-6, 0): 1.0,
    }
    return StencilSet("custom", zeta, None, None, (VERTEX,), {(VERTEX, VERTEX): row})


def two_branch_beta(zeta):
    return zeta / 20 + 0.65 * max(0.0, zeta - 0.5)


def test_band_diagram_keeps_branch_the_common_starts_lose(monkeypatch):
    monkeypatch.setattr(
        dispersion, "_method_stencils", lambda method, zeta, eps_n, r: two_branch_stencils(zeta)
    )
    zetas = dispersion.band_grid(1.5, 0.1)
    lost = zetas > 0.95
    for zeta in zetas[lost]:
        # the common starts alone find the real root
        z = dispersion.solve_root(two_branch_stencils(zeta), 0.0, zeta).z
        assert z == pytest.approx(zeta / 2, abs=1e-10)
    solve = dispersion._solve
    resolved = []

    def spy(sym, zeta, *rest):
        if np.size(zeta) == 1:
            resolved.append(float(zeta))
        return solve(sym, zeta, *rest)

    monkeypatch.setattr(dispersion, "_solve", spy)
    band = dispersion.band_diagram("custom", zeta_max=1.5, zeta_step=0.1)
    # the two branches stay at least 0.05 apart; near zeta = 0 the roots
    # sit 4e-10 off in double
    branch = zetas + 1j * np.array([two_branch_beta(zeta) for zeta in zetas])
    assert np.all(np.abs(band.z - branch) <= 1e-9)
    # pass 2 kept the branch at zeta = 1 but seeded the next point from
    # pass 1's real root; each later point was solved again in order
    np.testing.assert_array_equal(resolved, zetas[lost][1:])
    _, ref = band_diagram_sequential("custom", zeta_max=1.5, zeta_step=0.1)
    assert np.all(np.abs(band.z - ref) <= 1e-10 * np.abs(ref))


def test_band_diagram_no_root_at_first_point(monkeypatch):
    weights = {(VERTEX, VERTEX): {(0, 0): 1.0}}
    monkeypatch.setattr(
        dispersion,
        "_method_stencils",
        lambda method, zeta, eps_n, r: StencilSet(method, zeta, None, None, (VERTEX,), weights),
    )
    with pytest.raises(NoRootFound, match=r"zeta=0\.25 for theta=0\.0 \(custom\)"):
        dispersion.band_diagram("custom", zeta_max=1.0, zeta_step=0.25)


def test_symbol_rows_of_several_stencil_sets():
    # P sets make P rows: each row evaluates like a symbol of its own set,
    # and a take slices the coefficients with the directions
    zetas = [0.4, 0.9, 1.3]
    sets = [dispersion._method_stencils("fosls", zeta, None, None) for zeta in zetas]
    sym = dispersion.SymbolMatrix(sets, 0.3)
    z = np.array([[0.5 + 0.1j, 0.7], [1.0 + 0.2j, 0.9], [1.2, 1.4 + 0.01j]])
    g, gp, e = sym.det_and_derivative(z)
    for p, st in enumerate(sets):
        one = dispersion.SymbolMatrix(st, 0.3)
        for got, want in zip((g[p], gp[p], e[p]), one.det_and_derivative(z[p])):
            np.testing.assert_array_equal(got, want)
    sub = sym.take([2, 0])
    np.testing.assert_array_equal(sub.value(z[[2, 0]]), sym.value(z)[[2, 0]])
    with pytest.raises(ValueError, match="offset table"):
        dispersion.SymbolMatrix([sets[0], second_difference_stencils(0.5)], 0.0)


def test_symbol_row_rule_rejects_other_shapes():
    # rows pair sets with directions as np.broadcast_arrays does; any other
    # combination names the counts or the shape it got
    sets = [dispersion._method_stencils("fosls", zeta, None, None) for zeta in (0.4, 0.9, 1.3)]
    with pytest.raises(ValueError, match=r"3 stencil sets on theta of shape \(2,\)"):
        dispersion.SymbolMatrix(sets, [0.1, 0.2])
    with pytest.raises(ValueError, match=r"1 stencil sets on theta of shape \(2, 2\)"):
        dispersion.SymbolMatrix(sets[0], np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"0 stencil sets on theta of shape \(\)"):
        dispersion.SymbolMatrix([], 0.3)
    for theta in (0.3, [0.3], [0.1, 0.2, 0.3]):
        assert dispersion.SymbolMatrix(sets, theta).theta.shape == (3,)


def test_symbol_take_of_one_row_is_that_direction():
    # a take of one row of a one-set sweep evaluates bit for bit like the
    # symbol built on that direction alone, at an array of z and at a scalar
    st = stencil.extract_stencils("dpg", 0.8, 1e-2, 3, normalize=False)
    thetas = np.linspace(0.0, np.pi / 2, 5)
    sym = dispersion.SymbolMatrix(st, thetas)
    assert sym.theta.shape == (5,)
    z = 0.8 * np.array([1.05 + 0.02j, 0.9 - 0.1j, 1 + 1e-4j])
    for t, theta in enumerate(thetas):
        one = dispersion.SymbolMatrix(st, theta)
        for got, want in zip(sym.take(t).det_and_derivative(z), one.det_and_derivative(z)):
            np.testing.assert_array_equal(got, want)
        assert sym.take(t).det(z[0]) == one.det(z[0])


def test_dpg_limit_small_frequency_consistency():
    # The dissipation-free limit produces nearly double roots, so |det F|
    # is held to 1e-10 of the start scale here rather than 1e-12.
    st = stencil.extract_stencils("dpg", 0.3, 0.0, 3, normalize=False)
    res = dispersion.solve_root(st, 0.0, 0.3)
    assert abs(res.z - 0.3) <= 1e-3
    assert res.det_abs <= 1e-10 * res.scale


def test_polish_rejects_double_stage_non_root(monkeypatch):
    # at eps_n = 0, zeta = 2*pi/128 (the last eps = 0 level of test_06) the
    # double determinant is rounding noise over a wide valley, so a point
    # that is no root can pass the double tests; make the double stage
    # accept one and check that the extended polish, which rejects it,
    # decides what is reported
    zeta = 2 * np.pi / 128
    non_root = 0.04908730300843669
    st = stencil.extract_stencils("dpg", zeta, 0.0, 3, normalize=False)
    exact = dispersion.SymbolMatrix.det_and_derivative

    def noisy(self, z):
        g, gp, e = exact(self, z)
        return np.where(z == non_root, 0.0, g), gp, e

    monkeypatch.setattr(dispersion.SymbolMatrix, "det_and_derivative", noisy)
    z, iters, stopped = dispersion._newton(dispersion.SymbolMatrix(st, 0.0), [[non_root]], [1.0])
    assert stopped[0, 0] and z[0, 0] == non_root and iters[0, 0] == 0
    res = dispersion.solve_root(st, 0.0, zeta, init=non_root)
    assert res.z == pytest.approx(0.04908492133934228 + 3.5919e-8j, rel=1e-10)
    assert res.z.imag == pytest.approx(3.5919e-8, rel=1e-4)


def test_polish_is_start_independent():
    # a nearly double root: Newton in 30 digits only halves the error per
    # step until it resolves the pair, so a loose step tolerance stops it
    # at a point that depends on the start
    zeta = 2 * np.pi / 128
    st = stencil.extract_stencils("dpg", zeta, 0.0, 3, normalize=False)
    sym = dispersion.SymbolMatrix(st, 0.0)
    root = dispersion.solve_root(st, 0.0, zeta).z
    polished = []
    for z0 in (root, zeta * (1 + 0.02j), zeta * (1 + 0.1j), zeta * (1.001 + 0.001j)):
        z, _, _ = dispersion._polish(sym, 0, z0)
        assert z is not None
        polished.append(z if z.imag >= 0 else z.conjugate())
    ref = polished[0]
    for z in polished[1:]:
        assert abs(z - ref) <= 1e-12 * abs(ref)
        assert abs(z.imag - ref.imag) <= 1e-6 * ref.imag


@pytest.mark.parametrize("eps_n", [1e-2, 1e-6])
def test_theta_sweep_double_evaluations_per_root(eps_n, monkeypatch):
    # from real starts Newton cannot reach these complex roots, and at
    # eps_n = 1e-6 no start reaches a step of 1e-12 |z|: with such starts
    # and no stop at the rounding error this sweep once made 88 and 178
    # batched double evaluations per root.  Every double evaluation goes
    # through these two methods, and a sweep evaluates all its directions in
    # one call, so the count is of z points per direction solved: 96 and
    # 118 here.  With those starts and no such stop the eps_n = 1e-2 sweep
    # evaluates 484 per direction and the eps_n = 1e-6 one finds no root;
    # with today's starts and no such stop the eps_n = 1e-6 sweep evaluates
    # 461.
    zeta = np.pi / 4
    st = stencil.extract_stencils("dpg", zeta, eps_n, 3, normalize=False)
    points, thetas = 0, set()

    def counted(evaluate):
        def wrapper(self, z):
            nonlocal points
            points += np.size(z)
            thetas.update(np.ravel(self.theta).tolist())
            return evaluate(self, z)

        return wrapper

    for name in ("det", "det_and_derivative"):
        evaluate = getattr(dispersion.SymbolMatrix, name)
        monkeypatch.setattr(dispersion.SymbolMatrix, name, counted(evaluate))
    sweep = dispersion.theta_sweep(st, n_theta=13)
    assert np.all(sweep.z.imag > 0)
    assert len(thetas) == 7  # the directions up to pi/4
    assert 3 * len(dispersion.START_FACTORS) < points / len(thetas) <= 150


@pytest.mark.parametrize(
    "method,eps_n", [("fem", None), ("fosls", None), ("dpg", 1e-2), ("dpg", 1e-6)]
)
def test_theta_sweep_matches_solve_root(method, eps_n):
    # the sweep solves the directions up to pi/4 as one array program and
    # mirrors the rest; solve_root solves each direction on its own
    zeta = 2 * np.pi / 8
    st = dispersion._method_stencils(method, zeta, eps_n, 3)
    sweep = dispersion.theta_sweep(st, n_theta=13)
    for theta, z, polished in zip(sweep.thetas, sweep.z, sweep.polished):
        res = dispersion.solve_root(st, theta, zeta)
        assert abs(z - res.z) <= 1e-10 * abs(res.z)
        assert polished == res.polished


@pytest.mark.parametrize("method,eps_n", [("fosls", None), ("dpg", 1e-6)])
def test_reflection_symmetry_of_separate_solves(method, eps_n):
    # theta_sweep takes z(pi/2 - theta) = z(theta) for granted on x<->y
    # symmetric stencil sets; here both directions of each pair are solved
    zeta = 2 * np.pi / 8
    st = dispersion._method_stencils(method, zeta, eps_n, 3)
    assert stencil.xy_symmetric(st)
    for theta in (0.0, 0.2, 0.5, 0.7):
        z1 = dispersion.solve_root(st, theta, zeta).z
        z2 = dispersion.solve_root(st, np.pi / 2 - theta, zeta).z
        assert abs(z1 - z2) <= 1e-10 * abs(z1)


def test_theta_sweep_solves_asymmetric_set_on_every_direction():
    # symbol (2 + 2a - zeta^2) - 2 cos(z cos theta) - 2a cos(z sin theta):
    # stiffer along x than along y, so z(theta) != z(pi/2 - theta)
    zeta, a = 0.5, 0.5
    weights = {
        (VERTEX, VERTEX): {
            (0, 0): 2 + 2 * a - zeta**2, (2, 0): -1.0, (-2, 0): -1.0, (0, 2): -a, (0, -2): -a,
        }
    }
    st = StencilSet("custom", zeta, None, None, (VERTEX,), weights)
    assert not stencil.xy_symmetric(st)
    sweep = dispersion.theta_sweep(st, n_theta=7)
    assert abs(sweep.z[-1] - sweep.z[0]) > 0.1
    for theta, z in zip(sweep.thetas, sweep.z):
        assert abs(z - dispersion.solve_root(st, theta, zeta).z) <= 1e-10 * abs(z)


def test_theta_sweep_warm_starts_a_direction_the_common_starts_miss():
    # r = 4 at zeta = 2.5 lies far above the resolved range: at theta = 10
    # degrees the root sits near 1.71 + 0.91i, which none of the common
    # starts reaches; the previous direction's root as an extra start does
    zeta = 2.5
    st = dispersion._method_stencils("dpg", zeta, 1e-6, 4)
    sweep = dispersion.theta_sweep(st, n_theta=19)
    theta = sweep.thetas[2]
    with pytest.raises(NoRootFound):
        dispersion.solve_root(st, theta, zeta)
    warm = dispersion.solve_root(st, theta, zeta, init=sweep.z[1])
    assert sweep.z[2] == pytest.approx(warm.z, rel=1e-12)


def test_theta_sweep_names_direction_without_root():
    # symbol 2 cos(z cos theta) - 2 cos(zeta): the root zeta / cos(theta)
    # leaves every zone as theta -> pi/2, where det F is constant
    zeta = 0.5
    weights = {(VERTEX, VERTEX): {(0, 0): -2 * np.cos(zeta), (2, 0): 1.0, (-2, 0): 1.0}}
    st = StencilSet("custom", zeta, None, None, (VERTEX,), weights)
    with pytest.raises(NoRootFound, match=r"for theta=1\.5707963267948966 \(custom\)"):
        dispersion.theta_sweep(st, n_theta=5)


def test_eps_zero_sweep_newton_steps():
    # on the eps_n = 0 stencil a start stops once |det F| reaches the
    # rounding error e; with a stop at the cofactor expansion's floor alone,
    # below e, three of these directions ran 41, 66 and 91 steps
    st = dispersion._method_stencils("dpg", 2 * np.pi / 64, 0.0, 3)
    sweep = dispersion.theta_sweep(st, 7)
    assert sweep.iters.max() <= 30


def _count_exact_evaluations(monkeypatch):
    evaluate = dispersion.SymbolMatrix.det_and_derivative_exact
    calls = [0]

    def counted(self, z, row):
        calls[0] += 1
        return evaluate(self, z, row)

    monkeypatch.setattr(dispersion.SymbolMatrix, "det_and_derivative_exact", counted)
    return calls


@pytest.mark.parametrize(
    "method,eps_n,polished",
    [("fosls", None, False), ("dpg", 1e-2, False), ("dpg", 1e-6, True)],
)
def test_polish_only_where_double_cannot_resolve(method, eps_n, polished, monkeypatch):
    # the simple roots of fosls and of dpg at eps_n = 1e-2 are certified in
    # double; at eps_n = 1e-6 the double roots sit about 2e-11 off, above
    # ROOT_ZTOL, so every direction still takes the extended polish: one
    # Newton step, which the Kantorovich bound settles without a second
    # evaluation, on each of the 7 directions solved (up to pi/4)
    zeta = np.pi / 4
    st = dispersion._method_stencils(method, zeta, eps_n, 3)
    calls = _count_exact_evaluations(monkeypatch)
    sweep = dispersion.theta_sweep(st, n_theta=13)
    assert np.all(sweep.polished == polished)
    assert calls[0] == (7 if polished else 0)


def _with_polish(monkeypatch, polish, solve):
    """``solve()`` with every polish done by ``polish``, and the (steps,
    30-digit evaluations) of each polish."""
    calls = _count_exact_evaluations(monkeypatch)
    record = []

    def spy(*args):
        before = calls[0]
        out = polish(*args)
        record.append((out[1], calls[0] - before))
        return out

    monkeypatch.setattr(dispersion, "_polish", spy)
    return solve(), record


def _sweep_1e6():
    sweep = dispersion.theta_sweep(dispersion._method_stencils("dpg", np.pi / 4, 1e-6, 3), 13)
    return sweep.z, sweep.iters


def _study_eps0():
    # the eps = 0 convergence study at levels 3 and 5 (omega = 1)
    zetas = 2 * np.pi / 2.0 ** np.array([3, 5])
    sets = [dispersion._method_stencils("dpg", zeta, 0.0, 3) for zeta in zetas]
    return dispersion._solve(dispersion.SymbolMatrix(sets, 0.0), zetas)[:2]


@pytest.mark.parametrize("solve,steps", [(_sweep_1e6, 1), (_study_eps0, 2)])
def test_polish_matches_two_evaluation_oracle(solve, steps, monkeypatch):
    # the Kantorovich stop skips only the evaluation that would confirm the
    # last step: z and the steps are the oracle's bit for bit, and a covered
    # polish makes one evaluation per step.  Every eps_n = 1e-6 root is one
    # step off; the level-5 eps = 0 candidates take two
    polish = dispersion._polish
    (z, iters), record = _with_polish(monkeypatch, polish, solve)
    (want_z, want_iters), want = _with_polish(monkeypatch, polish_two_evaluations, solve)
    assert z.tobytes() == want_z.tobytes()
    assert iters.tobytes() == want_iters.tobytes()
    assert [s for s, _ in record] == [s for s, _ in want]
    assert all(n == s + 1 for s, n in want)
    assert all(n in (s, s + 1) for s, n in record)
    assert (steps, steps) in record


def test_polish_falls_back_to_the_loop_on_nearly_double_root(monkeypatch):
    # a pair split by 1e-14: Newton only halves the error per step there,
    # so h = M |dz| / |g'| stays large and the bound covers no step of the
    # reported root, though it is finite.  The root comes from the loop: the
    # oracle's z, steps and 30-digit |det F|
    st = planted_pair_stencils(1e-14)
    res, _ = _with_polish(
        monkeypatch, dispersion._polish, lambda: dispersion.solve_root(st, 0.0, 0.7)
    )
    want, _ = _with_polish(
        monkeypatch, polish_two_evaluations, lambda: dispersion.solve_root(st, 0.0, 0.7)
    )
    assert res.polished and res == want
    curvature, _ = dispersion._curvature_bounds(dispersion.SymbolMatrix(st, 0.0), [res.z])
    assert np.isfinite(curvature[0])


def test_covered_polish_bounds_det_at_reported_root(monkeypatch):
    # where the bound settles the last step, det_abs is a Taylor bound on
    # |det F| at the reported double root, not a 30-digit value: check it
    # against det F there in 50 digits, on the 7 directions solved
    st = dispersion._method_stencils("dpg", np.pi / 4, 1e-6, 3)
    calls = _count_exact_evaluations(monkeypatch)
    sweep = dispersion.theta_sweep(st, n_theta=13)
    assert calls[0] == 7  # every polish covered
    for t in range(7):
        sym = dispersion.SymbolMatrix(st, sweep.thetas[t])
        with mp.workdps(50):
            g, _ = sym.det_and_derivative_exact(mp.mpc(complex(sweep.z[t])), 0)
        assert abs(g) <= sweep.det_abs[t] <= 1e-12 * sweep.scale[t]


def test_covered_polish_reports_real_root_real():
    # fem is lossless: where the Kantorovich bound settles the last step and
    # the conjugate of the bounded root lies in the same uniqueness disc,
    # the root is real and is reported with Im z = 0.0, as a double-certified
    # root near the axis is; its polish left Im z about 1e-30 to 1e-28
    band = dispersion.band_diagram("fem", zeta_max=0.15, zeta_step=0.05)
    assert np.all(band.z.imag == 0.0)
    st = dispersion._method_stencils("fem", 2 * np.pi / 128, None, None)
    sweep = dispersion.theta_sweep(st, 7)
    assert sweep.polished.any()
    assert np.all(sweep.z.imag == 0.0) and sweep.eta == 0.0
    # the dpg eps = 0 roots are complex, and polished, and stay complex
    z, _ = _study_eps0()
    assert np.all(z.imag > 0)


def planted_pair_stencils(split):
    # symbol (2 cos z - 2 cos 0.7)(2 cos z - 2 cos(0.7 + split)): a double
    # root at z = 0.7 for split = 0, two simple real roots otherwise
    a, b = 2 * np.cos(0.7), 2 * np.cos(0.7 + split)
    weights = {
        (VERTEX, VERTEX): {
            (0, 0): 2.0 + a * b, (2, 0): -(a + b), (-2, 0): -(a + b), (4, 0): 1.0, (-4, 0): 1.0,
        }
    }
    return StencilSet("custom", 0.7, None, None, (VERTEX,), weights)


def test_double_check_refuses_double_root(monkeypatch):
    # det F' vanishes at a double root, so the double error estimate fails
    # and only the extended polish can certify it
    calls = _count_exact_evaluations(monkeypatch)
    res = dispersion.solve_root(planted_pair_stencils(0.0), 0.0, 0.7)
    assert res.polished
    assert calls[0] > 0
    assert abs(res.z - 0.7) <= 1e-7


def test_double_check_accepts_split_pair():
    # split by 1e-2, far beyond the certificate circle of radius 1e-6 |z|:
    # the root at 0.7 is simple and resolved in double
    res = dispersion.solve_root(planted_pair_stencils(1e-2), 0.0, 0.7)
    assert not res.polished
    assert res.z.real == pytest.approx(0.7, abs=1e-13)
    assert res.z.imag == 0.0
    assert res.det_abs == abs(dispersion.SymbolMatrix(planted_pair_stencils(1e-2), 0.0).det(res.z))


def test_dpg_small_eps_strict_certificate():
    zeta = 2 * np.pi / 16
    st = stencil.extract_stencils("dpg", zeta, 1e-6, 3, normalize=False)
    res = dispersion.solve_root(st, 0.0, zeta)
    assert res.det_abs <= 1e-12 * res.scale
    resid, _ = dispersion.ansatz_residual(st, 0.0, res.z)
    assert resid <= 1e-8 * max(st.max_abs(t) for t in st.types)
    assert res.z.imag > 0


def test_epsilon_r_sweep_smoke():
    rows = dispersion.epsilon_r_sweep(
        zeta=np.pi / 4, eps_values=(1.0,), r_values=(2,), n_theta=5
    )
    assert [row.r for row in rows] == [2, None, None]
    methods = [row.method for row in rows]
    assert methods == ["dpg", "fem", "fosls"]
    for row in rows:
        assert row.zeta == pytest.approx(np.pi / 4)
        assert np.isfinite(row.rho) and np.isfinite(row.eta)
        assert row.eta >= 0
