import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from oracles import band_diagram_sequential, convergence_roots_sequential

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
            g, gp = sym.det_and_derivative_exact(z)
            want = _direct_det(st, theta, z)
            fd = (_direct_det(st, theta, z + h) - _direct_det(st, theta, z - h)) / (2 * h)
            assert abs(g - want) <= mp.mpf("1e-22") * abs(want)
            assert abs(gp - fd) <= mp.mpf("1e-12") * abs(fd)


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

    def spy(sym, zeta, starts):
        if np.size(zeta) == 1:
            resolved.append(float(zeta))
        return solve(sym, zeta, starts)

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
            np.testing.assert_allclose(got, want, rtol=1e-13)
    sub = sym.take([2, 0])
    np.testing.assert_allclose(sub.value(z[[2, 0]]), sym.value(z)[[2, 0]], rtol=0)
    with pytest.raises(ValueError, match="offset table"):
        dispersion.SymbolMatrix([sets[0], second_difference_stencils(0.5)], 0.0)


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
    z, iters, stopped = dispersion._newton(dispersion.SymbolMatrix(st, 0.0), [non_root], 1.0)
    assert stopped[0] and z[0] == non_root and iters[0] == 0
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
        z, _, _ = dispersion._polish(sym, z0)
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

    def counted(self, z):
        calls[0] += 1
        return evaluate(self, z)

    monkeypatch.setattr(dispersion.SymbolMatrix, "det_and_derivative_exact", counted)
    return calls


@pytest.mark.parametrize(
    "method,eps_n,polished",
    [("fosls", None, False), ("dpg", 1e-2, False), ("dpg", 1e-6, True)],
)
def test_polish_only_where_double_cannot_resolve(method, eps_n, polished, monkeypatch):
    # the simple roots of fosls and of dpg at eps_n = 1e-2 are certified in
    # double; at eps_n = 1e-6 the double roots sit about 2e-11 off, above
    # ROOT_ZTOL, so every direction still takes the extended polish
    zeta = np.pi / 4
    st = dispersion._method_stencils(method, zeta, eps_n, 3)
    calls = _count_exact_evaluations(monkeypatch)
    sweep = dispersion.theta_sweep(st, n_theta=13)
    assert np.all(sweep.polished == polished)
    if polished:
        assert calls[0] >= sweep.z.size
    else:
        assert calls[0] == 0


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
