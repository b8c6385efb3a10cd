import mpmath as mp
import numpy as np
import pytest

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
        g, gp = sym.det_and_derivative(z)
        assert g == pytest.approx(sym.det(z), rel=1e-13)
        d = 1e-6
        fd = (sym.det(z + d) - sym.det(z - d)) / (2 * d)
        assert gp == pytest.approx(fd, rel=2e-6)
    # one batched evaluation gives every point's scalar result
    g, gp = sym.det_and_derivative(zs)
    f, df = sym.value_and_derivative(zs)
    assert g.shape == gp.shape == (3,) and f.shape == df.shape == (3, 3, 3)
    for i, z in enumerate(zs):
        assert g[i] == sym.det_and_derivative(z)[0]
        assert gp[i] == sym.det_and_derivative(z)[1]
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


def test_theta_sweep_fem_below_cutoff():
    st = stencil.extract_stencils("fem", 0.5, normalize=False)
    sweep = dispersion.theta_sweep(st, n_theta=25)
    assert sweep.z.shape == (25,)
    assert sweep.eta <= 1e-12
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


def test_dpg_limit_small_frequency_consistency():
    # The dissipation-free limit produces nearly double roots, so the
    # certificate here is the floor level rather than the strict one.
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
        g, gp = exact(self, z)
        return np.where(z == non_root, 0.0, g), gp

    monkeypatch.setattr(dispersion.SymbolMatrix, "det_and_derivative", noisy)
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
    # eps_n = 1e-6 no start passes the strict test: with such starts and no
    # stop at the rounding floor this sweep made 88 and 178 batched double
    # evaluations per root
    zeta = np.pi / 4
    st = stencil.extract_stencils("dpg", zeta, eps_n, 3, normalize=False)
    evaluate = dispersion.SymbolMatrix.value_and_derivative
    calls = 0

    def counted(self, z):
        nonlocal calls
        calls += 1
        return evaluate(self, z)

    monkeypatch.setattr(dispersion.SymbolMatrix, "value_and_derivative", counted)
    sweep = dispersion.theta_sweep(st, n_theta=13)
    assert np.all(sweep.z.imag > 0)
    assert calls <= 30 * sweep.z.size


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
