"""Tests for element matrices: DPG, condensation, and the two baselines."""

import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from helmdpg import dispersion, stencil
from helmdpg import localforms as lf
from helmdpg import numkit, refelem
from helmdpg.errors import DimensionMismatch, InteriorBlockSingular, NotPositiveDefinite, OutsideEnvelope
from helmdpg.localforms import NormalizedParams
from helmdpg.numkit import Precision, as_complex128, working_context

from oracles import (
    condense_ldl,
    dpg_element_physical,
    fraction_element,
    ldlh_factor,
    ldlh_solve,
    max_abs,
    min_eigenvalue_bound,
    quadrature_couplings,
    quadrature_gram,
    real_gram,
    real_load,
    round_fractions,
)

EXT30 = Precision.extended(30)


def _resid(elem):
    """max|G X - Bb| / max|Bb| evaluated in the element's own precision."""
    with working_context(elem.precision_used):
        r = elem.G @ elem.X - elem.Bb
    return max_abs(r) / max_abs(elem.Bb)


# --------------------------------------------------------------- dpg_element


def test_dpg_element_shapes_and_rank():
    e = lf.dpg_element(NormalizedParams(np.pi / 4, 0.5, 2))
    assert e.G.shape == (21, 21)
    assert e.Bb.shape == (21, 11)
    assert e.B.shape == (11, 11)
    assert np.linalg.matrix_rank(as_complex128(e.B), tol=1e-10) == 11


@pytest.mark.parametrize("omega_n,eps_n,r", [(0.3, 1.0, 2), (np.pi / 4, 1e-3, 2), (2.0, 1.0, 3)])
def test_riesz_solve_residual_and_psd(omega_n, eps_n, r):
    e = lf.dpg_element(NormalizedParams(omega_n, eps_n, r))
    assert _resid(e) <= 1e-10
    b = as_complex128(e.B)
    assert numkit.hermitian_error(b) <= 1e-10
    assert min_eigenvalue_bound(b) >= -1e-10 * np.linalg.norm(b)


def test_constant_solution_consistency():
    # For element-constant fields (u1, u2, phi) with their exact traces, the
    # variational identity b(w, v_k) = (f, v_k) with f = (i w u, i w phi)
    # must hold for every test function: this pins down every sign and
    # orientation in Bb at once.
    rng = np.random.default_rng(8)
    omega_n = 1.3
    params = NormalizedParams(omega_n, 0.7, 3)
    e = lf.dpg_element(params)
    basis = refelem.build_test_basis(3)
    rule = refelem.default_rule(3)
    tab = refelem.tabulate_test_basis(basis, rule)
    w = rule.weights
    for _ in range(3):
        u1, u2, ph = (rng.standard_normal(2) @ [1, 1j] for _ in range(3))
        c = np.zeros(11, dtype=complex)
        c[0], c[1], c[2] = u1, u2, ph
        c[3:7] = ph                      # vertex traces of a constant
        c[7] = c[8] = u2                 # horizontal-edge fluxes carry u.(0,1)
        c[9] = c[10] = u1                # vertical-edge fluxes carry u.(1,0)
        lhs = as_complex128(e.Bb) @ c
        f1, f2, f3 = 1j * omega_n * u1, 1j * omega_n * u2, 1j * omega_n * ph
        rhs = (f1 * tab.vx + f2 * tab.vy + f3 * tab.eta) @ w
        assert np.allclose(lhs, rhs, atol=1e-13 * max(1.0, np.abs(rhs).max()))


def test_linear_phi_consistency():
    # phi = alpha + beta x + gamma y with constant u: the trace columns of Bb
    # must complete the directly-integrated field pairing to (f, v_k).
    rng = np.random.default_rng(9)
    omega_n = 0.9
    e = lf.dpg_element(NormalizedParams(omega_n, 1.0, 2))
    basis = refelem.build_test_basis(2)
    rule = refelem.default_rule(2)
    tab = refelem.tabulate_test_basis(basis, rule)
    w = rule.weights
    x, y = rule.points[:, 0], rule.points[:, 1]
    al, be, ga = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = al + be * x + ga * y
    a1 = 1j * omega_n * tab.vx + tab.eta_x
    a2 = 1j * omega_n * tab.vy + tab.eta_y
    a3 = 1j * omega_n * tab.eta + tab.div
    field_pair = -((u[0] * a1.conj() + u[1] * a2.conj() + phi[None, :] * a3.conj()) @ w)
    c_tr = np.zeros(11, dtype=complex)
    for a, (va, vb) in enumerate(refelem.VERTICES_CCW):
        c_tr[3 + a] = al + be * va + ga * vb
    c_tr[7] = c_tr[8] = u[1]
    c_tr[9] = c_tr[10] = u[0]
    lhs = field_pair + as_complex128(e.Bb) @ c_tr
    f1 = 1j * omega_n * u[0] + be
    f2 = 1j * omega_n * u[1] + ga
    f3 = 1j * omega_n * phi
    rhs = (f1 * tab.vx + f2 * tab.vy + f3[None, :] * tab.eta) @ w
    assert np.allclose(lhs, rhs, atol=1e-13 * max(1.0, np.abs(rhs).max()))


def test_extended_riesz_residual_small_eps():
    e = lf.dpg_element(NormalizedParams(np.pi / 4, 1e-6, 2))
    assert e.precision_used.is_extended
    assert _resid(e) <= 1e-10


@pytest.mark.parametrize("eps_n", [-1e-3, float("nan"), float("inf")])
def test_normalized_params_rejects_bad_eps(eps_n):
    with pytest.raises(ValueError, match="eps_n must be nonnegative"):
        NormalizedParams(1.0, eps_n, 3)


@pytest.mark.parametrize("omega_n", [0.0, -1.0, float("nan"), float("inf")])
def test_normalized_params_rejects_bad_omega(omega_n):
    with pytest.raises(ValueError, match="omega_n must be positive"):
        NormalizedParams(omega_n, 1e-2, 3)
    with pytest.raises(ValueError, match="omega_n must be positive"):
        lf.fosls_element(omega_n)
    with pytest.raises(ValueError, match="omega_n must be positive"):
        lf.fem_element(omega_n)


def _is_int_array(a):
    return all(type(v) is int for v in np.asarray(a).ravel())


@pytest.mark.parametrize("omega_n,eps_n", [(2 * np.pi / 64, 0.0), (1.3, 0.3)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_real_gram_matches_quadrature_gram(r, omega_n, eps_n):
    # the integer numerator matrix over its scale, G_R = sG / s
    sG, s = lf._scaled_gram(NormalizedParams(omega_n, eps_n, r))
    assert _is_int_array(sG) and type(s) is int and s > 0
    assert (sG == sG.T).all()
    u = lf._test_phases(r)
    ref = quadrature_gram(omega_n, eps_n, r, EXT30)
    with working_context(EXT30):
        defect = numkit.rounded(sG, s, np.outer(u, u.conj()), EXT30) - ref
    assert max_abs(defect) <= 1e-28 * max_abs(ref)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_real_load_matches_quadrature_couplings(r):
    # the closed-form P + omega_n Q, as tBb / t, against 30-digit volume and
    # edge quadrature
    params = NormalizedParams(1.3, 0.3, r)
    tBb, t = lf._scaled_load(params)
    assert _is_int_array(tBb) and type(t) is int and t > 0
    u = lf._test_phases(r)
    ref = quadrature_couplings(1.3, r, EXT30)
    with working_context(EXT30):
        defect = numkit.rounded(tBb, t, np.outer(u, lf.TRIAL_PHASES.conj()), EXT30) - ref
    assert max_abs(defect) <= 1e-28 * max_abs(ref)


def test_load_parts_cached_and_read_only():
    P, Q, P64 = lf._load_parts(3)
    assert lf._load_parts(3)[0] is P
    assert not any(m.flags.writeable for m in (P, Q, P64))
    # Q: one 1 per field constant, on an entry where P is 0
    assert Q.sum() == 3 and (Q[:, :3].sum(axis=0) == 1).all()
    assert all(P[k, c] == 0 for k, c in zip(*np.nonzero(Q)))


def test_integer_parts_cached_and_read_only():
    D, A, d, dP = lf._integer_parts(3)
    assert lf._integer_parts(3)[1] is A
    assert not any(m.flags.writeable for m in (A, dP))
    assert _is_int_array(A) and _is_int_array(dP)
    dim = refelem.build_test_basis(3).dim
    assert A.shape == (4, dim, dim) and (A == A.transpose(0, 2, 1)).all()
    # the parts recombine into the Fraction Gram and load at a dyadic point
    params = NormalizedParams(0.375, 0.25, 3)
    w, e = Fraction(0.375), Fraction(0.25)
    gram = (A[0] + w * A[1] + w * w * A[2] + e * e * A[3]) / Fraction(D)
    assert (gram == real_gram(params)).all()
    assert (dP / Fraction(d) == lf._load_parts(3)[0]).all()


@pytest.mark.parametrize("omega_n,r", [(1.3, 2), (np.pi / 4, 3), (2 * np.pi / 64, 3), (0.1, 4), (np.pi / 4, 5)])
def test_double_load_is_the_rounded_closed_form(omega_n, r):
    # the QR route solves with the phases times the closed form rounded
    # once, entry by entry; a double quadrature misses it by up to 1.3e-15
    params = NormalizedParams(omega_n, 1e-6, r)
    phases = np.outer(lf._test_phases(r), lf.TRIAL_PHASES.conj())
    want = np.array([float(v) for v in real_load(params).ravel()]).reshape(phases.shape) * phases
    got = lf._double_load(params)
    assert got.dtype == complex
    assert (got == want).all()


@pytest.mark.parametrize("r,omega_n", [(3, 2 * np.pi / 64), (3, 2 * np.pi / 128), (4, 2 * np.pi / 64)])
def test_exact_element_against_50_digit_oracle(r, omega_n):
    # eps_n = 0, Gram condition estimates 6.6e22, 2.6e26 and 4.9e29: the exact
    # B and the 50-digit physical assembly round to the same doubles up to
    # 1.2e-53 here; the 30-digit element missed by 1.5e-14, 6.0e-10 and 5.8e-7
    b = as_complex128(lf.dpg_element(NormalizedParams(omega_n, 0.0, r)).B)
    ref = dpg_element_physical(omega_n, 0.0, 1.0, r, Precision.extended(50))
    assert np.linalg.norm(b - ref) <= 1e-15 * np.linalg.norm(ref)


#: (r, omega_n, eps_n): eps_n = 0 at small omega_n, where element_kit takes
#: the exact element, and eps_n > 0 at large omega_n
FRACTION_GRID = [
    (2, 2 * np.pi / 64, 0.0),
    (2, 1.3, 0.3),
    (3, 2 * np.pi / 32, 0.0),
    (3, 2 * np.pi / 128, 0.0),
    (3, 0.5, 0.5),
    (4, 2 * np.pi / 64, 0.0),
    (4, np.pi / 4, 1e-6),
    (5, 2 * np.pi / 64, 0.0),
]


@pytest.mark.parametrize("r,omega_n,eps_n", FRACTION_GRID)
def test_exact_element_matches_fraction_route(r, omega_n, eps_n):
    # the integer solve and the Fraction LDL^T solve give the same rationals,
    # so every entry of G, Bb, X and B rounds alike in every precision
    G_R, Bb_R, X_R, B_R = fraction_element(NormalizedParams(omega_n, eps_n, r))
    u, t = lf._test_phases(r), lf.TRIAL_PHASES
    phases = [np.outer(a, b.conj()) for a, b in ((u, u), (u, t), (u, t), (t, t))]
    for precision in (Precision.double(), EXT30, Precision.extended(50)):
        e = lf.dpg_element(NormalizedParams(omega_n, eps_n, r, precision=precision))
        for name, got, exact, ph in zip("G Bb X B".split(), (e.G, e.Bb, e.X, e.B),
                                        (G_R, Bb_R, X_R, B_R), phases):
            assert (got == round_fractions(exact, ph, precision)).all(), (name, precision)


@pytest.mark.parametrize("seed", range(6))
def test_bareiss_solve_matches_fraction_ldl(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    k = rng.integers(-50, 51, (n + 2, n)).astype(object) * 10**int(rng.integers(0, 30))
    a = k.T @ k + np.eye(n, dtype=int).astype(object)
    b = rng.integers(-10**6, 10**6, (n, m)).astype(object)
    N, det = lf._bareiss_solve(a.tolist(), b.tolist())
    assert type(det) is int and det > 0
    assert all(type(v) is int for row in N for v in row)
    L, d = ldlh_factor(a + Fraction(0))
    assert det == np.prod(d)
    assert (np.array(N, dtype=object) / Fraction(det) == ldlh_solve(L, d, b + Fraction(0))).all()


@pytest.mark.parametrize("a,index", [
    ([[1, 2], [2, 1]], 1),                     # indefinite
    ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], 1),    # singular
    ([[-1, 0], [0, 1]], 0),
    ([[10**16, 0], [0, 1]], 1),                # pivot 1e-16 of the largest diagonal entry
])
def test_bareiss_solve_rejects_what_ldl_rejects(a, index):
    b = [[1] for _ in a]
    with pytest.raises(NotPositiveDefinite, match=f"at index {index} "):
        ldlh_factor(np.array(a, dtype=object) + Fraction(0))
    with pytest.raises(NotPositiveDefinite, match=f"at index {index} "):
        lf._bareiss_solve(a, b)


def test_bareiss_solve_keeps_pivots_above_tolerance():
    # pivot 1e-13 of the largest diagonal entry passes in both kernels
    a = np.array([[10**13, 0], [0, 1]], dtype=object)
    N, det = lf._bareiss_solve(a.tolist(), [[1], [1]])
    L, d = ldlh_factor(a + Fraction(0))
    assert det == np.prod(d) and N == [[1], [10**13]]


# --------------------------------------------------------------- scaling law


@pytest.mark.parametrize("seed", [0, 1])
def test_scaling_law_double(seed):
    rng = np.random.default_rng(seed)
    for r in (2, 3):
        omega_h = rng.uniform(0.1, 3.0)
        eps_h = 10.0 ** rng.uniform(-2.5, 0)
        h = rng.uniform(0.05, 0.9)
        omega, eps = omega_h / h, eps_h / h
        ref = lf.dpg_element(NormalizedParams(omega_h, eps_h, r, precision=Precision.double()))
        b_scaled = lf.scale_to_physical(as_complex128(ref.B), h)
        b_direct = dpg_element_physical(omega, eps, h, r)
        assert np.linalg.norm(b_direct - b_scaled) <= 1e-10 * np.linalg.norm(b_direct)


def test_scaling_law_extended():
    ref = lf.dpg_element(NormalizedParams(0.7, 1e-5, 2, precision=EXT30))
    h = 0.125
    b_scaled = lf.scale_to_physical(as_complex128(ref.B), h)
    b_direct = dpg_element_physical(0.7 / h, 1e-5 / h, h, 2, EXT30)
    assert np.linalg.norm(b_direct - b_scaled) <= 1e-10 * np.linalg.norm(b_direct)


def test_scale_to_physical_validates():
    with pytest.raises(ValueError):
        lf.scale_to_physical(np.eye(11, dtype=complex), 0.0)


# --------------------------------------------------------------- condensation


def test_condense_block_diagonal():
    m = np.zeros((11, 11), dtype=complex)
    m[:3, :3] = np.eye(3)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    s_part = a.conj().T @ a + np.eye(8)
    m[3:, 3:] = s_part
    c = lf.condense(m)
    assert np.allclose(c.S, s_part, atol=1e-14)
    assert np.allclose(c.recovery, 0.0, atol=1e-14)


def test_condense_matches_lapack_schur():
    e = lf.dpg_element(NormalizedParams(1.1, 0.9, 2))
    b = as_complex128(e.B)
    c = lf.condense(e.B)
    schur = b[3:, 3:] - b[3:, :3] @ np.linalg.solve(b[:3, :3], b[:3, 3:])
    assert np.linalg.norm(c.S - schur) <= 1e-10 * np.linalg.norm(schur)
    assert min_eigenvalue_bound(c.S) >= -1e-10 * np.linalg.norm(c.S)


def test_condense_energy_minimization():
    # x_T^H S x_T equals the minimum over interior values of the full
    # quadratic form; the recovered interior is the minimizer.
    e = lf.dpg_element(NormalizedParams(0.8, 0.6, 2))
    b = as_complex128(e.B)
    c = lf.condense(e.B)
    rng = np.random.default_rng(12)
    x_t = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x_i = c.recovery @ x_t

    def energy(xi):
        z = np.concatenate([xi, x_t])
        return (z.conj() @ b @ z).real

    e_min = energy(x_i)
    s_energy = (x_t.conj() @ c.S @ x_t).real
    assert abs(e_min - s_energy) <= 1e-10 * max(1.0, abs(s_energy))
    # independent minimization: LAPACK solve of the stationarity system
    x_i_lapack = -np.linalg.solve(b[:3, :3], b[:3, 3:] @ x_t)
    assert abs(energy(x_i_lapack) - s_energy) <= 1e-10 * max(1.0, abs(s_energy))
    for _ in range(50):
        dz = 1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert energy(x_i + dz) >= e_min - 1e-12 * max(1.0, abs(e_min))


def test_condense_shape_and_singular_checks():
    with pytest.raises(DimensionMismatch):
        lf.condense(np.eye(8, dtype=complex))
    singular = np.zeros((11, 11), dtype=complex)
    singular[3:, 3:] = np.eye(8)
    with pytest.raises(InteriorBlockSingular):
        lf.condense(singular)


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_condense_matches_ldl_route(r):
    # the closed-form inverse of the interior block against its LDL^H
    # factorization, on every double-route kit of a grid of frequencies and
    # eps_n / omega_n (the largest changes seen are 1.9e-16, 3.9e-16, 3.1e-16)
    kits = 0
    for omega_n in (0.3, np.pi / 4, 1.7):
        for ratio in (1.0, 1e-2, 1e-6, 0.0):
            try:
                *_, B, _, _ = lf._qr_riesz(NormalizedParams(omega_n, ratio * omega_n, r))
            except OutsideEnvelope:
                continue
            if B is None:
                continue
            kits += 1
            got, want = lf.condense(B), condense_ldl(B)
            for name in ("S", "recovery", "interior_inv"):
                assert _max_rel(getattr(got, name), getattr(want, name)) <= 1e-15, (omega_n, ratio, name)
    assert kits >= 6


def test_condense_exact_matches_ldl_route():
    # the exact element's interior block is diagonal by reflection parity,
    # so both inversions give the same 30-digit Schur complement
    params = NormalizedParams(2 * np.pi / 64, 0.0, 3)
    assert lf.element_kit(params).precision_used.is_extended
    B = lf.dpg_element(params).B
    got, want = lf.condense(B), condense_ldl(B)
    assert got.S_exact.shape == (8, 8)
    assert all(a == b for a, b in zip(got.S_exact.flat, want.S_exact.flat))


@pytest.mark.parametrize("block,index", [
    ([[0, 0, 0], [0, 1, 0], [0, 0, 1]], 0),
    ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], 1),
    ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 2),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1e-15]], 2),   # pivot 1e-15 of the largest diagonal entry
])
@pytest.mark.parametrize("extended", [False, True])
def test_condense_rejects_singular_interior_pivot(block, index, extended):
    b = np.zeros((11, 11), dtype=complex)
    b[:3, :3] = block
    b[3:, 3:] = np.eye(8)
    if extended:
        with working_context(EXT30):
            b = np.frompyfunc(mp.mpc, 1, 1)(b)
    for route in (lf.condense, condense_ldl):
        with pytest.raises(InteriorBlockSingular, match=f"at index {index} "):
            route(b)


def test_reconstruction_identity():
    # eliminating then recovering reproduces the full solution of B z = rhs
    e = lf.dpg_element(NormalizedParams(1.4, 0.8, 2))
    b = as_complex128(e.B)
    c = lf.condense(e.B)
    rng = np.random.default_rng(21)
    rhs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    z = np.linalg.solve(b, rhs)
    rhs_cond = rhs[3:] + c.recovery.conj().T @ rhs[:3]
    x_t = np.linalg.solve(c.S, rhs_cond)
    x_i = c.recovery @ x_t + c.interior_inv @ rhs[:3]
    assert np.allclose(np.concatenate([x_i, x_t]), z, atol=1e-10 * np.linalg.norm(z))


# ------------------------------------------------------------------ baselines


def test_fosls_element_symbolic_entries():
    # frozen from the symbolic integrals of (A e_j, A e_i) on the unit square
    w = 1.7
    m = lf.fosls_element(w).M
    assert abs(m[0, 0] - (2 / 3 + w**2 / 9)) < 1e-13
    assert abs(m[0, 4]) < 1e-13
    assert abs(m[0, 5] - (-1j * w / 2)) < 1e-13
    assert abs(m[4, 4] - (1 + w**2 / 3)) < 1e-13
    assert abs(m[0, 1] - (-1 / 6 + w**2 / 18)) < 1e-13
    assert abs(m[4, 5] - (-1 + w**2 / 6)) < 1e-13
    assert abs(m[4, 6] - 1.0) < 1e-13
    assert numkit.hermitian_error(m) < 1e-14
    assert min_eigenvalue_bound(m) >= -1e-12 * np.linalg.norm(m)


def test_fosls_element_positive_definite():
    # A is injective on the conforming pair for omega > 0, so M is PD
    m = lf.fosls_element(0.9).M
    assert min_eigenvalue_bound(m) > 0


def test_fem_element_closed_form():
    w = 1.3
    k = lf.fem_element(w)
    stiff = np.array(
        [
            [2 / 3, -1 / 6, -1 / 3, -1 / 6],
            [-1 / 6, 2 / 3, -1 / 6, -1 / 3],
            [-1 / 3, -1 / 6, 2 / 3, -1 / 6],
            [-1 / 6, -1 / 3, -1 / 6, 2 / 3],
        ]
    )
    mass = np.array(
        [
            [1 / 9, 1 / 18, 1 / 36, 1 / 18],
            [1 / 18, 1 / 9, 1 / 18, 1 / 36],
            [1 / 36, 1 / 18, 1 / 9, 1 / 18],
            [1 / 18, 1 / 36, 1 / 18, 1 / 9],
        ]
    )
    assert np.allclose(k, stiff - w**2 * mass, atol=1e-14)
    # stiffness rows sum to zero: constants are in the kernel at omega = 0
    assert np.allclose(lf.fem_element(1e-8).sum(axis=1), 0.0, atol=1e-14)


def test_baseline_elements_fresh_from_cached_parts():
    # fem and fosls elements come from cached, read-only rule tables, yet
    # every call returns new arrays, bit for bit the quadrature formula
    w = 1.3
    rule = numkit.tensor_rule(3)
    tab = refelem.tabulate_conforming_basis(rule)
    gx, gy, q, wt = tab.eta_x[:4], tab.eta_y[:4], tab.eta[:4], rule.weights[None, :]
    stiff = (gx * wt) @ gx.T + (gy * wt) @ gy.T
    mass = (q * wt) @ q.T
    first, second = lf.fem_element(w), lf.fem_element(w)
    np.testing.assert_array_equal(first, (stiff - w**2 * mass).astype(complex))
    np.testing.assert_array_equal(first, second)
    first[0, 0] = 7.0
    assert not np.shares_memory(first, second) and second[0, 0] != 7.0
    np.testing.assert_array_equal(lf.fem_element(w), second)

    rule = numkit.tensor_rule(4)
    tab = refelem.tabulate_conforming_basis(rule)
    images = lf.conforming_a_images(tab, w)
    m = np.zeros((8, 8), dtype=complex)
    for ac in images:
        m += (ac.conj() * rule.weights[None, :]) @ ac.T
    first, second = lf.fosls_element(w), lf.fosls_element(w)
    for got in (first, second):
        np.testing.assert_array_equal(got.M, m)
        for a, b in zip((got.a1, got.a2, got.a3), images):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got.tab.rule.points, rule.points)
        np.testing.assert_array_equal(got.tab.eta, tab.eta)
    for name in ("M", "a1", "a2", "a3"):
        assert not np.shares_memory(getattr(first, name), getattr(second, name))
    assert not first.tab.eta.flags.writeable and not first.tab.rule.weights.flags.writeable


def test_element_kit_cached_and_downcast():
    p = NormalizedParams(0.77, 0.4, 2)
    k1 = lf.element_kit(p)
    k2 = lf.element_kit(p)
    assert k1 is k2
    assert k1.S.dtype == complex and k1.S.shape == (8, 8)
    assert k1.xh.shape == (11, 21)
    # the kits of one r share one read-only test tabulation
    k3 = lf.element_kit(NormalizedParams(0.5, 0.3, 2))
    assert k3.tab is k1.tab and not k1.tab.vx.flags.writeable


# ------------------------------------------------------- kit against 30 digits

KIT_GRID = [
    (r, omega_n, eps_n)
    for r in (2, 3)
    for omega_n in (np.pi / 4, 2 * np.pi / 64)
    for eps_n in (1e-2, 1e-4, 1e-6, 0.0)
] + [(4, np.pi / 4, 1e-6)]

#: the grid points whose Gram condition estimate exceeds the double limit
KIT_EXTENDED = {(3, 2 * np.pi / 64, 0.0)}


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("r,omega_n,eps_n", KIT_GRID)
def test_element_kit_matches_30_digit_element(r, omega_n, eps_n):
    kit = lf.element_kit(NormalizedParams(omega_n, eps_n, r))
    extended = (r, omega_n, eps_n) in KIT_EXTENDED
    assert kit.precision_used.is_extended == extended
    assert (kit.cond > lf.DOUBLE_COND_LIMIT) == extended
    ref = lf.dpg_element(NormalizedParams(omega_n, eps_n, r, precision=EXT30))
    assert _rel(kit.B, as_complex128(ref.B)) <= 1e-10
    assert _rel(kit.S, lf.condense(ref.B).S) <= 1e-10
    assert _rel(kit.xh, as_complex128(ref.X).conj().T) <= 1e-10


def test_element_kit_sweep_roots_match_30_digit_kits(monkeypatch):
    zeta = 2 * np.pi / 8

    def sweep():
        st = stencil.extract_stencils("dpg", zeta, 1e-6, 3, normalize=False)
        return st, dispersion.theta_sweep(st, 13).z

    st, double = sweep()
    assert st.exact is None
    # a zero limit sends every element down the kit's 30-digit fallback
    monkeypatch.setattr(lf, "DOUBLE_COND_LIMIT", 0.0)
    lf.element_kit.cache_clear()
    try:
        st, extended = sweep()
    finally:
        lf.element_kit.cache_clear()
    assert st.exact is not None
    assert np.max(np.abs(double - extended)) <= 1e-10


def test_element_kit_rejects_pinned_precision():
    for prec in (EXT30, Precision.double()):
        with pytest.raises(ValueError, match="dpg_element"):
            lf.element_kit(NormalizedParams(0.77, 0.4, 2, precision=prec))


def test_element_kit_rejects_envelope_edge():
    # estimate 4.9e29: the 30-digit B would differ from a 50-digit one by 2.5e-6
    with pytest.raises(OutsideEnvelope, match=r"exceeds 1e\+27"):
        lf.element_kit(NormalizedParams(2 * np.pi / 64, 0.0, 4))


def test_element_kit_rejects_outside_envelope():
    # the 30-digit route spends seconds here before a pivot fails; the
    # envelope check must answer first.  The eps_n = 1e-2 element loads the
    # r = 5 tables and LAPACK code once, so the timing sees only the check.
    assert not lf.element_kit(NormalizedParams(2 * np.pi / 64, 1e-2, 5)).precision_used.is_extended
    t0 = time.perf_counter()
    with pytest.raises(OutsideEnvelope, match="exceeds 1e"):
        lf.element_kit(NormalizedParams(2 * np.pi / 64, 0.0, 5))
    assert time.perf_counter() - t0 < 1.0
