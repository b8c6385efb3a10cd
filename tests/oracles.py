"""Independent routes and test-only helpers used as oracles by the test suite.

The physical-element assembly below integrates directly over the square
[0, h]^2 (physical weights, chain-rule derivatives) instead of going through
the normalized reference computation, so agreement with
``scale_to_physical(dpg_element(...), h)`` genuinely checks the scaling law
rather than restating it.  Its two halves are the second route to the
element's exact parts: :func:`quadrature_gram`, the complex test Gram by 2D
tensor quadrature, against which the real Gram from 1D Legendre integrals is
checked, and :func:`quadrature_couplings`, the trial-test couplings by
volume and edge quadrature (edge tables from :func:`edge_traces` and
:func:`hat_traces`), against which the closed-form couplings are checked.
Both run in double on the package's rules or in mpmath on the extended Gauss
rule of :func:`gauss_legendre_1d`, solving with :func:`hermitian_solve`.
:func:`min_eigenvalue_bound` certifies positive semidefiniteness by shifted
factorizations, and :func:`tabulate_test_at` tabulates the test basis at
arbitrary points.  :func:`assemble_global` is the second route to the mesh
solves' trace system: a sparse sum of one dense block per element, which
the solver itself never forms.  The pointwise closures of
:func:`pointwise_manufactured` and :func:`pointwise_plane_wave`, evaluated
at every quadrature point of every element, are the second route to the
mesh loads and error measures, which the solver forms from per-axis tables
of the factor-form fields; :func:`amplitude_metric_loop` is the
window-by-window route to ``assembly.amplitude_metric``.
:func:`band_diagram_sequential` and :func:`convergence_roots_sequential`
are the point-by-point routes to ``dispersion.band_diagram`` and
``dispersion.convergence_study``: one ``solve_root`` per frequency point,
each band point continued from the previous root, where the package
solves all points as rows of one symbol.
"""

import math

import mpmath as mp
import numpy as np
import scipy.sparse as sp

from helmdpg import dispersion, numkit, refelem
from helmdpg.errors import DimensionMismatch, NoRootFound, NotHermitian
from helmdpg.numkit import (
    Precision,
    QuadratureRule,
    as_complex128,
    hermitian_error,
    ldlh_factor,
    ldlh_solve,
    working_context,
)
from helmdpg.refelem import BOTTOM, EDGE_SIGNS, LEFT, RIGHT, TOP, TRIAL_DIM

#: reference edges in the order of the trial fluxes and the condensed traces
EDGES = (BOTTOM, TOP, LEFT, RIGHT)

DOUBLE = Precision.double()

#: Relative tolerance for the Hermitian symmetry check.
HERMITIAN_RTOL = 1e-12


def gauss_legendre_1d(n: int, digits: int):
    """The n-point Gauss-Legendre rule on [0, 1] in ``digits``-digit mpmath.

    The same Newton iteration as :func:`helmdpg.numkit.gauss_legendre_1d`,
    run at ``digits + 10`` digits to a step below 10^-(digits+2) of the node.
    Returns ``(nodes, weights)`` as object arrays of mpf.
    """
    with mp.workdps(digits + 10):
        xs, ws = [], []
        for k in range(n):
            x = mp.mpf(math.cos(math.pi * (k + 0.75) / (n + 0.5)))
            for _ in range(100):
                p0, p1 = mp.mpf(1), x
                for m in range(2, n + 1):
                    p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
                if n == 1:
                    p1, dp = x, mp.mpf(1)
                else:
                    dp = n * (x * p1 - p0) / (x * x - 1)
                step = p1 / dp
                x = x - step
                if abs(step) <= abs(x) * mp.mpf(10) ** (-digits - 2):
                    break
            p0, p1 = mp.mpf(1), x
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            dp = mp.mpf(1) if n == 1 else n * (x * p1 - p0) / (x * x - 1)
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
        order = sorted(range(n), key=xs.__getitem__)
        half = mp.mpf(1) / 2
        nodes = np.array([+(half * (xs[i] + 1)) for i in order], dtype=object)
        weights = np.array([+(ws[i] / 2) for i in order], dtype=object)
    return nodes, weights


def element_rule_1d(r: int, precision: Precision = DOUBLE):
    """``(nodes, weights)`` of the (r+2)-point 1D Gauss rule on [0, 1] in ``precision``."""
    if not precision.is_extended:
        return numkit.gauss_legendre_1d(r + 2)
    return gauss_legendre_1d(r + 2, precision.digits)


def element_rule(r: int, precision: Precision = DOUBLE) -> QuadratureRule:
    """``refelem.default_rule(r)``, or the same (r+2)-point rule in ``precision``."""
    if not precision.is_extended:
        return refelem.default_rule(r)
    n = r + 2
    x, w = element_rule_1d(r, precision)
    pts = np.stack([np.tile(x, n), np.repeat(x, n)], axis=1)
    return QuadratureRule(n, pts, np.outer(w, w).ravel())


def require_hermitian(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    err = hermitian_error(a)
    if err > HERMITIAN_RTOL:
        raise NotHermitian(f"relative conjugate-symmetry defect {err:.3e} exceeds {HERMITIAN_RTOL:.1e}")


def hermitian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the Hermitian positive-definite system A X = B for X.

    Runs in the arithmetic of the data: mpmath arrays at the ambient
    precision.  Raises :class:`NotHermitian` / :class:`NotPositiveDefinite`.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    require_hermitian(a)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs rows {b.shape[0]} != matrix size {a.shape[0]}")
    L, d = ldlh_factor(a)
    return ldlh_solve(L, d, b)


def _physical_images(r: int, omega, h, precision: Precision):
    """Rule, test tabulation and A-images on the square of side h.

    Mapped basis values are unchanged and derivatives pick up 1/h.  Runs in
    the caller's working context.
    """
    basis = refelem.build_test_basis(r)
    rule = element_rule(r, precision)
    tab = refelem.tabulate_test_basis(basis, rule)
    hh = precision.real(h)
    iw = 1j * precision.real(omega)
    images = (iw * tab.vx + tab.eta_x / hh, iw * tab.vy + tab.eta_y / hh,
              iw * tab.eta + tab.div / hh)
    return basis, rule, tab, images, hh


def quadrature_gram(omega, eps, r: int, precision: Precision = DOUBLE, h=1.0):
    """Complex test Gram ``G[k, l] = (A v_l, A v_k) + eps^2 (v_l, v_k)``.

    Integrated by the (r+2)-point tensor Gauss rule over the square
    [0, h]^2 from the tabulated test basis, in ``precision``.  At h = 1 the
    arguments are the normalized ``omega_n`` and ``eps_n``.
    """
    with working_context(precision):
        _, rule, tab, images, hh = _physical_images(r, omega, h, precision)
        w = rule.weights * (hh * hh)
        ee = precision.real(eps)
        G = None
        for ac in images:
            term = (ac.conj() * w[None, :]) @ ac.T
            G = term if G is None else G + term
        for vc in (tab.vx, tab.vy, tab.eta):
            G = G + (ee * ee) * ((vc * w[None, :]) @ vc.T)
    return G


def edge_points(edge: int, t: np.ndarray) -> np.ndarray:
    """Map 1D parameter values t in [0,1] to points on a reference edge."""
    zero, one = t * 0, t * 0 + 1
    cols = {BOTTOM: (t, zero), TOP: (t, one), LEFT: (zero, t), RIGHT: (one, t)}[edge]
    return np.stack(cols, axis=1)


def edge_traces(basis: refelem.TestSpaceBasis, t: np.ndarray):
    """Test-basis traces ``(eta, vn)`` on the reference edges at parameters t.

    Both have shape (4, dim, len(t)): ``eta[e]`` is the scalar trace on edge
    e and ``vn[e]`` the trace of v . n with n the *outward* element normal,
    (0,-1), (0,1), (-1,0) and (1,0) on bottom, top, left and right.
    """
    eta, vn = [], []
    for e in EDGES:
        tab = tabulate_test_at(basis, edge_points(e, t))
        eta.append(tab["eta"])
        vn.append(tab["vy" if e in (BOTTOM, TOP) else "vx"] * EDGE_SIGNS[e])
    return np.stack(eta), np.stack(vn)


def hat_traces(t: np.ndarray) -> np.ndarray:
    """``hat[a, e]``: vertex function a (CCW) along reference edge e at parameters t."""
    return np.stack([
        np.stack([refelem.vertex_hat(a, b, *edge_points(e, t).T) for e in EDGES])
        for a, b in refelem.VERTICES_CCW
    ])


def quadrature_couplings(omega, r: int, precision: Precision = DOUBLE, h=1.0):
    """Trial-test couplings ``Bb[k, i] = b(e_i, v_k)`` by volume and edge quadrature.

    The field constants pair with the A-images over the square [0, h]^2,
    the vertex hats with the outward normal traces of the vector members
    and the edge fluxes with the scalar traces, by the (r+2)-point Gauss
    rule and its 1D nodes, in ``precision``.  At h = 1, ``omega`` is the
    normalized ``omega_n``.
    """
    with working_context(precision):
        basis, rule, _, images, hh = _physical_images(r, omega, h, precision)
        w2 = rule.weights * (hh * hh)
        t, w = element_rule_1d(r, precision)
        w1 = w * hh
        eta, vn = edge_traces(basis, t)
        hats = hat_traces(t)
        Bb = np.zeros((basis.dim, TRIAL_DIM), dtype=object if precision.is_extended else complex)
        for c, ac in enumerate(images):
            Bb[:, c] = -(ac.conj() @ w2)
        for a in range(4):
            col = None
            for e in range(4):
                contrib = vn[e] @ (w1 * hats[a, e])
                col = contrib if col is None else col + contrib
            Bb[:, 3 + a] = col
        for t, e in enumerate(EDGES):
            Bb[:, 7 + t] = precision.real(EDGE_SIGNS[e]) * (eta[e] @ w1)
    return Bb


def dpg_element_physical(omega: float, eps: float, h: float, r: int, precision: Precision = DOUBLE):
    """DPG element matrix B assembled on the physical square of side h.

    Returns the 11x11 matrix as complex128 (computed in ``precision``).
    """
    with working_context(precision):
        Bb = quadrature_couplings(omega, r, precision, h)
        x = hermitian_solve(quadrature_gram(omega, eps, r, precision, h), Bb)
        B = Bb.conj().T @ x
    return as_complex128(B)


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude, valid for object-dtype arrays too."""
    return max((float(abs(v)) for v in np.asarray(a).ravel()), default=0.0)


def tabulate_test_at(basis: refelem.TestSpaceBasis, points: np.ndarray) -> dict:
    """Volume-type tables at arbitrary points (for derivative checks)."""
    return refelem._volume_tables(basis, np.asarray(points))


def _real_part(x):
    return x.real if hasattr(x, "real") else x


def min_eigenvalue_bound(h: np.ndarray, precision: Precision = DOUBLE) -> float:
    """Certified lower bound on the minimum eigenvalue of a Hermitian matrix.

    Bisection on the shift sigma: H - sigma*I admitting an all-positive-pivot
    LDL^H factorization certifies min eig > sigma.  The returned float is the
    largest certified shift; for PSD matrices it is within ~1e-12*scale of 0
    from below.
    """
    h = np.asarray(h)
    require_hermitian(h)
    n = h.shape[0]
    rowsums = []
    for i in range(n):
        off = sum(float(abs(h[i, j])) for j in range(n) if j != i)
        rowsums.append((float(_real_part(h[i, i])), off))
    lo = min(c - o for c, o in rowsums)
    hi = max(c + o for c, o in rowsums)
    scale = max(abs(lo), abs(hi), 1.0)
    if _is_pd_shifted(h, hi, precision):
        return hi
    lo = lo - scale * 1e-6  # strict lower start
    if not _is_pd_shifted(h, lo, precision):
        lo = lo - scale  # pathological roundoff margin
        if not _is_pd_shifted(h, lo, precision):
            return lo
    target = 1e-13 * scale
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if _is_pd_shifted(h, mid, precision):
            lo = mid
        else:
            hi = mid
    return lo


def _is_pd_shifted(h: np.ndarray, sigma: float, precision: Precision) -> bool:
    with working_context(precision):
        shifted = h.copy()
        s = precision.real(sigma) if h.dtype == object else sigma
        for i in range(h.shape[0]):
            shifted[i, i] = h[i, i] - s
        # strict positivity of every pivot, no relative tolerance: this is the
        # certificate, not a solver
        n = h.shape[0]
        L = shifted.astype(object).copy() if h.dtype == object else shifted.astype(complex).copy()
        d = np.empty(n, dtype=object)
        for j in range(n):
            s0 = (L[j, :j] * L[j, :j].conj() * d[:j]).sum() if j > 0 else 0
            piv = _real_part(L[j, j] - s0)
            if not float(piv) > 0:
                return False
            d[j] = piv
            if j + 1 < n:
                upd = L[j + 1 :, :j] @ (L[j, :j].conj() * d[:j]) if j > 0 else 0
                L[j + 1 :, j] = (L[j + 1 :, j] - upd) / piv
    return True


def assemble_global(mesh, element: np.ndarray) -> sp.csc_matrix:
    """The global trace matrix of ``mesh`` in the lattice numbering, before
    any constraint: one dense ``element`` block summed per row of the
    element table ``mesh.dofs``."""
    dofs = mesh.dofs
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    vals = np.tile(element.ravel(), len(dofs))
    return sp.csc_matrix((vals, (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs))


# ---------------------------------------------------------------------------
# pointwise mesh data: the second route to the separable loads and errors
# ---------------------------------------------------------------------------


def pointwise_manufactured(omega: float, sign: int = 1) -> dict:
    """The manufactured bubble's fields and data as closures of (x, y)."""
    c = 1j * (1 if sign >= 0 else -1) / omega

    def phi(x, y):
        return np.asarray(x * (1 - x) * y * (1 - y), dtype=complex)

    def phi_x(x, y):
        return (1 - 2 * x) * y * (1 - y)

    def phi_y(x, y):
        return x * (1 - x) * (1 - 2 * y)

    def lap(x, y):
        return -2 * y * (1 - y) - 2 * x * (1 - x)

    return {
        "phi": phi,
        "u1": lambda x, y: c * phi_x(x, y),
        "u2": lambda x, y: c * phi_y(x, y),
        "f1": lambda x, y: (1j * omega * c + 1) * phi_x(x, y),
        "f2": lambda x, y: (1j * omega * c + 1) * phi_y(x, y),
        "f3": lambda x, y: 1j * omega * phi(x, y) + c * lap(x, y),
    }


def pointwise_plane_wave(omega: float, theta: float) -> dict:
    """The plane wave's fields and (analytically zero) data as closures of (x, y)."""
    k1, k2 = omega * np.cos(theta), omega * np.sin(theta)

    def wave(x, y):
        return np.exp(1j * (k1 * x + k2 * y))

    return {
        "phi": wave,
        "u1": lambda x, y: -(k1 / omega) * wave(x, y),
        "u2": lambda x, y: -(k2 / omega) * wave(x, y),
        "f1": lambda x, y: (1j * omega * (-(k1 / omega)) + 1j * k1) * wave(x, y),
        "f2": lambda x, y: (1j * omega * (-(k2 / omega)) + 1j * k2) * wave(x, y),
        "f3": lambda x, y: (1j * omega + (-(1j * k1**2 + 1j * k2**2) / omega)) * wave(x, y),
    }


def pointwise_zero() -> dict:
    def z(x, y):
        return np.zeros(np.broadcast(x, y).shape, dtype=complex)

    return dict.fromkeys(("phi", "u1", "u2", "f1", "f2", "f3"), z)


def element_quad_points(mesh, points: np.ndarray):
    """Physical coordinates of a unit-square rule on every element, two (n^2, nq) arrays.

    Element e = ey*n + ex occupies [ex*h, (ex+1)*h] x [ey*h, (ey+1)*h].
    """
    e = np.arange(mesh.n * mesh.n)
    ex, ey = e % mesh.n, e // mesh.n
    return (ex[:, None] + points[:, 0]) * mesh.h, (ey[:, None] + points[:, 1]) * mesh.h


def _scatter(mesh, loads: np.ndarray) -> np.ndarray:
    b = np.zeros(mesh.n_dofs, dtype=complex)
    np.add.at(b, mesh.dofs, loads)
    return b


def pointwise_moments(mesh, fields: dict, points, weights, tables) -> np.ndarray:
    """Integrals of f1, f2, f3 against the rows of three tables, f evaluated at every point."""
    xs, ys = element_quad_points(mesh, points)
    return sum(fields[f](xs, ys) @ (weights[:, None] * t.T.conj())
               for f, t in zip(("f1", "f2", "f3"), tables))


def pointwise_dpg_loads(mesh, kit, fields: dict) -> np.ndarray:
    """The scattered DPG trace loads, moments against the whole test basis first."""
    tests = (kit.test_vx, kit.test_vy, kit.test_eta)
    moments = pointwise_moments(mesh, fields, kit.quad_points, kit.quad_weights, tests)
    loads = mesh.h**3 * (moments @ kit.xh.T)
    return _scatter(mesh, loads[:, 3:] + loads[:, :3] @ kit.recovery.conj())


def pointwise_fosls_loads(mesh, elem, fields: dict) -> np.ndarray:
    """The scattered FOSLS loads, f against the A-images of the conforming basis."""
    rule = elem.tab.rule
    images = (elem.a1, elem.a2, elem.a3)
    return _scatter(mesh, mesh.h * pointwise_moments(mesh, fields, rule.points, rule.weights, images))


def pointwise_errors(mesh, fields: dict, rule: QuadratureRule, approx) -> tuple:
    """L2 distances of u1, u2, phi to ``approx`` and to their element means on ``rule``."""
    xs, ys = element_quad_points(mesh, rule.points)
    w = rule.weights
    err = best = 0.0
    for name, near in zip(("u1", "u2", "phi"), approx):
        comp = fields[name](xs, ys)
        err += np.sum(w[None, :] * np.abs(comp - near) ** 2)
        best += np.sum(w[None, :] * np.abs(comp - (comp @ w)[:, None]) ** 2)
    return float(np.sqrt(err * mesh.h**2)), float(np.sqrt(best * mesh.h**2))


def amplitude_metric_loop(phi_grid: np.ndarray, theta: float) -> float:
    """The far-quarter windowed amplitude, one 4 x 4 window at a time."""
    block = 4
    m = phi_grid.shape[0]
    k = np.array([np.cos(theta), np.sin(theta)])
    coords = np.arange(m, dtype=float)
    proj_max = max(k[0] * x + k[1] * y for x in (0.0, m - 1.0) for y in (0.0, m - 1.0))
    best = np.inf
    for i0 in range(0, m, block):
        for j0 in range(0, m, block):
            sub = phi_grid[i0 : i0 + block, j0 : j0 + block]
            ci = coords[i0 : i0 + block].mean()
            cj = coords[j0 : j0 + block].mean()
            if k[0] * ci + k[1] * cj >= 0.75 * proj_max:
                best = min(best, float(np.max(np.abs(sub))))
    return best


def band_diagram_sequential(method, eps_n=None, r=None, theta=0.0, zeta_max=6.0, zeta_step=0.05):
    """The band's roots, one ``solve_root`` per point in grid order.

    Each point starts from the previous root shifted by the grid step as
    ``init``, and falls back to the common starts where that finds no root.
    """
    zetas = dispersion.band_grid(zeta_max, zeta_step)
    z = np.empty(len(zetas), dtype=complex)
    prev = None
    for i, zeta in enumerate(zetas):
        st = dispersion._method_stencils(method, zeta, eps_n, r)
        init = None if prev is None else prev + (zetas[i] - zetas[i - 1])
        try:
            res = dispersion.solve_root(st, theta, zeta, init=init)
        except NoRootFound:
            if init is None:
                raise
            res = dispersion.solve_root(st, theta, zeta)
        z[i] = prev = res.z
    return zetas, z


def convergence_roots_sequential(method, eps=None, r=None, levels=(3, 4, 5), omega=1.0):
    """The convergence study's roots at theta = 0, one ``solve_root`` per level."""
    zetas, roots = [], []
    for level in levels:
        h = 2.0 * np.pi / 2.0**level
        zeta = omega * h
        eps_n = None if eps is None else eps * h
        st = dispersion._method_stencils(method, zeta, eps_n, r)
        roots.append(dispersion.solve_root(st, 0.0, zeta).z)
        zetas.append(zeta)
    return np.asarray(zetas), np.asarray(roots)
