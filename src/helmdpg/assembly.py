"""Global solves on uniform square meshes of the unit square.

Every element contributes the same condensed matrix, scaled by the mesh
size, so global assembly is a scatter of one dense block over the lattice
numbering of :func:`helmdpg.stencil.lattice`, the one numbering the
stencil patches use too: vertices first, then horizontal-edge midpoints,
then vertical-edge midpoints.  Its ``(n*n, 8)`` element table drives
assembly, the load scatter and the recovery as array operations.
Dirichlet data constrains boundary vertex values only; edge fluxes stay
unknowns everywhere.  The trace system is Hermitian positive definite and
real up to a diagonal phase: ``A = P A_R P^H``, with ``A_R`` real symmetric
positive definite and ``P`` the trial phases of the trace DOFs (1 on vertex
traces, -i on fluxes).  The free DOFs are numbered once per mesh size in
geometric nested-dissection order of that lattice, ``A_R`` is assembled in
float64 in that numbering, and SuperLU builds one real factor of it, in
symmetric mode and in exactly that order, for both methods.  After the
trace solve the element interiors are recovered from the stored Schur
data, and errors are measured by quadrature against a supplied exact
solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import localforms, refelem, stencil
from .errors import BCInconsistent, MeshTooSmall, OutsideEnvelope, PhaseMismatch, SolveFailure
from .localforms import NormalizedParams
from .numkit import single_thread_blas, tensor_rule

# scipy.sparse.linalg has just loaded scipy's OpenBLAS beside numpy's; pin
# both pools before any solve runs
single_thread_blas()

RESIDUAL_RTOL = 1e-10
REFINEMENT_STEPS = 2
#: bound on max|Im(T_t^H E T_t)| / max|E| for a trace element E.  Rounding
#: of the double QR route reads up to 1.6e-11 (r = 4, omega_n = 0.60,
#: eps_n = 6e-7, cond 4.1e15); the exact route and the FOSLS element read 0
#: and a wrong phase O(1)
PHASE_RTOL = 1e-8
ERROR_QUAD_1D = 6
RESONANCE_OMEGA = np.pi * np.sqrt(2.0)


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    """Uniform n x n element mesh of (0,1)^2 on the lattice of :func:`stencil.lattice`.

    Vertex (i, j) sits at (i*h, j*h).  The lattice numbers the vertices
    first, so vertex ids run from 0 to ``n_vertices - 1``.
    """

    n: int

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def _lattice(self):
        return stencil.lattice(self.n)

    @property
    def n_dofs(self) -> int:
        return self._lattice[0]

    @property
    def dofs(self) -> np.ndarray:
        """Trace DOFs of element e = ey*n + ex in row e, condensed order."""
        return self._lattice[1]

    @cached_property
    def vertex_ij(self) -> np.ndarray:
        """Grid index (i, j) of vertex id v in row v: the lattice's even positions, halved."""
        pos2 = self._lattice[2]
        return pos2[_is_vertex(pos2)] // 2

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ij)

    def element_trace_dofs(self, ex: int, ey: int) -> list[int]:
        """Global ids of one element's 8 trace DOFs in the condensed order."""
        return self.dofs[ey * self.n + ex].tolist()

    def boundary_vertex_ids(self) -> np.ndarray:
        return _boundary_vertices(self._lattice[2], self.n)

    def vertex_coords(self) -> np.ndarray:
        return self.vertex_ij * self.h


def _is_vertex(pos2: np.ndarray) -> np.ndarray:
    """Which doubled lattice positions are vertices: both coordinates even."""
    return (pos2[:, 0] | pos2[:, 1]) % 2 == 0


def _boundary_vertices(pos2: np.ndarray, n: int) -> np.ndarray:
    """Ids of the lattice's vertices on the boundary of the n x n mesh."""
    x, y = pos2.T
    return np.flatnonzero(_is_vertex(pos2) & ((x == 0) | (x == 2 * n) | (y == 0) | (y == 2 * n)))


def build_mesh(n: int) -> Mesh:
    if n < 2:
        raise MeshTooSmall(f"need at least 2 elements per side, got n={n}")
    return Mesh(int(n))


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactSolution:
    """Closures for the fields and for f obtained by applying the operator.

    ``f1, f2, f3`` must be the analytic images (i*w*u + grad(phi),
    i*w*phi + div(u)) of the supplied fields; they are never assumed zero.
    All callables accept numpy arrays and broadcast.
    """

    name: str
    omega: float
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f3: Callable[[np.ndarray, np.ndarray], np.ndarray]


def manufactured_solution(omega: float, sign: int = 1) -> ExactSolution:
    """Polynomial bubble phi = x(1-x)y(1-y) with u = (i*sign/w) grad(phi).

    With sign=+1 the vector equation is satisfied exactly and f1 = f2 = 0;
    either way f is computed by applying the operator analytically, so the
    pair is consistent by construction.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    s = 1 if sign >= 0 else -1
    c = 1j * s / omega

    def phi(x, y):
        return np.asarray(x * (1 - x) * y * (1 - y), dtype=complex)

    def phi_x(x, y):
        return (1 - 2 * x) * y * (1 - y)

    def phi_y(x, y):
        return x * (1 - x) * (1 - 2 * y)

    def lap(x, y):
        return -2 * y * (1 - y) - 2 * x * (1 - x)

    return ExactSolution(
        name="manufactured",
        omega=omega,
        phi=phi,
        u1=lambda x, y: c * phi_x(x, y),
        u2=lambda x, y: c * phi_y(x, y),
        f1=lambda x, y: (1j * omega * c + 1) * phi_x(x, y),
        f2=lambda x, y: (1j * omega * c + 1) * phi_y(x, y),
        f3=lambda x, y: 1j * omega * phi(x, y) + c * lap(x, y),
    )


def plane_wave(omega: float, theta: float) -> ExactSolution:
    """Plane wave phi = e^{i k.x}, u = -(k/w) phi with k = w(cos t, sin t).

    Applying the operator analytically gives f identically zero; the f
    closures below are those analytic images written out, kept as live
    expressions rather than hard-coded zeros.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    k1, k2 = omega * np.cos(theta), omega * np.sin(theta)

    def wave(x, y):
        return np.exp(1j * (k1 * x + k2 * y))

    return ExactSolution(
        name="plane_wave",
        omega=omega,
        phi=wave,
        u1=lambda x, y: -(k1 / omega) * wave(x, y),
        u2=lambda x, y: -(k2 / omega) * wave(x, y),
        f1=lambda x, y: (1j * omega * (-(k1 / omega)) + 1j * k1) * wave(x, y),
        f2=lambda x, y: (1j * omega * (-(k2 / omega)) + 1j * k2) * wave(x, y),
        f3=lambda x, y: (1j * omega + (-(1j * k1**2 + 1j * k2**2) / omega))
        * wave(x, y),
    )


def zero_solution(omega: float) -> ExactSolution:
    def z(x, y):
        return np.zeros(np.broadcast(x, y).shape, dtype=complex)

    return ExactSolution("zero", omega, z, z, z, z, z, z)


def dirichlet_values(mesh: Mesh, exact: ExactSolution) -> np.ndarray:
    """Trace of the exact scalar at the boundary vertices."""
    ids = mesh.boundary_vertex_ids()
    xy = mesh.vertex_coords()[ids]
    return np.asarray(exact.phi(xy[:, 0], xy[:, 1]), dtype=complex)


# ---------------------------------------------------------------------------
# global assembly and the constrained solve
# ---------------------------------------------------------------------------


def _assemble(dofs: np.ndarray, element: np.ndarray, ndof: int) -> sp.csc_matrix:
    """Sum one dense block per row of the element table ``dofs``."""
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    vals = np.tile(element.ravel(), len(dofs))
    return sp.csc_matrix((vals, (rows, cols)), shape=(ndof, ndof))


def _assemble_global(mesh: Mesh, element: np.ndarray) -> sp.csc_matrix:
    """The global matrix in the lattice numbering, before any constraint."""
    return _assemble(mesh.dofs, element, mesh.n_dofs)


@lru_cache(maxsize=8)
def _free_order(n: int) -> np.ndarray:
    """The free trace DOFs of an n x n mesh in nested-dissection order.

    Geometric nested dissection of the lattice (George, SIAM J. Numer.
    Anal. 1973), on ``stencil.lattice``'s doubled positions: a box is split
    along its longer side (x on a tie) by the vertex line nearest its
    middle, the lower one of two.  The separator holds that line's vertex
    and edge DOFs; no element straddles a vertex line, so it decouples the
    two halves.  The lower half comes first, then the upper half, then the
    separator.  A box with no vertex line strictly inside is a leaf.  Each
    leaf and each separator is sorted by (y, x).

    Every DOF carries its box's bounds and a base-3 path key (0 lower,
    1 upper, 2 separator), padded with 0 once it lands in a separator or a
    leaf, so one sort by (key, y, x) lists the recursion's order.  The
    result is read-only, as the cache hands it to every caller.
    """
    ndof, _, pos2 = stencil.lattice(n)
    free = np.setdiff1d(np.arange(ndof), _boundary_vertices(pos2, n))
    xy = pos2[free]
    rows = np.arange(len(free))
    lo = np.zeros_like(xy)
    hi = np.full_like(xy, 2 * n)
    key = np.zeros(len(free), dtype=np.int64)
    live = np.ones(len(free), dtype=bool)
    while live.any():
        ext = hi - lo
        axis = (ext[:, 1] > ext[:, 0]).astype(int)
        a, b = lo[rows, axis], hi[rows, axis]
        s = a + 2 * ((b - a) // 4)
        c = xy[rows, axis]
        split = live & (b - a >= 4)
        digit = np.where(split, np.where(c < s, 0, np.where(c > s, 1, 2)), 0)
        key = 3 * key + digit
        low, up = split & (digit == 0), split & (digit == 1)
        hi[rows[low], axis[low]] = s[low]
        lo[rows[up], axis[up]] = s[up]
        live = low | up
    order = free[np.lexsort((xy[:, 0], xy[:, 1], key))]
    order.flags.writeable = False
    return order


def _scatter(mesh: Mesh, loads: np.ndarray) -> np.ndarray:
    """Sum the per-element rows of ``loads`` into a global vector.

    ``np.bincount`` adds in element order, as a per-element ``np.add.at``
    would, on the real and the imaginary parts separately.
    """
    idx = mesh.dofs.ravel()
    b = np.bincount(idx, loads.real.ravel(), mesh.n_dofs).astype(complex)
    b.imag = np.bincount(idx, loads.imag.ravel(), mesh.n_dofs)
    return b


def _element_quad_points(mesh: Mesh, points: np.ndarray):
    """Physical quadrature points for all elements, shape (n^2, nq).

    Element e = ey*n + ex occupies [ex*h, (ex+1)*h] x [ey*h, (ey+1)*h], with
    (ex, ey) the grid index of its first vertex.
    """
    ex, ey = mesh.vertex_ij[mesh.dofs[:, 0]].T
    xs = (ex[:, None] + points[None, :, 0]) * mesh.h
    ys = (ey[:, None] + points[None, :, 1]) * mesh.h
    return xs, ys


def _constrained_solve(mesh: Mesh, element: np.ndarray, b: np.ndarray,
                       g: np.ndarray):
    """Fix the boundary vertex traces to ``g`` and solve for the rest.

    The trace element ``E`` is Hermitian and real up to the trial phases
    ``T_t = TRIAL_PHASES[3:]`` (1 on vertex traces, -i on fluxes), so the
    global matrix is ``A = P A_R P^H``, with ``P`` those phases per DOF and
    ``A_R`` real symmetric positive definite.  The real element
    ``E_R = T_t^H E T_t`` is formed here once; an imaginary part above
    ``PHASE_RTOL * max|E|`` is a defect and raises :class:`PhaseMismatch`.
    ``A_R`` is assembled in float64 straight into the nested-dissection
    numbering of :func:`_free_order`, and SuperLU factors it once in
    symmetric mode, which keeps a diagonal pivot wherever it is the largest
    in its column, and in the column order given (``NATURAL``), so the
    dissection sets the fill.  Boundary vertices have ``P = 1``, so ``g``
    enters as is: the real and imaginary parts of
    ``P^H b_f - A_R[:, fixed] g`` are solved as one two-column right-hand
    side ``Y``, and the free traces are ``P Y``.  P is unitary, so the
    residual of the real system is that of the complex one.  If the
    relative residual misses the contract, iterative refinement retries a
    bounded number of times before the solve is declared failed.  Returns
    the full trace vector, the relative residual, the factor fill and the
    number of refinement steps taken.  The fill is SuperLU's own count of
    the entries it stores for L and U (``lu.nnz``): reading ``lu.L`` and
    ``lu.U`` would copy the whole factor once more.
    """
    fixed = mesh.boundary_vertex_ids()
    if len(g) != len(fixed):
        raise BCInconsistent(
            f"{len(fixed)} constrained DOFs but {len(g)} boundary values"
        )
    if not np.all(np.isfinite(g)):
        raise BCInconsistent("boundary values contain non-finite entries")
    t = localforms.TRIAL_PHASES[3:]
    e_r = t.conj()[:, None] * element * t
    imag, scale = np.max(np.abs(e_r.imag)), np.max(np.abs(element))
    if imag > PHASE_RTOL * scale:
        raise PhaseMismatch(
            f"trace element is not real under the trial phases: max |Im E_R| "
            f"{imag:.2e} against max |E| {scale:.2e}"
        )
    order = _free_order(mesh.n)
    nf = len(order)
    number = np.empty(mesh.n_dofs, dtype=int)
    number[order] = np.arange(nf)
    number[fixed] = nf + np.arange(len(fixed))
    phase = np.empty(mesh.n_dofs, dtype=complex)
    phase[mesh.dofs] = t
    p_f = phase[order]
    a = _assemble(number[mesh.dofs], e_r.real, mesh.n_dofs)
    a_ff = a[:nf, :nf]
    rhs = p_f.conj() * b[order] - a[:nf, nf:] @ g
    b_f = np.column_stack([rhs.real, rhs.imag])
    del a  # only a_ff is needed while the factor is built
    try:
        lu = spla.splu(a_ff, permc_spec="NATURAL", options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolveFailure(f"sparse factorization failed: {exc}") from exc
    y = lu.solve(b_f)
    norm_b = np.linalg.norm(b_f)
    resid = np.linalg.norm(b_f - a_ff @ y)
    steps = 0
    while steps < REFINEMENT_STEPS and resid > RESIDUAL_RTOL * max(norm_b, 1e-300):
        y = y + lu.solve(b_f - a_ff @ y)
        resid = np.linalg.norm(b_f - a_ff @ y)
        steps += 1
    rel = resid / norm_b if norm_b > 0 else resid
    if norm_b > 0 and rel > RESIDUAL_RTOL:
        raise SolveFailure(
            f"linear solve residual {rel:.3e} exceeds contract "
            f"{RESIDUAL_RTOL:.1e} (system size {nf})"
        )
    x = np.zeros(mesh.n_dofs, dtype=complex)
    x[order] = p_f * (y[:, 0] + 1j * y[:, 1])
    x[fixed] = g
    return x, rel, lu.nnz, steps


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def _error_rule():
    return tensor_rule(ERROR_QUAD_1D)


def _exact_on_elements(mesh: Mesh, exact: ExactSolution, points: np.ndarray):
    xs, ys = _element_quad_points(mesh, points)
    return exact.u1(xs, ys), exact.u2(xs, ys), exact.phi(xs, ys)


def best_approx_error(mesh: Mesh, exact: ExactSolution) -> float:
    """L2 distance of the exact fields to element-wise constants.

    The minimizing constant per element and component is the element mean,
    computed with the same quadrature used for the error integral.
    """
    rule = _error_rule()
    w = rule.weights
    total = 0.0
    for comp in _exact_on_elements(mesh, exact, rule.points):
        means = comp @ w
        total += np.sum(w[None, :] * np.abs(comp - means[:, None]) ** 2)
    return float(np.sqrt(total * mesh.h**2))


def _field_error_constants(mesh, exact, fields):
    """L2 error of per-element constant fields (u1, u2, phi columns)."""
    rule = _error_rule()
    w = rule.weights
    total = 0.0
    for idx, comp in enumerate(_exact_on_elements(mesh, exact, rule.points)):
        diff = comp - fields[:, idx][:, None]
        total += np.sum(w[None, :] * np.abs(diff) ** 2)
    return float(np.sqrt(total * mesh.h**2))


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    """One mesh solve: traces, recovered fields, errors and the solve path.

    ``fill_nnz`` counts the entries SuperLU stores for the L and U factors
    of the trace system, and ``refinement_steps`` the iterative-refinement
    steps the residual contract took.
    """

    method: str
    n: int
    omega: float
    eps: float | None
    r: int | None
    trace: np.ndarray
    fields: np.ndarray
    e_r: float
    a: float
    ratio: float
    residual_rel: float
    fill_nnz: int
    refinement_steps: int
    wall_time: float

    def vertex_grid(self, mesh: Mesh) -> np.ndarray:
        """Vertex scalar traces as an (n+1, n+1) grid indexed [i, j]."""
        grid = np.empty((mesh.n + 1, mesh.n + 1), dtype=complex)
        grid[tuple(mesh.vertex_ij.T)] = self.trace[: mesh.n_vertices]
        return grid


def solve_dpg(
    mesh: Mesh,
    omega: float,
    eps: float,
    r: int,
    exact: ExactSolution,
    bc: np.ndarray | None = None,
) -> SolveReport:
    """Condensed-trace solve of the eps-scaled method on the given mesh.

    Assembles h^2 times the normalized condensed element everywhere,
    eliminates boundary vertex traces, solves, recovers the element
    interior constants, and measures the field error against ``exact``
    together with its best-approximation lower bound.
    """
    t0 = time.perf_counter()
    h = mesh.h
    kit = localforms.element_kit(NormalizedParams(omega * h, eps * h, r))
    w = kit.quad_weights
    xs, ys = _element_quad_points(mesh, kit.quad_points)
    f1, f2, f3 = exact.f1(xs, ys), exact.f2(xs, ys), exact.f3(xs, ys)
    moments = (
        f1 @ (w[:, None] * kit.test_vx.T.conj())
        + f2 @ (w[:, None] * kit.test_vy.T.conj())
        + f3 @ (w[:, None] * kit.test_eta.T.conj())
    )
    loads = h**3 * (moments @ kit.xh.T)
    load_interior = loads[:, :3]
    load_trace = loads[:, 3:] + load_interior @ kit.recovery.conj()

    b = _scatter(mesh, load_trace)

    g = dirichlet_values(mesh, exact) if bc is None else np.asarray(bc, dtype=complex)
    x, rel, fill, steps = _constrained_solve(mesh, h**2 * kit.S, b, g)

    fields = x[mesh.dofs] @ kit.recovery.T + load_interior @ kit.interior_inv.T / h**2
    e_r = _field_error_constants(mesh, exact, fields)
    a = best_approx_error(mesh, exact)
    ratio = e_r / a if a > 0 else (1.0 if e_r == 0 else np.inf)
    return SolveReport(
        "dpg", mesh.n, omega, eps, r, x, fields, e_r, a, ratio, rel, fill, steps,
        time.perf_counter() - t0,
    )


def solve_fosls(
    mesh: Mesh,
    omega: float,
    exact: ExactSolution,
    bc: np.ndarray | None = None,
) -> SolveReport:
    """Least-squares solve over the conforming flux/value pair.

    The normalized element matrix is mesh-size independent and the loads
    pair f against the operator images of the conforming basis, scaled by
    one factor of h.  Errors are measured on the conforming fields; the
    best-approximation value reported is the same piecewise-constant bound
    used for the interface method, for side-by-side reading.
    """
    t0 = time.perf_counter()
    h = mesh.h
    elem = localforms.fosls_element(omega * h)

    rule = elem.tab.rule
    w = rule.weights
    xs, ys = _element_quad_points(mesh, rule.points)
    f1, f2, f3 = exact.f1(xs, ys), exact.f2(xs, ys), exact.f3(xs, ys)
    loads = h * (
        f1 @ (w[:, None] * elem.a1.T.conj())
        + f2 @ (w[:, None] * elem.a2.T.conj())
        + f3 @ (w[:, None] * elem.a3.T.conj())
    )
    b = _scatter(mesh, loads)

    g = dirichlet_values(mesh, exact) if bc is None else np.asarray(bc, dtype=complex)
    x, rel, fill, steps = _constrained_solve(mesh, elem.M, b, g)

    erule = _error_rule()
    etab = refelem.tabulate_conforming_basis(erule)
    ew = erule.weights
    u1e, u2e, phie = _exact_on_elements(mesh, exact, erule.points)
    xe = x[mesh.dofs]
    u1_h, u2_h, phi_h = xe @ etab.vx, xe @ etab.vy, xe @ etab.eta
    total = np.sum(
        ew
        * (np.abs(u1_h - u1e) ** 2 + np.abs(u2_h - u2e) ** 2 + np.abs(phi_h - phie) ** 2)
    )
    fields = np.column_stack([u1_h @ ew, u2_h @ ew, phi_h @ ew])
    e_r = float(np.sqrt(total * h**2))
    a = best_approx_error(mesh, exact)
    ratio = e_r / a if a > 0 else (1.0 if e_r == 0 else np.inf)
    return SolveReport(
        "fosls", mesh.n, omega, None, None, x, fields, e_r, a, ratio, rel, fill, steps,
        time.perf_counter() - t0,
    )


def solve_method(
    method: str,
    mesh: Mesh,
    omega: float,
    exact: ExactSolution,
    eps: float | None = None,
    r: int | None = None,
    bc: np.ndarray | None = None,
) -> SolveReport:
    if method == "dpg":
        if eps is None or r is None:
            raise ValueError("dpg solves need eps and r")
        return solve_dpg(mesh, omega, eps, r, exact, bc)
    if method == "fosls":
        return solve_fosls(mesh, omega, exact, bc)
    raise ValueError(f"unknown method {method!r}; expected dpg or fosls")


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResonanceRow:
    omega: float
    eps: float
    e_r: float
    a: float
    ratio: float
    error: str | None = None


def default_resonance_grid(step: float = 0.05, start: float = 3.0, stop: float = 6.0) -> np.ndarray:
    """Frequencies start..stop inclusive, skipping the exact-resonance vicinity."""
    count = int(round((stop - start) / step))
    grid = start + step * np.arange(count + 1)
    return grid[np.abs(grid - RESONANCE_OMEGA) >= 1e-3]


def _resonance_row(omega: float, eps: float, n: int, r: int) -> ResonanceRow:
    mesh = build_mesh(n)
    exact = manufactured_solution(omega)
    try:
        rep = solve_dpg(mesh, omega, eps, r, exact)
    except (OutsideEnvelope, SolveFailure) as exc:
        return ResonanceRow(omega, eps, np.nan, np.nan, np.nan, str(exc))
    return ResonanceRow(omega, eps, rep.e_r, rep.a, rep.ratio)


def resonance_sweep(
    omegas=None,
    eps_values=(1.0, 1e-1, 1e-2, 1e-3, 1e-4),
    n: int = 16,
    r: int = 3,
) -> list[ResonanceRow]:
    """Optimality-ratio table over a frequency grid crossing a resonance.

    Rows that fail to solve, or whose element lies outside the supported
    envelope, are reported with their error message instead of aborting
    the sweep.
    """
    if omegas is None:
        omegas = default_resonance_grid()
    return [
        _resonance_row(float(om), float(eps), n, r) for eps in eps_values for om in omegas
    ]


@dataclass(frozen=True)
class PlaneWaveReport:
    report: SolveReport
    phi_grid: np.ndarray
    metric: float


def amplitude_metric(phi_grid: np.ndarray, theta: float) -> float:
    """Smallest windowed amplitude over the far quarter of the domain.

    The vertex grid is tiled into 4 x 4 windows; a window belongs to the
    far region when its center projects onto the propagation direction
    beyond 3/4 of the largest vertex projection.  The window amplitude is
    the largest |phi| inside, which tracks the envelope of a complex wave
    regardless of phase.
    """
    block = 4
    m = phi_grid.shape[0]
    k = np.array([np.cos(theta), np.sin(theta)])
    coords = np.arange(m, dtype=float)
    proj_max = max(
        k[0] * x + k[1] * y for x in (0.0, m - 1.0) for y in (0.0, m - 1.0)
    )
    best = np.inf
    for i0 in range(0, m, block):
        for j0 in range(0, m, block):
            sub = phi_grid[i0 : i0 + block, j0 : j0 + block]
            ci = coords[i0 : i0 + block].mean()
            cj = coords[j0 : j0 + block].mean()
            if k[0] * ci + k[1] * cj >= 0.75 * proj_max:
                best = min(best, float(np.max(np.abs(sub))))
    if not np.isfinite(best):
        raise ValueError("no window lies in the far region; grid too small")
    return best


def plane_wave_demo(
    method: str = "dpg",
    theta: float = np.pi / 8,
    n: int = 48,
    omega: float = 6 * np.pi,
    eps: float = 1e-6,
    r: int = 3,
) -> PlaneWaveReport:
    """Drive a plane wave through the mesh by its boundary trace alone.

    The data f vanishes identically for the plane-wave pair, so any loss of
    amplitude across the domain is dissipation added by the discretization.
    """
    exact = plane_wave(omega, theta)
    mesh = build_mesh(n)
    rep = solve_method(method, mesh, omega, exact, eps=eps, r=r)
    grid = rep.vertex_grid(mesh)
    return PlaneWaveReport(rep, grid, amplitude_metric(grid, theta))


@dataclass(frozen=True)
class HConvergence:
    method: str
    ns: tuple[int, ...]
    errors: np.ndarray
    rate: float


def h_convergence(method: str = "dpg", ns=(8, 16, 32)) -> HConvergence:
    """Observed L2 field-error rate under uniform refinement.

    The data is the manufactured solution at omega = 2; dpg runs at
    eps = 1e-2, r = 3.
    """
    errs = []
    for n in ns:
        mesh = build_mesh(n)
        rep = solve_method(method, mesh, 2.0, manufactured_solution(2.0), eps=1e-2, r=3)
        errs.append(rep.e_r)
    errs = np.asarray(errs)
    rate = float(-np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(errs), 1)[0])
    return HConvergence(method, tuple(ns), errs, rate)
