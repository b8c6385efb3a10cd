"""Global solves on uniform square meshes of the unit square.

Every element contributes the same condensed matrix, scaled by the mesh
size, on the lattice numbering of :func:`lattice`, in the element slots
the stencils of :mod:`helmdpg.stencil` are read from: vertices first,
then horizontal-edge midpoints, then vertical-edge midpoints.  Its
``(n*n, 8)`` element table drives the load scatter, products with the
trace matrix and the recovery as array operations; no global matrix is
formed.  Dirichlet data constrains boundary vertex values only; edge
fluxes stay unknowns everywhere.  The trace system is Hermitian positive
definite and real up to a diagonal phase: ``A = P A_R P^H``, with ``A_R``
real symmetric positive definite and ``P`` the trial phases of the trace
DOFs (1 on vertex traces, -i on fluxes).  ``A_R`` is also
translation-invariant, so in a geometric nested dissection of the mesh
into boxes, walked by box shape, every box of one shape has the same
Schur complement: the solve takes one dense LAPACK Cholesky factor per
box shape, O(log n) of them, for both methods, and runs all boxes of one
shape as one block.  After the trace solve the element interiors are
recovered from the stored Schur data.  Each exact field is a short sum of
products f(x) g(y), so on the mesh's tensor rules its values are outer
products of per-axis tables (sum factorization, Orszag 1980): loads are
two contractions per term, and the error fields are formed once per
solve for the error and its best-approximation bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
import scipy.sparse.linalg  # noqa: F401  unused; bench/spans.py patches its splu in traced runs
from scipy.linalg import blas, lapack

from . import localforms, refelem, stencil
from .errors import BCInconsistent, MeshTooSmall, OutsideEnvelope, PhaseMismatch, SolveFailure
from .localforms import NormalizedParams
from .numkit import single_thread_blas

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


def lattice(n: int):
    """The trace lattice of an n x n element mesh: ``(ndof, dofs, pos2)``.

    Vertices come first, then horizontal-edge midpoints, then vertical-edge
    midpoints, each numbered row by row.  Row ``e = ey*n + ex`` of the
    ``(n*n, 8)`` table ``dofs`` holds the element's trace ids in the
    condensed order, so ``dof_type[dofs] = stencil.TRACE_TYPES``;  ``pos2``
    gives each id's position doubled so it stays an integer,
    ``pos2[dofs] = 2*(ex, ey) + stencil.TRACE_POS2``.
    """
    nv = (n + 1) * (n + 1)
    nhe = n * (n + 1)
    e = np.arange(n * n)
    ex, ey = e % n, e // n
    v = ey * (n + 1) + ex
    he = nv + ey * n + ex
    ve = nv + nhe + ey * (n + 1) + ex
    dofs = np.column_stack([v, v + 1, v + n + 2, v + n + 1, he, he + n, ve, ve + 1])
    ndof = nv + 2 * nhe
    pos2 = np.empty((ndof, 2), dtype=int)
    pos2[dofs] = 2 * np.column_stack([ex, ey])[:, None, :] + stencil.TRACE_POS2
    return ndof, dofs, pos2


@dataclass(frozen=True)
class Mesh:
    """Uniform n x n element mesh of (0,1)^2 on the lattice of :func:`lattice`.

    Vertex (i, j) sits at (i*h, j*h).  The lattice numbers the vertices
    first, so vertex ids run from 0 to ``n_vertices - 1``.
    """

    n: int

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def _lattice(self):
        ndof, dofs, pos2 = lattice(self.n)
        # build_mesh shares one Mesh per n among all its callers
        dofs.flags.writeable = pos2.flags.writeable = False
        return ndof, dofs, pos2

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
        ij = pos2[_is_vertex(pos2)] // 2
        ij.flags.writeable = False
        return ij

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


@lru_cache(maxsize=8)
def build_mesh(n: int) -> Mesh:
    """The n x n mesh, one per n: its lattice and vertex grid are built once."""
    if n < 2:
        raise MeshTooSmall(f"need at least 2 elements per side, got n={n}")
    return Mesh(int(n))


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------


#: a field in factor form: the sum of ``gx(x) * gy(y)`` over its pairs
Separable = tuple[tuple[Callable, Callable], ...]


@dataclass(frozen=True)
class ExactSolution:
    """Exact fields and data in factor form: short sums of products f(x) g(y).

    Each of ``phi, u1, u2, f1, f2, f3`` is a tuple of ``(gx, gy)`` pairs of
    1-D callables, which take and return arrays of one shape, and stands
    for the sum of ``gx(x) * gy(y)``; the empty tuple is zero.  ``f1, f2,
    f3`` must be the analytic images (i*w*u + grad(phi), i*w*phi +
    div(u)) of the fields; they are never assumed zero.
    """

    name: str
    omega: float
    phi: Separable
    u1: Separable
    u2: Separable
    f1: Separable
    f2: Separable
    f3: Separable


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
    v = 1j * omega * c + 1

    def bubble(t):
        return t * (1 - t)

    def slope(a):
        return lambda t: a * (1 - 2 * t)

    return ExactSolution(
        "manufactured", omega,
        phi=((bubble, bubble),),
        u1=((slope(c), bubble),),
        u2=((bubble, slope(c)),),
        f1=((slope(v), bubble),),
        f2=((bubble, slope(v)),),
        f3=((bubble, lambda t: 1j * omega * bubble(t) - 2 * c),
            (np.ones_like, lambda t: -2 * c * bubble(t))),
    )


def plane_wave(omega: float, theta: float) -> ExactSolution:
    """Plane wave phi = e^{i k.x}, u = -(k/w) phi with k = w(cos t, sin t).

    Applying the operator analytically gives f identically zero; the
    coefficients of f below are those analytic images written out, kept as
    live expressions rather than hard-coded zeros.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    k1, k2 = omega * np.cos(theta), omega * np.sin(theta)

    def wave(k, scale=1.0):
        return lambda t: scale * np.exp(1j * k * t)

    return ExactSolution(
        "plane_wave", omega,
        phi=((wave(k1), wave(k2)),),
        u1=((wave(k1, -(k1 / omega)), wave(k2)),),
        u2=((wave(k1, -(k2 / omega)), wave(k2)),),
        f1=((wave(k1, 1j * omega * (-(k1 / omega)) + 1j * k1), wave(k2)),),
        f2=((wave(k1, 1j * omega * (-(k2 / omega)) + 1j * k2), wave(k2)),),
        f3=((wave(k1, 1j * omega + (-(1j * k1**2 + 1j * k2**2) / omega)), wave(k2)),),
    )


def zero_solution(omega: float) -> ExactSolution:
    return ExactSolution("zero", omega, (), (), (), (), (), ())


def _pointwise(field, x, y) -> np.ndarray:
    """A factor-form field's values at the points (x, y)."""
    return sum((gx(x) * gy(y) for gx, gy in field), np.zeros(np.broadcast(x, y).shape, complex))


def dirichlet_values(mesh: Mesh, exact: ExactSolution) -> np.ndarray:
    """Trace of the exact scalar at the boundary vertices."""
    xy = mesh.vertex_coords()[mesh.boundary_vertex_ids()]
    return _pointwise(exact.phi, xy[:, 0], xy[:, 1])


# ---------------------------------------------------------------------------
# the trace solve: nested dissection with one factor per box shape
# ---------------------------------------------------------------------------


def _split(w: int, h: int):
    """A w x h box's two child shapes, the second one's doubled offset and
    the doubled positions strictly inside its split line.

    The box splits along its longer side (x on a tie) at the vertex line
    ``w // 2`` (or ``h // 2``) elements in, the middle line or the lower
    one of two; no element straddles a vertex line, so the line decouples
    the two halves.
    """
    if w >= h:
        a = w // 2
        line = np.column_stack([np.full(2 * h - 1, 2 * a), np.arange(1, 2 * h)])
        return ((a, h), (w - a, h)), (2 * a, 0), line
    b = h // 2
    line = np.column_stack([np.arange(1, 2 * w), np.full(2 * w - 1, 2 * b)])
    return ((w, b), (w, h - b)), (0, 2 * b), line


def _perimeter(w: int, h: int) -> np.ndarray:
    """Doubled positions on the boundary of a w x h box, sorted by (y, x).

    These are the box's boundary DOFs: vertices where both coordinates are
    even, edge midpoints where one is odd.
    """
    x, y = np.meshgrid(np.arange(2 * w + 1), np.arange(2 * h + 1))
    on = (x == 0) | (x == 2 * w) | (y == 0) | (y == 2 * h)
    return np.column_stack([x[on], y[on]])


@dataclass(frozen=True)
class _Group:
    """All boxes of one shape, which share one factor.

    A box's block lists ``inner`` DOFs (eliminated at this box), then
    ``outer`` ones (the rows of its Schur complement): for every box but
    the root, its split line and its perimeter.  The root also eliminates
    its free perimeter DOFs, the edge fluxes, and leaves out the boundary
    vertices, whose values are moved to the right-hand side before the
    solve.  ``picks`` gives, per child, the place of each block DOF on
    that child's perimeter, or the perimeter's length where the child does
    not hold it.  ``inner`` holds global ids, one column per box of the
    shape; ``places`` holds where the two parts of each ``outer`` DOF sit in
    a flattened ``(ndof, 2)`` block, ``(len(outer), boxes, 2)``.  Both are
    int32, to keep the cache small.
    """

    shape: tuple[int, int]
    children: tuple[tuple[int, int], tuple[int, int]]
    picks: tuple[np.ndarray, np.ndarray]
    inner: np.ndarray
    places: np.ndarray

    @property
    def outer(self) -> np.ndarray:
        """Global ids of the outer DOFs, one column per box."""
        return self.places[..., 0] // 2


@dataclass(frozen=True)
class _Topology:
    """Element-independent layout of the trace solve of one mesh size.

    ``groups`` lists every shape with a split line, children before
    parents, so the root comes last; ``leaf`` gives the condensed slot of
    each perimeter point of the 1 x 1 box.
    """

    groups: tuple[_Group, ...]
    leaf: np.ndarray


def _group(shape, split, origins, ids, is_root) -> _Group:
    """The group of the boxes of ``shape`` at ``origins``, split as
    :func:`_split` gives; ``ids`` maps doubled positions to global DOF ids."""
    w, h = shape
    children, offset, line = split
    per = _perimeter(w, h)
    if is_root:
        inner, outer = np.concatenate([line, per[(per[:, 0] | per[:, 1]) % 2 == 1]]), per[:0]
    else:
        inner, outer = line, per
    block = tuple(np.concatenate([inner, outer]).T)
    picks = []
    for child, o in zip(children, ((0, 0), offset)):
        cper = _perimeter(*child)
        local = np.full((2 * w + 1, 2 * h + 1), len(cper))
        local[tuple((cper + o).T)] = np.arange(len(cper))
        picks.append(local[block])

    def gather(pts):
        return ids[2 * origins[:, 0] + pts[:, :1], 2 * origins[:, 1] + pts[:, 1:]]

    places = 2 * gather(outer)[..., None] + np.array([0, 1], dtype=np.int32)
    return _Group(shape, children, tuple(picks), gather(inner), places)


@lru_cache(maxsize=8)
def _topology(n: int) -> _Topology:
    """The box tree of an n x n mesh grouped by shape, with global DOF ids.

    Geometric nested dissection of the lattice (George, SIAM J. Numer.
    Anal. 1973): the root is the whole mesh, every box with a vertex line
    inside splits by :func:`_split`, and 1 x 1 boxes are leaves.  Boxes of
    one shape have the same subtree, so the tree is walked by shape, each
    with the origins of its boxes.  A child is smaller than each of its
    parents, so the pending shape of largest area (the wider one on a tie)
    has all its boxes: it becomes a group and hands its origins to its two
    child shapes.  Reversed, the groups run children first.  The ids come
    from the doubled positions of ``build_mesh(n)``'s lattice.
    """
    pos2 = build_mesh(n)._lattice[2]
    ids = np.full((2 * n + 1, 2 * n + 1), -1, dtype=np.int32)
    ids[tuple(pos2.T)] = np.arange(len(pos2))
    pending = {(n, n): [np.zeros((1, 2), dtype=int)]}
    groups = []
    while pending:
        shape = max(pending, key=lambda s: (s[0] * s[1], s))
        origins = np.concatenate(pending.pop(shape))
        split = _split(*shape)
        for child, offset in zip(split[0], ((0, 0), split[1])):
            if max(child) >= 2:
                pending.setdefault(child, []).append(origins + np.array(offset) // 2)
        groups.append(_group(shape, split, origins, ids, shape == (n, n)))
    slot = np.empty((3, 3), dtype=int)
    slot[tuple(stencil.TRACE_POS2.T)] = np.arange(8)
    return _Topology(tuple(groups[::-1]), slot[tuple(_perimeter(1, 1).T)])


@dataclass(frozen=True)
class _Factor:
    """The Cholesky data of one trace system, one block per box shape.

    ``blocks`` holds per group the lower Cholesky factor ``L`` of its
    interface block and ``V = L^-1 K_IB``; the root's ``V`` is empty.
    """

    topo: _Topology
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def nnz(self) -> int:
        """Entries stored: the lower triangle of each ``L`` and every ``V``."""
        return sum(len(l) * (len(l) + 1) // 2 + v.size for l, v in self.blocks)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with zero boundary-vertex data for an ``(ndof, 2)`` right-hand side.

        Rows of boundary vertices are ignored and come back zero.  Every
        group runs one triangular solve and one product on a
        ``(k, 2 * boxes)`` block, forward in tree order, then back.
        """
        ndof = len(rhs)
        c = rhs.copy()
        zs = []
        for g, (l, v) in zip(self.topo.groups, self.blocks):
            k, m = g.inner.shape
            z = blas.dtrsm(1.0, l, c[g.inner].reshape(k, 2 * m), lower=1)
            zs.append(z)
            c -= np.bincount(g.places.ravel(), (v.T @ z).ravel(), 2 * ndof).reshape(ndof, 2)
        x = np.zeros_like(rhs)
        for g, (l, v), z in zip(self.topo.groups[::-1], self.blocks[::-1], zs[::-1]):
            k, m = g.inner.shape
            xb = x.ravel()[g.places].reshape(len(g.places), 2 * m)
            x[g.inner] = blas.dtrsm(1.0, l, z - v @ xb, lower=1, trans_a=1).reshape(k, m, 2)
        return x


def _factor(topo: _Topology, e_r: np.ndarray) -> _Factor:
    """Factor the trace system of the real element ``e_r``, bottom-up once per shape.

    A shape's block ``K`` sums its two children's Schur complements (a
    leaf's is ``e_r``), each padded with a zero row and column for the DOFs
    it does not hold; LAPACK's Cholesky of the interface block gives ``L``,
    and ``S = K_BB - V^T V`` is the Schur complement its parents read.  A
    breakdown raises :class:`SolveFailure` naming the box.
    """
    leaf = np.zeros((9, 9))
    leaf[:8, :8] = e_r[np.ix_(topo.leaf, topo.leaf)]
    schur = {(1, 1): leaf}
    blocks = []
    for g in topo.groups:
        k, nb = len(g.inner), len(g.places)
        (c1, c2), (p1, p2) = g.children, g.picks
        a = schur[c1].take(p1, axis=0).take(p1, axis=1)
        a += schur[c2].take(p2, axis=0).take(p2, axis=1)
        l, info = lapack.dpotrf(a[:k, :k], lower=1)
        if info:
            w, h = g.shape
            block = "root" if nb == 0 else "interface"
            raise SolveFailure(
                f"trace system is not positive definite: the Cholesky factor of the "
                f"{w} x {h} box's {block} block breaks down at pivot {info} of {k}"
            )
        v = blas.dtrsm(1.0, l, a[:k, k:], lower=1)
        s = np.zeros((nb + 1, nb + 1))
        np.subtract(a[k:, k:], v.T @ v, out=s[:nb, :nb])
        schur[g.shape] = s
        blocks.append((l, v))
    return _Factor(topo, tuple(blocks))


def _apply(dofs: np.ndarray, e_r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A_R x`` for an ``(ndof, 2)`` block x, element by element.

    One ``(2 * elements, 8)`` product with ``e_r`` and one ``np.bincount``
    over the element table; no global matrix is formed.
    """
    local = x[dofs].transpose(0, 2, 1).reshape(-1, 8) @ e_r.T
    idx = (2 * dofs[:, None, :] + np.arange(2)[:, None]).ravel()
    return np.bincount(idx, local.ravel(), x.size).reshape(x.shape)


def _scatter(mesh: Mesh, loads: np.ndarray) -> np.ndarray:
    """Sum the per-element rows of ``loads`` into a global vector.

    ``np.bincount`` adds in element order, as a per-element ``np.add.at``
    would, on the real and the imaginary parts separately.
    """
    idx = mesh.dofs.ravel()
    b = np.bincount(idx, loads.real.ravel(), mesh.n_dofs).astype(complex)
    b.imag = np.bincount(idx, loads.imag.ravel(), mesh.n_dofs)
    return b


def _constrained_solve(mesh: Mesh, element: np.ndarray, b: np.ndarray,
                       g: np.ndarray):
    """Fix the boundary vertex traces to ``g`` and solve for the rest.

    The trace element ``E`` is Hermitian and real up to the trial phases
    ``T_t = TRIAL_PHASES[3:]`` (1 on vertex traces, -i on fluxes), so the
    global matrix is ``A = P A_R P^H``, with ``P`` those phases per DOF and
    ``A_R`` real symmetric positive definite.  The real element
    ``E_R = T_t^H E T_t`` is formed here once; an imaginary part above
    ``PHASE_RTOL * max|E|`` is a defect and raises :class:`PhaseMismatch`.
    Boundary vertices have ``P = 1``, so ``g`` enters as is: the real and
    imaginary parts of ``P^H b_f - A_R[:, fixed] g`` are one two-column
    right-hand side ``Y``, and the free traces are ``P Y``.  Every element
    is the same, so every box of one shape in the nested dissection of
    :func:`_topology` has the same Schur complement: :func:`_factor` takes
    one dense Cholesky per shape, and a system that is not positive
    definite raises :class:`SolveFailure` there.  Products with ``A_R`` run
    element by element (:func:`_apply`).  P is unitary, so the residual of
    the real system is that of the complex one.  If the relative residual
    misses the contract, iterative refinement retries a bounded number of
    times before the solve is declared failed.  Returns the full trace
    vector, the relative residual, the entries the factor stores and the
    number of refinement steps taken.
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
    e_r = e_r.real
    phase = np.empty(mesh.n_dofs, dtype=complex)
    phase[mesh.dofs] = t
    pb = phase.conj() * b
    x_fixed = np.zeros((mesh.n_dofs, 2))
    x_fixed[fixed] = np.column_stack([g.real, g.imag])
    b_f = np.column_stack([pb.real, pb.imag]) - _apply(mesh.dofs, e_r, x_fixed)
    b_f[fixed] = 0.0

    def residual(y):
        r = b_f - _apply(mesh.dofs, e_r, y)
        r[fixed] = 0.0
        return r

    factor = _factor(_topology(mesh.n), e_r)
    y = factor.solve(b_f)
    norm_b = np.linalg.norm(b_f)
    r = residual(y)
    resid = np.linalg.norm(r)
    steps = 0
    while steps < REFINEMENT_STEPS and resid > RESIDUAL_RTOL * max(norm_b, 1e-300):
        y = y + factor.solve(r)
        r = residual(y)
        resid = np.linalg.norm(r)
        steps += 1
    rel = resid / norm_b if norm_b > 0 else resid
    if norm_b > 0 and rel > RESIDUAL_RTOL:
        raise SolveFailure(
            f"linear solve residual {rel:.3e} exceeds contract "
            f"{RESIDUAL_RTOL:.1e} (system size {mesh.n_dofs - len(fixed)})"
        )
    x = phase * (y[:, 0] + 1j * y[:, 1])
    x[fixed] = g
    return x, rel, factor.nnz, steps


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def _tables(field: Separable, mesh: Mesh, points: np.ndarray):
    """Each term's gx and gy at the 1-D nodes of the unit-square tensor rule ``points``
    (x running fastest) on every element, two ``(terms, n, q)`` arrays."""
    q = math.isqrt(len(points))
    x = (np.arange(mesh.n)[:, None] + points[:q, 0]) * mesh.h
    return [np.array([pair[k](x) for pair in field], dtype=complex).reshape(-1, *x.shape)
            for k in (0, 1)]


def _moments(mesh: Mesh, exact: ExactSolution, points, weights, tables) -> np.ndarray:
    """Per-element integrals of f1, f2 and f3 against the rows of three tables.

    Each term of f contracts with the weighted table through its x-, then
    its y-table: two ``tensordot``s, and no array over all n^2 q^2 points.
    """
    q = math.isqrt(len(points))
    out = 0.0
    for field, table in zip((exact.f1, exact.f2, exact.f3), tables):
        tx, ty = _tables(field, mesh, points)
        along_x = np.tensordot(tx, (weights[:, None] * table.T.conj()).reshape(q, q, -1), (2, 1))
        out = out + np.tensordot(ty, along_x, ((0, 2), (0, 2)))
    return out.reshape(mesh.n**2, -1)


def _errors(mesh: Mesh, exact: ExactSolution, approx) -> tuple[float, float]:
    """L2 distances of the exact (u1, u2, phi) to ``approx`` and to constants.

    Each exact field is formed once on the error rule as the outer products
    of its per-axis tables, row ey*n + ex and column iy*q + ix, and feeds
    both sums.  The best constants are the element means.
    """
    rule = refelem.conforming_tabulation(ERROR_QUAD_1D).rule
    sw = np.sqrt(rule.weights)

    def sq(d):
        d *= sw
        d = d.view(float).ravel()
        return d @ d

    err = best = 0.0
    for field, near in zip((exact.u1, exact.u2, exact.phi), approx):
        tx, ty = _tables(field, mesh, rule.points)
        comp = np.einsum("tyb,txa->yxba", ty, tx).reshape(mesh.n**2, -1)
        err += sq(comp - near)
        best += sq(comp - (comp @ rule.weights)[:, None])
    return float(np.sqrt(err * mesh.h**2)), float(np.sqrt(best * mesh.h**2))


def best_approx_error(mesh: Mesh, exact: ExactSolution) -> float:
    """L2 distance of the exact fields to element-wise constants.

    The minimizing constant per element and component is the element mean,
    computed with the same quadrature used for the error integral.
    """
    return _errors(mesh, exact, (0.0, 0.0, 0.0))[1]


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    """One mesh solve: traces, recovered fields, errors and the solve path.

    ``fill_nnz`` counts the entries the trace solve stores for its
    distinct box shapes (the lower triangle of each Cholesky factor ``L``
    and each ``V = L^-1 K_IB``, the root's factor among them), and
    ``refinement_steps`` the iterative-refinement steps the residual
    contract took.
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
    # xh folds in first: the contraction runs over the 11 trial loads
    tab = kit.tab
    tests = [kit.xh.conj() @ t for t in (tab.vx, tab.vy, tab.eta)]
    loads = h**3 * _moments(mesh, exact, tab.rule.points, tab.rule.weights, tests)
    b = _scatter(mesh, loads[:, 3:] + loads[:, :3] @ kit.recovery.conj())
    interior = loads[:, :3] @ kit.interior_inv.T / h**2
    del loads  # only b and the interior part are needed through the trace solve

    g = dirichlet_values(mesh, exact) if bc is None else np.asarray(bc, dtype=complex)
    x, rel, fill, steps = _constrained_solve(mesh, h**2 * kit.S, b, g)

    fields = x[mesh.dofs] @ kit.recovery.T + interior
    e_r, a = _errors(mesh, exact, fields.T[:, :, None])
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
    rule, images = elem.tab.rule, (elem.a1, elem.a2, elem.a3)
    b = _scatter(mesh, h * _moments(mesh, exact, rule.points, rule.weights, images))

    g = dirichlet_values(mesh, exact) if bc is None else np.asarray(bc, dtype=complex)
    x, rel, fill, steps = _constrained_solve(mesh, elem.M, b, g)

    etab = refelem.conforming_tabulation(ERROR_QUAD_1D)
    xe = x[mesh.dofs]
    u_h = (xe @ etab.vx, xe @ etab.vy, xe @ etab.eta)
    fields = np.column_stack([c @ etab.rule.weights for c in u_h])
    e_r, a = _errors(mesh, exact, u_h)
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
    proj_max = max(k[0] * x + k[1] * y for x in (0.0, m - 1.0) for y in (0.0, m - 1.0))
    lo = np.arange(0, m, block)
    center = (lo + np.minimum(lo + block, m) - 1) / 2
    far = k[0] * center[:, None] + k[1] * center[None, :] >= 0.75 * proj_max
    if not far.any():
        raise ValueError("no window lies in the far region; grid too small")
    # zero padding cannot raise a window's largest |phi|
    amp = np.pad(np.abs(phi_grid), (0, -m % block))
    windows = amp.reshape(len(lo), block, len(lo), block).max(axis=(1, 3))
    return float(windows[far].min())


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
