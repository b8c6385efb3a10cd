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
two contractions per term.  The error and its best-approximation bound
split by the error rule's projection onto Q1, which holds every
approximation: the remainder is a sum of products of per-axis norms, and
the rest a difference of 4 coefficients per element, so no array over
all error points is formed.

Frequency is a leading array axis F.  The loads, their scatter, the
right-hand side and residual of the trace solve, the interior recovery,
the boundary data and the error norms each run once for a block of F
frequencies of one mesh, as batched ``matmul`` and ``np.bincount`` over
``(F, ...)`` stacks; each frequency's slice is computed as it would be
alone.  The element kit, the box-shape Cholesky factor and its solves
stay per frequency, where a stack gains nothing, and so does iterative
refinement, masked to the frequencies whose residual needs it.  A
frequency whose factor breaks down or misses the residual contract fails
alone.  :func:`solve_dpg` and :func:`solve_fosls` are the F = 1 case;
:func:`resonance_sweep` runs blocks of :func:`_block_size` frequencies,
as many as ``BLOCK_BYTES`` of stacked temporaries allow at its mesh size
(one at large n).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse.linalg  # noqa: F401  unused; bench/spans.py patches its splu in traced runs
from scipy.linalg import blas, lapack

from . import localforms, numkit, refelem, stencil
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


def _boundary_data(mesh: Mesh, exacts) -> np.ndarray:
    """Trace of each of F exact scalars at the boundary vertices, ``(F, nb)``."""
    xy = mesh.vertex_coords()[mesh.boundary_vertex_ids()]
    return np.stack([_pointwise(exact.phi, xy[:, 0], xy[:, 1]) for exact in exacts])


def dirichlet_values(mesh: Mesh, exact: ExactSolution) -> np.ndarray:
    """Trace of the exact scalar at the boundary vertices."""
    return _boundary_data(mesh, (exact,))[0]


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
    """``A_R x`` for F ``(ndof, 2)`` blocks x, ``(F, ndof, 2)``, with F real
    elements ``e_r``, ``(F, 8, 8)``, element by element.

    One ``(2 * elements, 8)`` product with ``e_r`` per frequency, batched,
    and one ``np.bincount`` over the element table; no global matrix is
    formed.
    """
    f, ndof = x.shape[:2]
    local = x[:, dofs].transpose(0, 1, 3, 2).reshape(f, 2 * len(dofs), 8) @ e_r.transpose(0, 2, 1)
    idx = 2 * (dofs[:, None, :] + ndof * np.arange(f)[:, None, None, None]) + np.arange(2)[:, None]
    return np.bincount(idx.ravel(), local.ravel(), x.size).reshape(x.shape)


def _scatter(mesh: Mesh, loads: np.ndarray) -> np.ndarray:
    """Sum the per-element rows of F loads, ``(F, n*n, 8)``, into F global
    vectors, ``(F, ndof)``.

    ``np.bincount`` adds in element order, as a per-element ``np.add.at``
    would, on the real and the imaginary parts separately; each frequency
    has its own range of bins.
    """
    f, ndof = len(loads), mesh.n_dofs
    idx = (mesh.dofs.ravel() + ndof * np.arange(f)[:, None]).ravel()
    b = np.bincount(idx, loads.real.ravel(), f * ndof).astype(complex)
    b.imag = np.bincount(idx, loads.imag.ravel(), f * ndof)
    return b.reshape(f, ndof)


def _sum_sq(a: np.ndarray) -> np.ndarray:
    """The sum of the squared moduli of the entries of each of F stacked
    double arrays: one BLAS dot per frequency, and no temporary the size
    of ``a``."""
    flat = a.reshape(len(a), -1).view(np.float64)
    return (flat[:, None, :] @ flat[:, :, None])[:, 0, 0]


def _constrained_solve(mesh: Mesh, elements: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Fix the boundary vertex traces to ``g`` and solve for the rest, for F
    frequencies at once: ``elements`` ``(F, 8, 8)``, ``b`` ``(F, ndof)`` and
    ``g`` ``(F, nb)``.

    A trace element ``E`` is Hermitian and real up to the trial phases
    ``T_t = TRIAL_PHASES[3:]`` (1 on vertex traces, -i on fluxes), so the
    global matrix is ``A = P A_R P^H``, with ``P`` those phases per DOF and
    ``A_R`` real symmetric positive definite.  The real elements
    ``E_R = T_t^H E T_t`` are formed here once; an imaginary part above
    ``PHASE_RTOL * max|E|`` in any of them is a defect and raises
    :class:`PhaseMismatch` for the whole block.  Boundary vertices have
    ``P = 1``, so ``g`` enters as is: the real and imaginary parts of
    ``P^H b_f - A_R[:, fixed] g`` are one two-column right-hand side ``Y``
    per frequency, and the free traces are ``P Y``.  Every element of one
    frequency is the same, so every box of one shape in the nested
    dissection of :func:`_topology` has the same Schur complement:
    :func:`_factor` takes one dense Cholesky per shape and frequency.
    Products with ``A_R`` run element by element (:func:`_apply`), for all
    frequencies at once.  P is unitary, so the residual of the real system
    is that of the complex one.  A frequency whose relative residual misses
    the contract is refined a bounded number of times, alone, before its
    solve is declared failed.

    Returns the full trace vectors ``(F, ndof)``, the relative residuals,
    the entries each factor stores, the refinement steps taken, and per
    frequency the :class:`SolveFailure` of a factor that broke down or a
    missed contract, or None; a failed frequency's traces are no solution.
    """
    fixed = mesh.boundary_vertex_ids()
    if g.shape[-1] != len(fixed):
        raise BCInconsistent(
            f"{len(fixed)} constrained DOFs but {g.shape[-1]} boundary values"
        )
    if not np.all(np.isfinite(g)):
        raise BCInconsistent("boundary values contain non-finite entries")
    t = localforms.TRIAL_PHASES[3:]
    e_r = t.conj()[:, None] * elements * t
    imag, scale = np.max(np.abs(e_r.imag), axis=(1, 2)), np.max(np.abs(elements), axis=(1, 2))
    bad = np.flatnonzero(imag > PHASE_RTOL * scale)
    if bad.size:
        f = bad[0]
        raise PhaseMismatch(
            f"trace element is not real under the trial phases: max |Im E_R| "
            f"{imag[f]:.2e} against max |E| {scale[f]:.2e}"
        )
    # contiguous, so that products with it run in BLAS
    e_r = np.ascontiguousarray(e_r.real)
    nf, ndof = b.shape
    phase = np.empty(ndof, dtype=complex)
    phase[mesh.dofs] = t
    pb = phase.conj() * b
    x_fixed = np.zeros((nf, ndof, 2))
    x_fixed[:, fixed] = np.stack([g.real, g.imag], axis=-1)
    b_f = np.stack([pb.real, pb.imag], axis=-1) - _apply(mesh.dofs, e_r, x_fixed)
    b_f[:, fixed] = 0.0

    topo = _topology(mesh.n)
    factors, failed = [None] * nf, [None] * nf
    for f in range(nf):
        try:
            factors[f] = _factor(topo, e_r[f])
        except SolveFailure as exc:
            failed[f] = exc
    live = np.array([factor is not None for factor in factors])
    fill = np.array([0 if factor is None else factor.nnz for factor in factors])
    y = np.zeros_like(b_f)
    for f in np.flatnonzero(live):
        y[f] = factors[f].solve(b_f[f])

    def residual(rows):
        r = b_f[rows] - _apply(mesh.dofs, e_r[rows], y[rows])
        r[:, fixed] = 0.0
        return r

    norm_b = np.sqrt(_sum_sq(b_f))
    r = residual(slice(None))
    resid = np.sqrt(_sum_sq(r))
    steps = np.zeros(nf, dtype=int)
    for _ in range(REFINEMENT_STEPS):
        rows = np.flatnonzero(live & (resid > RESIDUAL_RTOL * np.maximum(norm_b, 1e-300)))
        if not rows.size:
            break
        for f in rows:
            y[f] = y[f] + factors[f].solve(r[f])
        steps[rows] += 1
        r[rows] = residual(rows)
        resid[rows] = np.sqrt(_sum_sq(r[rows]))
    rel = resid / np.where(norm_b > 0, norm_b, 1.0)
    for f in np.flatnonzero((norm_b > 0) & (rel > RESIDUAL_RTOL)):
        if failed[f] is None:
            failed[f] = SolveFailure(
                f"linear solve residual {rel[f]:.3e} exceeds contract "
                f"{RESIDUAL_RTOL:.1e} (system size {ndof - len(fixed)})"
            )
    x = phase * (y[..., 0] + 1j * y[..., 1])
    x[:, fixed] = g
    return x, rel, fill, steps, failed


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def _tables(fields, mesh: Mesh, points: np.ndarray):
    """Each term's gx and gy at the 1-D nodes of the unit-square tensor rule
    ``points`` (x running fastest) on every element, for F factor-form
    fields: two ``(F, terms, n, q)`` arrays, zero-padded to the longest field."""
    q = math.isqrt(len(points))
    x = (np.arange(mesh.n)[:, None] + points[:q, 0]) * mesh.h
    out = np.zeros((2, len(fields), max(map(len, fields))) + x.shape, dtype=complex)
    for f, field in enumerate(fields):
        for t, (gx, gy) in enumerate(field):
            out[0, f, t], out[1, f, t] = gx(x), gy(x)
    return out


def _moments(mesh: Mesh, exacts, points, weights, tables) -> np.ndarray:
    """Per-element integrals of f1, f2 and f3 of F exact solutions against
    the rows of three ``(F, m, q*q)`` tables, ``(F, n*n, m)``.

    Each term of f contracts with the weighted table through its x-, then
    its y-table: two batched products, and no array over all n^2 q^2
    points.
    """
    q, n, nf = math.isqrt(len(points)), mesh.n, len(exacts)
    out = 0.0
    for k, table in enumerate(tables):
        tx, ty = _tables([(ex.f1, ex.f2, ex.f3)[k] for ex in exacts], mesh, points)
        terms = tx.shape[1]
        m = table.shape[1]
        # [f, qx, (qy, m)] and [f, (term, ex), qx] -> [f, term, ex, qy, m]
        wt = (weights * table.conj()).reshape(nf, m, q, q).transpose(0, 3, 2, 1).reshape(nf, q, q * m)
        along_x = tx.reshape(nf, terms * n, q) @ wt
        along_x = along_x.reshape(nf, terms, n, q, m).transpose(0, 1, 3, 2, 4)
        # [f, ey, (term, qy)] @ [f, (term, qy), (ex, m)]
        ty = ty.transpose(0, 2, 1, 3).reshape(nf, n, terms * q)
        out = out + ty @ along_x.reshape(nf, terms * q, n * m)
    return out.reshape(nf, n * n, -1)


@lru_cache(maxsize=None)
def _q1_basis():
    """The error rule's 1-D weights ``w``, the two rows ``legendre`` of
    L_0 = 1 and L_1 = sqrt(3)(2x - 1) at its 1-D nodes, and the map ``M``
    of the 8 conforming trace values to Q1 coefficients, all read-only.

    L_0 and L_1 are orthonormal under the rule, so the products
    L_i(x) L_j(y) are an orthonormal basis of Q1 under its tensor square.
    A Q1 field's coefficients are an ``(..., 2, 2)`` array, entry
    ``[i, j]`` that of L_i(x) L_j(y).  ``M[k]``, ``(8, 4)``, maps trace
    values to those of component k (u1, u2, phi), flattened: the error-rule
    tabulation of the conforming pair projected onto the basis.
    """
    etab = refelem.conforming_tabulation(ERROR_QUAD_1D)
    rule = etab.rule

    def orthonormal(x):
        return np.sqrt([[1.0], [3.0]]) * refelem.shifted_legendre_table(1, x)[0]

    q1 = (orthonormal(rule.points[:, 0])[:, None] * orthonormal(rule.points[:, 1])).reshape(4, -1)
    m = np.stack([t @ (rule.weights * q1).T for t in (etab.vx, etab.vy, etab.eta)])
    w = numkit.gauss_legendre_1d(ERROR_QUAD_1D)[1]
    legendre = orthonormal(rule.points[:ERROR_QUAD_1D, 0])
    for a in (w, legendre, m):
        a.setflags(write=False)
    return w, legendre, m


def _axis_split(table: np.ndarray, w: np.ndarray, legendre: np.ndarray):
    """One axis of F factor-form fields, ``(F, terms, n, q)``, split by the
    rule's projection onto span{L_0, L_1}: the coefficients ``(F, terms, n,
    2)`` and three ``(terms, terms)`` Gram matrices per frequency, ``(F, 3,
    terms, terms)``, summed over the n elements of the axis, of the L_0
    parts, of the L_1 parts and of the remainders."""
    nf, terms = table.shape[:2]
    c = table @ (w * legendre).T
    rest = table - c @ legendre
    by_coef = c.transpose(0, 3, 1, 2)
    grams = by_coef @ by_coef.conj().transpose(0, 1, 3, 2)
    flat = (nf, terms, rest.shape[2] * rest.shape[3])
    rest_gram = (w * rest).reshape(flat) @ rest.conj().reshape(flat).transpose(0, 2, 1)
    return c, np.concatenate([grams, rest_gram[:, None]], axis=1)


def _remainder_sq(gx: np.ndarray, gy: np.ndarray, k: int) -> np.ndarray:
    """|f - P f|^2 summed over the mesh for each of F fields, P the
    projection onto the span of L_i(x) L_j(y) with i, j < k, from the
    per-axis Grams of :func:`_axis_split`.

    f - P f = (I - Px) gx * gy + Px gx * (I - Py) gy for one term, and the
    two parts are orthogonal, so each pair of terms contributes the
    product of an x- and a y-Gram entry for each part.  Each part sums the
    entries of a Hadamard product of two Gram matrices, which is positive
    semidefinite, so the sum is nonnegative; terms that cancel can leave
    a rounding residue below zero, which is clipped.
    """
    proj_x, rest_x = gx[:, :k].sum(1), gx[:, k:].sum(1)
    return np.maximum(np.sum(rest_x * gy.sum(1) + proj_x * gy[:, k:].sum(1), axis=(1, 2)).real, 0.0)


def _errors(mesh: Mesh, exacts, approx) -> tuple[np.ndarray, np.ndarray]:
    """L2 distances of the exact (u1, u2, phi) of F solutions to ``approx``
    and to constants, two ``(F,)`` arrays.

    ``approx`` gives per component the ``(F, n*n, 2, 2)`` Q1 coefficients
    of :func:`_q1_basis` on every element, or 0.  With P the error rule's
    orthogonal projection onto Q1, in which every approximation lies,
    |f - u_h|^2 = |f - Pf|^2 + |Pf - u_h|^2.  The rule is a tensor
    product, so |f - Pf|^2 summed over the mesh is a sum of products of
    per-axis Gram entries (:func:`_remainder_sq`), O(n q T^2) work for T
    terms, and |Pf - u_h|^2 the distance of 4 coefficients per element,
    O(n^2 T).  The best constants are the element means, the projection
    onto L_0(x) L_0(y), so the bound is the remainder of that projection
    alone.  No array over all n^2 q^2 points is formed.  For a one-term
    field every summand is a product of nonnegative norms and nothing
    cancels; for T > 1 the cross terms of the Grams can be negative, and
    a remainder much smaller than the terms loses relative accuracy: its
    norm is then known only to about 1e-8 of the terms' norms.
    """
    w, legendre, _ = _q1_basis()
    points = refelem.conforming_tabulation(ERROR_QUAD_1D).rule.points
    n, nf = mesh.n, len(exacts)
    err = best = 0.0
    for k, near in enumerate(approx):
        tables = _tables([(ex.u1, ex.u2, ex.phi)[k] for ex in exacts], mesh, points)
        (cx, gx), (cy, gy) = (_axis_split(t, w, legendre) for t in tables)
        # P f's coefficient [f, ey, j, ex, i] sums cy[f, t, ey, j] cx[f, t, ex, i]
        # over terms t; near's [f, e, i, j] is read in that order
        terms = cx.shape[1]
        pf = cy.reshape(nf, terms, 2 * n).transpose(0, 2, 1) @ cx.reshape(nf, terms, 2 * n)
        near = np.broadcast_to(near, (nf, n * n, 2, 2)).reshape(nf, n, n, 2, 2).transpose(0, 1, 4, 2, 3)
        err = err + _remainder_sq(gx, gy, 2) + _sum_sq(pf.reshape(nf, n, 2, n, 2) - near)
        best = best + _remainder_sq(gx, gy, 1)
    return np.sqrt(err * mesh.h**2), np.sqrt(best * mesh.h**2)


def best_approx_error(mesh: Mesh, exact: ExactSolution) -> float:
    """L2 distance of the exact fields to element-wise constants.

    The minimizing constant per element and component is the element mean,
    computed with the same quadrature used for the error integral.
    """
    return float(_errors(mesh, (exact,), (0.0, 0.0, 0.0))[1][0])


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


def _ratio(e_r: float, a: float) -> float:
    return e_r / a if a > 0 else (1.0 if e_r == 0 else np.inf)


class _Solved(NamedTuple):
    """The solves of a block of F frequencies, every field with leading
    axis F; ``failed`` holds per frequency the :class:`SolveFailure` of a
    solve that failed, whose other fields are no result, or None."""

    trace: np.ndarray
    fields: np.ndarray
    e_r: np.ndarray
    a: np.ndarray
    residual_rel: np.ndarray
    fill_nnz: np.ndarray
    refinement_steps: np.ndarray
    failed: list


def _dpg_block(mesh: Mesh, kits, exacts, g: np.ndarray) -> _Solved:
    """Condensed-trace solves of F frequencies of one mesh, one element kit,
    exact solution and row of boundary data ``g`` each, as one stacked pass.

    Assembles h^2 times each normalized condensed element everywhere,
    eliminates boundary vertex traces, solves, recovers the element
    interior constants, and measures the field error against the exact
    solution together with its best-approximation lower bound.
    """
    h = mesh.h
    tab = kits[0].tab
    recovery = np.stack([kit.recovery for kit in kits])
    # xh folds in first: the contraction runs over the 11 trial loads
    xh = np.stack([kit.xh for kit in kits]).conj()
    tests = [xh @ t for t in (tab.vx, tab.vy, tab.eta)]
    loads = h**3 * _moments(mesh, exacts, tab.rule.points, tab.rule.weights, tests)
    b = _scatter(mesh, loads[..., 3:] + loads[..., :3] @ recovery.conj())
    interior_inv = np.stack([kit.interior_inv for kit in kits])
    interior = loads[..., :3] @ interior_inv.transpose(0, 2, 1) / h**2
    del loads  # only b and the interior part are needed through the trace solve

    elements = h**2 * np.stack([kit.S for kit in kits])
    x, *solve = _constrained_solve(mesh, elements, b, g)
    fields = x[:, mesh.dofs] @ recovery.transpose(0, 2, 1) + interior
    e_r, a = _errors(mesh, exacts, fields.transpose(2, 0, 1)[..., None, None] * [[1, 0], [0, 0]])
    return _Solved(x, fields, e_r, a, *solve)


def _report(method, mesh, omega, eps, r, solved: _Solved, t0) -> SolveReport:
    """The one frequency of a block as a report; a failed solve raises its error."""
    if solved.failed[0] is not None:
        raise solved.failed[0]
    e_r, a = float(solved.e_r[0]), float(solved.a[0])
    return SolveReport(
        method, mesh.n, omega, eps, r, solved.trace[0], solved.fields[0], e_r, a, _ratio(e_r, a),
        float(solved.residual_rel[0]), int(solved.fill_nnz[0]), int(solved.refinement_steps[0]),
        time.perf_counter() - t0,
    )


def _boundary(mesh: Mesh, exact: ExactSolution, bc) -> np.ndarray:
    """One row of boundary data: ``bc`` if given, else the exact trace."""
    return _boundary_data(mesh, (exact,)) if bc is None else np.asarray(bc, dtype=complex)[None]


def solve_dpg(
    mesh: Mesh,
    omega: float,
    eps: float,
    r: int,
    exact: ExactSolution,
    bc: np.ndarray | None = None,
) -> SolveReport:
    """Condensed-trace solve of the eps-scaled method on the given mesh.

    The one-frequency block of :func:`_dpg_block`: h^2 times the
    normalized condensed element everywhere, boundary vertex traces
    eliminated, interior constants recovered, and the field error against
    ``exact`` with its best-approximation lower bound.
    """
    t0 = time.perf_counter()
    kit = localforms.element_kit(NormalizedParams(omega * mesh.h, eps * mesh.h, r))
    solved = _dpg_block(mesh, [kit], [exact], _boundary(mesh, exact, bc))
    return _report("dpg", mesh, omega, eps, r, solved, t0)


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
    used for the interface method, for side-by-side reading.  Every stage
    runs on the stacked forms with one frequency.
    """
    t0 = time.perf_counter()
    h = mesh.h
    elem = localforms.fosls_element(omega * h)
    rule, images = elem.tab.rule, [a[None] for a in (elem.a1, elem.a2, elem.a3)]
    b = _scatter(mesh, h * _moments(mesh, [exact], rule.points, rule.weights, images))
    x, *solve = _constrained_solve(mesh, elem.M[None], b, _boundary(mesh, exact, bc))

    u_h = (x[:, mesh.dofs] @ _q1_basis()[2][:, None]).reshape(3, 1, -1, 2, 2)
    fields = u_h[..., 0, 0].transpose(1, 2, 0)
    e_r, a = _errors(mesh, [exact], u_h)
    return _report("fosls", mesh, omega, None, None, _Solved(x, fields, e_r, a, *solve), t0)


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


#: bytes of stacked temporaries one block of frequencies may hold
BLOCK_BYTES = 3 << 20
#: stacked temporaries of one frequency per mesh element: the ``tracemalloc``
#: peak of a resonance-sweep block grows by 996 to 1482 bytes per element
#: and frequency at n = 32 to 8, mostly the ``(n*n, 8, 2)`` products and
#: their bincount indices in :func:`_apply` and the ``(n*n, 11)`` loads
BLOCK_BYTES_PER_ELEMENT = 1536


def _block_size(n: int) -> int:
    """Frequencies per stacked block on an n x n mesh: as many as
    ``BLOCK_BYTES`` hold, and one at large n."""
    return max(1, BLOCK_BYTES // (BLOCK_BYTES_PER_ELEMENT * n * n))


def resonance_sweep(
    omegas=None,
    eps_values=(1.0, 1e-1, 1e-2, 1e-3, 1e-4),
    n: int = 16,
    r: int = 3,
) -> list[ResonanceRow]:
    """Optimality-ratio table over a frequency grid crossing a resonance.

    The manufactured solution at each frequency, solved by the dpg
    method on the n x n mesh, one stacked :func:`_dpg_block` per
    :func:`_block_size` frequencies of one eps.  Rows that fail to solve,
    or whose element lies outside the supported envelope, are reported
    with their error message instead of aborting the sweep; a
    :class:`PhaseMismatch` aborts it.
    """
    if omegas is None:
        omegas = default_resonance_grid()
    omegas = [float(om) for om in omegas]
    mesh = build_mesh(n)
    size = _block_size(n)
    rows = []
    for eps in map(float, eps_values):
        for start in range(0, len(omegas), size):
            block = omegas[start:start + size]
            done, kits = {}, {}
            for k, om in enumerate(block):
                try:
                    kits[k] = localforms.element_kit(NormalizedParams(om * mesh.h, eps * mesh.h, r))
                except OutsideEnvelope as exc:
                    done[k] = ResonanceRow(om, eps, np.nan, np.nan, np.nan, str(exc))
            if kits:
                exacts = [manufactured_solution(block[k]) for k in kits]
                solved = _dpg_block(mesh, list(kits.values()), exacts, _boundary_data(mesh, exacts))
                for k, e_r, a, failure in zip(kits, solved.e_r, solved.a, solved.failed):
                    if failure is None:
                        e_r, a = float(e_r), float(a)
                        done[k] = ResonanceRow(block[k], eps, e_r, a, _ratio(e_r, a))
                    else:
                        done[k] = ResonanceRow(block[k], eps, np.nan, np.nan, np.nan, str(failure))
            rows += [done[k] for k in range(len(block))]
    return rows


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
