"""Interface stencils on a uniform square lattice.

On a uniform mesh every element contributes the same condensed matrix, so
the assembled interface operator acts by convolution on three interleaved
lattices of unknowns: scalar values at vertices, normal fluxes at
horizontal-edge midpoints, and normal fluxes at vertical-edge midpoints.
This module owns the numbering of that lattice (:func:`lattice`), which
the mesh solves in :mod:`helmdpg.assembly` use too.  It extracts the
convolution weights by assembling a small patch of elements (large enough
that the center rows are complete) and reading those rows off, tagged by
neighbour type and lattice offset.

Offsets are stored as integer pairs ``(two_lx, two_ly)`` equal to twice the
displacement in units of the mesh size, since edge midpoints sit at
half-integer positions relative to vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import localforms
from .errors import CenterRowDegenerate, MissingValue
from .localforms import NormalizedParams
from .numkit import EXTENDED, working_context

VERTEX = 1
HEDGE = 2
VEDGE = 3

TYPE_NAMES = {VERTEX: "vertex", HEDGE: "hedge", VEDGE: "vedge"}

DEGENERATE_RTOL = 1e-10
# x<->y mirror gap of a symmetric stencil set, relative to its largest
# weight; raw dpg rows at eps_n = 1e-6 reach 8e-14
XY_SYMMETRY_RTOL = 1e-10

_PATCH = 3  # elements per side; center rows are complete for any 8-dof trace element

# one element's 8 trace slots in the condensed order: vertices counter-
# clockwise from (ex, ey), bottom and top horizontal edges, left and right
# vertical edges; their types and doubled offsets from vertex (ex, ey)
TRACE_TYPES = np.array([VERTEX] * 4 + [HEDGE] * 2 + [VEDGE] * 2)
TRACE_POS2 = np.array([(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, 2), (0, 1), (2, 1)])


@dataclass(frozen=True)
class StencilSet:
    """Convolution weights for one discretization at one parameter point.

    ``weights[(t, s)]`` maps lattice offsets ``(two_lx, two_ly)`` to the
    coupling weight from a type ``s`` unknown into the type ``t`` center
    equation.  ``types`` lists the unknown types present (all three for the
    interface methods, vertices only for the bilinear FEM).  When the
    element was assembled in extended precision, ``exact`` mirrors
    ``weights`` with mpmath values at full digit count; root finders use it
    to escape the double-precision floor near nearly double roots, where
    the root position is more sensitive than the weights themselves.
    """

    method: str
    omega_n: float
    eps_n: float | None
    r: int | None
    types: tuple[int, ...]
    weights: Mapping[tuple[int, int], Mapping[tuple[int, int], complex]]
    exact: Mapping[tuple[int, int], Mapping[tuple[int, int], object]] | None = None

    def weight(self, t: int, s: int, two_l: tuple[int, int]) -> complex:
        row = self.weights.get((t, s))
        if row is None or two_l not in row:
            raise MissingValue(
                f"no weight for center type {t}, neighbour type {s}, offset {two_l}"
            )
        return row[two_l]

    def support_size(self, t: int) -> int:
        return sum(len(self.weights[(t, s)]) for s in self.types if (t, s) in self.weights)

    def max_abs(self, t: int) -> float:
        vals = [
            abs(v)
            for s in self.types
            if (t, s) in self.weights
            for v in self.weights[(t, s)].values()
        ]
        return max(vals) if vals else 0.0


def lattice(n: int):
    """The trace lattice of an n x n element mesh: ``(ndof, dofs, pos2)``.

    Vertices come first, then horizontal-edge midpoints, then vertical-edge
    midpoints, each numbered row by row.  Row ``e = ey*n + ex`` of the
    ``(n*n, 8)`` table ``dofs`` holds the element's trace ids in the
    condensed order, so ``dof_type[dofs] = TRACE_TYPES``;  ``pos2`` gives
    each id's position doubled so it stays an integer,
    ``pos2[dofs] = 2*(ex, ey) + TRACE_POS2``.
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
    pos2[dofs] = 2 * np.column_stack([ex, ey])[:, None, :] + TRACE_POS2
    return ndof, dofs, pos2


def assemble_patch(element: np.ndarray, n: int = _PATCH):
    """Assemble identical trace elements over an n x n patch, no constraints.

    Returns the dense patch matrix, a boolean mask of structurally assembled
    entries, the DOF type array, doubled positions, and the center DOF ids
    keyed by type.  Works for the 8-dof interface element and, by restricting
    to a 4x4 element, for the vertex-only FEM element.
    """
    ndof, dofs, pos2 = lattice(n)
    dof_type = np.empty(ndof, dtype=int)
    dof_type[dofs] = TRACE_TYPES
    dofs = dofs[:, : element.shape[0]]
    dtype = object if element.dtype == object else complex
    a = np.zeros((ndof, ndof), dtype=dtype)
    touched = np.zeros((ndof, ndof), dtype=bool)
    rows, cols = dofs[:, :, None], dofs[:, None, :]
    np.add.at(a, (rows, cols), element)
    touched[rows, cols] = True
    center = dofs[(n // 2) * (n + 1)]  # row of element (n//2, n//2)
    centers = {VERTEX: int(center[0])}
    if len(center) == 8:
        centers[HEDGE], centers[VEDGE] = int(center[4]), int(center[6])
    return a, touched, dof_type, pos2, centers


def _element_matrix(method, omega_n, eps_n, r):
    """Trace element for ``method`` plus its extended copy when one exists."""
    if method == "dpg":
        if eps_n is None or r is None:
            raise ValueError("dpg stencils need eps_n and r")
        kit = localforms.element_kit(NormalizedParams(omega_n, eps_n, r))
        return kit.S, kit.S_exact
    if method == "fosls":
        return localforms.fosls_element(omega_n).M, None
    if method == "fem":
        return localforms.fem_element(omega_n), None
    raise ValueError(f"unknown method {method!r}; expected dpg, fosls or fem")


def extract_stencils(
    method: str,
    omega_n: float,
    eps_n: float | None = None,
    r: int | None = None,
    normalize: bool = True,
) -> StencilSet:
    """Extract lattice stencils for ``method`` at normalized frequency omega_n.

    Each center row is the complete assembled equation for the middle unknown
    of its type.  With ``normalize`` the row is divided by its self weight so
    the diagonal entry at offset zero equals one; a vanishing self weight
    (a resonance of the center equation) raises CenterRowDegenerate.  When
    the element carries an extended-precision copy, the same rows are read
    off a second patch assembled at full digit count and kept alongside.
    """
    element, element_exact = _element_matrix(method, omega_n, eps_n, r)
    weights = _center_rows(element, normalize, method, omega_n)
    exact = None
    if element_exact is not None:
        with working_context(EXTENDED):
            exact = _center_rows(element_exact, normalize, method, omega_n)
    types = tuple(sorted({t for t, _ in weights}))
    return StencilSet(method, omega_n, eps_n, r, types, weights, exact)


def _center_rows(element, normalize, method, omega_n):
    """Assemble a patch of ``element`` and read its center rows.

    Returns ``{(t, s): {offset: value}}`` in the element's arithmetic:
    Python complex from complex128, mpmath numbers from an object array.
    """
    a, touched, dof_type, pos2, centers = assemble_patch(element)
    rows: dict[tuple[int, int], dict[tuple[int, int], object]] = {}
    for t, c in centers.items():
        values = a[c].tolist()
        row: dict[int, dict[tuple[int, int], object]] = {}
        for q in np.flatnonzero(touched[c]):
            off = (int(pos2[q, 0] - pos2[c, 0]), int(pos2[q, 1] - pos2[c, 1]))
            row.setdefault(int(dof_type[q]), {})[off] = values[q]
        if normalize:
            self_w = row[t][(0, 0)]
            row_max = max(abs(v) for d in row.values() for v in d.values())
            if abs(self_w) <= DEGENERATE_RTOL * row_max:
                raise CenterRowDegenerate(
                    f"{method} center row for {TYPE_NAMES[t]} has self weight "
                    f"{float(abs(self_w)):.3e} against row maximum {float(row_max):.3e} "
                    f"at omega_n={omega_n!r}"
                )
            row = {s: {k: v / self_w for k, v in d.items()} for s, d in row.items()}
        rows.update(((t, s), d) for s, d in row.items())
    return rows


def xy_asymmetry(stencils: StencilSet) -> float:
    """Largest gap between a weight and its x<->y mirror, relative to the largest weight.

    The mirror of the weight from type ``s`` at offset ``(lx, ly)`` into
    the type ``t`` equation is the weight from ``swap(s)`` at ``(ly, lx)``
    into ``swap(t)``, where swap exchanges the two edge types.  Both the
    double weights and, when present, the extended ones are compared; a
    mirror missing from the stencil set counts as an infinite gap.
    """
    swap = {VERTEX: VERTEX, HEDGE: VEDGE, VEDGE: HEDGE}
    worst, largest = 0.0, 0.0
    for weights in filter(None, (stencils.weights, stencils.exact)):
        for (t, s), row in weights.items():
            mirror = weights.get((swap[t], swap[s])) or {}
            for (lx, ly), w in row.items():
                if (ly, lx) not in mirror:
                    return np.inf
                worst = max(worst, abs(complex(w) - complex(mirror[(ly, lx)])))
                largest = max(largest, abs(complex(w)))
    return worst / largest if largest else 0.0


def xy_symmetric(stencils: StencilSet) -> bool:
    """Whether the stencil set is its own x<->y mirror to XY_SYMMETRY_RTOL.

    Such a set has the same dispersion relation along theta and
    pi/2 - theta.
    """
    return xy_asymmetry(stencils) <= XY_SYMMETRY_RTOL


def apply_stencil(
    stencils: StencilSet, t: int, values: Callable[[int, float, float], complex]
) -> complex:
    """Evaluate the type ``t`` center equation against a lattice function.

    ``values(s, dx, dy)`` must return the type ``s`` unknown at displacement
    ``(dx, dy)`` from the center, in units of the mesh size.
    """
    total = 0.0 + 0.0j
    for s in stencils.types:
        row = stencils.weights.get((t, s))
        if not row:
            continue
        for (two_lx, two_ly), coef in row.items():
            total += coef * values(s, two_lx / 2.0, two_ly / 2.0)
    return total
