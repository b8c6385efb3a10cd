"""Interface stencils on a uniform square lattice.

On a uniform mesh every element contributes the same condensed matrix, so
the assembled interface operator acts by convolution on three interleaved
lattices of unknowns: scalar values at vertices, normal fluxes at
horizontal-edge midpoints, and normal fluxes at vertical-edge midpoints.
This module reads the convolution weights straight off the element: the
center unknown of each type takes fixed slots in the elements around it,
and each such element adds one of its rows at the lattice offsets of its
slots (:data:`TRACE_POS2`), tagged by neighbour type (:data:`TRACE_TYPES`).
The mesh solves in :mod:`helmdpg.assembly` number the same lattice.

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

# one element's 8 trace slots in the condensed order: vertices counter-
# clockwise from (ex, ey), bottom and top horizontal edges, left and right
# vertical edges; their types and doubled offsets from vertex (ex, ey)
TRACE_TYPES = np.array([VERTEX] * 4 + [HEDGE] * 2 + [VEDGE] * 2)
TRACE_POS2 = np.array([(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, 2), (0, 1), (2, 1)])
# the slots a center unknown of each type takes in the elements around it,
# element rows bottom to top, left to right within a row
CENTER_SLOTS = {VERTEX: (2, 3, 1, 0), HEDGE: (5, 4), VEDGE: (7, 6)}


@dataclass(frozen=True)
class StencilSet:
    """Convolution weights for one discretization at one parameter point.

    ``weights[(t, s)]`` maps lattice offsets ``(two_lx, two_ly)`` to the
    coupling weight from a type ``s`` unknown into the type ``t`` center
    equation.  ``types`` lists the unknown types present (all three for the
    interface methods, vertices only for the bilinear FEM).  When the
    element was assembled in extended precision, ``exact`` mirrors
    ``weights`` with mpmath complex values (mpc) at full digit count; root
    finders use it to escape the double-precision floor near nearly double
    roots, where the root position is more sensitive than the weights
    themselves.
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
    the element carries an extended-precision copy, the same rows are summed
    from its slots at full digit count and kept alongside.  Only dpg reads
    ``eps_n`` and ``r``; fem and fosls ignore them and record None.
    """
    element, element_exact = _element_matrix(method, omega_n, eps_n, r)
    if method != "dpg":
        eps_n = r = None
    weights = _center_rows(element, normalize, method, omega_n)
    exact = None
    if element_exact is not None:
        with working_context(EXTENDED):
            exact = _center_rows(element_exact, normalize, method, omega_n)
    types = tuple(sorted({t for t, _ in weights}))
    return StencilSet(method, omega_n, eps_n, r, types, weights, exact)


def _center_rows(element, normalize, method, omega_n):
    """Sum the center rows of ``element`` from its slots.

    A center unknown of type t takes slot i (:data:`CENTER_SLOTS`) in each
    element around it, and each of those elements adds ``element[i][j]``
    at offset ``TRACE_POS2[j] - TRACE_POS2[i]`` to neighbour type
    ``TRACE_TYPES[j]``.  The sums start at zero and take the elements in
    :data:`CENTER_SLOTS` order, as assembling a patch of elements row by
    row would.  Returns ``{(t, s): {offset: value}}`` ordered by
    ``(t, s, dy, dx)``, in the element's arithmetic: Python complex from a
    complex or real array, mpmath numbers from an object array.
    """
    values = element.tolist()
    types, pos = TRACE_TYPES[: len(values)].tolist(), TRACE_POS2.tolist()
    rows: dict[tuple[int, int], dict[tuple[int, int], object]] = {}
    for t in sorted(set(types)):
        sums: dict[tuple[int, int, int], object] = {}
        for i in CENTER_SLOTS[t]:
            for j, s in enumerate(types):
                key = (s, pos[j][1] - pos[i][1], pos[j][0] - pos[i][0])
                sums[key] = sums.get(key, 0j) + values[i][j]
        row: dict[int, dict[tuple[int, int], object]] = {}
        for s, dy, dx in sorted(sums):
            row.setdefault(s, {})[dx, dy] = sums[s, dy, dx]
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
