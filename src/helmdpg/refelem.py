"""Bases and tabulation on the reference square [0,1]^2.

Three families live here:

* the enriched test space ``V^r = RT_r x Q_{r,r}`` with
  ``RT_r = Q_{r,r-1} x Q_{r-1,r}``, spanned by shifted tensor Legendre
  polynomials (well conditioned up to the orders used here, r <= 5);
* the 11-function lowest-order trial basis: three field constants
  (u1, u2, phi), four bilinear vertex trace functions, four edge-constant
  flux indicators;
* the 8-function conforming lowest-order pair (4 edge fluxes spanning the
  lowest Raviart-Thomas space, 4 bilinear vertex functions) used by the
  least-squares and bilinear-FEM baselines.

Edge conventions are global and fixed: horizontal edges carry the normal
(0,1), vertical edges (1,0).  Relative to the outward normal of the element
this gives sign +1 on top/right edges and -1 on bottom/left edges.

Both bases are tabulated into one :class:`Tabulation`: values, gradients
and divergences at a rule's volume points, plain numpy arrays in the
precision of the points supplied (float64 or mpmath objects).  No edge
tables are kept: the element couplings of trial traces and fluxes with the
test space have a closed form (``localforms._load_parts``) built from
:data:`VERTICES_CCW` and the end values of the Legendre polynomials.
Every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .errors import REnrichmentTooSmall
from .numkit import QuadratureRule, tensor_rule

# edge ids, in the order used for condensed degrees of freedom
BOTTOM, TOP, LEFT, RIGHT = 0, 1, 2, 3

#: sign of the global edge normal relative to the element outward normal
EDGE_SIGNS = {BOTTOM: -1.0, TOP: 1.0, LEFT: -1.0, RIGHT: 1.0}

#: reference vertices counterclockwise from the origin corner
VERTICES_CCW = ((0, 0), (1, 0), (1, 1), (0, 1))


def shifted_legendre_table(max_deg: int, x: np.ndarray):
    """Values and x-derivatives of shifted Legendre polynomials on [0,1].

    Returns ``(vals, ders)`` of shape (max_deg+1, len(x)) with
    ``vals[k] = P_k(2x-1)`` and ``ders[k] = d/dx P_k(2x-1)``.
    """
    x = np.asarray(x)
    npts = x.shape[0]
    t = 2 * x - 1
    vals = np.empty((max_deg + 1, npts), dtype=np.result_type(x, float))
    ders = np.empty_like(vals)
    one = t * 0 + 1
    vals[0], ders[0] = one, one * 0
    if max_deg >= 1:
        vals[1], ders[1] = t, one * 2
    for m in range(2, max_deg + 1):
        vals[m] = ((2 * m - 1) * t * vals[m - 1] - (m - 1) * vals[m - 2]) / m
        # dP_m/dt = dP_{m-2}/dt + (2m-1) P_{m-1}; extra factor 2 from t = 2x-1
        ders[m] = ders[m - 2] + 2 * (2 * m - 1) * vals[m - 1]
    return vals, ders


@dataclass(frozen=True)
class TestSpaceBasis:
    """Index structure of V^r: members are (component, i, j) triples.

    Components: ``"vx"`` for Q_{r,r-1} x {0}, ``"vy"`` for {0} x Q_{r-1,r},
    ``"sc"`` for the scalar part Q_{r,r}.  dim = 2 r (r+1) + (r+1)^2.
    """

    r: int
    members: tuple

    @property
    def dim(self) -> int:
        return len(self.members)

    @cached_property
    def layout(self) -> np.ndarray:
        """Read-only member rows ``(kind, deg_x, deg_y)``, kind 0 vx, 1 vy, 2 sc."""
        layout = np.array([(("vx", "vy", "sc").index(c), i, j) for c, i, j in self.members]).T
        layout.setflags(write=False)
        return layout


@lru_cache(maxsize=None)
def build_test_basis(r: int) -> TestSpaceBasis:
    """Enriched test-space basis; raises below the injectivity threshold r=2."""
    if r < 2:
        raise REnrichmentTooSmall(
            f"test-space order r={r} < 2: the trial-to-test map loses injectivity"
        )
    members = []
    for j in range(r):
        for i in range(r + 1):
            members.append(("vx", i, j))
    for j in range(r + 1):
        for i in range(r):
            members.append(("vy", i, j))
    for j in range(r + 1):
        for i in range(r + 1):
            members.append(("sc", i, j))
    return TestSpaceBasis(r, tuple(members))


@dataclass(frozen=True)
class Tabulation:
    """Volume tables of a basis at a rule's points, each of shape (dim, nq).

    ``vx, vy, eta`` are the vector and scalar component values, ``eta_x,
    eta_y`` the scalar gradient and ``div`` the vector divergence.  A test
    basis and the conforming pair are tabulated alike.
    """

    rule: QuadratureRule
    vx: np.ndarray
    vy: np.ndarray
    eta: np.ndarray
    eta_x: np.ndarray
    eta_y: np.ndarray
    div: np.ndarray


def _volume_tables(basis: TestSpaceBasis, pts: np.ndarray):
    px, dpx = shifted_legendre_table(basis.r, pts[:, 0])
    py, dpy = shifted_legendre_table(basis.r, pts[:, 1])
    kind, i, j = basis.layout
    val, d_x, d_y = px[i] * py[j], dpx[i] * py[j], px[i] * dpy[j]
    is_vx, is_vy, is_sc = (kind[:, None] == k for k in range(3))
    zero = pts[0, 0] * 0
    return {
        "vx": np.where(is_vx, val, zero),
        "vy": np.where(is_vy, val, zero),
        "eta": np.where(is_sc, val, zero),
        "eta_x": np.where(is_sc, d_x, zero),
        "eta_y": np.where(is_sc, d_y, zero),
        "div": np.where(is_vx, d_x, np.where(is_vy, d_y, zero)),
    }


def tabulate_test_basis(basis: TestSpaceBasis, rule: QuadratureRule) -> Tabulation:
    """Tabulate a test basis at a rule's volume points."""
    return Tabulation(rule, **_volume_tables(basis, rule.points))


@lru_cache(maxsize=None)
def legendre_integrals(r: int) -> np.ndarray:
    """Exact 1D integrals ``T[a, b, i, j]`` of ``d^a P_i * d^b P_j`` over [0, 1].

    ``P_i`` are the shifted Legendre polynomials up to degree r and
    ``a, b`` in {0, 1} derivative orders.  Every entry of a test-space
    Gram matrix is a sum of products of an x- and a y-integral from this
    table.  ``P_k(2x-1) = sum_m (-1)^(k+m) C(k,m) C(k+m,m) x^m`` has integer
    monomial coefficients, so each entry is a ``Fraction`` summed from
    ``int x^m = 1/(m+1)``, and ``T[a, b, i, j] == T[b, a, j, i]`` holds
    by construction.  Cached per r and read-only.
    """
    polys = [[(-1) ** (k + m) * comb(k, m) * comb(k + m, m) for m in range(k + 1)]
             for k in range(r + 1)]
    ders = [[m * c for m, c in enumerate(p)][1:] for p in polys]
    f = polys + ders
    m = np.array([[sum((Fraction(c * d, i + j + 1) for i, c in enumerate(p)
                        for j, d in enumerate(q)), Fraction(0))
                   for q in f] for p in f], dtype=object)
    table = m.reshape(2, r + 1, 2, r + 1).transpose(0, 2, 1, 3)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# lowest-order trial basis (3 field constants + 8 interface functions)
# ---------------------------------------------------------------------------

#: size of the 11-function trial basis: u1, u2, phi element constants,
#: vertex traces CCW from the origin, bottom/top then left/right edge fluxes
TRIAL_DIM = 11


def vertex_hat(a: int, b: int, x: np.ndarray, y: np.ndarray):
    """Bilinear function that is 1 at vertex (a,b) and 0 at the others."""
    fx = x if a == 1 else 1 - x
    fy = y if b == 1 else 1 - y
    return fx * fy


def vertex_hat_gradient(a: int, b: int, x: np.ndarray, y: np.ndarray):
    fx = x if a == 1 else 1 - x
    fy = y if b == 1 else 1 - y
    sx = 1 if a == 1 else -1
    sy = 1 if b == 1 else -1
    return sx * fy, sy * fx


# ---------------------------------------------------------------------------
# conforming lowest-order pair (baselines)
# ---------------------------------------------------------------------------


def tabulate_conforming_basis(rule: QuadratureRule) -> Tabulation:
    """Tabulate the RT-lowest x bilinear pair at volume points.

    Order matches the condensed trace layout: 4 vertex scalars (CCW), then
    bottom/top horizontal-edge fluxes, then left/right vertical-edge fluxes;
    scalar rows have zero vector entries and vice versa.

    Edge-flux functions are normalized against the *global* edge normals:
    the bottom flux is (0, 1-y) so its (0,1)-component is 1 on the bottom
    edge and 0 on the top, and similarly for the others.  This makes the
    shared-edge coefficient single-valued across elements.
    """
    pts = rule.points
    x, y = pts[:, 0], pts[:, 1]
    z = np.full((8, pts.shape[0]), x[0] * 0)
    vx, vy, eta = z.copy(), z.copy(), z.copy()
    eta_x, eta_y, div = z.copy(), z.copy(), z.copy()
    for a, (va, vb) in enumerate(VERTICES_CCW):
        eta[a] = vertex_hat(va, vb, x, y)
        gx, gy = vertex_hat_gradient(va, vb, x, y)
        eta_x[a], eta_y[a] = gx, gy
    one = x * 0 + 1
    vy[4], div[4] = 1 - y, -one          # bottom
    vy[5], div[5] = y, one               # top
    vx[6], div[6] = 1 - x, -one          # left
    vx[7], div[7] = x, one               # right
    return Tabulation(rule, vx, vy, eta, eta_x, eta_y, div)


@lru_cache(maxsize=None)
def conforming_tabulation(n: int) -> Tabulation:
    """The conforming pair tabulated under the n x n Gauss rule, cached per
    n and read-only: the FEM and FOSLS elements and the mesh error
    quadrature share it."""
    tab = tabulate_conforming_basis(tensor_rule(n))
    rule = tab.rule
    for a in (rule.points, rule.weights, tab.vx, tab.vy, tab.eta, tab.eta_x, tab.eta_y, tab.div):
        a.setflags(write=False)
    return tab


def default_rule(r: int) -> QuadratureRule:
    """The (r+2)-point-per-direction tensor rule used for element forms."""
    return tensor_rule(r + 2)
