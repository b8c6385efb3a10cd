"""Element matrices on the reference square, in normalized variables.

Everything here is computed once on [0,1]^2 with the normalized frequency
``omega_n = omega*h`` and test-norm weight ``eps_n = eps*h``; the physical
element matrix on a square of side h is ``h^2`` times the normalized one
(see :func:`scale_to_physical`), which is what makes uniform-mesh assembly
and interface stencils cheap.

The graph-norm test inner product is

    <w, v>_V = (A w, A v) + eps_n^2 (w, v),       A(v, eta) = (i w v + grad eta,
                                                               i w eta + div v)

with the complex conjugate on the second slot.  The trial-to-test solve
``G X = Bb`` produces the optimal test functions column by column, and the
element matrix ``B = Bb^H X = Bb^H G^{-1} Bb`` is Hermitian positive
semidefinite by construction.

Element routes.  :func:`element_kit`, the element behind the stencil,
dispersion and mesh drivers, alone picks the element route; no caller
above this module sets it.  It solves the Riesz problem in complex128 by QR
of the weighted stack K with ``G = K^H K`` (Golub & Van Loan, Matrix
Computations, sec. 5.3) and never forms G.  K stacks the test basis' volume
tables under the (r+2)-point Gauss rule; the right-hand side ``Bb`` is the
closed form below rounded once to double, so both routes solve with one
``Bb``.  The route follows the 1-norm estimate ``cond(R)^2`` of G's
condition: double up to 1e16, the exact :func:`dpg_element` above it, and
:class:`~helmdpg.errors.OutsideEnvelope` above 1e27, raised before any
exact work.  ``cond(G)`` does not grow like ``1/eps_n^2``: at r = 3,
``omega_n = pi/4`` it levels off at about 7.2e11 as ``eps_n -> 0``, so
``eps_n = 0`` runs in double there, while small ``omega_n`` at
``eps_n = 0`` (r = 3 at ``2*pi/64``: 6.6e22) takes the exact element and
r = 4 at ``2*pi/64`` (4.9e29) is rejected.

:func:`dpg_element` solves the normal equations ``G X = Bb`` exactly, in
integer arithmetic.  With the scalar test members multiplied by i (``U``)
and the trial functions by the phases ``T`` of :data:`TRIAL_PHASES`,
``G_R = U^H G U`` is real symmetric and ``Bb_R = U^H Bb T`` real.  Every
entry of ``G_R`` is a polynomial in ``omega_n`` and ``eps_n^2`` whose
coefficients come from the exact 1D shifted-Legendre integrals of
:func:`~helmdpg.refelem.legendre_integrals`, integer matrices once scaled
by their common denominator (:func:`_integer_parts`), and
``Bb_R = P + omega_n Q`` has a closed form from the end values and moments
of the Legendre polynomials, with exact P and Q cached per r
(:func:`_load_parts`).  A double ``omega_n`` or ``eps_n`` is an exact
dyadic rational, so ``s G_R`` and ``t Bb_R`` are integer matrices for
integer scales s and t, and ``G_R X_R = Bb_R`` is solved in Python ints by
fraction-free (Bareiss) elimination, one block per reflection parity:
``X_R = s N / (t det)``, with no quadrature and no rounding.  ``G``,
``Bb``, ``X`` and ``B`` are rounded once from their numerators and
denominators, with the phases applied, into the arithmetic that
``params.precision`` names (30 digits by default).  The phases are 1 and
+-i, so mapping back, ``G = U G_R U^H``, ``X = U X_R T^H`` and
``B = T B_R T^H``, adds no error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import refelem
from .errors import DimensionMismatch, InteriorBlockSingular, NotPositiveDefinite, OutsideEnvelope
from .numkit import (
    EXTENDED,
    PIVOT_RTOL,
    Precision,
    adjugate_small,
    as_complex128,
    det_small,
    rounded,
    working_context,
)
from .refelem import TRIAL_DIM

#: Gram condition estimate cond(R)^2 up to which the double QR Riesz solve
#: is used: cond(R) up to 1e8, the square root of 1/u for the unit roundoff
#: u of double.  Inside it B, S and X^H match the exact element to 1e-10
#: (worst 4.3e-11, X^H at r = 4, omega_n = pi/4, eps_n = 1e-6)
DOUBLE_COND_LIMIT = 1e16

#: Gram condition estimate above which no element is built.  The exact
#: element needs no limit; this one bounds where roots have been checked.
#: At eps_n = 0, r = 4 four polish starts agree to 5.3e-16 at omega_n =
#: 2*pi/64 (estimate 4.94e29) and to 3.0e-13 at 2*pi/128 (7.9e33), where
#: Im z spreads by 1.04e-6 of itself under a 30- or a 50-digit polish
ENVELOPE_COND_LIMIT = 1e27


#: trial phases T: u1, u2 and the four edge fluxes pair with the imaginary
#: components of the realified test images, phi and the vertex traces with
#: the real ones, so that ``Bb_R = U^H Bb T`` is real
TRIAL_PHASES = np.array([-1j, -1j, 1, 1, 1, 1, 1, -1j, -1j, -1j, -1j])


@dataclass(frozen=True)
class NormalizedParams:
    """Normalized element parameters (omega_n = omega*h, eps_n = eps*h).

    ``precision`` is the arithmetic of the arrays :func:`dpg_element`
    returns; ``None`` reads as the 30-digit ``EXTENDED``.
    :func:`element_kit` picks its own route and rejects a set precision.
    """

    omega_n: float
    eps_n: float
    r: int
    precision: Precision | None = None

    def __post_init__(self):
        if not (self.omega_n > 0 and math.isfinite(self.omega_n)):
            raise ValueError(f"omega_n must be positive and finite, got {self.omega_n}")
        if not (self.eps_n >= 0 and math.isfinite(self.eps_n)):
            raise ValueError(f"eps_n must be nonnegative and finite, got {self.eps_n}")
        refelem.build_test_basis(self.r)  # validates r >= 2


@dataclass(frozen=True)
class DpgElementMatrices:
    """Normalized DPG element data.

    ``G`` is the (dim x dim) test Gram matrix, ``Bb[k,i] = b(e_i, v_k)``
    the (dim x 11) trial-test couplings, ``X`` the trial-to-test solution of
    ``G X = Bb`` (optimal test function coefficients per trial function),
    ``B = Bb^H X`` the Hermitian PSD 11x11 element matrix.  Arrays are
    complex, in ``precision_used`` (complex128 or mpmath objects), each
    the exact solution of ``G_R X_R = Bb_R`` described in the module
    docstring rounded once and mapped back through the phases, so ``B`` is
    ``Bb_R^T X_R`` up to the trial phases.
    """

    params: NormalizedParams
    precision_used: Precision
    G: np.ndarray
    Bb: np.ndarray
    X: np.ndarray
    B: np.ndarray


def _test_phases(r: int) -> np.ndarray:
    """U: 1 on vector members, i on scalar members."""
    return np.where(refelem.build_test_basis(r).layout[0] == 2, 1j, 1)


@lru_cache(maxsize=None)
def _load_parts(r: int):
    """Closed-form parts of ``Bb_R = U^H Bb T = P + omega_n Q``: ``(P, Q, P64)``.

    Each entry of P is a product of an x- and a y-integral of shifted
    Legendre polynomials: ``int P_k = [k = 0]``, ``int P_k' = P_k(1) -
    P_k(0)`` with ``P_k(1) = 1`` and ``P_k(0) = (-1)^k``, and the vertex
    hats' edge moments ``int t P_k = ([k = 0] + [k = 1]/3)/2`` and
    ``int (1 - t) P_k = ([k = 0] - [k = 1]/3)/2``.  Q is 1 at the three
    couplings of the field constants u1, u2, phi with the constant member
    of their own component and 0 elsewhere, and P is 0 there.  P holds
    ints and Fractions, Q ints, and ``P64`` is P correctly rounded to
    double.  Cached per r and read-only.
    """
    ks = range(r + 1)
    kind, i, j = refelem.build_test_basis(r).layout
    end = np.array([[(-1) ** k for k in ks], [1 for k in ks]], dtype=object)  # P_k(v)
    mean = np.array([int(k == 0) for k in ks], dtype=object)  # int P_k
    jump = end[1] - end[0]  # int P_k'
    # moment[v, k]: int (1 - t) P_k for v = 0, int t P_k for v = 1
    moment = np.array([[Fraction(3 * (k == 0) + s * (k == 1), 6) for k in ks] for s in (-1, 1)])
    sign = (-1, 1)  # outward normal sign on the edge x = v or y = v
    is_vx, is_vy, is_sc = (kind == c for c in range(3))
    P = np.zeros((kind.size, TRIAL_DIM), dtype=object)
    P[:, 0] = np.where(is_sc, jump[i] * mean[j], 0)
    P[:, 1] = np.where(is_sc, mean[i] * jump[j], 0)
    P[:, 2] = np.where(is_vx, -jump[i] * mean[j], np.where(is_vy, -mean[i] * jump[j], 0))
    for a, (va, vb) in enumerate(refelem.VERTICES_CCW):
        P[:, 3 + a] = np.where(is_vx, sign[va] * end[va, i] * moment[vb, j],
                               np.where(is_vy, sign[vb] * end[vb, j] * moment[va, i], 0))
    # flux on bottom, top (y = v) and left, right (x = v) edges: -EDGE_SIGNS * int eta
    for t, (v, horizontal) in enumerate(((0, True), (1, True), (0, False), (1, False))):
        val = mean[i] * end[v, j] if horizontal else end[v, i] * mean[j]
        P[:, 7 + t] = np.where(is_sc, -sign[v] * val, 0)
    Q = np.zeros(P.shape, dtype=int)
    constant = (i == 0) & (j == 0)
    Q[constant & is_vx, 0] = Q[constant & is_vy, 1] = Q[constant & is_sc, 2] = 1
    P64 = P.astype(float)
    for m in (P, Q, P64):
        m.setflags(write=False)
    return P, Q, P64


@lru_cache(maxsize=None)
def _integer_parts(r: int):
    """Integer forms of the realified Gram and load: ``(D, A, d, dP)``.

    With the scalar test members multiplied by i, the A-images become
    ``(i c1, i c2, c3)`` with real ``c1 = omega_n vx + eta_x``,
    ``c2 = omega_n vy + eta_y`` and ``c3 = div - omega_n eta``, so
    ``G_R = U^H G U = sum_c (c_k, c_l) + eps_n^2 (value Gram)``.  Each
    member contributes one tensor term ``coef * d^a P_i(x) d^b P_j(y)`` to
    each c, with ``coef`` one of 0, +-1 and +-omega_n, so every entry is a
    product of two coefficients times an x- and a y-entry of
    :func:`~helmdpg.refelem.legendre_integrals`.  With L the common
    denominator of that table and ``D = L^2``, sorting the products by
    their power of omega_n gives
    ``D G_R = A[0] + omega_n A[1] + omega_n^2 A[2] + eps_n^2 A[3]`` with
    integer A.  ``dP`` is the P of :func:`_load_parts` times its common
    denominator d.  Entries are Python ints; cached per r and read-only.
    """
    kind, deg_x, deg_y = refelem.build_test_basis(r).layout
    table = refelem.legendre_integrals(r)
    L = math.lcm(*(v.denominator for v in table.flat))
    table = np.frompyfunc(lambda v: int(v * L), 1, 1)(table)

    def integrals(dx, dy):
        ax, ay = np.array(dx)[kind], np.array(dy)[kind]
        return (table[ax[:, None], ax, deg_x[:, None], deg_x]
                * table[ay[:, None], ay, deg_y[:, None], deg_y])

    # per c: constant and omega_n coefficients on (vx, vy, sc) members,
    # then x and y derivative orders
    images = (
        ((0, 0, 1), (1, 0, 0), (0, 0, 1), (0, 0, 0)),
        ((0, 0, 1), (0, 1, 0), (0, 0, 0), (0, 0, 1)),
        ((1, 1, 0), (0, 0, -1), (1, 0, 0), (0, 1, 0)),
    )
    A = np.zeros((4, kind.size, kind.size), dtype=object)
    for const, slope, dx, dy in images:
        a, b = np.array(const)[kind], np.array(slope)[kind]
        term = integrals(dx, dy)
        A[0] += np.outer(a, a) * term
        A[1] += (np.outer(a, b) + np.outer(b, a)) * term
        A[2] += np.outer(b, b) * term
    A[3] = np.where(kind[:, None] == kind, integrals((0, 0, 0), (0, 0, 0)), 0)
    P = _load_parts(r)[0]
    d = math.lcm(*(v.denominator for v in P.flat))
    dP = np.frompyfunc(lambda v: int(v * d), 1, 1)(P)
    for m in (A, dP):
        m.setflags(write=False)
    return L * L, A, d, dP


def _scaled_gram(params: NormalizedParams):
    """``(sG, s)``: the exact ``G_R`` as an integer matrix over a scale, ``G_R = sG / s``.

    A double omega_n or eps_n is an exact dyadic rational, so
    ``omega_n = w / q`` and ``eps_n = e / q`` with one power of two q, and
    ``s = D q^2`` clears every denominator of :func:`_integer_parts`'
    combination.
    """
    D, A, _, _ = _integer_parts(params.r)
    wn, wd = params.omega_n.as_integer_ratio()
    en, ed = params.eps_n.as_integer_ratio()
    q = max(wd, ed)
    w, e = wn * (q // wd), en * (q // ed)
    sG = (q * q) * A[0] + (w * q) * A[1] + (w * w) * A[2]
    if e:
        sG = sG + (e * e) * A[3]
    return sG, D * q * q


def _scaled_load(params: NormalizedParams):
    """``(tBb, t)``: the exact ``Bb_R = P + omega_n Q = tBb / t`` in integers."""
    _, _, d, dP = _integer_parts(params.r)
    _, Q, _ = _load_parts(params.r)
    wn, wd = params.omega_n.as_integer_ratio()
    return wd * dP + (wn * d) * Q.astype(object), d * wd


def _double_load(params: NormalizedParams) -> np.ndarray:
    """The QR route's ``Bb = U (P + omega_n Q) T^H`` in complex128.

    Q is 1 where P is 0 and 0 elsewhere, so the double sum adds to each
    entry of ``P64`` an exact zero or the exact ``omega_n``; with phases 1
    and +-i, every entry is the closed form rounded once.
    """
    _, Q, P64 = _load_parts(params.r)
    return (P64 + params.omega_n * Q) * np.outer(_test_phases(params.r), TRIAL_PHASES.conj())


def _bareiss_solve(a: list, b: list):
    """Fraction-free solve of a symmetric positive definite integer system.

    ``a`` (n x n) and ``b`` (n x m) are lists of rows of Python ints.
    Returns ``(N, det)``: an n x m list of int rows and ``det = det(a) > 0``
    with ``a^{-1} b = N / det``.  Bareiss' elimination divides every update
    exactly by the previous pivot, so its k-th pivot is the leading k x k
    minor of ``a``; the trailing block stays symmetric, so only its upper
    triangle is updated.  The back substitution of ``N = det a^{-1} b``
    divides exactly too, since N is integral by Cramer's rule.  The ratio
    of two consecutive minors is the k-th LDL^T pivot: one not above
    ``PIVOT_RTOL`` times the largest diagonal entry raises
    :class:`NotPositiveDefinite`, the test :func:`condense` applies to
    the minors of its interior block.
    """
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    maxdiag = max((abs(a[i][i]) for i in range(n)), default=0)
    num, den = PIVOT_RTOL.as_integer_ratio()
    prev = 1
    for k, rk in enumerate(rows):
        piv = rk[k]
        if not piv * den > num * maxdiag * prev:
            raise NotPositiveDefinite(
                f"pivot {piv / (prev * (maxdiag or 1)):.3e} times the largest diagonal entry "
                f"at index {k} below tolerance {PIVOT_RTOL:.0e}"
            )
        for i in range(k + 1, n):
            ri, f = rows[i], rk[i]
            ri[i:] = [(piv * x - f * y) // prev for x, y in zip(ri[i:], rk[i:])]
        prev = piv
    det = prev
    N = [None] * n
    for k in range(n - 1, -1, -1):
        rk = rows[k]
        acc = [det * v for v in rk[n:]]
        for j in range(k + 1, n):
            u = rk[j]
            if u:
                acc = [x - u * y for x, y in zip(acc, N[j])]
        N[k] = [x // rk[k] for x in acc]
    return N, det


def dpg_element(params: NormalizedParams) -> DpgElementMatrices:
    """Solve the realified element exactly, then round it into ``params.precision``."""
    precision = params.precision or EXTENDED
    sG, s = _scaled_gram(params)
    tBb, t = _scaled_load(params)
    # x -> 1 - x and y -> 1 - y map each test member to +-itself and keep the
    # Gram form, so G_R has no entry between members of different parities.
    # Per block X_R = s N / (t det); over the lcm of the four dets, every
    # entry of X_R and of B_R = Bb_R^T X_R shares one denominator
    kind, i, j = refelem.build_test_basis(params.r).layout
    parity = 2 * ((i + (kind == 0)) % 2) + (j + (kind == 1)) % 2
    blocks = [np.flatnonzero(parity == p) for p in range(4)]
    solved = [_bareiss_solve(sG[np.ix_(idx, idx)].tolist(), tBb[idx].tolist()) for idx in blocks]
    lcm = math.lcm(*(det for _, det in solved))
    X_num = np.empty(tBb.shape, dtype=object)
    for idx, (N, det) in zip(blocks, solved):
        X_num[idx] = np.array(N, dtype=object) * (s * (lcm // det))
    u, ph = _test_phases(params.r), TRIAL_PHASES
    G, Bb, X, B = (
        rounded(m, den, np.outer(left, right.conj()), precision)
        for m, den, left, right in (
            (sG, s, u, u), (tBb, t, u, ph), (X_num, t * lcm, u, ph), (tBb.T @ X_num, t * t * lcm, ph, ph)
        )
    )
    return DpgElementMatrices(params, precision, G, Bb, X, B)


def scale_to_physical(b_ref: np.ndarray, h: float) -> np.ndarray:
    """Physical element matrix on a square of side h: h^2 times normalized."""
    if not h > 0:
        raise ValueError(f"element size must be positive, got {h}")
    return (h * h) * b_ref


@dataclass(frozen=True)
class CondensedElement:
    """Interface (trace) element after eliminating the three field constants.

    Trace ordering is frozen: 4 vertex values counterclockwise from the
    origin corner, then bottom/top horizontal-edge fluxes, then left/right
    vertical-edge fluxes.  ``S`` is the 8x8 Schur complement
    ``B_TT - B_TI B_II^{-1} B_IT``; interior recovery is
    ``x_I = recovery @ x_T + interior_inv @ l_I`` for an interior load
    ``l_I`` in the same normalization as S.  Stored in complex128 (the
    Schur elimination itself runs in the precision of the input matrix);
    when the input was extended, ``S_exact`` additionally keeps the Schur
    complement at full digit count for consumers whose sensitivity exceeds
    double precision (the dispersion roots of weakly dissipative elements).
    """

    S: np.ndarray
    recovery: np.ndarray
    interior_inv: np.ndarray
    S_exact: np.ndarray | None = None


def condense(b: np.ndarray) -> CondensedElement:
    """Static condensation of an 11x11 element matrix onto its 8 trace DOFs.

    The arithmetic follows ``b.dtype``: 30-digit extended for object-dtype
    (mpmath) input, the rounding of every exact element here, and double
    otherwise.  The 3x3 interior block is inverted in closed form, as its
    adjugate over its determinant (:func:`~helmdpg.numkit.adjugate_small`,
    :func:`~helmdpg.numkit.det_small`).  It must be positive definite: the
    ratio of its leading k x k and (k-1) x (k-1) minors is its k-th LDL^H
    pivot, and a pivot not above ``PIVOT_RTOL`` times the largest diagonal
    entry raises :class:`InteriorBlockSingular` naming its index.
    """
    b = np.asarray(b)
    if b.shape != (TRIAL_DIM, TRIAL_DIM):
        raise DimensionMismatch(f"expected an 11x11 element matrix, got {b.shape}")
    with working_context(EXTENDED):
        b_ii = b[:3, :3]
        b_it = b[:3, 3:]
        b_ti = b[3:, :3]
        b_tt = b[3:, 3:]
        tol = PIVOT_RTOL * max(float(abs(v.real)) for v in b_ii.diagonal())
        prev = 1
        for k in range(3):
            minor = det_small(b_ii[: k + 1, : k + 1])
            piv = float((minor / prev).real)
            if not piv > tol:
                raise InteriorBlockSingular(
                    f"interior 3x3 block not invertible: pivot {piv:.3e} at index {k} "
                    f"below tolerance {tol:.3e}"
                )
            prev = minor
        interior_inv = adjugate_small(b_ii) / prev
        recovery = -(interior_inv @ b_it)
        s = b_tt + b_ti @ recovery
    s_exact = np.asarray(s, dtype=object) if b.dtype == object else None
    return CondensedElement(
        as_complex128(s), as_complex128(recovery), as_complex128(interior_inv), s_exact
    )


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def conforming_a_images(tab: refelem.Tabulation, omega_n: float):
    """A-operator images (a1, a2, a3) of a tabulated basis, in double.

    ``tab`` is the one :class:`~helmdpg.refelem.Tabulation` type, of the
    conforming pair (FOSLS) or of a test basis (the rows of the double QR
    route's K).  Only volume tables enter: that route's couplings ``Bb``
    are the closed form of :func:`_load_parts`, not a quadrature.
    """
    iw = complex(0, omega_n)
    a1 = iw * tab.vx + tab.eta_x
    a2 = iw * tab.vy + tab.eta_y
    a3 = iw * tab.eta + tab.div
    return a1, a2, a3


@dataclass(frozen=True)
class FoslsElement:
    """Least-squares element: M[i,j] = (A e_j, A e_i) over the unit square.

    ``a1, a2, a3`` are the A-images of the basis (8 x nq) used for load
    functionals; ``tab`` carries the conforming value tables for field
    evaluation.  The physical element matrix equals the normalized one at
    omega_n = omega*h (the 1/h^2 from A meets the h^2 from the area), and
    physical loads pick up a single factor h.
    """

    omega_n: float
    M: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    tab: refelem.Tabulation


def fosls_element(omega_n: float) -> FoslsElement:
    """First-order-system least-squares element matrix on the unit square.

    The rule and tabulation, shared by every call, are read-only.
    """
    if not (omega_n > 0 and math.isfinite(omega_n)):
        raise ValueError(f"omega_n must be positive and finite, got {omega_n}")
    tab = refelem.conforming_tabulation(4)
    a1, a2, a3 = conforming_a_images(tab, omega_n)
    w = tab.rule.weights
    m = np.zeros((8, 8), dtype=complex)
    for ac in (a1, a2, a3):
        m += (ac.conj() * w[None, :]) @ ac.T
    return FoslsElement(omega_n, m, a1, a2, a3, tab)


@lru_cache(maxsize=None)
def _fem_parts():
    """Stiffness and mass of the bilinear element under the 3 x 3 Gauss
    rule, ``(stiff, mass)``, cached and read-only."""
    tab = refelem.conforming_tabulation(3)
    w = tab.rule.weights
    gx, gy, q = tab.eta_x[:4], tab.eta_y[:4], tab.eta[:4]
    stiff = (gx * w[None, :]) @ gx.T + (gy * w[None, :]) @ gy.T
    mass = (q * w[None, :]) @ q.T
    for m in (stiff, mass):
        m.setflags(write=False)
    return stiff, mass


def fem_element(omega_n: float):
    """Bilinear FEM element S - omega_n^2 M on the unit square (4x4 complex).

    Vertex order is counterclockwise from the origin corner, matching the
    first four condensed trace DOFs.
    """
    if not (omega_n > 0 and math.isfinite(omega_n)):
        raise ValueError(f"omega_n must be positive and finite, got {omega_n}")
    stiff, mass = _fem_parts()
    return (stiff - omega_n**2 * mass).astype(complex)


# ---------------------------------------------------------------------------
# cached element kit for assembly and stencils
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElementKit:
    """Downcast, reusable per-parameter element data for meshes and stencils.

    All arrays are complex128/float64.  The route follows the Gram
    condition estimate alone, the 1-norm ``cond(R)^2`` of the QR factor of
    K (``G = K^H K``), which ``cond`` holds on both routes: up to
    ``DOUBLE_COND_LIMIT`` the element is the double QR Riesz solve, above
    it the exact :func:`dpg_element` rounded to 30 digits, and above
    ``ENVELOPE_COND_LIMIT`` :class:`OutsideEnvelope` is raised before any
    exact work.  The accuracy of ``S`` is inherited from the element
    computation.  ``xh = X^H`` maps moment vectors of f against the test
    basis, tabulated in ``tab`` under its rule, to the 11 trial load
    entries; ``tab`` is :func:`~helmdpg.refelem.tabulated_test_basis`, one
    read-only table per r that all kits share.  ``S_exact`` carries the
    30-digit Schur complement of the exact element, and is None on the
    double route.
    """

    params: NormalizedParams
    precision_used: Precision
    cond: float
    B: np.ndarray
    S: np.ndarray
    recovery: np.ndarray
    interior_inv: np.ndarray
    xh: np.ndarray
    tab: refelem.Tabulation
    S_exact: np.ndarray | None = None


def _qr_riesz(params: NormalizedParams):
    """Double Riesz solve by QR: ``(tab, B, X, cond)``.

    With K the quadrature-weighted stack of the test basis' A-images and
    eps_n-scaled values, G = K^H K = R^H R, so solving ``R^H Y = Bb``, the
    closed form of :func:`_double_load`, gives
    ``B = Y^H Y`` and ``X = R^{-1} Y`` without forming G, whose condition
    is the square of R's.  ``cond`` is the 1-norm ``cond(R)^2``; above
    ``DOUBLE_COND_LIMIT`` B and X are None, above ``ENVELOPE_COND_LIMIT``
    the element is rejected.
    """
    tab = refelem.tabulated_test_basis(params.r)
    sw = np.sqrt(tab.rule.weights)[:, None]
    K = np.concatenate(
        [sw * ac.T for ac in conforming_a_images(tab, params.omega_n)]
        + [(params.eps_n * sw) * vc.T for vc in (tab.vx, tab.vy, tab.eta)]
    )
    R = np.linalg.qr(K, mode="r")
    cond = float(np.linalg.cond(R, 1)) ** 2
    if not cond <= ENVELOPE_COND_LIMIT:
        raise OutsideEnvelope(
            f"r={params.r}, omega_n={params.omega_n!r}, eps_n={params.eps_n!r}: "
            f"Gram condition estimate {cond:.2e} exceeds {ENVELOPE_COND_LIMIT:.0e}, "
            "the supported envelope; raise eps_n or lower r"
        )
    if cond > DOUBLE_COND_LIMIT:
        return tab, None, None, cond
    Y = np.linalg.solve(R.conj().T, _double_load(params))
    return tab, Y.conj().T @ Y, np.linalg.solve(R, Y), cond


@lru_cache(maxsize=64)
def element_kit(params: NormalizedParams) -> ElementKit:
    """Cached DPG element + condensation, downcast for double-precision use.

    Raises ValueError for ``params.precision`` set: the kit picks its
    arithmetic itself, and :func:`dpg_element` serves a pinned precision.
    """
    if params.precision is not None:
        raise ValueError(
            f"element_kit picks its own arithmetic, got precision={params.precision}; "
            "call dpg_element for an element in a pinned precision"
        )
    tab, B, X, cond = _qr_riesz(params)
    precision_used = Precision.double()
    if B is None:
        precision_used = EXTENDED
        elem = dpg_element(replace(params, precision=precision_used))
        B, X = elem.B, elem.X
    cond_elem = condense(B)
    return ElementKit(
        params=params,
        precision_used=precision_used,
        cond=cond,
        B=as_complex128(B),
        S=cond_elem.S,
        recovery=cond_elem.recovery,
        interior_inv=cond_elem.interior_inv,
        xh=as_complex128(X).conj().T,
        tab=tab,
        S_exact=cond_elem.S_exact,
    )
