"""Discrete dispersion analysis for lattice stencils.

A plane-wave ansatz ``value_s(x) = amp_s * exp(i*wh* k.x)`` turns each
stencil row into one row of a small symbol matrix F(z), where ``z`` is the
discrete frequency-step product and the entries are finite exponential sums
over the lattice offsets.  Nontrivial amplitudes require ``det F(z) = 0``;
the solver finds the root nearest the continuous value ``zeta``.

The engine works on rows: a row is one stencil set on one direction, with
its own ``zeta``.  A direction sweep is one set on many directions; a band
diagram or a convergence study is one set per frequency point, all on one
direction.  Sets of one method share the offset table, so only their
coefficients are stacked.  Every row is solved at once, as one array
program over (row, start) pairs.  Newton runs from several starts per row
(derivative by the adjugate formula, steps capped at a fraction of the
row's ``zeta``), all of them off the real axis, where det F is real and
Newton cannot reach a complex root.  One double evaluation gives det F,
its derivative and the rounding error of det F; a start stops once |det F|
is within that error or its step within ROOT_ZTOL of |z|.  The stopped
starts are folded to nonnegative imaginary part, deduplicated and
certified, all rows together.  A well-resolved simple root is certified in
double: its error estimate from the rounding error of det F is within
ROOT_ZTOL of |z|, and det F winds exactly once on a small circle around it
that stays clear of that rounding error.  Every other candidate (a nearly
double root, a close pair) is re-solved in extended precision to a step
tolerance tight enough that the polished root does not depend on the
start.  The ansatz residual gives an independent check.

A band diagram continues its branch from point to point, each point
starting also from the previous root plus the grid step.  It takes two
batched passes: every point from the common starts, then every point again
with the continuation start built from the first pass.  Only after a point
where the continuation took another branch than the common starts is the
next point solved again on its own, in order.

Roots of conjugate-symmetric stencils come in conjugate pairs; the solver
reports the representative with nonnegative imaginary part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float

from . import stencil as stencil_mod
from .errors import BranchAmbiguity, NoRootFound
from .numkit import EXTENDED, adjugate_small, det_small, permanent_small, working_context
from .stencil import StencilSet, extract_stencils

NEWTON_MAX_ITER = 100
STEP_CAP = 0.05  # longest double Newton step, as a fraction of zeta
# rounding level of det_small(F) in double relative to perm(|F|): 8 unit roundoffs
FLOOR_ROUNDING = 8 * np.finfo(float).eps / 2
ROOT_ZTOL = 1e-12
DEDUP_TOL = 1e-8
AMBIGUITY_TOL = 1e-6
ADMISSIBLE_LO = 0.0
BRILLOUIN_TOL = 1e-8
POLISH_ZTOL = 1e-13
# double certificate of a candidate: a circle of CERT_POINTS points and radius
# CERT_RADIUS * |z| around it, on which |det F| clears its rounding error by
# CERT_CLEARANCE and winds exactly once
CERT_RADIUS = 1e-6
CERT_POINTS = 32
CERT_CLEARANCE = 1e3
# 30-digit evaluations per polish.  On a nearly double root Newton halves the
# error per step, so reaching POLISH_ZTOL takes 14 steps more than reaching
# 1e-9; 55 confirms every root that 40 steps to 1e-9 would confirm
POLISH_MAX_ITER = 55
# extra digits for the cofactor expansion of the extended determinant
JACOBI_GUARD_DIGITS = 10
# the starts of every direction, in units of zeta: off the real axis, where
# det F is real and Newton from a real start cannot reach a complex root
START_FACTORS = np.array(
    [1 + 0.02j, 1.1 + 0.02j, 0.9 + 0.02j, 1 + 0.1j, 1 - 0.1j, 1.2 + 0.02j, 0.8 + 0.02j]
)

DEFAULT_N_THETA = 181


class SymbolMatrix:
    """F(z) and dF/dz on rows of (stencil set, direction) pairs.

    Entry (t, s) of F is the exponential sum ``sum_k c_k exp(i z d_k)`` over
    the (t, s) stencil offsets, ``d_k`` the offset projected on the
    direction.  ``stencils`` is one stencil set or a sequence of P sets,
    ``theta`` one direction or a 1-D array of directions.  One set on one
    direction makes a symbol of one row; one set on T directions makes T
    rows; P sets make P rows, set p on ``theta[p]`` (or on the one
    ``theta`` given).  On one row the double evaluators take any array z; on
    several they take a z whose first axis runs over the rows.  Results
    have z's shape in front.

    The sets of one symbol must share the offset table: the same types and,
    per (t, s) entry, the same offsets in the same order.  Sets of one
    method (and one r) do, since the offsets come from the patch's
    structure and not from the weights.  The lattice offsets are projected
    once per row, a ``(rows, D)`` table (on one row only the distinct
    projections are kept, without the row axis); an evaluation takes one
    exponential per projected offset and gathers it, through an index
    shared by all rows, into complex128 ``(n, n, K)`` term arrays padded
    with zeros to the longest row.  The coefficients are one ``(n, n, K)``
    array shared by every row of one set, and ``(P, n, n, K)`` over P sets;
    the derivative's factors ``i d_k c_k`` are kept per row, ``(rows, n,
    n, K)``.  :meth:`take` gives the same symbol on some of its rows.
    ``det_and_derivative_exact`` takes one z in the ambient mpmath
    precision on a symbol of one row and sums only each entry's own terms,
    with the row's extended weights when its set has them and its double
    weights otherwise.  Its object copies are built on its first call, so
    callers that stay in double never pay for them.
    """

    def __init__(self, stencils, theta):
        one_set = isinstance(stencils, StencilSet)
        sets = (stencils,) if one_set else tuple(stencils)
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.ndim > 1:
            raise ValueError(f"theta must be a scalar or 1-D, got shape {self.theta.shape}")
        if not one_set:
            if not sets or self.theta.ndim and len(self.theta) != len(sets):
                raise ValueError(
                    f"{len(sets)} stencil sets need one theta or {len(sets)}, "
                    f"got shape {self.theta.shape}"
                )
            self.theta = np.broadcast_to(self.theta, (len(sets),)).copy()
        self.types = sets[0].types
        n = len(self.types)
        rows = {
            (ti, si): sets[0].weights.get((t, s)) or {}
            for ti, t in enumerate(self.types)
            for si, s in enumerate(self.types)
        }
        # the zero offset carries the padding, whose exponential is 1
        offsets = sorted({(0, 0)}.union(*rows.values()))
        index = {off: j for j, off in enumerate(offsets)}
        width = max(len(row) for row in rows.values())
        at = np.full((n, n, width), index[(0, 0)])
        for (ti, si), row in rows.items():
            at[ti, si, : len(row)] = [index[off] for off in row]
        coefs = np.zeros((len(sets), n, n, width), dtype=complex)
        for p, st in enumerate(sets):
            for (ti, si), row in rows.items():
                own = st.weights.get((self.types[ti], self.types[si])) or {}
                if st.types != self.types or list(own) != list(row):
                    raise ValueError(
                        f"stencil set {p} ({st.method}) does not share the offset table "
                        f"of set 0 ({sets[0].method})"
                    )
                coefs[p, ti, si, : len(own)] = list(own.values())
        half = np.array(offsets, dtype=float) / 2.0
        th = self.theta[..., None]
        self._proj = np.cos(th) * half[:, 0] + np.sin(th) * half[:, 1]
        if self.theta.ndim == 0:
            # one row: one exponential per distinct projection
            self._proj, where = np.unique(self._proj, return_inverse=True)
            at = where[at]
        self._at = at
        # one set: one coefficient array shared by every row
        self._coefs = coefs[0] if one_set else coefs
        self._dcoefs = 1j * self._proj[..., at] * self._coefs
        self._rows = rows
        self._sets = sets
        self._which = 0 if one_set else np.arange(len(sets))  # the set of each row
        self._shared = {}  # lazy row-independent state, shared with every take

    def take(self, rows) -> SymbolMatrix:
        """The same symbol on its rows ``rows``: one row for an integer.

        The row-independent arrays are shared, and so are the coefficients
        of a symbol of one set.  A symbol of one row serves z of any shape,
        so it is its own take.
        """
        if self.theta.ndim == 0:
            return self
        sub = object.__new__(SymbolMatrix)
        sub.__dict__.update(self.__dict__)
        sub.__dict__.pop("_exact_terms", None)
        sub.theta = np.asarray(self.theta[rows])
        sub._proj, sub._dcoefs = self._proj[rows], self._dcoefs[rows]
        if self._coefs.ndim > 3:
            sub._coefs, sub._which = self._coefs[rows], self._which[rows]
        return sub

    def _along(self, table, z):
        """A per-row ``table``, of shape theta's + (...), shaped to
        broadcast against z with its axes after theta's: (R, 1, ..., 1, ...)."""
        if self.theta.ndim == 0 or z.ndim == 1:
            return table
        return table.reshape(table.shape[:1] + (1,) * (z.ndim - 1) + table.shape[1:])

    def _phase(self, z):
        """exp(i z d) for every padded term, shape ``np.shape(z) + (n, n, K)``."""
        phase = np.exp(1j * z[..., None] * self._along(self._proj, z))
        return np.take(phase, self._at, axis=-1)

    def _coefs_along(self, z):
        """The coefficients, shaped to broadcast against the terms at z."""
        return self._along(self._coefs, z) if self._coefs.ndim > 3 else self._coefs

    # iterates far from the root can push exp(1j*z*d) past the float range;
    # the callers test for non-finite results, so the overflow itself is
    # expected and the warning suppressed
    def value(self, z) -> np.ndarray:
        """F(z), of shape ``np.shape(z) + (n, n)``."""
        z = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            phase = self._phase(z)
            return np.multiply(self._coefs_along(z), phase, out=phase).sum(-1)

    @staticmethod
    def _jacobi(f, df):
        """det F, its derivative tr(adj(F) dF) (Jacobi's formula) and adj(F)."""
        adj = adjugate_small(f)
        return det_small(f), np.einsum("...ij,...ji->...", adj, df), adj

    def det(self, z):
        with np.errstate(over="ignore", invalid="ignore"):
            return det_small(self.value(z))

    def det_and_derivative(self, z):
        """det F(z), its z-derivative and the rounding error e of the double
        det F(z), for any array z, from one pass over the terms.

        e is FLOOR_ROUNDING * perm(|F|), the rounding level of the cofactor
        expansion, plus the first-order effect of rounding the entries: each
        entry F_ts is a sum of terms c_k exp(i z d_k), rounding them and
        their sum moves F_ts by up to about FLOOR_ROUNDING * S_ts, with S_ts
        the sum of the terms' magnitudes, and that moves det F by
        sum_ts |adj(F)_st| * FLOOR_ROUNDING * S_ts.  On raw stencils at
        small zeta the terms cancel to a tiny part of S and this part
        dominates: at zeta = 2*pi/128 (fosls, and dpg r = 3 at eps_n =
        zeta) the double root sits 2.3e-12 and 2.9e-12 of |z| off, where
        the expansion's part alone suggests 6.0e-13 and 1.5e-13.  Below e
        the double det F is noise.
        """
        z = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            phase = self._phase(z)
            df = (self._along(self._dcoefs, z) * phase).sum(-1)
            # the terms c_k exp(i z d_k) overwrite the phases: on a batch of
            # many rows these are the largest arrays
            terms = np.multiply(self._coefs_along(z), phase, out=phase)
            f = terms.sum(-1)
            g, gp, adj = self._jacobi(f, df)
            entries = np.sum(
                np.swapaxes(np.abs(adj), -1, -2) * np.abs(terms).sum(-1), axis=(-2, -1)
            )
            return g, gp, FLOOR_ROUNDING * (permanent_small(np.abs(f)) + entries)

    def _exact_coefs(self):
        """The direction-independent object copies of a one-row symbol's
        stencil set, built once per set for a symbol and every take of it:
        flat arrays over the terms of all entries, entry by entry in
        stencil order, of each term's column in the offset table and its
        coefficient (an extended weight, or a double one converted to mpc
        once), and the slice of each (t, s) entry.
        """
        which = int(self._which)
        if which not in self._shared:
            exact = self._sets[which].exact
            at, coefs, spans = [], [], []
            for (ti, si), row in self._rows.items():
                if not row:
                    continue
                k = len(row)
                if exact is not None:
                    erow = exact.get((self.types[ti], self.types[si])) or {}
                    coefs += [erow[o] for o in row]
                else:
                    coefs += [_exact_complex(c) for c in self._coefs[ti, si, :k]]
                at += list(self._at[ti, si, :k])
                spans.append((ti, si, slice(len(at) - k, len(at))))
            self._shared[which] = np.array(at), np.array(coefs, dtype=object), spans
        return self._shared[which]

    @cached_property
    def _exact_terms(self):
        """Object copies for ``det_and_derivative_exact``, without padding.

        The direction's distinct projected offsets as mpf, then over the
        terms of :meth:`_exact_coefs`: the index of each term's offset, its
        coefficient and its offset d; last the slice of each (t, s) entry.
        """
        if self.theta.ndim:
            raise ValueError("the extended evaluation takes a symbol of one row")
        column, coefs, spans = self._exact_coefs()
        distinct, where = np.unique(self._proj, return_inverse=True)
        at = where[column]
        offsets = np.array([mp.mpf(d) for d in distinct], dtype=object)
        return offsets, at, coefs, offsets[at], spans

    def det_and_derivative_exact(self, z):
        """det F and d(det F)/dz in the ambient mpmath precision.

        Summing the exponential series and expanding the determinant in
        extended arithmetic removes the cancellation noise that limits the
        double evaluation near a nearly double root.  Each entry sums its
        terms c*e, and i times the sum of d*(c*e), left to right; rounding
        is symmetric, so that is the sum of the terms (i*d)*(c*e) bit for
        bit, at half the real multiplications.  The cofactor expansion
        takes JACOBI_GUARD_DIGITS more: perm(|F|) reaches 2e10 |det F| on raw
        eps_n = 0 stencils, where 30 digits left 2.4e-22 of det F against
        1.3e-24 from rounding the entries.  Call inside mp.workdps.
        """
        offsets, at, coefs, dots, spans = self._exact_terms
        exps = np.array([mp.exp(a) for a in offsets * (1j * z)], dtype=object)
        terms = coefs * exps[at]
        dterms = dots * terms
        n = len(self.types)
        f = np.zeros((n, n), dtype=object)
        df = np.zeros((n, n), dtype=object)
        for ti, si, span in spans:
            f[ti, si] = terms[span].sum()
            df[ti, si] = 1j * dterms[span].sum()
        with mp.workdps(mp.mp.dps + JACOBI_GUARD_DIGITS):
            return self._jacobi(f, df)[:2]

    def null_vector(self, z: complex) -> np.ndarray:
        """Unit amplitude vector minimizing |F(z) amp| (smallest singular)."""
        _, _, vh = np.linalg.svd(self.value(z))
        return vh[-1].conj()


def _exact_complex(x: complex):
    """A double complex as an mpc, exactly at any working precision.

    Builds the mpc from its two binary fractions directly: three times
    faster than the mpc constructor, which dominated building the object
    copies.
    """
    return mp.make_mpc((from_float(x.real), from_float(x.imag)))


@dataclass(frozen=True)
class RootResult:
    z: complex
    iters: int
    det_abs: float
    scale: float
    polished: bool


def _newton(sym: SymbolMatrix, starts, cap, first=None):
    """Newton iteration on det F from every start at once.

    ``starts`` holds one row of starts per row of ``sym`` (any array for a
    symbol of one row); a start that is not finite is no start.  Each
    start runs its own iteration; one batched symbol evaluation serves all
    starts still active, on all rows.  ``cap`` is one step cap or one per
    row of ``starts``.  A step longer than its cap is shortened to the cap
    along its direction: where d(det F)/dz nearly vanishes the full step
    would throw the start far from the region the starts cover, onto
    another branch or an alias.

    A start stops where |det F| is at most the rounding error e of the
    double det F (``SymbolMatrix.det_and_derivative``): below it the
    determinant is noise, and near the nearly double roots of the weakly
    dissipative methods further steps only wander.  It stops too, after
    taking the step, once that step is at most ROOT_ZTOL * max(1, |z|).
    Returns ``(z, iters, stopped)`` arrays of the shape of ``starts``:
    ``iters`` counts the steps taken (NEWTON_MAX_ITER for a start that
    never stopped), and ``stopped`` marks the candidates.  A start whose
    determinant or step is not finite drops out unstopped.  ``first``, the
    ``det_and_derivative`` of ``sym`` at ``starts``, stands in for the
    first evaluation when the caller already made it.
    """
    z = np.array(starts, dtype=complex)
    shape = z.shape
    z = z.reshape(-1)
    per_row = shape[-1] if shape else 1
    cap = np.repeat(np.reshape(cap, -1), per_row) if np.ndim(cap) else np.full(z.shape, cap)
    batched = sym.theta.ndim > 0
    iters = np.full(z.shape, NEWTON_MAX_ITER)
    stopped = np.zeros(z.shape, dtype=bool)
    active = np.flatnonzero(np.isfinite(z))
    for it in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        za = z[active]
        if it == 0 and first is not None:
            g, gp, e = (np.reshape(a, -1)[active] for a in first)
        else:
            at = sym.take(active // per_row) if batched else sym
            g, gp, e = at.det_and_derivative(za)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            dz = -g / gp
            dz *= np.minimum(1.0, cap[active] / np.abs(dz))
        floor = np.abs(g) <= e
        step = ~floor & np.isfinite(dz)
        small = step & (np.abs(dz) <= ROOT_ZTOL * np.maximum(1.0, np.abs(za)))
        z[active[step]] += dz[step]
        stopped[active[floor | small]] = True
        iters[active[floor]] = it
        iters[active[small]] = it + 1
        active = active[step & ~small]
    return z.reshape(shape), iters.reshape(shape), stopped.reshape(shape)


def _polish(sym: SymbolMatrix, z0: complex):
    """Newton in extended arithmetic, for roots double evaluation cannot pin.

    The weakly dissipative methods put the root at the bottom of a nearly
    quadratic determinant valley, where the double-precision determinant is
    pure rounding noise over a region much wider than the attainable
    accuracy.  Evaluated in extended precision the valley is smooth again;
    Newton contracts at least geometrically (exactly halving on a true
    double root) so the step tolerance POLISH_ZTOL bounds the remaining
    position error.  The tolerance sits far below the double resolution so
    that a nearly double root keeps stepping until its position no longer
    depends on the start.  Each evaluation at z also gives |det F(z)|, so
    after at least one step the polish returns z itself once the step it
    would take is within tolerance: a simple root the double stage already
    found costs two evaluations.  ``sym`` has one row.  Returns
    (z, steps, |det F(z)|) or (None, steps, None).
    """
    with working_context(EXTENDED):
        z = mp.mpc(complex(z0))
        for it in range(POLISH_MAX_ITER):
            g, gp = sym.det_and_derivative_exact(z)
            if gp == 0 or not mp.isfinite(gp) or not mp.isfinite(g):
                return None, it, None
            dz = -g / gp
            if it and abs(dz) <= POLISH_ZTOL * max(1.0, abs(z)):
                return complex(z), it, float(abs(g))
            z = z + dz
    return None, POLISH_MAX_ITER, None


def _distinct(zs, valid):
    """Mask of the first of each group of roots equal to DEDUP_TOL, per row.

    ``zs`` and ``valid`` are ``(T, S)``: S candidates on each of T rows,
    of which only the valid ones count.  A candidate is kept
    when no kept candidate before it in its row lies within DEDUP_TOL *
    max(1, |z|) of it.  That rule is a lower triangular system in the keep
    mask, solved by fixed-point iteration from "keep every valid one": each
    pass settles at least one more column, and the usual case settles in
    the first.
    """
    if (valid.sum(axis=1) <= 1).all():
        return valid
    close = np.tri(zs.shape[1], k=-1, dtype=bool) & (
        np.abs(zs[:, :, None] - zs[:, None, :])
        <= DEDUP_TOL * np.maximum(1.0, np.abs(zs))[:, :, None]
    )
    keep = valid
    while True:
        settled = valid & ~(close & keep[:, None, :]).any(axis=-1)
        if (settled == keep).all():
            return keep
        keep = settled


def _double_certified(sym: SymbolMatrix, zs):
    """Which candidates double arithmetic certifies as simple roots.

    ``sym`` has one row per candidate.  One batched evaluation of
    ``SymbolMatrix.det_and_derivative`` at each candidate and on a circle
    around it.  At the candidate it gives g = det F(z), g' and the rounding
    error e of g, which passes when the error estimate (|g| + e) / |g'| is
    at most ROOT_ZTOL * |z|.  On the circle, of CERT_POINTS points and
    radius rho = CERT_RADIUS * |z|, every |det F| must clear CERT_CLEARANCE
    times its own e, every phase step between neighbours must stay below
    pi/2, and the winding number must be exactly 1, so the disc holds one
    simple root (the argument principle).  Within rho/2 of the real axis
    the circle is centred on Re z: the disc is then its own conjugate and
    roots pair as z, conj(z), so its one root is real.  Returns the mask of
    certified candidates, the centre of each circle (the point to report)
    and the double |det F| there.
    """
    zs = np.asarray(zs, dtype=complex)
    rho = CERT_RADIUS * np.abs(zs)
    centre = np.where(np.abs(zs.imag) <= rho / 2, zs.real + 0j, zs)
    ring = np.exp(2j * np.pi * np.arange(CERT_POINTS + 1) / CERT_POINTS)
    ring[0] = 0.0  # the centre itself, then the circle
    points = np.concatenate([zs[:, None], centre[:, None] + rho[:, None] * ring], axis=1)
    g, gp, e = sym.det_and_derivative(points)
    w, bound = g[:, 2:], e[:, 2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        err = (np.abs(g[:, 0]) + e[:, 0]) / np.abs(gp[:, 0])
        steps = np.angle(np.roll(w, -1, axis=1) / w)
    ok = (
        (err <= ROOT_ZTOL * np.abs(zs))
        & np.all(np.abs(w) >= CERT_CLEARANCE * bound, axis=1)
        & np.all(np.abs(steps) < np.pi / 2, axis=1)
        & (np.abs(steps.sum(axis=1) / (2 * np.pi) - 1) < 0.5)
    )
    return ok, centre, np.abs(g[:, 1])


def _certify(sym: SymbolMatrix, zs, iters, keep):
    """Certify each distinct candidate of every row.

    ``zs``, ``iters`` and ``keep`` are ``(T, S)``: the candidates of each
    row of ``sym`` and the mask of those to certify.  Candidates are
    folded to Im z >= 0 before they are deduplicated, so a root found as z
    and as conj(z) is certified once; the fold is exact because the
    weights pair Hermitianly, det F(conj z) = conj det F(z).  A candidate
    that :func:`_double_certified` accepts keeps its double value and its
    Newton steps.  Every other one (a nearly double root, a pair closer
    than the certificate circle, a contour too near the rounding floor)
    goes to the extended polish, whose steps are added; one the polish
    does not confirm is dropped, since near a nearly double root the
    double determinant is rounding noise and the double tests alone
    certify nothing there.  The object copies of the polish are built once
    per row.  Returns ``(z, iters, |det F(z)|, polished)`` arrays of
    shape ``(T, S)``, z NaN where no root was certified.
    """
    zs = np.where(zs.imag < 0, zs.conj(), zs)
    rows, cols = np.nonzero(_distinct(zs, keep))
    certified, centre, det_abs = _double_certified(sym.take(rows), zs[rows, cols])
    z = np.full(zs.shape, np.nan, dtype=complex)
    det = np.full(zs.shape, np.nan)
    polished = np.zeros(zs.shape, dtype=bool)
    z[rows, cols], det[rows, cols] = np.where(certified, centre, np.nan), det_abs
    iters = np.array(iters)
    one = {}  # the one-row symbol of each row polished, with its object copies
    for t, s in zip(rows[~certified], cols[~certified]):
        if t not in one:
            one[t] = sym.take(t)
        zp, itp, g = _polish(one[t], zs[t, s])
        polished[t, s] = True
        if zp is not None:
            z[t, s] = zp if zp.imag >= 0 else zp.conjugate()
            iters[t, s] += itp
            det[t, s] = g
    return z, iters, det, polished


def _solve(sym: SymbolMatrix, zeta, starts):
    """The certified root nearest ``zeta`` on every row of ``sym``.

    ``sym`` has T rows (one when built on one set and a scalar theta),
    ``zeta`` is one frequency or one per row, and ``starts`` holds one row
    of starts per row.  A row's zeta sets its step cap, STEP_CAP * zeta,
    and the distance its candidates are ranked by.  A batched Newton from
    all starts of all rows at once (:func:`_newton`) produces the
    candidate roots, the starts that stopped.  Candidates are restricted to
    the first Brillouin zone of the row's direction (Re z > 0 and
    max(|Re z cos theta|, |Re z sin theta|) <= pi, to BRILLOUIN_TOL).
    det F is unchanged by a lattice shift k -> k + 2*pi*(m, n) of the wave
    vector, so a root outside the zone is an alias: for the bilinear fem at
    pi < zeta < sqrt(12) the alias 2*pi - z lies nearer zeta than the root
    z.  On a row whose candidates all lie outside the
    zone (zeta well above pi), Newton restarts from each one mirrored about
    the zone edge along the ray.  The candidates are then certified
    (:func:`_certify`), and on each row the certified root closest to its
    ``zeta`` wins.  Returns ``(z, iters, det_abs, scale, polished, rival)``
    arrays over the rows: ``scale`` is the largest |det F| over the row's
    starts, the scale to read ``det_abs`` against, and ``rival`` the
    runner-up root where it lies within AMBIGUITY_TOL of the winner's
    distance to ``zeta``, else NaN.  z is NaN on a row without a certified
    root in the zone.
    """
    thetas = sym.theta.reshape(-1)
    zeta = np.broadcast_to(np.asarray(zeta, dtype=float), thetas.shape)
    first = sym.det_and_derivative(starts)
    scale = np.abs(first[0]).max(axis=1)
    scale[scale == 0] = 1.0
    cap = STEP_CAP * zeta
    edge = (np.pi / np.maximum(np.abs(np.cos(thetas)), np.abs(np.sin(thetas))))[:, None]
    top = edge + BRILLOUIN_TOL

    def in_zone(z):
        return (ADMISSIBLE_LO < z.real) & (z.real <= top)

    z, iters, ok = _newton(sym, starts, cap, first)
    keep = ok & in_zone(z)
    lost = np.flatnonzero(~keep.any(axis=1))
    if lost.size:
        # on the axes and diagonals the mirror image 2*edge - conj(z) is
        # itself a root, the alias of z; elsewhere it is a start in the zone
        zl = z[lost]
        mirrored = np.where(ok[lost], 2 * edge[lost] - zl.real + 1j * np.abs(zl.imag), np.nan)
        zm, itm, okm = _newton(sym.take(lost), mirrored, cap[lost])
        z[lost], iters[lost], ok[lost] = zm, iters[lost] + itm, okm
        keep = ok & in_zone(z)
    z, iters, det_abs, polished = _certify(sym, z, iters, keep)
    # NaN, where no root was certified, is in no zone
    dist = np.where(_distinct(z, in_zone(z)), np.abs(z - zeta[:, None]), np.inf)
    t = np.arange(len(thetas))[:, None]
    order = t, np.argsort(dist, axis=1, kind="stable")
    dist, z, iters, det_abs, polished = (a[order] for a in (dist, z, iters, det_abs, polished))
    found = np.isfinite(dist[:, 0])
    best = np.where(found, z[:, 0], np.nan)
    gap = dist[:, 1] - np.where(found, dist[:, 0], 0.0)
    rival = np.where(gap < AMBIGUITY_TOL, z[:, 1], np.nan)
    return best, iters[:, 0], det_abs[:, 0], scale, polished[:, 0], rival


def _require_roots(z, thetas, zeta, method):
    """Raise NoRootFound naming the first row whose root is NaN, by its
    direction and frequency (one of each, or one per row)."""
    missing = np.flatnonzero(np.isnan(z))
    if missing.size:
        thetas, zeta = (np.broadcast_to(a, np.shape(z)) for a in (thetas, zeta))
        raise NoRootFound(
            f"no admissible dispersion root near zeta={float(zeta[missing[0]])!r} for "
            f"theta={float(thetas[missing[0]])!r} ({method})"
        )


def _warn_ambiguous(thetas, zeta, z, rival):
    """One BranchAmbiguity per row whose root has a rival (see :func:`_solve`)."""
    thetas, zetas = (np.broadcast_to(a, np.shape(z)) for a in (thetas, zeta))
    for theta, zeta, best, other in zip(thetas, zetas, z, rival):
        if np.isfinite(other):
            warnings.warn(
                f"two dispersion branches nearly equidistant from zeta={float(zeta)!r} "
                f"at theta={float(theta)!r}: {complex(best)!r} and {complex(other)!r}",
                BranchAmbiguity,
                stacklevel=3,
            )


def _require_zeta(zeta):
    if not (zeta > 0 and np.isfinite(zeta)):
        raise ValueError(f"zeta must be positive and finite, got {zeta}")


def _require_theta(theta):
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")


def solve_root(
    stencils: StencilSet,
    theta: float,
    zeta: float,
    init: complex | None = None,
) -> RootResult:
    """Locate the dispersion root nearest ``zeta`` for direction ``theta``.

    The one-row case of the engine (:func:`_solve`).  The
    starts are ``init`` when given, then ``zeta`` times START_FACTORS:
    ``zeta*(1 +- 0.1i)`` and five more at ``zeta`` times 1, 1.1, 0.9, 1.2
    and 0.8, moved off the real axis by ``0.02i*zeta``.  A simple root that
    double arithmetic resolves to ROOT_ZTOL * |z| is certified in double by
    its error estimate and a winding number of 1 on a circle of radius
    CERT_RADIUS * |z|, and keeps its double value.  Every other candidate is
    re-solved with the determinant evaluated in extended precision, which
    recovers the root position lost to rounding in the nearly-double-root
    regime of the weakly dissipative methods, to a tolerance at which the
    result no longer depends on the start; candidates it does not confirm
    are dropped.  ``RootResult.polished`` tells the two certificates apart.
    A second certified root at nearly the same distance from ``zeta``
    triggers a BranchAmbiguity warning.  ``RootResult.scale``, the largest
    |det F| over the starts, is the scale to read ``det_abs`` against.
    Raises NoRootFound if no root is certified in the zone.
    """
    _require_zeta(zeta)
    _require_theta(theta)
    starts = zeta * START_FACTORS
    if init is not None:
        starts = np.insert(starts, 0, init)
    sym = SymbolMatrix(stencils, theta)
    z, iters, det_abs, scale, polished, rival = _solve(sym, zeta, starts[None])
    _require_roots(z, theta, zeta, stencils.method)
    _warn_ambiguous([theta], zeta, z, rival)
    return RootResult(
        complex(z[0]), int(iters[0]), float(det_abs[0]), float(scale[0]), bool(polished[0])
    )


def ansatz_residual(stencils: StencilSet, theta: float, z: complex):
    """Largest center-equation residual of the plane-wave null ansatz.

    Feeds the null amplitude vector of F(z) back through apply_stencil, an
    independent code path from the symbol evaluation, and returns the
    maximum residual magnitude over the center rows together with the
    amplitude vector used.
    """
    sym = SymbolMatrix(stencils, theta)
    amp = sym.null_vector(z)
    k = (np.cos(theta), np.sin(theta))
    index = {t: i for i, t in enumerate(stencils.types)}

    def values(s, dx, dy):
        return amp[index[s]] * np.exp(1j * z * (k[0] * dx + k[1] * dy))

    resid = max(
        abs(stencil_mod.apply_stencil(stencils, t, values)) for t in stencils.types
    )
    return resid, amp


# ---------------------------------------------------------------------------
# analysis drivers
# ---------------------------------------------------------------------------


def _method_stencils(method, zeta, eps_n, r):
    if method == "dpg":
        return extract_stencils("dpg", zeta, eps_n, r, normalize=False)
    return extract_stencils(method, zeta, normalize=False)


@dataclass(frozen=True)
class ThetaSweep:
    method: str
    zeta: float
    thetas: np.ndarray
    z: np.ndarray
    iters: np.ndarray
    det_abs: np.ndarray
    polished: np.ndarray
    scale: np.ndarray  # per direction, the scale to read det_abs against

    @property
    def rho(self) -> float:
        """Largest dispersive error max |Re w_h - w| over the directions.

        The sweep works in z = w_h * h at fixed zeta = w * h, so dividing
        the worst |Re z - zeta| by zeta expresses the error relative to the
        continuous frequency (the w = 1 convention of the analyses).
        """
        return float(np.max(np.abs(self.z.real - self.zeta)) / self.zeta)

    @property
    def theta_rho(self) -> float:
        """Direction at which the dispersive error rho is attained."""
        return float(self.thetas[np.argmax(np.abs(self.z.real - self.zeta))])

    @property
    def eta(self) -> float:
        """Largest dissipative error max |Im w_h| over the directions."""
        return float(np.max(np.abs(self.z.imag)) / self.zeta)


def theta_sweep(
    stencils: StencilSet, n_theta: int = DEFAULT_N_THETA
) -> ThetaSweep:
    """Trace the root over ``n_theta`` directions spread evenly on [0, pi/2].

    Every direction gets the starts of :func:`solve_root` without
    ``init``, and all directions are solved as one array program
    (:func:`_solve`).  A direction where they find no root is solved again
    with the previous direction's root as ``init``.  A stencil set that is
    its own x<->y mirror (:func:`helmdpg.stencil.xy_symmetric`) has
    z(theta) = z(pi/2 - theta), so only the directions up to pi/4 are
    solved and the rest mirror them; any other set is solved on every
    direction.  BranchAmbiguity is warned per direction, mirrored ones
    included; NoRootFound names the first direction still without a root.
    """
    if n_theta < 1:
        raise ValueError(f"n_theta must be at least 1, got {n_theta}")
    zeta = stencils.omega_n
    _require_zeta(zeta)
    thetas = np.linspace(0.0, np.pi / 2, n_theta)
    source = np.arange(n_theta)
    if stencil_mod.xy_symmetric(stencils):
        source = np.minimum(source, n_theta - 1 - source)
    sym = SymbolMatrix(stencils, thetas[: source.max() + 1])
    starts = np.broadcast_to(zeta * START_FACTORS, (len(sym.theta), len(START_FACTORS)))
    solved = _solve(sym, zeta, starts)
    z, rival = solved[0], solved[-1]
    # far above the resolved range (r = 4 at zeta = 2.5) the root can move
    # too far from zeta for the common starts to reach
    for t in np.flatnonzero(np.isnan(z)):
        if t and not np.isnan(z[t - 1]):
            warm = _solve(sym.take([t]), zeta, np.insert(starts[t], 0, z[t - 1])[None])
            for a, b in zip(solved, warm):
                a[t] = b[0]
    _require_roots(z, sym.theta, zeta, stencils.method)
    _warn_ambiguous(thetas, zeta, z[source], rival[source])
    z, iters, det_abs, scale, polished = (a[source] for a in solved[:-1])
    return ThetaSweep(stencils.method, zeta, thetas, z, iters, det_abs, polished, scale)


@dataclass(frozen=True)
class ConvergenceStudy:
    method: str
    eps: float | None
    r: int | None
    levels: tuple[int, ...]
    zetas: np.ndarray
    z: np.ndarray
    errors: np.ndarray
    slope: float

    FIT_LEVELS = (3, 4, 5, 6, 7)


def convergence_study(
    method: str,
    eps: float | None = None,
    r: int | None = None,
    levels=(1, 2, 3, 4, 5, 6, 7),
    omega: float = 1.0,
) -> ConvergenceStudy:
    """Rate of |z - zeta| at theta = 0 along zeta = omega * h, h = 2*pi / 2**level.

    The frequency is held fixed while h shrinks, so the normalized frequency
    and, for the eps-scaled method, the normalized dissipation eps*h shrink
    with it.  The levels are independent: each gets the starts of
    :func:`solve_root` without ``init``, and all of them are solved as one
    array program, one row of a :class:`SymbolMatrix` per level's stencil
    set.  BranchAmbiguity is warned per level; NoRootFound names the first
    level without a root.  The slope is the least-squares fit of
    log|z - zeta| against log(zeta) restricted to levels 3..7 (the
    asymptotic range); coarser levels are reported but not fitted.
    ``levels`` must hold at least two distinct fitted levels, else
    ValueError is raised before any solve.
    """
    fitted = set(levels) & set(ConvergenceStudy.FIT_LEVELS)
    if len(fitted) < 2:
        raise ValueError(
            f"levels {tuple(levels)} hold {len(fitted)} of the fitted levels "
            f"FIT_LEVELS = {ConvergenceStudy.FIT_LEVELS}; the slope needs two"
        )
    hs = np.array([2.0 * np.pi / 2.0**level for level in levels])
    zetas = omega * hs
    for zeta in zetas:
        _require_zeta(zeta)
    sets = [
        _method_stencils(method, zeta, None if eps is None else eps * h, r)
        for zeta, h in zip(zetas, hs)
    ]
    roots, *_, rival = _solve(SymbolMatrix(sets, 0.0), zetas, zetas[:, None] * START_FACTORS)
    _require_roots(roots, 0.0, zetas, method)
    _warn_ambiguous(0.0, zetas, roots, rival)
    errors = np.abs(roots - zetas)
    fit = np.isin(np.asarray(levels), ConvergenceStudy.FIT_LEVELS)
    slope = float(
        np.polyfit(np.log(zetas[fit]), np.log(np.maximum(errors[fit], 1e-300)), 1)[0]
    )
    return ConvergenceStudy(
        method, eps, r, tuple(levels), zetas, roots, errors, slope
    )


@dataclass(frozen=True)
class BandDiagram:
    method: str
    theta: float
    zetas: np.ndarray
    z: np.ndarray


def band_grid(zeta_max: float = 6.0, zeta_step: float = 0.05) -> np.ndarray:
    """Normalized frequencies of a band diagram: the step's multiples up to zeta_max."""
    return zeta_step * np.arange(1, int(round(zeta_max / zeta_step)) + 1)


def band_diagram(
    method: str,
    eps_n: float | None = None,
    r: int | None = None,
    theta: float = 0.0,
    zeta_max: float = 6.0,
    zeta_step: float = 0.05,
) -> BandDiagram:
    """Track the root along :func:`band_grid` by continuation.

    The root at each point is the one :func:`solve_root` finds with the
    previous point's root, shifted by the grid step, as ``init``, and
    without ``init`` where that finds none; the first point has no
    ``init``.  The extra start keeps the tracker on one branch through
    stopbands, where the root leaves the real axis.  The points are solved
    as rows of one :class:`SymbolMatrix` over their stencil sets, in two
    batched passes and a sequential remainder:

    1. every point from the common starts alone: the fallback, and the
       branch the continuation is expected to follow;
    2. every point but the first again, with the previous point's pass-1
       root plus the step in front of the common starts;
    3. in order, only after a point whose root differs from its pass-1
       root by more than DEDUP_TOL * max(1, |z|) (there the continuation
       took another branch, so the next point's pass-2 start came from the
       wrong root): that next point is solved again from the previous
       point's final root, and so on while they differ.

    The roots agree with a point-by-point tracker to rounding: the pass-2
    start is built from a root that may differ from the tracker's in its
    last bits.  BranchAmbiguity is warned per point; NoRootFound names the
    first point without a root.
    """
    _require_theta(theta)
    zetas = band_grid(zeta_max, zeta_step)
    if not zetas.size:
        return BandDiagram(method, theta, zetas, np.empty(0, dtype=complex))
    sym = SymbolMatrix([_method_stencils(method, zeta, eps_n, r) for zeta in zetas], theta)
    starts = zetas[:, None] * START_FACTORS
    step = np.diff(zetas)
    seeds, *_, seed_rival = _solve(sym, zetas, starts)
    z, rival = seeds.copy(), seed_rival.copy()
    # a point after one without a pass-1 root has no pass-2 start of its own
    later = np.flatnonzero(~np.isnan(seeds[:-1])) + 1
    if later.size:
        warm, *_, warm_rival = _solve(
            sym.take(later),
            zetas[later],
            np.column_stack([seeds[later - 1] + step[later - 1], starts[later]]),
        )
        found = ~np.isnan(warm)
        z[later[found]], rival[later[found]] = warm[found], warm_rival[found]
    for i in range(1, len(zetas)):
        prev = z[i - 1]
        if np.isnan(prev):
            break
        if abs(prev - seeds[i - 1]) <= DEDUP_TOL * max(1.0, abs(prev)):
            continue
        again, *_, again_rival = _solve(
            sym.take([i]), zetas[i], np.insert(starts[i], 0, prev + step[i - 1])[None]
        )
        if not np.isnan(again[0]):
            z[i], rival[i] = again[0], again_rival[0]
        else:
            z[i], rival[i] = seeds[i], seed_rival[i]
    solved = np.cumprod(~np.isnan(z)).astype(bool)
    _warn_ambiguous(theta, zetas[solved], z[solved], rival[solved])
    _require_roots(z, theta, zetas, method)
    return BandDiagram(method, theta, zetas, z)


@dataclass(frozen=True)
class SweepRow:
    method: str
    r: int | None
    eps_n: float | None
    zeta: float
    rho: float
    eta: float
    theta_rho: float


def _sweep_row(method, r, eps_n, zeta, n_theta) -> SweepRow:
    st = _method_stencils(method, zeta, eps_n, r)
    sweep = theta_sweep(st, n_theta)
    return SweepRow(method, r, eps_n, zeta, sweep.rho, sweep.eta, sweep.theta_rho)


def epsilon_r_sweep(
    zeta: float = np.pi / 4,
    eps_values=(1.0, 1e-1, 1e-2, 1e-4, 1e-6),
    r_values=(2, 3, 4),
    include_baselines: bool = True,
    n_theta: int = DEFAULT_N_THETA,
) -> list[SweepRow]:
    """Worst-direction phase and dissipation errors across eps and order."""
    rows = [
        _sweep_row("dpg", r, eps_n, zeta, n_theta)
        for r in r_values
        for eps_n in eps_values
    ]
    if include_baselines:
        rows += [_sweep_row(m, None, None, zeta, n_theta) for m in ("fem", "fosls")]
    return rows
