"""Discrete dispersion analysis for lattice stencils.

A plane-wave ansatz ``value_s(x) = amp_s * exp(i*wh* k.x)`` turns each
stencil row into one row of a small symbol matrix F(z), where ``z`` is the
discrete frequency-step product and the entries are finite exponential sums
over the lattice offsets.  Nontrivial amplitudes require ``det F(z) = 0``;
the solver finds the root nearest the continuous value ``zeta``.

The engine works on rows: a row is one stencil set on one direction, with
its own ``zeta``.  A direction sweep is one set on many directions; a band
diagram or a convergence study is one set per frequency point, all on one
direction.  Sets of one method share the offset table, so one symbol
holds them all as rows.  Every row is solved at once, as one array
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
double root, a close pair) is re-solved in extended precision, the
symbol summed on the double evaluation's padded term table and expanded
in fixed-point integers, to a step tolerance
tight enough that the polished root does not depend on the start; a
Newton-Kantorovich bound from the double symbol spares the evaluation
that would only confirm the last step.  The ansatz residual
gives an independent check.

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

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float, from_man_exp, mpc_exp, mpf_mul, mpf_neg, to_fixed

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
# candidates whose circles are evaluated in one batch: a block bounds the
# term arrays, which on a 120-row band would otherwise hold all 4080 points
CERT_BLOCK = 32
# 30-digit evaluations per polish.  On a nearly double root Newton halves the
# error per step, so reaching POLISH_ZTOL takes 14 steps more than reaching
# 1e-9; 55 confirms every root that 40 steps to 1e-9 would confirm
POLISH_MAX_ITER = 55
# fraction bits of the fixed-point extended symbol beyond the working
# precision (SymbolMatrix.det_and_derivative_exact): 7 for the roundings an
# entry collects, 9 for an entry's terms below its row's power of two, and
# 32 to put the entries' error that far below the former mpmath route's
FIXED_GUARD_BITS = 48
# the padding of the extended weights, and the size of a zero coefficient
_ZERO = mp.mpc(0)
_NO_SIZE = np.iinfo(int).min
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
    ``theta`` one direction or a 1-D array of directions, and every symbol
    is rows: ``np.broadcast_arrays(np.arange(P), theta)`` gives each row
    its set and its direction.  One set on T directions makes T rows; P
    sets on one direction, or on P directions, make P rows.  The double
    evaluators take a z whose first axis runs over the rows; a symbol of
    one row takes any z, a scalar included.  Results have z's shape in
    front.

    The sets of one symbol must share the offset table: the same types and,
    per (t, s) entry, the same offsets in the same order.  Sets of one
    method (and one r) do, since the offsets come from the element's
    slots and not from the weights.  Every array is per row: the
    direction's cosine and sine, ``(R, 2)``, the offsets projected on it,
    ``(R, D)``, the coefficients and the derivative's factors ``i d_k
    c_k``, ``(R, n, n, K)``.  An
    evaluation takes one exponential per projected offset and gathers it,
    through an index shared by all rows, into complex128 ``(n, n, K)`` term
    arrays padded with zeros to the longest entry.  :meth:`take` gives the
    same symbol on some of its rows.  ``det_and_derivative_exact`` takes one
    z in the ambient mpmath precision and one row, of any symbol, and sums
    the same padded term table, with the row's extended weights when its
    set has them and its double weights otherwise, in fixed-point integers.
    A set's extended weights, mpc values, are gathered into that padded
    order here, and a set that lacks one for an offset of its double
    weights is rejected.  The integer copies are built on first use at two
    levels, the coefficients once per stencil set (one padded array each
    for the real and the imaginary parts) and the projections once per
    (set, direction), and a symbol shares them with its takes, so callers
    that stay in double never pay for them.
    """

    def __init__(self, stencils, theta):
        sets = (stencils,) if isinstance(stencils, StencilSet) else tuple(stencils)
        theta = np.asarray(theta, dtype=float)
        if theta.ndim > 1 or not sets or len(sets) > 1 and theta.size not in (1, len(sets)):
            raise ValueError(
                f"{len(sets)} stencil sets on theta of shape {theta.shape}: a symbol takes "
                "one set on any 1-D theta, or P >= 1 sets on one direction or on P"
            )
        self._which, self.theta = np.broadcast_arrays(np.arange(len(sets)), theta)
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
        self._at = np.full((n, n, width), index[(0, 0)])
        for (ti, si), row in rows.items():
            self._at[ti, si, : len(row)] = [index[off] for off in row]
        coefs = np.zeros((len(sets), n, n, width), dtype=complex)
        # a set's extended weights in the same padded order, zeros padding
        self._exact = [None if st.exact is None else np.full(self._at.shape, _ZERO) for st in sets]
        for p, st in enumerate(sets):
            for (ti, si), row in rows.items():
                key = self.types[ti], self.types[si]
                own = st.weights.get(key) or {}
                if st.types != self.types or list(own) != list(row):
                    raise ValueError(
                        f"stencil set {p} ({st.method}) does not share the offset table "
                        f"of set 0 ({sets[0].method})"
                    )
                coefs[p, ti, si, : len(own)] = list(own.values())
                if st.exact is not None:
                    erow = st.exact.get(key) or {}
                    if not own.keys() <= erow.keys():
                        raise ValueError(
                            f"stencil set {p} ({st.method}) has no extended weight "
                            "for an offset of its double weights"
                        )
                    self._exact[p][ti, si, : len(own)] = [erow[off] for off in own]
        self._offsets = np.array(offsets)
        half = self._offsets / 2.0
        th = self.theta[:, None]
        self._cs = np.concatenate([np.cos(th), np.sin(th)], axis=1)
        self._proj = self._cs[:, :1] * half[:, 0] + self._cs[:, 1:] * half[:, 1]
        self._coefs = coefs[self._which]
        self._dcoefs = 1j * self._proj[:, self._at] * self._coefs
        # integer copies of the extended evaluation, per set and per (set,
        # direction), built on first use and shared with every take
        self._shared = {}

    def take(self, rows) -> SymbolMatrix:
        """The same symbol on its rows ``rows``: one row for an integer.

        The per-row arrays are sliced; the integer copies of the extended
        evaluation are shared.
        """
        rows = np.arange(len(self.theta))[rows].reshape(-1)
        sub = object.__new__(SymbolMatrix)
        sub.__dict__.update(self.__dict__)
        for name in ("theta", "_which", "_cs", "_proj", "_coefs", "_dcoefs"):
            setattr(sub, name, getattr(self, name)[rows])
        return sub

    @staticmethod
    def _along(table, z):
        """A per-row ``table``, ``(R, ...)``, shaped to broadcast against z,
        whose first axis runs over the rows: ``(R, 1, ..., 1, ...)``, and
        without the row axis for a scalar z."""
        lead = table.shape[:1] + (1,) * (z.ndim - 1) if z.ndim else ()
        return table.reshape(lead + table.shape[1:])

    def _phase(self, z):
        """exp(i z d) for every padded term, shape ``np.shape(z) + (n, n, K)``."""
        phase = np.exp(1j * z[..., None] * self._along(self._proj, z))
        return np.take(phase, self._at, axis=-1)

    # iterates far from the root can push exp(1j*z*d) past the float range;
    # the callers test for non-finite results, so the overflow itself is
    # expected and the warning suppressed
    def value(self, z) -> np.ndarray:
        """F(z), of shape ``np.shape(z) + (n, n)``."""
        z = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            phase = self._phase(z)
            return np.multiply(self._along(self._coefs, z), phase, out=phase).sum(-1)

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
            terms = np.multiply(self._along(self._coefs, z), phase, out=phase)
            f = terms.sum(-1)
            g, gp, adj = self._jacobi(f, df)
            entries = np.sum(
                np.swapaxes(np.abs(adj), -1, -2) * np.abs(terms).sum(-1), axis=(-2, -1)
            )
            return g, gp, FLOOR_ROUNDING * (permanent_small(np.abs(f)) + entries)

    def _fixed_set(self, row, bits):
        """The integer copy of ``row``'s stencil set at ``bits`` fraction
        bits, kept in the dict a symbol shares with its takes and built
        again only when ``bits`` changes.

        The coefficients (the set's extended weights, or its double ones)
        in the padded ``(n, n, K)`` order of ``_at``, as real and imaginary
        integers C with c = C * 2**(top[t] - bits), 2**top[t] the power of
        two above every coefficient of its row t; the padding is 0.
        Returns ``(bits, cr, ci, top)``.
        """
        which = int(self._which[row])
        if self._shared.get(which, (None,))[0] != bits:
            exact = self._exact[which]
            if exact is None:
                parts = np.stack([self._coefs[row].real, self._coefs[row].imag], axis=-1)
                # a double m 2**e, 1/2 <= |m| < 1, is below 2**e
                size = np.where(parts != 0, np.frexp(parts)[1].astype(int), _NO_SIZE)
            else:
                parts = [x for c in exact.flat for x in c._mpc_]
                # an mpf (sign, man, exp, bc) is below 2**(exp + bc)
                size = np.array([x[2] + x[3] if x[1] else _NO_SIZE for x in parts])
                size = size.reshape(exact.shape + (2,))
            top = size.max(axis=(1, 2, 3))
            top[top == _NO_SIZE] = 0
            shift = np.broadcast_to((bits - top)[:, None, None, None], size.shape)
            if exact is None:
                fixed = _fixed_floats(parts, shift)
            else:
                fixed = np.array(list(map(to_fixed, parts, shift.ravel().tolist())), dtype=object)
                fixed = fixed.reshape(size.shape)
            self._shared[which] = bits, fixed[..., 0], fixed[..., 1], top.tolist()
        return self._shared[which]

    def _fixed_direction(self, row):
        """The integer copy of ``row``'s direction, kept in the shared dict.

        With c and s the doubles cos(theta) and sin(theta) that ``_proj``
        was built from, and d each column's double projection there, the
        offsets (ox, oy) (doubled, as stored) project exactly to
        (c ox + s oy)/2; d differs from that by a rounding gap delta of a
        few ulps.  Every double is an integer over a power of two, so d and
        delta are held exactly as integers over one power of two, 2**scale;
        |delta| < 2**size, and size is None where every delta is 0.
        Returns ``(c/2, s/2, d, delta, scale, size)``, c/2 and s/2 as mpf.
        """
        key = int(self._which[row]), float(self.theta[row])
        if key not in self._shared:
            c, s = self._cs[row].tolist()
            ratios = [x.as_integer_ratio() for x in [c / 2, s / 2] + self._proj[row].tolist()]
            scale = max(q for _, q in ratios).bit_length() - 1
            hc, hs, *d = [p << (scale + 1 - q.bit_length()) for p, q in ratios]
            d = np.array(d, dtype=object)
            ox, oy = self._offsets.T.astype(object)
            delta = d - hc * ox - hs * oy
            # no gap at theta = 0, where every projection is exact
            size = int(np.abs(delta).max()).bit_length() - scale if delta.any() else None
            self._shared[key] = from_float(c / 2), from_float(s / 2), d, delta, scale, size
        return self._shared[key]

    def det_and_derivative_exact(self, z, row):
        """det F and d(det F)/dz on ``row`` in the ambient mpmath precision.

        Summing the exponential series and expanding the determinant
        without the double rounding noise resolves the root near a nearly
        double root, where the double evaluation cannot.  The function is
        the double one's, F(z) = sum c_k exp(i z d_k) over the double
        projections d_k, with the row's extended weights when its set has
        them and its double weights otherwise.  It is evaluated in fixed
        point: Python integers scaled by 2**Q, Q = mp.prec +
        FIXED_GUARD_BITS, so it follows the ambient precision.

        Every offset (ox, oy) is a half-integer lattice vector, so exp(i z
        d) = A**ox B**oy exp(i z delta), with A = exp(i z c/2), B = exp(i z
        s/2) and the rounding gap delta of :meth:`_fixed_direction`.  An
        evaluation takes two exponentials, A and B by ``mpc_exp`` at Q bits,
        their reciprocals by integer division and their integer powers,
        and per column exp(i z delta) by its Taylor series (|z delta| is
        about 2**-50 |z|: three terms at 30 digits), each product rounded
        down to Q bits.  The terms c e and d (c e) on the padded ``(n, n,
        K)`` table, the entries and the cofactor expansion of det F and
        tr(adj(F) dF), n <= 3, are exact in integers; the two results are
        rounded once, to the ambient precision.

        Error.  With u = 2**-Q, rounding a coefficient moves it by at most
        2 u 2**top[t] (its row's power of two); each exponential carries at
        most about (|ox| + |oy| + 4) u E, E >= 1 bounding |e| and its
        partial products (1 + O(Im z) near the real axis): A or B, each
        power step, the Taylor factor and the products round once each.
        The padded terms, whose coefficient is 0, add exact zeros; an
        entry of K terms thus moves by at most about K (|ox| + |oy| + 6)
        u 2**top[t] E, under 2**7 u 2**top[t] E for the 3 x 3 offsets of
        every method here (K <= 9, |ox|, |oy| <= 2), and det F by the sum
        over entries of |adj(F)_st| times that.  The former mpmath route
        rounded each term to 2**-mp.prec of its size and expanded the
        determinant with 10 guard digits: an error of about 2**-mp.prec
        sum_ts |adj(F)_st| S_ts, S_ts the sum of an entry's term sizes,
        plus about 1e-40 perm(|F|), which reaches 2e10 |det F| (2**34) on
        raw eps_n = 0 stencils.  Here the expansion adds nothing, and the
        largest coefficient of every entry lies within 2**-8 of its row's
        (fem, fosls and dpg r = 2-4 at zeta = 2 pi/128 to 3, eps_n = 0 to
        1), so FIXED_GUARD_BITS = 48 puts the entry error 2**-32 or more
        below the former route's own.  Against a 50-digit direct sum on fem, fosls
        and dpg rows at and off their roots, |g - g_50| / (|g'| |z|) is at
        most 2.4e-32 and |g' - g'_50| / |g'| 9.4e-32, where the former
        route reached 1.2e-18 and 3.5e-20 (dpg, eps_n = 0, zeta = 2 pi/128).
        """
        bits = mp.mp.prec + FIXED_GUARD_BITS
        _, cr, ci, top = self._fixed_set(row, bits)
        hc, hs, d, delta, scale, size = self._fixed_direction(row)
        zr, zi = mp.mpc(z)._mpc_
        # exp(i z d) per column: A**ox B**oy, then times exp(i z delta)
        a, b = (
            _fixed_powers((mpf_neg(mpf_mul(zi, h, bits)), mpf_mul(zr, h, bits)), o, bits)
            for h, o in zip((hc, hs), self._offsets.T)
        )
        er, ei = _fixed_mul(*a, *b, bits)
        if size is not None:
            # x = i z delta and exp(x) to the term x**k / k! that falls
            # below 2**-bits: |x| < 2**-m, so the terms below K = ceil(bits / m)
            xr = (-to_fixed(zi, bits) * delta) >> scale
            xi = (to_fixed(zr, bits) * delta) >> scale
            m = -size - max(x[2] + x[3] for x in (zr, zi))
            tr, ti = xr, xi
            sr, si = (1 << bits) + xr, xi
            for k in range(2, -(-bits // m)):
                tr, ti = (x // k for x in _fixed_mul(tr, ti, xr, xi, bits))
                sr, si = sr + tr, si + ti
            er, ei = _fixed_mul(er, ei, sr, si, bits)
        # the terms c e on the padded table, real and imaginary parts, and
        # the entries of F and of dF/i = sum d c e, exactly: d(det F)/dz =
        # tr(adj(F) dF) is i times tr(adj(F) dF/i)
        terms = np.stack(_cmul(cr, ci, er[self._at], ei[self._at]))
        g, (dr, di) = _jacobi_fixed(terms.sum(-1), (d[self._at] * terms).sum(-1))
        gp = -di, dr
        # F's row t is scaled by 2**(2 Q - top[t]), dF's by 2**scale more
        exp = sum(top) - 2 * len(self.types) * bits
        return (
            mp.make_mpc(tuple(from_man_exp(x, exp, mp.mp.prec, "n") for x in g)),
            mp.make_mpc(tuple(from_man_exp(x, exp - scale, mp.mp.prec, "n") for x in gp)),
        )

    def null_vector(self, z: complex) -> np.ndarray:
        """Unit amplitude vector minimizing |F(z) amp| (smallest singular)."""
        _, _, vh = np.linalg.svd(self.value(z))
        return vh[-1].conj()


def _fixed_floats(x, shift):
    """floor(x * 2**shift) for a float array and integer shifts, as Python
    ints in an object array: ``to_fixed(from_float(x), shift)``, which
    rounds toward -inf where int() would truncate.  Exact while x *
    2**shift stays below 2**1024 and does not underflow to 0."""
    return np.frompyfunc(int, 1, 1)(np.floor(np.ldexp(x, shift)))


def _cmul(ar, ai, br, bi):
    """a * b of complex integers given as real and imaginary parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def _fixed_mul(ar, ai, br, bi, bits):
    """a * b of complex fixed-point integers with ``bits`` fraction bits,
    given as real and imaginary parts, rounded down."""
    return tuple(x >> bits for x in _cmul(ar, ai, br, bi))


def _fixed_powers(w, m, bits):
    """exp(m w) for each integer of the array ``m``, which holds 0, as the
    real and imaginary object arrays of fixed-point integers with ``bits``
    fraction bits: the exponential of w (an mpf pair) at ``bits``, its
    reciprocal by one integer division, then products."""
    e = mpc_exp(w, bits)
    a = to_fixed(e[0], bits), to_fixed(e[1], bits)
    norm = a[0] * a[0] + a[1] * a[1]
    inverse = (a[0] << 2 * bits) // norm, (-a[1] << 2 * bits) // norm
    powers = {0: (1 << bits, 0), 1: a, -1: inverse}
    for k in range(2, m.max() + 1):
        powers[k] = _fixed_mul(*powers[k - 1], *a, bits)
    for k in range(-2, m.min() - 1, -1):
        powers[k] = _fixed_mul(*powers[k + 1], *inverse, bits)
    return (np.array([powers[k][i] for k in m.tolist()], dtype=object) for i in (0, 1))


# a 3x3 cofactor takes rows and columns i+1 and i+2 (mod 3), as in numkit
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _jacobi_fixed(f, df):
    """det F and tr(adj(F) dF) for complex integer matrices, n <= 3, given
    as ``(2, n, n)`` object arrays of real and imaginary parts: the cofactor
    expansion of ``numkit.adjugate_small``, exactly.  Returns two (real,
    imaginary) pairs."""
    (fr, fi), n = f, f.shape[-1]
    if n == 1:
        cr, ci = np.ones((1, 1), dtype=object), np.zeros((1, 1), dtype=object)
    elif n == 2:
        cr, ci = (
            np.array([[x[1, 1], -x[1, 0]], [-x[0, 1], x[0, 0]]], dtype=object) for x in (fr, fi)
        )
    else:
        a, b, ta, tb = _NEXT[:, None], _AFTER[:, None], _NEXT, _AFTER
        pr, pi = _cmul(fr[a, ta], fi[a, ta], fr[b, tb], fi[b, tb])
        qr, qi = _cmul(fr[a, tb], fi[a, tb], fr[b, ta], fi[b, ta])
        cr, ci = pr - qr, pi - qi
    # cr + i ci is the cofactor matrix, adj(F) transposed
    det = _cmul(fr[0], fi[0], cr[0], ci[0])
    deriv = _cmul(df[0], df[1], cr, ci)
    return tuple(x.sum() for x in det), tuple(x.sum() for x in deriv)


@dataclass(frozen=True)
class RootResult:
    z: complex
    iters: int
    det_abs: float
    scale: float
    polished: bool


def _newton(sym: SymbolMatrix, starts, cap, first=None):
    """Newton iteration on det F from every start at once.

    ``starts``, ``(R, S)``, holds S starts on each of the R rows of
    ``sym``; a start that is not finite is no start.  Each start runs its
    own iteration; one batched symbol evaluation serves all starts still
    active, on all rows.  ``cap``, ``(R,)``, is each row's step cap.  A
    step longer than its cap is shortened to the cap along its direction:
    where d(det F)/dz nearly vanishes the full step would throw the start
    far from the region the starts cover, onto another branch or an alias.

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
    shape, per_row = z.shape, z.shape[1]
    z = z.reshape(-1)
    cap = np.repeat(cap, per_row)
    iters = np.full(z.shape, NEWTON_MAX_ITER)
    stopped = np.zeros(z.shape, dtype=bool)
    active = np.flatnonzero(np.isfinite(z))
    part = None  # sym on the rows of the active starts, taken again as they stop
    for it in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        za = z[active]
        if it == 0 and first is not None:
            g, gp, e = (np.reshape(a, -1)[active] for a in first)
        else:
            # active only shrinks, so an unchanged size is an unchanged set
            if part is None or len(part.theta) != active.size:
                part = sym.take(active // per_row)
            g, gp, e = part.det_and_derivative(za)
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


def _polish(sym: SymbolMatrix, row, z0: complex, curvature=np.inf, radius=0.0):
    """Newton in extended arithmetic, for roots double evaluation cannot pin.

    The weakly dissipative methods put the root at the bottom of a nearly
    quadratic determinant valley, where the double-precision determinant is
    pure rounding noise over a region much wider than the attainable
    accuracy.  Evaluated in extended precision the valley is smooth again;
    Newton contracts at least geometrically (exactly halving on a true
    double root) so the step tolerance POLISH_ZTOL bounds the remaining
    position error.  The tolerance sits far below the double resolution so
    that a nearly double root keeps stepping until its position no longer
    depends on the start.  It runs on row ``row`` of ``sym``.

    Each evaluation at z_k gives g = det F(z_k), g' and the step dz_k.
    After at least one step the polish returns z_k itself, with |g|, once
    dz_k is within tolerance.  Otherwise, when ``curvature`` bounds |g''|
    on the disc of radius ``radius``/2 around ``z0``
    (:func:`_curvature_bounds`; inf bounds nothing), the Newton-Kantorovich
    theorem (Kantorovich & Akilov, *Functional Analysis*, ch. XVIII) may
    settle z_{k+1} = z_k + dz_k without evaluating there.  With eta =
    |dz_k| and h = curvature * eta / |g'|, h <= 1/2 puts one root in the
    disc of radius t* = 2 eta / (1 + s), s = sqrt(1 - 2h), around z_k, and
    within t* - eta = 2 h eta / (1 + s)^2 of z_{k+1}.  The polish returns
    z_{k+1} when that disc lies in the bounded one and the error bound is
    within POLISH_ZTOL * max(1, |z_{k+1}|).  The root is the only one in
    the disc of radius 2 eta / (1 - s) around z_k, within the bounded one;
    det F(conj z) = conj det F(z), so where that region also holds the disc
    of radius 2 h eta / (1 + s)^2 around conj(z_{k+1}), the root is its own
    conjugate, and zr = Re z_{k+1} + 0j is reported, else zr = z_{k+1}
    rounded to double.  Its |det F| is then a Taylor bound at zr:
    |g + g' (zr - z_k)| plus curvature / 2 times |zr - z_k|^2, where the
    step has cancelled all of the linear term but the move from z_{k+1}
    to zr.  The stop on dz_k
    is tested first, so z and the step count are those of the loop alone,
    which evaluates once more only to find that step small: a simple root
    the double stage found costs one evaluation where the bound covers it,
    two where not.  Returns (z, steps, |det F(z)| or its bound) or
    (None, steps, None).
    """
    with working_context(EXTENDED):
        z = mp.mpc(complex(z0))
        for it in range(POLISH_MAX_ITER):
            g, gp = sym.det_and_derivative_exact(z, row)
            if gp == 0 or not mp.isfinite(gp) or not mp.isfinite(g):
                return None, it, None
            dz = -g / gp
            if it and abs(dz) <= POLISH_ZTOL * max(1.0, abs(z)):
                return complex(z), it, float(abs(g))
            zk, z = z, z + dz
            eta = float(abs(dz))
            h = curvature * eta / float(abs(gp))
            if h <= 0.5:
                s = np.sqrt(1.0 - 2.0 * h)
                err = 2.0 * h * eta / (1.0 + s) ** 2
                if (
                    float(abs(zk - z0)) + 2.0 * eta / (1.0 + s) <= radius / 2
                    and err <= POLISH_ZTOL * max(1.0, abs(z))
                ):
                    zr, zc = complex(z), mp.conj(z)
                    unique = (1.0 + s) * float(abs(gp)) / curvature  # 2 eta / (1 - s)
                    if (
                        float(abs(zc - zk)) + err < unique
                        and float(abs(zc - z0)) + err <= radius / 2
                    ):
                        zr = complex(zr.real, 0.0)
                    d = mp.mpc(zr) - zk
                    bound = float(abs(g + gp * d)) + curvature / 2 * float(abs(d)) ** 2
                    return zr, it + 1, bound
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


def _evaluate_blocks(sym: SymbolMatrix, points):
    """``sym.det_and_derivative(points)``, one row of points per row of
    ``sym``, evaluated CERT_BLOCK rows at a time."""
    # one block at least, so that no rows still give empty arrays
    blocks = [slice(i, i + CERT_BLOCK) for i in range(0, max(len(points), 1), CERT_BLOCK)]
    return (
        np.concatenate(parts)
        for parts in zip(*(sym.take(b).det_and_derivative(points[b]) for b in blocks))
    )


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
    roots pair as z, conj(z), so its one root is real.  The circles are
    evaluated CERT_BLOCK candidates at a time.  Returns the mask of
    certified candidates, the centre of each circle (the point to report)
    and the double |det F| there.
    """
    zs = np.asarray(zs, dtype=complex)
    rho = CERT_RADIUS * np.abs(zs)
    centre = np.where(np.abs(zs.imag) <= rho / 2, zs.real + 0j, zs)
    ring = np.exp(2j * np.pi * np.arange(CERT_POINTS + 1) / CERT_POINTS)
    ring[0] = 0.0  # the centre itself, then the circle
    points = np.concatenate([zs[:, None], centre[:, None] + rho[:, None] * ring], axis=1)
    g, gp, e = _evaluate_blocks(sym, points)
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


def _curvature_bounds(sym: SymbolMatrix, zs):
    """A bound on |g''|, g = det F, near each candidate, for :func:`_polish`.

    ``sym`` has one row per candidate.  One batched double evaluation of
    ``SymbolMatrix.det_and_derivative`` at CERT_POINTS = N points on a
    circle of radius rho = 1e-3 |z0| around each candidate z0.  Where det F
    is nearly linear the bound below is about 8 |g'| / rho, so a wide
    circle keeps it small; a thousandth of |z0| still holds the polish's
    steps from a double candidate, which sit within about 4e-10 |z0| of
    the root, many times over.  Cauchy's estimate on the disc of radius
    rho/2 around w, which the circle's disc holds, gives |g''(w)| <=
    8 max |g| / rho^2 for |w - z0| <= rho/2, the maximum taken on the
    circle (maximum modulus).  The samples' discrete Fourier coefficients
    b_k, k = 0..N-1, bound that maximum: g is entire, so b_k sums its
    Taylor terms of orders k, k + N, ..., and on the circle |g| is at most
    sum |b_k| plus twice the Taylor terms of order N and up.  Those fall
    like (rho d)^N / N!, d the longest projected offset of det F: below
    1e-60 of the terms' magnitudes here.  Each sample is within its
    rounding error e of g (rounding the weights and the point to double
    included), which moves sum |b_k| by at most the sum of the e.  So
    M = 8 (sum |b_k| + sum e) / rho^2.  The maximum on the circle is at
    least |g''(z0)| rho^2 / 2 (Cauchy's inequality for the Taylor
    coefficients), so M >= 4 |g''(z0)|: the polish's error bound exceeds
    the true error of a covered step about fourfold, and the evaluation
    it skips would have confirmed the stop.  M is inf, a bound that covers
    nothing, where some sample fails to clear CERT_CLEARANCE times its e:
    there the rounding estimate, not g, would set the bound.  Returns
    ``(M, rho)``.
    """
    zs = np.asarray(zs, dtype=complex)
    rho = 1e-3 * np.abs(zs)
    ring = np.exp(2j * np.pi * np.arange(CERT_POINTS) / CERT_POINTS)
    g, _, e = _evaluate_blocks(sym, zs[:, None] + rho[:, None] * ring)
    # N b_k = sum_j g_j ring_j^-k, as a product: numpy.fft would load a module
    coefs = g @ np.vander(ring.conj(), increasing=True)
    peak = np.abs(coefs).sum(axis=1) / CERT_POINTS + e.sum(axis=1)
    clear = np.all(np.abs(g) >= CERT_CLEARANCE * e, axis=1)
    return np.where(clear, 8 * peak / rho**2, np.inf), rho


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
    certify nothing there.  The curvature bounds of all polished
    candidates come from one more batched double evaluation
    (:func:`_curvature_bounds`), and the polish evaluates each candidate's
    row of ``sym``, whose integer copies are built once per set and
    direction.  Returns ``(z, iters, |det F(z)|, polished)``
    arrays of shape ``(T, S)``, z NaN where no root was certified;
    |det F(z)| is a bound where the polish's last step was settled by
    its Kantorovich bound (:func:`_polish`).  A root proven real, by the
    double certificate or by that bound, is reported with Im z = 0.0.
    """
    zs = np.where(zs.imag < 0, zs.conj(), zs)
    rows, cols = np.nonzero(_distinct(zs, keep))
    certified, centre, det_abs = _double_certified(sym.take(rows), zs[rows, cols])
    z = np.full(zs.shape, np.nan, dtype=complex)
    det = np.full(zs.shape, np.nan)
    polished = np.zeros(zs.shape, dtype=bool)
    z[rows, cols], det[rows, cols] = np.where(certified, centre, np.nan), det_abs
    iters = np.array(iters)
    tp, sp = rows[~certified], cols[~certified]
    if not tp.size:  # spares the empty batch its 0.1 ms
        return z, iters, det, polished
    curvature, radius = _curvature_bounds(sym.take(tp), zs[tp, sp])
    for t, s, m, rho in zip(tp, sp, curvature, radius):
        zp, itp, g = _polish(sym, t, zs[t, s], m, rho)
        polished[t, s] = True
        if zp is not None:
            z[t, s] = zp if zp.imag >= 0 else zp.conjugate()
            iters[t, s] += itp
            det[t, s] = g
    return z, iters, det, polished


def _solve(sym: SymbolMatrix, zeta, init=None):
    """The certified root nearest ``zeta`` on every row of ``sym``.

    ``zeta`` is one frequency or one per row of ``sym``, and so is
    ``init``, an extra start.  A row's starts are its zeta times
    START_FACTORS, after ``init`` when given.  A row's zeta also sets its
    step cap, STEP_CAP * zeta, and the distance its candidates are ranked
    by.  A batched Newton from all starts of all rows at once
    (:func:`_newton`) produces the candidate roots, the starts that
    stopped.  Candidates are restricted to the first Brillouin zone of the
    row's direction (Re z > 0 and max(|Re z cos theta|, |Re z sin theta|)
    <= pi, to BRILLOUIN_TOL).  det F is unchanged by a lattice shift k ->
    k + 2*pi*(m, n) of the wave vector, so a root outside the zone is an
    alias: for the bilinear fem at pi < zeta < sqrt(12) the alias 2*pi - z
    lies nearer zeta than the root z.  On a row whose candidates all lie
    outside the zone (zeta well above pi), Newton restarts from each one
    mirrored about the zone edge along the ray.  The candidates are then certified
    (:func:`_certify`), and on each row the certified root closest to its
    ``zeta`` wins.  Returns ``(z, iters, det_abs, scale, polished, rival)``
    arrays over the rows: ``scale`` is the largest |det F| over the row's
    starts, the scale to read ``det_abs`` against, and ``rival`` the
    runner-up root where it lies within AMBIGUITY_TOL of the winner's
    distance to ``zeta``, else NaN.  z is NaN on a row without a certified
    root in the zone.
    """
    zeta = np.broadcast_to(np.asarray(zeta, dtype=float), sym.theta.shape)
    starts = zeta[:, None] * START_FACTORS
    if init is not None:
        starts = np.column_stack([np.broadcast_to(init, zeta.shape), starts])
    first = sym.det_and_derivative(starts)
    scale = np.abs(first[0]).max(axis=1)
    scale[scale == 0] = 1.0
    cap = STEP_CAP * zeta
    edge = (np.pi / np.maximum(np.abs(np.cos(sym.theta)), np.abs(np.sin(sym.theta))))[:, None]
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
    t = np.arange(len(zeta))[:, None]
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
    are dropped.  Its last step is settled without evaluating at the new
    point where a Newton-Kantorovich bound, from a bound on d^2(det F)/dz^2
    by double evaluations on a circle, puts the root within tolerance of
    it; ``det_abs`` is then a bound on |det F| at the reported z.
    ``RootResult.polished`` tells the two certificates apart.
    A second certified root at nearly the same distance from ``zeta``
    triggers a BranchAmbiguity warning.  ``RootResult.scale``, the largest
    |det F| over the starts, is the scale to read ``det_abs`` against.
    Raises NoRootFound if no root is certified in the zone.
    """
    _require_zeta(zeta)
    _require_theta(theta)
    sym = SymbolMatrix(stencils, theta)
    z, iters, det_abs, scale, polished, rival = _solve(sym, zeta, init)
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
    return extract_stencils(method, zeta, eps_n, r, normalize=False)


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
    solved = _solve(sym, zeta)
    z, rival = solved[0], solved[-1]
    # far above the resolved range (r = 4 at zeta = 2.5) the root can move
    # too far from zeta for the common starts to reach
    for t in np.flatnonzero(np.isnan(z)):
        if t and not np.isnan(z[t - 1]):
            warm = _solve(sym.take(t), zeta, z[t - 1])
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
    roots, *_, rival = _solve(SymbolMatrix(sets, 0.0), zetas)
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
    step = np.diff(zetas)
    seeds, *_, seed_rival = _solve(sym, zetas)
    z, rival = seeds.copy(), seed_rival.copy()
    # a point after one without a pass-1 root has no pass-2 start of its own
    later = np.flatnonzero(~np.isnan(seeds[:-1])) + 1
    if later.size:
        warm, *_, warm_rival = _solve(
            sym.take(later), zetas[later], seeds[later - 1] + step[later - 1]
        )
        found = ~np.isnan(warm)
        z[later[found]], rival[later[found]] = warm[found], warm_rival[found]
    for i in range(1, len(zetas)):
        prev = z[i - 1]
        if np.isnan(prev):
            break
        if abs(prev - seeds[i - 1]) <= DEDUP_TOL * max(1.0, abs(prev)):
            continue
        again, *_, again_rival = _solve(sym.take(i), zetas[i], prev + step[i - 1])
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
