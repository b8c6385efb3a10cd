"""Discrete dispersion analysis for lattice stencils.

A plane-wave ansatz ``value_s(x) = amp_s * exp(i*wh* k.x)`` turns each
stencil row into one row of a small symbol matrix F(z), where ``z`` is the
discrete frequency-step product and the entries are finite exponential sums
over the lattice offsets.  Nontrivial amplitudes require ``det F(z) = 0``;
the solver tracks the root nearest the continuous value ``zeta`` with a
Newton iteration from several starts at once (derivative by the adjugate
formula, steps capped at a fraction of ``zeta``), all of them off the real
axis, where det F is real and Newton cannot reach a complex root.  A start
stops at the strict test or, once it has cleared the certificate level, at
the rounding floor of the double determinant.  Each candidate is then
certified by re-solving in extended precision to a step tolerance tight
enough that the polished root does not depend on the start; the ansatz
residual gives an independent check.

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
ROOT_GTOL = 1e-12
ROOT_GTOL_FLOOR = 1e-10
# rounding level of det_small(F) in double relative to perm(|F|): 8 unit roundoffs
FLOOR_ROUNDING = 8 * np.finfo(float).eps / 2
ROOT_ZTOL = 1e-12
DEDUP_TOL = 1e-8
AMBIGUITY_TOL = 1e-6
ADMISSIBLE_LO = 0.0
BRILLOUIN_TOL = 1e-8
POLISH_ZTOL = 1e-13
# 30-digit evaluations per polish.  On a nearly double root Newton halves the
# error per step, so reaching POLISH_ZTOL takes 14 steps more than reaching
# 1e-9; 55 confirms every root that 40 steps to 1e-9 would confirm
POLISH_MAX_ITER = 55

DEFAULT_N_THETA = 181


class SymbolMatrix:
    """F(z) and dF/dz for one stencil set and one propagation direction.

    Entry (t, s) of F is the exponential sum ``sum_k c_k exp(i z d_k)`` over
    the (t, s) stencil offsets, ``d_k`` the offset projected on the
    direction.  Both evaluators take one exponential per distinct projected
    offset and gather it through an index into those offsets.
    ``value_and_derivative`` takes any array of z in double and sums
    complex128 ``(n, n, K)`` coefficient arrays, padded with zeros to the
    longest row.  ``det_and_derivative_exact`` takes one z in the ambient
    mpmath precision and sums only each entry's own terms, with the stencil
    set's extended weights when present and the double weights otherwise.
    Its object copies are built on its first call, so callers that stay in
    double never pay for them.
    """

    def __init__(self, stencils: StencilSet, theta: float):
        self.types = stencils.types
        self.theta = float(theta)
        k = np.array([np.cos(theta), np.sin(theta)])
        n = len(self.types)
        rows = {
            (ti, si): stencils.weights.get((t, s)) or {}
            for ti, t in enumerate(self.types)
            for si, s in enumerate(self.types)
        }
        width = max(len(row) for row in rows.values())
        dots = np.zeros((n, n, width))
        coefs = np.zeros((n, n, width), dtype=complex)
        for (ti, si), row in rows.items():
            if row:
                dots[ti, si, : len(row)] = np.array(list(row), dtype=float) / 2.0 @ k
                coefs[ti, si, : len(row)] = list(row.values())
        self._offsets, at = np.unique(dots, return_inverse=True)
        self._at = at.reshape(dots.shape)
        self._coefs = coefs
        self._dcoefs = 1j * dots * coefs
        self._rows = rows
        self._exact_weights = stencils.exact

    def value_and_derivative(self, z):
        """F(z) and dF/dz, each of shape ``np.shape(z) + (n, n)``."""
        z = np.asarray(z, dtype=complex)[..., None]
        # iterates far from the root can push exp(1j*z*dots) past the float
        # range; the callers test for non-finite results, so the overflow
        # itself is expected and the warning suppressed
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.take(np.exp(1j * z * self._offsets), self._at, axis=-1)
            return (self._coefs * phase).sum(-1), (self._dcoefs * phase).sum(-1)

    def value(self, z) -> np.ndarray:
        return self.value_and_derivative(z)[0]

    @staticmethod
    def _jacobi(f, df):
        """det F and its derivative tr(adj(F) dF) (Jacobi's formula)."""
        return det_small(f), np.trace(adjugate_small(f) @ df, axis1=-2, axis2=-1)

    def det(self, z):
        with np.errstate(over="ignore", invalid="ignore"):
            return det_small(self.value(z))

    def det_and_derivative(self, z):
        """det F(z) and its z-derivative, for any array z."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._jacobi(*self.value_and_derivative(z))

    def rounding_floor(self, z):
        """Rounding level of the double det F(z): FLOOR_ROUNDING * perm(|F(z)|).

        Below it the cofactor expansion is cancellation noise, so Newton on
        the double determinant cannot improve the root further.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return FLOOR_ROUNDING * permanent_small(np.abs(self.value(z)))

    @cached_property
    def _exact_terms(self):
        """Object copies for ``det_and_derivative_exact``, without padding.

        The distinct offsets as mpf, then flat arrays over the terms of all
        entries, row by row in stencil order: the index of each term's
        offset, its coefficient (an extended weight, or a double one
        converted to mpc once) and its factor i*d; last the slice of each
        (t, s) entry.
        """
        at, coefs, spans = [], [], []
        for (ti, si), row in self._rows.items():
            if not row:
                continue
            k = len(row)
            if self._exact_weights is not None:
                erow = self._exact_weights.get((self.types[ti], self.types[si])) or {}
                coefs += [erow[o] for o in row]
            else:
                coefs += [_exact_complex(c) for c in self._coefs[ti, si, :k]]
            at += list(self._at[ti, si, :k])
            spans.append((ti, si, slice(len(at) - k, len(at))))
        offsets = np.array([mp.mpf(d) for d in self._offsets], dtype=object)
        idots = np.array([_exact_complex(1j * self._offsets[j]) for j in at], dtype=object)
        return offsets, np.array(at, dtype=int), np.array(coefs, dtype=object), idots, spans

    def det_and_derivative_exact(self, z):
        """det F and d(det F)/dz in the ambient mpmath precision.

        Summing the exponential series and expanding the determinant in
        extended arithmetic removes the cancellation noise that limits the
        double evaluation near a nearly double root.  Each entry sums its
        terms c*e and (i*d)*(c*e) left to right.  Call inside mp.workdps.
        """
        offsets, at, coefs, idots, spans = self._exact_terms
        exps = np.array([mp.exp(a) for a in offsets * (1j * z)], dtype=object)
        terms = coefs * exps[at]
        dterms = idots * terms
        n = len(self.types)
        f = np.zeros((n, n), dtype=object)
        df = np.zeros((n, n), dtype=object)
        for ti, si, span in spans:
            f[ti, si] = terms[span].sum()
            df[ti, si] = dterms[span].sum()
        return self._jacobi(f, df)

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


def _newton(sym: SymbolMatrix, starts, scale: float, cap: float):
    """Newton iteration on det F from every start at once.

    Each start runs its own iteration; one batched symbol evaluation serves
    all starts still active.  A step longer than ``cap`` is shortened to
    ``cap`` along its direction: where d(det F)/dz nearly vanishes the full
    step would throw the start far from the region the starts cover, onto
    another branch or an alias.

    Simple roots satisfy the strict test (determinant below 1e-12 of the
    multistart scale with a stagnant step).  Nearly double roots, which the
    weakly dissipative methods produce, bottom out on the rounding floor of
    the determinant evaluation instead; the best visited point is then
    accepted when its determinant still clears the certificate level
    ROOT_GTOL_FLOOR * scale.  A start whose best point has cleared that
    level stops as soon as its determinant is at the rounding floor
    (``SymbolMatrix.rounding_floor``), where further steps are noise; the
    floor is evaluated only for such starts.  Returns ``(z, iters, ok)``
    arrays, one entry per start: ``iters`` is the step at which the start
    stopped (NEWTON_MAX_ITER if it never did), and ``ok`` marks the starts
    that passed either test.
    """
    z = np.array(starts, dtype=complex).ravel()
    best_z = z.copy()
    best_g = np.full(z.shape, np.inf)
    prev_dz = np.full(z.shape, np.inf)
    iters = np.full(z.shape, NEWTON_MAX_ITER)
    strict = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    for it in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        za = z[active]
        g, gp = sym.det_and_derivative(za)
        ag = np.abs(g)
        better = ag < best_g[active]
        best_g[active[better]] = ag[better]
        best_z[active[better]] = za[better]
        conv = (ag <= ROOT_GTOL * scale) & (
            prev_dz[active] <= ROOT_ZTOL * np.maximum(1.0, np.abs(za))
        )
        strict[active[conv]] = True
        stop = conv.copy()
        near = np.flatnonzero(~conv & (best_g[active] <= ROOT_GTOL_FLOOR * scale))
        if near.size:
            stop[near] = ag[near] <= sym.rounding_floor(za[near])
        iters[active[stop]] = it
        go = ~stop & (gp != 0) & np.isfinite(gp) & np.isfinite(g)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            dz = -g[go] / gp[go]
            dz *= np.minimum(1.0, cap / np.abs(dz))
        active = active[go]
        z[active] += dz
        prev_dz[active] = np.abs(dz)
    ok = strict | (best_g <= ROOT_GTOL_FLOOR * scale)
    return np.where(strict, z, best_z), iters, ok


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
    found costs two evaluations.  Returns (z, steps, |det F(z)|) or
    (None, steps, None).
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


def _distinct(zs) -> list[int]:
    """Indices of the first of each group of roots equal to DEDUP_TOL."""
    keep: list[int] = []
    for i, z in enumerate(zs):
        if all(abs(z - zs[j]) > DEDUP_TOL * max(1.0, abs(z)) for j in keep):
            keep.append(i)
    return keep


def _certify(sym: SymbolMatrix, zs, iters, in_zone):
    """Polish each distinct candidate; keep the confirmed ones in the zone.

    A candidate the extended polish does not confirm is dropped: the double
    determinant near a nearly double root is rounding noise, so the double
    tests alone certify nothing there.  Confirmed roots are folded to
    Im z >= 0, which is exact because the weights pair Hermitianly.
    Returns rows ``(z, iters, |det F(z)|)``.
    """
    rows = []
    for i in _distinct(zs):
        zp, itp, g = _polish(sym, zs[i])
        if zp is None:
            continue
        zp = zp if zp.imag >= 0 else zp.conjugate()
        if in_zone(zp):
            rows.append((zp, int(iters[i]) + itp, g))
    return [rows[i] for i in _distinct([row[0] for row in rows])]


def solve_root(
    stencils: StencilSet,
    theta: float,
    zeta: float,
    init: complex | None = None,
) -> RootResult:
    """Locate the dispersion root nearest ``zeta`` for direction ``theta``.

    A batched Newton from all starts at once produces candidate roots.  The
    starts are ``init`` when given, ``zeta*(1 +- 0.1i)`` and five more at
    ``zeta`` times 1, 1.1, 0.9, 1.2 and 0.8, moved off the real axis by
    ``0.02i*zeta``: det F is real for real z, so from a real start Newton
    cannot leave the axis to reach a complex root.  Candidates are folded
    to nonnegative imaginary part, restricted to the first Brillouin zone
    (Re z > 0 and max(|Re z cos theta|, |Re z sin theta|) <= pi, to
    BRILLOUIN_TOL) and deduplicated.  det F is
    unchanged by a lattice shift k -> k + 2*pi*(m, n) of the wave vector,
    so a root outside the zone is an alias: for the bilinear fem at
    pi < zeta < sqrt(12) the alias 2*pi - z lies nearer zeta than the root
    z.  When every candidate lies outside the zone (zeta well above pi),
    Newton restarts from each one mirrored about the zone edge along the
    ray.  The certificate is the extended polish: every candidate is
    re-solved with the determinant evaluated in extended precision, which
    recovers the root position lost to rounding in the nearly-double-root
    regime of the weakly dissipative methods, to a tolerance at which the
    result no longer depends on the start, and costs two evaluations when
    the double result was already converged; candidates it does not
    confirm are dropped, and when none is confirmed the polish runs from
    the starts themselves.  The confirmed root closest to ``zeta`` wins,
    and a second one at nearly the same distance triggers a
    BranchAmbiguity warning.  Raises NoRootFound if no root is confirmed
    in the zone.
    """
    if not zeta > 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    sym = SymbolMatrix(stencils, theta)
    starts = zeta * np.array(
        [1 + 0.02j, 1.1 + 0.02j, 0.9 + 0.02j, 1 + 0.1j, 1 - 0.1j, 1.2 + 0.02j, 0.8 + 0.02j]
    )
    if init is not None:
        starts = np.insert(starts, 0, init)
    scale = float(np.max(np.abs(sym.det(starts)))) or 1.0
    cap = STEP_CAP * zeta
    edge = np.pi / max(abs(np.cos(theta)), abs(np.sin(theta)))

    def in_zone(z):
        return (ADMISSIBLE_LO < z.real) & (z.real <= edge + BRILLOUIN_TOL)

    z, iters, ok = _newton(sym, starts, scale, cap)
    z, iters = z[ok], iters[ok]
    neg = np.flatnonzero(z.imag < 0)
    zf, itf, okf = _newton(sym, z[neg].conj(), scale, cap)
    z[neg[okf]] = zf[okf]
    iters[neg[okf]] += itf[okf]
    if not in_zone(z).any():
        # on the axes and diagonals the mirror image 2*edge - conj(z) is
        # itself a root, the alias of z; elsewhere it is a start in the zone
        zm, itm, okm = _newton(sym, 2 * edge - z.real + 1j * np.abs(z.imag), scale, cap)
        z = np.where(zm.imag >= 0, zm, zm.conj())[okm]
        iters = (iters + itm)[okm]
    # near a double root the double-precision determinant bottoms out in
    # cancellation noise, so a candidate can pass the float64 tests while
    # sitting ~sqrt(noise) away from the truth, or be no root at all
    keep = in_zone(z)
    final = _certify(sym, z[keep], iters[keep], in_zone)
    if not final:
        final = _certify(sym, starts, np.zeros(starts.size, dtype=int), in_zone)
    if not final:
        raise NoRootFound(
            f"no admissible dispersion root near zeta={zeta!r} for "
            f"theta={theta!r} ({stencils.method})"
        )
    final.sort(key=lambda row: abs(row[0] - zeta))
    best, iters, det_abs = final[0]
    if len(final) > 1:
        gap = abs(final[1][0] - zeta) - abs(best - zeta)
        if gap < AMBIGUITY_TOL:
            warnings.warn(
                f"two dispersion branches nearly equidistant from zeta={zeta!r} "
                f"at theta={theta!r}: {best!r} and {final[1][0]!r}",
                BranchAmbiguity,
                stacklevel=2,
            )
    return RootResult(best, iters, det_abs, scale)


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
    """Trace the root over directions [0, pi/2], warm starting each solve."""
    zeta = stencils.omega_n
    thetas = np.linspace(0.0, np.pi / 2, n_theta)
    z = np.empty(n_theta, dtype=complex)
    iters = np.empty(n_theta, dtype=int)
    det_abs = np.empty(n_theta, dtype=float)
    prev = None
    for i, th in enumerate(thetas):
        try:
            res = solve_root(stencils, th, zeta, init=prev)
        except NoRootFound:
            if prev is None:
                raise
            res = solve_root(stencils, th, zeta)
        z[i] = res.z
        iters[i] = res.iters
        det_abs[i] = res.det_abs
        prev = res.z
    return ThetaSweep(stencils.method, zeta, thetas, z, iters, det_abs)


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
    with it.  The slope is the least-squares fit of log|z - zeta| against
    log(zeta) restricted to levels 3..7 (the asymptotic range); coarser
    levels are reported but not fitted.  ``levels`` must hold at least two
    distinct fitted levels, else ValueError is raised before any solve.
    """
    fitted = set(levels) & set(ConvergenceStudy.FIT_LEVELS)
    if len(fitted) < 2:
        raise ValueError(
            f"levels {tuple(levels)} hold {len(fitted)} of the fitted levels "
            f"FIT_LEVELS = {ConvergenceStudy.FIT_LEVELS}; the slope needs two"
        )
    zetas, roots = [], []
    for level in levels:
        h = 2.0 * np.pi / 2.0**level
        zeta = omega * h
        eps_n = None if eps is None else eps * h
        st = _method_stencils(method, zeta, eps_n, r)
        roots.append(solve_root(st, 0.0, zeta).z)
        zetas.append(zeta)
    zetas = np.asarray(zetas)
    roots = np.asarray(roots)
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


def band_diagram(
    method: str,
    eps_n: float | None = None,
    r: int | None = None,
    theta: float = 0.0,
    zeta_max: float = 6.0,
    zeta_step: float = 0.05,
) -> BandDiagram:
    """Track the root along a normalized frequency grid by continuation.

    Each solve is initialized from the previous root shifted by the grid
    step, which keeps the tracker on one branch through stopbands where the
    root leaves the real axis.
    """
    n = int(round(zeta_max / zeta_step))
    zetas = zeta_step * np.arange(1, n + 1)
    z = np.empty(len(zetas), dtype=complex)
    prev = None
    for i, zeta in enumerate(zetas):
        st = _method_stencils(method, zeta, eps_n, r)
        init = None if prev is None else prev + (zetas[i] - zetas[i - 1])
        try:
            res = solve_root(st, theta, zeta, init=init)
        except NoRootFound:
            if init is None:
                raise
            res = solve_root(st, theta, zeta)
        z[i] = res.z
        prev = res.z
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
