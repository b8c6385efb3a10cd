"""Discrete dispersion analysis for lattice stencils.

A plane-wave ansatz ``value_s(x) = amp_s * exp(i*wh* k.x)`` turns each
stencil row into one row of a small symbol matrix F(z), where ``z`` is the
discrete frequency-step product and the entries are finite exponential sums
over the lattice offsets.  Nontrivial amplitudes require ``det F(z) = 0``;
the solver tracks the root nearest the continuous value ``zeta`` with a
Newton iteration (derivative by the adjugate formula) and a Muller
fallback, then certifies the result by re-evaluating the determinant and
the ansatz residual.

Roots of conjugate-symmetric stencils come in conjugate pairs; the solver
reports the representative with nonnegative imaginary part.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import stencil as stencil_mod
from .errors import BranchAmbiguity, NoRootFound
from .numkit import Precision, adjugate_small, det_small
from .stencil import StencilSet, extract_stencils

NEWTON_MAX_ITER = 100
MULLER_MAX_ITER = 80
ROOT_GTOL = 1e-12
ROOT_GTOL_FLOOR = 1e-10
ROOT_ZTOL = 1e-12
DEDUP_TOL = 1e-8
AMBIGUITY_TOL = 1e-6
ADMISSIBLE_LO = 0.0
BRILLOUIN_TOL = 1e-8
POLISH_DPS = 30
POLISH_MAX_ITER = 40
POLISH_ZTOL = 1e-9

DEFAULT_N_THETA = 181


class SymbolMatrix:
    """F(z) and dF/dz for one stencil set and one propagation direction."""

    def __init__(self, stencils: StencilSet, theta: float):
        self.types = stencils.types
        self.theta = float(theta)
        k = np.array([np.cos(theta), np.sin(theta)])
        n = len(self.types)
        self._dots = [[None] * n for _ in range(n)]
        self._coefs = [[None] * n for _ in range(n)]
        self._coefs_exact = [[None] * n for _ in range(n)]
        for ti, t in enumerate(self.types):
            for si, s in enumerate(self.types):
                row = stencils.weights.get((t, s))
                if not row:
                    continue
                offs = np.array(list(row), dtype=float) / 2.0
                self._dots[ti][si] = offs @ k
                self._coefs[ti][si] = np.array([row[o] for o in row], dtype=complex)
                if stencils.exact is not None:
                    erow = stencils.exact[(t, s)]
                    self._coefs_exact[ti][si] = [erow[o] for o in row]

    def value(self, z: complex) -> np.ndarray:
        n = len(self.types)
        f = np.zeros((n, n), dtype=complex)
        # iterates far from the root can push exp(1j*z*dots) past the float
        # range; the callers test for non-finite results, so the overflow
        # itself is expected and the warning suppressed
        with np.errstate(over="ignore", invalid="ignore"):
            for ti in range(n):
                for si in range(n):
                    dots = self._dots[ti][si]
                    if dots is None:
                        continue
                    f[ti, si] = self._coefs[ti][si] @ np.exp(1j * z * dots)
        return f

    def value_and_derivative(self, z: complex):
        n = len(self.types)
        f = np.zeros((n, n), dtype=complex)
        df = np.zeros((n, n), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for ti in range(n):
                for si in range(n):
                    dots = self._dots[ti][si]
                    if dots is None:
                        continue
                    phase = np.exp(1j * z * dots)
                    f[ti, si] = self._coefs[ti][si] @ phase
                    df[ti, si] = self._coefs[ti][si] @ (1j * dots * phase)
        return f, df

    def det(self, z: complex) -> complex:
        with np.errstate(over="ignore", invalid="ignore"):
            return det_small(self.value(z))

    def det_and_derivative(self, z: complex):
        with np.errstate(over="ignore", invalid="ignore"):
            f, df = self.value_and_derivative(z)
            g = det_small(f)
            gp = np.trace(adjugate_small(f) @ df)
            return g, gp

    def det_and_derivative_exact(self, z):
        """det F and d(det F)/dz in the ambient mpmath precision.

        Uses the stencil set's extended-precision weights when present and
        the double weights as exact inputs otherwise; summing the
        exponential series and expanding the determinant in extended
        arithmetic removes the cancellation noise that limits the double
        evaluation near a nearly double root.  Call inside mp.workdps.
        """
        n = len(self.types)
        f = np.empty((n, n), dtype=object)
        df = np.empty((n, n), dtype=object)
        iz = mp.mpc(0, 1) * z
        for ti in range(n):
            for si in range(n):
                dots = self._dots[ti][si]
                if dots is None:
                    f[ti, si] = mp.mpc(0)
                    df[ti, si] = mp.mpc(0)
                    continue
                coefs = self._coefs_exact[ti][si]
                if coefs is None:
                    coefs = [mp.mpc(complex(c)) for c in self._coefs[ti][si]]
                acc = mp.mpc(0)
                dacc = mp.mpc(0)
                for c, d in zip(coefs, dots):
                    dm = mp.mpf(float(d))
                    term = c * mp.exp(iz * dm)
                    acc += term
                    dacc += mp.mpc(0, 1) * dm * term
                f[ti, si] = acc
                df[ti, si] = dacc
        g = det_small(f)
        gp = np.trace(adjugate_small(f) @ df)
        return g, gp

    def null_vector(self, z: complex) -> np.ndarray:
        """Unit amplitude vector minimizing |F(z) amp| (smallest singular)."""
        _, _, vh = np.linalg.svd(self.value(z))
        return vh[-1].conj()


@dataclass(frozen=True)
class RootResult:
    z: complex
    iters: int
    det_abs: float
    scale: float


def _newton(sym: SymbolMatrix, z0: complex, scale: float):
    """Newton iteration on det F with a noise-floor fallback.

    Simple roots satisfy the strict test (determinant below 1e-12 of the
    multistart scale with a stagnant step).  Nearly double roots, which the
    weakly dissipative methods produce, bottom out on the rounding floor of
    the determinant evaluation instead; the best visited point is then
    accepted when its determinant still clears the certificate level
    ROOT_GTOL_FLOOR * scale.
    """
    gtol = ROOT_GTOL * scale
    floor_tol = ROOT_GTOL_FLOOR * scale
    z = complex(z0)
    prev_dz = np.inf
    best_g, best_z = np.inf, None
    for it in range(NEWTON_MAX_ITER):
        g, gp = sym.det_and_derivative(z)
        if abs(g) < best_g:
            best_g, best_z = abs(g), z
        if abs(g) <= gtol and prev_dz <= ROOT_ZTOL * max(1.0, abs(z)):
            return z, it
        if gp == 0 or not np.isfinite(gp) or not np.isfinite(g):
            break
        dz = -g / gp
        z = z + dz
        prev_dz = abs(dz)
    if best_z is not None and best_g <= floor_tol:
        return best_z, NEWTON_MAX_ITER
    return None, NEWTON_MAX_ITER


def _polish(sym: SymbolMatrix, z0: complex):
    """Newton in extended arithmetic, for roots double evaluation cannot pin.

    The weakly dissipative methods put the root at the bottom of a nearly
    quadratic determinant valley, where the double-precision determinant is
    pure rounding noise over a region much wider than the attainable
    accuracy.  Evaluated in extended precision the valley is smooth again;
    Newton contracts at least geometrically (exactly halving on a true
    double root) so the step tolerance POLISH_ZTOL bounds the remaining
    position error.  Returns (z, iterations, |det F(z)|) or (None, n, None).
    """
    with mp.workdps(POLISH_DPS):
        z = mp.mpc(complex(z0))
        for it in range(POLISH_MAX_ITER):
            g, gp = sym.det_and_derivative_exact(z)
            if gp == 0 or not mp.isfinite(gp) or not mp.isfinite(g):
                return None, it + 1, None
            dz = -g / gp
            z = z + dz
            if abs(dz) <= POLISH_ZTOL * max(1.0, abs(z)):
                g, _ = sym.det_and_derivative_exact(z)
                return complex(z), it + 1, float(abs(g))
    return None, POLISH_MAX_ITER, None


def _muller(sym: SymbolMatrix, z0: complex, gtol: float):
    d = 1e-3 * max(1.0, abs(z0))
    za, zb, zc = z0 - d, z0 + d, complex(z0)
    fa, fb, fc = sym.det(za), sym.det(zb), sym.det(zc)
    for it in range(MULLER_MAX_ITER):
        if zc == zb or zb == za:
            return None, it
        q = (zc - zb) / (zb - za)
        a = q * fc - q * (1 + q) * fb + q * q * fa
        b = (2 * q + 1) * fc - (1 + q) ** 2 * fb + q * q * fa
        c = (1 + q) * fc
        disc = np.sqrt(b * b - 4 * a * c)
        den1, den2 = b + disc, b - disc
        den = den1 if abs(den1) >= abs(den2) else den2
        if den == 0:
            return None, it
        dz = -(zc - zb) * 2 * c / den
        zn = zc + dz
        fn = sym.det(zn)
        if abs(fn) <= gtol and abs(dz) <= ROOT_ZTOL * max(1.0, abs(zn)):
            return zn, it
        za, zb, zc = zb, zc, zn
        fa, fb, fc = fb, fc, fn
    return None, MULLER_MAX_ITER


def solve_root(
    stencils: StencilSet,
    theta: float,
    zeta: float,
    init: complex | None = None,
) -> RootResult:
    """Locate the dispersion root nearest ``zeta`` for direction ``theta``.

    Multistart Newton (with a Muller fallback per start) produces candidate
    roots; candidates are folded to nonnegative imaginary part,
    deduplicated, restricted to the first Brillouin zone (Re z > 0 and
    max(|Re z cos theta|, |Re z sin theta|) <= pi, to BRILLOUIN_TOL), and
    the one closest to ``zeta`` wins.  det F is unchanged by a lattice
    shift k -> k + 2*pi*(m, n) of the wave vector, so a root outside the
    zone is an alias: for the bilinear fem at pi < zeta < sqrt(12) the
    alias 2*pi - z lies nearer zeta than the root z.  When every candidate
    lies outside the zone (zeta well above pi), Newton restarts from each
    one mirrored about the zone edge along the ray.  Every surviving
    candidate is re-polished with the determinant evaluated in extended
    precision, which recovers the root position lost to rounding in the
    nearly-double-root regime of the weakly dissipative methods and costs
    two evaluations when the double result was already converged.  A second admissible root at nearly the
    same distance triggers a BranchAmbiguity warning.  Raises NoRootFound
    if every start fails in both arithmetics.
    """
    if not zeta > 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    sym = SymbolMatrix(stencils, theta)
    starts = [
        complex(zeta),
        complex(1.1 * zeta),
        complex(0.9 * zeta),
        zeta * (1 + 0.1j),
        zeta * (1 - 0.1j),
        complex(1.2 * zeta),
        complex(0.8 * zeta),
    ]
    if init is not None:
        starts.insert(0, complex(init))
    scale = max(abs(sym.det(p)) for p in starts)
    if scale == 0.0:
        scale = 1.0
    found = []
    for p in starts:
        z, it = _newton(sym, p, scale)
        if z is None:
            z, it2 = _muller(sym, p, ROOT_GTOL * scale)
            it += it2
        if z is None:
            continue
        if z.imag < 0:
            zf, itf = _newton(sym, z.conjugate(), scale)
            if zf is not None:
                z, it = zf, it + itf
        found.append((z, it))
    if not found:
        for p in starts:
            z, it, _ = _polish(sym, p)
            if z is not None:
                found.append((z, it))
    edge = np.pi / max(abs(np.cos(theta)), abs(np.sin(theta)))

    def in_zone(z):
        return ADMISSIBLE_LO < z.real <= edge + BRILLOUIN_TOL

    admissible = [(z, it) for z, it in found if in_zone(z)]
    if not admissible:
        # on the axes and diagonals the mirror image 2*edge - conj(z) is
        # itself a root, the alias of z; elsewhere it is a start in the zone
        for z, it in found:
            zm, itm = _newton(sym, complex(2 * edge - z.real, abs(z.imag)), scale)
            if zm is not None and in_zone(zm):
                admissible.append((zm if zm.imag >= 0 else zm.conjugate(), it + itm))
    if not admissible:
        raise NoRootFound(
            f"no admissible dispersion root near zeta={zeta!r} for "
            f"theta={theta!r} ({stencils.method})"
        )
    dedup: list[tuple[complex, int]] = []
    for z, it in admissible:
        if all(abs(z - w) > DEDUP_TOL * max(1.0, abs(z)) for w, _ in dedup):
            dedup.append((z, it))
    # near a double root the double-precision determinant bottoms out in
    # cancellation noise, so a candidate can pass the float64 tests while
    # sitting ~sqrt(noise) away from the truth; pin every candidate in
    # extended arithmetic (weights held fixed), folding to Im >= 0, which
    # is exact because the weights pair Hermitianly; for simple roots the
    # first extended step is already below tolerance and this is cheap
    certified = []
    for z, it in dedup:
        zp, itp, gp = _polish(sym, z)
        if zp is None:
            certified.append((z, it, abs(sym.det(z))))
        else:
            if zp.imag < 0:
                zp = zp.conjugate()
            certified.append((zp, it + itp, gp))
    final: list[tuple[complex, int, float]] = []
    for z, it, g in certified:
        if all(abs(z - w) > DEDUP_TOL * max(1.0, abs(z)) for w, _, _ in final):
            final.append((z, it, g))
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


def _method_stencils(method, zeta, eps_n, r, precision):
    if method == "dpg":
        return extract_stencils(
            "dpg", zeta, eps_n, r, precision=precision, normalize=False
        )
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
    theta: float = 0.0,
    omega: float = 1.0,
    precision: Precision | None = None,
) -> ConvergenceStudy:
    """Rate of |z - zeta| along zeta = omega * h, h = 2*pi / 2**level.

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
        st = _method_stencils(method, zeta, eps_n, r, precision)
        roots.append(solve_root(st, theta, zeta).z)
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
    precision: Precision | None = None,
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
        st = _method_stencils(method, zeta, eps_n, r, precision)
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


def _sweep_row(task) -> SweepRow:
    method, r, eps_n, zeta, n_theta, precision = task
    st = _method_stencils(method, zeta, eps_n, r, precision)
    sweep = theta_sweep(st, n_theta)
    return SweepRow(method, r, eps_n, zeta, sweep.rho, sweep.eta, sweep.theta_rho)


def worker_count() -> int:
    """Process count for sweeps, capped by the HELM_DPG_THREADS variable."""
    try:
        return max(1, int(os.environ.get("HELM_DPG_THREADS", "1")))
    except ValueError:
        return 1


def epsilon_r_sweep(
    zeta: float = np.pi / 4,
    eps_values=(1.0, 1e-1, 1e-2, 1e-4, 1e-6),
    r_values=(2, 3, 4),
    include_baselines: bool = True,
    n_theta: int = DEFAULT_N_THETA,
    precision: Precision | None = None,
) -> list[SweepRow]:
    """Worst-direction phase and dissipation errors across eps and order."""
    tasks = []
    for r in r_values:
        for eps_n in eps_values:
            tasks.append(("dpg", r, eps_n, zeta, n_theta, precision))
    if include_baselines:
        tasks.append(("fem", None, None, zeta, n_theta, None))
        tasks.append(("fosls", None, None, zeta, n_theta, None))
    nw = worker_count()
    if nw > 1:
        with ProcessPoolExecutor(max_workers=nw) as pool:
            return list(pool.map(_sweep_row, tasks))
    return [_sweep_row(t) for t in tasks]
