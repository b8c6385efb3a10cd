"""Precision-parametric numerical kernels.

Every routine in this module runs in one of two arithmetics:

* ``Precision.double()`` -- IEEE double via numpy ``float64``/``complex128``;
* ``Precision.extended(digits)`` -- mpmath ``mpf``/``mpc`` scalars stored in
  object-dtype numpy arrays (default 30 significant digits).

Matrices are plain ``numpy.ndarray`` objects in either representation, so a
single dtype-generic code path (slicing, ``@``, ``conj``) serves both.  The
linear algebra keeps real input real: ``float64`` stays ``float64`` and an
object array of ``mpf`` runs in real ``mpf`` arithmetic, not ``mpc``, which
is how the DPG element solves its realified Gram system.  All functions are
pure: identical inputs give bit-identical outputs.

The factorization used throughout is an LDL^H decomposition without pivoting,
appropriate for the Hermitian (or real symmetric) positive (semi)definite
matrices this package produces.  ``hermitian_solve`` only solves: its
callers that act on a condition number compute it themselves.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPositiveDefinite

#: Relative tolerance for the Hermitian symmetry check.
HERMITIAN_RTOL = 1e-12

#: Relative pivot tolerance: pivots below this times the largest diagonal
#: entry count as a positive-definiteness failure.
PIVOT_RTOL = 1e-14

#: Double-precision condition threshold above which a caller recomputes in
#: extended arithmetic or warns IllConditioned.
ILL_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Precision:
    """Arithmetic selector: ``double`` or ``extended`` with a digit count."""

    kind: str
    digits: int = 0

    @staticmethod
    def double() -> "Precision":
        return Precision("double")

    @staticmethod
    def extended(digits: int = 30) -> "Precision":
        if digits < 30:
            raise ValueError("extended precision floor is 30 significant digits")
        return Precision("extended", digits)

    @property
    def is_extended(self) -> bool:
        return self.kind == "extended"

    def real(self, x) -> object:
        """Convert a real number to this precision's real scalar type."""
        if self.is_extended:
            with mp.workdps(self.digits):
                return mp.mpf(x)
        return float(x)

    def cplx(self, re, im=0) -> object:
        """Build a complex scalar in this precision."""
        if self.is_extended:
            with mp.workdps(self.digits):
                return mp.mpc(re, im)
        return complex(re, im)

    def zeros(self, *shape) -> np.ndarray:
        if self.is_extended:
            z = np.empty(shape, dtype=object)
            z[...] = mp.mpf(0)
            return z
        return np.zeros(shape, dtype=complex)


DOUBLE = Precision.double()
#: the one extended arithmetic of the package's 30-digit paths
EXTENDED = Precision.extended(30)


def working_context(precision: Precision):
    """Context manager pinning mpmath's working precision.

    mpmath evaluates every operation at the *global* decimal precision, so
    all object-array arithmetic must run inside this context; in double
    precision it is a no-op.
    """
    if precision.is_extended:
        return mp.workdps(precision.digits)
    return nullcontext()


def as_complex128(a: np.ndarray) -> np.ndarray:
    """Downcast a matrix from either representation to complex128.

    numpy converts object entries through their ``__complex__``, which mpf
    and mpc provide.
    """
    return np.asarray(a).astype(complex)


def _real_part(x):
    # works for float, complex, mpf, mpc
    return x.real if hasattr(x, "real") else x


def real_part(a: np.ndarray) -> np.ndarray:
    """Elementwise real part in either representation (mpc -> mpf)."""
    a = np.asarray(a)
    if a.dtype == object:
        return np.frompyfunc(_real_part, 1, 1)(a)
    return a.real.copy()


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss-Legendre rule on the unit square [0,1]^2.

    ``points`` has shape (nq, 2) and ``weights`` shape (nq,); weights sum
    to one.  ``nodes_1d``/``weights_1d`` expose the underlying 1D rule on
    [0,1] for edge integrals.
    """

    n: int
    points: np.ndarray
    weights: np.ndarray
    nodes_1d: np.ndarray
    weights_1d: np.ndarray
    precision: Precision


def gauss_legendre_1d(n: int, precision: Precision = DOUBLE):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    Computed by Newton iteration on the three-term Legendre recurrence from
    Chebyshev initial guesses, in the requested arithmetic; exact for
    polynomials of degree 2n-1.  Returns ``(nodes, weights)`` as numpy
    arrays (float64 or object/mpf).
    """
    if n < 1:
        raise DimensionMismatch(f"quadrature order must be >= 1, got {n}")
    nodes, weights = _gl_cached(n, precision.kind, precision.digits)
    return nodes.copy(), weights.copy()


@lru_cache(maxsize=None)
def _gl_cached(n: int, kind: str, digits: int):
    precision = Precision(kind, digits)
    if precision.is_extended:
        with mp.workdps(precision.digits + 10):
            xs, ws = _gl_newton(n, mp.mpf, mp.pi, precision)
            half = mp.mpf(1) / 2
            nodes = np.array([+(half * (x + 1)) for x in xs], dtype=object)
            weights = np.array([+(w / 2) for w in ws], dtype=object)
    else:
        xs, ws = _gl_newton(n, float, math.pi, precision)
        nodes = 0.5 * (np.array(xs) + 1.0)
        weights = 0.5 * np.array(ws)
    return nodes, weights


def _gl_newton(n, real, pi_val, precision):
    """Roots of P_n on [-1, 1] plus weights, by Newton from Chebyshev guesses."""
    xs, ws = [], []
    for k in range(n):
        x = real(math.cos(math.pi * (k + 0.75) / (n + 0.5)))
        for _ in range(100):
            p0, p1 = real(1), x
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            if n == 1:
                p1, dp = x, real(1)
            else:
                dp = n * (x * p1 - p0) / (x * x - 1)
            step = p1 / dp
            x = x - step
            if abs(step) <= abs(x) * real(10) ** (-(precision.digits or 17) - 2):
                break
        p0, p1 = real(1), x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = real(1) if n == 1 else n * (x * p1 - p0) / (x * x - 1)
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    order = sorted(range(n), key=lambda i: float(xs[i]))
    return [xs[i] for i in order], [ws[i] for i in order]


def tensor_rule(n: int, precision: Precision = DOUBLE) -> QuadratureRule:
    """n x n tensor Gauss-Legendre rule on the unit square, x running fastest."""
    x, w = gauss_legendre_1d(n, precision)
    pts = np.stack([np.tile(x, n), np.repeat(x, n)], axis=1)
    return QuadratureRule(n, pts, np.outer(w, w).ravel(), x, w, precision)


# ---------------------------------------------------------------------------
# Hermitian linear algebra
# ---------------------------------------------------------------------------


def hermitian_error(a: np.ndarray) -> float:
    """max |A - A^H| entry over max |A| entry (0 for the zero matrix)."""
    a = np.asarray(a)
    diff = a - a.conj().T
    scale = max((float(abs(v)) for v in a.ravel()), default=0.0)
    err = max((float(abs(v)) for v in diff.ravel()), default=0.0)
    return err / scale if scale > 0 else err


def require_hermitian(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    err = hermitian_error(a)
    if err > HERMITIAN_RTOL:
        raise NotHermitian(f"relative conjugate-symmetry defect {err:.3e} exceeds {HERMITIAN_RTOL:.1e}")


def ldlh_factor(a: np.ndarray, precision: Precision = DOUBLE):
    """LDL^H factorization of a Hermitian positive-definite matrix.

    Returns ``(L, d)`` with unit-lower-triangular L and real positive pivots
    d.  Raises :class:`NotPositiveDefinite` when a pivot falls below
    ``PIVOT_RTOL`` times the largest diagonal entry.
    """
    n = a.shape[0]
    with working_context(precision):
        L = a.astype(object) if a.dtype == object else a.astype(np.result_type(a, float))
        d = np.empty(n, dtype=object if a.dtype == object else float)
        maxdiag = max((float(abs(_real_part(a[i, i]))) for i in range(n)), default=0.0)
        tol = PIVOT_RTOL * maxdiag
        for j in range(n):
            if j > 0:
                s = (L[j, :j] * L[j, :j].conj() * d[:j]).sum()
            else:
                s = 0
            piv = _real_part(L[j, j] - s)
            if not float(piv) > tol:
                raise NotPositiveDefinite(
                    f"pivot {float(piv):.3e} at index {j} below tolerance {tol:.3e}"
                )
            d[j] = piv
            if j + 1 < n:
                if j > 0:
                    upd = L[j + 1 :, :j] @ (L[j, :j].conj() * d[:j])
                    L[j + 1 :, j] = (L[j + 1 :, j] - upd) / piv
                else:
                    L[j + 1 :, j] = L[j + 1 :, j] / piv
        for j in range(n):
            L[j, j] = d[j] * 0 + 1
            L[j, j + 1 :] = d[j] * 0
    return L, d


def ldlh_solve(L: np.ndarray, d: np.ndarray, b: np.ndarray, precision: Precision = DOUBLE) -> np.ndarray:
    """Solve A x = b given the LDL^H factors of A; b may have many columns."""
    one_col = b.ndim == 1
    with working_context(precision):
        y = (b[:, None] if one_col else b).copy()
        n = L.shape[0]
        for j in range(n - 1):
            y[j + 1 :, :] = y[j + 1 :, :] - L[j + 1 :, j : j + 1] * y[j : j + 1, :]
        for j in range(n):
            y[j, :] = y[j, :] / d[j]
        for j in range(n - 2, -1, -1):
            y[j, :] = y[j, :] - L[j + 1 :, j].conj() @ y[j + 1 :, :]
    return y[:, 0] if one_col else y


def hermitian_solve(a: np.ndarray, b: np.ndarray, precision: Precision = DOUBLE) -> np.ndarray:
    """Solve the Hermitian positive-definite system A X = B for X.

    Raises :class:`NotHermitian` / :class:`NotPositiveDefinite`.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    require_hermitian(a)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs rows {b.shape[0]} != matrix size {a.shape[0]}")
    L, d = ldlh_factor(a, precision)
    return ldlh_solve(L, d, b, precision)


def _require_small(f: np.ndarray, name: str) -> int:
    if f.ndim < 2 or f.shape[-1] != f.shape[-2] or not 1 <= f.shape[-1] <= 3:
        raise DimensionMismatch(
            f"{name} handles (stacks of) square matrices up to 3x3, got {f.shape}"
        )
    return f.shape[-1]


def det_small(f: np.ndarray):
    """Determinant by cofactor expansion of an (..., n, n) stack, n <= 3.

    Works elementwise over the leading axes, in either representation; a
    single matrix gives a scalar.
    """
    f = np.asarray(f)
    n = _require_small(f, "det_small")
    if n == 1:
        return f[..., 0, 0][()]
    if n == 2:
        return f[..., 0, 0] * f[..., 1, 1] - f[..., 0, 1] * f[..., 1, 0]
    return (
        f[..., 0, 0] * (f[..., 1, 1] * f[..., 2, 2] - f[..., 1, 2] * f[..., 2, 1])
        - f[..., 0, 1] * (f[..., 1, 0] * f[..., 2, 2] - f[..., 1, 2] * f[..., 2, 0])
        + f[..., 0, 2] * (f[..., 1, 0] * f[..., 2, 1] - f[..., 1, 1] * f[..., 2, 0])
    )


def permanent_small(a: np.ndarray):
    """Permanent of an (..., n, n) stack, n <= 3: the cofactor expansion of
    det_small with every sign +.

    Applied to |F| it is the sum of the magnitudes of the products that
    det_small(F) adds up, so a small multiple of the unit roundoff times it
    bounds the rounding error of that determinant.
    """
    a = np.asarray(a)
    n = _require_small(a, "permanent_small")
    if n == 1:
        return a[..., 0, 0][()]
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] + a[..., 0, 1] * a[..., 1, 0]
    return (
        a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] + a[..., 1, 2] * a[..., 2, 1])
        + a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] + a[..., 1, 2] * a[..., 2, 0])
        + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] + a[..., 1, 1] * a[..., 2, 0])
    )


# row/column i of a 3x3 cofactor uses rows/columns i+1 and i+2 (mod 3), an
# ordering that carries the checkerboard sign
_NEXT = np.array([1, 2, 0])
_AFTER = np.array([2, 0, 1])


def adjugate_small(f: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor matrix) of an (..., n, n) stack, n <= 3.

    Satisfies adj(F) @ F = det(F) * I; used for the analytic derivative of
    det F via Jacobi's formula d(det F) = tr(adj(F) dF).
    """
    f = np.asarray(f)
    n = _require_small(f, "adjugate_small")
    if n == 1:
        return f * 0 + 1
    if n == 2:
        out = np.empty_like(f)
        out[..., 0, 0], out[..., 1, 1] = f[..., 1, 1], f[..., 0, 0]
        out[..., 0, 1], out[..., 1, 0] = -f[..., 0, 1], -f[..., 1, 0]
        return out
    a, b = _NEXT[:, None], _AFTER[:, None]
    ta, tb = _NEXT[None, :], _AFTER[None, :]
    cof = f[..., a, ta] * f[..., b, tb] - f[..., a, tb] * f[..., b, ta]
    return np.swapaxes(cof, -1, -2)
