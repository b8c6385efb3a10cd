"""Numerical kernels whose arithmetic follows their data.

A :class:`Precision` names one of two rounded arithmetics:

* ``Precision.double()`` -- IEEE double via numpy ``float64``/``complex128``;
* ``Precision.extended(digits)`` -- mpmath ``mpf``/``mpc`` scalars stored in
  object-dtype numpy arrays (default 30 significant digits).

Matrices are plain ``numpy.ndarray`` objects in either representation, so a
single dtype-generic code path (slicing, ``@``, ``conj``) serves both.  The
kernels take no precision argument: ``float64`` stays ``float64``, and
mpmath arrays run at the ambient mpmath precision, which their callers pin
with :func:`working_context`.  Exact rationals are not a kernel input: the
DPG element solves its realified Gram system in integers and hands each
entry to :func:`rounded` as a numerator and a denominator, which rounds it
once into either arithmetic.  All functions are pure: identical inputs
give bit-identical outputs.

The Gauss-Legendre rules are double.  The closed-form kernels for stacks
of n x n matrices, n <= 3 (determinant, permanent, adjugate), serve both
the dispersion symbol and the condensation's 3x3 interior inverse.

:func:`single_thread_blas` pins the process's OpenBLAS thread pools to one
thread each.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath.libmp import from_rational, fzero as mpf_zero, mpf_neg, mpf_shift

from .errors import DimensionMismatch

#: Relative pivot tolerance: pivots below this times the largest diagonal
#: entry count as a positive-definiteness failure.
PIVOT_RTOL = 1e-14


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


#: Thread-count setters of the OpenBLAS builds numpy and scipy ship (64-bit
#: and 32-bit integer interfaces), then of a plain OpenBLAS; the first one a
#: library exports is called.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def single_thread_blas() -> None:
    """Set every OpenBLAS thread pool mapped into this process to one thread.

    numpy and scipy each load their own OpenBLAS, and each pool starts one
    thread per core.  Its workers keep spinning after every call, so on a
    small machine they take the other cores from the main thread, while the
    small dense products and factorizations here gain nothing from BLAS
    threads.  Reads this process's ``/proc/self/maps``; does
    nothing where that cannot be read or no OpenBLAS is mapped.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def as_complex128(a: np.ndarray) -> np.ndarray:
    """Downcast a matrix from either representation to complex128.

    numpy converts object entries through their ``__complex__``, which mpf
    and mpc provide.
    """
    return np.asarray(a).astype(complex)


def rounded(num, den, phases, precision: Precision) -> np.ndarray:
    """``phases * num / den``, each ratio of integers rounded once into ``precision``.

    ``num`` and positive ``den`` are Python ints or object arrays of them
    and ``phases`` an array of the units 1, -1, i and -i, all broadcast
    together: an exact rational travels as its numerator and denominator.
    Double divides ``int / int``, which Python rounds correctly; extended
    rounds each ratio with ``from_rational`` under one working context.  A
    unit moves or negates the rounded value and adds no error, so extended
    builds each mpc from its parts.
    """
    if not precision.is_extended:
        return np.true_divide(np.asarray(num, dtype=object), den).astype(float) * phases
    with working_context(precision):
        prec, make = mp.mp.prec, mp.mp.make_mpc

        def phased(p, q, phase):
            v = mpf_zero
            if p:
                # from_rational strips trailing zero bits a byte per step,
                # so the powers of two of p and q leave first, one shift each
                kp, kq = (p & -p).bit_length() - 1, (q & -q).bit_length() - 1
                v = mpf_shift(from_rational(p >> kp, q >> kq, prec, "n"), kp - kq)
            if phase.real:
                return make((v if phase.real > 0 else mpf_neg(v), mpf_zero))
            return make((mpf_zero, v if phase.imag > 0 else mpf_neg(v)))

        return np.frompyfunc(phased, 3, 1)(num, den, phases)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss-Legendre rule on the unit square [0,1]^2.

    ``points`` has shape (nq, 2) and ``weights`` shape (nq,); weights sum
    to one.
    """

    n: int
    points: np.ndarray
    weights: np.ndarray


def gauss_legendre_1d(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    Computed in double by Newton iteration on the three-term Legendre
    recurrence from Chebyshev initial guesses; exact for polynomials of
    degree 2n-1.  Returns ``(nodes, weights)`` as float64 arrays.
    """
    if n < 1:
        raise DimensionMismatch(f"quadrature order must be >= 1, got {n}")
    nodes, weights = _gl_cached(n)
    return nodes.copy(), weights.copy()


@lru_cache(maxsize=None)
def _gl_cached(n: int):
    """Roots of P_n on [-1, 1] plus weights, mapped to [0, 1]."""
    xs, ws = [], []
    for k in range(n):
        x = math.cos(math.pi * (k + 0.75) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            if n == 1:
                p1, dp = x, 1.0
            else:
                dp = n * (x * p1 - p0) / (x * x - 1)
            step = p1 / dp
            x = x - step
            if abs(step) <= abs(x) * 10.0 ** -19:
                break
        p0, p1 = 1.0, x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = 1.0 if n == 1 else n * (x * p1 - p0) / (x * x - 1)
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    order = sorted(range(n), key=xs.__getitem__)
    return 0.5 * (np.array(xs)[order] + 1.0), 0.5 * np.array(ws)[order]


def tensor_rule(n: int) -> QuadratureRule:
    """n x n tensor Gauss-Legendre rule on the unit square, x running fastest."""
    x, w = gauss_legendre_1d(n)
    pts = np.stack([np.tile(x, n), np.repeat(x, n)], axis=1)
    return QuadratureRule(n, pts, np.outer(w, w).ravel())


# ---------------------------------------------------------------------------
# small dense matrices
# ---------------------------------------------------------------------------


def hermitian_error(a: np.ndarray) -> float:
    """max |A - A^H| entry over max |A| entry (0 for the zero matrix)."""
    a = np.asarray(a)
    diff = a - a.conj().T
    scale = max((float(abs(v)) for v in a.ravel()), default=0.0)
    err = max((float(abs(v)) for v in diff.ravel()), default=0.0)
    return err / scale if scale > 0 else err


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
