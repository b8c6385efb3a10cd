"""Exception and warning types shared across the package.

Errors carry enough context in their message to be actionable from the CLI;
the CLI maps any :class:`HelmDpgError` to exit code 1, except the
out-of-range parameters :class:`REnrichmentTooSmall` and
:class:`MeshTooSmall`, which are usage errors (exit code 2).
"""

from __future__ import annotations


class HelmDpgError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(HelmDpgError):
    """Operands have incompatible shapes for the requested operation."""


class NotHermitian(HelmDpgError):
    """A matrix required to be Hermitian fails the conjugate-symmetry check."""


class NotPositiveDefinite(HelmDpgError):
    """A factorization pivot fell below the positive-definiteness tolerance."""


class REnrichmentTooSmall(HelmDpgError):
    """Test-space enrichment order r < 2; the trial-to-test map is not injective."""


class MeshTooSmall(HelmDpgError):
    """Mesh resolution n < 2; interface stencils need interior nodes."""


class SolveFailure(HelmDpgError):
    """A linear solve failed or its residual check did not meet tolerance."""


class BCInconsistent(HelmDpgError):
    """Boundary data is malformed (non-finite values or missing callable)."""


class InteriorBlockSingular(HelmDpgError):
    """The 3x3 interior block of an element matrix is numerically singular."""


class CenterRowDegenerate(HelmDpgError):
    """The stencil self-weight vanishes; rows cannot be normalized."""


class NoRootFound(HelmDpgError):
    """No admissible dispersion root converged from any start point."""


class MissingValue(HelmDpgError):
    """A grid function lacks a value required by the stencil support."""


class PhaseMismatch(HelmDpgError):
    """A trace element is not real up to the trial phases: a defect, not a parameter."""


class OutsideEnvelope(HelmDpgError):
    """Element parameters whose Gram condition estimate exceeds the supported envelope."""


class BranchAmbiguity(UserWarning):
    """Two admissible dispersion roots lie within 1e-6 of each other."""
