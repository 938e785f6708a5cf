"""Exception hierarchy shared by all pexpand modules.

Two failure families matter to callers: precondition violations (bad or
out-of-domain input, CLI exit code 1) and internal-consistency failures
(two independent routes to the same quantity disagree, which signals a
bug in this library rather than in the input, CLI exit code 2).
"""

from __future__ import annotations


class PexpandError(Exception):
    """Base class for all library-raised errors."""


class PreconditionError(PexpandError):
    """Input violates a documented precondition."""


class InvalidMapError(PreconditionError):
    """A map failed validation; carries the report for diagnostics."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class AmbiguousPeriodicityError(PreconditionError):
    """Periodicity detection landed in the hysteresis band.

    Callers that need a scalar answer must not guess a side; they either
    propagate dual values or refuse.
    """

    def __init__(self, message: str, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class DegenerateDirectionError(PreconditionError):
    """|J(f, w)| fell below the transversality floor tol_w."""


class NoPointError(PreconditionError):
    """No point of the map realizes the requested symbol sequence."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class OrbitRefusedError(PreconditionError):
    """Conjugation refused: the orbit enters the critical band."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NewtonDivergenceError(PexpandError):
    """Root search failed to converge within the iteration budget."""


class CertificationError(PexpandError):
    """Expansivity certification failed (epsilon underflow, or N0 above
    the MAX_TERMS orbit budget)."""


class KneadingDriftError(PexpandError):
    """A deformation changed the kneading prefix it was meant to preserve.

    Treated as internal-consistency: the integrator accepted steps whose
    residuals were too loose for the claimed class preservation.
    """

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class InternalConsistencyError(PexpandError):
    """Two independent computations of one quantity disagree."""
