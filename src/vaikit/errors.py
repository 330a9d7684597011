"""Exception types shared across the toolkit.

Every error carries a human-readable message; several also carry a
machine-checkable payload (a witness vector, a smaller problem to
recurse into) so callers can act on the failure instead of parsing
strings.
"""

from __future__ import annotations


class VaikitError(Exception):
    """Base class for all toolkit errors."""


class InvariantViolation(VaikitError):
    """Validated input data breaks a structural invariant."""


class InputError(VaikitError):
    """Malformed or inconsistent user-supplied data (maps to exit 2)."""


class NotReductive(VaikitError):
    """The ambient algebra is not reductive, so verdicts are undefined."""


class NotSemisimple(VaikitError):
    """An element expected to act semisimply has a repeated-root minimal polynomial."""


class IrrationalSpectrum(VaikitError):
    """An adjoint action has eigenvalues outside the rationals."""


class NotNilpotent(VaikitError):
    """An element expected to act nilpotently does not."""


class NotSymmetric(VaikitError):
    """The pair is not symmetric, so the two-sided exponent is undefined."""


class GammaNotPositive(VaikitError):
    """Greedy complement construction produced a zero decay rate.

    Happens exactly when the subalgebra meets the nilradical trivially.
    ``payload`` holds the data of the smaller problem (the Levi factor
    and the projected subalgebra) one can recurse into by hand.
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


class NoNormalizer(VaikitError):
    """No suitable grading element exists for the requested certificate."""


class EmptyBox(VaikitError):
    """A sampling box is degenerate (zero or non-finite measure)."""


class TooFewPoints(VaikitError):
    """Not enough usable data points for a requested fit."""
