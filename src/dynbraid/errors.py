"""Exception types shared across the package."""


class DynbraidError(Exception):
    """Base class for all package errors."""


class BraidFormatError(DynbraidError):
    """Malformed braid word text or strand mismatch."""


class CoordinateError(DynbraidError):
    """Invalid coordinate data (zero vector, length mismatch, bad scale)."""


class NonConvergence(DynbraidError):
    """Projective iteration failed to find an attracting direction.

    Raised for identity-like, finite order or reducible inputs, or when the
    iteration does not converge within its step cap.  When the word is
    proved not to be pseudo-Anosov, the message names a power p and a
    nonzero integer Dynnikov vector c (an integral lamination) with
    w^p(c) = c.
    """


class VerificationFailed(DynbraidError):
    """A candidate matrix failed its fixed-direction or region check."""


class NoDominantRealRoot(DynbraidError):
    """The characteristic polynomial has no simple, strictly dominant real root > 1."""


class NotIrreducible(DynbraidError):
    """A transition matrix has no PF eigenvalue or no positive eigenvector for it."""


class TrackFormatError(DynbraidError):
    """Train-track or transition-matrix document violates its schema."""


class TieAtBasepoint(DynbraidError):
    """The basepoint of a linearization sits on a linearity wall."""
