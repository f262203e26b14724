"""Exception hierarchy shared by all rsfq modules.

ConfigError and EnumerationCapError signal usage problems (CLI exit code 2);
ExactIdentityError signals a violated mathematical check (CLI exit code 1);
ExactTraceError is the one raised inside field arithmetic.
"""


class RsfqError(Exception):
    """Base class for all rsfq errors."""


class ConfigError(RsfqError):
    """Invalid field, polynomial or run configuration."""


class ZeroInversionError(RsfqError):
    """Multiplicative inverse of zero requested."""


class PolyDivisionError(RsfqError):
    """Polynomial division by the zero polynomial."""


class ZeroPolynomialError(RsfqError):
    """Operation undefined on the zero polynomial (norm, divisors, ...)."""


class DegreeBoundError(RsfqError):
    """Degree outside the range an operation supports."""


class NotMonicError(RsfqError):
    """Monic polynomial required."""


class EnumerationCapError(RsfqError):
    """Requested enumeration exceeds the configured cap."""


class TrivialCharacterError(RsfqError):
    """Non-trivial additive character required."""


class InvalidCutoffsError(RsfqError):
    """Cutoff parameters violate 1 <= u, v and u + v < n."""


class ExactIdentityError(RsfqError):
    """An identity that must hold exactly was violated."""


class ExactTraceError(ExactIdentityError, AssertionError):
    """A trace computation left the prime subfield (impossible)."""
