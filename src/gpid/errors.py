"""Exception types shared across the package."""


class GpidError(Exception):
    """Base class for all package errors."""


class InvalidParameters(GpidError, ValueError):
    """Arguments outside the admissible family (e.g. 2k >= n)."""


class FormatError(GpidError, ValueError):
    """Malformed matrix text or serialized labeling."""


class NotA2RDF(GpidError, ValueError):
    """Conversion requested on an invalid 2-rainbow dominating function."""


class WrongFamily(GpidError, ValueError):
    """An audit specific to P(n,1) or P(n,2) was applied to another k."""


class BudgetExceeded(GpidError, RuntimeError):
    """Instance too large for the requested solving method."""


class InternalError(GpidError, RuntimeError):
    """A solver contradicted itself (an unsound witness, a lost state)."""
