"""Exception types shared across the package."""


class SympdecError(Exception):
    """Base class for all sympdec errors."""


class ShapeMismatchError(SympdecError):
    """Matrix dimensions are incompatible with the requested operation."""


class NotInGroupError(SympdecError):
    """An input matrix fails the membership predicate of its claimed group."""


class IndexOutOfRangeError(SympdecError):
    """A block or stabilization index lies outside its admissible range."""


class OutOfRangeError(SympdecError):
    """A degree lies outside the validity window of the requested formula."""


class EvenNError(SympdecError):
    """An operation that requires odd n was called with even n."""


class NotCoprimeError(SympdecError):
    """An operation that requires gcd(m, n) = 1 was called with gcd > 1."""


class BadBezoutError(SympdecError):
    """Supplied (u, v) do not satisfy |v*n - 4*u*m^2| = 1."""


class MalformedHomError(SympdecError):
    """A homomorphism matrix is not well defined on its source generators."""


class HypothesisFailureError(SympdecError):
    """A connectivity certificate could not be established."""


class BoundsTooLargeError(SympdecError):
    """Verification bounds exceed the exact-arithmetic size guard."""
