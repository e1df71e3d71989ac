"""Exception types shared across the package."""


class NoisyMarkovError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(NoisyMarkovError, ValueError):
    """A parameter lies outside its mathematically required range."""


class TooLongError(NoisyMarkovError, ValueError):
    """The enumeration budget of a brute-force computation was exceeded."""


class InsufficientContextError(NoisyMarkovError, ValueError):
    """A finite context is too short to certify the requested tolerance."""


class DivisionNearZeroError(NoisyMarkovError, ArithmeticError):
    """A truncated continued-fraction denominator fell below the safe threshold."""


class SingularChannelError(NoisyMarkovError, ValueError):
    """The emission matrix is singular (epsilon = 1/2) and cannot be inverted."""


class LengthMismatchError(NoisyMarkovError, ValueError):
    """Sequences that must align position by position have different lengths."""


class MalformedDataError(NoisyMarkovError, ValueError):
    """Input data, a spin word or a saved file, does not have the required form."""


class CertificateOverflowError(NoisyMarkovError, OverflowError):
    """A certificate constant would overflow, or underflow to zero, in double precision."""
