"""Exception types shared across the toolkit."""

from __future__ import annotations


class DomainError(ValueError):
    """A function was evaluated outside its mathematical domain."""

    def __init__(self, x, reason: str):
        super().__init__(f"domain error at x={x!r}: {reason}")
        self.x = x
        self.reason = reason


class ParseError(ValueError):
    """Expression text could not be parsed.

    Carries the byte offset of the failure and a description of what
    would have been accepted there.
    """

    def __init__(self, offset: int, message: str, expected: str = ""):
        detail = f"parse error at offset {offset}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.offset = offset
        self.message = message
        self.expected = expected


class OutOfRangeError(ValueError):
    """A numeric argument left the window an evaluator supports."""

    def __init__(self, what: str, value: float, lo: float, hi: float):
        super().__init__(f"{what}={value!r} outside supported range [{lo!r}, {hi!r}]")
        self.what = what
        self.value = value
        self.lo = lo
        self.hi = hi


class QuadratureError(RuntimeError):
    """Base class for integration failures."""


class NonFiniteSample(QuadratureError):
    """The integrand returned NaN or infinity at a sample point."""

    def __init__(self, x: float):
        super().__init__(f"integrand not finite at x={x!r}")
        self.x = x


class MaxSubdivisionsExceeded(QuadratureError):
    """Adaptive refinement hit its subdivision budget.

    ``best`` holds the best estimate obtained so far (a QuadResult).
    """

    def __init__(self, best, message: str = "subdivision budget exhausted"):
        super().__init__(f"{message}; best estimate {best.value!r} "
                         f"(error estimate {best.error_estimate!r})")
        self.best = best


class NegativeValueError(ValueError):
    """A check requiring a nonnegative function found a negative value."""

    def __init__(self, x: float, value: float):
        super().__init__(f"function is negative at x={x!r}: {value!r}")
        self.x = x
        self.value = value


class NonPositiveValueError(ValueError):
    """A check requiring a strictly positive function found g(x) <= 0."""

    def __init__(self, x: float, value: float):
        super().__init__(f"function is not strictly positive at x={x!r}: {value!r}")
        self.x = x
        self.value = value


class UnsupportedExponentError(ValueError):
    """Generalized logarithmic mean exponent too close to a pole."""

    def __init__(self, p: float):
        super().__init__(f"exponent p={p!r} too close to {{-1, 0}}")
        self.p = p


class EmptyFeasibleSetError(RuntimeError):
    """No point of a search box satisfies the required constraints."""


class ConfigError(ValueError):
    """Invalid sweep configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
