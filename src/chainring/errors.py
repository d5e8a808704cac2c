"""Shared exception types, and the text of an exponent in their messages."""


class ParameterError(ValueError):
    """An operation received out-of-range or inconsistent parameters."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its resource budget."""


class NonconvergentError(ValueError):
    """An infinite product or series was requested outside its convergence region."""


class VerificationError(AssertionError):
    """Two independent computations of the same quantity disagree."""


def _exponent_text(exponent: int) -> str:
    """``exponent`` in digits below 2^64; past it, where str may refuse to print it, by its bit length."""
    return str(exponent) if exponent < 1 << 64 else f"(a {exponent.bit_length()}-bit number)"
