"""Deterministic decimal rendering of exact integers, rationals and certified floats.

Fixed-point output uses round-half-even.  Values below 1e-4 switch to
scientific notation; values whose complement from 1 is too small to show at
the requested precision switch to the hybrid form ``1-x.ye-k``.  The exact
value is never touched: rendering is presentation only.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import ParameterError

SCI_BELOW = Fraction(1, 10_000)


def render_integer(value: int) -> str:
    """Decimal digits of an exact integer of any length.

    ``str`` refuses integers beyond the interpreter's int-to-str digit limit;
    ``decimal`` converts them exactly and leaves that process-wide limit alone.
    """
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def render_scientific(x: Fraction, sig: int = 3) -> str:
    """Scientific notation with ``sig`` significant digits, e.g. 1.07e-31."""
    if x <= 0:
        raise ValueError("scientific rendering needs a positive value")
    exponent = 0
    scaled = Fraction(x)
    while scaled >= 10:
        scaled /= 10
        exponent += 1
    while scaled < 1:
        scaled *= 10
        exponent -= 1
    mantissa = round(scaled * 10 ** (sig - 1))  # round-half-even on Fraction
    if mantissa >= 10 ** sig:
        mantissa //= 10
        exponent += 1
    digits = str(mantissa)
    body = f"{digits[0]}.{digits[1:]}" if sig > 1 else digits
    return f"{body}e{exponent}" if exponent < 0 else f"{body}e+{exponent}"


def render_ratio(
    x,
    digits: int = 6,
    hybrid_below: Fraction | None = None,
    sci_digits: int = 3,
) -> str:
    """Render an exact nonnegative rational (or float) at fixed precision.

    ``hybrid_below`` controls when a value just under 1 is shown as
    ``1-<complement>``; the default is half an ulp of the fixed-point grid,
    i.e. exactly when fixed-point rounding would print 1.
    """
    if digits < 0:
        raise ParameterError(f"precision must be nonnegative, got {digits}")
    x = Fraction(x)
    if x < 0:
        raise ValueError("rendering expects a nonnegative value")
    if hybrid_below is None:
        hybrid_below = Fraction(1, 2 * 10 ** digits)
    if x == 0:
        return "0." + "0" * digits
    if x == 1:
        return "1." + "0" * digits
    if x < SCI_BELOW:
        return render_scientific(x, sci_digits)
    complement = 1 - x
    if 0 < complement < hybrid_below:
        return "1-" + render_scientific(complement, 2)
    scaled = round(x * 10 ** digits)
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{render_integer(whole)}.{render_integer(frac).zfill(digits)}"
