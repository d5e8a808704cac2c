"""Deterministic decimal rendering of exact integers, rationals and certified floats.

Fixed-point output uses round-half-even.  Values below 1e-4 switch to
scientific notation; values whose complement from 1 is too small to show at
the requested precision switch to the hybrid form ``1-x.ye-k``.  The exact
value is never touched: rendering is presentation only.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction

from .errors import ParameterError
from .qseries import _charge, _product_cost

SCI_BELOW = Fraction(1, 10_000)
SCI_DIGITS = 3  # significant digits of values below SCI_BELOW


def render_integer(value: int) -> str:
    """Decimal digits of an exact integer of any length.

    ``str`` refuses integers beyond the interpreter's int-to-str digit limit;
    past it the digits come from ``_to_decimal``, in subquadratic time, and
    that process-wide limit is left alone.
    """
    try:
        return str(value)
    except ValueError:
        return str(_to_decimal(value))


# below this many bits Decimal(int) is fast; above it the halves are converted apart
_SPLIT_BITS = 1024


def _to_decimal(value: int) -> Decimal:
    """``value`` as an exact Decimal, in subquadratic time.

    Splits the binary digits in half, value = hi * 2^w + lo, converts both
    halves recursively and joins them with one Decimal product; libmpdec
    multiplies long operands by a number-theoretic transform.  The powers
    2^w are kept for the call, since the splits of one level share them.
    """
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:
        if w not in powers:
            half = w // 2
            powers[w] = Decimal(2) ** w if w <= _SPLIT_BITS else power(half) * power(w - half)
        return powers[w]

    def convert(n: int, bits: int) -> Decimal:
        if bits <= _SPLIT_BITS:
            return Decimal(n)
        w = bits // 2
        hi = n >> w
        return convert(hi, bits - w) * power(w) + convert(n - (hi << w), w)

    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        ctx.traps[Inexact] = True  # every step is exact at MAX_PREC; never round silently
        digits = convert(abs(value), abs(value).bit_length())
        return -digits if value < 0 else digits


def render_scientific(x: Fraction, sig: int = 3) -> str:
    """Scientific notation with ``sig`` significant digits, e.g. 1.07e-31."""
    if x <= 0:
        raise ValueError("scientific rendering needs a positive value")
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    # the bit-length difference times log10(2) is within one of the decimal
    # exponent, so one scaling leaves at most two steps for the loops; it
    # stays on integers, where a Fraction would run a gcd of the whole value
    exponent = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    num, den = (num, den * 10 ** exponent) if exponent >= 0 else (num * 10 ** -exponent, den)
    while num >= 10 * den:
        den *= 10
        exponent += 1
    while num < den:
        num *= 10
        exponent -= 1
    mantissa, rest = divmod(num * 10 ** (sig - 1), den)
    if 2 * rest > den or (2 * rest == den and mantissa % 2):  # round half to even
        mantissa += 1
    if mantissa >= 10 ** sig:
        mantissa //= 10
        exponent += 1
    digits = str(mantissa)
    body = f"{digits[0]}.{digits[1:]}" if sig > 1 else digits
    return f"{body}e{exponent}" if exponent < 0 else f"{body}e+{exponent}"


_LOG2_10 = math.log2(10)
_RENDER_PRODUCTS = 6


def _digits_cost(x: Fraction, digits: int) -> float:
    """Bit operations of rendering ``digits`` digits of x, the quotient of x 10^digits by its denominator.

    The quotient has b = digits log2(10) + max(0, bits of numerator - bits
    of denominator) + 1 bits.  It costs about _RENDER_PRODUCTS products of
    b bits: the two powers of ten, the scaling and the subquadratic decimal
    conversion; the long division costs b times the denominator's 64-bit
    words.  Measured on one core, 10^6 digits of a 7-bit ratio take
    1.0-1.4 s and 3 * 10^6 take 4.6-6.8 s; the budget admits up to about
    4.8 * 10^6, which take 8.4 s.
    """
    num_bits, den_bits = x.numerator.bit_length(), x.denominator.bit_length()
    bits = digits * _LOG2_10 + max(0, num_bits - den_bits) + 1
    return _product_cost(bits, _RENDER_PRODUCTS) + bits * (den_bits / 64 + 1)


def render_ratio(x, digits: int = 6, hybrid_below: Fraction | None = None) -> str:
    """Render an exact nonnegative rational (or float) at fixed precision.

    ``hybrid_below`` controls when a value just under 1 is shown as
    ``1-<complement>``; the default is half an ulp of the fixed-point grid,
    i.e. exactly when fixed-point rounding would print 1.  Digits past the
    rendering budget raise BudgetExceededError before any is computed.
    """
    if digits < 0:
        raise ParameterError(f"precision must be nonnegative, got {digits}")
    x = Fraction(x)
    if x < 0:
        raise ValueError("rendering expects a nonnegative value")
    _charge(lambda: f"rendering {digits} digits", _digits_cost, x, digits)
    if hybrid_below is None:
        hybrid_below = Fraction(1, 2 * 10 ** digits)
    if x == 0:
        return "0." + "0" * digits
    if x == 1:
        return "1." + "0" * digits
    if x < SCI_BELOW:
        return render_scientific(x, SCI_DIGITS)
    complement = 1 - x
    if 0 < complement < hybrid_below:
        return "1-" + render_scientific(complement, 2)
    scaled = round(x * 10 ** digits)
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{render_integer(whole)}.{render_integer(frac).zfill(digits)}"
