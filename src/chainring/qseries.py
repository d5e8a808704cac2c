"""Gaussian binomials, q-Pochhammer symbols and q-multinomials.

Finite quantities are exact: integer bases give ``int`` results, rational
bases give ``Fraction``.  Infinite products are evaluated as truncated
products with a certified tail bound and returned as :class:`ApproxReal`.

Conventions: ``gaussian_binomial(n, k, b)`` is 0 for k < 0 or k > n and 1 for
k in {0, n}; the empty Pochhammer product is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .approx import ApproxReal, TruncationPolicy, default_policy
from .errors import NonconvergentError, ParameterError

_EPS = 2.0 ** -52


@lru_cache(maxsize=4096)
def gaussian_binomial(n: int, k: int, base):
    """q-analog of binomial(n, k): prod_{i<k} (b^n - b^i)/(b^k - b^i).

    At a prime power base this counts the k-dimensional subspaces of an
    n-dimensional space over the field with ``base`` elements.
    """
    if n < 0:
        raise ParameterError("n must be nonnegative")
    if isinstance(base, Fraction) and base.denominator == 1:
        base = int(base)
    if k < 0 or k > n:
        return 0 if isinstance(base, int) else Fraction(0)
    k = min(k, n - k)  # symmetry keeps the loop short
    if isinstance(base, int):
        result = 1
        for i in range(1, k + 1):
            # each partial product is itself a Gaussian binomial, so the
            # division is exact at every step
            result = result * (base ** (n - k + i) - 1) // (base ** i - 1)
        return result
    base = Fraction(base)
    num = Fraction(1)
    den = Fraction(1)
    for i in range(k):
        num *= base ** n - base ** i
        den *= base ** k - base ** i
    return num / den


def pochhammer_finite(a, q, r: int) -> Fraction:
    """Finite q-Pochhammer symbol prod_{i=0}^{r-1} (1 - a q^i), exactly."""
    if r < 0:
        raise ParameterError("r must be nonnegative")
    a = Fraction(a)
    q = Fraction(q)
    result = Fraction(1)
    term = a
    for _ in range(r):
        result *= 1 - term
        term *= q
    return result


def pochhammer_infinite(a: float, q: float, policy: TruncationPolicy | None = None) -> ApproxReal:
    """Infinite product prod_{i>=0} (1 - a q^i) for |q| < 1, with certified error.

    The tail after m factors satisfies |log(tail)| <= 2|a| |q|^m / (1 - |q|)
    once |a q^m| <= 1/2, so the reported bound is |P_m| (exp(t) - 1) plus a
    rounding allowance.
    """
    policy = policy or default_policy()
    a = float(a)
    q = float(q)
    if abs(q) >= 1.0:
        raise NonconvergentError(f"infinite Pochhammer product needs |q| < 1, got q={q}")
    if a == 0.0:
        return ApproxReal(1.0, 0.0)
    if a >= 1.0:
        raise NonconvergentError("leading factor 1 - a is not positive")

    product = 1.0
    aq = a
    m = 0
    while True:
        if abs(aq) <= 0.5:
            tail = abs(product) * math.expm1(2.0 * abs(aq) / (1.0 - abs(q)))
            # on a cap hit the (larger) current bound is reported honestly
            if tail <= policy.target_tail or m >= policy.max_index:
                break
        elif m >= policy.max_index:
            tail = math.inf
            break
        product *= 1.0 - aq
        aq *= q
        m += 1
    rounding = abs(product) * (4 * m + 8) * _EPS
    return ApproxReal(product, tail + rounding)


def euler_function(qinv: float, policy: TruncationPolicy | None = None) -> ApproxReal:
    """Euler's function (x; x)_infty at x = qinv in (0, 1)."""
    if not 0.0 < qinv < 1.0:
        raise NonconvergentError("euler_function needs an argument in (0, 1)")
    return pochhammer_infinite(qinv, qinv, policy)


def q_multinomial(n: int, ell: int, s: int, base):
    """Generalized Gaussian coefficient of depth s.

    Sum over all compositions mu_1 + ... + mu_s = ell of
    base^(sum_j (n - mu_j) mu_{j+1}) * [n, mu_1] [mu_1, mu_2] ... [mu_{s-1}, mu_s]
    at the given base.  Compositions that are not weakly decreasing or exceed n
    contribute nothing (the k > n convention zeroes them), so the recursion
    only descends weakly decreasing prefixes.  s = 1 degenerates to
    ``gaussian_binomial``.
    """
    if s < 1:
        raise ParameterError("s must be >= 1")
    if ell < 0 or ell > n * s:
        raise ParameterError(f"ell must lie in [0, {n * s}], got {ell}")
    if isinstance(base, Fraction) and base.denominator == 1:
        base = int(base)
    one = 1 if isinstance(base, int) else Fraction(1)
    total = one - one

    def descend(pos: int, prev: int, remaining: int, partial):
        nonlocal total
        if pos > s:
            if remaining == 0:
                total += partial
            return
        # weak decrease bounds the part by prev, and the s - pos parts still to
        # come (each <= the part chosen now) must be able to absorb the rest
        lo = -(-remaining // (s - pos + 1))  # ceil
        hi = min(prev, remaining)
        for mu in range(lo, hi + 1):
            factor = gaussian_binomial(prev, mu, base)
            if pos > 1:
                factor *= base ** ((n - prev) * mu)
            descend(pos + 1, mu, remaining - mu, partial * factor)

    descend(1, n, ell, one)
    return total


def balanced_multinomial(n: int, m, s: int, base) -> ApproxReal:
    """Centred, quadratically rescaled q-multinomial, evaluated in log domain.

    For a base x in (0, 1) this is x^(s n^2/4 - m^2/s) times the depth-s
    multinomial with index s n/2 - m taken at the reciprocal base 1/x.  The
    multinomial factor is astronomically large and the power astronomically
    small, so the value is assembled from exact logarithms.  The free-module
    probability of given length is a ratio of a Gaussian binomial to this
    quantity, which is the role it plays here.
    """
    base = Fraction(base)
    if not 0 < base < 1:
        raise ParameterError("base must lie in (0, 1)")
    m = Fraction(m)
    index2 = Fraction(s * n, 2) - m
    if index2.denominator != 1 or not 0 <= index2 <= s * n:
        raise ParameterError(f"s*n/2 - m must be an integer in [0, {s * n}], got {index2}")
    index = int(index2)
    exponent = Fraction(s * n * n, 4) - m * m / Fraction(s)
    mult = q_multinomial(n, index, s, 1 / base)
    log_base, base_error = _log_fraction(base)
    log_mult, mult_error = _log_fraction(Fraction(mult))
    scale = float(exponent)
    head = scale * log_base
    log_value = head + log_mult
    # the two logarithms nearly cancel, so the error of their sum is set by
    # their sizes, not by the size of the result: float(exponent), the
    # product and the sum each round once more
    delta = abs(scale) * base_error + mult_error + 2 * _EPS * (abs(head) + abs(log_mult))
    value = math.exp(log_value)
    return ApproxReal(value, value * (math.expm1(delta) + 2 * _EPS) + 5e-324)


def _log_fraction(f: Fraction) -> tuple[float, float]:
    """Natural logarithm of a positive rational and a bound on its rounding error.

    log2 of an integer is within _EPS (|log2| + 1.25): the integer rounds to
    a float, or to a mantissa and an exact exponent, and log2 adds an ulp.
    The difference, ln 2 and the product round once each.
    """
    if f <= 0:
        raise ParameterError("logarithm of a nonpositive rational")
    num = math.log2(f.numerator)
    den = math.log2(f.denominator)
    value = (num - den) * math.log(2.0)
    return value, math.log(2.0) * _EPS * (abs(num) + abs(den) + 3) + 2 * _EPS * abs(value)
