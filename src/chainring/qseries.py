"""Gaussian binomials, q-Pochhammer symbols and q-multinomials.

Finite quantities are exact: integer bases give ``int`` results, rational
bases give ``Fraction``.  Infinite products are evaluated as truncated
products with a certified tail bound and returned as :class:`ApproxReal`.

Conventions: ``gaussian_binomial(n, k, b)`` is 0 for k < 0 or k > n and 1 for
k in {0, n}; the empty Pochhammer product is 1.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .approx import ApproxReal, TruncationPolicy, default_policy
from .errors import BudgetExceededError, NonconvergentError, ParameterError

_EPS = 2.0 ** -52


@lru_cache(maxsize=4096)
def gaussian_binomial(n: int, k: int, base):
    """q-analog of binomial(n, k): prod_{i<k} (b^n - b^i)/(b^k - b^i).

    At a prime power base this counts the k-dimensional subspaces of an
    n-dimensional space over the field with ``base`` elements.  At a base
    a/c in lowest terms the loop builds c^(k (n-k)) [n, k], an integer, and
    the value is one Fraction of it; an integer base (c = 1) gives an int.
    The value is charged to TOTAL_BUDGET, then built by _gaussian_binomial.
    """
    if n < 0:
        raise ParameterError("n must be nonnegative")
    if k < 0 or k > n:
        return 0 if base.as_integer_ratio()[1] == 1 else Fraction(0)
    _charge("exact count", _count_cost, base, [(n, k)], 0)
    return _gaussian_binomial(n, k, base)


def _gaussian_binomial(n: int, k: int, base):
    """[n, k] at the base for 0 <= k <= n, uncharged and uncached: gaussian_binomial's kernel."""
    a, c = base.as_integer_ratio()
    k = min(k, n - k)  # symmetry keeps the loop short
    if a in (c, -c):  # the product below would divide by b^i - 1 = 0
        return _unit_binomial(n, k, a)
    result = 1
    for i in range(1, k + 1):
        # each partial product is c^(i (n-k)) [n-k+i, i]_{a/c}, an integer, so
        # the division is exact at every step
        result = result * (a ** (n - k + i) - c ** (n - k + i)) // (a ** i - c ** i)
    # every prime of c divides each a^i - c^i to leave a^i, so result = a^(k (n-k)) mod it: coprime to c
    return result if c == 1 else _coprime_fraction(result, c ** (k * (n - k)))


class _LowestTerms:
    """A numerator and a positive denominator already known to be coprime.

    Registered as a ``numbers.Rational``, whose parts are in lowest terms by
    that ABC's contract, so ``Fraction(_LowestTerms(a, b))`` copies them and
    runs no gcd.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_LowestTerms)


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) for parts the caller has proven coprime, denominator > 0, without the gcd."""
    return Fraction(_LowestTerms(numerator, denominator))


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


# Upper limit on the a-priori cost, in bit operations, of one exact count,
# length sum, rank tail, ball profile or decimal rendering; _charge is the one
# place that compares a cost with it.  Length 400 in R^200 at q = 2, s = 4
# costs 2^31.0 and takes 32 ms; length 4500 in R^3000 at q = 2, s = 3, 2^45.8.
TOTAL_BUDGET = 1 << 37


def _unit_bits(base) -> float:
    """Bits per unit of exponent at a base a/c: log2(max(|a|, c)) numerator, log2(c) denominator."""
    a, c = base.as_integer_ratio()
    return math.log2(max(abs(a), c)) + math.log2(c)


def _charge(what, cost_of, *sizes):
    """Raise BudgetExceededError if ``what``, costing cost_of(*sizes) bit operations, is over TOTAL_BUDGET.

    ``what`` is a string, or a function that returns it, called only on a
    refusal.  A cost past the float range (an OverflowError, inf, or nan
    from an inf) reads as more than 2^1024.
    """
    try:
        cost = float(cost_of(*sizes))
    except OverflowError:
        cost = math.inf
    if cost > TOTAL_BUDGET or cost != cost:
        digits = 2  # the fewest significant digits, two or more, that tell the cost from the budget
        while digits < 17 and f"{cost:.{digits}g}" == f"{TOTAL_BUDGET:.{digits}g}":
            digits += 1
        shown = f"about {cost:.{digits}g}" if cost < math.inf else "more than 2^1024"
        what = what() if callable(what) else what
        raise BudgetExceededError(f"{what} needs {shown} bit operations, over the budget of {TOTAL_BUDGET:.{digits}g}")


def _product_cost(bits, products: int = 1) -> float:
    """Bit operations of ``products`` products of ``bits`` bits each, b (b/64 + 1)^0.585 (Karatsuba)."""
    return products * bits * (bits / 64 + 1) ** 0.585


def _step_cost(bits, factor, divisor=0) -> float:
    """Bit operations of a ``bits``-bit value times a ``factor``-bit one (Karatsuba on the larger), then divided by ``divisor`` bits (schoolbook)."""
    return max(bits, factor) * (min(bits, factor) / 64 + 1) ** 0.585 + (bits * (divisor / 64 + 1) if divisor else 0)


def _count_cost(base, binomials, exponent: int, factors: int = 0) -> float:
    """Bit operations of base^exponent times the Gaussian binomials [m, k] in ``binomials``, a priori.

    ``factors`` more factors join the product; the exponent counts their bits.
    [m, k] takes min(k, m - k) steps, each multiplying and dividing a product
    below 4 base^(k (m - k)) by factors of at most m log2(base) bits, so a
    step costs the product's bits times the factor's 64-bit words.  Measured
    on one core, [2000, 1000]_2 estimates 2^35.9 and takes 1.3-2.6 s, and
    3^e of 10^7 bits estimates 2^33.4 and takes 1 s.
    """
    unit = _unit_bits(base)
    bits = exponent * unit
    factors += 1 if exponent else 0
    cost = 0.0
    for m, k in binomials:
        k = min(k, m - k)
        if k > 0:
            size = k * (m - k) * unit + 2
            cost += 2 * k * size * (m * unit // 64 + 1)
            bits += size
            factors += 1
    return cost + _product_cost(bits, factors - 1 + (exponent > 0))


def _exact_product(q: int, binomials, exponent: int, spans=()):
    """q^exponent * prod [m, k]_q * prod over (lo, hi) in spans of prod_{lo<i<=hi} (q^i - 1), at the ring's q.

    Every closed-form count is one call, charged to TOTAL_BUDGET before any
    big-integer work.  A span is charged as sum(i) more exponent, the bits
    of its factors, and hi - lo more factors joining the product; its
    factors are built by _power_differences and joined by _tree_product.
    """
    span_exponent = sum((hi * (hi + 1) - lo * (lo + 1)) // 2 for lo, hi in spans)
    _charge("exact count", _count_cost, q, binomials, exponent + span_exponent, sum(hi - lo for lo, hi in spans))
    result = q**exponent
    for m, k in binomials:
        result *= gaussian_binomial(m, k, q)
    for lo, hi in spans:
        result *= _tree_product(_power_differences(q, 1, lo + 1, hi + 1))
    return result


# Twice CPython's Karatsuba cutoff of 70 30-bit digits: integers of fewer
# bits in all multiply schoolbook in any order, at the same cost.
_SCHOOLBOOK_BITS = 2 * 70 * 30


def _tree_product(factors: list[int]) -> int:
    """Product of ``factors``, joined pairwise level by level in a balanced tree.

    Each product then has two operands of about equal size, where Karatsuba
    pays; one factor at a time would multiply a growing product by one small
    factor after another.  Three factors, or integers of fewer than
    _SCHOOLBOOK_BITS bits between them, gain nothing from the tree and are
    joined in order.
    """
    if len(factors) <= 3 or sum(map(int.bit_length, factors)) < _SCHOOLBOOK_BITS:
        return math.prod(factors)
    while len(factors) > 3:
        pairs = [x * y for x, y in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[-1:] if len(factors) % 2 else pairs
    return math.prod(factors)


def q_multinomial(n: int, ell: int, s: int, base):
    """Generalized Gaussian coefficient of depth s, N_s(n, ell).

    Sum over all compositions mu_1 + ... + mu_s = ell of
    base^(sum_j (n - mu_j) mu_{j+1}) * [n, mu_1] [mu_1, mu_2] ... [mu_{s-1}, mu_s]
    at the given base.  Compositions that are not weakly decreasing or exceed n
    contribute nothing (the k > n convention zeroes them), so this is the
    chain sum over n >= mu_1 >= ... >= mu_s with sum mu_i = ell; at a prime
    power base q it counts the length-ell submodules of R^n.  s = 1 is one
    ``gaussian_binomial``, s = 2 one diagonal (_diagonal_sum), and every
    deeper sum the Bailey-chain alternating sum (_bailey_sum), each charging
    its own work to TOTAL_BUDGET before it starts.  An integer base gives an
    int, any other rational base a Fraction.
    """
    if s < 1:
        raise ParameterError("s must be >= 1")
    if ell < 0 or ell > n * s:
        raise ParameterError(f"ell must lie in [0, {n * s}], got {ell}")
    if s == 1:
        return gaussian_binomial(n, ell, base)
    return _diagonal_sum(n, ell, base) if s == 2 else _bailey_sum(n, ell, s, base)


def _diagonal_sum(n: int, ell: int, base):
    """The depth-two length sum: T(mu) base^((n - mu) j) summed over mu, j = ell - mu.

    T(mu) = [n, mu] [mu, j] is a q-trinomial, read at the first mu and then
    stepped by the ratio
    T(mu) / T(mu - 1) = (b^(j+1) - 1)(b^(n-mu+1) - 1) / ((b^(mu-j-1) - 1)(b^(mu-j) - 1)),
    and the exponent of the power falls by n + ell + 1 - 2 mu from mu - 1 to
    mu, so the powers fold in by Horner.  At b = a/c in lowest terms the sum
    runs on homogenised integers (see _binomial_row), the ratio with each
    b^i - 1 read as a^i - c^i: T(mu) base^((n - mu) j) has the denominator
    c^(mu (n - mu) + j (n - j)), each term is padded to c^(2 P), P the
    largest mu (n - mu) over the parts, and the sum is one Fraction.  A base
    1 or -1, where the ratio would divide by zero, reads each T(mu).
    """
    _charge(lambda: f"exact total at n={n}, s=2", _diagonal_cost, n, ell, base)
    a, c = base.as_integer_ratio()
    lo, hi = -(-ell // 2), min(n, ell)
    top = (peak := min(hi, n // 2)) * (n - peak)
    lookup = a in (c, -c)

    def binomial(m: int, k: int) -> int:  # [m, k]_h
        value = gaussian_binomial(m, k, base)
        return value if c == 1 else value.numerator * (c ** (k * (m - k)) // value.denominator)

    total = term = 0
    for mu in range(lo, hi + 1):
        j = ell - mu
        if lookup:
            term = _unit_binomial(n, mu, a) * _unit_binomial(mu, j, a)
        elif mu == lo:
            term = binomial(n, mu) * binomial(mu, j)
        else:
            term *= (a ** (j + 1) - c ** (j + 1)) * (a ** (n - mu + 1) - c ** (n - mu + 1))
            term //= (a ** (mu - j - 1) - c ** (mu - j - 1)) * (a ** (mu - j) - c ** (mu - j))
        padded = term if c == 1 else term * c ** (2 * top - mu * (n - mu) - j * (n - j))
        total = total * a ** (n + ell + 1 - 2 * mu) + padded
    return total if c == 1 else Fraction(total, c ** (2 * top))


def _diagonal_cost(n: int, ell: int, base) -> float:
    """Bit operations of _diagonal_sum's hi - lo + 1 steps, a priori, charged twice; its first binomials charge themselves.

    A step on values below 4 b^(2 P) builds factors of at most n + 2 units of
    _unit_bits(base) bits, multiplies by two and the Horner power, divides by
    two of at most 2 (2 hi - ell) units and pads by c^e, e <= 2 P.  At twice
    these prices the costliest sums admitted take about 4 s on one core.
    """
    unit = _unit_bits(base)
    lo, hi = -(-ell // 2), min(n, ell)
    top = (peak := min(hi, n // 2)) * (n - peak)
    bits, factor = 2 * top * unit + 2, (n + 2) * unit
    step = _product_cost(factor, 2) + _step_cost(bits, factor, 2 * (2 * hi - ell) * unit) + _step_cost(bits, factor)
    return 2 * (hi - lo + 1) * (step + _step_cost(bits, 2 * top * math.log2(base.as_integer_ratio()[1])))


def _bailey_sum(n: int, ell: int, s: int, base):
    """The length sum N_s(n, ell) as the Bailey-chain alternating sum.

    N_s(n, ell) = sum_{r=0}^{R} (-1)^r b^(r (n s - ell) + r (r + 1) / 2) [n, r]
    ([n + L_r, n] - b^(n - r) [n + L_r - 1, n]), with L_r = ell - (s + 1) r,
    R = min(n, floor(ell / (s + 1))) and [n - 1, n] = 0 (Andrews, "Multiple
    series Rogers-Ramanujan type identities", Pacific J. Math. 114, 1984).
    With p = 1/b and A = b^n t, each chain position multiplies by
    [m, k]_b b^((n - m) k) t^k = [m, k]_p p^(k^2) A^k, one step of Bailey's
    lemma with rho_1, rho_2 -> infinity.  The empty tail past position s is
    the unit Bailey pair, and s + 1 steps, with the q-binomial expansion of
    1 / (A p^r; p)_(n+1), give the coefficient of t^ell.  The sum is
    symmetric under ell -> n s - ell (length duality), so ell is first
    reduced to the smaller side, which makes R < n / 2.

    [n + L, n] is [n + L - 1, n] (b^(n+L) - 1) / (b^L - 1), so the bracket
    is [n + L - 1, n] (b^(n+L) - 1 - b^(n-r) (b^L - 1)) / (b^L - 1), one exact
    division by a small factor (and 1 at L = 0); no division is by a factor
    as large as b^n.  The terms run from r = R down, the powers of b folded
    in by Horner: the exponent grows by n s - ell + r + 1 from r to r + 1.
    [n, 0..R] are walked once by _binomial_row, and so is [n + L - 1, n] at
    the first L > 0; from r to r - 1 it takes one grouped step of s + 1
    factors, each side's factors built by _power_differences and joined by
    _tree_product, then one multiplication and one exact division of the
    large value, or, when n <= s, a fresh walk of n ratio steps, which costs
    less.  At b = a/c in lowest terms every step runs on homogenised
    integers [m, k]_h = c^(k (m-k)) [m, k], each b^i - 1 read as a^i - c^i:
    term r has the denominator c^(n ell - r ell - r (r - 1) / 2), so a
    Horner step brings c^(ell + r), and the sum is one
    Fraction(total, c^(n ell)).  At a base 1 or -1, where the ratio steps
    would divide by zero, each binomial is read directly.
    """
    _charge(lambda: f"exact total at n={n}, s={s}", _bailey_cost, n, ell, s, base)
    a, c = base.as_integer_ratio()
    ell = min(ell, n * s - ell)
    top = ell // (s + 1)
    lookup = a in (c, -c)
    if lookup:  # a ratio step would divide by b^i - 1 = 0
        heads = [_unit_binomial(n, r, a) for r in range(top + 1)]
    else:
        heads = list(islice(_binomial_row(n, a, c), top + 1))  # [n, r]_h
    total = 0
    below = None  # [n + L - 1, n]_h
    for r in range(top, -1, -1):
        size = ell - (s + 1) * r  # L_r
        m = n + size
        if size == 0:  # [n, n] = 1 and [n - 1, n] = 0, at r = R only
            term = heads[r]
        elif lookup:
            term = heads[r] * (_unit_binomial(m, n, a) - a ** (n - r) * _unit_binomial(m - 1, n, a))
        else:
            if below is None or n <= s:  # then n ratio steps cost less than a step of s + 1 factors
                below = next(islice(_binomial_row(m - 1, a, c), min(size - 1, n), None))
            else:
                below *= _tree_product(_power_differences(a, c, m - s - 1, m))
                below //= _tree_product(_power_differences(a, c, size - s - 1, size))
            term = heads[r] * (a**m - c**m - a ** (n - r) * c**r * (a**size - c**size)) * below
            term //= a**size - c**size
        total = term - a ** (n * s - ell + r + 1) * c ** (ell + r) * total if total else term
    return total if c == 1 else Fraction(total, c ** (n * ell))


def _bailey_cost(n: int, ell: int, s: int, base) -> float:
    """Bit operations of _bailey_sum's steps, a priori, charged four times.

    In units of _unit_bits(base) bits, ell on the smaller side: heads
    [n, 0..R] of at most R (n - R), factors b^i - 1 of n + ell, Horner powers
    of n s + R, and every other value below n ell plus a head and a factor;
    the walks at n <= s are priced as grouped steps of min(n, s + 1) factors.
    CPython runs these lopsided products slower than their Karatsuba price:
    at four times it the costliest sums admitted take about 5 s on one core.
    """
    unit, ell = _unit_bits(base), min(ell, n * s - ell)
    top, group = ell // (s + 1), min(n, s + 1)
    first = ell - (s + 1) * top or s + 1  # the first L > 0
    factor, head, power = (n + ell) * unit + 1, top * (n - top) * unit + 1, (n * s + top) * unit
    value = n * ell * unit + head + factor
    heads = top * _step_cost(head, factor, top * unit)
    fresh = min(first, n) * _step_cost(n * first * unit, factor, first * unit)
    grouped = top * (_product_cost(factor, group * (group + 1) // 2) + _step_cost(value, group * factor, group * ell * unit))
    terms = (top + 1) * (_product_cost(factor) + _step_cost(head, factor) + _step_cost(value, head + factor, ell * unit))
    return 4 * (heads + fresh + grouped + terms + top * (_product_cost(power) + _step_cost(value, power)))


def _power_differences(a: int, c: int, lo: int, hi: int) -> list[int]:
    """The factors a^i - c^i for lo <= i < hi, each power one small multiplication from the last."""
    x, y = a**lo, c**lo
    factors = []
    for _ in range(lo, hi):
        factors.append(x - y)
        x *= a
        y *= c
    return factors


def _unit_binomial(m: int, k: int, unit: int) -> int:
    """[m, k] at the base unit = 1 or -1, where the product formula would divide by b^i - 1 = 0.

    At 1 it is binomial(m, k); at -1 it is 0 for m even and k odd, else
    binomial(m // 2, k // 2).
    """
    if unit == 1:
        return math.comb(m, k)
    return 0 if m % 2 == 0 and k % 2 else math.comb(m // 2, k // 2)


def _q_pascal(rows: int, q: int) -> list[list[int]]:
    """Gaussian binomials [m, k]_q for 0 <= k <= m <= rows, at an integer q.

    The q-Pascal rule [m, k] = [m-1, k-1] + q^k [m-1, k] needs no division.
    It builds each row's first half, and [m, k] = [m, m-k] gives the rest.
    """
    table = [[1]]
    for m in range(1, rows + 1):
        above = table[-1]
        row = [1]
        power = 1
        for k in range(1, m // 2 + 1):
            power *= q
            row.append(above[k - 1] + power * above[k])
        table.append(row + row[m - m // 2 - 1 :: -1])
    return table


def _rank_cost(n: int, rank: int, s: int, q: int) -> float:
    """Bit operations of _rank_tail's steps, a priori, charged four times.

    In units of _unit_bits(q) bits: a sum kept over j positions is below
    j (P units + log2(rank + 1) bits), P = m (n - m), m = min(rank, n // 2).
    Positions 3..s take a triangle of Horner steps each, at their mean size,
    and position 2 rank + 1.  A step multiplies by x = q^(n - prev) of at
    most n units, adds a term and, above the deepest position, multiplies
    the sum below by a row entry of rank^2 / 12 units on average; the
    interpreter adds 4096 a step.  The rows cost rank ratio steps at s = 2,
    half a q-Pascal triangle above it.  Lopsided products by x run slowest:
    at four times these prices the costliest tails admitted take about 5 s
    on one core.
    """
    if s < 2:
        return 0.0
    unit = _unit_bits(q)
    top = (peak := min(rank, n // 2)) * (n - peak)
    value, triangle = top * unit + math.log2(rank + 1), (rank + 1) * (rank + 2) // 2
    power, entry = n * unit, rank * rank / 12 * unit

    def steps(count, positions, deepest: bool) -> float:
        bits = positions * value
        return count * (_step_cost(bits, power) + bits + (0 if deepest else _step_cost(bits, entry)) + 4096)

    if s == 2:  # row rank by ratio steps, then position 2 alone
        return 4 * (rank * _step_cost(entry, rank * unit, rank * unit) + steps(rank + 1, 1, True))
    # the deepest position, the s - 3 between it and position 2, then position 2, after half a q-Pascal triangle
    walk = steps(triangle, 1, True) + steps((s - 3) * triangle, s / 2, False) + steps(rank + 1, s - 1, False)
    return 4 * (triangle / 2 * _step_cost(entry, rank * unit) + walk)


def _rank_tail(n: int, q: int, s: int, rank: int) -> int:
    """The rank tail T below mu_1 = rank at the ring's q: [n, rank]_q T is the rank sum.

    A chain n = mu_0 >= mu_1 >= ... >= mu_s >= 0 is weighted by
    prod_i [mu_{i-1}, mu_i]_q q^((n - mu_{i-1}) mu_i), the number of
    submodules of that shape; T sums the factors from i = 2 on over the
    chains with mu_1 = rank.  For rank < n every chain but the all-zero one
    carries q^((n - rank) mu_2), so T = 1 mod q.  The walk charges its own
    steps (_rank_cost) before it starts.

    The walk is one loop over the positions, from s up to 2, and keeps only
    the position below: for each part prev before a position one sum, by
    Horner in x = q^(n - prev) over the parts mu <= prev, each times the sum
    below mu.  At s >= 3 every position reads every row up to rank, so
    those rows are built once as a q-Pascal table; at s = 2 the walk reads
    row ``rank`` alone, walked by _binomial_row, and at s = 1 T is 1.
    """
    _charge(lambda: f"exact total at n={n}, s={s}", _rank_cost, n, rank, s, q)
    pascal = _q_pascal(rank, q) if s >= 3 else None
    below = None  # the sums the position below keeps, one per part 0..rank
    for pos in range(s, 1, -1):
        sums = []
        for prev in (rank,) if pos == 2 else range(rank + 1):
            row = pascal[prev] if pascal else _binomial_row(prev, q, 1)
            x = q ** (n - prev)
            total = 0
            for mu, term in zip(range(prev, -1, -1), row):  # Horner in x; a row reads the same from either end
                if below is not None:  # past the last part the suffix is 1
                    term *= below[mu]
                total = total * x + term
            sums.append(total)
        below = sums
    return below[0] if below else 1


def _binomial_row(m: int, a: int, c: int):
    """Yield [m, k]_h = c^(k (m-k)) [m, k] at the base a/c for k = 0, 1, ..., m.

    The length sums run on these homogenised integers: at b = a/c in lowest
    terms [m, k] has the denominator c^(k (m-k)), each b^i - 1 reads as
    a^i - c^i, and a sum pads its terms to one power of c and is one Fraction.
    [m, k+1] = [m, k] (b^(m-k) - 1) / (b^(k+1) - 1), and the power of c the
    ratio brings is the one between the homogenising factors, so
    [m, k+1]_h = [m, k]_h (a^(m-k) - c^(m-k)) / (a^(k+1) - c^(k+1)), an exact
    integer division.
    """
    value = 1
    yield value
    for k in range(m):
        value = value * (a ** (m - k) - c ** (m - k)) // (a ** (k + 1) - c ** (k + 1))
        yield value


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
