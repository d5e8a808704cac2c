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
from .errors import BudgetExceededError, NonconvergentError, ParameterError

_EPS = 2.0 ** -52


@lru_cache(maxsize=4096)
def gaussian_binomial(n: int, k: int, base):
    """q-analog of binomial(n, k): prod_{i<k} (b^n - b^i)/(b^k - b^i).

    At a prime power base this counts the k-dimensional subspaces of an
    n-dimensional space over the field with ``base`` elements.  At a base
    a/c in lowest terms the loop builds c^(k (n-k)) [n, k], an integer, and
    the value is one Fraction of it; an integer base (c = 1) gives an int.
    """
    if n < 0:
        raise ParameterError("n must be nonnegative")
    a, c = base.as_integer_ratio()
    if k < 0 or k > n:
        return 0 if c == 1 else Fraction(0)
    k = min(k, n - k)  # symmetry keeps the loop short
    _charge("exact count", _count_cost, base, [(n, k)], 0)
    if base == 1:  # the product below would divide by b^i - 1 = 0
        return math.comb(n, k)
    if base == -1:
        return 0 if n % 2 == 0 and k % 2 else math.comb(n // 2, k // 2)
    result = 1
    for i in range(1, k + 1):
        # each partial product is c^(i (n-k)) [n-k+i, i]_{a/c}, an integer, so
        # the division is exact at every step
        result = result * (a ** (n - k + i) - c ** (n - k + i)) // (a ** i - c ** i)
    return result if c == 1 else Fraction(result, c ** (k * (n - k)))


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
# chain sum, ball profile or decimal rendering; _charge is the one place that
# compares a cost with it.  The totals in the tests, the published tables
# and the benchmark stay below 2^34, length 400 in R^200 at q = 2, s = 4 costs
# about 2^36.7 and takes seconds, and length 4500 in R^3000 at q = 2, s = 3,
# whose q-Pascal table alone would not fit in memory, costs 2^46.4.
TOTAL_BUDGET = 1 << 37


def _unit_bits(base) -> float:
    """Bits per unit of exponent at a base a/c: log2(max(|a|, c)) numerator, log2(c) denominator."""
    a, c = base.as_integer_ratio()
    return math.log2(max(abs(a), c)) + math.log2(c)


def _charge(what: str, cost_of, *sizes):
    """Raise BudgetExceededError if ``what``, costing cost_of(*sizes) bit operations, is over TOTAL_BUDGET.

    A cost past the float range (an OverflowError, inf, or nan from an inf) reads as more than 2^1024.
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
        raise BudgetExceededError(f"{what} needs {shown} bit operations, over the budget of {TOTAL_BUDGET:.{digits}g}")


def _product_cost(bits, products: int = 1) -> float:
    """Bit operations of ``products`` products of ``bits`` bits each, b (b/64 + 1)^0.585 (Karatsuba)."""
    return products * bits * (bits / 64 + 1) ** 0.585


def _count_cost(base, binomials, exponent: int, factors: int = 0) -> float:
    """Bit operations of base^exponent times the Gaussian binomials [m, k] in ``binomials``, a priori.

    ``factors`` more factors join the product; the exponent counts their bits.
    [m, k] takes min(k, m - k) steps, each multiplying and dividing a product
    below 4 base^(k (m - k)) by factors of at most m log2(base) bits, so a
    step costs the product's bits times the factor's 64-bit words.  Measured
    on one core, [2000, 1000]_2 estimates 2^35.9 and takes 1.3-2.6 s, and
    3^e of 10^7 bits estimates 2^33.4 and takes 1 s.
    """
    bits = exponent * (unit := _unit_bits(base))
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


def _exact_product(base, binomials, exponent: int, spans=()):
    """base^exponent * prod [m, k]_base * prod over (lo, hi) in spans of prod_{lo<i<=hi} (base^i - 1).

    Every closed-form count is one call, charged to TOTAL_BUDGET before any
    big-integer work.  A span is charged as sum(i) more exponent, the bits
    of its factors, and hi - lo more factors joining the product; its
    factors are joined by _tree_product.
    """
    span_exponent = sum((hi * (hi + 1) - lo * (lo + 1)) // 2 for lo, hi in spans)
    _charge("exact count", _count_cost, base, binomials, exponent + span_exponent, sum(hi - lo for lo, hi in spans))
    result = base ** exponent
    for m, k in binomials:
        result *= gaussian_binomial(m, k, base)
    for lo, hi in spans:
        power = base ** lo
        factors = []
        for _ in range(lo, hi):
            power *= base
            factors.append(power - 1)
        result *= _tree_product(factors)
    return result


def _tree_product(factors: list):
    """Product of ``factors``, joined pairwise level by level in a balanced tree.

    Each product then has two operands of about equal size, where Karatsuba
    pays; one factor at a time would multiply a growing product by one small
    factor after another.
    """
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def q_multinomial(n: int, ell: int, s: int, base):
    """Generalized Gaussian coefficient of depth s.

    Sum over all compositions mu_1 + ... + mu_s = ell of
    base^(sum_j (n - mu_j) mu_{j+1}) * [n, mu_1] [mu_1, mu_2] ... [mu_{s-1}, mu_s]
    at the given base.  Compositions that are not weakly decreasing or exceed n
    contribute nothing (the k > n convention zeroes them), so this is the
    chain sum over n >= mu_1 >= ... >= mu_s with sum mu_i = ell; at a prime
    power base q it counts the length-ell submodules of R^n.  s = 1
    degenerates to ``gaussian_binomial``.  An integer base gives an int, any
    other rational base a Fraction.  Raises BudgetExceededError when the sum
    would exceed TOTAL_BUDGET.
    """
    if s < 1:
        raise ParameterError("s must be >= 1")
    if ell < 0 or ell > n * s:
        raise ParameterError(f"ell must lie in [0, {n * s}], got {ell}")
    return _chain_sum(n, base, s, range(-(-ell // s), min(n, ell) + 1), ell)


def _q_pascal(rows: int, base) -> list[list[int]]:
    """Homogenised Gaussian binomials c^(k (m-k)) [m, k] for 0 <= k <= m <= rows.

    The base is a/c in lowest terms, so every entry is an integer.  The
    q-Pascal rule [m, k] = [m-1, k-1] + b^k [m-1, k], times c^(k (m-k)),
    reads [m, k]_h = c^(m-k) [m-1, k-1]_h + a^k [m-1, k]_h and needs no
    division; at an integer base (c = 1) no power of c is multiplied in.
    It builds each row's first half, and [m, k] = [m, m-k], which the factor
    c^(k (m-k)) keeps, gives the rest.
    """
    a, c = base.as_integer_ratio()
    table = [[1]]
    for m in range(1, rows + 1):
        above = table[-1]
        row = [1]
        power = 1
        for k in range(1, m // 2 + 1):
            power *= a
            row.append((above[k - 1] if c == 1 else above[k - 1] * c ** (m - k)) + power * above[k])
        table.append(row + row[m - m // 2 - 1 :: -1])
    return table


def _total_cost(n: int, base, s: int, first: range, remaining: int | None) -> int:
    """Bit operations of a chain sum, a priori: (q-Pascal entries plus multiply-adds) times bits.

    The bits are those of the largest value the sum builds.  A state at a
    position with t parts left reads at most prev + 1 - ceil(remaining / t)
    terms, over remaining <= t prev; a state of the last position under a
    length constraint reads one.  The largest value is below
    4^s (rows+1)^s b^E at an integer base b, where E bounds
    sum_i mu_i (n - mu_i) over the chains, because [m, k]_b < 4 b^(k (m - k))
    and there are at most (rows+1)^s chains.  A unit of E costs
    _unit_bits(base) bits.  At s <= 2 the sum builds no table but is charged
    as if it did, so that no input moves between admitted and refused.
    """
    rows = first[-1]

    def peak(lo: int, hi: int) -> int:  # max of mu (n - mu) over lo <= mu <= hi
        mu = min(max(n // 2, lo), hi)
        return mu * (n - mu)

    triangle = (rows + 1) * (rows + 2) // 2
    terms = triangle + (rows - first[0] + 1) * (rows + 1)
    if remaining is None:  # positions 3..s read a triangle each
        terms += max(s - 2, 0) * triangle
    elif s >= 3:  # a triangle at t = 1 part left, then t triangle (rows + 3) / 3, exactly, at t = 2..s-2
        terms += triangle + triangle * (rows + 3) // 3 * ((s - 2) * (s - 1) // 2 - 1)
    exponent = peak(first[0], rows) + (s - 1) * peak(0, rows)
    return terms * (math.ceil(exponent * _unit_bits(base)) + s * (2 + (rows + 1).bit_length()))


def _charge_chain_sum(n: int, base, s: int, first: range, remaining: int | None):
    """Charge _chain_sum's arguments to the budget, as _chain_sum does before its walk."""
    _charge(f"exact total at n={n}, s={s}", _total_cost, n, base, s, first, remaining)
    if first[-1] < n:
        for mu in first:
            _charge("exact count", _count_cost, base, [(n, mu)], 0)


def _rank_tail(n: int, base, s: int, rank: int):
    """The rank tail T below mu_1 = rank: [n, rank] T is the rank sum.

    T sums over rank >= mu_2 >= ... >= mu_s >= 0 the weights
    prod_{i>=2} [mu_{i-1}, mu_i] base^((n - mu_{i-1}) mu_i), the chain sum of
    _chain_sum with mu_1 = rank, walked from the second position.  At an
    integer base q and rank < n every chain but the all-zero one carries
    q^((n - rank) mu_2), so T = 1 mod q.
    """
    return _chain_sum(n, base, s, range(rank, rank + 1), None)


def _chain_sum(n: int, base, s: int, first: range, remaining: int | None):
    """Charge a chain sum to the budget and walk it: a length sum or a rank tail.

    A chain n = mu_0 >= mu_1 >= ... >= mu_s >= 0 with mu_1 in ``first`` is
    weighted by prod_i [mu_{i-1}, mu_i] base^((n - mu_{i-1}) mu_i), which at
    a prime power base counts the submodules of that shape.  With
    ``remaining`` set, the sum is over the chains with mu_1 + ... + mu_s =
    remaining, walked from the first position below n (q_multinomial).  With
    ``remaining`` None, ``first`` is one rank K, and the sum is over the parts
    below K, walked from the second position: the rank tail of _rank_tail.
    Either is charged first (_charge_chain_sum) as the whole chain sum over
    ``first``: _total_cost, then each [n, mu], mu in ``first`` below
    n, smallest first, so that a long thin sum is refused on the first
    binomial over budget.  A rank tail reads no [n, K], but its charge
    bounds the gcd in free_fraction_by_rank's Fraction(q^e, T).

    The walk takes one whole position at a time, from position s up to the
    first one walked, and keeps only the position below.  For each part prev
    before a position it holds one suffix sum per remainder rem the parts
    before can leave (a contiguous range; a rank tail has one), summed by
    Horner in x = a^(n - prev) over the parts mu, each times the sum of
    (mu, rem - mu) below.  Under a length the last two parts (mu, j = rem - mu)
    are one diagonal, T(mu) = [prev, mu] [mu, j] times b^((n - prev) mu + (n - mu) j),
    whose exponent falls by prev + rem + 1 - 2 mu from mu - 1 to mu and ends
    at (n - prev) rem: the powers fold in by Horner, and the sum ends in
    x^rem.  So s = 2 is one diagonal below n.  At s >= 3 every position reads
    row segments of every row up to max(first), again and again, so those
    rows are built once as a q-Pascal table and read directly.  At s <= 2
    the walk reads one row or one diagonal, which would not repay a
    quadratic table: row K of a rank tail is walked by _binomial_row, and the
    diagonal steps from T(lo) by the ratio of q-trinomials
    T(mu) / T(mu - 1) = (b^(j+1) - 1)(b^(prev-mu+1) - 1) / ((b^(mu-j-1) - 1)(b^(mu-j) - 1))
    (a base 1 or -1, where it would divide by zero, reads each T(mu)).

    The walk runs on integers at every base.  At b = a/c in lowest terms it
    reads homogenised binomials [m, k]_h = c^(k (m-k)) [m, k], and a chain's
    i-th factor is [mu_{i-1}, mu_i]_h a^((n - mu_{i-1}) mu_i) / c^(mu_i (n - mu_i));
    the ratio keeps its form with each b^i - 1 read as a^i - c^i.  Every
    part is at most max(first), so each mu (n - mu) is at most P = m (n - m),
    m = min(max(first), floor(n / 2)), and a sum from position pos holds
    c^((s - pos + 1) P) times its value: a term is padded by c^(P - mu (n - mu)),
    a diagonal's by c^(2 P - mu (n - mu) - j (n - j)), and the sum is one
    Fraction(total, c^((s - pos + 1) P)).  At c = 1 the sum is an int.

    The walk nests one call per position, so a depth s past Python's
    recursion limit raises BudgetExceededError.
    """
    _charge_chain_sum(n, base, s, first, remaining)
    a, c = base.as_integer_ratio()
    rows = first[-1]
    # every part is at most rows, so this is P, the peak of mu (n - mu)
    top = (peak := min(rows, n // 2)) * (n - peak)
    pascal = _q_pascal(rows, base) if s >= 3 else []
    lookup = a in (c, -c)  # at a base 1 or -1 a ratio step would divide by b^i - 1 = 0
    start = 1 if remaining is not None else 2  # a length sum walks from below n, a rank tail from below K

    def binomial(m: int, k: int) -> int:  # [m, k]_h of a row the table lacks
        value = gaussian_binomial(m, k, base)
        return value if c == 1 else value.numerator * (c ** (k * (m - k)) // value.denominator)

    def level(pos: int) -> tuple[list, list]:
        # sums[i]: suffix sums below the i-th prev (prev = i past the start), from rem = starts[i] - prev on
        diagonal = remaining is not None and pos == s - 1  # the last two parts as one
        below, offsets = level(pos + 1) if pos < s and not diagonal else (None, None)
        apow = list(map(a.__pow__, range(rows + 2))) if diagonal and pascal else None
        sums, starts = [], []
        for prev in (n if pos == 1 else rows,) if pos == start else range(rows + 1):
            rlo = rhi = 0  # a rank tail's one sum, at starts[i] = 0
            if remaining is not None:  # the parts before pos sum to remaining - rem, each in [prev, n]
                rlo = max(0, remaining - prev - (pos - 2) * n)
                rhi = min(remaining - (pos - 1) * prev, (s - pos + 1) * prev)
            sums.append(values := [])
            starts.append(0 if remaining is None else prev + rlo)
            x = a ** (n - prev) if rlo <= rhi else 1
            power = x**rlo if diagonal else 1  # x^rem, the diagonal's last factor
            for rem in range(rlo, rhi + 1):
                # weak decrease bounds the part by prev, and the s - pos parts still to
                # come, each at most the part chosen now, must absorb what remains
                lo, hi = (0, prev) if remaining is None else (-(-rem // (s - pos + 1)), min(prev, rem))
                total = term = 0
                if diagonal and pascal:  # T(mu) = [prev, mu] [mu, rem - mu], read from the table
                    row = pascal[prev]
                    for mu in range(lo, hi + 1):  # Horner: a^(prev + rem + 1 - 2 mu) before T(mu)
                        term = row[mu] * pascal[mu][rem - mu]
                        if c != 1:
                            term *= c ** (2 * top - mu * (n - mu) - (rem - mu) * (n - rem + mu))
                        total = total * apow[prev + rem + 1 - 2 * mu] + term
                elif diagonal:  # s = 2: T(lo) read, then the ratio T(mu) / T(mu - 1), j = rem - mu
                    for mu in range(lo, hi + 1):
                        j = rem - mu
                        if mu == lo or lookup:
                            term = binomial(prev, mu) * binomial(mu, j)
                        else:
                            term *= (a ** (j + 1) - c ** (j + 1)) * (a ** (prev - mu + 1) - c ** (prev - mu + 1))
                            term //= (a ** (mu - j - 1) - c ** (mu - j - 1)) * (a ** (mu - j) - c ** (mu - j))
                        padded = term if c == 1 else term * c ** (2 * top - mu * (n - mu) - j * (n - j))
                        total = total * a ** (prev + rem + 1 - 2 * mu) + padded
                if diagonal:
                    values.append(total * power)
                    power *= x
                    continue
                parts = range(hi, lo - 1, -1)
                if prev < len(pascal):
                    binomials = reversed(pascal[prev][lo : hi + 1])
                elif pos > 1 and not lookup:
                    # a rank tail's one row at s = 2, walked from [prev, 0] = [prev, prev]
                    binomials = _binomial_row(prev, a, c)
                else:  # position 1, or a row whose ratio steps would divide by b^i - 1 = 0
                    binomials = (binomial(prev, mu) for mu in parts)
                for mu, term in zip(parts, binomials):  # Horner in x
                    if below is not None:  # past the last part the suffix is 1
                        term *= below[mu][rem - offsets[mu]]
                    total = total * x + (term if c == 1 else term * c ** (top - mu * (n - mu)))
                values.append(total * x**lo if total and lo else total)
        return sums, starts

    try:
        total = level(start)[0][0][0] if start <= s else 1
    except RecursionError:  # level nests one call per position
        raise BudgetExceededError(
            f"exact total at n={n}, s={s} nests {s} positions, deeper than Python's recursion limit"
        ) from None
    finally:
        del level  # level's cell refers to level: without this the table would live until a collection
    return total if c == 1 else Fraction(total, c ** ((s - start + 1) * top))


def _binomial_row(m: int, a: int, c: int):
    """Yield [m, k]_h = c^(k (m-k)) [m, k] at the base a/c for k = 0, 1, ..., m.

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
