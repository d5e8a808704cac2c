"""Brute-force oracles shared by the unit and acceptance tests.

Everything here is deliberately naive: direct enumeration, no shortcuts, kept
independent of the library code paths it is used to check.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np


def f2_subspace_count(n: int, k: int) -> int:
    """Count k-dimensional subspaces of F_2^n by enumerating all spans."""
    vectors = list(itertools.product((0, 1), repeat=n))

    def span(generators):
        space = {(0,) * n}
        for g in generators:
            for v in list(space):
                space.add(tuple((a + b) % 2 for a, b in zip(v, g)))
        # closure under repeated addition
        changed = True
        while changed:
            changed = False
            for a in list(space):
                for b in list(space):
                    c = tuple((x + y) % 2 for x, y in zip(a, b))
                    if c not in space:
                        space.add(c)
                        changed = True
        return frozenset(space)

    seen = set()
    for gens in itertools.combinations(vectors, k):
        sp = span(gens)
        if len(sp) == 2 ** k:
            seen.add(sp)
    return len(seen)


def all_tuples(mod: int, n: int):
    return itertools.product(range(mod), repeat=n)


def brute_ball_counts(n: int, symbol_weights) -> dict[Fraction, int]:
    """Exact weight distribution of (Z/mod)^n by full enumeration."""
    mod = len(symbol_weights)
    distribution: dict[Fraction, int] = {}
    for vec in all_tuples(mod, n):
        w = sum((symbol_weights[x] for x in vec), Fraction(0))
        distribution[w] = distribution.get(w, 0) + 1
    return distribution


def brute_ball_volume(n: int, radius, symbol_weights, closed: bool) -> int:
    radius = Fraction(radius)
    dist = brute_ball_counts(n, symbol_weights)
    if closed:
        return sum(c for w, c in dist.items() if w <= radius)
    return sum(c for w, c in dist.items() if w < radius)


def naive_ball_profile(n: int, int_weights) -> tuple[int, ...]:
    """Cumulative ball sizes of (Z/mod)^n on the integer weight grid, by n-fold convolution.

    ``int_weights[x]`` is the scaled weight of symbol x; entry w of the result
    counts the tuples of scaled weight <= w.
    """
    max_int = max(int_weights)
    histogram = [0] * (max_int + 1)
    for w in int_weights:
        histogram[w] += 1
    counts = [1]
    for _ in range(n):
        new = [0] * (len(counts) + max_int)
        for pos, c in enumerate(counts):
            for w, h in enumerate(histogram):
                new[pos + w] += c * h
        counts = new
    return tuple(itertools.accumulate(counts))


def naive_min_distance(rows, mod: int, symbol_weights):
    """Least weight of a nonzero vector in the row span of ``rows`` over Z/mod.

    The span is grown as a set of tuples, adding every multiple of one row at
    a time; the zero span gives math.inf.  Weights are summed as integers
    over their common denominator.
    """
    span = {(0,) * len(rows[0])}
    for row in rows:
        span = {
            tuple((v + a * r) % mod for v, r in zip(word, row))
            for word, a in itertools.product(span, range(mod))
        }
    den = math.lcm(*{w.denominator for w in symbol_weights})
    scaled = [w.numerator * (den // w.denominator) for w in symbol_weights]
    best = min((sum(scaled[c] for c in word) for word in span if any(word)), default=None)
    return math.inf if best is None else Fraction(best, den)


def naive_q_multinomial(n: int, ell: int, s: int, base):
    """Literal unconstrained composition sum of the depth-s coefficient."""
    from chainring.qseries import gaussian_binomial

    total = 0
    for mu in itertools.product(range(ell + 1), repeat=s):
        # a part above n has a zero binomial at or before it, and would make
        # the next exponent negative (a float at an integer base)
        if sum(mu) != ell or max(mu) > n:
            continue
        term = gaussian_binomial(n, mu[0], base)
        for j in range(s - 1):
            term *= base ** ((n - mu[j]) * mu[j + 1])
            term *= gaussian_binomial(mu[j], mu[j + 1], base)
        total += term
    return total


def naive_chain_sum(n: int, base, s: int, first, remaining: int | None):
    """Chain-by-chain reference for the chain sums of ``qseries``.

    With ``remaining`` set it is a length sum (``q_multinomial``); with
    ``remaining`` None and ``first`` one rank K it is the rank sum
    [n, K] T, T the rank tail of ``qseries._rank_tail``.

    Every weakly decreasing chain n >= mu_1 >= ... >= mu_s >= 0 with mu_1 in
    ``first`` (and mu_1 + ... + mu_s = remaining when that is set) adds
    prod_i [mu_{i-1}, mu_i] base^((n - mu_{i-1}) mu_i), mu_0 = n.
    """
    from chainring.qseries import gaussian_binomial

    total = 0
    for mu1 in first:
        # a descending pool makes every combination a weakly decreasing tail
        for tail in itertools.combinations_with_replacement(range(mu1, -1, -1), s - 1):
            chain = (n, mu1) + tail
            if remaining is not None and sum(chain) - n != remaining:
                continue
            term = 1
            for prev, mu in zip(chain, chain[1:]):
                term *= gaussian_binomial(prev, mu, base) * base ** ((n - prev) * mu)
            total += term
    return total


def sublattice_count(n: int, ell: int, base):
    """The coefficient of x^ell in prod_{i<n} 1 / (1 - base^i x), summed factor by factor.

    At a prime power base q this counts the submodules of index q^ell in
    O^n, O a complete discrete valuation ring with residue field of q
    elements (the lattice zeta function of O^n).  Each of them contains
    t^ell O^n, so for s >= ell it is also the number of length-ell
    submodules of R^n, R = O / t^s, with no reference to chains.
    """
    coefficients = [1] + [0] * ell
    for i in range(n):
        power = base**i
        for k in range(1, ell + 1):
            coefficients[k] += power * coefficients[k - 1]
    return coefficients[ell]


def cartan_matrix_form(kvec, s: int) -> Fraction:
    """v C^{-1} v^T summed entry by entry, C^{-1}_{ij} = min(i, j) - ij/s."""
    return sum(
        (
            kvec[i - 1] * kvec[j - 1] * (Fraction(min(i, j)) - Fraction(i * j, s))
            for i in range(1, s)
            for j in range(1, s)
        ),
        Fraction(0),
    )


def span_type(span, p: int, s: int) -> tuple[int, ...]:
    """Type of a submodule of (Z/p^s)^n given as its set of elements.

    |p^j S| = p^(sum over summands of max(0, length - j)), so consecutive
    sizes count the summands longer than j.
    """
    mod = p ** s

    def log_size(j):
        size, exponent = len({tuple(p ** j * x % mod for x in v) for v in span}), 0
        while size > 1:
            size //= p
            exponent += 1
        return exponent

    logs = [log_size(j) for j in range(s + 1)]
    longer = [logs[j] - logs[j + 1] for j in range(s)] + [0]  # summands of length > j
    return tuple(longer[s - i] - longer[s - i + 1] for i in range(1, s + 1))


def naive_submodule_census(p: int, s: int, n: int) -> dict[tuple[int, ...], int]:
    """Submodules of (Z/p^s)^n per type, from the span of every n x n matrix.

    Spans are frozensets built by adding every multiple of each row in turn;
    the span of a matrix's first n - 1 rows is memoised, nothing else.
    """
    mod = p ** s
    vectors = list(itertools.product(range(mod), repeat=n))

    def extend(span, row):
        return frozenset(
            tuple((x + a * y) % mod for x, y in zip(v, row)) for v in span for a in range(mod)
        )

    @functools.lru_cache(maxsize=None)
    def prefix_span(rows):
        return extend(prefix_span(rows[:-1]), rows[-1]) if rows else frozenset({(0,) * n})

    spans = {
        extend(prefix_span(rows[:-1]), rows[-1]) if rows else prefix_span(())
        for rows in itertools.product(vectors, repeat=n)
    }
    counts: dict[tuple[int, ...], int] = {}
    for span in spans:
        t = span_type(span, p, s)
        counts[t] = counts.get(t, 0) + 1
    return counts


def chain_dp_limit_density(q: int, s: int) -> tuple[float, float]:
    """Limit free density 1/S at x = 1/q and an error bound, from a chain DP.

    S sums x^E / ((x)_{N_{s-1}} (x)_{N_{s-2} - N_{s-1}} ... (x)_{N_1 - N_2}) over
    0 <= N_{s-1} <= ... <= N_1 with s | N_1 + ... + N_{s-1}, where E is the sum
    of squared deviations of the s values {0, N_{s-1}, ..., N_1}.  The DP places
    the values in increasing order and keeps one weight per (last value,
    running sum) state.  Placing an (m+1)-th value N multiplies by Welford's
    factor x^((m N - sum)^2 / (m (m+1))), which is at most 1, so no weight
    underflows before its term is negligible.  No index vector is enumerated.

    Truncation keeps N_1 <= cap.  Each dropped term has E >= N_1^2 / 2, the
    squared deviations of {0, N_1} alone, and there are at most
    (N_1 + 1)^(s-2) vectors per value of N_1.  The rounding allowance is
    first order: (2 cap + 8) u per placed value for the Pochhammer factors and
    the dot products, plus (|ln x| + 1) u E per term for the powers, carried
    as a second weight.
    """
    x = 1.0 / q
    u = 2.0 ** -53
    euler = math.prod(1.0 - x ** j for j in range(1, 200)) * (1.0 - 2.0 * x ** 200)
    cap = 1
    while True:
        tail = sum((n + 1) ** (s - 2) * x ** (n * n / 2) for n in range(cap + 1, 4 * cap + 40))
        tail /= euler ** (s - 1)
        if tail < 1e-30:
            break
        cap += 1
    poch = np.cumprod([1.0] + [1.0 - x ** j for j in range(1, cap + 1)])
    gap = np.subtract.outer(np.arange(cap + 1), np.arange(cap + 1))
    step = np.where(gap >= 0, 1.0 / poch[np.maximum(gap, 0)], 0.0)  # step[N', N]
    width = (s - 1) * cap + 1
    weight = np.zeros((cap + 1, width))
    moment = np.zeros((cap + 1, width))  # weight times the exponent so far
    weight[0, 0] = 1.0
    sums = np.arange(width)
    for m in range(1, s):
        reached, carried = step @ weight, step @ moment
        weight, moment = np.zeros_like(weight), np.zeros_like(moment)
        for n in range(cap + 1):
            exponent = (m * n - sums[: width - n]) ** 2 / (m * (m + 1))
            factor = x ** exponent
            weight[n, n:] = factor * reached[n, : width - n]
            moment[n, n:] = factor * (carried[n, : width - n] + exponent * reached[n, : width - n])
    total = weight[:, ::s].sum()
    error = tail + u * ((s - 1) * (2 * cap + 8) * total + (abs(math.log(x)) + 1) * moment[:, ::s].sum())
    density = 1.0 / total
    return density, error / (total * (total - error)) + u * density


def hecke_limit_density(q: int, s: int):
    """The limit free density at x = 1/q as a 50-digit interval, from a Hecke-type double sum.

    The density is (x; x)_inf^2 / F_s(x), where F_s is the sum over i of
    sign(i) (+1 for i >= 0) times two inner sums:
    - x^((s+2) i^2 + i - s j^2), over j in [-i, i] for i >= 0 and
      [i + 1, -i - 1] for i < 0;
    - x^((s+2) (i^2 + i) - i - s (j^2 + j)), over j in [-i, i - 1] for
      i >= 0 and [i, -i - 1] for i < 0.
    F_s is summed exactly over |i| <= 8.  The at most 8m terms of |i| = m have
    exponents of at least 2m^2 - m, so the rest is at most the sum over m > 8
    of (8m + 4) x^(2m^2 - m), and for x <= 1/2 each of those is below half the
    one before, so the rest is at most 2 * 76 x^153.  (x; x)_inf is mpmath's
    at 50 digits, allowed 1e-45 relative error.  Returns (low, high) as
    exact Fractions.
    """
    import mpmath

    x = Fraction(1, q)
    total = Fraction(0)
    for i in range(-8, 9):
        first = range(-i, i + 1) if i >= 0 else range(i + 1, -i)
        second = range(-i, i) if i >= 0 else range(i, -i)
        inner = sum(x ** ((s + 2) * i * i + i - s * j * j) for j in first)
        inner += sum(x ** ((s + 2) * (i * i + i) - i - s * (j * j + j)) for j in second)
        total += inner if i >= 0 else -inner
    rest = 2 * 76 * x ** 153
    with mpmath.workdps(50):
        euler_sq = mpmath.qp(mpmath.mpf(x.numerator) / x.denominator) ** 2
        low, high = (mpmath.mpf(f.numerator) / f.denominator for f in (total + rest, total - rest))
        bounds = (euler_sq / low * (1 - mpmath.mpf("1e-45")), euler_sq / high * (1 + mpmath.mpf("1e-45")))
    return tuple(Fraction(man) * Fraction(2) ** exp for man, exp in (b.man_exp for b in bounds))


def leading_digits(value: int, k: int) -> str:
    """The first k decimal digits of a positive integer, from a 40-digit logarithm."""
    import mpmath

    with mpmath.workdps(40):
        return str(int(mpmath.floor(mpmath.power(10, mpmath.frac(mpmath.log10(mpmath.mpf(value))) + k - 1))))


def decimal_length(value: int) -> int:
    """Number of decimal digits of a positive integer, from a 40-digit logarithm."""
    import mpmath

    with mpmath.workdps(40):
        return int(mpmath.floor(mpmath.log10(mpmath.mpf(value)))) + 1


def rank_tail_by_lengths(n: int, base, s: int, rank: int):
    """The rank tail below mu_1 = rank at s >= 2, by length sums on rank instead of a walk.

    Splitting each exponent (n - mu_{i-1}) mu_i, i >= 2, into
    (n - rank) mu_i + (rank - mu_{i-1}) mu_i leaves, past base^((n - rank) ell)
    with ell = mu_2 + ... + mu_s, the weight of the chain
    rank >= mu_2 >= ... >= mu_s in R^rank of depth s - 1.  So the tail is
    sum_ell base^((n - rank) ell) N_{s-1}(rank, ell), summed by Horner.
    """
    from chainring.qseries import q_multinomial

    power = base ** (n - rank)
    total = 0
    for ell in range(rank * (s - 1), -1, -1):
        total = total * power + q_multinomial(rank, ell, s - 1, base)
    return total
