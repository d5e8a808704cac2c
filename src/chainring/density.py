"""Asymptotic densities of free submodules.

As the ambient rank n grows, the probability that a random fixed-length
submodule of R^n is free converges to the reciprocal of the multi-index series

    sum over k_2, ..., k_s >= 0 with s | K_2 + ... + K_s of
        x^(K_2^2 + ... + K_s^2 - (K_2 + ... + K_s)^2 / s) / ((x)_{k_2} ... (x)_{k_s})

at x = 1/q, where K_i = k_2 + ... + k_i and (x)_k is the finite Pochhammer
symbol.  The quadratic exponent is the inverse-Cartan form of the A_{s-1} root
system, which bounds it below by (K_2^2 + ... + K_s^2)/s and makes the tail
super-geometric; that bound drives the certified truncation used here.

Below the truncation cap almost every index vector's term lies under the last
bit of the sum, so the evaluator walks the suffix sums depth first and visits
only vectors that can still be kept.  Each level stops its loop once even the
least completion of the values placed so far, every value still to come equal
to the current one, has an exponent past E_max; with the congruence the last
level steps through the one residue class that s | N_1 + ... + N_{s-1}
allows, so every leaf it visits counts.  E_max is set so that all the dropped
terms together weigh less than B <= 2^-80, and one exact ``math.fsum`` sign
test proves that adding B to the kept terms cannot move the rounded sum.  The
value and its error bound are therefore bit for bit those of the full sum.
The certified floor of (x; x)_inf that bounds the dropped terms and the tail
is computed once per base and policy.

The same machinery evaluates the Andrews-Gordon series/product pair, which
sandwiches the density: the series at 1/q from below and at 1/q^(s^2-s) from
above.  For s = 2 there is also a closed form in half-base Pochhammer symbols.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .approx import ApproxReal, TruncationPolicy, default_policy
from .errors import BudgetExceededError, NonconvergentError, ParameterError, _exponent_text
from .modcount import (
    ChainRingSpec,
    _check_length,
    count_by_type,
    free_fraction_by_rank,
    types_of_length,
)
from .qseries import euler_function, pochhammer_infinite

_EPS = 2.0 ** -52
# bound on the mass of the terms the multi-sum walk leaves out (see _multi_sum)
_PRUNED_MASS = 2.0 ** -80
# loop steps of all the multi-sum walks of one evaluation: a step costs
# 0.45-0.73 us on one core (more at large s, where each level's loop is short),
# so a full budget takes 7.5-12 s; the largest admitted walk, q = 7 at s = 38,
# takes 14.7M steps and 8.5 s
WALK_BUDGET = 1 << 24
# types one order-explore list may count; at n = 100, q = 2, s = 5 the CLI
# lists 46,262 types in 6.5-10 s, and each type costs more at larger n or q
TYPE_LIST_LIMIT = 50_000


def cartan_quadratic_form(kvec: tuple[int, ...], s: int) -> Fraction:
    """Evaluate v C^{-1} v^T with C^{-1}_{ij} = min(i, j) - ij/s, exactly.

    Uses the closed form K_2^2 + ... + K_s^2 - (K_2 + ... + K_s)^2 / s in the
    partial sums K; the tests check it against the matrix sum.
    """
    if s < 2:
        raise ParameterError("the quadratic form needs s >= 2")
    if len(kvec) != s - 1:
        raise ParameterError(f"index vector must have {s - 1} entries, got {len(kvec)}")
    partial = 0
    sum_sq = 0
    total = 0
    for k in kvec:
        partial += k
        sum_sq += partial * partial
        total += partial
    return Fraction(sum_sq) - Fraction(total * total, s)


@lru_cache(maxsize=64)
def _euler_floor(x: float, policy) -> float:
    """Certified lower bound of (x; x)_inf, kept per base and policy.

    density_bounds needs it at x = 1/q twice, and table1 repeats each
    (q, policy) at three depths.
    """
    e = euler_function(x, policy)
    lower = e.value - e.abs_error
    if lower <= 0.0:
        raise ParameterError("cannot certify a positive lower bound for (x; x)_inf")
    return lower


def _cutoff(x: float, s: int, scale: int, policy: TruncationPolicy, euler_low: float):
    """Smallest cap T with certified tail <= target_tail, and that tail bound.

    Terms with index sum T are at most x^(T^2/scale) / (x)_inf^(s-1) each and
    number at most (T+1)^(s-2) <= 2^(T(s-2)), so for caps >= T the tail is at
    most rho^(T+1) / (1 - rho) / (x)_inf^(s-1) with rho = 2^(s-2) x^((T+1)/scale).
    A prefactor or a 2^(s-2) past the float range certifies no cap: the tail
    bound is then infinite.
    """
    try:
        prefactor = euler_low ** -(s - 1)
        spread = 2.0 ** (s - 2)
    except OverflowError:
        return policy.max_index, math.inf
    best = math.inf
    for cap in range(1, policy.max_index + 1):
        rho = spread * x ** ((cap + 1) / scale)
        if rho >= 1.0:
            continue
        best = prefactor * rho ** (cap + 1) / (1.0 - rho)
        if best <= policy.target_tail:
            return cap, best
    return policy.max_index, best


def _poch_table(x: float, cap: int) -> list[float]:
    table = [1.0]
    factor = 1.0
    power = x
    for _ in range(cap):
        factor *= 1.0 - power
        power *= x
        table.append(factor)
    return table


def _pruned_terms(s: int, cap: int, poch: list[float], log_x: float, congruence: bool, e_max, spent=0):
    """Terms of the index vectors below ``cap`` whose exponent is at most ``e_max``.

    Walks the suffix sums N_{s-1} <= ... <= N_1 <= cap depth first and returns
    the kept terms, in walk order, whether any vector was cut off, and the
    loop steps taken with the ``spent`` steps of earlier walks added; once
    those pass ``WALK_BUDGET`` it raises BudgetExceededError.  With the
    congruence a vector's exponent is Q - T^2/s, where Q and T are the sum of
    squares and the sum of {0, N_1, ..., N_{s-1}}; without it the exponent is
    Q.  After a level places N, r more values are still to come, each at
    least N.  The exponent is convex in them (its Hessian is 2 I - 2 J/s, and
    r < s), and at the completion with all of them equal to N its gradient,
    2 (N - mean), is >= 0, since N is at least every value placed.  So that
    completion has the least exponent, s (Q + r N^2) - (T + r N)^2 over s
    (Q + r N^2 without the congruence), exact in integers; it grows with k,
    for the same reason, and once it passes e_max the level's loop stops.  At
    the last level (r = 0) it is the exponent itself.  With the congruence
    that level runs k only over the residue class that makes s divide T, so
    every leaf visited counts.  Each level hands its Pochhammer divisor down
    the walk, and a leaf divides by them innermost first.  ``cut`` is False
    only when no vector below the cap was left out.  The walk nests one call
    per level, so a depth s past Python's recursion limit raises
    BudgetExceededError.
    """
    terms: list[float] = []
    cut = False
    steps = spent
    budget = WALK_BUDGET
    limit = s * e_max if congruence else e_max

    def descend(rest, remaining, suffix, running, total, sum_sq):
        nonlocal cut, steps
        start, step = 0, 1
        if congruence and not rest:  # only the leaves with s | t count
            start, step = -(total + running) % s, s
        k = start - step  # an empty range of leaves takes no step
        for k in range(start, remaining + 1, step):
            n = running + k
            t = total + n
            q = sum_sq + n * n
            if congruence:
                least = s * (q + rest * n * n) - (t + rest * n) ** 2
            else:
                least = q + rest * n * n
            if least > limit:
                cut = True
                break
            if rest:
                descend(rest - 1, remaining - k, (poch[k],) + suffix, n, t, q)
            else:
                exponent = (s * q - t * t) / s if congruence else q
                term = math.exp(exponent * log_x) / poch[k]
                for p in suffix:
                    term /= p
                terms.append(term)
        steps += (k - start) // step + 1  # this level's loop, counted once it ends
        if steps > budget:
            raise BudgetExceededError(
                f"multi-sum walk at s = {s}, cap = {cap} exceeds its budget of {budget} steps"
            )

    try:
        descend(s - 2, cap, (), 0, 0, 0)
    except RecursionError:  # descend nests one call per level
        raise BudgetExceededError(
            f"multi-sum walk at s={s} nests {s - 1} levels, deeper than Python's recursion limit"
        ) from None
    return terms, cut, steps


def _multi_sum(x: float, s: int, policy: TruncationPolicy, congruence: bool) -> ApproxReal:
    """Certified sum over k_1, ..., k_{s-1} >= 0 of x^E / ((x)_{k_1} ... (x)_{k_{s-1}}).

    E is a quadratic form in the suffix sums N_i = k_i + ... + k_{s-1}:

    - without ``congruence``, E = N_1^2 + ... + N_{s-1}^2, the Andrews-Gordon
      series;
    - with it, only index vectors with s | N_1 + ... + N_{s-1} count, and
      E = N_1^2 + ... + N_{s-1}^2 - (N_1 + ... + N_{s-1})^2 / s, the limit
      density series.  This inverse-Cartan form does not change when the index
      vector is reversed, and reversal swaps suffix and prefix sums, so E and
      the congruence agree with the module docstring's prefix-sum form term by
      term.  Its least value at index sum T is T^2/s rather than T^2, so the
      truncation runs on scale s.

    The value is the correctly rounded (``math.fsum``) sum of the terms of all
    index vectors with k_1 + ... + k_{s-1} <= cap, but only the terms with
    E <= e_max are computed (``_pruned_terms``).  Each of the at most
    C(cap+s-1, s-1) dropped terms is below x^e_max / euler_low^(s-1), so their
    sum is below B = 2 C(cap+s-1, s-1) x^e_max / euler_low^(s-1), the factor 2
    covering the rounding of the computed terms; e_max starts where B <=
    2^-80.  The terms are non-negative, so the full sum rounds to the same
    float as the kept one when kept + B < value + ulp(value)/2, one exact
    sign test by ``math.fsum``.  If that fails, e_max doubles and the walk
    repeats; e_max = inf keeps every term, and a walk that cuts nothing needs
    no test.  The walks share ``WALK_BUDGET`` loop steps.

    When no cap up to ``policy.max_index`` bounds the tail, or 2^80 B / x^e_max,
    which sets the first e_max, is past the float range, NonconvergentError is
    raised before any walk.
    """
    scale = s if congruence else 1
    euler_low = _euler_floor(x, policy)
    cap, tail = _cutoff(x, s, scale, policy, euler_low)
    if tail == math.inf:
        raise NonconvergentError(
            f"series not certified within max_index={policy.max_index}: no cap bounds its tail"
        )
    poch = _poch_table(x, cap)
    log_x = math.log(x)

    try:
        weight = 2.0 * math.comb(cap + s - 1, s - 1) / euler_low ** (s - 1)
        e_max = max(1, math.ceil(math.log(weight / _PRUNED_MASS) / -log_x))
    except OverflowError:
        raise NonconvergentError(
            f"series not certified within max_index={policy.max_index}: "
            f"at s = {s} the bound on the terms a walk drops is past the float range"
        ) from None
    steps = 0
    while True:
        terms, cut, steps = _pruned_terms(s, cap, poch, log_x, congruence, e_max, spent=steps)
        value = math.fsum(terms)
        if not cut:
            break
        dropped = weight * x ** e_max
        if math.fsum(terms + [-value, -math.ulp(value) / 2, dropped]) < 0:
            break
        # past 2^-900 the power nears the subnormals; walk everything instead
        e_max = 2 * e_max if x ** (2 * e_max) > 2.0 ** -900 else math.inf
    rounding = value * (2 * cap + 2 * s + 16) * _EPS
    return ApproxReal(value, tail + rounding)


def _inverse(q: int) -> float:
    """1/q as a float; ParameterError, naming q's bits, where q is past the float range."""
    try:
        return 1.0 / q
    except OverflowError:
        raise ParameterError(
            f"q has {q.bit_length()} bits, past the float range, so the base 1/q has no float value"
        ) from None


def _reciprocal(series: ApproxReal, policy: TruncationPolicy, name: str = "series") -> ApproxReal:
    """1/series, or NonconvergentError naming it when no cap within the policy certifies it."""
    if series.abs_error >= series.value:
        raise NonconvergentError(
            f"{name} not certified within max_index={policy.max_index}: "
            f"error bound {series.abs_error:.3g} reaches the value {series.value:.3g}"
        )
    return series.reciprocal()


def limit_free_density(ring: ChainRingSpec, policy: TruncationPolicy | None = None) -> ApproxReal:
    """Limit, as n grows, of the probability that a fixed-length submodule is free.

    For s = 1 the ring is a field and every module is free, so the value is
    exactly 1.  Otherwise the reciprocal of the divisibility-constrained
    series described in the module docstring, truncated with a certified tail.
    """
    if ring.s == 1:
        return ApproxReal(1.0, 0.0)
    x = _inverse(ring.q)
    policy = policy or default_policy()
    return _reciprocal(_multi_sum(x, ring.s, policy, congruence=True), policy)


def andrews_gordon_series(qinv, s: int, policy: TruncationPolicy | None = None) -> ApproxReal:
    """Multi-sum side of the Andrews-Gordon identity at base qinv in (0, 1).

    sum over n_1, ..., n_{s-1} >= 0 of qinv^(N_1^2 + ... + N_{s-1}^2) divided
    by (qinv)_{n_1} ... (qinv)_{n_{s-1}}, with suffix sums N_i = n_i + ... +
    n_{s-1}.  s = 2 is the first Rogers-Ramanujan series.
    """
    if s < 2:
        raise ParameterError("the Andrews-Gordon series needs s >= 2")
    x = float(qinv)
    if not 0.0 < x < 1.0:
        raise ParameterError("base must lie in (0, 1)")
    return _multi_sum(x, s, policy or default_policy(), congruence=False)


def andrews_gordon_product(qinv, s: int, policy: TruncationPolicy | None = None) -> ApproxReal:
    """Product side of the Andrews-Gordon identity at base qinv in (0, 1).

    (x^s; x^(2s+1)) (x^(s+1); x^(2s+1)) (x^(2s+1); x^(2s+1)) / (x; x), all
    infinite products, assembled with propagated error bounds.
    """
    if s < 2:
        raise ParameterError("the Andrews-Gordon product needs s >= 2")
    x = float(qinv)
    if not 0.0 < x < 1.0:
        raise ParameterError("base must lie in (0, 1)")
    policy = policy or default_policy()
    step = x ** (2 * s + 1)
    top = (
        pochhammer_infinite(x ** s, step, policy)
        * pochhammer_infinite(x ** (s + 1), step, policy)
        * pochhammer_infinite(step, step, policy)
    )
    return top * _reciprocal(pochhammer_infinite(x, x, policy), policy, "product (x; x)_inf")


@dataclass(frozen=True)
class DensityResult:
    """Certified lower bound, exact-series value and upper bound of the density."""

    lower: ApproxReal
    value: ApproxReal
    upper: ApproxReal
    ring: ChainRingSpec

    def ordered(self) -> bool:
        return (
            self.lower.value - self.lower.abs_error
            <= self.value.value
            <= self.upper.value + self.upper.abs_error
        )


def density_bounds(ring: ChainRingSpec, policy: TruncationPolicy | None = None) -> DensityResult:
    """Sandwich the limit density between two Andrews-Gordon reciprocals.

    Lower bound at base 1/q, upper bound at base 1/q^(s^2-s); requires s >= 2.
    """
    if ring.s < 2:
        raise ParameterError("density bounds need s >= 2")
    x = _inverse(ring.q)
    exponent = ring.s * ring.s - ring.s
    # q >= 2, so past 1074 q^-exponent is at most half the least subnormal, 2^-1074
    upper_base = float(ring.q) ** -exponent if exponent <= 1074 else 0.0
    if upper_base == 0.0:
        raise ParameterError(
            f"the upper bound's base q^-(s^2-s) = {ring.q}^-{_exponent_text(exponent)} underflows to 0.0 "
            f"at q = {ring.q}, s = {ring.s}"
        )
    policy = policy or default_policy()
    lower = _reciprocal(andrews_gordon_series(x, ring.s, policy), policy)
    upper = _reciprocal(andrews_gordon_series(upper_base, ring.s, policy), policy)
    value = limit_free_density(ring, policy)
    return DensityResult(lower=lower, value=value, upper=upper, ring=ring)


def depth_two_density(q: int, policy: TruncationPolicy | None = None) -> ApproxReal:
    """Closed form of the limit density for nilpotency index 2.

    2 / ((-sqrt(x); x)_inf + (sqrt(x); x)_inf) at x = 1/q, q a prime power.
    """
    ChainRingSpec(q, 2)  # refuses a q that is no residue field size, as every ring does
    x = _inverse(q)
    policy = policy or default_policy()
    root = math.sqrt(x)
    plus = pochhammer_infinite(-root, x, policy)
    minus = pochhammer_infinite(root, x, policy)
    return ApproxReal(2.0, 0.0) * _reciprocal(plus + minus, policy, "products (-sqrt(x); x)_inf + (sqrt(x); x)_inf")


def rank_density_trend(ring: ChainRingSpec, rate: Fraction, n_list) -> list[Fraction]:
    """Exact free probabilities at rank = rate * n for each listed n.

    Decreasing toward 0 when rate > 1/2, increasing toward 1 when rate < 1/2,
    and at least the Andrews-Gordon lower bound when rate = 1/2.
    """
    rate = Fraction(rate)
    if not 0 < rate < 1:
        raise ParameterError(f"rate must lie strictly between 0 and 1, got {rate}")
    values = []
    for n in n_list:
        rank = rate * n
        if rank.denominator != 1:
            raise ParameterError(f"rate * n must be an integer, got {rank} at n = {n}")
        values.append(free_fraction_by_rank(n, ring, int(rank)))
    return values


def type_counts_sorted(n: int, ring: ChainRingSpec, ell: int) -> list[tuple[tuple[int, ...], int]]:
    """All types of length ell with exact counts, most frequent first.

    Ties are broken by ascending lexicographic order on the type, so the
    output is byte-stable.  A negative n or an ell outside [0, n s] raises
    ParameterError, and more than TYPE_LIST_LIMIT types raise
    BudgetExceededError before any is counted.
    """
    _check_length(n, ring, ell)
    types = list(itertools.islice(types_of_length(ring.s, n, ell), TYPE_LIST_LIMIT + 1))
    if len(types) > TYPE_LIST_LIMIT:
        raise BudgetExceededError(
            f"length {ell} in R^{n} has more than {TYPE_LIST_LIMIT} types, over the type-list budget"
        )
    pairs = [(t, count_by_type(n, ring, t)) for t in types]
    pairs.sort(key=lambda item: (-item[1], item[0]))
    return pairs


TABLE1_GRID = tuple((s, q) for s in (2, 3, 4) for q in (2, 3, 5, 7, 11))

TABLE2_GRID = (
    (2, 2, 50, 100),
    (2, 2, 40, 100),
    (2, 2, 60, 100),
    (2, 3, 50, 100),
    (2, 3, 40, 100),
    (2, 3, 60, 100),
    (3, 2, 50, 100),
    (3, 2, 40, 100),
    (3, 2, 60, 100),
)


def table1_rows(policy: TruncationPolicy | None = None) -> tuple[tuple[int, int, DensityResult], ...]:
    """Density sandwich for the standard grid s in {2,3,4} x q in {2,3,5,7,11}.

    The table is kept per policy, resolved from the environment at each call,
    so a process that prints it in several formats evaluates its 45 series
    once per policy.
    """
    return _table1_rows(policy or default_policy())


@lru_cache(maxsize=4)
def _table1_rows(policy: TruncationPolicy) -> tuple[tuple[int, int, DensityResult], ...]:
    return tuple((s, q, density_bounds(ChainRingSpec(q=q, s=s), policy)) for s, q in TABLE1_GRID)


def table2_rows() -> tuple[tuple[int, int, int, int, Fraction], ...]:
    """Exact free-module probabilities (q, s, K, n, value) for the reference grid."""
    return tuple(
        (q, s, k, n, free_fraction_by_rank(n, ChainRingSpec(q=q, s=s), k))
        for q, s, k, n in TABLE2_GRID
    )
