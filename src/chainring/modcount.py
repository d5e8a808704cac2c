"""Exact submodule counting over a finite chain ring.

The ring is described abstractly by the pair (q, s): residue field size and
nilpotency index, so the ring has q^s elements.  A submodule of R^n is
classified by its type, the frequency vector ``(k_1, ..., k_s)`` recording
k_i cyclic summands of length s - i + 1; the conjugate partition
``mu_i = k_1 + ... + k_{s-i+1}`` is its shape.  Rank is sum(k_i), length is
sum(k_i (s - i + 1)) = log_q of the module size.

All counts are exact integers and all finite probabilities exact fractions;
nothing here rounds.  Every count and every part of a total is charged
to ``qseries.TOTAL_BUDGET`` before its big-integer work, and over it raises
BudgetExceededError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import BudgetExceededError, ParameterError
from .qseries import _charge, _coprime_fraction, _count_cost, _exact_product, _gaussian_binomial, _rank_tail
from .qseries import gaussian_binomial, q_multinomial

Type = tuple[int, ...]
Shape = tuple[int, ...]


# Trial division stops here, so a check takes at most 2^20 divisions; that
# certifies every q < _TRIAL_LIMIT^2 = 2^40.
_TRIAL_LIMIT = 1 << 20
# Miller-Rabin at the first 13 primes decides primality below _MR_LIMIT
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _prime_power_root(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise if q is not a prime power.

    The least prime factor p is found by trial division up to _TRIAL_LIMIT.
    A q with no factor that small can only be p^e with p > _TRIAL_LIMIT, so
    e < log2(q) / 20: the largest such e with an exact integer e-th root is
    found, and the root is tested for primality.  A root past _MR_LIMIT that
    base 2 does not prove composite cannot be certified, and q is then
    refused with BudgetExceededError.
    """
    if q < 2:
        raise ParameterError(f"residue field size must be >= 2, got {q}")
    for p in range(2, _TRIAL_LIMIT + 1):
        if p * p > q:
            return q, 1
        if q % p == 0:
            n, e = q, 0
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                break
            return p, e
    else:
        # q = p^k gives q = root^e only for e dividing k, so the largest such
        # e is k, and q is a prime power exactly when that root is prime
        for e in range(q.bit_length() // 20, 0, -1):
            root = _integer_root(q, e)
            if root**e == q:
                break
        prime = _is_prime(root)
        if prime is None:
            raise BudgetExceededError(
                f"residue field size {q} has no prime factor up to {_TRIAL_LIMIT}, and whether "
                f"{root} is prime cannot be certified past {_MR_LIMIT}"
            )
        if prime:
            return root, e
    raise ParameterError(f"residue field size must be a prime power, got {q}")


def _integer_root(q: int, e: int) -> int:
    """floor(q^(1/e)), by Newton's method from above.

    The start is the float root of the top bits, raised by a relative 2^-20,
    far more than the error of math.log2, so Newton falls monotonically to
    the root in a few quadratic steps.
    """
    lg = math.log2(q) / e
    shift = max(0, int(lg) - 52)
    x = (math.ceil(2 ** (lg - shift) * (1 + 2**-20)) + 1) << shift
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _is_prime(n: int) -> bool | None:
    """Strong probable-prime tests on an odd n > 41: exact below _MR_LIMIT.

    Past _MR_LIMIT only base 2 is tried, and a pass gives None (undecided).
    """
    r = ((n - 1) & (1 - n)).bit_length() - 1
    for base in _MR_BASES if n < _MR_LIMIT else _MR_BASES[:1]:
        x = pow(base, (n - 1) >> r, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True if n < _MR_LIMIT else None


@dataclass(frozen=True)
class ChainRingSpec:
    """The pair (q, s): residue field size and nilpotency index."""

    q: int
    s: int

    def __post_init__(self):
        _prime_power_root(self.q)
        if self.s < 1:
            raise ParameterError(f"nilpotency index must be >= 1, got {self.s}")

    @property
    def size(self) -> int:
        return self.q ** self.s


def rank_of(mtype: Type) -> int:
    """Minimal number of generators: the number of parts."""
    return sum(mtype)


def length_of(mtype: Type) -> int:
    """log_q of the module size: k_i parts contribute k_i * (s - i + 1) each."""
    s = len(mtype)
    return sum(k * (s - i) for i, k in enumerate(mtype))


def _check_type(mtype: Type, s: int):
    if len(mtype) != s:
        raise ParameterError(f"type must have {s} entries, got {len(mtype)}")
    if any(k < 0 for k in mtype):
        raise ParameterError(f"type entries must be nonnegative, got {mtype}")


def _check_nonnegative(**sizes: int):
    for name, size in sizes.items():
        if size < 0:
            raise ParameterError(f"{name} must be nonnegative, got {size}")


def _check_rank(n: int, rank: int):
    _check_nonnegative(n=n)
    if not 0 <= rank <= n:
        raise ParameterError(f"rank must lie in [0, {n}], got {rank}")


def _check_length(n: int, ring: ChainRingSpec, ell: int):
    _check_nonnegative(n=n)
    if not 0 <= ell <= n * ring.s:
        raise ParameterError(f"length must lie in [0, {n * ring.s}], got {ell}")


def shape_from_type(mtype: Type) -> Shape:
    """Conjugate partition: mu_i = k_1 + ... + k_{s-i+1}."""
    _check_type(mtype, len(mtype))
    s = len(mtype)
    return tuple(sum(mtype[: s - i]) for i in range(s))


def type_from_shape(shape: Shape) -> Type:
    """Inverse conjugation: k_j = mu_{s-j+1} - mu_{s-j+2} (with mu_{s+1} = 0)."""
    s = len(shape)
    ext = tuple(shape) + (0,)
    if any(ext[i] < ext[i + 1] for i in range(s)) or ext[s - 1] < 0:
        raise ParameterError(f"shape must be weakly decreasing and nonnegative, got {shape}")
    return tuple(ext[s - j - 1] - ext[s - j] for j in range(s))


def count_by_shape(n: int, ring: ChainRingSpec, shape: Shape) -> int:
    """Number of submodules of R^n with the given shape.

    prod_{i=1}^{s} q^((n - mu_i) mu_{i+1}) * [n - mu_{i+1}, mu_i - mu_{i+1}]_q
    with mu_{s+1} = 0.
    """
    _check_nonnegative(n=n)
    type_from_shape(shape)  # validates monotonicity
    if len(shape) != ring.s:
        raise ParameterError(f"shape must have {ring.s} entries, got {len(shape)}")
    if shape and shape[0] > n:
        raise ParameterError(f"shape exceeds the ambient rank: mu_1 = {shape[0]} > n = {n}")
    ext = tuple(shape) + (0,)
    binomials = [(n - ext[i + 1], ext[i] - ext[i + 1]) for i in range(ring.s)]
    exponent = sum((n - ext[i]) * ext[i + 1] for i in range(ring.s))
    return _exact_product(ring.q, binomials, exponent)


@lru_cache(maxsize=4096)
def count_by_type(n: int, ring: ChainRingSpec, mtype: Type) -> int:
    """Number of submodules of R^n with the given type.

    q^(sum_i (n - K_i) K_{i-1}) * prod_i [n - K_{i-1}, k_i]_q where
    K_i = k_1 + ... + k_i.  Agrees with ``count_by_shape`` on the conjugate.
    """
    _check_nonnegative(n=n)
    _check_type(mtype, ring.s)
    if rank_of(mtype) > n:
        raise ParameterError(f"rank {rank_of(mtype)} exceeds ambient rank {n}")
    return _exact_product(ring.q, *_type_factors(n, mtype))


def _type_factors(n: int, mtype: Type) -> tuple[list[tuple[int, int]], int]:
    """The Gaussian binomials [m, k] and the power of q whose product is count_by_type."""
    binomials = []
    prefix = 0
    exponent = 0
    for k in mtype:
        binomials.append((n - prefix, k))
        exponent += (n - prefix - k) * prefix
        prefix += k
    return binomials, exponent


def count_free(n: int, ring: ChainRingSpec, rank: int) -> int:
    """Number of free submodules of R^n of the given rank: q^((n-K)K(s-1)) [n,K]_q."""
    _check_rank(n, rank)
    return _exact_product(ring.q, [(n, rank)], (n - rank) * rank * (ring.s - 1))


def types_of_length(s: int, n: int, ell: int) -> Iterator[Type]:
    """All types of length ell fitting in R^n, in ascending lexicographic order.

    Yields every (k_1, ..., k_s) with sum(k_i (s - i + 1)) = ell and
    sum(k_i) <= n, each exactly once.  The walk nests one generator per
    position; a depth s past Python's recursion limit raises
    BudgetExceededError.
    """
    if s < 1:
        raise ParameterError("s must be >= 1")
    if ell < 0 or ell > n * s:
        return

    def descend(i: int, remaining: int, room: int, prefix: tuple[int, ...]):
        part = s - i  # size of the parts chosen at this position
        if i == s - 1:
            if remaining <= room:
                yield prefix + (remaining,)
            return
        # the later positions hold parts of at most part - 1, and at most room - k
        # of them, so a smaller k leaves a remainder that no suffix reaches
        low = max(0, remaining - room * (part - 1))
        for k in range(low, min(remaining // part, room) + 1):
            yield from descend(i + 1, remaining - k * part, room - k, prefix + (k,))

    try:
        yield from descend(0, ell, n, ())
    except RecursionError:  # descend nests one generator per position
        raise BudgetExceededError(
            f"types of length {ell} at s={s} nest {s} positions, deeper than Python's recursion limit"
        ) from None


def compositions(s: int, total: int) -> Iterator[Type]:
    """Weak compositions of ``total`` into s parts, ascending lexicographic.

    Stars and bars: the s - 1 bars sit among total + s - 1 places, and the
    parts are the gaps between them; bars in ascending lexicographic order
    give the parts in the same order.
    """
    if s < 1:
        raise ParameterError("s must be >= 1")
    if total < 0:
        raise ParameterError("total must be nonnegative")
    end = (total + s - 1,)
    for bars in itertools.combinations(range(total + s - 1), s - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))


@lru_cache(maxsize=256)
def total_by_length(n: int, ring: ChainRingSpec, ell: int) -> int:
    """Number of submodules of R^n of length ell (all types combined).

    This is the depth-s q-multinomial at base q.
    """
    _check_length(n, ring, ell)
    return q_multinomial(n, ell, ring.s, ring.q)


@lru_cache(maxsize=256)
def total_by_rank(n: int, ring: ChainRingSpec, rank: int) -> int:
    """Number of submodules of R^n of the given rank (all types combined).

    Rank is mu_1, so the total is [n, rank]_q times the chain sum T below
    it (``qseries._rank_tail``).  Both are charged before either is built:
    [n, rank]_q first, as ``gaussian_binomial`` charges it, then the walk,
    which charges itself on entry; [n, rank]_q is built last, uncached, so
    a total refused for its walk builds no binomial.
    """
    _check_rank(n, rank)
    _charge("exact count", _count_cost, ring.q, [(n, rank)], 0)
    tail = _rank_tail(n, ring.q, ring.s, rank)
    return _gaussian_binomial(n, rank, ring.q) * tail


def free_fraction_by_length(n: int, ring: ChainRingSpec, ell: int) -> Fraction:
    """Exact probability that a uniformly random length-ell submodule is free.

    count_free / total_by_length, with the one gcd on smaller numbers.
    count_free is q^((n - K) K (s - 1)) [n, K]_q with K = ell / s, and the
    total N_s(n, ell) is 1 mod q: exactly one chain, (n, ..., n, r, 0, ...),
    carries no power of q, and it weighs [n, r]_q, which like every [m, k]_q
    is 1 mod q.  So the power of q is coprime to the total, and the gcd of
    count and total is that of [n, K]_q, read from the cache count_free
    filled, and the total.
    """
    if ell % ring.s != 0:
        raise ParameterError(f"free modules need s | ell; {ring.s} does not divide {ell}")
    total = total_by_length(n, ring, ell)  # first, so that its budget check comes first
    rank = ell // ring.s
    free = count_free(n, ring, rank)
    common = math.gcd(gaussian_binomial(n, rank, ring.q), total)
    return _coprime_fraction(free // common, total // common)


def free_fraction_by_rank(n: int, ring: ChainRingSpec, rank: int) -> Fraction:
    """Exact probability that a uniformly random rank-K submodule is free.

    count_free / total_by_rank, where both carry [n, K]_q: the total is
    [n, K]_q T with T the chain sum below the top part
    (``qseries._rank_tail``), so the fraction is q^((n - K) K (s - 1)) / T
    and [n, K]_q is never built.  That quotient is in lowest terms: for
    K < n every chain in T but the all-zero one carries a power of q, so
    T = 1 mod q shares no prime with q; for K = n the numerator is 1.  So
    its parts become the Fraction as they are, and no gcd runs.  T's charge
    is the only one: it covers the power, which is below T's top term.
    """
    _check_rank(n, rank)
    tail = _rank_tail(n, ring.q, ring.s, rank)
    return _coprime_fraction(ring.q ** ((n - rank) * rank * (ring.s - 1)), tail)


def matrix_count_by_type(m: int, n: int, ring: ChainRingSpec, mtype: Type) -> int:
    """Number of m x n matrices over the ring whose row span has the given type.

    The count factors as (number of submodules of that type) times (number of
    surjections of R^m onto a fixed module of that type).  A homomorphism
    R^m -> M is an m-tuple of elements of M and is surjective exactly when the
    images generate M modulo the maximal ideal, so with ell = length and
    K = rank the surjection count is q^((ell - K) m) * prod_{i<K} (q^m - q^i).
    The scalar factor is therefore q^(m ell) (1/q)_m / (1/q)_{m-K}; the test
    suite checks this reading against exhaustive enumeration
    (``simulate.validate_matrix_count_interpretation``).  Since
    prod_{i<K} (q^m - q^i) = q^(K (K-1)/2) prod_{m-K<i<=m} (q^i - 1), the
    whole count is one ``qseries._exact_product``.
    """
    _check_nonnegative(m=m, n=n)
    _check_type(mtype, ring.s)
    rank = rank_of(mtype)
    if rank > min(m, n):
        raise ParameterError(f"rank {rank} exceeds min(m, n) = {min(m, n)}")
    binomials, exponent = _type_factors(n, mtype)
    exponent += (length_of(mtype) - rank) * m + rank * (rank - 1) // 2
    return _exact_product(ring.q, binomials, exponent, [(m - rank, m)])


def unimodular_probability(k: int, n: int, ring: ChainRingSpec) -> Fraction:
    """Exact probability that a uniform k x n matrix extends to an invertible one.

    Equals (1/q)_n / (1/q)_{n-k}; independent of the nilpotency index.
    """
    _check_nonnegative(n=n, k=k)
    if k > n:
        raise ParameterError(f"need k <= n, got k={k} > n={n}")
    # (1/q)_n / (1/q)_{n-k} = prod_{n-k<i<=n} (q^i - 1) / q^i, and every q^i - 1 is coprime to q
    return _coprime_fraction(_exact_product(ring.q, [], 0, [(n - k, n)]), ring.q ** (k * (2 * n - k + 1) // 2))
