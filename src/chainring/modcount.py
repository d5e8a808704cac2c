"""Exact submodule counting over a finite chain ring.

The ring is described abstractly by the pair (q, s): residue field size and
nilpotency index, so the ring has q^s elements.  A submodule of R^n is
classified by its type, the frequency vector ``(k_1, ..., k_s)`` recording
k_i cyclic summands of length s - i + 1; the conjugate partition
``mu_i = k_1 + ... + k_{s-i+1}`` is its shape.  Rank is sum(k_i), length is
sum(k_i (s - i + 1)) = log_q of the module size.

All counts are exact integers and all finite probabilities exact fractions;
nothing here rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import ParameterError
from .qseries import _chain_sum, gaussian_binomial, pochhammer_finite, q_multinomial

Type = tuple[int, ...]
Shape = tuple[int, ...]


def _prime_power_root(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise if q is not a prime power."""
    if q < 2:
        raise ParameterError(f"residue field size must be >= 2, got {q}")
    n, p = q, None
    for cand in range(2, q + 1):
        if cand * cand > n:
            p = n
            break
        if n % cand == 0:
            p = cand
            break
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ParameterError(f"residue field size must be a prime power, got {q}")
    return p, e


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
    type_from_shape(shape)  # validates monotonicity
    if len(shape) != ring.s:
        raise ParameterError(f"shape must have {ring.s} entries, got {len(shape)}")
    if shape and shape[0] > n:
        raise ParameterError(f"shape exceeds the ambient rank: mu_1 = {shape[0]} > n = {n}")
    q = ring.q
    ext = tuple(shape) + (0,)
    result = 1
    for i in range(ring.s):
        result *= q ** ((n - ext[i]) * ext[i + 1])
        result *= gaussian_binomial(n - ext[i + 1], ext[i] - ext[i + 1], q)
    return result


@lru_cache(maxsize=4096)
def count_by_type(n: int, ring: ChainRingSpec, mtype: Type) -> int:
    """Number of submodules of R^n with the given type.

    q^(sum_i (n - K_i) K_{i-1}) * prod_i [n - K_{i-1}, k_i]_q where
    K_i = k_1 + ... + k_i.  Agrees with ``count_by_shape`` on the conjugate.
    """
    _check_type(mtype, ring.s)
    if rank_of(mtype) > n:
        raise ParameterError(f"rank {rank_of(mtype)} exceeds ambient rank {n}")
    q = ring.q
    result = 1
    prefix = 0
    exponent = 0
    for k in mtype:
        result *= gaussian_binomial(n - prefix, k, q)
        exponent += (n - prefix - k) * prefix
        prefix += k
    return result * q ** exponent


def count_free(n: int, ring: ChainRingSpec, rank: int) -> int:
    """Number of free submodules of R^n of the given rank: q^((n-K)K(s-1)) [n,K]_q."""
    if not 0 <= rank <= n:
        raise ParameterError(f"rank must lie in [0, {n}], got {rank}")
    q = ring.q
    return q ** ((n - rank) * rank * (ring.s - 1)) * gaussian_binomial(n, rank, q)


def types_of_length(s: int, n: int, ell: int) -> Iterator[Type]:
    """All types of length ell fitting in R^n, in ascending lexicographic order.

    Yields every (k_1, ..., k_s) with sum(k_i (s - i + 1)) = ell and
    sum(k_i) <= n, each exactly once.
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
        for k in range(0, min(remaining // part, room) + 1):
            yield from descend(i + 1, remaining - k * part, room - k, prefix + (k,))

    yield from descend(0, ell, n, ())


def compositions(s: int, total: int) -> Iterator[Type]:
    """Weak compositions of ``total`` into s parts, ascending lexicographic."""
    if s < 1:
        raise ParameterError("s must be >= 1")
    if total < 0:
        raise ParameterError("total must be nonnegative")

    def descend(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == s - 1:
            yield prefix + (remaining,)
            return
        for k in range(remaining + 1):
            yield from descend(i + 1, remaining - k, prefix + (k,))

    yield from descend(0, total, ())


@lru_cache(maxsize=256)
def total_by_length(n: int, ring: ChainRingSpec, ell: int) -> int:
    """Number of submodules of R^n of length ell (all types combined).

    This is the depth-s q-multinomial at base q.  Raises BudgetExceededError
    when its chain sum would exceed ``qseries.TOTAL_BUDGET``.
    """
    if ell < 0 or ell > n * ring.s:
        raise ParameterError(f"length must lie in [0, {n * ring.s}], got {ell}")
    return q_multinomial(n, ell, ring.s, ring.q)


@lru_cache(maxsize=256)
def total_by_rank(n: int, ring: ChainRingSpec, rank: int) -> int:
    """Number of submodules of R^n of the given rank (all types combined).

    Rank is mu_1.  Raises BudgetExceededError when the chain sum would
    exceed ``qseries.TOTAL_BUDGET``.
    """
    if not 0 <= rank <= n:
        raise ParameterError(f"rank must lie in [0, {n}], got {rank}")
    return _chain_sum(n, ring.q, ring.s, range(rank, rank + 1), None)


def free_fraction_by_length(n: int, ring: ChainRingSpec, ell: int) -> Fraction:
    """Exact probability that a uniformly random length-ell submodule is free."""
    if ell % ring.s != 0:
        raise ParameterError(f"free modules need s | ell; {ring.s} does not divide {ell}")
    total = total_by_length(n, ring, ell)  # first, so that its budget check comes first
    return Fraction(count_free(n, ring, ell // ring.s), total)


def free_fraction_by_rank(n: int, ring: ChainRingSpec, rank: int) -> Fraction:
    """Exact probability that a uniformly random rank-K submodule is free."""
    total = total_by_rank(n, ring, rank)  # first, so that its budget check comes first
    return Fraction(count_free(n, ring, rank), total)


def matrix_count_by_type(m: int, n: int, ring: ChainRingSpec, mtype: Type) -> int:
    """Number of m x n matrices over the ring whose row span has the given type.

    The count factors as (number of submodules of that type) times (number of
    surjections of R^m onto a fixed module of that type).  A homomorphism
    R^m -> M is an m-tuple of elements of M and is surjective exactly when the
    images generate M modulo the maximal ideal, so with ell = length and
    K = rank the surjection count is q^((ell - K) m) * prod_{i<K} (q^m - q^i).
    The scalar factor is therefore q^(m ell) (1/q)_m / (1/q)_{m-K}; the test
    suite checks this reading against exhaustive enumeration
    (``simulate.validate_matrix_count_interpretation``).
    """
    _check_type(mtype, ring.s)
    if rank_of(mtype) > min(m, n):
        raise ParameterError(f"rank {rank_of(mtype)} exceeds min(m, n) = {min(m, n)}")
    q = ring.q
    rank = rank_of(mtype)
    surjections = q ** ((length_of(mtype) - rank) * m)
    for i in range(rank):
        surjections *= q ** m - q ** i
    return count_by_type(n, ring, mtype) * surjections


def unimodular_probability(k: int, n: int, ring: ChainRingSpec) -> Fraction:
    """Exact probability that a uniform k x n matrix extends to an invertible one.

    Equals (1/q)_n / (1/q)_{n-k}; independent of the nilpotency index.
    """
    if k > n:
        raise ParameterError(f"need k <= n, got k={k} > n={n}")
    if k < 0:
        raise ParameterError("k must be nonnegative")
    qinv = Fraction(1, ring.q)
    return pochhammer_finite(qinv, qinv, n) / pochhammer_finite(qinv, qinv, n - k)
