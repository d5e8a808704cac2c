"""Concrete arithmetic over Z/p^s: matrix types, exhaustive submodule censuses
and seeded random matrix ensembles.

The census enumerator is the ground truth the counting formulas are checked
against: it finds the row spans of all n x n generator matrices (any
submodule of R^n needs at most n generators) by extending the distinct spans
one generator at a time, dedupes them by their membership bitsets, and
classifies each distinct module by diagonal reduction.  Every type comes from
one reduction that works on a whole stack of matrices at once and uses no
inverses (see ``_types``).
Randomness comes from numpy's PCG64 seeded through
SeedSequence(seed, spawn_key=(stream,)); a fixed (seed, stream) pair always
reproduces the same matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, ParameterError, VerificationError
from . import modcount
from .modcount import ChainRingSpec

SPAN_BUDGET = 1 << 20
CENSUS_BUDGET = 1 << 24
CENSUS_WORK_BUDGET = 1 << 27
_CENSUS_CHUNK = 1 << 21


@dataclass(frozen=True)
class ConcreteRing:
    """The ring Z/p^s for a prime p; residue field size is p itself."""

    p: int
    s: int

    def __post_init__(self):
        if self.p < 2 or any(self.p % d == 0 for d in range(2, int(self.p ** 0.5) + 1)):
            raise ParameterError(f"p must be prime, got {self.p}")
        if self.s < 1:
            raise ParameterError(f"s must be >= 1, got {self.s}")

    @property
    def modulus(self) -> int:
        return self.p ** self.s

    def spec(self) -> ChainRingSpec:
        return ChainRingSpec(q=self.p, s=self.s)


@dataclass(frozen=True)
class RingMatrix:
    ring: ConcreteRing
    entries: tuple[tuple[int, ...], ...]

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)


def ring_matrix(ring: ConcreteRing, rows) -> RingMatrix:
    """Build a RingMatrix, reducing every entry mod p^s."""
    mod = ring.modulus
    entries = tuple(tuple(int(x) % mod for x in row) for row in rows)
    if entries and any(len(row) != len(entries[0]) for row in entries):
        raise ParameterError("ragged rows")
    return RingMatrix(ring=ring, entries=entries)


def valuation(x: int, ring: ConcreteRing) -> int:
    """Largest v <= s with p^v dividing x; the zero element has valuation s."""
    x = x % ring.modulus
    if x == 0:
        return ring.s
    v = 0
    while x % ring.p == 0:
        x //= ring.p
        v += 1
    return v


def _types(mats, ring: ConcreteRing) -> np.ndarray:
    """Types of the row spans of a (B, m, n) stack, one row of s counts each.

    Diagonal reduction of the whole stack at once.  At each step the pivot is
    the row-major first entry of least valuation v in the remaining block,
    swapped to its corner.  It is u p^v with u a unit, and every entry below
    it is some w p^v, so row <- u row - w pivot_row clears the column without
    any inverse; scaling a row by a unit keeps the span.  Clearing the pivot
    row is skipped: it never changes the block later steps read.  Each pivot
    p^v with v < s is one cyclic summand of length s - v.  While p^s < 2^31 the
    entries are int64 and every product stays below 2^62; larger moduli use
    Python ints.
    """
    p, s, mod = ring.p, ring.s, ring.modulus
    dtype = np.int64 if mod < 1 << 31 else object
    work = np.asarray(mats, dtype=dtype) % mod
    batch_size, m, n = work.shape
    batch = np.arange(batch_size)
    powers = np.array([p ** k for k in range(s + 1)], dtype=dtype)
    pivots = []
    for _ in range(min(m, n)):
        rows, cols = work.shape[1:]
        # the zero element passes all s tests, so its valuation is s
        val = (work % powers[1:, None, None, None] == 0).sum(axis=0)
        i0, j0 = np.divmod(val.reshape(batch_size, rows * cols).argmin(axis=1), cols)
        v = val[batch, i0, j0]
        pivots.append(v)
        top = work[:, 0].copy()
        work[:, 0] = work[batch, i0]
        work[batch, i0] = top
        left = work[:, :, 0].copy()
        work[:, :, 0] = work[batch, :, j0]
        work[batch, :, j0] = left
        # the pivot column over p^v: the unit u on top, the multipliers w below
        col = work[:, :, :1] // powers[v][:, None, None]
        work = (col[:, :1] * work[:, 1:, 1:] - col[:, 1:] * work[:, :1, 1:]) % mod
    # a pivot of valuation v < s is one summand, at type position i = v + 1
    pivots = np.array(pivots, dtype=np.int64).reshape(-1, batch_size).T
    return (pivots[:, :, None] == np.arange(s)).sum(axis=1)


def _tally(types: np.ndarray) -> dict[tuple[int, ...], int]:
    """Count the distinct rows of a stack of types."""
    rows, counts = np.unique(types, axis=0, return_counts=True)
    return dict(zip(map(tuple, rows.tolist()), counts.tolist()))


def matrix_type(mat: RingMatrix) -> tuple[int, ...]:
    """Type of the module generated by the rows, via diagonal reduction."""
    stack = np.array(mat.entries, dtype=object).reshape(1, mat.nrows, mat.ncols)
    return tuple(_types(stack, mat.ring)[0].tolist())


def is_rect_unimodular(mat: RingMatrix) -> bool:
    """Whether the matrix extends to an invertible square one (free, full rank)."""
    if mat.nrows > mat.ncols:
        raise ParameterError(f"need rows <= cols, got {mat.nrows} x {mat.ncols}")
    free = (mat.nrows,) + (0,) * (mat.ring.s - 1)
    return matrix_type(mat) == free


def _digits(idx: np.ndarray, mod: int, m: int) -> np.ndarray:
    """Base-mod digits of each index, most significant first, as (len(idx), m)."""
    out = np.empty((len(idx), m), dtype=np.int64)
    for j in range(m - 1, -1, -1):
        idx, out[:, j] = np.divmod(idx, mod)
    return out


@lru_cache(maxsize=16)
def _all_vectors(mod: int, m: int) -> np.ndarray:
    """All length-m vectors over Z/mod as an array, in mixed-radix order."""
    out = _digits(np.arange(mod ** m, dtype=np.int64), mod, m)
    out.setflags(write=False)  # cached and shared
    return out


def row_span(mat: RingMatrix) -> set[tuple[int, ...]]:
    """The exact set {x M : x in R^m}; size is p^length(type)."""
    mod = mat.ring.modulus
    m = mat.nrows
    if mod ** m > SPAN_BUDGET:
        raise BudgetExceededError(f"{mod}^{m} coefficient vectors exceed budget {SPAN_BUDGET}")
    coeffs = _all_vectors(mod, m)
    products = coeffs @ mat.to_array() % mod
    return set(map(tuple, products.tolist()))


@dataclass(frozen=True)
class TypeCensus:
    """Counts of distinct submodules (or matrices) per type."""

    counts: dict
    total: int

    def sorted_items(self):
        return sorted(self.counts.items())


def enumerate_submodules(ring: ConcreteRing, n: int) -> TypeCensus:
    """Exhaustive census of all submodules of R^n, classified by type.

    Builds the spans of all n x n generator matrices one generator at a time,
    since span(r_1..r_j) = span(span(r_1..r_{j-1}) + r_j).  Level 0 is the zero
    module; level j appends every row of R^n to one representative matrix of
    each distinct level j-1 span, so level n holds the span of every n x n
    matrix.  Each candidate span is materialised in full, x M for all
    (p^s)^j coefficient vectors x, and keyed by its membership bitset over
    R^n, which is the set itself; one ``np.unique`` per chunk dedupes the
    keys.  ``CENSUS_BUDGET`` bounds the (p^s)^(n*n) generator matrices the census
    stands for, ``CENSUS_WORK_BUDGET`` the span entries of each level.
    """
    if n < 0:
        raise ParameterError(f"n must be nonnegative, got {n}")
    mod = ring.modulus
    if mod ** (n * n) > CENSUS_BUDGET:
        raise BudgetExceededError(f"{mod}^{n * n} generator matrices exceed budget {CENSUS_BUDGET}")

    def check(level: int, spans: int) -> None:
        if spans * mod ** n * mod ** level > CENSUS_WORK_BUDGET:
            raise BudgetExceededError(
                f"{spans} x {mod}^{n} x {mod}^{level} span entries at census level {level} "
                f"exceed budget {CENSUS_WORK_BUDGET}"
            )

    check(n, 1)  # the last level extends at least the zero module
    reps = np.zeros((1, 0, n), dtype=np.int64)  # level 0: the zero module
    for j in range(1, n + 1):
        check(j, len(reps))
        reps = _next_level(reps, mod)
    return TypeCensus(counts=_tally(_types(reps, ring)), total=len(reps))


def _next_level(reps: np.ndarray, mod: int) -> np.ndarray:
    """One representative matrix for each distinct span of a matrix in reps plus one row.

    With x = (y, a), x M = y M' + a r for M = (M'; r): the sum of two reduced
    vectors, whose digits are < 2 p^s.  Both parts are coded in base 2 p^s,
    where adding codes adds digits without carries, and one lookup in
    ``reduce`` takes the sum to its reduced base-p^s index in R^n.
    """
    n = reps.shape[2]
    rows = _all_vectors(mod, n)
    size = len(rows)
    reduce = np.zeros(1, dtype=np.int32)
    for _ in range(n):
        reduce = (reduce[:, None] * mod + np.arange(2 * mod, dtype=np.int32) % mod).ravel()
    base = (2 * mod) ** np.arange(n - 1, -1, -1, dtype=np.int32)
    # y M' for every y, per representative
    span_codes = (_all_vectors(mod, reps.shape[1]) @ reps % mod).astype(np.int32) @ base
    multiples = np.arange(mod, dtype=np.int32)[:, None]
    rows32 = rows.astype(np.int32)
    candidates = len(reps) * size
    # a chunk holds at most _CENSUS_CHUNK span entries and key bits
    step = max(1, _CENSUS_CHUNK // max(span_codes.shape[1] * mod, size))
    keys, firsts = [], []
    for lo in range(0, candidates, step):
        rep, row = np.divmod(np.arange(lo, min(lo + step, candidates)), size)
        # a r for every a; a r < (p^s)^(2n) <= CENSUS_WORK_BUDGET fits in int32
        row_codes = (multiples * rows32[row, None, :] % mod) @ base
        codes = reduce[span_codes[rep, :, None] + row_codes[:, None, :]]
        # offset each candidate to its own row of the chunk's bitsets
        codes += (np.arange(len(row), dtype=np.int32) * size)[:, None, None]
        bits = np.zeros((len(row), size), dtype=bool)
        bits.ravel()[codes.ravel()] = True
        packed = np.packbits(bits, axis=1)
        _, first = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True)
        keys.append(packed[first])
        firsts.append(np.concatenate((reps[rep[first]], rows[row[first], None]), axis=1))
    packed = np.concatenate(keys)
    _, first = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True)
    return np.concatenate(firsts)[first]


def verify_census(ring: ConcreteRing, n: int):
    """Compare the exhaustive census against the counting formulas, per type.

    Returns (census, rows, ok); each row is (type, counted, formula, match).
    """
    census = enumerate_submodules(ring, n)
    spec = ring.spec()
    all_types = sorted(census.counts)
    rows = []
    ok = True
    for t in all_types:
        counted = census.counts[t]
        formula = modcount.count_by_type(n, spec, t)
        match = counted == formula
        ok = ok and match
        rows.append((t, counted, formula, match))
    by_length = sum(modcount.total_by_length(n, spec, ell) for ell in range(n * ring.s + 1))
    by_rank = sum(modcount.total_by_rank(n, spec, k) for k in range(n + 1))
    ok = ok and by_length == census.total and by_rank == census.total
    return census, rows, ok


def sample_matrix(m: int, n: int, ring: ConcreteRing, seed: int, stream: int = 0) -> RingMatrix:
    """Uniform random m x n matrix; deterministic given (seed, stream).

    Generator: numpy PCG64 seeded with SeedSequence(seed, spawn_key=(stream,)).
    """
    rng = _generator(seed, stream)
    entries = rng.integers(0, ring.modulus, size=(m, n), dtype=np.int64)
    return RingMatrix(ring=ring, entries=tuple(map(tuple, entries.tolist())))


def _generator(seed: int, stream: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


_MC_CHUNK = 4096


def monte_carlo_type_distribution(
    m: int, n: int, ring: ConcreteRing, trials: int, seed: int
) -> TypeCensus:
    """Empirical type counts over ``trials`` uniform matrices.

    Trials are split into fixed-size chunks, chunk i drawing from stream i, so
    the census depends only on the seed and the trial count.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    counts: Counter = Counter()
    for stream, lo in enumerate(range(0, trials, _MC_CHUNK)):
        count = min(_MC_CHUNK, trials - lo)
        batch = _generator(seed, stream).integers(0, ring.modulus, size=(count, m, n), dtype=np.int64)
        counts.update(_tally(_types(batch, ring)))
    return TypeCensus(counts=dict(counts), total=trials)


_MATRIX_COUNT_POINTS = ((1, 2, 2, 2), (2, 2, 2, 2), (1, 1, 2, 3))


def validate_matrix_count_interpretation():
    """Exhaustively check the matrix-count formula at small parameter points.

    Enumerates every m x n matrix over Z/p^s at each (m, n, p, s) of
    ``_MATRIX_COUNT_POINTS``, tallies types, and compares with
    ``modcount.matrix_count_by_type``.  Raises VerificationError on any
    mismatch so a misread formula can never ship quietly.  Returns the points.
    """
    for m, n, p, s in _MATRIX_COUNT_POINTS:
        ring = ConcreteRing(p=p, s=s)
        spec = ring.spec()
        mod = ring.modulus
        tallies = _tally(_types(_all_vectors(mod, m * n).reshape(-1, m, n), ring))
        for t, counted in sorted(tallies.items()):
            formula = modcount.matrix_count_by_type(m, n, spec, t)
            if formula != counted:
                raise VerificationError(
                    f"matrix count mismatch at (m={m}, n={n}, p={p}, s={s}), "
                    f"type {t}: formula {formula} != enumerated {counted}"
                )
        if sum(tallies.values()) != mod ** (m * n):
            raise VerificationError("matrix tally does not cover the full space")
    return _MATRIX_COUNT_POINTS
