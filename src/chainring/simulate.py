"""Concrete arithmetic over Z/p^s: matrix types, exhaustive submodule censuses
and seeded random matrix ensembles.

The census enumerator is the ground truth the counting formulas are checked
against: it walks up the submodule lattice of R^n one cover (a step of
length one) at a time, dedupes each length by membership bitsets, and
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

from .errors import BudgetExceededError, ParameterError, VerificationError, _exponent_text
from . import modcount
from .modcount import ChainRingSpec

SPAN_BUDGET = 1 << 20
CENSUS_BUDGET = 1 << 24


@dataclass(frozen=True)
class ConcreteRing:
    """The ring Z/p^s for a prime p; residue field size is p itself."""

    p: int
    s: int

    def __post_init__(self):
        try:
            prime = modcount._prime_power_root(self.p) == (self.p, 1)
        except ParameterError:  # p < 2 or not a prime power
            prime = False
        if not prime:
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


_WORK_DTYPES = tuple((t, np.iinfo(t).max) for t in (np.int8, np.int16, np.int32, np.int64))


def _work_dtype(mod: int):
    """The narrowest signed integer type that holds every (mod - 1)^2, else object."""
    return next((t for t, top in _WORK_DTYPES if (mod - 1) ** 2 <= top), object)


def _types(mats, ring: ConcreteRing) -> np.ndarray:
    """Types of the row spans of a (B, m, n) stack, one row of s counts each.

    Diagonal reduction of the whole stack at once.  At each step the pivot is
    the row-major first entry of least valuation v in the remaining block.  It
    is u p^v with u a unit, and every entry of the block is a multiple of p^v,
    so for a row whose entry in the pivot column is w p^v, row <- u row - w
    pivot_row clears that entry without any inverse; scaling a row by a unit
    keeps the span.  This update, run on the whole block, leaves the pivot row
    and column zero; row 0 and column 0 then move into them and the first row
    and column drop out, as if the pivot had been swapped to the corner.  Each
    pivot p^v with v < s is one cyclic summand of length s - v.

    The stack is held batch-last, (m, n, B), so each operation is one long
    loop over the batch, and one-hot masks pick the pivot row and column.
    Entries outside [0, p^s) are reduced first.  The work is held in the
    narrowest signed integer type that holds every |u a - w b| <= (p^s - 1)^2:
    int8 up to p^s = 11, int16 up to 181, int32 up to 46337, int64 up to about
    3.0e9, Python ints above.  Residues and divisibility tests are floor
    divisions by a scalar, x - x // p^s * p^s and x // p^k * p^k == x, which
    numpy runs far faster than %.  The valuation of x counts the k in 1..s
    with p^k | x, so the zero element has valuation s.
    """
    p, s, mod = ring.p, ring.s, ring.modulus
    dtype = _work_dtype(mod)
    work = np.asarray(mats)
    wide = object if dtype is object or work.dtype == object else np.int64
    work = work.astype(wide, copy=False)
    batch_size, m, n = work.shape
    if work.size and not (0 <= work.min() and work.max() < mod):
        work = work - work // mod * mod
    work = np.ascontiguousarray(work.transpose(1, 2, 0), dtype=dtype)
    powers = np.array([p ** k for k in range(s + 1)], dtype=dtype)
    pivots = []
    for _ in range(min(m, n)):
        rows, cols = work.shape[:2]
        size = rows * cols
        # valuation * size + row-major position: its minimum is the pivot
        key = np.zeros(work.shape, dtype=np.min_scalar_type((s + 1) * size))
        for power in powers[1:]:
            key += work // power * power == work
        key *= size
        key += np.arange(size, dtype=key.dtype).reshape(rows, cols, 1)
        least = key.reshape(size, batch_size).min(axis=0)
        v = least // size
        pivots.append(v)
        hit = key == least  # one-hot: the pivot's position in each matrix
        at_row = hit.any(axis=1)
        at_col = hit.any(axis=0)
        top = (work * at_row[:, None]).sum(axis=0, dtype=dtype)
        # the pivot column over p^v: the unit u in the pivot row, the multipliers w in the others
        col = (work * at_col).sum(axis=1, dtype=dtype)
        col //= powers[v]
        unit = (col * at_row).sum(axis=0, dtype=dtype)
        work = unit * work - col[:, None] * top
        # the pivot row and column are now zero: row 0 and column 0 move into them
        work = work[1:] + at_row[1:, None] * work[:1]
        work = work[:, 1:] + at_col[1:] * work[:, :1]
        work -= work // mod * mod
    # a pivot of valuation v < s is one summand, at type position i = v + 1:
    # count each (matrix, v) and drop v = s, the zero pivots
    pivots = np.array(pivots, dtype=np.int64).reshape(len(pivots), batch_size)
    cells = (pivots + (s + 1) * np.arange(batch_size)).ravel()
    counts = np.bincount(cells, minlength=(s + 1) * batch_size)
    return counts.reshape(batch_size, s + 1)[:, :s]


def _tally(types: np.ndarray) -> dict[tuple[int, ...], int]:
    """Count the distinct rows of a stack of types, in lexicographic order.

    Each row is one number in radix max + 1, which keeps the order, so one
    1-D unique replaces the much slower row-wise one.
    """
    if not types.size:
        return {}
    radix = int(types.max()) + 1
    if radix ** types.shape[1] >= 1 << 63:  # the codes would overflow int64
        rows, counts = np.unique(types, axis=0, return_counts=True)
    else:
        place = radix ** np.arange(types.shape[1] - 1, -1, -1, dtype=np.int64)
        codes, counts = np.unique(types @ place, return_counts=True)
        rows = codes[:, None] // place % radix
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


def _check_power_budget(ring: ConcreteRing, exponent: int, budget: int, what: str):
    """Raise BudgetExceededError if (p^s)^exponent exceeds ``budget``, naming ``what`` it counts.

    p^s >= 2^s, so s * exponent >= budget.bit_length() refuses with no power
    taken; below that the power is taken, of fewer than
    budget.bit_length() log2(p) bits.  The message names p^s in digits up to
    2^64 and as (p^s) past it, where str may refuse to print it.
    """
    if ring.s * exponent < budget.bit_length() and ring.modulus ** exponent <= budget:
        return
    base = ring.modulus if ring.s * (ring.p - 1).bit_length() <= 64 else f"({ring.p}^{ring.s})"
    raise BudgetExceededError(f"{base}^{_exponent_text(exponent)} {what} exceed budget {budget}")


@lru_cache(maxsize=16)
def _all_vectors(mod: int, m: int) -> np.ndarray:
    """All length-m vectors over Z/mod as an array, in mixed-radix order."""
    idx = np.arange(mod ** m, dtype=np.int64)
    out = np.empty((len(idx), m), dtype=np.int64)
    for j in range(m - 1, -1, -1):
        idx, out[:, j] = np.divmod(idx, mod)
    out.setflags(write=False)  # cached and shared
    return out


def row_span(mat: RingMatrix) -> set[tuple[int, ...]]:
    """The exact set {x M : x in R^m}; size is p^length(type)."""
    mod = mat.ring.modulus
    m = mat.nrows
    _check_power_budget(mat.ring, m, SPAN_BUDGET, "coefficient vectors")
    coeffs = _all_vectors(mod, m)
    products = coeffs @ mat.to_array() % mod
    return set(map(tuple, products.tolist()))


@dataclass(frozen=True)
class TypeCensus:
    """Counts of distinct submodules (or matrices) per type."""

    counts: dict
    total: int


def enumerate_submodules(ring: ConcreteRing, n: int) -> TypeCensus:
    """Exhaustive census of all submodules of R^n, classified by type.

    Walks up the submodule lattice one length at a time.  Every nonzero T
    has a maximal submodule S with T/S = Z/p, so T = S + R r for any r in T
    outside S, and T is the union of the p cosets a r + S, since p r lies in
    S.  The covers of S therefore split the r outside S with p r in S: take
    the first such r, form its cover, drop the cover's elements and repeat,
    and each cover of S comes out once.  Each length is deduped by membership
    bitset, which is the set itself.  A submodule keeps the chain of elements
    that built it, one per length, as generators, and one ``_types`` call on
    all the chains gives the types.  ``CENSUS_BUDGET`` bounds the (p^s)^(n*n)
    generator matrices whose spans these are, and so the submodules;
    ``SPAN_BUDGET`` bounds the (p^s)^n elements of R^n that every membership
    array holds.  Both are checked before any work, on their exponents first.
    """
    modcount._check_nonnegative(n=n)
    _check_power_budget(ring, n * n, CENSUS_BUDGET, "generator matrices")
    _check_power_budget(ring, n, SPAN_BUDGET, f"elements of R^{n}")
    p, mod = ring.p, ring.modulus
    vectors = _all_vectors(mod, n)
    weights = mod ** np.arange(n - 1, -1, -1, dtype=np.int64)
    times_p = p * vectors % mod @ weights  # the index of p x, for each x
    multiples = np.arange(1, p, dtype=np.int64)[:, None, None]  # the a of the cosets a r + S
    zero = np.zeros(len(vectors), dtype=bool)
    zero[0] = True
    level = [(zero, [])]  # (membership, generators) of each submodule of one length
    found = [[]]
    for _ in range(n * ring.s):
        covers = {}
        for mask, gens in level:
            members = vectors[mask]
            candidates = mask[times_p] & ~mask
            r = candidates.argmax()
            while candidates[r]:
                new = ((members + multiples * vectors[r]) % mod @ weights).ravel()
                candidates[new] = False
                cover = mask.copy()
                cover[new] = True
                covers.setdefault(np.packbits(cover).tobytes(), (cover, gens + [r]))
                r = candidates.argmax()
        level = list(covers.values())
        found += [gens for _, gens in level]
    chains = np.zeros((len(found), n * ring.s), dtype=np.int64)  # index 0 is the zero vector
    for row, gens in zip(chains, found):
        row[: len(gens)] = gens
    return TypeCensus(counts=_tally(_types(vectors[chains], ring)), total=len(found))


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
    modcount._check_nonnegative(m=m, n=n)
    rng = _generator(seed, stream)
    entries = rng.integers(0, ring.modulus, size=(m, n), dtype=np.int64)
    return RingMatrix(ring=ring, entries=tuple(map(tuple, entries.tolist())))


def _generator(seed: int, stream: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


_MC_CHUNK = 4096
# matrix entries one Monte Carlo census may draw and reduce: 4-9 s at 14-33 ns
# an entry (6 x 6 over Z/9 to 20 x 20 over Z/4)
MC_BUDGET = 1 << 28


def monte_carlo_type_distribution(
    m: int, n: int, ring: ConcreteRing, trials: int, seed: int
) -> TypeCensus:
    """Empirical type counts over ``trials`` uniform matrices.

    Trials are split into fixed-size chunks, chunk i drawing from stream i, so
    the census depends only on the seed and the trial count.  More than
    ``MC_BUDGET`` entries, each trial counted as at least one, raise
    BudgetExceededError before any is drawn.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    modcount._check_nonnegative(m=m, n=n)
    if trials * max(m * n, 1) > MC_BUDGET:
        raise BudgetExceededError(f"{trials} trials of {m}x{n} matrices exceed budget {MC_BUDGET} entries")
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
