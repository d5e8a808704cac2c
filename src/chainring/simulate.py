"""Concrete arithmetic over Z/p^s: matrix types, exhaustive submodule censuses
and seeded random matrix ensembles.

The census enumerator is the ground truth the counting formulas are checked
against: it walks every n x n generator matrix (any submodule of R^n needs at
most n generators), dedupes row spans, and classifies each distinct module by
diagonal reduction.  Randomness comes from numpy's PCG64 seeded through
SeedSequence(seed, spawn_key=(stream,)); a fixed (seed, stream) pair always
reproduces the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, ParameterError, VerificationError
from . import modcount
from .modcount import ChainRingSpec

SPAN_BUDGET = 1 << 20
CENSUS_BUDGET = 1 << 24
_CENSUS_CHUNK = 1 << 13


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


def _type_of(work: list[list[int]], ring: ConcreteRing) -> tuple[int, ...]:
    """Diagonal reduction in place; returns the type of the row span.

    Repeatedly move an entry of minimal valuation v to the pivot: it is a unit
    times p^v, so after scaling by the unit inverse its row and column clear
    with exact divisions (every remaining entry has valuation >= v).  Each
    pivot p^v with v < s contributes one cyclic summand of length s - v.
    """
    mod = ring.modulus
    p, s = ring.p, ring.s
    m = len(work)
    n = len(work[0]) if m else 0
    counts = [0] * s
    r = 0
    size = min(m, n)
    while r < size:
        best = None
        best_v = s
        for i in range(r, m):
            row = work[i]
            for j in range(r, n):
                if row[j]:
                    v = valuation(row[j], ring)
                    if v < best_v:
                        best_v = v
                        best = (i, j)
                        if v == 0:
                            break
            if best_v == 0:
                break
        if best is None:
            break
        i0, j0 = best
        if i0 != r:
            work[i0], work[r] = work[r], work[i0]
        if j0 != r:
            for row in work:
                row[j0], row[r] = row[r], row[j0]
        pivot = work[r][r]
        unit = pivot // p ** best_v
        inv = pow(unit, -1, mod)
        work[r] = [(x * inv) % mod for x in work[r]]
        pv = p ** best_v
        for i in range(r + 1, m):
            factor = work[i][r] // pv
            if factor:
                row_i, row_r = work[i], work[r]
                for j in range(r, n):
                    row_i[j] = (row_i[j] - factor * row_r[j]) % mod
        row_r = work[r]
        for j in range(r + 1, n):
            factor = row_r[j] // pv
            if factor:
                for i in range(r, m):
                    work[i][j] = (work[i][j] - factor * work[i][r]) % mod
        counts[best_v] += 1  # nonzero pivot, so best_v < s
        r += 1
    # counts indexed by pivot valuation v; type position is i = v + 1
    return tuple(counts)


def matrix_type(mat: RingMatrix) -> tuple[int, ...]:
    """Type of the module generated by the rows, via diagonal reduction."""
    work = [list(row) for row in mat.entries]
    if not work:
        return (0,) * mat.ring.s
    return _type_of(work, mat.ring)


def is_rect_unimodular(mat: RingMatrix) -> bool:
    """Whether the matrix extends to an invertible square one (free, full rank)."""
    if mat.nrows > mat.ncols:
        raise ParameterError(f"need rows <= cols, got {mat.nrows} x {mat.ncols}")
    free = (mat.nrows,) + (0,) * (mat.ring.s - 1)
    return matrix_type(mat) == free


@lru_cache(maxsize=None)
def _all_vectors(mod: int, m: int) -> np.ndarray:
    """All length-m vectors over Z/mod as an array, in mixed-radix order."""
    idx = np.arange(mod ** m, dtype=np.int64)
    out = np.empty((mod ** m, m), dtype=np.int64)
    for j in range(m - 1, -1, -1):
        out[:, j] = idx % mod
        idx //= mod
    out.setflags(write=False)  # cached and shared
    return out


def row_span(mat: RingMatrix, budget: int = SPAN_BUDGET) -> set[tuple[int, ...]]:
    """The exact set {x M : x in R^m}; size is p^length(type)."""
    mod = mat.ring.modulus
    m = mat.nrows
    if mod ** m > budget:
        raise BudgetExceededError(f"{mod}^{m} coefficient vectors exceed budget {budget}")
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


def enumerate_submodules(ring: ConcreteRing, n: int, budget: int = CENSUS_BUDGET) -> TypeCensus:
    """Exhaustive census of all submodules of R^n, classified by type.

    Walks all (p^s)^(n*n) generator matrices in batches; a span is keyed by
    the sorted multiset of its coefficient products, which is canonical
    because every span element occurs with the same multiplicity.
    """
    mod = ring.modulus
    total_matrices = mod ** (n * n)
    if total_matrices > budget:
        raise BudgetExceededError(
            f"{mod}^{n * n} generator matrices exceed budget {budget}"
        )
    # float32 matmul is exact here: every dot product is < n * mod^2 << 2^24
    coeffs = _all_vectors(mod, n).astype(np.float32)
    radix = mod ** np.arange(n - 1, -1, -1, dtype=np.int32)
    representatives: dict[bytes, tuple] = {}
    for lo in range(0, total_matrices, _CENSUS_CHUNK):
        hi = min(lo + _CENSUS_CHUNK, total_matrices)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = np.empty((hi - lo, n * n), dtype=np.int64)
        for j in range(n * n - 1, -1, -1):
            digits[:, j] = idx % mod
            idx //= mod
        mats = digits.reshape(hi - lo, n, n)
        products = (coeffs @ mats.astype(np.float32)).astype(np.int32) % mod
        codes = products @ radix
        codes.sort(axis=1)
        for row, mat in zip(codes, mats):
            key = row.tobytes()
            if key not in representatives:
                representatives[key] = tuple(map(tuple, mat.tolist()))
    counts: dict[tuple[int, ...], int] = {}
    for entries in representatives.values():
        t = _type_of([list(r) for r in entries], ring)
        counts[t] = counts.get(t, 0) + 1
    return TypeCensus(counts=counts, total=len(representatives))


def verify_census(ring: ConcreteRing, n: int, budget: int = CENSUS_BUDGET):
    """Compare the exhaustive census against the counting formulas, per type.

    Returns (census, rows, ok); each row is (type, counted, formula, match).
    """
    census = enumerate_submodules(ring, n, budget)
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
    counts: dict[tuple[int, ...], int] = {}
    for stream, lo in enumerate(range(0, trials, _MC_CHUNK)):
        count = min(_MC_CHUNK, trials - lo)
        batch = _generator(seed, stream).integers(0, ring.modulus, size=(count, m, n), dtype=np.int64)
        for mat in batch.tolist():
            t = _type_of(mat, ring)
            counts[t] = counts.get(t, 0) + 1
    return TypeCensus(counts=counts, total=trials)


_MATRIX_COUNT_POINTS = ((1, 2, 2, 2), (2, 2, 2, 2), (1, 1, 2, 3))


def validate_matrix_count_interpretation(points=_MATRIX_COUNT_POINTS):
    """Exhaustively check the matrix-count formula at small parameter points.

    Enumerates every m x n matrix over Z/p^s, tallies types, and compares with
    ``modcount.matrix_count_by_type``.  Raises VerificationError on any
    mismatch so a misread formula can never ship quietly.
    """
    for m, n, p, s in points:
        ring = ConcreteRing(p=p, s=s)
        spec = ring.spec()
        mod = ring.modulus
        tallies: dict[tuple[int, ...], int] = {}
        for flat in _all_vectors(mod, m * n).tolist():
            entries = [flat[i * n : (i + 1) * n] for i in range(m)]
            t = _type_of(entries, ring)
            tallies[t] = tallies.get(t, 0) + 1
        for t, counted in sorted(tallies.items()):
            formula = modcount.matrix_count_by_type(m, n, spec, t)
            if formula != counted:
                raise VerificationError(
                    f"matrix count mismatch at (m={m}, n={n}, p={p}, s={s}), "
                    f"type {t}: formula {formula} != enumerated {counted}"
                )
        if sum(tallies.values()) != mod ** (m * n):
            raise VerificationError("matrix tally does not cover the full space")
    return points
