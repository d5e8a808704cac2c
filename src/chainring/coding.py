"""Weights on Z/p^s, exact ball volumes, growth rates and the
Gilbert-Varshamov random-code experiment.

Three weights are supported, each extended additively to tuples: Hamming
(count of nonzero entries), Lee (min(x, p^s - x) per symbol) and homogeneous
(p/(p-1) on the nonzero elements of the minimal ideal, 1 elsewhere except 0).
Symbol weights may be rational, so they are scaled by their common
denominator onto an integer grid; ball volumes are exact big-integer counts
on that grid, read coefficient by coefficient off a short linear recurrence
with one exact division per coefficient, and all radius comparisons happen on
the grid with no floating point involved.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .approx import ApproxReal
from .errors import BudgetExceededError, ParameterError
from .modcount import unimodular_probability
from .qseries import _charge, _product_cost
from .simulate import SPAN_BUDGET, ConcreteRing, RingMatrix, _all_vectors, _check_power_budget, _types, sample_matrix

HAMMING = "hamming"
LEE = "lee"
HOMOGENEOUS = "homogeneous"
KINDS = (HAMMING, LEE, HOMOGENEOUS)

MIN_DISTANCE_BUDGET = 1 << 20
# codeword symbols all the trials of one GV experiment may weigh: a trial's
# (p^s)^k codewords of n symbols, at least _TRIAL_FLOOR codewords for its
# sampling and reduction.  A symbol costs 0.2-0.4 ns on one core (Lee on Z/4,
# k = 8 at n = 12 to k = 10 at n = 300), and a trial at k = 3 costs 47 us at
# n = 8 and 0.37 ms at n = 300; the largest admitted runs take 3-12 s
TRIAL_BUDGET = 1 << 35
_TRIAL_FLOOR = 1 << 14
_TRIAL_CHUNK = 4096  # matrices drawn at once by the GV experiment; results do not depend on it
# entries of min_distance_exhaustive's weight table: g columns share one index
# while (2 p^s - 1)^g fits; results do not depend on it
_TABLE_SIZE = 1 << 17


@dataclass(frozen=True)
class WeightModel:
    """A symbol-weight table on its integer grid: symbol x weighs int_weights[x] / scale."""

    kind: str
    ring: ConcreteRing
    scale: int
    int_weights: tuple[int, ...]

    def __hash__(self) -> int:
        # equal models agree on these three, and hashing the p^s-entry table
        # on every cache lookup would cost more than most lookups save
        return hash((self.kind, self.ring, self.scale))

    @property
    def symbol_weights(self) -> tuple[Fraction, ...]:
        """The weight of each symbol; symbols of equal weight share one Fraction."""
        fractions = [Fraction(w, self.scale) for w in range(max(self.int_weights) + 1)]
        return tuple(map(fractions.__getitem__, self.int_weights))

    @property
    def max_symbol_weight(self) -> Fraction:
        return Fraction(max(self.int_weights), self.scale)

    @property
    def eta(self) -> Fraction:
        """Largest over least nonzero symbol weight."""
        return Fraction(max(self.int_weights), min(self.int_weights[1:]))

    def max_weight(self, n: int) -> Fraction:
        """Largest weight a length-n tuple can have."""
        return n * self.max_symbol_weight

    def distance_threshold(self) -> float:
        """Least relative radius whose ball exhausts the space asymptotically.

        For every weight this is the mean symbol weight over the maximal one,
        exactly, rounded once: 1 - 1/p^s for Hamming and 1 - 1/p for
        homogeneous (1/2 on Z/4, 2/3 on Z/9).  For Lee it is 1/2 when p^s is
        even and (t+1)/(2t+1) when p^s = 2t+1 (3/5 on Z/5, 5/9 on Z/9).
        """
        return float(Fraction(sum(self.int_weights), self.ring.modulus * max(self.int_weights)))


@lru_cache(maxsize=8)
def make_weight_model(kind: str, ring: ConcreteRing) -> WeightModel:
    """Build the symbol-weight table of a built-in weight on Z/p^s.

    Each of the three kinds is positive definite, symmetric and satisfies the
    triangle inequality by construction, so the table is not re-checked here
    (the test suite checks all three axioms on every table up to Z/32).
    Repeated builds return the same model, so the caches keyed on it hit by
    identity and never compare its p^s-entry tables.  A table of more than
    ``simulate.SPAN_BUDGET`` symbols raises BudgetExceededError unbuilt.
    """
    _check_power_budget(ring, 1, SPAN_BUDGET, "weight-table symbols")
    mod = ring.modulus
    if kind == HAMMING:
        scale, int_weights = 1, (0,) + (1,) * (mod - 1)
    elif kind == LEE:
        # min(x, mod - x): up to mod/2, then back down to 1
        scale, int_weights = 1, tuple(range(mod // 2 + 1)) + tuple(range((mod - 1) // 2, 0, -1))
    elif kind == HOMOGENEOUS:
        # p/(p-1) on the minimal ideal, 1 elsewhere: p and p - 1 on the grid
        ideal, scale = ring.p ** (ring.s - 1), ring.p - 1
        int_weights = tuple(0 if x == 0 else ring.p if x % ideal == 0 else scale for x in range(mod))
    else:
        raise ParameterError(f"unknown weight kind {kind!r}; expected one of {KINDS}")
    return WeightModel(kind=kind, ring=ring, scale=scale, int_weights=int_weights)


@dataclass(frozen=True)
class BallProfile:
    """Cumulative ball sizes of R^n on the integer weight grid.

    ``cumulative[w]`` counts the tuples of scaled weight <= w; the last entry
    is the whole space (p^s)^n.
    """

    n: int
    scale: int
    cumulative: tuple[int, ...]


@lru_cache(maxsize=64)
def ball_profile(n: int, model: WeightModel) -> BallProfile:
    """Exact weight distribution of R^n: the running sums of the coefficients of h(z)^n.

    h(z) = sum_x z^(int_weights[x]) is the symbol histogram.  With its least
    weight factored out, h = z^low f and f(0) > 0, the profile past the
    leading zeros is C = f^n / (1 - z).  With g = (1 - z) f, which has at most
    five terms for the built-in weights (Lee: 1 + z - z^t - z^(t+1) on Z/2t),
    C satisfies (1 - z) g C' = (n (1 - z) g' + (n + 1) g) C, and its
    coefficient of z^(k-1) reads, with m = n + 1,

        k g_0 C_k = sum_(j >= 1) (m j g_j - (m (j - 1) - n) g_(j-1) - k (g_j - g_(j-1))) C_(k-j),

    from C_0 = g_0^n.  So each coefficient is a few multiples of earlier ones
    by small integers and one exact division by k g_0, with no product of two
    big integers: n (max(w) - low) steps on numbers of up to n log2(p^s) bits.
    Before any work, the profile is charged to ``qseries.TOTAL_BUDGET`` as
    one product of n^2 (max(w) - low) log2(p^s) bits, a bound from above:
    Lee on Z/4 at n = 3514, the largest admitted, takes about 0.05 s and 6 MB.
    """
    if n < 0:
        raise ParameterError("n must be nonnegative")
    counts = Counter(model.int_weights)
    low, high = min(counts), max(counts)
    _charge("exact count", lambda: _product_cost(n * (n * (high - low) * math.log2(model.ring.modulus))))
    g = Counter()  # (1 - z) f
    for w, c in counts.items():
        g[w - low] += c
        g[w - low + 1] -= c
    m = n + 1
    steps = [
        (j, m * j * g[j] - (m * (j - 1) - n) * g[j - 1], g[j] - g[j - 1])
        for j in sorted({i + d for i, c in g.items() if c for d in (0, 1)} - {0})
    ]
    lag = steps[-1][0]
    cumulative = [0] * lag + [g[0] ** n]  # C_(k-j) is cumulative[-j] when C_k is appended
    for k in range(1, n * (high - low) + 1):
        total = 0
        for j, alpha, beta in steps:
            total += (alpha - k * beta) * cumulative[-j]
        cumulative.append(total // (k * g[0]))
    return BallProfile(n=n, scale=model.scale, cumulative=(0,) * (n * low) + tuple(cumulative[lag:]))


def ball_volume(n: int, radius, model: WeightModel, closed: bool = True) -> int:
    """Exact number of tuples with weight <= radius (closed) or < radius (open)."""
    radius = Fraction(radius)
    if radius < 0:
        raise ParameterError("radius must be nonnegative")
    profile = ball_profile(n, model)
    scaled = radius * model.scale
    cut = math.floor(scaled) if closed else math.ceil(scaled) - 1
    if cut < 0:
        return 0
    return profile.cumulative[min(cut, len(profile.cumulative) - 1)]


def gv_lower_bound(n: int, distance, model: WeightModel) -> Fraction:
    """Existence bound: some code with that minimum distance has size >= this."""
    distance = Fraction(distance)
    if distance <= 0:
        raise ParameterError("distance must be positive")
    open_ball = ball_volume(n, distance, model, closed=False)
    return Fraction(model.ring.modulus ** n, open_ball)


def q_ary_entropy(base: int, delta: float) -> float:
    """The base-ary entropy function on [0, 1]."""
    if not 0.0 <= delta <= 1.0:
        raise ParameterError("delta must lie in [0, 1]")
    if delta == 0.0:
        return 0.0
    log_b = math.log(base)
    value = delta * math.log(base - 1) - delta * math.log(delta)
    if delta < 1.0:
        value -= (1.0 - delta) * math.log(1.0 - delta)
    return value / log_b


def entropy_estimate(n: int, delta: float, model: WeightModel) -> ApproxReal:
    """Finite-n growth rate: log of the closed ball at relative radius delta.

    (1/n) log_{p^s} of the closed-ball size V at scaled radius
    floor(delta * n * max_symbol_weight); converges to the weight's entropy
    and for Hamming to ``q_ary_entropy``.

    The error bound 1e-13 |value| covers the rounding, with u = 2^-53 and
    libm's log within one ulp (2u relative):
    - V is an integer, so either V = 1 and value = 0 exactly, or
      log(V) >= log(2).
    - Below 2^1024, math.log rounds V to a double, an absolute error of at
      most u in log(V), so at most 1.45u relative, then takes the log: 3.45u.
    - From 2^1024 on, it takes log(m) + e log(2) with V = m 2^e rounded,
      m in [1/2, 1) (frexp).  log(m) is off by at most 2u absolutely (u
      from rounding m, one ulp of a value below log(2)), under 0.003u of
      log(V) >= 709; e log(2) by 2u (the log) plus u (the product), and the
      sum rounds once: 4.01u.
    - n log(p^s) is off by 2u (the log) plus u (the product), and the
      division rounds once.
    That is at most 4.01u + 3u + u < 8.2u, or 9.2e-16 |value|, to first
    order, so 1e-13 |value| holds with a factor of about 100 to spare.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 <= delta <= 1.0:
        raise ParameterError("delta must lie in [0, 1]")
    profile = ball_profile(n, model)
    max_scaled = len(profile.cumulative) - 1
    cut = min(math.floor(Fraction(delta) * max_scaled), max_scaled)
    volume = profile.cumulative[cut]
    value = math.log(volume) / (n * math.log(model.ring.modulus))
    return ApproxReal(value, abs(value) * 1e-13 + 5e-324)


def min_distance_exhaustive(mat: RingMatrix, model: WeightModel):
    """Minimum weight over nonzero codewords x G, by meet in the middle.

    Coefficient vectors x with x G = 0 are skipped; the zero code gets the
    +infinity sentinel so ensemble statistics never abort.

    Every codeword is a + b mod p^s, with a = x_A G_top (the top ceil(k/2)
    rows) and b = x_B G_bot both reduced, so a digit of a + b lies below
    radix = 2 p^s - 1.  g columns of each half pack into one number in that
    radix, radix^g <= ``_TABLE_SIZE`` (or g = 1), and the outer sum of the
    packed halves indexes a table of summed digit weights, digits reduced mod
    p^s; all in integers.  When w(-x) = w(x), as for the built-in weights, x_A
    runs over one of each pair {x, -x}: (-x_A, -x_B) stands for (x_A, x_B).
    """
    if mat.ring != model.ring:
        raise ParameterError(f"matrix ring {mat.ring} does not match weight model ring {model.ring}")
    mod = mat.ring.modulus
    k, n = mat.nrows, mat.ncols
    _check_power_budget(mat.ring, k, MIN_DISTANCE_BUDGET, "codewords")
    g, pack, table, symmetric = _packing(model, n)
    coeffs, split = _halves(mod, k, symmetric)
    gen = mat.to_array()
    wt = np.zeros((split, coeffs.shape[1] - split), dtype=table.dtype)
    # one pass per `step` columns: whole groups, at most MIN_DISTANCE_BUDGET indices
    step = g * max(1, MIN_DISTANCE_BUDGET // wt.size)
    for lo in range(0, n, step):
        words = gen[:, lo : lo + step].T @ coeffs
        words %= mod
        if g > 1:  # with g = 1 every digit is its own index
            words = pack[lo // g : (lo + step) // g, lo : lo + step] @ words
        wt += table[words[:, :split, None] + words[:, None, split:]].sum(axis=0, dtype=wt.dtype)
    nonzero = wt[wt > 0]
    return Fraction(int(nonzero.min()), model.scale) if nonzero.size else math.inf


@lru_cache(maxsize=16)
def _halves(mod: int, k: int, symmetric: bool) -> tuple[np.ndarray, int]:
    """Columns (x_A, 0), then (0, x_B), and the split; x_A one of each {x, -x} if ``symmetric``."""
    ka = -(-k // 2)
    top = _all_vectors(mod, ka)
    if symmetric:
        top = top[np.arange(len(top)) <= -top % mod @ mod ** np.arange(ka - 1, -1, -1)]
    bottom = _all_vectors(mod, k - ka)
    block = np.zeros((k, len(top) + len(bottom)), dtype=np.int64)
    block[:ka, : len(top)] = top.T
    block[ka:, len(top) :] = bottom.T
    block.setflags(write=False)
    return block, len(top)


@lru_cache(maxsize=8)
def _packing(model: WeightModel, n: int) -> tuple[int, np.ndarray, np.ndarray, bool]:
    """Group size g, packing matrix, weight table and the w(-x) = w(x) check, for length n.

    Row j of the packing matrix maps group j's g columns to sum_i digit_i radix^i;
    the table's unsigned dtype holds n max(w), the most a word can weigh.
    """
    int_weights = model.int_weights
    mod = len(int_weights)
    radix, g = 2 * mod - 1, 1
    while g < n and radix ** (g + 1) <= _TABLE_SIZE:
        g += 1
    column = np.arange(n)
    pack = np.zeros((-(-n // g), n), dtype=np.int64)
    pack[column // g, column] = radix ** (column % g)
    lut = np.array(int_weights, dtype=np.min_scalar_type(n * max(int_weights)))
    digit = lut[np.arange(radix) % mod]
    table = digit
    for _ in range(g - 1):  # prepend one more significant digit
        table = (digit[:, None] + table).ravel()
    pack.setflags(write=False)
    table.setflags(write=False)
    return g, pack, table, bool((lut[1:] == lut[:0:-1]).all())


@dataclass(frozen=True)
class TrialOutcome:
    stream: int
    free: bool
    min_distance: object  # Fraction or math.inf


@dataclass(frozen=True)
class GVExperimentReport:
    """Outcome of the random-generator-matrix experiment.

    ``bound`` is the theoretical success probability
    (1/q)_n / (1/q)_{n-k} * (1 - q^(s (1 - epsilon n))), clamped at 0 and
    flagged ``vacuous`` when the second factor is nonpositive; ``sigma`` is
    the binomial deviation of the joint frequency at that bound.
    """

    p: int
    s: int
    metric: str
    n: int
    delta: float
    epsilon: float
    trials: int
    seed: int
    k: int
    growth_rate: float
    distance_cutoff: Fraction
    unimodular_probability: Fraction
    tail_factor: float
    bound: float
    vacuous: bool
    sigma: float
    free_count: int
    distance_count: int
    joint_count: int
    outcomes: tuple[TrialOutcome, ...]

    @property
    def free_fraction(self) -> float:
        return self.free_count / self.trials

    @property
    def distance_fraction(self) -> float:
        return self.distance_count / self.trials

    @property
    def joint_fraction(self) -> float:
        return self.joint_count / self.trials

    @property
    def passed_joint(self) -> bool:
        return self.joint_fraction >= max(0.0, self.bound) - 4.0 * self.sigma

    @property
    def free_sigma(self) -> float:
        pu = float(self.unimodular_probability)
        return math.sqrt(pu * (1.0 - pu) / self.trials)

    @property
    def passed_free(self) -> bool:
        return abs(self.free_fraction - float(self.unimodular_probability)) <= 4.0 * self.free_sigma

    @property
    def passed(self) -> bool:
        return self.passed_joint and self.passed_free


def gv_random_experiment(
    n: int,
    delta: float,
    epsilon: float,
    model: WeightModel,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> GVExperimentReport:
    """Sample random k x n generator matrices and test them against the bound.

    k = ceil((1 - g_n(delta) - epsilon) n).  Per trial: is the row span free
    of rank k, and is the minimum distance above delta times the maximal
    weight.  Trial t draws from stream t of the seed, so any execution order
    reproduces the same report.  More than ``TRIAL_BUDGET`` codeword symbols
    over all trials, max((p^s)^k, ``_TRIAL_FLOOR``) codewords of n symbols a
    trial, raise BudgetExceededError before any matrix is sampled.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    for name, value in (("delta", delta), ("epsilon", epsilon)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    ring = model.ring
    if not 0.0 <= delta:
        raise ParameterError("delta must be nonnegative")
    threshold = model.distance_threshold()
    if delta >= threshold:
        raise ParameterError(f"delta must lie below the entropy threshold {threshold}")
    growth = entropy_estimate(n, delta, model).value
    if not 0.0 < epsilon < 1.0 - growth:
        raise ParameterError(
            f"epsilon must lie in (0, 1 - g_n(delta)) = (0, {1.0 - growth:.6f}); g_n = {growth:.6f}"
        )
    k = math.ceil((1.0 - growth - epsilon) * n)
    if k < 1:
        raise ParameterError(f"computed k = {k} < 1; increase n or decrease epsilon")
    _check_power_budget(ring, k, MIN_DISTANCE_BUDGET, "codewords")
    per_trial = max(ring.modulus ** k, _TRIAL_FLOOR) * n
    if trials * per_trial > TRIAL_BUDGET:
        raise BudgetExceededError(
            f"{trials} trials of {per_trial} codeword symbols each exceed budget {TRIAL_BUDGET}"
        )

    cutoff = Fraction(delta) * model.max_weight(n)

    distance = partial(min_distance_exhaustive, model=model)
    # freeness of a whole chunk of trials from one batched reduction
    free_type = (k,) + (0,) * (ring.s - 1)
    outcomes = []
    for lo in range(0, trials, _TRIAL_CHUNK):
        streams = range(lo, min(lo + _TRIAL_CHUNK, trials))
        mats = [sample_matrix(k, n, ring, seed, t) for t in streams]
        free = (_types(np.array([m.entries for m in mats]), ring) == free_type).all(axis=1).tolist()
        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor

            # a pool starts a thread per task while none is idle, so it is capped at the chunk and the cores
            with ThreadPoolExecutor(max_workers=min(jobs, len(mats), os.cpu_count() or 1)) as pool:
                dists = list(pool.map(distance, mats))
        else:
            dists = [distance(m) for m in mats]
        outcomes += map(TrialOutcome, streams, free, dists)
    outcomes = tuple(outcomes)

    free_count = sum(1 for o in outcomes if o.free)
    distance_count = sum(1 for o in outcomes if o.min_distance > cutoff)
    joint_count = sum(1 for o in outcomes if o.free and o.min_distance > cutoff)

    unimod = unimodular_probability(k, n, ring.spec())
    tail_factor = 1.0 - float(ring.p) ** (ring.s * (1.0 - epsilon * n))
    bound = max(0.0, float(unimod) * tail_factor)
    sigma = math.sqrt(bound * (1.0 - bound) / trials) if 0.0 < bound < 1.0 else 0.0

    return GVExperimentReport(
        p=ring.p,
        s=ring.s,
        metric=model.kind,
        n=n,
        delta=delta,
        epsilon=epsilon,
        trials=trials,
        seed=seed,
        k=k,
        growth_rate=growth,
        distance_cutoff=cutoff,
        unimodular_probability=unimod,
        tail_factor=tail_factor,
        bound=bound,
        vacuous=tail_factor <= 0.0,
        sigma=sigma,
        free_count=free_count,
        distance_count=distance_count,
        joint_count=joint_count,
        outcomes=outcomes,
    )
