"""Weights on Z/p^s, exact ball volumes, growth rates and the
Gilbert-Varshamov random-code experiment.

Three weights are supported, each extended additively to tuples: Hamming
(count of nonzero entries), Lee (min(x, p^s - x) per symbol) and homogeneous
(p/(p-1) on the nonzero elements of the minimal ideal, 1 elsewhere except 0).
Symbol weights may be rational, so they are scaled by their common
denominator onto an integer grid; ball volumes are exact big-integer counts
computed by an n-fold convolution on that grid, and all radius comparisons
happen on the grid with no floating point involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .approx import ApproxReal
from .errors import BudgetExceededError, ParameterError
from .modcount import unimodular_probability
from .simulate import ConcreteRing, RingMatrix, _all_vectors, _types, sample_matrix

HAMMING = "hamming"
LEE = "lee"
HOMOGENEOUS = "homogeneous"
KINDS = (HAMMING, LEE, HOMOGENEOUS)

MIN_DISTANCE_BUDGET = 1 << 20
_TRIAL_CHUNK = 4096  # matrices drawn at once by the GV experiment; results do not depend on it


@dataclass(frozen=True)
class WeightModel:
    """A symbol-weight table with its integer-grid scaling."""

    kind: str
    ring: ConcreteRing
    symbol_weights: tuple[Fraction, ...]
    scale: int
    int_weights: tuple[int, ...]
    max_symbol_weight: Fraction
    eta: Fraction

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
        return float(Fraction(sum(self.symbol_weights), self.ring.modulus) / self.max_symbol_weight)


def make_weight_model(kind: str, ring: ConcreteRing) -> WeightModel:
    """Build the symbol-weight table of a built-in weight on Z/p^s.

    Each of the three kinds is positive definite, symmetric and satisfies the
    triangle inequality by construction, so the table is not re-checked here
    (the test suite checks all three axioms on every table up to Z/32).
    """
    mod = ring.modulus
    if kind == HAMMING:
        weights = [Fraction(0)] + [Fraction(1)] * (mod - 1)
    elif kind == LEE:
        weights = [Fraction(min(x, mod - x)) for x in range(mod)]
    elif kind == HOMOGENEOUS:
        ideal = ring.p ** (ring.s - 1)
        unit_share = Fraction(ring.p, ring.p - 1)
        weights = [
            Fraction(0) if x == 0 else (unit_share if x % ideal == 0 else Fraction(1))
            for x in range(mod)
        ]
    else:
        raise ParameterError(f"unknown weight kind {kind!r}; expected one of {KINDS}")

    scale = math.lcm(*(w.denominator for w in weights))
    nonzero = weights[1:]
    return WeightModel(
        kind=kind,
        ring=ring,
        symbol_weights=tuple(weights),
        scale=scale,
        int_weights=tuple(int(w * scale) for w in weights),
        max_symbol_weight=max(weights),
        eta=max(nonzero) / min(nonzero),
    )


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
    """Exact weight distribution of R^n via n-fold convolution of the symbol histogram."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    max_int = max(model.int_weights)
    histogram = [0] * (max_int + 1)
    for w in model.int_weights:
        histogram[w] += 1
    counts = [1]
    for _ in range(n):
        new = [0] * (len(counts) + max_int)
        for pos, c in enumerate(counts):
            if c:
                for w, h in enumerate(histogram):
                    if h:
                        new[pos + w] += c * h
        counts = new
    cumulative = []
    running = 0
    for c in counts:
        running += c
        cumulative.append(running)
    return BallProfile(n=n, scale=model.scale, cumulative=tuple(cumulative))


def ball_volume(n: int, radius, model: WeightModel, closed: bool = True) -> int:
    """Exact number of tuples with weight <= radius (closed) or < radius (open)."""
    radius = Fraction(radius)
    if radius < 0:
        raise ParameterError("radius must be nonnegative")
    profile = ball_profile(n, model)
    scaled = radius * model.scale
    if closed:
        cut = math.floor(scaled)
    else:
        cut = math.ceil(scaled) - 1
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

    (1/n) log_{p^s} of the closed-ball size at scaled radius
    floor(delta * n * max_symbol_weight); converges to the weight's entropy
    and for Hamming to ``q_ary_entropy``.
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


def min_distance_exhaustive(mat: RingMatrix, model: WeightModel, budget: int = MIN_DISTANCE_BUDGET):
    """Minimum weight over nonzero codewords x G, by full enumeration.

    Coefficient vectors x with x G = 0 are skipped; the zero code gets the
    +infinity sentinel so ensemble statistics never abort.
    """
    if mat.ring != model.ring:
        raise ParameterError(f"matrix ring {mat.ring} does not match weight model ring {model.ring}")
    mod = mat.ring.modulus
    k = mat.nrows
    if mod ** k > budget:
        raise BudgetExceededError(f"{mod}^{k} codewords exceed budget {budget}")
    # float32 products are exact below 2^24 and then fit int32; int64 beyond
    small = k * (mod - 1) ** 2 < 1 << 24
    gen = mat.to_array().astype(np.float32 if small else np.int64)
    # a codeword weighs at most n * max(int_weights)
    wdtype = np.int32 if mat.ncols * max(model.int_weights) < 1 << 31 else np.int64
    lut = np.array(model.int_weights, dtype=wdtype)
    ones = np.ones(mat.ncols, dtype=wdtype)
    best = None
    total = mod ** k
    chunk = 1 << 17
    coeffs = _coeff_block(mod, k, gen.dtype)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        prods = coeffs[lo:hi] @ gen
        symbols = prods.astype(np.int32) % mod if small else prods % mod
        wt = lut[symbols] @ ones
        nz = wt[wt > 0]
        if nz.size:
            low = int(nz.min())
            best = low if best is None else min(best, low)
    if best is None:
        return math.inf
    return Fraction(best, model.scale)


@lru_cache(maxsize=1)  # keep at most one large block around
def _coeff_block(mod: int, k: int, dtype) -> np.ndarray:
    block = _all_vectors(mod, k).astype(dtype)
    block.setflags(write=False)
    return block


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
    reproduces the same report.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
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
    if ring.modulus ** k > MIN_DISTANCE_BUDGET:
        raise BudgetExceededError(
            f"{ring.modulus}^{k} codewords exceed budget {MIN_DISTANCE_BUDGET}"
        )

    cutoff = Fraction(delta) * model.max_weight(n)

    def distance(mat: RingMatrix):
        return min_distance_exhaustive(mat, model)

    # freeness of a whole chunk of trials from one batched reduction
    free_type = (k,) + (0,) * (ring.s - 1)
    outcomes = []
    for lo in range(0, trials, _TRIAL_CHUNK):
        streams = range(lo, min(lo + _TRIAL_CHUNK, trials))
        mats = [sample_matrix(k, n, ring, seed, t) for t in streams]
        free = (_types(np.array([m.entries for m in mats]), ring) == free_type).all(axis=1).tolist()
        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=jobs) as pool:
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
