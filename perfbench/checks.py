"""Correctness gate: stored references, identities and independent values.

All of it runs after the timed job list.  A job fails if it raised, returned
the wrong exit code, produced an output that differs from its reference, or
returned a certificate (an ``ApproxReal``) whose interval misses an
independently computed value.

References (``reference.json``) cover every job any seed can draw, except the
random ensembles, whose outputs depend on the seed and are stored for
``DEFAULT_SEED`` only.  Exact ints and fractions are stored as hexadecimal
strings (decimal conversion of the largest ones trips Python's 4300-digit
limit), long ones as their sha256; CLI results as exit code and stdout sha256.
Densities are checked against values computed with mpmath, never against the
library's own floats: at 50 digits live for s <= 4, and from stored 30-digit
values for s >= 5, whose series are too slow to sum at run time.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath

from jobs import DEFAULT_SEED, job_key

REFERENCE_PATH = Path(__file__).with_name("reference.json")
LIVE_TRUTH_MAX_S = 4
DENSITY_JOB_FNS = (
    "limit_free_density", "density_bounds", "andrews_gordon_series",
    "andrews_gordon_product", "depth_two_density", "table1_rows",
)


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _short(text: str) -> str:
    return text if len(text) <= 200 else "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def exact_repr(value) -> str:
    """Canonical string of an exact int or Fraction."""
    if isinstance(value, Fraction):
        return _short(f"{value.numerator:x}/{value.denominator:x}")
    return _short(f"{value:x}")


def canonical(fn: str, result) -> str | None:
    """Canonical string of a library job's output, or None if it is a float."""
    if fn.startswith("free_fraction"):
        return exact_repr(result)
    if fn == "verify_census":
        census, rows, ok = result
        text = ";".join(f"{t}:{c}:{f:x}:{m}" for t, c, f, m in rows) + f"|{census.total}|{ok}"
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    if fn == "monte_carlo_type_distribution":
        text = repr(sorted(result.counts.items())) + f"|{result.total}"
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    if fn == "gv_random_experiment":
        fields = (result.k, result.free_count, result.distance_count, result.joint_count)
        dists = ",".join(str(o.min_distance) + ("f" if o.free else "") for o in result.outcomes)
        return "sha256:" + hashlib.sha256(f"{fields}|{dists}".encode()).hexdigest()
    return None


def cli_outcome(rc, out: str) -> list:
    return [rc, hashlib.sha256(out.encode()).hexdigest()]


# ------------------------------------------------------------ mpmath values


def _finite_poch(x, k, cache):
    while len(cache) <= k:
        cache.append(cache[-1] * (1 - x ** len(cache)))
    return cache[k]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k,) + rest


def mp_limit_density(q: int, s: int, dps: int):
    """Reciprocal of the divisibility-constrained multi-sum, summed in mpmath.

    Summation runs over index sums T until the bound on everything beyond,
    C(T+s-1, s-2) x^((T+1)^2/s) / (x; x)_inf^(s-1) per index sum, times a
    factor two for the super-geometric decay, is below 10^-(dps+5).
    """
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(1) / q
        euler = mpmath.qp(x, x)
        poch = [mpmath.mpf(1)]
        total = mpmath.mpf(0)
        eps = mpmath.mpf(10) ** -(dps + 5)
        t = 0
        while True:
            for kvec in _compositions(t, s - 1):
                partials, run = [], 0
                for k in kvec:
                    run += k
                    partials.append(run)
                if sum(partials) % s:
                    continue
                exponent = mpmath.mpf(sum(p * p for p in partials)) - mpmath.mpf(sum(partials) ** 2) / s
                term = x ** exponent
                for k in kvec:
                    term /= _finite_poch(x, k, poch)
                total += term
            beyond = 2 * mpmath.binomial(t + s - 1, s - 2) * x ** (mpmath.mpf(t + 1) ** 2 / s) / euler ** (s - 1)
            if beyond < eps:
                return 1 / total
            t += 1


def mp_andrews_gordon(x, s: int, dps: int):
    """Andrews-Gordon series at x, from the product side of the identity."""
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(x)
        step = x ** (2 * s + 1)
        return (
            mpmath.qp(x ** s, step) * mpmath.qp(x ** (s + 1), step) * mpmath.qp(step, step) / mpmath.qp(x, x)
        )


def mp_depth_two(q: int, dps: int):
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(1) / q
        root = mpmath.sqrt(x)
        return 2 / (mpmath.qp(-root, x) + mpmath.qp(root, x))


def truth_key(kind: str, q: int, s: int) -> str:
    return f"truth:{kind}:q={q}:s={s}"


class Truths:
    """Independent values of the densities, computed once per process."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.cache = {}

    def limit(self, q, s):
        key = truth_key("limit", q, s)
        if key not in self.cache:
            if s <= LIVE_TRUTH_MAX_S:
                self.cache[key] = mp_limit_density(q, s, 50)
            else:
                self.cache[key] = mpmath.mpf(self.reference[key])
        return self.cache[key]

    def ag_series(self, q, s, upper=False):
        key = ("ag", q, s, upper)
        if key not in self.cache:
            x = mpmath.mpf(q) ** -(s * s - s) if upper else mpmath.mpf(1) / q
            self.cache[key] = mp_andrews_gordon(x, s, 50)
        return self.cache[key]

    def depth_two(self, q):
        key = ("d2", q)
        if key not in self.cache:
            self.cache[key] = mp_depth_two(q, 50)
        return self.cache[key]


def covers(approx, truth) -> bool:
    return abs(approx.value - float(truth)) <= approx.abs_error


def _density_result_ok(cr, result, q, s, truths: Truths) -> bool:
    ok = result.ordered()
    ok = ok and covers(result.value, truths.limit(q, s))
    ok = ok and covers(result.lower, 1 / truths.ag_series(q, s))
    ok = ok and covers(result.upper, 1 / truths.ag_series(q, s, upper=True))
    if s == 2:
        ok = ok and result.value.agrees_with(cr.depth_two_density(q))
    return ok


def density_ok(cr, fn: str, args: list, result, truths: Truths) -> bool:
    """Certificate checks of one density job against independent values."""
    if fn == "limit_free_density":
        q, s, _ = args
        ok = covers(result, truths.limit(q, s))
        if s == 2:
            ok = ok and result.agrees_with(cr.depth_two_density(q))
        return ok
    if fn == "density_bounds":
        q, s, _ = args
        return _density_result_ok(cr, result, q, s, truths)
    if fn in ("andrews_gordon_series", "andrews_gordon_product"):
        q, s, _ = args
        return covers(result, truths.ag_series(q, s))
    if fn == "depth_two_density":
        return covers(result, truths.depth_two(args[0]))
    if fn == "table1_rows":
        return len(result) == 15 and all(_density_result_ok(cr, r, q, s, truths) for s, q, r in result)
    raise KeyError(fn)


def density_errors(fn: str, result) -> list[float]:
    """The certified error bounds a density job returned."""
    if fn == "table1_rows":
        return [e for _, _, r in result for e in density_errors("density_bounds", r)]
    if fn == "density_bounds":
        return [result.lower.abs_error, result.value.abs_error, result.upper.abs_error]
    return [result.abs_error]


# ------------------------------------------------------------ per-job verdicts


def library_job_ok(cr, job: dict, result, reference: dict, seed: int, truths: Truths) -> bool:
    fn, args = job["fn"], job["args"]
    if fn.startswith("free_fraction"):
        return 0 < result <= 1 and reference.get(job_key(job)) == canonical(fn, result)
    if fn in DENSITY_JOB_FNS:
        return density_ok(cr, fn, args, result, truths)
    if fn == "verify_census":
        return result[2] and reference.get(job_key(job)) == canonical(fn, result)
    ok = True
    if fn == "monte_carlo_type_distribution":
        m, n, p, s, trials, _ = args
        ok = result.total == trials == sum(result.counts.values())
        ok = ok and all(len(t) == s and sum(t) <= min(m, n) for t in result.counts)
    elif fn == "gv_random_experiment":
        metric, p, s, n = args[:4]
        model = cr.make_weight_model(metric, cr.ConcreteRing(p=p, s=s))
        ok = result.passed and cr.ball_profile(n, model).cumulative[-1] == (p ** s) ** n
    if seed == DEFAULT_SEED:
        ok = ok and reference.get(job_key(job)) == canonical(fn, result)
    return ok


def cli_job_ok(job: dict, rc, out: str, err: str, reference: dict) -> bool:
    expected = reference.get(job_key(job))
    if expected is None or cli_outcome(rc, out) != expected:
        return False
    if rc in (2, 3):
        return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    return err == ""


# ------------------------------------------------------------ identities


def identity_checks(cr, jobs: list[dict], seed: int) -> list[str]:
    """Seed-independent identities on the rings the job list touched.

    Returns the names of the checks that failed.
    """
    rng = random.Random(f"identities/{seed}")
    cases = []
    rings = sorted({tuple(j["args"][:3]) for j in jobs if j.get("fn", "").startswith("free_fraction")})
    for n, q, s in rings:
        for _ in range(3):
            cuts = sorted(rng.randint(0, n) for _ in range(s))
            mtype = tuple(b - a for a, b in zip([0] + cuts, cuts))
            cases.append(("count_by_type == count_by_shape", n, q, s, mtype))
    for _ in range(4):
        n, s, q = rng.randint(1, 6), rng.randint(1, 3), rng.choice((2, 3))
        cases.append(("q_multinomial == total_by_length", n, q, s, rng.randint(0, n * s)))
    failed = []
    for name, n, q, s, arg in cases:
        ring = cr.ChainRingSpec(q=q, s=s)
        try:
            if name.startswith("count_by_type"):
                ok = cr.count_by_type(n, ring, arg) == cr.count_by_shape(n, ring, cr.shape_from_type(arg))
            else:
                ok = cr.q_multinomial(n, arg, s, q) == cr.total_by_length(n, ring, arg)
        except Exception:  # noqa: BLE001 - a raised identity is a failed identity
            ok = False
        if not ok:
            failed.append(f"{name} at n={n} q={q} s={s} {arg}")
    return failed


def probe_fails(rc, err: str) -> bool:
    """A defect probe fails if it escapes the documented exit codes."""
    if rc is None:
        return True
    return rc not in (0, 1, 2, 3) or (rc != 0 and not (err.startswith("error: ") and err.count("\n") == 1))
