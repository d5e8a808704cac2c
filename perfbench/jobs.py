"""Seeded job lists for the four workloads, and how to run one job.

A job is a plain JSON-able dict: ``{"fn": name, "args": [...]}`` for a call
into the library, ``{"argv": [...]}`` for one ``chainring.cli.run`` call.
Its key (``job_key``) names it in the reference file.

Each workload has a fixed core of heavy jobs; the seed draws only what does
not change the cost much: the small exact-count jobs, the variant within
each CLI category, radii, sampling seeds and, where jobs share no caches,
the order.  The core is the same for every seed because these jobs' costs
grow steeply with their parameters (type sums like K^(s-1), the multi-sum
like cap^(s-1)), so drawing them would make a run's time measure the draw,
not the program.
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("exact-counts", "densities", "oracle-codes", "cli-mix")
DEFAULT_SEED = 1
TAILS = (1e-8, 1e-10, 1e-12)


def job_key(job: dict) -> str:
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------ exact-counts

# (fn, n, q, s, K or ell): s in 2..5, q in {2,3,5}, n near the top of the
# range that finishes in well under a second, K or ell/s in [n/3, 2n/3]
EXACT_CORE = (
    ("free_fraction_by_rank", 300, 2, 2, 100),
    ("free_fraction_by_length", 240, 3, 2, 280),
    ("free_fraction_by_rank", 200, 5, 2, 120),
    ("free_fraction_by_rank", 150, 2, 3, 75),
    ("free_fraction_by_length", 120, 3, 3, 150),
    ("free_fraction_by_rank", 100, 5, 3, 60),
    ("free_fraction_by_rank", 90, 2, 4, 40),
    ("free_fraction_by_length", 72, 3, 4, 144),
    ("free_fraction_by_rank", 60, 5, 4, 30),
    ("free_fraction_by_rank", 55, 2, 5, 25),
    ("free_fraction_by_length", 45, 3, 5, 100),
    ("free_fraction_by_length", 40, 5, 5, 90),
)
EXACT_LIGHT_N = {2: (60, 75), 3: (30, 40), 4: (20, 24), 5: (12, 15)}
EXACT_LIGHT_DRAWS = 3  # an odd total whose median job is the core's fifth fastest


def exact_light_pool() -> list[dict]:
    pool = []
    for s, ns in EXACT_LIGHT_N.items():
        for q in (2, 3, 5):
            for n in ns:
                for third in (1, 1.5, 2):
                    k = round(third * n / 3)
                    pool.append({"fn": "free_fraction_by_rank", "args": [n, q, s, k]})
                    pool.append({"fn": "free_fraction_by_length", "args": [n, q, s, s * k]})
    return pool


def _exact_counts(rng: random.Random, seed: int) -> list[dict]:
    jobs = [{"fn": fn, "args": list(args)} for fn, *args in EXACT_CORE]
    return jobs + rng.sample(exact_light_pool(), EXACT_LIGHT_DRAWS)


# ------------------------------------------------------------ densities

# the heavy cells, one per target tail, with s = 6, 7, 8
DENSITY_CORE = (
    ("limit_free_density", 2, 6, 1e-10),
    ("limit_free_density", 5, 7, 1e-12),
    ("limit_free_density", 11, 8, 1e-8),
    ("limit_free_density", 3, 6, 1e-12),
)
DENSITY_Q = (2, 3, 4, 5, 7, 8, 9, 11)


def density_grid() -> list[dict]:
    """The small cells: every q at s = 2..5 and every target tail.

    Their costs span three orders of magnitude, so the grid is run whole
    rather than drawn from: a draw would move the median job by more than
    the metric's bound.
    """
    grid = []
    for q in DENSITY_Q:
        for tail in TAILS:
            grid.append({"fn": "depth_two_density", "args": [q, tail]})
            grid += [{"fn": "density_bounds", "args": [q, s, tail]} for s in (2, 3, 4)]
            grid.append({"fn": "andrews_gordon_product", "args": [q, 5, tail]})
    return grid


def _densities(rng: random.Random, seed: int) -> list[dict]:
    jobs = [{"fn": fn, "args": list(args)} for fn, *args in DENSITY_CORE]
    jobs.append({"fn": "table1_rows", "args": [rng.choice(TAILS)]})
    return jobs + density_grid()


# ------------------------------------------------------------ oracle-codes

CENSUS_CASES = ((2, 2, 3), (2, 4, 2), (3, 2, 2), (2, 3, 2), (2, 1, 4))  # (p, s, n)
MC_CASES = ((4, 4, 2, 3, 12000), (6, 6, 3, 2, 4000))  # (m, n, p, s, trials)
GV_CASES = (("lee", 2, 2, 12, 0.05, 0.15, 20), ("homogeneous", 2, 2, 12, 0.05, 0.15, 20))


def _oracle_codes(rng: random.Random, seed: int) -> list[dict]:
    jobs = [{"fn": "verify_census", "args": list(case)} for case in CENSUS_CASES]
    jobs += [{"fn": "monte_carlo_type_distribution", "args": [*case, seed]} for case in MC_CASES]
    jobs += [{"fn": "gv_random_experiment", "args": [*case, seed]} for case in GV_CASES]
    return jobs


# ------------------------------------------------------------ cli-mix


def _argv(text: str) -> list[str]:
    return text.split()


# (category, invocations per list, variants); each variant is one argv string
CLI_CATEGORIES = (
    ("count free", 8, [
        f"count free --n {n} --q {q} --s {s} --K {k}{fmt}"
        for n, k in ((2, 1), (5, 2), (10, 5), (20, 7)) for q, s in ((2, 2), (3, 3))
        for fmt in ("", " --format json")
    ]),
    ("count type", 6, [
        f"count type --n {n} --q {q} --s 3 --type {t}{fmt}"
        for n, t in ((10, "3,3,0"), (12, "2,1,1"), (8, "1,0,2")) for q in (2, 5)
        for fmt in ("", " --format json")
    ]),
    ("count shape", 5, [
        f"count shape --n {n} --q {q} --s 2 --shape {sh}{fmt}"
        for n, sh in ((6, "3,1"), (9, "4,4"), (12, "5,2")) for q in (2, 3)
        for fmt in ("", " --format json")
    ]),
    ("count length", 6, [
        f"count length --n {n} --q {q} --s {s} --ell {ell}{fmt}"
        for n, s, ell in ((2, 2, 2), (10, 2, 9), (12, 3, 14), (8, 4, 13)) for q in (2, 3)
        for fmt in ("", " --format json")
    ]),
    ("count rank", 6, [
        f"count rank --n {n} --q {q} --s {s} --K {k}{fmt}"
        for n, s, k in ((10, 2, 5), (15, 3, 6), (9, 4, 4), (20, 2, 11)) for q in (2, 7)
        for fmt in ("", " --format json")
    ]),
    ("count matrix", 4, [
        f"count matrix --m {m} --n {n} --q {q} --s 2 --type {t}{fmt}"
        for m, n, t in ((2, 2, "1,0"), (3, 2, "1,1"), (4, 3, "2,1")) for q in (2, 3)
        for fmt in ("", " --format json")
    ]),
    ("prob free-length", 6, [
        f"prob free-length --n {n} --q {q} --s {s} --ell {ell}{fmt}"
        for n, s, ell in ((20, 2, 20), (30, 3, 45), (16, 4, 32)) for q in (2, 3)
        for fmt in ("", " --format json")
    ]),
    ("prob free-rank", 8, [
        f"prob free-rank --n {n} --q {q} --s {s} --K {k}{fmt}"
        for n, s, k in ((40, 2, 20), (50, 2, 30), (24, 3, 12), (12, 4, 6)) for q in (2, 3)
        for fmt in ("", " --format json", " --precision 10")
    ]),
    ("prob unimodular", 4, [
        f"prob unimodular --k {k} --n {n} --q {q}{fmt}"
        for k, n in ((1, 2), (3, 5), (4, 9)) for q in (2, 5)
        for fmt in ("", " --format json")
    ]),
    ("density limit", 6, [
        f"density limit --q {q} --s {s}{fmt}"
        for q in (2, 3, 5, 7) for s in (2, 3, 4)
        for fmt in ("", " --format json")
    ]),
    ("density bounds", 5, [
        f"density bounds --q {q} --s {s}{fmt}"
        for q in (2, 3, 11) for s in (2, 3, 4)
        for fmt in ("", " --format json")
    ]),
    ("density s2-closed", 4, [
        f"density s2-closed --q {q}{fmt}" for q in (2, 3, 4, 7, 11) for fmt in ("", " --format json")
    ]),
    ("density table1", 3, [f"density table1{fmt}" for fmt in ("", " --format json", " --format csv")]),
    ("density rank-trend", 4, [
        f"density rank-trend --q {q} --s 2 --rprime {r} --n-list {nl}{fmt}"
        for q in (2, 3) for r, nl in (("3/5", "10,20,30,40,50"), ("1/2", "10,20,30"), ("2/5", "5,10,15"))
        for fmt in ("", " --format csv", " --format json")
    ]),
    ("density order-explore", 4, [
        f"density order-explore --n {n} --q 2 --s {s} --ell {ell}{fmt}"
        for n, s, ell in ((10, 3, 15), (10, 6, 30), (12, 4, 20))
        for fmt in ("", " --format csv", " --format json")
    ]),
    ("oracle verify", 4, [
        f"oracle verify --p {p} --s {s} --n {n}{fmt}"
        for p, s, n in ((2, 2, 2), (3, 1, 2), (2, 1, 3), (5, 1, 2))
        for fmt in ("", " --format csv", " --format json")
    ]),
    ("oracle enumerate", 3, [
        f"oracle enumerate --p {p} --s {s} --n {n}{fmt}"
        for p, s, n in ((2, 3, 2), (3, 1, 2), (2, 2, 2))
        for fmt in ("", " --format csv")
    ]),
    ("code ball", 6, [
        f"code ball --metric {m} --p {p} --s {s} --n {n} --w {w}{closed}{fmt}"
        for m in ("hamming", "lee", "homogeneous") for p, s, n, w in ((2, 2, 1, "1"), (3, 2, 4, "5/2"))
        for closed in ("", " --closed") for fmt in ("", " --format json")
    ]),
    ("code gv", 6, [
        f"code gv --metric {m} --p {p} --s {s} --n {n} --d {d}{fmt}"
        for m in ("hamming", "lee", "homogeneous") for p, s, n, d in ((2, 2, 2, "2"), (2, 3, 6, "3"))
        for fmt in ("", " --format json")
    ]),
    # the heaviest invocations run in full, so that the slow tail of the
    # latency distribution is the same for every seed; the seed fills in
    # the radius and the sampling seed, which do not change their cost
    ("code entropy", None, [
        f"code entropy --metric {m} --p 2 --s 2 --n {n} --delta {{delta}}{fmt}"
        for m, n, fmt in (
            ("hamming", 150, ""), ("hamming", 190, " --format json"), ("hamming", 230, ""),
            ("lee", 150, " --format json"), ("lee", 170, ""), ("lee", 190, " --format json"), ("lee", 210, ""),
            ("homogeneous", 160, ""), ("homogeneous", 200, " --format json"), ("homogeneous", 240, ""),
        )
    ]),
    ("code gv-experiment", None, [
        f"code gv-experiment --metric {m} --p 2 --s 2 --n {n} --delta 0.05 --eps 0.15 --trials {t} --seed {{seed}}{fmt}"
        for m, n, t, fmt in (
            ("homogeneous", 8, 16, ""), ("homogeneous", 9, 12, " --format json"),
            ("homogeneous", 8, 12, " --format csv"), ("hamming", 8, 16, " --format csv"),
            ("hamming", 9, 12, ""), ("hamming", 9, 16, " --format json"),
            ("lee", 12, 20, " --format json"),
        )
    ]),
    # invalid or over budget: the correct outcome is exit 2 or 3 and one stderr line
    ("invalid", 6, [
        "count free --n 2 --q 2 --s 2 --K 5",
        "count type --n 10 --q 2 --s 3 --type 3,3,0 --format csv",
        "prob free-length --n 10 --q 2 --s 3 --ell 10",
        "density limit --q 6 --s 3",
        "oracle verify --p 3 --s 3 --n 3",
        "code gv-experiment --metric hamming --p 2 --s 2 --n 12 --delta 0.05 --eps 0.15 --trials 10 --seed 1",
        "code ball --metric lee --p 4 --s 2 --n 2 --w 1",
        "density bounds --q 2 --s 1",
    ]),
)

# known defects at the time the benchmark was written; run outside the timed
# list and reported on their own so that a fix shows as a falling count
DEFECT_PROBES = (
    {"argv": _argv("count rank --n 100000 --q 2 --s 2 --K 3"), "env": {}},
    {"argv": _argv("density limit --q 2 --s 4"), "env": {"CHAINRING_MAX_INDEX": "3"}},
)


CLI_FILL = {"delta": ("0.1", "0.2", "0.3", "0.4"), "seed": ("1", "2", "3", "4", "5", "6")}


def _fillings(variant: str):
    names = [name for name in CLI_FILL if "{" + name + "}" in variant]
    for values in itertools.product(*(CLI_FILL[name] for name in names)):
        yield variant.format(**dict(zip(names, values)))


def cli_pool() -> list[dict]:
    """Every invocation any seed can draw."""
    return [{"argv": _argv(v)} for _, _, variants in CLI_CATEGORIES for var in variants for v in _fillings(var)]


def _cli_mix(rng: random.Random, seed: int) -> list[dict]:
    jobs = []
    for _, count, variants in CLI_CATEGORIES:
        picks = variants if count is None else rng.sample(variants, count)
        jobs += [{"argv": _argv(v.format(**{k: rng.choice(c) for k, c in CLI_FILL.items()}))} for v in picks]
    return jobs


_BUILDERS = {
    "exact-counts": _exact_counts,
    "densities": _densities,
    "oracle-codes": _oracle_codes,
    "cli-mix": _cli_mix,
}


def build(workload: str, seed: int) -> list[dict]:
    """The job list of one workload for one seed, in the order it runs.

    The order is shuffled only where it does not change what a job costs.
    ``exact-counts`` jobs share the Gaussian-binomial and type-count caches,
    so a job's time depends on which jobs ran before it; ``oracle-codes``
    jobs keep large numpy buffers in module caches, and the order moved the
    peak resident set by 15%.  Those two keep the order they are listed in.
    """
    rng = random.Random(f"{workload}/{seed}")
    jobs = _BUILDERS[workload](rng, seed)
    if workload in ("densities", "cli-mix"):
        rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------ running a job


def _policy(cr, tail):
    return cr.TruncationPolicy(target_tail=tail)


def library_call(cr, fn: str, args: list):
    """Call the public chainring function that a library job names."""
    if fn in ("free_fraction_by_rank", "free_fraction_by_length"):
        n, q, s, k = args
        return getattr(cr, fn)(n, cr.ChainRingSpec(q=q, s=s), k)
    if fn in ("limit_free_density", "density_bounds"):
        q, s, tail = args
        return getattr(cr, fn)(cr.ChainRingSpec(q=q, s=s), _policy(cr, tail))
    if fn in ("andrews_gordon_series", "andrews_gordon_product"):
        q, s, tail = args
        return getattr(cr, fn)(1.0 / q, s, _policy(cr, tail))
    if fn == "depth_two_density":
        q, tail = args
        return cr.depth_two_density(q, _policy(cr, tail))
    if fn == "table1_rows":
        return cr.table1_rows(_policy(cr, args[0]))
    if fn == "verify_census":
        p, s, n = args
        return cr.verify_census(cr.ConcreteRing(p=p, s=s), n)
    if fn == "monte_carlo_type_distribution":
        m, n, p, s, trials, seed = args
        return cr.monte_carlo_type_distribution(m, n, cr.ConcreteRing(p=p, s=s), trials, seed)
    if fn == "gv_random_experiment":
        metric, p, s, n, delta, eps, trials, seed = args
        model = cr.make_weight_model(metric, cr.ConcreteRing(p=p, s=s))
        return cr.gv_random_experiment(n, delta, eps, model, trials, seed)
    raise KeyError(f"unknown job function {fn!r}")
