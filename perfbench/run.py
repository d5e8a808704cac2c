"""chainring benchmark: runs one workload and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-counts --seed 1 --seconds 25 --trace 0

Runs the workload's seeded job list again and again, each time in a fresh
interpreter (``child.py``) so that chainring's caches start empty, one
interpreter at a time, for about ``--seconds`` seconds.  With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of traced repetitions, alternated with untraced ones to measure the
tracing overhead.  Times are main-thread CPU times, scaled by each
interpreter's calibration samples to a reference machine speed.  The last
line of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import jobs  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_PROBES = 5  # set-up-only interpreters per run, besides one per repetition
MIN_REPETITIONS = {0: 3, 1: 2}  # per mode, by --trace; a traced run alternates two modes
CHILD_TIMEOUT_S = 150  # a run must end within 180 s

E2E_UNITS = {"cpu_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in
       (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "qseries.gaussian_binomial.hit_ratio": "ratio",
    "modcount.count_by_type.calls": "count",
    "modcount.types_enumerated": "count",
    "modcount.cache_entries": "count",
    "density.limit_free_density.self_s": "s",
    "density.andrews_gordon_series.self_s": "s",
    "density.abs_error_max": "1",
    "simulate.census_matrices": "count",
    "simulate.census_matrices_per_s": "1/s",
    "simulate.mc_matrices_per_s": "1/s",
    "simulate.matrix_type.calls": "count",
    "coding.codewords": "count",
    "coding.codewords_per_s": "1/s",
    "coding.ball_profile.self_s": "s",
    "coding.distance_threshold.self_s": "s",
    "cli.defect_probes_failed": "count",
    "trace_overhead_frac": "ratio",
}


class ChildError(RuntimeError):
    pass


def run_child(root: Path, settings: dict, deadline: float) -> dict:
    timeout = min(CHILD_TIMEOUT_S, max(1.0, deadline - time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(root / "src"), json.dumps(settings)],
            cwd=root, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"repetition exited with {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def trimmed_mean(values):
    """Mean after dropping the fastest and the slowest value (the median of three)."""
    ordered = sorted(values)
    k = 1 if len(ordered) >= 3 else 0
    return statistics.mean(ordered[k:len(ordered) - k])


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def measure(args, root: Path) -> dict:
    started = time.monotonic()
    deadline = started + 170
    base = {"workload": args.workload, "seed": args.seed, "max_jobs": args.max_jobs,
            "reference": str(Path(args.reference).resolve()), "checks": "digest"}
    # the first interpreter also writes the byte-code caches; its set-up time is not kept
    run_child(root, {**base, "mode": "setup"}, deadline)
    setups = [run_child(root, {**base, "mode": "setup"}, deadline) for _ in range(SETUP_PROBES)]

    modes = ["plain", "traced"] if args.trace else ["plain"]
    reps = {mode: [] for mode in modes}
    loop_start = time.monotonic()
    last = {}  # mode -> duration of its latest repetition
    while True:
        done = min(len(r) for r in reps.values())
        next_round = sum(last.values())
        if done >= MIN_REPETITIONS[args.trace] and time.monotonic() - loop_start + next_round > args.seconds:
            break
        if done >= 1 and time.monotonic() + next_round > deadline - 5:
            break
        for mode in modes:
            full = not any(reps.values())
            t0 = time.monotonic()
            rep = run_child(root, {**base, "mode": mode, "checks": "full" if full else "digest"}, deadline)
            last[mode] = time.monotonic() - t0
            reps[mode].append(rep)
            setups.append(rep)
    return {"setups": setups, "reps": reps}


def speed_factor(child: dict, workload: str) -> float:
    """Reference over measured calibration time, from one interpreter's samples."""
    samples = child["calibration_s"] + child.get("calibration_after_s", [])
    return calibration.REFERENCE_S[workload] / statistics.median(samples)


def time_metrics(reps: list, setups: list, workload: str | None) -> dict:
    """cpu_s, job percentiles and setup_s; with a workload, each interpreter's
    times are scaled by its speed factor for that workload's calibration.

    The job percentiles are taken within each repetition, then their median
    over repetitions: a pooled percentile of a short list is one job's
    fastest or slowest repetition, which one noisy speed factor can move.
    """
    def factor(child):
        return speed_factor(child, workload) if workload else 1.0

    def per_rep(fraction):
        return statistics.median(
            factor(rep) * 1000.0 * percentile(rep["latencies_s"], fraction) for rep in reps
        )

    return {
        "cpu_s": trimmed_mean([rep["cpu_s"] * factor(rep) for rep in reps]),
        "job_p50_ms": per_rep(0.5),
        "job_p90_ms": per_rep(0.9),
        "setup_s": statistics.median(child["setup_s"] * factor(child) for child in setups),
    }


def summarize(args, measured: dict) -> dict:
    reps = measured["reps"]
    every = [rep for mode_reps in reps.values() for rep in mode_reps]
    plain = reps["plain"]
    attempted = sum(rep["attempted"] for rep in every)
    failed_jobs = [msg for rep in every for msg in rep["failed_jobs"]]
    first = every[0]  # the repetition that ran the full checks
    identity_failures = first["identity_failures"]
    correct = not failed_jobs and not identity_failures

    e2e = time_metrics(plain, measured["setups"], args.workload)
    e2e["peak_rss_mib"] = statistics.median(rep["peak_rss_mib"] for rep in plain)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": {mode: len(r) for mode, r in reps.items()},
        "cpu_s_per_repetition": [rep["cpu_s"] for rep in plain],
        "jobs_per_repetition": plain[0]["attempted"],
        "latency_samples": sum(len(rep["latencies_s"]) for rep in plain),
        "unscaled": time_metrics(plain, measured["setups"], None),
        "speed_factors": [speed_factor(rep, args.workload) for rep in plain],
        "setup_samples": len(measured["setups"]),
        "fail_frac": len(failed_jobs) / attempted,
        "defect_probes_failed": first["defect_probes_failed"],
        "failed_jobs": sorted(set(failed_jobs))[:20],
        "identity_failures": identity_failures,
    }
    if args.trace:
        traced = reps["traced"]
        # median_low keeps counts whole; they are the same in every repetition
        layer = {name: statistics.median_low(rep["layer"][name] for rep in traced)
                 for name in traced[0]["layer"]}
        layer["density.abs_error_max"] = max(rep["abs_error_max"] for rep in every)
        layer["cli.defect_probes_failed"] = first["defect_probes_failed"]
        layer["trace_overhead_frac"] = (
            time_metrics(traced, traced, args.workload)["cpu_s"] / e2e["cpu_s"] - 1.0
        )
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    report["metrics"] = metrics
    return {"correct": correct, "attempted": attempted, "failed": len(failed_jobs),
            "metrics": metrics, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=0, help="truncate the job list (self-check)")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "chainring" / "__init__.py").is_file():
        print(f"error: no chainring package under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        measured = measure(args, root)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(args, measured)
    report = summary.pop("report")
    for name, metric in report.pop("metrics").items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
