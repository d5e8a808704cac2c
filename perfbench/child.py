"""One repetition of a workload in a fresh interpreter.

Usage: python3 child.py SRC_DIR '<json settings>'

SRC_DIR holds the chainring package.  Settings: ``mode``
(``setup``, ``plain`` or ``traced``), ``workload``, ``seed``, ``checks``
(``full`` adds the identity checks and defect probes), ``max_jobs`` and
``reference``.  Prints one JSON object as the last line of stdout.

Only ``sys`` and ``time`` are imported before chainring, so ``setup_s`` is
the cost of ``import chainring, chainring.cli`` in a cold interpreter.

Every time reported here is CPU time of the main thread (``time.thread_time``),
see README.md for why.  Each interpreter also times its workload's
calibration loop (``calibration.py``) after the import and again after the
job list; run.py scales the interpreter's times by the median of them.
"""

import sys
import time


def main():
    sys.path.insert(0, sys.argv[1])
    start = time.thread_time()
    import chainring
    import chainring.cli

    setup_s = time.thread_time() - start
    import json

    import calibration  # after the import is timed: it is the benchmark's, not chainring's

    settings = json.loads(sys.argv[2])
    result = {"setup_s": setup_s, "calibration_s": calibration.calibrate(settings["workload"])}
    if settings["mode"] != "setup":
        result.update(run_workload(chainring, settings))
    sys.stdout.write(json.dumps(result) + "\n")


def run_workload(cr, settings):
    import contextlib
    import io
    import resource

    import calibration
    import jobs as jobs_mod
    from tracer import Tracer

    workload, seed = settings["workload"], settings["seed"]
    jobs = jobs_mod.build(workload, seed)
    if settings.get("max_jobs"):
        jobs = jobs[: settings["max_jobs"]]
    tracer = None
    if settings["mode"] == "traced":
        tracer = Tracer()
        tracer.install(cr)
    run_cli = cr.cli.run  # looked up once tracing is installed, so it is traced too

    outputs, latencies = [], []
    clock = time.thread_time
    begin = clock()
    for job in jobs:
        t0 = clock()
        if "argv" in job:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = run_cli(job["argv"])
                outcome = (rc, out.getvalue(), err.getvalue())
            except SystemExit as exc:  # argparse rejects its input this way
                outcome = (exc.code, out.getvalue(), err.getvalue())
            except Exception as exc:  # noqa: BLE001 - an uncaught error is a failed job
                outcome = exc
        else:
            try:
                outcome = jobs_mod.library_call(cr, job["fn"], job["args"])
            except Exception as exc:  # noqa: BLE001 - a raised error is a failed job
                outcome = exc
        latencies.append(clock() - t0)
        outputs.append(outcome)
    cpu_s = clock() - begin
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_after = calibration.calibrate(workload)

    layer = {}
    if tracer is not None:
        tracer.uninstall()
        layer = layer_metrics(cr, tracer, jobs, outputs)

    # everything below is outside the timed region
    import checks

    reference = checks.load_reference(settings["reference"])
    truths = checks.Truths(reference)
    failed_jobs = []
    abs_errors = []
    for job, outcome in zip(jobs, outputs):
        try:
            if isinstance(outcome, Exception):
                ok = False
            elif "argv" in job:
                ok = checks.cli_job_ok(job, *outcome, reference)
            else:
                ok = checks.library_job_ok(cr, job, outcome, reference, seed, truths)
                if job["fn"] in checks.DENSITY_JOB_FNS:
                    abs_errors += checks.density_errors(job["fn"], outcome)
        except Exception:  # noqa: BLE001 - an output the checks cannot read is wrong
            ok = False
        if not ok:
            failed_jobs.append(describe(job, outcome))

    result = {
        "cpu_s": cpu_s,
        "latencies_s": latencies,
        "calibration_after_s": calibration_after,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(jobs),
        "failed_jobs": failed_jobs,
        "abs_error_max": max(abs_errors, default=0.0),
        "layer": layer,
    }
    if settings["checks"] == "full":
        result["identity_failures"] = checks.identity_checks(cr, jobs, seed)
        result["defect_probes_failed"] = run_defect_probes(cr, jobs_mod.DEFECT_PROBES)
    return result


def describe(job, outcome):
    what = job.get("argv") or [job["fn"], *job["args"]]
    if isinstance(outcome, Exception):
        return f"{' '.join(map(str, what))}: raised {type(outcome).__name__}: {outcome}"
    return f"{' '.join(map(str, what))}: wrong output"


def run_defect_probes(cr, probes):
    import contextlib
    import io
    import os

    import checks

    failing = 0
    for probe in probes:
        saved = {name: os.environ.get(name) for name in probe["env"]}
        os.environ.update(probe["env"])
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cr.cli.run(probe["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # noqa: BLE001 - the defect being probed
            rc = None
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
        failing += checks.probe_fails(rc, err.getvalue())
    return failing


def layer_metrics(cr, tracer, jobs, outputs):
    """Per-layer numbers of one traced repetition (see README.md)."""
    from tracer import LAYERS

    metrics = {}
    self_s = tracer.layer_self_s()
    for name in LAYERS:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = tracer.layer_calls[name]
        metrics[f"{name}.errors"] = tracer.layer_errors[name]

    info = getattr(cr.qseries.gaussian_binomial, "cache_info", None)
    hit_ratio = 0.0
    if info is not None:
        stats = info()
        hit_ratio = stats.hits / max(1, stats.hits + stats.misses)
    metrics["qseries.gaussian_binomial.hit_ratio"] = hit_ratio
    metrics["modcount.count_by_type.calls"] = tracer.calls.get("modcount.count_by_type", 0)
    metrics["modcount.types_enumerated"] = sum(
        tracer.yielded.get(f"modcount.{name}", 0) for name in ("types_of_length", "compositions")
    )
    entries = 0
    for module in (cr.qseries, cr.modcount, cr.density):
        for name, obj in vars(module).items():
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "cache_info"):
                entries += obj.cache_info().currsize
    metrics["modcount.cache_entries"] = entries
    metrics["density.limit_free_density.self_s"] = tracer.self_s.get("density.limit_free_density", 0.0)
    metrics["density.andrews_gordon_series.self_s"] = tracer.self_s.get("density.andrews_gordon_series", 0.0)

    census = sum((p ** s) ** (n * n) for j in jobs if j.get("fn") == "verify_census" for p, s, n in [j["args"]])
    mc = sum(j["args"][4] for j in jobs if j.get("fn") == "monte_carlo_type_distribution")
    codewords = sum(
        out.trials * (j["args"][1] ** j["args"][2]) ** out.k
        for j, out in zip(jobs, outputs)
        if j.get("fn") == "gv_random_experiment" and not isinstance(out, Exception)
    )
    metrics["simulate.census_matrices"] = census
    metrics["simulate.census_matrices_per_s"] = rate(census, tracer.total_s.get("simulate.verify_census"))
    metrics["simulate.mc_matrices_per_s"] = rate(mc, tracer.total_s.get("simulate.monte_carlo_type_distribution"))
    metrics["simulate.matrix_type.calls"] = tracer.calls.get("simulate.matrix_type", 0)
    metrics["coding.codewords"] = codewords
    metrics["coding.codewords_per_s"] = rate(codewords, tracer.total_s.get("coding.gv_random_experiment"))
    metrics["coding.ball_profile.self_s"] = tracer.self_s.get("coding.ball_profile", 0.0)
    metrics["coding.distance_threshold.self_s"] = tracer.self_s.get("coding.distance_threshold", 0.0)
    return metrics


def rate(count, seconds):
    return count / seconds if count and seconds else 0.0


if __name__ == "__main__":
    main()
