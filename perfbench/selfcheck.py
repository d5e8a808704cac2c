"""Self-check of the benchmark itself, on tiny job lists.

Usage (from the repository root): python3 perfbench/selfcheck.py

For every workload and both trace settings, runs run.py on the first three
jobs of the default seed's list and asserts that the last line of stdout is
the result object with every named metric, each with its unit.  Then runs
once against a deliberately corrupted reference and asserts that the run
still ends normally, reporting the job as failed rather than crashing.
Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from run import E2E_UNITS, LAYER_UNITS  # noqa: E402

TINY = ["--seconds", "1", "--max-jobs", "3"]


def bench(*extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *extra],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(extra)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(result: dict, units: dict, label: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    assert set(result["metrics"]) == set(units), f"{label}: {set(result['metrics']) ^ set(units)}"
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, f"{label}: {name} has unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)), f"{label}: {name}"


def main():
    for workload in jobs.WORKLOADS:
        for trace, units in ((0, E2E_UNITS), (1, LAYER_UNITS)):
            label = f"{workload} --trace {trace}"
            result = bench("--workload", workload, "--trace", str(trace), *TINY)
            check_shape(result, units, label)
            assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), label
            print(f"ok  {label}: attempted {result['attempted']}", flush=True)

    workload = "exact-counts"
    victim = jobs.job_key(jobs.build(workload, jobs.DEFAULT_SEED)[0])
    reference = json.loads((HERE / "reference.json").read_text())
    reference[victim] = "corrupted"
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = Path(tmp) / "reference.json"
        path.write_text(json.dumps(reference))
        result = bench("--workload", workload, "--reference", str(path), *TINY)
    check_shape(result, E2E_UNITS, "corrupted reference")
    assert not result["correct"] and result["failed"] >= 1, result
    print(f"ok  corrupted reference: failed {result['failed']} of {result['attempted']}")


if __name__ == "__main__":
    main()
