"""Regenerate reference.json from the chainring in ../src.

Usage: python3 perfbench/make_reference.py

Stores the output of every job any seed can draw (the random ensembles at
DEFAULT_SEED only) and 30-digit mpmath values of the limit densities with
s >= 5.  Run it only on a commit whose outputs are known to be right: the
references pin today's outputs so that later changes cannot move them.
Takes a few minutes, almost all of it in the s = 6..8 mpmath sums.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import chainring  # noqa: E402
import chainring.cli  # noqa: E402
import mpmath  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402


def main():
    reference = {}
    library = [{"fn": fn, "args": list(args)} for fn, *args in jobs.EXACT_CORE]
    library += jobs.exact_light_pool()
    library += jobs.build("oracle-codes", jobs.DEFAULT_SEED)
    for job in library:
        result = jobs.library_call(chainring, job["fn"], job["args"])
        reference[jobs.job_key(job)] = checks.canonical(job["fn"], result)
    for job in jobs.cli_pool():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = chainring.cli.run(job["argv"])
        reference[jobs.job_key(job)] = checks.cli_outcome(rc, out.getvalue())
    cells = {(q, s) for _, q, s, _ in jobs.DENSITY_CORE}
    for q, s in sorted(cells, key=lambda c: (c[1], c[0])):
        key = checks.truth_key("limit", q, s)
        reference[key] = mpmath.nstr(checks.mp_limit_density(q, s, 30), 30)
        print(f"{key}: {reference[key]}", flush=True)
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
