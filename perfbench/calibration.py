"""Calibration loops: how fast the machine runs a workload's kind of work now.

The host's load slows kinds of work by different amounts: over ten seeds,
pure-Python float loops slowed about as much as a pure-Python arithmetic
loop, big-int, numpy and argparse work about half as much.  So each workload
is calibrated by a loop of its own kind of work, written here and sharing no
code with chainring, so that no change to chainring moves it.

``REFERENCE_S`` holds each loop's median CPU time on the machine the
benchmark was written on; run.py multiplies an interpreter's times by
reference over measured, i.e. reports them in that machine's seconds.
"""

from __future__ import annotations

import argparse
import math
import time

SAMPLES = 10


def floats():
    """densities: float loops with exp and division, like the multi-sum."""
    x, acc = 0.5, 0.0
    for i in range(30000):
        acc += math.exp(-x * (i & 7)) / (1.0 + x)
        x = x * 0.999 + 1e-3
    return acc


def bigints():
    """exact-counts: big-int products and exact divisions, like Gaussian binomials."""
    bits = 0
    for n, k, base in ((300, 100, 3), (240, 120, 2), (200, 60, 5), (280, 90, 3)):
        result = 1
        for i in range(1, k + 1):
            result = result * (base ** (n - k + i) - 1) // (base ** i - 1)
        bits += result.bit_length()
    return bits


def arrays():
    """oracle-codes: integer matrix products, sorts and a Python loop over rows.

    The arrays are integer, which numpy multiplies without BLAS, on this
    thread: a float product may be split onto a second BLAS thread whenever
    the other vCPU is idle, which halved this loop's main-thread time at
    random and made it useless as a measure of the machine.
    """
    import numpy as np  # chainring has imported it already; run.py need not

    coeffs = np.arange(4 ** 6)[:, None] // 4 ** np.arange(6) % 4
    matrix = np.arange(36).reshape(6, 6) * 7 % 4
    total = 0
    for shift in range(5):
        products = coeffs @ (matrix + shift) % 4
        codes = np.sort(products @ (4 ** np.arange(6)), axis=0)
        for row in products[:600].tolist():
            total += min((v for v in row if v), default=4)
        total += int(codes[-1])
    return total


def parsers():
    """cli-mix: building argparse parsers with subcommands and parsing an argv."""
    return sum(_parser().parse_args(["density", "b", "--n", str(n), "--format", "json"]).n for n in (2, 3))


def _parser():
    parser = argparse.ArgumentParser(prog="calibration")
    groups = parser.add_subparsers(dest="group", required=True)
    for name in ("count", "prob", "density", "oracle", "code"):
        subjects = groups.add_parser(name).add_subparsers(dest="subject", required=True)
        for subject in ("a", "b", "c"):
            sub = subjects.add_parser(subject)
            sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
            sub.add_argument("--n", type=int, required=True)
    return parser


def arrays_and_bigints():
    """oracle-codes: the census and Monte Carlo runs do numpy and Python-loop
    work, the GV experiment's threshold scan big-int work."""
    return arrays() + bigints()


LOOPS = {"exact-counts": bigints, "densities": floats, "oracle-codes": arrays_and_bigints, "cli-mix": parsers}
REFERENCE_S = {"exact-counts": 0.0057, "densities": 0.0054, "oracle-codes": 0.0119, "cli-mix": 0.0064}


def calibrate(workload: str) -> list[float]:
    """CPU times of ``SAMPLES`` runs of the workload's calibration loop."""
    loop = LOOPS[workload]
    samples = []
    for _ in range(SAMPLES):
        start = time.thread_time()
        loop()
        samples.append(time.thread_time() - start)
    return samples
