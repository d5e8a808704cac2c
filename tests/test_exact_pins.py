"""Exact outputs and budget estimates pinned from the product-by-product code.

The digests below were recorded before the closed-form counts moved onto
``qseries._exact_product``; they pin every value and its type, so a change
in how a count is assembled cannot change what it returns.  The budget
costs were recorded the same way, by a stand-in for ``TOTAL_BUDGET`` that
logs each cost compared against it, so the claim that an estimate did not
move is checked, not asserted.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest

from chainring import cli, qseries
from chainring.errors import BudgetExceededError
from chainring.modcount import (
    ChainRingSpec,
    compositions,
    count_by_shape,
    count_by_type,
    count_free,
    matrix_count_by_type,
    unimodular_probability,
)
from chainring.qseries import gaussian_binomial

QS = (2, 3, 5)


def _digest(values) -> str:
    def key(v):
        if isinstance(v, Fraction):
            return f"Fraction {v.numerator:x}/{v.denominator:x}"
        return f"{type(v).__name__} {v:x}"

    return hashlib.sha256("\n".join(map(key, values)).encode()).hexdigest()


def _types(s: int, max_rank: int):
    for rank in range(max_rank + 1):
        yield from compositions(s, rank)


def _shapes(s: int, n: int):
    return (shape for shape in itertools.product(range(n + 1), repeat=s) if list(shape) == sorted(shape, reverse=True))


def shape_counts():
    for q, s, n in itertools.product(QS, (1, 2, 3), (0, 1, 3, 6)):
        ring = ChainRingSpec(q=q, s=s)
        yield from (count_by_shape(n, ring, shape) for shape in _shapes(s, n))


def type_counts():
    for q, s, n in itertools.product(QS, (1, 2, 3), (0, 1, 3, 6)):
        ring = ChainRingSpec(q=q, s=s)
        yield from (count_by_type(n, ring, t) for t in _types(s, n))


def free_counts():
    for q, s, n in itertools.product(QS, (1, 2, 3), range(8)):
        ring = ChainRingSpec(q=q, s=s)
        yield from (count_free(n, ring, k) for k in range(n + 1))


def matrix_counts():
    for q, s, m, n in itertools.product(QS, (1, 2), (1, 2, 3, 5), (1, 2, 3)):
        ring = ChainRingSpec(q=q, s=s)
        yield from (matrix_count_by_type(m, n, ring, t) for t in _types(s, min(m, n)))
    for q in (2, 3):  # millions of bits, as `count matrix` admits them
        ring = ChainRingSpec(q=q, s=2)
        yield from (matrix_count_by_type(10 ** 6, 2, ring, t) for t in ((0, 0), (1, 0), (0, 1), (1, 1)))


def unimodular_probabilities():
    for q, n in itertools.product(QS, range(7)):
        ring = ChainRingSpec(q=q, s=2)
        yield from (unimodular_probability(k, n, ring) for k in range(n + 1))
    yield from (unimodular_probability(300, 600, ChainRingSpec(q=q, s=1)) for q in QS)


def rational_binomials():
    for base in (Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(-1, 2)):
        for n in range(10):
            yield from (gaussian_binomial(n, k, base) for k in range(-1, n + 2))
        for n in (50, 120, 200):
            yield from (gaussian_binomial(n, k, base) for k in (1, 7, n // 3, n // 2, n - 1))


PINNED = {
    "shape_counts": "97348381ad5d2bdfa5010cc3be3d2031db513719e9a19d0228e08ef52155a1c9",
    "type_counts": "d8daee69fec6d53e431053bb5b10b9a58071056fcc9d70d11bd132c3ab237322",
    "free_counts": "14bfd06d6534c88b561b6d1d1ef301f2b1d834bf0cfc6444b9fd5960c3fb8ebf",
    "matrix_counts": "9531a163520946431b497e10ce3ea957d11f26c6831c76d338a1384470550315",
    "unimodular_probabilities": "14d1aae857a62434e9e2be4625a743048b47a11078fa86551c555d75adcb8d7e",
    "rational_binomials": "b2632a000d3061b5317877061a7617c1620ff757d2bfd620d3dcb8fe62357839",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_outputs_pinned(name):
    assert _digest(globals()[name]()) == PINNED[name]


class _BudgetSpy:
    """Stands in for ``qseries.TOTAL_BUDGET`` and logs each cost compared with it.

    ``cost > budget`` falls back to ``budget.__lt__(cost)``, which records the
    cost and answers as the real budget would.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.costs: list[str] = []

    def __lt__(self, cost):
        self.costs.append(float(cost).hex())
        return cost > self.budget

    def __format__(self, spec: str) -> str:
        return format(self.budget, spec)


CLI_INPUTS = (
    "count free --n 4000 --q 2 --s 3 --K 2000",
    "count free --n 1000 --q 2 --s 1000 --K 500",
    "count type --n 4000 --q 2 --s 2 --type 2000,0",
    "count shape --n 4000 --q 2 --s 2 --shape 2000,2000",
    "count matrix --m 10000000 --n 2 --q 3 --s 2 --type 1,1",
)
R3 = ChainRingSpec(q=2, s=3)
LIBRARY_INPUTS = {
    "gaussian_binomial(4000, 2000, 2)": lambda: gaussian_binomial(4000, 2000, 2),
    "count_free(4000, R3, 2000)": lambda: count_free(4000, R3, 2000),
    "count_by_type(4000, R3, (2000, 0, 0))": lambda: count_by_type(4000, R3, (2000, 0, 0)),
    "count_by_shape(4000, R3, (2000, 2000, 2000))": lambda: count_by_shape(4000, R3, (2000, 2000, 2000)),
    "count_free(1000, q=2 s=1000, 500)": lambda: count_free(1000, ChainRingSpec(q=2, s=1000), 500),
    "count_free(100000, q=3 s=2, 1)": lambda: count_free(100000, ChainRingSpec(q=3, s=2), 1),
    "count_by_shape(100000, q=3 s=2, (1, 1))": lambda: count_by_shape(100000, ChainRingSpec(q=3, s=2), (1, 1)),
}

PINNED_COSTS = {
    "gaussian_binomial(4000, 2000, 2)": ["0x1.d563062180000p+39"],
    "count_free(4000, R3, 2000)": ["0x1.e2f8370b4eda7p+39"],
    "count_by_type(4000, R3, (2000, 0, 0))": ["0x1.e2f8370b4eda7p+39"],
    "count_by_shape(4000, R3, (2000, 2000, 2000))": ["0x1.e2f8370b4eda7p+39"],
    "count_free(1000, q=2 s=1000, 500)": ["0x1.a27328a1e9d15p+41"],
    "count_free(100000, q=3 s=2, 1)": ["0x1.a242fa92b2226p+29", "0x1.7668b0f79fcf6p+29"],
    "count_by_shape(100000, q=3 s=2, (1, 1))": ["0x1.a242fa92b2226p+29", "0x0.0p+0", "0x1.7668b0f79fcf6p+29"],
    "count free --n 4000 --q 2 --s 3 --K 2000": ["0x1.e2f8370b4eda7p+39"],
    "count free --n 1000 --q 2 --s 1000 --K 500": ["0x1.a27328a1e9d15p+41"],
    "count type --n 4000 --q 2 --s 2 --type 2000,0": ["0x1.dc87a61f32740p+39"],
    "count shape --n 4000 --q 2 --s 2 --shape 2000,2000": ["0x1.dc87a61f32740p+39"],
    "count matrix --m 10000000 --n 2 --q 3 --s 2 --type 1,1": ["0x1.e1bd630251769p+38"],
}


def _spied_costs(monkeypatch, call) -> list[str]:
    spy = _BudgetSpy(qseries.TOTAL_BUDGET)
    monkeypatch.setattr(qseries, "TOTAL_BUDGET", spy)
    gaussian_binomial.cache_clear()
    count_by_type.cache_clear()
    try:
        call()
    except BudgetExceededError:
        pass
    return spy.costs


@pytest.mark.parametrize("label", sorted(LIBRARY_INPUTS) + list(CLI_INPUTS))
def test_budget_estimates_pinned(monkeypatch, label):
    if label in LIBRARY_INPUTS:
        call = LIBRARY_INPUTS[label]
    else:
        call = lambda: cli.run(label.split())  # noqa: E731
    assert _spied_costs(monkeypatch, call) == PINNED_COSTS[label]

