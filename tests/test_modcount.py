import hashlib
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainring import modcount, qseries
from chainring.errors import BudgetExceededError, ParameterError
from chainring.modcount import (
    ChainRingSpec,
    compositions,
    count_by_shape,
    count_by_type,
    count_free,
    free_fraction_by_length,
    free_fraction_by_rank,
    length_of,
    matrix_count_by_type,
    rank_of,
    shape_from_type,
    total_by_length,
    total_by_rank,
    type_from_shape,
    types_of_length,
    unimodular_probability,
)
from chainring.qseries import _rank_tail, gaussian_binomial, pochhammer_finite, q_multinomial
from chainring.render import render_ratio
from chainring.simulate import ConcreteRing, enumerate_submodules, is_rect_unimodular, ring_matrix
from helpers import naive_chain_sum
from test_exact_pins import _spied_costs

Z4 = ChainRingSpec(q=2, s=2)


@pytest.fixture(scope="module")
def z4_census():
    return enumerate_submodules(ConcreteRing(p=2, s=2), 2)


class TestRingSpec:
    def test_prime_power_accepted(self):
        for q in (2, 3, 4, 8, 9, 11, 27):
            ChainRingSpec(q=q, s=2)

    def test_non_prime_power_rejected(self):
        for q in (1, 6, 10, 12, 15):
            with pytest.raises(ParameterError):
                ChainRingSpec(q=q, s=2)

    def test_large_prime_powers_certified(self):
        # past 2^40 with no factor up to 2^20, q is certified by an integer
        # root and Miller-Rabin, which decides every root below 3.3e24
        p61 = 2**61 - 1
        for q, root in (
            (2**64, (2, 64)),
            (3**40, (3, 40)),
            (65537**2, (65537, 2)),
            (2**40 - 87, (2**40 - 87, 1)),
            (2**40 + 15, (2**40 + 15, 1)),
            ((2**20 + 7) ** 3, (2**20 + 7, 3)),
            (p61, (p61, 1)),
            (p61**2, (p61, 2)),
        ):
            assert modcount._prime_power_root(q) == root
        assert ChainRingSpec(q=p61**2, s=1).size == p61**2
        for q in ((2**20 + 7) * p61, (2**20 + 7) ** 2 * (2**21 + 17), (2**31 - 1) * p61):
            with pytest.raises(ParameterError, match="prime power"):
                ChainRingSpec(q=q, s=1)

    def test_prime_power_check_is_bounded(self):
        # 2^89 - 1 is prime, past the range where Miller-Rabin is exact
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="prime factor"):
            ChainRingSpec(q=2**89 - 1, s=1)
        assert time.perf_counter() - start < 1

    def test_size(self):
        assert ChainRingSpec(q=3, s=2).size == 9


class TestConjugation:
    def test_hand_examples(self):
        assert shape_from_type((1, 0)) == (1, 1)
        assert shape_from_type((0, 1)) == (1, 0)
        assert type_from_shape((3, 1, 0)) == (0, 1, 2)

    def test_round_trip_on_random_types(self):
        rng = random.Random(7)
        for _ in range(500):
            s = rng.randint(1, 8)
            t = tuple(rng.randint(0, 6) for _ in range(s))
            assert type_from_shape(shape_from_type(t)) == t

    def test_rejects_increasing_shape(self):
        with pytest.raises(ParameterError):
            type_from_shape((1, 2))
        with pytest.raises(ParameterError):
            type_from_shape((2, -1))


class TestCounts:
    def test_count_by_shape_examples(self, z4_census):
        assert count_by_shape(2, Z4, (1, 1)) == z4_census.counts[(1, 0)] == 6
        assert count_by_shape(2, Z4, (1, 0)) == z4_census.counts[(0, 1)] == 3
        assert count_by_shape(5, ChainRingSpec(q=3, s=3), (0, 0, 0)) == 1

    def test_count_by_shape_rejects_wide_shape(self):
        with pytest.raises(ParameterError):
            count_by_shape(2, Z4, (3, 0))

    def test_count_by_type_examples(self, z4_census):
        assert count_by_type(2, Z4, (1, 0)) == 6
        assert count_by_type(2, Z4, (1, 1)) == 3
        for t, expected in z4_census.counts.items():
            assert count_by_type(2, Z4, t) == expected

    def test_count_by_type_rejects_excess_rank(self):
        with pytest.raises(ParameterError):
            count_by_type(2, Z4, (2, 1))

    def test_type_equals_conjugate_shape_on_grid(self):
        for q in (2, 3):
            for s in (1, 2, 3, 4):
                ring = ChainRingSpec(q=q, s=s)
                for n in range(1, 9):
                    for ell in range(n * s + 1):
                        for t in types_of_length(s, n, ell):
                            assert count_by_type(n, ring, t) == count_by_shape(
                                n, ring, shape_from_type(t)
                            )

    def test_count_free(self, z4_census):
        assert count_free(2, Z4, 1) == z4_census.counts[(1, 0)] == 6
        assert count_free(3, ChainRingSpec(q=2, s=1), 1) == 7
        assert count_free(9, ChainRingSpec(q=5, s=3), 0) == 1
        assert count_free(6, Z4, 2) == count_by_type(6, Z4, (2, 0))
        with pytest.raises(ParameterError):
            count_free(2, Z4, 3)


class TestEnumerations:
    def test_types_of_length_examples(self):
        assert list(types_of_length(2, 2, 2)) == [(0, 2), (1, 0)]
        assert list(types_of_length(1, 4, 2)) == [(2,)]
        assert list(types_of_length(3, 1, 2)) == [(0, 1, 0)]
        assert list(types_of_length(2, 1, 4)) == []

    def test_types_of_length_is_the_defining_set(self):
        for s, n, ell in [(2, 3, 4), (3, 4, 6), (4, 3, 7)]:
            got = list(types_of_length(s, n, ell))
            assert got == sorted(got)  # ascending lexicographic
            assert len(set(got)) == len(got)
            brute = [
                t
                for t in compositions_upto(s, n)
                if length_of(t) == ell
            ]
            assert set(got) == set(brute)

    def test_types_of_length_lists_the_defining_set_in_order(self):
        # the walk skips the parts no suffix can complete; it must still yield
        # every type of each length, once, in ascending lexicographic order
        for s in range(1, 6):
            for n in range(0, 6):
                brute = compositions_upto(s, n)
                for ell in range(-1, n * s + 2):
                    expected = sorted(t for t in brute if length_of(t) == ell)
                    assert list(types_of_length(s, n, ell)) == expected, (s, n, ell)

    def test_compositions(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert len(list(compositions(3, 1))) == 3
        assert len(list(compositions(2, 50))) == 51
        assert len(list(compositions(4, 9))) == math.comb(9 + 3, 3)

    def test_compositions_list_the_defining_set_in_order(self):
        for s in range(1, 6):
            for total in range(0, 7):
                expected = sorted(t for t in compositions_upto(s, total) if sum(t) == total)
                assert list(compositions(s, total)) == expected, (s, total)

    def test_compositions_nest_no_calls(self):
        # one generator per part hit the recursion limit near s = 1000
        deep = list(compositions(1100, 1))
        assert len(deep) == 1100
        assert deep[0] == (0,) * 1099 + (1,) and deep[-1] == (1,) + (0,) * 1099


def compositions_upto(s, n):
    # all types with rank at most n, brute force
    import itertools

    return [t for t in itertools.product(range(n + 1), repeat=s) if sum(t) <= n]


class TestTotals:
    def test_total_by_length_examples(self, z4_census):
        by_length = {}
        for t, c in z4_census.counts.items():
            by_length[length_of(t)] = by_length.get(length_of(t), 0) + c
        assert total_by_length(2, Z4, 2) == by_length[2] == 7
        assert total_by_length(2, Z4, 1) == by_length[1] == 3
        assert total_by_length(2, Z4, 4) == 1

    def test_total_by_rank_examples(self, z4_census):
        assert total_by_rank(2, Z4, 1) == 9
        assert total_by_rank(2, Z4, 0) == 1
        assert sum(total_by_rank(2, Z4, k) for k in range(3)) == z4_census.total == 15

    def test_lattice_partition_both_ways(self):
        for q, s, n in [(2, 2, 4), (3, 2, 3), (2, 4, 3), (5, 3, 2), (3, 4, 40)]:
            ring = ChainRingSpec(q=q, s=s)
            by_length = sum(total_by_length(n, ring, ell) for ell in range(n * s + 1))
            by_rank = sum(total_by_rank(n, ring, k) for k in range(n + 1))
            assert by_length == by_rank

    def test_range_checks(self):
        with pytest.raises(ParameterError):
            total_by_length(2, Z4, 5)
        with pytest.raises(ParameterError):
            total_by_rank(2, Z4, 3)

    def test_totals_equal_type_sums(self):
        # the definition: one count_by_type per type of that rank or length;
        # compositions lists every type of each rank once (types_of_length's
        # set is checked against brute force above)
        for q in (2, 3, 4):
            for s in range(1, 7):
                ring = ChainRingSpec(q=q, s=s)
                for n in range(13):
                    by_rank = [0] * (n + 1)
                    by_length = [0] * (n * s + 1)
                    for k in range(n + 1):
                        for t in compositions(s, k):
                            count = count_by_type(n, ring, t)
                            by_rank[k] += count
                            by_length[length_of(t)] += count
                    assert [total_by_rank(n, ring, k) for k in range(n + 1)] == by_rank, (q, s, n)
                    assert [total_by_length(n, ring, ell) for ell in range(n * s + 1)] == by_length, (q, s, n)

    def test_totals_do_not_enumerate_types(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the totals must not walk the types")

        for name in ("count_by_type", "compositions", "types_of_length"):
            monkeypatch.setattr(modcount, name, forbidden)
        ring = ChainRingSpec(q=7, s=3)
        # __wrapped__ skips the result caches
        assert total_by_rank.__wrapped__(9, ring, 4) > 0
        assert total_by_length.__wrapped__(9, ring, 13) > 0

    # first 16 hex digits of sha256(format(value, "x")), recorded with the
    # type-sum definition
    @pytest.mark.parametrize(
        "fn,n,q,s,arg,bits,digest",
        [
            (total_by_rank, 300, 2, 2, 100, 40002, "23508594e5b9e2a4"),
            (total_by_length, 240, 3, 2, 280, 44381, "ab1f13925f1f9b4b"),
            (total_by_rank, 150, 2, 3, 75, 16879, "2fe574e57ef4c993"),
            (total_by_length, 72, 3, 4, 144, 8218, "3781a217597dc719"),
            (total_by_rank, 55, 2, 5, 25, 3752, "a0316333b52f633b"),
            (total_by_length, 40, 5, 5, 90, 4598, "675cd6c0c19474d3"),
            (total_by_rank, 1000, 2, 2, 990, 259905, "762dd237e6ba8f32"),
            (total_by_length, 600, 2, 2, 600, 180003, "20cccab356659d85"),
        ],
    )
    def test_large_totals_pinned(self, fn, n, q, s, arg, bits, digest):
        value = fn(n, ChainRingSpec(q=q, s=s), arg)
        assert value.bit_length() == bits
        assert hashlib.sha256(format(value, "x").encode()).hexdigest()[:16] == digest


class TestTotalBudget:
    def test_oversized_total_refused_before_work(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="budget"):
            total_by_length(3000, ChainRingSpec(q=2, s=3), 4500)
        with pytest.raises(BudgetExceededError):
            free_fraction_by_rank(4000, ChainRingSpec(q=2, s=3), 2000)
        assert time.perf_counter() - start < 2

    def test_depth_two_total_in_little_memory(self):
        # one diagonal of ratio steps, no q-Pascal table (which took about 390 MiB)
        tracemalloc.start()
        try:
            total_by_length.__wrapped__(600, ChainRingSpec(q=2, s=2), 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_depth_two_rank_total_keeps_no_row(self):
        # row K is walked by ratio steps and dropped as it goes; kept as a
        # list, row 990 at q = 2 took about 20 MiB
        tracemalloc.start()
        try:
            total_by_rank.__wrapped__(1000, ChainRingSpec(q=2, s=2), 990)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_depth_two_total_keeps_binomial_refusals(self):
        # the diagonal's own charge admits this sum, but [30000, 75]_2, which
        # its first term reads, is over the count budget: refused at once
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="exact count needs"):
            total_by_length(30000, ChainRingSpec(q=2, s=2), 150)
        assert time.perf_counter() - start < 1

    def test_long_thin_total_within_budget(self):
        # 600k bits, but a four-term chain sum
        ring = ChainRingSpec(q=2, s=2)
        expected = sum(count_by_type(100000, ring, t) for t in compositions(2, 3))
        assert total_by_rank(100000, ring, 3) == expected


class TestCountBudget:
    def test_oversized_counts_refused_before_work(self):
        ring = ChainRingSpec(q=2, s=3)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="budget"):
            gaussian_binomial(4000, 2000, 2)
        with pytest.raises(BudgetExceededError, match="budget"):
            count_free(4000, ring, 2000)
        with pytest.raises(BudgetExceededError, match="budget"):
            count_by_type(4000, ring, (2000, 0, 0))
        with pytest.raises(BudgetExceededError, match="budget"):
            count_by_shape(4000, ring, (2000, 2000, 2000))
        # a power of 2.5e11 bits with a small binomial
        with pytest.raises(BudgetExceededError, match="budget"):
            count_free(1000, ChainRingSpec(q=2, s=1000), 500)
        # a span of 1000 factors, 1.5M bits between them
        with pytest.raises(BudgetExceededError, match="budget"):
            unimodular_probability(1000, 2000, ring)
        assert time.perf_counter() - start < 1

    def test_long_thin_counts_within_budget(self):
        # a 10^5-bit power and binomial, cheap to build
        ring = ChainRingSpec(q=3, s=2)
        assert count_free(100000, ring, 1) == 3 ** 99999 * (3 ** 100000 - 1) // 2
        assert count_by_shape(100000, ring, (1, 1)) == count_free(100000, ring, 1)


_OVER = ", over the budget of 1.4e+11"
_OVER3 = ", over the budget of 1.37e+11"  # a cost that rounds to the budget at two digits gets three
# (n, q, s, K, refusal of total_by_rank, refusal of free_fraction_by_rank),
# None where admitted.  total_by_rank charges [n, K], then the tail's walk
# (_rank_tail), and builds [n, K] last; free_fraction_by_rank charges the
# walk alone, since it builds no [n, K].  Rows whose outcome moved when the
# fraction's two [n, K] charges went and the walk got its own price are
# marked "moved".
RANK_REFUSALS = [
    (
        4000,
        2,
        3,
        2000,
        "exact count needs about 1e+12 bit operations" + _OVER,
        "exact total at n=4000, s=3 needs about 4.2e+14 bit operations" + _OVER,
    ),
    (
        5000,
        2,
        2,
        2500,
        "exact count needs about 2.5e+12 bit operations" + _OVER,
        "exact total at n=5000, s=2 needs about 1.1e+12 bit operations" + _OVER,
    ),
    # moved: the fraction was refused by the [n, K] charges alone; it builds
    # no [n, K] and runs no gcd, and takes at most 0.08 s here
    (300000, 2, 1, 10, "exact count needs about 2.8e+11 bit operations" + _OVER, None),
    (300000, 2, 2, 10, "exact count needs about 2.8e+11 bit operations" + _OVER, None),
    (10**7, 2, 1, 1, "exact count needs about 3.1e+12 bit operations" + _OVER, None),
    (10**7, 2, 2, 1, "exact count needs about 3.1e+12 bit operations" + _OVER, None),
    (690000, 2, 2, 3, None, None),
    (700000, 2, 2, 3, "exact count needs about 1.38e+11 bit operations" + _OVER3, None),
    (1360000, 2, 2, 3, "exact count needs about 5.2e+11 bit operations" + _OVER, None),
    # moved: both were admitted and walked for 5-12 s (s = 3) or 2 s (s = 20);
    # s = 1000 was priced under the budget and stopped only by the recursion guard
    (900, 2, 3, 450, *["exact total at n=900, s=3 needs about 5.2e+11 bit operations" + _OVER] * 2),
    (2000000, 2, 20, 1, *["exact total at n=2000000, s=20 needs about 1.9e+12 bit operations" + _OVER] * 2),
    (40000, 2, 1000, 1, *["exact total at n=40000, s=1000 needs about 1.1e+13 bit operations" + _OVER] * 2),
    (100000, 2, 1, 3, None, None),
    (100000, 2, 2, 3, None, None),
    (2000000, 2, 2, 1, None, None),  # the old quotient took 25 s in Fraction's gcd, the new one runs none
    # [2000, 1000]_2 is admitted and the walk is not: the total built the binomial, 1.7 s, before its refusal
    (2000, 2, 3, 1000, *["exact total at n=2000, s=3 needs about 1.8e+13 bit operations" + _OVER] * 2),
]
# (n, q, s, ell, refusal of total_by_length, refusal of free_fraction_by_length),
# None where admitted, one case per refusal of the length sum: the kernel's
# own charge, then at s = 2 the binomial [n, ceil(ell / 2)] of its first
# term.  The sum nests no call per part, so s = 1100 is admitted (its value
# is checked in test_cli), and so is s = 1 with ell = n - 1, one thin
# binomial.  A fraction is refused as its total is, before count_free's
# charge.
LENGTH_REFUSALS = [
    (30000, 2, 2, 150, *["exact count needs about 1.6e+11 bit operations" + _OVER] * 2),
    (30000, 3, 2, 100, *["exact count needs about 1.8e+11 bit operations" + _OVER] * 2),
    (30000, 2, 2, 200, *["exact total at n=30000, s=2 needs about 2e+11 bit operations" + _OVER] * 2),
    (3000, 2, 3, 4500, *["exact total at n=3000, s=3 needs about 6e+13 bit operations" + _OVER] * 2),
    (3, 2, 1100, 1100, None, None),
    (5000, 2, 3, 30, None, None),
    (2000, 2, 2, 200, None, None),
    (10000, 2, 1, 9999, None, None),
]


class TestFreeFractions:
    def test_by_length_examples(self, z4_census):
        assert free_fraction_by_length(2, Z4, 2) == Fraction(6, 7)
        assert free_fraction_by_length(2, Z4, 4) == 1
        with pytest.raises(ParameterError):
            free_fraction_by_length(2, Z4, 3)

    def test_psi_convergence_value(self):
        psi = free_fraction_by_length(60, Z4, 60)
        assert abs(float(psi) - 0.59546) < 0.01

    def test_by_rank_table_values(self):
        phi = free_fraction_by_rank(100, Z4, 50)
        assert render_ratio(phi, 6) == "0.460263"
        phi2 = free_fraction_by_rank(100, Z4, 60)
        assert render_ratio(phi2, 6) == "1.07e-31"
        phi3 = free_fraction_by_rank(100, ChainRingSpec(q=3, s=2), 40)
        assert render_ratio(phi3, 6) == "1-1.4e-10"

    def test_by_rank_is_the_old_quotient_in_lowest_terms(self):
        # the old quotient count_free / total_by_rank, with the total summed
        # chain by chain; the new one is q^e / T, and T = 1 mod q below n.
        # Every length sum is 1 mod q too, which free_fraction_by_length's
        # one gcd on [n, K]_q rests on
        for q in (2, 3, 4, 5, 7, 9):
            for s in range(1, 5):
                ring = ChainRingSpec(q=q, s=s)
                for n in range(13):
                    for k in range(n + 1):
                        value = free_fraction_by_rank(n, ring, k)
                        total = naive_chain_sum(n, q, s, range(k, k + 1), None)
                        assert value == Fraction(count_free(n, ring, k), total), (q, s, n, k)
                        assert value.numerator == q ** ((n - k) * k * (s - 1)), (q, s, n, k)
                        if k < n:
                            assert _rank_tail(n, q, s, k) % q == 1, (q, s, n, k)
                    for ell in range(n * s + 1):
                        assert q_multinomial(n, ell, s, q) % q == 1, (q, s, n, ell)

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
        s=st.integers(1, 6),
        n=st.integers(0, 30),
        share=st.fractions(min_value=0, max_value=1),
    )
    def test_fractions_are_the_old_quotients_in_lowest_terms(self, q, s, n, share):
        # the three fractions take parts proven coprime as they are; a part
        # left with a common factor would break equality and hashing
        ring = ChainRingSpec(q=q, s=s)
        k = int(share * n)
        span = math.prod(q**i - 1 for i in range(n - k + 1, n + 1))
        pairs = [
            (free_fraction_by_rank(n, ring, k), Fraction(count_free(n, ring, k), total_by_rank(n, ring, k))),
            (free_fraction_by_length(n, ring, k * s), Fraction(count_free(n, ring, k), total_by_length(n, ring, k * s))),
            (unimodular_probability(k, n, ring), Fraction(span, q ** (k * (2 * n - k + 1) // 2))),
        ]
        for value, old in pairs:
            assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1
            assert (value.numerator, value.denominator) == (old.numerator, old.denominator)
            assert value == old and hash(value) == hash(old)

    def test_gcd_runs_only_where_the_parts_can_share_a_factor(self, monkeypatch):
        # the rank fraction and the unimodular probability are in lowest terms
        # by construction; the length fraction runs one gcd, on [n, K]_q and
        # the total, not on count_free and the total
        gcd = math.gcd
        calls = []
        monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or gcd(*args))
        large = lambda: [args for args in calls if min(map(abs, args)) > 2**64]  # noqa: E731
        assert free_fraction_by_rank(300, Z4, 100).denominator > 2**64
        assert unimodular_probability(100, 200, Z4).denominator > 2**64
        assert [[x.bit_length() for x in args] for args in large()] == []
        ring = ChainRingSpec(q=3, s=2)
        assert free_fraction_by_length(240, ring, 280).denominator > 2**64
        [args] = large()
        binomial = gaussian_binomial(240, 140, 3)
        assert any(x == binomial for x in args)

    @pytest.mark.parametrize("p,s,n", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 1, 4)])
    def test_by_rank_matches_the_census(self, p, s, n):
        # free submodules of rank K over all submodules of rank K, counted one by one
        census = enumerate_submodules(ConcreteRing(p=p, s=s), n)
        for k in range(n + 1):
            free = census.counts.get((k,) + (0,) * (s - 1), 0)
            of_rank = sum(count for mtype, count in census.counts.items() if sum(mtype) == k)
            assert free_fraction_by_rank(n, ChainRingSpec(q=p, s=s), k) == Fraction(free, of_rank), k

    def test_by_rank_builds_no_binomial_over_n(self, monkeypatch):
        # [n, K] cancels between count_free and the total, so it is never asked for
        asked = []
        for module in (qseries, modcount):
            for name in ("gaussian_binomial", "_gaussian_binomial"):  # the cached binomial and its kernel, which the total reads
                binomial = getattr(module, name)
                spy = lambda m, k, base, binomial=binomial: asked.append((m, k)) or binomial(m, k, base)  # noqa: E731
                monkeypatch.setattr(module, name, spy)
        for q, s in ((2, 1), (3, 2), (2, 3), (5, 4)):
            for k in range(13):
                free_fraction_by_rank(12, ChainRingSpec(q=q, s=s), k)
        assert not [m for m, _ in asked if m == 12]
        total_by_rank.__wrapped__(12, ChainRingSpec(q=3, s=2), 5)  # the total still builds it
        assert asked[-1] == (12, 5)

    @pytest.mark.parametrize(
        "n,q,s,k,total_refusal,fraction_refusal",
        [pytest.param(*case, id="-".join(map(str, case[:4]))) for case in RANK_REFUSALS],
    )
    def test_by_rank_refuses_as_the_old_quotient(self, n, q, s, k, total_refusal, fraction_refusal):
        ring = ChainRingSpec(q=q, s=s)
        start = time.perf_counter()
        for fn, refusal in ((total_by_rank.__wrapped__, total_refusal), (free_fraction_by_rank, fraction_refusal)):
            if refusal is None:
                fn(n, ring, k)
            else:
                with pytest.raises(BudgetExceededError) as info:
                    fn(n, ring, k)
                assert str(info.value) == refusal
        assert time.perf_counter() - start < 2

    def test_by_rank_charges_the_count_before_the_walk(self, monkeypatch):
        # no rank refusal starts a kernel: every charge, [n, K] and the walk's
        # own, comes before the first row the walk reads and before [n, K] is built
        def forbidden(*args):
            raise AssertionError("built a row of the walk or [n, K] before a refusal")

        for name in ("_q_pascal", "_binomial_row"):
            monkeypatch.setattr(qseries, name, forbidden)
        for module in (qseries, modcount):
            monkeypatch.setattr(module, "_gaussian_binomial", forbidden)
        for n, q, s, k, *refusals in RANK_REFUSALS:
            ring = ChainRingSpec(q=q, s=s)
            for fn, refusal in zip((total_by_rank.__wrapped__, free_fraction_by_rank), refusals):
                if refusal is not None:
                    with pytest.raises(BudgetExceededError):
                        fn(n, ring, k)

    def test_by_rank_charges_each_cost_once(self, monkeypatch):
        # the total charges [n, K], then the walk; the fraction the walk alone
        ring = ChainRingSpec(q=2, s=3)
        assert len(_spied_costs(monkeypatch, lambda: total_by_rank.__wrapped__(150, ring, 75))) == 2
        assert len(_spied_costs(monkeypatch, lambda: free_fraction_by_rank(150, ring, 75))) == 1

    @pytest.mark.parametrize(
        "n,q,s,ell,total_refusal,fraction_refusal",
        [pytest.param(*case, id="-".join(map(str, case[:4]))) for case in LENGTH_REFUSALS],
    )
    def test_by_length_refusals_pinned(self, n, q, s, ell, total_refusal, fraction_refusal):
        ring = ChainRingSpec(q=q, s=s)
        start = time.perf_counter()
        for fn, refusal in ((total_by_length.__wrapped__, total_refusal), (free_fraction_by_length, fraction_refusal)):
            if refusal is None:
                fn(n, ring, ell)
            else:
                with pytest.raises(BudgetExceededError) as info:
                    fn(n, ring, ell)
                assert str(info.value) == refusal
        assert time.perf_counter() - start < 2


class TestMatrixCounts:
    def test_first_use_validates_interpretation(self):
        # triggers the exhaustive cross-check on (1,2,2,2), (2,2,2,2), (1,1,2,3)
        assert matrix_count_by_type(2, 2, Z4, (0, 0)) == 1

    def test_unimodular_vector_count(self):
        assert matrix_count_by_type(1, 2, Z4, (1, 0)) == 12

    def test_total_over_types_is_whole_space(self):
        for m, n, ring in [(1, 2, Z4), (2, 2, Z4), (2, 3, ChainRingSpec(q=3, s=2))]:
            total = 0
            for rank in range(min(m, n) + 1):
                for t in compositions(ring.s, rank):
                    total += matrix_count_by_type(m, n, ring, t)
            assert total == ring.q ** (ring.s * m * n)

    def test_rejects_excess_rank(self):
        with pytest.raises(ParameterError):
            matrix_count_by_type(1, 2, Z4, (1, 1))


class TestUnimodularProbability:
    def test_small_example_against_enumeration(self, z4_census):
        assert unimodular_probability(1, 2, Z4) == Fraction(3, 4)
        assert unimodular_probability(0, 5, Z4) == 1

    def test_two_by_two_against_exhaustive_count(self):
        ring = ConcreteRing(p=2, s=2)
        hits = 0
        total = 0
        for code in range(4 ** 4):
            entries = [[(code >> (2 * i)) & 3 for i in range(2)], [(code >> (2 * i + 4)) & 3 for i in range(2)]]
            total += 1
            if is_rect_unimodular(ring_matrix(ring, entries)):
                hits += 1
        assert unimodular_probability(2, 2, Z4) == Fraction(hits, total)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_equals_pochhammer_ratio(self, q):
        qinv = Fraction(1, q)
        for n in range(12):
            for k in range(n + 1):
                expected = pochhammer_finite(qinv, qinv, n) / pochhammer_finite(qinv, qinv, n - k)
                assert unimodular_probability(k, n, ChainRingSpec(q=q, s=2)) == expected

    def test_no_s_dependence(self):
        values = {unimodular_probability(2, 5, ChainRingSpec(q=3, s=s)) for s in range(1, 6)}
        assert len(values) == 1

    def test_rejects_k_above_n(self):
        with pytest.raises(ParameterError):
            unimodular_probability(3, 2, Z4)
