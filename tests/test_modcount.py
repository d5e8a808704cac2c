import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from chainring import modcount
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
from chainring.render import render_ratio
from chainring.simulate import ConcreteRing, enumerate_submodules, is_rect_unimodular, ring_matrix

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

    def test_compositions(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert len(list(compositions(3, 1))) == 3
        assert len(list(compositions(2, 50))) == 51
        assert len(list(compositions(4, 9))) == math.comb(9 + 3, 3)


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

    def test_long_thin_total_within_budget(self):
        # 600k bits, but a four-term chain sum
        ring = ChainRingSpec(q=2, s=2)
        expected = sum(count_by_type(100000, ring, t) for t in compositions(2, 3))
        assert total_by_rank(100000, ring, 3) == expected


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

    def test_no_s_dependence(self):
        values = {unimodular_probability(2, 5, ChainRingSpec(q=3, s=s)) for s in range(1, 6)}
        assert len(values) == 1

    def test_rejects_k_above_n(self):
        with pytest.raises(ParameterError):
            unimodular_probability(3, 2, Z4)
