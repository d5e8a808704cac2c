import math
import random
import time

import numpy as np
import pytest

from chainring import simulate
from chainring.errors import BudgetExceededError, ParameterError
from chainring.modcount import ChainRingSpec, length_of, unimodular_probability
from chainring.simulate import (
    ConcreteRing,
    enumerate_submodules,
    is_rect_unimodular,
    matrix_type,
    monte_carlo_type_distribution,
    ring_matrix,
    row_span,
    sample_matrix,
    valuation,
    validate_matrix_count_interpretation,
    verify_census,
    _tally,
    _types,
)

from helpers import naive_submodule_census, span_type

Z4 = ConcreteRing(p=2, s=2)
Z8 = ConcreteRing(p=2, s=3)
Z9 = ConcreteRing(p=3, s=2)
Z27 = ConcreteRing(p=3, s=3)


# (p, s) on both sides of each edge of the reduction's working type: int8 | int16
# at p^s = 11 | 13, int16 | int32 at 181 | 191 (169 inside), int32 | int64 at
# 46337 | 46349, int64 | Python ints at 2^31 | 2^32 and at 3^19 | 3^20
DTYPE_EDGES = [
    (11, 1), (13, 1), (13, 2), (181, 1), (191, 1), (46337, 1), (46349, 1), (2, 31), (2, 32), (3, 19), (3, 20)
]


def random_entries(rng, ring, m, n):
    """Entries with random valuations, so that every type shows up."""
    return [[rng.randrange(ring.modulus) * ring.p ** rng.randint(0, ring.s) % ring.modulus for _ in range(n)] for _ in range(m)]


class TestRing:
    def test_rejects_composite_p(self):
        for p in (-3, 0, 1, 4, 6, 9, 25, 7921):
            with pytest.raises(ParameterError, match=f"^p must be prime, got {p}$"):
                ConcreteRing(p=p, s=2)
        assert [ConcreteRing(p=p, s=1).p for p in (2, 3, 97, 7919)] == [2, 3, 97, 7919]

    def test_modulus_and_spec(self):
        assert Z8.modulus == 8
        assert Z8.spec() == ChainRingSpec(q=2, s=3)

    def test_valuation(self):
        assert valuation(2, Z4) == 1
        assert valuation(0, Z8) == 3
        assert valuation(6, Z8) == 1
        assert valuation(5, Z8) == 0

    def test_ring_matrix_reduces_entries(self):
        mat = ring_matrix(Z4, [[5, -1], [8, 3]])
        assert mat.entries == ((1, 3), (0, 3))


class TestMatrixType:
    def test_identity_is_free(self):
        assert matrix_type(ring_matrix(Z4, [[1, 0], [0, 1]])) == (2, 0)

    def test_scaled_unimodular_row(self):
        assert matrix_type(ring_matrix(Z4, [[2, 0]])) == (0, 1)

    def test_mixed_two_by_two(self):
        # the row span of [[2,1],[0,2]] is the cyclic group generated by
        # (2,1), of order 4, hence one summand of full length
        mat = ring_matrix(Z4, [[2, 1], [0, 2]])
        assert row_span(mat) == {(0, 0), (2, 1), (0, 2), (2, 3)}
        assert matrix_type(mat) == (1, 0)

    def test_span_size_matches_type_length(self):
        rng = random.Random(3)
        for _ in range(1000):
            ring = rng.choice([Z4, Z8, Z9])
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            entries = [[rng.randrange(ring.modulus) for _ in range(n)] for _ in range(m)]
            mat = ring_matrix(ring, entries)
            t = matrix_type(mat)
            assert len(row_span(mat)) == ring.p ** length_of(t)

    def test_type_equals_span_filtration(self):
        rng = random.Random(29)
        for _ in range(400):
            ring = rng.choice([Z4, Z8, Z9, Z27])
            mat = ring_matrix(ring, random_entries(rng, ring, rng.randint(1, 3), rng.randint(1, 3)))
            assert matrix_type(mat) == span_type(row_span(mat), ring.p, ring.s), mat.entries

    @pytest.mark.parametrize("p,s", [(2, 3), (3, 3), (2, 40), *DTYPE_EDGES])
    def test_batch_equals_one_at_a_time(self, p, s):
        ring = ConcreteRing(p=p, s=s)
        rng = random.Random(31)
        rows = [random_entries(rng, ring, 3, 4) for _ in range(200)]
        expected = [matrix_type(ring_matrix(ring, r)) for r in rows]
        # the same residues, some negative or past p^s
        shifted = [[[x + ring.modulus * rng.randint(-2, 2) for x in row] for row in r] for r in rows]
        for dtype in (object, np.int64) if ring.modulus < 1 << 61 else (object,):
            for stack in (rows, shifted):
                assert [tuple(t) for t in _types(np.array(stack, dtype=dtype), ring).tolist()] == expected

    @pytest.mark.parametrize("p,s", [(2, 70), (3, 45), *DTYPE_EDGES])
    def test_object_path_counts_diagonal_valuations(self, p, s):
        # U diag(p^v_i) V with unit-triangular U, V has the v_i as its invariants
        ring = ConcreteRing(p=p, s=s)
        mod = ring.modulus
        rng = random.Random(p * s)

        def unit_triangular(k):
            return [[1 if i == j else rng.randrange(mod) if j > i else 0 for j in range(k)] for i in range(k)]

        def product(a, b):
            return [[sum(x * y for x, y in zip(row, col)) % mod for col in zip(*b)] for row in a]

        def known(m, n):
            """Two m x n matrices U D V, one upper and one lower, and their type."""
            vals = [rng.randint(0, s) for _ in range(min(m, n))]
            diag = [[p ** vals[i] % mod if i == j else 0 for j in range(n)] for i in range(m)]
            upper = product(product(unit_triangular(m), diag), unit_triangular(n))
            lower = product(product(list(zip(*unit_triangular(m))), diag), list(zip(*unit_triangular(n))))
            return upper, lower, tuple(vals.count(v) for v in range(s))

        for _ in range(50):
            upper, lower, expected = known(rng.randint(1, 4), rng.randint(1, 4))
            assert matrix_type(ring_matrix(ring, upper)) == expected
            assert matrix_type(ring_matrix(ring, lower)) == expected
        # one stack as Python ints, and as int64 where the entries fit
        stack = [known(3, 4) for _ in range(40)]
        mats = [mat for upper, lower, _ in stack for mat in (upper, lower)]
        expected = [t for *_, t in stack for _ in range(2)]
        for dtype in (object, np.int64) if mod < 1 << 63 else (object,):
            assert [tuple(t) for t in _types(np.array(mats, dtype=dtype), ring).tolist()] == expected

    def test_work_dtype_edges(self):
        # the narrowest type that holds every |u a - w b| <= (p^s - 1)^2
        moduli = (11, 13, 169, 181, 191, 46337, 46349, 2 ** 31, 3 ** 19, 3 ** 20, 2 ** 32)
        assert [simulate._work_dtype(mod) for mod in moduli] == [
            np.int8, np.int16, np.int16, np.int16, np.int32, np.int32, np.int64, np.int64, np.int64, object, object
        ]

    def test_edge_shapes(self):
        # tall, wide, zero rows and no rows
        assert matrix_type(ring_matrix(Z4, [[2, 0], [0, 2], [2, 2]])) == (0, 2)
        assert matrix_type(ring_matrix(Z4, [[2, 0], [0, 1], [1, 1]])) == (2, 0)
        assert matrix_type(ring_matrix(Z8, [[0, 2, 6]])) == (0, 1, 0)
        assert matrix_type(ring_matrix(Z8, [[4, 2, 0, 1], [0, 0, 4, 2]])) == (1, 0, 1)
        assert matrix_type(ring_matrix(Z8, [[0, 0, 0], [0, 0, 0]])) == (0, 0, 0)
        assert matrix_type(ring_matrix(Z4, [])) == (0, 0)
        assert _types(np.zeros((5, 0, 3), dtype=np.int64), Z9).tolist() == [[0, 0]] * 5
        assert _types(np.zeros((5, 3, 0), dtype=np.int64), Z9).tolist() == [[0, 0]] * 5

    def test_empty_stack(self):
        types = _types(np.zeros((0, 2, 3), dtype=np.int64), Z9)
        assert types.shape == (0, 2)
        assert _tally(types) == {}

    def test_tally_equals_row_unique(self):
        # one radix code per row, in lexicographic order, as np.unique(axis=0) gives
        def row_unique(types):
            rows, counts = np.unique(types, axis=0, return_counts=True)
            return list(zip(map(tuple, rows.tolist()), counts.tolist()))

        rng = np.random.default_rng(23)
        stacks = [np.array([[3, 0, 1]]), np.zeros((5, 4), dtype=np.int64)]
        for n, s in [(1, 1), (2, 3), (4, 2), (3, 5), (6, 6), (1, 40)]:  # 41^40 codes overflow int64
            stacks.append(rng.integers(0, n * s + 1, size=(rng.integers(1, 3000), s)))
        for types in stacks:
            assert list(_tally(types).items()) == row_unique(types)

    def test_invariant_under_row_ops(self):
        rng = random.Random(5)
        trials = 0
        while trials < 1000:
            ring = rng.choice([Z4, Z8, Z9])
            n = rng.randint(2, 3)
            m = rng.randint(1, n)
            entries = [[rng.randrange(ring.modulus) for _ in range(n)] for _ in range(m)]
            mat = ring_matrix(ring, entries)
            base_type = matrix_type(mat)
            # random permutation
            perm = list(range(m))
            rng.shuffle(perm)
            permuted = ring_matrix(ring, [entries[i] for i in perm])
            assert matrix_type(permuted) == base_type
            # left-multiply by a random invertible square matrix
            square = [[rng.randrange(ring.modulus) for _ in range(m)] for _ in range(m)]
            if not is_rect_unimodular(ring_matrix(ring, square)):
                continue
            product = [
                [sum(square[i][k] * entries[k][j] for k in range(m)) % ring.modulus for j in range(n)]
                for i in range(m)
            ]
            assert matrix_type(ring_matrix(ring, product)) == base_type
            trials += 1


class TestRowSpan:
    def test_zero_matrix(self):
        assert row_span(ring_matrix(Z4, [[0, 0]])) == {(0, 0)}

    def test_examples(self):
        assert row_span(ring_matrix(Z4, [[2, 0]])) == {(0, 0), (2, 0)}
        assert len(row_span(ring_matrix(Z4, [[1, 1]]))) == 4

    def test_budget(self):
        mat = ring_matrix(Z4, [[0] * 2 for _ in range(11)])
        with pytest.raises(BudgetExceededError):
            row_span(mat)  # 4^11 > 2^20

    def test_budget_names_a_modulus_past_the_digit_limit(self):
        # 2^20000 has 6021 digits, past what str prints by default
        mat = ring_matrix(ConcreteRing(p=2, s=20000), [[1]])
        with pytest.raises(BudgetExceededError, match=r"^\(2\^20000\)\^1 coefficient vectors exceed budget 1048576$"):
            row_span(mat)


class TestUnimodular:
    def test_examples(self):
        assert is_rect_unimodular(ring_matrix(Z4, [[1, 0], [0, 1]]))
        assert not is_rect_unimodular(ring_matrix(Z4, [[2, 0]]))
        # det = -6 = 2 mod 4, not a unit
        assert not is_rect_unimodular(ring_matrix(Z4, [[1, 2], [3, 0]]))

    def test_rejects_wide(self):
        with pytest.raises(ParameterError):
            is_rect_unimodular(ring_matrix(Z4, [[1, 0], [0, 1], [1, 1]]))


class TestCensus:
    def test_z4_squared(self):
        census = enumerate_submodules(Z4, 2)
        assert census.counts == {
            (0, 0): 1,
            (0, 1): 3,
            (1, 0): 6,
            (0, 2): 1,
            (1, 1): 3,
            (2, 0): 1,
        }
        assert census.total == 15

    def test_binary_field_plane(self):
        census = enumerate_submodules(ConcreteRing(p=2, s=1), 2)
        assert census.total == 5  # 1 + 3 + 1 subspaces

    def test_z4_line(self):
        census = enumerate_submodules(Z4, 1)
        assert census.total == 3  # 0, <2>, <1>

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_submodules(Z4, 5)

    @pytest.mark.parametrize(
        "p,s,n",
        [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 4, 2), (3, 3, 2), (2, 5, 2), (2, 6, 2), (7, 2, 2), (2, 16, 1)],
    )
    def test_verify_census_matches_formulas(self, p, s, n):
        census, rows, ok = verify_census(ConcreteRing(p=p, s=s), n)
        assert ok
        assert all(match for _, _, _, match in rows)
        assert sum(c for _, c, _, _ in rows) == census.total

    @pytest.mark.parametrize(
        "p,s,n", [(2, 2, 2), (2, 1, 3), (3, 1, 2), (2, 3, 2), (3, 2, 2), (5, 1, 2), (2, 4, 1), (3, 1, 3)]
    )
    def test_matches_naive_census(self, p, s, n):
        census = enumerate_submodules(ConcreteRing(p=p, s=s), n)
        naive = naive_submodule_census(p, s, n)
        assert census.counts == naive
        assert census.total == sum(naive.values())

    def test_zero_and_negative_rank(self):
        assert enumerate_submodules(Z4, 0) == simulate.TypeCensus(counts={(0, 0): 1}, total=1)
        with pytest.raises(ParameterError):
            enumerate_submodules(Z4, -1)

    def test_exact_past_float32_products(self):
        # (2^13 - 1)^2 >= 2^24: float32 products would merge distinct spans
        census, rows, ok = verify_census(ConcreteRing(p=2, s=13), 1)
        assert census.total == 14
        assert ok

    def test_span_budget_refuses_before_work(self):
        # the s + 1 ideals of Z/2^16, one chain of covers from 0 to the ring
        census = enumerate_submodules(ConcreteRing(p=2, s=16), 1)
        assert census.total == 17 and set(census.counts.values()) == {1}
        # (Z/2^21)^1 passes the matrix budget, but its 2^21 elements exceed SPAN_BUDGET
        start = time.perf_counter()
        message = r"^2097152\^1 elements of R\^1 exceed budget 1048576$"
        with pytest.raises(BudgetExceededError, match=message):
            enumerate_submodules(ConcreteRing(p=2, s=21), 1)
        assert time.perf_counter() - start < 1.0

    def test_budgets_decided_on_exponents(self):
        # (p^s)^(n n) and (p^s)^n are never raised when s n n or s n alone refuses
        cases = [
            (ConcreteRing(p=2, s=2), 100000, r"^4\^10000000000 generator matrices exceed budget 16777216$"),
            (ConcreteRing(p=2, s=20000), 1, r"^\(2\^20000\)\^1 generator matrices exceed budget 16777216$"),
            (ConcreteRing(p=3, s=40), 1, r"^\(3\^40\)\^1 generator matrices exceed budget 16777216$"),
        ]
        for ring, n, message in cases:
            start = time.thread_time()
            with pytest.raises(BudgetExceededError, match=message):
                enumerate_submodules(ring, n)
            assert time.thread_time() - start < 0.1

    def test_census_cost_follows_the_submodules(self):
        for ring, n in ((ConcreteRing(p=2, s=13), 1), (Z27, 2), (ConcreteRing(p=2, s=5), 2)):
            start = time.perf_counter()
            enumerate_submodules(ring, n)
            assert time.perf_counter() - start < 0.1


class TestSampling:
    def test_golden_matrix(self):
        # pins the generator: PCG64 seeded via SeedSequence(42, spawn_key=(0,))
        mat = sample_matrix(2, 3, Z4, seed=42, stream=0)
        assert mat.entries == ((1, 3, 2), (3, 0, 3))

    def test_deterministic_and_stream_separated(self):
        a = sample_matrix(4, 4, Z8, seed=7, stream=3)
        b = sample_matrix(4, 4, Z8, seed=7, stream=3)
        c = sample_matrix(4, 4, Z8, seed=7, stream=4)
        assert a.entries == b.entries
        assert a.entries != c.entries

    @pytest.mark.parametrize(
        "m,n,message", [(-1, 2, "m must be nonnegative, got -1"), (2, -3, "n must be nonnegative, got -3")]
    )
    def test_rejects_negative_sizes(self, m, n, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            sample_matrix(m, n, Z4, seed=1)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            monte_carlo_type_distribution(m, n, Z4, 10, seed=1)
        assert monte_carlo_type_distribution(0, 3, Z4, 10, seed=1).counts == {(0, 0): 10}

    def test_entry_histogram_uniform(self):
        mat = sample_matrix(1000, 100, Z4, seed=99)
        flat = [x for row in mat.entries for x in row]
        n = len(flat)
        expected = n / 4
        sigma = math.sqrt(n * 0.25 * 0.75)
        for residue in range(4):
            assert abs(flat.count(residue) - expected) < 4 * sigma


class TestMonteCarlo:
    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            monte_carlo_type_distribution(1, 2, Z4, 0, seed=1)

    @pytest.mark.parametrize("m,n,trials", [(4, 4, 10 ** 9), (0, 3, simulate.MC_BUDGET + 1)])
    def test_trials_past_the_budget_refused_at_once(self, m, n, trials):
        start = time.thread_time()
        with pytest.raises(BudgetExceededError, match=rf"^{trials} trials of {m}x{n} matrices exceed budget"):
            monte_carlo_type_distribution(m, n, Z8, trials, seed=1)
        assert time.thread_time() - start < 0.1

    def test_matches_exact_distribution(self):
        trials = 20_000
        census = monte_carlo_type_distribution(1, 2, Z4, trials, seed=2024)
        assert census.total == trials
        exact = {(1, 0): 12 / 16, (0, 1): 3 / 16, (0, 0): 1 / 16}
        for t, p in exact.items():
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(census.counts.get(t, 0) / trials - p) < 4 * sigma

    def test_invertible_fraction_over_field(self):
        trials = 20_000
        ring = ConcreteRing(p=2, s=1)
        census = monte_carlo_type_distribution(2, 2, ring, trials, seed=17)
        p = 6 / 16  # |GL_2(F_2)| = 6
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(census.counts.get((2,), 0) / trials - p) < 4 * sigma

    def test_unimodular_frequency_matches_probability(self):
        trials = 20_000
        for (k, n), ring in [((1, 2), Z4), ((2, 3), Z8), ((2, 4), Z9)]:
            census = monte_carlo_type_distribution(k, n, ring, trials, seed=4321)
            free = (k,) + (0,) * (ring.s - 1)
            p = float(unimodular_probability(k, n, ring.spec()))
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(census.counts.get(free, 0) / trials - p) < 4 * sigma

    def test_tallies_pinned(self):
        # any change to the draws or to the reduction moves these counts
        census = monte_carlo_type_distribution(4, 4, Z8, 12000, seed=1)
        assert census.counts == {
            (1, 1, 1): 3, (1, 1, 2): 2, (1, 2, 0): 13, (1, 2, 1): 9, (1, 3, 0): 12,
            (2, 0, 0): 4, (2, 0, 1): 45, (2, 0, 2): 31, (2, 1, 0): 408, (2, 1, 1): 376,
            (2, 2, 0): 472, (3, 0, 0): 1674, (3, 0, 1): 1748, (3, 1, 0): 3533, (4, 0, 0): 3670,
        }
        census = monte_carlo_type_distribution(6, 6, Z9, 4000, seed=1)
        assert census.counts == {(4, 1): 34, (4, 2): 51, (5, 0): 543, (5, 1): 1135, (6, 0): 2237}

    def test_deterministic_and_parallel_equal(self):
        a = monte_carlo_type_distribution(2, 2, Z4, 9000, seed=5)
        b = monte_carlo_type_distribution(2, 2, Z4, 9000, seed=5)
        assert a.counts == b.counts


def test_matrix_count_interpretation_points():
    points = validate_matrix_count_interpretation()
    assert (2, 2, 2, 2) in points
