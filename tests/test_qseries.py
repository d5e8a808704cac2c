import hashlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainring import qseries
from chainring.approx import TruncationPolicy
from chainring.errors import BudgetExceededError, NonconvergentError, ParameterError
from chainring.qseries import (
    _exact_product,
    _rank_tail,
    balanced_multinomial,
    euler_function,
    gaussian_binomial,
    pochhammer_finite,
    pochhammer_infinite,
    q_multinomial,
)

from helpers import f2_subspace_count, loop_total_estimate, naive_chain_sum, naive_q_multinomial, sublattice_count
from test_exact_pins import _spied_costs

HALF = Fraction(1, 2)
# the bases of test_every_depth_matches_chains
BASES = [2, 3, HALF, Fraction(3, 2), Fraction(2, 3), 1, -1, -2, Fraction(-3, 2), Fraction(-1, 2), 0, Fraction(5, 3)]


def rank_sum(n: int, base, s: int, k: int):
    """The chain sum over mu_1 = k: [n, k] times the rank tail below k."""
    return gaussian_binomial(n, k, base) * _rank_tail(n, base, s, k)


class TestGaussianBinomial:
    def test_counts_subspaces_of_f2(self):
        # independent oracle: enumerate all 2-dimensional subspaces of F_2^4
        assert f2_subspace_count(4, 2) == 35
        assert gaussian_binomial(4, 2, 2) == 35

    def test_conventions(self):
        assert gaussian_binomial(7, 0, 3) == 1
        assert gaussian_binomial(7, 7, 3) == 1
        assert gaussian_binomial(2, 3, 2) == 0
        assert gaussian_binomial(5, -1, 2) == 0

    def test_rational_base(self):
        assert gaussian_binomial(2, 1, HALF) == Fraction(3, 2)
        assert gaussian_binomial(2, 3, HALF) == 0

    def test_rejects_negative_n(self):
        with pytest.raises(ParameterError):
            gaussian_binomial(-1, 0, 2)

    @pytest.mark.parametrize("base", BASES)
    def test_lowest_terms_at_every_base(self, base):
        # at a/c the loop's integer c^(k (n-k)) [n, k] is a^(k (n-k)) modulo
        # every prime of c, so it is coprime to c^(k (n-k)) and the Fraction
        # takes both parts as they are; the reference is the q-Pascal rule in
        # Fraction arithmetic
        c = base.as_integer_ratio()[1]
        row = []
        for n in range(12):
            row = [Fraction(1)] + [row[k - 1] + Fraction(base) ** k * row[k] for k in range(1, n)] + [Fraction(1)] * (n > 0)
            for k, expected in enumerate(row):
                value = gaussian_binomial(n, k, base)
                assert value == expected and hash(value) == hash(expected), (n, k)
                if c > 1:
                    assert math.gcd(value.numerator, value.denominator) == 1, (n, k)
                    assert value.denominator == c ** (k * (n - k)), (n, k)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_symmetry(self, q):
        for n in range(13):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
    def test_reflection_identity(self, q):
        # full-depth grid lives in the acceptance suite
        for n in range(11):
            for k in range(n + 1):
                lhs = gaussian_binomial(n, k, q)
                rhs = Fraction(q) ** ((n - k) * k) * gaussian_binomial(n, k, Fraction(1, q))
                assert lhs == rhs

    @pytest.mark.parametrize("q", [2, 3])
    def test_sandwich_bound(self, q):
        inv_euler_high = 1.0 / (euler_function(1.0 / q).value - 1e-9)
        for n in range(11):
            for k in range(n + 1):
                ratio = gaussian_binomial(n, k, Fraction(1, q))  # = [n,k]_q / q^((n-k)k)
                assert ratio >= 1
                assert float(ratio) <= inv_euler_high + 1e-9


class TestExactProduct:
    @pytest.mark.parametrize("base", [2, 3, 5, Fraction(1, 2), Fraction(3, 2)])
    def test_matches_factor_by_factor_product(self, base):
        binomials = [(6, 2), (4, 4), (5, 0), (7, 3)]
        spans = [(0, 3), (4, 4), (2, 6)]
        expected = base ** 5
        for m, k in binomials:
            expected *= gaussian_binomial(m, k, base)
        for lo, hi in spans:
            for i in range(lo + 1, hi + 1):
                expected *= base ** i - 1
        assert _exact_product(base, binomials, 5, spans) == expected
        assert _exact_product(base, [], 0) == 1


class TestTreeProduct:
    def test_every_length_and_size(self):
        # short or small lists are joined in order, long large ones pairwise
        for bits in (5, 300, 3000):
            factors = [(-1) ** i * ((1 << bits + i) - 3) for i in range(40)]
            for k in range(41):
                assert qseries._tree_product(factors[:k]) == math.prod(factors[:k]), (bits, k)

    def test_power_differences(self):
        for a, c in ((2, 1), (3, 2), (-3, 2), (1, 5)):
            assert qseries._power_differences(a, c, 4, 9) == [a**i - c**i for i in range(4, 9)]
        assert qseries._power_differences(2, 1, 3, 3) == []


class TestPochhammer:
    def test_finite_by_hand(self):
        assert pochhammer_finite(HALF, HALF, 2) == Fraction(3, 8)
        assert pochhammer_finite(Fraction(1, 3), Fraction(1, 3), 0) == 1
        # direct product oracle: (1 - 1/2)(1 - 1/4)(1 - 1/8)
        assert pochhammer_finite(HALF, HALF, 3) == Fraction(1, 2) * Fraction(3, 4) * Fraction(7, 8)
        assert pochhammer_finite(HALF, HALF, 3) == Fraction(21, 64)

    def test_finite_rejects_negative_length(self):
        with pytest.raises(ParameterError):
            pochhammer_finite(HALF, HALF, -1)

    @pytest.mark.parametrize("q,k,n", [(HALF, 3, 9), (Fraction(1, 3), 2, 7), (Fraction(2, 5), 4, 8)])
    def test_splitting_identity(self, q, k, n):
        whole = pochhammer_finite(q, q, n)
        split = pochhammer_finite(q, q, k) * pochhammer_finite(q ** (k + 1), q, n - k)
        assert whole == split

    def test_infinite_against_long_product(self):
        # oracle: 120 plain-float factors, far past convergence
        direct = 1.0
        for i in range(120):
            direct *= 1.0 - 0.5 ** (i + 1)
        value = pochhammer_infinite(0.5, 0.5)
        assert abs(value.value - direct) <= value.abs_error + 1e-15
        assert abs(value.value - 0.2887880951) < 1e-10

    def test_infinite_known_values(self):
        assert abs(pochhammer_infinite(1 / 3, 1 / 3).value - 0.5601) < 1e-4
        assert abs(euler_function(1 / 11).value - 0.9008) < 1e-4

    def test_zero_a_is_exactly_one(self):
        value = pochhammer_infinite(0.0, 0.5)
        assert value.value == 1.0 and value.abs_error == 0.0

    def test_nonconvergent_configurations(self):
        with pytest.raises(NonconvergentError):
            pochhammer_infinite(0.5, 1.0)
        with pytest.raises(NonconvergentError):
            euler_function(1.5)

    def test_negative_a_factors_exceed_one(self):
        value = pochhammer_infinite(-math.sqrt(0.5), 0.5)
        assert value.value > 1.0

    def test_euler_first_factor_bound(self):
        for q in range(4, 13):
            assert euler_function(1.0 / q).value > 1.0 - 2.0 / q

    def test_euler_increasing_in_q(self):
        values = [euler_function(1.0 / q).value for q in range(2, 12)]
        assert values == sorted(values)

    def test_error_honesty_under_doubled_cap(self):
        for a, q in [(0.5, 0.5), (1 / 3, 1 / 3), (-math.sqrt(0.5), 0.5), (0.2, 0.7)]:
            base = pochhammer_infinite(a, q, TruncationPolicy(max_index=40, target_tail=1e-30))
            fine = pochhammer_infinite(a, q, TruncationPolicy(max_index=80, target_tail=1e-30))
            assert abs(base.value - fine.value) <= base.abs_error


class TestQMultinomial:
    def test_matches_submodule_count(self):
        # the census oracle for this value lives in test_modcount; the number
        # of length-2 submodules of (Z/4)^2 is 7
        assert q_multinomial(2, 2, 2, 2) == 7

    def test_trivial_shapes(self):
        assert q_multinomial(5, 0, 3, 2) == 1
        assert q_multinomial(2, 4, 2, 2) == 1

    def test_range_check(self):
        with pytest.raises(ParameterError):
            q_multinomial(2, 5, 2, 2)
        with pytest.raises(ParameterError):
            q_multinomial(2, -1, 2, 2)

    def test_depth_one_degenerates_to_gaussian(self):
        for base in (2, 3, HALF):
            for n in range(7):
                for ell in range(n + 1):
                    assert q_multinomial(n, ell, 1, base) == gaussian_binomial(n, ell, base)

    @pytest.mark.parametrize("base", [2, 3, HALF, Fraction(3, 2), Fraction(2, 3)])
    def test_matches_unconstrained_composition_sum(self, base):
        # the literal definition sums over all compositions; zero terms prune
        kind = int if isinstance(base, int) else Fraction
        for n in range(1, 5):
            for s in (2, 3):
                for ell in range(n * s + 1):
                    value = q_multinomial(n, ell, s, base)
                    assert type(value) is kind
                    assert value == naive_q_multinomial(n, ell, s, base)

    @pytest.mark.parametrize("base", [2, 3, HALF, Fraction(3, 2), Fraction(2, 3)])
    def test_short_chains_match_definition(self, base):
        # s <= 2 walks one row or diagonal by ratio steps; the definition reads
        # each binomial from gaussian_binomial
        kind = int if isinstance(base, int) else Fraction
        for n in (0, 1, 2, 5, 12, 30):
            for s in (1, 2):
                for ell in range(n * s + 1):
                    value = q_multinomial(n, ell, s, base)
                    assert type(value) is kind
                    assert value == naive_q_multinomial(n, ell, s, base), (n, s, ell)
            for k in range(n + 1):
                row = sum(gaussian_binomial(k, mu, base) * base ** ((n - k) * mu) for mu in range(k + 1))
                assert rank_sum(n, base, 1, k) == gaussian_binomial(n, k, base)
                assert rank_sum(n, base, 2, k) == gaussian_binomial(n, k, base) * row

    @pytest.mark.parametrize(
        "base",
        [2, 3, HALF, Fraction(3, 2), Fraction(2, 3), 1, -1, -2, Fraction(-3, 2), Fraction(-1, 2), 0, Fraction(5, 3)],
    )
    def test_every_depth_matches_chains(self, base):
        # deep length sums end in a diagonal below prev < n; the reference
        # weighs each chain on its own
        kind = int if isinstance(base, int) else Fraction
        for s, top in ((1, 8), (2, 8), (3, 8), (4, 6), (5, 5), (6, 5)):
            for n in range(top + 1):
                for ell in range(n * s + 1):
                    value = q_multinomial(n, ell, s, base)
                    assert type(value) is kind
                    assert value == naive_chain_sum(n, base, s, range(n + 1), ell), (n, s, ell)
                for k in range(n + 1):
                    tail = _rank_tail(n, base, s, k)
                    assert type(tail) is kind
                    expected = naive_chain_sum(n, base, s, range(k, k + 1), None)
                    assert gaussian_binomial(n, k, base) * tail == expected, (n, s, k)

    @pytest.mark.parametrize("base", BASES)
    def test_length_and_rank_sums_count_every_submodule(self, base):
        # both sides sum over every chain, one by length through the Bailey sum
        # at s >= 3, the other by rank through the walk
        for n, s in ((0, 6), (1, 10), (9, 4), (25, 5), (20, 7), (30, 3), (30, 10)):
            by_length = sum(q_multinomial(n, ell, s, base) for ell in range(n * s + 1))
            assert by_length == sum(rank_sum(n, base, s, k) for k in range(n + 1)), (n, s)

    @pytest.mark.parametrize("base", BASES)
    def test_depth_stabilises(self, base, monkeypatch):
        # past s = ell every further part is 0 and weighs 1, so the depth-ell
        # chains are all of them; the budget prices the walk, cubic in s,
        # and would refuse s = 10^4, which the sum itself reaches at once
        monkeypatch.setattr(qseries, "TOTAL_BUDGET", math.inf)
        for n in range(1, 5):
            for ell in range(7):
                expected = naive_chain_sum(n, base, max(ell, 1), range(n + 1), ell)
                for s in {max(ell, 1), ell + 1, 2 * ell + 3, 990, 1100, 10**4}:
                    assert q_multinomial(n, ell, s, base) == expected, (n, ell, s)
        # and they are the submodules of index base^ell in O^n, counted without chains
        for n, ell in ((12, 40), (30, 25), (3, 1100)):
            assert q_multinomial(n, ell, ell + 1, base) == sublattice_count(n, ell, base), (n, ell)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 8),
        s=st.integers(1, 6),
        base=st.fractions(min_value=-3, max_value=6, max_denominator=4),
        share=st.fractions(min_value=0, max_value=1),
    )
    def test_length_duality(self, n, s, base, share):
        # a submodule of length ell and its annihilator of length n s - ell pair
        # off, so the sum is symmetric in ell as a polynomial in the base: a check
        # that needs no reference, over every remainder range the walk keeps
        ell = int(share * n * s)
        base = int(base) if base.denominator == 1 else base
        assert q_multinomial(n, ell, s, base) == q_multinomial(n, n * s - ell, s, base)

    def test_rational_walk_builds_no_fraction_per_step(self, monkeypatch):
        # a base a/c runs on homogenised integers: one Fraction for the sum,
        # one per binomial read through gaussian_binomial, so hardly any gcd
        base = Fraction(3, 2)
        gcd = math.gcd
        calls = []
        monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or gcd(*args))
        sums = (lambda: q_multinomial(80, 120, 3, base), lambda: rank_sum(60, base, 2, 30))
        for total in sums:
            calls.clear()
            assert type(total()) is Fraction
            assert len(calls) <= 8

    def test_pad_follows_the_largest_part(self):
        # parts of at most 3 in R^4000 pad to c^(3 * 3997) per part, not to
        # c^(4000^2 / 4), so these sums stay small and fast
        base = Fraction(3, 2)
        start = time.perf_counter()
        assert q_multinomial(10000, 1, 1, base) == gaussian_binomial(10000, 1, base)
        assert q_multinomial(4000, 3, 3, base) == naive_chain_sum(4000, base, 3, range(1, 4), 3)
        assert rank_sum(4000, base, 3, 2) == naive_chain_sum(4000, base, 3, range(2, 3), None)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("base", [1, -1])
    def test_unit_bases(self, base):
        # the ratio steps divide by b^i - 1 = 0 here; the q-Pascal rule does not
        pascal = qseries._q_pascal(24, base)
        for m in range(25):
            assert [gaussian_binomial(m, k, base) for k in range(m + 1)] == pascal[m]
        for n in (0, 1, 2, 5, 12):
            for s in (1, 2, 3):
                # at base 1 a chain of subsets puts each of the n coordinates at
                # one depth 0..s: the coefficients of (1 + x + ... + x^s)^n
                depths = [1]
                for _ in range(n):
                    depths = [sum(depths[max(0, i - s) : i + 1]) for i in range(len(depths) + s)]
                for ell in range(n * s + 1):
                    value = q_multinomial(n, ell, s, base)
                    assert type(value) is int
                    assert value == naive_q_multinomial(n, ell, s, base), (n, s, ell)
                    assert base == -1 or value == depths[ell], (n, s, ell)
            for k in range(n + 1):
                row = sum(pascal[k][mu] * base ** ((n - k) * mu) for mu in range(k + 1))
                assert rank_sum(n, base, 2, k) == pascal[n][k] * row

    def test_short_chains_build_no_table(self, monkeypatch):
        # no length sum builds the q-Pascal table, and no rank tail below s = 3
        built = []
        pascal = qseries._q_pascal
        monkeypatch.setattr(qseries, "_q_pascal", lambda rows, base: built.append(rows) or pascal(rows, base))
        for base in (2, Fraction(3, 2), 1, -1):
            for s in (1, 2, 3, 6):
                q_multinomial(20, 15, s, base)
            for s in (1, 2):
                rank_sum(20, base, s, 12)
        assert built == []
        assert rank_sum(6, 2, 3, 4) == naive_chain_sum(6, 2, 3, range(4, 5), None)  # deeper rank tails keep the table
        assert built == [4]

    @pytest.mark.parametrize("base", [2, Fraction(3, 2), Fraction(2, 3)])
    def test_oversized_sum_refused_before_work(self, base):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="budget"):
            q_multinomial(3000, 4500, 3, base)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("base", BASES)
    def test_bailey_sum_matches_the_shallow_kernels(self, base):
        # the Bailey sum holds at every depth, so at s = 1 and s = 2 it is a
        # second algorithm for the binomial and for the diagonal
        for n in range(31):
            for ell in range(2 * n + 1):
                if ell <= n:
                    assert qseries._bailey_sum(n, ell, 1, base) == gaussian_binomial(n, ell, base), (n, ell)
                assert qseries._bailey_sum(n, ell, 2, base) == qseries._diagonal_sum(n, ell, base), (n, ell)

    def test_grouped_steps_past_schoolbook_size(self, monkeypatch):
        # these Bailey sums' grouped steps join s + 1 factors of more than
        # _SCHOOLBOOK_BITS between them in a product tree; the digests (first
        # 16 hex digits of sha256(format(value, "x"))) were recorded when the
        # factors were joined one at a time
        joined = []
        tree = qseries._tree_product
        monkeypatch.setattr(qseries, "_tree_product", lambda factors: joined.append(sum(map(int.bit_length, factors))) or tree(factors))
        for n, ell, s, base, digest in ((200, 600, 6, 3, "018da4e79716c0a5"), (120, 480, 8, 2, "473093f075acd868")):
            joined.clear()
            value = q_multinomial(n, ell, s, base)
            assert hashlib.sha256(format(value, "x").encode()).hexdigest()[:16] == digest, (n, ell, s, base)
            assert max(joined) >= qseries._SCHOOLBOOK_BITS

    def test_each_kernel_charges_once(self, monkeypatch):
        # q_multinomial makes no charge of its own: the Bailey sum makes one,
        # the diagonal one before the two binomials of its first term
        assert len(_spied_costs(monkeypatch, lambda: q_multinomial(200, 100, 3, 2))) == 1
        assert len(_spied_costs(monkeypatch, lambda: q_multinomial(2000, 200, 2, 2))) == 3


def test_costs_past_the_float_range_refused():
    message = r"^exact (total at n=10{400}, s=2|count) needs more than 2\^1024 bit operations, over the budget of 1\.4e\+11$"
    with pytest.raises(BudgetExceededError, match=message):
        q_multinomial(10**400, 10**400, 2, 2)
    # [2^1023, 1]_5 is charged nan, an infinite product size times inf // 64, and nan > budget is false
    assert math.isnan(qseries._count_cost(5, [(2**1023, 1)], 0))
    with pytest.raises(BudgetExceededError, match=message):
        qseries._charge("exact count", qseries._count_cost, 5, [(2**1023, 1)], 0)


def test_total_estimate_equals_loop():
    # the closed form is the loop's integer: one triangle per position from 3 up
    for base in (2, 3, Fraction(3, 2), Fraction(1, 3)):
        for s in range(2, 40):
            for rank in range(60):
                for n in (rank, 2 * rank + 3):
                    cost = qseries._total_cost(n, base, s, rank)
                    assert cost == loop_total_estimate(n, base, s, rank), (base, s, rank, n)


class TestBalancedMultinomial:
    def test_zero_index_is_power_only(self):
        value = balanced_multinomial(2, 2, 2, HALF)
        assert value.value == pytest.approx(1.0, abs=1e-12)

    def test_center_value(self):
        # (1/2)^2 times the depth-2 coefficient [2,2] at the reciprocal base 2
        value = balanced_multinomial(2, 0, 2, HALF)
        assert value.value == pytest.approx(0.25 * float(q_multinomial(2, 2, 2, 2)), rel=1e-10)

    def test_free_probability_identity(self):
        # exact psi from the counting module is the independent oracle
        from chainring.modcount import ChainRingSpec, free_fraction_by_length

        n, ell, q, s = 6, 6, 2, 2
        psi = free_fraction_by_length(n, ChainRingSpec(q=q, s=s), ell)
        numerator = float(gaussian_binomial(n, ell // s, Fraction(1, q)))
        denominator = balanced_multinomial(n, Fraction(s * n, 2) - ell, s, Fraction(1, q))
        assert abs(numerator / denominator.value - float(psi)) < 1e-9

    def test_oversized_multinomial_refused_before_work(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="budget"):
            balanced_multinomial(1000, 0, 3, Fraction(1, 3))
        assert time.perf_counter() - start < 1

    def test_invalid_index(self):
        with pytest.raises(ParameterError):
            balanced_multinomial(2, Fraction(1, 3), 2, HALF)
        with pytest.raises(ParameterError):
            balanced_multinomial(2, 5, 2, HALF)
