import math
import time
from fractions import Fraction

import pytest

from chainring.approx import TruncationPolicy
from chainring.errors import BudgetExceededError, NonconvergentError, ParameterError
from chainring.qseries import (
    balanced_multinomial,
    euler_function,
    gaussian_binomial,
    pochhammer_finite,
    pochhammer_infinite,
    q_multinomial,
)

from helpers import f2_subspace_count, naive_q_multinomial

HALF = Fraction(1, 2)


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

    @pytest.mark.parametrize("base", [2, Fraction(3, 2), Fraction(2, 3)])
    def test_oversized_sum_refused_before_work(self, base):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="budget"):
            q_multinomial(3000, 4500, 3, base)
        assert time.perf_counter() - start < 1


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
