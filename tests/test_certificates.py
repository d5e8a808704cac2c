"""Certificate soundness against a 50-digit independent evaluation.

Every ApproxReal produced by the library claims |value - truth| <= abs_error.
These tests recompute the underlying quantities with mpmath at 50 decimal
digits, straight from their defining series/products (no shared code paths),
and check that the certified interval really contains the truth.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from chainring.approx import TruncationPolicy
from chainring.density import (
    andrews_gordon_product,
    andrews_gordon_series,
    depth_two_density,
    limit_free_density,
)
from chainring.modcount import ChainRingSpec, total_by_length
from chainring.qseries import balanced_multinomial, euler_function, pochhammer_infinite

mp.mp.dps = 50


def mp_poch(a, q, terms=400):
    result = mp.mpf(1)
    aq = mp.mpf(a)
    q = mp.mpf(q)
    for _ in range(terms):
        result *= 1 - aq
        aq *= q
    return result


def mp_finite_poch(x, k):
    result = mp.mpf(1)
    for i in range(1, k + 1):
        result *= 1 - x ** i
    return result


def contains(approx, truth) -> bool:
    return abs(approx.value - float(truth)) <= approx.abs_error


class TestPochhammerCertificates:
    @pytest.mark.parametrize(
        "a,q",
        [(0.5, 0.5), (1 / 3, 1 / 3), (0.1, 0.9), (-0.7071067811865476, 0.5), (0.25, 0.125)],
    )
    def test_infinite_product(self, a, q):
        assert contains(pochhammer_infinite(a, q), mp_poch(a, q))

    def test_capped_policy_still_sound(self):
        policy = TruncationPolicy(max_index=6, target_tail=1e-30)
        for a, q in [(0.5, 0.5), (0.2, 0.8)]:
            assert contains(pochhammer_infinite(a, q, policy), mp_poch(a, q))

    @pytest.mark.parametrize("q", [2, 3, 5, 11])
    def test_euler(self, q):
        assert contains(euler_function(1.0 / q), mp_poch(mp.mpf(1) / q, mp.mpf(1) / q))


def mp_agi(x, s, cap=60):
    x = mp.mpf(x)
    total = mp.mpf(0)

    def rec(i, remaining, suffix_sq_builder):
        nonlocal total
        if i == 0:
            vec = suffix_sq_builder
            run = 0
            expo = 0
            for n_i in reversed(vec):
                run += n_i
                expo += run * run
            denom = mp.mpf(1)
            for n_i in vec:
                denom *= mp_finite_poch(x, n_i)
            total += x ** expo / denom
            return
        for k in range(remaining + 1):
            rec(i - 1, remaining - k, suffix_sq_builder + [k])

    rec(s - 1, cap, [])
    return total


class TestSeriesCertificates:
    @pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (2, 3), (5, 3), (2, 4)])
    def test_andrews_gordon_series(self, q, s):
        cap = 60 if s == 2 else (24 if s == 3 else 14)
        truth = mp_agi(mp.mpf(1) / q, s, cap)
        assert contains(andrews_gordon_series(1.0 / q, s), truth)
        assert contains(andrews_gordon_product(1.0 / q, s), truth)

    @pytest.mark.parametrize("q,s,cap", [(2, 2, 80), (3, 2, 60), (2, 3, 30), (3, 4, 16)])
    def test_limit_density(self, q, s, cap):
        x = mp.mpf(1) / q
        total = mp.mpf(0)

        def rec(i, remaining, vec):
            nonlocal total
            if i == 0:
                partials = []
                run = 0
                for k in vec:
                    run += k
                    partials.append(run)
                if sum(partials) % s:
                    return
                expo = mp.mpf(sum(p * p for p in partials)) - mp.mpf(sum(partials) ** 2) / s
                denom = mp.mpf(1)
                for k in vec:
                    denom *= mp_finite_poch(x, k)
                total += x ** expo / denom
                return
            for k in range(remaining + 1):
                rec(i - 1, remaining - k, vec + [k])

        rec(s - 1, cap, [])
        truth = 1 / total
        assert contains(limit_free_density(ChainRingSpec(q=q, s=s)), truth)

    @pytest.mark.parametrize("q", [2, 3, 7, 11])
    def test_depth_two_closed_form(self, q):
        x = mp.mpf(1) / q
        root = mp.sqrt(x)
        truth = 2 / (mp_poch(-root, x) + mp_poch(root, x))
        assert contains(depth_two_density(q), truth)


def mp_balanced(n, m, s, q):
    """x^(s n^2/4 - m^2/s) times the depth-s multinomial at 1/x = q.

    The multinomial is the exact number of submodules of length s n/2 - m,
    which is the same chain sum that balanced_multinomial reads; its exact
    value is pinned against type sums by test_modcount's
    test_totals_equal_type_sums, so this checks only the log-domain
    certificate built on it.
    """
    mult = total_by_length(n, ChainRingSpec(q=q, s=s), int(Fraction(s * n, 2) - m))
    exponent = Fraction(s * n * n, 4) - Fraction(m) ** 2 / s
    return mp.mpf(q) ** (-mp.mpf(exponent.numerator) / exponent.denominator) * mp.mpf(mult)


class TestBalancedMultinomialCertificate:
    # the first three broke the former bound of 1e-12 |value| (error 1.47e-11
    # against 5.8e-12 at the first); at n = 120 the third has converged to its
    # n = 300 value, error 4.7e-12 against 2.2e-12, in a hundredth of the time
    @pytest.mark.parametrize("n,m,s,q", [(400, 0, 2, 2), (200, 1, 2, 5), (120, 0, 3, 3), (160, 1, 2, 2)])
    def test_cancelling_logarithms(self, n, m, s, q):
        value = balanced_multinomial(n, m, s, Fraction(1, q))
        assert abs(mp.mpf(value.value) - mp_balanced(n, m, s, q)) <= value.abs_error

    def test_small_grid(self):
        for n in (3, 10, 40):
            for s in (1, 2, 3):
                for q in (2, 3, 4):
                    for index in sorted({0, s * n // 3, s * n // 2, s * n}):
                        m = Fraction(s * n, 2) - index
                        value = balanced_multinomial(n, m, s, Fraction(1, q))
                        truth = mp_balanced(n, m, s, q)
                        assert abs(mp.mpf(value.value) - truth) <= value.abs_error, (n, m, s, q)
