import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from chainring.errors import BudgetExceededError
from chainring.render import render_integer, render_ratio, render_scientific

from helpers import decimal_length, leading_digits


class TestScientific:
    def test_three_significant_digits(self):
        assert render_scientific(Fraction(107, 10 ** 33), 3) == "1.07e-31"
        assert render_scientific(Fraction(370, 10 ** 64), 3) == "3.70e-62"

    def test_two_significant_digits(self):
        assert render_scientific(Fraction(14, 10 ** 11), 2) == "1.4e-10"

    def test_mantissa_rollover(self):
        assert render_scientific(Fraction(996, 1000), 2) == "1.0e+0"

    def test_positive_exponent(self):
        assert render_scientific(Fraction(12345, 10), 3) == "1.23e+3"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            render_scientific(Fraction(0), 3)

    def test_matches_decade_loop(self):
        def by_decades(x: Fraction, sig: int) -> str:  # one exact step per decade
            exponent = 0
            while x >= 10:
                x /= 10
                exponent += 1
            while x < 1:
                x *= 10
                exponent -= 1
            mantissa = round(x * 10 ** (sig - 1))
            if mantissa >= 10 ** sig:
                mantissa //= 10
                exponent += 1
            digits = str(mantissa)
            body = f"{digits[0]}.{digits[1:]}" if sig > 1 else digits
            return f"{body}e{exponent}" if exponent < 0 else f"{body}e+{exponent}"

        rng = random.Random(5)
        cases = [Fraction(10 ** e) for e in range(-30, 31)] + [Fraction(10 ** e - 1, 10 ** e) for e in range(1, 30)]
        for _ in range(1500):
            cases.append(Fraction(rng.randrange(1, 10 ** rng.randrange(1, 60)), rng.randrange(1, 10 ** rng.randrange(1, 60))))
        for x in cases:
            for sig in (1, 2, 3):
                assert render_scientific(x, sig) == by_decades(x, sig), (x, sig)

    def test_tiny_value_is_fast(self):
        x = Fraction(677, 10 ** 72281) + Fraction(1, 3 ** 151515)
        start = time.perf_counter()
        assert render_scientific(x, 3) == "6.77e-72279"
        assert time.perf_counter() - start < 0.1


class TestRatio:
    def test_fixed_point_banker_rounding(self):
        assert render_ratio(Fraction(3, 4), 6) == "0.750000"
        assert render_ratio(Fraction(1, 2) + Fraction(5, 10 ** 7), 6) == "0.500000"  # half-even
        assert render_ratio(Fraction(1, 2) + Fraction(15, 10 ** 7), 6) == "0.500002"

    def test_extremes(self):
        assert render_ratio(Fraction(0), 6) == "0.000000"
        assert render_ratio(Fraction(1), 6) == "1.000000"

    def test_scientific_below_cut(self):
        assert render_ratio(Fraction(1, 10 ** 5), 6) == "1.00e-5"
        assert render_ratio(Fraction(9999, 10 ** 8), 6) == "1.00e-4"

    def test_hybrid_near_one(self):
        value = 1 - Fraction(14, 10 ** 11)
        assert render_ratio(value, 6) == "1-1.4e-10"
        # just outside the hybrid window: plain decimal
        assert render_ratio(1 - Fraction(9, 10 ** 7), 6) == "0.999999"

    def test_hybrid_window_override(self):
        value = 1 - Fraction(85, 10 ** 7)
        assert render_ratio(value, 5, hybrid_below=Fraction(1, 10 ** 5)) == "1-8.5e-6"
        assert render_ratio(value, 5) == "0.99999"

    def test_values_above_one(self):
        assert render_ratio(Fraction(16, 5), 6) == "3.200000"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            render_ratio(Fraction(-1, 2), 6)

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(1), Fraction(3, 7), Fraction(1, 10 ** 9), 0.5])
    def test_digits_past_the_budget_refused_at_once(self, value):
        start = time.thread_time()
        with pytest.raises(BudgetExceededError, match=r"^rendering 100000000 digits needs about .* budget"):
            render_ratio(value, 10 ** 8)
        assert time.thread_time() - start < 0.1

    def test_digits_past_the_float_range_refused(self):
        with pytest.raises(BudgetExceededError, match=r"digits needs more than 2\^1024 bit operations, over the budget of"):
            render_ratio(Fraction(1, 3), 10**308)

    def test_long_ratio_at_few_digits_admitted(self):
        # the digits' quotient sets the price, not the 400,000-bit ratio
        value = Fraction(3 ** 252371, 2 ** 400000)
        assert render_ratio(value, 30) == "0.371457612860878655962552633608"


class TestInteger:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 10 ** 4298, 10 ** 4299 - 1, 10 ** 4299, 10 ** 4300 - 1, 10 ** 4300, 10 ** 4301 - 1,
         10 ** 4301, -(10 ** 4300), 2 ** 4096, 2 ** 20000 - 1, 7 ** 118000, -(3 ** 210000) + 1,
         10 ** 100000, 10 ** 100000 - 1],
        ids=lambda v: f"{'-' if v < 0 else ''}{v.bit_length()}-bits",
    )
    def test_equals_the_direct_conversion(self, value):
        assert render_integer(value) == str(Decimal(value))

    def test_digit_limit_left_alone(self):
        limit = sys.get_int_max_str_digits()
        render_integer(10 ** 9000)
        assert sys.get_int_max_str_digits() == limit

    def test_subquadratic(self):
        value = 3 ** (3 * 10 ** 6)  # 1,431,364 digits; the direct conversion takes about 36 s
        start = time.perf_counter()
        text = render_integer(value)
        assert time.perf_counter() - start < 3.0
        assert len(text) == decimal_length(value) == 1431364
        assert text[:10] == leading_digits(value, 10) and int(text[-18:]) == value % 10 ** 18
