import ast
import itertools
import math
import random
from collections import Counter
from pathlib import Path
from fractions import Fraction

import pytest

from chainring import density
from chainring.approx import TruncationPolicy
from chainring.density import (
    DensityResult,
    TABLE1_GRID,
    andrews_gordon_product,
    andrews_gordon_series,
    cartan_quadratic_form,
    density_bounds,
    depth_two_density,
    limit_free_density,
    rank_density_trend,
    table1_rows,
    table2_rows,
    type_counts_sorted,
)
from chainring.errors import BudgetExceededError, NonconvergentError, ParameterError, VerificationError
from chainring.modcount import ChainRingSpec, count_by_type, free_fraction_by_length
from chainring.qseries import euler_function
from chainring.render import render_ratio

from helpers import cartan_matrix_form, chain_dp_limit_density, hecke_limit_density


class TestCartanForm:
    def test_hand_examples(self):
        assert cartan_quadratic_form((0, 0, 0), 4) == 0
        assert cartan_quadratic_form((2,), 2) == 2  # k^2/2 at k = 2
        assert cartan_quadratic_form((1, 1), 3) == 2  # 1 + 4 - 9/3

    def test_matrix_equals_closed_form_randomly(self):
        rng = random.Random(11)
        for _ in range(1000):
            s = rng.randint(2, 8)
            kvec = tuple(rng.randint(0, 20) for _ in range(s - 1))
            value = cartan_quadratic_form(kvec, s)
            assert value == cartan_matrix_form(kvec, s), kvec
            assert value >= 0
            assert value.denominator in (1, s) or s % value.denominator == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            cartan_quadratic_form((1, 1), 2)

    def test_invariant_under_reversal(self):
        # the series evaluator relies on this to read the form off suffix sums
        rng = random.Random(13)
        for _ in range(1000):
            s = rng.randint(2, 8)
            kvec = tuple(rng.randint(0, 20) for _ in range(s - 1))
            assert cartan_quadratic_form(kvec, s) == cartan_quadratic_form(kvec[::-1], s)


class TestDivisibilityCondition:
    def test_equivalence_on_random_vectors(self):
        rng = random.Random(23)
        divisible = 0
        for _ in range(10_000):
            s = rng.randint(2, 8)
            kvec = tuple(rng.randint(0, 12) for _ in range(s - 1))
            partials = [sum(kvec[: i + 1]) for i in range(s - 1)]
            suffixes = [sum(kvec[i:]) for i in range(s - 1)]
            by_partials = sum(partials) % s == 0
            by_weights = sum(k * (s - i) for i, k in enumerate(kvec, start=1)) % s == 0
            # the series evaluator tests the congruence on suffix sums
            by_suffixes = sum(suffixes) % s == 0
            assert by_partials == by_weights == by_suffixes, kvec
            divisible += by_partials
        assert 0 < divisible < 10_000


class TestLimitDensity:
    def test_depth_one_is_exactly_one(self):
        value = limit_free_density(ChainRingSpec(q=5, s=1))
        assert value.value == 1.0 and value.abs_error == 0.0

    @pytest.mark.parametrize(
        "q,s,expected",
        # the (11, 4) entry is the independently verified value; the published
        # table's 0.99023 drops a digit of 0.990023... (see acceptance notes)
        [(2, 2, 0.59546), (2, 3, 0.47084), (11, 4, 0.99002339), (3, 2, 0.84191)],
    )
    def test_reference_values(self, q, s, expected):
        value = limit_free_density(ChainRingSpec(q=q, s=s))
        assert abs(value.value - expected) < 5e-6

    def test_monotone_in_q_at_fixed_s(self):
        for s in (2, 3, 4):
            values = [limit_free_density(ChainRingSpec(q=q, s=s)).value for q in (2, 3, 5, 7, 11)]
            assert values == sorted(values)

    def test_cap_hit_raises_nonconvergent(self):
        # no cap <= 3 makes the tail ratio drop below 1 at q = 2, s = 4
        with pytest.raises(NonconvergentError, match="max_index=3"):
            limit_free_density(ChainRingSpec(q=2, s=4), TruncationPolicy(max_index=3))
        with pytest.raises(NonconvergentError, match="max_index=3"):
            density_bounds(ChainRingSpec(q=2, s=4), TruncationPolicy(max_index=3))

    @pytest.mark.parametrize("policy", [TruncationPolicy(max_index=1), TruncationPolicy(target_tail=10.0)], ids=str)
    def test_uncertified_product_raises_nonconvergent(self, policy):
        # the products' error bounds reach their values, so no reciprocal is certified
        with pytest.raises(NonconvergentError, match=f"max_index={policy.max_index}"):
            depth_two_density(2, policy)
        with pytest.raises(NonconvergentError, match=f"max_index={policy.max_index}"):
            andrews_gordon_product(0.5, 2, policy)

    def test_uncertified_product_is_named(self):
        # what failed to certify is a product, not a series
        with pytest.raises(NonconvergentError) as info:
            andrews_gordon_product(0.5, 2, TruncationPolicy(max_index=1))
        assert str(info.value) == (
            "product (x; x)_inf not certified within max_index=1: error bound 0.859 reaches the value 0.5"
        )
        with pytest.raises(NonconvergentError, match=r"^products \(-sqrt\(x\); x\)_inf \+ \(sqrt\(x\); x\)_inf not "):
            depth_two_density(2, TruncationPolicy(max_index=1))

    def test_infinite_tail_raises_before_the_walk(self, monkeypatch):
        # at x = 1/2, s = 6 no cap <= 3 brings the tail ratio below 1
        def forbidden(*args, **kwargs):
            raise AssertionError("walked a series whose tail no cap bounds")

        monkeypatch.setattr(density, "_pruned_terms", forbidden)
        with pytest.raises(NonconvergentError, match="max_index=3"):
            andrews_gordon_series(0.5, 6, TruncationPolicy(max_index=3))
        with pytest.raises(NonconvergentError, match="max_index=512"):
            limit_free_density(ChainRingSpec(q=3, s=30))

    @pytest.mark.parametrize("x,s", [(0.5, 270), (0.5, 400), (0.3, 880)])
    def test_dropped_term_bound_past_float_range_raises_before_the_walk(self, monkeypatch, x, s):
        # the tail is certified, but the bound that sets the first e_max overflows:
        # a float infinity at x = 1/2, and at x = 0.3 the binomial itself
        def forbidden(*args, **kwargs):
            raise AssertionError("walked a series whose dropped terms no float bounds")

        monkeypatch.setattr(density, "_pruned_terms", forbidden)
        with pytest.raises(NonconvergentError, match=rf"max_index=512: at s = {s} the bound"):
            andrews_gordon_series(x, s)

    @pytest.mark.parametrize("q,s,exponent", [(3, 30, 870), (2, 34, 1122)])
    def test_underflowing_upper_base_named(self, monkeypatch, q, s, exponent):
        monkeypatch.setattr(density, "andrews_gordon_series", None)  # checked before any series
        with pytest.raises(ParameterError, match=rf"q = {q}, s = {s}") as err:
            density_bounds(ChainRingSpec(q=q, s=s))
        assert f"{q}^-{exponent} underflows" in str(err.value)

    def test_error_honesty_under_larger_cap(self):
        for q, s in [(2, 2), (2, 4), (3, 3)]:
            ring = ChainRingSpec(q=q, s=s)
            base = limit_free_density(ring, TruncationPolicy(max_index=512, target_tail=1e-10))
            fine = limit_free_density(ring, TruncationPolicy(max_index=512, target_tail=1e-14))
            assert abs(base.value - fine.value) <= base.abs_error


class TestBitExactValues:
    # (value, abs_error) pinned bit for bit, so that any change to the
    # per-term float arithmetic, the summation or the certificate shows here;
    # table1.csv keeps five digits only
    POLICY = TruncationPolicy(target_tail=1e-12)

    LIMIT_ROWS = [
        (2, 2, 0.5954585268339005, 6.678843848445557e-15),
        (2, 3, 0.47084401322291564, 6.4535660732766004e-15),
        (3, 4, 0.7822984644966192, 1.3651949136862151e-14),
        (11, 4, 0.9900233948764217, 9.964672779674368e-15),
        (2, 5, 0.3987747873594286, 3.3982115771822136e-14),
    ]
    SERIES_ROWS = [
        (0.5, 2, 2.1726687508496574, 2.163724727259014e-14),
        (1 / 3, 3, 1.6971500137690203, 1.342178935259852e-14),
        (2 ** -12, 4, 1.000244259877956, 6.265966617743245e-14),
        (0.2, 5, 1.3147085137299457, 3.397614871275758e-13),
        # recorded with the exhaustive index-vector walk, before pruning
        (0.5, 6, 3.3815886245589497, 3.4978396840780945e-14),
        (0.5, 7, 3.42216756557066, 3.801742696775849e-14),
    ]

    @pytest.mark.parametrize("q,s,value,abs_error", LIMIT_ROWS)
    def test_limit_free_density(self, q, s, value, abs_error):
        result = limit_free_density(ChainRingSpec(q=q, s=s), self.POLICY)
        assert (result.value, result.abs_error) == (value, abs_error)

    @pytest.mark.parametrize(
        "q,s,tail,value,abs_error",
        # the benchmark's core cells and q = 2, s = 7, recorded with the
        # exhaustive index-vector walk, before pruning
        [
            (2, 6, 1e-10, 0.3881946852219937, 1.5405062028632617e-13),
            (5, 7, 1e-12, 0.9386821859082181, 1.9326409024767602e-14),
            (11, 8, 1e-8, 0.9900159578101316, 6.203384837564257e-10),
            (3, 6, 1e-12, 0.7760275505960059, 7.397878934061017e-14),
            (2, 7, 1e-12, 0.3830424528495341, 1.4211210081673947e-14),
        ],
    )
    def test_limit_free_density_large_s(self, q, s, tail, value, abs_error):
        result = limit_free_density(ChainRingSpec(q=q, s=s), TruncationPolicy(target_tail=tail))
        assert (result.value, result.abs_error) == (value, abs_error)

    @pytest.mark.parametrize("x,s,value,abs_error", SERIES_ROWS)
    def test_andrews_gordon_series(self, x, s, value, abs_error):
        result = andrews_gordon_series(x, s, self.POLICY)
        assert (result.value, result.abs_error) == (value, abs_error)


def record_walks(monkeypatch):
    """Spy on the multi-sum walk: the real walk and a list of (args, terms, cut)."""
    real = density._pruned_terms
    walks = []

    def spy(*args, **kwargs):
        terms, cut, steps = real(*args, **kwargs)
        walks.append((args, terms, cut))
        return terms, cut, steps

    monkeypatch.setattr(density, "_pruned_terms", spy)
    return real, walks


SMALL_CELLS = [("limit", 1.0 / q, *row) for q, *row in TestBitExactValues.LIMIT_ROWS] + [
    ("series", *row) for row in TestBitExactValues.SERIES_ROWS if row[1] <= 5
]


def evaluate(kind, x, s, policy):
    if kind == "limit":
        return limit_free_density(ChainRingSpec(q=round(1 / x), s=s), policy)
    return andrews_gordon_series(x, s, policy)


class TestPrunedWalk:
    POLICY = TestBitExactValues.POLICY

    @pytest.mark.parametrize("kind,x,s,value,abs_error", SMALL_CELLS)
    def test_dropped_mass_within_bound(self, monkeypatch, kind, x, s, value, abs_error):
        real, walks = record_walks(monkeypatch)
        evaluate(kind, x, s, self.POLICY)
        [((_, cap, poch, log_x, congruence, e_max), kept, _)] = walks
        full, cut, _ = real(s, cap, poch, log_x, congruence, math.inf)
        assert not cut and math.fsum(full) == math.fsum(kept)
        assert Counter(kept) <= Counter(full)
        dropped = math.fsum(full + [-term for term in kept])
        euler_low = density._euler_floor(x, self.POLICY)
        bound = 2 * math.comb(cap + s - 1, s - 1) * x ** e_max / euler_low ** (s - 1)
        assert 0.0 <= dropped <= bound <= 2.0 ** -80

    def test_walk_cuts_most_cells(self, monkeypatch):
        # the bound test above is vacuous where the walk keeps every term
        _, walks = record_walks(monkeypatch)
        for kind, x, s, *_ in SMALL_CELLS:
            evaluate(kind, x, s, self.POLICY)
        assert sum(cut for _, _, cut in walks) >= 5

    @pytest.mark.parametrize("mass", [2.0 ** -12, 2.0 ** 40])
    @pytest.mark.parametrize("kind,x,s,value,abs_error", SMALL_CELLS)
    def test_failed_sign_test_doubles_e_max(self, monkeypatch, mass, kind, x, s, value, abs_error):
        # either mass is far above half an ulp of the sum, so the first walk
        # cuts terms and fails the sign test
        monkeypatch.setattr(density, "_PRUNED_MASS", mass)
        _, walks = record_walks(monkeypatch)
        result = evaluate(kind, x, s, self.POLICY)
        assert (result.value, result.abs_error) == (value, abs_error)
        limits = [args[-1] for args, _, _ in walks]
        assert len(limits) >= 2 and walks[0][2]
        assert limits[1:] == [2 * e for e in limits[:-1]]

    def test_walk_budget_spans_the_doublings(self, monkeypatch):
        monkeypatch.setattr(density, "_PRUNED_MASS", 2.0 ** 40)  # the first walks fail the sign test
        real = density._pruned_terms
        totals = []

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            totals.append(result[2])
            return result

        monkeypatch.setattr(density, "_pruned_terms", spy)
        expected = evaluate("series", 0.5, 5, self.POLICY)
        walks = [b - a for a, b in zip([0] + totals, totals)]
        assert len(walks) >= 2 and min(walks) > 0
        monkeypatch.setattr(density, "WALK_BUDGET", totals[-1])
        assert evaluate("series", 0.5, 5, self.POLICY) == expected
        # every walk alone fits, all of them together do not
        monkeypatch.setattr(density, "WALK_BUDGET", totals[-1] - 1)
        assert max(walks) <= density.WALK_BUDGET
        with pytest.raises(BudgetExceededError, match=f"budget of {totals[-1] - 1} steps"):
            evaluate("series", 0.5, 5, self.POLICY)


def brute_terms(s, cap, poch, log_x, congruence, e_max):
    """Every index vector with k-sum <= cap, in the walk's order: its kept terms and whether any was dropped.

    A tuple (k_{s-1}, ..., k_1) from itertools.product is in lexicographic
    order, the order of the walk's nested loops, and its running sums are
    N_{s-1}, ..., N_1.  Each term is computed as the walk computes it.
    """
    kept, dropped = [], False
    for ks in itertools.product(range(cap + 1), repeat=s - 1):
        if sum(ks) > cap:
            continue
        suffix = list(itertools.accumulate(ks))
        t = sum(suffix)
        q = sum(n * n for n in suffix)
        if congruence and t % s:
            continue
        if (s * q - t * t > s * e_max) if congruence else q > e_max:
            dropped = True
            continue
        term = math.exp(((s * q - t * t) / s if congruence else q) * log_x)
        for k in reversed(ks):
            term /= poch[k]
        kept.append(term)
    return kept, dropped


class TestLeastCompletionWalk:
    @pytest.mark.parametrize("s,cap", [(2, 30), (3, 16), (4, 10), (5, 7), (6, 5), (7, 4)])
    @pytest.mark.parametrize("congruence", [True, False])
    @pytest.mark.parametrize("x", [0.5, 1 / 3, 0.2, 2.0 ** -12])
    def test_same_terms_as_brute_force(self, s, cap, congruence, x):
        poch = density._poch_table(x, cap)
        log_x = math.log(x)
        full, _ = brute_terms(s, cap, poch, log_x, congruence, math.inf)
        cuts = set()
        for e_max in (1, 3, 10, 40, math.inf):
            terms, cut, steps = density._pruned_terms(s, cap, poch, log_x, congruence, e_max, spent=7)
            expected, dropped = brute_terms(s, cap, poch, log_x, congruence, e_max)
            assert [t.hex() for t in terms] == [t.hex() for t in expected]
            assert steps > 7
            # a walk that cuts nothing kept every vector below the cap
            assert cut or (not dropped and terms == full)
            cuts.add(cut)
        assert cuts == {True, False}

    def test_core_cell_takes_at_most_4000_steps(self, monkeypatch):
        # q = 2, s = 6 at tail 1e-10 took 10,230 steps before the
        # least-completion cut and the stepped leaves
        real = density._pruned_terms
        totals = []

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            totals.append(result[2])
            return result

        monkeypatch.setattr(density, "_pruned_terms", spy)
        limit_free_density(ChainRingSpec(q=2, s=6), TruncationPolicy(target_tail=1e-10))
        assert 0 < totals[-1] <= 4000

    def test_euler_floor_computed_once_per_base(self, monkeypatch):
        density._euler_floor.cache_clear()
        calls = Counter()
        real = density.euler_function

        def spy(x, policy):
            calls[x] += 1
            return real(x, policy)

        monkeypatch.setattr(density, "euler_function", spy)
        density_bounds(ChainRingSpec(q=3, s=3), TruncationPolicy(target_tail=1e-11))
        density_bounds(ChainRingSpec(q=3, s=4), TruncationPolicy(target_tail=1e-11))
        assert calls[1 / 3] == 1


def test_every_lru_cache_is_bounded():
    # module-level caches must not grow without bound
    package = Path(density.__file__).parent
    decorators = 0
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for deco in getattr(node, "decorator_list", ()):
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                assert name != "cache", f"unbounded functools.cache in {path.name}"
                if name == "lru_cache":
                    decorators += 1
                    args = list(deco.args) + [kw.value for kw in deco.keywords if kw.arg == "maxsize"]
                    assert isinstance(deco, ast.Call) and args, f"lru_cache without maxsize in {path.name}"
                    assert isinstance(args[0], ast.Constant) and isinstance(args[0].value, int), path.name
    assert decorators >= 10


class TestFloatRange:
    @pytest.mark.parametrize("bits", [1070, 1100])
    def test_base_past_the_float_range_named(self, bits):
        ring = ChainRingSpec(q=2 ** bits, s=2)
        message = rf"^q has {bits + 1} bits, past the float range"
        for call in (lambda: limit_free_density(ring), lambda: density_bounds(ring), lambda: depth_two_density(ring.q)):
            with pytest.raises(ParameterError, match=message):
                call()

    def test_largest_float_base_still_evaluated(self):
        result = limit_free_density(ChainRingSpec(q=2 ** 1000, s=2))
        assert result.value == 1.0 and result.abs_error < 1e-13
        assert limit_free_density(ChainRingSpec(q=2 ** 1100, s=1)) == limit_free_density(ChainRingSpec(q=2, s=1))


class TestLargeDepth:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("s", [7, 8, 9, 10])
    def test_interval_contains_chain_dp(self, q, s):
        result = limit_free_density(ChainRingSpec(q=q, s=s))
        oracle, _ = chain_dp_limit_density(q, s)
        assert abs(result.value - oracle) <= result.abs_error

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 101])
    def test_interval_contains_hecke_double_sum(self, q):
        for s in range(2, 13):
            result = limit_free_density(ChainRingSpec(q=q, s=s))
            low, high = hecke_limit_density(q, s)
            assert abs(high - Fraction(result.value)) <= result.abs_error, s
            assert abs(low - Fraction(result.value)) <= result.abs_error, s

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_ordered_out_to_depth_ten(self, q):
        for s in range(5, 11):
            assert density_bounds(ChainRingSpec(q=q, s=s)).ordered()


class TestAndrewsGordon:
    def test_walk_past_recursion_limit_refused(self):
        # the pruned walk nests one call per level; s = 900 still fits
        assert abs(andrews_gordon_series(1e-30, 900).value - 1.0) < 1e-12
        with pytest.raises(BudgetExceededError, match="^multi-sum walk at s=1000 nests"):
            andrews_gordon_series(1e-30, 1000)

    def test_series_reference_values(self):
        ag = andrews_gordon_series(0.5, 2)
        # frozen from two independent routes (multi-sum and triple product)
        assert abs(ag.value - 2.1726687508) < 1e-9
        assert abs(ag.reciprocal().value - 0.46026) < 1e-5
        upper = andrews_gordon_series(0.25, 2).reciprocal()
        assert abs(upper.value - 0.74688) < 5e-6

    def test_series_tends_to_one_at_tiny_base(self):
        for s in (2, 3, 4):
            value = andrews_gordon_series(1e-9, s)
            assert abs(value.value - 1.0) < 3e-9

    def test_product_matches_series(self):
        for q in (2, 3, 5, 7, 11):
            for s in (2, 3, 4):
                series = andrews_gordon_series(1.0 / q, s)
                product = andrews_gordon_product(1.0 / q, s)
                assert series.agrees_with(product)
                assert series.abs_error + product.abs_error < 1e-10

    def test_product_tends_to_one_at_tiny_base(self):
        value = andrews_gordon_product(1e-9, 3)
        assert abs(value.value - 1.0) < 3e-9

    def test_lower_bound_at_least_euler(self):
        # the density lower bound never drops below Euler's function
        for q in (2, 3, 5, 7, 11):
            for s in (2, 3, 4):
                bound = andrews_gordon_series(1.0 / q, s).reciprocal()
                assert bound.value >= euler_function(1.0 / q).value - 1e-9

    def test_rejects_depth_one(self):
        with pytest.raises(ParameterError):
            andrews_gordon_series(0.5, 1)

    def test_depth_past_the_float_range_is_nonconvergent(self):
        # (x)_inf^-(s-1) overflows a float from s = 573 at x = 1/2
        with pytest.raises(NonconvergentError, match="no cap bounds its tail"):
            andrews_gordon_series(0.5, 600)


class TestDensityBounds:
    def test_reference_rows(self):
        result = density_bounds(ChainRingSpec(q=2, s=3))
        assert abs(result.lower.value - 0.35536) < 1e-5
        assert abs(result.value.value - 0.47084) < 1e-5
        assert abs(result.upper.value - 0.98413) < 1e-5
        result = density_bounds(ChainRingSpec(q=5, s=4))
        assert abs(result.lower.value - 0.76180) < 1e-5
        assert abs(result.value.value - 0.93915) < 1e-5
        assert abs((1.0 - result.upper.value) - 4.1e-9) < 0.05e-9

    def test_ordering_on_grid(self):
        for s, q in TABLE1_GRID:
            result = density_bounds(ChainRingSpec(q=q, s=s))
            assert isinstance(result, DensityResult)
            assert result.ordered()
            assert result.lower.value <= result.value.value <= result.upper.value

    def test_table1_rows_kept_per_policy(self, monkeypatch):
        monkeypatch.delenv("CHAINRING_MAX_INDEX", raising=False)
        monkeypatch.delenv("CHAINRING_TARGET_TAIL", raising=False)
        loose = TruncationPolicy(target_tail=1e-6)
        assert table1_rows(loose) is table1_rows(TruncationPolicy(target_tail=1e-6))
        assert table1_rows() is table1_rows(TruncationPolicy())
        tight = table1_rows()
        assert [(s, q) for s, q, _ in tight] == [(s, q) for s, q, _ in table1_rows(loose)]
        assert any(
            r.value.abs_error != t.value.abs_error for (_, _, r), (_, _, t) in zip(table1_rows(loose), tight)
        )

    def test_depth_two_upper_base_is_q_squared(self):
        # s = 2 makes q^(s^2-s) = q^2; cross-check the specialisation
        direct = andrews_gordon_series(1.0 / 4, 2).reciprocal()
        viaformula = density_bounds(ChainRingSpec(q=2, s=2)).upper
        assert direct.agrees_with(viaformula)


class TestDepthTwoClosedForm:
    @pytest.mark.parametrize("q,expected", [(2, 0.59546), (11, 0.99092)])
    def test_reference_values(self, q, expected):
        value = depth_two_density(q)
        assert abs(value.value - expected) < 5e-6

    def test_matches_series_across_q(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 11):  # prime powers up to 11
            closed = depth_two_density(q)
            series = limit_free_density(ChainRingSpec(q=q, s=2))
            assert abs(closed.value - series.value) <= closed.abs_error + series.abs_error + 1e-12

    @pytest.mark.parametrize("q", [1, 6, 10, 12])
    def test_refuses_what_no_ring_has(self, q):
        # the same q and message as ChainRingSpec, so as limit_free_density
        with pytest.raises(ParameterError) as ring:
            ChainRingSpec(q=q, s=2)
        with pytest.raises(ParameterError) as closed:
            depth_two_density(q)
        assert str(closed.value) == str(ring.value)

    def test_monotone_toward_one(self):
        values = [depth_two_density(q).value for q in (2, 3, 4, 5, 7, 8, 9, 11)]
        assert values == sorted(values)
        assert values[-1] < 1.0


class TestFinitization:
    def test_psi_dominates_agi_reciprocal_small_grid(self):
        # the full n <= 20 grid runs in the acceptance suite
        for q in (2, 3):
            for s in (2, 3):
                ring = ChainRingSpec(q=q, s=s)
                floor_ar = andrews_gordon_series(1.0 / q, s).reciprocal()
                floor = floor_ar.value - floor_ar.abs_error - 1e-9
                for n in range(1, 9):
                    for ell in range(0, n * s + 1, s):
                        assert float(free_fraction_by_length(n, ring, ell)) >= floor


class TestRankTrend:
    def test_decreasing_above_half(self):
        ring = ChainRingSpec(q=2, s=2)
        values = rank_density_trend(ring, Fraction(3, 5), [10, 20, 30])
        assert values[0] > values[1] > values[2]

    def test_increasing_below_half(self):
        ring = ChainRingSpec(q=2, s=2)
        values = rank_density_trend(ring, Fraction(2, 5), [10, 20, 30])
        assert values[0] < values[1] < values[2]
        assert render_ratio(rank_density_trend(ring, Fraction(2, 5), [100])[0], 6) == "0.999999"

    def test_table_row_deep_ring(self):
        ring = ChainRingSpec(q=2, s=3)
        value = rank_density_trend(ring, Fraction(3, 5), [100])[0]
        assert render_ratio(value, 6) == "3.70e-62"

    def test_rejects_non_integral_rank(self):
        with pytest.raises(ParameterError):
            rank_density_trend(ChainRingSpec(q=2, s=2), Fraction(3, 5), [7])
        with pytest.raises(ParameterError):
            rank_density_trend(ChainRingSpec(q=2, s=2), Fraction(3, 2), [10])


class TestOrderExplorer:
    # The published discussion of these three pairs states the count
    # inequalities in directions that contradict the counting formula (which
    # this suite validates exhaustively at six parameter points).  The tests
    # below pin the true relations; each still defeats the candidate order.
    # The literal published directions are kept as strict xfails.

    def test_lex_order_fails(self):
        ring = ChainRingSpec(q=2, s=3)
        # the quoted pair is an exact tie: distinct lex positions, equal counts
        assert count_by_type(10, ring, (3, 3, 0)) == count_by_type(10, ring, (4, 0, 3))
        # and strict inversions exist elsewhere on the same grid
        assert count_by_type(10, ring, (0, 7, 1)) > count_by_type(10, ring, (1, 3, 6))

    def test_rank_order_fails(self):
        ring = ChainRingSpec(q=2, s=3)
        # smaller rank (7 vs 8) yet strictly fewer submodules
        assert count_by_type(10, ring, (1, 6, 0)) < count_by_type(10, ring, (2, 3, 3))

    def test_shape_order_fails(self):
        ring = ChainRingSpec(q=2, s=6)
        # smaller partial-sum square norm (182 vs 184) yet strictly fewer
        assert count_by_type(10, ring, (0, 5, 1, 0, 0, 1)) < count_by_type(
            10, ring, (2, 1, 1, 1, 2, 2)
        )

    @pytest.mark.xfail(
        strict=True,
        reason="published inequality directions contradict the exhaustively "
        "validated counting formula; see decisions ledger",
    )
    def test_published_inequality_directions(self):
        r3 = ChainRingSpec(q=2, s=3)
        r6 = ChainRingSpec(q=2, s=6)
        assert count_by_type(10, r3, (3, 3, 0)) > count_by_type(10, r3, (4, 0, 3))
        assert count_by_type(10, r3, (1, 6, 0)) > count_by_type(10, r3, (2, 3, 3))
        assert count_by_type(10, r6, (0, 5, 1, 0, 0, 1)) > count_by_type(
            10, r6, (2, 1, 1, 1, 2, 2)
        )

    def test_sorted_output(self):
        ring = ChainRingSpec(q=2, s=3)
        pairs = type_counts_sorted(10, ring, 15)
        counts = [c for _, c in pairs]
        assert counts == sorted(counts, reverse=True)
        assert set(t for t, _ in pairs) == {
            t for t in __import__("chainring").types_of_length(3, 10, 15)
        }
        # ties (if any) resolve by ascending type
        for (t1, c1), (t2, c2) in zip(pairs, pairs[1:]):
            if c1 == c2:
                assert t1 < t2


class TestTable2:
    def test_rendered_rows(self):
        rendered = [render_ratio(v, 6) for _, _, _, _, v in table2_rows()]
        assert rendered == [
            "0.460263",
            "0.999999",
            "1.07e-31",
            "0.355365",
            "0.999999",
            "3.70e-62",
            "0.657496",
            "1-1.4e-10",
            "6.43e-49",
        ]
