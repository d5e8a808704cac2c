import concurrent.futures
import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from chainring.coding import (
    HAMMING,
    HOMOGENEOUS,
    LEE,
    ball_profile,
    ball_volume,
    entropy_estimate,
    gv_lower_bound,
    gv_random_experiment,
    make_weight_model,
    min_distance_exhaustive,
    q_ary_entropy,
)
from chainring import coding
from chainring.coding import WeightModel
from chainring.errors import BudgetExceededError, ParameterError
from chainring.simulate import ConcreteRing, is_rect_unimodular, ring_matrix, sample_matrix

from helpers import all_tuples, brute_ball_volume, naive_ball_profile, naive_min_distance

Z4 = ConcreteRing(p=2, s=2)
Z8 = ConcreteRing(p=2, s=3)
Z9 = ConcreteRing(p=3, s=2)
RINGS = (Z4, Z8, Z9)
KINDS = (HAMMING, LEE, HOMOGENEOUS)
# every Z/p^s up to 32
SMALL_RINGS = tuple(
    ConcreteRing(p=p, s=s)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for s in range(1, 6)
    if p ** s <= 32
)


class TestWeightModels:
    def test_lee_table(self):
        lee = make_weight_model(LEE, Z8)
        assert lee.symbol_weights[5] == 3
        assert lee.symbol_weights == (0, 1, 2, 3, 4, 3, 2, 1)

    def test_homogeneous_coincides_with_lee_on_z4(self):
        assert (
            make_weight_model(HOMOGENEOUS, Z4).symbol_weights
            == make_weight_model(LEE, Z4).symbol_weights
        )

    def test_homogeneous_z9(self):
        hom = make_weight_model(HOMOGENEOUS, Z9)
        assert hom.symbol_weights[3] == hom.symbol_weights[6] == Fraction(3, 2)
        assert hom.symbol_weights[1] == hom.symbol_weights[4] == 1
        assert hom.scale == 2 and hom.int_weights[3] == 3

    def test_axioms_hold_on_all_tables(self):
        # make_weight_model does not check these
        assert len(SMALL_RINGS) == 18
        for ring in SMALL_RINGS:
            for kind in KINDS:
                model = make_weight_model(kind, ring)
                w = model.symbol_weights
                mod = ring.modulus
                assert w[0] == 0 and all(w[x] > 0 for x in range(1, mod))
                assert all(w[x] == w[mod - x] for x in range(1, mod))
                assert all(
                    w[(x + y) % mod] <= w[x] + w[y] for x in range(mod) for y in range(mod)
                )

    def test_eta(self):
        assert make_weight_model(HAMMING, Z8).eta == 1
        assert make_weight_model(LEE, Z8).eta == 4
        assert make_weight_model(HOMOGENEOUS, Z9).eta == Fraction(3, 2)

    def test_ideal_scaling_bounded_by_eta(self):
        rng = random.Random(13)
        for ring in RINGS:
            for kind in KINDS:
                model = make_weight_model(kind, ring)
                w = model.symbol_weights
                for _ in range(1000 // len(RINGS)):
                    vec = [rng.randrange(ring.modulus) for _ in range(6)]
                    i = rng.randint(1, ring.s - 1) if ring.s > 1 else 0
                    scaled = [(ring.p ** i) * x % ring.modulus for x in vec]
                    assert sum(w[x] for x in scaled) <= model.eta * sum(w[x] for x in vec)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            make_weight_model("euclidean", Z4)

    def test_fields_equal_fraction_construction(self):
        # the definition: one Fraction per symbol, scaled by the lcm of the denominators
        def reference(kind, ring):
            mod, p = ring.modulus, ring.p
            weights = {
                HAMMING: [Fraction(min(x, 1)) for x in range(mod)],
                LEE: [Fraction(min(x, mod - x)) for x in range(mod)],
                HOMOGENEOUS: [
                    Fraction(0) if x == 0 else Fraction(p, p - 1) if x % p ** (ring.s - 1) == 0 else Fraction(1)
                    for x in range(mod)
                ],
            }[kind]
            scale = math.lcm(*(w.denominator for w in weights))
            nonzero = weights[1:]
            model = WeightModel(kind, ring, scale, tuple(int(w * scale) for w in weights))
            return model, (tuple(weights), max(weights), max(nonzero) / min(nonzero))

        for ring in SMALL_RINGS:
            for kind in KINDS:
                model, (expected, derived) = make_weight_model(kind, ring), reference(kind, ring)
                assert model == expected, (kind, ring)
                assert (model.symbol_weights, model.max_symbol_weight, model.eta) == derived, (kind, ring)
                assert all(type(w) is Fraction for w in model.symbol_weights)
                assert type(model.max_symbol_weight) is type(model.eta) is Fraction

    def test_large_ring_builds_and_hashes_fast(self):
        # Z/2^20: about 5 s per model from 2^20 Fractions, and 0.4-0.6 s per
        # hash of the tables, before
        ring = ConcreteRing(p=2, s=20)
        for kind in KINDS:
            start = time.thread_time()
            model = make_weight_model.__wrapped__(kind, ring)  # a real build, not a cache hit
            built = time.thread_time()
            hash(model)
            assert built - start < 1.5, kind
            assert time.thread_time() - built < 0.01, kind

    def test_tables_past_span_budget_refused_unbuilt(self):
        # Z/2^20 builds (above); Z/2^21 and up would hold over 2^20 symbols, and
        # Z/2^40 used to die in a MemoryError, Z/2^20000 in an OverflowError
        cases = [
            (21, "2097152^1 weight-table symbols exceed budget 1048576"),
            (40, "1099511627776^1 weight-table symbols exceed budget 1048576"),
            (20000, "(2^20000)^1 weight-table symbols exceed budget 1048576"),
        ]
        for kind in KINDS:
            for s, message in cases:
                start = time.thread_time()
                with pytest.raises(BudgetExceededError) as raised:
                    make_weight_model(kind, ConcreteRing(p=2, s=s))
                assert str(raised.value) == message
                assert time.thread_time() - start < 0.1

    def test_repeat_builds_hit_caches_by_identity(self):
        # as the CLI does, build the model afresh for each call; an equal but
        # distinct model would make every cache hit compare 2^20 Fractions
        mat = ring_matrix(ConcreteRing(p=2, s=20), [[1, 3, 5, 7]])
        first = make_weight_model(LEE, ConcreteRing(p=2, s=20))
        distance = min_distance_exhaustive(mat, first)
        start = time.thread_time()
        again = make_weight_model(LEE, ConcreteRing(p=2, s=20))
        assert again is first
        assert min_distance_exhaustive(mat, again) == distance
        assert time.thread_time() - start < 0.1

    def test_hash_skips_tables_equality_reads_them(self):
        lee = make_weight_model(LEE, Z8)
        other = dataclasses.replace(lee, int_weights=tuple(range(8)))
        assert hash(other) == hash(lee) and other != lee
        assert make_weight_model(LEE, Z8) == lee


class TestBallVolumes:
    def test_hand_examples(self):
        lee = make_weight_model(LEE, Z4)
        ham = make_weight_model(HAMMING, Z4)
        assert ball_volume(1, 1, lee, closed=True) == 3
        assert ball_volume(2, 1, ham, closed=True) == 7
        assert ball_volume(3, 0, ham, closed=True) == 1

    def test_dp_equals_brute_force_everywhere(self):
        for ring in RINGS:
            for kind in KINDS:
                model = make_weight_model(kind, ring)
                for n in (1, 2, 3):
                    radii = sorted(
                        {
                            sum((model.symbol_weights[x] for x in vec), Fraction(0))
                            for vec in all_tuples(ring.modulus, n)
                        }
                    )
                    probes = radii + [r + Fraction(1, 3) for r in radii]
                    for r in probes:
                        for closed in (True, False):
                            assert ball_volume(n, r, model, closed) == brute_ball_volume(
                                n, r, model.symbol_weights, closed
                            ), (ring, kind, n, r, closed)

    def test_profile_invariants(self):
        for ring in RINGS:
            for kind in KINDS:
                model = make_weight_model(kind, ring)
                profile = ball_profile(5, model)
                assert profile.cumulative[0] >= 1
                assert list(profile.cumulative) == sorted(profile.cumulative)
                assert profile.cumulative[-1] == ring.modulus ** 5

    def test_profile_equals_convolution(self):
        # Lee on Z/2^8 and Z/2^10 has a histogram of 129 and 513 terms; the
        # convolution's cost grows as (n p^s)^2, so those stop at n = 4
        cases = [(ring, 13) for ring in SMALL_RINGS]
        cases += [(ConcreteRing(p=2, s=8), 5), (ConcreteRing(p=2, s=10), 5)]
        for ring, lengths in cases:
            for kind in KINDS:
                model = make_weight_model(kind, ring)
                for n in range(lengths):
                    assert ball_profile(n, model).cumulative == naive_ball_profile(
                        n, model.int_weights
                    ), (ring, kind, n)

    @pytest.mark.parametrize(
        "int_weights",
        [
            (2, 1, 3, 1, 4, 1, 3, 1),  # no weight-0 symbol: every profile starts with n zeros
            tuple(range(8)),  # w(-x) != w(x)
            (0, 0, 1, 5, 0, 5, 1, 2),  # h(0) = 3, and no symbol weighs 3 or 4
        ],
    )
    def test_hand_built_tables_equal_convolution(self, int_weights):
        model = WeightModel(kind="hand", ring=Z8, scale=1, int_weights=int_weights)
        for n in range(9):
            assert ball_profile(n, model).cumulative == naive_ball_profile(n, int_weights), n

    def test_open_at_most_closed(self):
        lee = make_weight_model(LEE, Z8)
        for w in range(0, 9):
            assert ball_volume(3, w, lee, closed=False) <= ball_volume(3, w, lee, closed=True)

    def test_negative_radius_rejected(self):
        with pytest.raises(ParameterError):
            ball_volume(2, -1, make_weight_model(LEE, Z4))


# sha256 of ",".join(cumulative), recorded from the n-fold convolution
PINNED_PROFILES = {
    (LEE, 2, 2, 240): "687036d2a5dab5967ce2134df7fb1c3da9789d52310b483e1a16b148d30ae098",
    (HOMOGENEOUS, 3, 2, 80): "49b38e4da1da512adf49813a9129872a6edc5662134851adfb4760521c829313",
    (HAMMING, 3, 3, 40): "0389130eab5617a27162669642d18e105113b42e06b1df8a71464c136d1a9b42",
}


@pytest.mark.parametrize("case", sorted(PINNED_PROFILES))
def test_ball_profile_pinned(case):
    kind, p, s, n = case
    profile = ball_profile(n, make_weight_model(kind, ConcreteRing(p=p, s=s)))
    digest = hashlib.sha256(",".join(map(str, profile.cumulative)).encode()).hexdigest()
    assert digest == PINNED_PROFILES[case]


# Z/2, 4, 8, 32, 2^8, 2^10, 3, 9, 27, 5 and 49
CHARGE_RINGS = tuple(
    ConcreteRing(p=p, s=s)
    for p, s in ((2, 1), (2, 2), (2, 3), (2, 5), (2, 8), (2, 10), (3, 1), (3, 2), (3, 3), (5, 1), (7, 2))
)
# the largest n each ball profile is admitted at, Hamming, Lee and homogeneous
# on each ring of CHARGE_RINGS in turn
ADMITTED = (
    (7029, 7029, 4970),
    (4970, 3514, 3514),
    (4058, 2029, 2869),
    (3143, 785, 2222),
    (2485, 219, 1757),
    (2222, 98, 1571),
    (5583, 5583, 3223),
    (3948, 1974, 2279),
    (3223, 894, 1861),
    (4613, 3261, 2063),
    (2966, 605, 1121),
)


@pytest.mark.parametrize(
    "kind, ring, admitted",
    [(kind, ring, n) for ring, row in zip(CHARGE_RINGS, ADMITTED) for kind, n in zip(KINDS, row)],
    ids=str,
)
def test_ball_profile_budget_boundary(kind, ring, admitted):
    model = make_weight_model(kind, ring)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        ball_profile(admitted + 1, model)
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    profile = ball_profile(admitted, model)
    assert time.perf_counter() - start < 1
    assert profile.cumulative[-1] == ring.modulus ** admitted


class TestGVBound:
    def test_examples(self):
        ham = make_weight_model(HAMMING, Z4)
        lee = make_weight_model(LEE, Z4)
        assert gv_lower_bound(1, 1, ham) == 4
        assert gv_lower_bound(2, 1, ham) == 16
        assert gv_lower_bound(2, 2, lee) == Fraction(16, 5)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ParameterError):
            gv_lower_bound(2, 0, make_weight_model(HAMMING, Z4))


class TestEntropy:
    def test_zero_delta(self):
        model = make_weight_model(LEE, Z4)
        assert entropy_estimate(10, 0.0, model).value == 0.0
        assert q_ary_entropy(4, 0.0) == 0.0

    def test_nondecreasing_in_delta(self):
        model = make_weight_model(LEE, Z8)
        values = [entropy_estimate(40, d / 20, model).value for d in range(21)]
        assert values == sorted(values)

    def test_hamming_converges_to_closed_form(self):
        model = make_weight_model(HAMMING, Z4)
        estimate = entropy_estimate(400, 0.2, model)
        assert abs(estimate.value - q_ary_entropy(4, 0.2)) < 0.02

    def test_hamming_saturates_at_threshold(self):
        model = make_weight_model(HAMMING, Z4)
        d = model.distance_threshold()
        assert d == 0.75
        assert entropy_estimate(800, d, model).value > 0.98

    def test_lee_saturates_at_its_threshold(self):
        # the Lee threshold is mean/max symbol weight: exactly 1/2 for even
        # modulus, (t+1)/(2t+1) for modulus 2t+1 (0.6 for Z/5); "about a half"
        # is an approximation valid for large alphabets only
        even = make_weight_model(LEE, Z4)
        assert abs(entropy_estimate(1000, 0.5, even).value - 1.0) < 0.02
        odd = make_weight_model(LEE, ConcreteRing(p=5, s=1))
        assert abs(entropy_estimate(1000, 0.6, odd).value - 1.0) < 0.02
        assert entropy_estimate(1000, 0.5, odd).value < 0.99

    def test_homogeneous_saturates_at_its_threshold(self):
        # 1 - 1/p: the mean symbol weight over the maximal one, 1/2 on Z/4
        model = make_weight_model(HOMOGENEOUS, Z4)
        assert abs(entropy_estimate(800, 0.5, model).value - 1.0) < 0.02
        assert entropy_estimate(800, 0.4, model).value < 0.99

    @pytest.mark.parametrize("ring", [Z4, Z9], ids=str)
    def test_certificate_covers_rounding(self, ring):
        # the docstring's derivation: under 8.2 unit roundoffs relative
        derived = 8.2 * 2.0 ** -53
        for kind in KINDS:
            model = make_weight_model(kind, ring)
            for n in (1, 12, 240, 1000):
                cumulative = ball_profile(n, model).cumulative
                for delta in (0.0, 0.1, 0.35, 0.9):
                    estimate = entropy_estimate(n, delta, model)
                    cut = math.floor(Fraction(delta) * (len(cumulative) - 1))
                    with mpmath.workdps(60):
                        exact = mpmath.log(cumulative[cut]) / (n * mpmath.log(ring.modulus))
                        error = abs(mpmath.mpf(estimate.value) - exact)
                    assert derived * abs(estimate.value) <= estimate.abs_error
                    assert error <= derived * abs(estimate.value), (kind, n, delta)
                    assert error <= estimate.abs_error

    def test_thresholds(self):
        assert make_weight_model(HOMOGENEOUS, Z4).distance_threshold() == 0.5
        assert make_weight_model(HOMOGENEOUS, Z9).distance_threshold() == 2 / 3
        # Lee: mean symbol weight over the maximal one, exactly
        assert make_weight_model(LEE, Z4).distance_threshold() == 0.5
        assert make_weight_model(LEE, ConcreteRing(p=5, s=1)).distance_threshold() == 0.6
        assert make_weight_model(LEE, ConcreteRing(p=3, s=2)).distance_threshold() == 5 / 9


class TestMinDistance:
    def test_examples(self):
        lee = make_weight_model(LEE, Z4)
        ham = make_weight_model(HAMMING, Z4)
        assert min_distance_exhaustive(ring_matrix(Z4, [[1, 1]]), lee) == 2
        assert min_distance_exhaustive(ring_matrix(Z4, [[2, 2]]), lee) == 4
        assert min_distance_exhaustive(ring_matrix(Z4, [[1, 0], [0, 1]]), ham) == 1
        assert min_distance_exhaustive(ring_matrix(Z4, [[0, 0]]), lee) == math.inf

    def test_fractional_weights(self):
        hom = make_weight_model(HOMOGENEOUS, Z9)
        assert min_distance_exhaustive(ring_matrix(Z9, [[3, 3]]), hom) == 3

    def test_matches_brute_force(self):
        rng = random.Random(29)
        for ring in RINGS:
            model = make_weight_model(LEE, ring)
            w = model.symbol_weights
            for _ in range(20):
                entries = [[rng.randrange(ring.modulus) for _ in range(3)] for _ in range(2)]
                mat = ring_matrix(ring, entries)
                best = math.inf
                for x in all_tuples(ring.modulus, 2):
                    word = tuple(
                        sum(x[i] * entries[i][j] for i in range(2)) % ring.modulus
                        for j in range(3)
                    )
                    if any(word):
                        best = min(best, sum(w[c] for c in word))
                assert min_distance_exhaustive(mat, model) == best

    @pytest.mark.parametrize(
        "ring",
        # Z/2^9 and Z/2^13 reduce float32 and int64 products; the others pack
        [ConcreteRing(p=2, s=1), Z4, Z8, Z9, ConcreteRing(p=3, s=3),
         ConcreteRing(p=2, s=9), ConcreteRing(p=2, s=13)],
        ids=str,
    )
    def test_matches_naive_reference(self, ring):
        rng = random.Random(ring.modulus)
        mod = ring.modulus
        kmax = max(k for k in (1, 2, 3) if mod ** k <= 20000)
        for kind in KINDS:
            model = make_weight_model(kind, ring)
            shapes = [(rng.randint(1, kmax), rng.randint(1, 7)) for _ in range(5)]
            for k, n in shapes:
                cases = [
                    [[rng.randrange(mod) for _ in range(n)] for _ in range(k)],
                    # every product reaches top = k (p^s - 1)^2, the largest packed digit
                    [[mod - 1] * n for _ in range(k)],
                ]
                for rows in cases:
                    expected = naive_min_distance(rows, mod, model.symbol_weights)
                    assert min_distance_exhaustive(ring_matrix(ring, rows), model) == expected, (
                        kind, rows
                    )
                zero = ring_matrix(ring, [[0] * n for _ in range(k)])
                assert min_distance_exhaustive(zero, model) == math.inf

    def test_minimum_at_one_coefficient(self):
        # of the 4^9 coefficient vectors only those with x_0 = 2 give (2, 0),
        # the multiple of (1, 2) of least weight; x_0 lies in the top half of
        # the split, where 2 = -2 is its own pair {x, -x}
        rows = [[1, 2]] + [[0, 0]] * 8
        for kind in KINDS:
            model = make_weight_model(kind, Z4)
            expected = naive_min_distance(rows, 4, model.symbol_weights)
            assert expected == model.symbol_weights[2]
            assert min_distance_exhaustive(ring_matrix(Z4, rows), model) == expected
        rng = random.Random(9)
        rows = [[rng.randrange(4) for _ in range(5)] for _ in range(9)]
        lee = make_weight_model(LEE, Z4)
        assert min_distance_exhaustive(ring_matrix(Z4, rows), lee) == naive_min_distance(
            rows, 4, lee.symbol_weights
        )

    def test_exact_past_float32_products(self):
        # x * 4097 reaches 2^25 > 2^24, where float32 rounds x * 4097 = 0 mod 2^13
        ring = ConcreteRing(p=2, s=13)
        hamming = make_weight_model(HAMMING, ring)
        assert min_distance_exhaustive(ring_matrix(ring, [[1, 4097]]), hamming) == 2

    def test_wide_integer_weights(self):
        # n * max(int_weights) >= 2^31: the weight sums need int64
        lee = make_weight_model(LEE, Z8)
        wide = WeightModel(
            kind=LEE,
            ring=Z8,
            scale=1 << 30,
            int_weights=tuple(w << 30 for w in lee.int_weights),
        )
        rng = random.Random(41)
        for _ in range(20):
            mat = ring_matrix(Z8, [[rng.randrange(8) for _ in range(5)] for _ in range(2)])
            assert min_distance_exhaustive(mat, wide) == min_distance_exhaustive(mat, lee)

    def test_asymmetric_weight_enumerates_in_full(self):
        # w(x) = x on Z/8: x G and (-x) G weigh differently, so no coefficient
        # vector may be skipped; for G = (7) only x = 7 reaches the codeword 1
        asym = WeightModel(
            kind="asym",
            ring=Z8,
            scale=1,
            int_weights=tuple(range(8)),
        )
        assert min_distance_exhaustive(ring_matrix(Z8, [[7]]), asym) == 1
        assert min_distance_exhaustive(ring_matrix(Z8, [[7, 6]]), asym) == 3
        rng = random.Random(88)
        for _ in range(30):
            k, n = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[rng.randrange(8) for _ in range(n)] for _ in range(k)]
            expected = naive_min_distance(rows, 8, asym.symbol_weights)
            assert min_distance_exhaustive(ring_matrix(Z8, rows), asym) == expected, rows

    def test_odd_k_and_empty_bottom_half(self):
        # odd k splits unevenly; at k = 1 the bottom half is the empty vector
        rng = random.Random(35)
        for ring in SMALL_RINGS:
            mod = ring.modulus
            for k in (1, 3, 5):
                if mod ** k > 20000:
                    continue
                for kind in KINDS:
                    model = make_weight_model(kind, ring)
                    n = rng.randint(1, 6)
                    rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(k)]
                    expected = naive_min_distance(rows, mod, model.symbol_weights)
                    assert min_distance_exhaustive(ring_matrix(ring, rows), model) == expected, (
                        ring, kind, rows
                    )

    @pytest.mark.parametrize("ring", [Z4, Z8], ids=str)
    def test_self_negating_codewords(self, ring):
        # entries in {0, p^s/2}: every codeword c has c = -c
        half = ring.modulus // 2
        rng = random.Random(half)
        for kind in KINDS:
            model = make_weight_model(kind, ring)
            for _ in range(10):
                k, n = rng.randint(1, 5), rng.randint(1, 6)
                rows = [[half * rng.randrange(2) for _ in range(n)] for _ in range(k)]
                expected = naive_min_distance(rows, ring.modulus, model.symbol_weights)
                assert min_distance_exhaustive(ring_matrix(ring, rows), model) == expected, rows

    def test_enumerates_only_half_the_rows(self, monkeypatch):
        # a 20 x 24 code over Z/2 has 2^20 codewords, but only the coefficient
        # vectors of one half of G, 2^10 of them, are ever materialised
        sizes = []
        all_vectors = coding._all_vectors

        def spy(mod, m):
            sizes.append(m)
            return all_vectors(mod, m)

        monkeypatch.setattr(coding, "_all_vectors", spy)
        coding._halves.cache_clear()
        z2 = ConcreteRing(p=2, s=1)
        # (I | J) with every row of J nonzero and one of weight 1: distance 2
        rows = [[int(i == j) for j in range(20)] + [int(b) for b in f"{i % 15 + 1:04b}"] for i in range(20)]
        assert min_distance_exhaustive(ring_matrix(z2, rows), make_weight_model(HAMMING, z2)) == 2
        assert sizes and max(sizes) <= 10

    def test_one_pass_per_column_group(self, monkeypatch):
        # a budget of 4^4 leaves room for one group of 6 columns per pass at
        # k = 4 on Z/4 (10 x 16 pairs), so n = 12..14 takes 2 or 3 passes
        monkeypatch.setattr(coding, "MIN_DISTANCE_BUDGET", 4 ** 4)
        rng = random.Random(44)
        for kind in KINDS:
            model = make_weight_model(kind, Z4)
            for n in (12, 13, 14):
                rows = [[rng.randrange(4) for _ in range(n)] for _ in range(4)]
                expected = naive_min_distance(rows, 4, model.symbol_weights)
                assert min_distance_exhaustive(ring_matrix(Z4, rows), model) == expected, rows

    def test_budget(self):
        mat = ring_matrix(Z4, [[0] * 3 for _ in range(11)])
        with pytest.raises(BudgetExceededError):
            min_distance_exhaustive(mat, make_weight_model(LEE, Z4))

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            min_distance_exhaustive(ring_matrix(Z8, [[1, 1]]), make_weight_model(LEE, Z4))


class TestExperiment:
    def test_zero_delta_smoke(self):
        model = make_weight_model(LEE, Z4)
        report = gv_random_experiment(8, 0.0, 0.2, model, trials=25, seed=11)
        assert report.k == math.ceil(0.8 * 8)
        # delta = 0 makes the distance condition vacuous
        assert report.distance_count == report.trials
        assert len(report.outcomes) == 25
        assert report.joint_count == report.free_count

    def test_preconditions(self):
        model = make_weight_model(LEE, Z4)
        with pytest.raises(ParameterError):
            gv_random_experiment(8, 0.0, 1.5, model, trials=5, seed=1)
        with pytest.raises(ParameterError):
            gv_random_experiment(8, 0.0, 0.2, model, trials=0, seed=1)
        with pytest.raises(ParameterError):
            gv_random_experiment(8, 0.9, 0.05, model, trials=5, seed=1)
        with pytest.raises(ParameterError):
            gv_random_experiment(8, -0.1, 0.2, model, trials=5, seed=1)

    def test_rejects_nonpositive_jobs_and_nonfinite_parameters(self):
        model = make_weight_model(LEE, Z4)
        for jobs in (0, -3):
            with pytest.raises(ParameterError, match=f"jobs must be >= 1, got {jobs}"):
                gv_random_experiment(8, 0.05, 0.2, model, trials=5, seed=1, jobs=jobs)
        for delta, epsilon, message in [
            (math.nan, 0.2, "delta must be finite, got nan"),
            (math.inf, 0.2, "delta must be finite, got inf"),
            (0.05, math.nan, "epsilon must be finite, got nan"),
        ]:
            with pytest.raises(ParameterError, match=message):
                gv_random_experiment(8, delta, epsilon, model, trials=5, seed=1)

    def test_trials_past_the_budget_refused_at_once(self):
        model = make_weight_model(LEE, Z4)
        start = time.thread_time()
        with pytest.raises(BudgetExceededError, match=r"^1000000000 trials of 786432 codeword symbols each exceed budget"):
            gv_random_experiment(12, 0.05, 0.15, model, trials=10 ** 9, seed=1)
        # small codes are charged the per-trial floor
        floor = coding._TRIAL_FLOOR * 8
        trials = coding.TRIAL_BUDGET // floor + 1
        with pytest.raises(BudgetExceededError, match=rf"^{trials} trials of {floor} codeword symbols each"):
            gv_random_experiment(8, 0.0, 0.7, model, trials=trials, seed=1)
        assert time.thread_time() - start < 0.1
        # the per-trial codeword budget still speaks first
        with pytest.raises(BudgetExceededError, match=r"^4\^12 codewords exceed budget"):
            gv_random_experiment(16, 0.0, 0.3, model, trials=10 ** 9, seed=1)

    def test_epsilon_error_reports_growth_rate(self):
        model = make_weight_model(LEE, Z4)
        with pytest.raises(ParameterError, match="g_n"):
            gv_random_experiment(12, 0.05, 0.95, model, trials=5, seed=1)

    def test_deterministic(self):
        model = make_weight_model(LEE, Z4)
        a = gv_random_experiment(8, 0.05, 0.2, model, trials=10, seed=3)
        b = gv_random_experiment(8, 0.05, 0.2, model, trials=10, seed=3, jobs=2)
        assert a.outcomes == b.outcomes
        assert a.joint_count == b.joint_count

    def test_pool_capped_at_chunk_and_cores(self, monkeypatch):
        # a stand-in executor records its size and maps in this thread, so no thread starts
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(coding.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(coding, "_TRIAL_CHUNK", 3)
        model = make_weight_model(LEE, Z4)
        serial = gv_random_experiment(8, 0.05, 0.2, model, trials=7, seed=3)
        report = gv_random_experiment(8, 0.05, 0.2, model, trials=7, seed=3, jobs=100000)
        assert sizes == [3, 3, 1]  # chunks of 3, 3 and 1 matrices
        assert report == serial
        monkeypatch.setattr(coding.os, "cpu_count", lambda: None)
        gv_random_experiment(8, 0.05, 0.2, model, trials=7, seed=3, jobs=2)
        assert sizes[3:] == [1, 1, 1]

    def test_free_fraction_tracks_unimodular_probability(self):
        model = make_weight_model(LEE, Z4)
        report = gv_random_experiment(8, 0.05, 0.2, model, trials=120, seed=9)
        assert report.passed_free
        assert 0 <= report.bound <= 1

    def test_freeness_per_trial(self, monkeypatch):
        # chunks of three trials: freeness is batched per chunk
        monkeypatch.setattr(coding, "_TRIAL_CHUNK", 3)
        model = make_weight_model(LEE, Z8)
        report = gv_random_experiment(6, 0.05, 0.2, model, trials=10, seed=13)
        for o in report.outcomes:
            mat = sample_matrix(report.k, 6, Z8, 13, o.stream)
            assert o.free == is_rect_unimodular(mat)
            assert o.min_distance == min_distance_exhaustive(mat, model)
        assert [o.stream for o in report.outcomes] == list(range(10))


# recorded from the trial-by-trial implementation; each outcome is the minimum
# distance, suffixed "f" when the code is free
PINNED_REPORTS = {
    ("lee", 2, 2, 10, 0.05, 0.15, 5): (
        7, 9, 11, 8, "1f,2,2f,2f,4,2f,2f,2,3f,2f,2f,2f",
        0.21961587113893802, 0.44048807378247457, "18014398509481985/18014398509481984"),
    ("lee", 2, 2, 10, 0.05, 0.15, 17): (
        7, 12, 10, 10, "1f,3f,3f,2f,1f,3f,2f,2f,2f,2f,2f,3f",
        0.21961587113893802, 0.44048807378247457, "18014398509481985/18014398509481984"),
    ("homogeneous", 3, 2, 6, 0.1, 0.2, 5): (
        5, 10, 12, 10, "3/2f,3/2f,3/2f,1f,3/2f,1f,1,3/2,3/2f,3/2f,1f,2f",
        0.0, 0.2989813059820993, "32425917317067573/36028797018963968"),
    ("homogeneous", 3, 2, 6, 0.1, 0.2, 17): (
        5, 11, 12, 11, "3/2f,1f,3/2f,1f,1f,3/2f,3/2,1f,3/2f,3/2f,3/2f,1f",
        0.0, 0.2989813059820993, "32425917317067573/36028797018963968"),
    ("hamming", 2, 2, 10, 0.2, 0.1, 5): (
        5, 12, 1, 1, "2f,2f,2f,2f,2f,2f,2f,3f,2f,2f,2f,1f",
        0.4384092162388463, 0.0, "18014398509481985/9007199254740992"),
    ("hamming", 2, 2, 10, 0.2, 0.1, 17): (
        5, 12, 1, 1, "1f,2f,2f,2f,3f,2f,2f,2f,2f,1f,2f,2f",
        0.4384092162388463, 0.0, "18014398509481985/9007199254740992"),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_gv_report_pinned(case):
    kind, p, s, n, delta, epsilon, seed = case
    model = make_weight_model(kind, ConcreteRing(p=p, s=s))
    report = gv_random_experiment(n, delta, epsilon, model, trials=12, seed=seed)
    outcomes = ",".join(str(o.min_distance) + ("f" if o.free else "") for o in report.outcomes)
    assert (
        report.k, report.free_count, report.distance_count, report.joint_count, outcomes,
        report.growth_rate, report.bound, str(report.distance_cutoff),
    ) == PINNED_REPORTS[case]
