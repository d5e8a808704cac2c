import math
import random
from fractions import Fraction

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

from helpers import all_tuples, brute_ball_volume

Z4 = ConcreteRing(p=2, s=2)
Z8 = ConcreteRing(p=2, s=3)
Z9 = ConcreteRing(p=3, s=2)
RINGS = (Z4, Z8, Z9)
KINDS = (HAMMING, LEE, HOMOGENEOUS)


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
        # make_weight_model does not check these; every Z/p^s up to 32
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        rings = [ConcreteRing(p=p, s=s) for p in primes for s in range(1, 6) if p ** s <= 32]
        assert len(rings) == 18
        for ring in rings:
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

    def test_open_at_most_closed(self):
        lee = make_weight_model(LEE, Z8)
        for w in range(0, 9):
            assert ball_volume(3, w, lee, closed=False) <= ball_volume(3, w, lee, closed=True)

    def test_negative_radius_rejected(self):
        with pytest.raises(ParameterError):
            ball_volume(2, -1, make_weight_model(LEE, Z4))


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
            symbol_weights=lee.symbol_weights,
            scale=1 << 30,
            int_weights=tuple(w << 30 for w in lee.int_weights),
            max_symbol_weight=lee.max_symbol_weight,
            eta=lee.eta,
        )
        rng = random.Random(41)
        for _ in range(20):
            mat = ring_matrix(Z8, [[rng.randrange(8) for _ in range(5)] for _ in range(2)])
            assert min_distance_exhaustive(mat, wide) == min_distance_exhaustive(mat, lee)

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
