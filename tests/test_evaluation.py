import numpy as np
import pytest

from fcdbn.core import RngStream
from fcdbn.evaluation import (
    ConfusionCounts,
    MatchingError,
    dprime,
    gen_negatives,
    information_entropy,
    make_folds,
    roc,
    stimulus_entropy,
    ztest_proportions,
)
from fcdbn.storage import KinPair


def inverse_normal_oracle(p):
    """Acklam's rational approximation of the standard normal quantile.

    Independent of scipy; absolute error below 1.15e-9 on (0, 1).
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = np.sqrt(-2 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        return -inverse_normal_oracle(1 - p)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


class TestDprime:
    def test_equal_rates_give_zero(self):
        assert dprime(0.3, 0.3) == 0.0

    def test_antisymmetry(self):
        assert dprime(0.7, 0.2) == pytest.approx(-dprime(0.2, 0.7), abs=1e-12)

    def test_reference_value(self):
        expected = inverse_normal_oracle(0.84) - inverse_normal_oracle(0.16)
        got = dprime(0.84, 0.16)
        assert abs(got - expected) < 1e-6
        assert abs(got - 1.989) < 1e-3

    def test_clamping_with_counts(self):
        cases = [
            # perfect hit rate over 20 trials clamps to 1 - 1/40
            (1.0, 0.25, 20, 1 - 1 / 40, 0.25),
            # a million trials clamp to 1/(2n) = 5e-7 from either end
            (1.0, 0.0, 10**6, 1 - 5e-7, 5e-7),
            (0.0, 1.0, 10**6, 5e-7, 1 - 5e-7),
        ]
        for hit, fa, n, hit_clamped, fa_clamped in cases:
            d = dprime(hit, fa, n_signal=n, n_noise=n)
            expected = (inverse_normal_oracle(hit_clamped)
                        - inverse_normal_oracle(fa_clamped))
            assert abs(d - expected) < 1e-6, (hit, fa, n)

    def test_matches_scipy_quantile_on_grid(self):
        from scipy.stats import norm  # scipy is a test-only dependency

        tail = np.geomspace(1e-9, 0.5, 40)
        grid = np.concatenate([tail, 1.0 - tail, np.linspace(0.01, 0.99, 41)])
        for hit in grid:
            for fa in grid[::7]:
                expected = norm.ppf(hit) - norm.ppf(fa)
                assert abs(dprime(hit, fa) - expected) < 1e-14, (hit, fa)

    @pytest.mark.parametrize("n_signal, n_noise", [(0, 10), (10, 0), (-1, 10)])
    def test_empty_trial_count_rejected(self, n_signal, n_noise):
        with pytest.raises(ValueError, match="trial counts"):
            dprime(0.5, 0.5, n_signal=n_signal, n_noise=n_noise)

    def test_extreme_rate_without_counts_rejected(self):
        with pytest.raises(ValueError):
            dprime(1.0, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dprime(1.2, 0.5)
        with pytest.raises(ValueError):
            dprime(0.5, -0.1)


class TestEntropies:
    def test_balanced_stimuli_one_bit(self):
        counts = ConfusionCounts(np.array([[25.0, 25.0], [25.0, 25.0]]))
        assert stimulus_entropy(counts) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_zero_bits(self):
        counts = ConfusionCounts(np.array([[30.0, 20.0], [0.0, 0.0]]))
        assert stimulus_entropy(counts) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_stimulus_entropy(self):
        counts = [[30, 10], [20, 40]]
        # H(0.4) = -(0.4 log 0.4 + 0.6 log 0.6) / log 2
        expected = -(0.4 * np.log(0.4) + 0.6 * np.log(0.6)) / np.log(2)
        assert stimulus_entropy(counts) == pytest.approx(expected, abs=1e-12)
        assert stimulus_entropy(counts) == pytest.approx(0.970951, abs=1e-6)

    def test_perfect_responses_transmit_all_entropy(self):
        counts = [[30, 0], [0, 70]]
        assert information_entropy(counts) == pytest.approx(
            stimulus_entropy(counts), abs=1e-12)

    def test_independent_counts_transmit_nothing(self):
        counts = [[6, 4], [12, 8]]  # rows proportional -> independence
        assert information_entropy(counts) == pytest.approx(0.0, abs=1e-12)

    def test_term_by_term_oracle(self):
        counts = np.array([[30.0, 10.0], [20.0, 40.0]])
        total = counts.sum()
        h_s = 0.0
        for i in range(2):
            p = counts[i].sum() / total
            h_s -= p * np.log(p)
        h_cond = 0.0
        for i in range(2):
            for j in range(2):
                joint = counts[i, j] / total
                cond = counts[i, j] / counts[:, j].sum()
                if joint > 0:
                    h_cond -= joint * np.log(cond)
        expected = (h_s - h_cond) / np.log(2)
        assert information_entropy(counts) == pytest.approx(expected, abs=1e-12)

    def test_information_bounded_by_stimulus_entropy(self):
        stream = RngStream(seed=1)
        for trial in range(1000):
            counts = np.floor(stream.uniform01(4) * 50).reshape(2, 2) + \
                (1 if trial % 3 == 0 else 0)
            if counts.sum() == 0:
                continue
            h = stimulus_entropy(counts)
            info = information_entropy(counts)
            assert -1e-12 <= info <= h + 1e-12

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ConfusionCounts(np.array([[1.0, -2.0], [0.0, 3.0]]))


class TestZtest:
    def test_equal_proportions_not_significant(self):
        z, sig = ztest_proportions(0.4, 100, 0.4, 200)
        assert z == 0.0 and not sig

    def test_hand_formula(self):
        p1, n1, p2, n2 = 0.9, 1000, 0.5, 1000
        pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
        se = np.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        expected = (p1 - p2) / se
        z, sig = ztest_proportions(p1, n1, p2, n2)
        assert z == pytest.approx(expected, abs=1e-12)
        assert sig
        assert z == pytest.approx(19.518, abs=0.01)

    def test_swapping_groups_negates_z(self):
        z1, _ = ztest_proportions(0.8, 50, 0.6, 80)
        z2, _ = ztest_proportions(0.6, 80, 0.8, 50)
        assert z1 == pytest.approx(-z2, abs=1e-12)

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            ztest_proportions(0.5, 0, 0.5, 10)
        with pytest.raises(ValueError):
            ztest_proportions(1.5, 10, 0.5, 10)


def auc_pairwise_oracle(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRoc:
    def test_perfect_separation(self):
        scores = np.concatenate([np.full(10, 0.9), np.full(10, 0.1)])
        labels = np.concatenate([np.ones(10), np.zeros(10)])
        assert roc(scores, labels).auc == 1.0

    def test_random_scores_near_half(self):
        stream = RngStream(seed=2)
        scores = stream.uniform01(10_000)
        labels = stream.bernoulli(10_000, 0.5)
        assert abs(roc(scores, labels).auc - 0.5) < 0.02

    def test_auc_equals_pairwise_oracle(self):
        stream = RngStream(seed=3)
        # quantized scores force plenty of ties
        scores = np.floor(stream.uniform01(200) * 20) / 20.0
        labels = stream.bernoulli(200, 0.4)
        result = roc(scores, labels)
        assert abs(result.auc - auc_pairwise_oracle(scores, labels)) < 1e-9

    def test_auc_pairwise_oracle_multiple_seeds(self):
        for seed in range(5):
            stream = RngStream(seed=100 + seed)
            scores = stream.gaussian(150) + stream.bernoulli(150, 0.5)
            labels = (stream.uniform01(150) < 0.5).astype(int)
            if labels.sum() in (0, len(labels)):
                continue
            result = roc(scores, labels)
            assert abs(result.auc - auc_pairwise_oracle(scores, labels)) < 1e-9

    def test_tpr_at_fpr_reporting(self):
        scores = np.linspace(0, 1, 1000)
        labels = (scores > 0.5).astype(int)
        result = roc(scores, labels)
        assert set(result.tpr_at_fpr) == {0.001, 0.01, 0.1}
        assert result.tpr_at_fpr[0.1] == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc(np.array([0.1, 0.5]), np.array([1, 1]))

    @pytest.mark.parametrize("scores, labels", [
        ([0.1, 0.5, 0.9], [1, 0]),  # too few labels
        ([0.1, 0.5], [1, 0, 1, 0]),  # too many labels
        ([0.1, 0.5, 0.9], [1, 0, 2]),  # a label that is neither 0 nor 1
        ([0.1, 0.5, 0.9], [1.0, 0.0, np.nan]),
        ([0.1, 0.5, 0.9, 0.3], [[1, 0], [0, 1]]),  # another shape
    ])
    def test_bad_labels_rejected(self, scores, labels):
        with pytest.raises(ValueError, match="label"):
            roc(np.array(scores), np.array(labels))

    def test_non_finite_scores_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                roc(np.array([bad, 0.3, 0.7]), np.array([1, 0, 1]))

    def test_curve_starts_at_origin(self):
        stream = RngStream(seed=4)
        result = roc(stream.uniform01(50), stream.bernoulli(50, 0.5))
        assert result.fpr[0] == 0.0 and result.tpr[0] == 0.0
        assert result.fpr[-1] == 1.0 and result.tpr[-1] == 1.0


def make_pairs(layout):
    """layout: list of (relation, family_index) tuples."""
    pairs = []
    for idx, (relation, fam) in enumerate(layout):
        pairs.append(KinPair(
            path_a=f"img{idx}_a.pgm", path_b=f"img{idx}_b.pgm",
            label="kin", relation=relation,
            subject_a=f"fam{fam}_p", subject_b=f"fam{fam}_c"))
    return pairs


class TestMakeFolds:
    def test_exact_divisibility(self):
        layout = [("FS", i) for i in range(10)] + [("MD", 10 + i) for i in range(10)]
        plan = make_folds(make_pairs(layout), seed=0)
        for fold in plan.folds:
            rels = [p.relation for p in fold]
            assert rels.count("FS") == 2
            assert rels.count("MD") == 2

    def test_uneven_relation_spreads_within_one(self):
        layout = [("BB", i) for i in range(7)]
        plan = make_folds(make_pairs(layout), seed=1)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes == [1, 1, 1, 2, 2]

    def test_partition_property(self):
        stream = RngStream(seed=5)
        relations = ("FS", "FD", "MS", "MD", "BB", "BS", "SS")
        for trial in range(20):
            n = 5 + int(stream.uniform01(1)[0] * 40)
            layout = [(relations[int(stream.uniform01(1)[0] * 7)], i)
                    for i in range(n)]
            pairs = make_pairs(layout)
            plan = make_folds(pairs, seed=trial)
            flattened = plan.all_pairs()
            assert len(flattened) == n
            assert {id(p) for p in flattened} == {id(p) for p in pairs}
            for relation in set(r for r, _ in layout):
                counts = [sum(1 for p in f if p.relation == relation)
                          for f in plan.folds]
                assert max(counts) - min(counts) <= 1

    def test_deterministic_per_seed(self):
        layout = [("FS", i) for i in range(11)]
        pairs = make_pairs(layout)
        p1 = make_folds(pairs, seed=9)
        p2 = make_folds(pairs, seed=9)
        assert [[p.path_a for p in f] for f in p1.folds] == \
               [[p.path_a for p in f] for f in p2.folds]

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError):
            make_folds(make_pairs([("FS", 0)] * 4), seed=0)


class TestGenNegatives:
    def test_basic_two_family_matching(self):
        pairs = make_pairs([("FS", 0), ("MD", 1)])
        negatives = gen_negatives(pairs, seed=0)
        assert len(negatives) == 2
        used = [img for pair in negatives for img in pair]
        assert len(used) == len(set(used)) == 4

    def test_same_family_never_paired(self):
        pairs = make_pairs([("FS", 0), ("MD", 0), ("BB", 1), ("SS", 2)])
        families = {}
        for p in pairs:
            families[p.path_a] = p.subject_a.split("_")[0]
            families[p.path_b] = p.subject_a.split("_")[0]
        for seed in range(30):
            for a, b in gen_negatives(pairs, seed=seed):
                assert families[a] != families[b]

    def test_image_single_use_over_many_seeds(self):
        pairs = make_pairs([("FS", i % 9) for i in range(12)])
        for seed in range(100):
            negatives = gen_negatives(pairs, seed=seed)
            assert len(negatives) == len(pairs)
            used = [img for pair in negatives for img in pair]
            assert len(used) == len(set(used))

    def test_impossible_single_family_pool(self):
        pairs = make_pairs([("FS", 0), ("FD", 0)])
        with pytest.raises(MatchingError):
            gen_negatives(pairs, seed=0)

    def test_reused_images_shrink_the_pool(self):
        # two positives sharing one image: 3 distinct images < 4 needed
        a = KinPair("x.pgm", "y.pgm", "kin", "FS", "f0_p", "f0_c")
        b = KinPair("x.pgm", "z.pgm", "kin", "FD", "f1_p", "f1_c")
        with pytest.raises(MatchingError):
            gen_negatives([a, b], seed=0)

    def test_deterministic_per_seed(self):
        pairs = make_pairs([("FS", i) for i in range(8)])
        assert gen_negatives(pairs, seed=4) == gen_negatives(pairs, seed=4)
