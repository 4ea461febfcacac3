import ast
import inspect

import numpy as np
import pytest

import fcdbn.fusion
import fcdbn.kvrl
from fcdbn.core import ModelStateError, RngStream
from fcdbn.evaluation import roc
from fcdbn.fusion import (
    DENSITY_FLOOR,
    GaussianMixture,
    PlrModels,
    ScoreSet,
    boost_decision,
    fit_fusion,
    fit_gmm,
    fit_plr_models,
    gmm_logpdf,
    log_plr_scores,
    plr_scores,
    svm_decisions,
    svm_feature_rows,
    svm_fit,
    synth_scores,
)


def row(s, *k):
    """One trial as (s, k) arrays: shapes (1,) and (1, len(k))."""
    return np.array([s]), np.array([k], dtype=np.float64)


def single_gaussian(mean, var=1.0):
    return GaussianMixture(weights=np.array([1.0]), means=np.array([mean]),
                           variances=np.array([var]))


class TestFitGmm:
    def test_single_component_recovers_sample_moments(self):
        samples = RngStream(seed=0).gaussian(500, mu=1.3, sigma=0.7)
        model = fit_gmm(samples, 1, seed=1)
        assert abs(model.means[0] - samples.mean()) < 1e-9
        assert abs(model.variances[0] - samples.var()) < 1e-9
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_identical_samples_hit_variance_floor(self):
        model = fit_gmm(np.full(50, 2.5), 2, seed=0)
        assert np.all(np.isfinite(model.means))
        assert np.all(model.variances >= 1e-6)
        assert np.all(np.isfinite(gmm_logpdf(model, np.array([2.5]))))

    def test_two_separated_clusters_recovered(self):
        stream = RngStream(seed=2)
        samples = np.concatenate([stream.gaussian(500, mu=-5.0),
                                  stream.gaussian(500, mu=5.0)])
        model = fit_gmm(samples, 2, seed=3)
        means = np.sort(model.means)
        assert abs(means[0] + 5.0) < 0.2
        assert abs(means[1] - 5.0) < 0.2

    def test_log_likelihood_non_decreasing(self):
        stream = RngStream(seed=4)
        samples = np.concatenate([stream.gaussian(200, mu=-1.0),
                                  stream.gaussian(300, mu=2.0, sigma=2.0)])
        model = fit_gmm(samples, 3, seed=5)
        hist = model.loglik_history
        assert len(hist) >= 2
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm(np.array([1.0, 2.0, 3.0]), 2, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_component_rejected(self, k):
        with pytest.raises(ValueError, match=f"K={k}"):
            fit_gmm(np.arange(10.0), k, seed=0)

    def test_deterministic_given_seed(self):
        samples = RngStream(seed=6).gaussian(200)
        m1 = fit_gmm(samples, 2, seed=7)
        m2 = fit_gmm(samples, 2, seed=7)
        assert np.array_equal(m1.means, m2.means)
        assert np.array_equal(m1.weights, m2.weights)

    def test_default_fuse_fits_converge_early(self):
        # the per-sample rule stops the 1,500-sample class fits on the flat
        # likelihood ridge of a single Gaussian long before max_iter
        for seed in range(4):
            models = fit_plr_models(synth_scores(seed, 1500, 1500),
                                    n_components=2, seed=seed)
            for fit in (models.s_genuine, models.s_impostor, models.k_kin,
                        models.k_nonkin):
                assert fit.converged is True
                assert fit.n_iter <= 60

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [12, 300, 3000])
    def test_stops_at_first_step_below_tol_per_sample(self, k, n):
        stream = RngStream(seed=10 * k + n)
        samples = np.concatenate([stream.gaussian(n // 2),
                                  stream.gaussian(n - n // 2, mu=2.5,
                                                  sigma=0.5)])
        for tol, max_iter in ((1e-5, 500), (1e-3, 500), (1e-9, 40), (0.0, 7)):
            fit = fit_gmm(samples, k, seed=k, max_iter=max_iter, tol=tol)
            small = np.abs(np.diff(fit.loglik_history)) < tol * n
            assert not small[:-1].any()
            if fit.converged:
                assert small[-1]
            else:
                assert fit.n_iter == max_iter and not small.any()
        assert fit.converged is False  # tol 0 can never be met

    def test_non_finite_samples_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                fit_gmm([bad, 1.0, 0.5, 0.2, 3.0, 4.0], 2, seed=0)

    @pytest.mark.parametrize("name", ["weights", "means", "variances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validate_rejects_non_finite_components(self, name, bad):
        fields = dict(weights=np.array([0.5, 0.5]), means=np.array([0.0, 1.0]),
                      variances=np.array([1.0, 2.0]))
        GaussianMixture(**fields).validate()
        fields[name] = np.array([0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            GaussianMixture(**fields).validate()

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [5.0, 7.0],
                                         [0.5, 0.5 + 2e-9]])
    def test_validate_rejects_weights_not_summing_to_one(self, weights):
        fields = dict(means=np.array([0.0, 1.0]), variances=np.array([1.0, 2.0]))
        GaussianMixture(weights=np.array([0.3, 0.7]), **fields).validate()
        with pytest.raises(ValueError, match="sum to"):
            GaussianMixture(weights=np.array(weights), **fields).validate()

    def test_single_component_converges(self):
        # the first M step lands on the sample moments, so the third
        # log-likelihood repeats the second
        model = fit_gmm(RngStream(seed=0).gaussian(500), 1, seed=1)
        assert model.converged is True
        assert model.n_iter == 3 == len(model.loglik_history)

    def test_logpdf_matches_direct_formula(self):
        model = GaussianMixture(weights=np.array([0.3, 0.7]),
                                means=np.array([-1.0, 2.0]),
                                variances=np.array([0.5, 2.0]))
        xs = np.array([-2.0, 0.0, 1.0, 3.0])
        direct = np.log(
            0.3 * np.exp(-(xs + 1) ** 2 / 1.0) / np.sqrt(2 * np.pi * 0.5)
            + 0.7 * np.exp(-(xs - 2) ** 2 / 4.0) / np.sqrt(2 * np.pi * 2.0))
        assert np.max(np.abs(gmm_logpdf(model, xs) - direct)) < 1e-12


class TestPlr:
    def reference_models(self):
        return PlrModels(s_genuine=single_gaussian(1.0),
                         s_impostor=single_gaussian(0.0),
                         k_kin=single_gaussian(1.0),
                         k_nonkin=single_gaussian(0.0))

    def test_identical_kin_conditionals_leave_face_ratio(self):
        models = PlrModels(s_genuine=single_gaussian(1.0),
                           s_impostor=single_gaussian(0.0),
                           k_kin=single_gaussian(0.3, 1.4),
                           k_nonkin=single_gaussian(0.3, 1.4))
        with_kin = plr_scores(models, *row(0.8, 0.1, 0.9))[0]
        face_only = plr_scores(models, *row(0.8))[0]
        assert with_kin == pytest.approx(face_only, rel=1e-12)

    def test_no_kin_scores_gives_face_ratio(self):
        models = self.reference_models()
        # N(1,1)/N(0,1) at 0.5 -> exp(0.5 - 0.5) = 1
        assert plr_scores(models, *row(0.5))[0] == \
            pytest.approx(1.0, rel=1e-12)

    def test_closed_form_gaussian_ratio(self):
        models = self.reference_models()
        # ratio contributions are exp(x - 0.5) each
        assert plr_scores(models, *row(0.5, 0.5))[0] == \
            pytest.approx(1.0, rel=1e-12)
        assert plr_scores(models, *row(1.0, 1.0))[0] == \
            pytest.approx(np.e, rel=1e-12)

    def test_log_plr_additive_over_kin_terms(self):
        models = self.reference_models()
        kin = (0.2, -0.4, 1.1)
        total = log_plr_scores(models, *row(0.7, *kin))[0]
        face = log_plr_scores(models, *row(0.7))[0]
        parts = [log_plr_scores(models, *row(0.7, v))[0] - face for v in kin]
        assert abs(total - (face + sum(parts))) < 1e-12

    def test_always_positive_with_floor(self):
        models = self.reference_models()
        s, k = row(-60.0, 55.0)
        # the face density at -60 is below the floor, so the floor is hit
        assert gmm_logpdf(models.s_genuine, s)[0] < np.log(1e-300)
        assert plr_scores(models, s, k)[0] > 0.0

    def test_fit_plr_models_separates_classes(self):
        scores = synth_scores(0, 300, 300, face_shift=2.0, kin_shift=2.0)
        models = fit_plr_models(scores, n_components=2, seed=1)
        assert models.s_genuine.means.mean() > models.s_impostor.means.mean()
        assert models.k_kin.means.mean() > models.k_nonkin.means.mean()


class TestSvm:
    def test_separable_scores_reach_perfect_accuracy(self):
        stream = RngStream(seed=10)
        rows = []
        for _ in range(40):
            rows.append((2.0 + stream.uniform01(1)[0],
                         2.0 + stream.uniform01(1)[0], 1))
            rows.append((-2.0 - stream.uniform01(1)[0],
                         -2.0 - stream.uniform01(1)[0], 0))
        s, k, label = np.array(rows).T
        scores = ScoreSet(s, k[:, None], label)
        model = svm_fit(scores)
        assert not model.degenerate
        preds = svm_decisions(model, scores.s, scores.k) >= 0
        assert np.array_equal(preds, label == 1)

    def test_identical_features_flagged_degenerate(self):
        scores = ScoreSet(np.full(10, 0.5), np.full((10, 1), 0.5),
                          np.arange(10) % 2)
        model = svm_fit(scores)
        assert model.degenerate
        assert svm_decisions(model, *row(0.5, 0.5))[0] == float(model.majority)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            svm_fit(ScoreSet(np.full(5, 0.5), np.zeros((5, 0)), np.ones(5)))

    def test_feature_vector_shapes(self):
        assert svm_feature_rows(*row(0.5)).shape == (1, 1)
        assert svm_feature_rows(*row(0.5, 0.1)).shape == (1, 2)
        feats = svm_feature_rows(*row(0.5, 0.1, 0.9, 0.4))[0]
        assert feats.shape == (3,)
        assert feats[1] == pytest.approx(np.mean([0.1, 0.9, 0.4]))
        assert feats[2] == 0.9

    def test_common_scaling_preserves_predictions(self):
        scores = synth_scores(11, 80, 80, face_shift=1.0, kin_shift=1.0)
        scaled = ScoreSet(2 * scores.s, 2 * scores.k, scores.label)
        m1 = svm_fit(scores)
        m2 = svm_fit(scaled)
        p1 = svm_decisions(m1, scores.s, scores.k) >= 0
        p2 = svm_decisions(m2, scaled.s, scaled.k) >= 0
        assert np.array_equal(p1, p2)


class TestBoostDecision:
    def fitted(self, seed=20):
        scores = synth_scores(seed, 200, 200, face_shift=1.2, kin_shift=1.5)
        return fit_fusion(scores, n_components=2, seed=seed)

    def test_extreme_thresholds(self):
        models = self.fitted()
        accept, _ = boost_decision(models, "plr", -np.inf, *row(0.2, 0.4))
        assert accept[0]
        accept, _ = boost_decision(models, "plr", np.inf, *row(0.2, 0.4))
        assert not accept[0]

    def test_returns_accept_and_fused(self):
        models = self.fitted()
        s, k = np.array([0.3, 2.0, -1.0]), np.array([[0.1], [2.0], [-1.0]])
        accept, fused = boost_decision(models, "svm", 0.0, s, k)
        assert np.array_equal(fused, svm_decisions(models.svm, s, k))
        assert np.array_equal(accept, fused >= 0.0)

    def test_unknown_method_rejected(self):
        models = self.fitted()
        with pytest.raises(ValueError):
            boost_decision(models, "mystery", 0.0, *row(0.1))

    def test_fusion_improves_tpr_at_low_fpr(self):
        train = synth_scores(30, 400, 400, face_shift=1.2, kin_shift=1.8)
        test = synth_scores(31, 400, 400, face_shift=1.2, kin_shift=1.8)
        models = fit_fusion(train, n_components=2, seed=30)
        face = roc(test.s, test.label)
        plr = roc(boost_decision(models, "plr", 0.0, test.s, test.k)[1],
                  test.label)
        svm = roc(boost_decision(models, "svm", 0.0, test.s, test.k)[1],
                  test.label)
        assert plr.tpr_at_fpr[0.01] >= face.tpr_at_fpr[0.01]
        assert svm.tpr_at_fpr[0.01] >= face.tpr_at_fpr[0.01]

    def test_roc_domination_at_sampled_fprs(self):
        train = synth_scores(32, 500, 500, face_shift=1.0, kin_shift=2.0)
        test = synth_scores(33, 500, 500, face_shift=1.0, kin_shift=2.0)
        models = fit_fusion(train, n_components=2, seed=32)
        face = roc(test.s, test.label)
        for method in ("plr", "svm"):
            fused = roc(boost_decision(models, method, 0.0, test.s, test.k)[1],
                        test.label)
            for target in (0.001, 0.01, 0.1):
                assert fused.tpr_at_fpr[target] >= face.tpr_at_fpr[target]


def reference_plr(models, s, k):
    # one row's PLR as scalar log densities, floored, summed and capped
    def floored(model, x):
        value = gmm_logpdf(model, float(x))
        return np.log(DENSITY_FLOOR) if value < np.log(DENSITY_FLOOR) else value

    total = floored(models.s_genuine, s) - floored(models.s_impostor, s)
    for value in k:
        total += floored(models.k_kin, value) - floored(models.k_nonkin, value)
    return float(np.exp(min(total, 700.0)))


def reference_svm(model, s, k):
    feats = [float(s)] + ([] if k.size == 0 else [float(k[0])] if k.size == 1
                          else [float(k.mean()), float(k.max())])
    x = (np.array(feats) - model.feat_mean) / model.feat_std
    return float(np.dot(x, model.w) + model.b)


class TestArrayScoring:
    @pytest.mark.parametrize("n_kin", [0, 1, 2, 3])
    def test_array_scores_equal_per_record_reference(self, n_kin):
        plr = fit_plr_models(synth_scores(40, 200, 200), seed=40)
        train = synth_scores(41, 200, 200, n_kin=n_kin)
        test = synth_scores(42, 1500, 1500, n_kin=n_kin)
        svm = svm_fit(train)
        s, k = test.s, test.k
        assert s.shape == (3000,) and k.shape == (3000, n_kin)
        assert np.array_equal(plr_scores(plr, s, k),
                              [reference_plr(plr, *r) for r in zip(s, k)])
        assert np.array_equal(svm_decisions(svm, s, k),
                              [reference_svm(svm, *r) for r in zip(s, k)])

    def test_batched_log_plr_equals_per_row(self):
        # far-out rows, where the density floor is hit, and one near row
        models = TestPlr().reference_models()
        s, k = np.array([-60.0, 0.1, 40.0]), np.array([[55.0], [0.2], [-50.0]])
        per_row = np.concatenate([log_plr_scores(models, s[i:i + 1], k[i:i + 1])
                                  for i in range(s.size)])
        assert log_plr_scores(models, s, k).tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("fields", [
        dict(s=[0.1, 0.3], k=[[0.2], [0.4], [0.5]], label=[1, 0]),
        dict(s=[0.1, 0.3], k=[0.2, 0.4], label=[1, 0]),
        dict(s=[[0.1, 0.3]], k=[[0.2], [0.4]], label=[1, 0]),
        dict(s=[0.1, 0.3], k=[[0.2], [0.4]], label=[1, 0, 1]),
        dict(s=[0.1, 0.3], k=[[0.2], [0.4]], label=[1, 0],
             kin_label=[[1, 0]]),
        dict(s=[0.1, 0.3], k=[[0.2], [0.4]], label=[1, 2]),
        dict(s=[0.1, 0.3], k=[[0.2], [0.4]], label=[1, -1]),
        dict(s=[0.1, 0.3], k=[[0.2], [0.4]], label=[1, 0],
             kin_label=[[1], [0.5]]),
    ], ids=["k-rows", "k-1d", "s-2d", "label-length", "kin-label-shape",
            "label-2", "label-minus-1", "kin-label-half"])
    def test_score_set_rejects_bad_shapes_and_labels(self, fields):
        with pytest.raises(ValueError):
            ScoreSet(**fields)

    @pytest.mark.parametrize("field", ["s", "k"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_score_set_rejects_non_finite_scores(self, field, bad):
        fields = dict(s=[0.1, 0.3], k=[[0.2], [0.4]], label=[1, 0])
        ScoreSet(**fields)
        fields[field] = [0.1, bad] if field == "s" else [[0.2], [bad]]
        with pytest.raises(ValueError, match="finite"):
            ScoreSet(**fields)

    def test_kin_label_defaults_to_row_label(self):
        scores = ScoreSet([0.1, 0.3, 0.5], np.zeros((3, 2)), [1, 0, 1])
        assert np.array_equal(scores.kin_label,
                              [[True, True], [False, False], [True, True]])

    def test_plr_pools_samples_in_record_order(self):
        # kin labels that disagree with the face label pool by kin label
        v = RngStream(seed=43).gaussian(90).reshape(30, 3)
        i = np.arange(30)
        scores = ScoreSet(v[:, 0], v[:, 1:], i % 2,
                          np.column_stack([i % 3 == 0, (i + 1) % 2]))
        models = fit_plr_models(scores, n_components=2, seed=44)
        pairs = [(value, is_kin) for row_k, row_kin
                 in zip(scores.k, scores.kin_label)
                 for value, is_kin in zip(row_k, row_kin)]
        kin = [value for value, is_kin in pairs if is_kin]
        nonkin = [value for value, is_kin in pairs if not is_kin]
        genuine = [s for s, label in zip(scores.s, scores.label) if label == 1]
        for fit, samples, seed in ((models.s_genuine, genuine, 44),
                                   (models.k_kin, kin, 46),
                                   (models.k_nonkin, nonkin, 47)):
            want = fit_gmm(samples, 2, seed=seed)
            assert np.array_equal(fit.means, want.means)
            assert np.array_equal(fit.variances, want.variances)

    def test_fit_fusion_leaves_unnamed_routes_unfitted(self):
        scores = synth_scores(45, 100, 100)
        models = fit_fusion(scores, methods=("svm",))
        assert models.plr is None
        assert models.svm is not None
        s, k = scores.s, scores.k
        assert np.array_equal(boost_decision(models, "svm", 0.0, s, k)[1],
                              svm_decisions(models.svm, s, k))
        with pytest.raises(ModelStateError):
            boost_decision(models, "plr", 0.0, s, k)

    def test_fusion_imports_core_alone(self):
        # ModelStateError lives in core, and kvrl's name for it is the same
        # class, so fusion need not load the DBN stack
        assert fcdbn.kvrl.ModelStateError is ModelStateError
        tree = ast.parse(inspect.getsource(fcdbn.fusion))
        local = {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level}
        assert local == {"core"}
