import numpy as np
import pytest

from fcdbn.core import RngStream
from fcdbn.evaluation import roc
from fcdbn.fusion import (
    DENSITY_FLOOR,
    GaussianMixture,
    PlrModels,
    ScoreRecord,
    boost_decision,
    fit_fusion,
    fit_gmm,
    fit_plr_models,
    gmm_logpdf,
    gmm_pdf,
    log_plr_score,
    log_plr_scores,
    plr_score,
    plr_scores,
    score_arrays,
    svm_decision,
    svm_decisions,
    svm_features,
    svm_fit,
    synth_score_records,
)
from fcdbn.kvrl import ModelStateError


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
        assert np.all(np.isfinite(gmm_pdf(model, np.array([2.5]))))

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

    def test_deterministic_given_seed(self):
        samples = RngStream(seed=6).gaussian(200)
        m1 = fit_gmm(samples, 2, seed=7)
        m2 = fit_gmm(samples, 2, seed=7)
        assert np.array_equal(m1.means, m2.means)
        assert np.array_equal(m1.weights, m2.weights)

    def test_default_fuse_fits_stop_at_max_iter(self):
        # the default tol of 1e-8 is absolute, so the 3,000-sample class
        # fits run out of iterations, and say so
        for seed in range(4):
            models = fit_plr_models(synth_score_records(seed, 1500, 1500),
                                    n_components=2, seed=seed)
            for fit in (models.s_genuine, models.s_impostor, models.k_kin,
                        models.k_nonkin):
                assert fit.n_iter == 500
                assert fit.converged is False

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
        rec = ScoreRecord(s=0.8, k=(0.1, 0.9), label=1)
        with_kin = plr_score(rec, models)
        face_only = plr_score(ScoreRecord(s=0.8, k=()), models)
        assert with_kin == pytest.approx(face_only, rel=1e-12)

    def test_no_kin_scores_gives_face_ratio(self):
        models = self.reference_models()
        rec = ScoreRecord(s=0.5, k=())
        # N(1,1)/N(0,1) at 0.5 -> exp(0.5 - 0.5) = 1
        assert plr_score(rec, models) == pytest.approx(1.0, rel=1e-12)

    def test_closed_form_gaussian_ratio(self):
        models = self.reference_models()
        # ratio contributions are exp(x - 0.5) each
        assert plr_score(ScoreRecord(s=0.5, k=(0.5,)), models) == \
            pytest.approx(1.0, rel=1e-12)
        assert plr_score(ScoreRecord(s=1.0, k=(1.0,)), models) == \
            pytest.approx(np.e, rel=1e-12)

    def test_log_plr_additive_over_kin_terms(self):
        models = self.reference_models()
        rec = ScoreRecord(s=0.7, k=(0.2, -0.4, 1.1))
        total = log_plr_score(rec, models)
        face = log_plr_score(ScoreRecord(s=0.7, k=()), models)
        parts = [log_plr_score(ScoreRecord(s=0.7, k=(v,)), models) - face
                 for v in rec.k]
        assert abs(total - (face + sum(parts))) < 1e-12

    def test_always_positive_with_floor(self):
        models = self.reference_models()
        diag = {}
        score = plr_score(ScoreRecord(s=-60.0, k=(55.0,)), models, diag)
        assert score > 0.0
        assert diag.get("floor_hits", 0) >= 1

    def test_fit_plr_models_separates_classes(self):
        records = synth_score_records(0, 300, 300, face_shift=2.0,
                                      kin_shift=2.0)
        models = fit_plr_models(records, n_components=2, seed=1)
        assert models.s_genuine.means.mean() > models.s_impostor.means.mean()
        assert models.k_kin.means.mean() > models.k_nonkin.means.mean()


class TestSvm:
    def test_separable_scores_reach_perfect_accuracy(self):
        stream = RngStream(seed=10)
        records = []
        for _ in range(40):
            records.append(ScoreRecord(s=2.0 + stream.uniform01(1)[0],
                                       k=(2.0 + stream.uniform01(1)[0],),
                                       label=1))
            records.append(ScoreRecord(s=-2.0 - stream.uniform01(1)[0],
                                       k=(-2.0 - stream.uniform01(1)[0],),
                                       label=0))
        model = svm_fit(records)
        assert not model.degenerate
        preds = [svm_decision(model, r) >= 0 for r in records]
        truth = [r.label == 1 for r in records]
        assert preds == truth

    def test_identical_features_flagged_degenerate(self):
        records = [ScoreRecord(s=0.5, k=(0.5,), label=i % 2) for i in range(10)]
        model = svm_fit(records)
        assert model.degenerate
        assert svm_decision(model, records[0]) == float(model.majority)

    def test_single_class_rejected(self):
        records = [ScoreRecord(s=0.5, k=(), label=1) for _ in range(5)]
        with pytest.raises(ValueError):
            svm_fit(records)

    def test_feature_vector_shapes(self):
        assert svm_features(ScoreRecord(s=0.5, k=())).shape == (1,)
        assert svm_features(ScoreRecord(s=0.5, k=(0.1,))).shape == (2,)
        feats = svm_features(ScoreRecord(s=0.5, k=(0.1, 0.9, 0.4)))
        assert feats.shape == (3,)
        assert feats[1] == pytest.approx(np.mean([0.1, 0.9, 0.4]))
        assert feats[2] == 0.9

    def test_common_scaling_preserves_predictions(self):
        records = synth_score_records(11, 80, 80, face_shift=1.0, kin_shift=1.0)
        scaled = [ScoreRecord(s=2 * r.s, k=tuple(2 * v for v in r.k),
                              label=r.label) for r in records]
        m1 = svm_fit(records)
        m2 = svm_fit(scaled)
        p1 = [svm_decision(m1, r) >= 0 for r in records]
        p2 = [svm_decision(m2, r) >= 0 for r in scaled]
        assert p1 == p2


class TestBoostDecision:
    def fitted(self, seed=20):
        records = synth_score_records(seed, 200, 200, face_shift=1.2,
                                      kin_shift=1.5)
        return fit_fusion(records, n_components=2, seed=seed)

    def test_extreme_thresholds(self):
        models = self.fitted()
        rec = ScoreRecord(s=0.2, k=(0.4,), label=1)
        accept, _, _ = boost_decision(rec, "plr", -np.inf, models)
        assert accept
        accept, _, _ = boost_decision(rec, "plr", np.inf, models)
        assert not accept

    def test_returns_raw_and_fused(self):
        models = self.fitted()
        rec = ScoreRecord(s=0.3, k=(0.1,), label=0)
        _, fused, raw = boost_decision(rec, "svm", 0.0, models)
        assert raw == pytest.approx(0.3)
        assert np.isfinite(fused)

    def test_unknown_method_rejected(self):
        models = self.fitted()
        with pytest.raises(ValueError):
            boost_decision(ScoreRecord(s=0.1), "mystery", 0.0, models)

    def test_fusion_improves_tpr_at_low_fpr(self):
        train = synth_score_records(30, 400, 400, face_shift=1.2, kin_shift=1.8)
        test = synth_score_records(31, 400, 400, face_shift=1.2, kin_shift=1.8)
        models = fit_fusion(train, n_components=2, seed=30)
        labels = [r.label for r in test]
        face = roc([r.s for r in test], labels)
        plr = roc([boost_decision(r, "plr", 0.0, models)[1] for r in test],
                  labels)
        svm = roc([boost_decision(r, "svm", 0.0, models)[1] for r in test],
                  labels)
        assert plr.tpr_at_fpr[0.01] >= face.tpr_at_fpr[0.01]
        assert svm.tpr_at_fpr[0.01] >= face.tpr_at_fpr[0.01]

    def test_roc_domination_at_sampled_fprs(self):
        train = synth_score_records(32, 500, 500, face_shift=1.0, kin_shift=2.0)
        test = synth_score_records(33, 500, 500, face_shift=1.0, kin_shift=2.0)
        models = fit_fusion(train, n_components=2, seed=32)
        labels = [r.label for r in test]
        face = roc([r.s for r in test], labels)
        for method in ("plr", "svm"):
            fused = roc([boost_decision(r, method, 0.0, models)[1]
                         for r in test], labels)
            for target in (0.001, 0.01, 0.1):
                assert fused.tpr_at_fpr[target] >= face.tpr_at_fpr[target]


def reference_plr(models, rec):
    # per-record PLR as scalar log densities, floored, summed and capped
    def floored(model, x):
        value = gmm_logpdf(model, float(x))
        return np.log(DENSITY_FLOOR) if value < np.log(DENSITY_FLOOR) else value

    total = floored(models.s_genuine, rec.s) - floored(models.s_impostor, rec.s)
    for value in rec.k:
        total += floored(models.k_kin, value) - floored(models.k_nonkin, value)
    return float(np.exp(min(total, 700.0)))


def reference_svm(model, rec):
    k = np.asarray(rec.k, dtype=np.float64)
    feats = [rec.s] + ([] if k.size == 0 else [float(k[0])] if k.size == 1
                       else [float(k.mean()), float(k.max())])
    x = (np.array(feats) - model.feat_mean) / model.feat_std
    return float(np.dot(x, model.w) + model.b)


class TestArrayScoring:
    @pytest.mark.parametrize("n_kin", [0, 1, 2, 3])
    def test_array_scores_equal_per_record_reference(self, n_kin):
        plr = fit_plr_models(synth_score_records(40, 200, 200), seed=40)
        train = synth_score_records(41, 200, 200, n_kin=n_kin)
        test = synth_score_records(42, 1500, 1500, n_kin=n_kin)
        svm = svm_fit(train)
        s, k = score_arrays(test)
        assert s.shape == (3000,) and k.shape == (3000, n_kin)
        assert np.array_equal(plr_scores(plr, s, k),
                              [reference_plr(plr, r) for r in test])
        assert np.array_equal(svm_decisions(svm, s, k),
                              [reference_svm(svm, r) for r in test])

    def test_floor_hits_counted_per_value(self):
        models = TestPlr().reference_models()
        records = [ScoreRecord(s=-60.0, k=(55.0,)), ScoreRecord(s=0.1, k=(0.2,)),
                   ScoreRecord(s=40.0, k=(-50.0,))]
        per_record = {}
        for rec in records:
            log_plr_score(rec, models, per_record)
        batched = {}
        log_plr_scores(models, *score_arrays(records), batched)
        assert batched == per_record
        assert batched["floor_hits"] >= 2

    def test_ragged_kin_scores_rejected(self):
        records = [ScoreRecord(s=0.1, k=(0.2,), label=1),
                   ScoreRecord(s=0.3, k=(0.4, 0.5), label=0)]
        with pytest.raises(ValueError):
            score_arrays(records)
        with pytest.raises(ValueError):
            svm_fit(records)

    def test_plr_pools_samples_in_record_order(self):
        # kin labels that disagree with the face label pool by kin label
        stream = RngStream(seed=43)
        records = [ScoreRecord(s=float(v[0]), k=(float(v[1]), float(v[2])),
                               label=i % 2,
                               kin_labels=(i % 3 == 0, (i + 1) % 2))
                   for i, v in enumerate(stream.gaussian(90).reshape(30, 3))]
        models = fit_plr_models(records, n_components=2, seed=44)
        kin = [v for r in records for v, is_kin in zip(r.k, r.kin_labels)
               if is_kin]
        nonkin = [v for r in records for v, is_kin in zip(r.k, r.kin_labels)
                  if not is_kin]
        for fit, samples, seed in ((models.s_genuine,
                                    [r.s for r in records if r.label == 1], 44),
                                   (models.k_kin, kin, 46),
                                   (models.k_nonkin, nonkin, 47)):
            want = fit_gmm(samples, 2, seed=seed)
            assert np.array_equal(fit.means, want.means)
            assert np.array_equal(fit.variances, want.variances)

    def test_fit_fusion_leaves_unnamed_routes_unfitted(self):
        records = synth_score_records(45, 100, 100)
        models = fit_fusion(records, methods=("svm",))
        assert models.plr is None
        assert models.svm is not None
        rec = records[0]
        assert boost_decision(rec, "svm", 0.0, models)[1] == \
            svm_decision(models.svm, rec)
        with pytest.raises(ModelStateError):
            boost_decision(rec, "plr", 0.0, models)
