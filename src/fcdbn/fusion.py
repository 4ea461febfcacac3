"""Score fusion: kin scores as soft-biometric context for face verification.

Class-conditional score densities are one-dimensional Gaussian mixtures fit
by EM. Fused decisions come either from the product of likelihood ratios
(face genuine/impostor ratio times one kin/non-kin ratio per kin score) or
from a linear max-margin classifier on a fixed-length score vector.

Scoring runs on arrays (``score_arrays``, then ``fused_scores``); the
per-record functions are one-row callers of the array code.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RngStream
from .kvrl import ModelStateError

DENSITY_FLOOR = 1e-300
_LOG_FLOOR = np.log(DENSITY_FLOOR)
VAR_FLOOR = 1e-6


@dataclass
class ScoreRecord:
    """One probe/gallery trial: face score s plus kin scores k_1..k_N.

    label: 1 = genuine comparison, 0 = impostor. kin_labels: one ground
    truth per kin score (1 = true kin).
    """

    s: float
    k: tuple = ()
    label: int = 0
    kin_labels: tuple = ()


@dataclass
class GaussianMixture:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    loglik_history: list = field(default_factory=list)
    converged: bool = False  # EM stopped on tol, not on max_iter

    @property
    def n_components(self):
        return len(self.weights)

    @property
    def n_iter(self):
        return len(self.loglik_history)


def _log_joint(x, weights, means, variances):
    """Per-component log(weight * density) at each x, and its log-sum-exp."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    comp = (-0.5 * np.log(2.0 * np.pi * variances)
            - (x - means) ** 2 / (2.0 * variances)) + np.log(weights)
    top = comp.max(axis=1, keepdims=True)
    return comp, top[:, 0] + np.log(np.sum(np.exp(comp - top), axis=1))


def gmm_logpdf(model, x):
    """log density under the mixture, stable for far-out points."""
    out = _log_joint(x, model.weights, model.means, model.variances)[1]
    return out if np.ndim(x) else float(out[0])


def gmm_pdf(model, x):
    return np.exp(gmm_logpdf(model, x))


def fit_gmm(samples, n_components, seed, max_iter=500, tol=1e-8):
    """EM fit of a 1-D Gaussian mixture; deterministic given seed.

    Means start at distinct random samples, variances at the sample
    variance. Iterates until the log-likelihood improves by less than tol
    or max_iter is hit (``converged`` says which); variances floored at 1e-6.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 2 * n_components:
        raise ValueError(
            f"need at least {2 * n_components} samples for K={n_components}, "
            f"got {x.size}"
        )
    stream = RngStream(seed=seed)
    order = stream.permutation(x.size)
    means = x[order[:n_components]].astype(np.float64).copy()
    var0 = max(float(x.var()), VAR_FLOOR)
    variances = np.full(n_components, var0)
    weights = np.full(n_components, 1.0 / n_components)
    history = []
    converged = False
    for _ in range(max_iter):
        comp, norm = _log_joint(x, weights, means, variances)
        loglik = float(norm.sum())
        resp = np.exp(comp - norm[:, None])
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / x.size
        means = (resp * x[:, None]).sum(axis=0) / nk
        variances = (resp * (x[:, None] - means) ** 2).sum(axis=0) / nk
        variances = np.maximum(variances, VAR_FLOOR)
        history.append(loglik)
        if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
            converged = True
            break
    return GaussianMixture(weights=weights, means=means, variances=variances,
                           loglik_history=history, converged=converged)


@dataclass
class PlrModels:
    """The four fitted conditionals used by the likelihood-ratio score."""

    s_genuine: GaussianMixture
    s_impostor: GaussianMixture
    k_kin: GaussianMixture
    k_nonkin: GaussianMixture


def score_arrays(records):
    """Face scores (N,) and kin scores (N, n_kin) of equal-length records."""
    counts = {len(r.k) for r in records}
    if len(counts) > 1:
        raise ValueError(f"records mix kin-score counts {sorted(counts)}")
    s = np.array([r.s for r in records], dtype=np.float64)
    k = np.array([r.k for r in records], dtype=np.float64)
    return s, k.reshape(s.size, max(counts, default=0))


def fit_plr_models(records, n_components=2, seed=0):
    s, k = score_arrays(records)
    label = np.array([r.label for r in records])
    kin = np.array([r.kin_labels or (r.label,) * len(r.k) for r in records],
                   dtype=bool).reshape(k.shape)
    return PlrModels(
        s_genuine=fit_gmm(s[label == 1], n_components, seed),
        s_impostor=fit_gmm(s[label == 0], n_components, seed + 1),
        k_kin=fit_gmm(k[kin], n_components, seed + 2),
        k_nonkin=fit_gmm(k[~kin], n_components, seed + 3),
    )


def log_plr_scores(models, s, k, diag=None):
    """log PLR per row: face log-ratio plus one kin log-ratio per k column.

    Densities are floored at 1e-300 so the ratio never divides by zero;
    floor hits are counted in ``diag`` when a dict is passed.
    """
    def floored(model, x):
        log = gmm_logpdf(model, x)
        hits = log < _LOG_FLOOR
        if diag is not None and hits.any():
            diag["floor_hits"] = diag.get("floor_hits", 0) + int(hits.sum())
        return np.where(hits, _LOG_FLOOR, log)

    total = floored(models.s_genuine, s) - floored(models.s_impostor, s)
    for column in k.T:
        total = total + (floored(models.k_kin, column)
                         - floored(models.k_nonkin, column))
    return total


def plr_scores(models, s, k, diag=None):
    """Product of likelihood ratios per row, > 0 and capped to stay finite."""
    return np.exp(np.minimum(log_plr_scores(models, s, k, diag), 700.0))


def log_plr_score(rec, models, diag=None):
    """log_plr_scores of one record."""
    return float(log_plr_scores(models, *score_arrays([rec]), diag)[0])


def plr_score(rec, models, diag=None):
    """plr_scores of one record."""
    return float(plr_scores(models, *score_arrays([rec]), diag)[0])


def svm_feature_rows(s, k):
    """Fixed-length score vectors: [s], [s, k], or [s, mean(k), max(k)]."""
    if k.shape[1] <= 1:
        return np.column_stack([s, k])
    return np.column_stack([s, k.mean(axis=1), k.max(axis=1)])


def svm_features(rec):
    """svm_feature_rows of one record."""
    return svm_feature_rows(*score_arrays([rec]))[0]


@dataclass
class SvmModel:
    w: np.ndarray
    b: float
    feat_mean: np.ndarray
    feat_std: np.ndarray
    degenerate: bool = False
    majority: int = 1
    margin: float = 0.0


def svm_fit(records, reg=1e-3, epochs=2000, learning_rate=0.1):
    """Deterministic hinge-loss subgradient training on score vectors.

    Features are z-scored internally, so rescaling every input by a common
    positive factor reproduces the identical classifier. All-identical
    feature rows yield a degenerate majority-class model (flagged), not an
    error; single-class labels raise.
    """
    feats = svm_feature_rows(*score_arrays(records))
    y = np.array([1.0 if r.label == 1 else -1.0 for r in records])
    if len(np.unique(y)) < 2:
        raise ValueError("degenerate labels: both classes required")
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    majority = 1 if (y > 0).sum() * 2 >= y.size else -1
    if np.all(std < 1e-12):
        return SvmModel(w=np.zeros(feats.shape[1]), b=float(majority),
                        feat_mean=mean, feat_std=np.ones_like(std),
                        degenerate=True, majority=majority)
    std = np.where(std < 1e-12, 1.0, std)
    x = (feats - mean) / std
    w = np.zeros(x.shape[1])
    b = 0.0
    for t in range(1, epochs + 1):
        lr = learning_rate / (1.0 + 0.01 * t)
        margins = y * (x @ w + b)
        viol = margins < 1.0
        gw = reg * w - (y[viol, None] * x[viol]).sum(axis=0) / y.size
        gb = -(y[viol]).sum() / y.size
        w -= lr * gw
        b -= lr * gb
    margins = y * (x @ w + b)
    return SvmModel(w=w, b=float(b), feat_mean=mean, feat_std=std,
                    degenerate=False, majority=majority,
                    margin=float(margins.min()))


def svm_decisions(model, s, k):
    """Signed distance-like decision value per row; >= 0 means genuine."""
    if model.degenerate:
        return np.full(s.size, float(model.majority))
    x = (svm_feature_rows(s, k) - model.feat_mean) / model.feat_std
    # vecdot rounds each row like a 1-D dot; a 2-D matmul may not
    return np.vecdot(x, model.w) + model.b


def svm_decision(model, rec):
    """svm_decisions of one record."""
    return float(svm_decisions(model, *score_arrays([rec]))[0])


@dataclass
class FusionModel:
    plr: PlrModels = None
    svm: SvmModel = None


def fit_fusion(records, n_components=2, seed=0, methods=("plr", "svm")):
    """Fit the routes in methods on the same records; the others stay None."""
    return FusionModel(
        plr=(fit_plr_models(records, n_components, seed)
             if "plr" in methods else None),
        svm=svm_fit(records) if "svm" in methods else None)


def fused_scores(models, method, s, k):
    """Fused score per row; method is "plr" or "svm"."""
    if method == "plr":
        if models.plr is None:
            raise ModelStateError("plr models not fitted")
        return plr_scores(models.plr, s, k)
    if method == "svm":
        if models.svm is None:
            raise ModelStateError("svm model not fitted")
        return svm_decisions(models.svm, s, k)
    raise ValueError(f"unknown fusion method {method!r}")


def boost_decision(rec, method, threshold, models):
    """Fuse one record and compare to the threshold.

    Returns (accept, fused_score, raw_face_score) so callers can build ROC
    curves from either score. method is "plr" or "svm".
    """
    return ((fused := float(fused_scores(
        models, method, *score_arrays([rec]))[0])) >= threshold,
        fused, float(rec.s))


def synth_score_records(seed, n_genuine, n_impostor, face_shift=1.5,
                        kin_shift=1.5, n_kin=1, informative=True):
    """Synthetic trials with controllable class separation.

    Genuine trials draw the face score from N(face_shift, 1) and, when
    informative, kin scores from N(kin_shift, 1); impostor trials draw both
    from N(0, 1). With informative=False kin scores are N(0, 1) everywhere.
    """
    stream = RngStream(seed=seed)
    records = []
    for label, count in ((1, n_genuine), (0, n_impostor)):
        s_shift = face_shift if label == 1 else 0.0
        k_shift = kin_shift if (label == 1 and informative) else 0.0
        s_draws = stream.gaussian(count, mu=s_shift)
        k_draws = stream.gaussian(count * n_kin, mu=k_shift).reshape(count, n_kin) \
            if n_kin else np.zeros((count, 0))
        for i in range(count):
            records.append(ScoreRecord(
                s=float(s_draws[i]),
                k=tuple(float(v) for v in k_draws[i]),
                label=label,
                kin_labels=tuple([label] * n_kin),
            ))
    return records
