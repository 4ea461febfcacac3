"""Score fusion: kin scores as soft-biometric context for face verification.

Class-conditional score densities are one-dimensional Gaussian mixtures fit
by EM. Fused decisions come either from the product of likelihood ratios
(face genuine/impostor ratio times one kin/non-kin ratio per kin score) or
from a linear max-margin classifier on a fixed-length score vector.

Trials travel as one array bundle, ``ScoreSet``: fitting reads it, and
scoring takes its face-score vector and kin-score matrix (``fused_scores``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModelStateError, RngStream

DENSITY_FLOOR = 1e-300
_LOG_FLOOR = np.log(DENSITY_FLOOR)
VAR_FLOOR = 1e-6
SVM_REG, SVM_EPOCHS, SVM_LEARNING_RATE = 1e-3, 2000, 0.1


@dataclass
class ScoreSet:
    """N trials as arrays: face scores s (N,), kin scores k (N, n_kin).

    label: 1 = genuine comparison, 0 = impostor, shape (N,). kin_label: one
    ground truth per kin score (True = kin), shape (N, n_kin); it defaults
    to each row's label. Shapes, labels and finite scores are checked
    (ValueError).
    """

    s: np.ndarray
    k: np.ndarray
    label: np.ndarray
    kin_label: np.ndarray = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        self.k = np.asarray(self.k, dtype=np.float64)
        self.label = np.asarray(self.label)
        if self.kin_label is None and self.label.ndim == 1 and self.k.ndim == 2:
            self.kin_label = np.repeat(self.label[:, None] == 1,
                                       self.k.shape[1], axis=1)
        kin = np.asarray(self.kin_label)
        if (self.s.ndim != 1 or self.k.ndim != 2
                or self.k.shape[0] != self.s.size
                or self.label.shape != self.s.shape
                or kin.shape != self.k.shape):
            raise ValueError(
                f"need s (N,), k (N, n_kin), label (N,), kin_label (N, n_kin); "
                f"got {self.s.shape}, {self.k.shape}, {self.label.shape}, "
                f"{kin.shape}")
        if not (np.isin(self.label, (0, 1)).all()
                and np.isin(kin, (0, 1)).all()):
            raise ValueError("labels and kin labels must be 0 or 1")
        if not (np.isfinite(self.s).all() and np.isfinite(self.k).all()):
            raise ValueError("face and kin scores must be finite")
        self.kin_label = kin.astype(bool)


@dataclass
class GaussianMixture:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    # fit results, not saved with the model (converged: EM stopped on tol)
    loglik_history: list[float] = field(default_factory=list,
                                        metadata={"saved": False})
    converged: bool = field(default=False, metadata={"saved": False})

    @property
    def n_components(self):
        return len(self.weights)

    @property
    def n_iter(self):
        return len(self.loglik_history)

    def validate(self):
        """Check component arrays and ranges; raises ValueError. Weights
        must sum to 1 within 1e-9: fitted ones stray by about 1e-15."""
        if not (self.weights.ndim == 1 and self.weights.size and
                self.weights.shape == self.means.shape == self.variances.shape):
            raise ValueError("mixture needs equal-length 1-D component arrays")
        if not all(np.isfinite(a).all()
                   for a in (self.weights, self.means, self.variances)):
            raise ValueError("mixture weights, means and variances must be finite")
        if (self.variances <= 0).any() or (self.weights < 0).any():
            raise ValueError("mixture variances must be > 0 and weights >= 0")
        if not abs(self.weights.sum() - 1.0) <= 1e-9:
            raise ValueError(f"mixture weights sum to {self.weights.sum()}, not 1")


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


def check_mixture_size(k, n):
    """Raise ValueError unless a K-mixture can be fit to n samples: K >= 1, n >= 2K."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"need K >= 1 and 2K samples, got K={k} and {n} samples")


def fit_gmm(samples, n_components, seed, max_iter=500, tol=1e-5):
    """EM fit of a 1-D Gaussian mixture; deterministic given seed.

    Means start at distinct random samples, variances at the sample
    variance. Stops at the first iteration whose total log-likelihood moves
    by less than tol per sample (|LL_t - LL_{t-1}| < tol * N), or after
    max_iter iterations (``converged`` says which); variances floored at
    1e-6. Samples must be finite (ValueError).
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    check_mixture_size(n_components, x.size)
    if not np.isfinite(x).all():
        raise ValueError("mixture samples must be finite")
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
        if len(history) > 1 and abs(history[-1] - history[-2]) < tol * x.size:
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


def fit_plr_models(scores, n_components=2, seed=0):
    """Fit the four conditionals of a ScoreSet, kin scores pooled by kin label."""
    s, k, label, kin = scores.s, scores.k, scores.label, scores.kin_label
    return PlrModels(
        s_genuine=fit_gmm(s[label == 1], n_components, seed),
        s_impostor=fit_gmm(s[label == 0], n_components, seed + 1),
        k_kin=fit_gmm(k[kin], n_components, seed + 2),
        k_nonkin=fit_gmm(k[~kin], n_components, seed + 3),
    )


def log_plr_scores(models, s, k):
    """log PLR per row: face log-ratio plus one kin log-ratio per k column.

    Densities are floored at 1e-300 so the ratio never divides by zero.
    """
    def floored(model, x):
        return np.maximum(gmm_logpdf(model, x), _LOG_FLOOR)

    total = floored(models.s_genuine, s) - floored(models.s_impostor, s)
    for column in k.T:
        total = total + (floored(models.k_kin, column)
                         - floored(models.k_nonkin, column))
    return total


def plr_scores(models, s, k):
    """Product of likelihood ratios per row, > 0 and capped to stay finite."""
    return np.exp(np.minimum(log_plr_scores(models, s, k), 700.0))


def svm_feature_rows(s, k):
    """Fixed-length score vectors: [s], [s, k], or [s, mean(k), max(k)]."""
    if k.shape[1] <= 1:
        return np.column_stack([s, k])
    return np.column_stack([s, k.mean(axis=1), k.max(axis=1)])


@dataclass
class SvmModel:
    w: np.ndarray
    b: float
    feat_mean: np.ndarray
    feat_std: np.ndarray
    degenerate: bool = False
    majority: int = 1
    margin: float = 0.0

    def validate(self):
        """Check array shapes, that b and margin are finite, feat_std > 0
        and majority is -1 or 1; raises ValueError."""
        if self.w.ndim != 1 or not (
                self.w.shape == self.feat_mean.shape == self.feat_std.shape):
            raise ValueError("svm w, feat_mean and feat_std differ in shape")
        if not (math.isfinite(self.b) and math.isfinite(self.margin)):
            raise ValueError("svm b and margin must be finite")
        if not (self.feat_std > 0).all():
            raise ValueError("svm feat_std must be > 0")
        if self.majority not in (-1, 1):
            raise ValueError(f"svm majority must be -1 or 1, got {self.majority}")


def svm_fit(scores):
    """Deterministic hinge-loss subgradient training on score vectors.

    Runs SVM_EPOCHS full-batch steps of size SVM_LEARNING_RATE / (1 + 0.01 t)
    with L2 weight SVM_REG. Features are z-scored internally, so rescaling
    every input by a common positive factor reproduces the identical
    classifier. All-identical feature rows yield a degenerate majority-class
    model (flagged), not an error; single-class labels raise.
    """
    feats = svm_feature_rows(scores.s, scores.k)
    y = np.where(scores.label == 1, 1.0, -1.0)
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
    for t in range(1, SVM_EPOCHS + 1):
        lr = SVM_LEARNING_RATE / (1.0 + 0.01 * t)
        margins = y * (x @ w + b)
        viol = margins < 1.0
        gw = SVM_REG * w - (y[viol, None] * x[viol]).sum(axis=0) / y.size
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


@dataclass
class FusionModel:
    plr: PlrModels = None
    svm: SvmModel = None


def fit_fusion(scores, n_components=2, seed=0, methods=("plr", "svm")):
    """Fit the routes in methods on the same ScoreSet; the others stay None."""
    return FusionModel(
        plr=(fit_plr_models(scores, n_components, seed)
             if "plr" in methods else None),
        svm=svm_fit(scores) if "svm" in methods else None)


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


def boost_decision(models, method, threshold, s, k):
    """Fuse every row and compare to the threshold: (accept, fused)."""
    fused = fused_scores(models, method, s, k)
    return fused >= threshold, fused


def synth_scores(seed, n_genuine, n_impostor, face_shift=1.5, kin_shift=1.5,
                 n_kin=1):
    """Synthetic ScoreSet with controllable class separation.

    Genuine trials (the first n_genuine rows) draw the face score from
    N(face_shift, 1) and their n_kin kin scores from N(kin_shift, 1);
    impostor trials draw both from N(0, 1).
    """
    stream = RngStream(seed=seed)
    s, k, label = [], [], []
    for lab, count in ((1, n_genuine), (0, n_impostor)):
        k_shift = kin_shift if lab == 1 else 0.0
        s.append(stream.gaussian(count, mu=face_shift if lab == 1 else 0.0))
        k.append(stream.gaussian(count * n_kin, mu=k_shift).reshape(count, n_kin)
                 if n_kin else np.zeros((count, 0)))
        label.append(np.full(count, lab))
    return ScoreSet(np.concatenate(s), np.concatenate(k), np.concatenate(label))
