"""Perceptual-study and verification metrics plus the cross-validation
protocol.

Sensitivity index, entropies, and the two-proportion z-test operate on
pooled 2x2 stimulus-by-response counts; d' takes its normal quantile from
the standard library's ``statistics.NormalDist``, so the module needs only
numpy. ROC curves sweep every distinct score as a threshold; AUC is the
trapezoidal integral, which equals the pairwise-comparison (rank)
statistic including the half-credit for ties. Folding and negative-pair
generation follow the five-fold protocol: per relation the positive pairs
spread evenly over folds, and negative pairs never reuse an image or pair
up members of the same family.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import RngStream

TPR_AT_FPR_TARGETS = (0.001, 0.01, 0.1)
Z_CRITICAL_95 = 1.96
N_FOLDS = 5
MAX_RESTARTS = 200


class MatchingError(RuntimeError):
    """Negative-pair matching is impossible for the given pool."""


@dataclass
class ConfusionCounts:
    """2x2 nonnegative counts: stimulus (kin, non-kin) x response."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.float64)
        if c.shape != (2, 2) or np.any(c < 0) or c.sum() <= 0:
            raise ValueError("counts must be a nonnegative 2x2 with total > 0")
        self.counts = c


def _counts_array(counts):
    if isinstance(counts, ConfusionCounts):
        return counts.counts
    return ConfusionCounts(np.asarray(counts)).counts


def dprime(hit_rate, fa_rate, n_signal=None, n_noise=None):
    """Sensitivity index z(hit) - z(fa).

    Rates must lie in [0, 1]. When trial counts (each >= 1) are supplied
    each rate is clamped to [1/(2n), 1 - 1/(2n)] so empty and perfect rates
    stay finite; without counts a rate of exactly 0 or 1 is rejected.
    """
    for rate in (hit_rate, fa_rate):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate {rate} outside [0, 1]")
    for n in (n_signal, n_noise):
        if n is not None and n < 1:
            raise ValueError("trial counts must be >= 1")
    if n_signal is not None:
        hit_rate = min(max(hit_rate, 1.0 / (2 * n_signal)),
                       1.0 - 1.0 / (2 * n_signal))
    if n_noise is not None:
        fa_rate = min(max(fa_rate, 1.0 / (2 * n_noise)),
                      1.0 - 1.0 / (2 * n_noise))
    if not (0.0 < hit_rate < 1.0 and 0.0 < fa_rate < 1.0):
        raise ValueError("rates of exactly 0 or 1 need trial counts for clamping")
    z = NormalDist().inv_cdf
    return float(z(hit_rate) - z(fa_rate))


def _entropy_nats(p):
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def stimulus_entropy(counts):
    """H(S) in bits from the stimulus marginals (0 log 0 := 0)."""
    c = _counts_array(counts)
    p = c.sum(axis=1) / c.sum()
    return _entropy_nats(p) / np.log(2.0)


def information_entropy(counts):
    """Transmitted information I(S|r) = H(S) - H(S|r), in bits.

    H(S|r) = -sum_ij p(S_i, r_j) log p(S_i | r_j).
    """
    c = _counts_array(counts)
    total = c.sum()
    joint = c / total
    col = joint.sum(axis=0)
    cond_nats = 0.0
    for j in range(2):
        if col[j] <= 0:
            continue
        p_cond = joint[:, j] / col[j]
        for i in range(2):
            if joint[i, j] > 0:
                cond_nats -= joint[i, j] * np.log(p_cond[i])
    h_s = _entropy_nats(joint.sum(axis=1))
    return (h_s - cond_nats) / np.log(2.0)


def ztest_proportions(p1, n1, p2, n2):
    """Pooled two-proportion z statistic and 95% significance flag."""
    if n1 < 1 or n2 < 1:
        raise ValueError("sample sizes must be >= 1")
    for p in (p1, p2):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"proportion {p} outside [0, 1]")
    if p1 == p2:
        return 0.0, False
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = float((p1 - p2) / se)
    return z, abs(z) > Z_CRITICAL_95


@dataclass
class RocResult:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float
    tpr_at_fpr: dict


def roc(scores, labels):
    """Threshold sweep over distinct scores (higher score = more positive).

    Returns curve points starting at (0, 0), trapezoidal AUC, and the best
    TPR achieved at FPR <= each of ``TPR_AT_FPR_TARGETS``. Raises ValueError
    on a NaN or infinite score, which has no place in the ranking.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("roc needs finite scores")
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    y_sorted = pos[order].astype(np.float64)
    tp = np.cumsum(y_sorted)
    fp = np.cumsum(1.0 - y_sorted)
    distinct = np.nonzero(np.diff(s_sorted, append=-np.inf))[0]
    tpr = np.concatenate([[0.0], tp[distinct] / n_pos])
    fpr = np.concatenate([[0.0], fp[distinct] / n_neg])
    thresholds = np.concatenate([[np.inf], s_sorted[distinct]])
    auc = float(np.trapezoid(tpr, fpr))
    at = {}
    for target in TPR_AT_FPR_TARGETS:
        ok = fpr <= target
        at[target] = float(tpr[ok].max()) if ok.any() else 0.0
    return RocResult(fpr=fpr, tpr=tpr, thresholds=thresholds, auc=auc,
                     tpr_at_fpr=at)


@dataclass
class FoldPlan:
    folds: list

    def all_pairs(self):
        return [p for fold in self.folds for p in fold]


def _relation_of(pair):
    return getattr(pair, "relation", "")


def make_folds(pairs, seed):
    """Split positive pairs into ``N_FOLDS`` folds, balanced per relation.

    Per relation the (seeded-shuffled) pairs are dealt round-robin across a
    moving fold cursor, so per-relation counts across folds differ by at
    most one. Deterministic given seed.
    """
    pairs = list(pairs)
    if len(pairs) < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} positive pairs, got {len(pairs)}")
    stream = RngStream(seed=seed)
    by_relation = {}
    for idx, pair in enumerate(pairs):
        by_relation.setdefault(_relation_of(pair), []).append(idx)
    folds = [[] for _ in range(N_FOLDS)]
    cursor = 0
    for rel_idx, relation in enumerate(sorted(by_relation)):
        idxs = by_relation[relation]
        perm = stream.child(rel_idx).permutation(len(idxs))
        for j in perm:
            folds[cursor % N_FOLDS].append(pairs[idxs[j]])
            cursor += 1
    return FoldPlan(folds=folds)


def _families(pairs):
    """Union-find over subjects connected by positive pairs."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for p in pairs:
        union(p.subject_a, p.subject_b)
    return find


def gen_negatives(pairs, seed):
    """Cross-family negative pairs, one use per image, count == positives.

    Images come from the positive pairs themselves. Raises MatchingError
    with diagnostics when the pool cannot support a full matching (too few
    distinct images, or ``MAX_RESTARTS`` shuffles all fail).
    """
    pairs = list(pairs)
    n_needed = len(pairs)
    find = _families(pairs)
    pool = {}
    for p in pairs:
        pool[p.path_a] = find(p.subject_a)
        pool[p.path_b] = find(p.subject_b)
    images = sorted(pool)
    if len(images) < 2 * n_needed:
        raise MatchingError(
            f"pool of {len(images)} distinct images cannot form "
            f"{n_needed} single-use negative pairs"
        )
    stream = RngStream(seed=seed)
    for attempt in range(MAX_RESTARTS):
        perm = stream.child(attempt).permutation(len(images))
        shuffled = [images[i] for i in perm]
        used = [False] * len(shuffled)
        negatives = []
        for i, img_a in enumerate(shuffled):
            if used[i] or len(negatives) == n_needed:
                continue
            for j in range(i + 1, len(shuffled)):
                if used[j]:
                    continue
                if pool[img_a] != pool[shuffled[j]]:
                    negatives.append((img_a, shuffled[j]))
                    used[i] = used[j] = True
                    break
        if len(negatives) == n_needed:
            return negatives
    families = sorted(set(pool.values()))
    raise MatchingError(
        f"no valid matching after {MAX_RESTARTS} attempts: "
        f"{len(images)} images across {len(families)} families"
    )
