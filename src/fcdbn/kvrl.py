"""Two-stage hierarchical kin representation and pair scoring.

From one aligned 64x64 face we cut three 32x32 crops: the whole face, the
eye+nose band (T), and the face with that band blanked out (not-T). Each
crop gets its own pretrained stack; their codes are concatenated and fused
by a second-stage stack, and a small classifier scores pairs of fused codes
as kin / non-kin. Scoring is symmetrized so argument order never matters.

Every image-to-code step goes through ``encode_images`` (regions cut with
the model's own geometry and extras; each distinct image encoded once),
every pair feature through ``pair_features`` and every pair score through
``score_pairs``; training, ``kin_score`` and the CLI are callers of these
three. Labeled code pairs become a trained classifier only in
``train_pair_classifier``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RngStream
from .deepnet import (
    DbnStack,
    FcOptions,
    bake_input_scaler,
    encode,
    greedy_pretrain,
    mlp_init,
    mlp_predict,
    mlp_train,
)


class ModelStateError(RuntimeError):
    """Raised when a model is used before the needed parts are trained."""


DEFAULT_REGIONS = ("face", "t_region", "not_t")
EXTRA_REGIONS = ("binocular", "chin")
_STD_FLOOR = 1e-8


@dataclass
class RegionFractions:
    """Fractional rectangles defining the T mask and the extra crops."""

    eye_rows: tuple = (0.25, 0.45)
    nose_rows: tuple = (0.25, 0.75)
    nose_cols: tuple = (0.35, 0.65)
    chin_rows: tuple = (0.65, 1.0)


@dataclass
class RegionSet:
    """Standardized 32x32 crops derived from one aligned face."""

    face: np.ndarray
    t_region: np.ndarray
    not_t: np.ndarray
    extras: dict = field(default_factory=dict)

    def get(self, name):
        if name in DEFAULT_REGIONS:
            return getattr(self, name)
        if name in self.extras:
            return self.extras[name]
        raise KeyError(f"no region named {name!r}")


def resize_bilinear(image, out_rows, out_cols):
    """Bilinear resample; exact copy when dims already match."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if (h, w) == (out_rows, out_cols):
        return image.copy()
    r_src = (np.arange(out_rows) + 0.5) * (h / out_rows) - 0.5
    c_src = (np.arange(out_cols) + 0.5) * (w / out_cols) - 0.5
    r_src = np.clip(r_src, 0, h - 1)
    c_src = np.clip(c_src, 0, w - 1)
    r0 = np.floor(r_src).astype(int)
    c0 = np.floor(c_src).astype(int)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (r_src - r0)[:, None]
    fc = (c_src - c0)[None, :]
    top = image[np.ix_(r0, c0)] * (1 - fc) + image[np.ix_(r0, c1)] * fc
    bot = image[np.ix_(r1, c0)] * (1 - fc) + image[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


def standardize(region):
    """Zero mean, unit variance; constant inputs map to all zeros."""
    region = np.asarray(region, dtype=np.float64)
    std = region.std()
    if std < _STD_FLOOR:
        return np.zeros_like(region)
    return (region - region.mean()) / std


def prepare_region(image, size=32):
    """Resize to size x size then standardize; idempotent at target size."""
    return standardize(resize_bilinear(image, size, size))


def _span(frac, n):
    lo = int(round(frac[0] * n))
    hi = int(round(frac[1] * n))
    return max(lo, 0), min(max(hi, lo + 1), n)


def t_mask(shape, fractions):
    """Boolean union of the eye strip and the nose column."""
    h, w = shape
    mask = np.zeros((h, w), dtype=bool)
    er0, er1 = _span(fractions.eye_rows, h)
    mask[er0:er1, :] = True
    nr0, nr1 = _span(fractions.nose_rows, h)
    nc0, nc1 = _span(fractions.nose_cols, w)
    mask[nr0:nr1, nc0:nc1] = True
    return mask


def extract_regions(aligned_face, fractions=None, size=32, extras=()):
    """Cut, mask, resize, and standardize the three default regions.

    Input must be an aligned 64x64 grayscale crop. The T crop keeps only
    mask pixels (everything else in its bounding box is set to the image
    mean); not-T blanks the mask with the image mean. ``extras`` may name
    "binocular" and/or "chin" to additionally fill RegionSet.extras.
    """
    img = np.asarray(aligned_face, dtype=np.float64)
    if img.shape != (64, 64):
        raise ValueError(f"expected a 64x64 aligned crop, got {img.shape}")
    fractions = fractions or RegionFractions()
    mean = img.mean()
    mask = t_mask(img.shape, fractions)

    face = prepare_region(img, size)

    t_img = np.where(mask, img, mean)
    rows = np.where(mask.any(axis=1))[0]
    cols = np.where(mask.any(axis=0))[0]
    t_crop = t_img[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    t_region = prepare_region(t_crop, size)

    not_t = prepare_region(np.where(mask, mean, img), size)

    extra_rows = {"binocular": fractions.eye_rows, "chin": fractions.chin_rows}
    extra_map = {}
    for name in extras:
        if name not in extra_rows:
            raise ValueError(f"unknown extra region {name!r}")
        r0, r1 = _span(extra_rows[name], img.shape[0])
        extra_map[name] = prepare_region(img[r0:r1, :], size)
    return RegionSet(face=face, t_region=t_region, not_t=not_t,
                     extras=extra_map)


@dataclass
class KvrlModel:
    """Per-region stacks, fusion stack, and the pair classifier."""

    stage1: dict
    stage2: DbnStack
    classifier: object = None
    regions: tuple = DEFAULT_REGIONS
    fractions: RegionFractions = field(default_factory=RegionFractions)
    region_size: int = 32

    def validate(self):
        out_widths = {name: s.layer_dims[-1] for name, s in self.stage1.items()}
        total = sum(out_widths[name] for name in self.regions)
        if self.stage2.layer_dims[0] != total:
            raise ValueError(
                f"stage-2 input {self.stage2.layer_dims[0]} != concatenated "
                f"stage-1 width {total}"
            )
        if self.classifier is not None:
            want = 2 * self.stage2.layer_dims[-1]
            got = self.classifier.weights[0].shape[0]
            if got != want:
                raise ValueError(f"classifier input {got} != pair width {want}")


def encode_face(model, regions):
    """Stage-1 encode each region, concatenate, stage-2 encode. Pure."""
    parts = []
    for name in model.regions:
        crop = regions.get(name)
        parts.append(encode(model.stage1[name], crop.ravel()))
    return encode(model.stage2, np.concatenate(parts))


def _extras(regions):
    """The extra crops (beyond the default three) that ``regions`` names."""
    return tuple(name for name in regions if name in EXTRA_REGIONS)


def encode_images(model, images):
    """Codes for aligned 64x64 faces, one row per image: shape (N, d).

    Regions are cut with the model's own fractions, size and extras. This
    is where each distinct image (same dtype, shape and bytes) is encoded
    once; repeats get a copy of its row, in input order. Each row is
    ``encode_face`` of one image; batching the stacks through one GEMM
    changes the rounding of codes and trained weights, so it is left to a
    change that owns that drift.
    """
    extras = _extras(model.regions)
    index, distinct, rows = {}, [], []
    for img in images:
        img = np.asarray(img)
        key = (img.dtype.str, img.shape, img.tobytes())
        if key not in index:
            index[key] = len(distinct)
            distinct.append(encode_face(model, extract_regions(
                img, model.fractions, model.region_size, extras=extras)))
        rows.append(index[key])
    return np.stack(distinct)[rows]


def pair_features(codes_a, codes_b):
    """Classifier rows a||b and b||a for each pair: shape (2N, 2d).

    Rows are interleaved per pair (pair i gives rows 2i and 2i + 1), so the
    classifier sees every labeled pair in both orders.
    """
    codes_a = np.asarray(codes_a, dtype=np.float64)
    codes_b = np.asarray(codes_b, dtype=np.float64)
    if codes_a.ndim != 2 or codes_a.shape != codes_b.shape:
        raise ValueError(f"pair halves must be equal-shape (N, d) arrays, "
                         f"got {codes_a.shape} and {codes_b.shape}")
    ab = np.hstack([codes_a, codes_b])
    ba = np.hstack([codes_b, codes_a])
    return np.stack([ab, ba], axis=1).reshape(-1, ab.shape[1])


def score_pairs(classifier, codes_a, codes_b):
    """Symmetrized kin probability per pair: (p(a||b) + p(b||a)) / 2, (N,)."""
    feats = pair_features(codes_a, codes_b)
    return (mlp_predict(classifier, feats[0::2])
            + mlp_predict(classifier, feats[1::2])) / 2.0


def kin_score(model, a, b):
    """Symmetrized kin probability for two RegionSets, in [0, 1]."""
    if model.classifier is None:
        raise ModelStateError("kin_score needs a trained classifier")
    ea = encode_face(model, a)
    eb = encode_face(model, b)
    return float(score_pairs(model.classifier, ea[None], eb[None])[0])


def pretrain_stages(pretrain_corpus, cfg):
    """Unsupervised two-stage pretraining; returns a classifier-less model.

    ``pretrain_corpus``: list of aligned 64x64 grayscale images. Stage 1
    trains one stack per configured region; stage 2 fuses the concatenated
    stage-1 codes with a contractive (unfiltered) stack.
    """
    if len(pretrain_corpus) == 0:
        raise ValueError("empty pretraining corpus")
    cfg.validate()
    fractions = cfg.region_fractions()
    size = cfg.region_size
    corpus_regions = [extract_regions(img, fractions, size,
                                      extras=_extras(cfg.regions))
                      for img in pretrain_corpus]

    fc = FcOptions(n_filters=cfg.n_filters, filter_size=cfg.filter_size,
                   alpha=cfg.alpha, beta=cfg.beta,
                   first_layer_gaussian=cfg.first_layer_gaussian,
                   image_shape=(size, size))
    stage1, stage1_codes = {}, []
    for idx, name in enumerate(cfg.regions):
        x = np.stack([rs.get(name).ravel() for rs in corpus_regions])
        rbm_cfg = cfg.rbm_config(seed_offset=idx)
        stage1[name], codes = greedy_pretrain(list(cfg.stage1_dims), x,
                                              rbm_cfg, fc)
        stage1_codes.append(codes)

    stage2_fc = FcOptions(alpha=cfg.alpha)  # fusion stack: contractive only
    stage2, _ = greedy_pretrain(list(cfg.stage2_dims), np.hstack(stage1_codes),
                                cfg.rbm_config(seed_offset=100), stage2_fc)

    model = KvrlModel(stage1=stage1, stage2=stage2, classifier=None,
                      regions=tuple(cfg.regions), fractions=fractions,
                      region_size=size)
    model.validate()
    return model


def train_kvrl(pretrain_corpus, kin_pairs, cfg):
    """Unsupervised two-stage pretraining, then supervised pair training.

    ``pretrain_corpus``: list of aligned 64x64 grayscale images (assumed
    subject-disjoint from the labeled pairs). ``kin_pairs``: list of
    (image_a, image_b, label) with label 1 = kin. ``cfg`` is a RunConfig.
    The classifier sees each labeled pair in both orders. Deterministic
    given cfg.seed.
    """
    if len(kin_pairs) == 0:
        raise ValueError("empty kin pair list")
    model = pretrain_stages(pretrain_corpus, cfg)

    n = len(kin_pairs)
    codes = encode_images(model, [a for a, _, _ in kin_pairs]
                          + [b for _, b, _ in kin_pairs])
    if cfg.classifier_epochs > 0:
        classifier = train_pair_classifier(
            codes[:n], codes[n:], [label for _, _, label in kin_pairs], cfg)
    else:
        arch = [2 * codes.shape[1]] + list(cfg.classifier_hidden) + [1]
        classifier = mlp_init(arch, RngStream(seed=cfg.seed).child(7),
                              dropout_input=cfg.dropout_input,
                              dropout_hidden=cfg.dropout_hidden)
    model.classifier = classifier
    model.validate()
    return model


def train_pair_classifier(codes_a, codes_b, labels, cfg):
    """Train the kin head on labeled code pairs (label 1 = kin).

    This is the one place where labeled pairs become a trained head: each
    pair becomes the rows a||b and b||a (``pair_features``) with its label
    twice, and the architecture is [2d] + cfg.classifier_hidden + [1].
    Stage-2 codes live in a narrow band of (0, 1), so the head trains on
    standardized features; baking the affine transform into the first
    layer keeps the stored model a plain feed-forward net on raw codes.
    """
    feats = pair_features(codes_a, codes_b)
    labels = np.repeat(np.asarray(labels, dtype=np.float64), 2)
    arch = [feats.shape[1]] + list(cfg.classifier_hidden) + [1]
    mean = feats.mean(axis=0)
    std = np.maximum(feats.std(axis=0), 1e-8)
    classifier, _ = mlp_train((feats - mean) / std, labels, arch,
                              cfg.mlp_config(),
                              dropout_input=cfg.dropout_input,
                              dropout_hidden=cfg.dropout_hidden)
    return bake_input_scaler(classifier, mean, std)
