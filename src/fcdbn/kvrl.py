"""Two-stage hierarchical kin representation and pair scoring.

From one aligned face we cut three 32x32 crops: the whole face, the
eye+nose band (T), and the face with that band blanked out (not-T). Each
crop gets its own pretrained stack; their codes are concatenated and fused
by a second-stage stack, and a small classifier scores pairs of fused codes
as kin / non-kin. Scoring is symmetrized so argument order never matters.

Every crop is cut by ``cut_regions``, which works on image stacks a
fixed-size block at a time from a crop table built once per geometry;
``extract_regions`` is its one-image caller. Region geometry is checked only
in ``check_regions``, which config validation and ``KvrlModel.validate``
call. Every crop-to-code step goes through ``_encode_regions``, one
``encode`` call per stack for a whole list of faces, and a face's code does
not depend on the list it is in, bit for bit. Images become codes in
``encode_images`` (regions cut with the model's own geometry and extras;
each distinct image encoded once), every pair feature goes through
``pair_features`` and every pair score through ``score_pairs``; training,
``encode_face``, ``kin_score`` and the CLI are callers of these. Labeled code
pairs become a trained classifier only in ``train_pair_classifier``.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import astuple, dataclass, field

import numpy as np

from .core import RngStream
from .deepnet import (
    DbnStack,
    FcOptions,
    MlpModel,
    bake_input_scaler,
    encode,
    greedy_pretrain,
    mlp_init,
    mlp_predict,
    mlp_train,
)


class ModelStateError(RuntimeError):
    """Raised when a model is used before the needed parts are trained."""


FACE_SIZE = 64  # side of every aligned face, in pixels
REGION_SIZE = 32  # default side of every crop, in pixels
DEFAULT_REGIONS = ("face", "t_region", "not_t")
EXTRA_REGIONS = ("binocular", "chin")
_STD_FLOOR = 1e-8
# Images cut per block. A block's crops and temporaries bound the extra
# memory of cutting many images at once. On the kinbench eval-cli workload
# (2 vCPUs, medians of 10 runs) 4-image blocks raised peak RSS by 0.6% over
# one image at a time and 8-image blocks by 4%, while 4 still cut about
# 2x faster than one image at a time.
_BLOCK = 4
# Distinct images encoded per block in encode_images: each block runs every
# stack once over its rows, and its crops and activations bound the memory.
# encode_images on the 864 pair images of a 60-family synth set peaked at
# 5.6 MB (tracemalloc) one image at a time, 6.1 MB in blocks of 16 and
# 8.5 MB in blocks of 64.
_ENCODE_BLOCK = 16


@dataclass
class RegionFractions:
    """Fractional rectangles defining the T mask and the extra crops."""

    eye_rows: tuple[float, ...] = (0.25, 0.45)
    nose_rows: tuple[float, ...] = (0.25, 0.75)
    nose_cols: tuple[float, ...] = (0.35, 0.65)
    chin_rows: tuple[float, ...] = (0.65, 1.0)


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


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=32)
def _resize_plan(h, w, out_rows, out_cols):
    """Source indices and weights of an (h, w) -> (out_rows, out_cols)
    bilinear resample: (r0, r1, fr, 1 - fr, c0, c1, fc, 1 - fc), read-only
    and computed once per geometry."""
    r_src = (np.arange(out_rows) + 0.5) * (h / out_rows) - 0.5
    c_src = (np.arange(out_cols) + 0.5) * (w / out_cols) - 0.5
    r_src = np.clip(r_src, 0, h - 1)
    c_src = np.clip(c_src, 0, w - 1)
    r0 = np.floor(r_src).astype(int)
    c0 = np.floor(c_src).astype(int)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (r_src - r0)[None, :, None]
    fc = (c_src - c0)[None, None, :]
    return _read_only(r0, r1, fr, 1 - fr, c0, c1, fc, 1 - fc)


def resize_bilinear(stack, out_rows, out_cols):
    """Bilinear resample of each image of an (N, h, w) stack.

    Exact copy when the dims already match.
    """
    stack = np.asarray(stack, dtype=np.float64)
    h, w = stack.shape[1:]
    if (h, w) == (out_rows, out_cols):
        return stack.copy()
    r0, r1, fr, gr, c0, c1, fc, gc = _resize_plan(h, w, out_rows, out_cols)
    rows0, rows1 = stack[:, r0], stack[:, r1]
    top = rows0[:, :, c0] * gc + rows0[:, :, c1] * fc
    bot = rows1[:, :, c0] * gc + rows1[:, :, c1] * fc
    return top * gr + bot * fr


def standardize(stack):
    """Zero mean, unit variance per image of an (N, h, w) stack.

    Images whose std is below ``_STD_FLOOR`` (constant ones) become zeros.
    """
    stack = np.asarray(stack, dtype=np.float64)
    flat = stack.reshape(len(stack), -1)
    std = flat.std(axis=1)
    constant = std < _STD_FLOOR
    out = (flat - flat.mean(axis=1)[:, None]) / np.where(constant, 1.0,
                                                         std)[:, None]
    out[constant] = 0.0
    return out.reshape(stack.shape)


def _span(frac, n):
    """Pixel span [lo, hi) of a fractional range: at least one pixel."""
    lo = min(max(int(round(frac[0] * n)), 0), n - 1)
    hi = int(round(frac[1] * n))
    return lo, min(max(hi, lo + 1), n)


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


def check_regions(regions, fractions, size, widths):
    """Raise ValueError unless ``regions`` can be cut and fed to stage 1.

    This is the one region-geometry check; config validation and model
    loading both call it. ``widths`` maps each region to the input width
    of its stage-1 stack, which must be ``size ** 2``.
    """
    if not regions:
        raise ValueError("at least one region required")
    for name in regions:
        if name not in DEFAULT_REGIONS + EXTRA_REGIONS:
            raise ValueError(f"unknown region {name!r}")
    # one stage-1 stack per name: a repeated name would train two stacks
    # and keep one
    if len(set(regions)) != len(regions):
        raise ValueError(f"regions repeat a name: {list(regions)}")
    if size < 1:
        raise ValueError(f"region_size must be >= 1, got {size}")
    for frac in (fractions.eye_rows, fractions.nose_rows, fractions.nose_cols,
                 fractions.chin_rows):
        if len(frac) != 2 or not 0.0 <= frac[0] < frac[1] <= 1.0:
            raise ValueError(f"bad fractional range {frac}")
    for name, width in widths.items():
        if width != size ** 2:
            raise ValueError(f"stage-1 input width {width} of region {name!r} "
                             f"must equal region_size^2={size ** 2}")


def _crop_table(fractions, extras):
    """((name, fill, rows, cols), ...) for the default crops plus ``extras``.

    Pixels under ``fill`` (None: none) take the image mean, then the
    ``rows`` x ``cols`` window is cut. The T crop keeps only mask pixels
    inside the mask's bounding box; not-T blanks the mask. Built once per
    geometry (fractions and extras, by value); the masks are read-only.
    """
    return _cached_crop_table(tuple(map(tuple, astuple(fractions))),
                              tuple(extras))


@functools.lru_cache(maxsize=32)
def _cached_crop_table(fractions, extras):
    fractions = RegionFractions(*fractions)
    mask = t_mask((FACE_SIZE, FACE_SIZE), fractions)
    outside = ~mask
    _read_only(mask, outside)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    whole = slice(None)
    table = {"face": (None, whole, whole),
             "t_region": (outside, slice(rows[0], rows[-1] + 1),
                          slice(cols[0], cols[-1] + 1)),
             "not_t": (mask, whole, whole)}
    extra_rows = {"binocular": fractions.eye_rows, "chin": fractions.chin_rows}
    for name in extras:
        if name in extra_rows:
            table[name] = (None, slice(*_span(extra_rows[name], FACE_SIZE)), whole)
        elif name not in table:
            raise ValueError(f"unknown extra region {name!r}")
    return tuple((name, *entry) for name, entry in table.items())


def cut_regions(images, fractions=None, size=REGION_SIZE, extras=()):
    """Yield one RegionSet per aligned face, in input order.

    ``images`` is a sequence of aligned faces or one (N, FACE_SIZE, FACE_SIZE)
    array. Every crop is resized to size x size and standardized. The three
    default crops are always cut; ``extras`` may name "binocular" and/or
    "chin" to fill RegionSet.extras (default names in it are ignored, so a
    model's region list can be passed as is). The crop table is built once
    per geometry and the images are cut ``_BLOCK`` at a time, with the same
    elementwise arithmetic as one image at a time.
    """
    table = _crop_table(fractions or RegionFractions(), extras)
    extra_names = [entry[0] for entry in table[len(DEFAULT_REGIONS):]]
    for start in range(0, len(images), _BLOCK):
        block = np.asarray(images[start:start + _BLOCK], dtype=np.float64)
        if block.shape[1:] != (FACE_SIZE, FACE_SIZE):
            raise ValueError(f"expected {FACE_SIZE}x{FACE_SIZE} aligned crops, "
                             f"got {block.shape[1:]}")
        mean = block.reshape(len(block), -1).mean(axis=1)[:, None, None]
        crops = {}
        for name, fill, rows, cols in table:
            filled = block if fill is None else np.where(fill, mean, block)
            crops[name] = standardize(resize_bilinear(filled[:, rows, cols],
                                                      size, size))
        for i in range(len(block)):
            yield RegionSet(face=crops["face"][i],
                            t_region=crops["t_region"][i],
                            not_t=crops["not_t"][i],
                            extras={name: crops[name][i]
                                    for name in extra_names})


def extract_regions(aligned_face, fractions=None, size=REGION_SIZE, extras=()):
    """The RegionSet of one aligned face (``cut_regions`` of one)."""
    return next(cut_regions([aligned_face], fractions, size, extras))


@dataclass
class KvrlModel:
    """Per-region stacks, fusion stack, and the pair classifier."""

    stage1: dict[str, DbnStack]
    stage2: DbnStack
    classifier: MlpModel | None = None
    regions: tuple[str, ...] = DEFAULT_REGIONS
    fractions: RegionFractions = field(default_factory=RegionFractions)
    region_size: int = REGION_SIZE

    def validate(self):
        missing = [name for name in self.regions if name not in self.stage1]
        if missing:
            raise ValueError(f"no stage-1 stack for regions {missing}")
        size = self.region_size
        check_regions(self.regions, self.fractions, size,
                      {name: self.stage1[name].layer_dims[0]
                       for name in self.regions})
        for name in self.regions:
            first = self.stage1[name].layers[0]
            if first.n_filters and tuple(first.image_shape) != (size, size):
                raise ValueError(f"filtered first layer of region {name!r} "
                                 f"sees {tuple(first.image_shape)} images, "
                                 f"not the {size}x{size} crops")
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


def _encode_regions(model, region_sets):
    """Codes of a list of RegionSets, one row each: shape (N, d).

    Each stage-1 stack encodes its region of every set in one ``encode``
    call, and the stage-2 stack their concatenated codes in one more.
    ``encode`` takes one-row products, so a row does not depend on the
    other sets in the list, bit for bit.
    """
    parts = [encode(model.stage1[name],
                    np.stack([rs.get(name).ravel() for rs in region_sets]))
             for name in model.regions]
    return encode(model.stage2, np.hstack(parts))


def encode_face(model, regions):
    """Stage-1 encode each region, concatenate, stage-2 encode. Pure."""
    return _encode_regions(model, [regions])[0]


def encode_images(model, images):
    """Codes for aligned faces, one row per image: shape (N, d).

    Regions are cut with the model's own fractions, size and extras. This
    is where each distinct image (same dtype, shape and bytes) is encoded
    once; repeats get a copy of its row, in input order. The distinct
    images go through ``cut_regions`` in one call and are encoded
    ``_ENCODE_BLOCK`` at a time, each block one ``encode`` per stack. A
    row equals ``encode_face`` of its image bit for bit, whatever the
    block.
    """
    index, distinct, rows = {}, [], []
    for img in images:
        img = np.asarray(img)
        key = (img.dtype.str, img.shape, img.tobytes())
        if key not in index:
            index[key] = len(distinct)
            distinct.append(img)
        rows.append(index[key])
    cut = cut_regions(distinct, model.fractions, model.region_size,
                      extras=model.regions)
    codes = []
    while block := list(itertools.islice(cut, _ENCODE_BLOCK)):
        codes.append(_encode_regions(model, block))
    return np.vstack(codes)[rows]


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
    codes = _encode_regions(model, [a, b])
    return float(score_pairs(model.classifier, codes[:1], codes[1:])[0])


def pretrain_stages(pretrain_corpus, cfg):
    """Unsupervised two-stage pretraining; returns a classifier-less model.

    ``pretrain_corpus``: list of aligned grayscale faces. Stage 1
    trains one stack per configured region; stage 2 fuses the concatenated
    stage-1 codes with a contractive (unfiltered) stack.
    """
    if len(pretrain_corpus) == 0:
        raise ValueError("empty pretraining corpus")
    cfg.validate()
    fractions = cfg.region_fractions()
    size = cfg.region_size
    corpus_regions = list(cut_regions(pretrain_corpus, fractions, size,
                                      extras=cfg.regions))

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

    ``pretrain_corpus``: list of aligned grayscale faces (assumed
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
