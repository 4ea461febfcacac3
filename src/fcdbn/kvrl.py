"""Two-stage hierarchical kin representation and pair scoring.

From one aligned face we cut three 32x32 crops: the whole face, the
eye+nose band (T), and the face with that band blanked out (not-T). Each
crop gets its own pretrained stack; their codes are concatenated and fused
by a second-stage stack, and a small classifier scores pairs of fused codes
as kin / non-kin. Scoring is symmetrized so argument order never matters.

Crops travel as named stacks, a dict mapping each region name to an
(n, size, size) array: ``cut_regions`` cuts them a block of images at a
time from a crop table built once per geometry, and ``_encode_crops`` turns
them into codes with one ``encode`` call per stack. A face's code does not
depend on its block, bit for bit. Region geometry is checked only in
``check_regions``, which config validation and ``KvrlModel.validate`` call.
Images become codes in ``encode_images`` (each image object encoded
once), pairs of codes become features in ``pair_features`` and scores in
``score_pairs``, and labeled code pairs become a classifier only in
``train_pair_classifier``; training and the CLI call these. ``RegionSet``
is the one-face view that ``extract_regions`` returns and ``encode_face``
and ``kin_score`` read. It holds the three default crops only; extra
regions are cut by ``cut_regions`` and encoded by ``encode_images``.
"""
from __future__ import annotations

import functools
from dataclasses import astuple, dataclass, field

import numpy as np

from .core import ModelStateError, RngStream
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


FACE_SIZE = 64  # side of every aligned face, in pixels
REGION_SIZE = 32  # default side of every crop, in pixels
DEFAULT_REGIONS = ("face", "t_region", "not_t")
EXTRA_REGIONS = ("binocular", "chin")
_STD_FLOOR = 1e-8
# Images cut and encoded per block: each block runs every stack once over
# its rows, and its crops, temporaries and activations bound the extra
# memory. encode_images on the 864 pair images (144 distinct) of a 60-family
# synth set peaks at 2.9 MB (tracemalloc) in blocks of 16; blocks of 4 and 8
# peaked 2.2 and 1.4 MB lower, and blocks of 16 encoded them fastest.
_BLOCK = 16


@dataclass
class RegionFractions:
    """Fractional rectangles defining the T mask and the extra crops."""

    eye_rows: tuple[float, ...] = (0.25, 0.45)
    nose_rows: tuple[float, ...] = (0.25, 0.75)
    nose_cols: tuple[float, ...] = (0.35, 0.65)
    chin_rows: tuple[float, ...] = (0.65, 1.0)


@dataclass
class RegionSet:
    """The three default standardized crops of one aligned face."""

    face: np.ndarray
    t_region: np.ndarray
    not_t: np.ndarray

    def get(self, name):
        if name not in DEFAULT_REGIONS:
            raise KeyError(f"no region named {name!r}")
        return getattr(self, name)


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


def _crop_table(fractions, names):
    """((name, fill, rows, cols), ...) for the crops ``names``, in order.

    Pixels under ``fill`` (None: none) take the image mean, then the
    ``rows`` x ``cols`` window is cut. The T crop keeps only mask pixels
    inside the mask's bounding box; not-T blanks the mask. Built once per
    geometry (fractions and names, by value); the masks are read-only.
    """
    return _cached_crop_table(tuple(map(tuple, astuple(fractions))),
                              tuple(names))


@functools.lru_cache(maxsize=32)
def _cached_crop_table(fractions, names):
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
             "not_t": (mask, whole, whole),
             "binocular": (None, slice(*_span(fractions.eye_rows, FACE_SIZE)),
                           whole),
             "chin": (None, slice(*_span(fractions.chin_rows, FACE_SIZE)),
                      whole)}
    for name in names:
        if name not in table:
            raise ValueError(f"unknown region {name!r}")
    return tuple((name, *table[name]) for name in names)


def cut_regions(images, fractions=None, size=REGION_SIZE, names=DEFAULT_REGIONS):
    """Yield the crops of each block of ``_BLOCK`` aligned faces, in order.

    ``images`` is a sequence of aligned faces or one (N, FACE_SIZE, FACE_SIZE)
    array. Each block gives one dict mapping every region in ``names`` (and
    only those) to an (n, size, size) stack, one crop per image of the
    block; every crop is resized to size x size and standardized. The crop
    table is built once per geometry. A crop depends only on its own image,
    so neither the block nor the other names change any of its bits.
    """
    table = _crop_table(fractions or RegionFractions(), names)
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
        yield crops


def extract_regions(aligned_face, fractions=None, size=REGION_SIZE):
    """The RegionSet of one aligned face: row 0 of its one-image cut."""
    crops = next(cut_regions([aligned_face], fractions, size))
    return RegionSet(*(crops[name][0] for name in DEFAULT_REGIONS))


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


def _encode_crops(model, crops):
    """Codes of a block of faces from their named crop stacks: shape (n, d).

    Each stage-1 stack encodes its region's stack in one ``encode`` call,
    and the stage-2 stack their concatenated codes in one more. ``encode``
    takes one-row products, so a row does not depend on the other faces in
    the block, bit for bit.
    """
    parts = [encode(model.stage1[name],
                    crops[name].reshape(len(crops[name]), -1))
             for name in model.regions]
    return encode(model.stage2, np.hstack(parts))


def encode_face(model, regions):
    """Stage-1 encode each region, concatenate, stage-2 encode. Pure."""
    return _encode_crops(model, {name: regions.get(name)[None]
                                 for name in model.regions})[0]


def encode_images(model, images):
    """Codes for aligned faces, one row per image: shape (N, d).

    Regions are cut with the model's own fractions, size and regions. This
    is where each image object is encoded once; a repeated object gets a
    copy of its row, in input order. The distinct objects are cut and
    encoded a block at a time, each block one ``encode`` per stack. A row
    equals ``encode_face`` of its image bit for bit, whatever the block, so
    equal copies get equal rows; no images give a (0, d) array.
    """
    images = list(images)  # held for the whole call, so no id is reused
    distinct = list({id(img): img for img in images}.values())  # first seen
    row = {id(img): i for i, img in enumerate(distinct)}
    codes = [_encode_crops(model, crops) for crops in cut_regions(
        distinct, model.fractions, model.region_size, model.regions)]
    return np.vstack([np.empty((0, model.stage2.layer_dims[-1]))]
                     + codes)[[row[id(img)] for img in images]]


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
    codes = _encode_crops(model, {name: np.stack([a.get(name), b.get(name)])
                                  for name in model.regions})
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
    blocks = list(cut_regions(pretrain_corpus, fractions, size, cfg.regions))

    fc = FcOptions(n_filters=cfg.n_filters, filter_size=cfg.filter_size,
                   alpha=cfg.alpha, beta=cfg.beta,
                   first_layer_gaussian=cfg.first_layer_gaussian,
                   image_shape=(size, size))
    stage1, stage1_codes = {}, []
    for idx, name in enumerate(cfg.regions):
        x = np.concatenate([crops[name] for crops in blocks]).reshape(
            -1, size * size)
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
