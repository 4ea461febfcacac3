"""Independent reference for the benchmark's output checks.

Written from the documented model semantics in plain numpy/scipy, sharing
no code with fcdbn: region crops are resampled with
``scipy.ndimage.map_coordinates``, filters are applied with
``scipy.signal.convolve2d(..., mode="same")``, and every stack and the
classifier are evaluated with ``scipy.special.expit``. The only things read
from fcdbn are the public fields of a loaded model's dataclasses.
"""
from __future__ import annotations

import numpy as np
from scipy.ndimage import map_coordinates
from scipy.signal import convolve2d
from scipy.special import expit
from scipy.stats import rankdata

STD_FLOOR = 1e-8


def read_pgm(path):
    """Binary 8-bit P5 image as floats in [0, 1] (header: magic, w, h, max)."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = data.split(maxsplit=4)
    if head[0] != b"P5" or int(head[3]) != 255:
        raise ValueError(f"{path}: not an 8-bit P5 image")
    width, height = int(head[1]), int(head[2])
    pixels = np.frombuffer(data[len(data) - width * height:], dtype=np.uint8)
    return pixels.reshape(height, width) / 255.0


def _resample(image, size):
    """Bilinear resample on pixel centers, clamped at the border."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if (h, w) == (size, size):
        return image.copy()
    rows = np.clip((np.arange(size) + 0.5) * h / size - 0.5, 0, h - 1)
    cols = np.clip((np.arange(size) + 0.5) * w / size - 0.5, 0, w - 1)
    grid = np.meshgrid(rows, cols, indexing="ij")
    return map_coordinates(image, grid, order=1, mode="nearest")


def _standardized(image, size):
    x = _resample(image, size)
    std = x.std()
    return np.zeros_like(x) if std < STD_FLOOR else (x - x.mean()) / std


def _rows(frac, n):
    lo, hi = int(round(frac[0] * n)), int(round(frac[1] * n))
    return max(lo, 0), min(max(hi, lo + 1), n)


def regions(image, fractions, size):
    """The three default crops: whole face, T (eye strip + nose column
    inside its bounding box, rest at the image mean), and not-T (T at the
    image mean)."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    mask = np.zeros((h, w), dtype=bool)
    e0, e1 = _rows(fractions.eye_rows, h)
    n0, n1 = _rows(fractions.nose_rows, h)
    c0, c1 = _rows(fractions.nose_cols, w)
    mask[e0:e1, :] = True
    mask[n0:n1, c0:c1] = True
    mean = img.mean()
    rr = np.flatnonzero(mask.any(axis=1))
    cc = np.flatnonzero(mask.any(axis=0))
    t_crop = np.where(mask, img, mean)[rr[0]:rr[-1] + 1, cc[0]:cc[-1] + 1]
    return {"face": _standardized(img, size),
            "t_region": _standardized(t_crop, size),
            "not_t": _standardized(np.where(mask, mean, img), size)}


def encode_stack(stack, x):
    """Hidden probabilities through every layer of a DbnStack (one row)."""
    x = np.asarray(x, dtype=np.float64)
    for layer in stack.layers:
        if len(layer.filters):
            img = x.reshape(layer.image_shape)
            x = sum(convolve2d(img, f, mode="same") for f in layer.filters)
            x = x.ravel()
        if layer.unit_kind == "gaussian":
            x = x / layer.sigma
        x = expit(x @ layer.W + layer.a)
    return x


def encode_image(model, image):
    """Fused stage-2 code of one aligned 64x64 image."""
    crops = regions(image, model.fractions, model.region_size)
    parts = [encode_stack(model.stage1[name], crops[name].ravel())
             for name in model.regions]
    return encode_stack(model.stage2, np.concatenate(parts))


def classifier_prob(mlp, x):
    y = np.asarray(x, dtype=np.float64)
    for w, b in zip(mlp.weights, mlp.biases):
        y = expit(y @ w + b)
    return float(y[0])


def pair_score(model, code_a, code_b):
    """Symmetric kin score: mean of the classifier on both pair orders."""
    ab = classifier_prob(model.classifier, np.concatenate([code_a, code_b]))
    ba = classifier_prob(model.classifier, np.concatenate([code_b, code_a]))
    return (ab + ba) / 2.0


def pairwise_auc(scores, labels):
    """Mann-Whitney statistic: P(kin score > non-kin score), ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = rankdata(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def model_arrays(model):
    """Every weight array of a KvrlModel, keyed by a readable path."""
    out = {}

    def stack(prefix, s):
        for i, layer in enumerate(s.layers):
            for field in ("W", "a", "b", "sigma"):
                value = getattr(layer, field)
                if value is not None:
                    out[f"{prefix}.layer{i}.{field}"] = value
            for k, f in enumerate(layer.filters):
                out[f"{prefix}.layer{i}.filter{k}"] = f

    for name in sorted(model.stage1):
        stack(f"stage1.{name}", model.stage1[name])
    stack("stage2", model.stage2)
    if model.classifier is not None:
        for i, (w, b) in enumerate(zip(model.classifier.weights,
                                       model.classifier.biases)):
            out[f"classifier.{i}.weights"] = w
            out[f"classifier.{i}.biases"] = b
    return out


def roundtrip_mismatches(saved, loaded):
    """Paths of arrays that differ in shape, dtype or any bit."""
    a, b = model_arrays(saved), model_arrays(loaded)
    if a.keys() != b.keys():
        return sorted(set(a) ^ set(b))
    return [k for k in a
            if a[k].shape != b[k].shape or a[k].dtype != b[k].dtype
            or np.ascontiguousarray(a[k]).tobytes()
            != np.ascontiguousarray(b[k]).tobytes()]
