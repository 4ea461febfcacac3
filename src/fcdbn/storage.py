"""File formats: binary PGM images, JSON model documents, manifest CSVs.

Everything is written atomically (a uniquely named temp file in the
target's directory, then a rename) so failed commands never leave partial
artifacts behind. A model document is JSON; each weight array in it is an
object ``{"shape": [...], "f8": <base64 of little-endian float64>}``, which
round-trips exactly. Version 1 documents, which hold arrays as nested lists
of decimal numbers, still load. Loading fails closed: a non-finite weight,
a dropout rate outside [0, 1) or a mixture variance <= 0 is rejected.
"""
from __future__ import annotations

import base64
import csv
import json
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

from .deepnet import DbnStack, MlpModel
from .fusion import GaussianMixture, PlrModels, SvmModel
from .kvrl import KvrlModel, RegionFractions
from .rbm import RbmLayer

MODEL_FORMAT = "fcdbn-model"
MODEL_VERSION = 2
RELATIONS = ("FS", "FD", "MS", "MD", "BB", "BS", "SS")
MANIFEST_COLUMNS = ("path_a", "path_b", "label", "relation",
                    "subject_a", "subject_b")


class PgmParseError(ValueError):
    """Malformed PGM payload; message names the byte offset."""


class ModelFormatError(ValueError):
    """Model document fails version, schema or dimension checks."""


def atomic_write_bytes(path, payload):
    """Write payload to a fresh temp file beside path, then rename it over path.

    Concurrent writers never share a temp file, and a failed write removes
    its temp file and leaves path as it was. The file is created with mode
    0o666 less the process umask at the time of the write, as open() does.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
        tmp = None
    finally:
        if tmp is not None:
            os.unlink(tmp)


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


# --- PGM (P5, 8-bit) --------------------------------------------------------

def _next_token(data, pos):
    """Skip whitespace and # comments, return (token, next_pos)."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PgmParseError(f"unexpected end of header at byte {start}")
    return data[start:pos], pos


def load_pgm(path, size=64):
    """Read a binary 8-bit PGM into a [0, 1] float image of size x size."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmParseError(f"expected P5 magic at byte 0, got {magic!r}")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            if not token.isdigit():  # int() also takes a sign and "_"
                raise ValueError
            fields.append(int(token))  # over 4300 digits, int() raises
        except ValueError:
            raise PgmParseError(f"non-numeric header field {token[:16]!r} "
                                f"at byte {pos - len(token)}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise PgmParseError(f"only 8-bit PGM supported, maxval={maxval}")
    if (width, height) != (size, size):
        raise PgmParseError(f"expected {size}x{size} image, got {width}x{height}")
    pos += 1  # single whitespace after maxval
    expected = width * height
    payload = data[pos:pos + expected]
    if len(payload) < expected:
        raise PgmParseError(
            f"truncated payload at byte {pos + len(payload)}: "
            f"need {expected} bytes, have {len(payload)}"
        )
    img = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    return (img / 255.0).reshape(height, width)


def save_pgm(path, image):
    """Quantize a [0, 1] image to 8 bits and write binary PGM."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("save_pgm expects a 2-D image")
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")
    h, w = img.shape
    body = np.round(img * 255.0).astype(np.uint8).tobytes()
    atomic_write_bytes(path, f"P5\n{w} {h}\n255\n".encode("ascii") + body)


# --- model persistence ------------------------------------------------------

def _arr(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def _from_arr(x):
    """Decode an array saved by ``_arr``, or a version-1 nested list.

    Either way, a NaN or infinite value raises ``ModelFormatError``.
    """
    a = np.array(x, dtype=np.float64) if isinstance(x, list) else _decode_f8(x)
    if not np.isfinite(a).all():
        raise ModelFormatError("array holds non-finite values")
    return a


def _decode_f8(x):
    """The array of a version-2 ``{"shape": [...], "f8": ...}`` object."""
    if not isinstance(x, dict):
        raise ModelFormatError(f"array must be an object, got {type(x).__name__}")
    shape, f8 = x.get("shape"), x.get("f8")
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ModelFormatError(f"array shape must be non-negative ints: {shape!r}")
    if not isinstance(f8, str):
        raise ModelFormatError("array is missing its base64 f8 data")
    try:
        raw = base64.b64decode(f8, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ModelFormatError(f"array f8 is not base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ModelFormatError(
            f"array f8 holds {len(raw)} bytes, shape {shape} needs "
            f"{8 * math.prod(shape)}")
    # bytearray gives a writable buffer, so loaded weights can be edited.
    return np.frombuffer(bytearray(raw), dtype="<f8").reshape(shape).astype(
        np.float64, copy=False)


def _layer_doc(layer):
    return {
        "W": _arr(layer.W),
        "a": _arr(layer.a),
        "b": _arr(layer.b),
        "unit_kind": layer.unit_kind,
        "sigma": None if layer.sigma is None else _arr(layer.sigma),
        "filters": [_arr(f) for f in layer.filters],
        "alpha": layer.alpha,
        "beta": layer.beta,
        "image_shape": None if layer.image_shape is None
        else list(layer.image_shape),
    }


def _layer_from_doc(doc):
    layer = RbmLayer(
        W=_from_arr(doc["W"]),
        a=_from_arr(doc["a"]),
        b=_from_arr(doc["b"]),
        unit_kind=doc["unit_kind"],
        sigma=None if doc["sigma"] is None else _from_arr(doc["sigma"]),
        filters=[_from_arr(f) for f in doc["filters"]],
        alpha=float(doc["alpha"]),
        beta=float(doc["beta"]),
        image_shape=None if doc["image_shape"] is None
        else tuple(doc["image_shape"]),
    )
    layer.validate()
    return layer


def _stack_doc(stack):
    return {"layers": [_layer_doc(l) for l in stack.layers]}


def _stack_from_doc(doc):
    stack = DbnStack(layers=[_layer_from_doc(l) for l in doc["layers"]])
    stack.validate()
    return stack


def _mlp_doc(mlp):
    return {
        "weights": [_arr(w) for w in mlp.weights],
        "biases": [_arr(b) for b in mlp.biases],
        "dropout_input": mlp.dropout_input,
        "dropout_hidden": mlp.dropout_hidden,
    }


def _mlp_from_doc(doc):
    mlp = MlpModel(
        weights=[_from_arr(w) for w in doc["weights"]],
        biases=[_from_arr(b) for b in doc["biases"]],
        dropout_input=float(doc["dropout_input"]),
        dropout_hidden=float(doc["dropout_hidden"]),
    )
    mlp.validate()
    return mlp


def _gmm_doc(g):
    return {"weights": _arr(g.weights), "means": _arr(g.means),
            "variances": _arr(g.variances)}


def _gmm_from_doc(doc):
    g = GaussianMixture(weights=_from_arr(doc["weights"]),
                        means=_from_arr(doc["means"]),
                        variances=_from_arr(doc["variances"]))
    if not (g.weights.shape == g.means.shape == g.variances.shape):
        raise ModelFormatError("mixture component arrays differ in length")
    if (g.variances <= 0).any() or (g.weights < 0).any():
        raise ModelFormatError(
            "mixture variances must be > 0 and weights >= 0")
    return g


def save_model(model, path):
    """Serialize a KVRL, PLR, or SVM model to a JSON text document."""
    if isinstance(model, KvrlModel):
        kind, payload = "kvrl", {
            "regions": list(model.regions),
            "region_size": model.region_size,
            "fractions": {
                "eye_rows": list(model.fractions.eye_rows),
                "nose_rows": list(model.fractions.nose_rows),
                "nose_cols": list(model.fractions.nose_cols),
                "chin_rows": list(model.fractions.chin_rows),
            },
            "stage1": {name: _stack_doc(s) for name, s in model.stage1.items()},
            "stage2": _stack_doc(model.stage2),
            "classifier": None if model.classifier is None
            else _mlp_doc(model.classifier),
        }
    elif isinstance(model, PlrModels):
        kind, payload = "plr", {
            "s_genuine": _gmm_doc(model.s_genuine),
            "s_impostor": _gmm_doc(model.s_impostor),
            "k_kin": _gmm_doc(model.k_kin),
            "k_nonkin": _gmm_doc(model.k_nonkin),
        }
    elif isinstance(model, SvmModel):
        kind, payload = "svm", {
            "w": _arr(model.w), "b": model.b,
            "feat_mean": _arr(model.feat_mean), "feat_std": _arr(model.feat_std),
            "degenerate": model.degenerate, "majority": model.majority,
            "margin": model.margin,
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION,
           "kind": kind, "payload": payload}
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def load_model(path):
    """Reconstruct a saved model; fails closed on any inconsistency.

    Every defect in the document, including a missing key or a value of the
    wrong type, raises ``ModelFormatError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not a model document: {exc}") from exc
    try:
        return _model_from_doc(doc)
    except ModelFormatError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise ModelFormatError(
            f"malformed model document: {type(exc).__name__}: {exc}") from exc


def _model_from_doc(doc):
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("missing fcdbn-model format tag")
    if doc.get("version") not in (1, MODEL_VERSION):
        raise ModelFormatError(f"unsupported model version {doc.get('version')}")
    kind = doc.get("kind")
    payload = doc.get("payload", {})
    if kind == "kvrl":
        fr = payload["fractions"]
        model = KvrlModel(
            stage1={name: _stack_from_doc(s)
                    for name, s in payload["stage1"].items()},
            stage2=_stack_from_doc(payload["stage2"]),
            classifier=None if payload["classifier"] is None
            else _mlp_from_doc(payload["classifier"]),
            regions=tuple(payload["regions"]),
            fractions=RegionFractions(
                eye_rows=tuple(fr["eye_rows"]),
                nose_rows=tuple(fr["nose_rows"]),
                nose_cols=tuple(fr["nose_cols"]),
                chin_rows=tuple(fr["chin_rows"]),
            ),
            region_size=int(payload["region_size"]),
        )
        model.validate()
        return model
    if kind == "plr":
        return PlrModels(s_genuine=_gmm_from_doc(payload["s_genuine"]),
                         s_impostor=_gmm_from_doc(payload["s_impostor"]),
                         k_kin=_gmm_from_doc(payload["k_kin"]),
                         k_nonkin=_gmm_from_doc(payload["k_nonkin"]))
    if kind == "svm":
        model = SvmModel(w=_from_arr(payload["w"]),
                         b=float(payload["b"]),
                         feat_mean=_from_arr(payload["feat_mean"]),
                         feat_std=_from_arr(payload["feat_std"]),
                         degenerate=bool(payload["degenerate"]),
                         majority=int(payload["majority"]),
                         margin=float(payload["margin"]))
        if not (math.isfinite(model.b) and math.isfinite(model.margin)):
            raise ModelFormatError("svm b and margin must be finite")
        return model
    raise ModelFormatError(f"unknown model kind {kind!r}")


# --- pair manifests ---------------------------------------------------------

@dataclass
class KinPair:
    path_a: str
    path_b: str
    label: str  # "kin" | "nonkin"
    relation: str
    subject_a: str
    subject_b: str


def write_manifest(path, pairs):
    rows = [",".join(MANIFEST_COLUMNS)]
    for p in pairs:
        rows.append(",".join((p.path_a, p.path_b, p.label, p.relation,
                              p.subject_a, p.subject_b)))
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_manifest(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or tuple(rows[0]) != MANIFEST_COLUMNS:
        raise ValueError(
            f"manifest must start with header {','.join(MANIFEST_COLUMNS)}"
        )
    pairs = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(MANIFEST_COLUMNS):
            raise ValueError(f"manifest line {lineno}: expected "
                             f"{len(MANIFEST_COLUMNS)} columns, got {len(row)}")
        pair = KinPair(*row)
        if pair.label not in ("kin", "nonkin"):
            raise ValueError(f"manifest line {lineno}: bad label {pair.label!r}")
        if pair.relation not in RELATIONS:
            raise ValueError(
                f"manifest line {lineno}: relation {pair.relation!r} not in "
                f"{RELATIONS}"
            )
        pairs.append(pair)
    return pairs
