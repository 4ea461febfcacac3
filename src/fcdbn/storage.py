"""File formats: binary PGM images, JSON model documents, manifest CSVs.

Everything is written atomically (a uniquely named temp file in the
target's directory, then a rename) so failed commands never leave partial
artifacts behind.

A model document is JSON: format tag, version, kind, and a payload that is
the model's saved dataclass fields by name. Each array is an object
``{"shape": [...], "f8": <base64 of little-endian float64>}``, which
round-trips exactly; version 1 documents, with arrays as nested lists of
decimals, still load. Loading fails closed (``ModelFormatError``): see
``_from_doc``, ``_from_arr`` and each model class's ``validate``.
"""
from __future__ import annotations

import base64
import csv
import functools
import json
import math
import os
import secrets
from dataclasses import dataclass, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .config import scalar_fits
from .fusion import PlrModels, SvmModel
from .kvrl import FACE_SIZE, KvrlModel

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


def load_pgm(path):
    """Read a binary 8-bit FACE_SIZE x FACE_SIZE PGM into a [0, 1] float image."""
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
    if (width, height) != (FACE_SIZE, FACE_SIZE):
        raise PgmParseError(f"expected {FACE_SIZE}x{FACE_SIZE}, got {width}x{height}")
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
    if not (img.min() >= 0.0 and img.max() <= 1.0):  # NaN fails both
        raise ValueError("image values must be finite and lie in [0, 1]")
    h, w = img.shape
    body = np.round(img * 255.0).astype(np.uint8).tobytes()
    atomic_write_bytes(path, f"P5\n{w} {h}\n255\n".encode("ascii") + body)


# --- model persistence ------------------------------------------------------

_KINDS = {"kvrl": KvrlModel, "plr": PlrModels, "svm": SvmModel}
# Largest magnitude of a stored array value; see _from_arr.
MAX_STORED_ABS = 1e50


def _arr(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def _from_arr(x, where):
    """Decode an array saved by ``_arr``, or a version-1 nested list.

    A value that is NaN, infinite or beyond +-MAX_STORED_ABS (M) raises
    ``ModelFormatError``. With sigma >= rbm.SIGMA_MIN (S) this keeps encoding
    a standardized crop finite: its D pixels have sum(|x|) <= D, so K filters
    of T <= D taps give sum(|v|) <= K * D**2 * M, and a first-layer
    pre-activation (v / sigma) @ W + a, with every partial sum, stays within
    K * D**2 * M**2 / S + M = K * D**2 * 1e150 + 1e50. That is below the
    float64 maximum 1.8e308 while K * D**2 < 1e158: for 64x64 crops
    (D**2 ~ 1.7e7), any filter count that fits in memory. Later layers and
    the classifier see sigmoid outputs in (0, 1), so they stay within
    (D + 1) * M. M = 1e100 and S = 1e-100 would give K * D**2 * 1e300, which
    can overflow once K * D**2 > 1.8e8 (64x64 crops, 11 full-size filters).
    """
    a = _decode_v1(x, where) if isinstance(x, list) else _decode_f8(x, where)
    # min/max need no temporary array; NaN fails both comparisons
    if a.size and not -MAX_STORED_ABS <= a.min() <= a.max() <= MAX_STORED_ABS:
        raise ModelFormatError(
            f"{where} holds a value that is NaN or beyond +-{MAX_STORED_ABS:g}")
    return a


def _decode_v1(x, where):
    """The array of a version-1 nested list, whose leaves must be JSON
    numbers: a string or a bool raises rather than being converted."""
    todo = [x]
    while todo:
        node = todo.pop()
        if isinstance(node, list):
            todo.extend(node)
        elif type(node) not in (int, float):
            raise ModelFormatError(f"{where} holds {node!r:.40}, not a number")
    return np.array(x, dtype=np.float64)


def _decode_f8(x, where):
    """The array of a version-2 ``{"shape": [...], "f8": ...}`` object."""
    if not isinstance(x, dict):
        raise ModelFormatError(f"{where} must be an array object")
    shape, f8 = x.get("shape"), x.get("f8")
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ModelFormatError(f"{where} shape must be non-negative ints")
    if not isinstance(f8, str):
        raise ModelFormatError(f"{where} is missing its base64 f8 data")
    try:
        raw = base64.b64decode(f8, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ModelFormatError(f"{where} f8 is not base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ModelFormatError(f"{where} f8 holds {len(raw)} bytes, shape "
                               f"{shape} needs {8 * math.prod(shape)}")
    # bytearray gives a writable buffer, so loaded weights can be edited.
    return np.frombuffer(bytearray(raw), dtype="<f8").reshape(shape).astype(
        np.float64, copy=False)


@functools.cache
def _saved_fields(cls):
    """Saved field name -> annotated type, in field order, of a dataclass."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)
            if f.metadata.get("saved", True)}


def _to_doc(value):
    """JSON form of a model value: a dataclass as an object of its saved
    fields, an array through ``_arr``, a tuple as a list."""
    if is_dataclass(value):
        return {name: _to_doc(getattr(value, name))
                for name in _saved_fields(type(value))}
    if isinstance(value, np.ndarray):
        return _arr(value)
    if isinstance(value, dict):
        return {key: _to_doc(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_doc(v) for v in value]
    return value


def _from_doc(hint, node, where):
    """Rebuild a value of annotated type ``hint`` (dataclass, array, list,
    tuple, dict, ``T | None`` or a scalar type, checked by ``scalar_fits``)
    from its JSON form. Errors name ``where``, the value's path."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # T | None
        return None if node is None else _from_doc(args[0], node, where)
    if hint is np.ndarray:
        return _from_arr(node, where)
    if is_dataclass(hint):
        return _object_from_doc(hint, node, where)
    if origin is dict and isinstance(node, dict):
        return {key: _from_doc(args[1], v, f"{where}.{key}")
                for key, v in node.items()}
    if origin in (list, tuple) and isinstance(node, list):
        items = [_from_doc(args[0], v, f"{where}[{i}]")
                 for i, v in enumerate(node)]
        return items if origin is list else tuple(items)
    if origin is None and scalar_fits(hint, node):
        return node
    raise ModelFormatError(f"{where} must be {hint.__name__}, got {node!r:.40}")


def _object_from_doc(cls, node, where):
    """A ``cls`` built from exactly its saved fields, then validated."""
    if not isinstance(node, dict):
        raise ModelFormatError(f"{where} must be an object")
    hints = _saved_fields(cls)
    if node.keys() != hints.keys():
        raise ModelFormatError(
            f"{where} keys: missing {sorted(hints.keys() - node.keys())}, "
            f"unknown {sorted(node.keys() - hints.keys())}")
    obj = cls(**{name: _from_doc(hint, node[name], f"{where}.{name}")
                 for name, hint in hints.items()})
    try:
        getattr(obj, "validate", lambda: None)()
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc
    return obj


def save_model(model, path):
    """Serialize a KVRL, PLR, or SVM model to a JSON text document."""
    kind = {cls: k for k, cls in _KINDS.items()}.get(type(model))
    if kind is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION,
           "kind": kind, "payload": _to_doc(model)}
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def load_model(path):
    """Reconstruct a saved model; fails closed on any inconsistency.

    Every defect in the document, including a missing or unknown key or a
    value of the wrong type, raises ``ModelFormatError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not a model document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("missing fcdbn-model format tag")
    version = doc.get("version")
    if type(version) is not int or version not in (1, MODEL_VERSION):
        raise ModelFormatError(f"unsupported model version {version!r:.40}")
    kind = doc.get("kind")
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ModelFormatError(f"unknown model kind {kind!r:.40}")
    try:
        return _from_doc(_KINDS[kind], doc.get("payload"), "payload")
    except ModelFormatError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise ModelFormatError(
            f"malformed model document: {type(exc).__name__}: {exc}") from exc


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
