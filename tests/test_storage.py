import base64
import csv
import dataclasses
import errno
import io
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcdbn import storage
from fcdbn.config import RunConfig
from fcdbn.core import RngStream
from fcdbn.deepnet import DbnStack, MlpModel
from fcdbn.fusion import fit_fusion, plr_scores, svm_decisions, synth_scores
from fcdbn.kvrl import (
    DEFAULT_REGIONS,
    KvrlModel,
    encode_face,
    encode_images,
    extract_regions,
    pretrain_stages,
    score_pairs,
)
from fcdbn.rbm import GAUSSIAN, SIGMA_MIN, RbmLayer
from fcdbn.storage import (
    KinPair,
    ModelFormatError,
    PgmParseError,
    atomic_write_bytes,
    load_model,
    load_pgm,
    read_manifest,
    save_model,
    save_pgm,
    write_csv,
    write_manifest,
)


VALID_PGM = b"P5\n# c\n64 64\n255\n" + bytes(range(256)) * 16


class TestPgm:
    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "zero.pgm"
        path.write_bytes(b"P5\n64 64\n255\n" + bytes(64 * 64))
        img = load_pgm(path)
        assert img.shape == (64, 64)
        assert np.all(img == 0.0)

    def test_max_intensity_image(self, tmp_path):
        path = tmp_path / "ones.pgm"
        path.write_bytes(b"P5\n64 64\n255\n" + bytes([255] * 64 * 64))
        assert np.all(load_pgm(path) == 1.0)

    def test_round_trip_is_bit_exact(self, tmp_path):
        stream = RngStream(seed=0)
        raw = np.floor(stream.uniform01(64 * 64) * 256).clip(0, 255)
        img = (raw / 255.0).reshape(64, 64)
        path = tmp_path / "rt.pgm"
        save_pgm(path, img)
        assert np.array_equal(load_pgm(path), img)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n64 64\n# another\n255\n"
                         + bytes(64 * 64))
        assert load_pgm(path).shape == (64, 64)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n64 64\n255\n" + bytes(64 * 64))
        with pytest.raises(PgmParseError, match="byte 0"):
            load_pgm(path)

    def test_wrong_dims_rejected(self, tmp_path):
        path = tmp_path / "dims.pgm"
        path.write_bytes(b"P5\n32 32\n255\n" + bytes(32 * 32))
        with pytest.raises(PgmParseError):
            load_pgm(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n64 64\n255\n" + bytes(100))
        with pytest.raises(PgmParseError, match="byte"):
            load_pgm(path)

    @pytest.mark.parametrize("header, start", [(b"P5\n+64 64\n255\n", 3),
                                               (b"P5\n64 64\n2_55\n", 9)],
                             ids=["signed", "underscore"])
    def test_header_fields_are_decimal_digits(self, tmp_path, header, start):
        # the offset is where the bad token starts
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(64 * 64))
        with pytest.raises(PgmParseError, match=f"non-numeric .* at byte {start}$"):
            load_pgm(path)

    def test_bad_header_field_echo_is_short(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n" + b"x" * 4000 + b" 64\n255\n")
        with pytest.raises(PgmParseError) as info:
            load_pgm(path)
        assert len(str(info.value)) < 100

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=32).map(lambda b: b"P5\n" + b),
        st.integers(0, len(VALID_PGM)).map(lambda n: VALID_PGM[:n])))
    def test_any_bytes_load_or_raise_parse_error(self, tmp_path_factory,
                                                 data):
        path = tmp_path_factory.mktemp("fuzz") / "f.pgm"
        path.write_bytes(data)
        try:
            img = load_pgm(path)
        except PgmParseError:
            return
        assert img.shape == (64, 64)

    def test_save_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError):
            save_pgm(tmp_path / "bad.pgm", np.full((4, 4), 1.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_pixels(self, tmp_path, bad):
        img = np.full((4, 4), 0.5)
        img[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            save_pgm(tmp_path / "bad.pgm", img)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_save_rejects_zero_size_image(self, tmp_path, shape):
        with pytest.raises(ValueError, match=rf"non-empty 2-D image, got \({shape[0]}, "):
            save_pgm(tmp_path / "empty.pgm", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []


def tiny_config(seed=0):
    return RunConfig(
        seed=seed, epochs=2, batch_size=8, learning_rate=0.02,
        stage1_dims=(1024, 12, 8), stage2_dims=(24, 12, 8),
        classifier_hidden=(8,), classifier_epochs=10,
        n_filters=2, alpha=0.05, beta=1e-4,
        dropout_input=0.0, dropout_hidden=0.0,
    )


def tiny_model(seed=0):
    stream = RngStream(seed=seed)
    corpus = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(10)]
    return pretrain_stages(corpus, tiny_config(seed)), corpus


class TestModelPersistence:
    def test_kvrl_round_trip_preserves_encodings(self, tmp_path):
        model, corpus = tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        regions = extract_regions(corpus[0])
        before = encode_face(model, regions)
        after = encode_face(loaded, regions)
        assert np.max(np.abs(before - after)) < 1e-12

    def test_corrupted_dims_fail_closed(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["stage2"]["layers"][0]["a"] = [0.0, 0.0]  # wrong width
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_fusion_models_round_trip(self, tmp_path):
        fused = fit_fusion(synth_scores(1, 100, 100), n_components=2, seed=1)
        plr_path = tmp_path / "plr.json"
        svm_path = tmp_path / "svm.json"
        save_model(fused.plr, plr_path)
        save_model(fused.svm, svm_path)
        plr = load_model(plr_path)
        svm = load_model(svm_path)
        s, k = np.array([0.4]), np.array([[0.6]])
        assert np.array_equal(plr_scores(plr, s, k), plr_scores(fused.plr, s, k))
        assert np.array_equal(svm_decisions(svm, s, k),
                              svm_decisions(fused.svm, s, k))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"format": "fcdbn-model", "version": 1,
                                    "kind": "mystery", "payload": {}}))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("data", [
        b"\xff" + json.dumps({"format": "fcdbn-model"}).encode(),
        b'{"format": "fcdbn-model", "kind": "kv\xc3(rl"}',
        b"[" * 100000 + b"]" * 100000,
    ], ids=["undecodable-first-byte", "invalid-utf8-in-string",
            "nested-too-deep"])
    def test_unparsable_bytes_are_a_format_error(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ModelFormatError, match="not a model document"):
            load_model(path)

    def test_unreadable_path_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "missing.json")
        with pytest.raises(IsADirectoryError):
            load_model(tmp_path)


def hand_model(n_filters=2, gaussian=True, seed=0, classifier=True):
    """A tiny KVRL model built directly: 4x4 regions, 3 hidden units each."""
    rng = np.random.default_rng(seed)

    def layer(d, f, **kw):
        return RbmLayer(W=rng.normal(size=(d, f)), a=rng.normal(size=f),
                        b=rng.normal(size=d), **kw)

    def first_layer():
        kw = dict(filters=[rng.normal(size=(3, 3)) for _ in range(n_filters)],
                  alpha=0.05, beta=1e-4, image_shape=(4, 4))
        if gaussian:
            kw.update(unit_kind=GAUSSIAN, sigma=rng.uniform(0.5, 2.0, size=16))
        return layer(16, 3, **kw)

    return KvrlModel(
        stage1={name: DbnStack([first_layer()]) for name in DEFAULT_REGIONS},
        stage2=DbnStack([layer(9, 4), layer(4, 2)]),
        classifier=MlpModel(weights=[rng.normal(size=(4, 3)),
                                     rng.normal(size=(3, 1))],
                            biases=[rng.normal(size=3), rng.normal(size=1)])
        if classifier else None,
        region_size=4,
    )


def model_arrays(model):
    """Every weight array of a KVRL model, by name."""
    out = {}
    stacks = {f"stage1.{name}": s for name, s in model.stage1.items()}
    stacks["stage2"] = model.stage2
    for sname, stack in stacks.items():
        for i, layer in enumerate(stack.layers):
            key = f"{sname}.{i}"
            out.update({f"{key}.W": layer.W, f"{key}.a": layer.a,
                        f"{key}.b": layer.b})
            if layer.sigma is not None:
                out[f"{key}.sigma"] = layer.sigma
            for k, f in enumerate(layer.filters):
                out[f"{key}.filter{k}"] = f
    if model.classifier is not None:
        for i, (w, b) in enumerate(zip(model.classifier.weights,
                                       model.classifier.biases)):
            out.update({f"classifier.{i}.w": w, f"classifier.{i}.b": b})
    return out


def assert_bit_equal(model, loaded):
    want, got = model_arrays(model), model_arrays(loaded)
    assert want.keys() == got.keys()
    for name, w in want.items():
        g = got[name]
        assert g.shape == w.shape, name
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), name


def to_v1(node):
    """Rewrite a saved document into version 1: arrays as nested lists."""
    if isinstance(node, dict):
        if node.keys() == {"shape", "f8"}:
            raw = base64.b64decode(node["f8"])
            return np.frombuffer(raw, "<f8").reshape(node["shape"]).tolist()
        return {k: to_v1(v) for k, v in node.items()}
    if isinstance(node, list):
        return [to_v1(v) for v in node]
    return node


def saved_doc(model, path):
    save_model(model, path)
    return json.loads(path.read_text())


def write_doc(doc, path):
    path.write_text(json.dumps(doc))
    return path


def fusion_model(kind):
    return getattr(fit_fusion(synth_scores(1, 60, 60), n_components=2,
                              seed=1), kind)


def assert_fails_closed(tmp_path, kind, mutate):
    """Save a model of ``kind``, mutate its payload, expect a load error."""
    model = hand_model() if kind == "kvrl" else fusion_model(kind)
    doc = saved_doc(model, tmp_path / "m.json")
    mutate(doc["payload"])
    with pytest.raises(ModelFormatError):
        load_model(write_doc(doc, tmp_path / "bad.json"))


def doc_array(a):
    """A version-2 array object: the shape, and the base64 of the bytes of
    the array's C-contiguous ``<f8`` form."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "f8": base64.b64encode(a.tobytes()).decode("ascii")}


# legal values whose bits a decimal or base64 round trip could lose
SPECIAL_VALUES = (-0.0, 5e-324, -5e-324, storage.MAX_STORED_ABS,
                  np.finfo(np.float64).tiny)


class TestModelFormat:
    @pytest.mark.parametrize("n_filters,gaussian", [(0, False), (2, True)])
    def test_special_values_round_trip_bit_exact(self, tmp_path, n_filters,
                                                 gaussian):
        model = hand_model(n_filters=n_filters, gaussian=gaussian)
        model.stage1["face"].layers[0].W[0, :3] = SPECIAL_VALUES[:3]
        model.stage1["face"].layers[0].W[1, :2] = SPECIAL_VALUES[3:]
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert_bit_equal(model, loaded)
        assert (loaded.stage1["face"].layers[0].sigma is None) != gaussian
        assert loaded.stage1["face"].layers[0].n_filters == n_filters

    def test_saves_version_2_with_base64_arrays(self, tmp_path):
        doc = saved_doc(hand_model(), tmp_path / "m.json")
        assert doc["version"] == 2
        w = doc["payload"]["stage2"]["layers"][0]["W"]
        assert w["shape"] == [9, 4]
        assert len(base64.b64decode(w["f8"], validate=True)) == 9 * 4 * 8

    def test_version_1_document_loads_to_equal_arrays(self, tmp_path):
        for model in (hand_model(), hand_model(classifier=False),
                      hand_model(n_filters=0, gaussian=False)):
            model.stage2.layers[0].W[:, 0][:5] = SPECIAL_VALUES
            v2 = tmp_path / "v2.json"
            doc = to_v1(saved_doc(model, v2))
            doc["version"] = 1
            assert isinstance(doc["payload"]["stage2"]["layers"][0]["W"],
                              list)
            loaded = load_model(write_doc(doc, tmp_path / "v1.json"))
            assert_bit_equal(model, loaded)
            resaved = tmp_path / "resaved.json"
            save_model(loaded, resaved)
            assert resaved.read_bytes() == v2.read_bytes()

    def test_fusion_models_load_from_version_1(self, tmp_path):
        fused = fit_fusion(synth_scores(1, 100, 100), n_components=2,
                           seed=1)
        for model in (fused.plr, fused.svm):
            v2 = tmp_path / "v2.json"
            doc = to_v1(saved_doc(model, v2))
            doc["version"] = 1
            resaved = tmp_path / "resaved.json"
            save_model(load_model(write_doc(doc, tmp_path / "v1.json")),
                       resaved)
            assert resaved.read_bytes() == v2.read_bytes()

    @pytest.mark.parametrize("mutate", [
        lambda l: l["W"].update(f8="!!" + l["W"]["f8"][2:]),
        lambda l: l["W"].update(f8=l["W"]["f8"][:-4]),
        lambda l: l["W"].update(f8=base64.b64encode(
            base64.b64decode(l["W"]["f8"])[:-8]).decode()),
        lambda l: l["W"].update(shape=[-9, -4]),
        lambda l: l["W"].update(shape=[9.0, 4]),
        lambda l: l["W"].update(shape=["9", 4]),
        lambda l: l["W"].update(shape=[True, 36]),
        lambda l: l["W"].update(shape=36),
        lambda l: l["W"].pop("f8"),
        lambda l: l["W"].pop("shape"),
        lambda l: l["W"].update(f8=None),
        lambda l: l["W"].clear(),
        lambda l: l.update(W=doc_array(np.full((9, 4), np.nan))),
        lambda l: l.update(W=doc_array(np.full((9, 4), -np.inf))),
        lambda l: l.update(W=[[1.0] * 4] * 8 + [[1.0, 1.0, np.nan, 1.0]]),
    ], ids=["bad-base64", "cut-padding", "short-f8", "negative-shape",
            "float-shape", "string-shape", "bool-shape", "scalar-shape",
            "missing-f8", "missing-shape", "null-f8", "empty-object",
            "nan-f8", "inf-f8", "v1-nan"])
    def test_malformed_array_rejected(self, tmp_path, mutate):
        doc = saved_doc(hand_model(), tmp_path / "m.json")
        mutate(doc["payload"]["stage2"]["layers"][0])
        with pytest.raises(ModelFormatError):
            load_model(write_doc(doc, tmp_path / "bad.json"))

    @pytest.mark.parametrize("value", ["W", 1.5, None])
    def test_array_of_wrong_type_rejected(self, tmp_path, value):
        doc = saved_doc(hand_model(), tmp_path / "m.json")
        doc["payload"]["stage2"]["layers"][0]["W"] = value
        with pytest.raises(ModelFormatError):
            load_model(write_doc(doc, tmp_path / "bad.json"))

    def test_loaded_arrays_are_writable_float64(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(hand_model(), path)
        for name, a in model_arrays(load_model(path)).items():
            assert a.dtype == np.float64 and a.flags.writeable, name

    def test_same_model_saves_identical_bytes(self, tmp_path):
        model = hand_model()
        save_model(model, tmp_path / "a.json")
        save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "2"])
    def test_version_must_be_an_int(self, tmp_path, version):
        plr = fit_fusion(synth_scores(1, 60, 60), methods=("plr",)).plr
        doc = saved_doc(plr, tmp_path / "m.json")
        doc["version"] = version
        with pytest.raises(ModelFormatError, match="version"):
            load_model(write_doc(doc, tmp_path / "bad.json"))

    @pytest.mark.parametrize("value", ["0.5", "1e3", True, False, None, {}])
    def test_version_1_array_holds_only_numbers(self, tmp_path, value):
        doc = to_v1(saved_doc(hand_model(), tmp_path / "m.json"))
        doc["version"] = 1
        bias = doc["payload"]["stage2"]["layers"][0]["b"]
        bias[:2] = [1, 0]  # JSON ints are numbers
        loaded = load_model(write_doc(doc, tmp_path / "ints.json"))
        assert loaded.stage2.layers[0].b[:2].tolist() == [1.0, 0.0]
        bias[:2] = [0.5, value]
        with pytest.raises(ModelFormatError, match="not a number"):
            load_model(write_doc(doc, tmp_path / "bad.json"))

    @pytest.mark.parametrize("version", [1, 2])
    def test_missing_stage2_fails_closed(self, tmp_path, version):
        doc = saved_doc(hand_model(), tmp_path / "m.json")
        if version == 1:
            doc = to_v1(doc)
        doc["version"] = version
        del doc["payload"]["stage2"]
        with pytest.raises(ModelFormatError, match="stage2"):
            load_model(write_doc(doc, tmp_path / "bad.json"))

    @pytest.mark.parametrize("mutate", [
        lambda l: l.update(unit_kind="bogus"),
        lambda l: l.update(unit_kind="bernoulli"),
        lambda l: l.update(alpha=float("nan")),
        lambda l: l.update(alpha=float("inf")),
        lambda l: l.update(beta=-1.0),
        lambda l: l.update(image_shape=None),
        lambda l: l.update(image_shape=[4, 4, 1]),
        lambda l: l.update(image_shape=[2, 8]),
        lambda l: l.update(filters=[doc_array(np.zeros(3))] * 2),
        lambda l: l.update(filters=[doc_array(np.zeros((4, 4)))] * 2),
        lambda l: l.update(filters=[doc_array(np.zeros((0, 0)))] * 2),
        lambda l: l.update(filters=[doc_array(np.zeros((99, 99)))] * 2),
        lambda l: l.update(filters=[doc_array(np.zeros((3, 3))),
                                    doc_array(np.zeros((1, 1)))]),
        lambda l: l.update(sigma=None),
        lambda l: l.update(sigma=doc_array(np.ones(15))),
        lambda l: l.update(sigma=doc_array(np.zeros(16))),
    ], ids=["bogus-unit-kind", "bernoulli-with-sigma", "nan-alpha",
            "inf-alpha", "negative-beta", "null-image-shape",
            "3-int-image-shape", "image-shape-cannot-hold-filter",
            "1d-filters", "even-filters", "empty-filters", "filters-too-big",
            "mixed-filter-shapes", "missing-sigma", "short-sigma",
            "zero-sigma"])
    def test_invalid_layer_rejected(self, tmp_path, mutate):
        doc = saved_doc(hand_model(), tmp_path / "m.json")
        mutate(doc["payload"]["stage1"]["face"]["layers"][0])
        with pytest.raises(ModelFormatError):
            load_model(write_doc(doc, tmp_path / "bad.json"))

    @pytest.mark.parametrize("model,mutate", [
        ("kvrl", lambda p: p["classifier"].update(dropout_input=1.5)),
        ("kvrl", lambda p: p["classifier"].update(dropout_input=np.nan)),
        ("kvrl", lambda p: p["classifier"].update(dropout_hidden=-0.1)),
        ("kvrl", lambda p: p["classifier"]["biases"].pop()),
        ("plr", lambda p: p["k_kin"].update(
            variances=doc_array([-1.0, 1.0]))),
        ("plr", lambda p: p["s_genuine"].update(
            variances=doc_array([0.0, 1.0]))),
        ("plr", lambda p: p["s_impostor"].update(
            weights=doc_array([-0.5, 1.5]))),
        ("plr", lambda p: p["s_genuine"].update(
            weights=doc_array([0.0, 0.0]))),
        ("plr", lambda p: p["s_genuine"].update(
            weights=doc_array([5.0, 7.0]))),
        ("svm", lambda p: p.update(b=np.nan)),
        ("svm", lambda p: p.update(margin=np.inf)),
        ("svm", lambda p: p.update(w=doc_array(np.zeros(5)))),
        ("svm", lambda p: p.update(feat_std=doc_array([0.0, 1.0]))),
        ("svm", lambda p: p.update(feat_std=doc_array([-1.0, 1.0]))),
        ("svm", lambda p: p.update(degenerate=True, majority=7)),
        ("plr", lambda p: p["k_kin"].update(
            weights=doc_array([]), means=doc_array([]),
            variances=doc_array([]))),
        ("kvrl", lambda p: p["stage2"].update(layers=[])),
    ], ids=["dropout-above-1", "nan-dropout", "negative-dropout",
            "missing-bias", "negative-variance", "zero-variance",
            "negative-weight", "zero-weight-sum", "weights-sum-above-1",
            "nan-svm-b", "inf-svm-margin", "svm-shape-mismatch",
            "zero-feat-std", "negative-feat-std", "majority-7",
            "empty-mixture", "empty-stack"])
    def test_out_of_range_value_rejected(self, tmp_path, model, mutate):
        assert_fails_closed(tmp_path, model, mutate)

    @pytest.mark.parametrize("model,mutate", [
        ("kvrl", lambda p: p.update(region_size=4.9)),
        ("svm", lambda p: p.update(degenerate="no")),
        ("svm", lambda p: p.update(majority=1.7)),
        ("svm", lambda p: p.update(b="1e3")),
        ("kvrl", lambda p: p["stage1"]["face"]["layers"][0].update(
            alpha="0.05")),
        ("kvrl", lambda p: p["stage1"]["face"]["layers"][0].update(
            alpha=True)),
        ("kvrl", lambda p: p["classifier"].update(dropout_input="0")),
        ("plr", lambda p: p["k_kin"].update(loglik_history=[])),
        ("kvrl", lambda p: p.update(comment="")),
    ], ids=["float-region-size", "string-degenerate", "float-majority",
            "string-svm-b", "string-alpha", "bool-alpha",
            "string-dropout", "unknown-mixture-key", "unknown-payload-key"])
    def test_wrong_typed_value_rejected(self, tmp_path, model, mutate):
        assert_fails_closed(tmp_path, model, mutate)

    @pytest.mark.parametrize("mutate", [
        lambda p: p["stage1"]["face"]["layers"][0].update(
            filters=[doc_array(np.full((3, 3), np.finfo(float).max))] * 2),
        lambda p: p["stage1"]["face"]["layers"][0].update(
            sigma=doc_array(np.full(16, 5e-324))),
        lambda p: p["classifier"]["weights"][0].update(
            doc_array(np.full((4, 3), np.finfo(float).max))),
        lambda p: p["stage2"]["layers"][0]["W"].update(
            doc_array(np.full((9, 4), -1.01 * storage.MAX_STORED_ABS))),
        lambda p: p["stage1"]["face"]["layers"][0].update(
            sigma=doc_array(np.full(16, SIGMA_MIN * 0.99))),
    ], ids=["max-filters", "subnormal-sigma", "max-classifier-weight",
            "weight-past-bound", "sigma-below-floor"])
    def test_values_that_overflow_encoding_rejected(self, tmp_path, mutate):
        assert_fails_closed(tmp_path, "kvrl", mutate)

    @pytest.mark.parametrize("n_filters", [1, 6])
    def test_values_at_the_bounds_encode_finite(self, tmp_path, n_filters):
        """Every array at +-MAX_STORED_ABS and sigma at SIGMA_MIN."""
        model = hand_model(n_filters=n_filters)
        for stack in [*model.stage1.values(), model.stage2]:
            for layer in stack.layers:
                for a in [layer.W, layer.a, layer.b, *layer.filters]:
                    a[...] = storage.MAX_STORED_ABS
                if layer.sigma is not None:
                    layer.sigma[...] = SIGMA_MIN
        for a in model.classifier.weights + model.classifier.biases:
            a[...] = -storage.MAX_STORED_ABS
        model = load_model(write_doc(saved_doc(model, tmp_path / "m.json"),
                                     tmp_path / "bounds.json"))
        spike = np.zeros((64, 64))
        spike[20, 20] = 1.0
        codes = encode_images(model, [FUZZ_FACE, spike])
        assert np.isfinite(codes).all()
        assert np.isfinite(score_pairs(model.classifier, codes[:1],
                                       codes[1:])).all()

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(regions=["face", "t_region", "nose"],
                           stage1={**p["stage1"],
                                   "nose": p["stage1"]["not_t"]}),
        lambda p: p.update(regions=["face", "face", "not_t"]),
        lambda p: p.update(region_size=16),
        lambda p: p.update(region_size=0),
        lambda p: p.update(region_size=-4),
        lambda p: p["fractions"].update(eye_rows=[0.25]),
        lambda p: p["fractions"].update(nose_rows=[0.75, 0.25]),
        lambda p: p["fractions"].update(nose_cols=[0.35, 7.0]),
        lambda p: p["stage1"]["face"]["layers"][0].update(
            image_shape=[2, 8], filters=[doc_array(np.ones((1, 1)))]),
    ], ids=["unknown-region", "repeated-region", "region-size-vs-width", "zero-region-size",
            "negative-region-size", "one-element-range", "reversed-range",
            "range-past-1", "filter-image-shape-vs-region-size"])
    def test_uncuttable_geometry_rejected(self, tmp_path, mutate):
        doc = saved_doc(hand_model(), tmp_path / "m.json")
        mutate(doc["payload"])
        with pytest.raises(ModelFormatError):
            load_model(write_doc(doc, tmp_path / "bad.json"))

    def test_top_edge_ranges_load_and_encode(self, tmp_path):
        doc = saved_doc(hand_model(), tmp_path / "m.json")
        doc["payload"]["fractions"].update(eye_rows=[0.995, 1.0],
                                           nose_rows=[0.995, 1.0])
        model = load_model(write_doc(doc, tmp_path / "edge.json"))
        code = encode_images(model, [FUZZ_FACE])
        assert code.shape == (1, 2) and np.isfinite(code).all()

    def test_payload_list_fails_closed(self, tmp_path):
        doc = saved_doc(hand_model(), tmp_path / "m.json")
        doc["payload"] = [1, 2]
        with pytest.raises(ModelFormatError):
            load_model(write_doc(doc, tmp_path / "bad.json"))


def doc_tree(value):
    """A model value as the JSON tree its document holds: a dataclass as its
    fields not marked ``saved=False``, an array as ``doc_array``."""
    if dataclasses.is_dataclass(value):
        return {f.name: doc_tree(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.metadata.get("saved", True)}
    if isinstance(value, np.ndarray):
        return doc_array(value)
    if isinstance(value, dict):
        return {key: doc_tree(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [doc_tree(v) for v in value]
    return value


def reference_bytes(model):
    """A model's file as built whole: ``json.dumps`` of its document, each
    array as the base64 of its ``tobytes()``."""
    kind = {cls: k for k, cls in storage._KINDS.items()}[type(model)]
    doc = {"format": "fcdbn-model", "version": 2, "kind": kind,
           "payload": doc_tree(model)}
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def escaped_names_model():
    """A hand_model whose region names need JSON escapes, one of them shaped
    like ``"<32 hex>:<k>"``. save_model does not validate, so they need not
    form a loadable model."""
    model = hand_model()
    model.regions = ('fa"ce', "back\\slash", "new\nline é",
                     f"{'0123456789abcdef' * 2}:0")
    model.stage1 = dict(zip(model.regions, [*model.stage1.values()] * 2))
    return model


def edge_array_model(classifier=True):
    """A hand_model whose arrays include the values and layouts a chunked
    encoder could get wrong. save_model does not validate, so they need not
    form a loadable model."""
    model = hand_model(classifier=classifier)
    rng = np.random.default_rng(5)
    w = model.stage1["face"].layers[0].W
    w[0, :3], w[1, :2] = SPECIAL_VALUES[:3], SPECIAL_VALUES[3:]
    # one chunk and one value more: 196,616 bytes, not a multiple of 3
    model.stage2.layers[0].a = rng.normal(size=storage._CHUNK // 8 + 1)
    model.stage2.layers[1].a = np.zeros((0, 3))
    model.stage2.layers[1].b = rng.normal(size=(4, 5)).T  # not C-contiguous
    model.stage1["not_t"].layers[0].b = rng.normal(size=16).astype(">f8")
    return model


class TestStreamingSave:
    @pytest.mark.parametrize("chunk", [3, 48, storage._CHUNK])
    @pytest.mark.parametrize("make", [
        lambda: hand_model(),
        lambda: hand_model(classifier=False),
        lambda: hand_model(n_filters=0, gaussian=False),
        edge_array_model,
        lambda: edge_array_model(classifier=False),
        lambda: fusion_model("plr"),
        lambda: fusion_model("svm"),
        escaped_names_model,
    ], ids=["kvrl-filtered-gaussian", "kvrl-no-classifier", "kvrl-plain",
            "kvrl-edge-arrays", "kvrl-edge-arrays-no-classifier", "plr",
            "svm", "kvrl-escaped-names"])
    def test_file_equals_whole_text_dump(self, tmp_path, monkeypatch, make,
                                         chunk):
        model = make()
        monkeypatch.setattr(storage, "_CHUNK", chunk)
        save_model(model, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_bytes() == reference_bytes(model)

    def test_save_peak_memory_is_a_fraction_of_the_largest_array(
            self, tmp_path):
        model = hand_model()
        big = np.random.default_rng(0).normal(size=(2048, 1024))  # 16 MiB
        model.stage2.layers[0].W = big
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes / 2
        assert (tmp_path / "m.json").read_bytes() == reference_bytes(model)


def _doc_paths(node, prefix=()):
    """Every key / index path into a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _doc_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_docs(tmp_path_factory):
    """Saved tiny KVRL, PLR and SVM documents, as JSON text."""
    fused = fit_fusion(synth_scores(1, 60, 60), n_components=2, seed=1)
    path = tmp_path_factory.mktemp("docs") / "m.json"
    docs = []
    for model in (hand_model(), fused.plr, fused.svm):
        save_model(model, path)
        docs.append(path.read_text())
    return docs


FUZZ_FACE = RngStream(seed=21).uniform01(64 * 64).reshape(64, 64)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)


class TestMutatedDocuments:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutation_loads_or_fails_closed(self, fuzz_docs, tmp_path_factory,
                                            data):
        doc = json.loads(data.draw(st.sampled_from(fuzz_docs)))
        path = data.draw(st.sampled_from(list(_doc_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
        target = tmp_path_factory.getbasetemp() / "fuzz.json"
        target.write_text(json.dumps(doc))
        try:
            model = load_model(target)
        except ModelFormatError:
            return
        if isinstance(model, KvrlModel):
            code = encode_images(model, [FUZZ_FACE])
            assert code.shape == (1, model.stage2.layer_dims[-1])
            assert np.isfinite(code).all()


class TestAtomicWrite:
    def test_failed_replace_leaves_old_file_and_no_temp(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(storage.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_save_failing_in_the_encoder_after_an_array_leaves_old_file(
            self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        path.write_bytes(b"old")
        real, calls = storage._b64_chunks, []

        def encoder(a):
            calls.append(a.size)
            if len(calls) == 2:
                raise MemoryError("encoder failed")
            return real(a)

        monkeypatch.setattr(storage, "_b64_chunks", encoder)
        with pytest.raises(MemoryError, match="encoder failed"):
            save_model(hand_model(), path)
        assert len(calls) == 2
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["model.json"]

    def test_save_failing_to_write_after_an_array_leaves_old_file(
            self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        path.write_bytes(b"old")
        written = []

        class FullDisk(io.BufferedWriter):
            # the first write after one whole array object fails
            def write(self, chunk):
                if b'"shape"' in b"".join(written):
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(bytes(chunk))
                return super().write(chunk)

        monkeypatch.setattr(storage.os, "fdopen",
                            lambda fd, mode: FullDisk(io.FileIO(fd, mode)))
        with pytest.raises(OSError, match="No space left"):
            save_model(hand_model(), path)
        assert b'"f8": "' in b"".join(written)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["model.json"]

    def test_written_file_gets_the_default_mode(self, tmp_path):
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"x")
        atomic_write_bytes(tmp_path / "atomic.bin", b"x")
        assert (os.stat(tmp_path / "atomic.bin").st_mode
                == os.stat(plain).st_mode)

    def test_written_file_follows_the_umask_at_write_time(self, tmp_path):
        old = os.umask(0o027)
        try:
            save_pgm(tmp_path / "face.pgm", np.zeros((64, 64)))
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "face.pgm").st_mode & 0o777 == 0o640

    def test_concurrent_saves_to_one_path_both_succeed(self, tmp_path):
        path = tmp_path / "model.json"
        models = [hand_model(seed=1), hand_model(seed=2)]
        expected = []
        for i, model in enumerate(models):
            save_model(model, tmp_path / f"ref{i}.json")
            expected.append((tmp_path / f"ref{i}.json").read_bytes())
        barrier = threading.Barrier(2)
        errors = []

        def writer(model):
            try:
                for _ in range(30):
                    barrier.wait(timeout=10)
                    save_model(model, path)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(m,))
                       for m in models]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_bytes() in expected
        assert sorted(os.listdir(tmp_path)) == ["model.json", "ref0.json",
                                                "ref1.json"]


class TestManifest:
    def pairs(self):
        return [
            KinPair("a.pgm", "b.pgm", "kin", "FS", "f0_p", "f0_c"),
            KinPair("c.pgm", "d.pgm", "nonkin", "MD", "f1_m", "f2_d"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, self.pairs())
        assert read_manifest(path) == self.pairs()

    def test_round_trip_quotes_commas_quotes_and_line_breaks(self, tmp_path):
        pairs = [KinPair("a,1.pgm", 'b "2".pgm', "kin", "FS", "f0\np", "f0\r\nc"),
                 KinPair("c.pgm", "d.pgm", "nonkin", "MD", "", "f2_d")]
        path = tmp_path / "manifest.csv"
        write_manifest(path, pairs)
        assert read_manifest(path) == pairs

    def test_plain_fields_are_written_unquoted(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, self.pairs())
        assert path.read_text() == (
            "path_a,path_b,label,relation,subject_a,subject_b\n"
            "a.pgm,b.pgm,kin,FS,f0_p,f0_c\nc.pgm,d.pgm,nonkin,MD,f1_m,f2_d\n")

    def test_write_csv_quotes_only_fields_that_need_it(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [["a,b", 'say "hi"', "two\nlines"], ["0.5", "-1e-05", "nan"]]
        write_csv(path, ("x", "y", "z"), rows + [[0.25, -0.0, float("inf")]])
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["x", "y", "z"], *rows,
                                            ["0.25", "-0.0", "inf"]]
        assert path.read_text().endswith(
            '"two\nlines"\n0.5,-1e-05,nan\n0.25,-0.0,inf\n')

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a.pgm,b.pgm,kin,FS,x,y\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_bad_relation_rejected(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("path_a,path_b,label,relation,subject_a,subject_b\n"
                        "a.pgm,b.pgm,kin,XX,x,y\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("path_a,path_b,label,relation,subject_a,subject_b\n"
                        "a.pgm,b.pgm,maybe,FS,x,y\n")
        with pytest.raises(ValueError):
            read_manifest(path)
