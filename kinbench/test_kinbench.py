"""The benchmark's own checks: reference encoder and tracer on tiny models.

Runs in a few seconds: ``PYTHONPATH=src python -m pytest kinbench``.
"""
import numpy as np
import pytest

import fcdbn
import fcdbn.cli  # noqa: F401  (loaded so the tracer wraps it)
import fcdbn.rbm
import refmodel
import tracer as tracing


@pytest.fixture(scope="module")
def tiny():
    corpus, train_pairs, test_pairs = fcdbn.make_kin_benchmark(
        seed=5, n_families=6, members_per_family=4, separability=0.8,
        n_test_pairs=8, corpus_families=4)
    cfg = fcdbn.RunConfig(seed=5, epochs=2, batch_size=8,
                          stage1_dims=(1024, 8, 4), stage2_dims=(12, 6, 4),
                          classifier_hidden=(4,), classifier_epochs=5,
                          n_filters=2, dropout_input=0.0, dropout_hidden=0.0)
    model = fcdbn.train_kvrl(corpus, train_pairs, cfg)
    return model, [img for a, b, _ in test_pairs for img in (a, b)]


def test_reference_regions_match_program(tiny):
    model, images = tiny
    for img in images[:4]:
        prog = fcdbn.extract_regions(img, model.fractions, model.region_size)
        ref = refmodel.regions(img, model.fractions, model.region_size)
        for name in ("face", "t_region", "not_t"):
            np.testing.assert_allclose(ref[name], prog.get(name), atol=1e-12)


def test_reference_encoder_and_scorer_match_program(tiny):
    model, images = tiny
    assert model.stage1["face"].layers[0].filters  # filtered path covered
    codes = [refmodel.encode_image(model, img) for img in images]
    for img, ref in zip(images, codes):
        code = fcdbn.encode_face(model, fcdbn.extract_regions(img))
        np.testing.assert_allclose(ref, code, rtol=0, atol=1e-12)
    ra, rb = fcdbn.extract_regions(images[0]), fcdbn.extract_regions(images[1])
    assert abs(fcdbn.kin_score(model, ra, rb)
               - refmodel.pair_score(model, codes[0], codes[1])) < 1e-12


def test_pairwise_auc_matches_roc_with_ties():
    rng = np.random.default_rng(0)
    scores = np.round(rng.normal(size=200), 1)
    labels = (rng.random(200) < 0.4).astype(int)
    assert refmodel.pairwise_auc(scores, labels) == pytest.approx(
        fcdbn.roc(scores, labels).auc, abs=1e-12)
    assert refmodel.pairwise_auc([0.1, 0.9], [0, 1]) == 1.0


def test_roundtrip_mismatch_finds_one_changed_bit(tiny, tmp_path):
    model, _ = tiny
    path = tmp_path / "m.json"
    fcdbn.save_model(model, str(path))
    loaded = fcdbn.load_model(str(path))
    assert refmodel.roundtrip_mismatches(model, loaded) == []
    w = loaded.stage2.layers[0].W
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    assert refmodel.roundtrip_mismatches(model, loaded) == ["stage2.layer0.W"]


def test_tracer_counts_calls_under_every_binding(tiny):
    model, images = tiny
    original = fcdbn.kvrl.encode
    tr = tracing.Tracer()
    tr.install()
    try:
        fcdbn.encode_face(model, fcdbn.extract_regions(images[0]))
        with tr.paused():
            fcdbn.encode_face(model, fcdbn.extract_regions(images[0]))
    finally:
        tr.uninstall()
    assert fcdbn.kvrl.encode is original
    # one face: three stage-1 stacks plus the stage-2 stack
    assert tr.stat("deepnet.encode")[0] == 4
    assert tr.stat("deepnet.encode", caller="kvrl")[0] == 4
    # filtered first layers: 3 regions x 2 filters
    assert tr.stat("core.conv2d_same", caller="rbm")[0] == 6
    calls, incl, self_s = tr.stat("kvrl.encode_face")
    assert calls == 1 and 0.0 < self_s < incl
    values, absent = tracing.read_metrics(tr, "job")
    assert values["kvrl.encode_face.distinct_ratio"][0] == 1.0
    assert values["deepnet.encode.rows_per_call"][0] == 1.0
    assert not absent


def test_metric_is_absent_when_its_name_is_gone(monkeypatch):
    monkeypatch.delattr(fcdbn.rbm, "conv2d_same")
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    values, absent = tracing.read_metrics(tr, "job")
    assert "rbm.conv2d_same.calls" in absent
    assert "deepnet.encode.calls" in values
