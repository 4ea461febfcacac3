import json
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

import fcdbn.kvrl
from fcdbn.config import RunConfig
from fcdbn.core import RngStream
from fcdbn.deepnet import encode
from fcdbn.evaluation import roc
from fcdbn.kvrl import (
    DEFAULT_REGIONS,
    EXTRA_REGIONS,
    KvrlModel,
    ModelStateError,
    RegionFractions,
    RegionSet,
    _span,
    cut_regions,
    encode_face,
    encode_images,
    extract_regions,
    kin_score,
    pair_features,
    pretrain_stages,
    resize_bilinear,
    score_pairs,
    standardize,
    t_mask,
    train_kvrl,
)
from fcdbn.rbm import RbmLayer
from fcdbn.storage import load_model, save_model
from fcdbn.synth import make_kin_benchmark


ALL_REGIONS = DEFAULT_REGIONS + EXTRA_REGIONS


def zero_stack(dims):
    from fcdbn.deepnet import DbnStack
    layers = [RbmLayer(W=np.zeros((dims[i], dims[i + 1])),
                       a=np.zeros(dims[i + 1]), b=np.zeros(dims[i]))
              for i in range(len(dims) - 1)]
    return DbnStack(layers=layers)


def zero_model():
    return KvrlModel(
        stage1={"face": zero_stack([1024, 8]),
                "t_region": zero_stack([1024, 8]),
                "not_t": zero_stack([1024, 8])},
        stage2=zero_stack([24, 8]),
    )


def reference_prepare(image, size):
    """One-image resize and standardize, as the cutter did before stacks."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if (h, w) != (size, size):
        r_src = np.clip((np.arange(size) + 0.5) * (h / size) - 0.5, 0, h - 1)
        c_src = np.clip((np.arange(size) + 0.5) * (w / size) - 0.5, 0, w - 1)
        r0 = np.floor(r_src).astype(int)
        c0 = np.floor(c_src).astype(int)
        r1 = np.minimum(r0 + 1, h - 1)
        c1 = np.minimum(c0 + 1, w - 1)
        fr = (r_src - r0)[:, None]
        fc = (c_src - c0)[None, :]
        top = image[np.ix_(r0, c0)] * (1 - fc) + image[np.ix_(r0, c1)] * fc
        bot = image[np.ix_(r1, c0)] * (1 - fc) + image[np.ix_(r1, c1)] * fc
        image = top * (1 - fr) + bot * fr
    std = image.std()
    if std < 1e-8:
        return np.zeros_like(image)
    return (image - image.mean()) / std


def reference_regions(aligned_face, fractions=None, size=32,
                      extras=("binocular", "chin")):
    """Every crop of one face, cut one image at a time: name -> array."""
    img = np.asarray(aligned_face, dtype=np.float64)
    fractions = fractions or RegionFractions()
    mean = img.mean()
    mask = t_mask(img.shape, fractions)
    rows = np.where(mask.any(axis=1))[0]
    cols = np.where(mask.any(axis=0))[0]
    t_crop = np.where(mask, img, mean)[rows[0]:rows[-1] + 1,
                                       cols[0]:cols[-1] + 1]
    out = {"face": reference_prepare(img, size),
           "t_region": reference_prepare(t_crop, size),
           "not_t": reference_prepare(np.where(mask, mean, img), size)}
    extra_rows = {"binocular": fractions.eye_rows, "chin": fractions.chin_rows}
    for name in extras:
        r0, r1 = _span(extra_rows[name], img.shape[0])
        out[name] = reference_prepare(img[r0:r1, :], size)
    return out


def composed_code(model, crops):
    """A face's code composed by hand from its named (size, size) crops."""
    return encode(model.stage2, np.hstack(
        [encode(model.stage1[name], crops[name].ravel())
         for name in model.regions]))


def tiny_config(seed=0, **overrides):
    base = dict(
        seed=seed, epochs=4, batch_size=16, learning_rate=0.05,
        stage1_dims=(1024, 16, 8), stage2_dims=(24, 16, 8),
        classifier_hidden=(8,), classifier_epochs=60,
        classifier_learning_rate=1.0, classifier_batch_size=1024,
        n_filters=2, alpha=0.05, beta=1e-4,
        dropout_input=0.0, dropout_hidden=0.0,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestExtractRegions:
    def test_constant_image_gives_constant_regions(self):
        regions = extract_regions(np.full((64, 64), 0.3))
        # standardization maps a constant crop to all zeros
        for crop in (regions.face, regions.t_region, regions.not_t):
            assert crop.shape == (32, 32)
            assert np.all(crop == 0.0)

    def test_marker_visible_in_face_and_t_but_not_not_t(self):
        img = np.full((64, 64), 0.5)
        img[20, 32] = 1.0  # inside the eye strip (rows 16..29)
        regions = extract_regions(img)
        # the lone bright pixel is an extreme outlier after z-scoring
        assert regions.face.max() > 10.0
        assert regions.t_region.max() > 10.0
        # in not-T the marker area is mean-filled: no outlier survives
        assert regions.not_t.max() < 3.0

    def test_standardized_moments(self):
        img = RngStream(seed=0).uniform01(64 * 64).reshape(64, 64)
        regions = extract_regions(img)
        for crop in (regions.face, regions.t_region, regions.not_t):
            assert abs(crop.mean()) < 1e-10
            assert abs(crop.var() - 1.0) < 1e-10

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            extract_regions(np.zeros((32, 32)))

    def test_face_channel_idempotent(self):
        stack = RngStream(seed=1).uniform01(3 * 32 * 32).reshape(3, 32, 32)
        once = standardize(resize_bilinear(stack, 32, 32))
        twice = standardize(resize_bilinear(once, 32, 32))
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_extra_crops_cut_on_request(self):
        img = RngStream(seed=2).uniform01(64 * 64).reshape(64, 64)
        crops = next(cut_regions([img], names=("binocular", "chin")))
        assert list(crops) == ["binocular", "chin"]
        for crop in crops.values():
            assert crop.shape == (1, 32, 32)

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            next(cut_regions([np.zeros((64, 64))], names=("nose_only",)))

    def test_region_set_serves_the_default_names_only(self):
        img = RngStream(seed=16).uniform01(64 * 64).reshape(64, 64)
        regions = extract_regions(img)
        assert [f.name for f in fields(RegionSet)] == list(DEFAULT_REGIONS)
        for name in DEFAULT_REGIONS:
            assert regions.get(name) is getattr(regions, name)
        for name in EXTRA_REGIONS + ("nose_only",):
            with pytest.raises(KeyError):
                regions.get(name)

    def test_mask_geometry(self):
        mask = t_mask((64, 64), RegionFractions())
        assert mask[20, 0] and mask[20, 63]  # eye strip spans full width
        assert mask[40, 32] and not mask[40, 0]  # nose column is narrow
        assert not mask[60, 32]  # chin area untouched


class TestCutRegions:
    @staticmethod
    def images():
        corpus, pairs, _ = make_kin_benchmark(
            seed=14, n_families=4, members_per_family=3, separability=0.8,
            n_test_pairs=4, corpus_families=3)
        stream = RngStream(seed=15)
        images = list(corpus[:6]) + [a for a, _, _ in pairs[:4]]
        images += [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(6)]
        images += [np.full((64, 64), 0.3), np.zeros((64, 64))]
        images.append(stream.uniform01(64 * 64).reshape(64, 64)
                      .astype(np.float32))
        # 19 images: not a multiple of the block size
        assert len(images) % fcdbn.kvrl._BLOCK != 0
        return images

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("fractions", [
        None,
        RegionFractions(eye_rows=(0.2, 0.5), chin_rows=(0.6, 1.0)),
        RegionFractions(eye_rows=(0.0, 0.1), nose_rows=(0.1, 0.99),
                        nose_cols=(0.01, 0.02), chin_rows=(0.9, 0.99)),
    ])
    def test_equals_one_image_at_a_time(self, size, fractions):
        images = self.images()
        blocks = list(cut_regions(images, fractions, size, ALL_REGIONS))
        assert [len(b["face"]) for b in blocks[:-1]] == [
            fcdbn.kvrl._BLOCK] * (len(blocks) - 1)
        assert all(list(crops) == list(ALL_REGIONS) for crops in blocks)
        stacks = {name: np.concatenate([b[name] for b in blocks])
                  for name in ALL_REGIONS}
        for i, img in enumerate(images):
            for name, crop in reference_regions(img, fractions, size).items():
                assert stacks[name].shape == (len(images), size, size)
                assert np.array_equal(stacks[name][i], crop)

    @pytest.mark.parametrize("names", [("chin",), ("t_region",),
                                       ("binocular", "face")])
    def test_cuts_only_the_names_asked_for(self, names):
        images = self.images()
        part = list(cut_regions(images, names=names))
        full = list(cut_regions(images, names=ALL_REGIONS))
        assert all(list(crops) == list(names) for crops in part)
        for name in names:
            assert np.array_equal(np.concatenate([c[name] for c in part]),
                                  np.concatenate([c[name] for c in full]))
        with pytest.raises(ValueError):
            next(cut_regions(images, names=names + ("nose",)))

    def test_stack_array_and_one_image_callers_agree(self):
        images = self.images()[:-1]  # one dtype, so they stack
        from_list = list(cut_regions(images))
        from_array = list(cut_regions(np.stack(images)))
        for name in DEFAULT_REGIONS:
            listed = np.concatenate([c[name] for c in from_list])
            assert np.array_equal(listed, np.concatenate(
                [c[name] for c in from_array]))
            for img, crop in zip(images, listed):
                assert np.array_equal(crop, extract_regions(img).get(name))
                # an explicit None cuts the default geometry too
                assert np.array_equal(crop, extract_regions(img, None).get(name))

    def test_cached_cut_plans_are_read_only(self):
        fractions = RegionFractions(eye_rows=(0.2, 0.5), chin_rows=(0.6, 1.0))
        names = ("face", "t_region", "not_t", "chin")
        table = fcdbn.kvrl._crop_table(fractions, names)
        # equal fractions and names give the same table, built once
        assert fcdbn.kvrl._crop_table(RegionFractions(
            eye_rows=[0.2, 0.5], chin_rows=(0.6, 1.0)), names) is table
        assert [name for name, *_ in table] == list(names)
        plan = fcdbn.kvrl._resize_plan(14, 64, 32, 32)
        arrays = [fill for _, fill, _, _ in table if fill is not None]
        for a in arrays + list(plan):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
        img = RngStream(seed=20).uniform01(64 * 64).reshape(64, 64)
        for _ in range(2):  # the second cut reads the cached plans
            crops = next(cut_regions([img], fractions, 32, names))
            ref = reference_regions(img, fractions, extras=("chin",))
            for name, crop in ref.items():
                assert np.array_equal(crops[name][0], crop)

    def test_equal_geometries_share_one_crop_table(self, tmp_path):
        table = fcdbn.kvrl._crop_table(RunConfig().region_fractions(),
                                       DEFAULT_REGIONS)
        # a model document may hold JSON ints, such as chin_rows [0.65, 1]
        model = zero_model()
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["payload"]["fractions"]["chin_rows"] = [0.65, 1]
        (tmp_path / "ints.json").write_text(json.dumps(doc, sort_keys=True))
        loaded = load_model(tmp_path / "ints.json").fractions
        assert loaded.chin_rows == (0.65, 1)
        assert type(loaded.chin_rows[1]) is int
        listed = RegionFractions(eye_rows=[0.25, 0.45], nose_rows=[0.25, 0.75],
                                 nose_cols=[0.35, 0.65], chin_rows=[0.65, 1.0])
        assert listed.eye_rows == (0.25, 0.45)
        for fractions in (loaded, listed, model.fractions):
            assert fcdbn.kvrl._crop_table(fractions, DEFAULT_REGIONS) is table
        with pytest.raises(FrozenInstanceError):
            loaded.chin_rows = (0.6, 1.0)
        # a re-saved model keeps the ints, byte for byte
        save_model(load_model(tmp_path / "ints.json"), tmp_path / "again.json")
        assert ((tmp_path / "again.json").read_bytes()
                == (tmp_path / "ints.json").read_bytes())
        save_model(load_model(tmp_path / "m.json"), tmp_path / "m2.json")
        assert (tmp_path / "m2.json").read_bytes() == (
            tmp_path / "m.json").read_bytes()

    def test_names_given_as_a_list_cut_as_a_tuple(self):
        images = self.images()
        names = ["chin", "face"]
        for listed, given in zip(cut_regions(images, names=names),
                                 cut_regions(images, names=tuple(names))):
            assert list(listed) == names
            for name in names:
                assert np.array_equal(listed[name], given[name])

    @pytest.mark.parametrize("field", ["eye_rows", "nose_rows", "chin_rows"])
    def test_top_edge_range_cuts_the_last_row(self, field):
        img = RngStream(seed=17).uniform01(64 * 64).reshape(64, 64)
        fractions = RegionFractions(**{field: (0.995, 1.0)})
        assert _span((0.995, 1.0), 64) == (63, 64)
        crops = next(cut_regions([img], fractions, 32, ALL_REGIONS))
        ref = reference_regions(img, fractions)
        for name, crop in ref.items():
            assert np.array_equal(crops[name][0], crop)
        if field == "chin_rows":
            last = standardize(resize_bilinear(img[None, 63:], 32, 32))
            assert np.array_equal(crops["chin"], last)


class TestEncodeFace:
    def test_zero_model_gives_half(self):
        regions = extract_regions(np.full((64, 64), 0.1))
        out = encode_face(zero_model(), regions)
        assert out.shape == (8,)
        assert np.allclose(out, 0.5, atol=0)

    def test_deterministic(self):
        img = RngStream(seed=3).uniform01(64 * 64).reshape(64, 64)
        regions = extract_regions(img)
        model = zero_model()
        assert np.array_equal(encode_face(model, regions),
                              encode_face(model, regions))

    def test_matches_manual_stack_composition(self):
        stream = RngStream(seed=4)
        corpus = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(8)]
        model = pretrain_stages(corpus, tiny_config())
        regions = extract_regions(corpus[0])
        parts = [encode(model.stage1[name], regions.get(name).ravel())
                 for name in model.regions]
        manual = encode(model.stage2, np.concatenate(parts))
        assert np.max(np.abs(encode_face(model, regions) - manual)) < 1e-15


class TestEncodeImages:
    @pytest.mark.parametrize("regions", [("face", "t_region", "not_t"),
                                         ("face", "chin", "binocular")])
    def test_rows_equal_encode_face(self, regions):
        stream = RngStream(seed=12)
        corpus = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(6)]
        model = pretrain_stages(corpus, tiny_config(epochs=1, regions=regions))
        codes = encode_images(model, corpus)
        assert codes.shape == (6, 8)
        for row, img in zip(codes, corpus):
            crops = next(cut_regions([img], model.fractions, model.region_size,
                                     model.regions))
            assert np.array_equal(row, composed_code(
                model, {name: crop[0] for name, crop in crops.items()}))
            one_face = extract_regions(img, model.fractions, model.region_size)
            if regions == DEFAULT_REGIONS:
                assert np.array_equal(row, encode_face(model, one_face))
            else:  # a RegionSet holds no extra crops
                with pytest.raises(KeyError):
                    encode_face(model, one_face)

    def test_rows_over_several_blocks_equal_encode_face(self):
        stream = RngStream(seed=18)
        n = 2 * fcdbn.kvrl._BLOCK + 3
        images = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(n)]
        model = pretrain_stages(images[:6], tiny_config(
            epochs=1, regions=("face", "t_region", "not_t", "chin"),
            stage2_dims=(32, 16, 8)))
        codes = encode_images(model, images)
        assert codes.shape == (n, 8)
        for row, img in zip(codes, images):
            ref = reference_regions(img, extras=("chin",))
            assert np.array_equal(row, composed_code(model, ref))

    def test_each_image_object_encoded_once(self, monkeypatch):
        stream = RngStream(seed=13)
        corpus = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(4)]
        model = pretrain_stages(corpus, tiny_config(epochs=1))
        rows = []
        real = fcdbn.kvrl._encode_crops

        def counting(m, crops):
            rows.extend(crops["face"])
            return real(m, crops)

        images = [corpus[2], corpus[0], corpus[2].copy(), corpus[1],
                  corpus[0], corpus[0].astype(np.float32)]
        expected = np.stack([encode_face(model, extract_regions(img))
                             for img in images])
        monkeypatch.setattr(fcdbn.kvrl, "_encode_crops", counting)
        codes = encode_images(model, images)
        # corpus[2] and corpus[0] repeat as objects; the .copy() and the
        # float32 copy are objects of their own, so each is encoded
        assert len(rows) == 5
        assert np.array_equal(codes, expected)

    def test_repeats_share_a_row_and_copies_do_not(self, monkeypatch):
        stream = RngStream(seed=14)
        corpus = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(3)]
        model = pretrain_stages(corpus, tiny_config(epochs=1))
        img = corpus[0]
        changed = img.copy()
        changed[40, 7] = np.nextafter(changed[40, 7], 2.0)
        faces = []
        real = fcdbn.kvrl._encode_crops

        def counting(m, crops):
            faces.extend(crops["face"])
            return real(m, crops)

        images = [img, img.copy(), changed, np.asfortranarray(img), img,
                  img.astype(np.float32)]
        expected = np.stack([encode_face(model, extract_regions(i))
                             for i in images])
        monkeypatch.setattr(fcdbn.kvrl, "_encode_crops", counting)
        codes = encode_images(model, images)
        # img is encoded once for its two places; the C-order, Fortran-order
        # and float32 copies and the one-ulp change are encoded each
        assert len(faces) == 5
        assert np.array_equal(codes, expected)
        assert np.array_equal(codes[1], codes[0])
        assert np.array_equal(codes[3], codes[0])

    def test_a_generator_of_fresh_copies_encodes_each_copy(self, monkeypatch):
        stream = RngStream(seed=15)
        corpus = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(3)]
        model = pretrain_stages(corpus, tiny_config(epochs=1))
        faces = []
        real = fcdbn.kvrl._encode_crops

        def counting(m, crops):
            faces.extend(crops["face"])
            return real(m, crops)

        monkeypatch.setattr(fcdbn.kvrl, "_encode_crops", counting)
        # the generator drops each copy once it is drawn, so its id could go
        # to the next copy if encode_images did not hold every image
        codes = encode_images(model, (corpus[1].copy() for _ in range(5)))
        assert len(faces) == 5 and codes.shape == (5, 8)
        expected = encode_face(model, extract_regions(corpus[1]))
        assert all(np.array_equal(row, expected) for row in codes)

    def test_no_images_give_no_rows(self):
        codes = encode_images(zero_model(), [])
        assert codes.shape == (0, 8) and codes.dtype == np.float64

    @pytest.mark.parametrize("kind", ["plain", "filtered", "gaussian"])
    def test_rows_past_a_block_boundary_equal_encode_face(self, kind):
        stream = RngStream(seed=19)
        n = fcdbn.kvrl._BLOCK + 1
        images = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(n)]
        model = pretrain_stages(images[:6], tiny_config(
            epochs=1, n_filters=0 if kind == "plain" else 2,
            first_layer_gaussian=kind == "gaussian"))
        codes = encode_images(model, images)
        assert codes.shape == (n, 8)
        for row, img in zip(codes, images):
            assert np.array_equal(row, encode_face(model, extract_regions(img)))


class TestPairFeature:
    def test_halves_in_order(self):
        fa = np.zeros((1, 512))
        fb = np.ones((1, 512))
        feat = pair_features(fa, fb)
        assert feat.shape == (2, 1024)
        assert np.all(feat[0, :512] == 0.0) and np.all(feat[0, 512:] == 1.0)
        assert np.all(feat[1, :512] == 1.0) and np.all(feat[1, 512:] == 0.0)

    def test_self_pair_has_identical_halves(self):
        f = RngStream(seed=5).uniform01(512)[None]
        feat = pair_features(f, f)
        assert np.array_equal(feat[0, :512], feat[0, 512:])
        assert np.array_equal(feat[0], feat[1])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_features(np.zeros((1, 512)), np.zeros((1, 256)))

    def test_rows_interleave_both_orders_per_pair(self):
        stream = RngStream(seed=6)
        a = stream.uniform01(4 * 3).reshape(4, 3)
        b = stream.uniform01(4 * 3).reshape(4, 3)
        feat = pair_features(a, b)
        assert feat.shape == (8, 6)
        for i in range(4):
            assert np.array_equal(feat[2 * i], np.concatenate([a[i], b[i]]))
            assert np.array_equal(feat[2 * i + 1],
                                  np.concatenate([b[i], a[i]]))

    @pytest.mark.parametrize("shape_a,shape_b", [((512,), (512,)),
                                                 ((2, 4), (3, 4)),
                                                 ((1, 2, 4), (1, 2, 4))])
    def test_non_matrix_or_unequal_shapes_rejected(self, shape_a, shape_b):
        with pytest.raises(ValueError):
            pair_features(np.zeros(shape_a), np.zeros(shape_b))


class TestKinScore:
    def trained_model(self, seed=0):
        corpus, train_pairs, test_pairs = make_kin_benchmark(
            seed=seed, n_families=10, members_per_family=4, separability=0.9,
            n_test_pairs=40, corpus_families=6)
        model = train_kvrl(corpus, train_pairs, tiny_config(seed))
        return model, test_pairs

    def test_symmetry_is_exact(self):
        model, test_pairs = self.trained_model()
        a, b, _ = test_pairs[0]
        ra, rb = extract_regions(a), extract_regions(b)
        assert kin_score(model, ra, rb) == kin_score(model, rb, ra)

    def test_score_in_unit_interval(self):
        model, test_pairs = self.trained_model()
        for a, b, _ in test_pairs[:10]:
            s = kin_score(model, extract_regions(a), extract_regions(b))
            assert 0.0 <= s <= 1.0

    def test_score_pairs_symmetric_and_matches_kin_score(self):
        model, test_pairs = self.trained_model()
        images_a = [a for a, _, _ in test_pairs[:12]]
        images_b = [b for _, b, _ in test_pairs[:12]]
        codes_a = encode_images(model, images_a)
        codes_b = encode_images(model, images_b)
        forward = score_pairs(model.classifier, codes_a, codes_b)
        swapped = score_pairs(model.classifier, codes_b, codes_a)
        assert forward.shape == (12,)
        assert np.array_equal(forward, swapped)
        for s, a, b in zip(forward, images_a, images_b):
            ref = kin_score(model, extract_regions(a), extract_regions(b))
            assert abs(s - ref) <= 1e-12

    def test_equals_one_face_encodes_and_score_pairs(self):
        model, test_pairs = self.trained_model()
        for a, b, _ in test_pairs[:6]:
            ra, rb = extract_regions(a), extract_regions(b)
            ea, eb = encode_face(model, ra), encode_face(model, rb)
            expected = score_pairs(model.classifier, ea[None], eb[None])[0]
            assert kin_score(model, ra, rb) == float(expected)

    def test_untrained_classifier_rejected(self):
        model = zero_model()
        regions = extract_regions(np.full((64, 64), 0.2))
        with pytest.raises(ModelStateError):
            kin_score(model, regions, regions)


class TestTrainKvrl:
    def test_zero_classifier_epochs_scores_at_chance(self):
        corpus, train_pairs, test_pairs = make_kin_benchmark(
            seed=6, n_families=30, members_per_family=6, separability=0.8,
            n_test_pairs=500, corpus_families=6)
        cfg = tiny_config(6, classifier_epochs=0, epochs=3)
        model = train_kvrl(corpus, train_pairs, cfg)
        scores, labels = [], []
        for a, b, label in test_pairs:
            scores.append(kin_score(model, extract_regions(a),
                                    extract_regions(b)))
            labels.append(label)
        auc = roc(scores, labels).auc
        assert abs(auc - 0.5) < 0.07

    def test_empty_inputs_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            train_kvrl([], [(np.zeros((64, 64)), np.zeros((64, 64)), 1)], cfg)
        with pytest.raises(ValueError):
            train_kvrl([np.zeros((64, 64))], [], cfg)

    def test_training_is_deterministic(self):
        corpus, train_pairs, test_pairs = make_kin_benchmark(
            seed=8, n_families=8, members_per_family=4, separability=0.9,
            n_test_pairs=20, corpus_families=5)
        cfg = tiny_config(8)
        m1 = train_kvrl(corpus, train_pairs, cfg)
        m2 = train_kvrl(corpus, train_pairs, cfg)
        a, b, _ = test_pairs[0]
        ra, rb = extract_regions(a), extract_regions(b)
        assert kin_score(m1, ra, rb) == kin_score(m2, ra, rb)

    def test_learns_synthetic_kinship(self):
        corpus, train_pairs, test_pairs = make_kin_benchmark(
            seed=9, n_families=16, members_per_family=4, separability=0.9,
            n_test_pairs=80, corpus_families=12)
        cfg = tiny_config(9, epochs=10, classifier_epochs=400,
                          stage1_dims=(1024, 32, 16), stage2_dims=(48, 32, 16),
                          classifier_hidden=(16,))
        model = train_kvrl(corpus, train_pairs, cfg)
        scores, labels = [], []
        for a, b, label in test_pairs:
            scores.append(kin_score(model, extract_regions(a),
                                    extract_regions(b)))
            labels.append(label)
        assert roc(scores, labels).auc >= 0.8

    def test_each_distinct_image_encoded_once(self, monkeypatch):
        corpus, train_pairs, _ = make_kin_benchmark(
            seed=11, n_families=6, members_per_family=4, separability=0.9,
            n_test_pairs=4, corpus_families=3)
        distinct = {img.tobytes() for a, b, _ in train_pairs for img in (a, b)}
        assert len(distinct) < 2 * len(train_pairs)  # images recur across pairs
        faces = []
        real = fcdbn.kvrl._encode_crops

        def counting(model, crops):
            faces.extend(crop.tobytes() for crop in crops["face"])
            return real(model, crops)

        monkeypatch.setattr(fcdbn.kvrl, "_encode_crops", counting)
        train_kvrl(corpus, train_pairs,
                   tiny_config(11, epochs=1, classifier_epochs=2))
        assert len(faces) == len(set(faces)) == len(distinct)

    def test_face_only_configuration(self):
        corpus, train_pairs, _ = make_kin_benchmark(
            seed=10, n_families=8, members_per_family=4, separability=0.9,
            n_test_pairs=20, corpus_families=5)
        cfg = tiny_config(10, regions=("face",), stage2_dims=(8, 8),
                          stage1_dims=(1024, 16, 8))
        model = train_kvrl(corpus, train_pairs, cfg)
        assert model.regions == ("face",)
        a, b, _ = train_pairs[0]
        s = kin_score(model, extract_regions(a), extract_regions(b))
        assert 0.0 <= s <= 1.0
