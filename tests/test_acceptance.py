"""Acceptance suite: one test per release criterion, one printed line each.

Run with: pytest tests/test_acceptance.py -v -s
"""
import itertools
import json
import time

import numpy as np

from fcdbn.cli import run_command
from fcdbn.config import RunConfig
from fcdbn.core import RngStream
from fcdbn.deepnet import dropout_forward, mlp_init
from fcdbn.evaluation import (
    dprime,
    gen_negatives,
    information_entropy,
    make_folds,
    roc,
    stimulus_entropy,
)
from fcdbn.fusion import fit_fusion, fused_scores, synth_scores
from fcdbn.kvrl import encode_face, extract_regions, kin_score, pretrain_stages, train_kvrl
from fcdbn.rbm import (
    GAUSSIAN,
    RbmLayer,
    TrainConfig,
    cd_train,
    contractive_penalty,
    energy_bernoulli,
    fc_loss,
    fc_loss_grads,
    hidden_given_visible,
    init_layer,
    visible_given_hidden,
)
from fcdbn.storage import KinPair, load_model, save_model
from fcdbn.synth import make_kin_benchmark


def report(criterion, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


# -- shared benchmark configuration for criteria 5 and 6 ---------------------

BENCH_SEEDS = (0, 1, 2)
_BENCH_MEMO = {}


def bench_config(seed, n_filters, alpha, regions=("face", "t_region", "not_t")):
    return RunConfig(
        seed=seed, epochs=30, batch_size=32, learning_rate=0.05,
        stage1_dims=(1024, 48, 24), stage2_dims=(24 * len(regions), 48, 24),
        classifier_hidden=(16,), classifier_epochs=800,
        classifier_learning_rate=1.0, classifier_batch_size=2048,
        n_filters=n_filters, alpha=alpha, beta=1e-4,
        dropout_input=0.0, dropout_hidden=0.0, regions=regions,
    )


def bench_auc(seed, n_filters, alpha, regions=("face", "t_region", "not_t")):
    key = (seed, n_filters, alpha, regions)
    if key in _BENCH_MEMO:
        return _BENCH_MEMO[key]
    cfg = bench_config(seed, n_filters, alpha, regions)
    corpus, train_pairs, test_pairs = make_kin_benchmark(
        seed=seed, n_families=40, members_per_family=4, separability=0.8,
        n_test_pairs=200, corpus_families=40)
    model = train_kvrl(corpus, train_pairs, cfg)
    scores, labels = [], []
    for a, b, label in test_pairs:
        scores.append(kin_score(model, extract_regions(a), extract_regions(b)))
        labels.append(label)
    _BENCH_MEMO[key] = roc(scores, labels).auc
    return _BENCH_MEMO[key]


def test_c01_gradient_correctness():
    started = time.time()
    worst = 0.0
    eps = 1e-5
    for seed in range(5):
        stream = RngStream(seed=1000 + seed)
        layer = init_layer(12, 6, stream, unit_kind=GAUSSIAN, n_filters=3,
                           filter_size=3, alpha=0.1, beta=1e-3,
                           image_shape=(3, 4))
        layer.W = stream.gaussian(12 * 6, sigma=0.4).reshape(12, 6)
        layer.a = stream.gaussian(6, sigma=0.4)
        layer.b = stream.gaussian(12, sigma=0.4)
        batch = stream.gaussian(4 * 12).reshape(4, 12)
        _, grads = fc_loss_grads(layer, batch)

        def fd_for(get, set_, analytic):
            nonlocal worst
            base = get().copy()
            for idx in range(base.size):
                flat = base.ravel().copy()
                flat[idx] += eps
                set_(flat.reshape(base.shape))
                up = fc_loss(layer, batch)
                flat[idx] -= 2 * eps
                set_(flat.reshape(base.shape))
                down = fc_loss(layer, batch)
                set_(base)
                fd = (up - down) / (2 * eps)
                a_val = np.asarray(analytic).ravel()[idx]
                denom = max(abs(fd), abs(a_val), 1e-6)
                worst = max(worst, abs(fd - a_val) / denom)

        fd_for(lambda: layer.W, lambda v: setattr(layer, "W", v), grads["W"])
        fd_for(lambda: layer.a, lambda v: setattr(layer, "a", v), grads["a"])
        fd_for(lambda: layer.b, lambda v: setattr(layer, "b", v), grads["b"])
        for k in range(3):
            def set_filter(v, k=k):
                layer.filters[k] = v
            fd_for(lambda k=k: layer.filters[k], set_filter,
                   grads["filters"][k])
    elapsed = time.time() - started
    report(1, f"analytic vs finite-difference gradients, worst rel err "
              f"{worst:.2e}, {elapsed:.0f}s", worst < 1e-4 and elapsed < 60)


def test_c02_exact_normalization():
    stream = RngStream(seed=42)
    layer = RbmLayer(W=stream.gaussian(12, sigma=0.6).reshape(4, 3),
                     a=stream.gaussian(3, sigma=0.6),
                     b=stream.gaussian(4, sigma=0.6))
    vs = [np.array(bits, dtype=float)
          for bits in itertools.product((0, 1), repeat=4)]
    hs = [np.array(bits, dtype=float)
          for bits in itertools.product((0, 1), repeat=3)]
    weights = np.array([[np.exp(-energy_bernoulli(v, h, layer)) for h in hs]
                        for v in vs])
    z = weights.sum()
    norm_err = abs(weights.sum() / z - 1.0)

    cond_err = 0.0
    joint = weights / z
    for vi, v in enumerate(vs):
        pv = joint[vi].sum()
        got = hidden_given_visible(v, layer)
        for j in range(3):
            mask = np.array([h[j] == 1 for h in hs])
            cond_err = max(cond_err, abs(got[j] - joint[vi][mask].sum() / pv))
    for hi, h in enumerate(hs):
        ph = joint[:, hi].sum()
        got = visible_given_hidden(h, layer)
        for i in range(4):
            mask = np.array([v[i] == 1 for v in vs])
            cond_err = max(cond_err, abs(got[i] - joint[mask, hi].sum() / ph))
    report(2, f"partition normalization err {norm_err:.1e}, conditional vs "
              f"enumeration err {cond_err:.1e}",
           norm_err < 1e-9 and cond_err < 1e-10)


def test_c03_contractive_reduction():
    stream = RngStream(seed=7)
    layer = RbmLayer(W=stream.gaussian(48, sigma=0.8).reshape(8, 6),
                     a=stream.gaussian(6), b=stream.gaussian(8))
    batch = stream.gaussian(5 * 8).reshape(5, 8)
    value, _ = contractive_penalty(layer, batch, activation="linear")
    err = abs(value - float(np.sum(layer.W ** 2)))
    report(3, f"linear-activation penalty equals weight decay, err {err:.1e}",
           err < 1e-12)


def test_c04_learning_works():
    started = time.time()
    patterns = set()
    for bits in itertools.product((0, 1), repeat=8):
        row = np.array(bits, dtype=float)
        patterns.add(tuple(np.repeat(row[None, :], 8, axis=0).ravel()))
        patterns.add(tuple(np.repeat(row[:, None], 8, axis=1).ravel()))
    data = np.array(sorted(patterns))
    layer = init_layer(64, 32, RngStream(seed=5))
    cfg = TrainConfig(learning_rate=0.05, epochs=200, batch_size=64,
                      cd_steps=1, momentum=0.5, seed=11)
    _, history = cd_train(layer, data, cfg)
    _, history2 = cd_train(layer, data, cfg)
    elapsed = time.time() - started
    deterministic = history == history2
    ratio = history[-1] / history[0]
    report(4, f"bars-and-stripes reconstruction ratio {ratio:.3f} "
              f"(deterministic={deterministic}), {elapsed:.0f}s",
           ratio <= 0.5 and deterministic and elapsed < 120)


def test_c05_method_ordering():
    started = time.time()
    fc_aucs = [bench_auc(seed, 6, 0.1) for seed in BENCH_SEEDS]
    plain_aucs = [bench_auc(seed, 0, 0.0) for seed in BENCH_SEEDS]
    elapsed = time.time() - started
    fc_mean = float(np.mean(fc_aucs))
    plain_mean = float(np.mean(plain_aucs))
    report(5, f"mean AUC filtered-contractive {fc_mean:.4f} vs plain "
              f"{plain_mean:.4f} (fc per-seed {['%.3f' % a for a in fc_aucs]}, "
              f"plain {['%.3f' % a for a in plain_aucs]}), {elapsed:.0f}s",
           fc_mean >= plain_mean and fc_mean >= 0.85 and plain_mean >= 0.85
           and elapsed < 900)


def test_c06_region_ablation():
    three = [bench_auc(seed, 6, 0.1) for seed in BENCH_SEEDS]
    face = [bench_auc(seed, 6, 0.1, regions=("face",)) for seed in BENCH_SEEDS]
    three_mean = float(np.mean(three))
    face_mean = float(np.mean(face))
    report(6, f"three-region mean AUC {three_mean:.4f} >= face-only "
              f"{face_mean:.4f}", three_mean >= face_mean)


def test_c07_fusion_boost():
    plr_wins, svm_wins, plr_ok, svm_ok = 0, 0, True, True
    for seed in (100, 101, 102):
        train = synth_scores(seed, 400, 400, face_shift=1.2, kin_shift=1.8)
        test = synth_scores(seed + 50, 400, 400, face_shift=1.2, kin_shift=1.8)
        models = fit_fusion(train, n_components=2, seed=seed)
        s, k, labels = test.s, test.k, test.label
        face = roc(s, labels).tpr_at_fpr[0.01]
        plr = roc(fused_scores(models, "plr", s, k), labels).tpr_at_fpr[0.01]
        svm = roc(fused_scores(models, "svm", s, k), labels).tpr_at_fpr[0.01]
        plr_ok = plr_ok and plr >= face
        svm_ok = svm_ok and svm >= face
        plr_wins += plr > face
        svm_wins += svm > face
    report(7, f"fused TPR@FPR=0.01 >= face-only on all seeds "
              f"(strict wins: plr {plr_wins}/3, svm {svm_wins}/3)",
           plr_ok and svm_ok and plr_wins >= 2 and svm_wins >= 2)


def test_c08_metric_oracles():
    d_err = abs(dprime(0.84, 0.16) - 1.989)

    counts = np.array([[30.0, 10.0], [20.0, 40.0]])
    total = counts.sum()
    h_oracle = 0.0
    for i in range(2):
        p = counts[i].sum() / total
        h_oracle -= p * np.log(p)
    cond = 0.0
    for i in range(2):
        for j in range(2):
            joint = counts[i, j] / total
            cond -= joint * np.log(counts[i, j] / counts[:, j].sum())
    i_oracle = (h_oracle - cond) / np.log(2)
    h_oracle /= np.log(2)
    h_err = abs(stimulus_entropy(counts) - h_oracle)
    i_err = abs(information_entropy(counts) - i_oracle)

    stream = RngStream(seed=77)
    bounds_ok = True
    for _ in range(1000):
        c = np.floor(stream.uniform01(4) * 60).reshape(2, 2)
        if c.sum() == 0:
            continue
        h = stimulus_entropy(c)
        info = information_entropy(c)
        bounds_ok = bounds_ok and (-1e-12 <= info <= h + 1e-12)

    scores = np.floor(stream.uniform01(200) * 25) / 25.0
    labels = stream.bernoulli(200, 0.5)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((1.0 if p > n else 0.5 if p == n else 0.0)
               for p in pos for n in neg)
    auc_err = abs(roc(scores, labels).auc - wins / (len(pos) * len(neg)))

    report(8, f"dprime err {d_err:.1e}, entropy errs {h_err:.1e}/{i_err:.1e}, "
              f"bounds hold {bounds_ok}, roc-vs-pairwise err {auc_err:.1e}",
           d_err <= 1e-3 and h_err < 1e-12 and i_err < 1e-12 and bounds_ok
           and auc_err < 1e-9)


def test_c09_protocol_fidelity():
    relations = ("FS", "FD", "MS", "MD", "BB", "BS", "SS")
    stream = RngStream(seed=31)
    folds_ok = True
    negatives_ok = True
    for trial in range(100):
        n = 6 + int(stream.uniform01(1)[0] * 30)
        pairs = []
        for i in range(n):
            rel = relations[int(stream.uniform01(1)[0] * 7)]
            pairs.append(KinPair(
                path_a=f"t{trial}_p{i}_a.pgm", path_b=f"t{trial}_p{i}_b.pgm",
                label="kin", relation=rel,
                subject_a=f"t{trial}_f{i}_x", subject_b=f"t{trial}_f{i}_y"))
        plan = make_folds(pairs, seed=trial)
        flat = plan.all_pairs()
        folds_ok = folds_ok and len(flat) == n and \
            {id(p) for p in flat} == {id(p) for p in pairs}
        for rel in {p.relation for p in pairs}:
            counts = [sum(1 for p in fold if p.relation == rel)
                      for fold in plan.folds]
            folds_ok = folds_ok and max(counts) - min(counts) <= 1
        negatives = gen_negatives(pairs, seed=trial)
        used = [img for pair in negatives for img in pair]
        families = {}
        for p in pairs:
            families[p.path_a] = p.subject_a.split("_")[1]
            families[p.path_b] = p.subject_a.split("_")[1]
        negatives_ok = negatives_ok and len(negatives) == n and \
            len(used) == len(set(used)) and \
            all(families[a] != families[b] for a, b in negatives)
    report(9, "fold balance within 1 and negative single-use/cross-family "
              "constraints on 100 random instances", folds_ok and negatives_ok)


def test_c10_dropout_semantics():
    model = mlp_init([8, 6, 1], RngStream(seed=21),
                     dropout_input=0.0, dropout_hidden=0.5)
    x = RngStream(seed=22).uniform01(8)
    clean = dropout_forward(model, x, train=False)
    stream = RngStream(seed=23)
    total = np.zeros_like(clean)
    n = 20_000
    for _ in range(n):
        total += dropout_forward(model, x, stream, train=True)
    mc = total / n
    worst = float(np.max(np.abs(mc - clean) / np.abs(clean)))
    report(10, f"Monte-Carlo dropout mean vs mask-free pass, worst per-unit "
               f"rel err {worst:.4f}", worst < 0.02)


def test_c11_persistence(tmp_path):
    stream = RngStream(seed=17)
    corpus = [stream.uniform01(64 * 64).reshape(64, 64) for _ in range(10)]
    cfg = RunConfig(seed=3, epochs=2, batch_size=8, learning_rate=0.02,
                    stage1_dims=(1024, 12, 8), stage2_dims=(24, 12, 8),
                    classifier_hidden=(8,), classifier_epochs=0,
                    n_filters=2, alpha=0.05, beta=1e-4,
                    dropout_input=0.0, dropout_hidden=0.0)
    model = pretrain_stages(corpus, cfg)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    regions = extract_regions(corpus[0])
    delta = float(np.max(np.abs(encode_face(model, regions)
                                - encode_face(loaded, regions))))

    outputs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps({
            "seed": 9, "output_dir": str(out), "fusion_method": "both",
            "n_genuine": 100, "n_impostor": 100,
        }))
        assert run_command(["fuse", "--config", str(cfg_path)]) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(out.glob("*.csv"))})
    identical = outputs[0] == outputs[1]
    report(11, f"model round-trip encoding delta {delta:.1e}, CLI outputs "
               f"byte-identical {identical}", delta <= 1e-12 and identical)
