"""Command surface: synth, pretrain, train-kin, eval-kin, encode, fuse,
metrics.

Exit codes: 0 success, 2 validation / usage error, 3 runtime error. Every
artifact is written atomically, so error paths leave nothing partial. With
the same config and seed every command produces byte-identical outputs.
FCDBN_THREADS is the number of worker processes eval-kin trains its fold
classifiers in: 1 (or unset) runs the folds in process, more runs them in
forked workers, at most one per fold, without changing results (fold seeds
are fixed as seed + fold index). Where the platform cannot fork, the folds
run in process. A value that is not an integer >= 1 is a usage error.
"""
from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import repeat

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .evaluation import (
    ConfusionCounts,
    dprime,
    gen_negatives,
    information_entropy,
    make_folds,
    roc,
    stimulus_entropy,
    ztest_proportions,
)
from .fusion import fit_fusion, fused_scores, synth_scores
from .kvrl import (
    encode_images,
    pretrain_stages,
    score_pairs,
    train_kvrl,
    train_pair_classifier,
)
from .storage import (
    atomic_write_text,
    load_model,
    load_pgm,
    read_manifest,
    save_model,
    save_pgm,
    write_manifest,
)
from .synth import synth_kin


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code

    def __reduce__(self):  # a worker's error reaches the parent by pickle
        return type(self), (str(self), self.code)


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, str) else _fmt(c)
                              for c in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _ensure_outdir(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _load_pair_images(cfg, pairs):
    cache = {}

    def image(path):
        if path not in cache:
            cache[path] = load_pgm(os.path.join(cfg.images_dir, path))
        return cache[path]

    return [(image(p.path_a), image(p.path_b), 1 if p.label == "kin" else 0)
            for p in pairs], image


def _load_corpus(cfg):
    if not cfg.corpus_dir:
        raise CliError("config needs corpus_dir", 2)
    names = sorted(n for n in os.listdir(cfg.corpus_dir) if n.endswith(".pgm"))
    if not names:
        raise CliError(f"no .pgm files in {cfg.corpus_dir}", 3)
    return [load_pgm(os.path.join(cfg.corpus_dir, n)) for n in names]


def cmd_synth(cfg):
    out = _ensure_outdir(cfg)
    images_dir = os.path.join(out, "images")
    corpus_dir = os.path.join(out, "corpus")
    os.makedirs(images_dir, exist_ok=True)
    os.makedirs(corpus_dir, exist_ok=True)
    images, pairs = synth_kin(cfg.seed, cfg.families, cfg.members_per_family,
                              cfg.separability)
    for subject, img in images.items():
        save_pgm(os.path.join(images_dir, f"{subject}.pgm"), img)
    corpus_images, _ = synth_kin(cfg.seed + 1, cfg.corpus_families,
                                 cfg.members_per_family, cfg.separability)
    for subject, img in corpus_images.items():
        save_pgm(os.path.join(corpus_dir, f"{subject}.pgm"), img)
    write_manifest(os.path.join(out, "manifest.csv"), pairs)
    print(f"synth: {len(images)} pair-pool images, {len(corpus_images)} "
          f"corpus images, {len(pairs)} manifest rows -> {out}")
    return 0


def cmd_pretrain(cfg):
    out = _ensure_outdir(cfg)
    corpus = _load_corpus(cfg)
    model = pretrain_stages(corpus, cfg)
    path = cfg.model_out or os.path.join(out, "model.json")
    save_model(model, path)
    print(f"pretrain: stages trained on {len(corpus)} images -> {path}")
    return 0


def cmd_train_kin(cfg):
    out = _ensure_outdir(cfg)
    if not cfg.manifest or not cfg.images_dir:
        raise CliError("config needs manifest and images_dir", 2)
    corpus = _load_corpus(cfg)
    pairs = read_manifest(cfg.manifest)
    pair_images, _ = _load_pair_images(cfg, pairs)
    model = train_kvrl(corpus, pair_images, cfg)
    path = cfg.model_out or os.path.join(out, "model.json")
    save_model(model, path)
    print(f"train-kin: {len(pair_images)} pairs -> {path}")
    return 0


def _eval_fold(cfg, embeddings, fold_idx, train_pos, test_pos):
    """Retrain the pair classifier on one fold and score the held-out fold.

    ``embeddings`` maps every image path of the positive pairs to its face
    code; folds only read it.
    """
    fold_seed = cfg.seed + fold_idx
    train_neg = gen_negatives(train_pos, seed=fold_seed)
    test_neg = gen_negatives(test_pos, seed=fold_seed + 5000)

    train_pairs = [(p.path_a, p.path_b) for p in train_pos] + train_neg
    clf = train_pair_classifier(
        [embeddings[a] for a, _ in train_pairs],
        [embeddings[b] for _, b in train_pairs],
        [1] * len(train_pos) + [0] * len(train_neg),
        replace(cfg, seed=fold_seed))

    test_pairs = [(p.path_a, p.path_b) for p in test_pos] + test_neg
    scores = score_pairs(clf, [embeddings[a] for a, _ in test_pairs],
                         [embeddings[b] for _, b in test_pairs]).tolist()
    truths = [1] * len(test_pos) + [0] * len(test_neg)
    relations = ([p.relation for p in test_pos]
                 + [test_pos[idx % len(test_pos)].relation
                    for idx in range(len(test_neg))])
    return scores, truths, relations


def _thread_count():
    """FCDBN_THREADS as a count of fold worker processes: unset or empty
    means 1, which runs the folds in process."""
    raw = os.environ.get("FCDBN_THREADS", "")
    if not raw:
        return 1
    msg = f"FCDBN_THREADS must be an integer >= 1, got {raw!r}"
    try:
        workers = int(raw)
    except ValueError:
        raise CliError(msg, 2) from None
    if workers < 1:
        raise CliError(msg, 2)
    return workers


def cmd_eval_kin(cfg):
    workers = _thread_count()
    out = _ensure_outdir(cfg)
    if not cfg.manifest or not cfg.images_dir or not cfg.model_in:
        raise CliError("config needs manifest, images_dir, model_in", 2)
    model = load_model(cfg.model_in)
    pairs = read_manifest(cfg.manifest)
    positives = [p for p in pairs if p.label == "kin"]
    plan = make_folds(positives, seed=cfg.seed)
    _, image = _load_pair_images(cfg, pairs)
    # negatives are drawn from the positives' images, so this covers every
    # image a fold scores; encode_images encodes each distinct one once
    paths = [path for p in positives for path in (p.path_a, p.path_b)]
    codes = encode_images(model, [image(path) for path in paths])
    embeddings = dict(zip(paths, codes))

    jobs = []
    for fold_idx in range(len(plan.folds)):
        test_pos = plan.folds[fold_idx]
        train_pos = [p for j, fold in enumerate(plan.folds) if j != fold_idx
                     for p in fold]
        jobs.append((fold_idx, train_pos, test_pos))

    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        results = [_eval_fold(cfg, embeddings, *job) for job in jobs]
    else:
        # the heads are small numpy calls that hold the GIL, so they run in
        # processes; fork inherits the loaded modules instead of importing
        # them again. OpenBLAS's fork handlers keep its thread pool safe in
        # the child (CPython 3.12+ still warns when a threaded process
        # forks). Leaving the block joins every worker.
        with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs)),
                mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_eval_fold, repeat(cfg), repeat(embeddings),
                                    *zip(*jobs)))

    fold_rows, all_scores, all_truths, all_relations = [], [], [], []
    for fold_idx, (scores, truths, relations) in enumerate(results):
        correct = sum(1 for s, t in zip(scores, truths)
                      if (s >= 0.5) == (t == 1))
        fold_rows.append((fold_idx, correct / len(scores)))
        all_scores += scores
        all_truths += truths
        all_relations += relations

    mean_acc = float(np.mean([acc for _, acc in fold_rows]))
    rel_rows = []
    for rel in sorted(set(all_relations)):
        idx = [i for i, r in enumerate(all_relations) if r == rel]
        correct = sum(1 for i in idx
                      if (all_scores[i] >= 0.5) == (all_truths[i] == 1))
        rel_rows.append((rel, correct / len(idx), len(idx)))
    curve = roc(all_scores, all_truths)

    _write_csv(os.path.join(out, "folds.csv"), ("fold", "accuracy"), fold_rows)
    _write_csv(os.path.join(out, "relations.csv"),
               ("relation", "accuracy", "pairs"), rel_rows)
    _write_csv(os.path.join(out, "roc.csv"), ("fpr", "tpr", "threshold"),
               list(zip(curve.fpr, curve.tpr, curve.thresholds)))
    print(f"eval-kin: mean accuracy {mean_acc:.4f} over {len(fold_rows)} folds, "
          f"auc {curve.auc:.4f}")
    for rel, acc, count in rel_rows:
        print(f"  {rel}: accuracy {acc:.4f} ({count} pairs)")
    return 0


def cmd_encode(cfg):
    out = _ensure_outdir(cfg)
    if not cfg.model_in or not cfg.image:
        raise CliError("config needs model_in and image", 2)
    model = load_model(cfg.model_in)
    code = encode_images(model, [load_pgm(cfg.image)])[0]
    path = os.path.join(out, "encoding.csv")
    _write_csv(path, tuple(f"f{i}" for i in range(len(code))), [tuple(code)])
    print(f"encode: wrote {len(code)}-dim encoding -> {path}")
    return 0


def cmd_fuse(cfg):
    out = _ensure_outdir(cfg)
    train, holdout = (synth_scores(seed, cfg.n_genuine, cfg.n_impostor,
                                   face_shift=cfg.face_shift,
                                   kin_shift=cfg.kin_shift, n_kin=cfg.n_kin)
                      for seed in (cfg.seed, cfg.seed + 1))
    methods = ("plr", "svm") if cfg.fusion_method == "both" else (cfg.fusion_method,)
    models = fit_fusion(train, cfg.gmm_components, cfg.seed, methods)
    s, k, labels = holdout.s, holdout.k, holdout.label
    curves = {"face": roc(s, labels)}
    for method in methods:
        curves[method] = roc(fused_scores(models, method, s, k), labels)
    for name, curve in curves.items():
        _write_csv(os.path.join(out, f"roc_{name}.csv"),
                   ("fpr", "tpr", "threshold"),
                   list(zip(curve.fpr, curve.tpr, curve.thresholds)))
        tprs = " ".join(f"tpr@{t}={curve.tpr_at_fpr[t]:.4f}"
                        for t in sorted(curve.tpr_at_fpr))
        print(f"fuse[{name}]: auc {curve.auc:.4f} {tprs}")
    return 0


def _read_counts_csv(path):
    """The 2x2 count table of a CSV; only the first line may be a header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1)
                 if ln.strip()]
    rows = []
    for i, (lineno, ln) in enumerate(lines):
        try:
            rows.append([int(c.strip()) for c in ln.split(",")])
        except ValueError:
            if i > 0:
                raise ValueError(f"counts line {lineno} is not integer counts: "
                                 f"{ln[:40]!r} ({path})") from None
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError(f"counts file must hold a 2x2 integer table: {path}")
    counts = ConfusionCounts(np.array(rows, dtype=float))
    # metrics takes per-row rates, so an empty row is malformed here even
    # though ConfusionCounts allows it
    for row, stimulus in enumerate(("kin", "non-kin")):
        if counts.counts[row].sum() == 0:
            raise ValueError(f"counts row {row + 1} ({stimulus} stimuli) has no "
                             f"trials: {path}")
    return counts


def cmd_metrics(cfg):
    if not cfg.counts_csv:
        raise CliError("config needs counts_csv", 2)
    counts = _read_counts_csv(cfg.counts_csv)
    c = counts.counts
    hit = c[0, 0] / c[0].sum()
    fa = c[1, 0] / c[1].sum()
    d = dprime(hit, fa, n_signal=int(c[0].sum()), n_noise=int(c[1].sum()))
    h_s = stimulus_entropy(counts)
    info = information_entropy(counts)
    z, significant = ztest_proportions(hit, int(c[0].sum()), fa, int(c[1].sum()))
    print(f"hit_rate={hit:.6f} fa_rate={fa:.6f}")
    print(f"dprime={d:.6f}")
    print(f"H(S)={h_s:.6f} bits")
    print(f"I(S|r)={info:.6f} bits")
    print(f"z={z:.6f} significant_95={'yes' if significant else 'no'}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "pretrain": cmd_pretrain,
    "train-kin": cmd_train_kin,
    "eval-kin": cmd_eval_kin,
    "encode": cmd_encode,
    "fuse": cmd_fuse,
    "metrics": cmd_metrics,
}


def run_command(argv):
    """Parse argv and run one command; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="fcdbn",
        description="filtered contractive DBN kin verification toolkit")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # runtime failures map to exit 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
