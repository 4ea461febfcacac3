"""The three workloads: set-up, one timed job round, and output checks.

Each workload calls fcdbn only through the names ``fcdbn/__init__.py``
exports plus ``fcdbn.cli.run_command``, so private helpers can be renamed
or removed without editing the benchmark. Inputs are generated from the
run's seed; every round repeats exactly the same operations.

``run()`` is the timed job. ``check()`` runs afterwards, untimed, and
compares the job's outputs with ``refmodel`` (an independent numpy/scipy
implementation) or with required properties; it never compares with a
stored copy of earlier output.
"""
from __future__ import annotations

import json
import os

import numpy as np

import fcdbn
import fcdbn.cli

import refmodel

TOL = 1e-9


class Tally:
    """Operations attempted and failed, plus check failures (problems)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = {}

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


def _cli(*argv):
    """One fcdbn command, looked up at call time so the tracer sees it."""
    return fcdbn.cli.run_command(list(argv))


def _max_dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _check_scores(tally, model, images_a, images_b, scores, what):
    """Program scores vs the reference encoder and scorer, within TOL."""
    cache = {}

    def code(img):
        if id(img) not in cache:
            cache[id(img)] = refmodel.encode_image(model, img)
        return cache[id(img)]

    ref = [refmodel.pair_score(model, code(a), code(b))
           for a, b in zip(images_a, images_b)]
    dev = _max_dev(scores, ref)
    tally.expect(dev <= TOL, f"{what}: scores differ from reference by {dev:.3g}")
    tally.expect(all(0.0 <= s <= 1.0 for s in scores),
                 f"{what}: score outside [0, 1]")


# -- train-fc -----------------------------------------------------------------

class TrainFc:
    """``train_kvrl`` with filtered first layers, then save, load, score.

    The config is the acceptance suite's ``bench_config(seed, 6, 0.1)``
    (40 families, 200 test pairs) cut down to 20 corpus families and 10
    epochs so one round fits a run; the filtered first layers still take
    most of the time.
    """

    name = "train-fc"
    AUC_FLOOR = 0.70

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model_path = os.path.join(workdir, "train_fc_model.json")

    def setup(self):
        self.cfg = fcdbn.RunConfig(
            seed=self.seed, epochs=10, batch_size=32, learning_rate=0.05,
            stage1_dims=(1024, 48, 24), stage2_dims=(72, 48, 24),
            classifier_hidden=(16,), classifier_epochs=800,
            classifier_learning_rate=1.0, classifier_batch_size=2048,
            n_filters=6, alpha=0.1, beta=1e-4,
            dropout_input=0.0, dropout_hidden=0.0)
        self.corpus, self.train_pairs, self.test_pairs = fcdbn.make_kin_benchmark(
            seed=self.seed, n_families=40, members_per_family=4,
            separability=0.8, n_test_pairs=200, corpus_families=20)

    def run(self):
        model = fcdbn.train_kvrl(self.corpus, self.train_pairs, self.cfg)
        fcdbn.save_model(model, self.model_path)
        loaded = fcdbn.load_model(self.model_path)
        scores = [fcdbn.kin_score(loaded, fcdbn.extract_regions(a),
                                  fcdbn.extract_regions(b))
                  for a, b, _ in self.test_pairs]
        return {"model": model, "loaded": loaded, "scores": scores}

    def check(self, out):
        t = Tally()
        t.attempted = 3 + len(self.test_pairs)  # train, save, load, scores
        loaded, scores = out["loaded"], out["scores"]
        bad = refmodel.roundtrip_mismatches(out["model"], loaded)
        t.expect(not bad, f"save/load changed arrays: {bad[:3]}")
        a = [p[0] for p in self.test_pairs]
        b = [p[1] for p in self.test_pairs]
        _check_scores(t, loaded, a, b, scores, self.name)
        swapped = [fcdbn.kin_score(loaded, fcdbn.extract_regions(y),
                                   fcdbn.extract_regions(x))
                   for x, y in zip(a, b)]
        t.expect(swapped == scores, "kin_score(a, b) != kin_score(b, a)")
        labels = [p[2] for p in self.test_pairs]
        auc = refmodel.pairwise_auc(scores, labels)
        t.notes["test_auc"] = auc
        t.expect(auc >= self.AUC_FLOOR,
                 f"test-pair AUC {auc:.4f} below floor {self.AUC_FLOOR}")
        roc_auc = fcdbn.roc(scores, labels).auc
        t.expect(abs(roc_auc - auc) <= TOL,
                 f"roc AUC {roc_auc} != pairwise AUC {auc}")
        return t


# -- score-paper --------------------------------------------------------------

class ScorePaper:
    """Storage and per-face encode/score of a paper-size model, no training.

    Paper defaults: stage 1 at 1024-512-512 per region, stage 2 at
    1536-1024-512, a 512-128 classifier, six filters and a Gaussian first
    layer. The set-up trains it for one epoch on a small corpus.
    """

    name = "score-paper"
    GALLERY_FAMILIES = 16   # x 4 members = 64 distinct gallery faces
    PROBES = 16             # the first 16 gallery faces also act as probes
    PER_PROBE = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model_path = os.path.join(workdir, "score_paper_model.json")

    def setup(self):
        corpus, train_pairs, _ = fcdbn.make_kin_benchmark(
            seed=self.seed, n_families=12, members_per_family=4,
            separability=0.8, n_test_pairs=8, corpus_families=4)
        cfg = fcdbn.RunConfig(seed=self.seed, epochs=1, classifier_epochs=2)
        pairs = train_pairs[:8] + train_pairs[-8:]  # both classes
        self.model = fcdbn.train_kvrl(corpus, pairs, cfg)
        images, _ = fcdbn.synth_kin(self.seed + 7, self.GALLERY_FAMILIES, 4, 0.8)
        self.gallery = [images[k] for k in sorted(images)]
        n = len(self.gallery)
        forward = [(p, self.PROBES + (3 * p + 11 * t) % (n - self.PROBES))
                   for p in range(self.PROBES) for t in range(self.PER_PROBE)]
        self.pairs = forward + [(j, i) for i, j in forward]

    def run(self):
        fcdbn.save_model(self.model, self.model_path)
        loaded = fcdbn.load_model(self.model_path)
        regions = [fcdbn.extract_regions(img) for img in self.gallery]
        codes = [fcdbn.encode_face(loaded, r) for r in regions]
        scores = [fcdbn.kin_score(loaded, regions[i], regions[j])
                  for i, j in self.pairs]
        return {"loaded": loaded, "codes": codes, "scores": scores}

    def check(self, out):
        t = Tally()
        t.attempted = 2 + len(self.gallery) + len(self.pairs)
        loaded, scores = out["loaded"], out["scores"]
        bad = refmodel.roundtrip_mismatches(self.model, loaded)
        t.expect(not bad, f"save/load changed arrays: {bad[:3]}")
        ref_codes = [refmodel.encode_image(loaded, img) for img in self.gallery]
        dev = _max_dev(out["codes"], ref_codes)
        t.expect(dev <= TOL, f"encodings differ from reference by {dev:.3g}")
        ref = [refmodel.pair_score(loaded, ref_codes[i], ref_codes[j])
               for i, j in self.pairs]
        dev = _max_dev(scores, ref)
        t.expect(dev <= TOL, f"scores differ from reference by {dev:.3g}")
        half = len(self.pairs) // 2
        t.expect(scores[:half] == scores[half:],
                 "kin_score(a, b) != kin_score(b, a)")
        t.expect(all(0.0 <= s <= 1.0 for s in scores), "score outside [0, 1]")
        return t


# -- eval-cli -----------------------------------------------------------------

def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return rows[0], rows[1:]


def _roc_points(path):
    header, rows = _read_csv(path)
    if header != ["fpr", "tpr", "threshold"]:
        raise ValueError(f"{path}: unexpected header {header}")
    pts = np.array([[float(r[0]), float(r[1])] for r in rows])
    return pts[:, 0], pts[:, 1]


def _roc_problems(path):
    fpr, tpr = _roc_points(path)
    name = os.path.basename(path)
    out = []
    if (fpr[0], tpr[0]) != (0.0, 0.0) or (fpr[-1], tpr[-1]) != (1.0, 1.0):
        out.append(f"{name}: does not run from (0,0) to (1,1)")
    if np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0):
        out.append(f"{name}: not monotone")
    return out


def _tpr_at(path, target):
    fpr, tpr = _roc_points(path)
    return float(tpr[fpr <= target].max())


class EvalCli:
    """The user's command path through ``run_command``, in process.

    ``synth`` is set-up. The job runs ``train-kin`` with plain first layers,
    ``eval-kin`` with FCDBN_THREADS=1 and =nproc, ``encode``, ``fuse``, and
    three contract probes that fail today because of faults in fcdbn; they
    use fixed inputs, so they fail the same way for every seed.
    """

    name = "eval-cli"
    FAMILIES = 60
    EVAL_FILES = ("folds.csv", "relations.csv", "roc.csv")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.root = workdir
        self.setups = 0
        self.threads = len(os.sched_getaffinity(0))

    def _config(self, name, **over):
        cfg = {
            "seed": self.seed,
            "output_dir": os.path.join(self.dir, "out"),
            "manifest": os.path.join(self.dir, "out", "manifest.csv"),
            "images_dir": os.path.join(self.dir, "out", "images"),
            "corpus_dir": os.path.join(self.dir, "out", "corpus"),
            "model_in": self.model_path, "model_out": self.model_path,
            "image": os.path.join(self.dir, "out", "images", "fam000_m0.pgm"),
            "families": self.FAMILIES, "corpus_families": self.FAMILIES // 4,
            "members_per_family": 4,
            "stage1_dims": [1024, 48, 24], "stage2_dims": [72, 48, 24],
            "classifier_hidden": [16], "n_filters": 0, "epochs": 10,
            "batch_size": 32, "classifier_epochs": 200,
            "classifier_batch_size": 256,
            "dropout_input": 0.0, "dropout_hidden": 0.0,
            "n_genuine": 1500, "n_impostor": 1500,
        }
        cfg.update(over)
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def setup(self):
        # each set-up writes a fresh directory, as a user's first synth does
        self.setups += 1
        self.dir = os.path.join(self.root, f"setup{self.setups}")
        self.model_path = os.path.join(self.dir, "model.json")
        os.makedirs(self.dir)
        self.base = self._config("base.json")
        self.eval1 = self._config("eval1.json",
                                  output_dir=os.path.join(self.dir, "eval1"))
        self.evaln = self._config("evaln.json",
                                  output_dir=os.path.join(self.dir, "evaln"))
        self.fuse = self._config("fuse.json",
                                 output_dir=os.path.join(self.dir, "fuse"))
        # probe inputs are fixed: they do not depend on the seed
        self.bad_epochs = os.path.join(self.dir, "bad_epochs.json")
        with open(self.bad_epochs, "w", encoding="utf-8") as fh:
            json.dump({"epochs": "3",
                       "output_dir": os.path.join(self.dir, "probe")}, fh)
        self.bad_fuse = os.path.join(self.dir, "bad_fuse.json")
        with open(self.bad_fuse, "w", encoding="utf-8") as fh:
            json.dump({"n_genuine": 0,
                       "output_dir": os.path.join(self.dir, "probe")}, fh)
        self.no_stage2 = os.path.join(self.dir, "no_stage2.json")
        with open(self.no_stage2, "w", encoding="utf-8") as fh:
            json.dump({"format": "fcdbn-model", "version": 1, "kind": "kvrl",
                       "payload": {
                           "regions": ["face", "t_region", "not_t"],
                           "region_size": 32,
                           "fractions": {"eye_rows": [0.25, 0.45],
                                         "nose_rows": [0.25, 0.75],
                                         "nose_cols": [0.35, 0.65],
                                         "chin_rows": [0.65, 1.0]},
                           "stage1": {}, "classifier": None}}, fh)
        code = _cli("synth", "--config", self.base)
        if code != 0:
            raise RuntimeError(f"synth exited {code}")

    def _eval_kin(self, config, threads):
        saved = os.environ.get("FCDBN_THREADS")
        os.environ["FCDBN_THREADS"] = str(threads)
        try:
            return _cli("eval-kin", "--config", config)
        finally:
            if saved is None:
                del os.environ["FCDBN_THREADS"]
            else:
                os.environ["FCDBN_THREADS"] = saved

    def _probes(self):
        """(description, failed) for each contract probe."""
        out = []
        try:
            code = _cli("train-kin", "--config", self.bad_epochs)
            out.append(("config {'epochs': '3'} exits 2", code != 2))
        except Exception as exc:  # the fault: the error escapes run_command
            out.append((f"config {{'epochs': '3'}} raised {type(exc).__name__}",
                        True))
        code = _cli("fuse", "--config", self.bad_fuse)
        out.append((f"fuse with n_genuine=0 exits 2 (got {code})", code != 2))
        try:
            fcdbn.load_model(self.no_stage2)
            out.append(("model without payload.stage2 is rejected", True))
        except Exception as exc:  # only ModelFormatError is the contract
            ok = type(exc).__name__ == "ModelFormatError"
            out.append((f"model without payload.stage2 raised "
                         f"{type(exc).__name__}", not ok))
        return out

    def run(self):
        codes = {
            "train-kin": _cli("train-kin", "--config", self.base),
            "eval-kin threads=1": self._eval_kin(self.eval1, 1),
            "eval-kin threads=nproc": self._eval_kin(self.evaln, self.threads),
            "encode": _cli("encode", "--config", self.base),
            "fuse": _cli("fuse", "--config", self.fuse),
        }
        return {"codes": codes, "probes": self._probes()}

    def check(self, out):
        t = Tally()
        t.attempted = len(out["codes"]) + len(out["probes"])
        for name, code in out["codes"].items():
            if code != 0:
                t.failed += 1
                t.problems.append(f"{name} exited {code}")
        t.failed += sum(failed for _, failed in out["probes"])
        t.notes["failed probes"] = [w for w, failed in out["probes"] if failed]
        if t.problems:
            return t
        ev1 = os.path.join(self.dir, "eval1")
        evn = os.path.join(self.dir, "evaln")
        for name in self.EVAL_FILES:
            with open(os.path.join(ev1, name), "rb") as f1, \
                    open(os.path.join(evn, name), "rb") as fn:
                t.expect(f1.read() == fn.read(),
                         f"{name} differs between FCDBN_THREADS=1 and "
                         f"{self.threads}")
        _, manifest = _read_csv(os.path.join(self.dir, "out", "manifest.csv"))
        n_kin = sum(1 for row in manifest if row[2] == "kin")
        _, folds = _read_csv(os.path.join(ev1, "folds.csv"))
        t.expect(len(folds) == 5 and all(0.0 <= float(r[1]) <= 1.0
                                         for r in folds),
                 "folds.csv must hold five accuracies in [0, 1]")
        _, rels = _read_csv(os.path.join(ev1, "relations.csv"))
        t.expect(sum(float(r[2]) for r in rels) == 2 * n_kin,
                 "relations.csv does not cover every kin pair and its negative")
        fuse_dir = os.path.join(self.dir, "fuse")
        for path in (os.path.join(ev1, "roc.csv"),
                     os.path.join(fuse_dir, "roc_face.csv"),
                     os.path.join(fuse_dir, "roc_plr.csv")):
            t.problems += _roc_problems(path)
        face = _tpr_at(os.path.join(fuse_dir, "roc_face.csv"), 0.01)
        fused = _tpr_at(os.path.join(fuse_dir, "roc_plr.csv"), 0.01)
        t.expect(fused >= face,
                 f"fused TPR@FPR=0.01 {fused} below face-only {face}")
        model = fcdbn.load_model(self.model_path)
        t.expect(model.classifier is not None, "train-kin saved no classifier")
        _, enc = _read_csv(os.path.join(self.dir, "out", "encoding.csv"))
        code = np.array([float(c) for c in enc[0]])
        image = refmodel.read_pgm(os.path.join(self.dir, "out", "images",
                                               "fam000_m0.pgm"))
        ref = refmodel.encode_image(model, image)
        dev = _max_dev(code, ref) if code.shape == ref.shape else np.inf
        t.expect(dev <= TOL, f"encode output differs from reference by {dev:.3g}")
        return t


WORKLOADS = {w.name: w for w in (TrainFc, ScorePaper, EvalCli)}
