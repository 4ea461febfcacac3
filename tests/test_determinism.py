"""Outputs do not depend on the BLAS thread count or on FCDBN_THREADS.

BLAS reads its thread count once, when numpy is first imported, so every run
here is a fresh ``fcdbn.cli`` process with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set, first to 1 and then to 2. The runs go one after
another. The config is a tiny one: seed 3, 16 families, two filters and a
Gaussian first layer; one more run cuts all five regions and has Bernoulli
first layers.

The golden values at the end pin the numbers themselves: the same config
with dropout, run in process, must give checked-in codes, scores and ROC
points.
"""
import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fcdbn
from fcdbn.cli import run_command
from fcdbn.storage import load_model, save_model

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fcdbn.__file__)))
THREADS = ("1", "2")
TINY = {"seed": 3, "families": 16, "corpus_families": 4,
        "stage1_dims": [1024, 48, 24], "stage2_dims": [72, 48, 24],
        "classifier_hidden": [16], "n_filters": 2, "first_layer_gaussian": True,
        "epochs": 3, "batch_size": 32, "classifier_epochs": 50,
        "dropout_input": 0.0, "dropout_hidden": 0.0}


def write_config(path, **values):
    path.write_text(json.dumps(values))
    return path


def run_cli(command, config, threads, fcdbn_threads="1"):
    """Run one command in a fresh process; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, FCDBN_THREADS=fcdbn_threads)
    proc = subprocess.run(
        [sys.executable, "-m", "fcdbn.cli", command, "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def read_files(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A synthesized run directory with one train-kin model per BLAS thread
    count; returns (directory, {threads: config path})."""
    d = tmp_path_factory.mktemp("determinism")
    configs = {t: write_config(
        d / f"c{t}.json", **TINY, output_dir=str(d / f"out{t}"),
        manifest=str(d / "manifest.csv"), images_dir=str(d / "images"),
        corpus_dir=str(d / "corpus"), model_out=str(d / f"model{t}.json"),
        model_in=str(d / "model1.json")) for t in THREADS}
    synth = write_config(d / "synth.json", **TINY, output_dir=str(d))
    assert run_command(["synth", "--config", str(synth)]) == 0
    for t in THREADS:
        run_cli("train-kin", configs[t], t)
    return d, configs


def test_train_kin_model_does_not_depend_on_blas_threads(trained):
    d, _ = trained
    model = (d / "model1.json").read_bytes()
    assert model == (d / "model2.json").read_bytes()
    save_model(load_model(d / "model1.json"), d / "resaved.json")
    assert (d / "resaved.json").read_bytes() == model


def test_eval_kin_does_not_depend_on_thread_counts(trained):
    d, configs = trained
    runs = []
    for blas, threads in itertools.product(THREADS, THREADS):
        stdout = run_cli("eval-kin", configs[blas], blas, fcdbn_threads=threads)
        runs.append((stdout, read_files(d / f"out{blas}", (
            "folds.csv", "relations.csv", "roc.csv"))))
    assert all(run == runs[0] for run in runs[1:])


def test_encode_does_not_depend_on_blas_threads(trained):
    d, _ = trained
    image = sorted((d / "images").iterdir())[0]
    runs = []
    for t in THREADS:
        out = d / f"encode{t}"
        config = write_config(d / f"e{t}.json", **TINY, output_dir=str(out),
                              model_in=str(d / "model1.json"), image=str(image))
        stdout = run_cli("encode", config, t)
        runs.append((stdout.replace(str(out), "<out>"),
                     read_files(out, ("encoding.csv",))))
    assert runs[0] == runs[1]


def test_five_region_pretrain_and_encode_do_not_depend_on_blas_threads(
        trained):
    d, _ = trained
    image = sorted((d / "images").iterdir())[0]
    # Bernoulli first layers, so both first-layer kinds are checked
    five = dict(TINY, regions=["face", "t_region", "not_t", "chin", "binocular"],
                stage2_dims=[120, 48, 24], first_layer_gaussian=False)
    runs = []
    for t in THREADS:
        out = d / f"five{t}"
        config = write_config(
            d / f"f{t}.json", **five, output_dir=str(out),
            corpus_dir=str(d / "corpus"), model_out=str(out / "model.json"),
            model_in=str(out / "model.json"), image=str(image))
        stdout = run_cli("pretrain", config, t) + run_cli("encode", config, t)
        runs.append((stdout.replace(str(out), "<out>"),
                     read_files(out, ("model.json", "encoding.csv"))))
    assert runs[0] == runs[1]


def test_fuse_does_not_depend_on_blas_threads(tmp_path):
    runs = []
    for t in THREADS:
        out = tmp_path / f"out{t}"
        config = write_config(tmp_path / f"c{t}.json", output_dir=str(out),
                              fusion_method="both", n_kin=3)
        stdout = run_cli("fuse", config, t)
        runs.append((stdout, read_files(out, (
            "roc_face.csv", "roc_plr.csv", "roc_svm.csv"))))
    assert runs[0] == runs[1]


# Golden values: TINY with dropout 0.2 / 0.5, so the pretraining and head
# momentum steps and the dropout mask draws all reach the outputs. Values
# are compared at 1e-9; model.json's SHA-256 only under the numpy build and
# CPU features it was recorded with (exp, log and gemm bits vary by build).
GOLDEN = dict(TINY, dropout_input=0.2, dropout_hidden=0.5)
GOLDEN_TOL = 1e-9
GOLDEN_CODE = [0.5658431228390016, 0.5600685989243729, 0.563531453542903]
GOLDEN_EVAL_AUC = 0.533203125
GOLDEN_ROC = {  # roc.csv data row: (fpr, tpr, threshold)
    1: (0.03125, 0.0, 0.5357612556339539),
    16: (0.28125, 0.21875, 0.5070332333805185),
    32: (0.4375, 0.5625, 0.4847647445110734),
    48: (0.75, 0.75, 0.4808104191477012),
    64: (1.0, 1.0, 0.4355238633047991),
}
GOLDEN_PLR_TPR_AT_001 = 0.8
GOLDEN_MODEL = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
    "sha256": "e947e9ae071b6f6df0c1e7b601ca1384493a22408fc649f07769d4b6952e126e",
}


def approx(value):
    return pytest.approx(value, rel=0.0, abs=GOLDEN_TOL)


def read_csv_floats(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) for c in row] for row in rows])


def numpy_build():
    """The numpy version, BLAS and CPU features a model's bytes depend on."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": list(config.get("SIMD Extensions", {}).get("found", []))}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One synth, train-kin, eval-kin, encode and fuse run of GOLDEN, in
    process; returns its directory."""
    d = tmp_path_factory.mktemp("golden")
    config = write_config(
        d / "c.json", **GOLDEN, output_dir=str(d),
        manifest=str(d / "manifest.csv"), images_dir=str(d / "images"),
        corpus_dir=str(d / "corpus"), model_out=str(d / "model.json"),
        model_in=str(d / "model.json"),
        image=str(d / "images" / "fam000_m0.pgm"),
        fusion_method="both", n_kin=3)
    for command in ("synth", "train-kin", "eval-kin", "encode", "fuse"):
        assert run_command([command, "--config", str(config)]) == 0
    return d


def test_golden_values(golden):
    code = read_csv_floats(golden / "encoding.csv")[0]
    assert code[:3].tolist() == approx(GOLDEN_CODE)
    curve = read_csv_floats(golden / "roc.csv")
    assert float(np.trapezoid(curve[:, 1], curve[:, 0])) == approx(GOLDEN_EVAL_AUC)
    for row, point in GOLDEN_ROC.items():
        assert curve[row].tolist() == approx(list(point)), row
    plr = read_csv_floats(golden / "roc_plr.csv")
    tpr = float(plr[plr[:, 0] <= 0.01, 1].max())
    assert tpr == approx(GOLDEN_PLR_TPR_AT_001)


def test_golden_model_digest(golden):
    build = numpy_build()
    recorded = {k: GOLDEN_MODEL[k] for k in build}
    if build != recorded:
        pytest.skip(f"model digest recorded under {recorded}, not {build}")
    digest = hashlib.sha256((golden / "model.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_MODEL["sha256"]
