"""Outputs do not depend on the BLAS thread count or on FCDBN_THREADS.

BLAS reads its thread count once, when numpy is first imported, so every run
here is a fresh ``fcdbn.cli`` process with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set, first to 1 and then to 2. The runs go one after
another. The config is the tiny one of the CI determinism step: seed 3, 16
families, two filters and a Gaussian first layer; one more run cuts all
five regions.
"""
import itertools
import json
import os
import subprocess
import sys

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
    five = dict(TINY, regions=["face", "t_region", "not_t", "chin", "binocular"],
                stage2_dims=[120, 48, 24])
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
