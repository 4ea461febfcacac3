import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcdbn.cli
import fcdbn.kvrl
from fcdbn.cli import CliError, run_command
from fcdbn.config import ConfigError, RunConfig, config_from_dict
from fcdbn.deepnet import encode
from fcdbn.fusion import fit_plr_models, svm_fit, synth_scores
from fcdbn.kvrl import cut_regions
from fcdbn.storage import load_model, load_pgm, read_manifest, save_model


def write_config(path, **overrides):
    base = {
        "seed": 0,
        "epochs": 2,
        "batch_size": 16,
        "learning_rate": 0.05,
        "stage1_dims": [1024, 12, 8],
        "stage2_dims": [24, 12, 8],
        "classifier_hidden": [8],
        "classifier_epochs": 40,
        "classifier_learning_rate": 1.0,
        "classifier_batch_size": 1024,
        "n_filters": 2,
        "alpha": 0.05,
        "beta": 1e-4,
        "dropout_input": 0.0,
        "dropout_hidden": 0.0,
        "families": 10,
        "members_per_family": 4,
        "corpus_families": 4,
        "separability": 0.9,
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


CONFIG_KEYS = [f.name for f in fields(RunConfig)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def read_files(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


def read_bytes_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


class TestCliBasics:
    def test_csv_bytes_are_the_comma_joined_fields(self, tmp_path):
        # the layout every eval-kin, encode and fuse CSV has always had
        rows = [(0, 0.75), ("FS", 1e-05, 12), (float("inf"), -0.0, 2.5e-300),
                (float("nan"), 1.0 / 3.0)]
        path = tmp_path / "t.csv"
        fcdbn.cli._write_csv(path, ("a", "b"), rows)
        joined = ["a,b"] + [",".join(c if isinstance(c, str) else repr(float(c))
                                     for c in row) for row in rows]
        assert path.read_text() == "\n".join(joined) + "\n"

    def test_unknown_command_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_missing_config_exits_2_without_artifacts(self, tmp_path):
        out_dir = tmp_path / "out"
        code = run_command(["synth", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert not out_dir.exists()

    def test_invalid_config_value_exits_2(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        for key, value in [("momentum", 1.5), ("learning_rate", nan),
                           ("classifier_learning_rate", nan), ("alpha", nan),
                           ("alpha", inf), ("beta", nan), ("beta", inf),
                           ("learning_rate", inf), ("epochs", "3"),
                           ("stage1_dims", [1024, "a"]), ("seed", 1.5),
                           ("seed", True), ("n_genuine", 0),
                           ("gmm_components", 500), ("n_kin", 0),
                           ("classifier_hidden", [-3]),
                           ("classifier_hidden", [0]), ("seed", 2 ** 70),
                           ("seed", -1), ("stage2_dims", [20, 12, 8]),
                           ("regions", ["face"]), ("classifier_batch_size", 0),
                           ("classifier_batch_size", -3), ("face_shift", nan),
                           ("kin_shift", inf)]:
            cfg = write_config(tmp_path / "c.json", **{key: value},
                               output_dir=str(tmp_path / "out"))
            assert run_command(["synth", "--config", str(cfg)]) == 2, (key, value)
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("region_size", -32), ("region_size", 0), ("regions", ["nose"]),
        ("regions", []), ("eye_rows", [0.5]), ("nose_rows", [0.75, 0.25]),
        ("nose_cols", [0.35, 7.0]), ("chin_rows", [0.5, 0.5]),
        ("regions", ["face", "face", "not_t"])])
    def test_uncuttable_region_geometry_exits_2(self, tmp_path, key, value):
        cfg = write_config(tmp_path / "c.json", **{key: value},
                           output_dir=str(tmp_path / "out"))
        assert run_command(["synth", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 0), ("cd_steps", 0), ("momentum", 1.0),
        ("classifier_batch_size", 0), ("classifier_epochs", -1),
        ("dropout_input", 1.0), ("dropout_hidden", -0.5),
        ("regions", ["nose"]), ("region_size", 16), ("eye_rows", [0.5, 0.2]),
        ("stage1_dims", [256, 8]), ("filter_size", 2), ("filter_size", 65),
        ("alpha", -1.0), ("beta", -1.0), ("gmm_components", 0),
        ("n_impostor", 3), ("families", 0), ("corpus_families", 0),
        ("members_per_family", 0), ("separability", 2.0),
        # a pair pool needs kin rows and nonkin rows
        ("families", 1), ("members_per_family", 1),
        # rules of RunConfig.validate itself name their one key
        ("learning_rate", -1.0), ("classifier_learning_rate", -1),
        ("epochs", 0), ("stage1_dims", [1024]), ("stage2_dims", [1536]),
        ("classifier_hidden", [16, 0]), ("stage2_dims", [100, 8]),
        ("n_filters", -1), ("fusion_method", "mean"), ("n_kin", 0),
        ("seed", -1), ("alpha", float("nan"))])
    def test_relayed_check_error_names_its_key(self, tmp_path, capsys, key,
                                               value):
        # the message names the keys set away from their defaults that the
        # failing check reads: only the bad key here, and in a fuller config
        # file the bad key among the others it sets
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            config_from_dict({key: value})
        cfg = write_config(tmp_path / "c.json", **{key: value},
                           output_dir=str(tmp_path / "out"))
        assert run_command(["synth", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        named = err[len("config error: "):].split(": ")[0].split(", ")
        assert key in named

    def test_corpus_of_one_family_is_accepted(self, tmp_path):
        # the corpus needs no pairs, so only the pair pool needs two families
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", corpus_families=1,
                           output_dir=str(out))
        assert run_command(["synth", "--config", str(cfg)]) == 0
        assert len(list((out / "corpus").glob("*.pgm"))) == 4

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=4))
    def test_config_from_dict_fails_closed(self, data):
        try:
            cfg = config_from_dict(data)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b'{"seed": "\xff"}'),
        lambda path: path.write_text("[" * 100000 + "]" * 100000),
    ], ids=["directory", "not-utf8", "too-deeply-nested"])
    def test_unreadable_config_exits_2(self, tmp_path, monkeypatch, make, capsys):
        make(tmp_path / "c.json")
        monkeypatch.chdir(tmp_path)  # the default output_dir "out" is relative
        assert run_command(["synth", "--config", str(tmp_path / "c.json")]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["c.json"]

    def test_cli_error_survives_pickle(self):
        # a fold worker's error reaches eval-kin's process by pickle
        back = pickle.loads(pickle.dumps(CliError("no folds", 3)))
        assert type(back) is CliError
        assert (str(back), back.code) == ("no folds", 3)

    @pytest.mark.parametrize("command, keys, code, err", [
        ("encode", {}, 2, "error: config needs model_in and image"),
        ("encode", {"model_in": "missing.json", "image": "face.pgm"}, 3,
         "runtime error: FileNotFoundError: "),
        ("pretrain", {}, 2, "error: config needs corpus_dir"),
        ("train-kin", {"images_dir": "images", "corpus_dir": "corpus"}, 2,
         "error: config needs manifest and images_dir"),
        ("eval-kin", {"manifest": "manifest.csv", "images_dir": "images"}, 2,
         "error: config needs manifest, images_dir, model_in"),
    ], ids=["encode-without-image", "encode-missing-model-file",
            "pretrain-without-corpus", "train-kin-without-manifest",
            "eval-kin-without-model"])
    def test_failed_input_check_creates_no_output_dir(
            self, tmp_path, monkeypatch, capsys, command, keys, code, err):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"output_dir": "made_by_failed_run", **keys}))
        assert run_command([command, "--config", str(cfg)]) == code
        assert capsys.readouterr().err.startswith(err)
        assert not (tmp_path / "made_by_failed_run").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"surprise": 1}))
        assert run_command(["synth", "--config", str(cfg)]) == 2


class TestMetricsCommand:
    def test_prints_reference_entropy(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("30,10\n20,40\n")
        cfg = write_config(tmp_path / "c.json", counts_csv=str(counts))
        assert run_command(["metrics", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "H(S)=0.970951 bits" in out
        assert "dprime=" in out
        assert "I(S|r)=" in out
        assert "z=" in out

    def test_header_line_tolerated(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("kin,nonkin\n30,10\n20,40\n")
        cfg = write_config(tmp_path / "c.json", counts_csv=str(counts))
        assert run_command(["metrics", "--config", str(cfg)]) == 0

    def test_malformed_counts_exit_3(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("1,2,3\n4,5,6\n")
        cfg = write_config(tmp_path / "c.json", counts_csv=str(counts))
        assert run_command(["metrics", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("table, lineno", [
        ("30,10\n20,40\n7.5,1\n", 3),
        ("30,10\nkin,nonkin\n20,40\n", 2),
    ])
    def test_non_integer_line_after_the_first_exit_3(self, tmp_path, capsys,
                                                     table, lineno):
        counts = tmp_path / "counts.csv"
        counts.write_text(table)
        cfg = write_config(tmp_path / "c.json", counts_csv=str(counts))
        assert run_command(["metrics", "--config", str(cfg)]) == 3
        assert f"counts line {lineno} " in capsys.readouterr().err

    @pytest.mark.parametrize("first", ["1.5,2", "1e3,2", "-0.5, 7"])
    def test_numeric_first_line_is_no_header_exit_3(self, tmp_path, capsys,
                                                     first):
        counts = tmp_path / "counts.csv"
        counts.write_text(f"{first}\n84,16\n16,84\n")
        cfg = write_config(tmp_path / "c.json", counts_csv=str(counts))
        assert run_command(["metrics", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert "counts line 1 " in captured.err
        assert captured.out == ""

    def test_first_line_with_one_word_is_a_header(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("kin,2\n84,16\n16,84\n")
        cfg = write_config(tmp_path / "c.json", counts_csv=str(counts))
        assert run_command(["metrics", "--config", str(cfg)]) == 0
        assert "hit_rate=0.840000 fa_rate=0.160000" in capsys.readouterr().out

    def test_missing_counts_path_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert run_command(["metrics", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("table, message", [
        ("0,0\n3,5\n", "counts row 1 (kin stimuli) has no trials"),
        ("3,5\n0,0\n", "counts row 2 (non-kin stimuli) has no trials"),
    ])
    def test_row_without_trials_exit_3(self, tmp_path, capsys, table, message):
        counts = tmp_path / "counts.csv"
        counts.write_text(table)
        cfg = write_config(tmp_path / "c.json", counts_csv=str(counts))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(["metrics", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


NO_SCIPY_SCRIPT = """
import json, sys
import fcdbn
from fcdbn.cli import run_command
metrics_cfg, fuse_cfg = sys.argv[1:]
codes = [run_command(["metrics", "--config", metrics_cfg]),
         run_command(["fuse", "--config", fuse_cfg])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_package_and_commands_load_no_scipy(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("84,16\n16,84\n")
    metrics_cfg = write_config(tmp_path / "m.json", counts_csv=str(counts))
    fuse_cfg = write_config(tmp_path / "f.json", output_dir=str(tmp_path / "fuse"),
                            fusion_method="both", n_genuine=40, n_impostor=40)
    src = os.path.dirname(os.path.dirname(fcdbn.kvrl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(metrics_cfg), str(fuse_cfg)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0, 0], "scipy": []}


class TestEndToEnd:
    def test_synth_train_eval_pipeline(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(
            tmp_path / "c.json", output_dir=str(out),
            manifest=str(out / "manifest.csv"),
            images_dir=str(out / "images"),
            corpus_dir=str(out / "corpus"),
            model_in=str(out / "model.json"),
        )
        assert run_command(["synth", "--config", str(cfg_path)]) == 0
        manifest = read_manifest(out / "manifest.csv")
        assert len(manifest) > 0
        assert (out / "images").is_dir()
        assert (out / "corpus").is_dir()

        assert run_command(["train-kin", "--config", str(cfg_path)]) == 0
        model = load_model(out / "model.json")
        assert model.classifier is not None

        assert run_command(["eval-kin", "--config", str(cfg_path)]) == 0
        for name in ("folds.csv", "relations.csv", "roc.csv"):
            assert (out / name).exists(), name
        folds = (out / "folds.csv").read_text().strip().split("\n")
        assert folds[0] == "fold,accuracy"
        assert len(folds) == 6
        text = capsys.readouterr().out
        assert "mean accuracy" in text

    def test_pretrain_then_encode(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(
            tmp_path / "c.json", output_dir=str(out),
            corpus_dir=str(out / "corpus"),
            model_in=str(out / "model.json"),
        )
        assert run_command(["synth", "--config", str(cfg_path)]) == 0
        assert run_command(["pretrain", "--config", str(cfg_path)]) == 0
        model = load_model(out / "model.json")
        assert model.classifier is None

        image = sorted((out / "images").glob("*.pgm"))[0]
        cfg2 = write_config(
            tmp_path / "c2.json", output_dir=str(out),
            model_in=str(out / "model.json"), image=str(image),
        )
        assert run_command(["encode", "--config", str(cfg2)]) == 0
        rows = (out / "encoding.csv").read_text().strip().split("\n")
        assert len(rows) == 2
        assert len(rows[1].split(",")) == 8

    @pytest.mark.parametrize("kind", ["PlrModels", "SvmModel"])
    @pytest.mark.parametrize("command", ["encode", "eval-kin"])
    def test_fusion_model_as_model_in_exits_3(self, tmp_path, capsys, kind,
                                              command):
        data = tmp_path / "data"
        assert run_command(["synth", "--config", str(write_config(
            tmp_path / "s.json", output_dir=str(data)))]) == 0
        scores = synth_scores(0, 40, 40)
        model_path = tmp_path / "fusion.json"
        save_model(fit_plr_models(scores) if kind == "PlrModels"
                   else svm_fit(scores), model_path)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out),
                           manifest=str(data / "manifest.csv"),
                           images_dir=str(data / "images"),
                           image=str(data / "images" / "fam000_m0.pgm"),
                           model_in=str(model_path))
        capsys.readouterr()
        assert run_command([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {model_path}: a {kind}, not a KvrlModel\n"
        assert not out.exists()

    def test_filter_wider_than_region_exits_2(self, tmp_path):
        out = tmp_path / "run"
        common = dict(output_dir=str(out), manifest=str(out / "manifest.csv"),
                      images_dir=str(out / "images"),
                      corpus_dir=str(out / "corpus"), region_size=8,
                      stage1_dims=[64, 12, 8], filter_size=9)
        plain = write_config(tmp_path / "plain.json", n_filters=0, **common)
        filtered = write_config(tmp_path / "filtered.json", n_filters=1, **common)
        assert run_command(["synth", "--config", str(plain)]) == 0
        assert run_command(["train-kin", "--config", str(filtered)]) == 2
        assert not (out / "model.json").exists()
        assert run_command(["train-kin", "--config", str(plain)]) == 0
        assert load_model(out / "model.json").region_size == 8

    def test_extra_regions_train_eval_encode(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(
            tmp_path / "c.json", output_dir=str(out),
            manifest=str(out / "manifest.csv"),
            images_dir=str(out / "images"),
            corpus_dir=str(out / "corpus"),
            model_in=str(out / "model.json"),
            regions=["face", "t_region", "not_t", "chin", "binocular"],
            stage2_dims=[40, 12, 8],
            families=8, corpus_families=3, epochs=1, classifier_epochs=20,
        )
        assert run_command(["synth", "--config", str(cfg_path)]) == 0
        assert run_command(["train-kin", "--config", str(cfg_path)]) == 0
        assert run_command(["eval-kin", "--config", str(cfg_path)]) == 0
        image = sorted((out / "images").glob("*.pgm"))[0]
        cfg2 = write_config(
            tmp_path / "c2.json", output_dir=str(out),
            model_in=str(out / "model.json"), image=str(image),
        )
        assert run_command(["encode", "--config", str(cfg2)]) == 0
        model = load_model(out / "model.json")
        crops = next(cut_regions([load_pgm(image)], model.fractions,
                                 model.region_size, model.regions))
        expected = encode(model.stage2, np.hstack(
            [encode(model.stage1[name], crops[name][0].ravel())
             for name in model.regions]))
        row = (out / "encoding.csv").read_text().strip().split("\n")[1]
        assert np.array_equal([float(c) for c in row.split(",")], expected)

    def test_fuse_writes_roc_tables(self, tmp_path, capsys):
        out = tmp_path / "fuse"
        cfg_path = write_config(
            tmp_path / "c.json", output_dir=str(out),
            fusion_method="both", n_genuine=150, n_impostor=150,
        )
        assert run_command(["fuse", "--config", str(cfg_path)]) == 0
        for name in ("roc_face.csv", "roc_plr.csv", "roc_svm.csv"):
            path = out / name
            assert path.exists()
            header = path.read_text().split("\n", 1)[0]
            assert header == "fpr,tpr,threshold"
        text = capsys.readouterr().out
        assert "fuse[plr]" in text and "fuse[svm]" in text

    def test_seed_flag_overrides_config(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path / "a.json", output_dir=str(out_a),
                             n_genuine=80, n_impostor=80)
        cfg_b = write_config(tmp_path / "b.json", output_dir=str(out_b),
                             n_genuine=80, n_impostor=80)
        assert run_command(["fuse", "--config", str(cfg_a), "--seed", "5"]) == 0
        assert run_command(["fuse", "--config", str(cfg_b), "--seed", "6"]) == 0
        a = (out_a / "roc_plr.csv").read_bytes()
        b = (out_b / "roc_plr.csv").read_bytes()
        assert a != b


    def test_nan_scores_exit_3_without_eval_csvs(self, tmp_path):
        # a NaN weight in the top stage-2 layer: loading the model rejects
        # it, so eval-kin fails before it encodes or scores anything (the
        # ROC curve's own NaN check is tested in test_evaluation)
        out = tmp_path / "run"
        cfg_path = write_config(
            tmp_path / "c.json", output_dir=str(out),
            manifest=str(out / "manifest.csv"),
            images_dir=str(out / "images"),
            corpus_dir=str(out / "corpus"),
            model_in=str(out / "model.json"),
            families=8, corpus_families=3, epochs=1, classifier_epochs=0,
        )
        assert run_command(["synth", "--config", str(cfg_path)]) == 0
        assert run_command(["train-kin", "--config", str(cfg_path)]) == 0
        model = load_model(out / "model.json")
        model.stage2.layers[-1].W[0, 0] = np.nan
        save_model(model, out / "model.json")
        assert run_command(["eval-kin", "--config", str(cfg_path)]) == 3
        for name in ("folds.csv", "relations.csv", "roc.csv"):
            assert not (out / name).exists(), name

class TestReproducibility:
    def test_fuse_outputs_byte_identical(self, tmp_path):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            cfg = write_config(tmp_path / f"{tag}.json", output_dir=str(out),
                               fusion_method="both", n_genuine=120,
                               n_impostor=120)
            assert run_command(["fuse", "--config", str(cfg)]) == 0
            outs.append(read_bytes_tree(out))
        assert outs[0] == outs[1]

    def test_eval_outputs_byte_identical(self, tmp_path):
        trees = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            cfg_path = write_config(
                tmp_path / f"{tag}.json", output_dir=str(out),
                manifest=str(out / "manifest.csv"),
                images_dir=str(out / "images"),
                corpus_dir=str(out / "corpus"),
                model_in=str(out / "model.json"),
                families=8, corpus_families=3, epochs=1,
                classifier_epochs=20,
            )
            assert run_command(["synth", "--config", str(cfg_path)]) == 0
            assert run_command(["train-kin", "--config", str(cfg_path)]) == 0
            assert run_command(["eval-kin", "--config", str(cfg_path)]) == 0
            trees.append({k: v for k, v in read_bytes_tree(out).items()
                          if k.endswith(".csv")})
        assert trees[0] == trees[1]

    def test_thread_env_does_not_change_results(self, tmp_path, monkeypatch):
        trees = []
        for tag, threads in (("x", "1"), ("y", "3")):
            out = tmp_path / tag
            cfg_path = write_config(
                tmp_path / f"{tag}.json", output_dir=str(out),
                manifest=str(out / "manifest.csv"),
                images_dir=str(out / "images"),
                corpus_dir=str(out / "corpus"),
                model_in=str(out / "model.json"),
                families=8, corpus_families=3, epochs=1,
                classifier_epochs=20,
            )
            monkeypatch.setenv("FCDBN_THREADS", threads)
            assert run_command(["synth", "--config", str(cfg_path)]) == 0
            assert run_command(["train-kin", "--config", str(cfg_path)]) == 0
            assert run_command(["eval-kin", "--config", str(cfg_path)]) == 0
            trees.append({k: v for k, v in read_bytes_tree(out).items()
                          if k.endswith("csv") and "model" not in k})
        assert trees[0] == trees[1]

    def test_eval_kin_encodes_each_image_once(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg_path = write_config(
            tmp_path / "c.json", output_dir=str(out),
            manifest=str(out / "manifest.csv"),
            images_dir=str(out / "images"),
            corpus_dir=str(out / "corpus"),
            model_in=str(out / "model.json"),
            families=8, corpus_families=3, epochs=1, classifier_epochs=20,
        )
        assert run_command(["synth", "--config", str(cfg_path)]) == 0
        assert run_command(["train-kin", "--config", str(cfg_path)]) == 0
        positives = [p for p in read_manifest(out / "manifest.csv")
                     if p.label == "kin"]
        paths = {path for p in positives for path in (p.path_a, p.path_b)}
        faces = []
        real = fcdbn.kvrl._encode_crops

        def counting(model, crops):
            faces.extend(crop.tobytes() for crop in crops["face"])
            return real(model, crops)

        monkeypatch.setattr(fcdbn.kvrl, "_encode_crops", counting)
        for threads in ("1", "2"):
            faces.clear()
            monkeypatch.setenv("FCDBN_THREADS", threads)
            assert run_command(["eval-kin", "--config", str(cfg_path)]) == 0
            assert len(faces) == len(set(faces)) == len(paths)

    def test_bad_thread_count_is_usage_error(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg_path = write_config(
            tmp_path / "c.json", output_dir=str(out),
            manifest=str(out / "manifest.csv"),
            images_dir=str(out / "images"),
            corpus_dir=str(out / "corpus"),
            model_in=str(out / "model.json"),
            families=8, corpus_families=3, epochs=1, classifier_epochs=20,
        )
        assert run_command(["synth", "--config", str(cfg_path)]) == 0
        assert run_command(["train-kin", "--config", str(cfg_path)]) == 0
        for threads in ("x", "0", "-1"):
            monkeypatch.setenv("FCDBN_THREADS", threads)
            assert run_command(["eval-kin", "--config", str(cfg_path)]) == 2
            assert not (out / "folds.csv").exists()

    EVAL_FILES = ("folds.csv", "relations.csv", "roc.csv")

    def trained_run(self, tmp_path):
        """A synthesized run with a trained model; returns a function that
        writes an eval-kin config for it into its own output directory."""
        out = tmp_path / "run"
        cfg = dict(manifest=str(out / "manifest.csv"),
                   images_dir=str(out / "images"),
                   corpus_dir=str(out / "corpus"),
                   model_in=str(out / "model.json"), families=8,
                   corpus_families=3, epochs=1, classifier_epochs=20)
        cfg_path = write_config(tmp_path / "c.json", output_dir=str(out), **cfg)
        assert run_command(["synth", "--config", str(cfg_path)]) == 0
        assert run_command(["train-kin", "--config", str(cfg_path)]) == 0

        def eval_config(tag, **overrides):
            return write_config(tmp_path / f"{tag}.json",
                                output_dir=str(tmp_path / tag),
                                **{**cfg, **overrides})

        return eval_config

    def test_fold_workers_capped_at_fold_count(self, tmp_path, monkeypatch):
        built = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(fcdbn.cli, "ProcessPoolExecutor", InProcessPool)
        eval_config = self.trained_run(tmp_path)
        csvs = {}
        for tag, threads, pools in (("one", "1", []), ("many", "64", [5]),
                                    ("nofork", "64", [])):
            built.clear()
            monkeypatch.setenv("FCDBN_THREADS", threads)
            if tag == "nofork":  # such a platform runs the folds in process
                monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                    lambda: ["spawn"])
            assert run_command(["eval-kin", "--config",
                                str(eval_config(tag))]) == 0
            assert built == pools
            csvs[tag] = read_files(tmp_path / tag, self.EVAL_FILES)
        assert csvs["many"] == csvs["one"] == csvs["nofork"]

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_failing_fold_fails_alike_in_every_worker_count(
            self, tmp_path, monkeypatch, capfd):
        eval_config = self.trained_run(tmp_path)
        monkeypatch.setenv("FCDBN_THREADS", "2")
        assert run_command(["eval-kin", "--config",
                            str(eval_config("ok"))]) == 0
        assert not multiprocessing.active_children()
        # every fold's head diverges; workers print their RuntimeWarnings
        # themselves, so only the error line is compared
        last = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("FCDBN_THREADS", threads)
            config = eval_config(f"bad{threads}", classifier_learning_rate=1e300)
            capfd.readouterr()
            assert run_command(["eval-kin", "--config", str(config)]) == 3
            last[threads] = capfd.readouterr().err.strip().splitlines()[-1]
            assert not (tmp_path / f"bad{threads}" / "folds.csv").exists()
            assert not multiprocessing.active_children()
        assert last["1"] == last["2"]
        assert last["1"].startswith(
            "runtime error: DivergenceError: training diverged (NaN/Inf) at "
            "epoch ")
