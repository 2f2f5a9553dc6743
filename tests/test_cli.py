from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hgmeta import cli
from hgmeta import data as data_mod
from hgmeta import tensor as T
from hgmeta import trainer as trainer_mod
from hgmeta import verify as verify_mod
from hgmeta.artifact import load_run_artifact, save_run_artifact, state_from_artifact
from hgmeta.config import parse_config
from hgmeta.data import SyntheticSpec, generate_synthetic, save_dataset
from hgmeta.errors import ConfigError, TrainingError
from hgmeta.mwn import weighted_alpha_theta_grad
from hgmeta.trainer import StepRecord, TrainSettings, ScheduleSpec, train

from test_data import write_toy_dataset


def tiny_config(tmp_path, **overrides):
    doc = {
        "dataset": {
            "synthetic": {
                "nodes": 24,
                "classes": 2,
                "hyperedges": 14,
                "size_range": [2, 4],
                "dim": 4,
                "noise": 0.4,
            }
        },
        "model": {"layers": 2, "hidden": 6},
        "partition": {"k": 2},
        "mwn": {"hidden": 8},
        "train": {"steps": 3},
        "seed": 7,
        "output": str(tmp_path / "run.json"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def config_echo(**doc):
    """A complete config echo, as `hgmeta train` embeds it in an artifact."""
    return parse_config({"dataset": {"path": "unused"}, **doc}).echo


# a byte that is not UTF-8 first, and a seed past Python's int-string limit of 4300 digits
UNREADABLE_JSON = {
    "not-utf8": lambda raw: b"\xff" + raw,
    "5000-digit-int": lambda raw: raw.replace(b'"seed": 7', b'"seed": ' + b"9" * 5000),
}


def _cli_process(*args):
    """``python -m hgmeta.cli`` with ``args``, run in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    command = [sys.executable, "-m", "hgmeta.cli", *map(str, args)]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


class TestTrainCommand:
    def test_train_succeeds_and_writes_artifact(self, tmp_path, capsys):
        rc = cli.main(["train", str(tiny_config(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "test_acc_blend=" in out and "mean_alpha_task0=" in out
        artifact = load_run_artifact(tmp_path / "run.json")
        assert len(artifact.history) == 3

    def test_same_config_gives_byte_identical_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        first = (tmp_path / "run.json").read_bytes()
        assert cli.main(["train", str(cfg)]) == 0
        assert (tmp_path / "run.json").read_bytes() == first

    def test_zero_steps_yields_empty_history(self, tmp_path):
        cfg = tiny_config(tmp_path, train={"steps": 0})
        assert cli.main(["train", str(cfg)]) == 0
        artifact = load_run_artifact(tmp_path / "run.json")
        assert artifact.history == []

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tiny_config(tmp_path, extra_section={"x": 1})
        assert cli.main(["train", str(cfg)]) == 2

    def test_unknown_nested_key_exits_2(self, tmp_path):
        cfg = tiny_config(tmp_path, model={"layers": 2, "widthh": 64})
        assert cli.main(["train", str(cfg)]) == 2

    def test_unknown_synthetic_key_exits_2(self, tmp_path):
        cfg = tiny_config(tmp_path, dataset={"synthetic": {"nodes": 24, "n_edges": 14}})
        assert cli.main(["train", str(cfg)]) == 2

    def test_a_meta_source_exits_2_naming_the_key(self, tmp_path, capsys):
        # the weight net trains on the meta split alone; no key chooses its source
        assert cli.main(["train", str(tiny_config(tmp_path, train={"steps": 3, "meta_source": "meta-split"}))]) == 2
        assert capsys.readouterr().err == "config error: unknown key(s) in train: ['meta_source']\n"

    @pytest.mark.parametrize(
        "section,value,shape",
        [
            ("model", {"layers": 2, "hidden": 1e14}, "(4, 100000000000000)"),
            ("model", {"layers": 2, "hidden": 1e20}, "(4, 100000000000000000000)"),
            ("mwn", {"hidden": 1e20}, "(2, 100000000000000000000)"),
            ("dataset", {"synthetic": {"nodes": 1e20, "dim": 4}}, "(100000000000000000000, 4)"),
        ],
        ids=["hidden-1e14", "hidden-1e20", "mwn-hidden-1e20", "nodes-1e20"],
    )
    def test_a_size_past_the_address_space_exits_2_naming_the_shape(self, tmp_path, capsys, section, value, shape):
        # each shape's array would exceed 128 TiB, so it is refused before anything is allocated
        assert cli.main(["train", str(tiny_config(tmp_path, **{section: value}))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and shape in err

    def test_a_size_past_the_hosts_memory_exits_2_in_one_line(self, tmp_path, capsys, monkeypatch):
        # 2**40 nodes of 4 features are 32 TiB, below the address-space bound; every draw raises as NumPy
        # would on this host, so nothing is allocated
        class Unallocatable:
            def __getattr__(self, name):
                def draw(*args, size=None, **kwargs):
                    raise MemoryError(f"Unable to allocate 32.0 TiB for an array with shape {size}")

                return draw

        monkeypatch.setattr(data_mod, "stream", lambda seed, name: Unallocatable())
        cfg = tiny_config(tmp_path, dataset={"synthetic": {"nodes": 2**40, "dim": 4}})
        assert cli.main(["train", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "more memory than this host" in err and "Unable to allocate 32.0 TiB" in err

    @pytest.mark.parametrize(
        "section,value,key",
        [
            ("model", {"layers": "two", "hidden": 6}, "model.layers"),
            ("mwn", {"hidden": "x"}, "mwn.hidden"),
            ("train", {"steps": None}, "train.steps"),
        ],
        ids=["layers-not-a-number", "mwn-hidden-not-a-number", "steps-null"],
    )
    def test_unconvertible_value_exits_2(self, tmp_path, capsys, section, value, key):
        cfg = tiny_config(tmp_path, **{section: value})
        assert cli.main(["train", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,value,key",
        [
            ("model", {"layers": 2, "hidden": 8.9}, "model.hidden"),
            ("model", {"layers": True, "hidden": 6}, "model.layers"),
            ("partition", {"k": 2.5}, "partition.k"),
            ("mwn", {"hidden": True}, "mwn.hidden"),
            ("train", {"steps": 3.5}, "train.steps"),
            ("train", {"steps": 3, "batch": 5.5}, "train.batch"),
            ("train", {"steps": 3, "batch": True}, "train.batch"),
            ("seed", True, "seed"),
            ("dataset", {"synthetic": {"nodes": 24.5, "hyperedges": 14}}, "dataset.synthetic.nodes"),
            ("dataset", {"synthetic": {"nodes": 24, "dim": True}}, "dataset.synthetic.dim"),
            ("dataset", {"synthetic": {"nodes": 24, "size_range": [2, 4.5]}}, "dataset.synthetic.size_range"),
            ("model", {"layers": 2, "hidden": "8"}, "model.hidden"),
            ("train", {"steps": 3, "batch": "8"}, "train.batch"),
            ("dataset", {"synthetic": {"nodes": 24, "size_range": ["2", 4]}}, "dataset.synthetic.size_range"),
        ],
        ids=[
            "hidden-fraction",
            "layers-bool",
            "k-fraction",
            "mwn-hidden-bool",
            "steps-fraction",
            "batch-fraction",
            "batch-bool",
            "seed-bool",
            "nodes-fraction",
            "dim-bool",
            "size-range-fraction",
            "hidden-string",
            "batch-string",
            "size-range-string",
        ],
    )
    def test_integer_key_rejects_bools_and_fractions_before_training(
        self, tmp_path, capsys, monkeypatch, section, value, key
    ):
        monkeypatch.setattr(cli, "train", _no_training)
        cfg = tiny_config(tmp_path, **{section: value})
        assert cli.main(["train", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,value,key",
        [
            ("model", {"layers": 2, "hidden": 6, "weight_decay": True}, "model.weight_decay"),
            ("model", {"layers": 2, "hidden": 6, "dropout": "0.1"}, "model.dropout"),
            ("schedules", {"c1": True}, "schedules.c1"),
            ("schedules", {"m_hat": "10"}, "schedules.m_hat"),
            ("train", {"steps": 3, "pin_alpha": True}, "train.pin_alpha"),
            ("train", {"steps": 3, "pin_alpha": False}, "train.pin_alpha"),
            ("train", {"steps": 3, "pin_alpha": "0.5"}, "train.pin_alpha"),
            ("dataset", {"synthetic": {"nodes": 24, "homophily": True}}, "dataset.synthetic.homophily"),
            ("dataset", {"synthetic": {"nodes": 24, "noise": "0.4"}}, "dataset.synthetic.noise"),
            (
                "dataset",
                {"synthetic": {"nodes": 24, "split_fractions": ["0.2", 0.2, 0.6]}},
                "dataset.synthetic.split_fractions",
            ),
        ],
        ids=[
            "weight-decay-bool",
            "dropout-string",
            "c1-bool",
            "m-hat-string",
            "pin-alpha-true",
            "pin-alpha-false",
            "pin-alpha-string",
            "homophily-bool",
            "noise-string",
            "split-fraction-string",
        ],
    )
    def test_float_key_rejects_bools_and_strings_before_training(
        self, tmp_path, capsys, monkeypatch, section, value, key
    ):
        monkeypatch.setattr(cli, "train", _no_training)
        cfg = tiny_config(tmp_path, **{section: value})
        assert cli.main(["train", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.bitwise
    def test_float_keys_take_json_integers_and_every_number_echoes_typed(self):
        # an integer setting echoes as the int it converts to, a float setting as the float
        doc = {
            "dataset": {
                "synthetic": {
                    "nodes": 24.0,
                    "homophily": 1,
                    "noise": 0,
                    "size_range": [2.0, 4],
                    "split_fractions": [1, 0, 0],
                }
            },
            "model": {"hidden": 6.0, "dropout": 0, "weight_decay": 1},
            "schedules": {"c1": 1, "c2": 0, "m_hat": 3},
            "train": {"batch": 5.0, "pin_alpha": 1},
        }
        cfg = parse_config(doc)
        settings = cfg.settings
        assert (settings.hidden, settings.batch_size, settings.weight_decay, settings.pin_alpha) == (6, 5, 1.0, 1.0)
        assert (type(settings.hidden), type(settings.batch_size), type(settings.pin_alpha)) == (int, int, float)
        assert (settings.schedule1.c, settings.schedule2.c, settings.schedule1.m_hat) == (1.0, 0.0, 3.0)
        assert cfg.synthetic.nodes == 24 and type(cfg.synthetic.nodes) is int
        assert cfg.synthetic.homophily == 1.0 and cfg.synthetic.split_fractions == (1.0, 0.0, 0.0)
        echo = {section: json.dumps(cfg.echo[section], sort_keys=True) for section in cfg.echo}
        assert echo["dataset"] == (
            '{"synthetic": {"bias": "none", "bias_fraction": 0.0, "classes": 3, "dim": 16, "homophily": 1.0, '
            '"hyperedges": 150, "nodes": 24, "noise": 0.0, "signal": 1.0, "size_range": [2, 4], '
            '"split_fractions": [1.0, 0.0, 0.0]}}'
        )
        assert echo["model"] == '{"dropout": 0.0, "hidden": 6, "layers": 2, "weight_decay": 1.0}'
        assert echo["schedules"] == '{"c1": 1.0, "c2": 0.0, "kind": "inverse-sqrt", "m_hat": 3.0}'
        assert echo["train"] == '{"batch": 5, "optimizer": "gd", "pin_alpha": 1.0, "steps": 200}'

    def test_choices_are_the_trainers_names_with_the_wording_kept(self, capsys):
        # the trainer states each set of names once; the config and the CLI read them from it
        assert trainer_mod.OPTIMIZERS == ("gd", "adam")
        with pytest.raises(ConfigError) as caught:
            parse_config({"dataset": {"path": "unused"}, "train": {"optimizer": "sgd"}})
        assert str(caught.value) == "train.optimizer must be 'gd' or 'adam'"
        with pytest.raises(SystemExit):
            cli.main(["eval", "run.json", "--mode", "both"])
        assert "invalid choice: 'both' (choose from 'ss', 'fs', 'blend')" in capsys.readouterr().err

    def test_an_empty_synthetic_section_gives_the_library_defaults(self):
        cfg = parse_config({"dataset": {"synthetic": {}}})
        assert cfg.settings == TrainSettings(steps=200)
        assert cfg.synthetic == SyntheticSpec()

    @pytest.mark.parametrize(
        "section,value,key",
        [
            ("dataset", {"synthetic": {"nodes": 24, "noise": float("inf")}}, "dataset.synthetic.noise"),
            (
                "dataset",
                {"synthetic": {"nodes": 24, "split_fractions": [0.2, float("nan"), 0.6]}},
                "dataset.synthetic.split_fractions",
            ),
            ("model", {"layers": 2, "hidden": 6, "weight_decay": float("inf")}, "model.weight_decay"),
            ("model", {"layers": 2, "hidden": 6, "dropout": float("nan")}, "model.dropout"),
            ("schedules", {"m_hat": float("inf")}, "schedules.m_hat"),
            ("schedules", {"c1": float("-inf")}, "schedules.c1"),
            ("train", {"steps": 3, "pin_alpha": float("nan")}, "train.pin_alpha"),
        ],
        ids=[
            "noise-infinity",
            "split-fraction-nan",
            "weight-decay-infinity",
            "dropout-nan",
            "m-hat-infinity",
            "c1-minus-infinity",
            "pin-alpha-nan",
        ],
    )
    def test_float_key_rejects_nan_and_infinity_before_training(
        self, tmp_path, capsys, monkeypatch, section, value, key
    ):
        monkeypatch.setattr(cli, "train", _no_training)
        cfg = tiny_config(tmp_path, **{section: value})
        assert cli.main(["train", str(cfg)]) == 2
        assert f"config error: {key} must be a finite number" in capsys.readouterr().err

    def test_a_float_key_written_past_the_float_range_is_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        # json reads 1e400 as infinity
        monkeypatch.setattr(cli, "train", _no_training)
        cfg = tiny_config(tmp_path, schedules={"m_hat": "M_HAT"})
        cfg.write_text(cfg.read_text().replace('"M_HAT"', "1e400"))
        assert cli.main(["train", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: schedules.m_hat must be a finite number, got inf\n"

    def test_integral_floats_stay_valid_with_the_echo_unchanged(self, tmp_path):
        doc = json.loads(tiny_config(tmp_path).read_text())
        whole = {**doc, "model": {"layers": 2.0, "hidden": 6.0}, "train": {"steps": 3.0, "batch": 5.0}}
        cfg, ref = parse_config(whole), parse_config({**doc, "train": {"steps": 3, "batch": 5.0}})
        settings = cfg.settings
        assert (settings.layers, settings.hidden, settings.steps, settings.batch_size) == (2, 6, 3, 5)
        assert json.dumps(cfg.echo) == json.dumps(ref.echo)

    def test_missing_output_directory_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", _no_training)
        missing = tmp_path / "nonexistent_dir"
        cfg = tiny_config(tmp_path, output=str(missing / "run.json"))
        assert cli.main(["train", str(cfg)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_unwritable_artifact_exits_3_naming_the_path(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        target.mkdir()  # a directory where the artifact file should go
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 3
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_unwritable_save_dataset_exits_3_naming_the_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", _no_training)
        target = tmp_path / "ds"
        target.write_text("")  # a file where the dataset directory should go
        assert cli.main(["train", str(tiny_config(tmp_path)), "--save-dataset", str(target)]) == 3
        assert f"cannot write {target}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_blowup_exits_4(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            dataset={"synthetic": {"nodes": 24, "classes": 2, "hyperedges": 10, "dim": 4, "signal": 1e200, "noise": 0.0}},
        )
        assert cli.main(["train", str(cfg)]) == 4

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_failure_in_the_final_evaluate_exits_4(self, tmp_path, capsys):
        # no training step runs; the hyperedge means of the evaluation forward overflow
        synthetic = {"nodes": 24, "classes": 2, "hyperedges": 10, "dim": 4, "signal": 1.7e308, "noise": 0.0}
        cfg = tiny_config(tmp_path, dataset={"synthetic": synthetic}, train={"steps": 0})
        assert cli.main(["train", str(cfg)]) == 4
        assert "training error: step 0, evaluate: " in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_failure_names_its_primitive_and_shape_in_fields(self, tmp_path, capsys, monkeypatch):
        synthetic = {"nodes": 24, "classes": 2, "hyperedges": 10, "dim": 4, "signal": 1.7e308, "noise": 0.0}
        cfg = tiny_config(tmp_path, dataset={"synthetic": synthetic}, train={"steps": 0})
        raised = []

        def recording(*args, **kwargs):
            try:
                return train(*args, **kwargs)
            except TrainingError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(cli, "train", recording)
        assert cli.main(["train", str(cfg)]) == 4
        # the hyperedge means of the 4 input features overflow; the output names them as before
        (exc,) = raised
        assert (exc.primitive, exc.shape) == ("segment_mean", (10, 4))
        assert capsys.readouterr().err == (
            "training error: step 0, evaluate: segment_mean produced non-finite values, shape (10, 4)\n"
        )

    def test_missing_dataset_dir_exits_3(self, tmp_path):
        assert cli.main(["train", str(_config_reading(tmp_path, tmp_path / "nope"))]) == 3

    @pytest.mark.parametrize("fname,code", [("features.csv", "feature-parse"), ("hyperedges.txt", "hyperedge-parse")])
    def test_a_dataset_file_that_is_not_utf8_exits_3_without_a_traceback(self, tmp_path, fname, code):
        done = _cli_process("train", _config_reading(tmp_path, _not_utf8_toy(tmp_path, fname)))
        assert done.returncode == 3
        assert done.stderr.startswith(f"data error: {code}: {fname} is not UTF-8: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("defect", list(UNREADABLE_JSON))
    def test_a_config_that_json_cannot_read_exits_2_without_a_traceback(self, tmp_path, defect):
        cfg = tiny_config(tmp_path)
        cfg.write_bytes(UNREADABLE_JSON[defect](cfg.read_bytes()))
        done = _cli_process("train", cfg)
        assert done.returncode == 2
        assert done.stderr.startswith(f"config error: config {cfg} is not valid UTF-8 JSON: ")
        assert "Traceback" not in done.stderr

    def test_seed_outside_64_bits_exits_2_naming_seed(self, tmp_path, capsys):
        for seed in (-1, 2**64):
            cfg = tiny_config(tmp_path, seed=seed)
            assert cli.main(["train", str(cfg)]) == 2
            assert capsys.readouterr().err == f"config error: seed must lie in [0, 2**64), got {seed}\n"

    def test_seeds_at_the_ends_of_64_bits_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert parse_config({"dataset": {"path": "unused"}, "seed": seed}).settings.seed == seed

    def test_save_dataset_flag_dumps_files(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg), "--save-dataset", str(tmp_path / "ds")]) == 0
        assert (tmp_path / "ds" / "hyperedges.txt").exists()


def _not_utf8_toy(tmp_path, fname):
    """The toy dataset directory with a byte that is not UTF-8 at the start of ``fname``."""
    root = write_toy_dataset(tmp_path / "toy")
    (root / fname).write_bytes(b"\xff" + (root / fname).read_bytes())
    return root


def _config_reading(tmp_path, root):
    """``tiny_config`` with the dataset read from the directory ``root``."""
    doc = json.loads(tiny_config(tmp_path).read_text())
    doc["dataset"] = {"path": str(root)}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    return cfg


def _no_training(*args, **kwargs):
    raise AssertionError("training ran")


def test_documented_example_config_parses():
    doc = {
        "dataset": {
            "synthetic": {
                "nodes": 200,
                "classes": 3,
                "hyperedges": 150,
                "homophily": 0.9,
                "noise": 0.5,
            }
        },
        "model": {"layers": 2, "hidden": 64},
        "partition": {"k": 3},
        "mwn": {"hidden": 100, "output_mode": "complementary"},
        "schedules": {"kind": "inverse-sqrt", "c1": 0.02, "c2": 1.0, "m_hat": 10.0},
        "train": {"steps": 200},
        "seed": 0,
        "output": "run.json",
    }
    cfg = parse_config(doc)
    assert cfg.settings.steps == 200
    assert cfg.settings.hidden == 64
    assert cfg.echo["mwn"]["log1p"] is False  # defaults are materialized


class TestEvalCommand:
    def test_eval_reproduces_train_accuracy(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        train_out = capsys.readouterr().out
        train_acc = [l for l in train_out.splitlines() if l.startswith("test_acc_blend=")][0]
        assert cli.main(["eval", str(tmp_path / "run.json"), "--regen", "--mode", "blend"]) == 0
        eval_out = capsys.readouterr().out
        eval_acc = [l for l in eval_out.splitlines() if l.startswith("accuracy=")][0]
        assert train_acc.split("=")[1] == eval_acc.split("=")[1]

    def test_eval_single_branch_mode(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(tmp_path / "run.json"), "--regen", "--mode", "ss"]) == 0
        out = capsys.readouterr().out
        assert "mode=ss" in out
        assert "class0: precision=" in out

    def test_an_artifact_with_an_empty_test_split_reloads(self, tmp_path, capsys):
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["dataset"]["synthetic"]["split_fractions"] = [0.5, 0.5, 0.0]
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert cli.main(["train", str(tmp_path / "config.json")]) == 0
        assert math.isnan(json.loads((tmp_path / "run.json").read_text())["metrics"]["test_acc_blend"])
        capsys.readouterr()
        assert cli.main(["eval", str(tmp_path / "run.json"), "--regen"]) == 0
        assert "accuracy=nan" in capsys.readouterr().out

    def test_an_artifact_with_a_nan_loss_in_its_history_reloads(self, tmp_path):
        assert cli.main(["train", str(tiny_config(tmp_path))]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        doc["history"][-1]["train_loss"] = doc["history"][-1]["meta_loss"] = float("nan")
        (tmp_path / "nan.json").write_text(json.dumps(doc))
        artifact = load_run_artifact(tmp_path / "nan.json")
        assert math.isnan(artifact.history[-1]["train_loss"])

    def test_dimension_mismatch_exits_3(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        other = generate_synthetic(SyntheticSpec(nodes=20, classes=2, hyperedges=8, dim=9), seed=1)
        save_dataset(other, tmp_path / "other")
        rc = cli.main(["eval", str(tmp_path / "run.json"), "--dataset", str(tmp_path / "other")])
        assert rc == 3

    def test_missing_dataset_arg_exits_3(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        assert cli.main(["eval", str(tmp_path / "run.json")]) == 3

    def test_an_artifact_whose_echo_holds_infinity_exits_3(self, tmp_path, capsys):
        assert cli.main(["train", str(tiny_config(tmp_path, train={"steps": 0}))]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        doc["config"]["schedules"]["m_hat"] = float("inf")
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["eval", str(tmp_path / "bad.json"), "--regen"]) == 3
        err = capsys.readouterr().err
        assert "artifact-schema" in err and "schedules.m_hat must be a finite number" in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_an_artifact_whose_echo_holds_a_seed_outside_64_bits_exits_3(self, tmp_path, capsys, seed):
        assert cli.main(["train", str(tiny_config(tmp_path, train={"steps": 0}))]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        doc["config"]["seed"] = seed
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["eval", str(tmp_path / "bad.json"), "--regen"]) == 3
        err = capsys.readouterr().err
        assert "artifact-schema" in err and "seed must lie in [0, 2**64)" in err

    @pytest.mark.parametrize("defect", list(UNREADABLE_JSON))
    def test_an_artifact_that_json_cannot_read_exits_3_without_a_traceback(self, tmp_path, defect):
        assert cli.main(["train", str(tiny_config(tmp_path, train={"steps": 0}))]) == 0
        run = tmp_path / "run.json"
        run.write_bytes(UNREADABLE_JSON[defect](run.read_bytes()))
        done = _cli_process("eval", run, "--regen")
        assert done.returncode == 3
        assert done.stderr.startswith(f"data error: artifact-parse: {run}: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "mangle",
        [
            "format-only",
            "drop-checkpoint",
            "no-classifier-layers",
            "layers-unlike-the-echo",
            "history-not-a-list",
            "echo-mode-unknown",
            "schedules-not-an-object",
            "drop-seed",
            "nodes-not-a-number",
            "unknown-schedule-kind",
            "mean-alpha-unlike-k",
            "mwn-heads-unlike-the-centroids",
            "nan-centroid",
            "reversed-centroids",
            "negative-echo-k",
            "labels-out-of-range",
            "echo-k-below-the-centroid-count",
            "hgnn-section-a-list",
            "undecodable-extra-entry",
            "unknown-entry",
            "fractional-echo-k",
            "lr1-a-string",
            "fractional-step",
            "extra-history-key",
            "extra-top-level-key",
            "echo-mode-unlike-the-checkpoint",
            "echo-hidden-unlike-the-checkpoint",
            "echo-mwn-hidden-unlike-the-checkpoint",
            "step-a-boolean",
            "lr1-a-boolean",
            "labels-booleans",
            "echo-log1p-a-number",
            "previous-layout-steps-run",
            "previous-layout-hgnn-layout",
            "previous-layout-mwn-meta",
            "previous-layout-partition-k",
            "previous-layout-requested-k",
            "previous-layout-meta-source",
        ],
    )
    def test_malformed_artifact_exits_3(self, tmp_path, capsys, mangle):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert len(doc["partition"]["centroids"]) == doc["config"]["partition"]["k"] == 2
        if mangle == "format-only":
            doc = {"format": doc["format"]}
        elif mangle == "drop-checkpoint":
            del doc["checkpoint"]
        elif mangle == "no-classifier-layers":
            doc["checkpoint"]["hgnn"] = {}
        elif mangle == "layers-unlike-the-echo":
            doc["config"]["model"]["layers"] = 3
        elif mangle == "history-not-a-list":
            doc["history"] = 3
        elif mangle == "echo-mode-unknown":
            doc["config"]["mwn"]["output_mode"] = "sideways"
        elif mangle == "schedules-not-an-object":
            doc["config"]["schedules"] = 3
        elif mangle == "drop-seed":
            del doc["config"]["seed"]
        elif mangle == "nodes-not-a-number":
            doc["config"]["dataset"]["synthetic"]["nodes"] = "many"
        elif mangle == "mean-alpha-unlike-k":
            doc["history"][-1]["mean_alpha"] = doc["history"][-1]["mean_alpha"][:1]
        elif mangle == "mwn-heads-unlike-the-centroids":
            del doc["checkpoint"]["mwn"]["head1_w"], doc["checkpoint"]["mwn"]["head1_b"]
        elif mangle == "nan-centroid":
            doc["partition"]["centroids"][0] = float("nan")
        elif mangle == "reversed-centroids":
            doc["partition"]["centroids"].reverse()
        elif mangle == "negative-echo-k":
            doc["config"]["partition"]["k"] = -3
        elif mangle == "labels-out-of-range":
            assert doc["partition"]["labels"]
            doc["partition"]["labels"] = [7] * len(doc["partition"]["labels"])
        elif mangle == "echo-k-below-the-centroid-count":
            doc["config"]["partition"]["k"] = 1
        elif mangle == "hgnn-section-a-list":
            doc["checkpoint"]["hgnn"] = []
        elif mangle == "undecodable-extra-entry":
            doc["checkpoint"]["mwn"]["extra"] = "not an array"
        elif mangle == "unknown-entry":
            doc["checkpoint"]["hgnn"]["extra"] = doc["checkpoint"]["hgnn"]["a0"]
        elif mangle == "fractional-echo-k":
            doc["config"]["partition"]["k"] = 2.7
        elif mangle == "lr1-a-string":
            doc["history"][0]["lr1"] = str(doc["history"][0]["lr1"])
        elif mangle == "fractional-step":
            doc["history"][1]["step"] = 2.7
        elif mangle == "extra-history-key":
            doc["history"][0]["extra"] = 1
        elif mangle == "extra-top-level-key":
            doc["extra"] = 1
        elif mangle == "echo-mode-unlike-the-checkpoint":
            doc["config"]["mwn"]["output_mode"] = "independent"
        elif mangle == "echo-hidden-unlike-the-checkpoint":
            doc["config"]["model"]["hidden"] = 16
        elif mangle == "echo-mwn-hidden-unlike-the-checkpoint":
            doc["config"]["mwn"]["hidden"] = 20
        elif mangle == "step-a-boolean":
            assert doc["history"][0]["step"] == 1
            doc["history"][0]["step"] = True
        elif mangle == "lr1-a-boolean":
            doc["history"][0]["lr1"] = True
        elif mangle == "labels-booleans":
            doc["partition"]["labels"] = [bool(v) for v in doc["partition"]["labels"]]
        elif mangle == "echo-log1p-a-number":
            doc["config"]["mwn"]["log1p"] = 0
        elif mangle.startswith("previous-layout-"):
            # earlier versions also wrote these keys, each restating another entry, with these values
            layout = [{"name": name, "shape": arr["shape"]} for name, arr in doc["checkpoint"]["hgnn"].items()]
            mwn_meta = {"k": 2, "hidden": 8, "mode": "complementary", "log1p_inputs": False}
            section, key, value = {
                "steps-run": (doc, "steps_run", len(doc["history"])),
                "hgnn-layout": (doc["checkpoint"], "hgnn_layout", layout),
                "mwn-meta": (doc["checkpoint"], "mwn_meta", mwn_meta),
                "partition-k": (doc["partition"], "k", 2),
                "requested-k": (doc["partition"], "requested_k", 2),
                "meta-source": (doc["config"]["train"], "meta_source", "meta-split"),
            }[mangle.removeprefix("previous-layout-")]
            section[key] = value
        else:
            doc["config"]["schedules"]["kind"] = "cosine"
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["eval", str(tmp_path / "bad.json"), "--regen"]) == 3
        assert "artifact-schema" in capsys.readouterr().err


class TestAnalyzeOverlap:
    def test_hub_toy_row_shows_six_decimals(self, tmp_path, capsys):
        root = write_toy_dataset(tmp_path / "toy")
        assert cli.main(["analyze-overlap", str(root)]) == 0
        out = capsys.readouterr().out
        assert "0 1.714286 " in out

    def test_single_hyperedge_dataset_has_one_level(self, tmp_path, capsys):
        root = tmp_path / "single"
        root.mkdir()
        (root / "hyperedges.txt").write_text("0 1 2\n")
        (root / "features.csv").write_text("\n".join(["1.0"] * 3) + "\n")
        (root / "labels.csv").write_text("0,0\n1,0\n2,1\n")
        (root / "splits.json").write_text(json.dumps({"train": [0], "meta": [1], "test": [2]}))
        assert cli.main(["analyze-overlap", str(root)]) == 0
        out = capsys.readouterr().out
        assert "centroids=[1.0]" in out
        assert "level0: 3 nodes" in out

    def test_without_hyperedges_every_node_is_undefined_at_one_level(self, tmp_path, capsys):
        root = tmp_path / "edgeless"
        root.mkdir()
        (root / "hyperedges.txt").write_text("")
        (root / "features.csv").write_text("\n".join(["1.0"] * 3) + "\n")
        (root / "labels.csv").write_text("0,0\n1,0\n2,1\n")
        (root / "splits.json").write_text(json.dumps({"train": [0], "meta": [1], "test": [2]}))
        assert cli.main(["analyze-overlap", str(root), "--csv", str(tmp_path / "overlap.csv")]) == 0
        assert capsys.readouterr().out == (
            "node_id p level\n0 undefined 0\n1 undefined 0\n2 undefined 0\ncentroids=[1.0]\nlevel0: 3 nodes\n"
        )
        assert (tmp_path / "overlap.csv").read_text().splitlines() == ["node_id,p,level", "0,,0", "1,,0", "2,,0"]

    def test_csv_output(self, tmp_path, capsys):
        root = write_toy_dataset(tmp_path / "toy")
        csv_path = tmp_path / "overlap.csv"
        assert cli.main(["analyze-overlap", str(root), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "node_id,p,level"
        assert len(lines) == 8

    def test_class_id_past_int64_exits_3(self, tmp_path, capsys):
        labels = ["1,99999999999999999999"] + [f"{v},0" for v in (0, *range(2, 7))]
        assert cli.main(["analyze-overlap", str(write_toy_dataset(tmp_path / "toy", label_lines=labels))]) == 3
        assert capsys.readouterr().err.startswith("data error: label-range: labels.csv line 1: class id 999")

    def test_unwritable_csv_exits_3_naming_the_path(self, tmp_path, capsys):
        root = write_toy_dataset(tmp_path / "toy")
        target = tmp_path / "overlap.csv"
        target.mkdir()
        assert cli.main(["analyze-overlap", str(root), "--csv", str(target)]) == 3
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_levels_cover_range_on_spread_synthetic(self, tmp_path, capsys):
        ds = generate_synthetic(
            SyntheticSpec(nodes=60, classes=2, hyperedges=70, size_range=(2, 6)), seed=3
        )
        save_dataset(ds, tmp_path / "ds")
        assert cli.main(["analyze-overlap", str(tmp_path / "ds"), "--k", "3"]) == 0
        out = capsys.readouterr().out
        for level in range(3):
            assert f"level{level}:" in out

    @pytest.mark.parametrize("closed", ["after-the-first-line", "before-any-output"])
    def test_a_closed_standard_output_exits_3_without_a_traceback(self, tmp_path, closed):
        if closed == "before-any-output":
            # seven rows of output wait in stdout's buffer for the flush at the end of the command
            root = write_toy_dataset(tmp_path / "toy")
        else:
            # 100,000 rows of output overfill the pipe, so the command is still writing when the reader leaves
            root = tmp_path / "wide"
            root.mkdir()
            (root / "hyperedges.txt").write_text("0 1 2\n")
            (root / "features.csv").write_text("1\n" * 100_000)
            (root / "labels.csv").write_text("0,0\n")
            (root / "splits.json").write_text(json.dumps({"train": [0], "meta": [], "test": []}))
        # a block-buffered stdout, as a shell pipe gives one
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        command = [sys.executable, "-m", "hgmeta.cli", "analyze-overlap", str(root)]
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            if closed == "after-the-first-line":
                assert proc.stdout.readline() == b"node_id p level\n"
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 3, stderr
        assert stderr == "data error: standard output was closed before the output was written\n"

    @pytest.mark.skipif(not Path("/proc/self/mem").exists(), reason="needs /proc/self/mem, whose first page reads EIO")
    @pytest.mark.parametrize("fname", ["features.csv", "hyperedges.txt", "labels.csv", "splits.json"])
    def test_an_io_error_reading_a_dataset_file_exits_3_naming_it(self, tmp_path, capsys, fname):
        root = write_toy_dataset(tmp_path / "toy")
        (root / fname).unlink()
        (root / fname).symlink_to("/proc/self/mem")
        assert cli.main(["analyze-overlap", str(root)]) == 3
        assert capsys.readouterr().err == f"data error: file-read: cannot read {root / fname}: [Errno 5] Input/output error\n"


class TestEmitLosses:
    def test_zero_weight_checkpoint_gives_log_c(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(nodes=20, classes=3, hyperedges=10), seed=2)
        save_dataset(ds, tmp_path / "ds")
        settings = TrainSettings(steps=0, k=2, hidden=4, mwn_hidden=4, seed=0)
        state, metrics = train(ds, settings)
        zeroed = state.hgnn.with_vec(np.zeros(state.hgnn.flatten().size))
        state.hgnn = zeroed
        echo = config_echo(seed=0, partition={"k": 2}, model={"hidden": 4}, mwn={"hidden": 4}, train={"steps": 0})
        save_run_artifact(tmp_path / "run.json", echo, state, metrics)
        rc = cli.main(
            [
                "emit-losses",
                str(tmp_path / "run.json"),
                "--dataset",
                str(tmp_path / "ds"),
                "--losses-csv",
                str(tmp_path / "losses.csv"),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "losses.csv").read_text().splitlines()
        assert len(lines) == 1 + len(ds.splits.train)
        for line in lines[1:]:
            _, l1, l2 = line.split(",")
            assert float(l1) == pytest.approx(np.log(3.0), rel=1e-12)
            assert float(l2) == pytest.approx(np.log(3.0), rel=1e-12)

    def test_history_rows_equal_steps(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        rc = cli.main(
            [
                "emit-losses",
                str(tmp_path / "run.json"),
                "--regen",
                "--losses-csv",
                str(tmp_path / "l.csv"),
                "--history-csv",
                str(tmp_path / "h.csv"),
            ]
        )
        assert rc == 0
        history = (tmp_path / "h.csv").read_text().splitlines()
        assert len(history) == 1 + 3

    @pytest.mark.parametrize("which", ["losses", "history"])
    def test_unwritable_csv_exits_3_naming_the_path(self, tmp_path, capsys, which):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        paths = {"losses": tmp_path / "l.csv", "history": tmp_path / "h.csv"}
        paths[which].mkdir()
        capsys.readouterr()
        rc = cli.main(
            [
                "emit-losses",
                str(tmp_path / "run.json"),
                "--regen",
                "--losses-csv",
                str(paths["losses"]),
                "--history-csv",
                str(paths["history"]),
            ]
        )
        assert rc == 3
        assert f"cannot write {paths[which]}" in capsys.readouterr().err

    def test_config_echo_without_seed_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert cli.main(["train", str(cfg)]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        del doc["config"]["seed"]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = cli.main(["emit-losses", str(tmp_path / "bad.json"), "--regen", "--losses-csv", str(tmp_path / "l.csv")])
        assert rc == 3
        assert "artifact-schema" in capsys.readouterr().err


class TestGradCheck:
    def test_default_toy_passes(self, capsys):
        assert cli.main(["grad-check", "--nodes", "6", "--hidden", "3", "--mwn-hidden", "4"]) == 0
        out = capsys.readouterr().out
        assert "result=ok" in out
        assert "per_sample_row_max_rel_err=" in out
        assert "complementary_meta_max_rel_err=" in out
        assert "independent_meta_max_rel_err=" in out

    @pytest.mark.parametrize(
        "flag,value",
        [("--nodes", "1"), ("--nodes", "0"), ("--nodes", "-3"), ("--hidden", "0"), ("--mwn-hidden", "0")],
    )
    def test_sizes_it_cannot_check_exit_2_before_any_check(self, monkeypatch, capsys, flag, value):
        def no_check(**kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "hgnn_gradient_check", no_check)
        monkeypatch.setattr(cli, "meta_gradient_check", no_check)
        assert cli.main(["grad-check", flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and "result=" not in captured.out

    @pytest.mark.parametrize(
        "flag,value",
        [("--seed", "-1"), ("--seed", str(2**64)), ("--lam1", "nan"), ("--lam1", "inf"), ("--lam1", "-inf")],
    )
    def test_seeds_and_rates_it_would_misread_exit_2_before_any_check(self, monkeypatch, capsys, flag, value):
        def no_check(**kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "hgnn_gradient_check", no_check)
        # "--lam1 -inf" would read as a flag
        assert cli.main(["grad-check", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and flag in captured.err

    def test_the_largest_seed_reaches_the_checks(self, monkeypatch):
        class Reached(Exception):
            pass

        def first_check(**kwargs):
            raise Reached(kwargs["seed"])

        monkeypatch.setattr(cli, "hgnn_gradient_check", first_check)
        with pytest.raises(Reached, match=str(2**64 - 1)):
            cli.main(["grad-check", "--seed", str(2**64 - 1)])

    def test_seed_2_passes_at_the_defaults(self, capsys):
        assert cli.main(["grad-check", "--seed", "2"]) == 0
        assert "result=ok" in capsys.readouterr().out

    def test_seed_6_passes_and_names_the_blocks_differenced_again(self, capsys):
        # head 1's analytic meta-gradient is exactly zero at seed 6 (see verify.meta_gradient_check)
        assert cli.main(["grad-check", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "result=ok" in out
        assert "complementary_meta_redifferenced=head1_w,head1_b\n" in out

    def test_smallest_checkable_sizes_run(self, capsys):
        assert cli.main(["grad-check", "--nodes", "2", "--hidden", "1", "--mwn-hidden", "1"]) == 0
        assert "result=ok" in capsys.readouterr().out

    def test_zero_lam1_reports_exact_zero_meta_gradient(self, capsys):
        assert cli.main(["grad-check", "--nodes", "6", "--hidden", "3", "--lam1", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "meta_grad_norm=0.000000e+00" in out

    def test_independent_mode_breach_exits_5(self, monkeypatch, capsys):
        # negative control: drop the beta term, which both output modes seed (complementary as beta = 1 - alpha)
        def alpha_term_only(l1, l2, tasks, params, coeffs, beta_coeffs=None):
            return weighted_alpha_theta_grad(l1, l2, tasks, params, coeffs)

        monkeypatch.setattr(trainer_mod, "weighted_alpha_theta_grad", alpha_term_only)
        rc = cli.main(["grad-check", "--nodes", "6", "--hidden", "3", "--mwn-hidden", "4"])
        out = capsys.readouterr().out
        assert rc == 5
        assert "result=tolerance-breach" in out

    def test_corrupted_per_sample_row_exits_5(self, monkeypatch, capsys):
        # negative control: only the per-sample row check reads the rows of verify's _grad_rows
        grad_rows = verify_mod._grad_rows
        monkeypatch.setattr(verify_mod, "_grad_rows", lambda *args, **kwargs: 0.5 * grad_rows(*args, **kwargs))
        rc = cli.main(["grad-check", "--nodes", "6", "--hidden", "3", "--mwn-hidden", "4"])
        out = capsys.readouterr().out
        assert rc == 5 and "result=tolerance-breach" in out
        errors = dict(line.split("=") for line in out.splitlines() if "_err=" in line)
        assert float(errors.pop("per_sample_row_max_rel_err")) > 1e-2
        assert all(float(err) < 1e-4 for err in errors.values())

    def test_corrupted_tangent_rule_exits_5(self, monkeypatch, capsys):
        # negative control: elu's tangent rule loses its derivative factor, its backward rules keep it
        elu = T.elu

        def without_factor(a):
            out = elu(a)
            if out.idx is not None:
                *record, _ = out.tape._records[-1]
                out.tape._records[-1] = (*record, lambda ta: ta)
            return out

        monkeypatch.setattr(T, "elu", without_factor)
        rc = cli.main(["grad-check", "--nodes", "6", "--hidden", "3", "--mwn-hidden", "4"])
        out = capsys.readouterr().out
        assert rc == 5 and "result=tolerance-breach" in out
        errors = dict(line.split("=") for line in out.splitlines() if "_err=" in line)
        assert float(errors["jvp_max_rel_err"]) > 1e-2
        # the backward passes are untouched; the meta gradient takes its signal from the tangents
        assert all(float(errors[name]) < 1e-4 for name in ("hgnn_ss_max_rel_err", "hgnn_fs_max_rel_err", "per_sample_row_max_rel_err"))

    @pytest.mark.parametrize("name,breached", [("a0", "hgnn_fs_max_rel_err"), ("head1_b", "complementary_meta_max_rel_err")])
    def test_one_parameter_gradient_off_by_one_percent_exits_5(self, monkeypatch, capsys, name, breached):
        # negative control: one array 1% off reads 1% by its own scale; by the whole gradient's, a0 would read 2.2e-3
        backward = T.Tape.backward

        def one_scaled(self, *args, **kwargs):
            grads = backward(self, *args, **kwargs)
            if name in grads:
                grads[name] = 1.01 * grads[name]
            return grads

        monkeypatch.setattr(T.Tape, "backward", one_scaled)
        rc = cli.main(["grad-check", "--nodes", "6", "--hidden", "3", "--mwn-hidden", "4"])
        out = capsys.readouterr().out
        assert rc == 5 and "result=tolerance-breach" in out
        errors = dict(line.split("=") for line in out.splitlines() if "_err=" in line)
        assert errors[breached] == "1.000e-02"

    def test_corrupted_backward_exits_5(self, monkeypatch, capsys):
        # negative control: break one derivative and the check must fail
        monkeypatch.setattr(T, "_d_elu", lambda x, out: np.where(x > 0.0, 1.0, 0.5 * (out + 1.0)))
        rc = cli.main(["grad-check", "--nodes", "6", "--hidden", "3", "--mwn-hidden", "4"])
        assert rc == 5
        assert "result=tolerance-breach" in capsys.readouterr().out


class TestArtifactRoundTrip:
    def test_checkpoints_restore_bitwise(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(nodes=24, classes=2, hyperedges=12, dim=4), seed=4)
        settings = TrainSettings(
            steps=2, k=2, hidden=5, mwn_hidden=6, seed=1,
            schedule1=ScheduleSpec(c=0.02), schedule2=ScheduleSpec(c=0.5),
        )
        state, metrics = train(ds, settings)
        echo = config_echo(
            seed=1, partition={"k": 2}, model={"hidden": 5}, mwn={"hidden": 6}, schedules={"c2": 0.5}, train={"steps": 2}
        )
        save_run_artifact(tmp_path / "a.json", echo, state, metrics)
        artifact = load_run_artifact(tmp_path / "a.json")
        np.testing.assert_array_equal(artifact.hgnn.flatten(), state.hgnn.flatten())
        np.testing.assert_array_equal(artifact.mwn.flatten(), state.mwn.flatten())
        np.testing.assert_array_equal(artifact.partition.centroids, state.partition.centroids)
        assert artifact.metrics == metrics
        restored = state_from_artifact(artifact)
        assert restored.step == state.step
        assert [r.to_dict() for r in restored.history] == [r.to_dict() for r in state.history]

    def test_integral_float_k_evaluates(self, tmp_path):
        # the config accepts an integral float for an integer, and so does the artifact's echo
        assert cli.main(["train", str(tiny_config(tmp_path))]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        doc["config"]["partition"] = {"k": 2.0}
        (tmp_path / "edited.json").write_text(json.dumps(doc))
        assert cli.main(["eval", str(tmp_path / "edited.json"), "--regen"]) == 0

    def test_step_record_round_trips_a_nan_alpha(self):
        rec = StepRecord(
            step=3, lr1=0.02, lr2=0.5, train_loss=1.25, meta_loss=0.75,
            mean_alpha=[0.4, float("nan")], grad_w_norm=2.0, grad_theta_norm=0.0,
        )
        back = StepRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.to_dict()["mean_alpha"] == [0.4, None]
        # NaN is unequal to itself, so compare as assert_equal does, NaN matching NaN
        np.testing.assert_equal(vars(back), vars(rec))
        assert [type(v) for v in vars(back).values()] == [int, float, float, float, float, list, float, float]

    def test_each_history_record_is_decoded_once(self, tmp_path, monkeypatch):
        assert cli.main(["train", str(tiny_config(tmp_path, train={"steps": 40}))]) == 0
        decoded = []
        from_dict = StepRecord.from_dict.__func__
        monkeypatch.setattr(StepRecord, "from_dict", classmethod(lambda cls, rec: decoded.append(rec) or from_dict(cls, rec)))
        state = state_from_artifact(load_run_artifact(tmp_path / "run.json"))
        assert len(decoded) == len(state.history) == 40

    def test_history_row_count_matches_steps(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(nodes=24, classes=2, hyperedges=12, dim=4), seed=5)
        state, metrics = train(ds, TrainSettings(steps=4, k=2, hidden=5, mwn_hidden=6, seed=2))
        echo = config_echo(seed=2, partition={"k": 2}, model={"hidden": 5}, mwn={"hidden": 6}, train={"steps": 4})
        save_run_artifact(tmp_path / "a.json", echo, state, metrics)
        assert len(load_run_artifact(tmp_path / "a.json").history) == 4
