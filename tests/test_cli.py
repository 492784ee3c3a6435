"""Command line entry points, exercised in-process through run()."""
import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from flexidrop import training
from flexidrop.bounds import BoundContext, complexity_prefactor
from flexidrop.cli import SWEPT_KEYS, run
from flexidrop.graphs import SplitSpec, generate_sbm, load_graph
from flexidrop.model import ModelConfig
from flexidrop.training import train


def read_csv_without_wall_clock(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("wall_clock_s")
    return ["\x1f".join(c for i, c in enumerate(line.split(",")) if i != drop)
            for line in lines]


def write_config(tmp_path, body):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(body))
    return str(p)


def small_config(tmp_path, drop=(), **overrides):
    """A small config file without the ``drop`` keys ("section.key"), then ``overrides``."""
    body = {"dataset": {"kind": "sbm", "num_nodes": 40, "num_blocks": 2, "p_in": 0.4,
                        "p_out": 0.1, "feature_dim": 4, "noise_scale": 0.2, "seed": 7},
            "model": {"hidden_dims": [8], "strategy": "flexidrop"},
            "train": {"epochs": 4, "learning_rate": 0.05, "reg_lambda": 0.1,
                      "eval_every": 2}}
    for key in drop:
        section, name = key.split(".")
        body[section].pop(name, None)
    for section, vals in overrides.items():
        body.setdefault(section, {}).update(vals)
    return write_config(tmp_path, body)


def sweep_config(tmp_path, command, **overrides):
    """``small_config`` without the keys the sweep ``command`` refuses."""
    return small_config(tmp_path, drop=SWEPT_KEYS[command], **overrides)


def record_trained_configs(monkeypatch) -> list:
    """Replace training.train with a wrapper that records each cell's model config."""
    trained = []

    def recording(graph, model_config, train_config):
        trained.append(model_config)
        return train(graph, model_config, train_config)

    monkeypatch.setattr(training, "train", recording)
    return trained


# ---- exit codes ---------------------------------------------------------------------


def test_unknown_flag_exits_two():
    # a unique prefix of a flag (--epoch for --epochs) is unknown too
    for argv in (["train", "--no-such-flag"], ["train", "--epoch", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = run(["train", "--config", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_model_setting_reports_error_json(tmp_path, capsys):
    cfg = small_config(tmp_path, model={"strategy": "flexidrop", "rate": 0.5})
    out = tmp_path / "o"
    code = run(["train", "--config", cfg, "--out", str(out)])
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert "rate" in err["error"]


def test_failure_without_out_writes_error_json_under_the_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FLEXIDROP_OUTPUT_ROOT", str(tmp_path))
    cfg = write_config(tmp_path, {"train": {"seed": 3}})
    assert run(["grid", "--config", cfg]) == 1
    err = json.loads((tmp_path / "grid" / "error.json").read_text())
    assert err["type"] == "ValidationError" and "'train.seed'" in err["error"]
    # a later successful run in the same directory leaves no stale error record
    assert run(["grid", "--config", sweep_config(tmp_path, "grid"), "--strategies", "none",
                "--rates", "0", "--seeds", "0", "--epochs", "1"]) == 0
    assert not (tmp_path / "grid" / "error.json").exists()
    assert (tmp_path / "grid" / "grid.csv").exists()


@pytest.mark.parametrize("flags, config, key", (
    (["--learning-rate", "nan"], None, "learning_rate"),
    (["--lambda", "inf"], None, "reg_lambda"),
    ([], '{"train": {"learning_rate": NaN}}', "learning_rate"),   # JSON's NaN literal
), ids=("learning-rate-flag", "lambda-flag", "json-nan"))
def test_non_finite_rate_fails_before_training_naming_the_field(tmp_path, capsys, flags,
                                                                config, key):
    # a NaN learning rate once trained until NaN weights aborted the run at epoch 2
    args = list(flags)
    if config:
        (tmp_path / "nan.json").write_text(config)
        args += ["--config", str(tmp_path / "nan.json")]
    out = tmp_path / "o"
    assert run(["train", *args, "--epochs", "2", "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "ValueError" and err["error"].startswith(f"{key} must be finite")
    assert f"error: {key} must be finite" in capsys.readouterr().err
    assert not (out / "last_finite.npz").exists() and not (out / "run.csv").exists()


@pytest.mark.parametrize("section, entries, key", (
    ("train", {"epochs": "4"}, "epochs"),
    ("train", {"reg_lamda": 0.1}, "reg_lamda"),
    ("train", {"eval_every": True}, "eval_every"),
    ("model", {"rate": "0.3", "strategy": "dropedge"}, "rate"),
    ("model", {"propagaton_mode": "symmetric"}, "propagaton_mode"),
))
def test_bad_config_entry_reports_error_json(tmp_path, capsys, section, entries, key):
    cfg = small_config(tmp_path, **{section: entries})
    out = tmp_path / "o"
    assert run(["train", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "ValidationError" and repr(key) in err["error"]
    assert not (out / "run.csv").exists()


@pytest.mark.parametrize("section, entries, key", (
    ("dataset", {"num_node": 60}, "num_node"),
    ("dataset", {"num_nodes": "40"}, "num_nodes"),
    ("dataset", {"seed": True}, "seed"),
    ("dataset", {"p_in": "0.4"}, "p_in"),
    ("dataset", {"split_fractions": [0.6, 0.2]}, "split_fractions"),
    ("model", {"hidden_dims": 8}, "hidden_dims"),
    ("model", {"hidden_dims": ["8"]}, "hidden_dims"),
    ("model", {"output_dim": "32"}, "output_dim"),
    ("model", {"output_dim": 3.0}, "output_dim"),
))
def test_bad_dataset_or_width_entry_reports_error_json(tmp_path, section, entries, key):
    cfg = small_config(tmp_path, **{section: entries})
    out = tmp_path / "o"
    assert run(["train", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "ValidationError" and repr(key) in err["error"]
    assert not (out / "run.csv").exists()


@pytest.mark.parametrize("model, key", (
    ({"layer_dims": [4, 8, 2], "hidden_dims": [64]}, "hidden_dims"),
    ({"layer_dims": [4, 8, 2], "output_dim": 7, "task": "link_prediction"}, "output_dim"),
    ({"output_dim": 7}, "output_dim"),
), ids=("hidden-beside-layer-dims", "output-beside-layer-dims", "output-under-node-task"))
def test_a_shape_key_that_would_not_be_read_reports_error_json(tmp_path, model, key):
    # each trained without a word before: 4-8-2, or the class count as output width
    out = tmp_path / "o"
    cfg = small_config(tmp_path, drop=("model.hidden_dims",), model=model)
    assert run(["train", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "ValidationError" and f"model: key {key!r}" in err["error"]
    assert not (out / "run.csv").exists()


def test_output_dim_sets_the_width_of_a_link_model(tmp_path):
    out = tmp_path / "o"
    cfg = small_config(tmp_path, model={"task": "link_prediction", "output_dim": 5})
    assert run(["train", "--config", cfg, "--out", str(out), "--epochs", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["layer_dims"] == [4, 8, 5]


def sbm_files_config(tmp_path, split):
    data = tmp_path / "data"
    assert run(["sbm", "--num-nodes", "30", "--feature-dim", "4", "--out", str(data)]) == 0
    dataset = {"kind": "files", "edges": str(data / "edges.txt"),
               "features": str(data / "features.csv"), "labels": str(data / "labels.csv"),
               "split": split(data)}
    return write_config(tmp_path, {"dataset": dataset, "model": {"hidden_dims": [8]}})


def test_files_dataset_with_index_files_trains(tmp_path):
    cfg = sbm_files_config(tmp_path, lambda data: {
        "index_files": [str(data / f"{s}_idx.txt") for s in ("train", "val", "test")]})
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "o"), "--epochs", "1"]) == 0


@pytest.mark.parametrize("split, key", (
    ({"fractions": [0.6, 0.2, 0.2], "sede": 1}, "sede"),
    ({"fractions": [0.6, 0.2, 0.2], "seed": "1"}, "seed"),
    ({"index_files": "train_idx.txt"}, "index_files"),
    ({"index_files": ["a", "b", "c"], "seed": 1}, "index_files"),
))
def test_bad_split_entry_reports_error_json(tmp_path, split, key):
    cfg = sbm_files_config(tmp_path, lambda data: split)
    out = tmp_path / "o"
    assert run(["train", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "ValidationError" and repr(key) in err["error"]


def test_unknown_config_section_reports_error_json(tmp_path):
    cfg = small_config(tmp_path, datset={"num_nodes": 60})
    out = tmp_path / "o"
    assert run(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "'datset'" in json.loads((out / "error.json").read_text())["error"]


def test_files_dataset_missing_keys_is_clean_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"kind": "files", "edge_file": "x"},
                               "train": {"epochs": 1}}))
    out = tmp_path / "o"
    code = run(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert "edges" in err["error"] and "features" in err["error"]


# ---- bound --------------------------------------------------------------------------


def test_bound_prints_prefactor(capsys):
    code = run(["bound", "--layers", "2", "--classes", "7", "--feature-dim", "1433",
                "--nodes", "2708", "--feature-inf-max", "1.0"])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[0]
    name, value = line.split()
    assert name == "complexity_prefactor"
    ctx = BoundContext(num_layers=2, num_classes=7, feature_dim=1433, num_nodes=2708,
                       feature_inf_max=1.0)
    assert float(value) == complexity_prefactor(ctx)   # repr round-trips exactly


def test_bound_with_checkpoint_writes_report(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "train"
    assert run(["train", "--config", cfg, "--out", str(out)]) == 0
    bout = tmp_path / "bound"
    code = run(["bound", "--layers", "2", "--classes", "2", "--feature-dim", "4",
                "--nodes", "40", "--feature-inf-max", "1.5",
                "--checkpoint", str(out / "model"), "--out", str(bout)])
    assert code == 0
    report = json.loads((bout / "bound_report.json").read_text())
    assert report["complexity_bound"] > 0.0
    assert "complexity_bound" in capsys.readouterr().out


def test_bound_refuses_a_checkpoint_whose_archive_has_a_wrong_set_of_arrays(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "train"
    assert run(["train", "--config", cfg, "--out", str(out)]) == 0
    with np.load(out / "model.npz") as data:
        arrays = {k: data[k] for k in data.files}
    np.savez(out / "model.npz", **arrays, weight_2=arrays["weight_1"])
    bout = tmp_path / "bound"
    code = run(["bound", "--layers", "2", "--classes", "2", "--feature-dim", "4",
                "--nodes", "40", "--feature-inf-max", "1.5",
                "--checkpoint", str(out / "model"), "--out", str(bout)])
    assert code == 1
    assert f"{out / 'model.npz'}: holds array shapes" in capsys.readouterr().err
    err = json.loads((bout / "error.json").read_text())
    assert err["type"] == "ValueError" and "model.npz" in err["error"]
    assert not (bout / "bound_report.json").exists()


@pytest.mark.parametrize("damage", ("truncated", "text", "object-array"))
def test_bound_names_a_checkpoint_archive_it_cannot_read(tmp_path, capsys, damage):
    # np.load's own errors (BadZipFile, and two ValueErrors) did not name the file
    out = tmp_path / "train"
    assert run(["train", "--config", small_config(tmp_path), "--out", str(out)]) == 0
    npz = out / "model.npz"
    if damage == "truncated":
        npz.write_bytes(npz.read_bytes()[:200])
    elif damage == "text":
        npz.write_text("weight_0 = [[1.0, 2.0]]\n")
    else:
        np.savez(npz, weight_0=np.array([object()], dtype=object))
    bout = tmp_path / "bound"
    code = run(["bound", "--layers", "2", "--classes", "2", "--feature-dim", "4",
                "--nodes", "40", "--feature-inf-max", "1.5",
                "--checkpoint", str(out / "model"), "--out", str(bout)])
    assert code == 1
    assert f"{npz}: cannot read its arrays" in capsys.readouterr().err
    err = json.loads((bout / "error.json").read_text())
    assert err["type"] == "ValueError" and str(npz) in err["error"]
    assert not (bout / "bound_report.json").exists()


@pytest.mark.parametrize("flag, value", (("--layers", "3"), ("--feature-dim", "7"),
                                         ("--classes", "5")))
def test_bound_refuses_a_context_that_does_not_fit_the_checkpoint(tmp_path, capsys, flag, value):
    # the checkpoint is 4 -> 8 -> 2; the bound of another shape was reported before
    out = tmp_path / "train"
    assert run(["train", "--config", small_config(tmp_path), "--out", str(out)]) == 0
    context = {"--layers": "2", "--classes": "2", "--feature-dim": "4", "--nodes": "40",
               "--feature-inf-max": "1.5", flag: value}
    bout = tmp_path / "bound"
    code = run(["bound", *[a for kv in context.items() for a in kv],
                "--checkpoint", str(out / "model"), "--out", str(bout)])
    assert code == 1
    assert f"{flag} {value} does not fit checkpoint" in capsys.readouterr().err
    err = json.loads((bout / "error.json").read_text())
    assert err["type"] == "ValidationError" and "layer_dims are [4, 8, 2]" in err["error"]
    assert not (bout / "bound_report.json").exists()


def test_bound_takes_any_class_count_for_a_link_checkpoint(tmp_path):
    # a link model's output width is an embedding width, not a class count
    out = tmp_path / "train"
    assert run(["train", "--config", small_config(tmp_path), "--out", str(out),
                "--task", "link_prediction"]) == 0
    assert run(["bound", "--layers", "2", "--classes", "2", "--feature-dim", "4", "--nodes", "40",
                "--feature-inf-max", "1.5", "--checkpoint", str(out / "model")]) == 0


# ---- train --------------------------------------------------------------------------


def test_train_writes_all_artifacts(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "o"
    assert run(["train", "--config", cfg, "--out", str(out)]) == 0
    for name in ("manifest.json", "run.csv", "summary.json", "model.npz",
                 "model.json", "bound_report.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["model"]["strategy"] == "flexidrop"
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["final_test_accuracy"] <= 1.0
    assert "final test accuracy" in capsys.readouterr().out


def test_train_flag_overrides_config(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "o"
    assert run(["train", "--config", cfg, "--out", str(out), "--strategy", "none",
                "--epochs", "2", "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["strategy"] == "none"
    assert manifest["config"]["train"]["epochs"] == 2
    assert manifest["config"]["train"]["seed"] == 9


def test_train_rerun_is_byte_identical_modulo_wall_clock(tmp_path):
    cfg = small_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["train", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["train", "--config", cfg, "--out", str(out2)]) == 0
    assert read_csv_without_wall_clock(out1 / "run.csv") == \
        read_csv_without_wall_clock(out2 / "run.csv")
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "bound_report.json").read_bytes() == \
        (out2 / "bound_report.json").read_bytes()


@pytest.mark.filterwarnings("ignore:the layerwise bound assumes")
@pytest.mark.parametrize("propagation, valid", (("row_stochastic", True), ("symmetric", False)))
def test_train_reports_whether_the_bound_holds(tmp_path, propagation, valid):
    # the layerwise bound assumes a row-stochastic operator
    out = tmp_path / "o"
    assert run(["train", "--config", small_config(tmp_path), "--out", str(out),
                "--propagation", propagation, "--epochs", "2"]) == 0
    for name in ("summary.json", "bound_report.json"):
        assert json.loads((out / name).read_text())["bound_valid"] is valid, name


def test_train_default_dataset_needs_no_config(tmp_path):
    out = tmp_path / "o"
    assert run(["train", "--out", str(out), "--epochs", "1", "--eval-every", "8"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["dataset"]["kind"] == "sbm"


# ---- grid / sweeps ------------------------------------------------------------------


def test_grid_writes_csv(tmp_path):
    cfg = sweep_config(tmp_path, "grid")
    out = tmp_path / "o"
    assert run(["grid", "--config", cfg, "--out", str(out),
                "--strategies", "none,fixed_dropout", "--rates", "0.3",
                "--seeds", "0,1", "--epochs", "2"]) == 0
    lines = (out / "grid.csv").read_text().strip().splitlines()
    assert lines[0].startswith("strategy,")
    assert len(lines) == 1 + 2 + 1 + 2 + 1   # header, none x2+agg, fixed x2+agg


def test_oversmooth_command(tmp_path):
    cfg = sweep_config(tmp_path, "oversmooth")
    out = tmp_path / "o"
    assert run(["oversmooth", "--config", cfg, "--out", str(out),
                "--depths", "1,2", "--strategies", "none", "--epochs", "2"]) == 0
    lines = (out / "oversmoothing.csv").read_text().strip().splitlines()
    assert lines[0] == "depth,strategy,test_accuracy,final_energy,status"
    assert len(lines) == 3


def test_oversmooth_manifest_records_the_widths_each_depth_trains(tmp_path, monkeypatch):
    trained = record_trained_configs(monkeypatch)
    cfg = sweep_config(tmp_path, "oversmooth", model={"task": "link_prediction"})
    out = tmp_path / "o"
    assert run(["oversmooth", "--config", cfg, "--out", str(out), "--depths", "1,2",
                "--strategies", "none", "--hidden-dim", "6", "--epochs", "1"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert not {"strategy", "rate", "layer_dims"} & set(config["model"])   # set per cell
    # link-prediction cells end in the hidden width, not the dataset's two classes
    assert config["layer_dims"] == [[4, 6], [4, 6, 6]]
    assert [list(c.layer_dims) for c in trained] == config["layer_dims"]
    assert all(c.task == "link_prediction" for c in trained)


@pytest.mark.parametrize("command", ("grid", "oversmooth", "attack"))
def test_sweeps_take_no_base_strategy(tmp_path, command):
    # the swept strategies come from --strategies, never from a flag that
    # would also rewrite the base model
    cfg = sweep_config(tmp_path, command)
    with pytest.raises(SystemExit) as exc:
        run([command, "--strategy", "none", "--config", cfg, "--out", str(tmp_path / "o"),
             "--epochs", "1"])
    assert exc.value.code == 2
    if command == "grid":
        # grid has no --rate, which must not pass for a prefix of the --rates sweep axis,
        # and no --lambda: --rates sweeps the flexidrop cells' regularization weight
        for flag in (["--rate", "0.3"], ["--lambda", "1e308"]):
            with pytest.raises(SystemExit) as exc:
                run(["grid", *flag, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--epochs", "1"])
            assert exc.value.code == 2
            assert not (tmp_path / "o" / "grid.csv").exists()


SWEEP_CSV = {"grid": "grid.csv", "oversmooth": "oversmoothing.csv", "attack": "robustness.csv"}
# a value each refused config key could otherwise take
REFUSED_VALUES = {"model.strategy": "none", "model.rate": 0.0, "model.layer_dims": [4, 8, 2],
                  "model.hidden_dims": [8], "model.output_dim": 2, "train.seed": 3,
                  "train.reg_lambda": 0.1}


@pytest.mark.parametrize("command, refused", (
    ("grid", "--seed"), ("grid", "model.strategy"), ("grid", "model.rate"),
    ("grid", "train.seed"), ("grid", "train.reg_lambda"),
    ("attack", "--seed"), ("attack", "model.strategy"), ("attack", "model.rate"),
    ("attack", "train.seed"),
    ("oversmooth", "model.strategy"), ("oversmooth", "model.rate"),
    ("oversmooth", "model.layer_dims"), ("oversmooth", "model.hidden_dims"),
    ("oversmooth", "model.output_dim")))
def test_sweep_refuses_a_value_its_axes_overwrite(tmp_path, command, refused):
    # no cell would run with it, so the manifest must not record it either
    out = tmp_path / "o"
    argv = [command, "--out", str(out), "--epochs", "1"]
    if refused.startswith("--"):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--config", sweep_config(tmp_path, command), refused, "1"])
        assert exc.value.code == 2
    else:
        section, key = refused.split(".")
        cfg = sweep_config(tmp_path, command, **{section: {key: REFUSED_VALUES[refused]}})
        assert run(argv + ["--config", cfg]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ValidationError" and repr(refused) in err["error"]
        assert not (out / "manifest.json").exists()
    assert not (out / SWEEP_CSV[command]).exists()


def test_attack_rate_applies_to_the_listed_fixed_strategies(tmp_path, monkeypatch):
    trained = record_trained_configs(monkeypatch)
    cfg = sweep_config(tmp_path, "attack")
    out = tmp_path / "o"
    assert run(["attack", "--config", cfg, "--out", str(out), "--strategies", "none,dropedge",
                "--rate", "0.3", "--fractions", "0", "--seeds", "0", "--epochs", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rate"] == 0.3
    assert [(c.strategy, c.rate) for c in trained] == [("none", 0.0), ("dropedge", 0.3)]
    lines = (out / "robustness.csv").read_text().strip().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["ok", "ok"]


def test_attack_trains_the_configured_task(tmp_path, monkeypatch):
    trained = record_trained_configs(monkeypatch)
    cfg = sweep_config(tmp_path, "attack")
    out = tmp_path / "o"
    assert run(["attack", "--config", cfg, "--out", str(out), "--task", "link_prediction",
                "--propagation", "symmetric", "--strategies", "none,flexidrop",
                "--fractions", "0,0.5", "--seeds", "0", "--epochs", "2"]) == 0
    base = ModelConfig.from_dict(json.loads((out / "manifest.json").read_text())
                                 ["config"]["model"])
    assert base.task == "link_prediction" and base.layer_dims == (4, 8, 32)
    assert trained == [replace(base, strategy=s) for s in ("none", "flexidrop") * 2]


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("command, axis, csv_name", (
    ("oversmooth", ["--depths", "2"], "oversmoothing.csv"),
    ("attack", ["--fractions", "0", "--seeds", "0"], "robustness.csv")))
def test_sweep_records_a_failed_cell_and_goes_on(tmp_path, command, axis, csv_name):
    cfg = sweep_config(tmp_path, command)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out), "--strategies", "flexidrop,none",
                "--lambda", "1e308", "--epochs", "2"] + axis) == 0
    with open(out / csv_name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["strategy"], r["status"]) for r in rows] == [
        ("flexidrop", "failed: training aborted at epoch 1: non-finite loss"), ("none", "ok")]
    assert rows[0]["test_accuracy"] == "" and 0.0 <= float(rows[1]["test_accuracy"]) <= 1.0


def test_attack_command(tmp_path):
    cfg = sweep_config(tmp_path, "attack")
    out = tmp_path / "o"
    assert run(["attack", "--config", cfg, "--out", str(out), "--fractions", "0,0.5",
                "--strategies", "none", "--seeds", "0", "--epochs", "2"]) == 0
    lines = (out / "robustness.csv").read_text().strip().splitlines()
    assert lines[0] == "fraction,strategy,seed,test_accuracy,status"
    assert len(lines) == 3   # header + 2 fractions x 1 strategy x 1 seed


# ---- gradcheck ----------------------------------------------------------------------


def test_gradcheck_command_passes(capsys):
    assert run(["gradcheck", "--instances", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "all 2 instances passed" in out


# ---- sbm dataset emission -----------------------------------------------------------


def test_sbm_roundtrips_through_loader(tmp_path):
    out = tmp_path / "data"
    assert run(["sbm", "--num-nodes", "30", "--num-blocks", "2", "--p-in", "0.4",
                "--p-out", "0.1", "--feature-dim", "4", "--noise-scale", "0.3",
                "--seed", "11", "--out", str(out)]) == 0
    split = SplitSpec.from_index_files(str(out / "train_idx.txt"),
                                       str(out / "val_idx.txt"),
                                       str(out / "test_idx.txt"))
    loaded = load_graph(str(out / "edges.txt"), str(out / "features.csv"),
                        str(out / "labels.csv"), split)
    reference = generate_sbm(30, 2, 0.4, 0.1, 4, 0.3, seed=11)
    assert np.array_equal(loaded.edges, reference.edges)
    assert np.array_equal(loaded.features, reference.features)   # %.17g is lossless
    assert np.array_equal(loaded.labels, reference.labels)
    assert np.array_equal(loaded.train_mask, reference.train_mask)
    assert np.array_equal(loaded.val_mask, reference.val_mask)
    assert np.array_equal(loaded.test_mask, reference.test_mask)
