"""End-to-end command-line coverage: artifacts, reports, exit codes."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtpart
from qtpart import cli, codec, dataset, metrics
from qtpart.cli import main
from qtpart.dataset import load_records, load_trajectories
from qtpart.features import LAYOUT_HASH
from qtpart.frame_io import save_pgm
from qtpart.mlp import init_model, load_model, save_model

from helpers import natural_frame, write_header_only_model


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Frame files plus chained dataset/model artifacts."""
    root = tmp_path_factory.mktemp("cliwork")
    paths = {"root": root}
    for name, seed, hw in (("a64", 30, 64), ("b64", 31, 64), ("c128", 32, 128)):
        p = root / f"{name}.pgm"
        save_pgm(natural_frame(seed, hw, hw), p)
        paths[name] = str(p)

    paths["dataset"] = str(root / "train.qtds")
    rc = main(["dataset", "build", "--frames", paths["a64"], paths["b64"],
               "--qps", "22,32", "--sizes", "32", "--seed", "3", "--jobs", "2",
               "--out", paths["dataset"]])
    assert rc == 0

    paths["trajs"] = str(root / "train.traj.qtds")
    rc = main(["dataset", "trajectories", "--frames", paths["a64"], paths["b64"],
               "--qps", "22", "--seed", "3", "--out", paths["trajs"]])
    assert rc == 0

    paths["reg"] = str(root / "reg.qtnn")
    rc = main(["train", "reg", "--dataset", paths["dataset"], "--epochs", "3",
               "--batch", "64", "--lr", "1e-4", "--seed", "1",
               "--out", paths["reg"]])
    assert rc == 0
    return paths


# ------------------------------------------------------------------ describe

def test_features_describe_prints_layout(capsys):
    assert main(["features", "describe"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["layout_hash"] == LAYOUT_HASH
    assert obj["count"] == 115
    assert len(obj["features"]) == 115


def test_features_describe_writes_file(tmp_path, capsys):
    out = tmp_path / "layout.json"
    assert main(["features", "describe", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["count"] == 115
    assert (tmp_path / "layout.json.config.json").exists()


# ------------------------------------------------------------------- dataset

def test_dataset_build_artifacts(work, capsys):
    records = load_records(work["dataset"])
    # two 64x64 frames, two qps, four 32s each
    assert len(records) > 0
    cfg = json.loads((work["root"] / "train.qtds.config.json").read_text())
    assert cfg["seed"] == 3
    assert cfg["qps"] == "22,32"
    assert "func" not in cfg
    assert not any("time" in k or "date" in k for k in cfg)


def test_dataset_trajectories_artifacts(work):
    trajs = load_trajectories(work["trajs"])
    assert len(trajs) > 0
    assert (work["root"] / "train.traj.qtds.config.json").exists()


@pytest.mark.parametrize("subcommand", ["build", "trajectories"])
@pytest.mark.parametrize("frame,qps,msg", [
    ("a64", "22,27,32,99", "qp 99 outside [0, 51]"),
    ("a64", "", "empty qp list"),
    ("small", "22", "48x32 frame holds no full 64x64 CTU"),
    ("a64", "22,27,22", "repeated qp in [22, 27, 22]"),
], ids=["qp-out-of-range", "empty-qps", "no-full-ctu", "repeated-qp"])
def test_bad_collection_input_fails_before_any_work(work, tmp_path, capsys,
                                                    monkeypatch, subcommand,
                                                    frame, qps, msg):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a search ran before the input check")

    monkeypatch.setattr(dataset, "_walk_frame", must_not_run)
    small = tmp_path / "small.pgm"
    save_pgm(natural_frame(33, 32, 48), small)
    frames = {**work, "small": str(small)}
    rc = main(["dataset", subcommand, "--frames", frames[frame], "--qps", qps,
               "--out", str(tmp_path / "out.qtds")])
    assert rc == 3
    assert msg in _one_error_line(capsys)
    assert not list(tmp_path.glob("out.qtds*"))          # no container, no config


COMMANDS = {                                     # command, then its inputs
    "build": (["dataset", "build"], ["--frames", "a64", "--qps", "22"]),
    "trajectories": (["dataset", "trajectories"], ["--frames", "a64", "--qps", "22"]),
    "reg": (["train", "reg"], ["--dataset", "dataset"]),
    "dqn": (["train", "dqn"], ["--trajectories", "trajs"]),
    "ablate": (["ablate"], ["--dataset", "dataset", "--frames", "a64",
                            "--thresholds", "1.0", "--configs", "none"]),
    "encode": (["encode"], ["--frame", "a64", "--model", "reg", "--threshold", "1.0"]),
    "sweep": (["sweep"], ["--frames", "a64", "--model", "reg", "--thresholds", "1.0"]),
}
SEEDED = ["build", "trajectories", "reg", "dqn", "ablate"]   # the ones with --seed


def _refused_before_reading(work, tmp_path, capsys, monkeypatch, subcommand,
                            extra) -> str:
    """Run a ``COMMANDS`` entry plus ``extra`` with every input loader
    failing if called; check exit 3, one error line and no output, and
    return that line."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("an input was read before the argument check")

    for name in ("load_frame", "load_records", "load_trajectories", "load_model"):
        monkeypatch.setattr(cli, name, must_not_run)
    words, inputs = COMMANDS[subcommand]
    argv = words + [work.get(a, a) for a in inputs] + extra  # names -> paths
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert not list(tmp_path.glob("out*"))       # no artifact, no config
    return _one_error_line(capsys)


@pytest.mark.parametrize("subcommand", SEEDED)
def test_negative_seed_fails_before_any_search(work, tmp_path, capsys, monkeypatch,
                                               subcommand):
    assert "seed -1 is negative" in _refused_before_reading(
        work, tmp_path, capsys, monkeypatch, subcommand, ["--seed", "-1"])


@pytest.mark.parametrize("subcommand", ["reg", "dqn"])
@pytest.mark.parametrize("hidden, width", [("0", 0), ("64,-8", -8)],
                         ids=["zero", "negative"])
def test_non_positive_hidden_width_fails_before_any_input(work, tmp_path, capsys,
                                                          monkeypatch, subcommand,
                                                          hidden, width):
    assert f"hidden width {width} must be positive" in _refused_before_reading(
        work, tmp_path, capsys, monkeypatch, subcommand, ["--hidden", hidden])


@pytest.mark.parametrize("subcommand, extra, msg", [
    ("dqn", ["--capacity", "0"], "capacity must be positive"),
    ("dqn", ["--steps", "0"], "steps and batch must be positive"),
    ("dqn", ["--lr", "0"], "lr must be positive"),
    ("reg", ["--lr", "0"], "lr, batch and epochs must be positive"),
    ("reg", ["--epochs", "0"], "lr, batch and epochs must be positive"),
    ("ablate", ["--lr", "0"], "lr, batch and epochs must be positive"),
    ("ablate", ["--epochs", "0"], "lr, batch and epochs must be positive"),
], ids=["dqn-capacity", "dqn-steps", "dqn-lr", "reg-lr", "reg-epochs", "ablate-lr",
        "ablate-epochs"])
def test_bad_hyperparameter_fails_before_any_input(work, tmp_path, capsys, monkeypatch,
                                                   subcommand, extra, msg):
    assert msg in _refused_before_reading(work, tmp_path, capsys, monkeypatch,
                                          subcommand, extra)


@pytest.mark.parametrize("subcommand, extra, msg", [
    ("build", ["--qps", "22,x"], "--qps: 'x' is not an integer"),
    ("build", ["--sizes", "32,16.0"], "--sizes: '16.0' is not an integer"),
    ("reg", ["--hidden", "64,x"], "--hidden: 'x' is not an integer"),
    ("encode", ["--active-sizes", "32,x"], "--active-sizes: 'x' is not an integer"),
    ("sweep", ["--thresholds", "1.0,x"], "--thresholds: 'x' is not a number"),
], ids=["qps", "sizes", "hidden", "active-sizes", "thresholds"])
def test_bad_comma_list_element_fails_before_any_input(work, tmp_path, capsys,
                                                       monkeypatch, subcommand,
                                                       extra, msg):
    assert _refused_before_reading(work, tmp_path, capsys, monkeypatch,
                                   subcommand, extra) == f"error: {msg}\n"


@pytest.mark.parametrize("subcommand, extra, msg", [
    ("encode", ["--ctu", "48"], "ctu must be one of (32, 64)"),
    ("build", ["--max-depth", "0"], "max_depth must be in [1, 4]"),
    ("encode", ["--qp", "99"], "qp 99 outside [0, 51]"),
    ("build", ["--sizes", "8"], "block sizes [8] refused; allowed sides are [32, 16]"),
    ("build", ["--sizes", "64,32"], "block sizes [64] refused; allowed sides are [32, 16]"),
    ("trajectories", ["--ctu", "32"], "block sizes [32] refused; allowed sides are [16, 8]"),
    ("trajectories", ["--max-depth", "2"],
     "block sizes [16] refused; allowed sides are [32]"),
    ("encode", ["--active-sizes", "8"],
     "block sizes [8] refused; allowed sides are [64, 32, 16]"),
    ("sweep", ["--active-sizes", "32,8"],
     "block sizes [8] refused; allowed sides are [64, 32, 16]"),
    ("ablate", ["--max-depth", "1"], "block sizes [32] refused; allowed sides are [64]"),
], ids=["ctu", "max-depth", "qp", "sizes", "sizes-ctu", "trajectories-ctu",
        "trajectories-depth", "encode-active-sizes", "sweep-active-sizes",
        "ablate-active-sizes"])
def test_bad_codec_setting_or_block_size_fails_before_any_input(
        work, tmp_path, capsys, monkeypatch, subcommand, extra, msg):
    assert msg in _refused_before_reading(work, tmp_path, capsys, monkeypatch,
                                          subcommand, extra)


@pytest.mark.parametrize("subcommand, extra, msg", [
    ("build", ["--qps", "22,99"], "qp 99 outside [0, 51]"),
    ("trajectories", ["--qps", "22,27,22"], "repeated qp in [22, 27, 22]"),
    ("sweep", ["--thresholds", "1,nan"], "threshold must be positive"),
    ("sweep", ["--qps", "22,27"], "curve needs exactly the qps (22, 27, 32, 37)"),
    ("ablate", ["--thresholds", "1,1.0"], "repeated threshold in [1.0, 1.0]"),
], ids=["build-qps", "trajectories-qps", "sweep-thresholds", "sweep-qps",
        "ablate-thresholds"])
def test_bad_qps_or_threshold_grid_fails_before_any_input(work, tmp_path, capsys,
                                                         monkeypatch, subcommand,
                                                         extra, msg):
    assert _refused_before_reading(work, tmp_path, capsys, monkeypatch,
                                   subcommand, extra) == f"error: {msg}\n"


def test_encode_without_model_takes_active_sizes_it_never_gates(work, tmp_path):
    # depth 1 splits only 64x64 blocks; the default active size 32 is no
    # split size, but an exhaustive encode consults no gate
    assert main(["encode", "--frame", work["a64"], "--max-depth", "1",
                 "--out", str(tmp_path / "r.json")]) == 0


def test_jobs_is_accepted_and_ignored(work, tmp_path, capsys):
    """--jobs stays accepted for compatibility and changes no artifact."""
    frames = [work["a64"], work["b64"]]

    def run(jobs):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        assert main(["dataset", "build", "--frames", *frames, "--qps", "22,32",
                     "--sizes", "32", "--seed", "3", "--jobs", jobs,
                     "--out", str(out / "train.qtds")]) == 0
        assert main(["dataset", "trajectories", "--frames", *frames,
                     "--qps", "22", "--seed", "3", "--jobs", jobs,
                     "--out", str(out / "train.traj.qtds")]) == 0
        assert main(["sweep", "--frames", work["a64"], "--model", work["reg"],
                     "--thresholds", "1.0,1e30", "--jobs", jobs,
                     "--out", str(out / "sweepdir")]) == 0
        return {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.rglob("*"))
                if f.is_file() and not f.name.endswith("config.json")}

    serial, other = run("1"), run("3")
    capsys.readouterr()
    assert len(serial) == 4
    assert serial == other


# -------------------------------------------------------------------- train

def test_train_reg_artifacts(work):
    model = load_model(work["reg"])
    assert model.meta["variant"] == "N32"
    assert model.meta["layout_hash"] == LAYOUT_HASH
    with open(work["reg"] + ".loss.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss"]
    assert len(rows) == 1 + 3
    assert float(rows[-1][1]) > 0


def test_train_reg_mask_is_group_names(work, tmp_path, capsys):
    argv = ["train", "reg", "--dataset", work["dataset"], "--epochs", "1",
            "--batch", "64", "--seed", "1"]
    out = tmp_path / "masked.qtnn"
    assert main(argv + ["--mask", "glcm,ni", "--out", str(out)]) == 0
    assert load_model(str(out)).meta["mask"] == ["NI", "GLCM"]
    bad = tmp_path / "bad.qtnn"
    assert main(argv + ["--mask", "hog,dc", "--out", str(bad)]) == 3
    assert "unknown feature groups ['DC']" in capsys.readouterr().err
    assert not bad.exists()


def test_train_dqn_artifacts(work, tmp_path, capsys):
    out = tmp_path / "q.qtnn"
    rc = main(["train", "dqn", "--trajectories", work["trajs"],
               "--steps", "30", "--batch", "16", "--lr", "1e-3",
               "--hidden", "8", "--out", str(out)])
    assert rc == 0
    model = load_model(str(out))
    assert model.out_dim == 2
    assert model.meta["variant"] == "Q32_16"
    with open(str(out) + ".diag.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "td_error", "epsilon"]
    assert len(rows) == 1 + 30
    assert float(rows[1][2]) == 1.0


DQN_ARGV = ["train", "dqn", "--steps", "40", "--batch", "16", "--hidden", "8",
            "--seed", "2"]


@pytest.mark.parametrize("flags", [["--lr", "nan"], ["--lr=-1e-3"], ["--lr", "0"]])
def test_train_dqn_bad_hyper_is_data_error(work, tmp_path, capsys, flags):
    out = tmp_path / "q.qtnn"
    rc = main(DQN_ARGV + ["--trajectories", work["trajs"], *flags, "--out", str(out)])
    assert rc == 3
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


def test_train_dqn_blow_up_is_model_error(work, tmp_path, capsys):
    out = tmp_path / "q.qtnn"
    with np.errstate(all="ignore"):
        rc = main(DQN_ARGV + ["--trajectories", work["trajs"], "--lr", "1e9",
                              "--out", str(out)])
    assert rc == 4
    assert "blow-up" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------------- encode

def test_encode_exhaustive_report(work, tmp_path, capsys):
    out = tmp_path / "report.json"
    tree = tmp_path / "tree.json"
    rc = main(["encode", "--frame", work["c128"], "--qp", "32",
               "--out", str(out), "--tree", str(tree)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["processed_pixels"] == 4 * 4 * 64 * 64
    assert report["threshold"] is None
    assert report["qp"] == 32
    assert report["total_rate_bits"] > 0
    assert np.isfinite(report["psnr_db"])
    assert json.loads(capsys.readouterr().out.strip()) == report
    assert len(json.loads(tree.read_text())["ctus"]) == 4
    assert (tmp_path / "report.json.config.json").exists()


def test_encode_with_inactive_gate_matches_exhaustive(work, tmp_path, capsys):
    plain = tmp_path / "plain.json"
    gated = tmp_path / "gated.json"
    assert main(["encode", "--frame", work["c128"], "--out", str(plain)]) == 0
    assert main(["encode", "--frame", work["c128"], "--model", work["reg"],
                 "--threshold", "1e30", "--out", str(gated)]) == 0
    capsys.readouterr()
    a = json.loads(plain.read_text())
    b = json.loads(gated.read_text())
    assert b["threshold"] == 1e30
    for key in ("processed_pixels", "total_rate_bits", "psnr_db"):
        assert a[key] == b[key]


def test_encode_model_requires_threshold(work, tmp_path, capsys):
    rc = main(["encode", "--frame", work["c128"], "--model", work["reg"],
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "--model requires --threshold" in capsys.readouterr().err


def test_encode_threshold_requires_model(work, tmp_path, capsys):
    rc = main(["encode", "--frame", work["c128"], "--threshold", "1.0",
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "--threshold requires --model" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("sizes", ["8", "7"])
@pytest.mark.parametrize("command", [
    ["encode", "--frame", "c128", "--model", "reg", "--threshold", "1.0"],
    ["sweep", "--frames", "a64", "--model", "reg", "--thresholds", "1.0"],
    ["ablate", "--dataset", "dataset", "--frames", "a64", "--thresholds", "1.0",
     "--configs", "none"],
])
def test_unconsulted_active_size_fails_before_any_search(work, tmp_path, capsys,
                                                         monkeypatch, command,
                                                         sizes):
    # 64x64 CTUs searched to depth 3 consult the gate at 64, 32 and 16
    def must_not_run(*args, **kwargs):
        raise AssertionError("work ran before the active-size check")

    monkeypatch.setattr(codec, "search", must_not_run)
    monkeypatch.setattr(metrics, "train_regression", must_not_run)
    argv = [work.get(a, a) for a in command]     # artifact names -> fixture paths
    rc = main(argv + ["--active-sizes", sizes, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert f"block sizes [{sizes}] refused; allowed sides are [64, 32, 16]" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["encode", "--frame", "c128", "--model", "reg", "--threshold", "nan"],
    ["sweep", "--frames", "a64", "--model", "reg", "--thresholds", "1.0,nan"],
])
def test_nan_threshold_fails_before_any_search(work, tmp_path, capsys, monkeypatch,
                                               command):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a search ran before the threshold check")

    monkeypatch.setattr(codec, "search", must_not_run)
    argv = [work.get(a, a) for a in command]     # artifact names -> fixture paths
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 3
    assert "threshold must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_repeated_threshold_fails_before_any_search(work, tmp_path, capsys,
                                                         monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a search ran before the threshold check")

    monkeypatch.setattr(codec, "search", must_not_run)
    out = tmp_path / "out"
    rc = main(["sweep", "--frames", work["a64"], "--model", work["reg"],
               "--thresholds", "0.9,1,1.0", "--out", str(out)])
    assert rc == 3
    assert _one_error_line(capsys) == "error: repeated threshold in [0.9, 1.0, 1.0]\n"
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--configs", "none,bogus", "--thresholds", "1.0"], "unknown ablation config"),
    (["--configs", "none", "--thresholds", ","], "empty threshold list"),
    (["--configs", "none", "--thresholds", "1.0,nan"], "threshold must be positive"),
    (["--configs", "none,none", "--thresholds", "1.0"], "repeated ablation config"),
    (["--configs", "none", "--thresholds", "1,1.0"], "repeated threshold in [1.0, 1.0]"),
])
def test_ablate_bad_input_fails_before_training(work, tmp_path, capsys, monkeypatch,
                                               extra, message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a model was trained before the input checks")

    monkeypatch.setattr(metrics, "train_regression", must_not_run)
    monkeypatch.setattr(codec, "search", must_not_run)
    out = tmp_path / "out"
    rc = main(["ablate", "--dataset", work["dataset"], "--frames", work["a64"]]
              + extra + ["--out", str(out)])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ablate_report_marks_unreachable_drops(work, tmp_path, capsys):
    # a gate that never prunes reaches neither a 10% nor a 20% drop
    out = tmp_path / "abl"
    rc = main(["ablate", "--dataset", work["dataset"], "--frames", work["a64"],
               "--thresholds", "1e30", "--configs", "none", "--epochs", "1",
               "--batch", "64", "--out", str(out)])
    assert rc == 0
    assert (out / "ablation.csv").read_bytes() == (
        b"config,bd_at_dc10,bd_at_dc20\r\nnone,unreachable,unreachable\r\n")


def test_encode_rejects_foreign_feature_layout(work, tmp_path, capsys):
    alien = init_model(hidden=(), out=1, seed=0)
    alien.meta["layout_hash"] = "0" * 16
    mpath = tmp_path / "alien.qtnn"
    save_model(alien, str(mpath))
    rc = main(["encode", "--frame", work["c128"], "--model", str(mpath),
               "--threshold", "1.0", "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert "feature layout" in capsys.readouterr().err


@pytest.mark.parametrize("layers", [[115], [115, 0, 1]])
def test_encode_impossible_model_is_model_error(work, tmp_path, capsys, layers):
    mpath = tmp_path / "impossible.qtnn"
    write_header_only_model(mpath, layers)
    rc = main(["encode", "--frame", work["c128"], "--model", str(mpath),
               "--threshold", "1.0", "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert "impossible layer widths" in capsys.readouterr().err


@pytest.mark.parametrize("meta", [["x"], {"mask": 5}, {"mask": None},
                                  {"mask": "HOG"}, {"mask": ["HOG", 1]}])
def test_encode_bad_model_metadata_is_model_error(work, tmp_path, capsys, meta):
    model = init_model(hidden=(), out=1, seed=0)
    model.meta = meta
    mpath = tmp_path / "bad-meta.qtnn"
    save_model(model, str(mpath))
    rc = main(["encode", "--frame", work["c128"], "--model", str(mpath),
               "--threshold", "1.0", "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert "metadata must be an object whose mask lists group names" \
        in _one_error_line(capsys)


def _masked(width, mask):
    def spoil(model):
        model.weights[0] = model.weights[0][:width]
        model.meta["mask"] = mask
    return spoil


def _first(part, value):
    def spoil(model):
        getattr(model, part)[0][0] = value
    return spoil


NON_FINITE = "model parameters hold NaN or inf"


@pytest.mark.parametrize("command", ["encode", "sweep"])
@pytest.mark.parametrize("spoil, message", [
    (_masked(115, ["FOO"]), "unknown feature groups ['FOO']"),
    (_masked(114, ["HOG"]), "a masked model needs 115 inputs, not 114"),
    (_first("weights", np.nan), NON_FINITE),
    (_first("weights", np.inf), NON_FINITE),
    (_first("biases", np.nan), NON_FINITE),
    (_first("biases", -np.inf), NON_FINITE),
], ids=["unknown-group", "narrow-input", "nan-weight", "inf-weight", "nan-bias",
        "inf-bias"])
def test_bad_model_mask_is_model_error(work, tmp_path, capsys, monkeypatch, command,
                                       spoil, message):
    # a bad mask or a non-finite parameter is refused before any search
    def must_not_run(*args, **kwargs):
        raise AssertionError("a search ran before the model was refused")

    monkeypatch.setattr(cli, "encode_frame", must_not_run)
    monkeypatch.setattr(metrics, "encode_frame", must_not_run)
    model = init_model(hidden=(), out=1, seed=0)
    spoil(model)
    mpath = tmp_path / "bad-model.qtnn"
    save_model(model, str(mpath))
    argv = {"encode": ["encode", "--frame", work["c128"], "--threshold", "1.0"],
            "sweep": ["sweep", "--frames", work["a64"], "--thresholds", "1.0"]}[command]
    rc = main(argv + ["--model", str(mpath), "--out", str(tmp_path / "out")])
    assert rc == 4
    assert _one_error_line(capsys) == f"error: {message}\n"


# --------------------------------------------------------------------- sweep

def test_sweep_artifacts(work, tmp_path, capsys):
    out = tmp_path / "sweepdir"
    rc = main(["sweep", "--frames", work["a64"], work["b64"],
               "--model", work["reg"], "--thresholds", "1.0,1e30",
               "--active-sizes", "32", "--out", str(out)])
    assert rc == 0
    with (out / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert [float(r["threshold"]) for r in rows] == [1.0, 1e30]
    for qp in (22, 27, 32, 37):
        assert f"pixels_q{qp}" in rows[0]
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["anchor"]) == {"22", "27", "32", "37"}
    assert len(summary["points"]) == 2
    # the unreachable threshold reproduces the anchor exactly
    assert summary["points"][1]["delta_c_pct"] == 0.0
    assert abs(summary["points"][1]["bd_rate_pct"]) < 1e-9
    assert (out / "config.json").exists()


def test_sweep_qps_in_any_order_write_the_default_bytes(work, tmp_path, capsys):
    def run(name, extra):
        out = tmp_path / name
        assert main(["sweep", "--frames", work["a64"], "--model", work["reg"],
                     "--thresholds", "0.9,1.0,1e30", *extra, "--out", str(out)]) == 0
        return [(out / f).read_bytes() for f in ("sweep.csv", "summary.json")]

    assert cli.DEFAULT_QPS == "22,27,32,37"
    assert run("permuted", ["--qps", "37,22,32,27"]) == run("default", [])


@pytest.mark.parametrize("command", [
    ["sweep", "--model", "reg", "--thresholds", "1.0"],
    ["ablate", "--dataset", "dataset", "--thresholds", "1.0", "--configs", "none"],
])
def test_bad_qp_set_fails_before_any_work(work, tmp_path, capsys, monkeypatch,
                                          command):
    # ablate always encodes at EVAL_QPS and has no --qps to restate them
    rc, msg = {"sweep": (3, "needs exactly the qps"),
               "ablate": (2, "unrecognized arguments: --qps 22,27")}[command[0]]

    def must_not_run(*args, **kwargs):
        raise AssertionError("expensive work ran before the qp check")

    monkeypatch.setattr(metrics, "encode_frame", must_not_run)
    monkeypatch.setattr(metrics, "train_regression", must_not_run)
    argv = [work.get(a, a) for a in command]     # artifact names -> fixture paths
    assert main(argv + ["--frames", work["a64"], "--qps", "22,27",
                        "--out", str(tmp_path / "out")]) == rc
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["encode", "--frame", "small"],
    ["encode", "--frame", "small", "--model", "reg", "--threshold", "1.0"],
    ["sweep", "--frames", "a64", "small", "--model", "reg", "--thresholds", "1.0"],
    ["ablate", "--dataset", "dataset", "--frames", "a64", "small",
     "--thresholds", "1.0", "--configs", "none"],
    ["dataset", "build", "--frames", "a64", "small"],
    ["dataset", "trajectories", "--frames", "a64", "small"],
], ids=["encode", "encode-gated", "sweep", "ablate", "dataset-build",
        "dataset-trajectories"])
def test_frame_with_no_full_ctu_fails_before_any_work(work, tmp_path, capsys,
                                                      monkeypatch, command):
    # the bad frame comes after a good one, so a late check would search first
    def must_not_run(*args, **kwargs):
        raise AssertionError("expensive work ran before the frame check")

    for module, name in ((codec, "search"), (metrics, "encode_frame"),
                         (metrics, "train_regression"), (dataset, "_walk_frame")):
        monkeypatch.setattr(module, name, must_not_run)
    small = tmp_path / "small.pgm"
    save_pgm(natural_frame(33, 32, 48), small)
    paths = {**work, "small": str(small)}
    out = tmp_path / "out"
    argv = command[:1] + [paths.get(a, a) for a in command[1:]]   # names -> paths
    rc = main(argv + ["--out", str(out)])
    assert rc == 3
    assert "error: 48x32 frame holds no full 64x64 CTU" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_foreign_layout_fails_before_any_work(work, tmp_path, capsys,
                                                    monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an encode ran before the model check")

    monkeypatch.setattr(metrics, "encode_frame", must_not_run)
    alien = init_model(hidden=(), out=1, seed=0)
    alien.meta["layout_hash"] = "0" * 16
    mpath = tmp_path / "alien.qtnn"
    save_model(alien, str(mpath))
    rc = main(["sweep", "--frames", work["a64"], "--model", str(mpath),
               "--thresholds", "1.0", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "feature layout" in capsys.readouterr().err


# -------------------------------------------------------------------- bdrate

def test_bdrate_five_percent(tmp_path, capsys):
    pts = {22: (1000.0, 45.0), 27: (780.0, 42.5),
           32: (590.0, 39.2), 37: (410.0, 36.1)}
    anchor = tmp_path / "anchor.json"
    test = tmp_path / "test.json"
    anchor.write_text(json.dumps({str(q): list(v) for q, v in pts.items()}))
    test.write_text(json.dumps(
        {str(q): [r * 1.05, p] for q, (r, p) in pts.items()}))
    assert main(["bdrate", "--anchor", str(anchor), "--test", str(test)]) == 0
    assert capsys.readouterr().out.strip() == "5.000000"


def test_bdrate_bad_curve_is_data_error(tmp_path, capsys):
    anchor = tmp_path / "anchor.json"
    anchor.write_text(json.dumps({"22": [1000.0, 45.0]}))
    rc = main(["bdrate", "--anchor", str(anchor), "--test", str(anchor)])
    assert rc == 3
    assert "needs exactly the qps" in capsys.readouterr().err


@pytest.mark.parametrize("curve", [
    [], None, "curve", {"22": 1000.0, "27": 780.0, "32": 590.0, "37": 410.0},
    {"22": [1000.0], "27": [780.0], "32": [590.0], "37": [410.0]},
    {"22": [1000.0, None], "27": [780.0, 42.5], "32": [590.0, 39.2], "37": [410.0, 36.1]},
    {"22": {"rate": 1000.0}, "27": [780.0, 42.5], "32": [590.0, 39.2], "37": [410.0, 36.1]},
    {"x": [1000.0, 45.0], "27": [780.0, 42.5], "32": [590.0, 39.2], "37": [410.0, 36.1]},
])
def test_bdrate_malformed_curve_file_is_data_error(tmp_path, capsys, curve):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(curve))
    assert main(["bdrate", "--anchor", str(bad), "--test", str(bad)]) == 3
    assert "qp -> [rate, psnr]" in _one_error_line(capsys)


def test_bdrate_nan_rate_is_data_error(tmp_path, capsys):
    curve = tmp_path / "bad.json"
    for rate in ("NaN", "1e309"):                    # 1e309 parses to inf
        curve.write_text(f'{{"22": [{rate}, 45.0], "27": [780.0, 42.5], '
                         '"32": [590.0, 39.2], "37": [410.0, 36.1]}')
        assert main(["bdrate", "--anchor", str(curve), "--test", str(curve)]) == 3
        assert "rates must be positive and finite" in _one_error_line(capsys)


# ------------------------------------------------------------------- parser

FRAME_OPTIONS = ["--format", "--width", "--height", "--ctu", "--max-depth"]
OPTIONS = {
    ("features", "describe"): ["--out"],
    ("dataset", "build"): ["--frames", *FRAME_OPTIONS, "--qps", "--sizes", "--seed",
                           "--jobs", "--out"],
    ("dataset", "trajectories"): ["--frames", *FRAME_OPTIONS, "--qps", "--seed",
                                  "--jobs", "--out"],
    ("train", "reg"): ["--dataset", "--variant", "--epochs", "--batch", "--lr",
                       "--seed", "--mask", "--hidden", "--out"],
    ("train", "dqn"): ["--trajectories", "--steps", "--batch", "--lr", "--capacity",
                       "--seed", "--hidden", "--out"],
    ("encode",): ["--frame", *FRAME_OPTIONS, "--qp", "--model", "--threshold",
                  "--active-sizes", "--tree", "--out"],
    ("sweep",): ["--frames", *FRAME_OPTIONS, "--qps", "--model", "--thresholds",
                 "--active-sizes", "--jobs", "--out"],
    ("bdrate",): ["--anchor", "--test"],
    ("ablate",): ["--dataset", "--frames", *FRAME_OPTIONS, "--thresholds",
                  "--configs", "--epochs", "--batch", "--lr", "--seed",
                  "--active-sizes", "--out"],
}


def test_option_inventory():
    """Every option of every command, in order: a new knob edits this table."""
    def leaves(parser, path=()):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, path + (name,))

    found = {path: [s for a in p._actions if a.option_strings and a.dest != "help"
                    for s in a.option_strings]
             for path, p in leaves(cli.build_parser())}
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 80


def test_parser_is_built_once_and_parses_like_a_fresh_one(work):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    fresh = cli.build_parser.__wrapped__
    encode = ["encode", "--frame", work["a64"], "--qp", "27", "--out", "r.json"]
    sweep = ["sweep", "--frames", work["a64"], work["b64"], "--model", "m.qtnn",
             "--thresholds", "1,2", "--out", "s"]
    for argv in (encode, sweep, encode, ["bdrate", "--anchor", "a", "--test", "b"],
                 sweep):
        assert vars(parser.parse_args(argv)) == vars(fresh().parse_args(argv))


def test_usage_error_then_commands_write_the_same_config(work, tmp_path, capsys,
                                                         monkeypatch):
    out = tmp_path / "report.json"
    config = tmp_path / "report.json.config.json"
    encode = ["encode", "--frame", work["a64"], "--qp", "27", "--out", str(out)]
    written = lambda: (out.read_bytes(), config.read_bytes())
    assert main(["encode", "--out", str(out)]) == 2            # usage error first
    assert main(encode) == 0
    first = written()
    assert main(["features", "describe"]) == 0
    assert main(encode) == 0
    second = written()
    capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert main(encode) == 0                                   # a fresh parser
    assert first == second == written()


# --------------------------------------------------------------- exit codes

def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bare_group_is_usage_error(capsys):
    assert main(["dataset"]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["encode", "--out", "x.json"]) == 2
    capsys.readouterr()


def test_missing_frame_file_is_data_error(tmp_path, capsys):
    rc = main(["encode", "--frame", str(tmp_path / "nope.pgm"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    capsys.readouterr()


def test_malformed_frame_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00\x00")
    rc = main(["encode", "--frame", str(bad), "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_ctu_128_fails_before_any_search(work, tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a search ran before the ctu check")

    monkeypatch.setattr(codec, "search", must_not_run)
    rc = main(["encode", "--frame", work["c128"], "--ctu", "128",
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "ctu must be one of" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_missing_dataset_is_data_error(tmp_path, capsys):
    rc = main(["train", "reg", "--dataset", str(tmp_path / "nope.qtds"),
               "--out", str(tmp_path / "m.qtnn")])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["encode", "--frame", "{dir}", "--out", "{tmp}/r.json"],
    ["train", "reg", "--dataset", "{dir}", "--out", "{tmp}/m.qtnn"],
    ["bdrate", "--anchor", "{curve}", "--test", "{dir}"],
])
def test_unreadable_input_path_is_data_error(tmp_path, capsys, command):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"22": [1000.0, 45.0], "27": [780.0, 42.5],
                                 "32": [590.0, 39.2], "37": [410.0, 36.1]}))
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = [a.format(dir=folder, tmp=tmp_path, curve=curve) for a in command]
    assert main(argv) == 3
    assert str(folder) in _one_error_line(capsys)


def _one_error_line(capsys) -> str:
    """The captured stderr, checked to be a single ``error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# -------------------------------------------------------------- entry point

def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the qtpart under test."""
    src = str(Path(qtpart.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_installed_script_smoke():
    proc = _python("from qtpart.cli import main; "
                   "raise SystemExit(main(['features', 'describe']))")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 115


def test_import_needs_numpy_only():
    proc = _python("import sys, qtpart.cli; "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
