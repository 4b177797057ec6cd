"""End-to-end tests for the command-line interface.

Most cases drive ``main(argv)`` in-process so output can be captured
cheaply; a few run the real interpreter entry point to pin down exit
codes as observed from a shell.
"""
import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from elkpp.cli import build_parser, main
from elkpp.data import load_pgm, save_pgm


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli_data"))
    code = main(["synth-data", "--out", root, "--train", "6", "--val", "4",
                 "--seed", "11", "--classes", "4", "--size", "64"])
    assert code == 0
    return root


def _tiny_config_doc(data_root, **overrides):
    doc = {
        "data_root": data_root,
        "num_classes": 4,
        "seed": 3,
        "batch_size": 2,
        "total_iterations": 2,
        "log_interval": 1,
        "eval_interval": 2,
        "checkpoint_interval": 2,
        "model": {
            "head_channels": 3,
            "backbone": {"stem_channels": 2, "stage_channels": [2, 3, 4, 5]},
            "decoder": {"stage_channels": [4, 3, 2]},
            "lkpp": {"branch_channels": 2, "skip_channels": 2,
                     "global_channels": 2},
        },
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def config_path(dataset_root, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_cfg") / "tiny.json"
    with open(path, "w") as f:
        json.dump(_tiny_config_doc(dataset_root), f)
    return str(path)


@pytest.fixture(scope="module")
def trained_run(config_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_run"))
    code = main(["train", "--config", config_path, "--out", out, "--quiet"])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# data generation


def test_synth_data_writes_dataset_layout(dataset_root, capsys):
    for name in ("images", "labels", "train.txt", "val.txt"):
        assert os.path.exists(os.path.join(dataset_root, name)), name
    with open(os.path.join(dataset_root, "train.txt")) as f:
        assert len(f.read().split()) == 6


def test_synth_data_reports_what_it_wrote(tmp_path, capsys):
    out = str(tmp_path / "ds")
    assert main(["synth-data", "--out", out, "--train", "2", "--val", "1",
                 "--size", "64"]) == 0
    text = capsys.readouterr().out
    assert "2 train / 1 val" in text
    assert out in text


# ---------------------------------------------------------------------------
# training and evaluation


def test_train_writes_artifacts_and_config_copy(trained_run):
    for name in ("train_log.csv", "summary.json", "config.json",
                 "best.ckpt", "best.json"):
        assert os.path.isfile(os.path.join(trained_run, name)), name
    assert os.path.isfile(os.path.join(trained_run, "checkpoints",
                                       "ckpt_000002.ckpt"))


def test_train_reports_progress(config_path, dataset_root, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--config", config_path, "--out", out,
                 "--quiet"]) == 0
    text = capsys.readouterr().out
    assert "finished 2 iterations" in text
    assert "best val miou" in text


def test_eval_prints_all_metrics(config_path, trained_run, tmp_path, capsys):
    report_dir = str(tmp_path / "report")
    ckpt = os.path.join(trained_run, "checkpoints", "ckpt_000002.ckpt")
    assert main(["eval", "--config", config_path, "--checkpoint", ckpt,
                 "--split", "val", "--out", report_dir]) == 0
    text = capsys.readouterr().out
    for key in ("pixel_acc", "mean_class_acc", "miou", "fwiou",
                "boundary_agreement"):
        assert key in text
    with open(os.path.join(report_dir, "report.json")) as f:
        report = json.load(f)
    assert report["split"] == "val"
    assert report["iteration"] == 2
    assert 0.0 <= report["miou"] <= 1.0


def test_eval_rejects_checkpoint_from_other_config(dataset_root, trained_run,
                                                   tmp_path, capsys):
    other = tmp_path / "other.json"
    with open(other, "w") as f:
        json.dump(_tiny_config_doc(dataset_root, base_lr=9e-3), f)
    ckpt = os.path.join(trained_run, "checkpoints", "ckpt_000002.ckpt")
    assert main(["eval", "--config", str(other), "--checkpoint", ckpt]) == 1
    assert "different" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradient checking


def test_gradcheck_loss_target_passes(capsys):
    code = main(["gradcheck", "--target", "loss", "--max-entries", "12"])
    text = capsys.readouterr().out
    assert code == 0
    assert "PASS" in text
    assert "logits" in text


def test_gradcheck_fails_under_impossible_tolerance(capsys):
    # Finite differences carry roundoff noise, so an absurd tolerance
    # must flip the exit status rather than being absorbed silently.
    code = main(["gradcheck", "--target", "loss", "--max-entries", "6",
                 "--tol", "1e-18"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# edge extraction


def test_edge_extract_marks_boundaries(tmp_path, capsys):
    label = np.zeros((10, 10), dtype=np.uint8)
    label[:, 5:] = 1
    label_path = str(tmp_path / "label.pgm")
    save_pgm(label_path, label)
    out_path = str(tmp_path / "edges.pgm")

    assert main(["edge-extract", "--label", label_path, "--classes", "2",
                 "--out", out_path]) == 0
    edges = load_pgm(out_path)
    assert edges.shape == (10, 10)
    assert set(np.unique(edges)) <= {0, 128, 255}
    # the class boundary runs down the middle; its flanks must be marked
    assert (edges[:, 4:6] == 255).all()
    assert (edges[:, 0] == 0).all()
    assert "edges" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# receptive-field reports


def test_rf_report_covers_all_three_blocks(capsys):
    assert main(["rf-report"]) == 0
    text = capsys.readouterr().out
    for i in range(3):
        assert "block %d" % i in text
    assert text.count("hole-free") == 3
    assert "GRIDDED" not in text


def test_gridding_check_flags_uniform_rate_stack(capsys):
    assert main(["gridding-check", "--kernels", "3x3,3x3,3x3",
                 "--rates", "2,2,2"]) == 0
    text = capsys.readouterr().out
    assert "GRIDDED" in text


def test_gridding_check_accepts_graduated_rates(tmp_path, capsys):
    mask_path = str(tmp_path / "mask.pgm")
    assert main(["gridding-check", "--kernels", "3x3,3x3,3x3",
                 "--rates", "1,2,3", "--mask", mask_path]) == 0
    text = capsys.readouterr().out
    assert "hole-free" in text
    assert "pass" in text
    mask = load_pgm(mask_path)
    assert mask.shape == (13, 13)
    assert (mask == 255).all()


def test_gridding_check_requires_matching_counts(capsys):
    assert main(["gridding-check", "--kernels", "3x3,3x3",
                 "--rates", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_gridding_check_rejects_malformed_kernel(capsys):
    assert main(["gridding-check", "--kernels", "3by3",
                 "--rates", "1"]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parameter report


def test_param_report_states_factorization_saving(capsys):
    assert main(["param-report"]) == 0
    text = capsys.readouterr().out
    assert "5x5 = 25 weights" in text
    assert "5x1 + 1x5 = 10 weights" in text
    assert "60% smaller" in text
    assert "total" in text


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_missing_config_file_exits_one(capsys):
    assert main(["train", "--config", "/no/such/config.json"]) == 1
    assert "file not found" in capsys.readouterr().err


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 1
    assert "bad configuration" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate": 0.1}))
    assert main(["train", "--config", str(bad)]) == 1
    assert "bad configuration" in capsys.readouterr().err


def test_readme_synopsis_flags_exist():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    with open(readme) as f:
        text = f.read()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text,
                      re.S).group(1)
    documented = {}
    for line in block.splitlines():
        line = line.split("#")[0]
        if line.startswith("elkpp "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(
            re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(documented) == set(subparsers.choices)
    for command, flags in documented.items():
        known = subparsers.choices[command]._option_string_actions
        assert flags <= set(known), (command, flags - set(known))


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_interpreter_entry_point_exit_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    run = lambda *argv: subprocess.run(
        [sys.executable, "-m", "elkpp", *argv], capture_output=True,
        text=True, cwd=os.path.dirname(os.path.dirname(__file__)), env=env)

    proc = run("param-report")
    assert proc.returncode == 0
    assert "60% smaller" in proc.stdout

    proc = run("gridding-check", "--kernels", "3x3")
    assert proc.returncode == 2  # argparse: missing required --rates
    assert "--rates" in proc.stderr

    proc = run("train", "--config", str(tmp_path / "absent.json"))
    assert proc.returncode == 1
    assert "file not found" in proc.stderr
