"""Tests for the training loop: schedule, optimizer, artifacts, resume."""
import csv
import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from elkpp.config import from_dict, to_dict
from elkpp.data import SynthConfig, write_dataset
from elkpp.tensor import ParameterStore, default_dtype, set_precision
from elkpp.train import Adam, evaluate, poly_lr, train


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_poly_lr_starts_at_base():
    assert poly_lr(2.5e-4, 0, 2000) == 2.5e-4


def test_poly_lr_midpoint_value():
    got = poly_lr(2.5e-4, 1000, 2000, power=0.9)
    assert got == pytest.approx(2.5e-4 * 0.5 ** 0.9, rel=1e-12)
    assert got == pytest.approx(1.3397168e-4, rel=1e-6)


def test_poly_lr_reaches_zero_and_clamps():
    assert poly_lr(1e-3, 2000, 2000) == 0.0
    assert poly_lr(1e-3, 9999, 2000) == 0.0


def test_poly_lr_is_monotone_decreasing():
    values = [poly_lr(1.0, i, 10) for i in range(11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_poly_lr_power_one_is_linear():
    assert poly_lr(1.0, 3, 10, power=1.0) == pytest.approx(0.7, rel=1e-12)


def test_poly_lr_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poly_lr(1e-3, 0, 0)
    with pytest.raises(ValueError):
        poly_lr(1e-3, -1, 10)


# ---------------------------------------------------------------------------
# optimizer


def _scalar_store(values):
    store = ParameterStore()
    store.add("p", np.array(values, dtype=np.float64))
    return store


def test_adam_first_step_is_signed_unit_step():
    # After bias correction the first update is lr * g / (|g| + eps),
    # i.e. almost exactly lr in the direction opposing the gradient.
    set_precision("f64")
    store = _scalar_store([3.0, -2.0, 0.5])
    p = store["p"]
    p.grad = np.array([1.0, -4.0, 0.25], dtype=np.float64)
    opt = Adam(store)
    opt.step(lr=0.1)
    want = np.array([3.0 - 0.1, -2.0 + 0.1, 0.5 - 0.1])
    np.testing.assert_allclose(p.data, want, atol=1e-7)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    set_precision("f64")
    store = _scalar_store([1.5])
    store["p"].grad = np.array([0.0])
    opt = Adam(store)
    opt.step(lr=0.1)
    assert store["p"].data[0] == 1.5


def test_adam_matches_manual_two_step_recurrence():
    set_precision("f64")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = 0.05
    grads = [np.array([0.7, -1.3]), np.array([-0.2, 2.1])]
    store = _scalar_store([1.0, -1.0])
    opt = Adam(store, beta1, beta2, eps)

    x = np.array([1.0, -1.0], dtype=np.float64)
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        store["p"].grad = g.copy()
        opt.step(lr)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
    np.testing.assert_allclose(store["p"].data, x, rtol=1e-12)


def test_adam_state_round_trip_resumes_identically():
    set_precision("f64")
    rng = np.random.Generator(np.random.PCG64(5))
    grads = [rng.normal(size=3) for _ in range(5)]

    store_a = _scalar_store([0.3, -0.6, 1.1])
    opt_a = Adam(store_a)
    for g in grads[:3]:
        store_a["p"].grad = g.copy()
        opt_a.step(0.02)

    # Fresh optimizer over identically positioned parameters, fed the
    # snapshot of the first one's state.
    store_b = _scalar_store(store_a["p"].data.copy())
    opt_b = Adam(store_b)
    opt_b.load_state_tensors(opt_a.state_tensors())
    assert opt_b.step_count == 3

    for g in grads[3:]:
        store_a["p"].grad = g.copy()
        store_b["p"].grad = g.copy()
        opt_a.step(0.02)
        opt_b.step(0.02)
    np.testing.assert_array_equal(store_a["p"].data, store_b["p"].data)


def test_adam_state_tensors_names():
    store = _scalar_store([1.0])
    opt = Adam(store)
    state = opt.state_tensors()
    assert set(state) == {"step", "m/p", "v/p"}
    assert state["step"].shape == (1,)


# ---------------------------------------------------------------------------
# training runs (tiny model, tiny dataset)


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("trainset")
    write_dataset(str(root), SynthConfig(), num_train=6, num_val=4, seed=11)
    return str(root)


def _tiny_cfg(data_root, **overrides):
    doc = {
        "data_root": data_root,
        "num_classes": 4,
        "seed": 3,
        "batch_size": 2,
        "total_iterations": 4,
        "log_interval": 2,
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
    return from_dict(doc)


def test_train_smoke_writes_expected_artifacts(dataset_root, tmp_path):
    out = str(tmp_path / "run")
    cfg = _tiny_cfg(dataset_root)
    summary = train(cfg, out, log=lambda *a: None)

    assert summary["iterations"] == 4
    assert summary["param_scalars"] > 0
    assert np.isfinite(summary["final"]["miou"])
    assert summary["best"]["iteration"] in (2, 4)

    with open(os.path.join(out, "train_log.csv")) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iter", "lr", "l_seg", "l_edge", "reg", "total"]
    assert [r[0] for r in rows[1:]] == ["2", "4"]
    for row in rows[1:]:
        assert all(np.isfinite(float(cell)) for cell in row[1:])

    for name in ("best.ckpt", "best.json", "summary.json"):
        assert os.path.isfile(os.path.join(out, name)), name
    ckpts = sorted(os.listdir(os.path.join(out, "checkpoints")))
    assert ckpts == ["ckpt_000002.ckpt", "ckpt_000004.ckpt"]

    with open(os.path.join(out, "best.json")) as f:
        best = json.load(f)
    assert {"miou", "boundary_agreement", "iteration"} <= set(best)

    with open(os.path.join(out, "summary.json")) as f:
        assert json.load(f)["iterations"] == 4


def test_train_is_deterministic_across_runs(dataset_root, tmp_path):
    cfg = _tiny_cfg(dataset_root)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    train(cfg, out_a, log=lambda *a: None)
    train(cfg, out_b, log=lambda *a: None)
    name = os.path.join("checkpoints", "ckpt_000004.ckpt")
    with open(os.path.join(out_a, name), "rb") as f:
        bytes_a = f.read()
    with open(os.path.join(out_b, name), "rb") as f:
        bytes_b = f.read()
    assert bytes_a == bytes_b


def _read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as f:
        return f.read()


def test_train_resume_matches_uninterrupted_run(dataset_root, tmp_path):
    cfg = _tiny_cfg(dataset_root)
    out_full = str(tmp_path / "full")
    train(cfg, out_full, log=lambda *a: None)

    mid = os.path.join(out_full, "checkpoints", "ckpt_000002.ckpt")
    out_fresh = str(tmp_path / "fresh")
    train(cfg, out_fresh, resume=mid, log=lambda *a: None)

    # a run stopped after logging iteration 4 but before its checkpoint
    out_resumed = str(tmp_path / "resumed")
    shutil.copytree(out_full, out_resumed)
    last = os.path.join("checkpoints", "ckpt_000004.ckpt")
    os.remove(os.path.join(out_resumed, last))
    train(cfg, out_resumed,
          resume=os.path.join(out_resumed, "checkpoints", "ckpt_000002.ckpt"),
          log=lambda *a: None)

    want = _read_bytes(out_full, last)
    assert _read_bytes(out_fresh, last) == want
    assert _read_bytes(out_resumed, last) == want
    for name in ("train_log.csv", "best.json"):
        assert _read_bytes(out_resumed, name) == _read_bytes(out_full, name)
    summaries = []
    for out in (out_resumed, out_full):
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        del summary["elapsed_sec"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]


def test_train_resume_logs_each_iteration_once(dataset_root, tmp_path):
    cfg = _tiny_cfg(dataset_root)
    out = str(tmp_path / "run")
    train(cfg, out, log=lambda *a: None)
    mid = os.path.join(out, "checkpoints", "ckpt_000002.ckpt")
    train(cfg, out, resume=mid, log=lambda *a: None)

    with open(os.path.join(out, "train_log.csv")) as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "iter"
    assert [r[0] for r in rows[1:]] == ["2", "4"]


def test_train_checkpoints_do_not_depend_on_blas_threads(dataset_root,
                                                         tmp_path):
    # the default model: its larger matmuls are the ones OpenBLAS threads
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"data_root": dataset_root, "total_iterations": 3,
                   "checkpoint_interval": 3, "eval_interval": 3}, f)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ckpts = []
    for threads in ("1", "2"):
        out = str(tmp_path / ("threads%s" % threads))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.join(repo, "src"))
        subprocess.run([sys.executable, "-m", "elkpp", "train",
                        "--config", cfg_path, "--out", out],
                       env=env, check=True, capture_output=True, timeout=300)
        ckpts.append(_read_bytes(out, "checkpoints", "ckpt_000003.ckpt"))
    assert ckpts[0] == ckpts[1]


def test_train_resume_keeps_best_from_before_resume(dataset_root, tmp_path):
    cfg = _tiny_cfg(dataset_root)
    out = str(tmp_path / "run")
    train(cfg, out, log=lambda *a: None)
    # a best score no later evaluation can beat
    unbeatable = {"miou": 2.0, "boundary_agreement": 1.0, "iteration": 2}
    with open(os.path.join(out, "best.json"), "w") as f:
        json.dump(unbeatable, f)
    with open(os.path.join(out, "best.ckpt"), "rb") as f:
        best_ckpt = f.read()

    mid = os.path.join(out, "checkpoints", "ckpt_000002.ckpt")
    summary = train(cfg, out, resume=mid, log=lambda *a: None)

    assert summary["best"] == unbeatable
    with open(os.path.join(out, "best.json")) as f:
        assert json.load(f) == unbeatable
    with open(os.path.join(out, "summary.json")) as f:
        assert json.load(f)["best"] == unbeatable
    with open(os.path.join(out, "best.ckpt"), "rb") as f:
        assert f.read() == best_ckpt


@pytest.mark.parametrize("name", ["best.json", "summary.json"])
def test_train_failed_json_write_keeps_previous_file(dataset_root, tmp_path,
                                                     monkeypatch, name):
    cfg = _tiny_cfg(dataset_root)
    out = str(tmp_path / "run")
    train(cfg, out, log=lambda *a: None)
    before = _read_bytes(out, name)

    real_dump = json.dump

    # summary.json alone has "iterations", best.json alone "miou"
    key = "iterations" if name == "summary.json" else "miou"

    def dump_that_fails_midway(doc, f, **kwargs):
        if key in doc:
            f.write('{"miou": ')
            raise OSError("disk full")
        real_dump(doc, f, **kwargs)

    monkeypatch.setattr(json, "dump", dump_that_fails_midway)
    with pytest.raises(OSError, match="disk full"):
        train(cfg, out, log=lambda *a: None)
    assert _read_bytes(out, name) == before
    assert not os.path.exists(os.path.join(out, name + ".tmp"))


def test_train_restores_precision(dataset_root, tmp_path):
    set_precision("f32")
    cfg = _tiny_cfg(dataset_root, precision="f64")
    train(cfg, str(tmp_path / "run"), log=lambda *a: None)
    assert default_dtype() == np.float32
    # also when the run fails
    with pytest.raises(FileNotFoundError):
        train(cfg, str(tmp_path / "failed"),
              resume=str(tmp_path / "missing.ckpt"), log=lambda *a: None)
    assert default_dtype() == np.float32


def test_train_resume_rejects_mismatched_config(dataset_root, tmp_path):
    cfg = _tiny_cfg(dataset_root)
    out = str(tmp_path / "seed_run")
    train(cfg, out, log=lambda *a: None)
    ckpt = os.path.join(out, "checkpoints", "ckpt_000002.ckpt")

    other = _tiny_cfg(dataset_root, base_lr=1e-3)
    with pytest.raises(ValueError, match="configuration"):
        train(other, str(tmp_path / "other"), resume=ckpt,
              log=lambda *a: None)
    assert not os.path.exists(str(tmp_path / "other" / "config.json"))
    # a rejected resume in place keeps the run's own config.json
    before = _read_bytes(out, "config.json")
    with pytest.raises(ValueError, match="configuration"):
        train(other, out, resume=ckpt, log=lambda *a: None)
    assert _read_bytes(out, "config.json") == before


def test_train_records_config_before_it_trains(dataset_root, tmp_path,
                                               monkeypatch):
    cfg = _tiny_cfg(dataset_root)
    out = str(tmp_path / "run")
    train_module = importlib.import_module("elkpp.train")
    real_save = train_module.save_checkpoint
    saved = []

    def save_then_crash(path, *args):
        real_save(path, *args)
        saved.append(path)
        raise RuntimeError("killed")

    monkeypatch.setattr(train_module, "save_checkpoint", save_then_crash)
    with pytest.raises(RuntimeError, match="killed"):
        train(cfg, out, log=lambda *a: None)
    assert len(saved) == 1 and os.path.isfile(saved[0])
    with open(os.path.join(out, "config.json")) as f:
        assert json.load(f) == json.loads(json.dumps(to_dict(cfg)))


def test_evaluate_reports_scores_in_unit_range(dataset_root):
    from elkpp.data import load_split
    from elkpp.segnet import ElkppNet

    cfg = _tiny_cfg(dataset_root)
    net = ElkppNet(cfg.model, seed=0)
    samples = load_split(dataset_root, "val", cfg.num_classes)
    scores = evaluate(net, samples, cfg.num_classes, batch_size=2)
    assert {"pixel_acc", "mean_class_acc", "miou", "fwiou",
            "boundary_agreement"} <= set(scores)
    for key, value in scores.items():
        assert 0.0 <= value <= 1.0, key
