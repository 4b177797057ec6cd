"""Tests of the benchmark itself: a short run of each workload, the
refusal to run without the program, and, for every correctness check, a
corrupted input that it must reject.

    env OPENBLAS_NUM_THREADS=1 python3 -m pytest -q elkbench
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from elkpp import gradcheck, metrics, nn, tensor  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(cwd, workload, seed=7, seconds=1, trace=0):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


# -- whole runs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run(workload, trace):
    proc = bench(ROOT, workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert out["attempted"] >= 1 and out["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__",
                                                      ".pytest_cache"))
    proc = bench(tmp_path, "train")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- each check rejects a corrupted input -------------------------------------


@pytest.fixture(autouse=True)
def _f64():
    tensor.set_precision("f64")
    yield
    tensor.set_verification_mode(False)


def test_conv_check_rejects_a_perturbed_output():
    rng = np.random.default_rng(0)
    spec = nn.ConvSpec(3, 5, 2, 3, rate_h=1, rate_w=2, stride=2)
    x = rng.standard_normal((2, 2, 10, 11))
    w = rng.standard_normal(spec.weight_shape)
    got = nn.dilated_conv2d(tensor.Tensor(x), spec, tensor.Tensor(w)).data
    expected = checks.direct_conv(x, w, None, spec)
    assert checks.check_conv(got, expected)[0]
    bad = got.copy()
    bad[1, 2, 3, 4] += 1e-6 * np.abs(got).max()
    assert not checks.check_conv(bad, expected)[0]


def test_conv_check_covers_every_layer_of_the_model():
    net = workloads.segnet.ElkppNet(workloads.tiny_model_config())
    specs = workloads.conv_specs(net)
    assert len(specs) == len(set(specs)) > 10
    assert {s.stride for s in specs} == {1, 2}
    assert any(s.has_bias for s in specs)
    assert any(s.rate_h != s.rate_w for s in specs)


def _tiny_loss(seed=3):
    g = workloads.Gradcheck(seed, None)
    g.make_inputs()
    g.build()
    return g


def test_directional_check_rejects_one_changed_gradient_coordinate():
    g = _tiny_loss()
    grads, direction = workloads.tape_and_direction(
        g.loss, g.net.store, workloads.seeded_rng(0))
    assert workloads.directional_check(g.loss, g.net.store, grads,
                                       direction)[0]
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in grads)
    name = max(direction, key=lambda k: np.abs(direction[k]).max())
    i = int(np.abs(direction[name]).argmax())
    bad = {k: v.copy() for k, v in grads.items()}
    # moves <grad, direction> by one part in a thousand
    bad[name].reshape(-1)[i] += 1e-3 * abs(analytic) \
        / direction[name].reshape(-1)[i]
    assert not workloads.directional_check(g.loss, g.net.store, bad,
                                           direction)[0]


def test_gradcheck_report_check_rejects_a_wrong_backward_rule():
    x = tensor.Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)

    def loss(wrong):
        y = x.exp()
        if wrong and y.requires_grad:
            y._backward = lambda: x._accum(y.grad * y.data * 1.01)
        return y.sum()

    assert checks.check_gradcheck_report(gradcheck.check_gradients(
        lambda: loss(False), [("x", x)]))[0]
    assert not checks.check_gradcheck_report(gradcheck.check_gradients(
        lambda: loss(True), [("x", x)]))[0]


def test_loss_trend_check_rejects_a_rising_loss():
    assert checks.check_loss_trend(np.linspace(1.0, 0.5, 30))[0]
    assert not checks.check_loss_trend(np.linspace(0.5, 1.0, 30))[0]
    assert not checks.check_loss_trend(np.linspace(1.0, 0.5, 19))[0]


def test_bit_identity_check_rejects_one_flipped_bit():
    state = {"p/w": np.arange(6, dtype=np.float32),
             "o/step": np.ones(1, dtype=np.float32)}
    copy = {k: v.copy() for k, v in state.items()}
    assert checks.check_bit_identical(state, copy)[0]
    copy["p/w"].view(np.uint32)[3] ^= 1
    assert not checks.check_bit_identical(state, copy)[0]
    assert not checks.check_bit_identical(state, {"p/w": state["p/w"]})[0]


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    tensor.set_precision("f32")
    wl = workloads.Eval(5, str(tmp_path_factory.mktemp("eval")))
    wl.make_inputs()
    wl.build()
    wl.account(wl.unit())
    return wl


def test_eval_checks_pass_on_the_real_outputs(evaluated):
    tensor.set_precision("f32")
    results = dict(evaluated.checks())
    assert all(ok for ok, _ in results.values()), results


def test_confusion_checks_reject_a_matrix_off_by_one_pixel(evaluated):
    cm = metrics.ConfusionMatrix(evaluated.cm.num_classes)
    cm.counts = evaluated.cm.as_array()
    assert checks.check_confusion_total(cm.counts, evaluated.tally.valid)[0]
    assert checks.check_scores(cm.summary(), evaluated.tally)[0]
    cm.counts[0, 1] += 1
    assert not checks.check_confusion_total(cm.counts,
                                            evaluated.tally.valid)[0]
    assert not checks.check_scores(cm.summary(), evaluated.tally)[0]


def test_batch_checks_reject_perturbed_logits_and_predictions():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((8, 4, 6, 6)).astype(np.float32)
    assert checks.check_batch_invariance(logits[2], logits[2] + 1e-7)[0]
    assert not checks.check_batch_invariance(logits[2], logits[2] + 1e-3)[0]
    preds = np.argmax(logits, axis=1)
    assert checks.check_argmax(preds, logits)[0]
    preds[3, 1, 2] = (preds[3, 1, 2] + 1) % 4
    assert not checks.check_argmax(preds, logits)[0]
