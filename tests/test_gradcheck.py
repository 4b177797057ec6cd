"""Tests for the finite-difference gradient verifier.

The verifier is itself an oracle for the autodiff engine, so these tests
exercise it both ways: it must accept a graph whose backward rules are
correct and it must flag a graph whose backward rule is deliberately
sabotaged.
"""
import numpy as np
import pytest

from elkpp.gradcheck import (check_gradients, finite_difference,
                             max_relative_error)
from elkpp.tensor import (ParameterStore, Tensor, set_verification_mode)


@pytest.fixture(autouse=True)
def _verification_mode():
    set_verification_mode(True)
    yield
    set_verification_mode(False)


# ---------------------------------------------------------------------------
# finite differences


def test_finite_difference_exact_on_quadratic():
    # Central differences are exact for quadratics up to roundoff.
    a = np.array([1.0, -2.0, 0.5, 3.0])
    x = np.array([0.3, 1.7, -0.9, 0.1])

    def f():
        return float((a * x * x).sum())

    grad = finite_difference(f, x, step=1e-5)
    np.testing.assert_allclose(grad, 2.0 * a * x, atol=1e-9)


def test_finite_difference_restores_input():
    x = np.array([1.0, 2.0])
    saved = x.copy()
    finite_difference(lambda: float((x * x).sum()), x, step=1e-4)
    np.testing.assert_array_equal(x, saved)


def test_finite_difference_probes_only_requested_indices():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    grad = finite_difference(lambda: float((x * x).sum()), x,
                             step=1e-5, indices=[1, 3])
    assert np.isnan(grad[0]) and np.isnan(grad[2])
    np.testing.assert_allclose(grad[[1, 3]], [4.0, 8.0], atol=1e-8)


def test_finite_difference_handles_multidimensional_arrays():
    x = np.arange(6, dtype=np.float64).reshape(2, 3) + 0.5
    grad = finite_difference(lambda: float((x * x).sum()), x, step=1e-5)
    assert grad.shape == (2, 3)
    np.testing.assert_allclose(grad, 2.0 * x, atol=1e-8)


# ---------------------------------------------------------------------------
# relative-error reduction


def test_max_relative_error_pinned_value():
    got = max_relative_error(np.array([1.0]), np.array([1.1]))
    assert got == pytest.approx(0.1 / 1.1, rel=1e-12)


def test_max_relative_error_floor_protects_near_zero():
    # Both sides below the floor: the comparison becomes absolute.
    got = max_relative_error(np.array([0.0]), np.array([5e-7]))
    assert got == pytest.approx(0.5, rel=1e-9)
    assert max_relative_error(np.array([1e-9]), np.array([0.0])) < 1e-2


def test_max_relative_error_skips_nan_estimates():
    analytic = np.array([1.0, 123.0])
    estimate = np.array([1.0, np.nan])
    assert max_relative_error(analytic, estimate) == 0.0
    assert max_relative_error(analytic, np.array([np.nan, np.nan])) == 0.0


def test_max_relative_error_takes_worst_entry():
    analytic = np.array([1.0, 2.0, 3.0])
    estimate = np.array([1.0, 2.2, 3.0])
    assert max_relative_error(analytic, estimate) == \
        pytest.approx(0.2 / 2.2, rel=1e-12)


# ---------------------------------------------------------------------------
# end-to-end checking


def _quadratic_setup():
    store = ParameterStore()
    w = store.add("w", np.array([0.5, -1.2, 2.0]))
    b = store.add("b", np.array([0.3, -0.1, 0.7]))
    x = Tensor(np.array([1.0, 2.0, -0.5]))

    def loss_fn():
        y = w * x + b
        return (y * y).mean()

    return store, loss_fn


def test_check_gradients_accepts_correct_graph():
    store, loss_fn = _quadratic_setup()
    report = check_gradients(loss_fn, store.items(), steps=1e-5, tol=1e-8)
    assert report.passed
    assert report.worst < 1e-8
    assert [e.name for e in report.entries] == ["w", "b"]
    assert all(e.status == "ok" for e in report.entries)


def _scale_with_wrong_backward(t, factor, claimed):
    return Tensor._node(t.data * factor, (t,),
                        lambda g: t._accum(g * claimed), "bad-scale")


def test_check_gradients_flags_sabotaged_backward_rule():
    store = ParameterStore()
    w = store.add("w", np.array([0.4, -0.8]))

    def loss_fn():
        y = _scale_with_wrong_backward(w, 2.0, 3.0)
        return (y * y).mean()

    # the full refinement ladder must not rescue a wrong rule: the
    # estimates converge to the true derivative at every scale
    report = check_gradients(loss_fn, store.items(),
                             steps=(1e-5, 1e-6, 1e-7), tol=1e-6)
    assert not report.passed
    entry = report.entries[0]
    assert entry.status == "fail"
    # claimed/true gradient ratio is 1.5, so the relative error is 1/3
    assert entry.max_rel == pytest.approx(1.0 / 3.0, rel=1e-5)
    assert "FAIL" in report.render()


def test_step_ladder_rescues_high_curvature_coordinates():
    # sqrt(x^2 + d^2) near x ~ d has a third derivative of order 1/d^2:
    # at d = 1e-5 a 1e-5 central difference loses several digits to
    # truncation, while a 1e-7 step recovers the gradient cleanly.
    store = ParameterStore()
    x = store.add("x", np.array([2e-5]))
    d2 = Tensor(np.array([1e-10]))

    def loss_fn():
        return ((x * x + d2).sqrt()).sum()

    coarse = check_gradients(loss_fn, store.items(), steps=1e-5, tol=1e-3)
    assert not coarse.passed

    ladder = check_gradients(loss_fn, store.items(),
                             steps=(1e-5, 1e-6, 1e-7), tol=1e-3)
    assert ladder.passed
    assert ladder.worst <= 1e-3


def test_check_gradients_reports_frozen_parameters_as_skipped():
    store, loss_fn = _quadratic_setup()
    store["b"].requires_grad = False
    report = check_gradients(loss_fn, store.items(), steps=1e-5, tol=1e-8)
    assert report.passed
    by_name = {e.name: e for e in report.entries}
    assert by_name["b"].status == "skipped"
    assert by_name["w"].status == "ok"
    assert "skipped" in report.render()


def test_check_gradients_subsamples_large_tensors():
    store = ParameterStore()
    w = store.add("w", np.linspace(-1.0, 1.0, 50))

    calls = {"n": 0}

    def loss_fn():
        calls["n"] += 1
        return (w * w).mean()

    report = check_gradients(loss_fn, store.items(), steps=1e-5, tol=1e-8,
                             max_entries=10)
    assert report.passed
    # one backward build plus 2 forward evaluations per probed entry
    assert calls["n"] == 1 + 2 * 10


def test_check_gradients_render_mentions_pass_and_settings():
    store, loss_fn = _quadratic_setup()
    report = check_gradients(loss_fn, store.items(), steps=1e-5, tol=1e-8)
    text = report.render()
    assert "PASS" in text
    assert "w" in text and "b" in text
    assert "tolerance" in text
