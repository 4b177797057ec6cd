"""Autodiff core: forward values, backward rules, tape mechanics."""
import contextlib
import gc
import weakref

import numpy as np
import pytest

from elkpp.edge_loss import regularizer, squash
from elkpp.gradcheck import finite_difference, max_relative_error
from elkpp.nn import ConvSpec, batch_norm, bilinear_resize, dilated_conv2d, \
    global_avg_pool, pad_replicate, resize_conv3x3, sigmoid, softmax
from elkpp.tensor import Tensor, ParameterStore, backward, concat, \
    no_grad, precision, set_precision, set_verification_mode


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def fd_check(build, tensors, tol=5e-7, step=1e-6):
    """Finite-difference check of d(build())/d(t) for every t."""
    loss = build()
    backward(loss)
    for t in tensors:
        def value(t=t):
            with no_grad():
                return float(build().data)
        fd = finite_difference(value, t.data, step=step)
        assert max_relative_error(t.grad, fd) <= tol


@pytest.fixture(autouse=True)
def _f64():
    set_precision("f64")
    yield


def test_binary_forward_values():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    assert np.allclose((a + b).data, [5, 7, 9])
    assert np.allclose((a - b).data, [-3, -3, -3])
    assert np.allclose((a * b).data, [4, 10, 18])
    assert np.allclose((a / b).data, [0.25, 0.4, 0.5])
    assert np.allclose((2.0 * a).data, [2, 4, 6])
    assert np.allclose((1.0 - a).data, [0, -1, -2])


def test_unary_forward_values():
    a = Tensor([-1.0, 0.0, 2.0])
    assert np.allclose(a.relu().data, [0, 0, 2])
    assert np.allclose(a.exp().data, np.exp([-1, 0, 2]))
    assert np.allclose(Tensor([1.0, 4.0]).sqrt().data, [1, 2])
    assert np.allclose(Tensor([1.0, np.e]).log().data, [0, 1])
    assert np.allclose(a.clip(-0.5, 1.0).data, [-0.5, 0, 1])


def test_shape_mismatch_rejected():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError):
        a + b


def test_scalar_broadcast_both_sides():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    s = Tensor(3.0, requires_grad=True)
    out = (a * s).sum()
    backward(out)
    assert np.allclose(a.grad, 3.0)
    assert np.allclose(s.grad, 4.0)  # gradient collapses onto the scalar


def test_binary_gradients():
    r = rng(1)
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((3, 4)) + 2.0, requires_grad=True)
    fd_check(lambda: ((a * b + a / b - b) * (a + 3.0)).sum(), [a, b])


def test_unary_gradients():
    r = rng(2)
    a = Tensor(r.uniform(0.5, 2.0, (4, 3)), requires_grad=True)
    fd_check(lambda: (a.log() + a.sqrt() * a.exp()).sum(), [a])


def test_relu_subgradient_zero_at_zero():
    a = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    backward(a.relu().sum())
    assert np.allclose(a.grad, [0.0, 0.0, 1.0])


def test_clip_gradient_passes_inside_interval_only():
    a = Tensor([-2.0, -1.0, 0.0, 1.0, 2.0], requires_grad=True)
    backward(a.clip(-1.0, 1.0).sum())
    assert np.allclose(a.grad, [0, 1, 1, 1, 0])


def test_reductions_forward():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert x.sum().data == 15
    assert x.mean().data == 2.5
    assert np.allclose(x.sum(axes=0).data, [3, 5, 7])
    assert np.allclose(x.mean(axes=1, keepdims=True).data, [[1], [4]])


def test_reduction_gradients():
    r = rng(3)
    x = Tensor(r.standard_normal((3, 4, 2)), requires_grad=True)
    fd_check(lambda: (x.mean(axes=(0, 2)) * x.sum(axes=(0, 2))).sum(), [x])


def test_empty_axis_reduction_rejected():
    x = Tensor(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        x.sum(axes=1)


def test_reshape_and_concat_gradients():
    r = rng(4)
    a = Tensor(r.standard_normal((2, 6)), requires_grad=True)
    b = Tensor(r.standard_normal((2, 3)), requires_grad=True)

    def build():
        stacked = concat([a.reshape(2, 6), b, b], axis=1)
        return (stacked * stacked).sum()

    fd_check(build, [a, b])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(x + x)


def test_backward_on_constant_rejected():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        backward((x * x).sum())


def test_gradient_accumulates_across_paths():
    a = Tensor([2.0], requires_grad=True)
    backward((a * a + a * 3.0).sum())  # d/da = 2a + 3
    assert np.allclose(a.grad, [7.0])


def test_repeated_backward_is_bit_identical():
    r = rng(5)
    a = Tensor(r.standard_normal((8, 8)), requires_grad=True)
    loss = ((a * a).sum() * (a.exp().mean()))
    backward(loss)
    first = a.grad.copy()
    backward(loss)
    assert np.array_equal(first, a.grad)


def test_sum_of_losses_linearity():
    r = rng(6)
    a = Tensor(r.standard_normal((5, 5)), requires_grad=True)
    l1 = (a * a).sum()
    l2 = a.exp().sum()
    backward(l1)
    g1 = a.grad.copy()
    backward(l2)
    g2 = a.grad.copy()
    backward(l1 + l2)
    assert np.allclose(a.grad, g1 + g2, rtol=0, atol=1e-12)


def _primitive_inputs(tracked):
    r = rng(7)
    store = ParameterStore()
    for name, shape in (("x", (1, 2, 4, 4)), ("w", (2, 2, 3, 3)),
                        ("b", (2,)), ("scale", (2,)), ("shift", (2,))):
        store.add(name, r.uniform(0.5, 2.0, shape)).requires_grad = tracked
    return store


def _every_primitive(store):
    """One output of each tape primitive of tensor, nn and edge_loss."""
    x, w, b = store["x"], store["w"], store["b"]
    scale, shift = store["scale"], store["shift"]
    conv = ConvSpec(3, 3, 2, 2, has_bias=True)
    stats = (np.zeros(2), np.ones(2))
    return {
        "add": x + x, "sub": x - x, "rsub": 1.0 - x, "mul": x * x,
        "div": x / x, "relu": x.relu(), "exp": x.exp(), "log": x.log(),
        "sqrt": x.sqrt(), "clip": x.clip(0.6, 1.5), "sum": x.sum(),
        "mean": x.mean(axes=1), "reshape": x.reshape(2, 16),
        "concat": concat([x, x], axis=1),
        "conv2d": dilated_conv2d(x, conv, w, b),
        "pad_replicate": pad_replicate(x, 1, 2, 1, 0),
        "batch_norm": batch_norm(x, scale, shift, *stats, training=True),
        "batch_norm_eval": batch_norm(x, scale, shift, *stats,
                                      training=False),
        "global_avg_pool": global_avg_pool(x),
        "bilinear_resize": bilinear_resize(x, 8, 6),
        "resize_conv3x3": resize_conv3x3(x, w, 8, 6),
        "sigmoid": sigmoid(x), "softmax": softmax(x),
        "squash": squash(x), "sum_squares": regularizer(store),
        "l2_norm": regularizer(store, "l2_norm"),
    }


def test_no_grad_blocks_taping():
    # a node that is not recorded keeps neither its parents nor its rule,
    # so an eval forward holds no buffer that only backward would read
    for grad_enabled, tracked in ((True, True), (False, True), (True, False)):
        store = _primitive_inputs(tracked)
        with contextlib.nullcontext() if grad_enabled else no_grad():
            outs = _every_primitive(store)
        taped = grad_enabled and tracked
        for op, out in outs.items():
            case = (op, grad_enabled, tracked)
            assert out.requires_grad == taped, case
            assert (out._backward is not None) == taped, case
            assert (out._parents != ()) == taped, case


def test_dropped_graph_is_freed_without_the_cycle_collector():
    # a node holds no reference cycle, so a step's graph goes with the
    # last reference to its loss rather than at the next collector pass
    a = Tensor(np.ones(3), requires_grad=True)
    gc.disable()
    try:
        hidden = a.exp()
        node = weakref.ref(hidden)
        loss = (hidden * 2.0).sum()
        backward(loss)
        del hidden, loss
        assert node() is None
    finally:
        gc.enable()


def test_detached_parameter_keeps_zero_gradient():
    store = ParameterStore()
    w = store.add("used", np.ones(2))
    frozen = store.add("frozen", np.ones(2))
    frozen.requires_grad = False
    loss = (w * 3.0).sum()
    store.zero_grads()
    backward(loss, store)
    assert np.allclose(w.grad, 3.0)
    assert np.allclose(frozen.grad, 0.0)


def test_parameter_store_contract():
    store = ParameterStore()
    store.add("a", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))
    store.add("b", np.ones(3))
    assert [name for name, _ in store.items()] == ["a", "b"]
    assert store.num_scalars() == 7
    state = store.state_dict()
    state["a"][0, 0] = 9.0
    assert store["a"].data[0, 0] == 0.0  # state_dict copies
    store.load_state_dict(state)
    assert store["a"].data[0, 0] == 9.0
    with pytest.raises(ValueError):
        store.load_state_dict({"a": state["a"]})  # missing key


def test_precision_switch_and_nan_trap():
    set_precision("f32")
    assert Tensor([1.0]).dtype == np.float32
    assert precision() == "f32"
    set_verification_mode(True)
    assert Tensor([1.0]).dtype == np.float64
    with pytest.raises(FloatingPointError):
        Tensor([-1.0]).log()
    with pytest.raises(FloatingPointError):
        Tensor([-1.0]).sqrt()
    with pytest.raises(FloatingPointError):
        Tensor([0.0]).log()  # -inf trips the trap
    x = Tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        x * x  # overflow to inf
    set_verification_mode(False)
    assert precision() == "f32"
    assert Tensor([1.0]).dtype == np.float32


def test_deep_graph_backward_no_recursion_limit():
    x = Tensor([1.0], requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 1.0
    backward(y.sum())
    assert np.allclose(x.grad, [1.0])
