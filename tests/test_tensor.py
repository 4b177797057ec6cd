"""Autodiff core: forward values, backward rules, tape mechanics."""
import numpy as np
import pytest

from elkpp.gradcheck import finite_difference, max_relative_error
from elkpp.tensor import Tensor, ParameterStore, backward, concat, \
    maximum, no_grad, precision, reduce, set_precision, \
    set_verification_mode


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
    assert np.allclose(maximum(a, b).data, [4, 5, 6])
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


def test_max_ties_route_to_first_argument():
    a = Tensor([1.0, 5.0], requires_grad=True)
    b = Tensor([1.0, 2.0], requires_grad=True)
    backward(maximum(a, b).sum())
    assert np.allclose(a.grad, [1, 1])
    assert np.allclose(b.grad, [0, 0])


def test_reductions_forward():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert reduce("sum", x).data == 15
    assert reduce("mean", x).data == 2.5
    assert reduce("max", x).data == 5
    assert np.allclose(x.sum(axes=0).data, [3, 5, 7])
    assert np.allclose(x.mean(axes=1, keepdims=True).data, [[1], [4]])
    assert np.allclose(x.max(axes=1).data, [2, 5])


def test_reduction_gradients():
    r = rng(3)
    x = Tensor(r.standard_normal((3, 4, 2)), requires_grad=True)
    fd_check(lambda: (x.mean(axes=(0, 2)) * x.sum(axes=(0, 2))).sum(), [x])


def test_max_reduce_gradient_first_maximum_only():
    x = Tensor([[1.0, 3.0, 3.0], [2.0, 2.0, 0.0]], requires_grad=True)
    backward(x.max(axes=1).sum())
    assert np.allclose(x.grad, [[0, 1, 0], [1, 0, 0]])


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


def test_no_grad_blocks_taping():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (a * 2.0).sum()
    assert not out.requires_grad
    out2 = (a * 2.0).sum()
    assert out2.requires_grad


def test_detached_parameter_keeps_zero_gradient():
    store = ParameterStore()
    w = store.add("used", np.ones(2))
    frozen = store.add("frozen", np.ones(2))
    frozen.requires_grad = False
    loss = (w * 3.0).sum()
    store.zero_grads()
    backward(loss, store)
    assert np.allclose(store.grad("used"), 3.0)
    assert np.allclose(store.grad("frozen"), 0.0)


def test_parameter_store_contract():
    store = ParameterStore()
    store.add("a", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))
    store.add("b", np.ones(3))
    assert store.names() == ["a", "b"]
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
