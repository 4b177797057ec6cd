"""Dot-product (adjoint) tests of the linear ops.

For a linear map A and random x, y, <A x, y> must equal <x, A^T y>, where
A^T y is what the op's backward rule returns for the output gradient y.
In f64 the two agree to rounding, so an index error anywhere in the
forward or the backward (a wrong tap offset, stride or crop) shows as an
O(1) mismatch.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elkpp.nn import ConvSpec, bilinear_resize, dilated_conv2d, \
    global_avg_pool, pad_replicate, resize_conv3x3
from elkpp.tensor import Tensor, backward, concat, set_precision

TOL = 1e-12


@pytest.fixture(autouse=True)
def _f64():
    set_precision("f64")
    yield


def assert_adjoint(forward, x, y):
    """<A x, y> == <x, A^T y> to rounding, for A = ``forward``. A list
    ``x`` holds the operands of a many-input A, passed in order, and the
    right side sums over them."""
    xs = x if isinstance(x, list) else [x]
    ts = [Tensor(a, requires_grad=True) for a in xs]
    ax = forward(*ts)
    backward((ax * Tensor(y)).sum())
    lhs = float(np.vdot(ax.data, y))
    rhs = sum(float(np.vdot(a, t.grad)) for a, t in zip(xs, ts))
    scale = np.linalg.norm(ax.data) * np.linalg.norm(y) + sum(
        np.linalg.norm(a) * np.linalg.norm(t.grad) for a, t in zip(xs, ts))
    assert abs(lhs - rhs) <= TOL * scale, (lhs, rhs)


@st.composite
def conv_problems(draw):
    kh, kw = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rh, rw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    mode = draw(st.sampled_from(["same-zero", "valid"]))
    spec = ConvSpec(kh, kw, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                    rate_h=rh, rate_w=rw, stride=stride, padding_mode=mode)
    low_h = spec.extent_h if mode == "valid" else 1
    low_w = spec.extent_w if mode == "valid" else 1
    h = draw(st.integers(low_h, low_h + 6))
    w = draw(st.integers(low_w, low_w + 6))
    return spec, (draw(st.integers(1, 2)), spec.in_channels, h, w), \
        draw(st.integers(0, 2 ** 32 - 1))


# pinned cases: 1 x k and k x 1, and stride 2 with rates above 1, where a
# tap's window runs into the next padded row
PINNED = [
    (ConvSpec(1, 7, 2, 3, rate_w=3), (1, 2, 5, 9)),
    (ConvSpec(7, 1, 2, 2, rate_h=2, stride=2), (2, 2, 11, 4)),
    (ConvSpec(3, 3, 2, 2, rate_h=2, rate_w=3, stride=2), (1, 2, 9, 8)),
    (ConvSpec(3, 5, 1, 2, rate_h=3, rate_w=2, stride=2,
              padding_mode="valid"), (2, 1, 12, 13)),
]


def _conv_case(problem):
    spec, shape, seed = problem
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    w = rng.standard_normal(spec.weight_shape)
    y_shape = dilated_conv2d(Tensor(x), spec, Tensor(w)).data.shape
    return spec, x, w, rng.standard_normal(y_shape)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(conv_problems())
@example(PINNED[0] + (0,))
@example(PINNED[1] + (1,))
@example(PINNED[2] + (2,))
@example(PINNED[3] + (3,))
def test_conv_adjoint_in_input(problem):
    spec, x, w, y = _conv_case(problem)
    assert_adjoint(lambda t: dilated_conv2d(t, spec, Tensor(w)), x, y)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(conv_problems())
@example(PINNED[0] + (4,))
@example(PINNED[1] + (5,))
@example(PINNED[2] + (6,))
@example(PINNED[3] + (7,))
def test_conv_adjoint_in_weights(problem):
    spec, x, w, y = _conv_case(problem)
    assert_adjoint(lambda t: dilated_conv2d(Tensor(x), spec, t), w, y)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 7), st.integers(1, 7),
       st.tuples(*[st.integers(0, 4)] * 4), st.integers(0, 2 ** 32 - 1))
def test_pad_replicate_adjoint(h, w, pads, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, h, w))
    top, bottom, left, right = pads
    y = rng.standard_normal((2, 2, h + top + bottom, w + left + right))
    assert_adjoint(lambda t: pad_replicate(t, *pads), x, y)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 12),
       st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_bilinear_resize_adjoint(h, w, out_h, out_w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, h, w))
    y = rng.standard_normal((2, 3, out_h, out_w))
    assert_adjoint(lambda t: bilinear_resize(t, out_h, out_w), x, y)


@st.composite
def resize_conv_problems(draw):
    n, c, o = draw(st.integers(1, 2)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    out_h, out_w = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (rng.standard_normal((n, c, h, w)),
            rng.standard_normal((o, c, 3, 3)),
            rng.standard_normal((n, o, out_h, out_w)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(resize_conv_problems())
def test_resize_conv3x3_adjoint_in_input(problem):
    x, w, y = problem
    out_h, out_w = y.shape[2:]
    assert_adjoint(lambda t: resize_conv3x3(t, Tensor(w), out_h, out_w),
                   x, y)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(resize_conv_problems())
def test_resize_conv3x3_adjoint_in_weights(problem):
    x, w, y = problem
    out_h, out_w = y.shape[2:]
    assert_adjoint(lambda t: resize_conv3x3(Tensor(x), t, out_h, out_w),
                   w, y)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 3), st.lists(st.integers(1, 4), min_size=1,
                                   max_size=3), st.integers(0, 2 ** 32 - 1))
def test_concat_reshape_adjoint(axis, sizes, seed):
    # each operand arrives flat and is reshaped before the concat, so the
    # backward rules of both ops are on the path
    rng = np.random.default_rng(seed)
    shapes = [tuple(k if i == axis else d for i, d in enumerate((2, 3, 4, 5)))
              for k in sizes]
    xs = [rng.standard_normal(int(np.prod(s))) for s in shapes]
    out_shape = list(shapes[0])
    out_shape[axis] = sum(sizes)
    y = rng.standard_normal(out_shape)
    assert_adjoint(
        lambda *ts: concat([t.reshape(s) for t, s in zip(ts, shapes)], axis),
        xs, y)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
def test_global_avg_pool_adjoint(h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, h, w))
    y = rng.standard_normal((2, 3, 1, 1))
    assert_adjoint(global_avg_pool, x, y)
