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

from elkpp.nn import ConvSpec, bilinear_resize, dilated_conv2d, pad_replicate
from elkpp.tensor import Tensor, backward, set_precision

TOL = 1e-12


@pytest.fixture(autouse=True)
def _f64():
    set_precision("f64")
    yield


def assert_adjoint(forward, x, y):
    """<A x, y> == <x, A^T y> to rounding, for A = ``forward``."""
    xt = Tensor(x, requires_grad=True)
    ax = forward(xt)
    backward((ax * Tensor(y)).sum())
    lhs = float(np.vdot(ax.data, y))
    rhs = float(np.vdot(x, xt.grad))
    scale = (np.linalg.norm(ax.data) * np.linalg.norm(y)
             + np.linalg.norm(x) * np.linalg.norm(xt.grad))
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
