"""Convolution and friends against brute-force and finite-difference
oracles."""
import numpy as np
import pytest

from elkpp.gradcheck import finite_difference, max_relative_error
from elkpp.nn import ConvSpec, batch_norm, bilinear_resize, dilated_conv2d, \
    effective_kernel_extent, global_avg_pool, pad_replicate, \
    resize_conv3x3, sigmoid, softmax
from elkpp.tensor import Tensor, backward, no_grad, set_precision

from _oracles import conv2d_direct


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture(autouse=True)
def _f64():
    set_precision("f64")
    yield


def fd_check(build, tensors, tol=5e-6, step=1e-6):
    loss = build()
    backward(loss)
    for t in tensors:
        def value(t=t):
            with no_grad():
                return float(build().data)
        fd = finite_difference(value, t.data, step=step)
        assert max_relative_error(t.grad, fd) <= tol, t


def test_effective_kernel_extent():
    assert effective_kernel_extent(3, 1) == 3
    assert effective_kernel_extent(3, 2) == 5
    assert effective_kernel_extent(3, 3) == 7
    assert effective_kernel_extent(1, 9) == 1
    assert effective_kernel_extent(7, 3) == 19
    with pytest.raises(ValueError):
        effective_kernel_extent(0, 1)


def test_conv_spec_validation():
    with pytest.raises(ValueError):
        ConvSpec(3, 3, 2, 4, stride=0)
    with pytest.raises(ValueError):
        ConvSpec(3, 3, 2, 4, padding_mode="reflect")
    spec = ConvSpec(3, 5, 2, 4, rate_w=2, has_bias=True)
    assert spec.weight_shape == (4, 2, 3, 5)
    assert spec.extent_w == 9
    assert spec.param_count() == 4 * 2 * 3 * 5 + 4


CONV_CASES = [
    # kernel_h, kernel_w, rate_h, rate_w, stride, padding, h, w
    (3, 3, 1, 1, 1, "same-zero", 8, 8),
    (3, 3, 2, 2, 1, "same-zero", 9, 7),
    (3, 5, 1, 2, 1, "same-zero", 8, 10),
    (5, 3, 2, 1, 1, "same-zero", 10, 8),
    (1, 1, 1, 1, 1, "same-zero", 5, 5),
    (3, 3, 1, 1, 2, "same-zero", 9, 8),
    (3, 3, 3, 3, 2, "same-zero", 11, 13),
    (2, 2, 1, 1, 1, "same-zero", 6, 6),
    (3, 3, 1, 1, 1, "valid", 8, 8),
    (3, 5, 2, 2, 1, "valid", 12, 14),
    (3, 3, 1, 1, 2, "valid", 9, 9),
]


@pytest.mark.parametrize("kh,kw,rh,rw,s,pad,h,w", CONV_CASES)
def test_conv_matches_direct_oracle(kh, kw, rh, rw, s, pad, h, w):
    r = rng(kh * 100 + kw * 10 + rh + rw + s + h + w)
    spec = ConvSpec(kh, kw, 3, 2, rate_h=rh, rate_w=rw, stride=s,
                    has_bias=True, padding_mode=pad)
    x = r.standard_normal((2, 3, h, w))
    wt = r.standard_normal(spec.weight_shape)
    b = r.standard_normal(2)
    got = dilated_conv2d(Tensor(x), spec, Tensor(wt), Tensor(b)).data
    want = conv2d_direct(x, wt, b, stride=s, rate_h=rh, rate_w=rw,
                         padding=pad)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv_identity_1x1():
    r = rng(7)
    x = r.standard_normal((1, 1, 6, 6))
    spec = ConvSpec(1, 1, 1, 1)
    out = dilated_conv2d(Tensor(x), spec, Tensor(np.ones((1, 1, 1, 1))))
    assert np.array_equal(out.data, x)


def test_conv_impulse_response_shows_dilation():
    # all-ones 3x3 rate-2 kernel hit with a centered impulse: taps land
    # on a 5x5 extent at even offsets only
    x = np.zeros((1, 1, 11, 11))
    x[0, 0, 5, 5] = 1.0
    spec = ConvSpec(3, 3, 1, 1, rate_h=2, rate_w=2)
    out = dilated_conv2d(Tensor(x), spec, Tensor(np.ones((1, 1, 3, 3)))).data
    hit = np.argwhere(out[0, 0] != 0)
    assert len(hit) == 9
    offs = hit - 5
    assert set(map(tuple, offs)) == {(a, b) for a in (-2, 0, 2)
                                     for b in (-2, 0, 2)}


def test_conv_valid_too_small_rejected():
    spec = ConvSpec(3, 3, 1, 1, rate_h=4, rate_w=4, padding_mode="valid")
    with pytest.raises(ValueError):
        dilated_conv2d(Tensor(np.zeros((1, 1, 8, 8))), spec,
                       Tensor(np.zeros((1, 1, 3, 3))))


def test_conv_channel_mismatch_rejected():
    spec = ConvSpec(3, 3, 2, 1)
    with pytest.raises(ValueError):
        dilated_conv2d(Tensor(np.zeros((1, 3, 8, 8))), spec,
                       Tensor(np.zeros((1, 2, 3, 3))))
    with pytest.raises(ValueError):
        dilated_conv2d(Tensor(np.zeros((1, 2, 8, 8))), spec,
                       Tensor(np.zeros((1, 2, 5, 3))))


@pytest.mark.parametrize("kh,kw,rh,rw,s,pad", [
    (3, 3, 1, 1, 1, "same-zero"),
    (3, 5, 1, 2, 1, "same-zero"),
    (3, 3, 2, 2, 2, "same-zero"),
    (2, 3, 1, 1, 1, "valid"),
])
def test_conv_gradients(kh, kw, rh, rw, s, pad):
    r = rng(3)
    spec = ConvSpec(kh, kw, 2, 3, rate_h=rh, rate_w=rw, stride=s,
                    has_bias=True, padding_mode=pad)
    x = Tensor(r.standard_normal((2, 2, 7, 8)), requires_grad=True)
    w = Tensor(r.standard_normal(spec.weight_shape), requires_grad=True)
    b = Tensor(r.standard_normal(3), requires_grad=True)

    def build():
        y = dilated_conv2d(x, spec, w, b)
        # mean keeps loss magnitude ~O(10) so finite-difference
        # roundoff stays far below the tolerance
        return (y * y).mean()

    fd_check(build, [x, w, b])


def test_pad_replicate_values():
    x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
    out = pad_replicate(x, 1, 2, 2, 1).data[0, 0]
    assert out.shape == (5, 5)
    assert np.array_equal(out[0], [0, 0, 0, 1, 1])
    assert np.array_equal(out[:, 0], [0, 0, 2, 2, 2])
    assert out[4, 4] == 3


def test_pad_replicate_gradients():
    r = rng(4)
    for shape in [(1, 2, 3, 4), (1, 1, 1, 3), (1, 1, 1, 1)]:
        x = Tensor(r.standard_normal(shape), requires_grad=True)
        scale = Tensor(r.standard_normal(
            (shape[0], shape[1], shape[2] + 3, shape[3] + 3)))

        def build():
            return (pad_replicate(x, 1, 2, 2, 1) * scale).sum()

        fd_check(build, [x])


def test_batch_norm_normalizes_batch():
    r = rng(5)
    x = Tensor(r.standard_normal((4, 3, 5, 5)) * 3.0 + 1.0)
    scale = Tensor(np.ones(3))
    shift = Tensor(np.zeros(3))
    rm = np.zeros(3)
    rv = np.ones(3)
    out = batch_norm(x, scale, shift, rm, rv, training=True).data
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)
    # running buffers move one momentum step toward the batch stats
    assert np.allclose(rm, 0.1 * x.data.mean(axis=(0, 2, 3)))
    expect_var = 0.9 * 1.0 + 0.1 * x.data.var(axis=(0, 2, 3))
    assert np.allclose(rv, expect_var)


def test_batch_norm_constant_input_gives_shift():
    x = Tensor(np.full((2, 2, 3, 3), 7.0))
    out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.full(2, 0.25)),
                     np.zeros(2), np.ones(2), training=True).data
    assert np.allclose(out, 0.25)


def test_batch_norm_inference_uses_running_stats():
    x = Tensor(np.ones((1, 1, 2, 2)) * 4.0)
    out = batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                     np.array([2.0]), np.array([4.0]), training=False).data
    assert np.allclose(out, (4.0 - 2.0) / np.sqrt(4.0 + 1e-5))


def test_batch_norm_empty_batch_rejected():
    with pytest.raises(ValueError):
        batch_norm(Tensor(np.zeros((0, 1, 2, 2))), Tensor(np.ones(1)),
                   Tensor(np.zeros(1)), np.zeros(1), np.ones(1),
                   training=True)


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_gradients(training):
    r = rng(6)
    x = Tensor(r.standard_normal((3, 2, 4, 4)), requires_grad=True)
    scale = Tensor(r.uniform(0.5, 1.5, 2), requires_grad=True)
    shift = Tensor(r.standard_normal(2), requires_grad=True)
    rm = r.standard_normal(2)
    rv = r.uniform(0.5, 2.0, 2)
    # random per-element weights: a plain moment-based loss is invariant
    # to the input under training-mode normalization (gradient ~0, which
    # finite differences cannot resolve)
    c = Tensor(r.standard_normal(x.data.shape))

    def build():
        y = batch_norm(x, scale, shift, rm.copy(), rv.copy(),
                       training=training)
        return (y * c + y * y * c * 0.1).mean()

    fd_check(build, [x, scale, shift], tol=5e-6)


def test_global_avg_pool():
    r = rng(7)
    x = Tensor(r.standard_normal((2, 3, 4, 5)), requires_grad=True)
    out = global_avg_pool(x)
    assert out.data.shape == (2, 3, 1, 1)
    assert np.allclose(out.data[..., 0, 0], x.data.mean(axis=(2, 3)))
    fd_check(lambda: (global_avg_pool(x) * global_avg_pool(x)).sum(), [x])


def test_bilinear_identity_same_size():
    r = rng(8)
    x = Tensor(r.standard_normal((1, 2, 5, 7)))
    out = bilinear_resize(x, 5, 7)
    assert np.array_equal(out.data, x.data)


def test_bilinear_replicates_single_pixel():
    x = Tensor(np.full((1, 1, 1, 1), 3.5))
    out = bilinear_resize(x, 4, 4)
    assert np.allclose(out.data, 3.5)


def test_bilinear_2x_known_values():
    # 1-D ramp [0, 1] upsampled 2x with half-pixel centers:
    # sources at -0.25, 0.25, 0.75, 1.25 clamp to [0, 1]
    x = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
    out = bilinear_resize(x, 1, 4).data.ravel()
    assert np.allclose(out, [0.0, 0.25, 0.75, 1.0])


def test_bilinear_downsample_averages():
    x = Tensor(np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 1, 4))
    out = bilinear_resize(x, 1, 2).data.ravel()
    assert np.allclose(out, [0.5, 2.5])


def test_bilinear_gradients():
    r = rng(9)
    x = Tensor(r.standard_normal((2, 2, 3, 4)), requires_grad=True)
    for target in [(6, 8), (2, 3), (3, 4)]:
        fd_check(lambda t=target: (bilinear_resize(x, *t)
                                   * bilinear_resize(x, *t)).sum(), [x])


RESIZE_CONV_CASES = [
    # n, in channels, out channels, h, w, out_h, out_w
    (2, 3, 2, 5, 7, 20, 28),     # odd, non-square, 4x
    (1, 2, 4, 16, 16, 64, 64),   # the default model's head
    (2, 3, 3, 4, 6, 4, 6),       # identity-size resize
    (2, 3, 2, 1, 1, 4, 5),       # 1x1 input
    (1, 2, 3, 3, 5, 7, 11),      # non-integer factors
    (2, 4, 2, 7, 5, 3, 2),       # downsampling
]


@pytest.mark.parametrize("n,c,o,h,w,out_h,out_w", RESIZE_CONV_CASES)
def test_resize_conv3x3_matches_resize_then_conv(n, c, o, h, w, out_h, out_w):
    r = rng(h * 100 + w * 10 + out_h + out_w)
    x = r.standard_normal((n, c, h, w))
    wt = r.standard_normal((o, c, 3, 3))
    g = r.standard_normal((n, o, out_h, out_w))
    spec = ConvSpec(3, 3, c, o)
    results = []
    for op in (lambda a, b: dilated_conv2d(
                   bilinear_resize(a, out_h, out_w), spec, b),
               lambda a, b: resize_conv3x3(a, b, out_h, out_w)):
        xt = Tensor(x, requires_grad=True)
        wtt = Tensor(wt, requires_grad=True)
        out = op(xt, wtt)
        backward((out * Tensor(g)).sum())
        results.append((out.data, xt.grad, wtt.grad))
    for want, got in zip(*results):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_resize_conv3x3_rejects_bad_weights():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ValueError):
        resize_conv3x3(x, Tensor(np.zeros((3, 2, 5, 5))), 8, 8)
    with pytest.raises(ValueError):
        resize_conv3x3(x, Tensor(np.zeros((3, 4, 3, 3))), 8, 8)


def test_softmax_properties_and_gradient():
    r = rng(10)
    # moderate logits: saturated classes have ~zero gradient, which
    # finite differences cannot resolve above roundoff
    x = Tensor(r.standard_normal((2, 5, 3, 3)) * 1.5, requires_grad=True)
    p = softmax(x, axis=1)
    assert np.allclose(p.data.sum(axis=1), 1.0)
    assert (p.data > 0).all()
    # shift invariance
    p2 = softmax(x + 100.0, axis=1)
    assert np.allclose(p.data, p2.data, atol=1e-12)
    scale = Tensor(r.standard_normal(p.data.shape))
    fd_check(lambda: (softmax(x, axis=1) * scale).sum(), [x], tol=1e-5)


def test_softmax_extreme_logits_stay_finite():
    x = Tensor(np.array([[1000.0, -1000.0]]).reshape(1, 2, 1, 1))
    p = softmax(x, axis=1).data
    assert np.isfinite(p).all()
    assert np.allclose(p.sum(axis=1), 1.0)


def test_sigmoid_values_and_gradient():
    x = Tensor(np.array([-800.0, 0.0, 800.0]))
    s = sigmoid(x).data
    assert np.allclose(s, [0.0, 0.5, 1.0], atol=1e-12)
    r = rng(11)
    y = Tensor(r.standard_normal((4, 4)), requires_grad=True)
    fd_check(lambda: (sigmoid(y) * sigmoid(y) + sigmoid(y)).sum(), [y])
