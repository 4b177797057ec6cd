"""Edge-aware loss analytics: template structure, gradient-map hand
cases, squash behavior, class-balanced BCE values, and the combined
objective's reduction to plain cross-entropy."""
import math
import warnings

import numpy as np
import pytest

from elkpp.edge_loss import EdgeLossParams, ce_loss, ece_loss, edge_bce, \
    edge_labels, gradient_map, laplacian_template, regularizer, squash
from elkpp.gradcheck import finite_difference, max_relative_error
from elkpp.tensor import ParameterStore, Tensor, backward, no_grad, \
    set_precision


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture(autouse=True)
def _f64():
    set_precision("f64")
    yield


def test_params_validation():
    with pytest.raises(ValueError):
        EdgeLossParams(kernel_scale=0)
    with pytest.raises(ValueError):
        EdgeLossParams(alpha=0.0)
    with pytest.raises(ValueError):
        EdgeLossParams(eps=0.6)
    with pytest.raises(ValueError):
        EdgeLossParams(reg_kind="huber")


def test_template_k1_exact():
    want = np.array([[1.0, 1, 1], [1, -8, 1], [1, 1, 1]])
    assert np.array_equal(laplacian_template(1), want)


def test_template_k2_block_structure():
    t = laplacian_template(2)
    assert t.shape == (6, 6)
    eye = np.eye(2)
    for br in range(3):
        for bc in range(3):
            block = t[2 * br:2 * br + 2, 2 * bc:2 * bc + 2]
            want = eye * (-8.0 if br == bc == 1 else 1.0)
            assert np.array_equal(block, want), (br, bc)
    # 8 * 2 ones against -8 * 2 center
    assert t.sum() == 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("ones", [False, True])
def test_template_zero_sum(k, ones):
    t = laplacian_template(k, all_ones_blocks=ones)
    assert t.shape == (3 * k, 3 * k)
    assert t.sum() == 0.0


def test_template_rejects_bad_k():
    with pytest.raises(ValueError):
        laplacian_template(0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_map_constant_is_zero(k):
    x = np.full((2, 3, 8, 8), 0.7)
    out = gradient_map(x, EdgeLossParams(kernel_scale=k)).data
    assert np.abs(out).max() <= 1e-12


def test_gradient_map_vertical_step():
    # columns 0..3 at 0, columns 4..7 at 1; replicate padding keeps every
    # row identical, so the flanking-column response holds on all rows
    x = np.zeros((1, 1, 8, 8))
    x[..., 4:] = 1.0
    out = gradient_map(x).data[0, 0]
    assert np.allclose(out[:, 3], 3.0)
    assert np.allclose(out[:, 4], -3.0)
    mask = np.ones(8, dtype=bool)
    mask[[3, 4]] = False
    assert np.abs(out[:, mask]).max() <= 1e-12


def test_gradient_map_ramp_zero_interior():
    yy, xx = np.meshgrid(np.arange(9.0), np.arange(9.0), indexing="ij")
    ramp = (0.3 * yy + 0.2 * xx + 1.0)[None, None]
    out = gradient_map(ramp).data[0, 0]
    # second differences annihilate affine fields away from the
    # replicate-padded border
    assert np.abs(out[1:-1, 1:-1]).max() <= 1e-6


def test_gradient_map_ramp_zero_interior_k2():
    yy, xx = np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij")
    ramp = (0.5 * yy - 0.25 * xx)[None, None]
    out = gradient_map(ramp, EdgeLossParams(kernel_scale=2)).data[0, 0]
    # k=2 template reaches 2 cells outward plus the block extent
    assert np.abs(out[3:-3, 3:-3]).max() <= 1e-6


def test_squash_pinned_values():
    alpha = 0.35
    g = np.array([0.0, alpha, 1e6 * alpha]).reshape(1, 1, 1, 3)
    e = squash(Tensor(g), alpha).data.ravel()
    assert abs(e[0] - 0.0) <= 1e-9
    assert abs(e[1] - 0.5) <= 1e-9
    assert e[2] > 0.999
    assert (e >= 0).all() and (e < 1).all()


def test_squash_monotone_and_norm_based():
    g = np.zeros((1, 2, 1, 2))
    g[0, :, 0, 0] = [3.0, 4.0]   # norm 5
    g[0, :, 0, 1] = [0.0, 5.0]   # norm 5 too
    e = squash(Tensor(g), 1.0).data
    assert np.allclose(e[0, 0, 0], e[0, 0, 1])
    assert np.allclose(e[0, 0, 0], 5.0 / 6.0)
    # increasing the norm increases e
    values = [squash(Tensor(np.full((1, 1, 1, 1), v)), 1.0).data.item()
              for v in (0.1, 0.5, 2.0, 10.0)]
    assert values == sorted(values)


def test_squash_gradient_matches_fd():
    r = rng(1)
    x = Tensor(r.standard_normal((1, 3, 4, 4)), requires_grad=True)
    c = Tensor(r.standard_normal((1, 4, 4)))

    def build():
        return (squash(x, 0.7) * c).sum()

    loss = build()
    backward(loss)

    def value():
        with no_grad():
            return float(build().data)
    fd = finite_difference(value, x.data, step=1e-6)
    assert max_relative_error(x.grad, fd) <= 5e-6


def test_squash_zero_point_gradient_convention():
    x = Tensor(np.zeros((1, 2, 2, 2)), requires_grad=True)
    loss = squash(x, 1.0).sum()
    backward(loss)
    # the norm kink at zero is flattened to gradient 0, not NaN
    assert np.array_equal(x.grad, np.zeros_like(x.data))


def test_edge_labels_uniform_map_no_edges():
    labels = np.full((2, 6, 6), 2, dtype=np.uint8)
    ehat, ignore = edge_labels(labels, 4)
    assert ehat.shape == (2, 6, 6)
    assert ehat.sum() == 0
    assert not ignore.any()


def test_edge_labels_two_vertical_halves():
    # classes 0 | 1 split between columns 1 and 2: per-channel step
    # responses are +-3, norm sqrt(18) > alpha=1, so exactly the two
    # center columns are edges
    labels = np.zeros((4, 4), dtype=np.uint8)
    labels[:, 2:] = 1
    ehat, ignore = edge_labels(labels, 2)
    assert ehat.shape == (4, 4)
    want = np.zeros((4, 4))
    want[:, 1:3] = 1.0
    assert np.array_equal(ehat, want)
    assert not ignore.any()


def test_edge_labels_void_band():
    labels = np.zeros((8, 8), dtype=np.uint8)
    labels[:, 4:] = 1
    labels[0, :] = 255
    ehat, ignore = edge_labels(labels, 2)
    # ceil(3k/2) = 2 rows adjacent to the void row are ignored
    assert ignore[0].all() and ignore[1].all() and ignore[2].all()
    assert not ignore[3:].any()
    # interior edges unaffected below the band
    assert np.array_equal(np.nonzero(ehat[3])[0], np.array([3, 4]))


def test_edge_bce_hand_example():
    # two pixels, reference (1, 0), prediction (0.5, 0.5), gamma=1:
    # beta=0.5, raw sum = ln 2, normalized = ln 2 / 2
    e = Tensor(np.array([0.5, 0.5]).reshape(1, 1, 2))
    ref = np.array([1.0, 0.0]).reshape(1, 1, 2)
    ignore = np.zeros((1, 1, 2), dtype=bool)
    raw = edge_bce(e, ref, ignore, EdgeLossParams(normalize=False))
    assert abs(float(raw.data) - math.log(2.0)) <= 1e-12
    norm = edge_bce(e, ref, ignore, EdgeLossParams())
    assert abs(float(norm.data) - math.log(2.0) / 2.0) <= 1e-12


def test_edge_bce_perfect_prediction_near_zero():
    ref = np.array([1.0, 0.0, 0.0, 1.0]).reshape(1, 2, 2)
    e = Tensor(ref.copy())
    ignore = np.zeros((1, 2, 2), dtype=bool)
    loss = float(edge_bce(e, ref, ignore).data)
    # clipping leaves ~eps-scale slack
    assert 0.0 <= loss <= 1e-5


def test_edge_bce_all_positive_reference_is_zero():
    ref = np.ones((1, 2, 2))
    e = Tensor(np.full((1, 2, 2), 0.5))
    ignore = np.zeros((1, 2, 2), dtype=bool)
    assert float(edge_bce(e, ref, ignore).data) == 0.0


def test_edge_bce_all_ignored_warns_and_zero():
    ref = np.ones((1, 2, 2))
    e = Tensor(np.full((1, 2, 2), 0.5))
    ignore = np.ones((1, 2, 2), dtype=bool)
    with pytest.warns(UserWarning):
        loss = edge_bce(e, ref, ignore)
    assert float(loss.data) == 0.0


def test_edge_bce_shape_mismatch():
    with pytest.raises(ValueError):
        edge_bce(Tensor(np.zeros((1, 2, 2))), np.zeros((1, 2, 3)),
                 np.zeros((1, 2, 2), dtype=bool))


def test_edge_bce_gamma_scales_positive_term():
    e = Tensor(np.array([0.5, 0.5]).reshape(1, 1, 2))
    ref = np.array([1.0, 0.0]).reshape(1, 1, 2)
    ignore = np.zeros((1, 1, 2), dtype=bool)
    base = float(edge_bce(e, ref, ignore,
                          EdgeLossParams(normalize=False)).data)
    doubled = float(edge_bce(e, ref, ignore,
                             EdgeLossParams(gamma=2.0,
                                            normalize=False)).data)
    # positive half doubles, negative half unchanged
    assert abs(doubled - 1.5 * base) <= 1e-12


def test_ce_loss_symmetric_two_class():
    logits = Tensor(np.zeros((1, 2, 1, 1)))
    labels = np.zeros((1, 1, 1), dtype=np.uint8)
    loss = float(ce_loss(logits, labels).data)
    assert abs(loss - math.log(2.0)) <= 1e-12


def test_ce_loss_perfect_prediction():
    logits = np.zeros((1, 2, 1, 1))
    logits[0, 0] = 50.0
    loss = float(ce_loss(Tensor(logits),
                         np.zeros((1, 1, 1), dtype=np.uint8)).data)
    # clipped probability keeps the loss at the eps scale
    assert 0.0 <= loss <= 2e-7


def test_ce_loss_void_pixels_masked():
    r = rng(2)
    logits = r.standard_normal((1, 3, 1, 2))
    labels = np.array([[[1, 255]]], dtype=np.uint8)
    full = float(ce_loss(Tensor(logits), labels).data)
    only = float(ce_loss(Tensor(logits[..., :1]),
                         labels[..., :1]).data)
    assert abs(full - only) <= 1e-12


def test_ce_loss_all_void_warns():
    logits = Tensor(np.zeros((1, 2, 1, 1)))
    labels = np.full((1, 1, 1), 255, dtype=np.uint8)
    with pytest.warns(UserWarning):
        loss = ce_loss(logits, labels)
    assert float(loss.data) == 0.0


def test_ce_loss_shape_mismatch():
    with pytest.raises(ValueError):
        ce_loss(Tensor(np.zeros((1, 2, 4, 4))),
                np.zeros((1, 4, 5), dtype=np.uint8))


def test_ce_loss_gradient_matches_fd():
    r = rng(3)
    logits = Tensor(r.standard_normal((1, 3, 4, 4)), requires_grad=True)
    labels = r.integers(0, 3, size=(1, 4, 4)).astype(np.uint8)
    labels[0, 0, 0] = 255

    def build():
        return ce_loss(logits, labels)

    loss = build()
    backward(loss)

    def value():
        with no_grad():
            return float(build().data)
    fd = finite_difference(value, logits.data, step=1e-6)
    assert max_relative_error(logits.grad, fd) <= 5e-6
    # void logit gradient is exactly zero
    assert np.array_equal(logits.grad[0, :, 0, 0], np.zeros(3))


def test_regularizer_kinds():
    store = ParameterStore()
    store.add("a", np.array([1.0, 2.0]))
    store.add("b", np.array([[2.0]]))
    ss = float(regularizer(store).data)
    assert abs(ss - 9.0) <= 1e-12
    l2 = float(regularizer(store, kind="l2_norm").data)
    assert abs(l2 - 3.0) <= 1e-12
    empty = regularizer(ParameterStore())
    assert float(empty.data) == 0.0


@pytest.mark.parametrize("kind", ["sum_squares", "l2_norm"])
def test_regularizer_gradient(kind):
    r = rng(8)
    store = ParameterStore()
    tracked = [store.add("a", r.standard_normal((3, 4))),
               store.add("b", r.standard_normal(5))]
    frozen = store.add("frozen", r.standard_normal((2, 2)))
    frozen.requires_grad = False
    frozen.grad = None
    backward(regularizer(store, kind))

    def value():
        with no_grad():
            return float(regularizer(store, kind).data)
    for t in tracked:
        fd = finite_difference(value, t.data, step=1e-6)
        assert max_relative_error(t.grad, fd) <= 1e-7
    assert frozen.grad is None


def test_ece_reduces_to_ce_bitwise():
    r = rng(4)
    params = EdgeLossParams(lambda_edge=0.0, lambda_reg=0.0)
    for _ in range(5):
        logits = Tensor(r.standard_normal((2, 4, 8, 8)))
        labels = r.integers(0, 4, size=(2, 8, 8)).astype(np.uint8)
        total, breakdown = ece_loss(logits, labels, params=params)
        ce = ce_loss(logits, labels)
        assert float(total.data) == float(ce.data)  # bitwise, not approx
        assert breakdown["l_edge"] == 0.0 and breakdown["reg"] == 0.0


def test_ece_breakdown_composition():
    r = rng(5)
    logits = Tensor(r.standard_normal((1, 3, 8, 8)))
    # structured labels: iid-random maps make every pixel an edge, which
    # collapses the balanced BCE to its degenerate all-positive zero
    labels = np.zeros((1, 8, 8), dtype=np.uint8)
    labels[0, :, 4:] = 1
    labels[0, 5:, :3] = 2
    store = ParameterStore()
    store.add("w", r.standard_normal((4, 4)))
    params = EdgeLossParams()
    total, b = ece_loss(logits, labels, store=store, params=params)
    want = b["l_seg"] + params.lambda_edge * b["l_edge"] \
        + params.lambda_reg * b["reg"]
    assert abs(b["total"] - want) <= 1e-9
    assert abs(float(total.data) - b["total"]) <= 1e-15
    assert b["l_edge"] > 0.0 and b["reg"] > 0.0


def test_ece_gradient_matches_fd():
    r = rng(6)
    logits = Tensor(r.standard_normal((1, 3, 6, 6)), requires_grad=True)
    labels = r.integers(0, 3, size=(1, 6, 6)).astype(np.uint8)
    labels[0, :2, :2] = 255
    params = EdgeLossParams(lambda_reg=0.0)

    def build():
        total, _ = ece_loss(logits, labels, params=params)
        return total

    loss = build()
    backward(loss)

    def value():
        with no_grad():
            return float(build().data)
    fd = finite_difference(value, logits.data, step=1e-5)
    assert max_relative_error(logits.grad, fd) <= 1e-6


def test_ece_gradient_reaches_parameters_through_regularizer():
    r = rng(7)
    store = ParameterStore()
    w = store.add("w", r.standard_normal((3, 3)))
    logits = Tensor(r.standard_normal((1, 2, 4, 4)), requires_grad=True)
    labels = r.integers(0, 2, size=(1, 4, 4)).astype(np.uint8)
    total, _ = ece_loss(logits, labels, store=store)
    backward(total, store=store)
    # d(lambda_reg * sum w^2)/dw = 2 * lambda_reg * w
    assert np.allclose(w.grad, 2 * 5e-4 * w.data, atol=1e-12)
