"""Edge-aware cross-entropy: segmentation CE plus a boundary term.

The boundary term runs the class probabilities through a zero-sum
Laplacian block template (depthwise, replicate-padded), collapses the
per-class responses to an edge probability with a squash, and scores it
against edge labels derived from the reference map with a class-balanced
binary cross-entropy. Everything on the prediction side stays on the
tape, so the loss is differentiable end to end.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import one_hot
from .metrics import VOID_LABEL, chebyshev_dilate
from .nn import ConvSpec, dilated_conv2d, pad_replicate, sigmoid, softmax
from .tensor import Tensor, no_grad


@dataclass(frozen=True)
class EdgeLossParams:
    """Knobs of the combined loss."""

    kernel_scale: int = 1       # template extent is 3 * kernel_scale
    alpha: float = 1.0          # squash knee: response alpha maps to 0.5
    gamma: float = 1.0          # extra weight on positive edge pixels
    lambda_edge: float = 0.5
    lambda_reg: float = 5e-4
    eps: float = 1e-7           # probability clip
    normalize: bool = True      # divide each sum by its pixel count
    all_ones_blocks: bool = False  # ones blocks instead of identity blocks
    reg_kind: str = "sum_squares"  # or "l2_norm"

    def __post_init__(self):
        if self.kernel_scale < 1:
            raise ValueError("kernel_scale must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 0.5)")
        if self.reg_kind not in ("sum_squares", "l2_norm"):
            raise ValueError("reg_kind must be 'sum_squares' or 'l2_norm'")


def laplacian_template(k, all_ones_blocks=False):
    """3k x 3k zero-sum template of k x k blocks: eight surround blocks
    against a -8-weighted center block."""
    if k < 1:
        raise ValueError("k must be >= 1")
    block = np.ones((k, k)) if all_ones_blocks else np.eye(k)
    rows = []
    for br in range(3):
        cols = []
        for bc in range(3):
            cols.append(block * (-8.0 if br == bc == 1 else 1.0))
        rows.append(cols)
    return np.block(rows)


def gradient_map(prob_map, params=EdgeLossParams()):
    """Depthwise convolution of a probability map with the Laplacian
    template, replicate padding, output extent unchanged."""
    if not isinstance(prob_map, Tensor):
        prob_map = Tensor(prob_map)
    n, c, h, w = prob_map.data.shape
    k = params.kernel_scale
    extent = 3 * k
    template = laplacian_template(k, params.all_ones_blocks)
    weight = Tensor(template.reshape(1, 1, extent, extent))
    pb = (extent - 1) // 2
    pe = extent - 1 - pb
    spec = ConvSpec(extent, extent, 1, 1, padding_mode="valid")
    x = prob_map.reshape(n * c, 1, h, w)
    x = pad_replicate(x, pb, pe, pb, pe)
    y = dilated_conv2d(x, spec, weight)
    return y.reshape(n, c, h, w)


def squash(grad_map, alpha=1.0):
    """Edge probability e = |g| / (|g| + alpha) per pixel, where |g| is
    the L2 norm over the class axis. Collapses N x C x H x W to N x H x W.

    The gradient convention at |g| = 0 is 0 (the kink of the norm is
    flattened), which keeps saturated regions silent instead of NaN.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = grad_map
    if not isinstance(x, Tensor):
        x = Tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=1))
    out_data = norm / (norm + alpha)

    def rule(g):
        # de/dg_c = alpha / (|g| + alpha)^2 * g_c / |g|
        coef = g * (alpha / np.square(norm + alpha))
        safe = np.zeros_like(norm)
        np.divide(coef, norm, out=safe, where=norm > 0)
        x._accum(safe[:, None] * x.data)

    return Tensor._node(out_data, (x,), rule, "squash")


def edge_labels(labels, num_classes, params=EdgeLossParams(), void=VOID_LABEL):
    """Reference edge map: one-hot (void zeroed) -> gradient_map -> squash
    -> threshold 0.5. Pixels within Chebyshev distance ceil(3k/2) of any
    void pixel are flagged ignore.

    Returns (edge_map float {0, 1}, ignore bool), both N x H x W.
    """
    labels = np.asarray(labels)
    squeeze = labels.ndim == 2
    if squeeze:
        labels = labels[None]
    with no_grad():
        oh = one_hot(labels, num_classes, void=void)
        g = gradient_map(Tensor(oh), params)
        e = squash(g, params.alpha).data
    ehat = (e > 0.5).astype(oh.dtype)
    band = (3 * params.kernel_scale + 1) // 2  # ceil(3k / 2)
    ignore = chebyshev_dilate(labels == void, band)
    if squeeze:
        return ehat[0], ignore[0]
    return ehat, ignore


def edge_bce(edge_map, edge_ref, ignore, params=EdgeLossParams()):
    """Class-balanced binary cross-entropy between a predicted edge map
    and binary reference edges, skipping ignored pixels.

    beta is the non-edge fraction of the counted pixels; positives get
    weight gamma * beta, negatives (1 - beta).
    """
    e = edge_map if isinstance(edge_map, Tensor) else Tensor(edge_map)
    ref = np.asarray(edge_ref, dtype=e.data.dtype)
    valid = ~np.asarray(ignore, dtype=bool)
    if ref.shape != e.data.shape or valid.shape != e.data.shape:
        raise ValueError("edge map, reference and ignore shapes must match")
    n_pos = int((valid & (ref == 1)).sum())
    n_neg = int((valid & (ref == 0)).sum())
    count = n_pos + n_neg
    if count == 0:
        warnings.warn("edge loss saw zero non-ignored pixels")
        return Tensor(0.0)
    beta = n_neg / count
    vf = valid.astype(e.data.dtype)
    w_pos = params.gamma * beta * ref * vf
    w_neg = (1.0 - beta) * (1.0 - ref) * vf
    eps = params.eps
    log_e = e.clip(eps, 1.0 - eps).log()
    log_ne = (1.0 - e).clip(eps, 1.0 - eps).log()
    total = (Tensor(w_pos) * log_e).sum() + (Tensor(w_neg) * log_ne).sum()
    loss = -total
    if params.normalize:
        loss = loss * (1.0 / count)
    return loss


def ce_loss(logits, labels, void=VOID_LABEL, eps=1e-7, normalize=True):
    """Cross-entropy over non-void pixels from raw logits.

    Probabilities come from a softmax over the class axis and are clipped
    to [eps, 1-eps] before the log. Void pixels contribute exactly zero.
    """
    if not isinstance(logits, Tensor):
        logits = Tensor(logits)
    labels = np.asarray(labels)
    num_classes = logits.data.shape[1]
    if labels.shape != (logits.data.shape[0],) + logits.data.shape[2:]:
        raise ValueError("label shape %s does not match logits %s"
                         % (labels.shape, logits.data.shape))
    oh = one_hot(labels, num_classes, void=void)
    n_valid = int((labels != void).sum())
    if n_valid == 0:
        warnings.warn("cross-entropy saw only void pixels")
        return Tensor(0.0)
    p = softmax(logits, axis=1).clip(eps, 1.0 - eps)
    picked = (Tensor(oh) * p.log()).sum()
    loss = -picked
    if normalize:
        loss = loss * (1.0 / n_valid)
    return loss


def regularizer(store, kind="sum_squares"):
    """Weight penalty over every parameter in the store: the sum of
    squares, or its square root when kind is 'l2_norm'.

    The sum of squares is one tape node. It accumulates in store order
    and in the parameter dtype; its backward adds 2 g w to each tensor.
    """
    params = tuple(store.tensors())
    if not params:
        return Tensor(0.0)
    total = np.zeros((), dtype=params[0].data.dtype)
    for t in params:
        total = total + np.vdot(t.data, t.data)

    def rule(g):
        for t in params:
            if t.requires_grad:
                t._accum((2 * g) * t.data)

    out = Tensor._node(np.asarray(total), params, rule, "sum_squares")
    return out.sqrt() if kind == "l2_norm" else out


def ece_loss(logits, labels, store=None, params=EdgeLossParams(),
             void=VOID_LABEL):
    """Combined objective: l_seg + lambda_edge * l_edge + lambda_reg * R.

    Returns (total, breakdown). The breakdown holds the detached float
    value of each term. Terms with a zero coefficient are skipped
    entirely, so a zero lambda_edge run is bit-identical to plain
    cross-entropy plus regularizer.
    """
    if not isinstance(logits, Tensor):
        logits = Tensor(logits)
    labels = np.asarray(labels)
    num_classes = logits.data.shape[1]
    l_seg = ce_loss(logits, labels, void=void, eps=params.eps,
                    normalize=params.normalize)
    total = l_seg
    breakdown = {"l_seg": float(l_seg.data), "l_edge": 0.0, "reg": 0.0}

    if params.lambda_edge != 0.0:
        ref, ignore = edge_labels(labels, num_classes, params, void=void)
        probs = sigmoid(logits)
        e = squash(gradient_map(probs, params), params.alpha)
        l_edge = edge_bce(e, ref, ignore, params)
        breakdown["l_edge"] = float(l_edge.data)
        total = total + params.lambda_edge * l_edge

    if params.lambda_reg != 0.0 and store is not None and len(store):
        reg = regularizer(store, params.reg_kind)
        breakdown["reg"] = float(reg.data)
        total = total + params.lambda_reg * reg

    breakdown["total"] = float(total.data)
    return total, breakdown
