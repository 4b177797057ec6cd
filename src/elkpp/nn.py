"""Convolution, normalization, resampling and activation primitives.

Each primitive hands :meth:`elkpp.tensor.Tensor._node` its output and an
explicit backward rule. Spatial layout is NCHW throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, default_dtype


def effective_kernel_extent(kernel, rate):
    """Span of a kernel once its taps are spread ``rate`` apart:
    k + (k - 1)(r - 1)."""
    if kernel < 1 or rate < 1:
        raise ValueError("kernel and rate must be >= 1")
    return kernel + (kernel - 1) * (rate - 1)


@dataclass(frozen=True)
class ConvSpec:
    """Static description of one 2-D convolution."""

    kernel_h: int
    kernel_w: int
    in_channels: int
    out_channels: int
    rate_h: int = 1
    rate_w: int = 1
    stride: int = 1
    has_bias: bool = False
    padding_mode: str = "same-zero"  # or "valid"

    def __post_init__(self):
        for field in ("kernel_h", "kernel_w", "in_channels", "out_channels",
                      "rate_h", "rate_w", "stride"):
            v = getattr(self, field)
            if not isinstance(v, int) or v < 1:
                raise ValueError("%s must be a positive integer, got %r"
                                 % (field, v))
        if self.padding_mode not in ("same-zero", "valid"):
            raise ValueError("padding_mode must be 'same-zero' or 'valid'")

    @property
    def extent_h(self):
        return effective_kernel_extent(self.kernel_h, self.rate_h)

    @property
    def extent_w(self):
        return effective_kernel_extent(self.kernel_w, self.rate_w)

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels,
                self.kernel_h, self.kernel_w)

    def param_count(self):
        n = (self.out_channels * self.in_channels
             * self.kernel_h * self.kernel_w)
        if self.has_bias:
            n += self.out_channels
        return n


def _same_pad(n, stride, extent):
    # output covers ceil(n / stride) positions; pad splits front-light
    out = -(-n // stride)
    total = max((out - 1) * stride + extent - n, 0)
    beg = total // 2
    return out, beg, total - beg


def dilated_conv2d(x, spec, weights, bias=None):
    """2-D convolution with independent dilation rates per axis.

    Output position (i, j) of channel o is
    sum_c sum_{u,v} w[o,c,u,v] * x[c, i*s + u*rate_h - pad, j*s + v*rate_w - pad]
    with zeros outside the padded input.

    Lowered to one matmul per tap over the flattened padded input: output
    m = i*Wp + j of tap (u, v) reads flat element u*rate_h*Wp + v*rate_w
    + s*m, so each tap's operand is a strided slice and no column matrix
    is built. The columns j >= OW of each output row are computed and
    cropped; spare bottom rows keep every tap's slice in range.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.data.ndim != 4:
        raise ValueError("conv input must be NCHW, got %s" % (x.data.shape,))
    n, c, h, w = x.data.shape
    if c != spec.in_channels:
        raise ValueError("expected %d input channels, got %d"
                         % (spec.in_channels, c))
    if weights.data.shape != spec.weight_shape:
        raise ValueError("weights shape %s does not match spec %s"
                         % (weights.data.shape, spec.weight_shape))
    if spec.has_bias != (bias is not None):
        raise ValueError("bias presence does not match spec.has_bias")

    kh, kw = spec.kernel_h, spec.kernel_w
    rh, rw, s = spec.rate_h, spec.rate_w, spec.stride
    eh, ew = spec.extent_h, spec.extent_w
    if spec.padding_mode == "same-zero":
        oh, pt, pb = _same_pad(h, s, eh)
        ow, pl, pr = _same_pad(w, s, ew)
    else:
        oh = (h - eh) // s + 1
        ow = (w - ew) // s + 1
        if oh < 1 or ow < 1:
            raise ValueError("valid padding gives nonpositive output for "
                             "input %dx%d, extent %dx%d" % (h, w, eh, ew))
        pt = pb = pl = pr = 0

    wp = w + pl + pr
    length = oh * wp
    span = s * (length - 1) + 1
    offsets = [(u, v, u * rh * wp + v * rw)
               for u in range(kh) for v in range(kw)]
    hp = max(h + pt + pb, -(-(offsets[-1][2] + span) // wp))
    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, hp - h - pt), (pl, pr)))
    xf = xp.reshape(n, c, hp * wp)
    wd = weights.data
    acc = np.zeros((n, spec.out_channels, length), dtype=x.data.dtype)
    for u, v, off in offsets:
        acc += wd[:, :, u, v] @ xf[:, :, off: off + span: s]
    out_data = np.ascontiguousarray(
        acc.reshape(n, -1, oh, wp)[:, :, :, :ow])
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1)

    def rule(grad):
        g = np.zeros((n, spec.out_channels, length), dtype=grad.dtype)
        g.reshape(n, -1, oh, wp)[:, :, :, :ow] = grad
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            gxf = gxp.reshape(n, c, hp * wp)
        if weights.requires_grad:
            gw = np.empty_like(wd)
        for u, v, off in offsets:
            sl = slice(off, off + span, s)
            if weights.requires_grad:
                gw[:, :, u, v] = (
                    g @ xf[:, :, sl].transpose(0, 2, 1)).sum(axis=0)
            if x.requires_grad:
                gxf[:, :, sl] += wd[:, :, u, v].T @ g
        if weights.requires_grad:
            weights._accum(gw)
        if x.requires_grad:
            gx = gxp[:, :, pt: pt + h, pl: pl + w]
            x._accum(np.ascontiguousarray(gx))
        if bias is not None and bias.requires_grad:
            bias._accum(grad.sum(axis=(0, 2, 3)))

    parents = (x, weights) if bias is None else (x, weights, bias)
    return Tensor._node(out_data, parents, rule, "conv2d")


def pad_replicate(x, top, bottom, left, right):
    """Edge-replicating spatial padding; gradient folds back onto edges."""
    if min(top, bottom, left, right) < 0:
        raise ValueError("pad amounts must be nonnegative")
    n, c, h, w = x.data.shape
    out_data = np.pad(x.data, ((0, 0), (0, 0), (top, bottom), (left, right)),
                      mode="edge")

    def rule(g):
        # collapse replicated rows/cols back onto the border pixels
        if h == 1:
            gh = g.sum(axis=2, keepdims=True)
        else:
            gh = np.zeros((n, c, h, g.shape[3]), dtype=g.dtype)
            gh[:, :, 0] = g[:, :, :top + 1].sum(axis=2)
            gh[:, :, h - 1] += g[:, :, top + h - 1:].sum(axis=2)
            gh[:, :, 1:h - 1] += g[:, :, top + 1: top + h - 1]
        if w == 1:
            gx = gh.sum(axis=3, keepdims=True)
        else:
            gx = np.zeros((n, c, h, w), dtype=g.dtype)
            gx[:, :, :, 0] = gh[:, :, :, :left + 1].sum(axis=3)
            gx[:, :, :, w - 1] += gh[:, :, :, left + w - 1:].sum(axis=3)
            gx[:, :, :, 1:w - 1] += gh[:, :, :, left + 1: left + w - 1]
        x._accum(np.ascontiguousarray(gx))

    return Tensor._node(out_data, (x,), rule, "pad_replicate")


def batch_norm(x, scale, shift, running_mean, running_var, training,
               momentum=0.9, eps=1e-5):
    """Per-channel batch normalization over (N, H, W).

    Training mode uses biased batch statistics and updates the running
    buffers in place: running = momentum * running + (1 - momentum) * batch.
    Inference mode normalizes with the running buffers.
    """
    n, c, h, w = x.data.shape
    m = n * h * w
    if m == 0:
        raise ValueError("batch norm needs a nonempty batch")
    axes = (0, 2, 3)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)  # biased
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mu = running_mean
        var = running_var
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(1, c, 1, 1)) * ivar.reshape(1, c, 1, 1)
    out_data = scale.data.reshape(1, c, 1, 1) * xhat \
        + shift.data.reshape(1, c, 1, 1)

    def rule(g):
        if scale.requires_grad:
            scale._accum((g * xhat).sum(axis=axes))
        if shift.requires_grad:
            shift._accum(g.sum(axis=axes))
        if x.requires_grad:
            sc_iv = (scale.data * ivar).reshape(1, c, 1, 1)
            if training:
                gs = g.sum(axis=axes).reshape(1, c, 1, 1)
                gxs = (g * xhat).sum(axis=axes).reshape(1, c, 1, 1)
                x._accum(sc_iv / m * (m * g - gs - xhat * gxs))
            else:
                x._accum(sc_iv * g)

    return Tensor._node(out_data, (x, scale, shift), rule, "batch_norm")


def global_avg_pool(x):
    """Spatial mean, keeping N x C x 1 x 1."""
    return x.mean(axes=(2, 3), keepdims=True)


def _resize_axis_matrix(n_in, n_out, dtype):
    # half-pixel-center sampling: src = (i + 0.5) * (n_in / n_out) - 0.5
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    f = src - i0
    mat = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    np.add.at(mat, (rows, i0), (1.0 - f).astype(dtype))
    np.add.at(mat, (rows, i1), f.astype(dtype))
    return mat


def bilinear_resize(x, out_h, out_w):
    """Separable bilinear resampling with half-pixel centers.

    Same-size calls are the exact identity; upsampling a 1x1 map
    replicates its value.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError("target size must be positive")
    n, c, h, w = x.data.shape
    ry = _resize_axis_matrix(h, out_h, x.data.dtype)
    rx = _resize_axis_matrix(w, out_w, x.data.dtype)
    out_data = np.einsum("oh,nchw,pw->ncop", ry, x.data, rx, optimize=True)

    def rule(g):
        gx = np.einsum("oh,ncop,pw->nchw", ry, g, rx, optimize=True)
        x._accum(np.ascontiguousarray(gx))

    return Tensor._node(np.ascontiguousarray(out_data), (x,), rule,
                        "bilinear_resize")


def _shifted_taps(n_in, n_out, dtype):
    # [R_0 | R_1 | R_2] with R_u[i] = R[i + u - 1] for the resize matrix R,
    # and a zero row where i + u - 1 falls outside it: the conv's padding
    rp = np.pad(_resize_axis_matrix(n_in, n_out, dtype), ((1, 1), (0, 0)))
    return np.concatenate([rp[u: u + n_out] for u in range(3)], axis=1)


def resize_conv3x3(x, weights, out_h, out_w):
    """``dilated_conv2d(bilinear_resize(x, out_h, out_w), 3x3 same-zero)``
    with the convolution's work done at the extent of ``x``.

    Both ops are linear, so the output of channel o is
    sum_{u,v} Ry_u (W[o, :, u, v] . x) Rx_v^T, where Ry_u and Rx_v are the
    resize matrices shifted by tap (u, v). One matmul makes the 9 tap
    products at the input extent; one matmul per axis, contracting taps
    and input extent together, resizes and sums them.
    """
    n, c, h, w = x.data.shape
    o = weights.data.shape[0]
    if weights.data.shape != (o, c, 3, 3):
        raise ValueError("weights shape %s is not (O, %d, 3, 3)"
                         % (weights.data.shape, c))
    ry = _shifted_taps(h, out_h, x.data.dtype)        # out_h x 3h
    rx = _shifted_taps(w, out_w, x.data.dtype).T      # 3w x out_w
    wm = weights.data.transpose(0, 2, 3, 1).reshape(o * 9, c)
    xf = x.data.reshape(n, c, h * w)
    taps = (wm @ xf).reshape(n, o, 3, 3, h, w).transpose(0, 1, 2, 4, 3, 5)
    cols = taps.reshape(n * o * 3 * h, 3 * w) @ rx
    out_data = ry @ cols.reshape(n, o, 3 * h, out_w)

    def rule(g):
        gcols = (ry.T @ g).reshape(n * o * 3 * h, out_w)
        gtaps = (gcols @ rx.T).reshape(n, o, 3, h, 3, w) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(n, o * 9, h * w)
        if weights.requires_grad:
            gw = (gtaps @ xf.transpose(0, 2, 1)).sum(axis=0)
            weights._accum(gw.reshape(o, 3, 3, c).transpose(0, 3, 1, 2))
        if x.requires_grad:
            x._accum((wm.T @ gtaps).reshape(n, c, h, w))

    return Tensor._node(out_data, (x, weights), rule, "conv2d")


def sigmoid(x):
    t = np.exp(-np.abs(x.data))
    out_data = np.where(x.data >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    return Tensor._node(
        out_data, (x,), lambda g: x._accum(g * out_data * (1.0 - out_data)),
        "sigmoid")


def softmax(x, axis=1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accum(out_data * (g - dot))

    return Tensor._node(out_data, (x,), rule, "softmax")


# -- layers ---------------------------------------------------------------


def kaiming_normal(rng, shape, fan_in):
    """He initialization for relu fan-in."""
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(default_dtype())


class Conv2d:
    """Convolution layer owning its weights inside a parameter store."""

    def __init__(self, store, rng, name, spec):
        self.name = name
        self.spec = spec
        fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
        self.weight = store.add(name + ".weight",
                                kaiming_normal(rng, spec.weight_shape, fan_in))
        self.bias = None
        if spec.has_bias:
            self.bias = store.add(
                name + ".bias",
                np.zeros(spec.out_channels, dtype=default_dtype()))

    def __call__(self, x):
        return dilated_conv2d(x, self.spec, self.weight, self.bias)


class BatchNorm2d:
    """Batch norm layer; running statistics live in the buffers dict."""

    def __init__(self, store, buffers, name, channels,
                 momentum=0.9, eps=1e-5):
        self.name = name
        self.momentum = momentum
        self.eps = eps
        dtype = default_dtype()
        self.scale = store.add(name + ".scale", np.ones(channels, dtype=dtype))
        self.shift = store.add(name + ".shift", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        buffers[name + ".running_mean"] = self.running_mean
        buffers[name + ".running_var"] = self.running_var

    def __call__(self, x, training):
        return batch_norm(x, self.scale, self.shift, self.running_mean,
                          self.running_var, training,
                          momentum=self.momentum, eps=self.eps)


class ConvBnRelu:
    """conv -> batch norm -> relu; convolution carries no bias."""

    def __init__(self, store, buffers, rng, name, spec, relu=True):
        if spec.has_bias:
            raise ValueError("bias is redundant in front of batch norm")
        self.conv = Conv2d(store, rng, name, spec)
        self.bn = BatchNorm2d(store, buffers, name + ".bn", spec.out_channels)
        self.relu = relu

    def __call__(self, x, training):
        y = self.bn(self.conv(x), training)
        return y.relu() if self.relu else y
