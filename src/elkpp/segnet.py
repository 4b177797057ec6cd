"""Balanced encoder-decoder segmentation network.

The encoder is a small residual backbone producing features at 1/4, 1/8,
1/16 and 1/32 of the input extent. The pyramid sits on the deepest map.
The decoder mirrors the encoder depth: three stages of 2x bilinear
upsampling, each fusing a transferred skip connection, and ends at 1/4
of the input extent. The head resizes that map 4x to the input extent
and convolves it in one op, then classifies each pixel.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .lkpp import Lkpp, LkppConfig
from .nn import Conv2d, ConvSpec, ConvBnRelu, bilinear_resize, \
    resize_conv3x3
from .tensor import ParameterStore, Tensor, concat, no_grad


def _libc_malloc_trim():
    # glibc's malloc_trim, or None where the C library has none
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _libc_malloc_trim()


@dataclass(frozen=True)
class BackboneConfig:
    stem_channels: int = 16
    stage_channels: tuple = (16, 32, 64, 128)
    stage_blocks: tuple = (1, 1, 1, 1)

    def __post_init__(self):
        if len(self.stage_channels) != 4 or len(self.stage_blocks) != 4:
            raise ValueError("the backbone uses exactly four stages")
        if any(b < 1 for b in self.stage_blocks):
            raise ValueError("each stage needs at least one block")


@dataclass(frozen=True)
class DecoderConfig:
    stage_channels: tuple = (128, 64, 32)

    def __post_init__(self):
        if len(self.stage_channels) != 3:
            raise ValueError("the decoder uses exactly three stages")


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    input_channels: int = 3
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    lkpp: LkppConfig = None
    head_channels: int = 32

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.lkpp is None:
            top = self.backbone.stage_channels[-1]
            object.__setattr__(self, "lkpp", LkppConfig.default_for(top))


class ResidualBlock:
    """Two 3x3 convolutions with a shortcut; the shortcut projects through
    a 1x1 convolution whenever stride or width changes."""

    def __init__(self, store, buffers, rng, name, in_channels, out_channels,
                 stride):
        self.conv1 = ConvBnRelu(
            store, buffers, rng, name + ".conv1",
            ConvSpec(3, 3, in_channels, out_channels, stride=stride))
        self.conv2 = ConvBnRelu(
            store, buffers, rng, name + ".conv2",
            ConvSpec(3, 3, out_channels, out_channels), relu=False)
        self.project = None
        if stride != 1 or in_channels != out_channels:
            self.project = ConvBnRelu(
                store, buffers, rng, name + ".project",
                ConvSpec(1, 1, in_channels, out_channels, stride=stride),
                relu=False)

    def __call__(self, x, training):
        y = self.conv2(self.conv1(x, training), training)
        shortcut = self.project(x, training) if self.project else x
        return (y + shortcut).relu()


class Encoder:
    def __init__(self, store, buffers, rng, cfg, in_channels):
        self.stem = ConvBnRelu(
            store, buffers, rng, "encoder.stem",
            ConvSpec(3, 3, in_channels, cfg.stem_channels, stride=2))
        self.stages = []
        ch = cfg.stem_channels
        for si, (width, blocks) in enumerate(
                zip(cfg.stage_channels, cfg.stage_blocks)):
            stage = []
            for bi in range(blocks):
                stage.append(ResidualBlock(
                    store, buffers, rng,
                    "encoder.stage%d.block%d" % (si, bi),
                    ch, width, stride=2 if bi == 0 else 1))
                ch = width
            self.stages.append(stage)

    def __call__(self, x, training):
        """Returns the four stage outputs, shallow to deep."""
        y = self.stem(x, training)
        feats = []
        for stage in self.stages:
            for block in stage:
                y = block(y, training)
            feats.append(y)
        return feats


class Decoder:
    """Three upsample-fuse-convolve stages; the output has the extent of
    the shallowest skip."""

    def __init__(self, store, buffers, rng, cfg, in_channels, skip_channels):
        # skips arrive deepest first (1/16, 1/8, 1/4)
        self.transfers = []
        self.convs = []
        ch = in_channels
        for i, width in enumerate(cfg.stage_channels):
            self.transfers.append(ConvBnRelu(
                store, buffers, rng, "decoder.transfer%d" % i,
                ConvSpec(1, 1, skip_channels[i], width)))
            self.convs.append(ConvBnRelu(
                store, buffers, rng, "decoder.stage%d" % i,
                ConvSpec(3, 3, ch + width, width)))
            ch = width
        self.out_channels = ch

    def __call__(self, x, skips, training):
        for transfer, conv, skip in zip(self.transfers, self.convs, skips):
            s = transfer(skip, training)
            x = bilinear_resize(x, s.data.shape[2], s.data.shape[3])
            x = conv(concat([x, s], axis=1), training)
        return x


class Head(ConvBnRelu):
    """Bilinear resize to ``out_hw``, then 3x3 conv, batch norm and relu.
    The resize and the conv run as one op, whose tap products stay at the
    extent of the decoder's map."""

    def __call__(self, x, out_hw, training):
        y = resize_conv3x3(x, self.conv.weight, out_hw[0], out_hw[1])
        return self.bn(y, training).relu()


class ElkppNet:
    """Encoder, pyramid, decoder and classifier head in one trainable unit."""

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        self.store = ParameterStore()
        self.buffers = {}
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 0])))
        bb = cfg.backbone
        self.encoder = Encoder(self.store, self.buffers, rng, bb,
                               cfg.input_channels)
        self.lkpp = Lkpp(self.store, self.buffers, rng, "lkpp",
                         bb.stage_channels[-1], cfg.lkpp)
        skip_chs = (bb.stage_channels[2], bb.stage_channels[1],
                    bb.stage_channels[0])
        self.decoder = Decoder(self.store, self.buffers, rng, cfg.decoder,
                               self.lkpp.out_channels, skip_chs)
        self.head = Head(
            self.store, self.buffers, rng, "head.conv",
            ConvSpec(3, 3, self.decoder.out_channels, cfg.head_channels))
        self.classifier = Conv2d(
            self.store, rng, "head.classifier",
            ConvSpec(1, 1, cfg.head_channels, cfg.num_classes, has_bias=True))

    def forward(self, x, training=True):
        """Images NCHW in, per-class logits at input extent out."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        h, w = x.data.shape[2], x.data.shape[3]
        feats = self.encoder(x, training)
        y = self.lkpp(feats[3], training)
        y = self.decoder(y, [feats[2], feats[1], feats[0]], training)
        y = self.head(y, (h, w), training)
        return self.classifier(y)

    def predict(self, x):
        """Hard labels via argmax over the class axis, no graph recorded.

        Under glibc the C heap is trimmed before returning. Whether glibc
        hands the freed full-extent activations back to the system
        otherwise depends on where unrelated small allocations happened
        to land, so the memory left resident after a batch, and the
        page faults of whatever runs next, would vary from call to call.
        """
        with no_grad():
            logits = self.forward(x, training=False).data
        preds = np.argmax(logits, axis=1).astype(np.int64)
        del logits
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)
        return preds

    def param_count(self):
        return self.store.num_scalars()
