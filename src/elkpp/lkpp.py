"""Large-kernel pyramid pooling built from hybrid asymmetric dilated pairs.

A pair (k1, k2) at rate r is realized as a k1 x k2 convolution followed by
(or parallel to) its transpose k2 x k1, with the dilation rate applied
along the longer kernel axis only. The symmetric (3, 3) pair collapses to
a single 3 x 3 convolution dilated on both axes. A block chains the pair
at rates 1, 2, 3; the pyramid runs three blocks next to a 1 x 1 skip and
a global-pooling branch and concatenates all five.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import rf
from .nn import Conv2d, ConvSpec, ConvBnRelu, BatchNorm2d, bilinear_resize, \
    global_avg_pool
from .tensor import concat

BLOCK_RATES = (1, 2, 3)


@dataclass(frozen=True)
class HadcPairSpec:
    """An asymmetric kernel pair at one dilation rate."""

    kernel_a: int
    kernel_b: int
    rate: int

    def __post_init__(self):
        if not rf.hadc_pair_valid(self.kernel_a, self.kernel_b):
            raise ValueError("kernel pair (%d, %d) is not admissible"
                             % (self.kernel_a, self.kernel_b))
        if self.rate < 1:
            raise ValueError("rate must be >= 1")

    @property
    def symmetric(self):
        return self.kernel_a == self.kernel_b

    def conv_layers(self):
        """ChainLayers of the realized convolutions, rate on the long axis."""
        a, b, r = self.kernel_a, self.kernel_b, self.rate
        if self.symmetric:
            return (rf.ChainLayer(a, b, r, r),)
        if a >= b:
            first = rf.ChainLayer(a, b, r, 1)
            second = rf.ChainLayer(b, a, 1, r)
        else:
            first = rf.ChainLayer(a, b, 1, r)
            second = rf.ChainLayer(b, a, r, 1)
        return (first, second)


@dataclass(frozen=True)
class HadcBlockSpec:
    """Three rate-scheduled pairs plus the merge mode and channel width."""

    pairs: tuple
    channels: int
    mode: str = "cascade"  # or "parallel"

    def __post_init__(self):
        if len(self.pairs) != len(BLOCK_RATES) or tuple(
                p.rate for p in self.pairs) != BLOCK_RATES:
            raise ValueError("a block needs pairs at rates %s in order"
                             % (BLOCK_RATES,))
        if self.mode not in ("cascade", "parallel"):
            raise ValueError("mode must be 'cascade' or 'parallel'")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")

    @classmethod
    def from_kernels(cls, k1, k2, channels, mode="cascade"):
        pairs = tuple(HadcPairSpec(k1, k2, r) for r in BLOCK_RATES)
        return cls(pairs, channels, mode)


def equivalent_chain(block_spec):
    """Footprint-analysis chain of a cascade block: every convolution the
    input passes through, in order."""
    if block_spec.mode != "cascade":
        raise ValueError("only cascade blocks flatten to a single chain")
    layers = []
    for pair in block_spec.pairs:
        layers.extend(pair.conv_layers())
    return rf.layer_chain(layers)


def block_footprint(block_spec):
    """Exact input footprint of a block in either merge mode.

    Cascade composes all convolutions; parallel takes the union of the
    two branch grids per pair, then composes pairs.
    """
    if block_spec.mode == "cascade":
        return rf.footprint_oracle(equivalent_chain(block_spec))
    pts = {(0, 0)}
    for pair in block_spec.pairs:
        grids = [rf.offset_grid(l) for l in pair.conv_layers()]
        union = set().union(*grids)
        pts = rf.minkowski_add(pts, union)
    return rf.points_to_footprint(pts)


def auto_width(in_channels):
    """Branch width of a pyramid over ``in_channels`` when none is given."""
    return max(in_channels // 4, 8)


def default_block_specs(channels, mode="cascade"):
    return tuple(HadcBlockSpec.from_kernels(k1, k2, channels, mode)
                 for (k1, k2) in ((3, 3), (3, 5), (3, 7)))


@dataclass(frozen=True)
class LkppConfig:
    """Pyramid layout: three blocks plus skip and global branch widths."""

    blocks: tuple
    skip_channels: int
    global_channels: int

    def __post_init__(self):
        if len(self.blocks) != 3:
            raise ValueError("the pyramid uses exactly three blocks")
        if self.skip_channels < 1 or self.global_channels < 1:
            raise ValueError("branch widths must be >= 1")

    @property
    def out_channels(self):
        return (self.skip_channels + self.global_channels
                + sum(b.channels for b in self.blocks))

    @classmethod
    def default_for(cls, in_channels, mode="cascade"):
        width = auto_width(in_channels)
        return cls(default_block_specs(width, mode), width, width)


class HadcPair:
    """Realized pair; cascade normalizes after each convolution, parallel
    sums both branches before one shared normalization."""

    def __init__(self, store, buffers, rng, name, in_channels, pair_spec,
                 out_channels, mode):
        self.spec = pair_spec
        self.mode = mode
        layers = pair_spec.conv_layers()
        if mode == "cascade":
            self.stages = []
            ch = in_channels
            for i, l in enumerate(layers):
                spec = ConvSpec(l.kernel_h, l.kernel_w, ch, out_channels,
                                rate_h=l.rate_h, rate_w=l.rate_w)
                self.stages.append(ConvBnRelu(store, buffers, rng,
                                              "%s.conv%d" % (name, i), spec))
                ch = out_channels
        else:
            self.branches = []
            for i, l in enumerate(layers):
                spec = ConvSpec(l.kernel_h, l.kernel_w, in_channels,
                                out_channels, rate_h=l.rate_h, rate_w=l.rate_w)
                self.branches.append(Conv2d(store, rng,
                                            "%s.branch%d" % (name, i), spec))
            self.bn = BatchNorm2d(store, buffers, name + ".bn", out_channels)

    def __call__(self, x, training):
        if self.mode == "cascade":
            for stage in self.stages:
                x = stage(x, training)
            return x
        y = self.branches[0](x)
        for br in self.branches[1:]:
            y = y + br(x)
        return self.bn(y, training).relu()


class HadcBlock:
    def __init__(self, store, buffers, rng, name, in_channels, block_spec):
        self.spec = block_spec
        self.pairs = []
        ch = in_channels
        for i, pair in enumerate(block_spec.pairs):
            self.pairs.append(HadcPair(store, buffers, rng,
                                       "%s.rate%d" % (name, pair.rate),
                                       ch, pair, block_spec.channels,
                                       block_spec.mode))
            ch = block_spec.channels

    def __call__(self, x, training):
        for pair in self.pairs:
            x = pair(x, training)
        return x


class Lkpp:
    """Five-branch pyramid over the deepest encoder feature map."""

    def __init__(self, store, buffers, rng, name, in_channels, cfg):
        self.cfg = cfg
        self.skip = ConvBnRelu(
            store, buffers, rng, name + ".skip",
            ConvSpec(1, 1, in_channels, cfg.skip_channels))
        self.blocks = [
            HadcBlock(store, buffers, rng, "%s.block%d" % (name, i),
                      in_channels, b)
            for i, b in enumerate(cfg.blocks)]
        # global context: pool, project, normalize, broadcast back; the
        # broadcast stays linear (no relu) so a constant map passes through
        self.global_conv = Conv2d(
            store, rng, name + ".global",
            ConvSpec(1, 1, in_channels, cfg.global_channels))
        self.global_bn = BatchNorm2d(store, buffers, name + ".global.bn",
                                     cfg.global_channels)

    def __call__(self, x, training):
        n, c, h, w = x.data.shape
        outs = [self.skip(x, training)]
        outs.extend(block(x, training) for block in self.blocks)
        g = global_avg_pool(x)
        g = self.global_conv(g)
        g = self.global_bn(g, training)
        outs.append(bilinear_resize(g, h, w))
        return concat(outs, axis=1)

    @property
    def out_channels(self):
        return self.cfg.out_channels
