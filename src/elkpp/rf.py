"""Receptive-field calculus for stacks of dilated convolutions.

Two independent routes compute the set of input pixels a single output
position reads through a stride-1 convolution chain:

* :func:`footprint_oracle` propagates a boolean dependency mask layer by
  layer (brute force, no closed form),
* :func:`footprint_minkowski` folds the per-layer tap-offset grids with
  exact integer set arithmetic.

They must agree exactly; tests rely on that redundancy. Gridding means
the footprint has holes strictly inside its bounding box.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChainLayer:
    """One stride-1 convolution inside an analysis chain."""

    kernel_h: int
    kernel_w: int
    rate_h: int = 1
    rate_w: int = 1

    def __post_init__(self):
        for f in ("kernel_h", "kernel_w", "rate_h", "rate_w"):
            v = getattr(self, f)
            if not isinstance(v, int) or v < 1:
                raise ValueError("%s must be a positive integer" % f)


def layer_chain(entries):
    """Normalize a chain description: ChainLayer items pass through,
    tuples are (kernel_h, kernel_w[, rate_h[, rate_w]])."""
    chain = []
    for e in entries:
        if isinstance(e, ChainLayer):
            chain.append(e)
        else:
            e = tuple(e)
            if len(e) == 2:
                chain.append(ChainLayer(e[0], e[1]))
            elif len(e) == 3:
                chain.append(ChainLayer(e[0], e[1], e[2], e[2]))
            elif len(e) == 4:
                chain.append(ChainLayer(*e))
            else:
                raise ValueError("chain entry needs 2 to 4 integers, got %r"
                                 % (e,))
    if not chain:
        raise ValueError("chain must contain at least one layer")
    return tuple(chain)


def kernel_offsets(kernel, rate):
    """Tap offsets of a dilated kernel along one axis, centered on
    index (kernel - 1) // 2 (the earlier of the two middles when even)."""
    return (np.arange(kernel) - (kernel - 1) // 2) * rate


@dataclass(frozen=True)
class Footprint:
    """Input pixels one output position depends on.

    ``mask`` covers the tight bounding box; ``origin`` is the offset of
    ``mask[0, 0]`` relative to the output-aligned center pixel.
    """

    mask: np.ndarray
    origin: tuple

    @property
    def extents(self):
        return self.mask.shape

    @property
    def center_index(self):
        return (-self.origin[0], -self.origin[1])

    @property
    def size(self):
        return int(self.mask.sum())

    def offsets(self):
        rows, cols = np.nonzero(self.mask)
        return set(zip((rows + self.origin[0]).tolist(),
                       (cols + self.origin[1]).tolist()))

    def __eq__(self, other):
        return (isinstance(other, Footprint)
                and self.origin == other.origin
                and self.mask.shape == other.mask.shape
                and bool(np.array_equal(self.mask, other.mask)))


def footprint_oracle(chain):
    """Brute-force dependency mask for a stride-1 chain."""
    chain = layer_chain(chain)
    mask = np.ones((1, 1), dtype=bool)
    r0 = c0 = 0
    for layer in chain:
        offs_r = kernel_offsets(layer.kernel_h, layer.rate_h)
        offs_c = kernel_offsets(layer.kernel_w, layer.rate_w)
        h, w = mask.shape
        grown = np.zeros((h + offs_r[-1] - offs_r[0],
                          w + offs_c[-1] - offs_c[0]), dtype=bool)
        for dr in offs_r - offs_r[0]:
            for dc in offs_c - offs_c[0]:
                grown[dr:dr + h, dc:dc + w] |= mask
        mask = grown
        r0 += int(offs_r[0])
        c0 += int(offs_c[0])
    return Footprint(mask, (r0, c0))


def offset_grid(layer):
    """All (row, col) tap offsets of one layer as a set."""
    return {(int(a), int(b))
            for a in kernel_offsets(layer.kernel_h, layer.rate_h)
            for b in kernel_offsets(layer.kernel_w, layer.rate_w)}


def minkowski_add(points_a, points_b):
    return {(ra + rb, ca + cb) for (ra, ca) in points_a
            for (rb, cb) in points_b}


def points_to_footprint(points):
    rows = [p[0] for p in points]
    cols = [p[1] for p in points]
    r0, c0 = min(rows), min(cols)
    mask = np.zeros((max(rows) - r0 + 1, max(cols) - c0 + 1), dtype=bool)
    for r, c in points:
        mask[r - r0, c - c0] = True
    return Footprint(mask, (r0, c0))


def footprint_minkowski(chain):
    """Same footprint via exact set arithmetic over tap offsets."""
    pts = {(0, 0)}
    for layer in layer_chain(chain):
        pts = minkowski_add(pts, offset_grid(layer))
    return points_to_footprint(pts)


def has_gridding(footprint):
    """True when the footprint misses pixels inside its bounding box."""
    return not bool(footprint.mask.all())


def max_distance_series(rates, kernel):
    """Maximum-distance recursion over a dilation schedule.

    M_N = r_N and M_i = max(|M_{i+1} - 2 r_i|, r_i), evaluated from the
    top of the stack down. Returned list is indexed like the schedule.
    """
    rates = list(rates)
    if not rates:
        raise ValueError("rate schedule must not be empty")
    if any(r < 1 for r in rates):
        raise ValueError("rates must be >= 1")
    if kernel < 1:
        raise ValueError("kernel must be >= 1")
    m = [0] * len(rates)
    m[-1] = rates[-1]
    for i in range(len(rates) - 2, -1, -1):
        m[i] = max(abs(m[i + 1] - 2 * rates[i]), rates[i])
    return m


def hdc_verdict(rates, kernel):
    """Published hole-avoidance check: the second maximum-distance value
    must not exceed the kernel size. A single-layer schedule falls back
    to its only value. The footprint oracle is the authority on actual
    holes; this predicate reports the design rule as stated.
    """
    series = max_distance_series(rates, kernel)
    probe = series[1] if len(series) >= 2 else series[0]
    return probe <= kernel


def param_count(chain):
    """Weights per input-output channel pair along a chain, bias excluded."""
    return sum(l.kernel_h * l.kernel_w for l in layer_chain(chain))


def hadc_pair_valid(k1, k2):
    """Admission rule for an asymmetric kernel pair: both sides at least 2
    with the larger side above 3, or the symmetric 3x3 special case."""
    if k1 < 1 or k2 < 1:
        raise ValueError("kernel sizes must be >= 1")
    if k1 == 3 and k2 == 3:
        return True
    return min(k1, k2) >= 2 and max(k1, k2) > 3
