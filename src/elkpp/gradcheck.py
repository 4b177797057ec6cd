"""Finite-difference verification of tape gradients.

The oracle only ever calls the forward pass: each parameter entry is
nudged by +/-step and the loss re-evaluated, so the check is independent
of every backward rule it validates. Comparisons use a relative error
with an absolute floor so near-zero gradients do not blow up the ratio.

A central difference carries truncation error proportional to
step^2 times the local third derivative, and 64-bit roundoff error
proportional to 1/step. Losses routed through a deep network mix
curvature scales spanning many orders of magnitude — batch statistics
taken over a handful of values and vector norms evaluated near zero both
produce third derivatives large enough to swamp any single step choice,
while coordinates with tame curvature want the larger step that keeps
roundoff low. The checker therefore probes a descending ladder of steps:
each coordinate passes as soon as one scale matches its tape gradient,
and only coordinates still failing move down a rung. A wrong backward
rule cannot slip through, because the estimates converge to the true
derivative — shrinking the step pulls them away from a bad tape value,
not toward it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import backward, no_grad

DEFAULT_STEPS = (1e-5, 1e-6, 1e-7, 1e-8)
ERROR_FLOOR = 1e-6


def finite_difference(value_fn, array, step=1e-5, indices=None):
    """Central-difference gradient of ``value_fn`` with respect to the
    entries of ``array`` (mutated in place and restored).

    ``indices`` restricts the probe to a subset of flat positions; the
    returned array then holds the estimate there and NaN elsewhere.
    """
    flat = array.reshape(-1)
    if indices is None:
        indices = range(flat.size)
        grad = np.zeros(flat.size, dtype=np.float64)
    else:
        grad = np.full(flat.size, np.nan, dtype=np.float64)
    for i in indices:
        saved = flat[i]
        flat[i] = saved + step
        up = value_fn()
        flat[i] = saved - step
        down = value_fn()
        flat[i] = saved
        grad[i] = (up - down) / (2.0 * step)
    return grad.reshape(array.shape)


def relative_errors(analytic, estimate, floor=ERROR_FLOOR):
    """Entrywise |a - e| / max(|a|, |e|, floor); NaN propagates from
    unprobed estimate positions."""
    a = np.asarray(analytic, dtype=np.float64)
    e = np.asarray(estimate, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(e)), floor)
    return np.abs(a - e) / denom


def max_relative_error(analytic, estimate, floor=ERROR_FLOOR):
    """max over entries of |a - e| / max(|a|, |e|, floor); NaN entries in
    the estimate are skipped (unprobed positions)."""
    rel = relative_errors(analytic, estimate, floor).reshape(-1)
    rel = rel[~np.isnan(rel)]
    return float(rel.max()) if rel.size else 0.0


@dataclass
class GradCheckEntry:
    name: str
    shape: tuple
    max_rel: float
    status: str  # "ok" | "fail" | "skipped"


@dataclass
class GradCheckReport:
    tolerance: float
    steps: tuple
    entries: list = field(default_factory=list)

    @property
    def worst(self):
        checked = [e.max_rel for e in self.entries if e.status != "skipped"]
        return max(checked) if checked else 0.0

    @property
    def passed(self):
        return all(e.status != "fail" for e in self.entries)

    def render(self):
        lines = ["%-44s %-16s %-12s %s"
                 % ("parameter", "shape", "max rel err", "status")]
        for e in self.entries:
            rel = "-" if e.status == "skipped" else "%.3e" % e.max_rel
            lines.append("%-44s %-16s %-12s %s"
                         % (e.name, "x".join(map(str, e.shape)), rel,
                            e.status))
        lines.append("worst %.3e  tolerance %.1e  steps %s  -> %s"
                     % (self.worst, self.tolerance,
                        "/".join("%.0e" % s for s in self.steps),
                        "PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def check_gradients(loss_fn, named_params, steps=DEFAULT_STEPS, tol=1e-3,
                    max_entries=None, rng=None):
    """Compare tape gradients of ``loss_fn`` against finite differences.

    ``loss_fn`` must rebuild the forward graph on every call.
    ``named_params`` is an iterable of (name, Tensor); entries whose
    tensor has ``requires_grad`` cleared are reported as skipped.
    ``max_entries`` probes at most that many positions per tensor
    (deterministically subsampled) to bound runtime.

    ``steps`` is a single step or a descending ladder. Every position is
    probed at the first step; only positions whose relative error exceeds
    ``tol`` are re-probed at the next rung, and each position keeps its
    best estimate across rungs. See the module docstring for why a
    ladder is the sound way to handle mixed curvature scales.
    """
    if isinstance(steps, (int, float)):
        steps = (float(steps),)
    else:
        steps = tuple(float(s) for s in steps)
    if not steps:
        raise ValueError("need at least one probe step")
    named_params = list(named_params)
    loss = loss_fn()
    backward(loss)
    analytic = {}
    for name, t in named_params:
        analytic[name] = (np.array(t.grad, dtype=np.float64, copy=True)
                          if t.grad is not None else np.zeros(t.data.shape))

    def value():
        with no_grad():
            return float(loss_fn().data)

    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    report = GradCheckReport(tolerance=tol, steps=steps)
    for name, t in named_params:
        if not t.requires_grad:
            report.entries.append(GradCheckEntry(name, t.data.shape, 0.0,
                                                 "skipped"))
            continue
        if max_entries is not None and t.data.size > max_entries:
            probe = np.sort(rng.choice(t.data.size, size=max_entries,
                                       replace=False))
        else:
            probe = np.arange(t.data.size)
        a_flat = analytic[name].reshape(-1)
        best = np.full(t.data.size, np.inf)
        remaining = probe
        for step in steps:
            if remaining.size == 0:
                break
            fd = finite_difference(value, t.data, step=step,
                                   indices=remaining).reshape(-1)
            rel = relative_errors(a_flat, fd)
            best[remaining] = np.fmin(best[remaining], rel[remaining])
            remaining = remaining[best[remaining] > tol]
        max_rel = float(best[probe].max()) if probe.size else 0.0
        status = "ok" if max_rel <= tol else "fail"
        report.entries.append(GradCheckEntry(name, t.data.shape, max_rel,
                                             status))
    return report
