"""Correctness checks made on every benchmark run.

Each check compares the program against a computation written here, or
against a property the method must have, and returns ``(ok, detail)``.
They take plain arrays so the tests can hand them corrupted inputs.
"""
from __future__ import annotations

import numpy as np


def _result(ok, detail):
    return bool(ok), detail


# -- convolution ---------------------------------------------------------


def same_padding(n, stride, extent):
    """Output length and leading pad of "same-zero" padding: the output
    covers ceil(n / stride) positions and the odd pixel of an uneven
    total pad goes to the trailing side."""
    out = -(-n // stride)
    total = max((out - 1) * stride + extent - n, 0)
    return out, total // 2


def direct_conv(x, w, b, spec):
    """Dilated convolution by explicit summation over output pixels and
    kernel taps: out[n, o, i, j] = sum_{c,u,v} w[o, c, u, v] *
    x[n, c, i*s + u*rate_h - pad_top, j*s + v*rate_w - pad_left], with
    zeros outside the input."""
    n, _, h, wd = x.shape
    s = spec.stride
    eh = spec.kernel_h + (spec.kernel_h - 1) * (spec.rate_h - 1)
    ew = spec.kernel_w + (spec.kernel_w - 1) * (spec.rate_w - 1)
    if spec.padding_mode == "same-zero":
        oh, pt = same_padding(h, s, eh)
        ow, pl = same_padding(wd, s, ew)
    else:
        oh, ow, pt, pl = (h - eh) // s + 1, (wd - ew) // s + 1, 0, 0
    out = np.zeros((n, spec.out_channels, oh, ow))
    for i in range(oh):
        for j in range(ow):
            for u in range(spec.kernel_h):
                r = i * s + u * spec.rate_h - pt
                if not 0 <= r < h:
                    continue
                for v in range(spec.kernel_w):
                    c = j * s + v * spec.rate_w - pl
                    if 0 <= c < wd:
                        out[:, :, i, j] += x[:, :, r, c] @ w[:, :, u, v].T
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


def check_conv(got, expected, rtol=1e-10):
    """Program's convolution output against the direct summation."""
    if got.shape != expected.shape:
        return _result(False, "shape %s, expected %s"
                       % (got.shape, expected.shape))
    err = float(np.max(np.abs(got - expected)))
    scale = max(float(np.max(np.abs(expected))), 1.0)
    return _result(err <= rtol * scale, "max abs error %.3e (scale %.3e)"
                   % (err, scale))


# -- gradients ------------------------------------------------------------


def check_directional(grads, direction, fd, rtol=1e-5):
    """<tape gradient, direction> against a central difference of the
    loss along that direction. ``grads`` and ``direction`` map parameter
    names to arrays."""
    analytic = sum(float(np.sum(np.asarray(grads[k], dtype=np.float64)
                                * direction[k])) for k in direction)
    err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)
    return _result(err <= rtol, "tape %.10e, central difference %.10e, "
                   "relative error %.3e" % (analytic, fd, err))


def check_gradcheck_report(report):
    """The finite-difference report passes at its tolerance and probed
    at least one entry."""
    probed = [e for e in report.entries if e.status != "skipped"]
    return _result(report.passed and probed,
                   "%d entries probed, worst %.3e, tolerance %.1e"
                   % (len(probed), report.worst, report.tolerance))


# -- training ---------------------------------------------------------------


def check_loss_trend(l_seg, window=10):
    """Mean segmentation loss of the last ``window`` steps below that of
    the first ``window``."""
    if len(l_seg) < 2 * window:
        return _result(False, "only %d steps" % len(l_seg))
    first = float(np.mean(l_seg[:window]))
    last = float(np.mean(l_seg[-window:]))
    return _result(last < first, "l_seg first %d steps %.4f, last %d %.4f"
                   % (window, first, window, last))


def check_bit_identical(expected, got):
    """Two name -> array maps hold the same names, shapes, dtypes and
    bytes."""
    if set(expected) != set(got):
        return _result(False, "names differ: %s"
                       % sorted(set(expected) ^ set(got)))
    for k in sorted(expected):
        a, b = np.asarray(expected[k]), np.asarray(got[k])
        if a.shape != b.shape or a.dtype != b.dtype \
                or a.tobytes() != b.tobytes():
            return _result(False, "%r differs" % k)
    return _result(True, "%d tensors bit-identical" % len(expected))


# -- evaluation -------------------------------------------------------------


class Tally:
    """Per-class counts of true positives, predictions and references over
    non-void pixels, kept apart from the program's confusion matrix."""

    def __init__(self, num_classes, void=255):
        self.num_classes = num_classes
        self.void = void
        self.tp = np.zeros(num_classes, dtype=np.int64)
        self.pred = np.zeros(num_classes, dtype=np.int64)
        self.ref = np.zeros(num_classes, dtype=np.int64)
        self.valid = 0

    def add(self, preds, labels):
        keep = labels != self.void
        p, t = preds[keep], labels[keep]
        self.valid += int(keep.sum())
        for k in range(self.num_classes):
            pk, tk = p == k, t == k
            self.tp[k] += int((pk & tk).sum())
            self.pred[k] += int(pk.sum())
            self.ref[k] += int(tk.sum())

    def pixel_acc(self):
        return self.tp.sum() / self.valid

    def miou(self):
        union = self.ref + self.pred - self.tp
        present = union > 0
        return float(np.mean(self.tp[present] / union[present]))


def check_confusion_total(counts, valid_pixels):
    total = int(np.sum(counts))
    return _result(total == valid_pixels, "matrix total %d, non-void pixels %d"
                   % (total, valid_pixels))


def check_scores(summary, tally, tol=1e-12):
    """The program's mIoU and pixel accuracy against the tally's."""
    ok = (abs(summary["miou"] - tally.miou()) <= tol
          and abs(summary["pixel_acc"] - tally.pixel_acc()) <= tol)
    return _result(ok, "miou %.6f / %.6f, pixel_acc %.6f / %.6f"
                   % (summary["miou"], tally.miou(), summary["pixel_acc"],
                      tally.pixel_acc()))


def check_batch_invariance(alone, in_batch, rtol=1e-4):
    """Eval-mode logits of one sample, alone and inside its batch, agree
    to float32 accuracy."""
    err = float(np.max(np.abs(alone - in_batch)))
    scale = max(float(np.max(np.abs(in_batch))), 1.0)
    return _result(err <= rtol * scale, "max abs difference %.3e (scale %.3e)"
                   % (err, scale))


def check_argmax(preds, logits):
    wrong = int(np.sum(preds != np.argmax(logits, axis=1)))
    return _result(wrong == 0, "%d predictions differ from the argmax"
                   % wrong)
