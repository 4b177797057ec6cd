"""Segmentation quality metrics over an integer confusion matrix.

Rows index the reference class, columns the predicted class. Void pixels
(label 255 by default) never enter the matrix. Metrics return NaN when
their domain is empty rather than raising.
"""
from __future__ import annotations

import numpy as np

VOID_LABEL = 255


class ConfusionMatrix:
    """Streaming N x N tally, updated one batch at a time."""

    def __init__(self, num_classes):
        if num_classes < 1:
            raise ValueError("need at least one class")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, predictions, labels):
        """Add one batch of hard predictions against reference labels.

        Void pixels (label 255) are skipped. Out-of-range predictions or
        labels are errors.
        """
        predictions = np.asarray(predictions)
        labels = np.asarray(labels)
        if predictions.shape != labels.shape:
            raise ValueError("prediction and label shapes differ: %s vs %s"
                             % (predictions.shape, labels.shape))
        valid = labels != VOID_LABEL
        p = predictions[valid].astype(np.int64)
        t = labels[valid].astype(np.int64)
        n = self.num_classes
        if p.size:
            if p.min() < 0 or p.max() >= n:
                raise ValueError("prediction class out of range [0, %d)" % n)
            if t.min() < 0 or t.max() >= n:
                raise ValueError("label class out of range [0, %d)" % n)
            self.counts += np.bincount(
                t * n + p, minlength=n * n).reshape(n, n)
        return self

    def as_array(self):
        return self.counts.copy()

    # -- scalar metrics; each returns NaN on an empty domain --------------

    def pixel_acc(self):
        total = self.counts.sum()
        if total == 0:
            return float("nan")
        return float(np.trace(self.counts) / total)

    def mean_class_acc(self):
        ref = self.counts.sum(axis=1)
        present = ref > 0
        if not present.any():
            return float("nan")
        acc = np.diag(self.counts)[present] / ref[present]
        return float(acc.mean())

    def miou(self):
        tp = np.diag(self.counts)
        union = (self.counts.sum(axis=1) + self.counts.sum(axis=0) - tp)
        present = union > 0
        if not present.any():
            return float("nan")
        return float((tp[present] / union[present]).mean())

    def fwiou(self):
        tp = np.diag(self.counts)
        ref = self.counts.sum(axis=1)
        union = ref + self.counts.sum(axis=0) - tp
        total = ref.sum()
        if total == 0:
            return float("nan")
        iou = np.zeros(self.num_classes, dtype=np.float64)
        nz = union > 0
        iou[nz] = tp[nz] / union[nz]
        return float((ref * iou).sum() / total)

    def summary(self):
        return {
            "pixel_acc": self.pixel_acc(),
            "mean_class_acc": self.mean_class_acc(),
            "miou": self.miou(),
            "fwiou": self.fwiou(),
        }


def chebyshev_dilate(mask, distance):
    """Grow a boolean mask so every pixel within the given Chebyshev
    distance of a set pixel becomes set."""
    mask = np.asarray(mask, dtype=bool)
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    if distance == 0 or not mask.any():
        return mask.copy()
    h, w = mask.shape[-2:]
    padded = np.zeros(mask.shape[:-2] + (h + 2 * distance, w + 2 * distance),
                      dtype=bool)
    for dr in range(2 * distance + 1):
        for dc in range(2 * distance + 1):
            padded[..., dr:dr + h, dc:dc + w] |= mask
    return padded[..., distance:distance + h, distance:distance + w]


def boundary_mask(labels, void=VOID_LABEL):
    """Pixels adjacent (4-neighborhood) to a different non-void class."""
    labels = np.asarray(labels)
    valid = labels != void
    b = np.zeros(labels.shape, dtype=bool)
    dh = (labels[..., 1:, :] != labels[..., :-1, :]) \
        & valid[..., 1:, :] & valid[..., :-1, :]
    b[..., 1:, :] |= dh
    b[..., :-1, :] |= dh
    dw = (labels[..., :, 1:] != labels[..., :, :-1]) \
        & valid[..., :, 1:] & valid[..., :, :-1]
    b[..., :, 1:] |= dw
    b[..., :, :-1] |= dw
    return b


def boundary_agreement(predictions, labels, void=VOID_LABEL, tolerance=2):
    """Fraction of predicted boundary pixels lying within the Chebyshev
    tolerance of a reference boundary pixel.

    Returns 1.0 when the prediction draws no boundaries and the reference
    has none either; 0.0 when the reference has boundaries the prediction
    missed entirely.
    """
    pred_b = boundary_mask(predictions, void) & (np.asarray(labels) != void)
    ref_b = boundary_mask(labels, void)
    n_pred = int(pred_b.sum())
    if n_pred == 0:
        return 1.0 if not ref_b.any() else 0.0
    near_ref = chebyshev_dilate(ref_b, tolerance)
    return float((pred_b & near_ref).sum() / n_pred)
