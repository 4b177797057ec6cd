"""Confusion-matrix metrics against hand values and a brute-force
per-pixel tally, plus boundary utilities."""
import math

import numpy as np
import pytest

from elkpp.metrics import ConfusionMatrix, boundary_agreement, \
    boundary_mask, chebyshev_dilate

from _oracles import confusion_direct, metrics_direct


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def cm_from(counts):
    cm = ConfusionMatrix(len(counts))
    cm.counts = np.array(counts, dtype=np.int64)
    return cm


def test_hand_case_3113():
    cm = cm_from([[3, 1], [1, 3]])
    assert cm.pixel_acc() == 0.75
    assert cm.mean_class_acc() == 0.75
    # per-class IoU 3/5 each
    assert abs(cm.miou() - 0.6) <= 1e-15
    assert abs(cm.fwiou() - 0.6) <= 1e-15


def test_diagonal_perfect():
    cm = cm_from([[5, 0, 0], [0, 2, 0], [0, 0, 9]])
    assert cm.pixel_acc() == 1.0
    assert cm.mean_class_acc() == 1.0
    assert cm.miou() == 1.0
    assert cm.fwiou() == 1.0


def test_fwiou_frequency_bias():
    # dominant class at 99% frequency with IoU 0.9, rare class IoU 0.1:
    # the weighted mean sits near the dominant class
    cm = cm_from([[891, 0, 99], [0, 1, 9], [0, 0, 0]])
    # class 0: ref 990, iou 891/990 = 0.9; class 1: ref 10, iou 1/10;
    # class 2 is absent from the reference but eats 108 false positives,
    # so it carries weight 0 in fwiou yet iou 0 in the plain mean
    assert abs(cm.fwiou() - 0.892) <= 1e-12
    assert abs(cm.miou() - (0.9 + 0.1 + 0.0) / 3) <= 1e-12


def test_empty_matrix_nan_sentinels():
    cm = ConfusionMatrix(3)
    assert math.isnan(cm.pixel_acc())
    assert math.isnan(cm.mean_class_acc())
    assert math.isnan(cm.miou())
    assert math.isnan(cm.fwiou())


def test_absent_class_skipped():
    cm = cm_from([[4, 0, 0], [0, 3, 1], [0, 0, 0]])
    # class 2 absent from reference and never predicted... but column 2
    # holds one false positive, so its union is 1 with IoU 0
    assert abs(cm.mean_class_acc() - (1.0 + 0.75) / 2) <= 1e-15
    assert abs(cm.miou() - (1.0 + 0.75 + 0.0) / 3) <= 1e-15
    # a class absent from rows AND columns is skipped entirely
    cm2 = cm_from([[4, 0, 0], [1, 3, 0], [0, 0, 0]])
    assert abs(cm2.miou() - (0.8 + 0.75) / 2) <= 1e-15


def test_update_counts_and_void():
    cm = ConfusionMatrix(2)
    preds = np.array([[0, 0, 1], [1, 0, 1]])
    labels = np.array([[0, 1, 1], [255, 0, 1]])
    cm.update(preds, labels)
    # non-void pixels: (0,0) ok, (0,1)->pred 0, (1,1) ok, (0,)... tally:
    # true 0: pred 0 once, pred... enumerate: labels 0->pred 0; 1->0;
    # 1->1; 0->0; 1->1
    assert cm.counts.tolist() == [[2, 0], [1, 2]]
    # all-void update leaves the matrix unchanged
    before = cm.as_array()
    cm.update(np.array([[1]]), np.array([[255]]))
    assert np.array_equal(cm.as_array(), before)


def test_update_validates_ranges_and_shapes():
    cm = ConfusionMatrix(2)
    with pytest.raises(ValueError):
        cm.update(np.array([[2]]), np.array([[0]]))
    with pytest.raises(ValueError):
        cm.update(np.array([[0]]), np.array([[3]]))
    with pytest.raises(ValueError):
        cm.update(np.zeros((2, 2)), np.zeros((2, 3)))
    # void pixels are exempt from label range checks
    cm.update(np.array([[0]]), np.array([[255]]))


def test_metrics_match_brute_force_tally():
    r = rng(1)
    for trial in range(20):
        cm = ConfusionMatrix(4)
        all_preds, all_labels = [], []
        for _ in range(3):
            preds = r.integers(0, 4, size=(32, 32))
            labels = r.integers(0, 5, size=(32, 32))
            labels[labels == 4] = 255  # sprinkle void
            cm.update(preds, labels)
            all_preds.append(preds)
            all_labels.append(labels)
        brute_cm = confusion_direct(np.stack(all_preds),
                                    np.stack(all_labels), 4)
        assert np.array_equal(cm.as_array(), brute_cm)
        want = metrics_direct(brute_cm)
        got = cm.summary()
        for key in ("pixel_acc", "mean_class_acc", "miou", "fwiou"):
            assert got[key] == pytest.approx(want[key], abs=1e-12), key


def test_permutation_invariance():
    r = rng(2)
    preds = r.integers(0, 3, size=(16, 16))
    labels = r.integers(0, 3, size=(16, 16))
    cm = ConfusionMatrix(3).update(preds, labels)
    perm = np.array([2, 0, 1])
    cm_p = ConfusionMatrix(3).update(perm[preds], perm[labels])
    assert cm.summary() == pytest.approx(cm_p.summary())


def test_fwiou_equals_miou_for_equal_frequencies():
    cm = cm_from([[6, 2], [4, 4]])  # both rows sum to 8
    assert cm.fwiou() == pytest.approx(cm.miou(), abs=1e-15)


def test_chebyshev_dilate():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 2] = True
    d1 = chebyshev_dilate(m, 1)
    assert d1.sum() == 9
    assert d1[1:4, 1:4].all()
    d0 = chebyshev_dilate(m, 0)
    assert np.array_equal(d0, m)
    with pytest.raises(ValueError):
        chebyshev_dilate(m, -1)
    # clipping at the border
    edge = np.zeros((3, 3), dtype=bool)
    edge[0, 0] = True
    de = chebyshev_dilate(edge, 1)
    assert de.sum() == 4


def test_boundary_mask_vertical_split():
    labels = np.zeros((4, 6), dtype=np.int64)
    labels[:, 3:] = 1
    b = boundary_mask(labels)
    want = np.zeros((4, 6), dtype=bool)
    want[:, 2:4] = True
    assert np.array_equal(b, want)


def test_boundary_mask_ignores_void_transitions():
    labels = np.zeros((3, 4), dtype=np.int64)
    labels[:, 2:] = 255
    # class-to-void transitions are not boundaries
    assert not boundary_mask(labels).any()


def test_boundary_agreement_values():
    labels = np.zeros((8, 12), dtype=np.int64)
    labels[:, 6:] = 1
    # perfect prediction: every predicted boundary pixel lies on one
    assert boundary_agreement(labels.copy(), labels) == 1.0
    # shifted by one column: still within tolerance 2
    shifted = np.zeros_like(labels)
    shifted[:, 7:] = 1
    assert boundary_agreement(shifted, labels) == 1.0
    # far off: boundary columns 0,1 vs reference columns 5,6 exceed 2
    far = np.zeros_like(labels)
    far[:, 1:] = 1
    assert boundary_agreement(far, labels) == 0.0
    # blank prediction against a boundary-bearing reference
    blank = np.zeros_like(labels)
    assert boundary_agreement(blank, labels) == 0.0
    # blank against blank
    assert boundary_agreement(blank, np.zeros_like(labels)) == 1.0


def test_boundary_agreement_tolerance_window():
    labels = np.zeros((8, 8), dtype=np.int64)
    labels[:, 4:] = 1
    two_off = np.zeros_like(labels)
    two_off[:, 6:] = 1
    # prediction boundary columns 5,6; reference columns 3,4; distance 2
    assert boundary_agreement(two_off, labels, tolerance=2) == 1.0
    assert boundary_agreement(two_off, labels, tolerance=1) == 0.5
