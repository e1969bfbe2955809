"""Multiclass classification metrics around a K x K confusion matrix.

Rows are true labels, columns are predicted labels.  Accuracy is the trace
over the total count; precision and recall are per-class one-vs-rest, with
the 0/0 case defined as 0; weighted F1 averages per-class F1 by true-label
support.  The row-normalized view divides each row by its sum (zero-support
rows stay zero), matching the proportional confusion-matrix convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io_utils import require_memory


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (K, K) integers from 0 to 2**63 - 1, rows = true labels

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if counts.shape[0] < 2:
            raise ValueError("need at least 2 classes")
        # A float, bool or object array (Python ints past 64 bits) holds no counts.
        if counts.dtype.kind not in "iu" or not 0 <= counts.min() <= counts.max() <= 2**63 - 1:
            raise ValueError("confusion matrix counts must be integers from 0 to 2**63 - 1")
        self.counts = counts.astype(np.int64, copy=False)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        """The sum of the counts as Python ints, which bounds every row and
        column sum: past int64, where numpy's sums wrap, every metric raises
        ValueError here."""
        total = sum(self.counts.ravel().tolist())
        if total > np.iinfo(np.int64).max:
            raise ValueError("confusion matrix counts must sum to at most 2**63 - 1")
        return total


def confusion_counts(pairs, n_classes: int) -> ConfusionMatrix:
    """Count (true, predicted) label pairs, a list of int tuples or an
    ``(n, 2)`` int64 array, into a K x K matrix: one bincount of
    ``true * K + predicted``, which fits int64 whenever the matrix fits in
    memory.  A pair out of range raises ValueError naming the first one."""
    require_memory(16 * n_classes**2, f"confusion matrix and bincount for n_classes {n_classes}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    try:
        # One contiguous row per label: a view of column-major pairs, a copy of
        # row-major ones, whose strided columns cost about 5 times as much.
        labels = np.ascontiguousarray(np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2).T)
        fits = not labels.size or labels.min() >= 0 and labels.max() < n_classes
        in_range = fits or ((labels >= 0) & (labels < n_classes)).all(axis=0)  # find the first
    except OverflowError:  # a label beyond int64 is out of range too
        in_range = np.array([0 <= t < n_classes and 0 <= p < n_classes for t, p in pairs])
    if not np.all(in_range):
        y_true, y_pred = pairs[int(np.argmin(in_range))]
        raise ValueError(f"label pair ({y_true}, {y_pred}) out of range for {n_classes} classes")
    flat = np.bincount(labels[0] * n_classes + labels[1])
    counts.reshape(-1)[: len(flat)] = flat
    return ConfusionMatrix(counts)


def row_normalize(cm: ConfusionMatrix) -> np.ndarray:
    """Each row divided by its sum; rows with no support come back all zero."""
    return _ratio(cm.counts, cm.counts.sum(axis=1, keepdims=True, dtype=float))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den as floats, 0 wherever den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def _per_class(cm: ConfusionMatrix) -> tuple[np.ndarray, ...]:
    """Every class's precision, recall and F1, each 0 where it would be 0/0,
    its support and its predicted count, then the counts' total.  The total
    is read first: it raises past int64, and it bounds every sum after it."""
    total, tp = cm.total, np.diagonal(cm.counts)
    supports, predicted = cm.counts.sum(axis=1), cm.counts.sum(axis=0)
    p, r = _ratio(tp, predicted), _ratio(tp, supports)
    return p, r, _ratio(2.0 * p * r, p + r), supports, predicted, total


def accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total
    if total == 0:
        raise ValueError("accuracy of an empty confusion matrix is undefined")
    return float(np.trace(cm.counts)) / total


def precision(cm: ConfusionMatrix, q: int) -> float:
    """Fraction of predicted-q samples that are truly q (0 when q is never predicted)."""
    _check_class(cm, q)
    return _per_class(cm)[0].item(q)


def recall(cm: ConfusionMatrix, q: int) -> float:
    """Fraction of truly-q samples predicted as q (0 when q has no support)."""
    _check_class(cm, q)
    return _per_class(cm)[1].item(q)


def f1(cm: ConfusionMatrix, q: int) -> float:
    """Harmonic mean 2PR / (P + R), 0 when both are 0."""
    _check_class(cm, q)
    return _per_class(cm)[2].item(q)


def weighted_f1(cm: ConfusionMatrix) -> float:
    """Per-class F1 averaged with true-label support as weights: the report's."""
    if cm.total == 0:
        raise ValueError("weighted F1 of an empty confusion matrix is undefined")
    return compute_report(cm)["weighted_f1"]


def _check_class(cm: ConfusionMatrix, q: int) -> None:
    if not 0 <= q < cm.n_classes:
        raise ValueError(f"class {q} out of range for {cm.n_classes} classes")


def compute_report(cm: ConfusionMatrix) -> dict:
    """The ``report.json`` object: accuracy, weighted F1, one record per
    class, and the classes where the 0/0 rule applied."""
    p, r, f, supports, predicted, total = _per_class(cm)
    return {
        "accuracy": accuracy(cm),
        # A Python sum in class order: numpy's pairwise sum rounds otherwise for K > 8.
        "weighted_f1": sum((supports * f).tolist()) / total,
        "per_class": [
            {"class": q, "precision": pq, "recall": rq, "f1": fq, "support": s}
            for q, (pq, rq, fq, s) in enumerate(zip(*(a.tolist() for a in (p, r, f, supports))))
        ],
        "degenerate_classes": np.flatnonzero((supports == 0) | (predicted == 0)).tolist(),
    }


def confusion_to_csv(cm: ConfusionMatrix, normalized: bool = False) -> str:
    """CSV with a true-label row per line; plot-ready data, not a plot."""
    matrix = row_normalize(cm) if normalized else cm.counts
    # The cells are the reprs of the Python ints or floats that tolist() gives.
    lines = ["true\\pred," + ",".join(map(str, range(cm.n_classes)))]
    lines += [f"{q}," + ",".join(map(repr, row)) for q, row in enumerate(matrix.tolist())]
    return "\n".join(lines) + "\n"
