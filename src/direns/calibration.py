"""Confidence and calibration diagnostics for labeled predictions.

A prediction's confidence is its maximum class probability; it is correct
when the argmax class (lowest index on ties) equals the label.  Confidence
values are grouped into B equal-width bins ((b-1)/B, b/B], a confidence of
exactly 0 going to the first bin so the bins partition [0, 1].  Per-bin
accuracy and mean confidence feed the expected calibration error

    ECE = sum_b (count_b / N) * |accuracy_b - confidence_b|

over occupied bins; empty bins are kept in the output with zero count but
marked so plots and the ECE skip them.  The module also reports accuracy,
macro-averaged F1, negative log-likelihood, and correctness-conditioned
confidence histograms with the fraction of incorrect predictions above a
confidence threshold.

Each computation has one array implementation over (n, K) means and (n,)
labels, which the CLI calls on whole files; ``calibration_report`` and
``ece`` turn their ``LabeledPrediction`` lists into those two arrays and
call it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .dirichlet import ProbabilityVector, _class_index, _point

__all__ = [
    "LabeledPrediction",
    "ReliabilityBin",
    "CalibrationReport",
    "confidence",
    "correctness",
    "ece",
    "calibration_report",
    "DEFAULT_BINS",
    "DEFAULT_CONFIDENCE_THRESHOLD",
    "NLL_FLOOR",
]

DEFAULT_BINS = 10
DEFAULT_CONFIDENCE_THRESHOLD = 0.8
NLL_FLOOR = 1e-12


class LabeledPrediction:
    """One predictive distribution paired with its true label."""

    def __init__(self, mean: ProbabilityVector, label: int, sample_id: str = "") -> None:
        self.mean = _point(mean)
        self.label = _class_index(label, self.mean.p.size)
        self.sample_id = str(sample_id)


class ReliabilityBin(NamedTuple):
    """One confidence bin of a reliability diagram; an empty one has zero statistics."""

    lower: float
    upper: float
    count: int
    accuracy: float
    confidence: float

    @property
    def empty(self) -> bool:
        return self.count == 0


class CalibrationReport(NamedTuple):
    """Full calibration diagnostics for one prediction set.

    The NLL floors the probability at the true class at ``NLL_FLOOR``, so
    file-roundtripped zeros stay finite.
    """

    bins: list
    ece: float
    accuracy: float
    macro_f1: float
    nll: float
    hist_correct: np.ndarray
    hist_incorrect: np.ndarray
    high_conf_error_rate: float


def confidence(p) -> float:
    """Maximum predicted class probability."""
    return float(_point(p).p.max())


def correctness(p, label: int) -> int:
    """1 when the argmax class (lowest index on ties) equals the label."""
    probs = _point(p).p
    return int(int(np.argmax(probs)) == _class_index(label, probs.size))


def _bin_index(conf, n_bins: int):
    # Bin b (1-based) covers ((b-1)/B, b/B]; exact 0 joins bin 1.
    return np.clip(np.ceil(np.multiply(conf, n_bins)), 1, n_bins).astype(np.int64)


def _arrays(preds: Sequence[LabeledPrediction]) -> tuple[np.ndarray, np.ndarray]:
    # The object API's view of the array implementation: (n, K) means, (n,)
    # labels of any objects with ``mean`` and ``label``.
    if not preds:
        raise ValueError("at least one prediction is required")
    return np.array([p.mean.p for p in preds]), np.array([p.label for p in preds])


def _conf_correct(mean: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return mean.max(axis=1), mean.argmax(axis=1) == labels


def _reliability(conf: np.ndarray, correct: np.ndarray, n_bins: int) -> list[ReliabilityBin]:
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    idx = _bin_index(conf, n_bins) - 1
    counts = np.bincount(idx, minlength=n_bins).tolist()
    # Members of each bin in input order, so a bin's mean sums like the
    # mean over a mask would.
    members = np.split(np.argsort(idx, kind="stable"), np.cumsum(counts)[:-1])
    return [
        ReliabilityBin(
            lower=b / n_bins,
            upper=(b + 1) / n_bins,
            count=count,
            accuracy=float(correct[m].mean()) if count else 0.0,
            confidence=float(conf[m].mean()) if count else 0.0,
        )
        for b, (count, m) in enumerate(zip(counts, members))
    ]


def _ece(bins: Sequence[ReliabilityBin]) -> float:
    n = sum(b.count for b in bins)
    return float(
        math.fsum(b.count / n * abs(b.accuracy - b.confidence) for b in bins if not b.empty)
    )


def ece(preds: Sequence[LabeledPrediction], n_bins: int = DEFAULT_BINS) -> float:
    """Expected calibration error over occupied bins."""
    return _ece(_reliability(*_conf_correct(*_arrays(preds)), n_bins))


def _histograms(
    conf: np.ndarray, correct: np.ndarray, n_bins: int, threshold: float
) -> tuple[np.ndarray, np.ndarray, float]:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    idx = _bin_index(conf, n_bins) - 1
    n_incorrect = int((~correct).sum())
    overconfident = int((~correct & (conf > threshold)).sum())
    return (
        np.bincount(idx[correct], minlength=n_bins),
        np.bincount(idx[~correct], minlength=n_bins),
        overconfident / n_incorrect if n_incorrect else 0.0,
    )


def _macro_f1(pred_classes: np.ndarray, labels: np.ndarray, k: int) -> float:
    # Classes absent from both predictions and labels are excluded from
    # the average; supported classes without true positives contribute 0.
    tp = np.bincount(labels[pred_classes == labels], minlength=k)
    n_pred, n_true = np.bincount(pred_classes, minlength=k), np.bincount(labels, minlength=k)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision, recall = tp / n_pred, tp / n_true
        f1 = np.where(tp > 0, 2.0 * precision * recall / (precision + recall), 0.0)
    return float(f1[(n_pred > 0) | (n_true > 0)].mean())


def _metrics(mean: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    pred_classes = mean.argmax(axis=1)
    accuracy = float((pred_classes == labels).mean())
    macro_f1 = _macro_f1(pred_classes, labels, mean.shape[1])
    # math.log, not np.log: the two differ in the last bit on some inputs.
    at_label = np.maximum(mean[np.arange(labels.size), labels], NLL_FLOOR)
    nll = -float(np.mean(list(map(math.log, at_label.tolist()))))
    return accuracy, macro_f1, nll


def _report(mean: np.ndarray, labels: np.ndarray, n_bins: int, threshold: float) -> CalibrationReport:
    # The array implementation of ``calibration_report``.
    conf, correct = _conf_correct(mean, labels)
    bins = _reliability(conf, correct, n_bins)
    accuracy, macro_f1, nll = _metrics(mean, labels)
    hist_correct, hist_incorrect, rate = _histograms(conf, correct, n_bins, threshold)
    return CalibrationReport(
        bins=bins,
        ece=_ece(bins),
        accuracy=accuracy,
        macro_f1=macro_f1,
        nll=nll,
        hist_correct=hist_correct,
        hist_incorrect=hist_incorrect,
        high_conf_error_rate=rate,
    )


def calibration_report(
    preds: Sequence[LabeledPrediction],
    n_bins: int = DEFAULT_BINS,
    threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
) -> CalibrationReport:
    """Assemble bins, ECE, metrics, and histograms into one report."""
    return _report(*_arrays(preds), n_bins, threshold)
