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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dirichlet import ProbabilityVector

__all__ = [
    "LabeledPrediction",
    "ReliabilityBin",
    "CalibrationReport",
    "confidence",
    "correctness",
    "reliability_bins",
    "ece",
    "confidence_histograms",
    "metrics",
    "calibration_report",
    "DEFAULT_BINS",
    "DEFAULT_CONFIDENCE_THRESHOLD",
    "NLL_FLOOR",
]

DEFAULT_BINS = 10
DEFAULT_CONFIDENCE_THRESHOLD = 0.8
NLL_FLOOR = 1e-12


@dataclass
class LabeledPrediction:
    """One predictive distribution paired with its true label."""

    mean: ProbabilityVector
    label: int
    sample_id: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.mean, ProbabilityVector):
            self.mean = ProbabilityVector(np.asarray(self.mean, dtype=np.float64))
        self.label = int(self.label)
        if not 0 <= self.label < self.mean.p.size:
            raise ValueError(
                f"label {self.label} out of range for K={self.mean.p.size}"
            )
        self.sample_id = str(self.sample_id)


@dataclass
class ReliabilityBin:
    """One confidence bin of a reliability diagram."""

    lower: float
    upper: float
    count: int
    accuracy: float
    confidence: float

    @property
    def empty(self) -> bool:
        return self.count == 0


@dataclass
class CalibrationReport:
    """Full calibration diagnostics for one prediction set."""

    bins: list
    ece: float
    accuracy: float
    macro_f1: float
    nll: float
    hist_correct: np.ndarray
    hist_incorrect: np.ndarray
    high_conf_error_rate: float


PredLike = Union[LabeledPrediction, tuple]


def confidence(p) -> float:
    """Maximum predicted class probability."""
    probs = p.p if isinstance(p, ProbabilityVector) else np.asarray(p, dtype=np.float64)
    return float(probs.max())


def correctness(p, label: int) -> int:
    """1 when the argmax class (lowest index on ties) equals the label."""
    probs = p.p if isinstance(p, ProbabilityVector) else np.asarray(p, dtype=np.float64)
    return int(int(np.argmax(probs)) == int(label))


def _bin_index(conf: float, n_bins: int) -> int:
    # Bin b (1-based) covers ((b-1)/B, b/B]; exact 0 joins bin 1.
    idx = int(math.ceil(conf * n_bins))
    return min(max(idx, 1), n_bins)


def _conf_correct(preds: Sequence[LabeledPrediction]) -> tuple[np.ndarray, np.ndarray]:
    conf = np.array([confidence(p.mean) for p in preds])
    corr = np.array([correctness(p.mean, p.label) for p in preds])
    return conf, corr


def reliability_bins(preds: Sequence[LabeledPrediction], n_bins: int = DEFAULT_BINS) -> list[ReliabilityBin]:
    """Group predictions into B equal-width confidence bins.

    Every bin is present in the output; empty ones carry zero count and
    zero statistics and are flagged through their ``empty`` property.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    if not preds:
        raise ValueError("at least one prediction is required")
    conf, corr = _conf_correct(preds)
    out = []
    for b in range(1, n_bins + 1):
        mask = np.array([_bin_index(c, n_bins) == b for c in conf])
        count = int(mask.sum())
        acc = float(corr[mask].mean()) if count else 0.0
        mean_conf = float(conf[mask].mean()) if count else 0.0
        out.append(
            ReliabilityBin(
                lower=(b - 1) / n_bins,
                upper=b / n_bins,
                count=count,
                accuracy=acc,
                confidence=mean_conf,
            )
        )
    return out


def _ece(bins: Sequence[ReliabilityBin]) -> float:
    n = sum(b.count for b in bins)
    return float(
        math.fsum(b.count / n * abs(b.accuracy - b.confidence) for b in bins if not b.empty)
    )


def ece(preds: Sequence[LabeledPrediction], n_bins: int = DEFAULT_BINS) -> float:
    """Expected calibration error over occupied bins."""
    return _ece(reliability_bins(preds, n_bins))


def confidence_histograms(
    preds: Sequence[LabeledPrediction],
    n_bins: int = DEFAULT_BINS,
    threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Confidence counts split by correctness, plus the high-confidence error rate.

    The rate is the fraction of incorrect predictions whose confidence
    exceeds ``threshold`` (0 when nothing is incorrect).
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    conf, corr = _conf_correct(preds)
    hist_correct = np.zeros(n_bins, dtype=np.int64)
    hist_incorrect = np.zeros(n_bins, dtype=np.int64)
    for c, ok in zip(conf, corr):
        target = hist_correct if ok else hist_incorrect
        target[_bin_index(float(c), n_bins) - 1] += 1
    n_incorrect = int((corr == 0).sum())
    if n_incorrect:
        overconfident = int(((corr == 0) & (conf > threshold)).sum())
        rate = overconfident / n_incorrect
    else:
        rate = 0.0
    return hist_correct, hist_incorrect, rate


def _macro_f1(pred_classes: np.ndarray, labels: np.ndarray, k: int) -> float:
    # Classes absent from both predictions and labels are excluded from
    # the average; supported classes without true positives contribute 0.
    scores = []
    for c in range(k):
        tp = int(((pred_classes == c) & (labels == c)).sum())
        n_pred = int((pred_classes == c).sum())
        n_true = int((labels == c).sum())
        if n_pred == 0 and n_true == 0:
            continue
        if tp == 0:
            scores.append(0.0)
            continue
        precision = tp / n_pred
        recall = tp / n_true
        scores.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(scores)) if scores else 0.0


def metrics(preds: Sequence[LabeledPrediction]) -> tuple[float, float, float]:
    """(accuracy, macro F1, negative log-likelihood) of a prediction set.

    The NLL is the mean negative log of the predicted probability at the
    true class, floored at 1e-12 so file-roundtripped zeros stay finite.
    """
    if not preds:
        raise ValueError("at least one prediction is required")
    k = preds[0].mean.p.size
    pred_classes = np.array([int(np.argmax(p.mean.p)) for p in preds])
    labels = np.array([p.label for p in preds])
    accuracy = float((pred_classes == labels).mean())
    macro_f1 = _macro_f1(pred_classes, labels, k)
    nll = -float(
        np.mean([math.log(max(float(p.mean.p[p.label]), NLL_FLOOR)) for p in preds])
    )
    return accuracy, macro_f1, nll


def calibration_report(
    preds: Sequence[LabeledPrediction],
    n_bins: int = DEFAULT_BINS,
    threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
) -> CalibrationReport:
    """Assemble bins, ECE, metrics, and histograms into one report."""
    bins = reliability_bins(preds, n_bins)
    accuracy, macro_f1, nll = metrics(preds)
    hist_correct, hist_incorrect, rate = confidence_histograms(preds, n_bins, threshold)
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
