"""Variance-based selective classification.

Each sample carries a scalar abstention score, the total predictive
variance of its fitted Dirichlet.  A threshold tau is calibrated on held
out data: samples are sorted by variance, and tau becomes the variance of
the last sample in the largest tie-closed prefix whose empirical risk
(error rate) stays at or below the target r.  The decision rule then
predicts the argmax of the predictive mean when variance <= tau and
abstains otherwise, so every sample with the same score receives the same
decision.

Also provided: risk-coverage curves (one point per distinct variance
value), correctness-conditioned variance histograms on log-spaced bins,
and retained-set metrics after applying a threshold.

As in ``calibration``, each computation has one array implementation
over means, variances and labels, which the ``select`` command runs;
``calibrate_threshold`` and ``risk_coverage_curve`` take ``ScoredSample``
lists and convert.  The threshold and the curve share one pass over the
distinct variances, and the variance histograms and their bin edges one
range computation.  The curve is a (P, 3) array of coverage, risk and
tau, as ``fileio.write_curve`` takes it; ``risk_coverage_curve`` builds
its ``RiskCoveragePoint`` list from it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .calibration import _arrays as _mean_labels, _metrics
from .dirichlet import _AT_LEAST_1, _NONNEGATIVE, _OPEN_UNIT, ProbabilityVector, _class_index, _point, _require

__all__ = [
    "ScoredSample",
    "ThresholdCalibration",
    "RiskCoveragePoint",
    "SubsetMetrics",
    "calibrate_threshold",
    "risk_coverage_curve",
    "DEFAULT_TARGET_RISK",
]

DEFAULT_TARGET_RISK = 0.1

ABSTAIN_TAU = float("-inf")


class ScoredSample:
    """A labeled prediction plus its scalar abstention score."""

    def __init__(self, sample_id: str, mean: ProbabilityVector, variance: float, label: int) -> None:
        self.mean = _point(mean)
        self.sample_id = str(sample_id)
        self.variance = float(variance)
        _require("variance", self.variance, _NONNEGATIVE)
        self.label = _class_index(label, self.mean.p.size)


class ThresholdCalibration(NamedTuple):
    """A calibrated variance threshold and how it performed on the calibration set."""

    tau: float
    target_risk: float
    achieved_cal_risk: float
    cal_coverage: float


class RiskCoveragePoint(NamedTuple):
    """One operating point of a risk-coverage curve."""

    coverage: float
    risk: float
    tau_at_point: float


class SubsetMetrics(NamedTuple):
    """Metrics on a (possibly empty) subset; values are absent when n = 0."""

    n: int
    accuracy: Optional[float]
    macro_f1: Optional[float]
    nll: Optional[float]


def _arrays(samples: Sequence[ScoredSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The object API's view of the array implementation: means, variances, labels.
    mean, labels = _mean_labels(samples)
    return mean, np.array([s.variance for s in samples]), labels


def _wrong(mean: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return mean.argmax(axis=1) != labels


def _prefix_risk(variance: np.ndarray, wrong: np.ndarray):
    # One pass over the tie-closed prefixes of the variance order: each
    # distinct variance ascending, with the samples and errors at or below it.
    values, group = np.unique(variance, return_inverse=True)
    kept = np.cumsum(np.bincount(group, minlength=values.size))
    errors = np.cumsum(np.bincount(group[wrong], minlength=values.size))
    return values, kept, errors


def _threshold(variance: np.ndarray, wrong: np.ndarray, r: float) -> ThresholdCalibration:
    _require("target risk", r, _OPEN_UNIT)
    values, kept, errors = _prefix_risk(variance, wrong)
    risk = errors / kept
    # Compare the realized ratio so the reported risk is <= r bit-exactly.
    ok = np.flatnonzero(risk <= r)
    if not ok.size:
        return ThresholdCalibration(
            tau=ABSTAIN_TAU, target_risk=r, achieved_cal_risk=0.0, cal_coverage=0.0
        )
    j = ok[-1]
    return ThresholdCalibration(
        tau=float(values[j]),
        target_risk=r,
        achieved_cal_risk=float(risk[j]),
        cal_coverage=int(kept[j]) / variance.size,
    )


def calibrate_threshold(cal: Sequence[ScoredSample], r: float = DEFAULT_TARGET_RISK) -> ThresholdCalibration:
    """Pick the largest variance threshold whose closed prefix risks at most r.

    Sweeps tie-closed prefixes of the variance-sorted calibration set and
    keeps the largest one with empirical risk <= r; tau is the variance of
    its last sample.  When even the lowest-variance block is too risky,
    tau becomes -inf (abstain on everything) with zero coverage.
    """
    mean, variance, labels = _arrays(cal)
    return _threshold(variance, _wrong(mean, labels), r)


def _curve(variance: np.ndarray, wrong: np.ndarray) -> np.ndarray:
    # (P, 3) coverage, risk and tau, one row per distinct variance.
    values, kept, errors = _prefix_risk(variance, wrong)
    return np.column_stack([kept / variance.size, errors / kept, values])


def risk_coverage_curve(test: Sequence[ScoredSample]) -> list[RiskCoveragePoint]:
    """Risk and coverage at every distinct variance threshold of the set.

    Coverage is strictly increasing along the output since each distinct
    variance adds at least one retained sample.
    """
    mean, variance, labels = _arrays(test)
    return [RiskCoveragePoint(*row) for row in _curve(variance, _wrong(mean, labels)).tolist()]


def _variance_histograms(variance: np.ndarray, wrong: np.ndarray, bins: int):
    # (edges, correct counts, incorrect counts) from one range computation.
    # Zero variances, and all when the positive ones span no range, land in
    # the lowest bin.
    _require("bins", bins, _AT_LEAST_1)
    positive = variance[variance > 0.0]
    lo, hi = (float(positive.min()), float(positive.max())) if positive.size else (0.0, 0.0)
    idx = np.zeros(variance.size, dtype=np.int64)
    if lo == hi:
        edges = np.full(bins + 1, lo)
    else:
        # math.log10, not np.log10: the two differ in the last bit on many inputs.
        log_lo, log_hi = math.log10(lo), math.log10(hi)
        edges = np.logspace(log_lo, log_hi, bins + 1)
        if log_hi > log_lo:
            above = np.flatnonzero(variance > lo)
            logs = np.array(list(map(math.log10, variance[above].tolist())))
            idx[above] = np.minimum(bins - 1, ((logs - log_lo) / (log_hi - log_lo) * bins).astype(np.int64))
    return edges, np.bincount(idx[~wrong], minlength=bins), np.bincount(idx[wrong], minlength=bins)


def _subset_metrics(mean: np.ndarray, labels: np.ndarray) -> SubsetMetrics:
    if not labels.size:
        return SubsetMetrics(0, None, None, None)
    return SubsetMetrics(int(labels.size), *_metrics(mean, labels))
