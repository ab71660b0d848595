"""Reliability binning, ECE, and prediction-set metrics.

The bins, the confidence histograms and the metrics are checked on the
fields of ``calibration_report``, the report that ``evaluate`` writes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from direns import dirichlet
from direns.calibration import (
    CalibrationReport,
    LabeledPrediction,
    _bin_index,
    calibration_report,
    confidence,
    correctness,
    ece,
)
from direns.dirichlet import ProbabilityVector
from direns.evidential import ce_loss
from direns.selective import ScoredSample


def pred(p, label, sid="s"):
    return LabeledPrediction(mean=np.array(p, dtype=float), label=label, sample_id=sid)


def hand_four() -> list[LabeledPrediction]:
    return [
        pred([0.95, 0.05], 0, "a"),
        pred([0.85, 0.15], 0, "b"),
        pred([0.65, 0.35], 0, "c"),
        pred([0.55, 0.45], 1, "d"),
    ]


# The parts of one calibration report that each test class below reads.


def report_bins(preds, n_bins):
    return calibration_report(preds, n_bins).bins


def report_histograms(preds, n_bins, threshold):
    report = calibration_report(preds, n_bins, threshold)
    return report.hist_correct, report.hist_incorrect, report.high_conf_error_rate


def report_metrics(preds):
    report = calibration_report(preds)
    return report.accuracy, report.macro_f1, report.nll


def brute_force_macro_f1(pred_classes, labels, k) -> float:
    scores = []
    for c in range(k):
        tp = sum(1 for p, t in zip(pred_classes, labels) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred_classes, labels) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred_classes, labels) if p != c and t == c)
        if tp + fp + fn == 0:
            continue
        if tp == 0:
            scores.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        scores.append(2.0 * precision * recall / (precision + recall))
    return sum(scores) / len(scores) if scores else 0.0


class TestConfidenceAndCorrectness:
    def test_confidence_is_max_probability(self):
        assert confidence(np.array([0.2, 0.5, 0.3])) == 0.5

    def test_correctness_uses_argmax(self):
        assert correctness(np.array([0.2, 0.5, 0.3]), 1) == 1
        assert correctness(np.array([0.2, 0.5, 0.3]), 0) == 0

    def test_ties_break_to_lowest_index(self):
        p = np.array([0.4, 0.4, 0.2])
        assert correctness(p, 0) == 1
        assert correctness(p, 1) == 0


WRAPPERS = {
    "LabeledPrediction": lambda p, label: LabeledPrediction(mean=p, label=label),
    "ScoredSample": lambda p, label: ScoredSample(sample_id="s", mean=p, variance=0.1, label=label),
}


class TestOneLabelAndPointRule:
    # The wrappers, confidence, correctness and ce_loss take a label and a
    # point by the same rules as the losses.

    @pytest.mark.parametrize("wrap", WRAPPERS.values(), ids=WRAPPERS.keys())
    @pytest.mark.parametrize("label", [1.5, 1.9, float("inf"), float("nan")])
    def test_non_integer_label_rejected(self, wrap, label):
        # int() would truncate 1.5 and 1.9 to class 1 and overflow on inf.
        with pytest.raises(ValueError, match=f"label {label} is not an integer"):
            wrap(np.array([0.2, 0.5, 0.3]), label)

    @pytest.mark.parametrize("wrap", WRAPPERS.values(), ids=WRAPPERS.keys())
    def test_integral_labels_name_their_class(self, wrap):
        for label, cls in ((2.0, 2), (np.int64(1), 1), (True, 1)):
            got = wrap(np.array([0.2, 0.5, 0.3]), label).label
            assert got == cls and type(got) is int

    @pytest.mark.parametrize("call", [
        lambda: ce_loss(np.array([2.0, -1.0]), 0),
        lambda: confidence([2.0, -1.0]),
        lambda: correctness(np.array([[0.5, 0.5], [0.5, 0.5]]), 0),
    ], ids=["ce_loss", "confidence", "correctness"])
    def test_points_off_the_simplex_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_a_probability_vector_is_not_checked_again(self, monkeypatch):
        p = ProbabilityVector(np.array([0.2, 0.5, 0.3]))
        calls = []
        simplex_rows = dirichlet._simplex_rows
        monkeypatch.setattr(dirichlet, "_simplex_rows", lambda rows: calls.append(1) or simplex_rows(rows))
        assert confidence(p) == 0.5 and correctness(p, 1) == 1 and ce_loss(p, 1) == -math.log(0.5)
        for wrap in WRAPPERS.values():
            assert wrap(p, 1).mean is p
        assert not calls
        confidence([0.2, 0.5, 0.3])
        assert calls


class TestBinIndex:
    def test_interval_edges(self):
        # Bins are left-open: b covers ((b-1)/B, b/B].
        assert _bin_index(0.1, 10) == 1
        assert _bin_index(0.10000000001, 10) == 2
        assert _bin_index(1.0, 10) == 10
        assert _bin_index(0.95, 10) == 10

    def test_zero_confidence_lands_in_first_bin(self):
        assert _bin_index(0.0, 10) == 1

    def test_other_bin_counts(self):
        assert _bin_index(0.5, 4) == 2
        assert _bin_index(0.500001, 4) == 3


class TestReliabilityBins:
    def test_hand_case_occupancy(self):
        bins = report_bins(hand_four(), 10)
        assert len(bins) == 10
        counts = [b.count for b in bins]
        assert counts == [0, 0, 0, 0, 0, 1, 1, 0, 1, 1]
        assert bins[5].confidence == pytest.approx(0.55)
        assert bins[5].accuracy == 0.0
        assert bins[9].accuracy == 1.0

    def test_all_bins_present_and_conserve_counts(self, rng):
        preds = []
        for i in range(500):
            k = 3
            p = rng.dirichlet(np.ones(k))
            p = np.maximum(p, 1e-9)
            p /= p.sum()
            preds.append(pred(p, int(rng.integers(k)), f"s{i}"))
        bins = report_bins(preds, 7)
        assert len(bins) == 7
        assert sum(b.count for b in bins) == len(preds)
        for b in bins:
            assert b.lower < b.upper
            if b.empty:
                assert b.count == 0
                assert b.accuracy == 0.0 and b.confidence == 0.0
            else:
                assert b.lower < b.confidence <= b.upper + 1e-15

    def test_bin_statistics_are_masked_means(self, rng):
        # By definition a bin's statistics are numpy means over its members
        # in input order; bit for bit, not just close.
        probs = rng.dirichlet(np.ones(3), size=2000)
        labels = rng.integers(3, size=2000)
        preds = [pred(p, int(y), f"s{i}") for i, (p, y) in enumerate(zip(probs, labels))]
        conf = probs.max(axis=1)
        correct = (probs.argmax(axis=1) == labels).astype(int)
        idx = np.array([min(max(math.ceil(c * 10), 1), 10) for c in conf.tolist()])
        for b, got in enumerate(report_bins(preds, 10), start=1):
            mask = idx == b
            assert got.count == int(mask.sum())
            if got.count:
                assert got.confidence == float(conf[mask].mean())
                assert got.accuracy == float(correct[mask].mean())

    def test_rejects_empty_input_and_bad_bin_count(self):
        with pytest.raises(ValueError):
            report_bins([], 10)
        with pytest.raises(ValueError):
            report_bins(hand_four(), 0)


class TestEce:
    def test_hand_case(self):
        assert ece(hand_four(), 10) == pytest.approx(0.275, abs=1e-12)

    def test_perfectly_calibrated_stays_small(self):
        rng = np.random.default_rng(88)
        preds = []
        for i in range(60_000):
            c = float(rng.uniform(0.5, 1.0))
            correct = bool(rng.random() < c)
            label = 0 if correct else 1
            preds.append(pred([c, 1.0 - c], label, f"s{i}"))
        assert ece(preds, 10) < 0.02

    def test_uniform_collapse_masks_error_rate(self):
        rng = np.random.default_rng(13)
        k = 100
        preds = [
            pred(np.full(k, 1.0 / k), int(rng.integers(k)), f"s{i}")
            for i in range(5000)
        ]
        report = calibration_report(preds)
        assert report.accuracy == pytest.approx(1.0 / k, abs=0.01)
        assert report.ece < 0.01

    def test_single_bin_equals_overall_gap(self):
        preds = hand_four()
        conf_mean = (0.95 + 0.85 + 0.65 + 0.55) / 4.0
        acc = 0.75
        assert ece(preds, 1) == pytest.approx(abs(acc - conf_mean), abs=1e-12)


class TestConfidenceHistograms:
    def test_hand_case_counts_and_rate(self):
        hist_c, hist_i, rate = report_histograms(hand_four(), 10, 0.8)
        assert hist_c.tolist() == [0, 0, 0, 0, 0, 0, 1, 0, 1, 1]
        assert hist_i.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]
        # No incorrect prediction clears the 0.8 bar.
        assert rate == 0.0

    def test_overconfident_error_rate(self):
        preds = [
            pred([0.95, 0.05], 1, "a"),
            pred([0.85, 0.15], 1, "b"),
            pred([0.55, 0.45], 1, "c"),
            pred([0.9, 0.1], 0, "d"),
        ]
        _, hist_i, rate = report_histograms(preds, 10, 0.8)
        assert int(hist_i.sum()) == 3
        assert rate == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_counts_conserved(self, rng):
        preds = []
        for i in range(300):
            p = rng.dirichlet(np.ones(4))
            p = np.maximum(p, 1e-9)
            p /= p.sum()
            preds.append(pred(p, int(rng.integers(4)), f"s{i}"))
        hist_c, hist_i, _ = report_histograms(preds, 10, 0.8)
        n_correct = sum(correctness(q.mean.p, q.label) for q in preds)
        assert int(hist_c.sum()) == n_correct
        assert int(hist_i.sum()) == len(preds) - n_correct

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            report_histograms(hand_four(), 10, 1.5)


class TestMetrics:
    def test_hand_accuracy_and_nll(self):
        accuracy, _, nll = report_metrics(hand_four())
        assert accuracy == 0.75
        expected_nll = -(
            math.log(0.95) + math.log(0.85) + math.log(0.65) + math.log(0.45)
        ) / 4.0
        assert nll == pytest.approx(expected_nll, rel=1e-12)

    def test_macro_f1_matches_brute_force(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(5, 60))
            preds = []
            for i in range(n):
                p = rng.dirichlet(np.ones(k))
                p = np.maximum(p, 1e-9)
                p /= p.sum()
                preds.append(pred(p, int(rng.integers(k)), f"s{i}"))
            _, macro_f1, _ = report_metrics(preds)
            pred_classes = [int(np.argmax(q.mean.p)) for q in preds]
            labels = [q.label for q in preds]
            assert macro_f1 == pytest.approx(
                brute_force_macro_f1(pred_classes, labels, k), rel=1e-12
            )

    def test_macro_f1_hand_case(self):
        # Class 2 never appears and is excluded; class 1 has support but
        # zero true positives and contributes 0.
        preds = [
            pred([0.9, 0.05, 0.05], 0, "a"),
            pred([0.8, 0.1, 0.1], 0, "b"),
            pred([0.7, 0.2, 0.1], 1, "c"),
        ]
        _, macro_f1, _ = report_metrics(preds)
        assert macro_f1 == pytest.approx((0.8 + 0.0) / 2.0, rel=1e-12)

    def test_nll_floor_keeps_zero_probability_finite(self):
        p = pred([1.0, 0.0], 1, "a")
        _, _, nll = report_metrics([p])
        assert nll == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_nll_orders_prediction_quality(self):
        sharp = [pred([0.99, 0.01], 0, "a")]
        blunt = [pred([0.6, 0.4], 0, "a")]
        assert report_metrics(sharp)[2] < report_metrics(blunt)[2]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            report_metrics([])


class TestCalibrationReport:
    def test_fields_agree_with_components(self):
        preds = hand_four()
        report = calibration_report(preds, 10, 0.8)
        assert isinstance(report, CalibrationReport)
        assert report.ece == ece(preds, 10)
        assert report.accuracy == 0.75
        assert report.macro_f1 == pytest.approx(brute_force_macro_f1([0, 0, 0, 0], [0, 0, 0, 1], 2), rel=1e-12)
        assert report.nll == pytest.approx(-math.log(0.95 * 0.85 * 0.65 * 0.45) / 4.0, rel=1e-12)
        assert len(report.bins) == 10

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pred([0.5, 0.5], 2)
        with pytest.raises(ValueError):
            pred([0.5, 0.5], -1)
