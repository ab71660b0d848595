"""Variance thresholding, risk-coverage sweeps, and abstention reports."""

from __future__ import annotations

import math

import numpy as np
import pytest

from direns.selective import (
    ABSTAIN_TAU,
    ScoredSample,
    calibrate_threshold,
    risk_coverage_curve,
    selective_report,
    variance_bin_edges,
    variance_histograms,
)


def scored(variance, label, mean=None, sid="s"):
    if mean is None:
        mean = [0.7, 0.3] if label == 0 else [0.3, 0.7]
    return ScoredSample(
        sample_id=sid, mean=np.array(mean, dtype=float), variance=variance, label=label
    )


def hand_four() -> list[ScoredSample]:
    # Correct, correct, incorrect, correct in increasing variance order.
    return [
        scored(0.001, 0, sid="a"),
        scored(0.002, 0, sid="b"),
        scored(0.01, 1, mean=[0.8, 0.2], sid="c"),
        scored(0.05, 1, sid="d"),
    ]


def random_set(rng, n, sep=False) -> list[ScoredSample]:
    out = []
    for i in range(n):
        correct = bool(rng.random() < 0.7)
        label = int(rng.integers(2))
        mean = [0.75, 0.25] if label == 0 else [0.25, 0.75]
        if not correct:
            mean = mean[::-1]
        if sep:
            v = float(rng.uniform(0.0, 0.01) if correct else rng.uniform(0.05, 0.2))
        else:
            v = float(rng.uniform(0.0, 0.2))
        out.append(scored(v, label, mean=mean, sid=f"s{i:04d}"))
    return out


class TestCalibrateThreshold:
    def test_hand_case(self):
        result = calibrate_threshold(hand_four(), 0.1)
        assert result.tau == 0.002
        assert result.cal_coverage == 0.5
        assert result.achieved_cal_risk == 0.0

    def test_all_correct_keeps_everything(self):
        samples = [scored(0.01 * (i + 1), 0, sid=f"s{i}") for i in range(5)]
        result = calibrate_threshold(samples, 0.1)
        assert result.tau == 0.05
        assert result.cal_coverage == 1.0
        assert result.achieved_cal_risk == 0.0

    def test_all_incorrect_abstains(self):
        samples = [
            scored(0.01 * (i + 1), 1, mean=[0.9, 0.1], sid=f"s{i}") for i in range(5)
        ]
        result = calibrate_threshold(samples, 0.1)
        assert result.tau == ABSTAIN_TAU
        assert result.cal_coverage == 0.0
        assert result.achieved_cal_risk == 0.0

    def test_tied_variances_move_as_a_block(self):
        # The incorrect sample shares its variance with a correct one; the
        # threshold cannot split the tie, so both stay out.
        samples = [
            scored(0.001, 0, sid="a"),
            scored(0.002, 0, sid="b"),
            scored(0.002, 1, mean=[0.9, 0.1], sid="c"),
            scored(0.003, 0, sid="d"),
        ]
        result = calibrate_threshold(samples, 0.1)
        assert result.tau == 0.001
        assert result.cal_coverage == 0.25

    def test_risk_bound_holds_exactly_on_random_sets(self):
        rng = np.random.default_rng(77)
        for trial in range(200):
            samples = random_set(rng, int(rng.integers(5, 120)))
            r = float(rng.uniform(0.02, 0.5))
            result = calibrate_threshold(samples, r)
            if result.cal_coverage > 0.0:
                assert result.achieved_cal_risk <= r
                retained = [s for s in samples if s.variance <= result.tau]
                errors = sum(1 for s in retained if np.argmax(s.mean.p) != s.label)
                assert result.achieved_cal_risk == errors / len(retained)

    def test_largest_qualifying_prefix_is_chosen(self):
        rng = np.random.default_rng(42)
        samples = random_set(rng, 60)
        r = 0.25
        result = calibrate_threshold(samples, r)
        ordered = sorted(samples, key=lambda s: (s.variance, s.sample_id))
        kept = [s for s in ordered if s.variance <= result.tau]
        beyond = [s for s in ordered if s.variance > result.tau]
        # Any strictly larger closed prefix must violate the risk bound.
        n_kept = len(kept)
        errors = sum(1 for s in kept if np.argmax(s.mean.p) != s.label)
        seen = set(s.variance for s in kept)
        for s in beyond:
            n_kept += 1
            errors += int(np.argmax(s.mean.p) != s.label)
            seen.add(s.variance)
            closed = n_kept == sum(1 for q in ordered if q.variance in seen)
            if closed:
                assert errors / n_kept > r

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            calibrate_threshold(hand_four(), 0.0)
        with pytest.raises(ValueError):
            calibrate_threshold(hand_four(), 1.0)
        with pytest.raises(ValueError):
            calibrate_threshold([], 0.1)


def decision(s: ScoredSample, tau: float):
    [(sid, d)] = selective_report([s], tau).decisions
    assert sid == s.sample_id
    return d


class TestDecide:
    def test_below_threshold_predicts_argmax(self):
        s = scored(0.001, 0, mean=[0.3, 0.7])
        assert type(decision(s, 0.002)) is int
        assert decision(s, 0.002) == 1

    def test_above_threshold_abstains(self):
        s = scored(0.01, 0, mean=[0.7, 0.3])
        assert decision(s, 0.002) is None

    def test_boundary_is_inclusive(self):
        s = scored(0.002, 0, mean=[0.7, 0.3])
        assert decision(s, 0.002) == 0

    def test_abstain_sentinel_rejects_everything(self):
        assert decision(scored(0.0, 0), ABSTAIN_TAU) is None


class TestRiskCoverageCurve:
    def test_hand_case(self):
        points = risk_coverage_curve(hand_four())
        assert [p.coverage for p in points] == [0.25, 0.5, 0.75, 1.0]
        assert points[0].risk == 0.0
        assert points[1].risk == 0.0
        assert points[2].risk == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert points[3].risk == pytest.approx(0.25, rel=1e-15)

    def test_all_correct_curve_is_flat(self):
        samples = [scored(0.01 * (i + 1), 0, sid=f"s{i}") for i in range(4)]
        points = risk_coverage_curve(samples)
        assert [p.risk for p in points] == [0.0] * 4
        assert points[-1].coverage == 1.0

    def test_one_point_per_distinct_variance(self):
        samples = [
            scored(0.01, 0, sid="a"),
            scored(0.01, 0, sid="b"),
            scored(0.02, 0, sid="c"),
        ]
        points = risk_coverage_curve(samples)
        assert len(points) == 2
        assert points[0].coverage == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_coverage_strictly_increasing_and_matches_recount(self):
        rng = np.random.default_rng(99)
        samples = random_set(rng, 1000)
        points = risk_coverage_curve(samples)
        coverages = [p.coverage for p in points]
        assert all(a < b for a, b in zip(coverages, coverages[1:]))
        assert coverages[-1] == 1.0
        for p in points:
            kept = [s for s in samples if s.variance <= p.tau_at_point]
            errors = sum(1 for s in kept if np.argmax(s.mean.p) != s.label)
            assert p.coverage == len(kept) / len(samples)
            assert p.risk == errors / len(kept)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            risk_coverage_curve([])


class TestVarianceHistograms:
    def test_counts_conserved(self):
        rng = np.random.default_rng(3)
        samples = random_set(rng, 200)
        hist_c, hist_i = variance_histograms(samples, 10)
        n_correct = sum(1 for s in samples if np.argmax(s.mean.p) == s.label)
        assert int(hist_c.sum()) == n_correct
        assert int(hist_i.sum()) == len(samples) - n_correct

    def test_separated_populations_occupy_disjoint_bins(self):
        rng = np.random.default_rng(4)
        samples = random_set(rng, 400, sep=True)
        hist_c, hist_i = variance_histograms(samples, 10)
        top_correct = max(i for i, c in enumerate(hist_c) if c > 0)
        low_incorrect = min(i for i, c in enumerate(hist_i) if c > 0)
        assert top_correct < low_incorrect

    def test_identical_variances_fall_into_one_bin(self):
        samples = [scored(0.01, 0, sid=f"s{i}") for i in range(6)]
        hist_c, hist_i = variance_histograms(samples, 8)
        assert hist_c[0] == 6
        assert int(hist_c.sum() + hist_i.sum()) == 6

    def test_zero_variances_are_binned(self):
        samples = [scored(0.0, 0, sid="a"), scored(0.5, 0, sid="b")]
        hist_c, _ = variance_histograms(samples, 4)
        assert int(hist_c.sum()) == 2

    def test_edges_are_increasing(self):
        rng = np.random.default_rng(5)
        samples = random_set(rng, 50)
        edges = variance_bin_edges(samples, 10)
        assert len(edges) == 11
        assert all(a < b for a, b in zip(edges, edges[1:]))


class TestSelectiveReport:
    def test_hand_case(self):
        report = selective_report(hand_four(), 0.002)
        kept = [d for _, d in report.decisions if d is not None]
        assert kept == [0, 0]
        assert report.retained_metrics.n == 2
        assert report.retained_metrics.accuracy == 1.0
        assert report.full_metrics.n == 4
        assert report.full_metrics.accuracy == 0.75

    def test_abstain_everything(self):
        report = selective_report(hand_four(), ABSTAIN_TAU)
        assert all(d is None for _, d in report.decisions)
        assert report.retained_metrics.n == 0
        assert report.retained_metrics.accuracy is None

    def test_keep_everything(self):
        report = selective_report(hand_four(), math.inf)
        assert all(d is not None for _, d in report.decisions)
        assert report.retained_metrics.n == 4

    def test_decision_order_matches_input(self):
        report = selective_report(hand_four(), 0.002)
        assert [sid for sid, _ in report.decisions] == ["a", "b", "c", "d"]
