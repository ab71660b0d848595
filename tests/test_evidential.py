"""Softmax cross entropy, closed-form evidential losses, and the KL schedule."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from direns.dirichlet import DirichletParams, class_variance, kl_to_uniform, predictive_mean
from direns.evidential import (
    annealed_lambda,
    ce_gradient,
    ce_loss,
    digamma_loss,
    losses,
    mse_loss,
    softmax,
)


def params(*alpha: float) -> DirichletParams:
    return DirichletParams(np.array(alpha, dtype=float))


def mse_kl_loss(d: DirichletParams, y: int, weight: float) -> float:
    # The mse-kl loss of one Dirichlet, its n=1 call.
    return float(losses("mse-kl", d.alpha[None], np.array([d.alpha0]), [y], weight)[0])


def log_evidence_penalty(d: DirichletParams, weight: float) -> float:
    # The log-ev loss of one Dirichlet, which takes no label.
    return float(losses("log-ev", d.alpha[None], np.array([d.alpha0]), [0], weight)[0])


class TestSoftmax:
    def test_uniform_logits(self):
        p = softmax(np.zeros(4)).p
        np.testing.assert_allclose(p, 0.25, rtol=1e-15)

    def test_hand_value(self):
        p = softmax(np.array([1.0, 0.0])).p
        e = math.exp(1.0)
        np.testing.assert_allclose(p, [e / (1 + e), 1 / (1 + e)], rtol=1e-14)

    def test_extreme_logits_stay_finite(self):
        p = softmax(np.array([1000.0, -1000.0, 0.0])).p
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_temperature_flattens(self):
        z = np.array([2.0, 0.0, -1.0])
        sharp = softmax(z, T=0.5).p
        flat = softmax(z, T=5.0).p
        assert sharp.max() > flat.max()

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            softmax(np.array([0.0, 1.0]), T=0.0)


class TestCrossEntropy:
    def test_hand_value(self):
        p = np.array([0.25, 0.75])
        assert ce_loss(p, 1) == pytest.approx(-math.log(0.75), rel=1e-14)
        assert ce_loss(p, 0) == pytest.approx(-math.log(0.25), rel=1e-14)

    def test_nonnegative(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            p = np.maximum(p, 1e-12)
            p /= p.sum()
            assert ce_loss(p, int(rng.integers(k))) >= 0.0

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            ce_loss(np.array([0.0, 1.0]), 0)

    def test_gradient_is_softmax_minus_onehot(self):
        z = np.array([0.5, -1.0, 2.0])
        g = ce_gradient(z, 2)
        expected = softmax(z).p.copy()
        expected[2] -= 1.0
        np.testing.assert_allclose(g, expected, rtol=1e-14)

    def test_gradient_finite_differences(self, rng):
        h = 1e-6
        for _ in range(100):
            k = int(rng.integers(2, 6))
            z = rng.uniform(-8.0, 8.0, size=k)
            y = int(rng.integers(k))
            g = ce_gradient(z, y)
            for j in range(k):
                up = z.copy()
                up[j] += h
                down = z.copy()
                down[j] -= h
                fd = (
                    ce_loss(softmax(up).p, y) - ce_loss(softmax(down).p, y)
                ) / (2.0 * h)
                assert g[j] == pytest.approx(fd, abs=1e-6)

    def test_gradient_bounded_even_for_huge_logits(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.uniform(-500.0, 500.0, size=k)
            g = ce_gradient(z, int(rng.integers(k)))
            assert np.all(g >= -1.0) and np.all(g <= 1.0)
            assert abs(float(g.sum())) <= 1e-12


class TestMseLoss:
    def test_hand_value(self):
        # (2,2), y=0: residuals 0.5 each, variances 0.05 each.
        assert mse_loss(params(2.0, 2.0), 0) == pytest.approx(0.6, abs=1e-12)

    def test_matches_second_moment_expansion(self, rng):
        # E||y - p||^2 via E[p_k^2] = mu_k (alpha_k + 1) / (alpha0 + 1).
        for _ in range(300):
            k = int(rng.integers(2, 7))
            alpha = rng.uniform(0.1, 60.0, size=k)
            y = int(rng.integers(k))
            d = DirichletParams(alpha)
            mu = predictive_mean(d).p
            second = mu * (alpha + 1.0) / (d.alpha0 + 1.0)
            expected = math.fsum(second.tolist()) - 2.0 * mu[y] + 1.0
            assert mse_loss(d, y) == pytest.approx(expected, rel=1e-11, abs=1e-12)

    def test_decomposes_into_bias_and_variance(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            d = DirichletParams(rng.uniform(0.2, 30.0, size=k))
            y = int(rng.integers(k))
            mu = predictive_mean(d).p
            onehot = np.zeros(k)
            onehot[y] = 1.0
            bias = float(((onehot - mu) ** 2).sum())
            var = math.fsum(class_variance(d, j) for j in range(k))
            assert mse_loss(d, y) == pytest.approx(bias + var, rel=1e-12)


class TestDigammaLoss:
    def test_hand_value(self):
        # psi(4) - psi(2) = 1/2 + 1/3.
        assert digamma_loss(params(2.0, 2.0), 0) == pytest.approx(5.0 / 6.0, abs=1e-10)

    def test_matches_scipy_psi(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            alpha = rng.uniform(0.1, 80.0, size=k)
            y = int(rng.integers(k))
            ref = float(special.digamma(alpha.sum()) - special.digamma(alpha[y]))
            assert digamma_loss(DirichletParams(alpha), y) == pytest.approx(
                ref, rel=1e-9, abs=1e-9
            )

    def test_positive_and_shrinks_with_certainty(self):
        losses = [
            digamma_loss(params(c, 1.0), 0) for c in (1.0, 5.0, 50.0, 500.0)
        ]
        assert all(v > 0.0 for v in losses)
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestMseKlLoss:
    def test_is_mse_plus_weighted_kl(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            alpha = rng.uniform(0.2, 40.0, size=k)
            y = int(rng.integers(k))
            lam = float(rng.uniform(0.0, 2.0))
            d = DirichletParams(alpha)
            expected = mse_loss(d, y) + lam * kl_to_uniform(d)
            assert mse_kl_loss(d, y, lam) == pytest.approx(expected, rel=1e-13)

    def test_zero_weight_reduces_to_mse(self):
        d = params(2.0, 2.0)
        assert mse_kl_loss(d, 0, 0.0) == mse_loss(d, 0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            mse_kl_loss(params(2.0, 2.0), 0, -0.1)


class TestPenaltiesAndSchedules:
    def test_log_evidence_penalty(self):
        d = params(2.0, 2.0)
        assert log_evidence_penalty(d, 0.5) == pytest.approx(
            0.5 * math.log1p(4.0), rel=1e-14
        )
        assert log_evidence_penalty(d, 0.0) == 0.0
        with pytest.raises(ValueError):
            log_evidence_penalty(d, -1.0)

    def test_annealing_ramps_linearly(self):
        lam0, k, total = 1.0, 4, 10.0
        values = [annealed_lambda(lam0, k, t, total) for t in range(11)]
        assert values[0] == 0.0
        assert values[10] == pytest.approx(lam0 / k, rel=1e-15)
        diffs = np.diff(values)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-12)

    def test_annealing_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            annealed_lambda(1.0, 4, 11.0, 10.0)
        with pytest.raises(ValueError):
            annealed_lambda(1.0, 4, -1.0, 10.0)
        with pytest.raises(ValueError):
            annealed_lambda(1.0, 1, 5.0, 10.0)
        with pytest.raises(ValueError):
            annealed_lambda(1.0, 4, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_and_epochs_rejected(self, bad):
        d = params(2.0, 3.0)
        calls = [
            lambda: annealed_lambda(bad, 4, 1.0, 10.0),
            lambda: annealed_lambda(1.0, 4, bad, 10.0),
            lambda: annealed_lambda(1.0, 4, 1.0, bad),
            lambda: mse_kl_loss(d, 0, bad),
            lambda: log_evidence_penalty(d, bad),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()


class TestInputWrappers:
    def test_logit_vector_validation(self):
        for z in (np.array([1.0]), np.array([1.0, float("nan")])):
            with pytest.raises(ValueError):
                softmax(z)
            with pytest.raises(ValueError):
                ce_gradient(z, 0)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ce_loss(np.array([0.5, 0.5]), 2)
        with pytest.raises(ValueError):
            mse_loss(params(2.0, 2.0), 5)

    @pytest.mark.parametrize("label", [1.5, 0.9, float("nan"), float("inf"), np.float64(1.5)])
    def test_non_integer_label_rejected(self, label):
        # int() would truncate 1.5 and 0.9 to a class and fail on nan and
        # inf with other errors.
        calls = [
            lambda: ce_loss(np.array([0.25, 0.75]), label),
            lambda: ce_gradient(np.array([0.0, 1.0]), label),
            lambda: mse_loss(params(2.0, 2.0), label),
            lambda: losses("mse", np.array([[2.0, 2.0]]), np.array([4.0]), np.array([label])),
            lambda: losses("digamma", np.array([[2.0, 2.0]]), np.array([4.0]), [label]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"label {label} is not an integer"):
                call()

    def test_integral_float_label_names_its_class(self):
        assert ce_loss(np.array([0.25, 0.75]), 1.0) == ce_loss(np.array([0.25, 0.75]), 1)
        alpha, alpha0 = np.array([[2.0, 3.0, 5.0]]), np.array([10.0])
        assert losses("mse", alpha, alpha0, np.array([2.0])) == losses("mse", alpha, alpha0, np.array([2]))
        assert mse_loss(params(2.0, 3.0, 5.0), 2.0) == mse_loss(params(2.0, 3.0, 5.0), 2)
