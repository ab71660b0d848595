"""Special-function accuracy against high-precision oracles."""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from direns.specfun import (
    _trigamma,
    digamma,
    inverse_digamma,
    log_gamma,
    log_multivariate_beta,
)

mpmath.mp.dps = 40

# Positive root of the digamma function.
DIGAMMA_ROOT = 1.4616321449683623


def mp_loggamma(x: float) -> float:
    return float(mpmath.loggamma(mpmath.mpf(x)))

def mp_digamma(x: float) -> float:
    return float(mpmath.digamma(mpmath.mpf(x)))


class TestLogGamma:
    def test_matches_oracle_over_wide_range(self):
        grid = np.concatenate(
            [
                np.geomspace(1e-3, 1e3, 400),
                np.linspace(0.8, 2.4, 400),
                np.linspace(1e-3, 0.9, 200),
            ]
        )
        for x in grid:
            x = float(x)
            ref = mp_loggamma(x)
            got = log_gamma(x)
            err = abs(got - ref) / max(abs(ref), 1e-300)
            assert err <= 1e-12, f"x={x}: rel err {err}"

    def test_near_the_zeros(self):
        # Gamma's log vanishes at 1 and 2; relative accuracy must survive there.
        for base in (1.0, 2.0):
            for d in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.19, 0.21):
                for x in (base - d, base + d):
                    if x <= 0:
                        continue
                    ref = mp_loggamma(x)
                    got = log_gamma(x)
                    if ref == 0.0:
                        assert got == 0.0
                    else:
                        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_factorials_bit_exact(self):
        for n in range(1, 21):
            expected = math.log(math.factorial(n - 1))
            assert log_gamma(float(n)) == expected

    def test_large_arguments(self):
        for x in (1e4, 1e6, 1e8, 1e12):
            ref = mp_loggamma(x)
            assert abs(log_gamma(x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


class TestDigamma:
    def test_absolute_accuracy(self):
        grid = np.concatenate(
            [np.geomspace(1e-3, 1e3, 400), np.linspace(0.1, 100.0, 600)]
        )
        worst = 0.0
        for x in grid:
            x = float(x)
            err = abs(digamma(x) - mp_digamma(x))
            worst = max(worst, err)
        assert worst <= 1e-10, f"worst abs err {worst}"

    def test_recurrence(self):
        for x in np.linspace(0.1, 100.0, 997):
            x = float(x)
            lhs = digamma(x + 1.0)
            rhs = digamma(x) + 1.0 / x
            assert abs(lhs - rhs) <= 1e-10, f"x={x}"

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
    def test_recurrence_property(self, x):
        assert abs(digamma(x + 1.0) - (digamma(x) + 1.0 / x)) <= 1e-10

    def test_strictly_increasing_on_positives(self):
        grid = np.geomspace(1e-2, 1e4, 300)
        values = [digamma(float(x)) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_known_values(self):
        euler_gamma = 0.5772156649015329
        assert abs(digamma(1.0) + euler_gamma) <= 1e-10
        assert abs(digamma(0.5) + 2.0 * math.log(2.0) + euler_gamma) <= 1e-10
        assert abs(digamma(DIGAMMA_ROOT)) <= 1e-10

    def test_within_target_of_mpmath_over_documented_domain(self):
        # The difference is taken in mpmath against the exact value: near
        # 1e-6 one ulp of psi is 1.16e-10, so rounding the reference to a
        # double first could by itself cost more than the target.
        rng = np.random.default_rng(31)
        grid = np.concatenate(
            [[1e-6, 1e8], np.exp(rng.uniform(math.log(1e-6), math.log(1e8), 3000))]
        )
        with mpmath.workdps(40):
            worst = max(
                abs(mpmath.mpf(digamma(x)) - mpmath.digamma(mpmath.mpf(x))) for x in grid.tolist()
            )
        assert worst <= 1e-10, f"worst abs err {worst}"

    @pytest.mark.parametrize("x", [1e-300, 1e-305, 1e-308, 6e-309])
    def test_tiny_arguments_stay_accurate(self, x):
        # Down to subnormal x, as long as -1/x is finite.
        got = digamma(x)
        assert type(got) is float
        assert abs(got - mp_digamma(x)) <= 1e-15 * abs(mp_digamma(x))
        assert digamma(np.array([x, 2.0]))[0] == got

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)
        with pytest.raises(ValueError):
            digamma(np.array([1.0, bad]))


class TestTrigamma:
    def test_against_oracle(self):
        for x in np.geomspace(1e-2, 1e3, 300):
            x = float(x)
            ref = float(mpmath.psi(1, mpmath.mpf(x)))
            assert abs(_trigamma(x) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_consistent_with_digamma_derivative(self):
        h = 1e-5
        for x in np.geomspace(0.5, 1000.0, 200):
            x = float(x)
            fd = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
            assert abs(_trigamma(x) - fd) <= 1e-6 * max(1.0, abs(fd))


class TestInverseDigamma:
    def test_round_trip_in_y(self):
        for y in np.linspace(-20.0, 20.0, 1001):
            y = float(y)
            x = inverse_digamma(y)
            assert x > 0.0
            assert abs(digamma(x) - y) <= 1e-10, f"y={y}"

    def test_round_trip_in_x(self):
        for x in np.geomspace(1e-6, 1e6, 200):
            x = float(x)
            back = inverse_digamma(digamma(x))
            assert abs(back - x) <= 1e-8 * x

    def test_zero_maps_to_digamma_root(self):
        assert abs(inverse_digamma(0.0) - DIGAMMA_ROOT) <= 1e-8

    def test_monotone_in_y(self):
        ys = np.linspace(-30.0, 30.0, 200)
        xs = [inverse_digamma(float(y)) for y in ys]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_extreme_arguments_stay_finite(self):
        for y in (-745.0, -100.0, 100.0, 700.0, 1000.0):
            x = inverse_digamma(float(y))
            assert math.isfinite(x) and x > 0.0

    def test_beyond_exp_overflow_stays_finite_without_warnings(self):
        ys = np.random.default_rng(8).uniform(709.5, 750.0, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs = inverse_digamma(ys)
            assert np.isfinite(xs).all() and np.all(xs > 0.0)
            assert all(math.isfinite(inverse_digamma(y)) for y in ys[:10].tolist())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            inverse_digamma(bad)
        with pytest.raises(ValueError):
            inverse_digamma(np.array([0.0, bad]))


class TestArrayCalls:
    """An array call gives every element the bits of the scalar call."""

    rng = np.random.default_rng(12)
    XS = np.concatenate(
        [[1e-6, 1.0, 6.0, 1e8, 1.7e308], np.exp(rng.uniform(math.log(1e-6), math.log(1e8), 2000))]
    )
    YS = np.concatenate(
        [[-745.0, -2.22, 0.0, 709.0, 1000.0], rng.uniform(-40.0, 40.0, 500), rng.uniform(709.5, 750.0, 20)]
    )

    @pytest.mark.parametrize("fn", [digamma, _trigamma], ids=["digamma", "trigamma"])
    def test_digamma_and_trigamma(self, fn):
        got = fn(self.XS)
        assert got.shape == self.XS.shape
        assert got.tobytes() == np.array([fn(x) for x in self.XS.tolist()]).tobytes()
        matrix = fn(self.XS[:2000].reshape(40, 50))
        assert matrix.tobytes() == got[:2000].tobytes()

    def test_inverse_digamma(self):
        got = inverse_digamma(self.YS)
        assert got.tobytes() == np.array([inverse_digamma(y) for y in self.YS.tolist()]).tobytes()
        # Elements stop on their own: the batch neighbours do not matter.
        assert inverse_digamma(self.YS[::-1]).tobytes() == got[::-1].tobytes()
        assert inverse_digamma(self.YS[:520].reshape(20, 26)).tobytes() == got[:520].tobytes()

    def test_scalar_calls_return_floats(self):
        assert type(digamma(2.0)) is float
        assert type(_trigamma(2.0)) is float
        assert type(inverse_digamma(0.5)) is float


class TestLogMultivariateBeta:
    def test_matches_pairwise_beta(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(0.05, 50.0, size=2)
            ref = float(sp.betaln(a, b))
            got = log_multivariate_beta(np.array([a, b]))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_matches_oracle_for_larger_k(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = int(rng.integers(3, 8))
            alpha = rng.uniform(0.1, 20.0, size=k)
            ref = float(
                sum(mpmath.loggamma(a) for a in alpha)
                - mpmath.loggamma(mpmath.fsum(alpha))
            )
            got = log_multivariate_beta(alpha)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_uniform_case_is_negative_log_simplex_volume(self):
        # B(1,...,1) = (K-1)!^{-1}.
        for k in range(2, 10):
            got = log_multivariate_beta(np.ones(k))
            assert abs(got + math.log(math.factorial(k - 1))) <= 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            log_multivariate_beta(np.array([2.0]))
        with pytest.raises(ValueError):
            log_multivariate_beta(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            log_multivariate_beta(np.array([1.0, float("inf")]))
