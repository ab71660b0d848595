"""Dirichlet moments, density, divergence, and sampling."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from direns import dirichlet
from direns.dirichlet import (
    SIMPLEX_TOL,
    DirichletParams,
    ProbabilityVector,
    _exact_sum,
    _exact_sums,
    _simplex_rows,
    class_variance,
    kl_to_uniform,
    log_density,
    log_likelihood,
    predictive_mean,
    sample,
    total_variance,
)
from direns.estimators import EnsembleSample, fit_mle, fit_mom
from direns.fileio import ValidationError, read_predictions


def params(*alpha: float) -> DirichletParams:
    return DirichletParams(np.array(alpha, dtype=float))


def oracle_logpdf(p: np.ndarray, alpha: np.ndarray) -> float:
    norm = special.gammaln(alpha.sum()) - special.gammaln(alpha).sum()
    return float(norm + ((alpha - 1.0) * np.log(p)).sum())


class TestParams:
    def test_basic_properties(self):
        d = params(3.0, 1.0, 0.5)
        assert d.k == 3
        assert d.alpha0 == pytest.approx(4.5, abs=0)

    @pytest.mark.parametrize(
        "alpha",
        [[2.0], [1.0, 0.0], [1.0, -3.0], [1.0, float("nan")], [1.0, float("inf")]],
    )
    def test_rejects_invalid(self, alpha):
        with pytest.raises(ValueError):
            DirichletParams(np.array(alpha, dtype=float))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            DirichletParams(np.ones((2, 2)))


class TestProbabilityVector:
    def test_accepts_near_simplex(self):
        v = ProbabilityVector(np.array([0.3, 0.7 + 5e-7]))
        assert v.p.shape == (2,)

    @pytest.mark.parametrize(
        "p", [[0.5, 0.6], [0.5, 0.4], [-0.1, 1.1], [1.5, -0.5]]
    )
    def test_rejects_off_simplex(self, p):
        with pytest.raises(ValueError):
            ProbabilityVector(np.array(p, dtype=float))


class TestSimplexCheck:
    # Misses of 1 around the 1e-6 tolerance, and inside the float-sum gate.
    MISSES = [2e-10, -4e-10, 9e-7, -9.999999e-7, 1.0000001e-6, -1.0000001e-6, 1.1e-6, 3e-6]

    def rows(self) -> np.ndarray:
        return np.array([[0.25, 0.25 + d, 0.5] for d in self.MISSES] + [[1.5, -0.5, 0.0], [np.nan, 0.5, 0.5]])

    def test_exact_totals_beyond_the_gate(self):
        rows = self.rows()
        in_bounds, totals = _simplex_rows(rows)
        assert in_bounds.tolist() == [True] * len(self.MISSES) + [False, False]
        assert np.isnan(totals[~in_bounds]).all()
        for row, total in zip(rows[in_bounds].tolist(), totals[in_bounds].tolist()):
            if abs(total - 1.0) > 5e-10:
                assert total == math.fsum(row)

    @pytest.mark.parametrize("k", [3, 50])
    def test_block_size_changes_no_bit(self, monkeypatch, k):
        # Rows are checked a block at a time; every verdict and sum is bitwise
        # what one pass over the whole array gives, wherever the blocks end.
        rng = np.random.default_rng(k)
        p = rng.dirichlet(np.full(k, 0.3), size=200)
        p[::7, 0] += rng.choice([2e-10, -4e-10, 9e-7, 3e-6], size=p[::7].shape[0])
        p[3::11, 1] = rng.choice([-0.5, 1.5, np.nan, np.inf], size=p[3::11].shape[0])
        inside = ((p >= 0.0) & (p <= 1.0)).all(axis=1)
        sums = p.sum(axis=1, where=inside[:, None])
        sums[~inside] = np.nan
        far = np.flatnonzero(np.abs(sums - 1.0) > 5e-10)
        sums[far] = dirichlet._exact_sums(p[far])
        for rows in (1, 7, len(p)):
            monkeypatch.setattr(dirichlet, "_SIMPLEX_BLOCK", rows * k)
            in_bounds, totals = _simplex_rows(p)
            assert in_bounds.tobytes() == inside.tobytes()
            assert totals.tobytes() == sums.tobytes()

    def test_rows_that_sum_to_one_skip_the_exact_sum(self, monkeypatch):
        calls = []
        two_sum = dirichlet._two_sum
        monkeypatch.setattr(dirichlet, "_two_sum", lambda a, b: calls.append(1) or two_sum(a, b))
        ProbabilityVector(np.array([0.25, 0.25, 0.5]))
        predictive_mean(params(2.0, 3.0, 5.0))
        assert not calls
        _simplex_rows(self.rows()[-3:])
        assert calls

    @pytest.mark.filterwarnings("ignore::direns.fileio.RenormalizationWarning")
    def test_point_ensemble_and_reader_decide_alike(self, tmp_path):
        for row in self.rows():
            in_bounds = bool(((row >= 0.0) & (row <= 1.0)).all())
            rejected = not (in_bounds and abs(math.fsum(row.tolist()) - 1.0) <= SIMPLEX_TOL)
            path = tmp_path / "p.csv"
            path.write_text("sample_id,model_id,p_0,p_1,p_2\n" + "".join(
                f"s0,m{j},{','.join(map(repr, row.tolist()))}\n" for j in range(2)))
            builders = [
                (ProbabilityVector, ValueError),
                (lambda r: EnsembleSample(np.stack([r, r])), ValueError),
                (lambda r: read_predictions(str(path)), ValidationError),
            ]
            for build, error in builders:
                if rejected:
                    with pytest.raises(error):
                        build(row)
                else:
                    build(row)


# Row entries for the exact sums: mixed signs over 1e+-30, ties at 2**-53
# beside 1, signed zeros, subnormals, values whose sums overflow, inf and NaN.
SUM_ENTRIES = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-30, 30)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 2.0**-53, -2.0**-53, 2.0**-54, 3 * 2.0**-53, 2.0**-52,
                     1e16, -1e16, 5e-324, -5e-324, 2.0**1019, 1.7e308, -1.7e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def sum_rows(draw):
    k = draw(st.integers(2, 12))
    a = np.array(draw(st.lists(st.lists(SUM_ENTRIES, min_size=k, max_size=k), min_size=1, max_size=8)))
    if draw(st.booleans()):
        # Cancel each row to what its last entry adds, as 1e16 + 1 - 1e16 does.
        with np.errstate(all="ignore"):
            a[:, 0] = a[:, 0] - np.sum(a, axis=1)
    return a


class TestExactSums:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(a=sum_rows())
    # 1 - 2**-54 is a tie that rounds up to 1, a power of two; a further
    # -2**-200 puts the sum below the tie, so fsum gives 1 - 2**-53.
    @example(a=np.array([[1.0, -2.0**-54, -2.0**-200], [1.0, -2.0**-54, 2.0**-200], [1.0, 2.0**-53, 0.0]]))
    def test_equal_to_fsum_per_row(self, a):
        assert _exact_sums(a).tobytes() == np.array([_exact_sum(row) for row in a]).tobytes()


class TestMoments:
    def test_symmetric_pair(self):
        d = params(2.0, 2.0)
        assert predictive_mean(d).p == pytest.approx([0.5, 0.5], abs=1e-12)
        assert class_variance(d, 0) == pytest.approx(0.05, abs=1e-12)
        assert class_variance(d, 1) == pytest.approx(0.05, abs=1e-12)
        assert total_variance(d) == pytest.approx(0.1, abs=1e-12)

    def test_asymmetric_case(self):
        d = params(3.0, 1.0, 0.5)
        mu = predictive_mean(d).p
        np.testing.assert_allclose(mu, [3 / 4.5, 1 / 4.5, 0.5 / 4.5], rtol=1e-14)
        v0 = (3 / 4.5) * (1 - 3 / 4.5) / 5.5
        assert class_variance(d, 0) == pytest.approx(v0, rel=1e-13)

    def test_total_variance_identity(self, rng):
        # Sum of per-class variances equals (1 - sum mu^2) / (a0 + 1).
        for _ in range(300):
            k = int(rng.integers(2, 8))
            d = DirichletParams(rng.uniform(0.05, 50.0, size=k))
            total = math.fsum(class_variance(d, j) for j in range(k))
            assert total_variance(d) == pytest.approx(total, rel=1e-12)
            mu = predictive_mean(d).p
            closed = (1.0 - float(mu @ mu)) / (d.alpha0 + 1.0)
            assert total_variance(d) == pytest.approx(closed, rel=1e-12)

    def test_scaling_shrinks_variance(self):
        d = params(3.0, 1.0, 0.5)
        d10 = params(30.0, 10.0, 5.0)
        np.testing.assert_allclose(predictive_mean(d).p, predictive_mean(d10).p, rtol=1e-14)
        ratio = total_variance(d) / total_variance(d10)
        assert ratio == pytest.approx((45.0 + 1.0) / (4.5 + 1.0), rel=1e-12)

    def test_class_variance_index_errors(self):
        d = params(2.0, 2.0)
        with pytest.raises(IndexError):
            class_variance(d, 2)
        with pytest.raises(IndexError):
            class_variance(d, -1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=6)
    )
    def test_mean_on_simplex_and_variance_positive(self, alpha):
        d = DirichletParams(np.array(alpha))
        mu = predictive_mean(d).p
        assert math.fsum(mu.tolist()) == pytest.approx(1.0, abs=1e-9)
        assert total_variance(d) > 0.0


class TestLogDensity:
    def test_matches_oracle(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            alpha = rng.uniform(0.2, 20.0, size=k)
            p = rng.dirichlet(np.full(k, 5.0))
            p = np.maximum(p, 1e-12)
            p = p / p.sum()
            got = log_density(DirichletParams(alpha), p)
            assert got == pytest.approx(oracle_logpdf(p, alpha), rel=1e-10, abs=1e-10)

    def test_normalizes_on_the_line(self):
        d = params(2.5, 4.0)

        def f(p0: float) -> float:
            return math.exp(log_density(d, np.array([p0, 1.0 - p0])))

        total, err = integrate.quad(f, 0.0, 1.0, limit=200)
        assert total == pytest.approx(1.0, abs=max(1e-8, 10 * err))

    def test_normalizes_on_the_triangle(self):
        d = params(3.0, 2.0, 1.5)

        def f(p1: float, p0: float) -> float:
            p2 = 1.0 - p0 - p1
            if p2 <= 1e-12:
                return 0.0
            return math.exp(log_density(d, np.array([p0, p1, p2])))

        total, err = integrate.dblquad(
            f, 0.0, 1.0, lambda p0: 0.0, lambda p0: 1.0 - p0
        )
        assert total == pytest.approx(1.0, abs=max(1e-6, 10 * err))

    def test_rejects_boundary_points(self):
        d = params(2.0, 2.0)
        with pytest.raises(ValueError):
            log_density(d, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            log_density(d, np.array([1.0, 0.0]))


class TestKLToUniform:
    def test_uniform_prior_is_zero_exactly(self):
        for k in range(2, 12):
            assert kl_to_uniform(DirichletParams(np.ones(k))) == 0.0

    def test_symmetric_pair_closed_form(self):
        # For (2,2): ln Gamma(4) - ln Gamma(2) - 2 ln Gamma(2)
        #            + 2 * (2-1) * (psi(2) - psi(4)) = ln 6 - 5/3.
        got = kl_to_uniform(params(2.0, 2.0))
        assert got == pytest.approx(math.log(6.0) - 5.0 / 3.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        alpha = np.array([2.0, 2.0])
        n = 200_000
        draws = np.random.default_rng(42).dirichlet(alpha, size=n)
        draws = np.clip(draws, 1e-15, None)
        draws /= draws.sum(axis=1, keepdims=True)
        norm = special.gammaln(alpha.sum()) - special.gammaln(alpha).sum()
        log_ratio = norm + ((alpha - 1.0) * np.log(draws)).sum(axis=1)
        mc = float(log_ratio.mean())
        se = float(log_ratio.std(ddof=1)) / math.sqrt(n)
        assert abs(kl_to_uniform(params(2.0, 2.0)) - mc) <= 3.0 * se

    def test_nonnegative_on_random_parameters(self, rng):
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            d = DirichletParams(rng.uniform(0.05, 80.0, size=k))
            assert kl_to_uniform(d) >= 0.0


class TestSampling:
    def test_shape_and_simplex(self):
        d = params(3.0, 1.0, 0.5)
        draws = sample(d, rng_seed=1, n=500)
        assert draws.shape == (500, 3)
        assert np.all(draws > 0.0)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        d = params(2.0, 5.0)
        a = sample(d, rng_seed=9, n=100)
        b = sample(d, rng_seed=9, n=100)
        np.testing.assert_array_equal(a, b)
        c = sample(d, rng_seed=10, n=100)
        assert not np.array_equal(a, c)

    def test_moments_match_closed_forms(self):
        d = params(3.0, 1.0, 0.5)
        n = 200_000
        draws = sample(d, rng_seed=7, n=n)
        mu = predictive_mean(d).p
        emp_mean = draws.mean(axis=0)
        # SE of the mean is sqrt(V_k / n); allow 4 sigma per component.
        for j in range(3):
            se = math.sqrt(class_variance(d, j) / n)
            assert abs(emp_mean[j] - mu[j]) <= 4.0 * se
        emp_var = draws.var(axis=0, ddof=1)
        for j in range(3):
            assert emp_var[j] == pytest.approx(class_variance(d, j), rel=0.05)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample(params(2.0, 2.0), rng_seed=0, n=0)


class TestLogLikelihood:
    def test_matches_per_row_oracle(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 5))
            alpha = rng.uniform(0.3, 15.0, size=k)
            m = int(rng.integers(2, 40))
            draws = rng.dirichlet(np.full(k, 3.0), size=m)
            draws = np.maximum(draws, 1e-12)
            draws /= draws.sum(axis=1, keepdims=True)
            ref = math.fsum(oracle_logpdf(row, alpha) for row in draws)
            got = log_likelihood(alpha, draws)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_accepts_params_object_and_single_row(self):
        d = params(2.0, 3.0)
        row = np.array([0.4, 0.6])
        got = log_likelihood(d, row)
        assert got == pytest.approx(oracle_logpdf(row, d.alpha), rel=1e-12)

    def test_rejects_boundary_samples(self):
        with pytest.raises(ValueError):
            log_likelihood(np.array([2.0, 2.0]), np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("rows, message", [
        # Positive but off the simplex: this returned 3.58.
        ([[2.0, 3.0]], "row 0 of the points is off the simplex: every probability must lie in [0, 1]"),
        ([0.2, 0.2], "row 0 of the points is off the simplex: probabilities must sum"),
        ([[0.5, 0.5], [0.25, 0.5]], "row 1 of the points is off the simplex: probabilities must sum to 1 within 1e-06"),
        ([[0.5, 0.5], [0.5, 0.5], [1.5, -0.5]], "row 2 of the points is off the simplex: every probability"),
        ([[0.5, 0.5], [np.nan, 0.5]], "row 1 of the points is off the simplex: every probability"),
        ([[0.5, 0.5 + 2e-6], [2.0, 2.0]], "row 0 of the points is off the simplex: probabilities must sum"),
    ])
    def test_rejects_points_off_the_simplex(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            log_likelihood(np.array([2.0, 2.0]), np.array(rows))

    def test_accepts_closure_within_the_tolerance(self):
        rows = np.array([[0.4, 0.6 + 0.9 * SIMPLEX_TOL], [0.5, 0.5 - 0.9 * SIMPLEX_TOL]])
        assert np.isfinite(log_likelihood(np.array([2.0, 3.0]), rows))

    def test_maximized_near_truth(self):
        # Likelihood of the generating parameters beats scaled copies.
        d = params(4.0, 2.0, 1.0)
        draws = sample(d, rng_seed=3, n=5000)
        at_truth = log_likelihood(d.alpha, draws)
        assert at_truth > log_likelihood(d.alpha * 3.0, draws)
        assert at_truth > log_likelihood(d.alpha / 3.0, draws)


class TestOneLikelihood:
    def test_every_likelihood_reaches_the_shared_terms(self, monkeypatch):
        # The Newton fit, the log-likelihood, the log density and the KL take
        # their log normalizer and class terms from one function.
        d = params(2.0, 3.0, 5.0)
        draws = sample(d, rng_seed=1, n=20)
        start = fit_mom(EnsembleSample(draws)).params
        terms = dirichlet._log_likelihood_terms
        calls = []
        monkeypatch.setattr(dirichlet, "_log_likelihood_terms", lambda *a: calls.append(1) or terms(*a))
        for name, call in [
            ("fit_mle", lambda: fit_mle(EnsembleSample(draws), start)),
            ("log_likelihood", lambda: log_likelihood(d, draws)),
            ("log_density", lambda: log_density(d, draws[0])),
            ("kl_to_uniform", lambda: kl_to_uniform(d)),
        ]:
            calls.clear()
            call()
            assert calls, name


class TestCollapseRegime:
    def test_variances_coincide_and_vanish(self):
        k, alpha0 = 100, 1e7
        d = DirichletParams(np.full(k, alpha0 / k))
        expected = (k - 1) / (k * k * (alpha0 + 1.0))
        for j in range(k):
            assert class_variance(d, j) == pytest.approx(expected, abs=1e-12)
        assert total_variance(d) == pytest.approx(0.99 / (alpha0 + 1.0), rel=1e-12)
        assert total_variance(d) < 1e-7
