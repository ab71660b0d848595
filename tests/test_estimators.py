"""Moment matching and Newton likelihood refinement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from direns.dirichlet import DirichletParams, class_variance, log_likelihood, predictive_mean, sample
from direns.estimators import (
    DEFAULT_ALPHA0_CAP,
    DEFAULT_P_FLOOR,
    EnsembleSample,
    _fit,
    fit_batch,
    fit_mle,
    fit_mom,
)
from direns.simulate import SimulationConfig, generate


def two_population(n: int, m: int, seed: int) -> np.ndarray:
    # The benchmark's ensembles: K=7, two-population scheme.
    return generate(SimulationConfig(n=n, m=m, k=7, seed=seed, scheme="two_population")).probs


def mean_logs(probs: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(probs, DEFAULT_P_FLOOR)).mean(axis=-2)


def two_member() -> EnsembleSample:
    return EnsembleSample(np.array([[0.6, 0.4], [0.8, 0.2]]))


@st.composite
def ensembles(draw, k=None):
    m = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=2, max_value=5)) if k is None else k
    raw = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k
            ),
            min_size=m,
            max_size=m,
        )
    )
    probs = np.array(raw)
    probs /= probs.sum(axis=1, keepdims=True)
    return EnsembleSample(probs)


class TestEnsembleSample:
    def test_shape_properties(self):
        s = two_member()
        assert s.m == 2
        assert s.k == 2

    def test_rejects_single_member(self):
        with pytest.raises(ValueError):
            EnsembleSample(np.array([[0.5, 0.5]]))

    def test_rejects_off_simplex_rows(self):
        with pytest.raises(ValueError):
            EnsembleSample(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            EnsembleSample(np.array([[1.2, -0.2], [0.5, 0.5]]))


class TestMoments:
    # The moment fit reproduces the ensemble's mean and unbiased variance.
    def test_hand_case(self):
        d = fit_mom(two_member()).params
        np.testing.assert_allclose(predictive_mean(d).p, [0.7, 0.3], atol=1e-15)
        np.testing.assert_allclose([class_variance(d, k) for k in range(2)], [0.02, 0.02], atol=1e-15)

    def test_identical_rows_have_zero_spread(self):
        # Seven equal members leave a 1e-32 residue in the float variance.
        result = fit_mom(EnsembleSample(np.tile([0.9, 0.1], (7, 1))))
        assert result.degenerate
        assert result.params.alpha0 == pytest.approx(DEFAULT_ALPHA0_CAP, rel=1e-12)


class TestFitMom:
    def test_hand_case(self):
        result = fit_mom(two_member())
        assert not result.degenerate
        np.testing.assert_allclose(result.params.alpha, [6.65, 2.85], atol=1e-9)
        assert result.params.alpha0 == pytest.approx(9.5, abs=1e-9)

    def test_mean_preserved_exactly(self, rng):
        for _ in range(200):
            m = int(rng.integers(2, 20))
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.full(k, 2.0), size=m)
            probs = np.maximum(probs, 1e-9)
            probs /= probs.sum(axis=1, keepdims=True)
            s = EnsembleSample(probs)
            result = fit_mom(s)
            fitted_mean = predictive_mean(result.params).p
            np.testing.assert_allclose(fitted_mean, s.probs.mean(axis=0), atol=1e-12)

    def test_zero_spread_is_degenerate_and_capped(self):
        s = EnsembleSample(np.tile([0.9, 0.1], (4, 1)))
        result = fit_mom(s)
        assert result.degenerate
        np.testing.assert_allclose(
            result.params.alpha, np.array([0.9, 0.1]) * DEFAULT_ALPHA0_CAP, rtol=1e-12
        )

    def test_maximal_spread_is_degenerate(self):
        # Opposite corners: variance too large for any positive alpha0.
        s = EnsembleSample(np.array([[1.0, 0.0], [0.0, 1.0]]))
        result = fit_mom(s)
        assert result.degenerate
        assert result.params.alpha0 == pytest.approx(DEFAULT_ALPHA0_CAP, rel=1e-12)

    def test_zero_mean_class_stays_positive(self):
        s = EnsembleSample(np.array([[0.0, 0.4, 0.6], [0.0, 0.6, 0.4]]))
        result = fit_mom(s)
        assert np.all(result.params.alpha > 0.0)

    def test_recovery_within_ten_percent(self):
        truth = np.array([3.0, 1.0, 0.5])
        draws = sample(DirichletParams(truth), rng_seed=202, n=100_000)
        result = fit_mom(EnsembleSample(draws))
        assert not result.degenerate
        np.testing.assert_allclose(result.params.alpha, truth, rtol=0.10)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            fit_mom(two_member(), alpha0_cap=0.0)

    @settings(max_examples=60, deadline=None)
    @given(ensembles())
    def test_never_crashes_and_preserves_mean(self, s):
        result = fit_mom(s)
        assert np.all(result.params.alpha > 0.0)
        if not result.degenerate:
            np.testing.assert_allclose(
                predictive_mean(result.params).p, s.probs.mean(axis=0), atol=1e-12
            )


class TestFitMle:
    def test_refines_toward_truth(self):
        truth = np.array([3.0, 1.0, 0.5])
        draws = sample(DirichletParams(truth), rng_seed=303, n=100_000)
        s = EnsembleSample(draws)
        start = fit_mom(s)
        refined = fit_mle(s, start.params)
        np.testing.assert_allclose(refined.params.alpha, truth, rtol=0.05)
        assert log_likelihood(refined.params.alpha, draws) >= log_likelihood(
            start.params.alpha, draws
        )

    def test_likelihood_never_decreases_along_path(self, rng):
        # From the moment fit, and from a start scattered by up to e^4 around
        # the truth, where full Newton steps often lower the likelihood.
        for _ in range(100):
            k = int(rng.integers(2, 6))
            truth = rng.uniform(0.3, 20.0, size=k)
            draws = sample(DirichletParams(truth), rng_seed=int(rng.integers(1e9)), n=50)
            s = EnsembleSample(draws)
            start = fit_mom(s)
            scattered = DirichletParams(truth * np.exp(rng.uniform(-4.0, 4.0, size=k)))
            for init in ([] if start.degenerate else [start.params]) + [scattered]:
                result = fit_mle(s, init, keep_path=True)
                lls = [log_likelihood(a, draws) for a in result.alpha_path]
                for before, after in zip(lls, lls[1:]):
                    assert after >= before - 1e-9

    def test_idempotent_at_fixed_point(self):
        draws = sample(DirichletParams(np.array([4.0, 2.0])), rng_seed=7, n=500)
        s = EnsembleSample(draws)
        first = fit_mle(s, fit_mom(s).params, max_iter=500)
        assert first.converged
        again = fit_mle(s, first.params, max_iter=500)
        assert again.iterations_used == 1
        np.testing.assert_allclose(
            again.params.alpha, first.params.alpha, rtol=1e-8
        )

    def test_respects_iteration_budget(self):
        draws = sample(DirichletParams(np.array([2.0, 1.0, 0.5])), rng_seed=11, n=200)
        s = EnsembleSample(draws)
        result = fit_mle(s, fit_mom(s).params, max_iter=20)
        assert 1 <= result.iterations_used <= 20

    def test_handles_stored_zeros_via_floor(self):
        probs = np.array([[1.0, 0.0], [0.7, 0.3], [0.6, 0.4]])
        s = EnsembleSample(probs)
        init = DirichletParams(np.array([1.0, 1.0]))
        result = fit_mle(s, init)
        assert np.all(np.isfinite(result.params.alpha))
        assert np.all(result.params.alpha > 0.0)

    def test_validates_arguments(self):
        s = two_member()
        with pytest.raises(ValueError):
            fit_mle(s, DirichletParams(np.array([1.0, 1.0, 1.0])))
        with pytest.raises(ValueError):
            fit_mle(s, DirichletParams(np.array([1.0, 1.0])), max_iter=0)
        with pytest.raises(ValueError):
            fit_mle(s, DirichletParams(np.array([1.0, 1.0])), eps=0.0)


class TestNewtonConvergence:
    @pytest.mark.parametrize("m, seed", [(50, 7), (50, 12), (5, 7)])
    def test_default_fit_is_stationary(self, m, seed):
        # |g_k alpha_k| with g = psi(alpha_0) - psi(alpha) + lbar from scipy's
        # digamma, after the default 20 steps.
        probs = two_population(500, m, seed)
        alpha, degenerate, _, converged = _fit(probs, True)
        refined = ~degenerate
        assert converged[refined].all()
        g = special.digamma(alpha.sum(axis=1))[:, None] - special.digamma(alpha) + mean_logs(probs)
        assert np.abs(g * alpha)[refined].max() <= 1e-10

    @pytest.mark.parametrize("m, seed", [(50, 7), (5, 7), (2, 7)])
    def test_agrees_with_scipy_root_of_the_gradient(self, m, seed):
        # A dense Newton-type root of g(alpha) alpha = 0 in log alpha, with
        # scipy's digamma and trigamma and the full K x K Hessian, for every
        # 25th row.  hybr alone, started at the moment fit, can step far off:
        # two members can give a moment alpha_0 of 5619 against an MLE's 6.6,
        # and a first step to log alpha near -5900.  So a trust-region
        # maximization of the log-likelihood from the moment fit, stopped
        # once every |g_k alpha_k| <= 1e-2, gives hybr its start, and hybr
        # takes that to the root.
        probs = two_population(500, m, seed)
        lbar = mean_logs(probs)
        start, degenerate, _, _ = _fit(probs, False)
        alpha = _fit(probs, True)[0]

        for i in np.flatnonzero(~degenerate)[::25]:
            def negative_log_likelihood(b, i=i):
                a = np.exp(b)
                return special.gammaln(a).sum() - special.gammaln(a.sum()) - ((a - 1.0) * lbar[i]).sum()

            def scaled_gradient(b, i=i):
                a = np.exp(b)
                return a * (special.digamma(a.sum()) - special.digamma(a) + lbar[i])

            def jacobian(b, i=i):
                a = np.exp(b)
                g = special.digamma(a.sum()) - special.digamma(a) + lbar[i]
                h = special.polygamma(1, a.sum()) - np.diag(special.polygamma(1, a))
                return a[:, None] * h * a[None, :] + np.diag(g * a)

            peak = optimize.minimize(negative_log_likelihood, np.log(start[i]), method="trust-exact",
                                     jac=lambda b: -scaled_gradient(b), hess=lambda b: -jacobian(b),
                                     options={"gtol": 1e-2})
            assert peak.success, peak.message
            ref = optimize.root(scaled_gradient, peak.x, jac=jacobian, method="hybr",
                                options={"xtol": 1e-12})
            assert ref.success, ref.message
            np.testing.assert_allclose(alpha[i], np.exp(ref.x), rtol=1e-9)

    def test_two_members_converge(self):
        # Two members give the noisiest moment starts, some with alpha_0
        # above 1e13; nearly every row still converges within 20 steps.
        _, degenerate, _, converged = _fit(two_population(2000, 2, 7), True)
        refined = ~degenerate
        assert np.count_nonzero(converged[refined]) >= 0.999 * np.count_nonzero(refined)

    def test_zero_spread_class_stays_finite_and_monotone(self):
        # Class 0 is 0.2 in every member; the others vary, so the moment fit
        # uses them and the row is refined.  RuntimeWarnings are errors here.
        rng = np.random.default_rng(5)
        probs = np.column_stack([np.full(20, 0.2), 0.8 * rng.dirichlet([4.0, 2.0, 1.0], size=20)])
        s = EnsembleSample(probs)
        start = fit_mom(s)
        assert not start.degenerate
        result = fit_mle(s, start.params, keep_path=True)
        assert result.converged
        path = np.array(result.alpha_path)
        assert np.isfinite(path).all() and (path > 0.0).all()
        lls = [log_likelihood(a, probs) for a in path]
        assert all(after >= before - 1e-9 for before, after in zip(lls, lls[1:]))


class TestFitBatch:
    def make_samples(self, n: int, seed: int) -> list[EnsembleSample]:
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            probs = rng.dirichlet(np.full(3, 1.5), size=8)
            probs = np.maximum(probs, 1e-9)
            probs /= probs.sum(axis=1, keepdims=True)
            out.append(EnsembleSample(probs))
        return out

    def test_empty_and_singleton(self):
        assert fit_batch([], "mom") == []
        s = two_member()
        only = fit_batch([s], "mom")
        np.testing.assert_array_equal(only[0].params.alpha, fit_mom(s).params.alpha)

    def test_matches_sequential_calls(self):
        samples = self.make_samples(60, seed=5)
        batch = fit_batch(samples, "mom_then_mle", n_threads=4)
        for s, got in zip(samples, batch):
            start = fit_mom(s)
            want = start if start.degenerate else fit_mle(s, start.params)
            np.testing.assert_array_equal(got.params.alpha, want.params.alpha)

    def test_thread_count_does_not_change_results(self):
        samples = self.make_samples(40, seed=6)
        one = fit_batch(samples, "mom_then_mle", n_threads=1)
        four = fit_batch(samples, "mom_then_mle", n_threads=4)
        for a, b in zip(one, four):
            np.testing.assert_array_equal(a.params.alpha, b.params.alpha)

    def test_degenerate_members_skip_refinement(self):
        flat = EnsembleSample(np.tile([0.5, 0.5], (3, 1)))
        results = fit_batch([flat, two_member()], "mom_then_mle")
        assert results[0].degenerate
        assert results[0].iterations_used is None
        assert not results[1].degenerate

    def test_rejects_mixed_dimensions(self):
        good = two_member()
        bad = EnsembleSample(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(ValueError):
            fit_batch([good, bad], "mom")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            fit_batch([two_member()], "map")

    def test_rejects_bad_thread_count_and_settings(self):
        s = [two_member()]
        assert fit_batch(s, "mom_then_mle", n_threads=3)[0].converged is not None
        for bad in ({"n_threads": 0}, {"alpha0_cap": -1.0}, {"max_iter": 0}, {"eps": 0.0}, {"eps": np.inf},
                    {"p_floor": 0.0}, {"p_floor": 1.0}, {"p_floor": np.inf}):
            with pytest.raises(ValueError):
                fit_batch(s, "mom", **bad)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(ensembles(k=3), min_size=1, max_size=12),
        st.randoms(use_true_random=False),
        st.integers(min_value=1, max_value=12),
    )
    def test_rows_fit_alone_in_any_order_and_split(self, samples, random, split):
        # Mixed M, degenerate rows mixed in, any permutation and any chunking:
        # every row equals the scalar fit of that row, bit for bit.
        samples = samples + [EnsembleSample(np.tile([0.2, 0.3, 0.5], (4, 1)))]
        random.shuffle(samples)
        chunks = [samples[i : i + split] for i in range(0, len(samples), split)]
        batch = [r for chunk in chunks for r in fit_batch(chunk, "mom_then_mle", max_iter=50)]
        for s, got in zip(samples, batch):
            start = fit_mom(s)
            want = start if start.degenerate else fit_mle(s, start.params, max_iter=50)
            assert got.params.alpha.tobytes() == want.params.alpha.tobytes()
            assert got.degenerate == want.degenerate
            assert got.iterations_used == want.iterations_used
            assert got.converged == want.converged

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    def test_block_fit_matches_list_fit(self, n, m, k, seed, mle):
        # _fit on an (n, M, K) block, a view of it (as --models-limit takes
        # one) and fit_batch on the same inputs as a list agree bit for bit.
        rng = np.random.default_rng(seed)
        block = rng.dirichlet(np.full(k, 1.5), size=(n, m + 1))
        block[rng.random(n) < 0.3] = block[0, 0]
        block[:, :, 0][rng.random((n, m + 1)) < 0.1] = 0.0
        block /= block.sum(axis=2, keepdims=True)
        view = block[:, :m]
        alpha, degenerate, used, converged = _fit(view, mle, max_iter=50)
        results = fit_batch(list(view), "mom_then_mle" if mle else "mom", max_iter=50)
        assert alpha.tobytes() == np.array([r.params.alpha for r in results]).tobytes()
        assert degenerate.tolist() == [r.degenerate for r in results]
        refined = [r.iterations_used is not None for r in results]
        assert refined == (mle & ~degenerate).tolist()
        assert used.tolist() == [r.iterations_used or 0 for r in results]
        assert converged.tolist() == [bool(r.converged) for r in results]
        assert _fit(np.ascontiguousarray(view), mle, max_iter=50)[0].tobytes() == alpha.tobytes()
