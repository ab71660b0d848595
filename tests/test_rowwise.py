"""The row-wise closed forms against the public scalar calls, bit for bit.

``log_gamma`` on an array, the per-class and total variances, the KL to the
uniform Dirichlet, the log-likelihood and the four evidential losses each
have one row-wise implementation; the public scalar functions are its n=1
views.  Every row's
result must equal the scalar call on that row alone, in any row order and
any split of the rows into separate calls.  The scalar values are also pinned to the
closed forms written out one float at a time; the KL is pinned where its
rounding bound holds and must be NaN elsewhere.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direns.dirichlet import (
    DirichletParams,
    _kl_to_uniform,
    _log_likelihood_rows,
    _variances,
    class_variance,
    kl_to_uniform,
    log_likelihood,
    total_variance,
)
from direns.estimators import DEFAULT_P_FLOOR, _summaries
from direns.evidential import LOSSES, digamma_loss, losses, mse_loss
from direns.specfun import (
    _INT_TABLE_LIMIT,
    _LGAMMA_TAYLOR_AT_1,
    _LGAMMA_TAYLOR_AT_2,
    EULER_GAMMA,
    digamma,
    log_gamma,
)

WEIGHT = 0.7


def n1_loss(kind: str):
    # A loss with no scalar function: its n=1 call.
    return lambda d, y: float(losses(kind, d.alpha[None], np.array([d.alpha0]), [y], WEIGHT)[0])


SCALAR_LOSS = {"mse": mse_loss, "digamma": digamma_loss, "mse-kl": n1_loss("mse-kl"), "log-ev": n1_loss("log-ev")}


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def concentrations(rng, n: int, k: int) -> np.ndarray:
    # Integers 1-25, both Taylor windows and their edges, 1e-6, values above
    # 1e150, and log-uniform values over [1e-6, 1e8].
    size = (n, k)
    pools = [
        rng.integers(1, _INT_TABLE_LIMIT + 1, size).astype(np.float64),
        rng.uniform(0.8, 1.2, size),
        rng.uniform(1.8, 2.2, size),
        rng.choice([0.8, 1.2, 1.8, 2.2], size),
        np.full(size, 1e-6),
        10.0 ** rng.uniform(150.0, 200.0, size),
        np.exp(rng.uniform(math.log(1e-6), math.log(1e8), size)),
    ]
    return np.choose(rng.integers(0, len(pools), size), pools)


# The closed forms one float at a time, as the scalar API computed them.

def reference_log_gamma(x: float) -> float:
    # The log is numpy's on one float: math.log rounds a few arguments in a
    # million differently.
    if x <= _INT_TABLE_LIMIT and x == math.floor(x):
        return math.log(math.factorial(int(x) - 1))
    for center, linear, coeffs in ((1.0, -EULER_GAMMA, _LGAMMA_TAYLOR_AT_1),
                                   (2.0, 1.0 - EULER_GAMMA, _LGAMMA_TAYLOR_AT_2)):
        t = x - center
        if abs(t) <= 0.2:
            tail = 0.0
            for c in reversed(coeffs):
                tail = t * (c + tail)
            return t * (linear + tail)
    # Stirling's series at z = x + 8 for x < 8, at z = x otherwise:
    # ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k B_2k / (2k (2k-1) z^(2k-1)),
    # with its leading terms taken as z (ln z - 1) - ln(z)/2.
    z = x + 8.0 if x < 8.0 else x
    r = 1.0 / z
    r2 = r * r
    series = 1.0 / 156.0
    for c in (-691.0 / 360360.0, 1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0):
        series = c + r2 * series
    product = 1.0
    if x < 8.0:
        product = x
        for j in range(1, 8):
            product = product * (x + float(j))
    lz = float(np.log(z))
    return ((z * (lz - 1.0) - 0.5 * lz) + 0.91893853320467274 + r * series) - float(np.log(product))


def reference_kl(a: list, a0: float) -> tuple[float, float]:
    # The KL and the bound on its rounding, 4 ulp of the terms' absolute sum.
    psi0 = digamma(a0)
    terms = [-reference_log_gamma(ak) + (ak - 1.0) * (digamma(ak) - psi0) for ak in a]
    terms += [reference_log_gamma(a0), -reference_log_gamma(float(len(a)))]
    return max(math.fsum(terms), 0.0), 4.0 * 2.0**-52 * math.fsum(map(abs, terms))


def reference_row(a: np.ndarray, a0: float, y: int) -> dict:
    # Where the formulas as written overflow, the value is not finite.
    with np.errstate(all="ignore"):
        den = a0 * a0 * (a0 + 1.0)
        per_class = a * (a0 - a) / den
        target = np.zeros(a.size)
        target[y] = 1.0
        mse = float(np.sum((target - a / a0) ** 2) + np.sum(per_class))
        return {
            "per_class": per_class,
            "total": np.sum(a * (a0 - a)) / den,
            "mse": mse,
            "digamma": digamma(a0) - digamma(float(a[y])),
            "log-ev": WEIGHT * math.log1p(a0),
        }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3, 10, 1000]),
    n=st.integers(1, 5),
    cuts=st.lists(st.integers(1, 4), max_size=3),
)
def test_rows_equal_scalar_calls(seed, k, n, cuts):
    rng = np.random.default_rng(seed)
    alpha = concentrations(rng, n, k)
    labels = rng.integers(0, k, n)
    dists = [DirichletParams(row) for row in alpha]
    alpha0 = np.array([d.alpha0 for d in dists])
    perm = rng.permutation(n)

    assert bits(log_gamma(alpha)) == bits([[log_gamma(v) for v in row] for row in alpha.tolist()])
    assert bits(log_gamma(alpha)) == bits([[reference_log_gamma(v) for v in row] for row in alpha.tolist()])

    per_class = _variances(alpha, alpha0, total=False)
    assert np.isfinite(per_class).all()
    assert bits(per_class) == bits([[class_variance(d, j) for j in range(k)] for d in dists])
    total = _variances(alpha, alpha0, total=True)
    assert np.isfinite(total).all()
    assert bits(total) == bits([total_variance(d) for d in dists])
    kl = _kl_to_uniform(alpha, alpha0)
    assert bits(kl) == bits([kl_to_uniform(d) for d in dists])
    for value, row, a0 in zip(kl.tolist(), alpha.tolist(), alpha0.tolist()):
        ref, bound = reference_kl(row, a0)
        if bound > 1e-6 * max(1.0, ref):
            assert math.isnan(value)
        else:
            assert bits(value) == bits(ref)

    by_kind = {kind: losses(kind, alpha, alpha0, labels, WEIGHT) for kind in LOSSES}
    blocks = np.split(np.arange(n), sorted(set(c for c in cuts if c < n)))
    for kind, got in by_kind.items():
        assert bits(got) == bits([SCALAR_LOSS[kind](d, y) for d, y in zip(dists, labels.tolist())])
        assert bits(losses(kind, alpha[perm], alpha0[perm], labels[perm], WEIGHT)) == bits(got[perm])
        split = [losses(kind, alpha[rows], alpha0[rows], labels[rows], WEIGHT) for rows in blocks]
        assert bits(np.concatenate(split)) == bits(got)
        if kind != "mse-kl":
            assert np.isfinite(got).all()

    for i, (a0, y) in enumerate(zip(alpha0.tolist(), labels.tolist())):
        ref = reference_row(alpha[i], a0, y)
        ours = {"per_class": per_class[i], "total": total[i],
                **{kind: by_kind[kind][i] for kind in ("mse", "digamma", "log-ev")}}
        for name, value in ours.items():
            if np.isfinite(ref[name]).all():
                assert bits(value) == bits(ref[name]), name


@pytest.mark.parametrize("k", [2, 3, 10, 1000])
def test_log_likelihood_is_m_times_the_row_value(k):
    # The value the fit maximizes, from the mean logs the fit takes, for a
    # block of inputs at once; log_likelihood of one input is M times its row.
    rng = np.random.default_rng(k)
    for m in (2, 7, 50):
        alpha = concentrations(rng, 6, k)
        probs = 0.5 * rng.dirichlet(np.ones(k), (6, m)) + 0.5 / k
        rows, _ = _log_likelihood_rows(alpha, _summaries(probs, DEFAULT_P_FLOOR)[2])
        for a, p, row in zip(alpha, probs, rows.tolist()):
            assert bits(log_likelihood(a, p)) == bits(m * row)


def test_array_log_gamma_matches_mpmath():
    mpmath.mp.dps = 40
    rng = np.random.default_rng(11)
    edges = np.array([0.8, 1.2, 1.8, 2.2, 8.0])
    x = np.concatenate([
        np.exp(rng.uniform(math.log(1e-6), math.log(1e8), 1500)),
        np.exp(rng.uniform(math.log(1e-300), math.log(2.5e305), 1500)),
        rng.uniform(0.75, 2.25, 500),
        rng.uniform(2.2, 12.0, 500),
        8.0 + rng.uniform(-1e-3, 1e-3, 200),
        np.nextafter(edges, 0.0),
        np.nextafter(edges, math.inf),
        edges,
        np.arange(1.0, 40.0),
        [1e-300, 1e-6, 1e8, 2.5e305],
    ])
    got = log_gamma(x)
    ref = np.array([float(mpmath.loggamma(mpmath.mpf(v))) for v in x.tolist()])
    exact_zero = ref == 0.0
    assert (got[exact_zero] == 0.0).all()
    rel = np.abs(got - ref)[~exact_zero] / np.abs(ref[~exact_zero])
    assert rel.max() <= 1e-12


def test_log_gamma_keeps_shape_and_overflows_to_inf():
    x = np.array([[1.0, 1e308], [0.9, 30.5]])
    got = log_gamma(x)
    assert got.shape == (2, 2)
    assert got[0, 1] == math.inf
    assert log_gamma(1e308) == math.inf
    assert log_gamma(np.float64(3.0)) == math.log(2.0)


def test_losses_reject_bad_labels_and_weights():
    alpha = np.array([[2.0, 2.0]])
    alpha0 = np.array([4.0])
    with pytest.raises(ValueError, match="label 2 out of range for K=2"):
        losses("mse", alpha, alpha0, [2])
    with pytest.raises(ValueError, match="lambda_kl"):
        losses("mse-kl", alpha, alpha0, [0], -1.0)
    with pytest.raises(ValueError, match="loss must be one of"):
        losses("ce", alpha, alpha0, [0])
