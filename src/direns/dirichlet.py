"""The Dirichlet distribution as a first-class object.

A Dirichlet with concentration vector ``alpha`` (all components positive,
total ``alpha_0 = sum_k alpha_k``) has density

    f(p | alpha) = (1 / B(alpha)) * prod_k p_k^(alpha_k - 1)

on the probability simplex, with B the multivariate Beta function.  This
module provides its moments (mean ``alpha_k / alpha_0``, per-class and total
predictive variance), the closed-form KL divergence to the uniform Dirichlet
(all concentrations 1), seeded sampling, and the joint log-likelihood of
i.i.d. simplex observations, which at one point is the log density.

Everything operates on plain numpy arrays wrapped in two light containers,
``DirichletParams`` and ``ProbabilityVector``, which validate their
invariants on construction.  Collections of simplex points (samples,
ensembles) are represented as 2-D arrays with one point per row.  The
object API elsewhere takes its points and labels through one rule each,
``_point`` and ``_class_index``, and every setting, the library's and the
CLI's, through one, ``_require``, which holds it to one of the setting rules
here and raises an error that names the setting and its value.

The variances and the KL each have one row-wise implementation over (n, K)
concentrations and their (n,) exact totals; the functions on one
``DirichletParams`` are its n=1 views.  The log-likelihood terms are
written once, in ``_log_likelihood_terms``: the MLE's Newton steps, the
log-likelihood and the KL (the terms at lbar_k = psi(alpha_k) - psi(alpha_0),
less ln Gamma(K)) all take them there.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .specfun import digamma, log_gamma

__all__ = [
    "DirichletParams",
    "ProbabilityVector",
    "predictive_mean",
    "class_variance",
    "total_variance",
    "kl_to_uniform",
    "sample",
    "log_likelihood",
]

# How far a probability vector's sum may miss 1, here, in the ensemble
# container and in the predictions reader, each given it by _simplex_rows.
SIMPLEX_TOL = 1e-6

# A sum of log-likelihood terms is trusted to this many units in the last
# place of the sum of their magnitudes: the MLE accepts a Newton step that
# lowers the likelihood by no more, and the KL is NaN where its rounding
# could exceed 1e-6 of the result.  Near the optimum the true change is
# below the rounding, and a strict test refuses good steps there: rows then
# stop on a small step with |g alpha| of 2e-6 to 7e-5 instead of 1e-12.
_LL_ROUNDING = 4 * 2.0**-52


class DirichletParams:
    """Concentration parameters of a Dirichlet over K >= 2 classes."""

    def __init__(self, alpha: np.ndarray) -> None:
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.ndim != 1 or alpha.size < 2:
            raise ValueError("alpha must be a 1-D vector with at least 2 components")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValueError("every concentration must be finite and > 0")
        self.alpha = alpha

    @property
    def k(self) -> int:
        """Number of classes."""
        return int(self.alpha.size)

    @property
    def alpha0(self) -> float:
        """Total concentration, the sum of all components."""
        return float(math.fsum(self.alpha.tolist()))


class ProbabilityVector:
    """A point on the probability simplex: p_k in [0, 1], sum_k p_k = 1."""

    def __init__(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("p must be a 1-D vector with at least 2 components")
        in_bounds, totals = _simplex_rows(p[None])
        if not in_bounds[0]:
            raise ValueError("every probability must lie in [0, 1]")
        if abs(totals[0] - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"probabilities must sum to 1 within {SIMPLEX_TOL}")
        self.p = p


# _simplex_rows checks this many entries at a time, so its masks stay this
# size whatever the row count.
_SIMPLEX_BLOCK = 1 << 16


def _simplex_rows(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The one simplex check: which (n, K) rows lie in [0, 1] (NaN does not),
    # and their exact sums, NaN elsewhere.  A float sum of K entries in [0, 1]
    # is within K * 2**-53 of exact, so one within 5e-10 of 1 is kept: it
    # decides closure at 1e-9 (the reader's renormalization) or coarser alike.
    # Rows are checked a block at a time; each row's verdict and sum are its
    # own, so the block size changes no bit.
    n, k = p.shape
    in_bounds, totals = np.empty(n, dtype=bool), np.empty(n)
    step = max(1, _SIMPLEX_BLOCK // max(k, 1))
    for i in range(0, n, step):
        block = p[i:i + step]
        inside = block >= 0.0
        inside &= block <= 1.0
        rows = in_bounds[i:i + step]
        np.all(inside, axis=1, out=rows)
        del inside
        sums = totals[i:i + step]
        np.sum(block, axis=1, where=rows[:, None], out=sums)
        sums[~rows] = np.nan
    miss = totals - 1.0
    far = np.flatnonzero(np.abs(miss, out=miss) > 5e-10)
    totals[far] = _exact_sums(p[far])
    return in_bounds, totals


VectorLike = Union[ProbabilityVector, np.ndarray, list, tuple]


def _point(p: VectorLike) -> ProbabilityVector:
    # The one point rule: a ProbabilityVector is taken as it is, anything
    # else must pass its check.
    return p if isinstance(p, ProbabilityVector) else ProbabilityVector(p)


def _class_index(y, k: int) -> int:
    # The one label rule: an integer, or an integral float such as 2.0, naming
    # a class in [0, k); 1.5, NaN and inf name none.
    if not isinstance(y, (int, np.integer)) and not float(y).is_integer():
        raise ValueError(f"label {y} is not an integer")
    idx = int(y)
    if not 0 <= idx < k:
        raise ValueError(f"label {idx} out of range for K={k}")
    return idx


# The setting rules: a test of a value, given the other settings by name, and
# what it asks, where {k} stands for setting k.  Each test fails on NaN.
_AT_LEAST_1 = (lambda v, s: v >= 1, "must be at least 1")
_AT_LEAST_2 = (lambda v, s: v >= 2, "must be at least 2")
_POSITIVE = (lambda v, s: math.isfinite(v) and v > 0.0, "must be finite and > 0")
_NONNEGATIVE = (lambda v, s: math.isfinite(v) and v >= 0.0, "must be finite and nonnegative")
_OPEN_UNIT = (lambda v, s: 0.0 < v < 1.0, "must lie in (0, 1)")
_CLOSED_UNIT = (lambda v, s: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_RANGE = (lambda v, s: len(v) == 2 and 0.0 < v[0] <= v[1] < math.inf, "must satisfy 0 < lo <= hi < inf")
_EPOCHS = (lambda v, s: math.isfinite(v) and v >= 1.0, "must be finite and at least 1")
_PEAK = (lambda v, s: 1.0 / s["k"] < v < 1.0, "must lie in (1/K, 1) = (1/{k}, 1)")
# A list of Python floats: a sum of numpy floats warns where it overflows.
_FIXED_ALPHA = (lambda v, s: len(v) == s["k"] and all(0.0 < x < math.inf for x in v) and sum(v) < math.inf,
                "must be {k} finite positive values with a finite sum")


def _require(name: str, value, rule: tuple, settings=None) -> None:
    # The one setting check: a value outside its rule is an error naming both.
    test, text = rule
    if not test(value, settings):
        raise ValueError(f"{name} {text.format_map(settings or {})}, got {value}")


def predictive_mean(d: DirichletParams) -> ProbabilityVector:
    """Mean of the Dirichlet, component k equal to alpha_k / alpha_0."""
    return ProbabilityVector(d.alpha / d.alpha0)


def _variances(alpha: np.ndarray, alpha0: np.ndarray, total: bool) -> np.ndarray:
    # The one variance formula: class k has variance alpha_k (alpha_0 - alpha_k)
    # / (alpha_0^2 (alpha_0 + 1)); the (n,) total sums the numerators over the
    # one denominator.  Where that is not finite (alpha_0^2 overflows or
    # underflows to 0), it is taken with both parts divided by alpha_0^2.
    def formula(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.sum(num, axis=1) / den if total else num / den[:, None]

    a0 = alpha0[:, None]
    with np.errstate(all="ignore"):
        out = formula(alpha * (a0 - alpha), alpha0 * alpha0 * (alpha0 + 1.0))
    bad = ~np.isfinite(out)
    if bad.any():
        rows = bad if total else bad.any(axis=1)
        a, s = alpha[rows], a0[rows]
        out[bad] = formula((a / s) * ((s - a) / s), alpha0[rows] + 1.0)[bad[rows]]
    return out


def class_variance(d: DirichletParams, k: int) -> float:
    """Marginal variance of class k.

    Equals ``alpha_k (alpha_0 - alpha_k) / (alpha_0^2 (alpha_0 + 1))``,
    the Beta-marginal variance of a Dirichlet component.
    """
    k = int(k)
    if not 0 <= k < d.k:
        raise IndexError(f"class index {k} out of range for K={d.k}")
    return float(_variances(d.alpha[None], np.array([d.alpha0]), total=False)[0, k])


def total_variance(d: DirichletParams) -> float:
    """Sum of the per-class variances, the scalar spread of the Dirichlet."""
    return float(_variances(d.alpha[None], np.array([d.alpha0]), total=True)[0])


def _exact_sum(row: np.ndarray) -> float:
    # math.fsum of a row, or NaN where a partial sum overflows or inf meets -inf.
    try:
        return math.fsum(row.tolist())
    except (OverflowError, ValueError):
        return math.nan


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Knuth's TwoSum: a + b rounded, and the exact error of that rounding.
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _exact_sums(a: np.ndarray) -> np.ndarray:
    # _exact_sum of every row of an (n, K) array, bit for bit.  A TwoSum
    # cascade over the columns gives each row's float sum s and the errors e
    # of its additions, and a second cascade their sum c and its errors f, so
    # the exact sum is s + c + sum(f).  r = s + c is rounded with its exact
    # residual t.  Where every f is 0, r is the exact sum correctly rounded,
    # as fsum rounds it.  Otherwise the sum lies within |t| + sum|f| of r,
    # and where that is below half an ulp of r, r is still its rounding;
    # the ulp is one-sided at a power of two, so those rows are left out.
    # Zero, non-finite and near-overflow rows need fsum's own rules; they
    # and every row the bound misses are summed by _exact_sum.  The columns
    # are read in place, so no copy of ``a`` is made.
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    s, c, spread = a[:, 0], np.zeros(n), np.zeros(n)
    size = np.abs(s)
    with np.errstate(all="ignore"):
        for b in a.T[1:]:
            s, e = _two_sum(s, b)
            c, f = _two_sum(c, e)
            spread += np.abs(f)
            size += np.abs(b)
        r, t = _two_sum(s, c)
        # 2 * spread bounds sum|f|: its float sum is off by far less than half.
        ok = (spread == 0.0) | ((np.abs(t) + 2.0 * spread < 0.5 * np.abs(np.spacing(r)))
                                & (np.abs(np.frexp(r)[0]) != 0.5))
        ok &= (r != 0.0) & (size < 2.0**1020)
    rest = np.flatnonzero(~ok)
    r[rest] = list(map(_exact_sum, a[rest]))
    return r


def _row_sum(a: np.ndarray) -> np.ndarray:
    # Sequential by definition, so a row's sum cannot depend on other rows.
    return np.add.accumulate(a, axis=-1)[..., -1]


def _log_likelihood_terms(alpha: np.ndarray, alpha0: np.ndarray,
                          lbar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The one-member Dirichlet log-likelihood of every row of (n, K) alpha,
    # with (n,) total alpha0 and (n, K) mean logs lbar, as its terms: (n,)
    # ln Gamma(alpha_0) and (n, K) (alpha_k - 1) lbar_k - ln Gamma(alpha_k).
    # Also (n,) the sum of the magnitudes of every part, which bounds the
    # rounding of any sum of the terms.
    lg0 = log_gamma(alpha0)
    lg = log_gamma(alpha)
    lin = (alpha - 1.0) * lbar
    return lg0, lin - lg, np.abs(lg0) + _row_sum(np.abs(lg) + np.abs(lin))


def _log_likelihood_rows(alpha: np.ndarray, lbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (n,) one-member log-likelihoods, their terms summed in order, and the
    # magnitudes that bound their rounding.
    lg0, terms, scale = _log_likelihood_terms(alpha, _row_sum(alpha), lbar)
    return lg0 + _row_sum(terms), scale


def _kl_to_uniform(alpha: np.ndarray, alpha0: np.ndarray) -> np.ndarray:
    # (n,) KL to the uniform Dirichlet, row-wise: the log-likelihood terms at
    # lbar_k = psi(alpha_k) - psi(alpha_0), less ln Gamma(K), summed exactly.
    # The terms grow like alpha_0 ln alpha_0 and cancel, so a row gives NaN
    # where a term overflows or where the terms' rounding, bounded by
    # _LL_ROUNDING of their absolute sum, could exceed 1e-6 of max(1, KL).
    n, k = alpha.shape
    with np.errstate(all="ignore"):
        lg0, terms, _ = _log_likelihood_terms(alpha, alpha0, digamma(alpha) - digamma(alpha0)[:, None])
        terms = np.column_stack([terms, lg0, np.full(n, -log_gamma(float(k)))])
        bound = _LL_ROUNDING * np.sum(np.abs(terms), axis=1)
    kl = np.maximum(_exact_sums(terms), 0.0)
    kl[bound > 1e-6 * np.maximum(1.0, kl)] = math.nan
    return kl


def kl_to_uniform(d: DirichletParams) -> float:
    """KL divergence from Dir(alpha) to the uniform Dirichlet Dir(1, ..., 1).

    Closed form:

        ln Gamma(alpha_0) - ln Gamma(K) - sum_k ln Gamma(alpha_k)
            + sum_k (alpha_k - 1) (psi(alpha_k) - psi(alpha_0))

    with its terms summed exactly.  The terms grow like alpha_0 ln alpha_0
    while the KL grows like (K - 1)/2 ln alpha_0, so at large total
    concentration they cancel: the result is NaN where their rounding could
    move it by more than 1e-6 of max(1, KL) (past alpha_0 = 2.7e8 for a
    flat alpha with K = 2, 2.3e9 with K = 10), and where a log-gamma term
    itself overflows.  The result is clamped at zero: the exact value is
    nonnegative, and near alpha = 1 rounding could otherwise yield a tiny
    negative.
    """
    return float(_kl_to_uniform(d.alpha[None], np.array([d.alpha0]))[0])


def sample(d: DirichletParams, rng_seed: int, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. points from Dir(alpha), deterministically per seed.

    Returns an (n, K) array with one simplex point per row.  Draws are
    normalized independent Gamma(alpha_k, 1) variates; the generator's
    rejection sampler is exact for every positive shape.
    """
    _require("n", n, _AT_LEAST_1)
    rng = np.random.default_rng(rng_seed)
    g = rng.gamma(shape=d.alpha, size=(int(n), d.k))
    # Guard against total underflow for extreme concentrations so rows
    # always normalize.
    g = np.maximum(g, 1e-300)
    return g / g.sum(axis=1, keepdims=True)


def log_likelihood(alpha: VectorLike, samples: np.ndarray) -> float:
    """Joint log density of i.i.d. strictly interior simplex points.

    Equals ``M (ln Gamma(alpha_0) - sum_k ln Gamma(alpha_k))
    + M sum_k (alpha_k - 1) lbar_k`` with ``lbar_k`` the mean log
    probability of class k over the M rows: M times the value the MLE
    maximizes, with the same bits.  Every row must pass the simplex check
    of ``ProbabilityVector``; a ``ValueError`` names the first that fails.
    """
    a = alpha.alpha if isinstance(alpha, DirichletParams) else DirichletParams(alpha).alpha
    mat = np.asarray(samples, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.shape[0] < 1:
        raise ValueError("the log-likelihood needs at least one point")
    if mat.shape[1] != a.size:
        raise ValueError(f"dimension mismatch: K={a.size} vs points of size {mat.shape[1]}")
    in_bounds, totals = _simplex_rows(mat)
    off = np.flatnonzero(~in_bounds | (np.abs(totals - 1.0) > SIMPLEX_TOL))
    if off.size:
        i = int(off[0])
        rule = (f"probabilities must sum to 1 within {SIMPLEX_TOL}" if in_bounds[i]
                else "every probability must lie in [0, 1]")
        raise ValueError(f"row {i} of the points is off the simplex: {rule}")
    if np.any(mat <= 0.0):
        raise ValueError("the log-likelihood needs strictly interior points (all p_k > 0)")
    ll, _ = _log_likelihood_rows(a[None], np.log(mat).mean(axis=0)[None])
    return mat.shape[0] * float(ll[0])
