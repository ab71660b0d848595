"""The Dirichlet distribution as a first-class object.

A Dirichlet with concentration vector ``alpha`` (all components positive,
total ``alpha_0 = sum_k alpha_k``) has density

    f(p | alpha) = (1 / B(alpha)) * prod_k p_k^(alpha_k - 1)

on the probability simplex, with B the multivariate Beta function.  This
module provides its moments (mean ``alpha_k / alpha_0``, per-class and total
predictive variance), the log density, the closed-form KL divergence to the
uniform Dirichlet (all concentrations 1), seeded sampling, and the joint
log-likelihood of i.i.d. simplex observations.

Everything operates on plain numpy arrays wrapped in two light containers,
``DirichletParams`` and ``ProbabilityVector``, which validate their
invariants on construction.  Collections of simplex points (samples,
ensembles) are represented as 2-D arrays with one point per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .specfun import digamma, log_gamma, log_multivariate_beta, _trigamma

__all__ = [
    "DirichletParams",
    "ProbabilityVector",
    "predictive_mean",
    "class_variance",
    "total_variance",
    "log_density",
    "kl_to_uniform",
    "kl_to_uniform_grad",
    "sample",
    "log_likelihood",
]

# How far a probability vector's sum may miss 1, here, in the ensemble
# container and in the file readers.
SIMPLEX_TOL = 1e-6


@dataclass
class DirichletParams:
    """Concentration parameters of a Dirichlet over K >= 2 classes."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
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


@dataclass
class ProbabilityVector:
    """A point on the probability simplex: p_k in [0, 1], sum_k p_k = 1."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("p must be a 1-D vector with at least 2 components")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("every probability must lie in [0, 1]")
        if abs(math.fsum(p.tolist()) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"probabilities must sum to 1 within {SIMPLEX_TOL}")
        self.p = p


VectorLike = Union[ProbabilityVector, np.ndarray, list, tuple]


def _as_point(p: VectorLike) -> np.ndarray:
    if isinstance(p, ProbabilityVector):
        return p.p
    return ProbabilityVector(np.asarray(p, dtype=np.float64)).p


def predictive_mean(d: DirichletParams) -> ProbabilityVector:
    """Mean of the Dirichlet, component k equal to alpha_k / alpha_0."""
    return ProbabilityVector(d.alpha / d.alpha0)


def class_variance(d: DirichletParams, k: int) -> float:
    """Marginal variance of class k.

    Equals ``alpha_k (alpha_0 - alpha_k) / (alpha_0^2 (alpha_0 + 1))``,
    the Beta-marginal variance of a Dirichlet component.
    """
    k = int(k)
    if not 0 <= k < d.k:
        raise IndexError(f"class index {k} out of range for K={d.k}")
    a0 = d.alpha0
    ak = float(d.alpha[k])
    return ak * (a0 - ak) / (a0 * a0 * (a0 + 1.0))


def _total_variance(alpha: np.ndarray, alpha0: np.ndarray) -> np.ndarray:
    # Row-wise over (n, K) concentrations and their (n,) exact totals.
    a0 = alpha0[:, None]
    return np.sum(alpha * (a0 - alpha), axis=1) / (alpha0 * alpha0 * (alpha0 + 1.0))


def total_variance(d: DirichletParams) -> float:
    """Sum of the per-class variances, the scalar spread of the Dirichlet."""
    return float(_total_variance(d.alpha[None], np.array([d.alpha0]))[0])


def log_density(d: DirichletParams, p: VectorLike) -> float:
    """Log density at a strictly interior simplex point.

    Boundary points (any p_k = 0) are rejected; callers that may hold
    boundary data are expected to clamp before evaluating.
    """
    point = _as_point(p)
    if point.size != d.k:
        raise ValueError(f"dimension mismatch: K={d.k} vs point of size {point.size}")
    if np.any(point <= 0.0):
        raise ValueError("log_density requires a strictly interior point (all p_k > 0)")
    terms = [(a - 1.0) * math.log(x) for a, x in zip(d.alpha.tolist(), point.tolist())]
    return math.fsum(terms) - log_multivariate_beta(d.alpha)


def kl_to_uniform(d: DirichletParams) -> float:
    """KL divergence from Dir(alpha) to the uniform Dirichlet Dir(1, ..., 1).

    Closed form:

        ln Gamma(alpha_0) - ln Gamma(K) - sum_k ln Gamma(alpha_k)
            + sum_k (alpha_k - 1) (psi(alpha_k) - psi(alpha_0))

    computed through log-gamma differences so it stays finite for very
    large total concentration.  The result is clamped at zero: the exact
    value is nonnegative, and near alpha = 1 rounding could otherwise
    yield a tiny negative.
    """
    a = d.alpha.tolist()
    a0 = d.alpha0
    psi0 = digamma(a0)
    terms = [-log_gamma(ak) + (ak - 1.0) * (digamma(ak) - psi0) for ak in a]
    terms.append(log_gamma(a0))
    terms.append(-log_gamma(float(len(a))))
    return max(math.fsum(terms), 0.0)


def kl_to_uniform_grad(d: DirichletParams) -> np.ndarray:
    """Gradient of ``kl_to_uniform`` with respect to each concentration.

    Component j equals ``(alpha_j - 1) psi'(alpha_j) - (alpha_0 - K) psi'(alpha_0)``.
    """
    a0 = d.alpha0
    common = (a0 - d.k) * _trigamma(a0)
    return np.array(
        [(aj - 1.0) * _trigamma(aj) - common for aj in d.alpha.tolist()],
        dtype=np.float64,
    )


def sample(d: DirichletParams, rng_seed: int, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. points from Dir(alpha), deterministically per seed.

    Returns an (n, K) array with one simplex point per row.  Draws are
    normalized independent Gamma(alpha_k, 1) variates; the generator's
    rejection sampler is exact for every positive shape.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
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
    probability of class k over the M rows.
    """
    a = np.asarray(alpha, dtype=np.float64) if not isinstance(alpha, DirichletParams) else alpha.alpha
    if a.ndim != 1 or a.size < 2:
        raise ValueError("alpha must be a 1-D vector with at least 2 components")
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise ValueError("every concentration must be finite and > 0")
    mat = np.asarray(samples, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.shape[0] < 1:
        raise ValueError("log_likelihood requires at least one sample")
    if mat.shape[1] != a.size:
        raise ValueError("sample dimension does not match alpha")
    if np.any(mat <= 0.0):
        raise ValueError("log_likelihood requires strictly interior points (all p_k > 0)")
    m = mat.shape[0]
    mean_log = np.log(mat).mean(axis=0)
    inner = math.fsum(((a - 1.0) * mean_log).tolist())
    return m * (inner - log_multivariate_beta(a))
