"""Dirichlet parameter estimation from ensembles of simplex points.

Given M probability vectors for one input, treated as i.i.d. draws from an
unknown Dirichlet, two estimators are provided.

Method of moments: match the empirical mean mu_k and unbiased variance
sigma2_k of each class to the Dirichlet moments.  Each class with
0 < mu_k (1 - mu_k) / sigma2_k - 1 < inf contributes a total-concentration
estimate; their average gives alpha0_hat, and alpha_k = mu_k * alpha0_hat.
When no class qualifies (zero spread, or spread too large for any positive
solution) the result is flagged degenerate and alpha0 is set to a cap.

Fixed-point MLE: starting from an initial guess (typically the moment fit),
iterate alpha_k <- psi^-1(psi(alpha_0) + lbar_k) with lbar_k the mean log
probability of class k.  Each sweep is a monotone step on the Dirichlet
log-likelihood, so the likelihood never decreases along the iteration.

Both are array kernels over (n, K) per-input summaries: ``fit_batch`` runs
them on every input at once, ``fit_mom`` and ``fit_mle`` on one row.  Each
step is elementwise or reduces within a row, and each row stops its sweeps
on its own, so a row's fit has the same bits in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .dirichlet import SIMPLEX_TOL, DirichletParams
from .specfun import digamma, inverse_digamma

__all__ = [
    "EnsembleSample",
    "MomentSummary",
    "FitResult",
    "moments",
    "fit_mom",
    "fit_mle",
    "fit_batch",
    "DEFAULT_ALPHA0_CAP",
    "DEFAULT_MAX_ITER",
    "DEFAULT_EPS",
    "DEFAULT_P_FLOOR",
]

DEFAULT_ALPHA0_CAP = 1e6
DEFAULT_MAX_ITER = 20
DEFAULT_EPS = 1e-8
DEFAULT_P_FLOOR = 1e-12

# Keeps fitted concentrations strictly positive when a class has exact
# zero empirical mean; far below any statistically meaningful scale.
_ALPHA_FLOOR = 1e-300


@dataclass
class EnsembleSample:
    """M >= 2 probability vectors of dimension K for a single input."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError("probs must be a 2-D array, one simplex point per row")
        m, k = probs.shape
        if m < 2:
            raise ValueError("an ensemble needs at least 2 members")
        if k < 2:
            raise ValueError("an ensemble needs at least 2 classes")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("every probability must lie in [0, 1]")
        sums = probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
            raise ValueError(f"every row must sum to 1 within {SIMPLEX_TOL}")
        self.probs = probs

    @property
    def m(self) -> int:
        return int(self.probs.shape[0])

    @property
    def k(self) -> int:
        return int(self.probs.shape[1])


@dataclass
class MomentSummary:
    """Empirical mean, unbiased variance, and the usable class set."""

    mu: np.ndarray
    sigma2: np.ndarray
    valid_classes: np.ndarray


@dataclass
class FitResult:
    """Fitted parameters plus estimator diagnostics.

    ``degenerate`` marks a moment fit that fell back to the configured
    total-concentration cap.  ``iterations_used`` and ``converged`` are
    populated by the MLE refinement only; ``alpha_path`` holds the
    parameter trajectory when the refinement was asked to record it.
    """

    params: DirichletParams
    degenerate: bool
    iterations_used: Optional[int] = None
    converged: Optional[bool] = None
    alpha_path: Optional[list] = field(default=None, repr=False)


SampleLike = Union[EnsembleSample, np.ndarray, list, tuple]


def _as_sample(s: SampleLike) -> EnsembleSample:
    return s if isinstance(s, EnsembleSample) else EnsembleSample(np.asarray(s, dtype=np.float64))


def _class_alpha0(mu: np.ndarray, sigma2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Per-class total-concentration estimates and where they are usable.
    with np.errstate(divide="ignore", invalid="ignore"):
        per_class = mu * (1.0 - mu) / sigma2 - 1.0
    return per_class, np.isfinite(per_class) & (per_class > 0.0)


def _row_sum(a: np.ndarray) -> np.ndarray:
    # Sequential by definition, so a row's sum cannot depend on other rows.
    return np.add.accumulate(a, axis=-1)[..., -1]


def _mean_var(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = probs.mean(axis=0)
    sigma2 = probs.var(axis=0, ddof=1)
    # Rounding in the mean can leave a ~1e-32 residue on columns whose
    # members agree bitwise; their spread is zero by definition.
    sigma2[np.all(probs == probs[0], axis=0)] = 0.0
    return mu, sigma2


def moments(s: SampleLike) -> MomentSummary:
    """Per-class empirical mean and unbiased variance of an ensemble."""
    mu, sigma2 = _mean_var(_as_sample(s).probs)
    valid = np.flatnonzero(_class_alpha0(mu, sigma2)[1])
    return MomentSummary(mu=mu, sigma2=sigma2, valid_classes=valid)


def _mom_rows(mu: np.ndarray, sigma2: np.ndarray, alpha0_cap: float) -> tuple[np.ndarray, np.ndarray]:
    # Moment fit of every row of (n, K) means and variances at once.
    per_class, valid = _class_alpha0(mu, sigma2)
    count = valid.sum(axis=1)
    degenerate = count == 0
    alpha0 = _row_sum(np.where(valid, per_class, 0.0)) / np.maximum(count, 1)
    alpha0[degenerate] = alpha0_cap
    return np.maximum(mu * alpha0[:, None], _ALPHA_FLOOR), degenerate


def _mle_rows(alpha: np.ndarray, lbar: np.ndarray, max_iter: int, eps: float, path=None):
    # Fixed-point sweeps on every row of (n, K) alpha at once.  A row leaves
    # the sweep when its own step is below eps relative; the others go on.
    # ``path`` receives a copy of all rows after each sweep.
    alpha = alpha.copy()
    used = np.full(alpha.shape[0], max_iter)
    converged = np.zeros(alpha.shape[0], dtype=bool)
    live = np.arange(alpha.shape[0])
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        old = alpha[live]
        new = inverse_digamma(digamma(_row_sum(old))[:, None] + lbar[live])
        done = np.sqrt(_row_sum((new - old) ** 2)) < eps * np.sqrt(_row_sum(old * old))
        alpha[live] = new
        if path is not None:
            path.append(alpha.copy())
        used[live[done]] = it
        converged[live[done]] = True
        live = live[~done]
    return alpha, used, converged


def _check(alpha0_cap=DEFAULT_ALPHA0_CAP, max_iter=DEFAULT_MAX_ITER, eps=DEFAULT_EPS, p_floor=DEFAULT_P_FLOOR):
    if not (math.isfinite(alpha0_cap) and alpha0_cap > 0.0):
        raise ValueError("alpha0_cap must be finite and > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (eps > 0.0 and p_floor > 0.0):
        raise ValueError("eps and p_floor must be > 0")


def fit_mom(s: SampleLike, alpha0_cap: float = DEFAULT_ALPHA0_CAP) -> FitResult:
    """Method-of-moments Dirichlet fit of one ensemble.

    Averages the per-class total-concentration estimates over the classes
    where one exists and scales the empirical mean by the result.  With no
    usable class the fit is flagged degenerate and the cap is used as the
    total concentration instead.
    """
    _check(alpha0_cap=alpha0_cap)
    mu, sigma2 = _mean_var(_as_sample(s).probs)
    alpha, degenerate = _mom_rows(mu[None], sigma2[None], alpha0_cap)
    return FitResult(params=DirichletParams(alpha[0]), degenerate=bool(degenerate[0]))


def fit_mle(
    s: SampleLike,
    init: DirichletParams,
    max_iter: int = DEFAULT_MAX_ITER,
    eps: float = DEFAULT_EPS,
    p_floor: float = DEFAULT_P_FLOOR,
    keep_path: bool = False,
) -> FitResult:
    """Fixed-point maximum-likelihood refinement of a Dirichlet fit.

    Iterates alpha_k <- psi^-1(psi(alpha_0) + lbar_k) until the update
    moves the parameter vector by less than ``eps`` in relative Euclidean
    norm or ``max_iter`` sweeps are exhausted.  Probabilities are floored
    at ``p_floor`` before taking logs so stored zeros stay finite.
    """
    sample = _as_sample(s)
    if init.k != sample.k:
        raise ValueError("init dimension does not match the ensemble")
    _check(max_iter=max_iter, eps=eps, p_floor=p_floor)
    path = [init.alpha[None].copy()] if keep_path else None
    lbar = np.log(np.maximum(sample.probs, p_floor)).mean(axis=0)
    alpha, used, converged = _mle_rows(init.alpha[None], lbar[None], max_iter, eps, path)
    return FitResult(DirichletParams(alpha[0]), False, int(used[0]), bool(converged[0]),
                     None if path is None else [a[0] for a in path])


def fit_batch(
    samples: Sequence[SampleLike],
    mode: str = "mom",
    *,
    alpha0_cap: float = DEFAULT_ALPHA0_CAP,
    max_iter: int = DEFAULT_MAX_ITER,
    eps: float = DEFAULT_EPS,
    p_floor: float = DEFAULT_P_FLOOR,
    n_threads: Optional[int] = None,
) -> list[FitResult]:
    """Fit every ensemble in a list, preserving input order.

    ``mode`` is "mom" or "mom_then_mle"; the latter refines each
    non-degenerate moment fit with the fixed-point MLE (degenerate fits
    are returned as-is, since identical ensemble members make the
    likelihood unbounded).  All inputs are fitted in one array pass;
    ``n_threads`` is checked to be at least 1 and changes nothing.
    """
    if mode not in ("mom", "mom_then_mle"):
        raise ValueError('mode must be "mom" or "mom_then_mle"')
    if n_threads is not None and n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    _check(alpha0_cap, max_iter, eps, p_floor)
    ensembles = [_as_sample(s) for s in samples]
    if not ensembles:
        return []
    k = ensembles[0].k
    for i, e in enumerate(ensembles):
        if e.k != k:
            raise ValueError(f"dimension mismatch: sample 0 has K={k}, sample {i} has K={e.k}")
    mu, sigma2 = (np.stack(a) for a in zip(*(_mean_var(e.probs) for e in ensembles)))
    alpha, degenerate = _mom_rows(mu, sigma2, alpha0_cap)
    refine = np.flatnonzero(~degenerate) if mode == "mom_then_mle" else np.arange(0)
    lbar = np.array([np.log(np.maximum(ensembles[i].probs, p_floor)).mean(axis=0) for i in refine])
    alpha[refine], used, converged = _mle_rows(alpha[refine], lbar.reshape(-1, k), max_iter, eps)
    results = [FitResult(DirichletParams(a), d) for a, d in zip(alpha, degenerate.tolist())]
    for i, it, conv in zip(refine.tolist(), used.tolist(), converged.tolist()):
        results[i].iterations_used, results[i].converged = it, conv
    return results
