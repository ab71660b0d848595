"""Dirichlet parameter estimation from ensembles of simplex points.

Given M probability vectors for one input, treated as i.i.d. draws from an
unknown Dirichlet, two estimators are provided.

Method of moments: match the empirical mean mu_k and unbiased variance
sigma2_k of each class to the Dirichlet moments.  Each class with
0 < mu_k (1 - mu_k) / sigma2_k - 1 < inf contributes a total-concentration
estimate; their average gives alpha0_hat, and alpha_k = mu_k * alpha0_hat.
When no class qualifies (zero spread, or spread too large for any positive
solution) the result is flagged degenerate and alpha0 is set to a cap.

Newton MLE: starting from an initial guess (typically the moment fit),
take Newton steps on the Dirichlet log-likelihood, whose gradient is
g_k = psi(alpha_0) - psi(alpha_k) + lbar_k with lbar_k the mean log
probability of class k.  Its Hessian is a diagonal plus a constant, so each
step costs O(K) (Minka 2000, "Estimating a Dirichlet distribution").  Every
step is halved until it keeps alpha positive and does not lower the
likelihood beyond rounding, so the likelihood never decreases along the
iteration; from the moment fit a row converges in a handful of steps.  The
likelihood is ``dirichlet._log_likelihood_rows``, the value that
``log_likelihood`` reports divided by M.

Both are array kernels over (n, K) per-input summaries, and ``_fit`` is
the one implementation that runs them: on every input of an (n, M, K)
block, as the CLI calls it on the predictions reader's array, or of a list
of (M_i, K) ensembles.  ``fit_mom``, ``fit_mle`` and ``fit_batch`` are its
views.  The (n, M, K) block is summarized into (n, K) means, variances
and mean logs a fixed number of elements at a time, so the fit holds no
temporary the size of the block.  Each step is elementwise or reduces
within one input, and each row stops its steps on its own, so a row's fit
has the same bits in any batch and in any row block.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .dirichlet import (_AT_LEAST_1, _LL_ROUNDING, _OPEN_UNIT, _POSITIVE, DirichletParams, _check_simplex,
                        _log_likelihood_rows, _require, _row_sum)
from .specfun import _trigamma, digamma

__all__ = [
    "EnsembleSample",
    "FitResult",
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

# A step not accepted after this many halvings is refused.
_MAX_HALVINGS = 64

# The summaries of an (n, M, K) block are taken this many elements of it
# at a time, so their temporaries stay this size whatever n is.
_SUMMARY_BLOCK = 1 << 16


class EnsembleSample:
    """M >= 2 probability vectors of dimension K for a single input."""

    def __init__(self, probs: np.ndarray) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError("probs must be a 2-D array, one simplex point per row")
        m, k = probs.shape
        if m < 2:
            raise ValueError("an ensemble needs at least 2 members")
        if k < 2:
            raise ValueError("an ensemble needs at least 2 classes")
        _check_simplex(probs)
        self.probs = probs

    @property
    def m(self) -> int:
        return int(self.probs.shape[0])

    @property
    def k(self) -> int:
        return int(self.probs.shape[1])


class FitResult(NamedTuple):
    """Fitted parameters plus estimator diagnostics.

    ``degenerate`` marks a moment fit that fell back to the configured
    total-concentration cap.  ``iterations_used`` (Newton steps taken) and
    ``converged`` are populated by the MLE refinement only; ``alpha_path``
    holds the parameter trajectory when the refinement was asked to record
    it.
    """

    params: DirichletParams
    degenerate: bool
    iterations_used: Optional[int] = None
    converged: Optional[bool] = None
    alpha_path: Optional[list] = None


SampleLike = Union[EnsembleSample, np.ndarray, list, tuple]


def _as_sample(s: SampleLike) -> EnsembleSample:
    return s if isinstance(s, EnsembleSample) else EnsembleSample(np.asarray(s, dtype=np.float64))


def _class_alpha0(mu: np.ndarray, sigma2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Per-class total-concentration estimates and where they are usable.
    with np.errstate(divide="ignore", invalid="ignore"):
        per_class = mu * (1.0 - mu) / sigma2 - 1.0
    return per_class, np.isfinite(per_class) & (per_class > 0.0)


def _summaries(probs: np.ndarray, p_floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Mean, unbiased variance and floored mean log over the members axis
    # (-2) of one (M, K) ensemble or an (n, M, K) block.  Each input reduces
    # alone, so its values have the same bits in either shape.
    mu = probs.mean(axis=-2)
    sigma2 = probs.var(axis=-2, ddof=1)
    # Rounding in the mean can leave a ~1e-32 residue on columns whose
    # members agree bitwise; their spread is zero by definition.
    sigma2[np.all(probs == probs[..., :1, :], axis=-2)] = 0.0
    logs = np.maximum(probs, p_floor)
    return mu, sigma2, np.log(logs, out=logs).mean(axis=-2)


def _mom_rows(mu: np.ndarray, sigma2: np.ndarray, alpha0_cap: float) -> tuple[np.ndarray, np.ndarray]:
    # Moment fit of every row of (n, K) means and variances at once.
    per_class, valid = _class_alpha0(mu, sigma2)
    count = valid.sum(axis=1)
    degenerate = count == 0
    alpha0 = _row_sum(np.where(valid, per_class, 0.0)) / np.maximum(count, 1)
    alpha0[degenerate] = alpha0_cap
    return np.maximum(mu * alpha0[:, None], _ALPHA_FLOOR), degenerate


def _newton_rows(alpha: np.ndarray, lbar: np.ndarray, ll: np.ndarray, scale: np.ndarray):
    # One safeguarded Newton step on every row.  The Hessian of the
    # log-likelihood is diag(q) + z, so its Newton step d = (g - b) / q costs
    # O(K) (Minka 2000).  The step is applied as alpha / (1 + t d / alpha),
    # which agrees with alpha - t d to first order, so convergence stays
    # quadratic.  Where alpha - d would go negative, as from a moment fit
    # whose total concentration s is far too large, it does not: on a
    # likelihood a ln(s) - b s, the shape the Dirichlet's takes there, it
    # lands on the maximum in one step.  t halves from 1 until alpha stays
    # finite and positive and the log-likelihood does not fall by more than
    # its rounding bound.  A row with no such t keeps alpha.
    alpha0 = _row_sum(alpha)
    g = digamma(alpha0)[:, None] - digamma(alpha) + lbar
    q = -_trigamma(alpha)
    b = _row_sum(g / q) / (1.0 / _trigamma(alpha0) + _row_sum(1.0 / q))
    rel = (g - b[:, None]) / (q * alpha)
    new, new_ll, new_scale = alpha.copy(), ll.copy(), scale.copy()
    accepted = np.zeros(alpha.shape[0], dtype=bool)
    t = 1.0
    # Halving cannot make a non-finite step finite.
    todo = np.flatnonzero(np.isfinite(_row_sum(rel)))
    for _ in range(_MAX_HALVINGS):
        cand = alpha[todo] / (1.0 + t * rel[todo])
        inside = np.all(cand > 0.0, axis=1) & np.isfinite(_row_sum(cand))
        cand_ll = np.full(todo.size, -np.inf)
        cand_scale = np.zeros(todo.size)
        cand_ll[inside], cand_scale[inside] = _log_likelihood_rows(cand[inside], lbar[todo[inside]])
        ok = cand_ll >= ll[todo] - _LL_ROUNDING * (scale[todo] + cand_scale)
        rows = todo[ok]
        new[rows], new_ll[rows], new_scale[rows] = cand[ok], cand_ll[ok], cand_scale[ok]
        accepted[rows] = True
        todo = todo[~ok]
        if todo.size == 0:
            break
        t *= 0.5
    return new, new_ll, new_scale, accepted


def _mle_rows(alpha: np.ndarray, lbar: np.ndarray, max_iter: int, eps: float, path=None):
    # Newton steps on every row of (n, K) alpha at once.  A row leaves when
    # its own accepted step is below eps relative; the others go on.
    # ``path`` receives a copy of all rows after each step.
    alpha = alpha.copy()
    used = np.full(alpha.shape[0], max_iter)
    converged = np.zeros(alpha.shape[0], dtype=bool)
    live = np.arange(alpha.shape[0])
    # Overflow and division by zero only meet rows whose alpha is extreme;
    # their steps or candidates are not finite and are refused.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ll, scale = _log_likelihood_rows(alpha, lbar)
        for it in range(1, max_iter + 1):
            if live.size == 0:
                break
            old = alpha[live]
            new, ll[live], scale[live], accepted = _newton_rows(old, lbar[live], ll[live], scale[live])
            done = accepted & (np.sqrt(_row_sum((new - old) ** 2)) < eps * np.sqrt(_row_sum(old * old)))
            alpha[live] = new
            if path is not None:
                path.append(alpha.copy())
            used[live[done]] = it
            converged[live[done]] = True
            live = live[~done]
    return alpha, used, converged


def _check(alpha0_cap, max_iter, eps, p_floor) -> None:
    _require("alpha0_cap", alpha0_cap, _POSITIVE)
    _require("max_iter", max_iter, _AT_LEAST_1)
    _require("eps", eps, _POSITIVE)
    _require("p_floor", p_floor, _OPEN_UNIT)


def _fit(probs, mle: bool, init=None, path=None, *, alpha0_cap=DEFAULT_ALPHA0_CAP, max_iter=DEFAULT_MAX_ITER,
         eps=DEFAULT_EPS, p_floor=DEFAULT_P_FLOOR):
    """Fit every input of an unchecked (n, M, K) block, or of a list of (M_i, K) ensembles.

    Returns (n, K) concentrations and (n,) degenerate flags, MLE Newton
    steps used (0 where not refined) and convergence.  Rows start from their
    moment fit, or from ``init`` (n, K); with ``mle`` the non-degenerate
    ones are refined, and ``path`` receives them after each step.
    """
    _check(alpha0_cap, max_iter, eps, p_floor)
    if isinstance(probs, np.ndarray):
        n, m, k = probs.shape
        mu, sigma2, lbar = (np.empty((n, k)) for _ in range(3))
        step = max(1, _SUMMARY_BLOCK // max(m * k, 1))
        for i in range(0, n, step):
            rows = slice(i, i + step)
            mu[rows], sigma2[rows], lbar[rows] = _summaries(probs[rows], p_floor)
    else:
        mu, sigma2, lbar = (np.stack(a) for a in zip(*(_summaries(p, p_floor) for p in probs)))
    if init is None:
        alpha, degenerate = _mom_rows(mu, sigma2, alpha0_cap)
    else:
        alpha, degenerate = np.array(init, dtype=np.float64), np.zeros(len(init), dtype=bool)
    used = np.zeros(alpha.shape[0], dtype=np.int64)
    converged = np.zeros(alpha.shape[0], dtype=bool)
    if mle:
        refine = np.flatnonzero(~degenerate)
        alpha[refine], used[refine], converged[refine] = _mle_rows(alpha[refine], lbar[refine], max_iter, eps, path)
    return alpha, degenerate, used, converged


def fit_mom(s: SampleLike, alpha0_cap: float = DEFAULT_ALPHA0_CAP) -> FitResult:
    """Method-of-moments Dirichlet fit of one ensemble.

    Averages the per-class total-concentration estimates over the classes
    where one exists and scales the empirical mean by the result.  With no
    usable class the fit is flagged degenerate and the cap is used as the
    total concentration instead.
    """
    alpha, degenerate, _, _ = _fit(_as_sample(s).probs[None], False, alpha0_cap=alpha0_cap)
    return FitResult(params=DirichletParams(alpha[0]), degenerate=bool(degenerate[0]))


def fit_mle(
    s: SampleLike,
    init: DirichletParams,
    max_iter: int = DEFAULT_MAX_ITER,
    eps: float = DEFAULT_EPS,
    p_floor: float = DEFAULT_P_FLOOR,
    keep_path: bool = False,
) -> FitResult:
    """Newton maximum-likelihood refinement of a Dirichlet fit.

    Takes Newton steps on the log-likelihood, each halved until alpha stays
    positive and the likelihood does not fall beyond rounding, until a step
    moves the parameter vector by less than ``eps`` in relative Euclidean
    norm or ``max_iter`` steps are exhausted.  Probabilities are floored at
    ``p_floor`` before taking logs so stored zeros stay finite.
    ``keep_path`` records ``init`` and every iterate in ``alpha_path``.
    """
    sample = _as_sample(s)
    if init.k != sample.k:
        raise ValueError("init dimension does not match the ensemble")
    path = [init.alpha[None].copy()] if keep_path else None
    alpha, _, used, converged = _fit(sample.probs[None], True, init.alpha[None], path,
                                     max_iter=max_iter, eps=eps, p_floor=p_floor)
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
    non-degenerate moment fit with the Newton MLE (degenerate fits
    are returned as-is, since identical ensemble members make the
    likelihood unbounded).  The ensembles may differ in M; all are fitted
    in one array pass.  ``n_threads`` is checked to be at least 1 and
    changes nothing.
    """
    if mode not in ("mom", "mom_then_mle"):
        raise ValueError('mode must be "mom" or "mom_then_mle"')
    if n_threads is not None:
        _require("n_threads", n_threads, _AT_LEAST_1)
    settings = dict(alpha0_cap=alpha0_cap, max_iter=max_iter, eps=eps, p_floor=p_floor)
    ensembles = [_as_sample(s) for s in samples]
    if not ensembles:
        _check(**settings)
        return []
    k = ensembles[0].k
    for i, e in enumerate(ensembles):
        if e.k != k:
            raise ValueError(f"dimension mismatch: sample 0 has K={k}, sample {i} has K={e.k}")
    mle = mode == "mom_then_mle"
    alpha, degenerate, used, converged = _fit([e.probs for e in ensembles], mle, **settings)
    return [
        FitResult(DirichletParams(a), d, *((it, conv) if mle and not d else (None, None)))
        for a, d, it, conv in zip(alpha, degenerate.tolist(), used.tolist(), converged.tolist())
    ]
