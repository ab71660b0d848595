"""Evidential losses of a Dirichlet, evaluated in closed form.

An evidential classifier outputs Dirichlet concentrations alpha in place of
a point prediction.  This module evaluates the losses on such
concentrations:

* ``mse``      expected squared error E||y - p||^2 under Dir(alpha), which
               decomposes into a bias and a variance term;
* ``digamma``  expected cross entropy E[-sum_k y_k ln p_k], equal to
               psi(alpha_0) - psi(alpha_true);
* ``mse-kl``   the MSE term plus a weighted KL to the uniform prior;
* ``log-ev``   the total-evidence regularizer lambda * ln(1 + alpha_0).

``losses`` evaluates any of them row-wise on whole files; ``mse_loss`` and
``digamma_loss`` are its n=1 views of the first two.  ``softmax``,
``ce_loss`` and ``ce_gradient`` give the softmax cross entropy of a logit
vector and its gradient.  No training machinery lives here; everything is
a pure function.
"""

from __future__ import annotations

import math

import numpy as np

from .dirichlet import (_AT_LEAST_2, _EPOCHS, _NONNEGATIVE, _POSITIVE, DirichletParams, ProbabilityVector,
                        _class_index, _kl_to_uniform, _point, _require, _variances)
from .specfun import digamma

__all__ = [
    "softmax",
    "ce_loss",
    "ce_gradient",
    "LOSSES",
    "losses",
    "mse_loss",
    "digamma_loss",
    "annealed_lambda",
]

LOSSES = ("mse", "digamma", "mse-kl", "log-ev")
# The name each weighted loss reports its weight by.
_WEIGHT_NAMES = {"mse-kl": "lambda_kl", "log-ev": "lambda_ev"}
# Rows per pass through the special functions, which bounds their temporaries.
_BLOCK_ROWS = 1024


def _logits(z) -> np.ndarray:
    logits = np.asarray(z, dtype=np.float64)
    if logits.ndim != 1 or logits.size < 2:
        raise ValueError("z must be a 1-D vector with at least 2 components")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    return logits


def softmax(z, T: float = 1.0) -> ProbabilityVector:
    """Temperature softmax, computed max-shifted so it never overflows."""
    _require("temperature", T, _POSITIVE)
    w = _logits(z) / T
    w = w - w.max()
    e = np.exp(w)
    return ProbabilityVector(e / e.sum())


def ce_loss(p, y: int) -> float:
    """Cross entropy -ln p at the true class."""
    probs = _point(p).p
    v = float(probs[_class_index(y, probs.size)])
    if v <= 0.0:
        raise ValueError("cross entropy undefined: zero probability at the true class")
    return -math.log(v)


def ce_gradient(z, y: int) -> np.ndarray:
    """Gradient of the softmax cross entropy with respect to the logits.

    Equals softmax(z) - y componentwise, so every entry lies in [-1, 1]
    no matter how extreme the logits are.
    """
    logits = _logits(z)
    grad = softmax(logits, 1.0).p.copy()
    grad[_class_index(y, logits.size)] -= 1.0
    return grad


def _block_losses(kind: str, alpha: np.ndarray, alpha0: np.ndarray, labels: np.ndarray,
                  weight: float) -> np.ndarray:
    if kind == "log-ev":
        return weight * np.array([math.log1p(a0) for a0 in alpha0.tolist()])
    rows = np.arange(labels.size)
    if kind == "digamma":
        return digamma(alpha0) - digamma(alpha[rows, labels])
    # y - mu, with mu_k = alpha_k / alpha_0 and y the one-hot target.
    resid = -alpha / alpha0[:, None]
    resid[rows, labels] += 1.0
    mse = np.sum(resid ** 2, axis=1) + np.sum(_variances(alpha, alpha0, total=False), axis=1)
    return mse if kind == "mse" else mse + weight * _kl_to_uniform(alpha, alpha0)


def losses(kind: str, alpha: np.ndarray, alpha0: np.ndarray, labels, weight: float = 0.0) -> np.ndarray:
    """The ``kind`` loss (one of ``LOSSES``) of every row, as an (n,) array.

    Takes (n, K) concentrations, their (n,) exact totals (as ``read_alphas``
    returns them) and (n,) labels in [0, K).  A label is an integer or an
    integral float such as 2.0; any other (1.5, NaN, inf) raises
    ``ValueError``, as in the scalar losses.  ``weight`` is lambda_kl for
    ``mse-kl`` and lambda_ev for ``log-ev``; the other losses ignore it.  A
    row whose loss overflows a float gives inf or NaN.
    """
    if kind not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {kind!r}")
    if kind in _WEIGHT_NAMES:
        _require(_WEIGHT_NAMES[kind], weight, _NONNEGATIVE)
    k = alpha.shape[1]
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iu":
        bad = np.flatnonzero((labels < 0) | (labels >= k))
        if bad.size:
            _class_index(labels[bad[0]], k)
        labels = labels.astype(np.intp)
    else:
        labels = np.array([_class_index(y, k) for y in labels], dtype=np.intp)
    out = np.empty(labels.size)
    with np.errstate(all="ignore"):
        for start in range(0, out.size, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            out[block] = _block_losses(kind, alpha[block], alpha0[block], labels[block], weight)
    return out


def _loss_view(kind: str, d: DirichletParams, y: int) -> float:
    return float(losses(kind, d.alpha[None], np.array([d.alpha0]), [y])[0])


def mse_loss(d: DirichletParams, y: int) -> float:
    """Expected squared error of p ~ Dir(alpha) against the one-hot target.

    Closed form: sum_k (y_k - mu_k)^2 + sum_k Var[p_k] with
    mu_k = alpha_k / alpha_0.
    """
    return _loss_view("mse", d, y)


def digamma_loss(d: DirichletParams, y: int) -> float:
    """Expected cross entropy under Dir(alpha): psi(alpha_0) - psi(alpha_true)."""
    return _loss_view("digamma", d, y)


def annealed_lambda(lambda0: float, k: int, t: float, total: float) -> float:
    """Linearly annealed KL weight ``(lambda0 / K) * (t / total)``."""
    _require("K", k, _AT_LEAST_2)
    if not math.isfinite(lambda0):
        raise ValueError(f"lambda0 must be finite, got {lambda0}")
    _require("total epochs", total, _EPOCHS)
    _require("epoch", t, _NONNEGATIVE)
    if t > total:
        raise ValueError(f"epoch {t} outside [0, {total}]")
    return (lambda0 / k) * (t / total)

