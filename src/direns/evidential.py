"""Evidential classification heads, evaluated in closed form.

An evidential head turns a logit vector z into nonnegative per-class
evidence e_k through an activation, then into Dirichlet concentrations
alpha_k = e_k + delta.  This module evaluates that mapping and the losses
attached to it:

* ``mse_loss``      expected squared error E||y - p||^2 under Dir(alpha),
                    which decomposes into a bias and a variance term;
* ``digamma_loss``  expected cross entropy E[-sum_k y_k ln p_k], equal to
                    psi(alpha_0) - psi(alpha_true);
* ``mse_kl_loss``   the MSE term plus a weighted KL to the uniform prior;
* ``log_evidence_penalty``  lambda * ln(1 + alpha_0).

``losses`` evaluates any of the four row-wise on whole files; the scalar
losses above are its n=1 views.  Annealing schedules for the KL weight and
analytic gradients for every loss are included so finite-difference checks
can confirm the closed forms.  No training machinery lives here; everything
is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dirichlet import DirichletParams, ProbabilityVector, _kl_to_uniform, _variances, kl_to_uniform_grad
from .specfun import digamma, _trigamma

__all__ = [
    "LogitVector",
    "OneHotLabel",
    "EvidentialConfig",
    "ACTIVATIONS",
    "softmax",
    "ce_loss",
    "ce_gradient",
    "evidence",
    "alphas_from_evidence",
    "LOSSES",
    "losses",
    "mse_loss",
    "mse_loss_grad",
    "digamma_loss",
    "digamma_loss_grad",
    "mse_kl_loss",
    "mse_kl_loss_grad",
    "log_evidence_penalty",
    "annealed_lambda",
    "warmup_lambda",
]

ACTIVATIONS = ("softplus", "adaptive_softplus", "exponential")

DELTA_ZERO_FLOOR = 1e-6

LOSSES = ("mse", "digamma", "mse-kl", "log-ev")
# The name each weighted loss reports its weight by.
_WEIGHT_NAMES = {"mse-kl": "lambda_kl", "log-ev": "lambda_ev"}
# Rows per pass through the special functions, which bounds their temporaries.
_BLOCK_ROWS = 1024


@dataclass
class LogitVector:
    """Raw pre-activation scores, one per class."""

    z: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("z must be a 1-D vector with at least 2 components")
        if not np.all(np.isfinite(z)):
            raise ValueError("logits must be finite")
        self.z = z


@dataclass
class OneHotLabel:
    """The index of the single active class of a one-hot target."""

    k_true: int

    def __post_init__(self) -> None:
        if int(self.k_true) != self.k_true or self.k_true < 0:
            raise ValueError("k_true must be a nonnegative integer")
        self.k_true = int(self.k_true)


@dataclass
class EvidentialConfig:
    """Head configuration: activation choice, offset, and activation parameters.

    ``adaptive_beta`` (per-class, >= 1) and ``adaptive_gamma`` (per-class,
    > 0) must be given exactly when the activation is adaptive_softplus.
    ``clamp_bound`` applies only to the exponential activation, which
    clamps logits to [-clamp_bound, clamp_bound] before exponentiating.
    """

    activation: str = "softplus"
    delta: int = 1
    adaptive_beta: Optional[np.ndarray] = None
    adaptive_gamma: Optional[np.ndarray] = None
    clamp_bound: float = 30.0

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        adaptive = self.activation == "adaptive_softplus"
        has_params = self.adaptive_beta is not None or self.adaptive_gamma is not None
        if adaptive != has_params or (
            adaptive and (self.adaptive_beta is None or self.adaptive_gamma is None)
        ):
            raise ValueError(
                "adaptive_beta and adaptive_gamma are required for "
                "adaptive_softplus and disallowed otherwise"
            )
        if adaptive:
            beta = np.atleast_1d(np.asarray(self.adaptive_beta, dtype=np.float64))
            gamma = np.atleast_1d(np.asarray(self.adaptive_gamma, dtype=np.float64))
            if np.any(beta < 1.0) or not np.all(np.isfinite(beta)):
                raise ValueError("adaptive_beta components must be finite and >= 1")
            if np.any(gamma <= 0.0) or not np.all(np.isfinite(gamma)):
                raise ValueError("adaptive_gamma components must be finite and > 0")
            self.adaptive_beta = beta
            self.adaptive_gamma = gamma
        if not (math.isfinite(self.clamp_bound) and self.clamp_bound > 0.0):
            raise ValueError("clamp_bound must be finite and > 0")


LabelLike = Union[OneHotLabel, int]
LogitsLike = Union[LogitVector, np.ndarray, list, tuple]


def _logits(z: LogitsLike) -> np.ndarray:
    if isinstance(z, LogitVector):
        return z.z
    return LogitVector(np.asarray(z, dtype=np.float64)).z


def _class_index(y: LabelLike, k: int) -> int:
    idx = y.k_true if isinstance(y, OneHotLabel) else int(y)
    if not 0 <= idx < k:
        raise ValueError(f"label {idx} out of range for K={k}")
    return idx


def _point(p) -> np.ndarray:
    return p.p if isinstance(p, ProbabilityVector) else np.asarray(p, dtype=np.float64)


def softmax(z: LogitsLike, T: float = 1.0) -> ProbabilityVector:
    """Temperature softmax, computed max-shifted so it never overflows."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("temperature must be finite and > 0")
    w = _logits(z) / T
    w = w - w.max()
    e = np.exp(w)
    return ProbabilityVector(e / e.sum())


def ce_loss(p, y: LabelLike) -> float:
    """Cross entropy -ln p at the true class."""
    probs = _point(p)
    v = float(probs[_class_index(y, probs.size)])
    if v <= 0.0:
        raise ValueError("cross entropy undefined: zero probability at the true class")
    return -math.log(v)


def ce_gradient(z: LogitsLike, y: LabelLike) -> np.ndarray:
    """Gradient of the softmax cross entropy with respect to the logits.

    Equals softmax(z) - y componentwise, so every entry lies in [-1, 1]
    no matter how extreme the logits are.
    """
    logits = _logits(z)
    grad = softmax(logits, 1.0).p.copy()
    grad[_class_index(y, logits.size)] -= 1.0
    return grad


def evidence(z: LogitsLike, cfg: EvidentialConfig) -> np.ndarray:
    """Nonnegative per-class evidence under the configured activation.

    softplus:           ln(1 + exp(z))
    adaptive_softplus:  ln(beta + gamma exp(z)), beta >= 1, gamma > 0
    exponential:        exp(clip(z, -clamp_bound, clamp_bound))
    """
    logits = _logits(z)
    if cfg.activation == "softplus":
        return np.logaddexp(0.0, logits)
    if cfg.activation == "adaptive_softplus":
        return np.logaddexp(np.log(cfg.adaptive_beta), np.log(cfg.adaptive_gamma) + logits)
    return np.exp(np.clip(logits, -cfg.clamp_bound, cfg.clamp_bound))


def alphas_from_evidence(e: np.ndarray, delta: int) -> DirichletParams:
    """Concentrations alpha_k = e_k + delta.

    With delta = 0 the result is floored at 1e-6 so the parameters stay
    strictly positive even for zero evidence.
    """
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    ev = np.asarray(e, dtype=np.float64)
    if np.any(ev < 0.0) or not np.all(np.isfinite(ev)):
        raise ValueError("evidence must be finite and nonnegative")
    alpha = ev + float(delta)
    if delta == 0:
        alpha = np.maximum(alpha, DELTA_ZERO_FLOOR)
    return DirichletParams(alpha)


def _check_weight(value: float, name: str) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


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
    returns them) and (n,) labels in [0, K).  ``weight`` is lambda_kl for
    ``mse-kl`` and lambda_ev for ``log-ev``; the other losses ignore it.  A
    row whose loss overflows a float gives inf or NaN.
    """
    if kind not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {kind!r}")
    if kind in _WEIGHT_NAMES:
        _check_weight(weight, _WEIGHT_NAMES[kind])
    labels = np.array([_class_index(y, alpha.shape[1]) for y in labels], dtype=np.intp)
    out = np.empty(labels.size)
    with np.errstate(all="ignore"):
        for start in range(0, out.size, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            out[block] = _block_losses(kind, alpha[block], alpha0[block], labels[block], weight)
    return out


def _loss_view(kind: str, d: DirichletParams, y: LabelLike, weight: float = 0.0) -> float:
    return float(losses(kind, d.alpha[None], np.array([d.alpha0]), [y], weight)[0])


def mse_loss(d: DirichletParams, y: LabelLike) -> float:
    """Expected squared error of p ~ Dir(alpha) against the one-hot target.

    Closed form: sum_k (y_k - mu_k)^2 + sum_k Var[p_k] with
    mu_k = alpha_k / alpha_0.
    """
    return _loss_view("mse", d, y)


def mse_loss_grad(d: DirichletParams, y: LabelLike) -> np.ndarray:
    """Analytic gradient of ``mse_loss`` with respect to each alpha_j."""
    a0 = d.alpha0
    mu = d.alpha / a0
    idx = _class_index(y, d.k)
    target = np.zeros(d.k)
    target[idx] = 1.0
    resid = mu - target
    s = float(np.sum(mu * mu))
    err_part = 2.0 / a0 * (resid - np.sum(resid * mu))
    var_part = -2.0 * (mu - s) / (a0 * (a0 + 1.0)) - (1.0 - s) / ((a0 + 1.0) ** 2)
    return err_part + var_part


def digamma_loss(d: DirichletParams, y: LabelLike) -> float:
    """Expected cross entropy under Dir(alpha): psi(alpha_0) - psi(alpha_true)."""
    return _loss_view("digamma", d, y)


def digamma_loss_grad(d: DirichletParams, y: LabelLike) -> np.ndarray:
    """Analytic gradient of ``digamma_loss`` with respect to each alpha_j."""
    idx = _class_index(y, d.k)
    grad = np.full(d.k, _trigamma(d.alpha0))
    grad[idx] -= _trigamma(float(d.alpha[idx]))
    return grad


def mse_kl_loss(d: DirichletParams, y: LabelLike, lambda_kl: float) -> float:
    """MSE loss plus ``lambda_kl`` times the KL to the uniform Dirichlet."""
    return _loss_view("mse-kl", d, y, lambda_kl)


def mse_kl_loss_grad(d: DirichletParams, y: LabelLike, lambda_kl: float) -> np.ndarray:
    """Analytic gradient of ``mse_kl_loss`` with respect to each alpha_j."""
    _check_weight(lambda_kl, "lambda_kl")
    return mse_loss_grad(d, y) + lambda_kl * kl_to_uniform_grad(d)


def log_evidence_penalty(d: DirichletParams, lambda_ev: float) -> float:
    """Total-evidence regularizer ``lambda_ev * ln(1 + alpha_0)``."""
    return _loss_view("log-ev", d, 0, lambda_ev)


def _check_schedule(lambda0: float, t: float, total: float) -> None:
    if not math.isfinite(lambda0):
        raise ValueError(f"lambda0 must be finite, got {lambda0}")
    if not (math.isfinite(total) and total >= 1):
        raise ValueError("total epochs must be finite and at least 1")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"epoch must be finite and nonnegative, got {t}")


def annealed_lambda(lambda0: float, k: int, t: float, total: float) -> float:
    """Linearly annealed KL weight ``(lambda0 / K) * (t / total)``."""
    if k < 2:
        raise ValueError("K must be at least 2")
    _check_schedule(lambda0, t, total)
    if t > total:
        raise ValueError(f"epoch {t} outside [0, {total}]")
    return (lambda0 / k) * (t / total)


def warmup_lambda(lambda0: float, t: float, total: float) -> float:
    """Warm-up KL weight ``lambda0 * min(1, t / total)``.

    Unlike the linear schedule, epochs past ``total`` are valid here and
    saturate at ``lambda0``.
    """
    _check_schedule(lambda0, t, total)
    return lambda0 * min(1.0, t / total)
