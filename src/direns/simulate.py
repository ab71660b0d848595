"""Synthetic ensemble generation for pipeline and estimator testing.

Each generated input gets a ground-truth concentration vector, a label,
and M probability vectors drawn from the corresponding Dirichlet.  Three
schemes cover the cases the downstream stages care about:

* ``fixed``: one concentration vector shared by every input; labels are
  drawn from its predictive mean.
* ``two_population``: a mixture of inputs whose Dirichlet peaks at the
  true label with high total concentration (low variance, correct) and
  inputs peaked at a wrong class with low total concentration (high
  variance, incorrect).  Variance then separates correct from incorrect,
  which is what threshold calibration needs to have any signal.
* ``collapse``: every input shares the uniform-mean vector with a huge
  total concentration, the degenerate regime where all variances
  coincide and selective classification has no operating points left.

Each drawn quantity has its own child stream of the configuration's
seed (``np.random.SeedSequence(seed).spawn``): the labels, the wrong
classes, the incorrect flags, the alpha_0 scales and the gamma block.  Each
is drawn as one whole array, so a given configuration always produces
identical files, and row i's draws do not depend on n: the first n' rows of
an n-row dataset are the n'-row dataset.  ``generate`` returns arrays in
sample id order: ``SimulatedData.label`` the (n,) labels, ``.alpha`` the
(n, K) concentrations and ``.probs`` the (n, M, K) members.  The per-id
maps ``labels``, ``alphas`` and ``ensembles`` are built on first access,
the last two of views into the arrays.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = ["SimulationConfig", "SimulatedData", "generate", "SCHEMES"]

SCHEMES = ("fixed", "two_population", "collapse")


class SimulationConfig:
    """Generator settings: sizes, seed, and the per-sample alpha scheme."""

    def __init__(self, n: int, m: int, k: int, seed: int, scheme: str = "fixed",
                 alpha: Optional[np.ndarray] = None, collapse_alpha0: float = 1e7,
                 frac_incorrect: float = 0.3, correct_alpha0: tuple = (50.0, 500.0),
                 incorrect_alpha0: tuple = (3.0, 30.0), peak: float = 0.8) -> None:
        self.n, self.m, self.k, self.seed, self.scheme, self.alpha = n, m, k, seed, scheme, alpha
        self.collapse_alpha0, self.frac_incorrect, self.peak = collapse_alpha0, frac_incorrect, peak
        self.correct_alpha0, self.incorrect_alpha0 = correct_alpha0, incorrect_alpha0
        if self.n < 1 or self.m < 1 or self.k < 2:
            raise ValueError("need n >= 1, m >= 1, k >= 2")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.scheme == "fixed":
            if self.alpha is None:
                raise ValueError("the fixed scheme requires an alpha vector")
            alpha = np.asarray(self.alpha, dtype=np.float64)
            if alpha.size != self.k or np.any(alpha <= 0.0) or not np.all(np.isfinite(alpha)):
                raise ValueError(f"alpha must be {self.k} finite positive values")
            with np.errstate(over="ignore"):
                if not np.isfinite(alpha.sum()):
                    raise ValueError("alpha must have a finite sum")
            self.alpha = alpha
        if self.scheme == "collapse" and not (
            math.isfinite(self.collapse_alpha0) and self.collapse_alpha0 > 0.0
        ):
            raise ValueError("collapse_alpha0 must be finite and > 0")
        if self.scheme == "two_population":
            if not 0.0 <= self.frac_incorrect <= 1.0:
                raise ValueError("frac_incorrect must lie in [0, 1]")
            for name, (lo, hi) in (("correct_alpha0", self.correct_alpha0),
                                   ("incorrect_alpha0", self.incorrect_alpha0)):
                if not (0.0 < lo <= hi and math.isfinite(hi)):
                    raise ValueError(f"{name} must satisfy 0 < lo <= hi < inf")
            if not 1.0 / self.k < self.peak < 1.0:
                raise ValueError(f"peak must lie in (1/K, 1) = ({1.0 / self.k}, 1)")


class SimulatedData:
    """Generated dataset: ids, labels, ground-truth alphas, and ensembles.

    ``sample_ids`` are in sorted order.  ``probs[i, m]`` is member
    ``model_ids[m]``'s probability vector for ``sample_ids[i]``, an
    (n, M, K) array, ``alpha[i]`` its (K,) concentrations, an (n, K) array,
    and ``label[i]`` its label, an (n,) int array.  ``labels``, ``alphas``
    and ``ensembles`` map each sample id to its label as an int, its (K,)
    concentrations and its (M, K) ensemble, views into ``alpha`` and
    ``probs``; each map is built on first access.
    """

    def __init__(self, sample_ids: list, model_ids: list, label: np.ndarray, probs: np.ndarray,
                 alpha: np.ndarray) -> None:
        self.sample_ids, self.model_ids = sample_ids, model_ids
        self.label, self.probs, self.alpha = label, probs, alpha

    @cached_property
    def labels(self) -> dict:
        return dict(zip(self.sample_ids, self.label.tolist()))

    @cached_property
    def alphas(self) -> dict:
        return dict(zip(self.sample_ids, self.alpha))

    @cached_property
    def ensembles(self) -> dict:
        return dict(zip(self.sample_ids, self.probs))


def generate(config: SimulationConfig) -> SimulatedData:
    """Draw the dataset described by ``config``, deterministically per seed."""
    label_rng, wrong_rng, flag_rng, scale_rng, gamma_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(config.seed).spawn(5)
    )
    n, m, k = config.n, config.m, config.k
    width = max(1, len(str(n - 1)))
    model_width = max(1, len(str(m - 1)))
    sample_ids = [f"s{i:0{width}d}" for i in range(n)]
    model_ids = [f"m{j:0{model_width}d}" for j in range(m)]

    if config.scheme == "fixed":
        labels = label_rng.choice(k, size=n, p=config.alpha / config.alpha.sum())
        alpha = np.tile(config.alpha, (n, 1))
    elif config.scheme == "collapse":
        labels = label_rng.integers(k, size=n)
        alpha = np.full((n, k), config.collapse_alpha0 / k)
    else:
        labels = label_rng.integers(k, size=n)
        wrong = wrong_rng.integers(k - 1, size=n)
        wrong += wrong >= labels
        incorrect = flag_rng.random(n) < config.frac_incorrect
        (clo, chi), (ilo, ihi) = config.correct_alpha0, config.incorrect_alpha0
        scale = scale_rng.uniform(np.where(incorrect, ilo, clo), np.where(incorrect, ihi, chi))
        # Each row's alpha_0 times the mean that peaks at its target class.
        target = np.where(incorrect, wrong, labels)
        alpha = np.where(np.arange(k) == target[:, None], config.peak, (1.0 - config.peak) / (k - 1))
        alpha *= scale[:, None]
    probs = np.empty((n, m, k))
    gamma_rng.standard_gamma(np.broadcast_to(alpha[:, None, :], (n, m, k)), out=probs)
    np.maximum(probs, 1e-300, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)
    return SimulatedData(sample_ids, model_ids, labels, probs, alpha)
