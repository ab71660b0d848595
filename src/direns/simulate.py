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

All draws come from one seeded generator in a fixed order, so a given
configuration always produces identical files.  ``generate`` draws every
input's members into one (n, M, K) array, ``SimulatedData.probs``; the
per-id ``ensembles`` are views into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["SimulationConfig", "SimulatedData", "generate", "SCHEMES"]

SCHEMES = ("fixed", "two_population", "collapse")


@dataclass
class SimulationConfig:
    """Generator settings: sizes, seed, and the per-sample alpha scheme."""

    n: int
    m: int
    k: int
    seed: int
    scheme: str = "fixed"
    alpha: Optional[np.ndarray] = None
    collapse_alpha0: float = 1e7
    frac_incorrect: float = 0.3
    correct_alpha0: tuple = (50.0, 500.0)
    incorrect_alpha0: tuple = (3.0, 30.0)
    peak: float = 0.8

    def __post_init__(self) -> None:
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
            self.alpha = alpha
        if self.scheme == "collapse" and not (
            math.isfinite(self.collapse_alpha0) and self.collapse_alpha0 > 0.0
        ):
            raise ValueError("collapse_alpha0 must be finite and > 0")
        if self.scheme == "two_population":
            if not 0.0 <= self.frac_incorrect <= 1.0:
                raise ValueError("frac_incorrect must lie in [0, 1]")
            for lo, hi in (self.correct_alpha0, self.incorrect_alpha0):
                if not (0.0 < lo <= hi):
                    raise ValueError("alpha0 ranges must satisfy 0 < lo <= hi")
            if not 1.0 / self.k < self.peak < 1.0:
                raise ValueError(f"peak must lie in (1/K, 1) = ({1.0 / self.k}, 1)")


@dataclass
class SimulatedData:
    """Generated dataset: ids, labels, ground-truth alphas, and ensembles.

    ``probs[i, m]`` is member ``model_ids[m]``'s probability vector for
    ``sample_ids[i]``, an (n, M, K) array.  ``ensembles`` and ``alphas`` map
    each sample id to its (M, K) ensemble and its (K,) concentrations, both
    views into arrays.
    """

    sample_ids: list
    model_ids: list
    labels: dict
    alphas: dict
    ensembles: dict = field(repr=False)
    probs: np.ndarray = field(repr=False)


def _peaked_mean(k: int, target: int, peak: float) -> np.ndarray:
    mean = np.full(k, (1.0 - peak) / (k - 1))
    mean[target] = peak
    return mean


def generate(config: SimulationConfig) -> SimulatedData:
    """Draw the dataset described by ``config``, deterministically per seed."""
    rng = np.random.default_rng(config.seed)
    n, m, k = config.n, config.m, config.k
    width = max(1, len(str(n - 1)))
    model_width = max(1, len(str(m - 1)))
    sample_ids = [f"s{i:0{width}d}" for i in range(n)]
    model_ids = [f"m{j:0{model_width}d}" for j in range(m)]

    # Each input draws its label, its alpha and then its (M, K) gamma block
    # in turn; drawing the blocks together would reorder the seeded stream.
    labels: list[int] = []
    alphas = np.empty((n, k))
    probs = np.empty((n, m, k))
    if config.scheme == "fixed":
        alphas[:] = config.alpha
        mean = config.alpha / config.alpha.sum()
    elif config.scheme == "collapse":
        alphas[:] = config.collapse_alpha0 / k
    else:
        peaked = [_peaked_mean(k, target, config.peak) for target in range(k)]
    for i in range(n):
        if config.scheme == "fixed":
            label = int(rng.choice(k, p=mean))
        elif config.scheme == "collapse":
            label = int(rng.integers(k))
        else:
            label = int(rng.integers(k))
            wrong = int(rng.integers(k - 1))
            if wrong >= label:
                wrong += 1
            incorrect = bool(rng.random() < config.frac_incorrect)
            lo, hi = config.incorrect_alpha0 if incorrect else config.correct_alpha0
            alphas[i] = float(rng.uniform(lo, hi)) * peaked[wrong if incorrect else label]
        rng.standard_gamma(alphas[i], size=(m, k), out=probs[i])
        labels.append(label)
    np.maximum(probs, 1e-300, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)
    return SimulatedData(
        sample_ids=sample_ids,
        model_ids=model_ids,
        labels=dict(zip(sample_ids, labels)),
        alphas=dict(zip(sample_ids, alphas)),
        ensembles=dict(zip(sample_ids, probs)),
        probs=probs,
    )
