"""Every setting rule is stated once: the library's errors and the CLI's flags agree.

The library names each setting by its parameter and shows its value; a CLI
flag that sets a library parameter is held to the same rule, so the two
reject the same values with the same text, bar the name.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from direns.calibration import LabeledPrediction, calibration_report, ece
from direns.cli import main
from direns.dirichlet import DirichletParams, ProbabilityVector, sample
from direns.estimators import EnsembleSample, fit_batch, fit_mle, fit_mom
from direns.evidential import annealed_lambda, losses, softmax
from direns.selective import ScoredSample, _variance_histograms, calibrate_threshold
from direns.simulate import SimulationConfig

ENSEMBLE = EnsembleSample(np.array([[0.6, 0.4], [0.8, 0.2]]))
PREDICTIONS = [LabeledPrediction(ProbabilityVector([0.6, 0.4]), 0)]
SCORED = [ScoredSample("s0", ProbabilityVector([0.6, 0.4]), 0.01, 0)]
ONE_ROW = (np.array([[2.0, 3.0]]), np.array([5.0]), [0])


def config(**kw) -> SimulationConfig:
    return SimulationConfig(**{"n": 1, "m": 1, "k": 3, "seed": 0, "scheme": "two_population", **kw})


# Each library setting error, exactly.
LIBRARY_ERRORS = [
    (lambda: config(n=0), "n must be at least 1, got 0"),
    (lambda: config(m=0), "m must be at least 1, got 0"),
    (lambda: config(k=1), "k must be at least 2, got 1"),
    (lambda: config(scheme="fixed", alpha=np.array([1.0, -1.0, 1.0])),
     "alpha must be 3 finite positive values with a finite sum, got [1.0, -1.0, 1.0]"),
    (lambda: config(scheme="fixed", alpha=np.array([1.0, 2.0])),
     "alpha must be 3 finite positive values with a finite sum, got [1.0, 2.0]"),
    (lambda: config(scheme="fixed", alpha=np.array([1e308, 1e308, 1.0])),
     "alpha must be 3 finite positive values with a finite sum, got [1e+308, 1e+308, 1.0]"),
    (lambda: config(scheme="collapse", collapse_alpha0=0.0), "collapse_alpha0 must be finite and > 0, got 0.0"),
    (lambda: config(frac_incorrect=2.0), "frac_incorrect must lie in [0, 1], got 2.0"),
    (lambda: config(correct_alpha0=(1.0, math.inf)),
     "correct_alpha0 must satisfy 0 < lo <= hi < inf, got (1.0, inf)"),
    (lambda: config(incorrect_alpha0=(5.0, 3.0)), "incorrect_alpha0 must satisfy 0 < lo <= hi < inf, got (5.0, 3.0)"),
    (lambda: config(peak=0.2), "peak must lie in (1/K, 1) = (1/3, 1), got 0.2"),
    (lambda: fit_batch([ENSEMBLE], n_threads=0), "n_threads must be at least 1, got 0"),
    (lambda: fit_mom(ENSEMBLE, alpha0_cap=math.nan), "alpha0_cap must be finite and > 0, got nan"),
    (lambda: fit_mle(ENSEMBLE, fit_mom(ENSEMBLE).params, max_iter=0), "max_iter must be at least 1, got 0"),
    (lambda: fit_mle(ENSEMBLE, fit_mom(ENSEMBLE).params, eps=0.0), "eps must be finite and > 0, got 0.0"),
    (lambda: fit_batch([ENSEMBLE], p_floor=1.0), "p_floor must lie in (0, 1), got 1.0"),
    (lambda: ece(PREDICTIONS, 0), "n_bins must be at least 1, got 0"),
    (lambda: calibration_report(PREDICTIONS, 10, 1.5), "threshold must lie in [0, 1], got 1.5"),
    (lambda: calibrate_threshold(SCORED, 1.0), "target risk must lie in (0, 1), got 1.0"),
    (lambda: _variance_histograms(np.array([0.1]), np.array([False]), 0), "bins must be at least 1, got 0"),
    (lambda: ScoredSample("s0", ProbabilityVector([0.6, 0.4]), -1.0, 0),
     "variance must be finite and nonnegative, got -1.0"),
    (lambda: softmax([1.0, 2.0], 0.0), "temperature must be finite and > 0, got 0.0"),
    (lambda: losses("mse-kl", *ONE_ROW, -1.0), "lambda_kl must be finite and nonnegative, got -1.0"),
    (lambda: losses("log-ev", *ONE_ROW, math.inf), "lambda_ev must be finite and nonnegative, got inf"),
    (lambda: annealed_lambda(0.1, 1, 0.0, 10.0), "K must be at least 2, got 1"),
    (lambda: annealed_lambda(0.1, 3, 0.0, 0.5), "total epochs must be finite and at least 1, got 0.5"),
    (lambda: annealed_lambda(0.1, 3, -1.0, 10.0), "epoch must be finite and nonnegative, got -1.0"),
    (lambda: sample(DirichletParams([1.0, 1.0]), 0, 0), "n must be at least 1, got 0"),
]


@pytest.mark.parametrize("call, message", LIBRARY_ERRORS, ids=[m for _, m in LIBRARY_ERRORS])
def test_library_setting_error_names_setting_and_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# A flag, the library call that takes the same setting, and boundary values
# both must reject.  Every command checks its settings before it opens a
# file, so the CLI's inputs need not exist.
BOUNDARIES = [
    ("--cap", "alpha0_cap", float, lambda v: fit_mom(ENSEMBLE, alpha0_cap=v),
     ["fit", "--preds", "{tmp}/missing.csv", "--out", "{tmp}/o.csv"], ["0", "nan", "inf"]),
    ("--bins", "n_bins", int, lambda v: ece(PREDICTIONS, v),
     ["evaluate", "--alphas", "{tmp}/missing.csv", "--labels", "{tmp}/l.csv", "--out", "{tmp}/o.json"], ["0"]),
    ("--peak", "peak", float, lambda v: config(peak=v),
     ["simulate", "--preds-out", "{tmp}/p.csv", "--labels-out", "{tmp}/l.csv", "--alphas-out", "{tmp}/a.csv",
      "--n", "1", "--m", "1", "--k", "3", "--scheme", "two-population"], [repr(1 / 3)]),
    ("--epochs", "total epochs", float, lambda v: annealed_lambda(0.1, 3, 0.0, v),
     ["losses", "--alphas", "{tmp}/missing.csv", "--labels", "{tmp}/l.csv", "--out", "{tmp}/o.csv",
      "--loss", "mse-kl", "--epoch", "0"], ["0.5"]),
]
CASES = [(*case[:5], raw) for case in BOUNDARIES for raw in case[5]]


@pytest.mark.parametrize("flag, name, parse, call, argv, raw", CASES, ids=[f"{c[0]} {c[5]}" for c in CASES])
def test_cli_and_library_reject_the_same_values(tmp_path, capsys, flag, name, parse, call, argv, raw):
    with pytest.raises(ValueError) as info:
        call(parse(raw))
    library = str(info.value)
    assert library.startswith(f"{name} ")
    assert main([a.format(tmp=tmp_path) for a in argv] + [flag, raw]) == 1
    assert capsys.readouterr().err == f"error: {flag}{library[len(name):]}\n"
    assert not list(tmp_path.iterdir())
