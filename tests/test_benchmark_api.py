"""The library names and attributes the benchmark's checks and probes use.

``perfbench/checks.py`` refits rows with ``EnsembleSample``, ``fit_mom`` and
``fit_mle`` and reads files with the readers; ``perfbench/probes.py`` times
``fit_batch`` and the special functions.  Only a traced benchmark run
imports the probes, so this test keeps what they use working in tier-1.
"""

from __future__ import annotations

import math

import numpy as np

from direns import EnsembleSample, digamma, fit_batch, fit_mle, fit_mom, inverse_digamma, log_gamma
from direns.cli import main
from direns.fileio import RenormalizationWarning, read_alphas, read_labels, read_predictions


def test_benchmark_api(tmp_path):
    preds, labels, fits = tmp_path / "preds.csv", tmp_path / "labels.csv", tmp_path / "fits.csv"
    assert main(["simulate", "--scheme", "two-population", "--n", "12", "--m", "6", "--k", "3", "--seed", "1",
                 "--preds-out", str(preds), "--labels-out", str(labels),
                 "--alphas-out", str(tmp_path / "truth.csv")]) == 0
    assert main(["fit", "--preds", str(preds), "--mode", "mom-mle", "--threads", "1", "--out", str(fits)]) == 0
    assert issubclass(RenormalizationWarning, UserWarning)

    data = read_predictions(str(preds))
    samples = [EnsembleSample(data.ensembles[sid]) for sid in data.sample_ids]
    rows = list(read_alphas(str(fits)))
    assert [r.sample_id for r in rows] == data.sample_ids
    by_id = read_labels(str(labels)).labels
    assert all(isinstance(by_id[sid], int) for sid in data.sample_ids)

    results = fit_batch(samples, "mom_then_mle", n_threads=2)
    for sample, row, result in zip(samples, rows, results):
        assert isinstance(row.degenerate, bool) and row.alpha.shape == (3,)
        assert result.degenerate == row.degenerate
        np.testing.assert_allclose(result.params.alpha, row.alpha, rtol=1e-9)
        assert isinstance(result.iterations_used, int) and isinstance(result.converged, bool)
        refit = fit_mle(sample, fit_mom(sample).params)
        assert refit.params.alpha.tobytes() == result.params.alpha.tobytes()

    assert math.isclose(float(digamma(1.0)), -0.5772156649015329, rel_tol=1e-12)
    assert math.isclose(float(inverse_digamma(digamma(2.5))), 2.5, rel_tol=1e-9)
    assert float(log_gamma(3.0)) == math.log(2.0)
