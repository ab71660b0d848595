"""Output checks for one run of a workload's command chain.

Every check is charged to the command that wrote the file it reads, so a
failure counts against that command in ``failed``.  The checks:

* every output parses: CSVs with the package's own readers where it has one
  (predictions, labels, alphas), JSON with ``json``, and the curve and losses
  CSVs with ``csv``;
* accuracy, NLL and ECE in report.json match a numpy recomputation from the
  alphas and labels files within 1e-12;
* in select.json ``achieved_cal_risk`` is at most the target risk, and the
  curve's coverage rises strictly to 1.0;
* the ``__dataset_mean__`` row of losses.csv equals the mean of the per-row
  values;
* a seeded subsample of rows, refit through the scalar public ``fit_mom`` (and
  ``fit_mle`` in mom-mle mode), matches fits.csv within 1e-9 relative.
"""

from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np

from direns import EnsembleSample, fit_mle, fit_mom
from direns.fileio import RenormalizationWarning, read_alphas, read_labels, read_predictions

from workloads import Workload

TARGET_RISK = 0.1
REPORT_TOL = 1e-12
REFIT_ROWS = 50
REFIT_RTOL = 1e-9
NLL_FLOOR = 1e-12
MEAN_ROW_ID = "__dataset_mean__"


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _alpha_matrix(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    rows = read_alphas(path)
    ids = [r.sample_id for r in rows]
    return ids, np.array([r.alpha for r in rows]), np.array([r.degenerate for r in rows])


def _check_report(workload: Workload) -> None:
    with open("report.json", encoding="utf-8") as handle:
        report = json.load(handle)
    ids, alpha, _ = _alpha_matrix(workload.alphas_file)
    labels_by_id = read_labels("labels.csv").labels
    labels = np.array([labels_by_id[sid] for sid in ids])
    n_bins = report["histograms"]["bin_count"]
    mean = alpha / np.array([math.fsum(row) for row in alpha.tolist()])[:, None]
    conf = mean.max(axis=1)
    correct = (mean.argmax(axis=1) == labels).astype(np.float64)
    bins = np.clip(np.ceil(conf * n_bins).astype(np.int64), 1, n_bins) - 1
    counts = np.bincount(bins, minlength=n_bins)
    occupied = counts > 0
    acc_b = np.bincount(bins, weights=correct, minlength=n_bins)[occupied] / counts[occupied]
    conf_b = np.bincount(bins, weights=conf, minlength=n_bins)[occupied] / counts[occupied]
    expected = {
        "accuracy": correct.mean(),
        "nll": -np.log(np.maximum(mean[np.arange(len(ids)), labels], NLL_FLOOR)).mean(),
        "ece": float(np.sum(counts[occupied] / len(ids) * np.abs(acc_b - conf_b))),
    }
    for name, value in expected.items():
        got = report["metrics"][name]
        _require(abs(got - value) <= REPORT_TOL, f"report.json {name} {got!r} != recomputed {value!r}")


def _check_select() -> None:
    with open("select.json", encoding="utf-8") as handle:
        selective = json.load(handle)["selective"]
    risk = selective["achieved_cal_risk"]
    _require(risk is not None and risk <= TARGET_RISK, f"achieved_cal_risk {risk!r} > {TARGET_RISK}")


def _check_curve() -> None:
    rows = _csv_rows("curve.csv")
    _require(rows[0] == ["coverage", "risk", "tau"], f"curve.csv header {rows[0]}")
    coverage = [float(r[0]) for r in rows[1:]]
    _require(len(coverage) > 0, "curve.csv has no points")
    _require(all(b > a for a, b in zip(coverage, coverage[1:])), "coverage does not rise strictly")
    _require(coverage[-1] == 1.0, f"coverage ends at {coverage[-1]!r}, not 1.0")


def _check_losses(n: int) -> None:
    rows = _csv_rows("losses.csv")
    _require(rows[0] == ["sample_id", "loss"], f"losses.csv header {rows[0]}")
    *per_row, last = rows[1:]
    _require(len(per_row) == n, f"losses.csv has {len(per_row)} rows, expected {n}")
    _require(last[0] == MEAN_ROW_ID, f"last row is {last[0]!r}, not {MEAN_ROW_ID}")
    values = [float(r[1]) for r in per_row]
    mean = math.fsum(values) / len(values)
    got = float(last[1])
    _require(abs(got - mean) <= REPORT_TOL * max(1.0, abs(mean)),
             f"{MEAN_ROW_ID} {got!r} != mean of rows {mean!r}")


def _check_refit(workload: Workload, seed: int, data) -> None:
    ids, alpha, degenerate = _alpha_matrix("fits.csv")
    _require(ids == data.sample_ids, "fits.csv sample ids differ from preds.csv")
    mle = "mom-mle" in workload.fit_flags
    rng = np.random.default_rng(seed)
    for i in sorted(rng.choice(len(ids), size=min(REFIT_ROWS, len(ids)), replace=False).tolist()):
        sample = EnsembleSample(data.ensembles[ids[i]])
        result = fit_mom(sample)
        if mle and not result.degenerate:
            result = fit_mle(sample, result.params)
        _require(result.degenerate == bool(degenerate[i]), f"{ids[i]}: degenerate flag differs")
        rel = np.max(np.abs(result.params.alpha - alpha[i]) / np.abs(result.params.alpha))
        _require(rel <= REFIT_RTOL, f"{ids[i]}: refit differs from fits.csv by {rel:.3g} relative")


def check_outputs(workload: Workload, seed: int) -> dict[str, list[str]]:
    """Run every check in the current directory; return command -> failure messages."""
    parsed = {}

    def parse_predictions() -> None:
        parsed["preds"] = read_predictions("preds.csv")

    checks = [
        ("simulate", parse_predictions),
        ("simulate", lambda: read_labels("labels.csv")),
        ("simulate", lambda: read_alphas("truth.csv")),
        ("evaluate", lambda: _check_report(workload)),
        ("select", _check_select),
        ("select", _check_curve),
        ("losses", lambda: _check_losses(workload.n)),
    ]
    if workload.fit_flags is not None:
        checks.append(("fit", lambda: _check_refit(workload, seed, parsed["preds"])))
    failures: dict[str, list[str]] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RenormalizationWarning)
        for command, check in checks:
            try:
                check()
            except Exception as exc:  # any failure of a check marks its command failed
                failures.setdefault(command, []).append(f"{type(exc).__name__}: {exc}")
    return failures
