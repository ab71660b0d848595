"""The CLI's array data path against the public object API, and the README against the CLI.

The report commands compute every row's predictive mean and total
variance at once and never build per-row objects.  These tests rebuild
the same numbers through the public scalar chain, per-row
``DirichletParams`` -> ``predictive_mean``/``total_variance`` ->
``LabeledPrediction``/``ScoredSample`` -> the report functions, and
require report.json, select.json and the curve CSV to match it bit for
bit.
"""

from __future__ import annotations

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from direns.calibration import LabeledPrediction, calibration_report
from direns.cli import _calibration_document, _json_float, main
from direns.dirichlet import DirichletParams, predictive_mean, total_variance
from direns.fileio import read_alphas, read_labels
from direns.selective import (
    ScoredSample,
    calibrate_threshold,
    risk_coverage_curve,
    selective_report,
    variance_bin_edges,
    variance_histograms,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*args) -> int:
    return main([str(a) for a in args])


def simulate(tmp, *flags) -> tuple[Path, Path, Path]:
    paths = tmp / "preds.csv", tmp / "labels.csv", tmp / "truth.csv"
    assert run("simulate", "--preds-out", paths[0], "--labels-out", paths[1],
               "--alphas-out", paths[2], *flags) == 0
    return paths


@pytest.fixture(scope="module", params=["collapse", "degenerate", "many"])
def dataset(request, tmp_path_factory):
    """(alphas, labels, workdir): all variances tied, fits with degenerate rows,
    or many rows of simulated concentrations."""
    tmp = tmp_path_factory.mktemp(request.param)
    if request.param == "collapse":
        _, labels, truth = simulate(tmp, "--scheme", "collapse", "--n", 300, "--m", 5, "--k", 10, "--seed", 3)
        return truth, labels, tmp
    if request.param == "many":
        _, labels, truth = simulate(tmp, "--scheme", "two-population", "--n", 3000, "--m", 1, "--k", 10, "--seed", 5)
        return truth, labels, tmp
    preds, labels, _ = simulate(tmp, "--scheme", "two-population", "--n", 200, "--m", 8, "--k", 4, "--seed", 4)
    with open(preds, "a") as handle, open(labels, "a") as label_handle:
        for j, p in enumerate(["0.7,0.1,0.1,0.1", "0.25,0.25,0.25,0.25", "0.1,0.6,0.2,0.1"]):
            handle.writelines(f"z{j},m{m},{p}\n" for m in range(8))
            label_handle.write(f"z{j},{j}\n")
    fits = tmp / "fits.csv"
    assert run("fit", "--preds", preds, "--mode", "mom-mle", "--out", fits) == 0
    assert read_alphas(str(fits)).degenerate.sum() == 3
    return fits, labels, tmp


def object_chain(alphas, labels_path):
    """Per-row objects built through the public scalar API."""
    labels = read_labels(str(labels_path)).labels
    preds, scored = [], []
    for row in read_alphas(str(alphas)):
        d = DirichletParams(row.alpha)
        mean = predictive_mean(d)
        y = labels[row.sample_id]
        preds.append(LabeledPrediction(mean, y, row.sample_id))
        scored.append(ScoredSample(row.sample_id, mean, total_variance(d), y))
    return preds, scored


def split(scored, frac, seed):
    # The stratified split by definition: labels ascending, each label's
    # samples in id order get one permutation, floor(frac * n + 0.5) go to
    # calibration.
    rng = np.random.default_rng(seed)
    cal, test = [], []
    for label in sorted({s.label for s in scored}):
        group = sorted((s for s in scored if s.label == label), key=lambda s: s.sample_id)
        perm = rng.permutation(len(group))
        chosen = set(perm[: int(math.floor(frac * len(group) + 0.5))].tolist())
        for i, s in enumerate(group):
            (cal if i in chosen else test).append(s)
    return sorted(cal, key=lambda s: s.sample_id), sorted(test, key=lambda s: s.sample_id)


def same(actual, expected) -> None:
    # Bit for bit: the JSON text of a float is its repr.
    assert json.dumps(actual) == json.dumps(expected)


def test_evaluate_matches_object_api(dataset):
    alphas, labels, tmp = dataset
    out = tmp / "report.json"
    assert run("evaluate", "--alphas", alphas, "--labels", labels, "--bins", 12,
               "--conf-threshold", 0.7, "--out", out) == 0
    doc = json.loads(out.read_text())
    preds, _ = object_chain(alphas, labels)
    expected = _calibration_document(calibration_report(preds, 12, 0.7), 12, 0.7)
    for key, value in expected.items():
        same(doc[key], value)


def test_select_threshold_and_curves_match_object_api(dataset):
    alphas, labels, tmp = dataset
    out, curve, threshold_out, full_curve = (tmp / name for name in ("s.json", "c.csv", "t.json", "rc.csv"))
    common = ("--alphas", alphas, "--labels", labels, "--risk", 0.2, "--seed", 9)
    assert run("select", *common, "--out", out, "--curve-out", curve) == 0
    assert run("calibrate-threshold", *common, "--out", threshold_out) == 0
    assert run("risk-coverage", "--alphas", alphas, "--labels", labels, "--out", full_curve) == 0

    _, scored = object_chain(alphas, labels)
    cal, test = split(scored, 0.5, 9)
    threshold = calibrate_threshold(cal, 0.2)
    points = risk_coverage_curve(test)
    retained = selective_report(test, threshold.tau).retained_metrics

    doc = json.loads(out.read_text())
    test_preds = [LabeledPrediction(s.mean, s.label, s.sample_id) for s in test]
    expected = _calibration_document(calibration_report(test_preds, 10, 0.8), 10, 0.8)
    hist_correct, hist_incorrect = variance_histograms(test, 10)
    expected["histograms"]["variance"] = {
        "edges": variance_bin_edges(test, 10).tolist(),
        "correct": hist_correct.tolist(),
        "incorrect": hist_incorrect.tolist(),
    }
    for key, value in expected.items():
        same(doc[key], value)
    block = {
        "tau": _json_float(threshold.tau),
        "target_risk": 0.2,
        "achieved_cal_risk": threshold.achieved_cal_risk,
        "cal_coverage": threshold.cal_coverage,
        "cal_n": len(cal),
        "test_n": len(test),
    }
    same({key: doc["selective"][key] for key in block}, block)
    same(json.loads(threshold_out.read_text())["threshold"], block)
    same(doc["selective"]["coverage"], retained.n / len(test))
    same(doc["selective"]["retained"], {"n": retained.n, "accuracy": retained.accuracy,
                                       "macro_f1": retained.macro_f1, "nll": retained.nll})
    same(doc["selective"]["curve_points"], len(points))

    for path, expected_points in ((curve, points), (full_curve, risk_coverage_curve(scored))):
        rows = [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]
        same(rows, [[p.coverage, p.risk, p.tau_at_point] for p in expected_points])


def _walkthrough() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI walkthrough", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("direns ")]


def _format_headers() -> dict[str, str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^- (\w+): header `([^`]+)`", section, re.M))


# The files of the walkthrough in each format the README documents.
WALKTHROUGH_FILES = {
    "Predictions": ["preds.csv"],
    "Labels": ["labels.csv"],
    "Alphas": ["truth.csv", "fits.csv"],
    "Curve": ["curve.csv"],
    "Losses": ["losses.csv"],
}


def test_readme_walkthrough_runs_and_writes_the_documented_headers(tmp_path, monkeypatch):
    commands = _walkthrough()
    assert [argv[0] for argv in commands] == ["simulate", "fit", "evaluate", "select", "losses"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    k = int(commands[0][commands[0].index("--k") + 1])
    headers = _format_headers()
    assert set(headers) == set(WALKTHROUGH_FILES)
    for name, header in headers.items():
        expected = re.sub(
            r"(\w)_0\.\.\1_\{K-1\}",
            lambda m: ",".join(f"{m.group(1)}_{i}" for i in range(k)),
            header,
        )
        for file in WALKTHROUGH_FILES[name]:
            assert (tmp_path / file).read_text().splitlines()[0] == expected, file
