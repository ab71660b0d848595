"""The CLI's array data path against the public object API, and the README against the CLI.

``fit`` fits the reader's (n, M, K) array in one call, the report
commands compute every row's predictive mean and total variance at once,
and ``losses`` every row's loss in one call; no command builds per-input
objects.  These tests rebuild the same numbers through the public scalar
chain, ``fit_mom``/``fit_mle`` on each input alone, per-row
``DirichletParams`` -> ``predictive_mean``/``total_variance`` ->
``LabeledPrediction``/``ScoredSample`` -> ``calibration_report``,
``calibrate_threshold`` and ``risk_coverage_curve``, or
``DirichletParams`` -> ``mse_loss``/``digamma_loss`` or the n=1 ``losses`` call, and
require fits.csv, report.json, select.json, the curve CSV and losses.csv to
match it bit for bit.  Those views run the CLI's own array code, so each
report test also holds the outputs to ``test_oracle.py``'s independent
reference, which alone checks the parts no view computes: the variance
histograms, the retained set and the log-ev loss.
"""

from __future__ import annotations

import collections
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_oracle import check_evaluate, check_losses, check_select, walkthrough

from direns import dirichlet, evidential, fileio
from direns.calibration import LabeledPrediction, calibration_report
from direns.cli import _calibration_document, _json_float, main
from direns.dirichlet import DirichletParams, ProbabilityVector, predictive_mean, total_variance
from direns.estimators import EnsembleSample, FitResult, fit_mle, fit_mom
from direns.evidential import LOSSES, annealed_lambda, digamma_loss, losses, mse_loss
from direns.fileio import AlphaRow, read_alphas, read_labels, read_predictions
from direns.selective import RiskCoveragePoint, ScoredSample, calibrate_threshold, risk_coverage_curve

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


@pytest.mark.parametrize("mode", ["mom", "mom-mle"])
@pytest.mark.parametrize("limit", [None, 2])
def test_fits_match_per_input_fits(dataset, mode, limit, tmp_path):
    preds = dataset[2] / "preds.csv"
    if len(read_predictions(str(preds)).model_ids) == 1:
        # Nothing to fit in a single-model file: fit two members per input
        # instead, with a zero-spread input among them.
        preds, _, _ = simulate(tmp_path, "--scheme", "two-population", "--n", 150, "--m", 2, "--k", 5, "--seed", 6)
        with open(preds, "a") as handle:
            handle.writelines(f"z,m{j},0.1,0.2,0.3,0.2,0.2\n" for j in range(2))
    out = tmp_path / "fits.csv"
    flags = [] if limit is None else ["--models-limit", limit]
    assert run("fit", "--preds", preds, "--mode", mode, *flags, "--out", out) == 0
    data, fits = read_predictions(str(preds)), read_alphas(str(out))
    assert fits.sample_ids == data.sample_ids
    for sid, alpha, degenerate in zip(fits.sample_ids, fits.alpha, fits.degenerate.tolist()):
        ensemble = data.ensembles[sid][:limit]
        want = fit_mom(ensemble)
        if mode == "mom-mle" and not want.degenerate:
            want = fit_mle(ensemble, want.params)
        assert alpha.tobytes() == want.params.alpha.tobytes(), sid
        assert degenerate == want.degenerate, sid


PER_INPUT_TYPES = (
    EnsembleSample, DirichletParams, FitResult, ProbabilityVector,
    LabeledPrediction, ScoredSample, RiskCoveragePoint, AlphaRow,
)


def test_no_command_builds_per_input_objects(tmp_path, monkeypatch):
    preds, labels, _ = simulate(tmp_path, "--scheme", "two-population", "--n", 60, "--m", 6, "--k", 3, "--seed", 2)
    with open(preds, "a") as handle, open(labels, "a") as label_handle:
        handle.writelines(f"z,m{j},0.5,0.3,0.2\n" for j in range(6))
        label_handle.write("z,1\n")
    single = tmp_path / "single"
    single.mkdir()
    single_preds, single_labels, _ = simulate(single, "--scheme", "two-population", "--n", 40, "--m", 1, "--k", 3, "--seed", 3)
    built = []
    for cls in PER_INPUT_TYPES:
        # A NamedTuple is made by its __new__, any other class set up by its __init__.
        if issubclass(cls, tuple):
            def counting(cls_, *args, _new=cls.__new__, **kwargs):
                built.append(cls_.__name__)
                return _new(cls_, *args, **kwargs)
            monkeypatch.setattr(cls, "__new__", staticmethod(counting))
        else:
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)

    fits = tmp_path / "fits.csv"
    scored = ("--alphas", fits, "--labels", labels)
    commands = [
        ["fit", "--preds", preds, "--mode", "mom", "--models-limit", 4, "--out", fits],
        ["fit", "--preds", preds, "--mode", "mom", "--out", fits],
        ["fit", "--preds", preds, "--mode", "mom-mle", "--models-limit", 4, "--out", fits],
        ["fit", "--preds", preds, "--mode", "mom-mle", "--out", fits],
        ["evaluate", *scored, "--out", tmp_path / "r.json"],
        ["evaluate", "--preds", single_preds, "--labels", single_labels, "--out", tmp_path / "r1.json"],
        ["select", *scored, "--risk", 0.3, "--out", tmp_path / "s.json", "--curve-out", tmp_path / "c.csv"],
        ["select", *scored, "--tau", 0.01, "--out", tmp_path / "t.json", "--curve-out", tmp_path / "c.csv"],
        ["calibrate-threshold", *scored, "--risk", 0.3, "--out", tmp_path / "ct.json"],
        ["risk-coverage", *scored, "--out", tmp_path / "rc.csv"],
        *(["losses", *scored, "--loss", loss, "--lambda0", 0.5, "--out", tmp_path / "l.csv"] for loss in LOSSES),
    ]
    for argv in commands:
        assert run(*argv) == 0, argv
        assert built == [], argv
    assert read_alphas(str(fits)).degenerate.sum() == 1


def test_report_path_runs_no_per_element_python(tmp_path, monkeypatch):
    # The report reads, the KL and the fit's likelihood check run as array
    # kernels: no scalar log-gamma, per-row label parsing or label checks,
    # and the per-row exact sum only where the vector one cannot certify a
    # row, which no simulated row needs.
    _, labels, truth = simulate(tmp_path, "--scheme", "two-population", "--n", 2000, "--m", 1, "--k", 10, "--seed", 7)
    fitdir = tmp_path / "fit"
    fitdir.mkdir()
    preds, _, _ = simulate(fitdir, "--scheme", "two-population", "--n", 200, "--m", 10, "--k", 7, "--seed", 7)
    calls = collections.Counter()
    for module, name in ((math, "lgamma"), (fileio, "_integer"), (evidential, "_class_index"),
                         (dirichlet, "_exact_sum")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counting)

    scored = ("--alphas", truth, "--labels", labels)
    commands = [
        ["fit", "--preds", preds, "--mode", "mom-mle", "--out", fitdir / "fits.csv"],
        ["evaluate", *scored, "--out", tmp_path / "r.json"],
        ["select", *scored, "--risk", 0.1, "--out", tmp_path / "s.json", "--curve-out", tmp_path / "c.csv"],
        ["losses", *scored, "--loss", "mse-kl", "--lambda0", 1.0, "--epoch", 3, "--epochs", 10,
         "--out", tmp_path / "l.csv"],
    ]
    for argv in commands:
        assert run(*argv) == 0, argv
        assert calls == {}, argv


def test_pipeline_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma is a slow import that nothing in the pipeline needs; the
    # readers' np.unique calls do not pull it in.
    script = "\n".join([
        "import shlex, sys",
        "from direns.cli import main",
        "for line in sys.stdin:",
        "    assert main(shlex.split(line)) == 0, line",
        "print('numpy.ma' in sys.modules)",
    ])
    d = shlex.quote(str(tmp_path))
    chain = [
        f"simulate --scheme two-population --n 300 --m 5 --k 4 --seed 3 --preds-out {d}/p.csv "
        f"--labels-out {d}/y.csv --alphas-out {d}/t.csv",
        f"fit --preds {d}/p.csv --mode mom-mle --out {d}/f.csv",
        f"evaluate --alphas {d}/f.csv --labels {d}/y.csv --out {d}/r.json",
        f"select --alphas {d}/f.csv --labels {d}/y.csv --risk 0.1 --out {d}/s.json --curve-out {d}/c.csv",
        f"losses --alphas {d}/f.csv --labels {d}/y.csv --loss mse-kl --lambda0 1 --out {d}/l.csv",
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], input="\n".join(chain) + "\n", env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_cli_leaves_dataclasses_unimported():
    # No direns type is a dataclass, and nothing else the CLI imports needs
    # the module, whose class generation slowed every process's start.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", "import sys, direns.cli; print('dataclasses' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


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
    check_evaluate(tmp, alphas, labels, 12, 0.7)


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

    doc = json.loads(out.read_text())
    test_preds = [LabeledPrediction(s.mean, s.label, s.sample_id) for s in test]
    expected = _calibration_document(calibration_report(test_preds, 10, 0.8), 10, 0.8)
    # No view computes the variance histograms; check_select below checks them.
    del doc["histograms"]["variance"]
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
    same(doc["selective"]["curve_points"], len(points))

    for path, expected_points in ((curve, points), (full_curve, risk_coverage_curve(scored))):
        rows = [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]
        same(rows, [[p.coverage, p.risk, p.tau_at_point] for p in expected_points])
    check_select(tmp, alphas, labels, 0.2, 0.5, 9, 10, 0.8)


@pytest.mark.parametrize("loss, flags", [
    ("mse", []),
    ("digamma", []),
    ("mse-kl", ["--lambda0", "0.7"]),
    ("mse-kl", ["--lambda0", "0.7", "--epoch", "3", "--epochs", "10"]),
    ("log-ev", ["--lambda0", "0.7"]),
])
def test_losses_match_object_api(dataset, loss, flags):
    alphas, labels, tmp = dataset
    out = tmp / "losses.csv"
    assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", loss, *flags, "--out", out) == 0
    rows = read_alphas(str(alphas))
    lam = 0.7 if flags else 0.0
    if "--epoch" in flags:
        lam = annealed_lambda(0.7, rows.alpha.shape[1], 3, 10)
    scalar = {
        "mse": mse_loss,
        "digamma": digamma_loss,
        "mse-kl": lambda d, y: float(losses("mse-kl", d.alpha[None], np.array([d.alpha0]), [y], lam)[0]),
        "log-ev": lambda d, y: lam * math.log1p(d.alpha0),
    }[loss]
    by_id = read_labels(str(labels)).labels
    values = [scalar(DirichletParams(row.alpha), by_id[row.sample_id]) for row in rows]
    expected = [f"{row.sample_id},{v!r}" for row, v in zip(rows, values)]
    expected.append(f"__dataset_mean__,{math.fsum(values) / len(values)!r}")
    lines = out.read_text().splitlines()
    assert lines[0] == "sample_id,loss"
    assert [f"{sid},{float(v)!r}" for sid, v in (line.split(",") for line in lines[1:])] == expected
    check_losses(tmp, alphas, labels, loss, flags)


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
    commands = walkthrough()
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
