"""Every CLI output against an independent reference.

The reference reads the files the CLI read with the ``csv`` module,
``float()`` and ``math.fsum``, not with direns's readers, and recomputes
each output from its definition with plain Python loops: ``math.log10``
for the variance bins, and ``tests/test_rowwise.py``'s ``reference_row``
and ``reference_kl`` for the variances and the losses.  It checks:

* ``report.json`` from ``evaluate --alphas`` and from ``evaluate --preds``;
* ``select.json`` with a calibrated threshold and with ``--tau``, and its
  curve CSV;
* ``calibrate-threshold``'s JSON and ``risk-coverage``'s CSV;
* ``losses.csv`` for all four losses;
* ``fits.csv`` from ``fit --mode mom``, with and without ``--models-limit``
  and ``--cap``.

Counts, ids, the split, ``tau``, coverage, risks, the variances and the
losses (which ``test_rowwise.py`` pins bit for bit) must match bit for bit;
the values the CLI sums in another order (bin confidences, ECE, macro F1,
NLL, the variance bin edges, the fitted concentrations) within 1e-12
relative, and the degenerate flags exactly.  The inputs are
hypothesis-drawn small datasets, hand-made ones with tied variances,
all-correct and all-wrong labels and one variance shared by every row,
predictions files with degenerate and renormalized rows, simulated ones,
and the README walkthrough.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_rowwise import reference_kl, reference_row

from direns import __version__
from direns.cli import main
from direns.fileio import RenormalizationWarning

README = Path(__file__).resolve().parents[1] / "README.md"
LOSSES = ("mse", "digamma", "mse-kl", "log-ev")
NLL_FLOOR = 1e-12
TOL = 1e-12
# The reader renormalizes a row whose sum misses 1 by more than this.
RENORM_TOL = 1e-9
# The moment fit's least concentration, for a class no member gives mass.
ALPHA_FLOOR = 1e-300


class Near(float):
    """A reference value the CLI must match within TOL relative, not bit for bit."""


def check(got, want, where: str = "") -> None:
    """``got`` (parsed JSON or CSV) equals ``want``: same keys in the same
    order, same types, floats bit for bit unless ``want`` is ``Near``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, got)
        for key, value in want.items():
            check(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got)
        for i, (g, w) in enumerate(zip(got, want)):
            check(g, w, f"{where}[{i}]")
    elif isinstance(want, Near):
        assert isinstance(got, float) and abs(got - want) <= TOL * abs(want), (where, got, float(want))
    else:
        assert type(got) is type(want) and repr(got) == repr(want), (where, got, want)


# ------------------------------------------------------------- the files


def table(path) -> list[list[str]]:
    """The data rows of a CSV file, read by the csv module."""
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def labels_file(path) -> dict:
    return {sid: int(label) for sid, label in table(path)}


def scored_rows(alphas_path, labels_path) -> list[dict]:
    """One dict per row of an alphas file, in sample id order: its id, label,
    concentrations, exact total, predictive mean and total variance."""
    labels = labels_file(labels_path)
    rows = []
    for sid, _, *fields in sorted(table(alphas_path)):
        alpha = [float(x) for x in fields]
        a0 = math.fsum(alpha)
        ref = reference_row(np.array(alpha), a0, labels[sid])
        rows.append({"id": sid, "label": labels[sid], "alpha": alpha, "a0": a0,
                     "mean": [a / a0 for a in alpha], "variance": float(ref["total"])})
    return rows


def prediction_rows(preds_path, labels_path) -> list[dict]:
    """The rows of a single-model predictions file, in sample id order."""
    labels = labels_file(labels_path)
    return [{"id": sid, "label": labels[sid], "mean": [float(x) for x in fields]}
            for sid, _, *fields in sorted(table(preds_path))]


def curve_file(path) -> list[list[float]]:
    return [[float(x) for x in row] for row in table(path)]


def provenance(inputs: dict, settings: dict, seed) -> dict:
    return {
        "inputs": {name: {"path": str(path), "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
                   for name, path in sorted(inputs.items())},
        "settings": settings,
        "seed": seed,
        "version": __version__,
    }


def json_float(x: float):
    return x if math.isfinite(x) else str(x)


# ---------------------------------------------------- the reference values


def argmax(values: list) -> int:
    # The lowest index among the largest values.
    best = 0
    for j, v in enumerate(values):
        if v > values[best]:
            best = j
    return best


def correct(row: dict) -> bool:
    return argmax(row["mean"]) == row["label"]


def mean_of(values: list) -> Near:
    return Near(math.fsum(values) / len(values))


def metrics(rows: list) -> tuple:
    """Accuracy (exact), macro F1 and NLL."""
    k = len(rows[0]["mean"])
    hits = sum(correct(r) for r in rows)
    predicted = [argmax(r["mean"]) for r in rows]
    f1 = []
    for c in range(k):
        tp = sum(1 for p, r in zip(predicted, rows) if p == c and r["label"] == c)
        n_pred = predicted.count(c)
        n_true = sum(1 for r in rows if r["label"] == c)
        if n_pred or n_true:
            if tp:
                precision, recall = tp / n_pred, tp / n_true
                f1.append(2.0 * precision * recall / (precision + recall))
            else:
                f1.append(0.0)
    nll = -math.fsum(math.log(max(r["mean"][r["label"]], NLL_FLOOR)) for r in rows) / len(rows)
    return hits / len(rows), mean_of(f1), Near(nll)


def calibration_document(rows: list, bins: int, threshold: float) -> dict:
    conf = [max(r["mean"]) for r in rows]
    right = [correct(r) for r in rows]
    # Bin b (0-based) holds ((b)/B, (b+1)/B]; a confidence of 0 joins bin 0.
    index = [min(max(math.ceil(c * bins), 1), bins) - 1 for c in conf]
    table_ = []
    for b in range(bins):
        members = [i for i in range(len(rows)) if index[i] == b]
        table_.append({
            "lower": b / bins,
            "upper": (b + 1) / bins,
            "count": len(members),
            "accuracy": sum(right[i] for i in members) / len(members) if members else 0.0,
            "confidence": mean_of([conf[i] for i in members]) if members else 0.0,
            "empty": not members,
        })
    ece = math.fsum(e["count"] / len(rows) * abs(e["accuracy"] - e["confidence"])
                    for e in table_ if e["count"])
    accuracy, macro_f1, nll = metrics(rows)
    wrong = [i for i in range(len(rows)) if not right[i]]
    return {
        "metrics": {"accuracy": accuracy, "macro_f1": macro_f1, "nll": nll, "ece": Near(ece)},
        "bins": table_,
        "histograms": {
            "bin_count": bins,
            "confidence_threshold": threshold,
            "confidence_correct": [sum(1 for i in range(len(rows)) if right[i] and index[i] == b)
                                   for b in range(bins)],
            "confidence_incorrect": [sum(1 for i in wrong if index[i] == b) for b in range(bins)],
            "high_conf_error_rate": (sum(1 for i in wrong if conf[i] > threshold) / len(wrong)
                                     if wrong else 0.0),
        },
    }


def prefixes(rows: list) -> list[tuple]:
    """(variance, rows at or below it, errors among them), each distinct variance ascending."""
    out = []
    kept = errors = 0
    ordered = sorted(rows, key=lambda r: r["variance"])
    for i, r in enumerate(ordered):
        kept += 1
        errors += not correct(r)
        if i + 1 == len(ordered) or ordered[i + 1]["variance"] != r["variance"]:
            out.append((r["variance"], kept, errors))
    return out


def curve(rows: list) -> list[list[float]]:
    return [[kept / len(rows), errors / kept, v] for v, kept, errors in prefixes(rows)]


def threshold(rows: list, risk: float) -> dict:
    """The largest tie-closed prefix whose error rate is at most ``risk``."""
    best = {"tau": -math.inf, "target_risk": risk, "achieved_cal_risk": 0.0, "cal_coverage": 0.0}
    for v, kept, errors in prefixes(rows):
        if errors / kept <= risk:
            best = {"tau": v, "target_risk": risk, "achieved_cal_risk": errors / kept,
                    "cal_coverage": kept / len(rows)}
    return best


def split(rows: list, frac: float, seed: int):
    """Calibration and test rows: each label's rows in id order, lowest label
    first, get one permutation of one seeded generator; the first
    floor(frac * n + 0.5) of it go to calibration.  None when a side is empty."""
    rng = np.random.default_rng(seed)
    chosen = set()
    for label in sorted({r["label"] for r in rows}):
        members = [r["id"] for r in rows if r["label"] == label]
        perm = rng.permutation(len(members)).tolist()
        chosen.update(members[i] for i in perm[:int(math.floor(frac * len(members) + 0.5))])
    cal = [r for r in rows if r["id"] in chosen]
    test = [r for r in rows if r["id"] not in chosen]
    return (cal, test) if cal and test else None


def subset(rows: list) -> dict:
    if not rows:
        return {"n": 0, "accuracy": None, "macro_f1": None, "nll": None}
    accuracy, macro_f1, nll = metrics(rows)
    return {"n": len(rows), "accuracy": accuracy, "macro_f1": macro_f1, "nll": nll}


def variance_histograms(rows: list, bins: int) -> dict:
    """Counts on log10-spaced bins between the smallest and largest positive
    variance; a variance at or below the smallest, and every variance when
    they span no range, counts in the lowest bin."""
    positive = [r["variance"] for r in rows if r["variance"] > 0.0]
    lo, hi = (min(positive), max(positive)) if positive else (0.0, 0.0)
    index = [0] * len(rows)
    if lo == hi:
        edges = [lo] * (bins + 1)
    else:
        log_lo, log_hi = math.log10(lo), math.log10(hi)
        step = (log_hi - log_lo) / bins
        edges = [Near(10.0 ** (log_lo + i * step)) for i in range(bins)] + [Near(hi)]
        if log_hi > log_lo:
            for i, r in enumerate(rows):
                if r["variance"] > lo:
                    position = (math.log10(r["variance"]) - log_lo) / (log_hi - log_lo) * bins
                    index[i] = min(bins - 1, int(position))
    return {
        "edges": edges,
        "correct": [sum(1 for i, r in enumerate(rows) if correct(r) and index[i] == b) for b in range(bins)],
        "incorrect": [sum(1 for i, r in enumerate(rows) if not correct(r) and index[i] == b)
                      for b in range(bins)],
    }


def loss(kind: str, row: dict, weight: float) -> float:
    ref = reference_row(np.array(row["alpha"]), row["a0"], row["label"])
    if kind == "log-ev":
        return weight * math.log1p(row["a0"])
    if kind == "mse-kl":
        kl, bound = reference_kl(row["alpha"], row["a0"])
        assert bound <= 1e-6 * max(1.0, kl), "the reference KL is not exact here"
        return ref["mse"] + weight * kl
    return float(ref[kind])


def moment_fit(members: list, cap: float) -> tuple:
    """(degenerate, alpha) of one input's moment fit from its M members.

    Each class with members that differ gives mu (1 - mu) / sigma2 - 1 from
    its mean and unbiased variance; the finite positive ones are averaged
    into alpha_0, or alpha_0 is ``cap`` when there are none."""
    m = len(members)
    means, estimates = [], []
    for column in zip(*members):
        mu = math.fsum(column) / m
        means.append(mu)
        if len(set(column)) > 1:
            sigma2 = math.fsum((x - mu) ** 2 for x in column) / (m - 1)
            estimate = mu * (1.0 - mu) / sigma2 - 1.0
            if math.isfinite(estimate) and estimate > 0.0:
                estimates.append(estimate)
    alpha0 = math.fsum(estimates) / len(estimates) if estimates else cap
    return not estimates, [max(mu * alpha0, ALPHA_FLOOR) for mu in means]


def fits(preds_path, limit, cap: float) -> list:
    """fits.csv's rows in sample id order: id, degenerate flag, concentrations.

    Each row of the predictions file is renormalized by its exact sum when
    that misses 1 by more than RENORM_TOL; a sample's members are its first
    ``limit`` models in model id order, or all of them."""
    ensembles = {}
    for sid, mid, *fields in table(preds_path):
        p = [float(x) for x in fields]
        total = math.fsum(p)
        if abs(total - 1.0) > RENORM_TOL:
            p = [x / total for x in p]
        ensembles.setdefault(sid, {})[mid] = p
    rows = []
    for sid in sorted(ensembles):
        members = [p for _, p in sorted(ensembles[sid].items())][:limit]
        degenerate, alpha = moment_fit(members, cap)
        rows.append([sid, int(degenerate), *map(Near, alpha)])
    return rows


# ------------------------------------------------------ the CLI, checked


def run(*argv) -> int:
    return main([str(a) for a in argv])


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_evaluate(tmp, alphas, labels, bins: int, conf: float) -> None:
    out = tmp / "report.json"
    assert run("evaluate", "--alphas", alphas, "--labels", labels, "--bins", bins,
               "--conf-threshold", conf, "--out", out) == 0
    want = calibration_document(scored_rows(alphas, labels), bins, conf)
    want["selective"] = None
    want["provenance"] = provenance({"alphas": alphas, "labels": labels},
                                    {"command": "evaluate", "bins": bins, "conf_threshold": conf}, None)
    check(load(out), want)


def check_evaluate_preds(tmp, preds, labels, bins: int, conf: float) -> None:
    out = tmp / "report-preds.json"
    assert run("evaluate", "--preds", preds, "--labels", labels, "--bins", bins,
               "--conf-threshold", conf, "--out", out) == 0
    want = calibration_document(prediction_rows(preds, labels), bins, conf)
    want["selective"] = None
    want["provenance"] = provenance({"predictions": preds, "labels": labels},
                                    {"command": "evaluate", "bins": bins, "conf_threshold": conf}, None)
    check(load(out), want)


def selection(test: list, tau: float, bins: int, conf: float, calibrated) -> dict:
    # select.json less its provenance: the report of the test rows, their
    # variance histograms and the selective block.
    want = calibration_document(test, bins, conf)
    want["histograms"]["variance"] = variance_histograms(test, bins)
    retained = subset([r for r in test if r["variance"] <= tau])
    points = len(prefixes(test))
    cal_info = calibrated or {}
    want["selective"] = {
        "tau": json_float(tau),
        **{key: cal_info.get(key) for key in ("target_risk", "achieved_cal_risk", "cal_coverage")},
        "cal_n": cal_info.get("cal_n"),
        "test_n": len(test),
        "coverage": retained["n"] / len(test),
        "retained": retained,
        "curve_points": points,
        "single_point_curve": points == 1,
    }
    return want


def check_select(tmp, alphas, labels, risk: float, frac: float, seed: int, bins: int, conf: float) -> None:
    out, curve_out, threshold_out = tmp / "select.json", tmp / "curve.csv", tmp / "threshold.json"
    common = ["--alphas", alphas, "--labels", labels, "--risk", risk, "--cal-split", frac, "--seed", seed]
    rows = scored_rows(alphas, labels)
    sides = split(rows, frac, seed)
    code = run("select", *common, "--bins", bins, "--conf-threshold", conf, "--out", out,
               "--curve-out", curve_out)
    assert run("calibrate-threshold", *common, "--out", threshold_out) == code
    if sides is None:
        assert code == 1
        return
    assert code == 0
    cal, test = sides
    calibrated = {**threshold(cal, risk), "cal_n": len(cal)}
    want = selection(test, calibrated["tau"], bins, conf, calibrated)
    want["provenance"] = provenance(
        {"alphas": alphas, "labels": labels},
        {"command": "select", "bins": bins, "conf_threshold": conf, "risk": risk, "cal_split": frac}, seed)
    check(load(out), want)
    check(curve_file(curve_out), curve(test))
    block = {**calibrated, "tau": json_float(calibrated["tau"]), "test_n": len(test)}
    check(load(threshold_out), {
        "threshold": {key: block[key] for key in
                      ("tau", "target_risk", "achieved_cal_risk", "cal_coverage", "cal_n", "test_n")},
        "provenance": provenance({"alphas": alphas, "labels": labels},
                                 {"command": "calibrate-threshold", "risk": risk, "cal_split": frac}, seed),
    })


def check_select_tau(tmp, alphas, labels, tau: float, bins: int, conf: float) -> None:
    out, curve_out = tmp / "select-tau.json", tmp / "curve-tau.csv"
    assert run("select", "--alphas", alphas, "--labels", labels, f"--tau={tau!r}", "--bins", bins,
               "--conf-threshold", conf, "--out", out, "--curve-out", curve_out) == 0
    rows = scored_rows(alphas, labels)
    want = selection(rows, tau, bins, conf, None)
    want["provenance"] = provenance(
        {"alphas": alphas, "labels": labels},
        {"command": "select", "bins": bins, "conf_threshold": conf, "tau": json_float(tau)}, None)
    check(load(out), want)
    check(curve_file(curve_out), curve(rows))


def check_risk_coverage(tmp, alphas, labels) -> None:
    out = tmp / "rc.csv"
    assert run("risk-coverage", "--alphas", alphas, "--labels", labels, "--out", out) == 0
    check(curve_file(out), curve(scored_rows(alphas, labels)))


def check_losses(tmp, alphas, labels, kind: str, flags: list) -> None:
    out = tmp / f"losses-{kind}.csv"
    assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", kind, *flags, "--out", out) == 0
    settings_ = dict(zip(flags[::2], map(float, flags[1::2])))
    rows = scored_rows(alphas, labels)
    weight = settings_.get("--lambda0", 0.0)
    if "--epoch" in settings_:
        weight = (weight / len(rows[0]["alpha"])) * (settings_["--epoch"] / settings_["--epochs"])
    values = [loss(kind, r, weight) for r in rows]
    want = [[r["id"], v] for r, v in zip(rows, values)]
    want.append(["__dataset_mean__", math.fsum(values) / len(values)])
    check([[sid, float(v)] for sid, v in table(out)], want)


def check_fit(tmp, preds, limit=None, cap=None) -> None:
    out = tmp / "fits-mom.csv"
    flags = [*(["--models-limit", limit] if limit else []), *(["--cap", repr(cap)] if cap else [])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RenormalizationWarning)
        assert run("fit", "--preds", preds, "--mode", "mom", *flags, "--out", out) == 0
    got = [[sid, int(flag), *map(float, alpha)] for sid, flag, *alpha in table(out)]
    check(got, fits(preds, limit, cap or 1e6))


# --------------------------------------------------------------- datasets


def write_dataset(tmp, alpha_rows: list, labels: list) -> tuple[Path, Path, Path]:
    """An alphas file, a labels file and a single-model predictions file of
    the rows' means, each row's id its position."""
    k = len(alpha_rows[0])
    width = len(str(len(alpha_rows) - 1))
    ids = [f"s{i:0{width}d}" for i in range(len(alpha_rows))]
    alphas, labels_path, preds = tmp / "alphas.csv", tmp / "labels.csv", tmp / "preds.csv"
    alphas.write_text("".join(
        [f"sample_id,degenerate,{','.join(f'a_{j}' for j in range(k))}\n"]
        + [f"{sid},0,{','.join(map(repr, row))}\n" for sid, row in zip(ids, alpha_rows)]))
    labels_path.write_text("".join(["sample_id,label\n"] + [f"{sid},{y}\n" for sid, y in zip(ids, labels)]))
    preds.write_text("".join(
        [f"sample_id,model_id,{','.join(f'p_{j}' for j in range(k))}\n"]
        + [f"{sid},m0,{','.join(repr(a / math.fsum(row)) for a in row)}\n" for sid, row in zip(ids, alpha_rows)]))
    return alphas, labels_path, preds


def check_everything(tmp, alphas, labels, preds=None, *, bins=10, conf=0.8, risk=0.2, frac=0.5, seed=3,
                     weight=0.7) -> None:
    check_evaluate(tmp, alphas, labels, bins, conf)
    if preds is not None:
        check_evaluate_preds(tmp, preds, labels, bins, conf)
    check_select(tmp, alphas, labels, risk, frac, seed, bins, conf)
    # Again at a target risk that some prefix of the calibration side meets
    # exactly: the bound is inclusive.
    sides = split(scored_rows(alphas, labels), frac, seed)
    rates = sorted({errors / kept for _, kept, errors in prefixes(sides[0])} - {0.0, 1.0}) if sides else []
    if rates:
        check_select(tmp, alphas, labels, rates[len(rates) // 2], frac, seed, bins, conf)
    variances = sorted({r["variance"] for r in scored_rows(alphas, labels)})
    for tau in (-math.inf, variances[0], variances[len(variances) // 2], math.inf):
        check_select_tau(tmp, alphas, labels, tau, bins, conf)
    check_risk_coverage(tmp, alphas, labels)
    for kind in LOSSES:
        check_losses(tmp, alphas, labels, kind, ["--lambda0", repr(weight)])
    check_losses(tmp, alphas, labels, "mse-kl", ["--lambda0", repr(weight), "--epoch", "3", "--epochs", "10"])


HAND = {
    # Ties at two variances, with errors inside each tie.
    "tied": ([[5.0, 1.0]] * 4 + [[1.0, 5.0]] * 3 + [[2.0, 2.5]] * 3, [0, 0, 1, 0, 1, 1, 0, 1, 1, 0]),
    "all correct": ([[3.0, 1.0, 1.0], [1.0, 9.0, 2.0], [1.0, 1.0, 40.0], [6.0, 2.0, 1.0]] * 3,
                    [0, 1, 2, 0] * 3),
    "all wrong": ([[3.0, 1.0, 1.0], [1.0, 9.0, 2.0], [1.0, 1.0, 40.0], [6.0, 2.0, 1.0]] * 3,
                  [1, 2, 0, 2] * 3),
    # One variance for every row: a one-point curve and one variance bin.
    "one variance": ([[4.0, 2.0, 1.0]] * 9, [0, 1, 0, 0, 2, 0, 1, 0, 0]),
    # Wrong rows whose confidence is exactly 0.5 and exactly 0.8.
    "boundaries": ([[1.0, 1.0], [4.0, 1.0], [1.0, 4.0], [3.0, 2.0]] * 2, [1, 1, 1, 0, 0, 0, 1, 1]),
    # Two rows of two labels: the split puts both on the calibration side,
    # so select and calibrate-threshold exit 1.
    "tiny": ([[2.0, 1.0], [1.0, 2.0]], [0, 1]),
}


@pytest.mark.parametrize("name", sorted(HAND))
def test_hand_datasets(tmp_path, name):
    alpha_rows, labels = HAND[name]
    check_everything(tmp_path, *write_dataset(tmp_path, alpha_rows, labels))


CONCENTRATIONS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.5, 7.0, 40.0, 1000.0]),
                           st.floats(0.05, 1e4))


@st.composite
def datasets(draw):
    k = draw(st.integers(2, 4))
    # A few distinct rows, repeated, so variances tie.
    pool = draw(st.lists(st.lists(CONCENTRATIONS, min_size=k, max_size=k), min_size=1, max_size=5))
    alpha_rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    kind = draw(st.sampled_from(["any", "correct", "wrong"]))
    if kind == "any":
        labels = draw(st.lists(st.integers(0, k - 1), min_size=len(alpha_rows), max_size=len(alpha_rows)))
    else:
        shift = 0 if kind == "correct" else draw(st.integers(1, k - 1))
        labels = [(argmax(row) + shift) % k for row in alpha_rows]
    options = {
        "bins": draw(st.integers(1, 12)),
        "conf": draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
        "risk": draw(st.sampled_from([0.05, 0.2, 0.5, 0.9])),
        "frac": draw(st.sampled_from([0.3, 0.5, 0.7])),
        "seed": draw(st.integers(0, 20)),
        "weight": draw(st.sampled_from([0.0, 0.7, 3.0])),
    }
    return alpha_rows, labels, options


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=datasets())
def test_drawn_datasets(tmp_path, data):
    alpha_rows, labels, options = data
    check_everything(tmp_path, *write_dataset(tmp_path, alpha_rows, labels), **options)


def write_predictions_file(path, ensembles: list, order=None) -> Path:
    """A predictions file of (M, K) member lists, sample i's id ``s{i}`` and
    model j's ``m{j}``; its lines in ``order``, a permutation, if given."""
    k = len(ensembles[0][0])
    lines = [f"s{i},m{j},{','.join(map(repr, p))}\n"
             for i, members in enumerate(ensembles) for j, p in enumerate(members)]
    if order is not None:
        lines = [lines[i] for i in order]
    path.write_text(f"sample_id,model_id,{','.join(f'p_{j}' for j in range(k))}\n" + "".join(lines))
    return path


FIT_HAND = {
    # Members that agree bitwise on every class; one class spread past any
    # Dirichlet's (both estimates negative); a class no member gives mass
    # (the floor), beside spread classes.
    "degenerate": [[[0.25, 0.25, 0.5]] * 3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
                   [[0.0, 0.4, 0.6], [0.0, 0.5, 0.5], [0.0, 0.7, 0.3]],
                   [[0.5, 0.25, 0.25], [0.5, 0.25, 0.25], [0.6, 0.2, 0.2]]],
    # Rows whose sums miss 1 by 5e-8 and by 2e-9, beside exact ones.
    "renormalized": [[[0.3 * (1 - 5e-8), 0.7 * (1 - 5e-8)], [0.6, 0.4], [0.45, 0.55 - 2e-9]],
                     [[0.2, 0.8], [0.9 * (1 - 9e-7), 0.1 * (1 - 9e-7)], [0.5, 0.5]]],
    # Members that agree on the first two models only, which --models-limit 2 keeps.
    "models limit": [[[0.25, 0.75], [0.25, 0.75], [0.5, 0.5], [0.125, 0.875]],
                     [[0.1, 0.9], [0.3, 0.7], [0.2, 0.8], [0.6, 0.4]]],
}


@pytest.mark.parametrize("name", sorted(FIT_HAND))
@pytest.mark.parametrize("limit, cap", [(None, None), (2, None), (None, 50.0), (3, 1e9)])
def test_fit_hand_files(tmp_path, name, limit, cap):
    check_fit(tmp_path, write_predictions_file(tmp_path / "preds.csv", FIT_HAND[name]), limit, cap)


@pytest.mark.parametrize("scheme", [["fixed", "--alpha", "1,2,3,4,5"], ["two-population"],
                                    ["collapse", "--alpha0", "1e7"]],
                         ids=lambda scheme: scheme[0])
def test_fit_simulated_files(tmp_path, scheme):
    preds = tmp_path / "preds.csv"
    assert run("simulate", "--scheme", *scheme, "--n", 60, "--m", 8, "--k", 5, "--seed", 4,
               "--preds-out", preds, "--labels-out", tmp_path / "l.csv", "--alphas-out", tmp_path / "a.csv") == 0
    check_fit(tmp_path, preds)
    check_fit(tmp_path, preds, 3, 1e3)


@st.composite
def ensemble_files(draw):
    """(members of each input, line order, --models-limit, --cap)."""
    k, m = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ensembles = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["dirichlet", "identical", "zero class", "renormalized", "vertices"]))
        members = rng.dirichlet([draw(st.sampled_from([0.3, 1.0, 5.0, 100.0, 1e4]))] * k, size=m)
        if kind == "identical":
            members[:] = members[0]
        elif kind == "zero class":
            members[:, 0] = 0.0
            members[:, 1:] = rng.dirichlet([2.0] * (k - 1), size=m)
        elif kind == "renormalized":
            members *= 1.0 - draw(st.sampled_from([2e-9, 3e-8, 9e-7]))
        elif kind == "vertices":
            members = np.eye(k)[rng.integers(0, k, size=m)]
        ensembles.append(members.tolist())
    order = rng.permutation(len(ensembles) * m).tolist() if draw(st.booleans()) else None
    limit = draw(st.one_of(st.none(), st.integers(2, m)))
    return ensembles, order, limit, draw(st.sampled_from([None, 7.5, 1e9]))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=ensemble_files())
def test_fit_drawn_files(tmp_path, data):
    ensembles, order, limit, cap = data
    check_fit(tmp_path, write_predictions_file(tmp_path / "preds.csv", ensembles, order), limit, cap)


def walkthrough() -> list[list[str]]:
    """The README walkthrough's commands, without the leading ``direns``."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI walkthrough", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("direns ")]


def test_readme_walkthrough(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough()
    for argv in commands:
        assert main(argv) == 0, argv
    flags = {argv[0]: dict(zip(argv[1::2], argv[2::2])) for argv in commands}
    alphas, labels = Path("fits.csv"), Path("labels.csv")
    evaluate, select, losses = flags["evaluate"], flags["select"], flags["losses"]
    want = calibration_document(scored_rows(alphas, labels), 10, 0.8)
    want["selective"] = None
    want["provenance"] = provenance({"alphas": evaluate["--alphas"], "labels": evaluate["--labels"]},
                                    {"command": "evaluate", "bins": 10, "conf_threshold": 0.8}, None)
    check(load(evaluate["--out"]), want)

    risk, seed = float(select["--risk"]), int(select["--seed"])
    cal, test = split(scored_rows(alphas, labels), 0.5, seed)
    calibrated = {**threshold(cal, risk), "cal_n": len(cal)}
    want = selection(test, calibrated["tau"], 10, 0.8, calibrated)
    want["provenance"] = provenance(
        {"alphas": select["--alphas"], "labels": select["--labels"]},
        {"command": "select", "bins": 10, "conf_threshold": 0.8, "risk": risk, "cal_split": 0.5}, seed)
    check(load(select["--out"]), want)
    check(curve_file(select["--curve-out"]), curve(test))

    rows = scored_rows(alphas, labels)
    weight = (float(losses["--lambda0"]) / len(rows[0]["alpha"])) * (float(losses["--epoch"])
                                                                     / float(losses["--epochs"]))
    values = [loss(losses["--loss"], r, weight) for r in rows]
    check([[sid, float(v)] for sid, v in table(losses["--out"])],
          [[r["id"], v] for r, v in zip(rows, values)] + [["__dataset_mean__", math.fsum(values) / len(values)]])

    # The moment fit of the walkthrough's predictions, and the rest of the
    # outputs on its fits.
    check_fit(tmp_path, Path("preds.csv"))
    check_risk_coverage(tmp_path, alphas, labels)
    check_select(tmp_path, alphas, labels, 0.05, 0.3, 8, 7, 0.6)
    check_select_tau(tmp_path, alphas, labels, rows[17]["variance"], 10, 0.8)
    for kind in LOSSES:
        check_losses(tmp_path, alphas, labels, kind, ["--lambda0", "0.25"])
