"""Command-line pipeline: simulate, fit, evaluate, select, losses.

Subcommands compose into the full workflow: generate or ingest ensemble
prediction CSVs, fit per-input Dirichlet parameters, evaluate calibration
diagnostics, calibrate a variance threshold under a target risk, run
selective classification, and evaluate closed-form evidential losses.

Reports are deterministic JSON (no timestamps; provenance carries input
digests, settings, seed, and version), curves are plain CSV.  Exit codes:
0 success, 1 validation error (any out-of-range file content, flag or
setting), 2 I/O error.  ``fit`` fits the reader's (n, M, K) array in one
batched pass; ``--threads`` is accepted for compatibility and changes
nothing.  No command builds per-input objects.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .calibration import DEFAULT_BINS, DEFAULT_CONFIDENCE_THRESHOLD, _report
from .dirichlet import _variances
from .estimators import (
    DEFAULT_ALPHA0_CAP,
    DEFAULT_EPS,
    DEFAULT_MAX_ITER,
    DEFAULT_P_FLOOR,
    _fit,
)
from .evidential import LOSSES, annealed_lambda, losses
from .fileio import (
    ValidationError,
    pair_labels,
    read_alphas,
    read_labels,
    read_predictions,
    sha256_of_file,
    write_alphas,
    write_curve,
    write_labels,
    write_losses,
    write_predictions,
    write_report,
)
from .selective import (
    DEFAULT_TARGET_RISK,
    _curve,
    _subset_metrics,
    _threshold,
    _variance_histograms,
    _wrong,
)
from .simulate import SimulationConfig, generate

__all__ = ["main"]

MEAN_ROW_ID = "__dataset_mean__"


class _Parser(argparse.ArgumentParser):
    # Route argparse's usage failures through the validation exit code.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(f"{self.prog}: {message}")


def _json_float(x: float) -> object:
    x = float(x)
    return x if math.isfinite(x) else str(x)


def _provenance(inputs: dict, settings: dict, seed: Optional[int]) -> dict:
    return {
        "inputs": {
            name: {"path": path, "sha256": sha256_of_file(path)}
            for name, path in sorted(inputs.items())
        },
        "settings": settings,
        "seed": seed,
        "version": __version__,
    }


def _parse_float_list(raw: str, name: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",")]
    except ValueError:
        raise ValidationError(f"{name} must be a comma-separated list of numbers") from None


def _parse_pair(raw: str, name: str) -> tuple[float, float]:
    values = _parse_float_list(raw, name)
    if len(values) != 2:
        raise ValidationError(f"{name} must be exactly two comma-separated numbers")
    return values[0], values[1]


# ---------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    scheme = args.scheme.replace("-", "_")
    config = SimulationConfig(
        n=args.n,
        m=args.m,
        k=args.k,
        seed=args.seed,
        scheme=scheme,
        alpha=np.array(_parse_float_list(args.alpha, "--alpha")) if args.alpha else None,
        collapse_alpha0=args.alpha0,
        frac_incorrect=args.frac_incorrect,
        correct_alpha0=_parse_pair(args.correct_alpha0, "--correct-alpha0"),
        incorrect_alpha0=_parse_pair(args.incorrect_alpha0, "--incorrect-alpha0"),
        peak=args.peak,
    )
    data = generate(config)
    probs = np.array([data.ensembles[sid] for sid in data.sample_ids])
    write_predictions(args.preds_out, data.sample_ids, data.model_ids, probs)
    write_labels(args.labels_out, list(data.labels.items()))
    alphas = np.array([data.alphas[sid] for sid in data.sample_ids])
    write_alphas(args.alphas_out, data.sample_ids, np.zeros(len(alphas), dtype=bool), alphas)
    return 0


# --------------------------------------------------------------------- fit


def cmd_fit(args: argparse.Namespace) -> int:
    data = read_predictions(args.preds)
    m = len(data.model_ids)
    if args.models_limit is not None:
        if args.models_limit < 2:
            raise ValidationError("--models-limit must be at least 2")
        if args.models_limit > m:
            raise ValidationError(
                f"--models-limit {args.models_limit} exceeds the {m} "
                "models present"
            )
        m = args.models_limit
    if m < 2:
        raise ValidationError(
            f"{args.preds}: fitting needs at least 2 models per sample, found {m}"
        )
    # The reader has checked every row's bounds and closure, and K >= 2.
    alpha, degenerate, _, _ = _fit(
        data.probs[:, :m],
        args.mode == "mom-mle",
        alpha0_cap=args.cap,
        max_iter=args.max_iter,
        eps=args.eps,
        p_floor=args.p_floor,
        n_threads=args.threads,
    )
    write_alphas(args.out, data.sample_ids, degenerate, alpha)
    return 0


# ---------------------------------------------------------------- evaluate


def _read_scored(alphas_path: str, labels_path: str, scored: bool = True):
    """(means, total variances, labels) of every row of an alphas file, as arrays.

    Row i has mean alpha / alpha_0, with alpha_0 the exact row sum, as
    ``predictive_mean`` computes it, and the variance ``total_variance``
    gives.  Variances are None unless ``scored``.
    """
    data = read_alphas(alphas_path)
    labels = pair_labels(data.sample_ids, read_labels(labels_path), data.alpha.shape[1], labels_path)
    mean = data.alpha / data.alpha0[:, None]
    return mean, _variances(data.alpha, data.alpha0, total=True) if scored else None, labels


def _calibration_document(report, n_bins: int, threshold: float) -> dict:
    return {
        "metrics": {
            "accuracy": float(report.accuracy),
            "macro_f1": float(report.macro_f1),
            "nll": float(report.nll),
            "ece": float(report.ece),
        },
        "bins": [{**dataclasses.asdict(b), "empty": b.empty} for b in report.bins],
        "histograms": {
            "bin_count": n_bins,
            "confidence_threshold": threshold,
            "confidence_correct": report.hist_correct.tolist(),
            "confidence_incorrect": report.hist_incorrect.tolist(),
            "high_conf_error_rate": float(report.high_conf_error_rate),
        },
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.alphas:
        mean, _, labels = _read_scored(args.alphas, args.labels, scored=False)
        inputs = {"alphas": args.alphas, "labels": args.labels}
    else:
        data = read_predictions(args.preds)
        if len(data.model_ids) != 1:
            raise ValidationError(
                f"{args.preds}: evaluate expects a single-model predictions file "
                f"(found {len(data.model_ids)} models); fit an ensemble first"
            )
        labels = pair_labels(data.sample_ids, read_labels(args.labels), data.k, args.labels)
        mean = data.probs[:, 0]
        inputs = {"predictions": args.preds, "labels": args.labels}
    report = _report(mean, labels, args.bins, args.conf_threshold)
    document = _calibration_document(report, args.bins, args.conf_threshold)
    document["selective"] = None
    document["provenance"] = _provenance(
        inputs,
        {"command": "evaluate", "bins": args.bins, "conf_threshold": args.conf_threshold},
        None,
    )
    write_report(args.out, document)
    return 0


# ------------------------------------------------------------------ select


def _stratified_split(labels: np.ndarray, frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # Row indices of the calibration and test sides.  Rows are in sample id
    # order, and each label's rows are permuted in turn, lowest label first.
    if not 0.0 < frac < 1.0:
        raise ValidationError(f"--cal-split must lie in (0, 1), got {frac}")
    rng = np.random.default_rng(seed)
    cal = np.zeros(labels.size, dtype=bool)
    for label in np.unique(labels).tolist():
        members = np.flatnonzero(labels == label)
        perm = rng.permutation(members.size)
        cal[members[perm[: int(math.floor(frac * members.size + 0.5))]]] = True
    if cal.all() or not cal.any():
        raise ValidationError(
            "the stratified split left the calibration or test side empty; "
            "adjust --cal-split or provide more samples"
        )
    return np.flatnonzero(cal), np.flatnonzero(~cal)


def _calibrated_split(args: argparse.Namespace, mean, variance, labels):
    # (calibration rows, test rows, the threshold calibrated on the former).
    cal, test = _stratified_split(labels, args.cal_split, args.seed)
    if not 0.0 < args.risk < 1.0:
        raise ValidationError(f"--risk must lie in (0, 1), got {args.risk}")
    return cal, test, _threshold(variance[cal], _wrong(mean[cal], labels[cal]), args.risk)


def cmd_calibrate_threshold(args: argparse.Namespace) -> int:
    cal, test, result = _calibrated_split(args, *_read_scored(args.alphas, args.labels))
    document = {
        "threshold": {
            "tau": _json_float(result.tau),
            "target_risk": result.target_risk,
            "achieved_cal_risk": result.achieved_cal_risk,
            "cal_coverage": result.cal_coverage,
            "cal_n": cal.size,
            "test_n": test.size,
        },
        "provenance": _provenance(
            {"alphas": args.alphas, "labels": args.labels},
            {"command": "calibrate-threshold", "risk": args.risk, "cal_split": args.cal_split},
            args.seed,
        ),
    }
    write_report(args.out, document)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    mean, variance, labels = _read_scored(args.alphas, args.labels)
    settings: dict = {"command": "select", "bins": args.bins, "conf_threshold": args.conf_threshold}
    calinfo, cal_n, seed = None, None, None
    if args.tau is not None:
        tau = float(args.tau)
        if math.isnan(tau):
            raise ValidationError("--tau must be a number, got nan")
        test = np.arange(labels.size)
        settings["tau"] = _json_float(tau)
    else:
        cal, test, calinfo = _calibrated_split(args, mean, variance, labels)
        tau, cal_n, seed = calinfo.tau, cal.size, args.seed
        settings.update(risk=args.risk, cal_split=args.cal_split)

    mean, variance, labels = mean[test], variance[test], labels[test]
    wrong = _wrong(mean, labels)
    curve = _curve(variance, wrong)
    keep = variance <= tau
    retained = _subset_metrics(mean[keep], labels[keep])
    edges, hist_correct, hist_incorrect = _variance_histograms(variance, wrong, args.bins)
    cal_report = _report(mean, labels, args.bins, args.conf_threshold)

    document = _calibration_document(cal_report, args.bins, args.conf_threshold)
    document["histograms"]["variance"] = {
        "edges": edges.tolist(),
        "correct": hist_correct.tolist(),
        "incorrect": hist_incorrect.tolist(),
    }
    document["selective"] = {
        "tau": _json_float(tau),
        **{key: getattr(calinfo, key, None) for key in ("target_risk", "achieved_cal_risk", "cal_coverage")},
        "cal_n": cal_n,
        "test_n": test.size,
        "coverage": retained.n / test.size,
        "retained": dataclasses.asdict(retained),
        "curve_points": curve.shape[0],
        "single_point_curve": curve.shape[0] == 1,
    }
    document["provenance"] = _provenance(
        {"alphas": args.alphas, "labels": args.labels}, settings, seed
    )
    write_report(args.out, document)
    if args.curve_out:
        write_curve(args.curve_out, curve)
    return 0


def cmd_risk_coverage(args: argparse.Namespace) -> int:
    mean, variance, labels = _read_scored(args.alphas, args.labels)
    write_curve(args.out, _curve(variance, _wrong(mean, labels)))
    return 0


# ------------------------------------------------------------------ losses


def cmd_losses(args: argparse.Namespace) -> int:
    schedule_given = args.epoch is not None or args.epochs is not None
    if schedule_given and args.loss != "mse-kl":
        raise ValidationError("--epoch/--epochs apply only to --loss mse-kl")
    if (args.epoch is None) != (args.epochs is None):
        raise ValidationError("--epoch and --epochs must be given together")
    data = read_alphas(args.alphas)
    k = data.alpha.shape[1]
    labels = pair_labels(data.sample_ids, read_labels(args.labels), k, args.labels)

    lambda0 = annealed_lambda(args.lambda0, k, args.epoch, args.epochs) if schedule_given else args.lambda0
    values = losses(args.loss, data.alpha, data.alpha0, labels, lambda0)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(
            f"{args.alphas}: row {bad[0] + 2}: the {args.loss} loss overflows or loses its precision in a float"
        )
    values = values.tolist()
    write_losses(args.out, data.sample_ids + [MEAN_ROW_ID], values + [math.fsum(values) / len(values)])
    return 0


# -------------------------------------------------------------- arg wiring


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="direns",
        description=(
            "Dirichlet distributions from prediction ensembles: fitting, "
            "calibration diagnostics, and variance-based selective classification."
        ),
    )
    parser.add_argument("--version", action="version", version=f"direns {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic ensemble predictions")
    sim.add_argument("--preds-out", required=True)
    sim.add_argument("--labels-out", required=True)
    sim.add_argument("--alphas-out", required=True, help="ground-truth concentrations")
    sim.add_argument("--n", type=int, required=True, help="number of inputs")
    sim.add_argument("--m", type=int, required=True, help="ensemble members per input")
    sim.add_argument("--k", type=int, required=True, help="class count")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--scheme", choices=["fixed", "two-population", "collapse"], default="fixed"
    )
    sim.add_argument("--alpha", help="fixed scheme: comma-separated concentrations")
    sim.add_argument(
        "--alpha0", type=float, default=1e7, help="collapse scheme: total concentration"
    )
    sim.add_argument("--frac-incorrect", type=float, default=0.3)
    sim.add_argument("--correct-alpha0", default="50,500", help="lo,hi range")
    sim.add_argument("--incorrect-alpha0", default="3,30", help="lo,hi range")
    sim.add_argument("--peak", type=float, default=0.8)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit per-input Dirichlet parameters")
    fit.add_argument("--preds", required=True)
    fit.add_argument("--out", required=True)
    fit.add_argument("--mode", choices=["mom", "mom-mle"], default="mom")
    fit.add_argument("--cap", type=float, default=DEFAULT_ALPHA0_CAP)
    fit.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    fit.add_argument("--eps", type=float, default=DEFAULT_EPS)
    fit.add_argument("--p-floor", type=float, default=DEFAULT_P_FLOOR)
    fit.add_argument("--models-limit", type=int, default=None)
    fit.add_argument("--threads", type=int, default=None, help="accepted and ignored (>= 1)")
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("evaluate", help="calibration diagnostics report")
    src = ev.add_mutually_exclusive_group(required=True)
    src.add_argument("--alphas")
    src.add_argument("--preds", help="single-model predictions file")
    ev.add_argument("--labels", required=True)
    ev.add_argument("--bins", type=int, default=DEFAULT_BINS)
    ev.add_argument("--conf-threshold", type=float, default=DEFAULT_CONFIDENCE_THRESHOLD)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    cal = sub.add_parser("calibrate-threshold", help="calibrate a variance threshold")
    cal.add_argument("--alphas", required=True)
    cal.add_argument("--labels", required=True)
    cal.add_argument("--risk", type=float, default=DEFAULT_TARGET_RISK)
    cal.add_argument("--cal-split", type=float, default=0.5)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--out", required=True)
    cal.set_defaults(func=cmd_calibrate_threshold)

    sel = sub.add_parser("select", help="threshold, decide, and report")
    sel.add_argument("--alphas", required=True)
    sel.add_argument("--labels", required=True)
    sel.add_argument("--risk", type=float, default=DEFAULT_TARGET_RISK)
    sel.add_argument("--cal-split", type=float, default=0.5)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--tau", type=float, default=None, help="skip calibration, use this threshold")
    sel.add_argument("--bins", type=int, default=DEFAULT_BINS)
    sel.add_argument("--conf-threshold", type=float, default=DEFAULT_CONFIDENCE_THRESHOLD)
    sel.add_argument("--out", required=True)
    sel.add_argument("--curve-out", default=None)
    sel.set_defaults(func=cmd_select)

    rc = sub.add_parser("risk-coverage", help="risk-coverage curve CSV")
    rc.add_argument("--alphas", required=True)
    rc.add_argument("--labels", required=True)
    rc.add_argument("--out", required=True)
    rc.set_defaults(func=cmd_risk_coverage)

    loss = sub.add_parser("losses", help="per-sample evidential losses")
    loss.add_argument("--alphas", required=True)
    loss.add_argument("--labels", required=True)
    loss.add_argument("--loss", choices=list(LOSSES), required=True)
    loss.add_argument("--lambda0", type=float, default=0.0)
    loss.add_argument("--epoch", type=float, default=None)
    loss.add_argument("--epochs", type=float, default=None)
    loss.add_argument("--out", required=True)
    loss.set_defaults(func=cmd_losses)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        # Library code raises ValueError for out-of-range settings; at the
        # command line that is the same failure as a malformed file.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0


if __name__ == "__main__":
    sys.exit(main())
