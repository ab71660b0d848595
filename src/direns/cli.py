"""Command-line pipeline: simulate, fit, evaluate, select, losses.

Subcommands compose into the full workflow: generate or ingest ensemble
prediction CSVs, fit per-input Dirichlet parameters, evaluate calibration
diagnostics, calibrate a variance threshold under a target risk, run
selective classification, and evaluate closed-form evidential losses.

Reports are deterministic JSON (no timestamps; provenance carries input
digests, settings, seed, and version), curves are plain CSV.  Exit codes:
0 success, 1 validation error (any out-of-range file content, flag or
setting), 2 I/O error; a setting error names its flag, and a command checks
the settings it reads before it opens a file.  ``fit`` fits the reader's
(n, M, K) array in one pass; ``--threads`` is accepted and changes nothing.
No command builds per-input objects: ids, labels and values go from reader
to writer as arrays, and sample ids as one list of str.
"""

from __future__ import annotations

import argparse
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
from .evidential import _WEIGHT_NAMES, LOSSES, annealed_lambda, losses
from .fileio import (
    ValidationError,
    _write_labels,
    pair_labels,
    read_alphas,
    read_labels,
    read_predictions,
    sha256_of_file,
    write_alphas,
    write_curve,
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


# The rule each setting must meet, by flag: a test of its parsed value (given
# all the arguments, for a rule that depends on another flag) and what it
# asks, where {k} stands for --k.  The library checks the same settings under
# its own names.
_FLAG_RULES = {
    "--n": (lambda v, a: v >= 1, "must be at least 1"),
    "--m": (lambda v, a: v >= 1, "must be at least 1"),
    "--k": (lambda v, a: v >= 2, "must be at least 2"),
    "--alpha": (lambda v, a: len(v) == a.k and all(0.0 < x < math.inf for x in v) and sum(v) < math.inf,
                "must be {k} finite positive values with a finite sum"),
    "--alpha0": (lambda v, a: math.isfinite(v) and v > 0.0, "must be finite and > 0"),
    "--frac-incorrect": (lambda v, a: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "--correct-alpha0": (lambda v, a: 0.0 < v[0] <= v[1] < math.inf, "must satisfy 0 < lo <= hi < inf"),
    "--incorrect-alpha0": (lambda v, a: 0.0 < v[0] <= v[1] < math.inf, "must satisfy 0 < lo <= hi < inf"),
    "--peak": (lambda v, a: 1.0 / a.k < v < 1.0, "must lie in (1/K, 1) = (1/{k}, 1)"),
    "--cap": (lambda v, a: math.isfinite(v) and v > 0.0, "must be finite and > 0"),
    "--max-iter": (lambda v, a: v >= 1, "must be at least 1"),
    "--eps": (lambda v, a: math.isfinite(v) and v > 0.0, "must be finite and > 0"),
    "--p-floor": (lambda v, a: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "--models-limit": (lambda v, a: v >= 2, "must be at least 2"),
    "--threads": (lambda v, a: v >= 1, "must be at least 1"),
    "--bins": (lambda v, a: v >= 1, "must be at least 1"),
    "--conf-threshold": (lambda v, a: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "--cal-split": (lambda v, a: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "--risk": (lambda v, a: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "--tau": (lambda v, a: not math.isnan(v), "must be a number"),
    "--lambda0": (lambda v, a: math.isfinite(v) and v >= 0.0, "must be finite and nonnegative"),
    "--epochs": (lambda v, a: math.isfinite(v) and v >= 1.0, "must be finite and at least 1"),
    "--epoch": (lambda v, a: math.isfinite(v) and v >= 0.0, "must be finite and nonnegative"),
}


def _check_flags(args: argparse.Namespace, *flags: str) -> None:
    # A setting outside its rule is an error that names its flag; an optional
    # setting left unset meets every rule.
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        test, rule = _FLAG_RULES[flag]
        if value is not None and not test(value, args):
            raise ValidationError(f"{flag} {rule.format_map(vars(args))}, got {value}")


# ---------------------------------------------------------------- simulate


# The flags each --scheme reads besides the sizes.
_SCHEME_FLAGS = {
    "fixed": ("--alpha",),
    "collapse": ("--alpha0",),
    "two_population": ("--frac-incorrect", "--correct-alpha0", "--incorrect-alpha0", "--peak"),
}


def cmd_simulate(args: argparse.Namespace) -> int:
    scheme = args.scheme.replace("-", "_")
    args.alpha = _parse_float_list(args.alpha, "--alpha") if args.alpha else None
    args.correct_alpha0 = _parse_pair(args.correct_alpha0, "--correct-alpha0")
    args.incorrect_alpha0 = _parse_pair(args.incorrect_alpha0, "--incorrect-alpha0")
    _check_flags(args, "--n", "--m", "--k", *_SCHEME_FLAGS[scheme])
    config = SimulationConfig(
        n=args.n,
        m=args.m,
        k=args.k,
        seed=args.seed,
        scheme=scheme,
        alpha=None if args.alpha is None else np.array(args.alpha),
        collapse_alpha0=args.alpha0,
        frac_incorrect=args.frac_incorrect,
        correct_alpha0=args.correct_alpha0,
        incorrect_alpha0=args.incorrect_alpha0,
        peak=args.peak,
    )
    data = generate(config)
    write_predictions(args.preds_out, data.sample_ids, data.model_ids, data.probs)
    _write_labels(args.labels_out, data.sample_ids, data.label)
    write_alphas(args.alphas_out, data.sample_ids, np.zeros(config.n, dtype=bool), data.alpha)
    return 0


# --------------------------------------------------------------------- fit


def cmd_fit(args: argparse.Namespace) -> int:
    _check_flags(args, "--cap", "--max-iter", "--eps", "--p-floor", "--models-limit", "--threads")
    data = read_predictions(args.preds)
    m = len(data.model_ids)
    if args.models_limit is not None and args.models_limit > m:
        raise ValidationError(f"--models-limit {args.models_limit} exceeds the {m} models present")
    m = args.models_limit or m
    if m < 2:
        raise ValidationError(
            f"{args.preds}: fitting needs at least 2 models per sample, found {m}"
        )
    # The reader has checked every row's bounds and closure, and K >= 2.
    refine = args.mode == "mom-mle"
    alpha, degenerate, _, converged = _fit(
        data.probs[:, :m],
        refine,
        alpha0_cap=args.cap,
        max_iter=args.max_iter,
        eps=args.eps,
        p_floor=args.p_floor,
    )
    write_alphas(args.out, data.sample_ids, degenerate, alpha)
    refined = int(np.count_nonzero(~degenerate)) if refine else 0
    stopped = refined - int(np.count_nonzero(converged))
    if stopped:
        print(f"warning: {stopped} of {refined} refined rows stopped at --max-iter "
              f"{args.max_iter} before converging", file=sys.stderr)
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
        "bins": [{**b._asdict(), "empty": b.empty} for b in report.bins],
        "histograms": {
            "bin_count": n_bins,
            "confidence_threshold": threshold,
            "confidence_correct": report.hist_correct.tolist(),
            "confidence_incorrect": report.hist_incorrect.tolist(),
            "high_conf_error_rate": float(report.high_conf_error_rate),
        },
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_flags(args, "--bins", "--conf-threshold")
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


def _calibrated_split(args: argparse.Namespace, mean, variance, labels):
    # (calibration rows, test rows, the threshold calibrated on the former),
    # from a stratified split: rows are in sample id order, and each label's
    # rows are permuted in turn, lowest label first.
    rng = np.random.default_rng(args.seed)
    cal = np.zeros(labels.size, dtype=bool)
    for label in np.flatnonzero(np.bincount(labels)).tolist():
        members = np.flatnonzero(labels == label)
        perm = rng.permutation(members.size)
        cal[members[perm[: int(math.floor(args.cal_split * members.size + 0.5))]]] = True
    if cal.all() or not cal.any():
        raise ValidationError(
            "the stratified split left the calibration or test side empty; "
            "adjust --cal-split or provide more samples"
        )
    test = np.flatnonzero(~cal)
    cal = np.flatnonzero(cal)
    return cal, test, _threshold(variance[cal], _wrong(mean[cal], labels[cal]), args.risk)


def cmd_calibrate_threshold(args: argparse.Namespace) -> int:
    _check_flags(args, "--cal-split", "--risk")
    cal, test, result = _calibrated_split(args, *_read_scored(args.alphas, args.labels))
    document = {
        "threshold": {**result._asdict(), "tau": _json_float(result.tau), "cal_n": cal.size, "test_n": test.size},
        "provenance": _provenance(
            {"alphas": args.alphas, "labels": args.labels},
            {"command": "calibrate-threshold", "risk": args.risk, "cal_split": args.cal_split},
            args.seed,
        ),
    }
    write_report(args.out, document)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    # A fixed --tau skips the calibration and its settings.
    calibration = ("--tau",) if args.tau is not None else ("--cal-split", "--risk")
    _check_flags(args, "--bins", "--conf-threshold", *calibration)
    mean, variance, labels = _read_scored(args.alphas, args.labels)
    settings: dict = {"command": "select", "bins": args.bins, "conf_threshold": args.conf_threshold}
    calinfo, cal_n, seed = None, None, None
    if args.tau is not None:
        tau = args.tau
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
        "retained": retained._asdict(),
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
    if args.loss in _WEIGHT_NAMES:
        _check_flags(args, "--lambda0")
    if schedule_given:
        _check_flags(args, "--epochs", "--epoch")
        if args.epoch > args.epochs:
            raise ValidationError(f"--epoch {args.epoch} exceeds --epochs {args.epochs}")
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
    try:
        mean = math.fsum(values) / values.size
    except OverflowError:
        raise ValidationError(f"{args.alphas}: the mean {args.loss} loss overflows a float") from None
    # The reader's id list takes the mean row's id; nothing reads it after.
    data.sample_ids.append(MEAN_ROW_ID)
    write_losses(args.out, data.sample_ids, np.append(values, mean))
    return 0


# -------------------------------------------------------------- arg wiring


def _simulate_args(sim: argparse.ArgumentParser) -> None:
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


def _fit_args(fit: argparse.ArgumentParser) -> None:
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


def _evaluate_args(ev: argparse.ArgumentParser) -> None:
    src = ev.add_mutually_exclusive_group(required=True)
    src.add_argument("--alphas")
    src.add_argument("--preds", help="single-model predictions file")
    ev.add_argument("--labels", required=True)
    ev.add_argument("--bins", type=int, default=DEFAULT_BINS)
    ev.add_argument("--conf-threshold", type=float, default=DEFAULT_CONFIDENCE_THRESHOLD)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)


def _calibrate_threshold_args(cal: argparse.ArgumentParser) -> None:
    cal.add_argument("--alphas", required=True)
    cal.add_argument("--labels", required=True)
    cal.add_argument("--risk", type=float, default=DEFAULT_TARGET_RISK)
    cal.add_argument("--cal-split", type=float, default=0.5)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--out", required=True)
    cal.set_defaults(func=cmd_calibrate_threshold)


def _select_args(sel: argparse.ArgumentParser) -> None:
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


def _risk_coverage_args(rc: argparse.ArgumentParser) -> None:
    rc.add_argument("--alphas", required=True)
    rc.add_argument("--labels", required=True)
    rc.add_argument("--out", required=True)
    rc.set_defaults(func=cmd_risk_coverage)


def _losses_args(loss: argparse.ArgumentParser) -> None:
    loss.add_argument("--alphas", required=True)
    loss.add_argument("--labels", required=True)
    loss.add_argument("--loss", choices=list(LOSSES), required=True)
    loss.add_argument("--lambda0", type=float, default=0.0)
    loss.add_argument("--epoch", type=float, default=None)
    loss.add_argument("--epochs", type=float, default=None)
    loss.add_argument("--out", required=True)
    loss.set_defaults(func=cmd_losses)


# Each command's help line and the builder of its arguments, in help order.
_COMMANDS = {
    "simulate": ("generate synthetic ensemble predictions", _simulate_args),
    "fit": ("fit per-input Dirichlet parameters", _fit_args),
    "evaluate": ("calibration diagnostics report", _evaluate_args),
    "calibrate-threshold": ("calibrate a variance threshold", _calibrate_threshold_args),
    "select": ("threshold, decide, and report", _select_args),
    "risk-coverage": ("risk-coverage curve CSV", _risk_coverage_args),
    "losses": ("per-sample evidential losses", _losses_args),
}


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every command, or of ``command`` alone.

    A command parses its arguments, and reports their errors, the same way
    in either; the one-command parser is cheaper to build.
    """
    parser = _Parser(
        prog="direns",
        description=(
            "Dirichlet distributions from prediction ensembles: fitting, "
            "calibration diagnostics, and variance-based selective classification."
        ),
    )
    parser.add_argument("--version", action="version", version=f"direns {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A leading command name needs only its own parser; help, --version, no
    # command and an unknown one need them all.
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
