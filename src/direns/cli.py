"""Command-line pipeline: simulate, fit, evaluate, select, losses.

Subcommands compose into the full workflow: generate or ingest ensemble
prediction CSVs, fit per-input Dirichlet parameters, evaluate calibration
diagnostics, calibrate a variance threshold under a target risk, run
selective classification, and evaluate closed-form evidential losses.

Reports are deterministic JSON (no timestamps; provenance carries input
digests, settings, seed, and version), curves are plain CSV.  Exit codes:
0 success, 1 validation error (any out-of-range file content, flag or
setting), 2 I/O error, naming the path given; a setting error names its
flag, and a command checks the settings it reads before it opens a file.
Each flag is one ``_FLAGS`` row, its ``add_argument`` settings and its rule,
one of the library's setting rules, checked by the library's ``_require``;
``_COMMANDS`` gives each command's help line, function and flags in order.
``fit`` fits the reader's (n, M, K) array in one pass; ``--threads`` is
accepted and changes nothing.  No command builds per-input objects: ids,
labels and values go from reader to writer as arrays, and sample ids as one
list of str.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .calibration import DEFAULT_BINS, DEFAULT_CONFIDENCE_THRESHOLD, _report
from .dirichlet import (_AT_LEAST_1, _AT_LEAST_2, _CLOSED_UNIT, _EPOCHS, _FIXED_ALPHA, _NONNEGATIVE, _OPEN_UNIT,
                        _PEAK, _POSITIVE, _RANGE, _require, _variances)
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


# Every flag: its add_argument settings and the library's rule its setting
# must meet, or None.
_FLAGS = {
    "--preds-out": (dict(required=True), None),
    "--labels-out": (dict(required=True), None),
    "--alphas-out": (dict(required=True, help="ground-truth concentrations"), None),
    "--n": (dict(type=int, required=True, help="number of inputs"), _AT_LEAST_1),
    "--m": (dict(type=int, required=True, help="ensemble members per input"), _AT_LEAST_1),
    "--k": (dict(type=int, required=True, help="class count"), _AT_LEAST_2),
    "--seed": (dict(type=int, default=0), None),
    "--scheme": (dict(choices=["fixed", "two-population", "collapse"], default="fixed"), None),
    "--alpha": (dict(help="fixed scheme: comma-separated concentrations"), _FIXED_ALPHA),
    "--alpha0": (dict(type=float, default=1e7, help="collapse scheme: total concentration"), _POSITIVE),
    "--frac-incorrect": (dict(type=float, default=0.3), _CLOSED_UNIT),
    "--correct-alpha0": (dict(default="50,500", help="lo,hi range"), _RANGE),
    "--incorrect-alpha0": (dict(default="3,30", help="lo,hi range"), _RANGE),
    "--peak": (dict(type=float, default=0.8), _PEAK),
    "--preds": (dict(required=True), None),
    "--out": (dict(required=True), None),
    "--mode": (dict(choices=["mom", "mom-mle"], default="mom"), None),
    "--cap": (dict(type=float, default=DEFAULT_ALPHA0_CAP), _POSITIVE),
    "--max-iter": (dict(type=int, default=DEFAULT_MAX_ITER), _AT_LEAST_1),
    "--eps": (dict(type=float, default=DEFAULT_EPS), _POSITIVE),
    "--p-floor": (dict(type=float, default=DEFAULT_P_FLOOR), _OPEN_UNIT),
    "--models-limit": (dict(type=int), _AT_LEAST_2),
    "--threads": (dict(type=int, help="accepted and ignored (>= 1)"), _AT_LEAST_1),
    "--alphas": (dict(required=True), None),
    "--labels": (dict(required=True), None),
    "--bins": (dict(type=int, default=DEFAULT_BINS), _AT_LEAST_1),
    "--conf-threshold": (dict(type=float, default=DEFAULT_CONFIDENCE_THRESHOLD), _CLOSED_UNIT),
    "--risk": (dict(type=float, default=DEFAULT_TARGET_RISK), _OPEN_UNIT),
    "--cal-split": (dict(type=float, default=0.5), _OPEN_UNIT),
    "--tau": (dict(type=float, help="skip calibration, use this threshold"),
              (lambda v, s: not math.isnan(v), "must be a number")),
    "--curve-out": (dict(), None),
    "--loss": (dict(choices=list(LOSSES), required=True), None),
    "--lambda0": (dict(type=float, default=0.0), _NONNEGATIVE),
    "--epoch": (dict(type=float), _NONNEGATIVE),
    "--epochs": (dict(type=float), _EPOCHS),
}


def _check_flags(args: argparse.Namespace, *flags: str) -> None:
    # A setting outside its rule is an error that names its flag; an optional
    # setting left unset meets every rule.
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            _require(flag, value, _FLAGS[flag][1], vars(args))


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
    if scheme == "fixed" and args.alpha is None:
        raise ValidationError("--alpha is required by --scheme fixed")
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
    write_labels(args.labels_out, data.sample_ids, data.label)
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


# Each command's help line, function and flags, in help order.
_COMMANDS = {
    "simulate": ("generate synthetic ensemble predictions", cmd_simulate,
                 "--preds-out --labels-out --alphas-out --n --m --k --seed --scheme --alpha --alpha0 "
                 "--frac-incorrect --correct-alpha0 --incorrect-alpha0 --peak"),
    "fit": ("fit per-input Dirichlet parameters", cmd_fit,
            "--preds --out --mode --cap --max-iter --eps --p-floor --models-limit --threads"),
    "evaluate": ("calibration diagnostics report", cmd_evaluate,
                 "--alphas --preds --labels --bins --conf-threshold --out"),
    "calibrate-threshold": ("calibrate a variance threshold", cmd_calibrate_threshold,
                            "--alphas --labels --risk --cal-split --seed --out"),
    "select": ("threshold, decide, and report", cmd_select,
               "--alphas --labels --risk --cal-split --seed --tau --bins --conf-threshold --out --curve-out"),
    "risk-coverage": ("risk-coverage curve CSV", cmd_risk_coverage, "--alphas --labels --out"),
    "losses": ("per-sample evidential losses", cmd_losses,
               "--alphas --labels --loss --lambda0 --epoch --epochs --out"),
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
    for name, (help_line, func, flags) in _COMMANDS.items():
        if command not in (None, name):
            continue
        command_parser = sub.add_parser(name, help=help_line)
        command_parser.set_defaults(func=func)
        # evaluate reads exactly one of --alphas and --preds.
        source = command_parser.add_mutually_exclusive_group(required=True) if name == "evaluate" else None
        for flag in flags.split():
            if source and flag in ("--alphas", "--preds"):
                source.add_argument(flag, help="single-model predictions file" if flag == "--preds" else None)
            else:
                command_parser.add_argument(flag, **_FLAGS[flag][0])
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
        # The setting rules raise ValueError, for flags too; at the command
        # line that is the same failure as a malformed file.
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
