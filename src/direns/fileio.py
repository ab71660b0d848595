"""CSV and JSON carriers for the pipeline, with strict validation.

Three CSV formats move data between commands:

* predictions: ``sample_id, model_id, p_0..p_{K-1}`` with a mandatory
  header; each row is one model's probability vector for one input.
* labels: ``sample_id, label`` with one row per input.
* alphas: ``sample_id, degenerate, a_0..a_{K-1}`` holding fitted
  concentrations, rows sorted by sample id.

Floats are written with 17 significant digits so every file round-trips
bit-exactly.  Validation failures raise ``ValidationError`` with the
offending row number; rows whose probabilities miss exact closure within
the 1e-6 tolerance are renormalized with a warning instead of rejected.
All writes go through a temp file and an atomic rename.

Reports are JSON documents with a fixed key order, no timestamps, and a
provenance block (input digests, settings, seed, tool version) so a rerun
of the same command yields byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dirichlet import SIMPLEX_TOL

__all__ = [
    "ValidationError",
    "RenormalizationWarning",
    "PredictionsData",
    "LabelsData",
    "AlphaRow",
    "read_predictions",
    "write_predictions",
    "read_labels",
    "write_labels",
    "read_alphas",
    "write_alphas",
    "pair_labels",
    "write_report",
    "write_curve",
    "atomic_write_text",
    "sha256_of_file",
    "format_float",
    "RENORM_WARN_TOL",
]

# Deviations beyond this get renormalized with a warning; smaller misses
# are ordinary float rounding and are left untouched.
RENORM_WARN_TOL = 1e-9


class ValidationError(Exception):
    """A file or argument violates a documented format invariant."""


class RenormalizationWarning(UserWarning):
    """Probability rows missed exact closure and were renormalized."""


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write a file via a same-directory temp file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def sha256_of_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class PredictionsData:
    """Parsed predictions file: per-sample (M, K) matrices in canonical order.

    ``sample_ids`` and ``model_ids`` are sorted; each matrix row m holds
    the vector of ``model_ids[m]``.
    """

    sample_ids: list
    model_ids: list
    k: int
    ensembles: dict


@dataclass
class LabelsData:
    """Parsed labels file: sample id to label, plus source rows for errors."""

    labels: dict
    rows: dict


@dataclass
class AlphaRow:
    sample_id: str
    degenerate: bool
    alpha: np.ndarray


def _read_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _expect_header(actual: Sequence[str], expected: Sequence[str], path: str) -> None:
    if list(actual) != list(expected):
        raise ValidationError(
            f"{path}: row 1: expected header {','.join(expected)}, got {','.join(actual)}"
        )


def _prediction_header(k: int) -> list[str]:
    return ["sample_id", "model_id"] + [f"p_{i}" for i in range(k)]


def read_predictions(path: str) -> PredictionsData:
    """Parse and validate a predictions file.

    Checks the header, per-row float parsing, probability bounds, row-sum
    closure (renormalizing small misses), (sample, model) uniqueness, and
    that every sample carries the same model set.
    """
    rows = _read_rows(path)
    if not rows:
        raise ValidationError(f"{path}: row 1: empty file, header expected")
    header = rows[0]
    if len(header) < 4 or header[:2] != ["sample_id", "model_id"]:
        raise ValidationError(
            f"{path}: row 1: header must be sample_id,model_id,p_0..p_(K-1)"
        )
    k = len(header) - 2
    _expect_header(header, _prediction_header(k), path)

    vectors: dict[tuple[str, str], np.ndarray] = {}
    first_row_of_sample: dict[str, int] = {}
    model_sets: dict[str, list] = {}
    renormalized = 0
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != k + 2:
            raise ValidationError(
                f"{path}: row {lineno}: expected {k + 2} fields, got {len(row)}"
            )
        sample_id, model_id = row[0], row[1]
        try:
            p = np.array([float(v) for v in row[2:]])
        except ValueError:
            raise ValidationError(f"{path}: row {lineno}: non-numeric probability") from None
        if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
            raise ValidationError(f"{path}: row {lineno}: probabilities must lie in [0, 1]")
        total = float(math.fsum(p.tolist()))
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValidationError(
                f"{path}: row {lineno}: probabilities sum to {total!r}, "
                f"outside 1 +- {SIMPLEX_TOL}"
            )
        if abs(total - 1.0) > RENORM_WARN_TOL:
            p = p / total
            renormalized += 1
        key = (sample_id, model_id)
        if key in vectors:
            raise ValidationError(
                f"{path}: row {lineno}: duplicate (sample_id, model_id) pair "
                f"({sample_id!r}, {model_id!r})"
            )
        vectors[key] = p
        if sample_id not in first_row_of_sample:
            first_row_of_sample[sample_id] = lineno
            model_sets[sample_id] = []
        model_sets[sample_id].append(model_id)

    if not vectors:
        raise ValidationError(f"{path}: row 2: no data rows")
    if renormalized:
        warnings.warn(
            f"{path}: renormalized {renormalized} row(s) whose probabilities "
            "missed exact closure",
            RenormalizationWarning,
            stacklevel=2,
        )

    sample_ids = sorted(model_sets)
    reference = sorted(model_sets[sample_ids[0]])
    for sample_id in sample_ids:
        models = sorted(model_sets[sample_id])
        if models != reference:
            raise ValidationError(
                f"{path}: row {first_row_of_sample[sample_id]}: sample "
                f"{sample_id!r} has a different model set than sample "
                f"{sample_ids[0]!r}"
            )
    ensembles = {
        sid: np.vstack([vectors[(sid, mid)] for mid in reference]) for sid in sample_ids
    }
    return PredictionsData(sample_ids=sample_ids, model_ids=reference, k=k, ensembles=ensembles)


def write_predictions(path: str, k: int, rows: Sequence[tuple]) -> None:
    """Write predictions rows (sample_id, model_id, vector) with full precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_prediction_header(k))
    for sample_id, model_id, p in rows:
        writer.writerow([sample_id, model_id] + [format_float(v) for v in p])
    atomic_write_text(path, buf.getvalue())


def read_labels(path: str) -> LabelsData:
    """Parse and validate a labels file (unique ids, integer labels >= 0)."""
    rows = _read_rows(path)
    if not rows:
        raise ValidationError(f"{path}: row 1: empty file, header expected")
    _expect_header(rows[0], ["sample_id", "label"], path)
    labels: dict[str, int] = {}
    where: dict[str, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValidationError(f"{path}: row {lineno}: expected 2 fields, got {len(row)}")
        sample_id, raw = row
        try:
            label = int(raw)
        except ValueError:
            raise ValidationError(f"{path}: row {lineno}: label must be an integer") from None
        if label < 0:
            raise ValidationError(f"{path}: row {lineno}: label must be nonnegative")
        if sample_id in labels:
            raise ValidationError(
                f"{path}: row {lineno}: duplicate sample_id {sample_id!r}"
            )
        labels[sample_id] = label
        where[sample_id] = lineno
    if not labels:
        raise ValidationError(f"{path}: row 2: no data rows")
    return LabelsData(labels=labels, rows=where)


def write_labels(path: str, pairs: Sequence[tuple]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample_id", "label"])
    for sample_id, label in sorted(pairs):
        writer.writerow([sample_id, int(label)])
    atomic_write_text(path, buf.getvalue())


def pair_labels(sample_ids: Sequence[str], data: LabelsData, k: int, path: str) -> dict:
    """Check label coverage and range against a sample set; return id -> label."""
    out = {}
    for sid in sample_ids:
        if sid not in data.labels:
            raise ValidationError(f"{path}: missing label for sample_id {sid!r}")
        label = data.labels[sid]
        if label >= k:
            raise ValidationError(
                f"{path}: row {data.rows[sid]}: label {label} outside [0, {k}) "
                f"for sample_id {sid!r}"
            )
        out[sid] = label
    return out


def _alpha_header(k: int) -> list[str]:
    return ["sample_id", "degenerate"] + [f"a_{i}" for i in range(k)]


def read_alphas(path: str) -> list[AlphaRow]:
    """Parse and validate an alphas file (positive values, sorted, unique ids)."""
    rows = _read_rows(path)
    if not rows:
        raise ValidationError(f"{path}: row 1: empty file, header expected")
    header = rows[0]
    if len(header) < 4 or header[:2] != ["sample_id", "degenerate"]:
        raise ValidationError(
            f"{path}: row 1: header must be sample_id,degenerate,a_0..a_(K-1)"
        )
    k = len(header) - 2
    _expect_header(header, _alpha_header(k), path)
    out: list[AlphaRow] = []
    previous: Optional[str] = None
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != k + 2:
            raise ValidationError(
                f"{path}: row {lineno}: expected {k + 2} fields, got {len(row)}"
            )
        sample_id = row[0]
        if row[1] not in ("0", "1"):
            raise ValidationError(f"{path}: row {lineno}: degenerate must be 0 or 1")
        try:
            alpha = np.array([float(v) for v in row[2:]])
        except ValueError:
            raise ValidationError(f"{path}: row {lineno}: non-numeric concentration") from None
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValidationError(
                f"{path}: row {lineno}: concentrations must be finite and > 0"
            )
        if previous is not None and sample_id <= previous:
            raise ValidationError(
                f"{path}: row {lineno}: sample_id {sample_id!r} out of sorted order"
            )
        previous = sample_id
        out.append(AlphaRow(sample_id=sample_id, degenerate=row[1] == "1", alpha=alpha))
    if not out:
        raise ValidationError(f"{path}: row 2: no data rows")
    return out


def write_alphas(path: str, rows: Sequence[AlphaRow]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    ordered = sorted(rows, key=lambda r: r.sample_id)
    writer.writerow(_alpha_header(int(ordered[0].alpha.size) if ordered else 2))
    for row in ordered:
        writer.writerow(
            [row.sample_id, "1" if row.degenerate else "0"]
            + [format_float(v) for v in row.alpha]
        )
    atomic_write_text(path, buf.getvalue())


def write_curve(path: str, points: Sequence) -> None:
    """Write a risk-coverage curve as CSV with columns coverage,risk,tau."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["coverage", "risk", "tau"])
    for point in points:
        writer.writerow(
            [format_float(point.coverage), format_float(point.risk), format_float(point.tau_at_point)]
        )
    atomic_write_text(path, buf.getvalue())


def write_report(path: str, document: dict) -> None:
    """Serialize a report document deterministically (fixed key order, no NaN)."""
    text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    atomic_write_text(path, text)
