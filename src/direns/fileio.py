"""CSV and JSON carriers for the pipeline, with strict validation.

Three CSV formats move data between commands:

* predictions: ``sample_id, model_id, p_0..p_{K-1}`` with a mandatory
  header; each row is one model's probability vector for one input.
* labels: ``sample_id, label`` with one row per input.
* alphas: ``sample_id, degenerate, a_0..a_{K-1}`` holding fitted
  concentrations, rows sorted by sample id.

Readers parse a whole file into arrays: ``read_predictions`` gives
``probs`` (n, M, K) in sorted sample and model order, ``read_alphas``
sorted ids, a (n,) degenerate mask and (n, K) concentrations.  Checks run
over whole arrays; a ``ValidationError`` names the earliest bad row in
file order (the header is row 1) and the first check it fails.  Rows that
miss exact closure within the 1e-6 tolerance are renormalized with a
warning instead of rejected.  Floats are written with 17 significant
digits so files round-trip bit-exactly; writes are atomic renames.

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
import operator
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dirichlet import SIMPLEX_TOL

__all__ = [
    "ValidationError",
    "RenormalizationWarning",
    "PredictionsData",
    "LabelsData",
    "AlphasData",
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
    """Parsed predictions file in canonical order.

    ``probs[i, m]`` is the vector of ``model_ids[m]`` for ``sample_ids[i]``;
    both id lists are sorted.  ``ensembles`` maps each sample id to its
    (M, K) matrix, a view into ``probs``.
    """

    sample_ids: list
    model_ids: list
    k: int
    probs: np.ndarray
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


@dataclass
class AlphasData:
    """Parsed alphas file: sorted ids, (n,) degenerate mask, (n, K) concentrations.

    ``len()`` is the row count; iterating yields one ``AlphaRow`` per input
    whose ``alpha`` is a view into the matrix.
    """

    sample_ids: list
    degenerate: np.ndarray
    alpha: np.ndarray

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __iter__(self):
        return map(AlphaRow, self.sample_ids, self.degenerate.tolist(), self.alpha)


def _read_rows(path: str) -> list[list[str]]:
    rows: list[list[str]] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows.extend(csv.reader(handle))
    except csv.Error as exc:
        raise ValidationError(f"{path}: row {len(rows) + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        # The streaming decoder knows only its offset within a chunk.
        with open(path, "rb") as handle:
            raw = handle.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        row = raw.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}: row {row}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return rows


def _expect_header(actual: Sequence[str], expected: Sequence[str], path: str) -> None:
    if list(actual) != list(expected):
        raise ValidationError(
            f"{path}: row 1: expected header {','.join(expected)}, got {','.join(actual)}"
        )


def _body(path: str, rows: list, lead: list[str], prefix: str) -> tuple[list, int]:
    # Check a header of two named columns and K >= 2 columns prefix_0 ..
    # prefix_(K-1); return the data rows and K.
    if not rows:
        raise ValidationError(f"{path}: row 1: empty file, header expected")
    header = rows[0]
    if len(header) < 4 or header[:2] != lead:
        raise ValidationError(
            f"{path}: row 1: header must be {','.join(lead)},{prefix}_0..{prefix}_(K-1)"
        )
    k = len(header) - 2
    _expect_header(header, lead + [f"{prefix}_{i}" for i in range(k)], path)
    if len(rows) == 1:
        raise ValidationError(f"{path}: row 2: no data rows")
    return rows[1:], k


def _columns(rows: list, width: int):
    # (shaped, numeric, first, second, values): which rows have ``width``
    # fields and which of those parse, the two text columns, and the
    # (n, width - 2) float block, NaN on rows that do not parse.
    n = len(rows)
    shaped = np.fromiter(map(len, rows), np.intp, n) == width
    if not shaped.all():
        rows = [r if ok else [""] * width for r, ok in zip(rows, shaped.tolist())]
    table = np.array(rows, dtype=object)
    values = np.full((n, width - 2), np.nan)
    numeric = shaped.copy()
    try:
        values[:] = table[:, 2:].astype(np.float64)
    except ValueError:
        for i in np.flatnonzero(shaped).tolist():
            try:
                values[i] = [float(v) for v in rows[i][2:]]
            except ValueError:
                numeric[i] = False
    return shaped, numeric, table[:, 0].tolist(), table[:, 1].tolist(), values


def _raise_first_fault(path: str, checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    # ``checks`` holds (per-row fault mask, message for row i) in the order
    # one row is checked.  The earliest faulty row wins, and within it the
    # first failed check; a later check may misfire on a row an earlier one
    # already rejects, since that earlier check wins.
    hits = [(int(np.argmax(mask)), order) for order, (mask, _) in enumerate(checks) if mask.any()]
    if hits:
        i, order = min(hits)
        raise ValidationError(f"{path}: row {i + 2}: {checks[order][1](i)}")


def _fsum(row: np.ndarray) -> float:
    # The exact sum, or inf where it overflows.
    try:
        return math.fsum(row.tolist())
    except OverflowError:
        return math.inf


def _index(ids: list) -> tuple[list, np.ndarray]:
    # Sorted distinct ids, and each entry's position among them.
    distinct = sorted(set(ids))
    where = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(where.__getitem__, ids), np.intp, len(ids))


def read_predictions(path: str) -> PredictionsData:
    """Parse and validate a predictions file.

    Checks the header, per-row float parsing, probability bounds, row-sum
    closure (renormalizing small misses), (sample, model) uniqueness, and
    that every sample carries the same model set.
    """
    body, k = _body(path, _read_rows(path), ["sample_id", "model_id"], "p")
    shaped, numeric, sids, mids, values = _columns(body, k + 2)
    in_bounds = np.isfinite(values).all(axis=1) & (values >= 0.0).all(axis=1) & (values <= 1.0).all(axis=1)
    # np.sum of K values in [0, 1] is within K * 2.2e-16 of the exact sum,
    # so only rows past half the warning tolerance can need the exact one.
    near = np.flatnonzero(in_bounds)
    near = near[np.abs(values[near].sum(axis=1) - 1.0) > RENORM_WARN_TOL / 2]
    totals = np.ones(len(body))
    totals[near] = list(map(_fsum, values[near]))
    miss = np.abs(totals - 1.0)
    renorm = (miss > RENORM_WARN_TOL) & (miss <= SIMPLEX_TOL)
    values[renorm] /= totals[renorm, None]

    sample_ids, sidx = _index(sids)
    model_all, midx = _index(mids)
    key = sidx * len(model_all) + midx
    order = np.argsort(key, kind="stable")
    duplicate = np.zeros(len(body), dtype=bool)
    duplicate[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    _raise_first_fault(path, [
        (~shaped, lambda i: f"expected {k + 2} fields, got {len(body[i])}"),
        (~numeric, lambda i: "non-numeric probability"),
        (~in_bounds, lambda i: "probabilities must lie in [0, 1]"),
        (miss > SIMPLEX_TOL, lambda i: f"probabilities sum to {float(totals[i])!r}, outside 1 +- {SIMPLEX_TOL}"),
        (duplicate, lambda i: f"duplicate (sample_id, model_id) pair ({sids[i]!r}, {mids[i]!r})"),
    ])
    if renorm.any():
        warnings.warn(
            f"{path}: renormalized {int(renorm.sum())} row(s) whose probabilities "
            "missed exact closure",
            RenormalizationWarning,
            stacklevel=2,
        )

    # With no duplicates, a sample has the model set of sample 0 exactly
    # when it has as many rows and none with a model sample 0 lacks.
    reference = np.zeros(len(model_all), dtype=bool)
    reference[midx[sidx == 0]] = True
    counts = np.bincount(sidx)
    stray = np.bincount(sidx, weights=~reference[midx])
    bad = np.flatnonzero((counts != counts[0]) | (stray > 0))
    if bad.size:
        raise ValidationError(
            f"{path}: row {int(np.argmax(sidx == bad[0])) + 2}: sample "
            f"{sample_ids[bad[0]]!r} has a different model set than sample "
            f"{sample_ids[0]!r}"
        )
    probs = np.empty((len(sample_ids), int(counts[0]), k))
    probs[sidx, (np.cumsum(reference) - 1)[midx]] = values
    model_ids = [m for m, used in zip(model_all, reference.tolist()) if used]
    return PredictionsData(sample_ids, model_ids, k, probs, dict(zip(sample_ids, probs)))


def _write_csv(path: str, header: list, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_predictions(path: str, k: int, rows: Sequence[tuple]) -> None:
    """Write predictions rows (sample_id, model_id, vector) with full precision."""
    _write_csv(path, ["sample_id", "model_id"] + [f"p_{i}" for i in range(k)],
               ([sid, mid] + [format_float(v) for v in p] for sid, mid, p in rows))


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
    _write_csv(path, ["sample_id", "label"], ([sid, int(label)] for sid, label in sorted(pairs)))


def pair_labels(sample_ids: Sequence[str], data: LabelsData, k: int, path: str) -> np.ndarray:
    """Labels of ``sample_ids`` in order as an int array; each must exist and lie in [0, k)."""
    labels = list(map(data.labels.get, sample_ids))
    for sid, label in zip(sample_ids, labels):
        if label is None:
            raise ValidationError(f"{path}: missing label for sample_id {sid!r}")
        if label >= k:
            raise ValidationError(
                f"{path}: row {data.rows[sid]}: label {label} outside [0, {k}) "
                f"for sample_id {sid!r}"
            )
    return np.array(labels, dtype=np.int64)


def read_alphas(path: str) -> AlphasData:
    """Parse and validate an alphas file (positive values with a finite sum, sorted unique ids)."""
    body, k = _body(path, _read_rows(path), ["sample_id", "degenerate"], "a")
    shaped, numeric, ids, flags, alpha = _columns(body, k + 2)
    positive = np.isfinite(alpha).all(axis=1) & (alpha > 0.0).all(axis=1)
    totals = np.zeros(len(body))
    totals[positive] = list(map(_fsum, alpha[positive]))
    unsorted = np.zeros(len(body), dtype=bool)
    unsorted[1:] = np.fromiter(map(operator.le, ids[1:], ids[:-1]), bool, len(body) - 1)
    _raise_first_fault(path, [
        (~shaped, lambda i: f"expected {k + 2} fields, got {len(body[i])}"),
        (np.array([f not in ("0", "1") for f in flags]), lambda i: "degenerate must be 0 or 1"),
        (~numeric, lambda i: "non-numeric concentration"),
        (~positive, lambda i: "concentrations must be finite and > 0"),
        (np.isinf(totals), lambda i: "concentrations sum past the largest float"),
        (unsorted, lambda i: f"sample_id {ids[i]!r} out of sorted order"),
    ])
    return AlphasData(ids, np.array([f == "1" for f in flags]), alpha)


def write_alphas(path: str, sample_ids: Sequence[str], degenerate, alpha: np.ndarray) -> None:
    """Write (n, K) concentrations with their ids and degenerate flags, rows sorted by id."""
    alpha = np.asarray(alpha, dtype=np.float64)
    flags = np.asarray(degenerate, dtype=bool).tolist()
    _write_csv(path, ["sample_id", "degenerate"] + [f"a_{i}" for i in range(alpha.shape[1])], (
        [sample_ids[i], "1" if flags[i] else "0"] + [format_float(v) for v in alpha[i].tolist()]
        for i in sorted(range(len(sample_ids)), key=sample_ids.__getitem__)
    ))


def write_curve(path: str, points: Sequence) -> None:
    """Write a risk-coverage curve as CSV with columns coverage,risk,tau."""
    _write_csv(path, ["coverage", "risk", "tau"], (
        [format_float(p.coverage), format_float(p.risk), format_float(p.tau_at_point)] for p in points
    ))


def write_report(path: str, document: dict) -> None:
    """Serialize a report document deterministically (fixed key order, no NaN)."""
    text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    atomic_write_text(path, text)
