"""CSV and JSON carriers for the pipeline, with strict validation.

Three CSV formats move data between commands:

* predictions: ``sample_id, model_id, p_0..p_{K-1}`` with a mandatory
  header; each row is one model's probability vector for one input.
* labels: ``sample_id, label`` with one row per input.
* alphas: ``sample_id, degenerate, a_0..a_{K-1}`` holding fitted
  concentrations, rows sorted by sample id.

Readers parse a whole file into arrays: ``read_predictions`` gives
``probs`` (n, M, K) in sorted sample and model order, ``read_alphas``
sorted ids, a (n,) degenerate mask, (n, K) concentrations and their (n,)
exact row sums, and ``read_labels`` the ids in sorted order as a str
array with their labels and source rows, which ``pair_labels`` looks up
by binary search; its per-id dict is built only on first access.  The
writers take the same arrays, and ``write_curve`` the (P, 3) array of
coverage, risk and tau.  A plain file (printable ASCII without quotes,
LF line ends, the header's field count on every line) has its lines
counted first, and the arrays it returns are made at that size; it is
then read a chunk of whole lines at a time, each chunk split at its byte
offsets and its ids and numbers (exactly by ``floatfmt``, else by
``np.loadtxt``) written into those arrays, so the reader holds its result
and one chunk's working set, not the file nor a second copy of a column.
Any other file, or one whose numbers numpy rejects in any chunk, is read
whole by the ``csv`` module and ``float()``.  All give the same arrays
and the same errors, wherever the chunks end.  Checks run over whole
arrays; a ``ValidationError`` names the earliest bad row in file order
(the header is row 1) and the first check it fails.  Rows that miss
exact closure within the 1e-6 tolerance are renormalized with a warning
instead of rejected.  Floats are written as ``'%.17g' % x`` writes them,
block by block through ``floatfmt``, so files round-trip bit-exactly;
writes are atomic renames.  A NUL anywhere in a file, and a label at or
past 2**63, are rejected at their row like any other fault.

Reports are JSON documents with a fixed key order, no timestamps, and a
provenance block (input digests, settings, seed, tool version) so a rerun
of the same command yields byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import warnings
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .dirichlet import SIMPLEX_TOL, _exact_sums, _simplex_rows
from .floatfmt import BLOCK, format_lines, read_numbers

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
    "write_losses",
    "atomic_write_text",
    "sha256_of_file",
    "RENORM_WARN_TOL",
]

# Deviations beyond this get renormalized with a warning; smaller misses
# are ordinary float rounding and are left untouched.
RENORM_WARN_TOL = 1e-9
# The byte that pads a text matrix for format_lines, which omits it.
_PAD = 0xFF
_INT64_MAX = 2**63 - 1


class ValidationError(Exception):
    """A file or argument violates a documented format invariant."""


class RenormalizationWarning(UserWarning):
    """Probability rows missed exact closure and were renormalized."""


def atomic_write_text(path: str, text) -> None:
    """Write a string as UTF-8, or an iterable of byte chunks, via a same-directory temp file and an atomic rename.

    The file gets the mode ``open()`` gives a new file, 0666 less the umask.
    An operating-system error names ``path``, not the temp file.
    """
    # 64 random bits name the temp file, made as open() makes a file (mkstemp's would stay 0600).
    tmp_path = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    try:
        with os.fdopen(os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as handle:
            handle.writelines([text.encode("utf-8")] if isinstance(text, str) else text)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def sha256_of_file(path: str) -> str:
    # Read into one reusable 64 KiB buffer, so no bytes object per read.
    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


class PredictionsData:
    """Parsed predictions file in canonical order.

    ``probs[i, m]`` is the vector of ``model_ids[m]`` for ``sample_ids[i]``;
    both id lists are sorted.  ``ensembles`` maps each sample id to its
    (M, K) matrix, a view into ``probs``.
    """

    def __init__(self, sample_ids: list, model_ids: list, k: int, probs: np.ndarray, ensembles: dict) -> None:
        self.sample_ids, self.model_ids, self.k = sample_ids, model_ids, k
        self.probs, self.ensembles = probs, ensembles


class LabelsData:
    """Parsed labels file, as arrays in sorted sample id order.

    Entry i is the i-th smallest sample id: ``ids[i]`` as a str array holds
    it, ``label[i]`` is its int64 label and ``row[i]`` its row in the file
    (the header is row 1).  ``labels`` maps each sample id to its label, in
    file order; it is built on first access.
    """

    def __init__(self, ids: np.ndarray, label: np.ndarray, row: np.ndarray) -> None:
        self.ids, self.label, self.row = ids, label, row

    @cached_property
    def labels(self) -> dict:
        order = np.empty_like(self.row)
        order[self.row - 2] = np.arange(self.row.size)
        return dict(zip(self.ids[order].tolist(), self.label[order].tolist()))


class AlphaRow(NamedTuple):
    sample_id: str
    degenerate: bool
    alpha: np.ndarray


class AlphasData:
    """Parsed alphas file: sorted ids, (n,) degenerate mask, (n, K) concentrations.

    ``alpha0`` holds each row's total concentration, its ``math.fsum``.
    ``len()`` is the row count; iterating yields one ``AlphaRow`` per input
    whose ``alpha`` is a view into the matrix.
    """

    def __init__(self, sample_ids: list, degenerate: np.ndarray, alpha: np.ndarray, alpha0: np.ndarray) -> None:
        self.sample_ids, self.degenerate, self.alpha, self.alpha0 = sample_ids, degenerate, alpha, alpha0

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __iter__(self):
        return map(AlphaRow, self.sample_ids, self.degenerate.tolist(), self.alpha)


def _read_rows(path: str) -> list[list[str]]:
    rows: list[list[str]] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            for row in csv.reader(handle):
                # No field may hold a NUL, which a numpy str array drops from its end.
                if any("\0" in field for field in row):
                    raise csv.Error("line contains NUL")
                rows.append(row)
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


def _width(path: str, header: Optional[list], rows: int, lead: list[str], prefix: Optional[str]) -> int:
    # Check a header of the two ``lead`` columns, followed, given a
    # ``prefix``, by K >= 2 columns prefix_0 .. prefix_(K-1), over ``rows``
    # data rows; return its field count.  ``header`` is None for an empty file.
    if header is None:
        raise ValidationError(f"{path}: row 1: empty file, header expected")
    if prefix is None:
        _expect_header(header, lead, path)
    elif len(header) < 4 or header[:2] != lead:
        raise ValidationError(
            f"{path}: row 1: header must be {','.join(lead)},{prefix}_0..{prefix}_(K-1)"
        )
    else:
        _expect_header(header, lead + [f"{prefix}_{i}" for i in range(len(header) - 2)], path)
    if rows == 0:
        raise ValidationError(f"{path}: row 2: no data rows")
    return len(header)


def _columns(rows: list, width: int):
    # (fields, numeric, first, second, values): each row's field count,
    # which rows have ``width`` fields that all parse, the two text columns
    # as object arrays of str, and the (n, width - 2) float block, NaN on
    # rows that do not parse.
    n = len(rows)
    fields = np.fromiter(map(len, rows), np.intp, n)
    shaped = fields == width
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
    return fields, numeric, table[:, 0], table[:, 1], values


# The bytes of a plain file: printable ASCII except the quote, and LF.  On
# such bytes csv.reader splits exactly at commas and newlines; read_numbers
# gives float()'s value from int64 digits or declines, and np.loadtxt then
# gives it or rejects the number (underscores).  Other whitespace and control
# bytes stay out: numpy strips 0x1c-0x1f around a number, and float() does not.
_PLAIN_BYTES = bytes(b for b in range(0x20, 0x7F) if b != ord('"')) + b"\n"
# A plain file is read this many bytes at a time, so the reader holds a
# chunk's masks and offsets, never the whole file's.
_CHUNK = 1 << 18


def _gather(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, fill: int) -> np.ndarray:
    # The (n, width) uint8 matrix whose row i is buf[starts[i]:starts[i] +
    # lengths[i]] padded with ``fill``; width is the longest, and at least 1.
    # A chunk's offsets fit in 32 bits, which halves the (n, width) index.
    cols = np.arange(max(int(lengths.max(initial=0)), 1), dtype=np.int32 if buf.size < 2**31 else np.intp)
    inside = cols < lengths[:, None]
    out = np.full(inside.shape, fill, np.uint8)
    out[inside] = buf[(starts.astype(cols.dtype)[:, None] + cols)[inside]]
    return out


def _line_count(handle) -> int:
    # The lines of the file, a last one without an LF included; the handle
    # is left at the start.
    lines, last = 0, b"\n"
    for block in iter(lambda: handle.read(_CHUNK), b""):
        lines += np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
        last = block[-1:]
    handle.seek(0)
    return lines + (last != b"\n")


def _line_chunks(handle):
    # The file's bytes as runs of whole lines, each ending in LF: what one
    # read of _CHUNK bytes holds up to its last LF, with the part line the
    # read before left over; a line longer than _CHUNK comes whole.  A last
    # line without an LF gets one.  No run is held while the next is read.
    pending = []
    for block in iter(lambda: handle.read(_CHUNK), b""):
        cut = block.rfind(b"\n") + 1
        if cut:
            raw = b"".join([*pending, memoryview(block)[:cut]])
            pending = [block[cut:]]
            del block
            yield raw
            del raw
        else:
            pending.append(block)
    tail = b"".join(pending)
    if tail:
        yield tail + b"\n"


def _plain_split(raw: bytes):
    # (W, starts, lengths, marks) when ``raw``, whole lines ending in LF, is
    # plain: only _PLAIN_BYTES, the first line's field count W >= 2 on every
    # line and no field past the csv module's size limit.  starts and lengths
    # are (lines, 2): where each line's first two fields begin and their
    # sizes; marks is read_numbers' [ends, points, exps].  None otherwise.
    width = raw.count(b",", 0, raw.find(b"\n")) + 1
    if width < 2 or raw.translate(None, _PLAIN_BYTES):
        return None
    # Every comma or LF, point, and 'e' or 'E', found in one pass a quarter of
    # the bytes at a time, so that each mask is a quarter of their size.
    buf = np.frombuffer(raw, np.uint8)
    dtype, step, found = np.int32 if buf.size < 2**31 else np.intp, len(buf) // 4 + 1, [[], [], []]
    mask = np.empty(step, dtype=bool)
    for i in range(0, len(buf), step):
        part = buf[i:i + step]
        for parts, (byte, *also) in zip(found, [b",\n", b".", b"eE"]):
            at = np.equal(part, byte, out=mask[:len(part)])
            for other in also:
                at |= part == other
            parts.append(np.flatnonzero(at).astype(dtype) + i)
    del mask, at
    ends, points, exps = (np.concatenate(found.pop(0)) for _ in range(3))
    if ends.size % width:
        return None
    # Each line's W separators are W - 1 commas and its newline, so no line
    # is blank (W >= 2) and the csv module splits it at the same bytes.
    ends = ends.reshape(-1, width)
    if not ((buf[ends[:, :-1]] == ord(",")).all() and (buf[ends[:, -1]] == ord("\n")).all()):
        return None
    # A field is shorter than its line, so only a long line can hold one
    # past the limit.
    limit = csv.field_size_limit()
    if (np.diff(ends[:, -1], prepend=-1).max() > limit
            and (np.diff(ends.ravel(), prepend=-1) - 1).max() >= limit):
        return None
    # A field runs from the byte after one separator to the next.
    starts = np.stack([np.concatenate([[-1], ends[:-1, -1]]), ends[:, 0]], axis=1) + 1
    return width, starts, ends[:, :2] - starts, [ends, points, exps]


def _plain_table(path: str, lead: list[str], prefix: Optional[str]):
    # _table's result for a plain file whose numbers numpy parses, else None.
    # The lines are counted first, so the values are parsed into one array
    # made at its size, and the two text columns gathered into (rows, width)
    # byte matrices that widen when a chunk holds a longer value; each chunk
    # of whole lines is checked and parsed before the next is read.
    header, done, longest = None, 0, np.zeros(2, np.intp)
    with open(path, "rb") as handle:
        # The padded text columns may hold no more bytes than the file and
        # the LF its last line may lack.
        limit = os.fstat(handle.fileno()).st_size + 1
        rows = _line_count(handle) - 1
        for raw in _line_chunks(handle):
            split = _plain_split(raw)
            if split is None:
                return None
            width, starts, lengths, marks = split
            first_chunk = header is None
            if first_chunk:
                header = raw[:raw.find(b"\n")].decode("ascii").split(",")
                starts, lengths = starts[1:], lengths[1:]
                marks[0] = marks[0][1:]
                text = [np.zeros((rows, 1), np.uint8), np.zeros((rows, 1), np.uint8)]
                values = np.empty((rows, width - 2))
            elif width != len(header):
                return None
            longest = np.maximum(longest, lengths.max(axis=0, initial=0))
            if rows * longest.sum() > limit:
                return None
            part = slice(done, done + len(lengths))
            done = part.stop
            if not len(lengths):
                continue
            buf = np.frombuffer(raw, np.uint8)
            for j in range(2):
                if text[j].shape[1] < longest[j]:
                    wider = np.zeros((rows, longest[j]), np.uint8)
                    wider[:, :text[j].shape[1]] = text[j]
                    text[j] = wider
                chars = _gather(buf, starts[:, j], lengths[:, j], 0)
                text[j][part, :chars.shape[1]] = chars
            del split, starts, lengths, chars
            # A chunk read_numbers declines goes to np.loadtxt; one it rejects, to csv.
            if width > 2 and not read_numbers(raw, int(first_chunk), marks, values[part]):
                try:
                    values[part] = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=int(first_chunk),
                                              usecols=range(2, width), comments=None, quotechar=None, ndmin=2)
                except ValueError:
                    return None
            # The next chunk is read with this one's arrays let go.
            del raw, buf, marks
    if header is None:
        return None
    width = _width(path, header, rows, lead, prefix)
    first, second = (t.astype(np.uint32).view(f"U{t.shape[1]}").ravel() for t in text)
    # Every row of a plain file has the header's fields, all of them parsed.
    return width, np.broadcast_to(width, rows), np.broadcast_to(True, rows), first, second, values


def _table(path: str, lead: list[str], prefix: Optional[str]):
    # (width, fields, numeric, first, second, values) of the data rows of a
    # file whose header _width accepts; see _columns.  A plain file parses
    # through numpy, its text columns as str arrays; any other file, or one
    # numpy rejects, through csv.reader.  Either kind of text column compares
    # with str as Python does.
    table = _plain_table(path, lead, prefix)
    if table is not None:
        return table
    rows = _read_rows(path)
    width = _width(path, rows[0] if rows else None, len(rows) - 1, lead, prefix)
    return (width, *_columns(rows[1:], width))


def _raise_first_fault(path: str, checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    # ``checks`` holds (per-row fault mask, message for row i) in the order
    # one row is checked.  The earliest faulty row wins, and within it the
    # first failed check; a later check may misfire on a row an earlier one
    # already rejects, since that earlier check wins.
    hits = [(int(np.argmax(mask)), order) for order, (mask, _) in enumerate(checks) if mask.any()]
    if hits:
        i, order = min(hits)
        raise ValidationError(f"{path}: row {i + 2}: {checks[order][1](i)}")


def _index(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Sorted distinct ids, each entry's position among them, and which
    # entries equal an earlier one (np.unique would import numpy.ma).
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    new = np.ones(ids.size, dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    where = np.empty(ids.size, dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    repeated = np.zeros(ids.size, dtype=bool)
    repeated[order[~new]] = True
    return ranked[new], where, repeated


def _blocks(sids: np.ndarray, mids: np.ndarray) -> int:
    # M when the rows come as direns writes them: blocks of M rows per
    # sample, sample ids rising from block to block, and the same rising
    # model ids in every block; else 0.
    m = int(np.argmax(sids != sids[0])) or len(sids)
    if len(sids) % m:
        return 0
    blocks, models = sids.reshape(-1, m), mids.reshape(-1, m)
    ordered = ((blocks == blocks[:, :1]).all() and (blocks[1:, 0] > blocks[:-1, 0]).all()
               and (models == models[0]).all() and (models[0, 1:] > models[0, :-1]).all())
    return m if ordered else 0


def read_predictions(path: str) -> PredictionsData:
    """Parse and validate a predictions file.

    Checks the header, per-row float parsing, probability bounds, row-sum
    closure (renormalizing small misses), (sample, model) uniqueness, and
    that every sample carries the same model set.
    """
    width, fields, numeric, sids, mids, values = _table(path, ["sample_id", "model_id"], "p")
    k = width - 2
    in_bounds, totals = _simplex_rows(values)
    # How far each row's sum is from 1, kept only as the two masks.
    miss = totals - 1.0
    np.abs(miss, out=miss)
    renorm, unclosed = miss > RENORM_WARN_TOL, miss > SIMPLEX_TOL
    del miss
    renorm &= ~unclosed
    values[renorm] /= totals[renorm, None]

    m = _blocks(sids, mids)
    if m:
        # No pair repeats, and every sample has the model set of the first.
        sample_ids, model_ids = sids[::m].tolist(), mids[:m].tolist()
        duplicate = np.zeros(len(fields), dtype=bool)
    else:
        sample_ids, sidx, _ = _index(sids)
        model_all, midx, _ = _index(mids)
        sample_ids = sample_ids.tolist()
        duplicate = _index(sidx * len(model_all) + midx)[2]
    _raise_first_fault(path, [
        (fields != width, lambda i: f"expected {width} fields, got {fields[i]}"),
        (~numeric, lambda i: "non-numeric probability"),
        (~in_bounds, lambda i: "probabilities must lie in [0, 1]"),
        (unclosed, lambda i: f"probabilities sum to {float(totals[i])!r}, outside 1 +- {SIMPLEX_TOL}"),
        (duplicate, lambda i: f"duplicate (sample_id, model_id) pair ({str(sids[i])!r}, {str(mids[i])!r})"),
    ])
    if renorm.any():
        warnings.warn(
            f"{path}: renormalized {int(renorm.sum())} row(s) whose probabilities "
            "missed exact closure",
            RenormalizationWarning,
            stacklevel=2,
        )
    if m:
        probs = values.reshape(len(sample_ids), m, k)
        return PredictionsData(sample_ids, model_ids, k, probs, dict(zip(sample_ids, probs)))

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
    model_ids = model_all[reference].tolist()
    return PredictionsData(sample_ids, model_ids, k, probs, dict(zip(sample_ids, probs)))


class _Lines(list):
    # A file for csv.writer that keeps each row as one string.
    write = list.append


def _csv_fields(values: Sequence[str]) -> list:
    # Each value as csv.writer writes it as one field of a row of several,
    # in UTF-8.
    lines = _Lines()
    csv.writer(lines, lineterminator="\n").writerows([v, ""] for v in values)
    return [line[:-2].encode("utf-8") for line in lines]


def _unquoted(joined: str) -> bool:
    # Whether values whose concatenation is ``joined`` hold none of the
    # characters csv.writer may quote for, nor a NUL, which a numpy str
    # array drops from the end of a value.
    return not any(c in joined for c in ',"\r\n\0')


def _text_matrix(values: Sequence[str]) -> np.ndarray:
    # Each value as one CSV field in UTF-8, as the 0xFF-padded (n, width)
    # matrix format_lines takes: whole arrays at once when no value needs
    # quoting, else through csv.writer.
    joined = "".join(values)
    if _unquoted(joined):
        chars = np.array(values, dtype=str)
        points = chars.view(np.uint32).reshape(chars.size, chars.itemsize // 4)
        # The UTF-8 length of each value: one byte per character, and one
        # more from U+0080, U+0800 and U+10000 up.
        lengths = sum((points >= first).sum(axis=1) for first in (1, 0x80, 0x800, 0x10000))
        encoded = joined.encode("utf-8")
    else:
        fields = _csv_fields(values)
        lengths = np.fromiter(map(len, fields), np.intp, len(fields))
        encoded = b"".join(fields)
    # The values lie end to end, so the padded matrix takes them in order.
    inside = np.arange(max(int(lengths.max(initial=0)), 1)) < lengths[:, None]
    out = np.full(inside.shape, _PAD, np.uint8)
    out[inside] = np.frombuffer(encoded, np.uint8)
    return out


def _fields(*columns: np.ndarray) -> np.ndarray:
    # Text matrices of consecutive fields, joined by commas.
    comma = np.full((len(columns[0]), 1), ord(","), np.uint8)
    return np.concatenate([part for column in columns for part in (comma, column)][1:], axis=1)


def _write_table(path: str, header: list, text, values: np.ndarray) -> None:
    # One line per row of the (n, V) ``values``: its leading fields, which
    # ``text(rows)`` gives for the slice ``rows`` as format_lines takes them
    # (``text`` is None when there are none; a text matrix's __getitem__
    # serves), then its numbers as '%.17g' writes them.
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    step = max(1, BLOCK // max(values.shape[1], 1))
    blocks = (format_lines(None if text is None else text(slice(i, min(i + step, n))), values[i:i + step])
              for i in range(0, n, step))
    atomic_write_text(path, itertools.chain([(",".join(header) + "\n").encode("ascii")], blocks))


def write_predictions(path: str, sample_ids: Sequence[str], model_ids: Sequence[str], probs) -> None:
    """Write (n, M, K) probabilities with full precision, one row per (sample, model), sample-major."""
    n, m, k = np.shape(probs)
    samples = _text_matrix(sample_ids)
    models = np.column_stack([np.full(m, ord(","), np.uint8), _text_matrix(model_ids)])

    def ids(rows: slice) -> np.ndarray:
        # Row r is sample r // m and model r % m, laid out without a per-row object.
        row = np.arange(rows.start, rows.stop)
        return np.concatenate([samples[row // m], models[row % m]], axis=1)

    _write_table(path, ["sample_id", "model_id"] + [f"p_{i}" for i in range(k)], ids,
                 np.reshape(probs, (n * m, k)))


def _integer(text: str) -> Optional[int]:
    try:
        return int(text)
    except ValueError:
        return None


def _digit_column(texts: np.ndarray) -> Optional[np.ndarray]:
    # The labels as int64 when every one is 1-18 ASCII digits, which int()
    # parses as numpy does and which cannot overflow; None otherwise, and
    # for a csv-read column, whose labels int() parses one by one.
    if texts.dtype.kind != "U" or texts.itemsize > 18 * 4:
        return None
    # A plain file holds no NUL, so 0 only pads a label.
    points = texts.view(np.uint32).reshape(texts.size, texts.itemsize // 4)
    digits = (points >= ord("0")) & (points <= ord("9"))
    if not ((digits | (points == 0)).all() and digits[:, 0].all()):
        return None
    return np.array(texts.tolist(), dtype=np.int64)


def read_labels(path: str) -> LabelsData:
    """Parse and validate a labels file (unique ids, integer labels >= 0)."""
    _, fields, _, ids, texts, _ = _table(path, ["sample_id", "label"], None)
    # Once the ids are known to be unique, ``where`` is each row's place in
    # id order.
    distinct, where, repeated = _index(ids)
    label, past = _digit_column(texts), np.zeros(len(ids), dtype=bool)
    integer = ~past
    if label is None:
        parsed = np.array(list(map(_integer, texts.tolist())), dtype=object)
        integer = ~np.equal(parsed, None)
        parsed[~integer] = 0
        past = parsed > _INT64_MAX
        parsed[past] = 0
        label = np.maximum(parsed, -1).astype(np.int64)
    _raise_first_fault(path, [
        (fields != 2, lambda i: f"expected 2 fields, got {fields[i]}"),
        (~integer, lambda i: "label must be an integer"),
        (label < 0, lambda i: "label must be nonnegative"),
        (past, lambda i: f"label {str(texts[i])!r} must be below 2**63"),
        (repeated, lambda i: f"duplicate sample_id {str(ids[i])!r}"),
    ])
    order = np.empty_like(where)
    order[where] = np.arange(where.size)
    return LabelsData(distinct.astype(str, copy=False), label[order], order + 2)


def _write_labels(path: str, sample_ids: Sequence[str], labels) -> None:
    # A labels file with one row per id and label, in the order given.
    labels = np.asarray(labels, dtype=np.int64)
    width = max(len(str(labels.min(initial=0))), len(str(labels.max(initial=0))))
    digits = labels.astype(f"S{width}").view(np.uint8).reshape(labels.size, width)
    text = _fields(_text_matrix(sample_ids), np.where(digits == 0, np.uint8(_PAD), digits))
    _write_table(path, ["sample_id", "label"], text.__getitem__, np.empty((labels.size, 0)))


def write_labels(path: str, pairs: Sequence[tuple]) -> None:
    """Write (sample_id, label) pairs as a labels file, in the order ``sorted(pairs)`` gives."""
    ids, labels = zip(*sorted(pairs)) if pairs else ((), ())
    _write_labels(path, ids, labels)


def pair_labels(sample_ids: Sequence[str], data: LabelsData, k: int, path: str) -> np.ndarray:
    """Labels of ``sample_ids`` in order as an int array; each must exist and lie in [0, k)."""
    # No labels file holds a NUL, and a str array drops an id's trailing
    # NULs, so an id that holds one is missing.
    ids = np.asarray(sample_ids, dtype=str)
    at = np.minimum(np.searchsorted(data.ids, ids), data.ids.size - 1)
    missing = data.ids[at] != ids
    if "\0" in "".join(sample_ids):
        missing |= ["\0" in sid for sid in sample_ids]
    labels = data.label[at]
    bad = np.flatnonzero(missing | (labels >= k))
    if bad.size:
        i = bad[0]
        sid = str(sample_ids[i])
        if missing[i]:
            raise ValidationError(f"{path}: missing label for sample_id {sid!r}")
        raise ValidationError(
            f"{path}: row {data.row[at[i]]}: label {labels[i]} outside [0, {k}) for sample_id {sid!r}"
        )
    return labels


def read_alphas(path: str) -> AlphasData:
    """Parse and validate an alphas file (positive values with a finite sum, sorted unique ids)."""
    width, fields, numeric, ids, flags, alpha = _table(path, ["sample_id", "degenerate"], "a")
    n = len(ids)
    positive = np.isfinite(alpha).all(axis=1) & (alpha > 0.0).all(axis=1)
    # The sum of a row that is not positive is never read: that check
    # comes first.
    totals = _exact_sums(alpha)
    unsorted = np.zeros(n, dtype=bool)
    unsorted[1:] = ids[1:] <= ids[:-1]
    _raise_first_fault(path, [
        (fields != width, lambda i: f"expected {width} fields, got {fields[i]}"),
        ((flags != "0") & (flags != "1"), lambda i: "degenerate must be 0 or 1"),
        (~numeric, lambda i: "non-numeric concentration"),
        (~positive, lambda i: "concentrations must be finite and > 0"),
        (np.isnan(totals), lambda i: "concentrations sum past the largest float"),
        (unsorted, lambda i: f"sample_id {str(ids[i])!r} out of sorted order"),
    ])
    return AlphasData(ids.tolist(), flags == "1", alpha, totals)


def write_alphas(path: str, sample_ids: Sequence[str], degenerate, alpha: np.ndarray) -> None:
    """Write (n, K) concentrations with their ids and degenerate flags, rows sorted by id."""
    order = np.argsort(np.array(sample_ids, dtype=object), kind="stable")
    flags = np.where(np.asarray(degenerate, dtype=bool)[order], ord("1"), ord("0")).astype(np.uint8)
    text = _fields(_text_matrix(sample_ids)[order], flags[:, None])
    alpha = np.asarray(alpha, dtype=np.float64)[order]
    _write_table(path, ["sample_id", "degenerate"] + [f"a_{i}" for i in range(alpha.shape[1])],
                 text.__getitem__, alpha)


def write_curve(path: str, curve) -> None:
    """Write a (P, 3) risk-coverage curve as CSV with columns coverage,risk,tau."""
    _write_table(path, ["coverage", "risk", "tau"], None, curve)


def write_losses(path: str, sample_ids: Sequence[str], losses: Sequence[float]) -> None:
    """Write a losses CSV with columns sample_id,loss, one row per id."""
    _write_table(path, ["sample_id", "loss"], _text_matrix(sample_ids).__getitem__, np.reshape(losses, (-1, 1)))


def write_report(path: str, document: dict) -> None:
    """Serialize a report document deterministically (fixed key order, no NaN)."""
    text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    atomic_write_text(path, text)
