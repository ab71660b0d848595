"""The readers take a plain file a chunk of whole lines at a time.

Where the chunks end must change nothing: at chunk sizes from one byte up,
every reader returns the same fields, the same warnings and the same error
(message and row number) as when the whole file is one chunk.  The inputs
are the differential tests' strategies and simulated files with faults at
chosen rows.  The reader's memory follows the arrays it returns, not the
size of the file.
"""

from __future__ import annotations

import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_fuzz import READERS, _canonical, contents, plain_tables

from direns import fileio
from direns.fileio import ValidationError, read_predictions, write_alphas, write_labels, write_predictions
from direns.simulate import SimulationConfig, generate

CHUNKS = [1, 7, 64, 4096]


def outcome(kind: str, path: str, chunk: int):
    # (fields or error text, warnings, whether the csv module read the file)
    # of one read at this chunk size.
    calls = []
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        patch.setattr(fileio, "_CHUNK", chunk)
        read_rows = fileio._read_rows
        patch.setattr(fileio, "_read_rows", lambda p: calls.append(p) or read_rows(p))
        try:
            result = _canonical(vars(READERS[kind](path)))
        except ValidationError as exc:
            result = f"error: {exc}"
    return result, [str(w.message) for w in caught], bool(calls)


def read_at_every_chunk_size(kind: str, path: str):
    """The one-chunk outcome, after checking each chunk size gives it too,
    and the csv module the same fields, warnings or error."""
    whole = outcome(kind, path, os.path.getsize(path) + 1)
    for chunk in CHUNKS:
        assert outcome(kind, path, chunk) == whole, chunk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_plain_split", lambda raw: None)
        assert outcome(kind, path, 1)[:2] == whole[:2]
    return whole


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_files_read_alike_at_every_chunk_size(tmp_path, kind, data):
    path = tmp_path / f"chunks-{kind}.csv"
    path.write_bytes(data.draw(st.one_of(plain_tables(kind), contents(kind))))
    read_at_every_chunk_size(kind, str(path))


def simulated_lines(tmp_path, kind: str) -> list:
    # A file as direns writes it, several 4096-byte chunks long, as lines
    # without their LF.
    data = generate(SimulationConfig(n=300, m=3, k=3, seed=8, scheme="two_population"))
    path = str(tmp_path / f"{kind}.csv")
    if kind == "preds":
        write_predictions(path, data.sample_ids, data.model_ids, data.probs)
    elif kind == "alphas":
        write_alphas(path, data.sample_ids, np.arange(300) % 7 == 0, data.alpha)
    else:
        write_labels(path, list(data.labels.items()))
    with open(path) as handle:
        return handle.read().splitlines()


def damage(lines: list, fault: str) -> list:
    lines = list(lines)
    middle = len(lines) // 2
    if fault == "long line":
        # Leading zeros keep the number's value and push the line past the
        # largest chunk; int() takes a label of at most 4300 digits.
        fields = lines[middle].split(",")
        fields[-1] = "0" * (CHUNKS[-1] + 100) + fields[-1]
        lines[middle] = ",".join(fields)
    elif fault == "quote in last chunk":
        # A quoted id the csv module reads as the same id.
        sid, rest = lines[-1].split(",", 1)
        lines[-1] = f'"{sid}",{rest}'
    elif fault == "extra field in a middle chunk":
        lines[middle] += ",0"
    elif fault == "non-numeric last row":
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",x"
    elif fault == "renormalized rows":
        for i in (1, middle, len(lines) - 1):
            lines[i] = lines[i].rsplit(",", 3)[0] + ",0.5,0.25,0.25000002"
    elif fault == "no final newline":
        return lines + [None]
    return lines


# (reader, fault, error or None, whether the csv module reads the file):
# a quote or a wrong field count sends the whole file there, and so does a
# number numpy rejects.  A label is a text column, not a number numpy
# parses: a long one pads its column past the file's size.
FAULTS = [
    ("preds", "none", None, False), ("alphas", "none", None, False), ("labels", "none", None, False),
    ("preds", "long line", None, False), ("alphas", "long line", None, False),
    ("labels", "long line", None, True),
    ("preds", "quote in last chunk", None, True), ("alphas", "quote in last chunk", None, True),
    ("labels", "quote in last chunk", None, True),
    ("preds", "extra field in a middle chunk", "row 451: expected 5 fields, got 6", True),
    ("alphas", "extra field in a middle chunk", "row 151: expected 5 fields, got 6", True),
    ("labels", "extra field in a middle chunk", "row 151: expected 2 fields, got 3", True),
    ("preds", "non-numeric last row", "row 901: non-numeric probability", True),
    ("alphas", "non-numeric last row", "row 301: non-numeric concentration", True),
    ("labels", "non-numeric last row", "row 301: label must be an integer", False),
    ("preds", "renormalized rows", None, False),
    ("preds", "no final newline", None, False), ("labels", "no final newline", None, False),
]


@pytest.mark.parametrize("kind, fault, error, via_csv", FAULTS, ids=[f"{k} {f}" for k, f, *_ in FAULTS])
def test_chunk_ends_change_nothing(tmp_path, kind, fault, error, via_csv):
    lines = damage(simulated_lines(tmp_path, kind), fault)
    text = "\n".join(lines[:-1]) if lines[-1] is None else "\n".join(lines) + "\n"
    path = tmp_path / "damaged.csv"
    path.write_text(text)
    assert kind == "labels" or path.stat().st_size > 2 * CHUNKS[-1]
    path = str(path)
    result, warned, csv_read = read_at_every_chunk_size(kind, path)
    if error is None:
        assert not isinstance(result, str)
    else:
        assert result == f"error: {path}: {error}"
    assert csv_read == via_csv
    assert warned == ([f"{path}: renormalized 3 row(s) whose probabilities missed exact closure"]
                      if fault == "renormalized rows" else [])


def traced_peak(call):
    # The result of call() and the most memory tracemalloc saw it hold, after
    # one untraced call has built every cache.
    call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, k, bound", [(500, 7, 2.0), (2000, 7, 2.0), (200, 50, 1.25)],
                         ids=["500", "2000", "K=50"])
def test_read_predictions_memory_follows_the_arrays(tmp_path, n, k, bound):
    # At the ensemble-mle benchmark's shape (M=50, K=7) and four times its
    # inputs, the reader's traced peak stays within twice the probs it
    # returns: the probs and id columns, held once, and one chunk's working
    # set.  Holding the whole file with its separator masks and offsets
    # peaked at 8.3 times (11.6 MB against 1.4 MB of probs at n=500), and
    # joining per-chunk parts at the end at 3.4 times.  At K=50 the peak
    # stays within 1.25 times: the simplex check's two (rows, K) masks over
    # all rows at once peaked at 1.32 times (5.3 MB against 4 MB).
    data = generate(SimulationConfig(n=n, m=50, k=k, seed=1, scheme="two_population"))
    path = str(tmp_path / "p.csv")
    write_predictions(path, data.sample_ids, data.model_ids, data.probs)
    data, peak = traced_peak(lambda: read_predictions(path))
    assert os.path.getsize(path) > 2 * data.probs.nbytes
    assert peak <= bound * data.probs.nbytes


def test_read_alphas_memory_follows_the_arrays(tmp_path):
    # At the report-many benchmark's shape (n=5000, K=10) the reader's
    # traced peak stays within three times the alphas it returns.  Taking
    # the exact row sums on a masked and a transposed copy peaked at 5.4
    # times (2.1 MB against 0.4 MB).
    data = generate(SimulationConfig(n=5000, m=1, k=10, seed=1, scheme="two_population"))
    path = str(tmp_path / "a.csv")
    write_alphas(path, data.sample_ids, np.arange(5000) % 7 == 0, data.alpha)
    data, peak = traced_peak(lambda: fileio.read_alphas(path))
    assert peak <= 3 * data.alpha.nbytes
