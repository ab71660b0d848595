"""Malformed input files: every reader behind the CLI exits 0 or 1, never a traceback.

Each example writes one input file and runs a command on it through
``main``.  The file is either arbitrary bytes or a near-valid CSV: a real
header over a grid of rows built from valid values, then damaged in one
place (a value swapped for an edge token, a row dropped, repeated,
truncated, extended, moved or a blank line put before it).  An uncaught
exception fails the test; a rejection must exit 1 with an ``error:`` line.

The readers parse a plain file through numpy and any other file through
the csv module.  The differential tests read each file both ways and
require the same ids and bit-identical arrays, or the same error text.
"""

from __future__ import annotations

import contextlib
import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from direns import fileio
from direns.cli import main
from direns.fileio import ValidationError, read_alphas, read_labels, read_predictions

IDS = ["s0", "s1", "s2", "", " s0", "é"]
EDGE = ["0", "-1", "2", "nan", "inf", "-inf", "", "x", "1e-320", "1e308", "0.5000001",
        "1_0", '"', "\x00", "9" * 40, "\u0661", "\xa01"]
SIMPLEX = {2: [["0.5", "0.5"], ["0.25", "0.75"], ["1", "0"], ["0.49999999995", "0.5"]],
           3: [["0.5", "0.25", "0.25"], ["1", "0", "0"], ["0.75", "0", "0.25"]]}
POSITIVE = ["1", "2", "0.5", "3", "1e-320", "1e-300", "1e308", "1e200"]
LABELS = ["0", "1", "2", "-1", "x", "1_0", " 1", "", "9" * 40, "\u0661", "\xa01"]


@st.composite
def near_valid(draw, kind):
    k = draw(st.sampled_from([2, 3]))
    ids = sorted(draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True)))

    def values():
        if kind == "preds":
            return list(draw(st.sampled_from(SIMPLEX[k])))
        return draw(st.lists(st.sampled_from(POSITIVE), min_size=k, max_size=k))

    if kind == "labels":
        header = ["sample_id", "label"]
        rows = [[sid, draw(st.sampled_from(LABELS))] for sid in ids]
    elif kind == "alphas":
        header = ["sample_id", "degenerate"] + [f"a_{i}" for i in range(k)]
        rows = [[sid, draw(st.sampled_from(["0", "1"])), *values()] for sid in ids]
    else:
        header = ["sample_id", "model_id"] + [f"p_{i}" for i in range(k)]
        models = draw(st.lists(st.sampled_from(["m0", "m1", "m2"]), min_size=1, max_size=3, unique=True))
        rows = [[sid, mid, *values()] for sid in ids for mid in models]
    i = draw(st.integers(0, len(rows) - 1))
    damage = draw(st.sampled_from(["none", "value", "drop", "repeat", "truncate", "extend", "move", "blank"]))
    if damage == "value":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(EDGE))
    elif damage == "drop":
        del rows[i]
    elif damage == "repeat":
        rows.insert(i, list(rows[i]))
    elif damage == "truncate":
        rows[i] = rows[i][:-1]
    elif damage == "extend":
        rows[i].append("0")
    elif damage == "move":
        rows.append(rows.pop(i))
    elif damage == "blank":
        rows.insert(i, [])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(",".join(r) for r in [header] + rows).encode("utf-8") + b"\n"


def contents(kind):
    return st.one_of(st.binary(max_size=120), near_valid(kind))


GOOD = {
    "preds": b"sample_id,model_id,p_0,p_1\ns0,m0,0.5,0.5\ns0,m1,0.25,0.75\n"
             b"s1,m0,0.75,0.25\ns1,m1,0.5,0.5\n",
    "alphas": b"sample_id,degenerate,a_0,a_1\ns0,0,2,1\ns1,0,1,3\n",
    "labels": "sample_id,label\n".encode() + "".join(f"{sid},{i % 2}\n" for i, sid in enumerate(IDS)).encode(),
}

COMMANDS = [
    ("fit", "preds", ["fit", "--preds", "{preds}", "--mode", "mom-mle", "--out", "{out}"]),
    ("evaluate", "alphas", ["evaluate", "--alphas", "{alphas}", "--labels", "{labels}", "--out", "{out}"]),
    ("evaluate", "labels", ["evaluate", "--alphas", "{alphas}", "--labels", "{labels}", "--out", "{out}"]),
    ("losses", "alphas", ["losses", "--alphas", "{alphas}", "--labels", "{labels}",
                          "--loss", "mse-kl", "--lambda0", "0.5", "--out", "{out}"]),
    ("losses", "labels", ["losses", "--alphas", "{alphas}", "--labels", "{labels}",
                          "--loss", "digamma", "--out", "{out}"]),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize(
    "argv, fuzzed", [(argv, fuzzed) for _, fuzzed, argv in COMMANDS],
    ids=[f"{name} {fuzzed}" for name, fuzzed, _ in COMMANDS],
)
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_input_exits_cleanly(workdir, argv, fuzzed, data):
    paths = {}
    for kind, good in GOOD.items():
        path = workdir / f"{kind}.csv"
        path.write_bytes(data.draw(contents(kind)) if kind == fuzzed else good)
        paths[kind] = str(path)
    paths["out"] = str(workdir / "out")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main([a.format(**paths) for a in argv])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


# ------------------------------------------------------ numpy against csv

READERS = {"preds": read_predictions, "alphas": read_alphas, "labels": read_labels}


def _canonical(value):
    # Arrays by dtype, shape and bytes, so NaN payloads and -0.0 count.
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return [(key, _canonical(v)) for key, v in value.items()]
    return value


def _read(kind, path):
    # (outcome, warnings, path taken): the canonical fields of the parsed
    # file or the error text, then "csv" when the csv module read the file.
    calls = []
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_rows = fileio._read_rows
        patch.setattr(fileio, "_read_rows", lambda p: calls.append(p) or read_rows(p))
        try:
            outcome = _canonical(vars(READERS[kind](path)))
        except ValidationError as exc:
            outcome = f"error: {exc}"
    return outcome, [str(w.message) for w in caught], "csv" if calls else "numpy"


def read_both_ways(kind, path):
    """The path the reader took, after checking the csv path agrees with it."""
    outcome, warned, taken = _read(kind, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_PLAIN_BYTES", b"")
        assert _read(kind, path) == (outcome, warned, "csv")
    return taken


NUMBERS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(0, 1).map(lambda x: f"{x:.17g}"),
    st.floats(0, 1).map(lambda x: f"{x:.3e}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(EDGE + ["+inf", "-Infinity", "NaN", "-nan", "1e", ".5", "5.", "1e5000",
                            "1e-400", "0x1p-2", "1d5", "+-1", "\t0.5", "\x1c0.5", "\x0b1"]),
    st.tuples(st.sampled_from(["", " ", "  "]), st.floats(0, 1).map(repr),
              st.sampled_from(["", " "])).map("".join),
)


@st.composite
def plain_tables(draw, kind):
    # A valid header over rows of ids and number-like tokens: most files are
    # plain, so the numpy parse runs on every token of NUMBERS.
    k = draw(st.sampled_from([2, 3]))
    ids = draw(st.lists(st.sampled_from(IDS + ["s 1", "x#", "'q'"]), min_size=1, max_size=4))
    if kind == "labels":
        header = ["sample_id", "label"]
        rows = [[sid, draw(st.one_of(st.sampled_from(LABELS), st.integers(-3, 30).map(str)))]
                for sid in ids]
    else:
        lead = ["sample_id", "model_id"] if kind == "preds" else ["sample_id", "degenerate"]
        header = lead + [f"{'p' if kind == 'preds' else 'a'}_{i}" for i in range(k)]
        second = ["m0", "m1"] if kind == "preds" else ["0", "1"]
        rows = [[sid, draw(st.sampled_from(second)), *draw(st.lists(NUMBERS, min_size=k, max_size=k))]
                for sid in ids]
    text = "\n".join(",".join(r) for r in [header] + rows)
    return (text + draw(st.sampled_from(["\n", ""]))).encode("utf-8")


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_numpy_and_csv_paths_agree(workdir, kind, data):
    path = workdir / f"differential-{kind}.csv"
    path.write_bytes(data.draw(st.one_of(plain_tables(kind), contents(kind))))
    read_both_ways(kind, str(path))


PREDS_HEADER = "sample_id,model_id,p_0,p_1\n"
ALPHAS_HEADER = "sample_id,degenerate,a_0,a_1\n"


@pytest.mark.parametrize("kind, text, taken", [
    ("preds", PREDS_HEADER + "s0,m0,0.5,0.5\n\ns0,m1,0.25,0.75\n", "csv"),
    ("preds", PREDS_HEADER + "\ns0,m0,0.5,0.5\n", "csv"),
    ("preds", PREDS_HEADER + "s0,m0,0.5,0.5,0\n", "csv"),
    ("preds", PREDS_HEADER + "s0,m0,0.5\n", "csv"),
    ("alphas", ALPHAS_HEADER + "s0,0,1_0,1\n", "csv"),
    ("alphas", ALPHAS_HEADER + "s0,0,\u0661,1\n", "csv"),
    ("alphas", ALPHAS_HEADER + "s0,0,\xa01,1\n", "csv"),
    ("alphas", ALPHAS_HEADER + "s0,0,\t1,1\n", "csv"),
    ("alphas", ALPHAS_HEADER + "s0,0,\x1c1,1\n", "csv"),
    ("alphas", ALPHAS_HEADER + "s0,0,inf,1\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,1e308,1e308\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0, 2 ,1e-320\n", "numpy"),
    ("preds", PREDS_HEADER + "s0,m0,nan,0.5\n", "numpy"),
    ("preds", PREDS_HEADER + "s0,m0,0.5,0.5\r\ns0,m1,0.25,0.75\r\n", "csv"),
    ("preds", PREDS_HEADER + "s0,m0,0.5,0.5\rs0,m1,0.25,0.75\n", "csv"),
    ("preds", PREDS_HEADER + "s0,m0,0.5,0.5\x00\n", "csv"),
    ("preds", PREDS_HEADER + '"s,0",m0,0.5,0.5\n', "csv"),
    ("preds", PREDS_HEADER + "s" * csv.field_size_limit() + ",m0,0.5,0.5\n", "csv"),
    ("preds", PREDS_HEADER + "s" * (csv.field_size_limit() - 1) + ",m0,0.5,0.5\n", "numpy"),
    ("preds", PREDS_HEADER + "s0,m0,0.5,0.5\ns0,m1,0.25,0.75", "numpy"),
    ("preds", PREDS_HEADER + "s0,m0,0.50000002,0.5\ns0,m0,0.25,0.75\n", "numpy"),
    ("preds", PREDS_HEADER, "numpy"),
    ("preds", "", "csv"),
    ("preds", "sample_id,model_id,p_0\ns0,m0,1\n", "numpy"),
    ("preds", "sample_id\ns0\n", "csv"),
    ("preds", PREDS_HEADER + "\u00e9,m0,0.5,0.5\n", "csv"),
    ("labels", "sample_id,label\ns0, 1\ns1,0\n", "numpy"),
    ("labels", "sample_id,label\ns0,1\ns0,0\n", "numpy"),
    ("labels", "sample_id,label\ns0,1_0\ns1,-1\n", "numpy"),
    ("labels", "sample_id,label\ns0,\u0661\n", "csv"),
    ("labels", "sample_id,label\ns0,1,2\n", "csv"),
    # Numbers the exact parse declines, so that np.loadtxt reads their chunk.
    ("alphas", ALPHAS_HEADER + "s0,0,0.1234567890123456789,1\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,1.5E-05,1\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,1,1.5\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,.5,1.5\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,5.,1.5\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,1e5,1.5\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,9007199254740993,1.5\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,1.0000000000000001e-300,1.5\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,2.5e+300,1.5\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,-0.0,1.5\n", "numpy"),
    ("preds", PREDS_HEADER + "s0,m0,-0.0,1.0\n", "numpy"),
    ("alphas", ALPHAS_HEADER + "s0,0,1.2.3,1.5\n", "csv"),
    ("labels", "sample_id,label\ns0,1\ns1\0,0\n", "csv"),
    ("alphas", ALPHAS_HEADER + "s0,0,1,1\n\0s1,0,1,1\n", "csv"),
    ("preds", PREDS_HEADER + "s0\0,m0,0.5,0.5\n", "csv"),
], ids=[
    "blank line", "blank line after header", "extra column", "missing column", "underscore",
    "arabic-indic digit", "nbsp", "tab", "file separator", "inf", "exact sum overflow",
    "padded and subnormal", "nan", "crlf", "lone cr", "nul", "quoted id", "field over csv limit",
    "field at csv limit", "no final newline", "renormalized duplicate", "header only", "empty file",
    "narrow header", "one column", "non-ascii id", "padded label", "duplicate label id",
    "label underscore then negative", "arabic-indic label", "extra label column",
    "19 digits", "capital E", "no point", "no digit before the point", "no digit after the point",
    "exponent without point", "exact tie", "below the exact range", "above the exact range",
    "negative zero", "negative zero probability", "two points", "nul in label id", "nul in alphas id",
    "nul in preds id",
])
def test_numpy_and_csv_paths_agree_on_edge_files(tmp_path, kind, text, taken):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_both_ways(kind, str(path)) == taken
