"""Malformed input files: every reader behind the CLI exits 0 or 1, never a traceback.

Each example writes one input file and runs a command on it through
``main``.  The file is either arbitrary bytes or a near-valid CSV: a real
header over a grid of rows built from valid values, then damaged in one
place (a value swapped for an edge token, a row dropped, repeated,
truncated, extended or moved).  An uncaught exception fails the test; a
rejection must exit 1 with an ``error:`` line.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from direns.cli import main

IDS = ["s0", "s1", "s2", "", " s0", "é"]
EDGE = ["0", "-1", "2", "nan", "inf", "-inf", "", "x", "1e-320", "1e308", "0.5000001",
        "1_0", '"', "\x00", "9" * 40]
SIMPLEX = {2: [["0.5", "0.5"], ["0.25", "0.75"], ["1", "0"], ["0.49999999995", "0.5"]],
           3: [["0.5", "0.25", "0.25"], ["1", "0", "0"], ["0.75", "0", "0.25"]]}
POSITIVE = ["1", "2", "0.5", "3", "1e-320", "1e-300", "1e308", "1e200"]
LABELS = ["0", "1", "2", "-1", "x", "1_0", " 1", "", "9" * 40]


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
    damage = draw(st.sampled_from(["none", "value", "drop", "repeat", "truncate", "extend", "move"]))
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
