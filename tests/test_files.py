"""CSV/JSON round trips, input validation, and synthetic data generation."""

from __future__ import annotations

import collections
import csv
import hashlib
import io
import json
import os
import stat
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_chunks import traced_peak

from direns import fileio, floatfmt
from direns.fileio import (
    AlphaRow,
    AlphasData,
    RenormalizationWarning,
    ValidationError,
    atomic_write_text,
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
from direns.simulate import SimulationConfig, generate


def write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


GOOD_PREDS = (
    "sample_id,model_id,p_0,p_1\n"
    "s0,m0,0.6,0.4\n"
    "s0,m1,0.8,0.2\n"
    "s1,m0,0.5,0.5\n"
    "s1,m1,0.3,0.7\n"
)


def formatted(values) -> list:
    # The writers' text for each number of ``values``, formatted as one block.
    block = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return bytes(floatfmt.format_lines(None, block)).decode("ascii").split("\n")[:-1]


def percent(values) -> list:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def edge_floats() -> list:
    # Every power of ten a double can approximate, with its neighbours one
    # ulp away: the notation switches at 1e-5/1e-4 and 1e16/1e17, the
    # exponent's third digit at 1e+-100, the fast path's ends at 1e+-280.
    values = []
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    values += [
        2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0), 5e-324,
        1.7976931348623157e308, np.nextafter(1.7976931348623157e308, 0.0),
        1e-280, 1e280, 0.0, np.inf, np.nan, 0.5, 1.5, 2.5, 123456789012345678.0,
        1000000000000000.25, 1000000000000000.75,  # exact 17-digit ties
        1e-79, 1e-175, 1e-243,  # just below 10**X: 17 digits round up to 10**X
        9.9999999999999999e22, 0.1, 1 / 3, 2 / 3, 99999999999999999.0, 9999999999999999.0,
    ]
    return values + [-v for v in values]


def reference_tables() -> floatfmt._Tables:
    # floatfmt's tables as they were first built: one exact fraction per
    # power of ten, an exponent text per exponent, np.isin for its slots.
    x0, slots, classes = floatfmt._X0, floatfmt._SLOTS, floatfmt._CLASSES
    template = floatfmt._TEMPLATE
    near, below = [], []
    for k in range(-x0, x0 + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        near.append(num / den)
        a, b = near[-1].as_integer_ratio()
        below.append((num * b - a * den) / (den * b))
    near, below = np.array(near), np.array(below)
    # The powers run on to 10**-300, which the reader takes.
    row = np.clip(2 * x0 + 16 - np.arange(2 * x0 + 17), 0, 2 * x0)
    hi = near[row]
    split = hi * 134217729.0
    high = split - (split - hi)

    x = np.arange(-x0, x0 + 1)
    tail = np.empty((x.size, 10, 8), dtype=np.uint8)
    tail[:] = np.frombuffer(template[-8:], np.uint8)
    tail[:, :, 0] += np.arange(10, dtype=np.uint8)
    tail[:, :, 4:] = np.array([b"%+04d" % v for v in x.tolist()], "S4").view(np.uint8).reshape(-1, 1, 4)

    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)
    words = np.full((10000, 8), ord("."), dtype=np.uint8)
    words[:, ::2] = digits.T + ord("0")
    nonzero = digits != 0
    sig = np.where(nonzero.any(axis=0), 4 - np.argmax(nonzero[::-1], axis=0), 0).astype(np.int8)
    sig = np.where(sig > 0, sig + np.arange(0, 16, 4, dtype=np.int8)[:, None], 0).astype(np.int8)

    slot = np.arange(slots)
    c = np.arange(classes)[:, None, None]
    nsig = np.arange(18)[:, None]
    point = np.where(c < 21, c - 4, 0)
    i = (slot - 8) // 2
    keep = ((slot == 0)
            | (slot >= 8) & (slot <= 40) & (slot % 2 == 0)
            & (i < np.where((c >= 4) & (c < 21), np.maximum(nsig, c - 3), nsig))
            | (slot % 2 == 1) & (i == point) & (nsig > point + 1) & (c >= 4)
            | (c < 4) & (slot >= 2) & (slot < 7 - c)
            | (c >= 21) & np.isin(slot, [43, 44, 46, 47]) | (c == 22) & (slot == 45))
    keep = np.concatenate([keep.reshape(-1, slots), (keep | (slot == 1)).reshape(-1, slots),
                           slot <= np.arange(25)[:, None]])
    return floatfmt._Tables(
        ceil=np.where(below > 0, np.nextafter(near, np.inf), near),
        power=np.stack([hi, high, hi - high, below[row]]),
        classes=18 * np.where((x >= -4) & (x <= 16), x + 4, np.where(np.abs(x) < 100, 21, 22)),
        tail=tail.view(np.uint64).ravel(),
        groups=words.view(np.uint64)[:, 0],
        sig=sig,
        drop=np.where(keep, np.uint8(0), np.uint8(floatfmt._DROP[0])).view(np.uint64).T.copy(),
    )


class TestFormatting:
    def test_tables_equal_the_fraction_by_fraction_construction(self):
        # Every table, bit for bit, in dtype and shape: the residuals' signs
        # and the signed zeros included.
        for name, got, want in zip(floatfmt._Tables._fields, floatfmt._format_tables(), reference_tables()):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    def test_float_round_trip(self, rng):
        for _ in range(1000):
            x = float(rng.uniform(-1e6, 1e6)) * 10 ** int(rng.integers(-12, 12))
            assert float(formatted([x])[0]) == x

    def test_kernel_matches_percent_on_edges(self):
        values = edge_floats()
        assert formatted(values) == percent(values)
        assert [formatted([v])[0] for v in values] == percent(values)

    def test_ties_and_carries(self):
        assert formatted([1000000000000000.25, 1000000000000000.75, -1e-79, 1e-175, 1e-243]) == [
            "1000000000000000.2", "1000000000000000.8", "-1e-79", "1e-175", "1e-243"]
        # Exact ties go to the fallback; the carries are the fast path's own.
        _, _, proven = floatfmt._decimal(np.array([1000000000000000.25, 1e-79, 1e-175, 1e-243, 1e-5, 1e17]))
        assert proven.tolist() == [False, True, True, True, True, True]
        _, _, proven = floatfmt._decimal(np.array([0.0, -0.0, np.inf, np.nan, 5e-324, 1e-281, 1e281]))
        assert not proven.any()

    def test_kernel_matches_percent_on_random_bit_patterns(self):
        values = np.random.default_rng(20261018).integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
        values = values.view(np.float64)
        assert formatted(values) == percent(values)
        # 1860 of the 2048 binary exponents lie in the fast path's range.
        assert 0.9 < floatfmt._decimal(values)[2].mean() < 0.91

    def test_kernel_matches_percent_on_probabilities(self, rng):
        # Concentrations this small draw zeros and values below 1e-280 too.
        values = rng.dirichlet(np.full(7, 0.05), size=20000).ravel()
        assert formatted(values) == percent(values)
        assert 0.95 < floatfmt._decimal(values)[2].mean() < 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_kernel_matches_percent(self, values):
        assert formatted(values) == percent(values)

    def test_atomic_write_replaces_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "first")
        atomic_write_text(str(target), "second")
        assert target.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask 022", "umask 077"])
    def test_atomic_write_gives_the_mode_open_gives(self, tmp_path, umask, mode):
        # A new output file is 0666 less the umask, as open(path, "w") makes it.
        old = os.umask(umask)
        try:
            atomic_write_text(str(tmp_path / "out.txt"), "x")
            open(tmp_path / "plain.txt", "w").close()
        finally:
            os.umask(old)
        assert [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("out.txt", "plain.txt")] == [mode, mode]

    def test_sha256_matches_known_digest(self, tmp_path):
        target = tmp_path / "x.bin"
        target.write_bytes(b"abc")
        expected = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        assert sha256_of_file(str(target)) == expected

    @pytest.mark.parametrize("size", [0, 1, 1 << 16, (1 << 20) + 1])
    def test_sha256_of_every_size(self, tmp_path, size):
        # Empty, one byte, exactly one read buffer, and a last partial read.
        data = np.random.default_rng(size).bytes(size)
        target = tmp_path / "x.bin"
        target.write_bytes(data)
        assert sha256_of_file(str(target)) == hashlib.sha256(data).hexdigest()

    def test_sha256_memory(self, tmp_path):
        # One 64 KiB buffer, whatever the file's size; reads of 1 MiB held
        # a megabyte beside the caller's arrays.
        target = tmp_path / "x.bin"
        target.write_bytes(bytes(1 << 20))
        digest, peak = traced_peak(lambda: sha256_of_file(str(target)))
        assert digest == hashlib.sha256(bytes(1 << 20)).hexdigest()
        assert peak < 128 * 1024, peak


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path / "p.csv", GOOD_PREDS)
        data = read_predictions(path)
        assert data.sample_ids == ["s0", "s1"]
        assert data.model_ids == ["m0", "m1"]
        assert data.k == 2
        np.testing.assert_allclose(data.ensembles["s0"], [[0.6, 0.4], [0.8, 0.2]])
        out = tmp_path / "q.csv"
        write_predictions(str(out), data.sample_ids, data.model_ids, data.probs)
        again = read_predictions(str(out))
        np.testing.assert_array_equal(again.ensembles["s1"], data.ensembles["s1"])

    def test_round_trip_quotes_ids_as_csv_writer(self, tmp_path):
        # Ids with a delimiter, a quote and a newline; the text must be what
        # csv.writer writes for the same rows, and read back bit-exactly.
        sample_ids = ["a,b", 'say "hi"', "line\nbreak", "", "plain"]
        model_ids = ["m,0", "m\n1", '"m2"']
        probs = np.random.default_rng(3).dirichlet([0.5, 1.0, 2.0], size=(5, 3))
        probs[0, 0] = [1.0, 0.0, 0.0]
        out = tmp_path / "p.csv"
        write_predictions(str(out), sample_ids, model_ids, probs)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["sample_id", "model_id", "p_0", "p_1", "p_2"])
        for sid, block in zip(sample_ids, probs):
            for mid, p in zip(model_ids, block):
                writer.writerow([sid, mid] + formatted(p))
        assert out.read_text(encoding="utf-8") == buf.getvalue()
        again = read_predictions(str(out))
        assert again.sample_ids == sorted(sample_ids)
        assert again.model_ids == sorted(model_ids)
        order = np.argsort(sample_ids)
        np.testing.assert_array_equal(again.probs, probs[order][:, np.argsort(model_ids)])

    def test_rejects_wrong_header(self, tmp_path):
        path = write(tmp_path / "p.csv", "sample,model,p_0,p_1\ns0,m0,0.5,0.5\n")
        with pytest.raises(ValidationError, match="header"):
            read_predictions(path)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = write(tmp_path / "p.csv", "sample_id,model_id,p_0,p_1\ns0,m0,0.5\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_predictions(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = write(tmp_path / "p.csv", "sample_id,model_id,p_0,p_1\ns0,m0,x,0.5\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_predictions(path)

    def test_rejects_out_of_range_probability(self, tmp_path):
        path = write(tmp_path / "p.csv", "sample_id,model_id,p_0,p_1\ns0,m0,1.2,-0.2\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_predictions(path)

    def test_rejects_row_sum_far_from_one(self, tmp_path):
        path = write(tmp_path / "p.csv", "sample_id,model_id,p_0,p_1\ns0,m0,0.6,0.6\n")
        with pytest.raises(ValidationError, match="sum"):
            read_predictions(path)

    def test_renormalizes_small_misses_with_one_warning(self, tmp_path):
        text = (
            "sample_id,model_id,p_0,p_1\n"
            "s0,m0,0.60000002,0.4\n"
            "s0,m1,0.8,0.20000003\n"
        )
        path = write(tmp_path / "p.csv", text)
        with pytest.warns(RenormalizationWarning, match="2"):
            data = read_predictions(path)
        np.testing.assert_allclose(data.ensembles["s0"].sum(axis=1), 1.0, atol=1e-15)

    def test_rejects_duplicate_pair(self, tmp_path):
        text = "sample_id,model_id,p_0,p_1\ns0,m0,0.5,0.5\ns0,m0,0.4,0.6\n"
        path = write(tmp_path / "p.csv", text)
        with pytest.raises(ValidationError, match="duplicate"):
            read_predictions(path)

    def test_rejects_inconsistent_model_sets(self, tmp_path):
        text = (
            "sample_id,model_id,p_0,p_1\n"
            "s0,m0,0.5,0.5\n"
            "s0,m1,0.4,0.6\n"
            "s1,m0,0.5,0.5\n"
        )
        path = write(tmp_path / "p.csv", text)
        with pytest.raises(ValidationError, match="model"):
            read_predictions(path)

    def test_rejects_empty_body(self, tmp_path):
        path = write(tmp_path / "p.csv", "sample_id,model_id,p_0,p_1\n")
        with pytest.raises(ValidationError):
            read_predictions(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # Faults of every kind after the first bad row do not matter.
            (["s0,m0,0.5,0.5", "s0,m1,0.6,0.6", "s1,m0,0.5", "s1,m1,x,1", "s0,m0,0.5,0.5"],
             "row 3: probabilities sum to 1.2, outside 1 +- 1e-06"),
            # A check that runs later still wins when its row comes first.
            (["s0,m0,0.5,0.5", "s0,m0,0.4,0.6", "s1,m0,1.5,-0.5", "s1,m1"],
             "row 3: duplicate (sample_id, model_id) pair ('s0', 'm0')"),
            # Within one row, the first failed check names the fault.
            (["s0,m0,0.5,0.5", "s0,m1,x,2", "s1,m0,0.5"], "row 3: non-numeric probability"),
            (["s0,m0,0.5,0.5", "s0,m1,1.5,-0.5,9", "s1,m0,x,0.5"], "row 3: expected 4 fields, got 5"),
            (["s0,m0,0.5,0.5", "s0,m1,0.5,0.5", "s1,m0,0.5,0.5", "s1,m1,nan,0.5", "s1,m1,0.5,0.5"],
             "row 5: probabilities must lie in [0, 1]"),
            (["s0,m0,0.5,0.5", "", "s0,m1,0.6,0.6"], "row 3: expected 4 fields, got 0"),
        ],
    )
    def test_multi_fault_file_names_the_earliest_bad_row(self, tmp_path, rows, message):
        path = write(tmp_path / "p.csv", "sample_id,model_id,p_0,p_1\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValidationError) as info:
            read_predictions(path)
        assert str(info.value) == f"{path}: {message}"

    def test_model_set_fault_names_first_sample_in_id_order(self, tmp_path):
        text = "sample_id,model_id,p_0,p_1\ns2,m0,0.5,0.5\ns1,m0,0.5,0.5\ns0,m0,0.5,0.5\ns0,m1,0.5,0.5\ns1,m1,0.5,0.5\n"
        path = write(tmp_path / "p.csv", text)
        with pytest.raises(ValidationError) as info:
            read_predictions(path)
        assert str(info.value) == f"{path}: row 2: sample 's2' has a different model set than sample 's0'"

    def test_probs_hold_every_sample_in_id_and_model_order(self, tmp_path):
        text = "sample_id,model_id,p_0,p_1\ns1,m1,0.3,0.7\ns0,m1,0.8,0.2\ns1,m0,0.5,0.5\ns0,m0,0.6,0.4\n"
        data = read_predictions(write(tmp_path / "p.csv", text))
        assert data.probs.shape == (2, 2, 2)
        np.testing.assert_array_equal(data.probs, [[[0.6, 0.4], [0.8, 0.2]], [[0.5, 0.5], [0.3, 0.7]]])
        assert np.shares_memory(data.ensembles["s1"], data.probs)

    ROWS = [(s, m, f"{0.1 * (3 * i + j + 1):.1f}") for i, s in enumerate(["s0", "s1", "s2"])
            for j, m in enumerate(["m0", "m1", "m2"])]

    @staticmethod
    def preds_text(rows) -> str:
        return "sample_id,model_id,p_0,p_1\n" + "".join(f"{s},{m},{p},{1 - float(p):.1f}\n" for s, m, p in rows)

    @staticmethod
    def outcome(path) -> tuple:
        # The parsed fields (arrays as bytes) or the error, and the warnings.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                data = vars(read_predictions(path))
                result = {key: (value.tobytes(), value.shape) if isinstance(value, np.ndarray) else value
                          for key, value in data.items() if key != "ensembles"}
                result["ensembles"] = {key: value.tobytes() for key, value in data["ensembles"].items()}
            except ValidationError as exc:
                result = str(exc)
        return result, [str(w.message) for w in caught]

    @pytest.mark.parametrize("order, shortcut", [
        ("as written", True),
        ("rows reversed", False),
        ("models falling", False),
        ("model-major", False),
        ("one sample", True),
    ])
    def test_row_order_does_not_change_what_is_read(self, tmp_path, monkeypatch, order, shortcut):
        rows = {
            "as written": self.ROWS,
            "rows reversed": self.ROWS[::-1],
            "models falling": sorted(self.ROWS, key=lambda r: (r[0], -int(r[1][1]))),
            "model-major": sorted(self.ROWS, key=lambda r: (r[1], r[0])),
            "one sample": self.ROWS[:3],
        }[order]
        path = write(tmp_path / "p.csv", self.preds_text(rows))
        expected = write(tmp_path / "q.csv", self.preds_text(self.ROWS if order != "one sample" else rows))
        taken = []
        blocks = fileio._blocks
        monkeypatch.setattr(fileio, "_blocks", lambda s, m: taken.append(blocks(s, m)) or taken[-1])
        assert self.outcome(path) == self.outcome(expected)
        assert bool(taken[0]) == shortcut
        monkeypatch.setattr(fileio, "_blocks", lambda s, m: 0)
        assert self.outcome(path) == self.outcome(expected)

    @pytest.mark.parametrize("fault, message", [
        ("s1,m1,1.5,-0.5", "row 6: probabilities must lie in [0, 1]"),
        ("s1,m1,x,0.5", "row 6: non-numeric probability"),
        ("s1,m1,0.5,0.6", "row 6: probabilities sum to 1.1, outside 1 +- 1e-06"),
        ("s1,m1,0.5,0.5,1", "row 6: expected 4 fields, got 5"),
        ("s1,m1,0.500000001,0.5", None),
    ])
    def test_ordered_file_faults_read_as_in_any_order(self, tmp_path, monkeypatch, fault, message):
        # A fault in a file laid out as direns writes it: the shortcut must
        # report it, or renormalize, as the general path does.
        lines = self.preds_text(self.ROWS).splitlines(keepends=True)
        lines[5] = fault + "\n"
        path = write(tmp_path / "p.csv", "".join(lines))
        outcome = self.outcome(path)
        if message is not None:
            assert outcome[0] == f"{path}: {message}"
        monkeypatch.setattr(fileio, "_blocks", lambda s, m: 0)
        assert self.outcome(path) == outcome


    def test_plain_file_parse_traces_less_memory_than_the_csv_path(self, tmp_path):
        # 25k rows, the ensemble-mle benchmark's shape.  The csv path holds
        # one list of strings per row; the numpy parse holds arrays and the
        # two id columns.
        data = generate(SimulationConfig(n=500, m=50, k=7, seed=1, scheme="two_population"))
        path = str(tmp_path / "p.csv")
        write_predictions(path, data.sample_ids, data.model_ids, data.probs)

        def traced_peak() -> int:
            tracemalloc.start()
            try:
                read_predictions(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain = traced_peak()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_PLAIN_BYTES", b"")
            via_csv = traced_peak()
        assert plain < via_csv

QUOTED_IDS = ["a,b", 'say "hi"', "line\nbreak", "", "plain", "tab\tx", "é", "日本語", "naïve,x", 'Ω"q']
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1e-300,
           1.7976931348623157e308, -1e300, 1e-5, 1e-4, 1e16, 1e17, 1000000000000000.25, -1.5, 2.0]


def writer_cases() -> dict:
    # (writer, arguments) per file: a simulated dataset, ids that need csv
    # quoting or are not ASCII, negative losses, numbers off the fast path,
    # and header-only files.
    data = generate(SimulationConfig(n=40, m=6, k=5, seed=2024, scheme="two_population"))
    alphas = np.array([data.alphas[sid] for sid in data.sample_ids])
    rng = np.random.default_rng(5)
    probs = rng.dirichlet([0.05, 0.3, 2.0], size=(len(QUOTED_IDS), 2))
    curve = np.column_stack([np.linspace(1.0, 0.0, 9), rng.uniform(0, 0.5, 9), np.logspace(-9, 3, 9)])
    n = len(data.sample_ids)
    return {
        "preds": (write_predictions, data.sample_ids, data.model_ids, data.probs),
        "labels": (write_labels, data.sample_ids, data.label),
        "alphas": (write_alphas, data.sample_ids, np.arange(n) % 3 == 0, alphas),
        "curve": (write_curve, curve),
        "losses": (write_losses, data.sample_ids, list(-np.log(alphas[:, 0]))),
        "quoted_preds": (write_predictions, QUOTED_IDS, ["m,0", "ü"], probs),
        "quoted_labels": (write_labels, sorted(QUOTED_IDS), [QUOTED_IDS.index(sid) for sid in sorted(QUOTED_IDS)]),
        "quoted_alphas": (write_alphas, QUOTED_IDS, np.arange(len(QUOTED_IDS)) % 2 == 1, probs[:, 0] * 7.5),
        "special_losses": (write_losses, [f"s{i}" for i in range(len(SPECIAL))], SPECIAL),
        "special_curve": (write_curve, np.array(SPECIAL[:15]).reshape(5, 3)),
        "empty_preds": (write_predictions, [], ["m0", "m1"], np.empty((0, 2, 3))),
        "empty_labels": (write_labels, [], []),
        "empty_alphas": (write_alphas, [], np.empty(0, dtype=bool), np.empty((0, 3))),
        "empty_curve": (write_curve, np.empty((0, 3))),
        "empty_losses": (write_losses, [], []),
    }


class TestWriterBytes:
    # sha256 of each file, recorded when every line was formatted by one
    # Python '%' call; the block formatter must give the same bytes.  The
    # four simulated-data files (preds, labels, alphas, losses) were
    # recorded from a per-row '%.17g' and csv.writer rendering of the
    # arrays that the per-quantity streams draw.
    DIGESTS = {
        "preds": "615150f05dcfcf54685ae77a192ce37da7e602b60c32c51cd27534e6fe66cc0e",
        "labels": "acad63854c43d8291dc830b08ce55c7c0d35cd987febed65b672f7bb0c98a461",
        "alphas": "8d2a6a29027cbc195cb0fcf453b674044a942d2fc6e0709b4c801c1466701ec1",
        "curve": "8f573bfed492dc797c21433f22acca0dfb57f1c20d58eba1c32e3be11e2246bb",
        "losses": "dfe124c1b6cb3e270c113d2b5ef001d8440cbe4b9113abc94be3e77242930652",
        "quoted_preds": "bd41ca2787c965c790548e8a47218039cb68073fe80479ae7df3fd0a7261f9ec",
        "quoted_labels": "73278840da3e514582c503c88d5475cc0dd2d71f70f50eb08e5fa999d327ece0",
        "quoted_alphas": "a58336c8a60c0af12de8371169cd5d085bcbf7f405f45b4863896a920f523ac2",
        "special_losses": "2151198c1bd5dd8c487a726dcc4eeac9ada8755550ebf3ca287d8d2bc41fd701",
        "special_curve": "7e03e614385b7f1d03627fc0a68df7f9905de7cdf5e81affa53f0e754c9a8230",
        "empty_preds": "a2ad533a26d6eb81bcf04e5f66645cd2eb743c4098595a3babfddd097e1eb682",
        "empty_labels": "a3e0b0fdc39924eaaa4435711b9a1636f07e6d2519ee93cba8b7a85f8bd96786",
        "empty_alphas": "43b680f88e652f3b3dd691e455ca30390beb703054848885cd716e8877bb22b2",
        "empty_curve": "76a870de28cc538a12323ccbc5407a9d2dacaef21827596821951e3ff303d2be",
        "empty_losses": "3a2ea3bc4c02dc1596626a51623f44eeba15b6f4925526b2279c4f3b8ad1489b",
    }

    def test_files_keep_their_bytes(self, tmp_path):
        for name, (writer, *args) in writer_cases().items():
            path = str(tmp_path / f"{name}.csv")
            writer(path, *args)
            assert sha256_of_file(path) == self.DIGESTS[name], name

    def test_predictions_write_traces_no_more_than_the_line_writer(self, tmp_path):
        # The ensemble-mle benchmark's shape.  Formatting each line with one
        # Python '%' call peaked at 192,484 bytes here (Python 3.11, numpy
        # 2.4), most of it the csv module's row buffer, which quoting the ids
        # still allocates.  The first write builds the formatting tables,
        # which stay.
        data = generate(SimulationConfig(n=500, m=50, k=7, seed=1, scheme="two_population"))
        path = str(tmp_path / "p.csv")
        write_predictions(path, data.sample_ids, data.model_ids, data.probs)
        tracemalloc.start()
        try:
            write_predictions(path, data.sample_ids, data.model_ids, data.probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 192_484


def profile_counts(call) -> collections.Counter:
    # Events of ``call`` per function of fileio and floatfmt: each entry
    # into it (or step of a generator), each line it runs, so that a loop
    # over rows shows, and each C function it calls.
    files = {fileio.__file__, floatfmt.__file__}
    counts = collections.Counter()

    def profile(frame, event, arg):
        if frame.f_code.co_filename in files:
            if event == "call":
                counts["call", frame.f_code.co_name] += 1
            elif event == "c_call":
                counts["c_call", getattr(arg, "__qualname__", repr(arg))] += 1

    def lines(frame, event, arg):
        counts["line", frame.f_code.co_name] += event == "line"
        return lines

    sys.setprofile(profile)
    sys.settrace(lambda frame, event, arg: lines if frame.f_code.co_filename in files else None)
    try:
        call()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return counts


ID_CHARS = ["a", "Z", "0", " ", "\t", "\x7f", "\xe9", "\u65e5", "\U0001f600"]
QUOTING_CHARS = [",", '"', "\r", "\n"]


class TestTextColumns:
    @staticmethod
    def text_io(tmp_path, n: int) -> dict:
        # Profile counts of every reader and writer on plain files of n inputs.
        data = generate(SimulationConfig(n=n, m=2, k=3, seed=1, scheme="two_population"))
        path = {name: str(tmp_path / f"{name}{n}.csv") for name in ("preds", "unordered", "labels", "alphas", "losses")}
        write_predictions(path["preds"], data.sample_ids, data.model_ids, data.probs)
        with open(path["preds"]) as handle:
            header, *rows = handle.read().splitlines(keepends=True)
        write(tmp_path / f"unordered{n}.csv", header + "".join(rows[::-1]))
        calls = {
            "write_predictions": lambda: write_predictions(path["preds"], data.sample_ids, data.model_ids, data.probs),
            "write_labels": lambda: write_labels(path["labels"], data.sample_ids, data.label),
            "write_alphas": lambda: write_alphas(path["alphas"], data.sample_ids[::-1], np.arange(n) % 2 == 0,
                                                 data.alpha[::-1]),
            "write_losses": lambda: write_losses(path["losses"], data.sample_ids, data.alpha[:, 0]),
            "read_predictions": lambda: read_predictions(path["preds"]),
            "read_predictions unordered": lambda: read_predictions(path["unordered"]),
            "read_labels": lambda: read_labels(path["labels"]),
            "read_alphas": lambda: read_alphas(path["alphas"]),
        }
        return {name: profile_counts(call) for name, call in calls.items()}

    def test_text_columns_cost_no_python_per_row(self, tmp_path, monkeypatch):
        # With every write one block and every read one chunk, no function of
        # fileio or floatfmt may run, run a line or call a C function more
        # often for 5,000 inputs than for 500.  A csv.writer row, str.encode
        # or bytes.ljust per id would, as would a per-id comparison, dict
        # lookup or list on the read side.
        floatfmt._format_tables()
        monkeypatch.setattr(fileio, "BLOCK", 1 << 40)
        monkeypatch.setattr(fileio, "_CHUNK", 1 << 22)
        small, large = self.text_io(tmp_path, 500), self.text_io(tmp_path, 5000)
        assert max(os.path.getsize(path) for path in tmp_path.iterdir()) < fileio._CHUNK
        for name, counts in small.items():
            assert large[name] == counts, name

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_array_path_writes_what_csv_writer_does(self, tmp_path, data):
        # Ids from characters csv.writer leaves as they are, and sometimes
        # ones it quotes: the bytes must be those of the csv.writer path,
        # forced by patching the one plainness check.
        chars = st.sampled_from(data.draw(st.sampled_from([ID_CHARS, ID_CHARS + QUOTING_CHARS])))
        ids = data.draw(st.lists(st.text(chars, max_size=4), max_size=6))
        models = data.draw(st.lists(st.text(chars, max_size=3), min_size=1, max_size=3))
        n = len(ids)
        probs = np.full((n, len(models), 2), 0.5)
        writers = {
            "preds": lambda path: write_predictions(path, ids, models, probs),
            "labels": lambda path: write_labels(path, ids, np.arange(n) % 3),
            "alphas": lambda path: write_alphas(path, ids, np.arange(n) % 2 == 0, np.ones((n, 2)) + np.arange(n)[:, None]),
            "losses": lambda path: write_losses(path, ids, -0.25 * np.arange(n)),
        }
        for name, writer in writers.items():
            path = str(tmp_path / f"{name}.csv")
            writer(path)
            with open(path, "rb") as handle:
                written = handle.read()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fileio, "_unquoted", lambda joined: False)
                writer(path)
            with open(path, "rb") as handle:
                assert handle.read() == written, name


    def test_writers_refuse_an_id_with_a_nul(self, tmp_path):
        # No reader accepts a NUL, so no writer writes one, nor any file.
        path = str(tmp_path / "x.csv")
        with pytest.raises(ValueError) as info:
            write_alphas(path, ["a\0", "b"], [False, False], np.ones((2, 2)))
        assert str(info.value) == "id 'a\\x00' holds a NUL, which no reader accepts"
        for call in [
            lambda: write_predictions(path, ["a"], ["m\0"], np.full((1, 1, 2), 0.5)),
            lambda: write_labels(path, ["a", "b\0c"], [0, 1]),
            lambda: write_losses(path, ["\0"], [1.0]),
        ]:
            with pytest.raises(ValueError, match="holds a NUL"):
                call()
        assert not os.path.exists(path)


class TestLabelsFile:
    def test_round_trip_in_the_order_given(self, tmp_path):
        out = tmp_path / "l.csv"
        write_labels(str(out), ["s1", "s0"], [2, 1])
        assert out.read_text() == "sample_id,label\ns1,2\ns0,1\n"
        data = read_labels(str(out))
        assert data.labels == {"s1": 2, "s0": 1}
        assert data.ids.tolist() == ["s0", "s1"] and data.label.tolist() == [1, 2]

    def test_rejects_negative_and_non_integer(self, tmp_path):
        path = write(tmp_path / "l.csv", "sample_id,label\ns0,-1\n")
        with pytest.raises(ValidationError):
            read_labels(path)
        path = write(tmp_path / "l2.csv", "sample_id,label\ns0,1.5\n")
        with pytest.raises(ValidationError):
            read_labels(path)

    def test_rejects_duplicates(self, tmp_path):
        path = write(tmp_path / "l.csv", "sample_id,label\ns0,1\ns0,2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_labels(path)

    def test_pairing_requires_full_coverage(self, tmp_path):
        path = write(tmp_path / "l.csv", "sample_id,label\ns0,1\n")
        data = read_labels(path)
        with pytest.raises(ValidationError, match="s1"):
            pair_labels(["s0", "s1"], data, 2, path)

    def test_pairing_rejects_out_of_range_label(self, tmp_path):
        path = write(tmp_path / "l.csv", "sample_id,label\ns0,5\n")
        data = read_labels(path)
        with pytest.raises(ValidationError, match="row 2"):
            pair_labels(["s0"], data, 2, path)

    @pytest.mark.parametrize("text", [
        "sample_id,label\ns3,2\ns10,0\ns1,1\ns2,0\n",
        'sample_id,label\r\n"b,1",3\r\na,1\r\nx,0\r\n\xe9,1\r\n',
    ], ids=["plain", "csv path"])
    def test_maps_equal_the_file_in_file_order(self, tmp_path, text):
        # labels, built on first access, holds what a dict of the file's
        # rows in file order holds: the same keys, int values and order.
        path = str(tmp_path / "l.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        data = read_labels(path)
        assert "labels" not in vars(data)
        assert list(data.labels.items()) == [(sid, int(label)) for sid, label in rows]
        assert {type(v) for v in data.labels.values()} == {int}
        assert data.labels is data.labels

    @pytest.mark.parametrize("text, row", [
        ("x\0,1\nx,0\ny,1\n", 2),
        ("x,0\nx\0\0\0,2\n", 3),
        ("x,0\n\0y,2\n", 3),
        ('"b,1",3\r\n"a\0",1\r\n', 3),
        ("x,1\0\ny,0\n", 2),
    ], ids=["trailing", "trailing run", "leading", "quoted", "in the label"])
    def test_nul_is_rejected_at_its_row(self, tmp_path, text, row):
        path = write(tmp_path / "l.csv", "sample_id,label\n" + text)
        with pytest.raises(ValidationError) as info:
            read_labels(path)
        assert str(info.value) == f"{path}: row {row}: line contains NUL"

    @pytest.mark.parametrize("raw, message", [
        (b'sample_id,label\n"a\nb",1\nc\xff,0\n', "row 3: not UTF-8 text (invalid start byte at byte 25)"),
        (b"sample_id,label\ns0,1,2\ns1,0\ns2\xff,1\n", "row 2: expected 2 fields, got 3"),
        (b"sample_id,label\ns0,1,2\ns1,0\ns2\0,1\n", "row 2: expected 2 fields, got 3"),
        (b"sample_id,label\ns0,x\ns1,0\ns2\xff,1\n", "row 2: label must be an integer"),
        (b"sample_id,l\xffabel\ns0,1\n", "row 1: not UTF-8 text (invalid start byte at byte 11)"),
        (b"sample_id,label\ns0\xff,1\n", "row 2: not UTF-8 text (invalid start byte at byte 18)"),
    ], ids=["record of two lines", "bad byte after a bad row", "NUL after a bad row", "bad byte after a bad label",
            "bad byte in the header", "bad byte in the first row"])
    def test_csv_path_names_the_earliest_bad_record(self, tmp_path, raw, message):
        # Rows count csv records, the header being row 1, and a NUL, a byte
        # that is not UTF-8 or a csv error loses to an earlier row's fault.
        path = tmp_path / "l.csv"
        path.write_bytes(raw)
        with pytest.raises(ValidationError) as info:
            read_labels(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("reader, header", [
        (read_predictions, "sample_id,model_id,p_0,p_1"),
        (read_alphas, "sample_id,degenerate,a_0,a_1"),
        (read_labels, "sample_id,label"),
    ], ids=["preds", "alphas", "labels"])
    def test_a_fault_in_the_first_data_row_is_named(self, tmp_path, reader, header):
        # No row precedes it: the fault is not "no data rows", nor an error
        # from checks over an empty table.
        path = write(tmp_path / "x.csv", f"{header}\ns0\0,0,1\n")
        with pytest.raises(ValidationError) as info:
            reader(path)
        assert str(info.value) == f"{path}: row 2: line contains NUL"

    def test_pairing_reports_ids_that_hold_a_nul_as_missing(self, tmp_path):
        # A str array drops trailing NULs: "x\0" must not get "x"'s label.
        path = write(tmp_path / "l.csv", "sample_id,label\nx,0\ny,1\n")
        data = read_labels(path)
        np.testing.assert_array_equal(pair_labels(["y", "x"], data, 3, path), [1, 0])
        for sid in ["x\0", "x\0\0", "\0x", "x\0y"]:
            for ids in [["y", sid], np.array(["y", sid], dtype=object)]:
                with pytest.raises(ValidationError) as info:
                    pair_labels(ids, data, 3, path)
                assert str(info.value) == f"{path}: missing label for sample_id {sid!r}"

    @pytest.mark.parametrize("text, row", [
        ("s0,1\ns1,99999999999999999999\n", 3),
        ("s1,99999999999999999999\ns0, 7\n", 2),
        ("s0,9223372036854775808\n", 2),
    ], ids=["after a label", "before a padded label", "2**63"])
    def test_label_past_int64_is_named_exactly(self, tmp_path, text, row):
        path = write(tmp_path / "l.csv", "sample_id,label\n" + text)
        with pytest.raises(ValidationError) as info:
            read_labels(path)
        label = text.splitlines()[row - 2].split(",")[1]
        assert str(info.value) == f"{path}: row {row}: label {label!r} must be below 2**63"

    def test_largest_int64_label_is_read(self, tmp_path):
        path = write(tmp_path / "l.csv", "sample_id,label\ns0,9223372036854775807\n")
        data = read_labels(path)
        assert data.labels == {"s0": 2**63 - 1}
        with pytest.raises(ValidationError) as info:
            pair_labels(["s0"], data, 3, path)
        assert str(info.value) == f"{path}: row 2: label 9223372036854775807 outside [0, 3) for sample_id 's0'"

    def test_write_labels_memory(self, tmp_path):
        # At the report-many benchmark's shape (n=5000) the writer's traced
        # peak stays within 0.65 MB.  Formatting each label in 21 bytes and
        # gathering the ids through an (n, width) index peaked at 0.87 MB.
        data = generate(SimulationConfig(n=5000, m=1, k=10, seed=1, scheme="two_population"))
        ids, labels = data.sample_ids[::-1], data.label[::-1]
        _, peak = traced_peak(lambda: write_labels(str(tmp_path / "l.csv"), ids, labels))
        assert peak <= 0.65e6

    def test_read_and_pair_memory(self, tmp_path):
        # At the report-many benchmark's shape (n=5000, K=10), reading a
        # labels file and pairing its labels with the alphas' ids peaks
        # within 0.7 MB.  Two dicts by id, and a lookup per id, peaked at
        # 0.93 MB.
        data = generate(SimulationConfig(n=5000, m=1, k=10, seed=1, scheme="two_population"))
        path = str(tmp_path / "l.csv")
        write_labels(path, data.sample_ids, data.label)
        ids = data.sample_ids
        labels, peak = traced_peak(lambda: pair_labels(ids, read_labels(path), 10, path))
        np.testing.assert_array_equal(labels, data.label)
        assert peak <= 0.7e6


class TestAlphasFile:
    def test_round_trip_exact(self, tmp_path, rng):
        ids = [f"s{i:03d}" for i in range(20)]
        degenerate = np.arange(20) % 3 == 0
        alpha = rng.uniform(1e-4, 1e5, size=(20, 4))
        order = rng.permutation(20)
        out = tmp_path / "a.csv"
        write_alphas(str(out), [ids[i] for i in order], degenerate[order], alpha[order])
        back = read_alphas(str(out))
        assert isinstance(back, AlphasData)
        assert back.sample_ids == ids
        np.testing.assert_array_equal(back.degenerate, degenerate)
        np.testing.assert_array_equal(back.alpha, alpha)
        assert len(back) == 20
        for i, row in enumerate(back):
            assert isinstance(row, AlphaRow)
            assert (row.sample_id, row.degenerate) == (ids[i], bool(degenerate[i]))
            np.testing.assert_array_equal(row.alpha, alpha[i])

    def test_rejects_unsorted_rows(self, tmp_path):
        text = "sample_id,degenerate,a_0,a_1\ns1,0,1.0,1.0\ns0,0,1.0,1.0\n"
        path = write(tmp_path / "a.csv", text)
        with pytest.raises(ValidationError, match="order"):
            read_alphas(path)

    def test_rejects_bad_degenerate_flag(self, tmp_path):
        text = "sample_id,degenerate,a_0,a_1\ns0,2,1.0,1.0\n"
        path = write(tmp_path / "a.csv", text)
        with pytest.raises(ValidationError):
            read_alphas(path)

    def test_rejects_nonpositive_alpha(self, tmp_path):
        text = "sample_id,degenerate,a_0,a_1\ns0,0,0.0,1.0\n"
        path = write(tmp_path / "a.csv", text)
        with pytest.raises(ValidationError):
            read_alphas(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["s1,0,1,1", "s0,0,1,1", "s2,5,x,1"], "row 3: sample_id 's0' out of sorted order"),
            (["s0,0,1,1", "s1,2,-1,1", "s2,0,x"], "row 3: degenerate must be 0 or 1"),
            (["s0,0,1,1", "s1,0,-1,x", "s0,0,1"], "row 3: non-numeric concentration"),
            (["s0,0,1e308,1e308", "s1,0,0,1"], "row 2: concentrations sum past the largest float"),
        ],
    )
    def test_multi_fault_file_names_the_earliest_bad_row(self, tmp_path, rows, message):
        path = write(tmp_path / "a.csv", "sample_id,degenerate,a_0,a_1\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValidationError) as info:
            read_alphas(path)
        assert str(info.value) == f"{path}: {message}"

    def test_rejects_nonfinite_alpha(self, tmp_path):
        text = "sample_id,degenerate,a_0,a_1\ns0,0,inf,1.0\n"
        path = write(tmp_path / "a.csv", text)
        with pytest.raises(ValidationError):
            read_alphas(path)


class TestExactReader:
    """The reader's exact parse: which numbers it answers, and bit-identical round trips."""

    @staticmethod
    def float_parses(monkeypatch) -> list:
        # Records each np.loadtxt call that parses floats, not integers.
        calls, loadtxt = [], np.loadtxt

        def counted(*args, **kwargs):
            if kwargs.get("dtype") is not np.int64:
                calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        return calls

    @staticmethod
    def alphas(ids: list, alpha: np.ndarray, path) -> str:
        write_alphas(str(path), ids, np.zeros(len(ids), dtype=bool), alpha)
        return str(path)

    @pytest.mark.parametrize("text, exact", [
        ("0.5", True), ("-1.5", True), ("+1.5", True), (" 1.5", True), ("1.5e-05", True), ("1.5e+5", True),
        ("123.456e-3", True), ("0.018891868987156387", True), ("7.7103773549650716e-14", True),
        ("1.0000000000000001e-280", True), ("9.9999999999999996e+279", True), ("1", True), ("-25", True),
        ("4503599627370497", True), ("5e+100", True), ("-5e-05", True),
        ("0", True), ("-0", True), ("0.0", True), ("-0.0", True), ("+0", True), ("-0e-5", True),
        (".5", False), ("5.", False), ("-.5", False), ("1e5", False), ("1.5E-05", False), ("1.5E+3", False),
        ("1.2E-1", False), ("5 ", False), ("1.5 ", False), ("1.5e5", False), ("1.5e+0005", False),
        ("0.1234567890123456789", False), (" -0", False), ("1.0000000000000001e-300", False), ("2.5e+300", False),
        ("9.9e-281", False), ("1.5e-281", False),
        ("9007199254740993.0", False), ("9.007199254740993e+15", False), ("9007199254740993", False),
        ("10000000000000000000", False), ("inf", False), ("nan", False), ("1e+281", False),
        ("12345678901234567.0e+300", False), ("1.5e-320", False), ("99999999999999999.0e-316", False),
    ])
    def test_numbers_the_exact_parse_answers(self, tmp_path, monkeypatch, text, exact):
        # A number it declines sends its chunk to np.loadtxt; either way the
        # value is float()'s, bit for bit.
        path = write(tmp_path / "a.csv", f"sample_id,degenerate,a_0,a_1\ns0,0,{text},0.25\n")
        calls = self.float_parses(monkeypatch)
        values = fileio._table(path, ["sample_id", "degenerate"], "a")[5]
        assert len(calls) == (not exact)
        assert values.tobytes() == np.array([[float(text), 0.25]]).tobytes()

    @pytest.mark.parametrize("text", ["1.5E+3", "1.5E5", "1.2E-1", "1.5E-05", "1.5e-282", "7.0136719067158221e-301"])
    def test_declines_before_the_integer_parse(self, tmp_path, monkeypatch, text):
        # An 'E', or a number surely below 1e-280, is declined from the scan
        # alone, so its chunk is parsed once.  The int64 parse here falls back
        # to a float one, truncated, as some numpy versions' does (deprecated
        # in 1.23): it would read the "15E+3" left of 1.5E+3 as 15000.
        path = write(tmp_path / "a.csv", f"sample_id,degenerate,a_0,a_1\ns0,0,{text},0.25\n")
        calls, loadtxt = [], np.loadtxt

        def falls_back(*args, **kwargs):
            if kwargs.get("dtype") is not np.int64:
                return loadtxt(*args, **kwargs)
            calls.append(args)
            return np.trunc(loadtxt(*args, **{**kwargs, "dtype": np.float64})).astype(np.int64)

        monkeypatch.setattr(np, "loadtxt", falls_back)
        values = fileio._table(path, ["sample_id", "degenerate"], "a")[5]
        assert not calls
        assert values.tobytes() == np.array([[float(text), 0.25]]).tobytes()

    def test_zeros_are_answered_with_their_sign(self, tmp_path, monkeypatch):
        # Many chunks, a tenth of their numbers +0 and a tenth -0, in every
        # quarter of every chunk: none goes to the float np.loadtxt.
        rng = np.random.default_rng(11)
        values = rng.random((20_000, 10)) * 10.0 ** rng.integers(-250, 250, size=(20_000, 10))
        values[rng.random(values.shape) < 0.1] = 0.0
        values[rng.random(values.shape) < 0.1] = -0.0
        path = self.alphas([f"s{i:05d}" for i in range(len(values))], values, tmp_path / "a.csv")
        calls = self.float_parses(monkeypatch)
        back = fileio._table(path, ["sample_id", "degenerate"], "a")[5]
        assert not calls
        assert back.tobytes() == values.tobytes()

    def test_round_trip_of_random_bit_patterns(self, tmp_path):
        # A million positive finite doubles below 2**1020, so that every row
        # of ten has a finite sum; about a tenth lie outside 1e-280..1e280,
        # so nearly every chunk goes to np.loadtxt.
        bits = np.random.default_rng(20261020).integers(1, 0x7FB0000000000000, size=1_000_000, dtype=np.int64)
        alpha = bits.view(np.float64).reshape(-1, 10)
        ids = [f"s{i:06d}" for i in range(len(alpha))]
        back = read_alphas(self.alphas(ids, alpha, tmp_path / "a.csv"))
        assert back.alpha.tobytes() == alpha.tobytes()

    def test_exact_parse_answers_every_chunk_without_a_tie(self, tmp_path, monkeypatch):
        # Doubles drawn from 1e-280..1e280 bit pattern by bit pattern, then
        # three exact decimal ties written in by hand: only the chunks that
        # hold a tie go to np.loadtxt, which rounds them to even.
        low, high = np.array([1e-280, 1e280]).view(np.int64)
        bits = np.random.default_rng(7).integers(low, high, size=200_000, dtype=np.int64)
        alpha = bits.view(np.float64).reshape(-1, 10)
        ids = [f"s{i:06d}" for i in range(len(alpha))]
        path = self.alphas(ids, alpha, tmp_path / "a.csv")
        with open(path) as handle:
            lines = handle.read().split("\n")
        ties = {3: "9.007199254740993e+15", 9000: "18014398509481986.0", 9001: "3.6028797018963972e+16"}
        for row, tie in ties.items():
            fields = lines[row + 1].split(",")
            fields[3] = tie
            alpha[row, 1] = float(tie)
            lines[row + 1] = ",".join(fields)
        with open(path, "w") as handle:
            handle.write("\n".join(lines))
        with open(path, "rb") as handle:
            chunks = list(fileio._line_chunks(handle))
        assert len(chunks) > 10
        calls = self.float_parses(monkeypatch)
        back = read_alphas(path)
        assert len(calls) == sum(any(tie.encode() in chunk for tie in ties.values()) for chunk in chunks) == 2
        assert back.alpha.tobytes() == alpha.tobytes()


class TestCurveAndReport:
    def test_curve_format(self, tmp_path):
        out = tmp_path / "c.csv"
        write_curve(str(out), np.array([[0.5, 0.0, 0.002], [1.0, 0.25, 0.05]]))
        lines = out.read_text().splitlines()
        assert lines == ["coverage,risk,tau", "0.5,0,0.002", "1,0.25,0.050000000000000003"]

    def test_report_is_deterministic_and_newline_terminated(self, tmp_path):
        doc = {"metrics": {"accuracy": 0.75}, "provenance": {"seed": 3}}
        a, b = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(str(a), doc)
        write_report(str(b), doc)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")
        assert json.loads(a.read_text()) == doc

    def test_report_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(str(tmp_path / "r.json"), {"x": float("nan")})


class TestSimulate:
    def base(self, **kw) -> SimulationConfig:
        defaults = dict(n=40, m=12, k=3, seed=5, scheme="two_population")
        defaults.update(kw)
        return SimulationConfig(**defaults)

    def test_shapes_and_determinism(self):
        data = generate(self.base())
        assert len(data.sample_ids) == 40
        assert len(data.model_ids) == 12
        assert data.probs.shape == (40, 12, 3)
        np.testing.assert_allclose(data.probs.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(data.probs > 0.0)
        for sid in data.sample_ids:
            assert 0 <= data.labels[sid] < 3
            assert np.all(data.alphas[sid] > 0.0)
        np.testing.assert_array_equal(data.probs, generate(self.base()).probs)
        assert not np.array_equal(data.probs, generate(self.base(seed=6)).probs)

    # sha256 of probs, labels (int64) and alphas, each stacked in sample
    # order, as numpy 2.4 on x86-64 draws them from the per-quantity child
    # streams.  K = 1000 reaches numpy's pairwise summation in the row
    # normalization.
    PINNED = [
        (dict(n=50, m=4, k=3, seed=11, scheme="fixed", alpha=np.array([3.0, 1.0, 0.5])),
         "b7245a9983ca8cfe56af9a36d7aeffc1f0fc98320e7d883c2e4d6e826384305f",
         "c697a7f3ec27e3a825b0731af317f17316ec3799331f92abe4c4b7887998685e",
         "fbdbdec22f0a0c5a395ab3062a039ff25ec2e9c611265df62b826a21b96ede8b"),
        (dict(n=60, m=8, k=5, seed=3, scheme="two_population"),
         "213ad16d149418f07b99a671b7827e526c7e58f50d45d4605280fa8fd711a948",
         "1ed4110b85d74ec8e2564805061c12a386dacbe2230173d8269404a020723bfd",
         "7cac4e5a8d01dd6b6d5d156c1ba7abac961b3cfb525cd1c7276c17256d8a2871"),
        (dict(n=30, m=6, k=4, seed=2, scheme="collapse"),
         "c1be251568b170a349dc71bbbac700c14209304071a84a284d800dfd239092b0",
         "63e3eea3a5547cfeed6eb75bd22ea62dea9384cc8c05aeb99f4c99d5ce01b524",
         "06f4b299da96e7959dfecf8bdd21e08f2ac3b1e2ab772551b167b314d34163fa"),
        (dict(n=4, m=3, k=1000, seed=9, scheme="two_population"),
         "313b1cecd0c98ec8e2ef40f3fb4e474e7c012ac7da229bf6b439a71765755f6b",
         "1f53aaf97e816f6c00b55e4f934a74756c79693af2bb40090b1a318f94e5288a",
         "e2001d1267f6e83a444bd1ee9871f05bae67f8ee26202d08408d0cbb3552c272"),
        (dict(n=200, m=1, k=10, seed=7, scheme="two_population"),
         "515607595ffed2fd2eaac7d0bb762626daef2506c84c73b1d61cfad9eff47798",
         "da251f08273e0bd41e3634c3fda2542588ba5c72baff4133d896c073c2daa1bb",
         "aa88ee0f31014cead77ccc4861bb16332725416ea0cca1bb372225035cf443fe"),
    ]

    @pytest.mark.parametrize("config, probs, labels, alphas", PINNED,
                             ids=["fixed", "two-population", "collapse", "k1000", "m1"])
    def test_draws_keep_their_bits(self, config, probs, labels, alphas):
        data = generate(SimulationConfig(**config))

        def digest(rows):
            return hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()

        assert digest(data.probs) == probs
        assert digest(np.array([data.labels[sid] for sid in data.sample_ids], dtype=np.int64)) == labels
        assert digest(np.array([data.alphas[sid] for sid in data.sample_ids])) == alphas

    SCHEME_CONFIGS = {
        "fixed": dict(scheme="fixed", alpha=np.array([3.0, 1.0, 0.5, 2.0])),
        "two_population": dict(scheme="two_population"),
        "collapse": dict(scheme="collapse"),
    }

    @pytest.mark.parametrize("scheme", SCHEME_CONFIGS)
    def test_rows_do_not_depend_on_n(self, scheme):
        # Each quantity has its own stream, so row i's draws come at the same
        # place in every stream whatever the number of rows after it.
        kw = dict(self.SCHEME_CONFIGS[scheme], m=1, k=1000, seed=13)
        if scheme == "fixed":
            kw["alpha"] = np.linspace(0.2, 5.0, 1000)
        full = generate(self.base(n=40, **kw))
        for n in (1, 17):
            prefix = generate(self.base(n=n, **kw))
            np.testing.assert_array_equal(prefix.probs, full.probs[:n])
            np.testing.assert_array_equal(prefix.alpha, full.alpha[:n])
            assert list(prefix.labels.values()) == list(full.labels.values())[:n]

    @pytest.mark.parametrize("scheme", SCHEME_CONFIGS)
    def test_draws_follow_the_scheme(self, scheme):
        n, m, k = 100_000, 2, 4
        data = generate(self.base(n=n, m=m, k=k, seed=21, **self.SCHEME_CONFIGS[scheme]))
        labels = np.array([data.labels[sid] for sid in data.sample_ids])
        alpha, alpha0 = data.alpha, data.alpha.sum(axis=1)
        # Label frequencies: the predictive mean for the fixed scheme,
        # uniform otherwise; each count within 4 standard errors.
        p = data.alpha[0] / alpha0[0] if scheme == "fixed" else np.full(k, 1.0 / k)
        counts = np.bincount(labels, minlength=k)
        assert np.all(np.abs(counts - n * p) <= 4.0 * np.sqrt(n * p * (1.0 - p)))
        if scheme == "two_population":
            incorrect = np.argmax(alpha, axis=1) != labels
            share = 0.3
            assert abs(incorrect.mean() - share) <= 4.0 * np.sqrt(share * (1.0 - share) / n)
            for rows, (lo, hi) in ((~incorrect, (50.0, 500.0)), (incorrect, (3.0, 30.0))):
                assert lo * (1 - 1e-12) <= alpha0[rows].min() and alpha0[rows].max() <= hi * (1 + 1e-12)
                spread = (hi - lo) / np.sqrt(12.0 * np.count_nonzero(rows))
                assert abs(alpha0[rows].mean() - (lo + hi) / 2.0) <= 4.0 * spread
            # Correct rows peak at the label, with the rest spread evenly.
            peaked = np.full((n, k), 0.2 / (k - 1))
            peaked[np.arange(n), labels] = 0.8
            np.testing.assert_allclose((alpha / alpha0[:, None])[~incorrect], peaked[~incorrect], rtol=1e-12)
        # Members average to alpha / alpha_0: per class, the summed error over
        # all members is within 4 of its standard deviations.
        mean = alpha / alpha0[:, None]
        error = (data.probs - mean[:, None, :]).sum(axis=(0, 1))
        variance = m * (mean * (1.0 - mean) / (alpha0[:, None] + 1.0)).sum(axis=0)
        assert np.all(np.abs(error) <= 4.0 * np.sqrt(variance))

    @pytest.mark.parametrize("scheme", SCHEME_CONFIGS)
    def test_generator_calls_do_not_grow_with_n(self, scheme, monkeypatch):
        # Whole-array draws: the number of Generator method calls is fixed,
        # not a few per input.
        real = np.random.default_rng
        calls = []

        class Counting:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)
                return counted

        monkeypatch.setattr(np.random, "default_rng", lambda *seed: Counting(real(*seed)))
        counts = []
        for n in (10, 10_000):
            calls.clear()
            generate(self.base(n=n, k=4, **self.SCHEME_CONFIGS[scheme]))
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_maps_are_built_on_first_access(self):
        # Each map holds, in sample id order, what the per-id dicts built
        # with the arrays held: int labels and views, not copies, of the
        # rows of alpha.
        data = generate(self.base())
        assert not {"labels", "alphas"} & set(vars(data))
        assert list(data.labels) == list(data.alphas) == data.sample_ids
        for i, sid in enumerate(data.sample_ids):
            assert type(data.labels[sid]) is int and data.labels[sid] == data.label[i]
            assert data.alphas[sid].base is data.alpha
            np.testing.assert_array_equal(data.alphas[sid], data.alpha[i])
        assert data.alphas is data.alphas

    def test_memory_follows_the_arrays(self):
        # At the report-many benchmark's shape (n=5000, M=1, K=10), generate
        # peaks within twice the alpha and probs it returns.  The three
        # per-id maps and a second (n, K) array peaked at 4 times (3.2 MB).
        data, peak = traced_peak(lambda: generate(self.base(n=5000, m=1, k=10)))
        assert peak <= 2 * (data.alpha.nbytes + data.probs.nbytes)

    def test_ids_sort_in_numeric_order(self):
        data = generate(self.base(n=120))
        assert data.sample_ids == sorted(data.sample_ids)
        assert data.sample_ids[0] == "s000"
        assert data.sample_ids[-1] == "s119"

    def test_fixed_scheme_uses_given_alpha(self):
        alpha = np.array([3.0, 1.0, 0.5])
        data = generate(self.base(scheme="fixed", alpha=alpha))
        for sid in data.sample_ids:
            np.testing.assert_array_equal(data.alphas[sid], alpha)

    def test_two_population_alpha_ranges(self):
        data = generate(self.base(n=200))
        a0s = sorted(float(data.alphas[sid].sum()) for sid in data.sample_ids)
        assert a0s[0] >= 3.0
        assert a0s[-1] <= 500.0
        n_low = sum(1 for a in a0s if a <= 30.0)
        assert 0.15 <= n_low / 200.0 <= 0.45

    def test_incorrect_population_peaks_off_label(self):
        data = generate(self.base(n=300))
        mismatch = 0
        for sid in data.sample_ids:
            alpha = data.alphas[sid]
            if alpha.sum() <= 30.0:
                assert int(np.argmax(alpha)) != data.labels[sid]
                mismatch += 1
        assert mismatch > 0

    def test_collapse_scheme_constant_uniform_alpha(self):
        data = generate(self.base(scheme="collapse", k=5))
        expected = np.full(5, 1e7 / 5)
        for sid in data.sample_ids:
            np.testing.assert_array_equal(data.alphas[sid], expected)

    def test_validates_config(self):
        with pytest.raises(ValueError):
            self.base(n=0)
        with pytest.raises(ValueError):
            self.base(k=1)
        with pytest.raises(ValueError):
            self.base(scheme="gaussian")
        with pytest.raises(ValueError):
            self.base(scheme="fixed")
        with pytest.raises(ValueError):
            self.base(scheme="fixed", alpha=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            self.base(frac_incorrect=1.5)
        with pytest.raises(ValueError):
            self.base(peak=0.2)
        with pytest.raises(ValueError):
            self.base(correct_alpha0=(10.0, 5.0))
        for bad in ((1.0, np.inf), (1e308, np.inf), (np.inf, np.inf), (np.nan, 5.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match="correct_alpha0"):
                self.base(correct_alpha0=bad)
            with pytest.raises(ValueError, match="incorrect_alpha0"):
                self.base(incorrect_alpha0=bad)
        with pytest.raises(ValueError, match="alpha"):
            self.base(scheme="fixed", alpha=np.array([1e308, 1e308, 1.0]))
