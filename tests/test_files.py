"""CSV/JSON round trips, input validation, and synthetic data generation."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from direns import fileio
from direns.fileio import (
    AlphaRow,
    AlphasData,
    RenormalizationWarning,
    ValidationError,
    atomic_write_text,
    format_float,
    pair_labels,
    read_alphas,
    read_labels,
    read_predictions,
    sha256_of_file,
    write_alphas,
    write_curve,
    write_labels,
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


class TestFormatting:
    def test_float_round_trip(self, rng):
        for _ in range(1000):
            x = float(rng.uniform(-1e6, 1e6)) * 10 ** int(rng.integers(-12, 12))
            assert float(format_float(x)) == x

    def test_atomic_write_replaces_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "first")
        atomic_write_text(str(target), "second")
        assert target.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_sha256_matches_known_digest(self, tmp_path):
        target = tmp_path / "x.bin"
        target.write_bytes(b"abc")
        expected = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        assert sha256_of_file(str(target)) == expected


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
                writer.writerow([sid, mid] + [format_float(v) for v in p])
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
            patch.setattr(fileio, "_plain_split", lambda raw: None)
            via_csv = traced_peak()
        assert plain < via_csv

class TestLabelsFile:
    def test_round_trip_sorted(self, tmp_path):
        out = tmp_path / "l.csv"
        write_labels(str(out), [("s1", 2), ("s0", 1)])
        assert out.read_text() == "sample_id,label\ns0,1\ns1,2\n"
        data = read_labels(str(out))
        assert data.labels == {"s0": 1, "s1": 2}

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
        for sid in data.sample_ids:
            ens = data.ensembles[sid]
            assert ens.shape == (12, 3)
            np.testing.assert_allclose(ens.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(ens > 0.0)
            assert 0 <= data.labels[sid] < 3
            assert np.all(data.alphas[sid] > 0.0)
        again = generate(self.base())
        for sid in data.sample_ids:
            np.testing.assert_array_equal(data.ensembles[sid], again.ensembles[sid])
        shifted = generate(self.base(seed=6))
        assert any(
            not np.array_equal(data.ensembles[sid], shifted.ensembles[sid])
            for sid in data.sample_ids
        )

    # sha256 of probs, labels (int64) and alphas, each stacked in sample
    # order, as numpy 2.4 on x86-64 draws them.  K = 1000 reaches numpy's
    # pairwise summation in the row normalization.
    PINNED = [
        (dict(n=50, m=4, k=3, seed=11, scheme="fixed", alpha=np.array([3.0, 1.0, 0.5])),
         "4c88120917273a262be4830374c4d6ef296b57bd2e73f502bb93b4b3061acf47",
         "a0b37e77bc4c08c350b93885e04c92ae5675cdf22c5e1af721333bfcb477016e",
         "fbdbdec22f0a0c5a395ab3062a039ff25ec2e9c611265df62b826a21b96ede8b"),
        (dict(n=60, m=8, k=5, seed=3, scheme="two_population"),
         "938727b16c112d2caab747405c6cdef8b425f1339185ab00f734f56f742b3440",
         "9a51bdc26bf49b471343f4fc52246345c3b2262a94d0d069faffe622f3060cca",
         "b23a15e6cffcf1bc1efd03720333199cf5eb5dcbbabd232172a40f02f0f5e155"),
        (dict(n=30, m=6, k=4, seed=2, scheme="collapse"),
         "1f31d98f937a76003e0b9b4159e52845e929ace609fd42a8a052ceec1b0589d4",
         "93b4c81a1dd224dd4dbf8f7fb1035aeed2b60a6cd5ec52c8093832753ab097b8",
         "06f4b299da96e7959dfecf8bdd21e08f2ac3b1e2ab772551b167b314d34163fa"),
        (dict(n=4, m=3, k=1000, seed=9, scheme="two_population"),
         "16ff419b18070dd435de04c37b4bb1fb8d31420e6973bc2aee19965daa6db8bc",
         "dce15db80a067b4de03822f0be4d6be30b34c00e70f14e266bc10c18ae49e905",
         "fcdd91715f4879573de0b6f1a88757480efcac170a8ee5e7709d27f9b9548c6d"),
        (dict(n=200, m=1, k=10, seed=7, scheme="two_population"),
         "afb86c791cadceb7de6e4d9464e3e2ff595929f7ecab6984c0651662c425c7c3",
         "89eeea00496ac2bb1649177de60f4c9614eaf81f012a5b20c5a5c3a8128e0456",
         "b5ea1a0c84ebb404a126109e53359c114237eac6113ce1ac0268604f7871d630"),
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

    def test_ensembles_are_views_of_probs(self):
        data = generate(self.base())
        assert data.probs.shape == (40, 12, 3)
        for i, sid in enumerate(data.sample_ids):
            assert data.ensembles[sid].base is data.probs
            np.testing.assert_array_equal(data.ensembles[sid], data.probs[i])

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
