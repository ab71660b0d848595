"""End-to-end command-line workflows on temporary files."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from direns import cli
from direns.cli import main
from direns.dirichlet import DirichletParams, log_likelihood, predictive_mean, total_variance
from direns.fileio import read_alphas, read_labels, read_predictions
from direns.selective import ScoredSample, risk_coverage_curve


def run(*args: str) -> int:
    return main([str(a) for a in args])


def simulate(tmp_path, name="", **kw) -> dict:
    paths = {
        "preds": str(tmp_path / f"preds{name}.csv"),
        "labels": str(tmp_path / f"labels{name}.csv"),
        "alphas": str(tmp_path / f"truth{name}.csv"),
    }
    args = [
        "simulate",
        "--preds-out", paths["preds"],
        "--labels-out", paths["labels"],
        "--alphas-out", paths["alphas"],
    ]
    defaults = {"n": 50, "m": 20, "k": 3, "seed": 7, "scheme": "two-population"}
    defaults.update(kw)
    for key, value in defaults.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    assert run(*args) == 0
    return paths


class TestSimulateCommand:
    def test_rerun_is_byte_identical(self, tmp_path):
        first = simulate(tmp_path, "1")
        second = simulate(tmp_path, "2")
        for key in first:
            a = open(first[key], "rb").read()
            b = open(second[key], "rb").read()
            assert a == b

    def test_seed_changes_output(self, tmp_path):
        first = simulate(tmp_path, "1", seed=1)
        second = simulate(tmp_path, "2", seed=2)
        assert open(first["preds"]).read() != open(second["preds"]).read()

    def test_fixed_scheme_alpha_flag(self, tmp_path):
        paths = simulate(tmp_path, scheme="fixed", alpha="3,1,0.5")
        rows = read_alphas(paths["alphas"])
        for row in rows:
            np.testing.assert_array_equal(row.alpha, [3.0, 1.0, 0.5])

    def test_rejects_bad_alpha_string(self, tmp_path):
        code = run(
            "simulate",
            "--preds-out", tmp_path / "p.csv",
            "--labels-out", tmp_path / "l.csv",
            "--alphas-out", tmp_path / "a.csv",
            "--n", "5", "--m", "4", "--k", "2",
            "--scheme", "fixed", "--alpha", "3,oops",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--correct-alpha0", "1,inf"],
            ["--incorrect-alpha0=1e308,inf"],
            ["--scheme", "fixed", "--alpha", "1e308,1e308"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_range_is_one_error_line(self, tmp_path, flags):
        # A fresh interpreter, so that stderr shows any traceback or numpy
        # warning just as a user would see it.
        argv = ["simulate", "--preds-out", tmp_path / "p.csv", "--labels-out", tmp_path / "l.csv",
                "--alphas-out", tmp_path / "a.csv", "--n", "5", "--m", "4", "--k", "2",
                "--scheme", "two-population", *flags]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "direns.cli", *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
        assert "alpha" in lines[0]


class TestFitCommand:
    def test_mom_roughly_recovers_truth(self, tmp_path):
        paths = simulate(tmp_path, scheme="fixed", alpha="3,1,0.5", n=40, m=400)
        out = tmp_path / "fits.csv"
        assert run("fit", "--preds", paths["preds"], "--out", out) == 0
        rows = read_alphas(str(out))
        assert len(rows) == 40
        med = np.median([r.alpha.sum() for r in rows])
        assert med == pytest.approx(4.5, rel=0.3)

    def test_refinement_never_lowers_likelihood(self, tmp_path):
        paths = simulate(tmp_path, n=30, m=25, seed=3)
        mom_out = tmp_path / "mom.csv"
        mle_out = tmp_path / "mle.csv"
        assert run("fit", "--preds", paths["preds"], "--out", mom_out, "--mode", "mom") == 0
        assert run("fit", "--preds", paths["preds"], "--out", mle_out, "--mode", "mom-mle") == 0
        data = read_predictions(paths["preds"])
        mom_rows = {r.sample_id: r for r in read_alphas(str(mom_out))}
        mle_rows = {r.sample_id: r for r in read_alphas(str(mle_out))}
        for sid in data.sample_ids:
            probs = data.ensembles[sid]
            ll_mom = log_likelihood(mom_rows[sid].alpha, probs)
            ll_mle = log_likelihood(mle_rows[sid].alpha, probs)
            assert ll_mle >= ll_mom - 1e-9

    def test_warns_when_refinement_hits_max_iter(self, tmp_path, capsys):
        paths = simulate(tmp_path, n=12, m=50, k=7)
        out = tmp_path / "fits.csv"
        capsys.readouterr()
        assert run("fit", "--preds", paths["preds"], "--out", out, "--mode", "mom-mle") == 0
        assert capsys.readouterr().err == ""
        assert run("fit", "--preds", paths["preds"], "--out", out, "--mode", "mom-mle",
                   "--max-iter", "1") == 0
        assert capsys.readouterr().err == (
            "warning: 12 of 12 refined rows stopped at --max-iter 1 before converging\n")
        assert run("fit", "--preds", paths["preds"], "--out", out, "--mode", "mom") == 0
        assert capsys.readouterr().err == ""

    def test_paper_loop_converges_at_default_max_iter(self, tmp_path, capsys):
        # The a12 dataset: every refined row reaches the MLE within the
        # default --max-iter 20, so fit prints no warning.
        paths = simulate(tmp_path, n=500, m=50, k=7, seed=12)
        capsys.readouterr()
        assert run("fit", "--preds", paths["preds"], "--out", tmp_path / "fits.csv",
                   "--mode", "mom-mle") == 0
        assert capsys.readouterr().err == ""

    def test_degenerate_rows_are_flagged(self, tmp_path):
        lines = ["sample_id,model_id,p_0,p_1"]
        for m in range(3):
            lines.append(f"s0,m{m},0.9,0.1")
        for m in range(3):
            lines.append(f"s1,m{m},{0.5 + 0.01 * m},{0.5 - 0.01 * m}")
        preds = tmp_path / "p.csv"
        preds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "f.csv"
        assert run("fit", "--preds", preds, "--out", out, "--mode", "mom-mle") == 0
        rows = {r.sample_id: r for r in read_alphas(str(out))}
        assert rows["s0"].degenerate
        assert rows["s0"].alpha.sum() == pytest.approx(1e6, rel=1e-9)
        assert not rows["s1"].degenerate

    def test_models_limit_uses_leading_subset(self, tmp_path):
        paths = simulate(tmp_path, n=10, m=8)
        full = tmp_path / "full.csv"
        limited = tmp_path / "lim.csv"
        assert run("fit", "--preds", paths["preds"], "--out", full) == 0
        assert run("fit", "--preds", paths["preds"], "--out", limited, "--models-limit", "4") == 0
        data = read_predictions(paths["preds"])
        lim_rows = {r.sample_id: r for r in read_alphas(str(limited))}
        from direns.estimators import EnsembleSample, fit_mom

        for sid in data.sample_ids[:3]:
            expected = fit_mom(EnsembleSample(data.ensembles[sid][:4]))
            np.testing.assert_array_equal(lim_rows[sid].alpha, expected.params.alpha)

    def test_models_limit_validation(self, tmp_path):
        paths = simulate(tmp_path, n=5, m=6)
        out = tmp_path / "f.csv"
        assert run("fit", "--preds", paths["preds"], "--out", out, "--models-limit", "1") == 1
        assert run("fit", "--preds", paths["preds"], "--out", out, "--models-limit", "7") == 1


class TestEvaluateCommand:
    def test_report_structure_and_determinism(self, tmp_path):
        paths = simulate(tmp_path)
        fits = tmp_path / "fits.csv"
        assert run("fit", "--preds", paths["preds"], "--out", fits) == 0
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (r1, r2):
            code = run(
                "evaluate", "--alphas", fits, "--labels", paths["labels"], "--out", out
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()
        doc = json.loads(r1.read_text())
        assert set(doc) == {"metrics", "bins", "histograms", "selective", "provenance"}
        assert doc["selective"] is None
        assert 0.0 <= doc["metrics"]["accuracy"] <= 1.0
        assert len(doc["bins"]) == 10
        assert sum(b["count"] for b in doc["bins"]) == 50
        prov = doc["provenance"]
        assert prov["version"]
        assert set(prov["inputs"]) == {"alphas", "labels"}
        for entry in prov["inputs"].values():
            assert len(entry["sha256"]) == 64

    def test_single_model_predictions_path(self, tmp_path):
        lines = ["sample_id,model_id,p_0,p_1", "s0,m0,0.9,0.1", "s1,m0,0.2,0.8"]
        preds = tmp_path / "p.csv"
        preds.write_text("\n".join(lines) + "\n")
        labels = tmp_path / "l.csv"
        labels.write_text("sample_id,label\ns0,0\ns1,1\n")
        out = tmp_path / "r.json"
        assert run("evaluate", "--preds", preds, "--labels", labels, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["accuracy"] == 1.0

    def test_rejects_multi_model_predictions(self, tmp_path):
        paths = simulate(tmp_path)
        out = tmp_path / "r.json"
        code = run("evaluate", "--preds", paths["preds"], "--labels", paths["labels"], "--out", out)
        assert code == 1

    def test_collapse_masks_error_rate(self, tmp_path):
        paths = simulate(tmp_path, scheme="collapse", n=400, m=5, k=20, seed=2)
        out = tmp_path / "r.json"
        assert run("evaluate", "--alphas", paths["alphas"], "--labels", paths["labels"], "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["accuracy"] == pytest.approx(1.0 / 20.0, abs=0.05)
        assert doc["metrics"]["ece"] < 0.05


class TestThresholdAndSelect:
    def test_calibrate_threshold_report(self, tmp_path):
        paths = simulate(tmp_path, n=200, m=15)
        out = tmp_path / "t.json"
        code = run(
            "calibrate-threshold",
            "--alphas", paths["alphas"],
            "--labels", paths["labels"],
            "--risk", "0.2",
            "--out", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        block = doc["threshold"]
        assert block["target_risk"] == 0.2
        assert block["cal_n"] + block["test_n"] == 200
        assert abs(block["cal_n"] - 100) <= 3
        if block["cal_coverage"] > 0:
            assert block["achieved_cal_risk"] <= 0.2

    def test_select_with_explicit_tau_keeps_everything(self, tmp_path):
        paths = simulate(tmp_path, n=60, m=15)
        out = tmp_path / "s.json"
        curve = tmp_path / "c.csv"
        code = run(
            "select",
            "--alphas", paths["alphas"],
            "--labels", paths["labels"],
            "--tau", "inf",
            "--out", out,
            "--curve-out", curve,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        sel = doc["selective"]
        assert sel["tau"] == "inf"
        assert sel["coverage"] == 1.0
        assert sel["retained"]["n"] == 60
        assert sel["target_risk"] is None
        assert curve.read_text().startswith("coverage,risk,tau\n")

    def test_select_controls_risk_statistically(self, tmp_path):
        paths = simulate(tmp_path, n=800, m=10, seed=21)
        out = tmp_path / "s.json"
        code = run(
            "select",
            "--alphas", paths["alphas"],
            "--labels", paths["labels"],
            "--risk", "0.1",
            "--out", out,
        )
        assert code == 0
        sel = json.loads(out.read_text())["selective"]
        assert sel["cal_n"] + sel["test_n"] == 800
        if sel["retained"]["n"] > 0:
            test_risk = 1.0 - sel["retained"]["accuracy"]
            assert test_risk <= 0.15

    def test_split_seed_changes_partition(self, tmp_path):
        paths = simulate(tmp_path, n=100, m=10)
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        for out, seed in ((a, "1"), (b, "1"), (c, "2")):
            code = run(
                "select",
                "--alphas", paths["alphas"],
                "--labels", paths["labels"],
                "--seed", seed,
                "--out", out,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_tiny_input_fails_split(self, tmp_path):
        alphas = tmp_path / "a.csv"
        alphas.write_text("sample_id,degenerate,a_0,a_1\ns0,0,2.0,1.0\n")
        labels = tmp_path / "l.csv"
        labels.write_text("sample_id,label\ns0,0\n")
        out = tmp_path / "s.json"
        assert run("select", "--alphas", alphas, "--labels", labels, "--out", out) == 1


class TestRiskCoverageCommand:
    def test_matches_library_curve(self, tmp_path):
        paths = simulate(tmp_path, n=80, m=12)
        out = tmp_path / "rc.csv"
        assert run("risk-coverage", "--alphas", paths["alphas"], "--labels", paths["labels"], "--out", out) == 0
        labels = read_labels(paths["labels"]).labels
        samples = []
        for row in read_alphas(paths["alphas"]):
            d = DirichletParams(row.alpha)
            samples.append(ScoredSample(row.sample_id, predictive_mean(d), total_variance(d), labels[row.sample_id]))
        points = risk_coverage_curve(samples)
        lines = out.read_text().splitlines()
        assert lines[0] == "coverage,risk,tau"
        assert len(lines) == len(points) + 1
        for line, p in zip(lines[1:], points):
            cov, risk, tau = (float(x) for x in line.split(","))
            assert cov == p.coverage
            assert risk == p.risk
            assert tau == p.tau_at_point


class TestLossesCommand:
    def setup_files(self, tmp_path):
        alphas = tmp_path / "a.csv"
        alphas.write_text("sample_id,degenerate,a_0,a_1\ns0,0,2,2\n")
        labels = tmp_path / "l.csv"
        labels.write_text("sample_id,label\ns0,0\n")
        return alphas, labels

    def read_loss(self, path) -> dict:
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,loss"
        assert lines[-1].startswith("__dataset_mean__,")
        return {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}

    def test_mse_hand_value(self, tmp_path):
        alphas, labels = self.setup_files(tmp_path)
        out = tmp_path / "loss.csv"
        assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", "mse", "--out", out) == 0
        values = self.read_loss(out)
        assert values["s0"] == pytest.approx(0.6, abs=1e-12)
        assert values["__dataset_mean__"] == pytest.approx(0.6, abs=1e-12)

    def test_digamma_hand_value(self, tmp_path):
        alphas, labels = self.setup_files(tmp_path)
        out = tmp_path / "loss.csv"
        assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", "digamma", "--out", out) == 0
        assert self.read_loss(out)["s0"] == pytest.approx(5.0 / 6.0, abs=1e-10)

    def test_mse_kl_with_schedule(self, tmp_path):
        alphas, labels = self.setup_files(tmp_path)
        out = tmp_path / "loss.csv"
        code = run(
            "losses", "--alphas", alphas, "--labels", labels,
            "--loss", "mse-kl", "--lambda0", "0.5", "--epoch", "5", "--epochs", "10",
            "--out", out,
        )
        assert code == 0
        lam = 0.5 / 2.0 * 0.5
        expected = 0.6 + lam * (math.log(6.0) - 5.0 / 3.0)
        assert self.read_loss(out)["s0"] == pytest.approx(expected, rel=1e-10)

    def test_log_evidence_value(self, tmp_path):
        alphas, labels = self.setup_files(tmp_path)
        out = tmp_path / "loss.csv"
        assert run(
            "losses", "--alphas", alphas, "--labels", labels,
            "--loss", "log-ev", "--lambda0", "2.0", "--out", out,
        ) == 0
        assert self.read_loss(out)["s0"] == pytest.approx(2.0 * math.log1p(4.0), rel=1e-12)

    def test_schedule_flag_misuse(self, tmp_path):
        alphas, labels = self.setup_files(tmp_path)
        out = tmp_path / "loss.csv"
        assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", "mse", "--epoch", "3", "--out", out) == 1
        assert run(
            "losses", "--alphas", alphas, "--labels", labels,
            "--loss", "mse-kl", "--epoch", "3", "--out", out,
        ) == 1
        assert run(
            "losses", "--alphas", alphas, "--labels", labels,
            "--loss", "mse-kl", "--epoch", "11", "--epochs", "10", "--out", out,
        ) == 1

    @pytest.mark.parametrize("loss, row", [("mse-kl", "1,1e308")])
    def test_overflowing_loss_names_its_row(self, tmp_path, capsys, loss, row):
        alphas = tmp_path / "a.csv"
        alphas.write_text(f"sample_id,degenerate,a_0,a_1\ns0,0,2,2\ns1,0,{row}\n")
        labels = tmp_path / "l.csv"
        labels.write_text("sample_id,label\ns0,0\ns1,1\n")
        out = tmp_path / "loss.csv"
        with np.errstate(all="ignore"):
            code = run("losses", "--alphas", alphas, "--labels", labels, "--loss", loss,
                       "--lambda0", "1", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {alphas}: row 3: the {loss} loss overflows or loses its precision in a float\n"
        )
        assert not out.exists()

    def test_overflowing_mean_is_one_error_line(self, tmp_path, capsys):
        # Every row's log-ev loss is finite, but their sum is past the
        # largest float.
        alphas = tmp_path / "a.csv"
        alphas.write_text("sample_id,degenerate,a_0,a_1\n" + "".join(f"s{i:03d},0,0.25,0.25\n" for i in range(100)))
        labels = tmp_path / "l.csv"
        labels.write_text("sample_id,label\n" + "".join(f"s{i:03d},0\n" for i in range(100)))
        out = tmp_path / "loss.csv"
        code = run("losses", "--alphas", alphas, "--labels", labels, "--loss", "log-ev",
                   "--lambda0", "1e307", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: {alphas}: the mean log-ev loss overflows a float\n"
        assert not out.exists()

    def test_huge_concentrations_give_finite_mse(self, tmp_path):
        # alpha_0^2 overflows here; the variance and the loss must not.
        alphas = tmp_path / "a.csv"
        alphas.write_text("sample_id,degenerate,a_0,a_1\ns0,0,2,2\ns1,0,1e200,1e200\n")
        labels = tmp_path / "l.csv"
        labels.write_text("sample_id,label\ns0,0\ns1,1\n")
        out = tmp_path / "loss.csv"
        assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", "mse", "--out", out) == 0
        assert self.read_loss(out)["s1"] == 0.5

    def test_tiny_concentrations_give_finite_digamma(self, tmp_path):
        alphas = tmp_path / "a.csv"
        alphas.write_text("sample_id,degenerate,a_0,a_1\ns0,0,2,2\ns1,0,1e-300,1e-300\n")
        labels = tmp_path / "l.csv"
        labels.write_text("sample_id,label\ns0,0\ns1,1\n")
        out = tmp_path / "loss.csv"
        assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", "digamma", "--out", out) == 0
        # psi(2e-300) - psi(1e-300) is 5e299 to double precision.
        assert self.read_loss(out)["s1"] == pytest.approx(5e299, rel=1e-15)

    def test_huge_cap_fit_is_scored(self, tmp_path, capsys):
        # A zero-spread input fitted with a huge cap gets alpha_0 near the cap.
        paths = simulate(tmp_path, n=40, m=6, k=3)
        with open(paths["preds"], "a") as handle:
            handle.writelines(f"z0,m{j},0.5,0.3,0.2\n" for j in range(6))
        with open(paths["labels"], "a") as handle:
            handle.write("z0,0\n")
        fits = tmp_path / "fits.csv"
        assert run("fit", "--preds", paths["preds"], "--mode", "mom-mle", "--cap", "1e200", "--out", fits) == 0
        assert read_alphas(str(fits)).alpha[-1].sum() > 1e199
        common = ("--alphas", fits, "--labels", paths["labels"])
        assert run("select", *common, "--risk", "0.3", "--out", tmp_path / "s.json") == 0
        for loss in ("mse", "digamma", "log-ev"):
            out = tmp_path / f"{loss}.csv"
            assert run("losses", *common, "--loss", loss, "--lambda0", "1", "--out", out) == 0
            assert all(math.isfinite(v) for v in self.read_loss(out).values())
        assert self.read_loss(tmp_path / "mse.csv")["z0"] == pytest.approx(0.38, abs=1e-12)
        # The KL's terms cancel far past double precision there.
        capsys.readouterr()
        out = tmp_path / "mse-kl.csv"
        assert run("losses", *common, "--loss", "mse-kl", "--lambda0", "1", "--out", out) == 1
        row = len(read_alphas(str(fits)).sample_ids) + 1
        assert capsys.readouterr().err == (
            f"error: {fits}: row {row}: the mse-kl loss overflows or loses its precision in a float\n"
        )
        assert not out.exists()

    def test_ids_are_csv_quoted(self, tmp_path):
        alphas = tmp_path / "a.csv"
        alphas.write_text('sample_id,degenerate,a_0,a_1\n"a,b",0,2,2\n"say ""hi""",0,4,1\n')
        labels = tmp_path / "l.csv"
        labels.write_text('sample_id,label\n"a,b",0\n"say ""hi""",1\n')
        out = tmp_path / "loss.csv"
        assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", "mse", "--out", out) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows] == ["sample_id", "a,b", 'say "hi"', "__dataset_mean__"]
        assert float(rows[1][1]) == pytest.approx(0.6, abs=1e-12)

    def test_mean_row_averages_samples(self, tmp_path):
        alphas = tmp_path / "a.csv"
        alphas.write_text(
            "sample_id,degenerate,a_0,a_1\ns0,0,2,2\ns1,0,4,1\n"
        )
        labels = tmp_path / "l.csv"
        labels.write_text("sample_id,label\ns0,0\ns1,1\n")
        out = tmp_path / "loss.csv"
        assert run("losses", "--alphas", alphas, "--labels", labels, "--loss", "mse", "--out", out) == 0
        values = self.read_loss(out)
        assert values["__dataset_mean__"] == pytest.approx(
            (values["s0"] + values["s1"]) / 2.0, rel=1e-15
        )


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert run("fit", "--preds", tmp_path / "nope.csv", "--out", tmp_path / "o.csv") == 2

    def test_malformed_csv_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,model_id,p_0,p_1\ns0,m0,2.0,-1.0\n")
        assert run("fit", "--preds", bad, "--out", tmp_path / "o.csv") == 1

    def test_unknown_flag_is_validation_error(self, tmp_path):
        assert run("fit", "--nonsense") == 1

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("flags")
        paths = simulate(tmp, n=20, m=5)
        assert run("fit", "--preds", paths["preds"], "--out", tmp / "fits.csv") == 0
        return {**paths, "fits": str(tmp / "fits.csv"), "tmp": str(tmp)}

    FIT = ["fit", "--preds", "{preds}", "--out", "{tmp}/o.csv"]
    MISSING_FIT = ["fit", "--preds", "{tmp}/missing.csv", "--out", "{tmp}/o.csv"]
    MISSING_REPORT = ["--alphas", "{tmp}/missing.csv", "--labels", "{labels}", "--out", "{tmp}/o.json"]
    REPORT = ["--alphas", "{fits}", "--labels", "{labels}", "--out", "{tmp}/o.json"]
    LOSSES = ["losses", "--alphas", "{fits}", "--labels", "{labels}", "--out", "{tmp}/o.csv"]
    SIMULATE = [
        "simulate", "--preds-out", "{tmp}/p.csv", "--labels-out", "{tmp}/l.csv",
        "--alphas-out", "{tmp}/a.csv", "--m", "5", "--k", "3", "--scheme", "two-population",
    ]

    @pytest.mark.parametrize(
        "argv",
        [
            FIT + ["--threads", "0"],
            FIT + ["--cap", "-1"],
            FIT + ["--max-iter", "0"],
            FIT + ["--eps", "0"],
            ["evaluate", *REPORT, "--bins", "0"],
            ["evaluate", *REPORT, "--conf-threshold", "2"],
            ["select", *REPORT, "--bins", "0"],
            ["select", *REPORT, "--tau", "nan"],
            LOSSES + ["--loss", "mse-kl", "--lambda0", "-1"],
            LOSSES + ["--loss", "log-ev", "--lambda0", "-1"],
            LOSSES + ["--loss", "mse-kl", "--lambda0", "nan"],
            LOSSES + ["--loss", "mse-kl", "--lambda0", "1", "--epoch", "nan", "--epochs", "10"],
            LOSSES + ["--loss", "log-ev", "--lambda0", "inf"],
            SIMULATE + ["--n", "0"],
            SIMULATE + ["--n", "10", "--peak", "0.1"],
        ],
        ids=lambda argv: " ".join(a for a in argv if "{" not in a),
    )
    def test_bad_flag_value_is_validation_error(self, files, argv, capsys):
        assert main([a.format(**files) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--p-floor", "inf"), ("--p-floor", "1.5"), ("--p-floor", "1"),
                                             ("--eps", "inf")])
    def test_meaningless_fit_setting_is_one_error_line(self, files, capsys, flag, value):
        argv = [a.format(**files) for a in self.FIT] + ["--mode", "mom-mle", flag, value]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag} "), lines

    SETTING_ERRORS = [
        (FIT + ["--cap", "nan"], "--cap must be finite and > 0, got nan"),
        (FIT + ["--max-iter", "0"], "--max-iter must be at least 1, got 0"),
        (FIT + ["--eps", "0"], "--eps must be finite and > 0, got 0.0"),
        (FIT + ["--p-floor", "2"], "--p-floor must lie in (0, 1), got 2.0"),
        (["evaluate", *REPORT, "--bins", "0"], "--bins must be at least 1, got 0"),
        (["select", *REPORT, "--bins", "0"], "--bins must be at least 1, got 0"),
        (["evaluate", *REPORT, "--conf-threshold", "nan"], "--conf-threshold must lie in [0, 1], got nan"),
        (["select", *REPORT, "--conf-threshold", "-1"], "--conf-threshold must lie in [0, 1], got -1.0"),
        (LOSSES + ["--loss", "mse-kl", "--lambda0", "nan"], "--lambda0 must be finite and nonnegative, got nan"),
        (LOSSES + ["--loss", "mse-kl", "--epoch", "1", "--epochs", "0"],
         "--epochs must be finite and at least 1, got 0.0"),
        (LOSSES + ["--loss", "mse-kl", "--epoch", "-1", "--epochs", "10"],
         "--epoch must be finite and nonnegative, got -1.0"),
        (LOSSES + ["--loss", "mse-kl", "--epoch", "11", "--epochs", "10"], "--epoch 11.0 exceeds --epochs 10.0"),
        # Every setting is checked before any file is opened: these inputs
        # do not exist.
        (MISSING_FIT + ["--threads", "0"], "--threads must be at least 1, got 0"),
        (MISSING_FIT + ["--models-limit", "1"], "--models-limit must be at least 2, got 1"),
        (["select", *MISSING_REPORT, "--risk", "2"], "--risk must lie in (0, 1), got 2.0"),
        (["select", *MISSING_REPORT, "--cal-split", "1"], "--cal-split must lie in (0, 1), got 1.0"),
        (["select", *MISSING_REPORT, "--tau", "nan"], "--tau must be a number, got nan"),
        (["calibrate-threshold", *MISSING_REPORT, "--risk", "0"], "--risk must lie in (0, 1), got 0.0"),
        (["calibrate-threshold", *MISSING_REPORT, "--cal-split", "-0.5"], "--cal-split must lie in (0, 1), got -0.5"),
        # simulate names its flags, not the generator's parameters.
        (SIMULATE + ["--n", "0"], "--n must be at least 1, got 0"),
        (SIMULATE + ["--n", "10", "--m", "0"], "--m must be at least 1, got 0"),
        (SIMULATE + ["--n", "10", "--k", "1"], "--k must be at least 2, got 1"),
        (SIMULATE + ["--n", "10", "--scheme", "collapse", "--alpha0", "0"], "--alpha0 must be finite and > 0, got 0.0"),
        (SIMULATE + ["--n", "10", "--frac-incorrect", "2"], "--frac-incorrect must lie in [0, 1], got 2.0"),
        (SIMULATE + ["--n", "10", "--correct-alpha0", "1,inf"],
         "--correct-alpha0 must satisfy 0 < lo <= hi < inf, got (1.0, inf)"),
        (SIMULATE + ["--n", "10", "--incorrect-alpha0", "5,3"],
         "--incorrect-alpha0 must satisfy 0 < lo <= hi < inf, got (5.0, 3.0)"),
        (SIMULATE + ["--n", "10", "--peak", "0.1"], "--peak must lie in (1/K, 1) = (1/3, 1), got 0.1"),
        (SIMULATE + ["--n", "10", "--scheme", "fixed", "--alpha", "1,2"],
         "--alpha must be 3 finite positive values with a finite sum, got [1.0, 2.0]"),
        (SIMULATE + ["--n", "10", "--scheme", "fixed", "--alpha", "1e308,1e308,1"],
         "--alpha must be 3 finite positive values with a finite sum, got [1e+308, 1e+308, 1.0]"),
        (SIMULATE + ["--n", "10", "--scheme", "fixed"], "--alpha is required by --scheme fixed"),
        (SIMULATE + ["--n", "10", "--scheme", "fixed", "--alpha", ""], "--alpha is required by --scheme fixed"),
    ]

    @pytest.mark.parametrize("argv, message", SETTING_ERRORS,
                             ids=[" ".join(a for a in argv if "{" not in a) for argv, _ in SETTING_ERRORS])
    def test_setting_error_names_its_flag(self, files, capsys, argv, message):
        def written():
            return {p.name: p.stat().st_mtime_ns for p in Path(files["tmp"]).iterdir()}

        before = written()
        assert main([a.format(**files) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert written() == before

    @pytest.mark.parametrize("target", ["a directory", "in a missing directory"])
    def test_unwritable_output_names_its_path(self, files, tmp_path, capsys, target):
        # The temp file the write goes through is named at random; the error
        # names the path given, so each run prints the same line, and the
        # temp file is removed.
        out = tmp_path / "out"
        if target == "a directory":
            out.mkdir()
        else:
            out = out / "r.json"
        argv = ["evaluate", "--alphas", files["fits"], "--labels", files["labels"], "--out", out]
        errors = []
        for _ in range(2):
            assert run(*argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("i/o error: ") and repr(str(out)) in errors[0], errors[0]
        assert ".tmp-" not in errors[0]
        assert [p.name for p in tmp_path.rglob("*")] == (["out"] if target == "a directory" else [])

    def test_lambda0_is_free_where_the_loss_takes_no_weight(self, files):
        argv = [a.format(**files) for a in self.LOSSES] + ["--loss", "digamma", "--lambda0", "nan"]
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["select", *REPORT, "--tau", "0.1", "--risk", "2", "--cal-split", "0"],
        SIMULATE + ["--n", "10", "--scheme", "collapse", "--peak", "0.1", "--frac-incorrect", "2"],
        SIMULATE + ["--n", "10", "--scheme", "fixed", "--alpha", "1,2,3", "--alpha0", "nan"],
    ], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    def test_settings_a_command_does_not_read_are_free(self, files, argv):
        # select --tau skips the calibration, and each --scheme reads its own flags.
        assert main([a.format(**files) for a in argv]) == 0

    @pytest.mark.parametrize("fault", ["long field", "bad utf-8"])
    @pytest.mark.parametrize("target", ["preds", "fits", "labels"])
    def test_unreadable_csv_names_file_and_row(self, files, tmp_path, capsys, fault, target):
        lines = open(files[target], "rb").read().split(b"\n")
        if fault == "long field":
            lines[2] = b"x" * 200_000
        else:
            lines[2] = lines[2].replace(b",", b"\xff,", 1)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "o.out"
        argv = {
            "preds": ["fit", "--preds", bad, "--out", out],
            "fits": ["losses", "--alphas", bad, "--labels", files["labels"], "--loss", "mse", "--out", out],
            "labels": ["evaluate", "--alphas", files["fits"], "--labels", bad, "--out", out],
        }[target]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: row 3: ")
        assert "Traceback" not in err

    def test_help_and_version_succeed(self, capsys):
        assert run("--help") == 0
        assert run("--version") == 0
        out = capsys.readouterr().out
        assert "direns" in out


class TestParser:
    @staticmethod
    def outcome(argv) -> tuple:
        # (exit code, stdout, stderr) of main(argv).
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_one_command_parser_reads_as_the_full_one(self, command, monkeypatch):
        # Help and usage errors: --help, a missing required argument or
        # group (fit's --mode alone leaves --preds and --out missing), and
        # an unknown flag, which the top-level parser reports.
        cases = [[command, "--help"], [command], [command, "--nonsense"]]
        alone = [self.outcome(argv) for argv in cases]
        built = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: built())
        assert alone == [self.outcome(argv) for argv in cases]
        assert alone[0][0] == 0 and alone[0][1].startswith(f"usage: direns {command} ")
        assert all(code == 1 and err.startswith("error: direns") for code, _, err in alone[1:])

    @pytest.mark.parametrize("argv, built", [
        (["losses", "--help"], 1), (["fit", "--nonsense"], 1), (["--help"], 7), (["--version"], 7),
        ([], 7), (["nonsense"], 7), (["--version", "fit"], 7),
    ])
    def test_builds_the_parser_of_a_leading_command_only(self, argv, built, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw))
        self.outcome(argv)
        assert len(names) == built
