"""The benchmark's workloads: each one is a chain of ``direns`` CLI commands.

Every workload starts with ``simulate --scheme two-population --seed <seed>``,
so the benchmark seed fixes every input.  The flags below are the workload
definition; README.md explains why each workload exists and which per-layer
metrics it is meant to move.
"""

from __future__ import annotations

from dataclasses import dataclass

# The commands that make up the report stage, timed together as report_s.
REPORT_COMMANDS = ("evaluate", "select", "losses")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    k: int
    # Extra ``fit`` flags, or None when the workload has no fit stage and the
    # report commands read the simulated ground-truth alphas instead.
    fit_flags: tuple | None

    @property
    def alphas_file(self) -> str:
        return "truth.csv" if self.fit_flags is None else "fits.csv"

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        """(command name, argv) pairs, relative to the run's working directory."""
        alphas = self.alphas_file
        chain = [
            (
                "simulate",
                ["simulate", "--scheme", "two-population",
                 "--n", str(self.n), "--m", str(self.m), "--k", str(self.k),
                 "--seed", str(seed),
                 "--preds-out", "preds.csv", "--labels-out", "labels.csv",
                 "--alphas-out", "truth.csv"],
            )
        ]
        if self.fit_flags is not None:
            chain.append(("fit", ["fit", "--preds", "preds.csv", *self.fit_flags, "--out", alphas]))
        chain += [
            ("evaluate", ["evaluate", "--alphas", alphas, "--labels", "labels.csv",
                          "--out", "report.json"]),
            ("select", ["select", "--alphas", alphas, "--labels", "labels.csv",
                        "--risk", "0.1", "--seed", str(seed),
                        "--out", "select.json", "--curve-out", "curve.csv"]),
            ("losses", ["losses", "--alphas", alphas, "--labels", "labels.csv",
                        "--loss", "mse-kl", "--lambda0", "1.0", "--epoch", "3",
                        "--epochs", "10", "--out", "losses.csv"]),
        ]
        return chain

    def outputs(self) -> dict[str, str]:
        """Output file -> the command that writes it."""
        files = {"preds.csv": "simulate", "labels.csv": "simulate", "truth.csv": "simulate",
                 "report.json": "evaluate", "select.json": "select", "curve.csv": "select",
                 "losses.csv": "losses"}
        if self.fit_flags is not None:
            files["fits.csv"] = "fit"
        return files


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's main loop at the a12 size; fit dominates, and in the fit
        # the scalar special functions do.  One thread: the pool gains nothing
        # (estimators.thread_speedup measures it), and with two threads
        # pipeline_s spread 23-25% over ten seeds on a shared 2-vCPU host,
        # against 7-14% with one.  The size keeps a chain near 3 s, so one run
        # times a dozen chains.
        Workload("ensemble-mle", n=500, m=50, k=7,
                 fit_flags=("--mode", "mom-mle", "--threads", "1")),
        # A 45 MB predictions CSV written and read back; the data path
        # dominates and the special functions never run in the fit.  Not in
        # BENCHMARK.json: see README.md.
        Workload("wide-mom", n=400, m=100, k=50, fit_flags=("--mode", "mom")),
        # Many rows and no estimator: per-row objects, reports and losses.  A
        # chain takes about 2 s, so one run times 15 or more.
        Workload("report-many", n=5000, m=1, k=10, fit_flags=None),
    )
}
