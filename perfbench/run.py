"""Benchmark entry point for the direns CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble-mle --seed 1 --seconds 20 --trace 0

Every chain runs in a fresh ``worker.py`` process whose environment drops
``DIRENS_THREADS`` and pins the BLAS pools to one thread, so the only extra
threads are the ones a workload's ``--threads`` flag asks for.

``--trace 0`` runs the chain in new processes until ``--seconds`` have passed
(at least three times), checks the first run's outputs and that every later
run writes the same bytes.  After each chain a set-up-only process also times
the fixed task in ``reference.py``.  The end-to-end metrics are medians over
the run; the two times are scaled by the reference task's nominal time over
its median time in the run, so that a phase in which the shared host runs
everything slower cancels out.
``--trace 1`` runs the chain once untraced (checked) and twice traced,
then a probe process for the kernel microbenchmark and the thread speedup, and
reports the per-layer metrics; the two traced runs must agree exactly on every
count.  The last line of standard output is the JSON result; a record of the
run, with the environment and every raw figure, goes to
``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import REPORT_COMMANDS, WORKLOADS  # noqa: E402

WORK_DIR = ".bench_work"
MIN_CHAINS = 3
TRACED_CHAINS = 2
# Stop starting chains once a run has used this much wall time, so one run
# stays well inside its 180 s limit.
RUN_BUDGET_S = 120.0
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    """The checkout cannot run the benchmark."""


# Set in every worker's environment on top of PYTHONPATH=<checkout>/src;
# DIRENS_THREADS is removed, so a user's shell cannot change a thread count.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("DIRENS_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    env.update(CHILD_ENV)
    return env


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, scratch: Path, records: Path) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.name = f"{workload}-seed{seed}"
        self.scratch = scratch
        self.records = records
        self.env = _child_env(root)
        self._count = 0

    def spawn(self, mode: str, **extra) -> dict:
        """Start one worker process, wait for it, and return its result."""
        self._count += 1
        directory = self.scratch / f"p{self._count:03d}"
        result_path = self.scratch / f"p{self._count:03d}.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
                "--dir", str(directory), "--result", str(result_path),
                "--workload", self.workload, "--seed", str(self.seed)]
        for key, value in extra.items():
            argv += [f"--{key}", str(value)]
        spawned_at = time.perf_counter()
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=self.root,
                              env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise RunError(f"worker ({mode}) exited {proc.returncode}: " + " | ".join(tail))
        result = json.loads(result_path.read_text())
        result["dir"] = str(directory)
        return result


def _failed_commands(chain: dict, reference: dict | None, outputs: dict) -> dict[str, list[str]]:
    """Commands of one chain that exited nonzero, failed a check, or wrote other bytes."""
    failed = {name: [f"exit {code}"] for name, code in chain["exit_codes"].items() if code != 0}
    for name, messages in chain.get("check_failures", {}).items():
        failed.setdefault(name, []).extend(messages)
    if reference is not None:
        for path, digest in chain["digests"].items():
            if digest != reference["digests"][path]:
                failed.setdefault(outputs[path], []).append(f"{path} differs from the first run")
    return failed


def _tally(chains: list[dict], outputs: dict) -> tuple[int, int, list]:
    attempted, failures = 0, []
    for i, chain in enumerate(chains):
        attempted += len(chain["exit_codes"])
        failed = _failed_commands(chain, chains[0] if i else None, outputs)
        failures += [{"chain": i, "command": k, "why": v} for k, v in sorted(failed.items())]
    return attempted, len(failures), failures


def _stage_times(chain: dict) -> dict:
    """Stage times of one untraced chain; 0 for a stage the workload lacks."""
    stages = chain["stages"]
    return {
        "stage.simulate_s": stages["simulate"],
        "stage.fit_s": stages.get("fit", 0.0),
        "stage.report_s": sum(stages[name] for name in REPORT_COMMANDS),
    }


def run_end_to_end(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    chains, setups, references = [], [], []
    start = time.perf_counter()
    while len(chains) < MIN_CHAINS or time.perf_counter() - start < seconds:
        if chains and time.perf_counter() - start > RUN_BUDGET_S:
            break
        chain = runner.spawn("chain", checks=int(not chains))
        shutil.rmtree(chain["dir"], ignore_errors=True)
        chains.append(chain)
        # One set-up-only process after every chain spreads the set-up and
        # reference samples over the whole run.
        probe = runner.spawn("setup")
        shutil.rmtree(probe["dir"], ignore_errors=True)
        setups += [chain["setup_s"], probe["setup_s"]]
        references += probe["reference_s"]
    # Scale both times to the host speed of the reference task's nominal time;
    # see reference.py.
    scale = reference.NOMINAL_S / statistics.median(references)
    metrics = {
        "pipeline_s": statistics.median(chain["pipeline_s"] for chain in chains) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(chain["peak_rss_mb"] for chain in chains),
    }
    raw = {
        "chains": [{"pipeline_s": chain["pipeline_s"], "peak_rss_mb": chain["peak_rss_mb"],
                    "commands": chain["stages"], **_stage_times(chain)} for chain in chains],
        "setup_s": setups,
        "reference_s": references,
    }
    return metrics, chains, raw


def run_traced(runner: Runner) -> tuple[dict, list, dict, bool]:
    from tracer import COUNT_METRICS

    baseline = runner.spawn("chain", checks=1)
    chains = [baseline]
    for i in range(TRACED_CHAINS):
        traced = runner.spawn("traced")
        spans = Path(traced["dir"]) / "spans.jsonl"
        spans.replace(runner.records / f"{runner.name}-chain{i + 1}.spans.jsonl")
        shutil.rmtree(traced["dir"], ignore_errors=True)
        chains.append(traced)
    probe = runner.spawn("probe", preds=Path(baseline["dir"]) / "preds.csv")
    shutil.rmtree(baseline["dir"], ignore_errors=True)
    shutil.rmtree(probe["dir"], ignore_errors=True)

    layers = [chain["per_layer"] for chain in chains[1:]]
    counts = [{name: m[name] for name in COUNT_METRICS} for m in layers]
    counts_repeat = all(c == counts[0] for c in counts)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(counts[0])
    metrics.update(probe["per_layer"])
    metrics.update(_stage_times(baseline))
    traced_pipeline = statistics.median(chain["pipeline_s"] for chain in chains[1:])
    metrics["trace.overhead_frac"] = traced_pipeline / baseline["pipeline_s"] - 1.0
    raw = {"untraced_pipeline_s": baseline["pipeline_s"],
           "traced_pipeline_s": [chain["pipeline_s"] for chain in chains[1:]],
           "per_layer_by_chain": layers, "counts_repeat": counts_repeat}
    return metrics, chains, raw, counts_repeat


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(runner: Runner) -> dict:
    probe = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=runner.env, capture_output=True, text=True, timeout=60)
    return {
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() or "unavailable",
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": runner.seed,
        "child_env": {"removed": ["DIRENS_THREADS"], "PYTHONPATH": "src", **CHILD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "direns" / "cli.py").is_file():
        print(f"error: {root} holds no direns source tree (src/direns)", file=sys.stderr)
        return 2
    work = root / WORK_DIR
    scratch = work / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    records = work / "records"
    records.mkdir(exist_ok=True)
    runner = Runner(root, args.workload, args.seed, scratch, records)
    outputs = WORKLOADS[args.workload].outputs()
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, chains, raw, counts_repeat = run_traced(runner)
            units = {name: _per_layer_unit(name) for name in metrics}
        else:
            metrics, chains, raw = run_end_to_end(runner, args.seconds)
            counts_repeat = True
            units = END_TO_END_UNITS
        attempted, failed, failures = _tally(chains, outputs)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "wall_s": time.perf_counter() - started,
            "environment": _environment(runner), "failures": failures, "raw": raw,
            "metrics": metrics,
        }
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record_path = records / f"{runner.name}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in failures:
        print(f"failed: chain {failure['chain']} {failure['command']}: {failure['why']}",
              file=sys.stderr)
    if not counts_repeat:
        print("failed: traced counts differ between runs of one seed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _per_layer_unit(name: str) -> str:
    metric = name.split(".", 1)[1]
    if metric.endswith("_ns"):
        return "ns"
    if metric.endswith("_mb_per_s"):
        return "MB/s"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("bytes_"):
        return "bytes"
    if metric in ("thread_speedup", "overhead_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
