"""One fresh process of the benchmark: set up, then run a workload's chain once.

``run.py`` starts this script for every chain it times, and for set-up-only
and probe processes.  Set-up runs from process start (the parent's clock
reading just before it started this process) through ``import direns`` and
creating the working directory.  The chain calls ``direns.cli.main`` once per
command and times each call.  Peak RSS is read before the output checks run,
so the checks do not count toward it.  A set-up-only process then times the
reference task (``reference.py``).  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time
import warnings

import direns.cli
from direns.fileio import RenormalizationWarning

from workloads import WORKLOADS, Workload


def _file_digests(names) -> dict[str, str | None]:
    out = {}
    for name in sorted(names):
        try:
            with open(name, "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            out[name] = None
    return out


def _run_chain(workload: Workload, seed: int, traced: bool, checks: bool) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stages: dict[str, float] = {}
    exit_codes: dict[str, object] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RenormalizationWarning)
        start = time.perf_counter()
        for name, argv in workload.commands(seed):
            t0 = time.perf_counter()
            try:
                exit_codes[name] = direns.cli.main(argv)
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                exit_codes[name] = f"{type(exc).__name__}: {exc}"
            stages[name] = time.perf_counter() - t0
        pipeline_s = time.perf_counter() - start
    out = {
        "stages": stages,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        tracer.write_spans("spans.jsonl")
        out["per_layer"] = layer_metrics(tracer.stats(), tracer.counts)
    out["digests"] = _file_digests(workload.outputs())
    if checks:
        from checks import check_outputs

        out["check_failures"] = check_outputs(workload, seed)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "chain", "traced", "probe"], required=True)
    parser.add_argument("--checks", type=int, default=0)
    parser.add_argument("--preds")
    args = parser.parse_args()

    os.makedirs(args.dir, exist_ok=True)
    result: dict = {"setup_s": time.perf_counter() - args.spawned_at}
    workload = WORKLOADS[args.workload]
    os.chdir(args.dir)
    if args.mode == "probe":
        import probes

        result["per_layer"] = probes.kernel_ns()
        result["per_layer"]["estimators.thread_speedup"] = probes.thread_speedup(
            workload, args.preds
        )
    elif args.mode == "setup":
        import reference

        result["reference_s"] = reference.reference_times()
    else:
        result.update(_run_chain(workload, args.seed, args.mode == "traced", bool(args.checks)))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
