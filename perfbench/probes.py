"""The traced run's probe process: the specfun kernel microbenchmark and the
fit thread-pool speedup, both measured without tracing.

The kernel microbenchmark times the public scalar ``digamma``,
``inverse_digamma`` and ``log_gamma`` over fixed seeded argument sets that span
the documented domain [1e-6, 1e8]; the ``inverse_digamma`` set also holds
arguments above 709, where ``exp`` of the initializer would overflow.  The
sets do not depend on the workload seed, so the figures compare across runs.
"""

from __future__ import annotations

import math
import statistics
import time
import warnings

import numpy as np

from direns import EnsembleSample, digamma, fit_batch, inverse_digamma, log_gamma
from direns.fileio import RenormalizationWarning, read_predictions

from workloads import Workload

KERNEL_SEED = 20260417
KERNEL_REPEATS = 7
DOMAIN = (1e-6, 1e8)
# Arguments per repeat, sized so one repeat takes some tens of milliseconds.
KERNEL_SIZES = {"digamma": 20000, "inverse_digamma": 2000, "log_gamma": 50000}
SPEEDUP_ROWS = 1000
SPEEDUP_SECONDS = 1.0


def kernel_arguments() -> dict[str, list[float]]:
    rng = np.random.default_rng(KERNEL_SEED)
    lo, hi = (math.log(v) for v in DOMAIN)

    def log_uniform(n: int) -> list[float]:
        return np.exp(rng.uniform(lo, hi, n)).tolist()

    n_inv = KERNEL_SIZES["inverse_digamma"]
    n_large = n_inv // 20
    inverse_args = [digamma(x) for x in log_uniform(n_inv - n_large)]
    inverse_args += rng.uniform(709.5, 750.0, n_large).tolist()
    return {
        "digamma": log_uniform(KERNEL_SIZES["digamma"]),
        "inverse_digamma": inverse_args,
        "log_gamma": log_uniform(KERNEL_SIZES["log_gamma"]),
    }


def kernel_ns() -> dict[str, float]:
    """Median ns per argument of each scalar kernel, over KERNEL_REPEATS passes."""
    functions = {"digamma": digamma, "inverse_digamma": inverse_digamma, "log_gamma": log_gamma}
    out = {}
    for name, args in kernel_arguments().items():
        fn = functions[name]
        per_arg = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            for x in args:
                fn(x)
            per_arg.append((time.perf_counter() - t0) / len(args) * 1e9)
        out[f"specfun.{name}_ns"] = statistics.median(per_arg)
    return out


def thread_speedup(workload: Workload, preds_path: str) -> float:
    """fit_batch time at 1 thread over the time at 2, on the workload's own fit.

    Uses up to SPEEDUP_ROWS evenly spaced rows of the predictions and
    alternates the two thread counts.  A workload without a fit reports 0.
    """
    if workload.fit_flags is None:
        return 0.0
    mode = "mom_then_mle" if "mom-mle" in workload.fit_flags else "mom"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RenormalizationWarning)
        data = read_predictions(preds_path)
    step = max(1, len(data.sample_ids) // SPEEDUP_ROWS)
    samples = [EnsembleSample(data.ensembles[sid]) for sid in data.sample_ids[::step]]

    def timed(threads: int) -> float:
        t0 = time.perf_counter()
        fit_batch(samples, mode, n_threads=threads)
        return time.perf_counter() - t0

    first = timed(1)
    pairs = max(2, min(10, math.ceil(SPEEDUP_SECONDS / first)))
    times = {1: [first], 2: []}
    for i in range(2 * pairs - 1):
        threads = 2 if i % 2 == 0 else 1
        times[threads].append(timed(threads))
    return statistics.median(times[1]) / statistics.median(times[2])
