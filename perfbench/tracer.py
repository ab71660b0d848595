"""Tracing for the benchmark's traced run.

``Tracer.install`` wraps every public function of every ``direns`` module on
each name callers look it up by: ``direns.cli.fit_batch`` as well as
``direns.estimators.fit_batch``, and ``direns.specfun.digamma`` so calls made
inside ``inverse_digamma`` are caught too.  Public classes that validate on
construction (those with ``__post_init__``) get their ``__init__`` wrapped.

Each wrapped call adds to per-function aggregates (calls, inclusive time, self
time, and the calls and time of the outermost call of its layer).  Coarse calls
also record a span (name, start, end, parent span, thread); the scalar kernels
and per-row helpers run up to millions of times, so they keep the aggregates
only.  The layer of a function is its module's name, so ``layer_metrics``
turns the aggregates into the ``<module>.<metric>`` per-layer metrics.

Under a thread pool every thread keeps its own aggregates, merged at the end,
so counts stay exact.  Times are summed over threads, and each thread's time
includes its waits for the interpreter lock.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import threading
import time

LAYERS = (
    "specfun", "dirichlet", "estimators", "evidential", "calibration",
    "selective", "simulate", "fileio", "cli",
)

# Modules whose functions are called per scalar or per row.
AGGREGATE_ONLY_LAYERS = {"specfun", "dirichlet", "evidential"}
# Per-row callables of the other modules.
AGGREGATE_ONLY = {
    "estimators.EnsembleSample", "estimators.fit_mom", "estimators.fit_mle",
    "estimators.moments", "calibration.LabeledPrediction", "calibration.confidence",
    "calibration.correctness", "selective.ScoredSample", "selective.score",
    "selective.decide",
}
# format_float runs once per number written, 2 M times in wide-mom's simulate;
# a wrapper there would cost more than the writes it measures.  Its time
# counts in the writer that calls it.
UNWRAPPED = {"fileio.format_float"}

READERS = ("read_predictions", "read_alphas", "read_labels")
WRITERS = (
    "write_predictions", "write_labels", "write_alphas", "write_curve",
    "write_report", "atomic_write_text",
)
LOSSES = ("mse_loss", "digamma_loss", "mse_kl_loss", "log_evidence_penalty")

# Per-layer metrics that count work; they must repeat exactly for one seed.
COUNT_METRICS = (
    "fileio.bytes_read", "fileio.bytes_written", "fileio.rows_parsed",
    "estimators.mle_iterations", "estimators.mle_unconverged", "estimators.degenerate",
    "specfun.digamma_calls", "specfun.inverse_digamma_calls", "specfun.log_gamma_calls",
    "dirichlet.objects_built", "evidential.loss_calls",
)

# Aggregate slots: calls, inclusive s, self s, outermost-in-layer calls and s.
CALLS, TOTAL, SELF, OUTER_CALLS, OUTER_TOTAL = range(5)


class _ThreadState:
    def __init__(self) -> None:
        self.frames: list = []  # [child seconds, layer] per active wrapped call
        self.span_stack: list = []
        self.stats: dict = {}


def _path_arg(args: tuple, kwargs: dict) -> str:
    return kwargs["path"] if "path" in kwargs else args[0]


class Tracer:
    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._undo: list = []
        self._t0 = time.perf_counter()
        self.spans: list = []
        self.counts = {
            "fileio.bytes_read": 0, "fileio.bytes_written": 0, "fileio.rows_parsed": 0,
            "estimators.mle_iterations": 0, "estimators.mle_unconverged": 0,
            "estimators.degenerate": 0,
        }

    def _new_state(self) -> _ThreadState:
        state = _ThreadState()
        with self._lock:
            self._states.append(state)
        self._tls.state = state
        return state

    # ------------------------------------------------------------ hooks

    def _hook_read(self, args, kwargs, result) -> None:
        if hasattr(result, "model_ids"):
            rows = len(result.sample_ids) * len(result.model_ids)
        elif hasattr(result, "labels"):
            rows = len(result.labels)
        else:
            rows = len(result)
        self.counts["fileio.rows_parsed"] += rows
        self.counts["fileio.bytes_read"] += os.path.getsize(_path_arg(args, kwargs))

    def _hook_write(self, args, kwargs, result) -> None:
        self.counts["fileio.bytes_written"] += os.path.getsize(_path_arg(args, kwargs))

    def _hook_fit_batch(self, args, kwargs, results) -> None:
        for r in results:
            self.counts["estimators.mle_iterations"] += r.iterations_used or 0
            self.counts["estimators.mle_unconverged"] += r.converged is False
            self.counts["estimators.degenerate"] += bool(r.degenerate)

    def _hook_for(self, key: str):
        layer, name = key.split(".", 1)
        if layer == "fileio" and name in READERS:
            return self._hook_read
        if layer == "fileio" and name in WRITERS:
            return self._hook_write
        if key == "estimators.fit_batch":
            return self._hook_fit_batch
        return None

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, key: str, layer: str):
        tls = self._tls
        new_state = self._new_state
        clock = time.perf_counter
        spans = self.spans
        record_span = layer not in AGGREGATE_ONLY_LAYERS and key not in AGGREGATE_ONLY
        hook = self._hook_for(key)

        def wrapper(*args, **kwargs):
            state = getattr(tls, "state", None) or new_state()
            frames = state.frames
            parent_layer = frames[-1][1] if frames else None
            frame = [0.0, layer]
            frames.append(frame)
            if record_span:
                span = [key, 0.0, 0.0, state.span_stack[-1] if state.span_stack else None,
                        threading.get_ident()]
                spans.append(span)
                state.span_stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                stat = state.stats.get(key)
                if stat is None:
                    stat = state.stats[key] = [0, 0.0, 0.0, 0, 0.0]
                stat[CALLS] += 1
                stat[TOTAL] += elapsed
                stat[SELF] += elapsed - frame[0]
                if parent_layer != layer:
                    stat[OUTER_CALLS] += 1
                    stat[OUTER_TOTAL] += elapsed
                if record_span:
                    span[1], span[2] = t0, t1
                    state.span_stack.pop()
            if hook is not None and parent_layer != layer:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public callables of every direns module, on every name."""
        package = importlib.import_module("direns")
        modules = {layer: importlib.import_module(f"direns.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                key = f"{layer}.{name}"
                if key in UNWRAPPED:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, key, layer)
                elif inspect.isclass(obj) and hasattr(obj, "__post_init__"):
                    self._undo.append((obj, "__init__", obj.__init__))
                    obj.__init__ = self._wrap(obj.__init__, key, layer)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # ----------------------------------------------------------- results

    def stats(self) -> dict:
        """Aggregates merged over threads: key -> [calls, total, self, outer calls, outer total]."""
        merged: dict = {}
        for state in self._states:
            for key, stat in state.stats.items():
                into = merged.setdefault(key, [0, 0.0, 0.0, 0, 0.0])
                for i, value in enumerate(stat):
                    into[i] += value
        return merged

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines: name, start and end (s since install), parent index, thread."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, thread) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start - self._t0, "end": end - self._t0,
                    "parent": None if parent is None else index[id(parent)], "thread": thread,
                }) + "\n")


def layer_metrics(stats: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced chain from merged aggregates and counts.

    A layer that does not run on a workload reports 0 for its times, counts
    and rates.
    """
    zero = [0, 0.0, 0.0, 0, 0.0]

    def slot(key: str, i: int):
        return stats.get(key, zero)[i]

    def layer_self(layer: str) -> float:
        return sum(s[SELF] for k, s in stats.items() if k.split(".", 1)[0] == layer)

    read_s = sum(slot(f"fileio.{name}", TOTAL) for name in READERS)
    write_s = sum(slot(f"fileio.{name}", OUTER_TOTAL) for name in WRITERS)
    mb_read = counts["fileio.bytes_read"] / 1e6
    mb_written = counts["fileio.bytes_written"] / 1e6
    return {
        "fileio.read_predictions_s": slot("fileio.read_predictions", TOTAL),
        "fileio.read_alphas_s": slot("fileio.read_alphas", TOTAL),
        "fileio.read_labels_s": slot("fileio.read_labels", TOTAL),
        "fileio.write_s": write_s,
        "fileio.sha256_s": slot("fileio.sha256_of_file", TOTAL),
        "fileio.bytes_read": counts["fileio.bytes_read"],
        "fileio.bytes_written": counts["fileio.bytes_written"],
        "fileio.rows_parsed": counts["fileio.rows_parsed"],
        "fileio.read_mb_per_s": mb_read / read_s if read_s else 0.0,
        "fileio.write_mb_per_s": mb_written / write_s if write_s else 0.0,
        "estimators.sample_wrap_s": slot("estimators.EnsembleSample", TOTAL),
        "estimators.fit_batch_s": slot("estimators.fit_batch", TOTAL),
        "estimators.fit_mom_s": slot("estimators.fit_mom", TOTAL),
        "estimators.fit_mle_self_s": slot("estimators.fit_mle", SELF),
        "estimators.mle_iterations": counts["estimators.mle_iterations"],
        "estimators.mle_unconverged": counts["estimators.mle_unconverged"],
        "estimators.degenerate": counts["estimators.degenerate"],
        "specfun.self_s": layer_self("specfun"),
        "specfun.digamma_calls": slot("specfun.digamma", CALLS),
        "specfun.inverse_digamma_calls": slot("specfun.inverse_digamma", CALLS),
        "specfun.log_gamma_calls": slot("specfun.log_gamma", CALLS),
        "dirichlet.self_s": layer_self("dirichlet"),
        "dirichlet.objects_built": (
            slot("dirichlet.DirichletParams", CALLS) + slot("dirichlet.ProbabilityVector", CALLS)
        ),
        "calibration.report_s": slot("calibration.calibration_report", TOTAL),
        "calibration.reliability_bins_s": slot("calibration.reliability_bins", TOTAL),
        "selective.calibrate_threshold_s": slot("selective.calibrate_threshold", TOTAL),
        "selective.risk_coverage_curve_s": slot("selective.risk_coverage_curve", TOTAL),
        "selective.histograms_s": (
            slot("selective.variance_histograms", TOTAL) + slot("selective.variance_bin_edges", TOTAL)
        ),
        "selective.selective_report_s": slot("selective.selective_report", TOTAL),
        "evidential.loss_s": sum(slot(f"evidential.{name}", OUTER_TOTAL) for name in LOSSES),
        "evidential.loss_calls": sum(slot(f"evidential.{name}", OUTER_CALLS) for name in LOSSES),
        "simulate.generate_s": slot("simulate.generate", TOTAL),
        "cli.self_s": layer_self("cli"),
    }
