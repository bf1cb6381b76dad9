"""Run-time span wrappers around the library's layers, and the per-layer
metrics derived from the spans they record.

Nothing under ``src/`` is edited: :func:`install` replaces the public
functions and methods listed in :data:`LAYERS` with wrappers that record
a span (see :mod:`spans`) and call the original.  A module-level
function is replaced in every loaded ``repro`` module that imported it,
so ``from ..march.simulator import run_march`` call sites are covered
too.  Wrappers are installed only in the traced pass; the untraced pass
runs the library untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import weakref
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Tracer
from stats import percentile

__all__ = ["EXPERIMENTS", "LAYERS", "PER_LAYER", "Installed", "install",
           "per_layer_metrics"]

EXPERIMENTS = (
    "table1", "fig3", "fig4", "ablation", "fp_space",
    "escapes", "diagnosis", "march_pf", "bridges", "retention",
)

#: Materialized: one span record per call.
SPAN = "span"
#: Folded: calls/self/total summed per (parent span, layer).  For the
#: layers called up to millions of times per workload.
FOLD = "fold"

#: (layer, mode, module, attributes wrapped)
LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    *(
        (f"experiments.{name}", SPAN, f"repro.experiments.{name}",
         (f"run_{name}",))
        for name in EXPERIMENTS
    ),
    ("analysis.observe_grid", FOLD, "repro.core.analysis",
     ("ColumnFaultAnalyzer.observe_grid",)),
    ("analysis.observe", FOLD, "repro.core.analysis",
     ("ColumnFaultAnalyzer.observe",)),
    ("analysis.region_map", SPAN, "repro.core.analysis",
     ("ColumnFaultAnalyzer.region_map",)),
    ("completion.complete_fault", SPAN, "repro.core.completion",
     ("complete_fault",)),
    ("diagnosis.database_build", SPAN, "repro.core.diagnosis",
     ("SignatureDatabase.__init__",)),
    ("diagnosis.diagnose_defect", SPAN, "repro.core.diagnosis",
     ("SignatureDatabase.diagnose_defect",)),
    ("network.run", FOLD, "repro.circuit.network", ("Network.run",)),
    ("ensemble.run_grid", FOLD, "repro.circuit.network",
     ("NetworkEnsemble.run_grid", "NetworkEnsemble.run_grid_blocks",
      "NetworkEnsemble.run_grid_array")),
    ("column.ops", FOLD, "repro.circuit.column",
     ("DRAMColumn.read", "DRAMColumn.write", "DRAMColumn.precharge_cycle",
      "DRAMColumn.idle")),
    ("gridbatch.ops", FOLD, "repro.circuit.column",
     ("GridBatch.read", "GridBatch.write", "GridBatch.precharge_cycle",
      "GridBatch.snapshot", "GridBatch.restore")),
    ("memory.electrical", FOLD, "repro.memory.simulator",
     ("ElectricalMemory.read", "ElectricalMemory.write",
      "ElectricalMemory.tick", "ElectricalMemory.pause")),
    ("memory.functional", FOLD, "repro.memory.simulator",
     ("FaultyMemory.read", "FaultyMemory.write", "FaultyMemory.tick",
      "FaultyMemory.pause")),
    ("march.run", FOLD, "repro.march.simulator", ("run_march",)),
    ("march.generate", SPAN, "repro.march.generator", ("generate_march",)),
    ("march.coverage", SPAN, "repro.march.coverage", ("coverage_matrix",)),
    ("parallel.map", SPAN, "repro.parallel", ("parallel_map_ex",)),
    ("journal.append", SPAN, "repro.service.journal", ("JobJournal.append",)),
    ("store.put", SPAN, "repro.service.store", ("ResultStore.put",)),
    ("store.get", SPAN, "repro.service.store", ("ResultStore.get",)),
)

#: Every per-layer metric, in report order: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"experiments.{name}.s", "s", "lower") for name in EXPERIMENTS),
    ("analysis.observe_grid.calls", "count", "lower"),
    ("analysis.observe_grid.self_s", "s", "lower"),
    ("analysis.observe.calls", "count", "lower"),
    ("analysis.observe.self_s", "s", "lower"),
    ("analysis.region_map.self_s", "s", "lower"),
    ("analysis.cache_hit_ratio", "1", "higher"),
    ("completion.complete_fault.calls", "count", "lower"),
    ("completion.complete_fault.self_s", "s", "lower"),
    ("diagnosis.database_build.self_s", "s", "lower"),
    ("diagnosis.diagnose_defect.calls", "count", "lower"),
    ("diagnosis.diagnose_defect.self_s", "s", "lower"),
    ("network.run.calls", "count", "lower"),
    ("network.run.self_s", "s", "lower"),
    ("ensemble.run_grid.calls", "count", "lower"),
    ("ensemble.run_grid.self_s", "s", "lower"),
    ("network.propagator_hits", "count", "higher"),
    ("network.propagator_misses", "count", "lower"),
    ("network.propagator_hit_ratio", "1", "higher"),
    ("network.ensemble_hit_ratio", "1", "higher"),
    ("column.ops.calls", "count", "lower"),
    ("column.ops.self_s", "s", "lower"),
    ("gridbatch.ops.calls", "count", "lower"),
    ("gridbatch.ops.self_s", "s", "lower"),
    ("memory.electrical.ops", "count", "lower"),
    ("memory.electrical.self_s", "s", "lower"),
    ("memory.functional.ops", "count", "lower"),
    ("memory.functional.self_s", "s", "lower"),
    ("march.run.calls", "count", "lower"),
    ("march.run.self_s", "s", "lower"),
    ("march.operations", "count", "lower"),
    ("march.ops_per_s", "1/s", "higher"),
    ("march.generate.self_s", "s", "lower"),
    ("march.coverage.self_s", "s", "lower"),
    ("parallel.map.calls", "count", "lower"),
    ("parallel.map.units", "count", "lower"),
    ("parallel.map.s", "s", "lower"),
    ("service.submit_rtt_s.p50", "s", "lower"),
    ("service.result_fetch_s.p50", "s", "lower"),
    ("service.notify_lag_s.p50", "s", "lower"),
    ("queue.wait_s.p50", "s", "lower"),
    ("queue.wait_s.p90", "s", "lower"),
    ("queue.dedup_ratio", "1", "higher"),
    ("scheduler.run_s.p50", "s", "lower"),
    ("scheduler.overhead_s.p50", "s", "lower"),
    ("journal.append.calls", "count", "lower"),
    ("journal.append.self_s", "s", "lower"),
    ("store.put.calls", "count", "lower"),
    ("store.put.self_s", "s", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.self_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)


def _resolve(module: Any, path: str) -> Tuple[Any, str]:
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Installed:
    """The installed wrappers plus the state they gather."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: analyzer instance -> serial; serial -> latest cache_info().
        self._analyzers: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        self.analyzer_caches: Dict[int, Tuple[int, int]] = {}
        self._lock = threading.Lock()
        #: thread ident -> the open ``scheduler.job`` span context.
        self._job_spans: Dict[int, Any] = {}
        #: Wrapped entry points not found in the library.
        self.missing: List[str] = []

    # -- wrapper factories --------------------------------------------------

    def _spanned(self, layer: str, fn: Callable) -> Callable:
        tracer = self.tracer
        after = _SPAN_HOOKS.get(layer)
        experiment = layer.startswith("experiments.")

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(layer) as span:
                ctx = _cache_counts() if experiment and span else None
                result = fn(*args, **kwargs)
                if after is not None and span is not None:
                    after(self, span, ctx, args, kwargs, result)
                return result

        return wrapper

    def _folded(self, layer: str, fn: Callable) -> Callable:
        tracer = self.tracer
        state = tracer.state
        enter = tracer.enter
        leave = tracer.leave
        after = _FOLD_HOOKS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = state()
            frame = enter(st, layer)
            if frame is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(st, frame, perf_counter() - start)
            if after is not None:
                after(self, st, args, result)
            return result

        return wrapper

    def _claim(self, fn: Callable) -> Callable:
        """``JobQueue.claim``: scheduler-thread spans belong to the job
        the thread claimed last (trace id = job id, linked across threads
        to the client span that submitted it)."""
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ident = threading.get_ident()
            self._close_job_span(ident)
            job = fn(*args, **kwargs)
            if job is not None:
                ctx = tracer.span("scheduler.job", trace=job.id, link=job.id)
                ctx.__enter__()
                with self._lock:
                    self._job_spans[ident] = ctx
            return job

        return wrapper

    def _close_job_span(self, ident: int) -> None:
        with self._lock:
            ctx = self._job_spans.pop(ident, None)
        if ctx is not None:
            ctx.__exit__(None, None, None)

    # -- lifecycle ------------------------------------------------------------

    def install(self) -> "Installed":
        modules = {}
        for layer, mode, module_name, paths in LAYERS:
            module = modules.get(module_name)
            if module is None:
                module = modules[module_name] = importlib.import_module(
                    module_name
                )
            for path in paths:
                try:
                    owner, attr = _resolve(module, path)
                    original = owner.__dict__[attr]
                except (AttributeError, KeyError):
                    # Renamed or removed: the layer reads 0 and the run
                    # lists it, instead of the traced run failing.
                    self.missing.append(f"{module_name}.{path}")
                    continue
                make = self._spanned if mode == SPAN else self._folded
                self._replace(owner, attr, original, make(layer, original))
        from repro.service.queue import JobQueue

        self._replace(JobQueue, "claim", JobQueue.claim,
                      self._claim(JobQueue.claim))
        return self

    def _replace(self, owner: Any, attr: str, original: Any,
                 wrapper: Callable) -> None:
        """Swap ``original`` for ``wrapper`` on ``owner`` and, for module
        functions, in every loaded ``repro`` module that imported it."""
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("repro") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, wrapper)

    def finish(self) -> None:
        """Close scheduler job spans still open; compute self times."""
        for ident in list(self._job_spans):
            self._close_job_span(ident)
        self.tracer.finish()

    # -- gathered state -------------------------------------------------------

    def note_analyzer(self, analyzer: Any) -> None:
        with self._lock:
            serial = self._analyzers.get(analyzer)
            if serial is None:
                serial = self._analyzers[analyzer] = len(self.analyzer_caches)
            info = analyzer.cache_info()
            self.analyzer_caches[serial] = (info.hits, info.misses)


# -- per-layer hooks ------------------------------------------------------------

def _cache_counts() -> Tuple[int, int, int, int]:
    from repro.circuit.network import ensemble_cache_info, propagator_cache_info

    prop, ens = propagator_cache_info(), ensemble_cache_info()
    return prop.hits, prop.misses, ens.hits, ens.misses


def _experiment_after(inst: Installed, span: Any, before: tuple,
                      args: tuple, kwargs: dict, result: Any) -> None:
    after = _cache_counts()
    span.attrs.update(zip(
        ("propagator_hits", "propagator_misses", "ensemble_hits",
         "ensemble_misses"),
        (a - b for a, b in zip(after, before)),
    ))


def _parallel_after(inst: Installed, span: Any, ctx: Any, args: tuple,
                    kwargs: dict, result: Any) -> None:
    payloads = args[1] if len(args) > 1 else kwargs.get("payloads", ())
    span.attrs["units"] = len(payloads)


def _analyzer_span_after(inst: Installed, span: Any, ctx: Any, args: tuple,
                         kwargs: dict, result: Any) -> None:
    inst.note_analyzer(args[0])


def _analyzer_fold_after(inst: Installed, st: Any, args: tuple,
                         result: Any) -> None:
    inst.note_analyzer(args[0])


def _march_after(inst: Installed, st: Any, args: tuple, result: Any) -> None:
    st.counts["march.operations"] += result.operations


_SPAN_HOOKS: Dict[str, Callable] = {
    **{f"experiments.{name}": _experiment_after for name in EXPERIMENTS},
    "parallel.map": _parallel_after,
    "analysis.region_map": _analyzer_span_after,
}
_FOLD_HOOKS: Dict[str, Callable] = {
    "analysis.observe_grid": _analyzer_fold_after,
    "analysis.observe": _analyzer_fold_after,
    "march.run": _march_after,
}


def install(tracer: Tracer) -> Installed:
    """Wrap every layer in :data:`LAYERS`; returns the installation."""
    return Installed(tracer).install()


# -- metrics ---------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p(values: List[float], p: float) -> float:
    return percentile(values, p) if values else 0.0


def per_layer_metrics(inst: Installed,
                      served: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead_ratio``.

    A layer the workload never entered reads 0; a ratio with no base
    reads 0.  ``served`` is the served workload's client-side record
    (latency parts per submission, job records), if any.
    """
    inst.finish()
    tracer = inst.tracer
    layers = tracer.layer_summary()
    counts = tracer.counts()

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    out: Dict[str, float] = {}
    for name in EXPERIMENTS:
        out[f"experiments.{name}.s"] = layer(f"experiments.{name}", "total_s")
    for name in ("analysis.observe_grid", "analysis.observe"):
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.self_s"] = layer(name, "self_s")
    out["analysis.region_map.self_s"] = layer("analysis.region_map", "self_s")
    hits = sum(h for h, _ in inst.analyzer_caches.values())
    misses = sum(m for _, m in inst.analyzer_caches.values())
    out["analysis.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["completion.complete_fault.calls"] = layer(
        "completion.complete_fault", "calls")
    out["completion.complete_fault.self_s"] = layer(
        "completion.complete_fault", "self_s")
    out["diagnosis.database_build.self_s"] = layer(
        "diagnosis.database_build", "self_s")
    out["diagnosis.diagnose_defect.calls"] = layer(
        "diagnosis.diagnose_defect", "calls")
    out["diagnosis.diagnose_defect.self_s"] = layer(
        "diagnosis.diagnose_defect", "self_s")
    for name in ("network.run", "ensemble.run_grid"):
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.self_s"] = layer(name, "self_s")
    cache = {key: 0 for key in ("propagator_hits", "propagator_misses",
                                "ensemble_hits", "ensemble_misses")}
    for span in tracer.spans:
        if span.name.startswith("experiments."):
            for key in cache:
                cache[key] += span.attrs.get(key, 0)
    out["network.propagator_hits"] = cache["propagator_hits"]
    out["network.propagator_misses"] = cache["propagator_misses"]
    out["network.propagator_hit_ratio"] = _ratio(
        cache["propagator_hits"],
        cache["propagator_hits"] + cache["propagator_misses"])
    out["network.ensemble_hit_ratio"] = _ratio(
        cache["ensemble_hits"],
        cache["ensemble_hits"] + cache["ensemble_misses"])
    for name in ("column.ops", "gridbatch.ops"):
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.self_s"] = layer(name, "self_s")
    for name in ("memory.electrical", "memory.functional"):
        out[f"{name}.ops"] = layer(name, "calls")
        out[f"{name}.self_s"] = layer(name, "self_s")
    out["march.run.calls"] = layer("march.run", "calls")
    out["march.run.self_s"] = layer("march.run", "self_s")
    out["march.operations"] = counts.get("march.operations", 0)
    out["march.ops_per_s"] = _ratio(
        out["march.operations"], layer("march.run", "total_s"))
    out["march.generate.self_s"] = layer("march.generate", "self_s")
    out["march.coverage.self_s"] = layer("march.coverage", "self_s")
    out["parallel.map.calls"] = layer("parallel.map", "calls")
    out["parallel.map.units"] = sum(
        span.attrs.get("units", 0) for span in tracer.spans
        if span.name == "parallel.map"
    )
    out["parallel.map.s"] = layer("parallel.map", "total_s")
    out.update(_service_metrics(tracer, served or {}))
    for name in ("journal.append", "store.put", "store.get"):
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.self_s"] = layer(name, "self_s")
    return out


def _service_metrics(tracer: Tracer, served: Dict[str, Any]
                     ) -> Dict[str, float]:
    samples = served.get("samples", [])
    records = served.get("records", {})
    misses = [s for s in samples if s.get("kind") == "miss" and s.get("ok")]
    repeats = [s for s in samples if s.get("expect") == "hit"]
    experiment_s: Dict[str, float] = {}
    for span in tracer.spans:
        if span.name.startswith("experiments."):
            experiment_s[span.trace] = (
                experiment_s.get(span.trace, 0.0) + span.duration
            )
    waits, runs, overheads, lags = [], [], [], []
    for sample in misses:
        record = records.get(sample["job"])
        if not record or record.get("duration") is None:
            continue
        waits.append(record["started_at"] - record["submitted_at"])
        runs.append(record["duration"])
        if sample["job"] in experiment_s:
            overheads.append(record["duration"] - experiment_s[sample["job"]])
        lags.append(sample["stream_end"] - record["finished_at"])
    ok_samples = [s for s in samples if s.get("ok")]
    return {
        "service.submit_rtt_s.p50": _p(
            [s["submit_s"] for s in ok_samples], 50),
        "service.result_fetch_s.p50": _p(
            [s["fetch_s"] for s in ok_samples], 50),
        "service.notify_lag_s.p50": _p(lags, 50),
        "queue.wait_s.p50": _p(waits, 50),
        "queue.wait_s.p90": _p(waits, 90),
        "queue.dedup_ratio": _ratio(
            sum(1 for s in repeats if s.get("kind") == "hit"), len(repeats)),
        "scheduler.run_s.p50": _p(runs, 50),
        "scheduler.overhead_s.p50": _p(overheads, 50),
    }


def where_the_time_went(inst: Installed, top: int = 12) -> List[str]:
    """Human-readable self-time table, largest first."""
    layers = inst.tracer.layer_summary()
    total = sum(entry["self_s"] for entry in layers.values()) or 1.0
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    lines = [f"  {'layer':<28} {'self s':>9} {'share':>7} {'calls':>10}"]
    for name, entry in rows:
        lines.append(
            f"  {name:<28} {entry['self_s']:>9.3f} "
            f"{entry['self_s'] / total:>6.1%} {int(entry['calls']):>10d}"
        )
    return lines
