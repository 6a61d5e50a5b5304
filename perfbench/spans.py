"""In-memory span recorder and the layer wrappers of the traced run.

The benchmark records spans from its own files: :func:`install` replaces
the public entry point of each layer (a module function or a class
method) with a wrapper that opens a span around the call, and
:func:`uninstall` puts the originals back.  Nothing under ``src/`` knows
it is being traced, and untraced runs execute the unmodified program.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the span that was open when this one started (``-1`` at top level) and
``run`` is the id shared by every span of one operation.  Spans stay in
memory; :meth:`Recorder.write` dumps them once, at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "install", "uninstall", "layer_metrics", "PER_LAYER_METRICS"]

_clock = time.perf_counter


class Recorder:
    """Collects spans and per-span counts for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.runs: List[str] = []
        #: Per-span counts, keyed by span index: ``{index: {"candidates": 9}}``.
        self.counts: Dict[int, Dict[str, float]] = {}
        self.run = ""
        self._stack: List[int] = []
        #: Fitness pipelines created while recording (their stats() are read at the end).
        self.pipelines: List[Any] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack.pop()

    def count(self, index: int, key: str, value: float) -> None:
        self.counts.setdefault(index, {})[key] = value

    def write(self, path: str) -> None:
        """Write every span as one JSON line: ``[name, start, end, parent, run, counts]``."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                row = [
                    name,
                    self.starts[index],
                    self.ends[index],
                    self.parents[index],
                    self.runs[index],
                    self.counts.get(index, {}),
                ]
                handle.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #
#: A counter hook receives (args, kwargs, result) and returns {key: value}.
CountHook = Optional[Callable[[tuple, dict, Any], Dict[str, float]]]


def _wrap(recorder: Recorder, name: str, original: Callable, hook: CountHook) -> Callable:
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if hook is not None:
            for key, value in hook(args, kwargs, result).items():
                recorder.count(index, key, value)
        return result

    traced.__wrapped__ = original
    traced.__name__ = getattr(original, "__name__", name)
    return traced


def _arg(args: tuple, kwargs: dict, position: int, keyword: str) -> Any:
    return args[position] if len(args) > position else kwargs[keyword]


#: (module, function or class, method, span name, count hook) per layer entry point.
_TARGETS: List[Tuple[str, str, Optional[str], str, CountHook]] = [
    # repro.backends (engine), reached through the array's population entry.
    ("repro.array.systolic_array", "SystolicArray", "evaluate_population", "backends.eval",
     lambda a, k, r: {"candidates": len(_arg(a, k, 2, "genotypes"))}),
    # repro.ea (mutation).
    ("repro.ea.mutation", "mutate", None, "ea.mutate", lambda a, k, r: {"offspring": 1}),
    ("repro.ea.mutation", "PopulationMutator", "offspring", "ea.mutate",
     lambda a, k, r: {"offspring": len(r)}),
    ("repro.ea.mutation", "PopulationMutator", "mutate_flat", "ea.mutate",
     lambda a, k, r: {"offspring": 1}),
    # repro.ea (pipeline).
    ("repro.ea.pipeline", "FitnessPipeline", "evaluate_population", "ea.pipeline",
     lambda a, k, r: {"candidates": len(r)}),
    # repro.core.
    ("repro.core.evolution", "ParallelEvolution", "run", "core.driver", None),
    ("repro.core.evolution", "ArrayEvalContext", "place_population", "core.place", None),
    ("repro.core.evolution", "ArrayEvalContext", "__init__", "core.context_init", None),
    ("repro.core.platform", "EvolvableHardwarePlatform", "scrub_all", "core.scrub_all", None),
    # repro.array.
    ("repro.array.window", "extract_windows", None, "array.extract_windows", None),
    # repro.scenarios.
    ("repro.scenarios.schedule", "compile_schedule", None, "scenarios.compile", None),
    ("repro.scenarios.runner", "ScenarioRunner", "advance", "scenarios.advance",
     lambda a, k, r: {"events": len(r)}),
    # repro.backends.fitness_cache (persistent tier).
    ("repro.backends.fitness_cache", "PersistentFitnessCache", "lookup",
     "backends.persistent.lookup",
     lambda a, k, r: {"keys": len(_arg(a, k, 1, "keys")), "hits": len(r)}),
    ("repro.backends.fitness_cache", "PersistentFitnessCache", "publish",
     "backends.persistent.publish", lambda a, k, r: {"entries": r}),
    # repro.runtime.
    ("repro.runtime.engine", "run_campaign", None, "runtime.campaign", None),
    ("repro.runtime.engine", "execute_run_payload", None, "runtime.execute_run", None),
    ("repro.runtime.store", "CampaignStore", "record", "runtime.store.record", None),
    ("repro.runtime.store", "DedupeCache", "lookup", "runtime.dedupe.lookup",
     lambda a, k, r: {"hits": int(r is not None)}),
    ("repro.runtime.store", "DedupeCache", "publish", "runtime.dedupe.publish", None),
    ("repro.runtime.campaign", "RunSpec", "signature", "runtime.signature", None),
    # repro.api.
    ("repro.api.config", "TaskSpec", "build", "api.task_build", None),
    ("repro.api.config", "PlatformConfig", "build", "api.platform_build", None),
    ("repro.api.artifact", "RunArtifact", "to_dict", "api.artifact", None),
    ("repro.api.artifact", "RunArtifact", "from_dict", "api.artifact", None),
]


#: (owner, attribute, original) triples of the wrappers currently installed.
Installed = List[Tuple[Any, str, Any]]


def install(recorder: Recorder) -> Installed:
    """Wrap every layer entry point; returns what :func:`uninstall` restores.

    A module function is replaced in every loaded ``repro`` module that
    imported it by name, so callers holding ``from x import f`` see the
    wrapper too.  Class methods are replaced on the defining class.
    """
    import importlib

    from repro.ea.pipeline import FitnessPipeline

    installed: Installed = []
    for module_name, owner_name, method, span, hook in _TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name)
        if method is not None:
            original = owner.__dict__[method]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(recorder, span, original.__func__, hook))
            else:
                wrapped = _wrap(recorder, span, original, hook)
            setattr(owner, method, wrapped)
            installed.append((owner, method, original))
            continue
        wrapped = _wrap(recorder, span, owner, hook)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, owner_name, None) is owner
            ):
                setattr(loaded, owner_name, wrapped)
                installed.append((loaded, owner_name, owner))

    # Pipeline counters (hits, bypasses, racing) live on each instance;
    # remember the instances so their stats() can be summed at the end.
    init = FitnessPipeline.__dict__["__init__"]

    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.pipelines.append(self)

    FitnessPipeline.__init__ = register
    installed.append((FitnessPipeline, "__init__", init))
    return installed


def uninstall(installed: Installed) -> None:
    """Restore every original the matching :func:`install` replaced."""
    for owner, attribute, original in reversed(installed):
        setattr(owner, attribute, original)
    installed.clear()


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
#: Every per-layer metric name, in report order.
PER_LAYER_METRICS: Tuple[str, ...] = (
    "backends.eval.calls",
    "backends.eval.candidates",
    "backends.eval.busy_s",
    "backends.eval.us_per_candidate",
    "ea.mutate.calls",
    "ea.mutate.offspring",
    "ea.mutate.busy_s",
    "ea.pipeline.calls",
    "ea.pipeline.candidates",
    "ea.pipeline.self_s",
    "ea.pipeline.hits",
    "ea.pipeline.misses",
    "ea.pipeline.bypasses",
    "ea.pipeline.full_evaluations",
    "ea.pipeline.partial_evaluations",
    "ea.pipeline.racing_rejected",
    "ea.pipeline.hit_ratio",
    "ea.pipeline.full_eval_ratio",
    "core.driver.self_s",
    "core.place.calls",
    "core.place.busy_s",
    "core.context_init.calls",
    "core.context_init.busy_s",
    "core.scrub_all.calls",
    "core.scrub_all.busy_s",
    "array.extract_windows.calls",
    "array.extract_windows.busy_s",
    "scenarios.compile.busy_s",
    "scenarios.advance.calls",
    "scenarios.advance.events",
    "scenarios.advance.busy_s",
    "backends.persistent.lookup.calls",
    "backends.persistent.lookup.keys",
    "backends.persistent.lookup.hits",
    "backends.persistent.lookup.busy_s",
    "backends.persistent.publish.calls",
    "backends.persistent.publish.entries",
    "backends.persistent.publish.busy_s",
    "backends.persistent.index_bytes",
    "runtime.campaign.self_s",
    "runtime.execute_run.calls",
    "runtime.execute_run.self_s",
    "runtime.store.record.calls",
    "runtime.store.record.busy_s",
    "runtime.dedupe.lookup.calls",
    "runtime.dedupe.lookup.hits",
    "runtime.dedupe.lookup.busy_s",
    "runtime.dedupe.publish.calls",
    "runtime.dedupe.publish.busy_s",
    "runtime.signature.busy_s",
    "api.task_build.busy_s",
    "api.platform_build.busy_s",
    "api.artifact.busy_s",
    "host.wait_s",
    "trace.overhead_frac",
)

_PIPELINE_COUNTERS = (
    "hits", "misses", "bypasses", "full_evaluations", "partial_evaluations", "racing_rejected",
)


def span_totals(recorder: Recorder) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s``, ``self_s`` and the summed counts.

    A span whose ancestors include a span of the same name is part of that
    entry (``PopulationMutator.offspring`` calling ``mutate_flat``): it adds
    to the name's ``self_s`` but not to ``calls``, ``busy_s`` or counts.
    ``self_s`` is a span's duration minus the time its child spans cover.
    """
    names, starts, ends, parents = recorder.names, recorder.starts, recorder.ends, recorder.parents
    n = len(names)
    child_time = [0.0] * n
    for index in range(n):
        parent = parents[index]
        if parent >= 0:
            child_time[parent] += ends[index] - starts[index]
    totals: Dict[str, Dict[str, float]] = {}
    for index in range(n):
        name = names[index]
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = ends[index] - starts[index]
        entry["self_s"] += duration - child_time[index]
        ancestor = parents[index]
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor >= 0:
            continue
        entry["calls"] += 1
        entry["busy_s"] += duration
        for key, value in recorder.counts.get(index, {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value of one traced pass over the workload.

    ``backends.persistent.index_bytes``, ``host.wait_s`` and
    ``trace.overhead_frac`` are not span measurements; they come out as 0
    and the caller fills them in.
    """
    totals = span_totals(recorder)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    values: Dict[str, float] = {}
    for metric in PER_LAYER_METRICS:
        layer, _, key = metric.rpartition(".")
        values[metric] = get(layer, key)
    pipeline = {key: 0 for key in _PIPELINE_COUNTERS}
    for instance in recorder.pipelines:
        stats = instance.stats()
        for key in _PIPELINE_COUNTERS:
            pipeline[key] += stats[key]
    for key, value in pipeline.items():
        values[f"ea.pipeline.{key}"] = value
    candidates = values["ea.pipeline.candidates"]
    values["ea.pipeline.hit_ratio"] = values["ea.pipeline.hits"] / candidates if candidates else 0.0
    values["ea.pipeline.full_eval_ratio"] = (
        values["ea.pipeline.full_evaluations"] / candidates if candidates else 0.0
    )
    evaluated = values["backends.eval.candidates"]
    values["backends.eval.us_per_candidate"] = (
        1e6 * values["backends.eval.busy_s"] / evaluated if evaluated else 0.0
    )
    return values
