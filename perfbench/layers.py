"""Per-layer timing for the traced run.

The program's own tracer (``repro.obs``) already records spans for views,
canon, engine scheduling, LP chunks and HiGHS calls.  Layers with no span of
their own are timed by wrapping their public functions from here, so the
program itself is unchanged: the wrappers open an ordinary ``repro.obs``
span, which keeps the parent spans' self times honest.

Only the traced run installs the wrappers; importing this module imports
nothing of the program.
"""

from __future__ import annotations

import functools
import importlib
import math
from typing import Dict, List, Sequence

#: (module, class or None, attribute, span name).  A function imported by
#: name elsewhere is also patched in each listed importer.
_WRAPPED = (
    ("repro.engine.cache", "ResultCache", "get_with_tier", "engine.cache.get"),
    ("repro.engine.cache", "ResultCache", "put", "engine.cache.put"),
    ("repro.serve.service", "SolverService", "solve_scenario_json", "serve.service"),
    ("repro.scenarios.registry", None, "build_instance", "scenarios.build"),
    ("repro.core.safe", None, "safe_values_array", "core.safe"),
)
_IMPORTERS = {
    "build_instance": ("repro.scenarios.runner",),
    "safe_values_array": ("repro.scenarios.runner",),
}


def install_layer_spans() -> None:
    """Wrap the span-less layer entry points in ``repro.obs`` spans."""
    from repro.obs.trace import span

    def spanned(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    for module_name, class_name, attr, span_name in _WRAPPED:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        wrapped = spanned(span_name, getattr(owner, attr))
        setattr(owner, attr, wrapped)
        for importer in _IMPORTERS.get(attr, ()):
            setattr(importlib.import_module(importer), attr, wrapped)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ``values`` by the "higher" rule (0 when empty).

    An observed value, never an interpolation: with a suite's handful of
    scenarios the median is then one scenario's time, not a blend with a
    neighbour whose cost depends on the seed.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[math.ceil(q * (len(ordered) - 1))]


class StageTable:
    """Count, total, self time and durations per span name."""

    def __init__(self, spans) -> None:
        child_time: Dict[int, float] = {}
        for record in spans:
            if record.parent_id is not None:
                child_time[record.parent_id] = (
                    child_time.get(record.parent_id, 0.0) + record.duration
                )
        self.durations: Dict[str, List[float]] = {}
        self.self_time: Dict[str, float] = {}
        for record in spans:
            self.durations.setdefault(record.name, []).append(record.duration)
            self.self_time[record.name] = self.self_time.get(record.name, 0.0) + (
                record.duration - child_time.get(record.span_id, 0.0)
            )

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def self_s(self, name: str) -> float:
        return max(self.self_time.get(name, 0.0), 0.0)

    def ms(self, name: str, q: float) -> float:
        return quantile(self.durations.get(name, ()), q) * 1e3


def layer_metrics(table: StageTable, counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics one traced run yields (see ``README.md``)."""
    units = counters["engine.units"]
    return {
        "lp.highs.calls": table.count("lp.highs"),
        "lp.highs.s": table.total("lp.highs"),
        "lp.highs.p50_ms": table.ms("lp.highs", 0.5),
        "lp.highs.p99_ms": table.ms("lp.highs", 0.99),
        "lp.chunk.self_s": table.self_s("lp.chunk"),
        "canon.search.calls": table.count("canon.search"),
        "canon.search.s": table.total("canon.search"),
        "canon.search.p99_ms": table.ms("canon.search", 0.99),
        "canon.forms.self_s": table.self_s("canon.forms"),
        "views.balls.s": table.total("views.batch_balls"),
        "views.atlas.s": table.total("views.atlas.structures"),
        "core.averaging.self_s": table.self_s("core.averaging"),
        "core.safe.s": table.total("core.safe"),
        "scenarios.optima.s": table.total("suite.optima"),
        "scenarios.build.s": table.total("scenarios.build"),
        "engine.units": units,
        "engine.executed": counters["engine.executed"],
        "engine.dedup_saved": counters["engine.dedup_saved"],
        "engine.cache.puts": counters["engine.cache.puts"],
        "engine.schedule.self_s": table.self_s("engine.schedule"),
        "engine.cache.put.s": table.total("engine.cache.put"),
        "engine.cache.get.s": table.total("engine.cache.get"),
        "engine.dedup_ratio": counters["engine.dedup_saved"] / units if units else 0.0,
        "timed.lp.highs.calls": counters["timed.lp.highs.calls"],
        "timed.canon.search.calls": counters["timed.canon.search.calls"],
        "serve.service.p50_ms": table.ms("serve.service", 0.5),
        "trace.unattributed_s": (
            table.self_s("suite.run")
            + table.self_s("suite.scenario")
            + table.self_s("http.request")
        ),
    }
