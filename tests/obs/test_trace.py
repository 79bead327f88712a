"""The tracer: span nesting, context propagation, exports, disabled path."""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import BatchSolver, ResultCache
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    _NULL_SPAN,
    Tracer,
    activate,
    capture_context,
    get_tracer,
    set_global_tracer,
    span,
    stage_summary,
    tracing,
)
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec


class TestDisabledPath:
    def test_span_returns_shared_null_handle(self):
        assert get_tracer() is None
        handle = span("anything", agents=3)
        assert handle is _NULL_SPAN
        with handle as inner:
            assert inner.tag(more=1) is _NULL_SPAN

    def test_disabled_spans_add_zero_entries(self):
        tracer = Tracer()
        for _ in range(10):
            with span("views.batch_balls", nodes=5):
                pass
        assert len(tracer) == 0

    def test_capture_context_is_none_when_disabled(self):
        assert capture_context() is None


class TestNesting:
    def test_parent_child_relationship(self):
        with tracing() as tracer:
            with span("outer", kind="suite"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        records = tracer.spans()
        assert [s.name for s in records] == ["outer", "inner", "inner"]
        outer, first, second = records
        assert outer.parent_id is None
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id
        assert outer.tags == {"kind": "suite"}

    def test_durations_are_monotonic_and_contained(self):
        with tracing() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
        outer, inner = tracer.spans()
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.duration >= inner.duration >= 0.0

    def test_tag_attaches_mid_span(self):
        with tracing() as tracer:
            with span("request") as handle:
                handle.tag(source="cache")
        (record,) = tracer.spans()
        assert record.tags == {"source": "cache"}

    def test_tracing_restores_previous_tracer(self):
        outer = Tracer()
        set_global_tracer(outer)
        try:
            with tracing() as inner:
                assert get_tracer() is inner
            assert get_tracer() is outer
        finally:
            set_global_tracer(None)
        assert get_tracer() is None


class TestThreadPropagation:
    def test_worker_thread_attaches_under_submitting_span(self):
        with tracing() as tracer:
            with span("engine.batch"):
                ctx = capture_context()

                def work() -> None:
                    with tracer.attach(ctx["parent"]):
                        with span("lp.chunk"):
                            pass

                worker = threading.Thread(target=work)
                worker.start()
                worker.join()
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["lp.chunk"].parent_id == by_name["engine.batch"].span_id

    def test_threads_grow_disjoint_stacks(self):
        """Concurrent threads of one tracer never steal each other's parents."""
        with tracing() as tracer:
            barrier = threading.Barrier(2)

            def work(name: str) -> None:
                with span(f"root.{name}"):
                    barrier.wait()
                    with span(f"child.{name}"):
                        pass

            threads = [
                threading.Thread(target=work, args=(name,))
                for name in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        by_name = {s.name: s for s in tracer.spans()}
        for name in ("a", "b"):
            assert by_name[f"child.{name}"].parent_id == (
                by_name[f"root.{name}"].span_id
            )
            assert by_name[f"root.{name}"].parent_id is None


class TestProcessReattachment:
    def test_export_reattach_rebases_and_reparents(self):
        """The worker-process round trip: export tuples, graft into parent."""
        worker = Tracer()
        with activate(worker):
            with span("lp.chunk", lps=4):
                with span("lp.highs"):
                    pass
        payload = worker.export_spans()
        assert all(isinstance(item, tuple) for item in payload)

        with tracing() as parent:
            with span("engine.batch"):
                anchor = parent.now()
                parent.reattach(
                    payload,
                    parent_id=parent.current_span_id(),
                    anchor=anchor,
                )
                # The real executor keeps the batch span open while its
                # workers run; emulate that so containment is checkable.
                time.sleep(0.002)
        by_name = {s.name: s for s in parent.spans()}
        batch = by_name["engine.batch"]
        chunk = by_name["lp.chunk"]
        highs = by_name["lp.highs"]
        assert chunk.parent_id == batch.span_id
        assert highs.parent_id == chunk.span_id
        assert chunk.tags == {"lps": 4}
        # Re-based onto the parent clock, inside the batch span.
        assert batch.start <= chunk.start <= chunk.end <= batch.end
        # Ids were re-issued from the parent tracer's counter: no collisions.
        ids = [s.span_id for s in parent.spans()]
        assert len(ids) == len(set(ids))

    def test_reattach_empty_payload_is_noop(self):
        tracer = Tracer()
        tracer.reattach([], parent_id=None, anchor=0.0)
        assert len(tracer) == 0


class TestActivateOverride:
    def test_override_routes_spans_away_from_global(self):
        with tracing() as global_tracer:
            local = Tracer()
            with activate(local):
                with span("debug.only"):
                    pass
            with span("global.only"):
                pass
        assert [s.name for s in local.spans()] == ["debug.only"]
        assert [s.name for s in global_tracer.spans()] == ["global.only"]

    def test_none_override_does_not_suppress_global(self):
        with tracing() as tracer:
            with activate(None):
                with span("still.recorded"):
                    pass
        assert [s.name for s in tracer.spans()] == ["still.recorded"]


class TestExports:
    def test_chrome_trace_events(self):
        with tracing() as tracer:
            with span("suite.run", suite="paper"):
                with span("lp.highs"):
                    pass
        payload = tracer.chrome_trace()
        events = payload["traceEvents"]
        assert [e["name"] for e in events] == ["suite.run", "lp.highs"]
        root, leaf = events
        assert root["ph"] == "X" and leaf["ph"] == "X"
        assert root["cat"] == "suite" and leaf["cat"] == "lp"
        assert "parent_id" not in root["args"]
        assert leaf["args"]["parent_id"] == root["args"]["span_id"]
        assert root["ts"] <= leaf["ts"]
        assert leaf["ts"] + leaf["dur"] <= root["ts"] + root["dur"] + 1e-3

    def test_stage_totals_since_mark(self):
        with tracing() as tracer:
            with span("before"):
                pass
            mark = tracer.mark()
            with span("after"):
                pass
        totals = tracer.stage_totals(since=mark)
        assert list(totals) == ["after"]

    def test_stage_summary_self_times_sum_to_root_total(self):
        with tracing() as tracer:
            with span("root"):
                with span("mid"):
                    with span("leaf"):
                        pass
                with span("leaf"):
                    pass
        rows = stage_summary(tracer.spans())
        root_total = next(r["total_s"] for r in rows if r["stage"] == "root")
        self_sum = sum(r["self_s"] for r in rows)
        assert self_sum == pytest.approx(root_total, abs=5e-6)
        for row in rows:
            assert set(row) == {
                "stage", "count", "total_s", "self_s", "p50_ms", "p99_ms"
            }


class TestHighsSpans:
    """perfbench's ``lp.highs.*`` layer metrics read one span per HiGHS call."""

    #: Randomly weighted scenarios whose local LPs are nearly all distinct.
    SPECS = [
        ScenarioSpec(
            "random_bounded_degree",
            params={
                "n_agents": 16,
                "max_resource_support": 4,
                "max_beneficiary_support": 3,
            },
            seed=3,
            radii=(1,),
        ),
        ScenarioSpec(
            "isp", params={"n_customers": 6, "n_routers": 3}, seed=5, radii=(1,)
        ),
    ]

    @pytest.mark.parametrize("strategy", ["per-lp", "stacked"])
    def test_one_span_per_call(self, strategy):
        calls = get_registry().counter("lp.highs.calls", "HiGHS invocations")
        before = calls.value
        with tracing() as tracer:
            SuiteRunner(
                engine=BatchSolver(cache=ResultCache(), lp_strategy=strategy)
            ).run_suite(self.SPECS)
        made = calls.value - before
        assert made > 0
        assert sum(s.name == "lp.highs" for s in tracer.spans()) == made
