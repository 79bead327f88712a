"""End-to-end span propagation through the engine's worker pools.

The acceptance tests of the tracing tentpole: spans recorded inside
thread- and process-pool chunk workers must reattach under the engine
batch that submitted them, and a disabled tracer must see nothing at all.
"""

from __future__ import annotations

import pytest

from repro.engine import BatchSolver, ResultCache
from repro.obs.trace import Tracer, set_global_tracer, tracing
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec

SPEC = ScenarioSpec(family="cycle", params={"n": 8}, seed=1, radii=(1,))


def _run_traced(mode: str) -> Tracer:
    runner = SuiteRunner(
        engine=BatchSolver(mode=mode, max_workers=2, cache=ResultCache())
    )
    with tracing() as tracer:
        report = runner.run_suite([SPEC])
    assert len(report.results) == 1
    return tracer


def _assert_engine_tree(tracer: Tracer) -> None:
    spans = tracer.spans()
    by_id = {s.span_id: s for s in spans}
    names = {s.name for s in spans}

    # No orphans: every parent id resolves inside the same trace.
    for record in spans:
        if record.parent_id is not None:
            assert record.parent_id in by_id, (
                f"{record.name} has dangling parent {record.parent_id}"
            )

    # The full pipeline is present down to the individual HiGHS calls.
    for stage in ("suite.run", "engine.batch", "lp.chunk", "lp.highs"):
        assert stage in names, f"missing {stage} (got {sorted(names)})"

    def ancestors(record):
        while record.parent_id is not None:
            record = by_id[record.parent_id]
            yield record.name

    for record in spans:
        if record.name == "lp.chunk":
            assert "engine.batch" in ancestors(record)
        if record.name == "lp.highs":
            assert "lp.chunk" in ancestors(record)

    # Reattached worker spans sit inside their parent batch's window.
    batches = {
        s.span_id: s for s in spans if s.name == "engine.batch"
    }
    for record in spans:
        if record.name == "lp.chunk":
            parent = by_id[record.parent_id]
            assert parent.span_id in batches
            assert parent.start <= record.start + 1e-6
            assert record.end <= parent.end + 1e-6


@pytest.mark.parametrize("mode", ["serial", "thread", "process"])
def test_worker_spans_reattach_under_engine_batch(mode):
    tracer = _run_traced(mode)
    _assert_engine_tree(tracer)


def test_disabled_tracer_records_nothing():
    bystander = Tracer()
    set_global_tracer(None)
    runner = SuiteRunner(cache=ResultCache())
    runner.run_suite([SPEC])
    assert len(bystander) == 0
    assert set_global_tracer(None) is None  # nothing was installed behind us


def test_job_records_carry_stage_timings():
    """The scheduler persists per-job stage totals into the run registry."""
    from repro.engine import RunRegistry

    registry = RunRegistry()
    runner = SuiteRunner(
        engine=BatchSolver(cache=ResultCache(), registry=registry)
    )
    with tracing():
        runner.run_suite([SPEC])
    timed = [job for job in registry.jobs if "stage_timings" in job.meta]
    assert timed, "no job captured stage timings"
    stages = timed[-1].meta["stage_timings"]
    assert isinstance(stages, dict) and stages
    assert all(v >= 0.0 for v in stages.values())
