"""Chaos tests: injected faults exercising the resilience layer end to end.

Every test installs a seeded :class:`FaultPlan` and asserts two things at
once -- that the fault actually fired (``plan.injected() > 0``; a chaos
test that injects nothing proves nothing) and that the pipeline's answer
is exactly what the fault-free run produces (retry masking, containment,
quarantine) or fails in exactly the contained way it should.
"""

from __future__ import annotations

import threading
import time

import pytest

import cache_rows
from repro import BatchSolver, ResultCache, UnboundedError, cycle_instance
from repro.engine.scheduler import RequestScheduler
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    inject,
    install_plan,
)
from repro.obs.metrics import get_registry
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec

#: Fast deterministic policy for the scheduler-level chaos tests: three
#: attempts, no real sleeping, retries only the injected transients.
POLICY = RetryPolicy(
    attempts=3, base_delay=0.0, jitter=0.0, retry_on=(InjectedFault,)
)


def _flaky_solve(units):
    """Solve callback that consults the HiGHS seam once per attempt."""

    def attempt():
        inject("lp.highs.call")
        return "solved"

    return [(POLICY.call(attempt), 0.0) for _ in units]


class TestSchedulerUnderChaos:
    def test_owner_failure_reaches_coalesced_waiter_then_recovers(self):
        """The abandoned-flight path under injected faults (issue item).

        Two concurrent requests for the same key: the owner's solve
        exhausts its retries on injected faults, so the flight fails and
        both the owner *and* the attached waiter see the identical
        InjectedFault -- while nothing poisons the cache.  The very next
        request for the same key succeeds: the failed flight was removed,
        and the plan's ``max_injections`` cap turns the fault transient so
        the retry layer masks it.
        """
        cache = ResultCache()
        scheduler = RequestScheduler(cache=cache)
        # 3 attempts burn injections 1-3 (request fails); the 4th and last
        # injection hits the follow-up request's first attempt, whose retry
        # is then clean: exactly one masked retry, then success.
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="lp.highs.call", probability=1.0, max_injections=4
                )
            ],
            seed=1,
        )

        def patient_solve(units):
            # Hold the flight open until the second thread has attached, so
            # the coalescing interleaving is deterministic, not a race.
            deadline = time.monotonic() + 5.0
            while scheduler.stats.coalesced < 1:
                if time.monotonic() > deadline:  # pragma: no cover
                    raise AssertionError("waiter never attached")
                time.sleep(0.001)
            return _flaky_solve(units)

        arrived = threading.Barrier(2)
        errors = []

        def request():
            arrived.wait()
            try:
                scheduler.run(
                    ["shared-key"],
                    [lambda: "unit"],
                    kind="chaos",
                    solve=patient_solve,
                )
            except InjectedFault as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=request) for _ in range(2)]
        with install_plan(plan):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert len(errors) == 2, f"both requests must fail, got {errors}"
        assert plan.injected() == 3
        assert scheduler._flights == {}, "failed flight must not linger"
        assert cache.get("shared-key") is None, "failures must not be cached"

        # Recovery: same key, fault now transient (one injection left).
        with install_plan(plan):
            (payload,) = scheduler.run(
                ["shared-key"], [lambda: "unit"], kind="chaos",
                solve=_flaky_solve,
            )
        assert payload == "solved"
        assert plan.injected() == 4
        assert cache.get("shared-key") == "solved"

    def test_waiter_on_truly_abandoned_flight_fails_loudly(self):
        """A builder that dies abandons its flight; the waiter is released
        with a RuntimeError instead of hanging forever."""
        scheduler = RequestScheduler(cache=ResultCache())
        owner_claimed = threading.Event()
        release_builder = threading.Event()
        outcomes = {}

        def dying_builder():
            owner_claimed.set()
            if not release_builder.wait(timeout=5.0):  # pragma: no cover
                raise AssertionError("waiter never arrived")
            raise InjectedFault("builder died before solving")

        def owner():
            try:
                scheduler.run(
                    ["doomed"], [dying_builder], kind="chaos",
                    solve=_flaky_solve,
                )
            except InjectedFault as exc:
                outcomes["owner"] = str(exc)

        def waiter():
            owner_claimed.wait(timeout=5.0)
            try:
                scheduler.run(
                    ["doomed"], [lambda: "unit"], kind="chaos",
                    solve=_flaky_solve,
                )
            except (InjectedFault, RuntimeError) as exc:
                outcomes["waiter"] = str(exc)

        threads = [
            threading.Thread(target=owner),
            threading.Thread(target=waiter),
        ]
        for thread in threads:
            thread.start()
        # The waiter records its attachment (stats.coalesced) just before
        # blocking on the owner's flight; only then let the builder die, so
        # the abandoned-flight interleaving is deterministic.
        deadline = time.monotonic() + 5.0
        while scheduler.stats.coalesced < 1:
            if time.monotonic() > deadline:  # pragma: no cover
                raise AssertionError("waiter never attached")
            time.sleep(0.001)
        release_builder.set()
        for thread in threads:
            thread.join()

        assert outcomes["owner"] == "builder died before solving"
        assert "abandoned" in outcomes["waiter"]
        assert scheduler._flights == {}


class TestRetryMasking:
    def test_transient_highs_faults_leave_results_bit_identical(self):
        """The committed CI plan injects real faults yet changes nothing."""
        specs = [
            ScenarioSpec(family="cycle", params={"n": 8}, radii=(1, 2)),
            ScenarioSpec(family="path", params={"n": 9}, radii=(1,)),
        ]
        clean = [
            r.as_dict() for r in SuiteRunner(cache=ResultCache()).run(specs)
        ]
        plan = FaultPlan.load("benchmarks/fault_plan_ci.json")
        retries = get_registry().counter("engine.retries")
        before = retries.value
        with install_plan(plan):
            chaos = [
                r.as_dict()
                for r in SuiteRunner(cache=ResultCache()).run(specs)
            ]
        assert plan.injected() > 0, "the chaos run must actually inject"
        assert retries.value > before, "injections must be retry-absorbed"
        for record in (*clean, *chaos):
            record.pop("seconds")
        assert chaos == clean

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_masking_holds_across_execution_modes(self, mode, tmp_path):
        """Same plan, pooled engine, disk-tier cache: still bit-identical.

        (Process mode consults the HiGHS seam inside workers that have no
        plan installed; the parent-side cache seams still fire.  Thread
        workers share the installed plan, making this the stronger mode.)
        """
        spec = ScenarioSpec(family="cycle", params={"n": 10}, radii=(1, 2))
        clean = next(iter(SuiteRunner(cache=ResultCache()).run([spec]))).as_dict()
        plan = FaultPlan.load("benchmarks/fault_plan_ci.json")
        runner = SuiteRunner(
            engine=BatchSolver(
                mode=mode,
                max_workers=2,
                cache=ResultCache(directory=tmp_path / mode),
            )
        )
        with install_plan(plan):
            chaos = next(iter(runner.run([spec]))).as_dict()
        assert plan.injected() > 0
        clean.pop("seconds")
        chaos.pop("seconds")
        assert chaos == clean


class TestCacheChaos:
    KEY = "f" * 64

    def test_transient_read_fault_is_retried(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(self.KEY, {"objective": 1.5})
        fresh = ResultCache(directory=tmp_path)
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="cache.disk.read", probability=1.0, max_injections=1
                )
            ]
        )
        retries = get_registry().counter("cache.retries")
        before = retries.value
        with install_plan(plan):
            assert fresh.get(self.KEY) == {"objective": 1.5}
        assert plan.injected() == 1
        assert retries.value == before + 1
        assert fresh.stats.disk_hits == 1

    def test_corrupt_read_quarantines_and_recovers(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(self.KEY, {"objective": 2.0})
        fresh = ResultCache(directory=tmp_path)
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="cache.disk.read",
                    kind="corrupt",
                    probability=1.0,
                    max_injections=1,
                )
            ]
        )
        quarantined = get_registry().counter("cache.quarantined")
        before = quarantined.value
        with install_plan(plan):
            assert fresh.get(self.KEY) is None  # corrupt -> miss, not error
        assert fresh.stats.quarantined == 1
        assert quarantined.value == before + 1
        assert self.KEY not in cache_rows.rows(tmp_path)
        assert self.KEY in cache_rows.rows(tmp_path, "quarantine"), (
            "the poisoned bytes must survive for post-mortems"
        )
        # The slot is usable again: re-put and read back cleanly.
        fresh.put(self.KEY, {"objective": 2.0})
        assert ResultCache(directory=tmp_path).get(self.KEY) == {
            "objective": 2.0
        }

    def test_torn_write_is_quarantined_by_the_next_reader(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="cache.disk.write",
                    kind="corrupt",
                    probability=1.0,
                    max_injections=1,
                )
            ]
        )
        with install_plan(plan):
            cache.put(self.KEY, {"objective": 3.0})
        # The writer's own memory tier is intact ...
        assert cache.get(self.KEY) == {"objective": 3.0}
        # ... but the disk entry is torn; a fresh process quarantines it.
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get(self.KEY) is None
        assert fresh.stats.quarantined == 1

    def test_persistent_write_failure_degrades_to_memory_only(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        plan = FaultPlan(
            [FaultSpec(seam="cache.disk.write", probability=1.0)]
        )
        with install_plan(plan):
            with pytest.warns(RuntimeWarning, match="memory-only"):
                cache.put(self.KEY, {"objective": 4.0})
        assert cache.stats.write_errors == 1
        assert cache.get(self.KEY) == {"objective": 4.0}  # memory tier
        assert cache.disk_entries() == 0
        assert plan.injected() == 3  # one per retry attempt


class TestExecutorChaos:
    def test_injected_pool_crash_respawns_once(self):
        engine = BatchSolver(mode="thread", max_workers=2)
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="engine.worker",
                    kind="crash",
                    probability=1.0,
                    max_injections=1,
                )
            ]
        )
        with install_plan(plan):
            with pytest.warns(RuntimeWarning, match="respawning"):
                assert engine.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]
        assert engine.stats.pool_respawns == 1
        assert engine.stats.pool_fallbacks == 0

    def test_second_crash_degrades_to_serial(self):
        engine = BatchSolver(mode="thread", max_workers=2)
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="engine.worker",
                    kind="crash",
                    probability=1.0,
                    max_injections=2,
                )
            ]
        )
        with install_plan(plan):
            with pytest.warns(RuntimeWarning) as caught:
                assert engine.map(lambda v: v * 2, [1, 2, 3]) == [2, 4, 6]
        messages = [str(w.message) for w in caught]
        assert any("respawning" in m for m in messages)
        assert any("running serially" in m for m in messages)
        assert engine.stats.pool_respawns == 1
        assert engine.stats.pool_fallbacks == 1

    def test_serial_transient_fault_is_absorbed(self):
        engine = BatchSolver(mode="serial")
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="engine.worker", probability=1.0, max_injections=2
                )
            ]
        )
        retries = get_registry().counter("engine.retries")
        before = retries.value
        with install_plan(plan):
            assert engine.map(lambda v: v, [7]) == [7]
        assert plan.injected() == 2
        assert retries.value == before + 2


class TestContainment:
    def test_poisoned_unit_fails_alone_and_healthy_work_is_cached(self):
        """One degenerate instance in a batch fails only itself: the
        healthy instance's result is published and cached before the
        failure surfaces, so re-requesting it solves nothing."""
        from repro import MaxMinLPBuilder

        healthy = cycle_instance(6)
        builder = MaxMinLPBuilder()
        builder.set_consumption("i", "v1", 1.0)
        degenerate = builder.build(validate=False)  # no beneficiaries

        reference = BatchSolver(mode="serial").solve_maxmin(healthy)

        engine = BatchSolver(mode="serial", cache=ResultCache())
        with pytest.raises(UnboundedError, match="no beneficiaries"):
            engine.solve_maxmin_batch([healthy, degenerate])
        assert engine.stats.unit_failures == 1

        executed_before = engine.stats.executed
        result = engine.solve_maxmin(healthy)
        assert engine.stats.executed == executed_before, (
            "the healthy unit must have been cached despite the batch error"
        )
        assert result.objective == reference.objective
        assert result.x == reference.x
