"""Serve-layer resilience: deadlines, load shedding, containment, shutdown."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.faults import FaultPlan, FaultSpec, install_plan
from repro.obs.metrics import get_registry
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec, SuiteSpec
from repro.serve import (
    DeadlineExceeded,
    ReproServer,
    ScenarioSolveError,
    SolverService,
)

SPEC = ScenarioSpec(family="cycle", params={"n": 8}, seed=2, radii=(1,))


@pytest.fixture(autouse=True)
def _isolated_fault_plan(monkeypatch):
    """Start each test without an inherited plan (e.g. from the
    ``REPRO_FAULT_PLAN`` env var the CI chaos job sets): these tests
    install their own plans and an active one would collide."""
    import repro.faults.plan as plan_module

    monkeypatch.setattr(plan_module, "_active_plan", None)
    monkeypatch.setattr(plan_module, "_env_checked", True)


def _post(url: str, body: bytes):
    request = urllib.request.Request(
        url,
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.read()


def _get(url: str):
    with urllib.request.urlopen(url) as response:
        return response.status, response.read()


def _error_body(excinfo) -> dict:
    return json.loads(excinfo.value.read())


def _slow_request_plan(latency_s: float, max_injections: int = 1) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(
                seam="serve.request",
                kind="latency",
                probability=1.0,
                latency_s=latency_s,
                max_injections=max_injections,
            )
        ]
    )


class TestDeadlines:
    def test_expired_deadline_is_a_504_and_the_solve_still_lands(self):
        """?deadline_s= past due -> 504; the backgrounded solve caches its
        result, so a retry of the same request succeeds from the cache."""
        service = SolverService()
        plan = _slow_request_plan(0.4)
        with ReproServer(service, port=0) as server:
            body = SPEC.to_json().encode()
            with install_plan(plan):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(server.url + "/solve?deadline_s=0.05", body)
                assert excinfo.value.code == 504
                error = _error_body(excinfo)["error"]
                assert error["type"] == "deadline_exceeded"
                assert "deadline" in error["message"]

                # The solve keeps running in the background; poll until its
                # published result answers a retry (as a cache/coalesced hit).
                deadline = time.monotonic() + 10.0
                while True:
                    try:
                        status, raw = _post(server.url + "/solve", body)
                        break
                    except urllib.error.HTTPError:  # pragma: no cover
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.05)
            assert status == 200
            envelope = json.loads(raw)
            assert envelope["cached"] is True
            status, raw = _get(server.url + "/metrics")
            metrics = json.loads(raw)
            assert metrics["requests"]["deadline_expired"] == 1
        assert plan.injected() == 1

    def test_deadline_expiry_does_not_kill_a_coalesced_waiter(self):
        """One caller's deadline is its own problem: a concurrent waiter on
        the same scenario (no deadline) still receives the result."""
        with SolverService() as service:
            plan = _slow_request_plan(0.3)
            outcomes = {}
            owner_started = threading.Event()

            def impatient():
                owner_started.set()
                try:
                    service.solve_scenario(SPEC, deadline_s=0.05)
                except DeadlineExceeded:
                    outcomes["impatient"] = "expired"

            def patient():
                owner_started.wait(timeout=5.0)
                time.sleep(0.1)  # attach while the solve still sleeps
                outcomes["patient"] = service.solve_scenario(SPEC)

            with install_plan(plan):
                threads = [
                    threading.Thread(target=impatient),
                    threading.Thread(target=patient),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

            assert outcomes["impatient"] == "expired"
            envelope = outcomes["patient"]
            assert envelope["scenario_id"] == SPEC.scenario_id
            (direct,) = list(SuiteRunner().run([SPEC]))
            expected = direct.as_dict()
            expected.pop("seconds")
            assert envelope["result"] == expected


class TestDeadlineRange:
    """A deadline must be finite and in ``(0, threading.TIMEOUT_MAX]``:
    ``nan`` would expire at once and ``inf`` or ``1e300`` overflow the
    wait."""

    BAD = ["nan", "inf", "-inf", "1e300", "0", "-1", "soon"]

    @pytest.mark.parametrize("value", BAD)
    def test_http_query_is_a_400(self, value):
        with ReproServer(SolverService(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    server.url + f"/solve?deadline_s={value}",
                    SPEC.to_json().encode(),
                )
            assert excinfo.value.code == 400
            error = _error_body(excinfo)["error"]
            assert error["type"] == "bad_request"
            assert "deadline_s" in error["message"]

    @pytest.mark.parametrize("value", BAD)
    def test_service_rejects_it(self, value):
        with pytest.raises(ValueError, match="deadline"):
            SolverService(deadline_s=float(value) if value != "soon" else value)

    @pytest.mark.parametrize("value", BAD)
    def test_per_call_deadline_is_checked(self, value):
        with SolverService() as service:
            with pytest.raises(ValueError, match="deadline"):
                service.solve_scenario(SPEC, deadline_s=value)

    def test_the_largest_wait_is_accepted(self):
        service = SolverService(deadline_s=threading.TIMEOUT_MAX)
        assert service.deadline_s == threading.TIMEOUT_MAX
        envelope = service.solve_scenario(SPEC)
        assert envelope["scenario_id"] == SPEC.scenario_id

    def test_http_query_at_the_limit_solves(self):
        with ReproServer(SolverService(), port=0) as server:
            status, raw = _post(
                server.url + f"/solve?deadline_s={threading.TIMEOUT_MAX!r}",
                SPEC.to_json().encode(),
            )
        assert status == 200
        assert json.loads(raw)["scenario_id"] == SPEC.scenario_id


class TestLoadShedding:
    def test_full_server_sheds_with_503_and_retry_after(self):
        service = SolverService(max_inflight=1)
        shed = get_registry().counter("serve.shed")
        before = shed.value
        with ReproServer(service, port=0) as server:
            assert service.try_admit()  # occupy the only slot
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(server.url + "/solve", SPEC.to_json().encode())
                assert excinfo.value.code == 503
                assert excinfo.value.headers["Retry-After"] == "1"
                error = _error_body(excinfo)["error"]
                assert error["type"] == "overloaded"
                assert "retry" in error["message"]
            finally:
                service.release()
            # With the slot free again the same request is served.
            status, raw = _post(server.url + "/solve", SPEC.to_json().encode())
            assert status == 200
            metrics = json.loads(_get(server.url + "/metrics")[1])
            assert metrics["requests"]["shed"] == 1
        assert shed.value == before + 1

    def test_admission_is_counted_and_released(self):
        service = SolverService(max_inflight=2)
        assert service.try_admit() and service.try_admit()
        assert service.inflight == 2
        assert not service.try_admit()
        service.release()
        assert service.try_admit()
        service.release()
        service.release()
        assert service.inflight == 0
        assert service.drain(timeout=0.1)
        service.close()


class TestFailureContainment:
    def test_failed_solve_is_a_500_and_not_cached(self):
        """An injected solve failure maps to a structured 500; the failure
        is never cached, so the retry succeeds once the fault clears."""
        service = SolverService()
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="serve.request", probability=1.0, max_injections=1
                )
            ]
        )
        with ReproServer(service, port=0) as server:
            body = SPEC.to_json().encode()
            with install_plan(plan):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(server.url + "/solve", body)
                assert excinfo.value.code == 500
                error = _error_body(excinfo)["error"]
                assert error["type"] == "solve_failed"
                assert SPEC.scenario_id in error["message"]
                status, raw = _post(server.url + "/solve", body)
            assert status == 200
            assert json.loads(raw)["source"] == "solved"
        assert plan.injected() == 1

    def test_suite_stream_contains_the_failure_and_continues(self):
        """One poisoned scenario yields an error record; the stream keeps
        going and the summary counts it under ``failed``."""
        service = SolverService()
        suite = SuiteSpec.from_dict(
            {
                "name": "chaos-suite",
                "grids": [
                    {"family": "cycle", "params": {"n": [6, 8]}, "radii": [1]}
                ],
            }
        )
        # The second consultation of the seam fires: scenario 1 solves,
        # scenario 2 fails, the stream must deliver both plus the summary.
        plan = FaultPlan(
            [FaultSpec(seam="serve.request", every=2, max_injections=1)]
        )
        with ReproServer(service, port=0) as server:
            request = urllib.request.Request(
                server.url + "/suite",
                data=suite.to_json().encode(),
                method="POST",
            )
            with install_plan(plan):
                with urllib.request.urlopen(request) as response:
                    assert response.status == 200
                    records = [json.loads(line) for line in response]
        assert [record["type"] for record in records] == [
            "result",
            "error",
            "summary",
        ]
        assert records[1]["error"]["type"] == "solve_failed"
        summary = records[2]
        assert summary["n_scenarios"] == 2
        assert summary["sources"]["failed"] == 1
        assert summary["sources"]["solved"] == 1
        assert plan.injected() == 1

    def test_suite_stream_labels_a_construction_failure(self):
        """A scenario whose instance cannot be built streams the same
        ``construction_failed`` type ``POST /solve`` answers with 422."""
        suite = SuiteSpec.from_dict(
            {
                "name": "construction-suite",
                "grids": [
                    {
                        "family": "random_regular_bipartite",
                        "params": {"n_side": [16], "degree": [4]},
                        "seeds": [0],
                        "radii": [1],
                    },
                    {"family": "cycle", "params": {"n": [8]}, "radii": [1]},
                ],
            }
        )
        with SolverService() as service:
            records = list(service.iter_suite_json(suite.to_json()))
        assert [record["type"] for record in records] == [
            "error",
            "result",
            "summary",
        ]
        assert records[0]["error"]["type"] == "construction_failed"
        assert "ConstructionError" in records[0]["error"]["message"]
        assert records[2]["sources"]["failed"] == 1

    def test_service_level_failure_carries_the_cause(self):
        with SolverService() as service:
            plan = FaultPlan(
                [
                    FaultSpec(
                        seam="serve.request",
                        probability=1.0,
                        max_injections=1,
                        message="chaos says no",
                    )
                ]
            )
            with install_plan(plan):
                with pytest.raises(ScenarioSolveError) as excinfo:
                    service.solve_scenario(SPEC)
            assert excinfo.value.scenario_id == SPEC.scenario_id
            assert "chaos says no" in str(excinfo.value)
            assert service.metrics()["requests"]["failed"] == 1


class TestChaosMetrics:
    def test_injections_and_retries_are_visible_in_metrics(self):
        """/metrics shows the resilience layer working: non-zero injected
        and retry counters, in JSON and the Prometheus rendering."""
        service = SolverService()
        plan = FaultPlan(
            [FaultSpec(seam="lp.highs.call", every=2)], seed=7
        )
        retries = get_registry().counter("engine.retries")
        before = retries.value
        with ReproServer(service, port=0) as server:
            with install_plan(plan):
                status, _ = _post(
                    server.url + "/solve", SPEC.to_json().encode()
                )
            assert status == 200
            assert plan.injected() > 0
            assert retries.value > before
            text = _get(server.url + "/metrics?format=prometheus")[1].decode()
        assert "repro_faults_injected_lp_highs_call" in text
        assert "repro_engine_retries" in text


class TestShutdown:
    def test_stop_raises_on_a_leaked_serving_thread(self):
        """A serving thread that survives shutdown is reported as a leak
        (RuntimeError), never silently swallowed."""
        service = SolverService()
        server = ReproServer(service, port=0).start_background()
        real_thread = server._thread
        stuck = threading.Event()
        dummy = threading.Thread(target=stuck.wait, daemon=True)
        dummy.start()
        server._thread = dummy  # simulate a thread that will not exit
        try:
            with pytest.raises(RuntimeError, match="leaked"):
                server.stop(timeout=0.2)
        finally:
            stuck.set()
            dummy.join(timeout=5.0)
            if real_thread is not None:
                real_thread.join(timeout=5.0)
            service.close()
        assert real_thread is None or not real_thread.is_alive()

    def test_stop_warns_when_inflight_requests_do_not_drain(self):
        service = SolverService()
        server = ReproServer(service, port=0).start_background()
        assert service.try_admit()  # a request that never finishes
        try:
            with pytest.warns(RuntimeWarning, match="did not drain"):
                server.stop(timeout=0.2)
        finally:
            service.release()
            service.close()

    def test_clean_stop_is_silent_and_rejoinable(self):
        service = SolverService()
        server = ReproServer(service, port=0).start_background()
        _get(server.url + "/healthz")
        server.stop(timeout=5.0)
        service.close()
