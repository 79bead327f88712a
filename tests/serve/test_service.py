"""SolverService: wire-format parsing, solving, caching and observability."""

from __future__ import annotations

import gc
import math
import threading
import tracemalloc

import pytest

from repro import __version__
from repro.scenarios.registry import list_families
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec, SuiteSpec
from repro.serve import ServeRequestError, SolverService, scenario_request_key

#: One small scenario per registered family for the bit-identity sweep.
FAMILY_PARAMS = {
    "cycle": {"n": 16},
    "path": {"n": 12},
    "grid": {"shape": (4, 4)},
    "torus": {"shape": (4, 4)},
    "unit_disk": {"n": 16, "radius": 0.3},
    "random_bounded_degree": {"n_agents": 14},
    "random_regular_bipartite": {"n_side": 6},
    "sidon_bipartite": {"degree": 3},
    "isp": {"n_customers": 5, "n_routers": 3},
    "sensor": {"n_sensors": 10, "n_relays": 4, "n_areas": 3},
}


@pytest.fixture()
def service():
    with SolverService() as svc:
        yield svc


class TestParsing:
    def test_malformed_json_is_a_request_error(self, service):
        with pytest.raises(ServeRequestError, match="not valid JSON"):
            service.parse_scenario("{not json")

    def test_non_object_body_is_a_request_error(self, service):
        with pytest.raises(ServeRequestError, match="JSON object"):
            service.parse_scenario("[1, 2, 3]")

    def test_unknown_field_is_a_request_error(self, service):
        with pytest.raises(ServeRequestError, match="bogus"):
            service.parse_scenario(
                '{"family": "cycle", "params": {}, "bogus": 1}'
            )

    def test_wrong_radii_type_is_a_request_error(self, service):
        with pytest.raises(ServeRequestError, match="radii"):
            service.parse_scenario(
                '{"family": "cycle", "params": {}, "radii": [1.5]}'
            )

    def test_unknown_family_lists_registered_families(self, service):
        with pytest.raises(ServeRequestError) as excinfo:
            service.parse_scenario('{"family": "not_a_family", "params": {}}')
        message = str(excinfo.value)
        assert "not_a_family" in message
        for family in list_families():
            assert family in message

    def test_unknown_param_is_a_request_error(self, service):
        with pytest.raises(ServeRequestError, match="wrong_param"):
            service.parse_scenario(
                '{"family": "cycle", "params": {"wrong_param": 3}}'
            )

    def test_suite_validation_is_eager(self, service):
        suite = (
            '{"name": "s", "grids": [{"family": "cycle", "params": {}},'
            ' {"family": "nope", "params": {}}]}'
        )
        with pytest.raises(ServeRequestError, match="nope"):
            service.iter_suite_json(suite)
        # Nothing was counted as a suite request: it never started.
        assert service.metrics()["requests"]["suite"] == 0


class TestSolving:
    def test_envelope_shape_and_cached_flag(self, service):
        spec = ScenarioSpec(family="cycle", params={"n": 8}, seed=1, radii=(1,))
        first = service.solve_scenario_json(spec.to_json())
        second = service.solve_scenario_json(spec.to_json())
        assert first["scenario_id"] == spec.scenario_id
        assert first["source"] == "solved" and first["cached"] is False
        assert second["source"] == "cache" and second["cached"] is True
        # Cached and fresh answers carry byte-identical payloads.
        assert first["result"] == second["result"]
        assert "seconds" not in first["result"]

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_served_result_is_bit_identical_to_in_process_api(self, family):
        """Acceptance: the server path == SuiteRunner, per registry family."""
        assert set(FAMILY_PARAMS) == set(list_families()), (
            "a registered family is missing from the bit-identity sweep; "
            "add it to FAMILY_PARAMS"
        )
        spec = ScenarioSpec(
            family=family, params=FAMILY_PARAMS[family], seed=7, radii=(1,)
        )
        with SolverService() as svc:
            served = svc.solve_scenario_json(spec.to_json())["result"]
        (direct,) = list(SuiteRunner().run([spec]))
        expected = direct.as_dict()
        expected.pop("seconds")
        assert served == expected

    def test_concurrent_identical_requests_coalesce(self, service):
        spec = ScenarioSpec(
            family="grid", params={"shape": (3, 3)}, seed=5, radii=(1,)
        )
        body = spec.to_json()
        barrier = threading.Barrier(8)
        envelopes = []
        lock = threading.Lock()

        def request():
            barrier.wait()
            envelope = service.solve_scenario_json(body)
            with lock:
                envelopes.append(envelope)

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert service.scheduler.stats.executed == 1
        assert len({str(env["result"]) for env in envelopes}) == 1
        assert sum(1 for env in envelopes if env["source"] == "solved") == 1

    def test_iter_suite_streams_results_then_summary(self, service):
        suite = SuiteSpec.from_dict(
            {
                "name": "two-cycles",
                "grids": [
                    {"family": "cycle", "params": {"n": [6, 8]}, "radii": [1]}
                ],
            }
        )
        records = list(service.iter_suite_json(suite.to_json()))
        assert [record["type"] for record in records] == [
            "result",
            "result",
            "summary",
        ]
        summary = records[-1]
        assert summary["n_scenarios"] == 2
        assert summary["sources"]["solved"] == 2
        # A replayed suite is answered purely from the cache.
        replay = list(service.iter_suite_json(suite.to_json()))
        assert replay[-1]["sources"] == {
            "cache": 2,
            "solved": 0,
            "coalesced": 0,
            "failed": 0,
        }
        assert [r["result"] for r in replay[:-1]] == [
            r["result"] for r in records[:-1]
        ]

    def test_lp_strategy_separates_request_keys(self):
        spec = ScenarioSpec(family="cycle", params={"n": 8}, radii=(1,))
        per_lp = scenario_request_key(spec, lp_strategy="per-lp")
        stacked = scenario_request_key(spec, lp_strategy="stacked")
        assert per_lp != stacked

    def test_results_survive_restart_via_disk_cache(self, tmp_path):
        spec = ScenarioSpec(family="cycle", params={"n": 10}, radii=(1,))
        with SolverService(cache_dir=tmp_path) as first:
            cold = first.solve_scenario_json(spec.to_json())
        assert cold["source"] == "solved"
        with SolverService(cache_dir=tmp_path) as second:
            warm = second.solve_scenario_json(spec.to_json())
            assert warm["source"] == "cache"
            assert warm["result"] == cold["result"]
            # The warm answer required no LP work at all.
            assert second.runner.engine.stats.executed == 0

    def test_cache_hits_leave_nothing_behind(self, service):
        """A long-running server must not grow with the requests it
        answers: a cache hit keeps no per-request record."""
        spec = ScenarioSpec(family="cycle", params={"n": 8}, seed=1, radii=(1,))
        for _ in range(20):  # the solve, then the first hits
            service.solve_scenario(spec)
        hits = 400
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sources = {service.solve_scenario(spec)["source"] for _ in range(hits)}
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sources == {"cache"}
        assert grown < 16 * 1024, f"{hits} cache hits kept {grown} bytes"


class TestEngineOptionsLiveOnTheEngine:
    @pytest.mark.parametrize(
        "option, value",
        [
            ("mode", "thread"),
            ("max_workers", 2),
            ("lp_strategy", "stacked"),
            ("lp_chunk_size", 16),
        ],
    )
    def test_forwarded_engine_options_removed(self, option, value):
        with pytest.raises(TypeError, match=option):
            SolverService(**{option: value})

    @pytest.mark.parametrize("verify", ["off", "cached"])
    def test_cache_dir_builds_the_default_engine(self, tmp_path, verify):
        with SolverService(cache_dir=tmp_path, verify=verify) as service:
            engine = service.runner.engine
            assert (engine.mode, engine.max_workers) == ("serial", None)
            assert (engine.lp_strategy, engine.lp_chunk_size) == ("per-lp", 64)
            assert engine.verify == verify and service.verify == verify
            assert engine.cache.directory == tmp_path
            assert engine.cache.max_memory_entries == 4096
            assert service.scenario_cache.directory == tmp_path / "serve"
            assert service.scenario_cache.max_memory_entries == 4096

    def test_a_given_runner_keeps_its_engine(self):
        from repro.engine import BatchSolver, ResultCache

        engine = BatchSolver(cache=ResultCache(), lp_strategy="stacked")
        with SolverService(runner=SuiteRunner(engine=engine)) as service:
            assert service.runner.engine is engine
            assert service.lp_strategy == "stacked"


class TestObservability:
    def test_healthz_reports_version(self, service):
        payload = service.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == __version__
        assert payload["uptime_seconds"] >= 0

    def test_metrics_layers_and_highs_window(self, service):
        spec = ScenarioSpec(family="cycle", params={"n": 8}, radii=(1,))
        service.solve_scenario_json(spec.to_json())
        first = service.metrics()
        assert first["requests"]["scenario"] == 1
        assert first["scenarios"]["scheduler"]["executed"] == 1
        assert first["scenarios"]["cache"]["misses"] == 1
        assert first["engine"]["stats"]["executed"] > 0
        assert first["highs"]["total"] > 0
        assert first["highs"]["window"] == first["highs"]["total"]
        # A cache-served replay adds no HiGHS calls: the window resets.
        service.solve_scenario_json(spec.to_json())
        second = service.metrics()
        assert second["highs"]["total"] == first["highs"]["total"]
        assert second["highs"]["window"] == 0
        assert second["scenarios"]["cache"]["hits"] == 1
        assert math.isfinite(second["uptime_seconds"])

    def test_metrics_report_discrete_canonical_labelings(self, service):
        spec = ScenarioSpec(family="path", params={"n": 8}, radii=(1,))
        service.solve_scenario_json(spec.to_json())
        canon = service.metrics()["canon"]
        assert set(canon) >= {
            "searched", "matched", "memoized", "discrete", "backtracked"
        }
        # Path end views refine to discrete colourings: labelled, not searched.
        assert canon["discrete"] > 0

    def test_count_error_shows_up_in_requests(self, service):
        service.count_error()
        assert service.metrics()["requests"]["errors"] == 1

    def test_close_is_idempotent(self):
        svc = SolverService()
        svc.close()
        svc.close()
