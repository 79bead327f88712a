"""The HTTP binding: endpoints, streaming, error contract, CLI startup."""

from __future__ import annotations

import json
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import __version__
from repro.scenarios.registry import list_families
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec, SuiteSpec
from repro.serve import ReproServer, SolverService

SPEC = ScenarioSpec(family="cycle", params={"n": 8}, seed=2, radii=(1,))


@pytest.fixture()
def server():
    service = SolverService()
    with ReproServer(service, port=0) as srv:
        yield srv


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


class TestEndpoints:
    def test_solve_roundtrip_matches_in_process_api(self, server):
        status, raw = _post(server.url + "/solve", SPEC.to_json().encode())
        assert status == 200
        envelope = json.loads(raw)
        assert envelope["scenario_id"] == SPEC.scenario_id
        assert envelope["source"] == "solved"
        (direct,) = list(SuiteRunner().run([SPEC]))
        expected = direct.as_dict()
        expected.pop("seconds")
        assert envelope["result"] == expected

    def test_second_identical_post_is_a_cache_hit(self, server):
        body = SPEC.to_json().encode()
        _, first_raw = _post(server.url + "/solve", body)
        _, second_raw = _post(server.url + "/solve", body)
        first, second = json.loads(first_raw), json.loads(second_raw)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_suite_streams_ndjson(self, server):
        suite = SuiteSpec.from_dict(
            {
                "name": "stream-me",
                "grids": [
                    {"family": "cycle", "params": {"n": [6, 8]}, "radii": [1]}
                ],
            }
        )
        request = urllib.request.Request(
            server.url + "/suite", data=suite.to_json().encode(), method="POST"
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            records = [json.loads(line) for line in response]
        assert [record["type"] for record in records] == [
            "result",
            "result",
            "summary",
        ]
        assert records[-1]["suite"] == "stream-me"
        assert records[-1]["n_scenarios"] == 2
        # Streamed per-scenario results equal the /solve results bit for bit.
        for record in records[:-1]:
            spec_json = json.dumps(record["result"]["spec"])
            _, raw = _post(server.url + "/solve", spec_json.encode())
            assert json.loads(raw)["result"] == record["result"]

    def test_healthz(self, server):
        status, raw = _get(server.url + "/healthz")
        payload = json.loads(raw)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == __version__

    def test_metrics_reflect_traffic(self, server):
        _post(server.url + "/solve", SPEC.to_json().encode())
        _, raw = _get(server.url + "/metrics")
        metrics = json.loads(raw)
        assert metrics["requests"]["scenario"] >= 1
        assert metrics["scenarios"]["scheduler"]["executed"] >= 1
        assert metrics["highs"]["total"] >= 1


class TestErrorContract:
    def test_malformed_json_is_400_not_500(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/solve", b"{definitely not json")
        assert excinfo.value.code == 400
        error = _error_body(excinfo)["error"]
        assert error["type"] == "bad_request"
        assert "not valid JSON" in error["message"]

    def test_schema_violation_is_400_with_message(self, server):
        body = json.dumps(
            {"family": "cycle", "params": {}, "radii": ["two"]}
        ).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/solve", body)
        assert excinfo.value.code == 400
        assert "radii" in _error_body(excinfo)["error"]["message"]

    def test_unknown_backend_is_400_not_500(self, server):
        body = json.dumps(
            {"family": "cycle", "params": {"n": 8}, "backend": "simplex"}
        ).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/solve", body)
        assert excinfo.value.code == 400
        error = _error_body(excinfo)["error"]
        assert error["type"] == "bad_request"
        assert "unknown LP backend 'simplex'" in error["message"]

    def test_unknown_family_400_lists_families(self, server):
        body = json.dumps({"family": "made_up", "params": {}}).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/solve", body)
        assert excinfo.value.code == 400
        message = _error_body(excinfo)["error"]["message"]
        for family in list_families():
            assert family in message

    def test_empty_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/solve", b"")
        assert excinfo.value.code == 400
        assert "body required" in _error_body(excinfo)["error"]["message"]

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404
        assert "/solve" in _error_body(excinfo)["error"]["message"]

    def test_get_on_solve_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/solve")
        assert excinfo.value.code == 405

    def test_post_on_metrics_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/metrics", b"{}")
        assert excinfo.value.code == 405

    def test_construction_failure_is_422_not_500(self, server):
        # Deterministic: the permutation sampler cannot build this graph,
        # so a retry would fail the same way -- the caller's spec is at fault.
        body = json.dumps(
            {
                "family": "random_regular_bipartite",
                "params": {"n_side": 16, "degree": 4},
                "seed": 0,
                "radii": [1],
            }
        ).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/solve", body)
        assert excinfo.value.code == 422
        error = _error_body(excinfo)["error"]
        assert error["type"] == "construction_failed"
        assert "ConstructionError" in error["message"]

    def test_errors_are_counted(self, server):
        with pytest.raises(urllib.error.HTTPError):
            _post(server.url + "/solve", b"broken")
        _, raw = _get(server.url + "/metrics")
        assert json.loads(raw)["requests"]["errors"] >= 1


class TestCLI:
    def test_repro_serve_subcommand_serves(self, tmp_path):
        """`repro serve --port 0` prints its URL and answers requests."""
        repo_src = Path(__file__).resolve().parents[2] / "src"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(tmp_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("serving on http://"), line
            url = line.split("serving on ", 1)[1]
            body = SPEC.to_json().encode()
            _, first_raw = _post(url + "/solve", body)
            _, second_raw = _post(url + "/solve", body)
            assert json.loads(first_raw)["cached"] is False
            assert json.loads(second_raw)["cached"] is True
            status, raw = _get(url + "/healthz")
            assert json.loads(raw)["status"] == "ok"
        finally:
            process.terminate()
            process.wait(timeout=10)


class TestObservability:
    """The /metrics format negotiation and per-request debug tracing."""

    def _get_with_headers(self, url: str):
        with urllib.request.urlopen(url) as response:
            return response.status, dict(response.headers), response.read()

    def test_metrics_default_json_content_type(self, server):
        status, headers, raw = self._get_with_headers(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        json.loads(raw)  # well-formed

    def test_metrics_prometheus_format_and_content_type(self, server):
        _post(server.url + "/solve", SPEC.to_json().encode())
        status, headers, raw = self._get_with_headers(
            server.url + "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["Content-Type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        text = raw.decode("utf-8")
        assert "# TYPE repro_lp_highs_calls counter" in text
        assert "repro_lp_highs_seconds_bucket{" in text
        assert "repro_requests_scenario" in text  # flattened legacy metrics

    def test_metrics_unknown_format_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/metrics?format=xml")
        assert excinfo.value.code == 400
        error = _error_body(excinfo)["error"]
        assert error["type"] == "bad_request"
        assert "xml" in error["message"]
        assert "prometheus" in error["message"]

    def test_debug_trace_returns_span_summary(self, server):
        status, raw = _post(
            server.url + "/solve?debug=trace", SPEC.to_json().encode()
        )
        assert status == 200
        envelope = json.loads(raw)
        trace = envelope["trace"]
        assert trace["spans"] >= 1
        stages = {row["stage"] for row in trace["stages"]}
        assert "serve.request" in stages
        for row in trace["stages"]:
            assert row["count"] >= 1
            assert row["total_s"] >= 0.0

    def test_without_debug_flag_no_trace_key(self, server):
        _, raw = _post(server.url + "/solve", SPEC.to_json().encode())
        assert "trace" not in json.loads(raw)
