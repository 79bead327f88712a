"""Per-request result verification over live HTTP (``?verify=1``)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

import cache_rows
from repro.scenarios.spec import ScenarioSpec, SuiteSpec
from repro.serve import ReproServer, SolverService

SPEC = ScenarioSpec(
    family="cycle", params={"n": 8}, radii=(1,), backend="scipy"
)


def _post(url: str, body: bytes):
    request = urllib.request.Request(
        url,
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def poison_serve_entry(cache_dir, *, bump=1.0):
    """Silently corrupt every scenario cache entry, refreshing its checksum.

    Recomputing the row's checksum over the tampered value models the
    adversary the checksum layer *cannot* catch (rewrite-with-valid-sum);
    only re-deriving the scenario's arithmetic — the solution certificate —
    can reject it.
    """

    def change(value):
        value["optimum"] = value["optimum"] + bump

    return cache_rows.rewrite_values(cache_dir / "serve", change)


def serve(tmp_path, **kwargs):
    return SolverService(cache_dir=tmp_path, **kwargs)


class TestServiceApi:
    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="verify"):
            serve(tmp_path, verify="bogus")

    def test_fresh_solve_certified_on_request(self, tmp_path):
        service = serve(tmp_path)
        try:
            envelope = service.solve_scenario_json(
                SPEC.to_json(), verify=True
            )
            assert envelope["verify"] == "passed"
            assert envelope["source"] == "solved"
        finally:
            service.close()

    def test_verify_off_leaves_envelope_unmarked(self, tmp_path):
        service = serve(tmp_path)
        try:
            envelope = service.solve_scenario_json(SPEC.to_json())
            assert "verify" not in envelope
        finally:
            service.close()

    def test_service_default_applies_and_request_overrides(self, tmp_path):
        service = serve(tmp_path, verify="cached")
        try:
            on = service.solve_scenario_json(SPEC.to_json())
            assert on["verify"] == "passed"
            off = service.solve_scenario_json(SPEC.to_json(), verify=False)
            assert "verify" not in off
        finally:
            service.close()


class TestCorruptionEndToEnd:
    def test_poisoned_cache_hit_detected_quarantined_resolved(self, tmp_path):
        # Seed the disk tier with an unverified solve, then poison it.
        seeder = serve(tmp_path)
        try:
            clean = seeder.solve_scenario_json(SPEC.to_json())
        finally:
            seeder.close()
        assert poison_serve_entry(tmp_path) == 1

        service = serve(tmp_path)  # cold memory: the hit must come from disk
        try:
            with ReproServer(service, port=0) as server:
                # Unverified, the poisoned entry is served verbatim.
                _, blind = _post(
                    server.url + "/solve", SPEC.to_json().encode()
                )
                assert blind["cached"] is True
                assert (
                    blind["result"]["optimum"]
                    == clean["result"]["optimum"] + 1.0
                )

                # Verified, it is detected, quarantined and re-solved.
                with pytest.warns(RuntimeWarning, match="certificate"):
                    _, verified = _post(
                        server.url + "/solve?verify=1",
                        SPEC.to_json().encode(),
                    )
                assert verified["source"] == "solved"
                assert verified["verify"] == "passed"
                assert verified["result"] == clean["result"]
                assert cache_rows.rows(tmp_path / "serve", "quarantine")
                assert service._requests["verify_failed"] == 1

                # The re-solve republished a good entry: the next verified
                # request is a certified cache hit.
                _, again = _post(
                    server.url + "/solve?verify=1", SPEC.to_json().encode()
                )
                assert again["cached"] is True
                assert again["verify"] == "passed"
        finally:
            service.close()

    def test_invalid_verify_value_is_400(self, tmp_path):
        service = serve(tmp_path)
        try:
            with ReproServer(service, port=0) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(
                        server.url + "/solve?verify=maybe",
                        SPEC.to_json().encode(),
                    )
                assert excinfo.value.code == 400
                body = json.loads(excinfo.value.read())
                assert "verify" in body["error"]["message"]
        finally:
            service.close()

    def test_suite_stream_verifies_per_request(self, tmp_path):
        suite = SuiteSpec.from_dict(
            {
                "name": "verified-stream",
                "grids": [
                    {
                        "family": "cycle",
                        "params": {"n": [6, 8]},
                        "radii": [1],
                        "backend": "scipy",
                    }
                ],
            }
        )
        service = serve(tmp_path)
        try:
            with ReproServer(service, port=0) as server:
                request = urllib.request.Request(
                    server.url + "/suite?verify=1",
                    data=suite.to_json().encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request) as response:
                    assert response.status == 200
                    records = [json.loads(line) for line in response]
            results = [r for r in records if r["type"] == "result"]
            assert len(results) == 2
            assert all(r["verify"] == "passed" for r in results)
        finally:
            service.close()
