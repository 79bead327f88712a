"""The warm ``POST /solve`` path: body memo, spliced reply, failure memo.

A body the service has parsed before is not parsed, validated or hashed
again; the JSON text of a payload it has encoded before is spliced into
the reply; a spec whose instance cannot be built is not rebuilt.  Each
shortcut is counted exactly here, together with the cases that must not
take it: a bad body, a family that has since been unregistered, and a
payload that was quarantined and re-solved.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading

import pytest

from repro.scenarios import registry
from repro.scenarios.spec import ScenarioSpec
from repro.serve import ReproServer, ServeRequestError, SolverService
from repro.serve import service as service_module
from repro.serve.service import _LRU, _MEMO_ENTRIES

SPEC = ScenarioSpec(family="cycle", params={"n": 8}, seed=2, radii=(1,))
BODY = SPEC.to_json().encode()
UNBUILDABLE = ScenarioSpec(
    family="random_regular_bipartite",
    params={"n_side": 16, "degree": 4},
    seed=0,
    radii=(1,),
)


def _exchange(port: int, request: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _post(path: str, body: bytes, length: str = "") -> bytes:
    return (
        f"POST {path} HTTP/1.0\r\n"
        f"Content-Length: {length or len(body)}\r\n\r\n"
    ).encode("ascii") + body


def _status_and_body(reply: bytes):
    head, body = reply.split(b"\r\n\r\n", 1)
    return int(head.split(b" ", 2)[1]), body


@pytest.fixture()
def parses(monkeypatch):
    """Counts of ``ScenarioSpec.from_json`` and ``validate_spec`` calls."""
    counts = {"from_json": 0, "validate_spec": 0}
    real_from_json = ScenarioSpec.from_json.__func__
    real_validate = service_module.validate_spec

    def from_json(cls, text):
        counts["from_json"] += 1
        return real_from_json(cls, text)

    def validate_spec(spec):
        counts["validate_spec"] += 1
        return real_validate(spec)

    monkeypatch.setattr(ScenarioSpec, "from_json", classmethod(from_json))
    monkeypatch.setattr(service_module, "validate_spec", validate_spec)
    return counts


@pytest.fixture()
def payload_dumps(monkeypatch):
    """The objects ``json.dumps`` was asked to encode, in order."""
    encoded = []
    real_dumps = json.dumps

    def dumps(obj, *args, **kwargs):
        encoded.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    return encoded


class TestBodyMemo:
    def test_warm_repeats_parse_and_encode_once(self, parses, payload_dumps):
        service = SolverService()
        envelopes = [service.solve_scenario_json(BODY) for _ in range(20)]
        texts = [service.envelope_json(envelope) for envelope in envelopes]
        assert parses == {"from_json": 1, "validate_spec": 1}
        payload = envelopes[-1]["result"]
        assert all(envelope["result"] is payload for envelope in envelopes[1:])
        # The first envelope carries the freshly solved payload object; the
        # cache hands every later request the same stored object.
        assert sum(obj is payload for obj in payload_dumps) == 1
        assert [envelope["source"] for envelope in envelopes[:2]] == [
            "solved",
            "cache",
        ]
        for envelope, text in zip(envelopes, texts):
            assert text == json.dumps(envelope)

    def test_text_and_bytes_bodies_give_the_same_envelope(self, parses):
        service = SolverService()
        from_text = service.solve_scenario_json(BODY.decode())
        from_bytes = service.solve_scenario_json(BODY)
        assert from_bytes["result"] is from_text["result"]
        assert from_bytes["scenario_id"] == SPEC.scenario_id
        assert parses["from_json"] == 2  # str and bytes are separate keys

    def test_memo_never_grows_past_its_cap(self, monkeypatch, parses):
        monkeypatch.setattr(service_module, "_MEMO_ENTRIES", 4)
        service = SolverService()
        # Labels change the body but not the scenario: one solve in all.
        bodies = [
            ScenarioSpec(
                family="cycle", params={"n": 8}, seed=2, label=f"copy {i}"
            ).to_json().encode()
            for i in range(10)
        ]
        for body in bodies:
            service.solve_scenario_json(body)
            assert len(service._bodies) <= 4
        assert len(service._bodies) == 4
        assert parses["from_json"] == 10
        service.solve_scenario_json(bodies[-1])  # still remembered
        assert parses["from_json"] == 10
        service.solve_scenario_json(bodies[0])  # evicted long ago
        assert parses["from_json"] == 11
        assert len(service._bodies) == 4

    def test_long_bodies_are_not_memoised(self, monkeypatch, parses):
        monkeypatch.setattr(service_module, "_MEMO_MAX_BODY_BYTES", 16)
        service = SolverService()
        for _ in range(3):
            service.solve_scenario_json(BODY)
        assert parses["from_json"] == 3
        assert len(service._bodies) == 0

    def test_a_bad_body_is_not_memoised(self, parses):
        service = SolverService()
        messages = set()
        for _ in range(3):
            with pytest.raises(ServeRequestError) as excinfo:
                service.solve_scenario_json(b"{not json")
            messages.add(str(excinfo.value))
        assert len(messages) == 1
        assert messages.pop().startswith("request body is not valid JSON")
        assert parses["from_json"] == 3
        assert len(service._bodies) == 0

    def test_an_invalid_spec_is_not_memoised(self, parses):
        service = SolverService()
        body = b'{"family": "cycle", "params": {"q": 1}}'
        for _ in range(2):
            with pytest.raises(ServeRequestError, match="does not accept"):
                service.solve_scenario_json(body)
        assert parses == {"from_json": 2, "validate_spec": 2}
        assert len(service._bodies) == 0

    def test_a_non_utf8_body_is_a_request_error(self):
        service = SolverService()
        with pytest.raises(ServeRequestError, match="request body is not UTF-8"):
            service.solve_scenario_json(b"\xff\xfe{}")

    def test_unregistered_family_is_a_400_after_a_hit(self, parses):
        name = "warm_path_tmp_family"

        def register(params):
            registry.register_family(name, params=params)(
                lambda seed, **kwargs: registry.get_family("cycle").build(
                    {"n": 6}, seed
                )
            )

        register({"n": registry.param(6)})
        try:
            body = ScenarioSpec(family=name, params={"n": 6}).to_json().encode()
            service = SolverService()
            assert service.solve_scenario_json(body)["source"] == "solved"
            assert service.solve_scenario_json(body)["source"] == "cache"
            assert parses["from_json"] == 1
            registry.unregister_family(name)
            with pytest.raises(ServeRequestError, match="unknown instance family"):
                service.solve_scenario_json(body)
            # Registered again under the same name but with another schema:
            # the remembered spec was validated by the old family object,
            # so it is validated afresh and now rejected.
            register({"m": registry.param(6)})
            with pytest.raises(ServeRequestError, match="does not accept"):
                service.solve_scenario_json(body)
            assert parses["from_json"] == 3
        finally:
            registry.unregister_family(name)

    def test_default_cap_is_a_module_constant(self):
        service = SolverService()
        for memo in (
            service._bodies,
            service._payload_texts,
            service._construction_failures,
        ):
            assert memo.max_entries == _MEMO_ENTRIES


class TestLRU:
    def test_evicts_the_least_recently_used_entry(self):
        memo = _LRU(3)
        for key in "abc":
            memo.put(key, key.upper())
        assert memo.get("a") == "A"  # "b" is now the oldest
        memo.put("d", "D")
        assert len(memo) == 3
        assert memo.get("b") is None
        assert [memo.get(key) for key in "acd"] == ["A", "C", "D"]

    def test_concurrent_use_keeps_the_cap_and_the_values(self):
        memo = _LRU(8)
        wrong = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def worker(offset):
                for i in range(2000):
                    key = (offset + i) % 24
                    memo.put(key, ("value", key))
                    value = memo.get(key)
                    if value is not None and value != ("value", key):
                        wrong.append((key, value))
                    if len(memo) > 8:
                        wrong.append(("size", len(memo)))

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(memo) == 8


class TestSplicedReply:
    def test_every_envelope_shape_matches_json_dumps(self):
        service = SolverService()
        shapes = [
            service.solve_scenario_json(BODY),  # solved
            service.solve_scenario_json(BODY),  # cache
            service.solve_scenario_json(BODY, verify=True),
            service.solve_scenario_json(BODY, debug_trace=True),
            service.solve_scenario_json(BODY, debug_trace=True, verify=True),
        ]
        coalesced = dict(shapes[0], source="coalesced", cached=True)
        shapes.append(coalesced)
        assert {"verify", "trace"} <= set().union(*shapes)
        for envelope in shapes:
            for _ in range(2):  # encoded, then spliced from the kept text
                assert service.envelope_json(envelope) == json.dumps(envelope)

    def test_quarantined_and_resolved_payload_is_encoded_afresh(
        self, payload_dumps
    ):
        service = SolverService()
        clean = service.solve_scenario_json(BODY)
        key = service_module.scenario_request_key(
            SPEC, lp_strategy=service.lp_strategy
        )
        damaged = dict(clean["result"], optimum=clean["result"]["optimum"] + 1)
        service.scenario_cache.put(key, damaged)
        blind = service.solve_scenario_json(BODY)
        assert blind["result"] is damaged
        assert json.loads(service.envelope_json(blind))["result"] == damaged

        with pytest.warns(RuntimeWarning, match="quarantined"):
            verified = service.solve_scenario_json(BODY, verify=True)
        assert verified["source"] == "solved"
        resolved = verified["result"]
        assert resolved is not damaged
        text = service.envelope_json(verified)
        assert text == json.dumps(verified)
        assert json.loads(text)["result"] == clean["result"]
        assert sum(obj is resolved for obj in payload_dumps) == 1


class TestConstructionFailures:
    def test_repeats_build_once_and_answer_the_same_bytes(self, monkeypatch):
        from repro.scenarios import runner as runner_module

        builds = []
        real_build = runner_module.build_instance

        def build_instance(spec):
            builds.append(spec)
            return real_build(spec)

        monkeypatch.setattr(runner_module, "build_instance", build_instance)
        service = SolverService()
        with ReproServer(service, port=0) as server:
            replies = [
                _status_and_body(
                    _exchange(
                        server.port,
                        _post("/solve", UNBUILDABLE.to_json().encode()),
                    )
                )
                for _ in range(4)
            ]
        assert len(builds) == 1
        assert {status for status, _ in replies} == {422}
        assert len({body for _, body in replies}) == 1
        error = json.loads(replies[0][1])["error"]
        assert error["type"] == "construction_failed"
        assert len(service._construction_failures) == 1
        assert service.metrics()["requests"]["failed"] == 4

    def test_remembered_failure_keeps_no_frames(self):
        service = SolverService()
        for _ in range(2):
            with pytest.raises(service_module.ScenarioSolveError) as excinfo:
                service.solve_scenario(UNBUILDABLE)
        assert excinfo.value.cause.__traceback__ is None

    def test_remembered_failure_applies_to_suite_streams(self, monkeypatch):
        from repro.scenarios import runner as runner_module

        builds = []
        real_build = runner_module.build_instance
        monkeypatch.setattr(
            runner_module,
            "build_instance",
            lambda spec: builds.append(spec) or real_build(spec),
        )
        suite = json.dumps(
            {
                "name": "twice",
                "grids": [
                    {
                        "family": "random_regular_bipartite",
                        "params": {"n_side": [16], "degree": [4]},
                        "seeds": [0],
                        "radii": [1],
                    }
                ],
            }
        )
        service = SolverService()
        for _ in range(2):
            records = list(service.iter_suite_json(suite))
            assert records[0]["error"]["type"] == "construction_failed"
        assert len(builds) == 1


class TestHttpWarmPath:
    def test_warm_http_repeats_parse_once(self, parses):
        service = SolverService()
        with ReproServer(service, port=0) as server:
            replies = [
                _status_and_body(_exchange(server.port, _post("/solve", BODY)))
                for _ in range(10)
            ]
        assert parses == {"from_json": 1, "validate_spec": 1}
        assert {status for status, _ in replies} == {200}
        envelopes = [json.loads(body) for _, body in replies]
        assert [e["source"] for e in envelopes] == ["solved"] + ["cache"] * 9
        for (_, body), envelope in zip(replies, envelopes):
            assert body == (json.dumps(envelope) + "\n").encode()

    @pytest.mark.parametrize(
        "request_bytes, message",
        [
            (
                _post("/solve", BODY, length="abc"),
                "invalid Content-Length header",
            ),
            (
                # Two framings of one body: the first no longer wins.
                b"POST /solve HTTP/1.0\r\nContent-Length: %d\r\n"
                b"Content-Length: %d\r\n\r\n" % (len(BODY), len(BODY) + 1)
                + BODY
                + b" ",
                "conflicting Content-Length headers",
            ),
            (
                _post("/solve", b"{}", length=str(9 * 1024 * 1024)),
                "request body of 9437184 bytes exceeds the 8388608-byte limit",
            ),
            (
                _post("/solve", b"\xff\xfe{}"),
                "request body is not UTF-8: 'utf-8' codec can't decode byte "
                "0xff in position 0: invalid start byte",
            ),
            (
                # A body that is not UTF-8 is reported before a bad flag.
                _post("/solve?verify=maybe", b"\xff\xfe{}"),
                "request body is not UTF-8: 'utf-8' codec can't decode byte "
                "0xff in position 0: invalid start byte",
            ),
            (
                _post("/solve?verify=maybe", BODY),
                "invalid verify value 'maybe'; expected 1/0 (or true/false)",
            ),
            (
                _post("/suite?verify=maybe", b"\xff"),
                "request body is not UTF-8: 'utf-8' codec can't decode byte "
                "0xff in position 0: invalid start byte",
            ),
        ],
    )
    def test_body_errors_keep_their_messages(self, request_bytes, message):
        service = SolverService()
        with ReproServer(service, port=0) as server:
            for _ in range(2):  # nothing about a bad request is remembered
                status, body = _status_and_body(
                    _exchange(server.port, request_bytes)
                )
                assert status == 400
                assert body == (
                    json.dumps(
                        {"error": {"type": "bad_request", "message": message}}
                    )
                    + "\n"
                ).encode()
        assert len(service._bodies) == 0

    def test_identical_content_lengths_read_as_one(self):
        """RFC 9112 section 6.3: equal copies frame the body alike."""
        request = (
            b"POST /solve HTTP/1.0\r\n"
            + b"Content-Length: %d\r\n" % len(BODY) * 2
            + b"\r\n"
            + BODY
        )
        with ReproServer(SolverService(), port=0) as server:
            status, body = _status_and_body(_exchange(server.port, request))
        assert status == 200
        assert json.loads(body)["scenario_id"] == SPEC.scenario_id

    def test_warm_solve_does_not_run_the_email_header_parser(self, monkeypatch):
        def parse_headers(*args, **kwargs):
            raise AssertionError("the request head went through parse_headers")

        service = SolverService()
        with ReproServer(service, port=0) as server:
            warm = _exchange(server.port, _post("/solve", BODY))
            assert _status_and_body(warm)[0] == 200
            monkeypatch.setattr(http.client, "parse_headers", parse_headers)
            status, body = _status_and_body(
                _exchange(server.port, _post("/solve", BODY))
            )
        assert status == 200
        assert json.loads(body)["source"] == "cache"

    def test_concurrent_first_requests_all_get_the_answer(self):
        service = SolverService()
        results = []
        with ReproServer(service, port=0) as server:

            def client():
                results.append(
                    _status_and_body(_exchange(server.port, _post("/solve", BODY)))
                )

            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 6
        assert {status for status, _ in results} == {200}
        answers = {json.dumps(json.loads(body)["result"]) for _, body in results}
        assert len(answers) == 1


class TestScenarioIdCaching:
    def test_scenario_id_is_computed_once_per_spec(self, monkeypatch):
        from repro.scenarios import spec as spec_module

        calls = []
        real = spec_module.fingerprint_data
        monkeypatch.setattr(
            spec_module,
            "fingerprint_data",
            lambda data: calls.append(data) or real(data),
        )
        spec = ScenarioSpec(family="cycle", params={"n": 8}, seed=2)
        ids = {spec.scenario_id for _ in range(5)}
        assert len(calls) == 1
        assert ids == {SPEC.scenario_id}

    def test_equality_and_hash_ignore_the_cached_id(self):
        computed = ScenarioSpec(family="cycle", params={"n": 8}, seed=2)
        computed.scenario_id
        fresh = ScenarioSpec(family="cycle", params={"n": 8}, seed=2)
        assert "scenario_id" in vars(computed)
        assert "scenario_id" not in vars(fresh)
        assert computed == fresh
        assert hash(computed) == hash(fresh)
        assert ScenarioSpec.from_dict(computed.to_dict()) == computed
