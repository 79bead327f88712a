"""The transport-free serving core: parse, schedule, solve, observe.

:class:`SolverService` is everything the HTTP layer does *except* HTTP, so
tests (and embedders) can drive it directly:

* **wire format** -- requests are the existing exact-JSON round-trip forms
  of :class:`~repro.scenarios.spec.ScenarioSpec` and
  :class:`~repro.scenarios.spec.SuiteSpec`; nothing new to learn, and the
  ``scenario_id`` fingerprint doubles as the request key.
* **scheduling** -- every scenario request runs through a scenario-level
  :class:`~repro.engine.scheduler.RequestScheduler`: repeated requests are
  answered from a content-addressed :class:`~repro.engine.cache.ResultCache`
  (optionally disk-backed, so results survive restarts), and *concurrent*
  identical requests single-flight into one solve.
* **solving** -- cache misses run through one shared
  :class:`~repro.scenarios.runner.SuiteRunner`, i.e. the very same pipeline
  the CLI's ``suite run`` uses.  A served response is therefore
  bit-identical to the in-process API (the timing-only ``seconds`` field is
  reported per request, outside the cached payload).
* **observability** -- :meth:`SolverService.metrics` snapshots the request
  counters, both scheduler/cache tiers, the engine's LP counters, the canon
  index, and the HiGHS calls made since the service started (the metrics
  registry's process-wide ``lp.highs.calls`` counter, less its value at
  construction) with a per-scrape-window delta.
* **warm path** -- work the request bytes have already fixed is done once
  per service: a body memo maps the raw ``POST /solve`` body to its parsed
  spec and request key (a hit re-checks that the spec's registry family is
  still the one that validated it), :meth:`SolverService.envelope_json`
  reuses the JSON text of a payload it has already encoded, and a spec
  whose instance cannot be built is answered from a map of construction
  failures instead of being rebuilt.  All three maps are LRUs bounded by
  :data:`_MEMO_ENTRIES`; the scheduler still answers every other request,
  so the cache tiers, verification, spans and counters all still apply.

Errors callers can fix -- malformed JSON, schema violations, unknown
families -- raise :class:`ServeRequestError` (the HTTP layer's 400); the
unknown-family message lists the registry's valid families.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from .. import __version__
from ..engine.cache import ResultCache
from ..engine.executor import VERIFY_MODES, BatchSolver
from ..engine.fingerprint import fingerprint_data
from ..engine.scheduler import (
    SOURCE_FAILED,
    SOURCE_SOLVED,
    RequestScheduler,
    UnitFailure,
)
from ..exceptions import ConstructionError, ScenarioError, VerificationError
from ..faults import inject as _inject
from ..obs.metrics import get_registry, render_prometheus
from ..obs.trace import Tracer, activate, stage_summary
from ..obs.trace import span as trace_span
from ..scenarios.certify import certify_scenario_result
from ..scenarios.registry import FamilyInfo, get_family, validate_spec
from ..scenarios.runner import SuiteRunner
from ..scenarios.spec import ScenarioSpec, SuiteSpec

__all__ = [
    "DeadlineExceeded",
    "ScenarioSolveError",
    "ServeRequestError",
    "SolverService",
    "deadline_seconds",
    "scenario_request_key",
]

#: Shared stateless stand-in for the request-local tracer activation when
#: no ``debug_trace`` was asked for.
_NULL_CONTEXT = contextlib.nullcontext()

#: Entries kept by each of a service's warm-path maps: parsed request
#: bodies, encoded payload texts and construction failures.  A warm client
#: repeats a small set of scenarios (``serve_warm`` has 24), so 256 keeps
#: them all at a few hundred bytes each.
_MEMO_ENTRIES = 256

#: Longer request bodies are parsed every time and never memoised, so the
#: body memo holds at most ``_MEMO_ENTRIES`` times this many bytes.  A
#: scenario spec is a few hundred bytes.
_MEMO_MAX_BODY_BYTES = 16 * 1024


class _LRU:
    """A thread-safe map that forgets its least recently used entry."""

    def __init__(self, max_entries: int) -> None:
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = max_entries

    def __len__(self) -> int:
        # Under the lock: ``put`` holds one entry over the cap until it evicts.
        with self._lock:
            return len(self._entries)

    def get(self, key: Any) -> Any:
        """The value under ``key`` (now the most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)


def _is_current(family: FamilyInfo) -> bool:
    """Whether ``family`` is still the registry's entry under its name."""
    try:
        return get_family(family.name) is family
    except ScenarioError:
        return False


def deadline_seconds(value: Union[str, float]) -> float:
    """``value`` as a deadline in seconds, or :class:`ValueError`.

    A deadline must be a finite number in ``(0, threading.TIMEOUT_MAX]``:
    ``Event.wait`` returns at once on ``nan`` and overflows past
    ``TIMEOUT_MAX``.  The service's default and per-call deadlines,
    ``?deadline_s=`` and ``repro serve --deadline`` all check through here.
    """
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = float("nan")
    if not 0 < seconds <= threading.TIMEOUT_MAX:  # also rejects nan
        raise ValueError(
            f"a deadline must be a number of seconds in "
            f"(0, {threading.TIMEOUT_MAX:g}], got {value!r}"
        )
    return seconds


class ServeRequestError(ValueError):
    """A request the *caller* can fix: bad JSON, bad schema, unknown family.

    The HTTP layer maps this to a 400 response whose body carries the
    message verbatim; anything else escaping the service is a server-side
    500.
    """


class DeadlineExceeded(Exception):
    """A request ran past its deadline (HTTP 504).

    Only the *waiting* is cancelled: the solve keeps running in a helper
    thread, publishes its coalesced flight, and lands in the cache — so a
    timed-out request's retry (and every coalesced waiter) still gets the
    result.
    """


class ScenarioSolveError(Exception):
    """One scenario's solve failed; the failure is contained to it.

    The HTTP layer maps this to a structured per-scenario error (a 500
    envelope on ``/solve``, an ``{"type": "error"}`` record on ``/suite``)
    rather than poisoning the whole suite or server.
    """

    def __init__(self, scenario_id: str, cause: BaseException) -> None:
        super().__init__(
            f"scenario {scenario_id} failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.scenario_id = scenario_id
        self.cause = cause


def scenario_request_key(spec: ScenarioSpec, *, lp_strategy: str) -> str:
    """Content-addressed cache/coalescing key of one scenario request.

    Built on :attr:`~repro.scenarios.spec.ScenarioSpec.scenario_id` (which
    already excludes the display label), plus the engine's ``lp_strategy``:
    the ``"stacked"`` path may return different equally-optimal vertices
    than ``"per-lp"``, so results produced under different strategies must
    never answer each other's requests.  The execution mode is
    deliberately *not* part of the key -- serial and pooled engines return
    bit-identical results.
    """
    return _request_key(spec.scenario_id, lp_strategy)


def _request_key(scenario_id: str, lp_strategy: str) -> str:
    """:func:`scenario_request_key` from an already computed scenario id."""
    return fingerprint_data(
        {
            "kind": "serve_scenario",
            "version": 1,
            "scenario_id": scenario_id,
            "lp_strategy": lp_strategy,
        }
    )


class SolverService:
    """Scenario solving behind a cache, single-flight coalescing and metrics.

    Parameters
    ----------
    runner:
        A ready :class:`~repro.scenarios.runner.SuiteRunner` to solve cache
        misses with; its :class:`~repro.engine.BatchSolver` carries the
        engine options (execution mode, LP strategy, ...).  When omitted,
        the service builds ``BatchSolver(cache=..., verify=verify)``: a
        serial engine with the engine's defaults over ``cache_dir``.
    cache_dir:
        Optional directory for the disk tiers.  The engine's LP-level cache
        uses it directly -- the same layout ``suite run --cache-dir`` warms,
        so a served scenario reuses LP results of past CLI runs -- and the
        scenario-level result cache lives under its ``serve/`` subdirectory.
        ``None`` keeps both caches purely in memory.
    max_memory_entries:
        Memory-LRU bound of the scenario-level cache.
    deadline_s:
        Default per-request deadline in seconds (``repro serve
        --deadline``); a request may override it with ``?deadline_s=``.
        ``None`` disables deadlines; any other value must pass
        :func:`deadline_seconds`.
    max_inflight:
        Load-shedding bound: when this many requests are already being
        handled, further ones are refused admission (the HTTP layer turns
        that into 503 + ``Retry-After``).  ``None`` admits everything.
    verify:
        Result-verification mode, one of
        :data:`~repro.engine.executor.VERIFY_MODES`.  Forwarded to the
        engine (LP-level solution certificates) when the runner is built
        here, and — for any mode other than ``"off"`` — also turns on
        scenario-level certification
        (:func:`~repro.scenarios.certify.certify_scenario_result`) for
        every request by default.  Individual requests can override the
        default with ``?verify=1`` / ``?verify=0``.  A cached scenario
        payload that fails its certificate is quarantined and transparently
        re-solved; a *fresh* payload that fails is a server-side error
        (:class:`ScenarioSolveError`) — counted under
        ``serve.verify.{passed,failed,requeued}``.

    The service holds nothing open: :meth:`close` and the context-manager
    protocol only scope its lifetime.  :meth:`metrics` reads the
    process-wide HiGHS call counter against its value at construction.
    """

    def __init__(
        self,
        *,
        runner: Optional[SuiteRunner] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 4096,
        deadline_s: Optional[float] = None,
        max_inflight: Optional[int] = None,
        verify: str = "off",
    ) -> None:
        if deadline_s is not None:
            deadline_s = deadline_seconds(deadline_s)
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if verify not in VERIFY_MODES:
            raise ValueError(
                f"verify must be one of {VERIFY_MODES}, got {verify!r}"
            )
        self.verify = verify
        if runner is None:
            engine_cache = ResultCache(
                directory=Path(cache_dir) if cache_dir is not None else None
            )
            runner = SuiteRunner(
                engine=BatchSolver(cache=engine_cache, verify=verify)
            )
        self.runner = runner
        self.lp_strategy = runner.engine.lp_strategy
        self.scenario_cache = ResultCache(
            max_memory_entries=max_memory_entries,
            directory=Path(cache_dir) / "serve" if cache_dir is not None else None,
        )
        self.scheduler = RequestScheduler(
            cache=self.scenario_cache,
            registry=runner.engine.registry,
        )
        self.deadline_s = deadline_s
        self.max_inflight = max_inflight
        self._started = time.monotonic()
        self._metrics_lock = threading.Lock()
        self._requests: Dict[str, int] = {
            "scenario": 0,
            "suite": 0,
            "errors": 0,
            "shed": 0,
            "deadline_expired": 0,
            "failed": 0,
            "verify_failed": 0,
        }
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._highs = get_registry().counter("lp.highs.calls", "HiGHS invocations")
        self._highs_base = self._highs.value
        self._highs_last = 0
        # Raw body -> (spec, its validating family, request key).
        self._bodies = _LRU(_MEMO_ENTRIES)
        # Scenario id -> (payload, json.dumps(payload)).
        self._payload_texts = _LRU(_MEMO_ENTRIES)
        # Request key -> the UnitFailure of a ConstructionError.
        self._construction_failures = _LRU(_MEMO_ENTRIES)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the service (idempotent).

        The service holds nothing open; ``close`` and the context-manager
        protocol let callers scope its lifetime all the same.
        """

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission control (load shedding) and graceful drain
    # ------------------------------------------------------------------
    def try_admit(self) -> bool:
        """Claim one in-flight slot; ``False`` means shed this request.

        Every admitted request must be paired with a :meth:`release` (the
        HTTP layer does this in a ``finally``), which is also what lets
        :meth:`drain` know when shutdown may proceed.
        """
        with self._inflight_cond:
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                with self._metrics_lock:
                    self._requests["shed"] += 1
                get_registry().counter(
                    "serve.shed", "requests refused under load"
                ).inc()
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        """Return an in-flight slot claimed by :meth:`try_admit`."""
        with self._inflight_cond:
            self._inflight = max(0, self._inflight - 1)
            self._inflight_cond.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_cond:
            return self._inflight

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait for in-flight requests to finish; ``False`` on timeout."""
        deadline = time.monotonic() + timeout
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cond.wait(remaining)
            return True

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    @staticmethod
    def decode_body(raw: bytes) -> str:
        """A request body as text; one that is not UTF-8 is a 400."""
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServeRequestError(f"request body is not UTF-8: {exc}") from None

    @staticmethod
    def parse_scenario(text: str) -> ScenarioSpec:
        """Parse and registry-validate one scenario request body.

        Raises :class:`ServeRequestError` with the parser's or registry's
        precise message -- malformed JSON, unknown/wrongly-typed fields,
        and unknown families (listing the registered ones) all surface as
        caller errors, never as tracebacks.
        """
        return SolverService._parse_and_validate(text)[0]

    @staticmethod
    def _parse_and_validate(text: str) -> Tuple[ScenarioSpec, FamilyInfo]:
        """:meth:`parse_scenario`, also returning the validating family."""
        try:
            spec = ScenarioSpec.from_json(text)
        except json.JSONDecodeError as exc:
            raise ServeRequestError(f"request body is not valid JSON: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ServeRequestError(f"invalid scenario spec: {exc}") from None
        try:
            return spec, validate_spec(spec)
        except ScenarioError as exc:
            raise ServeRequestError(str(exc)) from None

    def _parse_body(self, body: Union[str, bytes]) -> Tuple[ScenarioSpec, str]:
        """The validated spec and request key of one ``POST /solve`` body.

        Memoised on the body itself: a repeated body is neither decoded,
        parsed, validated nor hashed again, unless its family has since
        been unregistered or replaced, in which case it is parsed afresh
        (and an unknown family is the usual 400).  Only successful parses
        are remembered, so a bad body fails the same way every time.
        """
        entry = self._bodies.get(body)
        if entry is not None and _is_current(entry[1]):
            return entry[0], entry[2]
        text = self.decode_body(body) if isinstance(body, bytes) else body
        spec, family = self._parse_and_validate(text)
        key = _request_key(spec.scenario_id, self.lp_strategy)
        if len(body) <= _MEMO_MAX_BODY_BYTES:
            self._bodies.put(body, (spec, family, key))
        return spec, key

    @staticmethod
    def parse_suite(text: str) -> Tuple[SuiteSpec, List[ScenarioSpec]]:
        """Parse one suite request body and expand+validate every scenario.

        Validation is eager -- the whole suite is checked before anything
        is solved or streamed, so a typo in the last grid fails the request
        with a 400 instead of dying mid-stream.
        """
        try:
            suite = SuiteSpec.from_json(text)
        except json.JSONDecodeError as exc:
            raise ServeRequestError(f"request body is not valid JSON: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ServeRequestError(f"invalid suite spec: {exc}") from None
        try:
            scenarios = SuiteRunner.expand(suite)
        except ScenarioError as exc:
            raise ServeRequestError(str(exc)) from None
        except (TypeError, ValueError) as exc:
            raise ServeRequestError(f"invalid suite spec: {exc}") from None
        return suite, scenarios

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _solve_specs(self, specs: List[ScenarioSpec]) -> List[Tuple[Any, float]]:
        """Scheduler ``solve`` callback: run each miss through the runner.

        The payload is :meth:`ScenarioResult.as_dict` minus its
        timing-only ``seconds`` field, so cached and fresh answers to the
        same request are byte-identical; timing is reported per request in
        the response envelope instead.

        Failure containment: a scenario whose solve raises becomes a
        :class:`~repro.engine.scheduler.UnitFailure` payload — its own
        request (and any coalesced waiters) fails with a structured error
        while every other scenario in the batch completes normally.
        """
        outcomes: List[Tuple[Any, float]] = []
        for spec in specs:
            start = time.perf_counter()
            try:
                _inject("serve.request", scenario=spec.scenario_id)
                (result,) = list(self.runner.run([spec]))
                payload: Any = result.as_dict()
                payload.pop("seconds", None)
            except Exception as exc:
                payload = UnitFailure(exc)
            outcomes.append((payload, time.perf_counter() - start))
        return outcomes

    def _scenario_validator(
        self, spec: ScenarioSpec
    ) -> Callable[[str, Any, Optional[str], Any], bool]:
        """The scheduler ``validate`` hook certifying cached scenario hits.

        A cache hit that fails :func:`certify_scenario_result` is
        quarantined (moved to the store's quarantine table, evicted from
        memory) and rejected — the scheduler then falls through to the
        normal miss path, so the caller transparently gets a verified
        re-solve instead of damaged bytes.
        """

        def validate(
            key: str, payload: Any, tier: Optional[str], builder: Any
        ) -> bool:
            try:
                certify_scenario_result(spec, payload)
            except VerificationError as exc:
                registry = get_registry()
                registry.counter(
                    "serve.verify.failed", "scenario certificates rejected"
                ).inc()
                registry.counter(
                    "serve.verify.requeued",
                    "cached scenario payloads quarantined and re-solved",
                ).inc()
                with self._metrics_lock:
                    self._requests["verify_failed"] += 1
                self.scenario_cache.quarantine_key(key)
                warnings.warn(
                    f"cached scenario payload for {spec.scenario_id} failed "
                    f"verification and was quarantined: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            get_registry().counter(
                "serve.verify.passed", "scenario certificates accepted"
            ).inc()
            return True

        return validate

    def _resolve_verify(self, verify: Optional[bool]) -> bool:
        """Per-request flag beats the service-wide ``verify`` mode."""
        if verify is None:
            return self.verify != "off"
        return bool(verify)

    def solve_scenario(
        self,
        spec: ScenarioSpec,
        *,
        debug_trace: bool = False,
        deadline_s: Optional[float] = None,
        verify: Optional[bool] = None,
    ) -> Dict[str, Any]:
        """Solve one (already validated) scenario; returns the envelope.

        The envelope is ``{"scenario_id", "source", "cached", "seconds",
        "result"}`` where ``source`` is ``"cache"``, ``"solved"`` or
        ``"coalesced"`` and ``result`` is the deterministic
        :meth:`~repro.scenarios.runner.ScenarioResult.as_dict` payload.
        With verification on (``?verify=1``, or by service default when the
        service was built with ``verify != "off"``) the envelope also
        carries ``"verify": "passed"`` and the result is backed by a
        scenario certificate: cached payloads that fail it are quarantined
        and re-solved, fresh ones that fail raise
        :class:`ScenarioSolveError`.

        Every request runs under a ``serve.request`` span tagged with its
        answer source, and its latency lands in the
        ``serve.request.seconds`` histogram of the global metrics registry
        (per-source counts in ``serve.requests.<source>``).  With
        ``debug_trace`` the request records into its own request-local
        tracer and the envelope gains a ``"trace"`` key with the per-stage
        breakdown — spans of a debug request therefore live in their own
        trace, not in any globally active one.

        ``deadline_s`` (or the service-wide default) bounds how long this
        call *waits*: past the deadline it raises :class:`DeadlineExceeded`
        while the solve finishes on a helper thread — publishing its
        coalesced flight and caching its result — so a timeout never kills
        another waiter's request.  A deadline outside
        :func:`deadline_seconds`'s range is a :class:`ValueError`.  A failed
        solve raises
        :class:`ScenarioSolveError` carrying the scenario id.
        """
        return self._solve(
            spec,
            _request_key(spec.scenario_id, self.lp_strategy),
            debug_trace=debug_trace,
            deadline_s=deadline_s,
            verify=verify,
        )

    def _solve(
        self,
        spec: ScenarioSpec,
        key: str,
        *,
        debug_trace: bool,
        deadline_s: Optional[float],
        verify: Optional[bool],
    ) -> Dict[str, Any]:
        """:meth:`solve_scenario` with the request key already computed."""
        deadline = (
            self.deadline_s if deadline_s is None else deadline_seconds(deadline_s)
        )
        do_verify = self._resolve_verify(verify)
        if deadline is None:
            return self._solve_scenario_inline(
                spec, key, debug_trace=debug_trace, verify=do_verify
            )
        done = threading.Event()
        box: Dict[str, Any] = {}

        def work() -> None:
            try:
                box["result"] = self._solve_scenario_inline(
                    spec, key, debug_trace=debug_trace, verify=do_verify
                )
            except BaseException as exc:
                box["error"] = exc
            finally:
                done.set()

        threading.Thread(
            target=work, name="serve-deadline", daemon=True
        ).start()
        if not done.wait(deadline):
            with self._metrics_lock:
                self._requests["deadline_expired"] += 1
            get_registry().counter(
                "serve.deadline.expired", "requests that ran past a deadline"
            ).inc()
            raise DeadlineExceeded(
                f"request for scenario {spec.scenario_id} exceeded its "
                f"{deadline:g}s deadline; the solve continues in the "
                "background and its result will be cached"
            )
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _solve_scenario_inline(
        self,
        spec: ScenarioSpec,
        key: str,
        *,
        debug_trace: bool = False,
        verify: bool = False,
    ) -> Dict[str, Any]:
        """The deadline-free request path behind :meth:`solve_scenario`."""
        with self._metrics_lock:
            self._requests["scenario"] += 1
        scenario_id = spec.scenario_id
        start = time.perf_counter()
        request_tracer = Tracer() if debug_trace else None
        with activate(request_tracer) if debug_trace else _NULL_CONTEXT:
            with trace_span("serve.request", scenario=scenario_id) as request_span:
                failure = self._construction_failures.get(key)
                if failure is not None:
                    payload, source = failure, SOURCE_FAILED
                else:
                    ((payload, source),) = self.scheduler.run(
                        [key],
                        [lambda: spec],
                        kind="serve_scenario",
                        solve=self._solve_specs,
                        details=True,
                        validate=(
                            self._scenario_validator(spec) if verify else None
                        ),
                    )
                request_span.tag(source=source)
        seconds = time.perf_counter() - start
        registry = get_registry()
        registry.histogram(
            "serve.request.seconds", "scenario request latency"
        ).observe(seconds)
        registry.counter(
            f"serve.requests.{source}", "scenario requests by answer source"
        ).inc()
        if isinstance(payload, UnitFailure):
            with self._metrics_lock:
                self._requests["failed"] += 1
            if failure is None and isinstance(payload.error, ConstructionError):
                # The spec's generator fails the same way every time: keep
                # the failure (without its frames) instead of rebuilding.
                payload.error.with_traceback(None)
                self._construction_failures.put(key, payload)
            raise ScenarioSolveError(scenario_id, payload.error)
        if verify and source != "cache":
            # Cache hits were certified by the validate hook above; fresh
            # (or coalesced) payloads get their certificate here.  A fresh
            # result failing its own certificate is a server bug, not
            # cache damage: quarantine what was just published and fail
            # the request loudly instead of serving an unverifiable answer.
            try:
                certify_scenario_result(spec, payload)
            except VerificationError as exc:
                registry.counter(
                    "serve.verify.failed", "scenario certificates rejected"
                ).inc()
                with self._metrics_lock:
                    self._requests["verify_failed"] += 1
                    self._requests["failed"] += 1
                self.scenario_cache.quarantine_key(key)
                raise ScenarioSolveError(scenario_id, exc) from None
            registry.counter(
                "serve.verify.passed", "scenario certificates accepted"
            ).inc()
        envelope = {
            "scenario_id": scenario_id,
            "source": source,
            "cached": source != SOURCE_SOLVED,
            "seconds": seconds,
            "result": payload,
        }
        if verify:
            envelope["verify"] = "passed"
        if request_tracer is not None:
            envelope["trace"] = {
                "spans": len(request_tracer),
                "stages": stage_summary(request_tracer.spans()),
            }
        return envelope

    def solve_scenario_json(
        self,
        body: Union[str, bytes],
        *,
        debug_trace: bool = False,
        deadline_s: Optional[float] = None,
        verify: Optional[bool] = None,
    ) -> Dict[str, Any]:
        """``POST /solve`` semantics: parse, validate, solve, envelope.

        ``body`` is the request body as sent (bytes, decoded here as
        UTF-8) or as text; a body seen before skips the parse (see
        :meth:`_parse_body`).
        """
        spec, key = self._parse_body(body)
        return self._solve(
            spec,
            key,
            debug_trace=debug_trace,
            deadline_s=deadline_s,
            verify=verify,
        )

    def envelope_json(self, envelope: Dict[str, Any]) -> str:
        """``json.dumps(envelope)``, reusing the text of a known payload.

        The text of each result payload is kept under its scenario id and
        reused only for that very payload object, so a payload that was
        quarantined and re-solved is encoded afresh.  The envelope's other
        values are encoded per request and joined around it in key order,
        which gives exactly the bytes of ``json.dumps(envelope)``.
        """
        payload = envelope["result"]
        entry = self._payload_texts.get(envelope["scenario_id"])
        if entry is None or entry[0] is not payload:
            entry = (payload, json.dumps(payload))
            self._payload_texts.put(envelope["scenario_id"], entry)
        return "{" + ", ".join(
            json.dumps(name) + ": " + (
                entry[1] if name == "result" else json.dumps(value)
            )
            for name, value in envelope.items()
        ) + "}"

    def iter_suite_json(
        self,
        text: str,
        *,
        deadline_s: Optional[float] = None,
        verify: Optional[bool] = None,
    ) -> Iterator[Dict[str, Any]]:
        """``POST /suite`` semantics: one result record per scenario.

        Parsing and validation happen eagerly (raising
        :class:`ServeRequestError` before the first record); the returned
        iterator then yields ``{"type": "result", ...}`` envelopes in
        declaration order -- each one as soon as it is solved, so callers
        can stream -- followed by one ``{"type": "summary", ...}`` record
        with per-source counts.

        Failure containment: a scenario that fails (or runs past
        ``deadline_s``) yields one structured ``{"type": "error", ...}``
        record and the stream *continues* -- one poisoned scenario never
        costs the caller the rest of the suite.  The record's error type
        matches ``POST /solve``'s: ``deadline_exceeded``,
        ``construction_failed`` (the instance cannot be built) or
        ``solve_failed``.
        """
        suite, scenarios = self.parse_suite(text)
        with self._metrics_lock:
            self._requests["suite"] += 1

        def stream() -> Iterator[Dict[str, Any]]:
            start = time.perf_counter()
            counts = {"cache": 0, "solved": 0, "coalesced": 0, "failed": 0}
            for spec in scenarios:
                try:
                    envelope = self.solve_scenario(
                        spec, deadline_s=deadline_s, verify=verify
                    )
                except (ScenarioSolveError, DeadlineExceeded) as exc:
                    counts["failed"] += 1
                    self.count_error()
                    if isinstance(exc, DeadlineExceeded):
                        error_type = "deadline_exceeded"
                    elif isinstance(exc.cause, ConstructionError):
                        error_type = "construction_failed"
                    else:
                        error_type = "solve_failed"
                    yield {
                        "type": "error",
                        "scenario_id": spec.scenario_id,
                        "error": {"type": error_type, "message": str(exc)},
                    }
                    continue
                counts[envelope["source"]] += 1
                yield {"type": "result", **envelope}
            yield {
                "type": "summary",
                "suite": suite.name,
                "n_scenarios": len(scenarios),
                "sources": counts,
                "seconds": time.perf_counter() - start,
            }

        return stream()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def count_error(self) -> None:
        """Record one failed request (the HTTP layer calls this on 4xx/5xx)."""
        with self._metrics_lock:
            self._requests["errors"] += 1

    def healthz(self) -> Dict[str, Any]:
        """Liveness payload: version and uptime."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }

    def metrics(self) -> Dict[str, Any]:
        """One observability snapshot of every layer of the service.

        ``highs.window`` is the number of HiGHS calls since the *previous*
        scrape (the counter-delta convention pull-based collectors expect);
        ``highs.total`` is monotone over the service's lifetime.
        """
        engine = self.runner.engine
        with self._metrics_lock:
            total = int(self._highs.value - self._highs_base)
            window = total - self._highs_last
            self._highs_last = total
            requests = dict(self._requests)
        payload: Dict[str, Any] = {
            "version": __version__,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests": requests,
            "scenarios": {
                "scheduler": self.scheduler.stats.as_dict(),
                "cache": self.scenario_cache.stats.as_dict(),
            },
            "engine": {
                "stats": engine.stats.as_dict(),
                "lp": engine.lp_stats.as_dict(),
                "cache": (
                    engine.cache.stats.as_dict() if engine.cache is not None else None
                ),
            },
            "canon": dict(engine.canon_index().stats),
            "highs": {"total": total, "window": window},
        }
        return payload

    def render_prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: text exposition format.

        Combines the global metrics registry (request latency histogram,
        HiGHS call counters, per-source request counters) with the nested
        :meth:`metrics` snapshot, whose numeric leaves flatten to
        ``repro_``-prefixed gauges.  Note :meth:`metrics` advances the
        ``highs.window`` scrape delta, exactly as a JSON scrape would.
        """
        return render_prometheus(get_registry(), extra=self.metrics())
