"""The reusable request-scheduling core: dedup → cache → single-flight → solve.

:class:`RequestScheduler` is the content-addressed request loop that used to
live inside :meth:`repro.engine.executor.BatchSolver._run_requests`, factored
out so that more than one front end can drive it:

* the in-process API — :class:`~repro.engine.executor.BatchSolver` hands it
  batches of LP solve requests (the builders produce compiled reductions,
  the ``solve`` callback is the batched LP fan-out);
* the serving layer — :class:`repro.serve.SolverService` hands it whole
  scenario requests (the builders produce :class:`ScenarioSpec` objects,
  the ``solve`` callback runs the scenario pipeline), so an HTTP server
  gets exactly the same dedup/cache/coalescing semantics the engine has.

On top of the historical behaviour (within-batch dedup, cache consultation,
builders invoked for misses only, results stored back and returned in
submission order) the scheduler adds **single-flight coalescing** across
threads: when two callers concurrently request the same key, exactly one of
them performs the solve while the other *attaches* to the in-flight request
and receives the identical result object.  This is what turns N concurrent
identical requests hitting a server into one engine solve.

Coalescing is deadlock-free by construction: a caller first claims every
key nobody else owns, then solves and **publishes** its own pending work,
and only afterwards waits on keys owned by other threads — so by the time
any caller blocks, everything it owns is already visible to everyone else.
Owners publish results (or the raised exception) in a ``finally`` block, so
waiters can never hang on a crashed flight.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer, span
from .cache import ResultCache
from .jobs import JobRecord, RunRegistry

__all__ = ["RequestScheduler", "UnitFailure"]

_MISSING = object()

#: How a request was answered (``details=True`` return values).
SOURCE_CACHE = "cache"
SOURCE_SOLVED = "solved"
SOURCE_COALESCED = "coalesced"
SOURCE_FAILED = "failed"


class UnitFailure:
    """A contained per-unit failure travelling through the scheduler.

    The ``solve`` callback returns one of these (instead of a payload)
    for a unit that failed while the rest of its batch succeeded.  The
    scheduler fails only that unit's flight, records the error, skips the
    cache, and — without ``details`` — re-raises the wrapped exception
    after every other key has been published and cached, so one poisoned
    unit never takes the batch down with it.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnitFailure({type(self.error).__name__}: {self.error})"


class _Flight:
    """One in-flight solve another thread may attach to."""

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Any = _MISSING
        self.error: Optional[BaseException] = None

    def publish(self, payload: Any) -> None:
        self.payload = payload
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()

    def wait(self) -> Any:
        self.event.wait()
        if self.error is not None:
            raise self.error
        return self.payload


class RequestScheduler:
    """Run content-keyed requests through dedup, a cache and single-flight.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.engine.cache.ResultCache`; consulted before
        solving, and every solved payload is stored back under its key.
    registry:
        Optional :class:`~repro.engine.jobs.RunRegistry`; receives one
        :class:`~repro.engine.jobs.JobRecord` per deduplicated key (cache
        hits and coalesced attachments are recorded as ``cached``).
    stats:
        Counter object with the :class:`~repro.engine.executor.EngineStats`
        fields (``batches``, ``units``, ``executed``, ``dedup_saved``,
        ``coalesced``).  The engine passes its own stats in so the
        scheduler's counting *is* the engine's counting.
    coalesce:
        Enable cross-thread single-flight attachment (default).  Disabled,
        concurrent identical requests solve independently — the historical
        behaviour, still race-free because cache writes are idempotent.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        registry: Optional[RunRegistry] = None,
        stats: Any = None,
        coalesce: bool = True,
    ) -> None:
        if stats is None:
            from .executor import EngineStats

            stats = EngineStats()
        self.cache = cache
        self.registry = registry
        self.stats = stats
        self.coalesce = coalesce
        self._flights: Dict[str, _Flight] = {}
        #: Flights retired so far; a claim re-reads the cache if it moved.
        self._landed = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # The request loop
    # ------------------------------------------------------------------
    def run(
        self,
        keys: Sequence[str],
        builders: Sequence[Callable[[], Any]],
        *,
        kind: str,
        solve: Callable[[List[Any]], Sequence[Tuple[Any, float]]],
        details: bool = False,
        validate: Optional[Callable[[str, Any, str, Callable[[], Any]], bool]] = None,
    ) -> List[Any]:
        """Answer every key, invoking ``solve`` only for unclaimed misses.

        ``builders[i]`` produces the solve unit for ``keys[i]``; it is only
        invoked when the key is neither cached nor already in flight.
        ``solve`` receives the pending units (in deduplicated submission
        order) and must return one ``(payload, duration_seconds)`` pair per
        unit.  Payloads are returned in the original ``keys`` order; with
        ``details=True`` each entry is ``(payload, source)`` where source is
        ``"cache"``, ``"solved"`` or ``"coalesced"``.

        ``validate`` is the verification gate on the cache path: called as
        ``validate(key, payload, tier, builder)`` for every cache hit
        (tier ``"memory"`` or ``"disk"``) *before* the payload is
        published.  Returning ``False`` rejects the hit — the key falls
        through to the normal miss path (build, single-flight, solve) as
        if the cache had never answered, so a corrupt-but-parseable entry
        becomes a fresh solve instead of a wrong answer.  The validator is
        responsible for quarantining whatever it rejected.

        When tracing is enabled the whole batch runs under an
        ``engine.schedule`` span tagged with how each deduplicated key was
        answered; per-source counters also land in the global metrics
        registry (``engine.requests.cache`` / ``.solved`` / ``.coalesced``).
        """
        with span(
            "engine.schedule", kind=kind, units=len(keys)
        ) as schedule_span:
            results, sources = self._run_batch(
                keys, builders, kind=kind, solve=solve, validate=validate
            )
            counts: Dict[str, int] = {}
            for source in sources.values():
                counts[source] = counts.get(source, 0) + 1
            schedule_span.tag(**counts)
        if counts:
            registry = get_registry()
            for source, count in counts.items():
                registry.counter(
                    f"engine.requests.{source}",
                    "scheduler requests by answer source",
                ).inc(count)

        if details:
            return [(results[key], sources[key]) for key in keys]
        # Containment contract: every healthy key is already cached and
        # published before the first failure surfaces to the caller.
        for key in keys:
            payload = results[key]
            if isinstance(payload, UnitFailure):
                raise payload.error
        return [results[key] for key in keys]

    def _run_batch(
        self,
        keys: Sequence[str],
        builders: Sequence[Callable[[], Any]],
        *,
        kind: str,
        solve: Callable[[List[Any]], Sequence[Tuple[Any, float]]],
        validate: Optional[Callable[[str, Any, str, Callable[[], Any]], bool]] = None,
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """The request loop of :meth:`run`: payload and source per key."""
        self.stats.batches += 1
        self.stats.units += len(keys)
        first_index: Dict[str, int] = {}
        for idx, key in enumerate(keys):
            first_index.setdefault(key, idx)
        self.stats.dedup_saved += len(keys) - len(first_index)

        results: Dict[str, Any] = {}
        sources: Dict[str, str] = {}
        pending: List[Tuple[str, Any]] = []
        owned: List[Tuple[str, _Flight]] = []
        attached: List[Tuple[str, _Flight]] = []
        try:
            for key, idx in first_index.items():
                landed = self._landed
                cached = self._lookup(key, builders[idx], validate)
                if cached is _MISSING and self.coalesce:
                    with self._lock:
                        flight = self._flights.get(key)
                        if flight is not None:
                            attached.append((key, flight))
                            continue
                        flight = _Flight()
                        self._flights[key] = flight
                        owned.append((key, flight))
                        raced = self._landed != landed
                    if raced:
                        # A flight landed since our miss; it may have been
                        # this key's, cached just before it retired.
                        cached = self._lookup(key, builders[idx], validate)
                        if cached is not _MISSING:
                            flight.publish(cached)
                if cached is not _MISSING:
                    results[key] = cached
                    sources[key] = SOURCE_CACHE
                    if self.registry is not None:
                        record = self.registry.new_job(kind, key)
                        self.registry.finish_job(record, cached=True)
                    continue
                # We own this key (or coalescing is off): build its unit.
                pending.append((key, builders[idx]()))

            if pending:
                self._solve_owned(pending, owned, results, kind=kind, solve=solve)
            for key, _ in pending:
                sources[key] = (
                    SOURCE_FAILED
                    if isinstance(results.get(key), UnitFailure)
                    else SOURCE_SOLVED
                )
        finally:
            # Any owned flight not yet published (builder raised, solve
            # raised, ...) must fail loudly rather than strand its waiters.
            for key, flight in owned:
                if not flight.event.is_set():
                    flight.fail(
                        RuntimeError(f"in-flight request {key!r} was abandoned")
                    )
                with self._lock:
                    self._flights.pop(key, None)
                    self._landed += 1

        # Only after our own work is published may we block on other
        # threads' flights (see the module docstring for why this ordering
        # makes coalescing deadlock-free).
        for key, flight in attached:
            self.stats.coalesced += 1
            try:
                payload = flight.wait()
            except BaseException as exc:
                # The owner failed; this waiter fails identically, but the
                # batch's other keys (above) already have their answers.
                results[key] = UnitFailure(exc)
                sources[key] = SOURCE_FAILED
                if self.registry is not None:
                    record = self.registry.new_job(kind, key)
                    self.registry.finish_job(record, error=str(exc))
                continue
            results[key] = payload
            sources[key] = SOURCE_COALESCED
            if self.registry is not None:
                record = self.registry.new_job(kind, key)
                self.registry.finish_job(record, cached=True)

        return results, sources

    def _lookup(
        self,
        key: str,
        builder: Callable[[], Any],
        validate: Optional[Callable[[str, Any, str, Callable[[], Any]], bool]],
    ) -> Any:
        """The cached payload for ``key``, or ``_MISSING``.

        Verification gate: a hit ``validate`` rejects is demoted to a miss,
        so the key claims a flight and re-solves like any cold request.
        """
        if self.cache is None:
            return _MISSING
        cached, tier = self.cache.get_with_tier(key, _MISSING)
        if cached is not _MISSING and validate is not None:
            if not validate(key, cached, tier, builder):
                return _MISSING
        return cached

    def _solve_owned(
        self,
        pending: List[Tuple[str, Any]],
        owned: List[Tuple[str, _Flight]],
        results: Dict[str, Any],
        *,
        kind: str,
        solve: Callable[[List[Any]], Sequence[Tuple[Any, float]]],
    ) -> None:
        """Solve the units we claimed; store, publish and record each one.

        With tracing enabled, the per-stage time totals of the spans this
        solve produced are persisted into every job record's ``meta``
        (``stage_timings``), so a saved :class:`RunRegistry` carries the
        stage breakdown of each batch alongside its durations.
        """
        flights = dict(owned)
        records: List[Optional[JobRecord]] = [
            self.registry.new_job(kind, key) if self.registry is not None else None
            for key, _ in pending
        ]
        tracer = get_tracer() if self.registry is not None else None
        mark = tracer.mark() if tracer is not None else 0
        try:
            outcomes = solve([unit for _, unit in pending])
        except Exception as exc:
            for (key, _), record in zip(pending, records):
                if record is not None:
                    self.registry.finish_job(record, error=str(exc))
                flight = flights.get(key)
                if flight is not None:
                    flight.fail(exc)
            raise
        stage_timings = (
            tracer.stage_totals(since=mark) if tracer is not None else None
        )
        for (key, _), record, (payload, duration) in zip(pending, records, outcomes):
            if isinstance(payload, UnitFailure):
                # Containment: this unit alone fails -- its flight carries
                # the error to any waiters, nothing is cached, and the
                # batch's other units publish normally.
                self.stats.unit_failures += 1
                get_registry().counter(
                    "engine.unit_failures", "solve units that failed"
                ).inc()
                results[key] = payload
                flight = flights.get(key)
                if flight is not None:
                    flight.fail(payload.error)
                if record is not None:
                    self.registry.finish_job(record, error=str(payload.error))
                continue
            self.stats.executed += 1
            if self.cache is not None:
                self.cache.put(key, payload)
            results[key] = payload
            flight = flights.get(key)
            if flight is not None:
                flight.publish(payload)
            if record is not None:
                if stage_timings:
                    record.meta["stage_timings"] = stage_timings
                self.registry.finish_job(record, duration_s=duration)
