"""The parallel batch solver: dedup → cache → fan out → collect.

:class:`BatchSolver` is the shared fast path for every LP the reproduction
solves.  Callers hand it a batch of independent work units — the per-agent
local LPs of the Section 5 averaging algorithm, or whole-instance exact
solves from the analysis sweeps — and it

1. **canonicalises and fingerprints** each unit: local LPs are first
   reduced to their canonical form (:mod:`repro.canon`) so that
   *isomorphic* subproblems — equal after forgetting vertex names — share
   one fingerprint, then de-duplicated within the batch (whole-instance
   exact solves are fingerprinted literally);
2. **consults the cache** (:mod:`repro.engine.cache`) and only keeps the
   units whose fingerprints have never been solved — for canonical local
   LPs the disk tier is therefore shared across isomorphic instances;
3. **compiles the remainder to sparse reductions and batches them**
   through :func:`repro.lp.maxmin.solve_maxmin_buffer_batch`: cache
   misses are chunked deterministically and each chunk is one batched LP
   submission — a single block-diagonal HiGHS call under the
   ``"stacked"`` strategy, a per-LP loop under the default ``"per-lp"``
   strategy.  Chunks fan across
   a ``concurrent.futures`` thread or process pool (``mode="thread"`` /
   ``"process"``) carrying only raw CSR buffers — never pickled
   ``MaxMinLP`` objects — and fall back to in-process serial execution
   when ``mode="serial"``, when the batch is trivial, or when the
   platform refuses to spawn workers;
4. **collects** results in submission order, stores them in the cache and
   optionally records per-unit timings in a :class:`~repro.engine.jobs.RunRegistry`.

Execution mode never changes the numbers: results are produced by the same
backend on the same canonical subproblems in the same deterministic chunks,
so serial, pooled and cache-warm runs return bit-identical objectives (the
test suite asserts this).  One knob *does* select among equally optimal
vertices: ``lp_strategy`` (the opt-in ``"stacked"`` strategy solves whole
chunks in one block-diagonal HiGHS call, whose vertex choice on degenerate
LPs depends on batch composition; the default ``"per-lp"`` is
bit-identical to the historical per-call engine).  Optimal *values* agree
across both to solver tolerance.

A process-wide default engine (serial, in-memory cache) is available via
:func:`get_default_engine`; the algorithm entry points use it when no
explicit engine is passed, which transparently de-duplicates repeated
solves across a session.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.problem import Agent, MaxMinLP
from ..exceptions import (
    InfeasibleError,
    SolverError,
    UnboundedError,
    VerificationError,
)
from ..faults import InjectedFault, RetryPolicy
from ..faults import inject as _inject
from ..io import solution_from_dict, solution_to_dict
from ..obs.metrics import get_registry
from ..lp.backends import DEFAULT_BACKEND
from ..lp.batch import BATCH_STRATEGIES, BatchSolveStats
from ..lp.maxmin import (
    CompiledMaxMin,
    MaxMinSolveResult,
    interpret_maxmin_status,
    solve_maxmin_buffer_batch,
)
from ..lp.verify import verify_engine_payload
from ..obs.statsutil import merge_stats, stats_as_dict
from ..obs.trace import Tracer, activate, capture_context, get_tracer, span
from .cache import ResultCache
from .fingerprint import (
    fingerprint_canonical_requests,
    fingerprint_request,
)
from .jobs import RunRegistry
from .scheduler import RequestScheduler, UnitFailure

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a cycle
    from ..canon.labeling import CanonicalForm

__all__ = [
    "EXECUTION_MODES",
    "VERIFY_MODES",
    "BatchSolver",
    "EngineStats",
    "LocalLPOutcome",
    "get_default_engine",
    "reset_default_engine",
    "set_default_engine",
]

#: Supported execution modes of :class:`BatchSolver`.
EXECUTION_MODES = ("serial", "thread", "process")

#: Supported verification modes: ``"off"`` trusts every payload, ``"cached"``
#: re-certifies anything read from the *disk* tier before it is published,
#: ``"all"`` additionally certifies every fresh solve.
VERIFY_MODES = ("off", "cached", "all")

#: Transient-worker retry: injected ``engine.worker`` faults (the chaos
#: stand-in for a flaky spawn) are absorbed with short backoff before the
#: batch is allowed to fail.
WORKER_RETRY = RetryPolicy(
    attempts=3,
    base_delay=0.005,
    multiplier=2.0,
    max_delay=0.05,
    retry_on=(InjectedFault,),
    seed=0,
)

@dataclass(frozen=True)
class LocalLPOutcome:
    """Solution of one local LP (9): the vector ``x^u`` and its value ``ω^u``.

    ``objective`` is ``inf`` when the view contains no complete beneficiary
    support (``K^u = ∅``, the vacuous minimum).
    """

    x: Dict[Agent, float]
    objective: float


@dataclass
class EngineStats:
    """Execution counters of a :class:`BatchSolver`.

    Attributes
    ----------
    batches:
        Batches submitted.
    units:
        Work units requested across all batches (before dedup/cache).
    executed:
        Units actually computed (cache misses after dedup).
    dedup_saved:
        Units skipped because an identical unit appeared earlier in the
        same batch.
    coalesced:
        Units answered by attaching to another thread's in-flight solve of
        the same key (single-flight coalescing, see
        :mod:`repro.engine.scheduler`).
    pool_fallbacks:
        Times a worker pool could not be used and the engine ran serially.
    pool_respawns:
        Times a dead worker pool was rebuilt and the batch resubmitted
        (the step tried before the serial fallback).
    unit_failures:
        Solve units that failed while the rest of their batch completed
        (failure containment, see :class:`~repro.engine.scheduler.UnitFailure`).
    verify_passed:
        Solution certificates that passed (cached payloads re-certified
        before publishing, plus fresh solves under ``verify="all"``).
    verify_failed:
        Certificates that failed — each one is a wrong answer that was
        *not* served.
    verify_requeued:
        Failed cached payloads demoted to misses and re-solved (always
        equal to the cached share of ``verify_failed``).
    """

    batches: int = 0
    units: int = 0
    executed: int = 0
    dedup_saved: int = 0
    coalesced: int = 0
    pool_fallbacks: int = 0
    pool_respawns: int = 0
    unit_failures: int = 0
    verify_passed: int = 0
    verify_failed: int = 0
    verify_requeued: int = 0

    def as_dict(self) -> Dict[str, int]:
        return stats_as_dict(self)


# ----------------------------------------------------------------------
# Solve units and the chunk worker (module level so process pools can
# pickle it).  A unit is one max-min reduction plus the identifier list
# needed to key its payload; only the *compiled* CSR buffers travel to
# workers -- a process pool ships a handful of numpy arrays per unit, not
# a pickled :class:`MaxMinLP` with its coefficient dictionaries and
# support sets.
# ----------------------------------------------------------------------
@dataclass
class _SolveUnit:
    """One pending solve: compiled matrices + the agent identifiers."""

    agents: Tuple[Agent, ...]
    compiled: CompiledMaxMin

    @classmethod
    def from_problem(cls, problem: MaxMinLP) -> "_SolveUnit":
        return cls(agents=problem.agents, compiled=CompiledMaxMin.from_problem(problem))

    @classmethod
    def of(cls, built) -> "_SolveUnit":
        """Normalise a builder's output (unit, problem or compiled matrices).

        Canonical local LPs arrive as bare :class:`CompiledMaxMin`
        matrices -- their agents are the canonical positions ``0..n-1`` by
        construction, so no :class:`MaxMinLP` (with its identifier maps and
        support sets) is ever assembled for them.
        """
        if isinstance(built, cls):
            return built
        if isinstance(built, CompiledMaxMin):
            return cls(agents=tuple(range(built.n_agents)), compiled=built)
        return cls.from_problem(built)


def _solve_buffers_contained(
    unit_buffers: List[Tuple],
    strategy: str,
    stats: BatchSolveStats,
) -> List[Tuple[str, Optional[Any]]]:
    """Batched solve with per-unit containment.

    If the batched submission itself blows up (one poisoned unit can take
    a whole block-diagonal call down), fall back to solving the chunk's
    units one at a time so only the culprit fails: it returns a
    ``("failed", {"type", "message"})`` marker -- plain strings, so the
    marker survives the trip home from a process worker -- and every
    other unit returns its real result.
    """
    try:
        return solve_maxmin_buffer_batch(
            unit_buffers, strategy=strategy, stats=stats
        )
    except Exception:
        results: List[Tuple[str, Optional[Any]]] = []
        for buffers in unit_buffers:
            try:
                (result,) = solve_maxmin_buffer_batch(
                    [buffers], strategy=strategy, stats=stats
                )
            except Exception as exc:
                result = (
                    "failed",
                    {"type": type(exc).__name__, "message": str(exc)},
                )
            results.append(result)
        return results


def _solve_compiled_chunk(
    args: Tuple[List[Tuple], str, Optional[Dict[str, Any]]],
) -> Tuple[List[Tuple[str, Optional[Any]]], float, Dict[str, int], List[Tuple]]:
    """Solve one chunk of compiled reductions as a single batched submission.

    ``args`` is ``(unit_buffers, strategy, trace_ctx)`` where each
    entry of ``unit_buffers`` is
    :meth:`repro.lp.maxmin.CompiledMaxMin.to_buffers` output.  Returns
    ``(status_name, x_vector)`` per unit plus the chunk's solve duration,
    its solver counters (as a plain dict so they travel home from worker
    processes) and, when ``trace_ctx`` is set, the worker's recorded spans
    as plain tuples; interpretation of statuses (and all identifier work)
    stays in the parent process.

    Tracing uses a worker-local :class:`~repro.obs.trace.Tracer`
    regardless of execution mode — serial, thread and process workers all
    record into a fresh collector whose spans the parent grafts back under
    the submitting span (:meth:`~repro.obs.trace.Tracer.reattach`), so a
    HiGHS call made in a child process lands in the same trace tree as one
    made inline.  With ``trace_ctx=None`` nothing is recorded anywhere.
    """
    unit_buffers, strategy, trace_ctx = args
    stats = BatchSolveStats()
    start = time.perf_counter()
    if trace_ctx is None:
        results = _solve_buffers_contained(unit_buffers, strategy, stats)
        return results, time.perf_counter() - start, stats.as_dict(), []
    local = Tracer()
    with activate(local):
        with span("lp.chunk", lps=len(unit_buffers), strategy=strategy):
            results = _solve_buffers_contained(unit_buffers, strategy, stats)
    return (
        results,
        time.perf_counter() - start,
        stats.as_dict(),
        local.export_spans(),
    )


class BatchSolver:
    """Fan independent solve requests across a worker pool, behind a cache.

    Parameters
    ----------
    mode:
        ``"serial"`` (default), ``"thread"`` or ``"process"``.  Thread pools
        help because SciPy's HiGHS backend releases the GIL; process pools
        sidestep the GIL entirely -- and since the engine fans out
        *compiled CSR buffers* (raw arrays), not pickled
        :class:`~repro.core.problem.MaxMinLP` objects, shipping a chunk
        costs a memcpy per matrix rather than a coefficient-dictionary
        round-trip.
    max_workers:
        Pool size (``None`` lets ``concurrent.futures`` choose).
    cache:
        Optional :class:`~repro.engine.cache.ResultCache`.  Results are
        stored as JSON payloads keyed by request fingerprint, so a cache
        with a disk tier makes warm re-runs solve nothing at all.
    registry:
        Optional :class:`~repro.engine.jobs.RunRegistry` that receives one
        :class:`~repro.engine.jobs.JobRecord` per de-duplicated unit.
    lp_strategy:
        How each batch of pending LPs is handed to the solver (see
        :mod:`repro.lp.batch`).  The default ``"per-lp"`` issues one HiGHS
        call per LP and is bit-identical to the historical engine --
        including across cache states, which is what keeps every
        cross-path identity of the reproduction exact.  ``"stacked"``
        solves each chunk block-diagonally in a single HiGHS call: same
        statuses and optimal values, but degenerate LPs may return a
        different equally-optimal vertex depending on batch composition,
        so it is the opt-in throughput path (benchmarks, the suite
        runner's ``--lp-strategy`` flag) rather than the default.
    lp_chunk_size:
        Pending units per batched submission.  Chunk boundaries are a pure
        function of the deduplicated submission order -- never of the
        execution mode or worker count -- so serial, thread and process
        runs of the same batch produce identical results even under
        ``"stacked"``.
    verify:
        Solution-certificate policy (:mod:`repro.lp.verify`).  ``"off"``
        (default) trusts payloads as before.  ``"cached"`` re-certifies
        every payload read from the **disk** tier before it is published:
        a corrupt-but-parseable entry fails its certificate, is
        quarantined, and the request transparently re-solves — a detected
        :class:`~repro.exceptions.VerificationError` instead of a wrong
        answer.  ``"all"`` additionally certifies every fresh solve (a
        failed fresh certificate is a contained unit failure).  Outcomes
        are counted in :class:`EngineStats` and under
        ``engine.verify.{passed,failed,requeued}`` in the metrics
        registry.
    """

    #: Every local LP is keyed by its canonical form; a constant, read by
    #: the benchmark's provenance record.
    canonical_local = True

    def __init__(
        self,
        *,
        mode: str = "serial",
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        registry: Optional[RunRegistry] = None,
        lp_strategy: str = "per-lp",
        lp_chunk_size: int = 64,
        canon_index=None,
        verify: str = "off",
    ) -> None:
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if lp_strategy not in BATCH_STRATEGIES:
            raise ValueError(
                f"unknown lp_strategy {lp_strategy!r}; expected one of "
                f"{BATCH_STRATEGIES}"
            )
        if lp_chunk_size < 1:
            raise ValueError("lp_chunk_size must be at least 1")
        if verify not in VERIFY_MODES:
            raise ValueError(
                f"unknown verify mode {verify!r}; expected one of {VERIFY_MODES}"
            )
        self.mode = mode
        self.max_workers = max_workers
        self.lp_strategy = lp_strategy
        self.lp_chunk_size = lp_chunk_size
        self.verify = verify
        self.stats = EngineStats()
        self.lp_stats = BatchSolveStats()
        # The request loop (dedup → cache → single-flight → solve) lives in
        # the reusable scheduler; the engine contributes only the LP solve
        # callback.  The scheduler counts into this engine's own stats.
        self.scheduler = RequestScheduler(
            cache=cache, registry=registry, stats=self.stats
        )
        # Lazily built repro.canon CanonicalIndex; a shared index may be
        # injected (labelings are pure functions of the view, so sharing
        # one index across engines never changes a result -- it only lets
        # them skip re-searching classes the other has canonicalised).
        self._canon_index = canon_index

    @property
    def cache(self) -> Optional[ResultCache]:
        """The scheduler's result cache (the engine and scheduler share it)."""
        return self.scheduler.cache

    @cache.setter
    def cache(self, cache: Optional[ResultCache]) -> None:
        self.scheduler.cache = cache

    @property
    def registry(self) -> Optional[RunRegistry]:
        """The scheduler's job registry (shared, like the cache)."""
        return self.scheduler.registry

    @registry.setter
    def registry(self, registry: Optional[RunRegistry]) -> None:
        self.scheduler.registry = registry

    def canon_index(self):
        """The engine's :class:`~repro.canon.labeling.CanonicalIndex` (lazy)."""
        if self._canon_index is None:
            from ..canon.labeling import CanonicalIndex

            self._canon_index = CanonicalIndex()
        return self._canon_index

    # ------------------------------------------------------------------
    # Generic fan-out
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item, honouring the configured mode.

        Crash recovery ladder: a dead pool (or an unbuildable one) is
        **respawned once** and the whole batch resubmitted -- ``fn`` is
        pure, so re-running completed items is safe -- and if the second
        pool dies too the batch runs serially (counted as a
        ``pool_fallback``), so a restricted platform or a crashing worker
        degrades gracefully instead of losing the batch.  The
        ``engine.worker`` fault seam fires once per submission attempt;
        injected transients are absorbed by the bounded
        :data:`WORKER_RETRY` backoff.
        """
        work = list(items)
        use_pool = not (
            self.mode == "serial"
            or len(work) <= 1
            or (self.max_workers is not None and self.max_workers <= 1)
        )
        pool_cls = ThreadPoolExecutor if self.mode == "thread" else ProcessPoolExecutor
        respawned = False
        transient_delays = iter(WORKER_RETRY.delays())
        while True:
            try:
                _inject("engine.worker", mode=self.mode, items=len(work))
                if use_pool:
                    with pool_cls(max_workers=self.max_workers) as pool:
                        return list(pool.map(fn, work))
                return [fn(item) for item in work]
            except (OSError, BrokenExecutor) as exc:
                if use_pool and not respawned:
                    respawned = True
                    self.stats.pool_respawns += 1
                    get_registry().counter(
                        "engine.pool.respawns",
                        "worker pools rebuilt after a crash",
                    ).inc()
                    warnings.warn(
                        f"{self.mode} pool died ({exc!r}); "
                        "respawning the pool and resubmitting the batch",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                if use_pool:
                    warnings.warn(
                        f"{self.mode} pool unavailable after respawn "
                        f"({exc!r}); running serially",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self.stats.pool_fallbacks += 1
                    use_pool = False
                    continue
                # Serial execution only reaches here via an injected crash
                # at the seam; absorb it like any other transient.
                if not isinstance(exc, InjectedFault):
                    raise
                delay = next(transient_delays, None)
                if delay is None:
                    raise
                get_registry().counter(
                    "engine.retries", "retries absorbed by the resilience layer"
                ).inc()
                if delay > 0:
                    time.sleep(delay)
            except InjectedFault:
                delay = next(transient_delays, None)
                if delay is None:
                    raise
                get_registry().counter(
                    "engine.retries", "retries absorbed by the resilience layer"
                ).inc()
                if delay > 0:
                    time.sleep(delay)

    # ------------------------------------------------------------------
    # Batched solves
    # ------------------------------------------------------------------
    def _request_params(self) -> Optional[Dict[str, str]]:
        """Extra request-fingerprint params tying cached vectors to a strategy.

        Per-LP results are a pure function of (instance, algorithm,
        backend) — their keys stay exactly the historical ones, so every
        legacy cache-sharing guarantee is preserved.  The batched
        strategies may pick a different equally-optimal vertex per batch
        composition, so their payloads are keyed apart: a cache warmed by
        a ``"stacked"`` engine can never answer a ``"per-lp"`` engine
        (whose results are promised bit-identical to the historical path,
        including across cache states), and vice versa.
        """
        if self.lp_strategy == "per-lp":
            return None
        return {"lp_strategy": self.lp_strategy}

    def _run_requests(
        self,
        keys: Sequence[str],
        builders: Sequence[Callable[[], Any]],
        *,
        kind: str,
    ) -> List[Dict[str, Any]]:
        """Dedup → cache → compile → batched fan-out, in submission order.

        The request loop itself (within-batch dedup, cache consultation,
        builders invoked for misses only, cross-thread single-flight
        coalescing) is the engine's :class:`~repro.engine.scheduler.RequestScheduler`;
        this method contributes the LP-specific parts: ``builders`` produce
        the solve units (a :class:`MaxMinLP`, a
        :class:`~repro.canon.labeling.CanonicalForm`'s compiled matrices,
        or a pre-built :class:`_SolveUnit`) and the solve callback compiles
        cache misses to sparse reductions, chunks them deterministically
        (chunks are a function of the deduplicated key order only) and
        solves them as batched LP submissions -- one
        :func:`repro.lp.maxmin.solve_maxmin_buffer_batch` call per chunk,
        fanned over the worker pool in pooled modes with raw CSR buffers as
        the only payload.
        """
        return self.scheduler.run(
            keys,
            builders,
            kind=kind,
            solve=lambda built: self._solve_pending(
                [_SolveUnit.of(unit) for unit in built], kind=kind
            ),
            validate=self._verify_validator(kind=kind),
        )

    # ------------------------------------------------------------------
    # Solution certificates (the ``verify=`` policy)
    # ------------------------------------------------------------------
    def _verify_validator(self, *, kind: str):
        """The scheduler's cache-hit validation gate for this verify mode.

        ``None`` when verification is off (the scheduler then skips the
        gate entirely — zero overhead on the hot path).  Under
        ``"cached"`` only disk-tier hits are certified: a memory hit never
        left the process, so it cannot have been corrupted at rest; under
        ``"all"`` every hit is.
        """
        if self.verify == "off":
            return None

        def validate(key: str, payload: Any, tier: str, builder) -> bool:
            if self.verify == "cached" and tier != "disk":
                return True
            return self._certify_payload(
                key, payload, builder, kind=kind, cached=True
            )

        return validate

    def _certify_payload(
        self,
        key: str,
        payload: Any,
        builder: Callable[[], Any],
        *,
        kind: str,
        cached: bool,
    ) -> bool:
        """Certify one payload against its rebuilt solve unit.

        Counts the outcome; a failed *cached* payload is quarantined (so
        the disk entry cannot poison the next process) and demoted to a
        miss.  Returns whether the payload may be published.
        """
        registry = get_registry()
        try:
            unit = _SolveUnit.of(builder())
            verify_engine_payload(unit.compiled, unit.agents, payload, kind=kind)
        except VerificationError as exc:
            self.stats.verify_failed += 1
            registry.counter(
                "engine.verify.failed", "solution certificates that failed"
            ).inc()
            if cached:
                self.stats.verify_requeued += 1
                registry.counter(
                    "engine.verify.requeued",
                    "failed cached payloads demoted to re-solves",
                ).inc()
                if self.cache is not None:
                    self.cache.quarantine_key(key)
                warnings.warn(
                    f"cached payload {key[:12]}... failed its solution "
                    f"certificate ({exc}); entry quarantined, re-solving",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return False
        self.stats.verify_passed += 1
        registry.counter(
            "engine.verify.passed", "solution certificates that passed"
        ).inc()
        return True

    def _solve_pending(
        self,
        units: Sequence[_SolveUnit],
        *,
        kind: str,
    ) -> List[Tuple[Dict[str, Any], float]]:
        """Solve cache-miss units; returns ``(payload, duration)`` per unit.

        Degenerate units (an empty view's vacuous local LP, a whole
        instance without beneficiaries) are resolved in-process before any
        LP is compiled -- exactly the checks the per-unit solvers used to
        make, hoisted ahead of the batch so a bad unit fails before work is
        spent.  The remaining units compile to sparse reductions and run
        through :func:`_solve_compiled_chunk`, ``lp_chunk_size`` at a time,
        via :meth:`map` (so pool fallback behaviour is shared with every
        other engine code path).
        """
        exact = kind == "maxmin_exact"
        payloads: List[Optional[Tuple[Dict[str, Any], float]]] = [None] * len(units)
        solve_indices: List[int] = []
        for idx, unit in enumerate(units):
            compiled = unit.compiled
            if exact and compiled.n_beneficiaries == 0:
                # Contained: the degenerate unit fails, its batch survives.
                payloads[idx] = (
                    UnitFailure(
                        UnboundedError(
                            "the max-min objective is unbounded when there "
                            "are no beneficiaries"
                        )
                    ),
                    0.0,
                )
            elif exact and compiled.n_agents == 0:
                payloads[idx] = (
                    {
                        "objective": 0.0,
                        "x": solution_to_dict({}),
                        "backend": DEFAULT_BACKEND,
                    },
                    0.0,
                )
            elif not exact and (
                compiled.n_beneficiaries == 0 or compiled.n_agents == 0
            ):
                zeros = {v: 0.0 for v in unit.agents}
                objective = compiled.objective(np.zeros(compiled.n_agents))
                payloads[idx] = (
                    {"x": solution_to_dict(zeros), "objective": float(objective)},
                    0.0,
                )
            else:
                solve_indices.append(idx)

        if solve_indices:
            strategy = self.lp_strategy
            chunk = self.lp_chunk_size
            chunks = [
                solve_indices[s: s + chunk]
                for s in range(0, len(solve_indices), chunk)
            ]
            with span(
                "engine.batch",
                kind=kind,
                units=len(solve_indices),
                chunks=len(chunks),
                mode=self.mode,
            ):
                # Workers record into local tracers and ship spans home as
                # tuples; the anchor translates their clocks onto ours so a
                # process worker's HiGHS spans land at (roughly) the time
                # the chunk was in flight.  Both are None when disabled.
                trace_ctx = capture_context()
                tracer = get_tracer() if trace_ctx is not None else None
                anchor = tracer.now() if tracer is not None else 0.0
                chunk_args = [
                    (
                        [units[idx].compiled.to_buffers() for idx in chunk_ids],
                        strategy,
                        trace_ctx,
                    )
                    for chunk_ids in chunks
                ]
                chunk_outcomes = self.map(_solve_compiled_chunk, chunk_args)
                for chunk_ids, (statuses, duration, chunk_stats, spans) in zip(
                    chunks, chunk_outcomes
                ):
                    merge_stats(self.lp_stats, chunk_stats)
                    if spans and tracer is not None:
                        tracer.reattach(
                            spans,
                            parent_id=tracer.current_span_id(),
                            anchor=anchor,
                        )
                    share = duration / len(chunk_ids) if chunk_ids else 0.0
                    for idx, (status_name, x_vec) in zip(chunk_ids, statuses):
                        if status_name == "failed":
                            # A worker-side containment marker (plain
                            # strings so it pickles home from a process).
                            payloads[idx] = (
                                UnitFailure(
                                    SolverError(
                                        f"{x_vec['type']}: {x_vec['message']}"
                                    )
                                ),
                                share,
                            )
                            continue
                        try:
                            payload = self._interpret_unit(
                                units[idx], status_name, x_vec, kind=kind
                            )
                        except (
                            InfeasibleError,
                            UnboundedError,
                            SolverError,
                        ) as exc:
                            payloads[idx] = (UnitFailure(exc), share)
                        else:
                            payloads[idx] = (payload, share)

        if self.verify == "all":
            # Certify fresh solves too: a failed certificate here means
            # the *solver* produced an inconsistent result, so the unit
            # fails (contained) rather than caching a wrong answer.
            registry = get_registry()
            for idx, unit in enumerate(units):
                entry = payloads[idx]
                if entry is None or isinstance(entry[0], UnitFailure):
                    continue
                payload, share = entry
                try:
                    verify_engine_payload(
                        unit.compiled, unit.agents, payload, kind=kind
                    )
                except VerificationError as exc:
                    self.stats.verify_failed += 1
                    registry.counter(
                        "engine.verify.failed",
                        "solution certificates that failed",
                    ).inc()
                    payloads[idx] = (UnitFailure(exc), share)
                else:
                    self.stats.verify_passed += 1
                    registry.counter(
                        "engine.verify.passed",
                        "solution certificates that passed",
                    ).inc()
        return payloads  # type: ignore[return-value]

    @staticmethod
    def _interpret_unit(
        unit: _SolveUnit,
        status_name: str,
        x_vec: Optional[np.ndarray],
        *,
        kind: str,
    ) -> Dict[str, Any]:
        """Turn one solved reduction into its cacheable JSON payload.

        The status goes through
        :func:`repro.lp.maxmin.interpret_maxmin_status`, the interpreter
        :func:`repro.lp.maxmin.solve_max_min` uses: unbounded/infeasible
        reductions raise, anything else non-optimal is a backend failure.
        """
        omega, activities = interpret_maxmin_status(status_name, x_vec)
        x = {
            agent: float(activities[j]) for j, agent in enumerate(unit.agents)
        }
        if kind == "maxmin_exact":
            return {
                "objective": omega,
                "x": solution_to_dict(x),
                "backend": DEFAULT_BACKEND,
            }
        objective = unit.compiled.objective(activities)
        return {"x": solution_to_dict(x), "objective": float(objective)}

    def solve_canonical_local_lps(
        self,
        forms: Sequence["CanonicalForm"],
    ) -> List[LocalLPOutcome]:
        """Solve canonical local LPs, returning canonical-coordinate outcomes.

        One request per :class:`~repro.canon.labeling.CanonicalForm`; the
        request fingerprint is derived from the form's content key
        (:func:`repro.engine.fingerprint.fingerprint_canonical_request`),
        so identical forms — wherever they came from — share one cache
        entry, and the stored solution is the canonical LP's vector keyed
        by canonical agent positions.  Callers map it back through
        :meth:`~repro.canon.labeling.CanonicalForm.pull_back`; the scalar
        averaging reference calls this directly with one form per view.
        Equal forms in one batch share one outcome object.
        """
        keys = fingerprint_canonical_requests(
            [form.key for form in forms],
            backend=DEFAULT_BACKEND,
            params=self._request_params(),
        )
        payloads = self._run_requests(
            keys, [form.compiled for form in forms], kind="local_lp_canon"
        )
        # Duplicate keys share one payload object: decode each one once.
        decoded: Dict[int, LocalLPOutcome] = {}
        for payload in payloads:
            if id(payload) not in decoded:
                decoded[id(payload)] = LocalLPOutcome(
                    x=solution_from_dict(payload["x"]),
                    objective=float(payload["objective"]),
                )
        return [decoded[id(payload)] for payload in payloads]

    def solve_local_lps(
        self,
        problem: MaxMinLP,
        views: Optional[Mapping[Agent, FrozenSet[Agent]]] = None,
        *,
        atlas=None,
    ) -> Dict[Agent, LocalLPOutcome]:
        """Solve the local LP of every view ``V^u`` of ``problem``.

        This is step 1 of the Section 5 algorithm as a single batch.  The
        views run through the batch canonicalisation pipeline
        (:mod:`repro.views`) — no per-agent sub-instance is ever compiled;
        only the cache-miss canonical representatives materialise, and
        each view pulls its canonical solution back into its own agent
        names.  A pre-built :class:`~repro.views.ViewAtlas` over the same
        views may be passed to reuse its extraction work; ``views`` may
        then be omitted (the atlas rows are the views).
        """
        if atlas is None:
            if views is None:
                raise TypeError("solve_local_lps needs views or an atlas")
            from ..views.atlas import ViewAtlas

            atlas = ViewAtlas.from_views(problem, views)
        agents = list(atlas.roots) if views is None else list(views)
        forms_by_root = atlas.canonical_forms(self.canon_index())
        forms = [forms_by_root[u] for u in agents]
        canonical = self.solve_canonical_local_lps(forms)
        return {
            u: LocalLPOutcome(
                x=form.pull_back(outcome.x), objective=outcome.objective
            )
            for u, form, outcome in zip(agents, forms, canonical)
        }

    def solve_maxmin(self, problem: MaxMinLP) -> MaxMinSolveResult:
        """Cached exact solve of one instance (see :func:`repro.lp.maxmin.solve_max_min`)."""
        return self.solve_maxmin_batch([problem])[0]

    def solve_maxmin_batch(
        self, problems: Sequence[MaxMinLP]
    ) -> List[MaxMinSolveResult]:
        """Exactly solve a batch of whole instances (sweep-style jobs)."""
        problems = list(problems)
        params = self._request_params()
        keys = [
            fingerprint_request(
                problem, "maxmin_exact", backend=DEFAULT_BACKEND, params=params
            )
            for problem in problems
        ]
        payloads = self._run_requests(
            keys,
            [lambda problem=problem: problem for problem in problems],
            kind="maxmin_exact",
        )
        return [
            MaxMinSolveResult(
                objective=float(payload["objective"]),
                x=solution_from_dict(payload["x"]),
                backend=payload["backend"],
            )
            for payload in payloads
        ]


# ----------------------------------------------------------------------
# The process-wide default engine
# ----------------------------------------------------------------------
_default_engine: Optional[BatchSolver] = None


def get_default_engine() -> BatchSolver:
    """The engine used when an algorithm entry point gets ``engine=None``.

    Created lazily: serial execution with a bounded in-memory cache (no disk
    tier), so repeated solves within one session are free but nothing is
    written outside the process.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = BatchSolver(
            mode="serial", cache=ResultCache(max_memory_entries=8192)
        )
    return _default_engine


def set_default_engine(engine: Optional[BatchSolver]) -> Optional[BatchSolver]:
    """Replace the process-wide default engine; returns the previous one."""
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous


def reset_default_engine() -> None:
    """Drop the default engine (a fresh one is created on next use)."""
    set_default_engine(None)
