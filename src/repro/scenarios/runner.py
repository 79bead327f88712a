"""Suite execution: expand, fan through one shared engine, stream results.

:class:`SuiteRunner` is the layer that turns a declarative
:class:`~repro.scenarios.spec.SuiteSpec` into numbers.  One run proceeds as:

1. **expand** the suite into concrete scenarios and validate every spec
   against the registry *before* solving anything (so a typo in the last
   grid cannot waste the first grid's work);
2. **build** the instances and submit all reference optima to the shared
   :class:`~repro.engine.BatchSolver` as one batch — identical
   instances appearing in different scenarios are de-duplicated there, a
   pooled engine solves them concurrently, and a warm cache answers them
   without any LP work;
3. **stream** per-scenario results: for each scenario the safe baseline and
   the local averaging algorithm at every requested radius are evaluated
   (all through the same engine), and a :class:`ScenarioResult` is yielded
   as soon as it is complete — callers can report progress or persist
   records incrementally instead of waiting for the whole suite;
4. **aggregate**: :meth:`SuiteRunner.run_suite` collects the stream into a
   :class:`SuiteReport` with per-family approximation-ratio summaries and
   the engine/cache counters of the run.

Because every solve goes through one engine, a second run of the same suite
against a warm disk cache performs *zero* LP solves — the acceptance tests
assert ``engine.stats.executed == 0`` for exactly this scenario.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from ..core.local_averaging import local_averaging_solution
from ..core.problem import MaxMinLP
from ..core.safe import safe_approximation_guarantee, safe_values_array
from ..core.solution import approximation_ratio
from ..engine.cache import ResultCache
from ..engine.executor import BatchSolver
from ..hypergraph.communication import communication_hypergraph
from ..obs.trace import span
from .registry import build_instance, validate_spec
from .spec import ScenarioGrid, ScenarioSpec, SuiteSpec

__all__ = ["RadiusResult", "ScenarioResult", "SuiteReport", "SuiteRunner"]


def _as_suite(scenarios: Iterable[ScenarioSpec], *, name: str = "ad-hoc") -> SuiteSpec:
    """Wrap loose scenarios into a suite (one single-choice grid each)."""
    grids = tuple(
        ScenarioGrid(
            family=spec.family,
            params={key: [value] for key, value in spec.params.items()},
            seeds=(spec.seed,),
            radii=spec.radii,
            backend=spec.backend,
            label=spec.label,
        )
        for spec in scenarios
    )
    return SuiteSpec(name=name, grids=grids)


@dataclass(frozen=True)
class RadiusResult:
    """Local averaging at one radius: objective, ratio and proven bound."""

    R: int
    objective: float
    ratio: float
    proven_ratio_bound: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "R": self.R,
            "objective": self.objective,
            "ratio": self.ratio,
            "proven_ratio_bound": self.proven_ratio_bound,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RadiusResult":
        return cls(
            R=int(data["R"]),
            objective=float(data["objective"]),
            ratio=float(data["ratio"]),
            proven_ratio_bound=float(data["proven_ratio_bound"]),
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Everything measured for one scenario of a suite.

    ``seconds`` covers the per-scenario work only (safe baseline, hypergraph
    construction and the averaging solves); the reference optimum is solved
    in the upfront cross-scenario batch, so its time is part of
    :attr:`SuiteReport.seconds` but not attributed to individual scenarios.
    """

    spec: ScenarioSpec
    n_agents: int
    n_resources: int
    n_beneficiaries: int
    optimum: float
    safe_objective: float
    safe_ratio: float
    safe_guarantee: float
    radii: Sequence[RadiusResult]
    seconds: float

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def label(self) -> str:
        return self.spec.display_label

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable record (the artefact's per-scenario rows)."""
        return {
            "scenario_id": self.scenario_id,
            "label": self.label,
            "spec": self.spec.to_dict(),
            "n_agents": self.n_agents,
            "n_resources": self.n_resources,
            "n_beneficiaries": self.n_beneficiaries,
            "optimum": self.optimum,
            "safe_objective": self.safe_objective,
            "safe_ratio": self.safe_ratio,
            "safe_guarantee": self.safe_guarantee,
            "radii": [entry.as_dict() for entry in self.radii],
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from its :meth:`as_dict` record.

        The checkpoint/resume path uses this to restore completed
        scenarios from the journal; every deterministic field round-trips
        exactly (the ``seconds`` of the original run ride along, so a
        resumed report keeps honest per-scenario timings).
        """
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            n_agents=int(data["n_agents"]),
            n_resources=int(data["n_resources"]),
            n_beneficiaries=int(data["n_beneficiaries"]),
            optimum=float(data["optimum"]),
            safe_objective=float(data["safe_objective"]),
            safe_ratio=float(data["safe_ratio"]),
            safe_guarantee=float(data["safe_guarantee"]),
            radii=tuple(
                RadiusResult.from_dict(entry) for entry in data["radii"]
            ),
            seconds=float(data["seconds"]),
        )


@dataclass
class SuiteReport:
    """The collected outcome of one suite run.

    ``restored`` counts scenarios answered from a resume checkpoint
    instead of being re-run; it is session bookkeeping, deliberately kept
    *out* of :meth:`as_dict` so an interrupted-and-resumed run's artefact
    stays bit-identical to an uninterrupted one.
    """

    suite: SuiteSpec
    results: List[ScenarioResult] = field(default_factory=list)
    engine_stats: Dict[str, int] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    restored: int = 0

    def scenario_rows(self) -> List[Dict[str, Any]]:
        """One flat table row per (scenario, radius) pair, plus baselines."""
        rows: List[Dict[str, Any]] = []
        for result in self.results:
            base = {
                "family": result.family,
                "label": result.label,
                "agents": result.n_agents,
                "optimum": result.optimum,
                "safe_ratio": result.safe_ratio,
            }
            if not result.radii:
                rows.append({**base, "R": "-", "objective": result.safe_objective,
                             "ratio": result.safe_ratio})
                continue
            for entry in result.radii:
                rows.append(
                    {
                        **base,
                        "R": entry.R,
                        "objective": entry.objective,
                        "ratio": entry.ratio,
                    }
                )
        return rows

    def family_summaries(self) -> List[Dict[str, Any]]:
        """Approximation-ratio aggregates per (family, radius).

        ``R = "-"`` rows summarise the safe baseline of the family; numbered
        rows summarise the averaging algorithm at that radius.  ``scenarios``
        is the number of samples behind *that row* (scenarios of the family
        that actually ran at that radius).  Infinite ratios (an achieved
        objective of 0) propagate honestly into both aggregates.
        """
        groups: Dict[Any, List[float]] = {}
        for result in self.results:
            groups.setdefault((result.family, "-"), []).append(result.safe_ratio)
            for entry in result.radii:
                groups.setdefault((result.family, entry.R), []).append(entry.ratio)
        rows: List[Dict[str, Any]] = []
        # Baseline rows ("-") first, then radii in numeric order.
        for (family, radius), ratios in sorted(
            groups.items(),
            key=lambda item: (
                item[0][0],
                (-1, 0) if item[0][1] == "-" else (0, item[0][1]),
            ),
        ):
            rows.append(
                {
                    "family": family,
                    "R": radius,
                    "scenarios": len(ratios),
                    "mean_ratio": sum(ratios) / len(ratios),
                    "worst_ratio": max(ratios),
                }
            )
        return rows

    def as_dict(self) -> Dict[str, Any]:
        """The full JSON artefact of the run."""
        return {
            "suite": self.suite.to_dict(),
            "n_scenarios": len(self.results),
            "results": [result.as_dict() for result in self.results],
            "family_summaries": self.family_summaries(),
            "engine_stats": dict(self.engine_stats),
            "cache_stats": dict(self.cache_stats),
            "seconds": self.seconds,
        }


class SuiteRunner:
    """Execute suites through one shared :class:`~repro.engine.BatchSolver`.

    Parameters
    ----------
    engine:
        The batch engine all solves are routed through; its options
        (execution mode, LP strategy, verification, ...) are
        :class:`~repro.engine.BatchSolver`'s own.
    cache:
        Shorthand for ``engine=BatchSolver(cache=cache)``; giving both is a
        :class:`TypeError`.  Defaults to a purely in-memory
        :class:`~repro.engine.ResultCache` (pass one with a ``directory``
        for warm re-runs across processes).
    """

    #: Always False (the orbit planner is gone); provenance records read it.
    share_orbits = False

    def __init__(
        self,
        *,
        engine: Optional[BatchSolver] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if engine is not None and cache is not None:
            raise TypeError(
                "SuiteRunner() takes engine= or cache=, not both: "
                "pass BatchSolver(cache=...) as the engine"
            )
        if engine is None:
            engine = BatchSolver(
                cache=cache if cache is not None else ResultCache()
            )
        self.engine = engine

    # ------------------------------------------------------------------
    # Expansion helpers
    # ------------------------------------------------------------------
    @staticmethod
    def expand(suite: Union[SuiteSpec, Iterable[ScenarioSpec]]) -> List[ScenarioSpec]:
        """Concrete scenarios of ``suite``, each validated against the registry."""
        if isinstance(suite, SuiteSpec):
            scenarios = suite.expand()
        else:
            scenarios = list(suite)
        for spec in scenarios:
            validate_spec(spec)
        return scenarios

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        suite: Union[SuiteSpec, Iterable[ScenarioSpec]],
        *,
        completed: Optional[Dict[str, ScenarioResult]] = None,
    ) -> Iterator[ScenarioResult]:
        """Run every scenario, yielding each result as soon as it is ready.

        The reference optima of *all* scenarios are submitted to the engine
        first, as one batch, so cross-scenario dedup, the
        warm cache and pooled execution apply to the heaviest LPs of the
        run; the per-scenario work then streams in declaration order.

        ``completed`` maps ``scenario_id`` to an already-finished
        :class:`ScenarioResult` (a resume checkpoint): those scenarios are
        yielded verbatim in their declaration position without building
        their instance or solving *anything* — zero engine work, which is
        what makes ``--resume`` after a crash exact rather than merely
        cache-warm.
        """
        scenarios = self.expand(suite)
        completed = completed or {}
        fresh_ids = [
            idx
            for idx, spec in enumerate(scenarios)
            if spec.scenario_id not in completed
        ]
        problems: Dict[int, MaxMinLP] = {
            idx: build_instance(scenarios[idx]) for idx in fresh_ids
        }

        with span("suite.optima", scenarios=len(fresh_ids)):
            batch = self.engine.solve_maxmin_batch(
                [problems[idx] for idx in fresh_ids]
            )
            optima: Dict[int, float] = {
                idx: float(solved.objective)
                for idx, solved in zip(fresh_ids, batch)
            }

        for idx, spec in enumerate(scenarios):
            restored = completed.get(spec.scenario_id)
            if restored is not None:
                yield restored
                continue
            problem = problems[idx]
            start = time.perf_counter()
            # The span closes before the yield: consumers may pause the
            # generator indefinitely, and their time is not scenario work.
            with span(
                "suite.scenario", scenario=spec.scenario_id, agents=problem.n_agents
            ):
                optimum = optima[idx]
                # One sparse pass for every agent's safe value; the dict
                # form is never needed here, only the achieved objective.
                safe_objective = float(
                    problem.objective(safe_values_array(problem))
                )
                hypergraph = (
                    communication_hypergraph(problem) if spec.radii else None
                )
                radius_results: List[RadiusResult] = []
                for R in spec.radii:
                    averaged = local_averaging_solution(
                        problem, R, hypergraph=hypergraph, engine=self.engine
                    )
                    radius_results.append(
                        RadiusResult(
                            R=R,
                            objective=float(averaged.objective),
                            ratio=approximation_ratio(optimum, averaged.objective),
                            proven_ratio_bound=float(averaged.proven_ratio_bound),
                        )
                    )
                result = ScenarioResult(
                    spec=spec,
                    n_agents=problem.n_agents,
                    n_resources=problem.n_resources,
                    n_beneficiaries=problem.n_beneficiaries,
                    optimum=optimum,
                    safe_objective=safe_objective,
                    safe_ratio=approximation_ratio(optimum, safe_objective),
                    safe_guarantee=float(safe_approximation_guarantee(problem)),
                    radii=tuple(radius_results),
                    seconds=time.perf_counter() - start,
                )
            yield result

    def run_suite(
        self,
        suite: Union[SuiteSpec, Iterable[ScenarioSpec]],
        *,
        on_result: Optional[Callable[[ScenarioResult], None]] = None,
        checkpoint: Optional[Union[str, "Path"]] = None,
        resume: bool = False,
    ) -> SuiteReport:
        """Run the whole suite and collect the stream into a report.

        ``on_result`` is invoked with each :class:`ScenarioResult` as soon
        as it is ready — the hook the CLI uses for progress lines without
        re-implementing the report assembly.

        ``checkpoint`` enables crash-safe execution: every completed
        scenario is durably journaled to the given NDJSON path
        (:class:`~repro.scenarios.checkpoint.CheckpointJournal`) the moment
        it finishes.  With ``resume`` the journal is loaded first and its
        intact scenarios are *restored* instead of re-run (keyed by
        ``scenario_id``, a content fingerprint — so the skip is exact);
        without ``resume`` an existing journal is truncated and the run
        starts clean.  Restored scenarios are not re-journaled.
        """
        from .checkpoint import CheckpointJournal

        if not isinstance(suite, SuiteSpec):
            suite = _as_suite(suite)
        journal: Optional[CheckpointJournal] = None
        completed: Dict[str, ScenarioResult] = {}
        if checkpoint is not None:
            if resume:
                loaded = CheckpointJournal.load(checkpoint)
                completed = {
                    scenario_id: ScenarioResult.from_dict(record)
                    for scenario_id, record in loaded.completed.items()
                }
            journal = CheckpointJournal(checkpoint, fresh=not resume)
        elif resume:
            raise ValueError("resume=True requires a checkpoint path")
        start = time.perf_counter()
        results = []
        restored = 0
        with span("suite.run", suite=suite.name):
            for result in self.run(suite, completed=completed):
                results.append(result)
                if result.scenario_id in completed:
                    restored += 1
                elif journal is not None:
                    journal.append(result.as_dict())
                if on_result is not None:
                    on_result(result)
        report = SuiteReport(
            suite=suite,
            results=results,
            engine_stats=self.engine.stats.as_dict(),
            seconds=time.perf_counter() - start,
            restored=restored,
        )
        if self.engine.cache is not None:
            report.cache_stats = self.engine.cache.stats.as_dict()
        return report
