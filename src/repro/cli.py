"""Command-line entry point for the reproduction's experiments.

``python -m repro <experiment>`` regenerates the text tables of the paper's
artefacts without going through pytest — convenient for interactive
exploration and for embedding the numbers in reports.  The heavy lifting is
done by :mod:`repro.analysis` and the library's engine, scenario and serve
layers; this module only parses arguments and prints tables.

Available commands::

    growth       γ(r) profiles of the instance families (Theorem 3 context)
    thm3         ratio-vs-radius sweep of the averaging algorithm
    safe         safe-algorithm ratios vs the Δ_I^V guarantee (THM-SAFE)
    thm1         Theorem 1 bound table and the adversarial ratios
    sensor       the Section 2 sensor-network application
    isp          the Section 2 ISP application
    all          every experiment above, in order
    cache        inspect, clear, prune or verify the on-disk result cache
    canon        view-canonicalization statistics (orbit counts per scenario)
    suite        declarative scenario suites: run, list-families, show
    serve        HTTP solve service (result cache + request coalescing)
    trace        traced suite run -> Chrome trace_event JSON (Perfetto)
    obs          observability utilities: per-stage trace summaries and diffs

``suite run``, ``serve`` and ``trace run`` drive one
:class:`~repro.engine.BatchSolver` each; their engine flags are declared
once and take the engine's own defaults.  ``suite run`` is also the batch
front end: a suite file (or the built-in ``paper`` suite) names the
instances and radii, and the run reports optima, per-radius objectives and
the engine/cache counters.  The CLI writes no instance files; dump one with
``repro.io.dump_instance(repro.scenarios.build_instance(spec), path)``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import __version__
from .analysis import growth_sweep, radius_sweep, render_rows, safe_ratio_sweep
from .exceptions import ScenarioError
from .apps import random_isp_network, random_sensor_network
from .core import local_averaging_solution, optimal_solution, safe_solution
from .engine import (
    BatchSolver,
    EXECUTION_MODES,
    VERIFY_MODES,
    ResultCache,
    RunRegistry,
    default_cache_dir,
)
from .generators import (
    cycle_instance,
    grid_instance,
    random_bounded_degree_instance,
    unit_disk_instance,
)
from .lp import BATCH_STRATEGIES
from .lowerbound import (
    build_lower_bound_instance,
    finite_R_bound,
    local_averaging_algorithm,
    run_adversary,
    safe_algorithm,
    theorem1_bound,
)
from .scenarios import (
    ScenarioSpec,
    SuiteRunner,
    SuiteSpec,
    build_instance,
    builtin_suites,
    describe_families,
    get_suite,
    render_text,
    validate_spec,
    write_artifacts,
)

__all__ = ["main", "EXPERIMENTS"]


def _print(title: str, body: str) -> None:
    print(f"\n{title}\n{'=' * len(title)}\n{body}")


def _positive_int(text: str) -> int:
    """argparse ``type`` for counts that must be >= 1 (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def run_growth(seed: int) -> None:
    """γ(r) profiles of representative instance families."""
    problems = {
        "cycle n=40": cycle_instance(40),
        "torus 8x8": grid_instance((8, 8), torus=True),
        "unit disk n=60": unit_disk_instance(60, radius=0.18, max_support=6, seed=seed),
        "Section-4 tree": build_lower_bound_instance(3, 2, 1, seed=seed).problem,
    }
    _print("Relative growth γ(r)", render_rows(growth_sweep(problems, 3)))


def run_thm3(seed: int) -> None:
    """Ratio-vs-radius sweeps of the Theorem 3 algorithm."""
    sweeps = {
        "cycle n=40": (cycle_instance(40), [1, 2, 3]),
        "torus 6x6": (grid_instance((6, 6), torus=True), [1, 2]),
        "unit disk n=36": (
            unit_disk_instance(36, radius=0.24, max_support=6, seed=seed),
            [1, 2],
        ),
    }
    for label, (problem, radii) in sweeps.items():
        _print(f"THM3 on {label}", render_rows(radius_sweep(problem, radii)))


def run_safe(seed: int) -> None:
    """Safe-algorithm ratios vs the Δ_I^V guarantee."""
    instances = {
        "grid 6x6": grid_instance((6, 6)),
        "torus 6x6": grid_instance((6, 6), torus=True),
        "unit disk n=40": unit_disk_instance(40, radius=0.22, max_support=6, seed=seed),
        "random Δ=3": random_bounded_degree_instance(
            30, max_resource_support=3, max_beneficiary_support=3, seed=seed
        ),
        "random Δ=5": random_bounded_degree_instance(
            30, max_resource_support=5, max_beneficiary_support=3, seed=seed + 1
        ),
    }
    rows = safe_ratio_sweep(list(instances.values()), labels=list(instances.keys()))
    _print("THM-SAFE: safe algorithm vs guarantee", render_rows(rows))


def run_thm1(seed: int) -> None:
    """Theorem 1 bound table plus adversarial ratios on one construction."""
    bound_rows = []
    for delta_VI in (2, 3, 4, 5):
        for delta_VK in (2, 3):
            d, D = delta_VI - 1, delta_VK - 1
            bound_rows.append(
                {
                    "delta_VI": delta_VI,
                    "delta_VK": delta_VK,
                    "theorem1": theorem1_bound(delta_VI, delta_VK),
                    "finite_R2": finite_R_bound(d, D, 2) if d * D > 1 else 1.0,
                    "safe_guarantee": float(delta_VI),
                }
            )
    _print("THM1: bound table", render_rows(bound_rows))

    construction = build_lower_bound_instance(3, 2, 1, seed=seed)
    adversary_rows = []
    for name, algorithm in (
        ("safe", safe_algorithm),
        ("averaging-R1", local_averaging_algorithm(1)),
    ):
        report = run_adversary(algorithm, construction, name=name)
        adversary_rows.append(
            {
                "algorithm": name,
                "measured_ratio": report.measured_ratio,
                "finite_R_bound": report.finite_R_bound,
                "theorem1_bound": report.theorem1_bound,
            }
        )
    _print("THM1: adversarial ratios (Δ_I^V=3, Δ_K^V=2, r=1)", render_rows(adversary_rows))


def run_sensor(seed: int) -> None:
    """The Section 2 sensor-network application."""
    network = random_sensor_network(
        18, 6, 5, radio_range=0.35, sensing_range=0.35, seed=seed
    )
    problem = network.to_maxmin_lp()
    optimum = optimal_solution(problem)
    safe = safe_solution(problem)
    averaging = local_averaging_solution(problem, 1)
    rows = [
        {"algorithm": "optimal", "min_area_rate": optimum.objective},
        {
            "algorithm": "safe",
            "min_area_rate": problem.objective(problem.to_array(safe)),
        },
        {"algorithm": "averaging R=1", "min_area_rate": averaging.objective},
    ]
    _print("APP-SENSOR: minimum per-area data rate", render_rows(rows))
    report = network.interpret_solution(problem, optimum.x)
    _print(
        "APP-SENSOR: per-area rates at the optimum",
        render_rows([{"area": a, "rate": r} for a, r in sorted(report.area_rates.items())]),
    )


def run_isp(seed: int) -> None:
    """The Section 2 ISP application."""
    rows = []
    for n_routers in (2, 4, 8):
        network = random_isp_network(8, n_routers, seed=seed)
        problem = network.to_maxmin_lp()
        optimum = optimal_solution(problem)
        safe = safe_solution(problem)
        rows.append(
            {
                "routers": n_routers,
                "optimal_share": optimum.objective,
                "safe_share": problem.objective(problem.to_array(safe)),
            }
        )
    _print("APP-ISP: fair share vs access routers (8 customers)", render_rows(rows))


EXPERIMENTS: Dict[str, Callable[[int], None]] = {
    "growth": run_growth,
    "thm3": run_thm3,
    "safe": run_safe,
    "thm1": run_thm1,
    "sensor": run_sensor,
    "isp": run_isp,
}


# ----------------------------------------------------------------------
# Engine subcommands
# ----------------------------------------------------------------------
#: Engine options a command's flags may set, under BatchSolver's keyword
#: names; an option a command does not declare keeps the engine's default.
_ENGINE_OPTIONS = ("mode", "max_workers", "lp_strategy", "lp_chunk_size", "verify")

#: BatchSolver's own keyword defaults, which the engine flags inherit.
_ENGINE_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(BatchSolver).parameters.items()
}


def _engine(
    args: argparse.Namespace,
    cache: ResultCache,
    registry: Optional[RunRegistry] = None,
) -> BatchSolver:
    """The batch engine a command's engine flags describe."""
    options = {
        name: getattr(args, name) for name in _ENGINE_OPTIONS if hasattr(args, name)
    }
    return BatchSolver(cache=cache, registry=registry, **options)


def _cache_dir(args: argparse.Namespace) -> Optional[Path]:
    """The disk cache directory ``--cache-dir``/``--no-cache-dir`` select."""
    if args.no_cache_dir:
        return None
    return Path(args.cache_dir) if args.cache_dir else default_cache_dir()


def _deadline(text: str) -> float:
    """argparse ``type`` for ``--deadline`` (exit 2 on an invalid value)."""
    from .serve.service import deadline_seconds

    try:
        return deadline_seconds(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def run_cache(args: argparse.Namespace) -> int:
    """Inspect, clear, prune or verify the on-disk result cache."""
    directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = ResultCache(directory=directory)
    if args.action == "stats":
        rows = [
            {
                "directory": str(directory),
                "entries": cache.disk_entries(),
                "bytes": cache.disk_bytes(),
            }
        ]
        _print("CACHE: on-disk result store", render_rows(rows))
    elif args.action == "clear":
        removed = cache.disk_entries()
        cache.clear(disk=True)
        print(f"cleared {removed} cache entries under {directory}")
    elif args.action == "prune":
        if args.max_bytes is None or args.max_bytes < 0:
            raise SystemExit("cache prune requires --max-bytes BYTES (>= 0)")
        outcome = cache.prune(args.max_bytes)
        print(
            f"pruned {outcome['removed_entries']} entries "
            f"({outcome['removed_bytes']} bytes) under {directory}; "
            f"{outcome['remaining_bytes']} bytes remain"
        )
    elif args.action == "verify":
        return _run_cache_verify(directory, cache, repair=args.repair)
    return 0


def _run_cache_verify(
    directory: Path, cache: ResultCache, *, repair: bool
) -> int:
    """``repro cache verify [--repair]``: offline fsck of every disk tier.

    Walks the engine tier (every row's JSON and checksum) and —
    when a ``serve/`` scenario tier exists under the same directory — the
    scenario tier too, where each entry is additionally run through the
    full scenario certificate
    (:func:`~repro.scenarios.certify.certify_scenario_result`).  Damage is
    reported per tier; with ``--repair`` damaged entries move to the
    store's quarantine table, otherwise the exit code is 1 so CI can gate
    on a clean cache.
    """
    from .exceptions import VerificationError
    from .scenarios.certify import certify_scenario_result
    from .scenarios.spec import ScenarioSpec

    reports = [
        {"tier": "engine", "directory": str(directory), **cache.fsck(repair=repair)}
    ]
    serve_dir = directory / "serve"
    if serve_dir.is_dir():

        def certify(key: str, value: object) -> bool:
            if not isinstance(value, dict) or "spec" not in value:
                raise VerificationError("scenario payload missing its spec")
            spec = ScenarioSpec.from_dict(dict(value["spec"]))
            certify_scenario_result(spec, value)
            return True

        serve_cache = ResultCache(directory=serve_dir)
        reports.append(
            {
                "tier": "serve",
                "directory": str(serve_dir),
                **serve_cache.fsck(repair=repair, certify=certify),
            }
        )
    _print("CACHE: offline verification (fsck)", render_rows(reports))
    damaged = sum(int(report["damaged"]) for report in reports)
    quarantined = sum(int(report["quarantined"]) for report in reports)
    noun = "entry" if damaged == 1 else "entries"
    if damaged:
        if repair:
            print(
                f"repaired: {quarantined} damaged {noun} moved to the "
                "quarantine table; re-solved on next use"
            )
            return 0
        print(
            f"{damaged} damaged {noun} found; rerun with --repair to "
            "quarantine"
        )
        return 1
    print("all entries verified clean")
    return 0


def _load_fault_plan(path_str: Optional[str]):
    """Resolve ``--fault-plan`` into a FaultPlan (or None when not given).

    Bad paths and malformed plans die with a one-line ``SystemExit``, not
    a traceback — the same contract as ``_load_suite``.
    """
    from .faults import FaultPlan

    if not path_str:
        return None
    path = Path(path_str)
    if not path.is_file():
        raise SystemExit(f"fault plan file not found: {path}")
    try:
        return FaultPlan.load(path)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid fault plan {path}: {exc}")


def run_serve(args: argparse.Namespace) -> int:
    """Serve scenario solves over HTTP until interrupted.

    Endpoints: ``POST /solve`` (one scenario), ``POST /suite`` (streamed
    NDJSON), ``GET /metrics``, ``GET /healthz``.  The first stdout line is
    machine-parseable (``serving on http://host:port``) so scripts can
    start the server on ``--port 0`` and discover the bound port.
    """
    from .faults import install_plan
    from .serve import ReproServer, SolverService

    plan = _load_fault_plan(args.fault_plan)
    cache_dir = _cache_dir(args)
    service = SolverService(
        runner=SuiteRunner(engine=_engine(args, ResultCache(directory=cache_dir))),
        cache_dir=cache_dir,
        deadline_s=args.deadline,
        max_inflight=args.max_inflight,
        verify=args.verify,
    )
    server = ReproServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    print(f"serving on {server.url}", flush=True)
    print(
        "endpoints: POST /solve, POST /suite, GET /metrics, GET /healthz",
        flush=True,
    )
    if plan is not None:
        print(
            f"fault plan {plan.name!r} installed "
            f"({len(plan.specs)} specs, seed {plan.seed})",
            flush=True,
        )
    with install_plan(plan):
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            service.close()
    if plan is not None:
        print(f"fault plan {plan.name!r}: {plan.injected()} faults injected")
    return 0


def run_canon(args: argparse.Namespace) -> int:
    """View-orbit statistics: how much solve sharing each scenario admits."""
    from .canon import partition_views
    from .hypergraph.communication import communication_hypergraph

    rows = []
    for spec in _expand(_load_suite(args.suite)):
        problem = build_instance(spec)
        hypergraph = communication_hypergraph(problem)
        for R in spec.radii:
            partition = partition_views(problem, R, hypergraph=hypergraph)
            rows.append({"scenario": spec.display_label, **partition.summary()})
    _print(
        "CANON: radius-R view orbits (one local LP solve per orbit)",
        render_rows(rows),
    )
    return 0


# ----------------------------------------------------------------------
# Suite subcommands
# ----------------------------------------------------------------------
def _load_suite(name_or_path: str) -> SuiteSpec:
    """Resolve a built-in suite name or a suite JSON file path."""
    if name_or_path in builtin_suites():
        return get_suite(name_or_path)
    path = Path(name_or_path)
    if path.is_file():
        try:
            return SuiteSpec.from_json(path.read_text())
        except (KeyError, TypeError, ValueError) as exc:
            # json.JSONDecodeError is a ValueError; KeyError/TypeError cover
            # structurally wrong suite files (missing "name", scalar grids).
            raise SystemExit(f"invalid suite file {path}: {exc!r}")
    raise SystemExit(
        f"unknown suite {name_or_path!r}: not a built-in suite "
        f"({', '.join(builtin_suites())}) and not a readable file"
    )


def _expand(suite: SuiteSpec) -> List[ScenarioSpec]:
    """The suite's validated scenarios; an invalid spec exits with one line."""
    try:
        return SuiteRunner.expand(suite)
    except ScenarioError as exc:
        raise SystemExit(f"invalid suite {suite.name!r}: {exc}")


def _expansion_rows(suite: SuiteSpec) -> List[Dict[str, object]]:
    """One table row per concrete scenario (validated against the registry).

    Unknown families or parameters become a clean ``SystemExit`` so a bad
    suite file fails with a one-line message, not a traceback.
    """
    rows: List[Dict[str, object]] = []
    for spec in suite.expand():
        try:
            validate_spec(spec)
        except ScenarioError as exc:
            raise SystemExit(f"invalid suite {suite.name!r}: {exc}")
        rows.append(
            {
                "scenario_id": spec.scenario_id,
                "family": spec.family,
                "label": spec.display_label,
                "seed": "-" if spec.seed is None else spec.seed,
                "radii": ",".join(map(str, spec.radii)) or "-",
                "backend": spec.backend,
            }
        )
    return rows


def run_suite_cmd(args: argparse.Namespace) -> int:
    """Execute (or just expand) a suite through one shared batch engine."""
    from .faults import install_plan

    suite = _load_suite(args.suite)
    plan = _load_fault_plan(args.fault_plan)

    if args.dry_run:
        rows = _expansion_rows(suite)  # validates every spec against the registry
        _print(
            f"SUITE {suite.name}: expansion only ({len(rows)} scenarios)",
            render_rows(rows),
        )
        return 0

    # Fail fast on invalid specs before building any engine state (the
    # runner validates again, but a typo should die with a one-line error).
    total = len(_expand(suite))
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH")

    # Job records are kept only when they are saved (``--out``).
    registry = RunRegistry() if args.out else None
    runner = SuiteRunner(
        engine=_engine(args, ResultCache(directory=_cache_dir(args)), registry)
    )

    done = [0]

    def progress(result) -> None:
        done[0] += 1
        print(
            f"[{done[0]}/{total}] {result.label}: "
            f"optimum={result.optimum:.4f} safe_ratio={result.safe_ratio:.4f} "
            f"({result.seconds:.2f}s)"
        )

    with install_plan(plan):
        report = runner.run_suite(
            suite,
            on_result=progress,
            checkpoint=Path(args.checkpoint) if args.checkpoint else None,
            resume=args.resume,
        )
    print()
    print(render_text(report))
    if args.checkpoint:
        print(
            f"checkpoint journal: {args.checkpoint} "
            f"({report.restored} scenario(s) restored, "
            f"{len(report.results) - report.restored} solved this run)"
        )
    if plan is not None:
        print(
            f"fault plan {plan.name!r}: {plan.injected()} faults injected, "
            f"{plan.hits()} seam hits"
        )

    if args.out:
        paths = write_artifacts(report, args.out)
        suite_job = registry.new_job("suite", suite.name)
        registry.finish_job(
            suite_job, artifacts=[str(path) for path in paths.values()]
        )
        registry_path = registry.save(Path(args.out) / "registry.json")
        print(
            f"\nartifacts: {paths['json']} {paths['markdown']}"
            f"\nrun registry: {registry_path} ({len(registry)} jobs)"
        )
    return 0


def run_suite_list_families(args: argparse.Namespace) -> int:
    """Table of registered instance families and their parameter schemas."""
    _print("SUITE: registered instance families", render_rows(describe_families()))
    return 0


def run_suite_show(args: argparse.Namespace) -> int:
    """Show a suite's metadata and its full expansion."""
    suite = _load_suite(args.suite)
    print(f"suite: {suite.name}")
    if suite.description:
        print(f"description: {suite.description}")
    print(f"families: {', '.join(suite.families)}")
    print(f"scenarios: {len(suite)}")
    _print("Expansion", render_rows(_expansion_rows(suite)))
    return 0


# ----------------------------------------------------------------------
# Observability subcommands
# ----------------------------------------------------------------------
def run_trace_cmd(args: argparse.Namespace) -> int:
    """Run a suite under the tracer and dump a Chrome ``trace_event`` file.

    The output loads directly in Perfetto (https://ui.perfetto.dev) or
    ``about:tracing``; span args carry ``span_id``/``parent_id`` so the
    exact tree can be reconstructed programmatically too (``repro obs
    summary`` does exactly that).
    """
    from .obs import format_table, stage_summary, tracing

    suite = _load_suite(args.suite)
    total = len(_expand(suite))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # In-memory cache: trace the real solves, not disk hits.
    runner = SuiteRunner(engine=_engine(args, ResultCache()))
    with tracing() as tracer:
        runner.run_suite(suite)
    out.write_text(json.dumps(tracer.chrome_trace()) + "\n")
    _print(
        f"TRACE: suite {suite.name!r} ({total} scenarios, "
        f"{len(tracer)} spans) -> {out}",
        format_table(stage_summary(tracer.spans())),
    )
    print(f"\nopen in Perfetto: https://ui.perfetto.dev (load {out})")
    return 0


def _trace_events(trace: str) -> Tuple[Path, List[Dict[str, Any]]]:
    """The complete events of a trace file; exits on a missing or bad one."""
    from .obs import load_trace_events

    path = Path(trace)
    if not path.is_file():
        raise SystemExit(f"trace file not found: {path}")
    try:
        return path, load_trace_events(path)
    except ValueError as exc:
        raise SystemExit(f"invalid trace file {path}: {exc}")


def run_obs_cmd(args: argparse.Namespace) -> int:
    """``obs summary``: a Chrome-trace dump as a per-stage table; ``obs
    diff``: the per-stage deltas from one dump to another."""
    from .obs import DIFF_COLUMNS, diff_summaries, format_table, summarize_events

    if args.obs_command == "diff":
        path_a, events_a = _trace_events(args.trace_a)
        path_b, events_b = _trace_events(args.trace_b)
        rows = diff_summaries(summarize_events(events_a), summarize_events(events_b))
        _print(
            f"OBS DIFF: {path_a} ({len(events_a)} spans) -> "
            f"{path_b} ({len(events_b)} spans), deltas B - A",
            format_table(rows, DIFF_COLUMNS),
        )
        total = sum(row["d_self_s"] for row in rows)
        print(f"\nsum of self-time deltas: {total:+.6f}s")
        return 0
    path, events = _trace_events(args.trace)
    _print(
        f"OBS: {path} ({len(events)} spans)",
        format_table(summarize_events(events)),
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and drive the batch engine.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = {
        name: next(iter((fn.__doc__ or "").splitlines()), "")
        for name, fn in EXPERIMENTS.items()
    }
    experiments["all"] = "run every experiment in order"
    for name, summary in experiments.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument(
            "--seed", type=int, default=0, help="seed for the randomised instances"
        )

    # Flags shared by several subcommands, each declared once.  The engine
    # flags (suite run, serve, trace run) default to BatchSolver's own
    # defaults; the solve flags (suite run, serve) add the rest of the
    # engine, its cache and a fault plan.
    suite_arg = argparse.ArgumentParser(add_help=False)
    suite_arg.add_argument(
        "suite", help="built-in suite name (paper, stress) or path to a suite JSON file"
    )
    engine_flags = argparse.ArgumentParser(add_help=False)
    engine_flags.add_argument(
        "--mode",
        choices=list(EXECUTION_MODES),
        default=_ENGINE_DEFAULTS["mode"],
        help="execution mode of the batch engine",
    )
    engine_flags.add_argument(
        "--max-workers",
        "--workers",
        dest="max_workers",
        type=_positive_int,
        default=_ENGINE_DEFAULTS["max_workers"],
        help="worker pool size for thread/process mode",
    )
    engine_flags.add_argument(
        "--lp-strategy",
        choices=list(BATCH_STRATEGIES),
        default=_ENGINE_DEFAULTS["lp_strategy"],
        help="how cache-miss LP batches reach the solver: 'per-lp' "
        "(default, bit-identical to the historical engine) or "
        "'stacked' (one block-diagonal HiGHS call per chunk, far fewer "
        "solver round-trips; each local LP reaches the same optimal "
        "value, but the solver may return a different optimal vertex, "
        "so averaged results can differ and are cache-keyed apart)",
    )
    solve_flags = argparse.ArgumentParser(add_help=False)
    solve_flags.add_argument(
        "--lp-chunk-size",
        type=_positive_int,
        default=_ENGINE_DEFAULTS["lp_chunk_size"],
        help="LPs per batched solver submission (default %(default)s)",
    )
    solve_flags.add_argument(
        "--verify",
        choices=list(VERIFY_MODES),
        default=_ENGINE_DEFAULTS["verify"],
        help="solution certificates: 'cached' re-verifies disk-cache reads "
        "before trusting them (quarantine + re-solve on damage), 'all' also "
        "certifies fresh solves; serve also certifies each scenario it "
        "answers (clients may override per request with ?verify=1/0; "
        "default %(default)s)",
    )
    solve_flags.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache directory "
        "(default: REPRO_CACHE_DIR or ~/.cache/repro-maxminlp)",
    )
    solve_flags.add_argument(
        "--no-cache-dir",
        action="store_true",
        help="keep results in memory only (no disk cache)",
    )
    solve_flags.add_argument(
        "--fault-plan",
        default=None,
        help="fault-plan JSON file to install while running (deterministic "
        "chaos testing; see repro.faults)",
    )

    sp = sub.add_parser(
        "cache",
        help="inspect, clear, prune or verify (fsck) the on-disk result cache",
    )
    sp.add_argument(
        "action",
        choices=["stats", "clear", "prune", "verify"],
        help="what to do",
    )
    sp.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: REPRO_CACHE_DIR or ~/.cache/repro-maxminlp)",
    )
    sp.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="prune: drop oldest entries until the disk tier fits this many bytes",
    )
    sp.add_argument(
        "--repair",
        action="store_true",
        help="verify: move damaged entries to the store's quarantine table "
        "instead of exiting non-zero",
    )

    sp = sub.add_parser(
        "canon",
        help="view-canonicalization statistics (orbit counts per scenario)",
    )
    canon_sub = sp.add_subparsers(dest="canon_command", required=True)
    canon_sub.add_parser(
        "stats",
        parents=[suite_arg],
        help="orbit counts and sharing factors per scenario and radius of a suite",
    )

    sp = sub.add_parser(
        "suite", help="declarative scenario suites: expand, run, introspect"
    )
    suite_sub = sp.add_subparsers(dest="suite_command", required=True)

    sp_run = suite_sub.add_parser(
        "run",
        parents=[suite_arg, engine_flags, solve_flags],
        help="execute a suite through one shared batch engine",
    )
    sp_run.add_argument(
        "--dry-run",
        action="store_true",
        help="expand and validate only; print the scenario table, solve nothing",
    )
    sp_run.add_argument(
        "--out",
        default=None,
        help="directory for run artifacts (results.json, report.md, registry.json)",
    )
    sp_run.add_argument(
        "--checkpoint",
        default=None,
        help="append each completed scenario to this fsync'd NDJSON journal "
        "(crash-safe progress; pair with --resume to continue a killed run)",
    )
    sp_run.add_argument(
        "--resume",
        action="store_true",
        help="restore completed scenarios from the --checkpoint journal and "
        "solve only what is missing (zero re-solves, identical report)",
    )

    suite_sub.add_parser(
        "list-families", help="list registered instance families and their parameters"
    )
    suite_sub.add_parser(
        "show", parents=[suite_arg], help="show a suite's metadata and full expansion"
    )

    sp = sub.add_parser(
        "serve",
        parents=[engine_flags, solve_flags],
        help="serve scenario solves over HTTP (result cache + request coalescing)",
    )
    sp.add_argument("--host", default="127.0.0.1", help="bind address")
    sp.add_argument(
        "--port",
        type=int,
        default=8008,
        help="bind port (0 picks an ephemeral port, printed on stdout)",
    )
    sp.add_argument(
        "--verbose",
        action="store_true",
        help="log one stderr line per HTTP request",
    )
    sp.add_argument(
        "--deadline",
        type=_deadline,
        default=None,
        help="default per-request deadline in seconds (504 on expiry; "
        "clients may override with ?deadline_s=)",
    )
    sp.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        help="shed requests beyond this many concurrent solves "
        "(503 + Retry-After; default unlimited)",
    )

    sp = sub.add_parser(
        "trace",
        help="run a suite under the tracer and dump a Chrome trace_event file",
    )
    trace_sub = sp.add_subparsers(dest="trace_command", required=True)
    sp_trace_run = trace_sub.add_parser(
        "run",
        parents=[suite_arg, engine_flags],
        help="traced suite run; writes Perfetto-loadable JSON",
    )
    sp_trace_run.add_argument(
        "--out", default="trace.json", help="output path (default trace.json)"
    )

    sp = sub.add_parser(
        "obs", help="observability utilities (trace summaries and diffs)"
    )
    obs_sub = sp.add_subparsers(dest="obs_command", required=True)
    sp_obs_summary = obs_sub.add_parser(
        "summary", help="per-stage time breakdown of a trace.json dump"
    )
    sp_obs_summary.add_argument(
        "trace", help="Chrome trace_event JSON file written by 'repro trace run'"
    )
    sp_obs_diff = obs_sub.add_parser(
        "diff", help="per-stage count and time deltas between two trace.json dumps"
    )
    sp_obs_diff.add_argument("trace_a", help="the baseline trace (A)")
    sp_obs_diff.add_argument("trace_b", help="the trace compared with it (B)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "cache":
        return run_cache(args)
    if args.command == "canon":
        return run_canon(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "suite":
        if args.suite_command == "run":
            return run_suite_cmd(args)
        if args.suite_command == "list-families":
            return run_suite_list_families(args)
        return run_suite_show(args)
    if args.command == "trace":
        return run_trace_cmd(args)
    if args.command == "obs":
        return run_obs_cmd(args)
    selected = list(EXPERIMENTS) if args.command == "all" else [args.command]
    for name in selected:
        EXPERIMENTS[name](args.seed)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
