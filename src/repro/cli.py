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
    batch        run averaging jobs through the batch engine (parallel + cached)
    cache        inspect, clear or prune the on-disk result cache
    canon        view-canonicalization statistics (orbit counts per family)
    suite        declarative scenario suites: run, list-families, show
    serve        HTTP solve service (result cache + request coalescing)
    trace        traced suite run -> Chrome trace_event JSON (Perfetto)
    obs          observability utilities: per-stage trace summaries
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

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
from .io import dump_instance
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
    SuiteRunner,
    SuiteSpec,
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


def _parse_radii(text: str) -> List[int]:
    """Parse a ``--radii`` value; exits with a one-line message when invalid."""
    try:
        radii = [int(r) for r in text.split(",") if r.strip()]
    except ValueError:
        radii = []
    if not radii or min(radii) < 1:
        raise SystemExit("--radii must be a comma-separated list of integers >= 1")
    return radii


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
def _batch_instances(family: str, seed: int) -> Dict[str, "object"]:
    """Instance families the ``batch`` subcommand fans across the engine."""
    catalogue = {
        "cycle": lambda: {"cycle n=40": cycle_instance(40)},
        "grid": lambda: {
            "grid 6x6": grid_instance((6, 6)),
            "torus 6x6": grid_instance((6, 6), torus=True),
        },
        "disk": lambda: {
            "unit disk n=36": unit_disk_instance(
                36, radius=0.24, max_support=6, seed=seed
            )
        },
        "random": lambda: {
            "random Δ=3": random_bounded_degree_instance(
                30, max_resource_support=3, max_beneficiary_support=3, seed=seed
            )
        },
    }
    if family == "all":
        instances: Dict[str, "object"] = {}
        for build in catalogue.values():
            instances.update(build())
        return instances
    return catalogue[family]()


def run_batch(args: argparse.Namespace) -> int:
    """Run local-averaging jobs for whole instance families through the engine."""
    if args.no_cache_dir:
        cache = ResultCache()
    else:
        directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        cache = ResultCache(directory=directory)
    registry = RunRegistry()
    engine = BatchSolver(
        mode=args.mode, max_workers=args.workers, cache=cache, registry=registry
    )
    radii = _parse_radii(args.radii)
    instances = _batch_instances(args.family, args.seed)

    rows = []
    artifacts: List[str] = []
    # The reference optima are the heaviest LPs of the run; submit them as
    # one batch so a pooled engine solves them concurrently.
    optima = engine.solve_maxmin_batch(list(instances.values()))
    for (label, problem), optimal in zip(instances.items(), optima):
        optimum = optimal.objective
        for R in radii:
            start = time.perf_counter()
            result = local_averaging_solution(problem, R, engine=engine)
            rows.append(
                {
                    "instance": label,
                    "R": R,
                    "optimum": optimum,
                    "objective": result.objective,
                    "seconds": time.perf_counter() - start,
                }
            )
    _print(f"BATCH: averaging jobs ({args.mode} mode)", render_rows(rows))

    stats_rows = [
        {**engine.stats.as_dict(), **cache.stats.as_dict()},
    ]
    _print("BATCH: engine counters", render_rows(stats_rows))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for idx, (label, problem) in enumerate(instances.items()):
            path = out / f"instance-{idx:02d}.json"
            dump_instance(problem, path)
            artifacts.append(str(path))
        results_path = out / "results.json"
        results_path.write_text(json.dumps(rows, indent=2))
        artifacts.append(str(results_path))
        batch_job = registry.new_job("batch", "-")
        registry.finish_job(batch_job, artifacts=artifacts)
        registry_path = registry.save(out / "registry.json")
        print(f"\nrun registry: {registry_path} ({len(registry)} jobs)")
    return 0


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
    cache_dir = None
    if not args.no_cache_dir:
        cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    service = SolverService(
        mode=args.mode,
        max_workers=args.workers,
        cache_dir=cache_dir,
        lp_strategy=args.lp_strategy,
        lp_chunk_size=args.lp_chunk_size,
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
    """View-orbit statistics: how much solve sharing each family admits."""
    from .canon import partition_views
    from .hypergraph.communication import communication_hypergraph

    radii = _parse_radii(args.radii)
    instances = _batch_instances(args.family, args.seed)
    rows = []
    for label, problem in instances.items():
        hypergraph = communication_hypergraph(problem)
        for R in radii:
            partition = partition_views(problem, R, hypergraph=hypergraph)
            rows.append({"instance": label, **partition.summary()})
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
    try:
        total = len(SuiteRunner.expand(suite))
    except ScenarioError as exc:
        raise SystemExit(f"invalid suite {suite.name!r}: {exc}")

    if args.no_cache_dir:
        cache = ResultCache()
    else:
        directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        cache = ResultCache(directory=directory)
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH")

    registry = RunRegistry()
    runner = SuiteRunner(
        mode=args.mode,
        max_workers=args.workers,
        cache=cache,
        registry=registry,
        lp_strategy=args.lp_strategy,
        lp_chunk_size=args.lp_chunk_size,
        verify=args.verify,
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
    try:
        total = len(SuiteRunner.expand(suite))
    except ScenarioError as exc:
        raise SystemExit(f"invalid suite {suite.name!r}: {exc}")
    runner = SuiteRunner(
        mode=args.mode,
        max_workers=args.workers,
        cache=ResultCache(),  # in-memory: trace the real solves, not disk hits
        registry=RunRegistry(),
        lp_strategy=args.lp_strategy,
    )
    with tracing() as tracer:
        runner.run_suite(suite)
    out = Path(args.out)
    out.write_text(json.dumps(tracer.chrome_trace()) + "\n")
    _print(
        f"TRACE: suite {suite.name!r} ({total} scenarios, "
        f"{len(tracer)} spans) -> {out}",
        format_table(stage_summary(tracer.spans())),
    )
    print(f"\nopen in Perfetto: https://ui.perfetto.dev (load {out})")
    return 0


def run_obs_cmd(args: argparse.Namespace) -> int:
    """Summarize a Chrome-trace JSON dump as a per-stage table."""
    from .obs import format_table, load_trace_events, summarize_events

    path = Path(args.trace)
    if not path.is_file():
        raise SystemExit(f"trace file not found: {path}")
    try:
        events = load_trace_events(path)
    except ValueError as exc:
        raise SystemExit(f"invalid trace file {path}: {exc}")
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

    for name, fn in EXPERIMENTS.items():
        summary = next(iter((fn.__doc__ or "").splitlines()), "")
        sp = sub.add_parser(name, help=summary)
        sp.add_argument(
            "--seed", type=int, default=0, help="seed for the randomised instances"
        )
    sp = sub.add_parser("all", help="run every experiment in order")
    sp.add_argument(
        "--seed", type=int, default=0, help="seed for the randomised instances"
    )

    sp = sub.add_parser(
        "batch",
        help="run averaging jobs for whole instance families through the engine",
    )
    sp.add_argument(
        "--family",
        choices=["grid", "cycle", "disk", "random", "all"],
        default="all",
        help="instance family to run",
    )
    sp.add_argument("--radii", default="1,2", help="comma-separated radii (default 1,2)")
    sp.add_argument(
        "--mode",
        choices=list(EXECUTION_MODES),
        default="serial",
        help="execution mode of the batch engine",
    )
    sp.add_argument("--workers", type=_positive_int, default=None, help="pool size")
    sp.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache directory "
        "(default: REPRO_CACHE_DIR or ~/.cache/repro-maxminlp)",
    )
    sp.add_argument(
        "--no-cache-dir",
        action="store_true",
        help="keep results in memory only (no disk cache)",
    )
    sp.add_argument(
        "--out", default=None, help="directory for run artifacts (registry, results)"
    )
    sp.add_argument("--seed", type=int, default=0, help="seed for randomised instances")

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
        help="view-canonicalization statistics (orbit counts per instance family)",
    )
    canon_sub = sp.add_subparsers(dest="canon_command", required=True)
    sp_stats = canon_sub.add_parser(
        "stats", help="orbit counts and sharing factors per instance family"
    )
    sp_stats.add_argument(
        "--family",
        choices=["grid", "cycle", "disk", "random", "all"],
        default="all",
        help="instance family to analyse",
    )
    sp_stats.add_argument(
        "--radii", default="1,2", help="comma-separated view radii (default 1,2)"
    )
    sp_stats.add_argument(
        "--seed", type=int, default=0, help="seed for randomised instances"
    )

    sp = sub.add_parser(
        "suite", help="declarative scenario suites: expand, run, introspect"
    )
    suite_sub = sp.add_subparsers(dest="suite_command", required=True)

    sp_run = suite_sub.add_parser(
        "run", help="execute a suite through one shared batch engine"
    )
    sp_run.add_argument(
        "suite", help="built-in suite name (paper, stress) or path to a suite JSON file"
    )
    sp_run.add_argument(
        "--dry-run",
        action="store_true",
        help="expand and validate only; print the scenario table, solve nothing",
    )
    sp_run.add_argument(
        "--mode",
        choices=list(EXECUTION_MODES),
        default="serial",
        help="execution mode of the batch engine",
    )
    sp_run.add_argument(
        "--max-workers",
        "--workers",
        dest="workers",
        type=_positive_int,
        default=None,
        help="worker pool size for thread/process mode",
    )
    sp_run.add_argument(
        "--lp-strategy",
        choices=list(BATCH_STRATEGIES),
        default="per-lp",
        help="how cache-miss LP batches reach the solver: 'per-lp' "
        "(default, bit-identical to the historical engine) or "
        "'stacked' (one block-diagonal HiGHS call per chunk, far fewer "
        "solver round-trips; each local LP reaches the same optimal "
        "value, but the solver may return a different optimal vertex, "
        "so averaged results can differ and are cache-keyed apart)",
    )
    sp_run.add_argument(
        "--lp-chunk-size",
        type=_positive_int,
        default=64,
        help="LPs per batched solver submission (default 64)",
    )
    sp_run.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache directory "
        "(default: REPRO_CACHE_DIR or ~/.cache/repro-maxminlp)",
    )
    sp_run.add_argument(
        "--no-cache-dir",
        action="store_true",
        help="keep results in memory only (no disk cache)",
    )
    sp_run.add_argument(
        "--out",
        default=None,
        help="directory for run artifacts (results.json, report.md, registry.json)",
    )
    sp_run.add_argument(
        "--fault-plan",
        default=None,
        help="fault-plan JSON file to install for the run (deterministic "
        "chaos testing; see repro.faults)",
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
    sp_run.add_argument(
        "--verify",
        choices=list(VERIFY_MODES),
        default="off",
        help="solution certificates: 'cached' re-verifies disk-cache reads "
        "before trusting them (quarantine + re-solve on damage), 'all' also "
        "certifies fresh solves (default off)",
    )

    suite_sub.add_parser(
        "list-families", help="list registered instance families and their parameters"
    )

    sp = sub.add_parser(
        "serve",
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
        "--mode",
        choices=list(EXECUTION_MODES),
        default="serial",
        help="execution mode of the underlying batch engine",
    )
    sp.add_argument(
        "--max-workers",
        "--workers",
        dest="workers",
        type=_positive_int,
        default=None,
        help="worker pool size for thread/process mode",
    )
    sp.add_argument(
        "--lp-strategy",
        choices=list(BATCH_STRATEGIES),
        default="per-lp",
        help="how cache-miss LP batches reach the solver (results solved "
        "under different strategies are cache-keyed apart)",
    )
    sp.add_argument(
        "--lp-chunk-size",
        type=_positive_int,
        default=64,
        help="LPs per batched solver submission (default 64)",
    )
    sp.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache directory "
        "(default: REPRO_CACHE_DIR or ~/.cache/repro-maxminlp)",
    )
    sp.add_argument(
        "--no-cache-dir",
        action="store_true",
        help="keep results in memory only (no disk cache)",
    )
    sp.add_argument(
        "--verbose",
        action="store_true",
        help="log one stderr line per HTTP request",
    )
    sp.add_argument(
        "--deadline",
        type=float,
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
    sp.add_argument(
        "--fault-plan",
        default=None,
        help="fault-plan JSON file to install while serving (deterministic "
        "chaos testing; see repro.faults)",
    )
    sp.add_argument(
        "--verify",
        choices=list(VERIFY_MODES),
        default="off",
        help="verify results before serving them: engine-level solution "
        "certificates plus per-request scenario certification (clients "
        "may override per request with ?verify=1/0; default off)",
    )

    sp_show = suite_sub.add_parser(
        "show", help="show a suite's metadata and full expansion"
    )
    sp_show.add_argument(
        "suite", help="built-in suite name (paper, stress) or path to a suite JSON file"
    )

    sp = sub.add_parser(
        "trace",
        help="run a suite under the tracer and dump a Chrome trace_event file",
    )
    trace_sub = sp.add_subparsers(dest="trace_command", required=True)
    sp_trace_run = trace_sub.add_parser(
        "run", help="traced suite run; writes Perfetto-loadable JSON"
    )
    sp_trace_run.add_argument(
        "suite", help="built-in suite name (paper, stress) or path to a suite JSON file"
    )
    sp_trace_run.add_argument(
        "--out", default="trace.json", help="output path (default trace.json)"
    )
    sp_trace_run.add_argument(
        "--mode",
        choices=list(EXECUTION_MODES),
        default="serial",
        help="execution mode of the batch engine",
    )
    sp_trace_run.add_argument(
        "--max-workers",
        "--workers",
        dest="workers",
        type=_positive_int,
        default=None,
        help="worker pool size for thread/process mode",
    )
    sp_trace_run.add_argument(
        "--lp-strategy",
        choices=list(BATCH_STRATEGIES),
        default="per-lp",
        help="how cache-miss LP batches reach the solver",
    )

    sp = sub.add_parser(
        "obs", help="observability utilities (trace summaries)"
    )
    obs_sub = sp.add_subparsers(dest="obs_command", required=True)
    sp_obs_summary = obs_sub.add_parser(
        "summary", help="per-stage time breakdown of a trace.json dump"
    )
    sp_obs_summary.add_argument(
        "trace", help="Chrome trace_event JSON file written by 'repro trace run'"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "batch":
        return run_batch(args)
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
