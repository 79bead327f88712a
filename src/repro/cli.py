"""Command-line entry point for the reproduction's experiments.

``python -m repro <experiment>`` regenerates the text tables of the paper's
artefacts without going through pytest — convenient for interactive
exploration and for embedding the numbers in reports.  The heavy lifting is
the same code the benchmark harness uses (:mod:`repro.analysis`), so the CLI
and the benchmarks cannot drift apart.

Available commands::

    growth       γ(r) profiles of the instance families (Theorem 3 context)
    thm3         ratio-vs-radius sweep of the averaging algorithm
    safe         safe-algorithm ratios vs the Δ_I^V guarantee (THM-SAFE)
    thm1         Theorem 1 bound table and the adversarial ratios
    sensor       the Section 2 sensor-network application
    isp          the Section 2 ISP application
    all          every experiment above, in order
    batch        run averaging jobs through the batch engine (parallel + cached)
    bench        run a benchmark suite: views pipeline or batched LP solving
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
        swept = cache.sweep_tmp()
        outcome = cache.prune(args.max_bytes)
        print(
            f"pruned {outcome['removed_entries']} entries "
            f"({outcome['removed_bytes']} bytes) under {directory}; "
            f"{outcome['remaining_bytes']} bytes remain"
            + (f"; swept {swept} orphaned .tmp file(s)" if swept else "")
        )
    elif args.action == "verify":
        return _run_cache_verify(directory, cache, repair=args.repair)
    return 0


def _run_cache_verify(
    directory: Path, cache: ResultCache, *, repair: bool
) -> int:
    """``repro cache verify [--repair]``: offline fsck of every disk tier.

    Walks the engine tier (envelope checksums, key/shape integrity) and —
    when a ``serve/`` scenario tier exists under the same directory — the
    scenario tier too, where each entry is additionally run through the
    full scenario certificate
    (:func:`~repro.scenarios.certify.certify_scenario_result`).  Damage is
    reported per tier; with ``--repair`` damaged entries are quarantined
    to ``.corrupt`` sidecars (and stale ``.tmp`` files swept), otherwise
    the exit code is 1 so CI can gate on a clean cache.
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
                f"repaired: {quarantined} damaged {noun} quarantined to "
                ".corrupt sidecars; re-solved on next use"
            )
            return 0
        print(
            f"{damaged} damaged {noun} found; rerun with --repair to "
            "quarantine"
        )
        return 1
    print("all entries verified clean")
    return 0


def bench_measurements(quick: bool, repeats: int) -> Dict[str, object]:
    """Measure the views-pipeline benchmark set (best-of-``repeats``).

    The single source of truth for the benchmark protocol — shapes, radii,
    fresh-engine discipline and best-of-N timing: ``repro bench`` (and its
    CI regression gate) and ``benchmarks/test_bench_views.py`` (the
    acceptance asserts) both call this function, so they can never
    measure different things.
    """
    from .views import ball_membership
    from .hypergraph.communication import communication_hypergraph

    e2e_shape = (16, 16) if quick else (30, 30)
    balls_shape = (24, 24) if quick else (48, 48)
    balls_radius = 2 if quick else 3

    problem = grid_instance(e2e_shape, torus=True)
    scalar_s = vector_s = float("inf")
    for _ in range(repeats):
        for vectorized in (False, True):
            engine = BatchSolver(cache=ResultCache())
            start = time.perf_counter()
            local_averaging_solution(
                problem, 2, engine=engine, vectorized=vectorized
            )
            elapsed = time.perf_counter() - start
            if vectorized:
                vector_s = min(vector_s, elapsed)
            else:
                scalar_s = min(scalar_s, elapsed)

    H = communication_hypergraph(grid_instance(balls_shape, torus=True))
    H.adjacency_csr()
    ball_scalar = ball_batch = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for u in H.nodes:
            H.ball(u, balls_radius)
        ball_scalar = min(ball_scalar, time.perf_counter() - start)
        start = time.perf_counter()
        ball_membership(H, balls_radius)
        ball_batch = min(ball_batch, time.perf_counter() - start)

    return {
        "quick": quick,
        "e2e": {
            "shape": list(e2e_shape),
            "R": 2,
            "scalar_seconds": round(scalar_s, 4),
            "vectorized_seconds": round(vector_s, 4),
            "speedup": round(scalar_s / vector_s, 2),
        },
        "balls": {
            "shape": list(balls_shape),
            "R": balls_radius,
            "scalar_seconds": round(ball_scalar, 4),
            "batch_seconds": round(ball_batch, 4),
            "speedup": round(ball_scalar / ball_batch, 2),
        },
    }


def lp_batch_measurements(quick: bool, repeats: int) -> Dict[str, object]:
    """Measure the batched-LP-solving benchmark set (best-of-``repeats``).

    The single source of truth for the lp.batch benchmark protocol, shared
    by ``repro bench --suite lp-batch`` and
    ``benchmarks/test_bench_lp_batch.py`` (which asserts the acceptance
    floors against exactly these numbers):

    * ``lp_batch_e2e`` — the 30×30 random-weight torus averaging run
      (R=1; every view is a distinct canonical class, so the engine
      really solves 900 local LPs) under ``lp_strategy="per-lp"`` vs
      ``"stacked"``.  Both engines share one warmed
      :class:`~repro.canon.labeling.CanonicalIndex` (labelings are pure
      functions of the view, so sharing never changes a result) so the
      comparison isolates the solve side.
    * ``lp_batch_bisection`` — a 500-probe feasibility sweep
      (:func:`repro.lp.maxmin._packing_feasible_for_targets`-shaped
      geometric target grid) solved per-LP vs stacked in chunks.
    """
    import numpy as np

    from .canon.labeling import CanonicalIndex
    from .lp.backends import count_highs_calls
    from .lp.batch import solve_lp_batch
    from .lp.maxmin import _interpret_probe, _packing_probe_lp

    e2e_shape = (16, 16) if quick else (30, 30)
    n_probes = 120 if quick else 500

    problem = grid_instance(e2e_shape, torus=True, weights="random", seed=0)
    shared_index = CanonicalIndex()
    warmup = BatchSolver(cache=ResultCache(), canon_index=shared_index)
    local_averaging_solution(problem, 1, engine=warmup)

    seconds = {"per-lp": float("inf"), "stacked": float("inf")}
    for _ in range(repeats):
        for strategy in ("per-lp", "stacked"):
            engine = BatchSolver(
                cache=ResultCache(),
                lp_strategy=strategy,
                lp_chunk_size=150,
                canon_index=shared_index,
            )
            start = time.perf_counter()
            local_averaging_solution(problem, 1, engine=engine)
            seconds[strategy] = min(
                seconds[strategy], time.perf_counter() - start
            )

    probe_problem = cycle_instance(16)
    targets = np.linspace(0.05, 2.0, n_probes)
    per_lp_s = stacked_s = float("inf")
    stacked_calls = 0
    for _ in range(repeats):
        lps = [_packing_probe_lp(probe_problem, float(t)) for t in targets]
        start = time.perf_counter()
        per_lp = solve_lp_batch(lps, strategy="per-lp")
        per_lp_s = min(per_lp_s, time.perf_counter() - start)
        start = time.perf_counter()
        with count_highs_calls() as highs:
            stacked = solve_lp_batch(lps, strategy="stacked", chunk_size=50)
        stacked_s = min(stacked_s, time.perf_counter() - start)
        stacked_calls = highs.calls
        if [_interpret_probe(r)[0] for r in per_lp] != [
            _interpret_probe(r)[0] for r in stacked
        ]:  # pragma: no cover - would indicate a solver bug
            raise SystemExit("lp-batch bench: probe outcomes diverged")

    return {
        "quick": quick,
        "lp_batch_e2e": {
            "shape": list(e2e_shape),
            "R": 1,
            "per_lp_seconds": round(seconds["per-lp"], 4),
            "stacked_seconds": round(seconds["stacked"], 4),
            "speedup": round(seconds["per-lp"] / seconds["stacked"], 2),
        },
        "lp_batch_bisection": {
            "probes": int(n_probes),
            "per_lp_seconds": round(per_lp_s, 4),
            "stacked_seconds": round(stacked_s, 4),
            "highs_calls": int(stacked_calls),
            "speedup": round(per_lp_s / stacked_s, 2),
        },
    }


def serve_measurements(quick: bool, repeats: int) -> Dict[str, object]:
    """Measure the serving-layer traffic replay (best-of-``repeats``).

    The single source of truth for the serve benchmark protocol, shared by
    ``repro bench --suite serve`` and ``benchmarks/test_bench_serve.py``:

    * ``serve_replay`` — a Zipf-distributed trace of ``POST /solve``
      requests (many requests over few distinct scenarios, the
      repeated-query shape a long-lived service exists for) is replayed by
      8 client threads against a real :class:`~repro.serve.ReproServer` on
      an ephemeral port with a shared disk cache.  ``hit_rate`` is the
      fraction of requests answered without a solve; ``speedup`` compares
      the replay wall-clock against solving every request from scratch at
      the measured per-solve cost (``solve_seconds`` × requests).
    * ``serve_coalesce`` — 16 clients POST one brand-new scenario through
      a barrier; the scheduler counters must show exactly **one** executed
      solve, the single-flight acceptance invariant.

    The trace is seeded, so the request sequence is identical across runs
    and machines.
    """
    import random
    import tempfile
    import threading
    import urllib.request

    from .scenarios.spec import ScenarioSpec
    from .serve import ReproServer, SolverService

    distinct = 12 if quick else 24
    n_requests = 720 if quick else 3000
    client_threads = 8
    burst_clients = 16

    rng = random.Random(20080414)
    specs = [
        ScenarioSpec(
            family=("cycle", "path")[i % 2],
            params={"n": 6 + i},
            seed=i,
            radii=(1,),
        )
        for i in range(distinct)
    ]
    bodies = [spec.to_json().encode("utf-8") for spec in specs]
    trace = rng.choices(
        range(distinct),
        weights=[1.0 / (rank + 1) for rank in range(distinct)],
        k=n_requests,
    )

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        service = SolverService(cache_dir=tmp)
        with ReproServer(service, port=0) as server:
            url = server.url + "/solve"

            def post(body: bytes) -> Dict[str, object]:
                request = urllib.request.Request(
                    url,
                    data=body,
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    return json.loads(response.read())

            def replay() -> tuple:
                envelopes: List[Optional[dict]] = [None] * n_requests
                latencies: List[float] = [0.0] * n_requests
                def worker(slot: int) -> None:
                    for idx in range(slot, n_requests, client_threads):
                        begin = time.perf_counter()
                        envelopes[idx] = post(bodies[trace[idx]])
                        latencies[idx] = time.perf_counter() - begin
                workers = [
                    threading.Thread(target=worker, args=(slot,))
                    for slot in range(client_threads)
                ]
                start = time.perf_counter()
                for thread in workers:
                    thread.start()
                for thread in workers:
                    thread.join()
                return time.perf_counter() - start, envelopes, latencies

            # The first replay is the honest cold-start trace (its first
            # hit on each distinct scenario is a real solve); later repeats
            # re-time the same trace against the warm cache.
            replay_s = float("inf")
            first = None
            for _ in range(max(1, repeats)):
                elapsed, envelopes, latencies = replay()
                if first is None:
                    first = (envelopes, latencies)
                replay_s = min(replay_s, elapsed)
            envelopes, latencies = first
            cached = sum(1 for env in envelopes if env["cached"])
            solve_times = [
                env["seconds"] for env in envelopes if env["source"] == "solved"
            ]
            solve_s = sum(solve_times) / max(1, len(solve_times))
            ordered = sorted(latencies)
            p50 = ordered[len(ordered) // 2]
            p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]

            # Single-flight burst: one brand-new scenario, 16 concurrent
            # clients released together.
            burst_spec = ScenarioSpec(
                family="grid", params={"shape": (3, 3)}, seed=987, radii=(1,)
            )
            before = dict(service.scheduler.stats.as_dict())
            barrier = threading.Barrier(burst_clients)
            sources: List[str] = []
            sources_lock = threading.Lock()

            def burst() -> None:
                body = burst_spec.to_json().encode("utf-8")
                barrier.wait()
                envelope = post(body)
                with sources_lock:
                    sources.append(envelope["source"])

            clients = [
                threading.Thread(target=burst) for _ in range(burst_clients)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            after = service.scheduler.stats.as_dict()

    return {
        "quick": quick,
        "serve_replay": {
            "requests": n_requests,
            "distinct": distinct,
            "client_threads": client_threads,
            "hit_rate": round(cached / n_requests, 4),
            "p50_ms": round(p50 * 1000, 3),
            "p99_ms": round(p99 * 1000, 3),
            "solve_seconds": round(solve_s, 4),
            "replay_seconds": round(replay_s, 4),
            "speedup": round(solve_s * n_requests / replay_s, 2),
        },
        "serve_coalesce": {
            "clients": burst_clients,
            "executed": after["executed"] - before["executed"],
            "coalesced": after["coalesced"] - before["coalesced"],
            "sources": {name: sources.count(name) for name in sorted(set(sources))},
        },
    }


def obs_measurements(quick: bool, repeats: int) -> Dict[str, object]:
    """Measure the observability subsystem's overhead and trace coverage.

    The single source of truth for the obs benchmark protocol, shared by
    ``repro bench --suite obs`` and ``benchmarks/test_bench_obs.py``:

    * ``obs_overhead`` — a warm ``POST /solve`` replay (every request a
      cache hit against a real :class:`~repro.serve.ReproServer`, the
      serve replay benchmark's steady state) timed best-of-``repeats``
      with tracing disabled and then enabled.  Because disabled-vs-enabled
      wall-clock deltas over a socket drown in scheduler noise, the
      headline number is the *implied* disabled overhead: the measured
      cost of one no-op :func:`repro.obs.span` call (best-of-``repeats``
      microbenchmark) times the spans one request records, as a fraction
      of the warm per-request time.  ``speedup`` is disabled/enabled
      wall-clock for the regression gate (≈1.0 when tracing is cheap).
    * ``obs_trace`` — one traced suite run; ``coverage`` is the root
      spans' total duration over the measured wall time (the acceptance
      criterion wants stage totals within 10% of wall).
    """
    import urllib.request

    from .obs import stage_summary, tracing
    from .obs.trace import span as obs_span
    from .scenarios.spec import ScenarioSpec
    from .serve import ReproServer, SolverService

    distinct = 8 if quick else 16
    requests = 200 if quick else 1000
    noop_calls = 100_000 if quick else 500_000

    # (1) cost of one instrumentation point while tracing is disabled.
    noop_s = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for _ in range(noop_calls):
            with obs_span("bench.noop", agents=0):
                pass
        noop_s = min(noop_s, (time.perf_counter() - start) / noop_calls)

    # (2) the warm serve-replay path: every request a cache hit over HTTP.
    specs = [
        ScenarioSpec(
            family=("cycle", "path")[i % 2],
            params={"n": 6 + i},
            seed=i,
            radii=(1,),
        )
        for i in range(distinct)
    ]
    bodies = [spec.to_json().encode("utf-8") for spec in specs]
    order = [i % distinct for i in range(requests)]
    service = SolverService()
    with ReproServer(service, port=0) as server:
        url = server.url + "/solve"

        def post(body: bytes) -> None:
            request = urllib.request.Request(
                url,
                data=body,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                response.read()

        for body in bodies:
            post(body)  # warm the scenario cache

        def replay() -> float:
            start = time.perf_counter()
            for idx in order:
                post(bodies[idx])
            return time.perf_counter() - start

        disabled_s = min(replay() for _ in range(max(1, repeats)))
        enabled_s = float("inf")
        spans = 0
        for _ in range(max(1, repeats)):
            with tracing() as tracer:
                enabled_s = min(enabled_s, replay())
            spans = len(tracer)
    spans_per_request = spans / requests
    implied_pct = 100.0 * spans_per_request * noop_s * requests / disabled_s

    # (3) traced end-to-end suite run: stage totals vs wall time.
    trace_specs = [
        ScenarioSpec(family="cycle", params={"n": 8 + 2 * i}, radii=(1, 2))
        for i in range(2 if quick else 4)
    ]
    runner = SuiteRunner(cache=ResultCache())
    wall_start = time.perf_counter()
    with tracing() as tracer:
        runner.run_suite(trace_specs)
    wall_s = time.perf_counter() - wall_start
    trace_spans = tracer.spans()
    root_total = sum(
        s.duration for s in trace_spans if s.parent_id is None
    )
    stages = stage_summary(trace_spans)

    return {
        "quick": quick,
        "obs_overhead": {
            "requests": requests,
            "distinct": distinct,
            "noop_ns": round(noop_s * 1e9, 1),
            "spans_per_request": round(spans_per_request, 2),
            "disabled_seconds": round(disabled_s, 4),
            "enabled_seconds": round(enabled_s, 4),
            "implied_overhead_pct": round(implied_pct, 4),
            "speedup": round(disabled_s / enabled_s, 3),
        },
        "obs_trace": {
            "spans": len(trace_spans),
            "stages": len(stages),
            "wall_seconds": round(wall_s, 4),
            "root_seconds": round(root_total, 4),
            "coverage": round(root_total / wall_s, 4) if wall_s else 0.0,
        },
    }


def faults_measurements(quick: bool, repeats: int) -> Dict[str, object]:
    """Measure the fault-injection harness: idle overhead and chaos masking.

    The single source of truth for the faults benchmark protocol, shared
    by ``repro bench --suite faults`` and ``benchmarks/test_bench_faults.py``:

    * ``faults_overhead`` — the warm ``POST /solve`` replay (every request
      a cache hit over HTTP, the serve benchmark's steady state) timed
      best-of-``repeats`` with no fault plan installed and then with an
      installed-but-idle plan (one never-firing spec per seam).  As in the
      obs benchmark, socket noise drowns the real delta, so the headline
      is the *implied* overhead: the measured per-call cost of a consulted
      seam (``checked_ns``, microbenchmark) times the seam consultations
      one warm request performs (counted by the plan itself), as a
      fraction of the plan-free per-request time.  ``inject_ns`` is the
      uninstalled fast path — one module-global ``None`` check.
      ``speedup`` is disabled/enabled wall-clock for the regression gate
      (≈1.0 when the harness is cheap).
    * ``faults_chaos`` — a small suite solved fault-free and again under a
      seeded transient-only plan (every-Nth raises on the HiGHS seam, so
      the retry layer must mask every injection).  ``identical`` asserts
      the two runs' results match bit for bit; ``injected`` counts the
      faults that actually fired (must be > 0 or the run proved nothing).
    """
    import urllib.request

    from .faults import SEAMS, FaultPlan, FaultSpec, inject, install_plan
    from .scenarios.spec import ScenarioSpec
    from .serve import ReproServer, SolverService

    distinct = 8 if quick else 16
    requests = 200 if quick else 1000
    inject_calls = 100_000 if quick else 500_000

    # (1) cost of one seam hook while no plan is installed (the fast path
    # every production run pays) ...
    inject_s = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for _ in range(inject_calls):
            inject("lp.highs.call")
        inject_s = min(inject_s, (time.perf_counter() - start) / inject_calls)

    # ... and of one consulted-but-silent seam with an idle plan installed
    # (never fires: every-Nth with an astronomically large N).
    idle = FaultPlan(
        [FaultSpec(seam=seam, kind="raise", every=10**9) for seam in SEAMS],
        seed=0,
        name="bench-idle",
    )
    checked_s = float("inf")
    with install_plan(idle):
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for _ in range(inject_calls):
                inject("lp.highs.call")
            checked_s = min(
                checked_s, (time.perf_counter() - start) / inject_calls
            )

    # (2) the warm serve replay without and with the idle plan installed.
    specs = [
        ScenarioSpec(
            family=("cycle", "path")[i % 2],
            params={"n": 6 + i},
            seed=i,
            radii=(1,),
        )
        for i in range(distinct)
    ]
    bodies = [spec.to_json().encode("utf-8") for spec in specs]
    order = [i % distinct for i in range(requests)]
    service = SolverService()
    with ReproServer(service, port=0) as server:
        url = server.url + "/solve"

        def post(body: bytes) -> None:
            request = urllib.request.Request(
                url,
                data=body,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                response.read()

        for body in bodies:
            post(body)  # warm the scenario cache

        def replay() -> float:
            start = time.perf_counter()
            for idx in order:
                post(bodies[idx])
            return time.perf_counter() - start

        disabled_s = min(replay() for _ in range(max(1, repeats)))
        idle.reset()
        enabled_s = float("inf")
        enabled_runs = max(1, repeats)
        with install_plan(idle):
            for _ in range(enabled_runs):
                enabled_s = min(enabled_s, replay())
            checks = idle.hits()
    checks_per_request = checks / (requests * enabled_runs)
    implied_pct = 100.0 * checks_per_request * checked_s * requests / disabled_s

    # (3) chaos determinism: a transient-only plan must inject faults the
    # retry layer masks completely -- results bit-identical to fault-free.
    chaos_specs = [
        ScenarioSpec(family="cycle", params={"n": 8 + 2 * i}, radii=(1, 2))
        for i in range(2 if quick else 4)
    ]
    clean = [r.as_dict() for r in SuiteRunner(cache=ResultCache()).run(chaos_specs)]
    # every=2 because the batched engine makes very few HiGHS calls (one
    # stacked call per batch); every-Nth injection with N >= 2 is always
    # masked by the 3-attempt retry (the retried hit lands on an off-beat).
    plan = FaultPlan(
        [FaultSpec(seam="lp.highs.call", kind="raise", every=2)],
        seed=20080414,
        name="bench-chaos",
    )
    with install_plan(plan):
        chaos = [
            r.as_dict()
            for r in SuiteRunner(cache=ResultCache()).run(chaos_specs)
        ]
    for record in (*clean, *chaos):
        record.pop("seconds")
    identical = chaos == clean

    return {
        "quick": quick,
        "faults_overhead": {
            "requests": requests,
            "distinct": distinct,
            "inject_ns": round(inject_s * 1e9, 1),
            "checked_ns": round(checked_s * 1e9, 1),
            "checks_per_request": round(checks_per_request, 2),
            "disabled_seconds": round(disabled_s, 4),
            "enabled_seconds": round(enabled_s, 4),
            "implied_overhead_pct": round(implied_pct, 4),
            "speedup": round(disabled_s / enabled_s, 3),
        },
        "faults_chaos": {
            "scenarios": len(chaos_specs),
            "injected": plan.injected(),
            "log_entries": len(plan.log),
            "identical": identical,
        },
    }


def recovery_measurements(quick: bool, repeats: int) -> Dict[str, object]:
    """Measure the verification + durability layer's steady-state cost.

    The single source of truth for the recovery benchmark protocol, shared
    by ``repro bench --suite recovery`` and
    ``benchmarks/test_bench_recovery.py``:

    * ``recovery_overhead`` — a small suite is solved once to warm the
      disk cache, then re-run from a cold memory tier (every LP answered
      by a *disk* read) with ``verify="off"`` and again with
      ``verify="cached"``, best-of-``repeats``.  Wall-clock noise drowns
      the true delta on runs this short, so the headline is the *implied*
      overhead: the measured per-certificate cost
      (:func:`repro.lp.verify_solution`, microbenchmark) times the
      certificates one warm run issues (counted by the engine's
      ``verify_passed``), as a fraction of the verify-off wall time.
      ``speedup`` (off/cached wall ratio, ≈1.0 when certification is
      cheap) feeds the ``--compare`` regression gate.
    * ``recovery_journal`` — checkpoint-journal append throughput: each
      append is flushed **and fsynced** before the runner moves on, so
      this measures the durability tax per completed scenario.
    """
    import tempfile

    from .lp import verify_solution
    from .scenarios.checkpoint import CheckpointJournal
    from .scenarios.spec import ScenarioSpec

    n_scenarios = 4 if quick else 8
    cert_calls = 500 if quick else 2000
    journal_appends = 50 if quick else 200

    specs = [
        ScenarioSpec(
            family=("cycle", "path")[i % 2],
            params={"n": 8 + 2 * i},
            radii=(1, 2),
        )
        for i in range(n_scenarios)
    ]

    # (1) per-certificate cost, microbenchmarked on a real solved instance.
    problem = grid_instance((8, 8), torus=True)
    engine = BatchSolver(cache=ResultCache())
    (reference,) = engine.solve_maxmin_batch([problem])
    cert_s = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for _ in range(cert_calls):
            verify_solution(problem, reference)
        cert_s = min(cert_s, (time.perf_counter() - start) / cert_calls)

    with tempfile.TemporaryDirectory(prefix="repro-bench-recovery-") as tmp:
        directory = Path(tmp)
        # Warm the disk tier once; all timed runs below are pure reads.
        baseline = [
            r.as_dict()
            for r in SuiteRunner(
                cache=ResultCache(directory=directory)
            ).run(specs)
        ]

        off_s = on_s = float("inf")
        certificates = 0
        for _ in range(max(1, repeats)):
            # A fresh ResultCache each run keeps the memory tier cold, so
            # every hit is a disk read -- the tier verify="cached" certifies.
            runner = SuiteRunner(
                cache=ResultCache(directory=directory), verify="off"
            )
            start = time.perf_counter()
            list(runner.run(specs))
            off_s = min(off_s, time.perf_counter() - start)

            runner = SuiteRunner(
                cache=ResultCache(directory=directory), verify="cached"
            )
            start = time.perf_counter()
            list(runner.run(specs))
            on_s = min(on_s, time.perf_counter() - start)
            certificates = runner.engine.stats.verify_passed

        # (2) fsync'd journal append throughput.
        journal_s = float("inf")
        rows = [dict(baseline[i % len(baseline)]) for i in range(journal_appends)]
        for attempt in range(max(1, repeats)):
            journal = CheckpointJournal(
                directory / f"bench-{attempt}.ndjson", fresh=True
            )
            start = time.perf_counter()
            for row in rows:
                journal.append(row)
            journal_s = min(
                journal_s, (time.perf_counter() - start) / journal_appends
            )

    implied_pct = 100.0 * certificates * cert_s / off_s

    return {
        "quick": quick,
        "recovery_overhead": {
            "scenarios": n_scenarios,
            "certificates": certificates,
            "certify_us": round(cert_s * 1e6, 2),
            "disabled_seconds": round(off_s, 4),
            "enabled_seconds": round(on_s, 4),
            "implied_overhead_pct": round(implied_pct, 4),
            "speedup": round(off_s / on_s, 3),
        },
        "recovery_journal": {
            "appends": journal_appends,
            "append_ms": round(journal_s * 1e3, 3),
            "appends_per_second": round(1.0 / journal_s, 1),
        },
    }


#: Sections of the bench JSON that carry a speedup the ``--compare`` gate
#: judges, with their display labels.
_BENCH_SECTIONS = {
    "e2e": "local_averaging e2e",
    "balls": "batch ball extraction",
    "lp_batch_e2e": "batched LP solving e2e (averaging)",
    "lp_batch_bisection": "batched feasibility-probe sweep",
    "serve_replay": "serve traffic replay (cache + coalescing)",
    "obs_overhead": "tracing overhead on the warm serve path",
    "faults_overhead": "idle fault-harness overhead on the warm serve path",
    "recovery_overhead": "cached-read verification overhead (warm suite re-run)",
}


def run_bench(args: argparse.Namespace) -> int:
    """Run the selected benchmark suite(s); optionally gate on a baseline.

    Regressions are judged on *speedups* (baseline strategy over batched
    strategy), which transfer across machines where absolute wall-clock
    numbers do not: the gate fails when a measured speedup falls more than
    ``--max-regression`` below the committed baseline's.  The gate covers
    every section present in both the baseline file and this run, so one
    command serves the views suite (``benchmarks/BENCH_views_baseline.json``)
    and the lp-batch suite (``benchmarks/BENCH_lp_batch_baseline.json``).
    """
    quick = not args.full
    rows: Dict[str, object] = {"quick": quick}
    display: List[Dict[str, object]] = []
    if args.suite in ("views", "all"):
        measured = bench_measurements(quick, args.repeats)
        rows.update(measured)
        e2e, balls = measured["e2e"], measured["balls"]
        display.extend(
            [
                {
                    "benchmark": _BENCH_SECTIONS["e2e"],
                    "instance": f"torus {tuple(e2e['shape'])} R={e2e['R']}",
                    "baseline_s": e2e["scalar_seconds"],
                    "batched_s": e2e["vectorized_seconds"],
                    "speedup": e2e["speedup"],
                },
                {
                    "benchmark": _BENCH_SECTIONS["balls"],
                    "instance": f"torus {tuple(balls['shape'])} R={balls['R']}",
                    "baseline_s": balls["scalar_seconds"],
                    "batched_s": balls["batch_seconds"],
                    "speedup": balls["speedup"],
                },
            ]
        )
    if args.suite in ("lp-batch", "all"):
        measured = lp_batch_measurements(quick, args.repeats)
        rows.update({k: v for k, v in measured.items() if k != "quick"})
        e2e = measured["lp_batch_e2e"]
        probes = measured["lp_batch_bisection"]
        display.extend(
            [
                {
                    "benchmark": _BENCH_SECTIONS["lp_batch_e2e"],
                    "instance": f"random torus {tuple(e2e['shape'])} R={e2e['R']}",
                    "baseline_s": e2e["per_lp_seconds"],
                    "batched_s": e2e["stacked_seconds"],
                    "speedup": e2e["speedup"],
                },
                {
                    "benchmark": _BENCH_SECTIONS["lp_batch_bisection"],
                    "instance": f"cycle16 × {probes['probes']} probes",
                    "baseline_s": probes["per_lp_seconds"],
                    "batched_s": probes["stacked_seconds"],
                    "speedup": probes["speedup"],
                },
            ]
        )
    if args.suite in ("serve", "all"):
        measured = serve_measurements(quick, args.repeats)
        rows.update({k: v for k, v in measured.items() if k != "quick"})
        replay = measured["serve_replay"]
        display.append(
            {
                "benchmark": _BENCH_SECTIONS["serve_replay"],
                "instance": (
                    f"{replay['requests']} reqs / {replay['distinct']} distinct "
                    f"/ {replay['client_threads']} threads"
                ),
                "baseline_s": round(
                    replay["solve_seconds"] * replay["requests"], 4
                ),
                "batched_s": replay["replay_seconds"],
                "speedup": replay["speedup"],
            }
        )
    if args.suite in ("obs", "all"):
        measured = obs_measurements(quick, args.repeats)
        rows.update({k: v for k, v in measured.items() if k != "quick"})
        overhead = measured["obs_overhead"]
        display.append(
            {
                "benchmark": _BENCH_SECTIONS["obs_overhead"],
                "instance": (
                    f"{overhead['requests']} warm reqs / "
                    f"{overhead['spans_per_request']} spans each"
                ),
                "baseline_s": overhead["disabled_seconds"],
                "batched_s": overhead["enabled_seconds"],
                "speedup": overhead["speedup"],
            }
        )
    if args.suite in ("faults", "all"):
        measured = faults_measurements(quick, args.repeats)
        rows.update({k: v for k, v in measured.items() if k != "quick"})
        overhead = measured["faults_overhead"]
        display.append(
            {
                "benchmark": _BENCH_SECTIONS["faults_overhead"],
                "instance": (
                    f"{overhead['requests']} warm reqs / "
                    f"{overhead['checks_per_request']} seam checks each"
                ),
                "baseline_s": overhead["disabled_seconds"],
                "batched_s": overhead["enabled_seconds"],
                "speedup": overhead["speedup"],
            }
        )
    if args.suite in ("recovery", "all"):
        measured = recovery_measurements(quick, args.repeats)
        rows.update({k: v for k, v in measured.items() if k != "quick"})
        overhead = measured["recovery_overhead"]
        display.append(
            {
                "benchmark": _BENCH_SECTIONS["recovery_overhead"],
                "instance": (
                    f"{overhead['scenarios']} warm scenarios / "
                    f"{overhead['certificates']} certificates"
                ),
                "baseline_s": overhead["disabled_seconds"],
                "batched_s": overhead["enabled_seconds"],
                "speedup": overhead["speedup"],
            }
        )
    _print(
        f"BENCH: {args.suite} suite" + (" (quick mode)" if quick else ""),
        render_rows(display),
    )

    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2))
        print(f"\nwrote {args.out}")

    if args.compare:
        baseline_path = Path(args.compare)
        if not baseline_path.is_file():
            raise SystemExit(f"baseline file not found: {baseline_path}")
        try:
            baseline = json.loads(baseline_path.read_text())
        except ValueError as exc:
            raise SystemExit(f"invalid baseline JSON {baseline_path}: {exc}")
        if "quick" in baseline and bool(baseline["quick"]) != rows["quick"]:
            raise SystemExit(
                "baseline/measurement mode mismatch: baseline is "
                f"{'quick' if baseline['quick'] else 'full'} mode but this "
                f"run is {'quick' if rows['quick'] else 'full'} mode — "
                "speedups are only comparable at matching instance sizes"
            )
        failures = []
        gated = False
        for section in _BENCH_SECTIONS:
            reference = baseline.get(section, {}).get("speedup")
            if reference is None or section not in rows:
                continue
            gated = True
            floor = reference * (1.0 - args.max_regression)
            measured_speedup = rows[section]["speedup"]
            status = "ok" if measured_speedup >= floor else "REGRESSION"
            print(
                f"{section}: speedup {measured_speedup:.2f}x vs baseline "
                f"{reference:.2f}x (floor {floor:.2f}x) -> {status}"
            )
            if measured_speedup < floor:
                failures.append(section)
        if not gated:
            raise SystemExit(
                f"baseline {baseline_path} shares no benchmark sections with "
                f"this run's suite ({args.suite}); pass the matching --suite"
            )
        if failures:
            raise SystemExit(
                f"benchmark regression (> {args.max_regression:.0%}) in: "
                + ", ".join(failures)
            )
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
    sp.add_argument("--workers", type=int, default=None, help="pool size")
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
        help="verify: quarantine damaged entries (.corrupt sidecars) and "
        "sweep stale .tmp files instead of exiting non-zero",
    )

    sp = sub.add_parser(
        "bench",
        help="run a benchmark suite (views pipeline / batched LP solving)",
    )
    sp.add_argument(
        "--suite",
        choices=["views", "lp-batch", "serve", "obs", "faults", "recovery", "all"],
        default="views",
        help="which benchmark suite to measure (default views)",
    )
    sp.add_argument(
        "--full",
        action="store_true",
        help="full-size instances (the acceptance-benchmark shapes)",
    )
    sp.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    sp.add_argument(
        "--out", default=None, help="write measurements as JSON (BENCH_views.json)"
    )
    sp.add_argument(
        "--compare",
        default=None,
        help="baseline BENCH_views.json to gate against (compares speedups)",
    )
    sp.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional speedup drop vs the baseline (default 0.30)",
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
        type=int,
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
        type=int,
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
        type=int,
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
        type=int,
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
        type=int,
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
        type=int,
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
    if args.command == "bench":
        return run_bench(args)
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
