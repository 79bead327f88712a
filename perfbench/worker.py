"""One pass of a workload in a fresh interpreter: set up, time, check.

``run.py`` spawns this script and reads the JSON object it prints as its
last line of standard output.  Phases:

* ``prime``  -- import the program (so bytecode and the page cache are
  warm) and store the reference optima of the workload's scenarios;
* ``setup``  -- everything before the first unit of work, then exit;
* ``rep``    -- set-up, one untimed warm-up iteration of the workload, then
  timed iterations until ``--seconds`` have passed (and at least
  ``MIN_ITERATIONS`` were timed).  Every iteration's outputs are checked
  after its timed window.

An iteration is the whole workload from a cold engine -- the suite on a
fresh ``SuiteRunner`` and disk cache -- or one replay of the request trace
against the warmed server.  It is timed unit by unit (one scenario, or one
request), so ``run.py`` can keep each unit's best time over the run.

``--t0`` is the parent's ``time.perf_counter()`` just before it spawned this
process (the clock is system-wide on Linux), so set-up time counts
interpreter start-up.  ``--trace`` turns on the program's tracer for each
timed iteration and adds its per-layer breakdown to the output.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Tuple

import workloads

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

#: Tolerance of the reference-optimum and ratio-bound checks.
TOL = 1e-9
#: Timed iterations a rep pass makes at least, however short ``--seconds``.
MIN_ITERATIONS = 3
#: Runs of the host kernel before each timed iteration.
KERNEL_RUNS = 20


def load_program() -> Tuple[SimpleNamespace, float]:
    """Import every part of the program a pass uses; returns the import time."""
    start = time.perf_counter()
    import numpy
    import scipy

    import repro
    from repro.engine.cache import ResultCache
    from repro.exceptions import VerificationError
    from repro.obs.metrics import get_registry
    from repro.obs.trace import tracing
    from repro.scenarios.certify import certify_scenario_result
    from repro.scenarios.registry import build_instance
    from repro.scenarios.runner import SuiteRunner
    from repro.serve import ReproServer, SolverService

    prog = SimpleNamespace(
        numpy=numpy,
        scipy=scipy,
        version=repro.__version__,
        ResultCache=ResultCache,
        VerificationError=VerificationError,
        get_registry=get_registry,
        tracing=tracing,
        certify_scenario_result=certify_scenario_result,
        build_instance=build_instance,
        SuiteRunner=SuiteRunner,
        ReproServer=ReproServer,
        SolverService=SolverService,
    )
    return prog, time.perf_counter() - start


# ----------------------------------------------------------------------
# Reference optima and output checks
# ----------------------------------------------------------------------
def reference_optimum(problem) -> float:
    """The instance's max-min optimum, from an LP assembled here.

    ``max t`` subject to ``A x <= 1``, ``C x >= t``, ``x >= 0``, built from
    the instance's coefficient matrices without the program's LP layer and
    solved by one direct ``scipy.optimize.linprog`` call.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.optimize import linprog

    A, C = problem.A, problem.C
    n_res, n_ben = A.shape[0], C.shape[0]
    A_ub = sp.vstack(
        [
            sp.hstack([A, sp.csr_matrix((n_res, 1))]),
            sp.hstack([-C, sp.csr_matrix(np.ones((n_ben, 1)))]),
        ]
    ).tocsr()
    b_ub = np.concatenate([np.ones(n_res), np.zeros(n_ben)])
    cost = np.zeros(problem.n_agents + 1)
    cost[-1] = -1.0
    result = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if result.status != 0:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return float(-result.fun)


def workload_specs(workload: str, seed: int) -> list:
    if workload in workloads.SUITE_WORKLOADS:
        return workloads.suite_scenarios(workload, seed)
    return workloads.serve_inputs(seed)[0]


def refs_path(workload: str, seed: int) -> Path:
    return STATE / "refs" / f"{workload}-{seed}.json"


def store_references(prog, workload: str, seed: int) -> int:
    """Solve and store the reference optimum of every scenario not stored yet."""
    path = refs_path(workload, seed)
    refs: Dict[str, float] = json.loads(path.read_text()) if path.exists() else {}
    missing = [
        spec for spec in workload_specs(workload, seed) if spec.scenario_id not in refs
    ]
    for spec in missing:
        refs[spec.scenario_id] = reference_optimum(prog.build_instance(spec))
    if missing:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(refs, indent=1, sort_keys=True))
        tmp.replace(path)
    return len(refs)


def check_payload(prog, spec, payload, refs: Dict[str, float]) -> List[str]:
    """Failure messages for one scenario result (empty when it is correct)."""
    try:
        prog.certify_scenario_result(spec, payload)
    except prog.VerificationError as exc:
        return [f"{spec.display_label}: {exc}"]
    failures = []
    for entry in payload["radii"]:
        if entry["ratio"] > entry["proven_ratio_bound"] * (1.0 + TOL):
            failures.append(
                f"{spec.display_label} R={entry['R']}: ratio {entry['ratio']!r} "
                f"> proven bound {entry['proven_ratio_bound']!r}"
            )
    reference = refs.get(spec.scenario_id)
    if reference is None:
        failures.append(f"{spec.display_label}: no stored reference optimum")
    elif abs(payload["optimum"] - reference) > TOL * max(1.0, abs(reference)):
        failures.append(
            f"{spec.display_label}: optimum {payload['optimum']!r} != "
            f"reference {reference!r}"
        )
    return failures


# ----------------------------------------------------------------------
# Counters and provenance
# ----------------------------------------------------------------------
def snapshot(prog, engine) -> Dict[str, int]:
    """The exact counters of one engine (plus the process's HiGHS calls)."""
    searches = engine.canon_index().stats
    return {
        "lp.highs.calls": int(prog.get_registry().counter("lp.highs.calls").value),
        "canon.search.calls": searches["searched"] + searches["literal"],
        "engine.units": engine.stats.units,
        "engine.executed": engine.stats.executed,
        "engine.dedup_saved": engine.stats.dedup_saved,
        "engine.cache.puts": engine.cache.stats.puts,
    }


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in after}


def counters_of(whole: Dict[str, int], timed: Dict[str, int]) -> Dict[str, int]:
    counters = dict(whole)
    counters["timed.lp.highs.calls"] = timed["lp.highs.calls"]
    counters["timed.canon.search.calls"] = timed["canon.search.calls"]
    return counters


def provenance(prog, runner) -> Dict[str, Any]:
    engine = runner.engine
    return {
        "mode": engine.mode,
        "lp_strategy": engine.lp_strategy,
        "lp_chunk_size": engine.lp_chunk_size,
        "canonical_local": engine.canonical_local,
        "share_orbits": runner.share_orbits,
        "verify": engine.verify,
        "repro": prog.version,
        "python": platform.python_version(),
        "numpy": prog.numpy.__version__,
        "scipy": prog.scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_layers(tracer, counters: Dict[str, int]) -> Dict[str, float]:
    from layers import StageTable, layer_metrics

    return layer_metrics(StageTable(tracer.spans()), counters)


def pin(cpus) -> None:
    """Move every thread of this process (and so the threads they start)
    onto ``cpus``."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:  # the thread has just ended
            pass


def host_kernel() -> float:
    """Time one run of a fixed pure-Python loop that uses none of the program."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(10000):
        table[i % 997] = table.get(i % 997, 0) + i * i
    return time.perf_counter() - start


def iterate(args, one_iteration: Callable[[int], Dict[str, Any]]) -> Dict[str, Any]:
    """Run the warm-up iteration, then timed ones until the time is up.

    Each timed iteration runs with the whole process on one CPU, taking the
    CPUs in turn: the workload then never waits on a thread that runs on
    the other CPU, and if the host slows one CPU for a while, the other one
    still gives each unit a fast run.  Between iterations the host kernel
    runs ``KERNEL_RUNS`` times on the same CPU.

    Returns the pass's record: the timed iterations' unit times, counters
    (and layers, when traced), every iteration's checks, and the host
    kernel's best time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    iterations = [one_iteration(0)]
    kernel_s: List[float] = []
    stop = time.perf_counter() + args.seconds
    while len(iterations) <= MIN_ITERATIONS or time.perf_counter() < stop:
        pin({cpus[len(iterations) % len(cpus)]})
        kernel_s.extend(host_kernel() for _ in range(KERNEL_RUNS))
        iterations.append(one_iteration(len(iterations)))
    pin(set(cpus))
    failures = [msg for it in iterations for msg in it["failures"]]
    return {
        "iterations": [
            {key: it[key] for key in ("unit_s", "counters", "layers") if key in it}
            for it in iterations[1:]
        ],
        "kernel_s": min(kernel_s),
        "attempted": sum(it["attempted"] for it in iterations),
        "failed": len(failures),
        "failures": failures[:20],
    }


# ----------------------------------------------------------------------
# Suite workloads
# ----------------------------------------------------------------------
def suite_pass(prog, args, work: Path) -> Dict[str, Any]:
    """Run the suite once per iteration, one scenario at a time."""
    specs = workloads.suite_scenarios(args.workload, args.seed)

    def fresh_runner(index: int):
        cache = prog.ResultCache(directory=work / f"cache-{index}")
        return prog.SuiteRunner(cache=cache)

    first = fresh_runner(0)
    out: Dict[str, Any] = {
        "setup_s": time.perf_counter() - args.t0,
        "provenance": provenance(prog, first),
    }
    if args.phase == "setup":
        return out
    refs = json.loads(refs_path(args.workload, args.seed).read_text())

    def one_iteration(index: int) -> Dict[str, Any]:
        runner = first if index == 0 else fresh_runner(index)
        before = snapshot(prog, runner.engine)
        unit_s: List[float] = []
        results = []
        with prog.tracing() if args.trace else nullcontext() as tracer:
            for spec in specs:
                start = time.perf_counter()
                report = runner.run_suite([spec])
                unit_s.append(time.perf_counter() - start)
                results.extend(report.results)
        counts = delta(snapshot(prog, runner.engine), before)
        shutil.rmtree(work / f"cache-{index}", ignore_errors=True)

        failures: List[str] = []
        ids = [result.scenario_id for result in results]
        if ids != [spec.scenario_id for spec in specs]:
            failures.append("the suite's scenarios differ from the requested ones")
        for spec, result in zip(specs, results):
            failures.extend(check_payload(prog, spec, result.as_dict(), refs))
        it = {
            "unit_s": unit_s,
            "counters": counters_of(counts, counts),
            "attempted": len(specs),
            "failures": failures,
        }
        if tracer is not None:
            it["layers"] = traced_layers(tracer, it["counters"])
        return it

    out.update(iterate(args, one_iteration))
    return out


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------
def post(port: int, body: bytes) -> Tuple[int, bytes]:
    """One ``POST /solve`` on its own connection, as a stdlib client does it."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "POST", "/solve", body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        return -1, f"{type(exc).__name__}: {exc}".encode()
    finally:
        conn.close()


def canonical_payload(body: bytes) -> Tuple[Dict[str, Any], str]:
    envelope = json.loads(body)
    return envelope, json.dumps(envelope["result"], sort_keys=True)


def serve_pass(prog, args, work: Path) -> Dict[str, Any]:
    """Warm a real server once, then replay the trace once per iteration.

    One client sends the requests and waits for each reply before it sends
    the next: a closed loop of one.
    """
    specs, trace = workloads.serve_inputs(args.seed)
    bodies = [spec.to_json().encode("utf-8") for spec in specs]
    service = prog.SolverService(cache_dir=work / "cache")
    engine = service.runner.engine
    out: Dict[str, Any] = {"provenance": provenance(prog, service.runner)}
    with prog.ReproServer(service, port=0) as server:
        out["setup_s"] = time.perf_counter() - args.t0
        if args.phase == "setup":
            return out
        refs = json.loads(refs_path(args.workload, args.seed).read_text())

        before = snapshot(prog, engine)
        warm = [post(server.port, body) for body in bodies]
        warm_counts = delta(snapshot(prog, engine), before)
        answers: List[str] = []
        warm_failures: List[str] = []
        for spec, (status, body) in zip(specs, warm):
            if status != 200:
                warm_failures.append(
                    f"warm-up {spec.display_label}: HTTP {status} {body[:200]!r}"
                )
                answers.append("")
                continue
            envelope, answer = canonical_payload(body)
            answers.append(answer)
            warm_failures.extend(check_payload(prog, spec, envelope["result"], refs))

        def one_iteration(index: int) -> Dict[str, Any]:
            unit_s: List[float] = []
            replies = []
            with prog.tracing() if args.trace else nullcontext() as tracer:
                middle = snapshot(prog, engine)
                for scenario in trace:
                    begin = time.perf_counter()
                    replies.append(post(server.port, bodies[scenario]))
                    unit_s.append(time.perf_counter() - begin)
                after = snapshot(prog, engine)

            failures = list(warm_failures) if index == 0 else []
            hits = 0
            for idx, (status, body) in enumerate(replies):
                problem = None
                if status != 200:
                    problem = f"HTTP {status} {body[:200]!r}"
                else:
                    envelope, answer = canonical_payload(body)
                    hits += envelope["cached"] is True
                    if envelope["cached"] is not True:
                        problem = f"answered from {envelope['source']!r}, not the cache"
                    elif answer != answers[trace[idx]]:
                        problem = "payload differs from the warm-up answer"
                if problem is not None:
                    label = specs[trace[idx]].display_label
                    failures.append(f"request {idx} ({label}): {problem}")
            it = {
                "unit_s": unit_s,
                "counters": counters_of(warm_counts, delta(after, middle)),
                "attempted": len(trace) + (len(specs) if index == 0 else 0),
                "failures": failures,
            }
            if tracer is not None:
                it["layers"] = traced_layers(tracer, it["counters"])
                it["layers"]["serve.hit_ratio"] = hits / len(trace)
            return it

        out.update(iterate(args, one_iteration))
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("prime", "setup", "rep"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    prog, import_s = load_program()
    if args.phase == "prime":
        out: Dict[str, Any] = {
            "references": store_references(prog, args.workload, args.seed)
        }
    else:
        if args.trace:
            from layers import install_layer_spans

            install_layer_spans()
        work = STATE / "work" / f"{args.phase}-{args.workload}-{time.time_ns()}"
        work.mkdir(parents=True)
        try:
            if args.workload in workloads.SUITE_WORKLOADS:
                out = suite_pass(prog, args, work)
            else:
                out = serve_pass(prog, args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        out["peak_rss_mb"] = peak_rss_mb()
    out["import_s"] = import_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
