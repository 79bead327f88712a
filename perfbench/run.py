"""Run one benchmark workload and print its result as the last output line.

    python3 perfbench/run.py --workload suite_symmetric --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The work runs in fresh interpreters (``worker.py``) with the
library defaults; this process only spawns them, checks their outputs were
correct and reduces their timings.

``--trace 0`` runs set-up passes and one untraced rep pass that times the
workload over and over for ``--seconds`` seconds, and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` splits the time
between an untraced and a traced rep pass and reports the per-layer
metrics.  See ``README.md`` for what each metric means.  Scratch files,
stored reference optima and a full record of each invocation go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import workloads
from layers import quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: Hard limit on one invocation; a pass still running then is killed.
DEADLINE_S = 170.0
#: Set-up-only passes a ``--trace 0`` run adds to its rep pass's set-up.
SETUP_PASSES = 4
#: Workers run with a fixed string-hash seed, so dict and set layouts, and
#: with them the work done, are the same in every pass.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
#: The host kernel's best time (``worker.host_kernel``) on the reference
#: box, a 2-vCPU Intel Xeon VM running CPython 3.11.  End-to-end times are
#: reported as if taken on a host that fast.
REFERENCE_KERNEL_S = 1.5e-3


class BenchError(RuntimeError):
    pass


def spawn(args, phase: str, deadline: float, **options) -> Dict[str, Any]:
    """Run one worker pass to completion and return its JSON record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for a {phase} pass")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        phase,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(options.get("seconds", 0.0)),
    ]
    if options.get("trace"):
        cmd.append("--trace")
    cmd += ["--t0", repr(time.perf_counter())]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=WORKER_ENV,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} pass did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{phase} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def iterations(passes: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every timed iteration of the passes."""
    return [it for p in passes for it in p["iterations"]]


def mismatched_counters(passes: List[Dict[str, Any]]) -> List[str]:
    """Names of exact counters that differ between iterations of one seed."""
    counters = [it["counters"] for it in iterations(passes)]
    return sorted(
        name for name in counters[0] if len({c[name] for c in counters}) > 1
    )


def best_units(passes: List[Dict[str, Any]]) -> List[float]:
    """Each unit's best time over every timed iteration of the passes.

    The same unit does the same work in every iteration, so its fastest
    run is the one the host's other tenants slowed least.
    """
    return [min(times) for times in zip(*(it["unit_s"] for it in iterations(passes)))]


def host_scale(passes: List[Dict[str, Any]]) -> float:
    """The factor that turns this run's times into reference-host times.

    The shared host's speed drifts by 20-30% over minutes, even at its
    least loaded moments.  The host kernel's best time tracks that drift,
    and it runs none of the program, so a change to the program moves the
    scaled times fully.
    """
    return REFERENCE_KERNEL_S / min(p["kernel_s"] for p in passes)


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(reps, setups) -> Dict[str, float]:
    scale = host_scale(reps)
    best = [seconds * scale for seconds in best_units(reps)]
    work = sum(best)
    return {
        "work_s": work,
        "setup_s": median(p["setup_s"] for p in reps + setups) * scale,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in reps),
        "latency_p50_ms": quantile(best, 0.5) * 1e3,
        "latency_p99_ms": quantile(best, 0.99) * 1e3,
        "throughput_rps": len(best) / work,
    }


def timed_run(args, deadline: float):
    setups = [spawn(args, "setup", deadline) for _ in range(SETUP_PASSES)]
    reps = [spawn(args, "rep", deadline, seconds=args.seconds)]
    info = {
        "host_scale": host_scale(reps),
        "kernel_s": [p["kernel_s"] for p in reps],
        "raw_setup_s": [p["setup_s"] for p in reps + setups],
        "raw_iteration_s": [sum(it["unit_s"]) for it in iterations(reps)],
        "raw_best_unit_s": best_units(reps),
    }
    return reps, end_to_end(reps, setups), info


def per_layer(untraced, traced, serve: bool) -> Dict[str, float]:
    layers = [it["layers"] for it in iterations(traced)]
    metrics = {name: median(layer[name] for layer in layers) for name in layers[0]}
    # The service's own share of the client-side median latency; the rest
    # is HTTP, sockets and the client.
    metrics["serve.service_share"] = (
        median(
            layer["serve.service.p50_ms"] / (quantile(it["unit_s"], 0.5) * 1e3)
            for layer, it in zip(layers, iterations(traced))
        )
        if serve
        else 0.0
    )
    del metrics["serve.service.p50_ms"]
    metrics.setdefault("serve.hit_ratio", 0.0)
    everything = untraced + traced
    metrics["serve.errors"] = sum(p["failed"] for p in everything) if serve else 0
    metrics["setup.import_s"] = median(p["import_s"] for p in everything)
    metrics["trace.overhead_ratio"] = (
        sum(best_units(traced)) * host_scale(traced)
        / (sum(best_units(untraced)) * host_scale(untraced))
        - 1.0
    )
    metrics["error_rate"] = sum(p["failed"] for p in everything) / sum(
        p["attempted"] for p in everything
    )
    metrics["counters.mismatches"] = len(mismatched_counters(everything))
    return metrics


def traced_run(args, deadline: float):
    half = args.seconds / 2
    untraced = [spawn(args, "rep", deadline, seconds=half)]
    traced = [spawn(args, "rep", deadline, seconds=half, trace=True)]
    info = {
        "raw_iteration_s": [sum(it["unit_s"]) for it in iterations(untraced)],
        "raw_traced_iteration_s": [sum(it["unit_s"]) for it in iterations(traced)],
    }
    serve = args.workload == "serve_warm"
    return untraced + traced, per_layer(untraced, traced, serve), info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }

    deadline = time.monotonic() + DEADLINE_S
    try:
        spawn(args, "prime", deadline)
        run = traced_run if args.trace else timed_run
        passes, metrics, info = run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(
            f"error: measured metrics {sorted(metrics)} do not match "
            f"BENCHMARK.json {sorted(units)}",
            file=sys.stderr,
        )
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    provenances = {json.dumps(p["provenance"], sort_keys=True) for p in passes}
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        iterations=len(iterations(passes)),
        provenance=passes[0]["provenance"],
        provenance_consistent=len(provenances) == 1,
        counters=iterations(passes)[0]["counters"],
        nondeterministic_counters=mismatched_counters(passes),
        failures=[msg for p in passes for msg in p["failures"]][:20],
    )
    result = {
        "correct": failed == 0 and len(provenances) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    record = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
