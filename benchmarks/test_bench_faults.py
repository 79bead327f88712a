"""Experiment FAULTS -- the fault-injection harness's cost and honesty.

The resilience tentpole is only shippable if the instrumentation seams
are effectively free when no plan is installed and the chaos machinery
provably does something when one is.  This benchmark pins both:

* **idle overhead**: with an installed-but-silent plan on a real
  :class:`~repro.serve.ReproServer`, the requests that solve must
  consult the seams at all (``checks_per_request > 0``), and the
  *implied* cost (per-consultation seam cost x consultations) must stay
  under **2%** of those requests' time; the uninstalled fast path (one
  module-global ``None`` check) must stay sub-microsecond; in quick mode
  the plan-free/plan-installed wall-clock ratio of a warm ``POST
  /solve`` replay must also stay at or above **0.595** (quick runs
  measured 0.93-1.02, the spread being HTTP scheduling noise);
* **chaos masking**: a seeded transient-only plan against a small suite
  must actually fire (``injected > 0``) while leaving every result bit
  for bit identical to the fault-free run -- the retry layer's whole
  contract in one assertion.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke variant and
``REPRO_BENCH_OUT=<path>`` to write the measured rows as JSON.

This is an ablation of this reproduction's infrastructure, not a figure
of the paper.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import ResultCache
from repro.faults import SEAMS, FaultPlan, FaultSpec, inject, install_plan
from repro.scenarios import SuiteRunner
from repro.scenarios.spec import ScenarioSpec

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 3


@pytest.fixture(scope="session")
def measurements(solve_server, warm_replay):
    """Best-of-N fault-harness timings and one chaos run.

    * ``faults_overhead`` -- the warm replay timed with no fault plan and
      then with an installed-but-idle plan (one never-firing spec per
      seam).  Socket noise drowns the real delta, so the headline is the
      *implied* overhead: the per-call cost of a consulted seam
      (``checked_ns``, microbenchmark) times the seam consultations of
      the cold, solving requests that warm the server (counted by the
      plan itself), as a fraction of those requests' time.  ``inject_ns``
      is the uninstalled fast path; ``speedup`` is the
      plan-free/plan-installed wall ratio of the warm replay.
    * ``faults_chaos`` -- a small suite solved fault-free and again under a
      seeded transient-only plan (every-Nth raises on the HiGHS seam, so
      the retry layer must mask every injection).  ``identical`` says the
      two runs' results match bit for bit; ``injected`` counts the faults
      that actually fired.
    """
    distinct = 8 if QUICK else 16
    requests = 200 if QUICK else 1000
    inject_calls = 100_000 if QUICK else 500_000

    # (1) cost of one seam hook while no plan is installed (the fast path
    # every production run pays) ...
    inject_s = float("inf")
    for _ in range(REPEATS):
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
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(inject_calls):
                inject("lp.highs.call")
            checked_s = min(
                checked_s, (time.perf_counter() - start) / inject_calls
            )

    # (2) seam consultations on requests that solve: the cold posts to a
    # fresh server, idle plan installed.  A warm replay is answered from
    # serve's memory cache and consults no seam at all, so counting there
    # would make the implied overhead 0 by construction.
    with solve_server(distinct) as (_service, post, bodies):
        idle.reset()
        with install_plan(idle):
            start = time.perf_counter()
            for body in bodies:
                post(body)
            cold_s = time.perf_counter() - start
            checks = idle.hits()
    checks_per_request = checks / distinct
    implied_pct = 100.0 * checks * checked_s / cold_s

    # (3) the warm serve replay without and with the idle plan installed.
    with warm_replay(distinct, requests) as replay:
        disabled_s = min(replay() for _ in range(REPEATS))
        enabled_s = float("inf")
        with install_plan(idle):
            for _ in range(REPEATS):
                enabled_s = min(enabled_s, replay())

    # (4) chaos determinism: a transient-only plan must inject faults the
    # retry layer masks completely -- results bit-identical to fault-free.
    chaos_specs = [
        ScenarioSpec(family="cycle", params={"n": 8 + 2 * i}, radii=(1, 2))
        for i in range(2 if QUICK else 4)
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
            r.as_dict() for r in SuiteRunner(cache=ResultCache()).run(chaos_specs)
        ]
    for record in (*clean, *chaos):
        record.pop("seconds")

    return {
        "quick": QUICK,
        "faults_overhead": {
            "requests": requests,
            "distinct": distinct,
            "inject_ns": round(inject_s * 1e9, 1),
            "checked_ns": round(checked_s * 1e9, 1),
            "checks_per_request": round(checks_per_request, 2),
            "cold_seconds": round(cold_s, 4),
            "disabled_seconds": round(disabled_s, 4),
            "enabled_seconds": round(enabled_s, 4),
            "implied_overhead_pct": round(implied_pct, 4),
            "speedup": round(disabled_s / enabled_s, 3),
        },
        "faults_chaos": {
            "scenarios": len(chaos_specs),
            "injected": plan.injected(),
            "log_entries": len(plan.log),
            "identical": chaos == clean,
        },
    }


def test_faults_idle_overhead_under_two_percent(measurements, report, bench_out):
    """Acceptance: an idle fault plan costs < 2% of the warm serve path."""
    overhead = measurements["faults_overhead"]
    report(
        "FAULTS: idle-harness overhead on the serve path"
        + (" (quick mode)" if QUICK else ""),
        (
            f"{overhead['distinct']} cold (solving) requests: consulted seam "
            f"{overhead['checked_ns']:.0f}ns x "
            f"{overhead['checks_per_request']:.1f} checks/request = "
            f"{overhead['implied_overhead_pct']:.4f}% of the "
            f"{overhead['cold_seconds'] / overhead['distinct'] * 1e3:.2f}ms "
            f"request path (uninstalled fast path "
            f"{overhead['inject_ns']:.0f}ns; {overhead['requests']} warm "
            f"requests, enabled/disabled wall ratio "
            f"{1 / overhead['speedup']:.3f})"
        ),
    )
    bench_out(measurements)
    # A request that solves consults the seams; if none did, the implied
    # overhead below would be 0 by construction and prove nothing.
    assert overhead["checks_per_request"] > 0, (
        "the solving requests consulted no fault seam; the overhead "
        "measurement covers no instrumented path"
    )
    assert overhead["implied_overhead_pct"] < 2.0, (
        "an installed-but-idle fault plan must stay under 2% of the "
        f"solving request path; implied {overhead['implied_overhead_pct']:.3f}%"
    )
    # The uninstalled seam hook must stay sub-microsecond -- one
    # module-global None check, which is what every production run pays.
    assert overhead["inject_ns"] < 1000.0, (
        f"an uninstalled seam check costs {overhead['inject_ns']:.0f}ns; "
        "the no-plan fast path has regressed"
    )
    assert overhead["checked_ns"] < 50_000.0, (
        f"a consulted-but-silent seam costs {overhead['checked_ns']:.0f}ns"
    )
    if QUICK:
        assert overhead["speedup"] >= 0.595, (
            "an idle fault plan must not slow the quick warm replay below "
            f"0.595x; measured {overhead['speedup']:.3f}x"
        )


def test_faults_chaos_injects_and_masks(measurements, report):
    """Acceptance: the chaos plan fires, yet results stay bit-identical."""
    chaos = measurements["faults_chaos"]
    report(
        "FAULTS: transient chaos masking",
        (
            f"{chaos['scenarios']}-scenario suite under a seeded "
            f"transient-only plan: {chaos['injected']} faults injected "
            f"({chaos['log_entries']} log entries), results identical to "
            f"the fault-free run: {chaos['identical']}"
        ),
    )
    assert chaos["injected"] > 0, (
        "the chaos benchmark injected nothing -- it proves nothing"
    )
    assert chaos["log_entries"] == chaos["injected"]
    assert chaos["identical"] is True, (
        "injected transients leaked into the results; the retry layer "
        "failed to mask them"
    )
