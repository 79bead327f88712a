"""What ``import repro`` and a plain suite run load: no ``scipy.optimize``, no networkx.

HiGHS is loaded straight from its extension module (see
:mod:`repro.lp.backends`) and networkx only by the functions that build
graphs, so neither package belongs to the start-up cost.  Each case runs in
a fresh interpreter: this pytest process has long since imported both.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


def test_imports_and_a_certified_suite_run_load_neither_package():
    out = _run(
        """
        import sys

        import repro, repro.cli, repro.serve
        from repro.engine import BatchSolver, ResultCache
        from repro.scenarios.certify import certify_scenario_result
        from repro.scenarios.runner import SuiteRunner
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(family="cycle", params={"n": 8}, seed=0, radii=(1,))
        engine = BatchSolver(cache=ResultCache(), verify="all")
        (result,) = SuiteRunner(engine=engine).run([spec])
        certify_scenario_result(spec, result.as_dict())
        loaded = sorted(
            name for name in sys.modules
            if name == "scipy.optimize" or name.split(".")[0] == "networkx"
        )
        print(result.optimum, loaded)
        """
    )
    optimum, loaded = out.strip().split(" ", 1)
    assert float(optimum) > 0
    assert loaded == "[]"


@pytest.mark.parametrize("repro_first", [True, False], ids=["repro-first", "linprog-first"])
def test_both_import_orders_share_one_highs_module(repro_first):
    first, second = (
        ("import repro.lp.backends", "from scipy.optimize import linprog")
        if repro_first
        else ("from scipy.optimize import linprog", "import repro.lp.backends")
    )
    out = _run(
        f"""
        import sys

        {first}
        {second}
        import scipy.optimize._highspy._core as core

        assert core is repro.lp.backends._highs
        assert sys.modules["scipy.optimize._highspy._core"] is core
        result = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0], method="highs")
        assert result.status == 0, result.message
        print(result.fun)
        """
    )
    assert float(out) == pytest.approx(-6.0)
