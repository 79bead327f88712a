"""Unit tests for the solver dispatch: HiGHS is the only backend."""

from __future__ import annotations

import inspect
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from lp_reference import rowwise
from repro import SolverError
from repro.lp import LPStatus, backends, solve_lp
from repro.lp.backends import call_highs, check_backend


def _callables_without_backend():
    from repro.analysis import sweeps
    from repro.core import baselines, local_averaging, optimal
    from repro.distributed.programs import LocalAveragingProgram
    from repro.engine import BatchSolver
    from repro.lowerbound.adversary import local_averaging_algorithm
    from repro.lp import maxmin

    return [
        local_averaging.local_averaging_solution,
        local_averaging.solve_local_lp,
        local_averaging.solve_local_lp_batch,
        optimal.optimal_solution,
        optimal.optimal_solution_batch,
        optimal.optimal_objective,
        baselines.single_shot_local_solution,
        baselines.unshrunk_averaging_solution,
        sweeps.radius_sweep,
        BatchSolver.solve_canonical_local_lps,
        BatchSolver.solve_local_lps,
        BatchSolver.solve_maxmin,
        BatchSolver.solve_maxmin_batch,
        BatchSolver._run_requests,
        maxmin.solve_max_min,
        maxmin.solve_maxmin_buffer_batch,
        solve_lp,
        LocalAveragingProgram,
        local_averaging_algorithm,
    ]


@pytest.mark.parametrize(
    "fn", _callables_without_backend(), ids=lambda fn: fn.__qualname__
)
def test_no_backend_keyword(fn):
    # HiGHS is the only solver, so no call site chooses one; "scipy"
    # survives only as data (specs, fingerprints, result fields).
    assert "backend" not in inspect.signature(fn).parameters


class TestDispatch:
    def test_unknown_backend_raises(self):
        # "simplex" named the from-scratch solver; HiGHS is now the only one.
        check_backend("scipy")
        for backend in ("does-not-exist", "simplex"):
            with pytest.raises(SolverError, match="unknown LP backend"):
                check_backend(backend)

    @pytest.mark.parametrize("backend", ["scipy"])
    def test_basic_solve(self, backend):
        lp = rowwise(c=[-1.0], A_ub=[[1.0]], b_ub=[2.0])
        result = solve_lp(lp)
        assert result.is_optimal
        assert result.objective == pytest.approx(-2.0)
        assert result.backend == backend

    @pytest.mark.parametrize("backend", ["scipy"])
    def test_infeasible_status(self, backend):
        lp = rowwise(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
        result = solve_lp(lp)
        assert result.status is LPStatus.INFEASIBLE
        assert result.backend == backend

    @pytest.mark.parametrize("backend", ["scipy"])
    def test_unbounded_status(self, backend):
        lp = rowwise(c=[-1.0])
        result = solve_lp(lp)
        assert result.status is LPStatus.UNBOUNDED
        assert result.backend == backend

    @pytest.mark.parametrize("status", [1, 4, 99])
    def test_unknown_scipy_status_raises_with_context(self, monkeypatch, status):
        """Unexpected scipy statuses raise instead of returning a silent ERROR."""
        fake = backends.HiGHSResult(status, None, None, "synthetic failure")
        monkeypatch.setattr(backends, "_run_highs", lambda lp: fake)
        lp = rowwise(c=[1.0, 2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
        with pytest.raises(SolverError) as excinfo:
            solve_lp(lp)
        message = str(excinfo.value)
        assert "scipy" in message
        assert f"status {status}" in message
        assert "2 variables" in message
        assert "1 inequality" in message
        assert "synthetic failure" in message


class TestInstanceReuse:
    """``_run_highs`` builds one HiGHS instance per thread and process."""

    LP = rowwise(c=[-1.0, -1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]], b_ub=[4.0, 6.0])

    @pytest.fixture
    def built(self, monkeypatch):
        """Every HiGHS instance built while the test runs."""
        instances = []
        real = backends._highs._Highs

        def counting_highs():
            instances.append(real())
            return instances[-1]

        monkeypatch.setattr(backends._highs, "_Highs", counting_highs)
        return instances

    def _solve(self, times: int) -> None:
        for _ in range(times):
            result = call_highs(self.LP)
            assert result.status == 0 and result.fun == pytest.approx(-2.8)

    def _in_new_thread(self, fn, *args) -> None:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(fn, *args).result(timeout=60)

    def test_one_instance_per_thread(self, built):
        self._in_new_thread(self._solve, 50)
        assert len(built) == 1
        self._in_new_thread(self._solve, 50)
        assert len(built) == 2

    def test_a_new_process_id_builds_a_new_instance(self, built, monkeypatch):
        # A forked worker inherits the forking thread's instance; it must not
        # solve in it.
        def solve_across_a_fork():
            self._solve(2)
            assert len(built) == 1
            child = os.getpid() + 1
            monkeypatch.setattr(backends.os, "getpid", lambda: child)
            self._solve(2)

        self._in_new_thread(solve_across_a_fork)
        assert len(built) == 2

    def test_instance_with_rejected_options_is_not_kept(self, built, monkeypatch):
        rejected = backends._highs.HighsOptions()
        rejected.presolve = "bogus"

        def solve_with_rejected_then_good_options():
            with monkeypatch.context() as patch:
                patch.setattr(backends, "_HIGHS_OPTIONS", rejected)
                for _ in range(2):
                    assert call_highs(self.LP).status == 4
            assert len(built) == 2
            self._solve(2)

        self._in_new_thread(solve_with_rejected_then_good_options)
        assert len(built) == 3
