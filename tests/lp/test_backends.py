"""Unit tests for the solver dispatch: HiGHS is the only backend."""

from __future__ import annotations

import pytest

from repro import SolverError
from repro.lp import LinearProgram, LPStatus, solve_lp


class TestDispatch:
    def test_unknown_backend_raises(self):
        lp = LinearProgram(c=[1.0])
        # "simplex" named the from-scratch solver; HiGHS is now the only one.
        for backend in ("does-not-exist", "simplex"):
            with pytest.raises(SolverError, match="unknown LP backend"):
                solve_lp(lp, backend=backend)

    @pytest.mark.parametrize("backend", ["scipy"])
    def test_basic_solve(self, backend):
        lp = LinearProgram(c=[-1.0], A_ub=[[1.0]], b_ub=[2.0])
        result = solve_lp(lp, backend=backend)
        assert result.is_optimal
        assert result.objective == pytest.approx(-2.0)
        assert result.backend == backend

    @pytest.mark.parametrize("backend", ["scipy"])
    def test_infeasible_status(self, backend):
        lp = LinearProgram(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
        assert solve_lp(lp, backend=backend).status is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", ["scipy"])
    def test_unbounded_status(self, backend):
        lp = LinearProgram(c=[-1.0])
        assert solve_lp(lp, backend=backend).status is LPStatus.UNBOUNDED

    @pytest.mark.parametrize("status", [1, 4, 99])
    def test_unknown_scipy_status_raises_with_context(self, monkeypatch, status):
        """Unexpected scipy statuses raise instead of returning a silent ERROR."""
        from repro.lp import backends

        fake = backends.HiGHSResult(status, None, None, "synthetic failure")
        monkeypatch.setattr(backends, "_run_highs", lambda lp: fake)
        lp = LinearProgram(c=[1.0, 2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
        with pytest.raises(SolverError) as excinfo:
            solve_lp(lp, backend="scipy")
        message = str(excinfo.value)
        assert "scipy" in message
        assert f"status {status}" in message
        assert "2 variables" in message
        assert "1 inequality" in message
        assert "synthetic failure" in message
