"""Unit tests for the LP result record."""

from __future__ import annotations

import numpy as np

from repro.lp import LPResult, LPStatus


class TestLPResult:
    def test_is_optimal_flag(self):
        ok = LPResult(LPStatus.OPTIMAL, np.array([1.0]), 1.0)
        bad = LPResult(LPStatus.INFEASIBLE, None, None)
        assert ok.is_optimal
        assert not bad.is_optimal
