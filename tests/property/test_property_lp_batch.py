"""Property-based tests: batched LP solving vs the per-LP reference path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.lp import (
    LinearProgram,
    LPStatus,
    solve_lp,
    solve_lp_batch,
)

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def mixed_lps(draw, max_vars: int = 4, max_rows: int = 3):
    """One random LP that may be optimal, infeasible or unbounded.

    Three deliberate regimes: well-scaled bounded packing LPs (optimal),
    LPs with a contradictory constraint pair (infeasible), and LPs with a
    profitable unconstrained direction (unbounded).
    """
    kind = draw(st.sampled_from(["optimal", "infeasible", "unbounded"]))
    n = draw(st.integers(min_value=1, max_value=max_vars))
    m = draw(st.integers(min_value=1, max_value=max_rows))
    c = draw(
        hnp.arrays(
            np.float64,
            (n,),
            elements=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        )
    )
    A = draw(
        hnp.arrays(
            np.float64,
            (m, n),
            elements=st.one_of(
                st.just(0.0),
                st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
            ),
        )
    ).copy()
    b = draw(
        hnp.arrays(
            np.float64,
            (m,),
            elements=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
        )
    )
    if kind == "optimal":
        for j in range(n):  # bounded: every variable constrained
            if A[:, j].max() <= 0:
                A[0, j] = 1.0
        return LinearProgram(c=-c, A_ub=A, b_ub=b)
    if kind == "infeasible":
        # x_0 <= 1 and -x_0 <= -2 cannot both hold.
        A_rows = np.vstack([A, np.eye(1, n), -np.eye(1, n)])
        b_rows = np.concatenate([b, [1.0], [-2.0]])
        return LinearProgram(c=c, A_ub=A_rows, b_ub=b_rows)
    # Unbounded: maximise x_0 with x_0 absent from every constraint.
    A[:, 0] = 0.0
    c_dir = np.zeros(n)
    c_dir[0] = -1.0
    return LinearProgram(c=c_dir, A_ub=A, b_ub=b)


class TestStackedEqualsPerLP:
    @given(lps=st.lists(mixed_lps(), min_size=0, max_size=8))
    @settings(**COMMON_SETTINGS)
    def test_statuses_and_objectives_match(self, lps):
        stacked = solve_lp_batch(lps, strategy="stacked")
        reference = [solve_lp(lp) for lp in lps]
        assert len(stacked) == len(lps)
        for lp, fast, slow in zip(lps, stacked, reference):
            assert fast.status is slow.status
            if slow.status is LPStatus.OPTIMAL:
                assert fast.objective == pytest.approx(
                    slow.objective, abs=1e-7
                )
                assert lp.is_feasible(fast.x, tol=1e-6)

    @given(lp=mixed_lps())
    @settings(**COMMON_SETTINGS)
    def test_batch_of_one_bit_identical(self, lp):
        (batched,) = solve_lp_batch([lp], strategy="stacked")
        solo = solve_lp(lp)
        assert batched.status is solo.status
        if solo.x is not None:
            np.testing.assert_array_equal(batched.x, solo.x)

    @given(
        lps=st.lists(mixed_lps(), min_size=1, max_size=8),
        chunk=st.integers(min_value=1, max_value=4),
    )
    @settings(**COMMON_SETTINGS)
    def test_chunked_statuses_match_unchunked(self, lps, chunk):
        a = solve_lp_batch(lps, strategy="stacked", chunk_size=chunk)
        b = solve_lp_batch(lps, strategy="stacked")
        assert [r.status for r in a] == [r.status for r in b]
