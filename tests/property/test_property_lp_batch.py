"""Property-based tests: the stacked buffer batch vs the per-LP reference path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lp_reference import reduction, rowwise
from repro.lp import CompiledMaxMin, LPStatus, solve_lp, verify_solution
from repro.lp.maxmin import solve_maxmin_buffer_batch

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

coefficients = st.one_of(
    st.just(0.0), st.floats(min_value=0.1, max_value=3.0, allow_nan=False)
)


@st.composite
def maxmin_units(draw, max_agents: int = 4, max_rows: int = 3):
    """One random compiled max-min reduction, optimal or unbounded.

    Zero coefficients are left out of the triples, so some agents end up
    with a benefit but no resource, and some units with no beneficiary at
    all: both make ω unbounded.  Every other unit is bounded and optimal
    (``x = 0`` is always feasible, so no reduction is infeasible).
    """
    n = draw(st.integers(min_value=1, max_value=max_agents))
    n_i = draw(st.integers(min_value=0, max_value=max_rows))
    n_k = draw(st.integers(min_value=0, max_value=max_rows))

    def triples(n_rows):
        values = draw(st.lists(coefficients, min_size=n_rows * n, max_size=n_rows * n))
        return [
            (row, col, value)
            for (row, col), value in zip(np.ndindex(n_rows, n), values)
            if value
        ]

    return CompiledMaxMin.from_triples(n, n_i, n_k, triples(n_i), triples(n_k))


class TestStackedEqualsPerLP:
    @given(units=st.lists(maxmin_units(), min_size=0, max_size=8))
    @settings(**COMMON_SETTINGS)
    def test_statuses_and_objectives_match(self, units):
        buffers = [unit.to_buffers() for unit in units]
        stacked = solve_maxmin_buffer_batch(buffers, strategy="stacked")
        reference = solve_maxmin_buffer_batch(buffers, strategy="per-lp")
        assert len(stacked) == len(units)
        for unit, (fast_status, fast_x), (slow_status, slow_x) in zip(
            units, stacked, reference
        ):
            assert fast_status == slow_status
            if slow_status == LPStatus.OPTIMAL.value:
                # Both vectors are (x, ω): compare the optimal ω's.
                assert fast_x[-1] == pytest.approx(slow_x[-1], abs=1e-7)
                verify_solution(unit, (fast_x[:-1], fast_x[-1]), tol=1e-6)

    @given(unit=maxmin_units())
    @settings(**COMMON_SETTINGS)
    def test_batch_of_one_bit_identical(self, unit):
        ((status, x),) = solve_maxmin_buffer_batch(
            [unit.to_buffers()], strategy="stacked"
        )
        solo = solve_lp(rowwise(**reduction(unit)))
        assert status == solo.status.value
        if solo.x is None:
            assert x is None
        else:
            np.testing.assert_array_equal(x, solo.x)
