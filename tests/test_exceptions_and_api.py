"""Tests for the exception hierarchy and the public API surface."""

from __future__ import annotations

import pytest

import repro
from repro import (
    ConstructionError,
    InfeasibleError,
    InvalidInstanceError,
    ReproError,
    SolverError,
    UnboundedError,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [InvalidInstanceError, InfeasibleError, UnboundedError, SolverError, ConstructionError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catching_base_class_catches_all(self):
        with pytest.raises(ReproError):
            raise ConstructionError("boom")


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_key_entry_points_present(self):
        # The names used throughout the README / examples.
        for name in (
            "MaxMinLP",
            "MaxMinLPBuilder",
            "grid_instance",
            "safe_solution",
            "local_averaging_solution",
            "optimal_solution",
            "communication_hypergraph",
            "relative_growth",
            "build_lower_bound_instance",
            "theorem1_bound",
        ):
            assert name in repro.__all__

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.apps
        import repro.distributed
        import repro.generators
        import repro.hypergraph
        import repro.lowerbound
        import repro.lp

        assert repro.lp.DEFAULT_BACKEND == "scipy"
