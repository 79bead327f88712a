"""Unit tests for JSON (de)serialisation of instances and solutions."""

from __future__ import annotations

import pytest

from repro import (
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    optimal_objective,
    solution_from_dict,
    solution_to_dict,
)


class TestInstanceRoundTrip:
    @pytest.mark.parametrize(
        "fixture", ["tiny_instance", "cycle8", "grid4x4", "random_instance", "disk_instance"]
    )
    def test_dict_roundtrip_preserves_instance(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        data = instance_to_dict(problem)
        rebuilt = instance_from_dict(data)
        assert rebuilt == problem

    def test_roundtrip_preserves_optimum(self, grid4x4):
        rebuilt = instance_from_dict(instance_to_dict(grid4x4))
        assert optimal_objective(rebuilt) == pytest.approx(optimal_objective(grid4x4))

    def test_file_roundtrip(self, tmp_path, cycle8):
        path = tmp_path / "instance.json"
        dump_instance(cycle8, path)
        assert load_instance(path) == cycle8

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            instance_from_dict({"format": "something-else"})

    def test_json_is_actually_serialisable(self, grid4x4):
        import json

        text = json.dumps(instance_to_dict(grid4x4))
        assert isinstance(text, str)
        assert instance_from_dict(json.loads(text)) == grid4x4

    def test_unsupported_identifier_type_rejected(self):
        from repro import MaxMinLP
        from repro.io import instance_to_dict as to_dict

        problem = MaxMinLP(
            [frozenset({1})], {("i", frozenset({1})): 1.0}, {}, validate=False
        )
        with pytest.raises(TypeError):
            to_dict(problem)


class TestSolutionRoundTrip:
    def test_roundtrip(self, grid4x4):
        x = {v: 0.1 for v in grid4x4.agents}
        data = solution_to_dict(x)
        assert solution_from_dict(data) == x

    def test_tuple_keys_survive(self):
        x = {("v", 1): 0.25, ("v", (2, 3)): 0.75}
        assert solution_from_dict(solution_to_dict(x)) == x
