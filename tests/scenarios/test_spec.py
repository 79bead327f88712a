"""Tests for scenario/suite specs: canonicalisation, round-trip, expansion."""

from __future__ import annotations

import pytest

from repro.scenarios import ScenarioGrid, ScenarioSpec, SuiteSpec


class TestScenarioSpec:
    def test_params_are_canonicalised_to_tuples(self):
        spec = ScenarioSpec(family="grid", params={"shape": [6, 6]})
        assert spec.params["shape"] == (6, 6)

    def test_json_round_trip_is_exact(self):
        spec = ScenarioSpec(
            family="unit_disk",
            params={"n": 36, "radius": 0.24, "max_support": 6},
            seed=3,
            radii=(1, 2),
            label="my disk",
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_trip_preserves_nested_sequences(self):
        spec = ScenarioSpec(family="grid", params={"shape": (6, 6)})
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.params["shape"] == (6, 6)

    def test_scenario_id_is_stable_and_label_independent(self):
        a = ScenarioSpec(family="cycle", params={"n": 40}, radii=(1, 2))
        b = ScenarioSpec(family="cycle", params={"n": 40}, radii=(1, 2), label="x")
        assert a.scenario_id == b.scenario_id
        assert len(a.scenario_id) == 16

    def test_scenario_id_depends_on_content(self):
        a = ScenarioSpec(family="cycle", params={"n": 40})
        b = ScenarioSpec(family="cycle", params={"n": 41})
        c = ScenarioSpec(family="cycle", params={"n": 40}, seed=1)
        assert len({a.scenario_id, b.scenario_id, c.scenario_id}) == 3

    def test_display_label_defaults_to_content(self):
        spec = ScenarioSpec(family="cycle", params={"n": 40}, seed=2)
        assert spec.display_label == "cycle[n=40]#s2"
        assert ScenarioSpec(family="cycle", label="named").display_label == "named"

    def test_rejects_bad_radii_and_family(self):
        with pytest.raises(ValueError, match="positive integers"):
            ScenarioSpec(family="cycle", radii=(0,))
        with pytest.raises(ValueError, match="family"):
            ScenarioSpec(family="")

    def test_empty_radii_allowed(self):
        assert ScenarioSpec(family="cycle", radii=()).radii == ()

    @pytest.mark.parametrize("backend", ["foo", "simplex", "", None])
    def test_rejects_unknown_backend(self, backend):
        with pytest.raises(ValueError, match="unknown LP backend"):
            ScenarioSpec(family="cycle", backend=backend)
        with pytest.raises(ValueError, match="unknown LP backend"):
            ScenarioGrid("cycle", params={"n": [8]}, backend=backend)
        with pytest.raises(ValueError, match="unknown LP backend"):
            ScenarioSpec.from_dict({"family": "cycle", "backend": backend})


class TestScenarioGrid:
    def test_lists_are_axes_tuples_are_values(self):
        grid = ScenarioGrid(
            "grid", params={"shape": [(4, 4), (6, 6)], "weights": "unit"}
        )
        assert len(grid) == 2
        shapes = [spec.params["shape"] for spec in grid.expand()]
        assert shapes == [(4, 4), (6, 6)]
        assert all(spec.params["weights"] == "unit" for spec in grid.expand())

    def test_cartesian_product_over_axes_and_seeds(self):
        grid = ScenarioGrid(
            "random_bounded_degree",
            params={"n_agents": [10, 20], "max_resource_support": [3, 5]},
            seeds=(0, 1, 2),
            radii=(1, 2),
        )
        specs = list(grid.expand())
        assert len(grid) == len(specs) == 2 * 2 * 3
        combos = {(s.params["n_agents"], s.params["max_resource_support"], s.seed)
                  for s in specs}
        assert len(combos) == 12
        assert all(s.radii == (1, 2) for s in specs)

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="no choices"):
            ScenarioGrid("cycle", params={"n": []})

    def test_scalar_seed_is_wrapped(self):
        grid = ScenarioGrid("cycle", params={"n": 8}, seeds=0)
        assert [s.seed for s in grid.expand()] == [0]

    def test_dataclasses_replace_preserves_axes(self):
        import dataclasses

        grid = ScenarioGrid(
            "grid", params={"shape": [(4, 4), (6, 6)], "weights": "unit"}
        )
        again = dataclasses.replace(grid, radii=(1, 2))
        assert len(again) == len(grid) == 2
        assert [s.params for s in again.expand()] == [s.params for s in grid.expand()]
        assert all(s.radii == (1, 2) for s in again.expand())


class TestSuiteSpec:
    def test_expansion_order_follows_declaration(self):
        suite = SuiteSpec(
            name="tiny",
            grids=(
                ScenarioGrid("cycle", params={"n": [8, 10]}),
                ScenarioGrid("path", params={"n": 6}),
            ),
        )
        families = [spec.family for spec in suite.expand()]
        assert families == ["cycle", "cycle", "path"]
        assert len(suite) == 3
        assert suite.families == ["cycle", "path"]

    def test_json_round_trip_preserves_expansion(self):
        suite = SuiteSpec(
            name="rt",
            description="round trip",
            grids=(
                ScenarioGrid(
                    "grid", params={"shape": [(4, 4), (6, 6)]}, radii=(1, 2)
                ),
                ScenarioGrid("cycle", params={"n": 8}, seeds=(0, 1)),
            ),
        )
        again = SuiteSpec.from_json(suite.to_json())
        assert again == suite
        assert again.expand() == suite.expand()

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            SuiteSpec(name="")

    def test_from_dict_keeps_scalar_literals_literal(self):
        # The JSON contract: lists are axes, anything else is one literal
        # value — a string must not be exploded into per-character choices.
        suite = SuiteSpec.from_dict(
            {
                "name": "hand-written",
                "grids": [
                    {
                        "family": "cycle",
                        "params": {"n": 8, "weights": "unit"},
                        "seeds": 0,
                        "radii": [1],
                    }
                ],
            }
        )
        (spec,) = suite.expand()
        assert spec.params == {"n": 8, "weights": "unit"}
        assert spec.seed == 0
