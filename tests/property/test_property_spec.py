"""Property tests: the scenario wire format is exact, strict and key-stable.

Three contracts back the serving layer's use of spec JSON as a request
format: the round trip through :meth:`ScenarioSpec.to_json` is exact, the
``scenario_id`` request key is invariant under JSON key reordering (it
must not depend on dict iteration order), and malformed documents --
unknown fields, wrongly-typed values -- are rejected with precise errors
instead of being silently coerced into some other request.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.spec import ScenarioSpec, SuiteSpec

#: JSON-compatible parameter values the grid axes accept.
param_values = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.text(alphabet="abcxyz", min_size=1, max_size=6),
    st.booleans(),
)

identifiers = st.text(alphabet="abcdefgh_", min_size=1, max_size=10)


@st.composite
def scenario_specs(draw):
    """Structurally valid specs (families need not exist in the registry)."""
    return ScenarioSpec(
        family=draw(identifiers),
        params=draw(
            st.dictionaries(identifiers, param_values, min_size=0, max_size=4)
        ),
        seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
        radii=tuple(
            draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        ),
        backend="scipy",
        label=draw(st.one_of(st.none(), st.text(max_size=12))),
    )


class TestRoundTrip:
    @given(spec=scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_exact(self, spec):
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.scenario_id == spec.scenario_id

    @given(spec=scenario_specs(), seed=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_scenario_id_invariant_under_key_reordering(self, spec, seed):
        data = spec.to_dict()
        shuffled_keys = list(data)
        seed.shuffle(shuffled_keys)
        reordered = json.dumps({key: data[key] for key in shuffled_keys})
        assert ScenarioSpec.from_json(reordered).scenario_id == spec.scenario_id

    @given(spec=scenario_specs())
    @settings(max_examples=40, deadline=None)
    def test_label_never_affects_the_scenario_id(self, spec):
        relabeled = ScenarioSpec(
            family=spec.family,
            params=spec.params,
            seed=spec.seed,
            radii=spec.radii,
            backend=spec.backend,
            label="something-else",
        )
        assert relabeled.scenario_id == spec.scenario_id


class TestStrictness:
    @given(spec=scenario_specs(), junk=identifiers)
    @settings(max_examples=40, deadline=None)
    def test_unknown_fields_are_rejected_by_name(self, spec, junk):
        data = spec.to_dict()
        if junk in ScenarioSpec.FIELDS:
            return
        data[junk] = 1
        with pytest.raises(ValueError, match=junk):
            ScenarioSpec.from_dict(data)

    @given(spec=scenario_specs(), bad=st.sampled_from([1.5, "two", True, -3, 0]))
    @settings(max_examples=40, deadline=None)
    def test_wrongly_typed_radii_are_rejected(self, spec, bad):
        data = spec.to_dict()
        data["radii"] = [bad]
        with pytest.raises(ValueError, match="radii"):
            ScenarioSpec.from_dict(data)

    @given(spec=scenario_specs())
    @settings(max_examples=20, deadline=None)
    def test_non_mapping_params_are_rejected(self, spec):
        data = spec.to_dict()
        data["params"] = [1, 2, 3]
        with pytest.raises(ValueError, match="params"):
            ScenarioSpec.from_dict(data)

    def test_missing_family_is_rejected(self):
        with pytest.raises(ValueError, match="family"):
            ScenarioSpec.from_dict({"params": {}})

    def test_boolean_seed_is_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec.from_dict({"family": "cycle", "seed": True})

    def test_top_level_non_object_is_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ScenarioSpec.from_json("[]")
        with pytest.raises(ValueError, match="JSON object"):
            SuiteSpec.from_json('"a-string"')


class TestSuiteRoundTrip:
    @given(
        name=identifiers,
        grids=st.lists(
            st.fixed_dictionaries(
                {
                    "family": identifiers,
                    "params": st.dictionaries(
                        identifiers,
                        st.one_of(
                            param_values,
                            st.lists(param_values, min_size=1, max_size=3),
                        ),
                        max_size=3,
                    ),
                    "radii": st.lists(st.integers(1, 5), min_size=1, max_size=3),
                }
            ),
            min_size=0,
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_suite_round_trip_preserves_expansion(self, name, grids):
        suite = SuiteSpec.from_dict({"name": name, "grids": grids})
        restored = SuiteSpec.from_json(suite.to_json())
        assert restored == suite
        assert [spec.scenario_id for spec in restored.expand()] == [
            spec.scenario_id for spec in suite.expand()
        ]

    def test_suite_unknown_field_is_rejected(self):
        with pytest.raises(ValueError, match="surprise"):
            SuiteSpec.from_dict({"name": "s", "surprise": 1})

    def test_grid_unknown_field_is_rejected(self):
        with pytest.raises(ValueError, match="oops"):
            SuiteSpec.from_dict(
                {"name": "s", "grids": [{"family": "cycle", "oops": 2}]}
            )

    def test_spec_version_field_is_accepted(self):
        suite = SuiteSpec.from_dict({"name": "s", "spec_version": 1})
        assert suite.name == "s"
