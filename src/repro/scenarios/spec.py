"""Declarative scenario and suite specifications.

A :class:`ScenarioSpec` names one concrete experiment: an instance family
(resolved through :mod:`repro.scenarios.registry`), the parameters handed to
its builder, a seed, the averaging radii to evaluate and the LP backend.
Specs are plain data — they serialise to JSON and back bit-identically, and
their content fingerprint (:attr:`ScenarioSpec.scenario_id`) is stable
across processes, so artefact files and cache keys can reference scenarios
by content rather than by position in some ad-hoc script.

A :class:`SuiteSpec` is a *generator* of scenarios: a list of
:class:`ScenarioGrid` blocks, each holding per-parameter lists of choices
that are expanded by cartesian product (``params × seeds × radii-lists``)
into concrete :class:`ScenarioSpec` objects.  This is the move that turns
the paper's handful of hand-wired sweeps into a declarative workload
description: the built-in ``paper`` suite (:mod:`repro.scenarios.suites`)
is nothing but one such JSON-serialisable value.

Canonicalisation: JSON has no tuples, so spec parameters are normalised at
construction time — every list/tuple value becomes a tuple, recursively.
``from_dict(to_dict(spec)) == spec`` therefore holds exactly, and builders
receive the same canonical values no matter which route a spec travelled.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..engine.fingerprint import fingerprint_data
from ..lp.backends import DEFAULT_BACKEND

__all__ = ["ScenarioSpec", "ScenarioGrid", "SuiteSpec"]

#: Version tag embedded in serialised specs; bump on incompatible changes.
SPEC_VERSION = 1


def _canonical(value: Any) -> Any:
    """Normalise a parameter value: sequences become tuples, recursively."""
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    return value


def _jsonable(value: Any) -> Any:
    """Inverse-direction normalisation: tuples become lists for JSON."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def _canonical_params(params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    return {str(k): _canonical(v) for k, v in (params or {}).items()}


def _check_backend(backend: Any) -> None:
    """Reject any backend but HiGHS's ``"scipy"``, the only LP solver."""
    if backend != DEFAULT_BACKEND:
        raise ValueError(
            f"unknown LP backend {backend!r}; the only backend is "
            f"{DEFAULT_BACKEND!r}"
        )


def _parse_radii(radii: Any, *, where: str) -> Tuple[int, ...]:
    """Validate a radii value: an iterable of true integers, all >= 1.

    ``operator.index`` accepts ints and numpy integers but rejects floats,
    bools and strings — the wire format must not silently coerce ``1.5``
    or ``"2"`` into a radius.
    """
    if isinstance(radii, (str, bytes)) or not hasattr(radii, "__iter__"):
        raise ValueError(
            f"{where} radii must be an iterable of integers, got {radii!r}"
        )
    checked: List[int] = []
    for r in radii:
        if isinstance(r, bool):
            raise ValueError(f"{where} radii must be integers, got {r!r}")
        try:
            checked.append(operator.index(r))
        except TypeError:
            raise ValueError(
                f"{where} radii must be integers, got {r!r} "
                f"(of type {type(r).__name__})"
            ) from None
    if any(r < 1 for r in checked):
        raise ValueError(
            f"{where} radii must be positive integers, got {tuple(checked)}"
        )
    return tuple(checked)


def _check_fields(
    data: Mapping[str, Any], allowed: Sequence[str], *, what: str
) -> None:
    """Reject unknown serialised fields with a precise error message."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(map(str, data)) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} field(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of {', '.join(sorted(allowed))}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete, runnable experiment configuration.

    Attributes
    ----------
    family:
        Registered instance-family name (see
        :func:`repro.scenarios.registry.list_families`).
    params:
        Keyword arguments for the family builder (canonicalised: sequence
        values are stored as tuples).
    seed:
        Seed forwarded to the builder (``None`` for deterministic families).
    radii:
        Radii at which the local averaging algorithm is evaluated; must be
        positive integers.  May be empty for growth/baseline-only scenarios.
    backend:
        LP backend used for every solve of the scenario; must be
        ``"scipy"`` (HiGHS, the only solver).  It stays a field because
        it is part of the scenario's wire form and cache identity.
    label:
        Optional human-readable name; a default is derived from the content
        when omitted.
    """

    family: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    radii: Tuple[int, ...] = (1,)
    backend: str = DEFAULT_BACKEND
    label: Optional[str] = None

    #: Serialised field names :meth:`from_dict` accepts (anything else is a
    #: client error, reported precisely — never silently dropped).
    FIELDS = ("family", "params", "seed", "radii", "backend", "label")

    def __post_init__(self) -> None:
        if not self.family or not isinstance(self.family, str):
            raise ValueError("family must be a non-empty string")
        if not isinstance(self.params, Mapping):
            raise ValueError(
                f"params must be a mapping of parameter names to values, "
                f"got {type(self.params).__name__}"
            )
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int)
        ):
            raise ValueError(
                f"seed must be an integer or null, got {self.seed!r}"
            )
        _check_backend(self.backend)
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"label must be a string or null, got {self.label!r}")
        object.__setattr__(self, "params", _canonical_params(self.params))
        object.__setattr__(
            self, "radii", _parse_radii(self.radii, where="ScenarioSpec")
        )

    def __hash__(self) -> int:
        # The generated hash would fail on the params dict; its values are
        # canonicalised to hashable nested tuples, so hash the sorted items.
        return hash(
            (
                self.family,
                tuple(sorted(self.params.items())),
                self.seed,
                self.radii,
                self.backend,
                self.label,
            )
        )

    # ------------------------------------------------------------------
    # Identity and display
    # ------------------------------------------------------------------
    @functools.cached_property
    def scenario_id(self) -> str:
        """Stable content fingerprint (first 16 hex digits of SHA-256).

        The label is deliberately excluded: renaming a scenario must not
        change its identity (nor invalidate artefacts referring to it).
        Computed once per spec object; it is not a field, so equality and
        the hash ignore it.
        """
        return fingerprint_data(
            {
                "spec_version": SPEC_VERSION,
                "family": self.family,
                "params": _jsonable(self.params),
                "seed": self.seed,
                "radii": list(self.radii),
                "backend": self.backend,
            }
        )[:16]

    @property
    def display_label(self) -> str:
        """The explicit label, or a compact ``family[k=v,...]#seed`` default."""
        if self.label:
            return self.label
        parts = ",".join(
            f"{key}={_render_value(self.params[key])}" for key in sorted(self.params)
        )
        text = self.family if not parts else f"{self.family}[{parts}]"
        if self.seed is not None:
            text += f"#s{self.seed}"
        return text

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (tuples rendered as lists)."""
        data: Dict[str, Any] = {
            "family": self.family,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "seed": self.seed,
            "radii": list(self.radii),
            "backend": self.backend,
        }
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (canonicalises sequence params).

        Strict: unknown fields and wrongly typed values raise
        :class:`ValueError` with a precise message — a spec that arrives
        over the wire either means exactly what :meth:`to_dict` would have
        produced, or it is rejected.
        """
        _check_fields(data, cls.FIELDS, what="ScenarioSpec")
        if "family" not in data:
            raise ValueError("ScenarioSpec is missing the required 'family' field")
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(
                f"ScenarioSpec params must be a JSON object, "
                f"got {type(params).__name__}"
            )
        return cls(
            family=data["family"],
            params=dict(params),
            seed=data.get("seed"),
            radii=_parse_radii(data.get("radii", (1,)), where="ScenarioSpec"),
            backend=data.get("backend", DEFAULT_BACKEND),
            label=data.get("label"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"a ScenarioSpec must be a JSON object, "
                f"got {type(data).__name__}"
            )
        return cls.from_dict(data)


def _render_value(value: Any) -> str:
    if isinstance(value, tuple):
        return "x".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class ScenarioGrid:
    """One expansion block of a suite: per-parameter lists of choices.

    Every stored value of ``params`` is a *list of choices* for that
    parameter.  In the constructor, a **list** denotes an axis of choices
    while any other value — including a tuple like a grid shape — is one
    literal choice, so ``ScenarioGrid("grid", params={"shape": [(6, 6),
    (8, 8)], "weights": "unit"})`` reads naturally.  Expansion takes the
    cartesian product over all parameter axes and over ``seeds``; each
    combination becomes one :class:`ScenarioSpec` carrying the full
    ``radii`` tuple.

    ``label`` is forwarded to every expanded scenario; it is mainly useful
    for single-scenario grids (e.g. wrapping a loose, explicitly-labelled
    :class:`ScenarioSpec` back into a suite).
    """

    family: str
    params: Dict[str, List[Any]] = field(default_factory=dict)
    seeds: Tuple[Optional[int], ...] = (None,)
    radii: Tuple[int, ...] = (1,)
    backend: str = DEFAULT_BACKEND
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.family or not isinstance(self.family, str):
            raise ValueError("family must be a non-empty string")
        _check_backend(self.backend)
        # Axes are stored (and therefore expanded) in sorted key order, so
        # the expansion order survives a JSON round trip — ``to_json`` sorts
        # keys, and a reloaded grid must enumerate the same product order.
        axes: Dict[str, List[Any]] = {}
        for key, choices in sorted((self.params or {}).items(), key=lambda kv: str(kv[0])):
            # Only *lists* denote an axis of choices; a tuple (or any other
            # value) is a single literal parameter value, so shapes like
            # ``(6, 6)`` read naturally.  JSON grid files always use lists
            # of choices (a literal sequence value is a nested list there).
            # The canonical stored form (a list of tuple-canonical choices)
            # is a fixed point of this normalisation, so re-running it —
            # e.g. via ``dataclasses.replace`` — is harmless.
            if not isinstance(choices, list):
                choices = [choices]
            if len(choices) == 0:
                raise ValueError(f"parameter axis {key!r} has no choices")
            axes[str(key)] = [_canonical(c) for c in choices]
        object.__setattr__(self, "params", axes)
        seeds = self.seeds
        if seeds is None or isinstance(seeds, int):
            seeds = (seeds,)
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("seeds must contain at least one entry")
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(
            self, "radii", _parse_radii(self.radii, where="ScenarioGrid")
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.family,
                tuple((key, tuple(choices)) for key, choices in sorted(self.params.items())),
                self.seeds,
                self.radii,
                self.backend,
                self.label,
            )
        )

    def __len__(self) -> int:
        """Number of scenarios this grid expands to."""
        count = len(self.seeds)
        for choices in self.params.values():
            count *= len(choices)
        return count

    def expand(self) -> Iterator[ScenarioSpec]:
        """Yield the cartesian product of the parameter axes and seeds.

        The order is deterministic: axes iterate in sorted key order (the
        canonical storage order, stable across JSON round trips), the
        rightmost axis fastest, seeds innermost — a nested loop over the
        sorted axes.
        """
        keys = list(self.params)
        combos: List[Dict[str, Any]] = [{}]
        for key in keys:
            combos = [
                {**combo, key: choice}
                for combo in combos
                for choice in self.params[key]
            ]
        for combo in combos:
            for seed in self.seeds:
                yield ScenarioSpec(
                    family=self.family,
                    params=combo,
                    seed=seed,
                    radii=self.radii,
                    backend=self.backend,
                    label=self.label,
                )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "family": self.family,
            "params": {k: [_jsonable(c) for c in v] for k, v in self.params.items()},
            "seeds": list(self.seeds),
            "radii": list(self.radii),
            "backend": self.backend,
        }
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioGrid":
        # Values pass through unchanged: the constructor's list-is-axis /
        # scalar-is-literal normalisation applies to JSON data exactly as it
        # does to Python literals (so {"weights": "unit"} stays one choice).
        _check_fields(
            data,
            ("family", "params", "seeds", "radii", "backend", "label"),
            what="ScenarioGrid",
        )
        if "family" not in data:
            raise ValueError("ScenarioGrid is missing the required 'family' field")
        seeds = data.get("seeds", (None,))
        if isinstance(seeds, list):
            seeds = tuple(seeds)
        return cls(
            family=data["family"],
            params=dict(data.get("params", {})),
            seeds=seeds,
            radii=tuple(data.get("radii", (1,))),
            backend=data.get("backend", DEFAULT_BACKEND),
            label=data.get("label"),
        )


@dataclass(frozen=True)
class SuiteSpec:
    """A named collection of scenario grids — a whole declarative workload."""

    name: str
    description: str = ""
    grids: Tuple[ScenarioGrid, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("suite name must be a non-empty string")
        object.__setattr__(self, "grids", tuple(self.grids))

    def __len__(self) -> int:
        """Total number of scenarios across all grids (without expanding)."""
        return sum(len(grid) for grid in self.grids)

    def expand(self) -> List[ScenarioSpec]:
        """All concrete scenarios of the suite, grids in declaration order."""
        scenarios: List[ScenarioSpec] = []
        for grid in self.grids:
            scenarios.extend(grid.expand())
        return scenarios

    @property
    def families(self) -> List[str]:
        """Distinct families used by the suite, in first-appearance order."""
        seen: List[str] = []
        for grid in self.grids:
            if grid.family not in seen:
                seen.append(grid.family)
        return seen

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "description": self.description,
            "grids": [grid.to_dict() for grid in self.grids],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteSpec":
        _check_fields(
            data,
            ("spec_version", "name", "description", "grids"),
            what="SuiteSpec",
        )
        if "name" not in data:
            raise ValueError("SuiteSpec is missing the required 'name' field")
        grids = data.get("grids", ())
        if isinstance(grids, Mapping) or not hasattr(grids, "__iter__"):
            raise ValueError(
                f"SuiteSpec grids must be a list of grid objects, "
                f"got {type(grids).__name__}"
            )
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            grids=tuple(ScenarioGrid.from_dict(g) for g in grids),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SuiteSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"a SuiteSpec must be a JSON object, got {type(data).__name__}"
            )
        return cls.from_dict(data)
