"""Two-tier sensor-network lifetime maximisation (paper Section 2).

The application that motivates the paper: battery-powered *sensors* generate
data about physical *areas*; the data travels over a wireless link to a
battery-powered *relay* which forwards it to the sink.  The decision
variables are the data volumes routed over each (sensor, relay) link; energy
budgets of sensors and relays are the resources, and the monitored areas are
the beneficiary parties.  Maximising the minimum per-area data volume is the
max-min LP (1), and (as the paper notes) this is equivalent to maximising
the network lifetime under equal per-area reporting rates.

This module provides

* the data model (:class:`Sensor`, :class:`Relay`, :class:`Area`,
  :class:`SensorNetwork`),
* a random deployment generator (:func:`random_sensor_network`) with
  bounded radio range and guaranteed connectivity of every sensor to at
  least one relay and every area to at least one sensor,
* the reduction to a max-min LP (:meth:`SensorNetwork.to_maxmin_lp`), and
* interpretation of a solution back in network terms
  (:meth:`SensorNetwork.interpret_solution`): per-area data rates, per-device
  energy utilisation and the implied network lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.problem import MaxMinLP, MaxMinLPBuilder
from ..exceptions import ConstructionError

__all__ = [
    "Sensor",
    "Relay",
    "Area",
    "SensorNetwork",
    "SensorNetworkReport",
    "random_sensor_network",
]


@dataclass(frozen=True)
class Sensor:
    """A battery-powered sensor device.

    Attributes
    ----------
    name:
        Identifier.
    position:
        Planar position (used to derive radio links and area coverage).
    energy:
        Battery budget; transmitting one unit of data consumes
        ``tx_cost / energy`` of the budget.
    tx_cost:
        Energy consumed per transmitted data unit.
    """

    name: str
    position: Tuple[float, float]
    energy: float = 1.0
    tx_cost: float = 1.0


@dataclass(frozen=True)
class Relay:
    """A battery-powered relay node forwarding sensor data to the sink."""

    name: str
    position: Tuple[float, float]
    energy: float = 1.0
    forward_cost: float = 1.0


@dataclass(frozen=True)
class Area:
    """A monitored physical area (a beneficiary party of the max-min LP)."""

    name: str
    position: Tuple[float, float]


@dataclass
class SensorNetwork:
    """A two-tier sensor network instance.

    Attributes
    ----------
    sensors, relays, areas:
        The devices and monitored areas.
    radio_range:
        A wireless link (s, t) exists when sensor ``s`` and relay ``t`` are
        within this distance.
    sensing_range:
        Sensor ``s`` can monitor area ``k`` when they are within this
        distance.
    """

    sensors: List[Sensor]
    relays: List[Relay]
    areas: List[Area]
    radio_range: float
    sensing_range: float

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def links(self) -> List[Tuple[str, str]]:
        """All wireless links (sensor name, relay name) within radio range."""
        result: List[Tuple[str, str]] = []
        for s in self.sensors:
            for t in self.relays:
                if _distance(s.position, t.position) <= self.radio_range:
                    result.append((s.name, t.name))
        return result

    def coverage(self) -> Dict[str, List[str]]:
        """Mapping from area name to the sensors able to monitor it."""
        cov: Dict[str, List[str]] = {a.name: [] for a in self.areas}
        for a in self.areas:
            for s in self.sensors:
                if _distance(s.position, a.position) <= self.sensing_range:
                    cov[a.name].append(s.name)
        return cov

    def validate(self) -> None:
        """Check the structural assumptions of the reduction.

        Every sensor that covers some area must reach at least one relay and
        every area must be covered by at least one sensor; otherwise the
        max-min objective is identically zero (an area can never be served).
        """
        cov = self.coverage()
        links = self.links()
        sensors_with_link = {s for s, _t in links}
        for area, sensors in cov.items():
            if not sensors:
                raise ConstructionError(f"area {area!r} is not covered by any sensor")
            if not any(s in sensors_with_link for s in sensors):
                raise ConstructionError(
                    f"no sensor covering area {area!r} can reach a relay"
                )

    # ------------------------------------------------------------------
    # Reduction to the max-min LP
    # ------------------------------------------------------------------
    def to_maxmin_lp(self) -> MaxMinLP:
        """Build the max-min LP of Section 2.

        * Agents: the wireless links ``v = (s, t)``; ``x_v`` is the amount of
          data transmitted from ``s`` via ``t`` to the sink.
        * Resources: one per sensor and one per relay; transmitting one unit
          over ``(s, t)`` consumes ``tx_cost/energy`` of ``s`` and
          ``forward_cost/energy`` of ``t``.
        * Beneficiaries: one per area ``k``; ``c_kv = 1`` whenever the link's
          sensor covers ``k``.
        """
        self.validate()
        sensor_by_name = {s.name: s for s in self.sensors}
        relay_by_name = {t.name: t for t in self.relays}
        cov = self.coverage()
        builder = MaxMinLPBuilder()
        for (s_name, t_name) in self.links():
            link = ("link", s_name, t_name)
            sensor = sensor_by_name[s_name]
            relay = relay_by_name[t_name]
            builder.set_consumption(("sensor", s_name), link, sensor.tx_cost / sensor.energy)
            builder.set_consumption(("relay", t_name), link, relay.forward_cost / relay.energy)
            for area_name, covering in cov.items():
                if s_name in covering:
                    builder.set_benefit(("area", area_name), link, 1.0)
        return builder.build()

    def interpret_solution(
        self, problem: MaxMinLP, x: Mapping, *, reporting_period: float = 1.0
    ) -> "SensorNetworkReport":
        """Translate a max-min LP solution back into network quantities.

        Parameters
        ----------
        problem:
            The instance produced by :meth:`to_maxmin_lp`.
        x:
            A solution keyed by the link agents.
        reporting_period:
            Time horizon corresponding to one unit of the LP's budget; the
            implied network lifetime is ``reporting_period / max usage``.
        """
        arr = problem.to_array(x)
        usage = problem.resource_usage(arr)
        benefits = problem.benefits(arr)
        area_rates = {
            k[1]: float(benefits[problem.beneficiary_position(k)])
            for k in problem.beneficiaries
        }
        device_usage = {
            (i[0], i[1]): float(usage[problem.resource_position(i)])
            for i in problem.resources
        }
        link_flows = {
            (v[1], v[2]): float(arr[problem.agent_position(v)]) for v in problem.agents
        }
        max_usage = max(device_usage.values(), default=0.0)
        lifetime = float("inf") if max_usage == 0 else reporting_period / max_usage
        return SensorNetworkReport(
            min_area_rate=float(benefits.min()) if benefits.size else float("inf"),
            area_rates=area_rates,
            device_usage=device_usage,
            link_flows=link_flows,
            lifetime=lifetime,
        )


@dataclass(frozen=True)
class SensorNetworkReport:
    """A max-min LP solution expressed in sensor-network terms.

    Attributes
    ----------
    min_area_rate:
        The minimum data rate over all monitored areas (the objective ω).
    area_rates:
        Data rate per area.
    device_usage:
        Fraction of the energy budget used per device, keyed by
        ``("sensor"|"relay", name)``.
    link_flows:
        Data volume per wireless link ``(sensor, relay)``.
    lifetime:
        Implied network lifetime (time until the first battery dies) under
        the given reporting period.
    """

    min_area_rate: float
    area_rates: Dict[str, float]
    device_usage: Dict[Tuple[str, str], float]
    link_flows: Dict[Tuple[str, str], float]
    lifetime: float


def _distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def random_sensor_network(
    n_sensors: int,
    n_relays: int,
    n_areas: int,
    *,
    radio_range: float = 0.35,
    sensing_range: float = 0.3,
    energy_spread: float = 0.0,
    seed: Optional[int] = None,
    max_attempts: int = 200,
) -> SensorNetwork:
    """Generate a random, valid two-tier deployment in the unit square.

    Positions are uniform in the unit square; the generator retries (up to
    ``max_attempts`` times) until every area is covered by a sensor that can
    reach a relay.  ``energy_spread > 0`` draws device energies uniformly
    from ``[1 - spread, 1 + spread]`` instead of exactly 1.

    Raises
    ------
    ConstructionError
        If no valid deployment is found within the attempt budget (increase
        the ranges or densities).
    """
    if n_sensors < 1 or n_relays < 1 or n_areas < 1:
        raise ValueError("need at least one sensor, relay and area")
    if not (0.0 <= energy_spread < 1.0):
        raise ValueError("energy_spread must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        def energy() -> float:
            if energy_spread == 0.0:
                return 1.0
            return float(rng.uniform(1.0 - energy_spread, 1.0 + energy_spread))

        sensors = [
            Sensor(
                name=f"s{j}",
                position=(float(rng.uniform()), float(rng.uniform())),
                energy=energy(),
            )
            for j in range(n_sensors)
        ]
        relays = [
            Relay(
                name=f"t{j}",
                position=(float(rng.uniform()), float(rng.uniform())),
                energy=energy(),
            )
            for j in range(n_relays)
        ]
        areas = [
            Area(name=f"a{j}", position=(float(rng.uniform()), float(rng.uniform())))
            for j in range(n_areas)
        ]
        network = SensorNetwork(
            sensors=sensors,
            relays=relays,
            areas=areas,
            radio_range=radio_range,
            sensing_range=sensing_range,
        )
        try:
            network.validate()
        except ConstructionError:
            continue
        return network
    raise ConstructionError(
        "could not generate a valid sensor network; increase the ranges, the "
        "densities or the attempt budget"
    )
