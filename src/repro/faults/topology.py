"""Hierarchical failure domains: region / AZ / rack over fleet zones.

Real incidents are correlated: a rack power feed browns out every
machine in the rack, an availability-zone cooling event forces a
DVFS cap across the whole AZ, a top-of-rack switch renegotiates every
link below it. This module overlays a seeded region → AZ → rack
topology on the existing fleet *zone* structure and expands
domain-level events into the per-machine :class:`FaultSpec` stream the
rest of the system already understands — the injector, the fleet
kernel, and the zone cache all run unchanged.

The load-bearing alignment decision: **racks are made of whole
zones**. A zone (``zone_size`` consecutive fleet instances) is the
repo's shard-count-invariant unit of caching and governor coupling, so
by building every failure domain out of whole zones, a domain event's
blast radius is always a set of zones. Storm faults ride inside
:class:`~repro.experiments.fleet.FleetInstanceSpec.faults`, which
:func:`~repro.experiments.fleet.zone_cache_key` already hashes —
therefore a storm invalidates *exactly* the cache entries of the zones
it touches, with no new cache machinery. The blast-radius tests in
``tests/test_topology.py`` and ``tests/test_fleet_cache.py`` pin this
contract.

Determinism contract (same as :meth:`FaultSchedule.generate`): every
random choice in :meth:`FleetTopology.generate` and
:meth:`CorrelatedFaultSchedule.generate` derives from a SHA-256 of the
seed, so the same ``(seed, arguments)`` produce byte-identical
topologies, event schedules, and per-instance expansions on any
platform, process start method, or ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import FaultError
from repro.faults.spec import (
    ALL_TARGETS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    _derived_rng,
    _require_finite,
)


class DomainKind(enum.Enum):
    """The correlated, domain-level incidents a storm can contain.

    Each expands into one machine-level :class:`FaultKind` applied to
    every instance in the domain's blast radius (see
    :data:`DOMAIN_FAULT_KINDS`).
    """

    RACK_POWER = "rack_power"    # feed brownout: cores drop rack-wide
    AZ_COOLING = "az_cooling"    # thermal event: DVFS cap AZ-wide
    TOR_DEGRADE = "tor_degrade"  # top-of-rack switch: NIC rates collapse


#: Domain incident → the machine-level fault it expands into.
DOMAIN_FAULT_KINDS: Dict[DomainKind, FaultKind] = {
    DomainKind.RACK_POWER: FaultKind.CORE_OFFLINE,
    DomainKind.AZ_COOLING: FaultKind.DVFS_CAP,
    DomainKind.TOR_DEGRADE: FaultKind.NIC_DEGRADE,
}

#: Domain incident → the topology level whose id it names.
DOMAIN_LEVELS: Dict[DomainKind, str] = {
    DomainKind.RACK_POWER: "rack",
    DomainKind.AZ_COOLING: "az",
    DomainKind.TOR_DEGRADE: "rack",
}

#: Default kind mix for generated storms (uniform over all kinds).
DEFAULT_DOMAIN_KINDS: Tuple[DomainKind, ...] = tuple(DomainKind)


def _check_contiguous(name: str, parents: Sequence[int]) -> int:
    """Validate a child→parent map is contiguous blocks 0,1,2,…

    Returns the parent count. Contiguity (non-decreasing ids, starting
    at 0, stepping by at most 1) is what keeps every failure domain a
    run of consecutive zones — the same shape shards and the governor
    already use.
    """
    if not parents:
        raise FaultError(f"topology {name} map must not be empty")
    if parents[0] != 0:
        raise FaultError(f"topology {name} ids must start at 0, got {parents[0]}")
    for k in range(1, len(parents)):
        step = parents[k] - parents[k - 1]
        if step not in (0, 1):
            raise FaultError(
                f"topology {name} ids must be contiguous non-decreasing "
                f"blocks; {name}[{k}] jumps {parents[k - 1]} -> {parents[k]}"
            )
    return parents[-1] + 1


@dataclass(frozen=True)
class FleetTopology:
    """A region → AZ → rack hierarchy over a fleet's zones.

    Zones are the fleet's native blocks of ``zone_size`` consecutive
    instances (instance ``i`` is in zone ``i // zone_size``); a rack is
    one or more consecutive zones, an AZ one or more consecutive racks,
    a region one or more consecutive AZs. All maps are plain tuples, so
    a topology is hashable by :func:`~repro.cache.keys.stable_hash` and
    ships to pool workers in one blob.
    """

    #: Fleet width in instances (must match the fleet being stormed).
    n_instances: int
    #: Zone width in instances (must match ``FleetConfig.zone_size``).
    zone_size: int
    #: Zone id → rack id (contiguous blocks starting at 0).
    rack_of_zone: Tuple[int, ...]
    #: Rack id → AZ id (contiguous blocks starting at 0).
    az_of_rack: Tuple[int, ...]
    #: AZ id → region id (contiguous blocks starting at 0).
    region_of_az: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise FaultError(f"n_instances must be >= 1, got {self.n_instances}")
        if self.zone_size < 1:
            raise FaultError(f"zone_size must be >= 1, got {self.zone_size}")
        n_zones = math.ceil(self.n_instances / self.zone_size)
        if len(self.rack_of_zone) != n_zones:
            raise FaultError(
                f"rack_of_zone covers {len(self.rack_of_zone)} zones but "
                f"{self.n_instances} instances at zone_size {self.zone_size} "
                f"form {n_zones}"
            )
        n_racks = _check_contiguous("rack_of_zone", self.rack_of_zone)
        if len(self.az_of_rack) != n_racks:
            raise FaultError(
                f"az_of_rack covers {len(self.az_of_rack)} racks but "
                f"rack_of_zone names {n_racks}"
            )
        n_azs = _check_contiguous("az_of_rack", self.az_of_rack)
        if len(self.region_of_az) != n_azs:
            raise FaultError(
                f"region_of_az covers {len(self.region_of_az)} AZs but "
                f"az_of_rack names {n_azs}"
            )
        _check_contiguous("region_of_az", self.region_of_az)

    # -- shape -------------------------------------------------------------

    @property
    def n_zones(self) -> int:
        return len(self.rack_of_zone)

    @property
    def n_racks(self) -> int:
        return len(self.az_of_rack)

    @property
    def n_azs(self) -> int:
        return len(self.region_of_az)

    @property
    def n_regions(self) -> int:
        return self.region_of_az[-1] + 1

    # -- queries -----------------------------------------------------------

    def zone_of_instance(self, index: int) -> int:
        """The fleet zone instance ``index`` belongs to."""
        if not (0 <= index < self.n_instances):
            raise FaultError(
                f"instance {index} outside fleet of {self.n_instances}"
            )
        return index // self.zone_size

    def instances_of_zone(self, zone: int) -> Tuple[int, ...]:
        """The instance indices zone ``zone`` contains."""
        if not (0 <= zone < self.n_zones):
            raise FaultError(f"zone {zone} outside topology of {self.n_zones}")
        start = zone * self.zone_size
        return tuple(range(start, min(self.n_instances, start + self.zone_size)))

    def zones_of_rack(self, rack: int) -> Tuple[int, ...]:
        """The zone ids rack ``rack`` contains."""
        if not (0 <= rack < self.n_racks):
            raise FaultError(f"rack {rack} outside topology of {self.n_racks}")
        return tuple(
            z for z, r in enumerate(self.rack_of_zone) if r == rack
        )

    def zones_of_az(self, az: int) -> Tuple[int, ...]:
        """The zone ids AZ ``az`` contains."""
        if not (0 <= az < self.n_azs):
            raise FaultError(f"AZ {az} outside topology of {self.n_azs}")
        return tuple(
            z
            for z, r in enumerate(self.rack_of_zone)
            if self.az_of_rack[r] == az
        )

    def zones_of_region(self, region: int) -> Tuple[int, ...]:
        """The zone ids region ``region`` contains."""
        if not (0 <= region < self.n_regions):
            raise FaultError(
                f"region {region} outside topology of {self.n_regions}"
            )
        return tuple(
            z
            for z, r in enumerate(self.rack_of_zone)
            if self.region_of_az[self.az_of_rack[r]] == region
        )

    def zones_of_domain(self, level: str, domain: int) -> Tuple[int, ...]:
        """The zone ids of one named failure domain."""
        if level == "rack":
            return self.zones_of_rack(domain)
        if level == "az":
            return self.zones_of_az(domain)
        if level == "region":
            return self.zones_of_region(domain)
        raise FaultError(f"unknown domain level {level!r}")

    def describe(self) -> str:
        """One-line shape summary for reports and CLI headers."""
        return (
            f"{self.n_regions} region(s) / {self.n_azs} AZ(s) / "
            f"{self.n_racks} rack(s) / {self.n_zones} zone(s) / "
            f"{self.n_instances} instance(s)"
        )

    # -- seeded construction ----------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        n_instances: int,
        zone_size: int = 4,
        min_zones_per_rack: int = 1,
        max_zones_per_rack: int = 3,
        min_racks_per_az: int = 2,
        max_racks_per_az: int = 4,
        azs_per_region: int = 2,
    ) -> "FleetTopology":
        """A seeded topology: same arguments, same hierarchy, bit for bit.

        Rack and AZ widths are drawn uniformly from their ranges with a
        dedicated seed-derived RNG (salt ``"fleet-topology"``), so two
        seeds give different rack boundaries over the same fleet while
        one seed is perfectly reproducible across processes.
        """
        if n_instances < 1:
            raise FaultError(f"n_instances must be >= 1, got {n_instances}")
        if zone_size < 1:
            raise FaultError(f"zone_size must be >= 1, got {zone_size}")
        if not (1 <= min_zones_per_rack <= max_zones_per_rack):
            raise FaultError(
                f"zones-per-rack range [{min_zones_per_rack}, "
                f"{max_zones_per_rack}] invalid"
            )
        if not (1 <= min_racks_per_az <= max_racks_per_az):
            raise FaultError(
                f"racks-per-AZ range [{min_racks_per_az}, "
                f"{max_racks_per_az}] invalid"
            )
        if azs_per_region < 1:
            raise FaultError(
                f"azs_per_region must be >= 1, got {azs_per_region}"
            )
        rng = _derived_rng(seed, "fleet-topology")
        n_zones = math.ceil(n_instances / zone_size)
        rack_of_zone: List[int] = []
        rack = 0
        while len(rack_of_zone) < n_zones:
            width = int(rng.integers(min_zones_per_rack, max_zones_per_rack + 1))
            rack_of_zone.extend([rack] * min(width, n_zones - len(rack_of_zone)))
            rack += 1
        az_of_rack: List[int] = []
        az = 0
        while len(az_of_rack) < rack:
            width = int(rng.integers(min_racks_per_az, max_racks_per_az + 1))
            az_of_rack.extend([az] * min(width, rack - len(az_of_rack)))
            az += 1
        region_of_az = [k // azs_per_region for k in range(az)]
        return cls(
            n_instances=n_instances,
            zone_size=zone_size,
            rack_of_zone=tuple(rack_of_zone),
            az_of_rack=tuple(az_of_rack),
            region_of_az=tuple(region_of_az),
        )


@dataclass(frozen=True)
class DomainEvent:
    """One correlated incident: kind, failure domain, window, severity.

    ``domain`` names a rack id for :attr:`DomainKind.RACK_POWER` and
    :attr:`DomainKind.TOR_DEGRADE`, an AZ id for
    :attr:`DomainKind.AZ_COOLING` (see :data:`DOMAIN_LEVELS`).
    """

    kind: DomainKind
    domain: int
    at_s: float = 0.0
    duration_s: float = 60.0
    magnitude: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.kind, DomainKind):
            raise FaultError(f"kind must be a DomainKind, got {self.kind!r}")
        if self.domain < 0:
            raise FaultError(f"domain id must be >= 0, got {self.domain}")
        _require_finite("event", self.at_s, self.duration_s, self.magnitude)
        if self.at_s < 0:
            raise FaultError(f"event start must be >= 0, got {self.at_s}")
        if self.duration_s <= 0:
            raise FaultError(
                f"event duration must be > 0, got {self.duration_s}"
            )
        if not (0.0 < self.magnitude <= 1.0):
            raise FaultError(
                f"event magnitude must be in (0, 1], got {self.magnitude}"
            )

    @property
    def level(self) -> str:
        """The topology level this event's domain id names."""
        return DOMAIN_LEVELS[self.kind]

    @property
    def fault_kind(self) -> FaultKind:
        """The machine-level fault this event expands into."""
        return DOMAIN_FAULT_KINDS[self.kind]

    @property
    def end_s(self) -> float:
        return self.at_s + self.duration_s


@dataclass(frozen=True)
class CorrelatedFaultSchedule:
    """A seeded storm of domain-level events over one topology.

    The expansion (:meth:`per_instance_schedules`) is a *pure function*
    of ``(topology, events)`` — no RNG is consulted after generation —
    so the property tests can assert byte-identical expansions across
    fork- and spawn-started processes and any shard count.
    """

    topology: FleetTopology
    seed: int = 0
    events: Tuple[DomainEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.events,
                key=lambda e: (e.at_s, e.kind.value, e.domain, e.magnitude),
            )
        )
        object.__setattr__(self, "events", ordered)
        counts = {
            "rack": self.topology.n_racks,
            "az": self.topology.n_azs,
            "region": self.topology.n_regions,
        }
        for event in ordered:
            if event.domain >= counts[event.level]:
                raise FaultError(
                    f"{event.kind.value} event names {event.level} "
                    f"{event.domain}, but the topology has only "
                    f"{counts[event.level]}"
                )

    @classmethod
    def generate(
        cls,
        seed: int,
        topology: FleetTopology,
        duration_s: float,
        events_per_minute: float = 0.5,
        kinds: Optional[Sequence[DomainKind]] = None,
        min_duration_s: float = 20.0,
        max_duration_s: float = 120.0,
        min_magnitude: float = 0.3,
        max_magnitude: float = 0.8,
    ) -> "CorrelatedFaultSchedule":
        """A seeded domain-event storm: same seed, same schedule.

        Mirrors :meth:`FaultSchedule.generate`: draws
        ``round(events_per_minute * duration_s / 60)`` events with
        kind, domain, start, duration and magnitude all taken from one
        seed-derived RNG (salt ``"correlated-fault-schedule"``), clips
        windows to end by ``duration_s``, and freezes them time-sorted.
        """
        if duration_s <= 0:
            raise FaultError(f"storm duration must be > 0, got {duration_s}")
        if events_per_minute < 0:
            raise FaultError(
                f"events_per_minute must be >= 0, got {events_per_minute}"
            )
        if not (0.0 < min_magnitude <= max_magnitude <= 1.0):
            raise FaultError(
                f"magnitude range ({min_magnitude}, {max_magnitude}] invalid"
            )
        if not (0.0 < min_duration_s <= max_duration_s):
            raise FaultError(
                f"duration range [{min_duration_s}, {max_duration_s}] invalid"
            )
        kind_pool = DEFAULT_DOMAIN_KINDS if kinds is None else tuple(kinds)
        if not kind_pool:
            raise FaultError("need at least one domain event kind")
        domain_counts = {
            "rack": topology.n_racks,
            "az": topology.n_azs,
            "region": topology.n_regions,
        }
        count = int(round(events_per_minute * duration_s / 60.0))
        rng = _derived_rng(seed, "correlated-fault-schedule")
        events = []
        for _ in range(count):
            kind = kind_pool[int(rng.integers(len(kind_pool)))]
            domain = int(rng.integers(domain_counts[DOMAIN_LEVELS[kind]]))
            at_s = float(rng.uniform(0.0, duration_s))
            window = float(rng.uniform(min_duration_s, max_duration_s))
            duration = max(min_duration_s, min(window, duration_s - at_s))
            magnitude = float(rng.uniform(min_magnitude, max_magnitude))
            events.append(
                DomainEvent(
                    kind=kind,
                    domain=domain,
                    at_s=at_s,
                    duration_s=duration,
                    magnitude=magnitude,
                )
            )
        return cls(topology=topology, seed=seed, events=tuple(events))

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[DomainEvent]:
        return iter(self.events)

    def blast_zones(self, event: DomainEvent) -> Tuple[int, ...]:
        """The zone ids one event's expansion touches."""
        return self.topology.zones_of_domain(event.level, event.domain)

    def affected_zones(self) -> Tuple[int, ...]:
        """The union of every event's blast radius, sorted."""
        zones = set()
        for event in self.events:
            zones.update(self.blast_zones(event))
        return tuple(sorted(zones))

    def affected_instances(self) -> Tuple[int, ...]:
        """The instance indices the storm's expansion reaches, sorted."""
        indices = set()
        for zone in self.affected_zones():
            indices.update(self.topology.instances_of_zone(zone))
        return tuple(sorted(indices))

    def counts_by_kind(self) -> Dict[str, int]:
        """How many events of each domain kind the storm holds."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
        return counts

    # -- expansion ---------------------------------------------------------

    def per_instance_schedules(self) -> Dict[int, FaultSchedule]:
        """Expand domain events into per-instance machine fault streams.

        Pure function of ``(topology, events)``: each event contributes
        one :class:`FaultSpec` (kind per :data:`DOMAIN_FAULT_KINDS`,
        ``target='*'`` — every machine of the instance's cluster, the
        correlated-failure wildcard the injector already honors) to
        every instance in its blast radius. Instances outside every
        blast radius are absent from the mapping, so a storm leaves
        untouched zones' specs — and therefore their cache keys —
        byte-identical.
        """
        per_instance: Dict[int, List[FaultSpec]] = {}
        for event in self.events:
            spec = FaultSpec(
                kind=event.fault_kind,
                target=ALL_TARGETS,
                at_s=event.at_s,
                duration_s=event.duration_s,
                magnitude=event.magnitude,
            )
            for zone in self.blast_zones(event):
                for index in self.topology.instances_of_zone(zone):
                    per_instance.setdefault(index, []).append(spec)
        return {
            index: FaultSchedule(seed=self.seed, faults=tuple(specs))
            for index, specs in sorted(per_instance.items())
        }


def merge_schedules(
    base: Optional[FaultSchedule], extra: FaultSchedule
) -> FaultSchedule:
    """Overlay ``extra``'s faults on an instance's existing schedule.

    Keeps ``extra``'s seed (the storm seed) as the merged schedule's
    provenance marker; :class:`FaultSchedule` re-sorts the union by
    time, so merging is order-insensitive in effect.
    """
    if base is None or not base.faults:
        return extra
    return FaultSchedule(
        seed=extra.seed, faults=tuple(base.faults) + tuple(extra.faults)
    )
