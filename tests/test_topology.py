"""Tests for hierarchical failure domains and correlated fault storms.

The contracts under test:

- :class:`FleetTopology` validates its maps (contiguous non-decreasing
  blocks starting at 0) and answers zone/domain queries consistently;
- :meth:`FleetTopology.generate` is a pure function of its arguments —
  same seed, byte-identical hierarchy; different seed, different racks;
- :class:`DomainEvent` validates like :class:`FaultSpec`;
- :meth:`CorrelatedFaultSchedule.generate` is seed-deterministic, sorts
  events by time, and rejects events naming out-of-range domains;
- :meth:`CorrelatedFaultSchedule.per_instance_schedules` is a pure
  expansion: every instance inside a blast radius gets exactly its
  events' machine faults, every instance outside is absent;
- :func:`merge_schedules` overlays storm faults on existing schedules.
"""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.faults import (
    ALL_TARGETS,
    DEFAULT_DOMAIN_KINDS,
    DOMAIN_FAULT_KINDS,
    DOMAIN_LEVELS,
    CorrelatedFaultSchedule,
    DomainEvent,
    DomainKind,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    FleetTopology,
)


def flat_topology(
    n_instances: int = 16, zone_size: int = 2
) -> FleetTopology:
    """2 zones per rack, 2 racks per AZ, 2 AZs per region."""
    n_zones = (n_instances + zone_size - 1) // zone_size
    rack_of_zone = tuple(z // 2 for z in range(n_zones))
    n_racks = rack_of_zone[-1] + 1
    az_of_rack = tuple(r // 2 for r in range(n_racks))
    n_azs = az_of_rack[-1] + 1
    region_of_az = tuple(a // 2 for a in range(n_azs))
    return FleetTopology(
        n_instances=n_instances,
        zone_size=zone_size,
        rack_of_zone=rack_of_zone,
        az_of_rack=az_of_rack,
        region_of_az=region_of_az,
    )


class TestFleetTopologyValidation:
    def test_flat_topology_shape(self):
        topo = flat_topology(16, 2)
        assert (topo.n_zones, topo.n_racks, topo.n_azs, topo.n_regions) == (
            8, 4, 2, 1,
        )

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(FaultError, match="n_instances"):
            FleetTopology(0, 2, (0,), (0,), (0,))
        with pytest.raises(FaultError, match="zone_size"):
            FleetTopology(4, 0, (0,), (0,), (0,))

    def test_rejects_wrong_zone_count(self):
        with pytest.raises(FaultError, match="form 2"):
            FleetTopology(4, 2, (0,), (0,), (0,))

    def test_rejects_noncontiguous_rack_ids(self):
        with pytest.raises(FaultError, match="contiguous"):
            FleetTopology(4, 2, (0, 2), (0, 0, 0), (0,))

    def test_rejects_decreasing_rack_ids(self):
        with pytest.raises(FaultError, match="contiguous"):
            FleetTopology(6, 2, (0, 1, 0), (0, 0), (0,))

    def test_rejects_rack_ids_not_starting_at_zero(self):
        with pytest.raises(FaultError, match="start at 0"):
            FleetTopology(4, 2, (1, 1), (0,), (0,))

    def test_rejects_mismatched_az_map(self):
        with pytest.raises(FaultError, match="az_of_rack"):
            FleetTopology(4, 2, (0, 1), (0,), (0,))

    def test_rejects_mismatched_region_map(self):
        with pytest.raises(FaultError, match="region_of_az"):
            FleetTopology(4, 2, (0, 1), (0, 1), (0,))

    def test_ragged_last_zone(self):
        # 5 instances at zone_size 2 -> 3 zones, last zone short.
        topo = FleetTopology(5, 2, (0, 0, 1), (0, 0), (0,))
        assert topo.instances_of_zone(2) == (4,)


class TestFleetTopologyQueries:
    def test_zone_of_instance_round_trips(self):
        topo = flat_topology(16, 2)
        for zone in range(topo.n_zones):
            for index in topo.instances_of_zone(zone):
                assert topo.zone_of_instance(index) == zone

    def test_zone_queries_reject_out_of_range(self):
        topo = flat_topology(16, 2)
        with pytest.raises(FaultError, match="instance"):
            topo.zone_of_instance(16)
        with pytest.raises(FaultError, match="zone"):
            topo.instances_of_zone(8)
        with pytest.raises(FaultError, match="rack"):
            topo.zones_of_rack(4)
        with pytest.raises(FaultError, match="AZ"):
            topo.zones_of_az(2)
        with pytest.raises(FaultError, match="region"):
            topo.zones_of_region(1)

    def test_domains_are_consecutive_zone_runs(self):
        topo = flat_topology(16, 2)
        for level, count in (
            ("rack", topo.n_racks),
            ("az", topo.n_azs),
            ("region", topo.n_regions),
        ):
            for domain in range(count):
                zones = topo.zones_of_domain(level, domain)
                assert zones == tuple(range(zones[0], zones[-1] + 1))

    def test_levels_nest(self):
        topo = flat_topology(16, 2)
        az_zones = set()
        for rack, az in enumerate(topo.az_of_rack):
            if az == 0:
                az_zones.update(topo.zones_of_rack(rack))
        assert tuple(sorted(az_zones)) == topo.zones_of_az(0)
        region_zones = set()
        for az in range(topo.n_azs):
            region_zones.update(topo.zones_of_az(az))
        assert tuple(sorted(region_zones)) == topo.zones_of_region(0)

    def test_unknown_domain_level_raises(self):
        with pytest.raises(FaultError, match="level"):
            flat_topology().zones_of_domain("pod", 0)

    def test_describe_mentions_every_level(self):
        text = flat_topology(16, 2).describe()
        for token in ("region", "AZ", "rack", "zone", "instance"):
            assert token in text


class TestFleetTopologyGenerate:
    def test_same_seed_identical(self):
        a = FleetTopology.generate(3, n_instances=64, zone_size=4)
        b = FleetTopology.generate(3, n_instances=64, zone_size=4)
        assert a == b

    def test_different_seeds_differ(self):
        topos = {
            FleetTopology.generate(seed, n_instances=256, zone_size=4)
            for seed in range(8)
        }
        assert len(topos) > 1

    def test_generated_topology_validates(self):
        for seed in range(10):
            topo = FleetTopology.generate(seed, n_instances=100, zone_size=4)
            assert topo.n_zones == 25
            assert topo.n_racks >= 1
            # Every zone accounted for exactly once across racks.
            assert sorted(
                z for r in range(topo.n_racks) for z in topo.zones_of_rack(r)
            ) == list(range(topo.n_zones))

    def test_width_bounds_respected(self):
        topo = FleetTopology.generate(
            5,
            n_instances=400,
            zone_size=4,
            min_zones_per_rack=2,
            max_zones_per_rack=2,
            min_racks_per_az=3,
            max_racks_per_az=3,
        )
        # Fixed widths: every rack exactly 2 zones, every full AZ 3 racks.
        for rack in range(topo.n_racks - 1):
            assert len(topo.zones_of_rack(rack)) == 2
        for az in range(topo.n_azs - 1):
            assert sum(1 for r in topo.az_of_rack if r == az) == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(FaultError, match="n_instances"):
            FleetTopology.generate(0, n_instances=0)
        with pytest.raises(FaultError, match="zones-per-rack"):
            FleetTopology.generate(0, n_instances=8, min_zones_per_rack=3,
                                   max_zones_per_rack=2)
        with pytest.raises(FaultError, match="racks-per-AZ"):
            FleetTopology.generate(0, n_instances=8, min_racks_per_az=0)
        with pytest.raises(FaultError, match="azs_per_region"):
            FleetTopology.generate(0, n_instances=8, azs_per_region=0)

    def test_single_instance_fleet(self):
        topo = FleetTopology.generate(0, n_instances=1, zone_size=4)
        assert (topo.n_zones, topo.n_racks) == (1, 1)
        assert topo.zone_of_instance(0) == 0


class TestDomainEvent:
    def test_kind_maps_pin_fault_expansion(self):
        assert DOMAIN_FAULT_KINDS[DomainKind.RACK_POWER] is FaultKind.CORE_OFFLINE
        assert DOMAIN_FAULT_KINDS[DomainKind.AZ_COOLING] is FaultKind.DVFS_CAP
        assert DOMAIN_FAULT_KINDS[DomainKind.TOR_DEGRADE] is FaultKind.NIC_DEGRADE
        assert DOMAIN_LEVELS[DomainKind.AZ_COOLING] == "az"
        assert DOMAIN_LEVELS[DomainKind.RACK_POWER] == "rack"
        assert set(DEFAULT_DOMAIN_KINDS) == set(DomainKind)

    def test_properties_follow_kind(self):
        event = DomainEvent(DomainKind.AZ_COOLING, 1, at_s=10.0,
                            duration_s=30.0, magnitude=0.5)
        assert event.level == "az"
        assert event.fault_kind is FaultKind.DVFS_CAP
        assert event.end_s == 40.0

    def test_validation_mirrors_fault_spec(self):
        with pytest.raises(FaultError, match="DomainKind"):
            DomainEvent("rack_power", 0)
        with pytest.raises(FaultError, match="domain"):
            DomainEvent(DomainKind.RACK_POWER, -1)
        with pytest.raises(FaultError, match="start"):
            DomainEvent(DomainKind.RACK_POWER, 0, at_s=-1.0)
        with pytest.raises(FaultError, match="duration"):
            DomainEvent(DomainKind.RACK_POWER, 0, duration_s=0.0)
        with pytest.raises(FaultError, match="magnitude"):
            DomainEvent(DomainKind.RACK_POWER, 0, magnitude=0.0)
        with pytest.raises(FaultError, match="magnitude"):
            DomainEvent(DomainKind.RACK_POWER, 0, magnitude=1.5)

    @pytest.mark.parametrize("field", ["at_s", "duration_s", "magnitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_windows(self, field, value):
        with pytest.raises(FaultError, match=f"{field} must be finite"):
            DomainEvent(DomainKind.RACK_POWER, 0, **{field: value})


class TestCorrelatedFaultSchedule:
    def test_same_seed_identical_schedule(self):
        topo = FleetTopology.generate(1, n_instances=64, zone_size=4)
        a = CorrelatedFaultSchedule.generate(9, topo, 300.0,
                                             events_per_minute=1.0)
        b = CorrelatedFaultSchedule.generate(9, topo, 300.0,
                                             events_per_minute=1.0)
        assert a == b
        assert len(a) == 5

    def test_different_seeds_differ(self):
        topo = FleetTopology.generate(1, n_instances=64, zone_size=4)
        schedules = {
            CorrelatedFaultSchedule.generate(seed, topo, 300.0,
                                             events_per_minute=1.0).events
            for seed in range(6)
        }
        assert len(schedules) == 6

    def test_events_time_sorted_and_clipped(self):
        topo = FleetTopology.generate(1, n_instances=64, zone_size=4)
        storm = CorrelatedFaultSchedule.generate(2, topo, 120.0,
                                                 events_per_minute=4.0)
        starts = [e.at_s for e in storm]
        assert starts == sorted(starts)
        for event in storm:
            assert 0.0 <= event.at_s <= 120.0
            assert event.duration_s >= 20.0

    def test_kind_restriction(self):
        topo = FleetTopology.generate(1, n_instances=64, zone_size=4)
        storm = CorrelatedFaultSchedule.generate(
            3, topo, 600.0, events_per_minute=1.0,
            kinds=[DomainKind.AZ_COOLING],
        )
        assert len(storm) == 10
        assert storm.counts_by_kind() == {"az_cooling": 10}

    def test_rejects_out_of_range_domain(self):
        topo = flat_topology(16, 2)  # 4 racks
        with pytest.raises(FaultError, match="only 4"):
            CorrelatedFaultSchedule(
                topology=topo,
                events=(DomainEvent(DomainKind.RACK_POWER, 4),),
            )

    def test_rejects_bad_generate_arguments(self):
        topo = flat_topology()
        with pytest.raises(FaultError, match="duration"):
            CorrelatedFaultSchedule.generate(0, topo, 0.0)
        with pytest.raises(FaultError, match="events_per_minute"):
            CorrelatedFaultSchedule.generate(0, topo, 60.0,
                                             events_per_minute=-1.0)
        with pytest.raises(FaultError, match="magnitude"):
            CorrelatedFaultSchedule.generate(0, topo, 60.0, min_magnitude=0.9,
                                             max_magnitude=0.5)
        with pytest.raises(FaultError, match="duration range"):
            CorrelatedFaultSchedule.generate(0, topo, 60.0, min_duration_s=0.0)
        with pytest.raises(FaultError, match="kind"):
            CorrelatedFaultSchedule.generate(0, topo, 60.0, kinds=[])

    def test_zero_rate_storm_is_empty(self):
        topo = flat_topology()
        storm = CorrelatedFaultSchedule.generate(0, topo, 300.0,
                                                 events_per_minute=0.0)
        assert len(storm) == 0
        assert storm.affected_zones() == ()
        assert storm.per_instance_schedules() == {}


class TestBlastRadius:
    def test_blast_zones_follow_domain_level(self):
        topo = flat_topology(16, 2)
        storm = CorrelatedFaultSchedule(topology=topo)
        rack_event = DomainEvent(DomainKind.RACK_POWER, 1)
        az_event = DomainEvent(DomainKind.AZ_COOLING, 0)
        assert storm.blast_zones(rack_event) == topo.zones_of_rack(1)
        assert storm.blast_zones(az_event) == topo.zones_of_az(0)

    def test_affected_zones_is_union(self):
        topo = flat_topology(16, 2)
        storm = CorrelatedFaultSchedule(
            topology=topo,
            events=(
                DomainEvent(DomainKind.RACK_POWER, 0),   # zones 0, 1
                DomainEvent(DomainKind.TOR_DEGRADE, 1),  # zones 2, 3
            ),
        )
        assert storm.affected_zones() == (0, 1, 2, 3)
        assert storm.affected_instances() == tuple(range(8))


class TestExpansion:
    def test_expansion_covers_exactly_the_blast_radius(self):
        topo = flat_topology(16, 2)
        storm = CorrelatedFaultSchedule(
            topology=topo,
            seed=5,
            events=(
                DomainEvent(DomainKind.RACK_POWER, 0, at_s=5.0,
                            duration_s=30.0, magnitude=0.6),
            ),
        )
        expansion = storm.per_instance_schedules()
        assert sorted(expansion) == [0, 1, 2, 3]  # rack 0 = zones 0+1
        for schedule in expansion.values():
            assert schedule.seed == 5
            (spec,) = schedule.faults
            assert spec == FaultSpec(
                kind=FaultKind.CORE_OFFLINE, target=ALL_TARGETS,
                at_s=5.0, duration_s=30.0, magnitude=0.6,
            )

    def test_overlapping_events_stack(self):
        topo = flat_topology(16, 2)
        storm = CorrelatedFaultSchedule(
            topology=topo,
            events=(
                DomainEvent(DomainKind.RACK_POWER, 0, at_s=0.0),
                DomainEvent(DomainKind.AZ_COOLING, 0, at_s=10.0),
            ),
        )
        expansion = storm.per_instance_schedules()
        # AZ 0 = racks 0+1 = zones 0..3 = instances 0..7; rack 0 adds a
        # second fault on instances 0..3.
        assert sorted(expansion) == list(range(8))
        assert len(expansion[0].faults) == 2
        assert len(expansion[7].faults) == 1

    def test_expansion_is_repeatable(self):
        topo = FleetTopology.generate(4, n_instances=64, zone_size=4)
        storm = CorrelatedFaultSchedule.generate(4, topo, 300.0,
                                                 events_per_minute=2.0)
        assert storm.per_instance_schedules() == storm.per_instance_schedules()


class TestMergeSchedules:
    def test_merge_onto_none_returns_extra(self):
        extra = FaultSchedule(seed=7, faults=(
            FaultSpec(kind=FaultKind.CORE_OFFLINE, at_s=1.0),
        ))
        assert merge_result(None, extra) is extra

    def test_merge_onto_empty_returns_extra(self):
        extra = FaultSchedule(seed=7, faults=(
            FaultSpec(kind=FaultKind.CORE_OFFLINE, at_s=1.0),
        ))
        assert merge_result(FaultSchedule(seed=1), extra) is extra

    def test_merge_unions_and_resorts(self):
        base = FaultSchedule(seed=1, faults=(
            FaultSpec(kind=FaultKind.DVFS_CAP, at_s=50.0),
        ))
        extra = FaultSchedule(seed=7, faults=(
            FaultSpec(kind=FaultKind.CORE_OFFLINE, at_s=1.0),
        ))
        merged = merge_result(base, extra)
        assert merged.seed == 7
        assert [f.at_s for f in merged.faults] == [1.0, 50.0]


def merge_result(base, extra):
    from repro.faults import merge_schedules

    return merge_schedules(base, extra)
