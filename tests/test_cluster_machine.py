"""Tests for the machine model and cluster."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.machine import BE_DOMAIN, Machine, MachineSpec
from repro.errors import AllocationError, ConfigurationError


@pytest.fixture
def machine() -> Machine:
    m = Machine(MachineSpec(name="m0"))
    m.reserve_lc(cores=12, llc_ways=10, memory_gb=64.0)
    return m


class TestLcReservation:
    def test_reservation_recorded(self, machine):
        assert machine.lc_cores == 12
        assert machine.lc_llc_ways == 10
        assert machine.lc_memory_gb == 64.0

    def test_double_reservation_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            machine.reserve_lc(cores=1, llc_ways=1, memory_gb=1.0)

    def test_oversized_memory_rejected(self):
        m = Machine()
        with pytest.raises(AllocationError):
            m.reserve_lc(cores=1, llc_ways=1, memory_gb=10_000.0)


class TestCapacityValidation:
    """Nonsense capacities and LC reservations fail loudly, with typed errors."""

    @pytest.mark.parametrize(
        "memory_gb", [-50.0, -1e-9, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_lc_memory_rejected(self, memory_gb):
        m = Machine(MachineSpec(name="m0"))
        with pytest.raises(ConfigurationError):
            m.reserve_lc(1, 1, memory_gb)
        # Nothing was reserved: the LC can still be placed properly.
        assert m.lc_cores == 0 and m.free_memory_gb == m.spec.memory_gb
        m.reserve_lc(1, 1, 8.0)
        assert m.free_memory_gb == m.spec.memory_gb - 8.0

    def test_zero_lc_memory_accepted(self):
        m = Machine(MachineSpec(name="m0"))
        m.reserve_lc(1, 1, 0.0)
        assert m.lc_memory_gb == 0.0

    @pytest.mark.parametrize(
        "field",
        [
            "cores",
            "llc_mb",
            "llc_ways",
            "membw_gbps",
            "memory_gb",
            "link_gbps",
            "tdp_watts",
            "min_mhz",
            "max_mhz",
        ],
    )
    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")], ids=repr)
    def test_bad_spec_capacity_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            MachineSpec(name="m0", **{field: value})


class TestBeSizingValidation:
    """Bad BE sizing fails at construction, not deep inside a run."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"be_memory_step_gb": 0.0},
            {"be_memory_step_gb": -0.1},
            {"be_memory_step_gb": float("nan")},
            {"be_memory_step_gb": float("inf")},
            {"be_initial_cores": 0},
            {"be_initial_cores": -1},
            {"be_initial_memory_gb": -2.0},
            {"be_initial_memory_gb": float("nan")},
            {"be_initial_memory_gb": float("inf")},
        ],
        ids=repr,
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Machine(MachineSpec(name="m0"), **kwargs)

    def test_zero_initial_memory_accepted(self):
        machine = Machine(MachineSpec(name="m0"), be_initial_memory_gb=0.0)
        machine.launch_be("j1")
        assert machine.be_total_memory_gb == 0.0


class TestBeLifecycle:
    def test_launch_gets_paper_initial_allocation(self, machine):
        alloc = machine.launch_be("j1")
        assert alloc.cores == 1
        assert alloc.llc_ways == 2  # 10% of a 20-way cache
        assert alloc.memory_gb == 2.0

    def test_llc_is_best_effort_after_exhaustion(self, machine):
        # LC holds 10 ways; 5 launches consume the remaining 10.
        for i in range(5):
            machine.launch_be(f"j{i}")
        alloc = machine.launch_be("j5")  # no ways left, still launches
        assert alloc.cores == 1
        assert alloc.llc_ways == 0

    def test_duplicate_launch_rejected(self, machine):
        machine.launch_be("j1")
        with pytest.raises(ConfigurationError):
            machine.launch_be("j1")

    def test_grow_and_shrink_symmetry(self, machine):
        machine.launch_be("j1")
        assert machine.grow_be("j1")
        alloc = machine.be_allocation("j1")
        assert alloc.cores == 2
        assert machine.shrink_be("j1")
        assert alloc.cores == 1

    def test_shrink_stops_at_initial_footprint(self, machine):
        machine.launch_be("j1")
        assert not machine.shrink_be("j1")

    def test_grow_fails_when_cores_exhausted(self, machine):
        machine.launch_be("j1")
        # 40 - 12 LC - 1 initial = 27 cores available for growth
        for _ in range(27):
            assert machine.grow_be("j1")
        assert not machine.grow_be("j1")

    def test_kill_releases_everything(self, machine):
        machine.launch_be("j1")
        machine.grow_be("j1")
        free_before_kill = machine.cpuset.free_cores
        machine.kill_be("j1")
        assert machine.be_allocation("j1") is None
        assert machine.cpuset.free_cores == free_before_kill + 2
        assert machine.counters.be_kills == 1

    def test_suspend_keeps_memory(self, machine):
        machine.launch_be("j1")
        machine.suspend_be("j1")
        alloc = machine.be_allocation("j1")
        assert alloc.suspended
        assert alloc.memory_gb == 2.0
        machine.resume_be("j1")
        assert not alloc.suspended

    def test_suspend_all_and_resume_all(self, machine):
        for i in range(3):
            machine.launch_be(f"j{i}")
        assert machine.suspend_all_be() == 3
        assert machine.be_running_count == 0
        assert machine.resume_all_be() == 3
        assert machine.be_running_count == 3

    def test_kill_all(self, machine):
        for i in range(3):
            machine.launch_be(f"j{i}")
        assert machine.kill_all_be() == 3
        assert machine.be_instance_count == 0

    def test_memory_steps(self, machine):
        machine.launch_be("j1")
        assert machine.grow_be_memory("j1")
        assert machine.be_allocation("j1").memory_gb == pytest.approx(2.1)
        assert machine.shrink_be_memory("j1")
        assert machine.be_allocation("j1").memory_gb == pytest.approx(2.0)
        assert not machine.shrink_be_memory("j1")  # never below initial

    def test_unknown_job_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            machine.grow_be("ghost")

    def test_aggregate_accounting(self, machine):
        machine.launch_be("j1")
        machine.launch_be("j2")
        machine.grow_be("j1")
        assert machine.be_total_cores == 3
        assert machine.be_instance_count == 2
        assert machine.be_total_memory_gb == pytest.approx(4.0)

    def test_power_uses_be_domain_frequency(self, machine):
        machine.launch_be("j1")
        full = machine.power_watts(lc_busy_cores=10, be_busy_cores=10)
        machine.dvfs.set_frequency(BE_DOMAIN, 1200)
        throttled = machine.power_watts(lc_busy_cores=10, be_busy_cores=10)
        assert throttled < full


class TestGrowMemoryToward:
    """The batched memory step equals one ``grow_be_memory`` per eligible job."""

    @staticmethod
    def _state(machine):
        return (
            [(j, a.memory_gb.hex()) for j, a in machine._be.items()],
            machine.mem_version,
            machine._be_mem_est.hex(),
            machine._be_mem_err.hex(),
            machine.free_memory_gb.hex(),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_one_call_per_job(self, seed):
        import random

        rng = random.Random(seed)
        machine = Machine(
            MachineSpec(name="m0", memory_gb=rng.choice([20.0, 24.0, 40.0])),
            be_memory_step_gb=rng.choice([0.1, 0.3, 1.0]),
        )
        machine.reserve_lc(4, 4, rng.uniform(0.0, 16.0))
        ids = [f"j{k}" for k in range(16)]
        refused = 0
        for _ in range(80):
            for job_id in rng.sample(ids, 3):
                if job_id in machine._be:
                    if rng.random() < 0.3:
                        machine.kill_be(job_id)
                    else:
                        machine.shrink_be_memory(job_id)
                elif machine.can_launch_be():
                    machine.launch_be(job_id)
            targets = [
                (job_id, rng.uniform(1.0, 10.0))
                for job_id in rng.sample(ids, rng.randint(0, len(ids)))
            ]
            twin = machine.snapshot()
            grown = machine.grow_be_memory_toward(targets)
            expected = 0
            for job_id, target_gb in targets:
                alloc = twin.be_allocation(job_id)
                if alloc is not None and alloc.memory_gb < target_gb:
                    if twin.grow_be_memory(job_id):
                        expected += 1
                    else:
                        refused += 1
            assert grown == expected
            assert self._state(machine) == self._state(twin)
        assert refused, "capacity never ran out: the edge went untested"


class TestCluster:
    def test_homogeneous_naming(self):
        cluster = Cluster.homogeneous(3)
        assert cluster.names() == ["node0", "node1", "node2"]
        assert len(cluster) == 3

    def test_lookup(self):
        cluster = Cluster.homogeneous(2)
        assert cluster["node1"].spec.name == "node1"
        with pytest.raises(ConfigurationError):
            cluster["nope"]

    def test_duplicate_name_rejected(self):
        cluster = Cluster.homogeneous(1)
        with pytest.raises(ConfigurationError):
            cluster.add(Machine(MachineSpec(name="node0")))

    def test_aggregates(self):
        cluster = Cluster.homogeneous(2)
        cluster["node0"].launch_be("a")
        cluster["node1"].launch_be("b")
        assert cluster.total_be_instances == 2
        cluster["node0"].kill_be("a")
        assert cluster.total_be_kills == 1

    def test_zero_machines_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster.homogeneous(0)
