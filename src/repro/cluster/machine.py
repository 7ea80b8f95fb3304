"""Physical machine model.

A :class:`Machine` bundles the isolation mechanisms the paper uses —
cpuset core pinning, CAT LLC partitioning, DVFS/power capping, qdisc
network shaping — plus DRAM bandwidth/capacity accounting, and tracks the
resource allocations of the LC Servpod and every co-located BE job.

The machine is policy-free: controllers decide *when* to grow or shrink a
BE job; the machine only enforces *feasibility* (you cannot allocate cores
or cache ways that do not exist).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.cluster.cache import LastLevelCache
from repro.cluster.cgroups import CpuSet
from repro.cluster.dvfs import DvfsGovernor, PowerModel
from repro.cluster.network import Nic
from repro.cluster.resources import ResourceVector
from repro.errors import AllocationError, ConfigurationError

#: cpuset/CAT owner name used for the LC Servpod on every machine.
LC_OWNER = "lc"

#: cpuset/CAT owner name holding resources lost to injected faults.
FAULT_OWNER = "__fault__"

#: DVFS domain names.
LC_DOMAIN = "lc"
BE_DOMAIN = "be"

#: Relative error bound per float operation for the BE memory estimate:
#: eight times the unit roundoff (2**-53) of round-to-nearest float64.
_ROUNDING = 2.0**-50

#: The :class:`MachineSpec` capacities that must be finite and positive.
_CAPACITY_FIELDS = (
    "cores",
    "llc_mb",
    "llc_ways",
    "membw_gbps",
    "memory_gb",
    "link_gbps",
    "tdp_watts",
    "min_mhz",
    "max_mhz",
)


@dataclass(frozen=True)
class MachineSpec:
    """Static capacities of a physical machine.

    Defaults match the paper's testbed nodes (40-core Xeon E7-4820 v4 @
    2.0 GHz, 20 MB L3 per socket modeled as one 20-way cache, 64 GB DRAM
    per socket => 256 GB, 10 Gb NIC; DRAM bandwidth is a machine-level
    aggregate).
    """

    name: str = "node"
    cores: int = 40
    llc_mb: float = 20.0
    llc_ways: int = 20
    membw_gbps: float = 80.0
    memory_gb: float = 256.0
    link_gbps: float = 10.0
    tdp_watts: float = 115.0
    min_mhz: int = 1200
    max_mhz: int = 2000

    def __post_init__(self) -> None:
        for name in _CAPACITY_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"machine {self.name!r}: {name} must be finite and "
                    f"positive, got {value!r}"
                )

    def capacity(self) -> ResourceVector:
        """Total machine capacity as a :class:`ResourceVector`."""
        return ResourceVector(
            cores=float(self.cores),
            llc_mb=self.llc_mb,
            membw_gbps=self.membw_gbps,
            netbw_gbps=self.link_gbps,
            memory_gb=self.memory_gb,
        )


@dataclass
class BeAllocation:
    """Mutable record of one BE job's resources on a machine."""

    job_id: str
    cores: int = 0
    llc_ways: int = 0
    memory_gb: float = 0.0
    suspended: bool = False

    def as_vector(self, mb_per_way: float) -> ResourceVector:
        """This allocation as a :class:`ResourceVector`."""
        return ResourceVector(
            cores=float(self.cores),
            llc_mb=self.llc_ways * mb_per_way,
            memory_gb=self.memory_gb,
        )


@dataclass
class MachineCounters:
    """Cumulative bookkeeping used by the evaluation (Table 2)."""

    be_kills: int = 0
    be_suspensions: int = 0
    be_launches: int = 0


class Machine:
    """A machine hosting one LC Servpod plus co-located BE jobs.

    Parameters
    ----------
    spec:
        Static capacities.
    be_initial_cores / be_initial_memory_gb / be_memory_step_gb:
        BE sizing constants from §3.5.2 of the paper: a newly launched BE
        job gets 1 core, 10% of the LLC and 2 GB memory; memory adjusts in
        100 MB steps; cores/LLC adjust in steps of 1 core / 10% LLC.
    """

    def __init__(
        self,
        spec: Optional[MachineSpec] = None,
        be_initial_cores: int = 1,
        be_initial_memory_gb: float = 2.0,
        be_memory_step_gb: float = 0.1,
    ) -> None:
        be_initial_cores = int(be_initial_cores)
        be_initial_memory_gb = float(be_initial_memory_gb)
        be_memory_step_gb = float(be_memory_step_gb)
        if be_initial_cores < 1:
            raise ConfigurationError(
                f"be_initial_cores must be >= 1, got {be_initial_cores}"
            )
        if not (math.isfinite(be_initial_memory_gb) and be_initial_memory_gb >= 0.0):
            raise ConfigurationError(
                "be_initial_memory_gb must be finite and non-negative, "
                f"got {be_initial_memory_gb}"
            )
        if not (math.isfinite(be_memory_step_gb) and be_memory_step_gb > 0.0):
            raise ConfigurationError(
                "be_memory_step_gb must be finite and positive, "
                f"got {be_memory_step_gb}"
            )
        self.spec = spec or MachineSpec()
        self.cpuset = CpuSet(self.spec.cores)
        self.llc = LastLevelCache(self.spec.llc_mb, self.spec.llc_ways)
        self.dvfs = DvfsGovernor(self.spec.min_mhz, self.spec.max_mhz)
        self.power_model = PowerModel(tdp_watts=self.spec.tdp_watts)
        self.nic = Nic(self.spec.link_gbps)
        self.be_initial_cores = be_initial_cores
        self.be_initial_memory_gb = be_initial_memory_gb
        self.be_memory_step_gb = be_memory_step_gb
        self.counters = MachineCounters()
        self._lc_memory_gb = 0.0
        self._be: Dict[str, BeAllocation] = {}
        # Integer BE totals, kept exact on every mutation.
        self._be_cores = 0
        self._be_ways = 0
        self._be_suspended = 0
        # BE memory: the left fold over ``_be`` that ``be_total_memory_gb``
        # reports, computed lazily (``None`` = stale), plus a running
        # estimate of it with a bound on the estimate's error. Capacity
        # checks decide from the estimate and only run the O(jobs) fold
        # when the estimate is within rounding distance of the verdict's
        # edge (see :meth:`_memory_fits`).
        self._be_mem_fold: Optional[float] = 0.0
        self._be_mem_est = 0.0
        self._be_mem_err = 0.0
        #: Monotonic BE-allocation version. Bumped on every change that can
        #: affect BE progress rates (launch/kill, core/LLC grow-shrink,
        #: suspend/resume) so rate computations can cache per-job inputs
        #: and revalidate with one integer compare. Memory sizing does not
        #: bump it — memory never enters the rate model.
        self.version = 0
        #: Monotonic BE-memory version. Memory sizing never changes rates
        #: (hence it leaves :attr:`version` alone) but it does change
        #: ``can_launch_be``, so controllers that memoize whole control
        #: actions need a second counter that grow/shrink-memory bump.
        self.mem_version = 0
        #: Job id of the last :attr:`version` bump. With ``version``
        #: having moved by exactly one, it names the only job whose
        #: rate-relevant allocation changed.
        self.changed_job: Optional[str] = None

    # -- LC reservation -----------------------------------------------------

    def reserve_lc(self, cores: int, llc_ways: int, memory_gb: float) -> None:
        """Pin the LC Servpod's cores, LLC ways and memory."""
        if self.cpuset.count(LC_OWNER) or self.llc.ways_of(LC_OWNER):
            raise ConfigurationError(f"{self.spec.name}: LC already reserved")
        memory_gb = float(memory_gb)
        if not (math.isfinite(memory_gb) and memory_gb >= 0.0):
            raise ConfigurationError(
                f"{self.spec.name}: LC memory must be finite and "
                f"non-negative, got {memory_gb!r}"
            )
        if memory_gb > self.spec.memory_gb:
            raise AllocationError(
                f"{self.spec.name}: LC wants {memory_gb} GB, "
                f"machine has {self.spec.memory_gb}"
            )
        self.cpuset.allocate(LC_OWNER, cores)
        self.llc.allocate(LC_OWNER, llc_ways)
        self._lc_memory_gb = memory_gb

    @property
    def lc_cores(self) -> int:
        """Cores pinned to the LC Servpod."""
        return self.cpuset.count(LC_OWNER)

    @property
    def lc_llc_ways(self) -> int:
        """LLC ways partitioned to the LC Servpod."""
        return self.llc.ways_of(LC_OWNER)

    @property
    def lc_memory_gb(self) -> float:
        """Memory reserved for the LC Servpod."""
        return self._lc_memory_gb

    # -- BE lifecycle ---------------------------------------------------

    def be_allocation(self, job_id: str) -> Optional[BeAllocation]:
        """The allocation record for ``job_id``, or ``None``."""
        return self._be.get(job_id)

    def be_jobs(self) -> Dict[str, BeAllocation]:
        """A snapshot of all BE allocations keyed by job id."""
        return dict(self._be)

    @property
    def be_instance_count(self) -> int:
        """Number of BE jobs currently placed (running or suspended)."""
        return len(self._be)

    @property
    def be_running_count(self) -> int:
        """Number of BE jobs currently running (not suspended)."""
        return len(self._be) - self._be_suspended

    @property
    def be_suspended_count(self) -> int:
        """Number of BE jobs currently suspended."""
        return self._be_suspended

    @property
    def be_total_cores(self) -> int:
        """Cores held by all BE jobs."""
        return self._be_cores

    @property
    def be_total_llc_ways(self) -> int:
        """LLC ways held by all BE jobs."""
        return self._be_ways

    @property
    def be_total_memory_gb(self) -> float:
        """Memory held by all BE jobs: the left fold over jobs in
        placement order, recomputed only on the first read after a change."""
        fold = self._be_mem_fold
        if fold is None:
            fold = sum(a.memory_gb for a in self._be.values())
            self._be_mem_fold = fold
            # Re-anchor the estimate on the fold: a naive n-term sum of
            # non-negative terms is within (n-1) roundoffs of the exact sum.
            self._be_mem_est = fold
            self._be_mem_err = len(self._be) * _ROUNDING * fold
        return fold

    def _memory_moved(self, old_gb: float, new_gb: float) -> None:
        """Account one job's memory going from ``old_gb`` to ``new_gb``
        (both non-negative: the sizing checks keep every job's memory
        at or above ``be_initial_memory_gb >= 0``)."""
        est = self._be_mem_est + (new_gb - old_gb)
        self._be_mem_est = est
        # The subtraction and the addition each round by at most one
        # roundoff of their result.
        self._be_mem_err += _ROUNDING * (old_gb + new_gb + abs(est))
        self._be_mem_fold = None

    def _memory_fits(self, need_gb: float) -> Optional[bool]:
        """``free_memory_gb >= need_gb``, decided without the fold.

        ``None`` when the running estimate is within rounding distance
        of the edge: the caller then evaluates its exact comparison.
        Outside that band the estimate's verdict provably equals the
        fold's — the slack bounds the estimate's drift plus the rounding
        of both the fold and the ``free_memory_gb`` subtraction.
        """
        cap = self.spec.memory_gb
        lc = self._lc_memory_gb
        est = self._be_mem_est
        err = self._be_mem_err
        margin = cap - lc - est - need_gb
        slack = err + (len(self._be) + 6) * _ROUNDING * (
            abs(cap) + abs(lc) + abs(est) + err + need_gb
        )
        if margin > slack:
            return True
        if margin < -slack:
            return False
        return None

    def can_launch_be(self) -> bool:
        """True if a fresh BE job (1 core, 2 GB; LLC is best-effort) fits.

        Cores and memory are hard requirements; the 10% LLC grant is
        taken from whatever ways remain — BE jobs effectively share the
        BE side of the cache partition once it is exhausted, which is
        how the paper's machines host 15+ BE instances (Figure 17)
        against a 20-way cache.
        """
        if self.cpuset.free_cores < self.be_initial_cores:
            return False
        fits = self._memory_fits(self.be_initial_memory_gb)
        if fits is None:
            fits = self.free_memory_gb >= self.be_initial_memory_gb
        return fits

    def launch_be(self, job_id: str) -> BeAllocation:
        """Place a new BE job with its initial allocation."""
        if job_id in self._be:
            raise ConfigurationError(f"BE job {job_id!r} already on {self.spec.name}")
        if not self.can_launch_be():
            raise AllocationError(f"{self.spec.name}: no room for BE job {job_id!r}")
        step = min(self.llc.step_ways(), self.llc.free_ways)
        self.cpuset.allocate(job_id, self.be_initial_cores)
        if step > 0:
            self.llc.allocate(job_id, step)
        alloc = BeAllocation(
            job_id=job_id,
            cores=self.be_initial_cores,
            llc_ways=step,
            memory_gb=self.be_initial_memory_gb,
        )
        self._be[job_id] = alloc
        self._be_cores += alloc.cores
        self._be_ways += step
        self._memory_moved(0.0, alloc.memory_gb)
        self.counters.be_launches += 1
        self.version += 1
        self.changed_job = job_id
        return alloc

    def grow_be(self, job_id: str) -> bool:
        """Grant one more core (plus an LLC step if ways remain)."""
        alloc = self._require(job_id)
        if self.cpuset.free_cores < 1:
            return False
        step = min(self.llc.step_ways(), self.llc.free_ways)
        self.cpuset.allocate(job_id, 1)
        if step > 0:
            self.llc.allocate(job_id, step)
        alloc.cores += 1
        alloc.llc_ways += step
        self._be_cores += 1
        self._be_ways += step
        self.version += 1
        self.changed_job = job_id
        return True

    def shrink_be(self, job_id: str) -> bool:
        """Take one core (and an LLC step, if held) back from ``job_id``.

        Returns ``False`` once the job is at its minimum footprint.
        """
        alloc = self._require(job_id)
        if alloc.cores <= self.be_initial_cores:
            return False
        step = min(self.llc.step_ways(), alloc.llc_ways)
        self.cpuset.release(job_id, 1)
        if step > 0:
            self.llc.release(job_id, step)
        alloc.cores -= 1
        alloc.llc_ways -= step
        self._be_cores -= 1
        self._be_ways -= step
        self.version += 1
        self.changed_job = job_id
        return True

    def grow_be_memory(self, job_id: str) -> bool:
        """Grant one 100 MB memory step if capacity allows."""
        alloc = self._require(job_id)
        step = self.be_memory_step_gb
        fits = self._memory_fits(step)
        if fits is None:
            fits = not self.free_memory_gb < step
        if not fits:
            return False
        old = alloc.memory_gb
        alloc.memory_gb = old + step
        self._memory_moved(old, alloc.memory_gb)
        self.mem_version += 1
        return True

    def grow_be_memory_toward(self, targets: Iterable[Tuple[str, float]]) -> int:
        """One 100 MB step for every placed job still below its target.

        ``targets`` holds ``(job_id, target_gb)`` pairs in the order the
        steps are taken. Equivalent to :meth:`grow_be_memory` on each
        placed job whose memory is below ``target_gb`` — the same float
        additions in the same order, the same fits verdicts, one
        ``mem_version`` bump per granted step — without a method call
        per step. The scan stops at the first step that does not fit:
        nothing moved, so no later step can fit either. Returns how many
        steps were granted.
        """
        be = self._be
        step = self.be_memory_step_gb
        grown = 0
        for job_id, target_gb in targets:
            alloc = be.get(job_id)
            if alloc is None or not alloc.memory_gb < target_gb:
                continue
            fits = self._memory_fits(step)
            if fits is None:
                fits = not self.free_memory_gb < step
            if not fits:
                break
            old = alloc.memory_gb
            alloc.memory_gb = old + step
            self._memory_moved(old, alloc.memory_gb)
            grown += 1
        self.mem_version += grown
        return grown

    def shrink_be_memory(self, job_id: str) -> bool:
        """Take one 100 MB memory step back (not below the initial 2 GB)."""
        alloc = self._require(job_id)
        old = alloc.memory_gb
        if old - self.be_memory_step_gb < self.be_initial_memory_gb:
            return False
        alloc.memory_gb = old - self.be_memory_step_gb
        self._memory_moved(old, alloc.memory_gb)
        self.mem_version += 1
        return True

    def suspend_be(self, job_id: str) -> None:
        """Pause ``job_id``: keeps memory, stops executing (SIGSTOP-like)."""
        alloc = self._require(job_id)
        if not alloc.suspended:
            alloc.suspended = True
            self._be_suspended += 1
            self.counters.be_suspensions += 1
            self.version += 1
            self.changed_job = job_id

    def resume_be(self, job_id: str) -> None:
        """Resume a suspended BE job."""
        alloc = self._require(job_id)
        if alloc.suspended:
            alloc.suspended = False
            self._be_suspended -= 1
        self.version += 1
        self.changed_job = job_id

    def kill_be(self, job_id: str) -> None:
        """Kill ``job_id`` and release every resource it held."""
        alloc = self._require(job_id)
        self.cpuset.release_all(job_id)
        self.llc.release_all(job_id)
        del self._be[alloc.job_id]
        self._be_cores -= alloc.cores
        self._be_ways -= alloc.llc_ways
        self._be_suspended -= alloc.suspended
        self._memory_moved(alloc.memory_gb, 0.0)
        self.counters.be_kills += 1
        self.version += 1
        self.changed_job = job_id

    def kill_all_be(self) -> int:
        """Kill every BE job on the machine; returns how many were killed."""
        job_ids = list(self._be)
        for job_id in job_ids:
            self.kill_be(job_id)
        return len(job_ids)

    def suspend_all_be(self) -> int:
        """Suspend every running BE job; returns how many were suspended."""
        n = 0
        for alloc in self._be.values():
            if not alloc.suspended:
                self.suspend_be(alloc.job_id)
                n += 1
        return n

    def resume_all_be(self) -> int:
        """Resume every suspended BE job; returns how many were resumed."""
        n = 0
        for alloc in self._be.values():
            if alloc.suspended:
                self.resume_be(alloc.job_id)
                n += 1
        return n

    # -- fault-injected capacity loss -----------------------------------

    @property
    def offlined_cores(self) -> int:
        """Cores currently held out of service by fault injection."""
        return self.cpuset.count(FAULT_OWNER)

    @property
    def lost_llc_ways(self) -> int:
        """LLC ways currently held out of service by fault injection."""
        return self.llc.ways_of(FAULT_OWNER)

    def offline_cores(self, n: int) -> int:
        """Take up to ``n`` cores out of the schedulable set.

        Models cores offlined after MCE errors or hot-unplug: the free
        pool is drained first; if that is not enough, BE jobs are shrunk
        (largest first, deterministically) down to their minimum
        footprint to make room. The LC reservation is never touched —
        the kernel migrates the pinned LC threads off the dead cores —
        so the actual count taken can be less than ``n`` on a crowded
        machine. Returns how many cores were actually offlined.
        """
        n = max(0, int(n))
        while self.cpuset.free_cores < n and self._shrink_any_be():
            pass
        take = min(n, self.cpuset.free_cores)
        if take > 0:
            self.cpuset.allocate(FAULT_OWNER, take)
        return take

    def restore_offlined_cores(self, n: int) -> None:
        """Return ``n`` previously offlined cores to the free pool."""
        if n > 0:
            self.cpuset.release(FAULT_OWNER, n)

    def fault_llc_ways(self, n: int) -> int:
        """Remove up to ``n`` free LLC ways from service (faulty SRAM).

        Only unowned ways are physically fenced — partitions already
        granted keep working (CAT masks are sticky) — but the *lost
        capacity* still pressures the LC through the interference model
        (see :meth:`repro.faults.cluster.ClusterFaultInjector`). Returns
        how many ways were actually fenced.
        """
        take = min(max(0, int(n)), self.llc.free_ways)
        if take > 0:
            self.llc.allocate(FAULT_OWNER, take)
        return take

    def restore_fault_llc_ways(self, n: int) -> None:
        """Return ``n`` previously fenced LLC ways to the free pool."""
        if n > 0:
            self.llc.release(FAULT_OWNER, n)

    def _shrink_any_be(self) -> bool:
        """Shrink the largest shrinkable BE job by one core (deterministic)."""
        for job_id in sorted(self._be, key=lambda j: (-self._be[j].cores, j)):
            if self.shrink_be(job_id):
                return True
        return False

    # -- capacity views -------------------------------------------------

    @property
    def free_memory_gb(self) -> float:
        """Unreserved memory capacity."""
        return self.spec.memory_gb - self._lc_memory_gb - self.be_total_memory_gb

    def power_watts(self, lc_busy_cores: float, be_busy_cores: float) -> float:
        """Current power estimate from the RAPL-like model."""
        return self.power_model.power(
            busy_cores_lc=lc_busy_cores,
            freq_ratio_lc=self.dvfs.ratio(LC_DOMAIN),
            busy_cores_be=be_busy_cores,
            freq_ratio_be=self.dvfs.ratio(BE_DOMAIN),
        )

    # -- forking ----------------------------------------------------------

    def snapshot(self) -> "Machine":
        """An independent copy of this machine, equal to ``copy.deepcopy``.

        The frozen spec and power model are shared; the allocation
        records, counters, incremental BE totals, cpuset/CAT books and
        DVFS/NIC state are copied. A copied allocation is reachable only
        through the copy's ``_be``, as in a deep copy.
        """
        clone = object.__new__(Machine)
        clone.__dict__.update(self.__dict__)
        clone.cpuset = self.cpuset.snapshot()
        clone.llc = self.llc.snapshot()
        clone.dvfs = self.dvfs.snapshot()
        clone.nic = self.nic.snapshot()
        c = self.counters
        clone.counters = MachineCounters(c.be_kills, c.be_suspensions, c.be_launches)
        clone._be = {
            job_id: BeAllocation(
                job_id, a.cores, a.llc_ways, a.memory_gb, a.suspended
            )
            for job_id, a in self._be.items()
        }
        return clone

    # -- internals --------------------------------------------------------

    def _require(self, job_id: str) -> BeAllocation:
        alloc = self._be.get(job_id)
        if alloc is None:
            raise ConfigurationError(f"no BE job {job_id!r} on {self.spec.name}")
        return alloc

    def __repr__(self) -> str:
        return (
            f"Machine({self.spec.name!r}, lc_cores={self.lc_cores}, "
            f"be_jobs={self.be_instance_count})"
        )
