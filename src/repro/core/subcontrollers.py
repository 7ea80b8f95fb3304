"""The four per-machine subcontrollers (§3.5.2) and the BE job pool.

Subcontrollers execute the top controller's decision with the paper's
exact step sizes:

- **CPU/LLC**: new BE jobs start with 1 core + 10% LLC; CutBE and
  AllowBEGrowth adjust in steps of 1 core + 10% LLC (as in Heracles).
- **Frequency**: if machine power exceeds 80% of TDP, step the BE cores
  down 100 MHz (DVFS) to keep power for the LC service.
- **Memory**: new BE jobs start at 2 GB; adjust in 100 MB steps.
- **Network**: allocate ``B_link − 1.2·B_LC`` to BE traffic (qdisc).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

from repro.bejobs.job import BeJob, BeJobState
from repro.bejobs.spec import BeJobSpec
from repro.cluster.machine import BE_DOMAIN, Machine
from repro.core.actions import BeAction
from repro.errors import ControlError


class BeJobPool:
    """The BE jobs placed (or queued) on one machine.

    An endless backlog of batch work is assumed (the datacenter always
    has BE jobs waiting); the pool instantiates jobs on demand, cycling
    through ``specs`` so a mixed-BE probe is a pool with several specs.
    """

    def __init__(
        self,
        specs: Sequence[BeJobSpec],
        machine_name: str,
        max_instances: int = 16,
    ) -> None:
        if not specs:
            raise ControlError("BE pool needs at least one job spec")
        if max_instances <= 0:
            raise ControlError(f"max_instances must be positive, got {max_instances}")
        self.specs = list(specs)
        self.machine_name = machine_name
        self.max_instances = int(max_instances)
        self._spec_cycle = itertools.cycle(self.specs)
        self._counter = 0
        #: Every job ever created, killed ones included, in creation order.
        self._jobs: Dict[str, BeJob] = {}
        #: The jobs not yet killed, in creation order. Jobs die only
        #: through :meth:`kill_all`, which prunes them here.
        self._live: Dict[str, BeJob] = {}
        self.total_killed = 0

    def new_job(self) -> BeJob:
        """Materialise the next queued BE job (not yet started)."""
        self._counter += 1
        spec = next(self._spec_cycle)
        job = BeJob(job_id=f"{self.machine_name}/be-{self._counter}", spec=spec)
        self._jobs[job.job_id] = job
        self._live[job.job_id] = job
        return job

    def jobs(self) -> List[BeJob]:
        """Every job ever placed that has not been killed."""
        return list(self._live.values())

    def running(self) -> List[BeJob]:
        """Jobs currently in RUNNING state."""
        running = BeJobState.RUNNING
        return [j for j in self._live.values() if j.state is running]

    def job(self, job_id: str) -> BeJob:
        """Look up a job by id."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ControlError(f"unknown BE job {job_id!r}") from None

    @property
    def active_count(self) -> int:
        """Jobs placed on the machine (running or suspended)."""
        return len(self._live)

    @property
    def total_normalized_work(self) -> float:
        """Sum of normalized work across all jobs, ever (incl. killed)."""
        return sum(j.normalized_work for j in self._jobs.values())

    def kill_all(self) -> int:
        """Kill every live job; returns how many died."""
        n = 0
        for job in self._live.values():
            job.kill()
            self.total_killed += 1
            n += 1
        self._live.clear()
        return n

    def snapshot(self) -> "BeJobPool":
        """An independent copy of the pool, equal to ``copy.deepcopy``.

        Live jobs are copied. Killed jobs are shared: :meth:`BeJob.kill`
        leaves a job that nothing mutates again, and no killed job is
        ever live. The spec cycle is rebuilt at the same position
        (``_counter`` jobs drawn so far).
        """
        clone = object.__new__(BeJobPool)
        clone.__dict__.update(self.__dict__)
        specs = list(self.specs)
        clone.specs = specs
        cycle = itertools.cycle(specs)
        for _ in range(self._counter % len(specs)):
            next(cycle)
        clone._spec_cycle = cycle
        live = {
            job_id: BeJob(
                job_id,
                job.spec,
                job.state,
                job.machine_name,
                job.normalized_work,
                job.running_seconds,
            )
            for job_id, job in self._live.items()
        }
        clone._live = live
        # Updating an existing key keeps its (creation-order) position.
        clone._jobs = dict(self._jobs)
        clone._jobs.update(live)
        return clone


class CpuLlcSubcontroller:
    """Core + LLC allocation, one core / 10% LLC at a time.

    Parameters
    ----------
    escalate_cut:
        When ``True`` (default) CutBE escalates to pausing instances once
        footprints reach minimum; ``False`` restricts CutBE to pure
        shrinking (the ablation in ``bench_ablations.py`` shows the
        escalation is what keeps ramps violation-free).
    """

    def __init__(self, escalate_cut: bool = True) -> None:
        self.escalate_cut = escalate_cut

    def apply(self, action: BeAction, machine: Machine, pool: BeJobPool) -> None:
        """Execute ``action``'s core/LLC consequences."""
        if action == BeAction.STOP_BE:
            machine.kill_all_be()
            pool.kill_all()
            machine.dvfs.reset(BE_DOMAIN)
        elif action == BeAction.SUSPEND_BE:
            machine.suspend_all_be()
            for job in pool.running():
                job.suspend()
        elif action == BeAction.CUT_BE:
            self._cut(machine, pool, self.escalate_cut)
        elif action == BeAction.DISALLOW_BE_GROWTH:
            self._resume_some(machine, pool, count=1)
        elif action == BeAction.ALLOW_BE_GROWTH:
            self._resume_some(machine, pool, count=2)
            self._grow(machine, pool)
        else:  # pragma: no cover - exhaustive over the enum
            raise ControlError(f"unknown action {action!r}")

    @staticmethod
    def _cut(machine: Machine, pool: BeJobPool, escalate: bool = True) -> None:
        """One CutBE step: shrink every running job; once a job is at its
        minimum footprint, pause the widest one instead.

        The paper's CutBE "reduces part of their allocated resources ...
        until no more resources are available or all BE's resources have
        been released" — the escalation to pausing lets repeated CutBE
        periods shed interference all the way to zero without killing
        instances (Figure 17 shows the instance count surviving cuts).
        """
        running = pool.running()
        for job in running:
            machine.shrink_be(job.job_id)
        if not escalate or not running:
            return
        widths = [machine.be_allocation(j.job_id).cores for j in running]
        order = sorted(range(len(running)), key=widths.__getitem__, reverse=True)
        # Shrinking alone cannot shed cache/bandwidth pressure from jobs
        # whose demand saturates at low core counts (stream-llc needs a
        # single core to thrash the LLC), so every CutBE period also
        # pauses jobs: one while there is still core width to trim, the
        # wider half once everything is at minimum footprint.
        if widths[order[0]] > machine.be_initial_cores:
            victims = [running[order[0]]]
        else:
            victims = [running[k] for k in order[: (len(running) + 1) // 2]]
        for job in victims:
            machine.suspend_be(job.job_id)
            job.suspend()

    @staticmethod
    def _resume_some(machine: Machine, pool: BeJobPool, count: int) -> None:
        """Resume at most ``count`` suspended jobs this period.

        Gradual resumption avoids re-applying a full pool's worth of
        interference in a single control period after a SuspendBE phase
        ends — the pressure step would otherwise outrun the feedback
        loop and spike the tail straight past the SLA.
        """
        if not machine.be_suspended_count:
            return
        resumed = 0
        for job in pool.jobs():
            if resumed >= count:
                break
            if job.state == BeJobState.SUSPENDED:
                machine.resume_be(job.job_id)
                job.resume()
                resumed += 1

    @staticmethod
    def _grow(machine: Machine, pool: BeJobPool) -> None:
        """One growth step per period: launch a queued instance, or —
        when the instance cap or machine is full — widen the thinnest job."""
        if pool.active_count < pool.max_instances and machine.can_launch_be():
            job = pool.new_job()
            machine.launch_be(job.job_id)
            job.start(machine.spec.name)
            return
        if machine.cpuset.free_cores < 1:
            return  # grow_be would refuse whichever job the scan picked
        live = pool.running()
        if live:
            widths = [machine.be_allocation(j.job_id).cores for j in live]
            thinnest = live[widths.index(min(widths))]
            machine.grow_be(thinnest.job_id)


class FrequencySubcontroller:
    """DVFS power capping: keep machine power under 80% of TDP."""

    def __init__(self, cap_fraction: float = 0.8, restore_fraction: float = 0.7) -> None:
        if not (0 < restore_fraction <= cap_fraction <= 1):
            raise ControlError(
                f"need 0 < restore <= cap <= 1, got {restore_fraction}/{cap_fraction}"
            )
        self.cap_fraction = cap_fraction
        self.restore_fraction = restore_fraction

    def apply(self, machine: Machine, lc_busy_cores: float, be_busy_cores: float) -> int:
        """Adjust the BE frequency domain; returns the new frequency (MHz)."""
        power = machine.power_watts(lc_busy_cores, be_busy_cores)
        tdp = machine.power_model.tdp_watts
        if power > self.cap_fraction * tdp:
            return machine.dvfs.step_down(BE_DOMAIN)
        if power < self.restore_fraction * tdp:
            return machine.dvfs.step_up(BE_DOMAIN)
        return machine.dvfs.frequency(BE_DOMAIN)


class MemorySubcontroller:
    """BE memory sizing in 100 MB steps toward each job's working set."""

    def apply(self, action: BeAction, machine: Machine, pool: BeJobPool) -> None:
        """Grow/shrink each BE job's memory one step, per the action."""
        if action == BeAction.ALLOW_BE_GROWTH:
            machine.grow_be_memory_toward(
                [(job.job_id, job.spec.memory_gb) for job in pool.running()]
            )
        elif action == BeAction.CUT_BE:
            for job in pool.running():
                if machine.be_allocation(job.job_id) is not None:
                    machine.shrink_be_memory(job.job_id)


class NetworkSubcontroller:
    """qdisc shaping: BE bandwidth cap = B_link − 1.2 · B_LC."""

    def apply(self, machine: Machine, lc_net_gbps: float) -> float:
        """Update the NIC's BE cap from observed LC traffic; returns it."""
        return machine.nic.observe_lc_traffic(lc_net_gbps)
