"""Cluster-layer fault injection: mid-run machine degradation.

A :class:`ClusterFaultInjector` walks a :class:`~repro.faults.spec.
FaultSchedule` against a live :class:`~repro.cluster.cluster.Cluster`.
The co-location loop calls :meth:`ClusterFaultInjector.advance` at each
control tick; faults whose window opened are applied through the
machines' *existing* mechanisms (cpuset, CAT, DVFS caps, link scaling)
and reverted when their window closes. Nothing tells the top controller
a fault happened — it only sees the consequences through the knobs it
already reads (tail latency, frequency ratio, free cores), exactly as a
production controller would.

How each kind lands:

- ``CORE_OFFLINE`` — ``magnitude × cores`` cores move to the fault
  owner via :meth:`Machine.offline_cores` (BE jobs shrink to make room;
  the LC reservation survives). BE growth stalls, BE rates drop.
- ``DVFS_CAP`` — a hardware ceiling on both frequency domains at
  ``max - magnitude × (max - min)`` MHz (step-snapped). The controller
  observes it as frequency pressure (``1 - lc_freq_ratio``) and lower
  BE throughput; the frequency subcontroller's resets cannot lift it.
- ``LLC_WAY_LOSS`` — ``magnitude × ways`` ways fenced from the free
  pool, and the *lost fraction* added as LLC pressure on the LC.
- ``NIC_DEGRADE`` — the link scaled to ``1 - magnitude`` (floored at
  5%); the LC's unservable traffic fraction becomes network pressure.
- ``MACHINE_STALL`` — a transient whole-machine slowdown factor of
  ``1 + STALL_SLOWDOWN_SPAN × magnitude`` multiplying the Servpod's
  interference slowdown for the window.

Effective NIC/DVFS state is *recomputed from the active-fault set* at
every transition (min cap, product of scales), so overlapping faults
compose deterministically regardless of apply/revert order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.machine import BE_DOMAIN, LC_DOMAIN, Machine
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.interference.model import Pressure

#: A magnitude-1.0 stall multiplies the Servpod slowdown by 1 + this.
STALL_SLOWDOWN_SPAN = 9.0

#: The degraded link never drops below this fraction of capacity (a
#: fully dead NIC would zero the denominator of every share computation).
MIN_LINK_SCALE = 0.05


@dataclass(frozen=True)
class FaultEvent:
    """One applied/reverted transition, for logs and drivers."""

    t: float
    phase: str  # "apply" | "revert"
    machine: str
    spec: FaultSpec


class ClusterFaultInjector:
    """Applies a schedule's cluster faults to machines as time advances."""

    def __init__(self, cluster: Cluster, schedule: FaultSchedule) -> None:
        self.cluster = cluster
        self.schedule = schedule
        names = cluster.names()
        # Expand "*" targets to every machine: one (machine, spec) pair
        # per concrete application, so apply/revert bookkeeping is local.
        expanded: List[Tuple[str, FaultSpec]] = []
        for spec in schedule:
            for name in names:
                if spec.applies_to(name):
                    expanded.append((name, spec))
        expanded.sort(key=lambda p: (p[1].at_s, p[1].kind.value, p[0]))
        self._pending = expanded
        self._next = 0
        #: (machine, spec) -> units physically taken (cores or ways).
        self._taken: Dict[Tuple[str, int], int] = {}
        self._active: List[Tuple[str, FaultSpec]] = []
        self.events: List[FaultEvent] = []
        #: Earliest time at which :meth:`advance` has anything to do.
        self.next_transition_s = self._next_due()

    # -- time advance ------------------------------------------------------

    def advance(self, t: float) -> int:
        """Apply/revert every transition due by time ``t``.

        Returns the number of transitions performed. Idempotent for a
        given ``t``: calling twice with the same time does nothing new.
        """
        transitions = 0
        # Revert first so a machine's resources free up before a new
        # fault (possibly on the same resource) takes its share.
        still_active = []
        for name, spec in self._active:
            if t >= spec.end_s:
                self._revert(name, spec, t)
                transitions += 1
            else:
                still_active.append((name, spec))
        self._active = still_active
        while self._next < len(self._pending):
            name, spec = self._pending[self._next]
            if spec.at_s > t:
                break
            self._next += 1
            if t >= spec.end_s:
                continue  # whole window fell between ticks: no-op
            self._apply(name, spec, t)
            self._active.append((name, spec))
            transitions += 1
        if transitions:
            self._recompute_derived()
        self.next_transition_s = self._next_due()
        return transitions

    def _next_due(self) -> float:
        """Smallest ``t`` for which :meth:`advance` would act: the first
        active window's end or the next pending window's start."""
        due = min((spec.end_s for _, spec in self._active), default=math.inf)
        if self._next < len(self._pending):
            due = min(due, self._pending[self._next][1].at_s)
        return due

    def snapshot(self, cluster: Cluster) -> "ClusterFaultInjector":
        """A copy of the injector's progress, acting on ``cluster``.

        ``cluster`` is the snapshot of this injector's cluster. The
        schedule and the expanded pending list are read-only and
        shared; the taken-units book, the active set and the event log
        are copied (their entries are immutable). The fault specs must
        stay shared: the taken-units book is keyed by their ids.
        """
        clone = object.__new__(ClusterFaultInjector)
        clone.__dict__.update(self.__dict__)
        clone.cluster = cluster
        clone._taken = dict(self._taken)
        clone._active = list(self._active)
        clone.events = list(self.events)
        return clone

    # -- observation hooks (read by the co-location loop) ------------------

    def effects(self, machine_name: str) -> Tuple[float, bool, float]:
        """``(extra_llc, has_nic_fault, stall_factor)`` on ``machine_name``.

        The active-set terms :meth:`adjust_pressure` and
        :meth:`stall_factor` fold in; they only move when :meth:`advance`
        performs a transition, so SoA callers cache them between
        transitions.
        """
        extra_llc = 0.0
        has_nic_fault = False
        factor = 1.0
        for name, spec in self._active:
            if name != machine_name:
                continue
            if spec.kind is FaultKind.LLC_WAY_LOSS:
                extra_llc += spec.magnitude
            elif spec.kind is FaultKind.NIC_DEGRADE:
                has_nic_fault = True
            elif spec.kind is FaultKind.MACHINE_STALL:
                factor *= 1.0 + STALL_SLOWDOWN_SPAN * spec.magnitude
        return extra_llc, has_nic_fault, factor

    def stall_factor(self, machine_name: str) -> float:
        """Product of active stall slowdowns on ``machine_name`` (>= 1)."""
        return self.effects(machine_name)[2]

    def adjust_pressure(self, machine: Machine, pressure: Pressure) -> Pressure:
        """Fold active fault effects into the LC's residual pressure.

        Lost LLC capacity and NIC shortfall are disturbances the
        controller can only see through the interference they cause —
        this is where they enter the latency model.
        """
        extra_llc, has_nic_fault, _ = self.effects(machine.spec.name)
        if extra_llc <= 0 and not has_nic_fault:
            return pressure
        llc = min(1.0, pressure.llc + extra_llc)
        net = pressure.net
        if has_nic_fault:
            net = min(1.0, max(net, machine.nic.lc_shortfall_fraction()))
        return replace(pressure, llc=llc, net=net)

    @property
    def active_faults(self) -> Tuple[Tuple[str, FaultSpec], ...]:
        """The currently applied (machine, fault) pairs."""
        return tuple(self._active)

    @property
    def applied_count(self) -> int:
        """How many apply transitions have happened so far."""
        return sum(1 for e in self.events if e.phase == "apply")

    # -- apply / revert ----------------------------------------------------

    def _apply(self, name: str, spec: FaultSpec, t: float) -> None:
        machine = self.cluster[name]
        key = (name, id(spec))
        if spec.kind is FaultKind.CORE_OFFLINE:
            want = max(1, round(spec.magnitude * machine.spec.cores))
            self._taken[key] = machine.offline_cores(want)
        elif spec.kind is FaultKind.LLC_WAY_LOSS:
            want = max(1, round(spec.magnitude * machine.llc.n_ways))
            self._taken[key] = machine.fault_llc_ways(want)
        # DVFS_CAP / NIC_DEGRADE / MACHINE_STALL are derived from the
        # active set in _recompute_derived / stall_factor.
        self.events.append(FaultEvent(t=t, phase="apply", machine=name, spec=spec))

    def _revert(self, name: str, spec: FaultSpec, t: float) -> None:
        machine = self.cluster[name]
        key = (name, id(spec))
        taken = self._taken.pop(key, 0)
        if spec.kind is FaultKind.CORE_OFFLINE:
            machine.restore_offlined_cores(taken)
        elif spec.kind is FaultKind.LLC_WAY_LOSS:
            machine.restore_fault_llc_ways(taken)
        self.events.append(FaultEvent(t=t, phase="revert", machine=name, spec=spec))

    def _recompute_derived(self) -> None:
        """Rebuild each machine's DVFS cap and link scale from the active set."""
        caps: Dict[str, int] = {}
        scales: Dict[str, float] = {}
        for name, spec in self._active:
            machine = self.cluster[name]
            if spec.kind is FaultKind.DVFS_CAP:
                mhz = self._cap_mhz(machine, spec.magnitude)
                caps[name] = min(caps.get(name, mhz), mhz)
            elif spec.kind is FaultKind.NIC_DEGRADE:
                scales[name] = scales.get(name, 1.0) * (1.0 - spec.magnitude)
        for machine in self.cluster:
            name = machine.spec.name
            cap = caps.get(name)
            if cap is None:
                machine.dvfs.clear_cap(LC_DOMAIN)
                machine.dvfs.clear_cap(BE_DOMAIN)
            else:
                machine.dvfs.set_cap(LC_DOMAIN, cap)
                machine.dvfs.set_cap(BE_DOMAIN, cap)
            machine.nic.set_link_scale(max(MIN_LINK_SCALE, scales.get(name, 1.0)))

    @staticmethod
    def _cap_mhz(machine: Machine, magnitude: float) -> int:
        """Map a severity onto a step-snapped frequency ceiling."""
        dvfs = machine.dvfs
        span = dvfs.max_mhz - dvfs.min_mhz
        steps = round(magnitude * span / dvfs.step_mhz)
        return max(dvfs.min_mhz, dvfs.max_mhz - int(steps) * dvfs.step_mhz)
