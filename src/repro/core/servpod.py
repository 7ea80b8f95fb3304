"""The Servpod abstraction (§3.1).

A Servpod is the set of one LC service's components deployed together on
one physical machine — the unit at which Rhythm differentiates BE
deployment. :class:`Servpod` binds a
:class:`~repro.workloads.spec.ServpodSpec` to a
:class:`~repro.cluster.machine.Machine`; :func:`deploy_service` builds
the one-Servpod-per-machine deployment the paper uses (the number of
Servpods equals the number of deployed machines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine, MachineSpec
from repro.errors import ConfigurationError
from repro.interference.model import InterferenceModel, Pressure
from repro.interference.sensitivity import SensitivityVector
from repro.workloads.spec import ServiceSpec, ServpodSpec


@dataclass
class Servpod:
    """One Servpod bound to its machine."""

    spec: ServpodSpec
    machine: Machine

    @property
    def name(self) -> str:
        """The Servpod's name."""
        return self.spec.name

    def reserve(self) -> None:
        """Pin the Servpod's cores, LLC partition and memory."""
        self.machine.reserve_lc(
            cores=self.spec.cores,
            llc_ways=self.spec.llc_ways,
            memory_gb=self.spec.memory_gb,
        )

    def effective_sensitivity(self) -> SensitivityVector:
        """Base-latency-weighted mean sensitivity of member components.

        Components sharing a machine see the same pressure; their
        slowdowns combine in proportion to how much latency each
        contributes, which the base medians approximate.
        """
        total = sum(c.base_ms for c in self.spec.components)
        if total <= 0:
            raise ConfigurationError(f"Servpod {self.name!r} has zero base latency")
        acc = {"cpu": 0.0, "llc": 0.0, "membw": 0.0, "net": 0.0, "freq": 0.0}
        for comp in self.spec.components:
            weight = comp.base_ms / total
            for kind in acc:
                acc[kind] += weight * comp.sensitivity.coefficient(kind)
        return SensitivityVector(**acc)

    def slowdown(
        self, pressure: Pressure, load: float, model: InterferenceModel
    ) -> float:
        """This Servpod's sojourn slowdown under ``pressure`` at ``load``."""
        return model.slowdown(self.effective_sensitivity(), pressure, load)


@dataclass
class ServpodDeployment:
    """An LC service deployed one-Servpod-per-machine on a cluster."""

    service: ServiceSpec
    cluster: Cluster
    servpods: Dict[str, Servpod]

    def servpod(self, name: str) -> Servpod:
        """Look up a deployed Servpod by name."""
        try:
            return self.servpods[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.service.name}: no deployed Servpod {name!r}"
            ) from None

    def machines(self) -> List[Machine]:
        """The deployment's machines, in Servpod declaration order."""
        return [self.servpods[name].machine for name in self.service.servpod_names]

    def snapshot(self) -> "ServpodDeployment":
        """An independent copy of the deployed machines.

        Servpod specs are shared; each Servpod is bound to its machine's
        snapshot in the copied cluster.
        """
        cluster = self.cluster.snapshot()
        return ServpodDeployment(
            service=self.service,
            cluster=cluster,
            servpods={
                name: Servpod(spec=pod.spec, machine=cluster[pod.machine.spec.name])
                for name, pod in self.servpods.items()
            },
        )


def deploy_service(
    service: ServiceSpec,
    base_machine: Optional[MachineSpec] = None,
) -> ServpodDeployment:
    """Deploy ``service`` with one Servpod per (fresh) machine.

    Machines are named after their Servpod, matching how the evaluation
    figures label panels ("Tomcat/E-commerce" = the Tomcat machine of the
    E-commerce deployment).
    """
    base = base_machine or MachineSpec()
    machines = []
    servpods: Dict[str, Servpod] = {}
    for pod_spec in service.servpods:
        spec = MachineSpec(
            name=pod_spec.name,
            cores=base.cores,
            llc_mb=base.llc_mb,
            llc_ways=base.llc_ways,
            membw_gbps=base.membw_gbps,
            memory_gb=base.memory_gb,
            link_gbps=base.link_gbps,
            tdp_watts=base.tdp_watts,
            min_mhz=base.min_mhz,
            max_mhz=base.max_mhz,
        )
        machine = Machine(spec)
        pod = Servpod(spec=pod_spec, machine=machine)
        pod.reserve()
        machines.append(machine)
        servpods[pod_spec.name] = pod
    return ServpodDeployment(
        service=service, cluster=Cluster(machines), servpods=servpods
    )
