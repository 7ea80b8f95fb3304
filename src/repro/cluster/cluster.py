"""A named collection of machines.

The paper's testbed is four machines; each LC Servpod is deployed on its
own machine (the number of Servpods equals the number of machines used by
a service). :class:`Cluster` provides lookup and aggregate views.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.cluster.machine import Machine, MachineSpec
from repro.errors import ConfigurationError


class Cluster:
    """A set of machines addressable by name."""

    def __init__(self, machines: Optional[Iterable[Machine]] = None) -> None:
        self._machines: Dict[str, Machine] = {}
        for machine in machines or ():
            self.add(machine)

    @classmethod
    def homogeneous(cls, n: int, base_spec: Optional[MachineSpec] = None) -> "Cluster":
        """Build ``n`` identical machines named ``node0..node{n-1}``."""
        if n <= 0:
            raise ConfigurationError(f"cluster needs >= 1 machine, got {n}")
        base = base_spec or MachineSpec()
        machines = []
        for i in range(n):
            spec = MachineSpec(
                name=f"node{i}",
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
            machines.append(Machine(spec))
        return cls(machines)

    def add(self, machine: Machine) -> None:
        """Register a machine; names must be unique."""
        name = machine.spec.name
        if name in self._machines:
            raise ConfigurationError(f"duplicate machine name {name!r}")
        self._machines[name] = machine

    def __getitem__(self, name: str) -> Machine:
        try:
            return self._machines[name]
        except KeyError:
            raise ConfigurationError(f"no machine named {name!r}") from None

    def __iter__(self) -> Iterator[Machine]:
        return iter(self._machines.values())

    def __len__(self) -> int:
        return len(self._machines)

    def __contains__(self, name: str) -> bool:
        return name in self._machines

    def names(self) -> List[str]:
        """Machine names in registration order."""
        return list(self._machines)

    @property
    def total_be_instances(self) -> int:
        """BE jobs placed across the whole cluster."""
        return sum(m.be_instance_count for m in self)

    @property
    def total_be_kills(self) -> int:
        """Cumulative BE kills across the whole cluster."""
        return sum(m.counters.be_kills for m in self)

    def snapshot(self) -> "Cluster":
        """An independent copy: every machine snapshotted, same order."""
        return Cluster(machine.snapshot() for machine in self)
