"""Declarative, seeded fault specifications.

A :class:`FaultSpec` names one disturbance — what kind, which machine,
when, for how long, how severe. A :class:`FaultSchedule` is an immutable,
time-sorted collection of specs, either hand-built or drawn from a seeded
generator: :meth:`FaultSchedule.generate` derives every random choice
from a SHA-256 of the seed, so the same seed always produces the *same*
schedule — byte-for-byte identical ``repr`` — no matter the platform,
process, or ``PYTHONHASHSEED``. That reproducibility is what makes a
chaos run a regression test instead of a dice roll.

Magnitudes are normalized severities in ``(0, 1]``; each injector maps
them onto its resource's units (cores, MHz steps, cache ways, link
scale, stall factor) — see :mod:`repro.faults.cluster`.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultError

#: Matches every machine in the cluster (a correlated failure).
ALL_TARGETS = "*"


class FaultKind(enum.Enum):
    """The cluster-layer disturbances the injector can apply.

    Each models a real degradation mode the controller must survive;
    DESIGN.md maps every kind to the production failure it stands for.
    """

    CORE_OFFLINE = "core_offline"      # cores removed from the schedulable set
    DVFS_CAP = "dvfs_cap"              # frequency stuck below max
    LLC_WAY_LOSS = "llc_way_loss"      # cache ways lost to faulty SRAM
    NIC_DEGRADE = "nic_degrade"        # link renegotiated to a lower rate
    MACHINE_STALL = "machine_stall"    # transient whole-machine slowdown


#: Default kind mix for generated schedules (uniform over all kinds).
DEFAULT_KINDS: Tuple[FaultKind, ...] = tuple(FaultKind)


def _require_finite(what: str, at_s, duration_s, magnitude) -> None:
    """Reject NaN/inf windows and severities.

    A NaN start compares false against every tick time (so the fault
    would apply on the first tick and, with a NaN end, never revert),
    and NaN sort keys make schedule order depend on input order.
    """
    for field_name, value in (
        ("at_s", at_s),
        ("duration_s", duration_s),
        ("magnitude", magnitude),
    ):
        if not math.isfinite(value):
            raise FaultError(f"{what} {field_name} must be finite, got {value}")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: kind, target machine, window, severity."""

    kind: FaultKind
    target: str = ALL_TARGETS
    at_s: float = 0.0
    duration_s: float = 30.0
    magnitude: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise FaultError(f"kind must be a FaultKind, got {self.kind!r}")
        if not self.target:
            raise FaultError("fault target must be a machine name or '*'")
        _require_finite("fault", self.at_s, self.duration_s, self.magnitude)
        if self.at_s < 0:
            raise FaultError(f"fault start must be >= 0, got {self.at_s}")
        if self.duration_s <= 0:
            raise FaultError(f"fault duration must be > 0, got {self.duration_s}")
        if not (0.0 < self.magnitude <= 1.0):
            raise FaultError(
                f"fault magnitude must be in (0, 1], got {self.magnitude}"
            )

    @property
    def end_s(self) -> float:
        """First instant the fault is no longer active."""
        return self.at_s + self.duration_s

    def active_at(self, t: float) -> bool:
        """True while the fault is applied (start inclusive, end exclusive)."""
        return self.at_s <= t < self.end_s

    def applies_to(self, machine_name: str) -> bool:
        """True when this fault targets ``machine_name``."""
        return self.target == ALL_TARGETS or self.target == machine_name


def _derived_rng(seed: int, salt: str) -> np.random.Generator:
    """A generator whose state is a pure function of ``(seed, salt)``."""
    digest = hashlib.sha256(f"{salt}:{seed}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted set of faults plus the seed that made it."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.faults,
                key=lambda f: (f.at_s, f.kind.value, f.target, f.magnitude),
            )
        )
        object.__setattr__(self, "faults", ordered)

    @classmethod
    def generate(
        cls,
        seed: int,
        duration_s: float,
        targets: Sequence[str] = (ALL_TARGETS,),
        faults_per_minute: float = 2.0,
        kinds: Optional[Sequence[FaultKind]] = None,
        min_duration_s: float = 10.0,
        max_duration_s: float = 60.0,
        min_magnitude: float = 0.2,
        max_magnitude: float = 0.9,
    ) -> "FaultSchedule":
        """A seeded storm: same seed, same schedule, bit-for-bit.

        Draws ``round(faults_per_minute * duration_s / 60)`` faults with
        kind, target, start, duration and magnitude all taken from one
        seed-derived RNG, then freezes them time-sorted. Start times are
        drawn over ``[0, duration_s)`` and windows are clipped to end by
        ``duration_s`` (a fault that outlives the run is just active to
        the end).
        """
        if duration_s <= 0:
            raise FaultError(f"storm duration must be > 0, got {duration_s}")
        if faults_per_minute < 0:
            raise FaultError(
                f"faults_per_minute must be >= 0, got {faults_per_minute}"
            )
        if not targets:
            raise FaultError("need at least one fault target")
        if not (0.0 < min_magnitude <= max_magnitude <= 1.0):
            raise FaultError(
                f"magnitude range ({min_magnitude}, {max_magnitude}] invalid"
            )
        if not (0.0 < min_duration_s <= max_duration_s):
            raise FaultError(
                f"duration range [{min_duration_s}, {max_duration_s}] invalid"
            )
        kind_pool = tuple(kinds) if kinds else DEFAULT_KINDS
        if not kind_pool:
            raise FaultError("need at least one fault kind")
        count = int(round(faults_per_minute * duration_s / 60.0))
        rng = _derived_rng(seed, "fault-schedule")
        faults = []
        for _ in range(count):
            kind = kind_pool[int(rng.integers(len(kind_pool)))]
            target = targets[int(rng.integers(len(targets)))]
            at_s = float(rng.uniform(0.0, duration_s))
            window = float(rng.uniform(min_duration_s, max_duration_s))
            duration = max(min_duration_s, min(window, duration_s - at_s))
            magnitude = float(rng.uniform(min_magnitude, max_magnitude))
            faults.append(
                FaultSpec(
                    kind=kind,
                    target=str(target),
                    at_s=at_s,
                    duration_s=duration,
                    magnitude=magnitude,
                )
            )
        return cls(seed=seed, faults=tuple(faults))

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def for_target(self, machine_name: str) -> Tuple[FaultSpec, ...]:
        """Every fault that applies to ``machine_name``."""
        return tuple(f for f in self.faults if f.applies_to(machine_name))

    def active_at(self, t: float) -> Tuple[FaultSpec, ...]:
        """Every fault whose window covers instant ``t``."""
        return tuple(f for f in self.faults if f.active_at(t))

    def starting_in(self, t0: float, t1: float) -> Tuple[FaultSpec, ...]:
        """Faults whose start falls in ``[t0, t1)``."""
        return tuple(f for f in self.faults if t0 <= f.at_s < t1)

    def counts_by_kind(self) -> Dict[str, int]:
        """How many faults of each kind the schedule holds."""
        counts: Dict[str, int] = {}
        for f in self.faults:
            counts[f.kind.value] = counts.get(f.kind.value, 0) + 1
        return counts
