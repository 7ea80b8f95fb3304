"""DVFS frequency control and a RAPL-style power model.

The paper's frequency subcontroller monitors socket power via RAPL and,
when power exceeds 80% of TDP, steps the BE cores' frequency down by
100 MHz at a time (as long as the LC service keeps at least its
SLA-required minimum frequency).

We model one frequency domain for LC cores and one for BE cores. Dynamic
power scales with ``f^3`` (voltage tracks frequency), the standard CMOS
approximation, plus a fixed idle floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PowerModel:
    """Socket-level power estimate.

    Attributes
    ----------
    tdp_watts:
        Thermal design power of the machine.
    idle_watts:
        Power drawn with all cores idle.
    active_watts_per_core:
        Additional power of one fully-busy core at maximum frequency.
    """

    tdp_watts: float = 115.0
    idle_watts: float = 30.0
    active_watts_per_core: float = 2.0

    def power(
        self,
        busy_cores_lc: float,
        freq_ratio_lc: float,
        busy_cores_be: float,
        freq_ratio_be: float,
    ) -> float:
        """Estimate machine power draw in watts.

        ``busy_cores_*`` are effective busy core counts; ``freq_ratio_*``
        are current frequency / max frequency.
        """
        dynamic = self.active_watts_per_core * (
            busy_cores_lc * freq_ratio_lc**3 + busy_cores_be * freq_ratio_be**3
        )
        return self.idle_watts + dynamic

    def headroom(self, current_watts: float, cap_fraction: float = 0.8) -> float:
        """Watts remaining below ``cap_fraction`` × TDP (negative if over)."""
        return cap_fraction * self.tdp_watts - current_watts


class DvfsGovernor:
    """Per-domain frequency control with a fixed step size.

    Parameters
    ----------
    min_mhz, max_mhz:
        Frequency range of the part (defaults match a 2.0 GHz Xeon with a
        1.2 GHz floor).
    step_mhz:
        Adjustment granularity; the paper uses 100 MHz.
    """

    def __init__(self, min_mhz: int = 1200, max_mhz: int = 2000, step_mhz: int = 100) -> None:
        if not (0 < min_mhz <= max_mhz):
            raise ConfigurationError(f"invalid frequency range [{min_mhz}, {max_mhz}]")
        if step_mhz <= 0 or (max_mhz - min_mhz) % step_mhz != 0:
            raise ConfigurationError(
                f"step {step_mhz} MHz must evenly divide the range "
                f"[{min_mhz}, {max_mhz}]"
            )
        self.min_mhz = int(min_mhz)
        self.max_mhz = int(max_mhz)
        self.step_mhz = int(step_mhz)
        self._freq: dict[str, int] = {}
        self._cap: dict[str, int] = {}

    def frequency(self, domain: str) -> int:
        """Current frequency of ``domain`` in MHz (domains start at max).

        A hardware cap (see :meth:`set_cap`) bounds the effective
        frequency regardless of what the governor requested.
        """
        freq = self._freq.get(domain, self.max_mhz)
        cap = self._cap.get(domain)
        return min(freq, cap) if cap is not None else freq

    def requested(self, domain: str) -> int:
        """The governor's requested frequency of ``domain`` in MHz.

        Unlike :meth:`frequency`, not clamped by a hardware cap: the
        request is what the next step starts from once a cap lifts.
        """
        return self._freq.get(domain, self.max_mhz)

    def ratio(self, domain: str) -> float:
        """Current frequency of ``domain`` as a fraction of max."""
        return self.frequency(domain) / self.max_mhz

    def step_down(self, domain: str) -> int:
        """Lower ``domain`` by one step (clamped at min); returns new MHz."""
        self._freq[domain] = max(self.min_mhz, self.frequency(domain) - self.step_mhz)
        return self.frequency(domain)

    def step_up(self, domain: str) -> int:
        """Raise ``domain`` by one step (clamped at max); returns new MHz."""
        self._freq[domain] = min(self.max_mhz, self.frequency(domain) + self.step_mhz)
        return self.frequency(domain)

    def reset(self, domain: str) -> None:
        """Return ``domain`` to maximum frequency (a cap still applies)."""
        self._freq.pop(domain, None)

    # -- hardware frequency caps (fault injection) ----------------------

    def cap(self, domain: str) -> "int | None":
        """The hardware cap on ``domain`` in MHz, or ``None``."""
        return self._cap.get(domain)

    def set_cap(self, domain: str, mhz: int) -> None:
        """Pin a hardware ceiling on ``domain`` (thermal/firmware fault).

        The governor's requested frequency is preserved; the *effective*
        frequency reported by :meth:`frequency` is clamped to the cap
        until :meth:`clear_cap` lifts it — exactly how a stuck thermal
        limit behaves: ``reset``/``step_up`` appear to succeed but the
        silicon never speeds up.
        """
        if not (self.min_mhz <= mhz <= self.max_mhz):
            raise ConfigurationError(
                f"cap {mhz} MHz outside [{self.min_mhz}, {self.max_mhz}]"
            )
        self._cap[domain] = int(mhz)

    def clear_cap(self, domain: str) -> None:
        """Lift the hardware cap on ``domain``."""
        self._cap.pop(domain, None)

    def set_frequency(self, domain: str, mhz: int) -> None:
        """Pin ``domain`` to an explicit frequency within the legal range."""
        if not (self.min_mhz <= mhz <= self.max_mhz):
            raise ConfigurationError(
                f"{mhz} MHz outside [{self.min_mhz}, {self.max_mhz}]"
            )
        self._freq[domain] = int(mhz)
