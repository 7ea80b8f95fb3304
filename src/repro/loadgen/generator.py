"""Per-window request generation.

The simulator samples request latencies per measurement window rather
than simulating every packet; :class:`WindowLoadGenerator` decides how
many requests arrive in a window (Poisson around ``load × MaxLoad``) and
how many of them to actually sample for latency estimation (capped, so a
Redis window of 86 000 requests costs the same as an Elgg window of 200).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.loadgen.patterns import LoadPattern


@dataclass(frozen=True)
class WindowArrivals:
    """Arrivals of one measurement window.

    ``load`` is the smooth pattern value — what a monitoring stack
    reports as "current load". ``realized_load`` additionally carries
    the window's burst factor; it drives queueing (latency) and actual
    resource consumption.
    """

    t_start: float
    duration_s: float
    load: float
    realized_load: float
    n_requests: int
    n_samples: int


class WindowLoadGenerator:
    """Generates per-window arrival counts for one LC service."""

    def __init__(
        self,
        pattern: LoadPattern,
        max_qps: float,
        rng: np.random.Generator,
        sample_cap: int = 400,
        min_samples: int = 50,
        burst_sigma: float = 0.05,
    ) -> None:
        if max_qps <= 0:
            raise ConfigurationError(f"max_qps must be positive, got {max_qps}")
        if sample_cap <= 0 or min_samples <= 0 or min_samples > sample_cap:
            raise ConfigurationError(
                f"invalid sampling bounds min={min_samples} cap={sample_cap}"
            )
        if burst_sigma < 0:
            raise ConfigurationError(f"burst_sigma must be >= 0, got {burst_sigma}")
        self.pattern = pattern
        self.max_qps = float(max_qps)
        self.rng = rng
        self.sample_cap = int(sample_cap)
        self.min_samples = int(min_samples)
        self.burst_sigma = float(burst_sigma)

    def snapshot(self, rng: np.random.Generator) -> "WindowLoadGenerator":
        """A copy drawing from ``rng`` (the forked registry's arrival stream)."""
        clone = object.__new__(WindowLoadGenerator)
        clone.__dict__.update(self.__dict__)
        clone.rng = rng
        return clone

    def window(self, t_start: float, duration_s: float) -> WindowArrivals:
        """Arrivals for the window starting at ``t_start``.

        The window's realised load carries a lognormal burst factor on
        top of the pattern: production traffic fluctuates at time scales
        below the control period, which is what makes riding close to
        the SLA dangerous (a burst landing on a loaded window violates
        before any controller can react).
        """
        if duration_s <= 0:
            raise ConfigurationError(f"window must be positive, got {duration_s}")
        load = float(self.pattern.load_at(t_start + duration_s / 2.0))
        load = min(1.0, max(0.0, load))
        realized = load
        if self.burst_sigma > 0:
            realized *= float(np.exp(self.rng.normal(0.0, self.burst_sigma)))
        realized = min(1.0, max(0.0, realized))
        expected = realized * self.max_qps * duration_s
        n_requests = int(self.rng.poisson(expected)) if expected > 0 else 0
        n_samples = 0
        if n_requests > 0:
            n_samples = int(min(self.sample_cap, max(self.min_samples, n_requests)))
            n_samples = min(n_samples, max(n_requests, self.min_samples))
        return WindowArrivals(
            t_start=t_start,
            duration_s=duration_s,
            load=load,
            realized_load=realized,
            n_requests=n_requests,
            n_samples=n_samples,
        )
