"""Sojourn-time extraction from matched event streams.

Two extraction modes, mirroring §3.3:

- :meth:`SojournExtractor.per_request` — exact per-request sojourns via
  full CPG reconstruction (blocking servers, ephemeral connections). The
  offline profiler uses this: it controls the solo-run stress test, so it
  can arrange instrumentation-friendly conditions.
- :meth:`SojournExtractor.mean_only` — aggregate mean sojourns that stay
  *exact even when RECV/SEND pairing is scrambled* by non-blocking
  threads or persistent connections, because FIFO pairing preserves the
  sum of spans (the paper's Figure-5 argument: ``Σ(S_k − R_k)`` is
  invariant under permutations of equal-cardinality matchings).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TracingError
from repro.metrics.streaming import WelfordAccumulator
from repro.tracing.causality import CausalityMatcher, DecodedEvents, Events, first_seen
from repro.tracing.cpg import CausalPathGraph
from repro.tracing.events import EventTable
from repro.tracing.health import TraceHealth


@dataclass(frozen=True)
class SojournStats:
    """Summary of one Servpod's sojourn times at one load level."""

    servpod: str
    n_requests: int
    mean_ms: float
    #: Standard deviation across requests (0 when only means are known).
    std_ms: float

    @property
    def cov(self) -> float:
        """Coefficient of variation across requests."""
        return self.std_ms / self.mean_ms if self.mean_ms > 0 else 0.0


class SojournExtractor:
    """Turns an event stream into per-Servpod sojourn statistics."""

    def __init__(self, matcher: CausalityMatcher) -> None:
        self.matcher = matcher

    def per_request(self, events: Events) -> Dict[str, List[float]]:
        """Exact per-request sojourn lists per Servpod (blocking traces)."""
        cpg = CausalPathGraph(self.matcher)
        paths = cpg.reconstruct_requests(events)
        if not paths:
            raise TracingError("no requests could be reconstructed from the trace")
        out: Dict[str, List[float]] = defaultdict(list)
        for path in paths:
            for pod, sojourn in path.sojourns.items():
                out[pod].append(sojourn)
        return dict(out)

    def e2e_latencies(self, events: Events) -> List[float]:
        """Client-observed end-to-end latencies (ms)."""
        return self.matcher.client_latencies(self.matcher.filter(events))

    def mean_only(self, events: Events) -> Dict[str, SojournStats]:
        """Mismatch-proof mean sojourns: (ΣSEND − ΣRECV) / #visits.

        ``std_ms`` is reported as 0 because individual spans are not
        trustworthy under scrambled pairings — only their sum is.
        """
        trace = self.matcher.clean(events)
        visits = trace.visits()
        span_sum, _ = _span_sums(trace)
        stats = {}
        for pod, total in span_sum.items():
            n = visits.get(pod, 0)
            if n == 0:
                raise TracingError(f"segments matched at {pod!r} but no entry RECVs")
            stats[pod] = SojournStats(
                servpod=pod, n_requests=n, mean_ms=total / n, std_ms=0.0
            )
        return stats

    def robust_stats(
        self, events: Events
    ) -> Tuple[Dict[str, SojournStats], TraceHealth]:
        """Mean sojourns from a possibly corrupted stream: skip and flag.

        The tolerant sibling of :meth:`mean_only` for traces degraded by
        event drop/duplication/late delivery (see
        :mod:`repro.faults.tracing`). Instead of raising on broken
        invariants it degrades gracefully and reports *how* degraded the
        stream was through a :class:`~repro.tracing.health.TraceHealth`:

        - negative spans (late-delivered SEND timestamps) clamp to 0,
        - a pod whose entry RECVs were all dropped estimates its visit
          count from its matched segment count (flagged),
        - a pod with neither segments nor visits is skipped (flagged),
        - every mean is bounded by the worst observable client latency
          (duplicated events inflate span sums; a sojourn can never
          exceed the end-to-end time of the slowest request).
        """
        health = TraceHealth()
        raw = EventTable.from_events(events)
        health.events_seen = len(raw)
        trace = self.matcher.clean(raw)
        health.events_filtered = len(raw) - len(trace.table)
        span_sum, span_count = _span_sums(trace, health)
        visits = trace.visits()
        e2e = trace.client_latencies()
        bound = float(e2e.max()) if len(e2e) else None
        stats: Dict[str, SojournStats] = {}
        for pod in sorted(set(span_sum) | set(visits)):
            n = visits.get(pod, 0)
            if n == 0:
                n = span_count.get(pod, 0)
                if n == 0:
                    health.flag_skipped(pod)
                    continue
                health.flag_estimated(pod)
            mean = span_sum.get(pod, 0.0) / n
            if bound is not None and mean > bound:
                health.means_bounded += 1
                mean = bound
            stats[pod] = SojournStats(
                servpod=pod, n_requests=n, mean_ms=mean, std_ms=0.0
            )
        return stats, health

    def stats(self, events: Events) -> Dict[str, SojournStats]:
        """Full per-request statistics (mean, std, CoV) per Servpod.

        Uses single-pass Welford accumulation instead of the naive
        two-pass mean/variance, so the per-pod sample lists are consumed
        in one sweep with O(1) extra memory per pod.
        """
        per_request = self.per_request(events)
        out = {}
        for pod, values in per_request.items():
            acc = WelfordAccumulator()
            acc.add_many(values)
            out[pod] = SojournStats(
                servpod=pod,
                n_requests=acc.count,
                mean_ms=acc.mean,
                std_ms=acc.std(ddof=1),
            )
        return out


def _span_sums(
    trace: DecodedEvents, health: Optional[TraceHealth] = None
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-Servpod span sums and counts of the matched segments.

    Sums run in segment order and are keyed in first-seen order. Given a
    ``health`` record (the tolerant path), negative spans — late-delivered
    SENDs — count as 0 and are tallied there with the match counts.
    """
    recv, send = trace.segments(health)
    t = trace.table.timestamp
    spans = t[send] - t[recv]
    if health is not None:
        negative = spans < 0
        health.spans_clamped += int(negative.sum())
        spans = np.where(negative, 0.0, spans)
    pod = trace.pod[send]
    totals = np.zeros(len(trace.pods))
    np.add.at(totals, pod, spans)
    counts = np.bincount(pod, minlength=len(trace.pods))
    order = first_seen(pod)
    return (
        {trace.pods[i]: float(totals[i]) for i in order},
        {trace.pods[i]: int(counts[i]) for i in order},
    )
