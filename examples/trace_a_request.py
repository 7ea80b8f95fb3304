#!/usr/bin/env python3
"""The non-intrusive request tracer, end to end (§3.3, Figure 4).

Drives a burst of requests through the four-tier E-commerce website,
emits the ACCEPT/RECV/SEND/CLOSE kernel-event stream a SystemTap probe
would capture (including unrelated-process noise), and reconstructs:

- the causal path graph of the service (Figure 4),
- per-request sojourn times per Servpod,
- the mean-sojourn invariance under non-blocking/persistent-TCP traces
  (the Figure 5 argument).

Usage::

    python examples/trace_a_request.py
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

import networkx as nx
import numpy as np

from repro import RandomStreams, lc_service_spec
from repro.tracing import (
    CausalityMatcher,
    CausalPathGraph,
    EmitterConfig,
    SojournExtractor,
    TraceEmitter,
)
from repro.tracing.emitter import default_endpoints
from repro.tracing.sojourn import SojournStats
from repro.workloads.service import Service
from repro.workloads.spec import ServiceSpec


class Traced(NamedTuple):
    """What the clean trace recovered, next to the ground truth."""

    service: ServiceSpec
    graph: nx.DiGraph
    stats: Dict[str, SojournStats]
    truth: Dict[str, List[float]]


def main() -> Traced:
    service = lc_service_spec("E-commerce")
    svc = Service(service, RandomStreams(7))
    records = svc.build_request_records(load=0.5, n=200)
    endpoints = default_endpoints(service.servpod_names)

    # --- the clean case: blocking servers, ephemeral connections -----------
    emitter = TraceEmitter(endpoints, EmitterConfig(noise_per_request=4, seed=1))
    events = emitter.emit(records)
    print(f"Captured {len(events)} kernel events for {len(records)} requests "
          f"(including noise from unrelated processes).")

    matcher = CausalityMatcher(endpoints)
    clean = matcher.filter(events)
    print(f"After identifier-based filtering: {len(clean)} events remain.")
    print()

    cpg = CausalPathGraph(matcher)
    graph = cpg.aggregate_graph(events)
    print("Reconstructed causal path graph (Figure 4):")
    for src, dst in sorted(graph.edges):
        print(f"  {src} -> {dst}")
    print()

    extractor = SojournExtractor(matcher)
    stats = extractor.stats(events)
    truth = {}
    for record in records:
        for pod, sojourn in record.sojourn_by_servpod().items():
            truth.setdefault(pod, []).append(sojourn)
    print("Per-Servpod sojourn statistics (tracer vs ground truth):")
    print(f"  {'Servpod':10s} {'traced mean':>12s} {'true mean':>10s} {'CoV':>6s}")
    for pod in service.servpod_names:
        stat = stats[pod]
        print(f"  {pod:10s} {stat.mean_ms:9.3f} ms {np.mean(truth[pod]):7.3f} ms "
              f"{stat.cov:6.3f}")
    print()

    # --- the hard case: non-blocking event loops + persistent TCP ----------
    scrambled = TraceEmitter(
        endpoints,
        EmitterConfig(blocking=False, persistent_connections=True,
                      noise_per_request=4, seed=2),
    ).emit(records)
    means = SojournExtractor(CausalityMatcher(endpoints)).mean_only(scrambled)
    print("Non-blocking + persistent-TCP trace (pairings are ambiguous, but")
    print("the sums — hence the means — are invariant; the paper's Fig. 5):")
    for pod in service.servpod_names:
        print(f"  {pod:10s} mean-only estimate {means[pod].mean_ms:9.3f} ms "
              f"(truth {np.mean(truth[pod]):7.3f} ms)")
    return Traced(service, graph, stats, truth)


if __name__ == "__main__":
    main()
