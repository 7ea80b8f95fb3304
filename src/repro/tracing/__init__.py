"""Non-intrusive request tracing (§3.3 of the paper).

The real system derives per-Servpod sojourn times from four kernel events
captured with SystemTap — ACCEPT, RECV, SEND, CLOSE — each tagged with a
*context identifier* (hostIP, program, pid, tid) and a *message
identifier* (the TCP 5-tuple). This package reproduces that pipeline:

- :mod:`repro.tracing.events` — the columnar :class:`EventTable` (one
  numpy column per field, sorted once when built) and its row type
  :class:`SysEvent` with the identifier types,
- :mod:`repro.tracing.emitter` — generates realistic event tables from
  request executions, including unrelated-process noise, non-blocking
  thread reordering and persistent-TCP message-id reuse,
- :mod:`repro.tracing.causality` — filtering and intra-/inter-Servpod
  FIFO matching on the table's integer codes,
- :mod:`repro.tracing.cpg` — causal path graph construction (Figure 4),
  walking matched row indices; networkx graphs are built on demand,
- :mod:`repro.tracing.sojourn` — sojourn-time extraction, including the
  paper's mean-preservation argument for mismatched pairings,
- :mod:`repro.tracing.jaeger` — the built-in tracer used for SNMS.

Every matcher and extractor method accepts an :class:`EventTable` or any
iterable of :class:`SysEvent` rows (converted with
:meth:`EventTable.from_events`).
"""

from repro.tracing.events import ContextId, EventTable, EventType, MessageId, SysEvent
from repro.tracing.emitter import EmitterConfig, ServpodEndpoint, TraceEmitter
from repro.tracing.causality import CausalityMatcher, MatchedSegment
from repro.tracing.cpg import CausalPathGraph
from repro.tracing.sojourn import SojournExtractor, SojournStats
from repro.tracing.jaeger import JaegerTracer

__all__ = [
    "ContextId",
    "EventTable",
    "EventType",
    "MessageId",
    "SysEvent",
    "EmitterConfig",
    "ServpodEndpoint",
    "TraceEmitter",
    "CausalityMatcher",
    "MatchedSegment",
    "CausalPathGraph",
    "SojournExtractor",
    "SojournStats",
    "JaegerTracer",
]
