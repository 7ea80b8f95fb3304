"""Event filtering and causality matching (§3.3).

The matcher reconstructs structure from a flat, noisy event stream using
only the deployment knowledge an operator has — which hosts/programs/
listen-ports belong to the service — plus the context and message
identifiers carried by each event. It never reads the ground-truth
``request_id`` field.

Matching rules, straight from the paper:

- **intra-Servpod**: a RECV happens-before the next SEND sharing the
  same context identifier (hostIP, program, pid, tid), paired FIFO in
  timestamp order. For blocking servers one thread serves one request,
  so pairing is exact; for non-blocking servers every request shares the
  event-loop thread and pairing can mis-attribute segments — but the
  *sum* of spans (hence the mean sojourn) is invariant (Figure 5).
- **inter-Servpod**: a SEND happens-before the RECV sharing the same
  message identifier, paired FIFO in timestamp order; with persistent
  TCP connections many requests share a 5-tuple and the same
  sum-preservation argument applies.

All three FIFO rules (plus the client's SEND→RECV latencies) are one
vectorised queue match, :func:`fifo_match`, over an
:class:`~repro.tracing.events.EventTable`'s integer context and flow
codes; :class:`DecodedEvents` resolves each row's Servpod and direction
once per table. :class:`MatchedSegment` and :class:`InterPair` lists are
row views built on request for callers that want objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import CausalityError
from repro.tracing.emitter import CLIENT_IP, CLIENT_PROGRAM, ServpodEndpoint
from repro.tracing.events import RECV, SEND, ContextId, EventTable, SysEvent
from repro.tracing.health import TraceHealth

#: What the matcher accepts: an emitted table or any iterable of rows.
Events = Union[EventTable, Iterable[SysEvent]]


@dataclass(frozen=True)
class MatchedSegment:
    """One local-processing segment at a Servpod: RECV paired with SEND."""

    servpod: str
    recv: SysEvent
    send: SysEvent

    @property
    def span_ms(self) -> float:
        """The segment's duration."""
        return self.send.timestamp - self.recv.timestamp


@dataclass(frozen=True)
class InterPair:
    """A SEND at one endpoint matched to the RECV at its peer."""

    send: SysEvent
    recv: SysEvent


def fifo_match(
    group: np.ndarray, opens: np.ndarray, closes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Pair each close with the oldest pending open of its group.

    Rows are in stream order; ``opens``/``closes`` mark the participating
    rows (a row is at most one of them) and ``group`` says which queue each
    belongs to. A close finding its queue empty stays unmatched. Returns
    the matched ``(open_rows, close_rows)`` in close order, then the
    number of unmatched closes and of unmatched opens.

    Within a group, after the k-th close the match count is
    ``k + min(0, min over closes j <= k of (opens_j - j))``: the queue
    only refuses a close when it has run dry, and then every later
    count is one lower.
    """
    rows = np.flatnonzero(opens | closes)
    rows = rows[np.argsort(group[rows], kind="stable")]
    is_open = opens[rows]
    n_open = int(is_open.sum())
    if len(rows) == n_open:
        return rows[:0], rows[:0], 0, n_open
    g = group[rows]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    start = np.flatnonzero(first)
    gid = np.cumsum(first) - 1
    n_opens = np.cumsum(is_open)
    n_closes = np.cumsum(~is_open)
    opens_before = (n_opens - is_open)[start][gid]
    closes_before = (n_closes - ~is_open)[start][gid]
    close = ~is_open
    c_gid = gid[close]
    c_opens = (n_opens - opens_before)[close]
    c_count = (n_closes - closes_before)[close]
    # Segmented running minimum: shifting each group below the previous
    # ones keeps earlier groups out of its minimum.
    shift = c_gid * (2 * len(rows) + 2)
    deficit = np.minimum(
        np.minimum.accumulate(c_opens - c_count - shift) + shift, 0
    )
    before = np.zeros_like(deficit)
    before[1:] = deficit[:-1]
    before[np.flatnonzero(np.diff(c_gid, prepend=-1))] = 0
    matched = c_opens - c_count >= before
    which = opens_before[close] + c_count + deficit - 1
    open_rows = rows[np.flatnonzero(is_open)][which[matched]]
    close_rows = rows[close][matched]
    order = np.argsort(close_rows)
    n_matched = len(close_rows)
    return (
        open_rows[order],
        close_rows[order],
        int(close.sum()) - n_matched,
        n_open - n_matched,
    )


class DecodedEvents:
    """An event table with each row's identifiers resolved for one service."""

    def __init__(self, table: EventTable, endpoints: Iterable[ServpodEndpoint]) -> None:
        self.table = table
        endpoints = list(endpoints)
        #: Servpod names, indexed by :attr:`pod`.
        self.pods = tuple(ep.servpod for ep in endpoints)
        code = table.codes
        # Per string code (the last slot stands for -1, "no message"):
        host_pod = np.full(len(code) + 1, -1)
        host_program = np.full(len(code) + 1, -2)
        listen = np.full(len(code) + 1, -1)
        for i, ep in enumerate(endpoints):
            ip = code.get(ep.host_ip)
            if ip is not None:
                host_pod[ip] = i
                host_program[ip] = code.get(ep.program, -2)
                listen[ip] = ep.listen_port
        #: Per row: the Servpod index of its context (-1 for other contexts).
        self.pod = np.where(
            host_program[table.host] == table.program, host_pod[table.host], -1
        )
        #: Per row: its context is the load generator's.
        self.client = table.program == code.get(CLIENT_PROGRAM, -2)
        dst_listen = listen[table.dst_ip]
        #: Per row: its message targets a Servpod listen port.
        self.request = (dst_listen >= 0) & (dst_listen == table.dst_port)
        self.recv = table.etype == RECV
        self.send = table.etype == SEND

    def segments(
        self, health: Optional[TraceHealth] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Intra-Servpod RECV→SEND rows per context, FIFO, in SEND order.

        Match and mismatch counts go into ``health`` when given.
        """
        at_pod = self.pod >= 0
        recv, send, unmatched_sends, unmatched_recvs = fifo_match(
            self.table.context_code, self.recv & at_pod, self.send & at_pod
        )
        if health is not None:
            health.segments_matched += len(send)
            health.unmatched_sends += unmatched_sends
            health.unmatched_recvs += unmatched_recvs
        return recv, send

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Inter-Servpod SEND→RECV rows per message flow, FIFO, in RECV order."""
        has_message = self.table.src_ip >= 0
        send, recv, _, _ = fifo_match(
            self.table.flow_code, self.send & has_message, self.recv & has_message
        )
        return send, recv

    def client_latencies(self) -> np.ndarray:
        """Client SEND→RECV spans per context, FIFO, in RECV order."""
        send, recv, _, _ = fifo_match(
            self.table.context_code, self.send & self.client, self.recv & self.client
        )
        return self.table.timestamp[recv] - self.table.timestamp[send]

    def visits(self) -> Dict[str, int]:
        """Per-Servpod count of inbound request RECVs, in first-seen order."""
        pods = self.pod[self.recv & self.request & (self.pod >= 0)]
        counts = np.bincount(pods, minlength=len(self.pods))
        return {self.pods[i]: int(counts[i]) for i in first_seen(pods)}


def first_seen(codes: np.ndarray) -> List[int]:
    """The distinct values of ``codes`` in order of first appearance."""
    first = np.unique(codes, return_index=True)[1]
    return codes[np.sort(first)].tolist()


class CausalityMatcher:
    """Filters noise and matches event causality for one LC service."""

    def __init__(self, endpoints: Dict[str, ServpodEndpoint]) -> None:
        if not endpoints:
            raise CausalityError("matcher needs the service's Servpod endpoints")
        self.endpoints = dict(endpoints)
        self._by_ip = {ep.host_ip: ep for ep in endpoints.values()}
        self._listen_ports = {ep.host_ip: ep.listen_port for ep in endpoints.values()}
        self._known_ips = set(self._by_ip) | {CLIENT_IP}
        self._known_programs = {ep.program for ep in endpoints.values()} | {CLIENT_PROGRAM}

    # -- columnar core -------------------------------------------------------

    def decode(self, events: Events) -> DecodedEvents:
        """``events`` as a table with identifiers resolved for this service."""
        return DecodedEvents(EventTable.from_events(events), self.endpoints.values())

    def clean(self, events: Events) -> DecodedEvents:
        """:meth:`filter` then :meth:`decode`."""
        return self.decode(self.filter(events))

    # -- filtering ----------------------------------------------------------

    def filter(self, events: Events) -> EventTable:
        """Drop events from unrelated processes or communications."""
        table = EventTable.from_events(events)
        code = table.codes
        known_program = np.zeros(len(code), dtype=bool)
        known_program[[code[p] for p in self._known_programs if p in code]] = True
        # the last slot stands for -1, "no message"
        known_ip = np.zeros(len(code) + 1, dtype=bool)
        known_ip[[code[ip] for ip in self._known_ips if ip in code]] = True
        no_message = table.src_ip < 0
        keep = known_program[table.program] & (
            no_message | (known_ip[table.src_ip] & known_ip[table.dst_ip])
        )
        return table.take(keep)

    # -- intra-Servpod causality -----------------------------------------

    def intra_segments(
        self,
        events: Events,
        health: Optional[TraceHealth] = None,
    ) -> List[MatchedSegment]:
        """Pair RECV→SEND per context identifier, FIFO in time order.

        Only Servpod-side events participate (the client's SEND-first
        pattern is handled by :meth:`client_latencies`). A degraded
        stream (dropped/duplicated events) leaves SENDs without a
        pending RECV or RECVs never consumed; pass a
        :class:`~repro.tracing.health.TraceHealth` to have those
        mismatches counted instead of silently ignored.
        """
        decoded = self.decode(events)
        recv, send = decoded.segments(health)
        rows = list(decoded.table)
        pods = decoded.pods
        return [
            MatchedSegment(servpod=pods[pod], recv=rows[r], send=rows[s])
            for r, s, pod in zip(recv.tolist(), send.tolist(), decoded.pod[send].tolist())
        ]

    # -- inter-Servpod causality -------------------------------------------

    def inter_pairs(self, events: Events) -> List[InterPair]:
        """Pair SEND with the peer RECV sharing the message id, FIFO."""
        decoded = self.decode(events)
        send, recv = decoded.pairs()
        rows = list(decoded.table)
        return [InterPair(send=rows[s], recv=rows[r]) for s, r in zip(send.tolist(), recv.tolist())]

    # -- client-side end-to-end latency -----------------------------------------

    def client_latencies(self, events: Events) -> List[float]:
        """End-to-end latencies observed at the client (SEND→RECV pairs)."""
        return self.decode(events).client_latencies().tolist()

    # -- request-direction classification --------------------------------------

    def is_request_direction(self, event: SysEvent) -> bool:
        """True when the event's message targets a Servpod listen port."""
        if event.message is None:
            return False
        port = self._listen_ports.get(event.message.receiver_ip)
        return port is not None and event.message.receiver_port == port

    def entry_recv_count(self, events: Events) -> Dict[str, int]:
        """Per-Servpod count of inbound *request* RECVs (= visits)."""
        return self.decode(events).visits()

    # -- helpers ------------------------------------------------------------

    def servpod_of(self, context: ContextId) -> Optional[str]:
        """The Servpod a context identifier belongs to (None if unknown)."""
        endpoint = self._by_ip.get(context.host_ip)
        if endpoint is None or endpoint.program != context.program:
            return None
        return endpoint.servpod
