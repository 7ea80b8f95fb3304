"""Synthetic kernel-event stream generation.

:class:`TraceEmitter` turns timestamped request executions
(:class:`~repro.workloads.request.RequestRecord`) into the flat, global,
noisy stream of ACCEPT/RECV/SEND/CLOSE events a SystemTap probe would
capture — which the causality matcher must then untangle.

Realism knobs (all per the paper's §3.3 discussion):

- **noise events** from unrelated processes and communications, which the
  matcher must filter via context/message identifiers;
- **blocking vs non-blocking** Servpods: blocking servers use one thread
  per in-flight request (thread id identifies the request within a pod);
  non-blocking servers multiplex every request onto one event-loop thread,
  so order-based RECV/SEND pairing can mis-attribute segments (Figure 5);
- **ephemeral vs persistent TCP**: ephemeral connections give every
  request-edge a unique 5-tuple; persistent connections reuse one 5-tuple
  per Servpod pair, making inter-Servpod matching ambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import TracingError
from repro.tracing.events import ACCEPT, CLOSE, RECV, SEND, COLUMNS, EventTable
from repro.workloads.request import RequestRecord

#: The client's synthetic endpoint.
CLIENT_IP = "10.0.0.1"
CLIENT_PROGRAM = "loadgen"

#: Base for ephemeral source ports.
_EPHEMERAL_BASE = 20000
#: Fixed source port used by persistent connections.
_PERSISTENT_PORT = 4000

#: Bounds of the full-range int64 draw behind the noise's SEND/RECV coin.
_INT64 = np.iinfo(np.int64)

#: Programs of the unrelated processes that make up the noise.
_NOISE_PROGRAMS = ("kworker", "sshd", "systemd-journal", "cron")

#: Event types of one caller→callee edge, in capture order: SEND at the
#: caller, (ACCEPT,) RECV at the callee, SEND at the callee, RECV at the
#: caller, (CLOSE) — ACCEPT and CLOSE only on client edges.
_EDGE_ETYPES = np.array([SEND, ACCEPT, RECV, SEND, RECV, CLOSE])


@dataclass(frozen=True)
class ServpodEndpoint:
    """Network identity of one Servpod."""

    servpod: str
    host_ip: str
    program: str
    pid: int
    listen_port: int


@dataclass
class EmitterConfig:
    """Behavioural knobs of the emitted trace."""

    blocking: bool = True
    persistent_connections: bool = False
    #: Noise events per request (unrelated processes + communications).
    noise_per_request: float = 2.0
    #: Emit per-request ACCEPT/CLOSE at the entry Servpod.
    emit_accept_close: bool = True
    #: One-way network transit between endpoints (must match the hop used
    #: when the request executions were built, so a SEND's timestamp
    #: strictly precedes its peer RECV's).
    hop_ms: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("noise_per_request", "hop_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise TracingError(f"{name} must be finite and >= 0, got {value!r}")


def default_endpoints(servpods: Iterable[str]) -> Dict[str, ServpodEndpoint]:
    """Assign deterministic IPs/ports/pids to Servpods in order."""
    endpoints = {}
    for i, name in enumerate(servpods):
        endpoints[name] = ServpodEndpoint(
            servpod=name,
            host_ip=f"10.0.1.{i + 10}",
            program=name,
            pid=1000 + i,
            listen_port=7000 + i,
        )
    return endpoints


class TraceEmitter:
    """Generates a global kernel-event stream from request executions."""

    def __init__(
        self,
        endpoints: Dict[str, ServpodEndpoint],
        config: Optional[EmitterConfig] = None,
    ) -> None:
        if not endpoints:
            raise TracingError("emitter needs at least one Servpod endpoint")
        self.endpoints = dict(endpoints)
        self.config = config or EmitterConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._port_counter = 0

    # -- public API ----------------------------------------------------------

    def emit(self, records: Iterable[RequestRecord]) -> EventTable:
        """Emit the time-sorted event stream for ``records`` (plus noise)."""
        strings: Dict[str, int] = {}
        columns, n_requests = self._emit_requests(records, strings)
        if len(columns["timestamp"]):
            t = columns["timestamp"]
            noise = self._emit_noise(n_requests, t.min(), t.max(), strings)
            columns = {name: np.concatenate([col, noise[name]]) for name, col in columns.items()}
        return EventTable.from_columns(list(strings), columns)

    # -- request expansion -----------------------------------------------

    def _emit_requests(
        self, records: Iterable[RequestRecord], strings: Dict[str, int]
    ) -> Tuple[Dict[str, np.ndarray], int]:
        """Columns of every caller→callee edge's events, and the request count.

        Four data events per edge: SEND at the caller, RECV at the callee
        (request direction), then SEND at the callee and RECV at the
        caller (reply direction); client edges add ACCEPT and CLOSE at the
        entry Servpod. Rows come edge by edge in record order, each edge's
        events in :data:`_EDGE_ETYPES` order, so the stable sort breaks
        timestamp ties as the capture would.
        """
        # Endpoint 0 is the client; Servpods follow in registration order.
        index = {name: i for i, name in enumerate(self.endpoints, start=1)}
        edges = []
        n_requests = 0
        for record in records:
            n_requests += 1
            segments = {seg.seg_id: seg for seg in record.segments}
            for seg in record.segments:
                parent = segments.get(seg.parent_seg)
                edges.append((
                    0 if parent is None else self._index(index, parent.servpod),
                    self._index(index, seg.servpod),
                    record.t_start,
                    seg.arrive,
                    seg.depart,
                    record.request_id,
                ))
        if not edges:
            return {name: np.zeros(0, dtype=dtype) for name, dtype in COLUMNS.items()}, n_requests
        caller, callee, t0, arrive, depart, rid = (np.array(col) for col in zip(*edges))
        n_edges = len(edges)
        size = self._rng.integers(200, 4000, size=n_edges)
        if self.config.persistent_connections:
            port = np.full(n_edges, _PERSISTENT_PORT)
        else:  # ephemeral: a fresh source port per edge
            port = _EPHEMERAL_BASE + self._port_counter + np.arange(1, n_edges + 1)
            self._port_counter += n_edges

        code = lambda s: strings.setdefault(s, len(strings))  # noqa: E731
        eps = list(self.endpoints.values())
        ip = np.array([code(CLIENT_IP)] + [code(ep.host_ip) for ep in eps])
        program = np.array([code(CLIENT_PROGRAM)] + [code(ep.program) for ep in eps])
        pid = np.array([1] + [ep.pid for ep in eps])
        listen = np.array([-1] + [ep.listen_port for ep in eps])[callee]
        tid = rid if self.config.blocking else np.ones(n_edges, dtype=np.int64)

        def slots(*cols):
            """An (edge, slot) matrix; one column fills every slot."""
            cols = cols * len(_EDGE_ETYPES) if len(cols) == 1 else cols
            return np.stack([np.broadcast_to(col, (n_edges,)) for col in cols], axis=1)

        # Request executions place the callee's arrival/departure stamps;
        # the wire adds one hop on each direction.
        hop = self.config.hop_ms
        t_in, t_out = t0 + arrive, t0 + depart
        none = -1
        where = slots(caller, callee, callee, callee, caller, callee)
        keep = np.ones((n_edges, len(_EDGE_ETYPES)), dtype=bool)
        at_entry = (_EDGE_ETYPES == ACCEPT) | (_EDGE_ETYPES == CLOSE)
        keep[:, at_entry] = (caller == 0)[:, None] & self.config.emit_accept_close
        columns = {
            "timestamp": slots(t_in - hop, t_in, t_in, t_out, t_out + hop, t_out),
            "etype": slots(*_EDGE_ETYPES),
            "host": ip[where],
            "program": program[where],
            "pid": pid[where],
            "tid": slots(tid),
            # request messages flow caller→callee, replies callee→caller
            "src_ip": slots(ip[caller], none, ip[caller], ip[callee], ip[callee], none),
            "src_port": slots(port, none, port, listen, listen, none),
            "dst_ip": slots(ip[callee], none, ip[callee], ip[caller], ip[caller], none),
            "dst_port": slots(listen, none, listen, port, port, none),
            "size": slots(size, none, size, size, size, none),
            "request_id": slots(rid),
        }
        return {name: col[keep] for name, col in columns.items()}, n_requests

    # -- identity helpers ------------------------------------------------

    @staticmethod
    def _index(index: Dict[str, int], servpod: str) -> int:
        try:
            return index[servpod]
        except KeyError:
            raise TracingError(f"no endpoint registered for Servpod {servpod!r}") from None

    # -- noise -----------------------------------------------------------------

    def _emit_noise(
        self, n_requests: int, t_min: float, t_max: float, strings: Dict[str, int]
    ) -> Dict[str, np.ndarray]:
        """Unrelated-process events the matcher must filter out."""
        n = int(round(self.config.noise_per_request * n_requests))
        times = self._rng.uniform(t_min, t_max, size=n) if n else np.zeros(0)
        # Per event, in draw order: the Servpod host, the program, pid and
        # tid, a fair SEND/RECV coin, two sender-IP octets, the sender and
        # receiver ports and the size. numpy draws array-bounded integers
        # element by element exactly as it draws scalars, so one call makes
        # the same draws as one call per field. The coin is a full-range
        # draw: a uniform double is its raw 64 bits >> 11 times 2**-53, so
        # it is below 0.5 exactly when the raw draw is below 2**63, i.e.
        # when the full-range int64 draw is negative.
        low = np.array([0, 0, 2, 1, _INT64.min, 0, 1, 1024, 1024, 40])
        high = np.array(
            [len(self.endpoints) - 1, len(_NOISE_PROGRAMS) - 1, 998, 63,
             _INT64.max, 254, 254, 65534, 65534, 1499]
        )
        draws = self._rng.integers(
            np.tile(low, n), np.tile(high, n), endpoint=True
        ).reshape(n, len(low))
        host, program, pid, tid, coin, octet3, octet4, sport, dport, size = draws.T
        code = lambda s: strings.setdefault(s, len(strings))  # noqa: E731
        pod_ips = np.array([code(pod.host_ip) for pod in self.endpoints.values()])
        programs = np.array([code(program) for program in _NOISE_PROGRAMS])
        senders = [code(f"172.16.{a}.{b}") for a, b in zip(octet3.tolist(), octet4.tolist())]
        host = pod_ips[host]
        return {
            "timestamp": times,
            "etype": np.where(coin < 0, SEND, RECV),
            "host": host,
            "program": programs[program],
            "pid": pid,
            "tid": tid,
            "src_ip": np.array(senders, dtype=np.int64),
            "src_port": sport,
            "dst_ip": host,
            "dst_port": dport,
            "size": size,
            "request_id": np.full(n, -1),
        }
