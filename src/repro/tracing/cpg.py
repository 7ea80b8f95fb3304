"""Causal path graph (CPG) construction — Figure 4 of the paper.

A CPG is a DAG whose vertices are the per-Servpod event sets of one
request and whose edges are causal relations: *message relations* between
SEND/RECV pairs on neighbouring Servpods and *context relations* between
RECV/SEND pairs inside one Servpod.

Per-request reconstruction is exact when the trace was captured from
blocking servers over ephemeral connections (one thread and one 5-tuple
per request). :meth:`CausalPathGraph.reconstruct_requests` implements the
depth-first walk from each client SEND over the matched row indices of
the event table; each resulting path carries its causal edges and
per-visit sojourn times, which the offline profiler consumes. The
networkx graph of a path is only built when asked for.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.errors import TracingError
from repro.tracing.causality import CausalityMatcher, DecodedEvents, Events

if TYPE_CHECKING:
    import networkx as nx

#: Node name used for the load-generating client.
CLIENT_NODE = "client"


@dataclass
class RequestPath:
    """One reconstructed request: its causal edges and per-Servpod sojourns."""

    #: Message relations in walk order: (caller node, callee Servpod,
    #: SEND timestamp, RECV timestamp).
    edges: List[Tuple[str, str, float, float]] = field(default_factory=list)
    #: Per-Servpod total sojourn time (ms), summed over revisits.
    sojourns: Dict[str, float] = field(default_factory=dict)
    #: Client-observed end-to-end latency (ms).
    e2e_ms: float = 0.0

    @cached_property
    def graph(self) -> "nx.DiGraph":
        """The request's CPG (a later edge between two nodes wins)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_node(CLIENT_NODE)
        for caller, pod, t_send, t_recv in self.edges:
            graph.add_edge(caller, pod, t_send=t_send, t_recv=t_recv)
        return graph

    def servpods(self) -> List[str]:
        """Servpods on this request's path, in order of first visit."""
        return list(dict.fromkeys(pod for _, pod, _, _ in self.edges))


class CausalPathGraph:
    """Builds CPGs and per-request sojourn attributions from a trace."""

    def __init__(self, matcher: CausalityMatcher) -> None:
        self.matcher = matcher

    def reconstruct_requests(self, events: Events) -> List[RequestPath]:
        """Reconstruct one :class:`RequestPath` per client request.

        Requires blocking servers (per-request thread ids) and ephemeral
        connections (per-request 5-tuples); raises
        :class:`~repro.errors.TracingError` if the stream is visibly
        ambiguous (a context id serving two overlapping entry requests).
        """
        trace = self.matcher.clean(events)
        _reject_shared_contexts(trace)
        table = trace.table
        t = table.timestamp
        ctx = table.context_code
        send, recv = trace.pairs()
        seg_recv, seg_send = trace.segments()

        # Per-context local time (exact per request in blocking mode),
        # summed in segment order.
        local = np.zeros(int(ctx.max(initial=-1)) + 1)
        np.add.at(local, ctx[seg_send], t[seg_send] - t[seg_recv])

        # Request-direction pairs indexed by sender context; reply RECV
        # times indexed by the receiving context.
        outbound = np.flatnonzero(trace.request[send])
        reply = np.flatnonzero(~trace.request[send])
        calls: Dict[int, List[int]] = defaultdict(list)
        for p, c in zip(outbound.tolist(), ctx[send[outbound]].tolist()):
            calls[c].append(p)
        replies: Dict[int, List[float]] = defaultdict(list)
        for c, t_reply in zip(ctx[recv[reply]].tolist(), t[recv[reply]].tolist()):
            replies[c].append(t_reply)
        pair_of_send = dict(zip(send[outbound].tolist(), outbound.tolist()))

        send_t, recv_t = t[send].tolist(), t[recv].tolist()
        callee_ctx, callee_pod = ctx[recv].tolist(), trace.pod[recv].tolist()
        client_sends = np.flatnonzero(trace.send & trace.client & trace.request)
        paths: List[RequestPath] = []
        for s, c, t_send in zip(
            client_sends.tolist(), ctx[client_sends].tolist(), t[client_sends].tolist()
        ):
            root = pair_of_send.get(s)
            if root is None:
                continue
            path = RequestPath()
            # Depth-first, calls in pair order: only calls issued after
            # the visit began. A context id may recur across sequential
            # revisits of the same pod within one request; its summed
            # local time is the paper's per-request sojourn.
            stack = [(root, CLIENT_NODE)]
            while stack:
                p, caller = stack.pop()
                if callee_pod[p] < 0:
                    raise TracingError(
                        f"matched RECV on unknown endpoint {table.row(recv[p]).context}"
                    )
                pod = trace.pods[callee_pod[p]]
                path.edges.append((caller, pod, send_t[p], recv_t[p]))
                path.sojourns.setdefault(pod, float(local[callee_ctx[p]]))
                stack.extend(
                    (d, pod)
                    for d in reversed(calls.get(callee_ctx[p], ()))
                    if not send_t[d] + 1e-12 < recv_t[p]
                )
            # E2E latency: the first reply RECV at the client after this SEND.
            reply_t = replies.get(c, ())
            i = bisect_left(reply_t, t_send)
            path.e2e_ms = reply_t[i] - t_send if i < len(reply_t) else float("nan")
            paths.append(path)
        return paths

    def aggregate_graph(self, events: Events) -> "nx.DiGraph":
        """The service topology: union of all reconstructed request CPGs."""
        import networkx as nx

        graph = nx.DiGraph()
        for path in self.reconstruct_requests(events):
            graph.add_node(CLIENT_NODE)
            graph.add_edges_from((caller, pod) for caller, pod, _, _ in path.edges)
        return graph


def _reject_shared_contexts(trace: DecodedEvents) -> None:
    """Raise when a Servpod context takes a request before replying.

    A second request-direction RECV before the context's reply SEND means
    one thread serves overlapping requests (a non-blocking server), so no
    per-request attribution exists.
    """
    opens = trace.recv & trace.request
    ends = trace.send & ~trace.request
    rows = np.flatnonzero((trace.pod >= 0) & (opens | ends))
    ctx = trace.table.context_code
    rows = rows[np.argsort(ctx[rows], kind="stable")]
    clash = (ctx[rows][1:] == ctx[rows][:-1]) & opens[rows][1:] & opens[rows][:-1]
    if clash.any():
        context = trace.table.row(rows[1:][clash][0]).context
        raise TracingError(
            f"context {context} took a second request before replying to the "
            "first; per-request reconstruction needs blocking servers"
        )
