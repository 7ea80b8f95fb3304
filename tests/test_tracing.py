"""Tests for the non-intrusive request tracer (§3.3)."""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict, deque

import numpy as np
import pytest

from repro.core.profiler import load_point_streams, profile_load_point
from repro.faults.tracing import TraceFaultConfig, corrupt_events
from repro.sim.rng import RandomStreams
from repro.tracing.causality import CausalityMatcher, fifo_match
from repro.tracing.cpg import CLIENT_NODE, CausalPathGraph
from repro.tracing.emitter import (
    CLIENT_PROGRAM,
    EmitterConfig,
    ServpodEndpoint,
    TraceEmitter,
    default_endpoints,
)
from repro.tracing.events import ContextId, EventTable, EventType, MessageId, SysEvent
from repro.tracing.jaeger import JaegerTracer
from repro.tracing.sojourn import SojournExtractor
from repro.errors import TracingError
from repro.workloads.catalog import LC_CATALOG
from repro.workloads.service import Service

from conftest import make_tiny_service


@pytest.fixture
def traced(streams):
    """A small traced workload: records, endpoints, events (blocking)."""
    spec = make_tiny_service()
    svc = Service(spec, streams)
    records = svc.build_request_records(0.5, 120)
    endpoints = default_endpoints(spec.servpod_names)
    emitter = TraceEmitter(endpoints, EmitterConfig(noise_per_request=3, seed=1))
    events = emitter.emit(records)
    return spec, records, endpoints, events


class TestEvents:
    def test_data_events_need_message(self):
        ctx = ContextId("1.1.1.1", "p", 1, 1)
        with pytest.raises(ValueError):
            SysEvent(EventType.RECV, 0.0, ctx, None)

    def test_message_reversal(self):
        msg = MessageId("a", 1, "b", 2, 100)
        rev = msg.reversed()
        assert rev.sender_ip == "b" and rev.receiver_port == 1

    def test_flow_ignores_size(self):
        m1 = MessageId("a", 1, "b", 2, 100)
        m2 = MessageId("a", 1, "b", 2, 999)
        assert m1.flow == m2.flow


class TestEmitter:
    def test_event_structure(self, traced):
        spec, records, endpoints, events = traced
        # Per request on a 2-pod chain: 2 edges x 4 data events, plus noise
        # (3 noise events/request on average).
        data = [e for e in events if e.etype in (EventType.RECV, EventType.SEND)]
        assert len(data) >= len(records) * 8
        assert len(data) <= len(records) * 12

    def test_events_time_sorted(self, traced):
        _, _, _, events = traced
        times = [e.timestamp for e in events]
        assert times == sorted(times)

    def test_noise_present(self, traced):
        _, _, endpoints, events = traced
        known = {ep.program for ep in endpoints.values()} | {CLIENT_PROGRAM}
        assert any(e.context.program not in known for e in events)

    def test_accept_close_emitted_at_entry(self, traced):
        _, records, _, events = traced
        accepts = [e for e in events if e.etype == EventType.ACCEPT]
        closes = [e for e in events if e.etype == EventType.CLOSE]
        assert len(accepts) == len(records)
        assert len(closes) == len(records)

    def test_persistent_mode_reuses_ports(self):
        spec = make_tiny_service()
        svc = Service(spec, RandomStreams(1))
        records = svc.build_request_records(0.5, 20)
        endpoints = default_endpoints(spec.servpod_names)
        emitter = TraceEmitter(
            endpoints, EmitterConfig(persistent_connections=True, noise_per_request=0)
        )
        events = emitter.emit(records)
        request_sends = [
            e for e in events
            if e.etype == EventType.SEND and e.message.receiver_port >= 7000
        ]
        ports = {e.message.sender_port for e in request_sends}
        assert len(ports) == 1  # single pooled connection port

    def test_ephemeral_mode_unique_ports(self, traced):
        _, records, _, events = traced
        known_ips = {ep.host_ip for ep in default_endpoints(["front", "back"]).values()}
        request_sends = [
            e for e in events
            if e.etype == EventType.SEND and e.message is not None
            and e.message.receiver_ip in known_ips
            and 7000 <= e.message.receiver_port < 7100
            and e.message.sender_port >= 20000
        ]
        ports = [e.message.sender_port for e in request_sends]
        assert len(ports) == len(set(ports))

    def test_empty_endpoints_rejected(self):
        with pytest.raises(TracingError):
            TraceEmitter({})

    @pytest.mark.parametrize("name", ["noise_per_request", "hop_ms"])
    @pytest.mark.parametrize("value", [-3.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_negative_or_non_finite(self, name, value):
        with pytest.raises(TracingError):
            EmitterConfig(**{name: value})


class TestCausalityMatcher:
    def test_filter_drops_noise(self, traced):
        _, _, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        clean = matcher.filter(events)
        known_programs = {ep.program for ep in endpoints.values()} | {CLIENT_PROGRAM}
        assert all(e.context.program in known_programs for e in clean)

    def test_intra_segments_pair_up(self, traced):
        _, records, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        segments = matcher.intra_segments(matcher.filter(events))
        # front pod: 2 local segments/request; back pod: 1.
        assert len(segments) == 3 * len(records)
        assert all(seg.span_ms >= 0 for seg in segments)

    def test_inter_pairs_match_send_to_recv(self, traced):
        _, _, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        pairs = matcher.inter_pairs(matcher.filter(events))
        assert all(p.recv.timestamp >= p.send.timestamp for p in pairs)
        assert all(p.send.message.flow == p.recv.message.flow for p in pairs)

    def test_client_latencies_match_records(self, traced):
        _, records, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        latencies = sorted(matcher.client_latencies(matcher.filter(events)))
        truth = sorted(r.e2e_ms for r in records)
        # Client-side latency adds one wire hop in each direction.
        assert np.allclose(latencies, np.asarray(truth) + 0.04, atol=1e-9)

    def test_entry_recv_count(self, traced):
        _, records, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        counts = matcher.entry_recv_count(matcher.filter(events))
        assert counts == {"front": len(records), "back": len(records)}


class TestSojournExtraction:
    def test_per_request_exact(self, traced):
        _, records, endpoints, events = traced
        extractor = SojournExtractor(CausalityMatcher(endpoints))
        per_request = extractor.per_request(events)
        truth = {}
        for r in records:
            for pod, s in r.sojourn_by_servpod().items():
                truth.setdefault(pod, []).append(s)
        for pod in truth:
            got = np.asarray(sorted(per_request[pod]))
            want = np.asarray(sorted(truth[pod]))
            # Leaf pods are exact; middle pods absorb the tiny hop time.
            assert np.allclose(got, want, atol=0.1)

    def test_mean_invariance_under_nonblocking_persistent(self):
        """The paper's Figure-5 argument: scrambled pairings preserve means."""
        spec = make_tiny_service()
        svc = Service(spec, RandomStreams(9))
        records = svc.build_request_records(0.5, 150)
        endpoints = default_endpoints(spec.servpod_names)
        truth = {}
        for r in records:
            for pod, s in r.sojourn_by_servpod().items():
                truth.setdefault(pod, []).append(s)
        emitter = TraceEmitter(
            endpoints,
            EmitterConfig(blocking=False, persistent_connections=True,
                          noise_per_request=2, seed=3),
        )
        events = emitter.emit(records)
        stats = SojournExtractor(CausalityMatcher(endpoints)).mean_only(events)
        for pod, stat in stats.items():
            assert stat.mean_ms == pytest.approx(np.mean(truth[pod]), rel=0.05)
            assert stat.std_ms == 0.0  # individual spans untrusted

    def test_stats_include_cov(self, traced):
        _, _, endpoints, events = traced
        stats = SojournExtractor(CausalityMatcher(endpoints)).stats(events)
        for stat in stats.values():
            assert stat.cov > 0

    def test_per_request_rejects_overlapping_requests(self):
        """A non-blocking context serving overlapping requests is refused fast."""
        spec = LC_CATALOG["E-commerce"]()
        records = Service(spec, RandomStreams(3)).build_request_records(0.5, 200)
        endpoints = default_endpoints(spec.servpod_names)
        events = TraceEmitter(
            endpoints, EmitterConfig(blocking=False, seed=3)
        ).emit(records)
        extractor = SojournExtractor(CausalityMatcher(endpoints))
        t0 = time.perf_counter()
        with pytest.raises(TracingError):
            extractor.per_request(events)
        assert time.perf_counter() - t0 < 1.0

    def test_per_request_means_exact_over_persistent_connections(self):
        """Blocking servers keep per-request means exact on shared 5-tuples."""
        spec = LC_CATALOG["E-commerce"]()
        records = Service(spec, RandomStreams(3)).build_request_records(0.5, 200)
        truth = defaultdict(list)
        for r in records:
            for pod, s in r.sojourn_by_servpod().items():
                truth[pod].append(s)
        endpoints = default_endpoints(spec.servpod_names)
        events = TraceEmitter(
            endpoints, EmitterConfig(persistent_connections=True, seed=3)
        ).emit(records)
        per_request = SojournExtractor(CausalityMatcher(endpoints)).per_request(events)
        assert set(per_request) == set(truth)
        for pod, values in truth.items():
            assert len(per_request[pod]) == len(values)
            assert np.mean(per_request[pod]) == pytest.approx(np.mean(values), rel=1e-9)

    def test_empty_trace_raises(self, traced):
        _, _, endpoints, _ = traced
        extractor = SojournExtractor(CausalityMatcher(endpoints))
        with pytest.raises(TracingError):
            extractor.per_request([])


class TestCpg:
    def test_chain_topology_recovered(self, traced):
        """Figure 4: the aggregate CPG mirrors the service call structure."""
        _, _, endpoints, events = traced
        cpg = CausalPathGraph(CausalityMatcher(endpoints))
        graph = cpg.aggregate_graph(events)
        assert set(graph.nodes) == {CLIENT_NODE, "front", "back"}
        assert graph.has_edge(CLIENT_NODE, "front")
        assert graph.has_edge("front", "back")
        assert not graph.has_edge(CLIENT_NODE, "back")

    def test_per_request_paths(self, traced):
        _, records, endpoints, events = traced
        cpg = CausalPathGraph(CausalityMatcher(endpoints))
        paths = cpg.reconstruct_requests(events)
        assert len(paths) == len(records)
        for path in paths:
            assert sorted(path.servpods()) == ["back", "front"]
            assert path.e2e_ms > 0


def _fifo_reference(group, opens, closes):
    """The deque loop :func:`fifo_match` must agree with."""
    pending = defaultdict(deque)
    pairs, unmatched_closes = [], 0
    for row, (g, is_open, is_close) in enumerate(zip(group, opens, closes)):
        if is_open:
            pending[g].append(row)
        elif is_close:
            if pending[g]:
                pairs.append((pending[g].popleft(), row))
            else:
                unmatched_closes += 1
    unmatched_opens = sum(len(q) for q in pending.values())
    return pairs, unmatched_closes, unmatched_opens


def _noise_reference(rng, endpoints, n, t_min, t_max):
    """Noise drawn one scalar per field: what the emitter must reproduce."""
    programs = ("kworker", "sshd", "systemd-journal", "cron")
    pods = list(endpoints.values())
    times = rng.uniform(t_min, t_max, size=n)
    events = []
    for i in range(n):
        pod = pods[int(rng.integers(0, len(pods)))]
        program = programs[int(rng.integers(0, len(programs)))]
        ctx = ContextId(
            pod.host_ip, program, int(rng.integers(2, 999)), int(rng.integers(1, 64))
        )
        etype = EventType.SEND if rng.random() < 0.5 else EventType.RECV
        msg = MessageId(
            f"172.16.{rng.integers(0, 255)}.{rng.integers(1, 255)}",
            int(rng.integers(1024, 65535)),
            pod.host_ip,
            int(rng.integers(1024, 65535)),
            int(rng.integers(40, 1500)),
        )
        events.append(SysEvent(etype, float(times[i]), ctx, msg, -1))
    return events


class TestEventTable:
    @pytest.mark.parametrize("n_pods", [1, 2, 5])
    def test_noise_matches_scalar_draws(self, n_pods):
        endpoints = default_endpoints([f"pod{i}" for i in range(n_pods)])
        for seed in range(12):
            emitter = TraceEmitter(endpoints, EmitterConfig(seed=seed))
            strings = {}
            noise = emitter._emit_noise(40 + seed, 3.0, 900.0, strings)
            rng = np.random.default_rng(seed)
            want = _noise_reference(rng, endpoints, round(2.0 * (40 + seed)), 3.0, 900.0)
            got = EventTable.from_columns(list(strings), noise)
            assert list(got) == list(EventTable.from_events(want))
            assert emitter._rng.bit_generator.state == rng.bit_generator.state


    def test_fifo_match_agrees_with_deque_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(0, 60))
            group = rng.integers(0, int(rng.integers(1, 5)), size=n)
            kind = rng.integers(0, 3, size=n)  # 0 open, 1 close, 2 neither
            opens, closes = kind == 0, kind == 1
            got_open, got_close, n_closes, n_opens = fifo_match(group, opens, closes)
            pairs, want_closes, want_opens = _fifo_reference(group, opens, closes)
            assert list(zip(got_open.tolist(), got_close.tolist())) == pairs
            assert (n_closes, n_opens) == (want_closes, want_opens)

    def test_rows_round_trip(self, traced):
        _, _, endpoints, events = traced
        assert isinstance(events, EventTable)
        rows = list(events)
        table = EventTable.from_events(rows)
        assert list(table) == rows
        shuffled = [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]
        assert list(EventTable.from_events(shuffled)) == rows

    def test_row_table_gives_identical_results(self, traced):
        _, _, endpoints, events = traced
        rows_table = EventTable.from_events(list(events))
        extractor = SojournExtractor(CausalityMatcher(endpoints))
        assert extractor.per_request(rows_table) == extractor.per_request(events)
        assert extractor.mean_only(rows_table) == extractor.mean_only(events)
        assert extractor.robust_stats(rows_table) == extractor.robust_stats(events)
        matcher = extractor.matcher
        assert matcher.client_latencies(rows_table) == matcher.client_latencies(events)

    def test_corruption_sees_the_rows(self, traced):
        _, _, _, events = traced
        config = TraceFaultConfig(
            seed=4, drop_rate=0.1, duplicate_rate=0.1, reorder_rate=0.2
        )
        assert corrupt_events(events, config) == corrupt_events(list(events), config)


def _row_digest(events) -> str:
    """First 16 hex chars of a sha256 over every field of every row."""
    h = hashlib.sha256()
    for e in events:
        ctx, msg = e.context, e.message
        h.update(repr((
            e.etype.value, e.timestamp.hex(),
            ctx.host_ip, ctx.program, ctx.pid, ctx.tid,
            None if msg is None else (
                msg.sender_ip, msg.sender_port,
                msg.receiver_ip, msg.receiver_port, msg.size,
            ),
            e.request_id,
        )).encode())
    return h.hexdigest()[:16]


#: (service, load) -> (per_request digest, events emitted, profile digest),
#: for the profiler's tracer pipeline at root seed 1.
_GOLDEN_POINTS = {
    ("Redis", 0.05): ("5b9f39089fb6c39e", 3600, "e50510bc0d34984f"),
    ("Redis", 0.5): ("96de0debe3582bb9", 3600, "cc8781c30720fa7f"),
    ("Redis", 0.95): ("85afa45c8fdbf105", 3600, "7392eebae2a0c923"),
    ("Elgg", 0.05): ("d4982344fbb007dd", 4408, "2dcb267493c22788"),
    ("Elgg", 0.5): ("bee6eb01a8c3fac9", 4456, "a46acb7d8d31682b"),
    ("Elgg", 0.95): ("d4c88cfcfa38e902", 4432, "8a7daefef442dc71"),
}


class TestGoldenDigests:
    """Tracer outputs pinned bit for bit, noise and sojourns included."""

    @pytest.mark.parametrize("name,load", sorted(_GOLDEN_POINTS))
    def test_profiler_tracer_point(self, name, load):
        per_request_digest, n_events, profile_digest = _GOLDEN_POINTS[name, load]
        spec = LC_CATALOG[name]()
        # The emitter exactly as the profiler's tracer mode builds it.
        streams = load_point_streams(spec.name, load, 1)
        records = Service(spec, streams).build_request_records(load, 300)
        endpoints = default_endpoints(spec.servpod_names)
        emitter = TraceEmitter(endpoints, EmitterConfig(
            blocking=True, persistent_connections=False, noise_per_request=2.0,
            seed=streams.stream("profiler:emitter-seed").integers(0, 2**31),
        ))
        events = emitter.emit(records)
        assert len(events) == n_events
        per_request = SojournExtractor(CausalityMatcher(endpoints)).per_request(events)
        h = hashlib.sha256()
        for pod in sorted(per_request):
            h.update(pod.encode())
            h.update(np.asarray(per_request[pod], dtype=np.float64).tobytes())
        assert h.hexdigest()[:16] == per_request_digest
        point = profile_load_point(spec, load, root_seed=1, mode="tracer")
        assert hashlib.sha256(repr(point).encode()).hexdigest()[:16] == profile_digest

    def test_traced_fixture_rows(self, traced):
        _, _, _, events = traced
        assert _row_digest(events) == "bc31b175f098d15f"


class TestJaeger:
    def test_records_per_request_spans(self, streams):
        spec = make_tiny_service()
        svc = Service(spec, streams)
        records = svc.build_request_records(0.5, 50)
        tracer = JaegerTracer()
        assert tracer.record(records) == 50
        per_request = tracer.per_request()
        assert len(per_request["front"]) == 50
        stats = tracer.stats()
        assert stats["back"].mean_ms > 0

    def test_empty_tracer_raises(self):
        with pytest.raises(TracingError):
            JaegerTracer().per_request()

    def test_reset(self, streams):
        spec = make_tiny_service()
        svc = Service(spec, streams)
        tracer = JaegerTracer()
        tracer.record(svc.build_request_records(0.5, 5))
        tracer.reset()
        with pytest.raises(TracingError):
            tracer.per_request()
