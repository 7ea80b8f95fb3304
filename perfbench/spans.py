"""In-memory spans around the public functions of the ``repro`` layers.

The benchmark measures each layer from outside: :class:`Tracer.install`
replaces the functions listed in :data:`TARGETS` with wrappers that
record a span (name, start, end, parent span) per call, and
:meth:`Tracer.uninstall` puts the originals back. Nothing under
``src/`` changes.

A span's *self time* is its duration minus the time its child spans
cover. Self times are accumulated per span name as each span closes, so
the sum of every span's self time equals the summed duration of the root
spans, and ``other.self_s`` (traced wall time minus root spans) closes
the books: layer self times plus ``other.self_s`` equal the wall time.

Spans nest by call stack, so the traced run must keep every span in one
process: it runs the workload with one worker, where the pool runs its
envelopes inline.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, attribute path, span name). A dotted attribute path names a
#: method, patched on its class; a plain name is a module function,
#: patched in its module and in every loaded ``repro`` module that
#: imported it by name. The span name's first component is its layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # sim: the vectorised fleet tick and its phases
    ("repro.sim.kernel", "FleetColocationKernel.tick", "sim.tick"),
    ("repro.sim.kernel", "FleetColocationKernel.run", "sim.fleet_run"),
    ("repro.sim.kernel", "BatchedServiceSampler.sample_e2e", "sim.tails"),
    ("repro.sim.kernel", "percentile_linear_rows", "sim.tails"),
    ("repro.sim.kernel", "percentile_linear", "sim.tails"),
    ("repro.sim.kernel", "BeRateKernel.be_rates", "sim.be_rates"),
    ("repro.sim.kernel", "BeRateKernel.advance_be", "sim.be_rates"),
    ("repro.sim.kernel", "BakeoffKernel.run", "sim.bakeoff"),
    # the engine-driven per-instance tick (faulted instances, probes)
    ("repro.experiments.colocation", "ColocationExperiment._tick", "sim.engine_tick"),
    # core: Algorithm 2 decide, actuation, Algorithm 1 profiling
    ("repro.core.controller", "ColocationController.decide", "core.decide"),
    ("repro.core.subcontrollers", "CpuLlcSubcontroller.apply", "core.subcontrollers.cpu_llc"),
    ("repro.core.subcontrollers", "MemorySubcontroller.apply", "core.subcontrollers.memory"),
    ("repro.core.subcontrollers", "FrequencySubcontroller.apply", "core.subcontrollers.frequency"),
    ("repro.core.subcontrollers", "NetworkSubcontroller.apply", "core.subcontrollers.network"),
    ("repro.core.profiler", "profile_load_point", "core.profiler"),
    ("repro.core.slacklimit", "find_slacklimit_for_pod", "core.slacklimit"),
    # cluster: BE job mutations on a machine
    ("repro.cluster.machine", "Machine.launch_be", "cluster.machine"),
    ("repro.cluster.machine", "Machine.grow_be", "cluster.machine"),
    ("repro.cluster.machine", "Machine.shrink_be", "cluster.machine"),
    ("repro.cluster.machine", "Machine.grow_be_memory", "cluster.machine"),
    ("repro.cluster.machine", "Machine.shrink_be_memory", "cluster.machine"),
    ("repro.cluster.machine", "Machine.suspend_be", "cluster.machine"),
    ("repro.cluster.machine", "Machine.resume_be", "cluster.machine"),
    ("repro.cluster.machine", "Machine.kill_be", "cluster.machine"),
    ("repro.cluster.machine", "Machine.kill_all_be", "cluster.machine"),
    ("repro.cluster.machine", "Machine.suspend_all_be", "cluster.machine"),
    ("repro.cluster.machine", "Machine.resume_all_be", "cluster.machine"),
    # faults
    ("repro.faults.cluster", "ClusterFaultInjector.advance", "faults.advance"),
    ("repro.faults.topology", "CorrelatedFaultSchedule.per_instance_schedules", "faults.expand"),
    # cache
    ("repro.cache.store", "CacheStore.get", "cache.get"),
    ("repro.cache.store", "CacheStore.put", "cache.put"),
    ("repro.cache.keys", "stable_hash", "cache.key"),
    ("repro.experiments.fleet", "zone_cache_key", "cache.key"),
    # parallel
    ("repro.parallel.pool", "run_envelopes", "parallel.pool"),
    ("repro.parallel.pool", "broadcast", "parallel.broadcast"),
    ("repro.parallel.profile", "profile_service_parallel", "parallel.profile"),
    # tracing
    ("repro.tracing.emitter", "TraceEmitter.emit", "tracing.emit"),
    ("repro.tracing.cpg", "CausalPathGraph.reconstruct_requests", "tracing.cpg"),
    ("repro.tracing.sojourn", "SojournExtractor.per_request", "tracing.sojourn"),
    # metrics
    ("repro.metrics.collector", "MachineMetrics.record_tick", "metrics.record"),
    ("repro.metrics.collector", "MachineMetrics.record_shared_tick", "metrics.record"),
    # experiments: the drivers the workloads call
    ("repro.experiments.fleet", "FleetExperiment.run", "experiments.fleet"),
    ("repro.experiments.bakeoff", "run_bakeoff", "experiments.bakeoff"),
    ("repro.experiments.colocation", "ColocationExperiment.run", "experiments.colocation"),
)

#: Layers whose self time is reported as ``<layer>.self_s``.
LAYERS: Tuple[str, ...] = (
    "sim", "core", "cluster", "faults", "cache", "parallel", "tracing",
    "metrics", "experiments",
)


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.active = False
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded span and counter (start of a new operation)."""
        self._nid = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[List[float]] = []
        self._self: List[float] = [0.0] * len(self._names)
        self._calls: List[int] = [0] * len(self._names)
        self.root_s = 0.0
        self.counters: Dict[str, float] = {}
        self.injectors: List[Any] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._ids[name] = nid
            self._names.append(name)
            self._self.append(0.0)
            self._calls.append(0)
        return nid

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call while the tracer is active.

        ``after(args, result)`` runs once the span has closed, so what it
        costs is charged to the caller's span, not to ``name``.
        """
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer._nid)
            tracer._nid.append(nid)
            tracer._parent.append(int(stack[-1][0]) if stack else -1)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._start[index] = t0
                tracer._end[index] = t1
                duration = t1 - t0
                tracer._self[nid] += duration - frame[1]
                tracer._calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_s += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module: Any, attr: str, value: Callable) -> None:
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for key, obj in list(vars(mod).items()):
                if obj is original:
                    self._patch(mod, key, value)

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        import repro.parallel.pool as pool

        afters = {
            "cache.get": lambda args, out: self.count(
                "cache.get.hits" if out is not None else "cache.get.misses"
            ),
            "cache.put": lambda args, out: self.count(
                "cache.put.bytes",
                os.path.getsize(args[0]._path(args[1])) if out else 0,
            ),
            "parallel.pool": lambda args, out: self.count(
                "parallel.pool.envelopes", len(args[0])
            ),
            "parallel.broadcast": lambda args, out: self.count(
                "parallel.pool.payload_bytes", len(pool._PARENT_BLOBS[out.digest])
            ),
            "tracing.emit": lambda args, out: self.count("tracing.events", len(out)),
        }
        for module_name, path, span in TARGETS:
            module = importlib.import_module(module_name)
            after = afters.get(span)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(span, cls.__dict__[meth], after))
            else:
                original = getattr(module, path)
                self._patch_function(module, path, self.wrap(span, original, after))

        from repro.experiments import colocation
        from repro.faults.cluster import ClusterFaultInjector

        make_probe = colocation.make_sla_probe

        # Algorithm 1's probe is a closure; span the closure it returns.
        def traced_make_sla_probe(*args, **kwargs):
            return self.wrap("core.probe", make_probe(*args, **kwargs))

        self._patch_function(
            colocation, "make_sla_probe",
            functools.wraps(make_probe)(traced_make_sla_probe),
        )
        init = ClusterFaultInjector.__init__

        @functools.wraps(init)
        def traced_init(injector, *args, **kwargs):
            init(injector, *args, **kwargs)
            if self.active:
                self.injectors.append(injector)

        self._patch(ClusterFaultInjector, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out ------------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return self._calls[nid] if nid is not None else 0

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return self._self[nid] if nid is not None else 0.0

    def total_s(self, name: str) -> float:
        """Summed duration (not self time) of every span called ``name``."""
        durations = self.durations(name)
        return float(durations.sum()) if durations.size else 0.0

    def durations(self, name: str) -> np.ndarray:
        nid = self._ids.get(name)
        if nid is None or not len(self._nid):
            return np.zeros(0)
        ids = np.frombuffer(self._nid, dtype=np.int32)
        mask = ids == nid
        return (
            np.frombuffer(self._end, dtype=np.float64)[mask]
            - np.frombuffer(self._start, dtype=np.float64)[mask]
        )

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            self._self[nid]
            for name, nid in self._ids.items()
            if name.startswith(prefix)
        )

    def span_count(self) -> int:
        return len(self._nid)

    def repeatable_counts(self) -> Dict[str, float]:
        """Every count that must repeat exactly for the same seed."""
        counts: Dict[str, float] = {
            f"{name}.calls": self._calls[nid] for name, nid in self._ids.items()
        }
        counts.update(self.counters)
        counts["faults.applied"] = self.faults_applied()
        return counts

    def faults_applied(self) -> int:
        return sum(injector.applied_count for injector in self.injectors)

    def write_spans(self, path: str) -> None:
        """Write the recorded spans (name, start, end, parent) to ``path``."""
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name_id=np.frombuffer(self._nid, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )


def layer_metrics(
    tracer: Tracer,
    wall: float,
    outcome: Any,
    phases: Dict[str, float],
    pool: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer metric of one traced operation, by name."""
    t = tracer
    counts = outcome.counts
    ticks = t.durations("sim.tick")
    hits = t.counters.get("cache.get.hits", 0)
    misses = t.counters.get("cache.get.misses", 0)
    m: Dict[str, float] = {
        "sim.tick.calls": t.calls("sim.tick"),
        "sim.tick.self_s": t.self_s("sim.tick"),
        "sim.tick.p99_ms": float(np.percentile(ticks, 99)) * 1e3 if ticks.size else 0.0,
        "sim.tails.self_s": t.self_s("sim.tails"),
        "sim.be_rates.self_s": t.self_s("sim.be_rates"),
        "sim.finalize_s": t.self_s("sim.fleet_run"),
        "sim.engine_tick.calls": t.calls("sim.engine_tick"),
        "sim.engine_tick.self_s": t.self_s("sim.engine_tick"),
        "sim.engine.events": counts["sim.engine.events"],
        "sim.bakeoff.self_s": t.self_s("sim.bakeoff"),
        "sim.bakeoff.forks": counts.get("sim.bakeoff.forks", 0),
        "sim.bakeoff.merges": counts.get("sim.bakeoff.merges", 0),
        "sim.bakeoff.shared_fraction": counts.get("sim.bakeoff.shared_fraction", 0.0),
        "core.decide.calls": t.calls("core.decide"),
        "core.decide.self_s": t.self_s("core.decide"),
    }
    for sub in ("cpu_llc", "memory", "frequency", "network"):
        name = f"core.subcontrollers.{sub}"
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.self_s"] = t.self_s(name)
    m.update({
        "core.profiler.self_s": t.self_s("core.profiler"),
        "core.slacklimit.walks": t.calls("core.slacklimit"),
        "core.slacklimit.probes": t.calls("core.probe"),
        "cluster.machine.mutations": t.calls("cluster.machine"),
        "cluster.machine.self_s": t.self_s("cluster.machine"),
        "faults.advance.calls": t.calls("faults.advance"),
        "faults.advance.self_s": t.self_s("faults.advance"),
        "faults.applied": t.faults_applied(),
        "faults.expand_s": phases.get("faults.expand_s", 0.0),
        "cache.get.calls": t.calls("cache.get"),
        "cache.get.self_s": t.self_s("cache.get"),
        "cache.put.calls": t.calls("cache.put"),
        "cache.put.self_s": t.self_s("cache.put"),
        "cache.put.bytes": t.counters.get("cache.put.bytes", 0),
        "cache.key.self_s": t.self_s("cache.key"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "parallel.pool.envelopes": t.counters.get("parallel.pool.envelopes", 0),
        "parallel.pool.retries": pool["retries"],
        "parallel.pool.rebuilds": pool["pool_rebuilds"],
        "parallel.pool.inline_fallbacks": pool["inline_fallbacks"],
        "parallel.pool.payload_bytes": t.counters.get("parallel.pool.payload_bytes", 0),
        "parallel.pool.wall_s": t.total_s("parallel.pool"),
        "parallel.pool.start_s": phases.get("parallel.pool.start_s", 0.0),
        "parallel.profile.sweep_points": counts.get("parallel.profile.sweep_points", 0),
        "parallel.profile.slack_walks": counts.get("parallel.profile.slack_walks", 0),
        "tracing.events": t.counters.get("tracing.events", 0),
        "tracing.emit.self_s": t.self_s("tracing.emit"),
        "tracing.cpg.self_s": t.self_s("tracing.cpg"),
        "tracing.sojourn.self_s": t.self_s("tracing.sojourn"),
        "metrics.record.calls": t.calls("metrics.record"),
        "metrics.record.self_s": t.self_s("metrics.record"),
        "loadgen.build_s": phases.get("loadgen.build_s", 0.0),
        "experiments.fleet.zones_simulated": counts.get("experiments.fleet.zones_simulated", 0),
        "experiments.fleet.zones_cached": counts.get("experiments.fleet.zones_cached", 0),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self_s(layer)
    m["other.self_s"] = wall - t.root_s
    m["trace.wall_s"] = wall
    m["trace.spans"] = t.span_count()
    m["outcome.sla_violation_rate"] = outcome.sla_violation_rate
    m["outcome.be_throughput"] = outcome.be_throughput
    return m
