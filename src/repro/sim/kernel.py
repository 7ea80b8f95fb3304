"""Batched structure-of-arrays (SoA) simulation kernel.

The per-event python path (:mod:`repro.sim.engine` callbacks, per-job
dict loops in :func:`repro.bejobs.job.compute_be_rates`, per-request
closures in :mod:`repro.workloads.queueing`) tops out around a thousand
events per second on one core. This module re-expresses the same-tick
work as contiguous numpy arrays keyed by (machine, Servpod) coordinates
and drains whole ticks with vectorized operations:

- :class:`FleetColocationKernel` runs many ``ColocationExperiment``
  instances in lockstep — a single cell is a fleet of one — holding
  per-machine job rows, LC usage, NIC caps, DVFS state and metric
  integrals in contiguous columns, so a fleet tick is a handful of
  whole-array numpy ops plus one python pass for the (stateful)
  per-machine controllers. The tick splits into an observe half
  (phases 0-3: windows, fault transitions, rates, progress, slowdowns,
  tails) and an act half (phase 4 memoized applies, phase 5 frequency);
  controllers decide between the two.
- :class:`BeRateKernel` is the small-fleet row store: one python
  Leontief fold per machine over rows revalidated with one integer
  compare against ``Machine.version``, writing BE progress straight
  into the ``BeJob`` objects.
- :class:`BatchedServiceSampler` builds the per-Servpod lognormal
  parameter blocks once per tick and replays the call-tree walk against
  them, consuming the latency RNG stream in exactly the scalar order.
- :func:`drain_fifo_queue` replays the G/G/c FIFO event loop as a
  Lindley start-time recurrence over plain floats plus vectorized
  sojourn/wait extraction — no engine, no per-request closures.
- :class:`BakeoffKernel` races several controller sets over one seeded
  scenario: each branch world ticks through a one-instance fleet
  kernel, members decide between its observe and act halves, and
  diverging members fork the world. The kernel holds the BE DVFS
  request and NIC caps in its own columns, so the world objects are
  synced before any fork or world digest reads them.

Identity pinning
----------------
The scalar path remains the reference implementation. Every batched
computation here is pinned **bit-identical** to it: same outputs, same
final RNG states, with and without fault injection. The pattern (see
DESIGN.md) is:

1. mutate the world through the *same* scalar code (machines, pools,
   subcontrollers, fault injector are shared, not re-implemented);
2. cache only values the scalar path recomputes deterministically
   (sensitivity vectors, usage coefficient sums, per-job demands),
   invalidated by ``Machine.version``;
3. where floats are folded, preserve the scalar fold order exactly
   (python-float accumulation, ``cumsum``-style left-to-right chains);
4. draw randomness through the same generators with the same call
   shapes, so the bit streams are consumed identically.

Kernel selection is *not* part of :class:`ColocationConfig` — both
kernels produce identical results, so cache keys deliberately do not
distinguish them (a regression test proves the identity that justifies
the sharing).
"""

from __future__ import annotations

import copy
import heapq
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bejobs.job import (
    LLC_SPILL_TO_MEMBW,
    BeJobState,
    BeResourceSnapshot,
)
from repro.cluster.machine import BE_DOMAIN, LC_DOMAIN, Machine
from repro.core.actions import BeAction
from repro.errors import ConfigurationError
from repro.interference.sensitivity import PRESSURE_KINDS
from repro.metrics.collector import MachineMetrics, TickSample
from repro.workloads.latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.colocation import ColocationExperiment
    from repro.workloads.service import Service
    from repro.workloads.spec import CallNode

#: Environment variable selecting the simulation kernel.
KERNEL_ENV_VAR = "RHYTHM_KERNEL"

#: Valid kernel names.
KERNELS = ("scalar", "batched")


def resolve_kernel(explicit: Optional[str] = None) -> str:
    """Resolve the kernel choice: explicit arg > ``RHYTHM_KERNEL`` > batched.

    The batched kernel is the default: it is pinned bit-identical to the
    scalar reference and an order of magnitude faster. ``RHYTHM_KERNEL=
    scalar`` remains the escape hatch (and the reference for identity
    tests and benchmarks).
    """
    value = explicit if explicit is not None else os.environ.get(KERNEL_ENV_VAR)
    if value is None or value == "":
        return "batched"
    value = str(value).strip().lower()
    if value not in KERNELS:
        raise ConfigurationError(
            f"unknown simulation kernel {value!r}; expected one of {KERNELS}"
        )
    return value


# ---------------------------------------------------------------------------
# BE progress rates: the per-machine python fold
# ---------------------------------------------------------------------------


class BeRateKernel:
    """Row store and Leontief fold of a small fleet's running BE jobs.

    :meth:`FleetColocationKernel._rebuild_row` loads one row set per
    machine whenever ``Machine.version`` moves (launch/kill/grow/shrink/
    suspend/resume) or a fault transition lands; between loads every
    cached value is exactly what the scalar
    :func:`~repro.bejobs.job.compute_be_rates` would recompute from the
    same allocations. Rows are python lists, not arrays: a machine holds
    at most a handful of BE jobs, so one fused scalar loop beats
    whole-array numpy on dispatch cost alone — and elementwise float64
    equals python-float arithmetic bit for bit, so the identity pin
    holds. Large fleets keep the same rows as padded SoA arrays instead.
    """

    def __init__(self, n_machines: int) -> None:
        #: Per machine: the running ``BeJob`` objects, in pool order.
        self.jobs: List[List] = [[] for _ in range(n_machines)]
        #: Per machine: ``(cpu_base, req_cpu, llc_ratio, membw,
        #: membw_mask, membw_div, net, net_mask, net_div)`` job columns.
        self.rows: List[Tuple] = [((),) * 9 for _ in range(n_machines)]
        self.membw_demand: List[float] = [0.0] * n_machines
        self.net_demand: List[float] = [0.0] * n_machines
        #: Per machine: the rates of the last :meth:`be_rates` call.
        self.rates: List[List[float]] = [[] for _ in range(n_machines)]

    def load(
        self,
        m: int,
        jobs: List,
        rows: Tuple,
        membw_demand: float,
        net_demand: float,
    ) -> None:
        """Install machine ``m``'s freshly rebuilt job rows."""
        self.jobs[m] = jobs
        self.rows[m] = rows
        self.membw_demand[m] = membw_demand
        self.net_demand[m] = net_demand

    def be_rates(
        self, m: int, freq_ratio: float, membw_headroom: float, be_cap_fraction: float
    ) -> Tuple[float, float, float]:
        """Machine ``m``'s Leontief rates; ``(membw_used, net_used, rate_total)``.

        The same min-chain the scalar path folds per job (resources a
        job does not use are simply skipped, exactly like its absent
        ratios), and the same left-to-right ``+=`` folds over granted
        shares. ``np.minimum``-style clamps become comparisons —
        equivalent because no operand is NaN.
        """
        md = self.membw_demand[m]
        membw_scale = 1.0
        if md > 0.0:
            membw_scale = membw_headroom / md
            if membw_scale > 1.0:
                membw_scale = 1.0
        nd = self.net_demand[m]
        net_scale = 1.0
        if nd > 0.0:
            net_scale = be_cap_fraction / nd
            if net_scale > 1.0:
                net_scale = 1.0
        (cpu_b, req_c, llc_r, mbw, mbw_m, mbw_d,
         net_b, net_m, net_d) = self.rows[m]
        rates: List[float] = [0.0] * len(cpu_b)
        membw_used = 0.0
        net_used = 0.0
        rate_total = 0.0
        for j in range(len(cpu_b)):
            r = (cpu_b[j] * freq_ratio) / req_c[j]
            lr = llc_r[j]
            if lr < r:
                r = lr
            g_m = mbw[j] * membw_scale
            if mbw_m[j]:
                q = g_m / mbw_d[j]
                if q < r:
                    r = q
            g_n = net_b[j] * net_scale
            if net_m[j]:
                q = g_n / net_d[j]
                if q < r:
                    r = q
            if r > 1.0:
                r = 1.0
            elif r < 0.0:
                r = 0.0
            rates[j] = r
            membw_used = membw_used + g_m
            net_used = net_used + g_n
            rate_total = rate_total + r
        self.rates[m] = rates
        return membw_used, net_used, rate_total

    def advance_be(self, m: int, dt: float) -> None:
        """Phase-3 BE progress, written straight into the ``BeJob`` objects.

        Bit-identical to ``ColocationExperiment._advance_be`` for this
        machine's pod: the same two ``+=`` folds per running job, in the
        same job order, at the rates of the last :meth:`be_rates` call
        (row membership == ``pool.running()`` with a live allocation;
        any suspend/resume/kill bumps ``Machine.version``, which reloads
        the rows before the next call).
        """
        for job, rate in zip(self.jobs[m], self.rates[m]):
            job.normalized_work += dt * rate
            job.running_seconds += dt


# ---------------------------------------------------------------------------
# Latency sampling: pod-indexed parameter arrays, one build per tick
# ---------------------------------------------------------------------------


class BatchedServiceSampler:
    """Call-tree sampler over per-tick pod-indexed parameter arrays.

    ``Service.sample_e2e`` rebuilds each visited node's lognormal
    parameter block (log-medians, sigmas) on every visit; this sampler
    builds one ``(components, 1)`` block per Servpod per tick — via the
    same :meth:`LatencyModel.component_params` — and replays the exact
    walk. Draw shapes, draw order and combination operators
    (``np.maximum.reduce`` / ``np.add.reduce``) match the scalar walk
    call for call, so the RNG bit stream is consumed identically.
    """

    def __init__(self, service: "Service") -> None:
        self._service = service
        self._stream_name = f"service:{service.spec.name}:latency"
        self._pods = {pod.name: pod for pod in service.spec.servpods}
        # Component constants hoisted once so the per-tick parameter
        # build is plain float math — the exact expressions of
        # ``component_median_ms`` / ``component_sigma``, just without
        # the per-call attribute walks and revalidation.
        self._consts = {
            name: [
                (
                    c.base_ms,
                    c.lin_growth,
                    c.sat_growth,
                    c.sat_power,
                    c.cov_knee,
                    c.sigma0,
                    c.sigma_growth,
                )
                for c in pod.components
            ]
            for name, pod in self._pods.items()
        }

    def _params(
        self,
        u: float,
        slowdowns: Dict[str, float],
        inflations: Dict[str, float],
    ) -> Dict[str, Tuple]:
        """Per-pod lognormal parameters; floats for single-component pods."""
        params: Dict[str, Tuple] = {}
        for name, consts in self._consts.items():
            slowdown = slowdowns.get(name, 1.0)
            inflation = inflations.get(name, 1.0)
            if slowdown < 1.0:
                raise ConfigurationError(f"slowdown must be >= 1, got {slowdown}")
            if inflation < 1.0:
                raise ConfigurationError(
                    f"sigma inflation must be >= 1, got {inflation}"
                )
            if len(consts) == 1:
                base, lin, sat, p, knee, s0, sg = consts[0]
                median = base * (1.0 + lin * u + sat * u**p / (1.25 - u))
                ramp = max(0.0, (u - knee) / (1.0 - knee))
                params[name] = (
                    math.log(median * slowdown),
                    s0 * (1.0 + sg * ramp**2) * inflation,
                )
            else:
                means = []
                sigmas = []
                for base, lin, sat, p, knee, s0, sg in consts:
                    median = base * (1.0 + lin * u + sat * u**p / (1.25 - u))
                    means.append(math.log(median * slowdown))
                    ramp = max(0.0, (u - knee) / (1.0 - knee))
                    sigmas.append(s0 * (1.0 + sg * ramp**2) * inflation)
                params[name] = (
                    np.array(means)[:, None],
                    np.array(sigmas)[:, None],
                )
        return params

    def sample_e2e(
        self,
        load: float,
        n: int,
        slowdowns: Dict[str, float],
        inflations: Dict[str, float],
    ) -> np.ndarray:
        """Bit-identical to ``Service.sample_e2e`` under the same state."""
        service = self._service
        rng = service.streams.stream(self._stream_name)
        u = float(load)
        if not (0.0 <= u <= 1.02):
            raise ConfigurationError(
                f"load fraction must be in [0, 1.02], got {load!r}"
            )
        params = self._params(u, slowdowns, inflations)
        counts = service._type_counts(n, rng)
        e2e = np.empty(n)
        offset = 0
        for rtype, count in counts:
            if count == 0:
                continue
            e2e[offset : offset + count] = self._walk(
                rtype.root, count, params, rng
            )
            offset += count
        return e2e

    def _walk(
        self,
        node: "CallNode",
        n: int,
        params: Dict[str, Tuple],
        rng: np.random.Generator,
    ) -> np.ndarray:
        p = params[node.servpod]
        if type(p[0]) is float:
            # Single-component pod: scalar-parameter draw. Verified
            # bit-identical to the (1, n) array-parameter broadcast —
            # same value stream, same generator state after.
            total = rng.lognormal(mean=p[0], sigma=p[1], size=n)
        else:
            means, sigmas = p
            draws = rng.lognormal(
                mean=means, sigma=sigmas, size=(means.shape[0], n)
            )
            total = draws[0]
            for row in draws[1:]:
                total = total + row
        if not node.children:
            return total
        child_times = [
            self._walk(child, n, params, rng) for child in node.children
        ]
        if node.parallel:
            downstream = np.maximum.reduce(child_times)
        else:
            downstream = np.add.reduce(child_times)
        return total + downstream


# ---------------------------------------------------------------------------
# Queueing: engine-free FIFO drain
# ---------------------------------------------------------------------------


def drain_fifo_queue(
    arrival_times: Sequence[float],
    service_times: Sequence[float],
    workers: int,
    warmup_s: float,
    horizon_s: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Replay a G/G/c FIFO queue without the event engine.

    Returns ``(sojourns_ms, waits_ms, events_fired)`` bit-identical to
    the engine-driven loop in ``QueueingComponent.simulate``:

    - Start times follow the Lindley recurrence ``start_i = max(t_i,
      min_free)`` over a heap of plain worker-free times. FIFO
      discipline means services begin in arrival order, and the engine's
      ``clock.now + service_s`` additions are reproduced as the same
      python-float sums, so every start/finish time matches bit for bit.
    - Completion records are emitted in finish order (arrival index
      breaking ties — the engine's event-sequence order), so downstream
      ``np.mean``/``np.percentile`` pairwise folds see the same operand
      order.
    - ``events_fired`` counts every arrival plus each finish at or
      before the drain horizon: exactly the events the engine fires.
    """
    n = len(arrival_times)
    if n == 0:
        return np.empty(0), np.empty(0), 0
    free = [0.0] * workers
    starts: List[float] = [0.0] * n
    for i, t in enumerate(arrival_times):
        m = free[0]
        start = t if t >= m else m
        starts[i] = start
        heapq.heapreplace(free, start + service_times[i])
    t_arr = np.asarray(arrival_times)
    s_arr = np.asarray(service_times)
    finish = np.asarray(starts) + s_arr
    order = np.argsort(finish, kind="stable")
    fo = finish[order]
    to = t_arr[order]
    so = s_arr[order]
    fired = fo <= horizon_s
    events = n + int(np.count_nonzero(fired))
    keep = fired & (to >= warmup_s)
    sojourns = ((fo - to) * 1000.0)[keep]
    waits = (((fo - to) - so) * 1000.0)[keep]
    return sojourns, waits, events


# ---------------------------------------------------------------------------
# Window-tail fast path: np.percentile without the dispatch overhead
# ---------------------------------------------------------------------------


def _lerp_quantile(a: float, b: float, g: float) -> float:
    """numpy's ``_lerp`` on two python floats — branch and ops included.

    numpy computes ``a + (b - a) * g`` and then overwrites with
    ``b - (b - a) * (1 - g)`` where ``g >= 0.5``; reproducing the branch
    with the same python-float operations is bitwise identical to the
    elementwise float64 kernel.
    """
    d = b - a
    if g >= 0.5:
        return b - d * (1.0 - g)
    return a + d * g


def percentile_linear(values: np.ndarray, pct: float) -> float:
    """``float(np.percentile(values, pct))`` for a 1-D float64 array.

    The wrapper machinery around ``np.percentile`` (ufunc dispatch,
    axis normalisation, virtual-index broadcasting) costs ~200µs per
    call — an order of magnitude more than the O(n) partition it
    guards for window-sized sample counts. This reimplements exactly
    the ``method="linear"`` arithmetic: the virtual index is
    ``(n - 1) * (pct / 100)``, the two bracketing order statistics come
    from one ``np.partition``, and the interpolation replicates
    ``_lerp``'s ``g >= 0.5`` branch. Bitwise equal to ``np.percentile``
    for finite inputs (pinned by tests/test_sim_kernel.py).
    """
    n = values.shape[0]
    virtual = (n - 1) * (pct / 100.0)
    i0 = int(virtual)
    g = virtual - i0
    if i0 >= n - 1:
        part = np.partition(values, n - 1)
        return float(part[n - 1])
    part = np.partition(values, (i0, i0 + 1))
    return _lerp_quantile(float(part[i0]), float(part[i0 + 1]), g)


def percentile_linear_rows(stack: np.ndarray, pct: float) -> List[float]:
    """Row-wise ``np.percentile(stack, pct, axis=1)`` (linear method).

    One partition over the whole ``(rows, n)`` block, then the same
    scalar ``_lerp`` per row: elementwise float64 arithmetic equals the
    per-row python-float arithmetic, so each entry is bitwise equal to
    ``np.percentile`` of that row.
    """
    n = stack.shape[1]
    virtual = (n - 1) * (pct / 100.0)
    i0 = int(virtual)
    g = virtual - i0
    if i0 >= n - 1:
        part = np.partition(stack, n - 1, axis=1)
        return part[:, n - 1].tolist()
    part = np.partition(stack, (i0, i0 + 1), axis=1)
    lo = part[:, i0].tolist()
    hi = part[:, i0 + 1].tolist()
    return [_lerp_quantile(a, b, g) for a, b in zip(lo, hi)]


# ---------------------------------------------------------------------------
# Fleet-wide SoA: many colocation experiments in lockstep
# ---------------------------------------------------------------------------

#: Machine count at or below which a fleet runs the per-machine python
#: tick instead of whole-array numpy: under this size every array op is
#: dominated by its fixed dispatch cost. Both paths are bit-identical,
#: so the threshold is purely a performance knob.
_SMALL_FLEET_MACHINES = 8


def _tick_times(period_s: float, duration_s: float) -> List[float]:
    """The scalar engine's tick schedule, float accumulation and all."""
    times: List[float] = []
    t = period_s
    if t <= duration_s:
        times.append(t)
        while True:
            nxt = t + period_s
            if nxt > duration_s:
                break
            times.append(nxt)
            t = nxt
    return times


class FleetColocationKernel:
    """Runs many ``ColocationExperiment`` instances as one SoA fleet.

    Everything the scalar path recomputes per machine per tick — LC
    usage, NIC caps, proportional bandwidth shares, Leontief rates, BE
    progress, interference pressure, DVFS power stepping, and the metric
    integrals — lives in ``(machines,)`` / ``(machines, job-slots)``
    arrays spanning the *whole fleet*, so a tick is a handful of
    whole-array numpy ops plus one python pass for the parts that are
    genuinely stateful per machine (controller decisions, subcontroller
    actions, RNG-driven latency sampling).

    A tick has two halves around the controllers' decisions.
    :meth:`observe` runs phases 0-3 (load windows, fault transitions, BE
    rates and progress, slowdowns, latency tails) and returns what a
    controller reads; :meth:`act` runs phase 4 (the memoized
    subcontroller applies) and phase 5 (the frequency step, in the
    kernel's own columns). :meth:`tick` runs the instances' own
    controllers between the two; :class:`BakeoffKernel` runs its
    members' controllers there instead.

    Identity contract (the PR-2/PR-6 pattern, fleet-wide): running
    ``FleetColocationKernel([e1, .., ek]).run()`` is bit-identical —
    results, metrics, controller history, final RNG states — to running
    ``e1.run(); ..; ek.run()`` sequentially, with or without fault
    schedules and histogram tail estimators.

    How the kernel keeps the pin:

    - world mutation (launch/kill/grow/shrink/suspend/resume) goes
      through the *same* subcontroller code on the shared machines and
      pools; job rows are reloaded when ``Machine.version`` moves;
    - subcontroller applies are memoized per machine on no-op keys: a
      key can only enter the memo set after an execution that provably
      changed nothing, so skipping a repeat cannot change state (STOP is
      never memoized — its DVFS reset is a side effect the key cannot
      witness). Healthy fleets key on ``(action, version, mem_version)``;
      faulted fleets use :func:`_memo_key`, whose fault-held core/way
      counts witness the capacity that fault windows take and restore
      without bumping ``Machine.version``;
    - small fleets write BE progress straight into the ``BeJob`` objects
      (:meth:`BeRateKernel.advance_be`); large fleets integrate it
      in-place in SoA (elementwise float64 == python-float arithmetic)
      and flush it back to the objects before any apply that might read
      or rearrange them;
    - reductions over a machine's jobs run as padded column sweeps
      (``acc = acc + col``), exact because pads contribute ``+0.0`` to
      non-negative accumulators; the interference impact sum and the
      ``x ** gamma`` terms stay per-machine python arithmetic, where
      vectorized ``np.power`` is known to differ by 1 ulp;
    - per-window tails group instances by ``(n_samples, percentile)``
      and reduce with one partitioned percentile per group, bitwise
      equal per row to the scalar per-instance call; instances with a
      histogram estimator reduce through their own ``_window_tail``;
    - metric columns integrate as the run goes and only materialise
      into ``TickSample`` objects and window-tail replays once, at the
      end of the run.

    The BE DVFS request and the NIC's BE cap live in kernel columns too,
    so the world's ``DvfsGovernor`` and NIC go stale during a run.
    :meth:`sync_world` writes them back, together with SoA progress; a
    caller that reads or copies the world mid-run (the bake-off's forks
    and merge digests) must call it first. A kernel built over an
    experiment mid-run picks up its state from the world: the DVFS
    *request* (not the cap-clamped frequency), the fault columns and the
    job rows.

    Faults ride the same tick. Each instance's ``ClusterFaultInjector``
    still advances in ``_begin_tick`` and still mutates the shared
    machines; the kernel mirrors its effects into per-machine fault
    columns — effective link (NIC scale), NIC-shortfall flag, extra LLC
    pressure, stall factor, BE DVFS cap, LC frequency pressure and LC
    power cube — reloaded only on ticks where ``advance`` performs a
    transition. On such a tick the instance's BE progress is flushed to
    the ``BeJob`` objects *before* ``advance`` runs (``offline_cores``
    shrinks jobs), and its rows are rebuilt afterwards. The pressure
    fold then equals ``adjust_pressure`` + ``stall_factor`` on the
    object path, and the cap clamps the BE frequency column wherever it
    is read. A fleet without injectors skips all of it.

    All experiments must share ``duration_s`` and ``control_period_s``
    (one lockstep clock). ``on_tick(tick_index, t, loads, closed,
    tails, be_rates)`` — read-only lists indexed like ``experiments`` —
    fires after each control phase; a fleet-level governor may mutate
    the experiments' ``action_filter`` there, taking effect next tick.
    """

    def __init__(
        self,
        experiments: Sequence["ColocationExperiment"],
        on_tick=None,
    ) -> None:
        if not experiments:
            raise ConfigurationError("fleet needs at least one experiment")
        self._exps: List["ColocationExperiment"] = list(experiments)
        self._on_tick = on_tick
        cfg0 = self._exps[0].config
        self._duration_s = cfg0.duration_s
        self._period_s = cfg0.control_period_s
        for exp in self._exps:
            cfg = exp.config
            if (
                cfg.duration_s != self._duration_s
                or cfg.control_period_s != self._period_s
            ):
                raise ConfigurationError(
                    "fleet experiments must share duration_s and "
                    "control_period_s (one lockstep clock)"
                )
        self._injectors = [exp._fault_injector for exp in self._exps]
        self._faulted = any(inj is not None for inj in self._injectors)
        self._histogram = [
            exp._tail_estimator is not None for exp in self._exps
        ]

        # -- machine-major bookkeeping (global machine index m) -------------
        # Machine *names* collide across experiments (deploy_service
        # names machines after Servpods), so every mapping here is
        # keyed by index, never by name.
        self._m_pod: List[str] = []
        self._m_i: List[int] = []
        self._m_run: List = []
        self._m_mach: List[Machine] = []
        self._inst_machines: List[List[int]] = []
        for i, exp in enumerate(self._exps):
            rows: List[int] = []
            for pod in exp._runs:
                rows.append(len(self._m_pod))
                self._m_pod.append(pod)
                self._m_i.append(i)
                self._m_run.append(exp._runs[pod])
                self._m_mach.append(exp.deployment.servpod(pod).machine)
            self._inst_machines.append(rows)
        M = len(self._m_pod)
        self._n_machines = M
        self._m_i_arr = np.asarray(self._m_i, dtype=np.intp)

        self._samplers = [BatchedServiceSampler(exp.service) for exp in self._exps]
        self._tail_pct = [exp.spec.tail_percentile for exp in self._exps]

        jmax = 1
        for exp in self._exps:
            jmax = max(jmax, int(exp.config.max_be_instances))
        self._jmax = jmax

        # -- per-machine parameters -----------------------------------------
        busy_c: List[float] = []
        membw_c: List[float] = []
        net_c: List[float] = []
        link_eff: List[float] = []
        link_spec: List[float] = []
        guard: List[float] = []
        cores_f: List[float] = []
        sla: List[float] = []
        idle_w: List[float] = []
        active_w: List[float] = []
        hi_w: List[float] = []
        lo_w: List[float] = []
        f_min: List[int] = []
        f_max: List[int] = []
        f_step: List[int] = []
        f_req: List[int] = []
        self._cores_i: List[int] = []
        self._iso: List = []
        self._pconst: List[Tuple] = []
        for m in range(M):
            exp = self._exps[self._m_i[m]]
            pod = self._m_pod[m]
            machine = self._m_mach[m]
            bc, mc, nc, _llc = exp.service._usage_coeffs[pod]
            busy_c.append(bc)
            membw_c.append(mc)
            net_c.append(nc)
            link_eff.append(machine.nic.effective_link_gbps)
            link_spec.append(machine.spec.link_gbps)
            guard.append(machine.nic.lc_guard_factor)
            self._cores_i.append(machine.spec.cores)
            cores_f.append(float(machine.spec.cores))
            sla.append(exp.spec.sla_ms)
            pm = machine.power_model
            idle_w.append(pm.idle_watts)
            active_w.append(pm.active_watts_per_core)
            hi_w.append(exp._frequency.cap_fraction * pm.tdp_watts)
            lo_w.append(exp._frequency.restore_fraction * pm.tdp_watts)
            dvfs = machine.dvfs
            f_min.append(dvfs.min_mhz)
            f_max.append(dvfs.max_mhz)
            f_step.append(dvfs.step_mhz)
            f_req.append(dvfs.requested(BE_DOMAIN))
            self._iso.append(exp.config.isolation)
            sens = exp.deployment.servpod(pod).effective_sensitivity()
            model = exp.config.interference
            self._pconst.append(
                (
                    tuple(sens.coefficient(kind) for kind in PRESSURE_KINDS),
                    model.gamma,
                    model.beta,
                    model.headroom,
                    model.sigma_coupling,
                    model.sigma_cap,
                )
            )
        self._busy_coeff = np.asarray(busy_c)
        self._membw_coeff = np.asarray(membw_c)
        self._net_coeff = np.asarray(net_c)
        self._link_eff = np.asarray(link_eff)
        self._link_spec = np.asarray(link_spec)
        self._guard = np.asarray(guard)
        self._cores_farr = np.asarray(cores_f)
        self._idle_w = np.asarray(idle_w)
        self._active_w = np.asarray(active_w)
        self._hi_w = np.asarray(hi_w)
        self._lo_w = np.asarray(lo_w)
        self._f_min = np.asarray(f_min, dtype=np.int64)
        self._f_max = np.asarray(f_max, dtype=np.int64)
        self._f_step = np.asarray(f_step, dtype=np.int64)
        self._busy_c_l = busy_c
        self._membw_c_l = membw_c
        self._net_c_l = net_c
        self._link_eff_l = link_eff
        self._link_spec_l = link_spec
        self._guard_l = guard
        self._cores_f_l = cores_f
        self._sla_l = sla
        self._idle_l = idle_w
        self._active_l = active_w
        self._hi_l = hi_w
        self._lo_l = lo_w
        self._f_min_l = f_min
        self._f_max_l = f_max
        self._f_step_l = f_step
        # The governor's *requested* BE frequency; a fault cap clamps
        # what the hardware runs at (``min(freq, cap)``) without
        # overwriting the request, exactly like ``DvfsGovernor``.
        self._freq: List[int] = f_req

        # -- fault columns (refreshed on fault transitions only) ------------
        # Healthy values are the identity of every op they enter:
        # ``min(freq, f_max) == freq``, ``p_freq == 0.0``, ``x * 1.0``.
        self._f_cap = np.asarray(f_max, dtype=np.int64)
        self._f_cap_l: List[int] = list(f_max)
        self._r3_lc = np.ones(M)
        self._r3_lc_l: List[float] = [1.0] * M
        self._p_freq_l: List[float] = [0.0] * M
        self._extra_llc_l: List[float] = [0.0] * M
        self._nic_fault_l: List[bool] = [False] * M
        self._stall_l: List[float] = [1.0] * M

        # (freq / max) ** 3 lookup, computed with *python* pow: the
        # vectorized cube diverges from the scalar path by 1 ulp.
        ranges = {(f_min[m], f_max[m], f_step[m]) for m in range(M)}
        self._r3_table: Optional[np.ndarray] = None
        self._r3_base = 0
        self._r3_step = 1
        if len(ranges) == 1:
            lo, hi, st = next(iter(ranges))
            self._r3_base = lo
            self._r3_step = st
            self._r3_table = np.asarray(
                [(mhz / hi) ** 3 for mhz in range(lo, hi + st, st)]
            )
        self._r3_cache: Dict[Tuple[int, int], float] = {}

        # -- job rows --------------------------------------------------------
        # Under ~8 machines the fixed dispatch cost of each whole-array
        # numpy op dwarfs the elementwise work, so tiny fleets (single
        # cells and bake-off branches among them) keep their rows in a
        # :class:`BeRateKernel` and run the same arithmetic as
        # per-machine python floats; large fleets keep padded
        # (machines, job-slots) SoA arrays. Elementwise float64 ops
        # equal python-float ops bit for bit, so both paths satisfy the
        # same identity pin.
        self._small = M <= _SMALL_FLEET_MACHINES
        self._be = BeRateKernel(M)
        self._cpu_base = np.zeros((M, jmax))
        self._req_cpu = np.ones((M, jmax))
        self._llc_ratio = np.full((M, jmax), np.inf)
        self._membw = np.zeros((M, jmax))
        self._membw_div = np.ones((M, jmax))
        self._membw_mask = np.zeros((M, jmax), dtype=bool)
        self._net = np.zeros((M, jmax))
        self._net_div = np.ones((M, jmax))
        self._net_mask = np.zeros((M, jmax), dtype=bool)
        self._valid = np.zeros((M, jmax))
        self._nw = np.zeros((M, jmax))
        self._rs = np.zeros((M, jmax))
        self._md_total = np.zeros(M)
        self._nd_total = np.zeros(M)
        self._busy_be = np.zeros(M)
        self._row_jobs: List[List] = [[] for _ in range(M)]
        self._row_ids: List[List[str]] = [[] for _ in range(M)]
        self._row_cache: Dict[Tuple, Tuple] = {}
        self._busy_be_l: List[float] = [0.0] * M
        self._p_cpu_l: List[float] = [0.0] * M
        self._p_llc_l: List[float] = [0.0] * M
        self._llc_dem_l: List[float] = [0.0] * M
        self._llc_occ_l: List[float] = [0.0] * M
        self._cnt_inst: List[int] = [0] * M
        self._cnt_cores: List[int] = [0] * M
        self._cnt_ways: List[int] = [0] * M
        self._njobs: List[int] = [0] * M
        self._memo: List[set] = [set() for _ in range(M)]

        # -- deferred metric state ------------------------------------------
        self._lc_int = np.zeros(M)
        self._be_int = np.zeros(M)
        self._cpu_int = np.zeros(M)
        self._membw_int = np.zeros(M)
        self._lc_int_l: List[float] = [0.0] * M
        self._be_int_l: List[float] = [0.0] * M
        self._cpu_int_l: List[float] = [0.0] * M
        self._membw_int_l: List[float] = [0.0] * M
        self._elapsed = 0.0
        self._cols: List[Tuple] = []
        self._acts: List[List[str]] = []
        self._wins: List[Tuple[List[bool], List[float]]] = []

        # -- the last observe's per-machine outputs -------------------------
        # Lists on the small path, arrays where the vec path computes
        # with them (``_lc_busy``, ``_rate_tot``, ``_rate``).
        self._lc_busy = None
        self._rate_tot = None
        self._rate: Optional[np.ndarray] = None
        self._snap_membw: List[float] = []
        self._snap_net: List[float] = []
        self._last_net: Optional[List[float]] = None

        # Pick up the world's current state: the fault columns of any
        # transition already applied; every job row loads on first use.
        self._dirty = set(range(M))
        for i, injector in enumerate(self._injectors):
            if injector is not None:
                self._refresh_faults(i)

    def fork(self, experiment: "ColocationExperiment") -> "FleetColocationKernel":
        """A kernel over ``experiment``, a copy of this one-instance
        kernel's world taken between :meth:`observe` and :meth:`act`.

        The world must have been synced (:meth:`sync_world`) before it
        was copied, so the new kernel reads the current DVFS request,
        fault columns and job rows from it. The memo sets are copied
        (their verdicts hold for the identical copied world), and this
        tick's observation is shared for the pending :meth:`act`. The
        job-row cache is shared outright: its entries are pure functions
        of their keys, and the copy shares the frozen BE specs whose
        ids the keys hold.
        """
        kernel = FleetColocationKernel([experiment], self._on_tick)
        kernel._row_cache = self._row_cache
        kernel._rebuild_dirty()
        kernel._memo = [set(memo) for memo in self._memo]
        kernel._lc_busy = self._lc_busy
        kernel._last_net = self._last_net
        return kernel

    # -- SoA <-> world synchronisation --------------------------------------

    def _rebuild_dirty(self) -> None:
        for m in sorted(self._dirty):
            self._rebuild_row(m)
        self._dirty.clear()

    def _rebuild_row(self, m: int) -> None:
        """Reload machine ``m``'s job rows from the world objects.

        The one copy of the job-row math, in the scalar
        ``compute_be_rates`` fold order. Small fleets install the rows
        in their :class:`BeRateKernel`; large fleets write them into the
        padded SoA arrays, whose pads carry the identity elements of
        every downstream op (0 for sums and rates, 1 for divisors,
        ``inf`` for min-reductions).
        """
        machine = self._m_mach[m]
        run = self._m_run[m]
        total_cores = self._cores_i[m]
        running = [
            job
            for job in run.pool.jobs()
            if job.state == BeJobState.RUNNING
            and machine.be_allocation(job.job_id) is not None
            and not machine.be_allocation(job.job_id).suspended
        ]
        if len(running) > self._jmax:  # pragma: no cover - pool caps instances
            raise ConfigurationError(
                f"machine {machine.spec.name!r} has {len(running)} running BE "
                f"jobs, fleet rows hold {self._jmax}"
            )
        total_membw_demand = 0.0
        total_net_demand = 0.0
        busy_cores = 0.0
        llc_demand_total = 0.0
        llc_occupied_total = 0.0
        n_ways = machine.llc.n_ways
        cache = self._row_cache
        cpu_b: List[float] = []
        req_c: List[float] = []
        llc_r: List[float] = []
        mbw: List[float] = []
        mbw_m: List[bool] = []
        mbw_d: List[float] = []
        net_l: List[float] = []
        net_m: List[bool] = []
        net_d: List[float] = []
        for job in running:
            spec = job.spec
            alloc = machine.be_allocation(job.job_id)
            # Row values depend only on (spec, cores, llc ways, machine
            # geometry) — all in the key — so one computation serves every
            # job of the same shape fleet-wide. The spec object rides along
            # in the entry to pin its id() for the cache's lifetime.
            key = (id(spec), alloc.cores, alloc.llc_ways, total_cores, n_ways)
            row = cache.get(key)
            if row is None:
                cores = alloc.cores
                llc_granted = alloc.llc_ways / n_ways
                llc_demand = spec.demand_fraction("llc", cores, total_cores)
                membw_demand = spec.demand_fraction("membw", cores, total_cores)
                membw_demand += LLC_SPILL_TO_MEMBW * max(
                    0.0, llc_demand - llc_granted
                )
                llc_usage = spec.usage("llc")
                membw_usage = spec.usage("membw")
                net_usage = spec.usage("net")
                row = (
                    cores / total_cores,
                    min(1.0, spec.saturation_cores / total_cores),
                    llc_granted / llc_usage if llc_usage > 0 else np.inf,
                    min(1.0, membw_demand),
                    membw_usage > 0,
                    membw_usage if membw_usage > 0 else 1.0,
                    spec.demand_fraction("net", cores, total_cores),
                    net_usage > 0,
                    net_usage if net_usage > 0 else 1.0,
                    llc_demand,
                    llc_granted,
                    cores,
                    spec,
                )
                cache[key] = row
            cpu_b.append(row[0])
            req_c.append(row[1])
            llc_r.append(row[2])
            mbw.append(row[3])
            mbw_m.append(row[4])
            mbw_d.append(row[5])
            net_l.append(row[6])
            net_m.append(row[7])
            net_d.append(row[8])
            total_membw_demand += row[3]
            total_net_demand += row[6]
            busy_cores += row[11]
            llc_demand_total += row[9]
            llc_occupied_total += row[10]
        k = len(running)
        if self._small:
            self._be.load(
                m,
                running,
                (cpu_b, req_c, llc_r, mbw, mbw_m, mbw_d, net_l, net_m, net_d),
                total_membw_demand,
                total_net_demand,
            )
        else:
            self._cpu_base[m, :] = 0.0
            self._req_cpu[m, :] = 1.0
            self._llc_ratio[m, :] = np.inf
            self._membw[m, :] = 0.0
            self._membw_div[m, :] = 1.0
            self._membw_mask[m, :] = False
            self._net[m, :] = 0.0
            self._net_div[m, :] = 1.0
            self._net_mask[m, :] = False
            self._valid[m, :] = 0.0
            self._nw[m, :] = 0.0
            self._rs[m, :] = 0.0
            if k:
                self._cpu_base[m, :k] = cpu_b
                self._req_cpu[m, :k] = req_c
                self._llc_ratio[m, :k] = llc_r
                self._membw[m, :k] = mbw
                self._membw_mask[m, :k] = mbw_m
                self._membw_div[m, :k] = mbw_d
                self._net[m, :k] = net_l
                self._net_mask[m, :k] = net_m
                self._net_div[m, :k] = net_d
                self._valid[m, :k] = 1.0
                self._nw[m, :k] = [job.normalized_work for job in running]
                self._rs[m, :k] = [job.running_seconds for job in running]
            self._busy_be[m] = busy_cores
            self._md_total[m] = total_membw_demand
            self._nd_total[m] = total_net_demand
        self._count(m)
        self._njobs[m] = k
        self._row_jobs[m] = running
        self._row_ids[m] = [job.job_id for job in running]
        self._busy_be_l[m] = busy_cores
        self._llc_dem_l[m] = min(1.0, llc_demand_total)
        self._llc_occ_l[m] = min(1.0, llc_occupied_total)
        # CPU and LLC pressure are pure functions of row state, so they
        # only move when the row does; the tick loop reads the cache.
        iso = self._iso[m]
        self._p_cpu_l[m] = iso.cpu_pressure(min(1.0, busy_cores / total_cores))
        self._p_llc_l[m] = iso.llc_pressure(
            self._llc_occ_l[m], self._llc_dem_l[m]
        )

    def _count(self, m: int) -> None:
        """Reload machine ``m``'s BE counter gauges."""
        machine = self._m_mach[m]
        self._cnt_inst[m] = machine.be_instance_count
        self._cnt_cores[m] = machine.be_total_cores
        self._cnt_ways[m] = machine.be_total_llc_ways

    def _flush_row(self, m: int) -> None:
        """Write machine ``m``'s SoA BE progress back into its ``BeJob`` objects.

        Only large fleets accrue progress in SoA; a small fleet's objects
        are always authoritative. A dirty row is skipped: its objects
        are already authoritative (flushed right before the apply that
        dirtied it, which may have killed jobs and clawed their
        in-flight work back), and no progress accrues until the row is
        rebuilt.
        """
        jobs = self._row_jobs[m]
        if self._small or not jobs or m in self._dirty:
            return
        nw = self._nw[m, : len(jobs)].tolist()
        rs = self._rs[m, : len(jobs)].tolist()
        for j, job in enumerate(jobs):
            job.normalized_work = nw[j]
            job.running_seconds = rs[j]

    def sync_world(self) -> None:
        """Make the world objects authoritative again.

        Writes SoA BE progress into the ``BeJob`` objects, the BE DVFS
        request into each ``DvfsGovernor`` and this tick's LC traffic
        into each NIC (which recomputes its BE cap) — the state a
        deep copy or a world digest reads. Idempotent.
        """
        net = self._last_net
        for m in range(self._n_machines):
            self._flush_row(m)
            machine = self._m_mach[m]
            if self._freq[m] >= self._f_max_l[m]:
                machine.dvfs.reset(BE_DOMAIN)
            else:
                machine.dvfs.set_frequency(BE_DOMAIN, self._freq[m])
            if net is not None:
                machine.nic.observe_lc_traffic(net[m])

    def _refresh_faults(self, i: int) -> None:
        """Reload instance ``i``'s fault columns after a transition.

        Reads back exactly what the object path consults per tick —
        ``ClusterFaultInjector.effects``, the NIC's effective link, the
        DVFS caps — all of which only move inside ``advance``. The
        instance's rows are marked dirty: ``offline_cores`` may have
        shrunk its BE jobs (its progress was flushed before ``advance``).
        """
        injector = self._injectors[i]
        for m in self._inst_machines[i]:
            machine = self._m_mach[m]
            extra_llc, nic_fault, stall = injector.effects(machine.spec.name)
            self._extra_llc_l[m] = extra_llc
            self._nic_fault_l[m] = nic_fault
            self._stall_l[m] = stall
            link = machine.nic.effective_link_gbps
            self._link_eff_l[m] = link
            self._link_eff[m] = link
            cap = machine.dvfs.cap(BE_DOMAIN)
            f_cap = self._f_max_l[m] if cap is None else cap
            self._f_cap_l[m] = f_cap
            self._f_cap[m] = f_cap
            lc_ratio = machine.dvfs.ratio(LC_DOMAIN)
            self._p_freq_l[m] = max(0.0, 1.0 - lc_ratio)
            r3_lc = lc_ratio**3
            self._r3_lc_l[m] = r3_lc
            self._r3_lc[m] = r3_lc
            self._dirty.add(m)

    def _begin_windows(
        self, t: float, dt: float
    ) -> Tuple[List[float], List[float], List[int]]:
        """Phase 0 for every instance: fault transitions, load windows.

        Returns per-instance ``(load, realized_load, n_samples)``. On a
        faulted instance's transition tick its (clean) rows are flushed
        to the ``BeJob`` objects *before* ``advance`` runs inside
        ``_begin_tick``, so the rebuild that follows reloads current
        progress.
        """
        n = len(self._exps)
        w_load: List[float] = [0.0] * n
        w_real: List[float] = [0.0] * n
        w_n: List[int] = [0] * n
        injectors = self._injectors
        for i, exp in enumerate(self._exps):
            injector = injectors[i]
            if injector is not None and t >= injector.next_transition_s:
                for m in self._inst_machines[i]:
                    self._flush_row(m)
                n_events = len(injector.events)
                window = exp._begin_tick(t, dt)
                if len(injector.events) != n_events:
                    self._refresh_faults(i)
            else:
                window = exp._begin_tick(t, dt)
            w_load[i] = window.load
            w_real[i] = window.realized_load
            w_n[i] = window.n_samples
        if self._dirty:
            self._rebuild_dirty()
        return w_load, w_real, w_n

    # -- one lockstep tick ---------------------------------------------------

    def tick(self, tick_index: int, t: float, dt: float, last: bool) -> None:
        """One control period across the whole fleet."""
        loads, closed, tails = self.observe(t, dt)
        self.act(self._decide(t, loads, tails, last))
        if self._on_tick is not None:
            rate_tot = self._rate_tot
            if not self._small:
                rate_tot = rate_tot.tolist()
            be_rates = [0.0] * len(self._exps)
            for i, rows in enumerate(self._inst_machines):
                rate_sum = 0.0
                for m in rows:
                    rate_sum += rate_tot[m]
                be_rates[i] = rate_sum
            self._on_tick(tick_index, t, loads, closed, tails, be_rates)

    def observe(
        self, t: float, dt: float
    ) -> Tuple[List[float], List[bool], List[float]]:
        """Phases 0-3 of one control period: everything a controller reads.

        Load windows and fault transitions, BE rates and progress,
        slowdowns, latency draws and window tails, plus this tick's
        deferred metric column. Returns per-instance ``(loads, closed,
        tails)`` and leaves the per-machine observation on the kernel
        for :meth:`act` and :meth:`sample_fields`.
        """
        if self._small:
            return self._observe_small(t, dt)
        return self._observe_vec(t, dt)

    def _slowdowns(
        self,
        real_l: List[float],
        membw_l: List[float],
        net_l: List[float],
        lc_net_l: List[float],
    ) -> Tuple[List[float], List[float]]:
        """Pressure -> slowdown -> sigma inflation, python per machine.

        The fused form of ``Pressure.from_be_snapshot`` →
        ``adjust_pressure`` → ``InterferenceModel.slowdown`` →
        ``*= stall_factor`` → ``sigma_inflation``: same expressions, same
        fold order (``x ** gamma`` and the impact fold must stay python).
        ``lc_net_l`` (per-machine LC traffic demand) is only read by
        faulted fleets, for the NIC shortfall.
        """
        M = self._n_machines
        faulted = self._faulted
        slow_l: List[float] = [1.0] * M
        infl_l: List[float] = [1.0] * M
        p_cpu_l = self._p_cpu_l
        p_llc_l = self._p_llc_l
        for m in range(M):
            p_cpu = p_cpu_l[m]
            p_llc = p_llc_l[m]
            p_membw = membw_l[m]
            p_net = net_l[m]
            # Healthy machines: the LC DVFS domain is never capped, so
            # its ratio is bitwise 1.0 and the frequency term is 0.0.
            p_freq = 0.0
            if faulted:
                p_freq = self._p_freq_l[m]
                extra_llc = self._extra_llc_l[m]
                nic_fault = self._nic_fault_l[m]
                if extra_llc > 0.0 or nic_fault:
                    p_llc = min(1.0, p_llc + extra_llc)
                    if nic_fault:
                        demand = lc_net_l[m]
                        shortfall = 0.0
                        if demand > 0.0:
                            shortfall = (
                                max(0.0, demand - self._link_eff_l[m]) / demand
                            )
                        p_net = min(1.0, max(p_net, shortfall))
            coeffs, gamma, beta, hroom, coup, cap = self._pconst[m]
            if (
                p_cpu == 0.0
                and p_llc == 0.0
                and p_membw == 0.0
                and p_net == 0.0
                and p_freq == 0.0
            ):
                slow = 1.0
            else:
                impact = coeffs[0] * p_cpu**gamma
                impact = impact + coeffs[1] * p_llc**gamma
                impact = impact + coeffs[2] * p_membw**gamma
                impact = impact + coeffs[3] * p_net**gamma
                impact = impact + coeffs[4] * p_freq**gamma
                lo = real_l[m]
                if lo < 0.0:
                    lo = 0.0
                elif lo > 1.0:
                    lo = 1.0
                amp = 1.0 + beta * lo / (hroom + (1.0 - lo))
                slow = 1.0 + amp * impact
            if faulted:
                slow *= self._stall_l[m]
            slow_l[m] = slow
            infl = 1.0 + coup * (slow - 1.0)
            infl_l[m] = infl if infl < cap else cap
        return slow_l, infl_l

    def _sample_tails(
        self,
        w_real: List[float],
        w_n: List[int],
        slow_l: List[float],
        infl_l: List[float],
    ) -> Tuple[List[bool], List[float]]:
        """Latency sampling + window tails for every instance.

        Per-instance RNG draws stay sequential (stream identity); the
        tail reduction groups instances by ``(n_samples, percentile)``
        and runs one partitioned percentile per group, bitwise equal to
        the scalar per-instance ``np.percentile`` call. Instances with a
        histogram estimator feed it through their own ``_window_tail``.
        """
        n_exp = len(self._exps)
        closed = [False] * n_exp
        tails = [0.0] * n_exp
        groups: Dict[Tuple[int, float], Tuple[List[int], List[np.ndarray]]] = {}
        for i in range(n_exp):
            n = w_n[i]
            if n <= 0:
                continue
            slowdowns: Dict[str, float] = {}
            inflations: Dict[str, float] = {}
            for m in self._inst_machines[i]:
                pod = self._m_pod[m]
                slowdowns[pod] = slow_l[m]
                inflations[pod] = infl_l[m]
            lat = self._samplers[i].sample_e2e(w_real[i], n, slowdowns, inflations)
            closed[i] = True
            if self._histogram[i]:
                tails[i] = self._exps[i]._window_tail(lat)
                continue
            key = (n, self._tail_pct[i])
            bucket = groups.get(key)
            if bucket is None:
                bucket = ([], [])
                groups[key] = bucket
            bucket[0].append(i)
            bucket[1].append(lat)
        for (_n, pct), (members, lats) in groups.items():
            if len(lats) == 1:
                vals = [percentile_linear(lats[0], pct)]
            else:
                vals = percentile_linear_rows(np.stack(lats), pct)
            for i, tail in zip(members, vals):
                tails[i] = tail
        return closed, tails

    def _observe_small(
        self, t: float, dt: float
    ) -> Tuple[List[float], List[bool], List[float]]:
        """Per-machine python observe for small fleets.

        Identical arithmetic to :meth:`_observe_vec`, operand for
        operand: every whole-array op there is elementwise over machines
        (or a strictly left-to-right fold over job slots), and
        elementwise float64 equals python-float arithmetic bit for bit,
        so both paths land on the same identity pin. ``np.minimum``/
        ``maximum`` become comparisons — equivalent here because no
        operand is NaN and no tie mixes signed zeros.
        """
        M = self._n_machines
        m_i = self._m_i
        faulted = self._faulted
        be = self._be

        # Phase 0: fault transitions + load windows (per-instance RNG).
        w_load, w_real, w_n = self._begin_windows(t, dt)

        # Phases 1 + 3 per machine: LC usage, NIC caps, headroom,
        # Leontief rates, BE progress.
        real_l: List[float] = [0.0] * M
        membw_l: List[float] = [0.0] * M
        net_l: List[float] = [0.0] * M
        lc_busy_l: List[float] = [0.0] * M
        lc_net_l: List[float] = [0.0] * M
        rate_tot_l: List[float] = [0.0] * M
        busy_tot_l: List[float] = [0.0] * M
        membw_tot_l: List[float] = [0.0] * M
        load_m: List[float] = [0.0] * M
        for m in range(M):
            i = m_i[m]
            real = w_real[i]
            real_l[m] = real
            load_m[m] = w_load[i]
            lc_busy = self._busy_c_l[m] * real
            lc_membw = self._membw_c_l[m] * real
            if lc_membw > 1.0:
                lc_membw = 1.0
            lc_net = self._net_c_l[m] * real
            link = self._link_eff_l[m]
            lc_sent = lc_net if lc_net < link else link
            be_cap = link - self._guard_l[m] * lc_sent
            if be_cap < 0.0:
                be_cap = 0.0
            headroom = 1.0 - lc_membw
            if headroom < 0.0:
                headroom = 0.0
            freq = self._freq[m]
            if faulted and self._f_cap_l[m] < freq:
                freq = self._f_cap_l[m]
            membw_used, net_used, rate_total = be.be_rates(
                m,
                freq / self._f_max_l[m],
                headroom,
                be_cap / self._link_spec_l[m],
            )
            be.advance_be(m, dt)
            snap_membw = membw_used if membw_used < 1.0 else 1.0
            membw_l[m] = snap_membw
            net_l[m] = net_used if net_used < 1.0 else 1.0
            lc_busy_l[m] = lc_busy
            lc_net_l[m] = lc_net
            rate_tot_l[m] = rate_total
            busy_tot = lc_busy + self._busy_be_l[m]
            busy_tot_l[m] = busy_tot
            membw_tot = lc_membw + snap_membw
            if membw_tot > 1.0:
                membw_tot = 1.0
            membw_tot_l[m] = membw_tot
            cores_f = self._cores_f_l[m]
            self._lc_int_l[m] += load_m[m] * dt
            self._be_int_l[m] += rate_total * dt
            self._cpu_int_l[m] += (busy_tot if busy_tot < cores_f else cores_f) * dt
            self._membw_int_l[m] += membw_tot * dt
        self._elapsed += dt

        # Phase 1d + 2: slowdowns, then latency sampling (both shared
        # with the vectorized path).
        slow_l, infl_l = self._slowdowns(real_l, membw_l, net_l, lc_net_l)
        closed, tails = self._sample_tails(w_real, w_n, slow_l, infl_l)

        # Deferred metrics: python columns; counters copied before the
        # applies, like the scalar record_tick.
        self._cols.append(
            (
                t,
                load_m,
                [tails[m_i[m]] for m in range(M)],
                busy_tot_l,
                membw_tot_l,
                rate_tot_l,
                list(self._cnt_inst),
                list(self._cnt_cores),
                list(self._cnt_ways),
                list(self._njobs),
            )
        )
        self._wins.append((closed, tails))
        self._lc_busy = lc_busy_l
        self._last_net = lc_net_l
        self._rate_tot = rate_tot_l
        self._snap_membw = membw_l
        self._snap_net = net_l
        return w_load, closed, tails

    def _observe_vec(
        self, t: float, dt: float
    ) -> Tuple[List[float], List[bool], List[float]]:
        """Whole-array observe over every instance (large fleets)."""
        M = self._n_machines
        faulted = self._faulted

        # Phase 0: fault transitions, load windows, dirty-row rebuilds.
        w_load, w_real, w_n = self._begin_windows(t, dt)

        # Phase 1a: LC usage and NIC caps, whole fleet at once, against
        # the effective (fault-scaled) link.
        real_m = np.asarray(w_real)[self._m_i_arr]
        lc_busy = self._busy_coeff * real_m
        lc_membw = np.minimum(1.0, self._membw_coeff * real_m)
        lc_net = self._net_coeff * real_m
        lc_sent = np.minimum(lc_net, self._link_eff)
        be_cap = np.maximum(0.0, self._link_eff - self._guard * lc_sent)
        be_cap_frac = be_cap / self._link_spec

        # Phase 1b: proportional headroom shares. min(1, inf) == 1
        # covers the scalar "no demand -> scale 1.0" branch.
        headroom = np.maximum(0.0, 1.0 - lc_membw)
        quot = np.full(M, np.inf)
        np.divide(headroom, self._md_total, out=quot, where=self._md_total > 0.0)
        membw_scale = np.minimum(1.0, quot)
        quot = np.full(M, np.inf)
        np.divide(be_cap_frac, self._nd_total, out=quot, where=self._nd_total > 0.0)
        net_scale = np.minimum(1.0, quot)

        # Phase 1c: Leontief rates, exact BeRateKernel op order, at the
        # capped BE frequency.
        freq = np.asarray(self._freq, dtype=np.int64)
        if faulted:
            freq = np.minimum(freq, self._f_cap)
        fratio = freq / self._f_max
        ratios = (self._cpu_base * fratio[:, None]) / self._req_cpu
        ratios = np.minimum(ratios, self._llc_ratio)
        granted_membw = self._membw * membw_scale[:, None]
        ratios = np.minimum(
            ratios,
            np.where(self._membw_mask, granted_membw / self._membw_div, np.inf),
        )
        granted_net = self._net * net_scale[:, None]
        ratios = np.minimum(
            ratios,
            np.where(self._net_mask, granted_net / self._net_div, np.inf),
        )
        rate = np.maximum(0.0, np.minimum(1.0, ratios))

        # Padded column sweeps as ``add.accumulate`` (strictly sequential
        # left-to-right, unlike ``np.sum``'s pairwise fold): exact because
        # pads add +0.0 to non-negative accumulators and the first column
        # satisfies ``0.0 + c == c`` bitwise for c >= 0.
        membw_used = np.cumsum(granted_membw, axis=1)[:, -1]
        net_used = np.cumsum(granted_net, axis=1)[:, -1]
        rate_total = np.cumsum(rate, axis=1)[:, -1]
        snap_membw = np.minimum(1.0, membw_used)
        snap_net = np.minimum(1.0, net_used)

        # Phase 1d: pressure -> slowdown -> sigma inflation (python).
        membw_l = snap_membw.tolist()
        net_l = snap_net.tolist()
        lc_net_l = lc_net.tolist()
        slow_l, infl_l = self._slowdowns(real_m.tolist(), membw_l, net_l, lc_net_l)

        # Phase 2: latency sampling per instance (per-instance RNG),
        # tails reduced per (n_samples, percentile) group in one
        # partitioned-percentile call — bitwise equal per row.
        closed, tails = self._sample_tails(w_real, w_n, slow_l, infl_l)

        # Phase 3: BE progress, in place (elementwise == python floats).
        self._nw += dt * rate
        self._rs += dt * self._valid

        # Deferred metrics: integrate now, materialise at end of run.
        # Counter columns are copied *before* this tick's applies, like
        # the scalar record_tick.
        tail_m = np.asarray(tails)[self._m_i_arr]
        load_m = np.asarray(w_load)[self._m_i_arr]
        busy_total = lc_busy + self._busy_be
        membw_total = np.minimum(1.0, lc_membw + snap_membw)
        self._lc_int += load_m * dt
        self._be_int += rate_total * dt
        self._cpu_int += np.minimum(busy_total, self._cores_farr) * dt
        self._membw_int += np.minimum(membw_total, 1.0) * dt
        self._elapsed += dt
        self._cols.append(
            (
                t,
                load_m,
                tail_m,
                busy_total,
                membw_total,
                rate_total,
                list(self._cnt_inst),
                list(self._cnt_cores),
                list(self._cnt_ways),
                list(self._njobs),
            )
        )
        self._wins.append((closed, tails))
        self._lc_busy = lc_busy
        self._last_net = lc_net_l
        self._rate_tot = rate_total
        self._rate = rate
        self._snap_membw = membw_l
        self._snap_net = net_l
        return w_load, closed, tails

    def sample_fields(self, m: int) -> Tuple:
        """Machine ``m``'s record fields from the last :meth:`observe`.

        ``(busy_cores, membw_utilisation, be_instances, be_cores,
        be_llc_ways, be_rate)`` as python numbers, counters taken before
        the applies — exactly what the scalar ``record_tick`` receives.
        ``be_rate`` is the *int* 0 when no job runs: the scalar path
        sums an empty rates dict, and fingerprint reprs must match.
        """
        _t, _load, _tail, busy, membw, rate, inst, cores, ways, njobs = (
            self._cols[-1]
        )
        return (
            float(busy[m]),
            float(membw[m]),
            inst[m],
            cores[m],
            ways[m],
            float(rate[m]) if njobs[m] else 0,
        )

    def _decide(
        self, t: float, loads: List[float], tails: List[float], last: bool
    ) -> List[BeAction]:
        """Every machine's controller decision (plus action filter)."""
        exps = self._exps
        M = self._n_machines
        actions: List[BeAction] = [BeAction.STOP_BE] * M
        acts: List[str] = [""] * M
        for m in range(M):
            i = self._m_i[m]
            run = self._m_run[m]
            action = run.controller.decide(loads[i], tails[i], t=t)
            filt = exps[i].action_filter
            if filt is not None:
                action = filt(self._m_pod[m], action)
            run.last_action = action
            actions[m] = action
            acts[m] = action.value
            if last:
                ids = self._row_ids[m]
                if self._small:
                    rates = self._be.rates[m]
                else:
                    rates = self._rate[m, : len(ids)].tolist()
                run.last_snapshot = BeResourceSnapshot(
                    busy_cores=self._busy_be_l[m],
                    membw_fraction=self._snap_membw[m],
                    llc_demand_fraction=self._llc_dem_l[m],
                    llc_occupied_fraction=self._llc_occ_l[m],
                    net_fraction=self._snap_net[m],
                    rates=dict(zip(ids, rates)),
                )
        self._acts.append(acts)
        return actions

    def memo_hit(self, m: int, action: BeAction) -> bool:
        """Whether applying ``action`` on machine ``m`` is a proven no-op."""
        return self._memo_key(m, action) in self._memo[m]

    def _memo_key(self, m: int, action: BeAction) -> Tuple:
        machine = self._m_mach[m]
        if self._faulted:
            return _memo_key(self._m_pod[m], action, machine)
        return (action, machine.version, machine.mem_version)

    def act(self, actions: Sequence[BeAction]) -> None:
        """Phases 4-5: memoized subcontroller applies, then the frequency step.

        ``actions`` holds one decision per machine. The applies run
        through the instances' shared subcontrollers on the world
        objects; the frequency subcontroller runs in the kernel's
        columns (post-apply BE core counts, python pow cube; steps start
        from the capped frequency and an idle step keeps the request,
        like ``DvfsGovernor``).
        """
        faulted = self._faulted
        stop = BeAction.STOP_BE
        for m, action in enumerate(actions):
            key = self._memo_key(m, action)
            memo = self._memo[m]
            if key in memo:
                continue
            self._flush_row(m)
            machine = self._m_mach[m]
            run = self._m_run[m]
            exp = self._exps[self._m_i[m]]
            v0 = machine.version
            mv0 = machine.mem_version
            exp._cpu_llc.apply(action, machine, run.pool)
            exp._memory.apply(action, machine, run.pool)
            if action is stop:
                # STOP reset the BE DVFS request; mirror it and never
                # memoize (the key cannot witness this side effect).
                self._freq[m] = self._f_max_l[m]
            if machine.version != v0:
                self._dirty.add(m)
                self._count(m)
            elif machine.mem_version == mv0 and action is not stop:
                memo.add(key)

        if not self._small:
            self._step_frequency_vec()
            return
        r3_cache = self._r3_cache
        lc_busy = self._lc_busy
        req = self._freq
        for m in range(self._n_machines):
            f = req[m]
            lc_term = lc_busy[m]
            if faulted:
                if self._f_cap_l[m] < f:
                    f = self._f_cap_l[m]
                lc_term = lc_term * self._r3_lc_l[m]
            mx = self._f_max_l[m]
            v = r3_cache.get((f, mx))
            if v is None:
                v = (f / mx) ** 3
                r3_cache[(f, mx)] = v
            power = self._idle_l[m] + self._active_l[m] * (
                lc_term + self._cnt_cores[m] * v
            )
            if power > self._hi_l[m]:
                req[m] = max(self._f_min_l[m], f - self._f_step_l[m])
            elif power < self._lo_l[m]:
                req[m] = min(mx, f + self._f_step_l[m])

    def _step_frequency_vec(self) -> None:
        """Phase 5 for the whole fleet at once (same table, same steps)."""
        faulted = self._faulted
        req = np.asarray(self._freq, dtype=np.int64)
        freq = np.minimum(req, self._f_cap) if faulted else req
        if self._r3_table is not None:
            r3 = self._r3_table[(freq - self._r3_base) // self._r3_step]
        else:
            cache = self._r3_cache
            vals = []
            for m, f in enumerate(freq.tolist()):
                mx = self._f_max_l[m]
                v = cache.get((f, mx))
                if v is None:
                    v = (f / mx) ** 3
                    cache[(f, mx)] = v
                vals.append(v)
            r3 = np.asarray(vals)
        lc_term = self._lc_busy * self._r3_lc if faulted else self._lc_busy
        power = self._idle_w + self._active_w * (
            lc_term + np.asarray(self._cnt_cores, dtype=np.int64) * r3
        )
        down = power > self._hi_w
        up = (~down) & (power < self._lo_w)
        self._freq = np.where(
            down,
            np.maximum(self._f_min, freq - self._f_step),
            np.where(up, np.minimum(self._f_max, freq + self._f_step), req),
        ).tolist()

    # -- whole runs ----------------------------------------------------------

    def run(self) -> List["ColocationResult"]:
        """Run every experiment to completion; results in input order."""
        times = _tick_times(self._period_s, self._duration_s)
        n_ticks = len(times)
        lsum = [0.0] * len(self._exps)
        for k, t in enumerate(times):
            self.tick(k, t, self._period_s, last=(k == n_ticks - 1))
            for i, exp in enumerate(self._exps):
                lsum[i] += min(1.0, max(0.0, exp.pattern.load_at(t)))
        self._finalize()
        return [
            exp._result(lsum[i] / max(1, n_ticks), events_fired=n_ticks)
            for i, exp in enumerate(self._exps)
        ]

    def _finalize(self) -> None:
        """Sync the world and materialise the deferred metrics."""
        self.sync_world()
        M = self._n_machines
        elapsed = self._elapsed
        if self._small:
            lc_l = self._lc_int_l
            be_l = self._be_int_l
            cpu_l = self._cpu_int_l
            mb_l = self._membw_int_l
        else:
            lc_l = self._lc_int.tolist()
            be_l = self._be_int.tolist()
            cpu_l = self._cpu_int.tolist()
            mb_l = self._membw_int.tolist()
        for m in range(M):
            metrics = self._m_run[m].metrics
            emu = metrics.emu
            emu._lc_integral = lc_l[m]
            emu._be_integral = be_l[m]
            emu._elapsed = elapsed
            util = metrics.utilisation
            util._cpu_integral = cpu_l[m]
            util._membw_integral = mb_l[m]
            util._elapsed = elapsed
        sla_l = self._sla_l
        cores_l = self._cores_f_l
        for col, acts in zip(self._cols, self._acts):
            (t, load_m, tail_m, busy, membw, rate_tot, ci, cc, cw, nj) = col
            if not self._small:
                load_m = load_m.tolist()
                tail_m = tail_m.tolist()
                busy = busy.tolist()
                membw = membw.tolist()
                rate_tot = rate_tot.tolist()
            for m in range(M):
                tail = tail_m[m]
                sla = sla_l[m]
                self._m_run[m].metrics.samples.append(
                    TickSample(
                        t=t,
                        load=load_m[m],
                        slack=(sla - tail) / sla,
                        tail_ms=tail,
                        cpu_utilisation=min(1.0, busy[m] / cores_l[m]),
                        membw_utilisation=membw[m],
                        be_instances=ci[m],
                        be_cores=cc[m],
                        be_llc_ways=cw[m],
                        # An empty rates dict sums to the *int* 0 on the
                        # scalar path (sum of no floats) — match it so
                        # fingerprint reprs stay bitwise identical.
                        be_rate=rate_tot[m] if nj[m] else 0,
                        action=acts[m],
                    )
                )
        for i, rows in enumerate(self._inst_machines):
            window_tails = [tl[i] for (cv, tl) in self._wins if cv[i]]
            for m in rows:
                self._m_run[m].metrics.tail.record_window_tails(window_tails)


# ---------------------------------------------------------------------------
# Bake-off: many controller sets over one shared physics pass
# ---------------------------------------------------------------------------


@dataclass
class BakeoffStats:
    """Sharing accounting of one :class:`BakeoffKernel` run.

    ``branch_ticks`` counts physics passes actually executed (one per
    live branch per tick); running the ``members`` controller sets
    independently would cost ``members * ticks`` passes, so the saving
    is their difference.
    """

    members: int = 0
    ticks: int = 0
    branch_ticks: int = 0
    forks: int = 0
    merges: int = 0
    max_branches: int = 0

    @property
    def physics_passes_saved(self) -> int:
        """Physics passes avoided vs independent per-member runs."""
        return self.members * self.ticks - self.branch_ticks

    @property
    def shared_fraction(self) -> float:
        """Fraction of the independent-run physics cost avoided."""
        total = self.members * self.ticks
        return self.physics_passes_saved / total if total else 0.0


class _BakeoffMember:
    """One controller set racing in the bake-off, with its own metrics."""

    __slots__ = (
        "name",
        "controllers",
        "metrics",
        "kill_offset",
        "susp_offset",
        "actions",
    )

    def __init__(self, name, controllers, metrics) -> None:
        self.name = name
        self.controllers = controllers
        self.metrics = metrics
        # Integer counter virtualisation: this member's independent-run
        # kill/suspension totals equal its branch world's totals plus
        # these offsets. Exact integer arithmetic, adjusted only at
        # merge time, so no float associativity is ever at stake.
        self.kill_offset = 0
        self.susp_offset = 0
        self.actions: List[BeAction] = []


#: Distinct-from-everything marker for the memo-normalisation lookup
#: (``None`` is a real verdict there, so ``dict.get`` needs a third state).
_UNRESOLVED = object()


def _memo_key(pod: str, action: BeAction, machine) -> Tuple:
    """The no-op memo key for one pod's pending action.

    ``version``/``mem_version`` witness every BE-visible allocation
    change, but fault injection moves capacity *without* bumping them:
    ``offline_cores``/``fault_llc_ways`` park cores and cache ways under
    the fault owner and the restore hands them straight back to the free
    pool. A memoized "ALLOW was a no-op" verdict recorded while capacity
    was fault-held would otherwise stay live after the restore and skip
    a launch that the scalar engine performs. Including the fault-held
    counts in the key invalidates the memo across every such transition.
    """
    return (
        pod,
        action,
        machine.version,
        machine.mem_version,
        machine.offlined_cores,
        machine.lost_llc_ways,
    )


class _BakeoffBranch:
    """One materialised world shared by members whose decisions agree."""

    __slots__ = ("exp", "kernel", "members")

    def __init__(self, exp, kernel, members) -> None:
        self.exp = exp
        # A one-instance FleetColocationKernel over ``exp``. Its no-op
        # memo (see :func:`_memo_key`) both skips repeated applies and
        # *normalises* action vectors before divergence partitioning:
        # two members whose actions differ only on memoized-no-op pods
        # share one world mutation.
        self.kernel = kernel
        self.members = members  # member indices, ascending


class BakeoffKernel:
    """Runs N controller sets over one seeded scenario in a single pass.

    Every branch ticks through a one-instance
    :class:`FleetColocationKernel`. Its :meth:`~FleetColocationKernel.observe`
    half — fault advance, load window, BE rates and progress,
    interference pressure, Servpod latency draws — runs **once per
    branch** and is broadcast to every member (controller set) on that
    branch. Members decide on the shared observation and record their
    own metrics; their action vectors are then normalised through the
    branch kernel's no-op memo and partitioned. One partition keeps the
    branch; each additional partition **forks** a copy-on-write world
    (``copy.deepcopy`` of the experiment: machine state, pools, RNG
    streams, fault injector) with its own kernel, and each partition
    runs the :meth:`~FleetColocationKernel.act` half — memoized applies
    plus the frequency step — on its own world. So the cost of
    divergence is paid only when decisions actually differ in effect.

    The kernel holds BE DVFS requests and NIC caps in its own columns,
    so the world objects are synced
    (:meth:`~FleetColocationKernel.sync_world`) before every fork, every
    merge digest and the final results; a fork's kernel then starts
    from its parent's state.

    Because controller decisions never change RNG *consumption* (window
    sample counts and latency-draw shapes depend only on the load
    pattern and the shared seed), every branch's streams stay bitwise
    equal, and branches whose worlds re-converge — same live jobs, same
    allocations and float progress, same DVFS/NIC state — are detected
    by a state digest and **re-merged**, with per-member integer
    kill/suspension counters virtualised via exact offsets.

    Identity contract: for every member, the returned
    ``ColocationResult`` and the final RNG stream states are
    bit-identical to constructing a fresh ``ColocationExperiment`` with
    that member's controllers over the same seeded scenario and calling
    ``run()`` (``tests/test_bakeoff.py`` pins this in-process, across
    fork/spawn, and under fault schedules).
    """

    def __init__(
        self,
        experiment: "ColocationExperiment",
        members: "Dict[str, Dict[str, object]]",
    ) -> None:
        if not members:
            raise ConfigurationError("bake-off needs at least one member")
        if experiment.action_filter is not None:
            raise ConfigurationError(
                "bake-off does not compose with action_filter hooks"
            )
        pods = list(experiment._runs)
        for name, controllers in members.items():
            missing = set(pods) - set(controllers)
            if missing:
                raise ConfigurationError(
                    f"member {name!r} lacks controllers for {sorted(missing)}"
                )
        self._exp = experiment
        self._pods = pods
        self._duration_s = experiment.config.duration_s
        self._period_s = experiment.config.control_period_s
        # Histogram tail estimators carry cross-tick state that the
        # merge digest does not model; forking still works, merging is
        # simply never attempted.
        self._mergeable = experiment._tail_estimator is None
        self._members: List[_BakeoffMember] = []
        for name, controllers in members.items():
            metrics = {
                pod: MachineMetrics(
                    machine_name=experiment.deployment.servpod(pod).machine.spec.name,
                    servpod=pod,
                    total_cores=experiment.deployment.servpod(pod).machine.spec.cores,
                    sla_ms=experiment.spec.sla_ms,
                    tail_pct=experiment.spec.tail_percentile,
                )
                for pod in pods
            }
            self._members.append(_BakeoffMember(name, dict(controllers), metrics))
        # Kernels live on branches, never on the experiment, so world
        # forks do not deepcopy SoA state.
        self._branches: List[_BakeoffBranch] = [
            _BakeoffBranch(
                experiment,
                FleetColocationKernel([experiment]),
                list(range(len(self._members))),
            )
        ]
        self.stats = BakeoffStats(members=len(self._members))
        self._member_branch: Dict[str, _BakeoffBranch] = {}

    # -- the run loop ---------------------------------------------------

    def run(self) -> "Dict[str, ColocationResult]":
        """Run every member to completion; results keyed by member name."""
        times = _tick_times(self._period_s, self._duration_s)
        n_ticks = len(times)
        self.stats.ticks = n_ticks
        lsum = 0.0
        pattern = self._exp.pattern
        for t in times:
            for branch in list(self._branches):
                self._tick_branch(branch, t, self._period_s)
            if self._mergeable and len(self._branches) > 1:
                self._try_merge()
            self.stats.max_branches = max(
                self.stats.max_branches, len(self._branches)
            )
            lsum += min(1.0, max(0.0, pattern.load_at(t)))
        lc_load_mean = lsum / max(1, n_ticks)
        results: Dict[str, "ColocationResult"] = {}
        for branch in self._branches:
            branch.kernel.sync_world()
            for mi in branch.members:
                member = self._members[mi]
                self._member_branch[member.name] = branch
                results[member.name] = self._member_result(
                    member, branch, lc_load_mean, n_ticks
                )
        return {m.name: results[m.name] for m in self._members}

    def member_streams(self, name: str):
        """The final RNG streams of ``name``'s branch (after ``run``)."""
        return self._member_branch[name].exp.streams

    # -- one tick of one branch -----------------------------------------

    def _tick_branch(self, branch: _BakeoffBranch, t: float, dt: float) -> None:
        self.stats.branch_ticks += 1
        kernel = branch.kernel
        loads, closed, tails = kernel.observe(t, dt)
        load = loads[0]
        tail_ms = tails[0]
        window_closed = closed[0]
        pods = self._pods

        # Pre-apply machine gauges and per-pod sample fields, computed
        # once and recorded for every member: the world is shared until
        # the apply phase, so each member's scalar run would read these
        # exact values.
        pod_fields = [kernel.sample_fields(m) for m in range(len(pods))]

        # Decide + record for every member on the shared observation.
        # Machines are per-pod, so recording all members before any
        # apply sees exactly the pre-apply state the scalar per-pod
        # decide/record/apply interleaving sees. Members that chose the
        # same action for a pod record the exact same field values, so
        # one frozen ``TickSample`` per distinct (pod, action) is built
        # and shared (every member's sla / core capacity comes from the
        # one scenario service, enforced at construction).
        sample_cache: Dict[Tuple[int, BeAction], TickSample] = {}
        for mi in branch.members:
            member = self._members[mi]
            actions = [
                member.controllers[pod].decide(load, tail_ms, t=t) for pod in pods
            ]
            member.actions = actions
            for m, pod in enumerate(pods):
                action = actions[m]
                metrics = member.metrics[pod]
                if window_closed:
                    metrics.tail.record_window_tail(tail_ms)
                key = (m, action)
                sample = sample_cache.get(key)
                if sample is None:
                    (busy, membw, n_inst, n_cores, n_ways, be_rate) = pod_fields[m]
                    sla = metrics.sla_ms
                    sample = TickSample(
                        t=t,
                        load=load,
                        slack=(sla - tail_ms) / sla,
                        tail_ms=tail_ms,
                        cpu_utilisation=min(1.0, busy / metrics.total_cores),
                        membw_utilisation=membw,
                        be_instances=n_inst,
                        be_cores=n_cores,
                        be_llc_ways=n_ways,
                        be_rate=be_rate,
                        action=action.value,
                    )
                    sample_cache[key] = sample
                metrics.record_shared_tick(dt, sample, pod_fields[m][0])

        # Partition members by memo-normalised action vector: a pod
        # whose memo key is a proven no-op is a wildcard — members
        # differing only there share one world mutation. The memo
        # verdict depends only on (pod, action, machine state), so it
        # is resolved once per distinct action and reused.
        norm: Dict[Tuple[int, BeAction], Optional[BeAction]] = {}
        partitions: Dict[Tuple, List[int]] = {}
        for mi in branch.members:
            sig_parts = []
            for m, action in enumerate(self._members[mi].actions):
                pk = (m, action)
                verdict = norm.get(pk, _UNRESOLVED)
                if verdict is _UNRESOLVED:
                    verdict = None if kernel.memo_hit(m, action) else action
                    norm[pk] = verdict
                sig_parts.append(verdict)
            partitions.setdefault(tuple(sig_parts), []).append(mi)

        groups = list(partitions.values())
        if len(groups) > 1:
            # Lazy divergence forking: clone the synced pre-apply world
            # once per extra partition, then let each partition act on
            # its own copy.
            kernel.sync_world()
            branch.members = groups[0]
            for group in groups[1:]:
                fork = self._fork(branch, group)
                self._branches.append(fork)
                fork.kernel.act(self._members[group[0]].actions)
        kernel.act(self._members[branch.members[0]].actions)

    # -- copy-on-write world forking --------------------------------------

    def _scenario_shared_state(self, exp) -> List[object]:
        """The scenario objects every branch may share by reference.

        A fork must duplicate exactly the state a branch can *mutate*:
        machine/cluster state, BE pools, RNG streams, the load
        generator, the fault injector, tail estimators. Everything else
        about the scenario is decision-independent and read-only for
        the whole run — the frozen service/BE specs, the load pattern,
        the config (and its fault schedule), the stateless
        subcontrollers, and the experiment's own controllers (the
        bake-off consults only *member* controllers, never the
        scenario experiment's; enforced by every member carrying a
        fresh ``build_controllers`` set). Sharing these turns the fork
        deep-copy into a copy-on-write snapshot of just the mutable
        world, which is what lets the engine win even on
        high-divergence rosters (see ``bench_bakeoff.py``).
        """
        shared: List[object] = [
            exp.spec,
            exp.pattern,
            exp.config,
            exp._cpu_llc,
            exp._frequency,
            exp._memory,
            exp._network,
        ]
        if exp.config.faults is not None:
            shared.append(exp.config.faults)
            shared.extend(exp.config.faults.faults)
        shared.extend(exp.be_specs)
        shared.extend(exp.controllers.values())
        return shared


    def _fork(self, branch: _BakeoffBranch, group: List[int]) -> _BakeoffBranch:
        """Clone ``branch``'s (synced) world for a diverging member partition.

        The deep copy is seeded with a memo mapping every shared
        scenario object to itself (:meth:`_scenario_shared_state`), so
        only the mutable world state is duplicated. Kernels live on
        branches, not experiments, so no SoA state is copied either:
        :meth:`FleetColocationKernel.fork` builds the clone's kernel
        from the clone's world (DVFS request, fault columns, job rows)
        plus copies of the parent kernel's memo sets.
        """
        self.stats.forks += 1
        exp = branch.exp
        memo: Dict[int, object] = {
            id(obj): obj for obj in self._scenario_shared_state(exp)
        }
        clone = copy.deepcopy(exp, memo)
        return _BakeoffBranch(clone, branch.kernel.fork(clone), group)

    # -- re-merge detection ---------------------------------------------

    def _try_merge(self) -> None:
        """Collapse branches whose forward-relevant state re-converged."""
        by_digest: Dict[Tuple, List[_BakeoffBranch]] = {}
        for branch in self._branches:
            branch.kernel.sync_world()
            by_digest.setdefault(_world_digest(branch.exp), []).append(branch)
        if len(by_digest) == len(self._branches):
            return
        survivors: List[_BakeoffBranch] = []
        for branch in self._branches:
            group = by_digest.get(_world_digest(branch.exp))
            if group is None or group[0] is branch:
                survivors.append(branch)
        for group in by_digest.values():
            keep = group[0]
            k_kills = keep.exp.deployment.cluster.total_be_kills
            k_susp = sum(
                m.counters.be_suspensions for m in keep.exp.deployment.cluster
            )
            for other in group[1:]:
                o_kills = other.exp.deployment.cluster.total_be_kills
                o_susp = sum(
                    m.counters.be_suspensions
                    for m in other.exp.deployment.cluster
                )
                for mi in other.members:
                    member = self._members[mi]
                    member.kill_offset += o_kills - k_kills
                    member.susp_offset += o_susp - k_susp
                keep.members.extend(other.members)
                self.stats.merges += 1
            keep.members.sort()
        self._branches = survivors

    # -- results --------------------------------------------------------

    def _member_result(
        self,
        member: _BakeoffMember,
        branch: _BakeoffBranch,
        lc_load_mean: float,
        n_ticks: int,
    ) -> "ColocationResult":
        from repro.experiments.colocation import ColocationResult

        exp = branch.exp
        machines = dict(member.metrics)
        for pod in self._pods:
            member.metrics[pod].completed_be_throughput = (
                exp._runs[pod].pool.total_normalized_work
                / exp.config.duration_s
            )
        first = next(iter(machines.values()))
        return ColocationResult(
            service=exp.spec.name,
            duration_s=exp.config.duration_s,
            lc_load_mean=lc_load_mean,
            machines=machines,
            be_kills=exp.deployment.cluster.total_be_kills
            + member.kill_offset,
            be_suspensions=sum(
                m.counters.be_suspensions for m in exp.deployment.cluster
            )
            + member.susp_offset,
            sla_violations=first.sla_violations,
            worst_tail_ms=max(m.worst_tail_ms for m in machines.values()),
            events_fired=n_ticks,
        )


def _world_digest(exp: "ColocationExperiment") -> Tuple:
    """Forward-relevant world state of one experiment, id-free.

    Two branches with equal digests evolve identically from here on, so
    they may share one world. The digest deliberately **excludes** the
    monotonic counters that merging virtualises — kill/suspension/launch
    counters, the pool's job-id counter, ``Machine.version`` — and
    compares live jobs *positionally* (spec, state, float progress in
    exact bits, allocation) rather than by id: job ids never enter
    physics or results. The spec-cycle position IS included — with a
    multi-spec BE mix it determines which spec the next launch gets.
    Everything float is compared via ``float.hex`` (bitwise).
    """
    pods_state = []
    for pod, run in exp._runs.items():
        machine = exp.deployment.servpod(pod).machine
        pool = run.pool
        jobs = []
        for job in pool.jobs():
            alloc = machine.be_allocation(job.job_id)
            jobs.append(
                (
                    job.spec.name,
                    job.state.value,
                    job.normalized_work.hex(),
                    job.running_seconds.hex(),
                    None
                    if alloc is None
                    else (
                        alloc.cores,
                        alloc.llc_ways,
                        alloc.memory_gb.hex(),
                        alloc.suspended,
                    ),
                )
            )
        pods_state.append(
            (
                pod,
                tuple(jobs),
                float(pool.total_normalized_work).hex(),
                pool._counter % len(pool.specs),
                machine.dvfs.frequency(LC_DOMAIN),
                machine.dvfs.frequency(BE_DOMAIN),
                machine.dvfs.cap(LC_DOMAIN),
                machine.dvfs.cap(BE_DOMAIN),
                machine.nic.be_cap_gbps.hex(),
                machine.nic.link_scale.hex(),
                machine.offlined_cores,
                machine.lost_llc_ways,
                machine.cpuset.free_cores,
                machine.llc.free_ways,
            )
        )
    rng = tuple(
        (name, repr(exp.streams._streams[name].bit_generator.state))
        for name in sorted(exp.streams._streams)
    )
    return (tuple(pods_state), rng)
