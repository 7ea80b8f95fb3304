"""Fleet-scale colocation: sharded thousand-machine simulation.

This module scales the single-service :class:`ColocationExperiment` to
a *fleet*: hundreds of LC service instances (thousands of machines),
partitioned into contiguous shards, each shard driven by one
:class:`~repro.sim.kernel.FleetColocationKernel` on a worker of the
persistent process pool.

Identity contract (the repo-wide pattern, one level up): the fleet
path is bit-identical to running every instance's experiment
sequentially under the scalar reference kernel — same result
fingerprints, same final RNG stream states — and the shard *count*
never changes results. The latter holds by construction:

- instances are fully independent (own :class:`RandomStreams`, own
  cluster, own controllers), so per-instance results cannot depend on
  which shard ran them;
- the zone governor (the only cross-instance coupling) operates on
  *zones* — contiguous blocks of ``zone_size`` instances — and shards
  are always split **at zone boundaries**, so every zone is wholly
  inside one shard and sees the same signals regardless of sharding.

With ``violation_threshold=None`` (the default) the governor is off
and the fleet is exactly the sequential reference, which is what the
identity tests pin.

**Incremental runs.** :meth:`FleetExperiment.run` memoizes per *zone*
— the shard-count-invariant unit of work — in the content-addressed
:class:`~repro.cache.store.CacheStore`. Each zone's entry is keyed by
:func:`zone_cache_key` over exactly the inputs that determine its
results (the zone's instance specs and the result-affecting
``FleetConfig`` fields); ``shards``, ``workers`` and the kernel choice
are deliberately NOT coordinates. A warm re-run of an unchanged fleet
therefore executes zero simulations under any sharding, and editing
one zone (a spec tweak, an added instance) re-simulates only the
zones whose keys changed. :class:`FleetCacheStats` on the returned
:class:`FleetResult` reports the hit/miss/skipped split.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cache import CacheStore, stable_hash
from repro.core.actions import BeAction
from repro.core.top_controller import (
    CONTROL_PERIOD_S,
    ControllerThresholds,
    TopController,
)
from repro.errors import CacheKeyError, ConfigurationError, ExperimentError
from repro.experiments.colocation import (
    ColocationConfig,
    ColocationExperiment,
    ColocationResult,
)
from repro.faults.spec import FaultSchedule
from repro.loadgen.patterns import DiurnalLoad, FlashCrowdLoad, LoadPattern
from repro.parallel.pool import (
    Envelope,
    broadcast,
    resolve_ref,
    resolve_workers,
    run_envelopes,
    shard_task_key,
)
from repro.parallel.profile import resolve_store
from repro.sim.kernel import FleetColocationKernel
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import lc_service_spec


# -- policy and fleet specification --------------------------------------


@dataclass(frozen=True)
class PodPolicy:
    """One Servpod's controller thresholds, in shippable form.

    Workers rebuild :class:`TopController` objects from these rather
    than unpickling live controllers (controllers carry decision
    history, and Rhythm's are produced by the cached profiling
    pipeline, which only the parent should run).
    """

    loadlimit: float
    slacklimit: float
    suspend_on_load_at_or_above: bool = False

    def build(self, servpod: str, sla_ms: float) -> TopController:
        """A fresh controller enforcing this policy on ``servpod``."""
        return TopController(
            servpod=servpod,
            thresholds=ControllerThresholds(
                loadlimit=self.loadlimit, slacklimit=self.slacklimit
            ),
            sla_ms=sla_ms,
            suspend_on_load_at_or_above=self.suspend_on_load_at_or_above,
        )


def policies_from_controllers(
    controllers: Mapping[str, TopController],
) -> Dict[str, PodPolicy]:
    """Strip live controllers (e.g. Rhythm's) down to shippable policies."""
    return {
        pod: PodPolicy(
            loadlimit=c.thresholds.loadlimit,
            slacklimit=c.thresholds.slacklimit,
            suspend_on_load_at_or_above=c.suspend_on_load_at_or_above,
        )
        for pod, c in controllers.items()
    }


@dataclass(frozen=True)
class FleetInstanceSpec:
    """One LC service instance (a Servpod group of machines) in the fleet.

    Everything here is a value or a picklable pattern object, so the
    whole fleet description broadcasts to pool workers in one blob.
    """

    #: LC service catalog key (see ``repro.workloads.catalog.LC_CATALOG``).
    service: str
    #: Per-Servpod controller policies; must cover every pod.
    policies: Tuple[Tuple[str, PodPolicy], ...]
    #: BE job catalog names co-located on this instance.
    be_jobs: Tuple[str, ...]
    #: The instance's request-load trace.
    pattern: LoadPattern
    #: Root seed of the instance's private RNG streams.
    seed: int = 0
    #: Optional per-instance fault schedule; its effects ride the fleet
    #: SoA tick as per-machine fault columns.
    faults: Optional[FaultSchedule] = None


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level tunables (per-instance knobs ride on ColocationConfig)."""

    duration_s: float = 600.0
    control_period_s: float = CONTROL_PERIOD_S
    #: Event-engine shards the fleet is partitioned into. Results are
    #: invariant to this knob (see module docstring); it only trades
    #: wall-clock for cores.
    shards: int = 1
    #: Pool workers running the shards (None -> RHYTHM_WORKERS / cpus).
    workers: Optional[int] = None
    #: Zone width in *instances*; shards always split at zone edges.
    zone_size: int = 4
    #: Governor epoch length in control ticks.
    epoch_ticks: int = 30
    #: Zone SLA-violation fraction above which the governor clamps BE
    #: growth zone-wide for the next epoch. None disables the governor
    #: entirely (the identity-pinned configuration).
    violation_threshold: Optional[float] = None
    sample_cap: int = 800
    min_samples: int = 100
    max_be_instances: int = 16

    def __post_init__(self) -> None:
        for value in (self.duration_s, self.control_period_s):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    "fleet duration/period must be finite and positive"
                )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.zone_size < 1:
            raise ConfigurationError(
                f"zone_size must be >= 1, got {self.zone_size}"
            )
        if self.epoch_ticks < 1:
            raise ConfigurationError(
                f"epoch_ticks must be >= 1, got {self.epoch_ticks}"
            )
        if self.violation_threshold is not None and not (
            0.0 <= self.violation_threshold <= 1.0
        ):
            raise ConfigurationError(
                f"violation_threshold {self.violation_threshold!r} out of [0,1]"
            )

    def colocation_config(self, spec: FleetInstanceSpec) -> ColocationConfig:
        """The per-instance run config this fleet config induces."""
        return ColocationConfig(
            duration_s=self.duration_s,
            control_period_s=self.control_period_s,
            sample_cap=self.sample_cap,
            min_samples=self.min_samples,
            max_be_instances=self.max_be_instances,
            faults=spec.faults,
            seed=spec.seed,
        )


# -- results --------------------------------------------------------------


@dataclass(frozen=True)
class FleetInstanceSummary:
    """The reported slice of one instance's ColocationResult."""

    index: int
    service: str
    machines: int
    lc_load_mean: float
    be_throughput: float
    emu: float
    cpu_utilisation: float
    sla_violations: int
    worst_tail_ms: float
    be_kills: int
    be_suspensions: int
    events_fired: int
    #: sha256 over (result fingerprint, final RNG states) — the
    #: bit-identity coordinate used by the fleet identity tests and the
    #: shard-invariance checks.
    digest: str


@dataclass(frozen=True)
class ZoneEpochRecord:
    """One governor observation: a zone's epoch violation fraction."""

    zone: int
    epoch: int
    t: float
    violation_fraction: float
    clamped: bool


@dataclass
class FleetCacheStats:
    """Cache outcome counts of one :meth:`FleetExperiment.run`.

    The unit is a *zone* (the shard-count-invariant slice of the
    fleet): ``hits`` zones were served from the store without
    simulating, ``misses`` were simulated and stored, ``skipped`` were
    simulated but not cached (no store, or an uncacheable spec such as
    a load pattern wrapping a bare callable).
    """

    hits: int = 0
    misses: int = 0
    skipped: int = 0

    @property
    def total(self) -> int:
        """Total zones the run covered."""
        return self.hits + self.misses + self.skipped

    @property
    def simulated(self) -> int:
        """Zones that actually ran the kernel (everything but hits)."""
        return self.misses + self.skipped

    def merge(self, other: "FleetCacheStats") -> None:
        """Accumulate another run's counts into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.skipped += other.skipped


@dataclass
class FleetResult:
    """Outcome of one fleet run."""

    duration_s: float
    instances: List[FleetInstanceSummary]
    zone_records: List[ZoneEpochRecord] = field(default_factory=list)
    #: Zone-level cache accounting, or None when the run was uncached.
    cache: Optional[FleetCacheStats] = None

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def n_machines(self) -> int:
        return sum(s.machines for s in self.instances)

    @property
    def events_fired(self) -> int:
        return sum(s.events_fired for s in self.instances)

    @property
    def be_throughput(self) -> float:
        """Fleet-mean normalized BE throughput per machine."""
        if not self.instances:
            return 0.0
        total = sum(s.be_throughput * s.machines for s in self.instances)
        return total / self.n_machines

    @property
    def emu(self) -> float:
        """Machine-weighted fleet EMU."""
        if not self.instances:
            return 0.0
        total = sum(s.emu * s.machines for s in self.instances)
        return total / self.n_machines

    @property
    def sla_violations(self) -> int:
        return sum(s.sla_violations for s in self.instances)

    @property
    def sla_violation_rate(self) -> float:
        """Violating control windows per instance-tick across the fleet."""
        events = self.events_fired
        return self.sla_violations / events if events else 0.0

    @property
    def digest(self) -> str:
        """Order-sensitive fold of every instance digest.

        Equal digests mean bit-identical fleets: same per-instance
        fingerprints and final RNG states, in the same global order.
        The shard-invariance tests assert this across shard counts.
        """
        h = hashlib.sha256()
        for s in self.instances:
            h.update(s.digest.encode("ascii"))
        return h.hexdigest()


# -- per-shard execution (module-level: importable by spawn workers) ------


@dataclass(frozen=True)
class _FleetPayload:
    """The broadcast blob: the whole fleet description plus shard plan."""

    instances: Tuple[FleetInstanceSpec, ...]
    config: FleetConfig
    #: Per shard: (first instance index, count) spans to simulate.
    #: Always zone-aligned; an incremental run's spans skip cached
    #: zones, so a shard's spans need not be contiguous or cover the
    #: fleet.
    shard_plan: Tuple[Tuple[Tuple[int, int], ...], ...]


def zone_cache_key(
    specs: Sequence[FleetInstanceSpec], config: FleetConfig
) -> str:
    """The content address of one zone's fleet results.

    Hashes exactly what a zone's instance summaries and epoch records
    depend on: the zone's instance specs (service, policies, BE jobs,
    load pattern, seed, fault schedule) and the result-affecting
    :class:`FleetConfig` fields. Deliberately NOT key coordinates:

    - ``shards`` / ``workers`` — pure wall-clock knobs; 1/2/4/8-way
      shardings of the same fleet must hit the same per-zone entries;
    - ``zone_size`` — zone *membership* is already captured by which
      specs are hashed together, and the governor (the only
      cross-instance coupling) acts on exactly that member set;
    - the kernel choice (``RHYTHM_KERNEL``) — pinned bit-identical to
      the scalar reference, same policy as grid-cell keys;
    - ``epoch_ticks`` when the governor is off — with
      ``violation_threshold=None`` no epoch boundary can affect
      results, so retuning it must not invalidate entries.

    Raises :class:`~repro.errors.CacheKeyError` for unhashable specs
    (e.g. a load pattern wrapping a bare callable); such zones simply
    run uncached.
    """
    governed = config.violation_threshold is not None
    return stable_hash(
        (
            "fleet-zone",
            tuple(specs),
            config.duration_s,
            config.control_period_s,
            config.sample_cap,
            config.min_samples,
            config.max_be_instances,
            config.violation_threshold,
            config.epoch_ticks if governed else None,
        )
    )


def _build_experiment(
    spec: FleetInstanceSpec, config: FleetConfig
) -> ColocationExperiment:
    """Rebuild one instance's experiment from its shippable spec."""
    service = lc_service_spec(spec.service)
    policies = dict(spec.policies)
    missing = set(service.servpod_names) - set(policies)
    if missing:
        raise ExperimentError(
            f"instance {spec.service!r}: no policy for Servpods {sorted(missing)}"
        )
    from repro.bejobs.catalog import be_job_spec

    controllers = {
        pod: policies[pod].build(pod, service.sla_ms)
        for pod in service.servpod_names
    }
    return ColocationExperiment(
        service,
        controllers,
        [be_job_spec(name) for name in spec.be_jobs],
        spec.pattern,
        streams=RandomStreams(spec.seed),
        config=config.colocation_config(spec),
    )


def instance_digest(experiment: ColocationExperiment, result: ColocationResult) -> str:
    """sha256 over (result fingerprint, final RNG stream states)."""
    from repro.parallel.grid import colocation_fingerprint

    streams = experiment.streams
    rng_states = tuple(
        (name, repr(streams._streams[name].bit_generator.state))
        for name in sorted(streams._streams)
    )
    blob = repr((colocation_fingerprint(result), rng_states))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _summarise(
    index: int,
    spec: FleetInstanceSpec,
    experiment: ColocationExperiment,
    result: ColocationResult,
) -> FleetInstanceSummary:
    return FleetInstanceSummary(
        index=index,
        service=spec.service,
        machines=len(result.machines),
        lc_load_mean=result.lc_load_mean,
        be_throughput=result.be_throughput,
        emu=result.emu,
        cpu_utilisation=result.cpu_utilisation,
        sla_violations=result.sla_violations,
        worst_tail_ms=result.worst_tail_ms,
        be_kills=result.be_kills,
        be_suspensions=result.be_suspensions,
        events_fired=result.events_fired,
        digest=instance_digest(experiment, result),
    )


def make_growth_clamp(pod_actions: Optional[dict] = None):
    """An ``action_filter`` demoting ALLOW_BE_GROWTH to DISALLOW.

    The governor installs this on every experiment of a violating zone
    for one epoch: existing BE jobs keep running at their current
    allocation, but the zone stops admitting growth until its SLA
    behaviour recovers. ``pod_actions`` (optional) records the clamps
    actually applied, keyed by pod name.
    """

    def clamp(pod: str, action: BeAction) -> BeAction:
        if action is BeAction.ALLOW_BE_GROWTH:
            if pod_actions is not None:
                pod_actions[pod] = pod_actions.get(pod, 0) + 1
            return BeAction.DISALLOW_BE_GROWTH
        return action

    return clamp


class _ZoneGovernor:
    """Epoch-based zone clamp riding the fleet kernel's ``on_tick`` hook.

    Tracks, per zone, the fraction of (instance, tick) observations in
    the current epoch whose window tail violated the instance's SLA.
    At each epoch boundary, zones above ``threshold`` get every
    experiment's ``action_filter`` set to the growth clamp for the next
    epoch; recovering zones get it cleared. The clamp only demotes
    ALLOW decisions, so it composes with (never overrides) the
    per-machine controllers.
    """

    def __init__(
        self,
        experiments: Sequence[ColocationExperiment],
        zones: Sequence[Tuple[int, Sequence[int]]],
        epoch_ticks: int,
        threshold: float,
        period_s: float,
    ) -> None:
        self._exps = list(experiments)
        self._zones = [(zid, list(members)) for zid, members in zones]
        self._sla = [exp.spec.sla_ms for exp in self._exps]
        self._epoch_ticks = int(epoch_ticks)
        self._threshold = float(threshold)
        self._period_s = period_s
        self._violations = {zid: 0 for zid, _ in self._zones}
        self._epoch = 0
        self._tick_in_epoch = 0
        self.records: List[ZoneEpochRecord] = []

    def observe(self, tick_index, t, loads, closed, tails, be_rates) -> None:
        del tick_index, loads, closed, be_rates
        sla = self._sla
        for zid, members in self._zones:
            count = 0
            for i in members:
                if tails[i] > sla[i]:
                    count += 1
            self._violations[zid] += count
        self._tick_in_epoch += 1
        if self._tick_in_epoch < self._epoch_ticks:
            return
        for zid, members in self._zones:
            denom = len(members) * self._epoch_ticks
            frac = self._violations[zid] / denom if denom else 0.0
            clamp = frac > self._threshold
            for i in members:
                self._exps[i].action_filter = make_growth_clamp() if clamp else None
            self.records.append(
                ZoneEpochRecord(
                    zone=zid,
                    epoch=self._epoch,
                    t=t,
                    violation_fraction=frac,
                    clamped=clamp,
                )
            )
            self._violations[zid] = 0
        self._epoch += 1
        self._tick_in_epoch = 0


def _shard_zones(
    start: int, count: int, zone_size: int
) -> List[Tuple[int, List[int]]]:
    """A shard's zones as (global zone id, local experiment indices)."""
    zones: List[Tuple[int, List[int]]] = []
    for local in range(count):
        glob = start + local
        zid = glob // zone_size
        if not zones or zones[-1][0] != zid:
            zones.append((zid, []))
        zones[-1][1].append(local)
    return zones


def _run_fleet_shard(ref, shard_index: int) -> List[
    Tuple[int, List[FleetInstanceSummary], List[ZoneEpochRecord]]
]:
    """Run one shard's zone spans through the fleet kernel (pool task).

    Module-level and driven purely by the broadcast payload, so it is
    picklable by reference and bit-identical under fork, spawn, and the
    inline (workers<=1) path. Returns the results *grouped by zone* —
    ``(zone id, summaries, epoch records)`` per zone — so the parent
    can store each zone under its own cache key.
    """
    payload: _FleetPayload = resolve_ref(ref)
    config = payload.config
    specs: List[FleetInstanceSpec] = []
    indexes: List[int] = []
    zones: List[Tuple[int, List[int]]] = []
    for start, count in payload.shard_plan[shard_index]:
        base = len(specs)
        specs.extend(payload.instances[start : start + count])
        indexes.extend(range(start, start + count))
        for zid, members in _shard_zones(start, count, config.zone_size):
            zones.append((zid, [base + m for m in members]))
    experiments = [_build_experiment(spec, config) for spec in specs]
    governor: Optional[_ZoneGovernor] = None
    if config.violation_threshold is not None:
        governor = _ZoneGovernor(
            experiments,
            zones,
            config.epoch_ticks,
            config.violation_threshold,
            config.control_period_s,
        )
    kernel = FleetColocationKernel(
        experiments, on_tick=governor.observe if governor else None
    )
    results = kernel.run()
    summaries = [
        _summarise(indexes[j], specs[j], experiments[j], results[j])
        for j in range(len(specs))
    ]
    records = governor.records if governor else []
    return [
        (
            zid,
            [summaries[m] for m in members],
            [r for r in records if r.zone == zid],
        )
        for zid, members in zones
    ]


# -- the fleet experiment -------------------------------------------------


class FleetExperiment:
    """Partitions a fleet into zone-aligned shards and runs them."""

    def __init__(
        self,
        instances: Sequence[FleetInstanceSpec],
        config: Optional[FleetConfig] = None,
    ) -> None:
        if not instances:
            raise ConfigurationError("fleet needs at least one instance")
        self.instances: List[FleetInstanceSpec] = list(instances)
        self.config = config or FleetConfig()

    def shard_plan(self) -> List[Tuple[int, int]]:
        """(start, count) per shard; contiguous, zone-aligned, complete.

        Zones are blocks of ``zone_size`` consecutive instances; shards
        receive whole zones, spread as evenly as possible. Requesting
        more shards than zones yields one shard per zone.
        """
        cfg = self.config
        n = len(self.instances)
        n_zones = math.ceil(n / cfg.zone_size)
        shards = min(cfg.shards, n_zones)
        base, extra = divmod(n_zones, shards)
        plan: List[Tuple[int, int]] = []
        zone_start = 0
        for k in range(shards):
            z = base + (1 if k < extra else 0)
            first = zone_start * cfg.zone_size
            last = min(n, (zone_start + z) * cfg.zone_size)
            plan.append((first, last - first))
            zone_start += z
        return plan

    def zone_plan(self) -> List[Tuple[int, int, int]]:
        """(zone id, first instance index, count) per zone, complete."""
        cfg = self.config
        n = len(self.instances)
        plan: List[Tuple[int, int, int]] = []
        for zid in range(math.ceil(n / cfg.zone_size)):
            start = zid * cfg.zone_size
            plan.append((zid, start, min(n, start + cfg.zone_size) - start))
        return plan

    def _zone_key(self, start: int, count: int) -> Optional[str]:
        """One zone's cache key, or None when its specs are unhashable."""
        try:
            return zone_cache_key(
                self.instances[start : start + count], self.config
            )
        except CacheKeyError:
            return None

    def _load_zone(
        self, store: CacheStore, key: str, zid: int, start: int, count: int
    ) -> Optional[Tuple[List[FleetInstanceSummary], List[ZoneEpochRecord]]]:
        """Fetch one zone from the store, rebased to its current slot.

        Entries hold summaries with zone-*local* indices and epoch
        records with the zone id stripped, so the same entry serves the
        zone wherever it currently sits in the fleet. Rebasing cannot
        perturb digests: :func:`instance_digest` folds only the result
        fingerprint and RNG states, never the global index.
        """
        cached = store.get(key)
        if (
            not isinstance(cached, tuple)
            or len(cached) != 2
            or len(cached[0]) != count
        ):
            return None
        summaries = [
            replace(s, index=start + j) for j, s in enumerate(cached[0])
        ]
        records = [
            ZoneEpochRecord(
                zone=zid, epoch=e, t=t, violation_fraction=f, clamped=c
            )
            for e, t, f, c in cached[1]
        ]
        return summaries, records

    def _pending_shard_plan(
        self, pending: Sequence[Tuple[int, int, int, Optional[str]]]
    ) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Distribute the pending zones over at most ``config.shards``.

        Zones spread as evenly as the full-fleet :meth:`shard_plan`
        does; adjacent zones inside one shard merge into a single span.
        On a cold run with every zone pending this reproduces the
        historical contiguous plan exactly.
        """
        shards = min(self.config.shards, len(pending))
        base, extra = divmod(len(pending), shards)
        plan: List[Tuple[Tuple[int, int], ...]] = []
        pos = 0
        for k in range(shards):
            group = pending[pos : pos + base + (1 if k < extra else 0)]
            pos += len(group)
            spans: List[Tuple[int, int]] = []
            for _zid, start, count, _key in group:
                if spans and spans[-1][0] + spans[-1][1] == start:
                    spans[-1] = (spans[-1][0], spans[-1][1] + count)
                else:
                    spans.append((start, count))
            plan.append(tuple(spans))
        return tuple(plan)

    def run(
        self, cache: Union[None, bool, CacheStore] = None
    ) -> FleetResult:
        """Run the fleet, serving cached zones and simulating the rest.

        ``cache`` follows the grid convention: ``None``/``False`` run
        uncached, ``True`` uses the environment-default store
        (``RHYTHM_CACHE{,_DIR,_MAX_BYTES}``), a :class:`CacheStore` is
        used as given. Pending zones are distributed over at most
        ``config.shards`` pool shards; a fully warm run executes zero
        simulations and reproduces the cold digest bit-identically.
        """
        store = resolve_store(cache)
        stats = FleetCacheStats() if store is not None else None
        summaries: List[FleetInstanceSummary] = []
        zone_records: List[ZoneEpochRecord] = []
        pending: List[Tuple[int, int, int, Optional[str]]] = []
        for zid, start, count in self.zone_plan():
            key = self._zone_key(start, count) if store is not None else None
            hit = (
                self._load_zone(store, key, zid, start, count)
                if store is not None and key is not None
                else None
            )
            if hit is not None:
                summaries.extend(hit[0])
                zone_records.extend(hit[1])
                stats.hits += 1
            else:
                pending.append((zid, start, count, key))
        if pending:
            plan = self._pending_shard_plan(pending)
            payload = _FleetPayload(
                instances=tuple(self.instances),
                config=self.config,
                shard_plan=plan,
            )
            ref = broadcast(payload)
            envelopes = [
                Envelope(
                    fn=_run_fleet_shard,
                    args=(ref, k),
                    refs=(ref,),
                    task_key=shard_task_key("fleet-shard", ref, plan[k]),
                )
                for k in range(len(plan))
            ]
            workers = min(resolve_workers(self.config.workers), len(plan))
            shard_results = run_envelopes(envelopes, workers=workers)
            keys = {zid: key for zid, _s, _c, key in pending}
            starts = {zid: start for zid, start, _c, _key in pending}
            for by_zone in shard_results:
                for zid, zone_summaries, records in by_zone:
                    summaries.extend(zone_summaries)
                    zone_records.extend(records)
                    key = keys[zid]
                    if stats is not None:
                        if key is None:
                            stats.skipped += 1
                        else:
                            stats.misses += 1
                    if store is not None and key is not None:
                        start = starts[zid]
                        store.put(
                            key,
                            (
                                tuple(
                                    replace(s, index=s.index - start)
                                    for s in zone_summaries
                                ),
                                tuple(
                                    (
                                        r.epoch,
                                        r.t,
                                        r.violation_fraction,
                                        r.clamped,
                                    )
                                    for r in records
                                ),
                            ),
                        )
        summaries.sort(key=lambda s: s.index)
        zone_records.sort(key=lambda r: (r.epoch, r.zone))
        return FleetResult(
            duration_s=self.config.duration_s,
            instances=summaries,
            zone_records=zone_records,
            cache=stats,
        )

    def run_reference(self) -> FleetResult:
        """The scalar sequential reference: one experiment at a time.

        Only defined for governor-off fleets — the governor is a
        cross-instance control loop that the sequential scalar world
        has no equivalent for.
        """
        if self.config.violation_threshold is not None:
            raise ExperimentError(
                "run_reference() requires violation_threshold=None "
                "(the governor has no sequential-scalar equivalent)"
            )
        summaries: List[FleetInstanceSummary] = []
        for index, spec in enumerate(self.instances):
            experiment = _build_experiment(spec, self.config)
            experiment.kernel = "scalar"
            result = experiment.run()
            summaries.append(_summarise(index, spec, experiment, result))
        return FleetResult(
            duration_s=self.config.duration_s, instances=summaries
        )


def fleet_identity_probe(
    mode: str = "fleet",
    n_instances: int = 4,
    duration_s: float = 60.0,
    seed: int = 3,
    shards: int = 1,
    with_faults: bool = False,
) -> str:
    """Digest of a small fleet under ``mode`` ("fleet" or "reference").

    Importable by reference (spawn-safe), so identity tests and the
    fleet benchmark can run it in fork- and spawn-started children and
    compare against the parent's sequential scalar digest. The returned
    digest folds every instance's result fingerprint and final RNG
    stream states, so equality means bit-identity.
    """
    if mode not in ("fleet", "reference"):
        raise ExperimentError(f"mode must be 'fleet' or 'reference', got {mode!r}")
    config = FleetConfig(
        duration_s=duration_s, shards=shards, workers=1, zone_size=2
    )
    experiment = alibaba_fleet(
        2 * n_instances,
        policy="heracles",
        duration_s=duration_s,
        seed=seed,
        config=config,
    )
    if with_faults and len(experiment.instances) > 1:
        import dataclasses

        experiment.instances[1] = dataclasses.replace(
            experiment.instances[1],
            faults=FaultSchedule.generate(seed + 1, duration_s, faults_per_minute=4.0),
        )
    result = (
        experiment.run() if mode == "fleet" else experiment.run_reference()
    )
    return result.digest


# -- the synthetic Alibaba-shaped fleet trace -----------------------------

#: BE mixes cycled across instances (names from the BE catalog).
_BE_MIXES: Tuple[Tuple[str, ...], ...] = (
    ("stream-llc", "wordcount"),
    ("stream-dram", "imageClassify"),
    ("CPU-stress", "LSTM"),
    ("wordcount", "stream-dram"),
)

#: LC services cycled across instances (catalog keys).
_DEFAULT_SERVICES: Tuple[str, ...] = ("Redis",)


def heracles_fleet_policies(service_name: str) -> Dict[str, PodPolicy]:
    """Heracles' uniform policy for every pod of ``service_name``."""
    from repro.baselines.heracles import HeraclesPolicy

    policy = HeraclesPolicy()
    service = lc_service_spec(service_name)
    return {
        pod: PodPolicy(
            loadlimit=policy.loadlimit,
            slacklimit=policy.slacklimit,
            suspend_on_load_at_or_above=True,
        )
        for pod in service.servpod_names
    }


def rhythm_fleet_policies(service_name: str, seed: int = 0) -> Dict[str, PodPolicy]:
    """Rhythm's profiled per-pod policies (cached profiling pipeline).

    Runs in the parent only; workers receive the distilled
    :class:`PodPolicy` values. ``probe_slacklimits=False`` keeps the
    (cached) profiling pass cheap at fleet scale.
    """
    from repro.experiments.runner import build_rhythm_controllers

    controllers = build_rhythm_controllers(
        lc_service_spec(service_name), seed=seed, probe_slacklimits=False
    )
    return policies_from_controllers(controllers)


def alibaba_fleet(
    n_machines: int,
    policy: str = "rhythm",
    duration_s: float = 600.0,
    seed: int = 0,
    services: Sequence[str] = _DEFAULT_SERVICES,
    flash_crowd_fraction: float = 0.2,
    config: Optional[FleetConfig] = None,
    load: str = "diurnal",
    trace_path: Optional[str] = None,
) -> FleetExperiment:
    """A synthetic Alibaba-shaped fleet of at least ``n_machines`` machines.

    Mimics the trace shape of the paper's motivating datacenter data:
    every instance runs a diurnal load cycle with per-instance phase and
    amplitude jitter, a ``flash_crowd_fraction`` of instances receive a
    superimposed flash-crowd spike, and BE job mixes rotate through the
    catalog. All jitter derives from ``seed`` via a dedicated PRNG, so
    the same arguments always build the same fleet.

    ``policy`` selects ``"rhythm"`` (profiled per-pod thresholds) or
    ``"heracles"`` (uniform 0.85/0.10 with suspend-at-limit).

    ``load="alibaba"`` replays cluster-trace-v2018 machine days (cycled
    across instances) instead of the parametric diurnal cycle; the
    flash-crowd superimposition still applies. The jitter PRNG draws
    identically in both modes, so switching the load mode never
    perturbs which instances get crowds, seeds, or BE mixes.
    ``trace_path`` points replay at an external ``machine_usage`` CSV
    (:func:`~repro.loadgen.alibaba.read_machine_usage` parses both the
    bundled 3-column format and the raw v2018 rows); without it the
    bundled sample is replayed.
    """
    if n_machines < 1:
        raise ConfigurationError(f"n_machines must be >= 1, got {n_machines}")
    if policy not in ("rhythm", "heracles"):
        raise ConfigurationError(
            f"policy must be 'rhythm' or 'heracles', got {policy!r}"
        )
    if load not in ("diurnal", "alibaba"):
        raise ConfigurationError(
            f"load must be 'diurnal' or 'alibaba', got {load!r}"
        )
    if trace_path is not None and load != "alibaba":
        raise ConfigurationError(
            "trace_path requires load='alibaba' (diurnal fleets are "
            "parametric, not replayed)"
        )
    if not services:
        raise ConfigurationError("need at least one LC service name")
    trace_ids: Tuple[str, ...] = ()
    trace = None
    if load == "alibaba":
        if trace_path is not None:
            from repro.loadgen.alibaba import read_machine_usage

            trace = read_machine_usage(trace_path)
            trace_ids = trace.machine_ids()
        else:
            from repro.loadgen.alibaba import alibaba_machine_ids

            trace_ids = alibaba_machine_ids()
    policy_cache: Dict[str, Dict[str, PodPolicy]] = {}
    pods_per_service: Dict[str, int] = {}
    for name in services:
        policy_cache[name] = (
            rhythm_fleet_policies(name, seed=0)
            if policy == "rhythm"
            else heracles_fleet_policies(name)
        )
        pods_per_service[name] = len(lc_service_spec(name).servpod_names)
    jitter = random.Random(1_000_003 * seed + 17)
    instances: List[FleetInstanceSpec] = []
    machines = 0
    k = 0
    while machines < n_machines:
        name = services[k % len(services)]
        # Drawn in both load modes (unused under "alibaba") so the
        # jitter stream stays mode-invariant past this point.
        base = 0.45 + jitter.uniform(-0.05, 0.10)
        amplitude = 0.20 + jitter.uniform(0.0, 0.10)
        phase = jitter.uniform(0.0, duration_s)
        if load == "alibaba":
            from repro.loadgen.alibaba import alibaba_machine_load

            machine_id = trace_ids[k % len(trace_ids)]
            pattern: LoadPattern = (
                trace.load(machine_id)
                if trace is not None
                else alibaba_machine_load(machine_id)
            )
        else:
            pattern = DiurnalLoad(
                base=base, amplitude=amplitude, period_s=duration_s, phase_s=phase
            )
        crowd_roll = jitter.random()
        crowd_start = jitter.uniform(0.2, 0.7) * duration_s
        crowd_peak = jitter.uniform(0.15, 0.35)
        if crowd_roll < flash_crowd_fraction:
            pattern = FlashCrowdLoad(
                pattern,
                [
                    (
                        crowd_start,
                        crowd_peak,
                        max(1.0, duration_s / 40.0),
                        max(1.0, duration_s / 15.0),
                    )
                ],
            )
        instances.append(
            FleetInstanceSpec(
                service=name,
                policies=tuple(sorted(policy_cache[name].items())),
                be_jobs=_BE_MIXES[k % len(_BE_MIXES)],
                pattern=pattern,
                seed=seed * 1_000 + k,
            )
        )
        machines += pods_per_service[name]
        k += 1
    cfg = config or FleetConfig(duration_s=duration_s)
    if cfg.duration_s != duration_s:
        raise ConfigurationError(
            "config.duration_s disagrees with the duration_s argument"
        )
    return FleetExperiment(instances, cfg)
