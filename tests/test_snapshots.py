"""Tests for the world snapshots that bake-off forks are built from.

Every ``snapshot()`` must equal ``copy.deepcopy`` of the same mid-run
object — taken from a forked bake-off branch after kills, suspensions,
fault windows and memory growth — in every field, with the same object
aliasing (``state_of`` records a reference the second time it meets an
object, so a snapshot that shares what the deep copy duplicates, or the
reverse, shows up as a mismatch). A forked world and a deep-copied one
must then evolve identically, tick for tick.
"""

from __future__ import annotations

import copy
import enum
import itertools
import types

import numpy as np
import pytest

from repro.bejobs.catalog import CPU_STRESS, LSTM, STREAM_DRAM
from repro.core.actions import BeAction
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.loadgen.patterns import DiurnalLoad
from repro.sim.kernel import BakeoffKernel, FleetColocationKernel, _tick_times
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import ecommerce_service
from tests.test_bakeoff import scripted

A = BeAction


def state_of(obj, seen=None):
    """A comparable, id-free rendering of ``obj``'s whole object graph."""
    if seen is None:
        seen = {}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ("f", obj.hex())
    if isinstance(obj, (types.FunctionType, types.MethodType, type)):
        return ("callable", getattr(obj, "__qualname__", repr(obj)))
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__name__, obj.value)
    if isinstance(obj, np.generic):
        return ("np", obj.dtype.str, obj.tobytes())
    key = id(obj)
    if key in seen:
        return ("ref", seen[key])
    seen[key] = len(seen)
    if isinstance(obj, np.random.Generator):
        return ("rng", repr(obj.bit_generator.state))
    if isinstance(obj, np.ndarray):
        return ("nd", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, itertools.cycle):
        return ("cycle",)  # positions are checked by evolving the worlds
    if isinstance(obj, dict):
        return ("dict", tuple((state_of(k, seen), state_of(v, seen)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(state_of(v, seen) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(obj)))
    fields = []
    for slot in getattr(type(obj), "__slots__", ()):
        if hasattr(obj, slot):
            fields.append((slot, state_of(getattr(obj, slot), seen)))
    for name, value in getattr(obj, "__dict__", {}).items():
        fields.append((name, state_of(value, seen)))
    return (type(obj).__name__, tuple(fields))


# -- a mid-run forked world -------------------------------------------------


#: Members that grow, cut, suspend and stop at different ticks. The
#: cutter's branch is the one snapshotted: it has killed jobs, live and
#: suspended ones, grown memory and a mid-cycle spec position.
_ALLOW = {k: A.ALLOW_BE_GROWTH for k in range(40)}
_SCRIPTS = {
    "grower": ({}, A.ALLOW_BE_GROWTH),
    "stopper": ({k: A.ALLOW_BE_GROWTH for k in range(12)}, A.STOP_BE),
    "cutter": (
        {**_ALLOW, 6: A.STOP_BE, 19: A.CUT_BE, 20: A.SUSPEND_BE},
        A.DISALLOW_BE_GROWTH,
    ),
    "churn": ({**_ALLOW, 8: A.STOP_BE, 9: A.STOP_BE}, A.ALLOW_BE_GROWTH),
}
_CUTTER = list(_SCRIPTS).index("cutter")

_FAULTS = FaultSchedule(
    faults=(
        FaultSpec(FaultKind.CORE_OFFLINE, at_s=20.0, duration_s=60.0, magnitude=0.2),
        FaultSpec(FaultKind.DVFS_CAP, at_s=24.0, duration_s=40.0, magnitude=0.3),
        FaultSpec(FaultKind.LLC_WAY_LOSS, at_s=30.0, duration_s=40.0, magnitude=0.15),
        FaultSpec(FaultKind.NIC_DEGRADE, at_s=32.0, duration_s=20.0, magnitude=0.5),
    )
)

#: Ticks run before the snapshot is taken (t = 44 s: every fault open,
#: the cutter's jobs resuming one per tick).
_MID_TICKS = 22


def forked_world(estimator="exact"):
    """The world of a branch forked off mid-run, synced, at a tick boundary."""
    service = ecommerce_service()
    config = ColocationConfig(
        duration_s=120.0, faults=_FAULTS, tail_estimator=estimator
    )
    root = ColocationExperiment(
        service,
        scripted({}, A.ALLOW_BE_GROWTH)(service),
        [STREAM_DRAM, LSTM, CPU_STRESS],
        DiurnalLoad(base=0.45, amplitude=0.2, period_s=60.0),
        streams=RandomStreams(7),
        config=config,
    )
    bake = BakeoffKernel(
        root,
        {name: scripted(*script)(service) for name, script in _SCRIPTS.items()},
    )
    times = _tick_times(config.control_period_s, config.duration_s)
    for t in times[:_MID_TICKS]:
        for branch in list(bake._branches):
            bake._tick_branch(branch, t, config.control_period_s)
    assert bake.stats.forks >= 2
    branch = next(b for b in bake._branches if _CUTTER in b.members)
    assert branch.exp is not root
    branch.kernel.sync_world()
    return branch.exp, times[_MID_TICKS:]


@pytest.fixture(scope="module")
def world():
    return forked_world()


def _check_mid_run(exp):
    """The forked world carries every kind of state the snapshots copy."""
    pools = [run.pool for run in exp._runs.values()]
    assert any(p.total_killed for p in pools)
    assert any(p.active_count for p in pools)
    assert any(p._counter % len(p.specs) for p in pools)
    machines = list(exp.deployment.cluster)
    assert any(m.offlined_cores for m in machines)
    assert any(m.be_suspended_count for m in machines)
    assert any(m.dvfs.cap("be") is not None for m in machines)
    assert any(
        a.memory_gb > m.be_initial_memory_gb for m in machines for a in m._be.values()
    )
    assert exp._fault_injector._active


def test_fixture_is_mid_run(world):
    _check_mid_run(world[0])


# -- each snapshot against a deep copy ---------------------------------------


def _machine(exp):
    return exp.deployment.servpod(next(iter(exp._runs))).machine


SNAPSHOTS = {
    "machine": (_machine, lambda obj, _: obj.snapshot()),
    "cpuset": (lambda exp: _machine(exp).cpuset, lambda obj, _: obj.snapshot()),
    "llc": (lambda exp: _machine(exp).llc, lambda obj, _: obj.snapshot()),
    "dvfs": (lambda exp: _machine(exp).dvfs, lambda obj, _: obj.snapshot()),
    "nic": (lambda exp: _machine(exp).nic, lambda obj, _: obj.snapshot()),
    "cluster": (lambda exp: exp.deployment.cluster, lambda obj, _: obj.snapshot()),
    "deployment": (lambda exp: exp.deployment, lambda obj, _: obj.snapshot()),
    "pool": (
        lambda exp: next(r.pool for r in exp._runs.values() if r.pool.total_killed),
        lambda obj, _: obj.snapshot(),
    ),
    "streams": (lambda exp: exp.streams, lambda obj, _: obj.snapshot()),
    "generator": (
        lambda exp: exp._generator,
        lambda obj, deep: obj.snapshot(deep.rng),
    ),
    "service": (
        lambda exp: exp.service,
        lambda obj, deep: obj.snapshot(deep.streams),
    ),
    "injector": (
        lambda exp: exp._fault_injector,
        lambda obj, deep: obj.snapshot(deep.cluster),
    ),
}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_snapshot_equals_deepcopy(world, name):
    get, snap = SNAPSHOTS[name]
    obj = get(world[0])
    deep = copy.deepcopy(obj)
    clone = snap(obj, deep)
    assert clone is not obj
    assert state_of(clone) == state_of(deep) == state_of(obj)


def test_histogram_tracker_snapshot_equals_deepcopy():
    exp, _ = forked_world("histogram")
    tracker = exp._tail_estimator
    assert tracker.window_tails
    clone = tracker.snapshot()
    assert state_of(clone) == state_of(copy.deepcopy(tracker))
    clone.add_samples(np.array([1.0, 2.0, 3.0]))
    assert clone._counts.sum() != tracker._counts.sum()


def test_pool_snapshot_shares_only_killed_jobs(world):
    pool = next(r.pool for r in world[0]._runs.values() if r.pool.total_killed)
    clone = pool.snapshot()
    live = set(pool._live)
    assert live
    for job_id, job in pool._jobs.items():
        assert (clone._jobs[job_id] is job) == (job_id not in live)
    assert list(clone._live) == list(pool._live)
    assert all(clone._live[j] is clone._jobs[j] for j in clone._live)
    # The rebuilt spec cycle draws what the original would draw next.
    ours = copy.deepcopy(pool)
    assert [clone.new_job().spec for _ in range(5)] == [
        ours.new_job().spec for _ in range(5)
    ]


def test_fork_keeps_deepcopy_aliasing(world):
    exp = world[0]
    clone = exp.fork()
    assert clone._generator.rng is clone.streams.stream("colocation:arrivals")
    assert clone.service.streams is clone.streams
    assert clone._fault_injector.cluster is clone.deployment.cluster
    for pod, run in clone._runs.items():
        machine = clone.deployment.servpod(pod).machine
        assert machine is clone.deployment.cluster[machine.spec.name]
        assert machine is not exp.deployment.servpod(pod).machine
        assert run.pool is not exp._runs[pod].pool
    # The read-only scenario is shared, not copied.
    assert clone.spec is exp.spec
    assert clone.config is exp.config
    assert clone.pattern is exp.pattern
    assert clone._memory is exp._memory


# -- forked and deep-copied worlds evolve identically ------------------------

#: A fixed action cycle that grows, cuts, suspends, resumes and stops.
_CYCLE = (
    A.ALLOW_BE_GROWTH,
    A.ALLOW_BE_GROWTH,
    A.CUT_BE,
    A.ALLOW_BE_GROWTH,
    A.SUSPEND_BE,
    A.DISALLOW_BE_GROWTH,
    A.ALLOW_BE_GROWTH,
    A.STOP_BE,
    A.ALLOW_BE_GROWTH,
)


def _evolve(exp, times):
    """Drive ``exp``'s world through a fixed action script; per-tick outputs."""
    kernel = FleetColocationKernel([exp])
    period = exp.config.control_period_s
    seen = []
    for k, t in enumerate(times):
        loads, closed, tails = kernel.observe(t, period)
        seen.append((loads[0].hex(), closed[0], float(tails[0]).hex()))
        kernel.act([_CYCLE[(k + m) % len(_CYCLE)] for m in range(len(exp._runs))])
    kernel.sync_world()
    return seen


def deepcopy_world(exp):
    """The deep copy bake-off forks were made with: the read-only
    scenario shared through the memo. The fault injector keys its
    taken-units book by ``id(spec)``, so a copy that duplicated the
    schedule's specs would never hand offlined cores back. The Servpod
    specs are shared as well: the service's lookup table aliases them."""
    shared = [
        exp.spec,
        *exp.spec.servpods,
        exp.pattern,
        exp.config,
        exp._cpu_llc,
        exp._frequency,
        exp._memory,
        exp._network,
        *exp.be_specs,
        *exp.controllers.values(),
    ]
    if exp.config.faults is not None:
        shared += [exp.config.faults, *exp.config.faults.faults]
    return copy.deepcopy(exp, {id(obj): obj for obj in shared})


def world_state(exp):
    """Everything but the per-pod metrics (a fork shares them, unused)."""
    runs = [
        (r.servpod, r.controller, r.pool, r.last_snapshot, r.last_action)
        for r in exp._runs.values()
    ]
    return state_of(
        ({k: v for k, v in exp.__dict__.items() if k != "_runs"}, runs)
    )


@pytest.mark.parametrize("estimator", ["exact", "histogram"])
def test_forked_world_evolves_like_deepcopy(estimator):
    exp, times = forked_world(estimator)
    _check_mid_run(exp)
    forked = exp.fork()
    deep = deepcopy_world(exp)
    parent = world_state(exp)
    assert world_state(forked) == world_state(deep) == parent
    ticks = times[:30]
    assert _evolve(forked, ticks) == _evolve(deep, ticks)
    assert world_state(forked) == world_state(deep) != parent
    # Evolving the fork left its parent untouched.
    assert world_state(exp) == parent
