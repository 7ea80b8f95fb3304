"""Tests for the bake-off's coarse-keyed merge check.

:meth:`BakeoffKernel._try_merge` groups branches by a cheap coarse key
and digests only branches that share one. It must reach exactly the
verdicts of the all-pairs digest grouping it replaced (kept here as the
reference), which needs equal digests to imply equal keys; and it must
build at most one digest per branch per tick.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.heracles import heracles_controllers
from repro.baselines.interference import InterferencePolicy, interference_controllers
from repro.baselines.predictive import PredictivePolicy, predictive_controllers
from repro.bejobs.catalog import CPU_STRESS, STREAM_DRAM, STREAM_LLC
from repro.core.actions import BeAction
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.faults.spec import FaultSchedule
from repro.loadgen.patterns import ConstantLoad, DiurnalLoad
from repro.sim import kernel as kernel_module
from repro.sim.kernel import BakeoffKernel, _world_digest
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import ecommerce_service, redis_service
from tests.test_bakeoff import scripted


def reference_merge(kernel):
    """The all-pairs digest grouping ``_try_merge`` used to run.

    Returns the expected surviving branches (by id, in order) with their
    members, and every member's expected kill/suspension offsets.
    """
    by_digest = {}
    for branch in kernel._branches:
        branch.kernel.sync_world()
        by_digest.setdefault(_world_digest(branch.exp), []).append(branch)
    offsets = {
        mi: (m.kill_offset, m.susp_offset) for mi, m in enumerate(kernel._members)
    }
    members = {}
    for group in by_digest.values():
        keep = group[0]
        k_kills = keep.exp.deployment.cluster.total_be_kills
        k_susp = sum(m.counters.be_suspensions for m in keep.exp.deployment.cluster)
        merged = list(keep.members)
        for other in group[1:]:
            o_kills = other.exp.deployment.cluster.total_be_kills
            o_susp = sum(
                m.counters.be_suspensions for m in other.exp.deployment.cluster
            )
            for mi in other.members:
                kill, susp = offsets[mi]
                offsets[mi] = (kill + o_kills - k_kills, susp + o_susp - k_susp)
            merged.extend(other.members)
        members[id(keep)] = sorted(merged)
    survivors = [
        (id(b), members[id(b)]) for b in kernel._branches if id(b) in members
    ]
    return survivors, offsets, by_digest


class CheckedBakeoff(BakeoffKernel):
    """A bake-off whose every merge check is compared with the reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = 0
        self.equal_digest_pairs = 0

    def _try_merge(self):
        survivors, offsets, by_digest = reference_merge(self)
        for group in by_digest.values():
            keys = {self._coarse_key(branch) for branch in group}
            assert len(keys) == 1, "equal digests with different coarse keys"
            self.equal_digest_pairs += len(group) - 1
        before = self.stats.digests
        n_branches = len(self._branches)
        super()._try_merge()
        assert self.stats.digests - before <= n_branches
        assert [(id(b), b.members) for b in self._branches] == survivors
        assert {
            mi: (m.kill_offset, m.susp_offset) for mi, m in enumerate(self._members)
        } == offsets
        self.checks += 1


_ACTIONS = list(BeAction)
_SERVICES = {"redis": redis_service, "ecommerce": ecommerce_service}
_BASELINES = {
    "heracles": heracles_controllers,
    "interference": lambda s: interference_controllers(s, InterferencePolicy()),
    "predictive": lambda s: predictive_controllers(s, PredictivePolicy()),
}


def run_checked(service, members, seed, duration_s, faults_per_minute, load):
    """A checked bake-off of ``members`` (name -> controllers factory)."""
    faults = (
        FaultSchedule.generate(seed, duration_s, faults_per_minute=faults_per_minute)
        if faults_per_minute > 0
        else None
    )
    config = ColocationConfig(duration_s=duration_s, faults=faults)
    root = ColocationExperiment(
        service,
        next(iter(members.values()))(service),
        [STREAM_LLC, CPU_STRESS, STREAM_DRAM],
        DiurnalLoad(base=load, amplitude=0.2, period_s=duration_s / 2),
        streams=RandomStreams(seed),
        config=config,
    )
    kernel = CheckedBakeoff(root, {n: fn(service) for n, fn in members.items()})
    kernel.run()
    return kernel


@st.composite
def rosters(draw):
    """A service and 3-5 members: scripted actions (STOP-heavy, so worlds
    re-converge) mixed with the rival baselines."""
    service = _SERVICES[draw(st.sampled_from(sorted(_SERVICES)))]()
    n_ticks = 12
    members = {}
    for k in range(draw(st.integers(3, 5))):
        if draw(st.booleans()):
            name = draw(st.sampled_from(sorted(_BASELINES)))
            members[f"{name}-{k}"] = _BASELINES[name]
            continue
        script = draw(
            st.dictionaries(
                st.integers(0, n_ticks - 1),
                st.sampled_from(_ACTIONS + [BeAction.STOP_BE] * 2),
                max_size=n_ticks,
            )
        )
        default = draw(st.sampled_from([BeAction.ALLOW_BE_GROWTH, BeAction.STOP_BE]))
        members[f"scripted-{k}"] = scripted(script, default)
    return service, members


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    roster=rosters(),
    seed=st.integers(0, 50),
    faults_per_minute=st.sampled_from([0.0, 6.0]),
    load=st.sampled_from([0.3, 0.5, 0.7]),
)
def test_coarse_keyed_merge_matches_all_pairs_grouping(
    roster, seed, faults_per_minute, load
):
    service, members = roster
    run_checked(service, members, seed, 40.0, faults_per_minute, load)


def test_merge_check_is_exercised_with_merges():
    """A fixed roster that forks and re-merges under faults, so the
    equal-digest implication is checked on real merges."""
    service = ecommerce_service()
    allow, stop = BeAction.ALLOW_BE_GROWTH, BeAction.STOP_BE
    members = {
        "grower": scripted({}, allow),
        "stopper": scripted({}, stop),
        "flipper": scripted({0: allow, 1: allow, 2: stop}, stop),
        "late": scripted({k: allow for k in range(6)}, stop),
        "heracles": _BASELINES["heracles"],
        "predictive": _BASELINES["predictive"],
    }
    kernel = run_checked(service, members, 4, 60.0, 6.0, 0.5)
    assert kernel.stats.forks >= 3
    assert kernel.stats.merges >= 1
    assert kernel.equal_digest_pairs >= kernel.stats.merges
    assert kernel.checks > 0


def test_at_most_one_digest_per_branch_per_tick(monkeypatch):
    calls = []
    ticks = []
    real_digest = kernel_module._world_digest
    real_merge = BakeoffKernel._try_merge

    def digest(exp):
        calls.append((len(ticks), id(exp)))
        return real_digest(exp)

    def try_merge(self):
        ticks.append(len(self._branches))
        return real_merge(self)

    monkeypatch.setattr(kernel_module, "_world_digest", digest)
    monkeypatch.setattr(BakeoffKernel, "_try_merge", try_merge)
    service = redis_service()
    allow, stop = BeAction.ALLOW_BE_GROWTH, BeAction.STOP_BE
    members = {
        "grower": scripted({}, allow),
        "stopper": scripted({}, stop),
        "flipper": scripted({0: allow, 1: stop}, stop),
        "interference": _BASELINES["interference"],
        "predictive": _BASELINES["predictive"],
    }
    config = ColocationConfig(
        duration_s=60.0,
        faults=FaultSchedule.generate(11, 60.0, faults_per_minute=6.0),
    )
    root = ColocationExperiment(
        service,
        members["grower"](service),
        [STREAM_LLC],
        ConstantLoad(0.5),
        streams=RandomStreams(5),
        config=config,
    )
    kernel = BakeoffKernel(root, {n: fn(service) for n, fn in members.items()})
    kernel.run()
    assert calls, "no merge check ever built a digest"
    assert kernel.stats.digests == len(calls)
    per_tick = Counter(calls)
    assert max(per_tick.values()) == 1
    # Never more digests in a tick than branches it checked.
    for tick, n in Counter(t for t, _ in calls).items():
        assert n <= ticks[tick - 1]
