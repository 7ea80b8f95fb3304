"""Tests for the co-location experiment harness and comparison runner."""

from __future__ import annotations

import pytest

from repro.baselines.heracles import heracles_controllers
from repro.bejobs.catalog import CPU_STRESS, STREAM_DRAM
from repro.core.top_controller import ControllerThresholds, TopController
from repro.errors import ExperimentError
from repro.experiments.colocation import (
    ColocationConfig,
    ColocationExperiment,
    make_sla_probe,
)
from repro.experiments.report import render_heatmap, render_table
from repro.experiments.runner import ComparisonResult, run_cell
from repro.loadgen.patterns import ConstantLoad
from repro.sim.rng import RandomStreams

from conftest import make_tiny_service

FAST = ColocationConfig(duration_s=40.0, sample_cap=200, min_samples=50)


def permissive_controllers(spec):
    """Controllers that let BE jobs grow whenever there is any slack."""
    return {
        pod: TopController(
            pod, ControllerThresholds(loadlimit=0.9, slacklimit=0.05), spec.sla_ms
        )
        for pod in spec.servpod_names
    }


class TestColocationExperiment:
    def test_runs_and_reports(self, tiny_service):
        result = run_cell(
            tiny_service, permissive_controllers(tiny_service),
            CPU_STRESS, ConstantLoad(0.4), config=FAST,
        )
        assert result.duration_s == 40.0
        assert set(result.machines) == {"front", "back"}
        assert result.lc_load_mean == pytest.approx(0.4, abs=0.02)
        assert result.be_throughput > 0
        assert result.emu > result.lc_load_mean

    def test_deterministic(self, tiny_service):
        kwargs = dict(
            be_spec=CPU_STRESS, pattern=ConstantLoad(0.4), seed=5, config=FAST
        )
        a = run_cell(tiny_service, permissive_controllers(tiny_service), **kwargs)
        b = run_cell(tiny_service, permissive_controllers(tiny_service), **kwargs)
        assert a.be_throughput == b.be_throughput
        assert a.worst_tail_ms == b.worst_tail_ms

    def test_be_jobs_grow_over_time(self, tiny_service):
        result = run_cell(
            tiny_service, permissive_controllers(tiny_service),
            CPU_STRESS, ConstantLoad(0.3), config=FAST,
        )
        samples = result.machine("back").samples
        assert samples[-1].be_instances > samples[0].be_instances

    def test_high_load_suppresses_colocation(self, tiny_service):
        busy = run_cell(
            tiny_service, heracles_controllers(tiny_service),
            STREAM_DRAM, ConstantLoad(0.9), config=FAST,
        )
        assert busy.be_throughput == 0.0

    def test_missing_controller_rejected(self, tiny_service):
        with pytest.raises(ExperimentError):
            ColocationExperiment(
                tiny_service, {}, [CPU_STRESS], ConstantLoad(0.5), config=FAST
            )

    def test_no_be_specs_rejected(self, tiny_service):
        with pytest.raises(ExperimentError):
            ColocationExperiment(
                tiny_service, permissive_controllers(tiny_service), [],
                ConstantLoad(0.5), config=FAST,
            )

    def test_unknown_machine_lookup_rejected(self, tiny_service):
        result = run_cell(
            tiny_service, permissive_controllers(tiny_service),
            CPU_STRESS, ConstantLoad(0.3), config=FAST,
        )
        with pytest.raises(ExperimentError):
            result.machine("ghost")

    def test_interference_raises_tail_vs_solo(self, tiny_service):
        from repro.baselines.static import LcSoloPolicy

        solo = run_cell(
            tiny_service, LcSoloPolicy().controllers(tiny_service),
            STREAM_DRAM, ConstantLoad(0.6), config=FAST,
        )
        loaded = run_cell(
            tiny_service, permissive_controllers(tiny_service),
            STREAM_DRAM, ConstantLoad(0.6), config=FAST,
        )
        assert loaded.worst_tail_ms > solo.worst_tail_ms
        assert solo.be_throughput == 0.0

    def test_completed_work_metric_set(self, tiny_service):
        result = run_cell(
            tiny_service, permissive_controllers(tiny_service),
            CPU_STRESS, ConstantLoad(0.3), config=FAST,
        )
        for metrics in result.machines.values():
            assert metrics.completed_be_throughput is not None


class TestSlaProbe:
    def test_probe_flags_aggressive_config(self, tiny_service):
        probe = make_sla_probe(
            tiny_service,
            loadlimits={pod: 0.95 for pod in tiny_service.servpod_names},
            be_specs=[STREAM_DRAM],
            # The tiny fixture is not SLA-calibrated, so probe at a load
            # where the solo run is comfortably below its SLA.
            pattern=ConstantLoad(0.6),
            streams=RandomStreams(0),
            config=ColocationConfig(duration_s=60.0, sample_cap=200, min_samples=50),
        )
        conservative = {pod: 1.0 for pod in tiny_service.servpod_names}
        assert probe(conservative) is False


class TestComparisonResult:
    def _fake(self, r_emu, h_emu):
        class R:
            emu = r_emu
            be_throughput = r_emu - 0.4
            cpu_utilisation = 0.5
            membw_utilisation = 0.4

        class H:
            emu = h_emu
            be_throughput = h_emu - 0.4
            cpu_utilisation = 0.4
            membw_utilisation = 0.3

        return ComparisonResult("svc", "be", 0.5, R(), H())

    def test_relative_improvement(self):
        cmp = self._fake(1.2, 1.0)
        assert cmp.emu_improvement == pytest.approx(0.2)
        assert cmp.be_throughput_gain == pytest.approx(0.2)

    def test_zero_baseline_returns_absolute(self):
        cmp = self._fake(0.5, 0.0)
        assert cmp.emu_improvement == pytest.approx(0.5)


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text
        assert "x" in text

    def test_render_heatmap(self):
        text = render_heatmap(
            ["r1"], ["c1", "c2"], {("r1", "c1"): 1.0}, title="H"
        )
        assert "H" in text
        assert "---" in text  # missing cell placeholder


#: Clock values no run can tick through: zero/negative durations or
#: periods, and non-finite values (``nan <= 0`` is False, so a plain
#: sign check lets them through).
BAD_CLOCKS = [0.0, -5.0, float("nan"), float("inf"), float("-inf")]


class TestClockValidation:
    """Every experiment config rejects an unusable clock up front."""

    @pytest.mark.parametrize("field", ["duration_s", "control_period_s"])
    @pytest.mark.parametrize("value", BAD_CLOCKS)
    def test_colocation_config(self, field, value):
        with pytest.raises(ExperimentError, match=field):
            ColocationConfig(**{field: value})

    @pytest.mark.parametrize("field", ["duration_s", "control_period_s"])
    @pytest.mark.parametrize("value", BAD_CLOCKS)
    def test_bakeoff_config(self, field, value):
        from repro.errors import ConfigurationError
        from repro.experiments.bakeoff import BakeoffConfig

        with pytest.raises(ConfigurationError, match="finite and positive"):
            BakeoffConfig(**{field: value})

    @pytest.mark.parametrize("field", ["duration_s", "control_period_s"])
    @pytest.mark.parametrize("value", BAD_CLOCKS)
    def test_fleet_config(self, field, value):
        from repro.errors import ConfigurationError
        from repro.experiments.fleet import FleetConfig

        with pytest.raises(ConfigurationError, match="finite and positive"):
            FleetConfig(**{field: value})
