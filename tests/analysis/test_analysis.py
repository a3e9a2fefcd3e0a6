"""Sweeps, ratio analysis, policy comparison, and report rendering."""

import dataclasses

import pytest

from repro.analysis.comparison import PolicyComparison
from repro.analysis.ratio import performance_power_ratio
from repro.analysis.report import (
    format_mhz,
    format_mw,
    format_percent,
    render_series,
    render_table,
)
from repro.analysis.sweep import (
    core_count_sweep,
    frequency_sweep,
    run_session,
    summary_columns,
    utilization_sweep,
)
from repro.config import SimulationConfig
from repro.errors import ExperimentError
from repro.policies.static import StaticPolicy
from repro.scenario import policy_ref, workload_ref
from repro.workloads.busyloop import BusyLoopApp

CFG = SimulationConfig(duration_seconds=3.0, seed=1, warmup_seconds=0.5)


class TestSweeps:
    def test_utilization_sweep_monotone(self, spec):
        summaries = utilization_sweep(
            "Nexus 5", 1, spec.opp_table.max_frequency_khz, [10.0, 50.0, 100.0], CFG
        )
        powers = [s.mean_power_mw for s in summaries]
        assert powers == sorted(powers)

    def test_utilization_sweep_needs_levels(self):
        with pytest.raises(ExperimentError):
            utilization_sweep("Nexus 5", 1, 300_000, [], CFG)

    def test_frequency_sweep_monotone(self):
        summaries = frequency_sweep(
            "Nexus 5", 1, [300_000, 960_000, 2_265_600], 100.0, CFG
        )
        powers = [s.mean_power_mw for s in summaries]
        assert powers == sorted(powers)

    def test_core_count_sweep_monotone(self):
        summaries = core_count_sweep("Nexus 5", [1, 2, 4], 960_000, 100.0, CFG)
        powers = [s.mean_power_mw for s in summaries]
        assert powers == sorted(powers)

    def test_grid_specs_are_labelled_outside_the_cache_key(self):
        class Capture:
            def run(self, batch):
                self.batch = batch
                return []

        runner = Capture()
        utilization_sweep("Nexus 5", 2, 960_000, [10.0, 50.0], CFG, runner=runner)
        labels = [spec.label for spec in runner.batch]
        assert labels == [
            "static_policy(frequency_khz=960000,online_count=2) "
            f"busyloop_app(num_threads=2,reference_frequency_khz=960000,"
            f"target_load_percent={level})"
            for level in (10.0, 50.0)
        ]
        for spec in runner.batch:
            assert spec.cache_key() == dataclasses.replace(spec, label="").cache_key()

    def test_run_session_isolated_platforms(self, spec):
        """Two runs never share thermal or cluster state."""
        first = run_session(spec, BusyLoopApp(100.0), StaticPolicy(4, 2_265_600), CFG)
        second = run_session(spec, BusyLoopApp(100.0), StaticPolicy(4, 2_265_600), CFG)
        assert first.trace.to_csv() == second.trace.to_csv()


class TestSummaryColumns:
    def test_columns_align_with_summary_rows(self):
        summaries = frequency_sweep("Nexus 5", 1, [300_000, 960_000], 100.0, CFG)
        columns = summary_columns(summaries)
        assert columns["mean_power_mw"].tolist() == [
            s.mean_power_mw for s in summaries
        ]
        assert all(len(column) == len(summaries) for column in columns.values())

    def test_fps_none_becomes_nan(self):
        import numpy as np

        summaries = frequency_sweep("Nexus 5", 1, [960_000], 100.0, CFG)
        assert summaries[0].mean_fps is None  # busyloop reports no frames
        column = summary_columns(summaries, fields=("mean_fps",))["mean_fps"]
        assert np.isnan(column[0])

    def test_empty_input_rejected(self):
        with pytest.raises(ExperimentError):
            summary_columns([])


class TestRatio:
    def test_points_per_frequency(self):
        points = performance_power_ratio(
            "Nexus 5", 1, frequencies_khz=[300_000, 2_265_600], config=CFG
        )
        assert [p.frequency_khz for p in points] == [300_000, 2_265_600]
        assert all(p.score > 0 and p.mean_power_mw > 0 for p in points)
        assert points[1].score > points[0].score

    def test_bad_core_count(self):
        with pytest.raises(ExperimentError):
            performance_power_ratio("Nexus 5", 9, config=CFG)


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return PolicyComparison(
            "Nexus 5",
            baseline_factory=policy_ref("android-default"),
            candidate_factory=policy_ref("mobicore", platform="Nexus 5"),
            config=SimulationConfig(duration_seconds=4.0, seed=2, warmup_seconds=1.0),
            pin_uncore_max=False,
        )

    def test_row_deltas(self, comparison):
        row = comparison.compare(workload_ref("busyloop", target_load_percent=30.0))
        assert row.workload.startswith("busyloop")
        assert row.power_saving_percent > 0
        assert row.fps_ratio is None

    def test_game_row_has_fps_ratio(self, comparison):
        row = comparison.compare(workload_ref("game", title="Badland"))
        assert row.fps_ratio is not None
        assert 0 < row.fps_ratio <= 1.1

    def test_seeds_vary_results(self, comparison):
        rows = comparison.compare_seeds(workload_ref("game", title="Badland"), [1, 2])
        assert len(rows) == 2
        assert rows[0].baseline.mean_power_mw != rows[1].baseline.mean_power_mw

    def test_mean_power_saving(self, comparison):
        rows = comparison.compare_seeds(
            workload_ref("busyloop", target_load_percent=30.0), [1, 2]
        )
        mean = PolicyComparison.mean_power_saving(rows)
        assert mean == pytest.approx(
            sum(r.power_saving_percent for r in rows) / 2
        )

    def test_empty_seeds_rejected(self, comparison):
        with pytest.raises(ExperimentError):
            comparison.compare_seeds(
                workload_ref("busyloop", target_load_percent=10.0), []
            )


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(("a", "bbb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_render_table_row_length_checked(self):
        with pytest.raises(ExperimentError):
            render_table(("a", "b"), [(1,)])

    def test_render_series_bars(self):
        text = render_series("t", "x", "y", ["a", "b"], [1.0, 2.0], bar_width=10)
        lines = text.splitlines()
        assert "##########" in lines[2]
        assert "#####" in lines[1]

    def test_render_series_length_checked(self):
        with pytest.raises(ExperimentError):
            render_series("t", "x", "y", ["a"], [1.0, 2.0])

    def test_formatters(self):
        assert format_mw(980.62) == "980.6 mW"
        assert format_mhz(2_265_600) == "2265.6 MHz"
        assert format_percent(5.34) == "5.3%"
        assert format_percent(5.34, signed=True) == "+5.3%"
