"""The runner's ``batch=`` knob: grouping, fallback, and ordering.

Batched execution must be invisible except for speed: report rows stay
in spec order no matter how grouping packs them, unbatchable specs
(faults, traces, non-vectorizable shapes) transparently take the normal
pool/inline path, and the summaries equal a plain runner's bit for bit.
"""

import pytest

from repro.config import SimulationConfig
from repro.errors import RunnerError
from repro.faults import FaultPlan, ThermalThrottleFault
from repro.runner.runner import SessionRunner
from repro.runner.spec import SessionSpec
from repro.scenario import (
    Scenario,
    ScenarioMatrix,
    platform_ref,
    policy_ref,
    run_scenarios,
    workload_ref,
)

PLATFORM = "Nexus 5"


def sweep_spec(index, policy="mobicore", workload="busyloop", faults=None, config=None):
    """One labelled sweep point; busy-loop intensity varies with index."""
    params = {"target_load_percent": 15.0 + 9.0 * index} if workload == "busyloop" else {}
    return SessionSpec(
        platform=platform_ref(PLATFORM),
        policy=policy_ref(policy, platform=PLATFORM),
        workload=workload_ref(workload, **params),
        config=config
        or SimulationConfig(duration_seconds=2.0, seed=index, warmup_seconds=0.2),
        faults=faults,
        label=f"s{index}",
    )


def faulted_plan():
    return FaultPlan(
        (ThermalThrottleFault(at_seconds=0.5, duration_seconds=0.5, steps=2),)
    )


class TestBatchedRunner:
    def test_mixed_sweep_matches_plain_runner_jobs4(self):
        # Batchable and non-batchable (faulted) specs interleaved: the
        # faulted ones must transparently fall back to the pool while
        # the rest batch, and the report must match a plain run exactly.
        specs = [
            sweep_spec(0),
            sweep_spec(1, policy="android-default"),
            sweep_spec(2, faults=faulted_plan()),
            sweep_spec(3),
            sweep_spec(4, workload="geekbench"),
            sweep_spec(5, faults=faulted_plan()),
            sweep_spec(6, policy="race-to-idle"),
            sweep_spec(7),
        ]
        expected = SessionRunner(jobs=1).run(specs)
        report = SessionRunner(jobs=4, batch=True).run_report(specs)
        assert report.summaries == expected
        details = [outcome.detail for outcome in report.outcomes]
        assert details[0].startswith("batched("), details
        assert details[3].startswith("batched("), details
        for unbatchable in (2, 4, 5):
            assert details[unbatchable] == "", details
        assert all(outcome.status == "ok" for outcome in report.outcomes)

    def test_report_rows_stay_in_spec_order(self):
        # Group packing pulls indices 0/2/4 into one batch; every
        # summary must still land at its own spec's index.
        specs = [
            sweep_spec(0),
            sweep_spec(1, config=SimulationConfig(duration_seconds=1.0, seed=1)),
            sweep_spec(2),
            sweep_spec(3, config=SimulationConfig(duration_seconds=1.0, seed=3)),
            sweep_spec(4),
        ]
        summaries = SessionRunner(batch=True).run(specs)
        for spec, summary in zip(specs, summaries):
            assert summary.seed == spec.config.seed
            assert summary.duration_seconds == spec.config.duration_seconds

    def test_batched_results_fill_memo_and_cache(self, tmp_path):
        specs = [sweep_spec(index) for index in range(3)]
        runner = SessionRunner(batch=True, cache_dir=tmp_path)
        first = runner.run(specs)
        assert runner.last_stats.sessions_executed == 3
        again = runner.run(specs)
        assert again == first
        assert runner.last_stats.memo_hits == 3
        cold = SessionRunner(batch=True, cache_dir=tmp_path)
        assert cold.run(specs) == first
        assert cold.last_stats.cache_hits == 3
        assert cold.last_stats.sessions_executed == 0

    def test_a_batch_group_is_timed_once_with_its_wall(self):
        # A batch runs its members together: spec_timings holds one
        # entry for the group, carrying the group's measured wall time
        # (each member's session event carries an equal share of it).
        from repro.obs.events import RunnerSessionEvent

        specs = [sweep_spec(index) for index in range(3)]
        runner = SessionRunner(batch=True)
        report = runner.run_report(specs)
        report.raise_on_failure()
        assert [outcome.detail for outcome in report.outcomes] == ["batched(3)"] * 3
        timings = runner.last_stats.spec_timings
        assert len(timings) == 1
        label, wall = timings[0]
        assert label == "batched(3):s0"
        shares = [
            event.wall_seconds
            for event in runner.telemetry
            if isinstance(event, RunnerSessionEvent)
        ]
        assert len(shares) == 3 and len(set(shares)) == 1
        assert wall > 0.0
        assert wall == pytest.approx(3 * shares[0], rel=1e-12)

    def test_unbatched_specs_are_timed_one_by_one(self):
        specs = [sweep_spec(0), sweep_spec(1, faults=faulted_plan())]
        runner = SessionRunner(batch=True)
        runner.run_report(specs).raise_on_failure()
        assert [label for label, _ in runner.last_stats.spec_timings] == ["s0", "s1"]

    def test_single_spec_groups_use_the_normal_path(self):
        report = SessionRunner(batch=True).run_report([sweep_spec(0)])
        assert report.outcomes[0].detail == ""
        assert report.outcomes[0].source == "executed"
        assert report.summaries[0] is not None

    def test_duplicate_specs_alias_not_rebatch(self):
        spec = sweep_spec(0)
        runner = SessionRunner(batch=True)
        report = runner.run_report([spec, spec, sweep_spec(1), sweep_spec(2)])
        assert report.outcomes[1].source == "alias"
        assert report.summaries[0] == report.summaries[1]
        assert runner.last_stats.sessions_executed == 3


class TestScenarioOrderingRegression:
    def test_run_scenarios_order_is_expansion_order(self):
        # Regression: batch grouping must not reorder run_scenarios
        # output.  The matrix interleaves batchable and non-batchable
        # workloads, so naive group-then-concatenate would shuffle it.
        matrix = ScenarioMatrix(
            base=Scenario(
                platform=PLATFORM,
                policy="mobicore",
                config=SimulationConfig(duration_seconds=1.0, warmup_seconds=0.2),
            ),
            axes=(
                ("workload", ("busyloop", "geekbench")),
                ("config.seed", (1, 2, 3)),
            ),
        )
        scenarios = matrix.expand()
        expected = run_scenarios(scenarios, runner=SessionRunner())
        got = run_scenarios(scenarios, runner=SessionRunner(batch=True, jobs=2))
        assert got == expected
        for scenario, summary in zip(scenarios, got):
            assert summary.workload.startswith(
                "busyloop" if scenario.workload == "busyloop" else "geekbench"
            )
            assert summary.seed == scenario.config.seed


class TestUnenforcedTimeoutAccounting:
    """Batched groups run in the calling process, where --timeout cannot
    preempt anything; the runner rejects the combination up front instead
    of running specs with a budget it cannot keep."""

    def test_batched_specs_surface_the_timeout_gap(self):
        with pytest.raises(RunnerError, match="timeout_seconds cannot be combined"):
            SessionRunner(batch=True, timeout_seconds=60.0)

    def test_no_timeout_means_no_gap_to_report(self):
        specs = [sweep_spec(index) for index in range(2)]
        runner = SessionRunner(batch=True)
        report = runner.run_report(specs)
        report.raise_on_failure()
        assert [outcome.detail for outcome in report.outcomes] == ["batched(2)"] * 2

    def test_pool_path_accepts_timeouts(self):
        # Without batching a timeout is still accepted: specs run in
        # worker processes that the budget can terminate.
        runner = SessionRunner(timeout_seconds=60.0, jobs=2)
        report = runner.run_report([sweep_spec(0, faults=faulted_plan())])
        report.raise_on_failure()
        assert runner.last_stats.timeouts == 0

    def test_stats_table_has_no_gap_row(self):
        from repro.obs.metrics_plane import stats_rows

        runner = SessionRunner(batch=True)
        runner.run([sweep_spec(0), sweep_spec(1)])
        rows = dict(stats_rows(runner.last_stats))
        assert "unenforced timeouts" not in rows
        assert rows["timeouts"] == "0"
