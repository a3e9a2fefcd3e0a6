"""The ops plane under fire: chaos sweep metrics vs report ground truth.

The acceptance scenario for the runner's metrics wiring: a ``jobs=4``
sweep with worker crashes and cache corruption must leave the registry
agreeing exactly with the batch's :class:`RunReport` and
``RunnerStats`` — the metrics are a *view* of the run, never an
independent (and therefore driftable) account of it.
"""

import json

from repro.config import SimulationConfig
from repro.faults import truncate_cache_entry
from repro.obs.metrics_plane import (
    heartbeat_path,
    metrics_path,
    parse_prometheus_text,
    read_heartbeat,
    render_prometheus,
)
from repro.runner import FactoryRef, ResultCache, SessionRunner, SessionSpec
from repro.runner.report import STATUS_ORDER


def busyloop_spec(seed, level, label=""):
    return SessionSpec(
        "Nexus 5",
        FactoryRef.to("repro.policies.android_default:AndroidDefaultPolicy"),
        FactoryRef.to("repro.workloads.busyloop:BusyLoopApp", level),
        SimulationConfig(duration_seconds=2.0, seed=seed),
        label=label,
    )


def crashing_spec(seed, level, token_path, label=""):
    spec = busyloop_spec(seed, level, label)
    return SessionSpec(
        spec.platform,
        spec.policy,
        FactoryRef.to(
            "repro.faults.chaos:CrashOnceWorkload", str(token_path), level
        ),
        spec.config,
        label=label,
    )


LEVELS = [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]


class TestChaosSweepMetrics:
    def test_registry_matches_report_ground_truth(self, tmp_path):
        """jobs=4, two crashes, one corrupt cache entry — counted once each."""
        cache_dir = tmp_path / "cache"
        status_dir = tmp_path / "status"

        # Pre-corrupt one cache entry, as the chaos harness does.
        warmer = SessionRunner(jobs=1, cache_dir=cache_dir)
        warm_spec = busyloop_spec(5, LEVELS[5], "chaos5")
        warmer.run([warm_spec])
        truncate_cache_entry(ResultCache(cache_dir).path(warm_spec.cache_key()))

        specs = []
        for i in range(8):
            if i in (1, 6):
                specs.append(crashing_spec(
                    i, LEVELS[i], tmp_path / f"crash{i}.token", f"chaos{i}"
                ))
            else:
                specs.append(busyloop_spec(i, LEVELS[i], f"chaos{i}"))

        runner = SessionRunner(
            jobs=4, cache_dir=cache_dir, retries=3,
            retry_backoff_seconds=0.0, status_dir=status_dir,
        )
        report = runner.run_report(specs)
        assert report.succeeded, report.render()

        stats = runner.last_stats
        registry = runner.metrics

        def counter(name, **labels):
            return registry.get(name).value(**labels)

        # Scalar counters mirror RunnerStats exactly.
        assert counter("repro_runner_sessions_executed_total") == (
            stats.sessions_executed
        )
        assert counter("repro_runner_ticks_simulated_total") == (
            stats.ticks_simulated
        )
        assert counter("repro_runner_retries_total") == stats.retries
        assert counter("repro_runner_corrupt_cache_entries_total") == (
            stats.corrupt_cache_entries
        ) == 1
        assert counter("repro_runner_failed_specs_total") == 0

        # Outcome counters mirror the report, status by status.
        for status in STATUS_ORDER:
            assert counter(
                "repro_runner_spec_outcomes_total", status=status
            ) == len(report.by_status(status)), status

        # Cache-tier lookups mirror the telemetry stream.
        assert counter(
            "repro_runner_cache_lookups_total", tier="disk", outcome="corrupt"
        ) == 1
        cache_events = [
            event for event in runner.telemetry
            if event.category == "runner" and event.name == "cache"
        ]
        total_lookups = sum(
            sample["value"]
            for sample in registry.get("repro_runner_cache_lookups_total").samples()
        )
        assert total_lookups == len(cache_events)

        # Every executed session fed the wall and phase histograms.
        wall = registry.get("repro_runner_session_wall_seconds")
        assert wall.count() == stats.sessions_executed
        phases = registry.get("repro_runner_phase_seconds")
        for phase in ("compile", "execute", "summarize"):
            assert phases.count(phase=phase) == stats.sessions_executed, phase

        # Waves/terminations are plausible and non-zero where due.
        assert counter("repro_runner_waves_dispatched_total") >= 2  # 8 specs / 4
        assert counter("repro_runner_workers_terminated_total") == 0

        # The heartbeat's final record agrees with the report too.
        state = read_heartbeat(heartbeat_path(status_dir))
        assert state.finished
        assert state.total == 8
        for status in STATUS_ORDER:
            assert state.final_counts.get(status, 0) == (
                len(report.by_status(status))
            ), status

        # And the persisted snapshot renders to valid exposition whose
        # samples carry the very same numbers.
        snapshot = json.loads(metrics_path(status_dir).read_text())
        samples = parse_prometheus_text(render_prometheus(snapshot))
        flat = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in samples
        }
        assert flat[("repro_runner_sessions_executed_total", ())] == (
            stats.sessions_executed
        )
        assert flat[("repro_runner_corrupt_cache_entries_total", ())] == 1.0


class TestDisabledParity:
    def test_ops_plane_never_changes_results(self, tmp_path):
        specs = [busyloop_spec(i, LEVELS[i], f"p{i}") for i in range(4)]
        plain = SessionRunner(jobs=2).run(specs)
        instrumented = SessionRunner(
            jobs=2, status_dir=tmp_path / "status"
        ).run(specs)
        assert instrumented == plain

    def test_disabled_runner_writes_no_status_files(self, tmp_path, monkeypatch):
        # The registry is always on; "disabled" means no status output.
        monkeypatch.chdir(tmp_path)
        runner = SessionRunner(jobs=1)
        runner.run([busyloop_spec(0, 40.0)])
        assert runner.status_dir is None
        assert list(tmp_path.iterdir()) == []  # no heartbeat, no metrics.json
        assert runner.metrics.get("repro_runner_sessions_executed_total").value() == 1


class TestDriverAggregation:
    def test_span_profiler_aggregates_per_spec_phases(self, tmp_path):
        runner = SessionRunner(jobs=2, status_dir=tmp_path / "status")
        runner.run([busyloop_spec(i, 40.0 + i) for i in range(3)])
        stats = runner.span_profiler.stats()
        for phase in ("compile", "execute", "summarize"):
            assert stats[phase].count == 3, phase
            assert stats[phase].p50 <= stats[phase].p99

    def test_metrics_accumulate_across_batches(self, tmp_path):
        runner = SessionRunner(jobs=1, status_dir=tmp_path / "status")
        runner.run([busyloop_spec(0, 40.0)])
        runner.run([busyloop_spec(1, 50.0)])  # second batch, same registry
        executed = runner.metrics.get("repro_runner_sessions_executed_total")
        assert executed.value() == 2.0

    def test_memo_hits_feed_the_memo_tier(self, tmp_path):
        runner = SessionRunner(jobs=1, status_dir=tmp_path / "status")
        runner.run([busyloop_spec(0, 40.0)])
        runner.run([busyloop_spec(0, 40.0)])  # identical: memo hit
        lookups = runner.metrics.get("repro_runner_cache_lookups_total")
        assert lookups.value(tier="memo", outcome="hit") == 1.0
