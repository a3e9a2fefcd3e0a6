"""Figures 3 and 4 give the same result on every runner path.

The characterisation sweeps submit their sessions by catalog name and
registry ref, so every spec can reach the memo, the on-disk cache, the
worker pool and the batch engine.  Each path must reproduce the serial
result bit for bit, and a warm cache must answer every spec.
"""

import pytest

from repro.config import SimulationConfig
from repro.experiments import fig03_util_power, fig04_cores_power
from repro.runner.runner import SessionRunner, default_runner, set_default_runner

from .test_characterisation_figures import figure_digest

SHORT = SimulationConfig(duration_seconds=2.0, seed=0, warmup_seconds=0.5)


def run_figures(runner: SessionRunner) -> dict:
    """Digests of fig3 and fig4 at a short config, run on *runner*."""
    previous = default_runner()
    set_default_runner(runner)
    try:
        fig3 = fig03_util_power.run(SHORT, utilizations=(20.0, 80.0))
        fig4 = fig04_cores_power.run(SHORT, core_counts=(1, 2, 4))
    finally:
        set_default_runner(previous)
    return {"fig3": figure_digest("fig3", fig3), "fig4": figure_digest("fig4", fig4)}


@pytest.fixture(scope="module")
def serial():
    return run_figures(SessionRunner())


def test_batch_engine_path(serial):
    runner = SessionRunner(batch=True)
    assert run_figures(runner) == serial
    assert any(
        outcome.detail.startswith("batched(") for outcome in runner.last_report.outcomes
    )


def test_worker_pool_path(serial):
    runner = SessionRunner(jobs=2)
    assert run_figures(runner) == serial
    assert runner.total_stats.sessions_executed == 25


def test_warm_cache_simulates_nothing(serial, tmp_path):
    runner = SessionRunner(cache_dir=tmp_path / "cache")
    assert run_figures(runner) == serial
    cold = runner.total_stats.sessions_executed
    assert cold == 25
    runner.clear_memo()
    assert run_figures(runner) == serial
    warm_executed = runner.total_stats.sessions_executed - cold
    assert warm_executed == 0
    assert runner.total_stats.cache_hits == 25
