"""Trial statistics: confidence intervals over repeated seeds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.stats import TrialStats, trial_statistics
from repro.errors import ExperimentError


class TestTrialStatistics:
    def test_single_trial_degenerates(self):
        stats = trial_statistics([5.0])
        assert stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == 5.0
        assert "single trial" in str(stats)

    def test_mean_and_std(self):
        stats = trial_statistics([2.0, 4.0, 6.0])
        assert stats.mean == pytest.approx(4.0)
        assert stats.std == pytest.approx(2.0)
        assert stats.n == 3

    def test_interval_symmetric_around_mean(self):
        stats = trial_statistics([1.0, 2.0, 3.0, 4.0])
        assert (stats.ci_low + stats.ci_high) / 2 == pytest.approx(stats.mean)
        assert stats.contains(stats.mean)

    def test_known_t_interval(self):
        """n=4, std=1 -> half width = t(0.975, 3) * 1/2 = 1.5912."""
        stats = trial_statistics([-1.0, 0.0, 0.0, 1.0])
        # std of [-1, 0, 0, 1] = sqrt(2/3)
        expected_half = 3.1824 * (2.0 / 3.0) ** 0.5 / 2.0
        assert stats.half_width == pytest.approx(expected_half, rel=1e-3)

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = trial_statistics(values, confidence=0.80)
        wide = trial_statistics(values, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_interval_shrinks_with_more_trials(self):
        few = trial_statistics([1.0, 3.0])
        many = trial_statistics([1.0, 3.0] * 8)
        assert many.half_width < few.half_width

    def test_validation(self):
        with pytest.raises(ExperimentError):
            trial_statistics([])
        with pytest.raises(ExperimentError):
            trial_statistics([1.0], confidence=1.0)

    def test_contains(self):
        stats = trial_statistics([10.0, 12.0, 14.0])
        assert stats.contains(12.0)
        assert not stats.contains(100.0)


class TestWithComparisons:
    def test_saving_interval_over_seeds(self):
        """Integration: game savings over seeds yield a finite interval."""
        from repro.analysis.comparison import PolicyComparison
        from repro.config import SimulationConfig
        from repro.scenario import policy_ref, workload_ref

        comparison = PolicyComparison(
            "Nexus 5",
            baseline_factory=policy_ref("android-default"),
            candidate_factory=policy_ref("mobicore", platform="Nexus 5"),
            config=SimulationConfig(duration_seconds=10.0, warmup_seconds=2.0),
        )
        rows = comparison.compare_seeds(workload_ref("game", title="Badland"), [1, 2, 3])
        stats = trial_statistics([row.power_saving_percent for row in rows])
        assert stats.n == 3
        assert stats.ci_low < stats.mean < stats.ci_high
        assert stats.mean > 0.0


def test_package_imports_leave_scipy_unloaded():
    # scipy is imported lazily by trial_statistics; loading the runner,
    # experiment and analysis layers must not pay for it.
    src = Path(repro.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import repro.experiments, repro.runner, repro.scenario, repro.store\n"
        "import repro.analysis.comparison, repro.analysis.stats\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
