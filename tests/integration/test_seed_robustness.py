"""Seed robustness: the evaluation's qualitative findings hold across seeds.

The figure drivers use seeds (1, 2, 3); these tests re-check the
headline orderings on a disjoint seed set so the reproduction is not an
artifact of one random draw.
"""

import pytest

from repro.analysis.comparison import PolicyComparison
from repro.config import SimulationConfig
from repro.scenario import policy_ref, workload_ref

FRESH_SEEDS = (11, 12)
CFG = SimulationConfig(duration_seconds=25.0, seed=0, warmup_seconds=2.0)


@pytest.fixture(scope="module")
def comparison():
    return PolicyComparison(
        "Nexus 5",
        baseline_factory=policy_ref("android-default"),
        candidate_factory=policy_ref("mobicore", platform="Nexus 5"),
        config=CFG,
        pin_uncore_max=True,
    )


@pytest.fixture(scope="module")
def fresh_rows(comparison):
    rows = {}
    for game in ("Real Racing 3", "Subway Surf"):
        per_seed = comparison.compare_seeds(
            workload_ref("game", title=game), FRESH_SEEDS
        )
        rows[game] = per_seed
    return rows


def mean_saving(per_seed):
    return sum(row.power_saving_percent for row in per_seed) / len(per_seed)


class TestOrderingAcrossSeeds:
    def test_subway_surf_beats_real_racing(self, fresh_rows):
        """The extreme games keep their ordering on unseen seeds."""
        assert mean_saving(fresh_rows["Subway Surf"]) > mean_saving(
            fresh_rows["Real Racing 3"]
        )

    def test_mobicore_never_clearly_worse(self, fresh_rows):
        for per_seed in fresh_rows.values():
            for row in per_seed:
                assert row.power_saving_percent > -1.5

    def test_fps_ratio_band_holds(self, fresh_rows):
        for per_seed in fresh_rows.values():
            for row in per_seed:
                assert 0.7 <= row.fps_ratio <= 1.02

    def test_mobicore_uses_fewer_cores(self, fresh_rows):
        for per_seed in fresh_rows.values():
            for row in per_seed:
                assert (
                    row.candidate.mean_online_cores
                    <= row.baseline.mean_online_cores + 0.05
                )
