"""Figures 1-7: the characterisation experiments, shape assertions.

These use short sessions; the shapes they assert are the paper's
headline claims (see DESIGN.md section 5 for the acceptance criteria).
The same fixtures are also pinned bit for bit against
``tests/data/golden_characterisation.json``.
"""

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.experiments import (
    fig01_phones,
    fig02_thermal,
    fig03_util_power,
    fig04_cores_power,
    fig05_operating_points,
    fig06_perf_power,
    fig07_ratio,
)

QUICK = SimulationConfig(duration_seconds=6.0, seed=0, warmup_seconds=1.0)

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_characterisation.json"


def _feed(digest, value, depth=0, seen=None) -> None:
    """Hash *value* canonically: floats as ``float.hex``, sequences in order.

    The canonical form of ``perfbench/worker.py``'s ``digest_of``, copied
    so the frozen digests do not depend on the benchmark package.
    """
    if depth > 16:
        raise ValueError("result object nests too deeply to digest")
    seen = set() if seen is None else seen
    if value is None or isinstance(value, (bool, int, str)):
        digest.update(f"{type(value).__name__}:{value!r};".encode())
        return
    if isinstance(value, float):
        digest.update(f"f:{value.hex()};".encode())
        return
    if isinstance(value, np.generic):
        _feed(digest, value.item(), depth, seen)
        return
    if isinstance(value, np.ndarray):
        digest.update(f"nd:{value.dtype}:{value.shape};".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
        return
    if isinstance(value, enum.Enum):
        digest.update(f"enum:{type(value).__name__}.{value.name};".encode())
        return
    if id(value) in seen:
        digest.update(b"cycle;")
        return
    seen = seen | {id(value)}
    digest.update(f"<{type(value).__name__}>".encode())
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda item: repr(item[0]))
    elif isinstance(value, (list, tuple)):
        items = list(enumerate(value))
    elif isinstance(value, (set, frozenset)):
        items = sorted((repr(item), item) for item in value)
    else:
        items = list(getattr(value, "__dict__", {}).items())
    for key, item in items:
        _feed(digest, key, depth + 1, seen)
        _feed(digest, item, depth + 1, seen)
    digest.update(b"</>")


def digest_of(*values) -> str:
    """sha256 over the canonical form of *values*."""
    digest = hashlib.sha256()
    for value in values:
        _feed(digest, value)
    return digest.hexdigest()


def figure_digest(figure: str, result) -> str:
    """The frozen-oracle digest: figure id, rendered text, result object."""
    return digest_of(figure, result.render(), result)


@pytest.fixture(scope="module")
def fig1():
    return fig01_phones.run(QUICK)


@pytest.fixture(scope="module")
def fig3():
    return fig03_util_power.run(QUICK, utilizations=(10.0, 40.0, 70.0, 100.0))


@pytest.fixture(scope="module")
def fig4():
    return fig04_cores_power.run(
        SimulationConfig(duration_seconds=45.0, seed=0, warmup_seconds=20.0)
    )


@pytest.fixture(scope="module")
def fig5():
    return fig05_operating_points.run(
        SimulationConfig(duration_seconds=4.0, seed=0, warmup_seconds=1.0)
    )


@pytest.fixture(scope="module")
def fig6():
    return fig06_perf_power.run(QUICK)


@pytest.fixture(scope="module")
def fig7():
    return fig07_ratio.run(QUICK)


class TestFig01:
    def test_six_phones_in_year_order(self, fig1):
        assert len(fig1.rows) == 6
        years = [row.release_year for row in fig1.rows]
        assert years == sorted(years)

    def test_power_grows_with_cores(self, fig1):
        assert fig1.power_increases_with_cores()

    def test_nexus5_vs_nexus_s_near_140_percent(self, fig1):
        assert fig1.nexus5_vs_nexus_s_percent == pytest.approx(140.0, abs=20.0)

    def test_render(self, fig1):
        assert "Nexus 5" in fig1.render()


class TestFig02:
    @pytest.fixture(scope="class")
    def fig2(self):
        return fig02_thermal.run()

    def test_ir_temperatures(self, fig2):
        """Paper: 26.9 degC (Nexus S) vs 42.1 degC (Nexus 5)."""
        assert fig2.row("Nexus S").peak_temperature_c == pytest.approx(26.9, abs=1.0)
        assert fig2.row("Nexus 5").peak_temperature_c == pytest.approx(42.1, abs=1.0)

    def test_gap(self, fig2):
        assert fig2.temperature_gap_c == pytest.approx(15.2, abs=1.5)


class TestFig03:
    def test_monotone_in_utilization(self, fig3):
        assert fig3.is_monotone_in_utilization()

    def test_monotone_in_frequency(self, fig3):
        for utilization in fig3.utilizations:
            powers = [fig3.power_mw[f][utilization] for f in fig3.frequencies_khz]
            assert powers == sorted(powers)

    def test_growth_larger_at_high_frequency(self, fig3):
        top = max(fig3.frequencies_khz)
        bottom = min(fig3.frequencies_khz)
        assert fig3.growth_percent(top) > fig3.growth_percent(bottom)

    def test_growth_at_fmax_near_paper(self, fig3):
        """Paper: +74%; model: +60-70% band."""
        assert 50.0 <= fig3.growth_percent(max(fig3.frequencies_khz)) <= 90.0

    def test_saving_in_paper_band(self, fig3):
        """Paper: scaling fmax->fmin at full load saves 28.2-71.9%."""
        assert 28.2 <= fig3.saving_at_full_load_percent() <= 71.9

    def test_render(self, fig3):
        assert "MHz" in fig3.render()


class TestFig04:
    def test_monotone_in_cores_unthrottled(self, fig4):
        """Adding cores never reduces power at frequencies low enough
        that the thermal cap stays out of the picture; at the top two
        frequencies sustained multi-core stress throttles and flattens
        (or slightly inverts) the step, as on the real MSM8974."""
        ladder = sorted(fig4.frequencies_khz)
        for frequency in ladder[:-2]:
            series = fig4.power_mw[frequency]
            values = [series[c] for c in fig4.core_counts]
            assert all(b >= a - 20.0 for a, b in zip(values, values[1:]))

    def test_weakly_monotone_at_top(self, fig4):
        for frequency in sorted(fig4.frequencies_khz)[-2:]:
            series = fig4.power_mw[frequency]
            values = [series[c] for c in fig4.core_counts]
            assert all(b >= a - 150.0 for a, b in zip(values, values[1:]))

    def test_concave_at_fmax(self, fig4):
        """Paper: 1->2 costs +28.3%, 2->4 only +7.7%: strongly concave."""
        assert fig4.is_concave_at(max(fig4.frequencies_khz))

    def test_first_core_jump_dominates(self, fig4):
        top = max(fig4.frequencies_khz)
        assert fig4.increase_percent(top, 1, 2) > 2 * fig4.increase_percent(top, 2, 4) / 2

    def test_lower_frequency_also_concave(self, fig4):
        ladder = sorted(fig4.frequencies_khz)
        assert fig4.is_concave_at(ladder[-2])


class TestFig05:
    def test_optimal_cores_grow_with_load(self, fig5):
        counts = fig5.best_core_counts()
        assert counts == sorted(counts)

    def test_low_load_prefers_one_core(self, fig5):
        assert fig5.best_core_counts()[0] == 1

    def test_model_tracks_measurement(self, fig5):
        assert fig5.model_matches_measurement(tolerance_percent=10.0)

    def test_render(self, fig5):
        assert "measured best" in fig5.render()


class TestFig06:
    def test_performance_monotone(self, fig6):
        assert fig6.performance_is_monotone()

    def test_power_monotone(self, fig6):
        powers = fig6.powers_mw()
        assert powers == sorted(powers)

    def test_marginal_gain_flattens(self, fig6):
        """The plateau: the top quarter gains far less than the bottom."""
        assert fig6.plateau_gain_percent() < fig6.low_range_gain_percent() / 2


class TestFig07:
    def test_one_core_ratio_rises(self, fig7):
        ratios = [p.ratio_score_per_w for p in fig7.one_core]
        assert ratios[-1] > ratios[0]

    def test_four_core_peak_interior(self, fig7):
        """Paper: the 4-core ratio peaks near 960 MHz then falls."""
        assert fig7.four_core_peak_is_interior()
        assert fig7.four_core_declines_after_peak()

    def test_four_core_peak_mid_ladder(self, fig7):
        peak = fig7.four_core_peak_khz()
        assert 652_800 <= peak <= 1_574_400

    def test_one_core_ratio_beats_four_core_at_fmax(self, fig7):
        assert (
            fig7.one_core[-1].ratio_score_per_w
            > fig7.four_cores[-1].ratio_score_per_w
        )


@pytest.mark.parametrize("figure", ["fig1", "fig3", "fig4", "fig5", "fig6", "fig7"])
def test_matches_frozen_digest(figure, request):
    """Bit-identical to the digests captured before the runner reroute."""
    golden = json.loads(GOLDEN_PATH.read_text())["digests"]
    result = request.getfixturevalue(figure)
    assert figure_digest(figure, result) == golden[figure]
