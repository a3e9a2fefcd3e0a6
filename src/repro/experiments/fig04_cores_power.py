"""Figure 4: power over the number of CPU cores at 100% utilization.

Section 3.3.2 fixes the local utilization at 100% on every online core
and sweeps the core count 1..4 at five frequencies.  Paper headlines:

* power is *not* linear in the core count;
* at the highest frequency: 1 -> 2 cores costs +28.3%, 2 -> 4 only
  +7.7% (at a lower frequency +17.3% and +6.4%);
* sustained multi-core full-power stress is exactly the regime where
  the MSM8974's thermal cap engages, which is what keeps the measured
  2 -> 4 increment marginal -- this driver therefore runs the
  thermally-throttled Nexus 5 variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..analysis.sweep import core_count_sweep
from ..config import SimulationConfig
from ..errors import ExperimentError
from ..soc.catalog import get_phone_spec
from .common import representative_frequencies

__all__ = ["Fig04Result", "run", "DEFAULT_CORE_COUNTS"]

DEFAULT_CORE_COUNTS: Tuple[int, ...] = (1, 2, 3, 4)

#: The catalog name of the Nexus 5 with its thermal governor enabled.
PLATFORM = "Nexus 5 (throttled)"


@dataclass(frozen=True)
class Fig04Result:
    """power[frequency_khz][core_count] -> platform mW."""

    core_counts: Sequence[int]
    frequencies_khz: Sequence[int]
    power_mw: Dict[int, Dict[int, float]]

    def increase_percent(self, frequency_khz: int, cores_from: int, cores_to: int) -> float:
        """Relative power increase between two core counts at one frequency."""
        series = self.power_mw[frequency_khz]
        if series[cores_from] <= 0:
            raise ExperimentError("non-positive power at the starting point")
        return 100.0 * (series[cores_to] / series[cores_from] - 1.0)

    def is_concave_at(self, frequency_khz: int) -> bool:
        """The figure's shape: the 1->2 jump dominates the 2->4 jump."""
        return self.increase_percent(frequency_khz, 1, 2) > self.increase_percent(
            frequency_khz, 2, 4
        )

    def is_monotone_in_cores(self, tolerance_mw: float = 1.0) -> bool:
        """More online cores never reduce power."""
        for frequency in self.frequencies_khz:
            series = self.power_mw[frequency]
            values = [series[c] for c in self.core_counts]
            if any(b < a - tolerance_mw for a, b in zip(values, values[1:])):
                return False
        return True

    def render(self) -> str:
        headers = ["cores"] + [f"{f / 1000:.0f} MHz" for f in self.frequencies_khz]
        rows = []
        for count in self.core_counts:
            rows.append(
                [str(count)]
                + [f"{self.power_mw[f][count]:.0f}" for f in self.frequencies_khz]
            )
        return (
            "Figure 4: platform power (mW) over core count, 100% utilization\n"
            + render_table(headers, rows)
        )


def run(
    config: Optional[SimulationConfig] = None,
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
) -> Fig04Result:
    """Sweep core count x the five representative OPPs at full local load.

    Runs the thermally-throttled Nexus 5 (sustained full-power stress is
    where the stock thermal governor engages); sessions are long enough
    for the cap to settle.
    """
    if config is None:
        config = SimulationConfig(duration_seconds=60.0, warmup_seconds=20.0)
    frequencies = representative_frequencies(get_phone_spec(PLATFORM))
    power: Dict[int, Dict[int, float]] = {}
    for frequency in frequencies:
        summaries = core_count_sweep(
            PLATFORM,
            core_counts=core_counts,
            frequency_khz=frequency,
            utilization_percent=100.0,
            config=config,
        )
        power[frequency] = {
            count: summary.mean_power_mw
            for count, summary in zip(core_counts, summaries)
        }
    return Fig04Result(
        core_counts=tuple(core_counts),
        frequencies_khz=tuple(frequencies),
        power_mw=power,
    )
