"""Figure 3: power over CPU utilization at different frequencies, 1 core.

Section 3.3.1 characterises one active core with the kernel app for one
minute per point, at five representative frequencies, sweeping the CPU
load 10%..100%.  Paper headlines:

* raising load 10% -> 100% raises power by up to 74% at the highest
  frequency and 62.5% at the lowest;
* at 100% load, scaling down to fmin saves 28.2%-71.9%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..analysis.sweep import utilization_sweep
from ..config import SimulationConfig
from ..errors import ExperimentError
from ..soc.catalog import nexus5_spec
from .common import characterisation_config, representative_frequencies

__all__ = ["Fig03Result", "run", "DEFAULT_UTILIZATIONS"]

#: The sweep the paper plots: one core at each global-load level such
#: that the single core's local utilization runs 10..100%.
DEFAULT_UTILIZATIONS: Tuple[float, ...] = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0)


@dataclass(frozen=True)
class Fig03Result:
    """power[frequency_khz][utilization_percent] -> platform mW."""

    utilizations: Sequence[float]
    frequencies_khz: Sequence[int]
    power_mw: Dict[int, Dict[float, float]]

    def growth_percent(self, frequency_khz: int) -> float:
        """Power increase from the lowest to the highest sweep level."""
        series = self.power_mw[frequency_khz]
        low = series[self.utilizations[0]]
        high = series[self.utilizations[-1]]
        if low <= 0:
            raise ExperimentError("non-positive power at the low point")
        return 100.0 * (high / low - 1.0)

    def saving_at_full_load_percent(self) -> float:
        """Saving from scaling fmax -> fmin at 100% utilization."""
        top = max(self.frequencies_khz)
        bottom = min(self.frequencies_khz)
        full = self.utilizations[-1]
        high = self.power_mw[top][full]
        low = self.power_mw[bottom][full]
        if high <= 0:
            raise ExperimentError("non-positive power at fmax")
        return 100.0 * (1.0 - low / high)

    def is_monotone_in_utilization(self, tolerance_mw: float = 1.0) -> bool:
        """Power rises with load at every frequency (the figure's shape)."""
        for frequency in self.frequencies_khz:
            series = self.power_mw[frequency]
            values = [series[u] for u in self.utilizations]
            if any(b < a - tolerance_mw for a, b in zip(values, values[1:])):
                return False
        return True

    def render(self) -> str:
        headers = ["util %"] + [f"{f / 1000:.0f} MHz" for f in self.frequencies_khz]
        rows = []
        for utilization in self.utilizations:
            rows.append(
                [f"{utilization:.0f}"]
                + [f"{self.power_mw[f][utilization]:.0f}" for f in self.frequencies_khz]
            )
        return (
            "Figure 3: platform power (mW) over CPU utilization, 1 core\n"
            + render_table(headers, rows)
        )


def run(
    config: Optional[SimulationConfig] = None,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
) -> Fig03Result:
    """Sweep local utilization x the five representative OPPs on one core."""
    if config is None:
        config = characterisation_config()
    frequencies = representative_frequencies(nexus5_spec())
    power: Dict[int, Dict[float, float]] = {}
    for frequency in frequencies:
        summaries = utilization_sweep(
            "Nexus 5",
            online_count=1,
            frequency_khz=frequency,
            utilization_percents=utilizations,
            config=config,
        )
        power[frequency] = {
            utilization: summary.mean_power_mw
            for utilization, summary in zip(utilizations, summaries)
        }
    return Fig03Result(
        utilizations=tuple(utilizations),
        frequencies_khz=tuple(frequencies),
        power_mw=power,
    )
