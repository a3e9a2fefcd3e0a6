"""Figure 7: performance/power ratio over frequency for 1 and 4 cores.

Section 3.5's headline contrast:

* **1 core**: the ratio "is reasonably stable and increases slowly
  following a logarithmic trend" -- the best state reachable;
* **4 cores**: "after reaching a certain frequency (i.e., 960MHz), the
  ratio starts to decrease" -- too many cores at too high a state is
  not worth the power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.ratio import RatioPoint, performance_power_ratio
from ..analysis.report import render_table
from ..config import SimulationConfig
from ..errors import ExperimentError

__all__ = ["Fig07Result", "run"]


@dataclass(frozen=True)
class Fig07Result:
    """Ratio curves for 1 and 4 cores over the OPP ladder."""

    one_core: List[RatioPoint]
    four_cores: List[RatioPoint]

    @staticmethod
    def _ratios(points: List[RatioPoint]) -> List[float]:
        return [p.ratio_score_per_w for p in points]

    def one_core_peak_khz(self) -> int:
        """Frequency of the single-core ratio maximum."""
        points = self.one_core
        return max(points, key=lambda p: p.ratio_score_per_w).frequency_khz

    def four_core_peak_khz(self) -> int:
        """Frequency of the 4-core ratio maximum (paper: ~960 MHz)."""
        points = self.four_cores
        return max(points, key=lambda p: p.ratio_score_per_w).frequency_khz

    def four_core_declines_after_peak(self) -> bool:
        """The 4-core curve falls from its peak to fmax (the paper's claim)."""
        ratios = self._ratios(self.four_cores)
        peak_index = ratios.index(max(ratios))
        if peak_index == len(ratios) - 1:
            return False
        return ratios[-1] < ratios[peak_index]

    def four_core_peak_is_interior(self) -> bool:
        """The 4-core optimum is mid-ladder, not at either end."""
        ratios = self._ratios(self.four_cores)
        peak_index = ratios.index(max(ratios))
        return 0 < peak_index < len(ratios) - 1

    def render(self) -> str:
        rows = []
        for p1, p4 in zip(self.one_core, self.four_cores):
            rows.append(
                (
                    f"{p1.frequency_khz / 1000:.0f} MHz",
                    f"{p1.ratio_score_per_w:.1f}",
                    f"{p4.ratio_score_per_w:.1f}",
                )
            )
        return (
            "Figure 7: performance/power ratio (score per W)\n"
            + render_table(("frequency", "1 core", "4 cores"), rows)
        )


def run(config: Optional[SimulationConfig] = None) -> Fig07Result:
    """Score-per-watt at every OPP for 1 and for 4 pinned cores."""
    one = performance_power_ratio("Nexus 5", online_count=1, config=config)
    four = performance_power_ratio("Nexus 5", online_count=4, config=config)
    if len(one) != len(four):
        raise ExperimentError("mismatched sweep lengths")
    return Fig07Result(one_core=one, four_cores=four)
