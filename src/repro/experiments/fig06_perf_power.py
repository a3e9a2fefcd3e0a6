"""Figure 6: power and performance over frequency, 1 core at 100% load.

Section 3.5 runs GeekBench 4 on a single pinned core across the
frequency ladder.  Findings to reproduce: performance rises with
frequency but both performance and its marginal gain flatten toward the
top ("both the power consumption and the performance seem to reach a
plateau" near 1.95 GHz) -- the memory-bandwidth roofline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.ratio import RatioPoint, performance_power_ratio
from ..analysis.report import render_table
from ..config import SimulationConfig
from ..errors import ExperimentError

__all__ = ["Fig06Result", "run"]


@dataclass(frozen=True)
class Fig06Result:
    """Score and power per OPP for one core."""

    points: List[RatioPoint]

    def scores(self) -> List[float]:
        return [p.score for p in self.points]

    def powers_mw(self) -> List[float]:
        return [p.mean_power_mw for p in self.points]

    def performance_is_monotone(self, tolerance: float = 0.02) -> bool:
        """Score never falls as frequency rises (within tolerance)."""
        scores = self.scores()
        return all(b >= a * (1.0 - tolerance) for a, b in zip(scores, scores[1:]))

    def plateau_gain_percent(self) -> float:
        """Score gain over the top quarter of the ladder (small = plateau).

        The paper's plateau claim: the gain from ~1.95 GHz to fmax is
        marginal compared to the gain lower down the ladder.
        """
        scores = self.scores()
        if len(scores) < 4:
            raise ExperimentError("need at least 4 points for a plateau check")
        quarter = max(1, len(scores) // 4)
        start = scores[-quarter - 1]
        end = scores[-1]
        if start <= 0:
            raise ExperimentError("non-positive score at the plateau start")
        return 100.0 * (end / start - 1.0)

    def low_range_gain_percent(self) -> float:
        """Score gain over the bottom quarter, for contrast with the plateau."""
        scores = self.scores()
        quarter = max(1, len(scores) // 4)
        start = scores[0]
        end = scores[quarter]
        if start <= 0:
            raise ExperimentError("non-positive score at the bottom")
        return 100.0 * (end / start - 1.0)

    def render(self) -> str:
        rows = [
            (f"{p.frequency_khz / 1000:.0f} MHz", f"{p.score:.0f}", f"{p.mean_power_mw:.0f}")
            for p in self.points
        ]
        return (
            "Figure 6: performance and power over frequency (1 core, 100%)\n"
            + render_table(("frequency", "score", "power mW"), rows)
        )


def run(config: Optional[SimulationConfig] = None) -> Fig06Result:
    """GeekBench-like score and power at every OPP on a single core."""
    points = performance_power_ratio("Nexus 5", online_count=1, config=config)
    return Fig06Result(points=points)
