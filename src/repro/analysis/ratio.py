"""Performance/power ratio analysis (Figures 6 and 7).

Section 3.5 evaluates "the ratio between performance and power
consumption over the frequency range for one core and for four cores"
with GeekBench 4.  We run the GeekBench-like workload pinned at each
OPP and compute score / watt; the paper's findings to reproduce:

* one core: the ratio is stable and rises slowly (log-like trend);
* four cores: the ratio peaks at a mid-table frequency (~960 MHz on the
  Nexus 5) and then *falls* -- too many cores at too high a state is not
  worth the power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..config import SimulationConfig
from ..errors import ExperimentError
from ..scenario.registry import workload_ref
from ..soc.catalog import get_phone_spec
from .sweep import frequency_sweep

__all__ = ["RatioPoint", "performance_power_ratio"]


@dataclass(frozen=True)
class RatioPoint:
    """One (frequency, performance, power, ratio) sample."""

    frequency_khz: int
    online_count: int
    score: float
    mean_power_mw: float

    @property
    def ratio_score_per_w(self) -> float:
        """Performance per watt -- the Figure 7 y-axis."""
        if self.mean_power_mw <= 0:
            raise ExperimentError("non-positive power; ratio undefined")
        return self.score / (self.mean_power_mw / 1000.0)


def performance_power_ratio(
    platform: str,
    online_count: int,
    frequencies_khz: Optional[Sequence[int]] = None,
    config: Optional[SimulationConfig] = None,
) -> List[RatioPoint]:
    """Score and power at every requested OPP for a fixed core count.

    *platform* is a catalog phone name; the whole ladder runs as one
    :func:`~repro.analysis.sweep.frequency_sweep` batch.  Defaults to
    the full OPP ladder.  The GPU/memory stay unpinned so the ratio
    reflects CPU behaviour (the paper subtracts stable uncore terms).
    """
    spec = get_phone_spec(platform)
    if online_count < 1 or online_count > spec.num_cores:
        raise ExperimentError(
            f"online_count {online_count} out of range 1..{spec.num_cores}"
        )
    if frequencies_khz is None:
        frequencies_khz = spec.opp_table.frequencies_khz
    if config is None:
        config = SimulationConfig(duration_seconds=20.0, warmup_seconds=1.0)
    summaries = frequency_sweep(
        platform,
        online_count,
        frequencies_khz,
        utilization_percent=100.0,
        config=config,
        workload_factory=workload_ref("geekbench"),
    )
    return [
        RatioPoint(
            frequency_khz=frequency,
            online_count=online_count,
            score=summary.workload_metrics["score"],
            mean_power_mw=summary.mean_power_mw,
        )
        for frequency, summary in zip(frequencies_khz, summaries)
    ]
