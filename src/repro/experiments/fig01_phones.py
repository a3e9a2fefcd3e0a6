"""Figure 1: evolution of average power consumption for different phones.

Section 1.2 stresses the CPU cores of six phones (2010-2014) at their
highest computing state with the in-house kernel app (screen off,
airplane mode) and shows total power growing almost linearly with the
core count, with newer same-core-count phones slightly higher.

Paper anchors: Nexus S 980.6 mW, Nexus 5 2403.82 mW (the Nexus 5 about
140% higher).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.report import render_series, render_table
from ..analysis.sweep import run_grid
from ..config import SimulationConfig
from ..errors import ExperimentError
from ..scenario.registry import policy_ref, workload_ref
from ..soc.catalog import fleet_specs
from .common import characterisation_config

__all__ = ["PhonePowerRow", "Fig01Result", "run"]


@dataclass(frozen=True)
class PhonePowerRow:
    """One phone's full-stress average power."""

    name: str
    release_year: int
    num_cores: int
    mean_power_mw: float


@dataclass(frozen=True)
class Fig01Result:
    """The fleet series, ordered by release year."""

    rows: List[PhonePowerRow]

    def row(self, name: str) -> PhonePowerRow:
        """Look up one phone's row."""
        for row in self.rows:
            if row.name == name:
                return row
        raise ExperimentError(f"no phone {name!r} in the figure")

    @property
    def nexus5_vs_nexus_s_percent(self) -> float:
        """The paper's '140% more power consuming' comparison."""
        nexus_s = self.row("Nexus S").mean_power_mw
        nexus5 = self.row("Nexus 5").mean_power_mw
        return 100.0 * (nexus5 / nexus_s - 1.0)

    def power_increases_with_cores(self) -> bool:
        """The figure's headline: more cores, more power."""
        by_cores = sorted(self.rows, key=lambda r: (r.num_cores, r.release_year))
        return all(
            later.mean_power_mw >= earlier.mean_power_mw * 0.95
            for earlier, later in zip(by_cores, by_cores[1:])
        )

    def render(self) -> str:
        table = render_table(
            ("phone", "year", "cores", "avg power"),
            [
                (r.name, r.release_year, r.num_cores, f"{r.mean_power_mw:.1f} mW")
                for r in self.rows
            ],
        )
        series = render_series(
            "Figure 1",
            "phone",
            "avg power (mW)",
            [r.name for r in self.rows],
            [r.mean_power_mw for r in self.rows],
        )
        return f"{table}\n\n{series}"


def run(config: Optional[SimulationConfig] = None) -> Fig01Result:
    """Full-stress every catalog phone and collect average power.

    Highest computing state: all cores online at fmax with 100% local
    utilization; GPU and memory idle (the kernel app has no graphics or
    memory traffic).  The whole fleet runs as one runner batch.
    """
    if config is None:
        config = characterisation_config()
    specs = fleet_specs()
    summaries = run_grid(
        [
            (
                spec.name,
                policy_ref(
                    "static",
                    online_count=spec.num_cores,
                    frequency_khz=spec.opp_table.max_frequency_khz,
                ),
                workload_ref("busyloop", target_load_percent=100.0),
            )
            for spec in specs
        ],
        config,
    )
    rows = [
        PhonePowerRow(
            name=spec.name,
            release_year=spec.release_year,
            num_cores=spec.num_cores,
            mean_power_mw=summary.mean_power_mw,
        )
        for spec, summary in zip(specs, summaries)
    ]
    rows.sort(key=lambda r: (r.release_year, r.num_cores, r.name))
    return Fig01Result(rows=rows)
