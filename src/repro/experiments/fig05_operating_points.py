"""Figure 5: power over frequency when varying the operating point.

Section 3.4 fixes a *global* CPU load (10/30/50/70%) and measures every
(cores, frequency) combination able to deliver it.  The findings to
reproduce:

* at low load a single core dominates (the other three are offline and
  save static power);
* the minimal-energy point moves toward more cores as the load grows
  ("a minimal energy point is often achieved when more than the minimal
  number of cores is active");
* the measured minima trace the model's optimal-point curve (the
  section 4.2 "scar").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..analysis.sweep import run_grid
from ..config import SimulationConfig
from ..core.energy_model import EnergyModel
from ..core.operating_point import OperatingPoint, OperatingPointOptimizer
from ..errors import ExperimentError
from ..scenario.registry import policy_ref, workload_ref
from ..soc.catalog import nexus5_spec
from .common import characterisation_config

__all__ = ["MeasuredPoint", "Fig05Result", "run", "DEFAULT_GLOBAL_LOADS"]

DEFAULT_GLOBAL_LOADS: Tuple[float, ...] = (10.0, 30.0, 50.0, 70.0)


@dataclass(frozen=True)
class MeasuredPoint:
    """One measured (cores, frequency) combination at a global load."""

    global_load_percent: float
    online_count: int
    frequency_khz: int
    mean_power_mw: float


@dataclass(frozen=True)
class Fig05Result:
    """Measured combinations per load level plus the model's predictions."""

    loads: Sequence[float]
    measured: Dict[float, List[MeasuredPoint]]
    model_best: Dict[float, OperatingPoint]

    def measured_best(self, load: float) -> MeasuredPoint:
        """The combination with the lowest measured power at *load*."""
        points = self.measured[load]
        if not points:
            raise ExperimentError(f"no measured points at load {load}")
        return min(points, key=lambda p: p.mean_power_mw)

    def best_core_counts(self) -> List[int]:
        """Measured-optimal core count per load level (should be non-decreasing)."""
        return [self.measured_best(load).online_count for load in self.loads]

    def model_matches_measurement(self, tolerance_percent: float = 10.0) -> bool:
        """The model's chosen point costs within tolerance of the measured best."""
        for load in self.loads:
            best = self.measured_best(load)
            chosen = self.model_best[load]
            measured_cost = {
                (p.online_count, p.frequency_khz): p.mean_power_mw
                for p in self.measured[load]
            }
            key = (chosen.online_count, chosen.frequency_khz)
            if key not in measured_cost:
                return False
            if measured_cost[key] > best.mean_power_mw * (1.0 + tolerance_percent / 100.0):
                return False
        return True

    def render(self) -> str:
        sections = []
        for load in self.loads:
            rows = [
                (p.online_count, f"{p.frequency_khz / 1000:.0f} MHz", f"{p.mean_power_mw:.0f}")
                for p in sorted(
                    self.measured[load], key=lambda p: (p.online_count, p.frequency_khz)
                )
            ]
            best = self.measured_best(load)
            model = self.model_best[load]
            sections.append(
                f"-- global load {load:.0f}% --\n"
                + render_table(("cores", "frequency", "power mW"), rows)
                + f"\nmeasured best: {best.online_count} cores @ "
                + f"{best.frequency_khz / 1000:.0f} MHz ({best.mean_power_mw:.0f} mW)"
                + f"\nmodel best:    {model.online_count} cores @ "
                + f"{model.frequency_khz / 1000:.0f} MHz"
            )
        return "Figure 5: power over operating points\n" + "\n\n".join(sections)


def _feasible_combinations(
    spec, load_percent: float
) -> List[Tuple[int, int]]:
    """All (cores, OPP) whose throughput covers *load_percent* of platform max."""
    needed_cps = (load_percent / 100.0) * spec.num_cores * (
        spec.opp_table.max_frequency_khz * 1000.0
    )
    combos = []
    for count in range(1, spec.num_cores + 1):
        for opp in spec.opp_table:
            if count * opp.frequency_khz * 1000.0 + 1e-9 >= needed_cps:
                combos.append((count, opp.frequency_khz))
    return combos


def run(
    config: Optional[SimulationConfig] = None,
    loads: Sequence[float] = DEFAULT_GLOBAL_LOADS,
    frequency_stride: int = 2,
) -> Fig05Result:
    """Measure every admissible combination at each global load.

    ``frequency_stride`` thins the 14-OPP ladder (every other OPP by
    default) to keep the sweep tractable; pass 1 for the full grid.
    Every measured combination of every load runs as one runner batch.
    """
    if frequency_stride < 1:
        raise ExperimentError("frequency_stride must be >= 1")
    if config is None:
        config = characterisation_config(duration_seconds=10.0)
    spec = nexus5_spec()
    model = EnergyModel(spec.power_params, spec.opp_table)
    optimizer = OperatingPointOptimizer(model, spec.num_cores)
    kept_frequencies = set(spec.opp_table.frequencies_khz[::frequency_stride])
    kept_frequencies.add(spec.opp_table.max_frequency_khz)

    model_best: Dict[float, OperatingPoint] = {}
    grid: List[Tuple[float, int, int]] = []
    for load in loads:
        best = optimizer.best_point(load)
        model_best[load] = best
        # The model's chosen point is always measured, whatever the stride.
        load_frequencies = set(kept_frequencies)
        load_frequencies.add(best.frequency_khz)
        grid.extend(
            (load, count, frequency)
            for count, frequency in _feasible_combinations(spec, load)
            if frequency in load_frequencies
        )
    summaries = run_grid(
        [
            (
                "Nexus 5",
                policy_ref("static", online_count=count, frequency_khz=frequency),
                workload_ref("busyloop", target_load_percent=load),
            )
            for load, count, frequency in grid
        ],
        config,
    )
    measured: Dict[float, List[MeasuredPoint]] = {load: [] for load in loads}
    for (load, count, frequency), summary in zip(grid, summaries):
        measured[load].append(
            MeasuredPoint(
                global_load_percent=load,
                online_count=count,
                frequency_khz=frequency,
                mean_power_mw=summary.mean_power_mw,
            )
        )
    return Fig05Result(loads=tuple(loads), measured=measured, model_best=model_best)
