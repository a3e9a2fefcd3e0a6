"""An EAS-style energy-aware placement policy for big.LITTLE platforms.

Linux's Energy Aware Scheduler picks task placements by consulting an
energy model of the CPU topology instead of raw capacity alone.  This
policy reproduces that decision shape at the tick granularity of our
simulator: each tick it

1. measures the platform's demand in **IPC-scaled work** (instructions
   per second), so a cycle on a little core and a cycle on a big core
   are weighed by what they actually retire;
2. enumerates candidate placements -- how many cores of each frequency
   domain to keep online -- and, per placement, the cross product of
   per-domain operating points;
3. costs every feasible candidate with the section-4.1 power model
   (:meth:`~repro.soc.power_model.CpuPowerModel.predict_cpu_mw`, one
   evaluation per domain) and picks the cheapest per placement;
4. applies hysteresis before changing the online mask, so the placement
   does not thrash between adjacent operating points.

On a homogeneous platform the policy degenerates to a model-driven
(n, f) optimiser over the single domain -- it runs anywhere, but its
reason to exist is the heterogeneous case: under a sustained spinning
load it discovers that four little cores at a mid OPP beat "everything
online at fmax" (the race-to-idle placement) by a wide margin, which is
exactly the comparison the big.LITTLE end-to-end test pins down.

Steps 2 and 3 depend on the demand only through one scalar, so the
(placement, OPP combination) grid and every model coefficient are built
once in ``__init__``; a tick is one numpy pass over that grid whose
float operations are, entry by entry, those of a scalar walk of the
grid in ``itertools.product`` order (``docs/NUMERICS.md``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import CpuPolicy, PolicyDecision, SystemObservation
from ..errors import ConfigError
from ..soc.power_model import CpuPowerModel
from ..soc.topology import ClusterSpec
from ..units import require_fraction, require_positive

__all__ = ["EnergyAwarePolicy"]


class EnergyAwarePolicy(CpuPolicy):
    """Model-driven placement over frequency domains (EAS at tick scale).

    Args:
        cluster_specs: The platform's frequency domains, in global
            core-id order (the first spec owns core 0, the boot core).
        target_utilization: Headroom factor: the chosen placement must
            carry the measured demand at or below this busy fraction,
            so transient growth does not immediately saturate.
        switch_margin_percent: A placement with a different online mask
            is only adopted when it predicts at least this much cheaper
            CPU power than staying put (hysteresis against thrash).
        min_residency_ticks: Minimum ticks between online-mask changes;
            frequency moves within a placement are never held back.
        burst_threshold_percent: A core busier than this is considered
            saturated -- measured load then under-reports true demand.
        burst_boost: Demand multiplier applied while saturated, so the
            placement search can climb out of a too-small configuration.
    """

    def __init__(
        self,
        cluster_specs: Sequence[ClusterSpec],
        target_utilization: float = 0.8,
        switch_margin_percent: float = 5.0,
        min_residency_ticks: int = 3,
        burst_threshold_percent: float = 95.0,
        burst_boost: float = 1.5,
    ) -> None:
        if not cluster_specs:
            raise ConfigError("EnergyAwarePolicy needs at least one cluster spec")
        require_fraction(target_utilization, "target_utilization")
        if target_utilization <= 0.0:
            raise ConfigError("target_utilization must be positive")
        if switch_margin_percent < 0.0:
            raise ConfigError(
                f"switch_margin_percent must be >= 0, got {switch_margin_percent}"
            )
        if min_residency_ticks < 0:
            raise ConfigError(
                f"min_residency_ticks must be >= 0, got {min_residency_ticks}"
            )
        require_positive(burst_boost, "burst_boost")
        self.name = "energy-aware"
        self.cluster_specs = tuple(cluster_specs)
        self.target_utilization = target_utilization
        self.switch_margin_percent = switch_margin_percent
        self.min_residency_ticks = min_residency_ticks
        self.burst_threshold_percent = burst_threshold_percent
        self.burst_boost = burst_boost
        self._cluster_ids: Tuple[int, ...] = tuple(
            index
            for index, spec in enumerate(self.cluster_specs)
            for _ in range(spec.num_cores)
        )
        self._num_cores = len(self._cluster_ids)
        self._ipc_of_core = tuple(
            self.cluster_specs[index].ipc_scale for index in self._cluster_ids
        )
        # Global core ids per frequency domain, in id order.
        self._members: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(core for core, index in enumerate(self._cluster_ids) if index == domain)
            for domain in range(len(self.cluster_specs))
        )
        self._build_grid()
        self._counts: Optional[Tuple[int, ...]] = None
        self._ticks_since_switch = 0

    def _build_grid(self) -> None:
        """Precompute every (placement, OPP combination) the search prices.

        Row *p* of each ``(placements, combos)`` array is placement
        ``self._placements[p]``; its columns are that placement's OPP
        combinations in ``itertools.product`` order over the active
        domains, padded to the widest row.  A padded column has capacity
        ``-inf``, so it is infeasible at every demand.  An inactive
        domain gets exact ``0.0`` coefficients: adding its ``+0.0``
        terms leaves a cost unchanged, bit for bit.
        """
        # Per domain and OPP: (capacity_ips, frequency_khz, dynamic_mw,
        # static_mw, span_fraction) from the domain's own CpuPowerModel,
        # so a candidate's cost is exactly predict_cpu_mw evaluated inline.
        options = []
        for spec in self.cluster_specs:
            model = CpuPowerModel(spec.power_params, spec.opp_table)
            table = spec.opp_table
            options.append(
                [
                    (
                        spec.ipc_scale * 1000.0 * opp.frequency_khz,
                        opp.frequency_khz,
                        model.dynamic_power_mw(opp),
                        model.static_power_mw(opp),
                        table.span_fraction(opp.frequency_khz),
                    )
                    for opp in (table.by_index(i) for i in range(len(table)))
                ]
            )
        # The first domain owns the boot core, so its count never drops
        # to zero; any other domain may power down entirely.
        self._placements: Tuple[Tuple[int, ...], ...] = tuple(
            itertools.product(
                *(
                    range(1 if index == 0 else 0, spec.num_cores + 1)
                    for index, spec in enumerate(self.cluster_specs)
                )
            )
        )
        rows = []
        for counts in self._placements:
            active = [i for i, count in enumerate(counts) if count > 0]
            rows.append(
                (counts, active, list(itertools.product(*(options[i] for i in active))))
            )
        shape = (len(rows), max(len(combos) for _, _, combos in rows))
        domains = len(self.cluster_specs)
        capacity = np.full(shape, -np.inf)
        count = np.zeros((domains,) + shape)
        dynamic = np.zeros((domains,) + shape)
        static = np.zeros((domains,) + shape)
        overhead = np.zeros((domains,) + shape)
        cache = np.zeros((domains,) + shape)
        frequencies: List[List[Tuple[int, ...]]] = []
        for p, (counts, active, combos) in enumerate(rows):
            row_frequencies = []
            for k, combo in enumerate(combos):
                capacity[p, k] = sum(
                    counts[domain] * option[0] for domain, option in zip(active, combo)
                )
                by_domain = dict(zip(active, combo))
                row_frequencies.append(
                    tuple(
                        by_domain[i][1] if i in by_domain else 0 for i in range(domains)
                    )
                )
                for domain, (_, _, dyn, stat, span) in by_domain.items():
                    params = self.cluster_specs[domain].power_params
                    count[domain, p, k] = counts[domain]
                    dynamic[domain, p, k] = dyn
                    static[domain, p, k] = stat
                    if counts[domain] >= 2:
                        overhead[domain, p, k] = (
                            params.cluster_overhead_base_mw
                            + params.cluster_overhead_span_mw * span
                        )
                    cache[domain, p, k] = params.cache_base_mw + params.cache_span_mw * span
            frequencies.append(row_frequencies)
        # An entry without positive capacity never carries any demand.
        capacity[capacity <= 0.0] = -np.inf
        self._capacity = capacity
        self._terms = tuple(
            (count[d], dynamic[d], static[d], overhead[d], cache[d])
            for d in range(domains)
        )
        self._frequencies = frequencies

    @classmethod
    def for_platform_spec(cls, platform_spec, **kwargs) -> "EnergyAwarePolicy":
        """Build the policy from a :class:`~repro.soc.platform.PlatformSpec`."""
        return cls(platform_spec.cluster_specs(), **kwargs)

    def reset(self) -> None:
        """Forget the held placement (fresh session, fresh hysteresis)."""
        self._counts = None
        self._ticks_since_switch = 0

    # -- demand measurement ----------------------------------------------

    def _demand_ips(self, observation: SystemObservation) -> float:
        """Measured work in IPC-scaled instructions per second.

        Each online core contributes ``load * f * ipc_scale``; a core
        pegged at (nearly) full busy under-reports, so the total is
        boosted while any core is saturated.
        """
        work = 0.0
        saturated = False
        for core_id in range(observation.num_cores):
            if not observation.online_mask[core_id]:
                continue
            load = observation.per_core_load_percent[core_id]
            ipc = self._ipc_of_core[core_id]
            work += (load / 100.0) * observation.frequencies_khz[core_id] * 1000.0 * ipc
            if load >= self.burst_threshold_percent:
                saturated = True
        if saturated:
            work *= self.burst_boost
        return work

    # -- placement search --------------------------------------------------

    def candidates(
        self, demand_ips: float
    ) -> Dict[Tuple[int, ...], Tuple[float, Tuple[int, ...]]]:
        """The cheapest feasible OPP vector of every feasible placement.

        Maps per-domain online counts to ``(predicted_cpu_mw,
        frequencies)``; a placement no OPP combination can carry within
        the headroom target is absent.  Demand is assumed to water-fill
        proportionally to capacity (the scheduler's behaviour), so every
        online core runs at the same busy fraction.  Within a placement
        the first cheapest combination in product order wins.
        """
        required = demand_ips / self.target_utilization
        capacity = self._capacity
        busy = np.minimum(np.maximum(demand_ips / capacity, 0.0), 1.0)
        cost = np.zeros_like(capacity)
        for count, dynamic, static, overhead, cache in self._terms:
            cost += count * (busy * dynamic + static)
            cost += overhead
            cost += busy * cache
        cost[capacity < required] = np.inf
        best = cost.argmin(axis=1)
        found: Dict[Tuple[int, ...], Tuple[float, Tuple[int, ...]]] = {}
        for p, (k, value) in enumerate(zip(best.tolist(), cost.min(axis=1).tolist())):
            if value != np.inf:
                found[self._placements[p]] = (value, self._frequencies[p][k])
        return found

    # -- the policy interface ----------------------------------------------

    def decide(self, observation: SystemObservation) -> PolicyDecision:
        """Pick the cheapest feasible placement for this tick's demand.

        Enumerates per-domain core counts and operating points, prices
        each candidate with the Eq. (1)/(2) model, and keeps the held
        placement unless a rival undercuts it by the switch margin
        after the residency window (infeasibility switches immediately).
        """
        if observation.num_cores != self._num_cores:
            raise ConfigError(
                f"energy-aware policy built for {self._num_cores} cores, "
                f"observed {observation.num_cores}"
            )
        if observation.cluster_ids and tuple(observation.cluster_ids) != self._cluster_ids:
            raise ConfigError(
                f"energy-aware policy built for domains {self._cluster_ids}, "
                f"observed {tuple(observation.cluster_ids)}"
            )
        candidates = self.candidates(self._demand_ips(observation))
        if not candidates:
            # Demand exceeds even everything-at-fmax: saturate the platform.
            counts = tuple(spec.num_cores for spec in self.cluster_specs)
            frequencies = tuple(
                spec.opp_table.max_frequency_khz for spec in self.cluster_specs
            )
            candidates[counts] = (float("inf"), frequencies)

        best_counts = min(
            candidates,
            key=lambda c: (candidates[c][0], sum(c), candidates[c][1]),
        )
        chosen = best_counts
        self._ticks_since_switch += 1
        if self._counts is not None and self._counts != best_counts:
            stay = candidates.get(self._counts)
            margin = 1.0 - self.switch_margin_percent / 100.0
            if stay is not None and (
                self._ticks_since_switch < self.min_residency_ticks
                or candidates[best_counts][0] >= stay[0] * margin
            ):
                chosen = self._counts
        if chosen != self._counts:
            self._ticks_since_switch = 0
            self._counts = chosen

        cost, frequencies = candidates[chosen]
        mask = [False] * observation.num_cores
        targets: List[Optional[float]] = [None] * observation.num_cores
        for domain, count in enumerate(chosen):
            for core_id in self._members[domain][:count]:
                mask[core_id] = True
                targets[core_id] = float(frequencies[domain])
        layout = "+".join(str(count) for count in chosen)
        return PolicyDecision(
            target_frequencies_khz=targets,
            online_mask=mask,
            quota=1.0,
            reason=f"eas:{layout}",
        )
