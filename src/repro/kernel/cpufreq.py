"""The cpufreq subsystem: how frequency requests become core frequencies.

Policies and governors produce *target* frequencies; this subsystem is
the mechanism that applies them, enforcing (in order):

1. user-imposed per-policy limits (``scaling_min_freq`` /
   ``scaling_max_freq`` in sysfs terms);
2. the thermal cap, when the platform's thermal governor is active;
3. quantisation onto the core's own frequency domain's OPP table;
4. the rail topology -- within a shared-rail frequency domain all online
   cores are forced to the highest requested OPP (no per-core DVFS,
   section 4.1.2).  Domains are independent: a big.LITTLE device runs
   each cluster at its own frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import GovernorError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..obs.events import FreqTransitionEvent
from ..soc.platform import Platform

__all__ = ["FrequencyLimits", "CpufreqSubsystem"]


@dataclass
class FrequencyLimits:
    """User-imposed frequency window for one core (sysfs scaling_min/max)."""

    min_khz: int
    max_khz: int

    def __post_init__(self) -> None:
        if self.min_khz > self.max_khz:
            raise GovernorError(f"min_khz {self.min_khz} > max_khz {self.max_khz}")

    def clamp(self, target_khz: float) -> float:
        """Clamp a raw target into the window."""
        return min(max(target_khz, self.min_khz), self.max_khz)


class CpufreqSubsystem:
    """Applies frequency targets to a platform's cores each tick."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        # Each core's user window spans its own domain's ladder — on a
        # homogeneous platform that is the one global table.
        self._limits: List[FrequencyLimits] = [
            FrequencyLimits(
                core.opp_table.min_frequency_khz, core.opp_table.max_frequency_khz
            )
            for core in platform.topology.cores
        ]
        # The topology never changes, so the domains whose rail is shared
        # (and must be unified after every apply) are resolved once.
        self._shared_rail_clusters = tuple(
            cluster
            for cluster in platform.topology.clusters
            if not platform.domain_allows_per_core_dvfs(cluster.cluster_id)
        )
        self._transition_count = 0
        self._tp_transition = NULL_TRACEPOINT

    def attach_trace(self, bus: TracepointBus) -> None:
        """Register this subsystem's tracepoints on *bus*."""
        self._tp_transition = bus.tracepoint(
            "cpufreq", "frequency_transition", FreqTransitionEvent
        )

    @property
    def transition_count(self) -> int:
        """Number of actual frequency changes applied (DVFS churn metric)."""
        return self._transition_count

    def reset(self) -> None:
        """Zero the transition counter (new session).

        User frequency limits survive a reset, matching real cpufreq:
        sysfs ``scaling_min/max_freq`` settings persist across runs of a
        workload; only the churn accounting is per-session.
        """
        self._transition_count = 0

    def limits(self, core_id: int) -> FrequencyLimits:
        """The user window for one core."""
        try:
            return self._limits[core_id]
        except IndexError:
            raise GovernorError(f"no core {core_id}") from None

    def set_limits(self, core_id: int, min_khz: int, max_khz: int) -> None:
        """Install a user frequency window (both must be OPPs of the core's domain)."""
        table = self.platform.topology.core(core_id).opp_table
        if min_khz not in table or max_khz not in table:
            raise GovernorError(
                f"limits ({min_khz}, {max_khz}) must both be OPP frequencies"
            )
        self._limits[core_id] = FrequencyLimits(min_khz, max_khz)

    def apply(self, targets_khz: Sequence[Optional[float]], round_up: bool = True) -> List[int]:
        """Apply per-core targets, returning the frequencies actually set.

        ``None`` entries leave that core's frequency unchanged.  Offline
        cores accept a setting (it takes effect when they come back) just
        like real cpufreq.  Each target is quantised onto the core's own
        domain's OPP table.  Returns the resulting per-core frequencies.
        """
        topology = self.platform.topology
        if len(targets_khz) != len(topology):
            raise GovernorError(
                f"{len(targets_khz)} targets for {len(topology)} cores"
            )
        thermal_cap = self.platform.thermal.max_allowed_frequency_khz
        limits = self._limits
        for core, target in zip(topology.cores, targets_khz):
            if target is None:
                continue
            table = core.opp_table
            clamped = limits[core.core_id].clamp(target)
            clamped = min(clamped, thermal_cap)
            # The thermal cap may sit below a domain's entire ladder
            # (e.g. a throttled big cluster); floor() would reject such a
            # target, so clamp into the ladder before quantising.
            clamped = max(clamped, table.min_frequency_khz)
            opp = table.ceil(clamped) if round_up else table.floor(clamped)
            frequency = opp.frequency_khz
            if frequency > thermal_cap:
                # Only a capped frequency can fall between table entries.
                frequency = thermal_cap
                if frequency not in table:
                    frequency = table.floor(
                        max(frequency, table.min_frequency_khz)
                    ).frequency_khz
            current = core.frequency_khz
            if frequency != current:
                self._transition_count += 1
                tp = self._tp_transition
                if tp.enabled:
                    tp.emit(
                        core=core.core_id,
                        old_khz=current,
                        new_khz=frequency,
                        governor=tp.bus.ctx_governor,
                        reason=tp.bus.ctx_reason,
                        cluster=topology.cluster_id_of(core.core_id),
                    )
                core.set_frequency(frequency)
        for cluster in self._shared_rail_clusters:
            self._unify_shared_rail(cluster)
        return topology.frequencies_khz

    def _unify_shared_rail(self, cluster) -> None:
        """Force a domain's online cores to its fastest requested OPP (shared rail)."""
        online = cluster.online_cores
        if not online:
            return
        fastest = max(core.frequency_khz for core in online)
        for core in online:
            if core.frequency_khz != fastest:
                self._transition_count += 1
                tp = self._tp_transition
                if tp.enabled:
                    tp.emit(
                        core=core.core_id,
                        old_khz=core.frequency_khz,
                        new_khz=fastest,
                        governor=tp.bus.ctx_governor,
                        reason="shared_rail_unify",
                        cluster=cluster.cluster_id,
                    )
                core.set_frequency(fastest)
