"""cpuidle accounting: how long cores sit in each power state.

The paper's section 4.1.2 argues against race-to-idle on per-core-rail
platforms because idle cores still leak 47-120 mW each.  This module
tracks per-core residency in ACTIVE / IDLE / OFFLINE so experiments (and
the race-to-idle ablation bench) can quantify exactly that.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import MeterError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..obs.events import CpuidleEvent
from ..soc.core_state import CoreState
from ..soc.cpu_cluster import CpuCluster
from ..soc.topology import CpuTopology
from ..units import require_positive

from typing import Union

__all__ = ["CpuidleStats"]

#: Slot of each state in a core's residency list.  The tick path indexes
#: plain lists, so recording hashes no enum members.
_ACTIVE, _IDLE, _OFFLINE = range(3)
_SLOT = {CoreState.ACTIVE: _ACTIVE, CoreState.IDLE: _IDLE, CoreState.OFFLINE: _OFFLINE}


class CpuidleStats:
    """Per-core residency accumulator, fed once per tick."""

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise MeterError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self._residency: List[List[float]] = [
            [0.0] * len(_SLOT) for _ in range(num_cores)
        ]
        self._total_seconds = 0.0
        self._last_state: List[Optional[CoreState]] = [None] * num_cores
        self._tp_entry = NULL_TRACEPOINT

    def attach_trace(self, bus: TracepointBus) -> None:
        """Register this subsystem's tracepoints on *bus*."""
        self._tp_entry = bus.tracepoint("cpuidle", "state_entry", CpuidleEvent)

    def record(self, cluster: Union[CpuCluster, CpuTopology], dt_seconds: float) -> None:
        """Accumulate *dt_seconds* of residency from the core set's current states.

        A tick where a core was partially busy splits between ACTIVE and
        IDLE by its busy fraction, matching how cpuidle residency
        counters integrate over a sampling window.
        """
        require_positive(dt_seconds, "dt_seconds")
        if len(cluster) != self.num_cores:
            raise MeterError(
                f"stats sized for {self.num_cores} cores, cluster has {len(cluster)}"
            )
        tp = self._tp_entry
        last_state = self._last_state
        for core in cluster.cores:
            core_id = core.core_id
            buckets = self._residency[core_id]
            if not core.is_online:
                buckets[_OFFLINE] += dt_seconds
                dominant = CoreState.OFFLINE
            else:
                busy = core.busy_fraction
                buckets[_ACTIVE] += dt_seconds * busy
                buckets[_IDLE] += dt_seconds * (1.0 - busy)
                dominant = CoreState.ACTIVE if busy > 0.0 else CoreState.IDLE
            if dominant is not last_state[core_id]:
                last_state[core_id] = dominant
                if tp.enabled:
                    tp.emit(core=core_id, state=dominant.name)
        self._total_seconds += dt_seconds

    @property
    def total_seconds(self) -> float:
        """Accumulated session time."""
        return self._total_seconds

    def residency_seconds(self, core_id: int, state: CoreState) -> float:
        """Seconds core *core_id* spent in *state*."""
        try:
            return self._residency[core_id][_SLOT[state]]
        except IndexError:
            raise MeterError(f"no core {core_id}") from None

    def residency_fraction(self, core_id: int, state: CoreState) -> float:
        """Fraction of the session core *core_id* spent in *state*."""
        if self._total_seconds == 0:
            return 0.0
        return self.residency_seconds(core_id, state) / self._total_seconds

    def fleet_fraction(self, state: CoreState) -> float:
        """Fraction of all core-seconds spent in *state*."""
        if self._total_seconds == 0:
            return 0.0
        slot = _SLOT[state]
        total = sum(buckets[slot] for buckets in self._residency)
        return total / (self._total_seconds * self.num_cores)

    def reset(self) -> None:
        """Zero all counters."""
        for buckets in self._residency:
            buckets[:] = [0.0] * len(_SLOT)
        self._total_seconds = 0.0
        self._last_state = [None] * self.num_cores
