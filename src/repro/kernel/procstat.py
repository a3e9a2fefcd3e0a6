"""CPU utilization accounting -- the simulation's ``/proc/stat``.

Both default Android mechanisms and MobiCore key off CPU utilization
(section 2.2): per-core busy percentages and their average over cores.
:class:`ProcStat` keeps the per-tick history so policies can also read
the *variation* of utilization between tick t and t-1, which is what
MobiCore's burst/slow-mode detector consumes (section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

from ..errors import MeterError
from ..units import require_percents

__all__ = ["TickUtilization", "ProcStat"]


@dataclass(frozen=True)
class TickUtilization:
    """Utilization snapshot of one tick.

    Attributes:
        tick: Tick index.
        per_core_percent: Busy percentage per core id (0 for offline).
        online_mask: Which cores were online during the tick.
    """

    tick: int
    per_core_percent: Sequence[float]
    online_mask: Sequence[bool]

    @cached_property
    def global_percent(self) -> float:
        """Average utilization over *online* cores (paper section 2.2).

        Computed on first use and kept: the engine, the trace, the
        policy observation and the next tick's delta all read it.
        """
        online = [u for u, on in zip(self.per_core_percent, self.online_mask) if on]
        if not online:
            return 0.0
        return sum(online) / len(online)

    @property
    def online_count(self) -> int:
        """Cores online during the tick."""
        return sum(1 for on in self.online_mask if on)


class ProcStat:
    """Rolling per-tick utilization history."""

    def __init__(self, history_limit: int = 512) -> None:
        if history_limit < 2:
            raise MeterError(f"history_limit must be >= 2, got {history_limit}")
        self.history_limit = history_limit
        self._history: List[TickUtilization] = []

    def record(
        self, tick: int, per_core_percent: Sequence[float], online_mask: Sequence[bool]
    ) -> TickUtilization:
        """Append one tick's utilization, returning the snapshot."""
        if len(per_core_percent) != len(online_mask):
            raise MeterError(
                f"{len(per_core_percent)} utilizations for {len(online_mask)} online flags"
            )
        require_percents(per_core_percent, "per-core utilization")
        snapshot = TickUtilization(
            tick=tick,
            per_core_percent=tuple(per_core_percent),
            online_mask=tuple(online_mask),
        )
        self._history.append(snapshot)
        if len(self._history) > self.history_limit:
            del self._history[: len(self._history) - self.history_limit]
        return snapshot

    @property
    def latest(self) -> Optional[TickUtilization]:
        """Most recent snapshot, or None before the first tick."""
        return self._history[-1] if self._history else None

    @property
    def previous(self) -> Optional[TickUtilization]:
        """Second most recent snapshot, or None."""
        return self._history[-2] if len(self._history) >= 2 else None

    def delta_global_percent(self) -> float:
        """Utilization change between the last two ticks (t minus t-1).

        Zero before two ticks exist.  This is the signal MobiCore's
        bandwidth controller thresholds against (Table 2).
        """
        history = self._history
        if len(history) < 2:
            return 0.0
        return history[-1].global_percent - history[-2].global_percent

    def mean_global_percent(self, last_n: Optional[int] = None) -> float:
        """Mean global utilization over the last *last_n* ticks (or all kept)."""
        if not self._history:
            return 0.0
        window = self._history if last_n is None else self._history[-last_n:]
        return sum(snapshot.global_percent for snapshot in window) / len(window)

    def reset(self) -> None:
        """Drop all history (new session)."""
        self._history.clear()
