"""Per-core runqueue: assigned work and execution accounting for one tick.

A runqueue holds the cycles assigned to one core during the current tick
and executes them against the core's capacity.  The scheduler owns the
assignment; the runqueue owns the arithmetic of "how much actually ran".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .task import Task
from ..errors import SchedulerError
from ..units import require_non_negative

__all__ = ["RunQueue"]


class RunQueue:
    """Work assigned to one core for the current tick."""

    def __init__(self, core_id: int) -> None:
        if core_id < 0:
            raise SchedulerError(f"core_id must be non-negative, got {core_id}")
        self.core_id = core_id
        self._assignments: List[Tuple[Task, float]] = []

    def __repr__(self) -> str:
        return f"RunQueue(core={self.core_id}, assigned={self.assigned_cycles:.0f} cycles)"

    @property
    def assigned_cycles(self) -> float:
        """Total cycles currently assigned for the tick."""
        return sum(cycles for _, cycles in self._assignments)

    @property
    def assignments(self) -> List[Tuple[Task, float]]:
        """(task, cycles) pairs assigned this tick, in assignment order."""
        return list(self._assignments)

    def assign(self, task: Task, cycles: float) -> None:
        """Add *cycles* of *task* to this core's tick."""
        require_non_negative(cycles, "cycles")
        if cycles == 0:
            return
        self._assignments.append((task, cycles))

    def execute(self, capacity_cycles: float) -> Tuple[float, Dict[int, float], Dict[int, float]]:
        """Run the tick against *capacity_cycles* of core capacity.

        Work executes in assignment order (earlier assignments are the
        carried backlog, so old work drains first).  Returns
        ``(busy_cycles, executed_by_task, leftover_by_task)``.
        """
        require_non_negative(capacity_cycles, "capacity_cycles")
        remaining = capacity_cycles
        executed: Dict[int, float] = {}
        leftover: Dict[int, float] = {}
        # Only positive amounts are stored, so starting a task's entry at
        # the amount itself is bit-identical to accumulating from 0.0.
        for task, cycles in self._assignments:
            ran = min(cycles, remaining)
            remaining -= ran
            task_id = task.task_id
            if ran > 0:
                if task_id in executed:
                    executed[task_id] += ran
                else:
                    executed[task_id] = ran
            rest = cycles - ran
            if rest > 0:
                if task_id in leftover:
                    leftover[task_id] += rest
                else:
                    leftover[task_id] = rest
        busy = capacity_cycles - remaining
        return busy, executed, leftover

    def clear(self) -> None:
        """Drop all assignments (start of a new tick)."""
        self._assignments.clear()
