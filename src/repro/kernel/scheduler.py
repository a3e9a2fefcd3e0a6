"""The load-balancing task scheduler.

Section 3.2 of the paper: "the Linux architecture uses a task scheduler
... the default Linux task scheduler is splitting the workload over a
certain number of processes", and section 2.2: the basic principle is "to
fairly allocate the available CPU resources and to balance the workload
among cores".  We reproduce that behaviour with a longest-processing-time
greedy balancer:

* single-thread work goes, whole, to the core with the most remaining
  capacity (a thread can never use more than one core per tick);
* parallel work is divided over online cores proportionally to their
  remaining capacity (water filling);
* work that does not fit carries over as per-task backlog, draining
  first on later ticks; backlog beyond a cap is dropped and counted
  (for games this is the mechanism behind lost frames).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from .runqueue import RunQueue
from .task import Task, TaskDemand, WorkItem
from ..errors import SchedulerError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..obs.events import SchedMigrationEvent
from ..soc.cpu_cluster import CpuCluster
from ..soc.topology import CpuTopology
from ..units import require_fraction, require_positive

from typing import Union

__all__ = ["DispatchResult", "LoadBalancingScheduler"]


@dataclass
class DispatchResult:
    """Outcome of one scheduling tick.

    Attributes:
        busy_cycles: Cycles executed per core (indexed by core id;
            offline cores report 0).
        busy_fractions: Busy cycles over each core's *unthrottled*
            capacity at its current frequency -- the utilization signal
            governors observe.  Under a bandwidth quota q the fraction
            cannot exceed q.
        executed_by_task: Cycles executed per task id, summed over cores.
        backlog_by_task: Cycles still pending per task id after the tick.
        dropped_cycles: Cycles discarded because a task's backlog
            exceeded the cap.
    """

    busy_cycles: List[float]
    busy_fractions: List[float]
    executed_by_task: Dict[int, float]
    backlog_by_task: Dict[int, float]
    dropped_cycles: float

    @property
    def total_executed(self) -> float:
        """All cycles executed this tick."""
        return sum(self.executed_by_task.values())

    @property
    def total_backlog(self) -> float:
        """All cycles still pending after this tick."""
        return sum(self.backlog_by_task.values())


class LoadBalancingScheduler:
    """Greedy balanced dispatch with per-task backlog carry-over.

    Attributes:
        backlog_cap_ticks: A task's backlog is capped at this many ticks
            of one core's fmax capacity; excess demand is dropped (and
            reported), modelling work that is skipped rather than
            deferred forever -- e.g. stale frames.
    """

    def __init__(self, backlog_cap_ticks: float = 5.0) -> None:
        require_positive(backlog_cap_ticks, "backlog_cap_ticks")
        self.backlog_cap_ticks = backlog_cap_ticks
        self._backlog: Dict[int, Tuple[Task, float]] = {}
        self._last_core: Dict[int, int] = {}
        self._tp_migration = NULL_TRACEPOINT

    def attach_trace(self, bus: TracepointBus) -> None:
        """Register this subsystem's tracepoints on *bus*."""
        self._tp_migration = bus.tracepoint(
            "sched", "task_migration", SchedMigrationEvent
        )

    @property
    def backlog(self) -> Dict[int, float]:
        """Pending cycles per task id."""
        return {task_id: cycles for task_id, (_, cycles) in self._backlog.items()}

    @property
    def total_backlog_cycles(self) -> float:
        """All pending cycles."""
        return sum(cycles for _, cycles in self._backlog.values())

    def reset(self) -> None:
        """Drop all backlog (new session)."""
        self._backlog.clear()
        self._last_core.clear()

    def dispatch(
        self,
        demands: Sequence[TaskDemand],
        cluster: Union[CpuCluster, CpuTopology],
        dt_seconds: float,
        quota: float = 1.0,
    ) -> DispatchResult:
        """Distribute this tick's demand (plus backlog) and execute it.

        Accepts a standalone cluster or a whole topology: placement runs
        over global core ids and capacities.  On a heterogeneous
        topology a big core advertises more remaining (IPC-scaled)
        capacity than a little core at the same frequency, so the
        greedy balancer naturally prefers big cores for heavy serial
        tasks and migrates tasks across clusters as capacities shift.
        """
        require_positive(dt_seconds, "dt_seconds")
        require_fraction(quota, "quota")
        online = cluster.online_cores
        if not online:
            raise SchedulerError("cannot dispatch with no online cores")

        items = self._merge_backlog(demands)
        queues = {core.core_id: RunQueue(core.core_id) for core in online}
        # One capacity per core per tick: the quota-limited budget work is
        # placed on and executed against, and the unthrottled capacity
        # busy fractions are measured against (the same number at full
        # quota, where the two expressions are identical).
        capacity = {
            core.core_id: core.capacity_cycles(dt_seconds, quota) for core in online
        }
        if quota == 1.0:
            full_capacity = capacity
        else:
            full_capacity = {
                core.core_id: core.capacity_cycles(dt_seconds, 1.0) for core in online
            }
        remaining = dict(capacity)

        parallel_items = [item for item in items if item.task.parallel]
        serial_items = [
            (item.total_cycles, item) for item in items if not item.task.parallel
        ]

        # Single-thread work first, largest first, to the emptiest core:
        # a thread is bound to one core for the tick.
        serial_items.sort(key=itemgetter(0), reverse=True)
        for cycles, item in serial_items:
            target = max(remaining, key=remaining.__getitem__)
            queues[target].assign(item.task, cycles)
            left = remaining[target] - cycles
            remaining[target] = left if left > 0.0 else 0.0
            task_id = item.task.task_id
            previous = self._last_core.get(task_id)
            if previous is not None and previous != target:
                tp = self._tp_migration
                if tp.enabled:
                    tp.emit(task_id=task_id, from_core=previous, to_core=target)
            self._last_core[task_id] = target

        # Parallel work divides over whatever capacity is left (water fill).
        for item in parallel_items:
            self._assign_parallel(item, queues, remaining)

        num_cores = len(cluster)
        busy_cycles = [0.0] * num_cores
        busy_fractions = [0.0] * num_cores
        executed_by_task: Dict[int, float] = {}
        leftover_by_task: Dict[int, float] = {}
        task_index = {item.task.task_id: item.task for item in items}
        # Executed and leftover cycles are positive, so starting a task's
        # entry at the amount itself is bit-identical to summing from 0.0.
        for core_id, queue in queues.items():
            busy, executed, leftover = queue.execute(capacity[core_id])
            busy_cycles[core_id] = busy
            full = full_capacity[core_id]
            busy_fractions[core_id] = busy / full if full else 0.0
            for task_id, cycles in executed.items():
                if task_id in executed_by_task:
                    executed_by_task[task_id] += cycles
                else:
                    executed_by_task[task_id] = cycles
            for task_id, cycles in leftover.items():
                if task_id in leftover_by_task:
                    leftover_by_task[task_id] += cycles
                else:
                    leftover_by_task[task_id] = cycles

        dropped = self._store_backlog(leftover_by_task, task_index, cluster, dt_seconds)
        return DispatchResult(
            busy_cycles=busy_cycles,
            busy_fractions=busy_fractions,
            executed_by_task=executed_by_task,
            backlog_by_task=self.backlog,
            dropped_cycles=dropped,
        )

    # -- internals -------------------------------------------------------

    def _merge_backlog(self, demands: Sequence[TaskDemand]) -> List[WorkItem]:
        """Combine fresh demand with carried backlog into work items."""
        items: Dict[int, WorkItem] = {}
        for task_id, (task, cycles) in self._backlog.items():
            items[task_id] = WorkItem(task=task, cycles=0.0, from_backlog=cycles)
        for demand in demands:
            existing = items.get(demand.task.task_id)
            if existing is None:
                items[demand.task.task_id] = WorkItem(task=demand.task, cycles=demand.cycles)
            else:
                existing.cycles += demand.cycles
        self._backlog.clear()
        return list(items.values())

    @staticmethod
    def _assign_parallel(
        item: WorkItem, queues: Dict[int, RunQueue], remaining: Dict[int, float]
    ) -> None:
        """Split a divisible item over cores proportionally to free capacity.

        Any residue beyond total free capacity lands on the emptiest core
        so it is accounted as that task's leftover.
        """
        total_free = sum(remaining.values())
        pending = item.total_cycles
        if total_free > 0:
            for core_id in list(remaining):
                share = pending * remaining[core_id] / total_free
                if share > 0:
                    queues[core_id].assign(item.task, share)
                    remaining[core_id] = max(0.0, remaining[core_id] - share)
            pending = 0.0
        if pending > 0 or total_free <= 0:
            overflow = item.total_cycles if total_free <= 0 else pending
            if overflow > 0:
                target = max(remaining, key=remaining.__getitem__)
                queues[target].assign(item.task, overflow)

    def _store_backlog(
        self,
        leftover_by_task: Dict[int, float],
        task_index: Dict[int, Task],
        cluster: Union[CpuCluster, CpuTopology],
        dt_seconds: float,
    ) -> float:
        """Persist leftovers as next-tick backlog, applying the cap.

        The cap is sized against the fastest domain's fmax — one "tick
        of a core" means the strongest core available.
        """
        cap = (
            cluster.max_frequency_khz * 1000.0 * dt_seconds * self.backlog_cap_ticks
        )
        dropped = 0.0
        for task_id, cycles in leftover_by_task.items():
            kept = min(cycles, cap)
            dropped += cycles - kept
            if kept > 0:
                self._backlog[task_id] = (task_index[task_id], kept)
        return dropped
