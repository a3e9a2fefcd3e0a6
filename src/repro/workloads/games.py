"""The five evaluation games as parameterised stochastic workloads.

Section 6 evaluates MobiCore on "5 modern representative games ... Real
Racing 3, Subway Surf, Badland, Angry Birds, and Asphalt 8 (numbered
from 1 to 5) ... designed to run on multicore architecture and ...
multithreaded".

Each game is modelled as:

* one **render thread** feeding a :class:`~repro.workloads.frames.FramePipeline`
  -- single-threaded, so one core's throughput caps FPS (section 5.1's
  reason games sit at 15-20 FPS);
* several **worker threads** (physics, audio, asset streaming) whose
  load follows a mean-reverting (Ornstein-Uhlenbeck-like) process with
  superimposed rectangular bursts -- the "specific dynamicity of games"
  (section 1.3).

Profile parameters are set from the per-game statistics the paper
reports in Figures 10-13 (cores used, frequency gap, load level,
savings): Real Racing 3 is steady and heavy (little headroom, ~0%
savings), Subway Surf is bursty and thread-rich (default burns 3.9
cores; the largest savings), the others sit in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from .base import Workload, WorkloadContext
from .frames import FramePipeline
from ..errors import WorkloadError
from ..kernel.task import Task, TaskDemand
from ..units import clamp, require_fraction, require_positive

__all__ = ["GameProfile", "GameWorkload", "GAME_PROFILES", "game_workload"]


@dataclass(frozen=True)
class GameProfile:
    """Tunable description of one game's demand dynamics.

    Attributes:
        name: Game title.
        frame_cost_cycles: CPU cycles per frame on the render thread;
            sets the FPS ceiling (one core at fmax / frame cost).
        worker_count: Background threads beside the render thread.
        worker_mean_percent: Mean per-worker load, percent of one core
            at fmax.
        worker_theta: Mean-reversion rate of the worker load process.
        worker_sigma: Per-tick noise of the worker load process.
        burst_add_percent: Extra per-worker load during a burst.
        burst_start_prob: Per-tick probability an idle worker bursts.
        mean_burst_ticks: Mean burst length (geometric).
        target_fps: Rendering target (60 for games, section 5.1).
    """

    name: str
    frame_cost_cycles: float
    worker_count: int
    worker_mean_percent: float
    worker_theta: float = 0.15
    worker_sigma: float = 4.0
    burst_add_percent: float = 0.0
    burst_start_prob: float = 0.0
    mean_burst_ticks: int = 8
    target_fps: float = 60.0

    def __post_init__(self) -> None:
        require_positive(self.frame_cost_cycles, "frame_cost_cycles")
        if self.worker_count < 0:
            raise WorkloadError("worker_count must be non-negative")
        if not 0.0 <= self.worker_mean_percent <= 100.0:
            raise WorkloadError("worker_mean_percent must be in [0, 100]")
        require_fraction(self.worker_theta, "worker_theta")
        if self.worker_sigma < 0:
            raise WorkloadError("worker_sigma must be non-negative")
        if self.burst_add_percent < 0:
            raise WorkloadError("burst_add_percent must be non-negative")
        require_fraction(self.burst_start_prob, "burst_start_prob")
        if self.mean_burst_ticks < 1:
            raise WorkloadError("mean_burst_ticks must be >= 1")
        require_positive(self.target_fps, "target_fps")


class GameWorkload(Workload):
    """A game session: render pipeline plus stochastic worker threads."""

    def __init__(self, profile: GameProfile) -> None:
        super().__init__()
        self.profile = profile
        self.name = profile.name
        self.pipeline = FramePipeline(
            frame_cost_cycles=profile.frame_cost_cycles, target_fps=profile.target_fps
        )
        self._render_task: Optional[Task] = None
        self._worker_tasks: List[Task] = []
        self._worker_levels: List[float] = []
        self._worker_bursting: List[bool] = []

    def prepare(self, context: WorkloadContext) -> None:
        super().prepare(context)
        self.pipeline.reset()
        self._render_task = Task(task_id=0, name=f"{self.name}-render", parallel=False)
        self._worker_tasks = [
            Task(task_id=i + 1, name=f"{self.name}-worker{i}", parallel=False)
            for i in range(self.profile.worker_count)
        ]
        self._worker_levels = [
            float(self.profile.worker_mean_percent)
        ] * self.profile.worker_count
        self._worker_bursting = [False] * self.profile.worker_count

    def tasks(self) -> List[Task]:
        return [self._render_task] + list(self._worker_tasks)

    def _advance_worker(self, index: int) -> float:
        """One OU + burst step for a worker; returns its load percent."""
        profile = self.profile
        rng = self.rng
        level = self._worker_levels[index]
        level += profile.worker_theta * (profile.worker_mean_percent - level)
        level += profile.worker_sigma * float(rng.standard_normal())
        level = clamp(level, 0.0, 100.0)
        self._worker_levels[index] = level
        if self._worker_bursting[index]:
            if rng.random() < 1.0 / profile.mean_burst_ticks:
                self._worker_bursting[index] = False
        elif profile.burst_start_prob > 0 and rng.random() < profile.burst_start_prob:
            self._worker_bursting[index] = True
        if self._worker_bursting[index]:
            level = clamp(level + profile.burst_add_percent, 0.0, 100.0)
        return level

    def demand(self, tick: int) -> List[TaskDemand]:
        context = self.context
        dt = context.dt_seconds
        core_cycles = context.core_max_cycles_per_tick
        demands = [
            TaskDemand(task=self._render_task, cycles=self.pipeline.demand_cycles(dt))
        ]
        for index, task in enumerate(self._worker_tasks):
            level = self._advance_worker(index)
            if level > 0:
                demands.append(TaskDemand(task=task, cycles=core_cycles * level / 100.0))
        return demands

    def record_execution(self, tick: int, executed_by_task: Mapping[int, float]) -> None:
        render_cycles = executed_by_task.get(self._render_task.task_id, 0.0)
        self.pipeline.record(render_cycles, self.context.dt_seconds)

    def tick_fps(self) -> Optional[float]:
        return self.pipeline.last_tick_fps

    def metrics(self) -> Dict[str, float]:
        return {
            "mean_fps": self.pipeline.mean_fps,
            "completed_frames": self.pipeline.completed_frames,
        }


#: Nexus-5-scale profiles.  frame_cost sets the FPS ceiling at fmax
#: (2.2656e9 / frame_cost); worker statistics set how many cores the
#: default policy ends up using and how bursty the load is.
GAME_PROFILES: Dict[str, GameProfile] = {
    # Steady, heavy: demand keeps every allocated core busy, so MobiCore
    # finds almost nothing to trim (paper: 0.04% savings, and the only
    # game where its mean frequency ends *higher* than the default's).
    "Real Racing 3": GameProfile(
        name="Real Racing 3",
        frame_cost_cycles=1.05e8,   # ~21.6 FPS ceiling
        worker_count=2,
        worker_mean_percent=80.0,
        worker_theta=0.10,
        worker_sigma=1.5,
        burst_add_percent=0.0,
        burst_start_prob=0.0,
    ),
    # Bursty and thread-rich: the default policy spreads over ~3.9 cores
    # and jumps to fmax on every burst; MobiCore's biggest win (11.7%).
    "Subway Surf": GameProfile(
        name="Subway Surf",
        frame_cost_cycles=1.00e8,   # ~22.7 FPS ceiling
        worker_count=4,
        worker_mean_percent=12.0,
        worker_theta=0.20,
        worker_sigma=6.0,
        burst_add_percent=85.0,
        burst_start_prob=0.06,
        mean_burst_ticks=5,
    ),
    # Light 2D physics game: low, mildly varying load.
    "Badland": GameProfile(
        name="Badland",
        frame_cost_cycles=1.05e8,   # ~21.6 FPS ceiling
        worker_count=3,
        worker_mean_percent=35.0,
        worker_theta=0.15,
        worker_sigma=4.0,
        burst_add_percent=20.0,
        burst_start_prob=0.02,
    ),
    # Event-driven casual game: mostly quiet with sharp spikes.
    "Angry Birds": GameProfile(
        name="Angry Birds",
        frame_cost_cycles=1.10e8,   # ~20.6 FPS ceiling
        worker_count=3,
        worker_mean_percent=40.0,
        worker_theta=0.18,
        worker_sigma=3.0,
        burst_add_percent=25.0,
        burst_start_prob=0.02,
        mean_burst_ticks=5,
    ),
    # Heavy racing game with moderate dynamics.
    "Asphalt 8": GameProfile(
        name="Asphalt 8",
        frame_cost_cycles=1.10e8,   # ~20.6 FPS ceiling
        worker_count=4,
        worker_mean_percent=45.0,
        worker_theta=0.12,
        worker_sigma=4.0,
        burst_add_percent=30.0,
        burst_start_prob=0.02,
    ),
}


def game_workload(name: str) -> GameWorkload:
    """Build the workload for a catalog game by title."""
    try:
        profile = GAME_PROFILES[name]
    except KeyError:
        known = ", ".join(GAME_PROFILES)
        raise WorkloadError(f"unknown game {name!r}; catalog has: {known}") from None
    return GameWorkload(profile)
