"""A homogeneous CPU cluster: the set of identical cores the policies manage.

The paper restricts itself to "a simple multicore architecture (embedding
same type of cores)" (section 3.4), i.e. one homogeneous cluster -- the
Nexus 5's four Krait 400 cores.  The cluster tracks the online mask,
applies hotplug requests, and offers the aggregate views (global
utilization, total capacity) that both the default Android policy and
MobiCore consume.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .core_state import CoreState
from .cpu_core import CpuCore
from .opp import OppTable
from ..errors import HotplugError
from ..units import require_fraction

__all__ = ["CpuCluster"]


class CpuCluster:
    """A group of identical cores sharing one OPP table.

    Per-core DVFS is allowed (each core has an independent rail on the
    Nexus 5); global DVFS is available through :meth:`set_all_frequencies`
    for platforms with a shared rail.

    A cluster may be one frequency domain of a larger
    :class:`~repro.soc.topology.CpuTopology`: its cores then carry
    *global* ids starting at ``first_core_id``, and ``cluster_id`` /
    ``name`` identify the domain in trace events and policy views.  The
    defaults reproduce the original standalone single-cluster behaviour
    exactly.
    """

    def __init__(
        self,
        num_cores: int,
        opp_table: OppTable,
        first_core_id: int = 0,
        cluster_id: int = 0,
        name: str = "cpu",
        ipc_scale: float = 1.0,
    ) -> None:
        if num_cores < 1:
            raise HotplugError(f"a cluster needs at least one core, got {num_cores}")
        if first_core_id < 0:
            raise HotplugError(f"first_core_id must be non-negative, got {first_core_id}")
        self.opp_table = opp_table
        self.first_core_id = first_core_id
        self.cluster_id = cluster_id
        self.name = name
        self.ipc_scale = ipc_scale
        self._cores: Tuple[CpuCore, ...] = tuple(
            CpuCore(first_core_id + i, opp_table, ipc_scale=ipc_scale)
            for i in range(num_cores)
        )

    def __len__(self) -> int:
        return len(self._cores)

    def __iter__(self):
        return iter(self._cores)

    def __repr__(self) -> str:
        return f"CpuCluster({len(self._cores)} cores, {self.online_count} online)"

    @property
    def cores(self) -> Sequence[CpuCore]:
        """All cores, ordered by (global) core id."""
        return self._cores

    @property
    def max_frequency_khz(self) -> int:
        """This domain's fmax (top of its OPP ladder)."""
        return self.opp_table.max_frequency_khz

    @property
    def contains_boot_core(self) -> bool:
        """True when global core 0 — the unpluggable boot core — lives here."""
        return self.first_core_id == 0

    def cluster_id_of(self, core_id: int) -> int:
        """The frequency-domain index of *core_id* (this cluster's own id).

        Mirrors :meth:`~repro.soc.topology.CpuTopology.cluster_id_of` so
        kernel subsystems can address a standalone cluster and a full
        topology uniformly.
        """
        self.core(core_id)
        return self.cluster_id

    def core(self, core_id: int) -> CpuCore:
        """Return the core with *global* id *core_id*."""
        index = core_id - self.first_core_id
        if not 0 <= index < len(self._cores):
            raise HotplugError(
                f"no core {core_id} in cluster {self.name!r} "
                f"(cores {self.first_core_id}.."
                f"{self.first_core_id + len(self._cores) - 1})"
            )
        return self._cores[index]

    # -- online mask -----------------------------------------------------

    @property
    def online_cores(self) -> List[CpuCore]:
        """Cores currently available to the scheduler."""
        return [c for c in self._cores if c.is_online]

    @property
    def online_count(self) -> int:
        """Number of online cores."""
        return sum(1 for c in self._cores if c.is_online)

    @property
    def online_mask(self) -> List[bool]:
        """Per-core online flags, indexed by core id."""
        return [c.is_online for c in self._cores]

    def set_online_mask(self, mask: Sequence[bool]) -> float:
        """Apply a full online/offline mask, returning total transition latency.

        The mask must keep core 0 online and have one entry per core.
        Offlined cores lose their work; the scheduler redistributes on the
        next tick.
        """
        if len(mask) != len(self._cores):
            raise HotplugError(
                f"mask has {len(mask)} entries for a {len(self._cores)}-core cluster"
            )
        if self.contains_boot_core:
            if not mask[0]:
                raise HotplugError("core 0 is the boot core and cannot be offlined")
            if not any(mask):
                raise HotplugError("at least one core must stay online")
        latency = 0.0
        for core, online in zip(self._cores, mask):
            if online and not core.is_online:
                latency += core.set_state(CoreState.IDLE)
            elif not online and core.is_online:
                latency += core.set_state(CoreState.OFFLINE)
        return latency

    def set_online_count(self, count: int) -> float:
        """Online exactly *count* cores (lowest ids first), offline the rest.

        Matches the default hotplug driver's behaviour of plugging cores
        in id order.  Returns total transition latency.
        """
        floor = 1 if self.contains_boot_core else 0
        if not floor <= count <= len(self._cores):
            raise HotplugError(
                f"online count must be in {floor}..{len(self._cores)}, got {count}"
            )
        mask = [i < count for i in range(len(self._cores))]
        return self.set_online_mask(mask)

    # -- frequency -------------------------------------------------------

    @property
    def frequencies_khz(self) -> List[int]:
        """Per-core current frequencies, indexed by core id."""
        return [c.frequency_khz for c in self._cores]

    def set_all_frequencies(self, frequency_khz: int) -> None:
        """Global DVFS: set every core (online or not) to one OPP."""
        for core in self._cores:
            core.set_frequency(frequency_khz)

    def mean_online_frequency_khz(self) -> float:
        """Average frequency over online cores (Figure 12 metric)."""
        online = self.online_cores
        if not online:
            return 0.0
        return sum(c.frequency_khz for c in online) / len(online)

    # -- aggregate views ---------------------------------------------------

    def total_capacity_cycles(self, dt_seconds: float, quota: float = 1.0) -> float:
        """Cycles the whole cluster can execute in one tick under *quota*."""
        require_fraction(quota, "quota")
        return sum(c.capacity_cycles(dt_seconds, quota) for c in self._cores)

    def max_capacity_cycles(self, dt_seconds: float) -> float:
        """Reference cycles with all cores online at fmax (IPC-scaled).

        This is the denominator of the paper's "global CPU load": 100%
        global load needs every core active at its highest frequency
        (section 3.4).  The trailing ``ipc_scale`` factor converts raw
        cycles into reference-core work; it is exactly 1.0 on
        homogeneous platforms, where ``x * 1.0`` is an IEEE-754 no-op.
        """
        fmax_hz = self.opp_table.max_frequency_khz * 1000.0
        return fmax_hz * dt_seconds * len(self._cores) * self.ipc_scale

    def global_utilization_percent(self) -> float:
        """Average busy percentage over online cores (section 2.2 definition).

        "For the multi-core scenario, the overall CPU utilization is
        defined as the average of the utilizations over all the CPU
        cores."
        """
        online = self.online_cores
        if not online:
            return 0.0
        return 100.0 * sum(c.busy_fraction for c in online) / len(online)

    def per_core_utilization_percent(self) -> Dict[int, float]:
        """Busy percentage per core id (offline cores report 0)."""
        return {c.core_id: 100.0 * c.busy_fraction for c in self._cores}

    def reset(self) -> None:
        """Return the cluster to boot state: all cores online, idle, at fmin."""
        for core in self._cores:
            if not core.is_online:
                core.set_state(CoreState.IDLE)
            core.set_frequency(self.opp_table.min_frequency_khz)
            core.account(0.0)
