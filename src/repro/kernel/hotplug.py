"""The hotplug subsystem (DCS mechanism) and the mpdecision veto.

Section 2.2.2: "Hotplug enables the kernel to dynamically activate more
or less hardware components ... mpdecision is a service which protects
the phone from turning off cores.  In order to be able to activate that
feature, we need to inactivate the mpdecision service."

This module is the *mechanism*: it applies online masks to the cluster,
enforces the veto while mpdecision is enabled, and accounts transition
latency and churn.  Hotplug *drivers* (the decision logic) live in
:mod:`repro.policies`.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ..errors import HotplugError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..soc.cpu_cluster import CpuCluster
from ..soc.topology import CpuTopology
from ..obs.events import HotplugEvent, HotplugFailureEvent, MpdecisionVetoEvent

__all__ = ["HotplugSubsystem"]


class HotplugSubsystem:
    """Applies online-mask requests to a core set, honouring mpdecision.

    Operates on either a standalone :class:`CpuCluster` or a whole
    :class:`CpuTopology` — both expose the same mask interface over
    global core ids, so heterogeneous devices hotplug through the exact
    code path homogeneous ones do.
    """

    def __init__(
        self,
        cluster: Union[CpuCluster, CpuTopology],
        mpdecision_enabled: bool = True,
    ) -> None:
        self.cluster = cluster
        self._mpdecision_enabled = mpdecision_enabled
        self._failing_requests = False
        self._failed_requests = 0
        self._transition_latency_seconds = 0.0
        self._vetoed_offline_requests = 0
        self._tp_state = NULL_TRACEPOINT
        self._tp_veto = NULL_TRACEPOINT
        self._tp_failed = NULL_TRACEPOINT

    def attach_trace(self, bus: TracepointBus) -> None:
        """Register this subsystem's tracepoints on *bus*."""
        self._tp_state = bus.tracepoint("hotplug", "core_state", HotplugEvent)
        self._tp_veto = bus.tracepoint("hotplug", "mpdecision_veto", MpdecisionVetoEvent)
        self._tp_failed = bus.tracepoint(
            "hotplug", "request_failed", HotplugFailureEvent
        )

    @property
    def mpdecision_enabled(self) -> bool:
        """True while the stock mpdecision service blocks offlining."""
        return self._mpdecision_enabled

    def set_mpdecision(self, enabled: bool) -> None:
        """Enable or disable mpdecision (the paper disables it via adb shell)."""
        self._mpdecision_enabled = enabled

    @property
    def failing_requests(self) -> bool:
        """True while injected hotplug failure drops every mask request."""
        return self._failing_requests

    def set_request_failure(self, failing: bool) -> None:
        """Arm or disarm injected hotplug failure (the chaos hook).

        While armed, :meth:`apply_mask` discards requests wholesale and
        the cluster keeps its current state — a wedged hotplug notifier
        chain, not an error: callers see the unchanged effective mask.
        """
        self._failing_requests = bool(failing)

    @property
    def failed_requests(self) -> int:
        """Mask requests dropped by injected failure since the last reset."""
        return self._failed_requests

    @property
    def transition_latency_seconds(self) -> float:
        """Accumulated hotplug transition latency (hotplug churn cost)."""
        return self._transition_latency_seconds

    @property
    def vetoed_offline_requests(self) -> int:
        """Offline requests swallowed by mpdecision."""
        return self._vetoed_offline_requests

    @property
    def transition_count(self) -> int:
        """Total core state transitions performed on the cluster."""
        return sum(core.transition_count for core in self.cluster.cores)

    def apply_mask(self, mask: Sequence[bool]) -> List[bool]:
        """Request an online mask; returns the mask actually in effect.

        While mpdecision is enabled, offline requests are vetoed: cores
        currently online stay online (onlining more is always allowed).
        """
        if len(mask) != len(self.cluster):
            raise HotplugError(
                f"mask has {len(mask)} entries for {len(self.cluster)} cores"
            )
        if self._failing_requests:
            current = self.cluster.online_mask
            changes = sum(1 for want, have in zip(mask, current) if want != have)
            if changes:
                self._failed_requests += 1
                tp = self._tp_failed
                if tp.enabled:
                    tp.emit(requested_changes=changes)
            return list(current)
        effective = list(mask)
        if self._mpdecision_enabled:
            for core in self.cluster.cores:
                if core.is_online and not effective[core.core_id]:
                    effective[core.core_id] = True
                    self._vetoed_offline_requests += 1
                    tp = self._tp_veto
                    if tp.enabled:
                        tp.emit(core=core.core_id)
        tp = self._tp_state
        # The pre-change mask only feeds the per-core state events.
        before = self.cluster.online_mask if tp.enabled else None
        self._transition_latency_seconds += self.cluster.set_online_mask(effective)
        after = self.cluster.online_mask
        if tp.enabled:
            for core_id, (was, now) in enumerate(zip(before, after)):
                if was != now:
                    tp.emit(
                        core=core_id,
                        online=now,
                        util_percent=tp.bus.ctx_util_percent,
                        cluster=self.cluster.cluster_id_of(core_id),
                    )
        return after

    def apply_count(self, count: int) -> List[bool]:
        """Request exactly *count* online cores (lowest ids first)."""
        if not 1 <= count <= len(self.cluster):
            raise HotplugError(
                f"online count must be in 1..{len(self.cluster)}, got {count}"
            )
        mask = [i < count for i in range(len(self.cluster))]
        return self.apply_mask(mask)

    def reset(self) -> None:
        """Zero accounting, including per-core transition counters.

        Cluster *state* (online mask, frequencies) is reset separately via
        :meth:`~repro.soc.cpu_cluster.CpuCluster.reset`; call that first so
        the boot-state transitions it performs are not counted against the
        new session.
        """
        self._transition_latency_seconds = 0.0
        self._vetoed_offline_requests = 0
        self._failing_requests = False
        self._failed_requests = 0
        for core in self.cluster.cores:
            core.reset_transition_count()
