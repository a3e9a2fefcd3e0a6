"""The Android default policy -- the paper's baseline.

Section 2.3: "The default policy of the Android system ... is giving
good results for dynamic and static workload.  But there does not exist
a systematical guidance or even a mechanism for the designer to apply
these two policies at the same time."

Composition, exactly as the paper's experimental setup (sections 2.2 and
3.1): one ``ondemand`` governor instance per core for DVFS, the default
hotplug driver for DCS (with mpdecision disabled so offlining works),
full bandwidth always.  The two mechanisms run side by side but --
deliberately -- never coordinate: that is the gap MobiCore fills.
"""

from __future__ import annotations

from typing import List, Optional

from .base import CpuPolicy, PolicyDecision, SystemObservation
from .hotplug_driver import DefaultHotplugDriver
from ..governors.base import Governor, GovernorInput, create_governor

__all__ = ["AndroidDefaultPolicy"]


class AndroidDefaultPolicy(CpuPolicy):
    """Stock Android: per-core ondemand DVFS + threshold hotplug, uncoordinated.

    Args:
        governor_name: Which stock governor drives DVFS ("ondemand" by
            default; the paper's baseline).
        hotplug: The DCS driver; ``None`` builds the default one.
        enable_hotplug: With False the policy is DVFS-only (all cores
            stay online), matching a device where mpdecision is enabled.
    """

    def __init__(
        self,
        governor_name: str = "ondemand",
        hotplug: Optional[DefaultHotplugDriver] = None,
        enable_hotplug: bool = True,
        num_cores: int = 4,
        nohz_idle_threshold: float = 0.5,
    ) -> None:
        self.name = f"android-default({governor_name})"
        self.governor_name = governor_name
        self.enable_hotplug = enable_hotplug
        self.hotplug = hotplug if hotplug is not None else DefaultHotplugDriver()
        # NOHZ realism: a core with (essentially) no runnable work takes
        # no governor samples -- it parks at whatever OPP (and voltage)
        # its last burst left it at, leaking accordingly.  This is the
        # waste MobiCore's off-lining removes (section 4.1.2's 47-120 mW
        # idle leakage measurements are exactly such parked cores).
        self.nohz_idle_threshold = nohz_idle_threshold
        self._governors: List[Governor] = [
            create_governor(governor_name) for _ in range(num_cores)
        ]

    def reset(self) -> None:
        self.hotplug.reset()
        for governor in self._governors:
            governor.reset()

    def _ensure_governors(self, num_cores: int) -> None:
        """Grow the per-core governor list if the platform is larger."""
        while len(self._governors) < num_cores:
            self._governors.append(create_governor(self.governor_name))

    def decide(self, observation: SystemObservation) -> PolicyDecision:
        num_cores = observation.num_cores
        online_count = observation.online_count
        self._ensure_governors(num_cores)
        # DVFS: each online core's governor picks its next OPP.
        loads = observation.per_core_load_percent
        frequencies = observation.frequencies_khz
        tables = observation.core_opp_tables
        targets: List[Optional[float]] = []
        governor_reason: Optional[str] = None
        for core_id, online in enumerate(observation.online_mask):
            if not online:
                targets.append(None)
                continue
            if loads[core_id] < self.nohz_idle_threshold:
                # Tickless idle: no sample, frequency (and voltage) hold.
                targets.append(None)
                continue
            governor = self._governors[core_id]
            selected = governor.select(
                GovernorInput(
                    load_percent=loads[core_id],
                    current_khz=frequencies[core_id],
                    opp_table=tables[core_id],
                    dt_seconds=observation.dt_seconds,
                )
            )
            if governor.last_reason is not None:
                governor_reason = f"{self.governor_name}:{governor.last_reason}"
            targets.append(float(selected))
        # DCS: the hotplug driver adjusts the core count off the
        # fmax-normalised load, independently of the governor
        # (section 2.3: "neither unified nor coordinated").
        mask = None
        reason = governor_reason
        if self.enable_hotplug:
            count = self.hotplug.target_count(
                observation.total_scaled_load_percent,
                online_count,
                num_cores,
            )
            mask = [core_id < count for core_id in range(num_cores)]
            if count != online_count:
                reason = f"hotplug:{count - online_count:+d}"
            # A newly onlined core starts at the frequency its governor
            # last chose; give it the current maximum target so it can
            # absorb the load that triggered the online.
            if count > online_count:
                for core_id in range(num_cores):
                    if mask[core_id] and not observation.online_mask[core_id]:
                        targets[core_id] = float(
                            max(t for t in targets if t is not None)
                            if any(t is not None for t in targets)
                            else observation.opp_table.max_frequency_khz
                        )
        return PolicyDecision(
            target_frequencies_khz=targets,
            online_mask=mask,
            quota=1.0,
            reason=reason,
        )
