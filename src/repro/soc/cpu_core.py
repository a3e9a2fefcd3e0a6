"""A single CPU core: state machine plus per-tick busy accounting.

A core owns its power state (section 2.1), its current OPP, and the busy
fraction it recorded during the last tick.  Per-core DVFS is legal on the
Nexus 5 because each core has an independent supply (section 4.1.2), so
frequency lives here rather than on the cluster.
"""

from __future__ import annotations

from .core_state import CoreState, require_transition
from .opp import Opp, OppTable
from ..errors import CoreStateError, OppError
from ..units import require_fraction

__all__ = ["CpuCore"]


class CpuCore:
    """One CPU core with independent DVFS and hotplug state.

    Attributes:
        core_id: Stable 0-based *global* identifier (numbered across all
            clusters of the topology); core 0 is the boot core and can
            never be offlined (Linux invariant).
        opp_table: The DVFS table shared by all cores of the cluster.
        ipc_scale: Work retired per cycle relative to the reference core
            type — 1.0 for a big/homogeneous core, < 1.0 for a little
            in-order core.  Scales :meth:`capacity_cycles`.
    """

    def __init__(self, core_id: int, opp_table: OppTable, ipc_scale: float = 1.0) -> None:
        if core_id < 0:
            raise CoreStateError(f"core_id must be non-negative, got {core_id}")
        if ipc_scale <= 0.0:
            raise CoreStateError(f"ipc_scale must be positive, got {ipc_scale}")
        self.core_id = core_id
        self.opp_table = opp_table
        self.ipc_scale = ipc_scale
        self._state = CoreState.IDLE
        # The three values every tick reads are plain attributes, so hot
        # loops read them without a property call.  They are read-only by
        # contract: only this class's methods write them.
        #: True when the scheduler may place work here (ACTIVE or IDLE);
        #: kept in step with the state by :meth:`set_state`, the only
        #: place a core enters or leaves OFFLINE.
        self.is_online = True
        #: Current OPP frequency in kHz (written by :meth:`set_frequency`
        #: and :meth:`set_target_frequency`, which keep it a table entry).
        self.frequency_khz = opp_table.min_frequency_khz
        #: Fraction of the last tick this core spent executing (0-1),
        #: written by :meth:`account` (and zeroed when offlined).
        self.busy_fraction = 0.0
        self._transition_count = 0

    def __repr__(self) -> str:
        return (
            f"CpuCore(id={self.core_id}, state={self._state.value}, "
            f"freq={self.frequency_khz} kHz, busy={self.busy_fraction:.2f})"
        )

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> CoreState:
        """Current power state."""
        return self._state

    @property
    def transition_count(self) -> int:
        """Number of distinct-state transitions performed (hotplug churn metric)."""
        return self._transition_count

    def reset_transition_count(self) -> None:
        """Zero the churn counter (new session accounting epoch)."""
        self._transition_count = 0

    def set_state(self, new_state: CoreState) -> float:
        """Transition to *new_state*, returning the transition latency in seconds.

        Raises :class:`~repro.errors.CoreStateError` on an illegal
        transition or when offlining the boot core.
        """
        if new_state is CoreState.OFFLINE and self.core_id == 0:
            raise CoreStateError("core 0 is the boot core and cannot be offlined")
        latency = require_transition(self._state, new_state)
        if new_state is not self._state:
            self._transition_count += 1
        self._state = new_state
        self.is_online = new_state is not CoreState.OFFLINE
        if new_state is CoreState.OFFLINE:
            self.busy_fraction = 0.0
        return latency

    # -- frequency -----------------------------------------------------

    @property
    def max_frequency_khz(self) -> int:
        """This core's own fmax — the top of its cluster's OPP ladder."""
        return self.opp_table.max_frequency_khz

    @property
    def opp(self) -> Opp:
        """Current OPP (frequency and voltage)."""
        return self.opp_table.at(self.frequency_khz)

    @property
    def voltage(self) -> float:
        """Current supply voltage in volts."""
        return self.opp.voltage

    def set_frequency(self, frequency_khz: int) -> None:
        """Set the core to an exact OPP frequency.

        The frequency must be a table entry; governors are expected to
        have quantised their target with ``floor``/``ceil`` already.
        """
        if frequency_khz not in self.opp_table:
            raise OppError(
                f"core {self.core_id}: {frequency_khz} kHz is not an OPP of {self.opp_table!r}"
            )
        self.frequency_khz = frequency_khz

    def set_target_frequency(self, target_khz: float, round_up: bool = True) -> int:
        """Quantise *target_khz* onto the OPP table and apply it.

        ``round_up=True`` (the default) picks the lowest OPP meeting the
        target, matching MobiCore's "round up to guarantee throughput"
        rule; ``round_up=False`` picks the highest OPP not above it.
        Returns the frequency actually set.
        """
        opp = self.opp_table.ceil(target_khz) if round_up else self.opp_table.floor(target_khz)
        self.frequency_khz = opp.frequency_khz
        return opp.frequency_khz

    # -- per-tick accounting --------------------------------------------

    def capacity_cycles(self, dt_seconds: float, quota: float = 1.0) -> float:
        """Reference cycles this core can retire in *dt_seconds* under a quota.

        An offline core has zero capacity.  Capacity is expressed in
        *reference* cycles — the raw cycle budget scaled by
        ``ipc_scale`` — so demands sized against a big core compare
        directly across heterogeneous clusters.  Multiplying by an
        ``ipc_scale`` of exactly 1.0 is a bit-exact no-op in IEEE-754,
        preserving the homogeneous parity contract.
        """
        require_fraction(quota, "quota")
        if not self.is_online:
            return 0.0
        return self.frequency_khz * 1000.0 * dt_seconds * quota * self.ipc_scale

    def account(self, busy_fraction: float) -> None:
        """Record the busy fraction for the tick and update ACTIVE/IDLE state.

        An online core with work becomes ACTIVE; one with none becomes
        IDLE (cpuidle entry).  Offline cores must be given zero work.
        """
        require_fraction(busy_fraction, "busy_fraction")
        if not self.is_online:
            if busy_fraction > 0.0:
                raise CoreStateError(
                    f"core {self.core_id} is offline but was accounted busy={busy_fraction}"
                )
            self.busy_fraction = 0.0
            return
        self.busy_fraction = busy_fraction
        self._state = CoreState.ACTIVE if busy_fraction > 0.0 else CoreState.IDLE
