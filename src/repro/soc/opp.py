"""Operating performance points: the (frequency, voltage) table of a CPU.

DVFS works on a discrete table of legal (frequency, voltage) pairs -- the
OPP table.  The Nexus 5's Krait 400 exposes 14 points between 300 MHz /
0.9 V and 2265.6 MHz / 1.2 V (paper Table 1).  Governors never pick an
arbitrary frequency; they pick a table entry, so this module provides the
floor/ceil/step lookups every governor needs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..errors import OppError
from ..units import require_positive

__all__ = ["Opp", "OppTable"]


@dataclass(frozen=True, order=True)
class Opp:
    """One operating performance point.

    Attributes:
        frequency_khz: Core clock in kHz (canonical frequency unit).
        voltage: Supply voltage in volts required to sustain the frequency.
    """

    frequency_khz: int
    voltage: float

    def __post_init__(self) -> None:
        require_positive(self.frequency_khz, "frequency_khz")
        require_positive(self.voltage, "voltage")

    @property
    def frequency_ghz(self) -> float:
        """Frequency in GHz, for power-model arithmetic."""
        return self.frequency_khz / 1_000_000.0


class OppTable:
    """An immutable, sorted table of operating performance points.

    The table enforces the physical DVFS invariant that voltage is
    non-decreasing in frequency and provides the lookups governors use:
    ``floor`` (highest OPP not above a target), ``ceil`` (lowest OPP not
    below a target), and single-step moves.
    """

    def __init__(self, opps: Sequence[Opp]) -> None:
        if not opps:
            raise OppError("an OPP table needs at least one operating point")
        ordered = sorted(opps, key=lambda p: p.frequency_khz)
        frequencies = [p.frequency_khz for p in ordered]
        if len(set(frequencies)) != len(frequencies):
            raise OppError(f"duplicate frequencies in OPP table: {frequencies}")
        for lower, upper in zip(ordered, ordered[1:]):
            if upper.voltage < lower.voltage:
                raise OppError(
                    "voltage must be non-decreasing in frequency: "
                    f"{lower.frequency_khz} kHz @ {lower.voltage} V then "
                    f"{upper.frequency_khz} kHz @ {upper.voltage} V"
                )
        self._opps: Tuple[Opp, ...] = tuple(ordered)
        self._frequencies: Tuple[int, ...] = tuple(frequencies)
        self._index = {freq: i for i, freq in enumerate(frequencies)}

    @classmethod
    def linear(
        cls,
        frequencies_khz: Sequence[int],
        min_voltage: float,
        max_voltage: float,
    ) -> "OppTable":
        """Build a table with voltage linearly interpolated over frequency.

        This mirrors how the thesis characterises the Nexus 5: 14 known
        frequencies with voltage ranging 0.9 V at the bottom to 1.2 V at
        the top (Table 1).
        """
        if not frequencies_khz:
            raise OppError("frequencies_khz must not be empty")
        require_positive(min_voltage, "min_voltage")
        require_positive(max_voltage, "max_voltage")
        if max_voltage < min_voltage:
            raise OppError(f"max_voltage {max_voltage} < min_voltage {min_voltage}")
        ordered = sorted(frequencies_khz)
        low, high = ordered[0], ordered[-1]
        span = high - low
        opps = []
        for freq in ordered:
            if span == 0:
                voltage = min_voltage
            else:
                voltage = min_voltage + (max_voltage - min_voltage) * (freq - low) / span
            opps.append(Opp(frequency_khz=freq, voltage=voltage))
        return cls(opps)

    def __len__(self) -> int:
        return len(self._opps)

    def __iter__(self) -> Iterator[Opp]:
        return iter(self._opps)

    def __contains__(self, frequency_khz: int) -> bool:
        return frequency_khz in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OppTable):
            return NotImplemented
        return self._opps == other._opps

    def __hash__(self) -> int:
        return hash(self._opps)

    def __repr__(self) -> str:
        lo, hi = self.min_frequency_khz, self.max_frequency_khz
        return f"OppTable({len(self)} points, {lo} kHz - {hi} kHz)"

    @property
    def frequencies_khz(self) -> Tuple[int, ...]:
        """All frequencies in ascending order."""
        return self._frequencies

    @property
    def min_frequency_khz(self) -> int:
        """Lowest available frequency."""
        return self._frequencies[0]

    @property
    def max_frequency_khz(self) -> int:
        """Highest available frequency."""
        return self._frequencies[-1]

    @property
    def min(self) -> Opp:
        """Lowest OPP."""
        return self._opps[0]

    @property
    def max(self) -> Opp:
        """Highest OPP."""
        return self._opps[-1]

    def at(self, frequency_khz: int) -> Opp:
        """Return the OPP at exactly *frequency_khz*; raise if absent."""
        try:
            return self._opps[self._index[frequency_khz]]
        except KeyError:
            raise OppError(f"no OPP at {frequency_khz} kHz in {self!r}") from None

    def index_of(self, frequency_khz: int) -> int:
        """Return the 0-based index of an exact table frequency."""
        try:
            return self._index[frequency_khz]
        except KeyError:
            raise OppError(f"no OPP at {frequency_khz} kHz in {self!r}") from None

    def by_index(self, index: int) -> Opp:
        """Return the OPP at a table index (negative indices allowed)."""
        try:
            return self._opps[index]
        except IndexError:
            raise OppError(f"OPP index {index} out of range 0..{len(self) - 1}") from None

    def voltage_for(self, frequency_khz: int) -> float:
        """Voltage of the exact table entry at *frequency_khz*."""
        return self.at(frequency_khz).voltage

    def floor(self, target_khz: float) -> Opp:
        """Highest OPP whose frequency does not exceed *target_khz*.

        Targets below the table minimum clamp to the minimum OPP -- a
        governor asking for less than fmin still gets fmin, as in cpufreq.
        """
        # ``not >=`` (rather than ``<``) also sends a NaN target here.
        if not target_khz >= self._frequencies[0]:
            return self._opps[0]
        return self._opps[bisect_right(self._frequencies, target_khz) - 1]

    def ceil(self, target_khz: float) -> Opp:
        """Lowest OPP whose frequency is at least *target_khz*.

        Targets above the table maximum clamp to the maximum OPP.
        """
        # ``not <=`` (rather than ``>``) also sends a NaN target here.
        if not target_khz <= self._frequencies[-1]:
            return self._opps[-1]
        return self._opps[bisect_left(self._frequencies, target_khz)]

    def step_up(self, frequency_khz: int, steps: int = 1) -> Opp:
        """Move *steps* table entries up from an exact frequency (clamped)."""
        index = self.index_of(frequency_khz)
        return self._opps[min(index + steps, len(self) - 1)]

    def step_down(self, frequency_khz: int, steps: int = 1) -> Opp:
        """Move *steps* table entries down from an exact frequency (clamped)."""
        index = self.index_of(frequency_khz)
        return self._opps[max(index - steps, 0)]

    def span_fraction(self, frequency_khz: int) -> float:
        """Position of a frequency within [fmin, fmax] as a 0-1 fraction."""
        lo, hi = self.min_frequency_khz, self.max_frequency_khz
        if hi == lo:
            return 1.0
        return (frequency_khz - lo) / (hi - lo)

    def representative_five(self) -> List[Opp]:
        """Two low, one middle, and two high OPPs.

        Section 3.1: "Two low, two high, and one middle frequencies have
        been chosen to be benchmarked as they represent the wide variety
        of the available frequencies."
        """
        n = len(self)
        if n < 5:
            return list(self._opps)
        picks = [0, 1, n // 2, n - 2, n - 1]
        return [self._opps[i] for i in picks]
