"""Physical-unit conventions and validation helpers.

The whole library uses one fixed convention, chosen to mirror the Linux
cpufreq interface and the units the paper reports:

===========  ==========  ============================================
Quantity     Unit        Rationale
===========  ==========  ============================================
frequency    kHz (int)   cpufreq exposes kHz in sysfs
voltage      volt        paper quotes 0.9 V - 1.2 V
power        milliwatt   paper quotes mW (Monsoon output)
energy       millijoule  integral of mW over seconds
time         second      simulation tick durations
utilization  percent     paper works in 0-100 "CPU load" percent
===========  ==========  ============================================

Frequencies are plain ``int`` kHz values rather than a wrapper class; the
helpers below construct and validate them.  Keeping quantities as plain
numbers keeps numpy interop trivial.
"""

from __future__ import annotations

from typing import Sequence

from .errors import UnitsError

__all__ = [
    "khz",
    "mhz",
    "ghz",
    "khz_to_mhz",
    "khz_to_ghz",
    "clamp",
    "require_positive",
    "require_non_negative",
    "require_fraction",
    "require_percent",
    "require_percents",
    "percent_to_fraction",
    "fraction_to_percent",
]


def khz(value: float) -> int:
    """Return *value* interpreted as kHz, as the canonical ``int`` form.

    Raises :class:`~repro.errors.UnitsError` if the value is not positive.
    """
    result = int(round(value))
    if result <= 0:
        raise UnitsError(f"frequency must be positive, got {value!r} kHz")
    return result


def mhz(value: float) -> int:
    """Return *value* MHz as canonical kHz."""
    return khz(value * 1000.0)


def ghz(value: float) -> int:
    """Return *value* GHz as canonical kHz."""
    return khz(value * 1_000_000.0)


def khz_to_mhz(value: int) -> float:
    """Convert canonical kHz to MHz for display."""
    return value / 1000.0


def khz_to_ghz(value: int) -> float:
    """Convert canonical kHz to GHz for display."""
    return value / 1_000_000.0


def clamp(value: float, low: float, high: float) -> float:
    """Clamp *value* into the closed interval [*low*, *high*].

    Raises :class:`~repro.errors.UnitsError` when the interval is empty.
    """
    if low > high:
        raise UnitsError(f"empty clamp interval [{low}, {high}]")
    if value < low:
        return low
    if value > high:
        return high
    return value


def require_positive(value: float, name: str) -> float:
    """Validate that *value* > 0, returning it; raise :class:`UnitsError` otherwise."""
    if not value > 0:
        raise UnitsError(f"{name} must be positive, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that *value* >= 0, returning it; raise :class:`UnitsError` otherwise."""
    if value < 0:
        raise UnitsError(f"{name} must be non-negative, got {value!r}")
    return value


def require_fraction(value: float, name: str) -> float:
    """Validate that *value* lies in [0, 1], returning it."""
    if not 0.0 <= value <= 1.0:
        raise UnitsError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def require_percent(value: float, name: str) -> float:
    """Validate that *value* lies in [0, 100], returning it."""
    if not 0.0 <= value <= 100.0:
        raise UnitsError(f"{name} must lie in [0, 100], got {value!r}")
    return value


def require_percents(values: Sequence[float], name: str) -> Sequence[float]:
    """Validate that every entry of *values* lies in [0, 100], returning it.

    One call per sequence, for per-core checks on the tick path.
    """
    for value in values:
        if not 0.0 <= value <= 100.0:
            raise UnitsError(f"{name} must lie in [0, 100], got {value!r}")
    return values


def percent_to_fraction(value: float) -> float:
    """Convert a 0-100 percentage to a 0-1 fraction (validated)."""
    return require_percent(value, "percentage") / 100.0


def fraction_to_percent(value: float) -> float:
    """Convert a 0-1 fraction to a 0-100 percentage (validated)."""
    return require_fraction(value, "fraction") * 100.0
