"""Property-based invariants of the OPP table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.opp import OppTable


@st.composite
def opp_tables(draw):
    frequencies = draw(
        st.lists(
            st.integers(min_value=100_000, max_value=3_000_000),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    vmin = draw(st.floats(min_value=0.5, max_value=1.0))
    vmax = draw(st.floats(min_value=vmin, max_value=1.5))
    return OppTable.linear(frequencies, vmin, vmax)


targets = st.floats(min_value=0.0, max_value=5_000_000.0, allow_nan=False)

#: Any target a caller could pass: ints, floats, infinities and NaN.
any_targets = st.one_of(
    st.integers(min_value=-10, max_value=5_000_000),
    st.floats(allow_nan=True, allow_infinity=True),
)


def scan_floor(table, target):
    """The ascending table scan ``OppTable.floor`` replaced (reference)."""
    chosen = table.min
    for opp in table:
        if opp.frequency_khz <= target:
            chosen = opp
        else:
            break
    return chosen


def scan_ceil(table, target):
    """The ascending table scan ``OppTable.ceil`` replaced (reference)."""
    for opp in table:
        if opp.frequency_khz >= target:
            return opp
    return table.max


class TestTableInvariants:
    @given(table=opp_tables())
    def test_sorted_and_voltage_monotone(self, table):
        frequencies = table.frequencies_khz
        assert list(frequencies) == sorted(frequencies)
        voltages = [opp.voltage for opp in table]
        assert all(b >= a for a, b in zip(voltages, voltages[1:]))

    @given(table=opp_tables(), target=targets)
    def test_floor_at_most_target_or_min(self, table, target):
        chosen = table.floor(target)
        if target >= table.min_frequency_khz:
            assert chosen.frequency_khz <= target
        else:
            assert chosen.frequency_khz == table.min_frequency_khz

    @given(table=opp_tables(), target=targets)
    def test_ceil_at_least_target_or_max(self, table, target):
        chosen = table.ceil(target)
        if target <= table.max_frequency_khz:
            assert chosen.frequency_khz >= target
        else:
            assert chosen.frequency_khz == table.max_frequency_khz

    @given(table=opp_tables(), target=targets)
    def test_floor_le_ceil(self, table, target):
        assert table.floor(target).frequency_khz <= table.ceil(target).frequency_khz

    @given(table=opp_tables(), target=targets)
    def test_floor_ceil_are_adjacent_or_equal(self, table, target):
        floor_index = table.index_of(table.floor(target).frequency_khz)
        ceil_index = table.index_of(table.ceil(target).frequency_khz)
        assert ceil_index - floor_index in (0, 1)

    @given(table=opp_tables(), target=any_targets)
    def test_bisection_matches_the_table_scan(self, table, target):
        assert table.floor(target) is scan_floor(table, target)
        assert table.ceil(target) is scan_ceil(table, target)

    @given(table=opp_tables(), data=st.data())
    def test_bisection_matches_the_scan_at_boundaries(self, table, data):
        frequency = data.draw(st.sampled_from(table.frequencies_khz))
        for target in (frequency, frequency - 1, frequency + 1, frequency - 0.5, frequency + 0.5):
            assert table.floor(target) is scan_floor(table, target)
            assert table.ceil(target) is scan_ceil(table, target)

    @given(table=opp_tables())
    def test_lookups_are_idempotent(self, table):
        for opp in table:
            assert table.floor(opp.frequency_khz) == opp
            assert table.ceil(opp.frequency_khz) == opp

    @given(table=opp_tables())
    def test_span_fraction_bounds(self, table):
        for opp in table:
            fraction = table.span_fraction(opp.frequency_khz)
            assert 0.0 <= fraction <= 1.0
