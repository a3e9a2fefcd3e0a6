"""The paper's scalar tick path, pinned bit for bit by frozen data.

``tests/data/golden_tick_paths.json`` was captured before the per-tick
derived values (online views, capacities, utilization aggregates, OPP
lookups) were hoisted to be computed once per tick.  Each point is a
10 s session stored with its scenario payload, so the file alone says
what ran:

* Nexus 5 x {android-default, mobicore} x {game:asphalt8, geekbench,
  busyloop at 20/50/100 %};
* one Nexus 5 mobicore session under a thermal-throttle plus
  sensor-dropout fault plan;
* Odroid-XU3 x {android-default, mobicore, energy-aware} x game:asphalt8.

A replay must reproduce the cache key, every summary field to the last
ulp (``float.hex``), the transition counters, the fault firings and the
sha256 of the ``keep_columns`` trace blob.  If this test fails after an
intentional numerics change, recapture from the commit before it, never
from the new code (``docs/NUMERICS.md``).
"""

import pytest

from .tick_golden import fingerprint, load_golden

GOLDEN = load_golden()


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_tick_path_is_bit_identical(label):
    golden = dict(GOLDEN[label])
    scenario_doc = golden.pop("scenario")
    actual = fingerprint(scenario_doc)
    assert actual["cache_key"] == golden["cache_key"], f"{label}: cache key drifted"
    assert actual["summary"] == golden["summary"], f"{label}: summary drifted"
    assert actual == golden, f"{label}: trace columns or counters drifted"


def test_golden_covers_the_paper_tick_paths():
    """The points span both Nexus 5 policies, a fault plan and big.LITTLE."""
    points = {
        (doc["scenario"]["platform"], doc["scenario"]["policy"])
        for doc in GOLDEN.values()
    }
    assert len(GOLDEN) == 14
    assert points == {
        ("Nexus 5", "android-default"),
        ("Nexus 5", "mobicore"),
        ("Odroid-XU3", "android-default"),
        ("Odroid-XU3", "mobicore"),
        ("Odroid-XU3", "energy-aware"),
    }
    faulted = [doc for doc in GOLDEN.values() if "faults" in doc["scenario"]]
    assert len(faulted) == 1
    assert set(faulted[0]["fault_firings"]) == {"thermal_throttle", "sensor_dropout"}
