"""The energy-aware placement search, pinned bit for bit by frozen data.

``tests/data/golden_energy_aware.json`` was captured on the scalar
placement search this policy used before its grid was vectorised: a
Python walk over every placement and, per placement, every OPP
combination in ``itertools.product`` order, keeping the first strictly
cheaper one.  For Odroid-XU3, Galaxy S6 and Nexus 5 it holds

* ``points``: the full candidate dict (placement -> cost, frequencies)
  at a set of demands -- zero, demands whose headroom requirement lands
  exactly on a placement's smallest or largest capacity (and one ulp
  either side), a geometric sweep, and demands above the whole chip's
  capacity (an empty dict: the saturate branch);
* ``decisions``: 48 ticks of one policy instance over recorded
  observations, so demand measurement and hysteresis are pinned too.

Costs are stored as ``float.hex`` and compared with ``==``.  The file is
the oracle for the deleted scalar search; if this test fails after an
intentional numerics change, recapture from the scalar code, never from
the vectorised code (``docs/NUMERICS.md``).
"""

import json
from pathlib import Path

import pytest

from repro.policies.base import SystemObservation
from repro.policies.energy_aware import EnergyAwarePolicy
from repro.soc.catalog import get_phone_spec

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_energy_aware.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
PLATFORMS = sorted(GOLDEN)


def encode(candidates):
    """A candidate dict in the golden file's row format."""
    return [
        ["+".join(str(count) for count in counts), cost.hex(), list(frequencies)]
        for counts, (cost, frequencies) in candidates.items()
    ]


def recorded_observation(spec, tick, row):
    """Rebuild one recorded :class:`SystemObservation` for *spec*."""
    clusters = spec.cluster_specs()
    cluster_ids = tuple(
        index for index, cluster in enumerate(clusters) for _ in range(cluster.num_cores)
    )
    online_loads = [
        load for load, on in zip(row["loads"], row["online"]) if on
    ]
    return SystemObservation(
        tick=tick,
        dt_seconds=0.02,
        per_core_load_percent=row["loads"],
        global_util_percent=sum(online_loads) / len(online_loads),
        delta_util_percent=0.0,
        frequencies_khz=row["frequencies_khz"],
        online_mask=row["online"],
        quota=1.0,
        opp_table=spec.opp_table,
        cluster_ids=cluster_ids,
        cluster_opp_tables=tuple(cluster.opp_table for cluster in clusters),
    )


def test_golden_covers_every_branch():
    for name in PLATFORMS:
        points = GOLDEN[name]["points"]
        assert float.fromhex(points[0]["demand_ips"]) == 0.0
        assert any(not point["candidates"] for point in points), name
        assert len(points) > 40, name


@pytest.mark.parametrize("name", PLATFORMS)
def test_candidate_dicts_are_bit_identical(name):
    golden = GOLDEN[name]
    policy = EnergyAwarePolicy.for_platform_spec(get_phone_spec(name))
    assert policy.target_utilization == golden["target_utilization"]
    for point in golden["points"]:
        demand = float.fromhex(point["demand_ips"])
        assert encode(policy.candidates(demand)) == point["candidates"], (
            f"{name}: candidate dict drifted at demand {demand!r}"
        )


@pytest.mark.parametrize("name", PLATFORMS)
def test_decision_sequence_is_identical(name):
    spec = get_phone_spec(name)
    policy = EnergyAwarePolicy.for_platform_spec(spec)
    for tick, row in enumerate(GOLDEN[name]["decisions"]):
        decision = policy.decide(recorded_observation(spec, tick, row))
        assert decision.reason == row["reason"], f"{name} tick {tick}"
        assert list(decision.online_mask) == row["online_mask"], f"{name} tick {tick}"
        assert list(decision.target_frequencies_khz) == row["targets_khz"], (
            f"{name} tick {tick}"
        )
