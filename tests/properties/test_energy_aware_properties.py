"""Invariants of the energy-aware policy over random observations.

Together with ``tests/data/golden_energy_aware.json`` (exact candidate
dicts) these replace the scalar placement search as the oracle: whatever
the load and frequency history, every decision

* keeps the boot core online,
* targets, on each online core, an OPP of that core's own domain,
* carries the measured demand within the headroom target whenever the
  platform can (all cores at fmax otherwise).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import SystemObservation
from repro.policies.energy_aware import EnergyAwarePolicy
from repro.soc.catalog import get_phone_spec

SPECS = {name: get_phone_spec(name) for name in ("Odroid-XU3", "Galaxy S6", "Nexus 5")}


def layout(spec):
    clusters = spec.cluster_specs()
    return clusters, tuple(
        index for index, cluster in enumerate(clusters) for _ in range(cluster.num_cores)
    )


@st.composite
def observation_rows(draw, spec):
    """One tick's (loads, frequencies, online mask) for *spec*."""
    clusters, cluster_ids = layout(spec)
    online = [True] + [draw(st.booleans()) for _ in cluster_ids[1:]]
    frequencies = [
        draw(st.sampled_from(clusters[index].opp_table.frequencies_khz))
        for index in cluster_ids
    ]
    loads = [
        draw(st.floats(min_value=0.0, max_value=100.0)) if on else 0.0 for on in online
    ]
    return loads, frequencies, online


@st.composite
def histories(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    rows = draw(st.lists(observation_rows(SPECS[name]), min_size=1, max_size=12))
    return name, rows


def observe(spec, tick, loads, frequencies, online):
    clusters, cluster_ids = layout(spec)
    online_loads = [load for load, on in zip(loads, online) if on]
    return SystemObservation(
        tick=tick,
        dt_seconds=0.02,
        per_core_load_percent=loads,
        global_util_percent=sum(online_loads) / len(online_loads),
        delta_util_percent=0.0,
        frequencies_khz=frequencies,
        online_mask=online,
        quota=1.0,
        opp_table=spec.opp_table,
        cluster_ids=cluster_ids,
        cluster_opp_tables=tuple(cluster.opp_table for cluster in clusters),
    )


def measured_demand(policy, clusters, cluster_ids, loads, frequencies, online):
    """IPC-scaled demand, boosted while any online core is saturated."""
    work = 0.0
    for load, frequency, on, index in zip(loads, frequencies, online, cluster_ids):
        if on:
            work += (load / 100.0) * frequency * 1000.0 * clusters[index].ipc_scale
    if any(on and load >= policy.burst_threshold_percent for load, on in zip(loads, online)):
        work *= policy.burst_boost
    return work


@settings(max_examples=60, deadline=None)
@given(history=histories())
def test_every_decision_is_a_legal_feasible_placement(history):
    name, rows = history
    spec = SPECS[name]
    clusters, cluster_ids = layout(spec)
    policy = EnergyAwarePolicy.for_platform_spec(spec)
    full_capacity = sum(
        cluster.num_cores * cluster.ipc_scale * 1000.0 * cluster.opp_table.max_frequency_khz
        for cluster in clusters
    )
    for tick, (loads, frequencies, online) in enumerate(rows):
        decision = policy.decide(observe(spec, tick, loads, frequencies, online))
        mask = decision.online_mask
        targets = decision.target_frequencies_khz
        assert mask[0], "the boot core must stay online"
        capacity = 0.0
        for core, index in enumerate(cluster_ids):
            if not mask[core]:
                assert targets[core] is None
                continue
            assert int(targets[core]) in clusters[index].opp_table.frequencies_khz
            capacity += clusters[index].ipc_scale * 1000.0 * targets[core]
        required = (
            measured_demand(policy, clusters, cluster_ids, loads, frequencies, online)
            / policy.target_utilization
        )
        if required <= full_capacity * (1.0 - 1e-12):
            assert capacity >= required * (1.0 - 1e-12)
        elif required > full_capacity * (1.0 + 1e-12):
            assert all(mask)
            assert all(
                targets[core] == clusters[index].opp_table.max_frequency_khz
                for core, index in enumerate(cluster_ids)
            )
