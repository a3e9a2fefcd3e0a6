"""Stateful property test: cached per-tick values never go stale.

The tick path keeps some derived values instead of recomputing them:

* each core's ``is_online`` flag (maintained by ``set_state``);
* the topology's structural views (``cluster_ids``, ``opp_tables``,
  ``max_frequency_khz``, ``is_heterogeneous``), built once;
* the power model's per-OPP terms, evaluated once per model;
* an observation's per-core aggregates (``core_opp_tables``,
  ``scaled_loads_percent``, ``total_scaled_load_percent``,
  ``global_scaled_load_percent``), computed on first use.

A hypothesis rule-based machine drives a kernel stack through random
sequences of ``set_state``, ``account``, ``set_online_mask``,
``apply_mask`` and hotplug-failure fault windows, on a homogeneous and a
big.LITTLE platform.  After every step it checks each flag against the
core's state and each cached view against a fresh recompute.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import CoreStateError, HotplugError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, HotplugFailFault
from repro.kernel.engine import KernelStack
from repro.policies.base import SystemObservation
from repro.soc.catalog import get_phone_spec
from repro.soc.core_state import CoreState
from repro.soc.platform import Platform

#: Two hotplug-failure windows on the machine's own simulated clock.
FAULTS = FaultPlan.of(
    HotplugFailFault(at_seconds=0.10, duration_seconds=0.20),
    HotplugFailFault(at_seconds=0.50, duration_seconds=0.10),
)


def fresh_observation_views(observation):
    """The observation's cached aggregates, recomputed from its fields."""
    tables = tuple(
        observation.opp_table_of(core_id) for core_id in range(observation.num_cores)
    )
    scaled = tuple(
        observation.per_core_load_percent[core_id]
        * observation.frequencies_khz[core_id]
        / tables[core_id].max_frequency_khz
        for core_id in range(observation.num_cores)
    )
    online = [
        scaled[core_id]
        for core_id in range(observation.num_cores)
        if observation.online_mask[core_id]
    ]
    return {
        "core_opp_tables": tables,
        "scaled_loads_percent": scaled,
        "total_scaled_load_percent": sum(online),
        "global_scaled_load_percent": sum(online) / len(online) if online else 0.0,
    }


class TickCacheMachine(RuleBasedStateMachine):
    """Random kernel-stack operations on one platform."""

    platform_name = "Nexus 5"

    def __init__(self):
        super().__init__()
        self.platform = Platform.from_spec(get_phone_spec(self.platform_name))
        self.stack = KernelStack(self.platform)
        self.stack.reset()
        self.topology = self.platform.topology
        self.injector = FaultInjector(FAULTS, self.stack)
        self.now = 0.0
        self.num_cores = len(self.topology)

    def core_ids(self):
        return st.integers(min_value=0, max_value=self.num_cores - 1)

    @rule(data=st.data(), state=st.sampled_from(list(CoreState)))
    def set_state(self, data, state):
        core = self.topology.core(data.draw(self.core_ids()))
        try:
            core.set_state(state)
        except CoreStateError:
            pass  # the boot core refuses OFFLINE

    @rule(data=st.data(), busy=st.floats(min_value=0.0, max_value=1.0))
    def account(self, data, busy):
        core = self.topology.core(data.draw(self.core_ids()))
        try:
            core.account(busy)
        except CoreStateError:
            pass  # an offline core refuses work

    @rule(data=st.data())
    def set_online_mask(self, data):
        mask = data.draw(st.lists(st.booleans(), min_size=self.num_cores, max_size=self.num_cores))
        try:
            self.topology.set_online_mask(mask)
        except HotplugError:
            pass  # boot core off, or nothing online

    @rule(data=st.data())
    def apply_mask(self, data):
        mask = data.draw(st.lists(st.booleans(), min_size=self.num_cores, max_size=self.num_cores))
        try:
            self.stack.hotplug.apply_mask(mask)
        except HotplugError:
            pass

    @rule(data=st.data())
    def set_frequency(self, data):
        core = self.topology.core(data.draw(self.core_ids()))
        core.set_frequency(data.draw(st.sampled_from(core.opp_table.frequencies_khz)))

    @rule(seconds=st.sampled_from([0.02, 0.05, 0.1, 0.2]))
    def advance_fault_clock(self, seconds):
        """Open and close the hotplug-failure windows."""
        self.now += seconds
        self.injector.on_tick(self.now)

    @precondition(lambda self: self.now > 0.0)
    @rule()
    def rewind_fault_clock(self):
        self.now = 0.0
        self.injector.on_tick(self.now)

    @invariant()
    def online_flag_tracks_state(self):
        for core in self.topology.cores:
            assert core.is_online == (core.state is not CoreState.OFFLINE)
            if not core.is_online:
                assert core.busy_fraction == 0.0

    @invariant()
    def online_views_match_fresh_recompute(self):
        cores = self.topology.cores
        fresh_mask = [core.state is not CoreState.OFFLINE for core in cores]
        assert self.topology.online_mask == fresh_mask
        assert self.topology.online_cores == [c for c, on in zip(cores, fresh_mask) if on]
        assert self.topology.online_count == sum(fresh_mask)
        for cluster in self.topology.clusters:
            assert cluster.online_mask == [
                core.state is not CoreState.OFFLINE for core in cluster.cores
            ]

    @invariant()
    def structural_views_match_fresh_recompute(self):
        clusters = self.topology.clusters
        assert self.topology.cluster_ids == tuple(
            cluster.cluster_id for cluster in clusters for _ in cluster.cores
        )
        assert self.topology.opp_tables == tuple(cluster.opp_table for cluster in clusters)
        assert self.topology.max_frequency_khz == max(
            cluster.opp_table.max_frequency_khz for cluster in clusters
        )
        assert self.topology.is_heterogeneous == (len(clusters) > 1)
        assert self.topology.frequencies_khz == [core.frequency_khz for core in self.topology.cores]

    @invariant()
    def power_terms_match_fresh_recompute(self):
        per_core = self.platform.power_breakdown().per_core_mw
        for model, cluster in zip(self.platform.power_models, self.topology.clusters):
            for core in cluster.cores:
                expected = 0.0
                if core.state is not CoreState.OFFLINE:
                    opp = core.opp_table.at(core.frequency_khz)
                    expected = (
                        core.busy_fraction * model.dynamic_power_mw(opp)
                        + model.static_power_mw(opp)
                    )
                assert per_core[core.core_id] == expected

    @invariant()
    def observation_aggregates_match_fresh_recompute(self):
        observation = SystemObservation(
            tick=0,
            dt_seconds=0.02,
            per_core_load_percent=tuple(
                100.0 * core.busy_fraction for core in self.topology.cores
            ),
            global_util_percent=0.0,
            delta_util_percent=0.0,
            frequencies_khz=tuple(self.topology.frequencies_khz),
            online_mask=tuple(self.topology.online_mask),
            quota=1.0,
            opp_table=self.platform.opp_table,
            cluster_ids=self.topology.cluster_ids,
            cluster_opp_tables=self.topology.opp_tables,
        )
        for name, value in fresh_observation_views(observation).items():
            assert getattr(observation, name) == value, name
            # A second read serves the kept value, still equal.
            assert getattr(observation, name) == value, name


class BigLittleTickCacheMachine(TickCacheMachine):
    platform_name = "Odroid-XU3"


TestTickCacheNexus5 = TickCacheMachine.TestCase
TestTickCacheNexus5.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestTickCacheBigLittle = BigLittleTickCacheMachine.TestCase
TestTickCacheBigLittle.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
