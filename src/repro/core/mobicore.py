"""MobiCorePolicy: the Figure 8 flow chart, end to end.

Per sampling period (tick), in order:

1. **Initial state: ondemand DVFS.**  Each online core's ondemand
   governor picks its frequency exactly as the default policy would --
   MobiCore "is based on the existing ondemand governor" (section 5.3).
2. **Bandwidth step.**  The Table 2 quota controller inspects the
   overall utilization and its variation; slow mode shrinks the global
   CPU bandwidth by the 0.9 scaling factor, burst mode or high load
   restores it.  The scaled utilization ``K = K * q`` feeds everything
   downstream (section 4.1.1).
3. **Core-count step (DCS).**  Cores whose individual load is under the
   10% threshold are offlined (section 5.2); the operating-point
   optimizer may instead *raise* the core count when the energy model
   predicts that more cores at a lower frequency carry the demand more
   cheaply -- "looking for a good operating point will automatically
   switch to add a new core instead of raising the frequency too high"
   (section 5.3).
4. **Frequency step (Eq. 9).**  Every core that stays online gets
   ``f_new = f_ondemand * (K/100) * (nmax/n)``, quantised up onto the
   OPP table.

The constructor flags isolate each mechanism for the ablation benches.
"""

from __future__ import annotations

from typing import List, Optional

from .bandwidth import QuotaController
from .energy_model import EnergyModel
from .frequency_law import reevaluate_frequency
from .operating_point import OperatingPointOptimizer
from .predictor import WorkloadPredictor
from ..errors import ConfigError
from ..governors.base import Governor, GovernorInput
from ..governors.ondemand import OndemandGovernor
from ..policies.base import CpuPolicy, PolicyDecision, SystemObservation
from ..soc.opp import OppTable
from ..soc.power_model import PowerParams
from ..units import clamp, require_percent

__all__ = ["MobiCorePolicy"]


class MobiCorePolicy(CpuPolicy):
    """The hybrid adaptive policy: ondemand + quota + DCS + Eq. (9) DVFS.

    Args:
        power_params: The energy model's calibration; normally the
            platform's own (the paper fits the model on the same device
            it deploys to).
        opp_table: The platform's DVFS table.
        num_cores: nmax.
        offline_threshold_percent: The "individual workload under 10%"
            offline rule.
        use_quota: Disable for the no-bandwidth-control ablation.
        use_optimizer: Disable to fall back to pure 10%-rule DCS.
        use_dcs: Disable core scaling entirely (all cores stay online);
            isolates the Eq.-9 DVFS contribution for the section 6.3
            savings-decomposition analysis.
        quota_controller / predictor: Injection points for tuned variants.
    """

    def __init__(
        self,
        power_params: PowerParams,
        opp_table: OppTable,
        num_cores: int = 4,
        offline_threshold_percent: float = 10.0,
        use_quota: bool = True,
        use_optimizer: bool = True,
        use_dcs: bool = True,
        quota_controller: Optional[QuotaController] = None,
        predictor: Optional[WorkloadPredictor] = None,
    ) -> None:
        if num_cores < 1:
            raise ConfigError(f"num_cores must be >= 1, got {num_cores}")
        require_percent(offline_threshold_percent, "offline_threshold_percent")
        self.name = "mobicore"
        self.num_cores = num_cores
        self.offline_threshold_percent = offline_threshold_percent
        self.use_quota = use_quota
        self.use_optimizer = use_optimizer
        self.use_dcs = use_dcs
        self.quota_controller = (
            quota_controller if quota_controller is not None else QuotaController()
        )
        self.predictor = predictor if predictor is not None else WorkloadPredictor()
        self.energy_model = EnergyModel(power_params, opp_table)
        self.optimizer = OperatingPointOptimizer(self.energy_model, num_cores)
        self._governors: List[Governor] = [OndemandGovernor() for _ in range(num_cores)]
        self._prev_scaled_load: Optional[float] = None

    @classmethod
    def for_platform(cls, platform, **kwargs) -> "MobiCorePolicy":
        """Build a MobiCore tuned to a :class:`~repro.soc.platform.Platform`.

        Uses the platform's own calibrated power parameters as the energy
        model, as the paper does (the model is fit on the deployment
        device, section 4.1.2).
        """
        return cls(
            power_params=platform.spec.power_params,
            opp_table=platform.opp_table,
            num_cores=len(platform.topology),
            **kwargs,
        )

    def reset(self) -> None:
        self.quota_controller.reset()
        self.predictor.reset()
        self._prev_scaled_load = None
        for governor in self._governors:
            governor.reset()

    # -- the four flow-chart steps ---------------------------------------

    def _step_ondemand(self, observation: SystemObservation) -> List[Optional[int]]:
        """Step 1: the default DVFS choice per online core."""
        while len(self._governors) < observation.num_cores:
            self._governors.append(OndemandGovernor())
        loads = observation.per_core_load_percent
        frequencies = observation.frequencies_khz
        tables = observation.core_opp_tables
        choices: List[Optional[int]] = []
        for core_id, online in enumerate(observation.online_mask):
            if not online:
                choices.append(None)
                continue
            choices.append(
                self._governors[core_id].select(
                    GovernorInput(
                        load_percent=loads[core_id],
                        current_khz=frequencies[core_id],
                        opp_table=tables[core_id],
                        dt_seconds=observation.dt_seconds,
                    )
                )
            )
        return choices

    def _step_bandwidth(self, observation: SystemObservation, phone_load: float) -> float:
        """Step 2: Table 2's quota update; returns the quota in effect.

        Works on the fmax-normalised phone load (*phone_load*, see
        :meth:`_phone_load`) so the 40% threshold measures *workload*,
        not busy time at whatever (possibly already trimmed) frequency
        the cores happen to run.
        """
        delta = (
            0.0
            if self._prev_scaled_load is None
            else phone_load - self._prev_scaled_load
        )
        self._prev_scaled_load = phone_load
        self.predictor.observe(delta)
        if not self.use_quota:
            return 1.0
        # Capacity starvation: busy time pegged at the quota ceiling means
        # the measured load under-reports the real demand -- treat it as a
        # burst and restore the full bandwidth before re-analysing.
        if observation.global_util_percent >= 96.0 * observation.quota:
            return self.quota_controller.boost()
        return self.quota_controller.update(phone_load, delta)

    def _step_core_count(
        self, observation: SystemObservation, quota: float, phone_load: float
    ) -> int:
        """Step 3: the 10% offline rule plus demand-driven onlining.

        With ``use_dcs=False`` every core stays online (the DVFS-only
        decomposition variant).

        Offlining: a core whose individual workload (fmax-normalised, so
        the rule is meaningful at any current frequency) is under the
        threshold is turned off (section 5.2).

        Onlining: the forecast demand must fit on the surviving cores;
        when it does not, cores come back -- and among the feasible
        counts the operating-point optimizer picks the model-cheapest
        one, which is what makes MobiCore "switch to add a new core
        instead of raising the frequency too high" (section 5.3).
        """
        num_cores = observation.num_cores
        if not self.use_dcs:
            return num_cores
        threshold = self.offline_threshold_percent
        busy_enough = len(
            [
                scaled
                for scaled, online in zip(
                    observation.scaled_loads_percent, observation.online_mask
                )
                if online and scaled >= threshold
            ]
        )
        count = max(busy_enough, 1)

        # Demand forecast in global-load terms (percent of platform max).
        forecast_load = self.predictor.forecast(phone_load)
        demand_fmax_cores = forecast_load * num_cores / 100.0
        # Feasibility: never plan fewer cores than the demand saturates
        # even at fmax (with a small headroom so the plan is reachable).
        min_feasible = max(1, int(-(-demand_fmax_cores // 0.98)))
        count = max(count, min(min_feasible, num_cores))

        if self.use_optimizer and count < num_cores:
            count = self.optimizer.best_count_between(
                clamp(forecast_load, 0.0, 100.0), count, count + 1
            )
        return min(count, num_cores)

    def _step_frequency(
        self,
        observation: SystemObservation,
        ondemand_choices: List[Optional[int]],
        quota: float,
        active_cores: int,
    ) -> List[Optional[float]]:
        """Step 4: Eq. (9) applied to every core that stays online.

        K is the phone-wide utilization (all nmax cores, offline cores
        zero), bandwidth-scaled; Eq. (9)'s nmax/n then spreads it back
        over the cores that will actually be active.
        """
        num_cores = observation.num_cores
        phone_k = (
            observation.global_util_percent
            * observation.online_count
            / num_cores
        )
        scaled_k = clamp(phone_k * quota, 0.0, 100.0)
        tables = observation.core_opp_tables
        targets: List[Optional[float]] = []
        for core_id, ondemand_khz in enumerate(ondemand_choices):
            if ondemand_khz is None:
                targets.append(None)
                continue
            targets.append(
                float(
                    reevaluate_frequency(
                        ondemand_khz=ondemand_khz,
                        phone_utilization_percent=scaled_k,
                        active_cores=active_cores,
                        max_cores=num_cores,
                        opp_table=tables[core_id],
                    )
                )
            )
        return targets

    @staticmethod
    def _phone_load(observation: SystemObservation) -> float:
        """The fmax-normalised phone load in percent, clamped to [0, 100].

        Steps 2 and 3 and the trace reason all read this one per-tick
        value.
        """
        return clamp(
            observation.total_scaled_load_percent / observation.num_cores, 0.0, 100.0
        )

    # -- the policy interface ------------------------------------------------

    def decide(self, observation: SystemObservation) -> PolicyDecision:
        num_cores = observation.num_cores
        online_count = observation.online_count
        phone_load = self._phone_load(observation)
        ondemand_choices = self._step_ondemand(observation)
        quota = self._step_bandwidth(observation, phone_load)
        active_cores = self._step_core_count(observation, quota, phone_load)
        # Eq. (9) uses n as measured *this* sampling period (the K it
        # scales was produced by these n cores); a changed core count
        # feeds back through the next period's utilization.
        targets = self._step_frequency(
            observation, ondemand_choices, quota, online_count
        )

        mask = [core_id < active_cores for core_id in range(num_cores)]
        # Cores coming online need a frequency; give them the Eq. (9)
        # re-evaluation of the busiest current choice.
        online_targets = [t for t in targets if t is not None]
        fill = max(online_targets) if online_targets else float(
            observation.opp_table.min_frequency_khz
        )
        for core_id in range(num_cores):
            if mask[core_id] and targets[core_id] is None:
                targets[core_id] = fill

        # Self-reported cause for the trace: the detected workload mode
        # plus whichever mechanism this tick actually moved.
        mode = self.predictor.classify(
            phone_load, self.predictor.trend_percent_per_tick
        )
        reason = mode.name.lower()
        if active_cores != online_count:
            reason += f":cores{active_cores - online_count:+d}"
        if quota != observation.quota:
            reason += ":quota"
        return PolicyDecision(
            target_frequencies_khz=targets,
            online_mask=mask,
            quota=quota,
            reason=reason,
        )
