"""Ablation: MobiCore with and without the bandwidth (quota) control.

Section 4.1.1 adds the quota "to create more power savings when facing a
slow mode"; this bench quantifies what the Table 2 controller buys on a
quiet, slowly varying workload and confirms it costs nothing on heavy
load.
"""

from repro.analysis.comparison import PolicyComparison
from repro.scenario import policy_ref, workload_ref


def run_quota_ablation(config):
    comparison = PolicyComparison(
        "Nexus 5",
        baseline_factory=policy_ref("mobicore", platform="Nexus 5", use_quota=False),
        candidate_factory=policy_ref("mobicore", platform="Nexus 5", use_quota=True),
        config=config,
        pin_uncore_max=False,
    )
    return {
        "light": comparison.compare(workload_ref("busyloop", target_load_percent=20.0)),
        "heavy": comparison.compare(workload_ref("busyloop", target_load_percent=90.0)),
    }


def test_quota_ablation(bench_once, evaluation_config):
    rows = bench_once(run_quota_ablation, evaluation_config)
    light, heavy = rows["light"], rows["heavy"]
    print(
        f"\nlight load: quota saves {light.power_saving_percent:+.1f}% "
        f"({light.baseline.mean_power_mw:.0f} -> {light.candidate.mean_power_mw:.0f} mW, "
        f"mean quota {light.candidate.mean_quota:.2f})"
    )
    print(
        f"heavy load: quota saves {heavy.power_saving_percent:+.1f}% "
        f"(mean quota {heavy.candidate.mean_quota:.2f})"
    )
    assert light.power_saving_percent > 0.5        # quota helps when quiet
    assert abs(heavy.power_saving_percent) < 2.0   # and is harmless when busy
