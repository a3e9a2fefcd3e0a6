"""Energy-aware placement search: cost of one ``decide`` on big.LITTLE.

:class:`~repro.policies.energy_aware.EnergyAwarePolicy` prices every
(placement, OPP combination) of the platform each tick.  The grid and
its model coefficients are built once, in the constructor; a tick is
one numpy pass over it.  This bench

1. asserts **parity first**: every candidate dict recorded in
   ``tests/data/golden_energy_aware.json`` (captured on the scalar
   product-order search) is reproduced with costs equal under
   ``float.hex``, on every platform the fixture covers;
2. times ``decide`` on Odroid-XU3 and Galaxy S6 over a fixed,
   deterministic sweep of observations (loads, online masks and OPPs
   varied together), ``REPEATS`` passes each, reporting the median and
   quartiles of the per-pass mean in µs per decide;
3. records the constructor's cost (``build_us``), the set-up the grid
   moved out of the tick.

It fails unless parity holds and each platform's median is at most
``EAS_BENCH_MAX_US`` µs per decide (default 300; CI's hetero job relaxes
it for noisy shared runners).  Results land in ``BENCH_eas.json``
(override with ``EAS_BENCH_OUT``).
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.policies.base import SystemObservation
from repro.policies.energy_aware import EnergyAwarePolicy
from repro.soc.catalog import get_phone_spec

PLATFORMS = ("Odroid-XU3", "Galaxy S6")
OBSERVATIONS = 256
REPEATS = 9
MAX_US = float(os.environ.get("EAS_BENCH_MAX_US", "300"))
OUT_PATH = Path(os.environ.get("EAS_BENCH_OUT", "BENCH_eas.json"))
GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_energy_aware.json"
)


def check_parity():
    """Replay every golden candidate dict; returns the points compared."""
    golden = json.loads(GOLDEN_PATH.read_text())
    compared = 0
    for name, body in sorted(golden.items()):
        policy = EnergyAwarePolicy.for_platform_spec(get_phone_spec(name))
        for point in body["points"]:
            demand = float.fromhex(point["demand_ips"])
            got = [
                ["+".join(str(c) for c in counts), cost.hex(), list(frequencies)]
                for counts, (cost, frequencies) in policy.candidates(demand).items()
            ]
            assert got == point["candidates"], (
                f"{name}: candidate dict drifted from the golden at demand {demand!r}"
            )
            compared += 1
    return compared


def observation_sweep(spec, count=OBSERVATIONS):
    """*count* deterministic observations spanning idle to saturated."""
    clusters = spec.cluster_specs()
    cluster_ids = tuple(
        index for index, cluster in enumerate(clusters) for _ in range(cluster.num_cores)
    )
    tables = tuple(cluster.opp_table for cluster in clusters)
    sweep = []
    for i in range(count):
        online = [core == 0 or (i >> (core % 5)) & 1 == 1 for core in range(len(cluster_ids))]
        loads = [
            float((i * 37 + core * 11) % 101) if on else 0.0
            for core, on in enumerate(online)
        ]
        frequencies = [
            tables[index].by_index((i + core) % len(tables[index])).frequency_khz
            for core, index in enumerate(cluster_ids)
        ]
        online_loads = [load for load, on in zip(loads, online) if on]
        sweep.append(
            SystemObservation(
                tick=i,
                dt_seconds=0.02,
                per_core_load_percent=loads,
                global_util_percent=sum(online_loads) / len(online_loads),
                delta_util_percent=0.0,
                frequencies_khz=frequencies,
                online_mask=online,
                quota=1.0,
                opp_table=spec.opp_table,
                cluster_ids=cluster_ids,
                cluster_opp_tables=tables,
            )
        )
    return sweep


def time_platform(name):
    """Median and quartiles of µs per decide over ``REPEATS`` passes."""
    spec = get_phone_spec(name)
    start = time.perf_counter()
    policy = EnergyAwarePolicy.for_platform_spec(spec)
    build_us = (time.perf_counter() - start) * 1e6
    sweep = observation_sweep(spec)
    passes = []
    for _ in range(REPEATS):
        policy.reset()
        start = time.perf_counter()
        for observation in sweep:
            policy.decide(observation)
        passes.append((time.perf_counter() - start) * 1e6 / len(sweep))
    q1, median, q3 = statistics.quantiles(passes, n=4)
    return {
        "build_us": build_us,
        "decides_per_pass": len(sweep),
        "passes": REPEATS,
        "us_per_decide_median": statistics.median(passes),
        "us_per_decide_q1": q1,
        "us_per_decide_q3": q3,
    }


def run_eas_benchmark():
    """Assert golden parity, then time ``decide`` per platform; report."""
    points = check_parity()
    return {
        "parity_points": points,
        "max_us": MAX_US,
        "platforms": {name: time_platform(name) for name in PLATFORMS},
    }


def _check(report):
    for name, row in report["platforms"].items():
        assert row["us_per_decide_median"] <= MAX_US, (
            f"{name}: {row['us_per_decide_median']:.0f} µs per decide, "
            f"above the {MAX_US:.0f} µs ceiling"
        )


def test_energy_aware_decide(bench_once):
    report = bench_once(run_eas_benchmark)
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, row in report["platforms"].items():
        print(f"\n{name}: {row['us_per_decide_median']:.0f} µs per decide")
    _check(report)


if __name__ == "__main__":
    result = run_eas_benchmark()
    OUT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    _check(result)
