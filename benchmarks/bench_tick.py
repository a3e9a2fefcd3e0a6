"""Scalar tick cost: µs per tick and Python calls per tick.

Every paper session runs on the scalar ``Session._step_core`` loop, so
its per-tick overhead sets the cost of regenerating the evaluation.
This bench

1. asserts **parity first**: every point of
   ``tests/data/golden_tick_paths.json`` (summaries as ``float.hex``,
   transition counters, cache keys, a sha256 over the trace columns)
   is reproduced exactly;
2. for Nexus 5 {android-default, mobicore} and Odroid-XU3
   {android-default, mobicore, energy-aware} on the golden
   ``game:asphalt8`` session (10 s, 500 ticks), records
   * the min over ``REPEATS`` (9) runs of µs per tick (wall time of
     ``Session.run`` over its ticks; the runs go round-robin over the
     rows);
   * Python calls per tick: cProfile's ``total_calls`` over one run,
     divided by its ticks.  The count is deterministic for a given
     interpreter, unlike wall time on a shared host.

It fails unless parity holds, every row's calls per tick are at most
its ``MAX_CALLS_PER_TICK`` ceiling, and every row's µs per tick is at
most ``TICK_BENCH_MAX_US`` (default 500; CI relaxes it for noisy shared
runners).  Results land in ``BENCH_tick.json`` (override with
``TICK_BENCH_OUT``).
"""

import cProfile
import json
import os
import pstats
import sys
import time
from pathlib import Path

from repro.kernel.engine import Session
from repro.scenario import Scenario, compile_scenario
from repro.soc.platform import Platform

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from tests.integration.tick_golden import fingerprint, load_golden  # noqa: E402

ROWS = (
    "Nexus 5|android-default|game:asphalt8",
    "Nexus 5|mobicore|game:asphalt8",
    "Odroid-XU3|android-default|game:asphalt8",
    "Odroid-XU3|mobicore|game:asphalt8",
    "Odroid-XU3|energy-aware|game:asphalt8",
)
#: Per-row ceilings on Python calls per tick: the CPython 3.11 count
#: plus about 5% (3.12 inlines comprehensions and counts fewer).  The
#: Nexus 5 rows sit at or below half of what the tick cost before its
#: per-tick values were hoisted (804 and 966 calls).
MAX_CALLS_PER_TICK = {
    "Nexus 5|android-default|game:asphalt8": 398,
    "Nexus 5|mobicore|game:asphalt8": 470,
    "Odroid-XU3|android-default|game:asphalt8": 510,
    "Odroid-XU3|mobicore|game:asphalt8": 625,
    "Odroid-XU3|energy-aware|game:asphalt8": 500,
}
REPEATS = 9
MAX_US = float(os.environ.get("TICK_BENCH_MAX_US", "500"))
OUT_PATH = Path(os.environ.get("TICK_BENCH_OUT", "BENCH_tick.json"))


def check_parity(golden):
    """Replay every golden point; returns the number compared."""
    for label, doc in sorted(golden.items()):
        expected = {key: value for key, value in doc.items() if key != "scenario"}
        assert fingerprint(doc["scenario"]) == expected, (
            f"{label}: tick path drifted from the golden"
        )
    return len(golden)


def build_session(scenario_doc):
    """A fresh, unstarted session for one golden scenario payload."""
    spec = compile_scenario(Scenario.from_payload(scenario_doc))
    return Session(
        Platform.from_spec(spec.resolve_platform_spec()),
        spec.build_workload(),
        spec.build_policy(),
        spec.config,
        pin_uncore_max=spec.pin_uncore_max,
    )


def measure_rows(golden):
    """Min-of-``REPEATS`` µs per tick and cProfile calls per tick, per row.

    The timed runs go round-robin over the rows, so a slow spell of the
    host lands on every row instead of on one.
    """
    walls = {label: [] for label in ROWS}
    for _ in range(REPEATS):
        for label in ROWS:
            session = build_session(golden[label]["scenario"])
            began = time.perf_counter()
            session.run()
            walls[label].append((time.perf_counter() - began) / session.ticks_run)
    rows = {}
    for label in ROWS:
        session = build_session(golden[label]["scenario"])
        profile = cProfile.Profile()
        profile.enable()
        session.run()
        profile.disable()
        rows[label] = {
            "ticks": session.ticks_run,
            "runs": REPEATS,
            "us_per_tick_min": min(walls[label]) * 1e6,
            "calls_per_tick": pstats.Stats(profile).total_calls / session.ticks_run,
        }
    return rows


def run_tick_benchmark():
    """Assert golden parity, then measure every row; report."""
    golden = load_golden()
    points = check_parity(golden)
    return {
        "parity_points": points,
        "max_us": MAX_US,
        "python": "{}.{}".format(*sys.version_info[:2]),
        "rows": measure_rows(golden),
    }


def _check(report):
    for label, row in report["rows"].items():
        assert row["calls_per_tick"] <= MAX_CALLS_PER_TICK[label], (
            f"{label}: {row['calls_per_tick']:.0f} calls per tick, above the "
            f"{MAX_CALLS_PER_TICK[label]} ceiling"
        )
        assert row["us_per_tick_min"] <= MAX_US, (
            f"{label}: {row['us_per_tick_min']:.0f} µs per tick, above the "
            f"{MAX_US:.0f} µs ceiling"
        )


def test_scalar_tick(bench_once):
    report = bench_once(run_tick_benchmark)
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for label, row in report["rows"].items():
        print(
            f"\n{label}: {row['us_per_tick_min']:.0f} µs/tick, "
            f"{row['calls_per_tick']:.0f} calls/tick"
        )
    _check(report)


if __name__ == "__main__":
    result = run_tick_benchmark()
    OUT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    _check(result)
