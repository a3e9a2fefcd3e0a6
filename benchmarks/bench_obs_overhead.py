"""Status-output overhead: a sweep with a status dir vs one without.

Runs the same cold ``jobs=4`` busyloop batch twice — once on a plain
:class:`~repro.runner.runner.SessionRunner` (no ``status_dir``: no
heartbeat file, no ``metrics.json``; its always-on metrics registry
still counts every run) and once with status output on (heartbeat
file and ``metrics.json`` snapshot) — taking the min over ``REPEATS``
passes of each.  The bench fails unless

* the instrumented batch is within ``OBS_BENCH_MAX_OVERHEAD`` of the
  plain one (default 3%; CI's smoke job relaxes it for noisy shared
  runners), and
* the summaries of the two runs are **bit-identical** — observability
  must never touch results.

Results land in ``BENCH_obs.json`` (override with ``OBS_BENCH_OUT``)
so the measured overhead is part of the record.
"""

import json
import os
import tempfile
import time
from pathlib import Path

from repro.config import SimulationConfig
from repro.runner import SessionRunner, SessionSpec
from repro.runner.cache import summary_to_dict
from repro.scenario import policy_ref, workload_ref

JOBS = max(2, min(4, os.cpu_count() or 1))
SPECS = 8
REPEATS = 5
MAX_OVERHEAD = float(os.environ.get("OBS_BENCH_MAX_OVERHEAD", "0.03"))
OUT_PATH = Path(os.environ.get("OBS_BENCH_OUT", "BENCH_obs.json"))


def _specs():
    """A cold 8-spec busyloop batch (distinct seeds, no cache reuse)."""
    config = lambda seed: SimulationConfig(  # noqa: E731 - tiny local factory
        duration_seconds=20.0, seed=seed, warmup_seconds=2.0
    )
    return [
        SessionSpec(
            platform="Nexus 5",
            policy=policy_ref("android-default"),
            workload=workload_ref("busyloop", target_load_percent=60.0),
            config=config(seed),
            label=f"busyloop@{seed}",
        )
        for seed in range(1, SPECS + 1)
    ]


def _timed(status_dir):
    """One cold batch; *status_dir* None means no status output."""
    runner = SessionRunner(jobs=JOBS, status_dir=status_dir)
    start = time.perf_counter()
    summaries = runner.run(_specs())
    return time.perf_counter() - start, [summary_to_dict(s) for s in summaries]


def run_obs_overhead_benchmark():
    """Time plain vs status-dir sweeps; return the report dict."""
    plain_s = instrumented_s = float("inf")
    for _ in range(REPEATS):
        elapsed, plain_rows = _timed(None)
        plain_s = min(plain_s, elapsed)
        with tempfile.TemporaryDirectory() as status_dir:
            elapsed, instrumented_rows = _timed(status_dir)
        instrumented_s = min(instrumented_s, elapsed)
    overhead = instrumented_s / plain_s - 1.0
    return {
        "jobs": JOBS,
        "specs": SPECS,
        "repeats": REPEATS,
        "plain_s": plain_s,
        "instrumented_s": instrumented_s,
        "overhead": overhead,
        "max_overhead": MAX_OVERHEAD,
        "summaries_identical": plain_rows == instrumented_rows,
    }


def _check(report):
    assert report["summaries_identical"], "ops plane changed session results"
    assert report["overhead"] <= MAX_OVERHEAD, (
        f"ops-plane overhead {report['overhead'] * 100:+.1f}% above the "
        f"{MAX_OVERHEAD * 100:.0f}% ceiling"
    )


def test_obs_overhead(bench_once):
    report = bench_once(run_obs_overhead_benchmark)
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"\n{report['specs']} specs @ jobs={report['jobs']}: "
        f"plain {report['plain_s']:.2f} s, "
        f"instrumented {report['instrumented_s']:.2f} s "
        f"(overhead {report['overhead'] * 100:+.1f}%, "
        f"ceiling {MAX_OVERHEAD * 100:.0f}%)"
    )
    _check(report)


if __name__ == "__main__":
    result = run_obs_overhead_benchmark()
    OUT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    _check(result)
