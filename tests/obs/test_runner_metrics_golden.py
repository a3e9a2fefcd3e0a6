"""Everything a runner counts, pinned against a frozen oracle.

``tests/data/golden_runner_metrics.json`` holds what one deterministic
serial run reports through every accounting surface: each counter and
gauge sample of the runner's metrics registry (with its labels), the
observation count of each histogram label set, the ``--stats`` rows and
the ``last_stats`` / ``total_stats`` fields.  Wall-clock quantities
(histogram sums and buckets, ``wall time (s)``, ``ticks/second``,
``wall_seconds`` and the times in ``spec_timings``) are left out; they
are the only values that differ between two runs.

The run is two batches on one store-backed runner.  The first executes
one spec.  The second covers every way a spec can be served: a memo
hit, an in-batch alias, a store (disk-cache) hit, a quarantined
corrupt entry, a retried crash and a plain execution.

Regenerate with ``PYTHONPATH=src python tests/obs/test_runner_metrics_golden.py``
only when a count is meant to change, and say why in the change log.
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.config import SimulationConfig
from repro.faults import truncate_cache_entry
from repro.obs.metrics_plane import MetricsRegistry, stats_rows
from repro.runner import FactoryRef, SessionRunner, SessionSpec

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_runner_metrics.json"

#: ``--stats`` rows that measure wall time rather than count work.
WALL_ROWS = ("wall time (s)", "ticks/second")

#: Metric families whose values are wall times (only labels are kept).
WALL_FAMILIES = ("repro_runner_wall_seconds_total",)


def busyloop_spec(
    level, seed, label, workload="repro.workloads.busyloop:BusyLoopApp", *args,
    duration=2.0,
):
    return SessionSpec(
        "Nexus 5",
        FactoryRef.to("repro.policies.android_default:AndroidDefaultPolicy"),
        FactoryRef.to(workload, *args, level),
        SimulationConfig(duration_seconds=duration, seed=seed),
        label=label,
    )


def stats_fields(stats):
    """The counting fields of a ``RunnerStats`` (wall times left out)."""
    return {
        "sessions_executed": stats.sessions_executed,
        "ticks_simulated": stats.ticks_simulated,
        "memo_hits": stats.memo_hits,
        "cache_hits": stats.cache_hits,
        "store_hits": stats.store_hits,
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "corrupt_cache_entries": stats.corrupt_cache_entries,
        "failed_specs": stats.failed_specs,
        "trace_bytes": stats.trace_bytes,
        "peak_recorder_bytes": stats.peak_recorder_bytes,
        "total": stats.total,
        "spec_timing_labels": [label for label, _ in stats.spec_timings],
    }


def registry_counts(registry):
    """Every family's schema and samples; histograms by count only."""
    doc = {}
    for name, family in registry.snapshot().items():
        entry = {
            "type": family["type"],
            "help": family["help"],
            "labelnames": family["labelnames"],
        }
        if family["type"] == "histogram":
            entry["counts"] = [
                {"labels": sample["labels"], "count": sample["count"]}
                for sample in family["samples"]
            ]
        elif name in WALL_FAMILIES:
            entry["labels"] = [sample["labels"] for sample in family["samples"]]
        else:
            entry["samples"] = family["samples"]
        doc[name] = entry
    return doc


def capture(root):
    """Run the two-batch scenario under *root* and return its accounting."""
    root = Path(root)
    store_dir = root / "store"
    stored = busyloop_spec(50.0, 1, "stored")
    corrupt = busyloop_spec(60.0, 2, "corrupt")
    warmer = SessionRunner(store_dir=store_dir)
    warmer.run([stored, corrupt])
    truncate_cache_entry(warmer.store.cache.path(corrupt.cache_key()))

    # Longer than the rest, so the first batch holds the runner's peak
    # recorder footprint and the second batch's own peak is smaller.
    memo = busyloop_spec(40.0, 0, "memo", duration=8.0)
    flaky = busyloop_spec(
        70.0, 3, "flaky", "repro.faults.chaos:FlakyOnceWorkload",
        str(root / "flaky.token"),
    )
    fresh = busyloop_spec(80.0, 4, "fresh")

    runner = SessionRunner(
        store_dir=store_dir,
        metrics=MetricsRegistry(),
        retries=1,
        retry_backoff_seconds=0.0,
    )
    runner.run([memo])
    report = runner.run_report([memo, memo, stored, corrupt, flaky, fresh])
    return {
        "outcomes": [
            {"label": o.label, "status": o.status, "source": o.source}
            for o in report.outcomes
        ],
        "metrics": registry_counts(runner.metrics),
        "stats_rows": {
            which: [
                [name, value]
                for name, value in stats_rows(stats)
                if name not in WALL_ROWS
            ]
            for which, stats in (
                ("last", runner.last_stats), ("total", runner.total_stats)
            )
        },
        "last_stats": stats_fields(runner.last_stats),
        "total_stats": stats_fields(runner.total_stats),
    }


def test_runner_accounting_matches_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    # A JSON round trip makes tuples lists, as in the stored file.
    assert json.loads(json.dumps(capture(tmp_path))) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        document = capture(scratch)
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
