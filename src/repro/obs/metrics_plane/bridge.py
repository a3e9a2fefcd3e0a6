"""The runner's metric schema — one set of names, one place.

Every runner-facing metric name, help text and label set lives here,
so the ``--stats`` table, the Prometheus exposition, and the persisted
``metrics.json`` can never drift apart.  The runner is the only writer:
it increments each count once, at the line where it learns it, into
its own :class:`~repro.obs.metrics_plane.registry.MetricsRegistry`, and
its ``RunnerStats`` are reads of that registry (:func:`runner_counts`).

Two signal sources are folded here rather than at a runner line:

* per-execution signals (:func:`observe_execution`) — phase wall
  breakdowns, the session wall histogram, fault firings — come from
  each ``SpecExecution`` as it completes;
* experiment-store counters (:func:`observe_store`) are monotonic on
  the store object and folded in by delta after each batch.

Everything is duck-typed on attribute names (``phase_seconds``,
``fault_firings``…) so this module never imports :mod:`repro.runner`
and the runner can import it without a cycle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .registry import DEFAULT_SECONDS_BUCKETS, MetricsRegistry

__all__ = [
    "ensure_runner_metrics",
    "ensure_store_metrics",
    "runner_counts",
    "observe_execution",
    "observe_store",
    "stats_rows",
    "format_bytes",
]

#: Scalar ``RunnerStats`` fields and the counters they are read from.
_STATS_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("sessions_executed", "repro_runner_sessions_executed_total",
     "Sessions simulated from scratch."),
    ("ticks_simulated", "repro_runner_ticks_simulated_total",
     "Simulation ticks executed across the batch."),
    ("memo_hits", "repro_runner_memo_hits_total",
     "Batch entries served from the in-memory memo."),
    ("cache_hits", "repro_runner_disk_cache_hits_total",
     "Batch entries served from the on-disk cache."),
    ("store_hits", "repro_runner_store_hits_total",
     "Batch entries served from a store-backed cache (store_dir)."),
    ("retries", "repro_runner_retries_total",
     "Execution attempts re-scheduled after a failure."),
    ("timeouts", "repro_runner_timeouts_total",
     "Execution attempts terminated for exceeding the wall budget."),
    ("corrupt_cache_entries", "repro_runner_corrupt_cache_entries_total",
     "On-disk entries that failed checksum or parsing and were quarantined."),
    ("failed_specs", "repro_runner_failed_specs_total",
     "Specs that never produced a summary."),
    ("wall_seconds", "repro_runner_wall_seconds_total",
     "Wall-clock seconds spent inside runner batches."),
    ("trace_bytes", "repro_runner_trace_bytes_total",
     "Columnar trace bytes recorded by executed sessions."),
)

#: Experiment-store counter fields (``StoreCounters`` attributes) and
#: the metric families they feed.
_STORE_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("ingests", "repro_store_ingests_total",
     "Cache writes indexed live through the store's on_store hook."),
    ("backfilled", "repro_store_backfilled_total",
     "Pre-existing blob entries indexed by lazy backfill (zero recomputes)."),
    ("queries", "repro_store_queries_total",
     "Index reads served (query/summaries)."),
    ("merged_rows", "repro_store_merged_rows_total",
     "Rows adopted from other stores by merge()."),
    ("gc_removed", "repro_store_gc_removed_total",
     "Files removed by store gc sweeps."),
)


def ensure_runner_metrics(registry: MetricsRegistry) -> None:
    """Declare the full runner metric schema on *registry* (idempotent).

    Registration is get-or-create, so a runner calls this once on its
    registry (fresh or passed in) and the exposition always carries
    the whole schema — zero-valued families included — rather than
    only what happened to fire.
    """
    for _, name, help_text in _STATS_COUNTERS:
        registry.counter(name, help_text)
    registry.counter(
        "repro_runner_cache_lookups_total",
        "Cache-tier lookups by tier (memo/disk/batch) and outcome.",
        labelnames=("tier", "outcome"),
    )
    registry.counter(
        "repro_runner_spec_outcomes_total",
        "Finished specs by report status (ok/retried/degraded/failed).",
        labelnames=("status",),
    )
    registry.counter(
        "repro_runner_waves_dispatched_total",
        "Execution waves dispatched to worker pools.",
    )
    registry.counter(
        "repro_runner_workers_terminated_total",
        "Worker processes terminated for exceeding the wall budget.",
    )
    registry.counter(
        "repro_fault_injections_total",
        "Injected fault firings across executed sessions, by fault kind.",
        labelnames=("fault",),
    )
    registry.gauge(
        "repro_runner_peak_recorder_bytes",
        "Largest single-spec trace-recorder footprint seen.",
    )
    registry.histogram(
        "repro_runner_phase_seconds",
        "Per-spec wall seconds by runner phase (compile/execute/...).",
        labelnames=("phase",),
        buckets=DEFAULT_SECONDS_BUCKETS,
    )
    registry.histogram(
        "repro_runner_session_wall_seconds",
        "End-to-end wall seconds per executed spec.",
        buckets=DEFAULT_SECONDS_BUCKETS,
    )


def ensure_store_metrics(registry: MetricsRegistry) -> None:
    """Declare the experiment-store metric families (idempotent).

    Separate from :func:`ensure_runner_metrics` so a runner without a
    store keeps its exposition unchanged; a store-backed runner calls
    both, and the store families appear zero-valued until something
    happens.
    """
    for _, name, help_text in _STORE_COUNTERS:
        registry.counter(name, help_text)


def observe_store(registry: MetricsRegistry, counters, seen: Dict[str, int]) -> None:
    """Fold an experiment store's cumulative counters into *registry*.

    Store counters (duck-typed on ``StoreCounters`` attribute names)
    are monotonic over the store object's lifetime, while registry
    counters accumulate by increments — so *seen* carries the
    last-observed values between calls and only the delta is added.
    Call after each batch (the runner does); safe to call repeatedly.
    """
    ensure_store_metrics(registry)
    for attr, name, _ in _STORE_COUNTERS:
        now = int(getattr(counters, attr, 0))
        delta = now - seen.get(attr, 0)
        if delta > 0:
            registry.counter(name).inc(delta)
        seen[attr] = now


def runner_counts(registry: MetricsRegistry) -> Dict[str, float]:
    """The scalar runner counters, keyed by their ``RunnerStats`` field."""
    return {attr: registry.get(name).value() for attr, name, _ in _STATS_COUNTERS}


def observe_execution(registry: MetricsRegistry, execution) -> None:
    """Fold one completed ``SpecExecution`` into *registry*.

    Feeds the per-phase and per-session wall histograms and the
    labelled fault-firing counter — the signals that exist per
    execution rather than per batch.  *registry* must carry the runner
    schema (:func:`ensure_runner_metrics`; every runner's does).
    """
    phases = registry.get("repro_runner_phase_seconds")
    for phase, seconds in sorted(getattr(execution, "phase_seconds", {}).items()):
        phases.observe(seconds, phase=phase)
    registry.get("repro_runner_session_wall_seconds").observe(execution.wall_seconds)
    faults = registry.get("repro_fault_injections_total")
    for fault, firings in sorted(getattr(execution, "fault_firings", {}).items()):
        faults.inc(firings, fault=fault)


def format_bytes(count: int) -> str:
    """Human-readable byte count for the stats table (binary units)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{int(size)} B"


def stats_rows(stats) -> List[Tuple[str, str]]:
    """The stable ``--stats`` table rows for one ``RunnerStats`` read.

    Every row is always present — robustness counters render ``0``
    instead of disappearing on clean runs — and *stats* is itself a
    read of the runner's registry, so the CLI table shows the same
    numbers the exposition serves.
    """
    return [
        ("sessions executed", str(stats.sessions_executed)),
        ("ticks simulated", str(stats.ticks_simulated)),
        ("memo hits", str(stats.memo_hits)),
        ("disk cache hits", str(stats.cache_hits)),
        ("store hits", str(stats.store_hits)),
        ("retries", str(stats.retries)),
        ("timeouts", str(stats.timeouts)),
        ("corrupt cache entries", str(stats.corrupt_cache_entries)),
        ("failed specs", str(stats.failed_specs)),
        ("wall time (s)", f"{stats.wall_seconds:.2f}"),
        ("ticks/second", f"{stats.ticks_per_second:.0f}"),
        ("trace bytes recorded", format_bytes(stats.trace_bytes)),
        ("peak recorder memory", format_bytes(stats.peak_recorder_bytes)),
    ]
