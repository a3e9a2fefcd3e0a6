"""The shared batch execution service for simulation sessions.

Every figure of the paper reduces to a matrix of (platform, policy,
workload, seed) sessions.  :class:`SessionRunner` is the one place that
matrix gets executed: serially or over a :class:`ProcessPoolExecutor`
(``jobs=N``), with results returned in spec order regardless of worker
scheduling, an in-memory memo, and an optional content-addressed on-disk
cache.  Workers reduce each finished session to a
:class:`~repro.metrics.summary.SessionSummary` before crossing the
process boundary, so fan-out cost is per-row, not per-trace.

Sessions are deterministic given (config, seed), so serial and parallel
execution of the same batch produce bit-identical summaries — asserted
by the regression tests.

The runner is also where execution failures are absorbed instead of
propagated blindly (the contract in ``docs/FAILURE_MODES.md``):

* a crashed or hung worker fails only its in-flight specs, which are
  retried with exponential backoff up to ``retries`` times in a fresh
  pool;
* ``timeout_seconds`` bounds each spec's wall-clock execution; hung
  workers are terminated, and the spec retries like any other failure;
* a corrupt on-disk cache entry (bad checksum, truncated JSON) is
  quarantined and the spec recomputed — a *degraded* success;
* :meth:`SessionRunner.run_report` returns a
  :class:`~repro.runner.report.RunReport` classifying every spec as
  ok / retried / degraded / failed, while :meth:`SessionRunner.run`
  keeps the raising contract (any failed spec re-raises).

Only :class:`Exception` is ever absorbed — ``KeyboardInterrupt`` and
other ``BaseException`` always propagate immediately.

Drivers that do not care about runner placement use the module-level
default runner (:func:`default_runner`), which the CLI configures from
``--jobs`` / ``--cache-dir`` and the ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``
environment variables.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cache import ResultCache
from .report import STATUS_ORDER, RunReport, SpecOutcome
from .spec import SessionSpec
from ..errors import RunnerError
from ..kernel.engine import Session
from ..metrics.summary import SessionSummary, summarize
from ..obs.events import (
    RunnerCacheEvent,
    RunnerRetryEvent,
    RunnerSessionEvent,
    TraceEvent,
)
from ..obs.metrics_plane.bridge import (
    ensure_runner_metrics,
    ensure_store_metrics,
    observe_execution,
    observe_store,
    runner_counts,
)
from ..obs.metrics_plane.heartbeat import (
    HeartbeatWriter,
    heartbeat_path,
    metrics_path,
)
from ..obs.metrics_plane.registry import MetricsRegistry
from ..obs.metrics_plane.spans import SpanProfiler, set_profiler
from ..soc.platform import Platform

__all__ = [
    "RunnerStats",
    "SessionRunner",
    "SpecExecution",
    "execute_spec",
    "execute_spec_full",
    "default_runner",
    "set_default_runner",
    "configure_default_runner",
]


@dataclass
class SpecExecution:
    """Everything one executed spec sends back across the process boundary.

    Attributes:
        summary: The reduced session result (always present).
        events: The traced event stream — empty unless the spec carried a
            :class:`~repro.runner.spec.TraceRequest`.
        event_counts: Published events per ``"category:name"``, from the
            bus counters (these include events a ring buffer evicted).
        wall_seconds: Wall-clock execution time inside the worker.
        ticks: Simulation ticks the session ran.
        worker_pid: The executing process, for worker attribution.
        trace_bytes: Bytes of columnar trace data the session recorded
            (trimmed to recorded ticks).
        peak_recorder_bytes: Bytes the recorder's preallocated column
            blocks occupied — the spec's peak trace-memory footprint.
        columns: The session's columnar trace as a compressed ``.npz``
            blob, only when the spec set ``keep_columns`` (the runner
            persists it into the version-3 cache entry).
        phase_seconds: Wall seconds per execution phase (``compile``,
            ``execute``, ``summarize``…) from the worker's span
            profiler — the driver folds these into its own profiler and
            the ``repro_runner_phase_seconds`` metric histogram.
        fault_firings: Injected fault windows that fired, per fault
            kind (empty without a fault plan).
    """

    summary: SessionSummary
    events: List[TraceEvent] = field(default_factory=list)
    event_counts: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    ticks: int = 0
    worker_pid: int = 0
    trace_bytes: int = 0
    peak_recorder_bytes: int = 0
    columns: Optional[bytes] = None
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    fault_firings: Dict[str, int] = field(default_factory=dict)


def execute_spec_full(spec: SessionSpec) -> SpecExecution:
    """Run one session described by *spec*, with trace and timing.

    Module-level so a process pool can pickle it; also the single
    in-process execution path, so serial and parallel runs share code.

    Installs a fresh ambient span profiler around the execution, so the
    phase breakdown (``compile`` / ``execute`` / ``summarize`` /
    ``cache.serialize``) ships back on the result for the driver to
    aggregate — a handful of ``perf_counter`` calls per spec, cheap
    enough to leave always on.
    """
    began = time.perf_counter()
    profiler = SpanProfiler(enabled=True)
    previous = set_profiler(profiler)
    try:
        with profiler.span("compile"):
            bus = spec.trace.build_bus() if spec.trace is not None else None
            platform_spec = spec.resolve_platform_spec()
            session = Session(
                Platform.from_spec(platform_spec),
                spec.build_workload(),
                spec.build_policy(),
                spec.config,
                pin_uncore_max=spec.pin_uncore_max,
                trace=bus,
                faults=spec.faults,
            )
        result = session.run()  # records the ambient "execute" span
        with profiler.span("summarize"):
            summary = summarize(result)
        buffer = result.trace.buffer
        columns = None
        if spec.keep_columns:
            with profiler.span("cache.serialize"):
                columns = buffer.to_npz_bytes()
    finally:
        set_profiler(previous)
    return SpecExecution(
        summary=summary,
        events=bus.events if bus is not None else [],
        event_counts=bus.counts if bus is not None else {},
        wall_seconds=time.perf_counter() - began,
        ticks=session.ticks_run,
        worker_pid=os.getpid(),
        trace_bytes=buffer.nbytes,
        peak_recorder_bytes=buffer.capacity_bytes,
        columns=columns,
        phase_seconds=profiler.totals(),
        fault_firings=session.fault_firings,
    )


def execute_spec(spec: SessionSpec) -> SessionSummary:
    """Run one session described by *spec* and reduce it to a summary."""
    return execute_spec_full(spec).summary


@dataclass
class RunnerStats:
    """What a runner did, read from its metrics registry.

    :attr:`SessionRunner.last_stats` is the change one :meth:`run` call
    made to the registry, :attr:`SessionRunner.total_stats` everything
    the runner has counted since it was built.

    Attributes:
        sessions_executed: Sessions simulated from scratch.
        ticks_simulated: Total simulation ticks those sessions ran —
            zero on a fully warm cache.
        memo_hits: Batch entries served from the in-memory memo.
        cache_hits: Batch entries served from the on-disk cache.
        retries: Execution attempts re-scheduled after a failure.
        timeouts: Execution attempts terminated for exceeding
            ``timeout_seconds``.
        store_hits: Batch entries served from a store-backed cache
            (``store_dir``); counted alongside ``cache_hits``, so the
            ``--stats`` table shows how much of a batch the experiment
            store answered without simulating.
        corrupt_cache_entries: On-disk entries that failed checksum or
            parsing and were quarantined.
        failed_specs: Specs that never produced a summary.
        wall_seconds: Wall-clock duration of the :meth:`run` calls.
        spec_timings: ``(label, wall_seconds)`` pairs in completion
            order: one per spec executed on its own (label falls back to
            ``spec[<index>]`` when the spec carries none), and one per
            batch group, labelled ``batched(<n>):<first member label>``
            with the group's measured wall time — a batch runs its
            members together, so it has no per-member timing.
        trace_bytes: Total columnar trace data recorded by executed
            sessions (zero on a fully warm cache).
        peak_recorder_bytes: Largest single-spec recorder memory
            footprint seen (preallocated column blocks, not just rows
            in use): in this batch on ``last_stats``, the registry's
            ``repro_runner_peak_recorder_bytes`` gauge on
            ``total_stats``.
    """

    sessions_executed: int = 0
    ticks_simulated: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    retries: int = 0
    timeouts: int = 0
    corrupt_cache_entries: int = 0
    failed_specs: int = 0
    wall_seconds: float = 0.0
    spec_timings: List[Tuple[str, float]] = field(default_factory=list)
    trace_bytes: int = 0
    peak_recorder_bytes: int = 0

    @property
    def total(self) -> int:
        """Specs that produced a summary, whichever path served them."""
        return self.sessions_executed + self.memo_hits + self.cache_hits

    @property
    def ticks_per_second(self) -> float:
        """Batch simulation throughput (executed ticks over wall time)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.ticks_simulated / self.wall_seconds

    @classmethod
    def between(
        cls,
        before: Dict[str, float],
        after: Dict[str, float],
        spec_timings: List[Tuple[str, float]],
        peak_recorder_bytes: float,
    ) -> "RunnerStats":
        """The counts that grew between two :func:`runner_counts` reads."""
        grown = {name: after[name] - before[name] for name in after}
        wall_seconds = grown.pop("wall_seconds")
        return cls(
            wall_seconds=wall_seconds,
            spec_timings=list(spec_timings),
            peak_recorder_bytes=int(peak_recorder_bytes),
            **{name: int(value) for name, value in grown.items()},
        )


class _SpecTimeout(RunnerError):
    """One spec exceeded the runner's wall-clock budget (internal marker)."""


@dataclass
class SessionRunner:
    """Executes batches of :class:`SessionSpec`, cached and parallel.

    Attributes:
        jobs: Worker processes; 1 means in-process serial execution.
        cache_dir: Root of the on-disk result cache; None disables it.
        store_dir: Root of a store-backed cache: the same blob cache,
            wrapped in a queryable
            :class:`~repro.store.ExperimentStore` whose sqlite index
            ingests every write and serves ``repro store query`` /
            the analysis constructors afterwards.  Mutually exclusive
            with ``cache_dir`` (the store *is* the cache).  Hits served
            from a store-backed cache are additionally counted as
            ``store_hits`` in the stats.
        memoize: Keep an in-memory memo of results, so repeated
            driver calls inside one process never re-simulate (the role
            the old hand-rolled ``game_eval._CACHE`` played, now shared
            by every consumer).
        batch: Route compatible pending specs through the vectorized
            :class:`~repro.kernel.batch_engine.BatchSession` (same
            platform and timing, untraced, unfaulted, vectorizable
            policy/workload shapes) in groups of two or more.  Summaries
            are bit-identical to scalar execution and still land at
            their spec's index; everything a batch cannot take — and any
            batch that errors — transparently falls back to the normal
            pool/inline path.  Batched specs run in the driver process,
            where no wall budget can preempt them, so ``batch=True``
            cannot be combined with ``timeout_seconds``.
        retries: How many times a failed execution attempt (worker
            crash, exception, timeout) is re-scheduled before the spec
            is reported failed.  0 (the default) keeps the historical
            fail-fast behaviour.
        retry_backoff_seconds: Base delay between retry rounds; round
            *n* waits ``retry_backoff_seconds * 2**(n-1)``.
        timeout_seconds: Per-spec wall-clock budget.  Enforced by
            running specs in worker processes (even with ``jobs=1``)
            and terminating workers that exceed it.  ``None`` (the
            default) disables the budget.  Rejected together with
            ``batch=True``.
        last_stats: What the most recent :meth:`run` call added to
            :attr:`metrics`.
        last_report: The :class:`~repro.runner.report.RunReport` of the
            most recent batch (also returned by :meth:`run_report`).
        last_events: Traced event streams of the most recent batch,
            keyed by batch index (only traced specs appear).  Workers
            ship their event batches back with the summary, so traced
            runs work identically under ``jobs > 1``.
        last_event_counts: Bus counters per traced batch index (these
            include events a ring buffer evicted).
        telemetry: Runner self-observation events for the most recent
            batch (:class:`RunnerSessionEvent` per execution,
            :class:`RunnerCacheEvent` per batch entry,
            :class:`RunnerRetryEvent` per re-scheduled attempt), stamped
            with wall-clock microseconds since the batch started.
        metrics: The registry every run count is written to, once, at
            the line where the runner learns it (counters, gauges and
            histograms per the bridge schema).  A fresh one by default;
            a passed-in registry is declared the same schema.
            :attr:`last_stats`, :attr:`total_stats` and ``--stats`` are
            reads of it.
        status_dir: Directory for the live heartbeat file and the
            ``metrics.json`` snapshot (``repro status`` / ``repro
            metrics`` read them).  ``None`` (the default) disables all
            status output.
        span_profiler: The driver-side span aggregate: per-spec phase
            breakdowns shipped back by workers are merged here (one
            observation per phase per executed spec), plus the driver's
            own ``cache.read`` / ``cache.write`` spans.  Always on —
            its cost is a few ``perf_counter`` calls per spec.
    """

    jobs: int = 1
    cache_dir: Optional[Union[str, os.PathLike]] = None
    store_dir: Optional[Union[str, os.PathLike]] = None
    memoize: bool = True
    batch: bool = False
    retries: int = 0
    retry_backoff_seconds: float = 0.05
    timeout_seconds: Optional[float] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    status_dir: Optional[Union[str, os.PathLike]] = None
    last_stats: RunnerStats = field(default_factory=RunnerStats)
    last_report: Optional[RunReport] = None
    last_events: Dict[int, List[TraceEvent]] = field(default_factory=dict)
    last_event_counts: Dict[int, Dict[str, int]] = field(default_factory=dict)
    telemetry: List[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if int(self.jobs) < 1:
            raise RunnerError(f"jobs must be >= 1, got {self.jobs}")
        self.jobs = int(self.jobs)
        if int(self.retries) < 0:
            raise RunnerError(f"retries must be >= 0, got {self.retries}")
        self.retries = int(self.retries)
        if self.retry_backoff_seconds < 0:
            raise RunnerError(
                f"retry_backoff_seconds must be >= 0, got {self.retry_backoff_seconds}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise RunnerError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.timeout_seconds is not None and self.batch:
            raise RunnerError(
                "timeout_seconds cannot be combined with batch=True: batched "
                "groups run in the calling process, where no wall budget "
                "can preempt them"
            )
        if self.cache_dir and os.path.exists(self.cache_dir) and not os.path.isdir(
            self.cache_dir
        ):
            raise RunnerError(
                f"cache_dir {self.cache_dir!r} exists and is not a directory"
            )
        if self.status_dir is not None:
            if os.path.exists(self.status_dir) and not os.path.isdir(self.status_dir):
                raise RunnerError(
                    f"status_dir {self.status_dir!r} exists and is not a directory"
                )
            os.makedirs(self.status_dir, exist_ok=True)
        # Declare the whole schema up front so the exposition always
        # carries every family, zero-valued ones included.
        ensure_runner_metrics(self.metrics)
        self.store = None
        if self.store_dir is not None:
            if self.cache_dir:
                raise RunnerError(
                    "store_dir and cache_dir are mutually exclusive "
                    "(the store wraps the cache; pass one root)"
                )
            # Imported lazily: the store sits above the runner package,
            # so a top-level import would be a cycle.
            from ..store import ExperimentStore

            self.store = ExperimentStore(self.store_dir)
            self._cache = self.store.cache
            ensure_store_metrics(self.metrics)
        else:
            self._cache = ResultCache(self.cache_dir) if self.cache_dir else None
        self._memo: Dict[str, SessionSummary] = {}
        self._store_seen: Dict[str, int] = {}
        self._origin = runner_counts(self.metrics)
        self._spec_timings: List[Tuple[str, float]] = []
        self._batch_peak = 0
        self.span_profiler = SpanProfiler(enabled=True)

    @property
    def total_stats(self) -> RunnerStats:
        """Everything this runner counted since it was built.

        What ``--stats`` prints after a multi-batch command.  A registry
        shared between runners also counts the other runners' batches
        from this runner's construction on.
        """
        return RunnerStats.between(
            self._origin,
            runner_counts(self.metrics),
            self._spec_timings,
            self.metrics.get("repro_runner_peak_recorder_bytes").value(),
        )

    # -- execution -------------------------------------------------------

    def run_one(self, spec: SessionSpec) -> SessionSummary:
        """Run a single spec (through the same cache/memo path)."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[SessionSpec]) -> List[SessionSummary]:
        """Execute a batch, returning summaries in spec order.

        The raising façade over :meth:`run_report`: when any spec is
        still failed after the retry budget, the first failure's
        exception is re-raised (wrapped in a
        :class:`~repro.errors.RunnerError` when several specs failed).
        Use :meth:`run_report` directly to keep partial results.
        """
        report = self.run_report(specs)
        report.raise_on_failure()
        return list(report.summaries)  # type: ignore[arg-type]

    def run_report(self, specs: Sequence[SessionSpec]) -> RunReport:
        """Execute a batch and classify what happened to every spec.

        Specs are looked up in the memo and the on-disk cache first; the
        remainder execute in worker processes when ``jobs > 1``.  Results
        land at the index of their spec, so ordering is deterministic no
        matter how workers are scheduled.

        Traced specs (``spec.trace`` set) always execute — a cached
        summary has no event stream — but their summaries are still
        stored, warming the cache for later untraced runs.

        Failures are absorbed per spec: crashed/hung/raising executions
        retry up to ``retries`` times, corrupt cache entries are
        quarantined and recomputed, and the returned
        :class:`~repro.runner.report.RunReport` carries a summary (or
        the error) for every spec.  Interrupts always propagate.
        """
        batch_began = time.perf_counter()
        counts_before = runner_counts(self.metrics)
        timings_before = len(self._spec_timings)
        self._batch_peak = 0
        self.last_events = {}
        self.last_event_counts = {}
        self.telemetry = []

        report = RunReport()
        for index, spec in enumerate(specs):
            if not isinstance(spec, SessionSpec):
                raise RunnerError(
                    f"batch entry {index} is {type(spec).__name__}, not SessionSpec"
                )
            report.outcomes.append(
                SpecOutcome(index=index, label=report_label(spec, index))
            )
            report.summaries.append(None)

        heartbeat: Optional[HeartbeatWriter] = None
        if self.status_dir is not None:
            heartbeat = HeartbeatWriter(
                heartbeat_path(self.status_dir),
                total=len(specs),
                jobs=self.jobs,
                labels=[outcome.label for outcome in report.outcomes],
            )

        pending: List[int] = []
        keys: List[str] = []
        first_with_key: Dict[str, int] = {}
        aliases: List[int] = []

        for index, spec in enumerate(specs):
            outcome = report.outcomes[index]
            key = spec.cache_key()
            keys.append(key)
            if spec.trace is not None:
                # Traced specs bypass memo/cache/alias: only a real
                # execution produces the event stream.
                pending.append(index)
                continue
            if spec.keep_columns and (
                self._cache is None or not self._cache.has_columns(key)
            ):
                # A column-keeping spec is only served from cache when the
                # entry already carries its blob; otherwise it re-executes
                # (and the execution stores summary + columns together).
                pending.append(index)
                first_with_key.setdefault(key, index)
                continue
            if key in first_with_key:
                # Duplicate spec within the batch: simulate once, copy after.
                aliases.append(index)
                continue
            first_with_key[key] = index
            if self.memoize and key in self._memo:
                report.summaries[index] = self._memo[key]
                outcome.source = "memo"
                self._count("repro_runner_memo_hits_total")
                self._lookup(batch_began, "memo", "hit", "memo_hit", key, spec)
                if heartbeat is not None:
                    heartbeat.spec(index, outcome.label, "done", source="memo")
                continue
            if self._cache is not None:
                with self.span_profiler.span("cache.read"):
                    lookup = self._cache.lookup(key)
                if lookup.hit:
                    report.summaries[index] = lookup.summary
                    outcome.source = "cache"
                    if self.memoize:
                        self._memo[key] = lookup.summary
                    self._count("repro_runner_disk_cache_hits_total")
                    if self.store is not None:
                        self._count("repro_runner_store_hits_total")
                    self._lookup(batch_began, "disk", "hit", "cache_hit", key, spec)
                    if heartbeat is not None:
                        heartbeat.spec(index, outcome.label, "done", source="cache")
                    continue
                if lookup.corrupt:
                    # Quarantine-and-recompute: the entry is preserved
                    # for post-mortem, the spec re-executes from scratch.
                    self._cache.quarantine(key)
                    self._count("repro_runner_corrupt_cache_entries_total")
                    outcome.escalate("degraded")
                    outcome.detail = f"corrupt cache entry quarantined ({lookup.detail})"
                    self._lookup(batch_began, "disk", "corrupt", "corrupt", key, spec)
                    pending.append(index)
                    continue
            pending.append(index)
            self._lookup(batch_began, "disk", "miss", "miss", key, spec)

        if self.batch and pending:
            pending = self._run_batched(
                specs, pending, keys, report, batch_began, heartbeat
            )

        use_pool = (self.jobs > 1 and len(pending) > 1) or (
            self.timeout_seconds is not None and bool(pending)
        )

        last_error: Dict[int, Exception] = {}

        def wave_started(wave: List[int]) -> None:
            """Heartbeat: mark a dispatched wave's specs as running."""
            if heartbeat is None:
                return
            for wave_index in wave:
                outcome = report.outcomes[wave_index]
                heartbeat.spec(
                    wave_index, outcome.label, "running",
                    attempts=outcome.attempts + 1,
                )
            heartbeat.progress()

        def wave_finished(results: Dict[int, Union[SpecExecution, Exception]]) -> None:
            """Heartbeat: mark a finished wave's specs done or error."""
            if heartbeat is None:
                return
            for wave_index in sorted(results):
                outcome = report.outcomes[wave_index]
                execution = results[wave_index]
                if isinstance(execution, SpecExecution):
                    heartbeat.spec(
                        wave_index, outcome.label, "done",
                        attempts=outcome.attempts + 1,
                        source="executed",
                        wall_seconds=execution.wall_seconds,
                    )
                else:
                    heartbeat.spec(
                        wave_index, outcome.label, "error",
                        attempts=outcome.attempts + 1,
                        error=str(execution) or type(execution).__name__,
                    )
            heartbeat.progress()

        remaining_pool = list(pending) if use_pool else []
        remaining_inline = [] if use_pool else sorted(pending)
        for round_number in range(self.retries + 1):
            if not remaining_pool and not remaining_inline:
                break
            if round_number:
                delay = self.retry_backoff_seconds * (2 ** (round_number - 1))
                if delay > 0:
                    time.sleep(delay)
            attempt: Dict[int, Union[SpecExecution, Exception]] = {}
            if remaining_pool:
                attempt.update(
                    self._attempt_parallel(
                        specs,
                        remaining_pool,
                        self.timeout_seconds,
                        on_wave_start=wave_started,
                        on_wave_end=wave_finished,
                    )
                )
            for index in remaining_inline:
                wave_started([index])
                result = self._attempt_inline(specs[index])
                attempt[index] = result
                wave_finished({index: result})
            pool_set = set(remaining_pool)
            remaining_pool, remaining_inline = [], []
            for index in sorted(attempt):
                execution = attempt[index]
                outcome = report.outcomes[index]
                outcome.attempts += 1
                if isinstance(execution, SpecExecution):
                    report.summaries[index] = execution.summary
                    self._record_executed(
                        index, specs[index], execution, keys[index], batch_began
                    )
                    self._spec_timings.append(
                        (report_label(specs[index], index), execution.wall_seconds)
                    )
                    if outcome.attempts > 1:
                        outcome.escalate("retried")
                    continue
                last_error[index] = execution
                outcome.error = str(execution) or type(execution).__name__
                outcome.error_type = type(execution).__name__
                if isinstance(execution, _SpecTimeout):
                    self._count("repro_runner_timeouts_total")
                if index in pool_set:
                    remaining_pool.append(index)
                else:
                    remaining_inline.append(index)
            if (remaining_pool or remaining_inline) and round_number < self.retries:
                for index in remaining_pool + remaining_inline:
                    self._count("repro_runner_retries_total")
                    self._tell(
                        batch_began,
                        RunnerRetryEvent,
                        label=report.outcomes[index].label,
                        attempt=report.outcomes[index].attempts,
                        error=report.outcomes[index].error,
                    )
                    if heartbeat is not None:
                        # Back in the queue for the next round; the error
                        # text rides along so the live view shows why.
                        heartbeat.spec(
                            index,
                            report.outcomes[index].label,
                            "queued",
                            attempts=report.outcomes[index].attempts,
                            error=report.outcomes[index].error,
                        )

        for index in remaining_pool + remaining_inline:
            outcome = report.outcomes[index]
            outcome.escalate("failed")
            outcome.source = "none"
            report.errors[index] = last_error[index]
            self._count("repro_runner_failed_specs_total")

        for index in aliases:
            outcome = report.outcomes[index]
            source_index = first_with_key[keys[index]]
            summary = report.summaries[source_index]
            if summary is not None:
                report.summaries[index] = summary
                outcome.source = "alias"
                self._count("repro_runner_memo_hits_total")
                self._lookup(batch_began, "batch", "alias", "alias", keys[index], specs[index])
                if heartbeat is not None:
                    heartbeat.spec(index, outcome.label, "done", source="alias")
            else:
                # The spec this one aliases never produced a summary.
                origin = report.outcomes[source_index]
                outcome.escalate("failed")
                outcome.source = "none"
                outcome.error = origin.error
                outcome.error_type = origin.error_type
                report.errors[index] = report.errors.get(
                    source_index,
                    RunnerError(f"aliased spec {origin.label} failed"),
                )
                self._count("repro_runner_failed_specs_total")
                if heartbeat is not None:
                    heartbeat.spec(
                        index, outcome.label, "error", error=outcome.error
                    )

        wall_seconds = time.perf_counter() - batch_began
        self._count("repro_runner_wall_seconds_total", wall_seconds)
        for outcome in report.outcomes:
            self._count("repro_runner_spec_outcomes_total", status=outcome.status)
        self.last_stats = RunnerStats.between(
            counts_before,
            runner_counts(self.metrics),
            self._spec_timings[timings_before:],
            self._batch_peak,
        )
        self.last_report = report
        if heartbeat is not None:
            heartbeat.finish(
                {status: len(report.by_status(status)) for status in STATUS_ORDER},
                wall_seconds,
            )
        if self.store is not None:
            observe_store(self.metrics, self.store.counters, self._store_seen)
        if self.status_dir is not None:
            self._dump_metrics()
        return report

    # -- attempt machinery ----------------------------------------------

    @staticmethod
    def _attempt_inline(spec: SessionSpec) -> Union[SpecExecution, Exception]:
        """One in-process execution attempt; exceptions become values.

        Only :class:`Exception` is absorbed — ``KeyboardInterrupt`` and
        friends propagate to the caller untouched.
        """
        try:
            return execute_spec_full(spec)
        except Exception as error:
            return error

    def _attempt_parallel(
        self,
        specs: Sequence[SessionSpec],
        indices: List[int],
        timeout: Optional[float],
        on_wave_start=None,
        on_wave_end=None,
    ) -> Dict[int, Union[SpecExecution, Exception]]:
        """One pooled execution attempt per index, in waves.

        Specs are dispatched in waves of at most ``jobs`` so every spec
        in a wave starts immediately — which is what makes
        ``timeout_seconds`` a genuine *per-spec* budget (measured from
        its wave's start) instead of a whole-batch one.

        ``on_wave_start(wave)`` / ``on_wave_end(results)`` fire around
        each wave — the heartbeat hooks that make ``repro status`` live
        per wave rather than per batch.
        """
        outcomes: Dict[int, Union[SpecExecution, Exception]] = {}
        wave_size = max(1, min(self.jobs, len(indices)))
        position = 0
        while position < len(indices):
            wave = indices[position : position + wave_size]
            position += len(wave)
            if on_wave_start is not None:
                on_wave_start(wave)
            wave_outcomes = self._run_wave(specs, wave, timeout)
            if on_wave_end is not None:
                on_wave_end(wave_outcomes)
            outcomes.update(wave_outcomes)
        return outcomes

    def _run_wave(
        self,
        specs: Sequence[SessionSpec],
        wave: List[int],
        timeout: Optional[float],
    ) -> Dict[int, Union[SpecExecution, Exception]]:
        """Run one wave in a fresh pool, enforcing the wall-clock budget.

        A fresh pool per wave keeps failure domains small: a worker
        crash breaks only this wave's pool (every in-flight future of a
        broken pool fails — that blast radius is part of the documented
        contract), and terminated hung workers cannot poison later
        waves.
        """
        outcomes: Dict[int, Union[SpecExecution, Exception]] = {}
        pool = ProcessPoolExecutor(max_workers=len(wave))
        self._count("repro_runner_waves_dispatched_total")
        timed_out = False
        try:
            futures = {pool.submit(execute_spec_full, specs[i]): i for i in wave}
            deadline = None if timeout is None else time.monotonic() + float(timeout)
            not_done = set(futures)
            while not_done:
                wait_for = None
                if deadline is not None:
                    wait_for = deadline - time.monotonic()
                    if wait_for <= 0:
                        timed_out = True
                        break
                done, not_done = wait(not_done, timeout=wait_for)
                for future in done:
                    index = futures[future]
                    try:
                        outcomes[index] = future.result()
                    except Exception as error:
                        outcomes[index] = error
            if timed_out:
                # Hung workers hold the GIL-free sleep forever; reclaim
                # them by force, then classify the unfinished specs.
                self._count(
                    "repro_runner_workers_terminated_total",
                    self._terminate_workers(pool),
                )
                for future in not_done:
                    index = futures[future]
                    label = report_label(specs[index], index)
                    outcomes[index] = _SpecTimeout(
                        f"{label} timed out after {timeout:g}s (worker terminated)"
                    )
        finally:
            pool.shutdown(wait=not timed_out, cancel_futures=True)
        return outcomes

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> int:
        """Force-kill a pool's worker processes (hung-worker reclaim).

        Returns how many workers were terminated, for the
        ``repro_runner_workers_terminated_total`` counter.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        return len(processes)

    # -- bookkeeping -----------------------------------------------------

    def _tell(self, batch_began: float, event_cls, **fields) -> None:
        """Append one runner-telemetry event (wall-clock timestamped)."""
        ts_us = int((time.perf_counter() - batch_began) * 1_000_000)
        self.telemetry.append(event_cls(ts_us=ts_us, **fields))

    def _count(self, name: str, amount: float = 1, **labels: str) -> None:
        """Add *amount* to the registry counter called *name*."""
        self.metrics.get(name).inc(amount, **labels)

    def _lookup(
        self, batch_began: float, tier: str, result: str, event: str, key: str,
        spec: SessionSpec,
    ) -> None:
        """Count one cache-tier lookup and emit its ``RunnerCacheEvent``."""
        self._count("repro_runner_cache_lookups_total", tier=tier, outcome=result)
        self._tell(batch_began, RunnerCacheEvent, outcome=event, key=key, label=spec.label)

    def _run_batched(
        self,
        specs: Sequence[SessionSpec],
        pending: List[int],
        keys: List[str],
        report: RunReport,
        batch_began: float,
        heartbeat,
    ) -> List[int]:
        """Drain batchable pending specs through vectorized BatchSessions.

        Pending specs are grouped by
        :func:`~repro.kernel.batch_engine.batch_compatibility_key`;
        every group of two or more whose members all vectorize runs as
        one :class:`~repro.kernel.batch_engine.BatchSession` in the
        driver process.  Results are written at each spec's own batch
        index (grouping never reorders the report) and recorded through
        the same memo/cache/telemetry path as a pool execution.  Specs a
        batch cannot take — unbatchable shapes, scalar-fallback members,
        groups that error — are returned still pending, so the normal
        pool/inline machinery picks them up unchanged.
        """
        from ..kernel.batch_engine import BatchSession, batch_compatibility_key

        groups: Dict[tuple, List[int]] = {}
        for index in pending:
            group_key = batch_compatibility_key(specs[index])
            if group_key is not None:
                groups.setdefault(group_key, []).append(index)

        handled: set = set()
        for members in groups.values():
            if len(members) < 2:
                continue
            try:
                batch = BatchSession([specs[i] for i in members])
                if batch.fallback_count:
                    # Leave scalar-fallback members to the worker pool,
                    # which can at least run them in parallel.
                    dropped = set(batch.fallback_positions)
                    members = [
                        index
                        for position, index in enumerate(members)
                        if position not in dropped
                    ]
                    if len(members) < 2:
                        continue
                    batch = BatchSession([specs[i] for i in members])
                    if batch.fallback_count:
                        continue
                if heartbeat is not None:
                    for index in members:
                        heartbeat.spec(
                            index, report.outcomes[index].label, "running", attempts=1
                        )
                    heartbeat.progress()
                started = time.perf_counter()
                summaries = batch.run()
            except Exception:
                # Any batch-path failure is absorbed: the members stay
                # pending and re-execute through the scalar path.
                continue
            wall = time.perf_counter() - started
            share = wall / len(members)
            for position, index in enumerate(members):
                execution = SpecExecution(
                    summary=summaries[position],
                    wall_seconds=share,
                    ticks=specs[index].config.total_ticks,
                    worker_pid=os.getpid(),
                )
                outcome = report.outcomes[index]
                outcome.attempts += 1
                outcome.detail = f"batched({len(members)})"
                report.summaries[index] = execution.summary
                self._record_executed(
                    index, specs[index], execution, keys[index], batch_began
                )
                if heartbeat is not None:
                    heartbeat.spec(
                        index,
                        outcome.label,
                        "done",
                        attempts=1,
                        source="batch",
                        wall_seconds=share,
                    )
            # One timing per group: its members ran together.
            first = members[0]
            group_label = f"batched({len(members)}):{report_label(specs[first], first)}"
            self._spec_timings.append((group_label, wall))
            handled.update(members)
            if heartbeat is not None:
                heartbeat.progress()
        if not handled:
            return pending
        return [index for index in pending if index not in handled]

    def _record_executed(
        self,
        index: int,
        spec: SessionSpec,
        execution: SpecExecution,
        key: str,
        batch_began: float,
    ) -> None:
        self._count("repro_runner_sessions_executed_total")
        self._count("repro_runner_ticks_simulated_total", spec.config.total_ticks)
        self._count("repro_runner_trace_bytes_total", execution.trace_bytes)
        self.metrics.get("repro_runner_peak_recorder_bytes").set_max(
            execution.peak_recorder_bytes
        )
        self._batch_peak = max(self._batch_peak, execution.peak_recorder_bytes)
        label = report_label(spec, index)
        self._tell(
            batch_began,
            RunnerSessionEvent,
            label=label,
            wall_seconds=execution.wall_seconds,
            ticks=execution.ticks,
            worker_pid=execution.worker_pid,
        )
        self.span_profiler.merge(execution.phase_seconds)
        observe_execution(self.metrics, execution)
        if spec.trace is not None:
            self.last_events[index] = execution.events
            self.last_event_counts[index] = execution.event_counts
        if self.memoize:
            self._memo[key] = execution.summary
        if self._cache is not None:
            with self.span_profiler.span("cache.write"):
                self._cache.store(
                    key,
                    execution.summary,
                    spec.cache_payload(),
                    columns=execution.columns,
                )

    def _dump_metrics(self) -> None:
        """Atomically persist the registry snapshot as ``metrics.json``.

        Write-then-rename, so a concurrent ``repro metrics`` never reads
        a half-written snapshot.
        """
        assert self.status_dir is not None
        target = metrics_path(self.status_dir)
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(self.metrics.to_json(), encoding="utf-8")
        os.replace(scratch, target)

    def clear_memo(self) -> None:
        """Drop the in-memory memo (the on-disk cache is untouched)."""
        self._memo.clear()


def report_label(spec: SessionSpec, index: int) -> str:
    """The label a spec reports under (positional fallback included)."""
    return spec.label or f"spec[{index}]"


# -- the process-wide default runner ------------------------------------

_default: Optional[SessionRunner] = None


def default_runner() -> SessionRunner:
    """The shared runner drivers fall back to when not handed one.

    Created lazily from the ``REPRO_JOBS`` and ``REPRO_CACHE_DIR``
    environment variables (serial, no disk cache, memo on by default).
    """
    global _default
    if _default is None:
        _default = SessionRunner(
            jobs=int(os.environ.get("REPRO_JOBS", "1")),
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
        )
    return _default


def set_default_runner(runner: Optional[SessionRunner]) -> None:
    """Install (or with None, reset) the process-wide default runner."""
    global _default
    _default = runner


def configure_default_runner(
    jobs: int = 1,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    retries: int = 0,
    timeout_seconds: Optional[float] = None,
    status_dir: Optional[Union[str, os.PathLike]] = None,
    store_dir: Optional[Union[str, os.PathLike]] = None,
) -> SessionRunner:
    """Build, install, and return a default runner with these settings."""
    runner = SessionRunner(
        jobs=jobs,
        cache_dir=cache_dir,
        store_dir=store_dir,
        retries=retries,
        timeout_seconds=timeout_seconds,
        status_dir=status_dir,
    )
    set_default_runner(runner)
    return runner
