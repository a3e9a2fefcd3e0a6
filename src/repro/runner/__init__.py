"""Batch session execution: declarative specs, parallelism, caching.

The runner is the single execution service behind every sweep, policy
comparison, figure driver, and the CLI:

* :class:`~repro.runner.spec.SessionSpec` — a declarative, picklable
  description of one session (platform, policy ref, workload ref,
  config, seed, optional fault plan);
* :class:`~repro.runner.runner.SessionRunner` — executes batches of
  specs serially or over a process pool with deterministic result
  ordering, an in-memory memo, a content-addressed on-disk cache, and
  bounded retry / timeout / quarantine machinery for bad runs;
* :class:`~repro.runner.report.RunReport` — per-spec classification
  (ok / retried / degraded / failed) of what a batch actually did;
* :class:`~repro.runner.spec.FactoryRef` — the ``"module:attr"`` factory
  references that make specs portable across process boundaries.

The failure semantics (what retries, what degrades, what raises) are
documented in ``docs/FAILURE_MODES.md``.

Every runner writes its counts into a Prometheus-style metrics
registry (:mod:`repro.obs.metrics_plane`), from which its
``last_stats`` / ``total_stats`` are read.  A runner constructed with
``status_dir=`` also writes a live heartbeat file ``repro status``
tails and a ``metrics.json`` snapshot; that output is off by default.
"""

from .spec import (
    FactoryRef,
    SessionSpec,
    TraceRequest,
    CACHE_FORMAT_VERSION,
    KEY_SCHEMA_VERSION,
)
from .cache import (
    CacheLookup,
    ResultCache,
    summary_checksum,
    summary_from_dict,
    summary_to_dict,
)
from .report import RunReport, SpecOutcome
from .runner import (
    RunnerStats,
    SessionRunner,
    SpecExecution,
    configure_default_runner,
    default_runner,
    execute_spec,
    execute_spec_full,
    set_default_runner,
)

__all__ = [
    "FactoryRef",
    "SessionSpec",
    "TraceRequest",
    "CACHE_FORMAT_VERSION",
    "KEY_SCHEMA_VERSION",
    "CacheLookup",
    "ResultCache",
    "summary_to_dict",
    "summary_from_dict",
    "summary_checksum",
    "RunReport",
    "SpecOutcome",
    "RunnerStats",
    "SessionRunner",
    "SpecExecution",
    "execute_spec",
    "execute_spec_full",
    "default_runner",
    "set_default_runner",
    "configure_default_runner",
]
