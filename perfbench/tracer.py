"""Class-level timing wrappers for the traced benchmark pass.

The traced pass measures where host time goes without touching the
program: :class:`Tracer` replaces the public functions of each layer
(runner, cache, store, scenario compiler, engine, batch engine, and the
per-tick stages of ``Session._step_core``) with timing wrappers at class
or module level, and puts every original object back on
:meth:`Tracer.uninstall`.  Timed passes never construct a tracer.

Tick stages are attributed to the (platform, policy) of the session
whose ``Session.run`` is executing.  Only the outermost stage call of a
session counts: a stage function called from inside another stage (a
policy reading the power model, say) is part of the outer stage.  So a
session's stage times never overlap, and ``step_other`` — the part of
``Session.run`` no stage covers — is never negative.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Marker set on every wrapper, so a scan can prove none survived.
WRAPPED_MARK = "__perfbench_wrapped__"

#: The tick stages, in ``Session._step_core`` order; ``step_other`` is
#: the remainder of ``Session.run``.
STAGES = (
    "workload_demand",
    "scheduler_dispatch",
    "accounting",
    "power_thermal",
    "trace_record",
    "policy_decide",
    "kernel_apply",
    "step_other",
)

_clock = time.perf_counter


def slug(text: str) -> str:
    """A metric-name-safe form: ``"Nexus 5" -> "nexus5"``."""
    return re.sub(r"[^a-z0-9-]", "", text.lower())


def policy_key(name: str) -> str:
    """The registry family of a policy name: ``"static(2c@..)" -> "static"``."""
    return slug(name.split("(", 1)[0])


class _Pair:
    """Stage accounting of every session run on one (platform, policy)."""

    def __init__(self) -> None:
        self.sessions = 0
        self.ticks = 0
        self.run_s = 0.0
        self.stage_s: Dict[str, float] = defaultdict(float)


class Tracer:
    """Installs, accumulates, and removes the traced pass's wrappers."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.paths: Dict[str, int] = defaultdict(int)
        self.pairs: Dict[Tuple[str, str], _Pair] = defaultdict(_Pair)
        self._open: Dict[str, int] = defaultdict(int)
        self._sessions: List[Dict[str, float]] = []
        self._stage_open = False
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def _patch(self, owner: object, name: str, make: Callable) -> None:
        original = vars(owner)[name]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner!r}.{name} is not a plain function")
        wrapper = functools.wraps(original)(make(original))
        setattr(wrapper, WRAPPED_MARK, True)
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _span(self, owner: object, name: str, metric: str, after=None) -> None:
        """Time the outermost call of *metric* (nested calls are inside it)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                if self._open[metric]:
                    return fn(*args, **kwargs)
                self._open[metric] += 1
                began = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.seconds[metric] += _clock() - began
                    self.counts[metric] += 1
                    self._open[metric] -= 1
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        self._patch(owner, name, make)

    def _stage(self, owner: type, name: str, stage: str) -> None:
        """Charge the outermost stage call to the running session."""
        def make(fn):
            def wrapper(*args, **kwargs):
                if self._stage_open or not self._sessions:
                    return fn(*args, **kwargs)
                self._stage_open = True
                began = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._sessions[-1][stage] += _clock() - began
                    self._stage_open = False
            return wrapper
        self._patch(owner, name, make)

    def _session_run(self, owner: type) -> None:
        def make(fn):
            def wrapper(session, *args, **kwargs):
                frame: Dict[str, float] = defaultdict(float)
                self._sessions.append(frame)
                outer_stage, self._stage_open = self._stage_open, False
                began = _clock()
                try:
                    result = fn(session, *args, **kwargs)
                finally:
                    elapsed = _clock() - began
                    self._sessions.pop()
                    self._stage_open = outer_stage
                pair = self.pairs[
                    (slug(session.platform.spec.name), policy_key(session.policy.name))
                ]
                pair.sessions += 1
                pair.ticks += session.ticks_run
                pair.run_s += elapsed
                for stage, seconds in frame.items():
                    pair.stage_s[stage] += seconds
                self.seconds["engine.execute"] += elapsed
                self.counts["engine.sessions"] += 1
                self.counts["engine.ticks"] += session.ticks_run
                return result
            return wrapper
        self._patch(owner, "run", make)

    def install(self) -> None:
        """Wrap every traced function; the program must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.kernel import batch_engine, engine, trace_buffer
        from repro.kernel.cpuidle import CpuidleStats
        from repro.kernel.procstat import ProcStat
        from repro.kernel.scheduler import LoadBalancingScheduler
        from repro.policies.base import CpuPolicy
        from repro.runner import cache, runner
        from repro.scenario import compile as scenario_compile
        from repro.soc.cpu_core import CpuCore
        from repro.soc.platform import Platform
        from repro.soc.thermal import ThermalModel
        from repro.store.store import ExperimentStore
        from repro.workloads.base import Workload

        self._span(runner.SessionRunner, "run_report", "runner.run_report",
                   after=self._tally_report)
        self._span(runner, "execute_spec_full", "engine.spec")
        self._span(cache.ResultCache, "lookup", "runner.cache.lookup",
                   after=self._tally_lookup)
        self._span(cache.ResultCache, "store", "runner.cache.store")
        self._span(scenario_compile, "compile_scenario", "scenario.compile")
        self._span(scenario_compile, "compile_matrix", "scenario.compile")
        self._span(batch_engine.BatchSession, "run", "batch.run",
                   after=self._tally_batch)
        self._span(ExperimentStore, "ingest", "store.ingest")
        self._span(ExperimentStore, "query", "store.query", after=self._tally_rows)
        self._span(ExperimentStore, "summaries", "store.query", after=self._tally_rows)
        self._session_run(engine.Session)

        for cls in _defining(Workload, "demand"):
            self._stage(cls, "demand", "workload_demand")
        for cls in _defining(Workload, "record_execution"):
            self._stage(cls, "record_execution", "workload_demand")
        self._stage(LoadBalancingScheduler, "dispatch", "scheduler_dispatch")
        self._stage(CpuCore, "account", "accounting")
        self._stage(ProcStat, "record", "accounting")
        self._stage(CpuidleStats, "record", "accounting")
        self._stage(Platform, "power_breakdown", "power_thermal")
        self._stage(ThermalModel, "step", "power_thermal")
        # TraceRecorder binds ``record_tick`` to ``TraceBuffer.append`` per
        # instance, so recorders built after install see the wrapper.
        self._stage(trace_buffer.TraceBuffer, "append", "trace_record")
        for cls in _defining(CpuPolicy, "decide"):
            self._stage(cls, "decide", "policy_decide")
        for cls in _defining(CpuPolicy, "validate_decision"):
            self._stage(cls, "validate_decision", "policy_decide")
        self._stage(engine.KernelStack, "apply", "kernel_apply")

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- tallies fed by the wrappers -------------------------------------

    def _tally_report(self, args, report) -> None:
        """Path accounting from the public ``RunReport`` and telemetry."""
        from repro.obs.events import RunnerSessionEvent

        runner = args[0]
        self.counts["runner.specs"] += len(report.outcomes)
        self.counts["runner.ticks_simulated"] += runner.last_stats.ticks_simulated
        executed = batched = 0
        for outcome in report.outcomes:
            if outcome.source in ("memo", "alias"):
                self.paths["memo"] += 1
            elif outcome.source == "cache":
                self.paths["store" if runner.store is not None else "cache"] += 1
            elif outcome.source == "executed":
                executed += 1
                batched += outcome.detail.startswith("batched(")
        pooled = sum(
            1
            for event in runner.telemetry
            if isinstance(event, RunnerSessionEvent) and event.worker_pid != os.getpid()
        )
        self.paths["batch"] += batched
        self.paths["pool"] += pooled
        self.paths["inline"] += executed - batched - pooled

    def _tally_lookup(self, args, lookup) -> None:
        self.counts["runner.cache.hits"] += bool(lookup.hit)

    def _tally_batch(self, args, summaries) -> None:
        batch = args[0]
        self.counts["batch.sessions"] += len(batch.specs)
        self.counts["batch.session_ticks"] += sum(
            spec.config.total_ticks for spec in batch.specs
        )

    def _tally_rows(self, args, rows) -> None:
        self.counts["store.rows"] += len(rows)


def _defining(base: type, name: str) -> List[type]:
    """*base* and its subclasses that define a concrete *name* themselves."""
    found, stack, seen = [], [base], set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        function = vars(cls).get(name)
        if isinstance(function, types.FunctionType) and not getattr(
            function, "__isabstractmethod__", False
        ):
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def surviving_wrappers() -> List[str]:
    """Every wrapper still reachable from a loaded ``repro`` module.

    Scans module attributes and the attributes of every class those
    modules define; an empty list proves the traced pass left nothing
    behind.
    """
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type) and value.__module__ == module_name:
                for name, member in vars(value).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{module_name}.{value.__qualname__}.{name}")
    return sorted(set(found))
