"""Replay helpers for ``tests/data/golden_tick_paths.json``.

The golden file pins the scalar tick path the paper's evaluation runs
on: for each point it stores the :class:`~repro.scenario.Scenario`
payload, the runner cache key, every summary field (floats as
``float.hex``), the transition counters, the fault firings and a sha256
over the session's ``keep_columns`` trace blob.  :func:`fingerprint`
re-runs one point through the runner's single execution path and returns
the same record, so a replay is one dict comparison.

Kept free of pytest so ``benchmarks/bench_tick.py`` can assert parity
with it before timing anything.
"""

import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.runner.cache import summary_to_dict
from repro.runner.runner import execute_spec_full
from repro.scenario import Scenario, compile_scenario

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_tick_paths.json"


def load_golden():
    """The golden points, keyed by label."""
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def encode(value):
    """*value* with every float replaced by its ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: encode(item) for key, item in sorted(value.items())}
    return value


def columns_sha256(blob):
    """sha256 over every array of a ``.npz`` column blob, in name order."""
    digest = hashlib.sha256()
    with np.load(io.BytesIO(blob)) as archive:
        for name in sorted(archive.files):
            array = np.ascontiguousarray(archive[name])
            digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def fingerprint(scenario_doc):
    """Run one golden point and return its record (without the payload)."""
    spec = replace(
        compile_scenario(Scenario.from_payload(scenario_doc)), keep_columns=True
    )
    execution = execute_spec_full(spec)
    return {
        "cache_key": spec.cache_key(),
        "summary": encode(summary_to_dict(execution.summary)),
        "ticks": execution.ticks,
        "fault_firings": dict(sorted(execution.fault_firings.items())),
        "columns_sha256": columns_sha256(execution.columns),
    }
