"""One benchmark pass, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins with an
empty import state and an empty runner memo.  The pass drives the
program only through public entry points, as one closed-loop client:
each experiment or scenario batch is submitted after the previous one
has returned, on the default serial runner.

Usage (from the repository root)::

    python3 perfbench/worker.py --workload paper --pass-dir DIR --out FILE
        [--seed N] [--traced] [--setup-only]

Workloads: ``paper`` runs the registered experiments whose sessions go
through the result cache twice, with a ``--cache-dir``-style default
runner rooted at ``DIR/cache``: cold into the empty cache, then warm,
through a fresh default runner (empty memo) that reads back what the
cold half wrote.  ``matrix-hetero`` runs the big.LITTLE scenario matrix
into a fresh store at ``DIR/store`` and reads the comparison rows back
from it.

The result is one JSON document written to ``--out``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Experiments whose sessions go through the result cache.  Figs 1-7
#: pass live ``PlatformSpec`` objects, so they never reach the cache and
#: would simulate in full in both halves of the pass; they are left out.
PAPER_IDS = (
    "table1", "table2", "fig8", "fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13",
)

#: (experiment, reproduced value, paper value) for the four headline
#: claims of the fidelity table.
PAPER_CLAIMS = (
    ("fig9a", lambda r: r.mean_saving_percent, 13.9),
    ("fig9b", lambda r: r.efficiency_gain_percent, 23.0),
    ("fig10", lambda r: r.mean_saving_percent, 5.0),
    ("fig11", lambda r: 100.0 * (1.0 - r.mean_ratio), 22.5),
)

MATRIX_PLATFORMS = ("Odroid-XU3", "Galaxy S6")
MATRIX_WORKLOADS = ("game:asphalt8", "geekbench", "busyloop")
#: Baseline first and candidate last, so each (platform, workload, seed)
#: point expands to three adjacent summaries.
MATRIX_POLICIES = ("android-default", "mobicore", "energy-aware")
#: Sessions of 15 simulated seconds (750 ticks): a pass takes about
#: 14 s on a 2-core host, so a 60 s run holds three or four passes and
#: interpreter start-up is a small share of it.
MATRIX_DURATION_S = 15.0


def _feed(digest, value, depth=0, seen=None) -> None:
    """Hash *value* canonically: floats as ``float.hex``, sequences in order."""
    import numpy as np

    if depth > 16:
        raise ValueError("result object nests too deeply to digest")
    seen = set() if seen is None else seen
    if value is None or isinstance(value, (bool, int, str)):
        digest.update(f"{type(value).__name__}:{value!r};".encode())
        return
    if isinstance(value, float):
        digest.update(f"f:{value.hex()};".encode())
        return
    if isinstance(value, np.generic):
        _feed(digest, value.item(), depth, seen)
        return
    if isinstance(value, np.ndarray):
        digest.update(f"nd:{value.dtype}:{value.shape};".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
        return
    if isinstance(value, enum.Enum):
        digest.update(f"enum:{type(value).__name__}.{value.name};".encode())
        return
    if id(value) in seen:
        digest.update(b"cycle;")
        return
    seen = seen | {id(value)}
    digest.update(f"<{type(value).__name__}>".encode())
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        # Key order is not data: a cached summary's workload_metrics come
        # back key-sorted, a fresh one's in insertion order.
        items = sorted(value.items(), key=lambda item: repr(item[0]))
    elif isinstance(value, (list, tuple)):
        items = list(enumerate(value))
    elif isinstance(value, (set, frozenset)):
        items = sorted((repr(item), item) for item in value)
    else:
        items = list(getattr(value, "__dict__", {}).items())
    for key, item in items:
        _feed(digest, key, depth + 1, seen)
        _feed(digest, item, depth + 1, seen)
    digest.update(b"</>")


def digest_of(*values) -> str:
    """sha256 over the canonical form of *values*."""
    digest = hashlib.sha256()
    for value in values:
        _feed(digest, value)
    return digest.hexdigest()


def summary_digest(summaries) -> str:
    """sha256 over ``float.hex`` of every summary field, in spec order."""
    return digest_of([dataclasses.astuple(summary) for summary in summaries])


def _run_experiments(ids):
    """Run and render *ids* in order; returns (results, texts, seconds, errors)."""
    from repro.experiments import get_experiment

    results, texts, seconds, errors = {}, {}, {}, {}
    for experiment_id in ids:
        started = time.perf_counter()
        try:
            result = get_experiment(experiment_id).run()
            texts[experiment_id] = result.render()
        except Exception as error:  # a failed experiment is reported, not fatal
            errors[experiment_id] = f"{type(error).__name__}: {error}"
            continue
        results[experiment_id] = result
        seconds[experiment_id] = time.perf_counter() - started
    return results, texts, seconds, errors


def _paper_pass(args):
    import repro.experiments  # noqa: F401  (part of setup, as in ``repro run``)
    from repro.runner import configure_default_runner

    # The runner ``repro run --cache-dir DIR`` installs.
    cache_dir = str(Path(args.pass_dir) / "cache")
    cold_runner = configure_default_runner(cache_dir=cache_dir)
    out = {"setup_s": time.perf_counter() - _STARTED}
    if args.setup_only:
        return out
    ids = list(PAPER_IDS)
    tracer = _start_tracer(args)
    began = time.perf_counter()
    results, texts, seconds, errors = _run_experiments(ids)
    out["cold_s"] = time.perf_counter() - began
    # The warm half: a second ``--cache-dir`` runner over the same
    # directory, so every session is read back from disk, not the memo.
    warm_runner = configure_default_runner(cache_dir=cache_dir)
    warm_results, warm_texts, warm_seconds, warm_errors = _run_experiments(ids)
    out["wall_s"] = time.perf_counter() - began
    out["warm_s"] = out["wall_s"] - out["cold_s"]
    _stop_tracer(tracer, out)

    errors.update({f"{eid} (warm)": error for eid, error in warm_errors.items()})
    attempted = failed = 0
    for runner in (cold_runner, warm_runner):
        stats = runner.total_stats
        attempted += stats.total + stats.failed_specs
        failed += stats.failed_specs
    out["attempted"] = attempted + len(errors)
    out["failed"] = failed + len(errors)
    out["errors"] = errors
    out["experiments"] = ids
    out["experiment_s"] = {
        eid: seconds[eid] + warm_seconds[eid]
        for eid in ids
        if eid in seconds and eid in warm_seconds
    }
    out["experiment_digests"] = {
        eid: digest_of(eid, texts[eid], results[eid]) for eid in ids if eid in results
    }
    warm_digests = {
        eid: digest_of(eid, warm_texts[eid], warm_results[eid])
        for eid in ids
        if eid in warm_results
    }
    out["checks"] = {
        "warm half reproduces the cold half bit for bit": (
            warm_digests == out["experiment_digests"]
        ),
        "warm half read every session from the cache": (
            warm_runner.total_stats.sessions_executed == 0
        ),
    }
    out["digest"] = digest_of(sorted(out["experiment_digests"].items()))
    out["memory"] = {
        "trace_bytes": sum(
            runner.total_stats.trace_bytes for runner in (cold_runner, warm_runner)
        ),
        "peak_recorder_bytes": max(
            runner.total_stats.peak_recorder_bytes for runner in (cold_runner, warm_runner)
        ),
    }
    claims = [
        abs(value(results[eid]) - paper)
        for eid, value, paper in PAPER_CLAIMS
        if eid in results
    ]
    if len(claims) == len(PAPER_CLAIMS):
        out["paper_gap_pp"] = sum(claims) / len(claims)
    return out


def _matrix_pass(args):
    from repro.analysis.comparison import comparison_rows, comparison_rows_from_store
    from repro.config import SimulationConfig
    from repro.runner import SessionRunner
    from repro.scenario import Scenario, ScenarioMatrix, run_scenarios

    runner = SessionRunner(store_dir=str(Path(args.pass_dir) / "store"))
    out = {"setup_s": time.perf_counter() - _STARTED}
    if args.setup_only:
        return out
    tracer = _start_tracer(args)
    began = time.perf_counter()
    matrix = ScenarioMatrix(
        base=Scenario(config=SimulationConfig(duration_seconds=MATRIX_DURATION_S)),
        axes=(
            ("platform", MATRIX_PLATFORMS),
            ("workload", MATRIX_WORKLOADS),
            ("seed", (args.seed,)),
            ("policy", MATRIX_POLICIES),
        ),
    )
    errors = {}
    summaries, store_rows = [], []
    try:
        summaries = run_scenarios(matrix, runner=runner)
        store_rows = comparison_rows_from_store(
            runner.store, MATRIX_POLICIES[0], MATRIX_POLICIES[-1]
        )
    except Exception as error:  # counted through the run report below
        errors["matrix"] = f"{type(error).__name__}: {error}"
    out["wall_s"] = time.perf_counter() - began
    _stop_tracer(tracer, out)

    report = runner.last_report
    out["attempted"] = len(report.outcomes) if report is not None else len(matrix)
    out["failed"] = (
        len(report.failed) if report is not None else out["attempted"]
    )
    if errors and not out["failed"]:
        out["failed"] = 1
    out["errors"] = errors
    stats = runner.total_stats
    out["memory"] = {
        "trace_bytes": stats.trace_bytes,
        "peak_recorder_bytes": stats.peak_recorder_bytes,
    }
    width = len(MATRIX_POLICIES)
    pairs = [
        summary
        for index, summary in enumerate(summaries)
        if index % width in (0, width - 1)
    ]
    direct = comparison_rows(pairs) if summaries else []
    by_point = {
        (row.baseline.platform, row.workload, row.baseline.seed): row for row in direct
    }
    from_store = {
        (row.baseline.platform, row.workload, row.baseline.seed): row
        for row in store_rows
    }
    expected = len(MATRIX_PLATFORMS) * len(MATRIX_WORKLOADS)
    out["checks"] = {
        "comparison rows: one per (platform, workload)": len(from_store) == expected,
        "comparison rows from the store equal comparison_rows over the summaries": (
            bool(from_store) and from_store == by_point
        ),
    }
    out["digest"] = digest_of(
        summary_digest(summaries), [from_store[point] for point in sorted(from_store)]
    )
    out["rows"] = [
        {
            "platform": point[0],
            "workload": point[1],
            "saving_percent": row.power_saving_percent,
        }
        for point, row in sorted(from_store.items())
    ]
    return out


def _start_tracer(args):
    if not args.traced:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _stop_tracer(tracer, out) -> None:
    if tracer is None:
        return
    from tracer import surviving_wrappers

    tracer.uninstall()
    out["surviving_wrappers"] = surviving_wrappers()
    out["trace"] = {
        "seconds": dict(tracer.seconds),
        "counts": dict(tracer.counts),
        "paths": dict(tracer.paths),
        "pairs": [
            {
                "platform": platform,
                "policy": policy,
                "sessions": pair.sessions,
                "ticks": pair.ticks,
                "run_s": pair.run_s,
                "stage_s": dict(pair.stage_s),
            }
            for (platform, policy), pair in sorted(tracer.pairs.items())
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper", "matrix-hetero"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "matrix-hetero":
        out = _matrix_pass(args)
    else:
        out = _paper_pass(args)

    import repro

    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["program"] = str(Path(repro.__file__).resolve().parent)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
