"""The repository benchmark: paper regeneration cold and warm, and a big.LITTLE matrix.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 60 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``paper``
    The registered experiments whose sessions go through the result
    cache (tables, fig8-fig13), at their registry defaults, against a
    fresh empty cache directory, rendering each result; then the same
    experiments again through a fresh ``--cache-dir`` runner, which
    reads every session back from that cache.
``matrix-hetero``
    {Odroid-XU3, Galaxy S6} x {game:asphalt8, geekbench, busyloop} x
    {android-default, mobicore, energy-aware} at ``--seed``, cold into a
    fresh store, then ``comparison_rows_from_store`` for
    android-default vs energy-aware.

The load is closed-loop with one client: each pass runs in its own
fresh interpreter (``worker.py``) on the default serial runner and
submits its next experiment or batch only after the previous one
returned.  The paper workload uses the paper's fixed inputs, so
``--seed`` does not change it.

Each invocation first makes sure a reference pass exists for this exact
source tree: one untimed ``paper`` pass per checkout, kept under
``.bench_build/perfbench/<source fingerprint>/``.  Its per-experiment
digests are what every ``paper`` pass must reproduce bit for bit, and
its ``paper_gap_pp`` is what ``matrix-hetero`` reports.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs a separate traced pass (``tracer.py``) and prints the
per-layer metrics, the tracing overhead against the untraced ``wall_s``
of this checkout's timed runs, and the per-(platform, policy)
tick-stage table.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark could not run at all (for example outside a source checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"
WORKER = HERE / "worker.py"

WORKLOADS = ("paper", "matrix-hetero")
#: Interpreters started per timed invocation to sample ``setup_s``.
SETUP_SAMPLES = 5
#: Wall-clock limits on one child process, so a hung pass cannot
#: outlive the invocation.
PASS_TIMEOUT_S = 160.0
REFERENCE_TIMEOUT_S = 600.0
#: Every child started after the reference pass ends within this many
#: seconds of it, so one invocation stays under three minutes.
MEASURE_DEADLINE_S = 170.0
#: Untraced ``wall_s`` values kept per workload, the base of the tracing
#: overhead.
WALLS_KEPT = 21

#: The experiments of the ``paper`` workload; ``BENCHMARK.json``
#: declares one ``experiments.<id>.s`` per id.
PAPER_IDS = (
    "table1", "table2", "fig8", "fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13",
)

#: (platform, policy) rows of the stage table reported as metrics: the
#: Nexus 5 policies the paper workload executes, and every big.LITTLE
#: row of the matrix.  The printed table shows every executed row.
STAGE_ROWS = (
    ("nexus5", "android-default"),
    ("nexus5", "mobicore"),
    ("odroid-xu3", "android-default"),
    ("odroid-xu3", "mobicore"),
    ("odroid-xu3", "energy-aware"),
    ("galaxys6", "android-default"),
    ("galaxys6", "mobicore"),
    ("galaxys6", "energy-aware"),
)

#: Import-time buckets: the ``repro`` subpackages that take measurable
#: time (third-party modules they pull in are charged to them), ``other``
#: for the rest of ``repro``, and scipy on its own — the first setup
#: target, imported by ``repro.analysis.stats`` for one ``t.ppf`` call.
IMPORT_BUCKETS = (
    "analysis", "experiments", "kernel", "obs", "runner", "soc", "other", "scipy",
)
SETUP_IMPORTS = (
    "repro.experiments", "repro.runner", "repro.scenario", "repro.store",
    "repro.analysis.comparison",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


#: ``time.monotonic()`` by which every child must have ended; set once
#: the reference pass exists.
_deadline = None


# -- child processes -------------------------------------------------------


def _child(command, timeout: float) -> subprocess.CompletedProcess:
    """Run one child to completion; a child past *timeout* is killed and reaped."""
    if _deadline is not None:
        timeout = min(timeout, _deadline - time.monotonic())
        if timeout <= 0:
            raise BenchError(f"no time left for {command[1:3]}")
    try:
        return subprocess.run(
            command,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{command[1:3]} did not finish in {timeout:.0f} s") from error


def worker_pass(workload: str, pass_dir: Path, seed: int = 0, traced: bool = False,
                setup_only: bool = False, timeout: float = PASS_TIMEOUT_S) -> dict:
    """One pass of *workload* in a fresh interpreter; returns its JSON."""
    out = pass_dir / "result.json"
    command = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--pass-dir", str(pass_dir), "--out", str(out),
    ]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    done = _child(command, timeout)
    if done.returncode != 0:
        raise BenchError(f"{workload} pass failed:\n{done.stderr[-3000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    expected = (ROOT / "src" / "repro").resolve()
    if Path(result["program"]) != expected:
        raise BenchError(f"pass imported {result['program']}, not {expected}")
    return result


class PassDirs:
    """Fresh scratch directories for passes, removed when the run ends."""

    def __init__(self) -> None:
        self.root = STATE / "runs" / str(os.getpid())
        self._count = 0

    def new(self) -> Path:
        self._count += 1
        path = self.root / str(self._count)
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# -- the reference pass ----------------------------------------------------


def source_fingerprint() -> str:
    """sha256 over what decides the reference pass: the program and the worker."""
    digest = hashlib.sha256()
    paths = [p for p in (ROOT / "src").rglob("*") if "__pycache__" not in p.parts]
    for path in sorted(paths) + [WORKER]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_reference(dirs: PassDirs) -> Path:
    """The reference pass for this source tree, built once per checkout.

    One untimed ``paper`` pass.  Built in a scratch directory and renamed
    into place only when complete, so an interrupted build is never
    mistaken for a finished one.  Its ``wall_s`` is the first untraced
    ``paper`` time of the checkout (the base of the tracing overhead).
    """
    fingerprint = source_fingerprint()
    final = STATE / fingerprint
    if (final / "reference.json").is_file():
        return final
    for stale in STATE.glob("*"):
        if stale.name != "runs" and stale.is_dir():
            shutil.rmtree(stale, ignore_errors=True)
    build = dirs.new()
    result = worker_pass("paper", build, timeout=REFERENCE_TIMEOUT_S)
    if result["failed"] or "paper_gap_pp" not in result or not all(
        result["checks"].values()
    ):
        raise BenchError(f"reference pass failed: {result['errors']} {result['checks']}")
    reference = {
        "experiment_digests": result["experiment_digests"],
        "paper_gap_pp": result["paper_gap_pp"],
        "wall_s": result["wall_s"],
    }
    (build / "reference.json").write_text(json.dumps(reference), encoding="utf-8")
    for leftover in build.iterdir():
        if leftover.name != "reference.json":
            shutil.rmtree(leftover) if leftover.is_dir() else leftover.unlink()
    os.replace(build, final)
    record_walls(final, "paper", [result["wall_s"]])
    return final


def _load_state(reference_dir: Path) -> dict:
    path = reference_dir / "state.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def _save_state(reference_dir: Path, state: dict) -> None:
    path = reference_dir / "state.json"
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
    os.replace(scratch, path)


def remembered_digest(reference_dir: Path, key: str, digest: str) -> str:
    """The digest first recorded for *key* in this checkout (records it if new)."""
    state = _load_state(reference_dir)
    known = state.setdefault("digests", {})
    if key not in known:
        known[key] = digest
        _save_state(reference_dir, state)
    return known[key]


def record_walls(reference_dir: Path, workload: str, walls) -> None:
    """Keep the latest untraced ``wall_s`` values of *workload* in this checkout."""
    state = _load_state(reference_dir)
    kept = state.setdefault("walls", {}).setdefault(workload, [])
    kept.extend(walls)
    del kept[:-WALLS_KEPT]
    _save_state(reference_dir, state)


def recorded_walls(reference_dir: Path, workload: str) -> list:
    return _load_state(reference_dir).get("walls", {}).get(workload, [])


# -- one workload ----------------------------------------------------------


def run_pass(workload: str, seed: int, dirs: PassDirs, reference_dir: Path,
             traced: bool = False, setup_only: bool = False) -> dict:
    pass_dir = dirs.new()
    try:
        return worker_pass(workload, pass_dir, seed, traced=traced, setup_only=setup_only)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def output_checks(workload: str, seed: int, result: dict, reference_dir: Path) -> dict:
    """Every output check of one pass, by name."""
    reference = json.loads((reference_dir / "reference.json").read_text(encoding="utf-8"))
    checks = {"no spec or experiment failed": result["failed"] == 0}
    checks.update(result.get("checks", {}))
    if "surviving_wrappers" in result:
        checks["every tracing wrapper removed after the pass"] = not result[
            "surviving_wrappers"
        ]
    if workload == "paper":
        expected = reference["experiment_digests"]
        checks["every experiment digest equals the reference pass"] = all(
            expected.get(eid) == digest
            for eid, digest in result["experiment_digests"].items()
        ) and len(result["experiment_digests"]) == len(result["experiments"])
        checks["paper_gap_pp equals the reference pass"] = (
            result.get("paper_gap_pp") == reference["paper_gap_pp"]
        )
    else:
        first = remembered_digest(reference_dir, f"{workload}:{seed}", result["digest"])
        checks["digest equals earlier runs of this seed"] = first == result["digest"]
    return checks


def _merge_checks(checks: dict, more: dict) -> None:
    """AND the checks of one more pass into *checks*."""
    for name, ok in more.items():
        checks[name] = checks.get(name, True) and ok


def end_to_end(workload: str, seed: int, seconds: float, dirs: PassDirs,
               reference_dir: Path):
    """Timed passes (no tracing): the end-to-end metrics and the checks."""
    began = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(workload, seed, dirs, reference_dir))
        spent = time.perf_counter() - began
        # Whole passes only: another one runs when it should still end
        # inside the measuring budget.
        if spent + spent / len(passes) > seconds:
            break
    setups = [result["setup_s"] for result in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(
            run_pass(workload, seed, dirs, reference_dir, setup_only=True)["setup_s"]
        )
    checks = {}
    for result in passes:
        _merge_checks(checks, output_checks(workload, seed, result, reference_dir))
    record_walls(reference_dir, workload, [result["wall_s"] for result in passes])
    reference = json.loads((reference_dir / "reference.json").read_text(encoding="utf-8"))
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "paper_gap_pp": (
            passes[0].get("paper_gap_pp", reference["paper_gap_pp"]),
            "pp",
        ),
    }
    info = {
        "passes": len(passes),
        "wall_s per pass": [round(r["wall_s"], 4) for r in passes],
        "setup_s samples": [round(s, 4) for s in setups],
        "results_digest": passes[0]["digest"],
    }
    return metrics, checks, attempted, failed, info


def import_split() -> dict:
    """Self time of every module imported at setup, by ``repro`` subpackage.

    One fresh interpreter under ``-X importtime``; see
    :func:`parse_importtime`.
    """
    code = "import sys; sys.path.insert(0, 'src'); " + "; ".join(
        f"import {name}" for name in SETUP_IMPORTS
    )
    done = _child([sys.executable, "-X", "importtime", "-c", code], PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"import probe failed:\n{done.stderr[-2000:]}")
    return parse_importtime(done.stderr)


def parse_importtime(log: str) -> dict:
    """Charge each module's self time to a bucket of :data:`IMPORT_BUCKETS`.

    A third-party module is charged to the nearest ``repro`` module above
    it in the import tree; scipy is also totalled on its own.  Returns
    ``{"seconds": {bucket: s}, "first_importer": {"numpy"|"scipy": module}}``.
    """
    rows = []
    for line in log.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)", line)
        if match:
            rows.append((int(match.group(1)) / 1e6, len(match.group(2)), match.group(3)))
    seconds = {bucket: 0.0 for bucket in IMPORT_BUCKETS}
    first_importer = {}
    stack = []  # (depth, module) ancestors; the log lists children first
    for self_s, depth, module in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        stack.append((depth, module))
        owner = next(
            (name for _, name in reversed(stack) if name.split(".")[0] == "repro"),
            None,
        )
        if owner is not None:
            subpackage = owner.split(".")[1] if "." in owner else ""
            seconds[subpackage if subpackage in IMPORT_BUCKETS else "other"] += self_s
        top = module.split(".")[0]
        if top == "scipy":
            seconds["scipy"] += self_s
        if top in ("numpy", "scipy") and owner is not None:
            # Walking backwards, the last assignment is the earliest import.
            first_importer[top] = owner
    return {"seconds": seconds, "first_importer": first_importer}


def per_layer(workload: str, seed: int, dirs: PassDirs, reference_dir: Path):
    """A traced pass: the per-layer metrics and the tracing overhead.

    The overhead is the traced ``wall_s`` minus the median untraced
    ``wall_s`` of this checkout's earlier timed runs of the workload; with
    none recorded yet, an untraced pass runs first.  The output checks
    compare the traced pass with untraced results: the reference
    pass, or the first run of the seed.
    """
    checks = {}
    if not recorded_walls(reference_dir, workload):
        plain = run_pass(workload, seed, dirs, reference_dir)
        _merge_checks(checks, output_checks(workload, seed, plain, reference_dir))
        record_walls(reference_dir, workload, [plain["wall_s"]])
    untraced_wall = statistics.median(recorded_walls(reference_dir, workload))
    traced = run_pass(workload, seed, dirs, reference_dir, traced=True)
    _merge_checks(checks, output_checks(workload, seed, traced, reference_dir))

    trace = traced["trace"]
    sec, cnt, paths = trace["seconds"], trace["counts"], trace["paths"]
    pairs = {(p["platform"], p["policy"]): p for p in trace["pairs"]}
    checks["every tick stage lies inside Session.run"] = all(
        p["run_s"] - sum(p["stage_s"].values()) >= 0.0 for p in pairs.values()
    )
    executed = sum(p["run_s"] for p in pairs.values())
    checks["stage rows add up to engine.execute_s"] = abs(
        executed - sec.get("engine.execute", 0.0)
    ) <= 1e-6 * max(1.0, executed)

    m = {}
    experiment_s = traced.get("experiment_s", {})
    for eid in PAPER_IDS:
        m[f"experiments.{eid}.s"] = (experiment_s.get(eid, 0.0), "s")
    run_report_s = sec.get("runner.run_report", 0.0)
    m["experiments.self_s"] = (
        max(0.0, sum(experiment_s.values()) - run_report_s) if experiment_s else 0.0,
        "s",
    )
    m["scenario.compile_s"] = (sec.get("scenario.compile", 0.0), "s")
    m["runner.run_report_s"] = (run_report_s, "s")
    m["runner.specs"] = (cnt.get("runner.specs", 0), "count")
    for path in ("memo", "cache", "store", "batch", "pool", "inline"):
        m[f"runner.path.{path}"] = (paths.get(path, 0), "count")
    lookups = cnt.get("runner.cache.lookup", 0)
    m["runner.cache.lookups"] = (lookups, "count")
    m["runner.cache.stores"] = (cnt.get("runner.cache.store", 0), "count")
    m["runner.cache.lookup_s"] = (sec.get("runner.cache.lookup", 0.0), "s")
    m["runner.cache.store_s"] = (sec.get("runner.cache.store", 0.0), "s")
    m["runner.cache.hit_ratio"] = (
        cnt.get("runner.cache.hits", 0) / lookups if lookups else 0.0, "ratio"
    )
    m["runner.ticks_simulated"] = (cnt.get("runner.ticks_simulated", 0), "count")
    m["runner.self_s"] = (
        max(0.0, run_report_s - sec.get("engine.spec", 0.0) - sec.get("batch.run", 0.0)
            - sec.get("runner.cache.lookup", 0.0) - sec.get("runner.cache.store", 0.0)),
        "s",
    )
    ticks = cnt.get("engine.ticks", 0)
    m["engine.execute_s"] = (sec.get("engine.execute", 0.0), "s")
    m["engine.sessions"] = (cnt.get("engine.sessions", 0), "count")
    m["engine.us_per_tick"] = (
        sec.get("engine.execute", 0.0) / ticks * 1e6 if ticks else 0.0, "us/tick"
    )
    session_ticks = cnt.get("batch.session_ticks", 0)
    m["batch.run_s"] = (sec.get("batch.run", 0.0), "s")
    m["batch.groups"] = (cnt.get("batch.run", 0), "count")
    m["batch.sessions"] = (cnt.get("batch.sessions", 0), "count")
    m["batch.us_per_session_tick"] = (
        sec.get("batch.run", 0.0) / session_ticks * 1e6 if session_ticks else 0.0,
        "us/tick",
    )
    m["store.ingests"] = (cnt.get("store.ingest", 0), "count")
    m["store.ingest_s"] = (sec.get("store.ingest", 0.0), "s")
    m["store.query_s"] = (sec.get("store.query", 0.0), "s")
    m["store.rows"] = (cnt.get("store.rows", 0), "count")
    m["memory.trace_bytes"] = (traced["memory"]["trace_bytes"], "B")
    m["memory.peak_recorder_bytes"] = (traced["memory"]["peak_recorder_bytes"], "B")
    overhead = traced["wall_s"] - untraced_wall
    m["tracing.overhead_s"] = (overhead, "s")
    m["tracing.overhead_frac"] = (overhead / untraced_wall, "ratio")

    table = {}
    for key, pair in pairs.items():
        other = pair["run_s"] - sum(pair["stage_s"].values())
        stage_s = dict(pair["stage_s"], step_other=other)
        table[key] = {
            stage: stage_s.get(stage, 0.0) / pair["ticks"] * 1e6 if pair["ticks"] else 0.0
            for stage in STAGES
        }
        table[key]["ticks"] = pair["ticks"]
    for platform, policy in STAGE_ROWS:
        row = table.get((platform, policy), {})
        for stage in STAGES:
            m[f"stage.{platform}.{policy}.{stage}.us_per_tick"] = (
                row.get(stage, 0.0), "us/tick"
            )

    split = import_split()
    for bucket in IMPORT_BUCKETS:
        m[f"setup.import.{bucket}_s"] = (split["seconds"][bucket], "s")

    info = {
        "untraced wall_s (median of this checkout's timed runs)": round(untraced_wall, 4),
        "traced wall_s": round(traced["wall_s"], 4),
        "results_digest": traced["digest"],
        "first importer": split["first_importer"],
    }
    return m, checks, traced["attempted"], traced["failed"], info, table


# -- reporting -------------------------------------------------------------


def print_stage_table(table: dict) -> None:
    short = ("demand", "dispatch", "account", "pwr/therm", "trace",
             "decide", "apply", "other")
    print("tick stages, us/tick (traced pass):")
    print(f"  {'platform':<15}{'policy':<16}{'ticks':>8}"
          + "".join(f"{name:>10}" for name in short) + f"{'total':>10}")
    for (platform, policy), row in sorted(table.items(), key=lambda kv: -kv[1]["ticks"]):
        total = sum(row[stage] for stage in STAGES)
        print(f"  {platform:<15}{policy:<16}{row['ticks']:>8}"
              + "".join(f"{row[stage]:>10.1f}" for stage in STAGES) + f"{total:>10.1f}")


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C: subprocess.run kills and reaps the
    # running child, and the pass directories are removed on the way out.
    signal.signal(signal.SIGTERM, _interrupt)
    global _deadline
    dirs = PassDirs()
    try:
        reference_dir = ensure_reference(dirs)
        _deadline = time.monotonic() + MEASURE_DEADLINE_S
        if args.trace:
            metrics, checks, attempted, failed, info, table = per_layer(
                args.workload, args.seed, dirs, reference_dir
            )
        else:
            metrics, checks, attempted, failed, info = end_to_end(
                args.workload, args.seed, args.seconds, dirs, reference_dir
            )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        dirs.close()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in declared[kind]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != expected:
        print(f"error: metrics differ from BENCHMARK.json {kind}: "
              f"{sorted(set(emitted.items()) ^ set(expected.items()))}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in info.items():
        print(f"  {name}: {value}")
    if args.trace:
        print_stage_table(table)
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<64}{value:>18.6f} {unit}")
    print("checks:")
    for name, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAILED'}] {name}")
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
