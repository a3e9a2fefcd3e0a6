"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import STAGES, WRAPPED_MARK, Tracer, surviving_wrappers  # noqa: E402

from repro.config import SimulationConfig  # noqa: E402
from repro.runner import SessionRunner  # noqa: E402
from repro.scenario import Scenario, ScenarioMatrix, run_scenarios  # noqa: E402


def _attribute_snapshot():
    """Identity of every module attribute and class member under ``repro``."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            snapshot[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, item in list(vars(value).items()):
                    snapshot[(name, attr, member)] = id(item)
    return snapshot


def _matrix(policies=("android-default", "energy-aware")):
    return ScenarioMatrix(
        base=Scenario(config=SimulationConfig(duration_seconds=1.0)),
        axes=(("platform", ("Nexus 5", "Odroid-XU3")), ("policy", policies)),
    )


def test_uninstall_restores_every_attribute():
    before = _attribute_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = surviving_wrappers()
        assert "repro.kernel.engine.Session.run" in wrapped
        assert "repro.runner.runner.execute_spec_full" in wrapped
        assert "repro.core.mobicore.MobiCorePolicy.decide" in wrapped
    finally:
        tracer.uninstall()
    assert surviving_wrappers() == []
    # install() may import modules not loaded before; the scan above
    # covers those, the snapshot everything that already existed.
    after = _attribute_snapshot()
    assert {key: after[key] for key in before} == before


def test_install_twice_is_refused():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert surviving_wrappers() == []


def test_traced_run_matches_untraced_and_stages_fit_inside_sessions():
    plain = run_scenarios(_matrix(), runner=SessionRunner(memoize=False))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_scenarios(_matrix(), runner=SessionRunner(memoize=False))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert set(tracer.pairs) == {
        ("nexus5", "android-default"),
        ("nexus5", "energy-aware"),
        ("odroid-xu3", "android-default"),
        ("odroid-xu3", "energy-aware"),
    }
    for pair in tracer.pairs.values():
        assert pair.sessions == 1 and pair.ticks == 50
        assert 0.0 < sum(pair.stage_s.values()) <= pair.run_s
        assert set(pair.stage_s) == set(STAGES) - {"step_other"}
    assert tracer.counts["engine.sessions"] == 4
    assert tracer.counts["runner.specs"] == 4
    assert tracer.paths["inline"] == 4
    assert tracer.seconds["engine.execute"] == pytest.approx(
        sum(pair.run_s for pair in tracer.pairs.values())
    )


def test_nested_stage_calls_count_once():
    tracer = Tracer()
    owner = types.SimpleNamespace()

    def outer():
        return inner() + 1

    def inner():
        return 1

    owner.outer, owner.inner = outer, inner
    tracer._stage(owner, "outer", "policy_decide")
    tracer._stage(owner, "inner", "power_thermal")
    assert getattr(owner.outer, WRAPPED_MARK)
    tracer._sessions.append({"policy_decide": 0.0, "power_thermal": 0.0})
    assert owner.outer() == 2
    frame = tracer._sessions.pop()
    tracer.uninstall()
    assert frame["power_thermal"] == 0.0 and frame["policy_decide"] > 0.0
    assert owner.outer is outer and owner.inner is inner


def test_parse_importtime_charges_third_party_to_the_importing_subpackage():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:      5000 |       5000 |       scipy.special",
            "import time:      4000 |       9000 |     scipy.stats",
            "import time:        50 |       9050 |   repro.analysis.stats",
            "import time:        10 |       9360 | repro.analysis",
            "import time:        20 |         20 | repro.kernel.engine",
            "import time:         5 |         25 | repro.config",
        ]
    )
    split = run.parse_importtime(log)
    seconds = split["seconds"]
    assert seconds["analysis"] == pytest.approx(9360e-6)
    assert seconds["scipy"] == pytest.approx(9000e-6)
    assert seconds["kernel"] == pytest.approx(20e-6)
    assert seconds["other"] == pytest.approx(5e-6)
    assert split["first_importer"] == {
        "numpy": "repro.analysis",
        "scipy": "repro.analysis.stats",
    }


def test_digest_is_canonical_over_floats_and_containers():
    assert worker.digest_of([1.0, {"a": 0.1}]) == worker.digest_of([1.0, {"a": 0.1}])
    assert worker.digest_of([1.0]) != worker.digest_of([1.0 + 2**-52])
    assert worker.digest_of((1,)) != worker.digest_of((1.0,))
    assert worker.digest_of({"a": 1.0, "b": 2.0}) == worker.digest_of({"b": 2.0, "a": 1.0})
    assert worker.digest_of([1.0, 2.0]) != worker.digest_of([2.0, 1.0])
