"""Compiler: Scenario -> SessionSpec, legacy parity, and the wiring gate."""

import json
import re
from pathlib import Path

import pytest

from repro.config import SimulationConfig
from repro.errors import RegistryError, ScenarioError
from repro.runner.cache import summary_to_dict
from repro.runner.runner import SessionRunner
from repro.runner.spec import FactoryRef, SessionSpec
from repro.scenario import (
    Scenario,
    ScenarioMatrix,
    compile_matrix,
    compile_scenario,
    load_scenarios,
    run_scenarios,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
PAPER_EVAL = REPO_ROOT / "examples" / "scenarios" / "paper_eval.json"

SHORT = SimulationConfig(duration_seconds=5.0, seed=1, warmup_seconds=1.0)


class TestCompile:
    def test_compiled_spec_is_portable_and_named_by_catalog_key(self):
        spec = compile_scenario(Scenario(policy="mobicore"))
        assert isinstance(spec.policy, FactoryRef)
        assert isinstance(spec.workload, FactoryRef)
        # Platform stays the catalog name string, keeping compiled specs
        # on the same cache addresses as hand-wired ones.
        assert spec.platform == "Nexus 5"

    def test_pass_platform_policy_receives_the_scenario_platform(self):
        spec = compile_scenario(Scenario(policy="mobicore", platform="Nexus 4"))
        assert ("platform", "Nexus 4") in spec.policy.kwargs

    def test_explicit_policy_param_beats_platform_injection(self):
        spec = compile_scenario(
            Scenario(
                policy="mobicore",
                platform="Nexus 4",
                policy_params={"platform": "LG G3"},
            )
        )
        assert ("platform", "LG G3") in spec.policy.kwargs

    def test_default_label_names_the_grid_point(self):
        spec = compile_scenario(Scenario(workload="geekbench", policy="mobicore"))
        assert spec.label == "geekbench/mobicore@0"
        labelled = compile_scenario(Scenario(label="mine"))
        assert labelled.label == "mine"

    def test_unknown_names_raise_registry_errors(self):
        with pytest.raises(RegistryError, match="unknown platform"):
            compile_scenario(Scenario(platform="Pixel 9"))
        with pytest.raises(RegistryError, match="unknown policy"):
            compile_scenario(Scenario(policy="nope"))
        with pytest.raises(RegistryError, match="unknown workload"):
            compile_scenario(Scenario(workload="nope"))

    def test_compile_matrix_preserves_expansion_order(self):
        matrix = ScenarioMatrix(axes={"seed": [1, 2]})
        specs = compile_matrix(matrix)
        assert [spec.config.seed for spec in specs] == [1, 2]

    def test_non_scenario_inputs_are_typed_errors(self):
        with pytest.raises(ScenarioError, match="expected a Scenario"):
            compile_scenario("not a scenario")
        with pytest.raises(ScenarioError, match="expected a ScenarioMatrix"):
            compile_matrix("not a matrix")


class TestLegacyParity:
    """The declarative path reproduces hand-wired specs bit-identically."""

    def test_game_summary_matches_hand_wired_spec(self):
        legacy = SessionSpec(
            platform="Nexus 5",
            policy=FactoryRef.to("repro.experiments.common:mobicore_factory"),
            workload=FactoryRef.to("repro.workloads.games:game_workload", "Badland"),
            config=SHORT,
            pin_uncore_max=True,
        )
        declarative = compile_scenario(
            Scenario(platform="Nexus 5", policy="mobicore", workload="game:badland",
                     config=SHORT)
        )
        runner = SessionRunner(jobs=1)
        a, b = runner.run([legacy, declarative])
        assert summary_to_dict(a) == summary_to_dict(b)

    def test_baseline_summary_matches_hand_wired_spec(self):
        legacy = SessionSpec(
            platform="Nexus 5",
            policy=FactoryRef.to("repro.experiments.common:android_factory"),
            workload=FactoryRef.to(
                "repro.workloads.busyloop:BusyLoopApp", 40.0
            ),
            config=SHORT,
            pin_uncore_max=False,
        )
        declarative = compile_scenario(
            Scenario(
                workload="busyloop",
                workload_params={"target_load_percent": 40.0},
                config=SHORT,
                pin_uncore_max=False,
            )
        )
        runner = SessionRunner(jobs=1)
        a, b = runner.run([legacy, declarative])
        assert summary_to_dict(a) == summary_to_dict(b)

    def test_run_scenarios_accepts_scenario_matrix_and_iterable(self):
        runner = SessionRunner(jobs=1)
        single = Scenario(config=SHORT)
        assert len(run_scenarios(single, runner=runner)) == 1
        matrix = ScenarioMatrix(base=single, axes={"seed": [1, 2]})
        assert len(run_scenarios(matrix, runner=runner)) == 2
        assert len(run_scenarios(matrix.expand(), runner=runner)) == 2


class TestScenarioFiles:
    def test_load_scenarios_sniffs_single_documents(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(Scenario(policy="mobicore").to_json(), encoding="utf-8")
        scenarios = load_scenarios(path)
        assert len(scenarios) == 1
        assert scenarios[0].policy == "mobicore"

    def test_load_scenarios_expands_matrix_documents(self, tmp_path):
        path = tmp_path / "grid.json"
        matrix = ScenarioMatrix(axes={"seed": [1, 2, 3]})
        path.write_text(matrix.to_json(), encoding="utf-8")
        assert len(load_scenarios(path)) == 3

    def test_paper_eval_document_expands_to_the_evaluation_grid(self):
        scenarios = load_scenarios(PAPER_EVAL)
        # 5 games x 2 seeds x 2 policies, policy innermost.
        assert len(scenarios) == 20
        assert [s.policy for s in scenarios[:2]] == ["android-default", "mobicore"]
        games = {s.workload for s in scenarios}
        assert len(games) == 5
        for scenario in scenarios:
            scenario.validate()

    def test_paper_eval_matches_games_matrix_driver(self):
        """The committed document and the fig10-13 driver share a grid."""
        from repro.experiments.game_eval import games_matrix

        document = ScenarioMatrix.load(PAPER_EVAL)
        driver = games_matrix(seeds=(1, 2))
        doc_keys = [spec.cache_key() for spec in compile_matrix(document)]
        driver_keys = [spec.cache_key() for spec in compile_matrix(driver)]
        assert doc_keys == driver_keys


class TestNoInlineWiring:
    """Experiment/analysis/CLI modules must wire through the registries."""

    def test_no_factory_ref_construction_outside_the_scenario_layer(self):
        pattern = re.compile(r"FactoryRef(\.to)?\s*\(")
        offenders = []
        src = REPO_ROOT / "src" / "repro"
        for module in (
            *sorted((src / "experiments").glob("*.py")),
            *sorted((src / "analysis").glob("*.py")),
            src / "cli.py",
        ):
            if pattern.search(module.read_text(encoding="utf-8")):
                offenders.append(str(module.relative_to(REPO_ROOT)))
        assert offenders == []
