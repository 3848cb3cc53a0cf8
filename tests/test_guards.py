"""The guard-verdict registry: one entry per guard, iterated everywhere.

The acceptance test of the registry is ``TestANewGuardIsOneEntry``: a
throwaway third guard kind is registered for the duration of a test and,
with no other edit anywhere, shows up in every consumer.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.obs as obs
from repro import guards
from repro.cli import INSPECT_EXIT_CODES, main
from repro.obs.flight import flight_path, load_flight
from repro.obs.slo import DEFAULT_SLOS, SLO, SLOEngine
from repro.service import (
    ForecastRequest,
    ForecastService,
    ServiceConfig,
    SimulatedBackend,
    SoakConfig,
    run_soak,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _render_tide(doc):
    lines = [f"tide verdict: {doc['verdict']}"]
    return lines + TIDE.render_soak(doc), doc["verdict"] != TIDE.worst


#: A guard nobody ships: three levels, its own SLO, artifact and exits.
TIDE = guards.GuardKind(
    name="tide",
    title="tide gauge",
    levels=("calm", "choppy", "swamped"),
    slo="tidiness",
    slo_good=("calm", "choppy"),
    artifact="tide.json",
    schema="tests.tide/1",
    render=_render_tide,
    brief=lambda doc: "",
    exit_absent=16,
    exit_worst=17,
    absent_hint="arm the tide guard",
)


class TideBackend(SimulatedBackend):
    """A priced backend whose every run also carries a tide verdict."""

    def run(self, request, budget_s):
        result = super().run(request, budget_s)
        result.tide_verdict = TIDE.worst
        return result


@pytest.fixture
def tide(monkeypatch):
    obs.reset()
    monkeypatch.setattr(guards, "KINDS", guards.KINDS + (TIDE,))
    return TIDE


SCENARIO = {
    "grid": "s-0", "cells_by_level": [[100_000]], "n_steps": 100, "dt": 1.0,
}


class TestANewGuardIsOneEntry:
    def test_service_completion_carries_the_new_guard(self, tide, tmp_path):
        backend = TideBackend()
        engine = SLOEngine(
            slos=DEFAULT_SLOS + (SLO("tidiness", "not swamped", 0.9),)
        )
        service = ForecastService(
            backend, ServiceConfig(), estimator=backend.estimator,
            slo=engine, flight_dir=tmp_path / "flight",
        )
        ticket = service.submit(
            ForecastRequest(scenario=SCENARIO, deadline_s=1e6)
        )
        now = service.run_until_idle()
        assert ticket.deadline_met

        counters = obs.get_registry().to_dict()["counters"]
        assert counters[
            'repro_service_tide_verdicts_total{verdict="swamped"}'
        ] == 1
        # The worst verdict is a bad ending: banner + dumped recording
        # holding the flight note.
        rid = ticket.request.request_id
        doc = load_flight(flight_path(tmp_path, rid))
        assert doc["outcome"].endswith("— TIDE SWAMPED")
        notes = [ev for ev in doc["events"] if ev["kind"] == "tide_verdict"]
        assert [ev["detail"] for ev in notes] == ["swamped"]
        # ... and it burned the objective the entry names.
        status = {s.name: s for s in engine.evaluate(now).statuses}
        assert (status["tidiness"].total, status["tidiness"].bad) == (1, 1)
        assert status["validity"].bad == status["integrity"].bad == 0

    def test_engine_without_the_objective_sees_no_events(self, tide):
        backend = TideBackend()
        service = ForecastService(
            backend, estimator=backend.estimator, slo=SLOEngine()
        )
        service.submit(ForecastRequest(scenario=SCENARIO, deadline_s=1e6))
        service.run_until_idle()  # must not raise "unknown SLO"

    def test_soak_tallies_writes_and_inspects_the_new_guard(
        self, tide, tmp_path, capsys
    ):
        report = run_soak(
            SoakConfig(duration_s=300.0, seed=1),
            backend=TideBackend(), rundir=tmp_path,
        )
        assert report.completed > 0
        assert report.verdicts["tide"] == {"swamped": report.completed}
        assert report.verdicts["physics"] and report.verdicts["integrity"]
        assert f"  tide verdicts: swamped={report.completed}" in (
            report.summary().splitlines()
        )
        assert not report.integrity_failures

        doc = json.loads((tmp_path / "tide.json").read_text())
        assert doc["schema"] == "tests.tide/1"
        assert doc["verdict"] == "swamped"
        assert doc["counts"] == report.verdicts["tide"]
        assert len(doc["requests"]) == report.completed

        capsys.readouterr()
        assert main(["inspect", str(tmp_path), "--tide"]) == 17
        assert "tide verdict: swamped" in capsys.readouterr().out

    def test_absent_artifact_is_the_kinds_structured_error(
        self, tide, tmp_path, capsys
    ):
        assert main(["inspect", str(tmp_path), "--tide"]) == 16
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "no-tide" and err["exit_code"] == 16
        assert err["hint"] == "arm the tide guard"
        assert "tide.json" in err["detail"]


class TestRegistry:
    def test_owners_take_their_names_from_the_registry(self):
        from repro.obs import physics
        from repro.resilience import integrity

        assert physics.VERDICTS == guards.PHYSICS.levels
        assert physics.PHYSICS_NAME == guards.PHYSICS.artifact
        assert physics.PHYSICS_SCHEMA == guards.PHYSICS.schema
        assert integrity.INTEGRITY_VERDICTS == guards.INTEGRITY.levels
        assert integrity.INTEGRITY_NAME == guards.INTEGRITY.artifact
        assert integrity.INTEGRITY_SCHEMA == guards.INTEGRITY.schema

    def test_worst_of_folds_by_declared_order(self):
        kind = guards.INTEGRITY
        assert kind.worst_of([]) == "clean"
        assert kind.worst_of({"clean": 9, "corrected": 1}) == "corrected"
        assert kind.worst_of(["corrupted", "clean"]) == "corrupted"

    def test_doc_keeps_the_ledgers_own_verdict_unless_overridden(self):
        kind = guards.PHYSICS
        assert kind.doc()["verdict"] == "healthy"
        assert kind.doc(body={"verdict": "suspect"})["verdict"] == "suspect"
        doc = kind.doc("diverged", {"verdict": "suspect", "aborts": 2})
        assert list(doc) == ["schema", "verdict", "aborts"]
        assert doc["verdict"] == "diverged"

    def test_soak_lists_every_verdict_carrying_completion(self, tmp_path):
        """One rule for both guards' per-request lists: every completion
        that carried a verdict, with its cost and deadline."""
        report = run_soak(
            SoakConfig(duration_s=400.0, seed=5, corrupt_fraction=0.3),
            rundir=tmp_path,
        )
        for kind in guards.KINDS:
            doc = kind.load(tmp_path / kind.artifact)
            counts = report.verdicts[kind.name]
            assert doc["counts"] == counts
            assert len(doc["requests"]) == sum(counts.values())
            assert {r["verdict"] for r in doc["requests"]} == set(counts)
            for r in doc["requests"]:
                assert r["cost_s"] > 0 and r["deadline_s"] > 0
            text = "\n".join(kind.render(doc)[0])
            assert f"{sum(counts.values())} total" in text

    def test_readme_exit_code_table_matches_the_registry(self):
        """README rows = the generated ``repro inspect --help`` table."""
        readme = (ROOT / "README.md").read_text()
        rows = re.findall(r"^\| (\d+) \| (.+) \|$", readme, flags=re.M)
        published = [f"  {c}  {m.replace('`', '')}" for c, m in rows]
        assert published == INSPECT_EXIT_CODES.splitlines()[1:]
        for kind in guards.KINDS:
            assert f"  {kind.exit_worst}  {kind.name} verdict is " in (
                INSPECT_EXIT_CODES
            )


class TestImportHygiene:
    @pytest.mark.parametrize("module", [
        "repro.guards", "repro.artifacts", "repro.service", "repro.obs",
        "repro.resilience",
    ])
    def test_imports_first_and_alone(self, module):
        """No import cycle: each module imports first in a fresh
        interpreter, whatever the others' import order later is."""
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["repro.par", "repro.service", "repro.cli"])
    def test_no_import_pays_for_rank_processes(self, module):
        """``multiprocessing`` (and ``multiprocessing.shared_memory`` with
        it) comes in with the first forked run, not with the package."""
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; print(sorted(m for m in sys.modules"
             " if m.startswith('multiprocessing')))"],
            env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_registry_and_artifact_modules_are_leaves(self):
        """At import time the registry pulls in only the artifact leaf,
        and that only the error types — neither a guard's owner nor the
        shell, so the request path imports both for free."""
        def repro_imports(relpath):
            tree = ast.parse((SRC / relpath).read_text())
            return {
                n.module for n in tree.body
                if isinstance(n, ast.ImportFrom) and n.module.startswith("repro")
            } | {
                a.name for n in tree.body if isinstance(n, ast.Import)
                for a in n.names if a.name.startswith("repro")
            }

        assert repro_imports("repro/guards.py") == {"repro.artifacts"}
        assert repro_imports("repro/artifacts.py") == {"repro.errors"}

    def test_no_function_level_import_on_the_completion_path(self):
        tree = ast.parse((SRC / "repro/service/service.py").read_text())
        on_path = {"_settle", "_meter_completion", "_record_slo_completion"}
        found = {
            fn.name: [
                n for n in ast.walk(fn)
                if isinstance(n, (ast.Import, ast.ImportFrom))
            ]
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in on_path
        }
        assert found == {name: [] for name in on_path}
