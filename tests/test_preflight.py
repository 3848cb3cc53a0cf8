"""Tests for the preflight validation gauntlet (repro.persist.preflight).

The acceptance bar: ``repro validate`` rejects at least six distinct
classes of broken input — negative-depth (dry) bathymetry, non-3:1
nesting, CFL-violating time step, out-of-bounds fault, overlapping
blocks, and a snapshot schema-version mismatch — each with an
actionable message, while the shipped Kochi example passes clean.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.persist import (
    Finding,
    RunStore,
    start_run,
    validate_rundir,
    validate_scenario,
)

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "kochi_scenario.json"

BASE_SPEC = {
    "grid": {
        "ratio": 3,
        "levels": [
            {"index": 1, "dx": 300.0, "blocks": [[0, 1, 0, 0, 12, 12]]},
            {"index": 2, "dx": 100.0, "blocks": [[1, 2, 9, 9, 12, 12]]},
        ],
    },
    "bathymetry": {"type": "flat", "depth": 50.0},
    "dt": 1.0,
    "n_steps": 10,
    "source": {
        "type": "gaussian",
        "x0": 1_800.0,
        "y0": 1_800.0,
        "amplitude": 1.0,
        "sigma": 600.0,
    },
}


def spec_with(**overrides) -> dict:
    spec = copy.deepcopy(BASE_SPEC)
    spec.update(overrides)
    return spec


def codes(report) -> set:
    return {f.code for f in report.errors}


def minutes_spec(minutes) -> dict:
    spec = spec_with(minutes=minutes)
    del spec["n_steps"]
    return spec


#: Broken specs and the input each one's findings name.
BAD_SPECS = [
    (spec_with(bathymetry={"type": "flat", "depth": -10.0}), "bathymetry"),
    (spec_with(dt=math.nan), "config"),
    (spec_with(dt=math.inf), "config"),
    (minutes_spec(math.nan), "config"),
]


class TestRejectionClasses:
    def test_negative_depth_grid(self):
        report = validate_scenario(
            spec_with(bathymetry={"type": "flat", "depth": -10.0})
        )
        assert not report.ok
        assert "bathymetry.no_water" in codes(report)

    def test_non_3_to_1_nesting(self):
        grid = {
            "ratio": 3,
            "levels": [
                {"index": 1, "dx": 300.0, "blocks": [[0, 1, 0, 0, 12, 12]]},
                {"index": 2, "dx": 150.0, "blocks": [[1, 2, 6, 6, 12, 12]]},
            ],
        }
        report = validate_scenario(spec_with(grid=grid))
        assert not report.ok
        assert "grid.nesting" in codes(report)

    def test_cfl_violating_dt(self):
        report = validate_scenario(
            spec_with(bathymetry={"type": "flat", "depth": 4_000.0}, dt=2.0)
        )
        assert not report.ok
        assert "cfl.dt_too_large" in codes(report)
        finding = next(f for f in report.errors if f.code == "cfl.dt_too_large")
        assert "dt" in finding.suggestion  # suggests a concrete fix

    def test_out_of_bounds_fault(self):
        report = validate_scenario(
            spec_with(
                source={
                    "type": "gaussian",
                    "x0": -99_999.0,
                    "y0": 1_800.0,
                    "amplitude": 1.0,
                    "sigma": 600.0,
                }
            )
        )
        assert not report.ok
        assert "source.out_of_bounds" in codes(report)

    def test_overlapping_blocks(self):
        grid = {
            "ratio": 3,
            "levels": [
                {
                    "index": 1,
                    "dx": 300.0,
                    "blocks": [[0, 1, 0, 0, 12, 12], [2, 1, 6, 6, 12, 12]],
                }
            ],
        }
        report = validate_scenario(spec_with(grid=grid))
        assert not report.ok
        assert "grid.overlapping_blocks" in codes(report)

    def test_schema_version_mismatch(self, tmp_path):
        rundir = tmp_path / "run"
        start_run(rundir, BASE_SPEC, checkpoint_every=5, echo=print)
        store = RunStore(rundir, create=False)
        mpath = store.snapshot_paths()[-1] / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["schema_version"] = 99
        mpath.write_text(json.dumps(manifest))
        report = validate_rundir(rundir)
        assert not report.ok
        assert "persist.schema_version" in codes(report)


class TestMultiErrorReporting:
    def test_all_problems_collected_at_once(self):
        spec = spec_with(
            bathymetry={"type": "flat", "depth": -10.0},
            source={
                "type": "gaussian",
                "x0": -99_999.0,
                "y0": 1_800.0,
                "amplitude": 1.0,
                "sigma": 600.0,
            },
        )
        report = validate_scenario(spec)
        assert {"bathymetry.no_water", "source.out_of_bounds"} <= codes(report)

    def test_findings_are_actionable(self):
        for spec, field in BAD_SPECS:
            report = validate_scenario(spec)
            assert any(f.field.startswith(field) for f in report.errors)
            for finding in report.errors:
                assert finding.field
                assert finding.constraint
                assert finding.suggestion
                rendered = str(finding)
                assert "[ERROR]" in rendered and "fix:" in rendered

    def test_raise_if_failed_carries_findings(self):
        report = validate_scenario(
            spec_with(bathymetry={"type": "flat", "depth": -10.0})
        )
        with pytest.raises(ValidationError) as exc_info:
            report.raise_if_failed()
        findings = exc_info.value.findings
        assert findings and all(isinstance(f, Finding) for f in findings)

    def test_clean_spec_passes(self):
        report = validate_scenario(BASE_SPEC)
        assert report.ok
        assert report.errors == []


class TestStartRunGate:
    def test_start_run_refuses_invalid_scenario(self, tmp_path):
        bad = spec_with(bathymetry={"type": "flat", "depth": -10.0})
        with pytest.raises(ValidationError):
            start_run(tmp_path / "run", bad, echo=print)

    def test_skip_preflight_bypasses_gate(self, tmp_path):
        # malformed-but-runnable spec must still build when forced
        spec = spec_with(n_steps=1)
        start_run(tmp_path / "run", spec, skip_preflight=True, echo=print)


class TestValidateCli:
    def test_shipped_kochi_example_passes(self, capsys):
        assert main(["validate", str(EXAMPLE)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_bad_scenario_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for bad, field in BAD_SPECS:
            path.write_text(json.dumps(bad))
            assert main(["validate", str(path)]) == 1
            out = capsys.readouterr().out
            assert field in out and "fix:" in out

    def test_unreadable_target_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_validate_rundir(self, tmp_path, capsys):
        rundir = tmp_path / "run"
        start_run(rundir, BASE_SPEC, checkpoint_every=5, echo=print)
        assert main(["validate", str(rundir)]) == 0

    def test_directory_without_run_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2
