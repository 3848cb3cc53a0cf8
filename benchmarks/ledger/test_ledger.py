"""Tests of the ledger itself, on its ``--quick`` configuration.

Not part of tier-1 (``testpaths = tests``); run explicitly, either way:

    python3 benchmarks/ledger/test_ledger.py
    PYTHONPATH=src python3 -m pytest benchmarks/ledger/test_ledger.py \\
        --confcutdir=benchmarks/ledger -q

Everything runs on tiny grids (``run.py --quick``) and takes well under a
minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    """One full quick ledger: every workload, untraced then traced."""
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_benchmark_json_is_the_metric_table():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/ledger"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == metrics.WORKLOADS
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.E2E_GATED
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER if m.universal
    ]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_declared_metric_is_reported(ledger):
    (only_set,) = ledger["sets"]
    assert set(only_set) == set(metrics.WORKLOADS)
    for workload, doc in only_set.items():
        assert doc["correct"] and doc["failed"] == 0, doc["failures"]
        assert doc["e2e"]["failure_rate"]["value"] == 0
        assert re.fullmatch(r"[0-9a-f]{64}", doc["digest"])
        for kind, declared in (("e2e", metrics.E2E),
                               ("layers", metrics.PER_LAYER)):
            assert list(doc[kind]) == [m.name for m in declared]
            for m in declared:
                assert NAME.fullmatch(m.name)
                entry = doc[kind][m.name]
                if workload not in m.workloads:
                    assert entry is None, f"{m.name} must be n/a here"
                    continue
                value = entry["value"] if kind == "e2e" else entry
                assert isinstance(value, (int, float)), (workload, m.name)
                if m.name != "failure_rate":
                    assert value > 0, (workload, m.name)
        assert doc["layers"]["step.unattributed_share"] < 0.5
    assert set(ledger["provenance"]) >= {
        "git_rev", "nproc", "loadavg", "python", "numpy", "seed"}


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_has_exactly_the_declared_metrics(trace):
    declared = (
        [m for m in metrics.PER_LAYER if m.universal] if trace
        else list(metrics.E2E_GATED)
    )
    proc = _run("--workload", metrics.MOSAIC, "--seed", "7", "--seconds",
                "0.5", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in declared]
    for m in declared:
        assert line["metrics"][m.name]["unit"] == m.unit
        assert line["metrics"][m.name]["value"] > 0


@pytest.mark.parametrize("name", list(metrics.WORKLOADS))
def test_perturbed_eta_is_a_failed_op(name):
    wl = workloads.WORKLOAD_CLASSES[name](seed=1, quick=True)
    wl.build()
    wl.build_oracle()
    clean = wl.measure(0.05)
    assert [s.error for s in clean if s.error] == []
    samples = wl.measure(0.05, tamper=wl.corrupt)
    assert sum(1 for s in samples if s.error) > 0


def test_probe_on_an_uncalled_function_trips_the_guard():
    from repro.core.mass import nlmass
    from repro.nesting.restrict import restrict_eta

    wl = workloads.BasinLarge(seed=1, quick=True)
    wl.build()
    with probes.CallCounter() as guard:
        wl.short_op()
    probes.require_called(guard, "core.nlmass_ns_per_cell", nlmass)
    with pytest.raises(probes.BlindProbeError, match="restrict_eta"):
        # One block, one level: nothing here restricts anything.
        probes.require_called(guard, "nesting.restrict_us_per_call",
                              restrict_eta)
    with pytest.raises(probes.BlindProbeError, match="halo_pack"):
        probes.par_layer([], 1.0, 1, 2)
    with pytest.raises(probes.BlindProbeError, match="no value"):
        probes.finish(metrics.BASIN, {})


def _doc(values, digest="d"):
    return {"sets": [
        {w: {"seed": i, "digest": digest,
             "e2e": {"solve_s_p50": {"value": v, "unit": "s"}}}
         for w in metrics.WORKLOADS}
        for i, v in enumerate(values)
    ]}


@pytest.mark.parametrize("b_values, word", [
    ([1.00, 1.01, 0.99, 1.00], "unchanged"),
    ([0.80, 0.81, 0.79, 0.80], "improved"),
    ([1.40, 1.41, 1.39, 1.40], "regressed"),
    ([0.60, 1.50, 0.80, 1.30], "unresolved"),
])
def test_compare_verdicts(b_values, word, capsys):
    a = _doc([1.00, 1.01, 0.99, 1.00])
    b = _doc(b_values, digest="d" if word == "unchanged" else "e")
    solve = metrics.BY_NAME["solve_s_p50"]
    _, got = compare.verdict(
        solve, compare.series(a, metrics.NESTED, "solve_s_p50"),
        compare.series(b, metrics.NESTED, "solve_s_p50"))
    assert got == word
    assert compare.compare(a, b) is (word != "regressed")
    table = capsys.readouterr().out
    assert word in table
    assert ("same" if word == "unchanged" else "DIFFERENT") in table


def test_nothing_to_measure_is_an_error_without_a_result(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark's files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         metrics.BASIN, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


if __name__ == "__main__":
    # Every test already runs the --quick configuration; accept the flag.
    extra = [a for a in sys.argv[1:] if a != "--quick"]
    sys.exit(pytest.main([__file__, "-q", f"--confcutdir={HERE}",
                          "-p", "no:cacheprovider", *extra]))
