#!/usr/bin/env python3
"""Service artifacts A/B: two trees, five soaks each, every artifact compared.

    scripts/artifacts_ab.py BASE_TREE HEAD_TREE

Each tree runs, in one fresh interpreter on its own ``src/``, the five
seeded soaks of :data:`SOAKS` (1800 simulated seconds each, each into its own
run directory under a temporary directory).  They run in one process and in
this order because request ids come from a process-wide counter.  Together they reach
every way a request ends: all four admission rejections, shedding at
``relieve``, ``dispatch`` and ``queue_full``, backend failures (the last soak
runs on a backend that fails one scenario in nine), joiners that fail or are
shed with their primary, and flight dumps of flagged completions.

Then every artifact is compared as JSON after stripping the wall-clock stamps
``ts_wall`` and ``ts_mono_us``: each ``flight/*.json``, ``slo.json``,
``metrics.json``, ``physics.json``, ``integrity.json``, the service track
(pid 2) of ``trace.json``, and each soak's ``SoakReport.summary()``.  One
line per file; exit 1 on any difference or on a file only one side wrote.

A refactor of the service, the flight recorder or the soak harness that
claims "artifacts unchanged" is checked with this against its parent (a
``git clone`` of it at a sibling path).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: The five soak configurations, in run order; ``failing`` swaps in the
#: backend that fails every scenario whose amplitude (in thousandths) is a
#: multiple of nine.
SOAKS = (
    {"seed": 0},
    {"seed": 1, "dup_fraction": 0.6, "diverge_fraction": 0.1,
     "corrupt_fraction": 0.1},
    {"seed": 2, "rate_multiplier": 5, "queue_capacity": 6, "workers": 1,
     "dup_fraction": 0.7},
    {"seed": 3, "rate_multiplier": 8, "queue_capacity": 4, "workers": 1,
     "dup_fraction": 0.9, "tenant_quota": 2},
    {"seed": 4, "rate_multiplier": 4, "queue_capacity": 8, "workers": 2,
     "dup_fraction": 0.7, "failing": True},
)

_CAPTURE = """
import json, sys
from pathlib import Path
import repro.obs as obs
from repro.service import SimulatedBackend, SoakConfig, run_soak

def fails(r):
    return round(r.scenario["source"]["amplitude"] * 1000) % 9 == 0

out = Path(sys.argv[1])
summaries = {}
for k, cfg in enumerate(json.loads(sys.argv[2])):
    obs.reset()
    backend = SimulatedBackend(fail_when=fails) if cfg.pop("failing", 0) \\
        else None
    report = run_soak(SoakConfig(duration_s=1800.0, **cfg), backend=backend,
                      rundir=out / f"soak-{k}")
    summaries[f"soak-{k}"] = report.summary()
(out / "summaries.json").write_text(json.dumps(summaries, indent=1))
"""

_STAMPS = ("ts_wall", "ts_mono_us")


def strip(doc):
    """*doc* without the wall-clock stamps, at any depth."""
    if isinstance(doc, dict):
        return {k: strip(v) for k, v in doc.items() if k not in _STAMPS}
    if isinstance(doc, list):
        return [strip(v) for v in doc]
    return doc


def comparable(path: Path):
    doc = strip(json.loads(path.read_text()))
    if path.name == "trace.json":
        return [e for e in doc["traceEvents"] if e.get("pid") == 2]
    return doc


def capture(tree: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _CAPTURE, str(out), json.dumps(SOAKS)],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{tree}: the soaks failed:\n{done.stderr}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("head", type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        for name, tree in (("base", args.base), ("head", args.head)):
            sides[name].mkdir(parents=True, exist_ok=True)
            capture(tree, sides[name])
        files = {
            name: {
                p.relative_to(root).as_posix()
                for p in root.rglob("*.json")
            }
            for name, root in sides.items()
        }
        differ = 0
        for rel in sorted(files["base"] | files["head"]):
            if rel not in files["base"] or rel not in files["head"]:
                side = "base" if rel in files["base"] else "head"
                print(f"only in {side:<4} {rel}")
                differ += 1
                continue
            same = (comparable(sides["base"] / rel)
                    == comparable(sides["head"] / rel))
            print(f"{'same' if same else 'DIFF':<12} {rel}")
            differ += not same
        n = len(files["base"] | files["head"])
        print(f"{n - differ} of {n} artifacts equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
