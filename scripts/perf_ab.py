#!/usr/bin/env python3
"""Same-runner A/B of one ledger workload: two trees, measured alternately.

    scripts/perf_ab.py BASE_TREE HEAD_TREE --out perf-ab

Each tree's own ``benchmarks/ledger/run.py`` measures that tree's ``src/``,
*pairs* times, base and head taking turns at going first.  The runs are
written as two ledger documents (one set per pair) and HEAD's
``benchmarks/ledger/compare.py`` prints the table over them; everything
lands under ``--out``.  Report only for speed: exit 1 means a run failed,
or that a pair's base and head ``result_digest`` differ, or the two trees'
products digests (all printed beside every pair) — a change that alters the
answer must not read as a speed-up — never that a metric moved (CI's first
step toward ROADMAP item 1's relative gate).

The ledger's ``result_digest`` covers the final water level only.  The
products digest is taken here, once per tree before the first pair: the
workload's own model (``Workload.model``, every workload has one) stepped
through the workload's step count in a fresh interpreter, then SHA-256 over
``zmax``, ``vmax``, ``inundation_max`` and ``arrival_time`` of every block.

Beside each pair it prints how many CPUs this process may run on and two
scaling probes: the wall of two concurrent NumPy burners over the wall of
one, as two processes and as two threads of one process (25 k-element
ufuncs, a strip's worth, at the strip team's switch interval).  1.0 is two
real CPUs, 2.0 is two vCPUs served as one — which this kind of box does for
minutes at a time — and a ``mosaic_2rank`` pair (two rank processes) or a
``basin_large`` pair (a strip team of two) measured in that state reads
differently for a reason that is not the code.  Beside each side's
``solve_s_p50`` stand the raw wall and the ``SpeedGauge`` reading it was
rescaled from: the gauge reads a few percent lower right after an op that
kept both CPUs busy, and the rescaled metric counts that.

Before the first pair each tree is asked what runs its kernels here
(``repro.core.loopnest``: the compiled nest or the NumPy bodies, the
compiler's version line, why it fell back); the answers go into both
documents' provenance.  Two trees that can both choose and chose
differently — one side's build failed, one side's cache is stale — are not
measured: that pair would compare executors, not the change.  A base from
before the nest has no choice to make and runs NumPy by construction.
Each tree is also asked for its per-call floor — microseconds per ``nlmass``,
``nlmnt2`` and accumulator ``update`` on a 1 x 1 and a 45 x 90 block, and per
exchange call (``fill_ghosts_zero_gradient`` at 132^2 and 772^2, two of
mini-Kochi's ``restrict_eta`` links, its mean ``interpolate_fluxes`` link and
``exchange_halo`` seam field), and per health guard call on mini-Kochi
(``HealthMonitor.check``, ``PhysicsSampler.sample``), best of five batches in
a fresh interpreter — printed and stored in the same provenance (DESIGN.md
sections 9h, 9i and 9j's tables, by one command).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

_RUN_ONE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(json.dumps(run.run_workload(sys.argv[2], int(sys.argv[3]), "
    "float(sys.argv[4]), 0)))"
)


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    ledger = tree / "benchmarks" / "ledger"
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ONE, str(ledger), workload, str(seed),
         str(seconds)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


_EXECUTOR = (
    "import json, sys; sys.path.insert(0, sys.argv[1])\n"
    "try:\n"
    "    from repro.core import loopnest\n"
    "except ImportError:\n"
    "    print(json.dumps(None))\n"
    "else:\n"
    "    loopnest.choice(); print(json.dumps(loopnest.provenance()))"
)


def ask(tree: Path, script: str, what: str, *args: str):
    """*script*'s last line of output, as JSON, from a fresh interpreter whose
    first argument is *tree*'s ``src``; a failure names *what* was asked."""
    done = subprocess.run(
        [sys.executable, "-c", script, str(tree / "src"), *args],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {what}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def executor_of(tree: Path) -> dict | None:
    """What runs *tree*'s kernels on this box; None: it predates the choice."""
    return ask(tree, _EXECUTOR, "could not ask for its executor")


_PRODUCTS = (
    "import hashlib, json, sys; sys.path[:0] = sys.argv[1:3]\n"
    "from workloads import WORKLOAD_CLASSES\n"
    "wl = WORKLOAD_CLASSES[sys.argv[3]](int(sys.argv[4])); wl.build()\n"
    "wl.model.run(wl.steps); digest = hashlib.sha256()\n"
    "for _bid, acc in sorted(wl.model.outputs.items()):\n"
    "    for name in ('zmax', 'vmax', 'inundation_max', 'arrival_time'):\n"
    "        digest.update(getattr(acc, name).tobytes())\n"
    "print(json.dumps(digest.hexdigest()))"
)


# A sloped beach hit by a Gaussian hump, stepped until the wave has run up:
# the kernels on the model's own buffers (the arrays a step hands them), best
# of five batches.  A tree without these modules has no floor to report.
_FLOOR = (
    "import json, sys, time; sys.path.insert(0, sys.argv[1])\n"
    "try:\n"
    "    from repro.core import RTiModel, SimulationConfig\n"
    "    from repro.core.mass import nlmass\n"
    "    from repro.core.momentum import nlmnt2\n"
    "    from repro.fault import GaussianSource\n"
    "    from repro.validation.analytic import SlopedBathymetry, single_block_model\n"
    "except ImportError:\n"
    "    print(json.dumps(None)); sys.exit(0)\n"
    "def best(call, calls=1):\n"
    "    batches = []\n"
    "    for _ in range(5):\n"
    "        t = time.perf_counter()\n"
    "        for _ in range(400 // calls): call()\n"
    "        batches.append((time.perf_counter() - t) / (400 // calls * calls) * 1e6)\n"
    "    return round(min(batches), 2)\n"
    "floor = {}\n"
    "for ny, nx in ((1, 1), (45, 90)):\n"
    "    model = single_block_model(nx, ny, 50.0, SlopedBathymetry(20.0, 20.0 / (50.0 * nx)),\n"
    "                               boundary='wall')\n"
    "    model.set_initial_condition(GaussianSource(x0=35.0 * nx, y0=25.0 * ny, amplitude=2.0,\n"
    "                                               sigma=10.0 * max(nx, 3)))\n"
    "    model.run(40)\n"
    "    (st,), (acc,), cfg = model.states.values(), model.outputs.values(), model.config\n"
    "    calls = {\n"
    "        'nlmass': lambda: nlmass(st.z_old, st.m_old, st.n_old, st.hz, cfg.dt, st.dx,\n"
    "                                 out=st.z_new),\n"
    "        'nlmnt2': lambda: nlmnt2(st.z_new, st.m_old, st.n_old, st.hz, cfg.dt, st.dx,\n"
    "                                 cfg.manning, out_m=st.m_new, out_n=st.n_new),\n"
    "        'update': lambda: acc.update(st.z_new, st.m_new, st.n_new, st.hz, 1.0),\n"
    "    }\n"
    "    for name, call in calls.items():\n"
    "        floor[f'{name}_{ny}x{nx}_us'] = best(call)\n"
    "from repro.core.boundary import fill_ghosts_zero_gradient\n"
    "from repro.nesting.interp import child_boundary_segments, interpolate_fluxes\n"
    "from repro.nesting.restrict import restrict_eta\n"
    "from repro.topo import build_mini_kochi\n"
    "from repro.xchg.halo import exchange_halo\n"
    "for n in (128, 768):\n"
    "    (st,) = single_block_model(n, n, 50.0, SlopedBathymetry(20.0, 0.0)).states.values()\n"
    "    floor[f'fill_{n + 4}x{n + 4}_us'] = best(\n"
    "        lambda: fill_ghosts_zero_gradient(st.z_new, ('W', 'E', 'S', 'N')))\n"
    "mk = build_mini_kochi()\n"
    "model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))\n"
    "model.set_initial_condition(GaussianSource(x0=4e3, y0=16e3, amplitude=2.0, sigma=2.5e3))\n"
    "model.run(40)\n"
    "grid, states, cfg = model.grid, model.states, model.config\n"
    "links = {(c.block_id, p.block_id): (states[p.block_id], states[c.block_id],\n"
    "                                    child_boundary_segments(lvl.blocks, c))\n"
    "         for lvl in grid.levels[1:] for c in lvl.blocks for p in grid.parent_blocks_of(c)}\n"
    "seams = [(states[a.block_id], states[b.block_id], f)\n"
    "         for lvl in grid.levels for a, b in lvl.neighbor_pairs() for f in 'zmn']\n"
    "def restrict(p, c, _segs):\n"
    "    restrict_eta(p.z_new, c.z_new, p.block, c.block, mode=cfg.restriction,\n"
    "                 width=cfg.restriction_width, parent_h=p.hz)\n"
    "for child, parent in ((6, 4), (3, 1)):\n"
    "    floor[f'restrict_eta_{child}to{parent}_us'] = best(\n"
    "        lambda: restrict(*links[child, parent]))\n"
    "floor['interpolate_fluxes_us'] = best(lambda: [interpolate_fluxes(\n"
    "    p.m_new, p.n_new, c.m_new, c.n_new, p.block, c.block, s) for p, c, s in links.values()],\n"
    "    len(links))\n"
    "floor['exchange_halo_us'] = best(lambda: [exchange_halo(a, b, f) for a, b, f in seams],\n"
    "                                 len(seams))\n"
    "from repro.obs.physics import PhysicsSampler\n"
    "from repro.resilience.health import HealthMonitor\n"
    "health, sampler = HealthMonitor(), PhysicsSampler()\n"
    "floor['health_check_us'] = best(lambda: health.check(model))\n"
    "floor['physics_sample_us'] = best(lambda: sampler.sample(model))\n"
    "print(json.dumps(floor))"
)


def floor_of(tree: Path) -> dict | None:
    """Microseconds per call of *tree*'s ``nlmass``, ``nlmnt2`` and
    accumulator ``update`` on a 1 x 1 and a 45 x 90 block, and of its
    exchange phases — a ghost fill of a 132^2 and a 772^2 frame, the JNZ
    links 6->4 (one parent cell wide) and 3->1 (under the 60-cell-wide block),
    a JNQ link and a seam field (the means over mini-Kochi's) — and of the
    health guard on mini-Kochi (a check, a physics sample) in a fresh
    interpreter: the per-call floor (DESIGN.md sections 9h, 9i and 9j)."""
    return ask(tree, _FLOOR, "could not time its kernel and exchange calls")


def products_digest_of(tree: Path, workload: str, seed: int) -> str:
    """SHA-256 of the four forecast products *tree* computes for *workload*."""
    return ask(tree, _PRODUCTS, f"no products digest of {workload}",
               str(tree / "benchmarks" / "ledger"), workload, str(seed))


_BURN = (
    "import numpy as np, time; a = np.ones((128, 128)); b = np.empty_like(a)\n"
    "t = time.perf_counter()\n"
    "for _ in range(15000): np.multiply(a, 1.0001, out=b); np.add(b, a, out=b)\n"
    "print(time.perf_counter() - t)"
)


def _burners(n: int) -> float:
    """Slowest of *n* concurrent burners' own loop time [s]."""
    procs = [
        subprocess.Popen([sys.executable, "-c", _BURN],
                         stdout=subprocess.PIPE, text=True)
        for _ in range(n)
    ]
    return max(float(p.communicate()[0]) for p in procs)


def scaling_probe() -> float:
    """Two concurrent burners over one: 1.0 = two CPUs, 2.0 = one."""
    one = min(_burners(1), _burners(1))
    return _burners(2) / one


# Ufuncs as dear as the kernels' (a 25 k-element multiply takes 8 us, less
# than a contended hand-off of the interpreter lock: two threads of those
# read 2.0 on any box).  One unmeasured round first: the second CPU of a
# fresh process takes a second or two to come up to speed.
_BURN_THREADS = (
    "import sys, threading, time, numpy as np\n"
    "sys.setswitchinterval(5e-5)\n"
    "def burn(out):\n"
    "    a = np.full(25_000, 1.5); b = np.empty_like(a)\n"
    "    t = time.perf_counter()\n"
    "    for _ in range(2000):\n"
    "        np.divide(a, 1.0001, out=b); np.sqrt(b, out=b)\n"
    "        np.power(b, 7.0 / 3.0, out=b)\n"
    "    out.append(time.perf_counter() - t)\n"
    "def walls(n):\n"
    "    out = []\n"
    "    threads = [threading.Thread(target=burn, args=(out,)) for _ in range(n)]\n"
    "    for t in threads: t.start()\n"
    "    for t in threads: t.join()\n"
    "    return max(out)\n"
    "walls(2)\n"
    "one = min(walls(1), walls(1))\n"
    "print(walls(2) / one)"
)


def thread_scaling_probe() -> float:
    """The same with two threads of one process: what a strip team gets."""
    done = subprocess.run([sys.executable, "-c", _BURN_THREADS],
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="checkout of the merge base")
    ap.add_argument("head", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, default=Path("perf-ab"))
    ap.add_argument("--workload", default="nested_forecast")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    # compare.py walks every declared workload of every set; the ones not
    # measured here are present and empty.
    declared = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    blank = {w["name"]: {"seed": args.seed, "digest": None, "e2e": None}
             for w in declared["workloads"]}
    sets: dict[str, list] = {"base": [], "head": []}
    ok = True
    executors = {side: executor_of(tree) for side, tree in trees.items()}
    for side, ran in executors.items():
        print(f"{side}: kernels on " + (
            f"{ran['executor']} ({ran['reason'] or ran['compiler']})" if ran
            else "numpy (no repro.core.loopnest in this tree)"), flush=True)
    if all(executors.values()) and len({e["executor"] for e in executors.values()}) > 1:
        print("the two trees chose different executors: not measured", flush=True)
        return 1
    floors = {side: floor_of(tree) for side, tree in trees.items()}
    for side, floor in floors.items():
        if floor:
            print(f"{side}: per call " + "  ".join(
                f"{name[:-3]} {us:g} us" for name, us in floor.items()), flush=True)
    products = {side: products_digest_of(tree, args.workload, args.seed)
                for side, tree in trees.items()}
    if products["base"] != products["head"]:
        ok = False
        print(f"products digest differs, base {products['base'][:16]} head "
              f"{products['head'][:16]}: the change alters the forecast products",
              flush=True)
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count())
    machine = []
    for pair in range(args.pairs):
        machine.append({"pair": pair + 1, "cpus": cpus,
                        "two_process_scaling": scaling_probe(),
                        "two_thread_scaling": thread_scaling_probe(),
                        "at": time.strftime("%H:%M:%S")})
        print(f"pair {pair + 1}: {cpus} CPUs, scaling of two processes "
              f"{machine[-1]['two_process_scaling']:.2f}x, of two threads "
              f"{machine[-1]['two_thread_scaling']:.2f}x "
              f"(1.0 = two CPUs, 2.0 = served as one)", flush=True)
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            doc = run_one(trees[side], args.workload, args.seed, args.seconds)
            ok &= doc["correct"]
            solve = doc["e2e"]["solve_s_p50"]["value"]
            print(f"pair {pair + 1} {side}: solve_s_p50 {solve:.4g} s  "
                  f"(raw wall {doc['raw']['solve_wall_s_p50']:.4g} s x gauge "
                  f"{doc['raw']['machine_speed_p50']:.3f})  peak_rss_mb "
                  f"{doc['e2e']['peak_rss_mb']['value']:.2f}  "
                  f"digest {doc['digest'][:16]}  products "
                  f"{products[side][:16]}", flush=True)
            sets[side].append({**blank, args.workload: doc})
        base, head = (sets[side][-1][args.workload]["digest"] for side in sets)
        if base != head:
            ok = False
            print(f"pair {pair + 1}: result_digest differs, base {base[:16]} "
                  f"head {head[:16]}: the change alters the answer", flush=True)

    args.out.mkdir(parents=True, exist_ok=True)
    paths = []
    for side, tree in trees.items():
        paths.append(args.out / f"{side}.json")
        paths[-1].write_text(json.dumps({
            "schema": "repro.ledger/1",
            "provenance": {"tree": str(tree), "argv": sys.argv[1:],
                           "machine": machine,
                           "kernel_executor": executors[side],
                           "per_call_floor_us": floors[side],
                           "products_digest": products[side]},
            "sets": sets[side],
        }, indent=1) + "\n")
    compare = trees["head"] / "benchmarks" / "ledger" / "compare.py"
    table = subprocess.run(
        [sys.executable, str(compare), *map(str, paths)],
        capture_output=True, text=True, check=False,
    )
    (args.out / "compare.txt").write_text(table.stdout + table.stderr)
    print(table.stdout + table.stderr, end="")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
