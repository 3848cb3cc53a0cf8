#!/usr/bin/env python3
"""The performance ledger: one command, every metric, every workload.

    python3 benchmarks/ledger/run.py                 # full ledger
    python3 benchmarks/ledger/run.py --aa            # same code twice
    python3 benchmarks/ledger/run.py --spread 10     # run-to-run spread
    python3 benchmarks/ledger/run.py --workload basin_large --seed 3 \\
        --seconds 18 --trace 0                       # one run (the driver)

A run of one workload is a fresh interpreter (so set-up pays for imports
and peak RSS belongs to that workload alone): it imports, builds, does
one short warm-up op — that is ``setup_s`` — then repeats the op for
``--seconds`` with tracing off and checks every result.  ``--trace 1``
instead alternates untraced and traced ops and runs the layer probes.
With ``--trace 0`` four more interpreters only set up, and ``setup_s`` is
the median of the five.

See README.md for the glossary and how to read the output.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before any import worth timing

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    E2E,
    E2E_GATED,
    PER_LAYER,
    SERVICE,
    WORKLOADS,
    quartiles,
    worse_by,
)

#: Set-ups behind ``setup_s`` (this many interpreters; median reported).
N_SETUPS = 5
#: A child that has not finished by then is stuck, not slow.
CHILD_TIMEOUT_S = 170.0
_ONE_THREAD = {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# Child: one workload in this interpreter
# ---------------------------------------------------------------------------


def _child(args) -> int:
    import importlib

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOAD_CLASSES

    wl = WORKLOAD_CLASSES[args.workload](args.seed, quick=args.quick)
    t = time.perf_counter()
    for module in ("numpy", *wl.IMPORTS):
        importlib.import_module(module)
    wl.setup_ms["import"] = (time.perf_counter() - t) * 1e3
    wl.build()
    t = time.perf_counter()
    wl.short_op()
    wl.setup_ms["warmup"] = (time.perf_counter() - t) * 1e3
    doc = {"setup_s": time.perf_counter() - _T0, "setup_ms": wl.setup_ms}
    doc["speed"] = wl.gauge.read()
    if args.child == "setup":
        print(json.dumps(doc))
        return 0

    wl.build_oracle()
    failures = []
    if args.trace:
        samples, extra = _traced(wl, args.seconds)
        doc.update(extra)
    else:
        samples = wl.measure(args.seconds)
    failures += [f"{s.kind}: {s.error}" for s in samples if s.error]
    why = wl.final_check()
    if why is not None:
        failures.append(why)
    doc.update(
        samples=[[s.kind, s.wall_s, s.speed] for s in samples],
        attempted=len(samples),
        failed=sum(1 for s in samples if s.error),
        failures=failures,
        digest=wl.result_digest,
        cells_steps=wl.cells_steps,
        peak_rss_mb=wl.peak_rss_mb,
    )
    print(json.dumps(doc))
    return 0


def _traced(wl, seconds: float):
    """Alternate untraced and traced rounds, then probe every layer."""
    import repro.obs as obs
    from probes import CallCounter, collect, self_times_us
    from repro.obs.trace import TraceContext

    obs.reset()
    with CallCounter() as guard:
        wl.short_op()
    untraced, traced = [], []
    rounds = 0
    t_end = time.perf_counter() + 0.6 * seconds

    def run_once(tracing: bool) -> None:
        if tracing:
            obs.enable()
        try:
            (traced if tracing else untraced).extend(wl.run_once())
        finally:
            obs.disable()

    with obs.context(TraceContext(wl.name)):
        while rounds < 2 or time.perf_counter() < t_end:
            # Swap the order every round: consecutive ops of one process do
            # not cost the same (allocator state alternates on basin_large),
            # and a fixed order would book that to tracing.
            run_once(tracing=bool(rounds % 2))
            run_once(tracing=not rounds % 2)
            rounds += 1
    spans = obs.get_tracer().export()
    halo_bytes = obs.get_registry().sample("repro_halo_bytes_total").get(
        "repro_halo_bytes_total", 0.0)
    layers = collect(wl, guard, untraced, traced, spans, halo_bytes, rounds)
    OUT.mkdir(exist_ok=True)
    obs.write_chrome_trace(OUT / f"{wl.name}.trace.json")
    top = sorted(self_times_us(spans).items(), key=lambda kv: -kv[1])[:12]
    extra = {"layers": layers, "self_time_us": dict(top),
             "n_spans": len(spans), "traced_rounds": rounds}
    return untraced + traced, extra


# ---------------------------------------------------------------------------
# Parent: spawn children, fold their documents into metrics
# ---------------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def _spawn(mode: str, workload: str, seed: int, seconds: float, trace: int,
           quick: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env={**os.environ, **_ONE_THREAD}, check=False,
    )
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload} ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values, unit: str) -> dict:
    p25, p50, p75 = quartiles(values)
    return {"value": p50, "unit": unit, "p25": p25, "p75": p75,
            "n": len(values), "samples": list(values)}


def _e2e(main: dict, setups: list[dict], workload: str) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and the raw walls behind
    them: every time is rescaled to reference machine speed (``wall *
    speed``, see ``workloads.SpeedGauge``)."""
    kind = "miss" if workload == SERVICE else "op"
    ops = [(w, sp) for k, w, sp in main["samples"] if k == kind]
    hits = [w * sp * 1e3 for k, w, sp in main["samples"] if k == "hit"]
    solve = _summary([w * sp for w, sp in ops], "s")
    e2e = {
        "setup_s": _summary([d["setup_s"] * d["speed"] for d in setups], "s"),
        "solve_s_p50": solve,
        "cell_updates_per_s": {"value": main["cells_steps"] / solve["value"],
                               "unit": "1/s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        "hit_ms_p50": _summary(hits, "ms") if hits else None,
        "failure_rate": {"value": main["failed"] / main["attempted"],
                         "unit": "ratio"},
    }
    raw = {
        "solve_wall_s_p50": statistics.median(w for w, _ in ops),
        "setup_wall_s_p50": statistics.median(d["setup_s"] for d in setups),
        "machine_speed_p50": statistics.median(sp for _, sp in ops),
    }
    return e2e, raw


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool = False) -> dict:
    """One run of one workload -> its result document."""
    setups = [] if trace else [
        _spawn("setup", workload, seed, seconds, 0, quick)
        for _ in range(N_SETUPS - 1)
    ]
    main = _spawn("measure", workload, seed, seconds, trace, quick)
    doc = {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not main["failures"],
        "attempted": main["attempted"], "failed": main["failed"],
        "failures": main["failures"], "digest": main["digest"],
        "e2e": None, "raw": None,
        "layers": main.get("layers"),
        "self_time_us": main.get("self_time_us"),
    }
    if not trace:
        doc["e2e"], doc["raw"] = _e2e(main, [*setups, main], workload)
    return doc


def driver_line(doc: dict) -> str:
    """The contract's last line: gated metrics, or universal layer ones."""
    if doc["trace"]:
        metrics = {m.name: {"value": doc["layers"][m.name], "unit": m.unit}
                   for m in PER_LAYER if m.universal}
    else:
        metrics = {m.name: {"value": doc["e2e"][m.name]["value"],
                            "unit": m.unit} for m in E2E_GATED}
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def print_run(doc: dict) -> None:
    print(f"== {doc['workload']}  seed={doc['seed']} trace={doc['trace']}  "
          f"attempted={doc['attempted']} failed={doc['failed']}  "
          f"result_digest={doc['digest'][:16]}")
    for why in doc["failures"]:
        print(f"   FAILED {why}")
    if doc["trace"]:
        for m in PER_LAYER:
            print(f"   {m.name:<40} {_fmt(doc['layers'][m.name]):>12} "
                  f"{m.unit}")
        print("   span self time (traced ops), top by total [us]: "
              + ", ".join(f"{k}={v:.0f}"
                          for k, v in doc["self_time_us"].items()))
        return
    for m in E2E:
        entry = doc["e2e"][m.name]
        if entry is None:
            print(f"   {m.name:<40} {'n/a':>12} {m.unit}")
            continue
        spread = ""
        if "n" in entry:
            spread = (f"  (p25 {_fmt(entry['p25'])}, p75 {_fmt(entry['p75'])},"
                      f" n={entry['n']})")
        print(f"   {m.name:<40} {_fmt(entry['value']):>12} {m.unit}{spread}")
    print("   times are at reference machine speed; as measured: "
          + ", ".join(f"{k}={_fmt(v)}" for k, v in doc["raw"].items()))


def provenance(args) -> dict:
    import importlib.metadata  # here, not at the top: children pay for those
    import platform

    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"  # the driver's checkout is not a git repository
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_rev": rev, "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(), "python": platform.python_version(),
        "numpy": numpy_version, "seed": args.seed,
        "run_seconds": args.seconds, "quick": args.quick,
        "argv": sys.argv[1:],
    }


# ---------------------------------------------------------------------------
# Sets: the full ledger, --aa, --spread
# ---------------------------------------------------------------------------


def run_set(seed: int, seconds: float, quick: bool, traced: bool) -> dict:
    """Every workload once (untraced, then traced if asked), in turn."""
    out = {}
    for name in WORKLOADS:
        doc = run_workload(name, seed, seconds, 0, quick)
        print_run(doc)
        if traced:
            layer_doc = run_workload(name, seed, seconds, 1, quick)
            print_run(layer_doc)
            doc["layers"] = layer_doc["layers"]
            doc["self_time_us"] = layer_doc["self_time_us"]
            doc["correct"] &= layer_doc["correct"]
            doc["failures"] += layer_doc["failures"]
        out[name] = doc
    return out


def _e2e_values(sets: list[dict], workload: str, metric) -> list[float]:
    entries = [s[workload]["e2e"][metric.name] for s in sets]
    return [e["value"] for e in entries if e is not None]


def report_aa(sets: list[dict]) -> bool:
    """Two sets of the same code: every difference against its bound."""
    ok = True
    a, b = sets
    print("\n== A/A: relative difference of set B against set A")
    for name in WORKLOADS:
        for m in E2E:
            values = _e2e_values(sets, name, m)
            if len(values) != 2 or m.name == "failure_rate":
                continue
            diff = abs(worse_by(m, *values))
            verdict = "ok" if diff <= m.bound else "EXCEEDS"
            ok &= diff <= m.bound
            print(f"   {name:<16} {m.name:<20} {diff:8.2%}  bound "
                  f"{m.bound:.0%}  {verdict}")
        exact = [m.name for m in PER_LAYER if m.exact and a[name]["layers"]
                 and a[name]["layers"][m.name] != b[name]["layers"][m.name]]
        if a[name]["digest"] != b[name]["digest"]:
            exact.append("result_digest")
        for what in exact:
            ok = False
            print(f"   {name:<16} {what} did not repeat exactly")
    return ok


def report_spread(sets: list[dict]) -> bool:
    """The driver's acceptance statistic: IQR over median across sets."""
    ok = True
    print(f"\n== spread over {len(sets)} sets (IQR / median); "
          "aim for a third of the bound")
    for name in WORKLOADS:
        for m in E2E:
            values = _e2e_values(sets, name, m)
            if len(values) < 2 or m.name == "failure_rate":
                continue
            p25, p50, p75 = quartiles(values)
            spread = (p75 - p25) / p50
            verdict = ("steady" if spread <= m.bound / 3
                       else "ok" if spread <= m.bound else "EXCEEDS")
            if m.name != "setup_s":
                ok &= spread <= m.bound
            print(f"   {name:<16} {m.name:<20} median {_fmt(p50):>12} "
                  f"{m.unit:<4} spread {spread:7.2%}  bound {m.bound:.0%}  "
                  f"{verdict}")
        for key in ("solve_wall_s_p50", "machine_speed_p50"):
            p25, p50, p75 = quartiles([s[name]["raw"][key] for s in sets])
            print(f"   {name:<16} ({key}) median {_fmt(p50):>9}      "
                  f"spread {(p75 - p25) / p50:7.2%}  as measured, not gated")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of "
                         "BENCHMARK.json; 1 with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny grids, seconds in total (tests only)")
    ap.add_argument("--aa", action="store_true",
                    help="two full sets back to back; exit 1 beyond a bound")
    ap.add_argument("--spread", type=int, metavar="N",
                    help="N untraced sets on seeds SEED..SEED+N-1")
    ap.add_argument("--out", type=Path, default=OUT / "ledger.json",
                    help="result document (full ledger, --aa, --spread)")
    ap.add_argument("--child", choices=("setup", "measure"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.child:
        return _child(args)

    try:
        if args.workload:
            doc = run_workload(args.workload, args.seed, args.seconds,
                               args.trace, args.quick)
            print_run(doc)
            print(driver_line(doc))
            return 0 if doc["correct"] else 1
        if args.spread:
            sets = [run_set(args.seed + i, args.seconds, args.quick, False)
                    for i in range(args.spread)]
            ok = report_spread(sets)
        elif args.aa:
            sets = [run_set(args.seed, args.seconds, args.quick, True)
                    for _ in range(2)]
            ok = report_aa(sets)
        else:
            sets = [run_set(args.seed, args.seconds, args.quick, True)]
            ok = True
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok &= all(doc["correct"] for s in sets for doc in s.values())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"schema": "repro.ledger/1", "provenance": provenance(args),
         "sets": sets}, indent=1) + "\n")
    print(f"\nwrote {args.out}" + ("" if ok else "  — FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
