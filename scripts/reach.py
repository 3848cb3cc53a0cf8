#!/usr/bin/env python3
"""Reach census: which functions of ``src/repro`` does a product path call?

Runs every ``repro`` command and flag family, an interrupted run and its
``resume``, the examples, every ledger workload (``run.py --quick``'s
children) and the figure benches, all in this one process, under a
``sys.setprofile`` + ``threading.setprofile`` hook (the ledger's
``CallCounter`` idiom).  Forked children — rank processes and the
interrupted forecast — write what they reached before ``os._exit``.

A function is every ``def`` in ``src/repro`` (methods and nested ones
too), named ``module.qualname``.  Prints ``reached N of M``, then every
unreached function that ``ALLOWED`` does not name, and exits 1 when
there is one.  An ``ALLOWED`` key names a function, a class or a module,
and covers everything under that name.

Run:  python scripts/reach.py            (about 3.5 minutes on two vCPUs)
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = ROOT / "benchmarks" / "ledger"

#: Unreached on purpose, one reason each: an open ROADMAP item, a
#: platform no census run is on, or a failure path no product input
#: takes.  A function only its own tests call is deleted, not listed
#: (tests/test_reach_allowlist.py keeps this table short).
ALLOWED = {
    # -- kept for a named next step -------------------------------------
    "repro.validation": "analytic benchmarks and conservation checks of "
                        "ROADMAP item 9; no product path runs them yet",
    "repro.analysis.fit": "the fits item 9's convergence study needs "
                          "(tests/test_convergence.py)",
    # -- platforms no census run is on -----------------------------------
    "repro.core.loopnest._scan_numpy":
        "the health scan's NumPy body: runs where no C compiler is "
        "(CC=false) and on a block the nest finds non-finite "
        "(tests/test_health_nest.py)",
    "repro.lazy.exports.<locals>.__dir__": "dir() of a package: interactive "
                                           "use (tests/test_import_graph.py)",
    # -- failure paths no product input takes ----------------------------
    "repro.par.process_world._ProcessWorld.lost":
        "a rank process killed from outside; an injected crash raises, it "
        "is not killed (tests/test_comm.py SIGKILLs forked ranks)",
    "repro.par.process_world._ProcessWorld.timed_out":
        "a rank group that outlives its wall bound (tests/test_comm.py)",
    "repro.par.comm._group_timeout": "a rank group that outlives its wall "
                                     "bound (tests/test_comm.py)",
    "repro.service.breaker.CircuitBreaker.record_failure":
        "a failing service backend; neither CLI backend fails "
        "(tests/test_service.py injects failures)",
    "repro.service.service.ForecastService._on_backend_failure":
        "a failing service backend, as above",
    "repro.resilience.checkpoint.CheckpointRing.discard":
        "a checkpoint the scrubber cannot repair (tests/test_integrity.py)",
    "repro.resilience.checkpoint.CheckpointRing.drop_latest":
        "a rollback target that fails its digest (tests/test_integrity.py)",
    "repro.resilience.integrity.IntegrityTracker.uncorrectable":
        "a corruption no rollback can correct (tests/test_integrity.py)",
    "repro.errors.ValidationError.__init__":
        "preflight refusing a scenario; no CLI flag builds a refused one "
        "(tests/test_preflight.py)",
    "repro.persist.signals.interrupt_guard.<locals>._handler":
        "the SIGTERM handler of the interrupted run: the census's own profile "
        "callback, where no hook fires, often runs it (tests/test_resume.py)",
}


# ---------------------------------------------------------------------------
# The functions: every def under src/repro, by AST
# ---------------------------------------------------------------------------


def _module(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line)`` -> ``module.qualname`` for every def.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: dict[tuple[str, int], str] = {}

    def walk(node, prefix: str, path: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                line = min([d.lineno for d in child.decorator_list]
                           + [child.lineno])
                found[(path, line)] = f"{module}.{qual}"
                walk(child, qual + ".<locals>.", path, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path, module)
            else:
                walk(child, prefix, path, module)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path), _module(path))
    return found


# ---------------------------------------------------------------------------
# The hook: this process, its threads and its forked children
# ---------------------------------------------------------------------------


class Census:
    """Every code object of ``src/repro`` called while armed."""

    def __init__(self, spool: Path) -> None:
        self.seen: set = set()
        self.spool = spool
        self._set, self._tset = sys.setprofile, threading.setprofile

    def _profile(self, frame, event, _arg) -> None:
        if event == "call":
            self.seen.add(frame.f_code)

    def _chained(self, fn):
        """A hook that feeds this census and *fn*: the ledger arms its own
        ``CallCounter`` mid-run, and its ``setprofile(None)`` must not
        disarm this one."""
        if fn is None:
            return self._profile

        def both(frame, event, arg):
            self._profile(frame, event, arg)
            fn(frame, event, arg)
        return both

    def arm(self) -> None:
        sys.setprofile = lambda fn: self._set(self._chained(fn))
        threading.setprofile = lambda fn: self._tset(self._chained(fn))
        self._tset(self._profile)
        self._set(self._profile)
        os.register_at_fork(after_in_child=self._in_child)

    def disarm(self) -> None:
        self._set(None)
        self._tset(None)
        sys.setprofile, threading.setprofile = self._set, self._tset

    def keys(self) -> set[tuple[str, int]]:
        src = str(SRC)
        return {(c.co_filename, c.co_firstlineno) for c in list(self.seen)
                if c.co_filename.startswith(src)}

    def _in_child(self) -> None:
        exit_ = os._exit

        def _exit(code):
            with contextlib.suppress(Exception):
                (self.spool / f"{os.getpid()}.json").write_text(
                    json.dumps(sorted(self.keys())))
            exit_(code)
        os._exit = _exit

    def children(self) -> set[tuple[str, int]]:
        return {tuple(k) for f in self.spool.glob("*.json")
                for k in json.loads(f.read_text())}


# ---------------------------------------------------------------------------
# The product paths
# ---------------------------------------------------------------------------


def repro(*argv) -> int:
    """One ``python -m repro`` command, in this process, output dropped."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a traceback is a path too
            print(f"repro {' '.join(map(str, argv))}: {exc!r}",
                  file=sys.__stderr__)
            return 1


def interrupted_run(rundir: Path, argv: list) -> None:
    """Start ``forecast --rundir`` in a forked child and SIGTERM it once
    its second snapshot is on disk, as a killed operational run."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = repro("forecast", "--rundir", rundir, *argv)
        finally:
            os._exit(code)
    deadline = time.monotonic() + 120
    # The second snapshot is taken inside the guarded loop: the first may be
    # on disk before the signal handlers are.
    while (len(list(rundir.glob("snapshots/*"))) < 2
           and time.monotonic() < deadline):
        time.sleep(0.05)
    os.kill(pid, signal.SIGTERM)
    os.waitpid(pid, 0)


def plans(tmp: Path, **faults) -> dict:
    """One fault-plan file per keyword: its name -> its path."""
    paths = {}
    for name, specs in faults.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps({"faults": specs}))
    return paths


def cli_paths(tmp: Path) -> None:
    scenario = ROOT / "examples" / "kochi_scenario.json"
    plan = plans(
        tmp,
        bad=[{"kind": "bogus"}],
        guarded=[{"kind": "nan", "step": 5, "block": 0},
                 {"kind": "bitflip", "step": 9, "block": 1, "field": "m"},
                 {"kind": "bitflip", "target": "checkpoint", "step": 25,
                  "block": 0}],
        straggler=[{"kind": "straggler", "rank": 1, "step": 0, "span": 1000,
                    "factor": 8.0, "op": 0, "delay_s": 0.003}],
        crash=[{"kind": "rank_crash", "rank": 1, "step": 10}],
        crash0=[{"kind": "rank_crash", "rank": 0, "step": 10}],
        crashes=[{"kind": "rank_crash", "rank": 1, "step": 10},
                 {"kind": "rank_crash", "rank": 1, "step": 40}],
        delay=[{"kind": "msg_delay", "rank": 0, "op": 3, "delay_s": 0.01}],
        drop=[{"kind": "msg_drop", "rank": 0, "op": 5}],
        exhaust=[{"kind": "nan", "step": s, "block": 0} for s in range(5, 13)],
    )
    bad = plan["bad"]
    spool = tmp / "spool.jsonl"
    quick = ("--minutes", "0.05")
    runs = [
        ("grid",),
        ("sweep", "--sockets", 4, 8),
        ("sweep", "--sockets", 4, "--comm", "host"),
        ("balance", "--ranks", 4),
        ("forecast", *quick),
        ("forecast", *quick, "--source", "nankai"),
        ("forecast", "--minutes", 0.3, "--deadline", 0.05),
        ("forecast", *quick, "--deadline", 30),
        ("forecast", *quick, "--rundir", tmp / "traced", "--export-trace",
         "--export-metrics"),
        ("forecast", "--minutes", 0.1, "--fault-seed", 7, "--fault-count",
         4, "--integrity-every", 1, "--rundir", tmp / "guarded"),
        ("forecast", "--minutes", 0.1, "--faults", plan["guarded"],
         "--integrity-every", 1, "--scrub-every", 5, "--rundir", tmp / "plan"),
        ("forecast", *quick, "--faults", bad),
        ("forecast", "--minutes", 0.1, "--faults", plan["exhaust"]),
        ("forecast", *quick, "--faults", tmp / "missing.json"),
        ("forecast", *quick, "--scrub-every", 4),
        ("forecast", *quick, "--fault-count", 2),
        ("forecast", "--minutes", 0.1, "--ranks", 2, "--rundir",
         tmp / "ranked", "--export-metrics"),
        ("forecast", "--minutes", 0.3, "--ranks", 3, "--fault-seed", 3,
         "--fault-count", 2, "--hedge-stragglers", "--spare-ranks", 1),
        ("forecast", "--minutes", 0.3, "--ranks", 3, "--faults",
         plan["straggler"], "--hedge-stragglers", "--export-metrics"),
        ("forecast", "--minutes", 0.1, "--ranks", 3, "--faults",
         plan["crash"], "--recovery-policy", "shrink", "--rundir",
         tmp / "shrunk"),
        ("forecast", "--minutes", 0.1, "--ranks", 3, "--faults",
         plan["crash"], "--spare-ranks", 1),
        ("forecast", "--minutes", 0.1, "--ranks", 3, "--faults",
         plan["crash0"], "--spare-ranks", 1),
        ("forecast", "--minutes", 0.1, "--ranks", 3, "--faults",
         plan["crashes"], "--max-rank-failures", 1),
        ("forecast", "--minutes", 0.1, "--ranks", 3, "--faults",
         plan["delay"]),
        ("forecast", "--minutes", 0.1, "--ranks", 2, "--faults",
         plan["drop"]),
        ("validate", scenario),
        ("validate", bad),
        ("validate", tmp / "guarded", "--rundir", tmp / "guarded"),
        ("inspect", tmp / "traced"),
        ("inspect", tmp / "guarded", "--physics"),
        ("inspect", tmp / "guarded", "--integrity"),
        ("inspect", tmp / "ranked"),
        ("inspect", tmp / "nosuch"),
        ("retune", "--from-rundir", tmp / "traced", "--iterations", 300),
        ("retune", "--from-rundir", tmp / "traced", "--iterations", 300,
         "--grid", "mini-kochi", "--ranks", 4),
        ("serve", "--soak", "--duration", 400, "--seed", 3, "--rundir",
         tmp / "soak", "--export-metrics", tmp / "soak.json"),
        ("serve", "--soak", "--duration", 300, "--seed", 7,
         "--diverge-fraction", 0.2, "--corrupt-fraction", 0.25),
        ("serve", "--soak", "--duration", 300, "--seed", 1, "--rate", 6,
         "--queue-capacity", 4, "--workers", 1),
        ("slo", tmp / "soak"),
        ("inspect", tmp / "soak"),
        ("inspect", tmp / "soak", "--physics"),
        ("inspect", tmp / "soak", "--integrity"),
        ("submit", "--deadline", 60, "--minutes", 0.05, "--spool", spool),
        ("submit", "--deadline", 30, "--class", "critical", "--scenario",
         scenario, "--at", 1, "--spool", spool),
        ("submit", "--deadline", 60, "--minutes", 0.05, "--run"),
        ("serve", "--requests", spool, "--backend", "local"),
        ("serve", "--requests", spool, "--backend", "sim"),
    ]
    for argv in runs:
        repro(*argv)
    flights = sorted((tmp / "soak" / "flight").glob("*.json"))
    if flights:
        repro("inspect", tmp / "soak", "--request", flights[0].stem)
    repro("inspect", tmp / "soak", "--request", "nosuch")
    interrupted_run(tmp / "killed", ["--minutes", "0.5"])
    for torn in max((tmp / "killed" / "snapshots").iterdir()).iterdir():
        torn.write_bytes(torn.read_bytes()[:-1])  # the newest snapshot torn
    journal = tmp / "killed" / "journal.jsonl"
    journal.write_bytes(journal.read_bytes()[:-9])  # and the last line
    repro("validate", tmp / "killed")
    repro("resume", tmp / "killed")
    repro("inspect", tmp / "killed", "--physics")
    interrupted_run(tmp / "killed2", ["--minutes", "0.5"])
    repro("forecast", "--rundir", tmp / "killed2", "--resume")
    repro("resume", tmp / "nosuch")


def examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        argv, sys.argv = sys.argv, [str(path), "4", "8"]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv


def ledger() -> None:
    sys.path.insert(0, str(LEDGER))
    import run

    for workload in run.WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            run.main(["--child", "measure", "--workload", workload,
                      "--quick", "--trace", "1", "--seconds", "0.5"])


def figure_benches() -> None:
    import pytest

    benches = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    with contextlib.redirect_stdout(io.StringIO()):
        pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                     "--rootdir", str(ROOT), *benches])


def allows(entry: str, name: str) -> bool:
    """Does the ``ALLOWED`` key *entry* cover the function *name*?"""
    return name == entry or name.startswith(entry + ".")


def main() -> int:
    sys.path.insert(0, str(SRC))
    functions = defined_functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        (tmp / "children").mkdir()
        census = Census(tmp / "children")
        cwd = os.getcwd()
        os.chdir(tmp)
        census.arm()
        try:
            for name, paths in (("cli", lambda: cli_paths(tmp)),
                                ("examples", examples), ("ledger", ledger),
                                ("figure benches", figure_benches)):
                t = time.perf_counter()
                paths()
                print(f"{name:<16} {time.perf_counter() - t:6.1f} s",
                      file=sys.stderr)
        finally:
            census.disarm()
            os.chdir(cwd)
        reached = (census.keys() | census.children()) & functions.keys()

    names = {functions[k] for k in reached}
    unreached = sorted(set(functions.values()) - names)
    print(f"reached {len(reached)} of {len(functions)}")
    allowed = [n for n in unreached if any(allows(a, n) for a in ALLOWED)]
    missing = [n for n in unreached if n not in allowed]
    print(f"unreached and allowed: {len(allowed)}")
    for name in missing:
        print(f"unreached: {name}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
