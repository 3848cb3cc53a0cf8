"""Hostile build environments end in a working executor, never a traceback.

The executor is chosen once per process (``repro.core.loopnest``), so each
case is a fresh interpreter: a fake ``cc`` on a temporary ``PATH`` or in
``$CC``, a cache home of its own, one short forecast.  Whatever happened to
the build, the forecast's bytes — the state's and, apart, the products' — are
those of the NumPy executor, the choice names one reason, and stderr carries
one structured ``loopnest_fallback`` line when — and only when — the process
fell back.
"""

import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import loopnest, scratch
from repro.core.momentum import nlmnt2

from tests import executors
from tests.test_kernels_bitwise import DT, DX, MANNING, random_state
from tests.test_scratch_arena import beach_model

SRC = Path(loopnest.__file__).parents[2]
REPO = Path(__file__).parents[1]

FORECAST = """
import json
{before}
from repro.core import loopnest
from tests.test_loopnest_build import forecast_digest
digest, choice = forecast_digest(), loopnest.choice()
print(json.dumps(dict(digest=digest, executor=choice.executor,
                      reason=choice.reason, compiler=choice.compiler)))
"""


def forecast_digest():
    """A short beach forecast's state and its products, each hashed."""
    model = beach_model(40, 30)
    model.run(12)
    (st,), (acc,) = model.states.values(), model.outputs.values()
    return {
        what: hashlib.sha256(b"".join(a.tobytes() for _, a in sorted(arrays.items()))).hexdigest()
        for what, arrays in (("state", st.state_arrays()), ("products", acc.product_arrays()))
    }


def forecast_in_a_fresh_process(cache, cc=None, path=None, before=""):
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env.update(PYTHONPATH=f"{SRC}{os.pathsep}{REPO}", XDG_CACHE_HOME=str(cache))
    if cc is not None:
        env["CC"] = str(cc)
    if path is not None:
        env["PATH"] = str(path)
    done = subprocess.run(
        [sys.executable, "-c", FORECAST.format(before=before)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    said = [line for line in done.stderr.splitlines() if "loopnest_fallback" in line]
    assert "Traceback" not in done.stderr
    return json.loads(done.stdout), said


@pytest.fixture(scope="module")
def expected():
    """The forecast's digest on the NumPy executor, in this process."""
    with executors.on_numpy():
        return forecast_digest()


def fake_cc(tmp_path, body):
    """An executable that answers ``--version`` and otherwise runs *body*
    (shell; ``$out`` is the path after ``-o``)."""
    script = tmp_path / "fakecc"
    script.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = --version ]; then echo "fakecc 1.0"; exit 0; fi\n'
        'while [ $# -gt 1 ]; do [ "$1" = -o ] && out="$2"; shift; done\n'
        f"{body}\n"
    )
    script.chmod(0o755)
    return script


def fell_back(result, said, expected, because):
    (line,) = said  # one structured reason
    assert result["executor"] == "numpy" and because in result["reason"], result
    assert because in line
    assert result["digest"] == expected


def test_a_working_compiler_builds_the_nest_once_and_the_next_process_loads_it(
    tmp_path, expected
):
    executors.compiled_nests()
    first, said = forecast_in_a_fresh_process(tmp_path)
    assert first["executor"] == "nest" and not said and first["digest"] == expected
    (obj,) = (tmp_path / "repro-loopnest").iterdir()  # no build room left behind
    assert stat.S_IMODE(obj.stat().st_mode) == 0o700
    assert stat.S_IMODE(obj.parent.stat().st_mode) == 0o700
    built = obj.stat().st_mtime_ns
    # The second process needs no compiler for it but the one that names it.
    again, said = forecast_in_a_fresh_process(
        tmp_path, cc=fake_cc(tmp_path, "exit 1").with_name("nosuch")
    )
    assert again["executor"] == "numpy" and said  # another compiler: another key
    again, said = forecast_in_a_fresh_process(tmp_path)
    assert again["executor"] == "nest" and not said and obj.stat().st_mtime_ns == built


def test_two_cc_values_differing_in_one_flag_build_two_objects(tmp_path, expected):
    """``CC="cc -fsanitize=address,undefined"`` answers ``--version`` as plain
    ``cc`` does: each must load the object it built, never the other's."""
    executors.compiled_nests()
    for cc in ("cc", "cc -g"):
        result, said = forecast_in_a_fresh_process(tmp_path, cc=cc)
        assert result["executor"] == "nest" and not said and result["digest"] == expected
    objects = list((tmp_path / "repro-loopnest").iterdir())
    assert len({obj.name.rsplit("-", 1)[0] for obj in objects}) == 2, objects


def test_no_compiler(tmp_path, expected):
    empty = tmp_path / "bin"
    empty.mkdir()
    result, said = forecast_in_a_fresh_process(tmp_path, path=empty)
    fell_back(result, said, expected, "FileNotFoundError")


def test_cc_false_is_the_no_compiler_platform(tmp_path, expected):
    result, said = forecast_in_a_fresh_process(tmp_path, cc="false")
    fell_back(result, said, expected, "CalledProcessError")


def test_a_compiler_that_exits_non_zero(tmp_path, expected):
    cc = fake_cc(tmp_path, 'echo "loopnest.c:1: error: no" >&2; exit 1')
    result, said = forecast_in_a_fresh_process(tmp_path, cc=cc)
    fell_back(result, said, expected, "CalledProcessError")
    assert "error: no" in result["reason"] and result["compiler"] == "fakecc 1.0"


def test_a_compiler_that_writes_garbage(tmp_path, expected):
    cc = fake_cc(tmp_path, 'echo "not an object" > "$out"')
    result, said = forecast_in_a_fresh_process(tmp_path, cc=cc)
    fell_back(result, said, expected, "OSError")


def test_a_compiler_that_writes_nothing(tmp_path, expected):
    result, said = forecast_in_a_fresh_process(tmp_path, cc=fake_cc(tmp_path, "exit 0"))
    fell_back(result, said, expected, "FileNotFoundError")


def a_wrong_nest_falls_back(tmp_path, expected, right, wrong):
    executors.compiled_nests()
    source = loopnest.SOURCE.read_text()
    assert source.count(right) == 1
    (tmp_path / "loopnest.c").write_text(source.replace(right, wrong))
    result, said = forecast_in_a_fresh_process(
        tmp_path, before=f"from pathlib import Path; from repro.core import loopnest; "
                         f"loopnest.SOURCE = Path({str(tmp_path / 'loopnest.c')!r})"
    )
    fell_back(result, said, expected, "does not reproduce")


def test_a_nest_that_computes_something_else_fails_the_self_check(tmp_path, expected):
    a_wrong_nest_falls_back(
        tmp_path, expected, "(m >= 0 ? f_up : f_down)", "(m >= 0 ? f_down : f_up)"
    )


def test_an_output_without_the_speed_depth_floor_fails_the_self_check(tmp_path, expected):
    """A wrong ``output`` ends on NumPy — state *and products* — never in a
    wrong forecast: the nest is taken or left whole."""
    a_wrong_nest_falls_back(tmp_path, expected, "gate = dry > film ? dry : film;", "gate = dry;")


def test_without_a_cache_home_to_write_the_process_builds_for_itself(tmp_path, expected):
    executors.compiled_nests()
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    result, said = forecast_in_a_fresh_process(not_a_dir)
    assert result["executor"] == "nest" and not said and result["digest"] == expected


@pytest.mark.parametrize("damage", ["truncated", "group-writable", "emptied"])
def test_a_damaged_cached_object_is_rebuilt_not_loaded(tmp_path, expected, damage):
    executors.compiled_nests()
    forecast_in_a_fresh_process(tmp_path)
    (obj,) = (tmp_path / "repro-loopnest").iterdir()
    whole = obj.read_bytes()
    if damage == "group-writable":
        obj.chmod(0o770)
    else:
        obj.write_bytes(whole[: len(whole) // 2] if damage == "truncated" else b"")
    result, said = forecast_in_a_fresh_process(tmp_path)
    assert result["executor"] == "nest" and not said and result["digest"] == expected
    (obj,) = (tmp_path / "repro-loopnest").iterdir()
    assert len(obj.read_bytes()) == len(whole)
    assert stat.S_IMODE(obj.stat().st_mode) == 0o700


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a file away")
@pytest.mark.parametrize("whose", ["object", "directory"])
def test_a_cache_somebody_else_owns_is_neither_loaded_nor_written(tmp_path, expected, whose):
    executors.compiled_nests()
    forecast_in_a_fresh_process(tmp_path)
    (obj,) = (tmp_path / "repro-loopnest").iterdir()
    os.chown(obj if whose == "object" else obj.parent, 65534, 65534)
    with pytest.raises(PermissionError):
        loopnest._load(obj) if whose == "object" else loopnest._mine(obj.parent)
    before = obj.stat()
    result, said = forecast_in_a_fresh_process(tmp_path)
    assert result["executor"] == "nest" and not said and result["digest"] == expected
    if whose == "directory":  # built in a room of the process's own
        after = obj.stat()
        assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns, before.st_ino)
    else:  # replaced, in this user's directory, by this user's
        assert obj.stat().st_uid == 0
    assert [p.name for p in obj.parent.iterdir()] == [obj.name]


def test_processes_racing_the_first_build_all_get_the_nest(tmp_path, expected):
    executors.compiled_nests()
    results = []
    racers = [
        threading.Thread(target=lambda: results.append(forecast_in_a_fresh_process(tmp_path)))
        for _ in range(3)
    ]
    for racer in racers:
        racer.start()
    for racer in racers:
        racer.join(timeout=300)
    assert len(results) == 3
    for result, said in results:
        assert result["executor"] == "nest" and not said and result["digest"] == expected
    assert len(list((tmp_path / "repro-loopnest").iterdir())) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_and_its_team_helper_use_the_nest_loaded_before_the_fork(monkeypatch):
    executors.compiled_nests()
    monkeypatch.setattr(scratch, "STRIP_ELEMENTS", 300)  # many strips: a team
    z, m, n, hz = random_state(40, 30, seed=4)
    want = nlmnt2(z, m, n, hz, DT, DX, MANNING, np.empty_like(m), np.empty_like(n))
    calls, waited, entered = [], [], threading.Event()

    def wrap(name, fn):
        def counted(*args):
            me = threading.current_thread().name
            calls.append(me)
            if me.startswith("strip-team-"):
                entered.set()
            elif scratch._BUSY.locked() and not waited:
                # The caller's first strip of a team walk waits (bounded) for
                # a helper to enter one: else the caller may walk them all.
                waited.append(entered.wait(timeout=30))
            return fn(*args)

        return counted

    with executors.on_nests(executors.wrapped(loopnest.choice().nests, wrap)):
        pid = os.fork()
        if pid == 0:  # the child: report through the exit status only
            status = 1
            try:
                scratch._CPU_SHARE = 1  # (one CPU would be a team of one)
                monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
                got = nlmnt2(z, m, n, hz, DT, DX, MANNING, np.empty_like(m), np.empty_like(n))
                same = all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
                helped = any(name.startswith("strip-team-") for name in calls)
                status = 0 if same and helped else 2 if same else 3
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0) == (pid, 0)


# ---------------------------------------------------------------------------
# Packaging and tooling
# ---------------------------------------------------------------------------


def test_an_installed_package_ships_the_source_and_finds_it(tmp_path):
    """What setuptools installs is each package's ``.py`` files and the
    package data ``pyproject.toml`` declares: lay that out, import from it."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11
    declared = tomllib.loads((REPO / "pyproject.toml").read_text())
    data = declared["tool"]["setuptools"]["package-data"]
    site = tmp_path / "site-packages"
    shipped = list(SRC.rglob("*.py"))
    for package, patterns in data.items():
        for pattern in patterns:
            shipped += (SRC / package.replace(".", "/")).glob(pattern)
    for path in shipped:
        target = site / path.relative_to(SRC)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro.core import loopnest; assert loopnest.SOURCE.is_file(), loopnest.SOURCE; "
         "print(loopnest.SOURCE); print(loopnest.choice().executor)"],
        env={**os.environ, "PYTHONPATH": str(site), "XDG_CACHE_HOME": str(tmp_path)},
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    where, executor = done.stdout.split()
    assert Path(where) == site / "repro" / "core" / "loopnest.c"
    assert executor == loopnest.choice().executor


def perf_ab_and_fake_trees(tmp_path, **sides):
    """``scripts/perf_ab.py`` as a module, and under *tmp_path* one tree per
    side whose ``loopnest`` answers with the side's ``(executor, product)``
    — no ``loopnest`` at all for an executor of None — and whose one ledger
    workload, ``w``, has products filled with *product*."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perf_ab", REPO / "scripts" / "perf_ab.py")
    perf_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_ab)
    for side, (executor, product) in sides.items():
        core, ledger = tmp_path / side / "src" / "repro" / "core", tmp_path / side / "benchmarks" / "ledger"
        core.mkdir(parents=True)
        ledger.mkdir(parents=True)
        (core.parent / "__init__.py").write_text("")
        (core / "__init__.py").write_text("")
        (tmp_path / side / "BENCHMARK.json").write_text('{"workloads": []}')
        (ledger / "compare.py").write_text("")
        (ledger / "workloads.py").write_text(
            "import numpy as np\n"
            "class Acc:\n"
            f"    zmax = vmax = inundation_max = arrival_time = np.full(3, {product!r})\n"
            "class Model:\n"
            "    outputs = {0: Acc()}\n"
            "    def run(self, steps): pass\n"
            "class W:\n"
            "    steps, model = 1, Model()\n"
            "    def __init__(self, seed): pass\n"
            "    def build(self): pass\n"
            "WORKLOAD_CLASSES = {'w': W}\n"
        )
        if executor:
            (core / "loopnest.py").write_text(
                "def choice(): pass\n"
                f"def provenance(): return dict(executor={executor!r}, "
                "compiler='cc 1.0', reason='')\n"
            )
    return perf_ab


def test_perf_ab_does_not_measure_two_trees_on_different_executors(tmp_path, capsys):
    perf_ab = perf_ab_and_fake_trees(
        tmp_path, base=("numpy", 1.0), head=("nest", 1.0), old=(None, 1.0)
    )
    assert perf_ab.executor_of(tmp_path / "old") is None  # predates the choice
    assert perf_ab.executor_of(tmp_path / "head")["executor"] == "nest"
    args = ["--pairs", "0", "--out", str(tmp_path / "out")]
    assert perf_ab.main([str(tmp_path / "base"), str(tmp_path / "head"), *args]) == 1
    assert "different executors" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_perf_ab_fails_a_change_that_alters_the_products(tmp_path, capsys):
    """The ledger's digest is the water level's; the products have their own."""
    perf_ab = perf_ab_and_fake_trees(
        tmp_path, base=("nest", 1.0), same=("nest", 1.0), head=("nest", 1.5)
    )
    args = ["--pairs", "0", "--workload", "w", "--out", str(tmp_path / "out")]
    assert perf_ab.main([str(tmp_path / "base"), str(tmp_path / "same"), *args]) == 0
    assert "products digest differs" not in capsys.readouterr().out
    assert perf_ab.main([str(tmp_path / "base"), str(tmp_path / "head"), *args]) == 1
    assert "products digest differs" in capsys.readouterr().out
    written = json.loads((tmp_path / "out" / "head.json").read_text())
    assert written["provenance"]["products_digest"] == perf_ab.products_digest_of(
        tmp_path / "head", "w", 0
    )
