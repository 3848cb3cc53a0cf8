"""The import graph is one-way, and a forecast imports only what it runs.

DESIGN.md section 9k: no module reaches, at import time, a module that
imports it back; a package ``__init__`` binds the names of submodules a
forecast does not run on first access (``repro.lazy``); and a forked rank
finds everything its body needs already imported by the launcher.
"""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parents[1]
REPO = SRC.parent

#: What ``setup.import_ms`` of a forecast process imports.
FORECAST = ("repro.core", "repro.topo", "repro.fault", "repro.resilience.forecast")

#: None of these runs in a single-process forecast.
NOT_FORECAST = (
    "repro.par", "repro.runtime", "repro.persist", "repro.service",
    "repro.analysis", "repro.balance", "repro.damage",
    "repro.resilience.survive", "repro.obs.critpath", "repro.obs.inspect",
    "repro.obs.slo", "repro.obs.flight", "repro.obs.export",
)


def fresh(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": f"{SRC}:{REPO}"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_forecast_imports_load_no_module_above_them():
    loaded = json.loads(fresh(
        f"import json, sys\nfor m in {FORECAST!r}: __import__(m)\n"
        "print(json.dumps(sorted(sys.modules)))"
    ))
    above = [m for m in loaded if m.startswith(NOT_FORECAST)]
    assert above == []


def module_level_imports(path: Path, name: str, modules: set[str]):
    """The ``repro`` modules *name* imports when it is executed: every
    import outside a function, class or ``if TYPE_CHECKING`` block, and the
    ``__init__`` of each package on the way that *name* is not inside."""
    todo = list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            continue
        if isinstance(node, (ast.If, ast.Try)):
            todo += [n for part in (node.body, getattr(node, "orelse", []),
                                    getattr(node, "finalbody", []),
                                    *[h.body for h in getattr(node, "handlers", [])])
                     for n in part]
            continue
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            targets = [f"{node.module}.{a.name}" if f"{node.module}.{a.name}" in modules
                       else node.module for a in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            for k in range(1, len(parts) + 1):
                step = ".".join(parts[:k])
                if step in modules and not (name + ".").startswith(step + "."):
                    yield step


def repro_modules() -> dict[str, Path]:
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        found[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return found


def test_no_module_imports_itself_back_at_import_time():
    """A cycle works only from some entry points and forces a workaround
    (an import order, or an import moved into a function) on each module
    in it: there is none."""
    modules = repro_modules()
    graph = {name: set(module_level_imports(path, name, set(modules)))
             for name, path in modules.items()}
    state: dict[str, int] = {}
    path: list[str] = []

    def visit(name: str) -> None:
        state[name] = 1
        path.append(name)
        for dep in sorted(graph[name]):
            if state.get(dep) == 1:
                cycle = path[path.index(dep):] + [dep]
                pytest.fail("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep)
        path.pop()
        state[name] = 2

    for name in sorted(graph):
        if name not in state:
            visit(name)


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.obs", "repro.resilience", "repro.par",
    "repro.persist", "repro.runtime", "repro.hw", "repro.topo", "repro.fault",
    "repro.service",
])
def test_every_export_resolves_and_is_bound_once(package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        assert name in dir(pkg)
        getattr(pkg, name)
        assert name in vars(pkg)  # the second read never reaches __getattr__
    for sub in pkgutil.iter_modules(pkg.__path__):  # as an eager __init__ had them
        if not sub.name.startswith("_") and sub.name not in pkg.__all__:
            assert getattr(pkg, sub.name) is sys.modules[f"{package}.{sub.name}"]
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018


def test_a_forked_rank_imports_nothing_after_the_fork(tmp_path):
    """The first kernel call of a fresh process chooses the executor (and
    imports what its self-check reads); ``run_distributed`` makes that
    choice before forking, so no rank pays for an import in its step."""
    out = fresh(f"""
import json, math, os, sys
from repro.core import SimulationConfig
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.par import driver
from repro.par.decomposition import equal_cell_assignment
from repro.validation.analytic import SlopedBathymetry

blocks = [Block(i, 1, 24 * i, 0, 24, 24) for i in range(4)]
grid = NestedGrid([GridLevel(index=1, dx=100.0, blocks=blocks)])
config = SimulationConfig(dt=0.5 * 100.0 / math.sqrt(2 * 9.81 * 100))
init, eta = driver._RankRuntime.__init__, driver._RankRuntime.eta

def counted_init(self, *args, **kwargs):
    self.loaded = set(sys.modules)
    init(self, *args, **kwargs)

def counted_eta(self):
    new = sorted(set(sys.modules) - self.loaded)
    with open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w") as fh:
        json.dump(new, fh)
    return eta(self)

driver._RankRuntime.__init__, driver._RankRuntime.eta = counted_init, counted_eta
driver.run_distributed(
    grid, SlopedBathymetry(100.0, 0.02), config,
    equal_cell_assignment(grid, 2, split_blocks=False),
    GaussianSource(x0=4800.0, y0=1200.0, amplitude=1.0, sigma=600.0), 2,
)
print(os.getpid())
""")
    ranks = {p.name: json.loads(p.read_text()) for p in tmp_path.iterdir()}
    assert len(ranks) == 2 and out.strip() in ranks  # rank 0 and one forked rank
    assert ranks == {pid: [] for pid in ranks}
