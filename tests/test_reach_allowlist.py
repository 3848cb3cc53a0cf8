"""The reach census's allow-list names only what ``src/repro`` defines.

``scripts/reach.py`` exits 1 when a function of ``src/repro`` goes
unreached by every product path and its ``ALLOWED`` table does not name
it.  An entry left behind after its function was deleted would quietly
allow a new function of the same name, so each entry must still name a
module, class or function of ``src/repro``, and give a reason.  The
table stays short: a function only its own tests call is deleted rather
than listed.  Nothing is run: the script's table and the source are
parsed.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"


def _reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowed_entry_names_something_in_src():
    reach = _reach()
    names = set(reach.defined_functions().values())
    assert names
    stale = [entry for entry in reach.ALLOWED
             if not any(reach.allows(entry, name) for name in names)]
    assert stale == []


def test_every_allowed_entry_gives_a_reason():
    assert all(isinstance(why, str) and why.strip()
               for why in _reach().ALLOWED.values())


def test_the_allow_list_does_not_regrow():
    allowed = _reach().ALLOWED
    assert len(allowed) <= 14
    assert [entry for entry, why in allowed.items()
            if why.lstrip().startswith("tests only")] == []
