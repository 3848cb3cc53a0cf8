"""The compiled executor of NLMASS, NLMNT2 and OUTPUT: ``loopnest.c`` next to
this file, built once by the host's C compiler and called through ``ctypes``.

The first kernel call of a process chooses its executor from what it can
observe: a compiler (``$CC``, else ``cc``) that builds the nest, an object
that loads, and a nest that reproduces the NumPy bodies bit for bit on a
tiny fixed state.  Anything else — no compiler, a failed build, a cache it
cannot trust — leaves the NumPy bodies in charge and one logged reason.
The object is cached per user under the hash of source, flags, compiler
version and machine (no ``-march``: any CPU of the machine type runs it), in
a directory and a file nobody else can write.  DESIGN.md section 9g.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SOURCE = Path(__file__).with_name("loopnest.c")
#: IEEE arithmetic in source order.  The last two let gcc vectorise the
#: selects and inline sqrt; they drop errno and exception flags, not bits.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math")
_PTR, _INT, _REAL = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
ARGTYPES = {
    "nlmass": (_PTR,) * 5 + (_INT,) * 5 + (_REAL,) * 2,
    "faces": (_PTR,) * 5 + (_INT,) * 7 + (_REAL,),
    "update": (_PTR,) * 4 + (_INT,) * 7 + (_REAL,) * 5,
    "output": (_PTR,) * 10 + (_INT,) * 5 + (_REAL,) * 5,
}

_LOCK = threading.RLock()  # re-entered by the self-check's own kernel calls
#: ``made``: False, None while the choice is being made, True.
_CHOICE = SimpleNamespace(made=False, executor="numpy", reason="", compiler="", nests={})


def _mine(path: Path) -> Path:
    """*path*, if nobody else could have written it."""
    st = path.stat()
    if st.st_uid != os.geteuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path} is not this user's alone")
    return path


def _load(obj: Path) -> dict:
    """The entry points, by dtype char, of an object nobody else could have
    written and whose bytes are those its name was given for (a truncated
    object does not fail to load: it kills the process)."""
    if hashlib.sha256(_mine(obj).read_bytes()).hexdigest()[:16] != obj.stem[-16:]:
        raise OSError(f"{obj} is damaged")
    lib, nests = ctypes.CDLL(str(obj)), {}
    for char, suffix in (("d", "_f64"), ("f", "_f32")):
        nests[char] = SimpleNamespace()
        for name, argtypes in ARGTYPES.items():
            fn = getattr(lib, name + suffix)
            fn.argtypes, fn.restype = argtypes, None
            setattr(nests[char], name, fn)
    return nests


def _build() -> dict:
    cc = shlex.split(os.environ.get("CC", "cc"))
    run = dict(capture_output=True, text=True, timeout=120, check=True)
    _CHOICE.compiler = subprocess.run([*cc, "--version"], **run).stdout.split("\n")[0]
    key = repr((SOURCE.read_bytes(), FLAGS, _CHOICE.compiler, platform.machine()))
    stem = f"loopnest-{hashlib.sha256(key.encode()).hexdigest()[:16]}"
    home = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro-loopnest"
    try:
        home.mkdir(parents=True, exist_ok=True, mode=0o700)
        return _load(next(_mine(home).glob(stem + "-*.so")))  # the warm path
    except (OSError, AttributeError, StopIteration):
        pass  # nothing cached yet, or nothing this process may trust
    try:
        room = Path(tempfile.mkdtemp(dir=_mine(home)))
    except OSError:  # no cache of this user's to write: build for this process
        home = room = Path(tempfile.mkdtemp())
    try:
        built = room / "nest.so"
        subprocess.run([*cc, *FLAGS, "-fPIC", "-shared", str(SOURCE), "-o", str(built), "-lm"], **run)
        os.chmod(built, 0o700)
        obj = home / f"{stem}-{hashlib.sha256(built.read_bytes()).hexdigest()[:16]}.so"
        os.replace(built, obj)  # atomic: a racing process loads all of one object
        return _load(obj)
    finally:
        shutil.rmtree(room, ignore_errors=True)


def _tiny_forecast(dtype) -> bytes:
    """One step of a fixed 5 x 4 shore, and its products, on the executor of
    the moment."""
    from repro.core.mass import nlmass as continuity  # not by run_step's names:
    from repro.core.momentum import nlmnt2 as momentum  # a forecast has one caller
    from repro.core.outputs import OutputAccumulator
    from repro.grid.block import Block

    j, i = np.mgrid[0:10, 0:9]
    wave, hz = np.sin(1.3 * j + 0.7 * i), (2.0 * np.cos(0.9 * i) + 0.5)[:9, :8].astype(dtype)
    z = np.maximum(0.3 * wave[:9, :8], -hz).astype(dtype)
    m, n = (0.4 * wave[:9, :9]).astype(dtype), (0.4 * wave[:10, :8]).astype(dtype)
    new = np.empty_like(z), np.empty_like(m), np.empty_like(n)
    continuity(z, m, n, hz, 0.5, 10.0, new[0])
    momentum(new[0], m, n, hz, 0.5, 10.0, 0.025, new[1], new[2])
    # (Cell (0, 0) comes out a 6 mm film between flowing faces: no speed reported.)
    products = OutputAccumulator(Block(0, 1, 0, 0, 4, 5), hz[2:-2, 2:-2], z[2:-2, 2:-2])
    new[0][2, 5], products.zmax[0, 3] = -0.0, 0.0  # a tie: this NumPy's maximum, or the nest's?
    products.update(*new, hz, 7.0)
    return b"".join(a.tobytes() for a in (*new, *products.product_arrays().values()))


def _choose() -> None:
    _CHOICE.made = None
    try:
        expected = [_tiny_forecast(dtype) for dtype in (np.float64, np.float32)]
        _CHOICE.nests = _build()
        if [_tiny_forecast(dtype) for dtype in (np.float64, np.float32)] != expected:
            raise ArithmeticError("the built nest does not reproduce the NumPy bodies")
        _CHOICE.executor = "nest"
    except Exception as exc:  # noqa: BLE001 - whatever it is, the forecast runs on NumPy
        from repro.obs.log import get_logger  # not above: repro.obs imports repro.core

        said = (getattr(exc, "stderr", None) or "").strip()[-200:]
        _CHOICE.reason = f"{type(exc).__name__}: {exc} {said}".strip()
        get_logger("core").warning("loopnest_fallback", reason=_CHOICE.reason, cc=_CHOICE.compiler)
    finally:
        if _CHOICE.executor != "nest":  # no candidate outlives a failed check
            _CHOICE.nests = {}
        _CHOICE.made = True


def choice() -> SimpleNamespace:
    """This process's ``executor`` ("nest" or "numpy"), the ``compiler`` it
    found and the ``reason`` it fell back, chosen on the first call."""
    if _CHOICE.made is not True:
        with _LOCK:
            if _CHOICE.made is False:  # None: the self-check, running its candidate
                _choose()
    return _CHOICE


def provenance() -> dict:
    """The choice as a run records it; before any kernel ran, nothing chosen."""
    keys = ("executor", "compiler", "reason")
    return {k: getattr(_CHOICE, k) if _CHOICE.made else None for k in keys}


def entry(g: int, scalars: tuple, cells: tuple, ms: tuple, ns: tuple):
    """The nest for this call, or None: the NumPy body's.  The nest takes a
    dtype it was built for, C-contiguous arrays of exactly the shapes of z
    (*cells*), M (*ms*) and N (*ns*), the two ghost layers its face ring
    reads, and scalars NumPy would round to that dtype as C does."""
    (R, P), dtype = cells[0].shape, cells[0].dtype
    nest = choice().nests.get(dtype.char)
    if nest is None or g < 2:
        return None
    for arrays, shape in ((cells, (R, P)), (ms, (R, P + 1)), (ns, (R + 1, P))):
        for a in arrays:
            if a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous:
                return None
    if any(type(s) not in (float, int) and getattr(s, "dtype", None) != dtype for s in scalars):
        return None
    return nest
