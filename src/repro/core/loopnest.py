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

A kernel call on the nest is *prepared* once per set of array objects
(:func:`prepared`): validated, its addresses resolved, its geometry laid out
— the paper's Listing-6 tables, for launches — and from then on only
launched.  The table is found again by the identity of the arrays, which it
references weakly and dies with.  DESIGN.md section 9h.  The exchange phases
— halo seams, ghost fills, JNQ, JNZ — are prepared the same way, as tables
of two more entry points (:func:`exchange`; DESIGN.md section 9i), and the
health guard's reductions over every block as one more (:func:`scan`;
DESIGN.md section 9j).
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
import weakref
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.core import scratch
from repro.grid.staggered import NGHOST

SOURCE = Path(__file__).with_name("loopnest.c")
#: IEEE arithmetic in source order.  The last two let gcc vectorise the
#: selects and inline sqrt; they drop errno and exception flags, not bits.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math")
_PTR, _INT, _REAL = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
#: What a call freezes comes first, what travels with a launch after it.
ARGTYPES = {
    "nlmass": (_PTR,) * 5 + (_INT,) * 3 + (_INT,) * 2 + (_REAL,) * 2,
    "faces": (_PTR,) * 4 + (_INT,) * 4 + (_PTR,) + (_INT,) * 3 + (_REAL,),
    "update": (_PTR,) * 5 + (_INT,) * 4 + (_PTR,) + (_INT,) * 3 + (_REAL,) * 5,
    "output": (_PTR,) * 10 + (_INT,) * 3 + (_INT,) * 2 + (_REAL,) * 5,
    # The exchange phases: a table and its length, then the rest of the call.
    "moves": (_PTR, _INT),
    "restrict": (_PTR, _INT, _PTR, _INT, _PTR, _PTR),
    # The health guard's reductions: a table, its length, the records; dry.
    "scan": (_PTR, _INT, _PTR, _REAL),
}
#: The element type of the tables the exchange routines walk: C's ``long``.
_TABLE = np.dtype(ctypes.c_long)

_LOCK = threading.RLock()  # re-entered by the self-check's own kernel calls
#: ``made``: False, None while the choice is being made, True.
_CHOICE = SimpleNamespace(made=False, executor="numpy", reason="", compiler="", nests={})
#: The prepared calls, by ``(kernel, ghosts, cells, strip cap, id of each array)``
#: or ``(routine, layout, geometry..., id of each array)``.
_CALLS: dict = {}
#: Per routine, ``[prepared, launches]`` so far.
_COUNTS = {
    routine: [0, 0] for routine in ("nlmass", "nlmnt2", "output", "moves", "restrict", "scan")
}
_COUNT_LOCK = threading.Lock()
_RAN = threading.local()  # .executor: what ran this thread's last kernel call


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


def _tiny_exchange(dtype) -> bytes:
    """The exchange phases of one step of a fixed two-level grid, on the
    executor of the moment: two parents across a seam, one child over both —
    restriction regions one parent cell wide and wider, a tile of -0.0 in
    each, land and sea under them — and the two links' JNZ buffers."""
    from repro.core.boundary import SIDES, fill_ghosts_zero_gradient
    from repro.core.state import BlockState
    from repro.grid.block import Block
    from repro.nesting.interp import child_boundary_segments, interpolate_fluxes
    from repro.nesting.restrict import pack_restriction, restrict_eta, restriction_region
    from repro.xchg.halo import exchange_halo

    west, east, child = Block(0, 1, 0, 0, 2, 6), Block(1, 1, 2, 0, 2, 6), Block(2, 2, 3, 0, 9, 18)
    states = []
    for k, blk in enumerate((west, east, child)):
        j, i = np.mgrid[0 : blk.ny + 4, 0 : blk.nx + 4]
        st = BlockState(blk, 1.0, np.cos(1.7 * i - 0.6 * j + k) + 1.5, dtype)
        st.hz[3, 3], st.hz[4, 2] = -0.5, 0.0  # land in both parents' regions
        for f, a in enumerate((st.z_new, st.m_new, st.n_new)):
            r, c = np.mgrid[0 : a.shape[0], 0 : a.shape[1]]
            a[...] = np.sin(0.9 * r + 1.3 * c + 2.1 * f + k) * 10.0 ** ((2 * r + c) % 7 - 3)
        states.append(st)
    parents, fine = states[:2], states[2]
    fine.z_new[2:5, 2:5] = fine.z_new[2:5, 5:8] = -0.0  # a tile under each parent
    for st in parents:  # JNZ
        restrict_eta(st.z_new, fine.z_new, st.block, child, parent_h=st.hz)
    out = [pack_restriction(fine.z_new, child, restriction_region(p.block, child)) for p in parents]
    for st in states:  # PTP_Z
        fill_ghosts_zero_gradient(st.z_new, SIDES)
    exchange_halo(*parents, "z")
    segs = child_boundary_segments([child], child)
    for st in parents:  # JNQ
        interpolate_fluxes(st.m_new, st.n_new, fine.m_new, fine.n_new, st.block, child, segs)
    for st in states:  # PTP_MN
        fill_ghosts_zero_gradient(st.m_new, SIDES)
        fill_ghosts_zero_gradient(st.n_new, SIDES)
    exchange_halo(*parents, "m")
    exchange_halo(*parents, "n")
    out += [a for st in states for a in st.state_arrays().values()]
    return b"".join(a.tobytes() for a in out)


def _tiny_scan(dtype) -> bytes:
    """The health guard's reductions, as the physics sampler reads them, on
    the executor of the moment: an all-dry block, and a shore with land above
    its waterline, a depth of -0.0 and its largest flux in M's extra face
    column — then with a NaN in a ghost cell of z, then with an inf in that
    column."""
    from repro.core.state import BlockState
    from repro.grid.block import Block
    from repro.obs.physics import _block_maxima

    land = BlockState(Block(0, 1, 0, 0, 3, 2), 1.0, np.full((2, 3), -4.0), dtype)
    j, i = np.mgrid[0:7, 0:9]
    shore = BlockState(Block(1, 1, 3, 0, 5, 3), 1.0, 3.0 * np.cos(0.8 * i - 0.5 * j), dtype)
    for k, a in enumerate((shore.z_old, shore.m_old, shore.n_old)):
        r, c = np.indices(a.shape)
        a += np.sin(1.1 * c - r + k)
    shore.hz[3, 4] = shore.z_old[3, 4] = -0.0
    shore.m_old[4, -1] = 7.0
    said = [repr(_block_maxima((land, shore), 0.01))]
    for a, at, bad in ((shore.z_old, (0, 3), np.nan), (shore.m_old, (4, -1), np.inf)):
        was, a[at] = a[at], bad
        said.append(repr(_block_maxima((land, shore), 0.01)))
        a[at] = was
    return "".join(said).encode()


def _tiny_step(dtype) -> bytes:
    return _tiny_forecast(dtype) + _tiny_exchange(dtype) + _tiny_scan(dtype)


def _choose() -> None:
    _CHOICE.made = None
    try:
        expected = [_tiny_step(dtype) for dtype in (np.float64, np.float32)]
        _CHOICE.nests = _build()
        if [_tiny_step(dtype) for dtype in (np.float64, np.float32)] != expected:
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
        for counts in _COUNTS.values():  # the self-check's are not a run's
            counts[:] = 0, 0
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
    """The choice as a run records it — before any kernel ran, nothing chosen —
    and how many calls this process has ``prepared`` and how many
    ``launches`` it made of them, in total and per ``routines`` entry (the
    kernels, ``moves``, ``restrict``, ``scan``): equal counts mean a caller
    hands in fresh array objects on every step."""
    keys = ("executor", "compiler", "reason")
    said = {k: getattr(_CHOICE, k) if _CHOICE.made else None for k in keys}
    routines = {name: {"prepared": p, "launches": n} for name, (p, n) in _COUNTS.items()}
    return {
        **said,
        "prepared": sum(r["prepared"] for r in routines.values()),
        "launches": sum(r["launches"] for r in routines.values()),
        "routines": routines,
    }


def ran() -> str:
    """What ran the calling thread's last kernel call: "nest" or "numpy"."""
    return getattr(_RAN, "executor", "numpy")


#: Per kernel: its arrays in call order — c: a cell frame (R x P), m, n: the
#: face frames; of the forecast products z: one in the state's precision, d: a
#: double one, b: the land mask —, how many of the last it writes, the sweeps
#: of ``faces``/``update`` it runs, and whether it needs a positive dry
#: threshold (a face is closed exactly where its depth is 0 only over one; a
#: depth of -0.0 is then never wet), and the routine it is counted under.
_KERNELS = {
    "nlmass": ("cmncc", 1, 0, False, "nlmass"),
    "nlmnt2": ("cmncmn", 2, 3, True, "nlmnt2"),
    "xmmt": ("cmncm", 1, 1, True, "nlmnt2"),
    "ymmt": ("cmncn", 1, 2, True, "nlmnt2"),
    "output": ("cmnczdddzb", 0, 0, True, "output"),
}


class Prepared:
    """One call on one set of arrays, validated and laid out: the entry
    points (``fn``), for each the arguments that never change (``table``),
    the strip ``cuts`` and, for the momentum sweeps, each strip's scratch
    (``planes[r0]``, :func:`repro.core.scratch.sweep_planes`'s arguments); of
    an exchange routine, the table it walks (``rows``) and what its NumPy
    body returns (``result``).  It holds addresses, not arrays: ``refs`` are
    weak, and the death of any of them removes the call."""

    __slots__ = (
        "refs", "nests", "dtype", "fn", "table", "cuts", "planes", "rows", "result", "counts",
    )

    def holds(self, arrays: tuple) -> bool:
        """Whether *arrays* are, object for object, what was prepared — on the
        nests of the moment (a test pins others)."""
        if self.nests is not _CHOICE.nests:
            return False
        for ref, a in zip(self.refs, arrays):
            if ref() is not a:
                return False
        return True


def _address(a: np.ndarray) -> int:
    return a.ctypes.data


def _round_as_c(scalars: tuple, dtype: np.dtype) -> bool:
    """Whether NumPy would round every scalar to *dtype* the way a C cast does:
    a Python number, or a NumPy scalar of that very dtype."""
    for s in scalars:
        if type(s) is not float and type(s) is not int and getattr(s, "dtype", None) != dtype:
            return False
    return True


def _evict(calls: dict, key: tuple, ref) -> None:
    """An array died: the call prepared on it goes (unless *key*, which holds
    ids, already names a younger call on an array that took its place)."""
    call = calls.get(key)
    if call is not None and ref in call.refs:
        calls.pop(key, None)


def _prepare(key: tuple, kernel: str, arrays: tuple, g: int, cells) -> Prepared | None:
    """Validate and lay out one call, or None: the NumPy body's.  The nest
    takes a dtype it was built for, C-contiguous arrays of exactly the shapes
    of z, M and N, the two ghost layers its face ring reads, products as
    ``RTiModel`` builds them — the highest level and its reference in the
    state's precision, the others double, the land mask bool — and nothing it
    writes may share memory with anything else of the call (the NumPy body
    raises that)."""
    nests, z = choice().nests, arrays[0]
    nest = nests.get(z.dtype.char)
    if nest is None or g < 2 or z.ndim != 2:
        return None
    (R, P), dtype = z.shape, z.dtype
    ny, nx = cells or (R - 2 * g, P - 2 * g)
    roles, written, sweeps, _, routine = _KERNELS[kernel]
    frames = {
        "c": ((ny + 2 * g, nx + 2 * g), dtype), "m": ((R, P + 1), dtype), "n": ((R + 1, P), dtype),
        "z": ((ny, nx), dtype), "d": ((ny, nx), np.dtype(float)), "b": ((ny, nx), np.dtype(bool)),
    }
    for a, role in zip(arrays, roles, strict=True):
        if (a.shape, a.dtype) != frames[role] or not a.flags.c_contiguous:
            return None
    for k in range(len(arrays) - written, len(arrays)):
        if any(np.may_share_memory(arrays[k], a) for j, a in enumerate(arrays) if j != k):
            return None

    call = Prepared()
    call.nests, call.dtype, call.planes = nests, dtype, None
    at = [_address(a) for a in arrays]
    rows = scratch.strips(g, g + ny, P)
    if kernel == "nlmass":
        call.fn, call.table, call.cuts = nest.nlmass, (*at, P, R, g), rows
    elif kernel == "output":  # walks the products' rows, not the frame's
        call.fn, call.table, call.cuts = nest.output, (*at, P, g, nx), scratch.strips(0, ny, nx)
    else:
        call.cuts = rows
        z_p, m_p, n_p, h_p = at[:4]
        out_m, out_n = at[4] if sweeps & 1 else None, at[-1] if sweeps & 2 else None
        call.fn = (nest.faces, nest.update)
        call.table = ((z_p, h_p, m_p, n_p, P, R, g, sweeps),
                      (z_p, m_p, n_p, out_m, out_n, P, R, g, sweeps))
        # A strip's scratch, as loopnest.c lays it out: per plane the M
        # sweep's lanes — its face rows and one more either side, of nx + 3 —
        # then the N sweep's, of nx + 2, the block's last strip with the face
        # row beyond its cells.  The power skips the first and the last row.
        WM, WN, call.planes = nx + 3, nx + 2, {}
        for r0, r1, _ in call.cuts:
            LM = (r1 - r0 + 2) * WM if sweeps & 1 else 0
            LN = (r1 + (r1 == R - g) - r0 + 2) * WN if sweeps & 2 else 0
            call.planes[r0] = (dtype, LM + LN, WM if LM else WN, WN if LN else WM)
    return _remember(key, call, arrays, routine)


def _remember(key: tuple, call: Prepared, arrays: tuple, routine: str) -> Prepared:
    """File a prepared *call* under *key*, until the first of *arrays* dies."""
    evict = partial(_evict, _CALLS, key)
    call.refs = tuple(weakref.ref(a, evict) for a in arrays)
    call.counts = _COUNTS[routine]
    _CALLS[key] = call
    with _COUNT_LOCK:
        call.counts[0] += 1
    return call


def prepared(kernel: str, arrays: tuple, g: int, scalars: tuple, cells=None) -> Prepared | None:
    """The call of *kernel* on *arrays* (z, M, N, h, then what it writes)
    with *g* ghost layers, ready to launch — or None: the NumPy body's.

    Prepared on the first call on these array objects, found by their
    identity on every later one: what a call freezes cannot change under it
    (an array's buffer is its own for life; ``resize`` refuses an array that
    is weakly referenced).  *scalars*, the dry threshold first, travel with
    each launch and must be what NumPy would round to the arrays' dtype as C
    does.  *cells*: the physical (ny, nx) the caller's products are for."""
    if _CHOICE.made is True and not _CHOICE.nests:  # the NumPy executor
        _RAN.executor = "numpy"
        return None
    key = (kernel, g, cells, scratch.STRIP_ELEMENTS, *map(id, arrays))
    call = _CALLS.get(key)
    if call is None or not call.holds(arrays):
        call = _prepare(key, kernel, arrays, g, cells)
    if (
        call is None
        or not _round_as_c(scalars, call.dtype)
        or (scalars[0] <= 0 and _KERNELS[kernel][3])
    ):
        _RAN.executor = "numpy"
        return None
    with _COUNT_LOCK:
        call.counts[1] += 1
    _RAN.executor = "nest"
    return call


# ---------------------------------------------------------------------------
# The exchange phases: seams, ghost fills and JNQ are moves, JNZ is restrict
# ---------------------------------------------------------------------------

_UNITS = ((1, 0), (0, 1))  # one row on, one column on


def _spans(index: tuple) -> list | None:
    """``(start, extent)`` of each of unit-step slices with explicit bounds."""
    out = []
    for s in index:
        if type(s) is not slice or s.start is None or s.stop is None or s.step not in (None, 1):
            return None
        out.append((s.start, s.stop - s.start))
    return out


def copy(dst: int, dst_index: tuple, src: int, src_index: tuple) -> tuple | None:
    """The move ``arrays[dst][dst_index] = arrays[src][src_index]`` for two
    pairs of unit-step slices with explicit bounds; a source axis of one
    repeats along the target's, as NumPy broadcasts it.  None: not a move the
    nest makes (the NumPy body runs, and raises what it raises)."""
    have, want = _spans(src_index), _spans(dst_index)
    if have is None or want is None:
        return None
    steps = []
    for (_, n), (_, m), unit in zip(have, want, _UNITS):
        if n != m and n != 1:
            return None
        steps.append(unit if n == m else (0, 0))
    (r0, rows), (c0, cols) = want
    return (dst, (r0, c0), *_UNITS, src, (have[0][0], have[1][0]), *steps, rows, cols)


def repeat(dst: int, dst_index: tuple, src: int, src_index: tuple, ratio: int) -> tuple | None:
    """The move ``arrays[dst][dst_index] = arrays[src][src_index].repeat(ratio)``
    for a slice and an integer each, the two slices along one axis: every
    source element onto *ratio* targets in a row (JNQ's parent face onto the
    child faces it covers)."""
    axis = 0 if type(src_index[0]) is slice else 1
    spans = _spans((src_index[axis], dst_index[axis]))
    fixed = (src_index[1 - axis], dst_index[1 - axis])
    if spans is None or not all(isinstance(k, int) for k in fixed):
        return None
    (s0, n), (d0, m) = spans
    if m != ratio * n:
        return None
    along = _UNITS[axis]
    if axis == 0:
        src_at, dst_at = (s0, fixed[0]), (d0, fixed[1])
    else:
        src_at, dst_at = (fixed[0], s0), (fixed[1], d0)
    return (dst, dst_at, (ratio * along[0], ratio * along[1]), along,
            src, src_at, along, (0, 0), n, ratio)


def _rectangle(a: np.ndarray, at: tuple, row_step: tuple, col_step: tuple, rows: int, cols: int):
    """Where a rows x cols rectangle of *a* lies in its memory — first
    element, row and column steps, in elements — and its bounding box; None
    if any of it lies outside *a* (no wrapping, no negative index).  Steps
    are never negative (:func:`copy`, :func:`repeat`): *at* is the first
    corner and the last is the far one."""
    R, C = a.shape
    r1 = at[0] + (rows - 1) * row_step[0] + (cols - 1) * col_step[0]
    c1 = at[1] + (rows - 1) * row_step[1] + (cols - 1) * col_step[1]
    if at[0] < 0 or at[1] < 0 or r1 >= R or c1 >= C:
        return None
    steps = (row_step[0] * C + row_step[1], col_step[0] * C + col_step[1])
    return (at[0] * C + at[1], *steps), (at[0], r1, at[1], c1)


def _apart(a: tuple, b: tuple) -> bool:
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


def _move_rows(arrays: tuple, moves, _result):
    rows, base = [], [_address(a) for a in arrays]
    for move in moves:
        if move is None:
            return None
        dst, d_at, d_row, d_col, src, s_at, s_row, s_col, n_rows, n_cols = move
        if n_rows <= 0 or n_cols <= 0:
            continue
        d, s = arrays[dst], arrays[src]
        to = _rectangle(d, d_at, d_row, d_col, n_rows, n_cols)
        fro = _rectangle(s, s_at, s_row, s_col, n_rows, n_cols)
        if to is None or fro is None:
            return None
        if (not _apart(to[1], fro[1])) if d is s else np.may_share_memory(d, s):
            return None  # NumPy copies an overlapping source first
        (d_off, *d_steps), (s_off, *s_steps) = to[0], fro[0]
        size = d.itemsize
        rows.append((base[dst] + size * d_off, *d_steps, base[src] + size * s_off, *s_steps,
                     n_rows, n_cols))
    return np.array(rows, _TABLE).reshape(-1, 8), ()


def _region_rows(arrays: tuple, regions, total):
    child, dst, land = (*arrays, None, None)[:3]
    if dst is not None and (
        np.may_share_memory(dst, child)
        or land is not None and (land.shape != dst.shape or np.may_share_memory(dst, land))
    ):
        return None
    rows = []
    for at, nj, ni, to in regions:
        if nj <= 0 or ni <= 0:
            continue
        tiles = _rectangle(child, at, *_UNITS, 3 * nj, 3 * ni)
        if dst is None:  # a dense buffer of *total* cells, allocated per launch
            if tiles is None or to < 0 or to + nj * ni > total:
                return None
            rows.append((tiles[0][0], nj, ni, to, ni))
            continue
        cells = _rectangle(dst, to, *_UNITS, nj, ni)
        if tiles is None or cells is None:
            return None
        rows.append((tiles[0][0], nj, ni, cells[0][0], dst.shape[1]))
    frozen = (_address(child), child.shape[1], None if land is None else _address(land))
    return np.array(rows, _TABLE).reshape(-1, 5), frozen + (() if dst is None else (_address(dst),))


def _lay_out(key: tuple, routine: str, arrays: tuple, spec, result) -> Prepared | None:
    """Validate and lay out one exchange call, or None: the NumPy body's.  The
    nest takes 2-D C-contiguous arrays of one dtype it was built for, every
    rectangle inside its array, and no target sharing memory with what its
    move or mean reads."""
    nests, first = choice().nests, arrays[0]
    nest = nests.get(first.dtype.char)
    if nest is None or spec is None:
        return None
    for a in arrays:
        if a.dtype != first.dtype or a.ndim != 2 or not a.flags.c_contiguous:
            return None
    laid = (_move_rows if routine == "moves" else _region_rows)(arrays, spec, result)
    if laid is None:
        return None
    call = Prepared()
    call.nests, call.dtype, call.fn = nests, first.dtype, getattr(nest, routine)
    (call.rows, frozen), call.result = laid, result
    call.table = (_address(call.rows), len(call.rows), *frozen)
    return _remember(key, call, arrays, routine)


def exchange(routine: str, arrays: tuple, layout, *geometry) -> Prepared | None:
    """The call of the exchange *routine* on *arrays*, ready to launch as
    ``fn(*table)`` — or None: the NumPy body's.

    ``layout(*geometry)`` describes the call; it is asked on a miss only and
    returns ``(spec, result)``, *result* being what the NumPy body returns.
    For ``moves`` (halo seams, ghost fills, JNQ), *spec* is the moves in
    order, as :func:`copy` and :func:`repeat` make them on indices into
    *arrays*.  For ``restrict`` (JNZ, tiles of 3 x 3) it is per region the
    child cell it starts at, its ``nj`` x ``ni`` parent cells, and where they
    go: a parent cell — *arrays* are then child, parent and, optionally, the
    parent's depth, whose cells at or below 0 are land and not written — or
    an offset into a JNZ buffer of *result* cells, whose address travels with
    each launch (*arrays*: the child alone).  A *spec* of None declines.

    Found again as :func:`prepared` calls are, by the identity of the arrays,
    together with *layout* and *geometry* (hashable, compared by value)."""
    if _CHOICE.made is not False and not _CHOICE.nests:  # NumPy's, or the self-check's
        return None
    key = (routine, layout, *geometry, *map(id, arrays))
    call = _CALLS.get(key)
    if call is None or not call.holds(arrays):
        call = _lay_out(key, routine, arrays, *layout(*geometry))
        if call is None:
            return None
    with _COUNT_LOCK:
        call.counts[1] += 1
    return call


# ---------------------------------------------------------------------------
# The health guard: one scan of every block
# ---------------------------------------------------------------------------


def _scan_rows(key: tuple, arrays: tuple, g: int) -> Prepared | None:
    """Validate and lay out a scan of the blocks whose z, M, N and h are
    *arrays*, four at a time, or None: the NumPy bodies'.  The nest takes one
    dtype it was built for, C-contiguous frames — z and h R x P, M R x (P + 1),
    N (R + 1) x P — around at least one physical cell, and two ghost layers."""
    nests, first = choice().nests, arrays[0]
    nest = nests.get(first.dtype.char)
    if nest is None or g < 2:
        return None
    rows = []
    for k in range(0, len(arrays), 4):
        block = arrays[k : k + 4]
        if block[0].ndim != 2:
            return None
        R, P = block[0].shape
        for a, shape in zip(block, ((R, P), (R, P + 1), (R + 1, P), (R, P))):
            if a.shape != shape or a.dtype != first.dtype or not a.flags.c_contiguous:
                return None
        if min(R, P) <= 2 * g:
            return None
        rows.append((*map(_address, block), R, P, g, R - 2 * g, P - 2 * g))
    call = Prepared()
    call.nests, call.dtype, call.fn = nests, first.dtype, nest.scan
    call.rows, call.result = np.array(rows, _TABLE), np.zeros((len(rows), 8))
    call.table = (_address(call.rows), len(rows), _address(call.result))
    return _remember(key, call, arrays, "scan")


def scan(states, dry) -> np.ndarray | None:
    """The per-block reductions ``HealthMonitor`` and ``PhysicsSampler`` judge
    the read buffers of *states* (``BlockState``s) by, from one launch — or
    None: the NumPy bodies'.

    One row of eight per block, in *states* order: whether all of the padded
    z, M and N are finite (1.0 or 0.0); the wet cells, whose total depth
    ``max(h + z, 0)`` is above *dry*; max |z| over them (0 without one); max
    D over the physical cells; max |M| and max |N| over the padded arrays.
    The maxima are the NumPy bodies' wherever the flags are set.  The rows
    are the prepared call's own, overwritten by its next launch.

    Prepared as :func:`prepared` calls are, per set of array objects: a
    model's two leap-frog parities are two tables."""
    if _CHOICE.made is not False and not _CHOICE.nests:  # NumPy's, or the self-check's
        return None
    arrays = tuple(a for st in states for a in (st.z_old, st.m_old, st.n_old, st.hz))
    if not arrays:
        return None
    key = ("scan", *map(id, arrays))
    call = _CALLS.get(key)
    if call is None or not call.holds(arrays):
        call = _scan_rows(key, arrays, NGHOST)
    if call is None or not _round_as_c((dry,), call.dtype):
        return None
    with _COUNT_LOCK:
        call.counts[1] += 1
    call.fn(*call.table, dry)
    return call.result
