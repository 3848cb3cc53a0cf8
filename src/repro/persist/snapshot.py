"""Versioned, checksummed, crash-safe on-disk snapshots of model state.

One snapshot is a directory holding one compressed ``.npz`` per grid
level (all prognostic buffers and forecast-product accumulators of the
level's blocks) plus a ``manifest.json`` carrying the schema version,
the clock (step, sim time, dt), the grid fingerprint, and a SHA-256
digest of every array.  Reading one back gives the in-memory image
every other placement of model state uses, a
:class:`~repro.resilience.checkpoint.Checkpoint`; its ``restore`` is
the restore.

Crash safety is by *atomic publication*: everything is written into a
hidden temporary directory next to the destination, fsynced, and then
``os.replace``-d into place — a kill at any instant leaves either the
previous snapshot set or the new one, never a torn member.  Torn
members can still appear through external truncation (a full disk, a
copy gone wrong); those are caught at read time because every array is
checksummed against the manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro.artifacts import load_json_artifact
from repro.errors import PersistError

#: On-disk format version; bump on any incompatible layout change.
SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Prognostic buffers serialized per block (both leap-frog copies).
STATE_FIELDS = ("z0", "z1", "m0", "m1", "n0", "n1")
#: Forecast-product accumulators serialized per block.
OUTPUT_FIELDS = ("zmax", "vmax", "inundation_max", "arrival_time", "z0ref", "land")


def array_digest(a: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape and raw bytes."""
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(repr(tuple(a.shape)).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def grid_fingerprint(grid, dtype=None) -> str:
    """Stable digest of the grid topology (and optionally the dtype).

    Two models agree on this fingerprint iff they have identical level
    structure and block geometry — the precondition for restoring a
    snapshot bitwise.
    """
    spec = {
        "ratio": grid.ratio,
        "levels": [
            {
                "index": lvl.index,
                "dx": lvl.dx,
                "blocks": [
                    [b.block_id, b.level, b.gi0, b.gj0, b.nx, b.ny]
                    for b in sorted(lvl.blocks, key=lambda b: b.block_id)
                ],
            }
            for lvl in grid.levels
        ],
    }
    if dtype is not None:
        spec["dtype"] = np.dtype(dtype).name
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def fsync_dir(path: Path) -> None:
    """Fsync a directory so a just-published rename survives power loss.

    ``os.replace`` makes a publication atomic with respect to *crashes of
    the process*, but the new directory entry itself lives in the parent
    directory's data — until that is flushed, a power cut can roll the
    rename back (or worse, leave the entry pointing at an unflushed
    inode).  Every atomic-publish site in the tree therefore follows its
    rename with ``fsync_dir(dest.parent)``.  Platforms that cannot open
    directories read-only (no directory fds) skip the flush: rename
    ordering is all they can offer.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still ordered
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_arrays(path: Path, arrays: dict[str, np.ndarray]) -> dict[str, str]:
    """Write *arrays* to a compressed npz, fsync it, return digests."""
    digests = {key: array_digest(a) for key, a in arrays.items()}
    try:
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
    except (OSError, ValueError) as exc:
        raise PersistError(f"cannot write snapshot arrays to {path}: {exc}") from exc
    return digests


def read_arrays(
    path: Path, digests: dict[str, str] | None = None
) -> dict[str, np.ndarray]:
    """Load an npz written by :func:`write_arrays`, verifying digests.

    Raises :class:`~repro.errors.PersistError` on a missing/truncated
    file, a missing key, or any checksum mismatch.
    """
    import zipfile
    import zlib

    try:
        with np.load(path) as npz:
            out = {key: npz[key] for key in npz.files}
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
    ) as exc:
        raise PersistError(f"cannot read snapshot arrays from {path}: {exc}") from exc
    if digests is not None:
        missing = set(digests) - set(out)
        if missing:
            raise PersistError(
                f"snapshot {path} is missing arrays: {sorted(missing)}"
            )
        for key, want in digests.items():
            got = array_digest(out[key])
            if got != want:
                raise PersistError(
                    f"checksum mismatch for array {key!r} in {path}: "
                    f"manifest {want[:12]}…, file {got[:12]}…"
                )
    return out


def _model_level_arrays(model, lvl) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for blk in lvl.blocks:
        bid = blk.block_id
        st = model.states[bid]
        for key, a in st.state_arrays().items():
            arrays[f"b{bid}_{key}"] = a
        acc = model.outputs[bid]
        for key, a in acc.product_arrays().items():
            arrays[f"b{bid}_{key}"] = a
    return arrays


def write_snapshot(model, dest: Path) -> Path:
    """Atomically write *model*'s full state as snapshot directory *dest*.

    Returns *dest*.  Raises :class:`~repro.errors.PersistError` if the
    destination already exists or any write fails; a kill mid-way leaves
    only a hidden ``.tmp-*`` directory that readers ignore.
    """
    dest = Path(dest)
    if dest.exists():
        raise PersistError(f"snapshot destination already exists: {dest}")
    tmp = dest.parent / f".tmp-{dest.name}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    try:
        tmp.mkdir(parents=True)
    except OSError as exc:
        raise PersistError(f"cannot create snapshot dir {tmp}: {exc}") from exc
    try:
        files: dict[str, dict] = {}
        flips: dict[str, int] = {}
        for lvl in model.grid.levels:
            arrays = _model_level_arrays(model, lvl)
            fname = f"level_{lvl.index}.npz"
            digests = write_arrays(tmp / fname, arrays)
            files[fname] = {"level": lvl.index, "arrays": digests}
            for blk in lvl.blocks:
                flips[str(blk.block_id)] = model.states[blk.block_id].flip
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "step": model.step_count,
            "time": model.time,
            "dt": model.config.dt,
            "output_every": model.output_every,
            "n_levels": model.grid.n_levels,
            "dtype": np.dtype(model.config.dtype).name,
            "grid_fingerprint": grid_fingerprint(model.grid, model.config.dtype),
            "flips": flips,
            "files": files,
        }
        mpath = tmp / MANIFEST_NAME
        with open(mpath, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        fsync_dir(tmp)
        os.replace(tmp, dest)
        fsync_dir(dest.parent)
    except PersistError:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    except OSError as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        raise PersistError(f"cannot publish snapshot {dest}: {exc}") from exc
    return dest


def read_manifest(snapdir: Path) -> dict:
    """Parse a snapshot's manifest (no array verification)."""
    mpath = Path(snapdir) / MANIFEST_NAME
    manifest = load_json_artifact(mpath, what="a snapshot manifest")
    if "files" not in manifest:
        raise PersistError(f"malformed snapshot manifest {mpath}")
    return manifest


def read_snapshot(snapdir: Path, **expect):
    """Load a snapshot directory as a
    :class:`~repro.resilience.checkpoint.Checkpoint`, verifying every
    array against its manifest digest.

    The checkpoint carries all six product arrays of every block and a
    CRC-32 of each state buffer as read, like any digested one.  Each
    *expect* keyword names a manifest entry the snapshot must hold (the
    resume path passes ``grid_fingerprint``, the scrubber ``step``).
    Raises :class:`~repro.errors.PersistError` on any corruption —
    missing manifest, unsupported schema, unmet expectation, truncated
    npz member, a checksum mismatch or a block without its arrays.
    """
    from repro.resilience.checkpoint import Checkpoint

    snapdir = Path(snapdir)
    manifest = read_manifest(snapdir)
    version = int(manifest.get("schema_version", -1))
    if version != SCHEMA_VERSION:
        raise PersistError(
            f"snapshot {snapdir} has schema version {version}, "
            f"this build reads version {SCHEMA_VERSION}"
        )
    for key, want in expect.items():
        if manifest.get(key) != want:
            raise PersistError(
                f"snapshot {snapdir} does not match: {key} is "
                f"{manifest.get(key)!r}, expected {want!r}"
            )
    arrays: dict[str, np.ndarray] = {}
    for fname, info in manifest["files"].items():
        arrays.update(read_arrays(snapdir / fname, info["arrays"]))
    states, outputs = {}, {}
    for key, flip in manifest.get("flips", {}).items():
        bid = int(key)
        try:
            states[bid] = (*(arrays[f"b{bid}_{k}"] for k in STATE_FIELDS), int(flip))
            outputs[bid] = tuple(arrays[f"b{bid}_{k}"] for k in OUTPUT_FIELDS)
        except KeyError as exc:
            raise PersistError(
                f"snapshot {snapdir} lacks arrays for block {bid}: {exc}"
            ) from exc
    return Checkpoint(
        step=int(manifest["step"]),
        time=float(manifest["time"]),
        dt=float(manifest["dt"]),
        output_every=int(manifest.get("output_every", 1)),
        states=states,
        outputs=outputs,
    ).digested()


def verify_snapshot(snapdir: Path) -> list[str]:
    """Return a list of problems with a snapshot (empty == valid)."""
    try:
        read_snapshot(snapdir)
    except PersistError as exc:
        return [str(exc)]
    return []
