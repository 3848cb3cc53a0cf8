"""Message packing/unpacking for the intra-level exchanges (PTP_MN, PTP_Z).

Two implementations of the same contract, mirroring the paper's Listings 3
and 4:

* the **naive** version reproduces the original loop structure with a
  loop-carried buffer offset (``ICNT = ICNT + 1``) — inherently sequential,
  and the reason the original loop could not be offloaded;
* the **offset** version computes each element's buffer position from the
  loop indices (Listing 4), which makes every element independent; here it
  degenerates to reshape/ravel copies, the NumPy equivalent of the
  collapsed, parallel GPU kernel.

Both produce *identical* buffers (asserted in the test suite), which is the
correctness argument the paper's migration relies on.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import CommunicationError

Region = tuple[slice, slice]


def _region_count(arr: np.ndarray, region: Region) -> int:
    rows = range(*region[0].indices(arr.shape[0]))
    cols = range(*region[1].indices(arr.shape[1]))
    return len(rows) * len(cols)


def pack_boundary_naive(
    arrays: list[np.ndarray], region: Region
) -> np.ndarray:
    """Pack one rectangular region of several arrays (Listing 3 semantics).

    Element order matches the Fortran original: the region is traversed
    row-by-row with a running counter, and array ``k``'s elements land at
    ``k * count + icnt``.
    """
    if not arrays:
        raise CommunicationError("nothing to pack")
    count = _region_count(arrays[0], region)
    buf = np.empty(len(arrays) * count, dtype=arrays[0].dtype)
    icnt = 0
    rows = range(*region[0].indices(arrays[0].shape[0]))
    cols = range(*region[1].indices(arrays[0].shape[1]))
    for j in rows:
        for i in cols:
            for k, arr in enumerate(arrays):
                buf[icnt + k * count] = arr[j, i]
            icnt += 1
    return buf


def pack_boundary_offsets(
    arrays: list[np.ndarray], region: Region
) -> np.ndarray:
    """Vectorized pack with positions computed from indices (Listing 4)."""
    if not arrays:
        raise CommunicationError("nothing to pack")
    count = _region_count(arrays[0], region)
    buf = np.empty(len(arrays) * count, dtype=arrays[0].dtype)
    for k, arr in enumerate(arrays):
        buf[k * count : (k + 1) * count] = arr[region].ravel()
    return buf


def unpack_boundary_offsets(
    buf: np.ndarray, arrays: list[np.ndarray], region: Region
) -> None:
    """Inverse of :func:`pack_boundary_offsets` (in place, vectorized)."""
    count = _region_count(arrays[0], region)
    if buf.size != len(arrays) * count:
        raise CommunicationError(
            f"buffer size {buf.size} != {len(arrays)} * {count}"
        )
    rows = region[0].indices(arrays[0].shape[0])
    cols = region[1].indices(arrays[0].shape[1])
    shape = (len(range(*rows)), len(range(*cols)))
    for k, arr in enumerate(arrays):
        arr[region] = buf[k * count : (k + 1) * count].reshape(shape)


def payload_crc(buf: np.ndarray) -> int:
    """CRC-32 over an array's raw bytes (any dtype, any layout).

    Non-contiguous views are linearized first, so the checksum depends
    only on the element values in C order: a view and its contiguous
    copy checksum alike (the state checksums and checkpoint digests of
    :mod:`repro.resilience.integrity` rely on it).
    """
    a = np.ascontiguousarray(buf)
    try:
        data = memoryview(a).cast("B")
    except TypeError:  # zero-dim or exotic buffers
        data = a.tobytes()
    return zlib.crc32(data) & 0xFFFFFFFF
