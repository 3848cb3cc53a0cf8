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

import struct
import zlib

import numpy as np

from repro.errors import CommunicationError, IntegrityError

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


# ---------------------------------------------------------------------------
# Checksum codec — CRC framing of packed exchange buffers
# ---------------------------------------------------------------------------
#
# The ABFT layer (repro.resilience.integrity) verifies halo payloads at
# the pack/unpack boundary: the sender appends a CRC-32 trailer to the
# packed buffer, the receiver verifies it before unpacking.  The trailer
# is carried *in* the buffer (dtype-preserving) so framed buffers travel
# through the transport exactly like unframed ones.


def payload_crc(buf: np.ndarray) -> int:
    """CRC-32 over an array's raw bytes (any dtype, any layout).

    Non-contiguous views are linearized first, so the checksum depends
    only on the element values in C order — a framed round trip through
    a contiguous transport buffer verifies against the original view.
    """
    a = np.ascontiguousarray(buf)
    try:
        data = memoryview(a).cast("B")
    except TypeError:  # zero-dim or exotic buffers
        data = a.tobytes()
    return zlib.crc32(data) & 0xFFFFFFFF


def _trailer_elems(dtype: np.dtype) -> int:
    """Elements needed to carry 4 CRC bytes in *dtype*'s itemsize."""
    itemsize = np.dtype(dtype).itemsize
    return -(-4 // itemsize)  # ceil(4 / itemsize)


def frame_payload(buf: np.ndarray) -> np.ndarray:
    """Append a CRC-32 trailer to a packed buffer (dtype-preserving).

    The result is one flat array of the buffer's dtype: the payload
    elements in C order followed by the little-endian CRC-32 of their
    bytes, zero-padded to a whole number of elements.  Empty buffers
    frame to a bare trailer.  Inverse: :func:`unframe_payload`.
    """
    buf = np.ascontiguousarray(buf)
    crc = payload_crc(buf)
    n_extra = _trailer_elems(buf.dtype)
    raw = struct.pack("<I", crc).ljust(n_extra * buf.dtype.itemsize, b"\0")
    trailer = np.frombuffer(raw, dtype=buf.dtype)
    return np.concatenate([buf.reshape(-1), trailer])


def unframe_payload(framed: np.ndarray) -> np.ndarray:
    """Strip and verify the CRC trailer of :func:`frame_payload`.

    Returns the payload elements (flat, same dtype).  Raises
    :class:`~repro.errors.IntegrityError` when the trailer is missing or
    the payload bytes no longer match their checksum — the caller must
    treat the message as corrupt (NACK/retransmit or abort), never
    unpack it.
    """
    framed = np.ascontiguousarray(framed).reshape(-1)
    n_extra = _trailer_elems(framed.dtype)
    if framed.size < n_extra:
        raise IntegrityError(
            f"framed buffer of {framed.size} element(s) is shorter than "
            f"its {n_extra}-element CRC trailer",
            surface="halo",
        )
    payload = framed[: framed.size - n_extra]
    raw = framed[framed.size - n_extra :].tobytes()[:4]
    expect = struct.unpack("<I", raw)[0]
    got = payload_crc(payload)
    if got != expect:
        raise IntegrityError(
            f"halo payload CRC mismatch: computed {got:#010x}, trailer "
            f"says {expect:#010x} ({payload.size} element(s), dtype "
            f"{payload.dtype})",
            surface="halo",
        )
    return payload
