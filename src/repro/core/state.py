"""Double-buffered field storage for one block.

The RTi code keeps two copies of every prognostic field and swaps them at
the end of each leap-frog step ("swapping the double buffers", Fig. 2).
:class:`BlockState` mirrors that: ``z_old/m_old/n_old`` are the read
buffers, ``z_new/m_new/n_new`` the write buffers, and :meth:`swap` flips
them in O(1).

Array layout (see :mod:`repro.grid.staggered`): axis 0 = y, axis 1 = x,
``NGHOST`` ghost layers on each side.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_DTYPE
from repro.errors import GridError
from repro.grid.block import Block
from repro.grid.staggered import (
    NGHOST,
    eta_shape,
    flux_m_shape,
    flux_n_shape,
    interior,
)


def max_wet_eta(eta: np.ndarray, depth: np.ndarray, dry_threshold: float) -> float:
    """Maximum of *eta* over cells whose total depth exceeds
    *dry_threshold* (``-inf`` if none): on a dry cell eta is the ground."""
    wet = depth + eta > dry_threshold  # dry_threshold > 0: no clamp needed
    return float(eta[wet].max()) if wet.any() else -np.inf


class BlockState:
    """Prognostic fields (eta, M, N) plus static depth for one block.

    Parameters
    ----------
    block:
        Block geometry.
    dx:
        Cell size of the block's grid level [m].
    depth:
        Still-water depth *including ghost cells*, shape
        ``eta_shape(ny, nx)``; or the physical-cells-only array of shape
        ``(ny, nx)``, in which case ghosts are edge-padded.
    dtype:
        Floating dtype for the prognostic arrays.
    """

    __slots__ = (
        "block",
        "dx",
        "hz",
        "_z",
        "_m",
        "_n",
        "_flip",
    )

    def __init__(
        self,
        block: Block,
        dx: float,
        depth: np.ndarray,
        dtype: type = DEFAULT_DTYPE,
    ) -> None:
        ny, nx = block.ny, block.nx
        depth = np.asarray(depth, dtype=dtype)
        if depth.shape == (ny, nx):
            depth = np.pad(depth, NGHOST, mode="edge")
        if depth.shape != eta_shape(ny, nx):
            raise GridError(
                f"depth shape {depth.shape} matches neither ({ny}, {nx}) "
                f"nor {eta_shape(ny, nx)}"
            )
        self.block = block
        self.dx = float(dx)
        self.hz = depth
        self._z = [
            np.zeros(eta_shape(ny, nx), dtype=dtype) for _ in range(2)
        ]
        self._m = [
            np.zeros(flux_m_shape(ny, nx), dtype=dtype) for _ in range(2)
        ]
        self._n = [
            np.zeros(flux_n_shape(ny, nx), dtype=dtype) for _ in range(2)
        ]
        self._flip = 0
        # Start from the at-rest state: on land (h < 0) the water level
        # rests on the ground (z = -h, total depth zero).
        for z in self._z:
            z[...] = np.where(self.hz < 0.0, -self.hz, 0.0)

    # -- buffer access ----------------------------------------------------

    @property
    def z_old(self) -> np.ndarray:
        return self._z[self._flip]

    @property
    def z_new(self) -> np.ndarray:
        return self._z[1 - self._flip]

    @property
    def m_old(self) -> np.ndarray:
        return self._m[self._flip]

    @property
    def m_new(self) -> np.ndarray:
        return self._m[1 - self._flip]

    @property
    def n_old(self) -> np.ndarray:
        return self._n[self._flip]

    @property
    def n_new(self) -> np.ndarray:
        return self._n[1 - self._flip]

    def swap(self) -> None:
        """Flip read/write buffers (end of a leap-frog step)."""
        self._flip = 1 - self._flip

    # -- convenience ------------------------------------------------------

    @property
    def interior_slices(self) -> tuple[slice, slice]:
        return interior(self.block.ny, self.block.nx)

    def eta_interior(self, new: bool = False) -> np.ndarray:
        """View of the physical cells of the water level."""
        z = self.z_new if new else self.z_old
        return z[self.interior_slices]

    def depth_interior(self) -> np.ndarray:
        """View of the physical cells of the still-water depth."""
        return self.hz[self.interior_slices]

    def total_depth(self, new: bool = False) -> np.ndarray:
        """Total water depth D = h + eta over physical cells (>= 0)."""
        d = self.depth_interior() + self.eta_interior(new=new)
        return np.maximum(d, 0.0, out=d)

    def set_initial_eta(self, eta: np.ndarray) -> None:
        """Impose an initial water level on the physical cells (both buffers).

        On land the level is clamped to the ground elevation so the initial
        condition cannot create negative total depth.
        """
        eta = np.asarray(eta)
        if eta.shape != (self.block.ny, self.block.nx):
            raise GridError(
                f"initial eta shape {eta.shape} != "
                f"({self.block.ny}, {self.block.nx})"
            )
        sl = self.interior_slices
        lo = -self.hz[sl]
        clamped = np.maximum(eta, lo)
        for z in self._z:
            z[sl] = clamped

    def volume(self) -> float:
        """Water volume over the physical cells [m^3]."""
        return float(self.total_depth().sum()) * self.dx * self.dx

    # -- capture / restore (checkpoints, migration, repro.persist) --------

    @property
    def flip(self) -> int:
        """Index (0 or 1) of the buffers currently read as ``*_old``."""
        return self._flip

    def capture(self) -> tuple:
        """Copies of the full leap-frog state, ``(z0, z1, m0, m1, n0, n1,
        flip)``: safe to keep across later steps and to ship to a rank."""
        return (*(a.copy() for a in self.state_arrays().values()), self._flip)

    def restore(self, bufs: tuple) -> None:
        """Overwrite the state bitwise from a :meth:`capture` tuple.

        Shapes and dtypes must match exactly — a mismatch means the tuple
        belongs to a different grid or configuration.
        """
        *arrays, flip = bufs
        if flip not in (0, 1):
            raise GridError(f"buffer flip must be 0 or 1, got {flip}")
        targets = self.state_arrays()
        for (key, dst), src in zip(targets.items(), arrays, strict=True):
            if src.shape != dst.shape or src.dtype != dst.dtype:
                raise GridError(
                    f"block {self.block.block_id}: buffer {key!r} has shape "
                    f"{src.shape}/{src.dtype}, expected {dst.shape}/{dst.dtype}"
                )
        for dst, src in zip(targets.values(), arrays):
            dst[...] = src
        self._flip = flip

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Both leap-frog copies of every prognostic buffer (views).

        Keys are the stable serialization names used by the on-disk
        snapshot format; pair with :attr:`flip` to capture the full state.
        """
        return {
            "z0": self._z[0],
            "z1": self._z[1],
            "m0": self._m[0],
            "m1": self._m[1],
            "n0": self._n[0],
            "n1": self._n[1],
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray], flip: int) -> None:
        """:meth:`restore` from *arrays* keyed like :meth:`state_arrays`."""
        self.restore((*(np.asarray(arrays[k]) for k in self.state_arrays()), flip))
