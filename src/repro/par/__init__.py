"""Simulated MPI substrate and domain decomposition.

The original RTi code is flat-MPI Fortran.  mpi4py is not a dependency
here; instead this package provides

* :class:`Communicator` / :func:`run_ranks` — an MPI-like runtime
  (blocking/nonblocking point-to-point, barrier, allreduce) that runs the
  *real* pack -> send -> recv -> unpack pipeline over one of two
  transports: rank threads in this process (fault injection, CRC framing,
  rank-kill recovery) or forked rank processes exchanging packed halos
  through preallocated shared-memory slots (the one that is faster than
  a single rank);
* :class:`Decomposition` and friends — the static block-to-rank mapping
  (one level per rank, consecutive blocks, optional 1-D row splits) with
  the original cell-equalizing algorithm (Section II-B);
* :mod:`repro.par.timing` / :mod:`repro.par.protocol` — the message cost
  model (latency/bandwidth, eager vs rendezvous selection, host staging vs
  GPUDirect) feeding the performance simulator;
* :func:`run_distributed` — the full Fig.-2 pipeline executed across
  simulated-MPI ranks (pack -> send/recv -> unpack), bitwise identical to
  the single-process model on either transport; it forks unless something
  it can observe needs one address space;
* :mod:`repro.par.splitcost` — the 1-D vs 2-D decomposition trade-off
  (vector length vs halo volume, Section II-B).
"""

from repro.par.comm import Communicator, run_ranks
from repro.par.driver import run_distributed
from repro.par.decomposition import (
    Decomposition,
    RankWork,
    WorkItem,
    equal_cell_assignment,
    ranks_per_level,
    build_decomposition,
    decomposition_from_separators,
)
from repro.par.timing import MessageCostModel
from repro.par.protocol import ProtocolConfig, message_time

__all__ = [
    "Communicator",
    "run_ranks",
    "run_distributed",
    "Decomposition",
    "RankWork",
    "WorkItem",
    "equal_cell_assignment",
    "ranks_per_level",
    "build_decomposition",
    "decomposition_from_separators",
    "MessageCostModel",
    "ProtocolConfig",
    "message_time",
]
