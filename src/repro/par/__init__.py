"""Simulated MPI substrate and domain decomposition.

The original RTi code is flat-MPI Fortran.  mpi4py is not a dependency
here; instead this package provides

* :class:`Communicator` / :func:`run_ranks` — an MPI-like runtime
  (blocking point-to-point, allreduce by messages) that runs the
  *real* pack -> send -> recv -> unpack pipeline between rank
  processes — the caller and its forked children — exchanging packed
  halos through preallocated shared-memory slots;
* :class:`Decomposition` and friends — the static block-to-rank mapping
  (one level per rank, consecutive blocks, optional 1-D row splits) with
  the original cell-equalizing algorithm (Section II-B);
* :mod:`repro.par.timing` / :mod:`repro.par.protocol` — the message cost
  model (latency/bandwidth, eager vs rendezvous selection, host staging vs
  GPUDirect) feeding the performance simulator;
* :func:`run_distributed` — the full Fig.-2 pipeline executed across
  simulated-MPI ranks (pack -> send/recv -> unpack), bitwise identical to
  the single-process model;
* :mod:`repro.par.splitcost` — the 1-D vs 2-D decomposition trade-off
  (vector length vs halo volume, Section II-B).
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "comm": "Communicator run_ranks",
    "driver": "run_distributed",
    "decomposition": "Decomposition RankWork WorkItem"
                     " equal_cell_assignment ranks_per_level"
                     " build_decomposition decomposition_from_separators",
    "timing": "MessageCostModel",
    "protocol": "ProtocolConfig message_time",
})
