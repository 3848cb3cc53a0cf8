"""Bounded earliest-deadline-first admission queue.

The pending-work queue of the forecast service, ordered by
``(absolute deadline, class rank, arrival sequence)`` — earliest
deadline first, ties broken toward the more important class, then FIFO.
EDF is the right discipline for a deadline service (it is optimal for
meeting deadlines on a single worker and a strong heuristic on several),
and the explicit bound is the backpressure: the queue *refuses* to grow
past ``capacity``, forcing the admission controller to shed or reject
instead of letting latency grow without bound for everyone.

Eviction ("shedding") picks the entry that hurts least to drop: the
worst class rank first, and among those the latest deadline — the
request that was most likely to be degraded or late anyway.

Entries are duck-typed: anything with ``deadline_abs`` and
``class_rank`` attributes queues.  The service reads the whole queue in
EDF order (:meth:`BoundedDeadlineQueue.entries`) to project its schedule,
and takes out the entry it starts or sheds (:meth:`~BoundedDeadlineQueue.remove`).
"""

from __future__ import annotations

import itertools

from repro.errors import ServiceError


class BoundedDeadlineQueue:
    """EDF priority queue with a hard capacity and priority-aware shed."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServiceError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._live: dict[int, tuple] = {}  # seq -> (deadline, rank, seq, entry)
        self._seq = itertools.count()
        #: High-water mark, for the boundedness guarantee in reports.
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._live)

    @property
    def full(self) -> bool:
        return len(self._live) >= self.capacity

    def push(self, entry) -> None:
        if self.full:
            raise ServiceError(
                f"queue over capacity ({self.capacity}); the admission "
                "controller must shed or reject first"
            )
        seq = next(self._seq)
        self._live[seq] = (
            float(entry.deadline_abs), int(entry.class_rank), seq, entry
        )
        self.peak_depth = max(self.peak_depth, len(self._live))

    def entries(self) -> list:
        """Live entries in EDF order (for schedule projection)."""
        return [
            node[3]
            for node in sorted(self._live.values(), key=lambda n: n[:3])
        ]

    def remove(self, entry) -> bool:
        """Take a specific entry out; True if it was queued."""
        for seq, node in self._live.items():
            if node[3] is entry:
                del self._live[seq]
                return True
        return False

    def shed_candidate(self, below_rank: int | None = None):
        """The entry to evict first, or ``None``.

        Worst class rank, then latest deadline.  With *below_rank*, only
        entries strictly less important than that rank qualify — an
        incoming request may only displace lower-priority work.
        """
        best = None
        for node in self._live.values():
            if below_rank is not None and node[1] <= below_rank:
                continue
            if best is None or (node[1], node[0]) > (best[1], best[0]):
                best = node
        return best[3] if best is not None else None
