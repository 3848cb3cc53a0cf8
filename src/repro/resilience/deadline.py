"""Deadline supervision and graceful-degradation policy.

An operational forecast that arrives after the evacuation decision is
worthless, so the supervisor continuously projects the finish time
(elapsed simulated wall-clock + remaining steps x current step cost) and,
when the projection overruns the deadline, orders degradations in a
fixed severity order:

1. ``drop_level`` — remove the finest nest level (the paper's Table I
   shows the finest levels dominate the cell count, so this is the big
   lever; the forecast loses coastal resolution but keeps the basin).
2. ``coarsen_output`` — raise the output-accumulation cadence (sheds the
   OUTPUT phase from most steps).
3. ``finish_early`` — stop integrating and publish the products
   accumulated so far (a shortened forecast horizon, clearly flagged).

Every action is one record of the run (kind = the action), and so lands
in the run report — a degraded forecast must say it is degraded.
"""

from __future__ import annotations

from repro.errors import DeadlineError

#: Degradation actions, mildest first.
DEGRADATION_ORDER = ("drop_level", "coarsen_output", "finish_early")

#: Fraction of the budget the projection must fit into (headroom for the
#: un-modelled tail: I/O, dissemination).
MARGIN = 0.9


class DeadlineSupervisor:
    """Tracks projected finish against an operational deadline of
    *deadline_s* wall-clock seconds for the whole forecast computation.
    """

    def __init__(self, deadline_s: float) -> None:
        if deadline_s is None or deadline_s <= 0:
            raise DeadlineError(
                f"deadline must be a positive duration, got {deadline_s!r}"
            )
        self.deadline_s = deadline_s

    def projected_finish_s(
        self, elapsed_s: float, steps_left: int, step_cost_s: float
    ) -> float:
        return elapsed_s + max(0, steps_left) * step_cost_s

    def overrun(
        self, elapsed_s: float, steps_left: int, step_cost_s: float
    ) -> bool:
        """Would the run, unchanged, miss the (margin-shrunk) deadline?"""
        projected = self.projected_finish_s(elapsed_s, steps_left, step_cost_s)
        return projected > self.deadline_s * MARGIN

    def next_action(self, can_drop_level: bool, can_coarsen: bool) -> str:
        """Mildest degradation still available."""
        if can_drop_level:
            return "drop_level"
        if can_coarsen:
            return "coarsen_output"
        return "finish_early"
