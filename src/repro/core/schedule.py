"""Activation schedules.

A schedule ``sigma`` maps each time step to the nonempty set of nodes
activated at that step (Section 2.1).  The paper's fairness notions:

* *fair* — every node is activated infinitely often;
* *r-fair* — every node is activated at least once in every window of ``r``
  consecutive steps.

The engine performs exact cycle detection for *eventually periodic* schedules
(synchronous, round-robin, explicit, lasso), exposed through
:attr:`Schedule.period`.  Random schedules have ``period = None`` and rely on
the engine's fixed-point detection instead.

Time steps are 0-based: ``active(0)`` is the set applied to the initial
configuration.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

from repro.exceptions import ValidationError


class Schedule(ABC):
    """An infinite sequence of nonempty activation sets."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValidationError("schedules need at least one node")
        self.n = n

    @abstractmethod
    def active(self, t: int) -> frozenset[int]:
        """The set of nodes activated at step ``t >= 0``."""

    @property
    def period(self) -> int | None:
        """Cycle length for (eventually) periodic schedules, else ``None``."""
        return None

    @property
    def preperiod(self) -> int:
        """Steps before the periodic part starts (0 for purely periodic)."""
        return 0

    def phase(self, t: int) -> int:
        """Position within the period (0 for aperiodic schedules)."""
        p = self.period
        return (t - self.preperiod) % p if p else 0

    def shifted(self, offset: int) -> "Schedule":
        """The schedule viewed from ``offset`` steps in: ``active'(t) =
        active(t + offset)``.

        Used by the fault-injection engine to resume exact convergence
        analysis mid-run (after the last injected fault) without replaying
        the prefix.  Periodicity survives shifting, so the engine keeps its
        exact cycle detection on the tail.
        """
        if offset == 0:
            return self
        return ShiftedSchedule(self, offset)


class ShiftedSchedule(Schedule):
    """A view of another schedule starting ``offset`` steps in."""

    def __init__(self, base: Schedule, offset: int):
        if offset < 0:
            raise ValidationError("schedule shift offset must be >= 0")
        super().__init__(base.n)
        self.base = base
        self.offset = offset

    def active(self, t: int) -> frozenset[int]:
        return self.base.active(t + self.offset)

    @property
    def period(self) -> int | None:
        return self.base.period

    @property
    def preperiod(self) -> int:
        return max(0, self.base.preperiod - self.offset)

    def phase(self, t: int) -> int:
        """Position within the base schedule's loop.

        The default ``(t - preperiod) % period`` would misreport once
        ``offset > base.preperiod``: the clamped preperiod is 0, so phase 0
        would no longer align with the base loop's phase 0.  A shifted view
        at local time ``t`` is the base schedule at ``t + offset``, so its
        loop position is exactly ``base.phase(t + offset)``.
        """
        return self.base.phase(t + self.offset)

    def shifted(self, offset: int) -> Schedule:
        return self.base.shifted(self.offset + offset)


class SynchronousSchedule(Schedule):
    """All nodes at every step — the 1-fair schedule of Sections 5 and 6."""

    def __init__(self, n: int):
        super().__init__(n)
        self._all = frozenset(range(n))

    def active(self, t: int) -> frozenset[int]:
        return self._all

    @property
    def period(self) -> int:
        return 1


class RoundRobinSchedule(Schedule):
    """One node per step, cyclically: node ``t mod n`` at step ``t`` (n-fair)."""

    def active(self, t: int) -> frozenset[int]:
        return frozenset((t % self.n,))

    @property
    def period(self) -> int:
        return self.n


class ExplicitSchedule(Schedule):
    """A schedule given as an explicit list of activation sets.

    The list repeats forever, giving a periodic schedule with exact cycle
    detection.  To replay a finite script, run it for ``len(steps)`` steps
    (:meth:`~repro.core.engine.Simulator.run_trace`).
    """

    def __init__(self, n: int, steps: Sequence[Iterable[int]]):
        super().__init__(n)
        self._steps = tuple(frozenset(step) for step in steps)
        if not self._steps:
            raise ValidationError("an explicit schedule needs at least one step")
        for k, step in enumerate(self._steps):
            if not step:
                raise ValidationError(f"step {k} activates no node")
            if not all(0 <= i < n for i in step):
                raise ValidationError(f"step {k} activates nodes outside 0..{n - 1}")

    def active(self, t: int) -> frozenset[int]:
        return self._steps[t % len(self._steps)]

    @property
    def period(self) -> int:
        return len(self._steps)

    @property
    def steps(self) -> tuple[frozenset[int], ...]:
        return self._steps


class LassoSchedule(Schedule):
    """A prefix of activation sets followed by a repeating cycle.

    This is the shape of the oscillation witnesses the model checker emits:
    drive the system from an initial state into a cycle, then loop the cycle
    forever.  Eventually periodic, so the engine can classify runs exactly.
    """

    def __init__(
        self,
        n: int,
        prefix: Sequence[Iterable[int]],
        loop: Sequence[Iterable[int]],
    ):
        super().__init__(n)
        self._prefix = tuple(frozenset(step) for step in prefix)
        self._loop = tuple(frozenset(step) for step in loop)
        if not self._loop:
            raise ValidationError("a lasso schedule needs a nonempty loop")
        for step in self._prefix + self._loop:
            if not step:
                raise ValidationError("every step must activate at least one node")
            if not all(0 <= i < n for i in step):
                raise ValidationError("activation set outside node range")

    def active(self, t: int) -> frozenset[int]:
        if t < len(self._prefix):
            return self._prefix[t]
        return self._loop[(t - len(self._prefix)) % len(self._loop)]

    @property
    def period(self) -> int:
        return len(self._loop)

    @property
    def preperiod(self) -> int:
        return len(self._prefix)


class RandomRFairSchedule(Schedule):
    """A seeded random schedule guaranteed to be r-fair.

    Each step activates every node whose activation deadline has arrived, plus
    each other node independently with probability ``p``.  Realized steps are
    memoized so ``active(t)`` is stable across repeated queries, keeping runs
    deterministic for a fixed seed.
    """

    def __init__(self, n: int, r: int, seed: int = 0, p: float = 0.5):
        super().__init__(n)
        if r < 1:
            raise ValidationError("fairness parameter r must be >= 1")
        if not 0.0 <= p <= 1.0:
            raise ValidationError("activation probability must lie in [0, 1]")
        self.r = r
        self.p = p
        #: Kept as plain data: the realized activation sets are a
        #: deterministic function of (n, r, p, seed), which is what the
        #: service layer's content-addressed cache fingerprints.
        self.seed = seed
        self._rng = random.Random(seed)
        self._memo: list[frozenset[int]] = []
        self._countdown = [r] * n

    def _generate_next(self) -> frozenset[int]:
        forced = {i for i in range(self.n) if self._countdown[i] == 1}
        chosen = set(forced)
        for i in range(self.n):
            if i not in chosen and self._rng.random() < self.p:
                chosen.add(i)
        if not chosen:
            chosen.add(self._rng.randrange(self.n))
        for i in range(self.n):
            self._countdown[i] = self.r if i in chosen else self._countdown[i] - 1
        return frozenset(chosen)

    def active(self, t: int) -> frozenset[int]:
        while len(self._memo) <= t:
            self._memo.append(self._generate_next())
        return self._memo[t]


def is_r_fair(schedule: Schedule, r: int, horizon: int) -> bool:
    """Check r-fairness over ``horizon`` steps (every r-window hits every node)."""
    last_seen = [-1] * schedule.n
    for t in range(horizon):
        for i in schedule.active(t):
            last_seen[i] = t
        if t >= r - 1:
            window_start = t - r + 1
            if any(seen < window_start for seen in last_seen):
                return False
    return True


def minimal_fairness(schedule: Schedule, horizon: int) -> int | None:
    """The smallest ``r`` for which the schedule is r-fair over the horizon.

    Computed as the largest observed gap between consecutive activations of
    any node (counting from step 0 and measured over ``horizon`` steps).

    Returns ``None`` when some node is never activated within the horizon:
    no horizon-length run can certify *any* finite fairness bound for such a
    schedule, so there is no meaningful ``r`` to report.  (Historically this
    case returned ``horizon + 1``, an ``r`` that looked like a certified
    bound but was not.)
    """
    last_seen = [-1] * schedule.n
    worst_gap = 0
    for t in range(horizon):
        active = schedule.active(t)
        for i in range(schedule.n):
            if i in active:
                worst_gap = max(worst_gap, t - last_seen[i])
                last_seen[i] = t
    if -1 in last_seen:
        return None
    for i in range(schedule.n):
        worst_gap = max(worst_gap, horizon - last_seen[i])
    return worst_gap
