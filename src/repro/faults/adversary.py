"""Adversarial schedules: activation choices that delay convergence.

Theorem 3.1 reasons about *worst-case* r-fair schedules; the random r-fair
schedule is a poor stand-in for that worst case.  This module provides the
adversary explicitly, in two strengths:

* :class:`GreedyAdversarySchedule` — a scalable heuristic.  At every step it
  enumerates (or, past a cap, samples deterministically from) the activation
  sets an r-fair schedule may still choose, simulates each through the
  compiled protocol, and picks the one that keeps the run furthest from
  absorption: successor not a stable labeling first, then a one-step
  lookahead probe (the successor's own full-activation image not stable
  either), then keep-the-labels-moving, then minimal churn.  The probe is
  what lets the greedy adversary sustain Example 1's token oscillation — a
  pure churn heuristic collapses the token into the all-one absorbing
  labeling within two steps.
* :func:`exhaustive_worst_case_delay` / :class:`MinimaxAdversarySchedule` —
  the exact bounded search on paper-sized systems.  It materializes the
  Theorem 3.1 states-graph over ``(labeling, countdown)`` pairs and computes
  the longest activation sequence before the labeling hits a stable fixed
  point, detecting unbounded delay (a reachable cycle of non-stable states)
  exactly.  The witness replays as an ordinary (lasso) schedule, so the
  engine's exact cycle analysis applies to adversarial runs too.

Both adversaries are r-fair **by construction**: candidate activation sets
always contain every node whose activation deadline arrived, exactly like
the states-graph's valid activation sets.

A greedy schedule simulates the run internally, so it is only meaningful for
an engine run started from the *same* protocol, inputs, and initial labeling
it was built with.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.compiled import compile_protocol
from repro.core.configuration import Labeling
from repro.core.protocol import Protocol
from repro.core.schedule import LassoSchedule, Schedule
from repro.exceptions import ValidationError
from repro.policy import ExecutionPolicy, resolve_policy
from repro.stabilization.exploration import (
    DEFAULT_STATE_BUDGET,
    ExplorationGraph,
    ExplorationStats,
    valid_activation_sets,
)

#: Above this many candidate activation sets per step the greedy adversary
#: switches from exhaustive enumeration to a deterministic O(n) family.
#: Read at call time, so a test may patch it; it is not an option.
DEFAULT_CANDIDATE_CAP = 256


def _candidate_sets(countdown: Sequence[int], n: int) -> list[frozenset[int]]:
    """The activation sets the adversary considers this step, r-fair-valid.

    Small systems get every valid set; larger ones a deterministic family
    (forced set, forced plus one node, forced plus one adjacent pair, all
    nodes) that still spans "minimal", "local", and "global" moves.
    """
    forced = frozenset(i for i in range(n) if countdown[i] == 1)
    optional = [i for i in range(n) if i not in forced]
    if 1 << len(optional) <= DEFAULT_CANDIDATE_CAP:
        return valid_activation_sets(countdown, n)
    candidates = []
    if forced:
        candidates.append(forced)
    for i in optional:
        candidates.append(forced | {i})
    for i, j in zip(optional, optional[1:], strict=False):
        candidates.append(forced | {i, j})
    full = frozenset(range(n))
    if full not in candidates:
        candidates.append(full)
    return candidates


class GreedyAdversarySchedule(Schedule):
    """A convergence-delaying r-fair schedule (1-step lookahead heuristic).

    Realized steps are memoized, so ``active(t)`` is stable across repeated
    queries and the internal simulation advances once per step.  Aperiodic
    (``period is None``): engine runs under it use the fixed-point
    certification path, so a stabilization verdict is still exact.
    """

    def __init__(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        initial_labeling: Labeling,
        r: int,
    ):
        super().__init__(protocol.n)
        if r < 1:
            raise ValidationError("fairness parameter r must be >= 1")
        if len(inputs) != protocol.n:
            raise ValidationError(f"need {protocol.n} inputs, got {len(inputs)}")
        self.r = r
        self._compiled = compile_protocol(protocol)
        self._inputs = tuple(inputs)
        self._values = initial_labeling.values
        self._all_nodes = frozenset(range(protocol.n))
        self._countdown = [r] * protocol.n
        self._memo: list[frozenset[int]] = []
        self._stable_cache: dict[tuple, bool] = {}

    def _is_stable(self, values: tuple) -> bool:
        cached = self._stable_cache.get(values)
        if cached is None:
            cached = self._compiled.is_fixed_point(values, self._inputs)
            self._stable_cache[values] = cached
        return cached

    def _score(self, values: tuple, successor: tuple) -> tuple:
        """Greedy preference, larger is better (see module docstring)."""
        if self._is_stable(successor):
            # Absorbed: nothing past this matters.
            return (0, 0, 0, 0)
        probe, _ = self._compiled.step_values(
            successor, None, self._all_nodes, self._inputs
        )
        probe_survives = not self._is_stable(probe)
        changed = sum(a != b for a, b in zip(values, successor, strict=True))
        return (1, int(probe_survives), int(changed > 0), -changed)

    def _generate_next(self) -> frozenset[int]:
        candidates = _candidate_sets(self._countdown, self.n)
        # Deterministic tie-break: smallest set first, then lexicographic.
        candidates.sort(key=lambda s: (len(s), sorted(s)))
        best_set = None
        best_score = None
        best_successor = None
        for active in candidates:
            successor, _ = self._compiled.step_values(
                self._values, None, active, self._inputs
            )
            score = self._score(self._values, successor)
            if best_score is None or score > best_score:
                best_set, best_score, best_successor = active, score, successor
        self._values = best_successor
        self._countdown = [
            self.r if i in best_set else self._countdown[i] - 1
            for i in range(self.n)
        ]
        return best_set

    def active(self, t: int) -> frozenset[int]:
        while len(self._memo) <= t:
            self._memo.append(self._generate_next())
        return self._memo[t]


@dataclass(frozen=True)
class WorstCaseDelay:
    """The exact worst-case label-stabilization delay under r-fair schedules.

    ``delay`` is the maximum number of steps any r-fair schedule can keep
    the labeling away from a stable fixed point, or ``None`` when some
    r-fair schedule avoids stabilization forever.  ``prefix``/``loop`` are a
    witness: the activation sets achieving the delay (for unbounded delay,
    ``loop`` is a non-stabilizing cycle entered after ``prefix``).
    """

    delay: int | None
    prefix: tuple[frozenset[int], ...]
    loop: tuple[frozenset[int], ...]
    states_explored: int
    n: int
    stats: ExplorationStats | None = None

    @property
    def bounded(self) -> bool:
        return self.delay is not None

    def schedule(self) -> Schedule:
        """Replay the witness as an eventually periodic schedule.

        Bounded delays pad the tail with full activations (1-fair, hence
        r-fair), which keep an already-stable labeling stable.
        """
        loop = self.loop if self.loop else (frozenset(range(self.n)),)
        return LassoSchedule(self.n, self.prefix, loop)


def exhaustive_worst_case_delay(
    protocol: Protocol,
    inputs: Sequence[Any],
    initial_labeling: Labeling,
    r: int,
    budget: int = DEFAULT_STATE_BUDGET,
    policy: ExecutionPolicy | None = None,
) -> WorstCaseDelay:
    """Exact worst-case delay via the Theorem 3.1 states-graph.

    Longest-path search over the reachable ``(labeling, countdown)`` states,
    materialized by the unified exploration core: states whose labeling is a
    stable fixed point have delay 0; any other state's delay is one more
    than the best successor's; a reachable cycle of non-stable states makes
    the delay unbounded.  Exact, but exponential — paper-sized systems only
    (``budget`` guards the graph size).

    With ``policy=ExecutionPolicy(symmetry="auto")`` the search runs on the
    symmetry quotient: stability is orbit-invariant and every concrete path
    corresponds to a quotient path of the same length (and vice versa), so
    the delay is unchanged while the graph is up to ``|G|`` times smaller.
    The witness walk is a list of ``(state, set id)`` steps, lifted back to
    concrete activation sets through the group elements the graph derives
    for them (the identity on a concrete graph) before return.
    """
    policy = resolve_policy(policy, api="exhaustive_worst_case_delay")
    inputs = tuple(inputs)
    graph = ExplorationGraph(
        protocol,
        inputs,
        r,
        [initial_labeling],
        budget=budget,
        name="states-graph",
        policy=policy,
    )
    compiled = graph.compiled
    edge_offsets = graph.edge_offsets
    edge_dst = graph.edge_dst
    edge_sid = graph.edge_sid

    # Stability is a property of the labeling alone (and orbit-invariant on
    # quotient graphs), so cache it per interned labeling id, not per state.
    stable_cache: dict[int, bool] = {}

    def stable(k: int) -> bool:
        lid = graph.label_id_of(k)
        cached = stable_cache.get(lid)
        if cached is None:
            cached = compiled.is_fixed_point(graph.labeling_of(k), inputs)
            stable_cache[lid] = cached
        return cached

    total = len(graph)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * total
    best = [0.0] * total
    for k in range(total):
        if stable(k):
            color[k] = BLACK  # delay 0, never expanded

    (root,) = graph.initial_indices
    if color[root] != BLACK:
        # Iterative DFS with per-frame running max over the packed edge
        # arrays; an edge into a GRAY state is a reachable non-stable
        # cycle => unbounded (infinity).
        frames = [(root, edge_offsets[root])]
        color[root] = GRAY
        running = {root: 0.0}
        while frames:
            k, pointer = frames[-1]
            advanced = False
            end = edge_offsets[k + 1]
            while pointer < end:
                j = edge_dst[pointer]
                pointer += 1
                if color[j] == GRAY:
                    running[k] = math.inf
                elif color[j] == BLACK:
                    running[k] = max(running[k], best[j])
                else:
                    color[j] = GRAY
                    running[j] = 0.0
                    frames[-1] = (k, pointer)
                    frames.append((j, edge_offsets[j]))
                    advanced = True
                    break
            if advanced:
                continue
            best[k] = 1.0 + running.pop(k)
            color[k] = BLACK
            frames.pop()
            if frames:
                # Fold the finished child into its DFS parent: the
                # parent's pointer already consumed this successor
                # before pushing it.
                parent = frames[-1][0]
                running[parent] = max(running[parent], best[k])

    # Walk a witness by following argmax successors from the root,
    # collecting (state, set id) steps so quotient walks can be lifted
    # afterwards.
    prefix: list[frozenset[int]] = []
    loop: list[frozenset[int]] = []
    if stable(root):
        delay = 0
    elif best[root] == math.inf:
        delay = None
        seen: dict[int, int] = {}
        walk: list[tuple[int, int]] = []
        k = root
        while k not in seen:
            seen[k] = len(walk)
            # An unbounded state always has an unbounded non-stable successor.
            for e in range(edge_offsets[k], edge_offsets[k + 1]):
                j = edge_dst[e]
                if not stable(j) and best[j] == math.inf:
                    walk.append((k, edge_sid[e]))
                    k = j
                    break
            else:  # pragma: no cover - DFS invariant
                raise AssertionError("unbounded state has no unbounded successor")
        cut = seen[k]
        prefix, h = graph.lift(walk[:cut], graph.root_element(root))
        loop = graph.lift_loop(walk[cut:], h)
    else:
        delay = int(best[root])
        walk = []
        k = root
        while not stable(k):
            chosen = None
            chosen_score = -1.0
            for e in range(edge_offsets[k], edge_offsets[k + 1]):
                j = edge_dst[e]
                score = 0.0 if stable(j) else best[j]
                if score > chosen_score:
                    chosen, chosen_score = e, score
            walk.append((k, edge_sid[chosen]))
            k = edge_dst[chosen]
        prefix, _h = graph.lift(walk, graph.root_element(root))

    return WorstCaseDelay(
        delay=delay,
        prefix=tuple(prefix),
        loop=tuple(loop),
        states_explored=total,
        n=protocol.n,
        stats=graph.stats(),
    )


class MinimaxAdversarySchedule(Schedule):
    """The exact worst-case r-fair adversary, replayed as a schedule.

    Runs the bounded exhaustive search up front (small systems only) and
    replays its witness; eventually periodic, so the engine classifies runs
    under it exactly.  ``delay`` exposes the certified worst case.
    """

    def __init__(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        initial_labeling: Labeling,
        r: int,
        budget: int = DEFAULT_STATE_BUDGET,
        policy: ExecutionPolicy | None = None,
    ):
        super().__init__(protocol.n)
        policy = resolve_policy(policy, api="MinimaxAdversarySchedule")
        self.worst_case = exhaustive_worst_case_delay(
            protocol,
            inputs,
            initial_labeling,
            r,
            budget=budget,
            policy=policy,
        )
        self.r = r
        self._realized = self.worst_case.schedule()

    @property
    def delay(self) -> int | None:
        return self.worst_case.delay

    def active(self, t: int) -> frozenset[int]:
        return self._realized.active(t)

    @property
    def period(self) -> int | None:
        return self._realized.period

    @property
    def preperiod(self) -> int:
        return self._realized.preperiod
