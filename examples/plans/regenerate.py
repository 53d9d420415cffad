"""Regenerate the committed example plan pickles.

The ``.pkl`` files next to this script are the inputs of the CI ``statics``
job: ``python -m repro.statics examples/plans/PLAN_*.pkl`` preflights each
one (predicted batch partition, fingerprint-safety, purity verdicts) on
every push, so the preflight CLI is exercised against real, committed
plans — not just unit-test fixtures.

Everything in these plans is picklable *by value or by library reference*:
:class:`~repro.core.reaction.TabularReaction` tables instead of function
references, :class:`~repro.core.SynchronousSchedule` instances, seeded
labelings.  That keeps the pickles loadable from any process that can
import ``repro`` — no dependency on this script being importable.

Run from the repository root::

    PYTHONPATH=src python examples/plans/regenerate.py
"""

import pickle
import random
from itertools import product
from pathlib import Path

from repro.analysis import SweepCase
from repro.core import Labeling, StatelessProtocol, SynchronousSchedule
from repro.core.labels import ExplicitLabelSpace, binary
from repro.core.reaction import TabularReaction
from repro.faults.schedules import NoFaults
from repro.graphs import unidirectional_ring
from repro.graphs.standard import clique
from repro.service import plan_resilience_sweep, plan_sweep
from repro.statics import verify_plan

HERE = Path(__file__).parent


def copy_ring(n):
    """A ring where every node forwards the bit it receives."""
    topology = unidirectional_ring(n)
    reactions = []
    for i in range(n):
        in_edges = topology.in_edges(i)
        out_edges = topology.out_edges(i)
        table = {
            ((bit,), x): ((bit,) * len(out_edges), bit)
            for bit in (0, 1)
            for x in (0, 1)
        }
        reactions.append(TabularReaction(in_edges, out_edges, table))
    return StatelessProtocol(topology, binary(), reactions, name="copy-ring")


def majority_clique(n, k):
    """A clique whose nodes broadcast the most common incoming label."""
    topology = clique(n)
    space = ExplicitLabelSpace(tuple(range(k)), name=f"mod{k}")
    reactions = []
    for i in range(n):
        in_edges = topology.in_edges(i)
        out_edges = topology.out_edges(i)
        table = {}
        for combo in product(range(k), repeat=len(in_edges)):
            winner = max(set(combo), key=lambda v: (combo.count(v), -v))
            table[(combo, 0)] = ((winner,) * len(out_edges), winner)
        reactions.append(TabularReaction(in_edges, out_edges, table))
    return StatelessProtocol(topology, space, reactions, name="majority-clique")


def _cases(protocol, count, seed):
    rng = random.Random(seed)
    return [
        SweepCase(
            (0,) * protocol.n,
            Labeling.random(protocol.topology, protocol.label_space, rng),
            tag=index,
        )
        for index in range(count)
    ]


def _sync(index, case):
    return SynchronousSchedule(len(case.inputs))


def _no_faults(index, case):
    return NoFaults()


def main():
    ring = copy_ring(4)
    sweep = plan_sweep(ring, _cases(ring, count=6, seed=11), _sync, max_steps=40)
    verify_plan(sweep).raise_for_errors()
    (HERE / "PLAN_copy_ring_sweep.pkl").write_bytes(pickle.dumps(sweep))

    maj = majority_clique(4, 3)
    resilience = plan_resilience_sweep(
        maj, _cases(maj, count=4, seed=17), _sync, _no_faults, max_steps=40
    )
    verify_plan(resilience).raise_for_errors()
    (HERE / "PLAN_majority_resilience.pkl").write_bytes(
        pickle.dumps(resilience)
    )

    for path in sorted(HERE.glob("PLAN_*.pkl")):
        print(f"{path.name}: {len(path.read_bytes())} bytes")


if __name__ == "__main__":
    main()
