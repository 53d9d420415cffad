"""The repository benchmark's wrap targets exist and see the sweep and
exploration paths.

``perfbench/layers.py`` traces a benchmark run by wrapping names of
``repro`` given as strings, so a renamed target fails only a traced run.
These tests install every wrap and run, in turn, a small sweep plan and a
small resilience plan through ``execute_plan`` on both executors, and two
Example 1 verdicts on K_4 (a concrete one on the batch frontier and a
symmetry quotient).  They check that the case runners, the batch run loop,
the frontier's ``step_codes``, the exploration build, canonicalization and
the model checker recorded their spans, that the traced results equal
untraced ones, and that removing the wraps restores every wrapped
attribute.  They read ``perfbench/`` and never edit it.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import repro.stabilization
from repro import ExecutionPolicy
from repro.core import default_inputs
from repro.faults.models import RandomCorruption
from repro.faults.schedules import OneShotFault
from repro.service import executor, plan_resilience_sweep

from tests.helpers import set_batch_floor
from tests.test_service_jobs import _plan, _sync

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import WRAPS, Installed  # noqa: E402
from spans import Tracer  # noqa: E402


def _faults(index, case):
    return OneShotFault(2, RandomCorruption(0.5, seed=index))


def _target(wrap):
    """The object a wrap replaces, resolved the way ``Installed`` does."""
    owner = importlib.import_module(wrap.module)
    *path, name = wrap.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, dict):
        return owner[name]
    if isinstance(owner, type):
        return owner.__dict__[name]
    return getattr(owner, name)


def _bindings(objects):
    """Every ``repro`` module global bound to one of ``objects``."""
    wanted = {id(obj) for obj in objects}
    return {
        (module_name, attr): value
        for module_name, module in list(sys.modules.items())
        if module is not None and module_name.split(".")[0] == "repro"
        for attr, value in vars(module).items()
        if id(value) in wanted
    }


def _run_all(plans):
    return [
        executor.execute_plan(plan, policy=ExecutionPolicy(executor=name))
        for plan in plans
        for name in ("serial", "batch")
    ]


def _traced(run):
    """``run()`` with every wrap installed: the span counts and its result.

    Also checks that every wrap was on during the run and that removing
    them restores every wrapped attribute and every rebound module global.
    """
    originals = [_target(wrap) for wrap in WRAPS]
    sites = _bindings(originals)

    tracer = Tracer()
    installed = Installed(tracer, Counter())
    try:
        assert all(
            _target(wrap) is not original
            for wrap, original in zip(WRAPS, originals, strict=True)
        )
        result = run()
    finally:
        installed.remove()

    assert all(
        _target(wrap) is original
        for wrap, original in zip(WRAPS, originals, strict=True)
    )
    restored = _bindings(originals)
    assert all(restored.get(site) is value for site, value in sites.items())
    return Counter(span.name for span in tracer.spans), result


def test_wraps_see_every_runner_call_and_come_off_cleanly():
    sweep, protocol, cases = _plan(count=4)
    resilience = plan_resilience_sweep(protocol, cases, _sync, _faults, max_steps=60)
    plans = (sweep, resilience)

    calls, traced = _traced(lambda: _run_all(plans))

    # One runner call per plan and executor; one lockstep run per batch call.
    assert calls["analysis.sweeps.self"] == 2
    assert calls["analysis.resilience.self"] == 2
    assert calls["core.batch.run"] == 2
    assert calls["service.executor.self"] >= 4
    assert traced == _run_all(plans)


def _verdicts():
    """Example 1 on K_4 at r = 3 (not stabilizing): concrete, then on the
    symmetry quotient.  Called through the package attribute, which the
    wraps rebind; the caller sets the batch frontier's floor."""
    stabilization = repro.stabilization
    protocol = stabilization.example1_protocol(4)
    inputs = default_inputs(protocol)
    return [
        stabilization.decide_label_r_stabilizing(protocol, inputs, 3, policy=policy)
        for policy in (ExecutionPolicy(), ExecutionPolicy(symmetry="auto"))
    ]


def test_wraps_see_the_exploration_path(monkeypatch):
    set_batch_floor(monkeypatch, 1)
    calls, traced = _traced(_verdicts)

    for span in (
        "core.batch.step_codes",
        "stabilization.exploration.build",
        "graphs.automorphisms.canonical",
        "stabilization.model_checker.self",
    ):
        assert calls[span], span
    assert calls["stabilization.model_checker.self"] == 2
    assert [verdict.stabilizing for verdict in traced] == [False, False]
    assert traced == _verdicts()
