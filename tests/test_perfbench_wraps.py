"""The repository benchmark's wrap targets exist and see the sweep path.

``perfbench/layers.py`` traces a benchmark run by wrapping names of
``repro`` given as strings, so a renamed target fails only a traced run.
This test installs every wrap, runs a small sweep plan and a small
resilience plan through ``execute_plan`` on both executors, and checks that
the case runners and the batch run loop recorded their spans, that the
traced reports equal untraced ones, and that removing the wraps restores
every wrapped attribute.  It reads ``perfbench/`` and never edits it.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

from repro import ExecutionPolicy
from repro.faults.models import RandomCorruption
from repro.faults.schedules import OneShotFault
from repro.service import executor, plan_resilience_sweep

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


def test_wraps_see_every_runner_call_and_come_off_cleanly():
    sweep, protocol, cases = _plan(count=4)
    resilience = plan_resilience_sweep(protocol, cases, _sync, _faults, max_steps=60)
    plans = (sweep, resilience)
    originals = [_target(wrap) for wrap in WRAPS]
    sites = _bindings(originals)

    tracer = Tracer()
    installed = Installed(tracer, Counter())
    try:
        assert all(
            _target(wrap) is not original
            for wrap, original in zip(WRAPS, originals, strict=True)
        )
        traced = _run_all(plans)
    finally:
        installed.remove()

    calls = Counter(span.name for span in tracer.spans)
    # One runner call per plan and executor; one lockstep run per batch call.
    assert calls["analysis.sweeps.self"] == 2
    assert calls["analysis.resilience.self"] == 2
    assert calls["core.batch.run"] == 2
    assert calls["service.executor.self"] >= 4
    assert traced == _run_all(plans)
    assert all(
        _target(wrap) is original
        for wrap, original in zip(WRAPS, originals, strict=True)
    )
    restored = _bindings(originals)
    assert all(restored.get(site) is value for site, value in sites.items())
