"""``python -m repro.statics [src/ ... | PLAN.pkl ...]`` — the static gate.

Each argument is dispatched by shape:

* a directory or ``.py`` file runs the repo-invariant lint pass
  (:func:`repro.statics.lint.lint_paths`);
* a ``.pkl``/``.pickle`` file is unpickled as a
  :class:`~repro.service.plan.SweepPlan` (or a protocol) and preflighted:
  predicted batch partition, fingerprint-safety, and the purity verdicts
  of its reactions.

``--json`` emits one machine-readable report object; the human format is
one :meth:`~repro.exceptions.Diagnostic.describe` line per finding plus a
summary.  Exit status: ``1`` when any *error* diagnostic was produced,
``--strict`` additionally fails on warnings (the CI setting, so "the
analysis could not prove it" never rots into an ignored column of yellow).
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path

from repro.statics.lint import lint_paths
from repro.statics.preflight import verify_plan, verify_protocol
from repro.statics.purity import verify_protocol_purity


def _preflight_target(path: Path) -> dict:
    """Preflight one pickled plan (or bare protocol) into a report dict."""
    with path.open("rb") as handle:
        target = pickle.load(handle)
    if hasattr(target, "specs"):  # a SweepPlan
        preflight = verify_plan(target)
        purity = verify_protocol_purity(target.protocol)
        diagnostics = [
            *preflight.fingerprint_diagnostics,
            *preflight.diagnostics,
            *purity.errors,
        ]
        return {
            "target": str(path),
            "kind": "plan",
            "preflight": preflight.record(),
            "purity": purity.record(),
            "diagnostics": [d.record() for d in diagnostics],
            "_objects": diagnostics,
        }
    preflight = verify_protocol(target)
    purity = verify_protocol_purity(target)
    return {
        "target": str(path),
        "kind": "protocol",
        "preflight": preflight.record(),
        "purity": purity.record(),
        "diagnostics": [d.record() for d in purity.errors],
        "_objects": list(purity.errors),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statics",
        description="static statelessness verifier, plan preflight, and"
        " repo-invariant lint",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="directories / .py files to lint, .pkl plans to preflight",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not only errors (the CI setting)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON report on stdout",
    )
    args = parser.parse_args(argv)

    lint_targets = []
    plan_targets = []
    for raw in args.targets:
        path = Path(raw)
        if not path.exists():
            parser.error(f"no such target: {raw}")
        if path.suffix in (".pkl", ".pickle"):
            plan_targets.append(path)
        else:
            lint_targets.append(path)

    diagnostics = list(lint_paths(lint_targets)) if lint_targets else []
    report: dict = {
        "lint": {
            "targets": [str(path) for path in lint_targets],
            "diagnostics": [d.record() for d in diagnostics],
        },
        "preflight": [],
    }
    for path in plan_targets:
        entry = _preflight_target(path)
        diagnostics.extend(entry.pop("_objects"))
        report["preflight"].append(entry)

    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = sum(1 for d in diagnostics if d.severity == "warning")
    failed = errors > 0 or (args.strict and warnings > 0)
    report["summary"] = {
        "errors": errors,
        "warnings": warnings,
        "strict": args.strict,
        "ok": not failed,
    }

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.describe())
        for entry in report["preflight"]:
            preflight = entry["preflight"]
            if entry["kind"] == "plan":
                preflight = preflight["protocol"]
            print(
                f"{entry['target']}: {entry['kind']} preflight —"
                f" {len(preflight['predicted_fallback'])} predicted fallback"
                f" node(s), purity {entry['purity']['counts']}"
            )
        status = "FAIL" if failed else "ok"
        print(
            f"repro.statics: {status} ({errors} error(s),"
            f" {warnings} warning(s), strict={args.strict})"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
