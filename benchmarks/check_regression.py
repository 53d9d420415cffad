"""Benchmark-regression gate: fresh BENCH records vs the committed ones.

Compares every ``benchmarks/BENCH_*.json`` in the working tree against the
version committed at ``HEAD`` (via ``git show``) and fails when any entry's
throughput regressed by more than the threshold (default 30%).  Records
without a committed counterpart are reported as new and pass; records whose
files were not regenerated compare equal and pass trivially, so the gate can
run after a partial benchmark smoke.

The throughput metric is ``steps_per_s`` when both versions carry it,
otherwise ``1 / kernel_median_s``.

Records may also carry hard acceptance ``gates`` (declared by the bench
module via ``BENCH_GATES`` and copied into the JSON by the runner):
absolute ceilings on ``kernel_median_s`` and floors on arbitrary entry
fields.  Unlike the relative regression check, gates fail regardless of
what the committed baseline says — they encode the acceptance criteria a
feature shipped under.

Two further passes ride along:

* **Coverage** (unfiltered runs only): every ``bench_*.py`` module must
  have a committed ``BENCH_*.json`` record or an entry in
  :data:`UNRECORDED_EXEMPT` — an unrecorded bench is invisible to every
  other pass, so going unrecorded must be an explicit, reviewed decision.
* **Complexity**: records carrying measured ``sizes`` / ``times_s``
  scaling ladders are re-fitted against the cost model's candidate
  classes (:mod:`repro.analysis.costmodel`), and a fitted class growing
  faster than the class the entry shipped under fails — including in
  ``history`` snapshots, so a slow drift cannot hide behind a fresh
  baseline.

Absolute throughput is machine-dependent, so the committed baselines must
come from the hardware class that runs the gate.  If the gate reds out on
every push with no performance-relevant diff, re-record the baselines on the
gating hardware: take the fresh ``BENCH_*.json`` from the CI job's uploaded
artifacts (or rerun ``python benchmarks/_runner.py``) and commit them.

A commit that regenerates its own baselines compares fresh records against
identical committed ones and passes trivially — so baseline re-records
should be reviewed as such, and pull-request pipelines can pin the baseline
to the merge base instead:
``--baseline "$(git merge-base HEAD origin/main)"``.

Usage:
    python benchmarks/check_regression.py                # all records
    python benchmarks/check_regression.py a02 a05        # substring filter
    python benchmarks/check_regression.py --threshold 0.5
    python benchmarks/check_regression.py --baseline origin/main
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

# Make `repro` importable for the complexity pass without PYTHONPATH=src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.costmodel import failures_for_record

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Bench modules allowed to have no committed ``BENCH_*.json`` record.
#: Every other ``bench_*.py`` must be recorded — an unrecorded bench is
#: invisible to this gate, which is exactly how the a01 blind spot
#: happened.  The e-series modules are *evidence* benches: they print the
#: paper-claim tables for humans and assert correctness inline, but their
#: timings gate nothing, so recording them would only add churn.  Adding a
#: module here is a reviewed statement that its performance is
#: deliberately ungated.
UNRECORDED_EXEMPT = frozenset(
    f"bench_e{index:02d}_" for index in range(1, 16)
)


def record_coverage_failures() -> list[str]:
    """Bench modules that are neither recorded nor explicitly exempted."""
    failures = []
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        if (BENCH_DIR / f"BENCH_{path.stem}.json").exists():
            continue
        if any(path.stem.startswith(prefix) for prefix in UNRECORDED_EXEMPT):
            continue
        failures.append(
            f"{path.name}: no committed BENCH_{path.stem}.json and not in"
            f" UNRECORDED_EXEMPT — run `python benchmarks/_runner.py"
            f" {path.stem.removeprefix('bench_')[:3]}` and commit the"
            f" record, or exempt the module with a justification"
        )
    return failures


def committed_record(path: Path, baseline: str = "HEAD") -> dict | None:
    """The baseline version of a benchmark record, or None when absent."""
    relative = path.relative_to(REPO_ROOT).as_posix()
    result = subprocess.run(
        ["git", "show", f"{baseline}:{relative}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return None
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError:
        return None


def common_throughput(
    fresh: dict, committed: dict
) -> tuple[float, float, str] | None:
    """Fresh and committed throughput on a metric both entries carry."""
    if fresh.get("steps_per_s") and committed.get("steps_per_s"):
        return (
            float(fresh["steps_per_s"]),
            float(committed["steps_per_s"]),
            "steps/s",
        )
    if fresh.get("kernel_median_s") and committed.get("kernel_median_s"):
        return (
            1.0 / float(fresh["kernel_median_s"]),
            1.0 / float(committed["kernel_median_s"]),
            "1/kernel_s",
        )
    return None


def compare(fresh: dict, committed: dict, threshold: float) -> list[tuple]:
    """Rows ``(entry, metric, committed, fresh, ratio, verdict)``."""
    rows = []
    committed_entries = committed.get("entries", {})
    for name, entry in fresh.get("entries", {}).items():
        old = committed_entries.get(name)
        if old is None:
            rows.append((name, "-", None, None, None, "new entry"))
            continue
        metrics = common_throughput(entry, old)
        if metrics is None:
            rows.append((name, "-", None, None, None, "no common metric"))
            continue
        new_value, old_value, metric = metrics
        ratio = new_value / old_value
        verdict = "ok" if ratio >= 1.0 - threshold else "REGRESSED"
        rows.append((name, metric, old_value, new_value, ratio, verdict))
    return rows


def gate_failures(record: dict) -> list[str]:
    """Hard-gate violations in a fresh record (empty when all gates hold)."""
    failures = []
    for name, gate in (record.get("gates") or {}).items():
        entry = record.get("entries", {}).get(name)
        if entry is None:
            failures.append(f"{name}: gated entry missing from record")
            continue
        ceiling = gate.get("max_kernel_median_s")
        if ceiling is not None:
            value = entry.get("kernel_median_s")
            if value is None or float(value) > float(ceiling):
                failures.append(
                    f"{name}: kernel_median_s {value} exceeds gate"
                    f" ceiling {ceiling}s"
                )
        for field, floor in (gate.get("min") or {}).items():
            value = entry.get(field)
            if value is None or float(value) < float(floor):
                failures.append(
                    f"{name}: {field} {value} below gate floor {floor}"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "patterns", nargs="*", help="substring filters on record names"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated throughput loss (fraction, default 0.30)",
    )
    parser.add_argument(
        "--baseline",
        default="HEAD",
        help="git ref to read the committed records from (default HEAD)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must lie in [0, 1)")

    records = sorted(BENCH_DIR.glob("BENCH_*.json"))
    if args.patterns:
        records = [
            path
            for path in records
            if any(pattern in path.stem for pattern in args.patterns)
        ]
    if not records:
        print("no benchmark records found")
        return 0

    failures = []
    if not args.patterns:
        # Coverage: every bench module must be recorded or exempted (only
        # meaningful unfiltered — a substring run sees a partial universe).
        for violation in record_coverage_failures():
            line = f"{violation} COVERAGE FAILED"
            print(line)
            failures.append(line)
    for path in records:
        fresh = json.loads(path.read_text())
        for violation in gate_failures(fresh):
            line = f"{path.name} :: {violation} GATE FAILED"
            print(line)
            failures.append(line)
        for violation in failures_for_record(fresh):
            line = f"{path.name} :: {violation} COMPLEXITY FAILED"
            print(line)
            failures.append(line)
        committed = committed_record(path, args.baseline)
        if committed is None:
            print(f"{path.name}: no committed baseline (new record) — ok")
            continue
        for name, metric, old, new, ratio, verdict in compare(
            fresh, committed, args.threshold
        ):
            if old is None:
                print(f"{path.name} :: {name}: {verdict}")
                continue
            line = (
                f"{path.name} :: {name}: {old:,.0f} -> {new:,.0f} {metric}"
                f" ({ratio:.2f}x) {verdict}"
            )
            print(line)
            if verdict == "REGRESSED":
                failures.append(line)

    if failures:
        print(
            f"\n{len(failures)} benchmark entr"
            f"{'y' if len(failures) == 1 else 'ies'} regressed more than"
            f" {args.threshold:.0%}, failed a hard/complexity gate, or"
            f" lack a committed record:"
        )
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"\nall benchmark records within {args.threshold:.0%}"
        f" of {args.baseline}, within their hard and complexity gates,"
        f" and every bench module recorded or exempted"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
