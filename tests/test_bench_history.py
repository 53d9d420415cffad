"""The benchmark runner's record history (``benchmarks/_runner.py``).

``BENCH_<name>.json`` keeps the latest run at the top level (what
``check_regression.py`` gates on) and folds every superseded run into a
``history`` list, newest last — re-recording a baseline must never discard
the measurements it replaces.  Every run, and every snapshot of one, names
where it was made (its ``provenance`` block).
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import re
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "bench_runner_under_test", BENCH_DIR / "_runner.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_runner = _load_runner()


def _record(value: float, recorded_at: str = "2026-01-01T00:00:00+0000"):
    return {
        "bench": "bench_x",
        "recorded_at": recorded_at,
        "entries": {"test_x": {"kernel_median_s": value}},
    }


class TestMergeHistory:
    def test_first_record_has_empty_history(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        merged = _runner.merge_history(out, _record(1.0))
        assert merged["history"] == []

    def test_previous_top_level_run_is_appended(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        out.write_text(json.dumps(_record(1.0)))
        merged = _runner.merge_history(out, _record(2.0))
        assert len(merged["history"]) == 1
        assert merged["history"][0]["entries"] == _record(1.0)["entries"]
        assert merged["history"][0]["recorded_at"] == "2026-01-01T00:00:00+0000"
        # The new run stays at the top level, untouched.
        assert merged["entries"] == _record(2.0)["entries"]

    def test_existing_history_is_carried_and_extended(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        previous = _record(2.0, "2026-02-01T00:00:00+0000")
        previous["history"] = [_record(1.0)]
        out.write_text(json.dumps(previous))
        merged = _runner.merge_history(out, _record(3.0))
        values = [
            item["entries"]["test_x"]["kernel_median_s"]
            for item in merged["history"]
        ]
        assert values == [1.0, 2.0]

    def test_migrated_seed_entry_is_not_duplicated(self, tmp_path):
        # A migrated record already carries its own entries as the only
        # history snapshot; folding it again must not duplicate the seed.
        out = tmp_path / "BENCH_bench_x.json"
        migrated = _record(1.0)
        migrated["history"] = [{"entries": _record(1.0)["entries"]}]
        out.write_text(json.dumps(migrated))
        merged = _runner.merge_history(out, _record(2.0))
        assert len(merged["history"]) == 1

    def test_history_is_truncated_to_the_limit(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        previous = _record(999.0)
        previous["history"] = [
            _record(float(i)) for i in range(_runner.HISTORY_LIMIT + 5)
        ]
        out.write_text(json.dumps(previous))
        merged = _runner.merge_history(out, _record(1000.0))
        assert len(merged["history"]) == _runner.HISTORY_LIMIT
        # Newest kept: the previous top-level run is the last snapshot.
        assert (
            merged["history"][-1]["entries"]["test_x"]["kernel_median_s"]
            == 999.0
        )

    def test_corrupt_previous_file_is_ignored(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        out.write_text("{not json")
        merged = _runner.merge_history(out, _record(1.0))
        assert merged["history"] == []

    def test_provenance_is_carried_into_history(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        previous = _record(1.0)
        previous["provenance"] = {"git_sha": "abc", "cpu_count": 2}
        out.write_text(json.dumps(previous))
        merged = _runner.merge_history(out, _record(2.0))
        assert merged["history"][-1]["provenance"] == previous["provenance"]


class TestProvenance:
    def test_a_run_records_where_it_was_made(self, tmp_path):
        bench = tmp_path / "bench_tiny.py"
        bench.write_text(
            "def test_tiny(benchmark):\n    benchmark(lambda: sum(range(10)))\n"
        )
        record = _runner.run_bench_file(bench, repeats=1)
        block = record["provenance"]
        assert set(block) == {
            "git_sha", "dirty", "python", "numpy", "cpu_count", "platform"
        }
        sha = block["git_sha"]
        assert sha is None or re.fullmatch("[0-9a-f]{40}", sha)
        assert block["dirty"] in ((None,) if sha is None else (True, False))
        assert block["python"] == platform.python_version()
        assert block["cpu_count"] == os.cpu_count()
        assert block["platform"] == platform.platform()
        try:
            import numpy
        except ImportError:
            assert block["numpy"] is None
        else:
            assert block["numpy"] == numpy.__version__
        json.dumps(record)  # the record stays JSON-able

    def test_a_dirty_tree_is_recorded(self, tmp_path, monkeypatch):
        # A scratch checkout: one commit, then an edit under src/.
        def git(*args):
            command = ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args]
            subprocess.run(command, cwd=tmp_path, check=True, capture_output=True)

        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "module.py").write_text("x = 1\n")
        (tmp_path / "README").write_text("notes\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        monkeypatch.setattr(_runner, "REPO_ROOT", tmp_path)
        clean = _runner.provenance()
        assert re.fullmatch("[0-9a-f]{40}", clean["git_sha"])
        assert clean["dirty"] is False
        (tmp_path / "README").write_text("more notes\n")  # outside src/
        assert _runner.provenance()["dirty"] is False
        (tmp_path / "src" / "module.py").write_text("x = 2\n")
        dirty = _runner.provenance()
        assert dirty["git_sha"] == clean["git_sha"]
        assert dirty["dirty"] is True
        monkeypatch.setattr(_runner, "REPO_ROOT", tmp_path / "src" / "nowhere")
        assert _runner.provenance()["git_sha"] is None
        assert _runner.provenance()["dirty"] is None


class TestFailures:
    def test_every_bench_runs_and_each_failure_is_named(
        self, tmp_path, monkeypatch, capsys
    ):
        for name, body in (
            ("bench_a_fails", "    assert False, 'gate'\n"),
            ("bench_b_passes", "    benchmark(lambda: None)\n"),
            ("bench_c_fails", "    raise RuntimeError('broken')\n"),
        ):
            (tmp_path / f"{name}.py").write_text(
                f"def test_{name}(benchmark):\n{body}"
            )
        monkeypatch.setattr(_runner, "BENCH_DIR", tmp_path)
        try:
            _runner.main(["--repeats", "1"])
        except SystemExit as exit_:
            message = str(exit_.code)
        else:
            raise AssertionError("a failed bench must fail the run")
        assert message == "2 bench(es) raised: bench_a_fails, bench_c_fails"
        # The bench after the first failure still ran and recorded; the
        # failed ones wrote nothing.
        assert sorted(path.name for path in tmp_path.glob("BENCH_*.json")) == [
            "BENCH_bench_b_passes.json"
        ]
        assert "RuntimeError: broken" in capsys.readouterr().err


class TestCommittedRecords:
    def test_every_committed_record_carries_history(self):
        records = sorted(BENCH_DIR.glob("BENCH_*.json"))
        assert records, "no committed benchmark records found"
        for path in records:
            data = json.loads(path.read_text())
            assert data.get("entries"), path.name
            assert isinstance(data.get("history"), list), path.name


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "bench_checker_under_test", BENCH_DIR / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHardGates:
    def _gated(self, median, reduction):
        return {
            "entries": {
                "test_x": {
                    "kernel_median_s": median,
                    "quotient_reduction_factor": reduction,
                }
            },
            "gates": {
                "test_x": {
                    "max_kernel_median_s": 10.0,
                    "min": {"quotient_reduction_factor": 10.0},
                }
            },
        }

    def test_passing_gates_report_nothing(self):
        checker = _load_checker()
        assert checker.gate_failures(self._gated(1.5, 279.0)) == []

    def test_ceiling_violation_fails(self):
        checker = _load_checker()
        failures = checker.gate_failures(self._gated(11.0, 279.0))
        assert len(failures) == 1 and "kernel_median_s" in failures[0]

    def test_floor_violation_fails(self):
        checker = _load_checker()
        failures = checker.gate_failures(self._gated(1.5, 3.0))
        assert len(failures) == 1 and "quotient_reduction_factor" in failures[0]

    def test_missing_gated_entry_fails(self):
        checker = _load_checker()
        record = self._gated(1.5, 279.0)
        record["entries"] = {}
        assert checker.gate_failures(record)

    def test_record_without_gates_passes(self):
        checker = _load_checker()
        assert checker.gate_failures(_record(1.0)) == []

    def test_committed_a07_record_carries_its_gates(self):
        path = BENCH_DIR / "BENCH_bench_a07_frontier_quotient.json"
        data = json.loads(path.read_text())
        gate = data["gates"]["test_a07_k7_quotient_construction"]
        assert gate["max_kernel_median_s"] == 10.0
        assert gate["min"]["quotient_reduction_factor"] == 10.0
        checker = _load_checker()
        assert checker.gate_failures(data) == []
