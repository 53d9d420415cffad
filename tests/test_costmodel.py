"""Tests for the cost model and its complexity gates.

Trajectory fitting (synthetic trajectories of known class land in that
class; garbage is flagged as a misfit; zero, NaN and inf are refused), the
benchmark-record gate (an injected complexity-class regression in a fixture
trajectory fails the check while the committed records pass; an unfittable
ladder is one located failure), capacity-planning estimates with warm-cache
discounts, and that the package imports plain Python only.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.costmodel import (
    BENCH_EXPECTATIONS,
    CANDIDATE_CLASSES,
    CLASS_ORDER,
    DEFAULT_CACHE_HIT_WORK,
    MIN_FIT_POINTS,
    ComplexitySpec,
    check_complexity,
    estimate_sweep_cost,
    failures_for_record,
    fit_trajectory,
)
from repro.exceptions import ValidationError
from repro.policy import ExecutionPolicy

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

SIZES = [16.0, 32.0, 64.0, 128.0, 256.0]


def _trajectory(class_name, coefficient=1e-4, noise=1.0):
    """Synthetic (sizes, times) of a known class, optionally perturbed."""
    fn = CANDIDATE_CLASSES[class_name]
    return SIZES, [coefficient * fn(size) * noise for size in SIZES]


class TestFitTrajectory:
    @pytest.mark.parametrize(
        "class_name",
        ["constant", "logarithmic", "linear", "linearithmic", "quadratic",
         "cubic", "exponential"],
    )
    def test_exact_trajectories_classify_exactly(self, class_name):
        sizes, times = _trajectory(class_name)
        fit = fit_trajectory(sizes, times)
        assert fit.best == class_name
        assert fit.rmse == pytest.approx(0.0, abs=1e-9)
        assert not fit.misfit
        assert fit.points == len(SIZES)

    def test_noisy_linear_still_classifies_linear(self):
        sizes = SIZES
        # +-10% multiplicative noise, fixed pattern
        times = [
            1e-4 * size * factor
            for size, factor in zip(sizes, [1.08, 0.93, 1.05, 0.95, 1.02], strict=True)
        ]
        fit = fit_trajectory(sizes, times)
        assert fit.best == "linear"
        assert not fit.misfit

    def test_coefficient_is_recovered(self):
        sizes, times = _trajectory("linear", coefficient=3.5e-5)
        fit = fit_trajectory(sizes, times)
        assert fit.coefficient == pytest.approx(3.5e-5, rel=1e-6)

    def test_garbage_is_a_misfit(self):
        # Alternating two orders of magnitude: no candidate class fits.
        sizes = SIZES
        times = [1e-5 if i % 2 else 1e-2 for i in range(len(sizes))]
        fit = fit_trajectory(sizes, times)
        assert fit.misfit
        assert fit.rmse > 1.0

    def test_regresses_compares_growth_order(self):
        sizes, times = _trajectory("quadratic")
        fit = fit_trajectory(sizes, times)
        assert fit.regresses(["linear"])
        assert fit.regresses(["linear", "linearithmic"])
        assert not fit.regresses(["quadratic"])
        assert not fit.regresses(["cubic"])

        sizes, times = _trajectory("constant")
        slower = fit_trajectory(sizes, times)
        # Sub-linear measurements never regress a linear declaration.
        assert not slower.regresses(["linear"])

    def test_restricted_candidate_set(self):
        sizes, times = _trajectory("quadratic")
        fit = fit_trajectory(sizes, times, classes=["linear", "quadratic"])
        assert fit.best == "quadratic"
        assert set(fit.residuals) == {"linear", "quadratic"}

    def test_validation(self):
        with pytest.raises(ValidationError, match="differ in length"):
            fit_trajectory([1.0, 2.0], [1.0])
        with pytest.raises(ValidationError, match="positive"):
            fit_trajectory([4.0, 8.0, 16.0], [1.0, -1.0, 1.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="positive and finite"):
                fit_trajectory([4.0, 8.0, 16.0], [1.0, bad, 1.0])
            with pytest.raises(ValidationError, match="positive and finite"):
                fit_trajectory([4.0, bad, 16.0], [1.0, 2.0, 4.0])
        with pytest.raises(ValidationError, match="distinct sizes"):
            fit_trajectory([4.0, 4.0, 4.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError, match="unknown complexity"):
            fit_trajectory(SIZES, [1.0] * len(SIZES), classes=["n^7"])


class TestSymbolicModels:
    def test_class_order_matches_candidates(self):
        assert set(CLASS_ORDER) == set(CANDIDATE_CLASSES)


def _fixture_record(engine_times, width_times, history=()):
    """A BENCH_a08-shaped record with the given trajectory times."""
    sizes = [float(size) for size in SIZES]

    def entries(node_ts, width_ts):
        return {
            "test_a08_engine_node_scaling": {
                "kernel_median_s": 0.1,
                "sizes": sizes,
                "times_s": list(node_ts),
            },
            "test_a08_batch_width_scaling": {
                "kernel_median_s": 0.1,
                "sizes": sizes,
                "times_s": list(width_ts),
            },
        }

    record = {
        "bench": "bench_a08_complexity_scaling",
        "entries": entries(engine_times, width_times),
        "history": [
            {"entries": entries(node_ts, width_ts)}
            for node_ts, width_ts in history
        ],
    }
    return record


class TestBenchRecordGate:
    def setup_method(self):
        _, self.linear = _trajectory("linear")
        _, self.quadratic = _trajectory("quadratic")

    def test_linear_record_passes(self):
        record = _fixture_record(self.linear, self.linear)
        assert failures_for_record(record) == []

    def test_injected_quadratic_regression_fails(self):
        # The acceptance scenario: a complexity-class regression injected
        # into a fixture trajectory must fail the check.
        record = _fixture_record(self.quadratic, self.linear)
        failures = failures_for_record(record)
        assert len(failures) == 1
        assert "test_a08_engine_node_scaling" in failures[0]
        assert "'quadratic'" in failures[0]
        assert "regresses" in failures[0]

    def test_linearithmic_is_within_the_allowed_set(self):
        _, linearithmic = _trajectory("linearithmic")
        record = _fixture_record(linearithmic, self.linear)
        assert failures_for_record(record) == []

    def test_history_snapshots_are_gated_too(self):
        record = _fixture_record(
            self.linear,
            self.linear,
            history=[(self.quadratic, self.linear)],
        )
        failures = failures_for_record(record)
        assert len(failures) == 1
        assert "history[0]" in failures[0]

    def test_history_snapshots_without_ladders_are_skipped(self):
        record = _fixture_record(self.linear, self.linear)
        # e.g. a pre-ladder run folded into history: no sizes/times fields
        record["history"] = [
            {"entries": {"test_a08_engine_node_scaling": {"total_s": 1.0}}}
        ]
        assert failures_for_record(record) == []

    def test_record_with_no_fittable_ladder_fails(self):
        spec = BENCH_EXPECTATIONS[0]
        record = {"bench": spec.record, "entries": {spec.entry: {}}}
        failures = check_complexity(record, spec)
        assert len(failures) == 1
        assert "no fittable" in failures[0]
        assert str(MIN_FIT_POINTS) in failures[0]

    def test_misfit_trajectory_fails(self):
        garbage = [1e-5 if i % 2 else 1e-2 for i in range(len(SIZES))]
        record = _fixture_record(garbage, self.linear)
        failures = failures_for_record(record)
        assert len(failures) == 1
        assert "no candidate class fits" in failures[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_unfittable_ladder_is_one_located_failure(self, bad):
        # A NaN RMSE is neither a misfit nor a regression, so a NaN or inf
        # must be refused, and a refusal must not escape the gate.
        width = [self.linear[0], bad, *self.linear[2:]]
        failures = failures_for_record(_fixture_record(self.linear, width))
        assert len(failures) == 1
        assert failures[0].startswith("test_a08_batch_width_scaling (latest):")
        assert "positive and finite" in failures[0]

    def test_unfittable_history_snapshot_is_located(self):
        zero = [0.0, *self.linear[1:]]
        history = [(self.linear, self.linear), (zero, self.linear)]
        record = _fixture_record(self.linear, self.linear, history=history)
        failures = failures_for_record(record)
        assert len(failures) == 1
        assert failures[0].startswith("test_a08_engine_node_scaling (history[1]):")

    def test_unregistered_records_pass(self):
        assert failures_for_record({"bench": "bench_a99", "entries": {}}) == []

    def test_spec_validates_class_names(self):
        with pytest.raises(ValidationError, match="unknown complexity"):
            ComplexitySpec(record="r", entry="e", expected="n^7")

    def test_committed_benchmark_records_pass(self):
        # The records shipped in this repository must hold their own gate.
        recorded = sorted(BENCH_DIR.glob("BENCH_*.json"))
        assert recorded, "no committed benchmark records found"
        fitted = 0
        for path in recorded:
            record = json.loads(path.read_text())
            assert failures_for_record(record) == [], path.name
            if any(
                spec.record == record.get("bench")
                for spec in BENCH_EXPECTATIONS
            ):
                fitted += 1
        assert fitted >= 1  # the a08 ladders are registered and present


class TestEstimateSweepCost:
    def test_cold_estimate_counts_every_case(self):
        estimate = estimate_sweep_cost(
            cases=100, nodes=16, degree=2, max_steps=200
        )
        assert estimate.layer == "engine.compiled"
        assert estimate.cached_cases == 0
        assert estimate.predicted_work == estimate.cold_work
        assert estimate.unit_work == pytest.approx(16 * 2 * 200)
        assert estimate.cache_discount == 0.0

    def test_warm_cases_are_discounted_to_a_lookup(self):
        cold = estimate_sweep_cost(cases=100, nodes=16, degree=2, max_steps=200)
        warm = estimate_sweep_cost(
            cases=100, nodes=16, degree=2, max_steps=200, cached_cases=60
        )
        assert warm.cold_work == cold.cold_work
        assert warm.predicted_work == pytest.approx(
            40 * warm.unit_work + 60 * DEFAULT_CACHE_HIT_WORK
        )
        assert 0.0 < warm.cache_discount < 1.0
        fully_warm = estimate_sweep_cost(
            cases=100, nodes=16, degree=2, max_steps=200, cached_cases=100
        )
        assert fully_warm.predicted_work == pytest.approx(
            100 * DEFAULT_CACHE_HIT_WORK
        )

    def test_batch_policy_selects_the_batch_layer(self):
        serial = estimate_sweep_cost(
            cases=10, nodes=16, degree=2, max_steps=100
        )
        batch = estimate_sweep_cost(
            cases=10,
            nodes=16,
            degree=2,
            max_steps=100,
            policy=ExecutionPolicy(executor="batch"),
        )
        assert batch.layer == "batch.fused"
        # same counted work, cheaper calibration constant
        assert batch.predicted_work == serial.predicted_work
        assert batch.predicted_seconds < serial.predicted_seconds

    def test_describe_mentions_the_essentials(self):
        estimate = estimate_sweep_cost(
            cases=10, nodes=16, degree=2, max_steps=100, cached_cases=3
        )
        text = estimate.describe()
        assert "3 warm" in text
        assert "engine.compiled" in text

    def test_validation(self):
        with pytest.raises(ValidationError, match="invalid case counts"):
            estimate_sweep_cost(
                cases=2, nodes=4, degree=1, max_steps=10, cached_cases=3
            )


def _python(*args):
    """Run a fresh interpreter on this checkout's ``src`` from the repo root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestPlainImports:
    def test_package_imports_do_not_load_sympy(self):
        result = _python(
            "-c",
            "import sys, repro, repro.analysis, repro.service,"
            " repro.analysis.costmodel; print('sympy' in sys.modules)",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
