"""Per-case work estimates, trajectory fitting, and complexity-class gates.

The paper's guarantees are asymptotic — r-stabilization bounds in the node
count, the fairness radius, and the label-space size — but a benchmark gate
that only compares throughput *constants* (``check_regression.py``'s 30%
threshold) cannot see an implementation slipping from O(n) to O(n²) while
its constant improves.  This module closes that gap in two layers:

1. **Trajectory fitting** (:func:`fit_trajectory`): measured ``(size,
   seconds)`` trajectories — the per-scale ladders that benches record into
   their ``BENCH_*.json`` entries and ``history`` snapshots — are regressed
   against the candidate complexity classes in :data:`CANDIDATE_CLASSES`
   (log-space least squares, one multiplicative constant per class) and the
   best-fitting class is reported with its residual.

2. **CI gates** (:func:`check_complexity`, :data:`BENCH_EXPECTATIONS`):
   each registered benchmark entry declares the complexity class it shipped
   under; a fresh record (or any of its history snapshots) whose fitted
   class grows *faster* than the declared one fails the gate — run by
   ``benchmarks/check_regression.py`` on every record
   (:func:`failures_for_record`).

The service layer's capacity planning prices a sweep with one per-case
formula: :func:`estimate_sweep_cost` charges ``S·n·d`` work units (step
budget × nodes × max in-degree) per uncached case and a lookup per warm
cache hit, which :mod:`repro.service.admission` turns into admission
control.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ValidationError
from repro.policy import ExecutionPolicy

#: Candidate complexity classes, slowest-growing first, as functions of the
#: trajectory size.  Fits pick among these; gates compare positions in this
#: growth order.
CANDIDATE_CLASSES: Mapping[str, Callable[[float], float]] = {
    "constant": lambda s: 1,
    "logarithmic": lambda s: math.log(s),
    "linear": lambda s: s,
    "linearithmic": lambda s: s * math.log(s),
    "quadratic": lambda s: s**2,
    "cubic": lambda s: s**3,
    "exponential": lambda s: 2**s,
}

#: Growth order of the candidate classes (index comparisons implement
#: "class A grows faster than class B").
CLASS_ORDER: tuple[str, ...] = tuple(CANDIDATE_CLASSES)


# --------------------------------------------------------------------------
# Trajectory fitting
# --------------------------------------------------------------------------

#: Fewest distinct trajectory sizes a fit will accept.
MIN_FIT_POINTS = 3
#: Log-space RMSE above which no candidate class is considered a fit
#: (0.35 in natural log space is roughly a 40% multiplicative deviation).
MISFIT_RMSE = 0.35


@dataclass(frozen=True)
class TrajectoryFit:
    """The outcome of fitting one measured trajectory.

    ``residuals`` maps every candidate class to its log-space RMSE;
    ``best`` is the argmin, ``coefficient`` its fitted multiplicative
    constant (``seconds ≈ coefficient · class(size)``).
    """

    best: str
    coefficient: float
    residuals: Mapping[str, float] = field(repr=False)
    points: int = 0

    @property
    def rmse(self) -> float:
        return self.residuals[self.best]

    @property
    def misfit(self) -> bool:
        """True when even the best class misses the data badly."""
        return self.rmse > MISFIT_RMSE

    def regresses(self, accepted: Sequence[str]) -> bool:
        """True when the fitted class grows faster than every accepted one."""
        ceiling = max(CLASS_ORDER.index(name_) for name_ in accepted)
        return CLASS_ORDER.index(self.best) > ceiling

    def describe(self) -> str:
        return (
            f"TrajectoryFit(best={self.best!r},"
            f" coefficient={self.coefficient:.3g}, rmse={self.rmse:.3f},"
            f" points={self.points})"
        )


def fit_trajectory(
    sizes: Sequence[float],
    times: Sequence[float],
    classes: Sequence[str] | None = None,
) -> TrajectoryFit:
    """Fit a measured ``(size, seconds)`` trajectory to a complexity class.

    For each candidate class ``g``, the single multiplicative constant
    ``c`` minimizing ``Σ (log t_i − log(c·g(s_i)))²`` has the closed form
    ``log c = mean(log t_i − log g(s_i))``; the class with the smallest
    log-space RMSE wins.  Requires at least :data:`MIN_FIT_POINTS` distinct
    sizes and finite, strictly positive data.
    """
    if len(sizes) != len(times):
        raise ValidationError(
            f"trajectory sizes and times differ in length:"
            f" {len(sizes)} vs {len(times)}"
        )
    if not all(0 < value < math.inf for value in (*sizes, *times)):
        raise ValidationError("trajectory sizes and times must be positive and finite")
    if len(set(sizes)) < MIN_FIT_POINTS:
        raise ValidationError(
            f"need at least {MIN_FIT_POINTS} distinct sizes to classify a"
            f" trajectory; got {sorted(set(sizes))}"
        )
    names = list(classes) if classes is not None else list(CANDIDATE_CLASSES)
    unknown = [name_ for name_ in names if name_ not in CANDIDATE_CLASSES]
    if unknown:
        raise ValidationError(
            f"unknown complexity class(es) {unknown};"
            f" expected among {sorted(CANDIDATE_CLASSES)}"
        )

    log_times = [math.log(time) for time in times]
    residuals: dict[str, float] = {}
    coefficients: dict[str, float] = {}
    for name_ in names:
        fn = CANDIDATE_CLASSES[name_]
        try:
            log_class = [math.log(fn(size)) for size in sizes]
        except ValueError:
            # log(x) <= 0 at size <= 1: the class is undefined on this
            # trajectory's domain — skip it.
            continue
        except OverflowError:
            # 2**x overflowed: grossly faster than the data can be; skip.
            continue
        offsets = [lt - lc for lt, lc in zip(log_times, log_class, strict=True)]
        log_c = sum(offsets) / len(offsets)
        residuals[name_] = math.sqrt(
            sum((offset - log_c) ** 2 for offset in offsets) / len(offsets)
        )
        coefficients[name_] = math.exp(log_c)
    if not residuals:
        raise ValidationError(
            "no candidate class is defined on this trajectory's sizes"
        )
    best = min(residuals, key=residuals.__getitem__)
    return TrajectoryFit(
        best=best,
        coefficient=coefficients[best],
        residuals=residuals,
        points=len(sizes),
    )


# --------------------------------------------------------------------------
# Benchmark-record gates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexitySpec:
    """The complexity class one benchmark entry shipped under.

    ``record`` is the bench stem (``bench_a08_complexity_scaling``);
    ``entry`` the entry name inside its ``BENCH_*.json``.  The entry (and
    any history snapshot of it) must carry parallel ``sizes_field`` /
    ``times_field`` arrays — its measured scaling ladder.  A fitted class
    growing faster than ``expected`` or any name in ``allowed`` fails;
    growing *slower* never does.
    """

    record: str
    entry: str
    expected: str
    allowed: tuple[str, ...] = ()
    sizes_field: str = "sizes"
    times_field: str = "times_s"

    def __post_init__(self):
        for name_ in (self.expected, *self.allowed):
            if name_ not in CANDIDATE_CLASSES:
                raise ValidationError(
                    f"unknown complexity class {name_!r};"
                    f" expected among {sorted(CANDIDATE_CLASSES)}"
                )

    @property
    def accepted(self) -> tuple[str, ...]:
        return (self.expected, *self.allowed)


#: The complexity classes the committed benchmarks shipped under.  A bench
#: earns a row here by recording a per-scale ladder (``sizes`` /
#: ``times_s``) into its entry; the CI gate then holds every future record
#: — and every history snapshot — to that class.
BENCH_EXPECTATIONS: tuple[ComplexitySpec, ...] = (
    ComplexitySpec(
        record="bench_a08_complexity_scaling",
        entry="test_a08_batch_width_scaling",
        expected="linear",
        allowed=("linearithmic",),
    ),
    ComplexitySpec(
        record="bench_a08_complexity_scaling",
        entry="test_a08_engine_node_scaling",
        expected="linear",
        allowed=("linearithmic",),
    ),
)


def _trajectory_from_entry(
    entry: Mapping, spec: ComplexitySpec
) -> tuple[list[float], list[float]] | None:
    sizes = entry.get(spec.sizes_field)
    times = entry.get(spec.times_field)
    if not isinstance(sizes, (list, tuple)) or not isinstance(
        times, (list, tuple)
    ):
        return None
    if len(sizes) != len(times) or len(set(sizes)) < MIN_FIT_POINTS:
        return None
    return [float(size) for size in sizes], [float(time) for time in times]


def check_complexity(
    record: Mapping, spec: ComplexitySpec
) -> list[str]:
    """Complexity-gate violations of one BENCH record against one spec.

    The record's latest ``entries`` **and** every ``history`` snapshot are
    fitted independently (snapshots without the trajectory fields — e.g.
    runs that predate the ladder — are skipped); any fitted class that
    grows faster than the spec's accepted set, that no candidate class
    fits at all, or a ladder that cannot be fitted (a zero, negative or
    non-finite value) is a violation.  Returns human-readable failure lines
    (empty when the gate holds).
    """
    failures = []
    snapshots = [("latest", record)] + [
        (f"history[{i}]", snapshot)
        for i, snapshot in enumerate(record.get("history", []))
        if isinstance(snapshot, dict)
    ]
    found_any = False
    for label, snapshot in snapshots:
        entry = (snapshot.get("entries") or {}).get(spec.entry)
        if not isinstance(entry, dict):
            continue
        trajectory = _trajectory_from_entry(entry, spec)
        if trajectory is None:
            continue
        found_any = True
        try:
            fit = fit_trajectory(*trajectory)
        except ValidationError as error:
            failures.append(f"{spec.entry} ({label}): {error}")
            continue
        if fit.misfit:
            failures.append(
                f"{spec.entry} ({label}): no candidate class fits the"
                f" trajectory (best {fit.best!r} at log-RMSE"
                f" {fit.rmse:.3f} > {MISFIT_RMSE})"
            )
        elif fit.regresses(spec.accepted):
            failures.append(
                f"{spec.entry} ({label}): fitted complexity {fit.best!r}"
                f" (log-RMSE {fit.rmse:.3f}) regresses the declared class"
                f" {spec.expected!r} (accepted: {', '.join(spec.accepted)})"
            )
    if not found_any:
        failures.append(
            f"{spec.entry}: record carries no fittable"
            f" {spec.sizes_field}/{spec.times_field} trajectory"
            f" (>= {MIN_FIT_POINTS} distinct sizes required)"
        )
    return failures


def failures_for_record(record: Mapping) -> list[str]:
    """All complexity-gate violations of one record (by its ``bench`` stem).

    Records with no registered :data:`BENCH_EXPECTATIONS` row pass — the
    gate is opt-in per benchmark.
    """
    stem = record.get("bench")
    failures = []
    for spec in BENCH_EXPECTATIONS:
        if spec.record == stem:
            failures.extend(check_complexity(record, spec))
    return failures


# --------------------------------------------------------------------------
# Capacity planning
# --------------------------------------------------------------------------

#: Seconds per work unit (one node activation's worth of elementary work)
#: for the layer an estimate prices at, anchored to the committed BENCH
#: records: the serial engine sustains ~2.7M node activations/s (BENCH_a02:
#: 41.5k steps/s × 64 nodes) and the batch routes ~20–130M element ops/s
#: (BENCH_a05: ~2.1M row-steps/s × 64 nodes at 10^5 rows).  Constants,
#: deliberately coarse — admission budgets are set in work units, and the
#: seconds only show beside measured times.
DEFAULT_SECONDS_PER_UNIT: Mapping[str, float] = {
    "engine.compiled": 4e-7,
    "batch.fused": 1e-8,
}

#: Work units charged for serving one case from the result cache (one
#: fingerprint + one store lookup — microseconds, i.e. a few dozen units).
DEFAULT_CACHE_HIT_WORK = 50.0


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of a sweep under one :class:`ExecutionPolicy`.

    ``unit_work`` is the per-uncached-case work;
    ``predicted_work`` discounts warm cases to ``cache_hit_work``;
    ``cold_work`` is the no-cache figure (what the same sweep would cost
    against an empty store).  ``predicted_seconds`` applies the layer's
    calibration constant.
    """

    cases: int
    cached_cases: int
    uncached_cases: int
    unit_work: float
    cache_hit_work: float
    predicted_work: float
    cold_work: float
    predicted_seconds: float
    layer: str

    @property
    def cache_discount(self) -> float:
        """Fraction of the cold cost the cache removes (0.0 when cold)."""
        if self.cold_work == 0:
            return 0.0
        return 1.0 - self.predicted_work / self.cold_work

    def describe(self) -> str:
        return (
            f"CostEstimate(layer={self.layer},"
            f" cases={self.cases} ({self.cached_cases} warm),"
            f" work={self.predicted_work:,.0f}"
            f" (cold {self.cold_work:,.0f}),"
            f" ~{self.predicted_seconds:.3g}s)"
        )


def estimate_sweep_cost(
    *,
    cases: int,
    nodes: int,
    degree: int,
    max_steps: int,
    policy: ExecutionPolicy | None = None,
    cached_cases: int = 0,
) -> CostEstimate:
    """Price a sweep before running anything.

    Per-case work is ``S·n·d``: one gather/react/scatter per node
    activation, with the step budget as ``S``, ``n`` nodes and the maximum
    in-degree ``d`` (at least 1) — an upper bound, since runs that
    stabilize early stop early.  Every layer does this much element work;
    the layer only picks the rate in :data:`DEFAULT_SECONDS_PER_UNIT`, and
    follows the policy's executor (``"batch"`` → ``"batch.fused"``, else
    ``"engine.compiled"``).  ``cached_cases`` of the total are discounted
    to :data:`DEFAULT_CACHE_HIT_WORK` each.
    """
    if cases < 0 or cached_cases < 0 or cached_cases > cases:
        raise ValidationError(
            f"invalid case counts: cases={cases}, cached={cached_cases}"
        )
    policy = policy or ExecutionPolicy()
    layer = "batch.fused" if policy.executor == "batch" else "engine.compiled"
    unit_work = float(max_steps) * nodes * max(degree, 1)
    uncached = cases - cached_cases
    predicted_work = uncached * unit_work + cached_cases * DEFAULT_CACHE_HIT_WORK
    cold_work = cases * unit_work
    predicted_seconds = predicted_work * DEFAULT_SECONDS_PER_UNIT[layer]
    return CostEstimate(
        cases=cases,
        cached_cases=cached_cases,
        uncached_cases=uncached,
        unit_work=unit_work,
        cache_hit_work=DEFAULT_CACHE_HIT_WORK,
        predicted_work=predicted_work,
        cold_work=cold_work,
        predicted_seconds=predicted_seconds,
        layer=layer,
    )

