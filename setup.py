"""Legacy setup shim: offline environments lack the `wheel` package, so the
PEP 517 editable path is unavailable; `pip install -e . --no-build-isolation
--no-use-pep517` uses this file instead."""
from setuptools import find_packages, setup

setup(
    name="repro-stateless-computation",
    version="0.6.0",
    description=(
        "Reproduction of 'Stateless Computation'"
        " (Dolev, Erdmann, Lutz, Schapira, Zair; PODC 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={
        # The vectorized batch-simulation backend (repro.core.batch).
        "batch": ["numpy>=1.22"],
        # Everything the test suite and benchmarks need.
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
            "numpy>=1.22",
        ],
    },
)
