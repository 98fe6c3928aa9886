"""Layer benchmarks for qslab's grid operations (L2), on pytest-benchmark.

Run by explicit path from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py --benchmark-only

The file name does not match ``test_*.py``, so the default test run does
not collect it.  Sizes follow the ``pulse`` benchmark workload: a 4001-point
k grid and a 2001-point time grid.  The non-uniform grid takes the direct
sum, so it measures the path the factored sum replaces on uniform grids.
``record.py`` runs this file on two checkouts in alternation.
"""

import numpy as np
import pytest

from qslab.medium import MediumSpec, OscillatorSpecies
from qslab.quantum_io import PulseSpectrum, detection_rate, gaussian_pulse
from qslab.slab import scatter_on_grid

MEDIUM = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),))  # absorption band (0.9, 1.0)
K_POINTS = 4001
T_POINTS = 2001


def _pulse(grid: str) -> PulseSpectrum:
    """A Gaussian across the 0.9 band edge, on a uniform or a jittered k grid."""
    pulse = gaussian_pulse(0.95, 0.05, points=K_POINTS)
    if grid == "uniform":
        return pulse
    k = pulse.k_grid.copy()
    k[1:-1] += 0.25 * (k[1] - k[0]) * np.sin(np.arange(1, K_POINTS - 1))
    return PulseSpectrum(k, pulse.f_values)


@pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
def test_detection_rate(benchmark, grid):
    pulse = _pulse(grid)
    t = np.linspace(0.0, 80.0, T_POINTS)
    trace = benchmark(detection_rate, MEDIUM, pulse, 4.0, t)
    assert trace.rate_values.shape == t.shape
    assert np.isfinite(trace.rate_values).all()


def test_scatter_on_grid(benchmark):
    omegas = np.linspace(0.05, 2.0, K_POINTS)
    refl, trans, _ = benchmark(scatter_on_grid, MEDIUM, omegas)
    assert np.abs(np.abs(refl) ** 2 + np.abs(trans) ** 2 - 1.0).max() < 1e-12
