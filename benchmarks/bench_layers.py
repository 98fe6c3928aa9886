"""Layer benchmarks for qslab's per-frequency kernels (L1) and grid operations (L2).

Run by explicit path from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py --benchmark-only

The file name does not match ``test_*.py``, so the default test run does
not collect it.  The L1 kernels run at one frequency, in a transmission
band of a two-species medium, and ``scatter_coefficients`` also on a
resonance flank, where the interior index is about 1e-4.  The L2 sizes
follow the ``pulse`` benchmark workload: a 4001-point k grid and a
2001-point time grid; ``scatter_on_grid`` also runs at the 20,001 points
of a CLI sweep.  The non-uniform
grid takes the direct sum, so it measures the path the factored sum
replaces on uniform grids.  The ODE oracle runs at a ramp width of L/100,
the narrowest that ``verify --level full`` uses for the source integral.
``record.py`` runs this file on two checkouts in alternation.
"""

import numpy as np
import pytest

from qslab.medium import BandKind, MediumSpec, OscillatorSpecies, refractive_index
from qslab.oracle import SmoothedProfile, ode_scatter, source_integral_check, transfer_matrix_rt
from qslab.quantum_io import PulseSpectrum, detection_rate, gaussian_pulse, s_matrix
from qslab.slab import greens_function, mode_function, scatter_coefficients, scatter_on_grid

MEDIUM = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),))  # absorption band (0.9, 1.0)
TWO_SPECIES = MediumSpec(species=(OscillatorSpecies(1.0, 0.1), OscillatorSpecies(2.0, 0.3)))
OMEGA = 1.5  # transmission band of TWO_SPECIES, between the two gaps
FLANK = 1.0 + 2e-9  # just above MEDIUM's resonance, n0 ~ 1.5e-4
K_POINTS = 4001
T_POINTS = 2001


def test_refractive_index(benchmark):
    assert benchmark(refractive_index, TWO_SPECIES, OMEGA).band_kind is BandKind.TRANSMISSION


def test_transfer_matrix_rt(benchmark):
    n0 = refractive_index(TWO_SPECIES, OMEGA).n
    refl, trans = benchmark(transfer_matrix_rt, n0, OMEGA, TWO_SPECIES.half_length_L)
    assert abs(abs(refl) ** 2 + abs(trans) ** 2 - 1.0) < 1e-12


def test_scatter_coefficients(benchmark):
    sol = benchmark(scatter_coefficients, TWO_SPECIES, OMEGA)
    assert abs(abs(sol.R) ** 2 + abs(sol.T) ** 2 - 1.0) < 1e-12


def test_scatter_coefficients_on_a_resonance_flank(benchmark):
    sol = benchmark(scatter_coefficients, MEDIUM, FLANK)
    assert 0.0 < abs(sol.n0) < 1e-3
    assert abs(abs(sol.R) ** 2 + abs(sol.T) ** 2 - 1.0) < 1e-12


def test_s_matrix(benchmark):
    assert benchmark(s_matrix, TWO_SPECIES, OMEGA).unitarity_defect < 1e-12


def test_greens_function(benchmark):
    # both points inside the slab
    assert np.isfinite(benchmark(greens_function, TWO_SPECIES, OMEGA, 0.3, -0.4).value)


def test_mode_function_right_incidence(benchmark):
    sample = benchmark(mode_function, TWO_SPECIES, OMEGA, "right", 0.3)
    assert sample.region == "II"


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


def test_scatter_on_grid_20001(benchmark):
    omegas = np.linspace(0.05, 2.0, 20_001)
    refl, trans, _ = benchmark(scatter_on_grid, MEDIUM, omegas)
    assert np.abs(np.abs(refl) ** 2 + np.abs(trans) ** 2 - 1.0).max() < 1e-12


def test_ode_scatter(benchmark):
    profile = SmoothedProfile.for_medium(MEDIUM, 0.5, MEDIUM.half_length_L / 100.0)
    refl, trans = benchmark(ode_scatter, profile, 0.5)
    assert abs(abs(refl) ** 2 + abs(trans) ** 2 - 1.0) < 1e-8


def test_source_integral_check(benchmark):
    profile = SmoothedProfile.resonance(MEDIUM.half_length_L, MEDIUM.half_length_L / 100.0)
    integral = benchmark(source_integral_check, profile, MEDIUM.resonances()[0])
    assert 0.0 < abs(integral) < 1e-2
