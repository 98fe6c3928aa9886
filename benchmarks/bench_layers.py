"""Layer benchmarks for qslab: start-up (L0), per-frequency kernels (L1), grid
operations (L2) and CLI subcommands (L3).

Run by explicit path from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py --benchmark-only

The file name does not match ``test_*.py``, so the default test run does
not collect it.  The L1 kernels run at one frequency, in a transmission
band of a two-species medium, and ``scatter_coefficients`` also on a
resonance flank, where the interior index is about 1e-4.  ``band_edges``
bisects the edges of a fresh three-species medium (its construction
included), and ``dispersion_omega_of_k`` the three branches of the
two-species medium at k = 1.5.  The L2 sizes
follow the ``pulse`` benchmark workload: a 4001-point k grid and a
2001-point time grid; ``scatter_on_grid`` also runs at the 20,001 points
of a CLI sweep.  The non-uniform
grid takes the direct sum, so it measures the path the factored sum
replaces on uniform grids; the coarse time grid spreads its 2001 t over one
period 2 pi / (c dk), the worst case of the lattice route on a uniform grid,
where each t needs nearly 20 node sums of its own.  The ODE oracle runs at a ramp width of L/100,
the narrowest that ``verify --level full`` uses for the source integral,
and on the two ramp-width sequences of ``verify --level full``, each in one
stacked call; ``oracle.verify`` runs at both levels on
``configs/two_resonances.json``.
L0 and L3 time a fresh interpreter, nine rounds each: ``import qslab.cli``,
and ``python -m qslab <command>`` on ``configs/single_resonance.json`` at
small fixed sizes, with ``verify`` at its quick level and once more at its
full level, and ``pulse`` once more at the workload's 4001 k x 2001 t.
That ``pulse`` also runs in process through ``cli.main``, as a perfbench
job does, where a change of a few ms is not lost in start-up.
``record.py`` runs this file on two checkouts in alternation.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qslab import cli
from qslab.config import load_medium_config, write_pulse_file
from qslab.medium import (
    BandKind, MediumSpec, OscillatorSpecies, band_edges, dispersion_omega_of_k, refractive_index,
)
from qslab.oracle import SmoothedProfile, ode_scatter, source_integral_check, transfer_matrix_rt, verify
from qslab.quantum_io import PulseSpectrum, detection_rate, gaussian_pulse, s_matrix
from qslab.slab import greens_function, mode_function, scatter_coefficients, scatter_on_grid

MEDIUM = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),))  # absorption band (0.9, 1.0)
TWO_SPECIES = MediumSpec(species=(OscillatorSpecies(1.0, 0.1), OscillatorSpecies(2.0, 0.3)))
OMEGA = 1.5  # transmission band of TWO_SPECIES, between the two gaps
FLANK = 1.0 + 2e-9  # just above MEDIUM's resonance, n0 ~ 1.5e-4
K_POINTS = 4001
T_POINTS = 2001
ROOT = Path(__file__).resolve().parents[1]


def test_refractive_index(benchmark):
    assert benchmark(refractive_index, TWO_SPECIES, OMEGA).band_kind is BandKind.TRANSMISSION


def test_band_edges(benchmark):
    # a medium bisects its edges when it is built, so each call builds a fresh one
    species = (OscillatorSpecies(1.0, 0.1), OscillatorSpecies(2.0, 0.3), OscillatorSpecies(3.5, 0.8))
    edges = benchmark(lambda: band_edges(MediumSpec(species=species)))
    assert 0.0 < edges[0] < 1.0 < edges[1] < 2.0 < edges[2] < 3.5


def test_dispersion_omega_of_k(benchmark):
    assert len(benchmark(dispersion_omega_of_k, TWO_SPECIES, OMEGA)) == 3


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
    """A Gaussian across the 0.9 band edge, on a jittered k grid or else a uniform one."""
    pulse = gaussian_pulse(0.95, 0.05, points=K_POINTS)
    if grid != "nonuniform":
        return pulse
    k = pulse.k_grid.copy()
    k[1:-1] += 0.25 * (k[1] - k[0]) * np.sin(np.arange(1, K_POINTS - 1))
    return PulseSpectrum(k, pulse.f_values)


@pytest.mark.parametrize("grid", ["uniform", "nonuniform", "coarse"])
def test_detection_rate(benchmark, grid):
    pulse = _pulse(grid)
    if grid == "coarse":
        # the lattice route's worst case: t spread over one period 2 pi / (c dk),
        # so that each t's 20 interpolation nodes are nearly all its own
        dk = pulse.k_grid[1] - pulse.k_grid[0]
        t = 2.0 * np.pi / (MEDIUM.c * dk) * np.arange(T_POINTS) / T_POINTS
    else:
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


def test_ode_scatter_delta_sequence(benchmark):
    # the four ramp widths of verify's ode_delta_convergence, largest first
    profiles = [SmoothedProfile.for_medium(MEDIUM, 0.5, MEDIUM.half_length_L / d) for d in (10, 30, 100, 300)]
    refl, trans = benchmark(ode_scatter, profiles, 0.5)
    assert np.abs(np.abs(refl) ** 2 + np.abs(trans) ** 2 - 1.0).max() < 1e-8


def test_source_integral_sequence(benchmark):
    # the three ramp widths of verify's source checks, largest first
    length = MEDIUM.half_length_L
    profiles = [SmoothedProfile.resonance(length, length / d) for d in (10, 30, 100)]
    integrals = benchmark(source_integral_check, profiles, MEDIUM.resonances()[0])
    assert (np.diff(np.abs(integrals)) < 0.0).all()


@pytest.mark.parametrize("level", ["quick", "full"])
def test_oracle_verify(benchmark, level):
    # in process, so the 0.6 s scipy import of an L3 verify run does not hide it
    medium, _ = load_medium_config(ROOT / "configs" / "two_resonances.json")
    entries = benchmark(verify, medium, level)
    assert {e["name"]: e["verdict"] for e in entries}["smatrix_unitarity"] == "PASS"


CONFIG = ROOT / "configs" / "single_resonance.json"
GRID = ["--omega-min", "0.05", "--omega-max", "2", "--points", "2001"]
CLI_ARGS = {
    "index": GRID,
    "scatter": GRID,
    "bands": ["--omega-max", "3"],
    "greens": ["--omega", "0.95", "--x-min", "-2", "--x-max", "2", "--x-points", "21",
               "--src-min", "-1", "--src-max", "1", "--src-points", "21"],
    "pulse": ["--detector-x", "4", "--t-min", "0", "--t-max", "80", "--points", "201"],
    "verify": ["--level", "quick"],
}


def _fresh_interpreter(benchmark, argv: list[str], exit_codes=(0,)) -> None:
    proc = benchmark.pedantic(subprocess.run, args=([sys.executable, *argv],),
                              kwargs={"capture_output": True}, rounds=9, iterations=1)
    assert proc.returncode in exit_codes, proc.stderr


def test_import_qslab_cli(benchmark):
    _fresh_interpreter(benchmark, ["-c", "import qslab.cli"])


def _cli_command(benchmark, tmp_path, command: str, extra: list[str], pulse_points: int = 401,
                 exit_codes=(0,)) -> None:
    if command == "pulse":
        pulse_path = tmp_path / "pulse.csv"
        write_pulse_file(pulse_path, gaussian_pulse(0.95, 0.05, points=pulse_points))
        extra = ["--pulse", str(pulse_path), *extra]
    out = tmp_path / "out"
    _fresh_interpreter(benchmark, ["-m", "qslab", command, "--config", str(CONFIG),
                                   "--out", str(out), "--no-timestamp", *extra], exit_codes)
    assert out.stat().st_size > 0


@pytest.mark.parametrize("command", list(CLI_ARGS))
def test_cli_command(benchmark, tmp_path, command):
    _cli_command(benchmark, tmp_path, command, CLI_ARGS[command])


def test_cli_pulse_at_workload_size(benchmark, tmp_path):
    # the pulse workload's 4001 k x 2001 t, where the detection sum, the pulse
    # file and the CSV table are a visible share of the run, not only start-up
    extra = ["--detector-x", "4", "--t-min", "0", "--t-max", "80", "--points", str(T_POINTS)]
    _cli_command(benchmark, tmp_path, "pulse", extra, pulse_points=K_POINTS)


def test_cli_pulse_in_process(benchmark, tmp_path):
    # the pulse workload's command in this process, as a perfbench pulse job
    # runs it: a fresh interpreter's start-up spread hides a 10 ms change
    pulse_path, out = tmp_path / "pulse.csv", tmp_path / "out.csv"
    write_pulse_file(pulse_path, gaussian_pulse(0.95, 0.05, points=K_POINTS))
    argv = ["pulse", "--config", str(CONFIG), "--pulse", str(pulse_path), "--out", str(out),
            "--no-timestamp", "--detector-x", "4", "--t-min", "0", "--t-max", "80",
            "--points", str(T_POINTS)]
    assert benchmark(cli.main, argv) == 0
    assert out.stat().st_size > 0


def test_cli_verify_full(benchmark, tmp_path):
    # the quick level solves no ODE; the full level adds the oracle's ODE
    # passes.  Exit 1 is a FAIL verdict (source_decay_ratio, ROADMAP's known
    # red), a valid report.
    _cli_command(benchmark, tmp_path, "verify", ["--level", "full"], exit_codes=(0, 1))
