"""Quantum input-output layer: per-frequency S-matrix and pulse photodetection.

The scattering relates in- and out-mode annihilation operators through the
unitary, symmetric matrix [[T, R], [R, T]] at each frequency.  Because the
model is linear and the map unitary, coherent-state amplitudes transform
classically and carry complete information for the implemented observables;
normal-ordered detection correlators reduce to squared classical amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DetectorInsideMedium
from .medium import MediumSpec, _pairs, pole_adjacent
from .slab import _scatter_point, scatter_on_grid

HBAR = 1.054571817e-34  # J s
EPSILON_0 = 8.8541878128e-12  # F/m

PREFACTOR_NORMALIZED = "normalized"
PREFACTOR_PHYSICAL = "physical"

# Pole-adjacent grid frequencies are nudged into the band interior by this
# relative amount; the pole set has measure zero.
POLE_NUDGE = 1e-8

UNITARITY_TOL = 1e-12

# A k grid counts as uniform when no point lies further than this times the
# largest k from k_0 + j dk; the phase error that admits is of the order of
# the direct sum's own rounding of k c t.
UNIFORM_GRID_TOL = 8 * np.finfo(float).eps

# The factored detection sum takes as many t points at a time as keep its
# phase arrays to this many complex values (64 kB), so its memory does not
# grow with the time grid.  The sum ran at the same speed with budgets from
# 2**12 to 2**15; larger ones only raised the peak memory of a pulse run.
DETECTION_BLOCK_VALUES = 2**12


@dataclass(frozen=True)
class SMatrix:
    """Unitary 2x2 map [[T, R], [R, T]] from (a_{+k}, a_{-k}) in-amplitudes to out-amplitudes.

    The slab is mirror symmetric, so T and R fix the whole matrix; ``matrix``
    builds it on demand.  ``unitarity_defect`` is max |S^dagger S - 1| over
    the entries, as ``s_matrix`` measured it when it checked the matrix.
    """

    omega: float
    T: complex
    R: complex
    unitarity_defect: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.T, self.R], [self.R, self.T]], dtype=complex)


@dataclass(frozen=True)
class PulseSpectrum:
    """Complex spectral amplitude f(k) sampled on an ascending positive k grid.

    f is used as-is: sum |f|^2 dk sets the photon-number scale, and no
    implicit normalization is applied.
    """

    k_grid: np.ndarray
    f_values: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.k_grid, dtype=float)
        f = np.asarray(self.f_values, dtype=complex)
        if k.ndim != 1 or k.size < 2:
            raise ValueError("k_grid must be a 1-D array with at least two points")
        if f.shape != k.shape:
            raise ValueError("f_values must match k_grid in shape")
        if not np.all(k > 0.0):
            raise ValueError("all k_grid entries must be positive (f vanishes for k < 0)")
        if not np.all(np.diff(k) > 0.0):
            raise ValueError("k_grid must be strictly ascending")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(f.real)) and np.all(np.isfinite(f.imag))):
            raise ValueError("pulse spectrum contains non-finite entries")
        object.__setattr__(self, "k_grid", k)
        object.__setattr__(self, "f_values", f)

    def trapezoid_weights(self) -> np.ndarray:
        k = self.k_grid
        w = np.empty_like(k)
        w[0] = 0.5 * (k[1] - k[0])
        w[-1] = 0.5 * (k[-1] - k[-2])
        w[1:-1] = 0.5 * (k[2:] - k[:-2])
        return w


@dataclass(frozen=True)
class DetectionTrace:
    """Photodetection rate versus time at a fixed detector position.

    ``budget`` is the pulse's k-space energy budget, as ``energy_budget``
    returns it, from the same T and R the rate was built on.
    """

    detector_x: float
    t_grid: np.ndarray
    rate_values: np.ndarray
    prefactor_mode: str
    nudged_frequencies: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    budget: dict[str, float] = field(default_factory=dict)


def s_matrix(medium: MediumSpec, omega: float) -> SMatrix:
    """Assemble the S-matrix [[T, R], [R, T]] at one frequency.

    Unitarity is checked at construction; it holds at every real frequency,
    including inside the band gaps where the interior field is evanescent.
    """
    refl, trans, _ = _scatter_point(omega, medium.half_length_L, medium.c, _pairs(medium))
    # the entries of S^dagger S - 1: |T|^2 + |R|^2 - 1 and 2 Re(conj(T) R)
    defect = max(
        abs(abs(trans) ** 2 + abs(refl) ** 2 - 1.0), abs(2.0 * (trans.conjugate() * refl).real)
    )
    if defect > UNITARITY_TOL:
        raise ArithmeticError(
            f"S-matrix unitarity defect {defect:.3e} exceeds {UNITARITY_TOL} at omega={omega}"
        )
    return SMatrix(omega=omega, T=trans, R=refl, unitarity_defect=defect)


def transform_coherent(s: SMatrix, alpha_in: tuple[complex, complex]) -> tuple[complex, complex]:
    """Scatter a coherent amplitude pair; the total mean photon flux is conserved."""
    out = s.matrix @ np.asarray(alpha_in, dtype=complex)
    return complex(out[0]), complex(out[1])


def coefficients_on_grid(
    medium: MediumSpec, k_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[float, float], ...]]:
    """T(ck) and R(ck) on a wavenumber grid, nudging pole-adjacent points.

    Returns (T array, R array, ((k, nudged omega), ...)).  Frequencies within
    the resonance tolerance of a band-edge index pole are shifted down by a
    1e-8 relative amount, away from the resonance above the edge and into the
    transmission band below it, and recorded.  The side does not depend on
    which side of the computed edge a point falls.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    omegas = medium.c * k_grid
    hit = pole_adjacent(medium, omegas)
    omegas[hit] *= 1.0 - POLE_NUDGE
    r_vals, t_vals, _ = scatter_on_grid(medium, omegas)
    nudged = tuple(zip(k_grid[hit].tolist(), omegas[hit].tolist()))
    return t_vals, r_vals, nudged


def _prefactor(medium: MediumSpec, mode: str) -> float:
    if mode == PREFACTOR_NORMALIZED:
        return 1.0
    if mode == PREFACTOR_PHYSICAL:
        if medium.unit_mode != "SI":
            raise ValueError("the physical detection prefactor requires unit_mode='SI'")
        return HBAR * medium.c * EPSILON_0 / (4.0 * np.pi * medium.cross_section_A)
    raise ValueError(f"unknown prefactor_mode {mode!r}")


def _uniform_step(k: np.ndarray) -> float | None:
    """dk if every k_j is within UNIFORM_GRID_TOL * max k of k_0 + j dk, else None."""
    dk = (k[-1] - k[0]) / (k.size - 1)
    drift = np.abs(k - (k[0] + np.arange(k.size) * dk)).max()
    return dk if drift <= UNIFORM_GRID_TOL * k[-1] else None


def _detection_amplitudes(base: np.ndarray, k: np.ndarray, c: float, t_grid: np.ndarray) -> np.ndarray:
    """sum_j base_j e^{-i k_j c t} at every t of t_grid.

    On a uniform grid the sum factors: with s = c t, j = a b + r and
    b = ceil(sqrt(N)), e^{-i k_j s} = e^{-i k_0 s} e^{-i s b dk a} e^{-i s dk r},
    so each t costs about 2 sqrt(N) exponentials and one (a x b)
    matrix-vector product in place of N exponentials.  The grid is taken
    DETECTION_BLOCK_VALUES phases at a time, but each t still gets its own
    matrix-vector product and dot product, so a value depends on its own t
    only and a trace does not depend on how its time grid is split.  Any
    other k grid takes the direct sum, one t at a time.
    """
    dk = _uniform_step(k)
    if dk is None:
        return np.array([np.dot(base, np.exp(-1j * k * c * t)) for t in t_grid], dtype=complex)
    b = math.isqrt(k.size - 1) + 1  # ceil(sqrt(N))
    blocks = np.zeros((-(-k.size // b), b), dtype=complex)  # blocks[a, r] = base[a b + r]
    blocks.flat[: k.size] = base
    rows = np.arange(blocks.shape[0])
    cols = np.arange(b)
    k0 = float(k[0])
    step = max(1, DETECTION_BLOCK_VALUES // (rows.size + cols.size))
    amplitudes = np.empty(t_grid.shape, dtype=complex)
    for lo in range(0, t_grid.size, step):
        s = c * t_grid[lo : lo + step]
        col_phases = np.exp((-1j * (s * dk))[:, None] * cols)
        row_phases = np.exp((-1j * (s * dk * b))[:, None] * rows)
        inner = np.matmul(blocks, col_phases[:, :, None])  # one zgemv per t
        outer = np.matmul(row_phases[:, None, :], inner)[:, 0, 0]  # one dot per t
        phase = np.exp(-1j * (k0 * s))
        # the complex ufunc multiply may round differently from the scalar one
        out = amplitudes[lo : lo + step]
        out.real = phase.real * outer.real - phase.imag * outer.imag
        out.imag = phase.real * outer.imag + phase.imag * outer.real
    return amplitudes


def detection_rate(
    medium: MediumSpec,
    pulse: PulseSpectrum,
    detector_x: float,
    t_grid,
    prefactor_mode: str = PREFACTOR_NORMALIZED,
) -> DetectionTrace:
    """Photodetection rate of a transmitted coherent pulse versus time.

    For a detector in region III the rate is proportional to
    |int dk f(k) T(ck) e^{i k (x - c t)}|^2; the integral is evaluated by the
    trapezoidal rule on the pulse's own k grid (the grid is the caller's
    resolution contract), factored when that grid is uniform (see
    ``_detection_amplitudes``).  The sum is evaluated in blocks over the
    whole time grid, and each t keeps its own matrix-vector product, so a
    trace is bitwise the same however its time grid is split.  Spectral
    components inside absorption bands are suppressed by |T|^2: they are
    reflected, not absorbed.  The trace also carries the pulse's energy
    budget, from the same T and R.
    """
    if not detector_x > medium.half_length_L:
        raise DetectorInsideMedium(
            f"detector_x={detector_x} must lie beyond the slab face at "
            f"x=+{medium.half_length_L}"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    pref = _prefactor(medium, prefactor_mode)
    k = pulse.k_grid
    t_vals, r_vals, nudged = coefficients_on_grid(medium, k)
    base = pulse.trapezoid_weights() * pulse.f_values * t_vals * np.exp(1j * k * detector_x)
    amplitude = _detection_amplitudes(base, k, medium.c, t_grid)
    # float_power rounds as the scalar ** does; the array ** squares instead
    rates = pref * (np.float_power(amplitude.real, 2.0) + np.float_power(amplitude.imag, 2.0))
    return DetectionTrace(
        detector_x=detector_x,
        t_grid=t_grid,
        rate_values=rates,
        prefactor_mode=prefactor_mode,
        nudged_frequencies=nudged,
        budget=_budget(pulse, t_vals, r_vals),
    )


def _budget(pulse: PulseSpectrum, t_vals: np.ndarray, r_vals: np.ndarray) -> dict[str, float]:
    w = pulse.trapezoid_weights()
    f2 = np.abs(pulse.f_values) ** 2
    incident = float(np.sum(f2 * w))
    transmitted = float(np.sum(f2 * np.abs(t_vals) ** 2 * w))
    reflected = float(np.sum(f2 * np.abs(r_vals) ** 2 * w))
    return {"incident": incident, "transmitted": transmitted, "reflected": reflected}


def energy_budget(medium: MediumSpec, pulse: PulseSpectrum) -> dict[str, float]:
    """k-space energy bookkeeping: incident, transmitted and reflected sums.

    Unitarity makes transmitted + reflected equal the incident sum exactly,
    pulse shape by pulse shape.
    """
    t_vals, r_vals, _ = coefficients_on_grid(medium, pulse.k_grid)
    return _budget(pulse, t_vals, r_vals)


def gaussian_pulse(k_center: float, sigma_k: float, points: int = 2001, span: float = 6.0) -> PulseSpectrum:
    """Gaussian spectral envelope on a symmetric grid, clipped to k > 0."""
    if not (k_center > 0.0 and sigma_k > 0.0):
        raise ValueError("k_center and sigma_k must be positive")
    lo = max(k_center - span * sigma_k, 1e-12 * k_center)
    hi = k_center + span * sigma_k
    k = np.linspace(lo, hi, points)
    f = np.exp(-((k - k_center) ** 2) / (2.0 * sigma_k**2))
    return PulseSpectrum(k_grid=k, f_values=f.astype(complex))
