"""Classical scattering from the uniform dielectric slab on [-L, L].

Reflection/transmission coefficients, the three-region mode functions for
left and right incidence, and the outgoing-wave Green's function built from
the two mode functions.

The textbook coefficient expressions contain sin/cos of the complex interior
phase 2*kappa*L, which overflow deep inside absorption bands.  Everything
here is evaluated with the growing exponential factored out, so only the
bounded factor P = exp(2i*kappa*L) (|P| <= 1 for decaying evanescent waves)
ever appears.  One closed form covers every frequency, the bare resonances
(where the interior index vanishes) included.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleDivergentFrequency
from .medium import BandKind, MediumSpec, _check_omega, _index, _pairs, refractive_index

REGION_I = "I"
REGION_II = "II"
REGION_III = "III"

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class ScatterSolution:
    """Scattering data at one frequency.

    R and T are the reflection and transmission coefficients and n0 the
    interior index.
    """

    omega: float
    k: float
    n0: complex
    R: complex
    T: complex


@dataclass(frozen=True)
class ModeFunctionSample:
    x: float
    value: complex
    derivative: complex
    region: str


@dataclass(frozen=True)
class GreensValue:
    x: float
    x_src: float
    value: complex
    derivative: complex | None = None


def resonance_coefficients(omega: float, half_length_L: float, c: float = 1.0) -> tuple[complex, complex]:
    """R and T in the zero-index limit reached at each bare resonance.

        T = c e^{-2i omega L / c} / (c - i omega L)
        R = i omega L e^{-2i omega L / c} / (c - i omega L)

    |R|^2 + |T|^2 = 1 holds algebraically.  ``c`` defaults to scaled units.
    """
    _check_omega(omega)
    refl, trans, _ = _closed_form(omega * half_length_L / c, 0j)
    return refl, trans


def _closed_form(w: float, n0: complex) -> tuple[complex, complex, complex]:
    """(R, T, D) at w = omega L / c for interior index n0.

    The one scalar closed form behind every R and T.  With P = exp(2i n0 w),
    q = P - 1 and s = q / n0 (2i w at a bare resonance, n0 = 0),
    R = (1 - n0^2) s (2 + q) e^{-2iw} / D and T = 4 e^{-2iw} P / D, where
    D = (2 + (n0-1) s)(2 - (n0-1) q) is the textbook denominator
    (n0+1)^2 - (n0-1)^2 P^2 over n0.  n0 w is real or imaginary, so q comes
    from expm1 or sines and no factor of D cancels as n0 -> 0.
    """
    kappa = n0 * w
    if kappa.imag:
        q = math.expm1(-2.0 * kappa.imag)
    else:
        sin_a = math.sin(kappa.real)
        q = complex(-2.0 * sin_a * sin_a, math.sin(2.0 * kappa.real))
    s = q / n0 if n0 else 2j * w
    D = (2.0 + (n0 - 1.0) * s) * (2.0 - (n0 - 1.0) * q)
    E2 = cmath.exp(-2j * w)
    return (1.0 - n0 * n0) * s * (2.0 + q) * E2 / D, 4.0 * E2 * cmath.exp(2j * kappa) / D, D


def _pole_divergent(omega: float) -> PoleDivergentFrequency:
    return PoleDivergentFrequency(
        f"omega={omega} sits exactly on a band-edge index pole; "
        "sample band interiors instead"
    )


class _SlabWave:
    """Evaluator for u_left, and through the mirror u_right, at one frequency.

    Works in units where c = 1 and L = 1 (w = omega L / c, positions x / L);
    the owning functions convert positions and derivatives at the boundary.  The slab is mirror
    symmetric, so right incidence is left incidence at -x:
    u_r(x) = u_l(-x) and u_r'(x) = -u_l'(-x).  All region-II expressions keep
    every exponential bounded for Im(kappa) >= 0.
    """

    def __init__(self, medium: MediumSpec, omega: float):
        index = refractive_index(medium, omega)
        if index.band_kind is BandKind.POLE_DIVERGENT:
            raise _pole_divergent(omega)
        w, n0 = omega * medium.half_length_L / medium.c, index.n
        self.w = w  # omega L / c, the vacuum wavenumber in units of 1/L
        self.n0 = n0
        self.kappa = n0 * w
        self.R, self.T, self.D = _closed_form(w, n0)

    def region(self, x: float) -> str:
        if x < -1.0:
            return REGION_I
        if x > 1.0:
            return REGION_III
        return REGION_II

    def interior(self, x: float) -> tuple[complex, complex]:
        """u_left and du_left/dx inside the slab, -1 <= x <= 1 (scaled)."""
        n0, kap = self.n0, self.kappa
        E1 = cmath.exp(-1j * self.w)
        ea = cmath.exp(1j * kap * (x + 1.0))
        eb = cmath.exp(1j * kap * (3.0 - x))
        pref = 2.0 * E1 / self.D
        value = pref * ((n0 + 1.0) * ea - (n0 - 1.0) * eb)
        deriv = 1j * kap * pref * ((n0 + 1.0) * ea + (n0 - 1.0) * eb)
        return value, deriv

    def sample(self, side: str, x: float) -> tuple[complex, complex, str]:
        """(u, du/dx, region) at scaled position x; seams evaluate as region II."""
        if side == RIGHT:
            value, deriv, _ = self.sample(LEFT, -x)
            return value, -deriv, self.region(x)
        region = self.region(x)
        w = self.w
        if region == REGION_II:
            value, deriv = self.interior(x)
            return value, deriv, region
        ep = cmath.exp(1j * w * x)
        if region == REGION_I:
            em = cmath.exp(-1j * w * x)
            return ep + self.R * em, 1j * w * (ep - self.R * em), region
        return self.T * ep, 1j * w * self.T * ep, region

    def greens(self, lo: float, hi: float) -> tuple[complex, complex, complex]:
        """G and its derivatives in x_> = hi and x_< = lo, scaled, for lo <= hi.

        G = u_l(hi) u_r(lo) / (2i w T) is never divided by T, which underflows
        in deep gaps.  Right of the slab u_l(hi)/T = e^{i w hi}; a pair with
        x_< left of the slab is evaluated as its mirror image; and with both
        points inside, the product is expanded so that every exponent is
        i kappa times a non-negative number.
        """
        if lo < -1.0 and hi <= 1.0:
            value, d_hi, d_lo = self.greens(-hi, -lo)
            return value, -d_lo, -d_hi
        w = self.w
        scale = 1.0 / (2j * w)
        if hi <= 1.0:
            n0, kap = self.n0, self.kappa
            e1 = cmath.exp(1j * kap * (hi - lo))
            e2 = cmath.exp(1j * kap * (2.0 + hi + lo))
            e3 = cmath.exp(1j * kap * (2.0 - hi - lo))
            e4 = cmath.exp(1j * kap * (4.0 - hi + lo))
            a, b, c = (n0 + 1.0) ** 2, n0 * n0 - 1.0, (n0 - 1.0) ** 2
            pref = scale / self.D
            value = pref * (a * e1 - b * (e2 + e3) + c * e4)
            d_hi = 1j * kap * pref * (a * e1 - b * (e2 - e3) - c * e4)
            d_lo = 1j * kap * pref * (-a * e1 - b * (e2 - e3) + c * e4)
            return value, d_hi, d_lo
        f = cmath.exp(1j * w * hi)
        df = 1j * w * f
        g, dg, _ = self.sample(RIGHT, lo)
        return scale * f * g, scale * df * g, scale * f * dg


def scatter_coefficients(medium: MediumSpec, omega: float) -> ScatterSolution:
    """Solve the slab scattering problem at one frequency.

    Field matching (continuous u and continuous u'/n^2 across x = +/-L)
    yields, with kappa = n0 omega/c and D = 2 n0 cos(2 kappa L)
    - i (n0^2+1) sin(2 kappa L):

        R = -i (n0^2 - 1) sin(2 kappa L) e^{-2ikL} / D
        T = 2 n0 e^{-2ikL} / D

    |R|^2 + |T|^2 = 1 at every real frequency, inside absorption bands where
    kappa is imaginary and at bare resonances (n0 = 0) alike: one factored
    form (``_closed_form``) evaluates them all, with no resonance case.

    Raises
    ------
    PoleDivergentFrequency
        Exactly at a band-edge pole of the refractive index.
    """
    wave = _SlabWave(medium, omega)
    return ScatterSolution(
        omega=omega,
        k=omega / medium.c,
        n0=wave.n0,
        R=wave.R,
        T=wave.T,
    )


def _scatter_point(
    omega: float, length: float, c: float, pairs: tuple[tuple[float, float], ...]
) -> tuple[complex, complex, complex]:
    """(R, T, n0) at one frequency, for species from ``_pairs``.

    The per-frequency step that ``scatter_on_grid`` and ``s_matrix`` share:
    check omega, classify and index it, reject an index pole, then the
    closed form at w = omega L / c (``length`` is L); bitwise the R and T of
    ``scatter_coefficients``.
    """
    _check_omega(omega)
    n0, kind = _index(omega, pairs)
    if kind is BandKind.POLE_DIVERGENT:
        raise _pole_divergent(omega)
    refl, trans, _ = _closed_form(omega * length / c, n0)
    return refl, trans, n0


def scatter_on_grid(medium: MediumSpec, omegas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R, T and the interior index n0 at every frequency of ``omegas``.

    Bitwise equal to ``scatter_coefficients`` (and n0 to ``refractive_index``)
    point by point, through the same scalar closed form, but the species are
    unpacked once and no per-point result objects are built.

    Raises
    ------
    PoleDivergentFrequency
        If a frequency sits exactly on a band-edge index pole.
    """
    omegas = np.asarray(omegas, dtype=float)
    pairs, length, c = _pairs(medium), medium.half_length_L, medium.c
    refl = np.empty(omegas.shape, dtype=complex)
    trans = np.empty(omegas.shape, dtype=complex)
    index = np.empty(omegas.shape, dtype=complex)
    for j, omega in enumerate(omegas.tolist()):
        refl[j], trans[j], index[j] = _scatter_point(omega, length, c, pairs)
    return refl, trans, index


def mode_function(medium: MediumSpec, omega: float, side: str, x: float) -> ModeFunctionSample:
    """Evaluate the scattering mode function u(x) and its derivative.

    ``side`` selects incidence from the ``"left"`` (unit wave moving right)
    or ``"right"``.  Positions exactly at the seams x = +/-L return the
    region-II values.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    wave = _SlabWave(medium, omega)
    L = medium.half_length_L
    value, deriv, region = wave.sample(side, x / L)
    return ModeFunctionSample(x=x, value=value, derivative=deriv / L, region=region)


def greens_function(
    medium: MediumSpec,
    omega: float,
    x: float,
    x_src: float,
    with_derivative: bool = False,
) -> GreensValue:
    """Outgoing-wave Green's function of the slab Helmholtz problem.

    G(x, x') = u_left(x_>) u_right(x_<) / (2 i omega c T), which satisfies
    d/dx[(c^2/n^2) dG/dx] + omega^2 G = delta(x - x'), radiates outward at
    +/-infinity, and is symmetric under x <-> x'.  The derivative (optional)
    is with respect to ``x``; it is undefined at x = x_src and rejected there.
    """
    wave = _SlabWave(medium, omega)
    L = medium.half_length_L
    xs, ss = x / L, x_src / L
    value, d_hi, d_lo = wave.greens(*sorted((xs, ss)))
    value *= L / medium.c**2
    if not with_derivative:
        return GreensValue(x=x, x_src=x_src, value=value)
    if xs == ss:
        raise ValueError("the Green's-function derivative is undefined at x == x_src")
    deriv_scaled = d_hi if xs > ss else d_lo
    return GreensValue(x=x, x_src=x_src, value=value, derivative=deriv_scaled / medium.c**2)
