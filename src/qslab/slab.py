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

from .errors import PoleDivergentFrequency, RangeError
from .medium import BandKind, MediumSpec, _bracket, _check_omega, _pairs, refractive_index

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
    refl, trans, _ = _closed_form(omega, half_length_L, c, 0j)
    return refl, trans


def _closed_form(omega: float, length: float, c: float, n0: complex) -> tuple[complex, complex, complex]:
    """(R, T, D) at w = omega L / c (``length`` is L) for interior index n0.

    The one scalar closed form behind every R and T.  With P = exp(2i n0 w),
    q = P - 1 and s = q / n0 (2i w at a bare resonance, n0 = 0),
    R = (1 - n0^2) s (2 + q) e^{-2iw} / D and T = 4 e^{-2iw} P / D, where
    D = (2 + (n0-1) s)(2 - (n0-1) q) is the textbook denominator
    (n0+1)^2 - (n0-1)^2 P^2 over n0.  n0 w is real or imaginary, so q comes
    from expm1 or sines and no factor of D cancels as n0 -> 0.
    The phases reach 2w here and 4 |n0| w in ``_SlabWave.greens``; where
    their sum overflows they would be NaN or a math domain error, so that
    raises ``RangeError`` instead.
    """
    w = omega * length / c
    if not (2.0 + 4.0 * abs(n0)) * w < math.inf:
        raise RangeError(f"omega={omega} with half_length_L={length}: the slab phase "
                         f"(2 + 4 |n0|) omega L / c overflows, with omega L / c = {w}")
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


def _scatter_point(medium: MediumSpec, omega: float) -> tuple[complex, complex, complex, complex]:
    """(R, T, D, n0) at one frequency, ``_closed_form``'s (R, T, D) and the index.

    The one per-frequency step behind every scalar R and T: ``_SlabWave``,
    ``scatter_coefficients``, ``quantum_io.s_matrix`` and the frequencies
    that ``scatter_on_grid`` rejects.  It checks omega and indexes it
    through ``refractive_index``, and rejects an index pole here, the one
    place that does.
    """
    index = refractive_index(medium, omega)
    if index.band_kind is BandKind.POLE_DIVERGENT:
        raise PoleDivergentFrequency(
            f"omega={omega} sits exactly on a band-edge index pole; sample band interiors instead"
        )
    return (*_closed_form(omega, medium.half_length_L, medium.c, index.n), index.n)


class _SlabWave:
    """Evaluator for u_left, and through the mirror u_right, at one frequency.

    Works in units where c = 1 and L = 1 (w = omega L / c, positions x / L);
    the owning functions convert positions and derivatives at the boundary.  The slab is mirror
    symmetric, so right incidence is left incidence at -x:
    u_r(x) = u_l(-x) and u_r'(x) = -u_l'(-x).  All region-II expressions keep
    every exponential bounded for Im(kappa) >= 0.
    """

    def __init__(self, medium: MediumSpec, omega: float):
        self.R, self.T, self.D, self.n0 = _scatter_point(medium, omega)
        self.w = omega * medium.half_length_L / medium.c  # the vacuum wavenumber in units of 1/L
        self.kappa = self.n0 * self.w

    def check_phase(self, name: str, position: float, x: float) -> None:
        """Raise ``RangeError`` where the vacuum phase w x at scaled position x is not finite.

        Outside the slab the waves carry e^{+/-i w x}, which would be NaN or a
        math domain error there; inside, ``_closed_form`` has bounded the phases.
        """
        if not self.w * abs(x) < math.inf:
            raise RangeError(f"{name}={position}: the phase omega x / c overflows, "
                             f"with omega L / c = {self.w}")

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
    refl, trans, _, n0 = _scatter_point(medium, omega)
    return ScatterSolution(omega=omega, k=omega / medium.c, n0=n0, R=refl, T=trans)


# Frequencies per block of ``scatter_on_grid``: the kernel's numpy
# temporaries are rows of this length, so its memory does not grow with the grid.
GRID_BLOCK = 1024


def _scatter_block(omega: np.ndarray, length: float, c: float, pairs: tuple[tuple[float, float], ...]):
    """(R, T, n0, bad): ``_scatter_point`` at each frequency of ``omega``, in numpy.

    n0 comes from ``_bracket`` on the array.  Real subtractions, products,
    quotients and square roots round as Python's floats do, so n0 is bitwise
    ``refractive_index``'s.  R and T are ``_closed_form``'s expression in numpy's
    complex arithmetic, with q = expm1(2i kappa), which numpy forms as
    (-2 sin^2 kappa, sin 2 kappa) for real kappa and expm1(-2 Im kappa) for
    imaginary kappa, as the scalar form does; at a bare resonance s = 2i w.
    ``bad`` marks each frequency that the scalar kernel rejects or might
    reject: one that is not positive, a slab phase that is not finite (an
    overflow, ``RangeError``, or an index pole, where |n0| = inf), or a
    result that is not finite (what a non-finite bracket gives).
    """
    resonance = np.isin(omega, [w_res for w_res, _ in pairs])
    bracket = _bracket(omega, pairs)
    root = 1.0 / np.sqrt(np.abs(bracket))
    negative = bracket < 0.0
    n0 = np.zeros(omega.shape, dtype=complex)
    n0.real = np.where(negative, 0.0, root)
    n0.imag = np.where(negative, root, 0.0)
    n0[resonance] = 0.0
    w = omega * length / c
    kappa = n0 * w
    q = np.expm1(2j * kappa)
    # quotients as a reciprocal times a product: numpy's complex division
    # loop is 64 kB of code pages that no other step of a pulse job touches
    s = np.where(resonance, 2j * w, np.reciprocal(n0) * q)
    inv_D = np.reciprocal((2.0 + (n0 - 1.0) * s) * (2.0 - (n0 - 1.0) * q))
    E2 = np.exp(-2j * w)
    refl = (1.0 - n0 * n0) * s * (2.0 + q) * E2 * inv_D
    trans = np.exp(2j * kappa) * E2 * 4.0 * inv_D
    bad = ~((0.0 < omega) & ((2.0 + 4.0 * np.abs(n0)) * w < math.inf) & np.isfinite(refl) & np.isfinite(trans))
    return refl, trans, n0, bad


def scatter_on_grid(medium: MediumSpec, omegas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R, T and the interior index n0 at every frequency of ``omegas``.

    n0 is bitwise ``refractive_index``'s, and R and T are within
    4 eps (1 + |n0|) of ``scatter_coefficients``'s, point by point (eps is
    the float epsilon): the same closed form in numpy's complex arithmetic,
    which rounds differently from Python's.  The grid is taken GRID_BLOCK
    frequencies at a time as plain numpy expressions (``_scatter_block``),
    so the kernel's memory does not grow with the grid.  Each frequency the
    scalar kernel rejects or might reject goes through the scalar kernel, in
    grid order, so the first rejected frequency raises what the scalar
    kernel raises there.

    Raises
    ------
    PoleDivergentFrequency
        If a frequency sits exactly on a band-edge index pole.
    """
    omegas = np.asarray(omegas, dtype=float)
    pairs, length, c = _pairs(medium), medium.half_length_L, medium.c
    refl, trans, index = (np.empty(omegas.shape, dtype=complex) for _ in range(3))
    with np.errstate(all="ignore"):
        for lo in range(0, omegas.size, GRID_BLOCK):
            part = slice(lo, lo + GRID_BLOCK)
            refl[part], trans[part], index[part], bad = _scatter_block(omegas[part], length, c, pairs)
            for j in (lo + np.flatnonzero(bad)).tolist():
                refl[j], trans[j], _, index[j] = _scatter_point(medium, omegas.item(j))
    return refl, trans, index


def mode_function(medium: MediumSpec, omega: float, side: str, x: float) -> ModeFunctionSample:
    """Evaluate the scattering mode function u(x) and its derivative.

    ``side`` selects incidence from the ``"left"`` (unit wave moving right)
    or ``"right"``.  Positions exactly at the seams x = +/-L return the
    region-II values.  A position whose phase omega x / c overflows raises
    ``RangeError``.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    wave = _SlabWave(medium, omega)
    L = medium.half_length_L
    xs = float(x) / L
    wave.check_phase("x", x, xs)
    value, deriv, region = wave.sample(side, xs)
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
    A position whose phase omega x / c overflows raises ``RangeError``.
    """
    wave = _SlabWave(medium, omega)
    L = medium.half_length_L
    xs, ss = float(x) / L, float(x_src) / L
    wave.check_phase("x", x, xs)
    wave.check_phase("x_src", x_src, ss)
    value, d_hi, d_lo = wave.greens(*sorted((xs, ss)))
    value *= L / medium.c**2
    if not with_derivative:
        return GreensValue(x=x, x_src=x_src, value=value)
    if xs == ss:
        raise ValueError("the Green's-function derivative is undefined at x == x_src")
    deriv_scaled = d_hi if xs > ss else d_lo
    return GreensValue(x=x, x_src=x_src, value=value, derivative=deriv_scaled / medium.c**2)
