"""Multi-resonance dielectric medium: Sellmeir index, dispersion, band structure.

The medium is a collection of harmonic-oscillator species with bare angular
frequencies Omega_nu and squared-frequency couplings g_nu.  Its refractive
index is

    n(omega) = [1 - sum_nu g_nu / (Omega_nu^2 - omega^2)]^(-1/2),

which is purely real inside transmission bands and purely imaginary inside
absorption bands.  It is a property of the medium alone: every function
here works in the spec's own units (scaled, c = 1, or SI) and none of them
reads the slab's half-length L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import PoleAtResonance, RangeError, RootBracketingFailure

C_LIGHT = 299792458.0  # m/s, used only in SI mode

# Relative half-width of the window around each band edge (index pole) that
# sweeps skip and pulse grids nudge; only ``pole_adjacent`` reads it.
TOL_OMEGA = 1e-9


def pole_adjacent(medium: MediumSpec, omegas) -> np.ndarray:
    """True for each omega that lies in the TOL_OMEGA window of a band edge.

    Frequencies in such a window sit on (or within rounding of) an index
    pole; sweeps skip them and pulse grids nudge them into the band interior.
    """
    omegas = np.asarray(omegas, dtype=float)
    edges = np.asarray(band_edges(medium), dtype=float)
    return np.any(np.abs(omegas[..., None] - edges) < TOL_OMEGA * edges, axis=-1)


# Least 1 - S, S = sum g / Omega^2, that a medium may have.  As S -> 1 the
# lowest band edge falls toward zero frequency, where (Omega - w)(Omega + w)
# rounds to Omega^2, so the bisected edge is off by up to about
# 1.2e-16 / (1 - S) relative (against 40-digit edges of 400 random media,
# 1 to 5 species, scaled and SI units).  At 1 - S = 1e-6 the worst was
# 6.8e-11, well inside the TOL_OMEGA window around the computed edge.
CRITICAL_COUPLING_MARGIN = 1e-6


class BandKind(Enum):
    TRANSMISSION = "transmission"
    ABSORPTION = "absorption"
    RESONANCE_ZERO = "resonance_zero"
    POLE_DIVERGENT = "pole_divergent"


@dataclass(frozen=True)
class OscillatorSpecies:
    """One oscillator species: bare frequency and coupling g = q^2 rho / (m eps0)."""

    omega_res: float
    coupling_g: float

    def __post_init__(self) -> None:
        if not 0.0 < self.omega_res < math.inf:
            raise ValueError(f"omega_res must be positive and finite, got {self.omega_res}")
        if not self.omega_res >= 2.0**-511:
            # below it (Omega - w)(Omega + w) underflows to 0 one ulp from Omega
            raise ValueError(f"omega_res must be at least 2**-511 (about 1.5e-154), got {self.omega_res}")
        if not self.omega_res < 2.0**484:
            # under it a pole term lost where (Omega - w)(Omega + w) overflows is
            # below 2**-56, too small to move the bracket; above it, it is not
            raise ValueError(f"omega_res must be below 2**484 (about 5.0e145), got {self.omega_res}")
        if not 0.0 < self.coupling_g < math.inf:
            raise ValueError(f"coupling_g must be positive and finite, got {self.coupling_g}")
        if not self.coupling_g < self.omega_res**2:
            raise ValueError(
                f"coupling_g={self.coupling_g} must be < omega_res^2="
                f"{self.omega_res**2} (isolated-species band edge must be real)"
            )


@dataclass(frozen=True)
class MediumSpec:
    """Immutable physical model: species, slab half-length, cross-section, units.

    Species are sorted ascending by resonance frequency, and band edges bisected, at construction.
    ``unit_mode`` is ``"scaled"`` (c = 1, all quantities dimensionless) or
    ``"SI"`` (rad/s, meters).  Frequencies are in the spec's units throughout;
    only ``slab`` forms the dimensionless omega L / c.
    """

    species: tuple[OscillatorSpecies, ...] = ()
    half_length_L: float = 1.0
    cross_section_A: float = 1.0
    unit_mode: str = "scaled"

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.species, key=lambda s: s.omega_res))
        object.__setattr__(self, "species", ordered)
        for a, b in zip(ordered, ordered[1:]):
            if not a.omega_res < b.omega_res:
                raise ValueError(
                    f"species resonance frequencies must be strictly distinct, "
                    f"got {a.omega_res} twice"
                )
        strength = sum(s.coupling_g / s.omega_res**2 for s in ordered)
        if not 1.0 - strength >= CRITICAL_COUPLING_MARGIN:
            raise ValueError(
                f"sum(coupling_g / omega_res^2) = {strength} must be at most "
                f"1 - {CRITICAL_COUPLING_MARGIN:g} (as it nears 1 the lowest band edge falls "
                "toward zero frequency, where rounding misplaces it, and at 1 it is gone)"
            )
        if not 0.0 < self.half_length_L < math.inf:
            raise ValueError(f"half_length_L must be positive and finite, got {self.half_length_L}")
        if not 0.0 < self.cross_section_A < math.inf:
            raise ValueError(f"cross_section_A must be positive and finite, got {self.cross_section_A}")
        if self.unit_mode not in ("scaled", "SI"):
            raise ValueError(f"unit_mode must be 'scaled' or 'SI', got {self.unit_mode!r}")
        try:
            self._band_edges
        except RootBracketingFailure as exc:  # an edge within rounding of a resonance
            raise ValueError(
                f"omega_res and coupling_g leave a band edge that bisection cannot isolate: {exc}"
            ) from exc

    @property
    def c(self) -> float:
        """Speed of light in the spec's unit system."""
        return C_LIGHT if self.unit_mode == "SI" else 1.0

    def resonances(self) -> tuple[float, ...]:
        """Bare resonance frequencies, ascending, in the spec's units."""
        return tuple(s.omega_res for s in self.species)

    @cached_property
    def _band_edges(self) -> tuple[float, ...]:
        """The band edges, bisected once at construction and kept: the spec is frozen."""
        return tuple(_secular_roots(_pairs(self)))


@dataclass(frozen=True)
class IndexValue:
    """Complex refractive index at one frequency plus its band classification."""

    n: complex
    band_kind: BandKind


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    kind: BandKind

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"band must have lo < hi, got ({self.lo}, {self.hi})")
        if self.kind not in (BandKind.TRANSMISSION, BandKind.ABSORPTION):
            raise ValueError("bands are transmission or absorption intervals")


def _check_omega(omega: float) -> None:
    """Reject a frequency that is not positive and finite, naming ``omega``."""
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")


def _pairs(medium: MediumSpec) -> tuple[tuple[float, float], ...]:
    """The species as (Omega, g) pairs, the form the scalar kernels loop over."""
    return tuple((s.omega_res, s.coupling_g) for s in medium.species)


def _bracket(omega: float | np.ndarray, pairs: tuple[tuple[float, float], ...]) -> float | np.ndarray:
    """The Sellmeir bracket at a float ``omega``, or elementwise and bitwise the same at an array."""
    # (Omega - w)(Omega + w) instead of Omega^2 - w^2 keeps precision near resonance
    total = 1.0
    for w_res, g in pairs:
        total -= g / ((w_res - omega) * (w_res + omega))
    return total


def sellmeir_bracket(medium: MediumSpec, omega: float) -> float:
    """Evaluate 1 - sum_nu g_nu / (Omega_nu^2 - omega^2).

    Positive inside transmission bands, negative inside absorption bands,
    zero exactly at the band-edge index poles.

    Raises
    ------
    PoleAtResonance
        If ``omega`` equals some Omega_nu, where the sum divides by zero.
    """
    _check_omega(omega)
    if omega in medium.resonances():
        raise PoleAtResonance(f"omega={omega} is a bare resonance Omega_nu")
    return _bracket(omega, _pairs(medium))


def refractive_index(medium: MediumSpec, omega: float) -> IndexValue:
    """Classify ``omega`` and return the complex refractive index there.

    Every positive frequency maps to exactly one of the four band kinds:
    real positive n (transmission), purely imaginary n with Im n > 0
    (absorption, so evanescent waves decay), n = 0 at bare resonances, and
    a divergent-index flag exactly where the Sellmeir bracket vanishes.
    Each resonance is tested for equality first, then ``_bracket``
    classifies the rest, the same bracket that ``slab.scatter_on_grid``
    evaluates on arrays.
    """
    _check_omega(omega)
    pairs = _pairs(medium)
    for w_res, _ in pairs:
        if omega == w_res:
            return IndexValue(n=0j, band_kind=BandKind.RESONANCE_ZERO)
    bracket = _bracket(omega, pairs)
    if bracket > 0.0:
        return IndexValue(n=complex(1.0 / math.sqrt(bracket), 0.0), band_kind=BandKind.TRANSMISSION)
    if bracket < 0.0:
        return IndexValue(n=complex(0.0, 1.0 / math.sqrt(-bracket)), band_kind=BandKind.ABSORPTION)
    return IndexValue(n=complex(math.inf, 0.0), band_kind=BandKind.POLE_DIVERGENT)


def _secular_roots(pairs: tuple[tuple[float, float], ...], kc: float = math.inf) -> list[float]:
    """Roots of phi(w) = bracket(w) - (w/kc)^2, one per interval between poles.

    Between consecutive poles 0 < Omega_1 < ... < Omega_N phi falls strictly
    from + (phi(0+) = 1 - sum g/Omega^2 > 0, as ``MediumSpec`` enforces) to -.
    With 1/k = 0 the N roots are the band edges; for finite k an interval up
    to sqrt(Omega_N^2 + (kc)^2 + sum g), where phi < 0, adds the highest of the
    N + 1 dispersion branches.  Each interval is halved, never evaluating its
    ends, until no float lies between them: that isolated sign change is the
    one acceptance rule for edges and branches alike.  An end at a pole that
    never moves means no sign change was isolated.  The midpoint
    0.5 a + 0.5 b stays finite up to the largest float, and the phase term
    q * q, q = w / kc, rounds to inf where float ``**`` would raise, so every
    ``kc`` in (0, inf] gives roots or ``RootBracketingFailure``.
    """
    inv_k = 1.0 / kc
    lows = [0.0] + [w_res for w_res, _ in pairs]
    highs = lows[1:]
    if inv_k:
        highs.append(math.hypot(lows[-1], kc, math.sqrt(sum(g for _, g in pairs))))
    roots = []
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        a, b = lo, hi
        while a < (mid := 0.5 * a + 0.5 * b) < b:
            q = mid * inv_k
            if _bracket(mid, pairs) - q * q > 0.0:
                a = mid
            else:
                b = mid
        if a == lo or (b == hi and i < len(pairs)):
            raise RootBracketingFailure(f"no sign change of phi isolated in ({lo}, {hi}) at kc={kc}")
        roots.append(0.5 * a + 0.5 * b)
    return roots


def band_edges(medium: MediumSpec) -> tuple[float, ...]:
    """Band-edge (index-pole) frequencies: the bracket's root below each resonance (1/k = 0).

    Bisected once per medium, when ``MediumSpec`` is built, which rejects a
    medium whose edges the bisection cannot isolate.
    """
    return medium._band_edges


def band_structure(medium: MediumSpec, omega_max: float) -> list[Band]:
    """Partition (0, omega_max) into ordered, disjoint transmission/absorption bands.

    Each species contributes one absorption band (edge_nu, Omega_nu); the
    complement is transmission.
    """
    resonances = medium.resonances()
    if resonances and not omega_max > resonances[-1]:
        raise ValueError(
            f"omega_max={omega_max} must exceed the largest resonance {resonances[-1]}"
        )
    if not omega_max > 0.0:
        raise ValueError(f"omega_max must be positive, got {omega_max}")
    edges = band_edges(medium)
    bands: list[Band] = []
    lo = 0.0
    for edge, w_res in zip(edges, resonances):
        bands.append(Band(lo, edge, BandKind.TRANSMISSION))
        bands.append(Band(edge, w_res, BandKind.ABSORPTION))
        lo = w_res
    bands.append(Band(lo, omega_max, BandKind.TRANSMISSION))
    return bands


def dispersion_omega_of_k(medium: MediumSpec, k: float) -> list[float]:
    """All positive mode frequencies with wavenumber ``k``.

    Solves omega^2 = (kc)^2 [1 - sum_nu g_nu/(Omega_nu^2 - omega^2)].  There
    is exactly one root per transmission branch (N+1 branches for N species),
    each the root of ``_secular_roots`` in one interval between poles, accepted
    by the same rule as the band edges; roots are returned ascending.  A ``k``
    whose k c is not finite raises ``RangeError``: there 1/(kc) = 0 and the
    bisection would return the N band edges.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    kc = k * medium.c
    if kc == math.inf:
        raise RangeError(f"k={k}: the frequency scale k c is not finite")
    return _secular_roots(_pairs(medium), kc)
