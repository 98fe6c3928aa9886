"""Multi-resonance dielectric medium: Sellmeir index, dispersion, band structure.

The medium is a collection of harmonic-oscillator species with bare angular
frequencies Omega_nu and squared-frequency couplings g_nu.  Its refractive
index is

    n(omega) = [1 - sum_nu g_nu / (Omega_nu^2 - omega^2)]^(-1/2),

which is purely real inside transmission bands and purely imaginary inside
absorption bands.  All computations run in scaled units (c = 1, lengths in
units of the slab half-length L); SI inputs are converted at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EdgeNotFound, PoleAtResonance, RootBracketingFailure

C_LIGHT = 299792458.0  # m/s, used only in SI mode

# Relative half-width of the window around each Omega_nu that is classified
# as an exact resonance (exact float equality is meaningless).
TOL_OMEGA = 1e-9


def pole_adjacent(medium: MediumSpec, omegas) -> np.ndarray:
    """True for each omega that lies in the TOL_OMEGA window of a band edge.

    Frequencies in such a window sit on (or within rounding of) an index
    pole; sweeps skip them and pulse grids nudge them into the band interior.
    """
    omegas = np.asarray(omegas, dtype=float)
    edges = np.asarray(band_edges(medium), dtype=float)
    return np.any(np.abs(omegas[..., None] - edges) < TOL_OMEGA * edges, axis=-1)


# Relative width to which band edges and dispersion roots are bisected.
EDGE_BISECTION_TOL = 1e-13

# Relative residual allowed in the dispersion relation omega^2 = (kc)^2 * bracket.
TOL_DISP = 1e-10


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
        if not self.omega_res > 0.0:
            raise ValueError(f"omega_res must be positive, got {self.omega_res}")
        if not self.coupling_g > 0.0:
            raise ValueError(f"coupling_g must be positive, got {self.coupling_g}")
        if not self.coupling_g < self.omega_res**2:
            raise ValueError(
                f"coupling_g={self.coupling_g} must be < omega_res^2="
                f"{self.omega_res**2} (isolated-species band edge must be real)"
            )


@dataclass(frozen=True)
class MediumSpec:
    """Immutable physical model: species, slab half-length, cross-section, units.

    Species are sorted ascending by resonance frequency at construction.
    ``unit_mode`` is ``"scaled"`` (c = 1, all quantities dimensionless) or
    ``"SI"`` (rad/s, meters); either way the internal computations normalize
    frequencies by c/L and positions by L.
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
        if not strength < 1.0:
            raise ValueError(
                f"sum(coupling_g / omega_res^2) = {strength} must be < 1 "
                "(else no band edge lies below the lowest resonance)"
            )
        if not self.half_length_L > 0.0:
            raise ValueError(f"half_length_L must be positive, got {self.half_length_L}")
        if not self.cross_section_A > 0.0:
            raise ValueError(f"cross_section_A must be positive, got {self.cross_section_A}")
        if self.unit_mode not in ("scaled", "SI"):
            raise ValueError(f"unit_mode must be 'scaled' or 'SI', got {self.unit_mode!r}")

    @property
    def c(self) -> float:
        """Speed of light in the spec's unit system."""
        return C_LIGHT if self.unit_mode == "SI" else 1.0

    @property
    def omega_scale(self) -> float:
        """Frequency unit c/L: omega_internal = omega / omega_scale."""
        return self.c / self.half_length_L

    def scaled_species(self) -> tuple[tuple[float, float], ...]:
        """Species as (Omega, g) pairs in internal units (c = 1, L = 1)."""
        w0 = self.omega_scale
        return tuple((s.omega_res / w0, s.coupling_g / w0**2) for s in self.species)

    def resonances(self) -> tuple[float, ...]:
        """Bare resonance frequencies, ascending, in the spec's units."""
        return tuple(s.omega_res for s in self.species)


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


def _bracket_scaled(omega_s: float, species_s: tuple[tuple[float, float], ...]) -> float:
    # (Omega - w)(Omega + w) instead of Omega^2 - w^2 keeps precision near resonance
    total = 1.0
    for w_res, g in species_s:
        total -= g / ((w_res - omega_s) * (w_res + omega_s))
    return total


def sellmeir_bracket(medium: MediumSpec, omega: float) -> float:
    """Evaluate 1 - sum_nu g_nu / (Omega_nu^2 - omega^2).

    Positive inside transmission bands, negative inside absorption bands,
    zero exactly at the band-edge index poles.

    Raises
    ------
    PoleAtResonance
        If ``omega`` is within the resonance tolerance of some Omega_nu.
    """
    _check_omega(omega)
    omega_s = omega / medium.omega_scale
    species_s = medium.scaled_species()
    for w_res, _ in species_s:
        if abs(omega_s - w_res) < TOL_OMEGA * w_res:
            raise PoleAtResonance(
                f"omega={omega} is within tolerance of resonance "
                f"Omega={w_res * medium.omega_scale}"
            )
    return _bracket_scaled(omega_s, species_s)


def refractive_index(medium: MediumSpec, omega: float) -> IndexValue:
    """Classify ``omega`` and return the complex refractive index there.

    Every positive frequency maps to exactly one of the four band kinds:
    real positive n (transmission), purely imaginary n with Im n > 0
    (absorption, so evanescent waves decay), n = 0 at bare resonances, and
    a divergent-index flag exactly where the Sellmeir bracket vanishes.
    """
    _check_omega(omega)
    n, kind = _index_scaled(omega / medium.omega_scale, medium.scaled_species())
    return IndexValue(n=n, band_kind=kind)


def _index_scaled(omega_s: float, species_s: tuple[tuple[float, float], ...]) -> tuple[complex, BandKind]:
    """(n, band kind) at a scaled frequency, for species from ``scaled_species()``.

    The scalar kernel behind ``refractive_index``; grid loops call it with
    the species scaled once.  ``omega_s`` must already be checked.  One pass
    over the species both tests each resonance window and accumulates the
    bracket, in ``_bracket_scaled``'s order, so the bracket is bitwise the same.
    """
    bracket = 1.0
    for w_res, g in species_s:
        if abs(omega_s - w_res) < TOL_OMEGA * w_res:
            return 0j, BandKind.RESONANCE_ZERO
        bracket -= g / ((w_res - omega_s) * (w_res + omega_s))
    if bracket > 0.0:
        return complex(1.0 / math.sqrt(bracket), 0.0), BandKind.TRANSMISSION
    if bracket < 0.0:
        return complex(0.0, 1.0 / math.sqrt(-bracket)), BandKind.ABSORPTION
    return complex(math.inf, 0.0), BandKind.POLE_DIVERGENT


def _secular_roots(species_s: tuple[tuple[float, float], ...], k_s: float = math.inf) -> list[float]:
    """Scaled roots of phi(w) = bracket(w) - (w/k)^2, one per interval between poles.

    Between consecutive poles 0 < Omega_1 < ... < Omega_N phi falls strictly
    from + (phi(0+) = 1 - sum g/Omega^2 > 0, as ``MediumSpec`` enforces) to -.
    With 1/k = 0 the N roots are the band edges; for finite k an interval up
    to sqrt(Omega_N^2 + k^2 + sum g), where phi < 0, adds the highest of the
    N + 1 dispersion branches.  Each interval is halved, never evaluating its
    ends, to relative width ``EDGE_BISECTION_TOL``; an end at a pole that
    never moves means no sign change was isolated.
    """
    inv_k = 1.0 / k_s
    lows = [0.0] + [w_res for w_res, _ in species_s]
    highs = lows[1:]
    if inv_k:
        highs.append(math.hypot(lows[-1], k_s, math.sqrt(sum(g for _, g in species_s))))
    roots = []
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        a, b = lo, hi
        while b - a > EDGE_BISECTION_TOL * b:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
            if _bracket_scaled(mid, species_s) - (mid * inv_k) ** 2 > 0.0:
                a = mid
            else:
                b = mid
        if a == lo or (b == hi and i < len(species_s)):
            error = RootBracketingFailure if inv_k else EdgeNotFound
            raise error(f"no sign change of phi isolated in ({lo}, {hi}) at scaled k={k_s}")
        roots.append(0.5 * (a + b))
    return roots


def band_edges(medium: MediumSpec) -> tuple[float, ...]:
    """Band-edge (index-pole) frequencies: the bracket's root below each resonance (1/k = 0)."""
    return tuple(e * medium.omega_scale for e in _secular_roots(medium.scaled_species()))


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
    each the root of ``_secular_roots`` in one interval between poles; roots
    are returned ascending.  A root whose residual exceeds ``TOL_DISP``
    relative to omega^2 raises ``RootBracketingFailure``.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    species_s = medium.scaled_species()
    k_s = k * medium.half_length_L  # scaled wavenumber (c = 1, L = 1)
    roots = _secular_roots(species_s, k_s)
    for root in roots:
        residual = abs(root**2 - k_s**2 * _bracket_scaled(root, species_s))
        if residual > TOL_DISP * root**2:
            raise RootBracketingFailure(
                f"dispersion root at omega={root} has residual {residual:.3e} "
                f"above tolerance"
            )
    return [root * medium.omega_scale for root in roots]
