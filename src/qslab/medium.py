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

import numpy as np

from .errors import EdgeNotFound, PoleAtResonance, RootBracketingFailure

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
        if not 0.0 < self.omega_res < math.inf:
            raise ValueError(f"omega_res must be positive and finite, got {self.omega_res}")
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

    Species are sorted ascending by resonance frequency at construction.
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
        if not strength < 1.0:
            raise ValueError(
                f"sum(coupling_g / omega_res^2) = {strength} must be < 1 "
                "(else no band edge lies below the lowest resonance)"
            )
        if not 0.0 < self.half_length_L < math.inf:
            raise ValueError(f"half_length_L must be positive and finite, got {self.half_length_L}")
        if not 0.0 < self.cross_section_A < math.inf:
            raise ValueError(f"cross_section_A must be positive and finite, got {self.cross_section_A}")
        if self.unit_mode not in ("scaled", "SI"):
            raise ValueError(f"unit_mode must be 'scaled' or 'SI', got {self.unit_mode!r}")

    @property
    def c(self) -> float:
        """Speed of light in the spec's unit system."""
        return C_LIGHT if self.unit_mode == "SI" else 1.0

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


def _pairs(medium: MediumSpec) -> tuple[tuple[float, float], ...]:
    """The species as (Omega, g) pairs, the form the scalar kernels loop over."""
    return tuple((s.omega_res, s.coupling_g) for s in medium.species)


def _bracket(omega: float, pairs: tuple[tuple[float, float], ...]) -> float:
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
    """
    _check_omega(omega)
    n, kind = _index(omega, _pairs(medium))
    return IndexValue(n=n, band_kind=kind)


def _index(omega: float, pairs: tuple[tuple[float, float], ...]) -> tuple[complex, BandKind]:
    """(n, band kind) at ``omega``, for species from ``_pairs``.

    The scalar kernel behind ``refractive_index``; grid loops call it with
    the pairs built once.  ``omega`` must already be checked.  One pass over
    the species both tests each resonance for equality and accumulates the
    bracket, in ``_bracket``'s order, so the bracket is bitwise the same.
    """
    bracket = 1.0
    for w_res, g in pairs:
        if omega == w_res:
            return 0j, BandKind.RESONANCE_ZERO
        bracket -= g / ((w_res - omega) * (w_res + omega))
    if bracket > 0.0:
        return complex(1.0 / math.sqrt(bracket), 0.0), BandKind.TRANSMISSION
    if bracket < 0.0:
        return complex(0.0, 1.0 / math.sqrt(-bracket)), BandKind.ABSORPTION
    return complex(math.inf, 0.0), BandKind.POLE_DIVERGENT


def _secular_roots(pairs: tuple[tuple[float, float], ...], kc: float = math.inf) -> list[float]:
    """Roots of phi(w) = bracket(w) - (w/kc)^2, one per interval between poles.

    Between consecutive poles 0 < Omega_1 < ... < Omega_N phi falls strictly
    from + (phi(0+) = 1 - sum g/Omega^2 > 0, as ``MediumSpec`` enforces) to -.
    With 1/k = 0 the N roots are the band edges; for finite k an interval up
    to sqrt(Omega_N^2 + (kc)^2 + sum g), where phi < 0, adds the highest of the
    N + 1 dispersion branches.  Each interval is halved, never evaluating its
    ends, to relative width ``EDGE_BISECTION_TOL``; an end at a pole that
    never moves means no sign change was isolated.
    """
    inv_k = 1.0 / kc
    lows = [0.0] + [w_res for w_res, _ in pairs]
    highs = lows[1:]
    if inv_k:
        highs.append(math.hypot(lows[-1], kc, math.sqrt(sum(g for _, g in pairs))))
    roots = []
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        a, b = lo, hi
        while b - a > EDGE_BISECTION_TOL * b:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
            if _bracket(mid, pairs) - (mid * inv_k) ** 2 > 0.0:
                a = mid
            else:
                b = mid
        if a == lo or (b == hi and i < len(pairs)):
            error = RootBracketingFailure if inv_k else EdgeNotFound
            raise error(f"no sign change of phi isolated in ({lo}, {hi}) at kc={kc}")
        roots.append(0.5 * (a + b))
    return roots


def band_edges(medium: MediumSpec) -> tuple[float, ...]:
    """Band-edge (index-pole) frequencies: the bracket's root below each resonance (1/k = 0)."""
    return tuple(_secular_roots(_pairs(medium)))


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
    pairs, kc = _pairs(medium), k * medium.c
    roots = _secular_roots(pairs, kc)
    for root in roots:
        residual = abs(root**2 - kc**2 * _bracket(root, pairs))
        if residual > TOL_DISP * root**2:
            raise RootBracketingFailure(
                f"dispersion root at omega={root} has residual {residual:.3e} "
                f"above tolerance"
            )
    return roots
