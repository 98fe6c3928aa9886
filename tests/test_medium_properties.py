"""Property tests of the secular root finder behind band edges and dispersion
branches, of the index as a property of the material alone, and of the slab
S-matrix, Green's function (symmetry and the generalized optical theorem) and
closed-form R and T (against the transfer-matrix oracle) on the same media.

Media are drawn at random from the valid domain: 1-6 species whose
resonances span at most 100x with relative spacing at least 1e-3, and
sum g/Omega^2 in [0.01, 0.95].  The references are written independently of
qslab: a factored Sellmeir bracket summed with ``math.fsum``.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslab.errors import PoleDivergentFrequency, QslabError, RootBracketingFailure
from qslab.medium import (
    MediumSpec,
    OscillatorSpecies,
    _secular_roots,
    band_edges,
    dispersion_omega_of_k,
    refractive_index,
)
from qslab.oracle import transfer_matrix_rt
from qslab.quantum_io import s_matrix
from qslab import slab
from qslab.slab import greens_function, mode_function, scatter_coefficients

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
MIN_LOG_SPACING = math.log1p(1e-3)
MAX_LOG_SPAN = math.log(100.0)


@st.composite
def species_lists(draw):
    """(Omega, g) pairs, ascending, in scaled units."""
    n = draw(st.integers(1, 6))
    lowest = draw(st.floats(0.1, 10.0))
    spare = max(draw(st.floats(0.0, MAX_LOG_SPAN)) - (n - 1) * MIN_LOG_SPACING, 0.0)
    log_omegas = [math.log(lowest)]
    for _ in range(n - 1):
        gap = MIN_LOG_SPACING + spare * draw(st.floats(0.0, 1.0)) / (n - 1)
        log_omegas.append(log_omegas[-1] + gap)
    strength = draw(st.floats(0.01, 0.95))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    omegas = [math.exp(x) for x in log_omegas]
    return [(w, strength * wt / total * w * w) for w, wt in zip(omegas, weights)]


def bracket(species, omega):
    return 1.0 - math.fsum(g / ((w - omega) * (w + omega)) for w, g in species)


def medium_of(species):
    return MediumSpec(species=tuple(OscillatorSpecies(w, g) for w, g in species))


@PROPERTY_SETTINGS
@given(species_lists())
def test_each_edge_lies_in_its_gap_and_passes_the_sign_probe(species):
    edges = band_edges(medium_of(species))
    assert len(edges) == len(species)
    lows = [0.0] + [w for w, _ in species]
    for lo, (w_res, _), edge in zip(lows, species, edges):
        assert lo < edge < w_res
        assert bracket(species, edge * (1.0 - 1e-9)) > 0.0 > bracket(species, edge * (1.0 + 1e-9))


@PROPERTY_SETTINGS
@given(species_lists(), st.floats(0.0, 1.0))
def test_one_branch_in_each_transmission_interval(species, where):
    # k log-uniform from a tenth of the lowest to ten times the highest resonance
    lo_k, hi_k = math.log(species[0][0] / 10.0), math.log(species[-1][0] * 10.0)
    k = math.exp(lo_k + where * (hi_k - lo_k))
    medium = medium_of(species)
    roots = _secular_roots(tuple(species), k)
    assert len(roots) == len(species) + 1
    lows = [0.0] + [w for w, _ in species]
    highs = list(band_edges(medium)) + [math.inf]
    for lo, hi, root in zip(lows, highs, roots):
        assert lo < root < hi
        # one Newton step on phi(w) = bracket(w) - (w/k)^2 moves the root by < 1e-12 relative
        phi = bracket(species, root) - (root / k) ** 2
        slope = -2.0 * root * (math.fsum(g / ((w - root) * (w + root)) ** 2 for w, g in species) + k**-2)
        assert abs(phi) <= 1e-12 * root * abs(slope)
    try:
        returned = dispersion_omega_of_k(medium, k)
    except RootBracketingFailure as exc:
        # the TOL_DISP residual is scaled by omega^2 alone, so it rejects
        # correct roots next to a pole (a known fault, see ROADMAP)
        assert "residual" in str(exc)
        return
    assert returned == roots
    for root in returned:
        assert root * refractive_index(medium, root).n.real == pytest.approx(k, rel=1e-10)


@PROPERTY_SETTINGS
@given(
    species_lists(),
    st.floats(math.log(1e-2), math.log(1e3)),
    st.floats(0.0, 1.0),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
def test_greens_function_is_symmetric_and_finite(species, log_length, where, x, x_src):
    # omega log-uniform from a twentieth of the lowest to three times the highest
    # resonance; with L up to 1e3 the deep gaps drive T to exactly zero
    length = math.exp(log_length)
    medium = MediumSpec(
        species=tuple(OscillatorSpecies(w, g) for w, g in species), half_length_L=length
    )
    lo, hi = math.log(species[0][0] / 20.0), math.log(species[-1][0] * 3.0)
    omega = math.exp(lo + where * (hi - lo))
    x, x_src = x * length, x_src * length
    try:
        forward = greens_function(medium, omega, x, x_src, with_derivative=x != x_src)
    except PoleDivergentFrequency:
        return
    backward = greens_function(medium, omega, x_src, x)
    assert forward.value == backward.value
    assert cmath.isfinite(forward.value)
    assert forward.derivative is None or cmath.isfinite(forward.derivative)


def flank_or_interior_omega(medium, which, where, above, u):
    """A drawn frequency next to a resonance, next to a band edge, or inside a band.

    Resonance flanks Omega_i (1 +/- 10^U(-8.9, -3)) lie where n0 -> 0; edge
    flanks edge_i (1 +/- 10^U(-8, -3)) lie outside the pole window, where
    n0 -> infinity; interiors are those of the transmission band below edge_i
    (above = False) and of the absorption band above it.
    """
    species = [(s.omega_res, s.coupling_g) for s in medium.species]
    which %= len(species)
    omega_res = species[which][0]
    edge = band_edges(medium)[which]
    sign = 1.0 if above else -1.0
    if where == "resonance":
        return omega_res * (1.0 + sign * 10.0 ** (-8.9 + 5.9 * u))
    if where == "edge":
        return edge * (1.0 + sign * 10.0 ** (-8.0 + 5.0 * u))
    lo, hi = (edge, omega_res) if above else ([0.0, *(w for w, _ in species)][which], edge)
    return lo + (0.01 + 0.98 * u) * (hi - lo)


FLANKS_AND_INTERIORS = (
    species_lists(),
    st.integers(0, 5),
    st.sampled_from(["resonance", "edge", "interior"]),
    st.booleans(),
    st.floats(0.0, 1.0),
    st.floats(math.log(1e-2), math.log(1e3)),
)


@PROPERTY_SETTINGS
@given(*FLANKS_AND_INTERIORS)
def test_s_matrix_is_unitary_on_the_flanks_and_in_band_interiors(
    species, which, where, above, u, log_length
):
    medium = MediumSpec(
        species=tuple(OscillatorSpecies(w, g) for w, g in species),
        half_length_L=math.exp(log_length),
    )
    omega = flank_or_interior_omega(medium, which, where, above, u)
    # s_matrix raises past the 1e-12 contract; the factored closed form keeps
    # the defect at rounding level, where an unfactored denominator loses 1e-12
    assert s_matrix(medium, omega).unitarity_defect <= 1e-13


def outcome(function, *args):
    """repr of the result, or of the error raised: equal reprs mean bitwise-equal floats."""
    try:
        return repr(function(*args))
    except QslabError as exc:
        return repr(exc)


@PROPERTY_SETTINGS
@given(*FLANKS_AND_INTERIORS)
def test_index_edges_and_branches_do_not_depend_on_the_slab_length(
    species, which, where, above, u, log_length
):
    # the index belongs to the material, so a slab of any half-length L
    # gives bitwise what the L = 1 slab gives
    unit = medium_of(species)
    other = MediumSpec(species=unit.species, half_length_L=math.exp(log_length))
    omega = flank_or_interior_omega(unit, which, where, above, u)
    assert outcome(refractive_index, other, omega) == outcome(refractive_index, unit, omega)
    assert outcome(band_edges, other) == outcome(band_edges, unit)
    assert outcome(dispersion_omega_of_k, other, omega) == outcome(dispersion_omega_of_k, unit, omega)


@PROPERTY_SETTINGS
@given(*FLANKS_AND_INTERIORS)
def test_closed_form_matches_the_star_product_oracle(species, which, where, above, u, log_length):
    medium = MediumSpec(
        species=tuple(OscillatorSpecies(w, g) for w, g in species),
        half_length_L=math.exp(log_length),
    )
    omega = flank_or_interior_omega(medium, which, where, above, u)
    sol = scatter_coefficients(medium, omega)
    if sol.n0 == 0:
        # only an exact resonance has n0 = 0, and the oracle's faces carry k / n0
        return
    k = omega / medium.c
    refl, trans = transfer_matrix_rt(sol.n0, k, medium.half_length_L)
    # no evanescent-depth envelope: the star product meets only decaying
    # factors.  The two routes round the interior phase 2 n0 k L apart, and a
    # high-index slab's Fabry-Perot resonances amplify that difference, so
    # the bound scales with the optical half-thickness |n0| k L.  The 1e-11
    # floor covers the resonance flanks, where the oracle's k / n0 faces lose
    # about eps / |n0|, a few 1e-12 at 1e-9 from a resonance.
    bound = 1e-11 * max(1.0, abs(sol.n0) * k * medium.half_length_L)
    assert max(abs(sol.R - refl), abs(sol.T - trans)) <= bound


def optical_theorem_gap(medium, omega, x, x_src):
    """|G - conj(G) - rhs| with rhs = [u_l(x) conj(u_l(x')) + u_r(x) conj(u_r(x'))] / (2i k c^2),
    and the phase-scaled bound it must meet.

    The identity says that the anti-Hermitian part of G is made of the two
    scattering modes alone, with no noise-current term: the paper's "no
    extra noise operators" in Green's-function form.  The bound scales with
    the optical half-thickness |n0| k L, as the oracle property's does, and
    with max(|G|, |rhs|, 1 / (2 k c^2)), the size of G outside the slab.
    """
    k = omega / medium.c
    green = greens_function(medium, omega, x, x_src).value
    u_l, u_l_src = (mode_function(medium, omega, "left", p).value for p in (x, x_src))
    u_r, u_r_src = (mode_function(medium, omega, "right", p).value for p in (x, x_src))
    rhs = (u_l * u_l_src.conjugate() + u_r * u_r_src.conjugate()) / (2j * k * medium.c**2)
    n0 = refractive_index(medium, omega).n
    size = max(abs(green), abs(rhs), 1.0 / (2.0 * k * medium.c**2))
    bound = 1e-11 * max(1.0, abs(n0) * k * medium.half_length_L) * size
    return abs(green - green.conjugate() - rhs), bound


@PROPERTY_SETTINGS
@given(*FLANKS_AND_INTERIORS, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_greens_function_obeys_the_generalized_optical_theorem(
    species, which, where, above, u, log_length, x, x_src
):
    medium = MediumSpec(
        species=tuple(OscillatorSpecies(w, g) for w, g in species),
        half_length_L=math.exp(log_length),
    )
    omega = flank_or_interior_omega(medium, which, where, above, u)
    # over 2,500 random draws the worst gap used 5.4e-14 of the bound's scale
    gap, bound = optical_theorem_gap(
        medium, omega, x * medium.half_length_L, x_src * medium.half_length_L
    )
    assert gap <= bound


def test_optical_theorem_catches_a_transmission_phase_error(monkeypatch):
    # R and T keep |R|^2 + |T|^2 = 1 but lose Re(conj(T) R) = 0; a pair on
    # both sides of the slab sees the cross term
    medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),))
    pairs = [(-1.5, 1.7), (1.2, -3.0), (0.4, 2.5)]
    for x, x_src in pairs:
        gap, bound = optical_theorem_gap(medium, 0.5, x, x_src)
        assert gap <= bound
    closed_form = slab._closed_form

    def shifted(w, n0):
        refl, trans, denom = closed_form(w, n0)
        return refl, trans * cmath.exp(1e-9j), denom

    monkeypatch.setattr(slab, "_closed_form", shifted)
    for x, x_src in pairs:
        gap, bound = optical_theorem_gap(medium, 0.5, x, x_src)
        assert gap > bound
