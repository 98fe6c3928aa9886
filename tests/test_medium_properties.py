"""Property tests of the secular root finder behind band edges and dispersion
branches, of the index as a property of the material alone, and of the slab
S-matrix, Green's function (symmetry and the generalized optical theorem) and
closed-form R and T (against the transfer-matrix oracle) on the same media,
and of the config form that writes and reads them.

Media are drawn at random from the valid domain: 1-6 species whose
resonances span at most 100x with relative spacing at least 1e-3, and
sum g/Omega^2 in [0.01, 0.95].  One property draws crowded media instead,
with neighbours a few ulps apart and couplings down to 1e-30 Omega^2.  The
references are written independently of qslab: a factored Sellmeir bracket
summed with ``math.fsum``.
"""

import cmath
import math
from pathlib import Path
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslab.config import load_medium_config, medium_from_dict, medium_to_dict
from qslab.errors import PoleDivergentFrequency, QslabError
from qslab.medium import (
    C_LIGHT,
    MediumSpec,
    OscillatorSpecies,
    _pairs,
    _secular_roots,
    band_edges,
    band_structure,
    dispersion_omega_of_k,
    pole_adjacent,
    refractive_index,
)
from qslab.oracle import transfer_matrix_rt, verify
from qslab.quantum_io import POLE_NUDGE, s_matrix
from qslab import slab
from qslab.slab import GRID_BLOCK, greens_function, mode_function, scatter_coefficients, scatter_on_grid

CONFIG_DIR = Path(__file__).parent.parent / "configs"
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


@st.composite
def crowded_species_lists(draw):
    """(Omega, g) pairs, ascending, some neighbours 1-16 ulps apart, couplings down to 1e-30 Omega^2."""
    n = draw(st.integers(1, 4))
    omegas = [draw(st.floats(0.1, 10.0))]
    for _ in range(n - 1):
        if draw(st.booleans()):
            w = omegas[-1]
            for _ in range(draw(st.integers(1, 16))):
                w = math.nextafter(w, math.inf)
        else:
            w = omegas[-1] * (1.0 + draw(st.floats(1e-3, 1.0)))
        omegas.append(w)
    top = math.log10(0.9 / n)
    # one coupling in four may fall to 1e-30 Omega^2, so that many draws still construct
    strengths = [draw(st.floats(-30.0 if draw(st.integers(0, 3)) == 0 else -6.0, top)) for _ in omegas]
    return [(w, 10.0**s * w * w) for w, s in zip(omegas, strengths)]


@PROPERTY_SETTINGS
@given(crowded_species_lists())
def test_a_medium_that_constructs_has_edges_bands_and_pole_windows(species):
    # a medium built in code used to construct, then fail on its band edges
    # in the middle of a command, naming no field
    try:
        medium = medium_of(species)
    except ValueError as exc:
        assert "omega_res" in str(exc) or "coupling_g" in str(exc)
        return
    edges = band_edges(medium)
    lows = [0.0] + [w for w, _ in species]
    assert all(lo < edge < w_res for lo, (w_res, _), edge in zip(lows, species, edges))
    assert len(band_structure(medium, 2.0 * species[-1][0])) == 2 * len(species) + 1
    assert pole_adjacent(medium, edges).all()


def exact_edges(species) -> list:
    """The band edges to 40 digits: 160 mpmath bisections of the bracket below each resonance."""
    with mpmath.workdps(40):
        pairs = [(mpmath.mpf(w), mpmath.mpf(g)) for w, g in species]
        edges, lo = [], mpmath.mpf(0)
        for w_res, _ in pairs:
            a, b = lo, w_res
            for _ in range(160):
                mid = (a + b) / 2
                if 1 - mpmath.fsum(g / ((w - mid) * (w + mid)) for w, g in pairs) > 0:
                    a = mid
                else:
                    b = mid
            edges.append(a)
            lo = w_res
        return edges


@pytest.mark.parametrize("name", ["single_resonance", "two_resonances"])
def test_config_edges_are_within_two_ulps_of_40_digits(name):
    # bisected until no float lies between the ends; a relative width of
    # 1e-13 as the stop rule left them 51 and 205 ulps off
    medium, _ = load_medium_config(CONFIG_DIR / f"{name}.json")
    for edge, exact in zip(band_edges(medium), exact_edges(_pairs(medium)), strict=True):
        assert abs(mpmath.mpf(edge) - exact) <= 2 * math.ulp(edge)


@PROPERTY_SETTINGS
@given(species_lists())
def test_each_edge_is_within_the_brackets_rounding_noise_of_40_digits(species):
    # the float bracket carries an absolute error of at most about
    # (3 + N) eps sum |g / (Omega^2 - w^2)| (four roundings per term, one per
    # running sum), so its sign may be wrong within that error over the
    # slope of the root; the bisection adds one ulp.  Over 3,000 random media
    # with 1 - S from 1e-6 to 0.99 the error stayed below 1.1 / (3 + N) of
    # that noise beyond the ulp; a relative stop width of 1e-13 misses it
    eps = np.finfo(float).eps
    for edge, exact in zip(band_edges(medium_of(species)), exact_edges(species), strict=True):
        w = float(exact)
        terms = [g / ((w_res - w) * (w_res + w)) for w_res, g in species]
        slope = 2.0 * w * math.fsum(t * t / g for t, (_, g) in zip(terms, species))
        noise = (3 + len(species)) * eps * math.fsum(map(abs, terms)) / slope
        assert abs(mpmath.mpf(edge) - exact) <= math.ulp(w) + noise


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
    returned = dispersion_omega_of_k(medium, k)
    assert returned == roots
    for root in returned:
        # k(w) = w n(w) has condition number 1 + w^2 sum g / (Omega^2 - w^2)^2 / bracket,
        # which grows like 1 / bracket next to a pole: 5e7 at a root 5e-4 from
        # two close resonances, where the root's own rounding moves k by 3.7e-10
        pole_terms = math.fsum(g / ((w - root) * (w + root)) ** 2 for w, g in species)
        cond = 1.0 + root * root * pole_terms / bracket(species, root)
        tol = 1e-10 + cond * np.finfo(float).eps
        assert root * refractive_index(medium, root).n.real == pytest.approx(k, rel=tol)


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
        # only an exact resonance has n0 = 0, where the oracle's loop factor is 1/0
        return
    k = omega / medium.c
    refl, trans = transfer_matrix_rt(sol.n0, k, medium.half_length_L)
    # no evanescent-depth envelope: the star product meets only decaying
    # factors.  The two routes round the interior phase 2 n0 k L apart, and a
    # high-index slab's Fabry-Perot resonances amplify that difference, so
    # the bound scales with the optical half-thickness |n0| k L.  The 1e-11
    # floor covers the resonance flanks, where the oracle's loop factor
    # 1 / (1 - r' r P^2) cancels and loses about eps / |n0|, a few 1e-12 at
    # 1e-9 from a resonance.
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

    def shifted(*args):
        refl, trans, denom = closed_form(*args)
        return refl, trans * cmath.exp(1e-9j), denom

    monkeypatch.setattr(slab, "_closed_form", shifted)
    for x, x_src in pairs:
        gap, bound = optical_theorem_gap(medium, 0.5, x, x_src)
        assert gap > bound


@pytest.mark.parametrize("unit_mode", ["scaled", "SI"])
@PROPERTY_SETTINGS
@given(species_lists(), st.floats(-20.0, 5.0), st.floats(-30.0, 5.0))
def test_config_form_round_trips(unit_mode, species, log_length, log_area):
    medium = MediumSpec(
        species=tuple(OscillatorSpecies(w, g) for w, g in species),
        half_length_L=math.exp(log_length),
        cross_section_A=math.exp(log_area) if unit_mode == "SI" else 1.0,
        unit_mode=unit_mode,
    )
    assert medium_from_dict(medium_to_dict(medium)) == medium


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(species_lists())
def test_verify_sweep_properties_pass(species):
    # the three properties read from verify's 2000-point grid, and resonance
    # continuity, whose extrapolation onto the resonance holds on weakly
    # coupled, optically thick media too
    entries = verify(medium_of(species))
    verdicts = {e["name"]: e["verdict"] for e in entries}
    for name in ("unitarity_sweep", "oracle_agreement", "smatrix_unitarity", "resonance_continuity"):
        assert verdicts[name] == "PASS", entries


SI_FREQUENCY = 2.2e15  # rad/s per scaled unit of frequency


@pytest.mark.parametrize("unit_mode", ["scaled", "SI"])
@PROPERTY_SETTINGS
@given(
    species_lists(),
    st.one_of(st.floats(math.log(1e-2), math.log(1e2)).map(math.exp), st.just(300.0)),
)
def test_grid_kernel_is_within_rounding_of_the_pointwise_kernel(unit_mode, species, length):
    # the same slab in SI units has omega and L rescaled so that omega L / c
    # is unchanged; L = 300 puts deep gaps, where T underflows, on the grid
    scale = SI_FREQUENCY if unit_mode == "SI" else 1.0
    medium = MediumSpec(
        species=tuple(OscillatorSpecies(w * scale, g * scale * scale) for w, g in species),
        half_length_L=length * (C_LIGHT / scale if unit_mode == "SI" else 1.0),
        unit_mode=unit_mode,
    )
    special = []
    for w_res in medium.resonances():
        special += [w_res, math.nextafter(w_res, 0.0), math.nextafter(w_res, math.inf)]
    for edge in band_edges(medium):
        special += [edge * (1.0 - POLE_NUDGE), edge * (1.0 + POLE_NUDGE)]
    # the special points straddle the first block boundary; a 256-point block
    # keeps the scalar reference calls few
    block = 256
    lo, hi = medium.resonances()[0] / 20.0, medium.resonances()[-1] * 3.0
    omegas = np.concatenate([np.linspace(lo, hi, block - len(special) // 2), special])
    with patch.object(slab, "GRID_BLOCK", block):
        refl, trans, index = scatter_on_grid(medium, omegas)
    pointwise = [scatter_coefficients(medium, omega) for omega in omegas.tolist()]
    # the grid rounds differently from the scalar kernel, by at most a few ulps
    bound = np.array([4.0 * np.finfo(float).eps * (1.0 + abs(sol.n0)) for sol in pointwise])
    assert (np.abs(refl - np.array([sol.R for sol in pointwise])) <= bound).all()
    assert (np.abs(trans - np.array([sol.T for sol in pointwise])) <= bound).all()
    # bytes, not ==: the index is the scalar kernel's, the sign of each zero part included
    expected = [refractive_index(medium, omega).n for omega in omegas.tolist()]
    assert index.tobytes() == np.array(expected).tobytes()


def first_error(function, *args):
    """(type, message) of what ``function`` raises, or None."""
    try:
        function(*args)
    except (QslabError, ValueError) as exc:
        return type(exc), str(exc)
    return None


POLE_MEDIUM = MediumSpec(species=(OscillatorSpecies(2.0, 3.0),))  # the bracket is exactly 0 at omega = 1


@pytest.mark.parametrize(
    "medium, omegas",
    [
        (POLE_MEDIUM, [0.5, 1.0, math.inf]),
        (POLE_MEDIUM, [0.5, math.inf, 1.0]),
        (POLE_MEDIUM, [*np.linspace(0.3, 0.7, GRID_BLOCK + 7).tolist(), 1.0, math.nan]),
        (POLE_MEDIUM, [*np.linspace(0.3, 0.7, GRID_BLOCK + 7).tolist(), -1.0, 1.0]),
        (MediumSpec(species=(OscillatorSpecies(1.0, 0.19),), half_length_L=1e308), [0.5, 1.0, 1.5]),
        (MediumSpec(species=(OscillatorSpecies(1.0, 0.19),), half_length_L=1e308), [math.inf, 0.5]),
    ],
    ids=["pole-then-inf", "inf-then-pole", "pole-in-second-block", "negative-in-second-block",
         "phase-overflow", "inf-before-overflow"],
)
def test_grid_raises_what_the_pointwise_loop_raises_first(medium, omegas):
    def loop():
        for omega in omegas:
            scatter_coefficients(medium, omega)

    expected = first_error(loop)
    assert expected is not None
    assert first_error(scatter_on_grid, medium, omegas) == expected
