import cmath
import math

import mpmath
import numpy as np
import pytest

from qslab.errors import PoleAtResonance, RangeError, RootBracketingFailure
from qslab.slab import scatter_coefficients
from qslab.medium import (
    CRITICAL_COUPLING_MARGIN,
    TOL_OMEGA,
    BandKind,
    MediumSpec,
    OscillatorSpecies,
    band_edges,
    band_structure,
    dispersion_omega_of_k,
    _bracket,
    _pairs,
    _secular_roots,
    pole_adjacent,
    refractive_index,
    sellmeir_bracket,
)


def brute_force_bracket(species, omega):
    """Independent direct evaluation of 1 - sum g/(Omega^2 - omega^2)."""
    return 1.0 - sum(g / (w**2 - omega**2) for w, g in species)


class TestOscillatorSpecies:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            OscillatorSpecies(-1.0, 0.1)
        with pytest.raises(ValueError):
            OscillatorSpecies(1.0, 0.0)
        with pytest.raises(ValueError, match="omega_res must be positive and finite"):
            OscillatorSpecies(math.inf, 0.1)

    def test_rejects_omega_res_below_two_to_the_minus_511(self):
        # below it (Omega - w)(Omega + w) underflows to 0 one ulp from Omega,
        # and the scalar bracket divided by zero
        with pytest.raises(ValueError, match=r"omega_res must be at least 2\*\*-511 .*got 1e-160"):
            OscillatorSpecies(1e-160, 5e-321)
        with pytest.raises(ValueError, match="omega_res must be at least"):
            OscillatorSpecies(math.nextafter(2.0**-511, 0.0), 5e-321)
        w_res = 2.0**-511
        medium = MediumSpec(species=(OscillatorSpecies(w_res, 0.5 * w_res * w_res),))
        for omega in (math.nextafter(w_res, 0.0), math.nextafter(w_res, math.inf)):
            assert cmath.isfinite(refractive_index(medium, omega).n)
            assert cmath.isfinite(scatter_coefficients(medium, omega).T)

    def test_rejects_omega_res_at_or_above_two_to_the_484(self):
        # at or above 2**512 omega_res**2 overflowed into a bare OverflowError;
        # below it a term whose (Omega - w)(Omega + w) overflowed rounded to 0,
        # so at nextafter(2**512, 0) the index at 1.5 Omega read 1 for 0.9317
        for w_res in (2.0**484, math.nextafter(2.0**512, 0.0), 2.0**512, 1e200):
            with pytest.raises(ValueError, match=r"omega_res must be below 2\*\*484 .*got"):
                OscillatorSpecies(w_res, 1.0)
        w_res = math.nextafter(2.0**484, 0.0)
        g = 0.19 * w_res * w_res
        medium = MediumSpec(species=(OscillatorSpecies(w_res, g),))
        (edge,) = band_edges(medium)
        assert 0.0 < edge < w_res
        assert refractive_index(medium, 0.5 * w_res).band_kind is BandKind.TRANSMISSION
        # at 1.01 * 2**512 the product (Omega - w)(Omega + w) overflows
        for omega in (1.5 * w_res, 1.01 * 2.0**512):
            with mpmath.workdps(40):
                exact = 1 / mpmath.sqrt(1 - mpmath.mpf(g) / (mpmath.mpf(w_res) ** 2 - mpmath.mpf(omega) ** 2))
            assert refractive_index(medium, omega).n == pytest.approx(float(exact), rel=1e-15)

    def test_rejects_coupling_at_least_omega_squared(self):
        with pytest.raises(ValueError):
            OscillatorSpecies(1.0, 1.0)
        with pytest.raises(ValueError):
            OscillatorSpecies(2.0, 4.5)


class TestMediumSpec:
    def test_species_sorted_on_construction(self):
        m = MediumSpec(species=(OscillatorSpecies(2.0, 0.1), OscillatorSpecies(1.0, 0.1)))
        assert m.resonances() == (1.0, 2.0)

    def test_duplicate_resonances_rejected(self):
        with pytest.raises(ValueError):
            MediumSpec(species=(OscillatorSpecies(1.0, 0.1), OscillatorSpecies(1.0, 0.2)))

    def test_near_critical_coupling_rejected_naming_the_sum(self):
        # 1 - S just below CRITICAL_COUPLING_MARGIN; just above it is accepted
        g = 1.0 - 0.99 * CRITICAL_COUPLING_MARGIN
        with pytest.raises(ValueError, match=r"sum\(coupling_g / omega_res\^2\) = 0\.99999901 must be at most 1 - 1e-06"):
            MediumSpec(species=(OscillatorSpecies(1.0, g),))
        MediumSpec(species=(OscillatorSpecies(1.0, 1.0 - 1.01 * CRITICAL_COUPLING_MARGIN),))

    def test_species_one_ulp_apart_are_rejected_naming_omega_res(self):
        # the medium constructed, then band_structure, energy_budget and
        # detection_rate each failed on the edge between the two resonances
        with pytest.raises(ValueError, match=r"omega_res .*\(1\.0, 1\.0000000000000002\)"):
            MediumSpec(species=(OscillatorSpecies(1.0, 0.1), OscillatorSpecies(math.nextafter(1.0, math.inf), 0.1)))

    def test_edge_rounding_onto_its_resonance_is_rejected_naming_coupling_g(self):
        # the edge sqrt(1 - g) rounds onto Omega = 1 once g falls below about 2.2e-16
        with pytest.raises(ValueError, match=r"coupling_g .*\(0\.0, 1\.0\)"):
            MediumSpec(species=(OscillatorSpecies(1.0, 1e-20),))
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 2.3e-16),))
        assert band_edges(medium) == (0.9999999999999998,)
        assert [band.kind for band in band_structure(medium, 2.0)] == [
            BandKind.TRANSMISSION, BandKind.ABSORPTION, BandKind.TRANSMISSION
        ]

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            MediumSpec(half_length_L=0.0)
        with pytest.raises(ValueError):
            MediumSpec(cross_section_A=-1.0)
        with pytest.raises(ValueError, match="half_length_L must be positive and finite"):
            MediumSpec(half_length_L=math.inf)
        with pytest.raises(ValueError, match="cross_section_A must be positive and finite"):
            MediumSpec(cross_section_A=math.inf)
        with pytest.raises(ValueError):
            MediumSpec(unit_mode="natural")


class TestSellmeirBracket:
    def test_vacuum_is_unity(self, vacuum):
        assert sellmeir_bracket(vacuum, 0.123) == 1.0
        assert sellmeir_bracket(vacuum, 42.0) == 1.0

    def test_analytic_root_at_band_edge(self, reference_medium):
        # omega = sqrt(Omega^2 - g) = sqrt(0.81) = 0.9 zeroes the bracket
        assert abs(sellmeir_bracket(reference_medium, 0.9)) < 1e-12

    def test_direct_arithmetic_value(self, strong_medium):
        # 1 - 0.5/(1 - 4) = 7/6, checked against a second evaluation path
        value = sellmeir_bracket(strong_medium, 2.0)
        assert value == pytest.approx(7.0 / 6.0, rel=1e-15)
        assert value == pytest.approx(brute_force_bracket([(1.0, 0.5)], 2.0), rel=1e-14)

    def test_pole_at_resonance_raises(self, reference_medium):
        # only the resonance itself divides by zero; 1e-12 away the bracket
        # is finite (about 9.5e10) and as accurate as anywhere else
        with pytest.raises(PoleAtResonance):
            sellmeir_bracket(reference_medium, 1.0)
        omega = 1.0 + 1e-12
        with mpmath.workdps(40):
            exact = float(1 - mpmath.mpf(0.19) / (1 - mpmath.mpf(omega) ** 2))
        assert sellmeir_bracket(reference_medium, omega) == pytest.approx(exact, rel=1e-14)

    def test_rejects_nonpositive_omega(self, reference_medium):
        with pytest.raises(ValueError):
            sellmeir_bracket(reference_medium, 0.0)

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_rejects_non_finite_omega(self, reference_medium, omega):
        with pytest.raises(ValueError, match="omega"):
            sellmeir_bracket(reference_medium, omega)


class TestRefractiveIndex:
    def test_vacuum(self, vacuum):
        iv = refractive_index(vacuum, 0.77)
        assert iv.n == 1.0 + 0.0j
        assert iv.band_kind is BandKind.TRANSMISSION

    def test_resonance_zero(self, strong_medium):
        iv = refractive_index(strong_medium, 1.0)
        assert iv.n == 0.0
        assert iv.band_kind is BandKind.RESONANCE_ZERO

    def test_transmission_value(self, strong_medium):
        iv = refractive_index(strong_medium, 2.0)
        assert iv.band_kind is BandKind.TRANSMISSION
        assert iv.n.imag == 0.0
        assert iv.n.real == pytest.approx(math.sqrt(6.0 / 7.0), rel=1e-14)

    def test_absorption_is_pure_imaginary_with_decay_sign(self, reference_medium):
        assert sellmeir_bracket(reference_medium, 0.95) < 0.0
        iv = refractive_index(reference_medium, 0.95)
        assert iv.band_kind is BandKind.ABSORPTION
        assert iv.n.real == 0.0
        assert iv.n.imag > 0.0

    def test_index_squared_times_bracket_is_one(self, reference_medium, two_species_medium):
        rng = np.random.default_rng(7)
        for medium in (reference_medium, two_species_medium):
            for omega in rng.uniform(0.05, 2.8, size=300):
                iv = refractive_index(medium, omega)
                if iv.band_kind in (BandKind.RESONANCE_ZERO, BandKind.POLE_DIVERGENT):
                    continue
                product = iv.n**2 * sellmeir_bracket(medium, omega)
                assert abs(product - 1.0) < 1e-12

    def test_divergence_approaching_edge_from_below(self, reference_medium):
        iv = refractive_index(reference_medium, 0.9 - 1e-6)
        assert iv.band_kind is BandKind.TRANSMISSION
        assert iv.n.real > 1e2

    def test_index_vanishes_approaching_resonance(self, reference_medium):
        iv = refractive_index(reference_medium, 1.0 - 1e-6)
        assert iv.band_kind is BandKind.ABSORPTION
        assert abs(iv.n) < 5e-3

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_rejects_non_finite_omega(self, reference_medium, omega):
        # +inf used to classify as transmission with n = 1
        with pytest.raises(ValueError, match="omega"):
            refractive_index(reference_medium, omega)

    def test_one_bracket_for_floats_and_arrays(self, two_species_medium):
        # the scalar index and the grid share _bracket: on the whole array it
        # gives, bytes and all, what it gives on each float
        pairs = _pairs(two_species_medium)
        resonances = [w for w, _ in pairs]
        offsets = [w * (1.0 + s) for w in resonances for s in (-1.5e-9, -5e-10, 0.0, 5e-10, 1.5e-9)]
        grid = np.linspace(0.05, 3.0, 3001).tolist() + offsets
        with np.errstate(divide="ignore"):
            on_array = _bracket(np.array(grid), pairs)
        kinds = set()
        for omega, bracket in zip(grid, on_array.tolist()):
            kind = refractive_index(two_species_medium, omega).band_kind
            if kind is BandKind.RESONANCE_ZERO:
                assert bracket == -math.inf  # a float division by zero raises instead
            else:
                assert np.float64(bracket).tobytes() == np.float64(_bracket(omega, pairs)).tobytes()
            # n0 = 0 at the resonances themselves and nowhere else
            assert (kind is BandKind.RESONANCE_ZERO) == (omega in resonances)
            kinds.add(kind)
        assert kinds == {BandKind.TRANSMISSION, BandKind.ABSORPTION, BandKind.RESONANCE_ZERO}


class TestBandStructure:
    def test_vacuum_single_transmission_band(self, vacuum):
        bands = band_structure(vacuum, 5.0)
        assert len(bands) == 1
        assert bands[0].kind is BandKind.TRANSMISSION
        assert (bands[0].lo, bands[0].hi) == (0.0, 5.0)

    def test_reference_bands(self, reference_medium):
        bands = band_structure(reference_medium, 2.0)
        kinds = [b.kind for b in bands]
        assert kinds == [BandKind.TRANSMISSION, BandKind.ABSORPTION, BandKind.TRANSMISSION]
        assert bands[0].hi == bands[1].lo
        assert bands[1].lo == pytest.approx(0.9, abs=1e-12)
        assert bands[1].hi == 1.0
        assert bands[2].hi == 2.0

    def test_bands_disjoint_ordered_and_cover(self, two_species_medium):
        bands = band_structure(two_species_medium, 3.0)
        assert bands[0].lo == 0.0
        assert bands[-1].hi == 3.0
        for left, right in zip(bands, bands[1:]):
            assert left.hi == right.lo
        absorption = [b for b in bands if b.kind is BandKind.ABSORPTION]
        assert len(absorption) == 2
        assert [b.hi for b in absorption] == [1.0, 2.0]

    def test_dense_sign_scan_agrees(self, two_species_medium):
        # brute-force oracle: classify a dense grid by the sign of the bracket
        bands = band_structure(two_species_medium, 3.0)
        species = [(s.omega_res, s.coupling_g) for s in two_species_medium.species]
        omegas = np.linspace(1e-4, 3.0, 200_001)
        brackets = np.ones_like(omegas)
        for w_res, g in species:
            brackets -= g / ((w_res - omegas) * (w_res + omegas))
        for band in bands:
            inside = (omegas > band.lo + 1e-9) & (omegas < band.hi - 1e-9)
            signs = brackets[inside]
            if band.kind is BandKind.TRANSMISSION:
                assert np.all(signs > 0.0)
            else:
                assert np.all(signs < 0.0)

    def test_classification_trichotomy_on_grid(self, reference_medium):
        bands = band_structure(reference_medium, 2.0)
        for omega in np.linspace(0.01, 1.99, 4001):
            iv = refractive_index(reference_medium, omega)
            if iv.band_kind in (BandKind.RESONANCE_ZERO, BandKind.POLE_DIVERGENT):
                continue
            holder = next(b for b in bands if b.lo < omega <= b.hi)
            if abs(omega - holder.lo) < 1e-9 or abs(omega - holder.hi) < 1e-9:
                continue  # band boundaries are edge/resonance points
            assert iv.band_kind is holder.kind

    def test_requires_omega_max_beyond_resonances(self, reference_medium):
        with pytest.raises(ValueError):
            band_structure(reference_medium, 0.95)

    def test_overcoupled_configuration_rejected(self):
        # the summed couplings push the static bracket negative: no edge below Omega_1
        with pytest.raises(ValueError, match="coupling_g"):
            MediumSpec(species=(OscillatorSpecies(1.0, 0.8), OscillatorSpecies(1.5, 1.2)))


class TestDispersion:
    def test_vacuum_linear(self, vacuum):
        roots = dispersion_omega_of_k(vacuum, 3.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(3.0, rel=1e-12)

    def test_single_species_two_branches(self, reference_medium):
        for k in (0.2, 1.0, 5.0):
            roots = dispersion_omega_of_k(reference_medium, k)
            assert len(roots) == 2
            assert roots[0] < 0.9 < 1.0 < roots[1]
            assert roots == sorted(roots)

    def test_branch_count_matches_sign_scan(self, two_species_medium):
        # oracle: dense scan of the sign of omega^2 - (kc)^2 * bracket(omega)
        k = 1.5
        roots = dispersion_omega_of_k(two_species_medium, k)
        assert len(roots) == 3
        species = [(s.omega_res, s.coupling_g) for s in two_species_medium.species]
        omegas = np.linspace(1e-3, 10.0, 400_001)
        brackets = np.ones_like(omegas)
        for w_res, g in species:
            brackets -= g / ((w_res - omegas) * (w_res + omegas))
        h = omegas**2 - k**2 * brackets
        crossings = omegas[:-1][np.sign(h[:-1]) * np.sign(h[1:]) < 0]
        # discard sign flips caused by the bracket poles themselves
        genuine = [
            w
            for w in crossings
            if all(abs(w - w_res) > 1e-3 for w_res, _ in species)
            and min(abs(w - r) for r in roots) < 1e-3
        ]
        assert len(genuine) == len(roots)

    def test_roundtrip_with_refractive_index(self, two_species_medium):
        for k in (0.4, 1.1, 2.7):
            for omega in dispersion_omega_of_k(two_species_medium, k):
                n = refractive_index(two_species_medium, omega).n.real
                assert omega * n == pytest.approx(k, rel=1e-10)

    def test_root_next_to_a_pole_is_returned(self):
        # the middle root lies 4e-4 above the pole at 1.748, where phi is
        # steep; bisected to a relative width of 1e-13 it left a residual of
        # 4.33e-10, above the w^2-scaled residual bound then applied, and
        # raised RootBracketingFailure
        medium = MediumSpec(species=(OscillatorSpecies(1.748, 0.4309), OscillatorSpecies(2.004, 1.4417)))
        roots = dispersion_omega_of_k(medium, 0.1)
        assert len(roots) == 3
        assert roots[0] < band_edges(medium)[0] and 1.748 < roots[1] < band_edges(medium)[1] < 2.004 < roots[2]

    def test_roots_next_to_two_close_poles_are_within_an_ulp_of_40_digits(self):
        # a w^2-scaled residual check rejected the middle root, 5e-4 from both
        # poles, with a residual of 7.3e-10, although it is within 7.3e-18
        # relative of the 40-digit root
        species = ((1.0, 0.25), (1.001, 0.2505002499999999))
        k = 10.009999999999998
        medium = MediumSpec(species=tuple(OscillatorSpecies(w, g) for w, g in species))
        roots = dispersion_omega_of_k(medium, k)
        with mpmath.workdps(40):
            pairs = [(mpmath.mpf(w), mpmath.mpf(g)) for w, g in species]
            inv_k = 1 / mpmath.mpf(k)
            lows = [mpmath.mpf(0), pairs[0][0], pairs[1][0]]
            highs = [pairs[0][0], pairs[1][0], mpmath.mpf(20)]
            for root, lo, hi in zip(roots, lows, highs, strict=True):
                for _ in range(160):
                    mid = (lo + hi) / 2
                    if 1 - mpmath.fsum(g / ((w - mid) * (w + mid)) for w, g in pairs) - (mid * inv_k) ** 2 > 0:
                        lo = mid
                    else:
                        hi = mid
                assert abs(mpmath.mpf(root) - lo) <= math.ulp(root)

    def test_huge_k_gives_finite_roots(self, reference_medium):
        # (kc)^2 in the residual check overflowed into a bare OverflowError at 1e300
        assert dispersion_omega_of_k(reference_medium, 1e300) == [0.8999999999999999, 1e300]
        # 0.5 * (a + b) overflows once a + b passes the largest float
        low, high = dispersion_omega_of_k(reference_medium, 1.5e308)
        assert low == 0.8999999999999999
        assert 1.0 < high < math.inf

    def test_unisolable_edge_raises_bracketing_failure(self):
        # the same failure type as a branch; MediumSpec turns it into a ValueError
        with pytest.raises(RootBracketingFailure, match=r"\(1\.0, 1\.0000000000000002\) at kc=inf"):
            _secular_roots(((1.0, 0.1), (math.nextafter(1.0, math.inf), 0.1)))

    @pytest.mark.parametrize("k", [1e-160, 1e-300])
    def test_tiny_k_raises_bracketing_failure(self, reference_medium, k):
        # the top branch lies within an ulp of Omega; (w / kc) ** 2 raised OverflowError
        with pytest.raises(RootBracketingFailure, match="no sign change"):
            dispersion_omega_of_k(reference_medium, k)

    def test_k_whose_kc_overflows_is_rejected_naming_it(self):
        # with k c = inf the bisection returned the one band edge in place of two branches
        si = MediumSpec(species=(OscillatorSpecies(2.2e15, 0.19 * 2.2e15**2),), unit_mode="SI")
        with pytest.raises(RangeError, match=r"k=1e\+301: the frequency scale k c is not finite"):
            dispersion_omega_of_k(si, 1e301)
        assert len(dispersion_omega_of_k(si, 1e299)) == 2

    def test_rejects_nonpositive_k(self, vacuum):
        with pytest.raises(ValueError):
            dispersion_omega_of_k(vacuum, -2.0)

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_rejects_non_finite_k(self, reference_medium, k):
        # +inf used to end in a RootBracketingFailure
        with pytest.raises(ValueError, match="k must be positive and finite"):
            dispersion_omega_of_k(reference_medium, k)


class TestBandEdges:
    def test_pole_adjacent_window(self, two_species_medium):
        edges = band_edges(two_species_medium)
        omegas = [0.5, edges[0] * (1 - 5e-10), edges[0] * (1 + 2e-9), edges[1] * (1 + 5e-10)]
        assert pole_adjacent(two_species_medium, omegas).tolist() == [False, True, False, True]

    def test_reference_edge(self, reference_medium):
        # bisected until no float lies between the ends: 0.8999999999999999,
        # where a relative stop width of 1e-13 left 0.9000000000000057
        (edge,) = band_edges(reference_medium)
        assert abs(edge - 0.9) <= math.ulp(0.9)

    @pytest.mark.parametrize(
        "species",
        [
            [(1.0, 1.0)],
            [(1.0, 0.3), (1.7, 0.69 * 1.7**2), (4.0, 0.01 * 4.0**2)],
            [(2.2e15, 0.6 * 2.2e15**2), (3.1e15, 0.4 * 3.1e15**2)],
        ],
        ids=["one", "three", "SI"],
    )
    def test_near_critical_edge_stays_in_its_pole_window(self, species):
        # 1 - S just above CRITICAL_COUPLING_MARGIN: the lowest edge falls
        # toward zero frequency, where rounding moves it by about
        # 1e-16 / (1 - S) relative; it must stay inside its TOL_OMEGA window
        static = 1.0 - 1.01 * CRITICAL_COUPLING_MARGIN
        species = [(w, g * static) for w, g in species]
        medium = MediumSpec(species=tuple(OscillatorSpecies(w, g) for w, g in species))
        with mpmath.workdps(40):
            pairs = [(mpmath.mpf(w), mpmath.mpf(g)) for w, g in species]
            lo, hi = mpmath.mpf(0), pairs[0][0]
            for _ in range(160):
                mid = (lo + hi) / 2
                if 1 - mpmath.fsum(g / (w * w - mid * mid) for w, g in pairs) > 0:
                    lo = mid
                else:
                    hi = mid
            exact = lo
            error = float(abs(mpmath.mpf(band_edges(medium)[0]) - exact) / exact)
        assert error <= 0.1 * TOL_OMEGA
        assert pole_adjacent(medium, [float(exact)]).tolist() == [True]

    def test_si_mode_scaling(self):
        scaled = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),))
        si = MediumSpec(
            species=(OscillatorSpecies(2.2e15, 0.19 * (2.2e15) ** 2),),
            half_length_L=1e-6,
            cross_section_A=1e-12,
            unit_mode="SI",
        )
        # same dimensionless medium when frequencies are measured in Omega units;
        # the SI bracket runs on g of about 9.2e29 without rescaling
        (edge_scaled,) = band_edges(scaled)
        (edge_si,) = band_edges(si)
        assert edge_si / 2.2e15 == pytest.approx(edge_scaled / 1.0, rel=1e-12)
        # transmission, absorption and transmission, away from the band edge
        # and the resonance, where the index is well conditioned
        for omega in (0.5, 0.95, 1.7):
            n_scaled = refractive_index(scaled, omega)
            n_si = refractive_index(si, omega * 2.2e15)
            assert n_si.band_kind is n_scaled.band_kind
            assert n_si.n == pytest.approx(n_scaled.n, rel=1e-12, abs=0.0)
        # k c in Omega units
        for kc in (0.2, 1.0, 5.0):
            roots_scaled = dispersion_omega_of_k(scaled, kc)
            roots_si = dispersion_omega_of_k(si, kc * 2.2e15 / si.c)
            assert [w / 2.2e15 for w in roots_si] == pytest.approx(roots_scaled, rel=1e-12, abs=0.0)
