import cmath
import json
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qslab.errors import PoleDivergentFrequency, RangeError
from qslab.medium import BandKind, MediumSpec, OscillatorSpecies, refractive_index
from qslab.oracle import transfer_matrix_rt
from qslab.slab import (
    GRID_BLOCK,
    greens_function,
    mode_function,
    resonance_coefficients,
    scatter_coefficients,
    scatter_on_grid,
)

DATA_DIR = Path(__file__).parent / "data"

EPS = np.finfo(float).eps


def load_fixture(name):
    return json.loads((DATA_DIR / name).read_text())


class TestScatterCoefficients:
    def test_vacuum_transparent(self, vacuum):
        for omega in (0.3, 1.0, 7.5):
            sol = scatter_coefficients(vacuum, omega)
            assert sol.R == 0.0
            assert sol.T == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "fixture_name", ["golden_scatter_g019.json", "golden_scatter_g05.json"]
    )
    def test_matches_golden_transfer_matrix_values(self, fixture_name):
        payload = load_fixture(fixture_name)
        spec = payload["provenance"]["medium"]
        medium = MediumSpec(
            species=tuple(
                OscillatorSpecies(o["omega_res"], o["coupling_g"])
                for o in spec["oscillators"]
            ),
            half_length_L=spec["half_length_L"],
        )
        tol = payload["provenance"]["tolerance"]
        for entry in payload["entries"]:
            sol = scatter_coefficients(medium, entry["omega"])
            assert abs(sol.R - complex(*entry["R"])) < tol
            assert abs(sol.T - complex(*entry["T"])) < tol

    def test_absorption_band_unitary_with_suppressed_transmission(self, reference_medium):
        sol = scatter_coefficients(reference_medium, 0.95)
        assert sol.n0.real == 0.0 and sol.n0.imag > 0.0
        assert abs(abs(sol.R) ** 2 + abs(sol.T) ** 2 - 1.0) < 1e-12
        assert abs(sol.T) < 1.0

    def test_unitarity_sweep_both_band_kinds(self, reference_medium):
        worst = 0.0
        for omega in np.linspace(0.1, 2.0, 2000):
            if abs(omega - 0.9) < 1e-9:
                continue
            sol = scatter_coefficients(reference_medium, omega)
            worst = max(worst, abs(abs(sol.R) ** 2 + abs(sol.T) ** 2 - 1.0))
        assert worst < 1e-12

    def test_pole_divergent_rejected(self):
        # Omega=2, g=3, omega=1 zeroes the bracket exactly in floats
        medium = MediumSpec(species=(OscillatorSpecies(2.0, 3.0),))
        assert refractive_index(medium, 1.0).band_kind is BandKind.POLE_DIVERGENT
        with pytest.raises(PoleDivergentFrequency):
            scatter_coefficients(medium, 1.0)
        with pytest.raises(PoleDivergentFrequency):
            scatter_on_grid(medium, [0.5, 1.0])

    def test_grid_returns_the_pointwise_index(self, reference_medium):
        # transmission, absorption, a bare resonance, 1e-10 above it (n0 = 0
        # only at the resonance itself) and transmission
        omegas = [0.5, 0.95, 1.0, 1.0 + 1e-10, 1.7]
        refl, trans, index = scatter_on_grid(reference_medium, omegas)
        pointwise = [refractive_index(reference_medium, w) for w in omegas]
        assert [iv.band_kind for iv in pointwise] == [
            BandKind.TRANSMISSION,
            BandKind.ABSORPTION,
            BandKind.RESONANCE_ZERO,
            BandKind.TRANSMISSION,
            BandKind.TRANSMISSION,
        ]
        assert index.tobytes() == np.array([iv.n for iv in pointwise]).tobytes()
        for j, omega in enumerate(omegas):
            sol = scatter_coefficients(reference_medium, omega)
            bound = 4.0 * EPS * (1.0 + abs(sol.n0))
            assert abs(refl[j] - sol.R) <= bound
            assert abs(trans[j] - sol.T) <= bound

    def test_grid_memory_does_not_grow_with_the_grid(self, reference_medium):
        # the kernel works GRID_BLOCK frequencies at a time, so its peak
        # beyond the three output arrays is the same for a 10x longer grid
        def peak_beyond_outputs(points):
            omegas = np.linspace(0.05, 2.0, points)
            tracemalloc.start()
            try:
                scatter_on_grid(reference_medium, omegas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 3 * omegas.size * np.dtype(complex).itemsize

        small, large = peak_beyond_outputs(20_001), peak_beyond_outputs(200_001)
        assert abs(large - small) <= GRID_BLOCK * np.dtype(complex).itemsize

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_rejects_non_finite_omega(self, reference_medium, omega):
        # +inf used to return R = T = nan without raising
        with pytest.raises(ValueError, match="omega"):
            scatter_coefficients(reference_medium, omega)
        with pytest.raises(ValueError, match="omega"):
            scatter_on_grid(reference_medium, [0.5, omega])

    def test_deep_gap_graceful_saturation(self):
        # |kappa| L ~ 300: T underflows smoothly, R keeps modulus one
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),), half_length_L=300.0)
        sol = scatter_coefficients(medium, 0.95)
        assert abs(sol.T) < 1e-100
        assert abs(sol.R) == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(sol.R.real) and np.isfinite(sol.R.imag)


class TestResonanceCoefficients:
    def test_half_half_split_at_unit_optical_thickness(self):
        refl, trans = resonance_coefficients(1.0, 1.0)
        assert abs(trans) ** 2 == pytest.approx(0.5, abs=1e-14)
        assert abs(refl) ** 2 == pytest.approx(0.5, abs=1e-14)

    def test_thin_slab_limit(self):
        refl, trans = resonance_coefficients(1e-9, 1.0)
        assert trans == pytest.approx(1.0, abs=1e-8)
        assert abs(refl) < 1e-8

    @pytest.mark.parametrize("omega", [math.inf, math.nan, 0.0])
    def test_rejects_bad_omega(self, omega):
        with pytest.raises(ValueError, match="omega"):
            resonance_coefficients(omega, 1.0)

    def test_unitary_everywhere(self):
        for theta in (0.1, 1.0, 4.2, 30.0):
            refl, trans = resonance_coefficients(theta, 1.0)
            assert abs(refl) ** 2 + abs(trans) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_general_formula_extrapolates_to_closed_form(self, reference_medium):
        omega_res = 1.0
        refl, trans = resonance_coefficients(omega_res, 1.0)
        lo = scatter_coefficients(reference_medium, omega_res * (1.0 - 1e-8))
        hi = scatter_coefficients(reference_medium, omega_res * (1.0 + 1e-8))
        assert abs(0.5 * (lo.R + hi.R) - refl) < 1e-10
        assert abs(0.5 * (lo.T + hi.T) - trans) < 1e-10

    def test_scatter_at_resonance_equals_closed_form(self, reference_medium):
        sol = scatter_coefficients(reference_medium, 1.0)
        refl, trans = resonance_coefficients(1.0, 1.0)
        assert abs(sol.R - refl) < 1e-14
        assert abs(sol.T - trans) < 1e-14

    def test_continuity_error_is_first_order_in_detuning(self, reference_medium):
        refl, trans = resonance_coefficients(1.0, 1.0)
        errs = []
        for offset in (1e-4, 1e-5, 1e-6):
            sol = scatter_coefficients(reference_medium, 1.0 + offset)
            errs.append(abs(sol.R - refl) + abs(sol.T - trans))
        assert errs[0] > errs[1] > errs[2]
        # O(|omega - Omega|): each decade of detuning buys a decade of error
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.2)

    def test_si_units(self):
        c = 299792458.0
        length = 1.0 / (2.0 * math.pi)
        omega = c / length  # theta = omega L / c = 1
        refl, trans = resonance_coefficients(omega, length, c=c)
        assert abs(trans) ** 2 == pytest.approx(0.5, abs=1e-14)


def reference_coefficients(medium, omega):
    """R and T to 40 digits, with n0 from the Sellmeir bracket in 40 digits too."""
    with mpmath.workdps(40):
        w = mpmath.mpf(omega)
        bracket = 1 - mpmath.fsum(
            mpmath.mpf(s.coupling_g) / (mpmath.mpf(s.omega_res) ** 2 - w**2) for s in medium.species
        )
        return textbook_coefficients(mpmath.sqrt(1 / bracket), w / medium.c, medium.half_length_L)


def textbook_coefficients(n0, k, length):
    """R and T to 40 digits from the textbook sin/cos form, written apart from qslab."""
    with mpmath.workdps(40):
        n0, k, length = mpmath.mpmathify(n0), mpmath.mpf(k), mpmath.mpf(length)
        phase = 2 * n0 * k * length
        denom = 2 * n0 * mpmath.cos(phase) - 1j * (n0**2 + 1) * mpmath.sin(phase)
        e2 = mpmath.exp(-2j * k * length)
        refl = -1j * (n0**2 - 1) * mpmath.sin(phase) * e2 / denom
        return complex(refl), complex(2 * n0 * e2 / denom)


# Both flanks of the reference medium's resonance at 1, from about 1e-9 out to
# 1e-3: imaginary n0 below, real n0 above, |n0| >= 1e-4.  Closer points are
# in NEAR_RESONANCE_OFFSETS.
FLANK_OMEGAS = [1.0000000010244732] + [
    1.0 + sign * 10.0**-u
    for u in (8.9, 8.7, 8.5, 8.0, 7.5, 7.0, 6.0, 4.5, 3.0)
    for sign in (-1.0, 1.0)
]

# Detunings from the resonance at 1 down to 1e-14, where |n0| falls to 3e-7;
# only the resonance itself has n0 = 0.
NEAR_RESONANCE_OFFSETS = [sign * d for d in (1e-14, 1e-12, 1e-10, 9e-10) for sign in (-1.0, 1.0)]


class TestResonanceFlanks:
    """The closed form on both sides of a bare resonance, where n0 -> 0."""

    @pytest.mark.parametrize("omega", FLANK_OMEGAS)
    def test_matches_a_40_digit_reference(self, reference_medium, omega):
        sol = scatter_coefficients(reference_medium, omega)
        (grid_refl,), (grid_trans,), _ = scatter_on_grid(reference_medium, [omega])
        refl, trans = reference_coefficients(reference_medium, omega)
        assert abs(sol.R - refl) <= 1e-14
        assert abs(sol.T - trans) <= 1e-14
        assert abs(grid_refl - refl) <= 1e-14
        assert abs(grid_trans - trans) <= 1e-14

    @pytest.mark.parametrize("length", [1.0, 30.0])
    @pytest.mark.parametrize("offset", NEAR_RESONANCE_OFFSETS)
    def test_matches_a_40_digit_reference_next_to_the_resonance(self, offset, length):
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),), half_length_L=length)
        sol = scatter_coefficients(medium, 1.0 + offset)
        (grid_refl,), (grid_trans,), _ = scatter_on_grid(medium, [1.0 + offset])
        refl, trans = reference_coefficients(medium, 1.0 + offset)
        assert sol.n0 != 0.0
        assert abs(sol.R - refl) <= 1e-14
        assert abs(sol.T - trans) <= 1e-14
        assert abs(grid_refl - refl) <= 1e-14
        assert abs(grid_trans - trans) <= 1e-14

    @pytest.mark.parametrize("omega_res", [1.0, 2.0])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_mode_function_continuous_across_the_resonance_window(
        self, two_species_medium, side, omega_res
    ):
        # 2e-9 from the resonance (|n0| about 2e-4) the field meets the flat
        # zero-index field at the resonance to first order in the detuning,
        # about 1e-7 here
        for omega in (omega_res * (1.0 - 2e-9), omega_res * (1.0 + 2e-9)):
            for x in (-2.5, -1.0, -0.6, 0.0, 0.35, 1.0, 2.0):
                at = mode_function(two_species_medium, omega_res, side, x)
                near = mode_function(two_species_medium, omega, side, x)
                assert near.region == at.region
                assert abs(near.value - at.value) < 1e-6
                assert abs(near.derivative - at.derivative) < 1e-6 * omega_res

    @pytest.mark.parametrize("omega_res", [1.0, 2.0])
    def test_greens_function_continuous_across_the_resonance_window(
        self, two_species_medium, omega_res
    ):
        # as for the mode function: first order in the 2e-9 detuning
        for omega in (omega_res * (1.0 - 2e-9), omega_res * (1.0 + 2e-9)):
            for x, src in ((0.3, -0.4), (-0.9, 0.9), (0.5, 0.2), (1.0, -1.0), (-0.25, 0.7)):
                at = greens_function(two_species_medium, omega_res, x, src, with_derivative=True)
                near = greens_function(two_species_medium, omega, x, src, with_derivative=True)
                assert abs(near.value - at.value) < 1e-6 / omega_res
                assert abs(near.derivative - at.derivative) < 1e-6


class TestOracleDeepInTheGap:
    """The star-product oracle where P = exp(2i n0 k L) is e^{-40} and e^{-80}."""

    @pytest.mark.parametrize("depth", [20.0, 40.0])
    @pytest.mark.parametrize("omega", [0.905, 0.95, 0.99])
    def test_matches_a_40_digit_reference(self, reference_medium, omega, depth):
        # L puts |Im n0| k L at depth; the reference starts from qslab's n0,
        # since the float index itself is ill-conditioned near the band edge
        n0 = refractive_index(reference_medium, omega).n
        length = depth / (n0.imag * omega)
        refl, trans = transfer_matrix_rt(n0, omega, length)
        ref_refl, ref_trans = textbook_coefficients(n0, omega, length)
        assert abs(refl - ref_refl) <= 1e-14
        assert abs(trans - ref_trans) <= 1e-14


class TestOracleAgainstTheTextbook:
    """The star-product oracle against 40 digits across the indices and thicknesses it meets."""

    def test_scalar_and_array_calls_within_the_rounding_bound(self):
        # real n0 from 1e-6 to 300 and imaginary n0 from 1e-6 to 10, 1,500
        # each, with w = kL log-uniform from 1e-4 to min(30, 40 / |n0|)
        rng = np.random.default_rng(7)
        size = 10.0 ** np.concatenate([rng.uniform(-6.0, math.log10(300.0), 1500), rng.uniform(-6.0, 1.0, 1500)])
        n0 = np.concatenate([size[:1500] + 0j, 1j * size[1500:]])
        w = 10.0 ** rng.uniform(-4.0, np.log10(np.minimum(30.0, 40.0 / size)))
        refl, trans = transfer_matrix_rt(n0, w, 1.0)
        for i, (n, kl) in enumerate(zip(n0.tolist(), w.tolist())):
            ref_refl, ref_trans = textbook_coefficients(n, kl, 1.0)
            # eps / |n0| from the loop factor cancelling as n0 -> 0, eps |n0|
            # from the faces at high index, and the phases 2 n0 w and 2 w
            # rounded to eps relative; on these draws the worst is 0.55 of it
            bound = EPS * (1.0 + abs(n) + 1.0 / abs(n)) * (1.0 + kl * (1.0 + abs(n)))
            for r, t in (transfer_matrix_rt(n, kl, 1.0), (refl[i], trans[i])):
                assert max(abs(r - ref_refl), abs(t - ref_trans)) <= bound, (n, kl)


class TestModeFunction:
    def test_vacuum_free_propagation(self, vacuum):
        for x in (-3.0, 0.2, 4.5):
            sample = mode_function(vacuum, 1.3, "left", x)
            assert sample.value == pytest.approx(cmath.exp(1.3j * x), abs=1e-14)
            assert sample.derivative == pytest.approx(1.3j * cmath.exp(1.3j * x), abs=1e-14)

    def test_transmitted_wave_deep_in_region_three(self, reference_medium):
        sol = scatter_coefficients(reference_medium, 0.6)
        sample = mode_function(reference_medium, 0.6, "left", 25.0)
        assert sample.region == "III"
        assert sample.value == pytest.approx(sol.T * cmath.exp(0.6j * 25.0), abs=1e-12)

    def test_reflected_superposition_in_region_one(self, reference_medium):
        sol = scatter_coefficients(reference_medium, 0.6)
        x = -8.0
        sample = mode_function(reference_medium, 0.6, "left", x)
        expected = cmath.exp(0.6j * x) + sol.R * cmath.exp(-0.6j * x)
        assert sample.region == "I"
        assert sample.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("omega", [0.4, 0.95, 1.31])
    def test_continuity_at_both_seams(self, reference_medium, side, omega):
        n0 = refractive_index(reference_medium, omega).n
        for seam in (-1.0, 1.0):
            inner = mode_function(reference_medium, omega, side, seam)
            outer = mode_function(reference_medium, omega, side, seam * (1.0 + 1e-12))
            scale = max(1.0, abs(inner.value))
            assert abs(inner.value - outer.value) < 1e-10 * scale
            # electric-field matching: derivative over n^2 is the continuous flux
            flux_inner = inner.derivative / n0**2
            flux_outer = outer.derivative  # n = 1 outside
            assert abs(flux_inner - flux_outer) < 1e-10 * max(1.0, abs(flux_inner))

    def test_interior_amplitude_consistency_with_exterior(self, reference_medium):
        # region-II evaluation from B amplitudes must match the R, T forms at the seams
        for omega in (0.55, 0.95, 1.6):
            sol = scatter_coefficients(reference_medium, omega)
            k = sol.k
            left = mode_function(reference_medium, omega, "left", -1.0)
            expected = cmath.exp(-1j * k) + sol.R * cmath.exp(1j * k)
            assert abs(left.value - expected) < 1e-10
            right = mode_function(reference_medium, omega, "left", 1.0)
            assert abs(right.value - sol.T * cmath.exp(1j * k)) < 1e-10

    def test_right_incidence_mirror_symmetry(self, reference_medium):
        # symmetric slab: u_r(x) = u_l(-x) and u_r'(x) = -u_l'(-x), exactly,
        # in both band kinds and at the bare resonance, in all three regions
        for omega in (0.45, 0.95, 1.0):
            for x in (-2.2, -1.5, -1.0, -0.4, 0.0, 0.7, 1.0, 2.2):
                left = mode_function(reference_medium, omega, "left", -x)
                right = mode_function(reference_medium, omega, "right", x)
                assert right.value == left.value
                assert right.derivative == -left.derivative
                assert right.region == {"I": "III", "II": "II", "III": "I"}[left.region]

    def test_reciprocity_of_transmission(self, reference_medium):
        # transmitted amplitude read off far asymptotics is identical both ways
        omega = 0.8
        sol = scatter_coefficients(reference_medium, omega)
        left_tx = mode_function(reference_medium, omega, "left", 30.0)
        right_tx = mode_function(reference_medium, omega, "right", -30.0)
        t_left = left_tx.value / cmath.exp(1j * sol.k * 30.0)
        t_right = right_tx.value / cmath.exp(-1j * sol.k * -30.0)
        assert abs(t_left - t_right) < 1e-12
        assert abs(t_left - sol.T) < 1e-12

    def test_constant_interior_at_resonance(self, reference_medium):
        # with n0 = 0 the interior field is flat: c e^{-i omega L / c}/(c - i omega L)
        expected = cmath.exp(-1j) / (1.0 - 1j)
        for side in ("left", "right"):
            for x in (-0.99, -0.3, 0.0, 0.62, 0.99):
                sample = mode_function(reference_medium, 1.0, side, x)
                assert abs(sample.value - expected) < 1e-14
                assert sample.derivative == 0.0

    def test_resonance_interior_is_kappa_to_zero_limit(self, reference_medium):
        # general region-II form evaluated just off resonance approaches the flat value
        expected = cmath.exp(-1j) / (1.0 - 1j)
        sample = mode_function(reference_medium, 1.0 + 1e-7, "left", 0.37)
        assert abs(sample.value - expected) < 1e-6

    def test_evanescent_decay_across_gap_interior(self, reference_medium):
        xs = np.linspace(-1.0, 1.0, 100)
        mags = [abs(mode_function(reference_medium, 0.95, "left", x).value) for x in xs]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_defining_equation_residual(self, reference_medium):
        # second-order stencil applied to u must satisfy the field equation
        h = 1e-4
        for omega, x in ((0.6, -2.3), (0.6, 0.4), (0.95, 0.2), (1.5, 1.9)):
            n = refractive_index(reference_medium, omega).n if abs(x) < 1.0 else 1.0
            u = [
                mode_function(reference_medium, omega, "left", x + dx).value
                for dx in (-h, 0.0, h)
            ]
            second = (u[0] - 2.0 * u[1] + u[2]) / h**2
            residual = abs(second / n**2 + omega**2 * u[1])
            assert residual < 1e-6 * abs(omega**2 * u[1])

    def test_rejects_unknown_side(self, vacuum):
        with pytest.raises(ValueError):
            mode_function(vacuum, 1.0, "up", 0.0)

    def test_overflowing_phase_raises_naming_the_position(self, reference_medium):
        # e^{i w x} with w x = inf was NaN, or a math domain error in cmath.exp
        with pytest.raises(RangeError, match=r"^x=1e\+308: the phase omega x / c overflows"):
            mode_function(reference_medium, 3.0, "left", 1e308)
        assert cmath.isfinite(mode_function(reference_medium, 3.0, "right", -5e307).value)


class TestGreensFunction:
    def test_overflowing_phase_raises_naming_the_position(self, reference_medium):
        with pytest.raises(RangeError, match=r"^x_src=-1e\+308: the phase omega x / c overflows"):
            greens_function(reference_medium, 3.0, 0.0, -1e308)
        with pytest.raises(RangeError, match=r"^x=1e\+308"):
            greens_function(reference_medium, 3.0, 1e308, 0.0)

    def test_vacuum_closed_form(self, vacuum):
        omega = 1.1
        for x, src in ((0.4, -0.8), (-2.0, 3.0), (5.0, 1.0)):
            gv = greens_function(vacuum, omega, x, src)
            expected = cmath.exp(1j * omega * abs(x - src)) / (2j * omega)
            assert abs(gv.value - expected) < 1e-13

    def test_symmetry_on_random_pairs(self, reference_medium):
        rng = np.random.default_rng(11)
        for omega in (0.5, 0.95, 1.4):
            for _ in range(100):
                x, src = rng.uniform(-3.0, 3.0, size=2)
                forward = greens_function(reference_medium, omega, x, src).value
                backward = greens_function(reference_medium, omega, src, x).value
                assert abs(forward - backward) <= 1e-12 * max(1.0, abs(forward))

    def test_outgoing_asymptotics(self, reference_medium):
        omega = 0.7
        g1 = greens_function(reference_medium, omega, 40.0, 0.1).value
        g2 = greens_function(reference_medium, omega, 41.5, 0.1).value
        assert abs(g2 / g1 - cmath.exp(1j * omega * 1.5)) < 1e-10
        g1 = greens_function(reference_medium, omega, -40.0, 0.1).value
        g2 = greens_function(reference_medium, omega, -41.5, 0.1).value
        assert abs(g2 / g1 - cmath.exp(1j * omega * 1.5)) < 1e-10

    @pytest.mark.parametrize("src", [0.33, -0.7, 1.8, -2.5])
    @pytest.mark.parametrize("omega", [0.6, 0.95])
    def test_flux_derivative_jump_is_unity(self, reference_medium, src, omega):
        # integrate the defining equation across the source: (c^2/n^2) [dG/dx] = 1;
        # one-sided second-order stencils give the limiting slopes at the source
        eps = 1e-6
        n = refractive_index(reference_medium, omega).n if abs(src) < 1.0 else 1.0

        def g(x):
            return greens_function(reference_medium, omega, x, src).value

        slope_right = (-3.0 * g(src) + 4.0 * g(src + eps) - g(src + 2 * eps)) / (2 * eps)
        slope_left = (3.0 * g(src) - 4.0 * g(src - eps) + g(src - 2 * eps)) / (2 * eps)
        jump = (slope_right - slope_left) / n**2
        assert abs(jump - 1.0) < 1e-6

    def test_derivative_matches_finite_differences(self, reference_medium):
        omega, src = 0.8, 0.25
        for x in (-1.7, 0.6, 2.4):
            gv = greens_function(reference_medium, omega, x, src, with_derivative=True)
            h = 1e-7
            fd = (
                greens_function(reference_medium, omega, x + h, src).value
                - greens_function(reference_medium, omega, x - h, src).value
            ) / (2 * h)
            assert abs(gv.derivative - fd) < 1e-6 * max(1.0, abs(fd))

    def test_derivative_rejected_at_source(self, vacuum):
        with pytest.raises(ValueError):
            greens_function(vacuum, 1.0, 0.5, 0.5, with_derivative=True)

    def test_value_continuous_at_source(self, reference_medium):
        omega, src = 0.75, 0.4
        at = greens_function(reference_medium, omega, src, src).value
        just_left = greens_function(reference_medium, omega, src - 1e-9, src).value
        just_right = greens_function(reference_medium, omega, src + 1e-9, src).value
        assert abs(at - just_left) < 1e-8
        assert abs(at - just_right) < 1e-8

    def test_defining_equation_residual_away_from_source(self, reference_medium):
        omega, src = 0.85, -0.2
        h = 1e-4
        for x in (-2.1, 0.5, 1.6):
            n = refractive_index(reference_medium, omega).n if abs(x) < 1.0 else 1.0
            g = [
                greens_function(reference_medium, omega, x + dx, src).value
                for dx in (-h, 0.0, h)
            ]
            second = (g[0] - 2.0 * g[1] + g[2]) / h**2
            residual = abs(second / n**2 + omega**2 * g[1])
            assert residual < 1e-6 * abs(omega**2 * g[1])

    def test_finite_and_symmetric_where_transmission_underflows(self):
        # |kappa| L ~ 400: T is exactly 0, and G must never divide by it
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),), half_length_L=400.0)
        assert scatter_coefficients(medium, 0.95).T == 0.0
        for x, src in ((0.5, 0.2), (-500.0, -450.0), (-120.0, 390.0)):
            forward = greens_function(medium, 0.95, x, src).value
            assert cmath.isfinite(forward)
            assert forward == greens_function(medium, 0.95, src, x).value
        mirrored = greens_function(medium, 0.95, 500.0, 450.0).value
        assert greens_function(medium, 0.95, -500.0, -450.0).value == mirrored

    @pytest.mark.parametrize("src", [0.2, -150.0, 399.0])
    def test_flux_jump_is_unity_deep_in_a_gap(self, src):
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),), half_length_L=400.0)
        n = refractive_index(medium, 0.95).n
        eps = 1e-7
        right = greens_function(medium, 0.95, src + eps, src, with_derivative=True).derivative
        left = greens_function(medium, 0.95, src - eps, src, with_derivative=True).derivative
        assert abs((right - left) / n**2 - 1.0) < 1e-6

    def test_wronskian_constancy_inside_slab(self, reference_medium):
        # (c^2/n^2)(u_l u_r' - u_l' u_r) = -2 i omega c T throughout region II
        omega = 0.95
        sol = scatter_coefficients(reference_medium, omega)
        n0 = sol.n0
        for x in (-0.8, -0.1, 0.5, 0.9):
            ul = mode_function(reference_medium, omega, "left", x)
            ur = mode_function(reference_medium, omega, "right", x)
            wronskian = (ul.value * ur.derivative - ul.derivative * ur.value) / n0**2
            assert abs(wronskian - (-2j * omega * sol.T)) < 1e-12
