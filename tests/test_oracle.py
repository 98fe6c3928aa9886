import cmath
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from qslab.errors import ConfigError, StiffnessFailure
from qslab.medium import MediumSpec, OscillatorSpecies, refractive_index
from qslab.oracle import (
    ODE_ATOL,
    ODE_RTOL,
    RAMP_LINEAR,
    RAMP_SMOOTHSTEP,
    SmoothedProfile,
    check_golden_fixture,
    ode_scatter,
    read_golden_fixture,
    right_incident_solution,
    source_integral_check,
    transfer_matrix_rt,
    write_golden_fixture,
)
from qslab.slab import scatter_coefficients

DATA_DIR = Path(__file__).parent / "data"


class TestTransferMatrix:
    def test_vacuum_transparent(self):
        refl, trans = transfer_matrix_rt(1.0 + 0j, 0.8, 1.0)
        assert abs(refl) < 1e-15
        assert trans == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_closed_forms_near_golden_point(self, strong_medium):
        # n0 = sqrt(6/7) at omega = 2 (scaled, kL = 2)
        n0 = refractive_index(strong_medium, 2.0).n
        refl, trans = transfer_matrix_rt(n0, 2.0, 1.0)
        sol = scatter_coefficients(strong_medium, 2.0)
        assert abs(refl - sol.R) < 1e-10
        assert abs(trans - sol.T) < 1e-10

    def test_unitary_for_pure_imaginary_index(self):
        refl, trans = transfer_matrix_rt(0.97j, 0.95, 1.0)
        assert abs(refl) ** 2 + abs(trans) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(trans) < 1.0

    def test_sweep_agreement_across_band_kinds(self, reference_medium):
        worst = 0.0
        for omega in np.linspace(0.1, 2.0, 1000):
            n0 = refractive_index(reference_medium, omega).n
            if n0 == 0.0:
                continue
            refl, trans = transfer_matrix_rt(n0, omega, 1.0)
            sol = scatter_coefficients(reference_medium, omega)
            worst = max(worst, abs(refl - sol.R), abs(trans - sol.T))
        assert worst < 1e-10

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            transfer_matrix_rt(1.5 + 0j, 0.0, 1.0)

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_rejects_non_finite_k(self, k):
        # inf used to return nan for R and T without raising
        with pytest.raises(ValueError, match="k must be positive and finite"):
            transfer_matrix_rt(1.5 + 0j, k, 1.0)

    @pytest.mark.parametrize("n0", [0j, complex(math.inf), complex(math.nan)])
    def test_rejects_degenerate_n0(self, n0):
        with pytest.raises(ValueError, match="n0 must be nonzero and finite"):
            transfer_matrix_rt(n0, 1.0, 1.0)


class TestSmoothedProfile:
    def test_flat_regions_and_continuity(self, reference_medium):
        profile = SmoothedProfile.for_medium(reference_medium, 0.5, 0.05)
        n_inside = refractive_index(reference_medium, 0.5).n
        assert profile.n_of_x(0.0) == n_inside
        assert profile.n_of_x(1.2) == 1.0
        assert profile.n_of_x(-3.0) == 1.0
        xs = np.linspace(-1.2, 1.2, 4001)
        values = np.array([profile.n_of_x(x) for x in xs])
        steps = np.abs(np.diff(values))
        assert steps.max() < 2.0 * abs(n_inside - 1.0) * (xs[1] - xs[0]) / 0.05

    def test_absorption_band_profile_keeps_eps_real(self, reference_medium):
        profile = SmoothedProfile.for_medium(reference_medium, 0.95, 0.05)
        for x in np.linspace(-1.1, 1.1, 101):
            n = profile.n_of_x(x)
            assert n.real == 0.0 or n.imag == 0.0
            assert profile.eps_of_x(x) == pytest.approx((n * n).real, abs=1e-15)

    def test_source_ramp_matches_support(self):
        profile = SmoothedProfile.resonance(1.0, 0.1)
        assert profile.source_amplitude(0.0) == 1.0
        assert profile.source_amplitude(1.05) == pytest.approx(0.5)
        assert profile.source_amplitude(1.1) == 0.0
        assert profile.source_amplitude(-1.2) == 0.0

    def test_delta_bounds_enforced(self):
        with pytest.raises(ValueError):
            SmoothedProfile(half_length_L=1.0, delta=0.2, n_inside=1.5 + 0j)
        with pytest.raises(ValueError):
            SmoothedProfile(half_length_L=1.0, delta=0.0, n_inside=1.5 + 0j)

    def test_general_complex_index_rejected(self):
        with pytest.raises(ValueError):
            SmoothedProfile(half_length_L=1.0, delta=0.05, n_inside=1.0 + 0.5j)


def two_component_pass(profile, omega, dense):
    """The plain (Lambda, Psi) pass of the ODE routes, written out: leg
    solutions and (a_in, a_out) for u_r started as e^{-ikx} at -L - delta."""
    c, k, omega_sq = profile.c, omega / profile.c, omega * omega

    def rhs(x, y):
        lam, psi = y
        return [profile.eps_of_x(x) / (c * c) * psi, -omega_sq * lam]

    xl, *legs = profile.breakpoints()
    y = np.asarray((cmath.exp(-1j * k * xl), -1j * k * c * c * cmath.exp(-1j * k * xl)))
    solutions, x0 = [], xl
    for x1 in legs:
        sol = solve_ivp(
            rhs, (x0, x1), y, method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL, dense_output=dense
        )
        solutions.append(sol)
        y, x0 = sol.y[:, -1], x1
    lam, psi = y
    plane = psi / (1j * k * c * c)
    a_in = 0.5 * (lam - plane) * cmath.exp(1j * k * x0)
    a_out = 0.5 * (lam + plane) * cmath.exp(-1j * k * x0)
    return solutions, a_in, a_out


PASS_PROFILES = [
    (SmoothedProfile(half_length_L=1.0, delta=0.01, n_inside=1.7 + 0j), 0.8),
    (SmoothedProfile(2.0, 0.05, 0.6j, ramp_shape=RAMP_SMOOTHSTEP, c=1.5), 1.1),
    (SmoothedProfile.resonance(1.0, 0.001, c=3.0), 2.0),
]


class TestOdeScatter:
    @pytest.mark.parametrize(
        "profile, omega", PASS_PROFILES, ids=["real", "imaginary", "resonance"]
    )
    def test_two_component_routes_are_the_plain_pass(self, profile, omega):
        # the carried source integral rides in a separate three-component
        # pass; ode_scatter and right_incident_solution stay bitwise the
        # plain two-component one
        _, a_in, a_out = two_component_pass(profile, omega, dense=False)
        assert ode_scatter(profile, omega) == (a_out / a_in, 1.0 / a_in)
        solutions, a_in, _ = two_component_pass(profile, omega, dense=True)
        dense = right_incident_solution(profile, omega)
        assert dense.scale == 1.0 / a_in
        for mine, ref in zip(dense.solutions, solutions, strict=True):
            assert np.array_equal(mine.t, ref.t) and np.array_equal(mine.y, ref.y)
            xs = np.linspace(ref.t[0], ref.t[-1], 7)
            assert np.array_equal(mine.sol(xs), ref.sol(xs))

    def test_vacuum_profile(self):
        profile = SmoothedProfile(half_length_L=1.0, delta=0.1, n_inside=1.0 + 0j)
        refl, trans = ode_scatter(profile, 1.3)
        assert abs(refl) < 1e-9
        assert abs(trans - 1.0) < 1e-9

    def test_delta_sequence_converges_to_closed_forms(self, reference_medium):
        omega = 0.5
        sol = scatter_coefficients(reference_medium, omega)
        errors = []
        for denominator in (10, 30, 100, 300):
            profile = SmoothedProfile.for_medium(reference_medium, omega, 1.0 / denominator)
            refl, trans = ode_scatter(profile, omega)
            errors.append(float(np.hypot(abs(refl - sol.R), abs(trans - sol.T))))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-3
        # the shrink factor per delta /= 3 step stays comfortably below 0.9
        for wide, narrow in zip(errors, errors[1:]):
            assert narrow / wide < 0.9

    def test_smoothstep_ramp_reaches_same_limit(self, reference_medium):
        omega = 0.5
        sol = scatter_coefficients(reference_medium, omega)
        profile = SmoothedProfile.for_medium(
            reference_medium, omega, 1.0 / 300, ramp_shape="smoothstep"
        )
        refl, trans = ode_scatter(profile, omega)
        assert np.hypot(abs(refl - sol.R), abs(trans - sol.T)) < 1e-3

    def test_absorption_band_flux_conservation(self, reference_medium):
        profile = SmoothedProfile.for_medium(reference_medium, 0.95, 0.01)
        refl, trans = ode_scatter(profile, 0.95)
        assert abs(refl) ** 2 + abs(trans) ** 2 == pytest.approx(1.0, abs=1e-8)
        assert abs(trans) < 1.0

    def test_flux_invariant_constant_along_trajectory(self, reference_medium):
        # Im(Lambda* Psi) is the conserved flux wherever n^2 is real
        profile = SmoothedProfile.for_medium(reference_medium, 0.95, 0.05)
        solution = right_incident_solution(profile, 0.95)
        fluxes = []
        for x in np.linspace(-1.04, 1.04, 41):
            lam, psi = solution(x)
            fluxes.append((np.conj(lam) * psi).imag)
        fluxes = np.array(fluxes)
        assert np.abs(fluxes - fluxes[0]).max() < 1e-8 * max(1.0, np.abs(fluxes[0]))

    @pytest.mark.parametrize("omega", [np.inf, np.nan])
    def test_ode_scatter_rejects_non_finite_omega(self, omega):
        # +inf used to fail inside solve_ivp on a non-finite initial state
        profile = SmoothedProfile(half_length_L=1.0, delta=0.1, n_inside=1.5 + 0j)
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            ode_scatter(profile, omega)

    @pytest.mark.parametrize("omega", [np.inf, np.nan])
    def test_right_incident_solution_rejects_non_finite_omega(self, omega):
        profile = SmoothedProfile(half_length_L=1.0, delta=0.1, n_inside=1.5 + 0j)
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            right_incident_solution(profile, omega)

    def test_extreme_evanescent_depth_reports_failure(self):
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),), half_length_L=400.0)
        profile = SmoothedProfile.for_medium(medium, 0.95, 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(StiffnessFailure):
                ode_scatter(profile, 0.95)


class TestSourceIntegral:
    def test_magnitude_decreases_monotonically(self):
        magnitudes = []
        for denominator in (10, 30, 100):
            profile = SmoothedProfile.resonance(1.0, 1.0 / denominator)
            magnitudes.append(abs(source_integral_check(profile, 1.0)))
        assert magnitudes[0] > magnitudes[1] > magnitudes[2]
        # The decay is first order in the ramp width: the interior of each ramp
        # contributes O(delta) because u_r'' ~ Psi/delta there, so a factor-10
        # width reduction shrinks |I| by almost exactly 10.  The first-order
        # law itself is asserted in test_first_order_law below and in
        # acceptance criterion 6.
        assert magnitudes[2] / magnitudes[0] < 0.15

    @pytest.mark.parametrize(
        "ramp_shape, shape_constant",
        [(RAMP_LINEAR, 1.0 / 12.0), (RAMP_SMOOTHSTEP, 9.0 / 140.0)],
        ids=[RAMP_LINEAR, RAMP_SMOOTHSTEP],
    )
    @pytest.mark.parametrize("denominator", [300, 1000])
    def test_first_order_law(self, ramp_shape, shape_constant, denominator):
        # I(delta) = 2i C k delta e^{-ikL} + O(delta^2); on thin ramps any
        # error floor in I, such as digits lost to the cancellation of the two
        # ramps, shows above the O(delta^2) term.  c != 1 and omega L / c != 1
        # keep k, L and omega apart.
        half_length, omega, c = 1.0, 2.0, 3.0
        k = omega / c
        delta = half_length / denominator
        profile = SmoothedProfile.resonance(half_length, delta, ramp_shape=ramp_shape, c=c)
        leading = 2j * shape_constant * k * delta * cmath.exp(-1j * k * half_length)
        integral = source_integral_check(profile, omega)
        assert abs(integral - leading) <= k * delta * abs(leading)

    def test_mode_is_flat_across_zero_index_interior(self):
        profile = SmoothedProfile.resonance(1.0, 0.01)
        solution = right_incident_solution(profile, 1.0)
        left, _ = solution(-1.0)
        right, _ = solution(1.0)
        assert abs(left - right) / abs(right) < 1e-6

    def test_flat_interior_matches_resonance_closed_form(self):
        # u_r inside the zero-index slab approaches c e^{-i omega L/c}/(c - i omega L)
        profile = SmoothedProfile.resonance(1.0, 0.005)
        solution = right_incident_solution(profile, 1.0)
        value, _ = solution(0.0)
        expected = cmath.exp(-1j) / (1.0 - 1j)
        assert abs(value - expected) < 5e-3

    @pytest.mark.parametrize("ramp_shape", [RAMP_LINEAR, RAMP_SMOOTHSTEP])
    @pytest.mark.parametrize("denominator", [10, 100, 1000])
    def test_matches_quadrature_of_the_dense_solution(self, ramp_shape, denominator):
        # independent route: adaptive quadrature of u_r(x) F'(x) over each
        # ramp leg, with u_r from the dense two-component solution and F'
        # written out per leg (+-rho'(tau)/delta, zero on the flat interior)
        half_length, omega, c = 1.0, 2.0, 3.0
        delta = half_length / denominator
        profile = SmoothedProfile.resonance(half_length, delta, ramp_shape=ramp_shape, c=c)
        u_r = right_incident_solution(profile, omega)

        def rho_slope(tau):
            return 6.0 * tau * (1.0 - tau) if ramp_shape == RAMP_SMOOTHSTEP else 1.0

        def leg(sign, lo, hi, tau):
            integrand = lambda x: u_r(x)[0] * sign * rho_slope(tau(x)) / delta  # noqa: E731
            value, _ = quad(integrand, lo, hi, complex_func=True, epsabs=1e-15, epsrel=1e-13)
            return value

        outer = half_length + delta
        reference = leg(1.0, -outer, -half_length, lambda x: (x + outer) / delta) + leg(
            -1.0, half_length, outer, lambda x: (outer - x) / delta
        )
        integral = source_integral_check(profile, omega)
        assert abs(integral - reference) <= 1e-8 * abs(reference)


class TestGoldenFixtures:
    def test_committed_fixtures_validate_against_closed_forms(self):
        for name in ("golden_scatter_g019.json", "golden_scatter_g05.json"):
            worst, tol = check_golden_fixture(DATA_DIR / name)
            assert worst < tol

    def test_regeneration_is_deterministic(self, tmp_path, reference_medium):
        committed = read_golden_fixture(DATA_DIR / "golden_scatter_g019.json")
        omegas = [entry["omega"] for entry in committed["entries"]]
        regenerated = write_golden_fixture(tmp_path / "fresh.json", reference_medium, omegas)
        for old, new in zip(committed["entries"], regenerated["entries"]):
            assert old["R"] == new["R"]
            assert old["T"] == new["T"]

    def test_corrupted_fixture_detected(self, tmp_path):
        payload = read_golden_fixture(DATA_DIR / "golden_scatter_g019.json")
        payload["entries"][2]["T"][0] += 1e-3
        bad_path = tmp_path / "corrupted.json"
        bad_path.write_text(json.dumps(payload))
        worst, tol = check_golden_fixture(bad_path)
        assert worst > tol

    def test_cross_section_written_only_in_si_mode(self, tmp_path, reference_medium):
        scaled = write_golden_fixture(tmp_path / "scaled.json", reference_medium, [0.5, 1.5])
        assert "cross_section_A" not in scaled["provenance"]["medium"]
        si_medium = MediumSpec(
            species=(OscillatorSpecies(2.2e15, 9.2e29),),
            half_length_L=1e-6,
            cross_section_A=1e-12,
            unit_mode="SI",
        )
        si = write_golden_fixture(tmp_path / "si.json", si_medium, [1e15, 3e15])
        assert si["provenance"]["medium"]["cross_section_A"] == 1e-12
        for name in ("scaled.json", "si.json"):
            worst, tol = check_golden_fixture(tmp_path / name)
            assert worst < tol

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda p: p["provenance"].pop("tolerance"), "'tolerance'"),
            (lambda p: p["provenance"].update(tolerance="tight"), "provenance.tolerance"),
            (lambda p: p["provenance"]["medium"].update(cross_section_A=1.0), "cross_section_A"),
            (lambda p: p["entries"][1].pop("omega"), "entries[1]"),
            (lambda p: p["entries"][2].update(T="1+0j"), "entries[2]"),
            (lambda p: p.pop("entries"), "'entries'"),
            (lambda p: p.update(entries=5), "entries: expected an array"),
        ],
    )
    def test_malformed_fixture_names_the_field(self, tmp_path, edit, named):
        payload = read_golden_fixture(DATA_DIR / "golden_scatter_g019.json")
        edit(payload)
        bad_path = tmp_path / "malformed.json"
        bad_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError) as info:
            check_golden_fixture(bad_path)
        assert str(bad_path) in str(info.value)
        assert named in str(info.value)

    def test_provenance_header_present(self):
        payload = read_golden_fixture(DATA_DIR / "golden_scatter_g019.json")
        provenance = payload["provenance"]
        assert "transfer_matrix" in provenance["oracle"]
        assert provenance["tolerance"] == 1e-10
        assert provenance["medium"]["oscillators"][0]["coupling_g"] == 0.19
