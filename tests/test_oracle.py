import cmath
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from qslab.config import load_medium_config, medium_from_dict, read_json
from qslab.errors import ConfigError, StiffnessFailure
from qslab.medium import MediumSpec, OscillatorSpecies, band_edges, pole_adjacent, refractive_index
from qslab.oracle import (
    ODE_ATOL,
    ODE_MAX_PHASE,
    ODE_RTOL,
    RAMP_LINEAR,
    RAMP_SMOOTHSTEP,
    SmoothedProfile,
    check_golden_fixture,
    ode_scatter,
    right_incident_solution,
    source_integral_check,
    transfer_matrix_rt,
    verify,
    write_golden_fixture,
)
from qslab.slab import scatter_coefficients, scatter_on_grid

DATA_DIR = Path(__file__).parent / "data"
CONFIG_DIR = Path(__file__).parent.parent / "configs"


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


def verify_sample(medium):
    """The (n0, k) points at which verify's oracle_agreement calls the oracle."""
    resonances = medium.resonances()
    omegas = np.linspace(0.05 * resonances[0], 2.0 * resonances[-1], 2000)
    omegas = omegas[~pole_adjacent(medium, omegas)]
    _, _, index = scatter_on_grid(medium, omegas)
    safe = np.flatnonzero(index != 0)
    picked = safe[:: max(1, len(safe) // 300)]
    return index[picked], omegas[picked] / medium.c


def in_si_units(path, scale=2.2e15):
    """The medium of a scaled config at resonances ``scale`` rad/s, with L = 1 um."""
    data = read_json(path)
    oscillators = [
        {"omega_res": o["omega_res"] * scale, "coupling_g": o["coupling_g"] * scale**2}
        for o in data["oscillators"]
    ]
    return medium_from_dict(
        {"unit_mode": "SI", "half_length_L": 1e-6, "cross_section_A": 1e-12, "oscillators": oscillators}
    )


class TestTransferMatrixOnArrays:
    @pytest.mark.parametrize("units", ["scaled", "SI"])
    def test_matches_its_scalar_calls_on_the_verify_sample(self, units):
        path = CONFIG_DIR / "two_resonances.json"
        medium = load_medium_config(path)[0] if units == "scaled" else in_si_units(path)
        n0, k = verify_sample(medium)
        assert len(k) > 300
        refl, trans = transfer_matrix_rt(n0, k, medium.half_length_L)
        assert refl.shape == trans.shape == k.shape
        eps = np.finfo(float).eps
        for i, (n, kk) in enumerate(zip(n0.tolist(), k.tolist())):
            r, t = transfer_matrix_rt(n, kk, medium.half_length_L)
            # the same operations in array and scalar arithmetic, which may
            # round apart by an ulp each; the worst seen was 2.3 eps (1 + |n0|)
            assert max(abs(refl[i] - r), abs(trans[i] - t)) <= 4.0 * eps * (1.0 + abs(n))

    @pytest.mark.parametrize(
        ("bad_n0", "bad_k", "message"),
        [
            (None, 0.0, "k must be positive and finite, got 0.0"),
            (None, -1.5, "k must be positive and finite, got -1.5"),
            (None, math.inf, "k must be positive and finite, got inf"),
            (None, math.nan, "k must be positive and finite, got nan"),
            (0j, None, "n0 must be nonzero and finite, got 0j"),
            (complex(math.inf, 0.0), None, r"n0 must be nonzero and finite, got \(inf\+0j\)"),
            (complex(0.0, math.nan), None, "n0 must be nonzero and finite, got nanj"),
        ],
    )
    def test_one_bad_entry_raises_naming_the_argument(self, bad_n0, bad_k, message):
        n0 = np.array([1.5, 1.2 + 0j, 0.7j, 2.0])
        k = np.array([0.5, 1.0, 1.5, 2.0])
        if bad_n0 is not None:
            n0[2] = bad_n0
        if bad_k is not None:
            k[2] = bad_k
        with pytest.raises(ValueError, match=message):
            transfer_matrix_rt(n0, k, 1.0)

    def test_bare_resonance_in_a_sweep_is_rejected(self, reference_medium):
        # at n0 = 0 both faces reflect totally and the oracle's loop factor is
        # 1/0; verify leaves those points out
        omegas = np.array([0.5, 1.0, 1.5])
        _, _, index = scatter_on_grid(reference_medium, omegas)
        assert index[1] == 0
        with pytest.raises(ValueError, match="n0 must be nonzero and finite, got 0j"):
            transfer_matrix_rt(index, omegas, 1.0)


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

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            *(("half_length_L", v, "half_length_L must be positive and finite") for v in (math.nan, math.inf)),
            *(("c", v, "c must be positive and finite") for v in (math.nan, math.inf, 0.0, -1.0)),
            *(
                ("n_inside", v, "n_inside and its square must be finite")
                for v in (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.inf), 1e200)
            ),
        ],
    )
    def test_non_finite_field_rejected_naming_it(self, field, value, message):
        # a NaN index used to run ode_scatter past 20 s, and 1e200 raised a bare OverflowError
        with pytest.raises(ValueError, match=rf"^{message}, got"):
            SmoothedProfile(**{"half_length_L": 1.0, "delta": 0.05, "n_inside": 1.5 + 0j, field: value})


def plain_pass(profile, omega, dense=False, source=False, rtol=ODE_RTOL, atol=ODE_ATOL):
    """The one-profile pass of the ODE routes, written out: leg solutions,
    (a_in, a_out) for u_r started as e^{-ikx} at -L - delta, and the end
    state, (Lambda, Psi) or with ``source`` (Lambda, Psi, J)."""
    c, k, omega_sq = profile.c, omega / profile.c, omega * omega

    def rhs(x, y):
        d_lam = profile.eps_of_x(x) / (c * c) * y[1]
        return [d_lam, -omega_sq * y[0], -profile.source_amplitude(x) * d_lam][: len(y)]

    x0, *legs = profile.breakpoints()
    wave = cmath.exp(-1j * k * x0)
    y = np.asarray((wave, -1j * k * c * c * wave, 0j)[: 3 if source else 2])
    solutions = []
    for x1 in legs:
        sol = solve_ivp(rhs, (x0, x1), y, method="DOP853", rtol=rtol, atol=atol, dense_output=dense)
        solutions.append(sol)
        y, x0 = sol.y[:, -1], x1
    lam, psi = y[:2]
    plane = psi / (1j * k * c * c)
    a_in = 0.5 * (lam - plane) * cmath.exp(1j * k * x0)
    a_out = 0.5 * (lam + plane) * cmath.exp(-1j * k * x0)
    return solutions, a_in, a_out, y


PASS_PROFILES = [
    (SmoothedProfile(half_length_L=1.0, delta=0.01, n_inside=1.7 + 0j), 0.8),
    (SmoothedProfile(2.0, 0.05, 0.6j, ramp_shape=RAMP_SMOOTHSTEP, c=1.5), 1.1),
    (SmoothedProfile.resonance(1.0, 0.001, c=3.0), 2.0),
    # DOP853 evaluates one ulp past a leg's end on these, where a stacked map
    # written as a + (x - x0) r would move the ramp value in its last bit: on
    # the first, ode_scatter and the dense route; on the second, the source
    (SmoothedProfile(2.3028020780631855, 0.05683745026391967, 0.2602596655815759 + 0j, c=7.729442239552704),
     0.38935458837092973),
    (SmoothedProfile(0.09516044924316888, 9.824678334506729e-05, 1e-06 + 0j, c=1.4225136255615203),
     12.456830968602635),
]


class TestOdeScatter:
    @pytest.mark.parametrize(
        "profile, omega",
        PASS_PROFILES,
        ids=["real", "imaginary", "resonance", "leg-end-ulp-scatter", "leg-end-ulp-source"],
    )
    def test_two_component_routes_are_the_plain_pass(self, profile, omega):
        # one profile through the stacked pass is the written-out pass bit
        # for bit: ode_scatter and right_incident_solution on the two-component
        # state, source_integral_check on the three-component one
        _, a_in, a_out, _ = plain_pass(profile, omega)
        assert ode_scatter(profile, omega) == (a_out / a_in, 1.0 / a_in)
        _, a_in, _, (_, _, carried) = plain_pass(profile, omega, source=True)
        assert source_integral_check(profile, omega) == carried / a_in
        solutions, a_in, _, _ = plain_pass(profile, omega, dense=True)
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

    @pytest.mark.parametrize("route", [ode_scatter, right_incident_solution, source_integral_check])
    def test_phase_past_the_bound_raises_before_integrating(self, route):
        # |n| k (L + delta) = 5.5e4 rad; without the bound ode_scatter ran past 25 s
        profile = SmoothedProfile(half_length_L=1.0, delta=0.1, n_inside=1e5 + 0j)
        assert ODE_MAX_PHASE < 5.5e4
        start = time.perf_counter()
        with pytest.raises(StiffnessFailure, match=r"^omega=0\.5: the interior phase \|n\| k \(L \+ delta\) = 5\.5e\+04 exceeds 1000$"):
            route(profile, 0.5)
        assert time.perf_counter() - start < 1.0

    def test_one_stacked_profile_past_the_bound_rejects_the_pass(self):
        wide = SmoothedProfile(half_length_L=1.0, delta=0.1, n_inside=1.5 + 0j)
        dense = SmoothedProfile(half_length_L=1.0, delta=0.01, n_inside=1e5 + 0j)
        with pytest.raises(StiffnessFailure, match=r"^omega=0\.5: the interior phase"):
            ode_scatter([wide, dense], 0.5)


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

    def test_thin_slab_looks_up_the_leg_that_holds_x(self):
        # with a 1e-12 slack in the leg lookup, legs shorter than it answered
        # u_r(+L) with u_r(-L), so resonance_mode_flatness read exactly 0, and
        # a query 450 support widths outside the profile returned a value
        half_length = 1e-15
        profile = SmoothedProfile.resonance(half_length, 1e-17)
        solution = right_incident_solution(profile, 1.0)
        right = solution(half_length)
        assert np.array_equal(right, solution.solutions[1].y[:, -1] * solution.scale)
        assert not np.array_equal(right, solution(-half_length))
        with pytest.raises(ValueError, match="outside the integrated span"):
            solution(5e-13)

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


def tight_pass(profile, omega):
    """R, T and the source integral I of one profile from the three-component
    pass written out at DOP853 rtol 1e-13, atol 1e-16: the reference that the
    shipped tolerances, stacked or not, are held to."""
    _, a_in, a_out, (_, _, carried) = plain_pass(profile, omega, source=True, rtol=1e-13, atol=1e-16)
    return a_out / a_in, 1.0 / a_in, carried / a_in


class TestStackedProfiles:
    """A ramp-width sequence, largest delta first, as one stacked system per leg."""

    @pytest.fixture
    def delta_sequence(self, reference_medium):
        return [SmoothedProfile.for_medium(reference_medium, 0.5, 1.0 / d) for d in (10, 30, 100, 300)]

    @pytest.fixture
    def source_sequence(self):
        return [SmoothedProfile.resonance(1.0, 1.0 / d) for d in (10, 30, 100)]

    def test_delta_sequence_matches_one_profile_calls_and_a_tight_pass(self, delta_sequence):
        refl, trans = ode_scatter(delta_sequence, 0.5)
        assert refl.shape == trans.shape == (4,)
        for profile, stacked in zip(delta_sequence, zip(refl, trans), strict=True):
            single, tight = ode_scatter(profile, 0.5), tight_pass(profile, 0.5)[:2]
            for got, one, ref in zip(stacked, single, tight):
                assert abs(got - one) <= 1e-9 * abs(one)
                assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_source_sequence_matches_one_profile_calls_and_a_tight_pass(self, source_sequence):
        integrals = source_integral_check(source_sequence, 1.0)
        assert integrals.shape == (3,)
        for profile, got in zip(source_sequence, integrals, strict=True):
            one, ref = source_integral_check(profile, 1.0), tight_pass(profile, 1.0)[2]
            assert abs(got - one) <= 1e-9 * abs(one)
            assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_one_profile_sequence_is_the_plain_pass(self, delta_sequence, source_sequence):
        refl, trans = ode_scatter(delta_sequence[:1], 0.5)
        assert (refl[0], trans[0]) == ode_scatter(delta_sequence[0], 0.5)
        assert source_integral_check(source_sequence[:1], 1.0)[0] == source_integral_check(source_sequence[0], 1.0)

    def test_tolerances_tighten_by_the_square_root_of_the_stack(self, delta_sequence, monkeypatch):
        # DOP853's error norm is an RMS over the components, so m stacked
        # profiles at the one-profile tolerances would loosen the control on
        # the dominant one by up to sqrt(m)
        import qslab.oracle

        seen = []

        def spy(*args, **kwargs):
            seen.append((kwargs["rtol"], kwargs["atol"]))
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(qslab.oracle, "solve_ivp", spy)
        ode_scatter(delta_sequence, 0.5)
        assert seen == [(ODE_RTOL / 2.0, ODE_ATOL / 2.0)] * 3
        seen.clear()
        ode_scatter(delta_sequence[0], 0.5)
        assert seen == [(ODE_RTOL, ODE_ATOL)] * 3

    @pytest.mark.parametrize("route", [ode_scatter, source_integral_check])
    def test_mixed_c_or_empty_sequence_rejected(self, route):
        mixed = [SmoothedProfile.resonance(1.0, 0.1), SmoothedProfile.resonance(1.0, 0.01, c=2.0)]
        with pytest.raises(ValueError, match="share one c"):
            route(mixed, 1.0)
        with pytest.raises(ValueError, match="must not be empty"):
            route([], 1.0)

    def test_stiffness_failure_names_omega_and_leg(self):
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),), half_length_L=400.0)
        profiles = [SmoothedProfile.for_medium(medium, 0.95, 400.0 / d) for d in (10, 30)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(StiffnessFailure, match=r"on leg \(.*\) at omega=0.95"):
                ode_scatter(profiles, 0.95)


class TestGoldenFixtures:
    def test_committed_fixtures_validate_against_closed_forms(self):
        for name in ("golden_scatter_g019.json", "golden_scatter_g05.json"):
            worst, tol = check_golden_fixture(DATA_DIR / name)
            assert worst < tol

    def test_regeneration_is_deterministic(self, tmp_path, reference_medium):
        committed = read_json(DATA_DIR / "golden_scatter_g019.json")
        omegas = [entry["omega"] for entry in committed["entries"]]
        regenerated = write_golden_fixture(tmp_path / "fresh.json", reference_medium, omegas)
        assert regenerated["provenance"]["medium"] == committed["provenance"]["medium"]
        for old, new in zip(committed["entries"], regenerated["entries"]):
            assert old["R"] == new["R"]
            assert old["T"] == new["T"]

    def test_corrupted_fixture_detected(self, tmp_path):
        payload = read_json(DATA_DIR / "golden_scatter_g019.json")
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
            (lambda p: p["entries"][1].update(omega=1.7e308), "entries[1].omega: omega=1.7e+308"),
            # Omega = 2, g = 3 zeroes the bracket exactly at omega = 1: an index pole
            (
                lambda p: (
                    p["provenance"]["medium"]["oscillators"][0].update(omega_res=2.0, coupling_g=3.0),
                    p["entries"][1].update(omega=1.0),
                ),
                "entries[1].omega: omega=1.0 sits exactly on a band-edge index pole",
            ),
            (lambda p: p.pop("entries"), "'entries'"),
            (lambda p: p.update(entries=5), "entries: expected an array"),
        ],
    )
    def test_malformed_fixture_names_the_field(self, tmp_path, edit, named):
        payload = read_json(DATA_DIR / "golden_scatter_g019.json")
        edit(payload)
        bad_path = tmp_path / "malformed.json"
        bad_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError) as info:
            check_golden_fixture(bad_path)
        assert str(bad_path) in str(info.value)
        assert named in str(info.value)

    @pytest.mark.parametrize("field", ["omega", "R", "T"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400", "true"])
    def test_non_finite_or_non_numeric_value_names_the_field(self, tmp_path, field, literal):
        # a NaN error drops out of max(), so a NaN entry used to pass the check
        payload = read_json(DATA_DIR / "golden_scatter_g019.json")
        if field == "omega":
            payload["entries"][3]["omega"] = "@"
        else:
            payload["entries"][3][field][1] = "@"
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(payload).replace('"@"', literal))
        with pytest.raises(ConfigError, match=rf"entries\[3\]\.{field}: expected a") as info:
            check_golden_fixture(bad_path)
        assert str(bad_path) in str(info.value)

    @pytest.mark.parametrize("pair", [[0.5], [0.5, 0.0, 0.0], {"re": 0.5, "im": 0.0}, "0.5"])
    def test_a_component_pair_must_be_two_numbers(self, tmp_path, pair):
        payload = read_json(DATA_DIR / "golden_scatter_g019.json")
        payload["entries"][1]["R"] = pair
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=r"entries\[1\]\.R: expected \[re, im\]"):
            check_golden_fixture(bad_path)

    def test_provenance_header_present(self):
        payload = read_json(DATA_DIR / "golden_scatter_g019.json")
        provenance = payload["provenance"]
        assert "transfer_matrix" in provenance["oracle"]
        assert provenance["tolerance"] == 1e-10
        assert provenance["medium"]["oscillators"][0]["coupling_g"] == 0.19


# the report order; perfbench/jobs.py::VERIFY_PROPERTIES pins the same names
FULL_REPORT = [
    "unitarity_sweep",
    "oracle_agreement",
    "smatrix_unitarity",
    "resonance_continuity",
    "ode_delta_convergence",
    "source_monotone_decay",
    "source_decay_ratio",
    "resonance_mode_flatness",
]


class TestVerify:
    def test_full_report_lists_every_property_in_order(self, reference_medium):
        entries = verify(reference_medium, "full")
        assert [e["name"] for e in entries] == FULL_REPORT
        for entry in entries:
            assert list(entry) == ["name", "measured", "tolerance", "verdict"]
            assert entry["verdict"] in ("PASS", "FAIL")
        assert [e["name"] for e in verify(reference_medium)] == FULL_REPORT[:4]

    def test_fixture_entry_follows_resonance_continuity(self, reference_medium):
        fixture = DATA_DIR / "golden_scatter_g019.json"
        for level in ("quick", "full"):
            names = [e["name"] for e in verify(reference_medium, level, fixture)]
            assert names[3:5] == ["resonance_continuity", "golden_fixture"]
            assert names[:4] + names[5:] == FULL_REPORT[: len(names) - 1]

    def test_vacuum_skips_what_needs_a_resonance(self):
        vacuum, _ = load_medium_config(Path(__file__).parent.parent / "configs" / "vacuum.json")
        entries = verify(vacuum, "full")
        assert [e["name"] for e in entries] == FULL_REPORT
        skipped = [e for e in entries if e["verdict"] == "SKIP"]
        assert [e["name"] for e in skipped] == [FULL_REPORT[3], *FULL_REPORT[5:]]
        for entry in skipped:
            assert entry == {"name": entry["name"], "verdict": "SKIP",
                             "reason": "no resonances in the medium"}

    def test_ode_convergence_reports_the_narrowest_ramp(self, reference_medium):
        # the reported error is the one at delta = L/300, the end of the sequence
        omega = 0.5 * band_edges(reference_medium)[0]
        sol = scatter_coefficients(reference_medium, omega)
        profile = SmoothedProfile.for_medium(reference_medium, omega, 1.0 / 300)
        refl, trans = ode_scatter(profile, omega)
        err = float(np.hypot(abs(refl - sol.R), abs(trans - sol.T)))
        (entry,) = [e for e in verify(reference_medium, "full") if e["name"] == "ode_delta_convergence"]
        assert entry["measured"] == f"{err:.3e}"

    def test_resonance_continuity_catches_a_perturbed_zero_index_limit(self, reference_medium, monkeypatch):
        import qslab.oracle

        def continuity():
            (entry,) = [e for e in verify(reference_medium) if e["name"] == "resonance_continuity"]
            return entry

        assert continuity()["verdict"] == "PASS"
        original = qslab.oracle.resonance_coefficients

        def perturbed(*args):
            refl, trans = original(*args)
            return refl + 1e-9, trans

        monkeypatch.setattr(qslab.oracle, "resonance_coefficients", perturbed)
        assert continuity()["verdict"] == "FAIL"

    @pytest.mark.parametrize("coupling", [1e-12, 3e-13])
    def test_resonance_continuity_skips_an_edge_closer_than_its_offsets_resolve(self, coupling):
        # a band edge about coupling / 2 below Omega_1 = 1 allows offsets of
        # 1e-4 of that, below one ulp: every probe would be Omega_1 itself
        weak = MediumSpec(species=(OscillatorSpecies(omega_res=1.0, coupling_g=coupling),), half_length_L=1.0)
        (entry,) = [e for e in verify(weak) if e["name"] == "resonance_continuity"]
        assert entry["verdict"] == "SKIP"
        assert "leaves no offset above one ulp" in entry["reason"]

    def test_unknown_level_rejected(self, reference_medium):
        with pytest.raises(ValueError, match="level"):
            verify(reference_medium, "Full")
