import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslab.errors import DetectorInsideMedium, RangeError
from qslab.medium import BandKind, MediumSpec, OscillatorSpecies, band_edges, refractive_index
from qslab.quantum_io import (
    DETECTION_BLOCK_VALUES,
    PulseSpectrum,
    _detection_amplitudes,
    _factored_sum,
    _uniform_step,
    coefficients_on_grid,
    detection_rate,
    energy_budget,
    gaussian_pulse,
    s_matrix,
    transform_coherent,
    unitarity_defects,
)
from qslab.slab import resonance_coefficients, scatter_coefficients


class TestSMatrix:
    def test_vacuum_is_identity(self, vacuum):
        s = s_matrix(vacuum, 1.2)
        assert np.allclose(s.matrix, np.eye(2), atol=1e-15)

    def test_built_from_scatter_coefficients(self, reference_medium):
        sol = scatter_coefficients(reference_medium, 0.7)
        s = s_matrix(reference_medium, 0.7)
        assert s.T == sol.T
        assert s.R == sol.R

    @pytest.mark.parametrize("omega", [0.3, 0.95, 1.0, 1.0 - 1e-7, 1.8])
    def test_entries_equal_scatter_coefficients_in_every_band_kind(self, reference_medium, omega):
        sol = scatter_coefficients(reference_medium, omega)
        s = s_matrix(reference_medium, omega)
        assert s.T == sol.T
        assert s.R == sol.R

    @pytest.mark.parametrize("omega", [0.3, 0.95, 1.0, 1.8])
    def test_carries_its_unitarity_defect(self, two_species_medium, omega):
        s = s_matrix(two_species_medium, omega)
        T, R = s.T, s.R
        assert s.unitarity_defect == max(
            abs(abs(T) ** 2 + abs(R) ** 2 - 1.0), abs(2.0 * (T.conjugate() * R).real)
        )
        m = s.matrix
        assert abs(s.unitarity_defect - np.abs(m.conj().T @ m - np.eye(2)).max()) <= 1e-15
        assert isinstance(s.unitarity_defect, float)

    def test_array_defects_match_the_scalar_ones(self, two_species_medium):
        omegas = np.linspace(0.05, 4.6, 2000)
        matrices = [s_matrix(two_species_medium, omega) for omega in omegas.tolist()]
        refl = np.array([s.R for s in matrices])
        trans = np.array([s.T for s in matrices])
        defects = unitarity_defects(refl, trans)
        assert defects.shape == omegas.shape
        # the same R and T: only the rounding of |.|, the squares and the sum
        # differ, each within an ulp of a quantity of size about 1; the worst
        # seen was 2 eps
        eps = np.finfo(float).eps
        for defect, s in zip(defects.tolist(), matrices):
            assert abs(defect - s.unitarity_defect) <= 4.0 * eps

    def test_array_defects_report_a_non_unitary_point(self):
        # s_matrix raises past UNITARITY_TOL; the array form measures it.  R and
        # T in phase conserve |R|^2 + |T|^2 but not the off-diagonal 2 Re(T* R)
        refl = np.array([0.6, 0.6, 0.6j, 0.6])
        trans = np.array([0.8j, 0.8j * (1.0 + 1e-11), 0.8, 0.8])
        defects = unitarity_defects(refl, trans)
        assert defects[0] <= 2.0 * np.finfo(float).eps
        assert defects[1] == pytest.approx(2e-11 * 0.64, rel=1e-4)
        assert defects[2] <= 2.0 * np.finfo(float).eps
        assert defects[3] == pytest.approx(0.96, rel=1e-15)

    def test_resonance_entry_against_closed_forms(self, reference_medium):
        # omega = Omega = 1 with L = 1 gives optical thickness one
        s = s_matrix(reference_medium, 1.0)
        refl, trans = resonance_coefficients(1.0, 1.0)
        expected = np.array([[trans, refl], [refl, trans]])
        product = expected.conj().T @ expected
        assert np.abs(product - np.eye(2)).max() < 1e-12
        assert np.abs(s.matrix - expected).max() < 1e-14

    def test_unitary_and_symmetric_across_bands(self, reference_medium):
        for omega in np.linspace(0.15, 1.95, 400):
            if abs(omega - 0.9) < 1e-9:
                continue
            s = s_matrix(reference_medium, omega)
            assert np.abs(s.matrix - s.matrix.T).max() == 0.0
            assert np.abs(s.matrix.conj().T @ s.matrix - np.eye(2)).max() < 1e-12

    def test_unitary_inside_band_gap(self, reference_medium):
        for omega in np.linspace(0.905, 0.995, 50):
            s = s_matrix(reference_medium, omega)
            assert np.abs(s.matrix.conj().T @ s.matrix - np.eye(2)).max() < 1e-12

    def test_unitary_just_outside_the_resonance_window(self, reference_medium):
        # n0 ~ 1e-4 here, where the unfactored denominator
        # (n0+1)^2 - (n0-1)^2 P^2 cancels O(1) terms and loses about 1e-12
        assert s_matrix(reference_medium, 1.0000000010244732).unitarity_defect <= 1e-14

    def test_unitary_on_a_dense_scan_of_the_upper_resonance_flank(self, reference_medium):
        worst = max(
            s_matrix(reference_medium, omega).unitarity_defect
            for omega in np.linspace(1.0 + 1e-9, 1.0 + 5e-9, 4000).tolist()
        )
        assert worst <= 1e-14


class TestTransformCoherent:
    def test_identity(self, vacuum):
        s = s_matrix(vacuum, 1.0)
        assert transform_coherent(s, (1.0, 0.0)) == (1.0 + 0.0j, 0.0j)

    def test_single_sided_input_splits_into_t_and_r(self, reference_medium):
        s = s_matrix(reference_medium, 0.95)
        out = transform_coherent(s, (1.0, 0.0))
        assert out == (s.T, s.R)

    def test_two_sided_interference_conserves_norm(self, reference_medium):
        # direct matrix-vector oracle with independently computed R, T
        omega = 0.83
        sol = scatter_coefficients(reference_medium, omega)
        alpha = (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
        out = transform_coherent(s_matrix(reference_medium, omega), alpha)
        expected = (
            sol.T * alpha[0] + sol.R * alpha[1],
            sol.R * alpha[0] + sol.T * alpha[1],
        )
        assert out == expected
        norm_out = abs(out[0]) ** 2 + abs(out[1]) ** 2
        assert norm_out == pytest.approx(1.0, abs=1e-12)

    def test_norm_conserved_for_random_inputs(self, reference_medium):
        rng = np.random.default_rng(23)
        omegas = rng.uniform(0.2, 1.9, size=200)
        for omega in omegas:
            s = s_matrix(reference_medium, omega)
            alpha = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
            out = transform_coherent(s, alpha)
            norm_in = abs(alpha[0]) ** 2 + abs(alpha[1]) ** 2
            norm_out = abs(out[0]) ** 2 + abs(out[1]) ** 2
            assert abs(norm_out - norm_in) < 1e-12 * max(1.0, norm_in)


class TestPulseSpectrum:
    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            PulseSpectrum(np.array([-0.1, 0.5]), np.array([1.0, 1.0]))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            PulseSpectrum(np.array([0.5, 0.4]), np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PulseSpectrum(np.array([0.4, 0.5]), np.array([1.0]))

    def test_trapezoid_weights_sum_to_span(self):
        k = np.array([1.0, 1.5, 1.7, 2.0])
        pulse = PulseSpectrum(k, np.ones(4, dtype=complex))
        assert pulse.trapezoid_weights().sum() == pytest.approx(1.0)


class TestDetectionRate:
    def test_detector_must_sit_outside(self, reference_medium):
        pulse = gaussian_pulse(0.5, 0.01)
        with pytest.raises(DetectorInsideMedium):
            detection_rate(reference_medium, pulse, 0.99, np.array([0.0]))

    def test_overflowing_phases_raise_naming_the_quantity(self, reference_medium):
        # each overflowed into NaN rates; c k into a ValueError naming omega
        pulse = gaussian_pulse(2.0, 0.1, points=41)
        with pytest.raises(RangeError, match=r"^detector_x=1e\+308: the phase k x overflows"):
            detection_rate(reference_medium, pulse, 1e308, np.array([0.0]))
        with pytest.raises(RangeError, match=r"^\|t\|=1e\+308: the phase k c t overflows"):
            detection_rate(reference_medium, pulse, 2.0, np.array([1.0, -1e308]))
        si = MediumSpec(species=(OscillatorSpecies(2.2e15, 0.19 * 2.2e15**2),), half_length_L=1e-6,
                        cross_section_A=1e-12, unit_mode="SI")
        with pytest.raises(RangeError, match=r"^k=1e\+300: the frequency c k is not finite"):
            coefficients_on_grid(si, np.array([1e299, 1e300]))

    def test_vacuum_pulse_arrives_at_light_time(self, vacuum):
        pulse = gaussian_pulse(2.0, 0.05)
        x = 12.0
        t = np.linspace(0.0, 30.0, 1201)
        trace = detection_rate(vacuum, pulse, x, t)
        assert np.all(trace.rate_values >= 0.0)
        peak_time = t[np.argmax(trace.rate_values)]
        assert abs(peak_time - x) <= t[1] - t[0]

    def test_vacuum_peak_equals_spectrum_integral_squared(self, vacuum):
        pulse = gaussian_pulse(2.0, 0.05)
        x = 9.0
        trace = detection_rate(vacuum, pulse, x, np.array([x]))
        w = pulse.trapezoid_weights()
        expected = abs(np.sum(w * pulse.f_values)) ** 2
        assert trace.rate_values[0] == pytest.approx(expected, rel=1e-12)

    def test_narrowband_gap_pulse_suppressed_by_t_squared(self, reference_medium, vacuum):
        k0 = 0.95
        pulse = gaussian_pulse(k0, 1e-3 * k0)
        x = 8.0
        width = 8.0 / (1e-3 * k0)
        t = np.linspace(x - width / 2, x + width / 2, 3001)
        peak_gap = detection_rate(reference_medium, pulse, x, t).rate_values.max()
        peak_vac = detection_rate(vacuum, pulse, x, t).rate_values.max()
        t_squared = abs(scatter_coefficients(reference_medium, k0).T) ** 2
        assert peak_gap / peak_vac == pytest.approx(t_squared, rel=0.01)

    def test_time_shift_covariance(self, reference_medium):
        pulse = gaussian_pulse(1.3, 0.02)
        x, tau = 6.0, 2.5
        t = np.linspace(0.0, 20.0, 800)
        base = detection_rate(reference_medium, pulse, x, t)
        shifted_pulse = PulseSpectrum(
            pulse.k_grid, pulse.f_values * np.exp(-1j * pulse.k_grid * tau)
        )
        shifted = detection_rate(reference_medium, shifted_pulse, x, t - tau)
        scale = base.rate_values.max()
        assert np.abs(shifted.rate_values - base.rate_values).max() < 1e-12 * scale

    def test_trace_independent_of_time_grid_partitioning(self, reference_medium):
        pulse = gaussian_pulse(1.1, 0.03, points=301)
        x = 7.0
        t = np.linspace(0.0, 20.0, 501)
        whole = detection_rate(reference_medium, pulse, x, t).rate_values
        first = detection_rate(reference_medium, pulse, x, t[:250]).rate_values
        second = detection_rate(reference_medium, pulse, x, t[250:]).rate_values
        assert np.array_equal(np.concatenate([first, second]), whole)

    @staticmethod
    def direct_rates(medium, pulse, x, t):
        """The rate by the plain sum over k, one t at a time."""
        k = pulse.k_grid
        t_vals, _, _ = coefficients_on_grid(medium, k)
        base = pulse.trapezoid_weights() * pulse.f_values * t_vals * np.exp(1j * k * x)
        rates = []
        for tt in t:
            amplitude = np.dot(base, np.exp(-1j * k * medium.c * tt))
            rates.append(amplitude.real**2 + amplitude.imag**2)
        return np.array(rates)

    @pytest.mark.parametrize("case", ["scaled", "SI", "long"])
    def test_factored_sum_matches_direct_sum(self, reference_medium, case):
        if case == "scaled":
            medium, pulse, x = reference_medium, gaussian_pulse(0.93, 0.05, points=1001), 4.0
            t = np.linspace(-10.0, 40.0, 301)
        elif case == "long":
            # 40,001 k points (b = 201, so running products of 200 factors)
            # and phases k c t up to about 1.2e4 rad, where the products drift most
            medium, pulse, x = reference_medium, gaussian_pulse(0.93, 0.05, points=40_001), 1e4
            t = np.linspace(x - 100.0, x + 100.0, 201)
        else:
            medium = MediumSpec(
                species=(OscillatorSpecies(2.2e15, 9.2e29),),
                half_length_L=1e-6, cross_section_A=1e-12, unit_mode="SI",
            )
            pulse, x = gaussian_pulse(6.5e6, 2e5, points=1500), 1e-4
            t = np.linspace(0.0, 2.0 * x / medium.c, 301)
        rates = detection_rate(medium, pulse, x, t).rate_values
        reference = self.direct_rates(medium, pulse, x, t)
        assert np.abs(rates - reference).max() <= 1e-12 * reference.max()

    @staticmethod
    def per_t_rates(medium, pulse, x, t):
        """The lattice route one t at a time, in scalar arithmetic.

        Each node value is the factored sum at that node alone: the phase
        tables are the powers w^0 .. w^(n-1) of one exponential, by a running
        product (``np.cumprod``), and the phase products are scalar.  Each t
        takes its 20 nodes' values by a stencil sum of its own.
        """
        k = pulse.k_grid
        t_vals, _, _ = coefficients_on_grid(medium, k)
        base = pulse.trapezoid_weights() * pulse.f_values * t_vals * np.exp(1j * k * x)
        dk = (k[-1] - k[0]) / (k.size - 1)
        b = math.isqrt(k.size - 1) + 1
        blocks = np.zeros((-(-k.size // b), b), dtype=complex)
        blocks.flat[: k.size] = base
        kc, beta = 0.5 * (k[0] + k[-1]), 0.5 * (k[-1] - k[0])
        h = math.pi / (8 * beta)
        weights = np.array([(-1) ** j * math.comb(19, j) for j in range(20)], dtype=float)

        def powers(w, n):
            return np.cumprod(np.concatenate(([1.0 + 0j], np.full(n - 1, w))))

        def node(m):
            s = m * h
            inner = blocks @ powers(np.exp(-1j * (s * dk)), b)
            outer = np.dot(powers(np.exp(-1j * (s * dk * b)), blocks.shape[0]), inner)
            return cmath.exp(1j * (kc * s)) * (cmath.exp(-1j * (float(k[0]) * s)) * outer)

        lattice = {}
        rates = np.empty(t.shape)
        for i, tt in enumerate(t):
            s = medium.c * tt
            u = s / h
            first = math.floor(u) - 9
            for m in range(first, first + 20):
                if m not in lattice:
                    lattice[m] = node(m)
            values = np.array([lattice[m] for m in range(first, first + 20)])
            if u == first + 9:
                value = values[9]
            else:
                w = weights * ((u - (first + 9)) / (u - np.arange(first, first + 20, dtype=float)))
                value = complex(np.sum(w * values.real) / np.sum(w), np.sum(w * values.imag) / np.sum(w))
            amplitude = cmath.exp(-1j * (kc * s)) * value
            rates[i] = amplitude.real**2 + amplitude.imag**2
        return rates

    T_PER_BLOCK = DETECTION_BLOCK_VALUES // (63 + 64)  # 4001 k points: 63 rows x 64 columns

    def test_whole_grid_sum_equals_the_per_t_loop(self, reference_medium):
        pulse = gaussian_pulse(0.93, 0.05, points=4001)
        t = np.linspace(0.0, 80.0, 2001)  # an array ** 2 rounds 4 of these rates differently
        assert t.size > 2 * self.T_PER_BLOCK
        rates = detection_rate(reference_medium, pulse, 4.0, t).rate_values
        assert np.array_equal(rates, self.per_t_rates(reference_medium, pulse, 4.0, t))

    SPLIT_MEDIUM = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),))
    SPLIT_PULSE = gaussian_pulse(0.93, 0.05, points=4001)
    SPLIT_T = np.linspace(-10.0, 60.0, 600)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, SPLIT_T.size - 1), max_size=5, unique=True))
    @example([1])
    @example([SPLIT_T.size - 1])
    @example([T_PER_BLOCK, T_PER_BLOCK + 1, 2 * T_PER_BLOCK - 1])
    @example([7, 250, 251, 252])
    def test_trace_independent_of_any_split_of_the_time_grid(self, splits):
        whole = detection_rate(self.SPLIT_MEDIUM, self.SPLIT_PULSE, 4.0, self.SPLIT_T).rate_values
        pieces = [
            detection_rate(self.SPLIT_MEDIUM, self.SPLIT_PULSE, 4.0, part).rate_values
            for part in np.split(self.SPLIT_T, sorted(splits))
        ]
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("n_k, n_t", [(401, 401), (4001, 4099)])
    def test_factored_sum_obeys_discrete_parseval(self, n_k, n_t):
        # amplitude(t) = sum_j base_j e^{-i k_j c t} on k_j = k_0 + j dk is
        # periodic in t with period 2 pi / (c dk); over n_t >= n_k equally
        # spaced t of one period the cross terms j != j' sum to zero, so
        # mean |amplitude|^2 = sum |base_j|^2, an identity the factored sum
        # must meet without reference to the direct sum
        rng = np.random.default_rng(n_k)
        k = np.linspace(0.8, 1.3, n_k)
        c = 1.7
        dk = _uniform_step(k)
        assert dk is not None
        base = rng.normal(size=n_k) + 1j * rng.normal(size=n_k)
        period = 2.0 * math.pi / (c * dk)
        t = -3.0 + period * np.arange(n_t) / n_t
        power = np.mean(np.abs(_detection_amplitudes(base, k, c, t)) ** 2)
        expected = np.sum(np.abs(base) ** 2)
        assert abs(power - expected) <= 1e-11 * expected

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(1e-3, 1e3), st.floats(1e-4, 2.0), st.integers(2, 5000), st.floats(1e-3, 1e3),
        st.lists(st.floats(-1e3, 1e3), max_size=5),
    )
    def test_t_zero_takes_the_value_of_lattice_node_zero(self, k0, width, n_k, c, others):
        # s = 0 is node 0 of every lattice, so t = 0 takes the factored sum
        # at s = 0 times e^{i kc 0} = 1, whatever else the time grid holds
        k = np.linspace(k0, k0 * (1.0 + width), n_k)
        base = np.random.default_rng(n_k).normal(size=(n_k, 2)) @ np.array([1.0, 1j])
        b = math.isqrt(n_k - 1) + 1
        blocks = np.zeros((-(-n_k // b), b), dtype=complex)
        blocks.flat[:n_k] = base
        node_zero = _factored_sum(blocks, k0, _uniform_step(k), np.zeros(1))[0]
        amplitude = _detection_amplitudes(base, k, c, np.array([*others, 0.0]))[-1]
        assert np.isfinite(amplitude) and amplitude == node_zero

    def test_times_far_apart_each_equal_the_time_alone(self, reference_medium):
        # two stencils 1e5 / h nodes apart: the union of the stencils, not the span
        pulse = gaussian_pulse(0.93, 0.05, points=4001)
        t = np.array([3.7, 3.7 + 1e5])
        both = detection_rate(reference_medium, pulse, 4.0, t).rate_values
        alone = [detection_rate(reference_medium, pulse, 4.0, t[i : i + 1]).rate_values[0] for i in (0, 1)]
        assert np.array_equal(both, alone)
        reference = self.direct_rates(reference_medium, pulse, 4.0, t)
        assert np.abs(both - reference).max() <= 1e-12 * reference.max()

    def test_lattice_index_past_two_to_the_52_raises_naming_the_time(self, reference_medium):
        pulse = gaussian_pulse(0.93, 0.05, points=401)
        k0, k_last = pulse.k_grid[[0, -1]].tolist()
        h = math.pi / (8 * (0.5 * (k_last - k0)))
        t_far = 2.0**52 * h  # u = c t / h = 2**52 exactly, at c = 1
        message = rf"^\|t\|={re.escape(repr(t_far))}: the lattice index c t / h passes 2\*\*52"
        with pytest.raises(RangeError, match=message):
            detection_rate(reference_medium, pulse, 4.0, np.array([1.0, -t_far]))
        rates = detection_rate(reference_medium, pulse, 4.0, np.array([1.0, -0.75 * t_far])).rate_values
        assert np.isfinite(rates).all()

    def test_lattice_route_matches_the_direct_sum_across_a_band_edge(self, reference_medium):
        # the perfbench pulse's size: 4,001 k across the 0.9 band edge, 2,001 t
        pulse = gaussian_pulse(0.9, 0.05, points=4001)
        t = np.linspace(-20.0, 100.0, 2001)
        rates = detection_rate(reference_medium, pulse, 4.0, t).rate_values
        reference = self.direct_rates(reference_medium, pulse, 4.0, t)
        assert np.abs(rates - reference).max() <= 1e-13 * reference.max()

    def test_grid_past_the_uniformity_bound_takes_the_direct_sum(self, reference_medium):
        pulse = gaussian_pulse(1.1, 0.03, points=301)
        k = pulse.k_grid.copy()
        k[150] += 16 * np.finfo(float).eps * k[-1]
        pulse = PulseSpectrum(k, pulse.f_values)
        t = np.linspace(0.0, 20.0, 101)
        trace = detection_rate(reference_medium, pulse, 7.0, t)
        assert np.array_equal(trace.rate_values, self.direct_rates(reference_medium, pulse, 7.0, t))

    def test_trace_carries_the_energy_budget(self, reference_medium):
        pulse = gaussian_pulse(0.95, 0.05)
        trace = detection_rate(reference_medium, pulse, 5.0, np.array([5.0]))
        assert trace.budget == energy_budget(reference_medium, pulse)

    def test_energy_budget_closes_exactly(self, reference_medium):
        pulse = gaussian_pulse(0.95, 0.05)  # straddles the absorption band
        budget = energy_budget(reference_medium, pulse)
        closure = budget["transmitted"] + budget["reflected"]
        assert closure == pytest.approx(budget["incident"], rel=1e-12)

    def test_pole_adjacent_components_nudged_and_recorded(self, reference_medium):
        k = np.array([0.8, 0.8999999999999999, 1.2])
        pulse = PulseSpectrum(k, np.ones(3, dtype=complex))
        trace = detection_rate(reference_medium, pulse, 5.0, np.array([5.0]))
        assert len(trace.nudged_frequencies) == 1
        k_orig, omega_used = trace.nudged_frequencies[0]
        assert k_orig == pytest.approx(0.9, abs=1e-9)
        assert omega_used != k_orig
        assert np.isfinite(trace.rate_values).all()

    def test_physical_prefactor_requires_si(self, reference_medium):
        pulse = gaussian_pulse(0.5, 0.01)
        with pytest.raises(ValueError):
            detection_rate(
                reference_medium, pulse, 5.0, np.array([0.0]), prefactor_mode="physical"
            )

    def test_physical_prefactor_scales_rate(self):
        from qslab.medium import MediumSpec
        from qslab.quantum_io import EPSILON_0, HBAR

        si = MediumSpec(half_length_L=1e-6, cross_section_A=1e-12, unit_mode="SI")
        c = si.c
        pulse = gaussian_pulse(5e6, 5e4)
        x = 1e-3
        t = np.array([x / c])
        normalized = detection_rate(si, pulse, x, t, prefactor_mode="normalized")
        physical = detection_rate(si, pulse, x, t, prefactor_mode="physical")
        expected = HBAR * c * EPSILON_0 / (4.0 * np.pi * si.cross_section_A)
        assert physical.rate_values[0] == pytest.approx(
            expected * normalized.rate_values[0], rel=1e-12
        )


class TestCoefficientsOnGrid:
    def test_matches_pointwise_scatter(self, reference_medium):
        # transmission, inside the TOL_OMEGA window of the band edge 0.9
        # (nudged), absorption, 5e-10 above the resonance at 1.0 (transmission
        # with n0 about 7e-5, not nudged), transmission
        k = np.array([0.5, 0.9 + 1e-10, 0.95, 1.0 + 5e-10, 1.5])
        t_vals, r_vals, nudged = coefficients_on_grid(reference_medium, k)
        assert [kk for kk, _ in nudged] == [k[1]]
        omega = dict(nudged)
        for i, kk in enumerate(k):
            sol = scatter_coefficients(reference_medium, omega.get(kk, kk))
            # the grid's contract: within 4 eps (1 + |n0|) of the scalar kernel
            bound = 4.0 * np.finfo(float).eps * (1.0 + abs(sol.n0))
            assert abs(t_vals[i] - sol.T) <= bound
            assert abs(r_vals[i] - sol.R) <= bound

    def test_edge_points_nudged_down_into_transmission(self, reference_medium):
        # one ulp below, on and just above the exact edge 0.9
        k = np.array([np.nextafter(0.9, 0.0), 0.9, 0.9 + 5e-10])
        _, _, nudged = coefficients_on_grid(reference_medium, k)
        assert [kk for kk, _ in nudged] == k.tolist()
        edge = band_edges(reference_medium)[0]
        for kk, omega in nudged:
            assert omega == kk * (1.0 - 1e-8)  # c = 1; the nudge is 1e-8 relative
            assert omega < edge
            assert refractive_index(reference_medium, omega).band_kind is BandKind.TRANSMISSION
