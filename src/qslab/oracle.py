"""Independent brute-force verifiers for the slab scattering solution.

Three mutually independent routes cross-check the closed forms:

* ``transfer_matrix_rt`` joins 2x2 face scattering matrices by star product.
* ``ode_scatter`` integrates the frequency-domain field equation on a
  smoothed index profile, realizing the sharp-boundary answer in the
  ramp-width -> 0 limit.
* ``source_integral_check`` measures the matter-source integral that must
  vanish at the bare resonances.

None of these reuse the slab module's algebra.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from .config import _require_positive, medium_from_dict
from .errors import ConfigError, StiffnessFailure
from .medium import MediumSpec, _check_omega, refractive_index
from .slab import scatter_coefficients

RAMP_LINEAR = "linear"
RAMP_SMOOTHSTEP = "smoothstep"

ODE_RTOL = 1e-10
ODE_ATOL = 1e-14

# Interior index used in place of an exact zero on resonance profiles; the
# flux variable (c^2/n^2) d_x u is formally singular at n = 0 itself.
RESONANCE_INTERIOR_INDEX = 1e-6


def _mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat2_inv(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (
        (a[1][1] / det, -a[0][1] / det),
        (-a[1][0] / det, a[0][0] / det),
    )


def _field_matrix(n: complex, k: float):
    """Columns evaluate (u, u'/n^2) at the face for the local e^{+i n k x}, e^{-i n k x} basis."""
    return ((1.0, 1.0), (1j * k / n, -1j * k / n))


def _interface(left, right):
    """Face scattering matrix ((r, t'), (t, r')): outgoing (b_l, a_r) from incoming (a_l, b_r),
    where a and b weight the e^{+i n k x} and e^{-i n k x} columns of ``_field_matrix``."""
    outgoing = ((-left[0][1], right[0][0]), (-left[1][1], right[1][0]))
    incoming = ((left[0][0], -right[0][1]), (left[1][0], -right[1][1]))
    return _mat2_mul(_mat2_inv(outgoing), incoming)


def _star(a, b):
    """Redheffer star product of scattering matrices ((r, t'), (t, r')), a left of b."""
    (ra, tpa), (ta, rpa) = a
    (rb, tpb), (tb, rpb) = b
    loop = 1.0 / (1.0 - rpa * rb)
    return (
        (ra + tpa * rb * ta * loop, tpa * tpb * loop),
        (tb * ta * loop, rpb + tb * rpa * tpb * loop),
    )


def transfer_matrix_rt(n0: complex, k: float, half_length_L: float) -> tuple[complex, complex]:
    """R and T of the slab by joining its two faces with the Redheffer star product.

    Each face matches u and u'/n^2 in plane-wave bases anchored at that face,
    in scattering form; the interior ((0, P), (P, 0)) with P = exp(2i n0 k L)
    joins them.  R and T are multiplied by e^{-2ikL}, the closed forms' phase
    convention.  Im n0 >= 0 makes |P| <= 1, so only decaying factors appear
    and the result stays bounded at every evanescent depth.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    if n0 == 0 or not cmath.isfinite(n0):
        raise ValueError(f"n0 must be nonzero and finite, got {n0}")
    vacuum, slab = _field_matrix(1.0, k), _field_matrix(n0, k)
    p = cmath.exp(2j * n0 * k * half_length_L)
    s = _star(_star(_interface(vacuum, slab), ((0.0, p), (p, 0.0))), _interface(slab, vacuum))
    phase = cmath.exp(-2j * k * half_length_L)
    return s[0][0] * phase, s[1][0] * phase


def _smoothstep(t: float) -> float:
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class SmoothedProfile:
    """Index profile with continuous ramps of width delta outside the slab.

    For a real interior index the ramp interpolates n(x) itself.  For an
    imaginary interior index (absorption band) a straight-line ramp of the
    complex n would make n^2 complex and break the self-adjoint,
    flux-conserving form of the field equation, so there the ramp
    interpolates the (real, sign-changing) squared index instead.
    ``source_amplitude`` is the matched unit-amplitude ramp F(x) of the
    matter-source check.
    """

    half_length_L: float
    delta: float
    n_inside: complex
    ramp_shape: str = RAMP_LINEAR
    c: float = 1.0

    def __post_init__(self) -> None:
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.delta > self.half_length_L / 10.0 * (1.0 + 1e-12):
            raise ValueError(
                f"delta={self.delta} must not exceed half_length_L/10="
                f"{self.half_length_L / 10.0}"
            )
        eps = self.n_inside**2
        if abs(eps.imag) > 1e-12 * max(1.0, abs(eps)):
            raise ValueError(
                f"n_inside^2 must be real (purely real or purely imaginary index), "
                f"got n_inside={self.n_inside}"
            )
        if self.ramp_shape not in (RAMP_LINEAR, RAMP_SMOOTHSTEP):
            raise ValueError(f"unknown ramp_shape {self.ramp_shape!r}")

    @classmethod
    def for_medium(
        cls,
        medium: MediumSpec,
        omega: float,
        delta: float,
        ramp_shape: str = RAMP_LINEAR,
    ) -> "SmoothedProfile":
        n0 = refractive_index(medium, omega).n
        return cls(
            half_length_L=medium.half_length_L,
            delta=delta,
            n_inside=n0,
            ramp_shape=ramp_shape,
            c=medium.c,
        )

    @classmethod
    def resonance(
        cls,
        half_length_L: float,
        delta: float,
        ramp_shape: str = RAMP_LINEAR,
        c: float = 1.0,
    ) -> "SmoothedProfile":
        """Profile with the interior index driven to (regularized) zero."""
        return cls(
            half_length_L=half_length_L,
            delta=delta,
            n_inside=complex(RESONANCE_INTERIOR_INDEX, 0.0),
            ramp_shape=ramp_shape,
            c=c,
        )

    @property
    def eps_inside(self) -> float:
        return (self.n_inside**2).real

    @property
    def index_is_real(self) -> bool:
        return self.eps_inside >= 0.0

    def _ramp(self, t: float) -> float:
        return _smoothstep(t) if self.ramp_shape == RAMP_SMOOTHSTEP else t

    def ramp_fraction(self, x: float) -> float:
        """0 outside the support, 1 on the flat interior, ramp value in between."""
        L, d = self.half_length_L, self.delta
        ax = abs(x)
        if ax >= L + d:
            return 0.0
        if ax <= L:
            return 1.0
        return self._ramp((L + d - ax) / d)

    def eps_of_x(self, x: float) -> float:
        """Real squared refractive index at position x."""
        s = self.ramp_fraction(x)
        if self.index_is_real:
            n = 1.0 + (self.n_inside.real - 1.0) * s
            return n * n
        return 1.0 + (self.eps_inside - 1.0) * s

    def n_of_x(self, x: float) -> complex:
        """Index with the Im >= 0 branch (evanescent decay)."""
        if self.index_is_real:
            return complex(1.0 + (self.n_inside.real - 1.0) * self.ramp_fraction(x), 0.0)
        eps = self.eps_of_x(x)
        if eps >= 0.0:
            return complex(math.sqrt(eps), 0.0)
        return complex(0.0, math.sqrt(-eps))

    def source_amplitude(self, x: float) -> float:
        """Unit-amplitude matter-source shape F(x), following the sqrt(g) ramp."""
        return self.ramp_fraction(x)

    def breakpoints(self) -> tuple[float, float, float, float]:
        L, d = self.half_length_L, self.delta
        return (-L - d, -L, L, L + d)


def _integrate_legs(profile: SmoothedProfile, omega: float, y_start, dense: bool, source=False):
    """Chain solve_ivp across the smooth legs, left to right; returns per-leg solutions.

    The state is (Lambda, Psi).  ``source`` appends the carried source
    integral J, started at 0 with J' = -F(x) Lambda'(x) (see
    ``source_integral_check``), as a third component under the same error
    control.
    """
    c = profile.c
    omega_sq = omega * omega

    def rhs(x, y):
        return [profile.eps_of_x(x) / (c * c) * y[1], -omega_sq * y[0]]

    def rhs_with_source(x, y):
        d_lam, d_psi = rhs(x, y)
        return [d_lam, d_psi, -profile.source_amplitude(x) * d_lam]

    solutions = []
    y = np.asarray((*y_start, 0j) if source else y_start, dtype=complex)
    x0, *legs = profile.breakpoints()
    for x1 in legs:
        sol = solve_ivp(
            rhs_with_source if source else rhs,
            (x0, x1),
            y,
            method="DOP853",
            rtol=ODE_RTOL,
            atol=ODE_ATOL,
            dense_output=dense,
        )
        if not sol.success:
            raise StiffnessFailure(
                f"integrator failed on leg ({x0}, {x1}) at omega={omega}: {sol.message}"
            )
        solutions.append(sol)
        y = sol.y[:, -1]
        x0 = x1
    return solutions, y


class _ProfileSolution:
    """Dense (Lambda, Psi) solution across the whole profile support."""

    def __init__(self, solutions, scale: complex):
        self.solutions = solutions
        self.scale = scale
        self.spans = [(s.t[0], s.t[-1]) for s in solutions]

    def __call__(self, x: float) -> tuple[complex, complex]:
        for sol, (lo, hi) in zip(self.solutions, self.spans):
            if lo - 1e-12 <= x <= hi + 1e-12:
                lam, psi = sol.sol(min(max(x, lo), hi))
                return lam * self.scale, psi * self.scale
        raise ValueError(f"x={x} outside the integrated span")


def _outgoing_on_left(profile: SmoothedProfile, omega: float, dense: bool, source=False):
    """u_r up to scale, from the outgoing wave e^{-ikx} at x = -L - delta.

    Returns the leg solutions, the field a_in e^{-ikx} + a_out e^{ikx} at
    x = L + delta, and the end state (with the carried J when ``source`` is set).
    """
    _check_omega(omega)
    c = profile.c
    k = omega / c
    xl, _, _, xr = profile.breakpoints()
    y0 = (cmath.exp(-1j * k * xl), -1j * k * c * c * cmath.exp(-1j * k * xl))
    solutions, y = _integrate_legs(profile, omega, y0, dense, source)
    lam, psi = y[:2]
    plane = psi / (1j * k * c * c)
    a_in = 0.5 * (lam - plane) * cmath.exp(1j * k * xr)
    a_out = 0.5 * (lam + plane) * cmath.exp(-1j * k * xr)
    return solutions, a_in, a_out, y


def ode_scatter(profile: SmoothedProfile, omega: float) -> tuple[complex, complex]:
    """R and T by direct integration of the smoothed-profile field equation.

    The equation d/dx[(c^2/n^2) d_x u] + omega^2 u = 0 is integrated as the
    first-order system in (u, Psi) with Psi = (c^2/n^2) d_x u, the continuous
    flux variable, for incidence from the right (see ``_outgoing_on_left``).
    The profile is mirror symmetric, so R and T are the same from either side.
    """
    _, a_in, a_out, _ = _outgoing_on_left(profile, omega, dense=False)
    return a_out / a_in, 1.0 / a_in


def right_incident_solution(profile: SmoothedProfile, omega: float) -> _ProfileSolution:
    """Dense u_r across the profile, normalized to unit incidence from the right."""
    solutions, a_in, _, _ = _outgoing_on_left(profile, omega, dense=True)
    return _ProfileSolution(solutions, 1.0 / a_in)


def source_integral_check(profile: SmoothedProfile, resonance_omega: float) -> complex:
    """The matter-source overlap integral I(delta) = int u_r(x) F'(x) dx.

    At a bare resonance on the zero-interior-index profile the two ramp
    contributions cancel against each other as delta -> 0, so |I(delta)|
    measures how well the matter terms decouple from the out-field.  The
    cancellation is first order in the ramp width: the flux
    Psi = (c^2/n^2) u' is nearly constant across each thin ramp, and with
    k = omega/c

        I(delta) = 2i C k delta e^{-ikL} + O(delta^2),
        C = int_0^1 rho^2 (1 - rho) d tau,

    where rho(tau) is the ramp shape: C = 1/12 for the linear ramp and
    9/140 for smoothstep.  The seam fluxes come from the zero-index closed
    form u_r = e^{-ikL} / (1 - ikL) on the interior.

    F vanishes at both ends of the support, so I = -int F(x) u'(x) dx.  The
    ODE pass carries that integral as a third state component,
    J' = -F(x) Lambda'(x) with F = ``source_amplitude``, so the integrator's
    own error control covers it, and I = J / a_in at the right end.  Each
    ramp adds O(delta) to J.  The direct form J' = Lambda F' would instead
    cancel two O(1) ramp integrals down to the O(k delta) result, so its
    error, held to the tolerance of J's O(1) size, would grow like
    1 / (k delta) relative to I.
    """
    _, a_in, _, y = _outgoing_on_left(profile, resonance_omega, dense=False, source=True)
    return complex(y[2] / a_in)


def write_golden_fixture(
    path: str | Path,
    medium: MediumSpec,
    omegas,
    tolerance: float = 1e-10,
    note: str = "",
) -> dict:
    """Emit transfer-matrix golden values for later closed-form comparison.

    The file is human-readable JSON with a provenance header recording the
    medium, the oracle identity, and the agreement tolerance the consumer
    should enforce.
    """
    entries = []
    for omega in omegas:
        n0 = refractive_index(medium, omega).n
        refl, trans = transfer_matrix_rt(n0, omega / medium.c, medium.half_length_L)
        entries.append(
            {
                "omega": omega,
                "R": [refl.real, refl.imag],
                "T": [trans.real, trans.imag],
            }
        )
    payload = {
        "format_version": 1,
        "provenance": {
            "oracle": "transfer_matrix_rt (2x2 face S-matrices, Redheffer star product)",
            "tolerance": tolerance,
            "note": note,
            "medium": {
                "unit_mode": medium.unit_mode,
                "half_length_L": medium.half_length_L,
                **({"cross_section_A": medium.cross_section_A} if medium.unit_mode == "SI" else {}),
                "oscillators": [
                    {"omega_res": s.omega_res, "coupling_g": s.coupling_g}
                    for s in medium.species
                ],
            },
        },
        "entries": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def read_golden_fixture(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _fixture_field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def check_golden_fixture(path: str | Path) -> tuple[float, float]:
    """Compare fixture R, T against the closed forms; returns (max_err, tolerance).

    A fixture is outside input: one that cannot be read or parsed, or that
    lacks or garbles a field, raises ``ConfigError`` naming the file and field.
    """
    try:
        payload = read_golden_fixture(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    prov = _fixture_field(payload, "provenance", str(path))
    spec = _fixture_field(prov, "medium", f"{path}: provenance")
    medium = medium_from_dict(spec, source=f"{path}: provenance.medium")
    tolerance = _require_positive(
        _fixture_field(prov, "tolerance", f"{path}: provenance"), f"{path}: provenance.tolerance"
    )
    entries = _fixture_field(payload, "entries", str(path))
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: entries: expected an array")
    worst = 0.0
    for i, entry in enumerate(entries):
        try:
            sol = scatter_coefficients(medium, entry["omega"])
            refl = complex(*entry["R"])
            trans = complex(*entry["T"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: entries[{i}]: {exc!r}") from exc
        worst = max(worst, abs(sol.R - refl), abs(sol.T - trans))
    return worst, tolerance
