"""Independent brute-force verifiers for the slab scattering solution.

Three mutually independent routes cross-check the closed forms:

* ``transfer_matrix_rt`` joins the faces' Fresnel scattering matrices by star product.
* ``ode_scatter`` integrates the frequency-domain field equation on a
  smoothed index profile, realizing the sharp-boundary answer in the
  ramp-width -> 0 limit.
* ``source_integral_check`` measures the matter-source integral that must
  vanish at the bare resonances.

None of these reuse the slab module's algebra.  ``verify`` runs them, with
the unitarity checks, as the property report of ``qslab verify``.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from .config import (
    _require_finite,
    _require_key,
    _require_positive,
    medium_from_dict,
    medium_to_dict,
    read_json,
)
from .errors import ConfigError, PoleDivergentFrequency, RangeError, StiffnessFailure
from .medium import MediumSpec, _check_omega, band_edges, pole_adjacent, refractive_index
from .quantum_io import unitarity_defects
from .slab import resonance_coefficients, scatter_coefficients, scatter_on_grid

RAMP_LINEAR = "linear"
RAMP_SMOOTHSTEP = "smoothstep"

ODE_RTOL = 1e-10
ODE_ATOL = 1e-14

# DOP853 takes a few dozen steps per interior wavelength, so a pass costs
# about 0.45 ms per radian of the phase |n_inside| k (L + delta): 0.25 s at
# 550 rad and 0.77 s at 1,650 rad for one profile.  A profile past this
# bound raises StiffnessFailure before integrating instead of running for
# minutes (5.5e4 rad ran past 25 s).  Verify's probes stay below 1.4 rad.
ODE_MAX_PHASE = 1e3

# Interior index used in place of an exact zero on resonance profiles; the
# flux variable (c^2/n^2) d_x u is formally singular at n = 0 itself.
RESONANCE_INTERIOR_INDEX = 1e-6


def _face(n_left: complex, n_right: complex):
    """Fresnel face ((r, t'), (t, r')): outgoing (b_l, a_r) from incoming (a_l, b_r).

    a and b weight e^{+i n k x} and e^{-i n k x} anchored at the face.
    Matching u and u'/n^2 gives t = 1 + r, r' = -r and t' = 1 - r; k cancels.
    """
    r = (n_right - n_left) / (n_right + n_left)
    return ((r, 1.0 - r), (1.0 + r, -r))


def _star(a, b):
    """Redheffer star product of scattering matrices ((r, t'), (t, r')), a left of b."""
    (ra, tpa), (ta, rpa) = a
    (rb, tpb), (tb, rpb) = b
    loop = 1.0 / (1.0 - rpa * rb)
    return (
        (ra + tpa * rb * ta * loop, tpa * tpb * loop),
        (tb * ta * loop, rpb + tb * rpa * tpb * loop),
    )


def _require(ok, values, message: str) -> None:
    """Raise ``ValueError`` with ``message`` and the first of ``values`` where ``ok`` fails."""
    if not np.all(ok):
        raise ValueError(f"{message}, got {np.asarray(values)[~np.asarray(ok)].flat[0]}")


def transfer_matrix_rt(n0: complex | np.ndarray, k: float | np.ndarray, half_length_L: float):
    """R and T of the slab by joining its two faces with the Redheffer star product.

    Each face is its Fresnel matrix, ``_face``, which carries no k; the
    interior ((0, P), (P, 0)) with P = exp(2i n0 k L) joins them.  R and T
    are multiplied by e^{-2ikL}, the closed forms' phase convention.
    Im n0 >= 0 makes |P| <= 1, so only decaying factors appear and the
    result stays bounded at every evanescent depth.  n0 = 0 is rejected:
    both faces then reflect totally and the loop factor 1 / (1 - r' r P^2)
    is 1/0.  Next to a bare resonance that factor cancels, so the result
    loses about eps / |n0| relative accuracy there.

    ``n0`` and ``k`` may be scalars or numpy arrays of matching shape: the
    star-product algebra is plain arithmetic, so it runs elementwise.
    """
    _require((k > 0.0) & (k < math.inf), k, "k must be positive and finite")
    _require((n0 != 0) & np.isfinite(n0), n0, "n0 must be nonzero and finite")
    p = np.exp(2j * n0 * k * half_length_L)
    s = _star(_star(_face(1.0, n0), ((0.0, p), (p, 0.0))), _face(n0, 1.0))
    phase = np.exp(-2j * k * half_length_L)
    return s[0][0] * phase, s[1][0] * phase


@dataclass(frozen=True)
class SmoothedProfile:
    """Index profile with continuous ramps of width delta outside the slab.

    For a real interior index the ramp interpolates n(x) itself.  For an
    imaginary interior index (absorption band) a straight-line ramp of the
    complex n would make n^2 complex and break the self-adjoint,
    flux-conserving form of the field equation, so there the ramp
    interpolates the (real, sign-changing) squared index instead.
    Either interpolation follows the unit-amplitude ramp F(x),
    ``source_amplitude``, which is also the matter-source shape of the
    source check.
    """

    half_length_L: float
    delta: float
    n_inside: complex
    ramp_shape: str = RAMP_LINEAR
    c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("half_length_L", "c"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        eps = self.n_inside * self.n_inside
        if not cmath.isfinite(eps):
            raise ValueError(f"n_inside and its square must be finite, got {self.n_inside}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.delta > self.half_length_L / 10.0 * (1.0 + 1e-12):
            raise ValueError(
                f"delta={self.delta} must not exceed half_length_L/10="
                f"{self.half_length_L / 10.0}"
            )
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

    # cached: eps_of_x reads them on every right-hand-side evaluation
    @cached_property
    def eps_inside(self) -> float:
        return (self.n_inside**2).real

    @cached_property
    def index_is_real(self) -> bool:
        return self.eps_inside >= 0.0

    def source_amplitude(self, x: float) -> float:
        """The ramp F(x): 0 outside the support, 1 on the flat interior, the ramp shape in between."""
        L, d = self.half_length_L, self.delta
        ax = abs(x)
        if ax >= L + d:
            return 0.0
        if ax <= L:
            return 1.0
        t = (L + d - ax) / d
        return t * t * (3.0 - 2.0 * t) if self.ramp_shape == RAMP_SMOOTHSTEP else t

    def eps_of_x(self, x: float) -> float:
        """Real squared refractive index at position x."""
        s = self.source_amplitude(x)
        if self.index_is_real:
            n = 1.0 + (self.n_inside.real - 1.0) * s
            return n * n
        return 1.0 + (self.eps_inside - 1.0) * s

    def n_of_x(self, x: float) -> complex:
        """Index with the Im >= 0 branch (evanescent decay)."""
        if self.index_is_real:
            return complex(1.0 + (self.n_inside.real - 1.0) * self.source_amplitude(x), 0.0)
        eps = self.eps_of_x(x)
        if eps >= 0.0:
            return complex(math.sqrt(eps), 0.0)
        return complex(0.0, math.sqrt(-eps))

    def breakpoints(self) -> tuple[float, float, float, float]:
        L, d = self.half_length_L, self.delta
        return (-L - d, -L, L, L + d)


def _outgoing_on_left(profiles: tuple[SmoothedProfile, ...], omega: float, dense: bool, source=False):
    """u_r up to scale for each profile, from the outgoing wave e^{-ikx} at x = -L - delta.

    Chains solve_ivp across the smooth legs, left to right, on the state
    (Lambda, Psi) of each profile.  ``source`` appends the carried source
    integral J, started at 0 with J' = -F(x) Lambda'(x) (see
    ``source_integral_check``), as a third component under the same error
    control.

    All profiles ride in one stacked system per leg, so a ramp-width sequence
    costs one solve_ivp call per leg, not one per leg and profile.  The first
    profile's breakpoints are the leg coordinates: every profile p, the first
    included, maps its leg (a_p, b_p) onto (x0, x1) by
    x_p = x + ((a_p - x0) + (x - x0) (r_p - 1)), r_p = (b_p - a_p) / (x1 - x0),
    and scales its right-hand side by r_p.  For the first both terms are 0
    and r_p = 1 exactly, so a 1-tuple is the plain pass bit for bit; in the
    form a_p + (x - x0) r_p it would not be, at the steps DOP853 takes one
    ulp past a leg's end, where x0 + (x - x0) is not x.  DOP853's error
    norm is an RMS over the components, so m stacked profiles would loosen
    the control on the dominant one by up to sqrt(m); rtol and atol are
    divided by sqrt(m) to keep it.  Callers put the largest delta first, so
    the thinner ramps ride at r_p < 1: with the smallest delta first, the
    source integral's worst relative error over 36 random media rose from
    5.6e-10 to 1.6e-9.  Every profile must share one ``c``, since k = omega / c.
    A profile whose phase |n_inside| k (L + delta) passes ODE_MAX_PHASE
    raises ``StiffnessFailure`` before any step is taken.

    Returns the per-leg solutions, per profile the field
    a_in e^{-ikx} + a_out e^{ikx} at x = L + delta as lists of a_in and a_out,
    and the stacked end state (with the carried J when ``source`` is set).
    """
    _check_omega(omega)
    if not profiles:
        raise ValueError("profiles must not be empty")
    c = profiles[0].c
    if any(profile.c != c for profile in profiles):
        raise ValueError(f"every profile must share one c, got c={[p.c for p in profiles]}")
    k = omega / c
    phase = max(abs(profile.n_inside) * k * (profile.half_length_L + profile.delta) for profile in profiles)
    if not phase <= ODE_MAX_PHASE:
        raise StiffnessFailure(
            f"omega={omega}: the interior phase |n| k (L + delta) = {phase:.4g} exceeds {ODE_MAX_PHASE:g}"
        )
    omega_sq = omega * omega
    c_sq = c * c
    width = 3 if source else 2
    breaks = [profile.breakpoints() for profile in profiles]

    def leg_rhs(x0, x1, leg):
        """(Lambda, Psi[, J])' of every profile on the first profile's leg (x0, x1)."""
        maps = []
        for i, (profile, points) in enumerate(zip(profiles, breaks)):
            a, b = points[leg - 1], points[leg]
            r = (b - a) / (x1 - x0)
            maps.append((profile.eps_of_x, profile.source_amplitude, a - x0, r - 1.0, r, -omega_sq * r, width * i))

        def rhs(x, y):
            dx = x - x0
            dy = []
            for eps_of_x, amplitude, shift, stretch, r, psi_rate, i in maps:
                x_p = x + (shift + dx * stretch)
                d_lam = r * eps_of_x(x_p) / c_sq * y[i + 1]
                d_psi = psi_rate * y[i]
                dy += (d_lam, d_psi, -amplitude(x_p) * d_lam) if source else (d_lam, d_psi)
            return dy

        return rhs

    start = []
    for points in breaks:
        wave = cmath.exp(-1j * k * points[0])
        start += (wave, -1j * k * c * c * wave, 0j)[:width]
    y = np.asarray(start, dtype=complex)
    scale = math.sqrt(len(profiles))
    x0, *legs = breaks[0]
    solutions = []
    for leg, x1 in enumerate(legs, 1):
        sol = solve_ivp(
            leg_rhs(x0, x1, leg),
            (x0, x1),
            y,
            method="DOP853",
            rtol=ODE_RTOL / scale,
            atol=ODE_ATOL / scale,
            dense_output=dense,
        )
        if not sol.success:
            raise StiffnessFailure(
                f"integrator failed on leg ({x0}, {x1}) at omega={omega}: {sol.message}"
            )
        solutions.append(sol)
        y = sol.y[:, -1]
        x0 = x1
    a_in, a_out = [], []
    for i, points in enumerate(breaks):
        lam, psi = y[width * i : width * i + 2]
        plane = psi / (1j * k * c * c)
        a_in.append(0.5 * (lam - plane) * cmath.exp(1j * k * points[-1]))
        a_out.append(0.5 * (lam + plane) * cmath.exp(-1j * k * points[-1]))
    return solutions, a_in, a_out, y


class _ProfileSolution:
    """Dense (Lambda, Psi) solution across the whole profile support."""

    def __init__(self, solutions, scale: complex):
        self.solutions = solutions
        self.scale = scale
        self.spans = [(s.t[0], s.t[-1]) for s in solutions]

    def __call__(self, x: float) -> tuple[complex, complex]:
        # leg ends are the breakpoints exactly, since solve_ivp ends each leg on t_bound
        for sol, (lo, hi) in zip(self.solutions, self.spans):
            if lo <= x <= hi:
                lam, psi = sol.sol(x)
                return lam * self.scale, psi * self.scale
        raise ValueError(f"x={x} outside the integrated span")


def _as_profiles(profile) -> tuple[SmoothedProfile, ...]:
    """One profile as a 1-tuple, a sequence of profiles as a tuple."""
    return (profile,) if isinstance(profile, SmoothedProfile) else tuple(profile)


def _one_or_array(profile, values: list):
    """``values[0]`` for one profile, an array of ``values`` for a sequence."""
    return values[0] if isinstance(profile, SmoothedProfile) else np.array(values)


def ode_scatter(profile: SmoothedProfile | Sequence[SmoothedProfile], omega: float):
    """R and T by direct integration of the smoothed-profile field equation.

    The equation d/dx[(c^2/n^2) d_x u] + omega^2 u = 0 is integrated as the
    first-order system in (u, Psi) with Psi = (c^2/n^2) d_x u, the continuous
    flux variable, for incidence from the right (see ``_outgoing_on_left``).
    The profile is mirror symmetric, so R and T are the same from either side.

    ``profile`` is one profile, giving complex R and T, or a sequence of
    profiles with one ``c`` (a ramp-width sequence, largest delta first),
    giving arrays of R and T in its order from one stacked pass.
    """
    _, a_in, a_out, _ = _outgoing_on_left(_as_profiles(profile), omega, dense=False)
    refl = [out / inn for out, inn in zip(a_out, a_in)]
    return _one_or_array(profile, refl), _one_or_array(profile, [1.0 / inn for inn in a_in])


def right_incident_solution(profile: SmoothedProfile, omega: float) -> _ProfileSolution:
    """Dense u_r across the profile, normalized to unit incidence from the right."""
    solutions, a_in, _, _ = _outgoing_on_left((profile,), omega, dense=True)
    return _ProfileSolution(solutions, 1.0 / a_in[0])


def source_integral_check(profile: SmoothedProfile | Sequence[SmoothedProfile], resonance_omega: float):
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

    ``profile`` is one profile, giving a complex I, or a sequence of profiles
    with one ``c`` (largest delta first), giving an array of I in its order
    from one stacked pass.
    """
    _, a_in, _, y = _outgoing_on_left(_as_profiles(profile), resonance_omega, dense=False, source=True)
    return _one_or_array(profile, [complex(y[3 * i + 2] / inn) for i, inn in enumerate(a_in)])


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
    omegas = list(omegas)
    index = np.array([refractive_index(medium, omega).n for omega in omegas])
    refl, trans = transfer_matrix_rt(index, np.array(omegas) / medium.c, medium.half_length_L)
    entries = [
        {"omega": omega, "R": [r.real, r.imag], "T": [t.real, t.imag]}
        for omega, r, t in zip(omegas, refl.tolist(), trans.tolist())
    ]
    payload = {
        "format_version": 1,
        "provenance": {
            "oracle": "transfer_matrix_rt (2x2 face S-matrices, Redheffer star product)",
            "tolerance": tolerance,
            "note": note,
            "medium": medium_to_dict(medium),
        },
        "entries": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def _fixture_complex(entry: dict, key: str, where: str) -> complex:
    """A fixture's ``[re, im]`` pair of finite numbers, as a complex."""
    pair = _require_key(entry, key, where)
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{where}.{key}: expected [re, im], got {pair!r}")
    return complex(*(_require_finite(part, f"{where}.{key}") for part in pair))


def check_golden_fixture(path: str | Path) -> tuple[float, float]:
    """Compare fixture R, T against the closed forms; returns (max_err, tolerance).

    A fixture is outside input: one that cannot be read or parsed, that lacks
    or garbles a field, or that holds a frequency the closed form rejects,
    raises ``ConfigError`` naming the file and field.
    """
    payload = read_json(path)
    prov = _require_key(payload, "provenance", str(path))
    spec = _require_key(prov, "medium", f"{path}: provenance")
    medium = medium_from_dict(spec, source=f"{path}: provenance.medium")
    tolerance = _require_positive(
        _require_key(prov, "tolerance", f"{path}: provenance"), f"{path}: provenance.tolerance"
    )
    entries = _require_key(payload, "entries", str(path))
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: entries: expected an array")
    worst = 0.0
    for i, entry in enumerate(entries):
        where = f"{path}: entries[{i}]"
        omega = _require_positive(_require_key(entry, "omega", where), f"{where}.omega")
        refl = _fixture_complex(entry, "R", where)
        trans = _fixture_complex(entry, "T", where)
        try:
            sol = scatter_coefficients(medium, omega)
        except (RangeError, PoleDivergentFrequency) as exc:
            raise ConfigError(f"{where}.omega: {exc}") from exc
        worst = max(worst, abs(sol.R - refl), abs(sol.T - trans))
    return worst, tolerance


def _entry(name: str, measured: str, tolerance: str, ok: bool) -> dict:
    return {"name": name, "measured": measured, "tolerance": tolerance, "verdict": "PASS" if ok else "FAIL"}


def _skip(name: str, reason: str = "no resonances in the medium") -> dict:
    return {"name": name, "verdict": "SKIP", "reason": reason}


def _sweep_properties(medium: MediumSpec) -> list[dict]:
    """unitarity_sweep, oracle_agreement and smatrix_unitarity, read from one grid pass."""
    resonances, scale = medium.resonances(), medium.c / medium.half_length_L
    lo, hi = (0.05 * resonances[0], 2.0 * resonances[-1]) if resonances else (0.1 * scale, 2.0 * scale)
    omegas = np.linspace(lo, hi, 2000)
    omegas = omegas[~pole_adjacent(medium, omegas)]
    refl, trans, index = scatter_on_grid(medium, omegas)
    worst = float(np.abs(np.abs(refl) ** 2 + np.abs(trans) ** 2 - 1.0).max())
    entries = [_entry("unitarity_sweep", f"{worst:.3e}", "1e-12", worst <= 1e-12)]

    # at a bare resonance (n0 = 0) the oracle's loop factor is 1/0, so those points stay out
    safe = np.flatnonzero(index != 0)
    picked = safe[:: max(1, len(safe) // 300)]
    refl, trans = refl[picked], trans[picked]
    r_tm, t_tm = transfer_matrix_rt(index[picked], omegas[picked] / medium.c, medium.half_length_L)
    worst = float(np.maximum(np.abs(refl - r_tm), np.abs(trans - t_tm)).max())
    entries.append(_entry("oracle_agreement", f"{worst:.3e}", "1e-10", worst <= 1e-10))
    worst = float(unitarity_defects(refl, trans).max())
    entries.append(_entry("smatrix_unitarity", f"{worst:.3e}", "1e-12", worst <= 1e-12))
    return entries


def _resonance_continuity(medium: MediumSpec) -> dict:
    """R and T next to Omega_1, extrapolated onto it, against the zero-index closed form.

    The mean m(h) of R (or T) at Omega_1 -/+ h is f(Omega_1) plus f'' h^2 / 2
    plus higher even orders, so the Richardson extrapolation
    (4 m(h) - m(2h)) / 3 cancels the second-order term (Richardson, Phil.
    Trans. R. Soc. A 210, 307 (1911)).  The expansion converges out to the
    nearest band edge, where the index has a pole, so h is at most 1e-8
    Omega_1 and 1e-4 of that edge's distance.  h is a power of two, so the
    four frequencies are exact and the offsets symmetric: a rounded offset
    would leave a first-order term.  Where h falls below one ulp of Omega_1
    (a band edge within about 4e-12 Omega_1, a very weakly coupled species)
    every probe would be Omega_1 itself, so the check is skipped.
    """
    if not medium.resonances():
        return _skip("resonance_continuity")
    omega_res = medium.resonances()[0]
    nearest_edge = min(abs(edge - omega_res) for edge in band_edges(medium))
    step = 2.0 ** math.floor(math.log2(min(1e-4 * nearest_edge, 1e-8 * omega_res)))
    if step < math.ulp(omega_res):
        reason = f"the nearest band edge, {nearest_edge:.3e} from Omega_1, leaves no offset above one ulp"
        return _skip("resonance_continuity", reason)

    def mean(offset: float) -> tuple[complex, complex]:
        lo = scatter_coefficients(medium, omega_res - offset)
        hi = scatter_coefficients(medium, omega_res + offset)
        return 0.5 * (lo.R + hi.R), 0.5 * (lo.T + hi.T)

    (refl_1, trans_1), (refl_2, trans_2) = mean(step), mean(2.0 * step)
    refl, trans = resonance_coefficients(omega_res, medium.half_length_L, medium.c)
    err = max(abs((4.0 * refl_1 - refl_2) / 3.0 - refl), abs((4.0 * trans_1 - trans_2) / 3.0 - trans))
    return _entry("resonance_continuity", f"{err:.3e}", "1e-10", err <= 1e-10)


def _ode_delta_convergence(medium: MediumSpec) -> dict:
    """The ODE route's R and T approach the closed form as the ramp width delta falls."""
    scale = medium.c / medium.half_length_L
    # probe the smoothing limit where the slab is at most about a wavelength
    # thick; the fixed delta sequence cannot resolve the limit to 1e-3 when
    # omega L / c is large (the O(delta) constant scales with it).  The probe
    # is the middle of the lowest transmission band, (0, first edge).
    omega_probe = min(0.5 * (band_edges(medium) or (scale,))[0], scale)
    sol = scatter_coefficients(medium, omega_probe)
    # one stacked pass over the sequence, largest delta first
    profiles = [
        SmoothedProfile.for_medium(medium, omega_probe, medium.half_length_L / denominator)
        for denominator in (10, 30, 100, 300)
    ]
    refl, trans = ode_scatter(profiles, omega_probe)
    errors = np.hypot(np.abs(refl - sol.R), np.abs(trans - sol.T))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    # an already-converged sequence (vacuum) bottoms out at integrator noise
    ok = (monotone and errors[-1] < 1e-3) or all(e < 1e-9 for e in errors)
    return _entry("ode_delta_convergence", f"{errors[-1]:.3e}", "1e-3", ok)


def _resonance_source_properties(medium: MediumSpec) -> list[dict]:
    """source_monotone_decay, source_decay_ratio and resonance_mode_flatness at Omega_1."""
    names = ("source_monotone_decay", "source_decay_ratio", "resonance_mode_flatness")
    if not medium.resonances():
        return [_skip(name) for name in names]
    omega_res, length = medium.resonances()[0], medium.half_length_L
    profiles = [SmoothedProfile.resonance(length, length / d, c=medium.c) for d in (10, 30, 100)]
    magnitudes = np.abs(source_integral_check(profiles, omega_res))
    monotone = all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
    ratio = magnitudes[-1] / magnitudes[0]
    u_r = right_incident_solution(profiles[-1], omega_res)
    (left, _), (right, _) = u_r(-length), u_r(length)
    mismatch = abs(left - right) / abs(right)
    return [
        _entry(names[0], f"{magnitudes[-1]:.3e}", "decreasing", monotone),
        _entry(names[1], f"{ratio:.4f}", "0.05", ratio < 0.05),
        _entry(names[2], f"{mismatch:.3e}", "1e-6", mismatch <= 1e-6),
    ]


def verify(medium: MediumSpec, level: str = "quick", fixture: str | Path | None = None) -> list[dict]:
    """The ``qslab verify`` report on ``medium``: one entry per property, in report order.

    An entry is ``name``, ``measured`` and ``tolerance`` as printed, and a
    ``verdict`` of PASS or FAIL; or ``name``, ``verdict`` SKIP and a ``reason``.
    A ``fixture`` adds the golden-fixture check; ``level`` "full" adds the
    ODE and matter-source checks.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    entries = [*_sweep_properties(medium), _resonance_continuity(medium)]
    if fixture:
        worst, tol = check_golden_fixture(fixture)
        entries.append(_entry("golden_fixture", f"{worst:.3e}", f"{tol:g}", worst <= tol))
    if level == "full":
        entries += [_ode_delta_convergence(medium), *_resonance_source_properties(medium)]
    return entries
