"""Command-line interface: sweeps, band reports, pulse runs, verification.

Subcommands: index, scatter, bands, pulse, greens, verify.  Output is CSV
(default) or JSON; data rows go to stdout or --out, notes go to stderr.
Identical inputs produce byte-identical outputs (suppress the timestamp
header with --no-timestamp).  Exit codes: 0 success, 1 verification
failure, 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, oracle
from .config import load_medium_config, load_pulse_file
from .errors import QslabError, RangeError
from .medium import MediumSpec, band_structure, pole_adjacent, refractive_index
from .quantum_io import detection_rate, s_matrix
from .slab import resonance_coefficients, scatter_coefficients, scatter_on_grid, greens_function

FLOAT_FMT = "{:.17g}"


def _fmt(value: float) -> str:
    return FLOAT_FMT.format(value)


def _finite_float(text: str) -> float:
    """argparse type for every float option: a finite number, else a usage error."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _metadata_lines(args, command: str, cfg_hash: str, extra: dict | None = None) -> list[str]:
    lines = [
        f"# qslab {command}",
        f"# qslab_version: {__version__}",
        f"# config: {args.config} sha256:{cfg_hash}",
    ]
    if not args.no_timestamp:
        lines.append(f"# generated_at: {datetime.now(timezone.utc).isoformat()}")
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, command: str, cfg_hash: str, header: list[str], rows: list[list], extra: dict | None = None) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return
    lines = _metadata_lines(args, command, cfg_hash, extra)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _emit(args, "\n".join(lines) + "\n")


def _sweep_grid(args) -> np.ndarray:
    if not (0.0 < args.omega_min < args.omega_max):
        raise RangeError(
            f"need 0 < omega_min < omega_max, got ({args.omega_min}, {args.omega_max})"
        )
    if args.points < 2:
        raise RangeError(f"points must be >= 2, got {args.points}")
    return np.linspace(args.omega_min, args.omega_max, args.points)


def _split_pole_adjacent(medium: MediumSpec, omegas: np.ndarray) -> tuple[list[float], list[float]]:
    adjacent = pole_adjacent(medium, omegas)
    return omegas[~adjacent].tolist(), omegas[adjacent].tolist()


def _report_skipped(skipped: list[float]) -> None:
    if skipped:
        listed = ", ".join(_fmt(w) for w in skipped)
        print(f"note: skipped pole-adjacent omega: {listed}", file=sys.stderr)


def cmd_index(args) -> int:
    medium, cfg_hash = load_medium_config(args.config)
    omegas, skipped = _split_pole_adjacent(medium, _sweep_grid(args))
    _report_skipped(skipped)

    def row(omega: float):
        iv = refractive_index(medium, omega)
        return [omega, iv.n.real, iv.n.imag, iv.band_kind.value]

    rows = [row(omega) for omega in omegas]
    _emit_table(args, "index", cfg_hash, ["omega", "re_n", "im_n", "band_kind"], rows)
    return 0


def cmd_scatter(args) -> int:
    medium, cfg_hash = load_medium_config(args.config)
    if args.at_resonance:
        omegas = list(medium.resonances())
        if not omegas:
            raise RangeError("--at-resonance needs a medium with at least one oscillator")
        skipped = []
    else:
        if args.omega_min is None or args.omega_max is None or args.points is None:
            raise RangeError("scatter needs --omega-min, --omega-max and --points "
                             "unless --at-resonance is given")
        omegas, skipped = _split_pole_adjacent(medium, _sweep_grid(args))
    _report_skipped(skipped)

    def row(omega: float):
        iv = refractive_index(medium, omega)
        sol = scatter_coefficients(medium, omega)
        unitarity = abs(sol.R) ** 2 + abs(sol.T) ** 2
        return [
            omega,
            iv.n.real,
            iv.n.imag,
            iv.band_kind.value,
            sol.R.real,
            sol.R.imag,
            sol.T.real,
            sol.T.imag,
            unitarity,
        ]

    rows = [row(omega) for omega in omegas]
    header = ["omega", "re_n", "im_n", "band_kind", "re_R", "im_R", "re_T", "im_T", "unitarity"]
    _emit_table(args, "scatter", cfg_hash, header, rows)
    return 0


def cmd_bands(args) -> int:
    medium, cfg_hash = load_medium_config(args.config)
    try:
        bands = band_structure(medium, args.omega_max)
    except ValueError as exc:
        raise RangeError(str(exc)) from exc
    resonances = medium.resonances()
    rows = []
    for band in bands:
        if band.kind.value == "absorption":
            # edge frequency is the lower endpoint; upper endpoint is the resonance
            rows.append([band.lo, band.hi, band.kind.value, band.lo, band.hi])
        else:
            rows.append([band.lo, band.hi, band.kind.value, "", ""])
    header = ["lo", "hi", "kind", "edge_omega", "resonance_omega"]
    _emit_table(args, "bands", cfg_hash, header, rows, extra={"n_resonances": len(resonances)})
    return 0


def cmd_pulse(args) -> int:
    medium, cfg_hash = load_medium_config(args.config)
    if args.prefactor == "physical" and medium.unit_mode != "SI":
        raise RangeError(f"--prefactor physical needs unit_mode 'SI' in {args.config}")
    pulse = load_pulse_file(args.pulse)
    if args.points < 2:
        raise RangeError(f"points must be >= 2, got {args.points}")
    if not args.t_min < args.t_max:
        raise RangeError(f"need t_min < t_max, got ({args.t_min}, {args.t_max})")
    t_grid = np.linspace(args.t_min, args.t_max, args.points)
    trace = detection_rate(medium, pulse, args.detector_x, t_grid, args.prefactor)
    budget = trace.budget
    closure = (budget["transmitted"] + budget["reflected"]) / budget["incident"]
    rows = [[float(t), float(r)] for t, r in zip(trace.t_grid, trace.rate_values)]
    if args.format == "json":
        payload = {
            "metadata": {
                "config_sha256": cfg_hash,
                "detector_x": args.detector_x,
                "prefactor_mode": trace.prefactor_mode,
                "k_points": len(pulse.k_grid),
                "t_points": len(t_grid),
                "nudged_frequencies": [[k, w] for k, w in trace.nudged_frequencies],
                "energy_budget": closure,
            },
            "rows": [{"t": t, "rate": r} for t, r in rows],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        extra = {
            "detector_x": _fmt(args.detector_x),
            "prefactor_mode": trace.prefactor_mode,
            "k_points": len(pulse.k_grid),
            "t_points": len(t_grid),
            "nudged_frequencies": json.dumps(
                [[_fmt(k), _fmt(w)] for k, w in trace.nudged_frequencies]
            ),
            "energy_budget": _fmt(closure),
        }
        _emit_table(args, "pulse", cfg_hash, ["t", "rate"], rows, extra=extra)
    return 0


def cmd_greens(args) -> int:
    medium, cfg_hash = load_medium_config(args.config)
    if not args.omega > 0:
        raise RangeError(f"omega must be positive, got {args.omega}")
    if args.x_points < 1 or args.src_points < 1:
        raise RangeError("grid point counts must be >= 1")
    xs = np.linspace(args.x_min, args.x_max, args.x_points)
    srcs = np.linspace(args.src_min, args.src_max, args.src_points)

    def row(pair):
        x, src = pair
        gv = greens_function(medium, args.omega, x, src)
        return [float(x), float(src), gv.value.real, gv.value.imag]

    pairs = [(x, s) for x in xs for s in srcs]
    rows = [row(pair) for pair in pairs]
    header = ["x", "x_src", "re_G", "im_G"]
    _emit_table(args, "greens", cfg_hash, header, rows, extra={"omega": _fmt(args.omega)})
    return 0


class _Check:
    """The verify report: one entry per property, ``measured`` and ``tolerance`` as printed."""

    def __init__(self) -> None:
        self.entries: list[dict] = []

    def record(self, name: str, measured: str, tol: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        self.entries.append({"name": name, "measured": measured, "tolerance": tol, "verdict": verdict})

    def skip(self, name: str, reason: str) -> None:
        self.entries.append({"name": name, "verdict": "SKIP", "reason": reason})

    @staticmethod
    def line(entry: dict) -> str:
        if entry["verdict"] == "SKIP":
            return f"{entry['name']:<28s} skipped: {entry['reason']}"
        return (f"{entry['name']:<28s} measured={entry['measured']:<14s} "
                f"tol={entry['tolerance']:<10s} {entry['verdict']}")


def _unitarity_defects(refl: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """|(|R|^2 + |T|^2) - 1| per point, bitwise ``abs(abs(r)**2 + abs(t)**2 - 1.0)``.

    ``np.hypot`` and ``np.float_power`` round like the libm hypot and pow
    behind Python's complex ``abs`` and float ``**``; ``np.abs`` of a complex
    array and ``** 2`` on an array need not.
    """
    def squared_modulus(z: np.ndarray) -> np.ndarray:
        return np.float_power(np.hypot(z.real, z.imag), 2.0)

    return np.abs(squared_modulus(refl) + squared_modulus(trans) - 1.0)


def _verify_sweep_range(medium: MediumSpec) -> tuple[float, float]:
    resonances = medium.resonances()
    if resonances:
        return 0.05 * resonances[0], 2.0 * resonances[-1]
    scale = medium.c / medium.half_length_L
    return 0.1 * scale, 2.0 * scale


def cmd_verify(args) -> int:
    medium, _ = load_medium_config(args.config)
    check = _Check()
    lo, hi = _verify_sweep_range(medium)
    kept, _ = _split_pole_adjacent(medium, np.linspace(lo, hi, 2000))
    omegas = np.asarray(kept)

    # one pass over the grid; the three sweep checks read these arrays
    refl, trans, index = scatter_on_grid(medium, omegas)
    worst = float(_unitarity_defects(refl, trans).max())
    check.record("unitarity_sweep", f"{worst:.3e}", "1e-12", worst <= 1e-12)

    # the oracle's faces carry k / n0, so the bare resonances (n0 = 0) stay out
    safe = np.flatnonzero(index != 0)
    picked = safe[:: max(1, len(safe) // 300)]
    oracle_omegas = omegas[picked].tolist()

    def oracle_defect(omega: float, r: complex, t: complex, n0: complex) -> float:
        r_tm, t_tm = oracle.transfer_matrix_rt(n0, omega / medium.c, medium.half_length_L)
        return max(abs(r - r_tm), abs(t - t_tm))

    grid_values = (refl[picked].tolist(), trans[picked].tolist(), index[picked].tolist())
    worst = max(map(oracle_defect, oracle_omegas, *grid_values))
    check.record("oracle_agreement", f"{worst:.3e}", "1e-10", worst <= 1e-10)

    worst = max(s_matrix(medium, omega).unitarity_defect for omega in oracle_omegas)
    check.record("smatrix_unitarity", f"{worst:.3e}", "1e-12", worst <= 1e-12)

    resonances = medium.resonances()
    if resonances:
        omega_res = resonances[0]
        sol_lo = scatter_coefficients(medium, omega_res * (1.0 - 1e-8))
        sol_hi = scatter_coefficients(medium, omega_res * (1.0 + 1e-8))
        refl, trans = resonance_coefficients(
            omega_res, medium.half_length_L, medium.c
        )
        err = max(
            abs(0.5 * (sol_lo.R + sol_hi.R) - refl),
            abs(0.5 * (sol_lo.T + sol_hi.T) - trans),
        )
        check.record("resonance_continuity", f"{err:.3e}", "1e-10", err <= 1e-10)
    else:
        check.skip("resonance_continuity", "no resonances in the medium")

    if args.fixture:
        worst, tol = oracle.check_golden_fixture(args.fixture)
        check.record("golden_fixture", f"{worst:.3e}", f"{tol:g}", worst <= tol)

    if args.level == "full":
        _verify_full(medium, check)

    verdicts = [e["verdict"] for e in check.entries if e["verdict"] != "SKIP"]
    result = "FAIL" if "FAIL" in verdicts else "PASS"
    if args.format == "json":
        report = {"level": args.level, "config": args.config, "properties": check.entries, "result": result}
        _emit(args, json.dumps(report, indent=2) + "\n")
    else:
        lines = [f"qslab verify level={args.level} config={args.config}", *map(_Check.line, check.entries)]
        lines.append(f"RESULT: {result} ({verdicts.count('PASS')}/{len(verdicts)})")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if result == "PASS" else 1


def _verify_full(medium: MediumSpec, check: _Check) -> None:
    scale = medium.c / medium.half_length_L
    bands = band_structure(medium, 2.0 * medium.resonances()[-1] if medium.resonances() else scale)
    # probe the smoothing limit where the slab is at most about a wavelength
    # thick; the fixed delta sequence cannot resolve the limit to 1e-3 when
    # omega L / c is large (the O(delta) constant scales with it)
    omega_probe = min(0.5 * (bands[0].lo + bands[0].hi), scale)
    sol = scatter_coefficients(medium, omega_probe)
    errors = []
    for denominator in (10, 30, 100, 300):
        profile = oracle.SmoothedProfile.for_medium(
            medium, omega_probe, medium.half_length_L / denominator
        )
        refl, trans = oracle.ode_scatter(profile, omega_probe)
        errors.append(float(np.hypot(abs(refl - sol.R), abs(trans - sol.T))))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    # an already-converged sequence (vacuum) bottoms out at integrator noise
    ok = (monotone and errors[-1] < 1e-3) or all(e < 1e-9 for e in errors)
    check.record(
        "ode_delta_convergence",
        f"{errors[-1]:.3e}",
        "1e-3",
        ok,
    )

    resonances = medium.resonances()
    if not resonances:
        for name in ("source_monotone_decay", "source_decay_ratio", "resonance_mode_flatness"):
            check.skip(name, "no resonances in the medium")
        return
    omega_res = resonances[0]
    magnitudes = []
    for denominator in (10, 30, 100):
        profile = oracle.SmoothedProfile.resonance(
            medium.half_length_L, medium.half_length_L / denominator, c=medium.c
        )
        magnitudes.append(abs(oracle.source_integral_check(profile, omega_res)))
    monotone = all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
    ratio = magnitudes[-1] / magnitudes[0]
    check.record("source_monotone_decay", f"{magnitudes[-1]:.3e}", "decreasing", monotone)
    check.record("source_decay_ratio", f"{ratio:.4f}", "0.05", ratio < 0.05)
    profile = oracle.SmoothedProfile.resonance(
        medium.half_length_L, medium.half_length_L / 100.0, c=medium.c
    )
    u_r = oracle.right_incident_solution(profile, omega_res)
    left, _ = u_r(-medium.half_length_L)
    right, _ = u_r(medium.half_length_L)
    mismatch = abs(left - right) / abs(right)
    check.record("resonance_mode_flatness", f"{mismatch:.3e}", "1e-6", mismatch <= 1e-6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qslab",
        description="Scattering of light from a dispersive dielectric slab.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="medium config JSON file")
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect (sweeps run in one thread)",
    )
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="suppress the timestamp metadata line for byte-identical reruns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", parents=[common], help="refractive-index sweep")
    p.add_argument("--omega-min", type=_finite_float, required=True)
    p.add_argument("--omega-max", type=_finite_float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("scatter", parents=[common], help="R/T sweep with unitarity column")
    p.add_argument("--omega-min", type=_finite_float, default=None)
    p.add_argument("--omega-max", type=_finite_float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument(
        "--at-resonance",
        action="store_true",
        help="evaluate exactly at each bare resonance via the closed forms",
    )
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("bands", parents=[common], help="band-structure report")
    p.add_argument("--omega-max", type=_finite_float, required=True)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("pulse", parents=[common], help="coherent-pulse detection trace")
    p.add_argument("--pulse", required=True, help="CSV of (k, Re f, Im f) rows")
    p.add_argument("--detector-x", type=_finite_float, required=True)
    p.add_argument("--t-min", type=_finite_float, required=True)
    p.add_argument("--t-max", type=_finite_float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--prefactor", choices=("normalized", "physical"), default="normalized")
    p.set_defaults(func=cmd_pulse)

    p = sub.add_parser("greens", parents=[common], help="Green's function on an (x, x') grid")
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--x-min", type=_finite_float, required=True)
    p.add_argument("--x-max", type=_finite_float, required=True)
    p.add_argument("--x-points", type=int, required=True)
    p.add_argument("--src-min", type=_finite_float, required=True)
    p.add_argument("--src-max", type=_finite_float, required=True)
    p.add_argument("--src-points", type=int, required=True)
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("verify", parents=[common], help="property verification report")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--fixture", default=None, help="golden fixture JSON to cross-check")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
