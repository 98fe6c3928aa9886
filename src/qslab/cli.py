"""Command-line interface: sweeps, band reports, pulse runs, verification.

Subcommands: index, scatter, bands, pulse, greens, verify.  Output is CSV
(default) or JSON; data rows go to stdout or --out, notes go to stderr.
Identical inputs produce byte-identical outputs (suppress the timestamp
header with --no-timestamp).  Exit codes: 0 success, 1 verification
failure, 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import load_medium_config, load_pulse_file
from .errors import QslabError, RangeError
from .medium import MediumSpec, band_structure, pole_adjacent, refractive_index
from .quantum_io import detection_rate
from .slab import greens_function, scatter_coefficients

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
        lines.append(f"# {key}: {_fmt(value) if isinstance(value, float) else value}")
    return lines


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise QslabError(f"--out {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_table(args, command: str, cfg_hash: str, header: list[str], rows: list, extra: dict | None = None) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return
    lines = _metadata_lines(args, command, cfg_hash, extra)
    lines.append(",".join(header))
    if rows:
        # one % for the whole table: each column holds one type, that of the
        # first row; "%.17g" % x is byte-equal to FLOAT_FMT.format(x)
        fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0])
        lines.append(((fmt + "\n") * (len(rows) - 1) + fmt) % tuple(itertools.chain.from_iterable(rows)))
    _emit(args, "\n".join(lines) + "\n")


def _sweep_grid(args) -> np.ndarray:
    if not (0.0 < args.omega_min < args.omega_max):
        raise RangeError(
            f"need 0 < omega_min < omega_max, got ({args.omega_min}, {args.omega_max})"
        )
    if args.points < 2:
        raise RangeError(f"points must be >= 2, got {args.points}")
    return np.linspace(args.omega_min, args.omega_max, args.points)


def _span(lo: float, hi: float, points: int, name: str) -> np.ndarray:
    """np.linspace(lo, hi, points), whose points are NaN where hi - lo overflows: that is an error."""
    if not np.isfinite(hi - lo):
        raise RangeError(f"{name}-max - {name}-min overflows, got ({lo}, {hi})")
    return np.linspace(lo, hi, points)


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
    # a CSV column holds one type (see _emit_table), so there the optional
    # edge and resonance cells are text; JSON keeps them numbers
    cell = _fmt if args.format == "csv" else float
    rows = []
    for band in bands:
        if band.kind.value == "absorption":
            # edge frequency is the lower endpoint; upper endpoint is the resonance
            rows.append([band.lo, band.hi, band.kind.value, cell(band.lo), cell(band.hi)])
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
    t_grid = _span(args.t_min, args.t_max, args.points, "--t")
    trace = detection_rate(medium, pulse, args.detector_x, t_grid, args.prefactor)
    budget = trace.budget
    closure = (budget["transmitted"] + budget["reflected"]) / budget["incident"]
    rows = list(zip(trace.t_grid.tolist(), trace.rate_values.tolist()))
    metadata = {
        "detector_x": args.detector_x,
        "prefactor_mode": trace.prefactor_mode,
        "k_points": len(pulse.k_grid),
        "t_points": len(t_grid),
        "nudged_frequencies": [[k, w] for k, w in trace.nudged_frequencies],
        "energy_budget": closure,
    }
    if args.format == "json":
        payload = {
            "metadata": {"config_sha256": cfg_hash, **metadata},
            "rows": [{"t": t, "rate": r} for t, r in rows],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        nudged = [[_fmt(k), _fmt(w)] for k, w in metadata["nudged_frequencies"]]
        extra = {**metadata, "nudged_frequencies": json.dumps(nudged)}
        _emit_table(args, "pulse", cfg_hash, ["t", "rate"], rows, extra=extra)
    return 0


def cmd_greens(args) -> int:
    medium, cfg_hash = load_medium_config(args.config)
    if not args.omega > 0:
        raise RangeError(f"omega must be positive, got {args.omega}")
    if args.x_points < 1 or args.src_points < 1:
        raise RangeError("grid point counts must be >= 1")
    xs = _span(args.x_min, args.x_max, args.x_points, "--x")
    srcs = _span(args.src_min, args.src_max, args.src_points, "--src")

    def row(pair):
        x, src = pair
        gv = greens_function(medium, args.omega, x, src)
        return [float(x), float(src), gv.value.real, gv.value.imag]

    pairs = [(x, s) for x in xs for s in srcs]
    rows = [row(pair) for pair in pairs]
    header = ["x", "x_src", "re_G", "im_G"]
    _emit_table(args, "greens", cfg_hash, header, rows, extra={"omega": args.omega})
    return 0


def _verify_line(entry: dict) -> str:
    if entry["verdict"] == "SKIP":
        return f"{entry['name']:<28s} skipped: {entry['reason']}"
    return (f"{entry['name']:<28s} measured={entry['measured']:<14s} "
            f"tol={entry['tolerance']:<10s} {entry['verdict']}")


def cmd_verify(args) -> int:
    from .oracle import verify  # loads scipy.integrate, which no other command needs

    medium, _ = load_medium_config(args.config)
    entries = verify(medium, args.level, args.fixture)
    verdicts = [e["verdict"] for e in entries if e["verdict"] != "SKIP"]
    result = "FAIL" if "FAIL" in verdicts else "PASS"
    if args.format == "json":
        report = {"level": args.level, "config": args.config, "properties": entries, "result": result}
        _emit(args, json.dumps(report, indent=2) + "\n")
    else:
        lines = [f"qslab verify level={args.level} config={args.config}", *map(_verify_line, entries)]
        lines.append(f"RESULT: {result} ({verdicts.count('PASS')}/{len(verdicts)})")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if result == "PASS" else 1


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

    p = sub.add_parser("scatter", parents=[common], help="R/T sweep with unitarity column")
    p.add_argument("--omega-min", type=_finite_float, default=None)
    p.add_argument("--omega-max", type=_finite_float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument(
        "--at-resonance",
        action="store_true",
        help="evaluate exactly at each bare resonance via the closed forms",
    )

    p = sub.add_parser("bands", parents=[common], help="band-structure report")
    p.add_argument("--omega-max", type=_finite_float, required=True)

    p = sub.add_parser("pulse", parents=[common], help="coherent-pulse detection trace")
    p.add_argument("--pulse", required=True, help="CSV of (k, Re f, Im f) rows")
    p.add_argument("--detector-x", type=_finite_float, required=True)
    p.add_argument("--t-min", type=_finite_float, required=True)
    p.add_argument("--t-max", type=_finite_float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--prefactor", choices=("normalized", "physical"), default="normalized")

    p = sub.add_parser("greens", parents=[common], help="Green's function on an (x, x') grid")
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--x-min", type=_finite_float, required=True)
    p.add_argument("--x-max", type=_finite_float, required=True)
    p.add_argument("--x-points", type=int, required=True)
    p.add_argument("--src-min", type=_finite_float, required=True)
    p.add_argument("--src-max", type=_finite_float, required=True)
    p.add_argument("--src-points", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="property verification report")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--fixture", default=None, help="golden fixture JSON to cross-check")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process.

    An argparse parser, its groups, actions and help formatters refer to
    one another, so a parser built per call leaves several hundred objects
    that only the cyclic garbage collector frees; a process that calls
    ``main`` many times then holds a growing small-object heap.  Parsing
    does not change the parser, so one serves every call.
    """
    return build_parser()


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number that follows a long option joined to it, as ``--x-min=-1e-3``.

    argparse (Python 3.11) reads a separate ``-1e-3`` as an option, so the
    option would lack its value.  qslab takes no positional value and has no
    option spelled like a number, so a number after an option is its value.
    """
    joined: list[str] = []
    for arg in argv:
        if joined and re.fullmatch(r"--[^=]+", joined[-1]) and re.match(r"-\.?\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        # looked up by name when called, so a rebound cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except QslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
