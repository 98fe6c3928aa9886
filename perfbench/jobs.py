"""The four workloads: one job each, and the independent checks of its output.

A job calls qslab exactly as a user would (``cli.main`` in-process, or the
public library function the workload names).  Checks run after the timed
loop.  Every operation a job attempts ends up either checked-good or
failed: an exception, a ``FAIL`` verdict, a missing row and a value that
disagrees with an independent check all count as failed operations.  An
output that is malformed or breaks an exact contract (unitarity, energy
closure, reciprocity, root residuals, band-edge signs, a verify summary
that contradicts its own lines) is also recorded as wrong, which makes the
run incorrect.  A cross-route disagreement is recorded as wrong only past
``GROSS``, beyond anything the oracle's conditioning can explain.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from qslab import cli, config
from qslab import medium as qmedium
from qslab.errors import QslabError
from qslab.oracle import transfer_matrix_rt
from qslab.slab import scatter_coefficients

UNITARITY_TOL = 1e-12
ORACLE_TOL = 1e-10
# transfer_matrix_rt agrees to ORACLE_TOL only for |Im n0| omega L / c up to about 8
ORACLE_ENVELOPE = 8.0
ORACLE_SAMPLES = 24
GROSS = 1e-6
CLOSURE_TOL = 1e-12
PULSE_SAMPLES = 16
PULSE_TOL = 1e-10  # relative to the trace's peak rate
RECIPROCITY_TOL = 1e-12  # relative to the largest |G| on the grid
RESIDUAL_TOL = 1e-9  # |omega^2 - k^2 bracket| relative to omega^2
EDGE_PROBE = 1e-9
POLE_WINDOW = 2e-9  # a sweep may skip grid points this close (relative) to a band edge

SWEEP_HEADER = ["omega", "re_n", "im_n", "band_kind", "re_R", "im_R", "re_T", "im_T", "unitarity"]
VERIFY_PROPERTIES = (
    "unitarity_sweep",
    "oracle_agreement",
    "smatrix_unitarity",
    "resonance_continuity",
    "ode_delta_convergence",
    "source_monotone_decay",
    "source_decay_ratio",
    "resonance_mode_flatness",
)


@dataclass
class Outcome:
    """What the checks made of one job."""

    attempted: int
    failed: int = 0
    items: int = 0  # work items that passed every check
    rows: int = 0  # data rows the CLI emitted
    requested: int = 0  # data rows the job asked for
    bytes_out: int = 0
    wrong: list[str] = field(default_factory=list)


def _medium(species) -> qmedium.MediumSpec:
    return qmedium.MediumSpec(species=tuple(qmedium.OscillatorSpecies(w, g) for w, g in species))


def read_table(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split CLI CSV output into metadata, header and rows."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _failed_to_run(rec: dict, out: Outcome, ok_codes=(0,)) -> bool:
    """An exception or an error exit fails every operation of the job."""
    if "error" in rec or rec.get("rc", 0) not in ok_codes:
        out.failed = out.attempted
        return True
    return False


# --- sweep -----------------------------------------------------------------

def run_sweep(inp: dict, out: Path) -> dict:
    path = f"{out}.csv"
    rc = cli.main([
        "scatter", "--config", inp["config"],
        "--omega-min", repr(inp["omega_min"]), "--omega-max", repr(inp["omega_max"]),
        "--points", str(inp["points"]), "--out", path, "--no-timestamp",
    ])
    return {"rc": rc, "out": path}


def check_sweep(inp: dict, rec: dict) -> Outcome:
    grid = np.linspace(inp["omega_min"], inp["omega_max"], inp["points"])
    out = Outcome(attempted=len(grid), requested=len(grid))
    if _failed_to_run(rec, out):
        return out
    out.bytes_out = Path(rec["out"]).stat().st_size
    _, header, rows = read_table(rec["out"])
    out.rows = len(rows)
    if header != SWEEP_HEADER or any(len(r) != len(SWEEP_HEADER) for r in rows):
        out.wrong.append("sweep: malformed table")
        out.failed = out.attempted
        return out
    edges = [inputs.band_edge(inp["species"], i) for i in range(len(inp["species"]))]
    i = 0
    for omega in grid:
        if i < len(rows) and float(rows[i][0]) == omega:
            i += 1
        elif not any(abs(omega - e) < POLE_WINDOW * e for e in edges):
            out.failed += 1
            out.wrong.append(f"sweep: row omega={omega!r} missing")
    if i != len(rows):
        out.wrong.append("sweep: rows off the requested grid")
        out.failed = out.attempted
        return out
    values = np.array([[float(v) for v in r[:3] + r[4:8]] for r in rows])
    omega, re_n, im_n, re_r, im_r, re_t, im_t = values.T
    defect = np.abs(re_r**2 + im_r**2 + re_t**2 + im_t**2 - 1.0)
    bad = set(np.flatnonzero(~(defect <= UNITARITY_TOL)).tolist())
    if bad:
        out.wrong.append(f"sweep: {len(bad)} rows with |R|^2+|T|^2-1 > {UNITARITY_TOL}")
    for j in np.linspace(0, len(rows) - 1, ORACLE_SAMPLES).astype(int).tolist():
        n0 = complex(re_n[j], im_n[j])
        if n0 == 0 or not math.isfinite(abs(n0)) or abs(n0.imag) * omega[j] > ORACLE_ENVELOPE:
            continue
        refl, trans = transfer_matrix_rt(n0, omega[j], 1.0)
        err = max(abs(complex(re_r[j], im_r[j]) - refl), abs(complex(re_t[j], im_t[j]) - trans))
        if not err <= ORACLE_TOL:
            bad.add(j)
        if not err <= GROSS:
            out.wrong.append(f"sweep: omega={omega[j]!r} differs from the transfer matrix by {err:.3e}")
    out.failed += len(bad)
    out.items = len(rows) - len(bad)
    return out


# --- pulse -----------------------------------------------------------------

def run_pulse(inp: dict, out: Path) -> dict:
    path = f"{out}.csv"
    rc = cli.main([
        "pulse", "--config", inp["config"], "--pulse", inp["pulse"],
        "--detector-x", repr(inp["detector_x"]),
        "--t-min", repr(inp["t_min"]), "--t-max", repr(inp["t_max"]),
        "--points", str(inp["points"]), "--out", path, "--no-timestamp",
    ])
    return {"rc": rc, "out": path}


def trapezoid_weights(k: np.ndarray) -> np.ndarray:
    gaps = np.diff(k)
    return 0.5 * (np.concatenate(([0.0], gaps)) + np.concatenate((gaps, [0.0])))


# reference rates by (config path, t samples, nudged frequencies): jobs repeat their inputs
_DIRECT: dict[tuple, np.ndarray] = {}


def direct_rates(inp: dict, t: np.ndarray, nudged: dict[float, float]) -> np.ndarray:
    """|sum_k w f T(ck) e^{ik(x - t)}|^2 by a plain numpy sum over scalar scatter_coefficients."""
    key = (inp["config"], t.tobytes(), tuple(sorted(nudged.items())))
    if key not in _DIRECT:
        _DIRECT[key] = _direct_rates(inp, t, nudged)
    return _DIRECT[key]


def _direct_rates(inp: dict, t: np.ndarray, nudged: dict[float, float]) -> np.ndarray:
    medium = _medium(inp["species"])
    k, f = inputs.pulse_arrays(inp)
    trans = np.array([scatter_coefficients(medium, nudged.get(kj, kj)).T for kj in k.tolist()])
    base = trapezoid_weights(k) * f * trans * np.exp(1j * k * inp["detector_x"])
    return np.abs(np.exp(-1j * np.outer(t, k)) @ base) ** 2


def check_pulse(inp: dict, rec: dict) -> Outcome:
    t = np.linspace(inp["t_min"], inp["t_max"], inp["points"])
    out = Outcome(attempted=len(t), requested=len(t))
    if _failed_to_run(rec, out):
        return out
    out.bytes_out = Path(rec["out"]).stat().st_size
    meta, header, rows = read_table(rec["out"])
    out.rows = len(rows)
    if header != ["t", "rate"] or len(rows) != len(t) or any(float(r[0]) != x for r, x in zip(rows, t)):
        out.wrong.append("pulse: rows do not match the requested t grid")
    else:
        closure = float(meta["energy_budget"])
        if not abs(closure - 1.0) <= CLOSURE_TOL:
            out.wrong.append(f"pulse: energy budget closure {closure!r}")
        nudged = {float(k): float(w) for k, w in json.loads(meta["nudged_frequencies"])}
        rate = np.array([float(r[1]) for r in rows])
        idx = np.linspace(0, len(t) - 1, PULSE_SAMPLES).astype(int)
        err = np.abs(direct_rates(inp, t[idx], nudged) - rate[idx]).max()
        if not err <= PULSE_TOL * rate.max():
            out.wrong.append(f"pulse: rate differs from the direct sum by {err:.3e}")
    if out.wrong:
        out.failed = out.attempted
    else:
        out.items = out.attempted
    return out


# --- verify ----------------------------------------------------------------

def run_verify(inp: dict, out: Path) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--level", "full", "--config", inp["config"]])
    return {"rc": rc, "stdout": buf.getvalue()}


def check_verify(inp: dict, rec: dict) -> Outcome:
    out = Outcome(attempted=len(VERIFY_PROPERTIES))
    # exit code 1 is verify reporting a FAIL, a valid outcome of the job
    if _failed_to_run(rec, out, ok_codes=(0, 1)):
        return out
    text = rec["stdout"]
    out.bytes_out = len(text.encode())
    lines = text.splitlines()
    verdicts = {line.split()[0]: line.split()[-1] for line in lines[1:-1] if line.strip()}
    fails = sum(v == "FAIL" for v in verdicts.values())
    passes = sum(v == "PASS" for v in verdicts.values())
    summary = f"RESULT: {'PASS' if fails == 0 else 'FAIL'} ({passes}/{passes + fails})"
    if sorted(verdicts) != sorted(VERIFY_PROPERTIES) or fails + passes != len(verdicts):
        out.wrong.append(f"verify: property lines {sorted(verdicts)}")
    if not lines or lines[-1] != summary or rec["rc"] != (1 if fails else 0):
        out.wrong.append(f"verify: summary {lines[-1:]} with exit {rec['rc']} contradicts the lines")
    if out.wrong:
        out.failed = out.attempted
    else:
        out.failed = fails
        out.items = passes
    return out


# --- manyres ---------------------------------------------------------------

def run_manyres(inp: dict, out: Path) -> dict:
    cfg = inp["config"]
    bands, greens = f"{out}-bands.csv", f"{out}-greens.csv"
    bands_rc = cli.main([
        "bands", "--config", cfg, "--omega-max", repr(inp["omega_max"]), "--out", bands, "--no-timestamp",
    ])
    medium, _ = config.load_medium_config(cfg)
    roots: list = []
    for k in inp["k_grid"]:
        try:
            roots.append(qmedium.dispersion_omega_of_k(medium, k))
        except Exception as exc:  # each solve is one operation; a raise fails only that one
            roots.append(type(exc).__name__)
    x = [repr(inp["x_min"]), repr(inp["x_max"]), str(inp["x_points"])]
    greens_rc = cli.main([
        "greens", "--config", cfg, "--omega", repr(inp["omega"]),
        "--x-min", x[0], "--x-max", x[1], "--x-points", x[2],
        "--src-min", x[0], "--src-max", x[1], "--src-points", x[2],
        "--out", greens, "--no-timestamp",
    ])
    return {"bands_rc": bands_rc, "bands": bands, "roots": roots, "greens_rc": greens_rc, "greens": greens}


def _check_bands(inp: dict, path: str, out: Outcome) -> bool:
    species = inp["species"]
    medium = _medium(species)
    _, _, rows = read_table(path)
    out.rows += len(rows)
    out.requested += 2 * len(species) + 1
    kinds = [r[2] for r in rows]
    if kinds != ["transmission", "absorption"] * len(species) + ["transmission"]:
        out.wrong.append(f"manyres: band kinds {kinds}")
        return False
    los, his = [float(r[0]) for r in rows], [float(r[1]) for r in rows]
    ok = los[0] == 0.0 and his[-1] == inp["omega_max"] and los[1:] == his[:-1]
    for (omega_res, _), edge, top in zip(species, los[1::2], his[1::2]):
        try:
            below = qmedium.sellmeir_bracket(medium, edge * (1.0 - EDGE_PROBE))
            above = qmedium.sellmeir_bracket(medium, edge * (1.0 + EDGE_PROBE))
        except QslabError:  # an "edge" within the resonance window of Omega
            below = above = math.nan
        ok = ok and top == omega_res and below > 0.0 > above
    if not ok:
        out.wrong.append("manyres: band edges or band limits wrong")
    return ok


def _check_roots(inp: dict, k: float, roots: list[float], out: Outcome) -> bool:
    species = inp["species"]
    ok = len(roots) == len(species) + 1 and all(a < b for a, b in zip(roots, roots[1:]))
    for w in roots:
        b = inputs.bracket(w, species)
        ok = ok and b > 0.0 and abs(w * w - k * k * b) <= RESIDUAL_TOL * w * w
    if not ok:
        out.wrong.append(f"manyres: dispersion roots at k={k!r} fail their residual or branch count")
    return ok


def _check_greens(inp: dict, path: str, out: Outcome) -> int:
    """Returns the number of grid points that passed."""
    n = inp["x_points"]
    out.bytes_out += Path(path).stat().st_size
    _, _, rows = read_table(path)
    out.rows += len(rows)
    out.requested += n * n
    values = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in rows}
    if len(rows) != n * n or len(values) != n * n:
        out.wrong.append(f"manyres: {len(rows)} Green's-function rows for a {n}x{n} grid")
        return 0
    scale = max(abs(v) for v in values.values())
    bad = [p for p, v in values.items() if not abs(v - values.get((p[1], p[0]), math.inf)) <= RECIPROCITY_TOL * scale]
    if bad:
        out.wrong.append(f"manyres: G(x, x') != G(x', x) at {len(bad)} points")
    return n * n - len(bad)


def check_manyres(inp: dict, rec: dict) -> Outcome:
    n = inp["x_points"]
    out = Outcome(attempted=1 + len(inp["k_grid"]) + n * n)
    if _failed_to_run(rec, out):
        return out
    if rec["bands_rc"] == 0:
        out.bytes_out += Path(rec["bands"]).stat().st_size
        out.items += _check_bands(inp, rec["bands"], out)
    for k, roots in zip(inp["k_grid"], rec["roots"]):
        # a string is the name of the exception the solve raised
        if not isinstance(roots, str):
            out.items += _check_roots(inp, k, roots, out)
    if rec["greens_rc"] == 0:
        out.items += _check_greens(inp, rec["greens"], out)
    out.failed = out.attempted - out.items
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    job: object
    check: object
    layers: tuple[str, ...]  # layers every job of this workload must call into

    def run(self, inp: dict, out: Path) -> dict:
        try:
            return self.job(inp, out)
        except Exception as exc:  # the job boundary: record it as a failed job and keep running
            return {"error": f"{type(exc).__name__}: {exc}"}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", run_sweep, check_sweep, ("cli", "config", "medium", "slab")),
        Workload("pulse", run_pulse, check_pulse, ("cli", "config", "medium", "slab", "quantum_io")),
        Workload("verify", run_verify, check_verify, ("cli", "config", "medium", "slab", "quantum_io", "oracle")),
        Workload("manyres", run_manyres, check_manyres, ("cli", "config", "medium", "slab")),
    )
}
