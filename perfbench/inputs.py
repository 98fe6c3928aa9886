"""Seeded input generators for the benchmark workloads.

Pure numpy: qslab itself receives only the config files, pulse files and
argument values produced here.  Every medium lies in the physical domain
(each species valid for ``OscillatorSpecies``, resonances strictly distinct,
``sum g / Omega^2 < 1`` so every band edge exists); a draw that qslab then
mishandles is a failed operation and is never re-drawn.

Each workload cycles through a fixed pool of ``POOL[workload]`` inputs,
small enough that every run goes through all of them at least once, so the
operations a run checks depend on the seed alone.  The species count is
stratified over the pool so that the mix of job sizes is the same for
every seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "pulse", "verify", "manyres")
POOL = {"sweep": 24, "pulse": 24, "verify": 12, "manyres": 12}

SWEEP_POINTS = 5001
PULSE_K_POINTS = 4001
PULSE_T_POINTS = 2001
MANYRES_K_POINTS = 16
MANYRES_GRID = 30


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """One independent stream per (workload, seed)."""
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def draw_species(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[tuple[float, float]]:
    """n (Omega, g) pairs: resonances jittered on a grid over [lo, hi], sum g/Omega^2 in [0.2, 0.7)."""
    step = (hi - lo) / n
    omegas = lo + step * (np.arange(n) + 0.1 + 0.8 * rng.random(n))
    strength = rng.uniform(0.2, 0.7)
    couplings = strength * rng.dirichlet(np.full(n, 4.0)) * omegas**2
    return [(float(w), float(g)) for w, g in zip(omegas, couplings)]


def bracket(omega: float, species) -> float:
    """Sellmeir bracket 1 - sum g / (Omega^2 - omega^2), written independently of qslab.

    The factored denominator keeps its precision next to a resonance.
    """
    return 1.0 - sum(g / ((w - omega) * (w + omega)) for w, g in species)


def band_edge(species, i: int) -> float:
    """Edge below resonance i: the bracket falls from +inf to -inf on (Omega_{i-1}, Omega_i)."""
    lo = species[i - 1][0] if i else 0.0
    hi = species[i][0]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if bracket(mid, species) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def write_config(path: Path, species) -> str:
    data = {
        "unit_mode": "scaled",
        "half_length_L": 1.0,
        "oscillators": [{"omega_res": w, "coupling_g": g} for w, g in species],
    }
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return str(path)


def pulse_arrays(inp: dict) -> tuple[np.ndarray, np.ndarray]:
    """The pulse's k grid and spectral amplitudes f(k): a Gaussian leaving x_start at t = 0."""
    k = np.linspace(inp["k_min"], inp["k_max"], inp["k_points"])
    envelope = np.exp(-((k - inp["k_center"]) ** 2) / (2.0 * inp["sigma"] ** 2))
    return k, envelope * np.exp(-1j * k * inp["x_start"])


def write_pulse(path: Path, inp: dict) -> str:
    k, f = pulse_arrays(inp)
    rows = "".join(f"{a!r},{b.real!r},{b.imag!r}\n" for a, b in zip(k.tolist(), f.tolist()))
    path.write_text("# k,re_f,im_f\n" + rows, encoding="utf-8")
    return str(path)


def _sweep(rng, j: int, d: Path) -> dict:
    species = draw_species(rng, 2 + j % 3, 0.5, 3.0)
    return {
        "config": write_config(d / f"medium{j}.json", species),
        "species": species,
        "omega_min": 0.02,
        "omega_max": 1.5 * species[-1][0],
        "points": SWEEP_POINTS,
    }


def _pulse(rng, j: int, d: Path) -> dict:
    species = draw_species(rng, 1 + j % 3, 0.5, 2.5)
    nu = int(rng.integers(len(species)))
    edge, omega_res = band_edge(species, nu), species[nu][0]
    gap = omega_res - edge
    # centred just above the edge: the low side transmits, the rest is in the gap
    k_center = edge + rng.uniform(0.1, 0.4) * gap
    sigma = rng.uniform(0.5, 1.0) * gap
    detector_x = 1.0 + rng.uniform(0.5, 2.0)
    x_start = -3.0
    arrival = detector_x - x_start
    inp = {
        "config": write_config(d / f"medium{j}.json", species),
        "species": species,
        "k_center": k_center,
        "sigma": sigma,
        "k_min": max(k_center - 5.0 * sigma, 1e-3 * k_center),
        "k_max": k_center + 5.0 * sigma,
        "k_points": PULSE_K_POINTS,
        "x_start": x_start,
        "detector_x": detector_x,
        "t_min": arrival - 4.0 / sigma,
        "t_max": arrival + 8.0 / sigma,
        "points": PULSE_T_POINTS,
    }
    inp["pulse"] = write_pulse(d / f"pulse{j}.csv", inp)
    return inp


def _verify(rng, j: int, d: Path) -> dict:
    species = draw_species(rng, 1 + j % 3, 0.5, 2.5)
    return {"config": write_config(d / f"medium{j}.json", species), "species": species}


def _manyres(rng, j: int, d: Path) -> dict:
    species = draw_species(rng, 16 + 8 * (j % 3), 0.5, 5.0)
    top = species[-1][0]
    return {
        "config": write_config(d / f"medium{j}.json", species),
        "species": species,
        "omega_max": 1.5 * top,
        "k_grid": np.linspace(0.1, 1.5 * top, MANYRES_K_POINTS).tolist(),
        "omega": float(rng.uniform(0.3 * species[0][0], 1.5 * top)),
        "x_min": -2.0,
        "x_max": 2.0,
        "x_points": MANYRES_GRID,
    }


_MAKERS = {"sweep": _sweep, "pulse": _pulse, "verify": _verify, "manyres": _manyres}


def make_inputs(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's input files under ``directory``; returns the pool of job inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = rng_for(workload, seed)
    return [_MAKERS[workload](rng, j, directory) for j in range(POOL[workload])]
