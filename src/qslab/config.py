"""Strict parsing of medium configuration and pulse spectrum files.

The medium config is a JSON object with keys ``unit_mode`` ("scaled",
default, or "SI"), ``half_length_L``, ``cross_section_A`` (SI mode only)
and ``oscillators`` (array of {omega_res, coupling_g}).  Unknown keys are
rejected with field-precise messages to catch typos early.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, PulseFileError
from .medium import MediumSpec, OscillatorSpecies
from .quantum_io import PulseSpectrum

_TOP_LEVEL_KEYS = {"unit_mode", "half_length_L", "cross_section_A", "oscillators"}
_OSCILLATOR_KEYS = {"omega_res", "coupling_g"}


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _require_finite(value, where: str) -> float:
    number = _require_number(value, where)
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {number}")
    return number


def _require_positive(value, where: str) -> float:
    number = _require_number(value, where)
    if not 0.0 < number < math.inf:
        raise ConfigError(f"{where}: expected a positive finite number, got {number}")
    return number


def medium_from_dict(data: dict, source: str = "config") -> MediumSpec:
    """Validate a parsed config object and build the MediumSpec."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(f"{source}: unknown key {unknown[0]!r} at top level")
    unit_mode = data.get("unit_mode", "scaled")
    if unit_mode not in ("scaled", "SI"):
        raise ConfigError(f"{source}: unit_mode: expected 'scaled' or 'SI', got {unit_mode!r}")
    if "half_length_L" not in data:
        raise ConfigError(f"{source}: missing required key 'half_length_L'")
    half_length = _require_positive(data["half_length_L"], f"{source}: half_length_L")
    if unit_mode == "SI":
        if "cross_section_A" not in data:
            raise ConfigError(f"{source}: cross_section_A is required when unit_mode is 'SI'")
        cross_section = _require_positive(data["cross_section_A"], f"{source}: cross_section_A")
    else:
        if "cross_section_A" in data:
            raise ConfigError(
                f"{source}: cross_section_A is only valid when unit_mode is 'SI'"
            )
        cross_section = 1.0
    if "oscillators" not in data:
        raise ConfigError(f"{source}: missing required key 'oscillators'")
    raw_oscillators = data["oscillators"]
    if not isinstance(raw_oscillators, list):
        raise ConfigError(f"{source}: oscillators: expected an array")
    species = []
    for i, item in enumerate(raw_oscillators):
        where = f"{source}: oscillators[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: expected an object")
        unknown = sorted(set(item) - _OSCILLATOR_KEYS)
        if unknown:
            raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
        for key in _OSCILLATOR_KEYS:
            if key not in item:
                raise ConfigError(f"{where}: missing required key {key!r}")
        omega_res = _require_positive(item["omega_res"], f"{where}: omega_res")
        coupling_g = _require_positive(item["coupling_g"], f"{where}: coupling_g")
        try:
            species.append(OscillatorSpecies(omega_res=omega_res, coupling_g=coupling_g))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        return MediumSpec(
            species=tuple(species),
            half_length_L=half_length,
            cross_section_A=cross_section,
            unit_mode=unit_mode,
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_medium_config(path: str | Path) -> tuple[MediumSpec, str]:
    """Load and validate a config file; returns (medium, canonical sha256)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    medium = medium_from_dict(data, source=str(path))
    return medium, config_hash(medium)


def config_hash(medium: MediumSpec) -> str:
    """sha256 of the canonicalized config, stable across formatting."""
    canon = {
        "unit_mode": medium.unit_mode,
        "half_length_L": medium.half_length_L,
        "cross_section_A": medium.cross_section_A,
        "oscillators": [
            {"omega_res": s.omega_res, "coupling_g": s.coupling_g} for s in medium.species
        ],
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _raise_bad_row(path: Path, lines: list[str]) -> None:
    """Raise the PulseFileError naming the first data line that is not three numbers."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 3:
            raise PulseFileError(
                f"{path}: line {lineno}: expected 3 comma-separated values "
                f"(k, Re f, Im f), got {len(parts)}"
            )
        try:
            for part in parts:
                float(part)
        except ValueError as exc:
            raise PulseFileError(f"{path}: line {lineno}: {exc}") from exc


def load_pulse_file(path: str | Path) -> PulseSpectrum:
    """Read (k, Re f, Im f) rows from a CSV file; '#' lines are comments.

    The rows are parsed in one ``np.loadtxt`` call; only a file it rejects
    is walked line by line, to name the offending line.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise PulseFileError(f"{path}: {exc}") from exc
    rows = [line for line in lines if line.strip() and not line.lstrip().startswith("#")]
    if len(rows) < 2:
        _raise_bad_row(path, lines)
        raise PulseFileError(f"{path}: a pulse needs at least two (k, f) samples")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] != 3:
            raise ValueError(f"expected 3 columns, got {table.shape[1]}")
    except ValueError as exc:
        _raise_bad_row(path, lines)
        raise PulseFileError(f"{path}: {exc}") from exc
    f_values = np.empty(len(table), dtype=complex)
    f_values.real, f_values.imag = table[:, 1], table[:, 2]
    try:
        return PulseSpectrum(k_grid=table[:, 0].copy(), f_values=f_values)
    except ValueError as exc:
        raise PulseFileError(f"{path}: {exc}") from exc


def write_pulse_file(path: str | Path, pulse: PulseSpectrum) -> None:
    rows = [
        f"{k:.17g},{f.real:.17g},{f.imag:.17g}"
        for k, f in zip(pulse.k_grid, pulse.f_values)
    ]
    Path(path).write_text("# k,re_f,im_f\n" + "\n".join(rows) + "\n", encoding="utf-8")
