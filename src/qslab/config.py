"""Strict parsing of medium configuration and pulse spectrum files.

The medium config is a JSON object with keys ``unit_mode`` ("scaled",
default, or "SI"), ``half_length_L``, ``cross_section_A`` (SI mode only)
and ``oscillators`` (array of {omega_res, coupling_g}).  Unknown and
repeated keys are rejected with field-precise messages to catch typos early.
Keys, types and signs are checked here; ``OscillatorSpecies`` and
``MediumSpec`` check the rest, band edges included, as for a medium built in code.
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


def _require_key(obj, key: str, where: str):
    """``obj[key]``, where ``obj`` must be a JSON object that has ``key``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _reject_unknown_keys(obj, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")


def medium_from_dict(data: dict, source: str = "config") -> MediumSpec:
    """Validate a parsed config object and build the MediumSpec."""
    _reject_unknown_keys(data, _TOP_LEVEL_KEYS, source)
    unit_mode = data.get("unit_mode", "scaled")
    if unit_mode not in ("scaled", "SI"):
        raise ConfigError(f"{source}: unit_mode: expected 'scaled' or 'SI', got {unit_mode!r}")
    half_length = _require_positive(
        _require_key(data, "half_length_L", source), f"{source}: half_length_L"
    )
    if unit_mode == "SI":
        cross_section = _require_positive(
            _require_key(data, "cross_section_A", source), f"{source}: cross_section_A"
        )
    elif "cross_section_A" in data:
        raise ConfigError(f"{source}: cross_section_A is only valid when unit_mode is 'SI'")
    else:
        cross_section = 1.0
    raw_oscillators = _require_key(data, "oscillators", source)
    if not isinstance(raw_oscillators, list):
        raise ConfigError(f"{source}: oscillators: expected an array")
    species = []
    for i, item in enumerate(raw_oscillators):
        where = f"{source}: oscillators[{i}]"
        _reject_unknown_keys(item, _OSCILLATOR_KEYS, where)
        omega_res = _require_positive(_require_key(item, "omega_res", where), f"{where}: omega_res")
        coupling_g = _require_positive(_require_key(item, "coupling_g", where), f"{where}: coupling_g")
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
    except ValueError as exc:  # the other fields passed the checks above
        raise ConfigError(f"{source}: oscillators: {exc}") from exc


def medium_to_dict(medium: MediumSpec) -> dict:
    """The config object of ``medium``, the inverse of ``medium_from_dict``.

    ``cross_section_A`` is written only in SI units, where the schema allows it.
    """
    data = {"unit_mode": medium.unit_mode, "half_length_L": medium.half_length_L}
    if medium.unit_mode == "SI":
        data["cross_section_A"] = medium.cross_section_A
    data["oscillators"] = [
        {"omega_res": s.omega_res, "coupling_g": s.coupling_g} for s in medium.species
    ]
    return data


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that rejects a key repeated within one JSON object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(path: str | Path):
    """Parse a JSON file; a file that cannot be read or parsed raises ``ConfigError`` naming it.

    A key repeated within one object is an error, not a silent overwrite.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8, bad JSON or a repeated key
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_medium_config(path: str | Path) -> tuple[MediumSpec, str]:
    """Load and validate a config file; returns (medium, canonical sha256)."""
    medium = medium_from_dict(read_json(path), source=str(path))
    return medium, config_hash(medium)


def config_hash(medium: MediumSpec) -> str:
    """sha256 of the canonicalized config, stable across formatting."""
    canon = {**medium_to_dict(medium), "cross_section_A": medium.cross_section_A}
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
    except (OSError, UnicodeDecodeError) as exc:
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
