import contextlib
import csv
import gc
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qslab
from qslab.cli import main
from qslab.config import load_medium_config, load_pulse_file, medium_from_dict, write_pulse_file
from qslab.errors import ConfigError, PulseFileError
from qslab.medium import C_LIGHT, CRITICAL_COUPLING_MARGIN, band_edges
from qslab.quantum_io import gaussian_pulse
from qslab.slab import resonance_coefficients

DATA_DIR = Path(__file__).parent / "data"
CONFIG_DIR = Path(__file__).parent.parent / "configs"

REFERENCE_CONFIG = {
    "unit_mode": "scaled",
    "half_length_L": 1.0,
    "oscillators": [{"omega_res": 1.0, "coupling_g": 0.19}],
}

VACUUM_CONFIG = {"half_length_L": 1.0, "oscillators": []}


def write_config(tmp_path, payload, name="medium.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qslab", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


def exit_code(argv):
    """qslab's exit code for argv, run in-process; argparse usage errors exit 2."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


class TestConfigParsing:
    def test_valid_reference_config(self, tmp_path):
        medium, digest = load_medium_config(write_config(tmp_path, REFERENCE_CONFIG))
        assert medium.resonances() == (1.0,)
        assert len(digest) == 64

    def test_unknown_top_level_key_named_in_error(self):
        bad = dict(REFERENCE_CONFIG, oscilators=[])
        with pytest.raises(ConfigError, match="oscilators"):
            medium_from_dict(bad)

    def test_unknown_oscillator_key_named_with_position(self):
        bad = {
            "half_length_L": 1.0,
            "oscillators": [
                {"omega_res": 1.0, "coupling_g": 0.1},
                {"omega_res": 2.0, "coupling": 0.1},
            ],
        }
        with pytest.raises(ConfigError, match=r"oscillators\[1\].*'coupling'"):
            medium_from_dict(bad)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="half_length_L"):
            medium_from_dict({"oscillators": []})

    def test_wrong_type_reported_with_field(self):
        with pytest.raises(ConfigError, match="half_length_L"):
            medium_from_dict({"half_length_L": "wide", "oscillators": []})

    def test_cross_section_only_in_si(self):
        with pytest.raises(ConfigError, match="cross_section_A"):
            medium_from_dict(
                {"half_length_L": 1.0, "cross_section_A": 1.0, "oscillators": []}
            )
        with pytest.raises(ConfigError, match="cross_section_A"):
            medium_from_dict(
                {"unit_mode": "SI", "half_length_L": 1.0, "oscillators": []}
            )

    def test_coupling_bound_enforced_with_position(self):
        bad = {"half_length_L": 1.0, "oscillators": [{"omega_res": 1.0, "coupling_g": 2.0}]}
        with pytest.raises(ConfigError, match=r"oscillators\[0\]"):
            medium_from_dict(bad)
        # each species is valid alone, but together they leave no edge below Omega_1
        overcoupled = {
            "half_length_L": 1.0,
            "oscillators": [
                {"omega_res": 1.0, "coupling_g": 0.8},
                {"omega_res": 1.5, "coupling_g": 1.2},
            ],
        }
        with pytest.raises(ConfigError, match="coupling_g"):
            medium_from_dict(overcoupled)

    @pytest.mark.parametrize("literal", ["1e400", "Infinity"])
    @pytest.mark.parametrize("field", ["half_length_L", "cross_section_A", "omega_res", "coupling_g"])
    def test_non_finite_number_rejected_naming_the_field(self, tmp_path, capsys, field, literal):
        # json reads both literals as inf, which a "> 0" check lets through
        values = dict(half_length_L="1e-6", cross_section_A="1e-12", omega_res="2e15", coupling_g="1e30")
        values[field] = literal
        path = tmp_path / "medium.json"
        path.write_text(
            '{"unit_mode": "SI", "half_length_L": %(half_length_L)s, '
            '"cross_section_A": %(cross_section_A)s, '
            '"oscillators": [{"omega_res": %(omega_res)s, "coupling_g": %(coupling_g)s}]}' % values
        )
        with pytest.raises(ConfigError, match=f"{field}: expected a positive finite number, got inf"):
            load_medium_config(path)
        assert exit_code(["bands", "--config", str(path), "--omega-max", "1e16"]) == 2
        assert field in capsys.readouterr().err

    def test_json_syntax_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "half_length_L": 1.0,\n  "oscillators": [}\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_medium_config(path)

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("single_resonance", "44a26f14befbcee0718c5559b05ae7e594e877bce95a2dcb1a6ad9887f1a8417"),
            ("two_resonances", "5f8d96ad0c20dd8f67005b57d6b7a437d07837bdc0da2509cbefb6af739c1608"),
            ("vacuum", "0dd93179e5e659b2d005f14ccb381a09d291545c10515aabbe64a5cd2fe8d2a6"),
        ],
    )
    def test_shipped_config_hashes_are_pinned(self, name, digest):
        # every output header carries the hash, so a new canonical form changes every output
        assert load_medium_config(CONFIG_DIR / f"{name}.json")[1] == digest


class TestUnusableInput:
    """An input file qslab cannot use, or an --out it cannot write, exits 2 naming it."""

    @staticmethod
    def argv_reading(tmp_path, kind, data: bytes):
        path = tmp_path / f"input.{kind}"
        path.write_bytes(data)
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        argv = {
            "config": ["bands", "--config", str(path), "--omega-max", "2"],
            "pulse": ["pulse", "--config", str(cfg), "--pulse", str(path), "--detector-x", "3",
                      "--t-min", "0", "--t-max", "1", "--points", "3"],
            "fixture": ["verify", "--config", str(cfg), "--fixture", str(path)],
        }[kind]
        return path, argv

    @pytest.mark.parametrize("kind", ["config", "pulse", "fixture"])
    def test_file_that_is_not_utf8_exits_two_naming_it(self, tmp_path, capsys, kind):
        path, argv = self.argv_reading(tmp_path, kind, b"\xff\xfe\x00")
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "kind, old, key",
        [
            ("config", '"half_length_L": 1.0', "half_length_L"),
            ("config", '"coupling_g": 0.19', "coupling_g"),
            ("fixture", '"format_version": 1', "format_version"),
            ("fixture", '"coupling_g": 0.19', "coupling_g"),
        ],
        ids=["config-top-level", "config-oscillator", "fixture-top-level", "fixture-oscillator"],
    )
    def test_repeated_key_exits_two_naming_it(self, tmp_path, capsys, kind, old, key):
        # json keeps the last of repeated keys, so these used to load silently
        source = {"config": CONFIG_DIR / "single_resonance.json",
                  "fixture": DATA_DIR / "golden_scatter_g019.json"}[kind]
        text = source.read_text().replace(old, f"{old}, {old}", 1)
        assert text.count(f'"{key}"') == 2
        path, argv = self.argv_reading(tmp_path, kind, text.encode())
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err
        assert f"repeated key {key!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["bands", "--omega-max", "2"], ["verify", "--level", "quick"]],
        ids=["bands", "verify"],
    )
    def test_unwritable_out_exits_two_naming_it(self, tmp_path, capsys, argv):
        # this used to end in a FileNotFoundError traceback with exit 1, verify's FAIL code
        out = tmp_path / "missing" / "out.csv"
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        assert exit_code([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err
        assert str(out) in captured.err
        assert captured.out == ""
        assert not out.parent.exists()


class TestFloatDomain:
    """Media the validators accept but the float arithmetic cannot carry exit 2, naming the input."""

    @staticmethod
    def every_command(cfg, pulse):
        return {
            "index": ["--omega-min", "0.1", "--omega-max", "10", "--points", "5"],
            "scatter": ["--omega-min", "0.1", "--omega-max", "10", "--points", "5"],
            "bands": ["--omega-max", "3"],
            "pulse": ["--pulse", str(pulse), "--detector-x", "1.5e308",
                      "--t-min", "0", "--t-max", "1", "--points", "3"],
            "greens": ["--omega", "0.5", "--x-min", "-1", "--x-max", "1", "--x-points", "3",
                       "--src-min", "0", "--src-max", "0", "--src-points", "1"],
            "verify": ["--level", "full"],
        }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_slab_phase_exits_two_or_prints_finite_rows(self, tmp_path, capsys, fmt):
        # omega L / c overflowed: scatter printed NaN rows with exit 0, and greens
        # and verify ended in a math domain error traceback with exit 1
        cfg = write_config(tmp_path, {**REFERENCE_CONFIG, "half_length_L": 1e308})
        pulse = tmp_path / "pulse.csv"
        write_pulse_file(pulse, gaussian_pulse(0.8, 0.1, points=41))
        codes = {}
        for command, extra in self.every_command(cfg, pulse).items():
            codes[command] = exit_code([command, "--config", str(cfg), "--format", fmt, *extra])
            captured = capsys.readouterr()
            assert re.search(r"\b(nan|inf|infinity)\b", captured.out, re.IGNORECASE) is None, command
            if codes[command] == 2:
                assert "half_length_L=1e+308" in captured.err, command
        assert codes == {"index": 0, "scatter": 2, "bands": 0, "pulse": 2, "greens": 2, "verify": 2}

    @pytest.mark.parametrize("command", ["bands", "scatter", "verify", "greens"])
    def test_species_one_ulp_apart_are_rejected_naming_both(self, tmp_path, capsys, command):
        # greens used to run; the others exited 2 naming neither the file nor a field
        cfg = write_config(tmp_path, {
            "half_length_L": 1.0,
            "oscillators": [{"omega_res": 1.0, "coupling_g": 0.1},
                            {"omega_res": 1.0000000000000002, "coupling_g": 0.1}],
        })
        pulse = tmp_path / "pulse.csv"
        assert exit_code([command, "--config", str(cfg), *self.every_command(cfg, pulse)[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cfg}: oscillators: omega_res" in captured.err
        assert "1.0, 1.0000000000000002" in captured.err


    @pytest.mark.parametrize("command", ["bands", "scatter", "verify", "greens", "index"])
    def test_edge_rounding_onto_its_resonance_is_rejected_naming_coupling_g(self, tmp_path, capsys, command):
        # the edge sqrt(1 - g) rounds onto Omega = 1; the message blamed omega_res,
        # though the medium has one resonance
        cfg = write_config(tmp_path, {"half_length_L": 1.0,
                                      "oscillators": [{"omega_res": 1.0, "coupling_g": 1e-20}]})
        pulse = tmp_path / "pulse.csv"
        assert exit_code([command, "--config", str(cfg), *self.every_command(cfg, pulse)[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cfg}: oscillators: omega_res and coupling_g" in captured.err
        assert "(0.0, 1.0)" in captured.err

    @pytest.mark.parametrize("command", ["bands", "scatter", "verify", "greens", "index"])
    def test_near_critical_coupling_is_rejected_naming_the_sum(self, tmp_path, capsys, command):
        # with 1 - S = sum g / Omega^2 near zero the lowest band edge, near zero
        # frequency, is misplaced by rounding, outside the pole window it sets
        def config(static_margin, name):
            return write_config(tmp_path, {
                "half_length_L": 1.0,
                "oscillators": [{"omega_res": 1.0, "coupling_g": 0.4},
                                {"omega_res": 2.0, "coupling_g": 4.0 * (0.6 - static_margin)}],
            }, name)

        pulse = tmp_path / "pulse.csv"
        extra = self.every_command(None, pulse)[command]
        past = config(0.99 * CRITICAL_COUPLING_MARGIN, "past.json")
        assert exit_code([command, "--config", str(past), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{past}: oscillators: sum(coupling_g / omega_res^2) = 0.99999901" in captured.err
        inside = config(1.01 * CRITICAL_COUPLING_MARGIN, "inside.json")
        assert exit_code([command, "--config", str(inside), *extra]) in (0, 1)  # verify may FAIL
        assert capsys.readouterr().err == ""


    @pytest.mark.parametrize("command", ["index", "scatter"])
    def test_resonance_below_two_to_the_minus_511_is_rejected_naming_it(self, tmp_path, capsys, command):
        # (Omega - w)(Omega + w) underflowed to 0 one ulp from Omega: a ZeroDivisionError traceback
        cfg = write_config(tmp_path, {"half_length_L": 1.0,
                                      "oscillators": [{"omega_res": 1e-160, "coupling_g": 5e-321}]})
        argv = [command, "--config", str(cfg), "--omega-min", "1.0000000000000001e-160",
                "--omega-max", "2e-160", "--points", "3"]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {cfg}: oscillators[0]: omega_res must be at least 2**-511" in captured.err

    @pytest.mark.parametrize(
        "command, extra",
        [("index", ["--omega-min", "1e145", "--omega-max", "2e154", "--points", "5"]),
         ("bands", ["--omega-max", "2e154"])],
        ids=["index", "bands"],
    )
    def test_resonance_at_or_above_two_to_the_484_is_rejected_naming_it(self, tmp_path, capsys, command, extra):
        # from 2**512 omega_res**2 overflowed: an OverflowError traceback with
        # exit 1; below it index printed n = 1 where (Omega - w)(Omega + w)
        # overflowed and dropped a pole term that still counted
        for w_res in (2.0**484, math.nextafter(2.0**512, 0.0), 2.0**512, 1e200):
            cfg = write_config(tmp_path, {"half_length_L": 1.0,
                                          "oscillators": [{"omega_res": w_res, "coupling_g": 1.0}]})
            assert exit_code([command, "--config", str(cfg), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: {cfg}: oscillators[0]: omega_res must be below 2**484" in captured.err
        w_res = math.nextafter(2.0**484, 0.0)
        cfg = write_config(tmp_path, {"half_length_L": 1.0,
                                      "oscillators": [{"omega_res": w_res, "coupling_g": 0.19 * w_res * w_res}]})
        assert exit_code([command, "--config", str(cfg), *extra]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "unit_mode, pulse_k, extra, named",
        [
            ("scaled", None, ["--detector-x", "1e308", "--t-max", "1"], "detector_x=1e+308"),
            ("SI", None, ["--detector-x", "1e-5", "--t-max", "1e301"], "|t|=1e+301"),
            ("SI", [1e299, 1e300], ["--detector-x", "1e-5", "--t-max", "1"], "k=1e+300"),
        ],
        ids=["detector-x", "t-max", "pulse-k"],
    )
    def test_overflowing_pulse_phase_exits_two_naming_the_quantity(
        self, tmp_path, capsys, unit_mode, pulse_k, extra, named
    ):
        # the phases k x and k c t overflowed into NaN rates with exit 0, and
        # c k into a ValueError traceback
        scale = SI_FREQUENCY if unit_mode == "SI" else 1.0
        c = C_LIGHT if unit_mode == "SI" else 1.0
        config = {"unit_mode": unit_mode, "half_length_L": 1e-6 if unit_mode == "SI" else 1.0,
                  "oscillators": [{"omega_res": scale, "coupling_g": 0.19 * scale**2}]}
        if unit_mode == "SI":
            config["cross_section_A"] = 1e-12
        cfg = write_config(tmp_path, config)
        pulse = tmp_path / "pulse.csv"
        if pulse_k is None:
            write_pulse_file(pulse, gaussian_pulse(2.0 * scale / c, 0.1 * scale / c, points=41))
        else:
            pulse.write_text("".join(f"{k!r},1.0,0.0\n" for k in pulse_k))
        argv = ["pulse", "--config", str(cfg), "--pulse", str(pulse), "--t-min", "0", "--points", "3", *extra]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err

    def test_overflowing_greens_phase_exits_two_naming_the_position(self, tmp_path, capsys):
        # cmath.exp of an infinite phase: a math domain error traceback
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        argv = ["greens", "--config", str(cfg), "--omega", "3", "--x-min", "0", "--x-max", "1e308",
                "--x-points", "3", "--src-min", "0", "--src-max", "0", "--src-points", "1"]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: x=1e+308: the phase omega x / c overflows" in captured.err


SI_FREQUENCY = 2.2e15  # rad/s per scaled unit of frequency
NON_FINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


BOUNDARY_SCALES = (st.floats(1e-300, 1e-298), st.floats(1e306, sys.float_info.max), st.floats(1e-2, 1e2))


def far_or_near(length):
    """A distance: 1.5 L, or one drawn independently of L near 1e-300, near the largest float or ordinary."""
    return st.one_of(st.just(min(1.5 * length, sys.float_info.max)), *BOUNDARY_SCALES)


@st.composite
def boundary_configs(draw):
    """(config, reach): a config object at the edge of the float domain the validators accept.

    1-3 species, neighbours either 1-16 ulps apart or up to 10x apart;
    1 - S either near CRITICAL_COUPLING_MARGIN or ordinary; L near 1e-300,
    near the largest float or ordinary; scaled or SI units.  ``reach`` holds
    the greens half-span ``x``, the pulse ``detector_x`` and the time span
    times c, ``ct``, each 1.5 L or drawn independently of L.
    """
    omegas = [draw(st.floats(0.1, 10.0))]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            w = omegas[-1]
            for _ in range(draw(st.sampled_from([1, 2, 16]))):
                w = math.nextafter(w, math.inf)
            omegas.append(w)
        else:
            omegas.append(omegas[-1] * draw(st.floats(1.001, 10.0)))
    if draw(st.booleans()):
        strength = 1.0 - CRITICAL_COUPLING_MARGIN * draw(st.floats(0.5, 2.0))
    else:
        strength = draw(st.floats(0.01, 0.95))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(omegas), max_size=len(omegas)))
    length = draw(st.one_of(*BOUNDARY_SCALES))
    scale = SI_FREQUENCY if draw(st.booleans()) else 1.0
    config = {"unit_mode": "SI" if scale > 1.0 else "scaled", "half_length_L": length}
    if scale > 1.0:
        config["cross_section_A"] = 1e-12
        if draw(st.booleans()):  # the same slab in SI units, else the same L in metres
            config["half_length_L"] = length * C_LIGHT / scale
    config["oscillators"] = [
        {"omega_res": w * scale, "coupling_g": strength * wt / math.fsum(weights) * (w * scale) ** 2}
        for w, wt in zip(omegas, weights)
    ]
    length = config["half_length_L"]
    return config, {key: draw(far_or_near(length)) for key in ("x", "detector_x", "ct")}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(boundary_configs(), st.sampled_from(["csv", "json"]))
def test_boundary_media_exit_cleanly_on_every_command(config_and_reach, fmt):
    # every command either prints finite rows (exit 0, or 1 for a verify
    # FAIL) or exits 2 with a message and no rows; no exception escapes main
    config, reach = config_and_reach
    resonances = [o["omega_res"] for o in config["oscillators"]]
    sweep = [f"--omega-min={resonances[0] / 20}", f"--omega-max={resonances[-1] * 3}", "--points=7"]
    c = C_LIGHT if config["unit_mode"] == "SI" else 1.0
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), config)
        pulse_path = Path(tmp) / "pulse.csv"
        try:  # a 201-point Gaussian across the lowest band edge, if the medium is accepted
            medium, _ = load_medium_config(path)
            k_edge = band_edges(medium)[0] / medium.c
            write_pulse_file(pulse_path, gaussian_pulse(k_edge, 0.05 * k_edge, points=201))
        except ConfigError:
            pass  # pulse exits 2 on the config before it reads the pulse file
        commands = {
            "index": sweep,
            "scatter": sweep,
            "bands": [f"--omega-max={resonances[-1] * 3}"],
            "greens": [f"--omega={resonances[0] / 2}", f"--x-min={-reach['x']}", f"--x-max={reach['x']}",
                       "--x-points=3", "--src-min=0", "--src-max=0", "--src-points=1"],
            "verify": ["--level=quick"],
            "pulse": [f"--pulse={pulse_path}", f"--detector-x={reach['detector_x']}", "--t-min=0",
                      f"--t-max={reach['ct'] / c}", "--points=101"],
        }
        for command, extra in commands.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = exit_code([command, "--config", str(path), "--format", fmt, *extra])
            assert code in (0, 1, 2), command
            assert NON_FINITE_TOKEN.search(out.getvalue()) is None, command
            if code == 2:
                assert out.getvalue() == "" and "error: " in err.getvalue(), command


class TestPulseFile:
    def test_round_trip(self, tmp_path):
        pulse = gaussian_pulse(1.0, 0.05, points=64)
        path = tmp_path / "pulse.csv"
        write_pulse_file(path, pulse)
        loaded = load_pulse_file(path)
        assert np.allclose(loaded.k_grid, pulse.k_grid)
        assert np.allclose(loaded.f_values, pulse.f_values)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("0.5,1.0,0.0\n0.6,oops,0.0\n")
        with pytest.raises(PulseFileError, match="line 2"):
            load_pulse_file(path)

    def test_needs_two_samples(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("0.5,1.0,0.0\n")
        with pytest.raises(PulseFileError):
            load_pulse_file(path)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("# k,re_f,im_f\n0.5,1.0,0.0\n0.6,1.0,0.0\n0.7,1.0\n0.8,1.0,0.0\n")
        with pytest.raises(PulseFileError, match="line 4: expected 3 comma-separated values.*got 2"):
            load_pulse_file(path)

    def test_every_row_with_a_wrong_column_count_is_rejected(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("0.5,1.0,0.0,2.0\n0.6,1.0,0.0,2.0\n")
        with pytest.raises(PulseFileError, match="line 1: .*got 4"):
            load_pulse_file(path)

    def test_comment_and_blank_lines_between_rows(self, tmp_path):
        pulse = gaussian_pulse(1.0, 0.05, points=5)
        rows = [f"{k!r}, {f.real!r} ,{f.imag!r}" for k, f in zip(pulse.k_grid.tolist(), pulse.f_values.tolist())]
        path = tmp_path / "pulse.csv"
        path.write_text("# k,re_f,im_f\n" + "\n\n  # between\n   \n".join(rows) + "\n# end\n")
        loaded = load_pulse_file(path)
        assert np.array_equal(loaded.k_grid, pulse.k_grid)
        assert np.array_equal(loaded.f_values, pulse.f_values)

    def test_trailing_comment_on_a_data_row_is_rejected(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("0.5,1.0,0.0\n0.6,1.0,0.0 # note\n")
        with pytest.raises(PulseFileError, match="line 2"):
            load_pulse_file(path)


class TestIndexCommand:
    def test_vacuum_rows_all_unity(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        result = run_cli(
            "index", "--config", str(cfg),
            "--omega-min", "0.2", "--omega-max", "2.0", "--points", "7",
            "--no-timestamp",
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        assert len(rows) == 7
        for row in rows:
            assert float(row["re_n"]) == 1.0
            assert float(row["im_n"]) == 0.0
            assert row["band_kind"] == "transmission"

    def test_gap_rows_have_zero_real_index(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli(
            "index", "--config", str(cfg),
            "--omega-min", "0.5", "--omega-max", "1.5", "--points", "1001",
            "--no-timestamp",
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        in_gap = [r for r in rows if 0.9 < float(r["omega"]) < 1.0]
        assert in_gap
        for row in in_gap:
            assert float(row["re_n"]) == 0.0
            assert row["band_kind"] in ("absorption", "resonance_zero")
        # the grid point on the band edge is skipped and reported on stderr
        assert "skipped pole-adjacent" in result.stderr
        assert not any(math.isclose(float(r["omega"]), 0.9) for r in rows)

    def test_json_output_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli(
            "index", "--config", str(cfg),
            "--omega-min", "0.5", "--omega-max", "0.8", "--points", "4",
            "--format", "json",
        )
        payload = json.loads(result.stdout)
        assert isinstance(payload, list) and len(payload) == 4
        assert set(payload[0]) == {"omega", "re_n", "im_n", "band_kind"}
        assert json.loads(json.dumps(payload)) == payload

    def test_bad_range_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        result = run_cli(
            "index", "--config", str(cfg),
            "--omega-min", "2.0", "--omega-max", "1.0", "--points", "5",
        )
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_missing_config_exits_two(self, tmp_path):
        result = run_cli(
            "index", "--config", str(tmp_path / "nope.json"),
            "--omega-min", "0.1", "--omega-max", "1.0", "--points", "3",
        )
        assert result.returncode == 2


class TestScatterCommand:
    def test_vacuum_is_transparent(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        result = run_cli(
            "scatter", "--config", str(cfg),
            "--omega-min", "0.3", "--omega-max", "1.2", "--points", "5",
            "--no-timestamp",
        )
        rows = parse_csv(result.stdout)
        for row in rows:
            assert float(row["re_R"]) == 0.0 and float(row["im_R"]) == 0.0
            assert abs(complex(float(row["re_T"]), float(row["im_T"]))) == pytest.approx(1.0)
            assert float(row["unitarity"]) == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_column_across_gap(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli(
            "scatter", "--config", str(cfg),
            "--omega-min", "0.85", "--omega-max", "1.05", "--points", "41",
            "--no-timestamp",
        )
        rows = parse_csv(result.stdout)
        assert rows
        for row in rows:
            assert float(row["unitarity"]) == pytest.approx(1.0, abs=1e-12)

    def test_at_resonance_uses_closed_forms(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli(
            "scatter", "--config", str(cfg), "--at-resonance", "--no-timestamp"
        )
        rows = parse_csv(result.stdout)
        assert len(rows) == 1
        refl, trans = resonance_coefficients(1.0, 1.0)
        row = rows[0]
        assert float(row["omega"]) == 1.0
        assert complex(float(row["re_R"]), float(row["im_R"])) == pytest.approx(refl)
        assert complex(float(row["re_T"]), float(row["im_T"])) == pytest.approx(trans)

    def test_stderr_free_of_data_rows(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli(
            "scatter", "--config", str(cfg),
            "--omega-min", "0.5", "--omega-max", "1.5", "--points", "101",
            "--no-timestamp",
        )
        for line in result.stderr.splitlines():
            assert line.startswith("note:") or not line.strip()


class TestDeterminism:
    def test_byte_identical_reruns_and_thread_independence(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        argv = [
            "scatter", "--config", str(cfg),
            "--omega-min", "0.2", "--omega-max", "1.8", "--points", "301",
            "--no-timestamp",
        ]
        first = run_cli(*argv, "--threads", "1")
        second = run_cli(*argv, "--threads", "1")
        parallel = run_cli(*argv, "--threads", "8")
        assert first.stdout == second.stdout == parallel.stdout
        assert first.returncode == 0

    def test_out_file_matches_stdout(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        out_path = tmp_path / "table.csv"
        argv = [
            "index", "--config", str(cfg),
            "--omega-min", "0.5", "--omega-max", "0.9", "--points", "9",
            "--no-timestamp",
        ]
        piped = run_cli(*argv)
        written = run_cli(*argv, "--out", str(out_path))
        assert written.returncode == 0
        assert out_path.read_text() == piped.stdout

    def test_timestamp_line_present_unless_suppressed(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        argv = [
            "bands", "--config", str(cfg), "--omega-max", "2.0",
        ]
        stamped = run_cli(*argv)
        bare = run_cli(*argv, "--no-timestamp")
        assert any(line.startswith("# generated_at:") for line in stamped.stdout.splitlines())
        assert not any(
            line.startswith("# generated_at:") for line in bare.stdout.splitlines()
        )
        # the version line is metadata on every CSV table, and reruns without
        # the timestamp stay byte-identical
        version_line = f"# qslab_version: {qslab.__version__}"
        for output in (stamped.stdout, bare.stdout):
            assert output.splitlines().count(version_line) == 1
        assert run_cli(*argv, "--no-timestamp").stdout == bare.stdout


def test_every_numeric_csv_cell_has_17_significant_digits(tmp_path, capsys):
    # a float cell printed by str() or repr() reads "1.0" or "0.9430410394216153"
    # where ".17g" reads "1" and "0.94304103942161532"
    pulse_path = tmp_path / "pulse.csv"
    write_pulse_file(pulse_path, gaussian_pulse(0.95, 0.05, points=201))
    sweep = ["--omega-min", "0.05", "--omega-max", "3", "--points", "201"]
    commands = {
        "index": sweep,
        "scatter": sweep,
        "bands": ["--omega-max", "3"],
        "greens": ["--omega", "0.95", "--x-min", "-2", "--x-max", "2", "--x-points", "5",
                   "--src-min", "-1", "--src-max", "1", "--src-points", "3"],
        "pulse": ["--pulse", str(pulse_path), "--detector-x", "4", "--t-min", "0", "--t-max", "80",
                  "--points", "101"],
    }
    for cfg in sorted(CONFIG_DIR.glob("*.json")):
        for command, extra in commands.items():
            assert exit_code([command, "--config", str(cfg), "--no-timestamp", *extra]) == 0
            rows = parse_csv(capsys.readouterr().out)
            assert rows, (command, cfg.name)
            for row in rows:
                for key, cell in row.items():
                    if cell not in ("", row.get("kind"), row.get("band_kind")):
                        assert cell == format(float(cell), ".17g"), (command, cfg.name, key, cell)
                if command == "bands":
                    absorbing = row["kind"] == "absorption"
                    edge_cells = [row["lo"], row["hi"]] if absorbing else ["", ""]
                    assert [row["edge_omega"], row["resonance_omega"]] == edge_cells, (cfg.name, row)


class TestInProcessCalls:
    def test_repeated_calls_leave_no_cyclic_garbage(self, tmp_path, capsys):
        # an argparse parser and its groups and actions refer to one another,
        # so a parser built per call is garbage only the cyclic collector frees
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        argv = ["verify", "--config", str(cfg), "--level", "quick"]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_the_command_bound_at_call_time_is_run(self, tmp_path, monkeypatch, capsys):
        # the parser outlives the call; the cmd_* function is looked up when
        # main runs, so a rebound one (a test double, a tracing wrapper) is run
        import qslab.cli

        cfg = write_config(tmp_path, VACUUM_CONFIG)
        argv = ["bands", "--config", str(cfg), "--omega-max", "2.0"]
        assert main(argv) == 0
        calls = []
        monkeypatch.setattr(qslab.cli, "cmd_bands", lambda args: calls.append(args.omega_max) or 7)
        assert main(argv) == 7
        assert calls == [2.0]


class TestBandsCommand:
    def test_vacuum_single_band(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        result = run_cli("bands", "--config", str(cfg), "--omega-max", "3.0", "--no-timestamp")
        rows = parse_csv(result.stdout)
        assert len(rows) == 1
        assert rows[0]["kind"] == "transmission"

    def test_reference_edge_reported(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli("bands", "--config", str(cfg), "--omega-max", "2.0", "--no-timestamp")
        rows = parse_csv(result.stdout)
        absorption = [r for r in rows if r["kind"] == "absorption"]
        assert len(absorption) == 1
        assert float(absorption[0]["edge_omega"]) == pytest.approx(0.9, abs=1e-12)
        assert float(absorption[0]["resonance_omega"]) == 1.0

    def test_two_species_report_two_gaps(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "half_length_L": 1.0,
                "oscillators": [
                    {"omega_res": 1.0, "coupling_g": 0.1},
                    {"omega_res": 2.0, "coupling_g": 0.3},
                ],
            },
        )
        result = run_cli("bands", "--config", str(cfg), "--omega-max", "3.0", "--no-timestamp")
        rows = parse_csv(result.stdout)
        gaps = [r for r in rows if r["kind"] == "absorption"]
        assert [float(r["resonance_omega"]) for r in gaps] == [1.0, 2.0]


class TestPulseCommand:
    def test_vacuum_peak_at_light_arrival(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        pulse_path = tmp_path / "pulse.csv"
        write_pulse_file(pulse_path, gaussian_pulse(2.0, 0.05, points=301))
        result = run_cli(
            "pulse", "--config", str(cfg), "--pulse", str(pulse_path),
            "--detector-x", "10.0", "--t-min", "0.0", "--t-max", "25.0",
            "--points", "501", "--no-timestamp",
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        peak_row = max(rows, key=lambda r: float(r["rate"]))
        assert float(peak_row["t"]) == pytest.approx(10.0, abs=0.05)
        meta = {
            line.split(":", 1)[0][2:]: line.split(":", 1)[1].strip()
            for line in result.stdout.splitlines()
            if line.startswith("#") and ":" in line
        }
        assert float(meta["energy_budget"]) == pytest.approx(1.0, abs=1e-12)

    def test_gap_pulse_suppressed_by_t_squared(self, tmp_path):
        from qslab.medium import MediumSpec, OscillatorSpecies
        from qslab.slab import scatter_coefficients

        cfg_ref = write_config(tmp_path, REFERENCE_CONFIG, "ref.json")
        cfg_vac = write_config(tmp_path, VACUUM_CONFIG, "vac.json")
        pulse_path = tmp_path / "pulse.csv"
        write_pulse_file(pulse_path, gaussian_pulse(0.95, 0.95e-3, points=1201))
        argv = [
            "--pulse", str(pulse_path), "--detector-x", "6.0",
            "--t-min", "-2000", "--t-max", "2000", "--points", "1501",
            "--no-timestamp", "--format", "json",
        ]
        gap = json.loads(run_cli("pulse", "--config", str(cfg_ref), *argv).stdout)
        vac = json.loads(run_cli("pulse", "--config", str(cfg_vac), *argv).stdout)
        peak_gap = max(r["rate"] for r in gap["rows"])
        peak_vac = max(r["rate"] for r in vac["rows"])
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),))
        expected = abs(scatter_coefficients(medium, 0.95).T) ** 2
        assert peak_gap / peak_vac == pytest.approx(expected, rel=0.01)
        assert gap["metadata"]["energy_budget"] == pytest.approx(1.0, abs=1e-12)

    def test_detector_inside_medium_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        pulse_path = tmp_path / "pulse.csv"
        write_pulse_file(pulse_path, gaussian_pulse(1.0, 0.1, points=32))
        result = run_cli(
            "pulse", "--config", str(cfg), "--pulse", str(pulse_path),
            "--detector-x", "0.5", "--t-min", "0", "--t-max", "1", "--points", "4",
        )
        assert result.returncode == 2
        assert "detector" in result.stderr.lower()

    def test_physical_prefactor_on_scaled_config_exits_two(self, tmp_path, capsys):
        # used to end in a ValueError traceback with exit 1; the check runs
        # before the pulse file is read
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        argv = [
            "pulse", "--config", str(cfg), "--pulse", str(tmp_path / "absent.csv"),
            "--detector-x", "5", "--t-min", "0", "--t-max", "1", "--points", "4",
            "--prefactor", "physical",
        ]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert "--prefactor" in captured.err
        assert captured.out == ""

    def test_malformed_pulse_file_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        pulse_path = tmp_path / "pulse.csv"
        pulse_path.write_text("not,a,pulse\n")
        result = run_cli(
            "pulse", "--config", str(cfg), "--pulse", str(pulse_path),
            "--detector-x", "5", "--t-min", "0", "--t-max", "1", "--points", "4",
        )
        assert result.returncode == 2


GREENS_GRID = ["--x-min", "0", "--x-max", "1", "--x-points", "2",
               "--src-min", "0", "--src-max", "0", "--src-points", "1"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["pulse", "--pulse", "PULSE", "--detector-x", "5", "--t-min", "0", "--t-max", "inf",
          "--points", "4"], "--t-max"),
        (["pulse", "--pulse", "PULSE", "--detector-x", "inf", "--t-min", "0", "--t-max", "1",
          "--points", "4"], "--detector-x"),
        (["scatter", "--omega-min", "0.1", "--omega-max", "inf", "--points", "3"], "--omega-max"),
        (["index", "--omega-min", "0.1", "--omega-max", "inf", "--points", "3"], "--omega-max"),
        (["bands", "--omega-max", "inf"], "--omega-max"),
        (["greens", "--omega", "nan", *GREENS_GRID], "--omega"),
        (["greens", "--omega", "inf", *GREENS_GRID], "--omega"),
        (["greens", "--omega", "-1", *GREENS_GRID], "omega"),
        (["greens", "--omega", "0.7", *GREENS_GRID, "--x-min", "nan"], "--x-min"),
        # spans past the largest float, whose linspace points were NaN
        (["pulse", "--pulse", "PULSE", "--detector-x", "5", "--t-min=-1e308", "--t-max=1e308",
          "--points", "4"], "--t-max - --t-min overflows"),
        (["greens", "--omega", "0.7", *GREENS_GRID, "--x-min=-1e308", "--x-max=1e308"],
         "--x-max - --x-min overflows"),
        (["greens", "--omega", "0.7", *GREENS_GRID, "--src-min=-1e308", "--src-max=1e308"],
         "--src-max - --src-min overflows"),
    ],
)
def test_non_finite_or_bad_numbers_exit_two_naming_the_option(tmp_path, capsys, argv, named):
    # these used to print NaN rows, emit a band ending at inf or end in a traceback
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    pulse_path = tmp_path / "pulse.csv"
    write_pulse_file(pulse_path, gaussian_pulse(0.5, 0.05, points=41))
    argv = [str(pulse_path) if arg == "PULSE" else arg for arg in argv]
    assert exit_code([*argv, "--config", str(cfg), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


class TestGreensCommand:
    def test_band_edge_omega_gives_finite_rows(self, tmp_path, capsys):
        # T underflows at the reference edge omega = 0.9; G must not divide by it
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        argv = ["greens", "--config", str(cfg), "--omega", "0.9", *GREENS_GRID, "--no-timestamp"]
        assert exit_code(argv) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(math.isfinite(float(row[key])) for row in rows for key in ("re_G", "im_G"))

    def test_negative_exponent_value_as_a_separate_argument(self, tmp_path, capsys):
        # argparse alone reads a separate "-1e-3" as an option and exits 2
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        argv = ["greens", "--config", str(cfg), "--omega", "0.7", "--x-max", "1", "--x-points", "3",
                "--src-max", "1", "--src-points", "2", "--no-timestamp"]
        outputs = []
        for negatives in (["--x-min", "-1e-3", "--src-min", "-2.5E+0"], ["--x-min=-1e-3", "--src-min=-2.5E+0"]):
            assert exit_code([*argv, *negatives]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert parse_csv(outputs[0])[0]["x"] == "-0.001"

    def test_grid_values_match_library(self, tmp_path):
        from qslab.medium import MediumSpec, OscillatorSpecies
        from qslab.slab import greens_function

        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli(
            "greens", "--config", str(cfg), "--omega", "0.7",
            "--x-min", "-2.0", "--x-max", "2.0", "--x-points", "5",
            "--src-min", "0.3", "--src-max", "0.3", "--src-points", "1",
            "--no-timestamp",
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        assert len(rows) == 5
        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19),))
        for row in rows:
            expected = greens_function(medium, 0.7, float(row["x"]), 0.3).value
            assert complex(float(row["re_G"]), float(row["im_G"])) == pytest.approx(expected)


class TestVerifyCommand:
    def test_vacuum_quick_passes(self, tmp_path):
        cfg = write_config(tmp_path, VACUUM_CONFIG)
        result = run_cli("verify", "--config", str(cfg), "--level", "quick")
        assert result.returncode == 0
        assert "RESULT: PASS" in result.stdout

    def test_reference_quick_passes(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli("verify", "--config", str(cfg), "--level", "quick")
        assert result.returncode == 0

    def test_intact_fixture_accepted(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        result = run_cli(
            "verify", "--config", str(cfg), "--level", "quick",
            "--fixture", str(DATA_DIR / "golden_scatter_g019.json"),
        )
        assert result.returncode == 0
        assert "golden_fixture" in result.stdout

    def test_corrupted_fixture_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        payload = json.loads((DATA_DIR / "golden_scatter_g019.json").read_text())
        payload["entries"][0]["R"][0] += 5e-4
        bad = tmp_path / "corrupted.json"
        bad.write_text(json.dumps(payload))
        result = run_cli(
            "verify", "--config", str(cfg), "--level", "quick", "--fixture", str(bad)
        )
        assert result.returncode == 1
        assert "FAIL" in result.stdout

    @pytest.mark.parametrize(
        "text, named",
        [
            (None, "No such file"),
            ("not json {", "not valid JSON"),
            ("[1, 2]", "expected a JSON object"),
            (json.dumps({"provenance": {"tolerance": 1e-10}, "entries": []}), "'medium'"),
        ],
        ids=["missing", "not-json", "array", "no-medium"],
    )
    def test_bad_fixture_exits_two_naming_file_and_field(self, tmp_path, capsys, text, named):
        # each of these used to end in a traceback
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        fixture = tmp_path / "fixture.json"
        if text is not None:
            fixture.write_text(text)
        assert exit_code(["verify", "--config", str(cfg), "--fixture", str(fixture)]) == 2
        captured = capsys.readouterr()
        assert str(fixture) in captured.err
        assert named in captured.err
        assert captured.out == ""

    def test_vacuum_full_skips_the_resonance_properties_by_name(self, tmp_path, capsys):
        skipped = {"resonance_continuity", "source_monotone_decay", "source_decay_ratio",
                   "resonance_mode_flatness"}
        reports = {}
        for name, payload in (("vac", VACUUM_CONFIG), ("ref", REFERENCE_CONFIG)):
            cfg = write_config(tmp_path, payload, f"{name}.json")
            exit_code(["verify", "--config", str(cfg), "--level", "full", "--format", "json"])
            reports[name] = json.loads(capsys.readouterr().out)["properties"]
        names = [p["name"] for p in reports["ref"]]
        assert len(names) == 8
        assert [p["name"] for p in reports["vac"]] == names
        assert {p["name"] for p in reports["vac"] if p["verdict"] == "SKIP"} == skipped
        assert all(p["verdict"] != "SKIP" for p in reports["ref"])

    def test_out_writes_the_report_and_leaves_stdout_empty(self, tmp_path, capsys):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        out_path = tmp_path / "report.txt"
        assert exit_code(["verify", "--config", str(cfg)]) == 0
        piped = capsys.readouterr().out
        assert exit_code(["verify", "--config", str(cfg), "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text() == piped

    def test_json_report_has_one_entry_per_property(self, tmp_path, capsys):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        assert exit_code(["verify", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out.splitlines()
        assert exit_code(["verify", "--config", str(cfg), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        properties = payload["properties"]
        assert [p["name"] for p in properties] == [line.split()[0] for line in text[1:-1]]
        for entry, line in zip(properties, text[1:-1]):
            assert set(entry) == {"name", "measured", "tolerance", "verdict"}
            assert line.split()[1:] == [f"measured={entry['measured']}", f"tol={entry['tolerance']}", entry["verdict"]]
        assert text[-1].startswith(f"RESULT: {payload['result']} (")

    def test_misconfigured_medium_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {"half_length_L": -2.0, "oscillators": []})
        result = run_cli("verify", "--config", str(cfg), "--level", "quick")
        assert result.returncode == 2

    def test_checks_read_the_grid_instead_of_re_evaluating_points(self, tmp_path, monkeypatch, capsys):
        # the 2000-point sweep is evaluated once by scatter_on_grid; only the
        # resonance-continuity probes may call the pointwise kernels
        import qslab.cli
        from qslab import medium as medium_module
        from qslab import slab

        originals = {
            "refractive_index": medium_module.refractive_index,
            "scatter_coefficients": slab.scatter_coefficients,
        }
        calls = dict.fromkeys(originals, 0)

        def counting(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return originals[name](*args, **kwargs)

            return wrapper

        for key, module in list(sys.modules.items()):
            if key == "qslab" or key.startswith("qslab."):
                for name, original in originals.items():
                    if getattr(module, name, None) is original:
                        monkeypatch.setattr(module, name, counting(name))
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        assert qslab.cli.main(["verify", "--config", str(cfg), "--level", "quick"]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out
        assert 0 < calls["scatter_coefficients"] <= 5
        assert 0 < calls["refractive_index"] <= 10

    def test_full_verify_bisects_the_band_edges_once(self, monkeypatch, capsys):
        # the medium bisects its edges once, when the config builds it; the
        # sweep's pole window and the ODE probe read the ones it keeps
        from qslab import medium as medium_module

        original = medium_module._secular_roots
        edge_calls = []

        def counting(pairs, kc=math.inf):
            if kc == math.inf:
                edge_calls.append(pairs)
            return original(pairs, kc)

        monkeypatch.setattr(medium_module, "_secular_roots", counting)
        cfg = CONFIG_DIR / "two_resonances.json"
        assert main(["verify", "--config", str(cfg), "--level", "full"]) in (0, 1)
        assert "ode_delta_convergence" in capsys.readouterr().out
        assert len(edge_calls) == 1

    def test_verify_calls_the_oracle_bound_at_call_time(self, tmp_path, monkeypatch, capsys):
        # oracle.verify looks the oracle's names up when it runs, so a function
        # rebound in qslab.oracle (a test double, a tracing wrapper) is the one called
        import qslab.oracle

        original = qslab.oracle.transfer_matrix_rt
        calls = []

        def counting(n0, k, half_length_L):
            calls.append(np.size(k))
            return original(n0, k, half_length_L)

        monkeypatch.setattr(qslab.oracle, "transfer_matrix_rt", counting)
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        assert main(["verify", "--config", str(cfg), "--level", "quick"]) == 0
        assert "oracle_agreement" in capsys.readouterr().out
        # the oracle takes the whole sample in one array call; the double
        # must see every sampled frequency, however they are batched
        assert calls and sum(calls) > 100

    def test_verify_full_batches_each_ramp_width_sequence(self, monkeypatch, capsys):
        # one stacked ODE pass per ramp-width sequence, through the oracle's
        # public names so a tracing wrapper on them still sees each pass, and
        # one dense pass: 3 legs each, 9 solve_ivp calls in all
        import qslab.oracle

        batches, legs = [], []

        def counting(name):
            original = getattr(qslab.oracle, name)

            def call(profile, omega):
                one = isinstance(profile, qslab.oracle.SmoothedProfile)
                batches.append((name, 1 if one else len(profile)))
                return original(profile, omega)

            return call

        original_solve_ivp = qslab.oracle.solve_ivp

        def counting_solve_ivp(*args, **kwargs):
            legs.append(args[1])
            return original_solve_ivp(*args, **kwargs)

        for name in ("ode_scatter", "source_integral_check"):
            monkeypatch.setattr(qslab.oracle, name, counting(name))
        monkeypatch.setattr(qslab.oracle, "solve_ivp", counting_solve_ivp)
        argv = ["verify", "--config", str(CONFIG_DIR / "single_resonance.json"), "--level", "full"]
        assert main(argv) in (0, 1)
        assert "ode_delta_convergence" in capsys.readouterr().out
        assert batches == [("ode_scatter", 4), ("source_integral_check", 3)]
        assert len(legs) == 9

    def test_a_non_unitary_sweep_is_reported_as_a_fail(self, monkeypatch, capsys):
        # s_matrix raises ArithmeticError past its 1e-12 contract, and verify
        # used to call it per sampled point, so a non-unitary R and T ended in
        # a traceback; the sweep now measures the defect on the grid's values
        import qslab.oracle

        def lossy(kernel):
            def scaled(*args):
                refl, trans, index = kernel(*args)
                return refl, trans * (1.0 + 1e-11), index

            return scaled

        # the grid the sweep reads
        monkeypatch.setattr(qslab.oracle, "scatter_on_grid", lossy(qslab.oracle.scatter_on_grid))
        argv = ["verify", "--config", str(CONFIG_DIR / "two_resonances.json"), "--level", "quick"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        verdicts = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
        assert verdicts["unitarity_sweep"] == "FAIL"
        assert verdicts["smatrix_unitarity"] == "FAIL"
        assert verdicts["oracle_agreement"] == "PASS"  # a 1e-11 change is inside its 1e-10
        assert lines[-1].startswith("RESULT: FAIL")

    @pytest.mark.parametrize("field", ["omega", "R", "T"])
    def test_non_finite_fixture_value_exits_two_naming_the_field(self, tmp_path, capsys, field):
        # a NaN error drops out of max(), so a NaN entry used to PASS
        payload = json.loads((DATA_DIR / "golden_scatter_g019.json").read_text())
        if field == "omega":
            payload["entries"][0]["omega"] = math.nan
        else:
            payload["entries"][0][field][0] = math.nan
        fixture = tmp_path / "nan.json"
        fixture.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        assert exit_code(["verify", "--config", str(cfg), "--fixture", str(fixture)]) == 2
        captured = capsys.readouterr()
        assert f"entries[0].{field}: expected a" in captured.err
        assert captured.out == ""

    def test_unitarity_defects_are_the_scalar_expression(self):
        from qslab.medium import MediumSpec, OscillatorSpecies
        from qslab.slab import scatter_coefficients, scatter_on_grid

        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19), OscillatorSpecies(2.3, 0.8)))
        omegas = np.linspace(0.05, 4.6, 2000)
        refl, trans, _ = scatter_on_grid(medium, omegas)
        defects = np.abs(np.abs(refl) ** 2 + np.abs(trans) ** 2 - 1.0)
        eps = np.finfo(float).eps
        for defect, omega in zip(defects.tolist(), omegas.tolist()):
            sol = scatter_coefficients(medium, omega)
            scalar = abs(abs(sol.R) ** 2 + abs(sol.T) ** 2 - 1.0)
            # R and T within 4 eps (1 + |n0|) each move |R|^2 + |T|^2 by at
            # most 2 sqrt(2) times that, plus the rounding of either sum
            assert abs(defect - scalar) <= 12.0 * eps * (1.0 + abs(sol.n0)) + 4.0 * eps


class TestSiUnits:
    def test_si_config_sweeps_and_verifies(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "unit_mode": "SI",
                "half_length_L": 1e-6,
                "cross_section_A": 1e-12,
                "oscillators": [{"omega_res": 2.2e15, "coupling_g": 9.2e29}],
            },
        )
        result = run_cli(
            "scatter", "--config", str(cfg),
            "--omega-min", "1e15", "--omega-max", "4e15", "--points", "41",
            "--no-timestamp",
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        assert len(rows) >= 40
        for row in rows:
            assert float(row["unitarity"]) == pytest.approx(1.0, abs=1e-12)
        quick = run_cli("verify", "--config", str(cfg), "--level", "quick")
        assert quick.returncode == 0


# Run as ``python -m qslab ARGS`` in a fresh interpreter, then report whether
# scipy was loaded.  Data goes to --out, so the last stdout line is the report.
_MODULES_AFTER_RUN = """
import runpy, sys
sys.argv = ["qslab", *sys.argv[1:]]
try:
    runpy.run_module("qslab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code, "scipy" in sys.modules)
"""


def _fresh_python(code, *argv):
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=300
    )


class TestLazyOracle:
    """Only verify and the oracle names load scipy.integrate, the bulk of the import."""

    CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_resonance.json"

    def test_import_leaves_scipy_unloaded(self):
        result = _fresh_python("import sys, qslab, qslab.cli; print('scipy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("index", ["--omega-min", "0.1", "--omega-max", "2", "--points", "11"]),
            ("scatter", ["--omega-min", "0.1", "--omega-max", "2", "--points", "11"]),
            ("bands", ["--omega-max", "2"]),
            ("greens", ["--omega", "0.95", *GREENS_GRID]),
            ("pulse", ["--detector-x", "4", "--t-min", "0", "--t-max", "10", "--points", "21"]),
            ("verify", ["--level", "quick"]),
        ],
    )
    def test_only_verify_loads_scipy(self, tmp_path, command, extra):
        if command == "pulse":
            pulse_path = tmp_path / "pulse.csv"
            write_pulse_file(pulse_path, gaussian_pulse(0.5, 0.05, points=101))
            extra = ["--pulse", str(pulse_path), *extra]
        argv = [command, "--config", str(self.CONFIG), "--out", str(tmp_path / "out"), *extra]
        result = _fresh_python(_MODULES_AFTER_RUN, *argv)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["exit", "0", str(command == "verify")]
        assert (tmp_path / "out").stat().st_size > 0

    def test_package_serves_the_oracle_names_on_first_use(self):
        code = """
import json, sys, qslab
namespace = {}
exec("from qslab import *", namespace)
import qslab.oracle
try:
    qslab.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "unbound": sorted(set(qslab.__all__) - set(namespace)),
    "same": all(getattr(qslab, n) is getattr(qslab.oracle, n) for n in qslab._ORACLE_NAMES),
    "cached": sorted(qslab._ORACLE_NAMES & set(vars(qslab))),
    "unknown": unknown,
}))
"""
        result = _fresh_python(code)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report == {
            "unbound": [],
            "same": True,
            "cached": [],
            "unknown": "module 'qslab' has no attribute 'no_such_name'",
        }

    def test_a_name_rebound_in_the_oracle_is_served_by_the_package(self, monkeypatch):
        import qslab.oracle

        def stand_in(*args):
            return args

        monkeypatch.setattr(qslab.oracle, "ode_scatter", stand_in)
        assert qslab.ode_scatter is stand_in
