import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qslab
from qslab.cli import main
from qslab.config import load_medium_config, load_pulse_file, medium_from_dict, write_pulse_file
from qslab.errors import ConfigError, PulseFileError
from qslab.quantum_io import gaussian_pulse
from qslab.slab import resonance_coefficients

DATA_DIR = Path(__file__).parent / "data"

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

    def test_unitarity_defects_are_the_scalar_expression(self):
        from qslab.cli import _unitarity_defects
        from qslab.medium import MediumSpec, OscillatorSpecies
        from qslab.slab import scatter_on_grid

        medium = MediumSpec(species=(OscillatorSpecies(1.0, 0.19), OscillatorSpecies(2.3, 0.8)))
        refl, trans, _ = scatter_on_grid(medium, np.linspace(0.05, 4.6, 2000))
        scalar = [abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) for r, t in zip(refl.tolist(), trans.tolist())]
        assert _unitarity_defects(refl, trans).tolist() == scalar


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
