"""Command-line front end: config parsing, payload determinism, SVG."""

import base64
import json
import math
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from openmaps import cli_io, disk_billiard, quantum_baker, spectral_counting
from openmaps.baker_classical import BakerSpec, cylinder_table
from openmaps.cli_io import SVG_H, SVG_MARGIN, SVG_W, main, parse_config, plot_svg
from openmaps.disk_billiard import DiskConfig, _cycle_orbits, _solve_orbits
from openmaps.errors import ConfigParse, EmptyData, NoConvergence
from openmaps.phase_space import (
    EscapeParams,
    ExperimentParams,
    _gauss_window,
    _windows,
    damped_propagation_experiment,
    husimi,
    husimi_mass,
    torus_coherent,
)
from openmaps.quantum_baker import apply, build
from openmaps.spectral_counting import annulus_gap_exponent, spectra, weyl_exponent
from openmaps.symbolic_pressure import bowen_dimension, pressure
from openmaps.threads import openblas, pool_size

GAMMA_CL = 0.3690702464285426
D_H = 0.6309297535714574
SPEC32 = BakerSpec(3, (0, 2))
EPS2 = np.finfo(float).eps ** 2
TRI = DiskConfig(centers=((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))),
                 radii=(1.0, 1.0, 1.0))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def no_spectra_to_reuse():
    """Each test starts and ends with no records for `spectrum` or
    `weyl-fit` to reuse, so a test that patches the solver or
    RESIDUAL_REL sees its maps solved, and leaves no records solved
    that way to the next test."""
    cli_io._solved.cache_clear()
    yield
    cli_io._solved.cache_clear()


class TestConfigParsing:
    def test_sections_and_values(self):
        cfg = parse_config(
            "# comment\n[map]\na = 3\nalphabet = 0,2\n\n[quantum]\nN=27\n")
        assert cfg == {"map": {"a": "3", "alphabet": "0,2"},
                       "quantum": {"N": "27"}}

    def test_key_without_section_rejected(self):
        with pytest.raises(ConfigParse):
            parse_config("a = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigParse):
            parse_config("[map]\njust a line\n")

    def test_malformed_header_rejected(self):
        with pytest.raises(ConfigParse):
            parse_config("[map\na=3\n")

    def test_empty_section_name_rejected(self):
        with pytest.raises(ConfigParse):
            parse_config("[ ]\na=3\n")

    def test_semicolon_comments_and_spacing(self):
        cfg = parse_config("; note\n[ map ]\n key = 1,2 , 3 \n")
        assert cfg == {"map": {"key": "1,2 , 3"}}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParse, match=r"line 5: \[map\] a given twice"):
            parse_config("[map]\na = 3\n[quantum]\n[map]\na = 5\n")


# the experiment each command runs first, after its config is read
EXPERIMENTS = {
    "pressure": "pressure", "dimension": "bowen_dimension",
    "sigma-curve": "classical_decay_rate", "billiard-orbits": "_cycle_orbits",
    "spectrum": "spectra", "weyl-fit": "spectra",
    "propagate": "damped_propagation_experiment", "husimi-frames": "torus_coherent",
    "trace-check": "hs_trace_experiment",
}


def forbid_experiments(monkeypatch, command):
    """Make every experiment `command` could run raise AssertionError,
    which the CLI does not catch."""
    def no_run(*args, **kwargs):
        raise AssertionError("an experiment ran")

    for name in ("spectra", "damped_propagation_experiment", "torus_coherent",
                 "hs_trace_experiment", "_cycle_orbits", "pressure",
                 EXPERIMENTS[command]):
        monkeypatch.setattr(cli_io, name, no_run)


class TestUnreadConfig:
    """A section or key the command never reads stops it before any
    experiment runs and before any output."""

    @pytest.mark.parametrize("command, config, named", [
        # a typo for depths: the default depths would run silently
        ("pressure", "[pressure]\ndepth = 2,3\nc_jacobian = -0.63\nc_return = 0.0\n",
         "[pressure] depth"),
        ("spectrum", "[quantum]\nN = 27\nn = 81\n", "[quantum] n"),
        ("dimension", "[quantum]\nN = 27\n", "[quantum]"),
        ("spectrum", "[quantum]\nN = 27\nN = 81\n", "[quantum] N given twice"),
        # what the map fixes is derived, never set: d_H is the Bowen root
        # over depths 4-6, sigma_nu its annulus gap exponent, lambda_max
        # log a, the gamma grid ends at gamma_cl, n follows vartheta, the
        # cover depth is default_depth and the escape floor 2 epsilon
        *[("weyl-fit", f"[weyl]\nN_list = 9,27,81\nnu = 0.1\n{key} = {value}\n",
           f"[weyl] {key}") for key, value in
          [("d_h", "0.63"), ("depths", "4,5,6"), ("sigma_nu", "0.1")]],
        ("sigma-curve", "[sigma]\nlambda_max = 1.0\n", "[sigma] lambda_max"),
        ("sigma-curve", "[sigma]\nmax_gamma = 0.2\n", "[sigma] max_gamma"),
        ("trace-check", "[trace]\nlambda_max = 1.0\n", "[trace] lambda_max"),
        ("trace-check", "[trace]\nn = 1\n", "[trace] n"),
        *[(command, f"{quantum}[escape]\n{key} = {value}\n", f"[escape] {key}")
          for command, quantum in [("propagate", "[quantum]\nN = 27\n"), ("trace-check", "")]
          for key, value in [("depth", "3"), ("m_const", "2.0")]],
        # and the Husimi grid is the N x N coherent grid
        ("husimi-frames", "[quantum]\nN = 27\n[husimi]\nK = 27\n", "[husimi] K"),
    ], ids=["unread_key", "unread_case_key", "unread_section", "duplicate_key",
            "weyl_d_h", "weyl_depths", "weyl_sigma_nu", "sigma_lambda_max",
            "sigma_max_gamma", "trace_lambda_max", "trace_n", "propagate_depth",
            "propagate_m_const", "trace_depth", "trace_m_const", "husimi_K"])
    def test_exits_two_without_writing(self, capsys, tmp_path, monkeypatch,
                                       command, config, named):
        forbid_experiments(monkeypatch, command)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, [command, "--config", str(cfgfile),
                                      "--out", str(out_dir), "--format", "all"])
        assert code == 2
        assert err.startswith("ConfigParse") and named in err
        assert out == ""
        assert not out_dir.exists()

    def test_names_every_unread_entry(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n[map]\na = 3\nalpha = 0\n[escape]\n")
        code, _, err = run(capsys, ["dimension", "--config", str(cfgfile)])
        assert code == 2
        assert "not read by dimension: [quantum], [escape], [map] alpha" in err


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# a child interpreter imports the package this one imported
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cli_io.__file__).parents[1])}
# the (command, config) chain of `openmaps chain`, which scripts/reproduce.sh runs
SHIPPED = [(command, config) for command, config, _ in cli_io.CHAIN]

Q27 = "[quantum]\nN = 27\n"
# every value rule: (command, config, the key at fault)
BAD_VALUES = {
    **{f"{section}_rho0_{n}": (command, f"{Q27}[{section}]\nrho0 = {rho0}\n",
                               f"[{section}] rho0")
       for command, section in [("propagate", "propagate"), ("husimi-frames", "husimi")]
       for n, rho0 in [("one", "0.3"), ("three", "0.3,0.1,0.5")]},
    "nu_above_one": ("weyl-fit", "[weyl]\nN_list = 9,27,81\nnu = 1.5\n", "[weyl] nu"),
    "nu_zero": ("weyl-fit", "[weyl]\nN_list = 9,27,81\nnu = 0\n", "[weyl] nu"),
    "n_max_negative": ("propagate", f"{Q27}[propagate]\nn_max = -2\n",
                       "[propagate] n_max"),
    "frames_zero": ("husimi-frames", f"{Q27}[husimi]\nframes = 0\n", "[husimi] frames"),
    "n_points_zero": ("sigma-curve", "[sigma]\nn_points = 0\n", "[sigma] n_points"),
    "propagate_t": ("propagate", f"{Q27}[escape]\nt = -1\n", "[escape] t"),
    "trace_t": ("trace-check", "[escape]\nt = -1\n", "[escape] t"),
    "delta": ("propagate", f"{Q27}[escape]\ndelta = 0.7\n", "[escape] delta"),
    "husimi_N_below_8": ("husimi-frames", "[quantum]\nN = 6\n", "[quantum] N"),
    "pressure_depths": ("pressure", "[pressure]\ndepths = 4\nc_jacobian = -0.63\n"
                        "c_return = 0.0\n", "[pressure] depths"),
    "sigma_depths": ("sigma-curve", "[sigma]\ndepths = 4\n", "[sigma] depths"),
    "dimension_depths": ("dimension", "[dimension]\ndepths = 4\n", "[dimension] depths"),
    "base_one": ("dimension", "[map]\na = 1\n", "[map] a"),
    "alphabet_past_base": ("dimension", "[map]\nalphabet = 0,5\n", "[map] alphabet"),
    "negative_radius": ("billiard-orbits", "[billiard]\nradii = 1,1,-1\n",
                        "[billiard] radii"),
    "orbits_depth_one": ("billiard-orbits", "[orbits]\ndepth = 1\n", "[orbits] depth"),
    # slack < 0 also makes the default vartheta 0: the key at fault is slack
    "slack": ("trace-check", "[trace]\nslack = -1\n", "[trace] slack"),
    "vartheta": ("trace-check", "[trace]\nvartheta = 5.0\n", "[trace] vartheta"),
    "trace_N_repeated": ("trace-check", "[trace]\nN_list = 27,27,81\n", "[trace] N_list"),
    "variant": ("spectrum", f"{Q27}variant = FOO\n", "[quantum] variant"),
    "theta": ("spectrum", f"{Q27}theta = 0.3\n", "[quantum] theta"),
    "weyl_N_repeated": ("weyl-fit", "[weyl]\nN_list = 729,729,2187\nnu = 0.5\n",
                        "[weyl] N_list"),
    "weyl_two_N": ("weyl-fit", "[weyl]\nN_list = 81,243\nnu = 0.5\n", "[weyl] N_list"),
    # NaN and ±inf break every rule, at the one float cast
    "c_jacobian_nan": ("pressure", "[pressure]\nc_jacobian = nan\nc_return = 0.0\n",
                       "[pressure] c_jacobian"),
    "rho0_nan": ("propagate", f"{Q27}[propagate]\nrho0 = nan,0.1\n", "[propagate] rho0"),
    "trace_t_inf": ("trace-check", "[escape]\nt = inf\n", "[escape] t"),
    "propagate_t_inf": ("propagate", f"{Q27}[escape]\nt = inf\n", "[escape] t"),
    "radius_inf": ("billiard-orbits", "[billiard]\nradii = 1,1,inf\n", "[billiard] radii"),
}


class TestBadValues:
    """A value the command cannot use exits 2 naming its key, before any
    experiment runs and before any file is written; an error raised while
    an experiment runs exits 1."""

    @pytest.mark.parametrize("command, config, named", BAD_VALUES.values(),
                             ids=BAD_VALUES)
    def test_exits_two_before_any_experiment(self, capsys, tmp_path, monkeypatch,
                                             command, config, named):
        forbid_experiments(monkeypatch, command)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, [command, "--config", str(cfgfile),
                                      "--out", str(out_dir), "--format", "all"])
        assert code == 2
        assert err.startswith(f"ConfigParse: bad value for {named}: ")
        assert out == ""
        assert not out_dir.exists()

    def test_error_while_experiment_runs_exits_one(self, capsys, tmp_path, monkeypatch):
        def failing(ops):
            raise ValueError("raised by the experiment")

        monkeypatch.setattr(cli_io, "spectra", failing)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(Q27)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, ["spectrum", "--config", str(cfgfile),
                                      "--out", str(out_dir)])
        assert code == 1
        assert err == "ValueError: raised by the experiment\n"
        assert out == ""
        assert not out_dir.exists()

    def test_non_finite_result_exits_one_without_writing(self, capsys, tmp_path,
                                                         monkeypatch):
        # JSON has no text for NaN: the payload is an error, not invalid JSON
        monkeypatch.setattr(cli_io, "bowen_dimension", lambda tables: float("nan"))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, ["dimension", "--out", str(out_dir)])
        assert code == 1
        assert err.startswith("ValueError: Out of range float values")
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, config", SHIPPED,
                             ids=[config for _, config in SHIPPED])
    def test_shipped_configs_reach_their_experiment(self, monkeypatch, command, config):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        assert len(SHIPPED) == 10
        monkeypatch.setattr(cli_io, EXPERIMENTS[command], reached)
        with pytest.raises(Reached):
            main([command, "--config", str(SCRIPTS / "configs" / config)])


def field_levels_by_cells(field):
    """Oracle: the grey level of each cell, [i][j], by the per-cell rule."""
    vmin = float(field.min())
    span = float(field.max()) - vmin or 1.0
    return [[int(round(255 * (1.0 - (v - vmin) / span))) for v in row]
            for row in field.tolist()]


def field_pixels(svg):
    """The one `<image>` of a field SVG: its attributes, and its PNG decoded
    as rows of pixels, top row first, each checked to use filter byte 0."""
    image, = re.findall(r"<image ([^>]*)/>", svg)
    attrs = dict(re.findall(r'([\w-]+)="([^"]*)"', image))
    prefix = "data:image/png;base64,"
    assert attrs["href"].startswith(prefix)
    png = base64.b64decode(attrs.pop("href")[len(prefix):], validate=True)
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        size, = struct.unpack(">I", png[pos:pos + 4])
        body = png[pos + 4:pos + 8 + size]
        assert struct.unpack(">I", png[pos + 8 + size:pos + 12 + size])[0] == zlib.crc32(body)
        chunks.append((body[:4], body[4:]))
        pos += 12 + size
    assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    width, height, *mode = struct.unpack(">IIBBBBB", chunks[0][1])
    assert mode == [8, 0, 0, 0, 0]  # 8-bit greyscale, no interlace
    raw = zlib.decompress(chunks[1][1])
    rows = [raw[r * (width + 1):(r + 1) * (width + 1)] for r in range(height)]
    assert len(raw) == height * (width + 1) and all(row[0] == 0 for row in rows)
    return attrs, [list(row[1:]) for row in rows]


class TestPlotSvg:
    def test_two_point_series_single_polyline(self):
        svg = plot_svg([(0.0, 1.0), (1.0, 2.0)], kind="series")
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg")

    def test_two_by_two_field_one_image(self):
        svg = plot_svg(np.array([[0.0, 1.0], [2.0, 3.0]]), kind="field")
        assert "<rect" not in svg
        attrs, _ = field_pixels(svg)
        assert attrs == {
            "x": str(SVG_MARGIN), "y": str(SVG_MARGIN),
            "width": str(SVG_W - 2 * SVG_MARGIN), "height": str(SVG_H - 2 * SVG_MARGIN),
            "preserveAspectRatio": "none", "style": "image-rendering:pixelated"}

    def test_field_grayscale_limits(self):
        # x from the first index, the second index rising upwards
        _, pixels = field_pixels(plot_svg(np.array([[0.0, 1.0], [2.0, 3.0]]),
                                          kind="field"))
        assert pixels == [[170, 0], [255, 85]]

    def test_field_matches_per_cell_oracle(self):
        # on [0, 1] these values give raw levels of exactly k + 1/2,
        # where round-half-to-even picks k for even k and k + 1 for odd k
        ties = [k for k in range(255)
                if 255 * (1.0 - (1.0 - (k + 0.5) / 255)) == k + 0.5]
        assert {k % 2 for k in ties} == {0, 1}
        values = [0.0, 1.0] + [1.0 - (k + 0.5) / 255 for k in ties]
        rng = np.random.Generator(np.random.Philox(0))
        fields = [np.resize(np.array(values), (9, 21)), rng.random((7, 5)),
                  np.array([[0.0, 1.0], [2.0, 3.0]]), np.full((4, 6), 2.5)]
        for field in fields:
            _, pixels = field_pixels(plot_svg(field, kind="field"))
            levels = field_levels_by_cells(field)
            n1, n2 = field.shape
            assert pixels == [[levels[c][n2 - 1 - r] for c in range(n1)]
                              for r in range(n2)]
        assert field_levels_by_cells(fields[-1]) == [[255] * 6] * 4

    def test_non_finite_field_rejected(self):
        with pytest.raises(ValueError):
            plot_svg(np.array([[0.0, np.nan], [1.0, 2.0]]), kind="field")

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyData):
            plot_svg([], kind="series")
        with pytest.raises(EmptyData):
            plot_svg(np.zeros((0, 0)), kind="field")

    def test_non_2d_field_rejected(self):
        with pytest.raises(ValueError):
            plot_svg(np.array([0.0, 1.0, 2.0]), kind="field")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            plot_svg([(0.0, 1.0), (1.0, 2.0)], kind="histogram")

    def test_byte_determinism(self):
        data = [(math.pi, math.e), (1.0, 2.0), (4.0, -1.0)]
        assert (plot_svg(list(data), kind="series")
                == plot_svg(list(data), kind="series"))

    def test_constant_series_handled(self):
        svg = plot_svg([(0.0, 5.0), (1.0, 5.0)], kind="series")
        assert svg.count("<polyline") == 1


class TestCsv:
    def test_bytes_match_format_oracle(self):
        header = ("name", "i", "x", "y", "z")
        rows = [("a", 0, 0.1, 1e16, 1e-300), ("", -7, -0.0, 5e-324, ""),
                ("b c", 10**20, math.pi, 1.0, 2.5e-8),
                ("", np.int64(3), np.float64(0.1), np.float64(-0.0), 12345.678)]
        line = ",".join(["{}"] * len(header)) + "\n"
        oracle = line.format(*header) + "".join(line.format(*row) for row in rows)
        assert cli_io._csv(header, rows) == oracle
        assert cli_io._csv(header, iter(rows)) == oracle
        assert cli_io._csv(header, []) == "name,i,x,y,z\n"


class TestDimensionCommand:
    def test_default_map_dimension(self, capsys):
        code, out, _ = run(capsys, ["dimension"])
        assert code == 0
        data = json.loads(out)
        assert abs(data["dimension"] - 0.630930) <= 1e-6

    def test_written_payload_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["dimension", "--out", str(tmp_path),
                                    "--format", "json"])
        assert code == 0
        assert (tmp_path / "dimension.json").read_text() == out
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["written"] == ["dimension.json"]
        assert "timestamp" in meta
        assert "threads" not in meta

    def test_metadata_records_stage_times(self, capsys, tmp_path):
        _, alone, _ = run(capsys, ["dimension"])
        code, out, _ = run(capsys, ["dimension", "--out", str(tmp_path),
                                    "--format", "all"])
        assert code == 0 and out == alone
        assert (tmp_path / "dimension.json").read_text() == out
        stage_s = json.loads((tmp_path / "metadata.json").read_text())["stage_s"]
        assert set(stage_s) == {"compute", "write"}
        assert all(type(v) is float and v >= 0.0 for v in stage_s.values())


class TestSigmaCurveCommand:
    def test_midpoint_row_is_exactly_zero(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["sigma-curve", "--out", str(tmp_path),
                                    "--format", "csv"])
        assert code == 0
        gamma_cl = json.loads(out)["gamma_cl"]
        assert gamma_cl == pytest.approx(GAMMA_CL, abs=1e-8)
        rows = (tmp_path / "sigma-curve.csv").read_text().strip().splitlines()
        assert rows[0] == "gamma,sigma"
        hits = [r for r in rows[1:]
                if abs(float(r.split(",")[0]) - gamma_cl / 2) < 1e-15]
        assert hits and all(float(r.split(",")[1]) == 0.0 for r in hits)

    def test_sigma_at_zero_gamma(self, capsys):
        code, out, _ = run(capsys, ["sigma-curve"])
        points = json.loads(out)["points"]
        assert points[0][0] == 0.0
        assert points[0][1] == pytest.approx(0.06151170773809043, abs=1e-12)


    def test_closed_map_exits_one(self, capsys, tmp_path):
        # P(-logJ) is -1.2e-16 at these depths, a round-off of zero
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[map]\na = 3\nalphabet = 0,1,2\n[sigma]\ndepths = 4,5,6\n")
        code, out, err = run(capsys, ["sigma-curve", "--config", str(cfgfile)])
        assert (code, out) == (1, "")
        assert err.startswith("NotOpen: P(-phi_u) = ")

class TestSpectrumCommand:
    def test_indivisible_size_exits_one(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 32\n")
        code, _, err = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 1
        assert "BadDimension" in err

    def test_valid_size_writes_all_formats(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n")
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, ["spectrum", "--config", str(cfgfile),
                                    "--out", str(out_dir), "--format", "all"])
        assert code == 0
        data = json.loads(out)
        assert len(data["eigenvalues"]) == 27
        for suffix in ("json", "csv", "svg"):
            assert (out_dir / f"spectrum.{suffix}").exists()
        csv = (out_dir / "spectrum.csv").read_text()
        assert csv.splitlines()[0] == "re,im,modulus"

    def test_csv_rows_are_the_eigenvalues(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n")
        code, _, _ = run(capsys, ["spectrum", "--config", str(cfgfile),
                                  "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        record, = spectra([build(SPEC32, 27)])
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "re,im,modulus"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert rows == [(z.real, z.imag, abs(z))
                        for z in record.eigenvalues.tolist()]

    def test_payload_carries_schur_certificate(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n")
        code, out, _ = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 0
        data = json.loads(out)
        assert "residual_max" not in data
        assert data["structural_zeros"] == 9
        assert (data["basis"], data["deflated"]) == ("prolate", 0)
        assert 0.0 <= data["backward_error"] <= 1e-12

    def test_payload_reports_parity_blocks(self, capsys, tmp_path):
        # the parity blocks of 81 less their numerically null prolate columns
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 243\n")
        code, out, _ = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 0
        data = json.loads(out)
        assert data["blocks"] == [65, 64]
        assert (data["structural_zeros"], data["deflated"]) == (81, 33)
        assert data["eigenvalues"][-114:] == [[0.0, 0.0]] * 114

    def test_metadata_records_the_eigensolve(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 243\n")
        code, out, _ = run(capsys, ["spectrum", "--config", str(cfgfile),
                                    "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(out)
        assert (tmp_path / "spectrum.json").read_text() == out
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert "threads" not in meta
        assert meta["eigensolves"] == [{
            "N": 243, "backward_error": data["backward_error"],
            "structural_zeros": 81, "deflated": 33, "basis": "prolate",
            "blocks": [65, 64], "reused": False,
            "workers": min(2, pool_size())}]
        assert meta["blas_threads"] == {name: 1 for name in openblas()}

    def test_theta_zero_solves_one_block(self, capsys, tmp_path):
        # the offset-free kernel breaks the parity: one compression
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 243\ntheta = 0.0\n")
        code, out, _ = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 0
        data = json.loads(out)
        assert data["blocks"] == [162]
        assert data["structural_zeros"] == 81
        assert (data["basis"], data["deflated"]) == ("position", 0)

    @pytest.mark.parametrize("command, body", [
        ("spectrum", "[quantum]\nN = 19683\n"),
        ("weyl-fit", "[weyl]\nN_list = 19683\nnu = 0.5\n"),
    ])
    def test_above_dense_cap_exits_one(self, capsys, tmp_path, monkeypatch,
                                       command, body):
        def no_map(*args, **kwargs):
            raise AssertionError("the map ran above the cap")

        monkeypatch.setattr(quantum_baker, "_map_rows", no_map)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(body)
        code, out, err = run(capsys, [command, "--config", str(cfgfile)])
        assert code == 1
        assert out == ""
        assert "DimensionCap" in err

    def test_config_parse_failure_exits_two(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text("no sections here\n")
        code, _, err = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 2
        assert "ConfigParse" in err

    def test_missing_required_key_exits_two(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[map]\na = 3\n")
        code, _, err = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 2
        assert "ConfigParse" in err


class TestPressureCommand:
    def test_zero_at_bowen_root(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            f"[pressure]\nc_jacobian = {-D_H!r}\nc_return = 0.0\n")
        code, out, _ = run(capsys, ["pressure", "--config", str(cfgfile)])
        assert code == 0
        assert abs(json.loads(out)["value"]) < 1e-9

    def test_payload_is_the_estimate(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[pressure]\ndepths = 2,3,4\n"
                           "c_jacobian = -1.0\nc_return = 0.5\n")
        code, out, _ = run(capsys, ["pressure", "--config", str(cfgfile),
                                    "--out", str(tmp_path), "--format", "all"])
        assert code == 0
        est = pressure([cylinder_table(SPEC32, n) for n in (2, 3, 4)],
                       -1.0, 0.5)
        data = json.loads((tmp_path / "pressure.json").read_text())
        assert data == {"coeff_J": -1.0, "coeff_t": 0.5,
                        "per_depth": [[n, p] for n, p in est.per_depth],
                        "value": est.value, "uncertainty": est.uncertainty}
        rows = (tmp_path / "pressure.csv").read_text().splitlines()
        assert rows[0] == "depth,p_n"
        assert [(int(n), float(p)) for n, p in
                (r.split(",") for r in rows[1:])] == list(est.per_depth)


class TestBilliardCommand:
    def test_symmetric_table_rows(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, ["billiard-orbits", "--out", str(out_dir),
                                    "--format", "csv"])
        assert code == 0
        data = json.loads(out)
        assert data["depth"] == 3
        csv = (out_dir / "billiard-orbits.csv").read_text().strip().splitlines()
        assert len(csv) == len(data["orbits"]) + 1

    def test_rows_match_per_word_solves(self, capsys, tmp_path):
        # rows come from one solve per necklace, rotated to each word
        out_dir = tmp_path / "out"
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[orbits]\ndepth = 4\n")
        code, out, _ = run(capsys, ["billiard-orbits", "--config", str(cfgfile),
                                    "--out", str(out_dir), "--format", "csv"])
        assert code == 0
        config = DiskConfig(
            centers=((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))),
            radii=(1.0, 1.0, 1.0))
        rows = (out_dir / "billiard-orbits.csv").read_text().splitlines()[1:]
        assert len(rows) == 18
        for row, (word, logj, t) in zip(rows, json.loads(out)["orbits"]):
            cells = row.split(",")
            assert cells[0] == "".join(map(str, word))
            seg = _solve_orbits(config, np.array([word]))
            gap = np.abs(np.array([float(c) for c in cells[1:5]])
                         - seg.angles[0]) % (2 * math.pi)
            assert np.max(np.minimum(gap, 2 * math.pi - gap)) <= 1e-13
            assert np.allclose([float(c) for c in cells[5:9]], seg.lengths[0],
                               rtol=1e-13, atol=0)
            assert logj == pytest.approx(seg.logJ[0], rel=1e-13)
            assert t == pytest.approx(seg.t_total[0], rel=1e-13)

    def test_rows_are_repr_of_segments(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["billiard-orbits", "--out", str(tmp_path),
                                  "--format", "csv"])
        assert code == 0
        rows = (tmp_path / "billiard-orbits.csv").read_text().splitlines()
        assert rows[0] == ("word,angle_0,angle_1,angle_2,"
                           "length_0,length_1,length_2,logJ,t")
        words, angles, lengths, logj, t, _ = _cycle_orbits(TRI, 3)
        assert rows[1:] == [
            ",".join(["".join(map(str, w)), *map(repr, a), *map(repr, l), repr(lj), repr(tt)])
            for w, a, l, lj, tt in zip(words.tolist(), angles.tolist(), lengths.tolist(),
                                       logj.tolist(), t.tolist())]
        # the t column is the cylinder table's t, bit for bit
        column = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        assert column.tobytes() == disk_billiard.cylinder_table(TRI, 3).t.tobytes()

    @pytest.mark.parametrize("table, config, clearance", [
        ("", TRI, 3.196152422706632),
        ("[billiard]\nradii = 1,1\ncenters = 0,0;6,0\n",
         DiskConfig(((0.0, 0.0), (6.0, 0.0)), (1.0, 1.0)), None),
    ], ids=["tri", "two_disk"])
    def test_metadata_records_the_orbit_certificate(self, capsys, tmp_path, table, config,
                                                    clearance):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(table + "[orbits]\ndepth = 4\n")
        code, _, _ = run(capsys, ["billiard-orbits", "--config", str(cfgfile),
                                  "--out", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())["orbits"]
        # TRI's is 3 sqrt(3) - 2, the apex disk's gap to the base pair's hull;
        # two disks have no third disk to clear
        assert meta == {"hull_clearance_min": clearance,
                        "newton_residual_max": max(_cycle_orbits(config, 4)[5].tolist())}
        assert 0 <= meta["newton_residual_max"] <= 1e-12


class TestPropagateCommand:
    def config(self, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[quantum]\nN = 27\n[escape]\ndelta = 0.4\nt = 1.0\n"
            "[propagate]\nrho0 = 0.1,0.1\nn_max = 3\n")
        return cfgfile

    def test_payload_shape(self, capsys, tmp_path):
        code, out, _ = run(capsys,
                           ["propagate", "--config", str(self.config(tmp_path))])
        assert code == 0
        data = json.loads(out)
        assert data["w"][0] == 1.0
        assert len(data["w"]) == 4

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfgfile = self.config(tmp_path)
        dirs = [tmp_path / "a", tmp_path / "b"]
        outs = []
        for d in dirs:
            code, out, _ = run(capsys, ["propagate", "--config", str(cfgfile),
                                        "--out", str(d), "--format", "all"])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        meta = json.loads((dirs[0] / "metadata.json").read_text())
        assert "seed" not in meta
        for name in ("propagate.json", "propagate.csv", "propagate.svg"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_payload_is_the_history(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["propagate", "--config",
                                    str(self.config(tmp_path)),
                                    "--out", str(tmp_path), "--format", "all"])
        assert code == 0
        params = EscapeParams(h=1.0 / (2.0 * math.pi * 27), delta=0.4, t=1.0)
        w = damped_propagation_experiment(SPEC32, 27, (0.1, 0.1), params, 3)
        assert json.loads(out) == {
            "N": 27, "a": 3, "alphabet": [0, 2], "rho0": [0.1, 0.1],
            "t": 1.0, "delta": 0.4, "n": [0, 1, 2, 3], "w": w.tolist()}
        rows = (tmp_path / "propagate.csv").read_text().splitlines()
        assert rows == ["n,w"] + [f"{n},{v!r}" for n, v in enumerate(w.tolist())]

    @pytest.mark.parametrize("N, where", [(27, "w_1"), (81, "e^(-t*lo)")])
    def test_overflow_exits_one(self, capsys, tmp_path, N, where):
        # e^{-tG} leaves the float range at this t: one line on stderr
        # naming t, lo and N, no traceback
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(self.config(tmp_path).read_text().replace(
            "N = 27", f"N = {N}").replace("t = 1.0", "t = 1000"))
        code, out, err = run(capsys, ["propagate", "--config", str(cfgfile)])
        assert (code, out) == (1, "")
        assert re.fullmatch(rf"DampingOverflow: {re.escape(where)} is beyond the float "
                            rf"range at t=1000\.0, lo=-0\.\d+, N={N}\n", err)


def written(field):
    """A Husimi frame as its CSV holds it: 0.0 below N eps^2 of its maximum."""
    return np.where(field < field.shape[0] * EPS2 * field.max(), 0.0, field)


def husimi_longdouble(state):
    """The Husimi field of the windowed rows `husimi` transforms, by a
    DFT in long double (twiddles, products and sums): no FFT round-off."""
    N = state.N
    rows = np.conj(state.amps) * _windows(_gauss_window(N), np.arange(N)[:, None])
    k = np.arange(N)
    angle = 8 * np.arctan(np.longdouble(1)) * ((k[:, None] * k) % N) / N
    dft = rows.astype(np.clongdouble) @ (np.cos(angle) + 1j * np.sin(angle))
    return N * np.abs(dft) ** 2


class TestHusimiFramesCommand:
    def test_frames_and_masses(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n[husimi]\nframes = 2\n")
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                    "--out", str(out_dir), "--format", "all"])
        assert code == 0
        data = json.loads(out)
        assert len(data["masses"]) == 2
        assert data["masses"][1] < data["masses"][0]
        assert (out_dir / "husimi_000.csv").exists()
        assert (out_dir / "husimi_001.svg").exists()

    def test_each_frame_rendered_once(self, capsys, tmp_path, monkeypatch):
        rendered = []
        real = cli_io.plot_svg

        def counting(data, kind=None, **kwargs):
            rendered.append(kind)
            return real(data, kind=kind, **kwargs)

        monkeypatch.setattr(cli_io, "plot_svg", counting)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n[husimi]\nframes = 3\n")
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                    "--out", str(out_dir), "--format", "all"])
        assert code == 0
        assert rendered == ["series"] + ["field"] * 3
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "husimi-frames.csv", "husimi-frames.json", "husimi-frames.svg",
            "husimi_000.csv", "husimi_000.svg", "husimi_001.csv",
            "husimi_001.svg", "husimi_002.csv", "husimi_002.svg",
            "metadata.json"]
        masses = json.loads(out)["masses"]
        assert (out_dir / "husimi-frames.csv").read_text() == cli_io._csv(
            ("frame", "mass"), enumerate(masses))

    def test_frame_csvs_are_the_fields(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n[husimi]\nframes = 2\nrho0 = 0.25,0.1\n")
        code, _, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                  "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        state = torus_coherent(27, (0.25, 0.1))
        for i in range(2):
            lines = (tmp_path / f"husimi_{i:03d}.csv").read_text().splitlines()
            assert lines[0].split(",") == ["x_index"] + [f"xi_{j}" for j in range(27)]
            assert [int(line.split(",", 1)[0]) for line in lines[1:]] == list(range(27))
            back = np.array([[float(v) for v in line.split(",")[1:]]
                             for line in lines[1:]])
            assert np.array_equal(back, written(husimi(state)))
            state = apply(build(SPEC32, 27), state)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    def test_frame_floor_against_long_double_oracle(self, capsys, tmp_path):
        # husimi.ini's first two frames, N = 243: an entry written is within
        # 5 % of the long-double field (the worst, 3.0 %, sits just above the
        # floor), and one written as 0.0 is below 2 N eps^2 of the maximum
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 243\n[husimi]\nframes = 2\nrho0 = 0.25,0.1\n")
        code, _, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                  "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        state = torus_coherent(243, (0.25, 0.1))
        for i in range(2):
            lines = (tmp_path / f"husimi_{i:03d}.csv").read_text().splitlines()[1:]
            back = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
            oracle = husimi_longdouble(state)
            kept = back != 0.0
            assert 0 < np.count_nonzero(~kept) < back.size
            assert np.all(np.abs(back[kept] - oracle[kept]) <= 5e-2 * oracle[kept])
            assert np.all(oracle[~kept] < 2 * 243 * EPS2 * oracle.max())
            state = apply(build(SPEC32, 243), state)

    def test_frame_files_match_per_cell_writers(self, capsys, tmp_path,
                                                 monkeypatch):
        # every frame's files are the generic CSV writer on its grid and
        # the field SVG, whose pixels are the per-cell grey levels
        fields = []
        real_husimi = cli_io.husimi

        def keeping(state):
            fields.append(real_husimi(state))
            return fields[-1]

        monkeypatch.setattr(cli_io, "husimi", keeping)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n[husimi]\nframes = 3\n")
        code, _, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                  "--out", str(tmp_path), "--format", "all"])
        assert code == 0
        assert len(fields) == 3
        header = ("x_index", *(f"xi_{j}" for j in range(27)))
        for i, field in enumerate(fields):
            csv = cli_io._csv(header, [(x, *row) for x, row
                                       in enumerate(written(field).tolist())])
            assert (tmp_path / f"husimi_{i:03d}.csv").read_text() == csv
            svg = (tmp_path / f"husimi_{i:03d}.svg").read_text()
            assert svg == plot_svg(field, kind="field")
            levels = field_levels_by_cells(field)
            _, pixels = field_pixels(svg)
            assert pixels == [[levels[c][26 - r] for c in range(27)] for r in range(27)]

    def test_map_applied_once_per_step(self, capsys, tmp_path, monkeypatch):
        # three frames take two steps; the files are those of the frames
        # each step's state gives
        steps = []
        monkeypatch.setattr(cli_io, "apply",
                            lambda op, state: steps.append(1) or apply(op, state))
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n[husimi]\nframes = 3\nrho0 = 0.25,0.1\n")
        code, out, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                    "--out", str(tmp_path), "--format", "all"])
        assert code == 0
        assert len(steps) == 2
        state, fields = torus_coherent(27, (0.25, 0.1)), []
        for _ in range(3):
            fields.append(husimi(state))
            state = apply(build(SPEC32, 27), state)
        masses = list(map(husimi_mass, fields))
        assert out == cli_io._json({"N": 27, "K": 27, "frames": 3, "masses": masses}) + "\n"
        assert (tmp_path / "husimi-frames.json").read_text() == out
        header = ("x_index", *(f"xi_{j}" for j in range(27)))
        for i, field in enumerate(fields):
            assert (tmp_path / f"husimi_{i:03d}.csv").read_text() == cli_io._csv(
                header, [(x, *row) for x, row in enumerate(written(field).tolist())])
            assert (tmp_path / f"husimi_{i:03d}.svg").read_text() == plot_svg(
                field, kind="field")

    @pytest.mark.parametrize("fmt", ["json", "csv", "svg", "all"])
    def test_metadata_lists_every_file(self, capsys, tmp_path, fmt):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n[husimi]\nframes = 2\n")
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                  "--out", str(out_dir), "--format", fmt])
        assert code == 0
        written = json.loads((out_dir / "metadata.json").read_text())["written"]
        on_disk = sorted(p.name for p in out_dir.iterdir())
        assert sorted(written) == [n for n in on_disk if n != "metadata.json"]
        files = {f"{stem}.{ext}" for stem in ("husimi-frames", "husimi_000", "husimi_001")
                 for ext in ("csv", "svg")} | {"husimi-frames.json"}
        wanted = {"json", "csv", "svg"} if fmt == "all" else {fmt}
        assert set(written) == {n for n in files if n.rsplit(".", 1)[1] in wanted}


class TestTraceCheckCommand:
    def test_default_window_gives_identity_traces(self, capsys):
        code, out, _ = run(capsys, ["trace-check"])
        assert code == 0
        data = json.loads(out)
        for entry in data["entries"]:
            assert entry["n"] == 0
            assert entry["trace_direct"] == pytest.approx(entry["N"],
                                                          abs=1e-8)

    def test_grid_of_a_points_exits_0(self, capsys, tmp_path):
        # at N = a the damping G is zero: split_G is 0.0, and the JSON finite
        (tmp_path / "c.ini").write_text("[trace]\nN_list = 3,9\n")
        code, out, err = run(capsys, ["trace-check", "--config", str(tmp_path / "c.ini")])
        assert (code, err) == (0, "")
        entries = json.loads(out, parse_constant=pytest.fail)["entries"]
        assert [e["N"] for e in entries] == [3, 9] and entries[0]["split_G"] == 0.0

    @pytest.mark.parametrize("slack", [0.0, 0.5])
    def test_default_vartheta_is_the_window_cap(self, capsys, tmp_path, slack):
        # (1 + slack)/(6 log a), the largest vartheta ExperimentParams allows
        (tmp_path / "c.ini").write_text(f"[trace]\nN_list = 27\nslack = {slack}\n")
        code, out, _ = run(capsys, ["trace-check", "--config", str(tmp_path / "c.ini")])
        assert code == 0
        vartheta = json.loads(out)["vartheta"]
        assert vartheta == pytest.approx((1.0 + slack) / (6.0 * math.log(3)), rel=1e-15)
        ExperimentParams(vartheta=vartheta, lambda_max=math.log(3), slack=slack)
        with pytest.raises(ValueError):
            ExperimentParams(vartheta=vartheta * 1.001, lambda_max=math.log(3), slack=slack)

    @pytest.mark.parametrize("config, exponent, stderr", [
        ("[trace]\nN_list = 27\n", False, False),
        # the default N_list = 27,81: a line through two points is exact
        (None, True, False),
        ("[trace]\nN_list = 9,27,81\n", True, True),
    ], ids=["one_size", "two_sizes", "three_sizes"])
    def test_fit_reports_only_what_its_sizes_determine(self, capsys, tmp_path,
                                                        config, exponent, stderr):
        argv = ["trace-check"]
        if config is not None:
            (tmp_path / "c.ini").write_text(config)
            argv += ["--config", str(tmp_path / "c.ini")]
        code, out, _ = run(capsys, argv)
        assert code == 0

        def refuse(name):
            raise ValueError(f"payload holds a bare {name}, which is not JSON")

        data = json.loads(out, parse_constant=refuse)
        assert (data["exponent"] is not None) == exponent
        assert (data["stderr"] is not None) == stderr
        for value in (data["exponent"], data["stderr"]):
            assert value is None or math.isfinite(value)

    def test_weyl_fit_runs(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[weyl]\nN_list = 9,27,81\nnu = 0.1\n")
        code, out, _ = run(capsys, ["weyl-fit", "--config", str(cfgfile)])
        assert code == 0
        data = json.loads(out)
        assert len(data["fit"]["points"]) == 3
        assert "bounded" in data["report"]

    def test_weyl_fit_payload_is_the_fit(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[weyl]\nN_list = 9,27,81\nnu = 0.1\n")
        code, out, _ = run(capsys, ["weyl-fit", "--config", str(cfgfile),
                                    "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        fit = weyl_exponent(spectra([build(SPEC32, n) for n in (9, 27, 81)]), 0.1)
        assert json.loads(out)["fit"] == {
            "nu": 0.1, "points": [list(p) for p in fit.points],
            "slope": fit.slope, "stderr": fit.stderr}
        rows = (tmp_path / "weyl-fit.csv").read_text().splitlines()
        assert rows == ["N,count"] + [f"{n},{c}" for n, c in fit.points]

    def test_weyl_fit_metadata_records_each_eigensolve(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[weyl]\nN_list = 9,27,81\nnu = 0.1\n")
        code, _, _ = run(capsys, ["weyl-fit", "--config", str(cfgfile),
                                  "--out", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        records = spectra([build(SPEC32, n) for n in (9, 27, 81)])
        assert meta["eigensolves"] == [
            {"N": r.N, "backward_error": r.backward_error,
             "structural_zeros": r.structural_zeros, "deflated": r.deflated,
             "basis": "prolate", "blocks": list(r.blocks), "reused": False,
             "workers": min(6, pool_size())}
            for r in records]
        assert meta["blas_threads"] == {name: 1 for name in openblas()}
        assert [e["blocks"] for e in meta["eigensolves"]] == [[3, 3], [9, 9], [26, 25]]
        assert [e["deflated"] for e in meta["eigensolves"]] == [0, 0, 3]
        # the count certificate: how near the cut the nearest modulus lies
        gaps = [[r.N, float(np.min(np.abs(np.abs(r.eigenvalues) - 0.1)))] for r in records]
        assert meta["nu_gap"] == gaps
        assert all(gap > 1e-3 for _, gap in gaps)


    def test_weyl_fit_exponent_is_the_bowen_root_less_the_gap(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[weyl]\nN_list = 9,27,81\nnu = 0.1\n")
        code, out, _ = run(capsys, ["weyl-fit", "--config", str(cfgfile)])
        assert code == 0
        d_h = bowen_dimension([cylinder_table(SPEC32, n) for n in (4, 5, 6)])
        assert json.loads(out)["report"]["exponent"] == (
            d_h - annulus_gap_exponent(0.1, d_h, math.log(3)))

    @pytest.mark.parametrize("config, counts", [
        ("weyl.ini", [27, 60, 127, 271]), ("weyl_high_cut.ini", [3, 3, 3, 3]),
    ])
    def test_shipped_weyl_counts(self, capsys, tmp_path, config, counts):
        code, out, _ = run(capsys, ["weyl-fit", "--config", str(SCRIPTS / "configs" / config),
                                    "--out", str(tmp_path)])
        assert code == 0
        assert json.loads(out)["fit"]["points"] == [
            [n, c] for n, c in zip((81, 243, 729, 2187), counts)]
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert [e["blocks"] for e in meta["eigensolves"]] == [
            [26, 25], [65, 64], [176, 176], [504, 503]]
        assert all(e["basis"] == "prolate" and e["backward_error"] <= 1e-12
                   for e in meta["eigensolves"])
        assert all(gap > 1e-6 for _, gap in meta["nu_gap"])


# (command, config) for a quick run of every command
QUICK_RUNS = [
    ("pressure", "[pressure]\nc_jacobian = -0.63\nc_return = 0.0\n"),
    ("dimension", ""),
    ("sigma-curve", ""),
    ("billiard-orbits", ""),
    ("spectrum", "[quantum]\nN = 27\n"),
    ("weyl-fit", "[weyl]\nN_list = 9,27,81\nnu = 0.1\n"),
    ("propagate", "[quantum]\nN = 27\n[propagate]\nn_max = 3\n"),
    ("husimi-frames", "[quantum]\nN = 27\n[husimi]\nframes = 2\n"),
    ("trace-check", ""),
]


class TestSvgRendering:
    """SVGs are rendered only when written, with unchanged bytes."""

    @pytest.fixture
    def rendered(self, monkeypatch):
        kinds = []
        real = cli_io.plot_svg

        def counting(data, kind=None, **kwargs):
            kinds.append(kind)
            return real(data, kind=kind, **kwargs)

        monkeypatch.setattr(cli_io, "plot_svg", counting)
        return kinds

    @pytest.mark.parametrize("command, config", QUICK_RUNS,
                             ids=[c for c, _ in QUICK_RUNS])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_not_rendered_unless_written(self, capsys, tmp_path, rendered,
                                         command, config, fmt):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, [command, "--config", str(cfgfile),
                                  "--out", str(out_dir), "--format", fmt])
        assert code == 0
        assert rendered == []
        assert not list(out_dir.glob("*.svg"))

    @pytest.mark.parametrize("command, config", QUICK_RUNS,
                             ids=[c for c, _ in QUICK_RUNS])
    def test_svg_alone_matches_all_formats(self, capsys, tmp_path, command,
                                           config):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        for fmt in ("svg", "all"):
            code, _, _ = run(capsys, [command, "--config", str(cfgfile),
                                      "--out", str(tmp_path / fmt),
                                      "--format", fmt])
            assert code == 0
        svgs = sorted(p.name for p in (tmp_path / "svg").glob("*.svg"))
        assert svgs == sorted(p.name for p in (tmp_path / "all").glob("*.svg"))
        for name in svgs:
            assert ((tmp_path / "svg" / name).read_bytes()
                    == (tmp_path / "all" / name).read_bytes())

    @pytest.mark.parametrize("command, config, files", [
        # the two-disk table has no cycle of odd length
        ("billiard-orbits",
         "[billiard]\nradii = 1,1\ncenters = 0,0;6,0\n[orbits]\ndepth = 3\n",
         ["billiard-orbits.csv", "billiard-orbits.json", "metadata.json"]),
    ], ids=["two_disk_odd_depth"])
    def test_empty_series_leaves_no_partial_output(self, capsys, tmp_path, command,
                                                   config, files):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        out_dir = tmp_path / "out"
        got, _, _ = run(capsys, [command, "--config", str(cfgfile),
                                 "--out", str(out_dir), "--format", "all"])
        assert got == 0
        assert sorted(p.name for p in out_dir.iterdir()) == files
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert sorted(meta["written"] + ["metadata.json"]) == files


def blas_counts():
    return {name: get() for name, (get, _) in openblas().items()}


class TestBlasThreads:
    """Every command reads, runs and writes with each OpenBLAS on one
    thread, and leaves the counts as it found them."""

    @pytest.mark.parametrize("command, config", QUICK_RUNS,
                             ids=[c for c, _ in QUICK_RUNS])
    def test_metadata_records_one_thread(self, capsys, tmp_path, command, config):
        before = blas_counts()
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        code, _, _ = run(capsys, [command, "--config", str(cfgfile),
                                  "--out", str(tmp_path / "out")])
        assert code == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["blas_threads"] == {name: 1 for name in openblas()}
        assert blas_counts() == before

    def test_counts_restored_after_an_error(self, capsys, tmp_path):
        before = blas_counts()
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 28\n")
        code, _, _ = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 1
        assert blas_counts() == before

    @pytest.mark.parametrize("command, config", [
        # one sector: its lone eigensolve ran at the process default before
        ("spectrum", "[map]\nalphabet = 0,1\n[quantum]\nN = 243\n"),
        ("trace-check", "[trace]\nN_list = 27,81,243\n"),
    ], ids=["spectrum-3-01", "trace-check"])
    def test_payload_bytes_independent_of_the_default(self, capsys, tmp_path,
                                                       command, config):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        for default in (1, 2):
            old = {name: set_local(default) for name, (_, set_local) in openblas().items()}
            try:
                code, _, _ = run(capsys, [command, "--config", str(cfgfile),
                                          "--out", str(tmp_path / str(default)),
                                          "--format", "all"])
            finally:
                for name, count in old.items():
                    openblas()[name][1](count)
            assert code == 0
        names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.name != "metadata.json")
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir()
                               if p.name != "metadata.json")
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_fresh_process_bytes_independent_of_the_default(self, tmp_path):
        # a new process lists every OpenBLAS before it imports scipy
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[map]\nalphabet = 0,1\n[quantum]\nN = 243\n")
        for default in ("1", "2"):
            subprocess.run([sys.executable, "-m", "openmaps", "spectrum", "--config",
                            str(cfgfile), "--out", str(tmp_path / default)],
                           env={**CHILD_ENV, "OPENBLAS_NUM_THREADS": default},
                           capture_output=True, timeout=120, check=True)
            meta = json.loads((tmp_path / default / "metadata.json").read_text())
            assert meta["blas_threads"] == {name: 1 for name in openblas()}
        assert ((tmp_path / "1" / "spectrum.json").read_bytes()
                == (tmp_path / "2" / "spectrum.json").read_bytes())


def chain_files(root):
    """{path under root: bytes} of every file a chain wrote but metadata.json."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "metadata.json"}


def assert_same_files(files, expected):
    assert sorted(files) == sorted(expected)
    assert [name for name in files if files[name] != expected[name]] == []


@pytest.fixture(scope="module")
def forward_chain(tmp_path_factory):
    """The files of one in-process `openmaps chain` in its shipped order."""
    out = tmp_path_factory.mktemp("forward")
    assert main(["chain", "--out", str(out)]) == 0
    return chain_files(out)


class TestChain:
    """`openmaps chain` runs the commands of `CHAIN` in one interpreter:
    no state one command leaves (a cache, a BLAS thread count) may change
    the bytes of another."""

    def test_same_bytes_as_one_process_per_command(self, forward_chain, tmp_path):
        assert {path.split(os.sep)[0] for path in forward_chain} == {
            sub for _, _, sub in cli_io.CHAIN}
        for command, config, sub in cli_io.CHAIN:
            subprocess.run([sys.executable, "-m", "openmaps", command, "--config",
                            str(SCRIPTS / "configs" / config), "--out", str(tmp_path / sub),
                            "--format", "all"], capture_output=True, timeout=120, check=True,
                           env=CHILD_ENV)
        assert_same_files(chain_files(tmp_path), forward_chain)

    def test_same_bytes_in_reverse_order(self, forward_chain, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_io, "CHAIN", cli_io.CHAIN[::-1])
        assert main(["chain", "--out", str(tmp_path)]) == 0
        assert_same_files(chain_files(tmp_path), forward_chain)

    def test_first_failure_stops_the_chain(self, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "bad.ini"
        bad.write_text("[dimension]\ndepths = 4,4,5\n")
        first, (command, _, sub), *rest = cli_io.CHAIN
        # an absolute config path replaces the configs directory it is joined to
        monkeypatch.setattr(cli_io, "CHAIN", (first, (command, str(bad), sub), *rest))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, ["chain", "--out", str(out_dir)])
        assert code == 2
        assert err.startswith("ConfigParse: bad value for [dimension] depths")
        assert [line for line in out.splitlines() if line.startswith("== ")] == [
            f"== {first[0]} ({first[1]})", f"== {command} ({bad})"]
        assert "chain:" not in out
        assert [p.name for p in out_dir.iterdir()] == [first[2]]
        assert sorted(p.name for p in (out_dir / first[2]).iterdir()) == [
            "metadata.json", "pressure.csv", "pressure.json", "pressure.svg"]

    def test_overflow_stops_the_chain(self, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "bad.ini"
        bad.write_text((SCRIPTS / "configs" / "propagate.ini").read_text().replace(
            "t = 1.0", "t = 1000"))
        monkeypatch.setattr(cli_io, "CHAIN", (("propagate", str(bad), "propagate"),
                                              *cli_io.CHAIN[:1]))
        code, out, err = run(capsys, ["chain", "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("DampingOverflow: e^(-t*lo) is beyond the float range")
        assert err.endswith(", N=729\n") and err.count("\n") == 1
        assert [line for line in out.splitlines() if line.startswith("== ")] == [
            f"== propagate ({bad})"]

    def test_benchmark_runs_the_shipped_chain(self):
        from perfbench.workloads import REPRODUCE

        assert cli_io.CHAIN == REPRODUCE


def counted_solves(monkeypatch):
    """The sizes of the blocks `spectral_counting._solve` solves from now on."""
    sizes, solve = [], spectral_counting._solve

    def counted(A):
        sizes.append(A.shape[0])
        return solve(A)

    monkeypatch.setattr(spectral_counting, "_solve", counted)
    return sizes


class TestReusedSpectra:
    """`spectrum` and `weyl-fit` take the records of the previous such
    command unsolved when they ask for exactly its maps, and say so in
    metadata.json; any other list of maps is solved."""

    def weyl(self, capsys, config, out):
        code, _, _ = run(capsys, ["weyl-fit", "--config", str(SCRIPTS / "configs" / config),
                                  "--out", str(out), "--format", "all"])
        assert code == 0
        return json.loads((out / "metadata.json").read_text())["eigensolves"]

    def test_high_cut_right_after_weyl_solves_nothing(self, capsys, tmp_path,
                                                      monkeypatch):
        solves = counted_solves(monkeypatch)
        first = self.weyl(capsys, "weyl.ini", tmp_path / "weyl_nu_05")
        assert len(solves) == 8  # two parity blocks per N
        second = self.weyl(capsys, "weyl_high_cut.ini", tmp_path / "weyl_nu_09")
        assert len(solves) == 8
        assert [e.pop("reused") for e in first] == [False] * 4
        assert [e.pop("reused") for e in second] == [True] * 4
        assert second == first  # the certificates the solves computed
        fresh = tmp_path / "fresh"
        subprocess.run([sys.executable, "-m", "openmaps", "weyl-fit", "--config",
                        str(SCRIPTS / "configs" / "weyl_high_cut.ini"), "--out", str(fresh),
                        "--format", "all"], capture_output=True, timeout=120, check=True,
                       env=CHILD_ENV)
        assert_same_files(chain_files(fresh), chain_files(tmp_path / "weyl_nu_09"))
        meta = json.loads((fresh / "metadata.json").read_text())
        assert [e["reused"] for e in meta["eigensolves"]] == [False] * 4

    def test_spectrum_between_the_fits_solves_both(self, forward_chain, tmp_path,
                                                   monkeypatch):
        chain = [entry for entry in cli_io.CHAIN if entry[0] != "spectrum"]
        at = [entry[0] for entry in chain].index("weyl-fit") + 1
        chain.insert(at, *[entry for entry in cli_io.CHAIN if entry[0] == "spectrum"])
        monkeypatch.setattr(cli_io, "CHAIN", tuple(chain))
        solves = counted_solves(monkeypatch)
        assert main(["chain", "--out", str(tmp_path)]) == 0
        assert_same_files(chain_files(tmp_path), forward_chain)
        assert sorted(solves) == sorted([65, 64] + 2 * [26, 25, 65, 64, 176, 176, 504, 503])
        for sub in ("spectrum", "weyl_nu_05", "weyl_nu_09"):
            meta = json.loads((tmp_path / sub / "metadata.json").read_text())
            assert {e["reused"] for e in meta["eigensolves"]} == {False}

    @pytest.mark.parametrize("change", ["theta = 0.0", "variant = WALSH",
                                        "[map]\nalphabet = 0,1"],
                             ids=["theta", "variant", "alphabet"])
    def test_the_same_sizes_of_another_map_are_solved(self, capsys, tmp_path, change):
        # the key is the whole map, not its N: any other field solves again
        cfgfile = tmp_path / "c.ini"
        reused = []
        for body in (Q27, Q27, f"{Q27}{change}\n", Q27):
            cfgfile.write_text(body)
            assert run(capsys, ["spectrum", "--config", str(cfgfile),
                                "--out", str(tmp_path)])[0] == 0
            meta = json.loads((tmp_path / "metadata.json").read_text())
            reused += [e["reused"] for e in meta["eigensolves"]]
        assert reused == [False, True, False, False]

    def test_a_raising_solve_leaves_nothing_to_reuse(self, capsys, tmp_path,
                                                     monkeypatch):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[weyl]\nN_list = 9,27,81\nnu = 0.1\n")
        argv = ["weyl-fit", "--config", str(cfgfile), "--out", str(tmp_path / "out")]

        def no_convergence(A):
            raise NoConvergence("zgees failed with info=1")

        monkeypatch.setattr(spectral_counting, "_solve", no_convergence)
        code, _, err = run(capsys, argv)
        assert (code, err) == (1, "NoConvergence: zgees failed with info=1\n")
        monkeypatch.undo()
        solves = counted_solves(monkeypatch)
        assert run(capsys, argv)[0] == 0
        assert sorted(solves) == [3, 3, 9, 9, 25, 26]
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert [e["reused"] for e in meta["eigensolves"]] == [False] * 3


class TestParser:
    def test_built_once_per_process(self):
        assert cli_io.make_parser() is cli_io.make_parser()

    @pytest.mark.parametrize("argv", [[], ["no-such-command"],
                                      ["spectrum", "--format", "xml"]],
                             ids=["none", "unknown", "bad_choice"])
    def test_parse_error_exits_two_and_the_parser_still_parses(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "usage: openmaps" in capsys.readouterr().err
        code, out, _ = run(capsys, ["dimension"])
        assert code == 0 and json.loads(out)["depths"] == [4, 5, 6]
