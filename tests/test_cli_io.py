"""Command-line front end: config parsing, payload determinism, SVG."""

import json
import math

import numpy as np
import pytest

from openmaps import cli_io, disk_billiard, quantum_baker
from openmaps.baker_classical import BakerSpec, cylinder_table
from openmaps.cli_io import SVG_H, SVG_MARGIN, SVG_W, main, parse_config, plot_svg
from openmaps.disk_billiard import DiskConfig, _cycle_orbits, _solve_orbits
from openmaps.errors import ConfigParse, EmptyData
from openmaps.phase_space import (
    EscapeParams,
    damped_propagation_experiment,
    husimi,
    torus_coherent,
)
from openmaps.quantum_baker import apply, build, parity_blocks
from openmaps.spectral_counting import annulus_gap_exponent, block_eigenvalues, weyl_exponent
from openmaps.symbolic_pressure import bowen_dimension, pressure
from openmaps.threads import openblas, pool_size

GAMMA_CL = 0.3690702464285426
D_H = 0.6309297535714574
SPEC32 = BakerSpec(3, (0, 2))
TRI = DiskConfig(centers=((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))),
                 radii=(1.0, 1.0, 1.0))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestUnreadConfig:
    """A section or key the command never reads stops it before any output."""

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
    ], ids=["unread_key", "unread_case_key", "unread_section", "duplicate_key",
            "weyl_d_h", "weyl_depths", "weyl_sigma_nu", "sigma_lambda_max",
            "sigma_max_gamma", "trace_lambda_max", "trace_n", "propagate_depth",
            "propagate_m_const", "trace_depth", "trace_m_const"])
    def test_exits_two_without_writing(self, capsys, tmp_path, command, config, named):
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


class TestBadValues:
    """A value the command cannot use exits 2 naming its key, before any
    experiment runs and before any file is written."""

    @pytest.mark.parametrize("command, config, named", [
        *[(command, f"[quantum]\nN = 27\n[{section}]\nrho0 = {rho0}\n", f"[{section}] rho0")
          for command, section in [("propagate", "propagate"), ("husimi-frames", "husimi")]
          for rho0 in ("0.3", "0.3,0.1,0.5")],
        *[("weyl-fit", f"[weyl]\nN_list = 9,27,81\nnu = {nu}\n", "[weyl] nu")
          for nu in ("1.5", "0")],
        ("propagate", "[quantum]\nN = 27\n[propagate]\nn_max = -2\n", "[propagate] n_max"),
        ("husimi-frames", "[quantum]\nN = 27\n[husimi]\nframes = 0\n", "[husimi] frames"),
    ], ids=["propagate_rho0_one", "propagate_rho0_three", "husimi_rho0_one",
            "husimi_rho0_three", "nu_above_one", "nu_zero", "n_max_negative",
            "frames_zero"])
    def test_exits_two_before_any_experiment(self, capsys, tmp_path, monkeypatch,
                                             command, config, named):
        def no_run(*args, **kwargs):
            raise AssertionError("an experiment ran")

        for name in ("spectra", "damped_propagation_experiment", "torus_coherent"):
            monkeypatch.setattr(cli_io, name, no_run)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, [command, "--config", str(cfgfile),
                                      "--out", str(out_dir), "--format", "all"])
        assert code == 2
        assert err.startswith("ConfigParse") and f"bad value for {named}" in err
        assert out == ""
        assert not out_dir.exists()


def field_svg_by_cells(field):
    """Oracle: the field SVG formatted cell by cell, four floats each."""
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" '
             f'height="{SVG_H}" viewBox="0 0 {SVG_W} {SVG_H}">']
    vmin = float(field.min())
    span = float(field.max()) - vmin or 1.0
    n1, n2 = field.shape
    cw = (SVG_W - 2 * SVG_MARGIN) / n1
    ch = (SVG_H - 2 * SVG_MARGIN) / n2
    for i in range(n1):
        for j in range(n2):
            level = int(round(255 * (1.0 - (field[i, j] - vmin) / span)))
            x = SVG_MARGIN + i * cw
            y = SVG_H - SVG_MARGIN - (j + 1) * ch
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" '
                f'height="{ch:.2f}" fill="rgb({level},{level},{level})"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class TestPlotSvg:
    def test_two_point_series_single_polyline(self):
        svg = plot_svg([(0.0, 1.0), (1.0, 2.0)], kind="series")
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg")

    def test_two_by_two_field_four_rects(self):
        svg = plot_svg(np.array([[0.0, 1.0], [2.0, 3.0]]), kind="field")
        assert svg.count("<rect") == 4

    def test_field_grayscale_limits(self):
        svg = plot_svg(np.array([[0.0, 1.0], [2.0, 3.0]]), kind="field")
        assert "rgb(255,255,255)" in svg  # smallest value
        assert "rgb(0,0,0)" in svg        # largest value

    def test_field_matches_per_cell_oracle(self):
        # on [0, 1] these values give raw levels of exactly k + 1/2,
        # where round-half-to-even picks k for even k and k + 1 for odd k
        ties = [k for k in range(255)
                if 255 * (1.0 - (1.0 - (k + 0.5) / 255)) == k + 0.5]
        assert {k % 2 for k in ties} == {0, 1}
        values = [0.0, 1.0] + [1.0 - (k + 0.5) / 255 for k in ties]
        field = np.resize(np.array(values), (9, 21))
        assert plot_svg(field, kind="field") == field_svg_by_cells(field)
        rng = np.random.Generator(np.random.Philox(0))
        field = rng.random((7, 5))
        assert plot_svg(field, kind="field") == field_svg_by_cells(field)

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
        record = block_eigenvalues(27, *parity_blocks(build(SPEC32, 27)))
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
        assert 0.0 <= data["backward_error"] <= 1e-12

    def test_payload_reports_parity_blocks(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 243\n")
        code, out, _ = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 0
        assert json.loads(out)["blocks"] == [81, 81]

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
            "structural_zeros": 81, "blocks": [81, 81],
            "workers": min(2, pool_size()) if openblas() else 1,
            "blas_threads": {name: 1 for name in openblas()}}]

    def test_theta_zero_solves_one_block(self, capsys, tmp_path):
        # the offset-free kernel breaks the parity: one compression
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 243\ntheta = 0.0\n")
        code, out, _ = run(capsys, ["spectrum", "--config", str(cfgfile)])
        assert code == 0
        data = json.loads(out)
        assert data["blocks"] == [162]
        assert data["structural_zeros"] == 81

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
        words, angles, lengths, logj, t, _, _ = _cycle_orbits(TRI, 3)
        assert rows[1:] == [
            ",".join(["".join(map(str, w)), *map(repr, a), *map(repr, l), repr(lj), repr(tt)])
            for w, a, l, lj, tt in zip(words.tolist(), angles.tolist(), lengths.tolist(),
                                       logj.tolist(), t.tolist())]
        # the t column is the cylinder table's t, bit for bit
        column = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        assert column.tobytes() == disk_billiard.cylinder_table(TRI, 3).t.tobytes()

    def test_metadata_records_the_orbit_certificate(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[orbits]\ndepth = 4\n")

        def orbits(out_dir):
            code, out, _ = run(capsys, ["billiard-orbits", "--config", str(cfgfile),
                                        "--out", str(out_dir)])
            assert code == 0
            meta = json.loads((out_dir / "metadata.json").read_text())["orbits"]
            return json.loads(out)["orbits"], meta

        rows, meta = orbits(tmp_path / "clear")
        assert meta["shadowed_words_dropped"] == 0
        assert 0 <= meta["newton_residual_max"] <= 1e-12
        real = disk_billiard._solve_orbits

        def shadow_repeats(config, words):
            batch = real(config, words)
            return batch._replace(shadow=["test" if w == [0, 1, 0, 1] else s
                                          for w, s in zip(words.tolist(), batch.shadow)])

        monkeypatch.setattr(disk_billiard, "_solve_orbits", shadow_repeats)
        kept, meta = orbits(tmp_path / "shadowed")
        assert meta["shadowed_words_dropped"] == 2
        assert kept == [r for r in rows if r[0] not in ([0, 1, 0, 1], [1, 0, 1, 0])]
        assert meta["newton_residual_max"] == max(
            disk_billiard._cycle_orbits(TRI, 4)[5].tolist())

    def test_depth_one_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[orbits]\ndepth = 1\n")
        code, _, err = run(capsys, ["billiard-orbits", "--config", str(cfgfile)])
        assert code == 1
        assert "ValueError" in err


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
        code, _, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                  "--out", str(out_dir), "--format", "all"])
        assert code == 0
        assert rendered == ["field"] * 3
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "husimi-frames.json", "husimi-frames.svg",
            "husimi_000.csv", "husimi_000.svg", "husimi_001.csv",
            "husimi_001.svg", "husimi_002.csv", "husimi_002.svg",
            "metadata.json"]
        assert ((out_dir / "husimi-frames.svg").read_bytes()
                == (out_dir / "husimi_002.svg").read_bytes())

    def test_frame_csvs_are_the_fields(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n"
                           "[husimi]\nframes = 2\nrho0 = 0.25,0.1\nK = 30\n")
        code, _, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                  "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        state = torus_coherent(27, (0.25, 0.1))
        for i in range(2):
            lines = (tmp_path / f"husimi_{i:03d}.csv").read_text().splitlines()
            assert lines[0] == "x_index,xi_index,value"
            back = np.full((30, 30), np.nan)
            for line in lines[1:]:
                x, xi, value = line.split(",")
                back[int(x), int(xi)] = float(value)
            assert np.array_equal(back, husimi(state, 30))
            state = apply(build(SPEC32, 27), state)

    def test_frame_files_match_per_cell_writers(self, capsys, tmp_path,
                                                 monkeypatch):
        # the shared row prefixes and cell strings are built once per
        # command, and every frame's files equal the generic CSV writer
        # and the per-cell SVG oracle byte for byte
        fields, built = [], []
        real_husimi, real_cells = cli_io.husimi, cli_io._field_cells

        def keeping(state, K):
            fields.append(real_husimi(state, K))
            return fields[-1]

        def counting(shape):
            built.append(shape)
            return real_cells(shape)

        monkeypatch.setattr(cli_io, "husimi", keeping)
        monkeypatch.setattr(cli_io, "_field_cells", counting)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[quantum]\nN = 27\n[husimi]\nframes = 3\nK = 12\n")
        code, _, _ = run(capsys, ["husimi-frames", "--config", str(cfgfile),
                                  "--out", str(tmp_path), "--format", "all"])
        assert code == 0
        assert built == [(12, 12)] and len(fields) == 3
        for i, field in enumerate(fields):
            x, xi = np.indices(field.shape)
            csv = cli_io._csv(("x_index", "xi_index", "value"),
                              zip(x.ravel().tolist(), xi.ravel().tolist(),
                                  field.ravel().tolist()))
            assert (tmp_path / f"husimi_{i:03d}.csv").read_text() == csv
            svg = (tmp_path / f"husimi_{i:03d}.svg").read_text()
            assert svg == field_svg_by_cells(field)

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
        frames = {f"husimi_{i:03d}.{ext}" for i in range(2)
                  for ext in ("csv", "svg")}
        wanted = {"csv", "svg"} if fmt == "all" else {fmt}
        assert frames & set(written) == {
            n for n in frames if n.rsplit(".", 1)[1] in wanted}


class TestTraceCheckCommand:
    def test_default_window_gives_identity_traces(self, capsys):
        code, out, _ = run(capsys, ["trace-check"])
        assert code == 0
        data = json.loads(out)
        for entry in data["entries"]:
            assert entry["n"] == 0
            assert entry["trace_direct"] == pytest.approx(entry["N"],
                                                          abs=1e-8)

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
        fit = weyl_exponent([block_eigenvalues(n, *parity_blocks(
            build(SPEC32, n))) for n in (9, 27, 81)], 0.1)
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
        records = [block_eigenvalues(n, *parity_blocks(build(SPEC32, n)))
                   for n in (9, 27, 81)]
        assert meta["eigensolves"] == [
            {"N": r.N, "backward_error": r.backward_error,
             "structural_zeros": r.structural_zeros, "blocks": list(r.blocks),
             "workers": min(6, pool_size()) if openblas() else 1,
             "blas_threads": r.blas_threads}
            for r in records]
        assert [e["blocks"] for e in meta["eigensolves"]] == [[3, 3], [9, 9], [27, 27]]


    def test_weyl_fit_exponent_is_the_bowen_root_less_the_gap(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[weyl]\nN_list = 9,27,81\nnu = 0.1\n")
        code, out, _ = run(capsys, ["weyl-fit", "--config", str(cfgfile)])
        assert code == 0
        d_h = bowen_dimension([cylinder_table(SPEC32, n) for n in (4, 5, 6)])
        assert json.loads(out)["report"]["exponent"] == (
            d_h - annulus_gap_exponent(0.1, d_h, math.log(3)))


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

    @pytest.mark.parametrize("command, config, code, files", [
        # the two-disk table has no cycle of odd length
        ("billiard-orbits",
         "[billiard]\nradii = 1,1\ncenters = 0,0;6,0\n[orbits]\ndepth = 3\n", 0,
         ["billiard-orbits.csv", "billiard-orbits.json", "metadata.json"]),
        ("sigma-curve", "[sigma]\nn_points = 0\n", 2, None),
    ], ids=["two_disk_odd_depth", "sigma_no_points"])
    def test_empty_series_leaves_no_partial_output(self, capsys, tmp_path, command,
                                                   config, code, files):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(config)
        out_dir = tmp_path / "out"
        got, _, _ = run(capsys, [command, "--config", str(cfgfile),
                                 "--out", str(out_dir), "--format", "all"])
        assert got == code
        if files is None:
            assert not out_dir.exists()
        else:
            assert sorted(p.name for p in out_dir.iterdir()) == files
            meta = json.loads((out_dir / "metadata.json").read_text())
            assert sorted(meta["written"] + ["metadata.json"]) == files
