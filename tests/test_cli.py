import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlslab.cli import (
    ConfigError,
    DiagnosticsRecord,
    RunConfig,
    build_datum,
    emit_config,
    emit_records,
    exponent_report,
    main,
    parse_config,
    read_records,
    run_preset,
    verify_records,
)


def cfg_text(**over):
    body = {"preset": "decay"}
    body.update(over)
    return json.dumps(body)


class TestParseConfig:
    def test_minimal_decay_defaults(self):
        cfg = parse_config(cfg_text())
        assert (cfg.dt, cfg.L, cfg.Nx, cfg.Ny) == (1e-3, 200.0, 4096, 32)
        assert cfg.lam == 1
        assert cfg.datum["kind"] == "gaussian"

    def test_nested_sections_flatten(self):
        cfg = parse_config(cfg_text(grid={"Nx": 512, "Ny": 8},
                                    control={"dt": 0.01, "t_end": 1.0},
                                    physics={"alpha": "3"}))
        assert (cfg.Nx, cfg.Ny, cfg.dt, cfg.t_end) == (512, 8, 0.01, 1.0)
        assert cfg.alpha_fraction() == 3

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(cfg_text(preset="warp"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            parse_config(cfg_text(dx=0.1))

    def test_scattering_range_accepted(self):
        cfg = parse_config(cfg_text(preset="scattering", alpha="5"))
        assert cfg.alpha_fraction() == 5

    def test_scattering_range_rejected(self):
        with pytest.raises(ConfigError, match="alpha <= 4/d"):
            parse_config(cfg_text(preset="scattering", alpha="1/2"))
        with pytest.raises(ConfigError, match="alpha <= 4/d"):
            parse_config(cfg_text(preset="scattering", alpha="3"))

    def test_defocusing_presets_reject_focusing(self):
        for preset in ("decay", "morawetz", "scattering"):
            with pytest.raises(ConfigError, match="lam"):
                parse_config(cfg_text(preset=preset, lam=-1))

    def test_soliton_preset_locked(self):
        with pytest.raises(ConfigError, match="soliton-control"):
            parse_config(cfg_text(preset="soliton-control", alpha="3"))
        with pytest.raises(ConfigError, match="soliton-control"):
            parse_config(cfg_text(preset="soliton-control", lam=1))

    def test_energy_supercritical_rejected(self):
        with pytest.raises(ConfigError, match="4/\\(d-1\\)"):
            parse_config(cfg_text(d=2, alpha="5"))

    def test_bad_alpha_string(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(cfg_text(alpha="five"))
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(cfg_text(alpha="-2"))

    def test_bad_datum_kind(self):
        with pytest.raises(ConfigError, match="datum.kind"):
            parse_config(cfg_text(datum={"kind": "vortex"}))

    def test_roundtrip(self):
        cfg = parse_config(cfg_text(Nx=512, q_list=[4.0, 6.0]))
        again = parse_config(emit_config(cfg))
        assert again == cfg

    @pytest.mark.parametrize("over, field", [
        ({"Nx": "4096"}, "grid.Nx"),
        ({"Nx": 4096.0}, "grid.Nx"),
        ({"Nx": True}, "grid.Nx"),
        ({"Ny": 24}, "grid.Ny"),
        ({"d": 3, "alpha": "1"}, "grid.d"),
        ({"L": -1.0}, "grid.L"),
        ({"dt": "1e-3"}, "control.dt"),
        ({"dt": 0.0}, "control.dt"),
        ({"t_end": float("nan")}, "control.t_end"),
        ({"t_end": 0.0105}, "control.t_end"),
        ({"t_end": -1.0}, "control.t_end"),
        ({"sample_every": 2.5}, "control.sample_every"),
        ({"sample_every": 0}, "control.sample_every"),
        ({"lam": True}, "physics.lam"),
        ({"lam": 2}, "physics.lam"),
        ({"alpha": True}, "physics.alpha"),
        ({"guard_tol": -1}, "guard_tol"),
        ({"guard_tol": float("inf")}, "guard_tol"),
        ({"q_list": [1.0]}, "q_list"),
        ({"q_list": []}, "q_list"),
        ({"q_list": [4.0, 4]}, "q_list"),
        ({"q_list": 4.0}, "q_list"),
        ({"q_list": [float("nan")]}, "q_list"),
        ({"r_side": 0.01}, "r_side"),
        ({"r_side": float("nan")}, "r_side"),
        ({"datum": {"kind": "file"}}, "datum.path"),
        ({"datum": "gaussian"}, "datum"),
        ({"delta": "0"}, "delta"),
        ({"epsilon": 0.01}, "epsilon"),
        ({"output_dir": ""}, "output_dir"),
        # the physics rules come from PhysicsParams and ProblemParams
        ({"alpha": "0"}, "physics.alpha"),
        ({"alpha": "five"}, "physics.alpha"),
        ({"d": 2, "alpha": "5"}, "physics.alpha"),
        ({"preset": "scattering", "alpha": "4"}, "physics.alpha"),
        ({"preset": "exponents", "alpha": "-1"}, "physics.alpha"),
        ({"preset": "exponents", "d": 3, "alpha": "2"}, "physics.alpha"),
        ({"preset": "exponents", "lam": 5}, "physics.lam"),
        ({"lam": -1}, "physics.lam"),
        ({"r": "1/0"}, "r"),
        ({"r": 0}, "r"),
        ({"r_side": 0.75 * 200.0 / 4096}, "r_side"),
        # its float image overflows
        ({"alpha": "1" + "0" * 400}, "physics.alpha"),
    ])
    def test_bad_field_named(self, over, field):
        # JSON carries NaN and Infinity as bare words, which json.dumps writes
        with pytest.raises(ConfigError, match=f"^{re.escape(field)} "):
            parse_config(cfg_text(**over))

    def test_accepted_edges(self):
        cfg = parse_config(cfg_text(q_list=[4, float("inf")], guard_tol=1,
                                    r_side=200.0 / 4096, L=200))
        assert cfg.q_list == [4, float("inf")]
        cfg = parse_config(cfg_text(preset="exponents", Nx=100))
        assert cfg.Nx == 100  # grid fields do not constrain the exponents preset

    @pytest.mark.parametrize("preset", ["decay", "morawetz", "soliton-control",
                                        "scattering", "exponents"])
    def test_preset_defaults_parse(self, preset):
        cfg = parse_config(cfg_text(preset=preset))
        assert parse_config(emit_config(cfg)) == cfg


def _not_a_fraction(text):
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


# JSON values of the wrong type for each kind of field
_NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=6),
                     st.lists(st.integers(), max_size=2))
_NOT_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=6),
                        st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.lists(st.floats(), max_size=2))
_NOT_RATIONAL = st.one_of(st.booleans(), st.floats(), st.lists(st.integers(), max_size=2),
                          st.text(max_size=6).filter(_not_a_fraction))
_NOT_POSITIVE = st.one_of(st.integers(max_value=0),
                          st.fractions(max_value=0).map(str))
_NOT_POWER_OF_TWO = st.integers(min_value=5, max_value=2 ** 20).filter(
    lambda n: n & (n - 1))
# dt is 1e-3 in the decay preset, and grid.dx is 200/4096
_BAD_VALUES = {
    "preset": ("preset", st.one_of(st.none(), st.integers(), st.text(max_size=8).filter(
        lambda p: p not in ("decay", "morawetz", "soliton-control", "scattering",
                            "exponents")))),
    "d": ("grid.d", st.one_of(_NOT_INT, st.integers(max_value=0))),
    "L": ("grid.L", st.one_of(_NOT_NUMBER, st.floats(max_value=0),
                              st.integers(max_value=0))),
    "Nx": ("grid.Nx", st.one_of(_NOT_INT, st.integers(max_value=3), _NOT_POWER_OF_TWO)),
    "Ny": ("grid.Ny", st.one_of(_NOT_INT, st.integers(max_value=3), _NOT_POWER_OF_TWO)),
    "alpha": ("physics.alpha", st.one_of(st.none(), _NOT_RATIONAL, _NOT_POSITIVE)),
    "lam": ("physics.lam", st.one_of(_NOT_INT, st.integers().filter(lambda v: v != 1))),
    "dt": ("control.dt", st.one_of(_NOT_NUMBER, st.sampled_from([0, 0.0]))),
    "t_end": ("control.t_end", st.one_of(
        _NOT_NUMBER, st.floats(max_value=0),
        st.integers(1, 10 ** 4).map(lambda k: (k + 0.5) * 1e-3))),
    "sample_every": ("control.sample_every",
                     st.one_of(_NOT_INT, st.integers(max_value=0))),
    "datum": ("datum", st.one_of(st.none(), st.booleans(), st.floats(),
                                 st.text(max_size=6), st.lists(st.integers()))),
    "q_list": ("q_list", st.one_of(
        st.none(), st.booleans(), st.floats(), st.text(max_size=6), st.just([]),
        st.lists(st.floats(max_value=2), min_size=1, max_size=3),
        st.lists(st.one_of(st.none(), st.booleans(), st.text(max_size=3)), min_size=1),
        st.floats(min_value=3, max_value=10).map(lambda q: [q, q]))),
    "r": ("r", st.one_of(_NOT_RATIONAL, _NOT_POSITIVE)),
    "epsilon": ("epsilon", st.one_of(st.none(), _NOT_RATIONAL, _NOT_POSITIVE)),
    "theta_resolution": ("theta_resolution",
                         st.one_of(st.none(), _NOT_RATIONAL, _NOT_POSITIVE)),
    "delta": ("delta", st.one_of(st.none(), _NOT_RATIONAL, _NOT_POSITIVE)),
    "r_side": ("r_side", st.one_of(_NOT_NUMBER, st.floats(max_value=0),
                                   st.floats(0, 200 / 4096, exclude_max=True))),
    "guard_tol": ("guard_tol", st.one_of(
        _NOT_NUMBER, st.floats(max_value=0), st.floats(min_value=1, exclude_min=True))),
    "output_dir": ("output_dir", st.one_of(st.none(), st.booleans(), st.integers(),
                                           st.lists(st.text()), st.just(""))),
}
_SECTIONS = {"grid": ("d", "L", "Nx", "Ny"), "physics": ("alpha", "lam"),
             "control": ("dt", "t_end", "sample_every")}


@st.composite
def _one_bad_field(draw):
    field = draw(st.sampled_from(sorted(_BAD_VALUES)))
    name, values = _BAD_VALUES[field]
    value = draw(values)
    body = {"preset": "decay"}
    section = next((s for s, fields in _SECTIONS.items() if field in fields), None)
    if section and draw(st.booleans()):
        body[section] = {field: value}
    else:
        body[field] = value
    return name, body


@given(_one_bad_field())
@settings(deadline=None, max_examples=300)
def test_every_bad_field_is_named(case):
    # one field of the decay preset set to a wrong type or out of range, at
    # the top level or in its section: the error starts with its section name
    name, body = case
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} "):
        parse_config(json.dumps(body))


class TestBuildDatum:
    def test_gaussian_d1(self):
        cfg = parse_config(cfg_text(grid={"Nx": 256, "Ny": 4, "L": 40.0}))
        f = build_datum(cfg)
        x = f.grid.x_axis()
        expect = 1.0 * np.exp(-(x / 0.65) ** 2)
        assert np.abs(f.samples()[:, 0] - expect).max() < 1e-12

    def test_plane_wave(self):
        cfg = parse_config(cfg_text(
            grid={"Nx": 64, "Ny": 4, "L": 20.0},
            datum={"kind": "plane_wave", "k": 2, "n": 1, "A": 0.5}))
        f = build_datum(cfg)
        assert np.abs(np.abs(f.samples()) - 0.5).max() < 1e-12

    def test_soliton(self):
        cfg = parse_config(cfg_text(preset="soliton-control",
                                    datum={"kind": "soliton", "B": 1.5}))
        f = build_datum(cfg)
        assert np.abs(f.samples()).max() == pytest.approx(
            math.sqrt(2) * 1.5, rel=1e-6)

    def test_bad_file_is_a_datum_path_error(self, tmp_path):
        path = tmp_path / "datum.bin"
        path.write_bytes(b"\0" * 20)
        cfg = parse_config(cfg_text(datum={"kind": "file", "path": str(path)}))
        with pytest.raises(ConfigError, match=f"^datum.path: {re.escape(str(path))}: "
                                              ".*shorter than its 36-byte header"):
            build_datum(cfg)
        cfg = parse_config(cfg_text(datum={"kind": "file",
                                           "path": str(tmp_path / "missing.bin")}))
        with pytest.raises(ConfigError, match="^datum.path: .*No such file"):
            build_datum(cfg)

    def test_file_grid_must_match_the_config(self, tmp_path):
        from nlslab.field import Grid, SpectralField, save_field
        path = tmp_path / "datum.bin"
        body = {"kind": "file", "path": str(path)}
        small = Grid(1, 40.0, 64, 4)
        save_field(SpectralField(small, np.ones(small.shape)), str(path))
        with pytest.raises(ConfigError, match=f"^datum.path: {re.escape(str(path))}: "
                                              "grid .* does not match the config's"):
            build_datum(parse_config(cfg_text(datum=body)))
        cfg = parse_config(cfg_text(datum=body, grid={"L": 40.0, "Nx": 64, "Ny": 4}))
        assert build_datum(cfg).grid == small


class TestRecordBuilderColumns:
    @pytest.mark.parametrize("over", [
        {"preset": "scattering", "grid": {"Nx": 128, "Ny": 8, "L": 40.0}},
        {"preset": "morawetz", "d": 2, "alpha": "4/3",
         "grid": {"Nx": 32, "Ny": 4, "L": 16.0},
         "datum": {"kind": "gaussian", "amplitude": 0.8, "width": 1.5,
                   "y_modulation": 0.4}},
    ])
    def test_scalars_match_oracles(self, over):
        # the record's own |c|^2 and nu forms against the field and integrator
        # functions that keep the direct formulas, and its L^q columns
        # against the inline |u|^q sum
        from nlslab.cli import RecordBuilder
        from nlslab.field import sobolev_h1
        from nlslab.integrator import energy, mass
        q_list = [3, 4.0, 10 / 3, 7.0, 2.5, float("inf")]
        cfg = parse_config(json.dumps(dict(over, q_list=q_list)))
        f = build_datum(cfg)
        f = type(f)(f.grid, f.coefficients * np.exp(0.3j * f.grid.xi_grids()[0]))
        builder = RecordBuilder(cfg)
        builder(f, False)
        rec = builder.records[-1]
        physics = cfg.physics()
        assert rec.mass == pytest.approx(mass(f), rel=1e-13, abs=0)
        assert rec.energy == pytest.approx(energy(f, physics), rel=1e-13, abs=0)
        assert rec.h1_norm == pytest.approx(sobolev_h1(f), rel=1e-13, abs=0)
        assert list(rec.lq_norms) == q_list
        a = np.abs(f.samples())
        for q in q_list:
            expect = a.max() if q == float("inf") else \
                (np.sum(a ** q) * f.grid.weight) ** (1.0 / q)
            assert rec.lq_norms[q] == pytest.approx(expect, rel=1e-13, abs=0)


def make_record(t, **over):
    base = dict(
        t=t, mass=1.0, energy=2.0, h1_norm=3.0, lq_norms={4.0: 0.5},
        J=-0.1, morawetz_lhs=0.2, morawetz_rhs=0.1, positivity_S=0.1,
        cube_sup=0.4, cube_sup_integral=0.04, mixed_norm_theta=0.6,
        accumulators={"theta_norm": 1.0, "u_lp": 2.0, "dy_lp": 3.0,
                      "grad_lp": 4.0},
        boundary_guard_flag=False)
    base.update(over)
    return DiagnosticsRecord(**base)


class TestRecords:
    def test_empty_stream_header_only(self):
        buf = io.StringIO()
        emit_records([], buf, [4.0])
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("t,mass,energy,h1_norm,lq_4,")

    def test_roundtrip_exact(self):
        rec = make_record(0.1, mass=math.pi, energy=1 / 3,
                          boundary_guard_flag=True)
        buf = io.StringIO()
        emit_records([rec], buf, [4.0])
        buf.seek(0)
        rows = read_records(buf)
        assert len(rows) == 1
        assert rows[0]["mass"] == math.pi          # 17 digits round-trip
        assert rows[0]["energy"] == 1 / 3
        assert rows[0]["boundary_guard_flag"] is True

    def test_partial_file_marker(self):
        bad = make_record(0.0, lq_norms={})  # missing q column
        buf = io.StringIO()
        with pytest.raises(KeyError):
            emit_records([make_record(0.0), bad], buf, [4.0])
        assert buf.getvalue().rstrip().endswith("# PARTIAL FILE: emission aborted")

    def test_row_count_formula(self, tmp_path):
        cfg = parse_config(cfg_text(
            grid={"Nx": 128, "Ny": 4, "L": 40.0},
            control={"dt": 0.01, "t_end": 0.2, "sample_every": 5},
            output_dir=str(tmp_path)))
        run_preset(cfg)
        with open(tmp_path / "records.csv") as fh:
            rows = read_records(fh)
        assert len(rows) == 1 + int(0.2 / (0.01 * 5))


class TestExponentReport:
    def test_worked_example_values(self):
        rep = exponent_report(1, __import__("fractions").Fraction(5),
                              r=__import__("fractions").Fraction(8))
        tup = rep["critical_tuple"]
        assert tup["q"] == "80/11"
        assert tup["q_tilde"] == "40/7"
        assert tup["r_tilde"] == "4"
        assert tup["s"] == "1/10"
        aux = rep["auxiliary_pair"]
        assert (aux["l"], aux["p"]) == ("32/5", "16/3")
        assert rep["all_feasible"] is True

    def test_subcritical_branch(self):
        rep = exponent_report(3, __import__("fractions").Fraction(1))
        assert rep["regime"] == "subcritical"
        assert rep["all_feasible"] is True
        assert "subcritical_pair" in rep

    def test_json_serializable(self):
        rep = exponent_report(1, __import__("fractions").Fraction(5))
        json.dumps(rep)  # must not raise


class TestRunPreset:
    def test_exponents_preset(self, tmp_path):
        cfg = parse_config(cfg_text(preset="exponents", alpha="5",
                                    output_dir=str(tmp_path)))
        assert run_preset(cfg) == 0
        rep = json.load(open(tmp_path / "exponents.json"))
        assert rep["all_feasible"] is True
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert manifest["exit_status"] == 0
        assert manifest["alpha_exact"] == "5"

    def test_small_decay_run_writes_artifacts(self, tmp_path):
        cfg = parse_config(cfg_text(
            grid={"Nx": 256, "Ny": 4, "L": 60.0},
            control={"dt": 0.01, "t_end": 0.5, "sample_every": 10},
            output_dir=str(tmp_path)))
        run_preset(cfg)  # short run; decay checks may fail, artifacts must exist
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert (tmp_path / "records.csv").exists()
        assert set(manifest["checks"]) >= {"morawetz_inequality", "positivity",
                                           "guard_never_fired"}
        assert manifest["checks"]["morawetz_inequality"] is True
        assert manifest["checks"]["positivity"] is True

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = parse_config(cfg_text(
                grid={"Nx": 256, "Ny": 4, "L": 60.0},
                control={"dt": 0.01, "t_end": 0.2, "sample_every": 10},
                output_dir=str(out)))
            run_preset(cfg)
        assert (out1 / "records.csv").read_bytes() == \
            (out2 / "records.csv").read_bytes()

    def test_soliton_control_small(self, tmp_path):
        cfg = parse_config(cfg_text(
            preset="soliton-control",
            grid={"Nx": 1024, "Ny": 4},
            control={"dt": 2e-3, "t_end": 4.0, "sample_every": 50},
            output_dir=str(tmp_path)))
        status = run_preset(cfg)
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert manifest["checks"]["no_decay"] is True
        assert manifest["checks"]["no_scattering"] is True
        assert status == 0
        assert (tmp_path / "scatter_report.json").exists()


class TestVerify:
    def test_clean_records_pass(self):
        buf = io.StringIO()
        emit_records([make_record(0.0), make_record(0.1)], buf, [4.0])
        buf.seek(0)
        assert verify_records(buf) == 0

    def test_violation_detected(self):
        bad = make_record(0.1, morawetz_lhs=-5.0, positivity_S=-5.0)
        buf = io.StringIO()
        emit_records([bad], buf, [4.0])
        buf.seek(0)
        assert verify_records(buf) == 1


class TestMain:
    def test_exponents_command(self, capsys):
        assert main(["exponents", "--d", "1", "--alpha", "5", "--r", "8"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["critical_tuple"]["q"] == "80/11"

    def test_run_command(self, tmp_path):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(cfg_text(preset="exponents",
                                  output_dir=str(tmp_path)))
        assert main(["run", "--config", str(cpath)]) == 0

    def test_verify_command(self, tmp_path):
        rpath = tmp_path / "records.csv"
        with open(rpath, "w") as fh:
            emit_records([make_record(0.0)], fh, [4.0])
        assert main(["verify", str(rpath)]) == 0

    @pytest.mark.parametrize("args, message", [
        (["--d", "1", "--alpha", "five"], "physics.alpha = 'five': "),
        (["--d", "0", "--alpha", "5"], "grid.d = 0: "),
        (["--d", "2", "--alpha", "5"], "physics.alpha = 5 >= 4/(d-1) = 4: "),
        (["--d", "1", "--alpha", "5", "--r", "1/0"], "r = '1/0': "),
    ])
    def test_bad_exponents_input_exits_2(self, capsys, args, message):
        with pytest.raises(SystemExit) as exc:
            main(["exponents"] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"nlslab: error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, message", [
        ('{"preset": "decay", "lam": 2}', "physics.lam must be +1, -1 or 0"),
        ("{not json", "malformed config JSON"),
        ('{"preset": "decay", "datum": {"kind": "file", "path": "DATUM"}, '
         '"output_dir": "OUT"}', "datum.path: DATUM: snapshot body truncated"),
    ], ids=["bad-field", "bad-json", "truncated-datum"])
    def test_bad_run_input_exits_2(self, tmp_path, capsys, config, message):
        from nlslab.field import SpectralField, save_field
        datum = tmp_path / "datum.bin"
        grid = parse_config(cfg_text()).grid()
        save_field(SpectralField(grid, np.zeros(grid.shape)), str(datum))
        datum.write_bytes(datum.read_bytes()[:-16])
        cpath = tmp_path / "cfg.json"
        cpath.write_text(config.replace("DATUM", str(datum))
                         .replace("OUT", str(tmp_path / "out")))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cpath)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "nlslab: error: " + message.replace("DATUM", str(datum)))
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(tmp_path / "none.json")])
        assert exc.value.code == 2
        assert "--config: " in capsys.readouterr().err


class TestRecordBuilder:
    def small_cfg(self, preset="scattering"):
        return parse_config(cfg_text(
            preset=preset, grid={"Nx": 128, "Ny": 4, "L": 40.0},
            control={"dt": 0.01, "t_end": 1.0, "sample_every": 2}))

    def test_theta_norm_is_the_accumulated_one(self):
        from fractions import Fraction
        from nlslab.cli import RecordBuilder
        from nlslab.exponents import ProblemParams, critical_tuple
        from nlslab.field import mixed_norm
        cfg = self.small_cfg()
        fld = build_datum(cfg)
        builder = RecordBuilder(cfg)
        builder(fld, False)
        # the theta tuple keeps the base tuple's r
        base, _ = critical_tuple(ProblemParams(1, Fraction(5)))
        expect = mixed_norm(fld, float(base.r), 0.5 + float(Fraction(cfg.delta)))
        assert builder.records[-1].mixed_norm_theta == expect

    def test_keeps_only_the_cauchy_schedule(self):
        from nlslab.cli import RecordBuilder
        from nlslab.field import SpectralField
        from nlslab.scattering import geometric_sample_times
        for preset, kept in (("scattering", True), ("decay", False)):
            cfg = self.small_cfg(preset)
            c = build_datum(cfg).coefficients
            builder = RecordBuilder(cfg)
            for k in range(51):
                builder(SpectralField(cfg.grid(), c, round(k * 0.02, 12)), False)
            times = [s.time_tag for s in builder.snapshots]
            expect = geometric_sample_times(0.2, 1.0, 0.02) if kept else []
            assert times == expect
            assert len(builder.records) == 51


class TestThreadsVariable:
    def test_bad_value_fails_before_any_run(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        cpath = tmp_path / "cfg.json"
        cpath.write_text(cfg_text(preset="exponents", output_dir=str(out)))
        monkeypatch.setenv("NLSLAB_THREADS", "0")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cpath)])
        assert exc.value.code != 0
        assert "NLSLAB_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_set_value_runs(self, tmp_path, monkeypatch):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(cfg_text(preset="exponents", output_dir=str(tmp_path)))
        monkeypatch.setenv("NLSLAB_THREADS", "1")
        assert main(["run", "--config", str(cpath)]) == 0


class TestAbortedRun:
    def small_cfg(self, out):
        return parse_config(cfg_text(
            grid={"Nx": 128, "Ny": 4, "L": 40.0},
            control={"dt": 0.01, "t_end": 0.2, "sample_every": 5},
            output_dir=str(out)))

    def test_partial_records_and_manifest(self, tmp_path, monkeypatch, capsys):
        from nlslab import cli
        from nlslab.integrator import BlowUpError

        def evolve_one_sample(initial, physics, control, sinks=(), **kwargs):
            for sink in sinks:
                sink(initial, False)
            raise BlowUpError("non-finite state at t = 0.05")

        monkeypatch.setattr(cli, "evolve", evolve_one_sample)
        with pytest.raises(RuntimeError, match="run aborted after record 0"):
            run_preset(self.small_cfg(tmp_path))
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == 3  # header, one record, marker
        assert lines[-1].startswith("# PARTIAL FILE")
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert manifest["aborted"] is True
        assert "non-finite state at t = 0.05" in manifest["error"]
        assert manifest["records_written"] == 1
        assert manifest["exit_status"] == 1

        capsys.readouterr()
        assert main(["verify", str(tmp_path / "records.csv")]) == 1
        assert "partial records file after 1 rows" in capsys.readouterr().err

    def test_complete_run_not_aborted(self, tmp_path):
        run_preset(self.small_cfg(tmp_path))
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert manifest["aborted"] is False and "error" not in manifest
        assert not (tmp_path / "records.csv").read_text().startswith("#")
