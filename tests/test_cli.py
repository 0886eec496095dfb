import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import signal
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from conftest import (_CountedFFT, coefficient_path_derivative, load_json,
                      perfbench_workloads)
from nlslab.cli import (
    DATUM_KINDS,
    ConfigError,
    DiagnosticsRecord,
    RunConfig,
    build_datum,
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

    def test_cube_side_is_not_a_field(self):
        # the cubes are unit cubes: a config that names their side is refused
        with pytest.raises(ConfigError, match=r"^unknown config fields: \['r_side'\]$"):
            parse_config(cfg_text(r_side=1.0))

    def test_grid_coarser_than_one_unit(self, tmp_path):
        # dx = 200/128 > 1: the cube-sup reads one-cell cubes, as the guard does
        cfg = parse_config(cfg_text(grid={"L": 200.0, "Nx": 128, "Ny": 4},
                                    control={"dt": 0.01, "t_end": 0.05,
                                             "sample_every": 5},
                                    output_dir=str(tmp_path)))
        run_preset(cfg)
        with open(tmp_path / "records.csv") as fh:
            rows = read_records(fh)
        f = build_datum(cfg)
        g = f.grid
        cells = np.sum(np.abs(f.samples()) ** 2, axis=-1) * g.dy * g.cell
        assert rows[0]["cube_sup"] == float(cells.max())

    @pytest.mark.parametrize("section", ["exponent_options", "morawetz_options"])
    def test_only_grid_physics_control_are_sections(self, section, tmp_path, capsys):
        text = cfg_text(preset="exponents", output_dir=str(tmp_path / "out"),
                        **{section: {"epsilon": "1/50"}})
        with pytest.raises(ConfigError, match=f"unknown config fields: .'{section}'"):
            parse_config(text)
        cpath = tmp_path / "cfg.json"
        cpath.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cpath)])
        assert exc.value.code == 2
        assert section in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_beyond_memory_fails_at_parse(self, tmp_path, capsys):
        # the d = 1 grid defaults at d = 2, 4096^2 x 32: 8 GiB per complex
        # array.  The parse refuses it before it allocates any grid array
        import tracemalloc
        from nlslab import cli
        text = json.dumps({"preset": "morawetz", "d": 2, "alpha": "3",
                           "output_dir": str(tmp_path / "out")})
        need = cli.PEAK_ARRAYS * 16 * 4096 ** 2 * 32
        if need <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            pytest.skip("this machine's memory holds the default d = 2 grid")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^grid = Grid\(d=2, L=200.0, "
                               r"Nx=4096, Ny=32\): a run needs about 144 GiB"):
                parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        cpath = tmp_path / "cfg.json"
        cpath.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cpath)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("nlslab: error: grid = Grid(d=2")
        assert "Traceback" not in "\n".join(err)
        assert not (tmp_path / "out").exists()

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
        again = parse_config(json.dumps(cfg.to_dict(), indent=2))
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
        # not settings: guard_tol is a constant, delta is derived, and
        # plane_wave is not a datum kind
        ({"guard_tol": -1}, "unknown config fields:"),
        ({"guard_tol": float("inf")}, "unknown config fields:"),
        ({"q_list": [1.0]}, "q_list"),
        ({"q_list": []}, "q_list"),
        ({"q_list": [4.0, 4]}, "q_list"),
        ({"q_list": 4.0}, "q_list"),
        ({"q_list": [float("nan")]}, "q_list"),
        ({"guard_tol": 0}, "unknown config fields:"),
        ({"theta_resolution": "0"}, "theta_resolution"),
        ({"datum": {"kind": "file"}}, "datum.path"),
        ({"datum": "gaussian"}, "datum"),
        ({"delta": "0"}, "unknown config fields:"),
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
        ({"r": "-8"}, "r"),
        # its float image overflows
        ({"alpha": "1" + "0" * 400}, "physics.alpha"),
        # rules whose owner runs after the parse: max_feasible_theta's theta
        # grid and the Cauchy table's three snapshots on the geometric schedule
        ({"theta_resolution": "1"}, "theta_resolution"),
        ({"theta_resolution": "3/2"}, "theta_resolution"),
        ({"delta": "1/2"}, "unknown config fields:"),
        ({"preset": "scattering", "t_end": 1.0}, "control.t_end"),
        ({"preset": "soliton-control", "t_end": 1.0}, "control.t_end"),
        # the third time, 3.4, lies past t_end
        ({"preset": "scattering", "t_end": 3.39}, "control.t_end"),
        # the datum section
        ({"datum": {"kind": "gaussian", "widht": 1.0}}, "datum.widht"),
        ({"datum": {"kind": "gaussian", "amplitude": "big"}}, "datum.amplitude"),
        ({"datum": {"kind": "gaussian", "amplitude": float("nan")}}, "datum.amplitude"),
        ({"datum": {"kind": "gaussian", "y_modulation": True}}, "datum.y_modulation"),
        ({"datum": {"kind": "gaussian", "width": 0}}, "datum.width"),
        ({"datum": {"kind": "soliton", "B": -1}}, "datum.B"),
        ({"datum": {"kind": "plane_wave", "k": 1.5}}, "datum.kind"),
        ({"datum": {"kind": "plane_wave", "n": "1"}}, "datum.kind"),
        ({"datum": {"kind": "plane_wave", "A": float("inf")}}, "datum.kind"),
        ({"datum": {"kind": "file", "path": "x.bin", "width": 1.0}}, "datum.width"),
        # q_list's float images: one overflows, two coincide
        ({"q_list": [4, 10 ** 400]}, "q_list"),
        ({"q_list": [9007199254740993, 9007199254740992]}, "q_list"),
        ({"grid": {"L": 0.5}}, "grid.L"),
        ({"preset": "exponents", "lam": 0}, "physics.lam"),
    ])
    def test_bad_field_named(self, over, field):
        # JSON carries NaN and Infinity as bare words, which json.dumps writes
        with pytest.raises(ConfigError, match=f"^{re.escape(field)} "):
            parse_config(cfg_text(**over))

    def test_accepted_edges(self):
        cfg = parse_config(cfg_text(q_list=[4, float("inf")]))
        assert cfg.q_list == [4, float("inf")]
        cfg = parse_config(cfg_text(preset="exponents", Nx=100))
        assert cfg.Nx == 100  # grid fields do not constrain the exponents preset
        # three snapshots on the schedule: t = 2, 2.6, 3.4 at a sample interval of 0.2
        parse_config(cfg_text(preset="scattering", t_end=3.4))

    def test_guard_tol_is_fixed(self):
        # a constant of RunConfig, not a field: evolve's callers read it
        cfg = parse_config(cfg_text())
        assert cfg.guard_tol == 1e-3
        assert "guard_tol" not in cfg.to_dict()

    @pytest.mark.parametrize("preset", ["decay", "morawetz", "soliton-control",
                                        "scattering", "exponents"])
    def test_preset_defaults_parse(self, preset):
        cfg = parse_config(cfg_text(preset=preset))
        assert parse_config(json.dumps(cfg.to_dict(), indent=2)) == cfg

    @pytest.mark.parametrize("preset", ["decay", "morawetz", "soliton-control",
                                        "scattering"])
    def test_preset_defaults_pass_the_resolvability_check(self, preset):
        # dt * max(|xi|^2 + n^2) stays below 2 pi on a run preset's own grid
        # and step (4.39 for decay and morawetz, 1.62 for soliton-control,
        # 5.18 for scattering), so its runs do not warn
        from nlslab.integrator import _check_resolvability
        cfg = parse_config(cfg_text(preset=preset))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_resolvability(cfg.grid(), cfg.dt)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_config_reference():
    # README.md's config reference names every RunConfig field in a table row
    # and every datum kind with each of its fields and their defaults
    with open(os.path.join(ROOT, "README.md")) as fh:
        rows = [line for line in fh if line.startswith("| `")]
    for f in dataclasses.fields(RunConfig):
        assert any(row.startswith(f"| `{f.name}` |") for row in rows), f.name
    for kind, fields in DATUM_KINDS.items():
        row = next((r for r in rows if r.startswith(f"| `{kind}` |")), None)
        assert row is not None, kind
        for key, default in fields.items():
            shown = "none" if default is None else repr(default)
            assert f"`{key}` ({shown}" in row, (kind, key)


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
# dt is 1e-3 in the decay preset
_BAD_VALUES = {
    "preset": ("preset", st.one_of(st.none(), st.integers(), st.text(max_size=8).filter(
        lambda p: p not in ("decay", "morawetz", "soliton-control", "scattering",
                            "exponents")))),
    "d": ("grid.d", st.one_of(_NOT_INT, st.integers(max_value=0))),
    "L": ("grid.L", st.one_of(_NOT_NUMBER, st.floats(max_value=0),
                              st.integers(max_value=0),
                              st.floats(min_value=0, max_value=1, exclude_min=True,
                                        exclude_max=True))),
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

    def test_soliton(self):
        cfg = parse_config(cfg_text(preset="soliton-control",
                                    datum={"kind": "soliton", "B": 1.5}))
        f = build_datum(cfg)
        assert np.abs(f.samples()).max() == pytest.approx(
            math.sqrt(2) * 1.5, rel=1e-6)

    @staticmethod
    def file_datum(tmp_path):
        """A config text with a 64x4 file datum, its path, and the parsed
        config, the file holding a valid t = 0 snapshot of the config's grid."""
        from nlslab.field import SpectralField, save_field
        path = tmp_path / "datum.bin"
        text = cfg_text(datum={"kind": "file", "path": str(path)},
                        grid={"L": 40.0, "Nx": 64, "Ny": 4})
        grid = parse_config(cfg_text(grid={"L": 40.0, "Nx": 64, "Ny": 4})).grid()
        save_field(SpectralField(grid, np.ones(grid.shape, complex)), str(path))
        return text, path, parse_config(text)

    @staticmethod
    def both_reject(text, cfg, message):
        # the parse reads the file's header, and build_datum checks the file
        # again as the run finds it
        for step in (lambda: parse_config(text), lambda: build_datum(cfg)):
            with pytest.raises(ConfigError, match=message):
                step()

    def test_bad_file_is_a_datum_path_error(self, tmp_path):
        text, path, cfg = self.file_datum(tmp_path)
        path.write_bytes(b"\0" * 20)
        self.both_reject(text, cfg, f"^datum.path: {re.escape(str(path))}: "
                                    ".*shorter than its 36-byte header")
        path.unlink()
        self.both_reject(text, cfg, "^datum.path: .*No such file")

    def test_file_grid_must_match_the_config(self, tmp_path):
        from nlslab.field import Grid, SpectralField, save_field
        text, path, cfg = self.file_datum(tmp_path)
        assert build_datum(cfg).grid == cfg.grid()
        small = Grid(1, 40.0, 32, 4)
        save_field(SpectralField(small, np.ones(small.shape)), str(path))
        self.both_reject(text, cfg, f"^datum.path: {re.escape(str(path))}: "
                                    "grid .* does not match the config's")
        with pytest.raises(ConfigError, match="does not match the config's"):
            parse_config(cfg_text(datum={"kind": "file", "path": str(path)}))

    def test_bad_body_fails_at_parse(self, tmp_path):
        # the header implies the body size, which the parse checks unread
        text, path, cfg = self.file_datum(tmp_path)
        path.write_bytes(path.read_bytes()[:-16])
        self.both_reject(text, cfg, "^datum.path: .*snapshot body truncated: the "
                                    "header implies 4096 bytes, 4080 follow it")

    def test_spec_resolved_once(self, tmp_path, monkeypatch):
        # the parse fills in the datum's defaults; build_datum and the
        # manifest read that spec
        from nlslab import cli
        calls = []
        spec = cli._datum_spec
        monkeypatch.setattr(cli, "_datum_spec", lambda d: calls.append(d) or spec(d))
        cfg = parse_config(cfg_text(grid={"Nx": 128, "Ny": 4, "L": 40.0},
                                    control={"dt": 0.01, "t_end": 0.02,
                                             "sample_every": 1},
                                    datum={"kind": "gaussian", "amplitude": 0.5},
                                    output_dir=str(tmp_path)))
        run_preset(cfg)
        assert len(calls) == 1
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["config"]["datum"] == {
            "kind": "gaussian", "amplitude": 0.5, "width": 1.0, "y_modulation": 0.0}

    def test_datum_defaults(self):
        # a kind's fields left out take the defaults of DATUM_KINDS
        cfg = parse_config(cfg_text(grid={"Nx": 256, "Ny": 4, "L": 40.0},
                                    datum={"kind": "gaussian"}))
        x = cfg.grid().x_axis()
        assert np.abs(build_datum(cfg).samples()[:, 0] - np.exp(-x ** 2)).max() < 1e-12

    def test_file_time_tag_must_be_zero(self, tmp_path):
        from nlslab.field import SpectralField, save_field
        text, path, cfg = self.file_datum(tmp_path)
        c = np.ones(cfg.grid().shape, complex)
        save_field(SpectralField(cfg.grid(), c, 0.3), str(path))
        self.both_reject(text, cfg, f"^datum.path: {re.escape(str(path))}: "
                                    "time tag 0.3 is not 0")
        save_field(SpectralField(cfg.grid(), c, 0.0), str(path))
        assert build_datum(parse_config(text)).time_tag == 0.0


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
        from nlslab.field import lebesgue_norm, sobolev_h1
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
                (np.sum(a ** q) * f.grid.cell * f.grid.dy) ** (1.0 / q)
            assert rec.lq_norms[q] == pytest.approx(expect, rel=1e-13, abs=0)
        # the density pass gives every column, inf included, bit for bit
        assert rec.lq_norms == {q: lebesgue_norm(f, q) for q in q_list}


# y-independent data with some momentum
def _x_profile(d):
    if d == 1:
        return lambda x, y: 1.5 * np.exp(-x ** 2) * (1 + 0.2j * np.sin(x)) + 0.0 * y
    return lambda x1, x2, y: (np.exp(-(x1 ** 2 + x2 ** 2)) * (1 + 0.2j * np.cos(x1 - x2))
                              + 0.0 * y)


EPS = np.finfo(float).eps


def _term_bounds(f, cfg, rec, ell):
    """T_v for each records.csv column that reads a y sum: a bound on the
    sum of the |terms| that reach it, from the full-grid snapshot f and its
    record rec (ell: the auxiliary pair's power, or None).

    A column that sums positive terms bounds them by its value, times the
    power it takes of the sum: the mass, L^q norms, the cube masses, the
    potential of the energy and grad_lp.  The energy's kinetic part sums
    positive terms too (trace K and the y-mode power), and h1_norm is the
    root of mass + 2 kinetic, whose terms sum to h1_norm^2: it moves by
    half its square's relative bound, plus the root's rounding, within
    2 ntot eps h1_norm.  A Morawetz pairing <a, k * b> has |k| <= 1
    (|grad phi|, |hess phi| <= 1) or <= d (lap phi), so its terms sum to at
    most ||a||_1 ||b||_1 (times d), with ||P_i||_1 <= int |u| |d_i u|,
    ||K_ij||_1 <= int |d_i u| |d_j u| and ||d_i rho||_1 <= 2 int |u| |d_i u|.
    """
    g, alpha = f.grid, float(cfg.alpha_fraction())
    a = np.abs(f.samples())
    du = [np.abs(sfft.ifftn(f.coefficients * (1j * xg) * g.x_phase()) * g.ntot)
          for xg in g.xi_grids()]
    mass = float(np.sum(a ** 2)) * g.cell * g.dy
    p1 = sum(float(np.sum(a * di)) for di in du) * g.cell * g.dy
    k1 = float(np.sum(sum(du) ** 2)) * g.cell * g.dy
    n1 = float(np.sum(a ** (alpha + 2.0))) * g.cell * g.dy
    S = 8 * k1 * mass + 8 * p1 ** 2 + 2 * (2 * p1) ** 2
    rhs = 4 * alpha / (alpha + 2) * g.d * n1 * mass
    out = {"mass": rec["mass"], "h1_norm": rec["h1_norm"],
           "J": 4 * p1 * mass, "positivity_S": S, "morawetz_rhs": rhs,
           "morawetz_lhs": S + rhs,
           "energy": abs(rec["energy"]) + 2 * n1 / (alpha + 2),  # >= kinetic + |potential|
           "cube_sup": rec["cube_sup"],
           "cube_sup_integral": (alpha + 4) / 2 * rec["cube_sup_integral"]}
    out.update({k: v for k, v in rec.items() if k.startswith("lq_") and k != "lq_inf"})
    if ell is not None:
        out["acc_grad_lp"] = (ell / 2 + 1) * rec["acc_grad_lp"]
    return out


class TestColumnSnapshotRecords:
    """A record of a snapshot built from a y column takes its transforms and
    y sums on the column.  The record of the snapshot built from the same
    samples on the full grid is its oracle: the columns no y sum reaches are
    the same bytes, and the others lie within the summation bound."""

    @pytest.mark.parametrize("config, dt, every", [
        ({"preset": "decay"}, 1e-3, 2),  # the decay-1d grid
        ({"preset": "decay", "q_list": [4, 10 / 3, float("inf")]}, 1e-3, 3),
        ({"preset": "morawetz", "d": 2, "alpha": "3",
          "grid": {"Nx": 32, "Ny": 8, "L": 16.0}}, 1e-2, 1),
        ({"preset": "morawetz", "d": 2, "alpha": "4/3",
          "grid": {"Nx": 32, "Ny": 8, "L": 16.0},
          "q_list": [4, 10 / 3, float("inf")]}, 1e-2, 2),
        ({"preset": "soliton-control", "grid": {"Nx": 256, "Ny": 16, "L": 40.0},
          "q_list": [4, 10 / 3, float("inf")]}, 1e-2, 3),  # focusing
        ({"preset": "scattering", "grid": {"Nx": 256, "Ny": 16, "L": 40.0}}, 1e-2, 1),
    ], ids=["decay-1d", "decay-1d-q", "d2", "d2-q", "focusing-q", "scattering"])
    def test_records_csv_bytes(self, config, dt, every):
        from nlslab.cli import RecordBuilder
        from nlslab.field import SpectralField, from_profile
        from nlslab.integrator import StepControl, evolve
        cfg = parse_config(json.dumps(config))
        g = cfg.grid()
        columns = []
        evolve(from_profile(g, _x_profile(g.d)), cfg.physics(),
               StepControl(dt=dt, t_end=6 * dt, sample_every=every),
               sinks=[lambda fld, flag: columns.append(fld)])
        # every snapshot, step 0 included, is built from the column
        assert len(columns) >= 3 and all(f._column is not None for f in columns)
        full = [SpectralField.from_samples(g, f.samples().copy(), f.time_tag)
                for f in columns]
        rows = []
        for snaps in (columns, full):
            builder = RecordBuilder(cfg)
            for f in snaps:
                builder(f, False)
            buf = io.StringIO()
            emit_records(builder.records, buf, cfg.q_list)
            buf.seek(0)
            rows.append(read_records(buf))
        ell = builder.accumulators and float(builder.accumulators.aux.l)
        # A column record's y sums are Ny times the column's and the full
        # record's sum Ny rows, so they differ in the last bits (the name
        # predates that).  Every sum either record takes has at most ntot
        # terms ((2 Nx)^d <= ntot for the pairings' padded grid, as Ny >= 4),
        # so the recursive-summation bound puts each column v within
        # 2 ntot eps T_v of the oracle, T_v the sum of the |terms| that reach
        # it (_term_bounds).
        for f, got, want in zip(full, *rows):
            bounds = _term_bounds(f, cfg, want, ell)
            for name, value in want.items():
                if name in bounds:
                    assert abs(got[name] - value) <= 2 * g.ntot * EPS * bounds[name], name
                else:
                    assert got[name] == value, name

    def test_step0_record_of_a_coefficient_datum(self):
        # A file datum holds coefficients only.  The step-0 snapshot of its
        # run has the datum's samples, built into a column, and coefficients
        # one round trip of the transform pair away from the datum's.  Its
        # record is held to the datum's own record: the y sums within the
        # summation bound, as above, plus each column's share of the round
        # trip, |dc| <= beta |c| in l^2 with beta = 8 log2(ntot) eps (the
        # error bound of a radix-2 FFT, twice).
        from nlslab.cli import RecordBuilder
        from nlslab.field import SpectralField, from_profile
        from nlslab.integrator import StepControl, evolve
        cfg = parse_config(json.dumps({"preset": "decay"}))
        g = cfg.grid()
        datum = SpectralField(g, from_profile(g, _x_profile(1)).coefficients)
        snaps = []
        evolve(datum, cfg.physics(), StepControl(dt=1e-3, t_end=1e-3),
               sinks=[lambda fld, flag: snaps.append(fld)])
        step0 = snaps[0]
        assert step0._column is not None and step0.time_tag == 0.0
        assert step0.samples().tobytes() == datum.samples().tobytes()
        beta = 8 * math.log2(g.ntot) * EPS
        c0 = datum.coefficients
        assert np.linalg.norm(step0.coefficients - c0) <= beta * np.linalg.norm(c0)
        rows = []
        for f in (step0, datum):
            builder = RecordBuilder(cfg)
            builder(f, False)
            buf = io.StringIO()
            emit_records(builder.records, buf, cfg.q_list)
            buf.seek(0)
            rows.append(read_records(buf)[0])
        got, want = rows
        ell = builder.accumulators and float(builder.accumulators.aux.l)
        sums = _term_bounds(datum, cfg, want, ell)
        # The round trip moves mass and the kinetic energy, quadratic in c,
        # by at most (2 + beta) beta mass times the largest weight, and
        # h1_norm, a weighted l^2 norm of c, by sqrt(weight) beta sqrt(mass).
        # It moves each d_i u by at most D = xi_max beta sqrt(mass) in L^2,
        # where ||d_i u||_2 <= H = h1_norm, so P_i by sqrt(mass) D in L^1
        # and K_ij by D (2 H + D); the kernels of J and S are at most 1.
        mass, H = want["mass"], want["h1_norm"]
        xi_max = math.pi * g.Nx / g.L
        lap_max = g.d * xi_max ** 2 + (g.Ny / 2) ** 2
        D = xi_max * beta * math.sqrt(mass)
        trip = {"mass": (2 + beta) * beta * mass,
                "h1_norm": math.sqrt(1 + lap_max) * beta * math.sqrt(mass),
                "energy": 0.5 * lap_max * (2 + beta) * beta * mass,
                "J": 4 * g.d * mass * math.sqrt(mass) * D,
                "positivity_S": 16 * g.d ** 2 * mass * D * (2 * H + D)}
        trip["morawetz_lhs"] = trip["positivity_S"]
        assert got != want
        for name, value in want.items():
            if name in sums or name in trip:
                bound = 2 * g.ntot * EPS * sums.get(name, 0.0) + trip.get(name, 0.0)
                assert abs(got[name] - value) <= bound, name
            else:
                assert got[name] == value, name

    @pytest.mark.parametrize("config", [
        {"preset": "decay", "grid": {"Nx": 256, "Ny": 16, "L": 40.0}},
        {"preset": "morawetz", "d": 2, "alpha": "3", "grid": {"Nx": 32, "Ny": 8, "L": 16.0}},
    ], ids=["d1", "d2"])
    def test_no_full_grid_transform(self, config, monkeypatch):
        from nlslab import field, morawetz
        from nlslab.cli import RecordBuilder
        from nlslab.field import SpectralField, from_profile
        cfg = parse_config(json.dumps(config))
        g = cfg.grid()
        builder = RecordBuilder(cfg)
        assert builder.accumulators is not None  # the y-mode power is taken too
        col = from_profile(g, _x_profile(g.d)).samples()[..., :1].copy()
        fakes = []
        for t, samples in ((0.1, col), (0.2, np.broadcast_to(col, g.shape).copy())):
            snap = SpectralField.from_samples(g, samples, t)
            fake = _CountedFFT(g.ntot)
            monkeypatch.setattr(field, "sfft", fake)
            monkeypatch.setattr(morawetz, "sfft", fake)
            builder(snap, False)
            monkeypatch.undo()
            fakes.append(fake)
        column, grid = fakes
        assert column.calls == 0
        for i in range(g.d):  # the gradients' transform pairs, on the column
            for name in ("fft", "ifft"):
                assert (name, g.shape[:-1] + (1,), i) in column.log
        assert grid.calls > 0  # the counter sees a full-grid snapshot's transforms

    def test_no_full_grid_block(self):
        # The guard and a record of a column snapshot of the decay grid work
        # on the column.  The traced peak above the start stays below one
        # complex full-grid array, 16 ntot bytes, so no block of that size
        # is allocated; the snapshot's own coefficients are made before.
        # The same holds for a run whose datum holds coefficients only, as
        # a file datum does: from evolve's entry to the step-0 sink call
        # (the step-0 snapshot holds its column alone; its samples, its
        # coefficients and the full-grid phase would each be such a block),
        # and over the step-0 sink calls.
        import tracemalloc
        from nlslab.cli import RecordBuilder
        from nlslab.field import SpectralField, edge_cube_fraction
        from nlslab.integrator import StepControl, evolve
        cfg = parse_config(json.dumps({"preset": "decay"}))
        g = cfg.grid()
        snap = SpectralField.from_samples(g, _x_profile(1)(g.x_axis()[:, None], 0.0), 0.1)
        builder = RecordBuilder(cfg)
        assert builder.accumulators is not None  # the y-mode power is taken too
        datum, run_builder = SpectralField(g, snap.coefficients), RecordBuilder(cfg)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            edge_cube_fraction(snap)
            builder(snap, False)
            peak = tracemalloc.get_traced_memory()[1]
            marks = []

            def mark(fld, flag):
                if fld.time_tag == 0.0:
                    marks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.reset_peak()
                    marks.append(tracemalloc.get_traced_memory()[0])

            def measure(fld, flag):
                if fld.time_tag == 0.0:
                    marks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            evolve(datum, cfg.physics(), StepControl(dt=1e-3, t_end=1e-3),
                   sinks=[mark, run_builder, measure], guard_tol=cfg.guard_tol)
        finally:
            tracemalloc.stop()
        assert peak - start < 16 * g.ntot
        assert len(marks) == 3
        assert marks[0] - entry < 16 * g.ntot
        assert marks[2] - marks[1] < 16 * g.ntot
        assert datum._samples is None


def _records(builder_of, snaps, cfg):
    """The records.csv rows a RecordBuilder from builder_of(cfg) writes for
    the snapshots, read back, and the builder."""
    builder = builder_of(cfg)
    for f in snaps:
        builder(f, False)
    buf = io.StringIO()
    emit_records(builder.records, buf, cfg.q_list)
    buf.seek(0)
    return read_records(buf), builder


@pytest.mark.parametrize("config", [
    {"preset": "scattering", "grid": {"Nx": 128, "Ny": 4, "L": 40.0}},
    {"preset": "soliton-control", "grid": {"Nx": 256, "Ny": 4, "L": 80.0}},
], ids=["y-dependent", "column"])
def test_only_kept_snapshots_are_transformed(config, monkeypatch):
    # a record reads samples alone; the snapshots the Cauchy schedule keeps
    # take one forward transform each, on the grid or on the y column
    from nlslab import field
    from nlslab.cli import RecordBuilder
    from nlslab.integrator import evolve
    cfg = parse_config(json.dumps(dict(
        config, control={"dt": 0.01, "t_end": 0.5, "sample_every": 1})))
    g = cfg.grid()
    datum = build_datum(cfg)
    builder = RecordBuilder(cfg)
    fake = _CountedFFT(g.ntot)
    monkeypatch.setattr(field, "sfft", fake)
    evolve(datum, cfg.physics(), cfg.control(), sinks=[builder])
    kept = len(builder.snapshots)
    assert len(builder.records) == 51 and 3 <= kept < 51
    shape = g.shape if config["preset"] == "scattering" else g.shape[:-1] + (1,)
    assert [entry for entry in fake.log if entry[0] == "fftn"] == \
        [("fftn", shape, list(range(len(shape))) if shape == g.shape else [0])] * kept
    assert all(f._samples is None for f in builder.snapshots)


@pytest.mark.parametrize("name", ["decay-1d", "morawetz-2d", "scattering-1d"])
def test_record_integrals_match_the_coefficient_oracles(name):
    """The record's mass, energy and h1_norm come from its density pass and
    y-mode power, which read samples; integrator.mass, integrator.energy and
    field.sobolev_h1 read the coefficients (Parseval).  On each benchmark
    grid and datum the two agree within the sum of:

    * the recursive-summation bound of each sum, 2 ntot eps times the sum of
      its |terms|;
    * the rounding of the oracles' coefficients, one FFT of the samples,
      |dc| <= beta |c| in l^2 with beta = 8 log2(ntot) eps: a sum of
      w |c|^2 moves by at most (2 + beta) beta max(w) mass;
    * the rounding of the record's d_i u, a transform pair along x_i, within
      D = xi_max beta sqrt(mass) in L^2, which moves ||d_i u||^2 by at most
      D (2 H + D), H the H^1 norm; and of its y-mode power, one FFT along y,
      which moves the y part of ||grad u||^2 by (2 + beta) beta (Ny/2)^2 mass;
    * the potential's p-th root and power in lebesgue_norm and energy, 4 p
      eps of it.

    h1_norm = sqrt(mass + 2 kinetic) moves by the bound on its square over
    H, plus the rounding of the root.
    """
    from nlslab.cli import RecordBuilder
    from nlslab.field import SpectralField, lebesgue_norm, sobolev_h1
    from nlslab.integrator import energy, mass
    workloads = perfbench_workloads()
    wl = workloads.WORKLOADS[name]
    cfg = parse_config(json.dumps(wl.config))
    g, physics = cfg.grid(), cfg.physics()
    u = workloads.datum_samples(wl, 1)
    if (u == u[..., :1]).all():  # decay-1d: the column snapshot its run makes
        u = u[..., :1].copy()
    f = SpectralField.from_samples(g, u)
    rows, _ = _records(RecordBuilder, [f], cfg)
    rec = rows[0]
    m, H, p = mass(f), sobolev_h1(f), physics.alpha + 2.0
    kinetic, potential = (H ** 2 - m) / 2, lebesgue_norm(f, p) ** p / p
    summed, beta = 2 * g.ntot * EPS, 8 * math.log2(g.ntot) * EPS
    xi_max, n_max = math.pi * g.Nx / g.L, g.Ny / 2
    D = xi_max * beta * math.sqrt(m)
    bound = {"mass": (summed + (2 + beta) * beta) * m}
    kinetic_bound = summed * kinetic + 0.5 * (
        (2 + beta) * beta * (g.d * xi_max ** 2 + 2 * n_max ** 2) * m
        + g.d * D * (2 * H + D))
    bound["energy"] = kinetic_bound + (summed + 4 * p * EPS) * potential
    bound["h1_norm"] = (bound["mass"] + 2 * kinetic_bound) / H + 2 * EPS * H
    want = {"mass": m, "energy": energy(f, physics), "h1_norm": H}
    for key, value in want.items():
        assert abs(rec[key] - value) <= bound[key], key


@pytest.mark.parametrize("config", [
    {"preset": "scattering", "grid": {"Nx": 256, "Ny": 16, "L": 40.0}},
    {"preset": "morawetz", "d": 2, "alpha": "3", "grid": {"Nx": 32, "Ny": 8, "L": 16.0}},
], ids=["d1", "d2"])
def test_pairings_match_the_coefficient_path(config, monkeypatch):
    """J, S, lhs and acc_grad_lp of a y-dependent run, whose density pass
    takes d_i u and d_i rho by a transform pair along x_i, against the
    records of the same snapshots with the coefficient path the pass took
    before (conftest.coefficient_path_derivative) in its place.  rhs reads
    neither derivative and keeps its bytes.

    With beta = 8 log2(ntot) eps, the two derivatives of u differ by at most
    D = xi_max beta sqrt(mass) in L^2 and those of rho by
    D_rho = xi_max beta ||rho||_2, as the test checks, so with H the H^1
    norm, ||dP_i||_1 <= sqrt(mass) D and ||dK_ij||_1 <= D (2 H + D); on the
    box of measure L^d, ||d d_i rho||_1 <= sqrt(L^d) D_rho, and
    ||d_i rho||_1 <= 2 sqrt(mass) H.  The kernels of J and S are at most 1,
    so J moves by at most 4 d mass^(3/2) D and S (and lhs) by
    16 d^2 mass D (2 H + D) + 2 d^2 (4 sqrt(L^d) D_rho sqrt(mass) H
    + L^d D_rho^2).  Each record rounds its own sums besides, within
    2 ntot eps T_v (_term_bounds).

    acc_grad_lp folds G^l over time, G = ||sqrt(tr K)||_{L^p_x}.  A sup is
    at most the l^2 norm of the grid values, so |d d_i u| <= E =
    D / sqrt(cell dy) at every point, |d tr K| <= 2 pi d (2 A E + E^2) with
    A = max |d_i u|, and G moves by at most delta = L^(d/p)
    sqrt(2 pi d (2 A E + E^2)); G^l by l (G + delta)^(l-1) delta, and the
    trapezoid fold adds up these moves.
    """
    from nlslab import field
    from nlslab.cli import RecordBuilder
    from nlslab.field import _lr_x, densities, from_profile
    from nlslab.integrator import StepControl, evolve
    cfg = parse_config(json.dumps(config))
    g = cfg.grid()
    profile = _x_profile(g.d)
    snaps = []
    evolve(from_profile(g, lambda *a: profile(*a) * (1 + 0.3 * np.cos(a[-1]))),
           cfg.physics(), StepControl(dt=1e-2, t_end=6e-2, sample_every=2),
           sinks=[lambda fld, flag: snaps.append(fld)])
    assert len(snaps) == 4 and all(f._column is None for f in snaps)
    pair = field._x_derivative
    got, _ = _records(RecordBuilder, snaps, cfg)
    monkeypatch.setattr(field, "_x_derivative", coefficient_path_derivative)
    want, builder = _records(RecordBuilder, snaps, cfg)
    acc = builder.accumulators
    ell, p = float(acc.aux.l), float(acc.aux.p)
    beta, xi_max = 8 * math.log2(g.ntot) * EPS, math.pi * g.Nx / g.L
    Ld = g.L ** g.d
    moves = []  # the bound on the move of G^l per snapshot
    for f, new, old in zip(snaps, got, want):
        ds = densities(f, 2.0)  # the oracle's pass: only rho, K and their sums are read
        u, mass, H = f.samples(), old["mass"], old["h1_norm"]
        D = xi_max * beta * math.sqrt(mass)
        D_rho = xi_max * beta * math.sqrt(g.cell * np.sum(ds.rho ** 2))
        A = 0.0
        for i in range(g.d):
            oracle = coefficient_path_derivative(u, g, i)
            A = max(A, np.abs(oracle).max())
            d_u = pair(u, g, i) - oracle
            assert math.sqrt(g.cell * g.dy * np.sum(np.abs(d_u) ** 2)) <= D
            d_rho = pair(ds.rho, g, i) - coefficient_path_derivative(ds.rho, g, i)
            assert math.sqrt(g.cell * np.sum(np.abs(d_rho) ** 2)) <= D_rho
        sums = _term_bounds(f, cfg, old, ell)
        rounding = {k: 2 * g.ntot * EPS * sums[k]
                    for k in ("J", "positivity_S", "morawetz_lhs", "acc_grad_lp")}
        shift = {"J": 4 * g.d * mass ** 1.5 * D,
                 "positivity_S": 16 * g.d ** 2 * mass * D * (2 * H + D)
                 + 2 * g.d ** 2 * (4 * math.sqrt(Ld) * D_rho * math.sqrt(mass) * H
                                   + Ld * D_rho ** 2)}
        shift["morawetz_lhs"] = shift["positivity_S"]
        for key, value in shift.items():
            assert abs(new[key] - old[key]) <= value + 2 * rounding[key], key
        assert new["morawetz_rhs"] == old["morawetz_rhs"]
        E = D / math.sqrt(g.cell * g.dy)
        delta = Ld ** (1 / p) * math.sqrt(2 * math.pi * g.d * (2 * A * E + E ** 2))
        G = _lr_x(np.trace(ds.K), p, g.cell)
        moves.append(ell * (G + delta) ** (ell - 1) * delta + 2 * rounding["acc_grad_lp"])
    total = 0.0
    for k in range(1, len(snaps)):
        total += 0.5 * (moves[k - 1] + moves[k]) * (snaps[k].time_tag - snaps[k - 1].time_tag)
        assert abs(got[k]["acc_grad_lp"] - want[k]["acc_grad_lp"]) <= total


@pytest.mark.parametrize("config", [
    {"preset": "decay", "grid": {"Nx": 256, "Ny": 16, "L": 40.0}},
    {"preset": "morawetz", "d": 2, "alpha": "3", "grid": {"Nx": 32, "Ny": 8, "L": 16.0},
     "datum": {"kind": "gaussian", "y_modulation": 0.3}},
], ids=["d1-column", "d2"])
def test_record_equals_the_morawetz_recorder(config):
    # a record's Morawetz columns are a MorawetzRecorder sample of the same
    # snapshot, bit for bit
    from nlslab.cli import RecordBuilder
    from nlslab.integrator import StepControl, evolve
    from nlslab.morawetz import MorawetzRecorder
    cfg = parse_config(json.dumps(config))
    recorder, builder = MorawetzRecorder(cfg.physics()), RecordBuilder(cfg)
    evolve(build_datum(cfg), cfg.physics(), StepControl(dt=1e-3, t_end=5e-3, sample_every=2),
           sinks=[recorder, builder])
    assert len(recorder.samples) == len(builder.records) == 4
    for s, r in zip(recorder.samples, builder.records):
        assert [x.hex() for x in (s.t, s.J, s.lhs, s.rhs, s.S, s.cube_sup,
                                  s.cube_sup_integral)] == \
            [x.hex() for x in (r.t, r.J, r.morawetz_lhs, r.morawetz_rhs, r.positivity_S,
                               r.cube_sup, r.cube_sup_integral)]


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

    def test_close_q_values_get_their_own_columns(self):
        q_list = [4, 4.000001]
        rec = make_record(0.1, lq_norms={4: 0.5, 4.000001: 0.25})
        buf = io.StringIO()
        emit_records([rec], buf, q_list)
        buf.seek(0)
        rows = read_records(buf)
        assert len(rows[0]) == 18
        assert rows[0]["lq_4"] == 0.5
        assert rows[0]["lq_4.0000010000000001"] == 0.25  # 17 significant digits

    def test_preset_q_columns_keep_their_names(self):
        from nlslab.cli import _columns
        names = [name for name, _ in _columns([4.0, 6.0, float("inf"), 10 / 3])]
        assert names[4:8] == ["lq_4", "lq_6", "lq_inf", "lq_3.3333333333333335"]

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

    @pytest.mark.parametrize("r, resolution", [
        (Fraction(100), Fraction(1, 100)),  # r outside the feasible interval
        (Fraction(8), Fraction(1, 4)),      # no feasible theta on the grid
    ])
    def test_no_theta_tuple_is_not_feasible(self, r, resolution):
        rep = exponent_report(1, Fraction(5), r=r, theta_resolution=resolution)
        assert "theta_tuple" not in rep
        assert rep["critical_tuple"]["report"]["feasible"] is (r == 8)
        assert rep["all_feasible"] is False


_NO_THETA_OPTIONS = [{"r": "100"}, {"r": "8", "theta_resolution": "1/4"}]


class TestRunPreset:
    @pytest.mark.parametrize("over", _NO_THETA_OPTIONS)
    def test_exponents_preset_without_theta(self, tmp_path, over):
        cfg = parse_config(cfg_text(preset="exponents", output_dir=str(tmp_path), **over))
        assert run_preset(cfg) == 1
        assert load_json(tmp_path / "exponents.json")["all_feasible"] is False
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["checks"] == {"all_feasible": False}
        assert manifest["exit_status"] == 1

    @pytest.mark.parametrize("over", _NO_THETA_OPTIONS)
    def test_scattering_run_without_theta(self, tmp_path, over):
        from nlslab.cli import RecordBuilder
        cfg = parse_config(cfg_text(
            preset="scattering", grid={"Nx": 128, "Ny": 4, "L": 40.0},
            control={"dt": 0.01, "t_end": 1.0, "sample_every": 2},
            output_dir=str(tmp_path), **over))
        assert RecordBuilder(cfg).accumulators is None
        assert run_preset(cfg) == 1  # accumulators_saturated fails
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["aborted"] is False
        assert manifest["checks"]["accumulators_saturated"] is False
        report = load_json(tmp_path / "scatter_report.json")
        assert report["accumulators"] == {}

    def test_exponents_preset(self, tmp_path):
        cfg = parse_config(cfg_text(preset="exponents", alpha="5",
                                    output_dir=str(tmp_path)))
        assert run_preset(cfg) == 0
        rep = load_json(tmp_path / "exponents.json")
        assert rep["all_feasible"] is True
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["exit_status"] == 0
        assert manifest["alpha_exact"] == "5"
        assert manifest["y_independent"] is None  # no datum, no run

    def test_small_decay_run_writes_artifacts(self, tmp_path):
        cfg = parse_config(cfg_text(
            grid={"Nx": 256, "Ny": 4, "L": 60.0},
            control={"dt": 0.01, "t_end": 0.5, "sample_every": 10},
            output_dir=str(tmp_path)))
        run_preset(cfg)  # short run; decay checks may fail, artifacts must exist
        manifest = load_json(tmp_path / "manifest.json")
        assert (tmp_path / "records.csv").exists()
        assert set(manifest["checks"]) >= {"morawetz_inequality", "positivity",
                                           "guard_never_fired"}
        assert manifest["checks"]["morawetz_inequality"] is True
        assert manifest["checks"]["positivity"] is True
        assert manifest["y_independent"] is True  # the decay preset's Gaussian

    def test_y_modulated_datum_takes_the_full_path(self, tmp_path):
        cfg = parse_config(cfg_text(
            grid={"Nx": 256, "Ny": 4, "L": 60.0},
            control={"dt": 0.01, "t_end": 0.1, "sample_every": 10},
            datum={"kind": "gaussian", "y_modulation": 0.3},
            output_dir=str(tmp_path)))
        run_preset(cfg)
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["y_independent"] is False

    @pytest.mark.parametrize("mod", [0.0, 0.3])
    def test_y_independence_judged_once(self, tmp_path, monkeypatch, mod):
        # run_preset writes the judgement into the manifest and evolve steps
        # by it: the datum remembers it, so a file datum is scanned once
        from nlslab import field
        from nlslab.field import SpectralField, from_profile, save_field
        text = cfg_text(grid={"Nx": 256, "Ny": 4, "L": 60.0},
                        control={"dt": 0.01, "t_end": 0.1, "sample_every": 5},
                        output_dir=str(tmp_path / "out"))
        g = parse_config(text).grid()
        datum = from_profile(g, lambda x, y: np.exp(-x ** 2) * (1 + mod * np.cos(y)))
        path = tmp_path / "datum.bin"
        save_field(SpectralField(g, datum.coefficients), str(path))
        cfg = parse_config(cfg_text(**json.loads(text),
                                    datum={"kind": "file", "path": str(path)}))
        scans = []

        def counted(fld, _scan=field._y_constant):
            scans.append(fld._samples is None)  # read from the coefficients
            return _scan(fld)
        monkeypatch.setattr(field, "_y_constant", counted)
        run_preset(cfg)
        assert scans == [True]
        assert load_json(tmp_path / "out" / "manifest.json")["y_independent"] is (mod == 0)

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

    @pytest.mark.parametrize("preset, checks", [
        ("scattering", {"cauchy_strictly_decreasing": False,
                        "cauchy_terminal_small": False,
                        "accumulators_saturated": True}),
        ("soliton-control", {"no_decay": False, "no_scattering": True}),
    ])
    def test_zero_datum_gets_a_verdict(self, tmp_path, preset, checks):
        # every L^q value is 0: the decay ratio is 0.0 and no_decay fails
        cfg = parse_config(cfg_text(
            preset=preset, grid={"Nx": 128, "Ny": 4, "L": 40.0},
            control={"dt": 0.01, "t_end": 1.0, "sample_every": 2},
            datum={"kind": "gaussian", "amplitude": 0}, output_dir=str(tmp_path)))
        assert run_preset(cfg) == 1
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["aborted"] is False
        assert manifest["checks"] == checks
        report = load_json(tmp_path / "scatter_report.json")
        assert report["decay"]["4.0"]["ratio_last_to_max"] == 0.0

    def test_soliton_control_small(self, tmp_path):
        cfg = parse_config(cfg_text(
            preset="soliton-control",
            grid={"Nx": 1024, "Ny": 4},
            control={"dt": 2e-3, "t_end": 4.0, "sample_every": 50},
            output_dir=str(tmp_path)))
        status = run_preset(cfg)
        manifest = load_json(tmp_path / "manifest.json")
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

    def test_row_cut_midway_is_one_line_error(self, tmp_path, capsys):
        # a killed writer leaves its last row cut short
        path = tmp_path / "records.csv"
        with open(path, "w") as fh:
            emit_records([make_record(0.0), make_record(0.1)], fh, [4.0])
        text = path.read_text()
        last = text.splitlines()[-1]
        cut = len(text) - len(last) - 1 + last.index(",", len(last) // 2)
        path.write_text(text[:cut])
        with open(path) as fh:
            with pytest.raises(ValueError, match="^row 1 does not have the header's 17 fields"):
                read_records(fh)
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"nlslab verify: {path}: row 1 does not have the "
                                    "header's 17 fields"]

    @pytest.mark.parametrize("text, message", [
        ("t,mass,ener", "no rows: a complete run writes at least its step-0 record"),
        ("a,b\n1,2\n", "the header lacks the checked columns ['morawetz_lhs', "
         "'morawetz_rhs', 'mass', 'h1_norm', 'positivity_S']"),
        ("t\n" + "1" * 200_000, "field larger than field limit (131072)"),
    ], ids=["cut-in-header", "foreign-header", "csv-error"])
    def test_unverifiable_file_is_one_line_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "records.csv"
        path.write_text(text)
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nlslab verify: {path}: {message}"]

    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"nlslab verify: {path}: ")

    def test_large_finite_values_get_a_verdict(self, tmp_path, capsys):
        from nlslab.cli import _violations
        # (mass + h1_norm)^4 and mass^2 overflow a float: the tolerances are inf
        assert _violations(1.0, 0.5, 1e200, 1.0, 0.0) == {}
        # lhs - rhs overflows to -inf, below any tolerance
        assert set(_violations(-1e308, 1e308, 1.0, 1.0, -1e308)) == {
            "morawetz_inequality", "positivity"}
        path = tmp_path / "records.csv"
        with open(path, "w") as fh:
            emit_records([make_record(0.0, mass=1e200)], fh, [4.0])
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1 rows checked, 0 violations"


NONFINITE = (math.nan, math.inf, -math.inf)


def cauchy_report(times, C, saturation=None):
    """A scatter report around a given Cauchy table, flagged as
    make_scatter_report flags it."""
    from nlslab.scattering import ScatterReport, cauchy_tail_decreasing
    return ScatterReport(times=list(times), cauchy=C, decay={},
                         accumulator_totals={},
                         accumulator_saturation=saturation or {},
                         flags={"cauchy_tail_decreasing": cauchy_tail_decreasing(C)})


def failed(checks):
    return {k for k, ok in checks.items() if not ok}


class TestChecksFailClosed:
    """A NaN or an infinity in any value a check reads fails that check."""

    # the run checks that read each Morawetz column
    @pytest.mark.parametrize("column, readers", [
        ("morawetz_lhs", {"morawetz_inequality"}),
        ("morawetz_rhs", {"morawetz_inequality"}),
        ("mass", {"morawetz_inequality", "positivity"}),
        ("h1_norm", {"positivity"}),
        ("positivity_S", {"positivity"}),
    ])
    def test_morawetz_columns(self, column, readers, tmp_path, capsys):
        from nlslab.cli import _morawetz_checks
        assert failed(_morawetz_checks([make_record(0.0)])) == set()
        for bad in NONFINITE:
            records = [make_record(0.0), make_record(0.1, **{column: bad}),
                       make_record(0.2)]
            assert failed(_morawetz_checks(records)) == readers, bad
            path = tmp_path / "records.csv"
            with open(path, "w") as fh:
                emit_records(records, fh, [4.0])
            assert main(["verify", str(path)]) == 1, bad
            assert f"{len(readers)} violations" in capsys.readouterr().out

    DECAY_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    DECAY_VALUES = (1.0, 0.8, 0.5, 0.4, 0.3, 0.2)

    def decay_checks(self, lq, cube):
        from nlslab.cli import _decay_checks
        records = [make_record(t, lq_norms={4.0: a}, cube_sup=b)
                   for t, a, b in zip(self.DECAY_TIMES, lq, cube)]
        return _decay_checks(records, parse_config(cfg_text()))

    @pytest.mark.parametrize("series", ["lq", "cube"])
    @pytest.mark.parametrize("from_t1", [False, True], ids=["t<1", "t>=1"])
    def test_decay_values(self, series, from_t1):
        from nlslab.scattering import decay_series
        good = list(self.DECAY_VALUES)
        assert failed(self.decay_checks(good, good)) == set()
        last = len(self.DECAY_TIMES) - 1
        for i, t in enumerate(self.DECAY_TIMES):
            if (t >= 1.0) != from_t1:
                continue
            for bad in NONFINITE:
                vals = {"lq": list(good), "cube": list(good)}
                vals[series][i] = bad
                # the factor check reads the values at t <= 1 and the last
                # one, the tail rule those at t >= 1
                expect = {f"{series}_decay_factor_3"} if t <= 1.0 or i == last \
                    else set()
                if t >= 1.0:
                    expect.add(f"{series}_monotone_tail")
                assert failed(self.decay_checks(vals["lq"], vals["cube"])) \
                    == expect, (i, bad)
                ds = decay_series(list(self.DECAY_TIMES), 1, {4.0: vals[series]})
                assert ds[4.0].monotone_tail is (t < 1.0), (i, bad)

    def test_tail_of_one_sample_is_not_settled(self):
        # a decay run that ends before one sample past t = 1
        checks = self.decay_checks([1.0, 0.8, 0.2], [1.0, 0.8, 0.2])
        assert failed(checks) == {"lq_monotone_tail", "cube_monotone_tail"}

    def soliton_records(self):
        return [make_record(t, lq_norms={4.0: 0.5, 6.0: 0.4}) for t in (0.0, 0.1, 0.2)]

    @pytest.mark.parametrize("q", [4.0, 6.0])
    def test_soliton_lq_values(self, q):
        from nlslab.cli import _soliton_checks
        report = cauchy_report([1.0, 2.0, 3.0], 1.0 - np.eye(3))  # not decreasing
        assert failed(_soliton_checks(self.soliton_records(), report)) == set()
        for i in range(3):
            for bad in NONFINITE:
                records = self.soliton_records()
                records[i].lq_norms[q] = bad
                assert failed(_soliton_checks(records, report)) == {"no_decay"}, \
                    (i, bad)

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    def test_cauchy_entries_of_no_scattering(self, i, j):
        from nlslab.cli import _soliton_checks
        C = 1.0 - np.eye(4)
        assert failed(_soliton_checks(self.soliton_records(),
                                      cauchy_report(range(4), C))) == set()
        for bad in NONFINITE:
            C = 1.0 - np.eye(4)
            C[i, j] = C[j, i] = bad
            assert failed(_soliton_checks(self.soliton_records(),
                                          cauchy_report(range(4), C))) \
                == {"no_scattering"}, bad

    @pytest.mark.parametrize("times, i", [
        ((1.0, 2.0, 5.0, 6.0, 7.0, 8.0), 2),
        ((1.0, 2.0, 5.0, 6.0, 7.0, 8.0), 3),
        ((1.0, 2.0, 5.0, 6.0, 7.0, 8.0), 4),
        ((1.0, 2.0, 3.0, 5.0, 6.0), 3),  # the only difference at t >= 5
    ])
    def test_cauchy_differences_from_t5(self, times, i):
        from nlslab.cli import _scattering_checks
        w = np.exp(-np.array(times))
        sat = {"u_lp": 1e-9}
        C = np.abs(w[:, None] - w[None, :])
        # one difference alone is neither a decrease nor below 0.2 times itself
        good = set() if len(times) == 6 else \
            {"cauchy_strictly_decreasing", "cauchy_terminal_small"}
        assert failed(_scattering_checks(cauchy_report(times, C, sat))) == good
        assert cauchy_report(times, C).flags["cauchy_tail_decreasing"] is True
        for bad in NONFINITE:
            C = np.abs(w[:, None] - w[None, :])
            C[i, i + 1] = C[i + 1, i] = bad
            report = cauchy_report(times, C, sat)
            assert failed(_scattering_checks(report)) == \
                {"cauchy_strictly_decreasing", "cauchy_terminal_small"}, bad
            assert report.flags["cauchy_tail_decreasing"] is False, bad

    @pytest.mark.parametrize("key", ["theta_norm", "u_lp", "dy_lp", "grad_lp"])
    def test_first_accumulator_increment(self, key):
        from nlslab.cli import RecordBuilder, _scattering_checks
        times = [1.0, 2.0, 5.0, 6.0, 7.0, 8.0]
        w = np.exp(-np.array(times))
        C = np.abs(w[:, None] - w[None, :])
        cfg = parse_config(cfg_text(preset="scattering",
                                    grid={"Nx": 128, "Ny": 4, "L": 40.0}))
        for bad in (1.0,) + NONFINITE:
            acc = RecordBuilder(cfg).accumulators
            keys = list(acc.totals)
            stream = iter([dict.fromkeys(keys, 1.0) | {key: bad},
                           dict.fromkeys(keys, 1.0), dict.fromkeys(keys, 1e-9),
                           dict.fromkeys(keys, 1e-9)])
            acc._instant = lambda fld, ds: next(stream)
            for t in (0.0, 0.1, 0.2, 0.3):
                acc.update(t, None, None)
            checks = _scattering_checks(cauchy_report(times, C, acc.saturation()))
            assert failed(checks) == (set() if bad == 1.0
                                      else {"accumulators_saturated"}), bad


class TestMain:
    def test_exponents_command(self, capsys):
        assert main(["exponents", "--d", "1", "--alpha", "5", "--r", "8"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["critical_tuple"]["q"] == "80/11"

    @pytest.mark.parametrize("args", [["--r", "100"],
                                      ["--r", "8", "--theta-resolution", "1/4"]])
    def test_exponents_without_theta_exits_1(self, capsys, args):
        assert main(["exponents", "--d", "1", "--alpha", "5"] + args) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["all_feasible"] is False
        assert err == ""

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
        (["--d", "1", "--alpha", "5", "--theta-resolution", "1"],
         "theta_resolution = '1': "),
    ])
    def test_bad_exponents_input_exits_2(self, capsys, args, message):
        with pytest.raises(SystemExit) as exc:
            main(["exponents"] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"nlslab: error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, message", [
        ('{"preset": "decay", "lam": 2}', "physics.lam must be +1 or -1"),
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

    @pytest.mark.parametrize("over, message", [
        ({"guard_tol": 1e-3}, "unknown config fields: ['guard_tol']"),
        ({"delta": "1/20"}, "unknown config fields: ['delta']"),
        ({"datum": {"kind": "plane_wave"}},
         "datum.kind = 'plane_wave': unknown datum kind"),
    ], ids=["guard_tol", "delta", "plane_wave"])
    def test_removed_settings_exit_2(self, tmp_path, capsys, over, message):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(cfg_text(output_dir=str(tmp_path / "out"), **over))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cpath)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"nlslab: error: {message}"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("q_list", [[4, 10 ** 400],
                                        [9007199254740993, 9007199254740992]],
                             ids=["overflow", "same-float"])
    def test_q_list_float_images_exit_2(self, tmp_path, capsys, q_list):
        # each q runs as its float image, which must exist and be its own
        cpath = tmp_path / "cfg.json"
        cpath.write_text(cfg_text(output_dir=str(tmp_path / "out"), q_list=q_list,
                                  grid={"Nx": 128, "Ny": 4, "L": 40.0},
                                  control={"dt": 0.01, "t_end": 0.02}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cpath)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"nlslab: error: q_list = {q_list!r}: ")
        assert "float images do not overflow and are distinct" in err
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
        # the theta tuple keeps the base tuple's r; delta = 1/20 at s = 1/10
        base, _ = critical_tuple(ProblemParams(1, Fraction(5)))
        expect = mixed_norm(fld, float(base.r), 0.5 + float(Fraction(1, 20)))
        assert builder.records[-1].mixed_norm_theta == expect

    def test_theta_regularity_derived_near_the_energy_critical_power(self, tmp_path):
        # d = 2, alpha = 15/4: s = 7/15, so delta = 1/2 - s = 1/30, where
        # 1/20 would put 1/2 + delta + s above 1
        from nlslab.cli import RecordBuilder
        from nlslab.exponents import ProblemParams, critical_tuple
        from nlslab.field import mixed_norm
        cfg = parse_config(json.dumps({
            "preset": "morawetz", "d": 2, "alpha": "15/4",
            "grid": {"Nx": 32, "Ny": 4, "L": 16.0},
            "control": {"dt": 0.01, "t_end": 0.02, "sample_every": 1},
            "output_dir": str(tmp_path)}))
        fld = build_datum(cfg)
        builder = RecordBuilder(cfg)
        assert builder.accumulators.delta == Fraction(1, 30)
        builder(fld, False)
        base, _ = critical_tuple(ProblemParams(2, Fraction(15, 4)))
        expect = mixed_norm(fld, float(base.r), 0.5 + float(Fraction(1, 30)))
        assert builder.records[-1].mixed_norm_theta == expect
        run_preset(cfg)
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["aborted"] is False
        assert manifest["checks"]["morawetz_inequality"] is True

    def test_delta_on_presets_and_workloads(self, monkeypatch):
        from nlslab.cli import RecordBuilder
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
        spec.loader.exec_module(workloads)
        configs = [{"preset": p} for p in ("decay", "morawetz", "scattering")]
        configs += [w.config for w in workloads.WORKLOADS.values()]
        for config in configs:
            acc = RecordBuilder(parse_config(json.dumps(config))).accumulators
            assert acc.delta == Fraction(1, 20), config

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

    def run_with_capture(self, tmp_path, monkeypatch):
        """run_preset on small_cfg, with a second sink that keeps every
        emitted snapshot; returns (builder, emitted, scatter report JSON)."""
        from nlslab import cli, integrator
        seen, emitted = {}, []

        def evolve(initial, physics, control, sinks=(), **kw):
            seen["builder"] = sinks[0]
            return integrator.evolve(
                initial, physics, control,
                sinks=[*sinks, lambda fld, flag: emitted.append(fld)], **kw)
        monkeypatch.setattr(cli, "evolve", evolve)
        cfg = self.small_cfg()
        cfg.output_dir = str(tmp_path)
        run_preset(cfg)
        with open(tmp_path / "scatter_report.json") as fh:
            return seen["builder"], emitted, json.load(fh)

    def test_report_decay_is_the_records_lq(self, tmp_path, monkeypatch):
        from nlslab.field import lebesgue_norm
        builder, emitted, report = self.run_with_capture(tmp_path, monkeypatch)
        kept = [f for f in emitted if f.time_tag in report["times"]]
        assert len(kept) == len(report["times"]) == len(builder.snapshots) >= 3
        for q in builder.cfg.q_list:
            assert report["decay"][str(q)]["values"] == \
                [lebesgue_norm(f, q) for f in kept]

    def test_kept_snapshots_hold_coefficients_only(self, tmp_path, monkeypatch):
        builder, emitted, _ = self.run_with_capture(tmp_path, monkeypatch)
        by_time = {f.time_tag: f for f in emitted}
        for snap in builder.snapshots:
            assert snap._samples is None
            assert np.shares_memory(snap.coefficients,
                                    by_time[snap.time_tag].coefficients)


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
    def small_text(self, out):
        return cfg_text(grid={"Nx": 128, "Ny": 4, "L": 40.0},
                        control={"dt": 0.01, "t_end": 0.2, "sample_every": 5},
                        output_dir=str(out))

    def small_cfg(self, out):
        return parse_config(self.small_text(out))

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
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["aborted"] is True
        assert "non-finite state at t = 0.05" in manifest["error"]
        assert manifest["records_written"] == 1
        assert manifest["exit_status"] == 1
        assert manifest["y_independent"] is True

        capsys.readouterr()
        assert main(["verify", str(tmp_path / "records.csv")]) == 1
        assert "partial records file after 1 rows" in capsys.readouterr().err

    def test_keyboard_interrupt_in_a_sink(self, tmp_path, monkeypatch, capsys):
        from nlslab import cli, integrator
        calls = []

        def interrupt_at_second_sample(fld, guard_breached):
            calls.append(fld.time_tag)
            if len(calls) == 2:
                raise KeyboardInterrupt

        def evolve(initial, physics, control, sinks=(), **kwargs):
            return integrator.evolve(initial, physics, control,
                                     sinks=[*sinks, interrupt_at_second_sample],
                                     **kwargs)

        monkeypatch.setattr(cli, "evolve", evolve)
        with pytest.raises(KeyboardInterrupt):
            run_preset(self.small_cfg(tmp_path))
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == 4  # header, two records, marker
        assert lines[-1] == "# PARTIAL FILE: run aborted"
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["aborted"] is True
        assert manifest["error"] == "KeyboardInterrupt"
        assert manifest["records_written"] == 2
        assert manifest["exit_status"] == 1
        assert main(["verify", str(tmp_path / "records.csv")]) == 1
        assert "partial records file after 2 rows" in capsys.readouterr().err

    def test_sigterm_in_a_sink(self, tmp_path, monkeypatch, capsys):
        from nlslab import cli, integrator
        calls, caught = [], []

        def terminate_at_second_sample(fld, guard_breached):
            calls.append(fld.time_tag)
            if len(calls) == 2:
                os.kill(os.getpid(), signal.SIGTERM)

        def evolve(initial, physics, control, sinks=(), **kwargs):
            return integrator.evolve(initial, physics, control,
                                     sinks=[*sinks, terminate_at_second_sample],
                                     **kwargs)

        def outer(signum, frame):  # stands in for the handler a caller had
            caught.append(signum)

        monkeypatch.setattr(cli, "evolve", evolve)
        cpath = tmp_path / "cfg.json"
        cpath.write_text(self.small_text(tmp_path))
        previous = signal.signal(signal.SIGTERM, outer)
        try:
            status = main(["run", "--config", str(cpath)])
            assert signal.getsignal(signal.SIGTERM) is outer
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert caught == [] and len(calls) == 2
        assert status == 143
        assert "aborted by SIGTERM" in capsys.readouterr().err
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == 4  # header, two records, marker
        assert lines[-1] == "# PARTIAL FILE: run aborted"
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["aborted"] is True
        assert manifest["error"] == "SIGTERM"
        assert manifest["records_written"] == 2
        assert manifest["exit_status"] == 143

    def test_sigterm_while_the_kick_is_split(self, tmp_path):
        # a subprocess run on a 4096 x 16 grid, whose kick runs in row blocks
        # on the kick's thread pool, stopped by SIGTERM while it steps
        import subprocess
        import time
        import nlslab
        out = tmp_path / "out"
        cpath = tmp_path / "cfg.json"
        cpath.write_text(cfg_text(
            grid={"Nx": 4096, "Ny": 16, "L": 400.0},
            control={"dt": 1e-3, "t_end": 30.0, "sample_every": 10},
            datum={"kind": "gaussian", "y_modulation": 0.3}, output_dir=str(out)))
        script = tmp_path / "run.py"
        script.write_text(
            "import atexit, sys\n"
            "from nlslab import cli, integrator\n"
            "split, calls = integrator._split_kick, []\n"
            "def counted(*args):\n"
            "    calls.append(args[-1])\n"
            "    return split(*args)\n"
            "integrator._split_kick = counted\n"
            "atexit.register(lambda: print(f'split kicks: {len(calls)}', file=sys.stderr))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        env = dict(os.environ)
        env.pop("NLSLAB_THREADS", None)
        src = os.path.dirname(os.path.dirname(nlslab.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, str(script), "run", "--config", str(cpath)],
                                env=env, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60.0
            while not out.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(1.5)  # run_preset makes the directory just before evolve
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 143
        assert "aborted by SIGTERM" in err and "Traceback" not in err
        kicks = int(re.search(r"split kicks: (\d+)", err).group(1))
        assert (kicks > 0) == ((os.cpu_count() or 1) > 1)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is True and manifest["error"] == "SIGTERM"
        assert manifest["exit_status"] == 143 and manifest["y_independent"] is False
        lines = (out / "records.csv").read_text().splitlines()
        assert manifest["records_written"] >= 1
        assert len(lines) == manifest["records_written"] + 2  # header and marker
        assert lines[-1] == "# PARTIAL FILE: run aborted"

    @pytest.mark.parametrize("preset, name", [("decay", "_decay_checks"),
                                              ("scattering", "make_scatter_report")])
    def test_error_after_evolve(self, tmp_path, monkeypatch, preset, name):
        # an error in the checks or the scatter report takes the abort path too
        from nlslab import cli

        def fail(*args, **kwargs):
            raise ValueError("no verdict")
        monkeypatch.setattr(cli, name, fail)
        cfg = parse_config(cfg_text(
            preset=preset, grid={"Nx": 128, "Ny": 4, "L": 40.0},
            control={"dt": 0.01, "t_end": 1.7, "sample_every": 10},
            output_dir=str(tmp_path)))
        with pytest.raises(RuntimeError, match="run aborted after record 17: no verdict"):
            run_preset(cfg)
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["aborted"] is True
        assert manifest["error"] == "no verdict"
        assert manifest["records_written"] == 18
        assert manifest["exit_status"] == 1
        assert not (tmp_path / "scatter_report.json").exists()
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == 19 and not lines[-1].startswith("#")  # every record

    def test_complete_run_not_aborted(self, tmp_path):
        run_preset(self.small_cfg(tmp_path))
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["aborted"] is False and "error" not in manifest
        assert not (tmp_path / "records.csv").read_text().startswith("#")
