"""Experiment orchestration: config parsing, named presets, CSV/JSON emission.

Configs are JSON with nested sections (grid, physics, control, datum, ...).
Rational quantities (alpha, exponent overrides) travel as "p/q" strings so
the exponent machinery receives exact values while the integrator uses the
float image; both appear in the manifest.

Presets:
    decay           defocusing Gaussian run; checks L^q and cube-sup decay
    morawetz        same dynamics; checks the interaction inequality chain
    soliton-control focusing soliton; checks that nothing decays or scatters
    scattering      long defocusing run; Cauchy pull-back and accumulators
    exponents       no dynamics; exact feasibility reports only
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import __version__
from .exponents import (
    ProblemParams,
    as_fraction,
    auxiliary_pair,
    critical_tuple,
    feasible_r_interval,
    max_feasible_theta,
    perturbed_tuple,
    subcritical_pair,
    theta_tuple,
    verify_tuple,
)
from .field import (
    Grid,
    SpectralField,
    abs_sq,
    fft_workers,
    from_profile,
    lebesgue_norm,
    load_field,
    mixed_norm,  # not called here; perfbench/tracing.py wraps cli.mixed_norm
    sobolev_h1,  # not called here; perfbench/tracing.py wraps cli.sobolev_h1
)
# mass and energy are not called here; perfbench/tracing.py wraps cli.mass
# and cli.energy
from .integrator import PhysicsParams, StepControl, energy, evolve, mass, \
    soliton_profile
from .morawetz import CubeSupAccumulator, inequality_tolerance, morawetz_sample
from .scattering import (
    DECAY_TRANSIENT,
    SpacetimeAccumulators,
    geometric_sample_times,
    make_scatter_report,
)

PRESETS = ("decay", "morawetz", "soliton-control", "scattering", "exponents")


class ConfigError(ValueError):
    """Configuration rejected; the message names the field and the constraint."""


# ---------------------------------------------------------------------------
# config model
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    preset: str
    d: int = 1
    L: float = 200.0
    Nx: int = 4096
    Ny: int = 32
    alpha: str = "5"
    lam: int = 1
    dt: float = 1e-3
    t_end: float = 10.0
    sample_every: int = 100
    datum: dict = dc_field(default_factory=dict)
    q_list: List[float] = dc_field(default_factory=lambda: [4.0])
    r: Optional[str] = None
    epsilon: str = "1/100"
    theta_resolution: str = "1/100"
    delta: str = "1/20"
    r_side: float = 1.0
    guard_tol: float = 1e-3
    output_dir: str = "out"

    def alpha_fraction(self) -> Fraction:
        return as_fraction(self.alpha)

    def grid(self) -> Grid:
        return Grid(self.d, self.L, self.Nx, self.Ny)

    def physics(self) -> PhysicsParams:
        return PhysicsParams(float(self.alpha_fraction()), self.lam)

    def control(self) -> StepControl:
        return StepControl(self.dt, self.t_end, self.sample_every)

    def to_dict(self) -> dict:
        return asdict(self)


_PRESET_DEFAULTS: Dict[str, dict] = {
    "decay": {"alpha": "5", "lam": 1, "t_end": 10.0,
              "datum": {"kind": "gaussian", "amplitude": 1.0, "width": 0.65,
                        "y_modulation": 0.0}},
    "morawetz": {"alpha": "5", "lam": 1, "t_end": 10.0,
                 "datum": {"kind": "gaussian", "amplitude": 1.0, "width": 0.65,
                           "y_modulation": 0.0}},
    "soliton-control": {"alpha": "2", "lam": -1, "L": 80.0, "Nx": 2048,
                        "Ny": 4, "t_end": 20.0,
                        "datum": {"kind": "soliton", "B": 1.0}},
    "scattering": {"alpha": "5", "lam": 1, "L": 1024.0, "Nx": 16384, "Ny": 16,
                   "dt": 2e-3, "t_end": 40.0,
                   "datum": {"kind": "gaussian", "amplitude": 0.6,
                             "width": 0.8, "y_modulation": 0.3}},
    "exponents": {"alpha": "5"},
}


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    preset = raw.get("preset")
    if preset not in PRESETS:
        raise ConfigError(f"preset = {preset!r}: must be one of {PRESETS}")

    merged = dict(_PRESET_DEFAULTS[preset])
    # flatten optional nested sections
    flat: dict = {}
    for key, val in raw.items():
        if key in ("grid", "physics", "control", "exponent_options",
                   "morawetz_options") and isinstance(val, dict):
            flat.update(val)
        else:
            flat[key] = val
    merged.update(flat)
    merged["preset"] = preset
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = RunConfig(**merged)
    _validate(cfg)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2)


def _check(ok: bool, name: str, value, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{name} = {value!r}: {rule}")


def _is_int(v) -> bool:
    """An exact JSON integer (bool, float and str are not)."""
    return type(v) is int


def _is_number(v) -> bool:
    """A finite JSON number (bool and str are not)."""
    return type(v) in (int, float) and math.isfinite(v)


def _defer(section: str, build: Callable):
    """build(), with the owner's ValueError re-raised as a section-prefixed ConfigError."""
    try:
        return build()
    except ValueError as e:
        raise ConfigError(f"{section}{e}") from None


def _rational(name: str, value) -> Fraction:
    _check(not isinstance(value, bool), name, value, "must be a rational 'p/q'")
    try:
        return as_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ConfigError(f"{name} = {value!r}: {e}") from None


def _check_types(cfg: RunConfig) -> None:
    """Type and range checks that hold for every preset, one field at a time."""
    _check(_is_int(cfg.d) and cfg.d >= 1, "grid.d", cfg.d, "must be an integer >= 1")
    for name in ("Nx", "Ny"):
        _check(_is_int(getattr(cfg, name)), f"grid.{name}", getattr(cfg, name),
               "must be an integer")
    _check(_is_number(cfg.L), "grid.L", cfg.L, "must be a finite number")
    _check(_is_int(cfg.lam), "physics.lam", cfg.lam, "must be an integer")
    _check(_is_number(cfg.dt), "control.dt", cfg.dt, "must be a finite number")
    _check(_is_number(cfg.t_end), "control.t_end", cfg.t_end,
           "must be a finite number")
    _check(_is_int(cfg.sample_every), "control.sample_every", cfg.sample_every,
           "must be an integer")
    _check(isinstance(cfg.datum, dict), "datum", cfg.datum, "must be an object")
    q_list = cfg.q_list
    _check(isinstance(q_list, list) and len(q_list) > 0
           and all(type(q) in (int, float) and q > 2 for q in q_list)
           and len(set(q_list)) == len(q_list), "q_list", q_list,
           "must be a non-empty list of distinct numbers q > 2 (inf allowed)")
    if cfg.r is not None:
        _check(_rational("r", cfg.r) > 0, "r", cfg.r, "must be positive")
    for name in ("epsilon", "theta_resolution", "delta"):
        _check(_rational(name, getattr(cfg, name)) > 0, name,
               getattr(cfg, name), "must be positive")
    _check(_is_number(cfg.r_side) and cfg.r_side > 0, "r_side", cfg.r_side,
           "must be a finite number > 0")
    _check(_is_number(cfg.guard_tol) and 0 < cfg.guard_tol <= 1, "guard_tol",
           cfg.guard_tol, "must be a finite number in (0, 1]")
    _check(isinstance(cfg.output_dir, str) and cfg.output_dir != "",
           "output_dir", cfg.output_dir, "must be a non-empty path")


def _check_run(cfg: RunConfig) -> None:
    """Grid, step and datum checks for the presets that run dynamics."""
    g = _defer("grid.", cfg.grid)
    _defer("control.", lambda: cfg.control().n_steps)
    _defer("", lambda: g.cube_cells(cfg.r_side))
    kind = cfg.datum.get("kind")
    if kind not in ("gaussian", "soliton", "plane_wave", "file"):
        raise ConfigError(f"datum.kind = {kind!r}: unknown datum kind")
    if kind == "file":
        path = cfg.datum.get("path")
        _check(isinstance(path, str) and path != "", "datum.path", path,
               "datum.kind 'file' needs the snapshot file path")


def _validate(cfg: RunConfig) -> None:
    """Field types, PhysicsParams' and ProblemParams' rules, the preset policies."""
    _check_types(cfg)
    alpha = _rational("physics.alpha", cfg.alpha)
    _check(abs(alpha) <= sys.float_info.max, "physics.alpha", cfg.alpha,
           "is too large for a float")
    d = cfg.d
    _defer("physics.", cfg.physics)
    params = _defer("physics.", lambda: ProblemParams(d, alpha))
    if cfg.preset in ("decay", "morawetz", "scattering") and cfg.lam != 1:
        raise ConfigError(
            f"physics.lam = {cfg.lam}: preset '{cfg.preset}' is a defocusing "
            "experiment (lam must be +1)"
        )
    if cfg.preset == "scattering" and params.regime != "scattering":
        raise ConfigError(
            f"physics.alpha = {cfg.alpha}: alpha <= 4/d violates the "
            "scattering regime range 4/d < alpha < 4/(d-1)"
        )
    if cfg.preset == "soliton-control":
        if d != 1 or alpha != 2 or cfg.lam != -1:
            raise ConfigError(
                "soliton-control preset requires d = 1, alpha = 2, lam = -1 "
                f"(got d={d}, alpha={cfg.alpha}, lam={cfg.lam})"
            )
    if cfg.preset != "exponents":
        _check_run(cfg)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsRecord:
    t: float
    mass: float
    energy: float
    h1_norm: float
    lq_norms: Dict[float, float]
    J: float
    morawetz_lhs: float
    morawetz_rhs: float
    positivity_S: float
    cube_sup: float
    cube_sup_integral: float
    mixed_norm_theta: float
    accumulators: Dict[str, float]
    boundary_guard_flag: bool


_ACC_KEYS = ("theta_norm", "u_lp", "dy_lp", "grad_lp")


def _columns(q_list: Sequence[float]) -> List[str]:
    cols = ["t", "mass", "energy", "h1_norm"]
    cols += [f"lq_{q:g}" for q in q_list]
    cols += ["J", "morawetz_lhs", "morawetz_rhs", "positivity_S",
             "cube_sup", "cube_sup_integral", "mixed_norm_theta"]
    cols += [f"acc_{k}" for k in _ACC_KEYS]
    cols += ["boundary_guard_flag"]
    return cols


_PARTIAL_MARKER = "# PARTIAL FILE"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_records(records: Sequence[DiagnosticsRecord], fh: TextIO,
                 q_list: Sequence[float]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_columns(q_list))
    try:
        for r in records:
            row = [_fmt(r.t), _fmt(r.mass), _fmt(r.energy), _fmt(r.h1_norm)]
            row += [_fmt(r.lq_norms[q]) for q in q_list]
            row += [_fmt(r.J), _fmt(r.morawetz_lhs), _fmt(r.morawetz_rhs),
                    _fmt(r.positivity_S), _fmt(r.cube_sup),
                    _fmt(r.cube_sup_integral), _fmt(r.mixed_norm_theta)]
            row += [_fmt(r.accumulators.get(k, 0.0)) for k in _ACC_KEYS]
            row += ["1" if r.boundary_guard_flag else "0"]
            writer.writerow(row)
    except Exception:
        fh.write(f"{_PARTIAL_MARKER}: emission aborted\n")
        raise


def read_records(fh: TextIO) -> List[dict]:
    reader = csv.DictReader(fh)
    out = []
    for row in reader:
        if str(row.get("t")).startswith(_PARTIAL_MARKER):
            raise ValueError(f"partial records file after {len(out)} rows")
        parsed = {}
        for key, val in row.items():
            parsed[key] = bool(int(val)) if key == "boundary_guard_flag" \
                else float(val)
        out.append(parsed)
    return out


# ---------------------------------------------------------------------------
# diagnostics sink
# ---------------------------------------------------------------------------

class RecordBuilder:
    """Sink assembling one DiagnosticsRecord per sample time."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.physics_params = cfg.physics()
        self.records: List[DiagnosticsRecord] = []
        self.snapshots: List[SpectralField] = []
        # geometric snapshot times for the pull-back Cauchy analysis of the
        # soliton-control and scattering presets: fixed-window consecutive
        # differences shrink even for non-scattering states, geometric windows do not
        sample_dt = cfg.dt * cfg.sample_every
        self._schedule = geometric_sample_times(10 * sample_dt, cfg.t_end, sample_dt) \
            if cfg.preset in ("soliton-control", "scattering") else []
        self._cube = CubeSupAccumulator(cfg.r_side, self.physics_params.alpha)
        self._acc: Optional[SpacetimeAccumulators] = None
        params = ProblemParams(cfg.d, cfg.alpha_fraction())
        if params.regime == "scattering":
            base, rep = critical_tuple(
                params, as_fraction(cfg.r) if cfg.r else None)
            if rep.feasible:
                theta = max_feasible_theta(
                    base, params, as_fraction(cfg.theta_resolution))
                th_tuple, _ = theta_tuple(base, params, theta)
                aux, _ = auxiliary_pair(params, base, "equality")
                self._acc = SpacetimeAccumulators(
                    params, base, th_tuple, aux, as_fraction(cfg.delta))

    def __call__(self, fld: SpectralField, guard_breached: bool) -> None:
        ms, ds = morawetz_sample(fld, self.physics_params, self._cube)
        acc_totals = {k: 0.0 for k in _ACC_KEYS}
        theta_norm = 0.0
        if self._acc is not None:
            acc_totals = self._acc.update(fld.time_tag, fld, ds)
            theta_norm = self._acc.theta_mixed_norm
        mass_value, kinetic, h1_norm = _quadratic_terms(fld)
        physics = self.physics_params
        # the potential term from nu, the y-integral of |u|^{alpha+2}
        potential = physics.lam / (physics.alpha + 2.0) * float(
            np.sum(ds.nu)) * fld.grid.cell
        self.records.append(DiagnosticsRecord(
            t=fld.time_tag,
            mass=mass_value,
            energy=kinetic + potential,
            h1_norm=h1_norm,
            lq_norms={q: lebesgue_norm(fld, q) for q in self.cfg.q_list},
            J=ms.J,
            morawetz_lhs=ms.lhs,
            morawetz_rhs=ms.rhs,
            positivity_S=ms.S,
            cube_sup=ms.cube_sup,
            cube_sup_integral=ms.cube_sup_integral,
            mixed_norm_theta=theta_norm,
            accumulators=dict(acc_totals),
            boundary_guard_flag=guard_breached,
        ))
        if any(abs(fld.time_tag - t) < 1e-9 * max(1.0, t) for t in self._schedule):
            self.snapshots.append(fld)


def _quadratic_terms(fld: SpectralField) -> Tuple[float, float, float]:
    """(mass, kinetic energy, H^1 norm) of a record from one |c|^2.

    The oracles are integrator.mass, the kinetic part of integrator.energy
    and field.sobolev_h1; the Laplace symbol |xi|^2 + n^2 is separable, so
    its weighted sum is taken over the x and y frequencies apart.
    """
    g = fld.grid
    c2 = abs_sq(fld.coefficients)
    by_x = np.sum(c2, axis=-1)
    mass_value = g.measure * float(np.sum(by_x))
    lap_sum = float(np.sum(g.xi_sq()[..., 0] * by_x)) \
        + float(np.sum(c2 @ g.n_axis() ** 2))
    kinetic = 0.5 * g.measure * lap_sum
    return mass_value, kinetic, float(np.sqrt(mass_value + 2.0 * kinetic))


def build_datum(cfg: RunConfig) -> SpectralField:
    g = cfg.grid()
    spec = cfg.datum
    kind = spec["kind"]
    if kind == "gaussian":
        A = spec.get("amplitude", 1.0)
        w = spec.get("width", 1.0)
        mod = spec.get("y_modulation", 0.0)
        if g.d == 1:
            return from_profile(
                g, lambda x, y: A * np.exp(-(x / w) ** 2)
                * (1 + mod * np.cos(y)))
        return from_profile(
            g, lambda x1, x2, y: A * np.exp(-(x1 ** 2 + x2 ** 2) / w ** 2)
            * (1 + mod * np.cos(y)))
    if kind == "soliton":
        return soliton_profile(g, spec.get("B", 1.0))
    if kind == "plane_wave":
        k, n, A = spec.get("k", 1), spec.get("n", 0), spec.get("A", 1.0)
        xi0 = 2 * np.pi * k / g.L
        if g.d == 1:
            return from_profile(
                g, lambda x, y: A * np.exp(1j * (xi0 * x + n * y)))
        return from_profile(
            g, lambda x1, x2, y: A * np.exp(1j * (xi0 * x1 + n * y)))
    if kind == "file":
        try:
            fld = load_field(spec["path"])
        except (OSError, ValueError) as e:
            raise ConfigError(f"datum.path: {e}") from None
        if fld.grid != g:
            raise ConfigError(f"datum.path: {spec['path']}: grid {fld.grid} does "
                              f"not match the config's {g}")
        return fld
    raise ConfigError(f"datum.kind = {kind!r}: unknown datum kind")


# ---------------------------------------------------------------------------
# preset checks
# ---------------------------------------------------------------------------

def _decay_checks(records: List[DiagnosticsRecord], cfg: RunConfig) -> Dict[str, bool]:
    q0 = cfg.q_list[0]
    lq = [(r.t, r.lq_norms[q0]) for r in records]
    cube = [(r.t, r.cube_sup) for r in records]
    checks = {}
    for name, series in (("lq_decay_factor_3", lq), ("cube_decay_factor_3", cube)):
        early_max = max(v for t, v in series if t <= DECAY_TRANSIENT)
        final = series[-1][1]
        checks[name] = final * 3.0 <= early_max
    for name, series in (("lq_monotone_tail", lq), ("cube_monotone_tail", cube)):
        tail = [v for t, v in series if t >= DECAY_TRANSIENT]
        checks[name] = all(b <= a * (1 + 1e-8) for a, b in zip(tail, tail[1:]))
    checks["guard_never_fired"] = not any(r.boundary_guard_flag for r in records)
    return checks


def _violations(lhs: float, rhs: float, mass: float, h1_norm: float,
                S: float) -> Dict[str, str]:
    """Morawetz inequality and positivity violations of one sample, by check name."""
    out = {}
    if lhs - rhs < -inequality_tolerance(lhs, rhs, mass):
        out["morawetz_inequality"] = \
            f"morawetz inequality violated (lhs - rhs = {lhs - rhs:.3g})"
    if S < -1e-10 * max((mass + h1_norm) ** 4, 1.0):
        out["positivity"] = f"positivity violated (S = {S:.3g})"
    return out


def _morawetz_checks(records: List[DiagnosticsRecord]) -> Dict[str, bool]:
    failed = {k for r in records for k in _violations(
        r.morawetz_lhs, r.morawetz_rhs, r.mass, r.h1_norm, r.positivity_S)}
    return {k: k not in failed for k in ("morawetz_inequality", "positivity")}


def _soliton_checks(records: List[DiagnosticsRecord], report) -> Dict[str, bool]:
    no_decay = True
    for q in records[0].lq_norms:
        vals = [r.lq_norms[q] for r in records]
        if max(vals) / min(vals) - 1 > 1e-3:
            no_decay = False
    return {"no_decay": no_decay,
            "no_scattering": not report.flags["cauchy_tail_decreasing"]}


def _scattering_checks(report) -> Dict[str, bool]:
    times = report.times
    C = report.cauchy
    diffs = [(times[i], C[i, i + 1]) for i in range(len(times) - 1)
             if times[i] >= 5.0]
    strictly_decreasing = all(b < a for (_, a), (_, b) in zip(diffs, diffs[1:]))
    terminal_small = bool(diffs) and bool(diffs[-1][1] < 0.2 * diffs[0][1])
    sat = report.accumulator_saturation
    saturated = all(v < 1e-4 for v in sat.values()) if sat else False
    return {"cauchy_strictly_decreasing": strictly_decreasing,
            "cauchy_terminal_small": terminal_small,
            "accumulators_saturated": saturated}


# ---------------------------------------------------------------------------
# exponents preset
# ---------------------------------------------------------------------------

def exponent_report(d: int, alpha: Fraction, r: Optional[Fraction] = None,
                    epsilon: Fraction = Fraction(1, 100),
                    theta_resolution: Fraction = Fraction(1, 100)) -> dict:
    params = ProblemParams(d, alpha)
    out: dict = {"d": d, "alpha": str(alpha), "regime": params.regime}
    all_ok = True
    if params.regime == "subcritical":
        pair, rep = subcritical_pair(params)
        out["subcritical_pair"] = {"q": str(pair.q), "r": str(pair.r),
                                   "report": rep.to_json_dict()}
        all_ok &= rep.feasible
    else:
        lo, hi = feasible_r_interval(params)
        out["feasible_r_interval"] = [str(lo), str(hi)]
        tup, rep = critical_tuple(params, r)
        out["critical_tuple"] = {
            "q": str(tup.q), "r": str(tup.r), "q_tilde": str(tup.q_tilde),
            "r_tilde": str(tup.r_tilde), "s": str(tup.s),
            "report": rep.to_json_dict()}
        all_ok &= rep.feasible
        pert, prep = perturbed_tuple(tup, params, epsilon)
        out["perturbed_tuple"] = {
            "epsilon": str(epsilon), "q": str(pert.q),
            "q_tilde": str(pert.q_tilde), "s": str(pert.s),
            "report": prep.to_json_dict()}
        all_ok &= prep.feasible
        if params.regime == "scattering":
            theta = max_feasible_theta(tup, params, theta_resolution)
            th, trep = theta_tuple(tup, params, theta)
            out["theta_tuple"] = {
                "theta": str(theta), "q_tilde_theta": str(th.q_tilde_theta),
                "r_tilde_theta": str(th.r_tilde_theta),
                "report": trep.to_json_dict()}
            all_ok &= trep.feasible
        aux, arep = auxiliary_pair(params, tup, "equality")
        out["auxiliary_pair"] = {"l": str(aux.l), "p": str(aux.p),
                                 "report": arep.to_json_dict()}
        all_ok &= arep.feasible
    out["all_feasible"] = bool(all_ok)
    return out


def config_exponent_report(cfg: RunConfig) -> dict:
    """exponent_report for a parsed config: the exponents preset and command."""
    return exponent_report(
        cfg.d, cfg.alpha_fraction(), as_fraction(cfg.r) if cfg.r else None,
        as_fraction(cfg.epsilon), as_fraction(cfg.theta_resolution))


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def run_preset(cfg: RunConfig) -> int:
    """Execute the preset, write artifacts, return the exit status."""
    t_start = time.perf_counter()
    checks: Dict[str, bool] = {}
    artifacts: List[str] = []

    if cfg.preset == "exponents":
        rep = config_exponent_report(cfg)
        os.makedirs(cfg.output_dir, exist_ok=True)
        path = os.path.join(cfg.output_dir, "exponents.json")
        with open(path, "w") as fh:
            json.dump(rep, fh, indent=2)
        artifacts.append(path)
        checks["all_feasible"] = rep["all_feasible"]
    else:
        builder = RecordBuilder(cfg)
        initial = build_datum(cfg)
        os.makedirs(cfg.output_dir, exist_ok=True)
        path = os.path.join(cfg.output_dir, "records.csv")
        error: Optional[Exception] = None
        try:
            evolve(initial, cfg.physics(), cfg.control(), sinks=[builder],
                   guard_tol=cfg.guard_tol)
        except Exception as e:
            error = e
        with open(path, "w") as fh:
            emit_records(builder.records, fh, cfg.q_list)
            if error is not None:
                fh.write(f"{_PARTIAL_MARKER}: run aborted\n")
        artifacts.append(path)
        if error is not None:
            n = len(builder.records)
            _write_manifest(cfg, t_start, checks, artifacts, 1,
                            error=str(error), records_written=n)
            raise RuntimeError(f"run aborted after record {n - 1}: {error}") from error

        if cfg.preset in ("decay", "morawetz"):
            checks.update(_morawetz_checks(builder.records))
            if cfg.preset == "decay":
                checks.update(_decay_checks(builder.records, cfg))
        else:
            report = make_scatter_report(builder.snapshots, cfg.q_list,
                                         accumulators=builder._acc)
            spath = os.path.join(cfg.output_dir, "scatter_report.json")
            with open(spath, "w") as fh:
                fh.write(report.to_json())
            artifacts.append(spath)
            if cfg.preset == "soliton-control":
                checks.update(_soliton_checks(builder.records, report))
            else:
                checks.update(_scattering_checks(report))

    status = 0 if all(checks.values()) else 1
    _write_manifest(cfg, t_start, checks, artifacts, status)
    return status


def _write_manifest(cfg: RunConfig, t_start: float, checks: Dict[str, bool],
                    artifacts: List[str], status: int, **abort) -> None:
    """Write manifest.json; ``abort`` (error, records_written) marks an aborted run."""
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "alpha_exact": str(cfg.alpha_fraction()),
        "alpha_float": float(cfg.alpha_fraction()),
        "checks": checks,
        "exit_status": status,
        "artifacts": artifacts,
        "aborted": bool(abort),
        **abort,
        "wall_time_s": time.perf_counter() - t_start,
    }
    with open(os.path.join(cfg.output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def verify_records(fh: TextIO) -> int:
    """Offline re-check of the inequality columns; returns exit status."""
    rows = read_records(fh)
    bad = 0
    for i, row in enumerate(rows):
        for msg in _violations(row["morawetz_lhs"], row["morawetz_rhs"], row["mass"],
                               row["h1_norm"], row["positivity_S"]).values():
            print(f"row {i}: {msg}")
            bad += 1
    print(f"{len(rows)} rows checked, {bad} violations")
    return 0 if bad == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="nlslab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a preset from a JSON config")
    p_run.add_argument("--config", required=True)

    p_exp = sub.add_parser("exponents", help="exact exponent feasibility report")
    p_exp.add_argument("--d", type=int, required=True)
    p_exp.add_argument("--alpha", required=True)
    p_exp.add_argument("--r", default=None)
    p_exp.add_argument("--epsilon", default="1/100")
    p_exp.add_argument("--theta-resolution", default="1/100")

    p_ver = sub.add_parser("verify", help="re-check inequality columns of a CSV")
    p_ver.add_argument("records")

    args = parser.parse_args(argv)
    try:
        fft_workers()
    except ValueError as e:
        parser.error(str(e))

    # bad input (the config file, a config field, a datum file) exits with
    # status 2 here
    if args.command == "run":
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as e:
            parser.error(f"--config: {e}")
    try:
        if args.command == "run":
            return run_preset(parse_config(text))
        if args.command == "exponents":
            cfg = parse_config(json.dumps({
                "preset": "exponents", "d": args.d, "alpha": args.alpha,
                "r": args.r, "epsilon": args.epsilon,
                "theta_resolution": args.theta_resolution}))
            rep = config_exponent_report(cfg)
            json.dump(rep, sys.stdout, indent=2)
            print()
            return 0 if rep["all_feasible"] else 1
    except ConfigError as e:
        parser.error(str(e))
    if args.command == "verify":
        with open(args.records) as fh:
            try:
                return verify_records(fh)
            except ValueError as e:
                print(f"nlslab verify: {args.records}: {e}", file=sys.stderr)
                return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
