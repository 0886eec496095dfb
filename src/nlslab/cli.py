"""Experiment orchestration: config parsing, named presets, CSV/JSON emission.

Configs are JSON with nested sections (grid, physics, control, datum, ...).
Rational quantities (alpha, exponent overrides) travel as "p/q" strings so
the exponent machinery receives exact values while the integrator uses the
float image; both appear in the manifest.

The parse checks every field, a file datum's header against the config,
that a run's grid fits in the machine's memory (PEAK_ARRAYS), and the rules
of code that runs later (the theta grid step, the Cauchy
schedule's three snapshots), each by calling its owner.  It resolves the datum section once, against DATUM_KINDS: cfg.datum
then holds the kind with every field filled in, which build_datum reads and
the manifest records.  The boundary guard's tolerance is the constant
RunConfig.guard_tol, and the theta norm's delta is derived from the critical
tuple; neither is a config field.  One helper, _exponent_chain, builds the
critical tuple, its largest feasible theta tuple and the auxiliary pair, for
a run's space-time accumulators and for the exponent report alike; without
a theta tuple a run has no accumulators and the report is not feasible.  A
run that fails after its datum is built, in evolve or after it, leaves
records.csv and an aborted manifest.

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
import signal
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, fields as dc_fields
from fractions import Fraction
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import __version__
from .exponents import (
    ConstraintReport,
    NoFeasibleTheta,
    ProblemParams,
    as_fraction,
    auxiliary_pair,
    critical_tuple,
    feasible_r_interval,
    max_feasible_theta,
    perturbed_tuple,
    subcritical_pair,
    theta_grid_step,
    theta_tuple,  # not called here; perfbench/tracing.py wraps cli.theta_tuple
)
from .field import (
    Grid,
    SpectralField,
    _y_mode_power,
    fft_workers,
    from_profile,
    lebesgue_norm,  # not called here; perfbench/tracing.py wraps cli.lebesgue_norm
    load_field,
    mixed_norm,  # not called here; perfbench/tracing.py wraps cli.mixed_norm
    snapshot_header,
    sobolev_h1,  # not called here; perfbench/tracing.py wraps cli.sobolev_h1
    y_independent,
)
# mass and energy are not called here; perfbench/tracing.py wraps cli.mass
# and cli.energy
from .integrator import PhysicsParams, StepControl, energy, evolve, mass, \
    soliton_profile
from .morawetz import CubeSupAccumulator, inequality_tolerance, pairings
from .scattering import (ACCUMULATORS, DECAY_TRANSIENT, SpacetimeAccumulators, all_finite,
                         check_cauchy_times, extended_power,
                         geometric_sample_times, make_scatter_report, settled_tail,
                         strictly_decreasing)

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
    output_dir: str = "out"

    # the boundary guard's edge-cube mass fraction; not a config field
    guard_tol: ClassVar[float] = 1e-3

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
    "soliton-control": {"alpha": "2", "lam": -1, "L": 80.0, "Nx": 1024,
                        "Ny": 4, "t_end": 20.0,
                        "datum": {"kind": "soliton", "B": 1.0}},
    "scattering": {"alpha": "5", "lam": 1, "L": 1024.0, "Nx": 16384, "Ny": 16,
                   "dt": 2e-3, "t_end": 40.0,
                   "datum": {"kind": "gaussian", "amplitude": 0.6,
                             "width": 0.8, "y_modulation": 0.3}},
    "exponents": {"alpha": "5"},
}


# each datum kind's fields with their defaults; a file datum's path has none
DATUM_KINDS: Dict[str, dict] = {
    "gaussian": {"amplitude": 1.0, "width": 1.0, "y_modulation": 0.0},
    "soliton": {"B": 1.0},
    "file": {"path": None},
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
    for key, val in raw.items():  # flatten the nested sections
        nested = key in ("grid", "physics", "control") and isinstance(val, dict)
        merged.update(val if nested else {key: val})
    merged["preset"] = preset
    known = {f.name for f in dc_fields(RunConfig)}  # not the ClassVar guard_tol
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = RunConfig(**merged)
    _validate(cfg)
    return cfg


def _check(ok: bool, name: str, value, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{name} = {value!r}: {rule}")


def _is_int(v) -> bool:
    """An exact JSON integer (bool, float and str are not)."""
    return type(v) is int


def _is_number(v) -> bool:
    """A finite JSON number (bool and str are not)."""
    return type(v) in (int, float) and math.isfinite(v)


def _defer(prefix: str, build: Callable):
    """build(), with the owner's ValueError re-raised as a ConfigError that
    starts with ``prefix`` (the field's section, or its name and value)."""
    try:
        return build()
    except ValueError as e:
        raise ConfigError(f"{prefix}{e}") from None


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
    numbers = isinstance(q_list, list) and all(type(q) in (int, float) for q in q_list)
    try:  # the run and the column names use each q's float image
        images = [float(q) for q in q_list] if numbers else []
    except OverflowError:  # an integer beyond the float range
        images = []
    _check(len(images) > 0 and all(q > 2 for q in images)
           and len(set(images)) == len(images), "q_list", q_list,
           "must be a non-empty list of numbers q > 2 (inf allowed) whose "
           "float images do not overflow and are distinct")
    if cfg.r is not None:
        _check(_rational("r", cfg.r) > 0, "r", cfg.r, "must be positive")
    _check(_rational("epsilon", cfg.epsilon) > 0, "epsilon", cfg.epsilon,
           "must be positive")
    resolution = _rational("theta_resolution", cfg.theta_resolution)
    _defer(f"theta_resolution = {cfg.theta_resolution!r}: ",
           lambda: theta_grid_step(resolution))
    _check(isinstance(cfg.output_dir, str) and cfg.output_dir != "",
           "output_dir", cfg.output_dir, "must be a non-empty path")


def _datum_spec(datum: dict) -> dict:
    """The datum section with its kind's defaults filled in.

    Every value is a finite JSON number, with width > 0 and B > 0, except a
    file datum's path, a non-empty string.
    """
    kind = datum.get("kind")
    if kind not in DATUM_KINDS:
        raise ConfigError(f"datum.kind = {kind!r}: unknown datum kind")
    fields = DATUM_KINDS[kind]
    for key, value in datum.items():
        _check(key == "kind" or key in fields, f"datum.{key}", value,
               f"not a field of datum kind {kind!r} (its fields: {', '.join(fields)})")
    spec = {"kind": kind, **fields, **datum}
    for key in fields:
        value = spec[key]
        if key == "path":
            _check(isinstance(value, str) and value != "", "datum.path", value,
                   "datum.kind 'file' needs the snapshot file path")
        elif key in ("width", "B"):
            _check(_is_number(value) and value > 0, f"datum.{key}", value,
                   "must be a positive finite number")
        else:
            _check(_is_number(value), f"datum.{key}", value, "must be a finite number")
    return spec


def _cauchy_schedule(cfg: RunConfig) -> List[float]:
    """Snapshot times kept for the pull-back Cauchy table of the soliton-control
    and scattering presets (none for the others): geometric from 10 sample
    intervals on, since fixed-window consecutive differences shrink even for
    non-scattering states and geometric windows do not."""
    if cfg.preset not in ("soliton-control", "scattering"):
        return []
    sample_dt = cfg.dt * cfg.sample_every
    return geometric_sample_times(10 * sample_dt, cfg.t_end, sample_dt)


# a run's peak memory, estimated as this many complex arrays of its grid
# (16 ntot bytes each): the largest whole multiple at or below the peak RSS
# of the three benchmark workloads, 124, 182 and 289 MiB at 2, 4 and 16 MiB
# per array (62, 45 and 18 arrays; the interpreter's own 100 MiB weighs most
# on the small grids).  Beyond the interpreter, a d = 2 Morawetz run grows
# by about 10 arrays per array of grid (253 -> 717 MiB from 256^2 x 16 to
# 512^2 x 16) and a full scattering run, which keeps its Cauchy snapshots,
# holds about 21 (188 MiB at 16384 x 16), so the estimate is high on a large
# d = 2 grid by less than a factor 2 and a little low on a scattering run
PEAK_ARRAYS = 18


def _check_run(cfg: RunConfig) -> None:
    """Grid, memory, step, datum and Cauchy schedule checks for the presets
    that run dynamics; cfg.datum becomes the resolved datum spec.  A box
    shorter than a unit cube (L < 1) is refused: no unit cube fits in it,
    and its cube windows would span the whole box.  A file
    datum's header is read and checked here; build_datum checks the file
    again.  A grid whose run would need more than the machine's physical
    memory (PEAK_ARRAYS) is refused before anything is allocated."""
    grid = _defer("grid.", cfg.grid)
    _check(cfg.L >= 1, "grid.L", cfg.L, "must be at least 1, the side of the "
           "unit cubes that the cube-sup mass and the boundary guard sum over")
    need = PEAK_ARRAYS * 16 * grid.ntot
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    _check(need <= have, "grid", grid,
           f"a run needs about {need / 2 ** 30:.3g} GiB ({PEAK_ARRAYS} complex "
           f"arrays of the grid), more than the {have / 2 ** 30:.3g} GiB of "
           "physical memory")
    _defer("control.", lambda: cfg.control().n_steps)
    cfg.datum = _datum_spec(cfg.datum)
    if cfg.datum["kind"] == "file":
        _datum_file(cfg.datum["path"], cfg.grid(), snapshot_header)
    if cfg.preset in ("soliton-control", "scattering"):
        _defer(f"control.t_end = {cfg.t_end!r}: the Cauchy table's geometric "
               "schedule ends too early: ",
               lambda: check_cauchy_times(_cauchy_schedule(cfg)))


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


def _columns(q_list: Sequence[float]) -> List[Tuple[str, Callable]]:
    """records.csv's columns in order, each with the record value it holds."""
    def attr(name):
        return name, lambda r: getattr(r, name)
    return ([attr(n) for n in ("t", "mass", "energy", "h1_norm")]
            + [(f"lq_{q:.17g}", lambda r, q=q: r.lq_norms[q]) for q in q_list]
            + [attr(n) for n in ("J", "morawetz_lhs", "morawetz_rhs",
                                 "positivity_S", "cube_sup",
                                 "cube_sup_integral", "mixed_norm_theta")]
            + [(f"acc_{k}", lambda r, k=k: r.accumulators[k])
               for k in ACCUMULATORS]
            + [("boundary_guard_flag", lambda r: int(r.boundary_guard_flag))])


_PARTIAL_MARKER = "# PARTIAL FILE"


def emit_records(records: Sequence[DiagnosticsRecord], fh: TextIO,
                 q_list: Sequence[float]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    columns = _columns(q_list)
    writer.writerow([name for name, _ in columns])
    try:
        for r in records:
            writer.writerow([f"{value(r):.17g}" for _, value in columns])
    except Exception:
        fh.write(f"{_PARTIAL_MARKER}: emission aborted\n")
        raise


def read_records(fh: TextIO) -> List[dict]:
    reader = csv.DictReader(fh)
    out = []
    for row in reader:
        if str(row.get("t")).startswith(_PARTIAL_MARKER):
            raise ValueError(f"partial records file after {len(out)} rows")
        if None in row or None in row.values():  # short or overlong
            raise ValueError(f"row {len(out)} does not have the header's "
                             f"{len(reader.fieldnames)} fields")
        out.append({k: bool(int(v)) if k == "boundary_guard_flag" else float(v)
                    for k, v in row.items()})
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
        self._schedule = _cauchy_schedule(cfg)
        self._cube = CubeSupAccumulator(self.physics_params.alpha)
        self.accumulators: Optional[SpacetimeAccumulators] = None
        params = ProblemParams(cfg.d, cfg.alpha_fraction())
        if params.regime == "scattering":
            chain = _exponent_chain(params, as_fraction(cfg.r) if cfg.r else None,
                                    as_fraction(cfg.theta_resolution))
            if "theta_tuple" in chain:
                self.accumulators = SpacetimeAccumulators(
                    params, chain["critical_tuple"][0], chain["theta_tuple"][0],
                    chain["auxiliary_pair"][0])

    def __call__(self, fld: SpectralField, guard_breached: bool) -> None:
        (J, S, lhs, rhs), ds = pairings(fld, self.physics_params, self.cfg.q_list)
        cube_sup_integral = self._cube.update(fld.time_tag, fld)
        acc_totals = dict.fromkeys(ACCUMULATORS, 0.0)
        theta_norm = 0.0
        if self.accumulators is not None:
            acc_totals = self.accumulators.update(fld.time_tag, fld, ds)
            theta_norm = self.accumulators.theta_mixed_norm
        g, physics = fld.grid, self.physics_params
        power = _y_mode_power(fld)  # the accumulators' own, cached on fld
        # mass from rho, |grad u|^2 from trace K (x) and n^2 power (y), and
        # the potential from nu, the y-integral of |u|^{alpha+2}
        mass_value = g.cell * float(np.sum(ds.rho))
        kinetic = 0.5 * g.cell * float(np.sum(np.trace(ds.K))
                                       + np.sum(power @ g.n_axis()[:power.shape[-1]] ** 2))
        potential = physics.lam / (physics.alpha + 2.0) * float(np.sum(ds.nu)) * g.cell
        self.records.append(DiagnosticsRecord(
            t=fld.time_tag,
            mass=mass_value,
            energy=kinetic + potential,
            h1_norm=math.sqrt(mass_value + 2.0 * kinetic),
            lq_norms=ds.lq_norms,
            J=J,
            morawetz_lhs=lhs,
            morawetz_rhs=rhs,
            positivity_S=S,
            cube_sup=self._cube.cube_sup,
            cube_sup_integral=cube_sup_integral,
            mixed_norm_theta=theta_norm,
            accumulators=acc_totals,
            boundary_guard_flag=guard_breached,
        ))
        if any(abs(fld.time_tag - t) < 1e-9 * max(1.0, t) for t in self._schedule):
            # coefficients only (its one transform): the report reads its L^q
            # series from the records
            self.snapshots.append(SpectralField(fld.grid, fld.coefficients, fld.time_tag))


def build_datum(cfg: RunConfig) -> SpectralField:
    """The datum of a parsed config, from its resolved spec in cfg.datum."""
    g = cfg.grid()
    spec = cfg.datum
    kind = spec["kind"]
    if kind == "gaussian":
        A, w, mod = spec["amplitude"], spec["width"], spec["y_modulation"]
        if g.d == 1:
            return from_profile(
                g, lambda x, y: A * np.exp(-(x / w) ** 2)
                * (1 + mod * np.cos(y)))
        return from_profile(
            g, lambda x1, x2, y: A * np.exp(-(x1 ** 2 + x2 ** 2) / w ** 2)
            * (1 + mod * np.cos(y)))
    if kind == "soliton":
        return soliton_profile(g, spec["B"])
    return _datum_file(spec["path"], g, load_field)


def _datum_file(path: str, grid: Grid, read: Callable):
    """read(path), snapshot_header at the parse or load_field at the build.

    The file's faults (an OSError or ValueError of read), a grid other than
    the config's and a time tag other than 0 are datum.path ConfigErrors.
    """
    try:
        got = read(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"datum.path: {e}") from None
    if got.grid != grid:
        raise ConfigError(f"datum.path: {path}: grid {got.grid} does "
                          f"not match the config's {grid}")
    if got.time_tag != 0:
        # the guard band, the decay windows and the Cauchy schedule start at t = 0
        raise ConfigError(f"datum.path: {path}: time tag {got.time_tag!r} "
                          "is not 0")
    return got


# ---------------------------------------------------------------------------
# preset checks: each holds only when the values it reads are finite
# ---------------------------------------------------------------------------

def _decay_checks(records: List[DiagnosticsRecord], cfg: RunConfig) -> Dict[str, bool]:
    times = [r.t for r in records]
    series = {"lq": [r.lq_norms[cfg.q_list[0]] for r in records],
              "cube": [r.cube_sup for r in records]}
    checks = {}
    for name, vals in series.items():
        early = [v for t, v in zip(times, vals) if t <= DECAY_TRANSIENT]
        checks[f"{name}_decay_factor_3"] = all_finite(early + vals[-1:]) \
            and vals[-1] * 3.0 <= max(early)
    for name, vals in series.items():
        checks[f"{name}_monotone_tail"] = settled_tail(times, vals)
    checks["guard_never_fired"] = not any(r.boundary_guard_flag for r in records)
    return checks


# the record values _violations reads, in its argument order
_VIOLATION_COLUMNS = ("morawetz_lhs", "morawetz_rhs", "mass", "h1_norm", "positivity_S")


def _violations(lhs: float, rhs: float, mass: float, h1_norm: float,
                S: float) -> Dict[str, str]:
    """Morawetz inequality and positivity violations of one sample, by check
    name: a check holds when the values it reads are finite and its margin >= 0."""
    out = {}
    if not (all_finite((lhs, rhs, mass))
            and lhs - rhs >= -inequality_tolerance(lhs, rhs, mass)):
        out["morawetz_inequality"] = "morawetz inequality violated " \
            f"(lhs - rhs = {lhs - rhs:.3g}, mass = {mass:.3g})"
    if not (all_finite((S, mass, h1_norm))
            and S >= -1e-10 * max(extended_power(mass + h1_norm, 4), 1.0)):
        out["positivity"] = f"positivity violated (S = {S:.3g}, mass = " \
            f"{mass:.3g}, h1_norm = {h1_norm:.3g})"
    return out


def _morawetz_checks(records: List[DiagnosticsRecord]) -> Dict[str, bool]:
    failed = {k for r in records for k in _violations(
        *(getattr(r, c) for c in _VIOLATION_COLUMNS))}
    return {k: k not in failed for k in ("morawetz_inequality", "positivity")}


def _soliton_checks(records: List[DiagnosticsRecord], report) -> Dict[str, bool]:
    series = [[r.lq_norms[q] for r in records] for q in records[0].lq_norms]
    return {"no_decay": all(all_finite(v) and min(v) > 0
                            and max(v) / min(v) - 1 <= 1e-3 for v in series),
            "no_scattering": all_finite(report.cauchy.ravel())
            and not report.flags["cauchy_tail_decreasing"]}


def _scattering_checks(report) -> Dict[str, bool]:
    times, C = report.times, report.cauchy
    diffs = [C[i, i + 1] for i in range(len(times) - 1) if times[i] >= 5.0]
    terminal_small = bool(diffs) and all_finite(diffs) \
        and bool(diffs[-1] < 0.2 * diffs[0])
    sat = report.accumulator_saturation
    saturated = all(v < 1e-4 for v in sat.values()) if sat else False
    return {"cauchy_strictly_decreasing": strictly_decreasing(diffs),
            "cauchy_terminal_small": terminal_small,
            "accumulators_saturated": saturated}


# ---------------------------------------------------------------------------
# exponent chain and report
# ---------------------------------------------------------------------------

def _exponent_chain(params: ProblemParams, r: Optional[Fraction],
                    theta_resolution: Fraction) -> Dict[str, tuple]:
    """The exponent chain of a run, each link with its constraint report, by
    report name: the critical tuple at r, its largest feasible theta tuple on
    the theta_resolution grid (scattering regime only) and the equality
    auxiliary pair.  The theta tuple is missing when the critical tuple is
    infeasible or the grid holds no feasible theta."""
    base, rep = critical_tuple(params, r)
    chain = {"critical_tuple": (base, rep)}
    if params.regime == "scattering" and rep.feasible:
        try:
            chain["theta_tuple"] = max_feasible_theta(base, params, theta_resolution)
        except NoFeasibleTheta:
            pass
    chain["auxiliary_pair"] = auxiliary_pair(params, base)
    return chain


def _entry(link, report: ConstraintReport, names: str, **leading) -> dict:
    """A report entry: the leading values, then the link's named exponents,
    as exact strings, then its constraint report."""
    values = {**leading, **{name: getattr(link, name) for name in names.split()}}
    return {**{k: str(v) for k, v in values.items()}, "report": report.to_json_dict()}


def exponent_report(d: int, alpha: Fraction, r: Optional[Fraction] = None,
                    epsilon: Fraction = Fraction(1, 100),
                    theta_resolution: Fraction = Fraction(1, 100)) -> dict:
    """The exact feasibility report of (d, alpha); "all_feasible" is false when
    a link is infeasible or, in the scattering regime, has no theta tuple."""
    params = ProblemParams(d, alpha)
    out: dict = {"d": d, "alpha": str(alpha), "regime": params.regime}
    if params.regime == "subcritical":
        entries = {"subcritical_pair": _entry(*subcritical_pair(params), "q r")}
    else:
        lo, hi = feasible_r_interval(params)
        out["feasible_r_interval"] = [str(lo), str(hi)]
        chain = _exponent_chain(params, r, theta_resolution)
        base = chain["critical_tuple"][0]
        entries = {
            "critical_tuple": _entry(*chain["critical_tuple"], "q r q_tilde r_tilde s"),
            "perturbed_tuple": _entry(*perturbed_tuple(base, params, epsilon),
                                      "q q_tilde s", epsilon=epsilon)}
        if "theta_tuple" in chain:
            entries["theta_tuple"] = _entry(*chain["theta_tuple"],
                                            "theta q_tilde_theta r_tilde_theta")
        entries["auxiliary_pair"] = _entry(*chain["auxiliary_pair"], "l p")
    out.update(entries)
    out["all_feasible"] = all(e["report"]["feasible"] for e in entries.values()) \
        and (params.regime != "scattering" or "theta_tuple" in entries)
    return out


def config_exponent_report(cfg: RunConfig) -> dict:
    """exponent_report for a parsed config: the exponents preset and command."""
    return exponent_report(
        cfg.d, cfg.alpha_fraction(), as_fraction(cfg.r) if cfg.r else None,
        as_fraction(cfg.epsilon), as_fraction(cfg.theta_resolution))


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

SIGTERM_STATUS = 128 + signal.SIGTERM  # 143, as a shell reports a process TERMed


class Terminated(BaseException):
    """SIGTERM during ``nlslab run``.  Like KeyboardInterrupt it is not an
    Exception, so no handler for ordinary errors swallows it."""


def _raise_terminated(signum, frame):
    raise Terminated("SIGTERM")


# what aborts a run: it still leaves its records and an aborted manifest
_ABORTS = (Exception, KeyboardInterrupt, Terminated)


def _run_until_sigterm(cfg: RunConfig) -> int:
    """run_preset with SIGTERM turned into an abort, as Ctrl-C is.

    The run leaves its partial artifacts and the status is SIGTERM_STATUS;
    the previous SIGTERM handler is restored on return.
    """
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        return run_preset(cfg)
    except Terminated:
        print("nlslab: run aborted by SIGTERM", file=sys.stderr)
        return SIGTERM_STATUS
    finally:
        signal.signal(signal.SIGTERM, previous)


def run_preset(cfg: RunConfig) -> int:
    """Execute the preset, write artifacts, return the exit status."""
    t_start = time.perf_counter()
    checks: Dict[str, bool] = {}
    artifacts: List[str] = []
    reduced: Optional[bool] = None  # whether evolve steps one y column

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
        reduced = y_independent(initial)
        os.makedirs(cfg.output_dir, exist_ok=True)
        path = os.path.join(cfg.output_dir, "records.csv")
        error: Optional[BaseException] = None
        try:
            evolve(initial, cfg.physics(), cfg.control(), sinks=[builder],
                   guard_tol=cfg.guard_tol)
        except _ABORTS as e:
            error = e
        try:
            with open(path, "w") as fh:
                emit_records(builder.records, fh, cfg.q_list)
                if error is not None:
                    fh.write(f"{_PARTIAL_MARKER}: run aborted\n")
            artifacts.append(path)
            if error is None:
                checks.update(_preset_checks(cfg, builder, artifacts))
        except _ABORTS as e:
            if error is None:
                error = e
        if error is not None:
            n = len(builder.records)
            status = SIGTERM_STATUS if isinstance(error, Terminated) else 1
            _write_manifest(cfg, t_start, checks, artifacts, status, reduced,
                            error=str(error) or type(error).__name__,
                            records_written=n)
            if isinstance(error, (KeyboardInterrupt, Terminated)):
                raise error
            raise RuntimeError(f"run aborted after record {n - 1}: {error}") from error

    status = 0 if all(checks.values()) else 1
    _write_manifest(cfg, t_start, checks, artifacts, status, reduced)
    return status


def _preset_checks(cfg: RunConfig, builder: RecordBuilder,
                   artifacts: List[str]) -> Dict[str, bool]:
    """The checks of a complete run; the soliton-control and scattering presets
    first write scatter_report.json and add it to ``artifacts``."""
    if cfg.preset in ("decay", "morawetz"):
        checks = _morawetz_checks(builder.records)
        if cfg.preset == "decay":
            checks.update(_decay_checks(builder.records, cfg))
        return checks
    kept = {f.time_tag for f in builder.snapshots}
    rows = [r for r in builder.records if r.t in kept]
    lq = {q: [r.lq_norms[q] for r in rows] for q in cfg.q_list}
    report = make_scatter_report(builder.snapshots, lq,
                                 accumulators=builder.accumulators)
    spath = os.path.join(cfg.output_dir, "scatter_report.json")
    with open(spath, "w") as fh:
        fh.write(report.to_json())
    artifacts.append(spath)
    if cfg.preset == "soliton-control":
        return _soliton_checks(builder.records, report)
    return _scattering_checks(report)


def _write_manifest(cfg: RunConfig, t_start: float, checks: Dict[str, bool],
                    artifacts: List[str], status: int,
                    reduced: Optional[bool], **abort) -> None:
    """Write manifest.json; ``abort`` (error, records_written) marks an aborted run.

    ``y_independent`` says whether evolve stepped one y column (null for a
    preset without a datum).
    """
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "alpha_exact": str(cfg.alpha_fraction()),
        "alpha_float": float(cfg.alpha_fraction()),
        "checks": checks,
        "exit_status": status,
        "artifacts": artifacts,
        "y_independent": reduced,
        "aborted": bool(abort),
        **abort,
        "wall_time_s": time.perf_counter() - t_start,
    }
    with open(os.path.join(cfg.output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def verify_records(fh: TextIO) -> int:
    """Offline re-check of the inequality columns; returns exit status."""
    rows = read_records(fh)
    if not rows:
        raise ValueError("no rows: a complete run writes at least its step-0 record")
    missing = [c for c in _VIOLATION_COLUMNS if c not in rows[0]]
    if missing:
        raise ValueError(f"the header lacks the checked columns {missing}")
    bad = 0
    for i, row in enumerate(rows):
        for msg in _violations(*(row[c] for c in _VIOLATION_COLUMNS)).values():
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
            return _run_until_sigterm(parse_config(text))
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
        try:
            with open(args.records) as fh:
                return verify_records(fh)
        except (OSError, ValueError, csv.Error) as e:
            print(f"nlslab verify: {args.records}: {e}", file=sys.stderr)
            return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
