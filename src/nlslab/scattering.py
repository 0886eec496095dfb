"""Scattering evidence from trajectories: pull-backs, Cauchy tables, decay series.

The pull-back w(t) = (free flow)^{-1} u(t) converges in H^1 exactly when the
trajectory scatters; the Cauchy table of H^1 differences quantifies that.
Space-time accumulators shadow the finiteness of the global mixed-norm
bounds: saturating integrals are the numerical signature of membership in
the corresponding L^q_t spaces.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .exponents import (
    AuxPair,
    ProblemParams,
    StrichartzTuple,
    ThetaTuple,
    verify_tuple,
)
from .field import (
    DensitySet,
    SpectralField,
    _lr_x,
    _mixed_from_power,
    _multiplier_norm,
    _y_mode_power,
    free_evolve,
    lebesgue_norm,  # not called here; perfbench/tracing.py wraps scattering.lebesgue_norm
    mixed_norm,  # not called here; perfbench/tracing.py wraps scattering.mixed_norm
    sobolev_h1,  # not called here; perfbench/tracing.py wraps scattering.sobolev_h1
)


def pullback(fld: SpectralField, out: np.ndarray | None = None) -> SpectralField:
    """w(t) = free flow run backward to the t = 0 reference frame, with its
    coefficients in out when one is given (see free_evolve)."""
    return free_evolve(fld, -fld.time_tag, out)


def _check_increasing(times: Sequence[float], minimum: int) -> None:
    if len(times) < minimum:
        raise ValueError(f"need at least {minimum} snapshots, got {len(times)}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("snapshot times must be strictly increasing")


def check_cauchy_times(times: Sequence[float]) -> None:
    """The Cauchy table's snapshot times: at least 3, strictly increasing."""
    _check_increasing(times, 3)


def cauchy_table(snapshots: Sequence[SpectralField]) -> np.ndarray:
    """C_ij = ||w(t_i) - w(t_j)||_{H^1}; symmetric with zero diagonal.

    sobolev_h1's multiplier norm, in memory that does not grow with the
    snapshot count: the weight 1 + |xi|^2 + n^2 is built once, w(t_i) is
    pulled back once per row into one buffer, w(t_j) and then the difference
    are formed in place in a second, and the weighted |.|^2 in a third.
    """
    check_cauchy_times([f.time_tag for f in snapshots])
    g = snapshots[0].grid
    weight = 1.0 + g.laplace_symbol()
    wi, wj = np.empty(g.shape, complex), np.empty(g.shape, complex)
    power = np.empty(g.shape)
    m = len(snapshots)
    C = np.zeros((m, m))
    for i in range(m):
        pullback(snapshots[i], wi)
        for j in range(i + 1, m):
            diff = np.subtract(wi, pullback(snapshots[j], wj).coefficients, out=wj)
            C[i, j] = C[j, i] = _multiplier_norm(SpectralField(g, diff), weight, power)
    return C


def cauchy_tail_maxima(C: np.ndarray) -> List[float]:
    """tail[k] = max over j > i >= k of C_ij."""
    m = C.shape[0]
    return [float(C[k:, k:].max()) for k in range(m - 1)]


def all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def extended_power(x: float, p: int) -> float:
    """x ** p, or inf where the float power overflows (p even)."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def strictly_decreasing(values: Sequence[float]) -> bool:
    """At least two values, all finite, and each one below the one before it."""
    return len(values) >= 2 and all_finite(values) and all(
        b < a for a, b in zip(values, values[1:]))


def cauchy_tail_decreasing(C: np.ndarray) -> bool:
    """Every entry finite and the tail maxima strictly decreasing."""
    return all_finite(C.ravel()) and strictly_decreasing(cauchy_tail_maxima(C))


@dataclass
class DecaySeries:
    q: float
    values: List[float]
    ratio_last_to_max: float
    monotone_tail: bool
    outside_range: bool


DECAY_TRANSIENT = 1.0  # decay tails are judged from this time on


def settled_tail(times: Sequence[float], values: Sequence[float]) -> bool:
    """The values at t >= DECAY_TRANSIENT are at least two, all finite, and
    none rises above the one before it by more than 1e-8 relative."""
    tail = [v for t, v in zip(times, values) if t >= DECAY_TRANSIENT]
    return len(tail) >= 2 and all_finite(tail) and all(
        b <= a * (1.0 + 1e-8) for a, b in zip(tail, tail[1:]))


def decay_series(times: Sequence[float], d: int,
                 lq: Dict[float, Sequence[float]]) -> Dict[float, DecaySeries]:
    """Monotone-tail flags for t >= DECAY_TRANSIENT of each L^q norm series.

    lq maps q to the norms ||u(t)||_{L^q} at the given times, which are those
    of the run's records.  q values outside 2 < q < 2(d+1)/(d-1) (any q > 2
    for d = 1) are still judged but flagged, with a warning.
    """
    _check_increasing(times, 2)
    q_hi = np.inf if d == 1 else 2.0 * (d + 1) / (d - 1)
    out: Dict[float, DecaySeries] = {}
    for q, vals in lq.items():
        if len(vals) != len(times):
            raise ValueError(f"q = {q}: {len(vals)} values for {len(times)} times")
        outside = not (2.0 < q <= q_hi)
        if outside:
            warnings.warn(
                f"q = {q} lies outside the dispersive-decay range (2, {q_hi}]",
                RuntimeWarning,
            )
        peak = max(vals)
        out[q] = DecaySeries(
            q=q, values=list(vals),
            ratio_last_to_max=0.0 if peak == 0 else vals[-1] / peak,
            monotone_tail=settled_tail(times, vals), outside_range=outside)
    return out


# ---------------------------------------------------------------------------
# space-time accumulators
# ---------------------------------------------------------------------------

class TrapezoidFold:
    """Trapezoid integrals over t of named values on a strictly increasing
    time stream, with each key's last and peak increment."""

    def __init__(self, keys: Sequence[str]):
        self.totals = dict.fromkeys(keys, 0.0)
        self._increments = dict.fromkeys(keys, (0.0, 0.0))  # (last, peak)
        self._last: Tuple[float, Dict[str, float]] | None = None

    def fold(self, t: float, values: Dict[str, float]) -> Dict[str, float]:
        """Add 0.5 (v + v0) (t - t0) per key; returns the running totals.
        A peak turns NaN for good once an increment is not finite."""
        if self._last is not None:
            t0, v0 = self._last
            if t <= t0:
                raise ValueError("stream must be strictly time-ordered")
            for key, v in values.items():
                inc = 0.5 * (v + v0[key]) * (t - t0)
                self.totals[key] += inc
                peak = self._increments[key][1]
                self._increments[key] = (
                    inc, max(peak, inc) if math.isfinite(inc) else math.nan)
        self._last = (t, values)
        return self.totals

    def saturation(self) -> Dict[str, float]:
        """Last increment relative to the peak increment, per key.

        NaN once any increment was not finite.  A peak of 0 gives 0.0: an
        integrand that is identically zero (such as d_y u of a y-independent
        datum) counts as saturated, and so does a fold with no increment yet.
        """
        return {k: 0.0 if peak == 0 else last / peak
                for k, (last, peak) in self._increments.items()}


ACCUMULATORS = ("theta_norm", "u_lp", "dy_lp", "grad_lp")


@dataclass
class SpacetimeAccumulators(TrapezoidFold):
    """Trapezoid folds of the global space-time norms along a run.

    theta_norm: ||u||^{q_theta} in L^{r_theta}_x H^{1/2+delta}_y, with
        delta = min(1/20, 1/2 - s) for the base tuple's regularity s, so
        that 1/2 + delta + s <= 1 (delta > 0, as s < 1/2 below the energy
        critical power)
    u_lp, dy_lp, grad_lp: ||u||^l, ||d_y u||^l, ||grad_x u||^l in L^p_x L^2_y

    Each update takes the sample's DensitySet: trace K is the y-integrated
    |grad_x u|^2, so grad_lp needs no gradient pass of its own.
    """

    params: ProblemParams
    base: StrichartzTuple
    theta: ThetaTuple
    aux: AuxPair

    def __post_init__(self):
        if not verify_tuple(self.theta, self.params, base=self.base).feasible:
            raise ValueError("theta tuple fails its feasibility constraints")
        if not verify_tuple(self.aux, self.params, base=self.base).feasible:
            raise ValueError("auxiliary pair fails its feasibility constraints")
        self.delta = min(Fraction(1, 20), Fraction(1, 2) - self.base.s)
        super().__init__(ACCUMULATORS)
        self.theta_mixed_norm: float | None = None

    def _instant(self, fld: SpectralField, ds: DensitySet) -> Dict[str, float]:
        q_th = float(self.theta.q_theta)
        r_th = float(self.theta.r_theta)
        gamma = 0.5 + float(self.delta)
        ell = float(self.aux.l)
        p = float(self.aux.p)
        g = fld.grid
        power = _y_mode_power(fld)  # one y transform per snapshot, cached on it
        n_sq = g.n_axis() ** 2
        self.theta_mixed_norm = _mixed_from_power(g, power, r_th, (1.0 + n_sq) ** gamma)
        return dict(zip(ACCUMULATORS, (
            self.theta_mixed_norm ** q_th,
            _mixed_from_power(g, power, p, np.ones_like(n_sq)) ** ell,
            _mixed_from_power(g, power, p, n_sq) ** ell,
            _lr_x(np.trace(ds.K), p, g.cell) ** ell)))

    def update(self, t: float, fld: SpectralField, ds: DensitySet) -> Dict[str, float]:
        return dict(self.fold(t, self._instant(fld, ds)))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def geometric_sample_times(t0: float, t_end: float, dt: float) -> List[float]:
    """t_i = t0 * 1.3^i snapped to the step grid, strictly increasing, up to
    t_end: a time snapped past t_end is never sampled."""
    times = []
    t = t0
    while t <= t_end * (1 + 1e-12):
        snapped = round(round(t / dt) * dt, 12)
        if snapped > t_end * (1 + 1e-12):
            break
        if not times or snapped > times[-1]:
            times.append(snapped)
        t *= 1.3
    return times


@dataclass
class ScatterReport:
    times: List[float]
    cauchy: np.ndarray
    decay: Dict[float, DecaySeries]
    accumulator_totals: Dict[str, float]
    accumulator_saturation: Dict[str, float]
    flags: Dict[str, bool]

    def to_json_dict(self) -> dict:
        return {
            "times": self.times,
            "cauchy_matrix": [float(v) for v in self.cauchy.ravel()],
            "decay": {
                str(q): {
                    "values": s.values,
                    "ratio_last_to_max": s.ratio_last_to_max,
                    "monotone_tail": s.monotone_tail,
                    "outside_range": s.outside_range,
                }
                for q, s in self.decay.items()
            },
            "accumulators": self.accumulator_totals,
            "saturation": self.accumulator_saturation,
            "flags": self.flags,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def make_scatter_report(snapshots: Sequence[SpectralField],
                        lq: Dict[float, Sequence[float]],
                        accumulators: SpacetimeAccumulators | None = None
                        ) -> ScatterReport:
    """The report of the kept snapshots; lq holds each L^q series at their times."""
    times = [f.time_tag for f in snapshots]
    C = cauchy_table(snapshots)
    decay = decay_series(times, snapshots[0].grid.d, lq)
    acc = accumulators
    return ScatterReport(
        times=times, cauchy=C, decay=decay,
        accumulator_totals=dict(acc.totals) if acc else {},
        accumulator_saturation=acc.saturation() if acc else {},
        flags={"cauchy_tail_decreasing": cauchy_tail_decreasing(C),
               "all_monotone_tails": all(s.monotone_tail for s in decay.values())})
