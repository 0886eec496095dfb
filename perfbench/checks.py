"""Checks on each run's outputs, against computations made apart from the program.

Everything here is plain numpy: spectral derivatives with ``numpy.fft``,
rectangle-rule integrals over the grid samples, a Strang loop written from
the equation, and O(N^2) double sums for the Morawetz pairings.  Each check
returns ``(name, ok, detail)``; the self-test feeds them wrong inputs to show
that they fail.

The equation is i u_t - Lap u + lam u |u|^alpha = 0 on [-L/2, L/2)^d x [0, 2pi).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

Check = Tuple[str, bool, str]


def _xi(n: int, period: float) -> np.ndarray:
    return 2 * np.pi * np.fft.fftfreq(n, d=period / n)


def derivative(u: np.ndarray, grid: dict, axis: int) -> np.ndarray:
    """Spectral derivative along an x axis (axis < d) or y (the last axis)."""
    period = grid["L"] if axis < grid["d"] else 2 * np.pi
    n = u.shape[axis]
    shape = [1] * u.ndim
    shape[axis] = n
    return np.fft.ifft(1j * _xi(n, period).reshape(shape)
                       * np.fft.fft(u, axis=axis), axis=axis)


def weight(grid: dict) -> float:
    """Rectangle-rule cell volume dx^d dy."""
    return (grid["L"] / grid["Nx"]) ** grid["d"] * 2 * np.pi / grid["Ny"]


def mass_of(u: np.ndarray, grid: dict) -> float:
    return float(np.sum(np.abs(u) ** 2) * weight(grid))


def _grad_sq(u: np.ndarray, grid: dict) -> float:
    """Grid sum of |grad_{x,y} u|^2 (times weight(grid) it is the integral)."""
    return float(sum(np.sum(np.abs(derivative(u, grid, ax)) ** 2)
                     for ax in range(grid["d"] + 1)))


def energy_of(u: np.ndarray, grid: dict, alpha: float, lam: int) -> float:
    """1/2 int |grad_{x,y} u|^2 + lam/(alpha+2) int |u|^(alpha+2)."""
    pot = np.sum(np.abs(u) ** (alpha + 2))
    return float((0.5 * _grad_sq(u, grid) + lam / (alpha + 2) * pot)
                 * weight(grid))


def h1_of(u: np.ndarray, grid: dict) -> float:
    """sqrt(int |u|^2 + |grad_{x,y} u|^2)."""
    return math.sqrt((float(np.sum(np.abs(u) ** 2)) + _grad_sq(u, grid))
                     * weight(grid))


def strang(u: np.ndarray, grid: dict, alpha: float, lam: int, dt: float,
           steps: int) -> np.ndarray:
    """Strang steps: exact kick u e^{i lam t |u|^alpha}, exact free flow.

    The free flow of i u_t = Lap u multiplies each plane wave
    exp(i(xi.x + n y)) by exp(+i t (|xi|^2 + n^2)).
    """
    d = grid["d"]
    xi = _xi(grid["Nx"], grid["L"])
    n = _xi(grid["Ny"], 2 * np.pi)
    sym = n[(None,) * d + (slice(None),)] ** 2
    for ax in range(d):
        shape = [1] * (d + 1)
        shape[ax] = grid["Nx"]
        sym = sym + xi.reshape(shape) ** 2
    free = np.exp(1j * dt * sym)
    v = u.copy()
    for _ in range(steps):
        v = v * np.exp(0.5j * lam * dt * np.abs(v) ** alpha)
        v = np.fft.ifftn(np.fft.fftn(v) * free)
        v = v * np.exp(0.5j * lam * dt * np.abs(v) ** alpha)
    return v


# ---------------------------------------------------------------------------
# conservation, energy and the integrator
# ---------------------------------------------------------------------------

def conservation_checks(u0: np.ndarray, final: np.ndarray, first: dict,
                        last: dict, grid: dict, alpha: float, lam: int
                        ) -> List[Check]:
    """Mass and energy of the datum and the final state.

    ``first`` and ``last`` are the program's first and last records (mass,
    energy).  Both Strang substeps are unitary in l^2, so mass is conserved
    to rounding.
    """
    m0, m1 = mass_of(u0, grid), mass_of(final, grid)
    e0 = energy_of(u0, grid, alpha, lam)
    e1 = energy_of(final, grid, alpha, lam)
    drift_m = abs(m1 - m0) / m0
    rec_m = max(abs(first["mass"] - m0), abs(last["mass"] - m1)) / m0
    rec_e = max(abs(first["energy"] - e0), abs(last["energy"] - e1)) / abs(e0)
    return [
        ("mass_conserved", drift_m < 1e-10, f"relative drift {drift_m:.2e}"),
        ("mass_matches_records", rec_m < 1e-12,
         f"records vs rectangle rule {rec_m:.2e}"),
        ("energy_matches_records", rec_e < 1e-9,
         f"records vs numpy spectral gradient {rec_e:.2e}"),
    ]


def energy_drift_check(u0: np.ndarray, final: np.ndarray, grid: dict,
                       alpha: float, lam: int, dt: float, steps: int) -> Check:
    """Energy drift over the run is within an order-2 splitting bound.

    Energy is not conserved by the splitting: its drift is the splitting
    error.  The reference is the benchmark's own Strang loop over the same
    interval at step 2 dt; an order-2 method at dt drifts a quarter of that,
    and the check allows half.  A first-order splitting drifts far more.
    """
    e0 = energy_of(u0, grid, alpha, lam)
    drift = abs(energy_of(final, grid, alpha, lam) - e0)
    coarse = strang(u0, grid, alpha, lam, 2 * dt, steps // 2)
    bound = abs(energy_of(coarse, grid, alpha, lam) - e0) / 2
    return ("energy_drift_order2", drift <= bound,
            f"|dE| {drift:.2e} <= |dE(2 dt)| / 2 = {bound:.2e}")


def strang_check(program: np.ndarray, u0: np.ndarray, grid: dict,
                 alpha: float, lam: int, dt: float, steps: int) -> Check:
    ref = strang(u0, grid, alpha, lam, dt, steps)
    err = float(np.abs(program - ref).max() / np.abs(ref).max())
    return ("strang_oracle", err < 1e-11,
            f"{steps} steps, max |diff| / max |u| {err:.2e}")


# ---------------------------------------------------------------------------
# Morawetz quantities
# ---------------------------------------------------------------------------

def morawetz_direct_1d(u: np.ndarray, grid: dict, alpha: float, lam: int
                       ) -> Dict[str, Tuple[float, float]]:
    """J, S, lhs, rhs by O(N^2) double sums; each with the sum of |terms|.

    Densities are y-integrals on the x grid; phi(s) = sqrt(1 + s^2) is
    sampled at the true displacement s = x1 - x2, so nothing wraps.
    """
    dx, dy = grid["L"] / grid["Nx"], 2 * np.pi / grid["Ny"]
    ux = derivative(u, grid, 0)
    rho = np.sum(np.abs(u) ** 2, axis=-1) * dy
    P = np.sum((np.conj(u) * ux).imag, axis=-1) * dy
    K = np.sum(np.abs(ux) ** 2, axis=-1) * dy
    nu = np.sum(np.abs(u) ** (alpha + 2), axis=-1) * dy
    drho = derivative(rho, {"d": 1, "L": grid["L"]}, 0).real
    dens = np.stack([rho, K, P, drho, nu], axis=1)
    N = rho.size
    idx = np.arange(N)
    # columns of k1/k2 products: phi' * rho, then phi'' * (rho, K, P, drho, nu)
    k1b = np.empty(N)
    k2b = np.empty((N, 5))
    abs1 = np.empty(N)
    abs2 = np.empty((N, 5))
    for lo in range(0, N, 512):
        s = np.subtract.outer(idx[lo:lo + 512], idx) * dx
        br = np.sqrt(1 + s * s)
        k1 = s / br
        k2 = 1 / br ** 3   # phi'' = Lap phi in d = 1
        k1b[lo:lo + 512] = k1 @ rho
        abs1[lo:lo + 512] = np.abs(k1) @ rho
        k2b[lo:lo + 512] = k2 @ dens
        abs2[lo:lo + 512] = k2 @ np.abs(dens)
    c2 = dx * dx

    def pair(a, col):
        return float(a @ k2b[:, col]) * c2, float(np.abs(a) @ abs2[:, col]) * c2

    J = (-4 * float(P @ k1b) * c2, 4 * float(np.abs(P) @ abs1) * c2)
    terms = [(4, pair(K, 0)), (4, pair(rho, 1)), (-8, pair(P, 2)),
             (2, pair(drho, 3))]
    S = (sum(w * v for w, (v, _) in terms), sum(abs(w) * a for w, (_, a) in terms))
    nl_a, nl_b = pair(nu, 0), pair(rho, 4)
    c = 2 * alpha / (alpha + 2) * lam
    lhs = (S[0] + c * (nl_a[0] + nl_b[0]), S[1] + abs(c) * (nl_a[1] + nl_b[1]))
    rhs = (2 * c * nl_a[0], abs(2 * c) * nl_a[1])
    return {"J": J, "positivity_S": S, "morawetz_lhs": lhs, "morawetz_rhs": rhs}


def double_sum_check(program: Dict[str, float],
                     direct: Dict[str, Tuple[float, float]]) -> Check:
    worst, name = 0.0, ""
    for key, (value, scale) in direct.items():
        err = abs(program[key] - value) / scale
        if err >= worst:
            worst, name = err, key
    return ("morawetz_double_sum", worst < 1e-10,
            f"worst |FFT - O(N^2)| / sum|terms| {worst:.2e} ({name})")


def morawetz_record_checks(records: Sequence[dict]) -> List[Check]:
    """S >= 0, lhs - rhs = S, and dJ/dt = lhs by a centred difference."""
    worst_s, worst_id = math.inf, 0.0
    for r in records:
        scale = r["mass"] * r["h1_norm"] ** 2
        worst_s = min(worst_s, r["positivity_S"] / scale)
        gap = r["morawetz_lhs"] - r["morawetz_rhs"] - r["positivity_S"]
        worst_id = max(worst_id, abs(gap) / max(abs(r["morawetz_lhs"]),
                                                abs(r["morawetz_rhs"])))
    m = len(records) // 2
    a, b, c = records[m - 1], records[m], records[m + 1]
    fd = (c["J"] - a["J"]) / (c["t"] - a["t"])
    fd_err = abs(fd - b["morawetz_lhs"]) / abs(b["morawetz_lhs"])
    return [
        ("positivity_S", worst_s > -1e-10,
         f"min S / (mass h1^2) {worst_s:.2e} over {len(records)} samples"),
        ("lhs_minus_rhs_is_S", worst_id < 1e-9,
         f"max |lhs - rhs - S| / max(|lhs|, |rhs|) {worst_id:.2e}"),
        ("dJdt_matches_lhs", fd_err < 1e-4,
         f"centred difference at t = {b['t']:g}: relative {fd_err:.2e}"),
    ]


# ---------------------------------------------------------------------------
# scattering outputs
# ---------------------------------------------------------------------------

def cauchy_checks(C: np.ndarray, h1: Sequence[float]) -> List[Check]:
    """C is a metric, and C_ij >= | ||u(t_i)||_H1 - ||u(t_j)||_H1 |.

    The second holds because the free flow is an H^1 isometry, so
    ||w(t)||_H1 = ||u(t)||_H1 for the pull-back w.
    """
    m = C.shape[0]
    tol = 1e-12 * float(np.abs(C).max())
    sym = bool(np.array_equal(C, C.T)) and not np.any(np.diag(C))
    tri = all(C[i, k] <= C[i, j] + C[j, k] + tol
              for i in range(m) for j in range(m) for k in range(m))
    h = np.asarray(h1)
    gap = float((np.abs(h[:, None] - h[None, :]) - C).max())
    return [
        ("cauchy_is_metric", sym and tri,
         f"{m}x{m}: symmetric with zero diagonal {sym}, triangle {tri}"),
        ("cauchy_h1_lower_bound", gap <= 1e-10 * float(h.max()),
         f"max(|h_i - h_j| - C_ij) {gap:.2e}"),
    ]


def accumulator_check(rows: Sequence[dict]) -> Check:
    cols = [k for k in rows[0] if k.startswith("acc_")]
    bad = [k for k in cols
           if any(b[k] < a[k] for a, b in zip(rows, rows[1:]))]
    return ("accumulators_nondecreasing", not bad,
            f"{len(cols)} columns, decreasing: {bad or 'none'}")
