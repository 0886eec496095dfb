"""Interaction-Morawetz diagnostics built from y-integrated densities.

Every bilinear quantity has the shape

    sum_{x1,x2} a(x1) k(x1 - x2) b(x2) * cell^2

with k a derivative of phi(x) = <x> = sqrt(1 + |x|^2).  The double sums are
evaluated as zero-padded (linear) FFT convolutions against kernels sampled at
the true displacement x1 - x2 on the doubled grid, so they agree with the
whole-space convolution exactly; no wrap-around touches the inequality
checks as long as the boundary-mass guard holds.

The tracked objects:

    J    = -4 sum P . (grad_phi * rho)                       (momentum pairing)
    S    = 4 K:(hess * rho) + 4 rho (hess * K)
           - 8 P.(hess * P) + 2 grad_rho.(hess * grad_rho)   (>= 0: hess is PSD)
    lhs  = S + (2a/(a+2)) [nu (lap * rho) + rho (lap * nu)]  (= dJ/dt)
    rhs  = (4a/(a+2)) nu (lap * rho)

For defocusing dynamics lhs - rhs = S >= 0 pointwise-in-time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple, Union

import numpy as np
from scipy.signal import fftconvolve

from .field import DensitySet, Grid, SpectralField, _x_gradient, cube_sup_mass, densities
from .integrator import PhysicsParams


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MorawetzKernels:
    """phi = <x> and derivatives sampled at displacements on the doubled grid.

    For d=2 the Hessian is stored as its 3 independent components in the
    order (xx, xy, yy).
    """

    grid: Grid
    phi: np.ndarray
    grad_phi: Tuple[np.ndarray, ...]
    hess_phi: Tuple[np.ndarray, ...]
    lap_phi: np.ndarray

    def hess_component(self, i: int, j: int) -> np.ndarray:
        if self.grid.d == 1:
            return self.hess_phi[0]
        order = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        return self.hess_phi[order[(i, j)]]


@lru_cache(maxsize=8)
def make_kernels(grid: Grid) -> MorawetzKernels:
    d, N, dx = grid.d, grid.Nx, grid.dx
    s1 = (np.arange(2 * N - 1) - (N - 1)) * dx  # true displacements
    if d == 1:
        comps = (s1,)
    else:
        comps = (s1[:, None] + 0.0 * s1[None, :], 0.0 * s1[:, None] + s1[None, :])
    r_sq = sum(c ** 2 for c in comps)
    bracket = np.sqrt(1.0 + r_sq)  # <s>
    phi = bracket
    grad = tuple(c / bracket for c in comps)
    inv = 1.0 / bracket
    inv3 = inv ** 3
    if d == 1:
        hess = (inv - comps[0] ** 2 * inv3,)
    else:
        hess = (
            inv - comps[0] ** 2 * inv3,
            -comps[0] * comps[1] * inv3,
            inv - comps[1] ** 2 * inv3,
        )
    lap = ((d - 1) * r_sq + d) * inv3
    return MorawetzKernels(grid, phi, grad, hess, lap)


def _conv(grid: Grid, kern: np.ndarray, den: np.ndarray) -> np.ndarray:
    """(kern * den)(x1) = sum_{x2} kern(x1 - x2) den(x2) * cell."""
    full = fftconvolve(den, kern, mode="full")
    N = grid.Nx
    sl = (slice(N - 1, 2 * N - 1),) * grid.d
    return full[sl] * grid.cell


# ---------------------------------------------------------------------------
# core quantities
# ---------------------------------------------------------------------------

def _pair(grid: Grid, a: np.ndarray, conv_b: np.ndarray) -> float:
    return float(np.sum(a * conv_b) * grid.cell)


def _J(g: Grid, k: MorawetzKernels, ds: DensitySet) -> float:
    total = 0.0
    for i in range(g.d):
        total += _pair(g, ds.P[i], _conv(g, k.grad_phi[i], ds.rho))
    return -4.0 * total


def morawetz_J(fld: SpectralField, kernels: MorawetzKernels | None = None) -> float:
    """J = -4 sum P(x1) . (grad_phi * rho)(x1) * cell.

    Equals the full two-term momentum pairing: the rho-against-(grad_phi * P)
    partner coincides with this one because grad_phi is odd.
    """
    g = fld.grid
    ds = densities(fld, alpha=2.0)  # alpha irrelevant: only rho and P used
    return _J(g, kernels or make_kernels(g), ds)


def _certificate_terms(g: Grid, k: MorawetzKernels, ds: DensitySet) -> float:
    s = 0.0
    sym = {}  # hess(phi) and K are symmetric: (j, i) reuses the (i, j) convolutions
    for i in range(g.d):
        for j in range(g.d):
            hij = k.hess_component(i, j)
            key = (min(i, j), max(i, j))
            if key not in sym:
                sym[key] = (_conv(g, hij, ds.rho), _conv(g, hij, ds.K[i, j]))
            h_rho, h_K = sym[key]
            s += 4.0 * _pair(g, ds.K[i, j], h_rho)
            s += 4.0 * _pair(g, ds.rho, h_K)
            s -= 8.0 * _pair(g, ds.P[i], _conv(g, hij, ds.P[j]))
            s += 2.0 * _pair(g, ds.grad_rho[i], _conv(g, hij, ds.grad_rho[j]))
    return s


def positivity_certificate(fld: SpectralField,
                           kernels: MorawetzKernels | None = None) -> float:
    """S >= 0: y-integrated image of the pointwise bound 4 A hess(phi) conj(A) >= 0."""
    g = fld.grid
    ds = densities(fld, alpha=2.0)  # nu not used
    return _certificate_terms(g, kernels or make_kernels(g), ds)


def _chain(g: Grid, k: MorawetzKernels, ds: DensitySet,
           physics: PhysicsParams) -> Tuple[float, float, float]:
    """(S, lhs, rhs) from one density set."""
    s = _certificate_terms(g, k, ds)
    a = physics.alpha
    nu_lap_rho = _pair(g, ds.nu, _conv(g, k.lap_phi, ds.rho))
    nl = nu_lap_rho + _pair(g, ds.rho, _conv(g, k.lap_phi, ds.nu))
    lhs = s + (2.0 * a / (a + 2.0)) * physics.lam * nl
    rhs = (4.0 * a / (a + 2.0)) * physics.lam * nu_lap_rho
    return s, lhs, rhs


def morawetz_terms(fld: SpectralField, physics: PhysicsParams,
                   kernels: MorawetzKernels | None = None) -> Tuple[float, float]:
    """(lhs, rhs): lhs = I+II+III = dJ/dt; rhs the interaction lower bound."""
    g = fld.grid
    return _chain(g, kernels or make_kernels(g), densities(fld, physics.alpha),
                  physics)[1:]


def inequality_tolerance(lhs: float, rhs: float, mass_value: float) -> float:
    """Noise floor for lhs - rhs >= -tol checks."""
    return 1e-8 * max(abs(lhs), abs(rhs), mass_value ** 2, 1.0)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def local_mass_flux_residual(f_minus: SpectralField, f_plus: SpectralField,
                             psi: Union[np.ndarray, Callable[..., np.ndarray]]
                             ) -> float:
    """|d/dt int psi |u|^2 - (-2 Im int conj(u) grad psi . grad u)| at the midpoint.

    The time derivative is the central difference of the two snapshots; the
    flux side is the average of its values at the two times (both O(delta^2)).
    """
    g = f_minus.grid
    delta2 = f_plus.time_tag - f_minus.time_tag
    if delta2 <= 0:
        raise ValueError("snapshots must be time-ordered")
    if callable(psi):
        axes = [g.x_axis()] * g.d
        psi = np.asarray(psi(*np.meshgrid(*axes, indexing="ij")), dtype=float)
    psi = np.broadcast_to(psi, (g.Nx,) * g.d)
    grad_psi = _x_gradient(g, np.ascontiguousarray(psi))

    def mass_and_flux(fld: SpectralField) -> Tuple[float, float]:
        ds = densities(fld, alpha=2.0)
        return (float(np.sum(psi * ds.rho) * g.cell),
                float(sum(np.sum(grad_psi[i] * ds.P[i]) for i in range(g.d))
                      * -2.0 * g.cell))

    m_minus, flux_minus = mass_and_flux(f_minus)
    m_plus, flux_plus = mass_and_flux(f_plus)
    fd = (m_plus - m_minus) / delta2
    side = 0.5 * (flux_minus + flux_plus)
    return abs(fd - side)


def finite_difference_dJdt_check(f_minus: SpectralField, f_center: SpectralField,
                                 f_plus: SpectralField, physics: PhysicsParams,
                                 kernels: MorawetzKernels | None = None) -> float:
    """|(J(t+d) - J(t-d)) / 2d - lhs(t)|, O(delta^2) for exact trajectories."""
    k = kernels or make_kernels(f_center.grid)
    delta2 = f_plus.time_tag - f_minus.time_tag
    if delta2 <= 0:
        raise ValueError("snapshots must be time-ordered")
    fd = (morawetz_J(f_plus, k) - morawetz_J(f_minus, k)) / delta2
    lhs, _ = morawetz_terms(f_center, physics, k)
    return abs(fd - lhs)


# ---------------------------------------------------------------------------
# accumulation along a run
# ---------------------------------------------------------------------------

@dataclass
class MorawetzSample:
    t: float
    J: float
    lhs: float
    rhs: float
    S: float
    cube_sup: float
    cube_sup_integral: float


@dataclass
class CubeSupAccumulator:
    """Trapezoid fold of cube_sup_mass(., r_side)^{(alpha+4)/2} over a run."""

    r_side: float
    alpha: float
    integral: float = 0.0
    cube_sup: float | None = None  # the last cube_sup_mass value taken
    _last_t: float | None = None
    _last_val: float | None = None

    def update(self, t: float, fld: SpectralField) -> float:
        self.cube_sup = cube_sup_mass(fld, self.r_side)
        val = self.cube_sup ** ((self.alpha + 4.0) / 2.0)
        if self._last_t is not None:
            if t <= self._last_t:
                raise ValueError("stream must be strictly time-ordered")
            self.integral += 0.5 * (val + self._last_val) * (t - self._last_t)
        self._last_t, self._last_val = t, val
        return self.integral


class MorawetzRecorder:
    """Sink producing one MorawetzSample per snapshot of a run."""

    def __init__(self, physics: PhysicsParams, r_side: float = 1.0):
        self.physics = physics
        self.samples: list[MorawetzSample] = []
        self._acc = CubeSupAccumulator(r_side, physics.alpha)

    def __call__(self, fld: SpectralField, guard_breached: bool) -> None:
        g = fld.grid
        k = make_kernels(g)  # cached per grid
        ds = densities(fld, self.physics.alpha)
        s, lhs, rhs = _chain(g, k, ds, self.physics)
        integral = self._acc.update(fld.time_tag, fld)
        self.samples.append(MorawetzSample(
            t=fld.time_tag, J=_J(g, k, ds), lhs=lhs, rhs=rhs, S=s,
            cube_sup=self._acc.cube_sup, cube_sup_integral=integral))
