"""Interaction-Morawetz diagnostics built from y-integrated densities.

Every bilinear quantity has the shape

    <a, k * b> = sum_{x1,x2} a(x1) k(x1 - x2) b(x2) * cell^2

with k a derivative of phi(x) = <x> = sqrt(1 + |x|^2).  The double sums are
taken by Parseval on a zero-padded grid of M = 2 Nx points per axis: k sits
at its wrapped displacement there, and since M >= 2 Nx - 1 no wrap-around
touches a pairing, so each equals the whole-space double sum exactly.  The
kernel spectra are built once per grid.  One function, ``pairings``, takes
the density pass, which reads the snapshot's samples alone (no pairing makes
its coefficients), transforms each density once and returns J, S, lhs and
rhs, each pairing one weighted sum over the half spectrum, with no inverse
transform; a run's record (cli.RecordBuilder), ``MorawetzRecorder``,
``morawetz_J``, ``positivity_certificate`` and ``morawetz_terms`` all read
it.  No wrap-around touches the inequality checks as long as the
boundary-mass guard holds.

The tracked objects:

    J    = -4 sum P . (grad_phi * rho)                       (momentum pairing)
    S    = 4 K:(hess * rho) + 4 rho (hess * K)
           - 8 P.(hess * P) + 2 grad_rho.(hess * grad_rho)   (>= 0: hess is PSD)
    lhs  = S + (2a/(a+2)) [nu (lap * rho) + rho (lap * nu)]  (= dJ/dt)
    rhs  = (4a/(a+2)) nu (lap * rho)

Since hess and lap are even, 4 K:(hess * rho) + 4 rho (hess * K) =
8 K:(hess * rho) and the two interaction pairings coincide, so lhs = S + rhs.
For defocusing dynamics lhs - rhs = S >= 0 pointwise-in-time.

The identities behind them, lhs = dJ/dt and the local mass flux that P
carries, are checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import fft as sfft
from scipy.signal import fftconvolve  # noqa: F401  not called; perfbench/tracing.py wraps it

from .field import DensitySet, Grid, SpectralField, cube_sup_mass, densities, fft_workers
from .integrator import PhysicsParams
from .scattering import TrapezoidFold, extended_power


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledKernels:
    """Derivatives of phi = <x> at the true displacements x1 - x2, on the
    centred (2 Nx - 1)^d grid; d=2 stores the Hessian as (xx, xy, yy)."""

    grad_phi: Tuple[np.ndarray, ...]
    hess_phi: Tuple[np.ndarray, ...]
    lap_phi: np.ndarray


def sample_kernels(grid: Grid) -> SampledKernels:
    """The spatial kernels behind make_kernels (not cached)."""
    d, N, dx = grid.d, grid.Nx, grid.dx
    s1 = (np.arange(2 * N - 1) - (N - 1)) * dx  # true displacements
    if d == 1:
        comps = (s1,)
    else:
        comps = (s1[:, None] + 0.0 * s1[None, :], 0.0 * s1[:, None] + s1[None, :])
    r_sq = sum(c ** 2 for c in comps)
    bracket = np.sqrt(1.0 + r_sq)  # <s>
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
    return SampledKernels(grad, hess, lap)


@dataclass(frozen=True)
class MorawetzKernels:
    """Half spectra of phi's derivatives on the padded grid, as float arrays.

    Each holds the rfftn of the kernel at its wrapped displacement on the
    (2 Nx)^d grid, times the half-spectrum Parseval weight (1 at bins 0 and
    Nx of the last axis, 2 elsewhere) and cell^2 / (2 Nx)^d.  The kernels are
    even (hess, lap) or odd (grad), so only the real or the imaginary part
    is kept.  For d=2 the Hessian is stored as (xx, xy, yy).
    """

    grid: Grid
    grad_phi: Tuple[np.ndarray, ...]
    hess_phi: Tuple[np.ndarray, ...]
    lap_phi: np.ndarray

    @property
    def shape(self) -> Tuple[int, ...]:
        """The padded grid."""
        return (2 * self.grid.Nx,) * self.grid.d


@lru_cache(maxsize=8)
def make_kernels(grid: Grid) -> MorawetzKernels:
    d, M = grid.d, 2 * grid.Nx
    w = np.full(M // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    w *= grid.cell ** 2 / M ** d

    def spectrum(centred: np.ndarray) -> np.ndarray:
        # one leading zero per axis puts displacement 0 at index M/2 and the
        # never-used displacement -Nx at index 0; ifftshift then wraps it
        wrapped = np.fft.ifftshift(np.pad(centred, [(1, 0)] * d))
        return sfft.rfftn(wrapped, workers=fft_workers())

    sk = sample_kernels(grid)
    return MorawetzKernels(
        grid,
        tuple(spectrum(k).imag * w for k in sk.grad_phi),
        tuple(spectrum(k).real * w for k in sk.hess_phi),
        spectrum(sk.lap_phi).real * w)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def _spectra(k: MorawetzKernels, ds: DensitySet) -> Dict[object, np.ndarray]:
    """Half spectra on the padded grid of every density a pairing reads:
    ``sp["rho"]``, ``sp["nu"]``, ``sp["P", i]``, ``sp["K", i, j]`` with i <= j
    and ``sp["grad_rho", i]``."""
    d = k.grid.d
    dens: Dict[object, np.ndarray] = {"rho": ds.rho, "nu": ds.nu}
    dens.update({("P", i): ds.P[i] for i in range(d)})
    dens.update({("K", i, j): ds.K[i, j] for i in range(d) for j in range(i, d)})
    dens.update({("grad_rho", i): ds.grad_rho[i] for i in range(d)})
    return {key: sfft.rfftn(den, s=k.shape, workers=fft_workers())
            for key, den in dens.items()}


# Elementwise products and np.sum: a BLAS level-1 dot of complex arrays can
# cost milliseconds whatever its length.
def _even(k: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """<a, k * b> for an even kernel, from the half spectra of k, a and b."""
    return float(np.sum((a.conj() * b).real * k))


def _odd(k: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """<a, k * b> for an odd kernel, from the half spectra of k, a and b."""
    return float(np.sum((a * b.conj()).imag * k))


def pairings(fld: SpectralField, physics: PhysicsParams, q_list: Sequence[float] = ()
              ) -> Tuple[Tuple[float, float, float, float], DensitySet]:
    """(J, S, lhs, rhs) of one snapshot, with the density pass they read,
    which also takes the L^q norm of each q in q_list."""
    k = make_kernels(fld.grid)  # cached per grid
    ds = densities(fld, physics.alpha, q_list)
    sp = _spectra(k, ds)
    d = k.grid.d
    J = -4.0 * sum(_odd(k.grad_phi[i], sp["P", i], sp["rho"]) for i in range(d))
    S = 0.0
    # hess_phi holds the i <= j components in this loop order: (xx, xy, yy) at d=2
    for (i, j), h in zip([(i, j) for i in range(d) for j in range(i, d)], k.hess_phi):
        term = (8.0 * _even(h, sp["K", i, j], sp["rho"])
                - 8.0 * _even(h, sp["P", i], sp["P", j])
                + 2.0 * _even(h, sp["grad_rho", i], sp["grad_rho", j]))
        # hess_phi, K and the pairings are symmetric: (j, i) repeats (i, j)
        S += term if i == j else 2.0 * term
    a = physics.alpha
    rhs = (4.0 * a / (a + 2.0)) * physics.lam * _even(k.lap_phi, sp["nu"], sp["rho"])
    return (J, S, S + rhs, rhs), ds


# J and S read no nu, so any alpha will do for them
_NU_UNREAD = PhysicsParams(2.0, 1)


def morawetz_J(fld: SpectralField) -> float:
    """J = -4 sum P(x1) . (grad_phi * rho)(x1) * cell.

    Equals the full two-term momentum pairing: the rho-against-(grad_phi * P)
    partner coincides with this one because grad_phi is odd.
    """
    return pairings(fld, _NU_UNREAD)[0][0]


def positivity_certificate(fld: SpectralField) -> float:
    """S >= 0: y-integrated image of the pointwise bound 4 A hess(phi) conj(A) >= 0."""
    return pairings(fld, _NU_UNREAD)[0][1]


def morawetz_terms(fld: SpectralField, physics: PhysicsParams) -> Tuple[float, float]:
    """(lhs, rhs): lhs = I+II+III = dJ/dt; rhs the interaction lower bound."""
    return pairings(fld, physics)[0][2:]


def inequality_tolerance(lhs: float, rhs: float, mass_value: float) -> float:
    """Noise floor for lhs - rhs >= -tol checks."""
    return 1e-8 * max(abs(lhs), abs(rhs), extended_power(mass_value, 2), 1.0)


# ---------------------------------------------------------------------------
# accumulation along a run
# ---------------------------------------------------------------------------

@dataclass
class MorawetzSample:
    """One row of MorawetzRecorder."""

    t: float
    J: float
    lhs: float
    rhs: float
    S: float
    cube_sup: float
    cube_sup_integral: float


class CubeSupAccumulator(TrapezoidFold):
    """Trapezoid fold of cube_sup_mass^{(alpha+4)/2} over a run."""

    def __init__(self, alpha: float):
        super().__init__(("cube",))
        self.alpha = alpha
        self.cube_sup: float | None = None  # the last value taken

    def update(self, t: float, fld: SpectralField) -> float:
        self.cube_sup = cube_sup_mass(fld)
        return self.fold(t, {"cube": self.cube_sup ** ((self.alpha + 4.0) / 2.0)})["cube"]


class MorawetzRecorder:
    """Sink producing one MorawetzSample per snapshot of a run, as a record
    does; perfbench/tracing.py wraps its __call__."""

    def __init__(self, physics: PhysicsParams):
        self.physics = physics
        self.samples: list[MorawetzSample] = []
        self._acc = CubeSupAccumulator(physics.alpha)

    def __call__(self, fld: SpectralField, guard_breached: bool) -> None:
        (J, S, lhs, rhs), _ = pairings(fld, self.physics)
        integral = self._acc.update(fld.time_tag, fld)
        self.samples.append(MorawetzSample(fld.time_tag, J, lhs, rhs, S,
                                           self._acc.cube_sup, integral))
