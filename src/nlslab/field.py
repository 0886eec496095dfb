"""Spectral representation of u(t,x,y) on a periodic box [-L/2, L/2)^d x [0, 2pi).

Coefficients follow the convention

    u(x, y) = sum_{k,n} c[k, n] * exp(i (xi_k . x + n y)),    xi_k = 2 pi k / L,

with k and n in FFT-standard wrapped order.  The x grid starts at -L/2 and
the y grid at 0; the (-1)^k phase factors below absorb the x offset so that
``c`` always stores true plane-wave amplitudes.

All physical-space integrals use the rectangle rule, which is spectrally
accurate for smooth periodic fields.  The induced Parseval identity is

    ||u||_{L^2}^2 = (L^d * 2 pi) * sum |c|^2.

A field that SpectralField.from_samples built from a y column keeps the
column, and a record of it works on the column alone: its transforms read
the n = 0 coefficients (_carrier), its y-mode power is that of Ny u with no
transform, and each y sum is Ny times the column's (_y_samples).  The
full-grid field with the same samples sums Ny equal rows instead, so the
two agree within the recursive-summation bound, 2 Ny eps sum_y |terms|.

Every transform of the module is one of a pair, both with norm="forward":
_forward takes samples, on the grid or on a y column, to coefficients, for
from_samples and for rho's x transform; _inverse takes coefficients times a
multiplier to samples, for samples() (the (-1)^k phases of Grid.x_phase)
and for every x-derivative (_x_derivatives, with the multipliers cached per
grid).  The phases are cached per grid as well, and both are read-only.

The module holds what a run reads.  The difference-quotient form of the
H^s_y norm, the dealiased power u |u|^alpha and the fractional Leibniz ratio
check the norm engine for the acceptance criteria, and live with them in
tests/test_field.py.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Sequence, Tuple, Union

import numpy as np
from scipy import fft as sfft

TWO_PI = 2.0 * np.pi


def fft_workers() -> int:
    """The thread count of every FFT and of the nonlinear kick: the core count
    unless NLSLAB_THREADS is set to a positive integer, which is clamped to
    the core count."""
    raw = os.environ.get("NLSLAB_THREADS", "")
    if raw and not (raw.isdecimal() and int(raw) >= 1):
        raise ValueError(f"NLSLAB_THREADS = {raw!r}: must be a positive integer")
    cores = os.cpu_count() or 1
    return min(int(raw), cores) if raw else cores


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Discretization of [-L/2, L/2)^d x [0, 2pi): d in {1, 2}, Nx and Ny powers of two."""

    d: int
    L: float
    Nx: int
    Ny: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        for name, N in (("Nx", self.Nx), ("Ny", self.Ny)):
            if N < 4 or not _is_pow2(N):
                raise ValueError(f"{name} must be a power of two >= 4, got {N}")

    @property
    def dx(self) -> float:
        return self.L / self.Nx

    @property
    def dy(self) -> float:
        return TWO_PI / self.Ny

    @property
    def cell(self) -> float:
        """x-cell volume (L/Nx)^d."""
        return self.dx ** self.d

    @property
    def measure(self) -> float:
        """Total domain measure L^d * 2 pi (Parseval constant)."""
        return (self.L ** self.d) * TWO_PI

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.Nx,) * self.d + (self.Ny,)

    @property
    def ntot(self) -> int:
        return self.Nx ** self.d * self.Ny

    def x_axis(self) -> np.ndarray:
        return -self.L / 2 + self.dx * np.arange(self.Nx)

    def y_axis(self) -> np.ndarray:
        return self.dy * np.arange(self.Ny)

    def xi_axis(self) -> np.ndarray:
        """Wrapped-order x frequencies 2 pi k / L."""
        return TWO_PI * sfft.fftfreq(self.Nx, d=1.0 / self.Nx) / self.L

    def n_axis(self) -> np.ndarray:
        """Wrapped-order integer y frequencies."""
        return sfft.fftfreq(self.Ny, d=1.0 / self.Ny)

    def xi_grids(self) -> Tuple[np.ndarray, ...]:
        """Per-x-axis frequency arrays broadcastable against the coefficient shape."""
        xi = self.xi_axis()
        if self.d == 1:
            return (xi[:, None],)
        return (xi[:, None, None], xi[None, :, None])

    def n_grid(self) -> np.ndarray:
        n = self.n_axis()
        return n[(None,) * self.d + (slice(None),)]

    def xi_sq(self) -> np.ndarray:
        out = np.zeros(self.shape[:-1] + (1,))
        for g in self.xi_grids():
            out = out + g ** 2
        return out

    def laplace_symbol(self) -> np.ndarray:
        """|xi|^2 + n^2 on the coefficient grid."""
        return self.xi_sq() + self.n_grid() ** 2

    @lru_cache(maxsize=8)
    def x_phase(self) -> np.ndarray:
        """(-1)^k factors absorbing the x0 = -L/2 grid offset (one per x
        axis), built once per grid and read-only."""
        p = np.where(np.arange(self.Nx) % 2 == 0, 1.0, -1.0)
        out = p[:, None] if self.d == 1 else p[:, None, None] * p[None, :, None]
        out.setflags(write=False)
        return out


class SpectralField:
    """Immutable field snapshot: grid + plane-wave coefficient array + time tag."""

    __slots__ = ("grid", "coefficients", "time_tag", "_samples", "_windows", "_column")

    def __init__(self, grid: Grid, coefficients: np.ndarray, time_tag: float = 0.0):
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        if coefficients.shape != grid.shape:
            raise ValueError(
                f"coefficient shape {coefficients.shape} does not match grid {grid.shape}"
            )
        self.grid = grid
        self.coefficients = coefficients
        self.time_tag = float(time_tag)
        self._samples = None
        self._windows = None  # see _cube_window_sums
        self._column = None  # the y column from_samples built it from; see _y_samples

    def samples(self) -> np.ndarray:
        """Physical-space values on the grid (lazily computed, then cached)."""
        if self._samples is None:
            self._samples = _inverse(self.coefficients, self.grid.x_phase())
        return self._samples

    @classmethod
    def from_samples(cls, grid: Grid, samples: np.ndarray, time_tag: float = 0.0
                     ) -> "SpectralField":
        """The field with these samples, given on the grid or on one y column:
        their forward transform (_forward), fftn(samples) / size * x_phase
        bit for bit.

        A y column, shape (Nx,)^d x 1, is the field constant along y; the
        field keeps the column, and its samples() is a read-only broadcast
        view of it, with no full-grid copy.  Its spectrum is the column's
        x transform divided by Nx^d (that is, times Ny / ntot) at n = 0, and
        exact zeros at every n != 0.  A power-of-two FFT of a constant y row
        is exactly Ny times the value at n = 0 and zero elsewhere, so these
        coefficients equal those of the broadcast samples (np.array_equal),
        and the samples are the same bits.  Only the signs of zeros can
        differ (a byte comparison sees them): the column form has +0 at every
        n != 0, where the full-grid transform's zeros carry the (-1)^k phase.
        The record of such a field works on the column alone (_carrier,
        _y_samples).
        """
        samples = np.asarray(samples, dtype=np.complex128)
        column = grid.shape[:-1] + (1,)
        if samples.shape not in (grid.shape, column):
            raise ValueError(f"sample shape {samples.shape} matches neither grid "
                             f"{grid.shape} nor its y column {column}")
        c = _forward(samples, grid)
        if samples.shape == column:
            full = np.zeros(grid.shape, dtype=c.dtype)
            full[..., :1] = c  # +0 at every n != 0
            out = cls(grid, full, time_tag)
            out._column, samples = samples, np.broadcast_to(samples, grid.shape)
        else:
            out = cls(grid, c, time_tag)
        out._samples = samples
        return out


def long_axes(a: np.ndarray) -> list:
    """The axes of a longer than one: a transform over a length-1 axis is the
    identity, so a y column is transformed over its x axes alone."""
    return [i for i, m in enumerate(a.shape) if m > 1]


# The transform pair.  Both scale with norm="forward": the forward transform
# by 1/size, the inverse not at all.  Each size is a power of two, so that
# scale is exact, and the pair gives the bits of fftn(a) / size and of
# ifftn(c * m) * size away from underflow.

def _forward(a: np.ndarray, grid: Grid) -> np.ndarray:
    """Plane-wave amplitudes of the samples a, given on the grid or on one y
    column: fftn over a's long axes, divided by their size, times x_phase."""
    c = sfft.fftn(a, axes=long_axes(a), norm="forward", workers=fft_workers())
    c *= grid.x_phase()
    return c


def _inverse(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The samples of the multiplier m applied to the coefficients c, given on
    the grid or on its n = 0 column: ifftn(c * m) over c's long axes, without
    normalization.  m = x_phase gives the field's own samples."""
    return sfft.ifftn(c * m, axes=long_axes(c), overwrite_x=True, norm="forward",
                      workers=fft_workers())


def _carrier(fld: SpectralField) -> np.ndarray:
    """The coefficients the transforms of a record need: the n = 0 column of
    a field that from_samples built from a y column, whose other entries are
    all +0, and every coefficient of any other field."""
    return fld.coefficients[..., :1] if fld._column is not None else fld.coefficients


def _y_samples(fld: SpectralField) -> Tuple[np.ndarray, float]:
    """The samples a y sum reads and the weight of each y point: the y
    column of a field that from_samples built from one, a point of weight
    Ny dy = 2 pi (each y sum is Ny times the column's), and the samples on
    the grid with weight dy otherwise."""
    if fld._column is not None:
        return fld._column, TWO_PI
    return fld.samples(), fld.grid.dy


def from_profile(grid: Grid,
                 sampler: Callable[..., Union[complex, np.ndarray]]) -> SpectralField:
    """Sample u0(x, y) (or u0(x1, x2, y) for d=2) on the grid and transform."""
    axes = [grid.x_axis()] * grid.d + [grid.y_axis()]
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = np.asarray(sampler(*mesh), dtype=np.complex128)
    vals = np.broadcast_to(vals, grid.shape).copy()
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise ValueError("sampler produced non-finite values on the grid")
    return SpectralField.from_samples(grid, vals, time_tag=0.0)


def y_independent(fld: SpectralField) -> bool:
    """Whether the samples are exactly equal along y, judged from what the
    field holds, with no transform.

    A field that from_samples built from a y column is.  A field whose
    samples are cached compares them along y.  A field of coefficients
    only, as load_field returns it, is when every coefficient at n != 0 is
    zero: a power-of-two inverse FFT of a y row that is zero but at n = 0
    is exactly that entry in every sample (see _y_column).  A NaN at n != 0
    is not zero, so it takes the full grid.  The flow commutes with
    translations in y, so such a state stays y-independent, and evolve
    steps it on one y column.
    """
    if fld._column is not None:
        return True
    if fld._samples is None:
        rest = fld.coefficients[..., 1:]  # read as two float views: cheaper
        return not (rest.real.any() or rest.imag.any())
    u = fld._samples
    return bool((u == u[..., :1]).all())


def _y_column(fld: SpectralField) -> np.ndarray:
    """The samples of a y-independent field on one y column, (Nx,)^d x 1,
    from what it holds: the column from_samples built it from, else the
    n = 0 column of its cached samples, else the x-only inverse of its
    n = 0 coefficient column.  The last is samples()[..., :1] byte for byte,
    up to the sign of a zero sample, when every other coefficient is zero:
    a property of the pocketfft build that
    test_column_inverse_is_the_full_grid_one in tests/test_integrator.py
    guards.  Cached samples are read as they are: the inverse of their
    coefficients is the transform pair's round trip, not the samples.
    """
    if fld._column is not None:
        return fld._column
    if fld._samples is not None:
        return fld._samples[..., :1]
    return _inverse(fld.coefficients[..., :1], fld.grid.x_phase())


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def abs_power(s: np.ndarray, p: float) -> np.ndarray:
    """|u|^p from s = |u|^2: products of s for an integer p <= 8, with one sqrt
    when p is odd, and np.power(s, p/2) otherwise.  A new array unless p = 2.

    The product chain costs about p/2 passes over s, so it is kept to the
    small exponents where it beats one np.power pass.
    """
    if 1 <= p <= 8 and float(p).is_integer():
        n, odd = divmod(int(p), 2)  # |u|^p = s^n sqrt(s)^odd
        if n == 1 and not odd:
            return s
        out = np.sqrt(s) if odd else s * s
        for _ in range(n if odd else n - 2):
            out *= s
        return out
    return np.power(s, p / 2.0)


def abs_sq(u: np.ndarray) -> np.ndarray:
    """s = |u|^2 as a new float array."""
    s = np.abs(u)
    s *= s
    return s


def lebesgue_norm(fld: SpectralField, q: float) -> float:
    """L^q norm over the full box; q = inf gives the sup of |u|.  A field
    built from a y column sums its column alone (_y_samples)."""
    u, wy = _y_samples(fld)
    if q == np.inf:
        return float(np.abs(u).max())
    if q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    return _lq_from_sq(abs_sq(u), q, fld.grid.cell * wy)


def _lq_from_sq(s: np.ndarray, q: float, weight: float) -> float:
    """The finite L^q norm from s = |u|^2, each entry of the given weight."""
    return float((np.sum(abs_power(s, q)) * weight) ** (1.0 / q))


def _multiplier_norm(fld: SpectralField, w: np.ndarray,
                     scratch: np.ndarray | None = None) -> float:
    """sqrt(measure * sum w |c|^2): the norm of a Fourier multiplier weight w.

    w |c|^2 is formed in scratch, a float array of the grid's shape, when
    one is given, and in a new array otherwise.
    """
    power = np.abs(fld.coefficients, out=scratch)
    np.square(power, out=power)
    power *= w
    return float(np.sqrt(fld.grid.measure * np.sum(power)))


def sobolev_h1(fld: SpectralField) -> float:
    """Inhomogeneous H^1 norm via the multiplier 1 + |xi|^2 + n^2."""
    return _multiplier_norm(fld, 1.0 + fld.grid.laplace_symbol())


def quadratic_terms(fld: SpectralField) -> Tuple[float, float, float]:
    """(mass, kinetic energy, H^1 norm) of a record from one |c|^2.

    The oracles are integrator.mass, the kinetic part of integrator.energy
    and sobolev_h1; the Laplace symbol |xi|^2 + n^2 is separable, so
    its weighted sum is taken over the x and y frequencies apart.  A field
    built from a y column sums its n = 0 column alone (_carrier): its
    other coefficients are +0, which add nothing to any of these sums.
    """
    g = fld.grid
    c2 = abs_sq(_carrier(fld))
    by_x = np.sum(c2, axis=-1)
    mass_value = g.measure * float(np.sum(by_x))
    lap_sum = float(np.sum(g.xi_sq()[..., 0] * by_x)) \
        + float(np.sum(c2 @ g.n_axis()[:c2.shape[-1]] ** 2))
    kinetic = 0.5 * g.measure * lap_sum
    return mass_value, kinetic, float(np.sqrt(mass_value + 2.0 * kinetic))


def _lr_x(h_sq: np.ndarray, r: float, cell: float) -> float:
    """Outer L^r_x norm, r finite, of an inner norm given by its square h_sq
    on the x grid."""
    return float((np.sum(h_sq ** (r / 2.0)) * cell) ** (1.0 / r))


def _y_mode_power(fld: SpectralField) -> np.ndarray:
    """2 pi |u_n(x)|^2: the L^2_y mass of each y-mode e^{i n y} at each x grid point.

    The y transform of a constant row is exactly Ny times its value at n = 0
    and zero elsewhere, so a field built from a y column takes the power of
    Ny u on the column, with no transform, and returns the n = 0 column
    alone: the power of every other mode is zero.
    """
    g = fld.grid
    if fld._column is not None:
        uy = fld._column * g.Ny
    else:
        uy = sfft.fft(fld.samples(), axis=-1, workers=fft_workers())
    power = np.square(uy.real)
    power += np.square(uy.imag, out=uy.real)
    power *= TWO_PI / g.Ny ** 2
    return power


def _mixed_from_power(grid: Grid, power: np.ndarray, r: float, w: np.ndarray
                      ) -> float:
    """L^r_x norm of the y-mode multiplier norm with weight w(n), from
    _y_mode_power: the modes it holds are the first of w's."""
    if not 1 <= r < np.inf:
        raise ValueError(f"r must be finite and >= 1, got {r}")
    return _lr_x(power @ w[:power.shape[-1]], r, grid.cell)


def mixed_norm(fld: SpectralField, r: float, gamma: float) -> float:
    """L^r_x H^gamma_y norm: inner y-Sobolev value at each x point, outer L^r_x."""
    g = fld.grid
    return _mixed_from_power(g, _y_mode_power(fld), r, (1.0 + g.n_axis() ** 2) ** gamma)


# ---------------------------------------------------------------------------
# unit-cube masses
# ---------------------------------------------------------------------------

def _cube_window_sums(fld: SpectralField):
    """Masses of all grid-aligned unit cubes, indexed by start cell.

    A unit cube is round(1/dx) cells per side: one cell on a grid coarser
    than one unit, and the whole axis on a box shorter than one unit, so no
    window covers a cell twice.  The moving-window sums wrap periodically,
    like the box.  rho is the y sum of |u|^2 (_y_samples).  Taken once per
    snapshot and cached on it; returns (window masses, cells per side).
    """
    if fld._windows is None:
        g = fld.grid
        m = min(g.Nx, max(1, int(round(1.0 / g.dx))))
        u, wy = _y_samples(fld)
        window = np.sum(np.abs(u) ** 2, axis=-1) * wy  # rho
        for ax in range(g.d):
            acc = np.zeros_like(window)
            for j in range(m):
                acc += np.roll(window, -j, axis=ax)
            window = acc
        fld._windows = window * g.cell, m
    return fld._windows


def cube_sup_mass(fld: SpectralField) -> float:
    """sup over grid-aligned unit cubes Q(x0) of the enclosed mass int int |u|^2."""
    return float(_cube_window_sums(fld)[0].max())


def edge_cube_fraction(fld: SpectralField) -> float:
    """Largest unit-cube mass centred in the band |x_i| > (3/4) L/2, over total mass.

    The monitor behind the boundary guard: once any unit cube near the box
    edge holds a non-negligible share of the mass, radiation is about to wrap
    around and the periodic surrogate stops tracking the whole-space solution.
    """
    g = fld.grid
    window, m = _cube_window_sums(fld)
    total = float(window.sum()) / m ** g.d  # each cell lies in m^d periodic windows
    if total == 0.0:
        return 0.0
    half = g.L / 2.0
    centers = g.x_axis() + 0.5 * m * g.dx
    centers = (centers + half) % g.L - half
    edge = np.abs(centers) > 0.75 * half
    mask = edge if g.d == 1 else edge[:, None] | edge[None, :]
    if not mask.any():
        return 0.0
    return float(window[mask].max()) / total


# ---------------------------------------------------------------------------
# linear flow and densities
# ---------------------------------------------------------------------------

def _linear_phase(grid: Grid, t: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i t (|xi|^2 + n^2)) as a product of per-axis 1-D exponentials,
    written into out (complex, of the grid's shape or of its n = 0 column)
    when one is given.  Each entry of the column is that of the full phase."""
    n = grid.n_grid()
    if out is not None:
        n = n[..., :out.shape[-1]]
    phase = np.exp(1j * t * n ** 2)
    *first, last = grid.xi_grids()
    for xi in first:
        phase = phase * np.exp(1j * t * xi ** 2)
    return np.multiply(phase, np.exp(1j * t * last ** 2), out=out)


def free_evolve(fld: SpectralField, t: float,
                out: np.ndarray | None = None) -> SpectralField:
    """Exact linear flow of i u_t - Lap u = 0: multiply by exp(+i t (|xi|^2 + n^2)).

    The coefficients of the result are written into out (complex, of the
    grid's shape) when one is given, and into a new array otherwise.
    """
    phase = _linear_phase(fld.grid, t, out)
    c = np.multiply(fld.coefficients, phase, out=phase)
    return SpectralField(fld.grid, c, fld.time_tag + t)


@dataclass
class DensitySet:
    """y-integrated densities on the x grid.

    rho:      mass density, shape (Nx,)*d
    P:        momentum density Im(conj(u) grad_x u), shape (d,) + (Nx,)*d
    K:        kinetic matrix Re(d_i u conj(d_j u)), shape (d, d) + (Nx,)*d
    nu:       potential density |u|^{alpha+2}, shape (Nx,)*d
    grad_rho: spectral x-gradient of rho, shape (d,) + (Nx,)*d, through the
              multipliers that give d_i u
    lq_norms: L^q norm of u for each q the pass was asked for, inf included
    """

    rho: np.ndarray
    P: np.ndarray
    K: np.ndarray
    nu: np.ndarray
    grad_rho: np.ndarray
    lq_norms: Dict[float, float]


@lru_cache(maxsize=8)
def _gradient_multipliers(grid: Grid) -> Tuple[np.ndarray, ...]:
    """xi_i (-1)^k per x axis, on the x grid and read-only.

    The inverse FFT of c * m_i without normalization is -i d_i u on the
    grid: the phase and the power-of-two scale are exact, and 1j times it
    equals ifftn(c * (1j xi_i) * x_phase) * ntot bitwise.
    """
    out = tuple(xg * grid.x_phase() for xg in grid.xi_grids())
    for m in out:
        m.setflags(write=False)
    return out


def _x_derivatives(c: np.ndarray, grid: Grid) -> list:
    """-i d_i per x axis of the field whose coefficients c are given on the
    grid or on its n = 0 column: _inverse(c, m_i) (_gradient_multipliers),
    each the shape of c."""
    return [_inverse(c, m) for m in _gradient_multipliers(grid)]


def densities(fld: SpectralField, alpha: float,
              q_list: Sequence[float] = ()) -> DensitySet:
    """Extract rho, P, K, nu and grad rho by y rectangle-rule integration.

    s = |u|^2 is formed once, by squaring |u| in place, and gives rho, nu
    and the L^q norm of each finite q in q_list; q = inf is the max of |u|
    before the squaring.  Each is lebesgue_norm's value, bit for bit.  With h_i = -i d_i u,
    P_i = Re(conj(u) h_i) and K_ij = Re(h_i conj(h_j)), so each is one real
    dot over y of the interleaved float views.  A field built from a y
    column takes each h_i over the x axes of its n = 0 column (_carrier),
    and every y sum on the column, times Ny (_y_samples): all of its work is
    on the column.  It agrees with the full-grid pass of the same samples up
    to the y sums' rounding, 2 Ny eps sum_y |terms| per entry.  grad
    rho takes the same transform on rho's x transform, a y column of
    coefficients formed from the real rho: d_i rho = -Im(-i d_i rho).  This
    is the real part of ifftn(fftn(rho) * i xi_i) bit for bit on the
    benchmark's grids; a complex rho would round its transform differently.
    """
    g = fld.grid
    u, wy = _y_samples(fld)
    s = np.abs(u)
    sup = float(s.max()) if np.inf in q_list else None
    s *= s  # abs_sq(u), in place
    rho = np.einsum("...k->...", s) * wy
    nu = np.einsum("...k->...", abs_power(s, alpha + 2.0)) * wy
    lq_norms = {q: sup if q == np.inf else _lq_from_sq(s, q, g.cell * wy)
                for q in q_list}
    del s  # freed before the gradients are allocated
    # h_i as float views, one array per x axis, of u's shape
    h = [hi.view(np.float64) for hi in _x_derivatives(_carrier(fld), g)]
    uf = u.view(np.float64)
    P = np.empty((g.d,) + rho.shape)
    K = np.empty((g.d, g.d) + rho.shape)
    for i in range(g.d):
        P[i] = np.einsum("...k,...k->...", uf, h[i]) * wy
        for j in range(i, g.d):
            K[i, j] = np.einsum("...k,...k->...", h[i], h[j]) * wy
            K[j, i] = K[i, j]
    # rho is real: its transform keeps the direct pair's bits
    c_rho = _forward(rho[..., None], g)
    grad_rho = -np.stack([di.imag[..., 0] for di in _x_derivatives(c_rho, g)])
    return DensitySet(rho=rho, P=P, K=K, nu=nu, grad_rho=grad_rho,
                      lq_norms=lq_norms)


# ---------------------------------------------------------------------------
# snapshot I/O
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<idqqd")  # d, L, Nx, Ny, time_tag


def save_field(fld: SpectralField, path: str) -> None:
    """Write header (d, L, Nx, Ny, time_tag) + interleaved re/im coefficients."""
    g = fld.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.d, g.L, g.Nx, g.Ny, fld.time_tag))
        fh.write(np.ascontiguousarray(fld.coefficients, dtype="<c16"))


class SnapshotHeader(NamedTuple):
    """What a snapshot file's header holds besides the body size."""

    grid: Grid
    time_tag: float


def _read_file(path: str, body: bool):
    """The header of the save_field file at path, and with body its field.

    The header, then the body size it implies, are checked before any of the
    body is read, and then the bytes read.  A ValueError says what is wrong
    and names the path.
    """
    with open(path, "rb") as fh:
        try:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise ValueError(f"snapshot file of {len(head)} bytes is shorter "
                                 f"than its {_HEADER.size}-byte header")
            d, L, Nx, Ny, time_tag = _HEADER.unpack(head)
            try:
                grid = Grid(d, L, Nx, Ny)
            except ValueError as e:
                raise ValueError(f"bad snapshot header: {e}") from None
            if not (np.isfinite(L) and np.isfinite(time_tag)):
                raise ValueError(f"bad snapshot header: L = {L} and time_tag = "
                                 f"{time_tag} must be finite")
            size = 16 * grid.ntot
            left = fh.seek(0, os.SEEK_END) - _HEADER.size
            if left != size:
                what = "truncated" if left < size else "followed by trailing bytes"
                raise ValueError(f"snapshot body {what}: the header implies {size} "
                                 f"bytes, {left} follow it")
            if not body:
                return SnapshotHeader(grid, time_tag)
            fh.seek(_HEADER.size)
            coeff = np.empty(grid.shape, dtype="<c16")
            got = fh.readinto(coeff)
            if got != size:
                raise ValueError(f"snapshot body truncated: the header implies "
                                 f"{size} bytes, {got} could be read")
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    return SpectralField(grid, coeff, time_tag)


def snapshot_header(path: str) -> SnapshotHeader:
    """The grid and time tag of a save_field file, with the header's checks
    that load_field makes; the body is not read."""
    return _read_file(path, body=False)


def load_field(path: str) -> SpectralField:
    """Read a save_field file; its header is checked first."""
    return _read_file(path, body=True)
