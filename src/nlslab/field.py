"""Spectral representation of u(t,x,y) on a periodic box [-L/2, L/2)^d x [0, 2pi).

Coefficients follow the convention

    u(x, y) = sum_{k,n} c[k, n] * exp(i (xi_k . x + n y)),    xi_k = 2 pi k / L,

with k and n in FFT-standard wrapped order.  The x grid starts at -L/2 and
the y grid at 0; the (-1)^k phase factors below absorb the x offset so that
``c`` always stores true plane-wave amplitudes.

All physical-space integrals use the rectangle rule, which is spectrally
accurate for smooth periodic fields.  The induced Parseval identity is

    ||u||_{L^2}^2 = (L^d * 2 pi) * sum |c|^2.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import BinaryIO, Callable, NamedTuple, Tuple, Union

import numpy as np
from scipy import fft as sfft

TWO_PI = 2.0 * np.pi


def fft_workers() -> int:
    """scipy.fft worker count: -1 (all cores) unless NLSLAB_THREADS is set to a
    positive integer, which is clamped to the core count."""
    raw = os.environ.get("NLSLAB_THREADS", "")
    if raw and not (raw.isdecimal() and int(raw) >= 1):
        raise ValueError(f"NLSLAB_THREADS = {raw!r}: must be a positive integer")
    return min(int(raw), os.cpu_count() or 1) if raw else -1


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
    def weight(self) -> float:
        """Full quadrature weight (L/Nx)^d * (2 pi / Ny)."""
        return self.cell * self.dy

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

    def x_phase(self) -> np.ndarray:
        """(-1)^k factors absorbing the x0 = -L/2 grid offset (one per x axis)."""
        p = np.where(np.arange(self.Nx) % 2 == 0, 1.0, -1.0)
        if self.d == 1:
            return p[:, None]
        return p[:, None, None] * p[None, :, None]


class SpectralField:
    """Immutable field snapshot: grid + plane-wave coefficient array + time tag."""

    __slots__ = ("grid", "coefficients", "time_tag", "_samples", "_windows")

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

    def samples(self) -> np.ndarray:
        """Physical-space values on the grid (lazily computed, then cached)."""
        if self._samples is None:
            g = self.grid
            u = sfft.ifftn(self.coefficients * g.x_phase(), overwrite_x=True,
                           workers=fft_workers())
            u *= g.ntot
            self._samples = u
        return self._samples

    @classmethod
    def from_samples(cls, grid: Grid, samples: np.ndarray, time_tag: float = 0.0
                     ) -> "SpectralField":
        """The field with these samples, given on the grid or on one y column.

        A y column, shape (Nx,)^d x 1, is the field constant along y; the
        field caches it broadcast to the grid.  Its spectrum is the column's
        x transform divided by Nx^d (that is, times Ny / ntot) at n = 0, and
        exact zeros at every n != 0.  A power-of-two FFT of a constant y row
        is exactly Ny times the value at n = 0 and zero elsewhere, so these
        coefficients equal those of the broadcast samples (np.array_equal),
        and the samples are the same bits.  Only the signs of zeros can
        differ (a byte comparison sees them): the column form has +0 at every
        n != 0, where the full-grid transform's zeros carry the (-1)^k phase.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        column = grid.shape[:-1] + (1,)
        if samples.shape not in (grid.shape, column):
            raise ValueError(f"sample shape {samples.shape} matches neither grid "
                             f"{grid.shape} nor its y column {column}")
        # in place: bitwise the result of fftn(...) / size * x_phase, without
        # its two temporaries
        axes = [i for i, m in enumerate(samples.shape) if m > 1]
        c = sfft.fftn(samples, axes=axes, workers=fft_workers())
        c /= samples.size
        c *= grid.x_phase()
        if samples.shape == column:
            full = np.zeros(grid.shape, dtype=np.complex128)
            full[..., :1] = c
            c, samples = full, np.broadcast_to(samples, grid.shape).copy()
        out = cls(grid, c, time_tag)
        out._samples = samples
        return out


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
    """Whether the samples are exactly equal along y.

    The flow commutes with translations in y, so such a state stays
    y-independent, and evolve steps it on one y column.
    """
    u = fld.samples()
    return bool((u == u[..., :1]).all())


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
    """L^q norm over the full box; q = inf gives the sup of |u|."""
    if q == np.inf:
        return float(np.abs(fld.samples()).max())
    if q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    s = abs_sq(fld.samples())
    return float((np.sum(abs_power(s, q)) * fld.grid.weight) ** (1.0 / q))


def _multiplier_norm(fld: SpectralField, w: np.ndarray) -> float:
    """sqrt(measure * sum w |c|^2): the norm of a Fourier multiplier weight w."""
    g = fld.grid
    return float(np.sqrt(g.measure * np.sum(w * np.abs(fld.coefficients) ** 2)))


def sobolev_h1(fld: SpectralField) -> float:
    """Inhomogeneous H^1 norm via the multiplier 1 + |xi|^2 + n^2."""
    return _multiplier_norm(fld, 1.0 + fld.grid.laplace_symbol())


def hs_x_hgamma_y(fld: SpectralField, s: float, gamma: float) -> float:
    """Anisotropic norm with product multiplier <xi>^s <n>^gamma."""
    g = fld.grid
    return _multiplier_norm(fld, (1.0 + g.xi_sq()) ** s * (1.0 + g.n_grid() ** 2) ** gamma)


def _lr_x(h_sq: np.ndarray, r: float, cell: float) -> float:
    """Outer L^r_x norm of an inner norm given by its square h_sq on the x grid."""
    if r == np.inf:
        return float(np.sqrt(h_sq.max()))
    return float((np.sum(h_sq ** (r / 2.0)) * cell) ** (1.0 / r))


def _y_mode_power(fld: SpectralField) -> np.ndarray:
    """2 pi |u_n(x)|^2: the L^2_y mass of each y-mode e^{i n y} at each x grid point."""
    g = fld.grid
    uy = sfft.fft(fld.samples(), axis=-1, workers=fft_workers())
    power = np.square(uy.real)
    power += np.square(uy.imag, out=uy.real)
    power *= TWO_PI / g.Ny ** 2
    return power


def _mixed_from_power(grid: Grid, power: np.ndarray, r: float, w: np.ndarray
                      ) -> float:
    """L^r_x norm of the y-mode multiplier norm with weight w(n), from _y_mode_power."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _lr_x(power @ w, r, grid.cell)


def mixed_norm(fld: SpectralField, r: float, gamma: float) -> float:
    """L^r_x H^gamma_y norm: inner y-Sobolev value at each x point, outer L^r_x."""
    g = fld.grid
    return _mixed_from_power(g, _y_mode_power(fld), r, (1.0 + g.n_axis() ** 2) ** gamma)


def dq_normalizer(s: float) -> float:
    """c(s) = int_R |e^{ir} - 1|^2 / |r|^{1+2s} dr = 2 pi / (Gamma(1+2s) sin(pi s)).

    The integral is 4 int_0^inf (1 - cos r) r^{-1-2s} dr = -4 Gamma(-2s)
    cos(pi s), which the reflection formula turns into the closed form; the
    tests keep an adaptive quadrature of the integral as its oracle.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return 2.0 * math.pi / (math.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s))


def difference_quotient_hs_y(fld: SpectralField, s: float) -> Tuple[float, float]:
    """Homogeneous H^s_y norm two ways: (multiplier form, difference-quotient form).

    The second form integrates ||u(.,y+h) - u(.,y)||^2 / |h|^{1+2s} over a
    10 000-point midpoint h-grid on [-50, 50] and divides by the normalizer
    c(s).  The y-integral per h is evaluated exactly through Parseval.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    g = fld.grid
    n = g.n_axis()
    # mass per y-mode, x integrated: m_n = measure * sum_k |c|^2
    axes_x = tuple(range(g.d))
    m_n = g.measure * np.sum(np.abs(fld.coefficients) ** 2, axis=axes_x)
    multiplier = float(np.sqrt(np.sum(np.abs(n) ** (2.0 * s) * m_n)))

    dh = 100.0 / 10_000
    h = -50.0 + dh * (np.arange(10_000) + 0.5)
    # ||u(y+h) - u(y)||^2_{L^2} = sum_n 4 sin^2(n h / 2) m_n   (exact)
    diff_sq = 4.0 * np.sin(0.5 * np.outer(h, n)) ** 2 @ m_n
    weights = np.abs(h) ** (-1.0 - 2.0 * s)
    # the two cells touching h = 0 are handled analytically (the midpoint rule
    # is poor near the |h|^{-1-2s} singularity): 4 sin^2(nh/2) ~ n^2 h^2 there
    head_cells = (np.abs(h) < dh)
    weights = np.where(head_cells, 0.0, weights)
    integral = float(np.sum(diff_sq * weights) * dh)
    m2 = float(np.sum(n ** 2 * m_n))
    integral += m2 * 2.0 * dh ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    # analytic remainder for |h| > 50: 4 sin^2(nh/2) averages to 2 there,
    # so the tail is 2 * (sum over oscillating modes of m_n) * 50^{-2s} / s
    m_osc = float(np.sum(m_n[n != 0]))
    integral += 2.0 * m_osc * 50.0 ** (-2.0 * s) / s
    quadrature = float(np.sqrt(integral / dq_normalizer(s)))
    return multiplier, quadrature


# ---------------------------------------------------------------------------
# nonlinear products and inequality probes
# ---------------------------------------------------------------------------

def nonlinear_power(fld: SpectralField, alpha: float) -> SpectralField:
    """u |u|^alpha formed on a 3/2 zero-padded grid to suppress aliasing."""
    g = fld.grid
    Mx, My = (3 * g.Nx) // 2, (3 * g.Ny) // 2
    big_shape = (Mx,) * g.d + (My,)
    big = np.zeros(big_shape, dtype=np.complex128)
    idx = []
    for N, M in [(g.Nx, Mx)] * g.d + [(g.Ny, My)]:
        wrap = np.r_[np.arange(0, N // 2), np.arange(M - N // 2, M)]
        idx.append(wrap)
    mesh = np.ix_(*idx)
    big[mesh] = fld.coefficients
    vals = sfft.ifftn(big, workers=fft_workers()) * (Mx ** g.d * My)
    out = vals * np.abs(vals) ** alpha
    big_out = sfft.fftn(out, workers=fft_workers()) / (Mx ** g.d * My)
    return SpectralField(g, big_out[mesh], fld.time_tag)


def fractional_leibniz_ratio(fld: SpectralField, s: float, alpha: float) -> float:
    """||u|u|^alpha||_{H^s_y(hom)} / (||u||_{H^s_y(hom)} ||u||_inf^alpha)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    w = np.abs(fld.grid.n_grid()) ** (2.0 * s)
    denom_hs = _multiplier_norm(fld, w)
    sup = lebesgue_norm(fld, np.inf)
    if denom_hs == 0.0 or sup == 0.0:
        raise ValueError("denominator vanishes (field constant in y or zero)")
    num_field = nonlinear_power(fld, alpha)
    return _multiplier_norm(num_field, w) / (denom_hs * sup ** alpha)


def _cube_window_sums(fld: SpectralField):
    """Masses of all grid-aligned unit cubes, indexed by start cell.

    A unit cube is round(1/dx) cells per side, and one cell on a grid
    coarser than one unit.  The moving-window sums wrap periodically, like
    the box.  Taken once per snapshot and cached on it; returns (window
    masses, cells per side).
    """
    if fld._windows is None:
        g = fld.grid
        m = max(1, int(round(1.0 / g.dx)))
        window = np.sum(np.abs(fld.samples()) ** 2, axis=-1) * g.dy  # rho
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


def localized_gn_check(fld: SpectralField) -> Tuple[float, Tuple[float, float]]:
    """Pieces of the localized Gagliardo-Nirenberg test.

    Returns (lhs, (f1, f2)) with lhs = ||u||_{L^{2+4/(d+1)}}, f1 the square
    root of the unit-cube sup mass and f2 = ||u||_{H^1}.  The caller checks
    lhs <= C * f1^{2/(d+3)} * f2^{(d+1)/(d+3)} against a calibrated C.
    """
    lhs = lebesgue_norm(fld, 2.0 + 4.0 / (fld.grid.d + 1))
    f1 = float(np.sqrt(cube_sup_mass(fld)))
    f2 = sobolev_h1(fld)
    return lhs, (f1, f2)


# ---------------------------------------------------------------------------
# linear flow and densities
# ---------------------------------------------------------------------------

def _linear_phase(grid: Grid, t: float) -> np.ndarray:
    """exp(i t (|xi|^2 + n^2)) as a product of per-axis 1-D exponentials."""
    phase = np.exp(1j * t * grid.n_grid() ** 2)
    for xi in grid.xi_grids():
        phase = phase * np.exp(1j * t * xi ** 2)
    return phase


def free_evolve(fld: SpectralField, t: float) -> SpectralField:
    """Exact linear flow of i u_t - Lap u = 0: multiply by exp(+i t (|xi|^2 + n^2))."""
    phase = _linear_phase(fld.grid, t)
    c = np.multiply(fld.coefficients, phase, out=phase)
    return SpectralField(fld.grid, c, fld.time_tag + t)


@dataclass
class DensitySet:
    """y-integrated densities on the x grid.

    rho:      mass density, shape (Nx,)*d
    P:        momentum density Im(conj(u) grad_x u), shape (d,) + (Nx,)*d
    K:        kinetic matrix Re(d_i u conj(d_j u)), shape (d, d) + (Nx,)*d
    nu:       potential density |u|^{alpha+2}, shape (Nx,)*d
    grad_rho: spectral x-gradient of rho, shape (d,) + (Nx,)*d
    """

    rho: np.ndarray
    P: np.ndarray
    K: np.ndarray
    nu: np.ndarray
    grad_rho: np.ndarray


def _x_gradient(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """Spectral gradient along the x axes of a real array on the x grid."""
    out = np.empty((grid.d,) + arr.shape)
    ah = sfft.fftn(arr, workers=fft_workers())
    xi = grid.xi_axis()
    for i in range(grid.d):
        shape = [1] * arr.ndim
        shape[i] = grid.Nx
        deriv = sfft.ifftn(ah * (1j * xi.reshape(shape)), workers=fft_workers())
        out[i] = deriv.real
    return out


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


def densities(fld: SpectralField, alpha: float) -> DensitySet:
    """Extract rho, P, K, nu and grad rho by y rectangle-rule integration.

    s = |u|^2 is formed once and gives both rho and nu.  With h_i = -i d_i u,
    P_i = Re(conj(u) h_i) and K_ij = Re(h_i conj(h_j)), so each is one real
    dot over y of the interleaved float views.
    """
    g = fld.grid
    u = fld.samples()
    s = abs_sq(u)
    rho = np.einsum("...k->...", s) * g.dy
    nu = np.einsum("...k->...", abs_power(s, alpha + 2.0)) * g.dy
    del s  # freed before the full-grid gradients are allocated
    # h_i on the full grid as float views, one array per x axis
    h = [sfft.ifftn(fld.coefficients * m, overwrite_x=True, norm="forward",
                    workers=fft_workers()).view(np.float64)
         for m in _gradient_multipliers(g)]
    uf = u.view(np.float64)
    P = np.empty((g.d,) + rho.shape)
    K = np.empty((g.d, g.d) + rho.shape)
    for i in range(g.d):
        P[i] = np.einsum("...k,...k->...", uf, h[i]) * g.dy
        for j in range(i, g.d):
            K[i, j] = np.einsum("...k,...k->...", h[i], h[j]) * g.dy
            K[j, i] = K[i, j]
    return DensitySet(rho=rho, P=P, K=K, nu=nu, grad_rho=_x_gradient(g, rho))


# ---------------------------------------------------------------------------
# snapshot I/O
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<idqqd")  # d, L, Nx, Ny, time_tag


def save_field(fld: SpectralField, fh: Union[str, BinaryIO]) -> None:
    """Write header (d, L, Nx, Ny, time_tag) + interleaved re/im coefficients."""
    if isinstance(fh, str):
        with open(fh, "wb") as f:
            return save_field(fld, f)
    g = fld.grid
    fh.write(_HEADER.pack(g.d, g.L, g.Nx, g.Ny, fld.time_tag))
    fh.write(np.ascontiguousarray(fld.coefficients, dtype="<c16"))


class SnapshotHeader(NamedTuple):
    """What a snapshot file's header holds besides the body size."""

    grid: Grid
    time_tag: float


def _from_path(read: Callable, path: str):
    """read(f) on the file at path, its ValueError prefixed with the path."""
    with open(path, "rb") as f:
        try:
            return read(f)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def snapshot_header(fh: Union[str, BinaryIO]) -> SnapshotHeader:
    """The grid and time tag of a save_field file, from a path or a seekable
    binary stream, and the header's checks that load_field makes.

    The header, then the body size it implies, are checked; the body itself
    is not read, and a stream is left at its start.  A ValueError says what
    is wrong and names the path, given one.
    """
    if isinstance(fh, str):
        return _from_path(snapshot_header, fh)
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise ValueError(f"snapshot file of {len(head)} bytes is shorter than "
                         f"its {_HEADER.size}-byte header")
    d, L, Nx, Ny, time_tag = _HEADER.unpack(head)
    try:
        grid = Grid(d, L, Nx, Ny)
    except ValueError as e:
        raise ValueError(f"bad snapshot header: {e}") from None
    if not (np.isfinite(L) and np.isfinite(time_tag)):
        raise ValueError(f"bad snapshot header: L = {L} and time_tag = {time_tag} "
                         "must be finite")
    size = 16 * grid.ntot
    start = fh.tell()
    left = fh.seek(0, os.SEEK_END) - start
    fh.seek(start)
    if left != size:
        what = "truncated" if left < size else "followed by trailing bytes"
        raise ValueError(f"snapshot body {what}: the header implies {size} bytes, "
                         f"{left} follow it")
    return SnapshotHeader(grid, time_tag)


def load_field(fh: Union[str, BinaryIO]) -> SpectralField:
    """Read a save_field file from a path or a seekable binary stream.

    snapshot_header checks the header first; a ValueError says what is
    wrong and names the path, given one.
    """
    if isinstance(fh, str):
        return _from_path(load_field, fh)
    grid, time_tag = snapshot_header(fh)
    size = 16 * grid.ntot
    coeff = np.empty(grid.shape, dtype="<c16")
    got = fh.readinto(coeff)
    if got != size:
        raise ValueError(f"snapshot body truncated: the header implies {size} "
                         f"bytes, {got} could be read")
    return SpectralField(grid, coeff, time_tag)
