import io
import math
import re
import struct
from typing import Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import fft as sfft

from nlslab.field import (
    Grid,
    SpectralField,
    _gradient_multipliers,
    _linear_phase,
    _multiplier_norm,
    _y_mode_power,
    abs_power,
    abs_sq,
    cube_sup_mass,
    densities,
    edge_cube_fraction,
    fft_workers,
    free_evolve,
    from_profile,
    lebesgue_norm,
    load_field,
    mixed_norm,
    save_field,
    snapshot_header,
    sobolev_h1,
    y_independent,
)


EPS = np.finfo(float).eps


@pytest.fixture
def g1():
    return Grid(1, 40.0, 256, 16)


@pytest.fixture
def g2():
    return Grid(2, 20.0, 32, 8)


def random_field(grid, seed=0, decay=50.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    c *= np.exp(-grid.laplace_symbol() / decay)
    return SpectralField(grid, c)


def hs_x_hgamma_y(fld, s, gamma):
    """Oracle: the H^s_x H^gamma_y norm as the multiplier sum
    sqrt(measure * sum <xi>^{2s} <n>^{2 gamma} |c|^2)."""
    g = fld.grid
    w = (1.0 + g.xi_sq()) ** s * (1.0 + g.n_grid() ** 2) ** gamma
    return float(np.sqrt(g.measure * np.sum(w * np.abs(fld.coefficients) ** 2)))


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 10.0, 64, 8)
        with pytest.raises(ValueError):
            Grid(1, -1.0, 64, 8)
        with pytest.raises(ValueError):
            Grid(1, 10.0, 48, 8)  # not a power of two
        with pytest.raises(ValueError):
            Grid(1, 10.0, 64, 2)  # below minimum

    def test_weights(self, g1):
        assert g1.weight == pytest.approx((40.0 / 256) * (2 * np.pi / 16))
        assert g1.measure == pytest.approx(40.0 * 2 * np.pi)

    def test_frequencies_wrapped(self, g1):
        xi = g1.xi_axis()
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(2 * np.pi / 40.0)
        assert xi[-1] == pytest.approx(-2 * np.pi / 40.0)
        n = g1.n_axis()
        assert n[8] == -8 and n[1] == 1


class TestFromProfile:
    def test_zero(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        assert np.all(f.coefficients == 0)
        assert f.time_tag == 0.0

    def test_plane_wave_single_coefficient(self, g1):
        k0, n0 = 3, 2
        xi0 = 2 * np.pi * k0 / g1.L
        f = from_profile(g1, lambda x, y: np.exp(1j * (xi0 * x + n0 * y)))
        c = f.coefficients
        assert abs(c[k0, n0] - 1.0) < 1e-12
        rest = np.abs(c).sum() - abs(c[k0, n0])
        assert rest < 1e-12

    def test_gaussian_matches_analytic_transform(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) * (1 + np.cos(y)) / 2)
        xi = g1.xi_axis()
        cx = np.sqrt(np.pi) * np.exp(-xi ** 2 / 4) / g1.L
        pred = np.zeros(g1.shape, complex)
        pred[:, 0] = cx / 2
        pred[:, 1] = cx / 4
        pred[:, -1] = cx / 4
        assert np.abs(f.coefficients - pred).max() < 1e-8

    def test_nonfinite_rejected(self, g1):
        with pytest.raises(ValueError):
            from_profile(g1, lambda x, y: 1.0 / (x - x[0, 0]))


class TestLebesgueNorm:
    def test_zero(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        assert lebesgue_norm(f, 4.0) == 0.0

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.5, 6.0])
    def test_unit_plane_wave(self, g1, q):
        xi0 = 2 * np.pi * 5 / g1.L
        f = from_profile(g1, lambda x, y: np.exp(1j * (xi0 * x + y)))
        assert lebesgue_norm(f, q) == pytest.approx(g1.measure ** (1.0 / q))

    def test_gaussian_l2(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0.0 * y)
        exact = (np.pi / 2) ** 0.25 * np.sqrt(2 * np.pi)
        assert lebesgue_norm(f, 2.0) == pytest.approx(exact, abs=1e-6)

    def test_sup_norm(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0.0 * y)
        assert lebesgue_norm(f, np.inf) == pytest.approx(1.0, abs=1e-12)

    def test_q_below_one_rejected(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0.0 * y)
        with pytest.raises(ValueError):
            lebesgue_norm(f, 0.5)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3, 4.0, 5.0, 10 / 3, 100.0, np.inf])
    def test_matches_inline_sum(self, g2, q):
        f = random_field(g2, 7)
        a = np.abs(f.samples())
        expect = a.max() if q == np.inf else \
            (np.sum(a ** q) * g2.weight) ** (1.0 / q)
        assert lebesgue_norm(f, q) == pytest.approx(expect, rel=1e-13, abs=0)

    def test_parseval(self, g1):
        for seed in range(10):
            f = random_field(g1, seed)
            spectral = np.sqrt(g1.measure * np.sum(np.abs(f.coefficients) ** 2))
            assert abs(lebesgue_norm(f, 2.0) - spectral) <= 1e-12 * spectral


class TestSobolevNorms:
    def test_plane_wave_h1(self, g1):
        k0, n0, A = 4, 3, 1.7
        xi0 = 2 * np.pi * k0 / g1.L
        f = from_profile(g1, lambda x, y: A * np.exp(1j * (xi0 * x + n0 * y)))
        exact = A * np.sqrt((1 + xi0 ** 2 + n0 ** 2) * g1.measure)
        assert sobolev_h1(f) == pytest.approx(exact, rel=1e-12)

    def test_mixed_r2_equals_l2(self, g1):
        f = random_field(g1, 3)
        assert mixed_norm(f, 2.0, 0.0) == pytest.approx(lebesgue_norm(f, 2.0),
                                                        rel=1e-12)

    def test_mixed_norm_consistency_with_product_multiplier(self, g1):
        for seed in range(5):
            f = random_field(g1, seed)
            for gamma in (0.25, 0.5, 1.0):
                a = mixed_norm(f, 2.0, gamma)
                b = hs_x_hgamma_y(f, 0.0, gamma)
                assert abs(a - b) <= 1e-12 * b

    def test_y_independent_mixed_norm_gamma_free(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0.0 * y)
        vals = [mixed_norm(f, 4.0, gamma) for gamma in (0.0, 0.5, 2.0)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)

    def test_d2_grid(self, g2):
        f = random_field(g2, 1, decay=10.0)
        a = mixed_norm(f, 2.0, 0.5)
        b = hs_x_hgamma_y(f, 0.0, 0.5)
        assert a == pytest.approx(b, rel=1e-12)


# The oracles of criterion 9 (tests/test_acceptance.py): the homogeneous
# H^s_y norm as a difference-quotient quadrature, and the fractional Leibniz
# ratio with its dealiased power u |u|^alpha.  No run reads them.

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


class TestDifferenceQuotient:
    def test_normalizer_half(self):
        # c(1/2) = int |e^{ir}-1|^2 / r^2 dr = 2 pi
        assert dq_normalizer(0.5) == pytest.approx(2 * np.pi, rel=1e-6)

    @pytest.mark.parametrize("s", [0.05, 0.25, 0.3, 0.4, 0.5, 0.55, 0.75, 0.95])
    def test_normalizer_matches_quadrature(self, s):
        # c(s) = 2 [int_0^1 (2 - 2 cos r) r^{-1-2s} dr + 1/s
        #           - 2 int_1^inf cos(r) r^{-1-2s} dr], the oscillatory tail
        # by the weighted (cosine) quadrature rule
        from scipy.integrate import quad
        head, _ = quad(lambda r: 4.0 * np.sin(0.5 * r) ** 2 * r ** (-1.0 - 2.0 * s),
                       0.0, 1.0, epsrel=1e-8, epsabs=1e-12)
        tail, _ = quad(lambda r: r ** (-1.0 - 2.0 * s), 1.0, np.inf,
                       weight="cos", wvar=1.0, epsrel=1e-8, epsabs=1e-12)
        assert dq_normalizer(s) == pytest.approx(2.0 * (head + 1.0 / s - 2.0 * tail),
                                                 rel=1e-12)

    def test_y_independent_is_zero(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0.0 * y)
        m, q = difference_quotient_hs_y(f, 0.3)
        assert m == 0.0 and q == 0.0

    def test_single_mode_scaling(self, g1):
        s = 0.4
        vals = []
        for n0 in (1, 2, 3):
            f = from_profile(g1, lambda x, y, n0=n0: np.exp(1j * n0 * y) + 0.0 * x)
            m, _ = difference_quotient_hs_y(f, s)
            vals.append(m)
        assert vals[1] / vals[0] == pytest.approx(2.0 ** s, rel=1e-12)
        assert vals[2] / vals[0] == pytest.approx(3.0 ** s, rel=1e-12)

    def test_two_forms_agree_mode_one_s_half(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(1j * y) + 0.0 * x)
        m, q = difference_quotient_hs_y(f, 0.5)
        assert 0.98 <= q / m <= 1.02

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_two_forms_agree_band_limited(self, g1, s):
        rng = np.random.default_rng(7)
        c = np.zeros(g1.shape, complex)
        band = g1.Ny // 4
        c[:, :band] = rng.standard_normal((g1.Nx, band)) \
            + 1j * rng.standard_normal((g1.Nx, band))
        c *= np.exp(-g1.xi_sq() / 30.0)
        f = SpectralField(g1, c)
        m, q = difference_quotient_hs_y(f, s)
        assert abs(q / m - 1.0) < 0.02

    def test_s_out_of_range(self, g1):
        f = random_field(g1)
        with pytest.raises(ValueError):
            difference_quotient_hs_y(f, 1.5)


class TestNonlinearPower:
    def test_plane_wave_integer_power(self, g1):
        k0, n0 = 3, 2
        xi0 = 2 * np.pi * k0 / g1.L
        f = from_profile(g1, lambda x, y: np.exp(1j * (xi0 * x + n0 * y)))
        out = nonlinear_power(f, 2.0)
        assert abs(out.coefficients[k0, n0] - 1.0) < 1e-12
        leak = np.abs(out.coefficients).sum() - abs(out.coefficients[k0, n0])
        assert leak < 1e-12

    def test_matches_physical_product_smooth_field(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)))
        out = nonlinear_power(f, 2.0)
        direct = SpectralField.from_samples(
            g1, f.samples() * np.abs(f.samples()) ** 2)
        # field is well resolved, so dealiased and direct products agree
        assert np.abs(out.coefficients - direct.coefficients).max() < 1e-10


class TestFractionalLeibniz:
    def test_constant_modulus_ratio_one(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(3j * y) + 0.0 * x)
        assert fractional_leibniz_ratio(f, 0.55, 5.0) == pytest.approx(1.0,
                                                                       rel=1e-10)

    def test_zero_field_rejected(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        with pytest.raises(ValueError):
            fractional_leibniz_ratio(f, 0.55, 5.0)

    def test_random_family_bounded(self, g1):
        # regression bound frozen from the same seeded family (see C_CAL below)
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            c = np.zeros(g1.shape, complex)
            c[:, :4] = rng.standard_normal((g1.Nx, 4)) \
                + 1j * rng.standard_normal((g1.Nx, 4))
            c *= np.exp(-g1.xi_sq() / 20.0)
            f = SpectralField(g1, c)
            worst = max(worst, fractional_leibniz_ratio(f, 0.55, 5.0))
        assert worst <= C_CAL_LEIBNIZ * 1.0000001


# frozen calibration constants (max observed ratios over the seeded families)
C_CAL_LEIBNIZ = 0.2653258212991549
C_CAL_GN_D1 = 0.5619915998392877
C_CAL_EMBED_D2 = 0.10016358732415241


def naive_cube_sup(f):
    """Largest mass of max(1, round(1/dx)) consecutive cells, at most Nx
    (d = 1), by a plain loop in the window sums' order, so that it is equal
    to them bit for bit."""
    g = f.grid
    m = min(g.Nx, max(1, round(1.0 / g.dx)))
    rho = np.sum(np.abs(f.samples()) ** 2, axis=-1) * g.dy
    best = 0.0
    for i0 in range(g.Nx):
        acc = 0.0
        for j in range(m):
            acc += rho[(i0 + j) % g.Nx]
        best = max(best, acc * g.cell)
    return best


class TestCubeSupMass:
    def test_uniform_field(self, g1):
        f = from_profile(g1, lambda x, y: 1.0 + 0.0 * x + 0.0 * y)
        m = round(1.0 / g1.dx)
        expect = 2 * np.pi * m * g1.dx
        assert cube_sup_mass(f) == pytest.approx(expect, rel=1e-12)

    def test_single_spike(self, g1):
        u = np.zeros(g1.shape, complex)
        u[10, 0] = 3.0
        f = SpectralField.from_samples(g1, u)
        expect = 9.0 * g1.dy * g1.cell
        assert cube_sup_mass(f) == pytest.approx(expect, rel=1e-12)

    def test_against_naive_window_oracle(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) * (1 + 0.5 * np.sin(y)))
        assert cube_sup_mass(f) == naive_cube_sup(f)

    def test_d2(self, g2):
        f = from_profile(g2, lambda x1, x2, y: 1.0 + 0.0 * (x1 + x2 + y))
        m = round(1.0 / g2.dx)
        expect = 2 * np.pi * (m * g2.dx) ** 2
        assert cube_sup_mass(f) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_box_shorter_than_a_unit(self, d):
        # a unit cube spans the whole box there, so no window counts a cell
        # twice and no cube holds more than the mass
        from nlslab.integrator import mass
        g = Grid(d, 0.5, 4, 4)
        f = from_profile(g, lambda *xy: np.exp(-sum(x ** 2 for x in xy[:-1]))
                         + 0.0 * xy[-1])
        # both read 2.0 before m was clamped to Nx; at d = 2 the cube's sum
        # of the samples and mass's sum of |c|^2 differ in the last bit
        tol = 0.0 if d == 1 else 4 * EPS
        assert cube_sup_mass(f) / mass(f) <= 1.0 + tol
        assert edge_cube_fraction(f) <= 1.0 + tol
        assert cube_sup_mass(f) == pytest.approx(mass(f), rel=1e-14)


class TestLocalizedGN:
    """lhs = ||u||_{L^{2+4/(d+1)}} against f1 = sqrt(unit-cube sup mass) and
    f2 = ||u||_{H^1}: lhs <= C * f1^{2/(d+3)} * f2^{(d+1)/(d+3)}."""

    def test_zero_field(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        lhs = lebesgue_norm(f, 2.0 + 4.0 / (g1.d + 1))
        f1, f2 = float(np.sqrt(cube_sup_mass(f))), sobolev_h1(f)
        assert lhs == 0.0 and f1 == 0.0 and f2 == 0.0

    def test_plane_wave_finite_ratio(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(1j * (y + 2 * np.pi * x / g1.L)))
        d = g1.d
        lhs = lebesgue_norm(f, 2.0 + 4.0 / (d + 1))
        f1, f2 = float(np.sqrt(cube_sup_mass(f))), sobolev_h1(f)
        ratio = lhs / (f1 ** (2 / (d + 3)) * f2 ** ((d + 1) / (d + 3)))
        assert np.isfinite(ratio) and ratio > 0

    def test_shrinking_gaussians_bounded(self, g1):
        d = g1.d
        for w in (2.0, 1.0, 0.5, 0.25):
            f = from_profile(g1, lambda x, y, w=w: np.exp(-(x / w) ** 2) + 0.0 * y)
            lhs = lebesgue_norm(f, 2.0 + 4.0 / (d + 1))
            f1, f2 = float(np.sqrt(cube_sup_mass(f))), sobolev_h1(f)
            ratio = lhs / (f1 ** (2 / (d + 3)) * f2 ** ((d + 1) / (d + 3)))
            assert ratio <= C_CAL_GN_D1 * 1.0000001

    @pytest.mark.parametrize("L, Nx", [(20.0, 128), (96.0, 64), (160.0, 64)],
                             ids=["dx<1", "1<dx<2", "dx>=2"])
    def test_unit_cube_is_the_guards(self, L, Nx, monkeypatch):
        from nlslab import field
        g = Grid(1, L, Nx, 4)
        f = from_profile(g, lambda x, y: np.exp(-(x / 4.0) ** 2)
                         * (1 + 0.3 * np.cos(y)))
        expect = float(np.sqrt(naive_cube_sup(f)))
        returned = []

        def recorded(fld, _fn=field._cube_window_sums):
            returned.append(_fn(fld))
            return returned[-1]
        monkeypatch.setattr(field, "_cube_window_sums", recorded)
        field.edge_cube_fraction(f)
        f1 = float(np.sqrt(cube_sup_mass(f)))
        assert f1 == expect
        # a window pass makes a new (windows, m); a cache read returns the same one
        calls = [w for i, w in enumerate(returned)
                 if all(w is not v for v in returned[:i])]
        assert len(returned) == 2
        assert len(calls) == 1


class TestFreeEvolve:
    def test_t_zero_identity(self, g1):
        f = random_field(g1, 5)
        out = free_evolve(f, 0.0)
        assert np.array_equal(out.coefficients, f.coefficients)

    def test_plane_wave_phase(self, g1):
        k0, n0 = 6, 3
        xi0 = 2 * np.pi * k0 / g1.L
        f = from_profile(g1, lambda x, y: np.exp(1j * (xi0 * x + n0 * y)))
        t = 0.37
        out = free_evolve(f, t)
        expect = np.exp(1j * t * (xi0 ** 2 + n0 ** 2))
        assert abs(out.coefficients[k0, n0] - expect) < 1e-13
        assert out.time_tag == pytest.approx(t)

    def test_group_property(self, g1):
        f = random_field(g1, 9)
        back = free_evolve(free_evolve(f, 1.23), -1.23)
        assert np.abs(back.coefficients - f.coefficients).max() < 1e-13

    def test_norms_invariant(self, g1):
        f = random_field(g1, 11)
        out = free_evolve(f, 2.5)
        assert sobolev_h1(out) == pytest.approx(sobolev_h1(f), rel=1e-12)
        for s, gamma in [(0.5, 0.5), (1.0, 0.0), (0.1, 0.9)]:
            assert hs_x_hgamma_y(out, s, gamma) == pytest.approx(
                hs_x_hgamma_y(f, s, gamma), rel=1e-12)

    # the scattering preset's grid and pull-back times, a decay grid and d = 2
    @pytest.mark.parametrize("grid", [Grid(1, 1024.0, 16384, 16),
                                      Grid(1, 200.0, 4096, 32),
                                      Grid(2, 64.0, 256, 16)])
    @pytest.mark.parametrize("t", [40.0, -40.0])
    def test_phase_within_rounding_of_full_grid_exp(self, grid, t):
        # both forms round the phase angle t (|xi|^2 + n^2) to about eps times
        # its size; measured 0.63-0.81 eps |t| max symbol on these grids
        symbol = grid.laplace_symbol()
        diff = np.abs(_linear_phase(grid, t) - np.exp(1j * t * symbol)).max()
        assert diff <= 2.0 * np.finfo(float).eps * abs(t) * symbol.max()

    def test_uses_the_separable_phase(self, g1):
        f = random_field(g1, 13)
        out = free_evolve(f, -40.0)
        assert np.array_equal(out.coefficients,
                              f.coefficients * _linear_phase(g1, -40.0))
        assert out.time_tag == -40.0

    @pytest.mark.parametrize("grid", [Grid(1, 40.0, 256, 16), Grid(2, 20.0, 32, 8)])
    def test_into_a_buffer(self, grid):
        f = random_field(grid, 29)
        buf = np.empty(grid.shape, complex)
        out = free_evolve(f, -7.5, buf)
        assert out.coefficients is buf and out.time_tag == -7.5
        assert buf.tobytes() == free_evolve(f, -7.5).coefficients.tobytes()


class TestYIndependent:
    def test_constant_along_y(self, g1, g2):
        assert y_independent(from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0.0 * y))
        assert y_independent(from_profile(
            g2, lambda x1, x2, y: np.exp(-x1 ** 2 - 1j * x2) + 0.0 * y))

    def test_any_y_dependence(self, g1):
        assert not y_independent(from_profile(
            g1, lambda x, y: np.exp(-x ** 2) * (1 + 1e-3 * np.cos(y))))
        u = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0.0 * y).samples().copy()
        u[7, -1] += 1j * 1e-300
        assert not y_independent(SpectralField.from_samples(g1, u))


    @pytest.mark.parametrize("d", [1, 2])
    def test_column_samples_equal_the_broadcast(self, g1, g2, d):
        g = g1 if d == 1 else g2
        rng = np.random.default_rng(d)
        col = (rng.standard_normal(g.shape[:-1] + (1,))
               + 1j * rng.standard_normal(g.shape[:-1] + (1,)))
        full = SpectralField.from_samples(g, np.broadcast_to(col, g.shape).copy(), 0.5)
        f = SpectralField.from_samples(g, col, 0.5)
        assert f.time_tag == 0.5 and f.samples().shape == g.shape
        assert np.array_equal(f.samples(), full.samples())
        assert np.array_equal(f.coefficients, full.coefficients)
        assert np.all(f.coefficients[..., 1:] == 0)
        assert y_independent(f)

    def test_other_sample_shapes_rejected(self, g1):
        for shape in [(g1.Nx, 2), (g1.Nx,), (1, g1.Ny)]:
            with pytest.raises(ValueError, match="matches neither grid"):
                SpectralField.from_samples(g1, np.zeros(shape, complex))


def column_pair(grid, col):
    """The snapshot built from a y column and the one built from its
    broadcast samples, the full-grid oracle."""
    full = SpectralField.from_samples(grid, np.broadcast_to(col, grid.shape).copy())
    return SpectralField.from_samples(grid, col), full


def assert_column_pass_within_bound(col, full, alpha, q_list):
    """The density pass of a column snapshot within the stated bound of the
    full-grid pass of the same samples.

    Each y sum of the column pass is Ny times the column's value; the full
    pass sums the Ny equal rows.  The recursive-summation bound puts the two
    within 2 Ny eps sum_y |terms| per entry, each term weighted by dy.  The
    terms' magnitudes come from the full grid: |u|^2 for rho,
    |u|^(alpha+2) for nu, |u| |d_i u| for P_i and |d_i u| |d_j u| for K_ij
    (by Cauchy-Schwarz, each is at least the sum of the two float products
    of one complex term).  grad rho is rho's spectral gradient, a map of
    norm xi_max = max |xi|, so ||delta||_2 <= xi_max (||delta rho||_2 +
    16 log2(Nx^d) eps ||rho||_2), the second term the rounding of the two
    passes' transform pairs.  A finite L^q norm's q-th power sums ntot
    terms, so the norm moves by at most (2 ntot eps / q + 2 eps) of itself;
    the sup is exact.
    """
    g = full.grid
    got, want = densities(col, alpha, q_list), densities(full, alpha, q_list)
    u = full.samples()
    du = [sfft.ifftn(full.coefficients * (1j * xg) * g.x_phase()) * g.ntot
          for xg in g.xi_grids()]
    a = np.abs(u)
    terms = {"rho": a ** 2, "nu": a ** (alpha + 2.0),
             "P": np.stack([a * np.abs(di) for di in du]),
             "K": np.stack([[np.abs(di) * np.abs(dj) for dj in du] for di in du])}
    for name, t in terms.items():
        delta = np.abs(getattr(got, name) - getattr(want, name))
        assert np.all(delta <= 2 * g.Ny * EPS * np.sum(t, axis=-1) * g.dy), name
    xi_max = np.abs(g.xi_axis()).max()
    bound = xi_max * (np.linalg.norm(got.rho - want.rho)
                      + 16 * np.log2(g.Nx ** g.d) * EPS * np.linalg.norm(want.rho))
    assert np.linalg.norm(got.grad_rho - want.grad_rho) <= bound
    assert list(got.lq_norms) == list(q_list)
    for q in q_list:
        if q == np.inf:
            assert got.lq_norms[q] == want.lq_norms[q]
        else:
            rel = 2 * g.ntot * EPS / q + 2 * EPS
            assert abs(got.lq_norms[q] - want.lq_norms[q]) <= rel * want.lq_norms[q]


class TestColumnRecordPass:
    """The record pass of a snapshot built from a y column runs on the
    column, within the recursive-summation bound of the snapshot built from
    the broadcast samples (assert_column_pass_within_bound)."""

    @staticmethod
    def pair(grid, seed):
        rng = np.random.default_rng(seed)
        shape = grid.shape[:-1] + (1,)
        col = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        col[(0,) * grid.d] = 0.0  # one exact zero
        return column_pair(grid, col)

    @pytest.mark.parametrize("grid", [Grid(1, 40.0, 256, 16), Grid(2, 20.0, 32, 8),
                                      Grid(1, 200.0, 4096, 32)])
    @pytest.mark.parametrize("alpha", [5.0, 4.0 / 3.0])
    def test_densities_bitwise(self, grid, alpha):
        # not bitwise, despite the name: P and K move in their last bits, and
        # rho too at larger Ny; each entry stays within 2 Ny eps sum_y |terms|
        col, full = self.pair(grid, 41)
        assert col._column is not None and full._column is None
        assert_column_pass_within_bound(col, full, alpha, [4.0, 10 / 3, np.inf])

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([1, 2]), Ny=st.sampled_from([4, 8, 16, 32, 64]),
           alpha=st.sampled_from([5.0, 3.0, 4.0 / 3.0]),
           q=st.sampled_from([4.0, 10 / 3, np.inf]),
           seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3))
    @example(d=1, Ny=64, alpha=5.0, q=4.0, seed=41, scale=1.0)
    @example(d=2, Ny=64, alpha=4.0 / 3.0, q=10 / 3, seed=41, scale=1.0)
    def test_densities_within_summation_bound(self, d, Ny, alpha, q, seed, scale):
        # Ny = 64 is the first Ny where even rho is not bitwise
        grid = Grid(1, 40.0, 128, Ny) if d == 1 else Grid(2, 12.0, 16, Ny)
        rng = np.random.default_rng(seed)
        shape = grid.shape[:-1] + (1,)
        col = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert_column_pass_within_bound(*column_pair(grid, col), alpha, [q])

    @pytest.mark.parametrize("grid", [Grid(1, 40.0, 256, 16), Grid(2, 20.0, 32, 8)])
    def test_y_mode_power_bitwise(self, grid):
        # the column's power is the full grid's n = 0 column bit for bit;
        # every other mode of the full grid has power +0
        col, full = self.pair(grid, 43)
        got, want = _y_mode_power(col), _y_mode_power(full)
        assert got.shape == grid.shape[:-1] + (1,)
        assert got.tobytes() == want[..., :1].tobytes()
        assert not np.any(want[..., 1:])
        for r, gamma in ((2.0, 0.0), (4.0, 0.55), (np.inf, 1.0)):
            assert mixed_norm(col, r, gamma) == mixed_norm(full, r, gamma)

    def test_lq_norms_are_lebesgue_norms(self, g2):
        f = random_field(g2, 47)
        column = SpectralField.from_samples(g2, f.samples()[..., :1].copy())
        assert column._column is not None
        for fld in (f, column):
            ds = densities(fld, 3.0, [4.0, np.inf, 10 / 3, 7.0])
            # every q, inf included, is lebesgue_norm's value bit for bit
            assert ds.lq_norms == {q: lebesgue_norm(fld, q)
                                   for q in (4.0, np.inf, 10 / 3, 7.0)}
            assert densities(fld, 3.0).lq_norms == {}

class TestDensities:
    def test_real_field_zero_momentum(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) * (1 + 0.2 * np.cos(y)))
        ds = densities(f, 2.0)
        assert np.abs(ds.P).max() < 1e-12

    def test_plane_wave_constants(self, g1):
        A, k0 = 1.5, 4
        xi0 = 2 * np.pi * k0 / g1.L
        f = from_profile(g1, lambda x, y: A * np.exp(1j * xi0 * x) + 0.0 * y)
        ds = densities(f, 2.0)
        assert np.allclose(ds.rho, 2 * np.pi * A ** 2, rtol=1e-12)
        assert np.allclose(ds.P[0], 2 * np.pi * A ** 2 * xi0, rtol=1e-12)
        assert np.allclose(ds.K[0, 0], 2 * np.pi * A ** 2 * xi0 ** 2, rtol=1e-12)

    def test_consistency_with_norm_engine(self, g1):
        f = random_field(g1, 13)
        ds = densities(f, 3.0)
        mass = np.sum(ds.rho) * g1.cell
        assert mass == pytest.approx(lebesgue_norm(f, 2.0) ** 2, rel=1e-12)
        grad_sq = np.sum(ds.K[0, 0]) * g1.cell
        spectral = g1.measure * np.sum(g1.xi_sq() * np.abs(f.coefficients) ** 2)
        assert grad_sq == pytest.approx(spectral, rel=1e-10)
        pot = np.sum(ds.nu) * g1.cell
        assert pot == pytest.approx(lebesgue_norm(f, 5.0) ** 5, rel=1e-10)

    def test_positivity_and_psd(self, g2):
        f = random_field(g2, 17, decay=10.0)
        ds = densities(f, 2.0)
        assert ds.rho.min() >= -1e-14
        assert ds.nu.min() >= 0.0
        # K(x) PSD: check trace and determinant
        det = ds.K[0, 0] * ds.K[1, 1] - ds.K[0, 1] * ds.K[1, 0]
        assert ds.K[0, 0].min() >= -1e-12
        assert det.min() >= -1e-10

    def test_grad_rho_spectral(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0.0 * y)
        ds = densities(f, 2.0)
        x = g1.x_axis()
        expect = -4.0 * x * np.exp(-2.0 * x ** 2) * 2 * np.pi
        assert np.abs(ds.grad_rho[0] - expect).max() < 1e-8


class TestLeanDensityPass:
    """The record pass's power helper, gradient transform and real contractions
    against the direct complex formulas they replace."""

    @pytest.mark.parametrize("p", [1, 2, 4, 5, 7, 8, 9, 10 / 3, 2.5, 5.0, 100])
    def test_abs_power(self, p):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
        u[0, 0] = 0.0
        expect = np.abs(u) ** p
        got = abs_power(abs_sq(u), p)
        # the rounding of s = |u|^2 grows p/2-fold in s^(p/2)
        rel = 4e-15 * max(1.0, p / 8)
        assert np.abs(got - expect).max() <= 2.5 * rel * expect.max()
        assert np.all(np.abs(got - expect) <= rel * expect)

    @pytest.mark.parametrize("grid", [Grid(1, 40.0, 256, 16), Grid(2, 20.0, 32, 8)])
    def test_gradient_transform_bitwise(self, grid):
        c = random_field(grid, 31).coefficients
        for xg, m in zip(grid.xi_grids(), _gradient_multipliers(grid)):
            direct = sfft.ifftn(c * (1j * xg) * grid.x_phase()) * grid.ntot
            fused = sfft.ifftn(c * m, overwrite_x=True, norm="forward")
            assert np.array_equal(1j * fused, direct)

    @staticmethod
    def x_gradient(grid, arr):
        """Oracle: the spectral x-gradient of a real array on the x grid, the
        real part of ifftn(fftn(arr) * i xi_i) per x axis."""
        ah = sfft.fftn(arr)
        out = np.empty((grid.d,) + arr.shape)
        for i in range(grid.d):
            shape = [1] * arr.ndim
            shape[i] = grid.Nx
            out[i] = sfft.ifftn(ah * (1j * grid.xi_axis().reshape(shape))).real
        return out

    @pytest.mark.parametrize("grid", [
        Grid(1, 200.0, 4096, 32), Grid(2, 64.0, 256, 16), Grid(1, 1024.0, 16384, 16)],
        ids=["decay-1d", "morawetz-2d", "scattering-1d"])
    @pytest.mark.parametrize("column", [False, True], ids=["y-dependent", "column"])
    def test_grad_rho_equals_the_direct_gradient(self, grid, column):
        # grad rho takes the density pass's multipliers on rho's column: the
        # same values as the direct transform pair on rho, bit for bit
        mesh = np.meshgrid(*[grid.x_axis()] * grid.d, grid.y_axis(), indexing="ij")
        r2 = sum(x ** 2 for x in mesh[:-1])
        u = np.exp(-r2 / 2.0 + 0.7j * mesh[0]) * (1 + 0.3 * np.cos(mesh[-1]))
        f = SpectralField.from_samples(grid, u[..., :1].copy() if column else u)
        assert (f._column is not None) == column
        ds = densities(f, 3.0)
        assert np.array_equal(ds.grad_rho, self.x_gradient(grid, ds.rho))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("alpha", [3.0, 5.0, 4.0 / 3.0])
    def test_densities_match_complex_formulas(self, d, alpha):
        grid = Grid(1, 40.0, 256, 16) if d == 1 else Grid(2, 20.0, 32, 8)
        f = random_field(grid, 37, decay=10.0)
        u, c = f.samples(), f.coefficients
        absu = np.abs(u)
        grads = [sfft.ifftn(c * (1j * xg) * grid.x_phase()) * grid.ntot
                 for xg in grid.xi_grids()]
        dy = grid.dy
        expect = {
            "rho": np.sum(absu ** 2, axis=-1) * dy,
            "nu": np.sum(absu ** (alpha + 2.0), axis=-1) * dy,
            "P": np.array([np.sum((np.conj(u) * gi).imag, axis=-1) * dy
                           for gi in grads]),
            "K": np.array([[np.sum((gi * np.conj(gj)).real, axis=-1) * dy
                            for gj in grads] for gi in grads]),
        }
        ds = densities(f, alpha)
        for name, want in expect.items():
            got = getattr(ds, name)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


class TestEmbeddingD2:
    def test_frozen_family_bounded(self, g2):
        # ||v||_{L^4_x H^{1/2-gamma}_y} <= C ||v||_{H^1} on a frozen family
        gamma = 0.1
        worst = 0.0
        for seed in range(20):
            f = random_field(g2, 2000 + seed, decay=10.0)
            ratio = mixed_norm(f, 4.0, 0.5 - gamma) / sobolev_h1(f)
            worst = max(worst, ratio)
        assert worst <= C_CAL_EMBED_D2 * 1.0000001


class TestSnapshotIO:
    def test_roundtrip(self, g1):
        f = random_field(g1, 21)
        buf = io.BytesIO()
        save_field(f, buf)
        buf.seek(0)
        back = load_field(buf)
        assert back.grid == f.grid
        assert back.time_tag == f.time_tag
        assert np.array_equal(back.coefficients, f.coefficients)

    def test_roundtrip_d2_file(self, g2, tmp_path):
        f = random_field(g2, 23, decay=10.0)
        path = str(tmp_path / "snap.bin")
        save_field(f, path)
        back = load_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.coefficients, f.coefficients)

    def test_truncated_rejected(self, g1, tmp_path):
        f = random_field(g1, 25)
        path = str(tmp_path / "snap.bin")
        save_field(f, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-8])
        with pytest.raises(ValueError):
            load_field(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw[:20], "shorter than its 36-byte header"),
        (lambda raw: raw[:-8], "body truncated: the header implies 4096 bytes, 4088"),
        (lambda raw: raw + b"\0", "trailing bytes: the header implies 4096 bytes, 4097"),
        # Nx = 2**40 passes Grid; the size check must come before any read
        (lambda raw: raw[:12] + struct.pack("<q", 2 ** 40) + raw[20:],
         "body truncated: the header implies 70368744177664 bytes, 4096"),
        (lambda raw: raw[:28] + struct.pack("<d", float("nan")) + raw[36:],
         "time_tag = nan must be finite"),
        (lambda raw: struct.pack("<i", 2021161080) + raw[4:],
         "bad snapshot header: d must be 1 or 2"),
    ], ids=["short", "truncated", "trailing", "huge-Nx", "nan-time-tag", "bad-d"])
    def test_bad_file_named(self, tmp_path, damage, message):
        f = random_field(Grid(1, 40.0, 64, 4), 27)
        buf = io.BytesIO()
        save_field(f, buf)
        path = str(tmp_path / "snap.bin")
        with open(path, "wb") as fh:
            fh.write(damage(buf.getvalue()))
        for read in (load_field, snapshot_header):  # the header alone finds each
            with pytest.raises(ValueError, match=f"^{re.escape(path)}: .*{re.escape(message)}"):
                read(path)
            with open(path, "rb") as fh, pytest.raises(ValueError) as exc:
                read(fh)
            assert message in str(exc.value) and path not in str(exc.value)

    def test_header_alone(self, g2, tmp_path):
        f = SpectralField(g2, random_field(g2, 31).coefficients, 0.25)
        path = str(tmp_path / "snap.bin")
        save_field(f, path)
        assert snapshot_header(path) == (g2, 0.25)
        with open(path, "rb") as fh:
            assert snapshot_header(fh).grid == g2
            assert fh.tell() == 36  # at the body, unread

    def test_short_read_rejected(self, g1):
        class ShortRead(io.BytesIO):
            def readinto(self, buf):
                return super().readinto(memoryview(buf).cast("B")[:-16])
        buf = io.BytesIO()
        save_field(random_field(g1, 29), buf)
        with pytest.raises(ValueError, match="body truncated: the header implies "
                                             "65536 bytes, 65520 could be read"):
            load_field(ShortRead(buf.getvalue()))


@pytest.mark.parametrize("grid", [
    Grid(1, 200.0, 4096, 32), Grid(2, 64.0, 256, 16), Grid(1, 1024.0, 16384, 16)],
    ids=["decay-1d", "morawetz-2d", "scattering-1d"])
@pytest.mark.parametrize("mod", [0.0, 0.3])
def test_transforms_bitwise_equal_to_out_of_place_formulas(grid, mod):
    # the benchmark's grids; a y-independent datum (mod = 0) leaves many
    # exact zeros in the spectrum, where the sign of zero shows
    mesh = np.meshgrid(*[grid.x_axis()] * grid.d, grid.y_axis(), indexing="ij")
    r2 = sum(x ** 2 for x in mesh[:-1])
    u = np.exp(-r2 + 0.3j * mesh[0]) * (1 + mod * np.cos(mesh[-1]))
    w = fft_workers()
    c = sfft.fftn(u, workers=w) / grid.ntot * grid.x_phase()
    assert SpectralField.from_samples(grid, u).coefficients.tobytes() == c.tobytes()
    back = sfft.ifftn(c * grid.x_phase(), workers=w) * grid.ntot
    assert SpectralField(grid, c).samples().tobytes() == back.tobytes()


class TestFftWorkers:
    def test_unset_or_empty_means_all_cores(self, monkeypatch):
        import os
        monkeypatch.delenv("NLSLAB_THREADS", raising=False)
        assert fft_workers() == (os.cpu_count() or 1)
        monkeypatch.setenv("NLSLAB_THREADS", "")
        assert fft_workers() == (os.cpu_count() or 1)

    def test_clamped_to_core_count(self, monkeypatch):
        import os
        monkeypatch.setenv("NLSLAB_THREADS", str(64 * (os.cpu_count() or 1)))
        assert fft_workers() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", ["0", "-1", "two", "1.5", " 2"])
    def test_bad_value_names_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv("NLSLAB_THREADS", bad)
        with pytest.raises(ValueError, match="NLSLAB_THREADS"):
            fft_workers()

    def test_set_value_reaches_every_transform(self, monkeypatch):
        import scipy.fft
        from nlslab import field, integrator
        seen = []
        for name in ("fft", "fftn", "ifftn"):
            def recorded(x, *args, _fn=getattr(scipy.fft, name), **kwargs):
                seen.append(kwargs.get("workers"))
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, recorded)
        monkeypatch.setenv("NLSLAB_THREADS", "1")
        g = field.Grid(2, 16.0, 16, 4)
        f = field.from_profile(g, lambda x1, x2, y: np.exp(-(x1 ** 2 + x2 ** 2))
                               * (1 + 0.2 * np.cos(y)))
        field.SpectralField(g, f.coefficients).samples()
        field.mixed_norm(f, 4.0, 0.5)
        field.densities(f, 2.0)
        physics = integrator.PhysicsParams(2.0, 1)
        integrator.evolve(f, physics, integrator.StepControl(1e-3, 1e-3))
        integrator.evolve(f, physics, integrator.StepControl(1e-3, 2e-3))
        assert len(seen) > 10 and set(seen) == {1}

    def test_one_thread_creates_no_kick_pool(self, monkeypatch):
        # the same value sets the kick's thread count: a state large enough
        # to split is kicked on the calling thread alone
        import os
        from nlslab import field, integrator
        monkeypatch.setattr(integrator, "_kick_pools", {})
        monkeypatch.setenv("NLSLAB_THREADS", "1")
        g = field.Grid(1, 400.0, 4096, 16)
        assert g.ntot >= integrator.KICK_SPLIT_MIN
        f = field.from_profile(g, lambda x, y: np.exp(-x ** 2) * (1 + 0.2 * np.cos(y)))
        integrator.evolve(f, integrator.PhysicsParams(3.0, 1),
                          integrator.StepControl(1e-3, 3e-3))
        assert integrator._kick_pools == {}
        monkeypatch.delenv("NLSLAB_THREADS")
        integrator.evolve(f, integrator.PhysicsParams(3.0, 1),
                          integrator.StepControl(1e-3, 3e-3))
        threads = os.cpu_count() or 1
        assert list(integrator._kick_pools) == ([threads] if threads > 1 else [])
