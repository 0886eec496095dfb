import io
import re
import struct

import numpy as np
import pytest

from nlslab.field import (
    Grid,
    SpectralField,
    _gradient_multipliers,
    _linear_phase,
    abs_power,
    abs_sq,
    cube_sup_mass,
    densities,
    difference_quotient_hs_y,
    dq_normalizer,
    fractional_leibniz_ratio,
    free_evolve,
    from_profile,
    hs_x_hgamma_y,
    lebesgue_norm,
    load_field,
    localized_gn_check,
    mixed_norm,
    nonlinear_power,
    save_field,
    snapshot_header,
    sobolev_h1,
    y_independent,
)


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
    """Largest mass of max(1, round(1/dx)) consecutive cells (d = 1), by a plain
    loop in the window sums' order, so that it is equal to them bit for bit."""
    g = f.grid
    m = max(1, round(1.0 / g.dx))
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


class TestLocalizedGN:
    def test_zero_field(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        lhs, (f1, f2) = localized_gn_check(f)
        assert lhs == 0.0 and f1 == 0.0 and f2 == 0.0

    def test_plane_wave_finite_ratio(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(1j * (y + 2 * np.pi * x / g1.L)))
        lhs, (f1, f2) = localized_gn_check(f)
        d = g1.d
        ratio = lhs / (f1 ** (2 / (d + 3)) * f2 ** ((d + 1) / (d + 3)))
        assert np.isfinite(ratio) and ratio > 0

    def test_shrinking_gaussians_bounded(self, g1):
        d = g1.d
        for w in (2.0, 1.0, 0.5, 0.25):
            f = from_profile(g1, lambda x, y, w=w: np.exp(-(x / w) ** 2) + 0.0 * y)
            lhs, (f1, f2) = localized_gn_check(f)
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
        _, (f1, _) = localized_gn_check(f)
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
        from scipy import fft as sfft
        c = random_field(grid, 31).coefficients
        for xg, m in zip(grid.xi_grids(), _gradient_multipliers(grid)):
            direct = sfft.ifftn(c * (1j * xg) * grid.x_phase()) * grid.ntot
            fused = sfft.ifftn(c * m, overwrite_x=True, norm="forward")
            assert np.array_equal(1j * fused, direct)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("alpha", [3.0, 5.0, 4.0 / 3.0])
    def test_densities_match_complex_formulas(self, d, alpha):
        from scipy import fft as sfft
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
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
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
    from scipy import fft as sfft
    from nlslab.field import fft_workers
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
        from nlslab.field import fft_workers
        monkeypatch.delenv("NLSLAB_THREADS", raising=False)
        assert fft_workers() == -1
        monkeypatch.setenv("NLSLAB_THREADS", "")
        assert fft_workers() == -1

    def test_clamped_to_core_count(self, monkeypatch):
        import os
        from nlslab.field import fft_workers
        monkeypatch.setenv("NLSLAB_THREADS", str(64 * (os.cpu_count() or 1)))
        assert fft_workers() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", ["0", "-1", "two", "1.5", " 2"])
    def test_bad_value_names_the_variable(self, monkeypatch, bad):
        from nlslab.field import fft_workers
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
        field.nonlinear_power(f, 2.0)
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
