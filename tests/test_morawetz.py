import math

import numpy as np
import pytest

from nlslab.field import Grid, SpectralField, densities, free_evolve, from_profile
from nlslab.field import cube_sup_mass
from nlslab.integrator import PhysicsParams, StepControl, evolve, soliton_profile
from nlslab.morawetz import (
    CubeSupAccumulator,
    MorawetzRecorder,
    inequality_tolerance,
    make_kernels,
    morawetz_J,
    morawetz_terms,
    positivity_certificate,
    sample_kernels,
    _spectra,
    _even,
    _odd,
)


@pytest.fixture
def g1():
    return Grid(1, 40.0, 256, 8)


@pytest.fixture
def physics():
    return PhysicsParams(2.0, 1)


@pytest.fixture
def bumps(g1):
    # two separated bumps with opposite velocities
    return from_profile(
        g1,
        lambda x, y: np.exp(-(x - 5) ** 2) * np.exp(2j * x)
        + np.exp(-(x + 5) ** 2) * np.exp(-2j * x) + 0 * y,
    )


def direct_pair(g, a, kern_fn, b):
    """O(N^2) double-sum oracle at true displacements."""
    x = g.x_axis()
    s = x[:, None] - x[None, :]
    return float(a @ (kern_fn(s) @ b) * g.cell ** 2)


def d2_case():
    """A d=2 datum with its displacement components s and <s> on the
    flattened x grid; the tilted datum and its chirp keep the off-diagonal
    pairings from vanishing by symmetry."""
    g = Grid(2, 8.0, 16, 4)
    f = from_profile(g, lambda x1, x2, y: np.exp(-(x1 ** 2 + x1 * x2 + 2 * x2 ** 2) / 2)
                     * np.exp(0.7j * x1 - 0.4j * x2 + 0.3j * x1 * x2)
                     * (1 + 0.3 * np.cos(y)))
    x1, x2 = (a.ravel() for a in np.meshgrid(g.x_axis(), g.x_axis(), indexing="ij"))
    s = (np.subtract.outer(x1, x1), np.subtract.outer(x2, x2))
    return g, f, s, np.sqrt(1 + s[0] ** 2 + s[1] ** 2)


def pair2(g, a, kern, c):
    """d=2 double sum over all pairs of the flattened x grid, kernel given per pair."""
    return float(a.ravel() @ kern @ c.ravel()) * g.cell ** 2


def d2_certificate(g, ds, s, b):
    """S term by term: every (i, j) of the Hessian, both K pairings."""
    expect = 0.0
    for i in range(2):
        for j in range(2):
            hess = (i == j) / b - s[i] * s[j] / b ** 3
            expect += (4 * pair2(g, ds.K[i, j], hess, ds.rho)
                       + 4 * pair2(g, ds.rho, hess, ds.K[i, j])
                       - 8 * pair2(g, ds.P[i], hess, ds.P[j])
                       + 2 * pair2(g, ds.grad_rho[i], hess, ds.grad_rho[j]))
    return expect


def k_grad(s):
    return s / np.sqrt(1 + s ** 2)


def k_hess(s):
    b = np.sqrt(1 + s ** 2)
    return 1 / b - s ** 2 / b ** 3


def k_lap(s):
    return (1 + s ** 2) ** -1.5


class TestKernels:
    def test_pointwise_properties(self, g1):
        k = sample_kernels(g1)
        assert np.all(k.lap_phi > 0)
        assert np.all(k.hess_phi[0] > 0)  # d=1: 1/<s>^3 > 0
        assert np.allclose(k.grad_phi[0], -k.grad_phi[0][::-1])
        assert np.allclose(k.lap_phi, k.lap_phi[::-1])
        s = (np.arange(2 * g1.Nx - 1) - (g1.Nx - 1)) * g1.dx
        assert np.allclose(k.grad_phi[0], k_grad(s), rtol=1e-14, atol=0)
        assert np.allclose(k.lap_phi, k_lap(s), rtol=1e-14, atol=0)

    def test_d2_hessian_psd(self):
        g = Grid(2, 10.0, 16, 4)
        k = sample_kernels(g)
        xx, xy, yy = k.hess_phi
        assert np.all(xx > 0) and np.all(yy > 0)
        det = xx * yy - xy ** 2
        assert np.all(det > 0)

    def test_cached_per_grid(self, g1):
        assert make_kernels(g1) is make_kernels(Grid(1, 40.0, 256, 8))

    @pytest.mark.parametrize("grid", [Grid(1, 40.0, 256, 8), Grid(2, 10.0, 16, 4)])
    def test_spectra_keep_the_whole_transform(self, grid):
        # wrap each sampled kernel onto the padded grid index by index: the
        # even kernels must have a real spectrum and the odd ones an
        # imaginary one, up to rounding, and the cache holds the kept part
        # times the half-spectrum Parseval weights
        N, M, d = grid.Nx, 2 * grid.Nx, grid.d
        wrap = np.ix_(*[(np.arange(2 * N - 1) - (N - 1)) % M] * d)
        w = np.where(np.isin(np.arange(N + 1), (0, N)), 1.0, 2.0)
        w = w * grid.cell ** 2 / M ** d
        sk, k = sample_kernels(grid), make_kernels(grid)
        pairs = ([(a, b, "odd") for a, b in zip(sk.grad_phi, k.grad_phi)]
                 + [(a, b, "even") for a, b in zip(sk.hess_phi, k.hess_phi)]
                 + [(sk.lap_phi, k.lap_phi, "even")])
        assert len(pairs) == {1: 3, 2: 6}[d]
        for centred, cached, parity in pairs:
            padded = np.zeros((M,) * d)
            padded[wrap] = centred
            spec = np.fft.rfftn(padded)
            kept, dropped = ((spec.real, spec.imag) if parity == "even"
                             else (spec.imag, spec.real))
            assert np.abs(dropped).max() < 1e-12 * np.abs(kept).max()
            assert np.allclose(cached, kept * w, rtol=1e-12,
                               atol=1e-14 * np.abs(kept * w).max())


class TestMorawetzJ:
    def test_real_field_zero(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0 * y)
        assert abs(morawetz_J(f)) < 1e-12

    def test_soliton_zero(self):
        g = Grid(1, 80.0, 1024, 4)
        assert abs(morawetz_J(soliton_profile(g, 1.0))) < 1e-12

    def test_matches_double_sum(self, g1, bumps):
        ds = densities(bumps, 2.0)
        expect = -4.0 * direct_pair(g1, ds.P[0], k_grad, ds.rho)
        got = morawetz_J(bumps)
        assert abs(got - expect) <= 1e-10 * abs(expect)

    def test_two_pairings_coincide(self, g1, bumps):
        # rho against (grad_phi * P) equals P against (grad_phi * rho) by oddness
        k = make_kernels(g1)
        sp = _spectra(k, densities(bumps, 2.0))
        a = _odd(k.grad_phi[0], sp["P", 0], sp["rho"])
        b = _odd(k.grad_phi[0], sp["rho"], sp["P", 0])
        assert a != 0.0
        assert a == pytest.approx(-b, rel=1e-12)

    def test_d2_matches_double_sum(self):
        g, f, s, b = d2_case()
        ds = densities(f, 2.0)
        expect = -4.0 * sum(pair2(g, ds.P[i], s[i] / b, ds.rho) for i in range(2))
        got = morawetz_J(f)
        assert got != 0.0
        assert got == pytest.approx(expect, rel=1e-9)


class TestPositivityCertificate:
    def test_zero_field(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        assert positivity_certificate(f) == 0.0

    def test_real_field_nonnegative(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) * (1 + 0.5 * np.sin(y)))
        assert positivity_certificate(f) >= 0.0

    def test_random_fields_nonnegative_and_match_oracle(self, g1):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            c = np.zeros(g1.shape, complex)
            c[:, :2] = rng.standard_normal((g1.Nx, 2)) \
                + 1j * rng.standard_normal((g1.Nx, 2))
            c *= np.exp(-g1.xi_sq() / 10.0)
            f = SpectralField(g1, c)
            s = positivity_certificate(f)
            from nlslab.integrator import mass
            from nlslab.field import sobolev_h1
            scale = (mass(f) + sobolev_h1(f)) ** 4
            assert s >= -1e-10 * scale
            if seed < 20:  # oracle cross-check on a subsample
                ds = densities(f, 2.0)
                expect = (4 * direct_pair(g1, ds.K[0, 0], k_hess, ds.rho)
                          + 4 * direct_pair(g1, ds.rho, k_hess, ds.K[0, 0])
                          - 8 * direct_pair(g1, ds.P[0], k_hess, ds.P[0])
                          + 2 * direct_pair(g1, ds.grad_rho[0], k_hess,
                                            ds.grad_rho[0]))
                assert s == pytest.approx(expect, rel=1e-9)

    def test_d2_matches_double_sum(self):
        g, f, s, b = d2_case()
        ds = densities(f, 2.0)
        assert positivity_certificate(f) == pytest.approx(d2_certificate(g, ds, s, b),
                                                          rel=1e-9)


class TestMorawetzTerms:
    def test_zero_field(self, g1, physics):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        assert morawetz_terms(f, physics) == (0.0, 0.0)

    def test_matches_double_sum(self, g1, physics, bumps):
        ds = densities(bumps, physics.alpha)
        s = positivity_certificate(bumps)
        a = physics.alpha
        nl = (direct_pair(g1, ds.nu, k_lap, ds.rho)
              + direct_pair(g1, ds.rho, k_lap, ds.nu))
        lhs_exp = s + 2 * a / (a + 2) * nl
        rhs_exp = 4 * a / (a + 2) * direct_pair(g1, ds.nu, k_lap, ds.rho)
        lhs, rhs = morawetz_terms(bumps, physics)
        assert lhs == pytest.approx(lhs_exp, rel=1e-9)
        assert rhs == pytest.approx(rhs_exp, rel=1e-9)

    def test_symmetric_interaction_terms_equal(self, g1, physics, bumps):
        # bitwise equal with lap_phi's spectrum stored real, so lhs takes it once
        k = make_kernels(g1)
        sp = _spectra(k, densities(bumps, physics.alpha))
        t1 = _even(k.lap_phi, sp["nu"], sp["rho"])
        t2 = _even(k.lap_phi, sp["rho"], sp["nu"])
        assert t1 != 0.0
        assert t1 == t2

    def test_d2_matches_double_sum(self):
        g, f, s, b = d2_case()
        physics = PhysicsParams(3.0, 1)
        a = physics.alpha
        ds = densities(f, a)
        lap = (s[0] ** 2 + s[1] ** 2 + 2) / b ** 3
        nl = pair2(g, ds.nu, lap, ds.rho) + pair2(g, ds.rho, lap, ds.nu)
        lhs_exp = d2_certificate(g, ds, s, b) + 2 * a / (a + 2) * nl
        rhs_exp = 4 * a / (a + 2) * pair2(g, ds.nu, lap, ds.rho)
        lhs, rhs = morawetz_terms(f, physics)
        assert lhs == pytest.approx(lhs_exp, rel=1e-9)
        assert rhs == pytest.approx(rhs_exp, rel=1e-9)

    def test_defocusing_inequality_along_run(self, g1, physics):
        from nlslab.integrator import mass
        f = from_profile(g1, lambda x, y: 1.5 * np.exp(-x ** 2) + 0 * y)
        rec = MorawetzRecorder(physics)
        evolve(f, physics, StepControl(dt=1e-3, t_end=0.5, sample_every=100),
               sinks=[rec])
        m = mass(f)
        for s in rec.samples:
            tol = inequality_tolerance(s.lhs, s.rhs, m)
            assert s.lhs - s.rhs >= -tol
            assert s.S >= -tol
            # lhs - rhs equals the certificate by construction of the identity
            assert s.lhs - s.rhs == pytest.approx(s.S, rel=1e-9)


class TestDJdtIdentity:
    def test_plane_wave_static(self, g1, physics):
        xi0 = 2 * np.pi * 3 / g1.L
        f = from_profile(g1, lambda x, y: np.exp(1j * xi0 * x) + 0 * y)
        snaps = []
        evolve(f, physics, StepControl(dt=1e-3, t_end=4e-3, sample_every=1),
               sinks=[lambda fld, fl: snaps.append(fld)])
        js = [morawetz_J(s) for s in snaps]
        assert max(abs(j - js[0]) for j in js) < 1e-9
        # uniform densities: the certificate part of lhs cancels exactly
        # (K rho = P^2 for a plane wave), so lhs reduces to the interaction
        # term and lhs - rhs vanishes
        lhs, rhs = morawetz_terms(snaps[2], physics)
        assert abs(positivity_certificate(snaps[2])) < 1e-9
        assert abs(lhs - rhs) < 1e-9

    def test_gaussian_run_residual(self, g1, physics):
        f = from_profile(
            g1, lambda x, y: np.exp(-(x - 3) ** 2) * np.exp(1j * x) + 0 * y)
        snaps = []
        evolve(f, physics, StepControl(dt=1e-3, t_end=0.012, sample_every=1),
               sinks=[lambda fld, fl: snaps.append(fld)])
        lhs, _ = morawetz_terms(snaps[10], physics)
        fd = (morawetz_J(snaps[11]) - morawetz_J(snaps[9])) \
            / (snaps[11].time_tag - snaps[9].time_tag)
        assert abs(fd - lhs) / abs(lhs) < 1e-4

    def test_richardson_order_free_flow(self, g1):
        # exact trajectories isolate the pure finite-difference error; along
        # the free flow dJ/dt is S
        f = from_profile(
            g1, lambda x, y: np.exp(-(x - 3) ** 2) * np.exp(1j * x) + 0 * y)
        t0 = 0.1
        res = []
        lhs = positivity_certificate(free_evolve(f, t0))
        for d in (2e-3, 1e-3, 5e-4):
            fd = (morawetz_J(free_evolve(f, t0 + d))
                  - morawetz_J(free_evolve(f, t0 - d))) / (2 * d)
            res.append(abs(fd - lhs))
        for a, b in zip(res, res[1:]):
            assert 1.8 <= math.log2(a / b) <= 2.2


def psi(x):
    return np.exp(-(x / 5) ** 2 * 4)


def dpsi(x):
    return -8.0 * x / 25.0 * psi(x)


def local_mass_flux_residual(f_minus, f_plus):
    """|d/dt int psi |u|^2 - (-2 int psi' P)| at the midpoint of two d = 1
    snapshots, with psi' in closed form and rho summed from the samples.

    The time derivative is the central difference of the two snapshots; the
    flux side is the average of its values at the two times (both O(delta^2)).
    """
    g = f_minus.grid
    x = g.x_axis()

    def mass_and_flux(fld):
        rho = np.sum(np.abs(fld.samples()) ** 2, axis=-1) * g.dy
        P = densities(fld, alpha=2.0).P[0]
        return (float(np.sum(psi(x) * rho) * g.cell),
                float(np.sum(dpsi(x) * P) * -2.0 * g.cell))

    m_minus, flux_minus = mass_and_flux(f_minus)
    m_plus, flux_plus = mass_and_flux(f_plus)
    fd = (m_plus - m_minus) / (f_plus.time_tag - f_minus.time_tag)
    return abs(fd - 0.5 * (flux_minus + flux_plus))


class TestLocalMassFlux:
    def test_plane_wave_both_sides_zero(self, g1, physics):
        xi0 = 2 * np.pi * 2 / g1.L
        f = from_profile(g1, lambda x, y: np.exp(1j * xi0 * x) + 0 * y)
        snaps = []
        evolve(f, physics, StepControl(dt=1e-3, t_end=2e-3, sample_every=1),
               sinks=[lambda fld, fl: snaps.append(fld)])
        assert local_mass_flux_residual(snaps[0], snaps[2]) < 1e-10

    def test_gaussian_run_small_residual(self, g1, physics):
        f = from_profile(g1, lambda x, y: 1.5 * np.exp(-x ** 2) + 0 * y)
        snaps = []
        evolve(f, physics, StepControl(dt=1e-3, t_end=0.012, sample_every=1),
               sinks=[lambda fld, fl: snaps.append(fld)])
        res = local_mass_flux_residual(snaps[9], snaps[11])
        assert res < 1e-5

    def test_second_order_in_delta(self, g1, physics):
        f = from_profile(g1, lambda x, y: 1.5 * np.exp(-x ** 2) + 0 * y)
        snaps = []
        evolve(f, physics, StepControl(dt=1e-3, t_end=0.02, sample_every=1),
               sinks=[lambda fld, fl: snaps.append(fld)])
        r1 = local_mass_flux_residual(snaps[9], snaps[11])
        r2 = local_mass_flux_residual(snaps[8], snaps[12])
        assert r2 > 2.0 * r1  # grows superlinearly with delta


class TestCubeSupAccumulator:
    def test_zero_stream(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        acc = CubeSupAccumulator(alpha=2.0)
        for t in (0.0, 0.1, 0.2):
            total = acc.update(t, f)
        assert total == 0.0

    def test_soliton_linear_growth(self):
        g = Grid(1, 80.0, 1024, 4)
        sol = soliton_profile(g, 1.0)
        acc = CubeSupAccumulator(alpha=2.0)
        vals = [acc.update(t, sol) for t in np.linspace(0, 2, 21)]
        incs = np.diff(vals)
        assert np.allclose(incs, incs[0], rtol=1e-12)

    def test_out_of_order_rejected(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0 * y)
        acc = CubeSupAccumulator(alpha=2.0)
        acc.update(0.1, f)
        with pytest.raises(ValueError):
            acc.update(0.05, f)


class TestRecorder:
    def test_samples_collected(self, g1, physics):
        f = from_profile(g1, lambda x, y: 1.2 * np.exp(-x ** 2) + 0 * y)
        rec = MorawetzRecorder(physics)
        evolve(f, physics, StepControl(dt=1e-3, t_end=0.01, sample_every=5),
               sinks=[rec])
        assert [s.t for s in rec.samples] == pytest.approx([0.0, 0.005, 0.01])
        assert rec.samples[0].cube_sup_integral == 0.0
        assert rec.samples[-1].cube_sup_integral > 0.0


class TestRecorderSinglePass:
    """One density pass, one certificate and one cube-sup per recorded sample."""

    @pytest.fixture
    def moving_d2(self):
        g = Grid(2, 16.0, 32, 4)
        return from_profile(
            g, lambda x1, x2, y: np.exp(-(x1 ** 2 + 2 * x2 ** 2) / 4)
            * np.exp(0.7j * x1 - 0.4j * x2) * (1 + 0.3 * np.cos(y)))

    def test_sample_equals_public_functions(self, moving_d2):
        physics = PhysicsParams(3.0, 1)
        rec = MorawetzRecorder(physics)
        rec(moving_d2, False)
        s = rec.samples[-1]
        assert s.J == morawetz_J(moving_d2)
        assert (s.lhs, s.rhs) == morawetz_terms(moving_d2, physics)
        assert s.S == positivity_certificate(moving_d2)
        assert s.cube_sup == cube_sup_mass(moving_d2)
        assert s.J != 0.0 and s.S > 0.0  # momentum and y-variation reach the sums

    def test_call_counts(self, moving_d2, monkeypatch):
        import scipy.fft
        from nlslab import morawetz
        make_kernels(moving_d2.grid)  # built once per grid, not per sample
        calls = {"densities": 0, "cube_sup_mass": 0, "fftconvolve": 0, "rfftn": 0}
        for module, name in ((morawetz, "densities"), (morawetz, "cube_sup_mass"),
                             (morawetz, "fftconvolve"), (scipy.fft, "rfftn")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(module, name, counted)
        MorawetzRecorder(PhysicsParams(3.0, 1))(moving_d2, False)
        # d=2: one transform each of rho, nu, P_0, P_1, K_00, K_01, K_11 and
        # the two components of grad rho; no convolutions
        assert calls == {"densities": 1, "cube_sup_mass": 1, "fftconvolve": 0,
                         "rfftn": 9}

    @pytest.mark.parametrize("d, alpha", [(1, "5"), (2, "3")])
    def test_record_builder_call_counts(self, d, alpha, monkeypatch):
        # the Morawetz pairings and the gradient accumulator share one
        # density pass, whose x-gradients are the only full-grid inverse FFTs
        import json
        import scipy.fft
        from nlslab import cli, morawetz
        cfg = cli.parse_config(json.dumps(
            {"preset": "scattering", "d": d, "alpha": alpha,
             "grid": {"Nx": 32, "Ny": 4, "L": 16.0}}))
        fld = cli.build_datum(cfg)
        builder = cli.RecordBuilder(cfg)
        assert builder.accumulators is not None  # the space-time accumulators run
        calls = {"densities": 0, "ifftn": 0}

        def densities_counted(*args, _fn=morawetz.densities, **kw):
            calls["densities"] += 1
            return _fn(*args, **kw)

        def ifftn_counted(x, *args, _fn=scipy.fft.ifftn, **kw):
            calls["ifftn"] += np.size(x) == fld.grid.ntot
            return _fn(x, *args, **kw)
        monkeypatch.setattr(morawetz, "densities", densities_counted)
        monkeypatch.setattr(scipy.fft, "ifftn", ifftn_counted)
        builder(fld, False)
        assert calls == {"densities": 1, "ifftn": d}
