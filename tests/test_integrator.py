import math

import numpy as np
import pytest
import scipy.fft

from nlslab.field import (
    Grid,
    SpectralField,
    edge_cube_fraction,
    free_evolve,
    from_profile,
    lebesgue_norm,
)
from nlslab.integrator import (
    BlowUpError,
    PhysicsParams,
    StepControl,
    _linear_phase,
    energy,
    evolve,
    mass,
    soliton_profile,
    strang_step,
)


@pytest.fixture
def g1():
    return Grid(1, 40.0, 256, 16)


@pytest.fixture
def gaussian(g1):
    return from_profile(g1, lambda x, y: 1.5 * np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)))


class TestParams:
    def test_physics_validation(self):
        with pytest.raises(ValueError):
            PhysicsParams(0.0, 1)
        with pytest.raises(ValueError):
            PhysicsParams(2.0, 2)
        PhysicsParams(2.0, 0)  # test hook allowed

    def test_control_validation(self):
        with pytest.raises(ValueError):
            StepControl(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            StepControl(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError):
            StepControl(dt=0.1, t_end=1.0, sample_every=0)
        assert StepControl(dt=-0.1, t_end=-1.0).n_steps == 10

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            StepControl(dt=0.3, t_end=1.0).n_steps

    def test_resolvability_warning(self, g1, gaussian):
        with pytest.warns(RuntimeWarning):
            evolve(gaussian, PhysicsParams(2.0, 0), StepControl(dt=0.1, t_end=0.1))


# the benchmark's grids and step sizes (decay-1d, morawetz-2d, scattering-1d),
# the fixture grid, and a backward step
@pytest.mark.parametrize("grid, dt", [
    (Grid(1, 200.0, 4096, 32), 1e-3), (Grid(2, 64.0, 256, 16), 1e-3),
    (Grid(1, 1024.0, 16384, 16), 2e-3), (Grid(1, 40.0, 256, 16), 1e-2),
    (Grid(2, 16.0, 16, 4), -1e-3)])
def test_separable_phase_matches_full_grid_exp(grid, dt):
    phase = _linear_phase(grid, dt)
    assert phase.shape == grid.shape
    assert np.abs(phase - np.exp(1j * dt * grid.laplace_symbol())).max() <= 2e-15


class _CountedFFT:
    """scipy.fft with each complex transform of a full grid counted."""

    def __init__(self, size):
        self.size, self.calls = size, 0

    def __getattr__(self, name):
        fn = getattr(scipy.fft, name)
        if name not in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2"):
            return fn

        def counted(x, *args, **kwargs):
            self.calls += np.size(x) == self.size
            return fn(x, *args, **kwargs)
        return counted


@pytest.mark.parametrize("steps, every", [(1, 1), (4, 2), (7, 3), (5, 10)])
def test_transforms_per_run(g1, gaussian, monkeypatch, steps, every):
    # two per step, none for the step-0 snapshot (the datum, samples cached)
    # and one forward transform for each later snapshot; the guard adds none
    from nlslab import field, integrator
    fake = _CountedFFT(g1.ntot)
    monkeypatch.setattr(field, "sfft", fake)
    monkeypatch.setattr(integrator, "sfft", fake)
    seen = []
    evolve(gaussian, PhysicsParams(3.0, 1),
           StepControl(dt=1e-3, t_end=steps * 1e-3, sample_every=every),
           sinks=[lambda f, flag: seen.append(f)], guard_tol=1e-3)
    assert fake.calls == 2 * steps + len(seen) - 1


class TestStrangStep:
    def test_zero_field(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        out = strang_step(f, PhysicsParams(2.0, 1), 1e-3)
        assert np.all(out.coefficients == 0)
        assert out.time_tag == pytest.approx(1e-3)

    def test_plane_wave_closed_form(self, g1):
        # constant-modulus data: both substeps exact, splitting error vanishes
        A, k0, n0 = 1.3, 3, 2
        xi0 = 2 * np.pi * k0 / g1.L
        f = from_profile(g1, lambda x, y: A * np.exp(1j * (xi0 * x + n0 * y)))
        lam, alpha, t = 1, 2.0, 0.5
        out = evolve(f, PhysicsParams(alpha, lam), StepControl(dt=0.01, t_end=t))
        expect = A * np.exp(1j * t * (xi0 ** 2 + n0 ** 2 + lam * A ** alpha))
        assert abs(out.coefficients[k0, n0] - expect) < 1e-12

    def test_blowup_detection(self, g1):
        c = np.zeros(g1.shape, complex)
        c[0, 0] = np.inf
        bad = SpectralField(g1, np.nan_to_num(c, posinf=1.0))
        # inject non-finite samples directly
        bad._samples = np.full(g1.shape, np.nan + 0j)
        with pytest.raises(BlowUpError):
            strang_step(bad, PhysicsParams(2.0, -1), 1e-3)


class TestEvolve:
    def test_lambda_zero_matches_free_flow(self, g1, gaussian):
        out = evolve(gaussian, PhysicsParams(2.0, 0),
                     StepControl(dt=0.01, t_end=1.0))
        lin = free_evolve(gaussian, 1.0)
        assert np.abs(out.coefficients - lin.coefficients).max() < 1e-12

    def test_mass_conserved_1e4_steps(self, g1, gaussian):
        m0 = mass(gaussian)
        out = evolve(gaussian, PhysicsParams(5.0, 1),
                     StepControl(dt=1e-3, t_end=10.0))
        assert abs(mass(out) - m0) / m0 < 1e-10

    def test_sinks_receive_snapshots(self, g1, gaussian):
        seen = []
        out = evolve(gaussian, PhysicsParams(2.0, 1),
                     StepControl(dt=0.01, t_end=0.1, sample_every=5),
                     sinks=[lambda f, flag: seen.append((f, flag))])
        times = [f.time_tag for f, _ in seen]
        assert times == pytest.approx([0.0, 0.05, 0.1])
        assert all(flag is False for _, flag in seen)
        # the datum is the step-0 snapshot, the last snapshot is the result
        assert seen[0][0] is gaussian
        assert out is seen[-1][0]

    def test_guard_flag_latches(self, g1):
        # datum concentrated at the box edge trips the guard immediately
        f = from_profile(g1, lambda x, y: np.exp(-(x - 19.0) ** 2) + 0.0 * y)
        flags = []
        evolve(f, PhysicsParams(2.0, 1),
               StepControl(dt=0.01, t_end=0.05, sample_every=1),
               sinks=[lambda fld, flag: flags.append(flag)],
               guard_tol=1e-4)
        assert all(flags)

    def test_guard_quiet_for_centered_datum(self, g1, gaussian):
        flags = []
        evolve(gaussian, PhysicsParams(2.0, 1),
               StepControl(dt=0.01, t_end=0.05, sample_every=1),
               sinks=[lambda fld, flag: flags.append(flag)],
               guard_tol=1e-4)
        assert not any(flags)

    def test_time_reversibility(self, g1, gaussian):
        ph = PhysicsParams(2.0, 1)
        fwd = evolve(gaussian, ph, StepControl(dt=1e-3, t_end=1.0))
        back = evolve(fwd, ph, StepControl(dt=-1e-3, t_end=-1.0))
        num = lebesgue_norm(
            SpectralField(g1, back.coefficients - gaussian.coefficients), 2.0)
        assert num / lebesgue_norm(gaussian, 2.0) < 1e-9


class TestConservedQuantities:
    def test_zero_field(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        assert mass(f) == 0.0
        assert energy(f, PhysicsParams(2.0, 1)) == 0.0

    def test_plane_wave_closed_form(self, g1):
        A, k0, n0 = 1.4, 2, 1
        xi0 = 2 * np.pi * k0 / g1.L
        f = from_profile(g1, lambda x, y: A * np.exp(1j * (xi0 * x + n0 * y)))
        box = 2 * np.pi * g1.L
        assert mass(f) == pytest.approx(A ** 2 * box, rel=1e-12)
        for lam in (1, -1):
            ph = PhysicsParams(2.0, lam)
            expect = (0.5 * A ** 2 * (xi0 ** 2 + n0 ** 2) * box
                      + lam / 4.0 * A ** 4 * box)
            assert energy(f, ph) == pytest.approx(expect, rel=1e-10)

    def test_energy_drift_second_order(self, g1, gaussian):
        ph = PhysicsParams(2.0, 1)
        e0 = energy(gaussian, ph)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            out = evolve(gaussian, ph, StepControl(dt=dt, t_end=1.0))
            errs.append(abs(energy(out, ph) - e0))
        for a, b in zip(errs, errs[1:]):
            order = math.log2(a / b)
            assert 1.8 <= order <= 2.2


class TestSoliton:
    @pytest.fixture
    def gs(self):
        return Grid(1, 80.0, 2048, 4)

    def test_validation(self, gs):
        with pytest.raises(ValueError):
            soliton_profile(gs, -1.0)
        with pytest.raises(ValueError):
            soliton_profile(Grid(2, 80.0, 32, 4), 1.0)
        with pytest.warns(RuntimeWarning):
            soliton_profile(Grid(1, 10.0, 64, 4), 1.0)

    def test_mass_closed_form(self, gs):
        sol = soliton_profile(gs, 1.0)
        assert mass(sol) == pytest.approx(4.0 * 2 * np.pi, rel=1e-12)
        sol2 = soliton_profile(gs, 1.5)
        assert mass(sol2) == pytest.approx(6.0 * 2 * np.pi, rel=1e-12)

    def test_discrete_stationarity(self, gs):
        B, dt = 1.0, 1e-4
        sol = soliton_profile(gs, B)
        out = strang_step(sol, PhysicsParams(2.0, -1), dt)
        exact = sol.samples() * np.exp(-1j * B ** 2 * dt)
        assert np.abs(out.samples() - exact).max() < 1e-8

    def test_shape_preserved_t1(self, gs):
        sol = soliton_profile(gs, 1.0)
        out = evolve(sol, PhysicsParams(2.0, -1), StepControl(dt=1e-3, t_end=1.0))
        dev = np.abs(np.abs(out.samples()) - np.abs(sol.samples())).max()
        assert dev < 1e-6

    def test_lq_norms_constant(self, gs):
        sol = soliton_profile(gs, 1.0)
        base = {q: lebesgue_norm(sol, q) for q in (2.0, 4.0, np.inf)}
        out = evolve(sol, PhysicsParams(2.0, -1), StepControl(dt=1e-3, t_end=2.0))
        for q, v in base.items():
            assert lebesgue_norm(out, q) == pytest.approx(v, rel=1e-4)


class TestEdgeCubeFraction:
    def test_centered_gaussian_tiny(self, g1, gaussian):
        assert edge_cube_fraction(gaussian) < 1e-12

    def test_uniform_field(self, g1):
        f = from_profile(g1, lambda x, y: 1.0 + 0.0 * (x + y))
        # every window holds the same share: (cells per window) / Nx
        m = round(1.0 / g1.dx)
        assert edge_cube_fraction(f) == pytest.approx(m / g1.Nx, rel=1e-12)

    def test_edge_bump_dominates(self, g1):
        f = from_profile(g1, lambda x, y: np.exp(-4 * (x - 19.0) ** 2) + 0.0 * y)
        assert edge_cube_fraction(f) > 0.9

    def test_zero_field(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        assert edge_cube_fraction(f) == 0.0

    def test_grid_coarser_than_unit_cubes(self):
        # dx = 1.5: the guard's cubes are one cell wide, as rounding gave them
        g = Grid(1, 48.0, 32, 4)
        f = from_profile(g, lambda x, y: 1.0 + 0.0 * (x + y))
        assert edge_cube_fraction(f) == pytest.approx(1 / g.Nx, rel=1e-12)

    @pytest.mark.parametrize("grid, sampler", [
        (Grid(1, 40.0, 256, 16),
         lambda x, y: np.exp(-4 * (x - 19.0) ** 2) * (1 + 0.3 * np.cos(y))),
        (Grid(2, 20.0, 64, 8),
         lambda x1, x2, y: np.exp(-2 * ((x1 - 9.0) ** 2 + (x2 - 1.0) ** 2))
         * (1 + 0.3 * np.cos(y))),
    ])
    def test_total_is_the_mass(self, grid, sampler):
        # the heaviest unit cube sits in the edge band, so the fraction is
        # cube_sup / total, and the total the guard divides by must be the mass
        from nlslab.field import cube_sup_mass
        f = from_profile(grid, sampler)
        assert edge_cube_fraction(f) == pytest.approx(
            cube_sup_mass(f, 1.0) / mass(f), rel=1e-12)


class TestStepKernel:
    def test_strang_step_equals_one_step_evolve(self, gaussian):
        physics = PhysicsParams(2.0, 1)
        stepped = strang_step(gaussian, physics, 1e-3)
        evolved = evolve(gaussian, physics, StepControl(dt=1e-3, t_end=1e-3))
        assert np.array_equal(stepped.samples(), evolved.samples())
        assert np.array_equal(stepped.coefficients, evolved.coefficients)
        assert stepped.time_tag == evolved.time_tag


def plain_strang(u, g, physics, dt, steps):
    """Unfused numpy Strang loop: half kick, linear flow, half kick per step."""
    xi = 2 * np.pi * np.fft.fftfreq(g.Nx, d=g.L / g.Nx)
    n = np.fft.fftfreq(g.Ny, d=1.0 / g.Ny)
    phase = np.exp(1j * dt * (xi[:, None] ** 2 + n[None, :] ** 2))
    half = 0.5j * physics.lam * dt
    for _ in range(steps):
        u = u * np.exp(half * np.abs(u) ** physics.alpha)
        u = np.fft.ifft2(np.fft.fft2(u) * phase)
        u = u * np.exp(half * np.abs(u) ** physics.alpha)
    return u


class TestInPlaceKernel:
    def test_caller_field_untouched(self, gaussian):
        physics = PhysicsParams(3.0, 1)
        samples, coefficients = gaussian.samples().copy(), gaussian.coefficients.copy()
        strang_step(gaussian, physics, 1e-3)
        evolve(gaussian, physics, StepControl(dt=1e-3, t_end=5e-3, sample_every=2))
        assert np.array_equal(gaussian.samples(), samples)
        assert np.array_equal(gaussian.coefficients, coefficients)

    @pytest.mark.parametrize("every, tags", [(1, range(8)), (3, [0, 3, 6, 7]),
                                             (7, [0, 7])])
    def test_fused_chunks_match_plain_loop(self, g1, gaussian, every, tags):
        physics, dt = PhysicsParams(3.0, 1), 1e-2
        seen = []
        evolve(gaussian, physics, StepControl(dt=dt, t_end=7 * dt, sample_every=every),
               sinks=[lambda f, flag: seen.append((f.time_tag, f.samples()))])
        assert [t for t, _ in seen] == pytest.approx([k * dt for k in tags])
        for k, (_, u) in zip(tags, seen):
            ref = plain_strang(gaussian.samples(), g1, physics, dt, k)
            assert np.abs(u - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_blowup_reported_at_its_step(self, g1):
        # a focusing datum near the top of the float range: |u|^alpha overflows
        # within a few steps, long before the first sample at t = 0.05
        f = from_profile(g1, lambda x, y: 2.8e61 * np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)))
        times = []
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as err:
            evolve(f, PhysicsParams(5.0, -1),
                   StepControl(dt=1e-3, t_end=0.1, sample_every=50),
                   sinks=[lambda fld, flag: times.append(fld.time_tag)])
        assert times == [0.0]
        t_blow = float(str(err.value).rsplit("= ", 1)[1])
        assert 0.0 < t_blow < 0.05

    def test_initial_datum_checked(self, g1, gaussian):
        bad = SpectralField(g1, gaussian.coefficients)
        bad._samples = np.full(g1.shape, np.nan + 0j)
        seen = []
        with pytest.raises(BlowUpError, match=r"at t = 0$"):
            evolve(bad, PhysicsParams(2.0, 1), StepControl(dt=1e-3, t_end=1e-3),
                   sinks=[lambda fld, flag: seen.append(fld)])
        assert seen == []


class TestCubeWindowsOncePerSample:
    def test_guard_and_cube_sup_share_one_window_pass(self, g1, gaussian, monkeypatch):
        from nlslab import field
        from nlslab.morawetz import MorawetzRecorder
        original = field._cube_window_sums
        calls = []

        def counted(fld, r_side):
            calls.append(fld.time_tag)
            return original(fld, r_side)
        monkeypatch.setattr(field, "_cube_window_sums", counted)
        physics = PhysicsParams(3.0, 1)
        rec, snaps = MorawetzRecorder(physics), []
        evolve(gaussian, physics, StepControl(dt=1e-3, t_end=4e-3, sample_every=2),
               sinks=[rec, lambda fld, flag: snaps.append(fld)], guard_tol=1e-3)
        assert calls == pytest.approx([0.0, 2e-3, 4e-3])
        fresh = SpectralField.from_samples(g1, snaps[-1].samples())
        assert rec.samples[-1].cube_sup == original(fresh, 1.0)[0].max()
