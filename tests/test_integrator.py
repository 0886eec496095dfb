import math
import os

import numpy as np
import pytest
from scipy import fft as sfft

from conftest import _CountedFFT
from nlslab.field import (
    Grid,
    SpectralField,
    _linear_phase,
    edge_cube_fraction,
    fft_workers,
    free_evolve,
    from_profile,
    lebesgue_norm,
    y_independent,
)
from nlslab.integrator import (
    BlowUpError,
    PhysicsParams,
    StepControl,
    _advance,
    _nonlinear_kick,
    energy,
    evolve,
    mass,
    soliton_profile,
)


@pytest.fixture
def g1():
    return Grid(1, 40.0, 256, 16)


@pytest.fixture
def gaussian(g1):
    return from_profile(g1, lambda x, y: 1.5 * np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)))


# y-independent data with some momentum
def _x_profile_1d(x, y):
    return 1.5 * np.exp(-x ** 2) * (1 + 0.2j * np.sin(x)) + 0.0 * y


def _x_profile_2d(x1, x2, y):
    return np.exp(-(x1 ** 2 + x2 ** 2)) * (1 + 0.2j * np.cos(x1 - x2)) + 0.0 * y


class TestParams:
    def test_physics_validation(self):
        with pytest.raises(ValueError):
            PhysicsParams(0.0, 1)
        with pytest.raises(ValueError):
            PhysicsParams(2.0, 2)
        with pytest.raises(ValueError):
            PhysicsParams(2.0, 0)

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
            evolve(gaussian, PhysicsParams(2.0, 1), StepControl(dt=0.1, t_end=0.1))


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


def test_transforms_per_y_independent_run(g1, monkeypatch):
    # the steps run on one y column and each snapshot is built from the
    # column's x transform, so no transform touches the full grid
    from nlslab import field, integrator
    datum = from_profile(g1, _x_profile_1d)
    fake = _CountedFFT(g1.ntot)
    monkeypatch.setattr(field, "sfft", fake)
    monkeypatch.setattr(integrator, "sfft", fake)
    seen = []
    evolve(datum, PhysicsParams(3.0, 1),
           StepControl(dt=1e-3, t_end=7e-3, sample_every=3),
           sinks=[lambda f, flag: seen.append(f)], guard_tol=1e-3)
    assert len(seen) == 4
    assert fake.calls == 0


@pytest.mark.parametrize("grid, profile, axes", [
    (Grid(1, 40.0, 256, 16), _x_profile_1d, [1]),
    (Grid(2, 16.0, 32, 8), _x_profile_2d, [1, 2]),
    (Grid(1, 40.0, 256, 16),
     lambda x, y: np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)), [1, 0]),
    (Grid(2, 16.0, 32, 8),
     lambda x1, x2, y: np.exp(-x1 ** 2 - x2 ** 2) * (1 + 0.3 * np.cos(y)), [1, 2, 0]),
])
def test_step_transform_axes(grid, profile, axes, monkeypatch):
    # the state is y-first, (Ny, Nx...): a y column, (1, Nx...), is
    # transformed along x only, a y-dependent state along x and then y
    from nlslab import integrator
    fake = _CountedFFT(grid.ntot)
    monkeypatch.setattr(integrator, "sfft", fake)
    evolve(from_profile(grid, profile), PhysicsParams(3.0, 1),
           StepControl(dt=1e-3, t_end=5e-3, sample_every=2))
    shape = ((1 if len(axes) == grid.d else grid.Ny),) + grid.shape[:-1]
    assert fake.log == [(name, shape, axes) for _ in range(5)
                        for name in ("fftn", "ifftn")]


class TestStrangStep:
    def test_zero_field(self, g1):
        f = from_profile(g1, lambda x, y: 0.0 * x)
        out = evolve(f, PhysicsParams(2.0, 1), StepControl(1e-3, 1e-3))
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
            evolve(bad, PhysicsParams(2.0, -1), StepControl(1e-3, 1e-3))


class TestEvolve:
    def test_lambda_zero_matches_free_flow(self, monkeypatch, g1, gaussian):
        # the kick replaced by the identity: the step is the linear flow alone
        from nlslab import integrator
        monkeypatch.setattr(integrator, "_nonlinear_kick", lambda v, physics, h: v)
        out = evolve(gaussian, PhysicsParams(2.0, 1),
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
        out = evolve(sol, PhysicsParams(2.0, -1), StepControl(dt, dt))
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
            cube_sup_mass(f) / mass(f), rel=1e-12)


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
        evolve(gaussian, physics, StepControl(1e-3, 1e-3))
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
        returned = []

        def recorded(fld):
            returned.append((fld.time_tag, original(fld)))
            return returned[-1][1]
        monkeypatch.setattr(field, "_cube_window_sums", recorded)
        physics = PhysicsParams(3.0, 1)
        rec, snaps = MorawetzRecorder(physics), []
        evolve(gaussian, physics, StepControl(dt=1e-3, t_end=4e-3, sample_every=2),
               sinks=[rec, lambda fld, flag: snaps.append(fld)], guard_tol=1e-3)
        # a window pass makes a new (windows, m); a cache read returns the same one
        calls = [t for i, (t, w) in enumerate(returned)
                 if all(w is not v for _, v in returned[:i])]
        assert len(returned) == 6  # the guard and the recorder, per snapshot
        assert calls == pytest.approx([0.0, 2e-3, 4e-3])
        fresh = SpectralField.from_samples(g1, snaps[-1].samples())
        assert rec.samples[-1].cube_sup == original(fresh)[0].max()


def full_width_run(initial, physics, control):
    """evolve's snapshots from an x-first Strang loop on the full grid.

    The oracle of the y-first stepping: its state keeps the grid's
    (x..., y) layout, each step transforms every axis in order, x then y,
    and a blow-up is reported as evolve reports it.  Only the kick is the
    program's: it is elementwise, and TestThreadedKick guards its bits.
    """
    g, dt, t0 = initial.grid, control.dt, initial.time_tag
    phase, v = _linear_phase(g, dt), initial.samples().copy()
    axes, workers = list(range(g.d + 1)), fft_workers()
    snaps = [initial]
    for start in range(0, control.n_steps, control.sample_every):
        n, t = min(control.sample_every, control.n_steps - start), t0 + start * dt
        h = dt / 2.0
        for k in range(1, n + 1):
            v = _nonlinear_kick(v, physics, h)
            v = sfft.fftn(v, axes=axes, workers=workers, overwrite_x=True)
            v *= phase
            v = sfft.ifftn(v, axes=axes, workers=workers, overwrite_x=True)
            if not np.isfinite(v.flat[0]):
                raise BlowUpError(f"non-finite state at t = {t + k * dt:.6g}")
            h = dt
        v = _nonlinear_kick(v, physics, dt / 2.0)
        if not np.all(np.isfinite(v)):
            raise BlowUpError(f"non-finite state at t = {t + n * dt:.6g}")
        snaps.append(SpectralField.from_samples(g, v.copy(), t0 + (start + n) * dt))
    return snaps


def _spy_advance(monkeypatch):
    """Record the state shape of every _advance call evolve makes."""
    from nlslab import integrator
    shapes = []

    def spy(v, *args):
        shapes.append(v.shape)
        return _advance(v, *args)
    monkeypatch.setattr(integrator, "_advance", spy)
    return shapes


class TestYIndependentRuns:
    """A y-independent datum is stepped on one y column, bit for bit."""

    @pytest.mark.parametrize("grid, profile, alpha, lam, dt, every", [
        (Grid(1, 40.0, 256, 16), _x_profile_1d, 2.0, 1, 1e-2, 1),
        (Grid(1, 40.0, 256, 16), _x_profile_1d, 3.0, -1, 1e-2, 3),
        (Grid(1, 40.0, 256, 16), _x_profile_1d, 4.0 / 3.0, 1, 1e-2, 7),
        (Grid(1, 40.0, 256, 16), _x_profile_1d, 3.0, 1, -1e-2, 3),
        (Grid(2, 16.0, 32, 8), _x_profile_2d, 3.0, 1, 1e-2, 3),
        (Grid(2, 16.0, 32, 8), _x_profile_2d, 4.0 / 3.0, -1, 1e-2, 1),
        (Grid(2, 16.0, 32, 8), _x_profile_2d, 2.0, -1, 1e-2, 7),
        (Grid(1, 200.0, 4096, 32), _x_profile_1d, 5.0, 1, 1e-3, 3),  # decay-1d
    ])
    def test_snapshots_equal_the_full_width_run(self, monkeypatch, grid, profile,
                                                alpha, lam, dt, every):
        f = from_profile(grid, profile)
        physics = PhysicsParams(alpha, lam)
        control = StepControl(dt=dt, t_end=7 * dt, sample_every=every)
        expect = full_width_run(f, physics, control)
        shapes = _spy_advance(monkeypatch)
        seen = []
        out = evolve(f, physics, control, sinks=[lambda fld, flag: seen.append(fld)])
        assert set(shapes) == {(1,) + grid.shape[:-1]}
        assert len(seen) == len(expect)
        for snap, ref in zip(seen, expect):
            assert snap.time_tag == ref.time_tag
            assert np.array_equal(snap.samples(), ref.samples())
            assert np.array_equal(snap.coefficients, ref.coefficients)
        assert out is seen[-1]

    def test_one_ulp_off_takes_the_full_path(self, g1, monkeypatch):
        u = from_profile(g1, _x_profile_1d).samples().copy()
        u[100, 5] = np.nextafter(u[100, 5].real, np.inf) + 1j * u[100, 5].imag
        f = SpectralField.from_samples(g1, u)
        assert not y_independent(f)
        shapes = _spy_advance(monkeypatch)
        evolve(f, PhysicsParams(3.0, 1), StepControl(dt=1e-2, t_end=2e-2))
        assert shapes == [(g1.Ny,) + g1.shape[:-1]] * 2

    def test_blowup_reported_at_its_step(self, g1):
        # the peak of the y-modulated blow-up datum above, constant in y
        f = from_profile(g1, lambda x, y: 3.64e61 * np.exp(-x ** 2) + 0.0 * y)
        assert y_independent(f)
        physics = PhysicsParams(5.0, -1)
        control = StepControl(dt=1e-3, t_end=0.1, sample_every=50)
        times = []
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as err:
            evolve(f, physics, control,
                   sinks=[lambda fld, flag: times.append(fld.time_tag)])
        assert times == [0.0]
        t_blow = float(str(err.value).rsplit("= ", 1)[1])
        assert 0.0 < t_blow < 0.05
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as full:
            full_width_run(f, physics, control)
        assert str(err.value) == str(full.value)

    def test_caller_field_untouched(self, g1):
        f = from_profile(g1, _x_profile_1d)
        samples, coefficients = f.samples().copy(), f.coefficients.copy()
        evolve(f, PhysicsParams(3.0, 1), StepControl(dt=1e-3, t_end=5e-3, sample_every=2))
        assert np.array_equal(f.samples(), samples)
        assert np.array_equal(f.coefficients, coefficients)


def _y_profile_1d(x, y):
    return 1.5 * np.exp(-x ** 2) * (1 + 0.2j * np.sin(x)) * (1 + 0.3 * np.cos(y))


def _y_profile_2d(x1, x2, y):
    return (np.exp(-(x1 ** 2 + x2 ** 2)) * (1 + 0.2j * np.cos(x1 - x2))
            * (1 + 0.3 * np.cos(y)))


class TestYFirstRuns:
    """A y-dependent state is stepped y-first, bit for bit the x-first run."""

    @pytest.mark.parametrize("threads", [None, "1"], ids=["all-cores", "1-thread"])
    @pytest.mark.parametrize("grid, profile, alpha, lam, dt, every", [
        (Grid(1, 40.0, 256, 16), _y_profile_1d, 3.0, 1, 1e-2, 3),
        (Grid(1, 40.0, 256, 16), _y_profile_1d, 4.0 / 3.0, -1, -1e-2, 1),
        (Grid(1, 1024.0, 16384, 16), _y_profile_1d, 5.0, 1, 2e-3, 3),  # scattering
        (Grid(2, 16.0, 32, 8), _y_profile_2d, 3.0, 1, 1e-2, 7),
        (Grid(2, 16.0, 64, 16), _y_profile_2d, 2.0, -1, 1e-2, 3),
    ])
    def test_snapshots_equal_the_x_first_run(self, monkeypatch, threads, grid,
                                              profile, alpha, lam, dt, every):
        if threads is None:
            monkeypatch.delenv("NLSLAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("NLSLAB_THREADS", threads)
        f = from_profile(grid, profile)
        physics = PhysicsParams(alpha, lam)
        control = StepControl(dt=dt, t_end=7 * dt, sample_every=every)
        expect = [(s.time_tag, s.samples().tobytes(), s.coefficients.tobytes())
                  for s in full_width_run(f, physics, control)]
        shapes = _spy_advance(monkeypatch)
        assert _snapshot_bytes(f, physics, control) == expect
        assert set(shapes) == {(grid.Ny,) + grid.shape[:-1]}


def _spread_state(shape, seed):
    """A seeded state with |u| of order one at every entry."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _spy_split(monkeypatch):
    """Record the thread count of every split kick."""
    from nlslab import integrator
    split, counts = integrator._split_kick, []

    def spy(v, power, angle, threads):
        counts.append(threads)
        return split(v, power, angle, threads)
    monkeypatch.setattr(integrator, "_split_kick", spy)
    return counts


def _snapshot_bytes(initial, physics, control):
    seen = []
    evolve(initial, physics, control, sinks=[
        lambda fld, flag: seen.append((fld.time_tag, fld.samples().tobytes(),
                                       fld.coefficients.tobytes()))])
    return seen


class TestThreadedKick:
    """The kick split into blocks of entries is bitwise the one-thread kick.

    That is a property of numpy's elementwise loops on the build at hand
    (their SIMD bodies and tails must agree), not a law; these tests guard it.
    """

    @pytest.mark.parametrize("shape, threads", [
        ((16384, 16), 2),       # the scattering grid: edge at entry 131072
        ((64, 64, 16), 3),      # d = 2: edges at entries 21845 and 43690
        ((2 * 16385, 3), 2),    # edge at entry 49155: odd
        ((3 * 7919, 5), 3),     # edges at entries 39595 and 79190
    ])
    @pytest.mark.parametrize("alpha, lam", [(5.0, 1), (4.0 / 3.0, -1)])
    def test_split_equals_one_thread(self, monkeypatch, shape, threads, alpha, lam):
        from nlslab import integrator
        v = _spread_state(shape, 7)
        assert v.size >= integrator.KICK_SPLIT_MIN
        physics = PhysicsParams(alpha, lam)
        monkeypatch.setenv("NLSLAB_THREADS", "1")
        one = integrator._nonlinear_kick(v.copy(), physics, 0.37)
        monkeypatch.setattr(integrator, "fft_workers", lambda: threads)
        counts = _spy_split(monkeypatch)
        split = integrator._nonlinear_kick(v.copy(), physics, 0.37)
        assert counts == [threads]
        assert split.tobytes() == one.tobytes()

    def test_small_state_stays_on_one_thread(self, monkeypatch):
        from nlslab import integrator
        monkeypatch.setattr(integrator, "fft_workers", lambda: 2)
        counts = _spy_split(monkeypatch)
        v = _spread_state((integrator.KICK_SPLIT_MIN // 16 - 1, 16), 8)
        integrator._nonlinear_kick(v, PhysicsParams(5.0, 1), 0.1)
        assert counts == []

    @pytest.mark.parametrize("threads", [None, 3], ids=["all-cores", "3-threads"])
    @pytest.mark.parametrize("grid, alpha, y_modulation", [
        (Grid(1, 1024.0, 16384, 16), 5.0, 0.3),   # the scattering preset's grid
        (Grid(2, 16.0, 64, 16), 3.0, 0.3),
        (Grid(2, 16.0, 256, 4), 3.0, 0.0),        # a (1, 256, 256) y column
    ], ids=["scattering-grid", "d2", "d2-column"])
    def test_runs_equal_the_one_thread_run(self, monkeypatch, grid, alpha,
                                           y_modulation, threads):
        # NLSLAB_THREADS unset against 1; three threads put the block edges
        # at odd entries (87381 of 262144, 21845 of 65536).  The scattering
        # datum shape: after a step every entry is nonzero.  A y column's
        # state has one row, and is split all the same
        from nlslab import integrator
        if threads is None and (os.cpu_count() or 1) < 2:
            pytest.skip("one core: no kick is split")
        if grid.d == 1:
            f = from_profile(grid, lambda x, y: 0.6 * np.exp(-(x / 0.8) ** 2)
                             * (1 + y_modulation * np.cos(y)))
        else:
            f = from_profile(grid, lambda x1, x2, y: 0.8 * np.exp(
                -(x1 ** 2 + x2 ** 2) / 1.5 ** 2) * (1 + y_modulation * np.cos(y)))
        assert y_independent(f) == (y_modulation == 0)
        physics, control = PhysicsParams(alpha, 1), StepControl(2e-3, 8e-3, 3)
        monkeypatch.setenv("NLSLAB_THREADS", "1")
        one = _snapshot_bytes(f, physics, control)
        monkeypatch.delenv("NLSLAB_THREADS")
        if threads is not None:
            monkeypatch.setattr(integrator, "fft_workers", lambda: threads)
        counts = _spy_split(monkeypatch)
        threaded = _snapshot_bytes(f, physics, control)
        # chunks of 3 steps and 1 step, each with n + 1 kicks
        assert counts == [threads or os.cpu_count()] * 6
        assert len(threaded) == 3 and threaded == one

    def test_column_run_stays_on_one_thread(self, monkeypatch):
        # decay-1d's grid: a y-independent datum steps a 4096 x 1 column
        from nlslab import integrator
        grid = Grid(1, 200.0, 4096, 32)
        f = from_profile(grid, _x_profile_1d)
        physics, control = PhysicsParams(5.0, 1), StepControl(1e-3, 6e-3, 3)
        monkeypatch.setenv("NLSLAB_THREADS", "1")
        one = _snapshot_bytes(f, physics, control)
        monkeypatch.setattr(integrator, "fft_workers", lambda: 2)
        monkeypatch.delenv("NLSLAB_THREADS")
        counts = _spy_split(monkeypatch)
        assert _snapshot_bytes(f, physics, control) == one
        assert counts == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_kicks_on_its_own_pool(self):
        # a child forked after a split kick has none of the pool's threads; a
        # split kick there must not wait on them
        import time
        from nlslab import integrator
        v = _spread_state((8192, 16), 9)
        integrator._split_kick(v, 2.5, 0.1, 2)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            status = 1
            try:
                integrator._split_kick(v, 2.5, 0.1, 2)
                status = 0
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the child's split kick did not return")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_blowup_under_errstate(self, monkeypatch):
        # the workers run under the caller's np.errstate: overflow in a block
        # stays silent and the run reports the blow-up at its step
        from nlslab import integrator
        import warnings
        monkeypatch.setattr(integrator, "fft_workers", lambda: 2)
        counts = _spy_split(monkeypatch)
        g = Grid(1, 400.0, 4096, 16)
        f = from_profile(g, lambda x, y: 2.8e61 * np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"), pytest.raises(BlowUpError):
                evolve(f, PhysicsParams(5.0, -1), StepControl(1e-3, 0.1, 50))
        assert counts and set(counts) == {2}


@pytest.mark.parametrize("workers", [1, -1], ids=["1-worker", "all-cores"])
@pytest.mark.parametrize("shape", [(16384, 16), (64, 64, 16), (45, 7)],
                         ids=["scattering-grid", "d2", "odd-sized"])
@pytest.mark.parametrize("transform", ["fftn", "ifftn"])
def test_y_first_transform_is_the_x_first_one(transform, shape, workers):
    """The transform of an x-first array over its axes in order, x then y,
    is byte for byte that of its y-first copy over the x axes and then y,
    moved back.

    evolve's y-first stepping rests on this: each line goes through the same
    1-D transform whatever its stride, as long as the axes come in the same
    order.  That is a property of pocketfft on the build at hand, not a law;
    this test guards it, with one worker and with all cores (the program's
    default, NLSLAB_THREADS unset).
    """
    u = _spread_state(shape, 11)
    d = u.ndim - 1
    fn = getattr(sfft, transform)
    x_first = fn(u, axes=list(range(d + 1)), workers=workers)
    y_first = fn(np.moveaxis(u, -1, 0).copy(), axes=[*range(1, d + 1), 0],
                 workers=workers)
    assert np.moveaxis(y_first, 0, -1).tobytes() == x_first.tobytes()
