import json

import numpy as np
import pytest
from fractions import Fraction as F

from nlslab.exponents import (
    ProblemParams,
    auxiliary_pair,
    critical_tuple,
    theta_tuple,
)
from nlslab.field import (Grid, SpectralField, densities, from_profile, free_evolve,
                          lebesgue_norm, mixed_norm, sobolev_h1)
from nlslab.integrator import PhysicsParams, StepControl, evolve, soliton_profile
from nlslab.scattering import (
    SpacetimeAccumulators,
    cauchy_table,
    cauchy_tail_decreasing,
    cauchy_tail_maxima,
    decay_series,
    geometric_sample_times,
    make_scatter_report,
    pullback,
    strictly_decreasing,
)


@pytest.fixture
def g1():
    return Grid(1, 100.0, 1024, 8)


@pytest.fixture
def gaussian(g1):
    return from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0 * y)


def segments(initial, physics, times, dt):
    """Evolve through the given times, returning the snapshot at each."""
    snaps = []
    fld, t_prev = initial, initial.time_tag
    for t in times:
        fld = evolve(fld, physics, StepControl(dt=dt, t_end=round(t - t_prev, 12)))
        snaps.append(fld)
        t_prev = t
    return snaps


class TestPullback:
    def test_identity_at_time_zero(self, gaussian):
        w = pullback(gaussian)
        assert np.array_equal(w.coefficients, gaussian.coefficients)

    def test_free_trajectory_constant(self, gaussian):
        for t in (0.5, 2.0, 7.0):
            w = pullback(free_evolve(gaussian, t))
            assert np.abs(w.coefficients - gaussian.coefficients).max() < 1e-12

    def test_h1_isometry(self, gaussian, g1):
        out = evolve(gaussian, PhysicsParams(5.0, 1),
                     StepControl(dt=1e-3, t_end=0.5))
        assert sobolev_h1(pullback(out)) == pytest.approx(sobolev_h1(out),
                                                          rel=1e-12)


class TestCauchyTable:
    def test_free_trajectory_all_zero(self, gaussian):
        snaps = [free_evolve(gaussian, t) for t in (0.5, 1.0, 2.0)]
        C = cauchy_table(snaps)
        assert C.max() < 1e-12

    def test_symmetry_zero_diagonal(self, gaussian):
        out1 = evolve(gaussian, PhysicsParams(5.0, 1),
                      StepControl(dt=1e-3, t_end=0.2))
        out2 = evolve(out1, PhysicsParams(5.0, 1),
                      StepControl(dt=1e-3, t_end=0.2))
        C = cauchy_table([gaussian, out1, out2])
        assert np.array_equal(C, C.T)
        assert np.all(np.diag(C) == 0.0)

    def test_needs_three_increasing(self, gaussian):
        with pytest.raises(ValueError):
            cauchy_table([gaussian, free_evolve(gaussian, 1.0)])
        with pytest.raises(ValueError):
            cauchy_table([free_evolve(gaussian, 1.0), gaussian,
                          free_evolve(gaussian, 2.0)])

    def test_soliton_tail_not_decreasing(self):
        g = Grid(1, 80.0, 1024, 4)
        sol = soliton_profile(g, 1.0)
        times = geometric_sample_times(0.5, 6.0, 1e-3)
        snaps = segments(sol, PhysicsParams(2.0, -1), times, 1e-3)
        C = cauchy_table(snaps)
        assert not cauchy_tail_decreasing(C)
        # pull-back differences stay at the size of the state itself
        assert cauchy_tail_maxima(C)[-1] > 1.0

    @staticmethod
    def pairwise_oracle(snapshots):
        """The table as every pull-back held at once and one new difference
        field and weight per pair."""
        ws = [free_evolve(f, -f.time_tag) for f in snapshots]
        m = len(ws)
        C = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                g = ws[i].grid
                diff = ws[i].coefficients - ws[j].coefficients
                C[i, j] = C[j, i] = float(np.sqrt(g.measure * np.sum(
                    (1.0 + g.laplace_symbol()) * np.abs(diff) ** 2)))
        return C

    @pytest.mark.parametrize("grid, profile", [
        (Grid(1, 40.0, 256, 16),
         lambda x, y: np.exp(-x ** 2 + 0.4j * x) * (1 + 0.3 * np.cos(y))),
        (Grid(2, 16.0, 32, 8),
         lambda x1, x2, y: np.exp(-x1 ** 2 - x2 ** 2) * (1 + 0.3j * np.sin(y))),
    ])
    def test_equals_the_pairwise_formula_bitwise(self, grid, profile):
        times = [0.02, 0.05, 0.09, 0.14, 0.2]
        snaps = segments(from_profile(grid, profile), PhysicsParams(3.0, 1), times, 1e-2)
        C = cauchy_table(snaps)
        assert C.tobytes() == self.pairwise_oracle(snaps).tobytes()
        assert C.min() == 0.0 and C.max() > 0.0

    def test_memory_does_not_grow_with_the_snapshots(self):
        import tracemalloc
        g = Grid(1, 40.0, 256, 16)  # 64 KiB per complex array
        f = from_profile(g, lambda x, y: np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)))
        snaps = [SpectralField(g, f.coefficients * np.exp(0.1j * k), 0.1 * k)
                 for k in range(1, 9)]
        peaks = {}
        tracemalloc.start()
        try:
            for m in (3, 8):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                cauchy_table(snaps[:m])
                peaks[m] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the C matrix and the time list grow by about 500 bytes
        assert peaks[8] - peaks[3] < 4096, peaks
        assert peaks[3] < 6 * f.coefficients.nbytes, peaks


def lq_series(snaps, q_list):
    """Each L^q norm series of the snapshots, as the records hold it."""
    return {q: [lebesgue_norm(f, q) for f in snaps] for q in q_list}


def series_of(snaps, q_list):
    return decay_series([f.time_tag for f in snaps], snaps[0].grid.d,
                        lq_series(snaps, q_list))


class TestDecaySeries:
    def test_free_gaussian_matches_closed_form(self, gaussian):
        # |u(t,x)| = (1+16t^2)^{-1/4} exp(-x^2/(1+16t^2)) for e^{-x^2} datum
        times = [0.5, 1.0, 2.0, 4.0]
        snaps = [free_evolve(gaussian, t) for t in times]
        ds = series_of(snaps, [4.0])
        t = np.array(times)
        exact = ((np.pi / 4) ** 0.125 * (1 + 16 * t ** 2) ** (-1 / 8)
                 * (2 * np.pi) ** 0.25)
        assert np.allclose(ds[4.0].values, exact, rtol=1e-6)
        assert ds[4.0].monotone_tail
        assert not ds[4.0].outside_range

    def test_soliton_constant_series(self):
        g = Grid(1, 80.0, 1024, 4)
        sol = soliton_profile(g, 1.0)
        times = [1.0, 2.0, 3.0]
        snaps = segments(sol, PhysicsParams(2.0, -1), times, 1e-3)
        ds = series_of(snaps, [4.0, np.inf])
        for q in (4.0, np.inf):
            vals = np.array(ds[q].values)
            assert vals.max() / vals.min() - 1 < 1e-3

    def test_out_of_range_flagged(self, gaussian):
        snaps = [free_evolve(gaussian, t) for t in (0.5, 1.0)]
        with pytest.warns(RuntimeWarning):
            ds = series_of(snaps, [1.5])
        assert ds[1.5].outside_range

    def test_d2_range_boundary(self):
        g = Grid(2, 20.0, 16, 4)
        f = from_profile(g, lambda x1, x2, y: np.exp(-x1 ** 2 - x2 ** 2) + 0 * y)
        snaps = [free_evolve(f, t) for t in (0.5, 1.0)]
        ds = series_of(snaps, [4.0])  # within (2, 6] for d=2
        assert not ds[4.0].outside_range
        with pytest.warns(RuntimeWarning):
            ds = series_of(snaps, [8.0])
        assert ds[8.0].outside_range

    def test_times_must_increase_and_match_the_series(self):
        with pytest.raises(ValueError, match="at least 2"):
            decay_series([1.0], 1, {4.0: [1.0]})
        with pytest.raises(ValueError, match="strictly increasing"):
            decay_series([1.0, 0.5, 2.0], 1, {4.0: [3.0, 2.0, 1.0]})
        with pytest.raises(ValueError, match="strictly increasing"):
            decay_series([1.0, 1.0], 1, {4.0: [2.0, 1.0]})
        with pytest.raises(ValueError, match="2 values for 3 times"):
            decay_series([0.5, 1.0, 2.0], 1, {4.0: [2.0, 1.0]})

    def test_zero_series_ratio(self):
        # a series that is 0 throughout (a zero datum) has ratio 0.0, as a
        # saturation with a peak of 0 does
        ds = decay_series([0.5, 1.0, 2.0], 1, {4.0: [0.0, 0.0, 0.0]})
        assert ds[4.0].ratio_last_to_max == 0.0
        assert ds[4.0].monotone_tail


class TestStrictlyDecreasing:
    @pytest.mark.parametrize("values, expect", [
        ([], False),
        ([1.0], False),  # one value shows no decrease, as settled_tail rules
        ([2.0, 1.0], True),
        ([2.0, 2.0], False),
        ([3.0, 2.0, float("nan")], False),
    ])
    def test_needs_two_values(self, values, expect):
        assert strictly_decreasing(values) is expect


def feed(acc, t, f):
    """One accumulator update with the sample's density pass."""
    return acc.update(t, f, densities(f, float(acc.params.alpha)))


class TestSpacetimeAccumulators:
    @pytest.fixture
    def tuples(self):
        params = ProblemParams(1, F(5))
        base, _ = critical_tuple(params, r=8)
        theta, _ = theta_tuple(base, params, F(9, 10))
        aux, _ = auxiliary_pair(params, base)
        return params, base, theta, aux

    def test_zero_stream(self, g1, tuples):
        params, base, theta, aux = tuples
        acc = SpacetimeAccumulators(params, base, theta, aux)
        zero = from_profile(g1, lambda x, y: 0.0 * x)
        for t in (0.0, 0.1, 0.2):
            totals = feed(acc, t, zero)
        assert all(v == 0.0 for v in totals.values())

    def test_single_increment_quadrature(self, g1, tuples):
        params, base, theta, aux = tuples
        acc = SpacetimeAccumulators(params, base, theta, aux)
        f = from_profile(g1, lambda x, y: np.exp(1j * y) + 0 * x)
        feed(acc, 0.0, f)
        feed(acc, 0.1, f)
        q_th, r_th = float(theta.q_theta), float(theta.r_theta)
        expect = 0.1 * mixed_norm(f, r_th, 0.5 + 1 / 20) ** q_th
        assert acc.totals["theta_norm"] == pytest.approx(expect, rel=1e-12)

    def test_saturation_last_over_peak(self, g1, tuples):
        params, base, theta, aux = tuples
        acc = SpacetimeAccumulators(params, base, theta, aux)
        assert acc.saturation() == {k: 0.0 for k in acc.totals}
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)))
        incs = {k: [] for k in acc.totals}
        before = dict(acc.totals)
        for t, amp in ((0.0, 1.0), (0.1, 2.0), (0.3, 1.5), (0.35, 0.5)):
            fa = SpectralField(g1, amp * f.coefficients, t)
            totals = feed(acc, t, fa)
            if t > 0.0:
                for k in incs:
                    incs[k].append(totals[k] - before[k])
            before = dict(totals)
        sat = acc.saturation()
        assert list(sat) == list(acc.totals)
        for k, series in incs.items():
            assert sat[k] == pytest.approx(series[-1] / max(series), rel=1e-12)
            assert 0.0 < sat[k] < 1.0

    def test_saturation_edge_cases(self, g1, tuples):
        # a zero peak (an identically zero integrand) gives 0.0; a non-finite
        # first or last increment gives NaN
        params, base, theta, aux = tuples
        acc = SpacetimeAccumulators(params, base, theta, aux)
        zero = from_profile(g1, lambda x, y: 0.0 * x)
        for t in (0.0, 0.1, 0.2):
            feed(acc, t, zero)
        assert acc.saturation() == {k: 0.0 for k in acc.totals}
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) + 0 * y)
        for bad in (np.nan, np.inf, -np.inf):
            for at in (0, 3):
                acc = SpacetimeAccumulators(params, base, theta, aux)
                with np.errstate(all="ignore"):
                    for k, t in enumerate((0.0, 0.1, 0.2, 0.3)):
                        fa = SpectralField(g1, (bad if k == at else 1.0)
                                           * f.coefficients, t)
                        feed(acc, t, fa)
                sat = acc.saturation()
                assert all(np.isnan(v) for v in sat.values()), (bad, at, sat)

    def test_u_and_dy_norms_match_mixed_norm(self, g1, tuples):
        # the y-derivative norm against mixed_norm of d_y u built as a field
        params, base, theta, aux = tuples
        acc = SpacetimeAccumulators(params, base, theta, aux)
        f = from_profile(g1, lambda x, y: np.exp(-x ** 2) * (1 + 0.5 * np.exp(2j * y))
                         + 0.3 * np.exp(-(x - 2) ** 2 - 1j * y))
        dy = SpectralField(g1, f.coefficients * (1j * g1.n_grid()))
        feed(acc, 0.0, f)
        feed(acc, 0.1, f)
        p, ell = float(aux.p), float(aux.l)
        assert acc.totals["u_lp"] == pytest.approx(0.1 * mixed_norm(f, p, 0.0) ** ell,
                                                   rel=1e-12)
        assert acc.totals["dy_lp"] == pytest.approx(0.1 * mixed_norm(dy, p, 0.0) ** ell,
                                                    rel=1e-12)
        assert acc.totals["dy_lp"] > 0.0

    def test_grad_norm_plane_wave(self, g1, tuples):
        # |d_x u| = |A xi0| everywhere: ||grad_x u||_{L^p_x L^2_y} = L^{1/p} sqrt(2 pi) |A xi0|
        params, base, theta, aux = tuples
        acc = SpacetimeAccumulators(params, base, theta, aux)
        A, xi0 = 0.7, 2 * np.pi * 3 / g1.L
        f = from_profile(g1, lambda x, y: A * np.exp(1j * xi0 * x) + 0 * y)
        feed(acc, 0.0, f)
        feed(acc, 0.1, f)
        p, ell = float(aux.p), float(aux.l)
        norm = g1.L ** (1 / p) * np.sqrt(2 * np.pi) * A * xi0
        assert acc.totals["grad_lp"] == pytest.approx(0.1 * norm ** ell, rel=1e-12)

    def test_grad_norm_d2_matches_numpy_derivative(self):
        from nlslab.exponents import max_feasible_theta
        params = ProblemParams(2, F(3))
        base, _ = critical_tuple(params)
        theta, _ = max_feasible_theta(base, params, F(1, 100))
        aux, _ = auxiliary_pair(params, base)
        acc = SpacetimeAccumulators(params, base, theta, aux)
        g = Grid(2, 16.0, 32, 4)
        f = from_profile(g, lambda x1, x2, y: np.exp(-(x1 ** 2 + 2 * x2 ** 2) / 4)
                         * np.exp(0.7j * x1 - 0.4j * x2) * (1 + 0.3 * np.cos(y)))
        feed(acc, 0.0, f)
        feed(acc, 0.1, f)
        u = f.samples()
        k = 2 * np.pi * np.fft.fftfreq(g.Nx, d=g.dx)
        h_sq = 0.0
        for ax, shape in ((0, (-1, 1, 1)), (1, (1, -1, 1))):
            du = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(u, axis=ax), axis=ax)
            h_sq = h_sq + np.sum(np.abs(du) ** 2, axis=-1) * g.dy
        p, ell = float(aux.p), float(aux.l)
        norm = (np.sum(h_sq ** (p / 2)) * g.dx ** 2) ** (1 / p)
        assert norm > 0.0
        assert acc.totals["grad_lp"] == pytest.approx(0.1 * norm ** ell, rel=1e-12)

    def test_delta_constraint_enforced(self):
        # the theta norm's y-regularity 1/2 + delta comes from the base tuple's
        # s = d/2 - 2/alpha: delta > 0 and 1/2 + delta + s <= 1 by construction
        from nlslab.exponents import max_feasible_theta
        for d, alpha, delta in [
            (1, F(5), F(1, 20)),
            (1, F(9, 2), F(1, 20)),
            (2, F(3), F(1, 20)),
            (2, F(40, 11), F(1, 20)),  # s = 9/20: 1/2 + delta + s = 1 exactly
            (2, F(15, 4), F(1, 30)),   # s = 7/15
            (2, F(39, 10), F(1, 78)),  # s = 19/39, near the energy-critical 4
        ]:
            params = ProblemParams(d, alpha)
            base, _ = critical_tuple(params)
            theta, _ = max_feasible_theta(base, params, F(1, 100))
            aux, _ = auxiliary_pair(params, base)
            acc = SpacetimeAccumulators(params, base, theta, aux)
            assert base.s == F(d, 2) - 2 / alpha
            assert acc.delta == delta, (d, alpha)
            assert acc.delta > 0 and F(1, 2) + acc.delta + base.s <= 1

    def test_infeasible_tuple_rejected(self, tuples):
        params, base, _, aux = tuples
        bad, report = theta_tuple(base, params, F(1, 1000))
        assert not report.feasible
        with pytest.raises(ValueError):
            SpacetimeAccumulators(params, base, bad, aux)


class TestReport:
    def test_json_roundtrip(self, gaussian):
        snaps = [free_evolve(gaussian, t) for t in (0.5, 1.0, 2.0, 4.0)]
        lq = lq_series(snaps, [4.0])
        blob = json.loads(make_scatter_report(snaps, lq).to_json())
        assert blob["times"] == [0.5, 1.0, 2.0, 4.0]
        assert blob["decay"]["4.0"]["values"] == lq[4.0]
        assert len(blob["cauchy_matrix"]) == 16
        assert blob["decay"]["4.0"]["monotone_tail"] is True
        assert blob["flags"]["cauchy_tail_decreasing"] in (True, False)


class TestGeometricTimes:
    def test_growth_and_snapping(self):
        times = geometric_sample_times(1.0, 10.0, 1e-3)
        assert times[0] == 1.0
        assert all(b > a for a, b in zip(times, times[1:]))
        for t in times:
            assert abs(t / 1e-3 - round(t / 1e-3)) < 1e-9
        assert times[-1] <= 10.0

    def test_no_time_snapped_past_the_end(self):
        # 2 * 1.3^2 = 3.38 snaps to 3.4, which a run to t = 3.39 never samples
        assert geometric_sample_times(2.0, 3.39, 0.2) == [2.0, 2.6]
        assert geometric_sample_times(2.0, 3.4, 0.2) == [2.0, 2.6, 3.4]
