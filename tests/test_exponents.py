from dataclasses import replace
from fractions import Fraction as F

import pytest

from nlslab.exponents import (
    AuxPair,
    NoFeasibleTheta,
    ProblemParams,
    RegimeError,
    StrichartzTuple,
    auxiliary_pair,
    critical_tuple,
    feasible_r_interval,
    max_feasible_theta,
    perturbed_tuple,
    subcritical_pair,
    theta_tuple,
    verify_tuple,
)


# The oracle of feasible_r_interval for criterion 1 (tests/test_acceptance.py):
# a float grid scan of the raw system.  No run reads it.


def scan_feasible_r(params: ProblemParams, r_min: float = 2.0, r_max: float = 50.0,
                    resolution: float = 1e-3):
    """Float grid scan of the raw system over r; independent of the interval formulas.

    Returns (r_first, r_last): the outermost grid points marked feasible, or
    None when no grid point is feasible.  Uses vectorized float arithmetic;
    adequacy at the stated resolution is guaranteed by the endpoint-within-one-
    cell contract, not by exactness.
    """
    import numpy as np

    d = params.d
    a = float(params.alpha)
    s = float(params.s_critical)
    r = np.arange(r_min + resolution, r_max, resolution)
    inv_q = 1.0 / a - d / (2.0 * r)
    inv_qt = -1.0 / a + (a + 1.0) * d / (2.0 * r)
    inv_rt = 1.0 - (a + 1.0) / r
    inv_r = 1.0 / r
    ok = np.ones_like(r, dtype=bool)
    for inv in (inv_q, inv_r, inv_qt, inv_rt):
        ok &= (inv > 0) & (inv < 0.5)
    if d >= 3:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = inv_rt / inv_r  # r / r~
        ok &= inv_q + inv_qt < 1
        ok &= ((d - 2) / d < ratio) & (ratio < d / (d - 2))
    ok &= inv_q + d * inv_r < d / 2
    ok &= inv_qt + d * inv_rt < d / 2
    # the equalities of the raw system hold by construction of the closed
    # forms; check them to float tolerance anyway as a wiring guard
    ok &= np.abs(2 * inv_q + d * inv_r - (d / 2 - s)) < 1e-9
    ok &= np.abs(2 * inv_q + d * inv_r + 2 * inv_qt + d * inv_rt - d) < 1e-9
    ok &= np.abs((1 - inv_qt) - (a + 1) * inv_q) < 1e-9
    ok &= np.abs((1 - inv_rt) - (a + 1) * inv_r) < 1e-9
    ok &= a * inv_r < 1
    if not ok.any():
        return None
    idx = np.nonzero(ok)[0]
    return float(r[idx[0]]), float(r[idx[-1]])


class TestProblemParams:
    def test_regimes(self):
        assert ProblemParams(2, F(1)).regime == "subcritical"
        assert ProblemParams(1, F(4)).regime == "boundary"
        assert ProblemParams(1, F(5)).regime == "scattering"

    def test_energy_supercritical_rejected(self):
        with pytest.raises(RegimeError):
            ProblemParams(3, F(2))  # 4/(d-1) = 2

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ProblemParams(0, F(1))
        with pytest.raises(ValueError):
            ProblemParams(1, F(-1))


class TestSubcriticalPair:
    def test_d2_alpha1(self):
        pair, report = subcritical_pair(ProblemParams(2, F(1)))
        assert pair.q == 6 and pair.r == 3
        assert report.feasible

    def test_boundary_rejected(self):
        with pytest.raises(RegimeError):
            subcritical_pair(ProblemParams(1, F(4)))

    def test_d3_alpha1(self):
        pair, report = subcritical_pair(ProblemParams(3, F(1)))
        assert pair.q == 4 and pair.r == 3
        # admissibility: 2/q + d/r = d/2
        assert 2 / pair.q + 3 / pair.r == F(3, 2)
        # 1/q' = 3/4 > (alpha+1)/q = 1/2
        assert 1 - F(1, pair.q) > F(2, pair.q)
        assert report.feasible


class TestFeasibleRInterval:
    def test_d1_alpha5(self):
        lo, hi = feasible_r_interval(ProblemParams(1, F(5)))
        assert (lo, hi) == (6, 10)

    def test_d1_alpha4(self):
        lo, hi = feasible_r_interval(ProblemParams(1, F(4)))
        assert (lo, hi) == (5, 10)

    def test_d3_nonempty(self):
        lo, hi = feasible_r_interval(ProblemParams(3, F(4, 3)))
        assert lo < hi

    def test_subcritical_rejected(self):
        with pytest.raises(RegimeError):
            feasible_r_interval(ProblemParams(2, F(1)))

    @pytest.mark.parametrize("d,alpha", [
        (1, F(5)), (1, F(4)), (2, F(3)), (3, F(29, 20)), (4, F(11, 10)),
        (5, F(9, 10)), (6, F(7, 10)),
    ])
    def test_matches_grid_scan(self, d, alpha):
        params = ProblemParams(d, alpha)
        lo, hi = feasible_r_interval(params)
        scan = scan_feasible_r(params, resolution=1e-3)
        assert scan is not None
        r_first, r_last = scan
        assert abs(r_first - float(lo)) <= 1.001e-3
        assert abs(r_last - float(hi)) <= 1.001e-3


class TestCriticalTuple:
    def test_worked_example_d1_alpha5_r8(self):
        tup, report = critical_tuple(ProblemParams(1, F(5)), r=8)
        assert tup.q == F(80, 11)
        assert tup.q_tilde == F(40, 7)
        assert tup.r_tilde == 4
        assert tup.s == F(1, 10)
        # scaling line and closure identity
        assert 2 / tup.q + 1 / F(tup.r) == F(2, 5) == F(1, 2) - F(1, 10)
        assert 2 / tup.q + 1 / F(tup.r) + 2 / tup.q_tilde + 1 / tup.r_tilde == 1
        assert report.feasible

    def test_boundary_r_infeasible(self):
        _, report = critical_tuple(ProblemParams(1, F(5)), r=6)
        assert not report.feasible
        assert [c for c in report.constraints if not c.ok]

    def test_d2_alpha3_midpoint(self):
        tup, report = critical_tuple(ProblemParams(2, F(3)))
        assert tup.s == F(1, 3)
        assert report.feasible

    @pytest.mark.parametrize("d,alpha", [
        (1, F(5)), (1, F(4)), (1, F(17, 4)), (2, F(5, 2)), (2, F(3)),
        (3, F(7, 5)), (4, F(21, 20)), (5, F(17, 20)), (6, F(7, 10)),
    ])
    def test_random_r_in_interval(self, d, alpha):
        params = ProblemParams(d, alpha)
        lo, hi = feasible_r_interval(params)
        for k in range(1, 50):
            r = lo + (hi - lo) * F(k, 50)
            _, report = critical_tuple(params, r=r)
            assert report.feasible, (d, alpha, r,
                                      [c for c in report.constraints if not c.ok])


class TestPerturbedTuple:
    @pytest.fixture
    def base(self):
        tup, _ = critical_tuple(ProblemParams(1, F(5)), r=8)
        return tup

    def test_small_epsilon(self, base):
        params = ProblemParams(1, F(5))
        tup, report = perturbed_tuple(base, params, F(1, 10))
        assert tup.q == F(80, 11) + F(1, 10)
        assert F(1, tup.q_tilde) == F(5, 16) - F(1, tup.q)
        # gap identity from the continuity argument
        gap = (F(6, 1) / tup.q) + F(1, tup.q_tilde)
        assert gap == 1 - F(1, 10) * 5 / (base.q * tup.q)
        assert gap < 1
        assert tup.s > F(1, 10)
        assert report.feasible

    def test_epsilon_zero_returns_base(self, base):
        params = ProblemParams(1, F(5))
        tup, report = perturbed_tuple(base, params, 0)
        assert tup == base
        assert not report.feasible
        bad = [c.label for c in report.constraints if not c.ok]
        assert "strict perturbation: epsilon > 0" in bad
        assert "s_eps > s_base" in bad

    def test_epsilon_huge_infeasible(self, base):
        params = ProblemParams(1, F(5))
        _, report = perturbed_tuple(base, params, 10)
        assert not report.feasible

    def test_s_monotone_in_epsilon(self, base):
        params = ProblemParams(1, F(5))
        last = base.s
        for k in range(1, 8):
            tup, report = perturbed_tuple(base, params, F(k, 100))
            assert report.feasible
            assert tup.s > last
            last = tup.s


class TestThetaTuple:
    @pytest.fixture
    def base(self):
        tup, _ = critical_tuple(ProblemParams(1, F(5)), r=8)
        return tup

    def test_theta_one_degenerates_to_base(self, base):
        params = ProblemParams(1, F(5))
        tup, report = theta_tuple(base, params, 1)
        assert tup.q_tilde_theta == base.q_tilde
        assert tup.r_tilde_theta == base.r_tilde
        assert report.feasible

    def test_theta_19_20(self, base):
        params = ProblemParams(1, F(5))
        tup, report = theta_tuple(base, params, F(19, 20))
        assert F(1, tup.q_tilde_theta) == 1 - 6 * F(19, 20) * F(11, 80)
        assert F(1, tup.r_tilde_theta) == 1 - 6 * (F(19, 20) / 8 + F(1, 20) * F(2, 5))
        # closure must hold exactly for every theta
        total = (2 / base.q + F(1, 8) + 2 / tup.q_tilde_theta
                 + 1 / tup.r_tilde_theta)
        assert total == 1
        assert report.feasible

    def test_theta_near_zero_infeasible(self, base):
        params = ProblemParams(1, F(5))
        _, report = theta_tuple(base, params, F(1, 1000))
        assert not report.feasible

    def test_max_feasible_theta(self, base):
        params = ProblemParams(1, F(5))
        tup, report = max_feasible_theta(base, params, F(1, 100))
        star = tup.theta
        assert 0 < star < 1
        assert report.feasible
        assert (tup, report) == theta_tuple(base, params, star)
        assert theta_tuple(base, params, star - F(1, 100))[1].feasible

    def test_star_value_fine_grid(self, base):
        params = ProblemParams(1, F(5))
        assert max_feasible_theta(base, params, F(1, 100))[0].theta == F(99, 100)

    def test_coarse_grid_may_miss(self, base):
        # theta = 3/4 already drives 1/r~_th negative here, so a grid of
        # spacing 1/4 contains no feasible point
        params = ProblemParams(1, F(5))
        with pytest.raises(NoFeasibleTheta):
            max_feasible_theta(base, params, F(1, 4))

    @pytest.mark.parametrize("resolution", [F(0), F(1), F(3, 2)])
    def test_resolution_outside_unit_interval(self, base, resolution):
        with pytest.raises(ValueError, match="resolution must lie in"):
            max_feasible_theta(base, ProblemParams(1, F(5)), resolution)

    def test_given_base_is_verified(self, base):
        # a base whose s is corrupted is rejected as it is, not rebuilt from its r
        with pytest.raises(ValueError, match="^base tuple is not feasible$"):
            max_feasible_theta(replace(base, s=F(1, 5)), ProblemParams(1, F(5)))

    def test_boundary_alpha_rejected(self):
        params = ProblemParams(1, F(4))
        base, _ = critical_tuple(params)
        with pytest.raises(RegimeError):
            theta_tuple(base, params, F(1, 2))


class TestAuxiliaryPair:
    def test_equality_mode_worked_example(self):
        params = ProblemParams(1, F(5))
        base, _ = critical_tuple(params, r=8)
        pair, report = auxiliary_pair(params, base)
        assert pair.l == F(32, 5) and pair.p == F(16, 3)
        assert 1 - F(5, 32) == F(27, 32) == F(5, 32) + F(5, 1) / base.q
        assert report.feasible

    def test_degenerate_geometry(self):
        # alpha/r >= 1 forces p <= 0
        params = ProblemParams(1, F(5))
        fake = StrichartzTuple(q=F(10), r=F(4), q_tilde=F(10), r_tilde=F(4), s=F(1, 10))
        _, report = auxiliary_pair(params, fake)
        assert not report.feasible

    def test_equality_collapse_property(self):
        # 1/l' - 1/l - alpha/q = 0 for every critical tuple
        for d, alpha in [(1, F(5)), (2, F(3)), (3, F(7, 5))]:
            params = ProblemParams(d, alpha)
            tup, _ = critical_tuple(params)
            pair, report = auxiliary_pair(params, tup)
            assert report.feasible
            assert 1 - 1 / pair.l - 1 / pair.l - params.alpha / tup.q == 0


class TestVerifyTuple:
    def test_valid_tuple_passes(self):
        params = ProblemParams(1, F(5))
        tup, _ = critical_tuple(params, r=8)
        assert verify_tuple(tup, params).feasible

    def test_corrupted_tuple_flagged(self):
        params = ProblemParams(1, F(5))
        tup, _ = critical_tuple(params, r=8)
        bad = StrichartzTuple(q=tup.q, r=tup.r_tilde, q_tilde=tup.q_tilde,
                              r_tilde=tup.r, s=tup.s)
        report = verify_tuple(bad, params)
        assert not report.feasible
        labels = {c.label for c in report.constraints if not c.ok}
        assert labels  # specific constraints are named

    def test_corrupted_aux_pair_flagged(self):
        # the stored exponents are checked, not the pair the base would give
        params = ProblemParams(1, F(5))
        base, _ = critical_tuple(params, r=F(8))
        pair, _ = auxiliary_pair(params, base)
        for bad in (AuxPair(l=F(1000), p=F(3)), AuxPair(l=pair.l, p=pair.p + 1),
                    AuxPair(l=pair.l + 1, p=pair.p), AuxPair(l=F(0), p=pair.p),
                    AuxPair(l=pair.l, p=F(0))):
            report = verify_tuple(bad, params, base=base)
            assert not report.feasible
            assert {c.label for c in report.constraints if not c.ok} <= {
                "2/l + d/p = d/2", "1/p' = 1/p + alpha/r", "1/l' = 1/l + alpha/q"}

    @pytest.mark.parametrize("kind, field, label", [
        ("strichartz", "q", "q"), ("strichartz", "r", "r"),
        ("strichartz", "q_tilde", "q~"), ("strichartz", "r_tilde", "r~"),
        ("theta", "q_theta", "q_th"), ("theta", "r_theta", "r_th"),
        ("theta", "q_tilde_theta", "q~_th"), ("theta", "r_tilde_theta", "r~_th"),
    ])
    def test_zero_exponent_flagged(self, kind, field, label):
        # a hand-built tuple may store a 0; its reciprocal must not raise
        params = ProblemParams(1, F(5))
        tup, report = critical_tuple(params, r=F(8))
        if kind == "theta":
            tup, report = theta_tuple(tup, params, F(19, 20))
        assert report.feasible
        report = verify_tuple(replace(tup, **{field: F(0)}), params)
        assert not report.feasible
        assert f"1/{label} < 1/2" in {c.label for c in report.constraints
                                       if not c.ok}

    def test_zero_subcritical_exponent_flagged(self):
        params = ProblemParams(2, F(1))
        pair, _ = subcritical_pair(params)
        for bad in (replace(pair, q=F(0)), replace(pair, r=F(0))):
            assert not verify_tuple(bad, params).feasible

    def test_subcritical_pair_recheck(self):
        params = ProblemParams(2, F(1))
        pair, _ = subcritical_pair(params)
        assert verify_tuple(pair, params).feasible

    def test_aux_pair_needs_base(self):
        params = ProblemParams(1, F(5))
        tup, _ = critical_tuple(params, r=8)
        pair, _ = auxiliary_pair(params, tup)
        with pytest.raises(ValueError):
            verify_tuple(pair, params)
        assert verify_tuple(pair, params, base=tup).feasible

    def test_report_json_shape(self):
        params = ProblemParams(1, F(5))
        _, report = critical_tuple(params, r=8)
        d = report.to_json_dict()
        assert set(d) == {"feasible", "constraints"}
        row = d["constraints"][0]
        assert set(row) == {"constraint", "lhs", "cmp", "rhs", "ok"}
