"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Expensive production runs are shared through session-scoped fixtures:
the decay run feeds criteria 3 (mass drift), 5 and 6; the soliton and
scattering preset runs feed criteria 7 and 8.
"""

import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import load_json, record_acceptance
from nlslab import integrator
from nlslab.cli import RecordBuilder, build_datum, parse_config, run_preset
from nlslab.exponents import (
    ProblemParams,
    auxiliary_pair,
    critical_tuple,
    feasible_r_interval,
    max_feasible_theta,
    perturbed_tuple,
    subcritical_pair,
    verify_tuple,
)
from nlslab.field import (
    Grid,
    SpectralField,
    densities,
    free_evolve,
    from_profile,
    lebesgue_norm,
    sobolev_h1,
)
from nlslab.integrator import PhysicsParams, StepControl, energy, evolve, mass
from nlslab.morawetz import (
    inequality_tolerance,
    morawetz_J,
    morawetz_terms,
    positivity_certificate,
)
from nlslab.scattering import pullback

pytestmark = pytest.mark.acceptance


def report(num: int, ok: bool, detail: str) -> bool:
    record_acceptance(
        f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared production runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def decay_run():
    """Full decay preset (d=1, alpha=5, Gaussian, L=200, Nx=4096, Ny=32, t=10)."""
    cfg = parse_config(json.dumps({"preset": "decay"}))
    builder = RecordBuilder(cfg)
    t0 = time.perf_counter()
    evolve(build_datum(cfg), cfg.physics(), cfg.control(), sinks=[builder],
           guard_tol=cfg.guard_tol)
    wall = time.perf_counter() - t0
    return {"cfg": cfg, "records": builder.records, "wall": wall}


@pytest.fixture(scope="session")
def richardson_snaps():
    """Snapshots around t=1 of the decay trajectory, on the dt step grid."""
    cfg = parse_config(json.dumps({"preset": "decay"}))
    dt, ph = cfg.dt, cfg.physics()
    state = evolve(build_datum(cfg), ph, StepControl(dt, 1.0 - 8 * dt))
    snaps = {round(1.0 - 8 * dt, 12): state}
    t = 1.0 - 8 * dt
    for _ in range(16):
        state = evolve(state, ph, StepControl(dt, dt))
        t = round(t + dt, 12)
        snaps[t] = state
    return snaps, dt, ph


@pytest.fixture(scope="session")
def soliton_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("soliton")
    cfg = parse_config(json.dumps({"preset": "soliton-control",
                                   "q_list": [4.0, 6.0],
                                   "output_dir": str(out)}))
    status = run_preset(cfg)
    manifest = load_json(out / "manifest.json")
    return status, manifest


@pytest.fixture(scope="session")
def scattering_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("scattering")
    cfg = parse_config(json.dumps({"preset": "scattering",
                                   "output_dir": str(out)}))
    status = run_preset(cfg)
    manifest = load_json(out / "manifest.json")
    return status, manifest


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_exponent_feasibility():
    from test_exponents import scan_feasible_r
    t0 = time.perf_counter()
    ok = True
    for d in range(1, 7):
        # subcritical regime: 0 < alpha < 4/d, 20 exact samples
        for k in range(1, 21):
            params = ProblemParams(d, F(4 * k, 21 * d))
            pair, rep = subcritical_pair(params)
            ok &= rep.feasible and verify_tuple(pair, params).feasible
        # scattering regime: 4/d < alpha < 4/(d-1) (d=1: open above), 20 samples
        for k in range(1, 21):
            if d == 1:
                alpha = 4 + F(k, 2)
            else:
                alpha = F(4, d) + (F(4, d - 1) - F(4, d)) * F(k, 21)
            params = ProblemParams(d, alpha)
            tup, rep = critical_tuple(params)
            ok &= rep.feasible
            pert, prep = perturbed_tuple(tup, params, F(1, 100))
            ok &= prep.feasible
            aux, arep = auxiliary_pair(params, tup)
            ok &= arep.feasible
            _, trep = max_feasible_theta(tup, params, F(1, 100))
            ok &= trep.feasible
            # interval formula vs. independent float grid scan
            lo, hi = feasible_r_interval(params)
            r_max = min(float(hi) + 1.0, 50.0)
            first, last = scan_feasible_r(params, 2.0, r_max, 1e-3)
            ok &= abs(first - float(lo)) <= 1e-3 + 1e-9
            if float(hi) < r_max - 0.5:
                ok &= abs(last - float(hi)) <= 1e-3 + 1e-9
    wall = time.perf_counter() - t0
    ok &= wall < 10.0
    assert report(1, ok, f"d in 1..6, 20 samples/regime, exact verification "
                         f"+ interval scan agreement; {wall:.1f}s")


def test_criterion_02_worked_tuple():
    params = ProblemParams(1, F(5))
    tup, rep = critical_tuple(params, r=F(8))
    aux, arep = auxiliary_pair(params, tup)
    got = (tup.q, tup.q_tilde, tup.r_tilde, tup.s, aux.l, aux.p)
    want = (F(80, 11), F(40, 7), F(4), F(1, 10), F(32, 5), F(16, 3))
    equality = 1 - 1 / aux.l == 1 / aux.l + params.alpha / tup.q
    ok = (got == want and rep.feasible and arep.feasible and equality
          and 1 - 1 / aux.l == F(27, 32))
    assert report(2, ok, f"(d=1, a=5, r=8) -> q=80/11, q~=40/7, r~=4, s=1/10, "
                         f"l=32/5, p=16/3, equality 27/32 exact")


def test_criterion_03_scheme_conservation(decay_run):
    t0 = time.perf_counter()
    # mass drift over the 10^4-step production run
    masses = [r.mass for r in decay_run["records"]]
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    # energy drift order on the production grid
    cfg = decay_run["cfg"]
    ph = cfg.physics()
    datum = build_datum(cfg)
    e0 = energy(datum, ph)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        out = evolve(datum, ph, StepControl(dt, 1.0))
        errs.append(abs(energy(out, ph) - e0))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    wall = time.perf_counter() - t0
    ok = drift < 1e-10 and all(1.8 <= o <= 2.2 for o in orders) and wall < 120
    assert report(3, ok, f"mass drift {drift:.2e} over 1e4 steps; energy "
                         f"orders {[f'{o:.2f}' for o in orders]}; {wall:.0f}s")


def test_criterion_04_morawetz_oracle():
    t0 = time.perf_counter()
    g = Grid(1, 40.0, 256, 16)
    ph = PhysicsParams(5.0, 1)
    x = g.x_axis()
    s = x[:, None] - x[None, :]
    br = np.sqrt(1.0 + s ** 2)
    k_grad, k_hess, k_lap = s / br, 1 / br - s ** 2 / br ** 3, 1 / br ** 3

    def direct(a, kern, b):
        return float(a @ kern @ b) * g.cell ** 2

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        c = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        c *= np.exp(-g.laplace_symbol() / 30.0)
        f = SpectralField(g, c)
        ds = densities(f, 5.0)
        rho, P, K, nu, gr = ds.rho, ds.P[0], ds.K[0, 0], ds.nu, ds.grad_rho[0]
        J_d = -4.0 * direct(P, k_grad, rho)
        S_d = (4 * direct(K, k_hess, rho) + 4 * direct(rho, k_hess, K)
               - 8 * direct(P, k_hess, P) + 2 * direct(gr, k_hess, gr))
        nl1, nl2 = direct(nu, k_lap, rho), direct(rho, k_lap, nu)
        a = 5.0
        lhs_d = S_d + (2 * a / (a + 2)) * (nl1 + nl2)
        rhs_d = (4 * a / (a + 2)) * nl1
        lhs, rhs = morawetz_terms(f, ph)
        for got, want in ((morawetz_J(f), J_d),
                          (positivity_certificate(f), S_d),
                          (lhs, lhs_d), (rhs, rhs_d)):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    wall = time.perf_counter() - t0
    ok = worst < 1e-9 and wall < 60
    assert report(4, ok, f"FFT vs O(N^2) double sums, 20 random fields on "
                         f"256x16: worst rel diff {worst:.1e}; {wall:.0f}s")


def test_criterion_05_morawetz_inequality(decay_run, richardson_snaps):
    records = decay_run["records"]
    ok_ineq = ok_pos = True
    for r in records:
        tol = inequality_tolerance(r.morawetz_lhs, r.morawetz_rhs, r.mass)
        if r.morawetz_lhs - r.morawetz_rhs < -tol:
            ok_ineq = False
        scale = (r.mass + r.h1_norm) ** 4
        if r.positivity_S < -1e-10 * max(scale, 1.0):
            ok_pos = False
    snaps, dt, ph = richardson_snaps
    lhs, _ = morawetz_terms(snaps[1.0], ph)
    res = {}
    for m in (1, 4, 8):
        d = m * dt
        fd = (morawetz_J(snaps[round(1 + d, 12)])
              - morawetz_J(snaps[round(1 - d, 12)])) / (2 * d)
        res[m] = abs(fd - lhs)
    order = math.log2(res[8] / res[4])
    small = res[1] / abs(lhs)
    ok = ok_ineq and ok_pos and 1.8 <= order <= 2.2 and small < 1e-4
    assert report(5, ok, f"lhs-rhs >= -tol and S >= -tol at all "
                         f"{len(records)} samples: {ok_ineq and ok_pos}; "
                         f"dJ/dt Richardson order {order:.2f}, residual/|lhs| "
                         f"{small:.1e} at delta=dt")


def test_criterion_06_decay(decay_run):
    records = decay_run["records"]
    lq = [(r.t, r.lq_norms[4.0]) for r in records]
    cube = [(r.t, r.cube_sup) for r in records]
    factors, mono = {}, {}
    for name, series in (("L4", lq), ("cube_sup", cube)):
        early = max(v for t, v in series if t <= 1.0)
        factors[name] = early / series[-1][1]
        tail = [v for t, v in series if t >= 1.0]
        mono[name] = all(b <= a * (1 + 1e-8) for a, b in zip(tail, tail[1:]))
    guard_quiet = not any(r.boundary_guard_flag for r in records)
    wall = decay_run["wall"]
    ok = (all(f >= 3.0 for f in factors.values()) and all(mono.values())
          and guard_quiet and wall < 600)
    assert report(6, ok, f"L4 factor {factors['L4']:.2f}, cube factor "
                         f"{factors['cube_sup']:.1f}, monotone tails "
                         f"{all(mono.values())}, guard quiet {guard_quiet}; "
                         f"{wall:.0f}s")


def test_criterion_07_focusing_control(soliton_manifest):
    status, manifest = soliton_manifest
    checks = manifest["checks"]
    ok = status == 0 and checks["no_decay"] and checks["no_scattering"]
    assert report(7, ok, f"soliton L^q constant within 1e-3 over [0,20]: "
                         f"{checks['no_decay']}; Cauchy tail non-decreasing: "
                         f"{checks['no_scattering']}")


def test_criterion_08_scattering(scattering_manifest):
    status, manifest = scattering_manifest
    c = manifest["checks"]
    ok = (status == 0 and c["cauchy_strictly_decreasing"]
          and c["cauchy_terminal_small"] and c["accumulators_saturated"])
    assert report(8, ok, f"Cauchy diffs strictly decreasing for t>=5: "
                         f"{c['cauchy_strictly_decreasing']}; terminal < 0.2x "
                         f"first: {c['cauchy_terminal_small']}; accumulators "
                         f"saturated: {c['accumulators_saturated']}")


def test_criterion_09_norm_engine_oracles():
    from test_field import (C_CAL_LEIBNIZ, difference_quotient_hs_y,
                            fractional_leibniz_ratio)
    g = Grid(1, 40.0, 256, 16)
    # difference-quotient vs multiplier on a band-limited family (|n| <= Ny/4)
    worst_dq = 0.0
    for seed in range(5):
        rng = np.random.default_rng(4000 + seed)
        c = np.zeros(g.shape, complex)
        c[:, :4] = rng.standard_normal((g.Nx, 4)) \
            + 1j * rng.standard_normal((g.Nx, 4))
        c[:, -3:] = rng.standard_normal((g.Nx, 3)) \
            + 1j * rng.standard_normal((g.Nx, 3))
        c *= np.exp(-g.xi_sq() / 20.0)
        f = SpectralField(g, c)
        for s in (0.25, 0.5, 0.55, 0.75):
            mult, quad = difference_quotient_hs_y(f, s)
            worst_dq = max(worst_dq, abs(quad / mult - 1.0))
    # fractional-Leibniz family under the frozen calibration bound
    worst_lb = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        c = np.zeros(g.shape, complex)
        c[:, :4] = rng.standard_normal((g.Nx, 4)) \
            + 1j * rng.standard_normal((g.Nx, 4))
        c *= np.exp(-g.xi_sq() / 20.0)
        worst_lb = max(worst_lb,
                       fractional_leibniz_ratio(SpectralField(g, c), 0.55, 5.0))
    # free-flow isometry
    rng = np.random.default_rng(7)
    c = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    c *= np.exp(-g.laplace_symbol() / 30.0)
    f = SpectralField(g, c)
    iso = max(abs(sobolev_h1(free_evolve(f, t)) / sobolev_h1(f) - 1)
              for t in (0.7, 3.0, 11.0))
    ok = worst_dq < 0.02 and worst_lb <= C_CAL_LEIBNIZ * 1.0000001 \
        and iso < 1e-12
    assert report(9, ok, f"dq vs multiplier worst {worst_dq:.3%}; Leibniz max "
                         f"ratio {worst_lb:.6f} <= {C_CAL_LEIBNIZ:.6f}; "
                         f"free-flow H1 isometry {iso:.1e}")


def test_criterion_10_linear_exactness(monkeypatch):
    g = Grid(1, 40.0, 512, 16)
    # plane-wave propagation: closed-form phase rotation
    A, k0, n0 = 1.3, 3, 2
    xi0 = 2 * np.pi * k0 / g.L
    pw = from_profile(g, lambda x, y: A * np.exp(1j * (xi0 * x + n0 * y)))
    ph = PhysicsParams(2.0, 1)
    t_end, dt = 0.5, 1e-3
    out = evolve(pw, ph, StepControl(dt, t_end))
    phase = np.exp(1j * t_end * (xi0 ** 2 + n0 ** 2 + 1.0 * A ** 2))
    err_pw = np.abs(out.samples() - pw.samples() * phase).max() / A
    # pullback(evolve) identity and pure-linear run vs free_evolve: the kick
    # replaced by the identity
    monkeypatch.setattr(integrator, "_nonlinear_kick", lambda v, physics, h: v)
    f = from_profile(g, lambda x, y: np.exp(-x ** 2) * (1 + 0.3 * np.cos(y)))
    lin = evolve(f, ph, StepControl(dt, t_end))
    exact = free_evolve(f, t_end)
    scale = np.abs(f.coefficients).max()
    err_lin = np.abs(lin.coefficients - exact.coefficients).max() / scale
    err_pb = np.abs(pullback(lin).coefficients - f.coefficients).max() / scale
    ok = err_pw < 1e-12 and err_lin < 1e-12 and err_pb < 1e-12
    assert report(10, ok, f"plane wave {err_pw:.1e}; pure-linear vs free flow "
                          f"{err_lin:.1e}; pullback identity {err_pb:.1e}")
