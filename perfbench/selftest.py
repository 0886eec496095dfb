#!/usr/bin/env python3
"""Shows that each benchmark check has teeth: it passes on good input and
fails on input broken in one known way.

Run from the repository root (a few seconds, small grids):

    python3 perfbench/selftest.py

Exit status 0 when every check passed its good case and failed its broken one.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402

GRID = {"d": 1, "L": 40.0, "Nx": 512, "Ny": 4}
ALPHA, LAM, DT = 5.0, 1, 1e-3


def datum() -> np.ndarray:
    x = -GRID["L"] / 2 + GRID["L"] / GRID["Nx"] * np.arange(GRID["Nx"])
    u = np.exp(-(x / 0.65) ** 2) * (1 + 0.05j * np.cos(x / 0.65))
    return np.repeat(u[:, None], GRID["Ny"], axis=1)


def program_run(u0: np.ndarray, steps: int, kick=None):
    """The program's evolve from u0, optionally with a replaced kick."""
    from nlslab import integrator
    from nlslab.field import Grid, SpectralField
    g = Grid(GRID["d"], GRID["L"], GRID["Nx"], GRID["Ny"])
    original = integrator._nonlinear_kick
    if kick is not None:
        integrator._nonlinear_kick = kick
    try:
        return integrator.evolve(
            SpectralField.from_samples(g, u0), integrator.PhysicsParams(ALPHA, LAM),
            integrator.StepControl(DT, steps * DT, steps)).samples()
    finally:
        integrator._nonlinear_kick = original


def wrong_sign_kick(v, physics, dt_half):
    return v * np.exp((-1j * physics.lam * dt_half) * np.abs(v) ** physics.alpha)


def lie_kick():
    """Alternates a full kick and none: Lie splitting, first order."""
    state = {"n": 0}

    def kick(v, physics, dt_half):
        state["n"] += 1
        if state["n"] % 2 == 0:
            return v
        return v * np.exp((2j * physics.lam * dt_half) * np.abs(v) ** physics.alpha)
    return kick


def records(n: int = 5) -> list:
    rows = []
    for i in range(n):
        t = 0.1 * i
        J = 2 * t + t ** 2          # dJ/dt = 2 + 2t = lhs
        rows.append({"t": t, "mass": 1.0, "h1_norm": 2.0, "J": J,
                     "morawetz_lhs": 2 + 2 * t, "morawetz_rhs": 1.0,
                     "positivity_S": 1 + 2 * t, "acc_u_lp": t})
    return rows


def main() -> int:
    u0 = datum()
    good = program_run(u0, 3)
    cases = []

    def case(label, check, expect_ok):
        cases.append((label, check[1] == expect_ok, check))

    case("program kick", checks.strang_check(good, u0, GRID, ALPHA, LAM, DT, 3), True)
    case("wrong kick sign", checks.strang_check(
        program_run(u0, 3, wrong_sign_kick), u0, GRID, ALPHA, LAM, DT, 3), False)

    first = {"mass": checks.mass_of(u0, GRID),
             "energy": checks.energy_of(u0, GRID, ALPHA, LAM)}
    for label, kick, ok in (("Strang energy drift", None, True),
                            ("Lie splitting energy drift", lie_kick(), False)):
        final = program_run(u0, 400, kick)
        case(label, checks.energy_drift_check(u0, final, GRID, ALPHA, LAM,
                                              DT, 400), ok)
    bad = checks.conservation_checks(u0, good * (1 + 1e-8), first,
                                     {"mass": 1.0, "energy": 1.0}, GRID,
                                     ALPHA, LAM)
    case("mass of a scaled state", bad[0], False)
    case("records mass off", bad[1], False)
    case("records energy off", bad[2], False)

    direct = checks.morawetz_direct_1d(good, GRID, ALPHA, LAM)
    exact = {k: v for k, (v, _) in direct.items()}
    case("double sums vs themselves", checks.double_sum_check(exact, direct), True)
    case("J off by 1e-6", checks.double_sum_check(
        dict(exact, J=exact["J"] * (1 + 1e-6)), direct), False)

    rows = records()
    ok_rows = checks.morawetz_record_checks(rows)
    for c in ok_rows:
        case(f"records: {c[0]}", c, True)
    neg = [dict(r, positivity_S=-1e-3) for r in rows]
    case("negative S", checks.morawetz_record_checks(neg)[0], False)
    gap = [dict(r, morawetz_rhs=r["morawetz_rhs"] + 1e-6) for r in rows]
    case("lhs - rhs != S", checks.morawetz_record_checks(gap)[1], False)
    drift = [dict(r, morawetz_lhs=r["morawetz_lhs"] * 1.01) for r in rows]
    case("lhs off dJ/dt", checks.morawetz_record_checks(drift)[2], False)
    case("non-decreasing accumulators", checks.accumulator_check(rows), True)
    case("decreasing accumulator", checks.accumulator_check(
        rows[:2] + [dict(rows[2], acc_u_lp=0.0)]), False)

    rng = np.random.default_rng(0)
    pts = rng.normal(size=(6, 3))
    C = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    h = np.linalg.norm(pts, axis=1)   # |h_i - h_j| <= |p_i - p_j|
    case("Cauchy metric", checks.cauchy_checks(C, h)[0], True)
    case("Cauchy lower bound", checks.cauchy_checks(C, h)[1], True)
    bent = C.copy()
    bent[0, 2] = bent[2, 0] = C[0, 1] + C[1, 2] + 1.0
    case("Cauchy entry breaking the triangle", checks.cauchy_checks(bent, h)[0], False)
    skew = C.copy()
    skew[1, 0] += 1e-9
    case("Cauchy entry breaking symmetry", checks.cauchy_checks(skew, h)[0], False)
    low = C.copy()
    i, j = np.unravel_index(np.argmax(np.abs(h[:, None] - h[None, :])), C.shape)
    low[i, j] = low[j, i] = 0.5 * abs(h[i] - h[j])
    case("Cauchy entry below the H1 gap", checks.cauchy_checks(low, h)[1], False)

    bad_cases = 0
    for label, bites, (name, ok, detail) in cases:
        bad_cases += not bites
        print(f"{'ok  ' if bites else 'FAIL'} {label:38s} {name}: "
              f"{'pass' if ok else 'fail'} ({detail})")
    print(f"{len(cases)} cases, {bad_cases} not as expected")
    return 1 if bad_cases else 0


if __name__ == "__main__":
    sys.exit(main())
