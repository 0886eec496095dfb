"""Exact-rational construction and verification of admissible exponent systems.

All exponents for the dispersive space-time estimates are carried as
``fractions.Fraction`` so that strict and non-strict inequalities are decided
exactly.  Floats are deliberately never used in this module: several of the
constructions below differ from each other only by turning an equality into a
strict inequality, and rounding would erase exactly that distinction.

Conventions:
  * ``d`` is the Euclidean dimension, ``alpha`` the nonlinearity power.
  * For an exponent ``p``, the Hoelder conjugate is ``p' = p/(p-1)``, so
    ``1/p' = 1 - 1/p``.
  * A tuple is "feasible" when every constraint in its report holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[int, str, Fraction]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r} (floats are not accepted here)")


class RegimeError(ValueError):
    """Raised when (d, alpha) lie outside the regime an operation requires."""


# ---------------------------------------------------------------------------
# constraint bookkeeping
# ---------------------------------------------------------------------------

_CMP_FUNCS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Constraint:
    label: str
    lhs: Fraction
    cmp: str
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return _CMP_FUNCS[self.cmp](self.lhs, self.rhs)

    def to_json_dict(self) -> dict:
        return {
            "constraint": self.label,
            "lhs": str(self.lhs),
            "cmp": self.cmp,
            "rhs": str(self.rhs),
            "ok": self.ok,
        }


@dataclass
class ConstraintReport:
    """Self-contained record of every inequality checked for a tuple."""

    constraints: list = field(default_factory=list)

    def check(self, label: str, lhs: Fraction, cmp: str, rhs: Fraction) -> bool:
        c = Constraint(label, Fraction(lhs), cmp, Fraction(rhs))
        self.constraints.append(c)
        return c.ok

    @property
    def feasible(self) -> bool:
        return all(c.ok for c in self.constraints)

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "constraints": [c.to_json_dict() for c in self.constraints],
        }


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemParams:
    """Dimension and nonlinearity power, with the derived criticality regime."""

    d: int
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        cap = self.energy_cap
        if cap is not None and self.alpha >= cap:
            raise RegimeError(
                f"alpha = {self.alpha} >= 4/(d-1) = {cap}: outside the energy "
                f"subcritical range for d = {self.d}"
            )

    @property
    def energy_cap(self) -> Optional[Fraction]:
        """4/(d-1), or None for d = 1 (no upper bound)."""
        return Fraction(4, self.d - 1) if self.d > 1 else None

    @property
    def mass_threshold(self) -> Fraction:
        return Fraction(4, self.d)

    @property
    def regime(self) -> str:
        if self.alpha < self.mass_threshold:
            return "subcritical"
        if self.alpha == self.mass_threshold:
            return "boundary"
        return "scattering"

    @property
    def s_critical(self) -> Fraction:
        """Regularity s = (alpha*d - 4)/(2*alpha) matched to the nonlinearity."""
        return Fraction(self.alpha * self.d - 4, 2 * self.alpha)


@dataclass(frozen=True)
class SubcriticalPair:
    """Classical admissible pair for powers below the mass-critical threshold."""

    q: Fraction
    r: Fraction


@dataclass(frozen=True)
class StrichartzTuple:
    """Exponent bundle (q, r, q~, r~, s) for the double-endpoint estimates."""

    q: Fraction
    r: Fraction
    q_tilde: Fraction
    r_tilde: Fraction
    s: Fraction


@dataclass(frozen=True)
class ThetaTuple:
    """Interpolated family: (q, r) kept, dual pair bent by theta in (0, 1]."""

    theta: Fraction
    q_theta: Fraction
    r_theta: Fraction
    q_tilde_theta: Fraction
    r_tilde_theta: Fraction
    s: Fraction


@dataclass(frozen=True)
class AuxPair:
    """Auxiliary pair (l, p) closing the gradient-norm bootstrap through the
    identity 1/l' = 1/l + alpha/q."""

    l: Fraction
    p: Fraction


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def subcritical_pair(params: ProblemParams):
    """Admissible (q, r) for alpha < 4/d, with its verification report.

    q = 4(alpha+2)/(d*alpha), r = alpha+2.
    """
    d, a = params.d, params.alpha
    if a >= Fraction(4, d):
        raise RegimeError(f"subcritical_pair needs alpha < 4/d, got alpha = {a}, d = {d}")
    q = Fraction(4 * (a + 2), d * a)
    r = a + 2
    pair = SubcriticalPair(q=q, r=r)
    return pair, verify_tuple(pair, params)


def _lower_bounds(d: int, a: Fraction) -> list:
    bounds = [Fraction(a * d, 2), Fraction(2), Fraction(a * (a + 1) * d, a + 2), a + 1]
    if d >= 3:
        bounds.append(Fraction(d - 2, d) + a + 1)
    return bounds


def _upper_bounds(d: int, a: Fraction) -> list:
    bounds = [Fraction(a * (a + 1) * d, 2), 2 * (a + 1), Fraction(a * (a + 1) * d, a * d - 2)]
    if a < 2:
        # this bound has positive denominator only below alpha = 2; above it
        # the originating inequality is vacuous
        bounds.append(Fraction(a * d, 2 - a))
    if d >= 3:
        bounds.append(Fraction(d, d - 2) + a + 1)
    return bounds


def feasible_r_interval(params: ProblemParams):
    """Open interval of r values admitting a critical tuple, for 4/d <= alpha."""
    d, a = params.d, params.alpha
    if a < Fraction(4, d):
        raise RegimeError(f"feasible_r_interval needs alpha >= 4/d, got alpha = {a}, d = {d}")
    r_lo = max(_lower_bounds(d, a))
    r_hi = min(_upper_bounds(d, a))
    return r_lo, r_hi


def critical_tuple(params: ProblemParams, r: Optional[RationalLike] = None):
    """Construct the equality-pinned tuple at regularity s = (alpha*d-4)/(2*alpha).

    With r given (default: midpoint of the feasible interval), the remaining
    exponents are forced:

        1/q  = 1/alpha - d/(2r)
        1/q~ = -1/alpha + (alpha+1) d / (2r)
        1/r~ = 1 - (alpha+1)/r
    """
    d, a = params.d, params.alpha
    r_lo, r_hi = feasible_r_interval(params)
    if r is None:
        r = Fraction(r_lo + r_hi, 2)
    r = as_fraction(r)
    s = params.s_critical
    inv_q = Fraction(1, a) - Fraction(d, 2 * r)
    inv_qt = -Fraction(1, a) + Fraction((a + 1) * d, 2 * r)
    inv_rt = 1 - Fraction(a + 1, r)
    tup = StrichartzTuple(
        q=_safe_reciprocal(inv_q),
        r=r,
        q_tilde=_safe_reciprocal(inv_qt),
        r_tilde=_safe_reciprocal(inv_rt),
        s=s,
    )
    return tup, verify_tuple(tup, params)


def _safe_reciprocal(x: Fraction) -> Fraction:
    # infeasible choices of r can drive a reciprocal through 0; keep the
    # degenerate exponent representable so the report can flag it
    return Fraction(1, 1) / x if x != 0 else Fraction(10**12)


def perturbed_tuple(base: StrichartzTuple, params: ProblemParams, epsilon: RationalLike):
    """Strict variant of a critical tuple: q -> q + eps, dual pair re-balanced.

    With beta = (d/2)(1 - 1/r - 1/r~) held fixed, 1/q~_eps = beta - 1/(q+eps)
    and s_eps is defined by 2/q_eps + d/r = d/2 - s_eps.  For eps > 0 the
    identity (alpha+1)/q + 1/q~ = 1 relaxes to a strict inequality with gap
    eps*alpha/(q(q+eps)).
    """
    eps = as_fraction(epsilon)
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    d, a = params.d, params.alpha
    q, r, rt = base.q, base.r, base.r_tilde
    q_eps = q + eps
    beta = Fraction(d, 2) * (1 - Fraction(1, r) - Fraction(1, rt))
    inv_qt_eps = beta - Fraction(1, q_eps)
    s_eps = Fraction(d, 2) - Fraction(2, q_eps) - Fraction(d, r)
    tup = StrichartzTuple(
        q=q_eps,
        r=r,
        q_tilde=_safe_reciprocal(inv_qt_eps),
        r_tilde=rt,
        s=s_eps,
    )
    report = _verify_strichartz(tup, params, dual_mode="strict")
    report.check("s_eps > s_base", s_eps, ">", base.s)
    report.check("strict perturbation: epsilon > 0", eps, ">", Fraction(0))
    return tup, report


def theta_tuple(base: StrichartzTuple, params: ProblemParams, theta: RationalLike):
    """Bend the dual pair of a critical tuple by theta in (0, 1].

    (q_theta, r_theta) = (q, r); the dual exponents solve

        1/((alpha+1) q~_theta') = theta/q
        1/((alpha+1) r~_theta') = theta/r + 2(1-theta)/(alpha d)

    At theta = 1 this degenerates to the base tuple.
    """
    th = as_fraction(theta)
    if not (0 < th <= 1):
        raise ValueError(f"theta must lie in (0, 1], got {th}")
    d, a = params.d, params.alpha
    if not params.regime == "scattering":
        raise RegimeError(
            f"theta_tuple needs 4/d < alpha < 4/(d-1); got alpha = {a}, d = {d}"
        )
    q, r = base.q, base.r
    inv_qt = 1 - (a + 1) * th / q
    inv_rt = 1 - (a + 1) * (th / r + Fraction(2 * (1 - th), a * d))
    tup = ThetaTuple(
        theta=th,
        q_theta=q,
        r_theta=r,
        q_tilde_theta=_safe_reciprocal(inv_qt),
        r_tilde_theta=_safe_reciprocal(inv_rt),
        s=base.s,
    )
    return tup, verify_tuple(tup, params)


class NoFeasibleTheta(ValueError):
    """Raised when no theta on the resolution grid gives a feasible theta tuple."""


def theta_grid_step(resolution: RationalLike) -> Fraction:
    """The step of max_feasible_theta's theta grid; it must lie in (0, 1)."""
    res = as_fraction(resolution)
    if not 0 < res < 1:
        raise ValueError(f"resolution must lie in (0, 1), got {res}")
    return res


def max_feasible_theta(base: StrichartzTuple, params: ProblemParams,
                       resolution: RationalLike = Fraction(1, 100)):
    """The feasible theta tuple of largest theta < 1 on the resolution grid,
    with its constraint report.

    theta = 1 is only the degenerate anchor; the tuple's theta is strictly
    below 1.  Scans downward from 1 - resolution.  The base itself must be
    feasible.
    """
    if not verify_tuple(base, params).feasible:
        raise ValueError("base tuple is not feasible")
    res = theta_grid_step(resolution)
    th = 1 - res
    while th > 0:
        tup, report = theta_tuple(base, params, th)
        if report.feasible:
            return tup, report
        th -= res
    raise NoFeasibleTheta("no feasible theta found on the grid (resolution too coarse)")


def auxiliary_pair(params: ProblemParams, tup):
    """Auxiliary (l, p): 1/l = alpha d/(4r), 1/p = 1/2 - alpha/(2r).

    The closing condition 1/l' = 1/l + alpha/q is then an exact identity: it
    is forced by alpha/q + alpha d/(2r) = 1, which the critical and theta
    tuples satisfy.
    """
    d, a = params.d, params.alpha
    r = tup.r_theta if isinstance(tup, ThetaTuple) else tup.r
    pair = AuxPair(l=_safe_reciprocal(Fraction(a * d, 4 * r)),
                   p=_safe_reciprocal(Fraction(1, 2) - Fraction(a, 2 * r)))
    return pair, verify_tuple(pair, params, base=tup)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _check_pairs(report: ConstraintReport, d: int, names: tuple,
                 exps: tuple, s: Fraction) -> tuple:
    """Window, d >= 3, scaling and sum checks on exponents (q, r, q~, r~) labelled
    by ``names``; returns their reciprocals.  A stored 0 fails the window."""
    nq, nr, nqt, nrt = names
    iq, ir, iqt, irt = (_safe_reciprocal(e) for e in exps)
    for name, inv in zip(names, (iq, ir, iqt, irt)):
        report.check(f"0 < 1/{name}", Fraction(0), "<", inv)
        report.check(f"1/{name} < 1/2", inv, "<", Fraction(1, 2))
    if d >= 3:
        report.check(f"1/{nq} + 1/{nqt} < 1", iq + iqt, "<", Fraction(1))
        report.check(f"(d-2)/d < {nr}/{nrt}", Fraction(d - 2, d), "<", irt / ir)
        report.check(f"{nr}/{nrt} < d/(d-2)", irt / ir, "<", Fraction(d, d - 2))
    report.check(f"1/{nq} + d/{nr} < d/2", iq + d * ir, "<", Fraction(d, 2))
    report.check(f"1/{nqt} + d/{nrt} < d/2", iqt + d * irt, "<", Fraction(d, 2))
    report.check(f"2/{nq} + d/{nr} = d/2 - s", 2 * iq + d * ir, "=", Fraction(d, 2) - s)
    report.check(f"2/{nq} + d/{nr} + 2/{nqt} + d/{nrt} = d",
                 2 * iq + d * ir + 2 * iqt + d * irt, "=", Fraction(d))
    return iq, ir, iqt, irt


def _verify_strichartz(tup: StrichartzTuple, params: ProblemParams,
                       dual_mode: str = "equality") -> ConstraintReport:
    d, a = params.d, params.alpha
    report = ConstraintReport()
    iq, ir, iqt, irt = _check_pairs(
        report, d, ("q", "r", "q~", "r~"),
        (tup.q, tup.r, tup.q_tilde, tup.r_tilde), tup.s)
    if dual_mode == "equality":
        report.check("1/q~' = (alpha+1)/q", 1 - iqt, "=", (a + 1) * iq)
        report.check("alpha/q + alpha d/(2r) = 1",
                     a * iq + Fraction(a * d, 2) * ir, "=", Fraction(1))
    else:
        report.check("1/q~' > (alpha+1)/q", 1 - iqt, ">", (a + 1) * iq)
        report.check("alpha/q + alpha d/(2r) < 1",
                     a * iq + Fraction(a * d, 2) * ir, "<", Fraction(1))
    report.check("1/r~' = (alpha+1)/r", 1 - irt, "=", (a + 1) * ir)
    report.check("alpha/r < 1", a * ir, "<", Fraction(1))
    report.check("0 <= s", Fraction(0), "<=", tup.s)
    report.check("s < 1/2", tup.s, "<", Fraction(1, 2))
    return report


def _verify_theta(tup: ThetaTuple, params: ProblemParams) -> ConstraintReport:
    d, a = params.d, params.alpha
    th = tup.theta
    report = ConstraintReport()
    report.check("0 < theta", Fraction(0), "<", th)
    report.check("theta <= 1", th, "<=", Fraction(1))
    iq, ir, iqt, irt = _check_pairs(
        report, d, ("q_th", "r_th", "q~_th", "r~_th"),
        (tup.q_theta, tup.r_theta, tup.q_tilde_theta, tup.r_tilde_theta), tup.s)
    report.check("1/((alpha+1) q~_th') = theta/q_th",
                 Fraction(1 - iqt, a + 1), "=", th * iq)
    report.check("1/((alpha+1) r~_th') = theta/r_th + 2(1-theta)/(alpha d)",
                 Fraction(1 - irt, a + 1), "=", th * ir + Fraction(2 * (1 - th), a * d))
    report.check("alpha/q_th + alpha d/(2 r_th) = 1",
                 a * iq + Fraction(a * d, 2) * ir, "=", Fraction(1))
    report.check("alpha/r_th < 1", a * ir, "<", Fraction(1))
    return report


def _verify_subcritical(pair: SubcriticalPair, params: ProblemParams) -> ConstraintReport:
    d, a = params.d, params.alpha
    q, r = pair.q, pair.r
    iq, ir = _safe_reciprocal(q), _safe_reciprocal(r)  # a stored 0 fails below
    report = ConstraintReport()
    report.check("2/q + d/r = d/2", 2 * iq + d * ir, "=", Fraction(d, 2))
    report.check("(q, d) != (2, 2)", Fraction(1) if (q, d) != (2, 2) else Fraction(0),
                 "=", Fraction(1))
    report.check("1/q' > (alpha+1)/q", 1 - iq, ">", (a + 1) * iq)
    report.check("1/r' = (alpha+1)/r", 1 - ir, "=", (a + 1) * ir)
    report.check("q >= 2", q, ">=", Fraction(2))
    report.check("r >= 2", r, ">=", Fraction(2))
    return report


def _verify_aux(pair: AuxPair, params: ProblemParams, base) -> ConstraintReport:
    """Window checks on the base's (q, r), then identities on the stored 1/l, 1/p."""
    d, a = params.d, params.alpha
    q, r = ((base.q_theta, base.r_theta) if isinstance(base, ThetaTuple)
            else (base.q, base.r))
    report = ConstraintReport()
    report.check("p positive: alpha/r < 1", Fraction(a, r), "<", Fraction(1))
    report.check("l > 2: alpha d/(2r) < 1", Fraction(a * d, 2 * r), "<", Fraction(1))
    if not report.feasible:
        return report
    il, ip = _safe_reciprocal(pair.l), _safe_reciprocal(pair.p)  # a stored 0 fails below
    report.check("2/l + d/p = d/2", 2 * il + d * ip, "=", Fraction(d, 2))
    report.check("1/p' = 1/p + alpha/r", 1 - ip, "=", ip + Fraction(a, r))
    report.check("1/l' = 1/l + alpha/q", 1 - il, "=", il + Fraction(a, q))
    return report


def verify_tuple(tup, params: ProblemParams, base=None) -> ConstraintReport:
    """Exhaustive exact re-check of every raw condition a tuple claims.

    Independent of the closed forms used to build the tuple: only the stored
    exponents enter.  For an AuxPair, the companion tuple it was derived from
    must be supplied as ``base``.
    """
    if isinstance(tup, SubcriticalPair):
        return _verify_subcritical(tup, params)
    if isinstance(tup, StrichartzTuple):
        return _verify_strichartz(tup, params)
    if isinstance(tup, ThetaTuple):
        return _verify_theta(tup, params)
    if isinstance(tup, AuxPair):
        if base is None:
            raise ValueError("verifying an AuxPair requires its companion tuple")
        return _verify_aux(tup, params, base)
    raise TypeError(f"cannot verify object of type {type(tup).__name__}")
