"""The horizontality functional J, its cohomological counterpart alpha, and
the one-sided limit constants across the periodic manifold.

For a valid map f and a bounded direction v,

    J(f, v) = sum_{i>=0} v(f^i(c)) / Df^i(f(c)),

summed over the critical orbit.  When c is periodic with prime period p the
sum collapses to the first p terms (the convention Df_C = 1 at the return
makes the continuation geometric and it cancels); otherwise the series is
truncated with a certified geometric tail.  J(f, v) = 0 characterizes
directions tangent to the topological class of f: moving along them does
not break critical relations to first order.

alpha solves v = alpha o f - Df * alpha with alpha(c) = 0; J(f, v) equals
v(c) - alpha(f(c)), which gives every J value an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousPeriodicityError,
    DegenerateDirectionError,
    InternalConsistencyError,
    PreconditionError,
)
from .maps import (
    MAX_TERMS,
    P_MAX,
    TOL_C,
    DirectionField,
    MapFamily,
    PiecewiseMap,
    critical_orbit,
    detect_periodic_critical,
    family_eval,
    family_velocity,
    is_good,
    require_valid,
)

J_TOL = 1e-12      # default series truncation tolerance
ALPHA_TOL = 1e-12
HORIZONTAL_TOL = 1e-9  # |J| at or below this counts as horizontal
SIDE_TAIL = 1e-12  # summation floor for the C+- series


def a_priori_bound(f: PiecewiseMap, v: DirectionField) -> float:
    """|J(f, v)| <= sup|v| / (1 - 1/lambda_f), valid in both modes."""
    lam = require_valid(f).lambda_f
    return v.sup_norm() / (1.0 - 1.0 / lam)


def _within_budget(n: int) -> int:
    if n > MAX_TERMS:
        raise PreconditionError(
            f"series needs {n} terms, more than MAX_TERMS={MAX_TERMS}; "
            "lambda_f is too close to 1")
    return n


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionError(f"tolerance must be finite and > 0, got {tol!r}")


def _series_depth(f: PiecewiseMap, v: DirectionField,
                  tol: float) -> tuple[int, float]:
    """Depth n that truncates J's series within tol (0 if v = 0), and the
    certified geometric bound on the tail past it."""
    _check_tol(tol)
    lam = require_valid(f).lambda_f
    sup_v = v.sup_norm()
    if sup_v == 0.0:
        return 0, 0.0
    arg = sup_v / (tol * (1.0 - 1.0 / lam))
    n = 1 if arg <= 1.0 else _within_budget(
        max(1, math.ceil(math.log(arg) / math.log(lam))))
    return n, sup_v * lam ** (-n) / (1.0 - 1.0 / lam)


def _series(f: PiecewiseMap, v: DirectionField, n: int,
            tail: float) -> tuple[float, float, int]:
    """(sum, tail, k): the first k = n terms v(x_i)/P_i on the raw orbit, or
    k < n when x_k lands exactly on c, which ends the sum exactly (tail 0)."""
    if n == 0:
        return 0.0, 0.0, 0
    orb = critical_orbit(f, n)
    terms = [v.value(x) / p for x, p in zip(orb.points, orb.products)]
    return math.fsum(terms), tail if len(terms) == n else 0.0, len(terms)


def j_periodic_sum(f: PiecewiseMap, v: DirectionField, p: int) -> float:
    """Finite p-term value of J, the exact form when c has period p."""
    if p < 1:
        raise PreconditionError("period must be >= 1")
    return _series(f, v, p, 0.0)[0]


def j_series_sum(f: PiecewiseMap,
                 v: DirectionField) -> tuple[float, float, int]:
    """Truncated series value within J_TOL, with certified geometric tail
    bound."""
    return _series(f, v, *_series_depth(f, v, J_TOL))


@dataclass(frozen=True)
class JResult:
    """One evaluation of J; ``value`` is None exactly in the ambiguous case.

    In periodic mode n_terms is the period and tail_bound is 0.  In the
    ambiguous case (a residual inside the hysteresis band) both readings
    are preserved in ``candidates`` as (mode, value) pairs, because the
    two sides of the periodic manifold carry genuinely different values.
    """

    value: float | None
    mode: str  # "periodic" | "series" | "ambiguous"
    n_terms: int
    tail_bound: float
    period: int | None = None
    candidates: tuple[tuple[str, float], ...] = ()

    def require_value(self) -> float:
        if self.value is None:
            raise AmbiguousPeriodicityError(
                "J is dual-valued here (periodicity in the hysteresis band); "
                f"candidates: {self.candidates}", self.candidates)
        return self.value


def j_functional(f: PiecewiseMap, v: DirectionField,
                 tol: float = J_TOL) -> JResult:
    """Evaluate J(f, v) with certified truncation.

    The critical orbit is classified first; the truncation depth for the
    series route also caps the periodicity search, so an exact return to
    c inside the summation window is always detected rather than summed
    across.
    """
    n, tail = _series_depth(f, v, tol)
    if n == 0:
        return JResult(0.0, "series", 0, 0.0)
    det = detect_periodic_critical(f, p_max=max(P_MAX, n))
    if det.clean and det.period is not None:
        return JResult(j_periodic_sum(f, v, det.period), "periodic",
                       det.period, 0.0, det.period)
    series, tail, n = _series(f, v, n, tail)
    if det.clean:
        return JResult(series, "series", n, tail)
    q = min(q for q, _ in det.ambiguous)
    if det.period is not None:
        q = min(q, det.period)
    return JResult(None, "ambiguous", n, tail, q,
                   (("periodic", j_periodic_sum(f, v, q)),
                    ("series", series)))


# ---------------------------------------------------------------------------
# alpha


@dataclass(frozen=True)
class AlphaSolution:
    """Pointwise evaluator for the solution of v = alpha o f - Df * alpha.

    alpha(c) = 0 by convention.  Points whose orbit reaches the critical
    band get the exact finite sum (the series terminates there); all other
    points get the geometric truncation.
    """

    f: PiecewiseMap
    v: DirectionField
    tol: float
    lam: float
    sup_v: float
    n_max: int

    @property
    def bound(self) -> float:
        return self.sup_v / (self.lam - 1.0)

    def value(self, x):
        """alpha at a float, or at every point of an ndarray as one orbit.

        Each point accumulates v(y)/Df^i until its orbit enters the band
        |y| < TOL_C (the exact finite form: k = min{i > 0 : f^i(x) = c}) or
        n_max terms are summed; points starting in the band get 0.  A float
        goes through the same loop as a one-point array, and comes back as a
        float.
        """
        y = np.array(x, dtype=float, ndmin=1)
        at_c = np.abs(y) < TOL_C
        live = np.flatnonzero(~at_c)
        total = np.zeros_like(y)
        prod = np.ones_like(y)
        for _ in range(self.n_max):
            if live.size == 0:
                break
            ys = y[live]
            prod[live] *= self.f.deriv(ys)
            total[live] += self.v.value(ys) / prod[live]
            ys = self.f.value(ys)
            y[live] = ys
            live = live[np.abs(ys) >= TOL_C]
        out = -total
        out[at_c] = 0.0
        return out if isinstance(x, np.ndarray) else float(out[0])


def alpha(f: PiecewiseMap, v: DirectionField, tol: float = ALPHA_TOL) -> AlphaSolution:
    _check_tol(tol)
    lam = require_valid(f).lambda_f
    sup_v = v.sup_norm()
    if sup_v == 0.0:
        return AlphaSolution(f, v, tol, lam, 0.0, 0)
    n = max(1, math.ceil(math.log(sup_v / (tol * (lam - 1.0))) / math.log(lam)))
    return AlphaSolution(f, v, tol, lam, sup_v, _within_budget(n))


def grid_size(n: int) -> int:
    """n, refused unless a grid of n nodes can reach both of its ends."""
    if n < 2:
        raise PreconditionError(f"a grid needs at least 2 points, got {n}")
    return n


def uniform_grid(n: int) -> np.ndarray:
    """n equally spaced points -1 + i*2/(n-1) covering I; n >= 2."""
    step = 2.0 / (grid_size(n) - 1)
    return -1.0 + np.arange(n, dtype=float) * step


@dataclass(frozen=True)
class CohomologyReport:
    max_residual: float
    argmax: float
    points: np.ndarray  # the grid points kept, outside the critical band
    alpha: np.ndarray   # alpha at those points

    @property
    def n_points(self) -> int:
        return self.points.size


def check_twisted_cohomology(f: PiecewiseMap, v: DirectionField,
                             sol: AlphaSolution | None = None,
                             n: int = 201) -> CohomologyReport:
    """Max residual of v(x) - alpha(f(x)) + Df(x) alpha(x) over
    ``uniform_grid(n)``.

    Grid points inside the critical band are dropped (Df is one-sided there
    and alpha is pinned to 0 by convention); the ends -1 and 1 always stay.
    The report carries the points kept and alpha at each of them.
    """
    if sol is None:
        sol = alpha(f, v)
    xs = uniform_grid(n)
    xs = xs[np.abs(xs) >= TOL_C]
    a = sol.value(xs)
    r = np.abs(v.value(xs) - sol.value(f.value(xs)) + f.deriv(xs) * a)
    i = int(np.argmax(r))
    return CohomologyReport(float(r[i]), float(xs[i]), xs, a)


# ---------------------------------------------------------------------------
# horizontality and the parameter/phase identity


@dataclass(frozen=True)
class HorizontalityResult:
    horizontal: bool
    j: JResult
    v_at_c: float
    alpha_at_fc: float
    identity_gap: float


def horizontality(f: PiecewiseMap, v: DirectionField) -> HorizontalityResult:
    """Decide |J(f, v)| <= HORIZONTAL_TOL via the series and via
    v(c) = alpha(f(c)), both within J_TOL.

    The two routes share no code path beyond orbit evaluation, so their
    agreement is used as a live internal-consistency check: disagreement
    beyond the combined certified error margins raises.
    """
    j = j_functional(f, v)
    jv = j.require_value()
    v_c = v.value(0.0)
    sol = alpha(f, v, tol=J_TOL)
    a_fc = sol.value(f.critical_value)
    gap = abs(jv - (v_c - a_fc))
    allowed = 10.0 * (j.tail_bound + J_TOL) + 1e-10
    if gap > allowed:
        raise InternalConsistencyError(
            f"J={jv!r} disagrees with v(c)-alpha(f(c))={v_c - a_fc!r} "
            f"(gap {gap:.3e} > allowed {allowed:.3e})")
    return HorizontalityResult(abs(jv) <= HORIZONTAL_TOL, j, v_c, a_fc, gap)


@dataclass(frozen=True)
class PhaseConsistency:
    quotient: float
    j: JResult
    gap: float


def param_phase_consistency(F: MapFamily, t0: float, k: int,
                            observable: DirectionField | None = None,
                            ) -> PhaseConsistency:
    """Compare the depth-k parameter derivative quotient with J.

    The quotient is d/dt[f_t^k(c)] / Df^{k-1}(f(c)) with the numerator
    computed by the exact chain-rule sum over the critical orbit, never
    by finite differences.  With the family's own velocity this is an
    identity at the prime period and a geometrically convergent
    approximation otherwise; an explicit ``observable`` replaces the
    velocity to probe the same identity for general fields.
    """
    if k < 1:
        raise PreconditionError("depth k must be >= 1")
    f = family_eval(F, t0)
    v = observable if observable is not None else family_velocity(F, t0)
    orb = critical_orbit(f, k)
    back = [i for i in range(1, k) if abs(orb.points[i]) < TOL_C]
    if back:
        raise PreconditionError(
            f"critical orbit returns to c at step {back[0]} < k={k}")
    p_top = orb.products[k - 1]
    deriv_t = math.fsum((p_top / orb.products[i]) * v.value(orb.points[i])
                        for i in range(k))
    quotient = deriv_t / p_top
    j = j_functional(f, v)
    return PhaseConsistency(quotient, j, abs(quotient - j.require_value()))


# ---------------------------------------------------------------------------
# one-sided constants across the periodic manifold


@dataclass(frozen=True)
class SideConstants:
    c_plus: float
    c_minus: float
    two_beta: float
    bracket: tuple[float, float]
    sigma_plus_prefix: str
    sigma_minus_prefix: str
    period: int
    multiplier: float


def _shadow_sum(mult: float, d_left: float, d_right: float,
                seed: int) -> tuple[float, str]:
    """Sum the one-sided constant by propagating the shadowing side signs.

    A perturbed orbit re-approaches c through sides s_1, s_2, ... with
    s_{j+1} = s_j * sign(mult * Df_side(s_j)); the i-th series term divides
    by mult and by the one-sided slope chosen at step i.  Signs become
    eventually constant, so the series is geometric with ratio 1/(2 beta)
    in magnitude and the 1e-12 tail floor is reached quickly.  The first 8
    sides are returned as an L/R prefix.
    """
    total, term, s = 1.0, 1.0, seed
    prefix = []
    i = 0
    while abs(term) > SIDE_TAIL * 1e-3 and i < 400:
        d_side = d_right if s > 0 else d_left
        if len(prefix) < 8:
            prefix.append("R" if s > 0 else "L")
        term /= mult * d_side
        total += term
        s *= 1 if mult * d_side > 0 else -1
        i += 1
    return total, "".join(prefix)


def side_constants(f: PiecewiseMap) -> SideConstants:
    """C+ and C-: the two limits of J(f_theta, v)/J(f, v) across the manifold.

    Requires a good map with periodic critical point; goodness gives
    2 beta > 2 which underwrites geometric convergence of both series.
    """
    good = is_good(f)
    if good.period is None:
        raise PreconditionError("side constants need a periodic critical point")
    if not good.good:
        raise PreconditionError(
            f"map is not good (margin {good.margin!r}); the one-sided "
            "series has no convergence certificate")
    p = good.period
    orb = critical_orbit(f, p)
    mult = orb.products[p - 1]
    d_left, d_right = f.df_minus, f.df_plus
    c_plus, sig_p = _shadow_sum(mult, d_left, d_right, +1)
    c_minus, sig_m = _shadow_sum(mult, d_left, d_right, -1)
    two_beta = abs(mult) * min(abs(d_left), abs(d_right))
    lo = (two_beta - 2.0) / (two_beta * (two_beta - 1.0))
    hi = two_beta / (two_beta - 1.0)
    for name, c in (("C+", c_plus), ("C-", c_minus)):
        if not (c > 0.0 and lo - 1e-9 <= c <= hi + 1e-9):
            raise InternalConsistencyError(
                f"{name}={c!r} escapes the bracket [{lo!r}, {hi!r}]")
    return SideConstants(c_plus, c_minus, two_beta, (lo, hi),
                         sig_p, sig_m, p, mult)


# ---------------------------------------------------------------------------
# kernel projection


@dataclass(frozen=True)
class KernelProjection:
    d: float
    field: DirectionField
    j_v: JResult
    j_w: JResult
    residual: float


def default_tol_w(w: DirectionField) -> float:
    # below this |J(f, w)| the kernel slope -J(v)/J(w) is numerically
    # meaningless, so transversality is refused rather than divided by
    return 1e-8 * w.sup_norm()


def kernel_projection(f: PiecewiseMap, v: DirectionField,
                      w: DirectionField) -> KernelProjection:
    """Slope d = -J(f,v)/J(f,w) and the projected field v + d w in Ker J."""
    tol_w = default_tol_w(w)
    j_w = j_functional(f, w)
    jw = j_w.require_value()
    if abs(jw) <= tol_w:
        raise DegenerateDirectionError(
            f"|J(f, w)| = {abs(jw):.3e} <= tol_w = {tol_w:.3e}")
    j_v = j_functional(f, v)
    d = -j_v.require_value() / jw
    projected = v.add(w.scale(d))
    residual = j_functional(f, projected).require_value()
    return KernelProjection(d, projected, j_v, j_w, abs(residual))
