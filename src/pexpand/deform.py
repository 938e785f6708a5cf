"""Topology-preserving deformations f~_t = f_t + b(t) w.

The scalar field d(t, theta) = -J(f_t + theta w, v_t) / J(f_t + theta w, w)
is the unique slope that keeps the velocity of the corrected family inside
the kernel of J.  Integrating db/dt = d(t, b), b(0) = 0 with a classical
4th-order one-step scheme produces b; when the base map carries a periodic
critical relation the flow preserves it to integrator accuracy, and the
same curve can be reached independently by predictor-corrector continuation
of the relation itself (``continue_periodic``).

Near the periodic manifold the numerator and denominator of d individually
jump (one-sided constants C+-) but the jump factor cancels in the ratio.
Evaluating the pair in mixed modes still leaves a small crease that caps
the integrator at second order, so inside ``MANIFOLD_BAND`` both J values
are taken as matched finite periodic sums, the analytic continuation of
the ratio across the manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AmbiguousPeriodicityError,
    DegenerateDirectionError,
    InvalidMapError,
    KneadingDriftError,
    NewtonDivergenceError,
    PreconditionError,
)
from .functional import (
    default_tol_w,
    j_periodic_sum,
    j_series_sum,
)
from .maps import (
    KNEADING_DEPTH,
    P_MAX,
    DirectionField,
    MapFamily,
    PiecewiseMap,
    critical_orbit,
    critical_relations,
    detect_periodic_critical,
    family_eval,
    family_velocity,
    is_good,
    iterates,
    kneading,
    validate,
)

MANIFOLD_BAND = 1e-3   # |f^p(c) - c| below this: evaluate J as matched p-term sums
ODE_TOL = 1e-9         # per-step local error bound (Richardson estimate)
H0 = 1e-3              # initial / maximal step
H_MIN = 1e-8           # step underflow -> truncate trace
NEWTON_TOL = 1e-12
CLAMP_SLACK = 1e-12    # boundary overshoot absorbed by a b-nudge


@dataclass(frozen=True)
class SlopeValue:
    d: float
    mode: str            # "periodic-pair" | "series-pair"
    j_v: float
    j_w: float
    residual: float      # |j_v + d * j_w|, roundoff-level by construction
    manifold_residual: float | None  # |f^p(c) - c| when a period is tracked


def _node_at(nodes, t: float):
    """The node (or sample) of a result whose t is within 1e-12 of t."""
    for n in nodes:
        if abs(n.t - t) <= 1e-12:
            return n
    raise PreconditionError(f"no node at t={t!r}")


def _sweep(t_range: tuple[float, float], center, x0, h0: float, h_min: float,
           advance, failures: tuple[type[Exception], ...]):
    """(nodes, truncated) over t_range: ``center``, and each side from t = 0.

    ``advance(t, x, h, t_next)`` returns the node at t_next and its state x,
    starting from x0, or raises one of ``failures``: the step then halves,
    and the side stops once it would fall below h_min.  Accepted steps
    double back up to h0.
    """
    truncated = []

    def side(t_end: float) -> list:
        out = []
        t, x = 0.0, x0
        sign = 1.0 if t_end > 0.0 else -1.0
        h = sign * h0
        while sign * (t_end - t) > 1e-15:
            t_next = t + h
            if sign * t_next >= sign * t_end:
                h, t_next = t_end - t, t_end
            try:
                node, x = advance(t, x, h, t_next)
            except failures as e:
                if abs(h) / 2.0 < h_min:
                    truncated.append(("right" if sign > 0 else "left",
                                      f"step underflow at node {len(out)} "
                                      f"(t={t!r}): {e}"))
                    break
                h /= 2.0
                continue
            out.append(node)
            t = t_next
            h = sign * min(abs(h) * 2.0, h0)
        return out

    t_lo, t_hi = t_range
    right = side(t_hi) if t_hi > 0.0 else []
    left = side(t_lo) if t_lo < 0.0 else []
    return tuple(reversed(left)) + (center,) + tuple(right), tuple(truncated)


def slope_field(F: MapFamily, w: DirectionField, t: float, theta: float,
                relation_period: int | None = None,
                band: float = MANIFOLD_BAND) -> SlopeValue:
    """Kernel slope d(t, theta) with the matched-mode policy near the manifold.

    With ``relation_period`` p given and the assembled map within ``band``
    of the relation, both J values are p-term periodic sums; otherwise the
    classification of the assembled map decides (a hysteresis-band
    ambiguity also resolves to the matched periodic pair, whose ratio is
    the continuous reading).  |J(f, w)| at or below ``default_tol_w(w)``
    is refused as degenerate.
    """
    tol_w = default_tol_w(w)
    g = family_eval(F, t, w=w, theta=theta)
    v = family_velocity(F, t)
    # g's one orbit gives the residual, the classification and both sums
    manifold_res = p_used = None
    if relation_period is not None:
        orb = critical_orbit(g, relation_period)
        manifold_res = abs(orb.points[relation_period])
        if manifold_res < band:
            p_used = relation_period
    if p_used is None:
        det = detect_periodic_critical(g)
        qs = [det.period] if det.period is not None else []
        p_used = min(qs + [q for q, _ in det.ambiguous], default=None)
    if p_used is None:
        jv, jw = j_series_sum(g, v)[0], j_series_sum(g, w)[0]
    else:
        jv, jw = j_periodic_sum(g, v, p_used), j_periodic_sum(g, w, p_used)
    mode = "series-pair" if p_used is None else "periodic-pair"
    if abs(jw) <= tol_w:
        raise DegenerateDirectionError(
            f"|J(f,w)| = {abs(jw):.3e} <= tol_w = {tol_w:.3e} at "
            f"(t, theta) = ({t!r}, {theta!r})")
    d = -jv / jw
    return SlopeValue(d, mode, jv, jw, abs(jv + d * jw), manifold_res)


# ---------------------------------------------------------------------------
# the kernel ODE


@dataclass(frozen=True)
class TraceNode:
    t: float
    b: float
    d: float
    j_residual: float
    relation_residual: float | None
    step: float
    step_error: float
    clamped: bool
    at_boundary: bool
    mode: str


@dataclass(frozen=True)
class DeformationTrace:
    family: MapFamily
    w: DirectionField
    nodes: tuple[TraceNode, ...]
    relation_period: int | None
    canonical_relations: tuple[tuple[int, int], ...]
    slope0: float
    ode_tol: float
    truncated: tuple[tuple[str, str], ...]  # (side, reason) entries

    @property
    def ts(self) -> tuple[float, ...]:
        return tuple(n.t for n in self.nodes)

    def node_at(self, t: float) -> TraceNode:
        return _node_at(self.nodes, t)

    def map_at(self, t: float) -> PiecewiseMap:
        n = self.node_at(t)
        return family_eval(self.family, n.t, w=self.w, theta=n.b)


def integrate_deformation(F: MapFamily, w: DirectionField,
                          t_range: tuple[float, float] | None = None,
                          h0: float = H0, ode_tol: float = ODE_TOL,
                          h_min: float = H_MIN,
                          adaptive: bool = True) -> DeformationTrace:
    """Integrate db/dt = d(t, b(t)), b(0) = 0 over t_range.

    Steps are accepted when the Richardson estimate |b_h - b_{h/2}|/15 of
    the local error stays under ode_tol (with ``adaptive=False`` plain
    fixed steps are taken, for order measurements).  Validity failures of
    trial maps trigger the same halving; at h_min the trace truncates with
    the reason.  A critical value overshooting 1 by at most CLAMP_SLACK is
    pulled back by nudging b (reported per node); anything larger is a
    validity stop.
    """
    if t_range is None:
        t_range = F.domain
    t_lo, t_hi = t_range
    if not t_lo <= 0.0 <= t_hi:
        raise PreconditionError("t_range must contain 0 (where b = 0)")
    f0 = family_eval(F, 0.0)
    good0 = is_good(f0)
    if not good0.good:
        raise PreconditionError(
            f"base map is not good (margin {good0.margin!r})")
    p_rel = good0.period
    canonical = critical_relations(f0).canonical
    depth = max((j for _, j in canonical), default=0)
    w0 = w.value(0.0)

    dom_lo, dom_hi = F.domain
    slopes: dict[tuple[float, float], SlopeValue] = {}

    def d_of(t: float, b: float) -> SlopeValue:
        # stage times can overshoot the domain edge by one rounding ulp
        t = min(max(t, dom_lo), dom_hi)
        # each (t, b) once: a step's k1 is its start node's slope (clamped
        # or not), shared by the big step, the first half step and retries
        if (t, b) not in slopes:
            slopes[t, b] = slope_field(F, w, t, b, relation_period=p_rel)
        return slopes[t, b]

    def rk4(t: float, b: float, h: float) -> float:
        k1 = d_of(t, b).d
        k2 = d_of(t + h / 2.0, b + h * k1 / 2.0).d
        k3 = d_of(t + h / 2.0, b + h * k2 / 2.0).d
        k4 = d_of(t + h, b + h * k3).d
        return b + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    def make_node(t: float, b: float, h: float, err: float) -> TraceNode:
        clamped = at_boundary = False
        g = family_eval(F, t, w=w, theta=b)
        excess = g.critical_value - 1.0
        if excess > 0.0:
            if w0 == 0.0:
                raise InvalidMapError(
                    "critical value exceeds 1 and w(c) = 0 cannot clamp it",
                    validate(g))
            b -= excess / w0
            clamped = True
            g = family_eval(F, t, w=w, theta=b)
        if abs(g.critical_value - 1.0) <= CLAMP_SLACK:
            at_boundary = True
        sv = d_of(t, b)
        xs = iterates(g, depth)
        rel = max((abs(xs[i] - xs[j]) for i, j in canonical), default=None)
        return TraceNode(t, b, sv.d, sv.residual, rel, h, err,
                         clamped, at_boundary, sv.mode)

    def advance(t: float, b: float, h: float, t_next: float):
        if adaptive:
            b_big = rk4(t, b, h)
            b_mid = rk4(t, b, h / 2.0)
            b_new = rk4(t + h / 2.0, b_mid, h / 2.0)
            err = abs(b_big - b_new) / 15.0
            if err > ode_tol:
                raise _Reject("local error above ode_tol")
        else:
            b_new = rk4(t, b, h)
            err = math.nan
        node = make_node(t_next, b_new, h, err)
        return node, node.b

    sv0 = d_of(0.0, 0.0)
    center = make_node(0.0, 0.0, 0.0, 0.0)
    nodes, truncated = _sweep(
        t_range, center, 0.0, h0, h_min, advance,
        (_Reject, InvalidMapError, DegenerateDirectionError))
    return DeformationTrace(F, w, nodes, p_rel, canonical, sv0.d,
                            ode_tol, truncated)


class _Reject(Exception):
    pass


# ---------------------------------------------------------------------------
# the corrected family


@dataclass(frozen=True)
class TildeSample:
    t: float
    map: PiecewiseMap
    velocity: DirectionField


@dataclass(frozen=True)
class TildeFamily:
    samples: tuple[TildeSample, ...]
    kneading: str
    trace: DeformationTrace

    @property
    def ts(self) -> tuple[float, ...]:
        return tuple(s.t for s in self.samples)

    def map_at(self, t: float) -> PiecewiseMap:
        return _node_at(self.samples, t).map


def build_tilde_family(F: MapFamily, w: DirectionField,
                       trace: DeformationTrace) -> TildeFamily:
    """Materialize f~_t = f_t + b(t) w at the trace nodes and certify.

    Every sample must validate, and the depth-KNEADING_DEPTH kneading
    prefix must match the base sample's.  A mismatch means the accepted
    steps were too loose to preserve the topological class: it raises
    KneadingDriftError with the sample's index.
    """
    samples = []
    base = kneading(family_eval(F, 0.0, check=False), KNEADING_DEPTH)
    for idx, node in enumerate(trace.nodes):
        g = family_eval(F, node.t, w=w, theta=node.b)
        vel = family_velocity(F, node.t).add(w.scale(node.d))
        samples.append(TildeSample(node.t, g, vel))
        kn = kneading(g, KNEADING_DEPTH)
        if kn != base:
            raise KneadingDriftError(
                f"kneading prefix changed at sample {idx} (t={node.t!r}): "
                f"{kn} vs {base}", idx)
    return TildeFamily(tuple(samples), base, trace)


# ---------------------------------------------------------------------------
# periodic relations: root finding and continuation


@dataclass(frozen=True)
class ThetaRoot:
    theta: float
    residual: float
    iterations: int
    period: int
    margin: float
    map: PiecewiseMap


def _newton(F: MapFamily, w: DirectionField, p: int, t: float, theta: float,
            max_iter: int):
    """Newton root of theta -> f_{(t,theta)}^p(c) - c to NEWTON_TOL: theta,
    its map g, the orbit c..g^p(c), and the iterations used.

    The derivative is the exact chain-rule value Df^{p-1}(f(c)) * J_p(g, w);
    trial points that assemble to invalid maps are damped back toward the
    current iterate.
    """
    g = family_eval(F, t, w=w, theta=theta)
    for it in range(1, max_iter + 1):
        orb = critical_orbit(g, p)
        xs = orb.points
        if abs(xs[p]) < NEWTON_TOL:
            return theta, g, xs, it
        if len(orb.products) < p:
            raise NewtonDivergenceError(
                f"critical orbit returns to c at step {orb.truncated_at} < {p}")
        dG = orb.products[p - 1] * j_periodic_sum(g, w, p)
        if abs(dG) < 1e-14:
            raise NewtonDivergenceError(
                f"degenerate derivative {dG!r} at theta={theta!r}")
        step = -xs[p] / dG
        for _ in range(9):
            try:
                g_new = family_eval(F, t, w=w, theta=theta + step)
                break
            except InvalidMapError:
                step /= 2.0
        else:
            raise NewtonDivergenceError(
                f"no valid map along the Newton direction from theta={theta!r}")
        theta += step
        g = g_new
    raise NewtonDivergenceError(f"no convergence after {max_iter} iterations "
                                f"at t={t!r} (residual {xs[p]!r})")


def _require_prime_period(g: PiecewiseMap, p: int, theta: float) -> None:
    """Refuse a root g whose critical point returns to c before step p,
    as ``detect_periodic_critical`` reads it: a return in the hysteresis
    band is ambiguous, else one within TOL_C is a lower prime period."""
    det = detect_periodic_critical(g, max(p, 2))
    if det.ambiguous:
        raise AmbiguousPeriodicityError(
            f"prime-period check ambiguous at q={det.ambiguous[0][0]}",
            det.ambiguous[:1])
    if det.period < p:
        raise PreconditionError(
            f"root at theta={theta!r} has prime period {det.period} < {p}")


def find_periodic_theta(F: MapFamily, w: DirectionField, p: int,
                        theta0: float = 0.0, t: float = 0.0) -> ThetaRoot:
    """Newton root of theta -> f_{(t,theta)}^p(c) - c (see ``_newton``),
    in at most 50 iterations.

    The converged root must have prime period p.
    """
    if not 2 <= p <= P_MAX:
        raise PreconditionError(f"period must be >= 2 and <= {P_MAX}")
    theta, g, xs, it = _newton(F, w, p, t, theta0, 50)
    _require_prime_period(g, p, theta)
    margin = is_good(g).margin
    return ThetaRoot(theta, abs(xs[p]), it, p, margin, g)


@dataclass(frozen=True)
class ContinuationNode:
    t: float
    theta: float
    slope: float
    residual: float
    newton_iterations: int


@dataclass(frozen=True)
class PeriodicContinuation:
    p: int
    theta0: float
    family: MapFamily
    w: DirectionField
    nodes: tuple[ContinuationNode, ...]
    truncated: tuple[tuple[str, str], ...]

    @property
    def ts(self) -> tuple[float, ...]:
        return tuple(n.t for n in self.nodes)

    def node_at(self, t: float) -> ContinuationNode:
        return _node_at(self.nodes, t)

    def map_at(self, t: float) -> PiecewiseMap:
        n = self.node_at(t)
        return family_eval(self.family, n.t, w=self.w, theta=n.theta)

    def fd_slope_gaps(self) -> tuple[float, ...]:
        """|finite-difference slope - predictor slope| at interior nodes.

        Five-point stencil on uniform runs; the curve's third derivative is
        large enough near the manifold that a 3-point difference would
        drown the comparison in its own truncation error.
        """
        out = []
        n = self.nodes
        for i in range(2, len(n) - 2):
            hs = [n[j + 1].t - n[j].t for j in range(i - 2, i + 2)]
            if any(abs(x - hs[0]) > 1e-12 for x in hs):
                continue
            fd = (-n[i + 2].theta + 8.0 * n[i + 1].theta
                  - 8.0 * n[i - 1].theta + n[i - 2].theta) / (12.0 * hs[0])
            out.append(abs(fd - n[i].slope))
        return tuple(out)


def continue_periodic(F: MapFamily, w: DirectionField, p: int, theta0: float,
                      h: float = H0) -> PeriodicContinuation:
    """Predictor-corrector continuation of the period-p critical relation
    over the family's domain.

    Euler predictor with slope -J_p(g, v_t)/J_p(g, w), Newton corrector
    (at most 30 iterations) back onto f^p(c) = c at each node.  The prime
    period must be p at the centre, or nothing is continued, and must stay
    p: a change aborts the side and records the node index.
    """
    if not 1 <= p <= P_MAX:
        raise PreconditionError(f"period must be >= 1 and <= {P_MAX}")
    t_lo, t_hi = F.domain
    if not t_lo <= 0.0 <= t_hi:
        raise PreconditionError("family domain must contain t = 0")

    def slope_at(t: float, theta: float) -> float:
        return slope_field(F, w, t, theta, relation_period=p,
                           band=math.inf).d

    def advance(t: float, prev: ContinuationNode, h: float, t_next: float):
        guess = prev.theta + h * prev.slope
        theta, g, xs, iters = _newton(F, w, p, t_next, guess, 30)
        _require_prime_period(g, p, theta)
        node = ContinuationNode(t_next, theta, slope_at(t_next, theta),
                                abs(xs[p]), iters)
        return node, node

    g = family_eval(F, 0.0, w=w, theta=theta0)
    xs = iterates(g, p)
    if abs(xs[p]) > 10.0 * NEWTON_TOL:
        theta0, g, xs, _ = _newton(F, w, p, 0.0, theta0, 30)
    _require_prime_period(g, p, theta0)
    res0 = abs(xs[p])
    center = ContinuationNode(0.0, theta0, slope_at(0.0, theta0), res0, 0)
    # the corrector keeps the step h: any failed node ends its side
    nodes, truncated = _sweep(
        F.domain, center, center, h, h, advance,
        (PreconditionError, NewtonDivergenceError))
    return PeriodicContinuation(p, theta0, F, w, nodes, truncated)


# ---------------------------------------------------------------------------
# transversality


@dataclass(frozen=True)
class TransversalReport:
    chain_value: float
    fd_value: float
    gap: float


def transversal_derivative(F: MapFamily, p: int) -> TransversalReport:
    """d/dt[f_t^p(c)] at t = 0, where c is period p, two independent ways.

    Chain-rule value Df^{p-1}(f(c)) * J_p(f, v_0) against a central
    difference of t -> f_t^p(c) with step 1e-6; their gap quantifies the
    exactness of the velocity bookkeeping.
    """
    f = family_eval(F, 0.0)
    det = detect_periodic_critical(f)
    if not det.clean or det.period != p:
        raise PreconditionError(
            f"critical point is not cleanly period-{p} at t = 0 "
            f"(detected {det.period!r})")
    orb = critical_orbit(f, p)
    chain = orb.products[p - 1] * j_periodic_sum(
        f, family_velocity(F, 0.0), p)
    h = 1e-6
    g_hi = family_eval(F, h, check=False)
    g_lo = family_eval(F, -h, check=False)
    fd = (iterates(g_hi, p)[p] - iterates(g_lo, p)[p]) / (2.0 * h)
    return TransversalReport(chain, fd, abs(chain - fd))
