"""Parameter sweeps with transition localization, and the workflows that
orchestrate the deformation machinery into shippable experiments."""

import math
from dataclasses import dataclass

import numpy as np

from .deform import (DeformationTrace, PeriodicContinuation,
                     continue_periodic, find_periodic_theta,
                     integrate_deformation)
from .errors import (InternalConsistencyError, NewtonDivergenceError,
                     PreconditionError)
from .functional import default_tol_w, j_functional
from .maps import (KNEADING_DEPTH, P_MAX, DirectionField, FamilyTerm,
                   MapFamily, PiecewiseMap, aux_dictionary, critical_relations,
                   detect_periodic_critical, family_eval, family_velocity,
                   iterates, kneading)

J_ZERO_TOL = 1e-7        # |J| below this floor counts as "vanishes"
TRANSITION_WIDTH = 1e-8


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class ScanRecord:
    t: float
    kneading: str
    relations: tuple[tuple[int, int], ...]
    j_value: float | None
    j_tail: float
    j_candidates: tuple[float, ...]
    classification: str  # "periodic:p" | "nonperiodic" | "ambiguous" | "error"
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Transition:
    t_lo: float
    t_hi: float
    t_star: float
    width: float
    kinds: tuple[str, ...]  # subset of ("kneading", "relations")
    localized: bool
    method: str             # "newton" | "bisection" | "grid"
    evaluations: int        # maps assembled to localize it


@dataclass(frozen=True)
class ScanResult:
    records: tuple[ScanRecord, ...]
    transitions: tuple[Transition, ...]
    max_abs_j: float | None
    threshold: float
    consistent: bool     # no transitions <=> max|J| under threshold

    @property
    def in_class(self) -> bool:
        return not self.transitions


def _node(at, t: float, kneading_depth: int) -> ScanRecord:
    """The record of the node t, whose map and velocity are ``at(t)``; every
    classifier reads the map's one orbit of c."""
    try:
        f, v = at(t)
        kn = kneading(f, kneading_depth)
        rel = critical_relations(f)
        det = detect_periodic_critical(f)
        j = j_functional(f, v)
    except PreconditionError as exc:
        return ScanRecord(t, "", (), None, 0.0, (), "error",
                          (f"error:{type(exc).__name__}",))
    flags = []
    if not det.clean:
        flags.append("ambiguous-period")
    if rel.ambiguous:
        flags.append("ambiguous-relations")
    if j.value is None:
        flags.append("ambiguous-j")
    if det.period is not None:
        cls = f"periodic:{det.period}"
    elif det.ambiguous:
        cls = "ambiguous"
    else:
        cls = "nonperiodic"
    return ScanRecord(t, kn, rel.relations, j.value, j.tail_bound,
                      tuple(val for _, val in j.candidates), cls,
                      tuple(flags))


def _require_in_domain(t: float, lo: float, hi: float) -> None:
    if not lo <= t <= hi:
        raise PreconditionError(
            f"grid point t = {t!r} outside family domain [{lo}, {hi}]")


def _signature(F: MapFamily, t: float, kneading_depth: int):
    try:  # only polynomial families are localized; the velocity is not needed
        f = family_eval(F, t)
        return kneading(f, kneading_depth), critical_relations(f).relations
    except PreconditionError:
        return None


def _crossing_index(a: ScanRecord, b: ScanRecord) -> int | None:
    """First differing kneading index i of a kneading-only change with L/R
    at both ends, so that t -> f_t^i(c) changes sign across [a.t, b.t]."""
    if a.relations != b.relations:
        return None
    i = next((k for k, (x, y) in enumerate(zip(a.kneading, b.kneading))
              if x != y), None)
    if i is None or a.kneading[i] == "C" or b.kneading[i] == "C":
        return None
    return i


def _newton_crossing(F: MapFamily, t_lo: float, t_hi: float, i: int,
                     rises: bool, width: float, cap: int):
    """Zero of g(t) = f_t^i(c) in [t_lo, t_hi] by Newton kept inside the
    bracket (Numerical Recipes' rtsafe, 9.4): a step that would leave the
    bracket, or is longer than half the step before last, is replaced by a
    bisection of the bracket.

    ``rises`` says g < 0 at t_lo and g > 0 at t_hi (read off the kneading
    symbols, so the ends are not evaluated).  g'(t) is the chain-rule sum
    d_{k+1} = Df(x_k) d_k + v_t(x_k), d_0 = 0, along x_k = f_t^k(c).
    Returns (root estimate or None, maps assembled); None when an iterate is
    invalid, the orbit hits c exactly, a step no longer moves t (the width
    is below the float spacing there), or ``cap`` iterations do not bring
    the step under width/8.
    """
    neg, pos = (t_lo, t_hi) if rises else (t_hi, t_lo)
    t = 0.5 * (t_lo + t_hi)
    step = step_old = t_hi - t_lo
    for n in range(1, cap + 1):
        try:
            f, v = family_eval(F, t), family_velocity(F, t)
            xs = iterates(f, i)
            if 0.0 in xs[1:]:
                return None, n
            d = v.value(0.0)
            for x in xs[1:i]:
                d = f.deriv(x) * d + v.value(x)
        except PreconditionError:
            return None, n
        g = xs[i]
        if g < 0.0:
            neg = t
        else:
            pos = t
        newton = g / d if d != 0.0 else math.inf
        t_old = t
        if (min(neg, pos) <= t - newton <= max(neg, pos)
                and abs(2.0 * g) <= abs(step_old * d)):
            step_old, step = step, newton
            t -= step
        else:
            step_old, step = step, 0.5 * (pos - neg)
            t = neg + step
        if abs(step) <= 0.125 * width:
            return t, n
        if t == t_old:
            return None, n
    return None, cap


def _localize(F: MapFamily, a: ScanRecord, b: ScanRecord, width: float,
              kneading_depth: int) -> Transition:
    """Narrow the change between nodes a and b to at most ``width``.

    A kneading-only change with L/R at its first differing index i is a
    sign change of f_t^i(c): its root is found by `_newton_crossing` and
    the bracket [t* - width/4, t* + width/4] (clipped to the grid
    interval) is confirmed by two signatures.  Anything else, or a failed
    or unconfirmed root, is bisected on the signature.  Endpoint
    signatures come from the node records, which are the same values.
    """
    evaluations = 0
    i = _crossing_index(a, b)
    if i is not None and b.t - a.t > width:
        cap = math.ceil(math.log2((b.t - a.t) / width))  # bisection's count
        t_star, evaluations = _newton_crossing(
            F, a.t, b.t, i, a.kneading[i] == "L", width, cap)
        if t_star is not None:
            t_lo = max(a.t, t_star - 0.25 * width)
            t_hi = min(b.t, t_star + 0.25 * width)
            sig_lo = _signature(F, t_lo, kneading_depth)
            sig_hi = _signature(F, t_hi, kneading_depth)
            evaluations += 2
            if None not in (sig_lo, sig_hi) and sig_lo != sig_hi:
                return Transition(t_lo, t_hi, 0.5 * (t_lo + t_hi),
                                  t_hi - t_lo, _changed(sig_lo, sig_hi),
                                  t_hi - t_lo <= width, "newton", evaluations)
    t_lo, t_hi = a.t, b.t
    sig_lo, sig_hi = (a.kneading, a.relations), (b.kneading, b.relations)
    while t_hi - t_lo > width:
        mid = 0.5 * (t_lo + t_hi)
        if not t_lo < mid < t_hi:
            break  # adjacent floats: a width below their spacing is unmet
        sig_mid = _signature(F, mid, kneading_depth)
        evaluations += 1
        if sig_mid == sig_lo:
            t_lo = mid
        else:
            t_hi, sig_hi = mid, sig_mid
    # an interval can hold several change points; report what actually
    # differs across the final bracket (the nodes' change if its end failed)
    kinds = _changed(sig_lo, (b.kneading, b.relations) if sig_hi is None
                     else sig_hi)
    return Transition(t_lo, t_hi, 0.5 * (t_lo + t_hi), t_hi - t_lo, kinds,
                      t_hi - t_lo <= width, "bisection", evaluations)


def _changed(sig_a, sig_b) -> tuple[str, ...]:
    return tuple(k for k, changed in (
        ("kneading", sig_a[0] != sig_b[0]),
        ("relations", sig_a[1] != sig_b[1])) if changed)


def run_scan(family, t_grid=None, *, kneading_depth: int = KNEADING_DEPTH,
             localize: bool = True,
             width: float = TRANSITION_WIDTH) -> ScanResult:
    """Per-node diagnostics over a grid, with class-transition localization.

    A transition is an adjacent pair whose depth-30 kneading prefix or
    canonical relation set differs.  On polynomial families it is narrowed
    to the requested width: a kneading-only change by safeguarded Newton
    on the orbit point whose symbol flips, confirmed by two signatures,
    and everything else (relation changes, a C symbol, a failed or
    unconfirmed root) by bisection on the signature.  Each transition
    records its method and the maps assembled for it.  Sampled families
    cannot be evaluated between nodes, so their transitions keep the grid
    width and are marked unlocalized.  Node failures become error records
    and the scan continues; the A<=>D diagnostic (no transitions <=>
    max|J| under max(10*tail, J_ZERO_TOL)) is recorded, not enforced.
    Depths, widths and grids that no scan could use are refused before any
    node is evaluated; the grid must increase strictly.
    """
    if kneading_depth < 1:
        raise PreconditionError(
            f"kneading depth must be >= 1, got {kneading_depth}")
    if not (math.isfinite(width) and width > 0.0):
        raise PreconditionError(
            f"transition width must be finite and > 0, got {width!r}")
    # a polynomial family evaluates anywhere, a sampled one (``samples``
    # with t, map and velocity) only at its stored nodes
    continuous = isinstance(family, MapFamily)
    if continuous:
        lo, hi = family.domain

        def at(t: float):
            return family_eval(family, t), family_velocity(family, t)
    elif hasattr(family, "samples"):
        by_t = {s.t: (s.map, s.velocity) for s in family.samples}
        at = by_t.__getitem__
        lo, hi = min(by_t), max(by_t)
    else:
        raise PreconditionError(f"cannot scan a {type(family).__name__}")
    if t_grid is None:
        if continuous:
            raise PreconditionError("a polynomial family needs a t grid")
        grid = sorted(by_t)
    else:
        grid = [float(t) for t in t_grid]
    for t in grid:
        _require_in_domain(t, lo, hi)
        if not continuous and t not in by_t:
            raise PreconditionError(
                f"sampled family has no node at t = {t!r}")
    for s, t in zip(grid, grid[1:]):
        if not s < t:
            raise PreconditionError(
                f"grid must increase strictly, got t = {s!r} then {t!r}")
    if not grid:
        return ScanResult((), (), None, J_ZERO_TOL, True)

    records = [_node(at, t, kneading_depth) for t in grid]

    transitions = []
    for a, b in zip(records, records[1:]):
        if a.classification == "error" or b.classification == "error":
            continue
        kinds = _changed((a.kneading, a.relations), (b.kneading, b.relations))
        if not kinds:
            continue
        if continuous and localize:
            transitions.append(_localize(family, a, b, width,
                                         kneading_depth))
        else:
            w = b.t - a.t
            transitions.append(Transition(
                a.t, b.t, 0.5 * (a.t + b.t), w, kinds, w <= width, "grid", 0))

    mags = []
    max_tail = 0.0
    for r in records:
        if r.classification == "error":
            continue
        max_tail = max(max_tail, r.j_tail)
        if r.j_value is not None:
            mags.append(abs(r.j_value))
        elif r.j_candidates:
            mags.append(max(abs(c) for c in r.j_candidates))
    max_abs_j = max(mags) if mags else None
    threshold = max(J_ZERO_TOL, 10.0 * max_tail)
    consistent = True
    if max_abs_j is not None:
        consistent = (not transitions) == (max_abs_j <= threshold)
    return ScanResult(tuple(records), tuple(transitions), max_abs_j,
                      threshold, consistent)


# ---------------------------------------------------------------------------
# workflows


def auto_transversal(f: PiecewiseMap) -> DirectionField:
    """First dictionary direction with |J(f, w)| above the division floor."""
    for w in aux_dictionary():
        jr = j_functional(f, w)
        if jr.value is not None and abs(jr.value) > default_tol_w(w):
            return w
    raise PreconditionError(
        "no transversal direction in the auxiliary dictionary")


def tangent_deformation(f: PiecewiseMap, v: DirectionField,
                        w: DirectionField | None = None, *,
                        tangent_tol: float = 1e-8) -> DeformationTrace:
    """Deformation trace for the straight family f + t v, |t| <= 0.02,
    through f tangent to v.

    v must satisfy J(f, v) = 0 within tangent_tol (that is what makes the
    family tangent to the topological class); w defaults to the first
    transversal dictionary entry.  The integrated trace must come out
    flat at the origin, |b'(0)| < 1e-8, or the run aborts.
    """
    jr = j_functional(f, v)
    residual = abs(jr.require_value())
    if residual > tangent_tol:
        raise PreconditionError(
            f"direction is not tangent: |J(f, v)| = {residual:.3e} "
            f"exceeds {tangent_tol:.3e}")
    if w is None:
        w = auto_transversal(f)
    fam = MapFamily(f, (FamilyTerm(v),))
    trace = integrate_deformation(fam, w)
    if abs(trace.slope0) >= 1e-8:
        raise InternalConsistencyError(
            f"tangent family drifts: |b'(0)| = {abs(trace.slope0):.3e}")
    return trace


@dataclass(frozen=True)
class LadderRung:
    period: int
    theta0: float
    continuation: PeriodicContinuation
    distance: float


@dataclass(frozen=True)
class ApproximationLadder:
    rungs: tuple[LadderRung, ...]
    decreasing: bool
    partial: bool
    base_period: int | None


def _sup_distance(trace: DeformationTrace, cont: PeriodicContinuation,
                  w_norm: float) -> float:
    b = {n.t: n.b for n in trace.nodes}
    gaps = [abs(n.theta - b[n.t]) for n in cont.nodes if n.t in b]
    if len(gaps) < 2:
        raise InternalConsistencyError(
            "continuation and reference trace share fewer than 2 nodes")
    return max(gaps) * w_norm


def continuation_ladder(F: MapFamily, w: DirectionField | None = None, *,
                        periods: tuple[int, ...] = (7, 8, 9, 10)
                        ) -> ApproximationLadder:
    """Periodic-critical families closing in on an in-class family.

    The family must show no transition on a 41-node scan of its domain.
    For each requested period p (2 to P_MAX), a root theta_p of g^p(c) = c
    is hunted from 12 log-spaced seed magnitudes in [1e-4, 0.08] on both
    sides of 0 and continued in t, in 10 fixed steps per side, alongside
    the reference deformation f~_t = f_t + b(t) w.  A rung g_t = f_t +
    theta(t) w differs from it by exactly (theta(t) - b(t)) w, so its
    distance is max |theta - b| over shared nodes times the exact
    C^{k-1} norm of w (``DirectionField.c_norm``).  If
    the base critical point is already periodic the ladder is the single
    trivial rung theta = 0 at distance 0, which is complete as it stands;
    otherwise fewer than 2 roots marks the result partial, not failed.
    """
    lo, hi = F.domain
    if not lo < 0.0 < hi:
        raise PreconditionError("family domain must contain t = 0")
    if any(not 2 <= p <= P_MAX for p in periods):
        raise PreconditionError(f"ladder periods must be >= 2 and <= "
                                f"{P_MAX}, got {list(periods)}")
    sweep = run_scan(F, np.linspace(lo, hi, 41), localize=False)
    if sweep.transitions:
        raise PreconditionError(
            f"family is not in-class: {len(sweep.transitions)} "
            f"transition(s) inside [{lo}, {hi}]")
    base = family_eval(F, 0.0)
    if w is None:
        w = auto_transversal(base)
    h = max(abs(lo), hi) / 10
    trace = integrate_deformation(F, w, h0=h, adaptive=False)
    w_norm = w.c_norm(F.base.k - 1)

    rungs = []
    det = detect_periodic_critical(base)
    if det.period is not None:
        cont = continue_periodic(F, w, det.period, 0.0, h=h)
        rungs.append(LadderRung(det.period, 0.0, cont,
                                _sup_distance(trace, cont, w_norm)))
    else:
        prev = None
        for p in periods:
            root = None
            for mag in np.geomspace(1e-4, 0.08, 12):
                for seed in (-float(mag), float(mag)):
                    try:
                        cand = find_periodic_theta(F, w, p, theta0=seed)
                    except (PreconditionError, NewtonDivergenceError):
                        continue
                    if cand.period == p and (
                            prev is None or abs(cand.theta) < abs(prev)):
                        root = cand
                        break
                if root is not None:
                    break
            if root is None:
                continue
            cont = continue_periodic(F, w, p, root.theta, h=h)
            rungs.append(LadderRung(p, root.theta, cont,
                                    _sup_distance(trace, cont, w_norm)))
            prev = root.theta
    dists = [r.distance for r in rungs]
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    partial = det.period is None and len(rungs) < 2
    return ApproximationLadder(tuple(rungs), decreasing, partial, det.period)
