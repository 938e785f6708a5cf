"""Conjugacies between maps of one topological class, via itinerary transfer.

The inverse branches phi_L, phi_R contract by lambda^-1, so the points of a
depth-n L/R word form a cylinder at most 2*lambda^-n wide, realized by
pulling I back through the word, J <- phi_s(J & [-1, f(c)]).  A table of
(x, h(x)), h o f0 = f1 o h, is a word tree grown on both maps at once: the
roots are the periodic points of f0 and f1 paired by word, and a child of
(x, y) is (phi0_s(x), phi1_s(y)), the conjugacy equation read backwards.
Each entry carries an enclosure of its distance from the exact pair: a
root's final bracket plus (|f^q(r) - r| + rounding) / (lambda^q - 1), a
child's (e + INVERSE_TOL) / lambda from its parent's e.  Verification
re-checks the commutation and the monotonicity of h; points whose orbits
enter the critical band are refused, never interpolated.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import NoPointError, OrbitRefusedError, PreconditionError
from .maps import (MAX_TERMS, P_MAX, TOL_C, PiecewiseMap, itinerary,
                   lambda_of, _pval)

INVERSE_TOL = 1e-13
INVERSE_MAX_ITER = 80
DEPTH_DEFAULT = 40
EPS = 2.0 ** -52        # spacing of the floats at 1


def inverse_branch(f: PiecewiseMap, y: float, side: str) -> float:
    """The unique x on the given branch with f(x) = y.

    Bisection bracket kept alongside Newton; branches are strictly
    monotone with |Df| > 1, so the residual bound 1e-13 pins x at least
    as tightly.
    """
    if side not in ("L", "R"):
        raise PreconditionError("side must be 'L' or 'R'")
    cv = f.critical_value
    if not -1.0 - 1e-12 <= y <= cv + 1e-12:
        raise PreconditionError(
            f"value {y!r} outside the branch image [-1, {cv!r}]")
    y = min(max(y, -1.0), cv)
    coeffs, dcoeffs = (f.left, f.dleft) if side == "L" else (f.right, f.dright)
    lo, hi = (-1.0, 0.0) if side == "L" else (0.0, 1.0)
    x = 0.5 * (lo + hi)
    for _ in range(INVERSE_MAX_ITER):
        res = float(_pval(coeffs, x)) - y
        if abs(res) < INVERSE_TOL or hi - lo < 1e-15:
            return x
        if (res > 0.0) == (side == "L"):
            hi = x
        else:
            lo = x
        d = float(_pval(dcoeffs, x))
        step = res / d if d != 0.0 else 0.0
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    return x


@dataclass(frozen=True)
class RealizedPoint:
    x: float
    bound: float
    word: str


def point_from_itinerary(f: PiecewiseMap, symbols,
                         n: int | None = None) -> RealizedPoint:
    """Realize the point whose depth-n itinerary is the given word: the
    midpoint of its cylinder, pulled back from I last symbol first (phi_R
    swaps the ends), or c when the word starts with C and f(c) lies in the
    cylinder of the rest.  An empty J & [-1, f(c)] before symbol i means
    no point realizes the word from i on: NoPointError with index i."""
    word = str(symbols)
    if set(word) - set("LCR"):
        raise PreconditionError("symbols must be L, C or R")
    if n is None:
        n = len(word)
    if not 1 <= n <= len(word):
        raise PreconditionError(f"depth {n} not in [1, {len(word)}]")
    word = word[:n]
    if "C" in word[1:]:
        raise PreconditionError(
            "C is only representable at index 0 (critical point itself)")
    lam = lambda_of(f)
    # the ends carry solver residuals, contracted: sum INVERSE_TOL/lam^k
    slack = INVERSE_TOL / (lam - 1.0)
    bound = max(2.0 * lam ** -n, lam ** -n + slack)
    cv = f.critical_value
    start = 1 if word[0] == "C" else 0
    lo, hi = -1.0, 1.0
    for i in range(n - 1, start - 1, -1):
        hi = min(hi, cv)
        if lo > hi:
            raise NoPointError(
                f"no point realizes {word!r} (the cylinder of its tail "
                f"after index {i} lies above f(c))", i)
        a, b = inverse_branch(f, lo, word[i]), inverse_branch(f, hi, word[i])
        lo, hi = (a, b) if word[i] == "L" else (b, a)
    if start and not lo - slack <= cv <= hi + slack:
        raise NoPointError(f"no point realizes {word!r} (f(c) is not in "
                           f"the cylinder of its tail)", 0)
    return RealizedPoint(0.0 if start else 0.5 * (lo + hi), bound, word)


@dataclass(frozen=True)
class ConjugateResult:
    y: float
    bound: float
    word: str


def _safe_word(f: PiecewiseMap, x: float, n: int) -> str:
    """The depth-n itinerary of x, refused when x's orbit enters the
    critical band (a C after index 0): there the word no longer determines
    a unique point at this depth."""
    word = itinerary(f, x, n)
    idx = word.find("C", 1)
    if idx >= 1:
        raise OrbitRefusedError(
            f"orbit of {x!r} enters the critical band at index {idx}", idx)
    return word


def conjugate_point(f0: PiecewiseMap, f1: PiecewiseMap, x: float,
                    n: int = DEPTH_DEFAULT) -> ConjugateResult:
    """h(x) for the conjugacy h with h o f0 = f1 o h, by word transfer;
    only orbit-safe points are conjugated (see ``_safe_word``)."""
    word = _safe_word(f0, x, n)
    rp = point_from_itinerary(f1, word, n)
    return ConjugateResult(rp.x, rp.bound, word)


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class TableEntry:
    x: float
    word: str
    y: float
    bound: float


@dataclass(frozen=True)
class ConjugacyTable:
    entries: tuple[TableEntry, ...]
    depth: int

    @classmethod
    def build(cls, f0: PiecewiseMap, f1: PiecewiseMap, min_count: int = 200,
              max_period: int = 8,
              depth: int = DEPTH_DEFAULT) -> "ConjugacyTable":
        """At least min_count entries, on generate_conjugacy_words' tree."""
        return cls.from_words(generate_conjugacy_words(
            f0, f1, min_count, max_period, depth), depth)

    @classmethod
    def from_words(cls, rows, depth: int) -> "ConjugacyTable":
        """The table of (x, word, e0, y, e1) rows; bound max(e0, e1)."""
        return cls(tuple(TableEntry(x, w, y, max(e0, e1))
                         for x, w, e0, y, e1 in sorted(rows)), depth)


@dataclass(frozen=True)
class ConjugacyReport:
    passed: bool
    max_residual: float
    argmax: float | None
    monotonic: bool
    coverage: int
    unmatched: int
    vacuous: bool
    residuals: tuple[float | None, ...]  # entry_residuals, one per entry


def entry_residuals(f0: PiecewiseMap, f1: PiecewiseMap,
                    table: ConjugacyTable) -> tuple[float | None, ...]:
    """Per-entry |f1(y) - y'| where y' is the tabled image of f0(x).

    The word set behind a table is shift-closed, so f0(x) is itself a
    tabled source up to realization error; entries whose image-of-source
    is not found within the matching window come back as None.
    """
    entries = table.entries
    xs = [e.x for e in entries]
    out: list[float | None] = []
    for e in entries:
        fx = f0.value(e.x)
        j = bisect.bisect_left(xs, fx)
        best, dist = None, float("inf")
        for cand in (j - 1, j, j + 1):
            if 0 <= cand < len(xs) and abs(xs[cand] - fx) < dist:
                best, dist = cand, abs(xs[cand] - fx)
        if best is None or dist > max(100.0 * e.bound, 1e-10):
            out.append(None)
        else:
            out.append(abs(f1.value(e.y) - entries[best].y))
    return tuple(out)


def verify_conjugacy(f0: PiecewiseMap, f1: PiecewiseMap,
                     table: ConjugacyTable, tol: float = 1e-8,
                     ) -> ConjugacyReport:
    """Commutation residuals |h(f0(x)) - f1(h(x))| over the table.

    h(f0(x)) is read off the table itself (see entry_residuals).
    Monotonicity of sources vs images is checked globally.
    """
    entries = table.entries
    if not entries:
        return ConjugacyReport(True, 0.0, None, True, 0, 0, True, ())
    xs = [e.x for e in entries]
    monotonic = all(xs[i] < xs[i + 1] for i in range(len(xs) - 1))
    monotonic &= all(entries[i].y < entries[i + 1].y
                     for i in range(len(entries) - 1))
    max_res, argmax, unmatched = 0.0, None, 0
    residuals = entry_residuals(f0, f1, table)
    for e, res in zip(entries, residuals):
        if res is None:
            unmatched += 1
        elif res > max_res:
            max_res, argmax = res, e.x
    passed = monotonic and max_res <= tol
    return ConjugacyReport(passed, max_res, argmax, monotonic,
                           len(entries), unmatched, False, residuals)


# ---------------------------------------------------------------------------
# word generation


def _periodic_roots(f: PiecewiseMap, max_period: int,
                    ) -> list[tuple[float, int, float]]:
    """Solutions of f^q(x) = x, q <= max_period, from the laps of f^q.

    The laps of f^q lie between -1, 1 and c's preimages of order < q.  On
    each f^q is monotone with |Df^q| >= lambda^q > 1, so it holds at most
    one root (Milnor & Thurston, LNM 1342): at an end where |f^q - id| <
    1e-13 (a hit) or inside when f^q - id changes sign across it (a
    bracket).  f^q has at least lambda^q laps, so the search is complete up
    to the lap budget MAX_TERMS, past which max_period is refused.  Three
    stages: bracket each q, bisect all periods' brackets in one
    _bisect_periods call, and keep the first of any roots within 1e-13 in
    one ordered pass (q ascending, each q's hits and then its brackets,
    each ascending), so a point first appears at its prime period.
    Returns (root, prime period, enclosure), sorted by root; the enclosure
    follows from |D(f^q - id)| >= lambda^q - 1 on a lap.
    """
    lam = lambda_of(f)
    if lam ** max_period > MAX_TERMS:
        raise PreconditionError(
            f"f^{max_period} has at least lambda^{max_period} = "
            f"{lam ** max_period:.3g} laps, more than MAX_TERMS={MAX_TERMS}")
    # ends[q - 1]: the lap ends of f^q, each order's preimages of c built
    # from the last order's new points in the branches' image [-1, f(c)];
    # a point that was already an end had its preimages built then
    cv = f.critical_value
    ends, pre = [np.array([-1.0, 0.0, 1.0])], np.zeros(1)
    for q in range(2, max_period + 1):
        pre = pre[pre <= cv]
        if ends[-1].size + 2 * pre.size > MAX_TERMS:
            raise PreconditionError(
                f"the lap ends of f^{q} could pass MAX_TERMS={MAX_TERMS}, "
                f"so max_period {max_period} is refused")
        pre = np.setdiff1d([inverse_branch(f, y, s)
                            for y in pre.tolist() for s in "LR"], ends[-1])
        ends.append(np.union1d(ends[-1], pre))
    # Horner at |x| <= 1 errs by at most gamma_2d sum|c_j| (Higham, 5.1);
    # sum j|c_j| bounds |Df|, by which each step's error grows later
    err = max(len(c) * EPS * sum(map(abs, c)) for c in (f.left, f.right))
    lip = max(sum(j * abs(a) for j, a in enumerate(c))
              for c in (f.left, f.right))
    # each q's hits, as brackets of width 0 and residual |g|, and its sign
    # changes, rows lo, hi and glo = f^q(lo) - lo; step q of f^q is one
    # f.value over the ends of f^max_period, which hold those of every q
    hits, brackets = [], []
    ys = ends[-1]
    for e in ends:
        ys = f.value(ys)
        g = ys[np.searchsorted(ends[-1], e)] - e
        h = np.flatnonzero(np.abs(g) < 1e-13)
        i = np.flatnonzero(g[:-1] * g[1:] < 0.0)
        hits.append(np.array((e[h], np.zeros(h.size), np.abs(g[h]))))
        brackets.append(np.array((e[i], e[i + 1], g[i])))
    roots: list[tuple[float, int, float]] = []   # sorted between batches
    for q, hit, found in zip(range(1, max_period + 1), hits,
                             _bisect_periods(f, brackets)):
        slack = err * sum(lip ** k for k in range(q)) + EPS
        scale = 1.0 / (lam ** q - 1.0)
        # each batch ascends, so a root only needs checking against the
        # kept roots beside it and the last one its batch kept.  The band
        # must exceed the spread of one point found at q and again at kq
        # (a few ulps) and stay below the closest distinct roots (1.46e-11
        # apart on the full tent at 19, the largest q its budget allows)
        for batch in (hit, found):
            new: list[tuple[float, int, float]] = []
            for x, w, r in zip(*batch.tolist()):
                j = bisect.bisect_left(roots, (x,))
                if (not new or x - new[-1][0] >= 1e-13) and all(
                        abs(s - x) >= 1e-13
                        for s, _, _ in roots[max(j - 1, 0):j + 1]):
                    new.append((x, q, w + (r + slack) * scale))
            roots += new
            roots.sort()
    return roots


def _bisect_periods(f: PiecewiseMap,
                    brackets: list[np.ndarray]) -> list[np.ndarray]:
    """Bisect all periods' brackets as one array: brackets[q - 1] holds
    period q's in its columns, rows lo, hi and glo = f^q(lo) - lo.  Returns
    each period's columns as mid, hi - lo and |f^q(mid) - mid|.

    The columns are laid out q ascending, so step s of f^q is one f.value
    over the suffix whose q >= s: a halving costs max q array calls, not
    sum q, and each bracket still takes q elementwise steps.  A bracket
    retires in the halving where its midpoint is its lo or hi, or at the
    60th.  Once a midpoint stops moving, later halvings leave its mid,
    hi - lo and f^q(mid) as they are (glo is never 0 and keeps its sign,
    and glo * g(hi) <= 0), so each result has the bits of a scalar
    bisection of 60 halvings, and none depends on the other brackets.  A
    column is overwritten as its bracket retires, after its last read.
    """
    out = np.concatenate(brackets, axis=1)
    starts = np.cumsum([b.shape[1] for b in brackets[:-1]])
    lo, hi, glo = out
    at = np.arange(lo.size)      # the active brackets' columns, ascending
    for k in range(61):
        if not at.size:
            break
        mid = 0.5 * (lo + hi)
        gm = f.value(mid)
        for m in np.searchsorted(at, starts).tolist():
            if m == at.size:
                break
            gm[m:] = f.value(gm[m:])
        gm -= mid
        done = (mid == lo) | (mid == hi) | (k == 60)
        if done.any():
            out[:, at[done]] = mid[done], (hi - lo)[done], np.abs(gm[done])
            keep = ~done
            lo, hi, glo, gm, mid, at = (
                a[keep] for a in (lo, hi, glo, gm, mid, at))
        left = glo * gm <= 0.0
        hi = np.where(left, mid, hi)
        lo, glo = np.where(left, lo, mid), np.where(left, glo, gm)
    return np.split(out, starts, axis=1)


def _periodic_points(f: PiecewiseMap, max_period: int,
                     depth: int) -> list[tuple[float, str, float]]:
    """(point, depth-word, enclosure), one per L/R word, from all periodic
    points of period <= max_period (_periodic_roots, which refuses a
    max_period past its lap budget).  Periods outside [1, P_MAX] and depths
    outside [1, MAX_TERMS] are refused before any orbit is walked."""
    if not (1 <= max_period <= P_MAX and 1 <= depth <= MAX_TERMS):
        raise PreconditionError(
            f"max_period must be >= 1 and <= {P_MAX} and depth >= 1 and <= "
            f"MAX_TERMS={MAX_TERMS}, got {max_period} and {depth}")
    # only the first q symbols are read off the orbit; the rest is the
    # periodic extension (forward iteration of a double root garbles
    # symbols once lambda^i swallows the last bits of precision).
    seen: set[str] = set()
    out = []
    for r, q, e in _periodic_roots(f, max_period):
        w = (itinerary(f, r, q) * (depth // q + 1))[:depth]
        if "C" not in w and w not in seen:
            seen.add(w)
            out.append((r, w, e))
    return out


def periodic_words(f: PiecewiseMap, max_period: int = 8,
                   depth: int = 60) -> tuple[str, ...]:
    """Depth-truncations of the itineraries of all periodic points.

    Points whose orbit passes through the critical band (the critical
    orbit itself, when periodic) carry a C symbol and are excluded: they
    are not representable by a pure L/R word.  Each point of an orbit has
    its own itinerary, so the set is closed under shift.
    """
    return tuple(w for _, w, _ in _periodic_points(f, max_period, depth))


def generate_conjugacy_words(f0: PiecewiseMap, f1: PiecewiseMap,
                             min_count: int, max_period: int, depth: int,
                             ) -> list[tuple[float, str, float, float, float]]:
    """At least min_count words, closed under shift, realized on both maps
    as (x, word, e0, y, e1) rows, e0 and e1 the enclosures of x and y.

    The roots pair the periodic points of f0 and f1 by word (NoPointError
    names a word of f0 that f1 lacks).  Whole generations of children with
    word s + w[:depth-1] follow: a word already tabled is not solved again,
    and a child f0 puts within TOL_C of c (its word needs a C) is skipped.
    """
    points1 = _periodic_points(f1, max_period, depth)
    # a self-table searches its map once; repr tells signed zeros apart
    points0 = (points1 if repr(f0) == repr(f1)
               else _periodic_points(f0, max_period, depth))
    ones = {w: (y, e) for y, w, e in points1}
    frontier = []
    for x, w, e0 in points0:
        if w not in ones:
            raise NoPointError(
                f"f1 has no periodic point with the word {w!r} of the "
                f"periodic point {x!r} of f0")
        frontier.append((x, w, e0) + ones[w])
    rows = list(frontier)
    seen = {w for _, w, *_ in rows}
    cv0, cv1 = f0.critical_value, f1.critical_value
    lam0, lam1 = lambda_of(f0), lambda_of(f1)
    level = 0
    while len(rows) < min_count:
        if level > 8 or not frontier:
            raise PreconditionError(
                f"word generation stalled at {len(rows)} < {min_count}")
        nxt = []
        for x, w, e0, y, e1 in frontier:
            for side in ("L", "R"):
                wz = side + w[:depth - 1]
                if wz in seen:
                    continue
                z = inverse_branch(f0, min(max(x, -1.0), cv0), side)
                if abs(z) < TOL_C:
                    continue
                if y > cv1 + 1e-12:
                    raise NoPointError(
                        f"no point of f1 realizes {wz!r}: the point "
                        f"{y!r} of its tail lies above f1(c)", 0)
                seen.add(wz)
                nxt.append((z, wz, (e0 + INVERSE_TOL) / lam0,
                            inverse_branch(f1, y, side),
                            (e1 + INVERSE_TOL) / lam1))
        frontier = sorted(nxt)
        rows += frontier
        level += 1
    return rows


# ---------------------------------------------------------------------------
# parameter regularity


@dataclass(frozen=True)
class LipschitzReport:
    constant: float
    bound_shape: float
    n_nodes: int


def lipschitz_estimate(tilde, x: float, t_grid=None) -> LipschitzReport:
    """Empirical Lipschitz constant of t -> h_t(x) over a sampled family.

    h_t conjugates the t = 0 sample to the t sample, by words of depth
    DEPTH_DEFAULT.  Reported next to
    sup|d/dt f_t| / (1 - lambda^-1), the shape of the a-priori bound (the
    constant in front is unknown, so nothing is asserted about the ratio).
    """
    ts = tuple(t_grid) if t_grid is not None else tilde.ts
    if len(ts) < 2:
        raise PreconditionError("need at least 2 grid nodes")
    word = _safe_word(tilde.map_at(0.0), x, DEPTH_DEFAULT)
    hs = [point_from_itinerary(tilde.map_at(t), word, DEPTH_DEFAULT).x
          for t in ts]
    constant = max(abs(hs[i + 1] - hs[i]) / abs(ts[i + 1] - ts[i])
                   for i in range(len(ts) - 1))
    sup_vel = max((s.velocity.sup_norm() for s in tilde.samples), default=0.0)
    lam = min((lambda_of(s.map) for s in tilde.samples), default=float("inf"))
    shape = sup_vel / (1.0 - 1.0 / lam) if lam > 1.0 else float("inf")
    return LipschitzReport(constant, shape, len(ts))
