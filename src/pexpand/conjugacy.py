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
from .maps import (P_MAX, TOL_C, PiecewiseMap, itinerary, lambda_of,
                   _on_branches, _pval)

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


def _periodic_roots(f: PiecewiseMap, max_period: int, grid_n: int = 40001,
                    ) -> list[tuple[float, int, float]]:
    """All solutions of f^q(x) = x, q <= max_period, by grid sign changes.

    |Df^q| > 1 rules out tangential roots, so every root is a transversal
    crossing of the diagonal; the grid only has to be finer than the lap
    width (~ lambda^-q).  One q's brackets are bisected as one array
    through f.value, bit for bit a scalar bisection, until no midpoint
    moves.  Returns (root, prime period, enclosure): q increases, so a
    point first appears at its prime period and later stages dedupe.
    |D(f^q - id)| >= lambda^q - 1 on a lap, whence the enclosure.
    """
    xs = np.linspace(-1.0, 1.0, grid_n)
    lam = lambda_of(f)
    # Horner at |x| <= 1 errs by at most gamma_2d sum|c_j| (Higham, 5.1);
    # sum j|c_j| bounds |Df|, by which each step's error grows later
    err = max(len(c) * EPS * sum(map(abs, c)) for c in (f.left, f.right))
    lip = max(sum(j * abs(a) for j, a in enumerate(c))
              for c in (f.left, f.right))
    roots: list[tuple[float, int, float]] = []   # kept sorted

    def add(r: float, q: int, bound: float):
        j = bisect.bisect_left(roots, (r,))
        if all(abs(s - r) >= 1e-9 for s, _, _ in roots[max(j - 1, 0):j + 1]):
            roots.insert(j, (r, q, bound))

    ys = xs.copy()
    for q in range(1, max_period + 1):
        ys = _on_branches(f.left, f.right, ys)
        g = ys - xs
        slack = err * sum(lip ** k for k in range(q)) + EPS
        scale = 1.0 / (lam ** q - 1.0)
        for i in np.flatnonzero(np.abs(g) < 1e-13):
            add(float(xs[i]), q, (abs(float(g[i])) + slack) * scale)
        i = np.flatnonzero(g[:-1] * g[1:] < 0.0)
        lo, hi, glo = xs[i], xs[i + 1], g[i]
        for k in range(61):
            mid = gm = 0.5 * (lo + hi)
            for _ in range(q):
                gm = f.value(gm)
            gm = gm - mid
            # once every midpoint is its lo or hi, no bracket moves again:
            # mid is the 0.5 (lo + hi) that 60 scalar halvings end with
            if k == 60 or ((mid == lo) | (mid == hi)).all():
                break
            left = glo * gm <= 0.0
            hi = np.where(left, mid, hi)
            lo, glo = np.where(left, lo, mid), np.where(left, glo, gm)
        for r, w, res in zip(mid.tolist(), (hi - lo).tolist(),
                             np.abs(gm).tolist()):
            add(r, q, w + (res + slack) * scale)
    return roots


def _periodic_points(f: PiecewiseMap, max_period: int,
                     depth: int) -> list[tuple[float, str, float]]:
    """(point, depth-word, enclosure), one per L/R word; periods outside
    [1, P_MAX] and depths below 1 are refused before any orbit is walked."""
    if not (1 <= max_period <= P_MAX and depth >= 1):
        raise PreconditionError(
            f"max_period must be >= 1 and <= {P_MAX} and depth >= 1, got "
            f"{max_period} and {depth}")
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
