"""Conjugacies between maps of one topological class, via itinerary transfer.

A point whose orbit stays clear of the critical band is pinned down by its
L/R itinerary: backward composition of the (uniformly expanding) inverse
branches contracts any seed interval by lambda^-1 per symbol, so a depth-n
word determines the point to 2*lambda^-n.  Transferring the word from f0
to f1 evaluates the conjugacy h with h o f0 = f1 o h on a table of safe
points; verification re-checks the commutation numerically and the
monotonicity that characterizes h as an orientation-preserving
homeomorphism.  Points whose orbits do enter the band are refused, never
interpolated.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import NoPointError, OrbitRefusedError, PreconditionError
from .maps import (
    TOL_C,
    PiecewiseMap,
    itinerary,
    iterates,
    lambda_of,
    orbit,
    _on_branches,
    _pval,
)

INVERSE_TOL = 1e-13
INVERSE_MAX_ITER = 80
ADMIT_TOL = 1e-9
DEPTH_DEFAULT = 40


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
    increasing = side == "L"
    x = 0.5 * (lo + hi)
    for _ in range(INVERSE_MAX_ITER):
        res = float(_pval(coeffs, x)) - y
        if abs(res) < INVERSE_TOL or hi - lo < 1e-15:
            return x
        if (res > 0.0) == increasing:
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
    """Realize the point whose depth-n itinerary is the given word.

    Backward inverse-branch composition from the interior anchor 0, each
    intermediate clamped into the reachable set [-1, f(c)]; the forward
    itinerary of the result is then required to reproduce the word, so a
    word no point realizes (the clamp lied somewhere) raises NoPointError
    with the first disagreeing index.
    """
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
    # Each branch maps its half onto [-1, f(c)], so a word fails exactly
    # when the backward chain asks for a preimage of a value above f(c):
    # the clamp then engages by more than solver noise.  Clamping by a
    # rounding-level amount happens on admissible words too (chain values
    # ARE orbit points, some of them at f(c) itself).
    excess = 0.0
    if word[0] == "C":
        x = 0.0
    else:
        cv = f.critical_value
        z = 0.0
        for s in reversed(word):
            excess = max(excess, z - cv)
            z = inverse_branch(f, min(max(z, -1.0), cv), s)
        x = z
    # Forward verification.  Inverse solves leave ~1e-13 residuals that
    # forward iteration amplifies by lambda per step, so a disagreement
    # only witnesses inadmissibility while the orbit point clears that
    # accumulated error (or the chain was truncated by the clamp); past
    # the first sub-resolution index the tail is accepted uncertified.
    lam = lambda_of(f)
    amp = 10.0 * INVERSE_TOL * lam / (lam - 1.0) + TOL_C
    truncated = excess > ADMIT_TOL
    for i, (s, z) in enumerate(zip(word, orbit(f, x))):
        here = "C" if abs(z) < TOL_C else ("L" if z < 0.0 else "R")
        if here != s:
            if truncated or abs(z) > amp:
                raise NoPointError(
                    f"no point realizes {word!r} (orbit of best candidate "
                    f"is {here!r} at index {i})", i)
            break
        amp *= lam
    return RealizedPoint(x, 2.0 * lam ** (-n), word)


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
    def from_words(cls, f0: PiecewiseMap, f1: PiecewiseMap, words,
                   depth: int = DEPTH_DEFAULT) -> "ConjugacyTable":
        rows = []
        for w in words:
            rx = point_from_itinerary(f0, w, depth)
            ry = point_from_itinerary(f1, w, depth)
            rows.append(TableEntry(rx.x, rx.word, ry.x,
                                   max(rx.bound, ry.bound)))
        rows.sort(key=lambda e: e.x)
        return cls(tuple(rows), depth)

    def sources(self) -> tuple[float, ...]:
        return tuple(e.x for e in self.entries)

    def images(self) -> tuple[float, ...]:
        return tuple(e.y for e in self.entries)


@dataclass(frozen=True)
class ConjugacyReport:
    passed: bool
    max_residual: float
    argmax: float | None
    monotonic: bool
    coverage: int
    unmatched: int
    vacuous: bool


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
        return ConjugacyReport(True, 0.0, None, True, 0, 0, True)
    xs = [e.x for e in entries]
    monotonic = all(xs[i] < xs[i + 1] for i in range(len(xs) - 1))
    monotonic &= all(entries[i].y < entries[i + 1].y
                     for i in range(len(entries) - 1))
    max_res, argmax, unmatched = 0.0, None, 0
    for e, res in zip(entries, entry_residuals(f0, f1, table)):
        if res is None:
            unmatched += 1
        elif res > max_res:
            max_res, argmax = res, e.x
    passed = monotonic and max_res <= tol
    return ConjugacyReport(passed, max_res, argmax, monotonic,
                           len(entries), unmatched, False)


# ---------------------------------------------------------------------------
# word generation


def _periodic_roots(f: PiecewiseMap, max_period: int,
                    grid_n: int = 40001) -> list[tuple[float, int]]:
    """All solutions of f^q(x) = x, q <= max_period, by grid sign changes.

    |Df^q| > 1 rules out tangential roots, so every root is a transversal
    crossing of the diagonal; the grid only has to be finer than the lap
    width (~ lambda^-q).  Returns (root, prime period) pairs: q increases,
    so a point first appears at its prime period and later stages dedupe.
    """
    xs = np.linspace(-1.0, 1.0, grid_n)
    roots: list[tuple[float, int]] = []

    def add(r: float, q: int):
        for seen, _ in roots:
            if abs(seen - r) < 1e-9:
                return
        roots.append((r, q))

    ys = xs.copy()
    for q in range(1, max_period + 1):
        ys = _on_branches(f.left, f.right, ys)
        g = ys - xs
        for i in np.flatnonzero(np.abs(g) < 1e-13):
            add(float(xs[i]), q)
        for i in np.flatnonzero(g[:-1] * g[1:] < 0.0):
            lo, hi = float(xs[i]), float(xs[i + 1])
            glo = float(g[i])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                gm = iterates(f, q, mid)[q] - mid
                if glo * gm <= 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            add(0.5 * (lo + hi), q)
    roots.sort()
    return roots


def _periodic_points(f: PiecewiseMap, max_period: int,
                     depth: int) -> list[tuple[float, str]]:
    """(point, depth-word) pairs of the periodic points, one per L/R word."""
    # only the first q symbols are read off the orbit; the rest is the
    # periodic extension (forward iteration of a double root garbles
    # symbols once lambda^i swallows the last bits of precision).
    seen: set[str] = set()
    out = []
    for r, q in _periodic_roots(f, max_period):
        w = (itinerary(f, r, q) * (depth // q + 1))[:depth]
        if "C" not in w and w not in seen:
            seen.add(w)
            out.append((r, w))
    return out


def periodic_words(f: PiecewiseMap, max_period: int = 8,
                   depth: int = 60) -> tuple[str, ...]:
    """Depth-truncations of the itineraries of all periodic points.

    Points whose orbit passes through the critical band (the critical
    orbit itself, when periodic) carry a C symbol and are excluded: they
    are not representable by a pure L/R word.  Each point of an orbit has
    its own itinerary, so the set is closed under shift.
    """
    return tuple(w for _, w in _periodic_points(f, max_period, depth))


def generate_conjugacy_words(f: PiecewiseMap, min_count: int = 200,
                             max_period: int = 8,
                             depth: int = 60) -> tuple[str, ...]:
    """At least min_count admissible words, closed under shift.

    The periodic words are extended by whole generations of inverse-branch
    preimages: the word of a preimage is its branch symbol prepended to
    the parent's word, so the shift of every included word is included.
    Preimages landing inside the critical neighborhood are skipped (their
    words would need a C).
    """
    frontier = _periodic_points(f, max_period, depth)
    seen = {w for _, w in frontier}
    out = [w for _, w in frontier]
    cv = f.critical_value
    level = 0
    while len(out) < min_count:
        if level > 8 or not frontier:
            raise PreconditionError(
                f"word generation stalled at {len(out)} < {min_count}")
        nxt: list[tuple[float, str]] = []
        for x, w in frontier:
            for side in ("L", "R"):
                z = inverse_branch(f, min(max(x, -1.0), cv), side)
                if abs(z) < 1e-9:
                    continue
                wz = side + w[:depth - 1]
                if wz in seen:
                    continue
                seen.add(wz)
                nxt.append((z, wz))
                out.append(wz)
        frontier = sorted(nxt)
        level += 1
    return tuple(out)


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
    sup_vel = 0.0
    lam = float("inf")
    for s in tilde.samples:
        sup_vel = max(sup_vel, s.velocity.sup_norm())
        lam = min(lam, lambda_of(s.map))
    shape = sup_vel / (1.0 - 1.0 / lam) if lam > 1.0 else float("inf")
    return LipschitzReport(constant, shape, len(ts))
