"""Piecewise expanding unimodal maps on I = [-1, 1] and families thereof.

Conventions used throughout the package:

* A map has two polynomial branches in the monomial basis, ``left`` on
  [-1, 0] and ``right`` on [0, 1], stored as ascending coefficient
  tuples.  The constant terms are shared: both branches evaluate to the
  critical value at the turning point c = 0.
* Valid maps fix the boundary (f(-1) = f(1) = -1), expand on each
  branch (Df > 1 on the left, Df < -1 on the right) and keep the
  critical value inside the interval (f(0) <= 1).
* lambda_f denotes the certified lower bound for min |Df| over I.
* Orbits are raw float orbits.  One band, |x| < TOL_C, decides "returns
  to c" in every layer.  Symbols: L left of c, R right of c, C inside
  the band.  Once an orbit point enters the band its symbols continue as
  c's, so itineraries of maps with a periodic critical point are
  genuinely periodic instead of drifting on float noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguousPeriodicityError,
    CertificationError,
    InvalidMapError,
    PreconditionError,
)

D_MAX = 16                # maximum branch polynomial degree
TOL_C = 1e-9              # half-width of the critical band
HYSTERESIS = 10.0         # ambiguity band is [TOL_C, HYSTERESIS*TOL_C)
BOUNDARY_SLACK = 1e-12    # allowed overshoot of f(0) above 1
ENDPOINT_TOL = 1e-9       # float slack for the boundary fixing check
P_MAX = 64                # deepest period the periodicity search tries
KNEADING_DEPTH = 30       # kneading prefix that certifies a topological class
RELATION_DEPTH = 8        # deepest orbit index a critical relation pairs
# Orbit budget: a J series depth, or an expansivity N0, grows like
# 1/(lambda_f - 1), so a valid map with lambda_f = 1+1e-9 would ask for
# ~5e10 steps; deeper requests are refused, not run.
MAX_TERMS = 10**6
MEMO_SIZE = 64            # values of t a family memoizes before emptying


def _coeffs(raw) -> tuple[float, ...]:
    out = tuple(float(v) for v in raw)
    if not out:
        raise ValueError("empty coefficient list")
    if len(out) - 1 > D_MAX:
        raise ValueError(f"branch degree {len(out) - 1} exceeds D_MAX={D_MAX}")
    if not all(math.isfinite(v) for v in out):
        raise ValueError("non-finite branch coefficient")
    return out


def _der(coeffs: tuple[float, ...], order: int) -> tuple[float, ...]:
    """Coefficients of the order-th derivative, with numpy polyder's arithmetic."""
    if order >= len(coeffs):
        return (coeffs[0] * 0,)
    for _ in range(order):
        coeffs = tuple(map(mul, range(1, len(coeffs)), coeffs[1:]))
    return coeffs


def _trim(c: tuple[float, ...]) -> tuple[float, ...]:
    """c without trailing zeros, keeping at least one (numpy's trimseq)."""
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def _axpy(a: tuple[float, ...], s: float,
          b: tuple[float, ...]) -> tuple[float, ...]:
    """a + s*b bit for bit as numpy ``polyadd(a, s*b)``, signed zeros too:
    both inputs trimmed, the shorter added onto the longer, the sum trimmed."""
    a, b = _trim(a), _trim(tuple(s * x for x in b))
    if len(a) < len(b):
        a, b = b, a
    return _trim(tuple(x + y for x, y in zip(a, b)) + a[len(b):])


def _pval(coeffs: tuple[float, ...], x):
    """Horner's rule on ascending coefficients, at a float or an ndarray.

    Seed and order are numpy polyval's (acc = c[-1] + x*0, then
    acc = c[i] + acc*x going down; Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1), so the bits agree with it, signed zeros
    included, without its per-call array conversion.
    """
    acc = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


def _onto_interval(x):
    """x with points just outside I snapped onto its ends; float or ndarray.

    A valid map may send -1 up to ENDPOINT_TOL below -1 and c up to
    BOUNDARY_SLACK above 1 (see validate), so orbits reach those points and
    they count as the ends of I.  Anything farther out, or NaN, is refused.
    """
    xs = np.asarray(x, dtype=float)
    inside = (xs >= -1.0 - ENDPOINT_TOL) & (xs <= 1.0 + BOUNDARY_SLACK)
    if not inside.all():
        bad = float(xs[~inside].flat[0])
        raise PreconditionError(f"point {bad} outside [-1, 1]")
    xs = np.maximum(np.minimum(xs, 1.0), -1.0)  # np.clip's bits, faster
    return xs if isinstance(x, np.ndarray) else float(xs)


def _on_branches(left: tuple[float, ...], right: tuple[float, ...], x):
    """The left polynomial at x < 0, the right one elsewhere; float or ndarray."""
    if isinstance(x, np.ndarray):
        return np.where(x < 0.0, _pval(left, x), _pval(right, x))
    return float(_pval(left if x < 0.0 else right, x))


def _stationary(p: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """Points in (lo, hi) where the polynomial p is stationary: real roots of
    p' without the leading terms too small to move it on a bounded interval."""
    dc = _der(p, 1)
    scale = max(map(abs, dc))
    n = len(dc) - 1
    while n and not abs(dc[n]) > scale * 1e-15:
        n -= 1
    roots = (-dc[0] / dc[1],) if n == 1 else ()
    if n == 2:  # x^2 + b x + c, whose |b|, |c| < 1e15 cannot overflow
        b, c = dc[1] / dc[2], dc[0] / dc[2]
        disc = b * b - 4.0 * c
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots = (q, c / q) if q else (0.0,)
    elif n > 2:  # no signed zero in the key, so equal keys mean equal bits
        roots = _eigen_roots(tuple(c + 0.0 for c in dc[:n + 1]))
    return [r for r in roots if lo < r < hi]


@lru_cache(maxsize=1)
def _eigen_roots(dc: tuple[float, ...]) -> tuple[float, ...]:
    """Real roots of dc: its companion matrix's eigenvalues (numpy's polyroots
    without its array checks), good to u*|matrix| only, so polished by Newton
    while its step shrinks; kept, as a map's two branches often share D2f."""
    n = len(dc) - 1
    m = np.eye(n, k=-1)
    m[:, -1] -= np.array(dc[:n]) / dc[n]
    dd, roots = _der(dc, 1), []
    for x in (r.real for r in np.linalg.eigvals(m).tolist()
              if abs(r.imag) < 1e-12):
        step, s = math.inf, _pval(dc, x) / (_pval(dd, x) or math.inf)
        while abs(s) < step:
            x, step = x - s, abs(s)
            s = _pval(dc, x) / (_pval(dd, x) or math.inf)
        roots.append(x)
    return tuple(roots)


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class PiecewiseMap:
    """Two-branch polynomial map; ``left`` acts on [-1,0], ``right`` on [0,1].

    Coefficients are ascending monomial coefficients.  ``k`` records the
    smoothness order the map is used at (branch polynomials are C^inf, so
    k only drives norm choices downstream).  Each instance keeps c's raw
    orbit as its readers grow it (see ``critical_points``).
    """

    left: tuple[float, ...]
    right: tuple[float, ...]
    k: int = 3
    dleft: tuple[float, ...] = field(init=False, repr=False, compare=False)
    dright: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "left", _coeffs(self.left))
        object.__setattr__(self, "right", _coeffs(self.right))
        object.__setattr__(self, "dleft", _der(self.left, 1))
        object.__setattr__(self, "dright", _der(self.right, 1))
        # c's raw orbit so far, not a field (equality and hashing ignore it):
        # f^i(c), and Df^i(f(c)) as critical_orbit extends them, never past
        # an exact return to c.  Set here, not on first read: an attribute
        # added later leaves the instances' shared attribute layout (slower)
        object.__setattr__(self, "_orbit", ([0.0], [1.0]))
        if self.k < 1:
            raise ValueError("smoothness order k must be >= 1")
        if self.left[0] != self.right[0]:
            raise ValueError("branches must share the critical value exactly")

    @property
    def critical_value(self) -> float:
        return self.left[0]

    def critical_points(self):
        """f^0(c), f^1(c), ...: the stored points, then new ones as read."""
        pts, value = self._orbit[0], self.value
        i = 0
        while True:
            if i == len(pts):
                pts.append(value(pts[-1]))
            yield pts[i]
            i += 1

    def value(self, x):
        """f(x) at a float, or elementwise at an ndarray of points."""
        if isinstance(x, np.ndarray) or not -1.0 <= x <= 1.0:
            return _on_branches(self.left, self.right, _onto_interval(x))
        return float(_pval(self.left if x < 0.0 else self.right, x))

    def deriv(self, x, *, side: str | None = None):
        """Df at a float, or elementwise at an ndarray; at x = 0 a side
        ('L' or 'R') is required, and an ndarray may not contain 0."""
        if isinstance(x, np.ndarray):
            if (x == 0.0).any():
                raise PreconditionError(
                    "derivative at the critical point needs a scalar x")
        elif x == 0.0:
            if side not in ("L", "R"):
                raise PreconditionError(
                    "derivative at the critical point needs side='L' or 'R'")
            return float(_pval(self.dleft if side == "L" else self.dright, x))
        return _on_branches(self.dleft, self.dright, x)

    @property
    def df_minus(self) -> float:
        """One-sided slope at c from the left (positive for valid maps)."""
        return self.deriv(0.0, side="L")

    @property
    def df_plus(self) -> float:
        """One-sided slope at c from the right (negative for valid maps)."""
        return self.deriv(0.0, side="R")

    def add_scaled(self, direction: "DirectionField", s: float) -> "PiecewiseMap":
        """Return the map with coefficients self + s*direction, same k."""
        return PiecewiseMap(_axpy(self.left, s, direction.left),
                            _axpy(self.right, s, direction.right), self.k)


def interval_image(f: PiecewiseMap, lo: float, hi: float) -> tuple[float, float]:
    """Image of [lo, hi] under f, exact for the monotone-branch structure."""
    if lo > hi:
        lo, hi = hi, lo
    a, b = f.value(max(lo, -1.0)), f.value(min(hi, 1.0))
    if lo < 0.0 < hi:
        return (min(a, b), f.critical_value)
    return (min(a, b), max(a, b))


# ---------------------------------------------------------------------------
# validation


class ValidationCheck(NamedTuple):
    name: str
    passed: bool
    template: str
    values: tuple[float, ...]
    witness: float | None = None

    @property
    def detail(self) -> str:
        """The check's values in words, formatted only when read."""
        return self.template.format(*self.values)


class ValidationReport(NamedTuple):
    passed: bool
    checks: tuple[ValidationCheck, ...]
    lambda_f: float | None
    critical_value: float

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _certified_range(dc: tuple[float, ...], lo: float, hi: float):
    """Certified (min, max, argmin, argmax) on [lo, hi] of a branch's Df, dc
    as _der rounds it: values at the ends and stationary points, moved out by
    Horner's sum_i gamma_{min(2i+1, 2d)} |dc_i| (Higham, 5.1), u|dc_i| per
    rounded j*c_j, j >= 3, 2**-1075 per underflowing product, and one ulp."""
    d = len(_trim(dc)) - 1
    err = sum((min(2 * i + 1, 2 * d) + (i > 1)) * abs(c)
              for i, c in enumerate(dc)) / (2**53 - 2 * d - 1) + d * 2**-1074
    vx = [(_pval(dc, x), x) for x in (lo, hi, *_stationary(dc, lo, hi))]
    (v_min, x_min), (v_max, x_max) = min(vx), max(vx)
    if err:
        v_min = math.nextafter(v_min - err, -math.inf)
        v_max = math.nextafter(v_max + err, math.inf)
    return v_min, v_max, x_min, x_max


def validate(f: PiecewiseMap) -> ValidationReport:
    """Check boundary fixing, branch expansion, and critical-value bounds.

    Failures are report entries, never exceptions.  On pass, ``lambda_f``
    is the certified lower bound for min |Df|; otherwise it is None.
    """
    return _validate(f.left, f.right)


@lru_cache(maxsize=4096)
def _validate(left: tuple[float, ...],
              right: tuple[float, ...]) -> ValidationReport:
    """validate's report, cached on the branches so no map is kept alive."""
    checks = []

    fm1, fp1 = float(_pval(left, -1.0)), float(_pval(right, 1.0))
    ok = abs(fm1 + 1.0) <= ENDPOINT_TOL and abs(fp1 + 1.0) <= ENDPOINT_TOL
    checks.append(ValidationCheck(
        "boundary_fixed", ok, "f(-1)={!r}, f(1)={!r}", (fm1, fp1),
        None if ok else (-1.0 if abs(fm1 + 1) > ENDPOINT_TOL else 1.0)))

    lo_l, _hi_l, w_l, _ = _certified_range(_der(left, 1), -1.0, 0.0)
    _lo_r, hi_r, _, w_r = _certified_range(_der(right, 1), 0.0, 1.0)
    ok_l = lo_l > 1.0
    checks.append(ValidationCheck(
        "expansion_left", ok_l, "certified min Df on [-1,0] = {!r}", (lo_l,),
        None if ok_l else w_l))

    ok_r = hi_r < -1.0
    checks.append(ValidationCheck(
        "expansion_right", ok_r, "certified max Df on [0,1] = {!r}", (hi_r,),
        None if ok_r else w_r))

    cv = left[0]
    ok_c = cv <= 1.0 + BOUNDARY_SLACK
    checks.append(ValidationCheck(
        "critical_value", ok_c, "f(0)={!r}", (cv,), None if ok_c else 0.0))

    passed = ok and ok_l and ok_r and ok_c
    lam = min(lo_l, -hi_r) if passed else None
    return ValidationReport(passed, tuple(checks), lam, cv)


def require_valid(f: PiecewiseMap) -> ValidationReport:
    rep = validate(f)
    if not rep.passed:
        names = ", ".join(c.name for c in rep.failures())
        raise InvalidMapError(f"map failed validation: {names}", rep)
    return rep


def lambda_of(f: PiecewiseMap) -> float:
    return require_valid(f).lambda_f


# ---------------------------------------------------------------------------
# orbits and symbols


def orbit(f: PiecewiseMap, x: float):
    """Yield x, f(x), f^2(x), ... on the raw float orbit."""
    value = f.value
    while True:
        yield x
        x = value(x)


def iterates(f: PiecewiseMap, n: int) -> list[float]:
    """c, f(c), ..., f^n(c): f's stored raw orbit of c, grown to depth n."""
    return list(islice(f.critical_points(), n + 1))


@dataclass(frozen=True)
class CriticalOrbit:
    """Forward orbit of c with cumulative derivative products.

    ``points[i]`` is f^i(c).  ``products[i]`` is Df^i(f(c)), the product of
    Df along points 1..i, so products[0] = 1 and the i-th series term of
    the horizontality functional is v(points[i]) / products[i].  When the
    orbit lands on c exactly at step t, products stop at length t (a
    one-sided derivative at c is never assigned) and ``truncated_at``
    records t; the orbit then repeats its first t points exactly.
    """

    points: tuple[float, ...]
    products: tuple[float, ...]
    truncated_at: int | None


def critical_orbit(f: PiecewiseMap, n: int) -> CriticalOrbit:
    """c's raw orbit to depth n, read in one pass; f's stored products grow
    from those points to depth n or the first exact return to c."""
    if n < 1:
        raise PreconditionError("orbit depth must be >= 1")
    points = tuple(islice(f.critical_points(), n + 1))
    # points[0] is c itself, so a second 0.0 is the first exact return
    k = points.index(0.0, 1) if points.count(0.0) > 1 else None
    products = f._orbit[1]
    for x in points[len(products):k or n]:
        d = f.deriv(x)
        if d == 0.0:
            raise PreconditionError(
                f"zero branch derivative at orbit point {x!r}")
        products.append(products[-1] * d)
    return CriticalOrbit(points, tuple(products[:k or n]), k)


def kneading(f: PiecewiseMap, n: int) -> str:
    """L/C/R symbols of c's length-n orbit: the raw symbols of [0, k)
    repeated, x_k (k >= 1) being the first point in the band |x| < TOL_C."""
    if n < 1:
        raise PreconditionError("itinerary depth must be >= 1")
    word = "C"
    for x in islice(f.critical_points(), 1, n):
        if abs(x) < TOL_C:
            break
        word += "L" if x < 0.0 else "R"
    return (word * (n // len(word) + 1))[:n]


def itinerary(f: PiecewiseMap, x: float, n: int) -> str:
    """L/C/R symbols of the length-n orbit of x: the raw ones up to its
    first point in the band |y| < TOL_C, then c's (see module docstring)."""
    if n < 1:
        raise PreconditionError("itinerary depth must be >= 1")
    word = ""
    for y in islice(orbit(f, x), n):
        if abs(y) < TOL_C:
            return word + kneading(f, n - len(word))
        word += "L" if y < 0.0 else "R"
    return word


# ---------------------------------------------------------------------------
# periodicity of the critical point


@dataclass(frozen=True)
class PeriodDetection:
    period: int | None
    residual: float | None
    ambiguous: tuple[tuple[int, float], ...]

    @property
    def clean(self) -> bool:
        return not self.ambiguous


def detect_periodic_critical(f: PiecewiseMap,
                             p_max: int = P_MAX) -> PeriodDetection:
    """Smallest q <= p_max with |f^q(c) - c| < TOL_C, on the raw float orbit.

    Returns residuals in the hysteresis band [TOL_C, 10*TOL_C) as ambiguity
    entries instead of silently classifying them; the two sides of the
    periodic manifold carry genuinely different functional values, so a
    near-band verdict must stay visible to callers.
    """
    if p_max < 2:
        raise PreconditionError("p_max must be >= 2")
    band = []
    for q, x in enumerate(islice(f.critical_points(), 1, p_max + 1), 1):
        r = abs(x)
        if r < TOL_C:
            return PeriodDetection(q, r, tuple(band))
        if r < HYSTERESIS * TOL_C:
            band.append((q, r))
    return PeriodDetection(None, None, tuple(band))


# ---------------------------------------------------------------------------
# critical relations


@dataclass(frozen=True)
class CriticalRelationSet:
    canonical: tuple[tuple[int, int], ...]
    derived: tuple[tuple[int, int], ...]
    ambiguous: tuple[tuple[int, int], ...]

    @property
    def relations(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.canonical + self.derived))


def critical_relations(f: PiecewiseMap,
                       depth: int = RELATION_DEPTH) -> CriticalRelationSet:
    """Index pairs (i, j), i < j <= depth, with |f^i(c) - f^j(c)| < TOL_C
    on the raw float orbit.

    A pair is canonical when it is not implied by an earlier kept pair
    (i0, j0), i.e. when i >= i0 and (j - i) divisible by (j0 - i0) fails.
    Band-distance pairs are reported as ambiguous, never classified.
    """
    if depth < 2:
        raise PreconditionError("relation depth must be >= 2")
    xs = tuple(islice(f.critical_points(), depth + 1))
    hits, band = [], []
    for i in range(depth):
        for j in range(i + 1, depth + 1):
            r = abs(xs[i] - xs[j])
            if r < TOL_C:
                hits.append((i, j))
            elif r < HYSTERESIS * TOL_C:
                band.append((i, j))
    hits.sort(key=lambda ij: (ij[0], ij[1] - ij[0]))
    canonical, derived = [], []
    for i, j in hits:
        if any(i >= i0 and (j - i) % (j0 - i0) == 0 for i0, j0 in canonical):
            derived.append((i, j))
        else:
            canonical.append((i, j))
    return CriticalRelationSet(tuple(canonical), tuple(sorted(derived)),
                               tuple(sorted(band)))


# ---------------------------------------------------------------------------
# goodness and expansivity


@dataclass(frozen=True)
class GoodnessResult:
    good: bool
    margin: float
    period: int | None


def is_good(f: PiecewiseMap) -> GoodnessResult:
    """Non-periodic critical point, or periodic with one-sided products > 2.

    The period is detected to TOL_C, up to P_MAX.  In the periodic case
    margin = |Df^{p-1}(f(c))| * min(|Df+(c)|, |Df-(c)|) - 2; otherwise it
    is the +inf sentinel.
    """
    require_valid(f)
    det = detect_periodic_critical(f)
    if not det.clean:
        raise AmbiguousPeriodicityError(
            f"periodicity ambiguous in the hysteresis band: {det.ambiguous}",
            det.ambiguous)
    if det.period is None:
        return GoodnessResult(True, math.inf, None)
    orb = critical_orbit(f, det.period)
    mult = orb.products[det.period - 1]
    margin = abs(mult) * min(abs(f.df_plus), abs(f.df_minus)) - 2.0
    return GoodnessResult(margin > 0.0, margin, det.period)


@dataclass(frozen=True)
class ExpansivityCertificate:
    n0: int
    epsilon: float
    margin: float
    boundary_contacts: tuple[int, ...]


def _n0(lam: float) -> int:
    """Smallest N0 >= 3 with lam**(N0 - 2) > 2, for lam > 1: the log
    quotient in closed form, its rounding settled by float pow itself."""
    n0 = 3 + math.floor(math.log(2.0) / math.log1p(lam - 1.0))
    while lam ** (n0 - 2) <= 2.0:
        n0 += 1
    while n0 > 3 and lam ** (n0 - 3) > 2.0:
        n0 -= 1
    return n0


def expansivity_certificate(f: PiecewiseMap) -> ExpansivityCertificate:
    """Certify c stays out of the interiors of f^i[-eps, eps], i = 1..N0.

    N0 is the smallest integer with lambda_f^(N0-2) > 2, refused above
    MAX_TERMS; eps is found by halving from 0.5.  When an image touches c
    on its boundary (within TOL_C, the periodic-return case) that index
    is flagged as a contact and excluded from the margin minimum.
    """
    n0 = _n0(require_valid(f).lambda_f)
    if n0 > MAX_TERMS:
        raise CertificationError(f"N0 = {n0} images exceed MAX_TERMS="
                                 f"{MAX_TERMS}; lambda_f is too close to 1")
    eps = 0.5
    while eps >= 1e-12:
        lo, hi = -eps, eps
        contacts, dists = [], []
        ok = True
        for i in range(1, n0 + 1):
            lo, hi = interval_image(f, lo, hi)
            if abs(lo) < TOL_C or abs(hi) < TOL_C:
                contacts.append(i)
            elif lo > 0.0:
                dists.append(lo)
            elif hi < 0.0:
                dists.append(-hi)
            else:
                ok = False  # c strictly interior: not excluded
                break
        if ok:
            margin = min(dists) if dists else math.inf
            if margin > 0.0:
                return ExpansivityCertificate(n0, eps, margin,
                                              tuple(contacts))
        eps /= 2.0
    raise CertificationError(
        "no epsilon >= 1e-12 excludes c from the first N0 images")


# ---------------------------------------------------------------------------
# direction fields


def _field_branches(left, right, relaxed: bool = False):
    """(left, right) checked as a direction field's branches: equal at c
    and, unless relaxed, vanishing at the boundary."""
    left, right = _coeffs(left), _coeffs(right)
    if left[0] != right[0]:
        raise ValueError("field branches must agree at the critical point")
    if not relaxed:
        bl = float(_pval(left, -1.0))
        br = float(_pval(right, 1.0))
        if abs(bl) > 1e-12 or abs(br) > 1e-12:
            raise ValueError(
                f"direction field must vanish at the boundary "
                f"(v(-1)={bl!r}, v(1)={br!r}); pass relaxed=True for observables")
    return left, right


@dataclass(frozen=True)
class DirectionField:
    """Piecewise-polynomial perturbation with the same branch layout as maps.

    Proper deformation directions vanish at the boundary; observables that
    do not must be constructed with relaxed=True and are rejected as
    deformation directions downstream.
    """

    left: tuple[float, ...]
    right: tuple[float, ...]
    relaxed: bool = False

    def __post_init__(self):
        left, right = _field_branches(self.left, self.right, self.relaxed)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def value(self, x):
        """v(x) at a float, or elementwise at an ndarray of points."""
        return _on_branches(self.left, self.right, x)

    def c_norm(self, order: int) -> float:
        """The C^order norm, max over m <= order of sup |D^m v| over I, each
        sup exact: taken at the branch ends and D^m v's stationary points."""
        return float(max(abs(_pval(d, x)) for c, lo, hi in (
            (self.left, -1.0, 0.0), (self.right, 0.0, 1.0))
            for d in (_der(c, m) for m in range(order + 1))
            for x in (lo, hi, *_stationary(d, lo, hi))))

    @cached_property
    def _sup(self) -> float:
        return self.c_norm(0)

    def sup_norm(self) -> float:
        """Exact sup |v| over I (``c_norm(0)``), computed once."""
        return self._sup

    def scale(self, s: float) -> "DirectionField":
        return DirectionField(tuple(s * c for c in self.left),
                              tuple(s * c for c in self.right), self.relaxed)

    def add(self, other: "DirectionField") -> "DirectionField":
        return DirectionField(_axpy(self.left, 1.0, other.left),
                              _axpy(self.right, 1.0, other.right),
                              self.relaxed or other.relaxed)


ZERO_FIELD = DirectionField((0.0,), (0.0,))


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class FamilyTerm:
    field: DirectionField
    t_powers: tuple[int, ...] = (1,)

    def __post_init__(self):
        pw = tuple(int(p) for p in self.t_powers)
        if not pw or any(p < 1 for p in pw) or pw != tuple(self.t_powers):
            raise ValueError("t_powers must be positive integers")
        object.__setattr__(self, "t_powers", pw)

    def scalar(self, t: float) -> float:
        return _power_sum(t, ((1, p) for p in self.t_powers))

    def scalar_deriv(self, t: float) -> float:
        return _power_sum(t, ((p, p - 1) for p in self.t_powers))


def _power_sum(t: float, terms) -> float:
    """sum of a * t**e over (a, e) as a float (an int t's exactly); one that
    overflows a float is refused as a precondition, not an OverflowError."""
    try:
        return float(sum(a * t ** e for a, e in terms))
    except OverflowError:
        raise PreconditionError(
            f"a power of t = {t!r} overflows a float") from None


@dataclass(frozen=True)
class MapFamily:
    """Polynomial-in-t curve of maps: f_t = base + sum_m s_m(t) * field_m.

    Polynomial dependence keeps the velocity exact (term-wise derivative),
    so no finite differencing ever enters the functional evaluations.

    Each instance memoizes f_t's branches before any theta*w per t and
    its type (an int t sums its powers exactly), and, apart (a velocity
    must not run ``term.scalar``, whose powers can overflow), v_t as one
    DirectionField with its sup norm cached, per tuple of term scalars
    s_m'(t): v_t reads nothing else, so a linear family builds it once.
    The memo is the instance's, not its value's: families equal under
    ``==`` can differ by a signed zero.  Each store empties at MEMO_SIZE
    entries.
    """

    base: PiecewiseMap
    terms: tuple[FamilyTerm, ...]
    domain: tuple[float, float] = (-0.02, 0.02)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "_chains", {})
        object.__setattr__(self, "_velocities", {})
        lo, hi = self.domain
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError("parameter domain must be a finite interval")
        for term in self.terms:
            if term.field.relaxed:
                raise ValueError("family directions must be proper fields "
                                 "(boundary zeros), not relaxed observables")


def _in_domain(F: MapFamily, t: float) -> None:
    lo, hi = F.domain
    if not lo <= t <= hi:
        raise PreconditionError(f"t={t} outside family domain [{lo}, {hi}]")


def _memo(store: dict, key, make, F: MapFamily, arg):
    """make(F, arg), stored under key."""
    hit = store.get(key)
    if hit is None:
        if len(store) >= MEMO_SIZE:
            store.clear()
        hit = store[key] = make(F, arg)
    return hit


def _chain(F: MapFamily, t: float):
    """f_t's branches: the base plus each nonzero s_m(t) * field_m in turn."""
    left, right = F.base.left, F.base.right
    for term in F.terms:
        s = term.scalar(t)
        if s != 0.0:
            left = _coeffs(_axpy(left, s, term.field.left))
            right = _coeffs(_axpy(right, s, term.field.right))
    return left, right


def _velocity(F: MapFamily, scalars: tuple[float, ...]) -> DirectionField:
    """sum_m s_m * field_m over the nonzero scalars s_m: equal scalar
    tuples give equal bits (+-0.0 are both skipped)."""
    left, right = ZERO_FIELD.left, ZERO_FIELD.right
    for term, s in zip(F.terms, scalars):
        if s != 0.0:
            sl, sr = _field_branches([s * c for c in term.field.left],
                                     [s * c for c in term.field.right])
            left, right = _field_branches(_axpy(left, 1.0, sl),
                                          _axpy(right, 1.0, sr))
    return DirectionField(left, right)


def family_eval(F: MapFamily, t: float, check: bool = True,
                w: DirectionField | None = None,
                theta: float = 0.0) -> PiecewiseMap:
    """Assemble f_t (+ theta*w given w) exactly; optionally validate (errors
    carry the report).  Bit for bit a chain of ``add_scaled`` over nonzero
    scalars, with a map's checks on each partial sum, but one map is built."""
    _in_domain(F, t)
    left, right = _memo(F._chains, (type(t), t), _chain, F, t)
    if w is not None and theta != 0.0:
        left, right = _axpy(left, theta, w.left), _axpy(right, theta, w.right)
    f = PiecewiseMap(left, right, F.base.k)
    if check:
        require_valid(f)
    return f


def family_velocity(F: MapFamily, t: float) -> DirectionField:
    """Exact term-wise t-derivative of the family at t: bit for bit the
    ``add`` of ``field.scale(s)`` terms, with a field's checks on each."""
    _in_domain(F, t)
    scalars = tuple(term.scalar_deriv(t) for term in F.terms)
    return _memo(F._velocities, scalars, _velocity, F, scalars)


# ---------------------------------------------------------------------------
# built-in maps and fields

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def symmetric_tent(slope: float, k: int = 3) -> PiecewiseMap:
    """f(x) = slope*(1 - |x|) - 1, the symmetric tent with given slope."""
    return PiecewiseMap((slope - 1.0, slope), (slope - 1.0, -slope), k)


def full_tent() -> PiecewiseMap:
    return symmetric_tent(2.0)


def golden_tent() -> PiecewiseMap:
    return symmetric_tent(GOLDEN_RATIO)


# Curved-branch map with a period-3 critical orbit 0 -> 0.42 -> -0.35 -> 0
# whose multiplier-times-slope product stays below 2: the left branch is
# nearly flat (slope 1.05) near -1 and the right branch lands softly, so
# is_good reports a negative margin.  Symmetric tents can never do this;
# their period-p product is the slope to the p-th power > 2^{3/2}.
_NOT_GOOD_LEFT = (0.42, 1.05,
                  -0.6313693998309383, -0.7506822847482189,
                  -0.48931288491728053)
_NOT_GOOD_RIGHT = (0.42, -2.6486384572279853, 2.7250709498882855,
                   -2.1342265280926154, 0.6377940354323149)


def curved_not_good() -> PiecewiseMap:
    return PiecewiseMap(_NOT_GOOD_LEFT, _NOT_GOOD_RIGHT)


def bump_field() -> DirectionField:
    """1 - x^2."""
    return DirectionField((1.0, 0.0, -1.0), (1.0, 0.0, -1.0))


def odd_field() -> DirectionField:
    """x(1 - x^2)."""
    return DirectionField((0.0, 1.0, 0.0, -1.0), (0.0, 1.0, 0.0, -1.0))


def square_bump_field() -> DirectionField:
    """x^2(1 - x^2)."""
    return DirectionField((0.0, 0.0, 1.0, 0.0, -1.0),
                          (0.0, 0.0, 1.0, 0.0, -1.0))


def tent_profile_field() -> DirectionField:
    """1 - |x|; adding s*this to a symmetric tent raises its slope by s."""
    return DirectionField((1.0, 1.0), (1.0, -1.0))


def aux_dictionary() -> tuple[DirectionField, ...]:
    """Auxiliary transversal directions, tried in this order."""
    return (odd_field(), bump_field(), square_bump_field())


BUILTIN_MAPS = {
    "full_tent": full_tent,
    "golden_tent": golden_tent,
    "curved_not_good": curved_not_good,
}

BUILTIN_FIELDS = {
    "bump": bump_field,
    "odd": odd_field,
    "square_bump": square_bump_field,
    "tent_profile": tent_profile_field,
}
