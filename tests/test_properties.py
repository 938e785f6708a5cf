"""Randomized invariants: linearity and bounds of J, orbit growth,
itinerary uniqueness, table monotonicity, scan determinism."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from pexpand import conjugacy as cj
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand import scan as sc

import oracles

GOLDEN = mp.golden_tent()
TENT = mp.full_tent()
WORDS = cj.periodic_words(GOLDEN)
REALIZED = tuple(cj.point_from_itinerary(GOLDEN, w) for w in WORDS)

slopes = st.floats(1.45, 1.99, allow_nan=False, allow_infinity=False)
weights = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def combo(a: float, b: float, c: float) -> mp.DirectionField:
    return (mp.bump_field().scale(a)
            .add(mp.odd_field().scale(b))
            .add(mp.square_bump_field().scale(c)))


fields = st.builds(combo, weights, weights, weights)
small = st.floats(-0.05, 0.05, allow_nan=False)
# tents bent by small field multiples: curved branches of degree up to 4
curved_maps = st.builds(
    lambda s, a, b, c: mp.symmetric_tent(s).add_scaled(combo(a, b, c), 1.0),
    slopes, small, small, small).filter(lambda f: mp.validate(f).passed)

coefficient = st.one_of(st.just(0.0), st.just(-0.0),
                        st.floats(-1e3, 1e3, allow_nan=False))
# degrees 0..16, trailing (signed) zeros included
branches = st.lists(coefficient, min_size=1, max_size=mp.D_MAX + 1)
points = st.floats(-1.0, 1.0, allow_nan=False)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


class TestKernelBits:
    @given(branches, points, st.lists(points, min_size=1, max_size=8))
    def test_horner_matches_polyval(self, coeffs, x, xs):
        c = tuple(coeffs)
        xs = np.array(xs)
        assert _hex(mp._pval(c, x)) == _hex(P.polyval(x, np.array(c)))
        assert _hex(mp._pval(c, xs)) == _hex(P.polyval(xs, np.array(c)))

    @given(branches, st.integers(1, 3))
    def test_derivative_matches_polyder(self, coeffs, m):
        c = tuple(coeffs)
        assert _hex(mp._der(c, m)) == _hex(P.polyder(np.array(c), m))


# dyadic coefficients k/8 make the boundary sums of drawn fields exact
dyadic = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.integers(-64, 64).map(lambda k: k / 8.0))
trailing = st.lists(st.sampled_from([0.0, -0.0]), max_size=3)
# boundary values a field may keep (|v(+-1)| <= 1e-12); scaled or summed,
# they can exceed the bound, which a field's constructor refuses
boundary_slack = st.sampled_from([0.0, 0.0, 6e-13, -9e-13])


@st.composite
def proper_fields(draw):
    """Fields vanishing at the boundary, with unequal branch degrees,
    signed zeros and trailing zeros."""
    c = draw(dyadic)

    def branch(end: float) -> tuple[float, ...]:
        inner = draw(st.lists(dyadic, max_size=4))
        at_end = c + sum(a * end ** k for k, a in enumerate(inner, 1))
        last = -at_end * end ** (len(inner) + 1) + draw(boundary_slack)
        return (c, *inner, last, *draw(trailing))

    return mp.DirectionField(branch(-1.0), branch(1.0))


@st.composite
def families(draw):
    """Families of 1-3 terms with t_powers up to 3 on tents carrying
    signed trailing zeros; a huge domain drives scalars to overflow."""
    a = draw(st.floats(1.2, 2.0))
    base = mp.PiecewiseMap((a - 1.0, a, *draw(trailing)),
                           (a - 1.0, -a, *draw(trailing)))
    terms = draw(st.lists(st.builds(
        mp.FamilyTerm, proper_fields(),
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)),
        min_size=1, max_size=3))
    half = draw(st.sampled_from([0.02, 2.0, 1e103, 1e154]))
    t = draw(st.one_of(st.sampled_from([0.0, -0.0, half, -half]),
                       st.floats(-1.0, 1.0).map(lambda u: u * half)))
    return mp.MapFamily(base, terms, (-half, half)), t


scalars = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-4.0, 4.0),
                    st.floats(-1e300, 1e300))
loose_branches = st.lists(st.one_of(dyadic, st.floats(-1e3, 1e3)),
                          min_size=0, max_size=5)


def outcome(make):
    """Coefficient bits of what make() builds, or its error's type and text."""
    try:
        with np.errstate(all="ignore"):
            r = make()
    except Exception as exc:  # noqa: BLE001  (the error is the outcome)
        return type(exc).__name__, str(exc)
    return _hex(r.left), _hex(r.right)


def ref_sum(a, s, b):
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(P.polyadd(np.asarray(a), s * np.asarray(b)))


def ref_add_scaled(f, d, s):
    return mp.PiecewiseMap(ref_sum(f.left, s, d.left),
                           ref_sum(f.right, s, d.right), f.k)


def ref_field_add(u, v):
    return mp.DirectionField(ref_sum(u.left, 1.0, v.left),
                             ref_sum(u.right, 1.0, v.right),
                             u.relaxed or v.relaxed)


def ref_family_eval(F, t, w=None, theta=0.0, check=True):
    """f_t + theta*w as a chain of polyadd-built maps, one per nonzero scalar."""
    lo, hi = F.domain
    if not lo <= t <= hi:
        raise mp.PreconditionError(
            f"t={t} outside family domain [{lo}, {hi}]")
    f = F.base
    for term in F.terms:
        s = term.scalar(t)
        if s != 0.0:
            f = ref_add_scaled(f, term.field, s)
    if w is not None and theta != 0.0:
        f = ref_add_scaled(f, w, theta)
    if check:
        mp.require_valid(f)
    return f


def ref_velocity(F, t):
    v = mp.ZERO_FIELD
    for term in F.terms:
        s = term.scalar_deriv(t)
        if s != 0.0:
            v = ref_field_add(v, term.field.scale(s))
    return v


# t**2 + t**2 overflows to inf in the first term (a non-finite map) before
# t**3 raises OverflowError in the second: the first error must win
OVERFLOW_FIRST = (mp.MapFamily(
    TENT, (mp.FamilyTerm(mp.bump_field(), (2, 2)),
           mp.FamilyTerm(mp.odd_field(), (3,))), (-1e154, 1e154)), 1e154)


# equal under == (0.0 == -0.0) and hashed alike, yet f_t and v_t differ in
# the sign of their x^2 coefficient: a memo keyed by value would hand the
# second family the first one's bits
SIGNED_ZERO_TWINS = tuple(
    (mp.MapFamily(TENT, (mp.FamilyTerm(mp.DirectionField(c, c)),)), 0.01)
    for c in ((0.0, 1.0, 0.0, -1.0), (0.0, 1.0, -0.0, -1.0)))
assert SIGNED_ZERO_TWINS[0] == SIGNED_ZERO_TWINS[1]


class TestAssemblyBits:
    """Assembly by coefficient arithmetic against numpy's polyadd chain:
    the same bits, signed zeros included, and the same errors."""

    @given(families(), proper_fields(), scalars)
    @example(OVERFLOW_FIRST, mp.bump_field(), 0.5)
    @example(SIGNED_ZERO_TWINS[0], mp.odd_field(), 0.5)
    @example(SIGNED_ZERO_TWINS[1], mp.odd_field(), 0.5)
    @settings(deadline=None, max_examples=300)
    def test_family_assembly(self, ft, w, theta):
        F, t = ft
        # the second call at t reads F's memo; 0.0 and -0.0 share an entry
        for u in (t, t, -t) if t == 0.0 else (t, t):
            for check in (False, True):
                assert outcome(lambda: mp.family_eval(F, u, check)) == \
                       outcome(lambda: ref_family_eval(F, u, check=check))
                assert outcome(lambda: mp.family_eval(F, u, check, w,
                                                      theta)) == \
                       outcome(lambda: ref_family_eval(F, u, w, theta, check))
            assert outcome(lambda: mp.family_velocity(F, u)) == \
                   outcome(lambda: ref_velocity(F, u))

    @given(dyadic, loose_branches, loose_branches, proper_fields(), scalars)
    @settings(deadline=None, max_examples=300)
    def test_add_scaled(self, c, left, right, d, s):
        f = mp.PiecewiseMap((c, *left), (c, *right))
        assert outcome(lambda: f.add_scaled(d, s)) == \
               outcome(lambda: ref_add_scaled(f, d, s))
        # exact cancellation leaves trailing zeros that the sum must trim
        g = mp.PiecewiseMap(d.left, d.right)
        assert outcome(lambda: g.add_scaled(d, -1.0)) == \
               outcome(lambda: ref_add_scaled(g, d, -1.0))

    @given(dyadic, loose_branches, loose_branches, proper_fields(),
           proper_fields())
    @settings(deadline=None, max_examples=300)
    def test_field_add(self, c, left, right, d, e):
        u = mp.DirectionField((c, *left), (c, *right), relaxed=True)
        for a, b in ((u, d), (d, u), (d, e), (d, d.scale(-1.0))):
            assert outcome(lambda: a.add(b)) == outcome(
                lambda: ref_field_add(a, b))


class TestJFunctional:
    @given(slopes, fields, fields, weights)
    @settings(deadline=None, max_examples=60)
    def test_linearity(self, slope, v, w, a):
        f = mp.symmetric_tent(slope)
        jv = fn.j_functional(f, v)
        jw = fn.j_functional(f, w)
        jc = fn.j_functional(f, v.add(w.scale(a)))
        assume(jv.value is not None and jw.value is not None
               and jc.value is not None)
        slack = jv.tail_bound + abs(a) * jw.tail_bound + jc.tail_bound + 1e-10
        assert abs(jc.value - (jv.value + a * jw.value)) <= slack

    @given(slopes, fields)
    @settings(deadline=None, max_examples=60)
    def test_a_priori_bound(self, slope, v):
        f = mp.symmetric_tent(slope)
        j = fn.j_functional(f, v)
        assume(j.value is not None)
        assert abs(j.value) <= fn.a_priori_bound(f, v) + j.tail_bound + 1e-12

    @given(slopes, fields, st.floats(-0.999, 0.999))
    @settings(deadline=None, max_examples=60)
    def test_alpha_sup_bound(self, slope, v, x):
        assume(abs(x) >= mp.TOL_C)
        f = mp.symmetric_tent(slope)
        sol = fn.alpha(f, v)
        assert abs(sol.value(x)) <= sol.bound + sol.tol + 1e-12


class TestOrbitGrowth:
    @given(slopes, st.integers(2, 30))
    @settings(deadline=None, max_examples=60)
    def test_derivative_products_expand(self, slope, n):
        f = mp.symmetric_tent(slope)
        orb = mp.critical_orbit(f, n, tol_c=0.0)
        lam = mp.lambda_of(f)
        for i, prod in enumerate(orb.products):
            assert abs(prod) >= lam ** i * (1.0 - 1e-12)


def ref_orbit(f, x, n, tol_c):
    """Plain loop: n points from x, continuing from c after a band point."""
    out = [x]
    for _ in range(n - 1):
        x = f.value(0.0 if abs(x) < tol_c else x)
        out.append(x)
    return out


def ref_products(f, points, tol_c):
    """Products of Df along points[1:] up to the first return to c."""
    products, prod = [1.0], 1.0
    for x in points[1:-1]:
        if abs(x) < tol_c or x == 0.0:
            break
        prod *= f.deriv(x)
        products.append(prod)
    return products


def ref_alpha(f, v, x, n_max, tol_c=mp.TOL_C):
    if abs(x) < tol_c:
        return 0.0
    total, prod = 0.0, 1.0
    for _ in range(n_max):
        prod *= f.deriv(x)
        total += v.value(x) / prod
        x = f.value(x)
        if abs(x) < tol_c:
            break
    return -total


class TestCurvedOrbits:
    """Orbit consumers against plain loops, bit for bit, on curved maps."""

    @given(curved_maps, st.sampled_from([mp.TOL_C, 0.0]))
    @settings(deadline=None, max_examples=40)
    def test_critical_orbit(self, f, tol_c):
        orb = mp.critical_orbit(f, 40, tol_c)
        points = ref_orbit(f, 0.0, 41, tol_c)
        assert _hex(orb.points) == _hex(points)
        assert _hex(orb.products) == _hex(ref_products(f, points, tol_c))

    @given(curved_maps, points)
    @settings(deadline=None, max_examples=40)
    def test_symbols(self, f, x):
        def symbols(x, n):
            return "".join("C" if abs(y) < mp.TOL_C else "L" if y < 0 else "R"
                           for y in ref_orbit(f, x, n, mp.TOL_C))
        assert mp.kneading(f, 30) == symbols(0.0, 30)
        assert mp.itinerary(f, x, 30) == symbols(x, 30)

    @given(curved_maps)
    @settings(deadline=None, max_examples=40)
    def test_period_and_relations(self, f):
        xs = ref_orbit(f, 0.0, 65, 0.0)
        tol = mp.PERIOD_TOL
        r = [abs(x) for x in xs]
        hit = next((q for q in range(1, 65) if r[q] < tol), None)
        band = [(q, r[q]) for q in range(1, hit or 65)
                if tol <= r[q] < 10 * tol]
        det = mp.detect_periodic_critical(f)
        assert (det.period, det.ambiguous) == (hit, tuple(band))
        pairs = [(i, j, abs(xs[i] - xs[j]))
                 for i in range(8) for j in range(i + 1, 9)]
        rel = mp.critical_relations(f)
        assert rel.relations == tuple((i, j) for i, j, d in pairs if d < tol)
        assert rel.ambiguous == tuple(
            (i, j) for i, j, d in pairs if tol <= d < 10 * tol)

    @given(curved_maps, fields, st.lists(points, min_size=1, max_size=6))
    @settings(deadline=None, max_examples=30)
    def test_alpha_scalar_and_array(self, f, v, xs):
        sol = fn.alpha(f, v)
        xs = [f.critical_value] + xs
        want = [ref_alpha(f, v, x, sol.n_max) for x in xs]
        assert _hex(sol.value(np.array(xs))) == _hex(want)
        assert _hex([sol.value(x) for x in xs]) == _hex(want)

    @given(curved_maps, fields)
    @settings(deadline=None, max_examples=20)
    def test_j_against_mp_series(self, f, v):
        j = fn.j_functional(f, v)
        assume(j.mode == "series")
        ref = float(oracles.mp_j_series(f, v, n=300))
        assert abs(j.value - ref) <= j.tail_bound + 1e-11


class TestItineraryUniqueness:
    @given(st.integers(0, len(WORDS) - 1), st.integers(0, len(WORDS) - 1))
    @settings(deadline=None, max_examples=80)
    def test_distinct_words_distinct_points(self, i, j):
        assume(i != j)
        a, b = REALIZED[i], REALIZED[j]
        assert abs(a.x - b.x) > a.bound + b.bound

    @given(st.integers(0, len(WORDS) - 1))
    @settings(deadline=None, max_examples=40)
    def test_realized_point_replays_word(self, i):
        r = REALIZED[i]
        assert mp.itinerary(GOLDEN, r.x, 20) == r.word[:20]


class TestTableMonotonicity:
    @given(st.integers(0, 170), st.integers(1, 8))
    @settings(deadline=None, max_examples=25)
    def test_sorted_sources_sorted_images(self, count, max_period):
        table = cj.ConjugacyTable.build(GOLDEN, TENT, count, max_period, 50)
        xs = [e.x for e in table.entries]
        ys = [e.y for e in table.entries]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(a < b for a, b in zip(ys, ys[1:]))


class TestScanDeterminism:
    @given(st.integers(3, 13))
    @settings(deadline=None, max_examples=8)
    def test_repeat_scan_identical(self, n):
        fam = mp.MapFamily(GOLDEN, (mp.FamilyTerm(mp.bump_field()),),
                           domain=(-0.02, 0.02))
        grid = np.linspace(-0.015, 0.015, n)
        assert sc.run_scan(fam, grid, localize=False) == \
               sc.run_scan(fam, grid, localize=False)


class TestScanBrackets:
    @given(slopes, st.sampled_from(["tent_profile", "bump"]),
           st.floats(0.05, 1.0), st.booleans())
    @settings(deadline=None, max_examples=25)
    def test_localized_brackets_hold_a_change(self, slope, name, a, flip):
        field = mp.BUILTIN_FIELDS[name]().scale(-a if flip else a)
        fam = mp.MapFamily(mp.symmetric_tent(slope), (mp.FamilyTerm(field),),
                           domain=(-0.02, 0.02))
        grid = np.linspace(-0.02, 0.02, 21)
        res = sc.run_scan(fam, grid)
        for tr in res.transitions:
            assert tr.localized and tr.method in ("newton", "bisection")
            assert tr.t_lo < tr.t_hi and tr.width <= sc.TRANSITION_WIDTH
            assert any(s <= tr.t_lo and tr.t_hi <= t
                       for s, t in zip(grid, grid[1:]))
            ends = [sc._signature(fam, t, sc.KNEADING_DEPTH,
                                  sc.RELATION_DEPTH, mp.PERIOD_TOL)
                    for t in (tr.t_lo, tr.t_hi)]
            assert ends[0] != ends[1]
