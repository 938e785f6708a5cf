"""Randomized invariants: linearity and bounds of J, orbit growth,
itinerary uniqueness, table monotonicity, scan determinism."""

import dataclasses
import math

import numpy as np
import pytest
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


def grid_range(coeffs, lo, hi):
    """The former certificate: Df's extrema on 1024 grid points, padded by
    the Lipschitz slack sum |c_j| j (j - 1) times half the spacing."""
    xs = np.linspace(lo, hi, 1024)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = P.polyval(xs, P.polyder(np.array(coeffs)))
    pad = sum(abs(c) * j * (j - 1) for j, c in enumerate(coeffs)) \
        * (hi - lo) / 1023 / 2
    return float(vals.min()) - pad, float(vals.max()) + pad


@st.composite
def bent_maps(draw):
    """Tents plus multiples of x^k (1 - x^2), k < 6, one list per branch:
    maps of branch degree 1-7 that fix the boundary, expanding or not."""
    s = draw(st.floats(1.05, 2.0))
    eps = st.one_of(st.floats(-0.08, 0.08), st.floats(-4.0, 4.0))
    e0 = draw(eps)
    out = []
    for base in ((s - 1.0, s), (s - 1.0, -s)):
        c = [*base] + [0.0] * 6
        for k, e in enumerate([e0] + draw(st.lists(eps, max_size=5))):
            c[k] += e
            c[k + 2] -= e
        out.append(mp._trim(tuple(c)))
    return mp.PiecewiseMap(*out)


def assert_certified(f):
    """Each branch's certified Df range holds the 50-digit one and is never
    looser than the former grid bound by more than 1e-12; lambda_f, when
    given, is at most min |Df|."""
    true = []
    for coeffs, dc, lo, hi in ((f.left, f.dleft, -1.0, 0.0),
                               (f.right, f.dright, 0.0, 1.0)):
        c_min, c_max, _, _ = mp._certified_range(dc, lo, hi)
        t_min, t_max = oracles.mp_deriv_range(coeffs, lo, hi)
        g_min, g_max = grid_range(coeffs, lo, hi)
        assert not (c_min > t_min or c_max < t_max)  # nan certifies nothing
        if math.isfinite(g_min) and math.isfinite(g_max):  # no overflow
            assert c_min >= g_min - 1e-12 and c_max <= g_max + 1e-12
        true.append((t_min, t_max))
    lam = mp.validate(f).lambda_f
    if lam is not None:
        assert lam <= min(true[0][0], -true[1][1])


class TestExpansionCertificate:
    @given(bent_maps())
    # D2f's leading term 4.2e-13 leaves its companion ill-conditioned: the
    # eigenvalue near 0.508 is off by 2.8e-7 until Newton polishes it
    @example(mp.PiecewiseMap((1.0, 2.0), (1.0, -2.0, 1.0, 0.0, 0.0, 1e-14,
                                          -1.0, -1e-14)))
    @settings(deadline=None, max_examples=300)
    def test_lambda_is_sound_and_tight(self, f):
        assert_certified(f)

    def test_interior_minimum(self):
        # Df = 2.1 + 4x + 4x^2 + 0.4x^3 on [-1, 0] dips to about 1.0433 near
        # x = -0.54, inside the branch; the grid's slack was 6.5e-3
        c0 = 1.0 / 3.0
        f = mp.PiecewiseMap((c0, 2.1, 2.0, 4.0 / 3.0, 0.1), (c0, -c0 - 1.0))
        assert_certified(f)
        lam = mp.validate(f).lambda_f
        t_min, _ = oracles.mp_deriv_range(f.left, -1.0, 0.0)
        assert t_min < 1.044 and t_min - lam < 1e-14
        assert lam > grid_range(f.left, -1.0, 0.0)[0] + 6e-3

    def test_tiny_leading_term(self):
        # a leading term 300 orders below the rest cannot move Df, and its
        # companion matrix would overflow
        a = mp.GOLDEN_RATIO
        for tiny in (1e-300, 5e-324):
            f = mp.PiecewiseMap((a - 1.0, a, 0.0, 0.0, 0.0, 0.0, 0.0, tiny),
                                (a - 1.0, -a, 0.0, 0.0, 0.0, -tiny))
            assert_certified(f)
            assert a - 1e-14 < mp.validate(f).lambda_f < a

    @pytest.mark.parametrize("left, right", [
        # subnormal terms: Df dips to -1.7e-324 at x = -1/3, where Horner's
        # products underflow to 0 and a relative bound alone vanishes
        ((0.0, 0.0, 5e-324, 5e-324), (0.0, 0.0)),
        # Df = 871 + 5e-65 x^5: a large constant term is rounded once, not
        # 2d times, so the bound stays within 1e-12 of the grid's
        ((0.0, 0.0), (0.0, 871.0, 0.0, 0.0, 0.0, 0.0, 8.695048019438226e-66)),
    ])
    def test_extreme_scales(self, left, right):
        assert_certified(mp.PiecewiseMap(left, right))

    def test_slope_just_above_one(self):
        s = 1.0 + 5e-11
        assert_certified(mp.symmetric_tent(s))
        rep = mp.validate(mp.symmetric_tent(s))
        assert rep.passed and rep.lambda_f == s

    @pytest.mark.parametrize("left, right, failed", [
        # Df >= 1e300 on the left and <= -6.7e299 on the right: only the
        # boundary breaks
        ((0.0, 1e300, -1e300, 1e300), (0.0, -1e300, 1e300, -1e300),
         {"boundary_fixed"}),
        # 5 * c_5 and the second derivative overflow
        ((0.0, 1.5, 0.0, 0.0, 0.0, 1e308), (0.0, -1.5, 0.0, 0.0, 0.0, 1e308),
         {"boundary_fixed", "expansion_left", "expansion_right"}),
        # Df = 1e200 ((x + 1/2)^2 - 1/100) (x + 2) dips below 0 near
        # x = -1/2, where the squares of D2f's coefficients overflow
        ((0.0, 0.48e200, 1.12e200, 1e200, 0.25e200), (0.0, -2.0),
         {"boundary_fixed", "expansion_left"}),
    ])
    def test_huge_coefficients_fail_as_a_report(self, left, right, failed):
        f = mp.PiecewiseMap(left, right)
        assert_certified(f)
        rep = mp.validate(f)
        assert {c.name for c in rep.failures()} == failed
        assert all(isinstance(c.detail, str) for c in rep.checks)
        # a failed report certifies nothing, expansion checks passed or not
        assert rep.lambda_f is None


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


# t**3 overflows at the domain's ends but not at t: f_t assembles and
# validates, while its expansion box cannot be certified
OVERFLOW_BOX = (mp.MapFamily(
    TENT, (mp.FamilyTerm(mp.odd_field(), (3,)),), (-1e154, 1e154)), 0.01)


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
    @example(OVERFLOW_BOX, mp.bump_field(), -0.25)
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


@st.composite
def thin_families(draw):
    """Tents of slope 1 + delta, delta from below the box's pad up, with 0-2
    proper-field terms on a domain where they take a drawn share of delta:
    families whose expansion box is thin or refused, and a t in the domain."""
    delta = 2.0 ** draw(st.floats(-44.0, -1.0))
    terms = tuple(draw(st.lists(st.builds(
        mp.FamilyTerm, proper_fields(),
        st.sampled_from([(1,), (2,), (1, 3)])), max_size=2)))
    weight = 1.0 + sum(len(m.t_powers) * m.field.c_norm(1) for m in terms)
    half = delta * draw(st.floats(1e-9, 1.0)) / weight
    t = draw(st.one_of(st.sampled_from([0.0, half, -half]),
                       st.floats(-1.0, 1.0).map(lambda u: u * half)))
    return mp.MapFamily(mp.symmetric_tent(1.0 + delta), terms,
                        (-half, half)), t


class TestExpansionBox:
    """family_eval skips validate inside a family's expansion box: every
    map the box accepts passes validate, and every verdict is validate's."""

    @given(thin_families(), st.one_of(st.just(mp.bump_field()),
                                      proper_fields()),
           st.integers(1, 60), st.sampled_from([-1.0, 1.0]))
    @settings(deadline=None, max_examples=300)
    def test_verdicts_at_the_edge(self, ft, w, k, sign):
        F, t = ft
        box = mp._expansion_box(F, w)
        edge = ((box * (1.0 - 2.0**-k), box * (1.0 + 2.0**-k))
                if 0.0 < box < math.inf else (2.0**-k,))
        for theta in (sign * x for x in edge):
            assert outcome(lambda: mp.family_eval(F, t, True, w, theta)) == \
                   outcome(lambda: ref_family_eval(F, t, w, theta))
            g = mp.family_eval(F, t, False, w, theta)
            if abs(theta) <= box and all(
                    c.passed for c in mp._fixed_checks(g.left, g.right)):
                assert mp.validate(g).passed

    def test_margin_below_the_pad_is_refused(self):
        # slope 1 + 5e-13 is certified exactly (a tent's Df is constant) and
        # the odd term moves Df by at most 2e-15, but the pad is about
        # 7.3e-13: the box accepts nothing and validate decides each map
        F = mp.MapFamily(mp.symmetric_tent(1.0 + 5e-13),
                         (mp.FamilyTerm(mp.odd_field()),), (-1e-15, 1e-15))
        w = mp.bump_field()
        assert mp._expansion_box(F, None) == mp._expansion_box(F, w) \
            == -math.inf
        for t, theta in ((1e-15, 0.0), (-1e-15, 1e-14), (1e-15, -3e-13)):
            mp._validate.cache_clear()
            got = outcome(lambda: mp.family_eval(F, t, True, w, theta))
            assert mp._validate.cache_info().misses == 1
            assert got == outcome(lambda: ref_family_eval(F, t, w, theta))
        # the last one dips below slope 1 at x = -1
        with pytest.raises(mp.InvalidMapError, match="expansion_left"):
            mp.family_eval(F, 1e-15, w=w, theta=-3e-13)

    def test_overflowing_scalar_bound_is_refused(self):
        # t**3 overflows at the domain's ends: no box, and no error raised
        F, t = OVERFLOW_BOX
        assert mp._expansion_box(F, mp.bump_field()) == -math.inf
        mp._validate.cache_clear()
        g = mp.family_eval(F, t, w=mp.bump_field(), theta=-0.25)
        assert mp._validate.cache_info().misses == 1
        assert mp.validate(g).passed

    def test_field_with_a_nan_sup_is_refused(self):
        # w's right derivative is (1e308, -inf): Horner at x = 0 reads
        # 1e308 + (-inf)*0 = nan, so sup|Dw| is nan.  No radius follows,
        # and validate rejects the map, whose Df(0) on the right is -0.5
        F = mp.MapFamily(mp.symmetric_tent(1.5), (), (-0.01, 0.01))
        w = mp.DirectionField((0.0,), (0.0, 1e308, -1e308))
        assert mp._expansion_box(F, w) == -math.inf
        got = outcome(lambda: mp.family_eval(F, 0.0, w=w, theta=1e-308))
        assert got == outcome(lambda: ref_family_eval(F, 0.0, w, 1e-308))
        with pytest.raises(mp.InvalidMapError, match="expansion_right"):
            mp.family_eval(F, 0.0, w=w, theta=1e-308)


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
        orb = mp.critical_orbit(f, n)
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

    @given(curved_maps)
    @settings(deadline=None, max_examples=40)
    def test_critical_orbit(self, f):
        orb = mp.critical_orbit(f, 40)
        points = ref_orbit(f, 0.0, 41, 0.0)
        assert _hex(orb.points) == _hex(points)
        assert _hex(orb.products) == _hex(ref_products(f, points, 0.0))

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
        tol = mp.TOL_C
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

    @given(st.one_of(st.sampled_from([GOLDEN, TENT]),
                     bent_maps().filter(lambda f: mp.validate(f).passed)),
           proper_fields(), st.lists(points, max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_alpha_merged_call_keeps_each_points_bits(self, f, v, drawn):
        # the grid, its image and f(c) in one call, as check_twisted_cohomology
        # makes it: each element's orbit and stop are its own
        sol = fn.alpha(f, v)
        a = np.array([-1.0, 1.0, 0.5 * mp.TOL_C, *drawn])
        b = f.value(a)
        x = f.critical_value
        merged = sol.value(np.concatenate((a, b, [x])))
        assert _hex(merged) == (_hex(sol.value(a)) + _hex(sol.value(b))
                                + _hex(sol.value(float(x))))

    @given(curved_maps, fields)
    @settings(deadline=None, max_examples=20)
    def test_j_against_mp_series(self, f, v):
        j = fn.j_functional(f, v)
        assume(j.mode == "series")
        ref = float(oracles.mp_j_series(f, v, n=300))
        assert abs(j.value - ref) <= j.tail_bound + 1e-11


# The standalone loops that the readers of a map's one orbit replaced, kept
# as the reference: each one iterates its own orbit of c and applies the
# critical band itself.

def ref_symbols(f, x, n):
    return "".join("C" if abs(y) < mp.TOL_C else "L" if y < 0.0 else "R"
                   for y in ref_orbit(f, x, n, mp.TOL_C))


def ref_critical_orbit(f, n):
    points = tuple(ref_orbit(f, 0.0, n + 1, 0.0))
    products = [1.0]
    truncated = None
    prod = 1.0
    for i, x in enumerate(points[1:], 1):
        if x == 0.0:
            truncated = i
            break
        if i < n:
            d = f.deriv(x)
            if d == 0.0:
                raise mp.PreconditionError(
                    f"zero branch derivative at orbit point {x!r}")
            prod *= d
            products.append(prod)
    return mp.CriticalOrbit(points, tuple(products), truncated)


def ref_detect(f, p_max):
    band = []
    for q, x in enumerate(ref_orbit(f, 0.0, p_max + 1, 0.0)[1:], 1):
        r = abs(x)
        if r < mp.TOL_C:
            return mp.PeriodDetection(q, r, tuple(band))
        if r < mp.HYSTERESIS * mp.TOL_C:
            band.append((q, r))
    return mp.PeriodDetection(None, None, tuple(band))


def ref_relations(f, depth):
    xs = ref_orbit(f, 0.0, depth + 1, 0.0)
    hits, band = [], []
    for i in range(depth):
        for j in range(i + 1, depth + 1):
            r = abs(xs[i] - xs[j])
            if r < mp.TOL_C:
                hits.append((i, j))
            elif r < mp.HYSTERESIS * mp.TOL_C:
                band.append((i, j))
    hits.sort(key=lambda ij: (ij[0], ij[1] - ij[0]))
    canonical, derived = [], []
    for i, j in hits:
        if any(i >= i0 and (j - i) % (j0 - i0) == 0 for i0, j0 in canonical):
            derived.append((i, j))
        else:
            canonical.append((i, j))
    return mp.CriticalRelationSet(tuple(canonical), tuple(sorted(derived)),
                                  tuple(sorted(band)))


def ref_series(f, v, n, tail):
    if n == 0:
        return 0.0, 0.0, 0
    orb = ref_critical_orbit(f, n)
    terms = [v.value(x) / p for x, p in zip(orb.points[:n], orb.products[:n])]
    return math.fsum(terms), tail if len(terms) == n else 0.0, len(terms)


def ref_j(f, v):
    n, tail = fn._series_depth(f, v, fn.J_TOL)
    if n == 0:
        return fn.JResult(0.0, "series", 0, 0.0)
    det = ref_detect(f, max(mp.P_MAX, n))
    if det.clean and det.period is not None:
        return fn.JResult(ref_series(f, v, det.period, 0.0)[0], "periodic",
                          det.period, 0.0, det.period)
    series, tail, n = ref_series(f, v, n, tail)
    if det.clean:
        return fn.JResult(series, "series", n, tail)
    q = min(q for q, _ in det.ambiguous)
    if det.period is not None:
        q = min(q, det.period)
    return fn.JResult(None, "ambiguous", n, tail, q,
                      (("periodic", ref_series(f, v, q, 0.0)[0]),
                       ("series", series)))


def _bits(r):
    """r with every float as its hex string, dataclasses as tuples."""
    if dataclasses.is_dataclass(r):
        return type(r).__name__, _bits(dataclasses.astuple(r))
    if isinstance(r, (tuple, list)):
        return tuple(_bits(x) for x in r)
    return r.hex() if isinstance(r, float) else r


def _read(make):
    """The bits of what make() returns, or its error's type and text."""
    try:
        return _bits(make())
    except (mp.PreconditionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


READERS = ("kneading", "critical_orbit", "detect", "relations", "j")


def _j_depth(f, v):
    """The deepest orbit index j_functional reads: its series depth, and at
    least P_MAX for the period search; 0 when it refuses the depth."""
    try:
        return max(mp.P_MAX, fn._series_depth(f, v, fn.J_TOL)[0])
    except mp.PreconditionError:
        return 0


def _readers(f, v, n):
    """Each orbit reader at depth n on f, its reference loop, and the
    deepest orbit index it reads."""
    m = max(2, n)
    return {
        "kneading": (lambda: mp.kneading(f, n),
                     lambda: ref_symbols(f, 0.0, n), n - 1),
        "critical_orbit": (lambda: mp.critical_orbit(f, n),
                           lambda: ref_critical_orbit(f, n), n),
        "detect": (lambda: mp.detect_periodic_critical(f, m),
                   lambda: ref_detect(f, m), m),
        "relations": (lambda: mp.critical_relations(f, m),
                      lambda: ref_relations(f, m), m),
        "j": (lambda: fn.j_functional(f, v), lambda: ref_j(f, v),
              _j_depth(f, v)),
    }


def _check_reads(f, v, reads):
    """Each (name, n) reader on f's one orbit against its reference; f's
    stored orbit never holds more points than the deepest read asked for."""
    deepest = 0
    for name, n in reads:
        read, ref, depth = _readers(f, v, n)[name]
        assert _read(read) == _read(ref), (name, n)
        deepest = max(deepest, depth)
        assert len(f._orbit[0]) <= deepest + 1, (name, n)


def _fresh(f):
    """f as a new instance: its own orbit, grown by nothing yet."""
    return mp.PiecewiseMap(f.left, f.right, f.k)


def _period_tent(p: int, lo: float, hi: float) -> mp.PiecewiseMap:
    """The tent in [lo, hi] whose f^p(c) changes sign there, to the bit."""
    def g(s):
        return mp.iterates(mp.symmetric_tent(s), p)[p]
    neg = g(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mp.symmetric_tent(lo)
        if (g(mid) < 0.0) == neg:
            lo = mid
        else:
            hi = mid


# maps whose raw orbit of c first enters the band |x| < TOL_C at x_k
BAND_ENTRIES = [
    (GOLDEN, 3),
    (_period_tent(5, 1.50, 1.53), 5),
    (mp.symmetric_tent(1.8392867552141612), 4),  # ROADMAP F4's base
    (TENT, None),                  # c -> 1 -> -1 -> -1 ...: never returns
    (mp.symmetric_tent(1.0 + 5e-11), 1),         # f(c) = 5e-11
]
BAND_IDS = ["golden", "period-5", "f4-base", "full-tent", "k-1"]


class TestOrbitRecordReaders:
    """Readers sharing one map's stored orbit against the standalone loops
    they replaced: strings equal, floats and errors bit for bit, read in
    any order and at any depth."""

    @given(curved_maps, fields, st.integers(1, 70),
           st.permutations(READERS))
    @settings(deadline=None, max_examples=40)
    def test_readers_share_one_record(self, f, v, n, order):
        _check_reads(_fresh(f), v, [(name, n) for name in order])

    @pytest.mark.parametrize("f, k", BAND_ENTRIES, ids=BAND_IDS)
    def test_band_entry_at_k(self, f, k):
        xs = ref_orbit(f, 0.0, 65, 0.0)
        assert k == next((i for i in range(1, 65)
                          if abs(xs[i]) < mp.TOL_C), None)
        depths = sorted({1, 2, 3, 30, 64} | (
            {k - 1, k, k + 1, 2 * k, 2 * k + 1} - {0} if k else set()))
        v = mp.bump_field()
        # one map read shallow to deep, one deep to shallow
        for order in (depths, depths[::-1]):
            _check_reads(_fresh(f), v,
                         [(name, n) for n in order for name in READERS])

    @pytest.mark.parametrize("f, k", BAND_ENTRIES, ids=BAND_IDS)
    def test_itinerary_enters_band_at_k(self, f, k):
        # x = f^j(c) enters the band at index k - j: raw symbols before it,
        # c's symbols from there on (index 0 when j = k)
        xs = ref_orbit(f, 0.0, 65, 0.0)
        for j in range(1, (k or 3) + 1):
            if k:
                assert ref_symbols(f, xs[j], 64)[k - j] == "C"
            for n in sorted({1, 2, 8, 30, 64} | (
                    {k - j, k - j + 1, k - j + 2} - {0} if k else set())):
                assert mp.itinerary(f, xs[j], n) == ref_symbols(f, xs[j], n)
        if f is GOLDEN:
            assert mp.itinerary(f, xs[1], 8) == "RLCRLCRL"

    @pytest.mark.parametrize("f, k", BAND_ENTRIES, ids=BAND_IDS)
    def test_period_products_as_snapped(self, f, k):
        # a period p found within TOL_C has no earlier exact return, so
        # the raw products to depth p are the ones that stop at the first
        # point of the band |x| < TOL_C
        p = mp.detect_periodic_critical(f).period
        if p is None:
            return
        xs = ref_orbit(f, 0.0, p + 1, mp.TOL_C)
        want = ref_products(f, xs, mp.TOL_C)
        assert len(want) == p
        assert _hex(mp.critical_orbit(_fresh(f), p).products) == _hex(want)


class TestVelocityMemo:
    @pytest.mark.parametrize("ts", [(0, 0.0, -0.0), (-0.0, 0.0, 0),
                                    (1, 1.0), (1.0, 1), (3, 3.0)])
    def test_equal_term_scalars_give_equal_bits(self, ts):
        # t + t**2 on bump and t**2 on odd: (s_1', s_2') = (1 + 2t, 2t), so
        # t = 0, 0.0 and -0.0 give (1.0, 0.0), (1.0, 0.0) and (1.0, -0.0),
        # and an int t gives a float t's scalars
        terms = (mp.FamilyTerm(mp.bump_field(), (1, 2)),
                 mp.FamilyTerm(mp.odd_field(), (2,)))
        F = mp.MapFamily(TENT, terms, (-4.0, 4.0))
        for t in ts:
            scalars = tuple(term.scalar_deriv(t) for term in terms)
            fresh = mp.MapFamily(TENT, terms, (-4.0, 4.0))
            want = outcome(lambda: mp._velocity(fresh, scalars))
            assert outcome(lambda: mp.family_velocity(F, t)) == want
            assert outcome(lambda: ref_velocity(F, t)) == want
        assert len(F._velocities) == 1


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
            ends = [sc._signature(fam, t, sc.KNEADING_DEPTH)
                    for t in (tr.t_lo, tr.t_hi)]
            assert ends[0] != ends[1]
