"""Randomized invariants: linearity and bounds of J, orbit growth,
itinerary uniqueness, table monotonicity, scan determinism."""

import numpy as np
from hypothesis import assume, given, settings
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
        prod *= f.deriv(x, 1)
        products.append(prod)
    return products


def ref_alpha(f, v, x, n_max, tol_c=mp.TOL_C):
    if abs(x) < tol_c:
        return 0.0
    total, prod = 0.0, 1.0
    for _ in range(n_max):
        prod *= f.deriv(x, 1)
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
        assert mp.kneading(f, 30).symbols == symbols(0.0, 30)
        assert mp.itinerary(f, x, 30).symbols == symbols(x, 30)

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
        assert mp.itinerary(GOLDEN, r.x, 20).symbols == r.word[:20]


class TestTableMonotonicity:
    @given(st.sets(st.integers(0, len(WORDS) - 1), min_size=5, max_size=30))
    @settings(deadline=None, max_examples=25)
    def test_sorted_sources_sorted_images(self, picks):
        words = [WORDS[i] for i in sorted(picks)]
        table = cj.ConjugacyTable.from_words(GOLDEN, TENT, words, depth=50)
        xs = table.sources()
        ys = table.images()
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
