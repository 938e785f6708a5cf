"""Realization of itineraries, conjugacy transport, and table verification."""

import bisect
import dataclasses
import hashlib
import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from pexpand import cli
from pexpand import conjugacy as cj
from pexpand import deform as df
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand.errors import (NoPointError, OrbitRefusedError,
                            PreconditionError)

import oracles
from oracles import MP_A
from test_properties import curved_maps

A = float(MP_A)
X_STAR = (A - 1.0) / (A + 1.0)


@pytest.fixture(scope="module")
def golden():
    return mp.golden_tent()


@pytest.fixture(scope="module")
def tent():
    return mp.full_tent()


@pytest.fixture(scope="module")
def horizontal_tilde(golden):
    kp = fn.kernel_projection(golden, mp.bump_field(), mp.odd_field())
    fam = mp.MapFamily(golden, (mp.FamilyTerm(kp.field),),
                       domain=(-0.01, 0.01))
    trace = df.integrate_deformation(fam, mp.bump_field())
    return df.build_tilde_family(fam, mp.bump_field(), trace)


@pytest.fixture(scope="module")
def wide_tilde(golden):
    """Criterion 08's deformation: golden + the horizontal part of bump,
    deformed along odd, on the default domain (-0.02, 0.02)."""
    kp = fn.kernel_projection(golden, mp.bump_field(), mp.odd_field())
    fam = mp.MapFamily(golden, (mp.FamilyTerm(kp.field),))
    trace = df.integrate_deformation(fam, mp.odd_field())
    return df.build_tilde_family(fam, mp.odd_field(), trace)


class TestInverseBranch:
    def test_endpoints(self, golden):
        assert cj.inverse_branch(golden, -1.0, "L") == pytest.approx(-1.0,
                                                                     abs=1e-12)
        assert cj.inverse_branch(golden, -1.0, "R") == pytest.approx(1.0,
                                                                     abs=1e-12)

    def test_forward_residual(self, golden):
        rng = random.Random(7)
        cv = golden.critical_value
        for _ in range(50):
            y = -1.0 + rng.random() * (cv + 1.0)
            for side in ("L", "R"):
                z = cj.inverse_branch(golden, y, side)
                assert abs(golden.value(z) - y) < 1e-12
                assert (z <= 0.0) if side == "L" else (z >= 0.0)

    def test_above_range_rejected(self, golden):
        with pytest.raises(PreconditionError):
            cj.inverse_branch(golden, golden.critical_value + 0.1, "L")


class TestPointFromItinerary:
    def test_tent_left_fixed_point(self, tent):
        p = cj.point_from_itinerary(tent, "L" * 40)
        assert abs(p.x - (-1.0)) <= 2.0 * 2.0 ** -40 + 1e-12
        assert p.bound == pytest.approx(2.0 * 2.0 ** -40)

    def test_tent_two_cycle(self, tent):
        p = cj.point_from_itinerary(tent, "RL" * 20)
        assert p.x == pytest.approx(0.6, abs=1e-11)

    def test_golden_right_fixed_point(self, golden):
        p = cj.point_from_itinerary(golden, "R" * 40)
        assert p.x == pytest.approx(X_STAR, abs=1e-8)
        assert abs(p.x - X_STAR) <= p.bound

    def test_unrealizable_word(self, golden):
        with pytest.raises(NoPointError) as exc:
            cj.point_from_itinerary(golden, "RR" + "L" * 38)
        assert exc.value.index == 0

    def test_critical_word(self, tent):
        word = mp.kneading(tent, 40)
        assert cj.point_from_itinerary(tent, word).x == 0.0

    def test_interior_c_rejected(self, golden):
        with pytest.raises(PreconditionError):
            cj.point_from_itinerary(golden, "RCL")

    def test_depth_beyond_word_rejected(self, golden):
        with pytest.raises(PreconditionError):
            cj.point_from_itinerary(golden, "RL", n=3)

    @pytest.mark.parametrize("n", [20, 30, 40, 50, 60])
    def test_period_six_word_every_depth(self, n):
        # the itinerary of the period-6 point x = -0.6306661 of the 1.8
        # tent; its cylinder never empties, whatever the depth
        f = mp.symmetric_tent(1.8)
        p = cj.point_from_itinerary(f, ("LLRRLR" * 11)[:60], n)
        assert abs(p.x - (-0.6306661353474717)) <= p.bound
        assert mp.itinerary(f, p.x, 20) == ("LLRRLR" * 4)[:20]

    def test_deep_word_near_fixed_point(self, tent):
        # backward composition stalls at solver tolerance near -1; the
        # garbled tail of the forward replay must not count against an
        # admissible word
        p = cj.point_from_itinerary(tent, "L" * 60)
        assert abs(p.x - (-1.0)) < 1e-9


class TestConjugatePoint:
    def test_identity_within_bound(self, golden):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            x = -1.0 + 2.0 * rng.random()
            word = mp.itinerary(golden, x, 40)
            if "C" in word[1:]:
                continue
            r = cj.conjugate_point(golden, golden, x)
            assert abs(r.y - x) <= r.bound
            checked += 1

    def test_endpoint_to_endpoint(self, golden, tent):
        r = cj.conjugate_point(golden, tent, -1.0)
        assert r.y == pytest.approx(-1.0, abs=1e-9)

    def test_fixed_point_to_fixed_point(self, golden, tent):
        r = cj.conjugate_point(golden, tent, X_STAR)
        assert abs(r.y - 1.0 / 3.0) <= r.bound + 1e-12

    def test_critical_orbit_refused(self, golden, tent):
        with pytest.raises(OrbitRefusedError) as exc:
            cj.conjugate_point(golden, tent, golden.value(0.0))
        assert exc.value.index == 2

    def test_critical_point_refused(self, golden):
        other = golden.add_scaled(mp.bump_field(), 0.01)
        with pytest.raises(OrbitRefusedError) as exc:
            cj.conjugate_point(golden, other, 0.0)
        assert exc.value.index == 3

    def test_fixed_point_transport(self, golden, horizontal_tilde):
        f1 = horizontal_tilde.map_at(0.01)
        r = cj.conjugate_point(golden, f1, X_STAR, n=60)
        assert abs(f1.value(r.y) - r.y) < 1e-10

    def test_composition(self, golden, tent):
        f_mid = golden.add_scaled(mp.square_bump_field(), 0.02)
        x = X_STAR
        direct = cj.conjugate_point(golden, tent, x)
        step1 = cj.conjugate_point(golden, f_mid, x)
        step2 = cj.conjugate_point(f_mid, tent, step1.y)
        slack = 5.0 * (direct.bound + step1.bound + step2.bound)
        assert abs(step2.y - direct.y) <= slack

    def test_depth_convergence(self, golden, tent):
        lam = mp.lambda_of(golden)
        r40 = cj.conjugate_point(golden, tent, 0.3, n=40)
        r50 = cj.conjugate_point(golden, tent, 0.3, n=50)
        assert abs(r40.y - r50.y) <= 2.0 * lam ** -40

    def test_itinerary_preserved(self, golden, tent):
        n = 40
        r = cj.conjugate_point(golden, tent, 0.3, n=n)
        w0 = mp.itinerary(golden, 0.3, n - 5)
        w1 = mp.itinerary(tent, r.y, n - 5)
        assert w0 == w1


class TestWordsAndTable:
    def test_periodic_word_count(self, golden):
        words = cj.periodic_words(golden)
        assert len(words) == 98
        # the three other roots are the 3-periodic critical orbit: c, a lap
        # end of every f^q, and the kinks f(c) and f^2(c), where f^3
        # touches the diagonal without crossing it.  Each is a lap end, so
        # it is found as a hit, and its word carries a C
        roots = cj._periodic_roots(golden, 8)
        assert len(roots) == 98 + 3
        critical = [(r, q) for r, q, _ in roots
                    if "C" in mp.itinerary(golden, r, q)]
        orbit = sorted(x for x, _ in zip(golden.critical_points(), range(3)))
        assert [q for _, q in critical] == [3, 3, 3]
        assert [r for r, _ in critical] == pytest.approx(orbit, abs=1e-13)

    def test_words_shift_closed(self, golden):
        words = set(cj.periodic_words(golden, depth=60))
        for w in words:
            assert (w[1:] + "?")[:-1] in {u[: len(w) - 1] for u in words}

    def test_self_table(self, golden):
        table = cj.ConjugacyTable.build(golden, golden, depth=60)
        assert len(table.entries) >= 200
        xs = [e.x for e in table.entries]
        assert all(xs[i] < xs[i + 1] for i in range(len(xs) - 1))
        rep = cj.verify_conjugacy(golden, golden, table)
        assert rep.passed and rep.monotonic
        assert rep.unmatched == 0
        assert rep.max_residual < 1e-10
        assert rep.coverage >= 200

    @pytest.mark.parametrize("f1, searches", [("golden_tent", 1),
                                              ("full_tent", 2)])
    def test_root_searches_per_table(self, tmp_path, monkeypatch, f1,
                                     searches):
        maps = []
        real = cj._periodic_points
        monkeypatch.setattr(cj, "_periodic_points",
                            lambda f, *a: maps.append(f) or real(f, *a))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"f0": "golden_tent", "f1": f1}))
        assert cli.main(["conjugacy", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0
        assert len(maps) == searches
        if searches == 1:
            # the bytes of the golden self-table from two searches
            table = (tmp_path / "o" / "table.csv").read_bytes()
            assert hashlib.sha256(table).hexdigest() == (
                "18a85136e4250f596872ad6343d2ca61"
                "403230784d4c212afb7b497b36a641b0")

    def test_cross_table(self, golden, tent):
        table = cj.ConjugacyTable.build(golden, tent, depth=60)
        rep = cj.verify_conjugacy(golden, tent, table)
        assert rep.passed and rep.monotonic and rep.unmatched == 0
        assert rep.max_residual < 1e-8

    def test_empty_table_vacuous(self, golden, tent):
        rep = cj.verify_conjugacy(golden, tent, cj.ConjugacyTable((), 40))
        assert rep.vacuous and rep.passed and rep.coverage == 0

    def test_corrupt_entry_breaks_monotonicity(self, golden):
        # min_count 0: the periodic points alone
        table = cj.ConjugacyTable.build(golden, golden, 0, depth=60)
        assert len(table.entries) == len(cj.periodic_words(golden))
        bad = list(table.entries)
        bad[5] = dataclasses.replace(bad[5], y=bad[40].y)
        rep = cj.verify_conjugacy(
            golden, golden, cj.ConjugacyTable(tuple(bad), table.depth))
        assert not rep.monotonic and not rep.passed

    def test_unrealizable_word_propagates(self, golden, tent):
        # the full tent has periodic words the golden tent lacks
        with pytest.raises(NoPointError, match=r"word '[LR]{60}'"):
            cj.ConjugacyTable.build(tent, golden, depth=60)

    def test_tail_above_critical_value_raises(self, golden, tent):
        # the fixed points agree, but the tent's preimage tree climbs above
        # the golden tent's critical value 0.618
        with pytest.raises(NoPointError, match=r"realizes '[LR]{40}'"):
            cj.ConjugacyTable.build(tent, golden, 100, 1)


def _fq(f, q, x):
    """f^q(x), stepping f.value q times."""
    for _ in range(q):
        x = f.value(x)
    return x


def _scalar_roots(f, max_period, grid_n=None):
    """The root search one bracket at a time: the lap ends of each f^q
    (-1, 1 and c's preimages of order < q, each by a scalar
    inverse_branch), or a grid of grid_n points, and one scalar bisection
    of 60 halvings per sign change; a root within 1e-13 of an earlier one
    is dropped."""
    roots = []

    def add(r, q):
        if all(abs(seen - r) >= 1e-13 for seen, _ in roots):
            roots.append((r, q))

    ends, order = {-1.0, 0.0, 1.0}, [0.0]
    for q in range(1, max_period + 1):
        if q > 1:
            order = [cj.inverse_branch(f, y, side) for y in order
                     if y <= f.critical_value for side in "LR"]
            ends.update(order)
        xs = (np.linspace(-1.0, 1.0, grid_n) if grid_n
              else np.array(sorted(ends)))
        ys = xs
        for _ in range(q):
            ys = mp._on_branches(f.left, f.right, ys)
        g = ys - xs
        for i in np.flatnonzero(np.abs(g) < 1e-13):
            add(float(xs[i]), q)
        for i in np.flatnonzero(g[:-1] * g[1:] < 0.0):
            lo, hi = float(xs[i]), float(xs[i + 1])
            glo = float(g[i])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                gm = _fq(f, q, mid) - mid
                if glo * gm <= 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            add(0.5 * (lo + hi), q)
    return sorted(roots)


def _golden_tent_points(max_period):
    """Points of period <= max_period of the golden tent.  Its core
    [f^2(c), f(c)] splits at c into I1 -> I2, I2 -> I1 u I2, so f^p has
    trace A^p = L_p (the Lucas numbers 1, 3, 4, 7, ...) fixed points there,
    the critical orbit counted once; Moebius inversion leaves those of
    prime period p, and -1 is the one periodic point outside the core:
    101 in all at 8, 5623 at 16."""
    lucas = [2, 1]
    while len(lucas) <= max_period:
        lucas.append(lucas[-1] + lucas[-2])
    prime = {}
    for p in range(1, max_period + 1):
        prime[p] = lucas[p] - sum(prime[d] for d in range(1, p) if p % d == 0)
    return 1 + sum(prime.values())


def _full_tent_points(max_period):
    """Points of period <= max_period of the full tent.  f^p has 2^p laps,
    each crossing the diagonal once, so 2^p points have a period dividing p;
    those of prime period p are what the proper divisors leave (Moebius
    inversion): 2, 2, 6, 12, ..., 472 in all at 8, 8032 at 12."""
    prime = {}
    for p in range(1, max_period + 1):
        prime[p] = 2 ** p - sum(prime[d] for d in range(1, p) if p % d == 0)
    return sum(prime.values())


QUARTIC = mp.golden_tent().add_scaled(mp.square_bump_field(), 0.05)


class TestPeriodicRoots:
    @pytest.mark.parametrize("f", [mp.golden_tent(), mp.full_tent(), QUARTIC],
                             ids=["golden", "full", "quartic"])
    def test_batched_bisection_bit_equal(self, f):
        assert mp.validate(f).passed
        batched = [(r.hex(), q) for r, q, _ in cj._periodic_roots(f, 8)]
        assert batched == [(r.hex(), q) for r, q in _scalar_roots(f, 8)]

    def test_value_calls_per_halving(self, golden, tent, monkeypatch):
        # one f.value array call per step of the longest period left, so at
        # most max_period per halving for 61 halvings, however many periods
        # there are; one call per step of every period would be sum q = 36
        # per halving at 8 (1644 in all), and bisecting the periods in
        # groups pays max q per group (1675 at full-12, 11 026 at golden-24).
        # The lap ends' values add max_period calls: 466, 672 and 1378 in all
        arrays = []
        real = mp.PiecewiseMap.value
        monkeypatch.setattr(
            mp.PiecewiseMap, "value",
            lambda f, x: arrays.append(isinstance(x, np.ndarray)) or real(f, x))
        for f, max_period in ((golden, 8), (tent, 12), (golden, 24)):
            arrays.clear()
            cj._periodic_roots(f, max_period)
            assert sum(arrays) <= 61 * max_period, max_period

    @pytest.mark.parametrize("max_period", range(1, 17))
    def test_complete_on_full_tent(self, tent, max_period):
        roots = cj._periodic_roots(tent, max_period)
        assert len(roots) == _full_tent_points(max_period)

    @pytest.mark.parametrize("max_period", range(1, 17))
    def test_complete_on_golden_tent(self, golden, max_period):
        roots = cj._periodic_roots(golden, max_period)
        assert len(roots) == _golden_tent_points(max_period)

    @given(curved_maps)
    @settings(deadline=None, max_examples=6)
    def test_complete_on_curved_maps(self, f):
        # what a grid 20 times finer than the old search's finds, the laps
        # find too; and no root is kept twice: by the dedupe band, a point
        # met again at a multiple of its period would repeat its word there
        roots = cj._periodic_roots(f, 8)
        xs = [r for r, _, _ in roots]
        for r, q in _scalar_roots(f, 8, grid_n=800001):
            j = bisect.bisect_left(xs, r)
            near = min(xs[max(j - 1, 0):j + 1], key=lambda x: abs(x - r))
            assert abs(near - r) < 1e-12, (r, q)
        words = [mp.itinerary(f, r, q) for r, q, _ in roots]
        for w in words:
            assert "C" in w or not any(
                w == w[:d] * (len(w) // d)
                for d in range(1, len(w)) if len(w) % d == 0), w
        lr = [w for w in words if "C" not in w]
        assert len(set(lr)) == len(lr)

    def test_lap_ends_counted_against_the_budget(self, monkeypatch):
        # curved_not_good's laps outgrow lambda^q = 1.05^q (f^11 has 486
        # lap ends, lambda^11 = 1.71), so the ends are counted as each
        # order is built: under a budget of 500, f^11's 486 are built and
        # f^12's, which could reach 780, refused
        monkeypatch.setattr(cj, "MAX_TERMS", 500)
        f = mp.curved_not_good()
        assert len(cj._periodic_roots(f, 11)) == 481
        with pytest.raises(PreconditionError, match=(
                r"^the lap ends of f\^12 could pass MAX_TERMS=500, so "
                r"max_period 13 is refused$")):
            cj._periodic_roots(f, 13)

    def test_enclosures_small(self, golden):
        bounds = [e for _, _, e in cj._periodic_roots(golden, 8)]
        assert 0.0 < max(bounds) < 1e-13

    # SHA-256 of the search's (root, q, enclosure) float.hex triples, one a
    # line: the bisection may be reorganized, but not move a bit of these.
    # On golden and curved_not_good two brackets near c reach the 60th
    # halving unconverged (at q = 3); the rest converge by then.
    @pytest.mark.parametrize("f, max_period, digest", [
        (mp.golden_tent(), 8, "4319b0d4eb85c1f08861fab41f7bce5e"
                              "8147704be69af572b9db4726aa94d204"),
        (mp.full_tent(), 8, "fef22064c5c37fae3bfab253c369af14"
                            "1516011a8b10b9d92af712830d126611"),
        (QUARTIC, 8, "a13ad931f0cccdbae593873656bd1105"
                     "8eaa832212de2f3b6d26842f32fb39a4"),
        (mp.curved_not_good(), 10, "5eba43ad9f89f42537df0ad8a90efb92"
                                   "317202acce0da515a308426b1671cab3"),
        (mp.full_tent(), 12, "898fe4970abd61e671a18c601d8f33d7"
                             "f057d817f47c7cf6e06c0122706f1997"),
        (mp.golden_tent(), 24, "6f8645255d3624512db488d33f764b3d"
                               "c6a1e1a905422a1d2ae405b68449c712"),
        (mp.full_tent(), 16, "3336fa7aebd1c649b645ebbadd384dca"
                             "212caf7e0cf23e9b8f4bb99850ee8a56"),
    ], ids=["golden-8", "full-8", "quartic-8", "curved_not_good-10",
            "full-12", "golden-24", "full-16"])
    def test_enclosures_pinned(self, f, max_period, digest):
        text = "".join(f"{r.hex()} {q} {e.hex()}\n"
                       for r, q, e in cj._periodic_roots(f, max_period))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTableCost:
    @pytest.mark.parametrize("target", ["golden", "tent"])
    def test_two_solves_per_child(self, golden, tent, monkeypatch, target):
        f1 = golden if target == "golden" else tent
        calls, refused = [], []
        real = cj.inverse_branch

        def counting(f, y, side):
            z = real(f, y, side)
            calls.append(f)
            if f is golden and abs(z) < 1e-9:
                refused.append(z)
            return z

        roots = len(cj.periodic_words(golden, 8, 60))
        real_points = cj._periodic_points

        def tree_only(*args):
            # the lap ends of the root search are inverse solves too; only
            # the word tree's, made after both searches, are counted
            points = real_points(*args)
            calls.clear()
            refused.clear()
            return points

        monkeypatch.setattr(cj, "inverse_branch", counting)
        monkeypatch.setattr(cj, "_periodic_points", tree_only)
        table = cj.ConjugacyTable.build(golden, f1, 200, 8, 60)
        assert len(calls) == 2 * (len(table.entries) - roots) + len(refused)
        # -1's preimage 1 lies above f(c) = 0.618, so both children of 1
        # are c itself
        assert len(refused) == 2


def _exact_table(f0, f1, monkeypatch, depth=60):
    """A table and, per entry, the exact (x*, y*) at 50 digits: Newton on
    f^q at each periodic root, then exact inverse branches down the tree
    that the builder's inverse solves record."""
    made = {}
    real = cj.inverse_branch

    def recording(f, y, side):
        z = real(f, y, side)
        made[id(f), z] = (y, side)
        return z

    monkeypatch.setattr(cj, "inverse_branch", recording)
    table = cj.ConjugacyTable.build(f0, f1, 200, 8, depth)

    def exact(f, x):
        if (id(f), x) in made:
            y, side = made[id(f), x]
            target = exact(f, y)
            z = mpmath.mpf(x)
            for _ in range(8):
                z -= (oracles.mp_value(f, z) - target) / oracles.mp_deriv(f, z)
            assert (z < 0) == (side == "L")
            return z
        q = next(q for q in range(1, 9)
                 if abs(_fq(f, q, x) - x) < 1e-9)
        t = mpmath.mpf(x)
        for _ in range(8):
            y, d = t, mpmath.mpf(1)
            for _ in range(q):
                d *= oracles.mp_deriv(f, y)
                y = oracles.mp_value(f, y)
            t -= (y - t) / (d - 1)
        return t

    with mpmath.workdps(50):
        step = len(table.entries) // 20
        pairs = [(e, exact(f0, e.x), exact(f1, e.y))
                 for e in table.entries[::step][:20]]
    return table, pairs


class TestEnclosures:
    def test_golden_self_table(self, golden, monkeypatch):
        _, pairs = _exact_table(golden, golden, monkeypatch)
        assert len(pairs) == 20
        for e, xs, ys in pairs:
            assert abs(e.x - xs) <= e.bound and abs(e.y - ys) <= e.bound

    def test_cross_table_to_deformed_map(self, golden, horizontal_tilde,
                                         monkeypatch):
        f1 = horizontal_tilde.map_at(0.01)
        _, pairs = _exact_table(golden, f1, monkeypatch)
        assert len(pairs) == 20
        for e, xs, ys in pairs:
            assert abs(e.x - xs) <= e.bound and abs(e.y - ys) <= e.bound

    def test_depth_40_table_to_deformed_map(self, golden, wide_tilde):
        f1 = wide_tilde.map_at(0.02)
        table = cj.ConjugacyTable.build(golden, f1, 200, 8, 40)
        rep = cj.verify_conjugacy(golden, f1, table)
        assert rep.passed and rep.unmatched == 0 and rep.max_residual < 1e-8


class TestLipschitz:
    def test_horizontal_family(self, horizontal_tilde):
        rep = cj.lipschitz_estimate(horizontal_tilde, 0.3)
        assert math.isfinite(rep.constant) and rep.constant > 0.0
        assert rep.bound_shape > 0.0
        assert rep.n_nodes == len(horizontal_tilde.ts)

    def test_grid_refinement_consistent(self, horizontal_tilde):
        ts = horizontal_tilde.ts
        coarse = cj.lipschitz_estimate(horizontal_tilde, 0.3, t_grid=ts[::4])
        fine = cj.lipschitz_estimate(horizontal_tilde, 0.3, t_grid=ts[::2])
        assert fine.constant == pytest.approx(coarse.constant, rel=0.25)

    def test_constant_family_is_flat(self, golden):
        fam = mp.MapFamily(golden, (), domain=(-0.01, 0.01))
        trace = df.integrate_deformation(fam, mp.bump_field())
        tilde = df.build_tilde_family(fam, mp.bump_field(), trace)
        rep = cj.lipschitz_estimate(tilde, 0.3)
        assert rep.constant == 0.0
        assert rep.bound_shape == 0.0

    def test_single_node_rejected(self, horizontal_tilde):
        with pytest.raises(PreconditionError):
            cj.lipschitz_estimate(horizontal_tilde, 0.3, t_grid=(0.0,))

    def test_critical_orbit_refused(self, horizontal_tilde):
        with pytest.raises(OrbitRefusedError) as exc:
            cj.lipschitz_estimate(horizontal_tilde, 0.0)
        assert exc.value.index == 3
