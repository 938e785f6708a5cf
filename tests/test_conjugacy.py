"""Realization of itineraries, conjugacy transport, and table verification."""

import dataclasses
import hashlib
import json
import math
import random

import mpmath
import numpy as np
import pytest

from pexpand import cli
from pexpand import conjugacy as cj
from pexpand import deform as df
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand.errors import (NoPointError, OrbitRefusedError,
                            PreconditionError)

import oracles
from oracles import MP_A

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
        # independent recount on a finer grid; one extra root is x = 0
        # itself (the critical orbit is 3-periodic but its other two
        # members are kink extrema of f^3, not sign changes)
        roots = cj._periodic_roots(golden, 8, grid_n=80001)
        assert len(roots) == 98 + 1

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
                "ee097622e532bb3123a755b875986f0b"
                "1647c69263cade67e4ac397d6e129d2e")

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


def _scalar_roots(f, max_period, grid_n=40001):
    """The root search before batching: one scalar bisection per bracket."""
    xs = np.linspace(-1.0, 1.0, grid_n)
    roots = []

    def add(r, q):
        if all(abs(seen - r) >= 1e-9 for seen, _ in roots):
            roots.append((r, q))

    ys = xs.copy()
    for q in range(1, max_period + 1):
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


QUARTIC = mp.golden_tent().add_scaled(mp.square_bump_field(), 0.05)


class TestPeriodicRoots:
    @pytest.mark.parametrize("f", [mp.golden_tent(), mp.full_tent(), QUARTIC],
                             ids=["golden", "full", "quartic"])
    def test_batched_bisection_bit_equal(self, f):
        assert mp.validate(f).passed
        batched = [(r.hex(), q) for r, q, _ in cj._periodic_roots(f, 8)]
        assert batched == [(r.hex(), q) for r, q in _scalar_roots(f, 8)]

    def test_enclosures_small(self, golden):
        bounds = [e for _, _, e in cj._periodic_roots(golden, 8)]
        assert 0.0 < max(bounds) < 1e-13


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

        monkeypatch.setattr(cj, "inverse_branch", counting)
        table = cj.ConjugacyTable.build(golden, f1, 200, 8, 60)
        roots = len(cj.periodic_words(golden, 8, 60))
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
