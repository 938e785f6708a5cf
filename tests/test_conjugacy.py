"""Realization of itineraries, conjugacy transport, and table verification."""

import dataclasses
import math
import random

import pytest

from pexpand import conjugacy as cj
from pexpand import deform as df
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand.errors import (NoPointError, OrbitRefusedError,
                            PreconditionError)

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
        words = cj.generate_conjugacy_words(golden)
        assert len(words) >= 200
        table = cj.ConjugacyTable.from_words(golden, golden, words, depth=60)
        xs = table.sources()
        assert all(xs[i] < xs[i + 1] for i in range(len(xs) - 1))
        rep = cj.verify_conjugacy(golden, golden, table)
        assert rep.passed and rep.monotonic
        assert rep.unmatched == 0
        assert rep.max_residual < 1e-10
        assert rep.coverage >= 200

    def test_cross_table(self, golden, tent):
        words = cj.generate_conjugacy_words(golden)
        table = cj.ConjugacyTable.from_words(golden, tent, words, depth=60)
        rep = cj.verify_conjugacy(golden, tent, table)
        assert rep.passed and rep.monotonic and rep.unmatched == 0
        assert rep.max_residual < 1e-8

    def test_empty_table_vacuous(self, golden, tent):
        rep = cj.verify_conjugacy(golden, tent, cj.ConjugacyTable((), 40))
        assert rep.vacuous and rep.passed and rep.coverage == 0

    def test_corrupt_entry_breaks_monotonicity(self, golden):
        words = cj.periodic_words(golden)
        table = cj.ConjugacyTable.from_words(golden, golden, words, depth=60)
        bad = list(table.entries)
        bad[5] = dataclasses.replace(bad[5], y=bad[40].y)
        rep = cj.verify_conjugacy(
            golden, golden, cj.ConjugacyTable(tuple(bad), table.depth))
        assert not rep.monotonic and not rep.passed

    def test_unrealizable_word_propagates(self, golden):
        with pytest.raises(NoPointError):
            cj.ConjugacyTable.from_words(golden, golden,
                                         ("RR" + "L" * 58,), depth=60)


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
