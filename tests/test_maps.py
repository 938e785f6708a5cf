import math

import numpy as np
import pytest

from pexpand import (
    AmbiguousPeriodicityError,
    CertificationError,
    DirectionField,
    FamilyTerm,
    InvalidMapError,
    MapFamily,
    PiecewiseMap,
    PreconditionError,
    bump_field,
    critical_orbit,
    critical_relations,
    curved_not_good,
    detect_periodic_critical,
    expansivity_certificate,
    family_eval,
    family_velocity,
    full_tent,
    golden_tent,
    is_good,
    itinerary,
    kneading,
    odd_field,
    require_valid,
    square_bump_field,
    symmetric_tent,
    validate,
)
from pexpand.maps import (
    BOUNDARY_SLACK,
    ENDPOINT_TOL,
    GOLDEN_RATIO,
    MEMO_SIZE,
    _onto_interval,
    interval_image,
    iterates,
)

import oracles

A = GOLDEN_RATIO
U = A - 1.0  # critical value of the golden tent, u = a - 1


class TestValidate:
    def test_full_tent_passes(self):
        rep = validate(full_tent())
        assert rep.passed
        assert rep.lambda_f == pytest.approx(2.0, abs=1e-9)
        assert full_tent().df_minus == 2.0
        assert full_tent().df_plus == -2.0

    def test_golden_tent_passes(self):
        rep = validate(golden_tent())
        assert rep.passed
        assert rep.lambda_f == pytest.approx(A, abs=1e-9)

    def test_slope_below_one_fails_expansion(self):
        rep = validate(symmetric_tent(0.5))
        assert not rep.passed
        names = {c.name for c in rep.failures()}
        assert "expansion_left" in names and "expansion_right" in names

    def test_critical_value_above_one_fails(self):
        # slope 2.05 tent has f(0) = 1.05 > 1 but fixes the boundary
        rep = validate(symmetric_tent(2.05))
        assert [c.name for c in rep.failures()] == ["critical_value"]

    def test_boundary_break_fails(self):
        rep = validate(PiecewiseMap((0.9, 2.0), (0.9, -2.0)))
        assert not rep.passed
        assert rep.failures()[0].name == "boundary_fixed"

    def test_require_valid_raises_with_report(self):
        with pytest.raises(InvalidMapError) as exc:
            require_valid(symmetric_tent(0.5))
        assert exc.value.report is not None and not exc.value.report.passed

    def test_not_good_example_is_still_valid(self):
        rep = validate(curved_not_good())
        assert rep.passed
        assert rep.lambda_f > 1.0

    def test_tent_lambda_is_its_slope(self):
        # a constant Df is evaluated exactly, so no rounding pad applies
        for s in [*np.linspace(1.0 + 1e-12, 2.0, 257), A, 1.0 + 5e-11]:
            assert validate(symmetric_tent(s)).lambda_f.hex() == s.hex()


class TestConstruction:
    def test_degree_cap(self):
        coeffs = (0.0,) + (0.0,) * 16 + (1.0,)
        with pytest.raises(ValueError):
            PiecewiseMap(coeffs, coeffs)

    def test_branches_must_share_critical_value(self):
        with pytest.raises(ValueError):
            PiecewiseMap((1.0, 2.0), (1.0 + 1e-15, -2.0))

    def test_eval_outside_interval(self):
        with pytest.raises(PreconditionError):
            full_tent().value(1.5)
        with pytest.raises(PreconditionError):
            full_tent().value(np.array([0.5, -1.0 - 2e-9]))

    def test_eval_snaps_within_validation_slack(self):
        # validates with f(-1) one ulp below -1, so the orbit of -1 leaves I
        f = PiecewiseMap((0.5, 1.5000000000000002), (0.5, -1.5))
        assert validate(f).passed
        assert f.value(f.value(-1.0)) == f.value(-1.0)
        g = full_tent()
        assert g.value(-1.0 - 1e-9) == g.value(-1.0)
        assert g.value(1.0 + 1e-12) == g.value(1.0)
        assert g.value(np.array([-1.0 - 1e-9]))[0] == g.value(-1.0)
        with pytest.raises(PreconditionError):
            g.value(1.0 + 1e-11)

    def test_snap_has_the_bits_of_np_clip(self):
        xs = np.array([-0.0, 0.0, -1.0, 1.0, -1.0 - ENDPOINT_TOL,
                       1.0 + BOUNDARY_SLACK, 0.3, -0.7])
        ref = np.clip(xs, -1.0, 1.0)
        assert [v.hex() for v in _onto_interval(xs)] == \
               [v.hex() for v in ref]
        assert [_onto_interval(float(x)).hex() for x in xs] == \
               [v.hex() for v in ref]

    def test_deriv_at_c_needs_side(self):
        f = full_tent()
        with pytest.raises(PreconditionError):
            f.deriv(0.0)
        assert f.deriv(0.0, side="R") == -2.0
        assert f.deriv(0.0, side="L") == 2.0

    def test_deriv_side_is_keyword_only(self):
        # a derivative order in the old second place must not bind to side
        with pytest.raises(TypeError):
            full_tent().deriv(0.3, 1)

    def test_point_evaluations(self):
        f, g = full_tent(), golden_tent()
        assert f.value(0.5) == 0.0
        assert f.value(0.25) == 0.5
        assert g.value(0.0) == pytest.approx(U, abs=1e-15)
        assert f.value(-1.0) == -1.0 and f.value(1.0) == -1.0


class TestCriticalOrbit:
    def test_full_tent_orbit_and_products(self):
        orb = critical_orbit(full_tent(), 4)
        assert orb.points == (0.0, 1.0, -1.0, -1.0, -1.0)
        assert orb.products == (1.0, -2.0, -4.0, -8.0)
        assert orb.truncated_at is None

    def test_golden_orbit_is_raw(self):
        # f^3(c) misses c by an ulp: the orbit is not snapped and its
        # products run on; only the kneading reads the band
        f = golden_tent()
        orb = critical_orbit(f, 5)
        assert orb.truncated_at is None
        assert orb.points[1] == pytest.approx(U, abs=1e-15)
        assert orb.points[2] == pytest.approx(-U * U, abs=1e-15)
        assert 0.0 < abs(orb.points[3]) < 1e-14
        assert len(orb.products) == 5
        assert orb.products[1] == pytest.approx(-A, abs=1e-14)
        assert orb.products[2] == pytest.approx(-A * A, abs=1e-13)
        assert kneading(f, 5) == "CRLCR"

    def test_orbit_truncates_at_exact_return(self):
        # the 1.0001 tent's raw orbit lands on 0.0 exactly at step 32
        orb = critical_orbit(symmetric_tent(1.0001), 40)
        assert orb.truncated_at == 32 and orb.points[32] == 0.0
        # products stop before a one-sided derivative at c would be needed
        assert len(orb.products) == 32
        # past the return the orbit repeats c's exactly
        assert orb.points[33:] == orb.points[1:9]

    def test_iterates_reads_and_grows_the_stored_orbit(self, monkeypatch):
        # iterates walks no orbit of its own: it extends the map's, so a
        # later reader of the same depth steps f no further
        steps = []
        value = PiecewiseMap.value

        def counted(f, x):
            steps.append(x)
            return value(f, x)
        monkeypatch.setattr(PiecewiseMap, "value", counted)
        g = symmetric_tent(1.7)
        xs = iterates(g, 12)
        assert len(steps) == 12 and xs == g._orbit[0]
        assert kneading(g, 13) == "C" + "".join(
            "L" if x < 0.0 else "R" for x in xs[1:])
        assert len(steps) == 12

    def test_depth_one(self):
        orb = critical_orbit(full_tent(), 1)
        assert orb.points == (0.0, 1.0)
        assert orb.products == (1.0,)

    def test_products_expand_at_least_geometrically(self):
        f = symmetric_tent(1.7)
        orb = critical_orbit(f, 40)
        lam = validate(f).lambda_f
        for i, p in enumerate(orb.products):
            assert abs(p) >= lam ** i * (1 - 1e-12)


class TestItinerary:
    def test_full_tent_kneading(self):
        assert kneading(full_tent(), 6) == "CRLLLL"

    def test_golden_kneading_periodic_via_snap(self):
        assert kneading(golden_tent(), 7) == "CRLCRLC"
        assert kneading(golden_tent(), 30) == "CRL" * 10

    def test_left_endpoint_fixed(self):
        assert itinerary(full_tent(), -1.0, 5) == "LLLLL"

    def test_interior_point(self):
        # 0.3 -> 0.4 -> 0.2 -> 0.6 -> -0.2 under the full tent
        assert itinerary(full_tent(), 0.3, 5) == "RRRRL"

    def test_caller_word_symbols_checked(self):
        from pexpand.conjugacy import point_from_itinerary
        with pytest.raises(PreconditionError, match="L, C or R"):
            point_from_itinerary(full_tent(), "LXR")


class TestPeriodDetection:
    def test_golden_period_3(self):
        det = detect_periodic_critical(golden_tent())
        assert det.period == 3 and det.clean

    def test_full_tent_not_periodic(self):
        det = detect_periodic_critical(full_tent(), p_max=20)
        assert det.period is None and det.clean

    def test_perturbation_breaks_relation(self):
        f = golden_tent().add_scaled(bump_field(), 0.01)
        det = detect_periodic_critical(f, p_max=20)
        assert det.period is None
        # direct evaluation: f^3(c) - c is order of the perturbation
        x = 0.0
        for _ in range(3):
            x = f.value(x)
        assert 1e-3 < abs(x) < 1e-1

    def test_hysteresis_band_reported(self):
        # place f^3(c) - c inside [TOL_C, 10 TOL_C): offset theta by the
        # known transversal slope of about -0.764 per unit theta
        theta = 5e-9 / 0.7639320225002103
        f = golden_tent().add_scaled(bump_field(), theta)
        det = detect_periodic_critical(f, p_max=10)
        assert not det.clean
        qs = [q for q, _ in det.ambiguous]
        assert 3 in qs


class TestCriticalRelations:
    def test_golden_canonical_and_derived(self):
        rel = critical_relations(golden_tent(), depth=6)
        assert rel.canonical == ((0, 3),)
        assert set(rel.derived) == {(0, 6), (1, 4), (2, 5), (3, 6)}

    def test_full_tent_canonical(self):
        rel = critical_relations(full_tent(), depth=6)
        assert rel.canonical == ((2, 3),)
        assert (2, 4) in rel.derived and (3, 4) in rel.derived

    def test_nonrecurrent_orbit_empty(self):
        rel = critical_relations(symmetric_tent(1.9), depth=20)
        assert rel.relations == ()
        assert rel.ambiguous == ()


class TestGoodness:
    def test_golden_margin(self):
        res = is_good(golden_tent())
        assert res.good and res.period == 3
        assert res.margin == pytest.approx(A ** 3 - 2.0, abs=1e-9)

    def test_full_tent_good_nonperiodic(self):
        res = is_good(full_tent())
        assert res.good and res.period is None and math.isinf(res.margin)

    def test_curved_example_not_good(self):
        res = is_good(curved_not_good())
        assert not res.good and res.period == 3
        assert res.margin == pytest.approx(-0.2255, abs=1e-10)

    def test_ambiguous_periodicity_propagates(self):
        theta = 5e-9 / 0.7639320225002103
        f = golden_tent().add_scaled(bump_field(), theta)
        with pytest.raises(AmbiguousPeriodicityError):
            is_good(f)


class TestExpansivityCertificate:
    def test_full_tent(self):
        cert = expansivity_certificate(full_tent())
        assert cert.n0 == 4
        assert cert.epsilon <= 0.25
        assert cert.margin > 0.0

    def test_golden_tent_contact_flag(self):
        cert = expansivity_certificate(golden_tent())
        assert cert.n0 == 4
        # period-3 return: third image touches c on its boundary
        assert 3 in cert.boundary_contacts
        assert cert.margin > 0.0

    def test_rejects_invalid_map(self):
        with pytest.raises(InvalidMapError):
            expansivity_certificate(symmetric_tent(0.8))

    def test_certificate_implies_growth(self):
        # |f^{N0}(Q)| > lambda|Q| for subintervals of [-eps, eps]
        import numpy as np
        rng = np.random.default_rng(7)
        for f in (full_tent(), golden_tent()):
            cert = expansivity_certificate(f)
            lam = validate(f).lambda_f
            for _ in range(1000):
                lo, hi = np.sort(rng.uniform(-cert.epsilon, cert.epsilon, 2))
                if hi - lo < 1e-12:
                    continue
                a, b = lo, hi
                for _ in range(cert.n0):
                    a, b = interval_image(f, a, b)
                assert (b - a) > lam * (hi - lo) * (1 - 1e-9)

    def test_n0_closed_form_matches_loop(self):
        from pexpand.maps import _n0

        def loop(lam):
            n0 = 3
            while lam ** (n0 - 2) <= 2.0:
                n0 += 1
            return n0

        # a smooth grid, and slopes lam = 2**(1/k) whose k-th power sits on
        # the > 2 edge, with their float neighbours
        lams = list(np.geomspace(1.0 + 1e-4, 4.0, 200))
        for k in range(1, 80):
            lam = 2.0 ** (1.0 / k)
            lams += [np.nextafter(lam, 0.0), lam, np.nextafter(lam, 3.0)]
        for lam in lams:
            assert _n0(float(lam)) == loop(float(lam)), lam
        assert _n0(2.0) == _n0(A) == 4

    def test_n0_budget_refused_fast(self):
        import time
        from pexpand import functional
        from pexpand.maps import MAX_TERMS
        assert functional.MAX_TERMS is MAX_TERMS
        start = time.perf_counter()
        with pytest.raises(CertificationError, match="MAX_TERMS"):
            expansivity_certificate(symmetric_tent(1.0 + 1e-7))
        assert time.perf_counter() - start < 1.0


class TestDirectionField:
    def test_boundary_zero_enforced(self):
        with pytest.raises(ValueError):
            DirectionField((1.0,), (1.0,))  # constant 1 is not zero at +-1
        DirectionField((1.0,), (1.0,), relaxed=True)

    def test_sup_norm_exact(self):
        assert bump_field().sup_norm() == pytest.approx(1.0, abs=1e-14)
        # x - x^3 peaks at 2/(3 sqrt 3)
        assert odd_field().sup_norm() == pytest.approx(2 / (3 * math.sqrt(3)), abs=1e-12)

    def test_sup_norm_bits(self):
        # the built-in fields' stationary points: none inside for bump,
        # +-1/sqrt(3) in closed form for odd, companion roots for square_bump
        assert [f().sup_norm().hex() for f in (bump_field, odd_field,
                                               square_bump_field)] == \
            ["0x1.0000000000000p+0", "0x1.8a2345cc04426p-2",
             "0x1.0000000000000p-2"]

    def test_c_norm_closed_forms(self):
        # bump's D1 = -2x peaks at the ends; order 0 is sup_norm's bits;
        # odd's D2 = -6x peaks at the ends
        assert bump_field().c_norm(1) == 2.0
        assert odd_field().c_norm(0).hex() == "0x1.8a2345cc04426p-2"
        assert odd_field().c_norm(2) == 6.0

    def test_c_norm_interior_peak(self):
        # an even quintic field whose D1 peaks near x = +-0.3576, off every
        # node of a 2048-point grid, above sup |v| = 0.9 and the end values
        right = (-0.9, 0.5, 2.5, -2.5, 0.0, 0.4)
        v = DirectionField(tuple(c * (-1) ** i for i, c in enumerate(right)),
                           right)
        exact = max(abs(x) for x in oracles.mp_deriv_range(right, 0.0, 1.0))
        got = v.c_norm(1)
        assert v.sup_norm() < 1.0 < got
        assert abs(got - exact) <= 4 * math.ulp(got)
        xs = np.linspace(0.0, 1.0, 2048)
        grid = float(np.max(np.abs(np.polyval(np.polyder(right[::-1]), xs))))
        assert grid < got

    def test_scale_add(self):
        v = bump_field().scale(2.0).add(odd_field())
        assert v.value(0.0) == 2.0
        assert abs(v.value(1.0)) < 1e-12


class TestMapFamily:
    def golden_bump(self):
        return MapFamily(golden_tent(), (FamilyTerm(bump_field()),))

    def test_eval_at_zero_is_base(self):
        F = self.golden_bump()
        assert family_eval(F, 0.0) == golden_tent()

    def test_eval_shifts_critical_value(self):
        f = family_eval(self.golden_bump(), 0.01)
        assert f.critical_value == pytest.approx(U + 0.01, abs=1e-15)

    def test_velocity_is_exact_term_derivative(self):
        F = MapFamily(golden_tent(), (FamilyTerm(bump_field(), (1, 3)),),
                      (-1.0, 1.0))
        v = family_velocity(F, 0.5)
        # d/dt (t + t^3) = 1 + 3 t^2 = 1.75 at t = 0.5
        assert v.value(0.0) == pytest.approx(1.75, abs=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(PreconditionError):
            family_eval(self.golden_bump(), 0.5)

    def test_invalid_assembly_carries_report(self):
        # slope 1.05 tent loses expansion once t drags the slope under 1
        F = MapFamily(symmetric_tent(1.05),
                      (FamilyTerm(DirectionField((1.0, 1.0), (1.0, -1.0))),),
                      (-0.1, 0.1))
        with pytest.raises(InvalidMapError) as exc:
            family_eval(F, -0.1)
        assert exc.value.report is not None

    def test_fractional_power_refused(self):
        with pytest.raises(ValueError, match="positive integers"):
            FamilyTerm(bump_field(), (1.5,))
        term = FamilyTerm(bump_field(), (2.0, 1))
        assert term.t_powers == (2, 1)
        assert type(term.t_powers[0]) is int
        assert term.scalar(0.5) == 0.75

    def test_overflowing_power_refused(self):
        term = FamilyTerm(bump_field(), (1, 3))
        assert term.scalar(1e100) == 1e100 + 1e300
        for scalar in (term.scalar, term.scalar_deriv):
            with pytest.raises(PreconditionError, match="overflows"):
                scalar(1e200)

    def test_int_power_overflow_refused(self):
        # an int t sums its powers exactly; 10**400 does not fit a float
        F = MapFamily(golden_tent(), (FamilyTerm(bump_field(), (2,)),),
                      (-1e300, 1e300))
        with pytest.raises(PreconditionError, match="overflows a float"):
            family_eval(F, 10**200)

    def test_repeated_t_reuses_one_velocity(self):
        F = self.golden_bump()
        v = family_velocity(F, 0.01)
        assert family_velocity(F, 0.01) is v
        g = family_eval(F, 0.01)
        assert family_eval(F, 0.01, w=odd_field(), theta=0.002) == \
               g.add_scaled(odd_field(), 0.002)

    def test_int_t_is_not_its_float(self):
        # 3**30 is a float exactly, but t**2 + t**3 sums exactly only as
        # an int, so the two t assemble different bits
        def fresh():
            term = FamilyTerm(bump_field(), (2, 3))
            return MapFamily(golden_tent(), (term,), (-1e15, 1e15))
        F, t = fresh(), 3 ** 30
        for u in (t, float(t), t):
            assert family_eval(F, u, check=False) == \
                   family_eval(fresh(), u, check=False)
        assert family_eval(F, t, check=False) != \
               family_eval(F, float(t), check=False)

    def test_memo_stays_bounded(self):
        # t + t**2: v_t's term scalar 1 + 2t differs at every t
        F = MapFamily(golden_tent(), (FamilyTerm(bump_field(), (1, 2)),))
        for t in np.linspace(-0.02, 0.02, 3 * MEMO_SIZE):
            family_eval(F, float(t))
            family_velocity(F, float(t))
        assert len(F._chains) <= MEMO_SIZE
        assert len(F._velocities) <= MEMO_SIZE

    def test_relaxed_field_rejected_as_direction(self):
        obs = DirectionField((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), relaxed=True)
        with pytest.raises(ValueError):
            MapFamily(golden_tent(), (FamilyTerm(obs),))

    def test_validity_on_grid_for_example_families(self):
        import numpy as np
        families = [
            MapFamily(golden_tent(), (FamilyTerm(bump_field()),)),
            MapFamily(full_tent(), (FamilyTerm(odd_field()),)),
        ]
        for F in families:
            for t in np.linspace(F.domain[0], F.domain[1], 101):
                assert validate(family_eval(F, float(t), check=False)).passed
