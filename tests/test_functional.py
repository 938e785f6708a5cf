import math

import numpy as np
import pytest

from pexpand import (
    AmbiguousPeriodicityError,
    DegenerateDirectionError,
    DirectionField,
    FamilyTerm,
    InternalConsistencyError,
    MapFamily,
    PreconditionError,
    bump_field,
    full_tent,
    golden_tent,
    curved_not_good,
    odd_field,
    symmetric_tent,
)
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand.maps import GOLDEN_RATIO

import oracles

A = GOLDEN_RATIO
TRANSVERSAL_SLOPE = 0.7639320225002103  # |d/dtheta f^3(c)| along the bump family


def band_map(residual=5e-9):
    """Golden tent nudged so f^3(c) - c sits inside the hysteresis band."""
    return golden_tent().add_scaled(bump_field(), residual / TRANSVERSAL_SLOPE)


class TestJFunctional:
    def test_golden_periodic_vs_closed_form(self):
        r = fn.j_functional(golden_tent(), bump_field())
        assert r.mode == "periodic" and r.n_terms == 3 and r.tail_bound == 0.0
        assert abs(r.value - float(oracles.MP_J_GOLDEN_BUMP)) < 1e-14

    def test_golden_odd_direction(self):
        r = fn.j_functional(golden_tent(), odd_field())
        assert abs(r.value - float(oracles.MP_J_GOLDEN_ODD)) < 1e-14

    def test_full_tent_bump_is_one(self):
        r = fn.j_functional(full_tent(), bump_field())
        assert r.mode == "series"
        assert abs(r.value - 1.0) < 1e-14
        assert r.tail_bound < 1e-12 * 2.0  # certified at the requested tol

    def test_full_tent_odd_is_zero(self):
        assert fn.j_functional(full_tent(), odd_field()).value == 0.0

    def test_zero_field(self):
        z = DirectionField((0.0,), (0.0,))
        assert fn.j_functional(golden_tent(), z).value == 0.0

    def test_series_vs_mp_summation(self):
        f = golden_tent().add_scaled(bump_field(), -0.05)
        v = bump_field()
        r = fn.j_functional(f, v)
        assert r.mode == "series"
        ref = float(oracles.mp_j_series(f, v, n=200))
        assert abs(r.value - ref) <= r.tail_bound + 1e-11

    def test_tail_bound_certifies_truncation(self):
        f, v = symmetric_tent(1.9), bump_field()
        loose = fn.j_functional(f, v, tol=1e-6)
        tight = fn.j_functional(f, v, tol=1e-13)
        assert loose.n_terms < tight.n_terms
        assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound

    def test_ambiguous_band_is_dual_valued(self):
        r = fn.j_functional(band_map(), bump_field())
        assert r.mode == "ambiguous" and r.value is None
        modes = dict(r.candidates)
        assert set(modes) == {"periodic", "series"}
        # the two readings genuinely differ (jump across the manifold)
        assert abs(modes["periodic"] - modes["series"]) > 1e-4
        with pytest.raises(AmbiguousPeriodicityError):
            r.require_value()

    def test_a_priori_bound_on_examples(self):
        for f in (full_tent(), golden_tent(), symmetric_tent(1.7)):
            for v in (bump_field(), odd_field()):
                r = fn.j_functional(f, v)
                assert abs(r.value) <= fn.a_priori_bound(f, v) + 1e-12


def alpha_reference(sol, x, k):
    """-sum_{i<k} v(f^i x) / Df^{i+1}(x), summed step by step over exactly
    k steps; alpha's value equals it bit for bit iff it stops after k."""
    y, prod, total = x, 1.0, 0.0
    for _ in range(k):
        prod *= sol.f.deriv(y)
        total += sol.v.value(y) / prod
        y = sol.f.value(y)
    return -total


class TestAlpha:
    def test_alpha_at_c_is_zero(self):
        assert fn.alpha(golden_tent(), bump_field()).value(0.0) == 0.0

    def test_alpha_at_fixed_boundary(self):
        assert fn.alpha(full_tent(), bump_field()).value(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_golden_critical_value_finite_sum(self):
        # f^2(u) = f^3(c) is in the band, so alpha sums exactly 2 terms
        g = golden_tent()
        sol = fn.alpha(g, bump_field())
        u = g.critical_value
        assert sol.value(u) == alpha_reference(sol, u, 2)
        assert abs(sol.value(u) - float(oracles.MP_ALPHA_GOLDEN_U)) < 1e-14

    def test_avoids_c_classification(self):
        # 0.3's orbit stays out of the band, so alpha sums all n_max terms
        sol = fn.alpha(full_tent(), bump_field())
        assert sol.value(0.3) == alpha_reference(sol, 0.3, sol.n_max)

    def test_bound_holds_on_random_points(self):
        rng = np.random.default_rng(3)
        for f in (full_tent(), golden_tent(), symmetric_tent(1.75)):
            sol = fn.alpha(f, bump_field())
            for x in rng.uniform(-1, 1, 50):
                assert abs(sol.value(float(x))) <= sol.bound + 1e-9

    def test_pointwise_transfer_identity(self):
        # v(x) = alpha(f(x)) - Df(x) alpha(x) at arbitrary safe points
        f, v = golden_tent(), odd_field()
        sol = fn.alpha(f, v)
        for x in (-0.83, -0.2, 0.11, 0.47, 0.9):
            lhs = v.value(x)
            rhs = sol.value(f.value(x)) - f.deriv(x) * sol.value(x)
            assert lhs == pytest.approx(rhs, abs=5e-12)

    @pytest.mark.parametrize("f, xs", [
        (curved_not_good(), fn.uniform_grid(41)),
        (golden_tent().add_scaled(odd_field(), 0.05), fn.uniform_grid(101)),
        # dyadic points: 0.5 -> 0 and 0.75 -> -0.5 -> 0 land on c exactly
        (full_tent(), np.concatenate([fn.uniform_grid(17),
                                      np.random.default_rng(5).uniform(-1, 1, 40)])),
    ])
    def test_array_orbit_matches_point_loop(self, f, xs):
        sol = fn.alpha(f, bump_field())

        def point_loop(x):
            # per-point reference: the orbit sum one float at a time
            if abs(x) < mp.TOL_C:
                return 0.0
            total, y, prod = 0.0, x, 1.0
            for _ in range(sol.n_max):
                prod *= f.deriv(y)
                total += sol.v.value(y) / prod
                y = f.value(y)
                if abs(y) < mp.TOL_C:
                    break
            return -total

        got = sol.value(xs)
        want = [point_loop(float(x)) for x in xs]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert [sol.value(float(x)).hex() for x in xs] == [v.hex() for v in want]


class TestCohomology:
    @pytest.mark.parametrize("n", [0, 1])
    def test_grid_needs_two_points(self, n):
        with pytest.raises(PreconditionError, match="at least 2 points"):
            fn.check_twisted_cohomology(golden_tent(), bump_field(), n=n)

    def test_golden_grid_residual(self):
        rep = fn.check_twisted_cohomology(golden_tent(), bump_field())
        assert rep.max_residual < 1e-9
        assert rep.n_points >= 200

    def test_zero_field_residual_zero(self):
        z = DirectionField((0.0,), (0.0,))
        rep = fn.check_twisted_cohomology(full_tent(), z)
        assert rep.max_residual == 0.0

    def test_corrupted_alpha_is_flagged(self):
        f, v = golden_tent(), bump_field()
        sol = fn.alpha(f, v)
        x0 = 0.41  # an interior grid point of the default 201-grid

        class Corrupted:
            def value(self, x):
                return sol.value(x) + np.where(abs(x - x0) < 1e-12, 0.1, 0.0)

        rep = fn.check_twisted_cohomology(f, v, Corrupted())
        lam = A
        assert rep.max_residual >= (lam - 1.0) * 0.1
        assert rep.argmax == pytest.approx(x0, abs=1e-12)


class TestHorizontality:
    def test_full_tent_odd_is_horizontal(self):
        res = fn.horizontality(full_tent(), odd_field())
        assert res.horizontal
        assert res.identity_gap < 1e-12

    def test_golden_bump_not_horizontal(self):
        res = fn.horizontality(golden_tent(), bump_field())
        assert not res.horizontal
        assert abs(res.j.value) == pytest.approx(0.2917960675, abs=1e-9)

    def test_zero_field_horizontal(self):
        res = fn.horizontality(golden_tent(), DirectionField((0.0,), (0.0,)))
        assert res.horizontal and res.j.value == 0.0

    def test_route_disagreement_raises(self, monkeypatch):
        real = fn.alpha

        class Shifted(fn.AlphaSolution):
            def value(self, x):
                return super().value(x) + 0.25

        def corrupted(f, v, tol=fn.ALPHA_TOL):
            sol = real(f, v, tol)
            return Shifted(sol.f, sol.v, sol.tol, sol.lam, sol.sup_v, sol.n_max)

        monkeypatch.setattr(fn, "alpha", corrupted)
        with pytest.raises(InternalConsistencyError):
            fn.horizontality(golden_tent(), bump_field())


class TestParamPhase:
    def golden_family(self):
        return MapFamily(golden_tent(), (FamilyTerm(bump_field()),))

    def test_periodic_identity_exact(self):
        res = fn.param_phase_consistency(self.golden_family(), 0.0, 3)
        assert res.gap < 1e-12

    def test_orbit_hit_before_k_refused(self):
        with pytest.raises(PreconditionError):
            fn.param_phase_consistency(self.golden_family(), 0.0, 4)

    def test_full_tent_gap_decays_geometrically(self):
        F = MapFamily(full_tent(), (FamilyTerm(odd_field()),))
        x_sq = DirectionField((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), relaxed=True)
        gaps = [fn.param_phase_consistency(F, 0.0, k, observable=x_sq).gap
                for k in range(2, 13)]
        ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
        assert all(1.99 < r < 2.01 for r in ratios)

    def test_zero_velocity_both_sides_zero(self):
        F = MapFamily(full_tent(), (FamilyTerm(odd_field()),))
        z = DirectionField((0.0,), (0.0,))
        res = fn.param_phase_consistency(F, 0.0, 5, observable=z)
        assert res.quotient == 0.0 and res.j.value == 0.0


class TestSideConstants:
    def test_golden_closed_forms(self):
        sc = fn.side_constants(golden_tent())
        assert abs(sc.c_plus - float(oracles.MP_C_PLUS)) < 1e-12
        assert abs(sc.c_minus - float(oracles.MP_C_MINUS)) < 1e-12
        assert sc.two_beta == pytest.approx(A ** 3, abs=1e-12)
        assert sc.period == 3

    def test_sign_propagation_prefixes(self):
        sc = fn.side_constants(golden_tent())
        assert sc.sigma_plus_prefix == "R" * 8
        assert sc.sigma_minus_prefix == "L" + "R" * 7

    def test_bracket_contains_both(self):
        sc = fn.side_constants(golden_tent())
        lo, hi = sc.bracket
        assert lo - 1e-12 <= sc.c_minus <= hi + 1e-12
        assert lo - 1e-12 <= sc.c_plus <= hi + 1e-12
        # C+ sits exactly on the upper endpoint for the golden tent
        assert sc.c_plus == pytest.approx(hi, abs=1e-12)

    def test_numerical_one_sided_limits(self):
        # mandatory cross-check: J(f_theta, v)/J(f_0, v) -> C+- as theta -> 0.
        # C+ is the limit on the side where f^3(c) - c > 0 (the shadowing
        # orbit returns to c from the right); along the bump family that
        # residual moves with slope -a^2 J < 0, so theta < 0 gives C+.
        g, v = golden_tent(), bump_field()
        j0 = fn.j_functional(g, v).value
        slope = -A * A * j0
        theta_plus = -1e-7 if slope < 0 else 1e-7
        for theta, ref in ((theta_plus, float(oracles.MP_C_PLUS)),
                           (-theta_plus, float(oracles.MP_C_MINUS))):
            f = g.add_scaled(v, theta)
            jt = fn.j_functional(f, v).require_value()
            assert abs(jt / j0 - ref) / ref < 1e-4

    def test_non_periodic_refused(self):
        with pytest.raises(PreconditionError):
            fn.side_constants(full_tent())

    def test_not_good_refused(self):
        with pytest.raises(PreconditionError):
            fn.side_constants(curved_not_good())


class TestKernelProjection:
    def test_golden_slope_is_a_squared(self):
        kp = fn.kernel_projection(golden_tent(), bump_field(), odd_field())
        assert abs(kp.d - float(oracles.MP_D_GOLDEN)) < 1e-12
        assert kp.residual < 1e-10

    def test_already_horizontal_gives_zero(self):
        g = golden_tent()
        kp = fn.kernel_projection(g, bump_field(), odd_field())
        again = fn.kernel_projection(g, kp.field, odd_field())
        assert abs(again.d) < 1e-12

    def test_degenerate_direction_refused(self):
        # J(full tent, x(1-x^2)) = 0: no transversality
        with pytest.raises(DegenerateDirectionError):
            fn.kernel_projection(full_tent(), bump_field(), odd_field())


class TestContinuityAndLimits:
    def test_j_continuity_at_nonperiodic_map(self):
        f, v = full_tent(), bump_field()
        j0 = fn.j_functional(f, v).value
        diffs = []
        for m in range(3, 8):
            g = f.add_scaled(bump_field(), -(10.0 ** -m))
            diffs.append(abs(fn.j_functional(g, v).require_value() - j0))
        assert all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1))
        # modulus here is delta*log(1/delta): the critical orbit sits on the
        # repelling fixed point, so ~log2(1/delta) terms each move by delta
        assert diffs[-1] < 3e-6

    def test_kernel_limit_property(self):
        # d_n from kernel projections at f_n -> f stabilizes onto the
        # kernel slope of the good limit map, where J vanishes exactly
        g, v, w = golden_tent(), bump_field(), odd_field()
        d_star = fn.kernel_projection(g, v, w).d
        errs = []
        for m in range(3, 8):
            f_m = g.add_scaled(v, 10.0 ** -m)
            errs.append(abs(fn.kernel_projection(f_m, v, w).d - d_star))
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        assert errs[-1] < 1e-5
        limit_field = v.add(w.scale(d_star))
        assert abs(fn.j_functional(g, limit_field).require_value()) < 1e-11
