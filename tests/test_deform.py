import dataclasses
import math

import numpy as np
import pytest

from pexpand import (
    AmbiguousPeriodicityError,
    DegenerateDirectionError,
    FamilyTerm,
    InvalidMapError,
    KneadingDriftError,
    MapFamily,
    NewtonDivergenceError,
    PreconditionError,
    bump_field,
    curved_not_good,
    full_tent,
    golden_tent,
    odd_field,
    square_bump_field,
    symmetric_tent,
    tent_profile_field,
)
from pexpand import deform as df
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand.maps import GOLDEN_RATIO, family_velocity

import oracles

A = GOLDEN_RATIO


def transversal_family(domain=(-0.02, 0.02)):
    """Velocity 1-x^2, which is not in Ker J at the golden tent."""
    return MapFamily(golden_tent(), (FamilyTerm(bump_field()),), domain)


def horizontal_family(domain=(-0.02, 0.02)):
    """Velocity (1-x^2) + d*x(1-x^2) projected into Ker J at t = 0."""
    proj = fn.kernel_projection(golden_tent(), bump_field(), odd_field())
    return MapFamily(golden_tent(), (FamilyTerm(proj.field),), domain)


def pure_w_family(domain=(-0.02, 0.02)):
    return MapFamily(golden_tent(), (FamilyTerm(odd_field()),), domain)


def boundary_family(domain=(-0.01, 0.01)):
    """Full tent pushed so f_t(c) parts from 1 only via the w-correction."""
    direction = odd_field().add(bump_field().scale(-0.5))
    return MapFamily(full_tent(), (FamilyTerm(direction),), domain)


class TestSlopeField:
    def test_horizontal_velocity_gives_zero_slope(self):
        sv = df.slope_field(horizontal_family(), odd_field(), 0.0, 0.0)
        assert abs(sv.d) < 1e-12

    def test_transversal_slope_is_kernel_projection(self):
        sv = df.slope_field(transversal_family(), odd_field(), 0.0, 0.0,
                            relation_period=3)
        assert sv.mode == "periodic-pair"
        assert abs(sv.d - float(oracles.MP_D_GOLDEN)) < 1e-12
        assert sv.residual < 1e-14

    def test_detection_matches_explicit_period(self):
        explicit = df.slope_field(transversal_family(), odd_field(), 0.0, 0.0,
                                  relation_period=3)
        detected = df.slope_field(transversal_family(), odd_field(), 0.0, 0.0)
        assert detected.mode == "periodic-pair"
        assert detected.d == explicit.d

    def test_ratio_is_continuous_across_the_manifold(self):
        F, w = transversal_family(), odd_field()
        d_plus = df.slope_field(F, w, 0.0, +1e-7, relation_period=3)
        d_minus = df.slope_field(F, w, 0.0, -1e-7, relation_period=3)
        assert d_plus.mode == d_minus.mode == "periodic-pair"
        assert abs(d_plus.d - d_minus.d) < 1e-6

    def test_series_mode_far_from_manifold(self):
        sv = df.slope_field(transversal_family(), odd_field(), 0.0, 0.01,
                            relation_period=3)
        assert sv.mode == "series-pair"
        assert sv.manifold_residual > df.MANIFOLD_BAND

    def test_kernel_direction_refused(self):
        proj = fn.kernel_projection(golden_tent(), bump_field(), odd_field())
        with pytest.raises(DegenerateDirectionError):
            df.slope_field(transversal_family(), proj.field, 0.0, 0.0)

    def test_invalid_assembly_refused(self):
        with pytest.raises(InvalidMapError):
            df.slope_field(transversal_family(), odd_field(), 0.0, 0.9)


def series_family(domain=(-0.003, 0.003)):
    """Tent of slope 1.8, whose critical orbit is not periodic, moved along
    square_bump projected into Ker J along bump: the series route."""
    f = symmetric_tent(1.8)
    proj = fn.kernel_projection(f, square_bump_field(), bump_field())
    return MapFamily(f, (FamilyTerm(proj.field),), domain)


def chained_map(F, w, t, theta):
    """f_t + theta*w as a chain of add_scaled calls."""
    g = F.base
    for term in F.terms:
        if term.scalar(t) != 0.0:
            g = g.add_scaled(term.field, term.scalar(t))
    return g.add_scaled(w, theta) if theta != 0.0 else g


class TestEvaluationBudget:
    """Each distinct (t, b) of the kernel ODE is evaluated once, and the two
    J values of a slope share one orbit without changing a bit."""

    @pytest.mark.parametrize("family, w, mode", [
        (transversal_family(), odd_field(), "periodic-pair"),
        (series_family(), bump_field(), "series-pair"),
    ])
    def test_eleven_slopes_per_accepted_step(self, monkeypatch, family, w,
                                             mode):
        seen = []
        real = df.slope_field

        def recording(F, w, t, theta, **kwargs):
            seen.append((t, theta, real(F, w, t, theta, **kwargs)))
            return seen[-1][2]

        monkeypatch.setattr(df, "slope_field", recording)
        tr = df.integrate_deformation(family, w)
        steps = len(tr.nodes) - 1
        # no step was rejected: every step is H0 (to rounding at the ends)
        lo, hi = family.domain
        assert tr.truncated == () and steps == round((hi - lo) / df.H0)
        assert all(math.isclose(abs(n.step), df.H0)
                   for n in tr.nodes if n.t != 0.0)
        # 3 + 3 + 4 RK4 stages and the node per step, and the centre
        assert len(seen) == 11 * steps + 1
        assert len({(t, b) for t, b, _ in seen}) == len(seen)
        p = tr.relation_period
        for t, b, sv in seen:
            assert sv.mode == mode
            g, v = chained_map(family, w, t, b), family_velocity(family, t)
            if p is None:
                ref = (fn.j_series_sum(g, v)[0], fn.j_series_sum(g, w)[0])
            else:
                ref = (fn.j_periodic_sum(g, v, p), fn.j_periodic_sum(g, w, p))
            assert (sv.j_v.hex(), sv.j_w.hex()) == tuple(x.hex() for x in ref)

    def test_velocity_built_once_per_t(self, monkeypatch):
        # v_t reads t only through the scalars s_m'(t): the linear family
        # builds it once over 441 slopes; with t + t**2 (s' = 1 + 2t) it is
        # built once per distinct t of the steps (fewer than MEMO_SIZE here)
        (term,) = series_family().terms
        slopes, builds = [], []
        real_slope, real_velocity = df.slope_field, mp._velocity
        monkeypatch.setattr(df, "slope_field", lambda *a, **k: slopes.append(
            a[2]) or real_slope(*a, **k))
        monkeypatch.setattr(mp, "_velocity", lambda F, s: builds.append(
            s) or real_velocity(F, s))
        for powers, domain in (((1,), (-0.02, 0.02)),
                               ((1, 2), (-0.003, 0.003))):
            slopes.clear()
            builds.clear()
            F = MapFamily(symmetric_tent(1.8),
                          (FamilyTerm(term.field, powers),), domain)
            tr = df.integrate_deformation(F, bump_field())
            assert len(slopes) == 11 * (len(tr.nodes) - 1) + 1
            distinct = len(set(slopes))
            if powers == (1,):
                assert len(slopes) == 441 and len(builds) == 1
            else:
                assert distinct < mp.MEMO_SIZE and len(builds) == distinct

    def test_fixed_steps_reuse_k1(self, monkeypatch):
        calls = []
        real = df.slope_field
        monkeypatch.setattr(df, "slope_field",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        tr = df.integrate_deformation(transversal_family(), odd_field(),
                                      t_range=(-0.004, 0.004),
                                      adaptive=False)
        assert len(calls) == 4 * (len(tr.nodes) - 1) + 1


class TestIntegrateDeformation:
    def test_center_node_and_initial_slope(self):
        tr = df.integrate_deformation(transversal_family(), odd_field())
        assert tr.node_at(0.0).b == 0.0
        assert abs(tr.slope0 - float(oracles.MP_D_GOLDEN)) < 1e-12
        assert tr.truncated == ()
        assert tr.ts == tuple(sorted(tr.ts))

    def test_relation_preserved_along_trace(self):
        tr = df.integrate_deformation(transversal_family(), odd_field())
        assert tr.relation_period == 3
        assert all(n.relation_residual < 1e-11 for n in tr.nodes)
        assert all(n.j_residual < tr.ode_tol for n in tr.nodes)

    def test_horizontal_family_is_tangent(self):
        tr = df.integrate_deformation(horizontal_family(), odd_field())
        assert abs(tr.slope0) < 1e-8
        assert all(n.relation_residual < 1e-8 for n in tr.nodes)
        assert abs(tr.nodes[0].t - (-0.02)) < 1e-14
        assert abs(tr.nodes[-1].t - 0.02) < 1e-14

    def test_pure_w_motion_is_undone_exactly(self):
        tr = df.integrate_deformation(pure_w_family(), odd_field())
        assert all(abs(n.b + n.t) < 1e-12 for n in tr.nodes)
        f0 = golden_tent()
        g = tr.map_at(tr.nodes[-1].t)
        xs = np.linspace(-1.0, 1.0, 101)
        assert max(abs(g.value(x) - f0.value(x)) for x in xs) < 1e-10

    def test_boundary_clamp_rides_the_top(self):
        tr = df.integrate_deformation(boundary_family(), bump_field(),
                                      t_range=(-0.01, 0.01))
        assert all(n.at_boundary for n in tr.nodes)
        assert all(abs(n.b - 0.5 * n.t) < 1e-12 for n in tr.nodes)
        for n in (tr.nodes[0], tr.node_at(0.0), tr.nodes[-1]):
            assert tr.map_at(n.t).critical_value <= 1.0 + 1e-13
        assert abs(tr.nodes[0].t - (-0.01)) < 1e-14
        assert abs(tr.nodes[-1].t - 0.01) < 1e-14

    def test_fixed_steps_show_fourth_order(self):
        bs = []
        for h in (4e-3, 2e-3, 1e-3, 5e-4):
            tr = df.integrate_deformation(transversal_family(), odd_field(),
                                          t_range=(0.0, 0.016), h0=h,
                                          adaptive=False)
            bs.append(tr.node_at(0.016).b)
        e1, e2, e3 = (abs(bs[i] - bs[i + 1]) for i in range(3))
        assert 10.0 < e1 / e2 < 24.0
        assert 8.0 < e2 / e3 < 32.0  # smallest gap nears roundoff

    @pytest.mark.parametrize("family, w", [
        (transversal_family(), odd_field()),
        (series_family((-0.02, 0.02)), bump_field()),
    ])
    def test_step_error_tracks_the_true_local_error(self, family, w):
        # one step of 4e-3 against 64 fixed sub-steps: the Richardson
        # estimate reads the true error to within 1.0x and 0.9x here
        h = 4e-3
        step = df.integrate_deformation(family, w, t_range=(0.0, h), h0=h,
                                        ode_tol=1.0).node_at(h)
        ref = df.integrate_deformation(family, w, t_range=(0.0, h),
                                       h0=h / 64, adaptive=False).node_at(h)
        assert step.step == h
        true_error = abs(step.b - ref.b)
        assert true_error / 4.0 <= step.step_error <= 4.0 * true_error

    def test_unreachable_tolerance_truncates_both_sides(self):
        # h_min = h0 leaves no room to halve, so the first rejection stops
        # each sweep; only the center node survives
        tr = df.integrate_deformation(transversal_family(), odd_field(),
                                      ode_tol=0.0, h_min=1e-3)
        assert len(tr.truncated) == 2
        assert all("underflow" in reason for _, reason in tr.truncated)
        assert len(tr.nodes) == 1

    def test_domain_must_contain_zero(self):
        with pytest.raises(PreconditionError):
            df.integrate_deformation(transversal_family(), odd_field(),
                                     t_range=(0.01, 0.02))

    def test_not_good_base_refused(self):
        F = MapFamily(curved_not_good(), (FamilyTerm(odd_field()),))
        with pytest.raises(PreconditionError):
            df.integrate_deformation(F, odd_field())

    def test_second_divided_differences_stay_bounded(self):
        def d2(h):
            tr = df.integrate_deformation(transversal_family(), odd_field(),
                                          h0=h, adaptive=False)
            b, t = tr.bs, tr.ts
            return max(abs(b[i + 1] - 2.0 * b[i] + b[i - 1]) / h ** 2
                       for i in range(1, len(b) - 1))
        coarse, fine = d2(2e-3), d2(5e-4)
        assert math.isfinite(fine)
        assert fine < 3.0 * coarse + 1e-6


class TestBuildTildeFamily:
    def test_samples_keep_kneading_and_horizontality(self):
        tr = df.integrate_deformation(transversal_family(), odd_field())
        fam = df.build_tilde_family(transversal_family(), odd_field(), tr)
        assert len(fam.samples) == len(tr.nodes)
        assert fam.kneading == "CRL" * 10
        for s in fam.samples:
            assert abs(fn.j_periodic_sum(s.map, s.velocity, 3)) < 1e-12

    def test_pure_w_family_is_constant(self):
        tr = df.integrate_deformation(pure_w_family(), odd_field())
        fam = df.build_tilde_family(pure_w_family(), odd_field(), tr)
        f0 = golden_tent()
        xs = np.linspace(-1.0, 1.0, 101)
        for s in (fam.samples[0], fam.samples[-1]):
            assert max(abs(s.map.value(x) - f0.value(x)) for x in xs) < 1e-10

    def test_corrupted_trace_reports_drift(self):
        tr = df.integrate_deformation(transversal_family(), odd_field())
        bad_idx = len(tr.nodes) - 1
        bad = dataclasses.replace(tr.nodes[bad_idx], b=tr.nodes[bad_idx].b + 0.01)
        corrupted = dataclasses.replace(
            tr, nodes=tr.nodes[:bad_idx] + (bad,))
        with pytest.raises(KneadingDriftError) as exc:
            df.build_tilde_family(transversal_family(), odd_field(), corrupted)
        assert exc.value.sample_index == bad_idx


class TestFindPeriodicTheta:
    def test_tent_slope_root_is_golden(self):
        F = MapFamily(symmetric_tent(1.6), (FamilyTerm(tent_profile_field()),))
        root = df.find_periodic_theta(F, tent_profile_field(), 3, theta0=0.018)
        assert abs((1.6 + root.theta) - A) < 1e-12
        assert root.residual < 1e-12
        assert abs(root.margin - (A ** 3 - 2.0)) < 1e-9

    def test_already_periodic_returns_guess(self):
        root = df.find_periodic_theta(transversal_family(), odd_field(), 3)
        assert root.theta == 0.0
        assert root.iterations == 1

    def test_prime_period_guard(self):
        with pytest.raises(PreconditionError):
            df.find_periodic_theta(transversal_family(), odd_field(), 6)

    @pytest.mark.parametrize("p", [1, mp.P_MAX + 1, 10 ** 8])
    def test_period_out_of_range_refused(self, p):
        # the detector that checks the root searches periods up to P_MAX
        with pytest.raises(PreconditionError,
                           match=f"period must be >= 2 and <= {mp.P_MAX}"):
            df.find_periodic_theta(transversal_family(), odd_field(), p)

    def test_prime_period_band_is_ambiguous(self):
        # f^3(c) in [TOL_C, 10 TOL_C): the period-6 check reads the
        # detector's hysteresis band and decides nothing
        g = golden_tent().add_scaled(bump_field(), 5e-9 / 0.7639320225002103)
        with pytest.raises(AmbiguousPeriodicityError, match="q=3"):
            df._require_prime_period(g, 6, 0.0)

    @pytest.mark.parametrize("family, w, theta0, t, bits, iterations", [
        (MapFamily(symmetric_tent(1.6), (FamilyTerm(tent_profile_field()),)),
         tent_profile_field(), 0.018, 0.0, "0x1.277807f96c396p-6", 3),
        (transversal_family(), odd_field(), 0.0, 0.015,
         "0x1.52fd23edd51a9p-5", 4),
        (MapFamily(golden_tent(), (FamilyTerm(bump_field()),
                                   FamilyTerm(odd_field(), (2,)))),
         bump_field(), 0.0, -0.02, "0x1.4a2e93c90ff98p-6", 5),
    ])
    def test_root_bits_and_iterations_pinned(self, family, w, theta0, t,
                                             bits, iterations):
        # values of the Newton that built three orbits per iteration
        root = df.find_periodic_theta(family, w, 3, theta0=theta0, t=t)
        assert root.theta.hex() == bits
        assert root.iterations == iterations

    def test_no_nearby_root_diverges(self):
        # the only theta with g^2(c) = c sits far outside validity
        with pytest.raises(NewtonDivergenceError):
            df.find_periodic_theta(transversal_family(), odd_field(), 2)


class TestContinuePeriodic:
    @pytest.mark.parametrize("p", [0, -1])
    def test_period_below_one_refused(self, p):
        with pytest.raises(PreconditionError, match="period must be >= 1"):
            df.continue_periodic(transversal_family(), odd_field(), p, 0.0)

    @pytest.mark.parametrize("p", [mp.P_MAX + 1, 10 ** 8])
    def test_period_above_p_max_refused(self, p):
        with pytest.raises(PreconditionError,
                           match=f"period must be >= 1 and <= {mp.P_MAX}"):
            df.continue_periodic(transversal_family(), odd_field(), p, 0.0)

    def test_lower_period_centre_refused_like_the_root_finder(self):
        # theta = 0 is the golden tent, whose critical point has period 3:
        # both routes refuse a period-6 root there with one check
        F, w = pure_w_family(), bump_field()
        with pytest.raises(PreconditionError) as found:
            df.find_periodic_theta(F, w, 6)
        with pytest.raises(PreconditionError) as continued:
            df.continue_periodic(F, w, 6, 0.0)
        assert type(found.value) is type(continued.value)
        assert str(found.value) == str(continued.value) == (
            "root at theta=0.0 has prime period 3 < 6")

    def test_matches_ode_on_horizontal_family(self):
        F, w = horizontal_family(), odd_field()
        cont = df.continue_periodic(F, w, 3, 0.0)
        tr = df.integrate_deformation(F, w)
        gaps = [abs(n.theta - tr.node_at(n.t).b) for n in cont.nodes]
        assert max(gaps) < 1e-7

    def test_matches_ode_on_transversal_family(self):
        F, w = transversal_family(), odd_field()
        cont = df.continue_periodic(F, w, 3, 0.0)
        tr = df.integrate_deformation(F, w)
        gaps = [abs(n.theta - tr.node_at(n.t).b) for n in cont.nodes]
        assert max(gaps) < 1e-7

    def test_slope_at_zero_is_kernel_projection(self):
        cont = df.continue_periodic(transversal_family(), odd_field(), 3, 0.0)
        assert abs(cont.node_at(0.0).slope - float(oracles.MP_D_GOLDEN)) < 1e-10

    def test_residuals_and_fd_slopes(self):
        cont = df.continue_periodic(transversal_family(), odd_field(), 3, 0.0)
        assert cont.truncated == ()
        assert all(n.residual < 1e-12 for n in cont.nodes)
        gaps = cont.fd_slope_gaps()
        assert gaps and max(gaps) < 1e-6

    def test_relation_exact_at_every_node(self):
        cont = df.continue_periodic(transversal_family(), odd_field(), 3, 0.0)
        for t in (cont.ts[0], 0.0, cont.ts[-1]):
            g = cont.map_at(t)
            x = 0.0
            for _ in range(3):
                x = g.value(x)
            assert abs(x) < 1e-11


class TestTransversalDerivative:
    def test_chain_rule_vs_central_difference(self):
        rep = df.transversal_derivative(transversal_family(), 3)
        assert abs(rep.chain_value - float(oracles.MP_TRANSVERSAL)) < 1e-12
        assert rep.gap < 1e-6

    def test_horizontal_velocity_gives_zero(self):
        rep = df.transversal_derivative(horizontal_family(), 3)
        assert abs(rep.chain_value) < 1e-10
        assert rep.gap < 1e-6

    def test_nonperiodic_base_refused(self):
        F = MapFamily(full_tent(), (FamilyTerm(odd_field()),))
        with pytest.raises(PreconditionError):
            df.transversal_derivative(F, 3)
