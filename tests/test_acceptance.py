"""End-to-end acceptance checklist: one test and one printed line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the lines; every
tolerance and runtime budget is asserted, never merely displayed.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import pexpand.conjugacy as cj
import pexpand.deform as df
import pexpand.functional as fn
import pexpand.scan as scn
from pexpand.maps import (
    GOLDEN_RATIO,
    KNEADING_DEPTH,
    DirectionField,
    FamilyTerm,
    MapFamily,
    bump_field,
    full_tent,
    golden_tent,
    kneading,
    lambda_of,
    odd_field,
    square_bump_field,
    symmetric_tent,
    tent_profile_field,
)

import oracles

A = GOLDEN_RATIO


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def transversal_family(domain=(-0.02, 0.02)):
    return MapFamily(golden_tent(), (FamilyTerm(bump_field()),), domain)


@pytest.fixture(scope="module")
def horizontal_family():
    proj = fn.kernel_projection(golden_tent(), bump_field(), odd_field())
    return MapFamily(golden_tent(), (FamilyTerm(proj.field),))


@pytest.fixture(scope="module")
def deformation(horizontal_family):
    """Everything criterion 6 times and criterion 8 reuses."""
    w = odd_field()
    t0 = time.perf_counter()
    trace = df.integrate_deformation(horizontal_family, w)
    tilde = df.build_tilde_family(horizontal_family, w, trace)
    cont = df.continue_periodic(horizontal_family, w, 3, 0.0)
    pure = df.integrate_deformation(
        MapFamily(golden_tent(), (FamilyTerm(w),)), w)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(trace=trace, tilde=tilde, cont=cont,
                           pure=pure, elapsed=elapsed)


@pytest.fixture(scope="module")
def transversal_scan():
    grid = tuple(np.linspace(-0.02, 0.02, 101))
    return scn.run_scan(transversal_family(), grid)


def test_criterion_01_golden_slope_from_newton():
    t0 = time.perf_counter()
    F = MapFamily(symmetric_tent(1.6), (FamilyTerm(tent_profile_field()),))
    root = df.find_periodic_theta(F, tent_profile_field(), 3, theta0=0.018)
    elapsed = time.perf_counter() - t0
    slope_err = abs((1.6 + root.theta) - A)
    margin_err = abs(root.margin - math.sqrt(5.0))
    ok = slope_err < 1e-12 and margin_err < 1e-9 and elapsed < 1.0
    _report(1, ok, f"slope_err={slope_err:.2e} margin={root.margin:.7f} "
                   f"margin_err={margin_err:.2e} elapsed={elapsed:.2f}s")


def test_criterion_02_j_oracles_and_a_priori_bound():
    t0 = time.perf_counter()
    err_full = abs(fn.j_functional(full_tent(), bump_field()).require_value()
                   - 1.0)
    err_gold = abs(fn.j_functional(golden_tent(), bump_field()).require_value()
                   - float(oracles.MP_J_GOLDEN_BUMP))
    base = (bump_field(), odd_field(), square_bump_field())
    rng = np.random.default_rng(20260814)
    worst_ratio = 0.0
    for _ in range(1000):
        f = symmetric_tent(float(rng.uniform(1.05, 1.995)))
        wts = rng.uniform(-1.0, 1.0, 3)
        v = base[0].scale(float(wts[0]))
        v = v.add(base[1].scale(float(wts[1])))
        v = v.add(base[2].scale(float(wts[2])))
        bound = fn.a_priori_bound(f, v)
        val = abs(fn.j_functional(f, v).require_value())
        assert val <= bound + 1e-10, (f, wts)
        if bound > 0.0:
            worst_ratio = max(worst_ratio, val / bound)
    elapsed = time.perf_counter() - t0
    ok = err_full < 1e-10 and err_gold < 1e-9 and elapsed < 5.0
    _report(2, ok, f"fulltent_err={err_full:.2e} golden_err={err_gold:.2e} "
                   f"bound_ratio_max={worst_ratio:.3f} elapsed={elapsed:.2f}s")


def test_criterion_03_cohomology_residual_and_identity():
    fields = (bump_field(), odd_field(), square_bump_field(),
              bump_field().add(odd_field().scale(0.5)))
    worst_res, worst_gap = 0.0, 0.0
    for i, slope in enumerate(np.linspace(1.12, 1.97, 20)):
        f = symmetric_tent(float(slope))
        v = fields[i % len(fields)]
        rep = fn.check_twisted_cohomology(f, v)
        hor = fn.horizontality(f, v)  # raises beyond combined tolerances
        worst_res = max(worst_res, rep.max_residual)
        worst_gap = max(worst_gap, hor.identity_gap)
    ok = worst_res < 1e-9
    _report(3, ok, f"pairs=20 max_eq_residual={worst_res:.2e} "
                   f"max_identity_gap={worst_gap:.2e}")


def test_criterion_04_parameter_phase_consistency():
    exact = fn.param_phase_consistency(transversal_family(), 0.0, 3).gap
    F = MapFamily(full_tent(), (FamilyTerm(odd_field()),))
    x_sq = DirectionField((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), relaxed=True)
    ks = list(range(2, 13))
    gaps = [fn.param_phase_consistency(F, 0.0, k, observable=x_sq).gap
            for k in ks]
    fit = float(np.polyfit(ks, np.log(gaps), 1)[0])
    target = -math.log(lambda_of(full_tent()))
    rel = abs(fit - target) / abs(target)
    ok = exact < 1e-12 and rel < 0.05
    _report(4, ok, f"periodic_gap={exact:.2e} decay_fit={fit:.4f} "
                   f"target={target:.4f} rel_err={rel:.3f}")


def test_criterion_05_side_constants_and_kernel_slope_limits():
    g, v, w = golden_tent(), bump_field(), odd_field()
    sc = fn.side_constants(g)
    j0 = fn.j_functional(g, v).require_value()
    # f^3(c) - c moves with slope -a^2 J < 0 along +v, so theta < 0 lands
    # on the side whose shadowing orbits return from the right (C+)
    tp = -1e-7 if -A * A * j0 < 0 else 1e-7
    ratio_p = fn.j_functional(g.add_scaled(v, tp), v).require_value() / j0
    ratio_m = fn.j_functional(g.add_scaled(v, -tp), v).require_value() / j0
    rel_p = abs(ratio_p - sc.c_plus) / sc.c_plus
    rel_m = abs(ratio_m - sc.c_minus) / sc.c_minus
    lo, hi = sc.bracket
    in_bracket = (lo - 1e-12 <= sc.c_minus <= hi + 1e-12
                  and lo - 1e-12 <= sc.c_plus <= hi + 1e-12)
    # d(theta) approaches the limit linearly in theta and |theta| < 2e-8
    # sits in the periodicity hysteresis band, so the one-sided limits are
    # read off by a halving extrapolation rather than a single tiny theta
    def d_at(th):
        return fn.kernel_projection(g.add_scaled(v, th), v, w).d
    d_p = 2.0 * d_at(1e-7) - d_at(2e-7)
    d_m = 2.0 * d_at(-1e-7) - d_at(-2e-7)
    d_on = fn.kernel_projection(g, v, w).d
    d_gap = max(abs(d_p - d_m), abs(d_p - d_on), abs(d_m - d_on))
    ok = rel_p < 1e-4 and rel_m < 1e-4 and in_bracket and d_gap < 1e-6
    _report(5, ok, f"C+={sc.c_plus:.7f} C-={sc.c_minus:.7f} "
                   f"rel_p={rel_p:.2e} rel_m={rel_m:.2e} "
                   f"bracket_ok={in_bracket} d_onesided_gap={d_gap:.2e}")


def test_criterion_06_horizontal_deformation(deformation):
    tr, tilde = deformation.trace, deformation.tilde
    slope0 = abs(tr.slope0)
    worst_rel = 0.0
    for s in tilde.samples:
        g = s.map
        worst_rel = max(worst_rel, abs(g.value(g.value(g.value(0.0)))))
    kneading_const = all(kneading(s.map, KNEADING_DEPTH) == tilde.kneading
                         for s in tilde.samples)
    cont_gap = max(abs(n.theta - tr.node_at(n.t).b)
                   for n in deformation.cont.nodes)
    f0 = golden_tent()
    xs = np.linspace(-1.0, 1.0, 101)
    pure_dev = max(abs(deformation.pure.map_at(n.t).value(x) - f0.value(x))
                   for n in deformation.pure.nodes for x in xs)
    ok = (slope0 < 1e-8 and worst_rel < 1e-8 and kneading_const
          and cont_gap < 1e-7 and pure_dev < 1e-10
          and deformation.elapsed < 30.0)
    _report(6, ok, f"|b'(0)|={slope0:.2e} max_relation={worst_rel:.2e} "
                   f"kneading_depth30_const={kneading_const} "
                   f"ode_vs_continuation={cont_gap:.2e} "
                   f"pure_w_dev={pure_dev:.2e} "
                   f"elapsed={deformation.elapsed:.1f}s")


def test_criterion_07_transversality_and_manifold_localization(
        transversal_scan):
    rep = df.transversal_derivative(transversal_family(), 3)
    chain_err = abs(rep.chain_value - float(oracles.MP_TRANSVERSAL))
    rel_trans = [t for t in transversal_scan.transitions
                 if "relations" in t.kinds]
    manifold_ok = (len(rel_trans) == 1 and rel_trans[0].localized
                   and rel_trans[0].width <= 1e-8
                   and abs(rel_trans[0].t_star) <= 1e-8)
    ok = chain_err < 1e-9 and rep.gap < 1e-6 and manifold_ok
    detail = f"ddt={rep.chain_value:.7f} closed_form_err={chain_err:.2e} " \
             f"fd_gap={rep.gap:.2e}"
    if rel_trans:
        detail += (f" t_star={rel_trans[0].t_star:.2e}"
                   f" width={rel_trans[0].width:.2e}")
    _report(7, ok, detail)


def test_criterion_08_conjugacy_table(deformation):
    g = golden_tent()
    f1 = deformation.tilde.map_at(0.02)
    table = cj.ConjugacyTable.build(g, f1, 200, 8, 60)
    rep = cj.verify_conjugacy(g, f1, table, tol=1e-8)
    bound = 2.0 * lambda_of(g) ** -40
    worst_self = max(abs(cj.conjugate_point(g, g, e.x, 40).y - e.x)
                     for e in table.entries[::5])
    ok = (len(table.entries) >= 200 and rep.passed and rep.monotonic
          and rep.unmatched == 0 and rep.max_residual < 1e-8
          and worst_self <= bound)
    _report(8, ok, f"points={len(table.entries)} "
                   f"max_residual={rep.max_residual:.2e} "
                   f"monotonic={rep.monotonic} unmatched={rep.unmatched} "
                   f"self_dev={worst_self:.2e} self_bound={bound:.2e}")


def test_criterion_09_periodic_approximation_ladder():
    F = MapFamily(full_tent(), (FamilyTerm(odd_field()),))
    ladder = scn.continuation_ladder(F, periods=(7, 8, 9, 10))
    ds = [r.distance for r in ladder.rungs]
    strictly = all(ds[i] > ds[i + 1] for i in range(len(ds) - 1))
    ok = len(ladder.rungs) >= 2 and strictly and not ladder.partial
    _report(9, ok, f"rungs={len(ladder.rungs)} "
                   f"distances={['%.4f' % d for d in ds]} "
                   f"strictly_decreasing={strictly}")


def test_criterion_10_property_suite_heads():
    # linearity
    combos = ((golden_tent(), bump_field(), odd_field(), 0.7),
              (full_tent(), bump_field(), square_bump_field(), -1.3),
              (symmetric_tent(1.37), odd_field(), square_bump_field(), 2.0))
    lin_ok, worst_lin = True, 0.0
    for f, v, w, a in combos:
        jv = fn.j_functional(f, v)
        jw = fn.j_functional(f, w)
        jc = fn.j_functional(f, v.add(w.scale(a)))
        gap = abs(jc.require_value()
                  - (jv.require_value() + a * jw.require_value()))
        allowed = jc.tail_bound + jv.tail_bound + abs(a) * jw.tail_bound + 1e-10
        worst_lin = max(worst_lin, gap)
        lin_ok &= gap <= allowed
    # itinerary uniqueness on periodic points
    g = golden_tent()
    pts = [cj.point_from_itinerary(g, w) for w in cj.periodic_words(g, 6)]
    uniq_ok = all(abs(p.x - q.x) > p.bound + q.bound
                  for i, p in enumerate(pts) for q in pts[i + 1:])
    # scan determinism
    grid = tuple(np.linspace(-0.02, 0.02, 21))
    r1 = scn.run_scan(transversal_family(), grid, localize=False)
    r2 = scn.run_scan(transversal_family(), grid, localize=False)
    det_ok = r1.records == r2.records
    # step-halving fourth-order convergence
    bs = []
    for h in (4e-3, 2e-3, 1e-3):
        tr = df.integrate_deformation(transversal_family(), odd_field(),
                                      t_range=(0.0, 0.016), h0=h,
                                      adaptive=False)
        bs.append(tr.node_at(0.016).b)
    r12 = abs(bs[0] - bs[1]) / abs(bs[1] - bs[2])
    order_ok = 10.0 < r12 < 24.0
    ok = lin_ok and uniq_ok and det_ok and order_ok
    _report(10, ok, f"linearity_gap={worst_lin:.2e} "
                    f"uniqueness={uniq_ok} determinism={det_ok} "
                    f"halving_ratio={r12:.1f}")
