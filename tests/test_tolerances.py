"""The order of the module tolerances, as the code relies on it.

Every tolerance is a module constant.  Each assertion below is one
ordering that a line of the package depends on; the comment above it
quotes that line.

F4 is a known violation and stays open, so the order is not asserted:
``integrate_deformation`` accepts nodes whose relation residual is up to
PERIOD_TOL (1e-9), while the kneading's critical band is TOL_C (1e-10).
``build_tilde_family`` can therefore raise KneadingDriftError on a trace
the integrator accepted.  ``test_f4_accepted_trace_keeps_its_kneading``
reproduces it as a strict xfail: it fails with KneadingDriftError while
F4 is open, and fails as an unexpected pass once F4 is mended.

The same gap shows in the functional layer: J calls c periodic once
|f^p(c)| < PERIOD_TOL, while alpha stops an orbit only within TOL_C.
``test_alpha_gap_map_evaluates`` is its strict xfail.
"""

import json

import pytest

from pexpand import cli
from pexpand import conjugacy as cj
from pexpand import deform as df
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand import scan as sc
from pexpand.errors import KneadingDriftError


def test_tolerance_order():
    # maps.detect_periodic_critical, critical_relations:
    #   `elif r < HYSTERESIS * tol:` -- the ambiguity band [tol, 10 tol)
    #   is not empty
    assert mp.HYSTERESIS > 1.0
    # deform.slope_field: `if manifold_res < band:` -- a map the detector
    #   would call period p or ambiguous at p gets the matched p-term pair
    assert mp.HYSTERESIS * mp.PERIOD_TOL < df.MANIFOLD_BAND
    # deform.find_periodic_theta: `margin = is_good(g).margin` -- a Newton
    #   root is detected as period p, so its margin is the periodic one
    assert df.NEWTON_TOL < mp.PERIOD_TOL
    # deform.integrate_deformation: `if abs(g.critical_value - 1.0) <=
    #   CLAMP_SLACK:` -- a node marked at the boundary passes validate's
    #   `cv <= 1.0 + BOUNDARY_SLACK`
    assert df.CLAMP_SLACK <= mp.BOUNDARY_SLACK
    # conjugacy.inverse_branch: `if abs(res) < INVERSE_TOL or hi - lo <
    #   1e-15:` -- a valid branch has min |Df| <= 2 (its mean slope is at
    #   most 2), so the bracket exit pins x within INVERSE_TOL / lambda too,
    #   and a table child's enclosure (e + INVERSE_TOL) / lambda covers both
    assert 2.0 * 1e-15 <= cj.INVERSE_TOL
    # functional.horizontality: `abs(jv) <= HORIZONTAL_TOL` -- the series
    #   truncation error cannot decide the verdict
    assert fn.J_TOL < fn.HORIZONTAL_TOL
    # scan.run_scan: `threshold = max(J_ZERO_TOL, 10.0 * max_tail)` -- a
    #   node's tail is at most J_TOL, so the floor is the threshold
    assert 10.0 * fn.J_TOL < sc.J_ZERO_TOL
    # maps._onto_interval: `(xs >= -1.0 - ENDPOINT_TOL) & (xs <= 1.0 +
    #   BOUNDARY_SLACK)` -- the window admits every value validate lets a
    #   map take: f(-1) and f(1) below -1 by ENDPOINT_TOL, f(c) above 1 by
    #   BOUNDARY_SLACK
    cv = 1.0 + mp.BOUNDARY_SLACK
    slope = cv + 1.0 + 0.5 * mp.ENDPOINT_TOL
    f = mp.PiecewiseMap((cv, slope), (cv, -slope))
    assert mp.validate(f).passed
    assert f.value(-1.0) < -1.0 and f.value(1.0) < -1.0
    assert mp.iterates(f, 3) == [0.0, cv, f.value(1.0), f.value(-1.0)]


@pytest.mark.xfail(strict=True, raises=KneadingDriftError,
                   reason="F4: relation residuals up to PERIOD_TOL are "
                          "accepted, the kneading band is TOL_C")
def test_f4_accepted_trace_keeps_its_kneading():
    # the tent of period-4 kneading CRLL moved along a generic field made
    # horizontal along w = odd, deformed along odd
    base = mp.symmetric_tent(1.8392867552141612)
    v = (mp.bump_field().scale(-0.99).add(mp.odd_field().scale(0.64))
         .add(mp.square_bump_field().scale(0.59)))
    w = mp.odd_field()
    F = mp.MapFamily(base, (mp.FamilyTerm(fn.kernel_projection(
        base, v, w).field),))
    trace = df.integrate_deformation(F, w)
    assert mp.kneading(base, 8) == "CRLLCRLL"
    # the right side stops where validate refuses expansion_left: 94 nodes
    # with lambda_f from Df's exact extrema (91 under a 1024-point grid)
    assert len(trace.nodes) == 94
    # every node was accepted, some with a residual outside the band
    worst = max(n.relation_residual for n in trace.nodes)
    assert mp.TOL_C < worst < mp.PERIOD_TOL
    # raises KneadingDriftError at t = -0.00768: CRLLRRLL... vs CRLLCRLL...
    df.build_tilde_family(F, w, trace)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the alpha gap: J is periodic within PERIOD_TOL, "
                          "alpha stops its orbit only within TOL_C")
def test_alpha_gap_map_evaluates(tmp_path, capsys):
    # the golden slope rounded so that f^3(c) = 5.0e-10 lies in the gap
    slope = 1.6180339883880914
    if not mp.TOL_C < abs(mp.iterates(mp.symmetric_tent(slope), 3)[3]) \
            < mp.PERIOD_TOL:
        pytest.fail("the map no longer sits between TOL_C and PERIOD_TOL")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"map": {"slope": slope}, "field": "bump"}))
    code = cli.main(["alpha", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    # exits 2: "consistency failure: J=0.29179606686243426 disagrees with
    # v(c)-alpha(f(c))=0.38196600658952196"
    assert (code, capsys.readouterr().err) == (0, "")
