"""The order of the module tolerances, as the code relies on it.

Every tolerance is a module constant.  Each assertion below is one
ordering that a line of the package depends on; the comment above it
quotes that line.

F4 is a known violation and stays open, so it is not asserted here:
``integrate_deformation`` accepts nodes whose relation residual is up to
PERIOD_TOL (1e-9), while the kneading's critical band is TOL_C (1e-10).
``build_tilde_family`` can therefore raise KneadingDriftError on a trace
the integrator accepted.
"""

from pexpand import conjugacy as cj
from pexpand import deform as df
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand import scan as sc


def test_tolerance_order():
    # maps.detect_periodic_critical, critical_relations:
    #   `elif r < HYSTERESIS * tol:` -- the ambiguity band [tol, 10 tol)
    #   is not empty
    assert mp.HYSTERESIS > 1.0
    # maps.is_good: `critical_orbit(f, det.period, tol_c=PERIOD_TOL)` --
    #   the products' snap band is at least the critical band
    assert mp.TOL_C < mp.PERIOD_TOL
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
    # conjugacy.point_from_itinerary: `truncated = excess > ADMIT_TOL` --
    #   a clamp by inverse-solver noise (residuals under INVERSE_TOL) is not
    #   taken for an inadmissible word
    assert cj.INVERSE_TOL < cj.ADMIT_TOL
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
