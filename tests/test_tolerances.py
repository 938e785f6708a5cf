"""The order of the module tolerances, as the code relies on it.

Every tolerance is a module constant.  Each assertion below is one
ordering that a line of the package depends on; the comment above it
quotes that line.

One band, |x| < TOL_C, decides "returns to c" in every layer: the
kneading's C symbol, alpha's stopping index, periodicity, the critical
relations and so J's mode.  Two tests below take maps whose c returns
within (1e-10, TOL_C): a deformation trace whose accepted relation
residuals lie there keeps its kneading (F4), and ``alpha`` evaluates a
map whose f^3(c) lies there.  ``TestOneBand`` checks the contract on
maps whose |f^p(c)| is drawn across the band, the hysteresis band above
it and beyond.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pexpand import cli
from pexpand import conjugacy as cj
from pexpand import deform as df
from pexpand import functional as fn
from pexpand import maps as mp
from pexpand import scan as sc
from test_functional import alpha_reference


def test_tolerance_order():
    # maps.detect_periodic_critical, critical_relations:
    #   `elif r < HYSTERESIS * TOL_C:` -- the ambiguity band
    #   [TOL_C, 10 TOL_C) is not empty
    assert mp.HYSTERESIS > 1.0
    # deform.slope_field: `if manifold_res < band:` -- a map the detector
    #   would call period p or ambiguous at p gets the matched p-term pair
    assert mp.HYSTERESIS * mp.TOL_C < df.MANIFOLD_BAND
    # deform.find_periodic_theta: `margin = is_good(g).margin` -- a Newton
    #   root is detected as period p, so its margin is the periodic one;
    # deform._require_prime_period: `if det.period < p:` -- a centre that
    #   continue_periodic keeps without Newton (residual <= 10 NEWTON_TOL)
    #   is detected within p steps, so det.period is not None
    assert 10.0 * df.NEWTON_TOL < mp.TOL_C
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
    # every node was accepted, some with a residual in (1e-10, TOL_C): the
    # kneading must still read those returns as C
    worst = max(n.relation_residual for n in trace.nodes)
    assert 1e-10 < worst < mp.TOL_C
    tilde = df.build_tilde_family(F, w, trace)
    assert tilde.kneading == mp.kneading(base, mp.KNEADING_DEPTH)
    assert all(mp.kneading(s.map, mp.KNEADING_DEPTH) == tilde.kneading
               for s in tilde.samples)


def test_alpha_gap_map_evaluates(tmp_path, capsys):
    # the golden slope rounded so that f^3(c) = 5.0e-10 lies above 1e-10
    slope = 1.6180339883880914
    assert 1e-10 < abs(mp.iterates(mp.symmetric_tent(slope), 3)[3]) < mp.TOL_C
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"map": {"slope": slope}, "field": "bump"}))
    code = cli.main(["alpha", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    # J is periodic here, so alpha must stop the orbit of f(c) at f^3(c)
    assert (code, capsys.readouterr().err) == (0, "")


# Base slopes near a tent of critical period p.  Tents reach the period
# along tent_profile; curved maps are a detuned tent plus theta*odd, with
# theta found along odd, so their branches are cubic.  Period 2 cannot
# occur: f(c) = a, f(a) = c would give a mean slope of -1 on [0, a].
_CASES = [("tent_profile", 3, 1.618), ("tent_profile", 4, 1.839),
          ("tent_profile", 5, 1.513), ("tent_profile", 5, 1.722),
          ("tent_profile", 5, 1.928), ("tent_profile", 6, 1.272),
          ("tent_profile", 6, 1.792), ("tent_profile", 6, 1.883),
          ("tent_profile", 6, 1.966),
          ("odd", 3, 1.622), ("odd", 3, 1.614), ("odd", 4, 1.843),
          ("odd", 4, 1.835), ("odd", 5, 1.517), ("odd", 5, 1.509),
          ("odd", 5, 1.932), ("odd", 5, 1.924), ("odd", 6, 1.276),
          ("odd", 6, 1.268), ("odd", 6, 1.887), ("odd", 6, 1.879),
          ("odd", 6, 1.970), ("odd", 6, 1.962)]


@functools.lru_cache(maxsize=None)
def _periodic_root(w_name, p, slope):
    """(F, w, theta, dG): the period-p root along w of the family based at
    the tent of this slope, and d/dtheta of f^p(c) there."""
    w = mp.BUILTIN_FIELDS[w_name]()
    F = mp.MapFamily(mp.symmetric_tent(slope), (mp.FamilyTerm(w),))
    root = df.find_periodic_theta(F, w, p)
    orb = mp.critical_orbit(root.map, p)
    return F, w, root.theta, orb.products[p - 1] * fn.j_periodic_sum(
        root.map, w, p)


def _run(cmd, cfg):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([cmd, "--config", str(path),
                             "--out", str(Path(d) / "o")])
    return code, err.getvalue()


class TestOneBand:
    """What validate accepts every command evaluates or refuses with a
    message, and the symbols, alpha's stopping index and J's mode read
    one period, for |f^p(c)| log-uniform in [1e-12, 1e-8]."""

    @given(st.sampled_from(_CASES), st.floats(-12.0, -8.0),
           st.sampled_from([1.0, -1.0]))
    @example(_CASES[0], -9.3, 1.0)     # 5e-10, between 1e-10 and TOL_C
    @example(_CASES[9], -8.4, -1.0)    # in the hysteresis band
    @example(_CASES[-1], -11.5, 1.0)   # well inside the band |x| < TOL_C
    @settings(deadline=None, max_examples=40)
    def test_layers_agree(self, case, log_r, sign):
        F, w, theta, dG = _periodic_root(*case)
        w_name, p = case[:2]
        g = mp.family_eval(F, 0.0, w=w, theta=theta + sign * 10**log_r / dG)
        r = abs(mp.iterates(g, p)[p])
        m = {"left": list(g.left), "right": list(g.right)}
        family = {"base": m, "terms": [{"field": "bump"}],
                  "domain": [-1e-4, 1e-4]}
        for cmd, cfg in (("validate", {"map": m}),
                         ("j", {"map": m, "field": "bump"}),
                         ("alpha", {"map": m, "field": "bump"}),
                         ("horiz", {"map": m, "v": "bump", "w": w_name}),
                         ("deform", {"family": family, "w": w_name})):
            code, err = _run(cmd, cfg)
            assert code == 0 or (code == 1 and err.strip()), (cmd, code, err)
        j = fn.j_functional(g, mp.bump_field())
        kn = mp.kneading(g, 2 * p)
        if r < mp.TOL_C:
            assert (j.mode, j.period) == ("periodic", p)
            assert kn[p] == "C"
            # alpha stops f(c)'s orbit at f^p(c), after exactly p - 1 terms
            sol = fn.alpha(g, mp.bump_field())
            u = g.critical_value
            assert sol.value(u) == alpha_reference(sol, u, p - 1)
        elif r < mp.HYSTERESIS * mp.TOL_C:
            assert j.mode == "ambiguous"
            assert "C" not in kn[1:]
