"""Grid scans, transition localization, workflows, and the CLI contract."""

import argparse
import hashlib
import json
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from pexpand import cli
from pexpand import conjugacy as cj
from pexpand import deform as df
from pexpand import functional as fn
from pexpand import io as pio
from pexpand import maps as mp
from pexpand import scan as sc
from pexpand.errors import InternalConsistencyError, PreconditionError


@pytest.fixture(scope="module")
def golden():
    return mp.golden_tent()


@pytest.fixture(scope="module")
def transversal_family(golden):
    return mp.MapFamily(golden, (mp.FamilyTerm(mp.bump_field()),),
                        domain=(-0.02, 0.02))


@pytest.fixture(scope="module")
def tent_family():
    return mp.MapFamily(mp.full_tent(), (mp.FamilyTerm(mp.odd_field()),),
                        domain=(-0.02, 0.02))


@pytest.fixture(scope="module")
def horizontal_tilde(golden):
    kp = fn.kernel_projection(golden, mp.bump_field(), mp.odd_field())
    fam = mp.MapFamily(golden, (mp.FamilyTerm(kp.field),),
                       domain=(-0.02, 0.02))
    trace = df.integrate_deformation(fam, mp.bump_field())
    return df.build_tilde_family(fam, mp.bump_field(), trace)


class TestRunScan:
    def test_transversal_crossing(self, transversal_family):
        res = sc.run_scan(transversal_family, np.linspace(-0.02, 0.02, 101))
        rel = [t for t in res.transitions if "relations" in t.kinds]
        assert len(rel) == 1
        assert abs(rel[0].t_star) <= 1e-8
        assert all(t.width <= 1e-8 and t.localized for t in res.transitions)
        assert res.max_abs_j > res.threshold
        assert res.consistent
        ts = [r.t for r in res.records]
        assert ts == sorted(ts)

    def test_node_j_value(self, transversal_family):
        res = sc.run_scan(transversal_family, [0.0])
        assert res.records[0].j_value == pytest.approx(0.2917961, abs=1e-7)
        assert res.records[0].classification == "periodic:3"

    def test_tilde_family_in_class(self, horizontal_tilde):
        res = sc.run_scan(horizontal_tilde)
        assert res.in_class and not res.transitions
        assert res.max_abs_j < 1e-7
        assert res.consistent
        assert {r.classification for r in res.records} == {"periodic:3"}

    def test_transition_reproducible_across_grids(self, transversal_family):
        def star(n):
            res = sc.run_scan(transversal_family,
                              np.linspace(-0.02, 0.02, n))
            (tr,) = [t for t in res.transitions if "relations" in t.kinds]
            return tr.t_star
        assert abs(star(101) - star(51)) <= 1e-8

    def test_deterministic(self, transversal_family):
        grid = np.linspace(-0.02, 0.02, 31)
        a = sc.run_scan(transversal_family, grid)
        b = sc.run_scan(transversal_family, grid)
        assert a == b

    def test_empty_grid(self, transversal_family):
        res = sc.run_scan(transversal_family, [])
        assert res.records == () and res.transitions == ()
        assert res.consistent

    def test_grid_outside_domain(self, transversal_family):
        with pytest.raises(PreconditionError):
            sc.run_scan(transversal_family, [0.0, 0.05])

    @pytest.mark.parametrize("depths", [
        {"kneading_depth": 0}, {"kneading_depth": -2},
        {"t_grid": [0.0, 0.05]}, {"width": 0.0}, {"width": -1.0},
        {"width": float("nan")}, {"width": float("inf")},
        {"t_grid": [0.01, 0.0]}, {"t_grid": [0.0, 0.01, 0.01]},
        {"kneading_depth": mp.MAX_TERMS + 1}])
    def test_unusable_depths_refused_before_any_node(
            self, transversal_family, monkeypatch, depths):
        def no_node(*args):
            raise AssertionError("a node was evaluated")

        monkeypatch.setattr(sc, "_node", no_node)
        match = ("width must be finite" if "width" in depths
                 else "depth must be >=" if "kneading_depth" in depths
                 else "outside family domain" if max(depths["t_grid"]) > 0.02
                 else "grid must increase")
        kwargs = {"t_grid": [0.0, 0.01], **depths}
        with pytest.raises(PreconditionError, match=match):
            sc.run_scan(transversal_family, **kwargs)

    def test_node_failures_recorded(self, golden):
        fam = mp.MapFamily(golden, (mp.FamilyTerm(mp.bump_field()),),
                           domain=(-0.7, 0.7))
        res = sc.run_scan(fam, [0.0, 0.6], localize=False)
        assert res.records[0].classification == "periodic:3"
        bad = res.records[1]
        assert bad.classification == "error"
        assert any(f.startswith("error:") for f in bad.flags)

    def test_sampled_source_foreign_node(self, horizontal_tilde):
        with pytest.raises(PreconditionError):
            sc.run_scan(horizontal_tilde, [0.012345])

    def test_unscannable_object_refused(self):
        with pytest.raises(PreconditionError, match="cannot scan a object"):
            sc.run_scan(object(), [0.0])


def _bisected(F, a, b, width):
    """The signature bisection of a node pair, written out independently."""
    t_lo, t_hi = a.t, b.t
    sig_lo, sig_hi = (a.kneading, a.relations), (b.kneading, b.relations)
    kinds = sc._changed(sig_lo, sig_hi)
    while t_hi - t_lo > width:
        mid = 0.5 * (t_lo + t_hi)
        sig = sc._signature(F, mid, sc.KNEADING_DEPTH)
        if sig == sig_lo:
            t_lo = mid
        else:
            t_hi, sig_hi = mid, sig
    if sig_hi is not None:
        kinds = sc._changed(sig_lo, sig_hi)
    return t_lo, t_hi, kinds


class TestNewtonLocalization:
    @pytest.fixture(scope="class")
    def tent_window(self):
        return mp.MapFamily(mp.symmetric_tent(1.6),
                            (mp.FamilyTerm(mp.tent_profile_field()),),
                            domain=(-0.02, 0.02))

    @pytest.mark.parametrize("name", ["transversal_family", "tent_window"])
    def test_evaluation_budget(self, request, monkeypatch, name):
        fam = request.getfixturevalue(name)
        counts = {"signature": 0, "maps": 0}
        signature, family_eval = sc._signature, sc.family_eval

        def counted_signature(*args):
            counts["signature"] += 1
            return signature(*args)

        def counted_eval(*args, **kwargs):
            counts["maps"] += 1
            return family_eval(*args, **kwargs)

        spent = []
        localize = sc._localize

        def recorded(*args):
            before = dict(counts)
            tr = localize(*args)
            spent.append((tr, {k: counts[k] - before[k] for k in counts}))
            return tr

        monkeypatch.setattr(sc, "_signature", counted_signature)
        monkeypatch.setattr(sc, "family_eval", counted_eval)
        monkeypatch.setattr(sc, "_localize", recorded)
        res = sc.run_scan(fam, np.linspace(-0.02, 0.02, 101))
        assert [tr for tr, _ in spent] == list(res.transitions)
        methods = {tr.method for tr in res.transitions}
        assert "newton" in methods and methods <= {"newton", "bisection"}
        for tr, cost in spent:
            assert cost["signature"] == {"newton": 2, "bisection": 16}[
                tr.method]
            assert cost["maps"] == tr.evaluations
            if tr.method == "newton":
                assert 3 <= tr.evaluations <= 2 + 16

    def test_golden_crossing_bracket_bits(self, transversal_family):
        res = sc.run_scan(transversal_family, np.linspace(-0.02, 0.02, 101))
        (rel,) = [t for t in res.transitions if "relations" in t.kinds]
        assert rel.method == "bisection" and rel.evaluations == 16
        assert rel.t_lo == 0.0 and rel.t_hi == 6.103515625000016e-09

    @pytest.mark.parametrize("failure", ["no root", "wrong root"])
    def test_failed_newton_falls_back_to_bisection(
            self, transversal_family, monkeypatch, failure):
        def failing(F, t_lo, t_hi, i, rises, width, cap):
            # "wrong root": the grid end, whose confirming signatures agree
            return (None, 0) if failure == "no root" else (t_lo, 3)

        grid = np.linspace(-0.02, 0.02, 41)
        monkeypatch.setattr(sc, "_newton_crossing", failing)
        res = sc.run_scan(transversal_family, grid)
        pairs = {(a.t, b.t): (a, b)
                 for a, b in zip(res.records, res.records[1:])}
        assert len(res.transitions) == 40
        for tr in res.transitions:
            a, b = next(pairs[k] for k in pairs
                        if k[0] <= tr.t_lo < tr.t_hi <= k[1])
            t_lo, t_hi, kinds = _bisected(transversal_family, a, b,
                                          sc.TRANSITION_WIDTH)
            assert (tr.t_lo, tr.t_hi, tr.kinds) == (t_lo, t_hi, kinds)
            assert tr.t_star == 0.5 * (t_lo + t_hi)
            assert tr.width == t_hi - t_lo and tr.method == "bisection"
            newton = 3 + 2 if failure == "wrong root" and \
                sc._crossing_index(a, b) is not None else 0
            assert tr.evaluations == 17 + newton

    def test_width_below_float_spacing_ends(self, transversal_family):
        # near t = 0.01 adjacent floats are 1.7e-18 apart, so a 1e-20
        # bracket cannot exist; the bisection stops at adjacent floats,
        # where f^29(c) enters the band |x| < TOL_C (...LRLR vs ...LRLC)
        res = sc.run_scan(transversal_family, [0.01, 0.0104], width=1e-20)
        (tr,) = res.transitions
        assert tr.method == "bisection" and not tr.localized
        assert math.nextafter(tr.t_lo, 1.0) == tr.t_hi
        assert [mp.kneading(mp.family_eval(transversal_family, t), 30)[25:]
                for t in (tr.t_lo, tr.t_hi)] == ["RLRLR", "RLRLC"]
        # Newton hands over once a step no longer moves t, instead of
        # running to its 56-iteration cap (104 maps)
        assert tr.evaluations == 60

    def test_unlocalized_transitions_say_grid(self, transversal_family):
        res = sc.run_scan(transversal_family, np.linspace(-0.02, 0.02, 11),
                          localize=False)
        assert res.transitions
        assert all(t.method == "grid" and t.evaluations == 0
                   and not t.localized for t in res.transitions)


class TestTangentDeformation:
    def test_horizontal_direction(self, golden):
        kp = fn.kernel_projection(golden, mp.bump_field(), mp.odd_field())
        trace = sc.tangent_deformation(golden, kp.field)
        assert abs(trace.slope0) < 1e-8
        assert trace.nodes[0].t == -0.02 and trace.nodes[-1].t == 0.02

    def test_non_tangent_refused(self, golden):
        with pytest.raises(PreconditionError, match="2.918e-01"):
            sc.tangent_deformation(golden, mp.bump_field())

    def test_auto_transversal_boundary_case(self):
        # J(full tent, odd) = 0, so the dictionary must skip odd and pick
        # the bump; the whole trace rides the f(c) = 1 boundary with the
        # kneading pinned
        tent = mp.full_tent()
        trace = sc.tangent_deformation(tent, mp.odd_field())
        assert trace.w == mp.bump_field()
        assert all(n.at_boundary for n in trace.nodes)
        kneadings = {mp.kneading(trace.map_at(n.t), 30)
                     for n in trace.nodes}
        assert kneadings == {"CR" + "L" * 28}


class TestContinuationLadder:
    def test_full_tent_ladder(self, tent_family):
        lad = sc.continuation_ladder(tent_family)
        assert [r.period for r in lad.rungs] == [7, 8, 9, 10]
        assert lad.decreasing and not lad.partial
        assert lad.base_period is None
        thetas = [r.theta0 for r in lad.rungs]
        assert thetas == sorted(thetas)  # negative, shrinking magnitude
        dists = [r.distance for r in lad.rungs]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        # each distance is, to rounding, the grid sup of D^m (m <= k - 1)
        # of the assembled g_t - f~_t over the shared nodes: bump's sups
        # sit at the branch ends, which the grid holds
        w = lad.rungs[0].continuation.w
        trace = df.integrate_deformation(tent_family, w, h0=0.002,
                                         adaptive=False)
        halves = (np.linspace(-1.0, 0.0, 2048), np.linspace(0.0, 1.0, 2048))
        for r in lad.rungs:
            grid = 0.0
            for t in set(r.continuation.ts) & set(trace.ts):
                g, f = r.continuation.map_at(t), trace.map_at(t)
                for xs, gc, fc in zip(halves, (g.left, g.right),
                                      (f.left, f.right)):
                    delta = P.polysub(gc, fc)
                    grid = max(grid, *(np.max(np.abs(P.polyval(
                        xs, P.polyder(delta, m)))) for m in range(3)))
            assert r.distance == pytest.approx(grid, rel=1e-12)

    def test_periodic_base_trivial_rung(self, golden):
        fam = mp.MapFamily(golden, (), domain=(-0.02, 0.02))
        lad = sc.continuation_ladder(fam)
        assert len(lad.rungs) == 1 and not lad.partial
        rung = lad.rungs[0]
        assert rung.period == 3 and rung.theta0 == 0.0
        assert rung.distance == 0.0

    def test_out_of_class_refused(self, transversal_family):
        with pytest.raises(PreconditionError, match="not in-class"):
            sc.continuation_ladder(transversal_family)


def _write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# the flags each command reads, which are the only ones it accepts
_FLAGS_READ = {
    "validate": set(), "j": {"--tol"}, "alpha": {"--grid"}, "horiz": set(),
    "deform": {"--tol"}, "continue": set(), "conjugacy": {"--tol", "--depth"},
    "scan": {"--depth", "--grid"}, "cor51": {"--tol"}, "cor52": set()}


class TestCli:
    def test_validate_ok(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {"map": "golden_tent"})
        assert cli.main(["validate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert rep["valid"] is True and rep["schema_version"] == 1

    def test_validate_reports_invalid(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {"map": {"slope": 0.9}})
        assert cli.main(["validate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert rep["valid"] is False

    def test_failed_validation_writes_no_lambda(self, tmp_path):
        # both branches expand (|Df| >= 6.7e299), only the boundary fails
        cfg = _write_cfg(tmp_path / "c.json", {"map": {
            "left": [0.0, 1e300, -1e300, 1e300],
            "right": [0.0, -1e300, 1e300, -1e300]}})
        assert cli.main(["validate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "validation.json").read_text()
        assert '"lambda": null' in text
        rep = json.loads(text)
        assert rep["valid"] is False and [c["name"] for c in rep["checks"]
                                          if not c["passed"]] == [
            "boundary_fixed"]

    def test_scan_deterministic_bytes(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "family": {"base": "golden_tent",
                       "terms": [{"field": "bump"}]},
            "grid": {"n": 21}})
        for run in ("a", "b"):
            assert cli.main(["scan", "--config", cfg,
                             "--out", str(tmp_path / run)]) == 0
        for name in ("records.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_scan_csv_shape(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "family": {"base": "golden_tent",
                       "terms": [{"field": "bump"}]},
            "grid": {"n": 5}})
        assert cli.main(["scan", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "records.csv").read_text().splitlines()
        assert lines[0] == "t,kneading,relations,J,J_tail,class,flags"
        assert len(lines) == 6

    def test_missing_config_exits_1(self, tmp_path):
        assert cli.main(["j", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 1

    def test_bad_builtin_exits_1(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {"map": "nope", "field": "bump"})
        assert cli.main(["j", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1

    def test_non_tangent_exits_1(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json",
                         {"map": "golden_tent", "v": "bump"})
        assert cli.main(["cor51", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1

    def test_consistency_failure_exits_2(self, tmp_path, monkeypatch):
        def boom(cfg, args):
            raise InternalConsistencyError("forced")
        _, text, flags = cli._COMMANDS["j"]
        monkeypatch.setitem(cli._COMMANDS, "j", (boom, text, flags))
        cfg = _write_cfg(tmp_path / "c.json",
                         {"map": "golden_tent", "field": "bump"})
        assert cli.main(["j", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()  # no result, no output

    def test_j_output(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json",
                         {"map": "golden_tent", "field": "bump"})
        assert cli.main(["j", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        out = json.loads((tmp_path / "o" / "j.json").read_text())
        assert out["value"] == pytest.approx(0.2917961, abs=1e-7)
        assert out["mode"] == "periodic"

    def test_conjugacy_output(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json",
                         {"f0": "golden_tent", "f1": "full_tent"})
        assert cli.main(["conjugacy", "--config", cfg,
                         "--out", str(tmp_path / "o"), "--depth", "60"]) == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        assert rep["passed"] and rep["coverage"] >= 200
        lines = (tmp_path / "o" / "table.csv").read_text().splitlines()
        assert lines[0] == "x,h,depth,bound,residual"

    def test_conjugacy_self_table_off_the_tent_family(self, tmp_path):
        # the 1.8 tent's critical point is not periodic; every word of its
        # own table is realized on it
        cfg = _write_cfg(tmp_path / "c.json",
                         {"f0": {"slope": 1.8}, "f1": {"slope": 1.8}})
        assert cli.main(["conjugacy", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        assert rep["passed"] is True and rep["coverage"] >= 200

    def test_deform_without_relations_writes_summary(self, tmp_path):
        # a non-periodic base: every node's relation residual is None
        kp = fn.kernel_projection(mp.symmetric_tent(1.8),
                                  mp.square_bump_field(), mp.bump_field())
        field = {"left": list(kp.field.left), "right": list(kp.field.right)}
        cfg = _write_cfg(tmp_path / "c.json", {
            "family": {"base": {"slope": 1.8}, "terms": [{"field": field}]},
            "w": "bump"})
        assert cli.main(["deform", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        out = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert out["max_relation_residual"] is None
        # no period: every slope is a pair of truncated series
        assert _digests(tmp_path / "o") == {
            "summary.json": "5ce31f4868350c973c9089f174d25c91"
                            "b5825dc42ef0c32b9e044d9d79bf609a",
            "trace.csv": "2b9524c0d82404c4712f150b4b3fafcc"
                         "4e761ec308ba5785c8170ebc62827433"}

    def test_alpha_grid_below_two_exits_1(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.json",
                         {"map": "golden_tent", "field": "bump", "n": 1})
        for extra in (["--grid", "1"], ["--grid", "0"], []):
            assert cli.main(["alpha", "--config", cfg,
                             "--out", str(tmp_path / "o")] + extra) == 1
            assert "at least 2 points" in capsys.readouterr().err

    def test_boundary_slack_maps_evaluate(self, tmp_path):
        # validate admits f(c) <= 1 + 1e-12, so the orbit must be evaluable
        cfg = _write_cfg(tmp_path / "c.json", {
            "map": {"left": [1.0000000000005, 2.0000000000005],
                    "right": [1.0000000000005, -2.0000000000005]},
            "field": "bump"})
        assert cli.main(["j", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        # the ladder's maps send -1 a few ulp below -1
        cfg = _write_cfg(tmp_path / "d.json", {
            "family": {"base": "full_tent",
                       "terms": [{"field": {"left": [0, 1.25, 0, -1.25]}}]},
            "w": "bump"})
        assert cli.main(["cor52", "--config", cfg,
                         "--out", str(tmp_path / "p")]) == 0

    def test_term_budget_exits_1(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.json",
                         {"map": {"slope": 1.0 + 1e-9}, "field": "bump"})
        for cmd in ("j", "alpha"):
            assert cli.main([cmd, "--config", cfg,
                             "--out", str(tmp_path / "o")]) == 1
            assert "MAX_TERMS" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "nan", "-1"])
    def test_tol_not_positive_exits_1(self, tmp_path, capsys, tol):
        cfg = _write_cfg(tmp_path / "c.json",
                         {"map": "golden_tent", "field": "bump"})
        assert cli.main(["j", "--config", cfg, "--out", str(tmp_path / "o"),
                         f"--tol={tol}"]) == 1
        assert "finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("cmd", cli._COMMANDS)
    def test_every_command_refuses_bad_tol(self, tmp_path, capsys, cmd, tol):
        # a config every command could run; a command that reads --tol
        # refuses a bad value before it reads the config, the others refuse
        # the flag, and neither creates the output directory
        family = {"base": "golden_tent", "terms": [{"field": "bump"}]}
        cfg = _write_cfg(tmp_path / "c.json", {
            "map": "golden_tent", "field": "bump", "v": "bump", "w": "odd",
            "family": family, "period": 3,
            "f0": "golden_tent", "f1": "golden_tent"})
        out = tmp_path / "o"
        assert cli.main([cmd, "--config", cfg, "--out", str(out),
                         f"--tol={tol}"]) == 1
        if "--tol" in _FLAGS_READ[cmd]:
            assert capsys.readouterr().err == (
                f"pexpand {cmd}: tolerance must be finite and > 0, "
                f"got {float(tol)!r}\n")
        else:
            assert capsys.readouterr().err == (
                f"pexpand: unrecognized arguments: --tol={tol}\n")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", _FLAGS_READ)
    def test_command_takes_only_the_flags_it_reads(self, cmd):
        assert set(cli._COMMANDS) == set(_FLAGS_READ)
        argv = [cmd, "--config", "c.json", "--out", "o"]
        taken = {flag for flag in ("--tol", "--depth", "--grid")
                 if not cli._PARSER.parse_known_args(argv + [flag, "2"])[1]}
        assert taken == _FLAGS_READ[cmd]

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        cfg = _write_cfg(tmp_path / "c.json", {"map": "golden_tent"})
        for run in ("a", "b"):
            assert cli.main(["validate", "--config", cfg,
                             "--out", str(tmp_path / run)]) == 0
        assert built == []

    @pytest.mark.parametrize("argv, err", [
        (["nope", "--config", "CFG", "--out", "OUT"],
         "pexpand: argument command: invalid choice: 'nope'"),
        (["j", "--config", "CFG", "--out", "OUT", "--grid", "5"],
         "pexpand: unrecognized arguments: --grid 5"),
        (["scan", "--config", "CFG", "--out", "OUT", "--depth", "abc"],
         "pexpand scan: argument --depth: invalid int value: 'abc'"),
        (["j", "--out", "OUT"],
         "pexpand j: the following arguments are required: --config"),
    ], ids=["command", "flag", "depth-abc", "no-config"])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv, err):
        cfg = _write_cfg(tmp_path / "c.json", {
            "map": "golden_tent", "field": "bump",
            "family": {"base": "golden_tent", "terms": [{"field": "bump"}]}})
        out = tmp_path / "o"
        argv = [{"CFG": cfg, "OUT": str(out)}.get(a, a) for a in argv]
        assert cli.main(argv) == 1
        text = capsys.readouterr().err
        assert text.startswith(err) and text.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            cli.main(argv)
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pexpand")

    @pytest.mark.parametrize("config, out, err", [
        (".", "o", "cannot read the config: [Errno 21] Is a directory"),
        ("latin1.json", "o", "cannot read the config: 'utf-8' codec can't"),
        ("c.json", "file", "[Errno 17] File exists"),
        ("c.json", "file/o", "[Errno 20] Not a directory"),
    ], ids=["config-dir", "config-not-utf8", "out-file", "out-below-file"])
    def test_path_error_exits_1(self, tmp_path, capsys, config, out, err):
        _write_cfg(tmp_path / "c.json", {"map": "golden_tent"})
        (tmp_path / "latin1.json").write_bytes(
            '{"map": "golden_tent", "note": "\u00e9"}'.encode("latin-1"))
        (tmp_path / "file").write_text("")
        assert cli.main(["validate", "--config", str(tmp_path / config),
                         "--out", str(tmp_path / out)]) == 1
        text = capsys.readouterr().err
        assert text.startswith(f"pexpand validate: {err}")
        assert text.count("\n") == 1 and "Traceback" not in text

    def test_exact_return_ends_series(self, tmp_path):
        # f^2(c) sits in the hysteresis band, and the raw orbit lands on
        # 0.0 exactly at step k = 32 of the 368434 the series asks for
        f, v = mp.symmetric_tent(1.0001), mp.bump_field()
        k = mp.iterates(f, 100).index(0.0, 1)
        cfg = _write_cfg(tmp_path / "c.json",
                         {"map": {"slope": 1.0001}, "field": "bump"})
        assert cli.main(["j", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        out = json.loads((tmp_path / "o" / "j.json").read_text())
        assert out["mode"] == "ambiguous"
        assert out["n_terms"] == k and out["tail_bound"] == 0.0
        series = [c["value"] for c in out["candidates"]
                  if c["mode"] == "series"]
        assert series == [fn.j_periodic_sum(f, v, k)]

    def test_scan_grid_below_two_exits_1(self, tmp_path, capsys):
        family = {"base": "golden_tent", "terms": [{"field": "bump"}]}
        cfg = _write_cfg(tmp_path / "c.json", {"family": family})
        for extra in (["--grid", "1"], ["--grid", "0"], ["--grid=-3"]):
            assert cli.main(["scan", "--config", cfg,
                             "--out", str(tmp_path / "o")] + extra) == 1
            assert "at least 2 points" in capsys.readouterr().err
        cfg = _write_cfg(tmp_path / "d.json",
                         {"family": family, "grid": {"n": 1}})
        assert cli.main(["scan", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1
        assert "at least 2 points" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [["--depth", "0"], ["--depth=-2"]])
    def test_scan_depth_below_one_exits_1(self, tmp_path, capsys, depth):
        cfg = _write_cfg(tmp_path / "c.json", {
            "family": {"base": "golden_tent", "terms": [{"field": "bump"}]},
            "grid": {"n": 5}})
        assert cli.main(["scan", "--config", cfg,
                         "--out", str(tmp_path / "o")] + depth) == 1
        assert "kneading depth must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("grid", [
        {"lo": 0.02, "hi": -0.02, "n": 11}, [-0.01, 0.0, 0.0, 0.01]])
    def test_scan_grid_not_increasing_exits_1(self, tmp_path, capsys, grid):
        cfg = _write_cfg(tmp_path / "c.json", {
            "family": {"base": "golden_tent", "terms": [{"field": "bump"}]},
            "grid": grid})
        assert cli.main(["scan", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1
        assert "grid must increase strictly" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    def test_scan_summary_says_how_localized(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "family": {"base": "golden_tent", "terms": [{"field": "bump"}]},
            "grid": {"n": 11}})
        assert cli.main(["scan", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        summ = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summ["schema_version"] == 1 and summ["transitions"]
        for tr in summ["transitions"]:
            assert tr["method"] in ("newton", "bisection")
            assert tr["evaluations"] >= {"newton": 3, "bisection": 1}[
                tr["method"]]


_FAMILY = {"base": "golden_tent", "terms": [{"field": "bump"}]}
_ODD_FAMILY = {"base": "golden_tent", "terms": [{"field": "odd"}]}
_DEGREE_18 = [0.0] * 18 + [1.0]


@pytest.mark.filterwarnings("error")  # a warning would print before the line
@pytest.mark.parametrize("cmd, payload", [
    ("validate", {"map": {"slope": math.nan}}),
    ("validate", {"map": {"slope": "abc"}}),
    ("validate", {"map": {"left": ["x", 1.0], "right": [0.0, -1.0]}}),
    ("validate", {"map": {"slope": 1.7, "k": 0}}),
    ("j", {"map": "golden_tent", "field": {"left": [1.0]}}),
    ("validate", {"map": {"left": _DEGREE_18, "right": _DEGREE_18}}),
    ("scan", {"family": {**_FAMILY, "domain": [1, 0]}}),
    ("scan", {"family": {"base": "golden_tent",
                         "terms": [{"field": "bump", "t_powers": [0]}]}}),
    ("scan", {"family": {"base": "golden_tent", "terms": 5}}),
    ("deform", {"family": {"base": "golden_tent", "terms": [{"field": {
        "left": [0.0, 0.0, 1.0], "relaxed": True}}]}, "w": "bump"}),
    ("continue", {"family": _ODD_FAMILY, "w": "bump", "period": 3,
                  "theta0": math.nan}),
    ("continue", {"family": _ODD_FAMILY, "w": "bump", "period": "x"}),
    ("scan", {"family": _FAMILY, "grid": ["a"]}),
    ("conjugacy", {"f0": "golden_tent", "f1": "golden_tent", "count": "x"}),
    ("alpha", {"map": "golden_tent", "field": "bump", "n": "x"}),
    ("cor52", {"family": {"base": "full_tent", "terms": [{"field": "odd"}]},
               "periods": [0]}),
    # a domain or grid whose width overflows is refused before numpy
    # builds a grid over it (it would warn, then report t = nan)
    ("scan", {"family": {**_FAMILY, "domain": [-1e308, 1e308]}}),
    ("cor52", {"family": {**_FAMILY, "domain": [-1e308, 1e308]}}),
    ("scan", {"family": _FAMILY, "grid": {"lo": 1e308, "hi": -1e308}}),
], ids=["slope-nan", "slope-str", "left-str", "k-0", "field-boundary",
        "degree-18", "domain-reversed", "t-power-0", "terms-int",
        "relaxed-term", "theta0-nan", "period-str", "grid-str", "count-str",
        "alpha-n-str", "ladder-period-0", "domain-overflow",
        "ladder-domain-overflow", "grid-overflow"])
def test_malformed_config_exits_1(tmp_path, capsys, cmd, payload):
    cfg = _write_cfg(tmp_path / "c.json", payload)
    out = tmp_path / "o"
    assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pexpand {cmd}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()  # refused before any output


@pytest.mark.parametrize("cmd, payload", [
    ("alpha", {"map": "golden_tent", "field": "bump", "n": 2.9}),
    ("continue", {"family": _ODD_FAMILY, "w": "bump", "period": 3.5}),
    ("conjugacy", {"f0": "golden_tent", "f1": "golden_tent", "count": 20.5}),
    ("conjugacy", {"f0": "golden_tent", "f1": "golden_tent", "depth": 40.5}),
    ("conjugacy", {"f0": "golden_tent", "f1": "golden_tent",
                   "max_period": 2.5}),
    ("validate", {"map": {"slope": 1.7, "k": 2.5}}),
    ("scan", {"family": {"base": "golden_tent",
                         "terms": [{"field": "bump", "t_powers": [1.5]}]}}),
], ids=["n", "period", "count", "depth", "max_period", "k", "t_powers"])
def test_fractional_integer_entry_exits_1(tmp_path, capsys, cmd, payload):
    cfg = _write_cfg(tmp_path / "c.json", payload)
    out = tmp_path / "o"
    assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pexpand {cmd}: ") and "is not an integer" in err
    assert not out.exists()


def test_integral_float_entry_accepted(tmp_path):
    cfg = _write_cfg(tmp_path / "c.json",
                     {"map": "golden_tent", "field": "bump", "n": 3.0})
    assert cli.main(["alpha", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o" / "alpha.csv").read_text().splitlines()) == 3


@pytest.mark.filterwarnings("error")  # a warning would print before the line
def test_overflowing_map_refused_in_one_line(tmp_path, capfd):
    cfg = _write_cfg(tmp_path / "c.json", {
        "family": _ODD_FAMILY, "w": "bump", "period": 3, "theta0": 1e308})
    assert cli.main(["continue", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
    err = capfd.readouterr().err
    assert err.startswith("pexpand continue: map failed validation")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
def test_overflowing_family_power_is_an_error_node(tmp_path, capfd):
    # t**2 overflows a float at the grid ends: those two nodes become
    # error records and the scan ends normally, with nothing on stderr
    cfg = _write_cfg(tmp_path / "c.json", {
        "family": {"base": "golden_tent",
                   "terms": [{"field": "bump", "t_powers": [2]}],
                   "domain": [-1e200, 1e200]},
        "grid": {"lo": -1e200, "hi": 1e200, "n": 3}})
    assert cli.main(["scan", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
    assert capfd.readouterr().err == ""
    rows = (tmp_path / "o" / "records.csv").read_text().splitlines()[1:]
    assert [r.split(",")[-2:] for r in rows] == [
        ["error", "error:PreconditionError"], ["periodic:3", ""],
        ["error", "error:PreconditionError"]]


@pytest.mark.parametrize("cmd, payload", [
    ("continue", {"family": _ODD_FAMILY, "w": "bump",
                  "period": mp.P_MAX + 1}),
    ("continue", {"family": _ODD_FAMILY, "w": "bump", "period": 10 ** 8}),
    ("cor52", {"family": {"base": "full_tent", "terms": [{"field": "odd"}]},
               "periods": [7, mp.P_MAX + 1]}),
], ids=["continue", "continue-1e8", "cor52"])
def test_period_above_p_max_exits_1_at_once(tmp_path, capsys, cmd, payload):
    # periodicity is searched up to P_MAX, so a deeper period is refused
    # before any orbit is walked
    cfg = _write_cfg(tmp_path / "c.json", payload)
    start = time.perf_counter()
    assert cli.main([cmd, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"pexpand {cmd}: ") and f"<= {mp.P_MAX}" in err


@pytest.mark.parametrize("payload, flags", [
    ({"max_period": 0}, []), ({"max_period": mp.P_MAX + 1}, []),
    ({"max_period": 10 ** 8}, []), ({}, ["--depth", "0"]),
    ({}, ["--depth", str(mp.MAX_TERMS + 1)]),
], ids=["period-0", "period-65", "period-1e8", "depth-0", "depth-max-terms"])
def test_conjugacy_search_sizes_refused_at_once(tmp_path, capsys, payload,
                                                flags):
    # the periodic-point search refuses what it could not use before it
    # walks an orbit: a period above P_MAX would run for minutes, and a
    # depth above MAX_TERMS grows every word without bound
    cfg = _write_cfg(tmp_path / "c.json", {
        "f0": "golden_tent", "f1": "golden_tent", **payload})
    start = time.perf_counter()
    assert cli.main(["conjugacy", "--config", cfg,
                     "--out", str(tmp_path / "o")] + flags) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"pexpand conjugacy: max_period must be >= 1 "
                          f"and <= {mp.P_MAX} and depth >= 1 and <= "
                          f"MAX_TERMS={mp.MAX_TERMS}, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("f, max_period", [("golden_tent", 40),
                                           ("full_tent", 20)])
def test_conjugacy_lap_budget_refused_at_once(tmp_path, capsys, f,
                                              max_period):
    # f^q has at least lambda^q laps, so a max_period whose lambda^q passes
    # MAX_TERMS is refused before a lap end is built (golden refuses from
    # 29, the full tent from 20)
    cfg = _write_cfg(tmp_path / "c.json",
                     {"f0": f, "f1": f, "max_period": max_period})
    start = time.perf_counter()
    assert cli.main(["conjugacy", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"pexpand conjugacy: f^{max_period} has at least "
                          f"lambda^{max_period} = ")
    assert err.endswith(f" laps, more than MAX_TERMS={mp.MAX_TERMS}\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_conjugacy_residuals_computed_once(tmp_path, monkeypatch):
    # table.csv writes the residuals the report already holds
    calls = []
    real = cj.entry_residuals

    def counted(*args):
        calls.append(args)
        return real(*args)
    # io may hold its own name for it, whose calls must count too
    monkeypatch.setattr(cj, "entry_residuals", counted)
    monkeypatch.setattr(pio, "entry_residuals", counted, raising=False)
    cfg = _write_cfg(tmp_path / "c.json",
                     {"f0": "golden_tent", "f1": "golden_tent", "count": 20})
    assert cli.main(["conjugacy", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1
    rows = (tmp_path / "o" / "table.csv").read_text().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == [
        "" if res is None else repr(res) for res in real(*calls[0])]


def test_continue_refuses_lower_period_at_centre(tmp_path, capsys):
    # theta = 0 is the golden tent itself, whose critical point has period
    # 3, so a period-6 continuation has no centre to start from
    cfg = _write_cfg(tmp_path / "c.json",
                     {"family": _ODD_FAMILY, "w": "bump", "period": 6})
    assert cli.main(["continue", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
    assert "has prime period 3 < 6" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _digests(out) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


# SHA-256 of every file a command emits.  A change to the orbit readers, the
# J sums, the kernel ODE or the localization that moves one bit fails here.
_PINNED = [
    # 10 transitions: 8 localized by Newton, 2 (one a relation change) by
    # bisection
    ("scan", {"family": {"base": "golden_tent", "terms": [{"field": "bump"}]},
              "grid": {"n": 11}},
     {"records.csv": "1a6aa6917e83a68b2d2255ddeb5ad708"
                     "fa586e45663053af659b6bf85a798d0a",
      "summary.json": "300a7f9cc5ed9e45d86566ed0fd38015"
                      "f84d288fc88632ca93d2329029ae38d3"}),
    # period 3 kept: every slope is a matched periodic pair
    ("deform", {"family": _ODD_FAMILY, "w": "bump"},
     {"summary.json": "d28996cf474cc5d0eeebf56ac9989ccd"
                      "d1e87391d2e3bb86313b5191d1ba51d4",
      "trace.csv": "0a0185b59ca0a65683f296e3ac1caac8"
                   "d776bb0cb531daa0861062d66560cd05"}),
    ("continue", {"family": _ODD_FAMILY, "w": "bump", "period": 3},
     {"continuation.csv": "202fae013b66dcf4562c9aff17457210"
                          "57052d68ffa3185cc4f37fc8d9988f37",
      "summary.json": "778d140f5b4fa60d7bb57448d4e87850"
                      "55f5d91b00f1f7f45e6fc841e08b1955"}),
    # ladder.csv as under the 2048-point grid norm it replaced
    ("cor52", {"family": {"base": "full_tent", "terms": [{"field": "odd"}]},
               "w": "bump"},
     {"ladder.csv": "69ca89bab928f0f568634cd8dda979b7"
                    "2f064498155217dc4e8e57cc7b9eefae",
      "summary.json": "87a8deb68de670c4d1fe156810fdc210"
                      "812994603b947cb0078386577c5a43f5"}),
    # alpha.csv holds alpha at the cohomology check's own grid points
    ("alpha", {"map": "curved_not_good", "field": "odd"},
     {"alpha.csv": "0cb3ddd8b959700dfe1ee79fc2ae1550"
                   "a2d37f800b7e517cd91417a28a4e9ea6",
      "summary.json": "0e959690872854edeb2167a0ccf50f2d"
                      "a0b7b2d9f7b9a49b08eaa19a32a5c484"}),
    # dyadic grid points land on c exactly; 0.0 itself is filtered out
    ("alpha", {"map": "full_tent", "field": "bump"},
     {"alpha.csv": "88a51b3a5d5336a4a64f4cb709a48107"
                   "ad18efab80af4b9aa3636134ff075468",
      "summary.json": "13a7569683d1b073ac621ada08421ab9"
                      "f04fb7c170edf0308d1e2e2b16dcfeb6"}),
    ("validate", {"map": "golden_tent"},
     {"validation.json": "73521f09d315e97a158680b59c35349a"
                         "ac8e4993ad0fb2a86e0d810ce20f8422"}),
    # an invalid map is a result: lambda is null, the checks say why
    ("validate", {"map": {"slope": 0.9}},
     {"validation.json": "c07122e42c2c4294fda7d8f260bc23aa"
                         "8146650e43d93fcfa78423df8a7440a6"}),
    ("j", {"map": "golden_tent", "field": "bump"},
     {"j.json": "e24bc46c0bc07eeb7b01e604f47b502b"
                "e9285931ca4a4f62985cbf7a76054a15"}),
    ("horiz", {"map": "golden_tent", "v": "bump", "w": "odd"},
     {"projection.json": "cb9d9166b351e7a17c7c832fdacf5315"
                         "a135d5065e7a739156b3d8edc0060693"}),
    ("conjugacy", {"f0": "golden_tent", "f1": "golden_tent", "count": 20},
     {"report.json": "33c6b1244a9a88b7b99bdf3eaec96e0e"
                     "03ccca34bdfa3f6cf00891f01b682a3b",
      "table.csv": "23dcd6ad5ec7f81fa1218e3d69f767f0"
                   "cea001d8bad006d6b950a3c770926297"}),
    # J(full tent, odd) = 0; w is the first transversal dictionary entry
    ("cor51", {"map": "full_tent", "v": "odd"},
     {"summary.json": "ef0d7d4f9d41768b11a024660361f7a1"
                      "e2f09f585931ce496740211062fec2a2",
      "trace.csv": "c3f19f22f98b7c7291adff5dae911a29"
                   "3ba33b9ede0197553b2412f99386194c"}),
]


@pytest.mark.parametrize("cmd, payload, digests", _PINNED,
                         ids=[p[0] for p in _PINNED])
def test_emitted_bytes_pinned(tmp_path, cmd, payload, digests):
    cfg = _write_cfg(tmp_path / "c.json", payload)
    assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert _digests(tmp_path / "o") == digests
    if cmd == "scan":
        summ = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert {tr["method"] for tr in summ["transitions"]} == {
            "newton", "bisection"}


# full_tent + bump: f(c)'s orbit never returns to c, so its walk takes the
# whole n_max = 40 steps
@pytest.mark.parametrize("m, field", [("golden_tent", "bump"),
                                      ("full_tent", "bump"),
                                      ("curved_not_good", "odd")])
def test_alpha_walks_one_orbit(tmp_path, monkeypatch, m, field):
    calls = []
    value = fn.AlphaSolution.value

    def counted(self, x):
        calls.append(x)
        return value(self, x)

    monkeypatch.setattr(fn.AlphaSolution, "value", counted)
    cfg = _write_cfg(tmp_path / "c.json", {"map": m, "field": field})
    assert cli.main(["alpha", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1
    summ = json.loads((tmp_path / "o" / "summary.json").read_text())
    hz = fn.horizontality(pio.parse_map(m), pio.parse_field(field))
    assert summ["identity_gap"].hex() == hz.identity_gap.hex()
    assert summ["horizontal"] is hz.horizontal


def test_scan_refuses_tol(tmp_path, capsys):
    # one band decides periodicity and relations, so scan has no tolerance
    # to override and refuses --tol, even a valid one
    cfg = _write_cfg(tmp_path / "c.json", _PINNED[0][1])
    assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--tol=1e-6"]) == 1
    assert capsys.readouterr().err == (
        "pexpand: unrecognized arguments: --tol=1e-6\n")
    assert not (tmp_path / "o").exists()


def test_cor52_map_k_costs_no_more_than_its_degree(tmp_path):
    # the ladder's distances read w's C^{k-1} norm, whose orders above the
    # field's degree are 0: k = 10**6 writes the ladder of k = 3, at once
    family = {"base": {"slope": 2.0, "k": 10 ** 6},
              "terms": [{"field": "odd"}]}
    cfg = _write_cfg(tmp_path / "c.json", {"family": family, "w": "bump"})
    start = time.perf_counter()
    assert cli.main(["cor52", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
    assert time.perf_counter() - start < 1.0
    (ladder,) = [d["ladder.csv"] for cmd, _, d in _PINNED if cmd == "cor52"]
    assert _digests(tmp_path / "o")["ladder.csv"] == ladder


@pytest.mark.parametrize("cmd, payload, flags", [
    ("alpha", {"map": "golden_tent", "field": "bump",
               "n": mp.MAX_TERMS + 1}, []),
    ("alpha", {"map": "golden_tent", "field": "bump"},
     ["--grid", str(mp.MAX_TERMS + 1)]),
    ("scan", {"family": _FAMILY, "grid": {"n": mp.MAX_TERMS + 1}}, []),
    ("scan", {"family": _FAMILY}, ["--grid", str(mp.MAX_TERMS + 1)]),
], ids=["alpha-n", "alpha-flag", "scan-n", "scan-flag"])
def test_grid_above_max_terms_refused_before_allocation(
        tmp_path, capsys, cmd, payload, flags):
    cfg = _write_cfg(tmp_path / "c.json", payload)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert cli.main([cmd, "--config", cfg,
                         "--out", str(tmp_path / "o")] + flags) == 1
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 8 * mp.MAX_TERMS  # less than one float grid of that size
    assert capsys.readouterr().err == (
        f"pexpand {cmd}: a grid holds at most MAX_TERMS={mp.MAX_TERMS} "
        f"points, got {mp.MAX_TERMS + 1}\n")
    assert not (tmp_path / "o").exists()


def _readme_outputs() -> dict:
    """README's CLI table: {command: {file names in its outputs column}}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("| outputs |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|.*\|(.*)\|$", table, re.M)
    return {cmd: set(re.findall(r"`([\w.]+)`", cell)) for cmd, cell in rows}


def test_readme_lists_every_command_and_its_files():
    # test_emitted_bytes_pinned runs each command and pins every file it
    # writes, so the names pinned there are the names a run writes
    outputs = _readme_outputs()
    assert set(outputs) == set(cli._COMMANDS) == {p[0] for p in _PINNED}
    for cmd, _, digests in _PINNED:
        assert set(digests) == outputs[cmd], cmd
