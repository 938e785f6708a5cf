"""Grid scans, transition localization, workflows, and the CLI contract."""

import json
import math

import numpy as np
import pytest

from pexpand import cli
from pexpand import deform as df
from pexpand import functional as fn
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
        {"kneading_depth": 0}, {"kneading_depth": -2}, {"relation_depth": 1},
        {"width": 0.0}, {"width": -1.0}, {"width": float("nan")},
        {"width": float("inf")}, {"t_grid": [0.01, 0.0]},
        {"t_grid": [0.0, 0.01, 0.01]}])
    def test_unusable_depths_refused_before_any_node(
            self, transversal_family, monkeypatch, depths):
        def no_node(*args):
            raise AssertionError("a node was evaluated")

        monkeypatch.setattr(sc, "_node", no_node)
        match = ("width must be finite" if "width" in depths
                 else "grid must increase" if "t_grid" in depths
                 else "depth must be >=")
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
        sig = sc._signature(F, mid, sc.KNEADING_DEPTH, sc.RELATION_DEPTH,
                            mp.PERIOD_TOL)
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
        # bracket cannot exist; the bisection stops at adjacent floats
        res = sc.run_scan(transversal_family, [0.01, 0.0104], width=1e-20)
        (tr,) = res.transitions
        assert tr.method == "bisection" and not tr.localized
        assert math.nextafter(tr.t_lo, 1.0) == tr.t_hi
        # Newton hands over once a step no longer moves t, instead of
        # running to its 56-iteration cap (104 maps)
        assert tr.evaluations == 61

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
        def boom(cfg, out, args):
            raise InternalConsistencyError("forced")
        monkeypatch.setitem(cli._HANDLERS, "j", boom)
        cfg = _write_cfg(tmp_path / "c.json",
                         {"map": "golden_tent", "field": "bump"})
        assert cli.main(["j", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

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
        # a config every command could run; --tol is refused before it is
        # read and before the output directory exists
        family = {"base": "golden_tent", "terms": [{"field": "bump"}]}
        cfg = _write_cfg(tmp_path / "c.json", {
            "map": "golden_tent", "field": "bump", "v": "bump", "w": "odd",
            "family": family, "period": 3,
            "f0": "golden_tent", "f1": "golden_tent"})
        out = tmp_path / "o"
        assert cli.main([cmd, "--config", cfg, "--out", str(out),
                         f"--tol={tol}"]) == 1
        assert capsys.readouterr().err == (
            f"pexpand {cmd}: tolerance must be finite and > 0, "
            f"got {float(tol)!r}\n")
        assert not out.exists()

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

    def test_cor52_grid_below_two_exits_1(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.json", {
            "family": {"base": "golden_tent", "terms": [{"field": "bump"}]}})
        for n in ("0", "1"):
            assert cli.main(["cor52", "--config", cfg, "--grid", n,
                             "--out", str(tmp_path / "o")]) == 1
            assert "at least 2 points" in capsys.readouterr().err


_FAMILY = {"base": "golden_tent", "terms": [{"field": "bump"}]}
_ODD_FAMILY = {"base": "golden_tent", "terms": [{"field": "odd"}]}
_DEGREE_18 = [0.0] * 18 + [1.0]


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
], ids=["slope-nan", "slope-str", "left-str", "k-0", "field-boundary",
        "degree-18", "domain-reversed", "t-power-0", "terms-int",
        "relaxed-term", "theta0-nan", "period-str", "grid-str", "count-str",
        "alpha-n-str", "ladder-period-0"])
def test_malformed_config_exits_1(tmp_path, capsys, cmd, payload):
    cfg = _write_cfg(tmp_path / "c.json", payload)
    out = tmp_path / "o"
    assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pexpand {cmd}: ") and "Traceback" not in err
    assert not any(out.iterdir())  # refused before any output


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
    assert not any(out.iterdir())


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


def test_continue_refuses_lower_period_at_centre(tmp_path, capsys):
    # theta = 0 is the golden tent itself, whose critical point has period
    # 3, so a period-6 continuation has no centre to start from
    cfg = _write_cfg(tmp_path / "c.json",
                     {"family": _ODD_FAMILY, "w": "bump", "period": 6})
    assert cli.main(["continue", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
    assert "has prime period 3 < 6" in capsys.readouterr().err
    assert not (tmp_path / "o" / "continuation.csv").exists()
