"""Command line front end: ``pexpand <command> --config cfg.json --out dir``
and the flags that command reads.  ``_COMMANDS`` gives each command's
handler, help and flags; the parser is built from it once, at import.
A handler returns the files its command emits, and ``main`` writes them
only once they exist, so a command that fails leaves no ``--out``.
Exit 0 on success, 1 on a usage, path, precondition or input failure, 2 on
an internal consistency failure (a result contradicting what the code itself
certified earlier)."""

import argparse
import sys

import numpy as np

from . import conjugacy as _conjugacy
from . import deform as _deform
from . import functional as _functional
from . import io as _io
from . import maps as _maps
from . import scan as _scan
from .errors import (InternalConsistencyError, KneadingDriftError,
                     PexpandError, PreconditionError)


def _grid_from(cfg: dict, fam: _maps.MapFamily, override: int | None):
    node = cfg.get("grid")
    if isinstance(node, list):
        return [_io.number(t, float, "grid") for t in node]
    spec = node if isinstance(node, dict) else {}
    d_lo, d_hi = fam.domain
    lo = _io.number(spec.get("lo", d_lo), float, "grid lo")
    hi = _io.number(spec.get("hi", d_hi), float, "grid hi")
    n = override if override is not None else _io.number(
        spec.get("n", 101), int, "grid n")
    for t in (lo, hi):  # before linspace, whose step could overflow
        _scan._require_in_domain(t, d_lo, d_hi)
    return np.linspace(lo, hi, _functional.grid_size(n))


def _given(flags: dict, cfg: dict | None = None) -> dict:
    """{keyword: value} for each keyword of ``flags`` ({keyword: flag
    value}) whose flag is given, else, with ``cfg``, whose key the config
    holds as an integer.  A keyword neither gives is left out, which
    leaves the library's default in force."""
    out = {}
    for key, flag in flags.items():
        if flag is not None:
            out[key] = flag
        elif cfg is not None and key in cfg:
            out[key] = _io.number(cfg[key], int, key)
    return out


# Each handler returns {file name: body}: a dict is written as JSON, a
# (header, rows) pair as CSV.


def _cmd_validate(cfg, args):
    rep = _maps.validate(_io.parse_map(_io._require(cfg, "map")))
    return {"validation.json": {
        "valid": rep.passed,
        "lambda": rep.lambda_f,
        "critical_value": rep.critical_value,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                    "witness": c.witness} for c in rep.checks],
    }}


def _cmd_j(cfg, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    v = _io.parse_field(_io._require(cfg, "field"))
    j = _functional.j_functional(f, v, **_given({"tol": args.tol}))
    return {"j.json": {
        "value": j.value,
        "mode": j.mode,
        "n_terms": j.n_terms,
        "tail_bound": j.tail_bound,
        "period": j.period,
        "candidates": [{"mode": m, "value": val} for m, val in j.candidates],
        "a_priori_bound": _functional.a_priori_bound(f, v),
    }}


def _cmd_alpha(cfg, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    v = _io.parse_field(_io._require(cfg, "field"))
    sol = _functional.alpha(f, v)
    rep = _functional.check_twisted_cohomology(
        f, v, sol, **_given({"n": args.grid}, cfg))
    hz = _functional.horizontality(f, v, rep)
    return {
        "alpha.csv": (("x", "alpha"),
                      zip(rep.points.tolist(), rep.alpha.tolist())),
        "summary.json": {
            "max_residual": rep.max_residual,
            "argmax": rep.argmax,
            "n_points": rep.n_points,
            "sup_bound": sol.bound,
            "identity_gap": hz.identity_gap,
            "horizontal": hz.horizontal,
        }}


def _cmd_horiz(cfg, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    v = _io.parse_field(_io._require(cfg, "v"))
    w = _io.parse_field(_io._require(cfg, "w"))
    kp = _functional.kernel_projection(f, v, w)
    return {"projection.json": {
        "d": kp.d,
        "j_v": kp.j_v.value,
        "j_w": kp.j_w.value,
        "residual": kp.residual,
        "field": {"left": list(kp.field.left),
                  "right": list(kp.field.right)},
    }}


def _truncated(pairs) -> list:
    return [{"side": side, "reason": reason} for side, reason in pairs]


def _trace_files(trace: _deform.DeformationTrace) -> dict:
    nodes = trace.nodes
    return {
        "trace.csv": (("t", "b", "d", "J_residual", "relation_residual"),
                      ((n.t, n.b, n.d, n.j_residual, n.relation_residual)
                       for n in nodes)),
        "summary.json": {
            "nodes": len(nodes),
            "slope0": trace.slope0,
            "relation_period": trace.relation_period,
            "canonical_relations": [list(r)
                                    for r in trace.canonical_relations],
            "ode_tol": trace.ode_tol,
            "max_j_residual": max((n.j_residual for n in nodes),
                                  default=0.0),
            "max_relation_residual": max(
                (n.relation_residual for n in nodes
                 if n.relation_residual is not None), default=None),
            "clamped_nodes": sum(n.clamped for n in nodes),
            "boundary_nodes": sum(n.at_boundary for n in nodes),
            "truncated": _truncated(trace.truncated),
        }}


def _cmd_deform(cfg, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    w = _io.parse_field(_io._require(cfg, "w"))
    return _trace_files(_deform.integrate_deformation(
        fam, w, **_given({"ode_tol": args.tol})))


def _cmd_continue(cfg, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    w = _io.parse_field(_io._require(cfg, "w"))
    p = _io.number(_io._require(cfg, "period"), int, "period")
    theta0 = _io.number(cfg.get("theta0", 0.0), float, "theta0")
    cont = _deform.continue_periodic(fam, w, p, theta0)
    return {
        "continuation.csv": (
            ("t", "theta", "slope", "residual", "newton_iterations"),
            ((n.t, n.theta, n.slope, n.residual, n.newton_iterations)
             for n in cont.nodes)),
        "summary.json": {
            "period": cont.p,
            "theta0": cont.theta0,
            "nodes": len(cont.nodes),
            "max_residual": max((n.residual for n in cont.nodes),
                                default=0.0),
            "max_fd_slope_gap": max(cont.fd_slope_gaps(), default=0.0),
            "truncated": _truncated(cont.truncated),
        }}


def _cmd_conjugacy(cfg, args):
    f0 = _io.parse_map(_io._require(cfg, "f0"))
    f1 = _io.parse_map(_io._require(cfg, "f1"))
    kwargs = _given({"depth": args.depth, "max_period": None}, cfg)
    if "count" in cfg:
        kwargs["min_count"] = _io.number(cfg["count"], int, "count")
    table = _conjugacy.ConjugacyTable.build(f0, f1, **kwargs)
    report = _conjugacy.verify_conjugacy(f0, f1, table,
                                         **_given({"tol": args.tol}))
    return {
        "table.csv": (("x", "h", "depth", "bound", "residual"),
                      ((e.x, e.y, table.depth, e.bound, res) for e, res
                       in zip(table.entries, report.residuals))),
        "report.json": {
            "passed": report.passed,
            "max_residual": report.max_residual,
            "argmax": report.argmax,
            "monotonic": report.monotonic,
            "coverage": report.coverage,
            "unmatched": report.unmatched,
            "vacuous": report.vacuous,
            "depth": table.depth,
        }}


def _cmd_scan(cfg, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    grid = _grid_from(cfg, fam, args.grid)
    result = _scan.run_scan(fam, grid,
                            **_given({"kneading_depth": args.depth}))
    return {
        "records.csv": (
            ("t", "kneading", "relations", "J", "J_tail", "class", "flags"),
            ((r.t, r.kneading, ";".join(f"{i}-{j}" for i, j in r.relations),
              "|".join(map(repr, r.j_candidates)) if r.j_value is None
              else repr(r.j_value), r.j_tail, r.classification,
              ";".join(r.flags)) for r in result.records)),
        "summary.json": {
            "nodes": len(result.records),
            "transitions": [{
                "t_lo": tr.t_lo, "t_hi": tr.t_hi, "t_star": tr.t_star,
                "width": tr.width, "kinds": list(tr.kinds),
                "localized": tr.localized, "method": tr.method,
                "evaluations": tr.evaluations}
                for tr in result.transitions],
            "max_abs_j": result.max_abs_j,
            "threshold": result.threshold,
            "consistent": result.consistent,
            "in_class": result.in_class,
        }}


def _cmd_cor51(cfg, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    v = _io.parse_field(_io._require(cfg, "v"))
    w = _io.parse_field(cfg["w"]) if "w" in cfg else None
    return _trace_files(_scan.tangent_deformation(
        f, v, w, **_given({"tangent_tol": args.tol})))


def _cmd_cor52(cfg, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    w = _io.parse_field(cfg["w"]) if "w" in cfg else None
    kwargs = {}
    if "periods" in cfg:
        with _io.reading("periods"):
            kwargs["periods"] = tuple(_io.number(p, int, "periods")
                                      for p in cfg["periods"])
    ladder = _scan.continuation_ladder(fam, w, **kwargs)
    return {
        "ladder.csv": (("period", "theta0", "distance", "nodes"),
                       ((r.period, r.theta0, r.distance,
                         len(r.continuation.nodes)) for r in ladder.rungs)),
        "summary.json": {
            "rungs": len(ladder.rungs),
            "decreasing": ladder.decreasing,
            "partial": ladder.partial,
            "base_period": ladder.base_period,
            "distances": [r.distance for r in ladder.rungs],
        }}


_COMMANDS = {  # name: (handler, help, the flags the handler reads)
    "validate": (_cmd_validate, "check a map against the class requirements",
                 ()),
    "j": (_cmd_j, "evaluate the critical-orbit functional J(f, v)",
          ("--tol",)),
    "alpha": (_cmd_alpha, "solve the twisted cohomological equation on a "
              "grid", ("--grid",)),
    "horiz": (_cmd_horiz, "project a direction onto the kernel of J", ()),
    "deform": (_cmd_deform, "integrate the in-class deformation of a family",
               ("--tol",)),
    "continue": (_cmd_continue, "continue a periodic critical point through "
                 "a family", ()),
    "conjugacy": (_cmd_conjugacy, "build and verify a conjugacy table",
                  ("--tol", "--depth")),
    "scan": (_cmd_scan, "sweep a family and localize class transitions",
             ("--depth", "--grid")),
    "cor51": (_cmd_cor51, "deformation tangent to a J-kernel direction",
              ("--tol",)),
    "cor52": (_cmd_cor52, "ladder of periodic families approaching an "
              "in-class one", ()),
}
_FLAGS = {"--tol": (float, "tolerance override (finite and > 0)"),
          "--depth": (int, "kneading / table depth override"),
          "--grid": (int, "grid node count override")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, like any bad input
        raise PreconditionError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pexpand",
                     description="piecewise expanding unimodal map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True,
                         help="JSON file describing maps/fields/families")
        cmd.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            cmd.add_argument(flag, type=_FLAGS[flag][0], help=_FLAGS[flag][1])
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    where = ""  # a usage error from _Parser names the command itself
    try:
        args = _PARSER.parse_args(argv)
        where = f"pexpand {args.command}: "
        if getattr(args, "tol", None) is not None:
            _functional._check_tol(args.tol)
        cfg = _io.load_config(args.config)
        _io.write_files(args.out, _COMMANDS[args.command][0](cfg, args))
    except (InternalConsistencyError, KneadingDriftError) as exc:
        print(f"{where}consistency failure: {exc}", file=sys.stderr)
        return 2
    except (PexpandError, OSError) as exc:  # OSError: --out unusable
        print(f"{where}{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
