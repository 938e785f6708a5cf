"""Command line front end.

    pexpand <command> --config cfg.json --out dir [--tol X] [--depth N] [--grid N]

Exit codes: 0 success, 1 precondition or input failure, 2 internal
consistency failure (a result that contradicts what the code itself
certified earlier).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import conjugacy as _conjugacy
from . import deform as _deform
from . import functional as _functional
from . import io as _io
from . import maps as _maps
from . import scan as _scan
from .errors import (InternalConsistencyError, KneadingDriftError,
                     PexpandError)

_COMMANDS = ("validate", "j", "alpha", "horiz", "deform", "continue",
             "conjugacy", "scan", "cor51", "cor52")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pexpand",
        description="piecewise expanding unimodal map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "validate": "check a map against the class requirements",
        "j": "evaluate the critical-orbit functional J(f, v)",
        "alpha": "solve the twisted cohomological equation on a grid",
        "horiz": "project a direction onto the kernel of J",
        "deform": "integrate the in-class deformation of a family",
        "continue": "continue a periodic critical point through a family",
        "conjugacy": "build and verify a conjugacy table",
        "scan": "sweep a family and localize class transitions",
        "cor51": "deformation tangent to a J-kernel direction",
        "cor52": "ladder of periodic families approaching an in-class one",
    }
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", required=True,
                         help="JSON file describing maps/fields/families")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--tol", type=float, default=None,
                         help="command-specific tolerance override "
                              "(finite and > 0)")
        cmd.add_argument("--depth", type=int, default=None,
                         help="kneading / table depth override")
        cmd.add_argument("--grid", type=int, default=None,
                         help="grid node count override")
    return parser


def _grid_from(cfg: dict, fam: _maps.MapFamily, override: int | None):
    node = cfg.get("grid")
    if isinstance(node, list):
        return [_io.number(t, float, "grid") for t in node]
    spec = node if isinstance(node, dict) else {}
    lo, hi = fam.domain
    lo = _io.number(spec.get("lo", lo), float, "grid lo")
    hi = _io.number(spec.get("hi", hi), float, "grid hi")
    n = override if override is not None else _io.number(
        spec.get("n", 101), int, "grid n")
    return np.linspace(lo, hi, _functional.grid_size(n))


def _cmd_validate(cfg, out, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    _io.emit_validation(_maps.validate(f), out)


def _cmd_j(cfg, out, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    v = _io.parse_field(_io._require(cfg, "field"))
    kwargs = {} if args.tol is None else {"tol": args.tol}
    j = _functional.j_functional(f, v, **kwargs)
    _io.write_json(Path(out) / "j.json", {
        "value": j.value,
        "mode": j.mode,
        "n_terms": j.n_terms,
        "tail_bound": j.tail_bound,
        "period": j.period,
        "candidates": [{"mode": m, "value": val} for m, val in j.candidates],
        "a_priori_bound": _functional.a_priori_bound(f, v),
    })


def _cmd_alpha(cfg, out, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    v = _io.parse_field(_io._require(cfg, "field"))
    sol = _functional.alpha(f, v)
    n = args.grid if args.grid is not None else _io.number(
        cfg.get("n", 201), int, "n")
    grid = _functional.uniform_grid(n)
    xs = grid[np.abs(grid) >= _maps.TOL_C]
    rows = zip(xs.tolist(), sol.value(xs).tolist())
    _io.write_csv(Path(out) / "alpha.csv", ("x", "alpha"), rows)
    rep = _functional.check_twisted_cohomology(f, v, sol, grid=grid)
    hz = _functional.horizontality(f, v)
    _io.write_json(Path(out) / "summary.json", {
        "max_residual": rep.max_residual,
        "argmax": rep.argmax,
        "n_points": rep.n_points,
        "sup_bound": sol.bound,
        "identity_gap": hz.identity_gap,
        "horizontal": hz.horizontal,
    })


def _cmd_horiz(cfg, out, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    v = _io.parse_field(_io._require(cfg, "v"))
    w = _io.parse_field(_io._require(cfg, "w"))
    kp = _functional.kernel_projection(f, v, w)
    _io.write_json(Path(out) / "projection.json", {
        "d": kp.d,
        "j_v": kp.j_v.value,
        "j_w": kp.j_w.value,
        "residual": kp.residual,
        "field": {"left": list(kp.field.left),
                  "right": list(kp.field.right)},
    })


def _cmd_deform(cfg, out, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    w = _io.parse_field(_io._require(cfg, "w"))
    kwargs = {} if args.tol is None else {"ode_tol": args.tol}
    trace = _deform.integrate_deformation(fam, w, **kwargs)
    _io.emit_trace(trace, out)


def _cmd_continue(cfg, out, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    w = _io.parse_field(_io._require(cfg, "w"))
    p = _io.number(_io._require(cfg, "period"), int, "period")
    theta0 = _io.number(cfg.get("theta0", 0.0), float, "theta0")
    cont = _deform.continue_periodic(fam, w, p, theta0)
    _io.emit_continuation(cont, out)


def _cmd_conjugacy(cfg, out, args):
    f0 = _io.parse_map(_io._require(cfg, "f0"))
    f1 = _io.parse_map(_io._require(cfg, "f1"))
    depth = args.depth if args.depth is not None else _io.number(
        cfg.get("depth", _conjugacy.DEPTH_DEFAULT), int, "depth")
    table = _conjugacy.ConjugacyTable.build(
        f0, f1, _io.number(cfg.get("count", 200), int, "count"),
        _io.number(cfg.get("max_period", 8), int, "max_period"), depth)
    tol = args.tol if args.tol is not None else 1e-8
    report = _conjugacy.verify_conjugacy(f0, f1, table, tol=tol)
    _io.emit_table(f0, f1, table, report, out)


def _cmd_scan(cfg, out, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    grid = _grid_from(cfg, fam, args.grid)
    kwargs = {}
    if args.depth is not None:
        kwargs["kneading_depth"] = args.depth
    if args.tol is not None:
        kwargs["period_tol"] = args.tol
    result = _scan.run_scan(fam, grid, **kwargs)
    _io.emit_scan(result, out)


def _cmd_cor51(cfg, out, args):
    f = _io.parse_map(_io._require(cfg, "map"))
    v = _io.parse_field(_io._require(cfg, "v"))
    w = _io.parse_field(cfg["w"]) if "w" in cfg else None
    kwargs = {} if args.tol is None else {"tangent_tol": args.tol}
    trace = _scan.tangent_deformation(f, v, w, **kwargs)
    _io.emit_trace(trace, out)


def _cmd_cor52(cfg, out, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    w = _io.parse_field(cfg["w"]) if "w" in cfg else None
    kwargs = {}
    if "periods" in cfg:
        with _io.reading("periods"):
            kwargs["periods"] = tuple(_io.number(p, int, "periods")
                                      for p in cfg["periods"])
    if args.grid is not None:
        kwargs["grid_n"] = args.grid
    ladder = _scan.continuation_ladder(fam, w, **kwargs)
    _io.emit_ladder(ladder, out)


_HANDLERS = {
    "validate": _cmd_validate,
    "j": _cmd_j,
    "alpha": _cmd_alpha,
    "horiz": _cmd_horiz,
    "deform": _cmd_deform,
    "continue": _cmd_continue,
    "conjugacy": _cmd_conjugacy,
    "scan": _cmd_scan,
    "cor51": _cmd_cor51,
    "cor52": _cmd_cor52,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.tol is not None:  # one contract for every command's --tol
            _functional._check_tol(args.tol)
        cfg = _io.load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _HANDLERS[args.command](cfg, out, args)
    except (InternalConsistencyError, KneadingDriftError) as exc:
        print(f"pexpand {args.command}: consistency failure: {exc}",
              file=sys.stderr)
        return 2
    except PexpandError as exc:
        print(f"pexpand {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
