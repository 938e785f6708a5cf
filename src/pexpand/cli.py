"""Command line front end: ``pexpand <command> --config cfg.json --out dir``
and the flags that command reads.  ``_COMMANDS`` gives each command's
handler, help and flags; the parser is built from it once, at import.
Exit 0 on success, 1 on a usage, path, precondition or input failure, 2 on
an internal consistency failure (a result contradicting what the code itself
certified earlier)."""

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
                     PexpandError, PreconditionError)


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


def _given(cfg: dict, key: str, flag: int | None = None) -> dict:
    """{key: the flag's value, else the config's integer}, or {} when
    neither gives one, which leaves the library's default in force."""
    if flag is not None:
        return {key: flag}
    return {key: _io.number(cfg[key], int, key)} if key in cfg else {}


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
    rep = _functional.check_twisted_cohomology(
        f, v, sol, **_given(cfg, "n", args.grid))
    rows = zip(rep.points.tolist(), rep.alpha.tolist())
    _io.write_csv(Path(out) / "alpha.csv", ("x", "alpha"), rows)
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
    kwargs = _given(cfg, "depth", args.depth)
    if "count" in cfg:
        kwargs["min_count"] = _io.number(cfg["count"], int, "count")
    table = _conjugacy.ConjugacyTable.build(
        f0, f1, **kwargs, **_given(cfg, "max_period"))
    tol = {} if args.tol is None else {"tol": args.tol}
    report = _conjugacy.verify_conjugacy(f0, f1, table, **tol)
    _io.emit_table(f0, f1, table, report, out)


def _cmd_scan(cfg, out, args):
    fam = _io.parse_family(_io._require(cfg, "family"))
    grid = _grid_from(cfg, fam, args.grid)
    kwargs = {} if args.depth is None else {"kneading_depth": args.depth}
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
    ladder = _scan.continuation_ladder(fam, w, **kwargs)
    _io.emit_ladder(ladder, out)


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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command][0](cfg, out, args)
    except (InternalConsistencyError, KneadingDriftError) as exc:
        print(f"{where}consistency failure: {exc}", file=sys.stderr)
        return 2
    except (PexpandError, OSError) as exc:  # OSError: --out unusable
        print(f"{where}{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
