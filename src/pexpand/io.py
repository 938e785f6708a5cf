"""Config ingestion and deterministic flat-file emission.

Output files are byte-stable for identical inputs: floats are written as
their shortest round-trip decimal (repr), JSON keys are sorted, and
nothing time- or host-dependent is ever included.
"""

import json
import math
from contextlib import contextmanager
from pathlib import Path

from .conjugacy import ConjugacyReport, ConjugacyTable
from .deform import DeformationTrace, PeriodicContinuation
from .errors import PreconditionError
from .maps import (BUILTIN_FIELDS, BUILTIN_MAPS, DirectionField, FamilyTerm,
                   MapFamily, PiecewiseMap, ValidationReport, symmetric_tent)
from .scan import ApproximationLadder, ScanResult

SCHEMA_VERSION = 1


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"config is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read the config: {exc}") from None
    if not isinstance(cfg, dict):
        raise PreconditionError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise PreconditionError(f"config is missing the {key!r} entry")
    return cfg[key]


@contextmanager
def reading(what: str):
    """Refuse a config entry that is missing or does not convert or
    construct (KeyError, ValueError, TypeError) as a PreconditionError."""
    try:
        yield
    except KeyError as exc:
        raise PreconditionError(f"{what} config needs {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(
            f"cannot read {what} from config: {exc}") from None


def number(value, kind, what: str):
    """A config scalar as a finite ``kind``; an int must be integral."""
    with reading(what):
        out = kind(value)
        if not math.isfinite(out):
            raise ValueError(f"{value!r} is not finite")
        if isinstance(value, float) and out != value:
            raise ValueError(f"{value!r} is not an integer")
    return out


def parse_map(node) -> PiecewiseMap:
    """A builtin name, or {"left": [...], "right": [...], "k": int}."""
    if isinstance(node, str):
        if node in BUILTIN_MAPS:
            return BUILTIN_MAPS[node]()
        raise PreconditionError(
            f"unknown builtin map {node!r}; have {sorted(BUILTIN_MAPS)}")
    if isinstance(node, dict):
        with reading("map"):
            k = number(node.get("k", 3), int, "map k")
            if "slope" in node:
                return symmetric_tent(float(node["slope"]), k)
            return PiecewiseMap(tuple(node["left"]), tuple(node["right"]), k)
    raise PreconditionError(f"cannot read a map from {node!r}")


def parse_field(node) -> DirectionField:
    if isinstance(node, str):
        if node in BUILTIN_FIELDS:
            return BUILTIN_FIELDS[node]()
        raise PreconditionError(
            f"unknown builtin field {node!r}; have {sorted(BUILTIN_FIELDS)}")
    if isinstance(node, dict):
        with reading("field"):
            return DirectionField(tuple(node["left"]),
                                  tuple(node.get("right", node["left"])),
                                  relaxed=bool(node.get("relaxed", False)))
    raise PreconditionError(f"cannot read a field from {node!r}")


def parse_family(node) -> MapFamily:
    if not isinstance(node, dict):
        raise PreconditionError(f"cannot read a family from {node!r}")
    base = parse_map(_require(node, "base"))
    with reading("family"):
        terms = []
        for raw in node.get("terms", ()):
            field = parse_field(_require(raw, "field"))
            powers = tuple(number(p, int, "t_powers")
                           for p in raw.get("t_powers", (1,)))
            terms.append(FamilyTerm(field, powers))
        domain = tuple(float(v) for v in node.get("domain", (-0.02, 0.02)))
        if len(domain) != 2:
            raise PreconditionError("family domain must be [lo, hi]")
        return MapFamily(base, tuple(terms), domain)


# ---------------------------------------------------------------------------
# emission


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    body = dict(payload)
    body["schema_version"] = SCHEMA_VERSION
    path.write_text(
        json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")
    return path


def _relations_cell(relations) -> str:
    return ";".join(f"{i}-{j}" for i, j in relations)


def _j_cell(value, candidates) -> str:
    if value is not None:
        return repr(value)
    return "|".join(repr(c) for c in candidates)


def emit_scan(result: ScanResult, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    rows = [(r.t, r.kneading, _relations_cell(r.relations),
             _j_cell(r.j_value, r.j_candidates), r.j_tail,
             r.classification, ";".join(r.flags)) for r in result.records]
    csv = write_csv(out_dir / "records.csv",
                    ("t", "kneading", "relations", "J", "J_tail", "class",
                     "flags"), rows)
    summary = write_json(out_dir / "summary.json", {
        "nodes": len(result.records),
        "transitions": [{
            "t_lo": tr.t_lo, "t_hi": tr.t_hi, "t_star": tr.t_star,
            "width": tr.width, "kinds": list(tr.kinds),
            "localized": tr.localized, "method": tr.method,
            "evaluations": tr.evaluations} for tr in result.transitions],
        "max_abs_j": result.max_abs_j,
        "threshold": result.threshold,
        "consistent": result.consistent,
        "in_class": result.in_class,
    })
    return csv, summary


def emit_trace(trace: DeformationTrace, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    rows = [(n.t, n.b, n.d, n.j_residual, n.relation_residual)
            for n in trace.nodes]
    csv = write_csv(out_dir / "trace.csv",
                    ("t", "b", "d", "J_residual", "relation_residual"), rows)
    summary = write_json(out_dir / "summary.json", {
        "nodes": len(trace.nodes),
        "slope0": trace.slope0,
        "relation_period": trace.relation_period,
        "canonical_relations": [list(r) for r in trace.canonical_relations],
        "ode_tol": trace.ode_tol,
        "max_j_residual": max((n.j_residual for n in trace.nodes),
                              default=0.0),
        "max_relation_residual": max(
            (n.relation_residual for n in trace.nodes
             if n.relation_residual is not None), default=None),
        "clamped_nodes": sum(n.clamped for n in trace.nodes),
        "boundary_nodes": sum(n.at_boundary for n in trace.nodes),
        "truncated": [{"side": side, "reason": reason}
                      for side, reason in trace.truncated],
    })
    return csv, summary


def emit_continuation(cont: PeriodicContinuation, out_dir
                      ) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    rows = [(n.t, n.theta, n.slope, n.residual, n.newton_iterations)
            for n in cont.nodes]
    csv = write_csv(out_dir / "continuation.csv",
                    ("t", "theta", "slope", "residual",
                     "newton_iterations"), rows)
    summary = write_json(out_dir / "summary.json", {
        "period": cont.p,
        "theta0": cont.theta0,
        "nodes": len(cont.nodes),
        "max_residual": max((n.residual for n in cont.nodes), default=0.0),
        "max_fd_slope_gap": max(cont.fd_slope_gaps(), default=0.0),
        "truncated": [{"side": side, "reason": reason}
                      for side, reason in cont.truncated],
    })
    return csv, summary


def emit_table(table: ConjugacyTable, report: ConjugacyReport,
               out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    rows = [(e.x, e.y, table.depth, e.bound, res)
            for e, res in zip(table.entries, report.residuals)]
    csv = write_csv(out_dir / "table.csv",
                    ("x", "h", "depth", "bound", "residual"), rows)
    summary = write_json(out_dir / "report.json", {
        "passed": report.passed,
        "max_residual": report.max_residual,
        "argmax": report.argmax,
        "monotonic": report.monotonic,
        "coverage": report.coverage,
        "unmatched": report.unmatched,
        "vacuous": report.vacuous,
        "depth": table.depth,
    })
    return csv, summary


def emit_ladder(ladder: ApproximationLadder, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    rows = [(r.period, r.theta0, r.distance, len(r.continuation.nodes))
            for r in ladder.rungs]
    csv = write_csv(out_dir / "ladder.csv",
                    ("period", "theta0", "distance", "nodes"), rows)
    summary = write_json(out_dir / "summary.json", {
        "rungs": len(ladder.rungs),
        "decreasing": ladder.decreasing,
        "partial": ladder.partial,
        "base_period": ladder.base_period,
        "distances": [r.distance for r in ladder.rungs],
    })
    return csv, summary


def emit_validation(report: ValidationReport, out_dir) -> Path:
    out_dir = Path(out_dir)
    return write_json(out_dir / "validation.json", {
        "valid": report.passed,
        "lambda": report.lambda_f,
        "critical_value": report.critical_value,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                    "witness": c.witness} for c in report.checks],
    })
