"""Config ingestion and deterministic flat-file writing.

Output files are byte-stable for identical inputs: floats are written as
their shortest round-trip decimal (repr), JSON keys are sorted, and
nothing time- or host-dependent is ever included.
"""

import json
import math
from contextlib import contextmanager
from pathlib import Path

from .errors import PreconditionError
from .maps import (BUILTIN_FIELDS, BUILTIN_MAPS, DirectionField, FamilyTerm,
                   MapFamily, PiecewiseMap, symmetric_tent)

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
# writing


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


def write_files(out_dir, files: dict) -> None:
    """Make ``out_dir`` and write each {name: body} in it: a dict as JSON,
    a (header, rows) pair as CSV."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, body in files.items():
        if isinstance(body, dict):
            write_json(out_dir / name, body)
        else:
            write_csv(out_dir / name, *body)
