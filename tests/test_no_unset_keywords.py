"""Every defaulted parameter of the library is set by some caller.

A default that no call in the repository overrides is a constant in
disguise: it belongs in a module constant, where the tolerance tests and
the README can see it.  This test walks the sources with ``ast`` and
fails on each defaulted parameter of a function, method or dataclass
constructor in ``src/pexpand`` that no call in ``src/``, ``scripts/``,
``bench/`` or ``tests/`` sets.

A call sets a parameter by keyword, by position (a ``*args`` splat sets
every position), or through ``**kwargs`` when the parameter's name is a
string key of a dict literal or a subscript assignment in the calling
file.  Calls are matched by name: ``obj.name(...)`` may call any library
callable called ``name``, and ``name(...)`` calls the file's own
``name`` when the file defines one, else any library callable of that
name.  ``st.builds(f, ...)`` counts as a call of ``f``.  Matching by name
can only over-count the callers, so a parameter reported here is unset.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "pexpand"
CALLERS = [p for d in ("src", "scripts", "bench", "tests")
           for p in sorted((ROOT / d).rglob("*.py"))]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_init(value) -> bool:
    """False for ``field(init=False, ...)``."""
    return not (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True)
                        is False for k in value.keywords))


def _targets(path: Path):
    """(callable name, {defaulted parameter: call position or None})."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {id(item) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for item in cls.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                names = [s.target.id for s in node.body
                         if isinstance(s, ast.AnnAssign)
                         and isinstance(s.target, ast.Name)
                         and _field_init(s.value)]
                defaulted = {s.target.id: names.index(s.target.id)
                             for s in node.body
                             if isinstance(s, ast.AnnAssign)
                             and s.value is not None
                             and s.target.id in names}
                out.append((node.name, defaulted))
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    # a class is called by its own name for __init__
                    name = node.name if item.name == "__init__" else item.name
                    out.append((name, _defaulted(item, 0 if static else 1)))
        elif isinstance(node, ast.FunctionDef) and id(node) not in methods:
            out.append((node.name, _defaulted(node, 0)))
    return [(name, d) for name, d in out if d]


def _defaulted(fn: ast.FunctionDef, skip: int) -> dict:
    a = fn.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    first = len(positional) - len(a.defaults)
    out = {name: i - skip for i, name in enumerate(positional)
           if i >= first}
    out.update({x.arg: None for x, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None})
    return out


def _calls(path: Path):
    """(name, own, positional count or inf, keywords, **-keys) per call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = {n.name for n in ast.walk(tree)
           if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    keys = {k.value for n in ast.walk(tree) if isinstance(n, ast.Dict)
            for k in n.keys if isinstance(k, ast.Constant)}
    keys |= {n.slice.value for n in ast.walk(tree)
             if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
             and isinstance(n.slice, ast.Constant)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if getattr(func, "attr", None) == "builds" and args:
            func, args = args[0], args[1:]
        if isinstance(func, ast.Name):
            name, plain = func.id, True
        elif isinstance(func, ast.Attribute):
            name, plain = func.attr, False
        else:
            continue
        n_pos = (float("inf") if any(isinstance(x, ast.Starred) for x in args)
                 else len(args))
        kw = {k.arg for k in node.keywords if k.arg is not None}
        splat = any(k.arg is None for k in node.keywords)
        yield name, plain and name in own, n_pos, kw, keys if splat else set()


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = [(path, *c) for path in CALLERS for c in _calls(path)]
    unset = []
    for module in sorted(LIBRARY.glob("*.py")):
        for name, defaulted in _targets(module):
            sites = [c for path, n, own, *c in calls
                     if n == name and (not own or path == module)]
            for param, pos in defaulted.items():
                if not any(param in kw or param in keys
                           or (pos is not None and n_pos > pos)
                           for n_pos, kw, keys in sites):
                    unset.append(f"{module.stem}.{name}({param})")
    assert not unset, f"defaulted parameters no caller sets: {unset}"
