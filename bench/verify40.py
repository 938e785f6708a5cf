"""40-digit checks of every file the benchmark's jobs emit.

Each checker reads only a job's config and its emitted files, and
recomputes with mpmath from the branch coefficients; nothing here calls or
imports pexpand.  The checks follow the program's documented conventions
(critical band |x| < 1e-10, alpha(c) = 0, relation tolerance 1e-9) and take
their tolerances from the method's own certificates.  A checker returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

TOL_C = 1e-10          # critical band half-width
PERIOD_TOL = 1e-9      # periodicity / relation tolerance
GRID_POINTS = 1024     # expansion-certification grid per branch
KNEADING_DEPTH = 30
RELATION_DEPTH = 8

_FIELDS = {
    "bump": ((1.0, 0.0, -1.0),) * 2,
    "odd": ((0.0, 1.0, 0.0, -1.0),) * 2,
    "square_bump": ((0.0, 0.0, 1.0, 0.0, -1.0),) * 2,
    "tent_profile": ((1.0, 1.0), (1.0, -1.0)),
}
_SLOPES = {"full_tent": 2.0, "golden_tent": (1.0 + math.sqrt(5.0)) / 2.0}


# ---------------------------------------------------------------------------
# maps at 40 digits


class Poly2:
    """Two-branch polynomial (left on [-1, 0), right on [0, 1]) in mpf."""

    def __init__(self, left, right):
        self.left = [mp.mpf(c) for c in left]
        self.right = [mp.mpf(c) for c in right]

    def plus(self, other: "Poly2", s) -> "Poly2":
        s = mp.mpf(s)
        out = Poly2((), ())
        out.left = _padd(self.left, other.left, s)
        out.right = _padd(self.right, other.right, s)
        return out

    def branch(self, x):
        return self.left if x < 0 else self.right

    def __call__(self, x):
        return horner(self.branch(x), x)

    def deriv(self, x):
        return horner(derivative(self.branch(x)), x)


def _padd(a, b, s):
    n = max(len(a), len(b))
    a = list(a) + [mp.mpf(0)] * (n - len(a))
    b = list(b) + [mp.mpf(0)] * (n - len(b))
    return [x + s * y for x, y in zip(a, b)]


def horner(co, x):
    y = mp.mpf(0)
    for c in reversed(co):
        y = y * x + c
    return y


def derivative(co):
    return [i * c for i, c in enumerate(co)][1:] or [mp.mpf(0)]


def parse_map(node) -> Poly2:
    if isinstance(node, str):
        node = {"slope": _SLOPES[node]}
    if "slope" in node:
        s = float(node["slope"])
        return Poly2((s - 1.0, s), (s - 1.0, -s))
    return Poly2(node["left"], node["right"])


def parse_field(node) -> Poly2:
    if isinstance(node, str):
        return Poly2(*_FIELDS[node])
    return Poly2(node["left"], node.get("right", node["left"]))


def family_at(fam: dict, t) -> Poly2:
    g = parse_map(fam["base"])
    for term in fam.get("terms", ()):
        s = sum(mp.mpf(t) ** p for p in term.get("t_powers", (1,)))
        g = g.plus(parse_field(term["field"]), s)
    return g


# ---------------------------------------------------------------------------
# the quantities


def orbit(f: Poly2, x, n: int) -> list:
    """x_0 = x, ..., x_n under f, raw (no snapping)."""
    out = [mp.mpf(x)]
    for _ in range(n):
        out.append(f(out[-1]))
    return out


def period(f: Poly2, p_max: int = 64):
    """Smallest q <= p_max with |f^q(c)| < PERIOD_TOL, else None."""
    x = mp.mpf(0)
    for q in range(1, p_max + 1):
        x = f(x)
        if abs(x) < PERIOD_TOL:
            return q
    return None


def _extremum_candidates(co, lo, hi) -> list:
    """Endpoints of [lo, hi] and the real roots of the derivative inside."""
    cand = [mp.mpf(lo), mp.mpf(hi)]
    d1 = derivative(co)
    while len(d1) > 1 and d1[-1] == 0:
        d1 = d1[:-1]
    if len(d1) > 1:
        for r in mp.polyroots(list(reversed(d1)), maxsteps=200,
                              extraprec=60):
            if abs(mp.im(r)) < mp.mpf("1e-30") and lo < mp.re(r) < hi:
                cand.append(mp.re(r))
    return cand


def min_abs_deriv(f: Poly2):
    """Exact min |Df| over both branches: endpoints and roots of D2f."""
    best = None
    for co, lo, hi in ((f.left, -1, 0), (f.right, 0, 1)):
        d1 = derivative(co)
        vals = [horner(d1, x) for x in _extremum_candidates(d1, lo, hi)]
        if min(vals) <= 0 <= max(vals):
            return mp.mpf(0)
        m = min(abs(v) for v in vals)
        best = m if best is None else min(best, m)
    return best


def sup_abs(v: Poly2):
    """Exact sup |v| over both branches: endpoints and roots of Dv."""
    return max(abs(horner(co, x))
               for co, lo, hi in ((v.left, -1, 0), (v.right, 0, 1))
               for x in _extremum_candidates(co, lo, hi))


def j40(f: Poly2, v: Poly2, min_terms: int = 200):
    """J(f, v) over the critical orbit: the p-term sum when c returns within
    PERIOD_TOL at step p, else the series to a 1e-30 remainder."""
    p = period(f)
    n = p if p is not None else 10 ** 6
    total, x, prod = mp.mpf(0), mp.mpf(0), mp.mpf(1)
    for i in range(n):
        total += v(x) / prod
        x = f(x)
        prod *= f.deriv(x)
        if p is None and i >= min_terms and abs(1 / prod) < mp.mpf("1e-30"):
            break
    return total


def alpha40(f: Poly2, v: Poly2, x, stop=mp.mpf("1e-16")):
    """alpha(x) = -sum_i v(f^i x) / Df^{i+1}(x), finite once the orbit
    enters the critical band; alpha(c) = 0."""
    x = mp.mpf(x)
    if abs(x) < TOL_C:
        return mp.mpf(0)
    total, prod = mp.mpf(0), mp.mpf(1)
    for _ in range(100000):
        prod *= f.deriv(x)
        total += v(x) / prod
        x = f(x)
        if abs(x) < TOL_C or abs(1 / prod) < stop:
            break
    return -total


def signature(f: Poly2, depth: int = KNEADING_DEPTH):
    """Depth-30 kneading (band convention: C inside |x| < 1e-10, then the
    orbit restarts from c) and the depth-8 critical relation set."""
    sym, x = [], mp.mpf(0)
    for _ in range(depth):
        if abs(x) < TOL_C:
            sym.append("C")
            x = mp.mpf(0)
        else:
            sym.append("L" if x < 0 else "R")
        x = f(x)
    xs = orbit(f, 0, RELATION_DEPTH)
    rel = tuple((i, j) for i in range(RELATION_DEPTH)
                for j in range(i + 1, RELATION_DEPTH + 1)
                if abs(xs[i] - xs[j]) < PERIOD_TOL)
    return "".join(sym), rel


def itinerary(f: Poly2, x, err, growth, n: int) -> str:
    """L/R symbols of x while the orbit stays farther from c than the
    propagated uncertainty err * growth**k."""
    out, x, err = [], mp.mpf(x), mp.mpf(err)
    for _ in range(n):
        if abs(x) <= err:
            break
        out.append("L" if x < 0 else "R")
        x, err = f(x), err * growth
    return "".join(out)


def max_abs_deriv(f: Poly2):
    """Upper bound for |Df| on I: sum of |k c_k| per branch."""
    return max(sum(abs(k * c) for k, c in enumerate(co))
               for co in (f.left, f.right))


# ---------------------------------------------------------------------------
# files


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(cell: str) -> list[float]:
    return [float(c) for c in cell.split("|") if c]


# ---------------------------------------------------------------------------
# one checker per command


def check_validate(cfg, out, ctx):
    rep = _json(out / "validation.json")
    f = parse_map(cfg["map"])
    if rep["valid"] is not True:
        return ["a generated valid map was reported invalid"]
    lam_true = min_abs_deriv(f)
    lip = max(sum(abs(c) * j * (j - 1) for j, c in enumerate(co))
              for co in (f.left, f.right))
    pad = lip / (GRID_POINTS - 1) / 2
    lam = mp.mpf(rep["lambda"])
    probs = []
    if lam > lam_true:
        probs.append(f"lambda_f {rep['lambda']!r} exceeds min|Df| "
                     f"{mp.nstr(lam_true, 17)}")
    if lam < lam_true - pad - mp.mpf("1e-12"):
        probs.append(f"lambda_f {rep['lambda']!r} below min|Df| - pad")
    if mp.mpf(rep["critical_value"]) != f.left[0]:
        probs.append("critical value differs from f(c)")
    return probs


def check_j(cfg, out, ctx):
    rep = _json(out / "j.json")
    f, v = parse_map(cfg["map"]), parse_field(cfg["field"])
    ref = j40(f, v)
    err = abs(mp.mpf(rep["value"]) - ref)
    probs = []
    if err > rep["tail_bound"] + 1e-10:
        probs.append(f"|J - J40| = {mp.nstr(err, 3)} > tail_bound + 1e-10")
    if abs(rep["value"]) > rep["a_priori_bound"]:
        probs.append("|J| exceeds its a-priori bound")
    p = period(f)
    if (rep["mode"] == "periodic") != (p is not None) or (
            p is not None and rep["period"] != p):
        probs.append(f"mode {rep['mode']}/{rep['period']} but period {p}")
    return probs


def check_horiz(cfg, out, ctx):
    rep = _json(out / "projection.json")
    res = abs(j40(parse_map(cfg["map"]), parse_field(rep["field"])))
    return [] if res <= 1e-9 else [f"|J40(f, v + d w)| = {mp.nstr(res, 3)}"]


def check_alpha(cfg, out, ctx):
    rows = _rows(out / "alpha.csv")
    f, v = parse_map(cfg["map"]), parse_field(cfg["field"])
    probs = []
    bound = sup_abs(v) / (min_abs_deriv(f) - 1) + mp.mpf("1e-12")
    for r in rows:
        if abs(mp.mpf(r["alpha"])) > bound:
            probs.append(f"|alpha({r['x']})| above sup|v|/(lambda-1)")
            break
    for r in ctx.rng.sample(rows, min(5, len(rows))):
        err = abs(alpha40(f, v, float(r["x"])) - mp.mpf(r["alpha"]))
        if err > 1e-9:
            probs.append(f"alpha({r['x']}) off by {mp.nstr(err, 3)}")
    return probs


def _trace_maps(cfg, cmd):
    """(family at t, w) for deform (family config) and cor51 (f + t v)."""
    w = parse_field(cfg["w"])
    if cmd == "deform":
        return (lambda t: family_at(cfg["family"], t)), w
    f, v = parse_map(cfg["map"]), parse_field(cfg["v"])
    return (lambda t: f.plus(v, t)), w


def check_deform(cfg, out, ctx, cmd="deform"):
    rows = _rows(out / "trace.csv")
    summ = _json(out / "summary.json")
    fam, w = _trace_maps(cfg, cmd)
    probs = []
    if summ["nodes"] != len(rows):
        probs.append("summary node count differs from trace rows")
    p = period(fam(0))
    base = signature(fam(0), 12)[0] if p is None else None
    for r in rows:
        g = fam(float(r["t"])).plus(w, float(r["b"]))
        if p is not None:
            res = abs(orbit(g, 0, p)[-1])
            if res > 1e-8:
                probs.append(f"|f~^{p}(c)| = {mp.nstr(res, 3)} at t={r['t']}")
        elif signature(g, 12)[0] != base:
            probs.append(f"kneading changed at t={r['t']}")
    if cmd == "cor51" and abs(summ["slope0"]) >= 1e-8:
        probs.append(f"|b'(0)| = {summ['slope0']!r}")
    return probs


def check_cor51(cfg, out, ctx):
    return check_deform(cfg, out, ctx, "cor51")


def check_continue(cfg, out, ctx):
    rows = _rows(out / "continuation.csv")
    p, w = int(cfg["period"]), parse_field(cfg["w"])
    probs = []
    for r in rows:
        g = family_at(cfg["family"], float(r["t"])).plus(w, float(r["theta"]))
        res = abs(orbit(g, 0, p)[-1])
        if res > 1e-10:
            probs.append(f"|f^{p}(c)| = {mp.nstr(res, 3)} at t={r['t']}")
    trace_csv = ctx.workdir / ctx.job.meta["deform"] / "trace.csv"
    trace = {float(r["t"]): float(r["b"]) for r in _rows(trace_csv)}
    shared = [(float(r["theta"]), trace[float(r["t"])]) for r in rows
              if float(r["t"]) in trace]
    if not shared:
        probs.append("no t shared with the deformation trace")
    for theta, b in shared:
        if abs(theta - b) > 1e-7:
            probs.append(f"|theta - b| = {abs(theta - b):.3e}")
    return probs


def check_conjugacy(cfg, out, ctx):
    rows = _rows(out / "table.csv")
    rep = _json(out / "report.json")
    f0, f1 = parse_map(cfg["f0"]), parse_map(cfg["f1"])
    probs = []
    if not (rep["passed"] and rep["unmatched"] == 0):
        probs.append(f"report: passed={rep['passed']} "
                     f"unmatched={rep['unmatched']}")
    xs = [float(r["x"]) for r in rows]
    hs = [float(r["h"]) for r in rows]
    if not all(a < b for a, b in zip(xs, xs[1:])):
        probs.append("table rows are not sorted by x")
    if not all(a < b for a, b in zip(hs, hs[1:])):
        probs.append("h is not increasing in x")
    g0, g1 = max_abs_deriv(f0), max_abs_deriv(f1)
    for r in ctx.rng.sample(rows, min(8, len(rows))):
        # the certificate 2*lambda**-n, plus the inverse-branch solves'
        # own 1e-13 residuals that the floats x and h carry
        err = mp.mpf(r["bound"]) + mp.mpf("1e-12")
        a = itinerary(f0, float(r["x"]), err, g0, int(r["depth"]))
        b = itinerary(f1, float(r["h"]), err, g1, int(r["depth"]))
        m = min(len(a), len(b))
        if m < 5 or a[:m] != b[:m]:
            probs.append(f"itineraries of x={r['x']} and h={r['h']} "
                         f"differ: {a[:m]} / {b[:m]}")
    return probs


def check_cor52(cfg, out, ctx):
    summ = _json(out / "summary.json")
    rows = _rows(out / "ladder.csv")
    d = summ["distances"]
    probs = []
    if len(rows) < 2 or summ["rungs"] != len(rows):
        probs.append(f"{len(rows)} rungs")
    if not all(b < a for a, b in zip(d, d[1:])):
        probs.append(f"distances do not decrease: {d}")
    w = parse_field(cfg["w"])
    base = family_at(cfg["family"], 0)
    for r in rows:
        p = int(r["period"])
        res = abs(orbit(base.plus(w, float(r["theta0"])), 0, p)[-1])
        if res > 1e-9:
            probs.append(f"rung {p}: |g^p(c) - c| = {mp.nstr(res, 3)}")
    return probs


def check_scan(cfg, out, ctx):
    summ = _json(out / "summary.json")
    rows = _rows(out / "records.csv")
    trans = summ["transitions"]
    probs = []
    if len(rows) != summ["nodes"]:
        probs.append("summary node count differs from records")
    if ctx.job.meta["kind"] == "in-class":
        if trans:
            probs.append(f"{len(trans)} transitions in an in-class family")
        worst = max(abs(j) for r in rows for j in _floats(r["J"]))
        if worst > 1e-12:
            probs.append(f"max |J| = {worst:.3e} on an in-class family")
        return probs
    if summ["consistent"] is not True:
        probs.append("scan reports itself inconsistent")
    if any(r["class"] == "error" for r in rows):
        probs.append("error records")
    if not trans:
        probs.append("no transitions in a transversal family")
    if ctx.job.key.startswith("golden_bump"):
        rel = [t for t in trans if "relations" in t["kinds"]]
        if len(rel) != 1 or abs(rel[0]["t_star"]) > 1e-8 or (
                rel[0]["width"] > 1e-8):
            probs.append(f"manifold crossing: {rel}")
    fam = cfg["family"]
    for t in ctx.rng.sample(trans, min(20, len(trans))):
        if not t["localized"]:
            probs.append(f"unlocalized bracket {t['t_lo']!r}")
            continue
        if signature(family_at(fam, t["t_lo"])) == signature(
                family_at(fam, t["t_hi"])):
            probs.append(f"no kneading or relation change across "
                         f"[{t['t_lo']!r}, {t['t_hi']!r}]")
    return probs


CHECKERS = {
    "validate": check_validate, "j": check_j, "horiz": check_horiz,
    "alpha": check_alpha, "deform": check_deform, "cor51": check_cor51,
    "continue": check_continue, "conjugacy": check_conjugacy,
    "cor52": check_cor52, "scan": check_scan,
}


class Context:
    def __init__(self, job, workdir: Path):
        self.job = job
        self.workdir = workdir
        self.rng = random.Random(job.key)


def check_job(job, workdir: Path) -> list[str]:
    cfg = _json(workdir / f"{job.key}.json")
    try:
        return CHECKERS[job.cmd](cfg, workdir / job.key, Context(job, workdir))
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_workload(jobs, workdir: Path, failed: set) -> list[str]:
    """Problems found in the outputs of every job that did not fail."""
    out = []
    for job in jobs:
        if job.key not in failed:
            out += [f"{job.key}: {p}" for p in check_job(job, workdir)]
    return out
