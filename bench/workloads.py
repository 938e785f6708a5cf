"""Seeded job lists for the three benchmark workloads.

Every input is generated here from the workload seed; nothing is read from
pexpand.  Job counts per command are fixed, so every run attempts the same
number of jobs whatever the seed: the seed moves parameters (slopes, field
weights, family windows), never the make-up of a workload.

Generated cubic maps and field combinations have dyadic coefficients
(multiples of 2**-10), so their branch sums at x = -1, 0, 1 are exact in
float arithmetic; tents are exact there because s - 1 is.  Every generated
map therefore fixes the boundary exactly.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

DYADIC = 1024.0
DOMAIN = (-0.02, 0.02)

# fields as ascending monomial coefficients (same on both branches)
BUMP = (1.0, 0.0, -1.0)
ODD = (0.0, 1.0, 0.0, -1.0)
SQUARE_BUMP = (0.0, 0.0, 1.0, 0.0, -1.0)
BUILTIN_FIELDS = {"bump": BUMP, "odd": ODD, "square_bump": SQUARE_BUMP}


@dataclass
class Job:
    """One CLI invocation.  ``cfg`` is a dict, or a function of the pass
    directory for jobs that read an earlier job's output (chained jobs);
    ``needs`` names those earlier jobs.  ``meta["expected_failure"]`` names
    the known pexpand fault that makes a job fail; any other failed job
    makes the run incorrect."""

    key: str
    cmd: str
    cfg: object
    args: tuple = ()
    meta: dict = field(default_factory=dict)
    needs: tuple = ()


# ---------------------------------------------------------------------------
# maps and fields


def dyadic(x: float) -> float:
    return round(x * DYADIC) / DYADIC


def tent(slope: float) -> dict:
    return {"slope": slope}


def tent_coeffs(slope: float):
    return (slope - 1.0, slope), (slope - 1.0, -slope)


def combo_field(a: float, b: float, c: float) -> dict:
    """a*bump + b*odd + c*square_bump, both branches."""
    co = [a, b, c - a, -b, -c]
    return {"left": co, "right": list(co)}


def random_combo(rng: random.Random) -> dict:
    while True:
        a, b, c = (dyadic(rng.uniform(-1.0, 1.0)) for _ in range(3))
        if max(abs(a), abs(b), abs(c)) >= 0.25:
            return combo_field(a, b, c)


def cubic_map(rng: random.Random, lam_lo: float, lam_hi: float,
              curve: float = 0.4) -> dict:
    """Random valid two-branch cubic with min |Df| in [lam_lo, lam_hi].

    Branches p(x) = cv + a1 x + a2 x^2 + a3 x^3 on [-1, 0] with p(-1) = -1
    and q(x) = cv + b1 x + b2 x^2 + b3 x^3 on [0, 1] with q(1) = -1.
    """
    while True:
        cv = dyadic(rng.uniform(0.3, 0.95))
        a2, a3, b2, b3 = (dyadic(rng.uniform(-curve, curve)) for _ in range(4))
        a1 = cv + 1.0 + a2 - a3
        b1 = -1.0 - cv - b2 - b3
        lam = min(_min_abs_quadratic(a1, 2 * a2, 3 * a3, -1.0, 0.0),
                  _min_abs_quadratic(b1, 2 * b2, 3 * b3, 0.0, 1.0))
        if lam_lo <= lam <= lam_hi and a1 > 0 and b1 < 0:
            return {"left": [cv, a1, a2, a3], "right": [cv, b1, b2, b3]}


def _min_abs_quadratic(c0, c1, c2, lo, hi) -> float:
    """min |c0 + c1 x + c2 x^2| over [lo, hi] when it has no root there."""
    cand = [lo, hi]
    if c2 != 0.0:
        xv = -c1 / (2.0 * c2)
        if lo < xv < hi:
            cand.append(xv)
    vals = [c0 + c1 * x + c2 * x * x for x in cand]
    if min(vals) <= 0.0 <= max(vals):
        return 0.0
    return min(abs(v) for v in vals)


def periodic_tent_slopes(p: int, lo: float = 1.42, hi: float = 1.999,
                         grid: int = 6000) -> list[float]:
    """Slopes s in (lo, hi) whose tent has a critical orbit of prime period p.

    Sign changes of s -> f_s^p(0) on a float grid, each refined by 200
    bisection steps at 50 significant digits.
    """
    def orbit(s, n, zero, one):
        x, out = zero, []
        for _ in range(n):
            x = s * (one - abs(x)) - one
            out.append(x)
        return out

    roots = []
    prev_s, prev_g = None, None
    for i in range(grid + 1):
        s = lo + (hi - lo) * i / grid
        g = orbit(s, p, 0.0, 1.0)[-1]
        if prev_g is not None and prev_g * g < 0.0:
            roots.append(_refine(prev_s, s, p, orbit))
        prev_s, prev_g = s, g
    out = []
    for s in roots:
        with localcontext() as ctx:
            ctx.prec = 50
            pts = orbit(Decimal(repr(s)), p, Decimal(0), Decimal(1))
        if all(abs(x) > Decimal("1e-6") for x in pts[:-1]):
            out.append(s)
    return out


def _refine(a: float, b: float, p: int, orbit) -> float:
    with localcontext() as ctx:
        ctx.prec = 50
        zero, one = Decimal(0), Decimal(1)
        lo, hi = Decimal(repr(a)), Decimal(repr(b))
        g_lo = orbit(lo, p, zero, one)[-1]
        for _ in range(200):
            mid = (lo + hi) / 2
            g_mid = orbit(mid, p, zero, one)[-1]
            if (g_mid < 0) == (g_lo < 0):
                lo, g_lo = mid, g_mid
            else:
                hi = mid
        return float((lo + hi) / 2)


_SLOPE_CACHE: dict[int, list[float]] = {}


def periodic_slopes(p: int) -> list[float]:
    if p not in _SLOPE_CACHE:
        _SLOPE_CACHE[p] = periodic_tent_slopes(p)
    return _SLOPE_CACHE[p]


def vanishing_field(points, scale: float) -> dict:
    """scale * (x^2 - 1) * prod (x - p): zero at +-1 and at every p."""
    co = [-1.0, 0.0, 1.0]
    for p in points:
        co = [(co[i - 1] if i > 0 else 0.0)
              - p * (co[i] if i < len(co) else 0.0)
              for i in range(len(co) + 1)]
    co = [scale * c for c in co]
    return {"left": co, "right": list(co)}


def tent_orbit(slope: float, n: int) -> list[float]:
    x, out = 0.0, []
    for _ in range(n):
        x = slope * (1.0 - abs(x)) - 1.0
        out.append(x)
    return out


def _poly(co, x):
    y = 0.0
    for c in reversed(co):
        y = y * x + c
    return y


def _field_co(node):
    return (node["left"], node["right"]) if isinstance(node, dict) else (
        BUILTIN_FIELDS[node],) * 2


def float_j(m: dict, field, n: int = 400) -> float:
    """Plain float J(f, v) (series, or the period sum when c returns within
    1e-9), used only to pick a transversal direction when generating."""
    left, right = (tent_coeffs(m["slope"]) if "slope" in m
                   else (m["left"], m["right"]))
    vl, vr = _field_co(field)
    x, prod, total = 0.0, 1.0, 0.0
    for _ in range(n):
        total += _poly(vl if x < 0 else vr, x) / prod
        x = _poly(left if x < 0 else right, x)
        if abs(x) < 1e-9:
            break
        co = left if x < 0 else right
        prod *= sum(k * c * x ** (k - 1) for k, c in enumerate(co) if k)
    return total


def transversal(m: dict, choices=("bump", "odd")) -> str:
    return max(choices, key=lambda w: abs(float_j(m, w)))


def padd(a, b, s: float = 1.0) -> list[float]:
    n = max(len(a), len(b))
    a = list(a) + [0.0] * (n - len(a))
    b = list(b) + [0.0] * (n - len(b))
    return [x + s * y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# chained inputs: configs read from an earlier job's output in the same pass


def _projection(pass_dir, key: str) -> dict:
    with open(pass_dir / key / "projection.json", encoding="utf-8") as fh:
        return json.load(fh)["field"]


def _family_from(base: dict, key: str):
    def make(pass_dir):
        return {"base": base, "terms": [{"field": _projection(pass_dir, key)}],
                "domain": list(DOMAIN)}
    return make


def exact_boundary(left, right, grid: float = 2.0 ** 40) -> dict:
    """The map with coefficients rounded to multiples of 1/grid and each
    linear term solved again so that f(-1) = f(1) = -1 holds exactly in
    floats.  pexpand refuses points a few ulp below -1 (fault F3), which
    f + t v + b w assembled in floats can reach at x = -1; the rounding
    moves the map by under 3e-12."""
    lo = [round(c * grid) / grid for c in left]
    hi = [round(c * grid) / grid for c in right]
    lo[1] = 1.0 + sum(c * (-1) ** k for k, c in enumerate(lo) if k != 1)
    hi[1] = -1.0 - sum(c for k, c in enumerate(hi) if k != 1)
    return {"left": lo, "right": hi}


def _endpoint_map(slope: float, horiz_key: str, deform_key: str, side: int):
    """f~(t) = f + t v + b w at the first (side 0) or last trace row."""
    def make(pass_dir):
        proj = _projection(pass_dir, horiz_key)
        with open(pass_dir / deform_key / "trace.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        row = rows[0] if side == 0 else rows[-1]
        t, b = float(row["t"]), float(row["b"])
        left, right = tent_coeffs(slope)
        return exact_boundary(padd(padd(left, proj["left"], t), BUMP, b),
                              padd(padd(right, proj["right"], t), BUMP, b))
    return make


# ---------------------------------------------------------------------------
# workloads


def _certify(rng: random.Random) -> list[Job]:
    maps = []
    n_tent = 6
    for i in range(n_tent):
        u = rng.uniform(-0.05, 0.05)
        lam = 1.15 + 0.85 * (i + 0.5 + u) / n_tent
        maps.append((f"tent{i}", tent(lam), True))
    for i, (lo, hi) in enumerate(((1.28, 1.32), (1.48, 1.52), (1.68, 1.72),
                                  (1.88, 1.92))):
        maps.append((f"cubic{i}", cubic_map(rng, lo, hi), i < 2))
    for p in range(3, 8):
        roots = periodic_slopes(p)
        slope = rng.choice(roots) if p > 4 else roots[0]
        maps.append((f"per{p}", tent(slope), p < 5))
    jobs = []
    for name, m, with_alpha in maps:
        v = random_combo(rng) if rng.random() < 0.75 else rng.choice(
            ("bump", "odd", "square_bump"))
        w = transversal(m)
        jobs.append(Job(f"{name}_validate", "validate", {"map": m}))
        jobs.append(Job(f"{name}_j", "j", {"map": m, "field": v}))
        jobs.append(Job(f"{name}_horiz", "horiz", {"map": m, "v": v, "w": w}))
        if with_alpha:
            jobs.append(Job(f"{name}_alpha", "alpha", {"map": m, "field": v}))
    return jobs


def _deform(rng: random.Random) -> list[Job]:
    jobs = []
    for p in range(3, 8):
        slope = rng.choice(periodic_slopes(p))
        base = tent(slope)
        v = random_combo(rng)
        hk = f"per{p}_horiz"
        jobs.append(Job(hk, "horiz", {"map": base, "v": v, "w": "bump"}))
        fam = _family_from(base, hk)
        jobs.append(Job(f"per{p}_deform", "deform",
                        lambda d, fam=fam: {"family": fam(d), "w": "bump"},
                        needs=(hk,)))
        jobs.append(Job(f"per{p}_continue", "continue",
                        lambda d, fam=fam, p=p: {"family": fam(d), "w": "bump",
                                                 "period": p},
                        meta={"deform": f"per{p}_deform"}, needs=(hk,)))
        jobs.append(Job(f"per{p}_cor51", "cor51",
                        lambda d, base=base, hk=hk: {
                            "map": base, "v": _projection(d, hk),
                            "w": "bump"}, needs=(hk,)))
    for p in (3, 4):
        side = rng.randrange(2)
        slope = periodic_slopes(p)[0]
        f1 = _endpoint_map(slope, f"per{p}_horiz", f"per{p}_deform", side)
        # Depth 60, as in the CLI's documented example: at the default
        # depth 40 the realization bound 2*lambda**-40 of the golden tent
        # already exceeds the default 1e-8 verification tolerance.
        jobs.append(Job(f"per{p}_conjugacy", "conjugacy",
                        lambda d, f1=f1, slope=slope: {
                            "f0": tent(slope), "f1": f1(d), "count": 200},
                        ("--depth", "60"),
                        needs=(f"per{p}_horiz", f"per{p}_deform")))
    # Unscaled fields: with a scaled odd field the ladder's maps land a few
    # ulp below -1 at x = -1 and the next evaluation is refused.
    for name in ("odd", "square_bump"):
        fam = {"base": "full_tent", "terms": [{"field": name}],
               "domain": list(DOMAIN)}
        jobs.append(Job(f"full_{name}_cor52", "cor52",
                        {"family": fam, "w": "bump"}))
    # Non-periodic base: the series-pair slope route.  Seed-independent,
    # because the deform job fails on every pass (emit_trace takes max()
    # over relation residuals that are all None).  Once that is mended the
    # job succeeds, is checked like any other, and only ``failed`` drops.
    base = tent(1.8)
    jobs.append(Job("s18_horiz", "horiz",
                    {"map": base, "v": "square_bump", "w": "bump"}))
    fam = _family_from(base, "s18_horiz")
    jobs.append(Job("s18_deform", "deform",
                    lambda d: {"family": fam(d), "w": "bump"},
                    meta={"expected_failure": "F2"}, needs=("s18_horiz",)))
    return jobs


def _scan(rng: random.Random) -> list[Job]:
    grid = {"lo": DOMAIN[0], "hi": DOMAIN[1], "n": 101}
    fams = []
    a = dyadic(rng.uniform(0.5, 1.5))
    fams.append(("golden_bump", "golden_tent",
                 {"left": [a * c for c in BUMP],
                  "right": [a * c for c in BUMP]},
                 "transversal"))
    for i, centre in enumerate((1.6, 1.9)):
        fams.append((f"tent_window{i}",
                     tent(dyadic(centre + rng.uniform(-0.01, 0.01))),
                     "tent_profile", "transversal"))
    fams.append(("cubic_square_bump", cubic_map(rng, 1.45, 1.5),
                 "square_bump", "transversal"))
    for name, field in (("odd", ODD), ("square_bump", SQUARE_BUMP)):
        a = dyadic(rng.uniform(0.5, 1.5))
        fams.append((f"full_{name}", "full_tent",
                     {"left": [a * c for c in field],
                      "right": [a * c for c in field]}, "in-class"))
    golden = periodic_slopes(3)[0]
    slope = rng.choice(periodic_slopes(5))
    for name, s, q in (("golden_vanish", golden, 3),
                       ("per5_vanish", slope, 5)):
        pts = [0.0] + tent_orbit(s, q - 1)
        scale = dyadic(rng.uniform(0.5, 1.0)) / (2.0 ** q)
        fams.append((name, tent(s), vanishing_field(pts, scale), "in-class"))
    jobs = []
    for name, base, field, kind in fams:
        fam = {"base": base, "terms": [{"field": field}],
               "domain": list(DOMAIN)}
        jobs.append(Job(f"{name}_scan", "scan", {"family": fam, "grid": grid},
                        meta={"kind": kind}))
    return jobs


_BUILDERS = {"certify": _certify, "deform": _deform, "scan": _scan}


def build(name: str, seed: int) -> list[Job]:
    """The job list of one workload; the same seed gives the same jobs."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
