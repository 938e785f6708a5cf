#!/usr/bin/env python3
"""Scan a one-parameter family for topological-class transitions and
localize them: kneading flips by safeguarded Newton on the critical orbit
point whose symbol changes, and the critical-relation manifold by bisection
on the kneading and relation signature."""

import argparse
from collections import Counter

import numpy as np

from pexpand import FamilyTerm, MapFamily, bump_field, golden_tent, run_scan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=101)
    ap.add_argument("--range", type=float, default=0.02, metavar="T",
                    dest="t_range", help="scan over [-T, T]")
    args = ap.parse_args()

    F = MapFamily(golden_tent(), (FamilyTerm(bump_field()),),
                  (-args.t_range, args.t_range))
    grid = tuple(np.linspace(-args.t_range, args.t_range, args.nodes))
    res = run_scan(F, grid)

    print(f"nodes: {len(res.records)}   max |J| = {res.max_abs_j:.6e} "
          f"(zero threshold {res.threshold:.1e})")
    print(f"in-class: {res.in_class}   diagnostics consistent: {res.consistent}")
    print(f"transitions: {len(res.transitions)} "
          f"({sum(1 for t in res.transitions if t.localized)} localized)")
    methods = Counter(t.method for t in res.transitions)
    for method, count in sorted(methods.items()):
        print(f"  {method}: {count}")
    rel = [t for t in res.transitions if "relations" in t.kinds]
    for t in rel:
        print(f"  relation manifold through t* = {t.t_star:+.3e} "
              f"(bracket width {t.width:.3e})")

    mid = res.records[len(res.records) // 2]
    print(f"center node t={mid.t:+g}: class={mid.classification} "
          f"kneading={mid.kneading[:12]}... J={mid.j_value!r}")


if __name__ == "__main__":
    main()
