"""Independent high-precision oracles used by the test suite.

Everything here re-implements the quantities under test directly from the
branch coefficients with mpmath arithmetic; no pexpand evaluation code is
reused, so agreement is a genuine cross-check.
"""

import mpmath as mp

mp.mp.dps = 40


def _branch(coeffs, x):
    return mp.fsum(mp.mpf(c) * x ** i for i, c in enumerate(coeffs))


def mp_value(f, x):
    return _branch(f.left if x < 0 else f.right, x)


def mp_deriv(f, x):
    coeffs = f.left if x < 0 else f.right
    return mp.fsum(i * mp.mpf(c) * x ** (i - 1)
                   for i, c in enumerate(coeffs) if i >= 1)


def mp_field(v, x):
    return _branch(v.left if x < 0 else v.right, x)


def mp_j_series(f, v, n=200):
    """Direct n-term summation of the defining series at 40 digits."""
    total = mp.mpf(0)
    x, prod = mp.mpf(0), mp.mpf(1)
    for _ in range(n):
        total += mp_field(v, x) / prod
        prod *= mp_deriv(f, (x := mp_value(f, x)))
    return total


def mp_j_periodic(f, v, p):
    total = mp.mpf(0)
    x, prod = mp.mpf(0), mp.mpf(1)
    for _ in range(p):
        total += mp_field(v, x) / prod
        prod *= mp_deriv(f, (x := mp_value(f, x)))
    return total


# closed forms on the golden tent, a = (1+sqrt 5)/2, u = a - 1
MP_A = (1 + mp.sqrt(5)) / 2
MP_U = MP_A - 1

# J(golden, 1-x^2) = 1 - (1-u^2)/a - (1-u^4)/a^2, a 3-term sum in Q(sqrt 5)
MP_J_GOLDEN_BUMP = 1 - (1 - MP_U ** 2) / MP_A - (1 - MP_U ** 4) / MP_A ** 2

# J(golden, x(1-x^2)) by the same 3-term sum
MP_J_GOLDEN_ODD = (0 + (MP_U - MP_U ** 3) / (-MP_A)
                   + (-MP_U ** 2 + MP_U ** 6) / (-MP_A ** 2))

# alpha at f(c) = u: finite 2-term sum, orbit hits c at step 2
MP_ALPHA_GOLDEN_U = (1 - MP_U ** 2) / MP_A + (1 - MP_U ** 4) / MP_A ** 2

MP_C_PLUS = MP_A ** 3 / (MP_A ** 3 - 1)
MP_C_MINUS = (MP_A ** 3 - 2) / (MP_A ** 3 - 1)

MP_D_GOLDEN = -MP_J_GOLDEN_BUMP / MP_J_GOLDEN_ODD  # = a^2

MP_TRANSVERSAL = -MP_A ** 2 * MP_J_GOLDEN_BUMP



def _sign_changes(p, lo, hi):
    """Points of [lo, hi] where the polynomial p (ascending) changes sign:
    one per monotone piece between the stationary points of p (Rolle),
    found by Illinois bracketing."""
    while p and p[-1] == 0:
        p = p[:-1]
    if len(p) < 2:
        return []
    knots = [lo, *_sign_changes([j * c for j, c in enumerate(p)][1:], lo, hi),
             hi]
    out = []
    for a, b in zip(knots, knots[1:]):
        if mp.polyval(p[::-1], a) * mp.polyval(p[::-1], b) < 0:
            out.append(mp.findroot(lambda x: mp.polyval(p[::-1], x), (a, b),
                                   solver="illinois", verify=False))
    return knots[1:-1] + out


def mp_deriv_range(coeffs, lo, hi):
    """(min, max) over [lo, hi] of the branch derivative sum_j j c_j x^(j-1)
    at 50 digits, from the exact products j*c_j: its values at the ends and
    at the sign changes of the second derivative (and at more points, which
    cannot move a min or max past the true one)."""
    with mp.workdps(50):
        d1 = [j * mp.mpf(c) for j, c in enumerate(coeffs)][1:] or [mp.mpf(0)]
        d2 = [j * c for j, c in enumerate(d1)][1:]
        xs = [mp.mpf(lo), mp.mpf(hi), *_sign_changes(d2, mp.mpf(lo), mp.mpf(hi))]
        vals = [mp.polyval(d1[::-1], x) for x in xs]
        return min(vals), max(vals)
