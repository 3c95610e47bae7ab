"""orbit-max: exact lambda-tilde on random torus elements and on the
counterexample family.

A round computes lambda-tilde and ell1' of random elements of types A-D,
ranks 2-8, angles in twelfths (the draws of the `l1-constants` suite,
five per type and rank), one item per element, and lambda-tilde of each
member of `counterexample_family(n)` for n = 2..64 (the `counterexample`
suite), one item per member.  The Fraction max-DP does nearly all the
work, on many distinct angles at small rank and on three distinct angles
at rank up to 128.
"""

from __future__ import annotations

from functools import partial

import oracles
from lengthlab import roots

from .common import random_torus_element

DRAWS_PER_TYPE_AND_RANK = 5
RANKS = range(2, 9)
FAMILY = range(2, 65)
FAMILY_BRUTE_MAX_N = 4  # 2n+1 angles in 3 values: at most 630 arrangements


def _lambda_tilde(t, tr):
    """Exact lambda-tilde, or (counted) the documented lower bound when
    the DP's state cap is hit; the flag says which."""
    try:
        return tr.call("roots.lambda_tilde", roots.lambda_tilde, t), True
    except roots.RankTooLargeForExact:
        tr.count("roots.lambda_tilde.cap_hits")
        return tr.call("roots.lambda_tilde_lower_bound",
                       roots.lambda_tilde_lower_bound, t), False


def _draw(t, tr):
    return (_lambda_tilde(t, tr),
            tr.call("roots.ell1_prime", roots.ell1_prime, t))


def _check_lambda_tilde(t, brute, rnd, result):
    value, exact = result
    what = f"lambda_tilde {t.type}{t.rank} {[str(a) for a in t.angles]}"
    if not exact:
        rnd.check(value <= 1, what)
    elif brute:
        rnd.check(value == oracles.lambda_tilde(t.type, t.rank, t.angles),
                  what)
    else:
        rnd.check(oracles.lam(t.type, t.rank, t.angles) <= value <= 1, what)


def _check_draw(t, rnd, result):
    lt, lp = result
    _check_lambda_tilde(t, oracles.orbit_size_ok(t.type, t.rank), rnd, lt)
    bound = oracles.ell1_at_identity(t.type, t.rank, t.angles)
    rnd.check(0 <= lp <= bound + 1e-12, f"ell1' {t.angles}")


def make_items(rng):
    """([], items): none has to run first."""
    tasks = []
    for typ in "ABCD":
        for rank in RANKS:
            for _ in range(DRAWS_PER_TYPE_AND_RANK):
                t = random_torus_element(rng, typ, rank)
                tasks.append((partial(_draw, t), partial(_check_draw, t)))
    for n in FAMILY:
        for t in roots.counterexample_family(n):
            tasks.append((partial(_lambda_tilde, t),
                          partial(_check_lambda_tilde, t,
                                  n <= FAMILY_BRUTE_MAX_N)))
    return [], tasks
