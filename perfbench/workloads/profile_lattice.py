"""profile-lattice: the orbit kernel in its lex-greedy form.

Each round runs Ky Fan checks on random monomial pairs (n = 2-10, phases
in 24ths, as the `kyfan` suite), meet/join lattice-law triples on random
8-profiles, and `realize_profile` round trips (as the `lattice` suite).
`optimal_torus_element` is called many times on short inputs, and as an
early-abort search inside `realize_profile`.

Ky Fan pairs come in equal numbers for each n.  Round trips use seeded
draws of types A-D at rank 4 and a fixed panel: one element per type at
ranks 5, 6 and 7 drawn from seed 0, and the eight elements the `lattice`
suite draws at its default seed, types A-D at ranks 4 and 8.  The panel
keeps a type-B rank-8 case (about 3 s) in every round, so the heavy tail
of `realize_profile` shows.  Seeded draws stop at rank 4 because above it
single draws cost from under 10 ms to over a second (rank 5-6) or over a
minute (type B, rank 8), and a seed-to-seed comparison of runs would
measure the draws rather than the program.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

import oracles
from lengthlab import profiles, roots
from lengthlab.perms import Permutation

from .common import random_torus_element

KYFAN_PAIRS_PER_N = 134
KYFAN_NS = range(2, 11)
TRIPLES = 600
REALIZE_DRAWS_PER_TYPE = 10
PANEL_RANKS = (5, 6, 7)
LATTICE_SUITE_PANEL = (
    ("A", 4, "1/12 1/3 5/6 3/4 0"),
    ("A", 8, "5/6 7/12 -5/12 -3/4 1/6 -1/6 1/12 1/6 -1/2"),
    ("B", 4, "-1/12 0 -2/3 5/12"),
    ("B", 8, "-7/12 -7/12 -11/12 2/3 1/2 -5/6 -1/6 -1/2"),
    ("C", 4, "7/12 -7/12 1/4 1/2"),
    ("C", 8, "0 1 -5/6 1/6 -1/12 11/12 -5/6 1/2"),
    ("D", 4, "1 -7/12 1 1"),
    ("D", 8, "-1/3 0 2/3 1/6 -7/12 1/2 -1/6 5/6"),
)


def _monomial(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    phases = tuple(Fraction(rng.randint(-24, 24), 24) for _ in range(n))
    return Permutation(tuple(images)), phases


def _profile(rng):
    values = sorted((rng.random() for _ in range(rng.randint(0, 8))),
                    reverse=True)
    return profiles.Profile(tuple(values), 8)


def _kyfan(g, h, index, tr):
    rep = tr.call("profiles.kyfan_profile_check", profiles.kyfan_profile_check,
                  g, h, z_trials=2, seed=index)
    tr.count("profiles.inexact", not rep["exact"])
    return rep


def _check_kyfan(n, index, rnd, rep):
    rnd.check(rep["main_ok"] and rep["kyfan_ok"]
              and rep["pairs_checked"] == (n // 6 + 2) ** 2,
              f"kyfan pair {index}: {rep['violations'][:2]}")


def _laws(a, b, c):
    meet, join = profiles.profile_meet, profiles.profile_join
    return (meet(a, join(b, c)), join(meet(a, b), meet(a, c)),
            join(a, meet(b, c)), meet(join(a, b), join(a, c)))


def _pointwise(op, *profs):
    size = max(len(p.values) for p in profs)
    padded = [p.values + (0.0,) * (size - len(p.values)) for p in profs]
    return tuple(op(*vals) for vals in zip(*padded))


def _check_laws(a, b, c, rnd, result):
    m_of_j, j_of_m, j_of_mm, m_of_jj = (x.values for x in result)
    rnd.check(m_of_j == j_of_m == _pointwise(
        lambda x, y, z: min(x, max(y, z)), a, b, c), "meet over join")
    rnd.check(j_of_mm == m_of_jj == _pointwise(
        lambda x, y, z: max(x, min(y, z)), a, b, c), "join over meet")


def _meet_join(a, b, c, tr):
    return tr.call("profiles.meet_join", _laws, a, b, c)


def _round_trip(t, tr):
    p = tr.call("profiles.profile_of", profiles.profile_of, t)
    back = tr.call("profiles.realize_profile", profiles.realize_profile,
                   p, t.type, t.rank)
    q = tr.call("profiles.profile_of", profiles.profile_of, back)
    tr.count("profiles.inexact", (not p.exact) + (not q.exact))
    return p, back, q


def _check_round_trip(t, rnd, result):
    p, back, q = result
    what = f"round trip {t.type}{t.rank} {[str(a) for a in t.angles]}"
    rnd.check((back.type, back.rank) == (t.type, t.rank)
              and q.distances == p.distances, what)
    if oracles.orbit_size_ok(t.type, t.rank):
        rnd.check(p.distances == oracles.lexmax_profile(t.type, t.angles)
                  and q.distances == oracles.lexmax_profile(
                      back.type, back.angles), what + " vs brute lex-max")


def make_items(rng):
    """([], items): none has to run first."""
    tasks = []
    for n in KYFAN_NS:
        for _ in range(KYFAN_PAIRS_PER_N):
            g, h = _monomial(rng, n), _monomial(rng, n)
            tasks.append((partial(_kyfan, g, h, len(tasks)),
                          partial(_check_kyfan, n, len(tasks))))
    for _ in range(TRIPLES):
        abc = _profile(rng), _profile(rng), _profile(rng)
        tasks.append((partial(_meet_join, *abc), partial(_check_laws, *abc)))
    elements = [random_torus_element(rng, typ, 4)
                for typ in "ABCD" for _ in range(REALIZE_DRAWS_PER_TYPE)]
    panel_rng = random.Random(0)
    elements += [random_torus_element(panel_rng, typ, rank)
                 for rank in PANEL_RANKS for typ in "ABCD"]
    elements += [roots.TorusElement(typ, rank,
                                    tuple(Fraction(a) for a in angles.split()))
                 for typ, rank, angles in LATTICE_SUITE_PANEL]
    tasks += [(partial(_round_trip, t), partial(_check_round_trip, t))
              for t in elements]
    return [], tasks
