"""group-engine: group tables and the queries that read them.

Each round builds A5, A6, PSL2(7), PSL2(8), PSL2(13) and the non-simple
S4, D4, Q8 and SL2(3) (the last two from matrices over F_3), then runs,
shuffled: `conjugacy_width` for every nontrivial class in
each mode, `ore_check`, `mutual_domination` on the simple groups,
`normal_lattice_analyze`, and `normal_set_product` over all class pairs,
one item per pair (as the `width-ore` and `lattice` suites).  A7
is left out: its table takes about 30 s to build, longer than a run.

The seed relabels the points (or conjugates the matrices) of every
generating set, so the same groups come out with their elements in
another order.  The N^2 multiplication table does most of the work.

One call per round goes through the CLI, `width --set group=A9`.  It is
counted as failed until it exits 2 with a one-line message; today the
engine's CapExceeded escapes `cli.main`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import oracles
from lengthlab import engine
from lengthlab.fqlin import FqField, FqMatrix
from lengthlab.perms import Permutation

from .common import cli_exit_2

F3 = FqField(3)
CLI_CALL = ["width", "--set", "group=A9"]


@dataclass(frozen=True)
class Group:
    name: str
    gens: object  # () -> generators
    order: int
    classes: int
    simple: bool
    normal_orders: tuple  # orders of all normal subgroups, sorted
    chain: bool  # whether the normal subgroups form a chain


GROUPS = (
    Group("A5", lambda: engine.alternating_group_gens(5),
          math.factorial(5) // 2, 5, True, (1, 60), True),
    Group("A6", lambda: engine.alternating_group_gens(6),
          math.factorial(6) // 2, 7, True, (1, 360), True),
    Group("PSL2_7", lambda: engine.psl2_gens(7),
          oracles.psl2_order(7), 6, True, (1, 168), True),
    Group("PSL2_8", lambda: engine.psl2_gens(8),
          oracles.psl2_order(8), 9, True, (1, 504), True),
    Group("PSL2_13", lambda: engine.psl2_gens(13),
          oracles.psl2_order(13), 9, True, (1, 1092), True),
    Group("S4", lambda: [Permutation.from_cycles(4, [[0, 1]]),
                         Permutation.from_cycles(4, [[0, 1, 2, 3]])],
          24, 5, False, (1, 4, 12, 24), True),
    Group("D4", lambda: [Permutation.from_cycles(4, [[0, 1, 2, 3]]),
                         Permutation.from_cycles(4, [[0, 2]])],
          8, 5, False, (1, 2, 4, 4, 4, 8), False),
    Group("Q8", lambda: [FqMatrix(F3, [[0, 2], [1, 0]]),
                         FqMatrix(F3, [[1, 1], [1, 2]])],
          8, 5, False, (1, 2, 4, 4, 4, 8), False),
    Group("SL2_3", lambda: [FqMatrix(F3, [[1, 1], [0, 1]]),
                            FqMatrix(F3, [[0, 2], [1, 0]])],
          24, 7, False, (1, 2, 8, 24), True),
)


def _relabel(gens, rng):
    """The same group on relabelled points or in a conjugate basis."""
    if isinstance(gens[0], Permutation):
        pi = list(range(gens[0].n))
        rng.shuffle(pi)
        out = []
        for g in gens:
            images = [0] * g.n
            for i, j in enumerate(g.images):
                images[pi[i]] = pi[j]
            out.append(Permutation(images))
        return out
    while True:
        rows = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
        if oracles.det_mod(rows, 3):
            break
    p = FqMatrix(F3, rows)
    return [p * g * p.inverse() for g in gens]


def _build(tables, group, gens, tr):
    # drop last round's table first, so two rounds hold no more than one
    tables.pop(group.name, None)
    tables[group.name] = t = tr.call("engine.generate_group",
                                     engine.generate_group, gens)
    return t


def _check_build(group, rnd, t):
    rnd.check(t.order == group.order and len(t.classes) == group.classes,
              f"{group.name}: order {t.order}, {len(t.classes)} classes")


def _query(tables, group, name, fn, tr):
    return tr.call(name, fn, tables[group.name])


def _nontrivial_rep(t, k):
    return [cls[0] for cls in t.classes if cls[0] != t.identity_index][k]


def _width(tables, group, k, symmetric, tr):
    t = tables[group.name]
    return tr.call("engine.conjugacy_width", engine.conjugacy_width,
                   t, _nontrivial_rep(t, k), symmetric=symmetric)


def _check_width(tables, group, k, symmetric, rnd, width):
    t = tables[group.name]
    rep = _nontrivial_rep(t, k)
    what = f"{group.name}: {'symmetric' if symmetric else 'power'} width " \
           f"{width} of class {rep}"
    if symmetric:
        bounded = isinstance(width, int)
        rnd.check(not group.simple or (
            bounded and width * t.conj_length(rep) >= 1 - 1e-12), what)
    elif isinstance(width, int):
        sym = engine.conjugacy_width(t, rep, symmetric=True)
        rnd.check(isinstance(sym, int) and sym <= width, what)
    else:
        rnd.check(not group.simple, what)


def _check_ore(group, rnd, result):
    # Ore holds on every finite simple group; the others here are not
    # perfect, so some element is not a commutator
    rnd.check(result[0] == group.simple, f"{group.name}: ore_check {result}")


def _check_domination(tables, group, rnd, k):
    # each step of a filtration adds a class, so k is at most their number
    rnd.check(1 <= k <= len(tables[group.name].classes),
              f"{group.name}: domination {k}")


def _check_lattice(group, rnd, lattice):
    rnd.check(tuple(sorted(lattice["orders"])) == group.normal_orders
              and lattice["is_chain"] == group.chain,
              f"{group.name}: normal subgroup orders {lattice['orders']}")


def _class_pair(t, i, j):
    return t.class_bits(t.classes[i][0]), t.class_bits(t.classes[j][0])


def _product(tables, group, i, j, tr):
    t = tables[group.name]
    return tr.call("engine.normal_set_product", engine.normal_set_product,
                   t, *_class_pair(t, i, j))


def _check_product(tables, group, i, j, rnd, product):
    t = tables[group.name]
    rnd.check(product == engine.naive_set_product(t, *_class_pair(t, i, j)),
              f"{group.name}: normal_set_product of classes {i}, {j}")


def make_items(rng):
    """(builds, queries): the tables are built first, in seeded order, and
    every query reads the table this round built."""
    tables = {}
    builds, queries = [], []
    for group in GROUPS:
        gens = _relabel(group.gens(), rng)
        builds.append((partial(_build, tables, group, gens),
                       partial(_check_build, group)))
        for k in range(group.classes - 1):
            for symmetric in (True, False):
                queries.append((partial(_width, tables, group, k, symmetric),
                                partial(_check_width, tables, group, k,
                                        symmetric)))
        queries.append((partial(_query, tables, group, "engine.ore_check",
                                engine.ore_check),
                        partial(_check_ore, group)))
        if group.simple:
            queries.append((
                partial(_query, tables, group, "engine.mutual_domination",
                        engine.mutual_domination),
                partial(_check_domination, tables, group)))
        queries.append((
            partial(_query, tables, group, "engine.normal_lattice_analyze",
                    engine.normal_lattice_analyze),
            partial(_check_lattice, group)))
        queries += [(partial(_product, tables, group, i, j),
                     partial(_check_product, tables, group, i, j))
                    for i in range(group.classes)
                    for j in range(group.classes)]
    queries.append((partial(cli_exit_2, CLI_CALL), None))
    rng.shuffle(builds)
    return builds, queries
