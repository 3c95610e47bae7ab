"""fields-colorings-certs: row reduction over F_q, the coloring searches,
the partition scans and the certificate matrix products.

Each round runs, as the `jordan`, `geometry`, `strong-coloring`,
`sandwich`, `asymptotic-bounds` and `decompositions` suites do:
- `jordan_length` and `rank_length_mat` on every invertible 2x2 matrix
  over F_3, F_5 and F_7 and on random invertible n x n matrices, n = 2-6;
- `radical` and `extend_to_nondegenerate` on random symplectic and
  Hermitian subspaces;
- `strong_color_cycle` on every triple partition for n = 6, 9, 12, one
  item per first block, and `partition_permutation` on random
  permutations of n = 75, 150, ..., 3000 points;
- `exact_sandwich_scan(60)`, and `comparison_rows(17, 40)` one item
  per n, as `comparison_rows(n, n)`;
- `su2_decompose`, `torus_decompose_typeA` and `large_rank_decompose`
  certificates, each with the least factor budget m = 2^k that works.

It is the control workload for changes to the orbit DP and the group
engine, which should leave it flat.  One call per round goes through the
CLI, `torus-decompose --set h=0,0,0`: it is counted as
failed until it exits 2 with a one-line message; today roots.CentralH
escapes `cli.main`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial

import oracles
from lengthlab import coloring, fqlin, perms, roots

from .common import cli_exit_2, random_torus_element

PRIMES = (3, 5, 7)
RANDOM_MATRICES = 300
SUBSPACES = 200
COLORING_NS = (6, 9, 12)
PERMUTATION_SIZES = range(75, 3001, 75)  # evenly spread, as n = 3k <= 3000
SU2_PAIRS = 100
TYPE_A_PAIRS = 40
LARGE_RANKS = (21, 25)
KERNEL_BRUTE_MAX_N = 3
M_MAX = 1024
CLI_CALL = ["torus-decompose", "--set", "h=0,0,0"]


def _random_invertible(rng, field, n):
    while True:
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        if oracles.det_mod(rows, field.q):
            return fqlin.FqMatrix(field, rows)


def _triple_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for pair in itertools.combinations(rest, 2):
        remaining = [x for x in rest if x not in pair]
        for tail in _triple_partitions(remaining):
            yield [[first, *pair], *tail]


def _coloring_batches():
    """All triple partitions of 0..n-1, batched by their first block."""
    batches = []
    for n in COLORING_NS:
        by_first = {}
        for blocks in _triple_partitions(list(range(n))):
            by_first.setdefault(tuple(blocks[0]), []).append(blocks)
        batches += [(n, group) for group in by_first.values()]
    return batches


def _subspace(rng):
    p = rng.choice((3, 5))
    if rng.random() < 0.5:
        n = 2 * rng.randint(1, 4)
        space = fqlin.BilinearSpace.symplectic(fqlin.FqField(p), n)
    else:
        n = rng.randint(2, 5 if p == 3 else 4)
        space = fqlin.BilinearSpace.hermitian(fqlin.FqField(p, 2), n)
    q = space.field.q
    basis = [[rng.randrange(q) for _ in range(n)]
             for _ in range(rng.randint(0, n))]
    return space, fqlin.Subspace(space.field, n, basis)


def _su2_pair(rng):
    while True:
        th = Fraction(rng.randint(1, 64), 64) * rng.choice((1, -1))
        tg = Fraction(rng.randint(0, 64), 64) * rng.choice((1, -1))
        lam_g, lam_h = oracles.dist(2 * tg), oracles.dist(2 * th)
        if lam_h:
            return tg, th, max(1, math.ceil(lam_g / lam_h) + rng.randint(0, 4))


def _noncentral(rng, rank, denom):
    while True:
        t = random_torus_element(rng, "A", rank, denom)
        if len(set(t.angles)) > 1:
            return t


def _support(t):
    return sum(1 for d in oracles.distance_sequence("A", t.angles) if d)


def _jordan(g, tr):
    return (tr.call("fqlin.jordan_length", fqlin.jordan_length, g),
            tr.call("fqlin.rank_length_mat", fqlin.rank_length_mat, g))


def _check_jordan(g, rnd, result):
    (lj, m_g, _), lr = result
    n, q = g.n, g.field.q
    ok = min(lr, 1 - lr) <= lj <= lr and (lr > Fraction(1, 2) or lj == lr)
    if n <= KERNEL_BRUTE_MAX_N:
        def kernel(alpha):
            return oracles.kernel_dim(
                [[(alpha * (i == j) - g.rows[i][j]) % q for j in range(n)]
                 for i in range(n)], q)
        best = max(kernel(alpha) for alpha in range(1, q))
        ok = ok and m_g == best and lj == Fraction(n - best, n) \
            and lr == Fraction(n - kernel(1), n)
    rnd.check(ok, f"jordan/rank lengths of {g.rows} over F_{q}")


def _geometry(space, w, tr):
    return (tr.call("fqlin.radical", fqlin.radical, space, w),
            tr.call("fqlin.extend_to_nondegenerate",
                    fqlin.extend_to_nondegenerate, space, w))


def _check_geometry(space, w, rnd, result):
    rad, (wp, wpp) = result
    orthogonal = all(space.form(r, b) == 0 and space.form(b, r) == 0
                     for r in rad.basis for b in w.basis)
    rnd.check(orthogonal and wpp.dim == rad.dim and wp.dim + rad.dim == w.dim,
              f"radical/extension in {space.form_kind} F_{space.field.q}^"
              f"{space.n}")


def _colorings(n, batch, tr):
    return [tr.call("coloring.strong_color_cycle", coloring.strong_color_cycle,
                    n, blocks) for blocks in batch]


def _check_colorings(n, batch, rnd, result):
    rnd.check(all(oracles.strong_coloring_ok(n, blocks, colors)
                  for blocks, colors in zip(batch, result)),
              f"strong coloring at n={n}, first block {batch[0][0]}")


def _partition(sigma, tr):
    return tr.call("coloring.partition_permutation",
                   coloring.partition_permutation, sigma)


def _check_partition(sigma, rnd, vectors):
    rnd.check(oracles.partition_vectors_ok(sigma.images, vectors),
              f"partition of a permutation of {sigma.n}")


def _sandwich(tr):
    return tr.call("perms.exact_sandwich_scan", perms.exact_sandwich_scan, 60)


def _check_sandwich(rnd, violations):
    rnd.check(violations == 0, f"sandwich violations {violations}")


def _comparison_rows(n, tr):
    return tr.call("perms.comparison_rows",
                   lambda: list(perms.comparison_rows(n, n)))


def _check_comparison_rows(n, rnd, rows):
    expected = oracles.partition_count(n)
    rnd.check(len(rows) == expected
              and all(r[0] == n and not (r[5] or r[6]) for r in rows),
              f"comparison rows for n = {n}: {len(rows)} of {expected}")


def _least_budget(decompose, m, tr):
    """Certificate at the least budget m0 * 2^k the bound admits, k >= 0."""
    while m <= M_MAX:
        try:
            cert = tr.call("roots.certificates", decompose, m)
        except roots.BoundViolated:
            m *= 2
            continue
        tr.count("roots.certificates.factors", cert.count)
        return cert, m
    raise roots.BoundViolated(f"no certificate up to m = {M_MAX}")


def _check_certificate(factors, target, base, bound, what, rnd, cert):
    err = oracles.product_error(factors, base, target, cert.central_remainder)
    rnd.check(cert.count <= bound and err < 1e-8,
              f"{what}: {cert.count} factors (bound {bound}), error {err:.2e}")


def _su2_matrix(theta):
    x = math.pi * float(theta)
    return oracles.quaternion_matrix((math.cos(x), 0.0, 0.0, math.sin(x)))


def _check_su2(tg, th, rnd, result):
    cert, m = result
    factors = [(oracles.quaternion_matrix(v), eps) for v, eps in cert.factors]
    _check_certificate(factors, _su2_matrix(tg), _su2_matrix(th), m,
                       f"su2 {tg}, {th}", rnd, cert)


def _check_torus(g, h, bound, what, rnd, result):
    cert, m = result
    _check_certificate(cert.factors, oracles.torus_matrix(g.angles),
                       oracles.torus_matrix(h.angles),
                       bound(m, g.rank), f"{what} rank {g.rank}", rnd, cert)


def _large_rank(g, h, m):
    return roots.large_rank_decompose(g, h, 1, m)


def make_items(rng):
    """([], items): none has to run first."""
    fields = {q: fqlin.FqField(q) for q in PRIMES}
    matrices = [fqlin.FqMatrix(fields[q], [[a, b], [c, d]])
                for q in PRIMES
                for a, b, c, d in itertools.product(range(q), repeat=4)
                if (a * d - b * c) % q]
    matrices += [_random_invertible(rng, fields[rng.choice(PRIMES)],
                                    rng.randint(2, 6))
                 for _ in range(RANDOM_MATRICES)]
    tasks = [(partial(_jordan, g), partial(_check_jordan, g))
             for g in matrices]
    for _ in range(SUBSPACES):
        space, w = _subspace(rng)
        tasks.append((partial(_geometry, space, w),
                      partial(_check_geometry, space, w)))
    tasks += [(partial(_colorings, n, batch),
               partial(_check_colorings, n, batch))
              for n, batch in _coloring_batches()]
    for n in PERMUTATION_SIZES:
        images = list(range(n))
        rng.shuffle(images)
        sigma = perms.Permutation(images)
        tasks.append((partial(_partition, sigma),
                      partial(_check_partition, sigma)))
    tasks.append((_sandwich, _check_sandwich))
    tasks += [(partial(_comparison_rows, n), partial(_check_comparison_rows, n))
              for n in range(17, 41)]
    for _ in range(SU2_PAIRS):
        tg, th, m = _su2_pair(rng)
        tasks.append((partial(_least_budget,
                              partial(roots.su2_decompose, tg, th), m),
                      partial(_check_su2, tg, th)))
    for _ in range(TYPE_A_PAIRS):
        rank = rng.randint(1, 8)
        g = random_torus_element(rng, "A", rank, 16)
        h = _noncentral(rng, rank, 16)
        tasks.append((
            partial(_least_budget,
                    partial(roots.torus_decompose_typeA, g, h), 2),
            partial(_check_torus, g, h, lambda m, r: 4 * m * r * r,
                    "type A")))
    for rank in LARGE_RANKS:
        g = random_torus_element(rng, "A", rank, 8)
        h = _noncentral(rng, rank, 8)
        while _support(h) < _support(g):
            h = _noncentral(rng, rank, 8)
        tasks += [(partial(_least_budget, partial(_large_rank, g, partner), 2),
                   partial(_check_torus, g, partner, lambda m, r: 144 * m,
                           "large rank"))
                  for partner in (g, h)]
    tasks.append((partial(cli_exit_2, CLI_CALL), None))
    return [], tasks
