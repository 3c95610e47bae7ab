"""Tests for finite-field linear algebra, Jordan lengths, formed spaces."""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

from lengthlab import InvariantFailed, OutOfRange, fqlin
from lengthlab.fqlin import (
    HERMITIAN,
    SYMPLECTIC,
    BilinearSpace,
    CharTwoSymmetric,
    FqField,
    FqMatrix,
    Singular,
    Subspace,
    _TABLES,
    _charpoly,
    _check_extension,
    _combine,
    _echelon,
    _is_prime,
    _products,
    _reduce,
    _shift,
    extend_to_nondegenerate,
    jordan_length,
    mat_rank,
    nullspace,
    orthogonal_complement,
    radical,
    rank_length_mat,
    rref,
    solve_form_functional,
)

# ---------------------------------------------------------------- oracles


def minor_rank(m: FqMatrix) -> int:
    """Rank as the size of the largest nonvanishing minor, searched from
    the largest size down (n <= 6)."""
    F, n = m.field, m.n
    for k in range(n, 0, -1):
        if any(_det(F, [[m.rows[i][j] for j in cols] for i in rows])
               for rows in itertools.combinations(range(n), k)
               for cols in itertools.combinations(range(n), k)):
            return k
    return 0


def _det(F, rows):
    """Laplace expansion along the first row, each minor of the rows below
    computed once per set of columns (2^k minors for k rows)."""
    k = len(rows)

    @functools.lru_cache(maxsize=None)
    def minor(i, cols):  # det of rows[i:] on the columns cols
        if i == k:
            return 1
        out = 0
        for pos, j in enumerate(cols):
            a = rows[i][j]
            if a:
                term = F.mul(a, minor(i + 1, cols[:pos] + cols[pos + 1:]))
                out = F.add(out, F.neg(term) if pos % 2 else term)
        return out
    return minor(0, tuple(range(k)))


def solution_count_rank(m: FqMatrix) -> int:
    """n - log_q #{x in F_q^n : m x = 0}, every x counted (q^n small)."""
    F, n = m.field, m.n
    add, mul = F._add, F._mul

    def dot(r, x):
        s = 0
        for a, b in zip(r, x):
            s = add[s][mul[a][b]]
        return s
    count = sum(all(dot(r, x) == 0 for r in m.rows)
                for x in itertools.product(range(F.q), repeat=n))
    nullity = 0
    while F.q ** nullity < count:
        nullity += 1
    assert F.q ** nullity == count
    return n - nullity


def _row_reduce(F, rows, pivot_cols):
    """Gauss-Jordan reference: in-place reduced row echelon form, pivots
    searched in the first pivot_cols columns and each one cleared from
    every other row at once; returns the row list (pivot rows first)."""
    sub, mul, inv = F._sub, F._mul, F._inv
    m = len(rows)
    prow = 0
    for col in range(pivot_cols):
        for sel in range(prow, m):
            if rows[sel][col]:
                break
        else:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        scale = mul[inv[rows[prow][col]]]
        pivot = rows[prow] = [scale[x] for x in rows[prow]]
        for r in range(m):
            c = rows[r][col]
            if c and r != prow:
                times_c = mul[c]
                rows[r] = [sub[x][times_c[y]] for x, y in zip(rows[r], pivot)]
        prow += 1
        if prow == m:
            break
    return rows


def rref_reference(F, vectors):
    if not vectors:
        return []
    rows = _row_reduce(F, [list(v) for v in vectors], len(vectors[0]))
    return [r for r in rows if any(r)]


def nullspace_reference(F, rows, width):
    red = rref_reference(F, rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in red]
    basis = []
    for fcol in (j for j in range(width) if j not in pivots):
        v = [0] * width
        v[fcol] = 1
        for r, pcol in zip(red, pivots):
            v[pcol] = F.neg(r[fcol])
        basis.append(v)
    return basis


def inverse_reference(m):
    F, n = m.field, m.n
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(m.rows)]
    aug = _row_reduce(F, aug, n)
    if any(aug[i][i] != 1 for i in range(n)):
        raise Singular("matrix not invertible")
    return FqMatrix(F, [r[n:] for r in aug])


def solve_reference(space, vectors, phi):
    """v with (b_i, v) = phi_i: the system reduced on its first n columns,
    a row zero there but not in the phi column being inconsistent."""
    F, n = space.field, space.n
    rows = [[space.form(b, [1 if i == j else 0 for i in range(n)])
             for j in range(n)] + [t] for b, t in zip(vectors, phi)]
    x = [0] * n
    for r in _row_reduce(F, rows, n):
        pivot = next((j for j in range(n) if r[j]), None)
        if pivot is None:
            if r[n]:
                raise Singular("inconsistent functional on a degenerate form")
            continue
        x[pivot] = r[n]
    return [space.sigma(c) for c in x]


def span_vectors(F, basis, n):
    """All vectors in the span of a basis (small fields only)."""
    out = []
    for coeffs in itertools.product(range(F.q), repeat=len(basis)):
        v = [0] * n
        for c, b in zip(coeffs, basis):
            for j in range(n):
                v[j] = F.add(v[j], F.mul(c, b[j]))
        out.append(tuple(v))
    return set(out)


def random_invertible(rng, F, n):
    while True:
        m = FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        if _det(F, m.rows):
            return m


def jordan_length_reference(g):
    """The search over every nonzero scalar: the rank of alpha - g by
    minors for each of the q - 1 values, ties to the smallest alpha."""
    F, n = g.field, g.n
    if not _det(F, g.rows):
        raise Singular("Jordan length needs an invertible matrix")
    best_dim, best_alpha = -1, None
    for alpha in F.units():
        a = scalar_matrix(F, n, alpha) - g
        dim = n - minor_rank(a)
        if dim > best_dim:
            best_dim, best_alpha = dim, alpha
    return Fraction(n - best_dim, n), best_dim, best_alpha


def scalar_matrix(F, n, a):
    return FqMatrix(F, [[a if i == j else 0 for j in range(n)] for i in range(n)])


def slow_product(F, a, b):
    """a @ b through the polynomial arithmetic the tables are built from."""
    out = []
    for row in a.rows:
        out.append([])
        for col in zip(*b.rows):
            s = 0
            for x, y in zip(row, col):
                s = F._digitwise(s, F._mul_slow(x, y), 1)
            out[-1].append(s)
    return FqMatrix(F, out)


def with_eigenvalues(rng, F, n):
    """x d x^-1 for a random invertible x and a block-diagonal d of
    Jordan blocks whose eigenvalues repeat, so kernels of every
    dimension and ties between eigenvalues occur."""
    d = [[0] * n for _ in range(n)]
    values = [rng.randrange(1, F.q) for _ in range(rng.randint(1, 2))]
    for i in range(n):
        d[i][i] = rng.choice(values)
        if i and d[i - 1][i - 1] == d[i][i] and rng.random() < 0.3:
            d[i - 1][i] = 1
    x = random_invertible(rng, F, n)
    return x * FqMatrix(F, d) * x.inverse()


# ----------------------------------------------------------------- fields


def test_is_prime_matches_trial_division():
    assert [n for n in range(-2, 5000) if _is_prime(n)] == [
        n for n in range(2, 5000) if all(n % d for d in range(2, n))]


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 91, 65536])
def test_field_of_non_prime_characteristic_is_rejected(p):
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        FqField(p)


def test_smallest_irreducible_modulus_f4():
    F4 = FqField(2, 2)
    # x^2 + x + 1 is the only (hence smallest) irreducible of degree 2 over F2
    assert F4.modulus == (1, 1, 1)


def test_smallest_irreducible_modulus_f9():
    F9 = FqField(3, 2)
    # degree-2 monics over F3 in ascending constant-first order: x^2+1 first
    assert F9.modulus == (1, 0, 1)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (7, 2),
                                 (3, 5)])
def test_field_axioms(p, e):
    F = FqField(p, e)
    rng = random.Random(7)
    elems = list(range(F.q))
    sample = elems if F.q <= 16 else rng.sample(elems, 16)
    for a in sample:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in sample[:6]:
            assert F.mul(a, b) == F.mul(b, a)
            for c in sample[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,e,modulus", [
    (2, 1, None), (3, 1, None), (13, 1, None), (127, 1, None), (131, 1, None),
    (2, 3, None), (2, 4, None), (3, 2, None), (3, 3, None), (5, 2, None),
    (2, 3, (1, 0, 1, 1)), (2, 7, None), (3, 5, None), (65521, 1, None)])
def test_field_tables_match_polynomial_arithmetic(p, e, modulus):
    F = FqField(p, e, modulus)
    rng = random.Random(p * e)
    pairs = (itertools.product(range(F.q), repeat=2) if F.q <= 32 else
             [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(400)])
    for a, b in pairs:
        assert F.add(a, b) == F._digitwise(a, b, 1)
        assert F.sub(a, b) == F._digitwise(a, b, -1)
        assert F.mul(a, b) == F._mul_slow(a, b)
        if a:
            assert F._mul_slow(a, F.inv(a)) == 1
    # equal fields share one set of tables
    assert FqField(p, e, modulus)._mul is F._mul


@pytest.mark.parametrize("modulus", [(7, 7, 7), (1,), (3, 2), (0, 0), ()])
def test_prime_field_modulus_must_be_monic_of_degree_one(modulus):
    with pytest.raises(ValueError, match="^modulus must be monic of degree"):
        FqField(5, 1, modulus)


def test_prime_field_keeps_one_modulus():
    # x + c gives the arithmetic mod p for every c: one field, one table set
    F = FqField(5)
    for modulus in ((0, 1), (3, 1), (7, 6), [2, 1]):
        G = FqField(5, 1, modulus)
        assert G.modulus == (0, 1)
        assert G == F and hash(G) == hash(F)
        assert G._mul is F._mul
    assert [key for key in _TABLES if key[:2] == (5, 1)] == [(5, 1, (0, 1))]


def test_tables_past_the_bound_keep_only_what_was_read():
    F = FqField(137)  # no other test builds F_137
    assert F.inv(5) == pow(5, -1, 137) and list(F._inv) == [5]
    assert F.mul(3, 100) == 300 % 137 and list(F._mul) == [3]
    assert F.sub(3, 100) == 40 and list(F._sub) == [3]


def test_frobenius_involution():
    F9 = FqField(3, 2)
    for a in range(F9.q):
        assert F9.conj(F9.conj(a)) == a
    # fixed field of x -> x^3 is F3
    fixed = [a for a in range(F9.q) if F9.conj(a) == a]
    assert len(fixed) == 3


# ----------------------------------------------------------------- ranks


def test_rank_trivial():
    F = FqField(5)
    assert mat_rank(FqMatrix.identity(F, 3)) == 3
    assert mat_rank(FqMatrix(F, [[0] * 3] * 3)) == 0


def test_rank_matches_minor_oracle():
    rng = random.Random(3)
    for F in (FqField(2), FqField(5), FqField(3, 2), FqField(3, 5), FqField(131)):
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = FqMatrix(
                F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
            )
            assert mat_rank(m) == minor_rank(m)


def dependent_rows(rng, F, n):
    """n rows drawn from k <= n random base rows: zero rows, repeated base
    rows and random combinations of them, so the rank is at most k."""
    base = [[rng.randrange(F.q) for _ in range(n)]
            for _ in range(rng.randint(0, n))]
    rows = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0 or not base:
            rows.append([0] * n)
        elif kind == 1:
            rows.append(list(rng.choice(base)))
        else:
            rows.append(_combine(F, n, [rng.randrange(F.q) for _ in base], base))
    return rows


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_rank_matches_solution_count_oracle(p, e):
    F = FqField(p, e)
    rng = random.Random(10 * p + e)
    for n in range(1, 7):
        mats = [FqMatrix.identity(F, n), FqMatrix(F, [[0] * n] * n),
                FqMatrix(F, [[1] * n] * n)]
        for _ in range(12 if F.q ** n <= 1024 else 3):
            mats.append(FqMatrix(F, dependent_rows(rng, F, n)))
            mats.append(FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)]
                                     for _ in range(n)]))
        for m in mats:
            r = solution_count_rank(m)
            assert mat_rank(m) == r and len(_echelon(F, m.rows, n)) == r
            assert m.is_invertible() == (r == n)


def test_rank_keeps_its_input_and_reads_columns_up_to_width():
    F = FqField(3)
    rows = ((0, 1, 2), (0, 2, 1), (0, 0, 0))
    assert _echelon(F, rows, 3) == [(0, 1, 2)] and _echelon(F, rows, 1) == []
    assert _echelon(F, [[1, 2, 0, 1], [2, 1, 0, 1]], 4) == [[1, 2, 0, 1],
                                                            [0, 0, 0, 2]]
    assert _echelon(F, [], 4) == []
    assert rows == ((0, 1, 2), (0, 2, 1), (0, 0, 0))
    # back-substitution leaves the pivot rows alone too
    pivots = _echelon(F, [[2, 1, 0], [1, 1, 1]], 3)
    kept = [list(r) for r in pivots]
    assert _reduce(F, pivots) == [(0, [1, 0, 2]), (1, [0, 1, 2])]
    assert pivots == kept


# fields for the reference comparison: prime, extension, and past
# TABLE_MAX_Q both prime (131) and extension (3^5 = 243)
REFERENCE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                    (5, 2), (131, 1), (3, 5)]


def test_elimination_matches_gauss_jordan_reference():
    # rref, nullspace, inverse and solve_form_functional against the
    # Gauss-Jordan reference on 10,000 seeded draws, with zero, dependent
    # and empty row lists
    rng = random.Random(30)
    fields = [FqField(p, e) for p, e in REFERENCE_FIELDS]
    singular = inconsistent = 0
    for draw in range(10_000):
        F = fields[draw % len(fields)]
        width, count = rng.randrange(0, 6), rng.randrange(0, 6)
        rows = [r[:width] for r in
                dependent_rows(rng, F, max(width, count))[:count]]
        assert rref(F, rows) == rref_reference(F, rows)
        assert nullspace(F, rows, width) == nullspace_reference(F, rows, width)
        n = rng.randrange(1, 5)
        m = FqMatrix(F, dependent_rows(rng, F, n) if draw % 2 else
                     [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        try:
            expected = inverse_reference(m)
        except Singular:
            singular += 1
            with pytest.raises(Singular, match="^matrix not invertible$"):
                m.inverse()
        else:
            assert m.inverse() == expected
        if F.e % 2 == 0 and draw % 3 == 0:
            space = BilinearSpace.hermitian(F, n)
        else:
            gram = FqMatrix(F, dependent_rows(rng, F, n))
            space = BilinearSpace(F, n, "trivial", gram)
        vectors = dependent_rows(rng, F, n)[:rng.randrange(0, n + 1)]
        phi = [rng.randrange(F.q) for _ in vectors]
        try:
            expected = solve_reference(space, vectors, phi)
        except Singular:
            inconsistent += 1
            with pytest.raises(Singular, match="^inconsistent functional"):
                solve_form_functional(space, vectors, phi)
        else:
            assert solve_form_functional(space, vectors, phi) == expected
    # each branch is taken thousands of times either way
    assert 3000 < singular < 7000 and 3000 < inconsistent < 7000


def test_zero_dimensional_matrix_and_spaces():
    F = FqField(5)
    empty = FqMatrix(F, [])
    assert mat_rank(empty) == 0 and empty.is_invertible()
    assert BilinearSpace(F, 0, "symmetric", empty).is_nondegenerate()
    assert Subspace(F, 0, []).dim == 0
    with pytest.raises(OutOfRange, match="^rank length needs n >= 1, got a "
                       "0x0 matrix$"):
        rank_length_mat(empty)
    with pytest.raises(OutOfRange, match="^Jordan length needs n >= 1, got a "
                       "0x0 matrix$"):
        jordan_length(empty)


def test_rank_length_examples():
    F3 = FqField(3)
    assert rank_length_mat(FqMatrix.identity(F3, 4)) == 0
    transvection = FqMatrix(F3, [[1, 1], [0, 1]])
    assert rank_length_mat(transvection) == Fraction(1, 2)
    F5 = FqField(5)
    minus_one = scalar_matrix(F5, 2, 4)
    assert rank_length_mat(minus_one) == 1
    with pytest.raises(Singular):
        rank_length_mat(FqMatrix(F5, [[0, 0], [0, 0]]))


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 3), (3, 2), (3, 5)])
def test_matrix_product_matches_polynomial_arithmetic(p, e):
    F = FqField(p, e)
    rng = random.Random(p + e)
    for n in range(1, 5):
        a, b = (FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)]
                             for _ in range(n)]) for _ in range(2))
        assert a * b == slow_product(F, a, b)


# ---------------------------------------------------------- Jordan length


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (2, 3), (3, 2), (2, 4), (5, 2), (7, 2)])
def test_jordan_length_matches_reference(p, e):
    F = FqField(p, e)
    rng = random.Random(100 * p + e)
    for n in range(1, 7):
        for _ in range(8):
            for g in (random_invertible(rng, F, n), with_eigenvalues(rng, F, n)):
                assert jordan_length(g) == jordan_length_reference(g)


@pytest.mark.parametrize("p,e", [(3, 5), (131, 1)])
def test_jordan_length_matches_reference_past_the_table_bound(p, e):
    F = FqField(p, e)  # q = 243 or 131: every entry computed when read
    rng = random.Random(p * e)
    for n in range(1, 4):
        for g in (random_invertible(rng, F, n), with_eigenvalues(rng, F, n)):
            assert jordan_length(g) == jordan_length_reference(g)


def test_charpoly_matches_determinant():
    rng = random.Random(8)
    for F in (FqField(2), FqField(7), FqField(2, 2), FqField(3, 2)):
        for n in range(1, 5):
            for _ in range(6):
                g = FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)]
                                 for _ in range(n)])
                chi = _charpoly(F, g.rows)
                assert len(chi) == n + 1 and chi[n] == 1
                for x in range(F.q):
                    value = 0
                    for c in reversed(chi):
                        value = F.add(F.mul(value, x), c)
                    assert value == _det(F, (scalar_matrix(F, n, x) - g).rows)


@pytest.mark.parametrize("g, expect", [
    # a scalar matrix: its one eigenvalue has the whole space as kernel
    (scalar_matrix(FqField(3, 2), 4, 7), (0, 4, 7)),
    # companions of x^2 + 1 over F_3 and x^3 + x + 1 over F_2: no eigenvalue
    (FqMatrix(FqField(3), [[0, 2], [1, 0]]), (1, 0, 1)),
    (FqMatrix(FqField(2), [[0, 0, 1], [1, 0, 1], [0, 1, 0]]), (1, 0, 1)),
    # 3 and 2 each have a plane as kernel: the smaller encoding wins
    (FqMatrix(FqField(5), [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0],
                           [0, 0, 0, 2]]), (Fraction(1, 2), 2, 2)),
    # a 2-block of 4 and a line of 1 over F_7: 1 and 4 tie at dimension 1
    (FqMatrix(FqField(7), [[4, 1, 0], [0, 4, 0], [0, 0, 1]]),
     (Fraction(2, 3), 1, 1)),
], ids=["scalar", "no-eigenvalue-F3", "no-eigenvalue-F2", "tie", "tie-block"])
def test_jordan_length_edge_cases(g, expect):
    assert jordan_length(g) == expect == jordan_length_reference(g)


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[0, 0], [0, 0]],
                                  [[1, 0, 0], [0, 0, 0], [0, 0, 3]]])
def test_singular_matrices_are_rejected(rows):
    g = FqMatrix(FqField(5), rows)
    with pytest.raises(Singular, match="^Jordan length needs an invertible "
                       "matrix$"):
        jordan_length(g)
    with pytest.raises(Singular, match="^rank length needs an invertible "
                       "matrix$"):
        rank_length_mat(g)


def test_jordan_length_scalar():
    F5 = FqField(5)
    lj, mg, alpha = jordan_length(scalar_matrix(F5, 3, 2))
    assert (lj, mg, alpha) == (0, 3, 2)


def test_jordan_length_diag():
    F5 = FqField(5)
    lj, mg, alpha = jordan_length(FqMatrix(F5, [[1, 0], [0, 2]]))
    assert lj == Fraction(1, 2)
    assert mg == 1
    assert alpha == 1  # tie broken to the smallest scalar


def test_jordan_length_jordan_block():
    F7 = FqField(7)
    g = FqMatrix(F7, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    lj, mg, alpha = jordan_length(g)
    assert (lj, mg, alpha) == (Fraction(1, 3), 2, 1)


def test_jordan_rank_inequalities_exhaustive_gl2():
    for q, (p, e) in [(3, (3, 1)), (5, (5, 1))]:
        F = FqField(p, e)
        for rows in itertools.product(
            itertools.product(range(F.q), repeat=2), repeat=2
        ):
            m = FqMatrix(F, rows)
            if not m.is_invertible():
                continue
            lr = rank_length_mat(m)
            lj, _, _ = jordan_length(m)
            assert lj <= lr
            if lr <= Fraction(1, 2):
                assert lj == lr
            assert lj >= min(lr, 1 - lr)


def test_jordan_center_quotient_properties():
    F5 = FqField(5)
    rng = random.Random(11)
    for _ in range(50):
        g = random_invertible(rng, F5, 3)
        lj, _, _ = jordan_length(g)
        assert (lj == 0) == all(
            g.rows[i][j] == (g.rows[0][0] if i == j else 0)
            for i in range(3)
            for j in range(3)
        )
        x = random_invertible(rng, F5, 3)
        conj = x * g * x.inverse()
        assert jordan_length(conj)[0] == lj
        for z in F5.units():
            assert jordan_length(scalar_matrix(F5, 3, z) * g)[0] == lj


def gl_generators(F, n):
    """Standard generating set of GL_n(q): a transvection, an n-cycle
    permutation matrix, and diag(gamma, 1, ..., 1) for a generator gamma
    of the unit group."""
    gens = []
    t = FqMatrix.identity(F, n).rows
    t = [list(r) for r in t]
    t[0][1 % n] = 1 if n > 1 else t[0][0]
    gens.append(FqMatrix(F, t))
    cyc = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    gens.append(FqMatrix(F, cyc))
    gamma = next(
        a
        for a in F.units()
        if len({F.pow(a, k) for k in range(F.q - 1)}) == F.q - 1
    )
    d = [[gamma if i == j == 0 else (1 if i == j else 0) for j in range(n)]
         for i in range(n)]
    gens.append(FqMatrix(F, d))
    return gens


def test_ratio_study_positive_finite():
    # empirical l_c / l_J over small GL_n(q), noncentral elements only
    import math

    gl_orders = {(3, 2): 48, (5, 2): 480, (2, 3): 168, (3, 3): 11232}
    for (p, n), expected_order in gl_orders.items():
        F = FqField(p)
        gens = gl_generators(F, n)
        frontier = [FqMatrix.identity(F, n)]
        seen = {frontier[0].rows}
        elements = []
        while frontier:
            cur = frontier.pop()
            elements.append(cur)
            for g in gens:
                nxt = cur * g
                if nxt.rows not in seen:
                    seen.add(nxt.rows)
                    frontier.append(nxt)
        order = len(elements)
        assert order == expected_order
        rng = random.Random(p + n)
        sample = elements if order <= 600 else rng.sample(elements, 15)
        ratios = []
        for g in sample:
            lj, _, _ = jordan_length(g)
            if lj == 0:
                continue
            centralizer = sum(1 for x in elements if x * g == g * x)
            class_size = order // centralizer
            lc = math.log(class_size) / math.log(order)
            ratios.append(lc / float(lj))
        assert ratios
        assert min(ratios) > 0
        assert max(ratios) < float("inf")


# ----------------------------------------------------------- formed spaces


def test_char_two_symmetric_excluded():
    F2 = FqField(2)
    with pytest.raises(CharTwoSymmetric):
        BilinearSpace(F2, 2, "symmetric", FqMatrix.identity(F2, 2))


def test_radical_nondegenerate_subspace_is_zero():
    F3 = FqField(3)
    sp = BilinearSpace.symplectic(F3, 4)
    w = Subspace(F3, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])  # hyperbolic pair
    assert radical(sp, w).dim == 0


def test_radical_isotropic_line():
    F3 = FqField(3)
    sp = BilinearSpace.symplectic(F3, 2)
    w = Subspace(F3, 2, [[1, 0]])
    assert radical(sp, w).basis == [[1, 0]]


def test_radical_matches_bruteforce():
    F5 = FqField(5)
    sp = BilinearSpace.symplectic(F5, 6)
    rng = random.Random(23)
    for _ in range(20):
        k = rng.randrange(1, 4)
        vecs = [[rng.randrange(5) for _ in range(6)] for _ in range(k)]
        w = Subspace(F5, 6, vecs)
        rad = radical(sp, w)
        # brute force: all vectors of W orthogonal to all of W
        wvecs = span_vectors(F5, w.basis, 6)
        brute = {
            v
            for v in wvecs
            if all(sp.form(u, list(v)) == 0 for u in w.basis)
        }
        assert span_vectors(F5, rad.basis, 6) == brute


def test_solve_form_functional():
    F7 = FqField(7)
    sp = BilinearSpace(F7, 3, "symmetric", FqMatrix.identity(F7, 3))
    w = Subspace(F7, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    v = solve_form_functional(sp, w.basis, [1, 0, 0])
    assert v == [1, 0, 0]
    rng = random.Random(5)
    for _ in range(30):
        vecs = [[rng.randrange(7) for _ in range(3)] for _ in range(2)]
        w = Subspace(F7, 3, vecs)
        phi = [rng.randrange(7) for _ in range(w.dim)]
        v = solve_form_functional(sp, w.basis, phi)
        for b, t in zip(w.basis, phi):
            assert sp.form(b, v) == t


def test_extend_nondegenerate_w_already_nondegenerate():
    F3 = FqField(3)
    sp = BilinearSpace.symplectic(F3, 4)
    w = Subspace(F3, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    wprime, wdbl = extend_to_nondegenerate(sp, w)
    assert wdbl.dim == 0
    assert wprime.dim == 2


def test_extend_nondegenerate_isotropic_line_exhaustive_f3():
    F3 = FqField(3)
    sp = BilinearSpace.symplectic(F3, 2)
    for vec in itertools.product(range(3), repeat=2):
        if vec == (0, 0):
            continue
        w = Subspace(F3, 2, [list(vec)])
        wprime, wdbl = extend_to_nondegenerate(sp, w)
        assert wdbl.dim == 1
        assert wprime.dim == 0


@pytest.mark.parametrize(
    "kind,p,e,n",
    [("symplectic", 3, 1, 6), ("symplectic", 5, 1, 4), ("hermitian", 3, 2, 5)],
)
def test_extend_nondegenerate_random(kind, p, e, n):
    F = FqField(p, e)
    sp = (
        BilinearSpace.symplectic(F, n)
        if kind == "symplectic"
        else BilinearSpace.hermitian(F, n)
    )
    rng = random.Random(n * p)
    for _ in range(40):
        k = rng.randrange(0, n)
        vecs = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        w = Subspace(F, n, vecs)
        # postconditions are asserted inside extend_to_nondegenerate
        extend_to_nondegenerate(sp, w)


class HypothesisViolated(ValueError):
    pass


def is_isometry(space, g):
    """(gu, gv) = (u, v) for all u, v, via the Gram identity."""
    gs = g.map_entries(space.sigma) if space.form_kind == HERMITIAN else g
    return g.transpose() * space.gram * gs == space.gram


def fixed_space(g):
    """ker(1 - g) as a subspace."""
    return Subspace(g.field, g.n, nullspace(g.field, _shift(g, 1), g.n))


def common_fix_restriction(g, h, space):
    """U = W'' + W-perp for W = ker(1-g) cap ker(1-h), with
    dim U <= 2 rank(1-g) + 2 rank(1-h); g and h fix U-perp pointwise.
    Exercises extend_to_nondegenerate on the subspaces fixed by two
    isometries.
    """
    F, n = space.field, space.n
    if not (is_isometry(space, g) and is_isometry(space, h)):
        raise HypothesisViolated("g, h must be isometries")
    for m in (g, h):
        lj, _, _ = jordan_length(m)
        if lj != rank_length_mat(m):
            raise HypothesisViolated("rank length must equal Jordan length")
    w = fixed_space(g).intersect(fixed_space(h))
    wprime, wdblprime = extend_to_nondegenerate(space, w)
    wperp = orthogonal_complement(space, w)
    u = wdblprime.add(wperp)
    rg, rh = (len(rref(F, _shift(m, 1))) for m in (g, h))
    dims = {
        "n": n,
        "dim_w": w.dim,
        "dim_rad": radical(space, w).dim,
        "dim_u": u.dim,
        "rank_1mg": rg,
        "rank_1mh": rh,
        "bound": 2 * rg + 2 * rh,
    }
    if u.dim > dims["bound"]:
        raise HypothesisViolated(f"dim U = {u.dim} exceeds {dims['bound']}")
    uperp = orthogonal_complement(space, u)
    for m in (g, h):
        for b in uperp.basis:
            img = _products(F, m.rows, [b])
            assert [r[0] for r in img] == list(b), "element moves U-perp"
    return u, dims


def symplectic_transvection(space, v, c):
    """x -> x + c (x, v) v, an isometry of a symplectic space."""
    F, n = space.field, space.n
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        cols.append(_combine(F, n, [1, F._mul[c][space.form(e, v)]], [e, v]))
    return FqMatrix(F, list(zip(*cols)))


def test_common_fix_identity():
    F3 = FqField(3)
    sp = BilinearSpace.symplectic(F3, 4)
    one = FqMatrix.identity(F3, 4)
    u, dims = common_fix_restriction(one, one, sp)
    assert u.dim == 0
    assert dims["bound"] == 0


def test_common_fix_transvections():
    F3 = FqField(3)
    sp = BilinearSpace.symplectic(F3, 4)
    g = symplectic_transvection(sp, [1, 0, 0, 0], 1)
    h = symplectic_transvection(sp, [0, 1, 0, 0], 1)
    u, dims = common_fix_restriction(g, h, sp)
    assert dims["dim_u"] <= 4


def test_common_fix_random_sp6():
    F3 = FqField(3)
    sp = BilinearSpace.symplectic(F3, 6)
    rng = random.Random(17)
    for _ in range(15):
        mats = []
        for _ in range(2):
            m = FqMatrix.identity(F3, 6)
            for _ in range(rng.randrange(1, 3)):
                v = [rng.randrange(3) for _ in range(6)]
                if not any(v):
                    v[0] = 1
                m = m * symplectic_transvection(sp, v, rng.randrange(1, 3))
            mats.append(m)
        g, h = mats
        try:
            u, dims = common_fix_restriction(g, h, sp)
        except HypothesisViolated:
            continue
        assert dims["dim_u"] <= dims["bound"]


def test_transvections_are_isometries():
    F5 = FqField(5)
    sp = BilinearSpace.symplectic(F5, 4)
    rng = random.Random(2)
    for _ in range(20):
        v = [rng.randrange(5) for _ in range(4)]
        if not any(v):
            continue
        t = symplectic_transvection(sp, v, rng.randrange(1, 5))
        assert is_isometry(sp, t)


def test_orthogonal_complement_dim():
    F5 = FqField(5)
    sp = BilinearSpace.symplectic(F5, 6)
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randrange(0, 4)
        w = Subspace(F5, 6, [[rng.randrange(5) for _ in range(6)] for _ in range(k)])
        assert orthogonal_complement(sp, w).dim == 6 - w.dim


def test_rref_idempotent():
    F3 = FqField(3)
    rows = [[1, 2, 0], [2, 1, 1], [0, 0, 2]]
    r1 = rref(F3, rows)
    assert rref(F3, r1) == r1


# ------------------------------------------------------------ input checks


@pytest.mark.parametrize("p,e", [(2, 0), (2, 17), (65537, 1), (3, 11)])
def test_field_size_out_of_range(p, e):
    with pytest.raises(ValueError, match="^field size out of range$"):
        FqField(p, e)


def test_reducible_modulus_is_rejected():
    # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ValueError, match="^modulus is reducible$"):
        FqField(2, 2, (1, 0, 1))


def test_field_inverse_of_zero():
    with pytest.raises(ZeroDivisionError, match="^field inverse of zero$"):
        FqField(5).inv(0)


@pytest.mark.parametrize("p,e", [(5, 1), (2, 3)])
def test_conj_needs_even_degree(p, e):
    with pytest.raises(ValueError, match="^conjugation needs an even "
                       "extension degree$"):
        FqField(p, e).conj(1)


@pytest.mark.parametrize("rows, message", [
    ([[1, 2]], "^matrix must be square, n <= 64$"),
    ([[1, 0], [0]], "^matrix must be square, n <= 64$"),
    ([[0] * 65] * 65, "^matrix must be square, n <= 64$"),
    ([[1, 5], [0, 1]], "^entries outside field$"),
    ([[1, -1], [0, 1]], "^entries outside field$"),
])
def test_bad_matrices_are_rejected(rows, message):
    with pytest.raises(ValueError, match=message):
        FqMatrix(FqField(5), rows)


def test_matrix_hash_and_singular_inverse():
    F = FqField(5)
    a = FqMatrix(F, [[1, 2], [3, 4]])
    assert hash(a) == hash(FqMatrix(F, ((1, 2), (3, 4))))
    assert len({a, a.transpose().transpose()}) == 1
    with pytest.raises(Singular, match="^matrix not invertible$"):
        FqMatrix(F, [[1, 2], [2, 4]]).inverse()


def test_bad_forms_are_rejected():
    F5, F25 = FqField(5), FqField(5, 2)
    one = FqMatrix.identity(F5, 2)
    with pytest.raises(ValueError, match="^unknown form kind 'quadratic'$"):
        BilinearSpace(F5, 2, "quadratic", one)
    with pytest.raises(ValueError, match="^Hermitian forms need a square field$"):
        BilinearSpace(F5, 2, HERMITIAN, one)
    for kind, field, rows in [("symmetric", F5, [[1, 2], [3, 1]]),
                              (SYMPLECTIC, F5, [[0, 1], [1, 0]]),
                              (SYMPLECTIC, F5, [[1, 1], [4, 0]]),
                              (HERMITIAN, F25, [[5, 0], [0, 1]])]:
        with pytest.raises(ValueError, match="^Gram matrix does not match the "
                           "form kind$"):
            BilinearSpace(field, 2, kind, FqMatrix(field, rows))
    with pytest.raises(ValueError, match="^symplectic spaces are even "
                       "dimensional$"):
        BilinearSpace.symplectic(FqField(3), 3)
    # a trivial form takes any Gram matrix
    trivial = BilinearSpace(F5, 2, "trivial", FqMatrix(F5, [[1, 2], [3, 1]]))
    assert not trivial.is_nondegenerate()


def test_solve_form_functional_raises():
    F3 = FqField(3)
    sp = BilinearSpace(F3, 2, "symmetric", FqMatrix.identity(F3, 2))
    with pytest.raises(ValueError, match="^phi must list one value per basis "
                       "vector$"):
        solve_form_functional(sp, [[1, 0]], [1, 0])
    # dependent vectors with consistent values: the zero row is skipped
    assert solve_form_functional(sp, [[1, 0], [2, 0]], [1, 2]) == [1, 0]
    degenerate = BilinearSpace(F3, 2, "symmetric", FqMatrix(F3, [[1, 0], [0, 0]]))
    with pytest.raises(Singular, match="^inconsistent functional on a "
                       "degenerate form$"):
        solve_form_functional(degenerate, [[0, 1]], [1])
    with pytest.raises(ValueError, match="^ambient space must be nondegenerate$"):
        extend_to_nondegenerate(degenerate, Subspace(F3, 2, [[1, 0]]))


def test_solve_form_functional_checks_its_substitution(monkeypatch):
    # a planted fault: the system is built from b in place of b G
    F3 = FqField(3)
    sp = BilinearSpace.symplectic(F3, 2)
    monkeypatch.setattr(fqlin, "_times_gram", lambda space, b: list(b))
    with pytest.raises(InvariantFailed, match="^substitution check failed$"):
        solve_form_functional(sp, [[1, 0]], [1])


# planted (W, rad, W', W'') over F_3^2, each failing exactly one check of
# _check_extension: the standard symplectic form, or a Gram matrix of the
# given kind; "W' degenerate" follows from the checks before it, so it
# needs a radical that returns its argument
PLANTED_EXTENSIONS = [
    (None, [], [[0, 1]], [], [], "dim W'' != dim rad W"),
    (None, [[1, 2]], [], [], [], "W' is not a complement of rad in W"),
    (None, [[1, 0]], [[0, 1]], [], [[1, 0]], "W'' meets W-perp"),
    (("trivial", [[0, 2], [0, 2]]), [[1, 2]], [], [[0, 1]], [],
     "U + W' does not fill V"),
    (("trivial", [[1, 1], [0, 2]]), [[0, 1]], [], [[1, 0]], [], "U meets W'"),
    (None, [[1, 2]], [], [[1, 1]], [], "U not perp W'"),
    (("symmetric", [[0, 0], [0, 0]]), [], [], [], [], "U degenerate"),
    (None, [[1, 0], [0, 1]], [], [[1, 0], [0, 1]], [], "W' degenerate"),
]


@pytest.mark.parametrize("form, w, rad, wprime, wdbl, message",
                         PLANTED_EXTENSIONS,
                         ids=[case[-1] for case in PLANTED_EXTENSIONS])
def test_check_extension_rejects_planted_faults(monkeypatch, form, w, rad,
                                                wprime, wdbl, message):
    F3 = FqField(3)
    sp = (BilinearSpace.symplectic(F3, 2) if form is None else
          BilinearSpace(F3, 2, form[0], FqMatrix(F3, form[1])))
    if message == "W' degenerate":
        monkeypatch.setattr(fqlin, "radical", lambda space, u: u)
    spaces = [Subspace(F3, 2, basis) for basis in (w, rad, wprime, wdbl)]
    with pytest.raises(InvariantFailed, match=f"^{re.escape(message)}$"):
        _check_extension(sp, *spaces)
