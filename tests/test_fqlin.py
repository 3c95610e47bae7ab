"""Tests for finite-field linear algebra, Jordan lengths, formed spaces."""

import itertools
import random
from fractions import Fraction

import pytest

from lengthlab.fqlin import (
    HERMITIAN,
    SYMPLECTIC,
    BilinearSpace,
    CharTwoSymmetric,
    FqField,
    FqMatrix,
    HypothesisViolated,
    Singular,
    Subspace,
    _is_prime,
    common_fix_restriction,
    extend_to_nondegenerate,
    fixed_space,
    jordan_length,
    mat_rank,
    matrix_from_json,
    matrix_to_json,
    orthogonal_complement,
    radical,
    rank_length_mat,
    rref,
    solve_form_functional,
    symplectic_transvection,
)

# ---------------------------------------------------------------- oracles


def minor_rank(m: FqMatrix) -> int:
    """Rank via largest nonvanishing minor (n <= 4 only)."""
    F, n = m.field, m.n
    best = 0
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[m.rows[i][j] for j in cols] for i in rows]
                if _det(F, sub) != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


def _det(F, rows):
    k = len(rows)
    if k == 1:
        return rows[0][0]
    out = 0
    sign = 1
    for j in range(k):
        a = rows[0][j]
        if a:
            sub = [[r[jj] for jj in range(k) if jj != j] for r in rows[1:]]
            term = F.mul(a, _det(F, sub))
            out = F.add(out, term if sign > 0 else F.neg(term))
        sign = -sign
    return out


def span_vectors(F, basis, n):
    """All vectors in the span of a basis (small fields only)."""
    out = []
    for coeffs in itertools.product(F.elements(), repeat=len(basis)):
        v = [0] * n
        for c, b in zip(coeffs, basis):
            for j in range(n):
                v[j] = F.add(v[j], F.mul(c, b[j]))
        out.append(tuple(v))
    return set(out)


def random_invertible(rng, F, n):
    while True:
        m = FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


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


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (7, 2)])
def test_field_axioms(p, e):
    F = FqField(p, e)
    rng = random.Random(7)
    elems = list(F.elements())
    sample = elems if F.q <= 16 else rng.sample(elems, 16)
    for a in sample:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in sample[:6]:
            assert F.mul(a, b) == F.mul(b, a)
            for c in sample[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_frobenius_involution():
    F9 = FqField(3, 2)
    for a in F9.elements():
        assert F9.conj(F9.conj(a)) == a
    # fixed field of x -> x^3 is F3
    fixed = [a for a in F9.elements() if F9.conj(a) == a]
    assert len(fixed) == 3


# ----------------------------------------------------------------- ranks


def test_rank_trivial():
    F = FqField(5)
    assert mat_rank(FqMatrix.identity(F, 3)) == 3
    assert mat_rank(FqMatrix(F, [[0] * 3] * 3)) == 0


def test_rank_matches_minor_oracle():
    rng = random.Random(3)
    for F in (FqField(2), FqField(5), FqField(3, 2)):
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = FqMatrix(
                F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
            )
            assert mat_rank(m) == minor_rank(m)


def test_rank_length_examples():
    F3 = FqField(3)
    assert rank_length_mat(FqMatrix.identity(F3, 4)) == 0
    transvection = FqMatrix(F3, [[1, 1], [0, 1]])
    assert rank_length_mat(transvection) == Fraction(1, 2)
    F5 = FqField(5)
    minus_one = FqMatrix.scalar(F5, 2, 4)
    assert rank_length_mat(minus_one) == 1
    with pytest.raises(Singular):
        rank_length_mat(FqMatrix(F5, [[0, 0], [0, 0]]))


# ---------------------------------------------------------- Jordan length


def test_jordan_length_scalar():
    F5 = FqField(5)
    lj, mg, alpha = jordan_length(FqMatrix.scalar(F5, 3, 2))
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
            itertools.product(F.elements(), repeat=2), repeat=2
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
            assert jordan_length(FqMatrix.scalar(F5, 3, z) * g)[0] == lj


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
    v = solve_form_functional(sp, w, [1, 0, 0])
    assert v == [1, 0, 0]
    rng = random.Random(5)
    for _ in range(30):
        vecs = [[rng.randrange(7) for _ in range(3)] for _ in range(2)]
        w = Subspace(F7, 3, vecs)
        phi = [rng.randrange(7) for _ in range(w.dim)]
        v = solve_form_functional(sp, w, phi)
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
        assert sp.is_isometry(t)


def test_orthogonal_complement_dim():
    F5 = FqField(5)
    sp = BilinearSpace.symplectic(F5, 6)
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randrange(0, 4)
        w = Subspace(F5, 6, [[rng.randrange(5) for _ in range(6)] for _ in range(k)])
        assert orthogonal_complement(sp, w).dim == 6 - w.dim


# ------------------------------------------------------------------- JSON


def test_matrix_json_roundtrip():
    F9 = FqField(3, 2)
    rng = random.Random(1)
    m = FqMatrix(F9, [[rng.randrange(9) for _ in range(3)] for _ in range(3)])
    obj = matrix_to_json(m)
    assert obj["p"] == 3 and obj["e"] == 2 and obj["n"] == 3
    m2 = matrix_from_json(obj)
    assert m2 == m


def test_rref_idempotent():
    F3 = FqField(3)
    rows = [[1, 2, 0], [2, 1, 1], [0, 0, 2]]
    r1 = rref(F3, rows)
    assert rref(F3, r1) == r1
