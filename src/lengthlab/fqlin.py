"""Finite-field linear algebra: rank/Jordan lengths and formed spaces.

Fields F_q (q = p^e <= 2^16) use the lexicographically smallest monic
irreducible modulus; elements are integers 0..q-1 encoding coefficient
vectors in base p (constant coefficient in the lowest digit). Matrices
are dense tuples of tuples, n <= 64. Hermitian forms live over F_{q^2}
with the involution x -> x^q. A row reduction is one forward
elimination (_echelon, whose pivot count is the rank) and, where the
reduced form is needed, one back-substitution on its pivots (_reduce).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import InvariantFailed, LengthlabError, OutOfRange

MAX_Q = 1 << 16
MAX_N = 64
# fields up to this size keep q x q tables (16384 entries each at most)
TABLE_MAX_Q = 128

TRIVIAL = "trivial"
SYMMETRIC = "symmetric"
SYMPLECTIC = "symplectic"
HERMITIAN = "hermitian"


class Singular(LengthlabError, ValueError):
    pass


class CharTwoSymmetric(LengthlabError, ValueError):
    pass


# Miller-Rabin with these bases decides primality of every n below
# 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86, 2017); above, a
# strong Lucas test completes the Baillie-PSW test, which no known
# composite passes
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES, then a strong Lucas test from
    _MR_EXACT on: exact below _MR_EXACT, Baillie-PSW above."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        for _ in range(r):
            if x in (1, n - 1):
                break
            x = x * x % n
        else:
            return False
    return n < _MR_EXACT or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4 (Baillie and Wagstaff, Math. Comp. 35, 1980)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # n > 41 >= |D| shares a factor with D
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, r = n + 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q  # U_k, V_k, Q^k at k = 1
    for bit in bin(d)[3:]:  # k -> 2k, then 2k -> 2k + 1 on a set bit
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(r - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# -------------------------------------------------------------- the field


class _Row:
    """Row a of a field table above TABLE_MAX_Q: row[b] = op(a, b) % q.
    op is integer +, - or * in a prime field (q = p), and the field
    operation itself, already reduced, in an extension."""

    __slots__ = ("op", "a", "q")

    def __init__(self, op: Callable[[int, int], int], a: int, q: int):
        self.op, self.a, self.q = op, a, q

    def __getitem__(self, b: int) -> int:
        return self.op(self.a, b) % self.q


class _Lazy(dict):
    """A field table above TABLE_MAX_Q: t[a] = make(a), made on the first
    read and kept (at most q entries)."""

    def __init__(self, make: Callable[[int], object]):
        self.make = make

    def __missing__(self, a: int):
        value = self[a] = self.make(a)
        return value


# (add, sub, mul, inv) of each field built so far, by (p, e, modulus)
_TABLES: Dict[Tuple, tuple] = {}


def _digits(a: int, p: int, count: int) -> List[int]:
    """The lowest count base-p digits of a, lowest first."""
    return [a // p**i % p for i in range(count)]


class FqField:
    """F_{p^e} with elements encoded as base-p digit integers; arithmetic
    reads add, sub, mul and inverse tables built once per field and shared
    by equal fields (above TABLE_MAX_Q, t[a][b] computes each entry and
    keeps only the rows and inverses it has read)."""

    def __init__(self, p: int, e: int = 1, modulus: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1 or p**e > MAX_Q:
            raise ValueError("field size out of range")
        self.p = p
        self.e = e
        self.q = p**e
        if modulus is not None:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[e] != 1:
                raise ValueError("modulus must be monic of degree e")
        if e == 1:
            # every x + c gives the same arithmetic mod p, so a prime field
            # keeps the one modulus x and shares its tables and equality
            self.modulus = (0, 1)
        else:
            if modulus is None:
                modulus = self._smallest_irreducible()
            elif not self._poly_irreducible(modulus):
                raise ValueError("modulus is reducible")
            self.modulus = modulus
        key = (p, e, self.modulus)
        if key not in _TABLES:
            _TABLES[key] = self._tables()
        self._add, self._sub, self._mul, self._inv = _TABLES[key]

    # polynomial helpers (coefficient tuples over F_p, low degree first)

    def _poly_mod(self, a: List[int], m: Sequence[int]) -> List[int]:
        p = self.p
        a = list(a)
        dm = len(m) - 1
        while len(a) > dm:
            lead = a[-1]
            if lead:
                shift = len(a) - 1 - dm
                for i in range(dm + 1):
                    a[shift + i] = (a[shift + i] - lead * m[i]) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    def _poly_mulmod(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        p = self.p
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return self._poly_mod(out, self.modulus)

    def _poly_irreducible(self, m: Sequence[int]) -> bool:
        # trial division by all monic polynomials of degree <= deg/2
        p = self.p
        return all(self._poly_mod(m, _digits(k, p, d) + [1])
                   for d in range(1, (len(m) - 1) // 2 + 1) for k in range(p**d))

    def _smallest_irreducible(self) -> Tuple[int, ...]:
        p, e = self.p, self.e
        return next(m for m in (tuple(_digits(k, p, e) + [1]) for k in range(p**e))
                    if self._poly_irreducible(m))

    # element encoding

    def _encode(self, coeffs: Sequence[int]) -> int:
        a = 0
        for c in reversed(list(coeffs) + [0] * (self.e - len(coeffs))):
            a = a * self.p + (c % self.p)
        return a

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b, digit by digit mod p."""
        p, e = self.p, self.e
        return self._encode([(x + sign * y) % p
                             for x, y in zip(_digits(a, p, e), _digits(b, p, e))])

    def _mul_slow(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (a * b) % p
        return self._encode(self._poly_mulmod(_digits(a, p, e), _digits(b, p, e)))

    def _tables(self) -> tuple:
        """(add, sub, mul, inv): add[a][b] = a + b and so on, inv[0] = 0.
        Above TABLE_MAX_Q each entry is computed when it is read."""
        p, q = self.p, self.q
        if q > TABLE_MAX_Q:
            if self.e == 1:
                ops = (operator.add, operator.sub, operator.mul)
                inv = partial(pow, exp=q - 2, mod=q)
            else:
                ops = (partial(self._digitwise, sign=1),
                       partial(self._digitwise, sign=-1), self._mul_slow)
                inv = partial(self.pow, k=q - 2)
            return tuple(_Lazy(partial(_Row, op, q=q)) for op in ops) + (_Lazy(inv),)
        def digitwise(s: int) -> List[List[int]]:
            # a + s b, one base-p digit at a time: a = a_0 + p a'
            one = t = [[(a + s * b) % p for b in range(p)] for a in range(p)]
            for size in (p**k for k in range(2, self.e + 1)):
                digits = [(b % p, b // p) for b in range(size)]
                t = [[one[a % p][b0] + p * t[a // p][b1] for b0, b1 in digits]
                     for a in range(size)]
            return t

        # mul and inv from the powers of a generator of the unit group
        for g in range(1, q):
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self._mul_slow(x, g)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        exp2 = exp * 2
        mul = [[0] * q] + [[0] + [exp2[i + j] for j in log[1:]] for i in log[1:]]
        return digitwise(1), digitwise(-1), mul, [0] + [exp[-i] for i in log[1:]]

    # arithmetic

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._sub[a][b]

    def neg(self, a: int) -> int:
        return self._sub[0][a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            return 0 if k else 1
        out, base = 1, a
        k %= self.q - 1
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self._inv[a]

    def conj(self, a: int) -> int:
        """The involution x -> x^(p^(e/2)) of F_{p^e}, e even: the Frobenius
        power whose fixed field is F_{p^(e/2)}."""
        if self.e % 2 != 0:
            raise ValueError("conjugation needs an even extension degree")
        return self.pow(a, self.p ** (self.e // 2))

    def units(self):
        return range(1, self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))


# ------------------------------------------------------------ the matrix


class FqMatrix:
    __slots__ = ("field", "n", "rows")

    def __init__(self, field: FqField, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(x for x in r) for r in rows)
        n = len(rows)
        if n > MAX_N or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square, n <= 64")
        if any(not (0 <= x < field.q) for r in rows for x in r):
            raise ValueError("entries outside field")
        self.field = field
        self.n = n
        self.rows = rows

    @classmethod
    def _trusted(cls, field: FqField, rows: tuple) -> "FqMatrix":
        # rows already a square tuple of tuples of field elements
        m = cls.__new__(cls)
        m.field, m.n, m.rows = field, len(rows), rows
        return m

    @classmethod
    def identity(cls, field: FqField, n: int) -> "FqMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __mul__(self, other: "FqMatrix") -> "FqMatrix":
        F = self.field
        return FqMatrix._trusted(F, _products(F, self.rows, list(zip(*other.rows))))

    def __sub__(self, other: "FqMatrix") -> "FqMatrix":
        sub = self.field._sub
        return FqMatrix._trusted(self.field, tuple(
            tuple(sub[a][b] for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, FqMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.field, list(zip(*self.rows)))

    def map_entries(self, fn: Callable[[int], int]) -> "FqMatrix":
        return FqMatrix(self.field, [[fn(x) for x in r] for r in self.rows])

    def inverse(self) -> "FqMatrix":
        F, n = self.field, self.n
        aug = [list(r) + [1 if i == j else 0 for j in range(n)]
               for i, r in enumerate(self.rows)]
        reduced = _reduce(F, _echelon(F, aug, n))
        if len(reduced) < n:
            raise Singular("matrix not invertible")
        return FqMatrix(F, [r[n:] for _, r in reduced])

    def is_invertible(self) -> bool:
        return mat_rank(self) == self.n


def _echelon(F: FqField, rows: Sequence[Sequence[int]], width: int) -> list:
    """Forward elimination on the first width columns, leaving rows alone
    and dropping each zero row as it appears: the pivot rows in column
    order, as many as the rank."""
    sub, mul, inv = F._sub, F._mul, F._inv
    rows = [r for r in rows if any(r)]
    pivots = []
    for col in range(width):
        for i, pivot in enumerate(rows):
            if pivot[col]:
                break
        else:
            continue
        del rows[i]
        pivots.append(pivot)
        scale, kept = mul[inv[pivot[col]]], []
        for r in rows:
            c = r[col]
            if c:  # r -= (c / pivot[col]) pivot
                times = mul[scale[c]]
                r = [sub[x][times[y]] for x, y in zip(r, pivot)]
                if not any(r):
                    continue
            kept.append(r)
        rows = kept
    return pivots


def _reduce(F: FqField, pivots: list) -> List[tuple]:
    """The reduced row echelon form of _echelon's pivot rows, as new
    (column, row) pairs: last first, each pivot scaled to 1 and cleared
    from the rows above, which adds nothing back to the columns below."""
    sub, mul, inv = F._sub, F._mul, F._inv
    rows, cols, col = list(pivots), [], -1
    for r in rows:  # a pivot is the first nonzero entry past the last one
        col = next(j for j in range(col + 1, len(r)) if r[j])
        cols.append(col)
    for k in range(len(rows) - 1, -1, -1):
        col = cols[k]
        scale = mul[inv[rows[k][col]]]
        pivot = rows[k] = [scale[x] for x in rows[k]]
        for i in range(k):
            c = rows[i][col]
            if c:
                times_c = mul[c]
                rows[i] = [sub[x][times_c[y]] for x, y in zip(rows[i], pivot)]
    return list(zip(cols, rows))


def rref(F: FqField, vectors: Sequence[Sequence[int]]) -> List[List[int]]:
    """Reduced row echelon basis (zero rows dropped)."""
    width = len(vectors[0]) if vectors else 0
    return [r for _, r in _reduce(F, _echelon(F, vectors, width))]


def mat_rank(m: FqMatrix) -> int:
    return len(_echelon(m.field, m.rows, m.n))


def nullspace(F: FqField, rows: Sequence[Sequence[int]], width: int) -> List[List[int]]:
    """Basis of {v : rows @ v = 0} for an m x width coefficient matrix."""
    reduced = _reduce(F, _echelon(F, rows, width))
    pivots = {col for col, _ in reduced}
    free = [j for j in range(width) if j not in pivots]
    neg = F._sub[0]
    basis = []
    for fcol in free:
        v = [0] * width
        v[fcol] = 1
        for pcol, r in reduced:
            v[pcol] = neg[r[fcol]]
        basis.append(v)
    return basis


def _shift(g: FqMatrix, alpha: int) -> List[List[int]]:
    """The rows of alpha - g."""
    sub = g.field._sub
    return [[sub[alpha if i == j else 0][x] for j, x in enumerate(r)]
            for i, r in enumerate(g.rows)]


def rank_length_mat(g: FqMatrix) -> Fraction:
    """rank(1 - g)/n for invertible g."""
    if not g.n:
        raise OutOfRange("rank length needs n >= 1, got a 0x0 matrix")
    if not g.is_invertible():
        raise Singular("rank length needs an invertible matrix")
    return Fraction(len(_echelon(g.field, _shift(g, 1), g.n)), g.n)


def _charpoly(F: FqField, rows: Sequence[Sequence[int]]) -> List[int]:
    """det(x - m), low degree first, of the square matrix m with these rows.

    m is brought to upper Hessenberg form h by similarity. The polynomials
    P_k of its leading k x k blocks then satisfy P_0 = 1 and
    P_{k+1} = x P_k - sum_{i<=k} h[i][k] h[k][k-1] ... h[i+1][i] P_i
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9;
    valid over any field).
    """
    add, sub, mul, inv = F._add, F._sub, F._mul, F._inv
    n = len(rows)
    h = [list(r) for r in rows]
    for m in range(1, n - 1):
        for sel in range(m, n):
            if h[sel][m - 1]:
                break
        else:
            continue
        if sel != m:
            h[sel], h[m] = h[m], h[sel]
            for r in h:
                r[sel], r[m] = r[m], r[sel]
        t = inv[h[m][m - 1]]
        for i in range(m + 1, n):
            u = mul[h[i][m - 1]][t]
            if u:  # row i -= u row m, then column m += u column i
                times_u = mul[u]
                h[i] = [sub[x][times_u[y]] for x, y in zip(h[i], h[m])]
                for r in h:
                    r[m] = add[r[m]][times_u[r[i]]]
    polys = [[1]]
    for k in range(n):
        out, t = [0] + polys[k], 1
        for i in range(k, -1, -1):  # t = h[k][k-1] ... h[i+1][i]
            times_c = mul[mul[t][h[i][k]]]
            for j, c in enumerate(polys[i]):
                out[j] = sub[out[j]][times_c[c]]
            t = mul[t][h[i][i - 1]] if i else 0
            if not t:
                break
        polys.append(out)
    return polys[n]


def jordan_length(g: FqMatrix) -> Tuple[Fraction, int, int]:
    """(l_J(g), m_g, best alpha): m_g = max_alpha dim ker(alpha - g) over
    the nonzero alpha in F_q.

    Only eigenvalues of g have a nonzero kernel, so only the nonzero roots
    of the characteristic polynomial are ranked, in increasing integer
    encoding; ties go to the smallest. With no eigenvalue in F_q every
    kernel is zero and the result is (1, 0, 1).
    """
    F, n = g.field, g.n
    if not n:
        raise OutOfRange("Jordan length needs n >= 1, got a 0x0 matrix")
    chi = _charpoly(F, g.rows)
    if not chi[0]:
        raise Singular("Jordan length needs an invertible matrix")
    add, mul = F._add, F._mul
    best_dim, best_alpha = 0, 1
    for alpha in F.units():
        times_alpha, value = mul[alpha], 0
        for c in reversed(chi):
            value = add[times_alpha[value]][c]
        if not value:
            dim = n - len(_echelon(F, _shift(g, alpha), n))
            if dim > best_dim:
                best_dim, best_alpha = dim, alpha
    return Fraction(n - best_dim, n), best_dim, best_alpha


# --------------------------------------------------------- formed spaces


class BilinearSpace:
    """A vector space with a bilinear or Hermitian form given by a Gram
    matrix; Hermitian spaces conjugate the second argument."""

    def __init__(self, field: FqField, n: int, form_kind: str, gram: FqMatrix):
        if form_kind not in (TRIVIAL, SYMMETRIC, SYMPLECTIC, HERMITIAN):
            raise ValueError(f"unknown form kind {form_kind!r}")
        if form_kind == SYMMETRIC and field.p == 2:
            raise CharTwoSymmetric("symmetric forms excluded in characteristic 2")
        if form_kind == HERMITIAN and field.e % 2 != 0:
            raise ValueError("Hermitian forms need a square field")
        self.field = field
        self.n = n
        self.form_kind = form_kind
        self.gram = gram
        self._check_symmetry()

    def _check_symmetry(self) -> None:
        F, G = self.field, self.gram
        if self.form_kind == SYMMETRIC:
            ok = G == G.transpose()
        elif self.form_kind == SYMPLECTIC:
            ok = G.transpose() == G.map_entries(F.neg) and all(
                G.rows[i][i] == 0 for i in range(self.n)
            )
        elif self.form_kind == HERMITIAN:
            ok = G.transpose().map_entries(F.conj) == G
        else:
            ok = True
        if not ok:
            raise ValueError("Gram matrix does not match the form kind")

    @classmethod
    def symplectic(cls, field: FqField, n: int) -> "BilinearSpace":
        """Standard symplectic space: Gram [[0, I], [-I, 0]], n even."""
        if n % 2:
            raise ValueError("symplectic spaces are even dimensional")
        h = n // 2
        rows = [[0] * n for _ in range(n)]
        for i in range(h):
            rows[i][h + i] = 1
            rows[h + i][i] = field.neg(1)
        return cls(field, n, SYMPLECTIC, FqMatrix(field, rows))

    @classmethod
    def hermitian(cls, field: FqField, n: int) -> "BilinearSpace":
        """Standard Hermitian space: identity Gram over F_{q^2}."""
        return cls(field, n, HERMITIAN, FqMatrix.identity(field, n))

    def sigma(self, a: int) -> int:
        return self.field.conj(a) if self.form_kind == HERMITIAN else a

    def form(self, u: Sequence[int], v: Sequence[int]) -> int:
        add, mul = self.field._add, self.field._mul
        out = 0
        for ui, gi in zip(u, self.gram.rows):
            if ui:
                for gij, vj in zip(gi, v):
                    if gij and vj:
                        out = add[out][mul[mul[ui][gij]][self.sigma(vj)]]
        return out

    def is_nondegenerate(self) -> bool:
        return mat_rank(self.gram) == self.n


class Subspace:
    """Row-reduced basis of a subspace of F_q^n."""

    def __init__(self, field: FqField, n: int, basis: Sequence[Sequence[int]]):
        self.field = field
        self.n = n
        self.basis = [list(r) for r in rref(field, basis)]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.field, self.n, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        # v in both spans: solve for coefficient pairs (a, b) with
        # a . basis1 - b . basis2 = 0, read the intersection off a.
        F, n = self.field, self.n
        system = []
        for coord in range(n):
            row = [b[coord] for b in self.basis]
            row += [F.neg(b[coord]) for b in other.basis]
            system.append(row)
        vecs = [_combine(F, n, sol[: self.dim], self.basis)
                for sol in nullspace(F, system, self.dim + other.dim)]
        return Subspace(F, n, vecs)


def orthogonal_complement(space: BilinearSpace, w: Subspace) -> Subspace:
    """W-perp: all v with (w_i, v) = 0 for the basis of W."""
    F, n = space.field, space.n
    # (b, v) = sum_j (b G)_j sigma(v_j): solve for sigma(v) first
    rows = [_times_gram(space, b) for b in w.basis]
    sols = nullspace(F, rows, n)
    return Subspace(F, n, [[space.sigma(x) for x in v] for v in sols])


def _products(F: FqField, rows, cols: list) -> tuple:
    """The tuple of tuples of dot products u . v, u in rows, v in cols."""
    add, mul = F._add, F._mul

    def dot(u, v):
        s = 0
        for a, b in zip(u, v):
            s = add[s][mul[a][b]]
        return s
    flat = [dot(u, v) for u in rows for v in cols]
    return tuple(zip(*[iter(flat)] * len(cols)))


def _combine(F: FqField, n: int, coeffs, basis) -> List[int]:
    """sum_i coeffs[i] * basis[i] in F_q^n."""
    add, mul = F._add, F._mul
    v = [0] * n
    for c, b in zip(coeffs, basis):
        times_c = mul[c]
        v = [add[x][times_c[y]] for x, y in zip(v, b)]
    return v


def _times_gram(space: BilinearSpace, b: Sequence[int]) -> List[int]:
    """The row vector b G for the Gram matrix G of space."""
    return [r[0] for r in _products(space.field, zip(*space.gram.rows), [b])]


def radical(space: BilinearSpace, w: Subspace) -> Subspace:
    """W cap W-perp, via the nullspace of the restricted Gram matrix."""
    F, n = space.field, space.n
    restricted = [[space.form(a, b) for b in w.basis] for a in w.basis]
    # undo the sigma on v_j
    vecs = [_combine(F, n, [space.sigma(c) for c in sol], w.basis)
            for sol in nullspace(F, restricted, w.dim)]
    return Subspace(F, n, vecs)


def solve_form_functional(
    space: BilinearSpace, vectors: Sequence[Sequence[int]], phi: Sequence[int]
) -> List[int]:
    """A vector v with (b_i, v) = phi_i for each listed vector b_i: phi is
    the last column of the elimination, and a pivot there means no v
    exists. One always does for independent b_i on a nondegenerate form."""
    F, n = space.field, space.n
    if len(phi) != len(vectors):
        raise ValueError("phi must list one value per basis vector")
    rows = [_times_gram(space, b) + [target] for b, target in zip(vectors, phi)]
    pivots = _echelon(F, rows, n + 1)
    if pivots and not any(pivots[-1][:n]):
        raise Singular("inconsistent functional on a degenerate form")
    x = [0] * n
    for col, r in _reduce(F, pivots):
        x[col] = r[n]
    v = [space.sigma(c) for c in x]
    for b, target in zip(vectors, phi):
        if space.form(b, v) != target:
            raise InvariantFailed("substitution check failed")
    return v


def extend_to_nondegenerate(
    space: BilinearSpace, w: Subspace
) -> Tuple[Subspace, Subspace]:
    """(W', W''): W' a nondegenerate complement of rad(W) in W, W'' a
    partner space with dim W'' = dim rad(W) such that
    V = (W'' + W-perp) perp W' with both summands nondegenerate.
    """
    if not space.is_nondegenerate():
        raise ValueError("ambient space must be nondegenerate")
    F, n = space.field, space.n
    rad = radical(space, w)
    # W' := any complement of rad(W) inside W (extend the radical basis)
    wprime_vecs: List[List[int]] = []
    cur = rad
    for b in w.basis:
        grown = Subspace(F, n, cur.basis + [b])
        if grown.dim > cur.dim:
            wprime_vecs.append(b)
            cur = grown
    wprime = Subspace(F, n, wprime_vecs)
    # W'': for each radical basis vector r_i pick v_i with (r_i, v_i) = 1
    # and zero pairing against everything else collected so far. The
    # functional is prescribed on the explicit vector list, not a
    # reduced basis, so the delta really lands on r_i.
    chosen: List[List[int]] = []
    for i in range(rad.dim):
        vectors = rad.basis + wprime.basis + chosen
        phi = [0] * len(vectors)
        phi[i] = 1
        chosen.append(solve_form_functional(space, vectors, phi))
    wdblprime = Subspace(F, n, chosen)
    _check_extension(space, w, rad, wprime, wdblprime)
    return wprime, wdblprime


def _check_extension(
    space: BilinearSpace,
    w: Subspace,
    rad: Subspace,
    wprime: Subspace,
    wdblprime: Subspace,
) -> None:
    def check(ok: bool, message: str) -> None:
        if not ok:
            raise InvariantFailed(message)

    check(wdblprime.dim == rad.dim, "dim W'' != dim rad W")
    check(wprime.dim + rad.dim == w.dim, "W' is not a complement of rad in W")
    wperp = orthogonal_complement(space, w)
    u = wdblprime.add(wperp)
    check(u.dim == wdblprime.dim + wperp.dim, "W'' meets W-perp")
    check(u.dim + wprime.dim == space.n, "U + W' does not fill V")
    check(u.intersect(wprime).dim == 0, "U meets W'")
    check(all(space.form(a, b) == 0 and space.form(b, a) == 0
              for a in u.basis for b in wprime.basis), "U not perp W'")
    check(radical(space, u).dim == 0, "U degenerate")
    check(radical(space, wprime).dim == 0, "W' degenerate")
