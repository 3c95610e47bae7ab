"""Finite-field linear algebra: rank/Jordan lengths and formed spaces.

Fields F_q (q = p^e <= 2^16) use the lexicographically smallest monic
irreducible modulus; elements are integers 0..q-1 encoding coefficient
vectors in base p (constant coefficient in the lowest digit). Matrices
are dense tuples of tuples, n <= 64. Hermitian forms live over F_{q^2}
with the involution x -> x^q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import LengthlabError

MAX_Q = 1 << 16
MAX_N = 64

TRIVIAL = "trivial"
SYMMETRIC = "symmetric"
SYMPLECTIC = "symplectic"
HERMITIAN = "hermitian"


class Singular(LengthlabError, ValueError):
    pass


class CharTwoSymmetric(LengthlabError, ValueError):
    pass


class HypothesisViolated(LengthlabError, ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -------------------------------------------------------------- the field


class FqField:
    """F_{p^e} with elements encoded as base-p digit integers."""

    def __init__(self, p: int, e: int = 1, modulus: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1 or p**e > MAX_Q:
            raise ValueError("field size out of range")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus = (0, 1) if modulus is None else tuple(modulus)
        else:
            if modulus is None:
                modulus = self._smallest_irreducible()
            else:
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != e + 1 or modulus[e] != 1:
                    raise ValueError("modulus must be monic of degree e")
                if not self._poly_irreducible(modulus):
                    raise ValueError("modulus is reducible")
            self.modulus = tuple(modulus)
        self._inv_cache: Dict[int, int] = {}
        self._mul_table: Optional[List[List[int]]] = None
        if self.q <= 128:
            self._build_tables()

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
        deg = len(m) - 1

        def divides(d: Sequence[int]) -> bool:
            rem = list(m)
            dd = len(d) - 1
            while len(rem) - 1 >= dd and any(rem):
                lead = rem[-1]
                if lead:
                    shift = len(rem) - 1 - dd
                    for i in range(dd + 1):
                        rem[shift + i] = (rem[shift + i] - lead * d[i]) % p
                rem.pop()
            return not any(rem)

        for dd in range(1, deg // 2 + 1):
            for k in range(p**dd):
                coeffs = []
                kk = k
                for _ in range(dd):
                    coeffs.append(kk % p)
                    kk //= p
                coeffs.append(1)
                if divides(coeffs):
                    return False
        return True

    def _smallest_irreducible(self) -> Tuple[int, ...]:
        p, e = self.p, self.e
        for k in range(p**e):
            coeffs = []
            kk = k
            for _ in range(e):
                coeffs.append(kk % p)
                kk //= p
            coeffs.append(1)
            if self._poly_irreducible(coeffs):
                return tuple(coeffs)
        raise RuntimeError("no irreducible found")  # pragma: no cover

    # element encoding

    def _decode(self, a: int) -> List[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, coeffs: Sequence[int]) -> int:
        a = 0
        for c in reversed(list(coeffs) + [0] * (self.e - len(coeffs))):
            a = a * self.p + (c % self.p)
        return a

    def _build_tables(self) -> None:
        q = self.q
        self._mul_table = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
        for a in range(1, q):
            self._inv_cache[a] = next(
                b for b in range(1, q) if self._mul_table[a][b] == 1
            )

    # arithmetic

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def _mul_slow(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return self._encode(self._poly_mulmod(self._decode(a), self._decode(b)))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

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
        if a in self._inv_cache:
            return self._inv_cache[a]
        r = self.pow(a, self.q - 2)
        self._inv_cache[a] = r
        return r

    def conj(self, a: int) -> int:
        """The involution x -> x^q0 of F_{q0^2}; identity on prime-square-free use."""
        if self.e % 2 != 0:
            raise ValueError("conjugation needs an even extension degree")
        return self.pow(a, self.p ** (self.e // 2))

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FqField({self.p}, {self.e})"


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

    @classmethod
    def scalar(cls, field: FqField, n: int, a: int) -> "FqMatrix":
        return cls(field, [[a if i == j else 0 for j in range(n)] for i in range(n)])

    def __mul__(self, other: "FqMatrix") -> "FqMatrix":
        F = self.field
        n = self.n
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            ri = self.rows[i]
            oi = out[i]
            for k in range(n):
                a = ri[k]
                if a:
                    rk = other.rows[k]
                    for j in range(n):
                        if rk[j]:
                            oi[j] = F.add(oi[j], F.mul(a, rk[j]))
        return FqMatrix(F, out)

    def __sub__(self, other: "FqMatrix") -> "FqMatrix":
        F = self.field
        return FqMatrix(
            F,
            [
                [F.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

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
        aug = _row_reduce(F, aug, n)
        for i in range(n):
            if aug[i][i] != 1:
                raise Singular("matrix not invertible")
        return FqMatrix(F, [r[n:] for r in aug])

    def is_invertible(self) -> bool:
        return mat_rank(self) == self.n


def _row_reduce(F: FqField, rows: List[List[int]], pivot_cols: int) -> List[List[int]]:
    """In-place reduced row echelon form, pivots searched in the first
    pivot_cols columns; returns the row list (pivot rows first)."""
    m = len(rows)
    width = len(rows[0]) if rows else 0
    prow = 0
    for col in range(pivot_cols):
        sel = next((r for r in range(prow, m) if rows[r][col]), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = F.inv(rows[prow][col])
        rows[prow] = [F.mul(inv, x) for x in rows[prow]]
        for r in range(m):
            if r != prow and rows[r][col]:
                c = rows[r][col]
                rows[r] = [
                    F.sub(x, F.mul(c, y)) for x, y in zip(rows[r], rows[prow])
                ]
        prow += 1
        if prow == m:
            break
    return rows


def rref(F: FqField, vectors: Sequence[Sequence[int]]) -> List[List[int]]:
    """Reduced row echelon basis (zero rows dropped)."""
    if not vectors:
        return []
    rows = _row_reduce(F, [list(v) for v in vectors], len(vectors[0]))
    return [r for r in rows if any(r)]


def mat_rank(m: FqMatrix) -> int:
    return len(rref(m.field, m.rows))


def nullspace(F: FqField, rows: Sequence[Sequence[int]], width: int) -> List[List[int]]:
    """Basis of {v : rows @ v = 0} for an m x width coefficient matrix."""
    red = rref(F, rows) if rows else []
    pivots = []
    for r in red:
        pivots.append(next(j for j, x in enumerate(r) if x))
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for fcol in free:
        v = [0] * width
        v[fcol] = 1
        for r, pcol in zip(red, pivots):
            v[pcol] = F.neg(r[fcol])
        basis.append(v)
    return basis


def rank_length_mat(g: FqMatrix) -> Fraction:
    """rank(1 - g)/n for invertible g."""
    if not g.is_invertible():
        raise Singular("rank length needs an invertible matrix")
    one = FqMatrix.identity(g.field, g.n)
    return Fraction(mat_rank(one - g), g.n)


def jordan_length(g: FqMatrix) -> Tuple[Fraction, int, int]:
    """(l_J(g), m_g, best alpha): m_g = max_alpha dim ker(alpha - g).

    The maximization runs over all q-1 nonzero scalars; ties go to the
    smallest alpha in the field's integer encoding.
    """
    if not g.is_invertible():
        raise Singular("Jordan length needs an invertible matrix")
    F, n = g.field, g.n
    best_dim, best_alpha = -1, None
    for alpha in F.units():
        a = FqMatrix.scalar(F, n, alpha) - g
        dim = n - mat_rank(a)
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
        F = self.field
        out = 0
        for i, ui in enumerate(u):
            if not ui:
                continue
            gi = self.gram.rows[i]
            for j, vj in enumerate(v):
                if vj and gi[j]:
                    out = F.add(out, F.mul(F.mul(ui, gi[j]), self.sigma(vj)))
        return out

    def is_nondegenerate(self) -> bool:
        return mat_rank(self.gram) == self.n

    def is_isometry(self, g: FqMatrix) -> bool:
        """(gu, gv) = (u, v) for all u, v, via the Gram identity."""
        F = self.field
        gs = g.map_entries(self.sigma) if self.form_kind == HERMITIAN else g
        return g.transpose() * self.gram * gs == self.gram


class Subspace:
    """Row-reduced basis of a subspace of F_q^n."""

    def __init__(self, field: FqField, n: int, basis: Sequence[Sequence[int]]):
        self.field = field
        self.n = n
        self.basis = [list(r) for r in rref(field, basis)]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        return Subspace(self.field, self.n, self.basis + [list(v)]).dim == self.dim

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.field, self.n, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        # v in both spans: solve for coefficient pairs (a, b) with
        # a . basis1 - b . basis2 = 0, read the intersection off a.
        F, n = self.field, self.n
        cols = self.dim + other.dim
        if cols == 0:
            return Subspace(F, n, [])
        system = []
        for coord in range(n):
            row = [b[coord] for b in self.basis]
            row += [F.neg(b[coord]) for b in other.basis]
            system.append(row)
        vecs = [_combine(F, n, sol[: self.dim], self.basis)
                for sol in nullspace(F, system, cols)]
        return Subspace(F, n, vecs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, n={self.n})"


def kernel_of(g: FqMatrix, shift: FqMatrix) -> Subspace:
    """ker(shift - g) as a subspace."""
    F = g.field
    return Subspace(F, g.n, nullspace(F, (shift - g).rows, g.n))


def fixed_space(g: FqMatrix) -> Subspace:
    return kernel_of(g, FqMatrix.identity(g.field, g.n))


def orthogonal_complement(space: BilinearSpace, w: Subspace) -> Subspace:
    """W-perp: all v with (w_i, v) = 0 for the basis of W."""
    F, n = space.field, space.n
    if w.dim == 0:
        return Subspace(F, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    # (b, v) = sum_j (b G)_j sigma(v_j): solve for sigma(v) first
    rows = [_times_gram(space, b) for b in w.basis]
    sols = nullspace(F, rows, n)
    return Subspace(F, n, [[space.sigma(x) for x in v] for v in sols])


def _dot(F: FqField, u: Sequence[int], v: Sequence[int]) -> int:
    out = 0
    for a, b in zip(u, v):
        if a and b:
            out = F.add(out, F.mul(a, b))
    return out


def _combine(F: FqField, n: int, coeffs, basis) -> List[int]:
    """sum_i coeffs[i] * basis[i] in F_q^n."""
    v = [0] * n
    for c, b in zip(coeffs, basis):
        for j in range(n):
            v[j] = F.add(v[j], F.mul(c, b[j]))
    return v


def _times_gram(space: BilinearSpace, b: Sequence[int]) -> List[int]:
    """The row vector b G for the Gram matrix G of space."""
    F, rows = space.field, space.gram.rows
    return [_dot(F, b, [r[j] for r in rows]) for j in range(space.n)]


def radical(space: BilinearSpace, w: Subspace) -> Subspace:
    """W cap W-perp, via the nullspace of the restricted Gram matrix."""
    F, n = space.field, space.n
    r = w.dim
    if r == 0:
        return Subspace(F, n, [])
    restricted = [
        [space.form(w.basis[i], w.basis[j]) for j in range(r)] for i in range(r)
    ]
    # undo the sigma on v_j
    vecs = [_combine(F, n, [space.sigma(c) for c in sol], w.basis)
            for sol in nullspace(F, restricted, r)]
    return Subspace(F, n, vecs)


def solve_form_functional(
    space: BilinearSpace, w, phi: Sequence[int]
) -> List[int]:
    """A vector v with (w_i, v) = phi_i for every basis vector of W.

    W may be a Subspace (its reduced basis is used) or an explicit list
    of independent vectors. Always solvable when the ambient form is
    nondegenerate.
    """
    F, n = space.field, space.n
    vectors = w.basis if isinstance(w, Subspace) else [list(v) for v in w]
    if len(phi) != len(vectors):
        raise ValueError("phi must list one value per basis vector")
    if not vectors:
        return [0] * n
    rows = [_times_gram(space, b) + [target] for b, target in zip(vectors, phi)]
    red = _row_reduce(F, rows, n)
    x = [0] * n
    for r in red:
        pivot = next((j for j in range(n) if r[j]), None)
        if pivot is None:
            if r[n]:
                raise Singular("inconsistent functional on a degenerate form")
            continue
        x[pivot] = r[n]
    v = [space.sigma(c) for c in x]
    for b, target in zip(vectors, phi):
        assert space.form(b, v) == target, "substitution check failed"
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
    r = rad.dim
    # W' := any complement of rad(W) inside W (extend the radical basis)
    wprime_vecs: List[List[int]] = []
    cur = Subspace(F, n, rad.basis)
    for b in w.basis:
        if not cur.contains(b):
            wprime_vecs.append(b)
            cur = cur.add(Subspace(F, n, [b]))
    wprime = Subspace(F, n, wprime_vecs)
    # W'': for each radical basis vector r_i pick v_i with (r_i, v_i) = 1
    # and zero pairing against everything else collected so far. The
    # functional is prescribed on the explicit vector list, not a
    # reduced basis, so the delta really lands on r_i.
    chosen: List[List[int]] = []
    for i in range(r):
        vectors = rad.basis + wprime.basis + chosen
        phi = [0] * len(vectors)
        phi[i] = 1
        v = solve_form_functional(space, vectors, phi)
        chosen.append(v)
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
    F, n = space.field, space.n
    assert wdblprime.dim == rad.dim, "dim W'' != dim rad W"
    assert wprime.dim + rad.dim == w.dim, "W' is not a complement of rad in W"
    wperp = orthogonal_complement(space, w)
    u = wdblprime.add(wperp)
    assert u.dim == wdblprime.dim + wperp.dim, "W'' meets W-perp"
    assert u.dim + wprime.dim == n, "U + W' does not fill V"
    assert u.intersect(wprime).dim == 0, "U meets W'"
    for a in u.basis:
        for b in wprime.basis:
            assert space.form(a, b) == 0 and space.form(b, a) == 0, "U not perp W'"
    assert radical(space, u).dim == 0, "U degenerate"
    assert radical(space, wprime).dim == 0, "W' degenerate"


def common_fix_restriction(
    g: FqMatrix, h: FqMatrix, space: BilinearSpace
) -> Tuple[Subspace, Dict[str, int]]:
    """U = W'' + W-perp for W = ker(1-g) cap ker(1-h), with
    dim U <= 2 rank(1-g) + 2 rank(1-h); g and h fix U-perp pointwise.
    """
    F, n = space.field, space.n
    if not (space.is_isometry(g) and space.is_isometry(h)):
        raise HypothesisViolated("g, h must be isometries")
    for m in (g, h):
        lj, _, _ = jordan_length(m)
        if lj != rank_length_mat(m):
            raise HypothesisViolated("rank length must equal Jordan length")
    w = fixed_space(g).intersect(fixed_space(h))
    wprime, wdblprime = extend_to_nondegenerate(space, w)
    wperp = orthogonal_complement(space, w)
    u = wdblprime.add(wperp)
    one = FqMatrix.identity(F, n)
    rg = mat_rank(one - g)
    rh = mat_rank(one - h)
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
            img = _apply(F, m, b)
            assert img == list(b), "element moves U-perp"
    return u, dims


def _apply(F: FqField, m: FqMatrix, v: Sequence[int]) -> List[int]:
    return [_dot(F, row, v) for row in m.rows]


def symplectic_transvection(
    space: BilinearSpace, v: Sequence[int], c: int
) -> FqMatrix:
    """x -> x + c (x, v) v, an isometry of a symplectic space."""
    F, n = space.field, space.n
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        s = F.mul(c, space.form(e, v))
        cols.append([F.add(e[i], F.mul(s, v[i])) for i in range(n)])
    return FqMatrix(F, [[cols[j][i] for j in range(n)] for i in range(n)])


# ----------------------------------------------------------------- JSON


def matrix_to_json(m: FqMatrix) -> Dict:
    F = m.field
    return {
        "p": F.p,
        "e": F.e,
        "modulus": list(F.modulus),
        "n": m.n,
        "entries": [[F._decode(x) for x in row] for row in m.rows],
    }


def matrix_from_json(obj: Dict) -> FqMatrix:
    F = FqField(obj["p"], obj["e"], obj["modulus"] if obj["e"] > 1 else None)
    rows = [[F._encode(c) for c in row] for row in obj["entries"]]
    return FqMatrix(F, rows)
