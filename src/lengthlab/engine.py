"""Exhaustive finite-group engine.

Groups are enumerated by breadth-first closure from generators into one
numpy array of images, a row per element in BFS order: permutations by
their images, finite-field matrices by their faithful action on the q^n
column vectors, so both kinds share one code path. A dict keyed by the
row bytes maps a composed row back to its element index. Subsets of the
group live in Python big-int bitsets over the elements.

No multiplication table is kept. Conjugacy classes are orbits under
conjugation by the generators. The row r*G of each class representative
r is computed once and folded into a k x k class-product table:
class_product[i][j] is the set of classes meeting r_i * C_j. Since
(u r u^-1) y = u (r u^-1 y u) u^-1, the product C_i * C_j is the
conjugation closure of r_i * C_j, so a product of two unions of classes
is a union of table entries.

Inside this module a normal set is a class mask, a k-bit big int of
class ids, from start to end: products, closures, filtrations and the
normal subgroup lattice never touch the N-bit element bitsets. The
public functions take and return element bitsets and convert at the
boundary (class_mask in, union_of_classes out).

The element objects (Permutation or FqMatrix) are built from the rows
on the first read of GroupTable.elements; no query needs them. The
named families A_n, S_n and PSL2(q) are checked against the cap by
their closed-form orders before any generator is built, so a group too
large to enumerate raises CapExceeded at once.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import LengthlabError
from .fqlin import FqField, FqMatrix, _is_prime
from .perms import Permutation

DEFAULT_CAP = 100_000


class CapExceeded(LengthlabError, RuntimeError):
    pass


class IdentityElement(LengthlabError, ValueError):
    pass


class NotSimple(LengthlabError, ValueError):
    pass


class NotNormalSet(LengthlabError, ValueError):
    pass


class BadGroupName(LengthlabError, ValueError):
    pass


def _keys(rows: np.ndarray) -> List[bytes]:
    """The bytes of each image row, the keys of GroupTable's index."""
    rows = np.ascontiguousarray(rows)
    void = np.dtype((np.void, rows.shape[1] * rows.itemsize))
    return rows.view(void).ravel().tolist()


class GroupTable:
    """A finite group as image rows: inv, conjugacy classes and the
    class-product table, with no N x N structure."""

    def __init__(self, element: Callable, images: np.ndarray,
                 index: Dict[bytes, int], generators: np.ndarray) -> None:
        self._element = element
        self.images = images
        self._index = index
        self.order = n = len(images)
        # the closure starts at the identity, so class 0 is {1}
        self.identity_index = 0
        self.full_bits = (1 << n) - 1
        inverse = np.empty_like(images)
        inverse[np.arange(n)[:, None], images] = np.arange(
            images.shape[1], dtype=images.dtype)
        self.inv = self.index_of(inverse).tolist()
        self.classes, self.class_of = self._conjugacy_classes(generators)
        self.class_sets = [self.bits_of(cls) for cls in self.classes]
        self.full_mask = (1 << len(self.classes)) - 1
        self.inverse_class = [self.class_of[self.inv[cls[0]]]
                              for cls in self.classes]
        self.class_product = self._class_products()

    def element(self, i: int):
        """The element object of row i, built afresh."""
        return self._element(self.images[i].tolist())

    @cached_property
    def elements(self) -> List:
        """The element objects, one per row, built on first read."""
        return [self.element(i) for i in range(self.order)]

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """Element indices of image rows."""
        return np.fromiter(map(self._index.__getitem__, _keys(rows)),
                           dtype=np.intp, count=len(rows))

    def row(self, g: int, among: Optional[Sequence[int]] = None) -> np.ndarray:
        """Indices of g*x for x in `among` (default: the whole group)."""
        rows = self.images if among is None else self.images[among]
        return self.index_of(self.images[g][rows])

    def _conjugacy_classes(
        self, generators: np.ndarray
    ) -> Tuple[List[List[int]], List[int]]:
        # x -> g x g^-1 for each generator g, over all elements at once
        conj = [self.index_of(g[self.images[:, np.argsort(g)]]).tolist()
                for g in generators]
        n = self.order
        class_of = [-1] * n
        classes: List[List[int]] = []
        for start in range(n):
            if class_of[start] >= 0:
                continue
            cid = len(classes)
            orbit = [start]
            class_of[start] = cid
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for c in conj:
                    y = c[x]
                    if class_of[y] < 0:
                        class_of[y] = cid
                        orbit.append(y)
                        frontier.append(y)
            classes.append(sorted(orbit))
        return classes, class_of

    def _class_products(self) -> List[List[int]]:
        k = len(self.classes)
        class_of = np.array(self.class_of)
        table = []
        for cls in self.classes:
            meets = np.zeros((k, k), dtype=bool)
            meets[class_of, class_of[self.row(cls[0])]] = True
            table.append([self.bits_of(np.flatnonzero(m).tolist())
                          for m in meets])
        return table

    def conj_length(self, g: int) -> float:
        """log|C(g)| / log|G|."""
        size = len(self.classes[self.class_of[g]])
        if size == 1 and g == self.identity_index:
            return 0.0
        return math.log(size) / math.log(self.order)

    def class_bits(self, g: int) -> int:
        return self.class_sets[self.class_of[g]]

    def class_mask(self, bits: int) -> int:
        """The classes making up a union of classes, as a bitmask of class
        ids; raises NotNormalSet for any other set."""
        if bits >> self.order:
            raise NotNormalSet("set has members outside the group")
        mask = 0
        for cid, cls in enumerate(self.class_sets):
            part = bits & cls
            if part == cls:
                mask |= 1 << cid
            elif part:
                raise NotNormalSet(
                    f"set is not conjugation invariant (class {cid})")
        return mask

    def union_of_classes(self, mask: int) -> int:
        bits = 0
        for cid in self.members(mask):
            bits |= self.class_sets[cid]
        return bits

    def bits_of(self, indices: Sequence[int]) -> int:
        bits = 0
        for x in indices:
            bits |= 1 << x
        return bits

    def members(self, bits: int):
        while bits:
            tz = (bits & -bits).bit_length() - 1
            yield tz
            bits &= bits - 1


def _closure(gens: np.ndarray, cap: int) -> Tuple[np.ndarray, Dict[bytes, int]]:
    """Image rows of the group generated by `gens`, in BFS order (products
    e*g by frontier element, then generator), and their index."""
    frontier = np.arange(gens.shape[1], dtype=gens.dtype)[None]
    index = {_keys(frontier)[0]: 0}
    layers = [frontier]
    while len(frontier):
        # (e*g)[v] = e[g[v]]
        prods = frontier[:, gens].reshape(-1, gens.shape[1])
        fresh = []
        for pos, key in enumerate(_keys(prods)):
            if key not in index:
                if len(index) >= cap:
                    raise CapExceeded(f"group exceeds cap {cap}")
                index[key] = len(index)
                fresh.append(pos)
        frontier = prods[fresh]
        layers.append(frontier)
    return np.concatenate(layers), index


def _vector_action(m: FqMatrix) -> List[int]:
    """Images of the column vectors under m; the vector (c_0, ..., c_{n-1})
    is the integer sum of c_i q^i."""
    F, n, q = m.field, m.n, m.field.q
    out = []
    for v in range(q ** n):
        c = [v // q ** j % q for j in range(n)]
        w = 0
        for r in reversed(m.rows):
            s = 0
            for a, x in zip(r, c):
                s = F.add(s, F.mul(a, x))
            w = w * q + s
        out.append(w)
    return out


def _matrix_of(field: FqField, n: int, images: Sequence[int]) -> FqMatrix:
    """The matrix acting by `images`: column j is the image of e_j."""
    q = field.q
    cols = [images[q ** j] for j in range(n)]
    return FqMatrix._trusted(
        field, tuple(tuple(c // q ** i % q for c in cols) for i in range(n)))


def generate_group(generators: Sequence, cap: int = DEFAULT_CAP) -> GroupTable:
    """BFS closure of a generator list into a GroupTable.

    Generators must be Permutation or FqMatrix values in one ambient.
    """
    if not generators:
        raise ValueError("need at least one generator")
    g0 = generators[0]
    if isinstance(g0, Permutation):
        rows = [g.images for g in generators]
        element = Permutation._trusted
    elif isinstance(g0, FqMatrix):
        rows = [_vector_action(g) for g in generators]
        element = partial(_matrix_of, g0.field, g0.n)
    else:
        raise TypeError("generators must be Permutation or FqMatrix")
    gens = np.array(rows, dtype=np.min_scalar_type(len(rows[0]) - 1))
    images, index = _closure(gens, cap)
    return GroupTable(element, images, index, gens)


def _product(t: GroupTable, a: int, b: int) -> int:
    """Class mask of the product of the class unions a and b."""
    b_classes = list(t.members(b))
    hit = 0
    for i in t.members(a):
        row = t.class_product[i]
        for j in b_classes:
            hit |= row[j]
    return hit


def _generated(t: GroupTable, mask: int) -> int:
    """Class mask of the normal subgroup generated by a union of classes:
    in a finite group, the closure under products of the set with 1."""
    s = mask | 1  # class 0 is {1}
    while True:
        nxt = s | _product(t, s, s)
        if nxt == s:
            return s
        s = nxt


def _filtration(t: GroupTable, g: int) -> List[int]:
    """Class masks D_1 subset D_2 subset ... with D_m the union of
    (C u C^-1)^j for j <= m, C = C(g), until stabilization or the whole
    group."""
    c = t.class_of[g]
    s = 1 << c | 1 << t.inverse_class[c]
    out = [s]
    while out[-1] != t.full_mask:
        nxt = out[-1] | _product(t, out[-1], s)
        if nxt == out[-1]:
            break
        out.append(nxt)
    return out


def normal_set_product(t: GroupTable, a_bits: int, b_bits: int) -> int:
    """{xy : x in a, y in b} for normal factors a and b.

    Both must be unions of classes (NotNormalSet otherwise); the product
    is then the union of class_product[i][j] over their classes.
    """
    return t.union_of_classes(
        _product(t, t.class_mask(a_bits), t.class_mask(b_bits)))


def naive_set_product(t: GroupTable, a_bits: int, b_bits: int) -> int:
    """{xy : x in a, y in b} for any subsets, product by product."""
    among = list(t.members(b_bits))
    out = 0
    for x in t.members(a_bits):
        out |= t.bits_of(t.row(x, among).tolist())
    return out


class Unbounded:
    """Sentinel: the closure stabilized below the whole group."""

    def __init__(self, stabilized_bits: int):
        self.stabilized_bits = stabilized_bits

    def __repr__(self) -> str:
        return "Unbounded"


def conjugacy_width(t: GroupTable, g: int, symmetric: bool = False):
    """Least m with C(g)^m = G (exact powers), or the least m with
    D_m = union_{j<=m} (C u C^-1)^j = G in symmetric mode.

    Returns Unbounded (carrying the stabilized set) when the group is
    not covered; g must not be the identity.
    """
    if g == t.identity_index:
        raise IdentityElement("width of the identity class is undefined")
    if symmetric:
        filt = _filtration(t, g)
        if filt[-1] == t.full_mask:
            return len(filt)
        return Unbounded(t.union_of_classes(filt[-1]))
    c = power = 1 << t.class_of[g]
    m = 1
    seen = {power}
    while power != t.full_mask:
        power = _product(t, power, c)
        m += 1
        if power in seen:
            return Unbounded(t.union_of_classes(power))
        seen.add(power)
    return m


def normal_closure(t: GroupTable, g: int) -> int:
    """Bitset of the least normal subgroup containing g."""
    return t.union_of_classes(_generated(t, 1 << t.class_of[g]))


def is_simple(t: GroupTable) -> bool:
    return t.order > 1 and all(_generated(t, 1 << c) == t.full_mask
                               for c in range(1, len(t.classes)))


def symmetric_filtration(t: GroupTable, g: int) -> List[int]:
    """D_1 subset D_2 subset ... until stabilization or full group."""
    return [t.union_of_classes(d) for d in _filtration(t, g)]


def mutual_domination(t: GroupTable) -> int:
    """Least k such that for every ordered pair of nontrivial classes
    (C(g), C(h)), g lies in D_k(h) or h lies in D_k(g)."""
    if not is_simple(t):
        raise NotSimple("mutual domination needs a simple group")
    filts = {c: _filtration(t, t.classes[c][0])
             for c in range(1, len(t.classes))}

    def least_k(c: int, filt: List[int]) -> float:
        return next((k for k, d in enumerate(filt, start=1) if (d >> c) & 1),
                    math.inf)

    worst = 1
    for g in filts:
        for h in filts:
            k = min(least_k(g, filts[h]), least_k(h, filts[g]))
            assert k < math.inf, "neither class dominates the other"
            worst = max(worst, k)
    return worst


def ore_check(t: GroupTable, subset_bits: Optional[int] = None):
    """Is every element of the subset a commutator of subset elements?

    For the whole group, [x,y] = x^-1 * x^y, so the commutators form the
    union over classes C of C^-1 * C, read off the class-product table.
    An explicit subset is checked pair by pair.

    Returns (ok, first counterexample index or None).
    """
    if subset_bits is None:
        bits = t.full_bits
        hit = 0
        for cid, inverse in enumerate(t.inverse_class):
            hit |= t.class_product[inverse][cid]
        commutators = t.union_of_classes(hit)
    else:
        bits = subset_bits
        members = list(t.members(bits))
        rows = t.images[members]
        inv_rows = t.images[[t.inv[x] for x in members]]
        commutators = 0
        for x in members:
            # x^-1 y^-1 x y for every y, composed right to left
            xy = t.images[x][rows]
            c = t.images[t.inv[x]][np.take_along_axis(inv_rows, xy, axis=1)]
            commutators |= t.bits_of(t.index_of(c).tolist())
    missing = bits & ~commutators
    if missing:
        return False, (missing & -missing).bit_length() - 1
    return True, None


def length_connection_holds(
    t: GroupTable, lengths: Sequence[float], g: int, h: int, k: int
) -> bool:
    """If g is a product of <= k conjugates of h^{+-1} then
    length(g) <= k * length(h), for a supplied invariant length table."""
    for j, d in zip(range(1, k + 1), _filtration(t, h)):
        if (d >> t.class_of[g]) & 1:
            return lengths[g] <= j * lengths[h] + 1e-12
    return True


# ---------------------------------------------------------------- lattice


def normal_lattice_analyze(t: GroupTable) -> Dict:
    """Subgroup list, Hasse edges, and chain/distributive/modular flags.

    The normal subgroups are the joins of class closures, found and
    compared as class masks and listed in the order of their element
    bitsets. Meet is intersection, join is the generated subgroup; flags
    come from exhaustive triple checks. Also asserts the equivalence: the
    normal subgroups form a chain iff the class closures do.
    """
    principals = {_generated(t, 1 << cid) for cid in range(len(t.classes))}
    masks = set()
    frontier = set(principals)
    while frontier:
        masks |= frontier
        frontier = {_generated(t, s | p)
                    for s in frontier for p in principals} - masks
    bits = {m: t.union_of_classes(m) for m in masks}
    subs = sorted(masks, key=bits.__getitem__)
    k = len(subs)
    idx = {s: i for i, s in enumerate(subs)}
    jidx = [[idx[_generated(t, a | b)] for b in subs] for a in subs]
    midx = [[idx[a & b] for b in subs] for a in subs]

    def leq(i, j):
        return subs[i] & ~subs[j] == 0

    hasse = []
    for i in range(k):
        for j in range(k):
            if i != j and leq(i, j):
                if not any(
                    m != i and m != j and leq(i, m) and leq(m, j) for m in range(k)
                ):
                    hasse.append((i, j))

    is_chain = all(leq(i, j) or leq(j, i) for i in range(k) for j in range(k))
    is_distributive = all(
        midx[i][jidx[j][m]] == jidx[midx[i][j]][midx[i][m]]
        for i in range(k)
        for j in range(k)
        for m in range(k)
    )
    # modular law: i <= m implies i v (j ^ m) = (i v j) ^ m
    is_modular = all(
        jidx[i][midx[j][m]] == midx[jidx[i][j]][m]
        for i in range(k)
        for j in range(k)
        for m in range(k)
        if leq(i, m)
    )
    closures_chain = all(
        (a & ~b == 0) or (b & ~a == 0) for a in principals for b in principals
    )
    assert is_chain == closures_chain, "chain equivalence violated"
    return {
        "subgroups": [bits[s] for s in subs],
        "orders": [bin(bits[s]).count("1") for s in subs],
        "hasse": hasse,
        "is_chain": is_chain,
        "is_distributive": is_distributive,
        "is_modular": is_modular,
    }


# ------------------------------------------------------- standard groups


def _degree(family: str, n: int, least: int) -> int:
    if n < least:
        raise BadGroupName(f"{family}{n}: the generators need n >= {least}")
    return n


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        t = ((k - 1) * r + q // r ** (k - 1)) // k
        if t >= r:
            return r
        r = t


def _prime_power(q: int) -> Tuple[int, int]:
    """(p, e) with q = p^e: a k-th root check for each k <= log2(q) and a
    primality test of the root, O(log q) big-number steps."""
    for e in range(1, max(q, 1).bit_length()):
        p = _iroot(q, e)
        if p ** e == q and _is_prime(p):
            return p, e
    raise BadGroupName(f"PSL2_{q}: q must be a prime power")


def _check_order(factors: Iterable[int], cap: int) -> None:
    """CapExceeded if the product of the factors (a group order) exceeds
    cap; multiplies only until it does, so no huge n! is formed."""
    order = 1
    for f in factors:
        order *= f
        if order > cap:
            raise CapExceeded(f"group exceeds cap {cap}")


def alternating_group_gens(n: int) -> List[Permutation]:
    _degree("A", n, 3)
    cyc3 = Permutation.from_cycles(n, [[0, 1, 2]])
    if n % 2 == 1:
        big = Permutation.from_cycles(n, [list(range(n))])
    else:
        big = Permutation.from_cycles(n, [list(range(1, n))])
    return [cyc3, big]


def psl2_gens(q: int) -> List[Permutation]:
    """PSL2(q) acting on the projective line (q+1 points).

    Points are 0..q-1 for (x : 1) and q for (1 : 0); the generators are
    the images of [[1,1],[0,1]] and [[0,1],[-1,0]].
    """
    p, e = _prime_power(q)
    F = FqField(p, e)
    inf = q

    def act(mat, pt):
        a, b, c, d = mat
        if pt == inf:
            x1, x2 = 1, 0
        else:
            x1, x2 = pt, 1
        y1 = F.add(F.mul(a, x1), F.mul(b, x2))
        y2 = F.add(F.mul(c, x1), F.mul(d, x2))
        if y2 == 0:
            return inf
        return F.mul(y1, F.inv(y2))

    # [[1,1],[0,1]] and [[0,1],[-1,0]] only generate SL2 of the prime
    # field; a transvection by a generator of F_q fixes that for e > 1.
    mats = [(1, 1, 0, 1), (0, 1, F.neg(1), 0)]
    if e > 1:
        mats.append((1, p, 0, 1))  # encoding p is the residue class of x
    perms = []
    for m in mats:
        perms.append(Permutation([act(m, pt) for pt in range(q + 1)]))
    return perms


def named_group(name: str, cap: int = DEFAULT_CAP) -> GroupTable:
    """The group of a name: A<n>, S<n>, PSL2_<q>, Q8, D4 or SL2_3.

    The name is validated first (BadGroupName), then A_n, S_n and PSL2(q)
    are held to the cap by their orders n!/2, n! and q(q^2-1)/gcd(2, q-1)
    before any generator is built.
    """
    name = name.upper()
    if name.startswith("A") and name[1:].isdigit():
        n = _degree("A", int(name[1:]), 3)
        _check_order(range(3, n + 1), cap)
        return generate_group(alternating_group_gens(n), cap)
    if name.startswith("S") and name[1:].isdigit():
        n = _degree("S", int(name[1:]), 2)
        _check_order(range(2, n + 1), cap)
        gens = [
            Permutation.from_cycles(n, [[0, 1]]),
            Permutation.from_cycles(n, [list(range(n))]),
        ]
        return generate_group(gens, cap)
    if name.startswith("PSL2_"):
        q = int(name[5:])
        _prime_power(q)
        _check_order((q * (q * q - 1) // math.gcd(2, q - 1),), cap)
        return generate_group(psl2_gens(q), cap)
    if name == "Q8":
        # quaternion group inside GL2(3): i = [[0,-1],[1,0]], j = [[1,1],[1,-1]]
        F3 = FqField(3)
        i = FqMatrix(F3, [[0, 2], [1, 0]])
        j = FqMatrix(F3, [[1, 1], [1, 2]])
        return generate_group([i, j], cap)
    if name == "D4":
        r = Permutation.from_cycles(4, [[0, 1, 2, 3]])
        s = Permutation.from_cycles(4, [[0, 2]])
        return generate_group([r, s], cap)
    if name == "SL2_3":
        F3 = FqField(3)
        a = FqMatrix(F3, [[1, 1], [0, 1]])
        b = FqMatrix(F3, [[0, 2], [1, 0]])
        return generate_group([a, b], cap)
    raise BadGroupName(f"unknown group name {name!r}")
