"""Exhaustive finite-group engine.

Groups are enumerated by breadth-first closure from generators into one
numpy array of images, a row per element in BFS order: permutations by
their images, finite-field matrices by their faithful action on the q^n
column vectors, so both kinds share one code path. A dict keyed by the
row bytes maps a composed row back to its element index. Subsets of the
group live in Python big-int bitsets.

No multiplication table is kept. Conjugacy classes are orbits under
conjugation by the generators. The row r*G of each class representative
r is computed once and folded into a k x k class-product table:
class_product[i][j] is the set of classes meeting r_i * C_j. Since
(u r u^-1) y = u (r u^-1 y u) u^-1, the product C_i * C_j is the
conjugation closure of r_i * C_j, so a product of two unions of classes
is a union of table entries.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import LengthlabError
from .fqlin import FqField, FqMatrix
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


def _keys(rows: np.ndarray) -> List[bytes]:
    """The bytes of each image row, the keys of GroupTable's index."""
    rows = np.ascontiguousarray(rows)
    void = np.dtype((np.void, rows.shape[1] * rows.itemsize))
    return rows.view(void).ravel().tolist()


class GroupTable:
    """A finite group as image rows: inv, conjugacy classes and the
    class-product table, with no N x N structure."""

    def __init__(self, elements: List, images: np.ndarray,
                 index: Dict[bytes, int], generators: np.ndarray) -> None:
        self.elements = elements
        self.images = images
        self._index = index
        self.order = n = len(elements)
        self.identity_index = 0  # the closure starts at the identity
        self.full_bits = (1 << n) - 1
        inverse = np.empty_like(images)
        inverse[np.arange(n)[:, None], images] = np.arange(
            images.shape[1], dtype=images.dtype)
        self.inv = self.index_of(inverse).tolist()
        self.classes, self.class_of = self._conjugacy_classes(generators)
        self.class_sets = [self.bits_of(cls) for cls in self.classes]
        self.class_product = self._class_products()

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

    def inverse_bits(self, bits: int) -> int:
        out = 0
        for x in self.members(bits):
            out |= 1 << self.inv[x]
        return out


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
    return FqMatrix(field, [[c // q ** i % q for c in cols] for i in range(n)])


def generate_group(generators: Sequence, cap: int = DEFAULT_CAP) -> GroupTable:
    """BFS closure of a generator list into a GroupTable.

    Generators must be Permutation or FqMatrix values in one ambient.
    """
    if not generators:
        raise ValueError("need at least one generator")
    g0 = generators[0]
    if isinstance(g0, Permutation):
        rows = [g.images for g in generators]
        element = Permutation
    elif isinstance(g0, FqMatrix):
        rows = [_vector_action(g) for g in generators]
        element = partial(_matrix_of, g0.field, g0.n)
    else:
        raise TypeError("generators must be Permutation or FqMatrix")
    gens = np.array(rows, dtype=np.min_scalar_type(len(rows[0]) - 1))
    images, index = _closure(gens, cap)
    return GroupTable([element(r) for r in images.tolist()], images, index,
                      gens)


def normal_set_product(t: GroupTable, a_bits: int, b_bits: int) -> int:
    """{xy : x in a, y in b} for normal factors a and b.

    Both must be unions of classes (NotNormalSet otherwise); the product
    is then the union of class_product[i][j] over their classes.
    """
    b_classes = list(t.members(t.class_mask(b_bits)))
    hit = 0
    for i in t.members(t.class_mask(a_bits)):
        row = t.class_product[i]
        for j in b_classes:
            hit |= row[j]
    return t.union_of_classes(hit)


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
    c = t.class_bits(g)
    if symmetric:
        s = c | t.inverse_bits(c)
        d = s
        m = 1
        while d != t.full_bits:
            nxt = d | normal_set_product(t, d, s)
            if nxt == d:
                return Unbounded(d)
            d = nxt
            m += 1
        return m
    power = c
    m = 1
    seen = {power}
    while power != t.full_bits:
        power = normal_set_product(t, power, c)
        m += 1
        if power in seen:
            return Unbounded(power)
        seen.add(power)
    return m


def normal_closure(t: GroupTable, g: int) -> int:
    """Bitset of the least normal subgroup containing g."""
    s = (1 << t.identity_index) | t.class_bits(g) | t.inverse_bits(t.class_bits(g))
    while True:
        nxt = s | normal_set_product(t, s, s)
        if nxt == s:
            return s
        s = nxt


def is_simple(t: GroupTable) -> bool:
    if t.order == 1:
        return False
    for cls in t.classes:
        rep = cls[0]
        if rep == t.identity_index:
            continue
        if normal_closure(t, rep) != t.full_bits:
            return False
    return True


def symmetric_filtration(t: GroupTable, g: int) -> List[int]:
    """D_1 subset D_2 subset ... until stabilization or full group."""
    c = t.class_bits(g)
    s = c | t.inverse_bits(c)
    out = [s]
    d = s
    while d != t.full_bits:
        nxt = d | normal_set_product(t, d, s)
        if nxt == d:
            break
        d = nxt
        out.append(d)
    return out


def mutual_domination(t: GroupTable, symmetric_mode: bool = True) -> int:
    """Least k such that for every ordered pair of nontrivial classes
    (C(g), C(h)), g lies in D_k(h) or h lies in D_k(g)."""
    if not is_simple(t):
        raise NotSimple("mutual domination needs a simple group")
    reps = [
        cls[0] for cls in t.classes if cls[0] != t.identity_index or len(cls) > 1
    ]
    reps = [r for r in reps if r != t.identity_index]
    filts = {r: symmetric_filtration(t, r) for r in reps}

    def least_k(x: int, filt: List[int]) -> Optional[int]:
        for k, d in enumerate(filt, start=1):
            if (d >> x) & 1:
                return k
        return None

    worst = 1
    for g in reps:
        for h in reps:
            kg = least_k(g, filts[h])
            kh = least_k(h, filts[g])
            candidates = [k for k in (kg, kh) if k is not None]
            assert candidates, "neither class dominates the other"
            worst = max(worst, min(candidates))
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
        for cid, cls in enumerate(t.classes):
            hit |= t.class_product[t.class_of[t.inv[cls[0]]]][cid]
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
    filt = symmetric_filtration(t, h)
    for j, d in enumerate(filt, start=1):
        if j > k:
            break
        if (d >> g) & 1:
            return lengths[g] <= j * lengths[h] + 1e-12
    return True


# ---------------------------------------------------------------- lattice


def normal_subgroups(t: GroupTable) -> List[int]:
    """All normal subgroups as bitsets, via joins of class closures."""
    if t.order > 2000:
        raise CapExceeded("normal subgroup lattice capped at order 2000")
    principals = []
    for cls in t.classes:
        nc = normal_closure(t, cls[0])
        if nc not in principals:
            principals.append(nc)
    subgroups = {1 << t.identity_index}
    frontier = set(principals)
    while frontier:
        subgroups |= frontier
        nxt = set()
        for s in frontier:
            for p in principals:
                j = _subgroup_join(t, s, p)
                if j not in subgroups:
                    nxt.add(j)
        frontier = nxt
    return sorted(subgroups)


def _subgroup_join(t: GroupTable, a: int, b: int) -> int:
    s = a | b
    while True:
        nxt = s | normal_set_product(t, s, s)
        if nxt == s:
            return s
        s = nxt


def normal_lattice_analyze(t: GroupTable) -> Dict:
    """Subgroup list, Hasse edges, and chain/distributive/modular flags.

    Meet is intersection, join is the generated subgroup; flags come from
    exhaustive triple checks. Also asserts the equivalence: the normal
    subgroups form a chain iff the class closures do.
    """
    subs = normal_subgroups(t)
    k = len(subs)
    join = [[_subgroup_join(t, subs[i], subs[j]) for j in range(k)] for i in range(k)]
    meet = [[subs[i] & subs[j] for j in range(k)] for i in range(k)]
    idx = {s: i for i, s in enumerate(subs)}
    jidx = [[idx[join[i][j]] for j in range(k)] for i in range(k)]
    midx = [[idx[meet[i][j]] for j in range(k)] for i in range(k)]

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
    closures = sorted({normal_closure(t, cls[0]) for cls in t.classes})
    closures_chain = all(
        (a & ~b == 0) or (b & ~a == 0) for a in closures for b in closures
    )
    assert is_chain == closures_chain, "chain equivalence violated"
    return {
        "subgroups": subs,
        "orders": [bin(s).count("1") for s in subs],
        "hasse": hasse,
        "is_chain": is_chain,
        "is_distributive": is_distributive,
        "is_modular": is_modular,
    }


# ------------------------------------------------------- standard groups


def alternating_group_gens(n: int) -> List[Permutation]:
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
    # find p, e with q = p^e
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    qq = q
    while qq > 1:
        qq //= p
        e += 1
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
    name = name.upper()
    if name.startswith("A") and name[1:].isdigit():
        return generate_group(alternating_group_gens(int(name[1:])), cap)
    if name.startswith("S") and name[1:].isdigit():
        n = int(name[1:])
        gens = [
            Permutation.from_cycles(n, [[0, 1]]),
            Permutation.from_cycles(n, [list(range(n))]),
        ]
        return generate_group(gens, cap)
    if name.startswith("PSL2_"):
        return generate_group(psl2_gens(int(name[5:])), cap)
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
    raise ValueError(f"unknown group name {name!r}")
