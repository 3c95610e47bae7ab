"""Exhaustive finite-group engine.

Groups are enumerated by breadth-first closure from generators
(permutations or finite-field matrices) into an index table; subsets of
the group live in Python big-int bitsets. Normal-set products exploit
conjugation invariance: for a normal left factor, r * b over one
representative r per class covers the whole product set.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


class GroupTable:
    """A finite group as index tables: mul, inv, conjugacy classes."""

    def __init__(self, elements: List, mul_fn: Callable, identity) -> None:
        self.elements = elements
        self.order = len(elements)
        index = {e: i for i, e in enumerate(elements)}
        self.index = index
        self.identity_index = index[identity]
        n = self.order
        self.mul = [[index[mul_fn(a, b)] for b in elements] for a in elements]
        self.inv = [0] * n
        for i in range(n):
            row = self.mul[i]
            for j in range(n):
                if row[j] == self.identity_index:
                    self.inv[i] = j
                    break
        self._spot_check()
        self.classes, self.class_of = self._conjugacy_classes()
        self.full_bits = (1 << n) - 1

    def _spot_check(self) -> None:
        import random

        rng = random.Random(0)
        n = self.order
        for _ in range(min(200, n * n)):
            a, b, c = (rng.randrange(n) for _ in range(3))
            assert self.mul[self.mul[a][b]][c] == self.mul[a][self.mul[b][c]]
        for i in range(n):
            assert self.mul[i][self.inv[i]] == self.identity_index

    def _conjugacy_classes(self) -> Tuple[List[List[int]], List[int]]:
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
                g = frontier.pop()
                for x in range(n):
                    y = self.mul[self.mul[x][g]][self.inv[x]]
                    if class_of[y] < 0:
                        class_of[y] = cid
                        orbit.append(y)
                        frontier.append(y)
            classes.append(sorted(orbit))
        return classes, class_of

    def conj_length(self, g: int) -> float:
        """log|C(g)| / log|G|."""
        size = len(self.classes[self.class_of[g]])
        if size == 1 and g == self.identity_index:
            return 0.0
        return math.log(size) / math.log(self.order)

    def class_bits(self, g: int) -> int:
        bits = 0
        for x in self.classes[self.class_of[g]]:
            bits |= 1 << x
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

    def is_normal_set(self, bits: int) -> bool:
        for x in self.members(bits):
            if self.class_bits(x) & ~bits & self.full_bits:
                return False
        return True


def generate_group(generators: Sequence, cap: int = DEFAULT_CAP) -> GroupTable:
    """BFS closure of a generator list into a GroupTable.

    Generators must be Permutation or FqMatrix values in one ambient.
    """
    if not generators:
        raise ValueError("need at least one generator")
    g0 = generators[0]
    if isinstance(g0, Permutation):
        identity = Permutation.identity(g0.n)
        mul_fn = lambda a, b: a * b  # noqa: E731
    elif isinstance(g0, FqMatrix):
        identity = FqMatrix.identity(g0.field, g0.n)
        mul_fn = lambda a, b: a * b  # noqa: E731
    else:
        raise TypeError("generators must be Permutation or FqMatrix")
    seen = {identity}
    order_list = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                prod = mul_fn(e, g)
                if prod not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"group exceeds cap {cap}")
                    seen.add(prod)
                    order_list.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return GroupTable(order_list, mul_fn, identity)


def normal_set_product(t: GroupTable, a_bits: int, b_bits: int) -> int:
    """{xy : x in a, y in b} for normal factors a and b.

    With both sets conjugation invariant, the product is the conjugation
    closure of union over class representatives r of a of r*b: indeed
    (uru^-1)y = u(r u^-1yu)u^-1 ranges over all conjugates of r*b.
    """
    raw = 0
    seen_classes = set()
    for x in t.members(a_bits):
        cid = t.class_of[x]
        if cid in seen_classes:
            continue
        seen_classes.add(cid)
        rep_row = t.mul[t.classes[cid][0]]
        for y in t.members(b_bits):
            raw |= 1 << rep_row[y]
    out = 0
    seen_classes.clear()
    for z in t.members(raw):
        cid = t.class_of[z]
        if cid not in seen_classes:
            seen_classes.add(cid)
            out |= t.class_bits(z)
    return out


def naive_set_product(t: GroupTable, a_bits: int, b_bits: int) -> int:
    out = 0
    for x in t.members(a_bits):
        row = t.mul[x]
        for y in t.members(b_bits):
            out |= 1 << row[y]
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

    Returns (ok, first counterexample index or None).
    """
    bits = t.full_bits if subset_bits is None else subset_bits
    commutators = 0
    members = list(t.members(bits))
    for x in members:
        xi = t.inv[x]
        for y in members:
            c = t.mul[t.mul[t.mul[xi][t.inv[y]]][x]][y]
            commutators |= 1 << c
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
        mats.append((1, 2, 0, 1))  # encoding 2 is the residue class of x
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
