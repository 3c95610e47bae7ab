"""Tests for the exhaustive small-group engine."""

import math
import random
import time

import numpy as np
import pytest

from lengthlab import InvariantFailed, LengthlabError, engine, fqlin
from lengthlab.engine import (
    BadGroupName,
    CapExceeded,
    IdentityElement,
    NotNormalSet,
    NotSimple,
    Unbounded,
    _filtration,
    alternating_group_gens,
    conjugacy_width,
    generate_group,
    is_simple,
    mutual_domination,
    naive_set_product,
    named_group,
    normal_closure,
    normal_lattice_analyze,
    normal_set_product,
    ore_check,
    psl2_gens,
)
from lengthlab.fqlin import FqField, FqMatrix
from lengthlab.perms import Permutation, cycle_type


def test_generate_a5():
    t = named_group("A5")
    assert t.order == 60
    sizes = sorted(len(c) for c in t.classes)
    assert sizes == [1, 12, 12, 15, 20]


def test_generate_sl23():
    t = named_group("SL2_3")
    assert t.order == 24


def test_generate_single_transposition():
    t = generate_group([Permutation.from_cycles(2, [[0, 1]])])
    assert t.order == 2


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        generate_group(
            [Permutation.from_cycles(8, [[0, 1]]),
             Permutation.from_cycles(8, [list(range(8))])],
            cap=100,
        )


# ------------------------------------- the closed-form order gate


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, p))


def _closed_form_order(name):
    if name.startswith("PSL2_"):
        q = int(name[5:])
        return q * (q * q - 1) // math.gcd(2, q - 1)
    n = math.factorial(int(name[1:]))
    return n // 2 if name[0] == "A" else n


def _forbid_enumeration(monkeypatch):
    """Fail on any generator build or closure inside named_group."""
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerated a group the gate should reject")

    for fn in ("_closure", "generate_group", "alternating_group_gens",
               "psl2_gens"):
        monkeypatch.setattr(engine, fn, forbidden)


GATED = ([f"A{n}" for n in range(3, 9)] + [f"S{n}" for n in range(2, 8)]
         + [f"PSL2_{q}" for q in range(2, 33)
            if len([p for p in range(2, q + 1)
                    if q % p == 0 and _is_prime(p)]) == 1])


@pytest.mark.parametrize("name", GATED)
def test_closed_form_order_matches_closure(name, monkeypatch):
    order = _closed_form_order(name)
    assert named_group(name, cap=order).order == order
    _forbid_enumeration(monkeypatch)
    with pytest.raises(CapExceeded, match=f"^group exceeds cap {order - 1}$"):
        named_group(name, cap=order - 1)


@pytest.mark.parametrize("name, gens", [
    ("A5", alternating_group_gens(5)),
    ("S4", [Permutation.from_cycles(4, [[0, 1]]),
            Permutation.from_cycles(4, [[0, 1, 2, 3]])]),
    ("PSL2_7", psl2_gens(7)),
])
def test_cap_boundary_same_through_gate_and_closure(name, gens):
    order = _closed_form_order(name)
    assert named_group(name, cap=order).order == order
    assert generate_group(gens, cap=order).order == order
    for build in (lambda: named_group(name, cap=order - 1),
                  lambda: generate_group(gens, cap=order - 1)):
        with pytest.raises(CapExceeded, match=f"group exceeds cap {order - 1}"):
            build()


@pytest.mark.parametrize("name", ["A100000", "S100000", "PSL2_1000003"])
def test_gate_rejects_huge_groups_without_enumeration(name, monkeypatch):
    _forbid_enumeration(monkeypatch)
    with pytest.raises(CapExceeded, match="^group exceeds cap 100000$"):
        named_group(name)


def test_gate_validates_the_name_first(monkeypatch):
    _forbid_enumeration(monkeypatch)
    with pytest.raises(BadGroupName,
                       match="^PSL2_1000000: q must be a prime power$"):
        named_group("PSL2_1000000")
    for name in ("A2", "S1", "PSL2_1", "PSL2_6"):
        with pytest.raises(BadGroupName):
            named_group(name, cap=0)


def test_prime_power_against_brute_force():
    for q in range(-2, 3000):
        primes = [p for p in range(2, q + 1) if q % p == 0 and _is_prime(p)]
        if len(primes) == 1:
            p = primes[0]
            assert engine._prime_power(q) == (p, round(math.log(q, p)))
        else:
            with pytest.raises(BadGroupName,
                               match=f"^PSL2_{q}: q must be a prime power$"):
                engine._prime_power(q)


@pytest.mark.parametrize("q, error", [
    (18446744073709551557, CapExceeded),  # the largest prime below 2^64
    (36472996377170786403, CapExceeded),  # 3^41
    (9999999967 ** 2, CapExceeded),
    (18446744073709551557 * 3, BadGroupName),
    (2 ** 89 - 1, CapExceeded),  # a prime above the Miller-Rabin bound
    # the least strong pseudoprime to all 13 Miller-Rabin bases, p * q
    (3317044064679887385961981, BadGroupName),
])
def test_psl2_twenty_digit_q_is_classified_fast(q, error):
    start = time.perf_counter()
    with pytest.raises(error):
        named_group(f"PSL2_{q}")
    assert time.perf_counter() - start < 0.05


def test_strong_lucas_pseudoprimes():
    # every prime passes; the odd composites below 26000 that pass too
    # are OEIS A217255
    sieve = bytearray([1]) * 26000
    for p in range(2, 162):
        sieve[p * p::p] = bytes(len(range(p * p, 26000, p)))
    passing = [n for n in range(43, 26000, 2)
               if fqlin._strong_lucas(n) != sieve[n]]
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]


def elements_of(t):
    return [t.element(i) for i in range(t.order)]


def test_element_objects_match_their_rows():
    t = named_group("A5")
    assert all(Permutation(e.images) == e for e in elements_of(t))
    for name in ("A5", "SL2_3"):
        t = named_group(name)
        els = elements_of(t)
        assert len(set(els)) == t.order
        # each call builds the object afresh from its row
        assert all(t.element(i) == e and t.element(i) is not e
                   for i, e in enumerate(els))


def test_psl2_orders():
    assert named_group("PSL2_7").order == 168
    assert named_group("PSL2_8").order == 504


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_psl2_prime_power_order_and_simplicity(q):
    t = named_group(f"PSL2_{q}")
    assert t.order == q * (q * q - 1) // math.gcd(2, q - 1)
    assert is_simple(t)


# ---------------------------------------- oracles from the element objects

# permutation groups and, for Q8 and SL2(3), matrices over F_3
ORACLE_GROUPS = ["S3", "S4", "D4", "Q8", "SL2_3", "A5"]


def _object_index(t):
    idx = {e: i for i, e in enumerate(elements_of(t))}
    assert len(idx) == t.order
    return idx


def _object_bfs(gens):
    identity = gens[0] * gens[0].inverse()
    elements, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = e * g
                if p not in seen:
                    seen.add(p)
                    elements.append(p)
                    nxt.append(p)
        frontier = nxt
    return elements


F3 = FqField(3)


@pytest.mark.parametrize("gens", [
    alternating_group_gens(5),
    [Permutation.from_cycles(4, [[0, 1]]),
     Permutation.from_cycles(4, [[0, 1, 2, 3]])],
    psl2_gens(9),
    [FqMatrix(F3, [[0, 2], [1, 0]]), FqMatrix(F3, [[1, 1], [1, 2]])],
    [FqMatrix(F3, [[1, 1], [0, 1]]), FqMatrix(F3, [[0, 2], [1, 0]])],
], ids=["A5", "S4", "PSL2_9", "Q8", "SL2_3"])
def test_elements_in_bfs_order(gens):
    assert elements_of(generate_group(gens)) == _object_bfs(gens)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_rows_inverses_classes_match_objects(name):
    t = named_group(name)
    els = elements_of(t)
    idx = _object_index(t)
    assert not hasattr(t, "mul")
    for g, e in enumerate(els):
        assert t.row(g).tolist() == [idx[e * x] for x in els]
        assert t.inv[g] == idx[e.inverse()]
        conjugates = sorted({idx[u * e * u.inverse()] for u in els})
        assert t.classes[t.class_of[g]] == conjugates
    # classes are numbered by their least member
    assert [cls[0] for cls in t.classes] == sorted(cls[0] for cls in t.classes)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_naive_product_matches_objects(name):
    t = named_group(name)
    els = elements_of(t)
    idx = _object_index(t)
    rng = random.Random(11)
    for _ in range(5):
        a = [x for x in range(t.order) if rng.random() < 0.3]
        b = [y for y in range(t.order) if rng.random() < 0.3]
        expect = t.bits_of({idx[els[x] * els[y]] for x in a for y in b})
        assert naive_set_product(t, t.bits_of(a), t.bits_of(b)) == expect


def _brute_ore(t, subset):
    els = elements_of(t)
    idx = _object_index(t)
    commutators = {
        idx[els[x].inverse() * els[y].inverse() * els[x] * els[y]]
        for x in subset
        for y in subset
    }
    missing = sorted(set(subset) - commutators)
    return (not missing, missing[0] if missing else None)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_ore_matches_brute_commutators(name):
    t = named_group(name)
    whole = _brute_ore(t, range(t.order))
    assert ore_check(t) == whole
    assert ore_check(t, t.full_bits) == whole  # the pairwise path
    rng = random.Random(13)
    for _ in range(3):
        subset = [x for x in range(t.order) if rng.random() < 0.5]
        assert ore_check(t, t.bits_of(subset)) == _brute_ore(t, subset)


def test_abelian_classes_are_singletons():
    t = generate_group([Permutation.from_cycles(6, [[0, 1, 2, 3, 4, 5]])])
    assert all(len(c) == 1 for c in t.classes)


def test_s3_class_sizes():
    t = named_group("S3")
    assert sorted(len(c) for c in t.classes) == [1, 2, 3]


def test_conj_length_identity_and_center():
    t = named_group("SL2_3")
    assert t.conj_length(t.identity_index) == 0.0
    # center of SL2(3) = {+-1}; conj length is center-blind
    rows = [t.row(g) for g in range(t.order)]
    center = [
        g
        for g in range(t.order)
        if all(rows[g][x] == rows[x][g] for x in range(t.order))
    ]
    assert len(center) == 2
    z = next(g for g in center if g != t.identity_index)
    for g in range(t.order):
        zg = rows[z][g]
        assert t.conj_length(zg) == pytest.approx(t.conj_length(g))


def test_conj_length_5cycle_in_a5():
    import math

    t = named_group("A5")
    five = next(
        i
        for i, cls in enumerate(t.classes)
        if len(cls) == 12
    )
    rep = t.classes[five][0]
    assert t.conj_length(rep) == pytest.approx(math.log(12) / math.log(60))


# -------------------------------------------------------------- products


def test_product_identity_left():
    t = named_group("A5")
    one = 1 << t.identity_index
    s = t.class_bits(5)
    assert normal_set_product(t, one, s) == s


def test_product_rejects_non_normal_sets():
    t = named_group("A5")
    g = next(x for x in range(t.order) if x != t.identity_index)
    c = t.class_bits(g)
    assert issubclass(NotNormalSet, LengthlabError)
    assert issubclass(NotNormalSet, ValueError)
    with pytest.raises(NotNormalSet):
        normal_set_product(t, 1 << g, c)
    with pytest.raises(NotNormalSet):
        normal_set_product(t, c, c & ~(1 << g))
    with pytest.raises(NotNormalSet):
        normal_set_product(t, c, 1 << t.order)


def test_product_contains_identity():
    t = named_group("A5")
    for cls in t.classes:
        c = t.class_bits(cls[0])
        ci = t.class_bits(t.inv[cls[0]])
        assert (normal_set_product(t, c, ci) >> t.identity_index) & 1


@pytest.mark.parametrize("name", ["A5", "S4", "SL2_3", "PSL2_7", "A6"])
def test_product_matches_naive(name):
    t = named_group(name)
    rng = random.Random(5)
    for ci in t.classes:
        a = t.class_bits(ci[0])
        for cj in t.classes:
            b = t.class_bits(cj[0])
            assert normal_set_product(t, a, b) == naive_set_product(t, a, b)
    # random unions of classes
    for _ in range(5):
        a = 0
        for cls in t.classes:
            if rng.random() < 0.5:
                a |= t.class_bits(cls[0])
        if not a:
            continue
        b = t.class_bits(rng.randrange(t.order))
        assert normal_set_product(t, a, b) == naive_set_product(t, a, b)


# ---------------------------------------------------------------- widths


def test_width_identity_raises():
    t = named_group("A5")
    with pytest.raises(IdentityElement):
        conjugacy_width(t, t.identity_index)


def test_width_finite_in_a5():
    t = named_group("A5")
    for cls in t.classes:
        rep = cls[0]
        if rep == t.identity_index:
            continue
        m = conjugacy_width(t, rep)
        assert isinstance(m, int)
        assert normal_closure(t, rep) == t.full_bits
        ms = conjugacy_width(t, rep, symmetric=True)
        assert isinstance(ms, int)
        assert ms <= m


def test_width_unbounded_in_sl23():
    t = named_group("SL2_3")
    # a transvection generates a proper normal closure? in SL2(3) the
    # closure of a transvection is the whole group, but the center gives
    # classes whose powers stabilize below G.
    rows = [t.row(g) for g in range(t.order)]
    center = [
        g
        for g in range(t.order)
        if all(rows[g][x] == rows[x][g] for x in range(t.order))
        and g != t.identity_index
    ]
    w = conjugacy_width(t, center[0])
    assert isinstance(w, Unbounded)
    assert w.stabilized_bits != t.full_bits


def test_width_times_conj_length_at_least_one():
    for name in ("A5", "A6", "PSL2_7"):
        t = named_group(name)
        for cls in t.classes:
            rep = cls[0]
            if rep == t.identity_index:
                continue
            m = conjugacy_width(t, rep)
            assert m * t.conj_length(rep) >= 1 - 1e-12


def length_connection_holds(t, lengths, g, h, k):
    """If g is a product of <= k conjugates of h^{+-1} then
    length(g) <= k * length(h), for a supplied invariant length table."""
    for j, d in zip(range(1, k + 1), _filtration(t, h)):
        if (d >> t.class_of[g]) & 1:
            return lengths[g] <= j * lengths[h] + 1e-12
    return True


def test_length_connection_for_conj_length_and_hamming():
    t = named_group("A5")
    lc = [t.conj_length(g) for g in range(t.order)]
    # the Hamming length: the share of points that g moves
    lh = [(p.n - cycle_type(p).count(1)) / p.n for p in elements_of(t)]
    rng = random.Random(1)
    for _ in range(30):
        g, h = rng.randrange(t.order), rng.randrange(t.order)
        if h == t.identity_index:
            continue
        for k in (1, 2, 3):
            assert length_connection_holds(t, lc, g, h, k)
            assert length_connection_holds(t, lh, g, h, k)


# --------------------------------------------------------------- closures


def test_normal_closure_identity():
    t = named_group("S4")
    assert normal_closure(t, t.identity_index) == 1 << t.identity_index


def test_normal_closure_simple_group():
    t = named_group("A5")
    for g in range(t.order):
        if g != t.identity_index:
            assert normal_closure(t, g) == t.full_bits


def test_normal_closure_double_transposition_s4():
    t = named_group("S4")
    dt = next(
        i
        for i in range(t.order)
        if cycle_type(t.element(i)) == (2, 2)
    )
    closure = normal_closure(t, dt)
    assert bin(closure).count("1") == 4


# --------------------------------------------------------- ore + domination


def test_ore_a5_true():
    ok, ce = ore_check(named_group("A5"))
    assert ok and ce is None


def test_ore_s4_false():
    t = named_group("S4")
    ok, ce = ore_check(t)
    assert not ok
    assert not t.element(ce).is_even()  # odd permutations are not commutators


def test_ore_trivial_subset():
    t = named_group("S4")
    ok, _ = ore_check(t, 1 << t.identity_index)
    assert ok


def test_mutual_domination_a5():
    t = named_group("A5")
    k = mutual_domination(t)
    assert isinstance(k, int) and k >= 1
    assert k == mutual_domination(t)  # stable across re-runs


def test_mutual_domination_needs_simple():
    with pytest.raises(NotSimple):
        mutual_domination(named_group("S4"))


def test_mutual_domination_checks_that_one_class_dominates(monkeypatch):
    # a planted fault: filtrations that never reach a nontrivial class
    monkeypatch.setattr(engine, "_filtration", lambda t, g: [0])
    with pytest.raises(InvariantFailed,
                       match="^neither class dominates the other$"):
        mutual_domination(named_group("A5"))


def test_symmetric_filtration_monotone():
    t = named_group("A5")
    filt = symmetric_filtration(t, 3)
    for a, b in zip(filt, filt[1:]):
        assert a & ~b == 0


# ---------------------------------------------------------------- lattice


def test_lattice_simple_group_is_two():
    res = normal_lattice_analyze(named_group("A5"))
    assert len(res["subgroups"]) == 2
    assert res["is_chain"] and res["is_distributive"] and res["is_modular"]


def test_lattice_s4_chain():
    res = normal_lattice_analyze(named_group("S4"))
    assert res["orders"] == [1, 4, 12, 24]
    assert res["is_chain"]
    assert res["is_modular"]


def test_lattice_checks_the_chain_equivalence(monkeypatch):
    # a planted fault: the closure of V4's classes comes back as {1} with
    # an odd class, which V4 does not contain, so the joins stop forming
    # the chain 1 < V4 < A4 < S4 that the class closures still form
    t = named_group("S4")
    real = engine._generated
    closures = [real(t, 1 << c) for c in range(len(t.classes))]
    v4 = next(m for m in closures if bin(t.union_of_classes(m)).count("1") == 4)
    odd = closures.index(t.full_mask)
    monkeypatch.setattr(engine, "_generated", lambda t, mask: (
        1 | 1 << odd if mask == v4 else real(t, mask)))
    with pytest.raises(InvariantFailed, match="^chain equivalence violated$"):
        normal_lattice_analyze(t)


def test_lattice_d4_not_chain():
    res = normal_lattice_analyze(named_group("D4"))
    assert not res["is_chain"]
    assert res["is_modular"]


def test_lattice_q8():
    res = normal_lattice_analyze(named_group("Q8"))
    assert res["is_modular"]
    assert not res["is_chain"]
    # normal closures of Q8's five classes give 1 < Z < <i>,<j>,<k> < Q8
    assert sorted(res["orders"]) == [1, 2, 4, 4, 4, 8]


def test_simplicity_flags():
    assert is_simple(named_group("A5"))
    assert is_simple(named_group("PSL2_7"))
    assert not is_simple(named_group("S4"))
    assert not is_simple(named_group("SL2_3"))


def test_lattice_larger_groups():
    for name, orders in [("A7", [1, 2520]), ("A8", [1, 20160]),
                         ("S7", [1, 2520, 5040]), ("PSL2_31", [1, 14880])]:
        res = normal_lattice_analyze(named_group(name))
        assert res["orders"] == orders
        assert res["is_chain"] and res["is_distributive"]


def _a5_times_a5():
    """A5 x A5 on the disjoint supports {0..4} and {5..9}."""
    gens = []
    for shift in (0, 5):
        for g in alternating_group_gens(5):
            images = list(range(10))
            images[shift:shift + 5] = [shift + x for x in g.images]
            gens.append(Permutation(images))
    return gens


def test_lattice_a5_times_a5_distributive_not_chain():
    # the finite shadow of the theorem: two simple factors give a
    # distributive lattice 1 < A5 x 1, 1 x A5 < A5 x A5, not a chain
    res = normal_lattice_analyze(generate_group(_a5_times_a5()))
    assert res["orders"] == [1, 60, 60, 3600]
    assert res["is_distributive"] and res["is_modular"]
    assert not res["is_chain"]


# ------------------------------- element-bitset oracles on naive products


def _oracle_inverse(t, bits):
    return t.bits_of(t.inv[x] for x in t.members(bits))


def _oracle_closure(t, bits):
    s = bits | 1 << t.identity_index
    while True:
        nxt = s | naive_set_product(t, s, s)
        if nxt == s:
            return s
        s = nxt


def _oracle_filtration(t, g):
    s = t.class_bits(g) | _oracle_inverse(t, t.class_bits(g))
    out = [s]
    while out[-1] != t.full_bits:
        nxt = out[-1] | naive_set_product(t, out[-1], s)
        if nxt == out[-1]:
            break
        out.append(nxt)
    return out


def symmetric_filtration(t, g):
    """D_1 subset D_2 subset ... until stabilization or full group, read
    off the class-space filtration the engine keeps."""
    return [t.union_of_classes(d) for d in _filtration(t, g)]


def _oracle_power_width(t, g):
    c = power = t.class_bits(g)
    seen = [power]
    while power != t.full_bits:
        power = naive_set_product(t, power, c)
        if power in seen:
            return None, power
        seen.append(power)
    return len(seen), None


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_class_space_matches_element_oracle(name):
    t = named_group(name)
    for g in range(t.order):
        assert normal_closure(t, g) == _oracle_closure(t, t.class_bits(g))
    for cls in t.classes[1:]:
        g = cls[0]
        filt = _oracle_filtration(t, g)
        assert symmetric_filtration(t, g) == filt
        sym = conjugacy_width(t, g, symmetric=True)
        if filt[-1] == t.full_bits:
            assert sym == len(filt)
        else:
            assert sym.stabilized_bits == filt[-1]
        m, stuck = _oracle_power_width(t, g)
        power = conjugacy_width(t, g)
        if m is None:
            assert power.stabilized_bits == stuck
        else:
            assert power == m


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_lattice_matches_brute_force(name):
    t = named_group(name)
    # every union of classes with 1 that is closed under products
    subs = []
    for pick in range(1 << len(t.classes)):
        s = t.union_of_classes(pick) | 1 << t.identity_index
        if s not in subs and naive_set_product(t, s, s) & ~s == 0:
            subs.append(s)
    subs.sort()
    res = normal_lattice_analyze(t)
    assert res["subgroups"] == subs
    k = len(subs)

    def leq(i, j):
        return subs[i] & ~subs[j] == 0

    def join(i, j):  # the least normal subgroup above both
        return min((m for m in range(k) if leq(i, m) and leq(j, m)),
                   key=lambda m: bin(subs[m]).count("1"))

    def meet(i, j):
        return subs.index(subs[i] & subs[j])

    triples = [(i, j, m) for i in range(k) for j in range(k)
               for m in range(k)]
    assert res["is_distributive"] == all(
        meet(i, join(j, m)) == join(meet(i, j), meet(i, m))
        for i, j, m in triples)
    assert res["is_modular"] == all(
        join(i, meet(j, m)) == meet(join(i, j), m)
        for i, j, m in triples if leq(i, m))
    assert res["is_chain"] == all(leq(i, j) or leq(j, i)
                                  for i in range(k) for j in range(k))
    assert res["hasse"] == [
        (i, j) for i in range(k) for j in range(k)
        if i != j and leq(i, j) and not any(
            m not in (i, j) and leq(i, m) and leq(m, j) for m in range(k))]


# ------------------------- tree-built tables against the dict references
#
# The table reads inverses, conjugacy classes and class products off the
# BFS tree of right multiplications. These references compute the same
# fields the direct way, composing image rows and looking each composed
# row up in the dict of row bytes.


def _gen_rows(gens):
    if isinstance(gens[0], Permutation):
        rows = [g.images for g in gens]
    else:
        rows = [engine._vector_action(g) for g in gens]
    return np.array(rows, dtype=np.min_scalar_type(len(rows[0]) - 1))


def _ref_closure(rows):
    """Image rows in BFS order, one dict lookup per product."""
    frontier = np.arange(rows.shape[1], dtype=rows.dtype)[None]
    index = {frontier.tobytes(): 0}
    out = [frontier]
    while len(frontier):
        prods = frontier[:, rows].reshape(-1, rows.shape[1])
        fresh = []
        for pos, p in enumerate(prods):
            if p.tobytes() not in index:
                index[p.tobytes()] = len(index)
                fresh.append(pos)
        frontier = prods[fresh]
        out.append(frontier)
    return np.concatenate(out)


def _ref_inverse(t):
    n = t.order
    inverse = np.empty_like(t.images)
    inverse[np.arange(n)[:, None], t.images] = np.arange(
        t.images.shape[1], dtype=t.images.dtype)
    return t.index_of(inverse).tolist()


def _ref_classes(t, rows):
    """Orbits under x -> g x g^-1 for each generator row g, by a BFS."""
    conj = [t.index_of(g[t.images[:, np.argsort(g)]]).tolist() for g in rows]
    class_of = [-1] * t.order
    classes = []
    for start in range(t.order):
        if class_of[start] >= 0:
            continue
        cid = len(classes)
        orbit, frontier = [start], [start]
        class_of[start] = cid
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


def _ref_class_products(t, classes, class_of):
    k = len(classes)
    class_of = np.array(class_of)
    table = []
    for cls in classes:
        meets = np.zeros((k, k), dtype=bool)
        meets[class_of, class_of[t.row(cls[0])]] = True
        table.append([t.bits_of(np.flatnonzero(m).tolist()) for m in meets])
    return table


def _assert_matches_references(t, gens, left_sample=None):
    rows = _gen_rows(gens)
    assert np.array_equal(t.images, _ref_closure(rows))
    assert t.inv == _ref_inverse(t)
    classes, class_of = _ref_classes(t, rows)
    assert t.classes == classes and t.class_of == class_of
    assert t.class_sets == [t.bits_of(cls) for cls in classes]
    assert t.full_mask == (1 << len(classes)) - 1
    assert t.inverse_class == [class_of[t.inv[cls[0]]] for cls in classes]
    assert t.class_product == _ref_class_products(t, classes, class_of)
    sample = range(t.order) if left_sample is None else random.Random(
        t.order).sample(range(t.order), left_sample)
    left = engine._left(engine._closure(rows, t.order)[2], list(sample))
    for g, row in zip(sample, left):
        assert row.tolist() == t.row(g).tolist()


def _relabelled(gens, rng):
    """The same group on shuffled points or in a random conjugate basis."""
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
    field, n = gens[0].field, gens[0].n
    while True:
        p = FqMatrix(field, [[rng.randrange(field.q) for _ in range(n)]
                             for _ in range(n)])
        if p.is_invertible():
            return [p * g * p.inverse() for g in gens]


BENCH_GENS = {
    "A5": lambda: alternating_group_gens(5),
    "A6": lambda: alternating_group_gens(6),
    "PSL2_7": lambda: psl2_gens(7),
    "PSL2_8": lambda: psl2_gens(8),
    "PSL2_13": lambda: psl2_gens(13),
    "S4": lambda: [Permutation.from_cycles(4, [[0, 1]]),
                   Permutation.from_cycles(4, [[0, 1, 2, 3]])],
    "D4": lambda: [Permutation.from_cycles(4, [[0, 1, 2, 3]]),
                   Permutation.from_cycles(4, [[0, 2]])],
    "Q8": lambda: [FqMatrix(F3, [[0, 2], [1, 0]]),
                   FqMatrix(F3, [[1, 1], [1, 2]])],
    "SL2_3": lambda: [FqMatrix(F3, [[1, 1], [0, 1]]),
                      FqMatrix(F3, [[0, 2], [1, 0]])],
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(BENCH_GENS))
def test_tree_tables_match_dict_references_relabelled(name, seed):
    gens = _relabelled(BENCH_GENS[name](), random.Random(seed))
    _assert_matches_references(generate_group(gens), gens)


@pytest.mark.parametrize("name", ["A5", "S4", "D4", "Q8"])
def test_tree_tables_match_in_blocks_of_chunks(name, monkeypatch):
    # a small _CHUNK_ENTRIES splits the class products into chunks and the
    # representatives' rows into blocks of several chunks each
    gens = BENCH_GENS[name]()
    t = generate_group(gens)
    n, k = t.order, len(t.classes)
    left, bitmasks = engine._left, engine._bitmasks
    passes = []
    monkeypatch.setattr(engine, "_left", lambda tree, gs: (
        passes.append("left"), left(tree, gs))[1])
    monkeypatch.setattr(engine, "_bitmasks", lambda flags: (
        passes.append("mask"), bitmasks(flags))[1])
    split = False
    for entries in sorted({1, n, 2 * n, 3 * n, 4 * n}
                          | {m * (n + k * k) for m in (1, 2, 3)}):
        monkeypatch.setattr(engine, "_CHUNK_ENTRIES", entries)
        passes.clear()
        table = generate_group(gens)
        # one pass for the generators' inverses, then one per block; two
        # masks per chunk (the classes and the class products)
        blocks, chunks = passes.count("left") - 1, passes.count("mask") // 2
        split |= 2 <= blocks < chunks
        _assert_matches_references(table, gens)
    assert split


TRANSPOSITION = Permutation.from_cycles(3, [[0, 1]])
THREE_CYCLE = Permutation.from_cycles(3, [[0, 1, 2]])

EDGE_GENS = {
    "A7": lambda: alternating_group_gens(7),
    "S6": lambda: [Permutation.from_cycles(6, [[0, 1]]),
                   Permutation.from_cycles(6, [list(range(6))])],
    "PSL2_16": lambda: psl2_gens(16),
    "PSL2_25": lambda: psl2_gens(25),
    "trivial": lambda: [Permutation(range(3))],
    "one-point": lambda: [Permutation([0])],
    "trivial-matrix": lambda: [FqMatrix.identity(F3, 2)],
    "cyclic": lambda: [Permutation.from_cycles(7, [list(range(7))])],
    "repeated": lambda: [TRANSPOSITION, THREE_CYCLE, TRANSPOSITION,
                         THREE_CYCLE],
    "identity-generator": lambda: [Permutation(range(3)), THREE_CYCLE,
                                   Permutation(range(3)), TRANSPOSITION],
    "A5xA5": _a5_times_a5,
}


@pytest.mark.parametrize("name", sorted(EDGE_GENS))
def test_tree_tables_match_dict_references(name):
    gens = EDGE_GENS[name]()
    t = generate_group(gens)
    _assert_matches_references(t, gens, 60 if t.order > 1000 else None)


@pytest.mark.parametrize("name", ["Q8", "SL2_3"])
def test_tree_tables_match_on_conjugated_matrices(name):
    rng = random.Random(5)
    for _ in range(3):
        gens = _relabelled(BENCH_GENS[name](), rng)
        _assert_matches_references(generate_group(gens), gens)


@pytest.mark.parametrize("name", sorted(BENCH_GENS) + ["trivial", "cyclic",
                                                       "A5xA5"])
def test_generate_group_cap_boundary(name):
    gens = {**BENCH_GENS, **EDGE_GENS}[name]()
    order = generate_group(gens).order
    assert generate_group(gens, cap=order).order == order
    with pytest.raises(CapExceeded, match=f"^group exceeds cap {order - 1}$"):
        generate_group(gens, cap=order - 1)


F2, F4 = FqField(2), FqField(2, 2)


@pytest.mark.parametrize("gens, error, message", [
    ([TRANSPOSITION, FqMatrix(F3, [[1, 1], [0, 1]])], TypeError,
     "all Permutation or all FqMatrix"),
    ([TRANSPOSITION, 3], TypeError, "all Permutation or all FqMatrix"),
    ([TRANSPOSITION, Permutation.from_cycles(4, [[0, 1, 2, 3]])], ValueError,
     "share a degree"),
    ([Permutation([])], ValueError, "share a degree n >= 1"),
    ([FqMatrix(F3, [[1, 1], [0, 1]]), FqMatrix(F3, [[1]])], ValueError,
     "one size and one field"),
    ([FqMatrix(F3, [[1, 1], [0, 1]]), FqMatrix(FqField(5), [[1, 1], [0, 1]])],
     ValueError, "one size and one field"),
    # both act on 16 vectors, over different fields
    ([FqMatrix(F2, [[int(i == j or j == i + 1) for j in range(4)]
                    for i in range(4)]),
      FqMatrix(F4, [[1, 2], [0, 1]])], ValueError, "one size and one field"),
    ([FqMatrix(F3, [[1, 1], [0, 0]])], ValueError, "must be invertible"),
    ([FqMatrix(F3, [[1, 1], [0, 1]]), FqMatrix(F3, [[2, 1], [1, 2]])],
     ValueError, "must be invertible"),
    ([], ValueError, "need at least one generator"),
], ids=["mixed", "not-a-group-element", "ragged-degrees", "degree-0",
        "matrix-sizes", "matrix-fields", "F2-4x4-with-F4-2x2", "singular",
        "singular-second", "empty"])
def test_generators_validated_before_use(gens, error, message):
    with pytest.raises(error, match=message) as info:
        generate_group(gens)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("name", ["A5", "SL2_3", "D4"])
def test_chunked_class_masks_give_the_same_table(name, monkeypatch):
    whole = generate_group(BENCH_GENS[name]())
    monkeypatch.setattr(engine, "_CHUNK_ENTRIES", 1)  # one class a chunk
    chunked = generate_group(BENCH_GENS[name]())
    for field in ("classes", "class_sets", "inverse_class", "class_product"):
        assert getattr(chunked, field) == getattr(whole, field)
