"""Tests for root systems, torus lengths, and conjugate decompositions."""

import itertools
import math
import random
import zlib
from collections import Counter
from fractions import Fraction
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lengthlab import InvariantFailed
from lengthlab import roots as R
from lengthlab.coloring import strong_color_cycle
from lengthlab.roots import (
    _STATE_CAP,
    BadRank,
    BoundViolated,
    CentralH,
    PolarInfeasible,
    RankTooLargeForExact,
    RankTooSmall,
    TorusElement,
    _Orbit,
    build_root_system,
    check_root_combinations,
    counterexample_family,
    ell1_prime,
    lambda_of,
    lambda_tilde,
    lambda_tilde_lower_bound,
    large_rank_decompose,
    lfrac,
    normalize_angle,
    scaled_rank_length_inf,
    su2_decompose,
    su2_lambda,
    su2_matrix,
    torus_decompose_typeA,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=24)


def rand_su(rng, r, denom=12):
    a = [F(rng.randint(-denom, denom), denom) for _ in range(r)]
    a.append(-sum(a))
    return TorusElement("A", r, tuple(a))


# ------------------------------------------------------- root systems


def test_a2_hexagon():
    rs = build_root_system("A", 2)
    assert len(rs.roots) == 6
    assert all(rs.norm2(r) == 2 for r in rs.roots)


def test_g2_explicit_vectors():
    rs = build_root_system("G2", 2)
    assert len(rs.roots) == 12
    expected = {(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1),
                (1, 0, -1), (-1, 0, 1), (2, -1, -1), (-2, 1, 1),
                (-1, 2, -1), (1, -2, 1), (-1, -1, 2), (1, 1, -2)}
    assert {tuple(int(a) for a in r) for r in rs.roots} == expected


def test_root_counts():
    assert len(build_root_system("B", 3).roots) == 18
    assert len(build_root_system("C", 4).roots) == 32
    assert len(build_root_system("D", 5).roots) == 40
    assert len(build_root_system("F4", 4).roots) == 48


def test_bad_ranks():
    with pytest.raises(BadRank):
        build_root_system("A", 13)
    with pytest.raises(BadRank):
        build_root_system("D", 1)
    with pytest.raises(BadRank):
        build_root_system("G2", 3)
    with pytest.raises(BadRank):
        build_root_system("X", 2)


def test_negation_closure():
    for typ, r in [("A", 4), ("B", 4), ("C", 3), ("G2", 2)]:
        rs = build_root_system(typ, r)
        rootset = set(rs.roots)
        for v in rs.roots:
            assert tuple(-a for a in v) in rootset


@pytest.mark.parametrize(
    "typ,r",
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 13)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("F4", 4), ("G2", 2)],
)
def test_root_combinations(typ, r):
    rep = check_root_combinations(build_root_system(typ, r))
    assert not rep["violations"]
    assert rep["long_ok"] and rep["short_ok"]
    mus = {abs(mu) for mu in rep["mu_values"]}
    if typ in ("A", "D"):
        assert rep["simply_laced"]
    elif typ == "G2":
        assert F(1, 3) in mus
    else:
        assert F(1, 2) in mus
        assert F(1, 3) not in mus


def parallel_ratio_reference(s, v):
    """mu with s = mu*v if the vectors are parallel, else None."""
    mu = None
    for a, b in zip(s, v):
        if b == 0:
            if a != 0:
                return None
            continue
        r = F(a) / b
        if mu is None:
            mu = r
        elif mu != r:
            return None
    return mu


def check_root_combinations_reference(rs):
    """The scan check_root_combinations replaced: every long + long sum
    against every short root, by a per-coordinate ratio."""
    report = {
        "type": rs.type,
        "rank": rs.rank,
        "simply_laced": rs.simply_laced(),
        "long_ok": True,
        "short_ok": True,
        "mu_values": set(),
        "violations": [],
    }
    if report["simply_laced"]:
        return report
    shorts = rs.short_roots()
    longs = rs.long_roots()
    shortset = set(shorts)

    for beta in longs:
        if not any(tuple(b - a for a, b in zip(a1, beta)) in shortset
                   for a1 in shorts):
            report["long_ok"] = False
            report["violations"].append(("long", beta))

    allowed = {F(1, 3), F(1, 2), F(1), F(-1, 3), F(-1, 2), F(-1)}
    for idx, g1 in enumerate(longs):
        for g2 in longs[idx:]:
            v = tuple(a + b for a, b in zip(g1, g2))
            if all(a == 0 for a in v):
                continue
            for s in shorts:
                mu = parallel_ratio_reference(s, v)
                if mu is None:
                    continue
                report["mu_values"].add(mu)
                if mu not in allowed:
                    report["violations"].append(("mu", g1, g2, s, mu))

    for alpha in shorts:
        found = False
        for g1 in longs:
            for g2 in longs:
                v = tuple(a + b for a, b in zip(g1, g2))
                if all(a == 0 for a in v):
                    continue
                mu = parallel_ratio_reference(alpha, v)
                if mu in allowed:
                    found = True
                    break
            if found:
                break
        if not found:
            report["short_ok"] = False
            report["violations"].append(("short", alpha))
    report["mu_values"] = sorted(report["mu_values"])
    return report


# B9-B12 are left to test_root_combinations: the reference scan takes
# 22 s over them, and about 8 s over everything below
@pytest.mark.parametrize(
    "typ,r",
    [(t, r) for t in "ACD" for r in range(1 if t == "A" else 2, 13)]
    + [("B", r) for r in range(2, 9)] + [("F4", 4), ("G2", 2)],
)
def test_root_combinations_match_reference(typ, r):
    rs = build_root_system(typ, r)
    new, ref = check_root_combinations(rs), check_root_combinations_reference(rs)
    assert new == ref and repr(new) == repr(ref)


def _signed_permutations(b):
    out = {tuple(s * a for s, a in zip(signs, p))
           for p in itertools.permutations(b)
           for signs in itertools.product((1, -1), repeat=len(b))}
    out.discard((0,) * len(b))
    return out


def test_root_combinations_reference_on_rational_systems():
    # G2 and B3 scaled out of 1/2 Z, then planar systems of two root
    # lengths, each the signed permutations of a random rational vector:
    # they have coefficients outside +-1/3, +-1/2, +-1 and short roots
    # with no allowed sum, which no genuine root system has
    systems = [R.RootSystem(t, r, tuple(tuple(c * a for a in v)
                                        for v in build_root_system(t, r).roots),
                            ()) for t, r, c in [("G2", 2, F(1, 3)),
                                                ("B", 3, F(-2, 7))]]
    rng = random.Random(5)
    while len(systems) < 62:
        bs = [F(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(2)]
        bl = [F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(2)]
        if 0 < sum(a * a for a in bs) < sum(a * a for a in bl):
            systems.append(R.RootSystem("X", 2, tuple(sorted(
                _signed_permutations(bs) | _signed_permutations(bl))), ()))
    kinds = set()
    for rs in systems:
        new = check_root_combinations(rs)
        ref = check_root_combinations_reference(rs)
        assert new == ref and repr(new) == repr(ref)
        kinds |= {v[0] for v in new["violations"]}
    assert kinds == {"long", "short", "mu"}
    assert check_root_combinations(systems[0])["mu_values"] == [F(-1, 3),
                                                                F(1, 3)]
    with pytest.raises(ValueError, match="zero vector"):
        check_root_combinations(R.RootSystem("X", 2, ((0, 0), (1, 0)), ()))


# ------------------------------------------------------------- angles


@given(rationals, rationals)
def test_angle_subadditive(a, b):
    assert lfrac(a + b) <= lfrac(a) + lfrac(b)


@given(rationals)
def test_normalize_window(a):
    v = normalize_angle(a)
    assert -1 < v <= 1
    assert (v - a) % 2 == 0


# ------------------------------------------------------ torus elements


def test_torus_validation():
    with pytest.raises(ValueError):
        TorusElement("A", 2, (F(1, 2), F(0), F(0)))  # det != 1
    with pytest.raises(ValueError):
        TorusElement("B", 3, (F(0), F(0)))  # wrong length
    with pytest.raises(ValueError):
        TorusElement("E", 2, (F(0), F(0)))


def test_torus_json_roundtrip():
    t = TorusElement("C", 3, (F(1, 3), F(-5, 7), F(1)))
    obj = t.to_json()
    assert obj == {"type": "C", "rank": 3, "angles": ["1/3", "-5/7", "1"]}
    assert TorusElement(obj["type"], obj["rank"],
                        tuple(F(a) for a in obj["angles"])) == t


def test_spectrum_shapes():
    assert len(TorusElement("B", 3, (F(0),) * 3).spectrum()) == 7
    assert len(TorusElement("C", 3, (F(0),) * 3).spectrum()) == 6
    assert len(TorusElement("D", 3, (F(0),) * 3).spectrum()) == 6
    assert len(TorusElement("A", 3, (F(0),) * 4).spectrum()) == 4


def test_lambda_central_su3():
    t = TorusElement("A", 2, (F(2, 3), F(2, 3), F(2, 3)))
    assert lambda_of(t) == 0
    assert t.is_central()


def test_lambda_su2_antipode():
    assert lambda_of(TorusElement("A", 1, (F(1, 2), F(-1, 2)))) == 1


def test_lambda_matches_direct_recomputation():
    rng = random.Random(2)
    for _ in range(20):
        t = rand_su(rng, 3)
        manual = sum(
            lfrac(t.angles[i] - t.angles[i + 1]) for i in range(3)
        ) / F(3)
        assert lambda_of(t) == manual


@pytest.mark.parametrize("typ", ["A", "B", "C", "D"])
def test_lambda_pseudo_length_axioms(typ):
    rng = random.Random(7)
    r = 4
    for _ in range(25):
        if typ == "A":
            s, t = rand_su(rng, r), rand_su(rng, r)
        else:
            s = TorusElement(typ, r, tuple(
                F(rng.randint(-12, 12), 12) for _ in range(r)))
            t = TorusElement(typ, r, tuple(
                F(rng.randint(-12, 12), 12) for _ in range(r)))
        inv = TorusElement(typ, r, tuple(-a for a in t.angles))
        prod = TorusElement(typ, r, tuple(
            a + b for a, b in zip(s.angles, t.angles)))
        assert lambda_of(t) == lambda_of(inv)
        assert lambda_of(prod) <= lambda_of(s) + lambda_of(t)
    ident = TorusElement(typ, r, (F(0),) * (r + 1 if typ == "A" else r))
    assert lambda_of(ident) == 0


# -------------------------------------------------------- lambda tilde


def _distinct_permutations(items):
    """Each distinct ordering of the multiset items, once."""
    left = Counter(items)
    prefix = []

    def walk():
        if len(prefix) == len(items):
            yield tuple(prefix)
        for v in left:
            if left[v]:
                left[v] -= 1
                prefix.append(v)
                yield from walk()
                prefix.pop()
                left[v] += 1

    return walk()


def _arrangement_value(typ, seq):
    """Exact character-angle sum of an ordered (signed) angle tuple."""
    total = sum((lfrac(seq[i] - seq[i + 1]) for i in range(len(seq) - 1)),
                Fraction(0))
    if typ == "B":
        total += lfrac(seq[-1])
    elif typ == "C":
        total += lfrac(2 * seq[-1])
    elif typ == "D":
        total += lfrac(seq[-2] + seq[-1])
    return total


def brute_lambda_tilde(t):
    typ = "A" if t.type == "U" else t.type
    n = len(t.angles)
    best = F(0)
    for perm in _distinct_permutations(t.angles):
        if typ in ("B", "C", "D"):
            for signs in itertools.product((1, -1), repeat=n):
                if typ == "D" and signs.count(-1) % 2:
                    continue
                seq = tuple(normalize_angle(s * a)
                            for s, a in zip(signs, perm))
                best = max(best, _arrangement_value(typ, seq))
        else:
            best = max(best, _arrangement_value(typ, perm))
    return best / t.rank


def test_lambda_tilde_su2_is_lambda():
    rng = random.Random(3)
    for _ in range(10):
        t = rand_su(rng, 1)
        assert lambda_tilde(t) == lambda_of(t)


# angles over one denominator, and in thirds, quarters and fifths mixed
# so that the common denominator is 60; halves at rank 6 repeat values
# (one draw has counts 1, 3, 3); primes near 10**12 put the common
# denominator near 10**36, past the kernel's int64 range
PRIMES = (999999999989, 999999999959, 1000000000039)


@pytest.mark.parametrize("typ,r,denoms", [
    pytest.param(typ, r, (8,), id=f"{typ}-{r}")
    for typ, r in [("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 2),
                   ("D", 3), ("D", 4), ("U", 3)]
] + [
    pytest.param(typ, 3, (3, 4, 5), id=f"{typ}-3-mixed") for typ in "AUBCD"
] + [
    pytest.param("U", 6, (2,), id="U-6-repeated")
] + [
    pytest.param(typ, 3, PRIMES, id=f"{typ}-3-prime") for typ in "AUBCD"
])
def test_lambda_tilde_matches_brute_force(typ, r, denoms):
    rng = random.Random(13 + r)
    for _ in range(6):
        n = r + 1 if typ in ("A", "U") else r
        ang = [F(rng.randint(-d, d), d)
               for d in (denoms[i % len(denoms)] for i in range(n))]
        if typ == "A":
            ang[-1] = -sum(ang[:-1])
        t = TorusElement(typ, r, tuple(ang))
        assert lambda_tilde(t) == brute_lambda_tilde(t)


def lambda_tilde_reference(t: TorusElement, state_cap=_STATE_CAP) -> Fraction:
    """lambda_tilde's fold on V[row, label, parity], maximizing over the
    label axis in the middle: the kernel before the outer-axis layout.

    Exact maximum of lambda over the orbit of rearrangements.

    Type A/U: permutations of the angles.  B/C: signed permutations.
    D: evenly-signed permutations.  Exact dynamic programming over the
    multiset of distinct angles; raises RankTooLargeForExact when the
    state space exceeds state_cap (use lambda_tilde_lower_bound then).
    """
    orb = _Orbit.of(t)
    P = 2 if orb.typ == "D" else 1
    bound = len(orb.values) * P
    for c in orb.counts:
        bound *= c + 1
        if bound > state_cap:
            raise RankTooLargeForExact(
                f"{bound}+ states exceeds cap {state_cap}")

    # the remaining counts rem as one mixed-radix index r < R
    counts = np.array(orb.counts)
    stride = np.cumprod(np.concatenate(([1], counts[:-1] + 1)))
    R = int((counts + 1).prod())
    rem = np.arange(R)[:, None] // stride % (counts + 1)
    # rows of the fold in layers of rem's digit sum (row 0 is rem = 0);
    # layer s, the states with s values left to place, is rows cuts[s]:
    # cuts[s + 1], and row R is a sentinel that no prefix reaches
    left = rem.sum(axis=1)
    order = np.argsort(left, kind="stable")
    cuts = np.searchsorted(left[order], np.arange(orb.n + 1)).tolist()
    row = np.empty(R + 1, dtype=np.intp)
    row[order] = np.arange(R)
    row[R] = R
    L = len(orb.values)
    labs = np.arange(L)
    value_of = labs // (L // len(counts))
    # src[i, lab]: the row before placing lab left the rem of row i
    src = row[np.where(rem[order][:, value_of] < counts[value_of],
                       order[:, None] + stride[value_of], R)]

    # max-plus fold: V[i, label, parity] is the largest distance sum of a
    # prefix reaching the state.  A full arrangement scores at most
    # (n + 1) * D, so int64 is exact below the threshold; past it the
    # same code runs on Python ints.  Unreached states start at neg and
    # stay negative after every weight.
    dtype = np.int64 if 2 * orb.D * orb.n < 2 ** 60 else object
    neg = -4 * orb.D * orb.n
    V = np.full((R + 1, L, P), neg, dtype=dtype)
    flips = np.array(orb.flips)
    first, lab = np.nonzero(src[cuts[-2]:cuts[-1]] < R)
    V[cuts[-2] + first, lab, flips[lab]] = 0
    step = np.array(orb.step, dtype=dtype)
    last = step if orb.close is None else \
        step + np.array(orb.close, dtype=dtype)
    step_t, last_t = step.T[:, :, None], last.T[:, :, None]
    lab_ix = labs[:, None]
    par_ix = (np.arange(P) ^ flips[:, None])[:, None, :]
    for s in range(orb.n - 2, -1, -1):
        a, b = cuts[s], cuts[s + 1]
        # cand[i, lab2, lab, p] = V[src[a + i, lab2], lab, p ^ flip(lab2)]
        cand = V[src[a:b, :, None, None], lab_ix, par_ix]
        cand += last_t if s == 0 else step_t
        V[a:b] = cand.max(axis=2)

    best = int((V[0, :, 0] + np.array(orb.end, dtype=dtype)).max())
    if best < 0:
        raise RankTooLargeForExact("no admissible arrangement")
    return Fraction(best, orb.D * t.rank)


def _outcome(f, t, **kw):
    """f's value on t, or the type and message of what it raised."""
    try:
        return f(t, **kw)
    except RankTooLargeForExact as exc:
        return type(exc).__name__, str(exc)


def _draw(typ, r, angle):
    """The element of type typ and rank r with angles angle(0), ...; the
    last one of type A is minus the sum of the others."""
    n = r + 1 if typ in ("A", "U") else r
    ang = [angle(i) for i in range(n)]
    if typ == "A":
        ang[-1] = -sum(ang[:-1])
    return TorusElement(typ, r, tuple(ang))


@pytest.mark.parametrize("typ", "ABCDU")
def test_lambda_tilde_matches_reference(typ):
    rng = random.Random(ord(typ))
    ts = []
    for r in range(2 if typ == "D" else 1, 11):
        # one denominator each, then values from a pool of three so that
        # most repeat; primes near 10**12 take the object-dtype path
        ts += [_draw(typ, r, lambda i: F(rng.randint(-d, d), d))
               for d in range(1, 13)]
        pool = [F(rng.randint(-12, 12), 12) for _ in range(3)]
        ts.append(_draw(typ, r, lambda i: rng.choice(pool)))
        if r <= 6:
            ts.append(_draw(typ, r, lambda i: F(
                rng.randint(-9, 9), PRIMES[i % len(PRIMES)])))
    if typ == "U":
        ts += [t for n in range(2, 65) for t in counterexample_family(n)]
    folded = 0
    for t in ts:
        want = _outcome(lambda_tilde_reference, t)
        assert _outcome(lambda_tilde, t) == want
        if typ in "AU" and _in_half_turn(t):
            # the closed form never reads the state cap
            assert lambda_tilde(t, state_cap=1) == want
            continue
        folded += 1
        # the state cap at the element's reduced bound passes; one less
        # raises.  The bound has no parity factor, and a type-A/U angle
        # with c of n copies counts at most n - c + 1 of them
        orb = _Orbit.of(t)
        counts = [min(c, orb.n - c + 1) if orb.typ == "A" else c
                  for c in orb.counts]
        bound = len(orb.values) * math.prod(c + 1 for c in counts)
        assert _outcome(lambda_tilde, t, state_cap=bound) == want
        assert _outcome(lambda_tilde, t, state_cap=bound - 1) == (
            "RankTooLargeForExact", f"{bound}+ states exceeds cap {bound - 1}")
    # both paths run for A/U: many draws span more than a half-turn
    assert folded >= 50


def _in_half_turn(t):
    """Whether some angle a has every angle of t within a half-turn
    above it, modulo a full turn."""
    return any(all((x - a) % 2 <= 1 for x in t.angles) for a in t.angles)


@pytest.mark.parametrize("typ", "AU")
def test_lambda_tilde_half_turn_matches_brute_force(typ):
    # fixed cases: a gap of exactly a half-turn, arcs across the +-1 wrap
    # and all-equal angles; type A keeps those with an even sum
    fixed = [(F(0), F(1)), (F(0), F(1), F(1)), (F(-1, 2), F(1, 2)),
             (F(5, 6), F(1), F(-5, 6)), (F(5, 6), F(1), F(-5, 6), F(1)),
             (F(0),) * 4, (F(1),) * 2, (F(1, 2),) * 4, (F(2, 3),) * 3,
             (F(1, 3),) * 5]
    ts = [TorusElement(typ, len(a) - 1, a) for a in fixed
          if typ == "U" or sum(a) % 2 == 0]
    # seeded draws from a narrow pool on an arc of at most a half-turn,
    # its ends included when the pool has two or more values; a type-A
    # draw's last angle is minus the sum of the others, and the draw is
    # dropped if that leaves every half-turn
    rng = random.Random(ord(typ) + 22)
    while len(ts) < 80:
        n = rng.randint(2, 9)
        start, width = F(rng.randint(-12, 11), 12), F(rng.randint(0, 12), 12)
        k = rng.randint(1, 3 if n > 6 else n)
        pool = ([start, start + width] + [
            start + width * F(rng.randint(0, 4), 4) for _ in range(k)])[:k]
        t = _draw(typ, n - 1, lambda i: rng.choice(pool))
        if _in_half_turn(t):
            ts.append(t)
    assert {len(t.angles) for t in ts} == set(range(2, 10))
    # a half-turn arc wider than 1 in the window (-1, 1] crosses the wrap
    assert sum(max(t.angles) - min(t.angles) > 1 for t in ts) >= 5
    for t in ts:
        want = brute_lambda_tilde(t)
        assert lambda_tilde(t) == lambda_tilde(t, state_cap=1) == want
        assert lambda_tilde_reference(t) == want


def test_lambda_tilde_counterexample_family_closed_forms():
    # every member lies in a half-turn, so no size reaches the state cap
    for n in [*range(2, 65), 10 ** 4]:
        g, h = counterexample_family(n)
        assert lambda_tilde(g) == (F(5, 8) if n == 2 else F(3, n * n))
        assert lambda_tilde(h) == F(2, n)


@pytest.mark.parametrize("typ", "AUBCD")
def test_lambda_tilde_majority_angle_matches_brute_force(typ):
    # values from a pool of one to three, the first on most places, so
    # that one angle often has more copies than the others have gaps:
    # A/U drop the surplus copies, B/C/D must not
    rng = random.Random(ord(typ) + 21)
    plain = typ in "AU"
    ts = [_draw(typ, 3 if plain else 4, lambda i: v)  # all equal
          for v in (F(0), F(1, 2), F(1))]
    for _ in range(40):
        n = rng.randint(2, 9 if plain else 6)
        pool = [F(rng.randint(-12, 12), 12) for _ in range(rng.randint(1, 3))]
        c = rng.randint(n // 2 + 1, n)
        ts.append(_draw(typ, n - 1 if plain else n, lambda i: pool[0]
                        if i < c else rng.choice(pool)))
    majority = 0
    for t in ts:
        top = max(Counter(t.angles).values())
        majority += top > len(t.angles) - top + 1
        assert lambda_tilde(t) == brute_lambda_tilde(t) == \
            lambda_tilde_reference(t)
    assert majority >= 20


def test_lambda_tilde_drops_surplus_copies():
    # 25,000 zeros and three halves: the unreduced bound 2 * 25001 * 4
    # exceeds the cap, and four zeros between the halves give the most,
    # six steps of 1/2
    t = TorusElement("U", 25002, (F(1, 2),) * 3 + (F(0),) * 25000)
    assert _outcome(lambda_tilde_reference, t) == (
        "RankTooLargeForExact", "200008+ states exceeds cap 200000")
    assert lambda_tilde(t) == F(3, 25002)


def test_lambda_tilde_type_d_bound_has_no_parity():
    # six distinct angles: 12 labels times 2**6 count states, 768, where
    # the fold with the parity of the sign flips needs twice as many
    t = TorusElement("D", 6, tuple(F(1, p) for p in range(3, 9)))
    assert _outcome(lambda_tilde_reference, t, state_cap=768) == (
        "RankTooLargeForExact", "1536+ states exceeds cap 768")
    assert lambda_tilde(t, state_cap=768) == lambda_tilde_reference(
        t, state_cap=2 * 768)


@pytest.mark.parametrize("f", [lambda_tilde, lambda_of, ell1_prime,
                               lambda_tilde_lower_bound],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("t", [TorusElement("A", 0, (F(0),)),
                               TorusElement("U", 0, (F(1, 2),))],
                         ids=["A0", "U0"])
def test_rank_zero_is_bad_rank(f, t):
    # every normalized length divides by the rank
    with pytest.raises(BadRank) as exc:
        f(t)
    assert str(exc.value) == f"{t.type} rank 0 has no normalized length"


def test_lambda_tilde_orbit_invariant():
    rng = random.Random(4)
    for _ in range(10):
        t = rand_su(rng, 4)
        perm = list(t.angles)
        rng.shuffle(perm)
        assert lambda_tilde(t) == lambda_tilde(
            TorusElement("A", 4, tuple(perm)))


def test_lambda_tilde_exact_cap():
    # many distinct values at high rank exceed the exact state cap
    t = TorusElement("B", 12, tuple(F(1, p) for p in range(3, 15)))
    with pytest.raises(RankTooLargeForExact):
        lambda_tilde(t, state_cap=1000)
    lb = lambda_tilde_lower_bound(t, tries=50)
    assert 0 <= lb <= 1


@pytest.mark.parametrize("t,cap,message", [
    (TorusElement("B", 12, tuple(F(1, p) for p in range(3, 15))), 1000,
     "1536+ states exceeds cap 1000"),
    (TorusElement("D", 6, tuple(F(1, p) for p in range(3, 9))), 500,
     "768+ states exceeds cap 500"),
    (TorusElement("U", 8, (F(0),) * 3 + (F(2, 3),) * 3 + (F(-2, 3),) * 3), 50,
     "192+ states exceeds cap 50"),
], ids=["B12", "D6", "U8"])
def test_lambda_tilde_cap_message(t, cap, message):
    with pytest.raises(RankTooLargeForExact) as exc:
        lambda_tilde(t, state_cap=cap)
    assert str(exc.value) == message


def lambda_tilde_lower_bound_reference(t, tries=200, seed=0):
    """The lower bound in Fraction arithmetic: the same zigzags and the
    same seeded signed shuffles, each scored by _arrangement_value."""
    rng = random.Random(seed)
    typ = "A" if t.type == "U" else t.type
    signed = typ in ("B", "C", "D")
    angles = [normalize_angle(a) for a in t.angles]

    def candidates():
        zig = R._zigzag(angles)
        yield zig
        yield list(reversed(zig))
        for _ in range(tries):
            seq = angles[:]
            rng.shuffle(seq)
            flips = 0
            if signed:
                for i in range(len(seq)):
                    if rng.random() < 0.5:
                        seq[i] = normalize_angle(-seq[i])
                        flips += 1
            if typ == "D" and flips % 2:
                seq[0] = normalize_angle(-seq[0])
            yield seq

    best = Fraction(0)
    for seq in candidates():
        best = max(best, _arrangement_value(typ, tuple(seq)))
    return best / t.rank


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_lambda_tilde_lower_bound_matches_reference(typ):
    # about half of type D's shuffles flip an odd number of signs, so the
    # parity fix on the first angle runs too
    rng = random.Random(zlib.crc32(typ.encode()) + 1)
    for rank in range(max(1, TorusElement.LEAST_RANK[typ]), 13):
        n = rank + 1 if typ in ("A", "U") else rank
        # twelfths, or a common denominator of 60
        denoms = (12,) if rank % 2 else (3, 4, 5)
        angles = [F(rng.randint(-2 * d, 2 * d), d)
                  for d in (denoms[i % len(denoms)] for i in range(n))]
        if typ == "A":
            angles[-1] = -sum(angles[:-1])
        t = TorusElement(typ, rank, tuple(angles))
        for tries in (0, 1, 40, 200):
            for seed in range(3):
                assert lambda_tilde_lower_bound(t, tries, seed) == \
                    lambda_tilde_lower_bound_reference(t, tries, seed)


def test_lambda_tilde_lower_bound_below_exact():
    rng = random.Random(6)
    for _ in range(5):
        t = rand_su(rng, 4)
        assert lambda_tilde_lower_bound(t, tries=40) <= lambda_tilde(t)


# ---------------------------------------------------------- l1 lengths


def test_ell1_prime_central_is_zero():
    t = TorusElement("A", 3, (F(1, 2),) * 4)
    assert ell1_prime(t) == pytest.approx(0.0, abs=1e-12)
    ident = TorusElement("C", 4, (F(0),) * 4)
    assert ell1_prime(ident) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("typ", ["A", "B", "C", "D"])
def test_ell1_prime_matches_grid(typ):
    rng = random.Random(17)
    for _ in range(5):
        r = 4
        if typ == "A":
            t = rand_su(rng, r)
        else:
            t = TorusElement(typ, r, tuple(
                F(rng.randint(-10, 10), 10) for _ in range(r)))
        spec = [float(a) for a in t.spectrum()]
        grid = np.linspace(-1, 1, 100_001)
        vals = np.zeros_like(grid)
        for th in spec:
            vals += 2 * np.abs(np.sin(np.pi * (grid + th) / 2))
        oracle = vals.min() / (2 * r)
        # exact kink minimum sits at or just below the grid minimum
        assert oracle - 1e-4 <= ell1_prime(t) <= oracle + 1e-12


def ell1_prime_reference(t):
    """ell1_prime on Fraction kinks, summed in spectrum order."""
    spec = t.spectrum()
    best = math.inf
    for kink in {normalize_angle(-a) for a in spec}:
        val = sum(2 * abs(math.sin(math.pi * float(kink + a) / 2))
                  for a in spec)
        best = min(best, val)
    return best / (2 * t.rank)


def test_ell1_prime_matches_fraction_reference():
    rng = random.Random(19)
    for typ in "ABCD":
        for r in range(2, 9):
            for denoms in ((12,), (3, 4, 5), (7, 60)):
                n = r + 1 if typ == "A" else r
                ang = [F(rng.randint(-d, d), d)
                       for d in (denoms[i % len(denoms)] for i in range(n))]
                if typ == "A":
                    ang[-1] = -sum(ang[:-1])
                t = TorusElement(typ, r, tuple(ang))
                assert ell1_prime(t) == ell1_prime_reference(t)


def test_scaled_rank_length():
    t = TorusElement("U", 2, (F(1), F(1), F(0)))
    assert scaled_rank_length_inf(t) == F(1, 3)


# -------------------------------------------------------------- SU(2)


def test_su2_matrix_homomorphism():
    rng = random.Random(1)
    for _ in range(20):
        q1 = tuple(rng.gauss(0, 1) for _ in range(4))
        n1 = math.sqrt(sum(a * a for a in q1))
        q1 = tuple(a / n1 for a in q1)
        q2 = tuple(rng.gauss(0, 1) for _ in range(4))
        n2 = math.sqrt(sum(a * a for a in q2))
        q2 = tuple(a / n2 for a in q2)
        lhs = su2_matrix(R._qmul(q1, q2))
        rhs = su2_matrix(q1) @ su2_matrix(q2)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_su2_decompose_aligned():
    cert = su2_decompose(F(1), F(1, 2), 2)
    assert cert.count == 2
    assert cert.product_error < 1e-9


def test_su2_decompose_g_equals_h():
    cert = su2_decompose(F(1, 3), F(1, 3), 2)
    assert cert.count == 1
    v, eps = cert.factors[0]
    assert eps == 1
    assert v == (1.0, 0.0, 0.0, 0.0)


def test_su2_bound_violated():
    with pytest.raises(BoundViolated):
        su2_decompose(F(1, 2), F(1, 100), 2)


def test_su2_polar_infeasible():
    # -1 has zero torus length but rotation angle pi
    with pytest.raises(PolarInfeasible):
        su2_decompose(F(1), F(1, 8), 2)


def test_su2_random_multiply_back():
    rng = random.Random(23)
    done = 0
    while done < 50:
        th = F(rng.randint(1, 99), 100)
        m = rng.choice([2, 4, 6])
        # forward-compose conjugates of h, then decompose the result
        a = math.pi * float(th)
        q = (1.0, 0.0, 0.0, 0.0)
        for _ in range(rng.randint(0, m)):
            ax = [rng.gauss(0, 1) for _ in range(3)]
            nn = math.hypot(*ax)
            f = (math.cos(a), *(math.sin(a) * x / nn for x in ax))
            q = R._qmul(q, f)
        tg = F(round(R._qpolar(q) / math.pi * 4096), 4096)
        if su2_lambda(tg) > m * su2_lambda(th):
            continue
        try:
            cert = su2_decompose(tg, th, m)
        except PolarInfeasible:
            continue  # rationalizing the angle can cross the boundary
        assert cert.count <= m
        assert cert.product_error < 1e-9
        done += 1


# ------------------------------------------- SU(r+1) decompositions


def test_typeA_rank1_reduces_to_su2():
    g = TorusElement("A", 1, (F(1, 3), F(-1, 3)))
    h = TorusElement("A", 1, (F(1, 4), F(-1, 4)))
    cert = torus_decompose_typeA(g, h, 2)
    assert cert.count <= 8
    assert cert.product_error < 1e-8


def test_typeA_g_equals_h_su3():
    g = TorusElement("A", 2, (F(1, 3), F(1, 4), F(-7, 12)))
    cert = torus_decompose_typeA(g, g, 2)
    assert cert.count <= 16
    assert cert.product_error < 1e-8


def test_typeA_central_h_rejected():
    g = TorusElement("A", 2, (F(1, 3), F(1, 4), F(-7, 12)))
    h = TorusElement("A", 2, (F(2, 3),) * 3)
    with pytest.raises(CentralH):
        torus_decompose_typeA(g, h, 2)


def test_typeA_bound_violated():
    g = TorusElement("A", 2, (F(1, 2), F(1, 2), F(1)))
    h = TorusElement("A", 2, (F(1, 1000), F(-1, 1000), F(0)))
    with pytest.raises(BoundViolated):
        torus_decompose_typeA(g, h, 2)


def test_typeA_input_checks():
    g = TorusElement("A", 2, (F(1, 3), F(1, 4), F(-7, 12)))
    with pytest.raises(ValueError, match="^type-A torus elements required$"):
        torus_decompose_typeA(g, TorusElement("U", 2, g.angles), 2)
    with pytest.raises(ValueError, match="^equal ranks required$"):
        torus_decompose_typeA(g, TorusElement("A", 1, (F(1, 3), F(-1, 3))), 2)
    big = TorusElement("A", 13, (F(1, 2), F(-1, 2)) + (F(0),) * 12)
    with pytest.raises(BadRank, match="^rank must be at most 12$"):
        torus_decompose_typeA(big, big, 2)


# h's block has polar 0.99*pi: an even number of its factors stays within
# 0.02*pi of polar 0, so the polar pi of -1 is out of reach
H_FAR = TorusElement("A", 1, (F(1, 100), F(-1, 100)))


@pytest.mark.parametrize("roots, fundamental", [
    ([(1, -1)], [(1, -1)]),  # -v missing
    ([(F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2))], [(1, -1)]),  # coefficient 1/2
    ([(1, -2, 1), (-1, 2, -1)], [(1, -1, 0), (0, 1, -1)]),  # a1 - a2
])
def test_root_system_check_rejects_planted_roots(roots, fundamental):
    def vectors(vs):
        return tuple(tuple(F(x) for x in v) for v in vs)

    rs = R.RootSystem("A", len(fundamental), vectors(roots),
                      vectors(fundamental))
    with pytest.raises(InvariantFailed, match=r"^not a root system at \("):
        R._validate_root_system(rs)


def test_typeA_block_unreachable_within_budget():
    # -1 has torus length 0, so the length bound holds at any m
    g = TorusElement("A", 1, (F(1), F(1)))
    with pytest.raises(BoundViolated,
                       match="^block 1 needs more than the 8-factor budget$"):
        torus_decompose_typeA(g, H_FAR, 2)


def test_block_factor_group_unreachable_target():
    # 2k factors reach polars up to 0.02k*pi: pi first at 100 factors
    assert R._block_factor_group(2, H_FAR, [1], [(1, F(1))], (2,)) is None
    assert R._block_factor_group(2, H_FAR, [1], [(1, F(1))],
                                 range(2, 99, 2)) is None
    assert len(R._block_factor_group(2, H_FAR, [1], [(1, F(1))],
                                     range(2, 101, 2))) == 100
    assert len(R._block_factor_group(2, H_FAR, [1], [(1, F(1, 100))],
                                     (2,))) == 2


def test_block_factor_group_rejects_an_odd_count():
    # half the factors conjugate h and half h^-1: a planted odd count
    # (both callers pass even ones) is rejected
    with pytest.raises(InvariantFailed, match="^odd factor count 3: "):
        R._block_factor_group(2, H_FAR, [1], [(1, F(99, 100))], (3,))


def test_least_paths_wait_for_every_plan():
    # with H_FAR's step, polar pi/100 is reached at 2 factors, pi at 100
    a = 0.99 * math.pi
    near, far = (math.pi / 100, a), (math.pi, a)
    assert [len(p) for p in R._least_paths([near], range(2, 101, 2))] == [2]
    assert R._least_paths([near, far], range(2, 99, 2)) is None
    paths = R._least_paths([near, far], range(2, 101, 2))
    assert [len(p) for p in paths] == [100, 100]
    assert [p[-1] for p in paths] == [near[0], far[0]]


def test_each_block_is_planned_once(monkeypatch):
    # README's torus-decompose example: two blocks, one plan each
    plans = []

    def counted(*args):
        plans.append(args)
        return real(*args)

    real = R._plan_polar_path
    monkeypatch.setattr(R, "_plan_polar_path", counted)
    g = TorusElement("A", 2, (F(1, 3), F(1, 6), F(-1, 2)))
    h = TorusElement("A", 2, (F(1, 4), F(-1, 4), F(0)))
    cert = torus_decompose_typeA(g, h, 8)
    assert len(plans) == 2
    assert cert.count == sum(count for _, _, count in plans)


def test_typeA_random_multiply_back():
    rng = random.Random(5)
    for _ in range(25):
        r = rng.choice([2, 3, 4, 5, 6, 7, 8])
        g, h = rand_su(rng, r), rand_su(rng, r)
        if h.is_central():
            continue
        cert, m = None, 2
        while m <= 64 and cert is None:
            if lambda_of(g) <= m * lambda_of(h):
                try:
                    cert = torus_decompose_typeA(g, h, m)
                except BoundViolated:
                    pass
            if cert is None:
                m += 2
        assert cert is not None
        assert cert.count <= 4 * m * r * r
        assert cert.product_error < 1e-8
        for _, eps in cert.factors:
            assert eps in (1, -1)


def test_typeA_conjugators_special_unitary():
    g = TorusElement("A", 3, (F(1, 2), F(1, 4), F(-1, 4), F(-1, 2)))
    cert = torus_decompose_typeA(g, g, 2)
    for c, _ in cert.factors:
        assert np.allclose(c @ c.conj().T, np.eye(4), atol=1e-12)
        assert abs(np.linalg.det(c) - 1) < 1e-10


def disjoint_blocks(n, k):
    """The k-sets of disjoint 1-based blocks (b, b+1) in n coordinates,
    by their first coordinates b."""
    return [c for c in itertools.combinations(range(1, n), k)
            if all(y - x >= 2 for x, y in zip(c, c[1:]))]


def test_block_permutation_is_an_even_permutation_matrix():
    maps = 0
    for n in range(2, 9):
        for k in range(n // 2 + 1):
            for sources in disjoint_blocks(n, k):
                for targets in itertools.chain.from_iterable(
                        map(itertools.permutations, disjoint_blocks(n, k))):
                    pairs = list(zip(sources, targets))
                    P = R._block_permutation(n, pairs)
                    assert set(np.unique(P)) <= {0, 1}
                    assert (P.sum(0) == 1).all() and (P.sum(1) == 1).all()
                    assert all(P[a - 1, b - 1] == P[a, b] == 1
                               for b, a in pairs)
                    assert round(np.linalg.det(P.real)) == 1
                    maps += 1
    assert maps == 1615  # every map for n <= 8, the empty ones included


# ------------------------------------------- large-rank decomposition


def uniform_spacing_element(r, d=F(1, 8)):
    ang = [F(0) if i % 2 == 0 else d for i in range(r + 1)]
    s = sum(ang)
    return TorusElement("A", r, tuple(a - s / (r + 1) for a in ang))


def orthogonal_triples_reference(indices):
    """The grouping large_rank_decompose made before it called
    partition_permutation: strong_color_cycle on the ranks of the indices,
    with the blocks in position order."""
    nn = len(indices)
    order = sorted(range(nn), key=lambda p: indices[p])
    vertex_of_pos = [0] * nn  # position in indices -> cycle vertex
    for vtx, pos in enumerate(order):
        vertex_of_pos[pos] = vtx
    blocks = [[vertex_of_pos[p] for p in range(s, min(s + 3, nn))]
              for s in range(0, nn, 3)]
    color = strong_color_cycle(nn, blocks)
    out = [[None] * (nn // 3) for _ in range(3)]
    for pos in range(nn):
        out[color[vertex_of_pos[pos]]][pos // 3] = indices[pos]
    return out


def test_orthogonal_triples_match_reference():
    # the backtracker serves nn <= 60 and does not read the order within
    # a block, so sorting the blocks changes no coloring
    rng = random.Random(29)
    sizes = Counter()
    for _ in range(1200):
        nn = 3 * rng.randint(1, 20)
        indices = rng.sample(range(1, rng.randint(nn, 201) + 1), nn)
        triples = R._orthogonal_triples(indices)
        assert triples == orthogonal_triples_reference(indices)
        sizes[nn] += 1
    assert len(sizes) == 20


def test_large_rank_too_small():
    h = uniform_spacing_element(15)
    with pytest.raises(RankTooSmall):
        large_rank_decompose(h, h, 1, 2)


def test_large_rank_g_equals_h_r21():
    h = uniform_spacing_element(21)
    cert = large_rank_decompose(h, h, 1, 2)
    assert cert.count <= 288
    assert cert.product_error < 1e-8


def test_large_rank_central_g_empty():
    g = TorusElement("A", 21, (F(1, 11),) * 22)
    h = uniform_spacing_element(21)
    cert = large_rank_decompose(g, h, 1, 2)
    assert cert.count == 0
    assert cert.central_remainder is not None
    assert cert.product_error < 1e-8


def test_large_rank_random_r25():
    rng = random.Random(9)
    for _ in range(4):
        g, h = rand_su(rng, 25, 10), rand_su(rng, 25, 10)
        if h.is_central():
            continue
        cert, m = None, 2
        while m <= 32 and cert is None:
            try:
                cert = large_rank_decompose(g, h, 1, m)
            except BoundViolated:
                m += 2
        assert cert is not None
        assert cert.count <= 140 * m + 4 * m
        assert cert.product_error < 1e-8


def test_large_rank_profile_precondition():
    g = uniform_spacing_element(25, F(1, 2))
    h = uniform_spacing_element(25, F(1, 1000))
    with pytest.raises(BoundViolated,
                       match=r"^F_g\(1\)=0\.707 > m\*F_h\(1\)=0\.00314$"):
        large_rank_decompose(g, h, 1, 2)


def test_large_rank_input_checks():
    h = uniform_spacing_element(21)
    message = "^type-A torus elements of equal rank required$"
    for g in (TorusElement("U", 21, h.angles), uniform_spacing_element(22)):
        with pytest.raises(ValueError, match=message):
            large_rank_decompose(g, h, 1, 2)


def test_large_rank_central_h_within_the_slack():
    # g's step values, about 3e-13, pass the domination against the zero
    # profile of a central h within its additive slack of 1e-12
    x = F(1, 10**13)
    g = TorusElement("A", 21, (x, -x) + (F(0),) * 20)
    h = TorusElement("A", 21, (F(0),) * 22)
    assert not g.is_central()
    with pytest.raises(CentralH, match="^h is central$"):
        large_rank_decompose(g, h, 1, 2)


def test_large_rank_unreachable_grouped_block(monkeypatch):
    monkeypatch.setattr(R, "_block_factor_group", lambda *args: None)
    h = uniform_spacing_element(21)
    with pytest.raises(BoundViolated,
                       match="^a grouped block is unreachable in 4m factors$"):
        large_rank_decompose(h, h, 1, 2)


def test_large_rank_unreachable_leftover_block(monkeypatch):
    # the grouped blocks are those of h's 15 largest distances, 1..15 here;
    # 17, 19 and 21 are the nonzero leftovers
    real = R._block_factor_group

    def fault(n, h, drivers, targets, counts):
        if targets[0][0] == 17:
            return None
        return real(n, h, drivers, targets, counts)

    monkeypatch.setattr(R, "_block_factor_group", fault)
    h = uniform_spacing_element(21)
    with pytest.raises(BoundViolated,
                       match="^leftover block 17 unreachable in 4m factors$"):
        large_rank_decompose(h, h, 1, 2)


def test_large_rank_count_over_bound(monkeypatch):
    # four copies of each factor group: 4 * 88 factors against 140m + 4m
    real = R._block_factor_group
    monkeypatch.setattr(R, "_block_factor_group",
                        lambda *args: real(*args) * 4)
    h = uniform_spacing_element(21)
    with pytest.raises(BoundViolated,
                       match="^352 factors exceed bound 288$"):
        large_rank_decompose(h, h, 1, 2)


def test_certificate_json():
    g = TorusElement("A", 2, (F(1, 3), F(1, 4), F(-7, 12)))
    cert = torus_decompose_typeA(g, g, 2)
    obj = cert.to_json()
    assert obj["count"] == cert.count
    assert obj["bound"] == 32
    assert len(obj["factors"]) == cert.count


# --------------------------------------------- counterexample family


def test_counterexample_n2_angles():
    g, h = counterexample_family(2)
    assert g.angles == (F(1), F(1, 4), F(1, 4), F(0), F(0))
    assert h.angles == (F(1), F(1), F(0), F(0), F(0))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_counterexample_rank_lengths(n):
    g, h = counterexample_family(n)
    assert scaled_rank_length_inf(h) == F(2, 2 * n + 1)
    assert scaled_rank_length_inf(g) == F(n + 1, 2 * n + 1)


def counterexample_family_reference(n):
    """The family built through the validating constructor, every angle
    normalized."""
    if n < 2:
        raise ValueError("need n >= 2")
    g_angles = [F(2 * (n - 1), n)] + [F(1, n * n)] * n + [F(0)] * n
    h_angles = [F(1), F(1)] + [F(0)] * (2 * n - 1)
    return (TorusElement("U", 2 * n, tuple(g_angles)),
            TorusElement("U", 2 * n, tuple(h_angles)))


def scaled_rank_length_inf_reference(t):
    """Every spectrum angle normalized again, each value counted apart."""
    spec = [normalize_angle(a) for a in t.spectrum()]
    top = max(spec.count(v) for v in set(spec))
    return F(len(spec) - top, len(spec))


def test_counterexample_family_matches_reference():
    for n in range(2, 129):
        pair, ref = counterexample_family(n), counterexample_family_reference(n)
        assert pair == ref
        for t, r in zip(pair, ref):
            assert all(type(a) is F for a in t.angles)
            assert (scaled_rank_length_inf(t)
                    == scaled_rank_length_inf_reference(r))
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="need n >= 2"):
            counterexample_family(n)


@pytest.mark.parametrize("typ", "ABCDU")
def test_scaled_rank_length_inf_matches_reference(typ):
    rng = random.Random(ord(typ) + 1)
    for r in range(2 if typ == "D" else 1, 11):
        for d in (1, 2, 3, 4, 6, 12):
            # few values per draw, so the most common one often repeats
            pool = [F(rng.randint(-2 * d, 2 * d), d) for _ in range(3)]
            t = _draw(typ, r, lambda i: rng.choice(pool))
            assert (scaled_rank_length_inf(t)
                    == scaled_rank_length_inf_reference(t))


def test_counterexample_lambda_tilde_exact():
    # three distinct angle values keep the orbit search exact at any n
    g3, h3 = counterexample_family(3)
    assert lambda_tilde(h3) == brute_lambda_tilde(h3)
    assert lambda_tilde(g3) == brute_lambda_tilde(g3)
