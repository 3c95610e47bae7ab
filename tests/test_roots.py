"""Tests for root systems, torus lengths, and conjugate decompositions."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lengthlab import roots as R
from lengthlab.roots import (
    BadRank,
    BoundViolated,
    CentralH,
    NoSplit,
    NotInOrbit,
    PolarInfeasible,
    RankTooLargeForExact,
    RankTooSmall,
    TorusElement,
    angle,
    apply_weyl_word,
    build_root_system,
    check_root_combinations,
    cocharacter_split,
    counterexample_family,
    ell1,
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
    weyl_search,
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


def test_negation_closure_and_coroot_relations():
    for typ, r in [("A", 4), ("B", 4), ("C", 3), ("G2", 2)]:
        rs = build_root_system(typ, r)
        rootset = set(rs.roots)
        for v in rs.roots:
            assert tuple(-a for a in v) in rootset
        # coroot normalization preserves additive relations by construction
        assert rs.coroot(rs.roots[0]) == rs.roots[0]


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


def cocharacter_split_reference(rs, alpha_short, beta_long):
    """cocharacter_split by the per-coordinate ratio, without its exact
    re-verification."""
    alpha, beta = tuple(alpha_short), tuple(beta_long)
    if alpha not in rs.fundamental or beta not in rs.fundamental:
        raise ValueError("both roots must be fundamental")
    if rs.norm2(alpha) == rs.norm2(beta):
        raise NoSplit("equal-length fundamental roots")
    longs = [r for r in rs.roots if rs.norm2(r) == rs.norm2(beta)]
    allowed = [F(1, 3), F(1, 2), F(1), F(-1, 3), F(-1, 2), F(-1)]
    for g1 in longs:
        for g2 in longs:
            v = tuple(a + b for a, b in zip(g1, g2))
            if all(a == 0 for a in v):
                continue
            mu = parallel_ratio_reference(alpha, v)
            if mu in allowed:
                return (weyl_search(rs, g1, beta), weyl_search(rs, g2, beta),
                        mu)
    raise NoSplit("no two-root combination found")


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


def test_cocharacter_split_matches_reference():
    for typ, r in [("B", r) for r in range(2, 7)] \
            + [("C", r) for r in range(2, 7)] + [("F4", 4), ("G2", 2)]:
        rs = build_root_system(typ, r)
        short = min(rs.norm2(f) for f in rs.fundamental)
        for a in rs.fundamental:
            for b in rs.fundamental:
                if rs.norm2(a) == short < rs.norm2(b):
                    assert cocharacter_split(rs, a, b) == \
                        cocharacter_split_reference(rs, a, b)


# ------------------------------------------------------------- angles


def test_angle_trivials():
    assert angle(F(0)) == 0.0
    assert angle(F(1)) == pytest.approx(math.pi)
    assert angle(F(-1, 2)) == pytest.approx(math.pi / 2)


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
    t2 = TorusElement.from_json(t.to_json())
    assert t2 == t


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


def brute_lambda_tilde(t):
    typ = "A" if t.type == "U" else t.type
    n = len(t.angles)
    best = F(0)
    for perm in itertools.permutations(t.angles):
        if typ in ("B", "C", "D"):
            for signs in itertools.product((1, -1), repeat=n):
                if typ == "D" and signs.count(-1) % 2:
                    continue
                seq = tuple(normalize_angle(s * a)
                            for s, a in zip(signs, perm))
                best = max(best, R._arrangement_value(typ, seq))
        else:
            best = max(best, R._arrangement_value(typ, perm))
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
    (TorusElement("U", 8, (F(0),) * 3 + (F(1, 2),) * 3 + (F(1, 3),) * 3), 50,
     "192+ states exceeds cap 50"),
], ids=["B12", "D6", "U8"])
def test_lambda_tilde_cap_message(t, cap, message):
    with pytest.raises(RankTooLargeForExact) as exc:
        lambda_tilde(t, state_cap=cap)
    assert str(exc.value) == message


def test_lambda_tilde_lower_bound_below_exact():
    rng = random.Random(6)
    for _ in range(5):
        t = rand_su(rng, 4)
        assert lambda_tilde_lower_bound(t, tries=40) <= lambda_tilde(t)


# ---------------------------------------------------------- l1 lengths


def test_ell1_trivials():
    ident = TorusElement("A", 3, (F(0),) * 4)
    assert ell1(ident) == 0
    minus = TorusElement("A", 3, (F(1),) * 4)
    assert ell1(minus) == pytest.approx(1.0)
    t = TorusElement("U", 1, (F(1, 2), F(0)))
    assert ell1(t) == pytest.approx(math.sqrt(2) / 4)


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


# ------------------------------------------------------ Weyl machinery


def test_weyl_identity_word():
    rs = build_root_system("A", 2)
    assert weyl_search(rs, rs.fundamental[0], rs.fundamental[0]) == []


def test_weyl_a2_word():
    rs = build_root_system("A", 2)
    w = weyl_search(rs, rs.fundamental[1], rs.fundamental[0])
    assert len(w) <= 3
    assert apply_weyl_word(rs, w, rs.fundamental[0]) == rs.fundamental[1]


def test_weyl_not_in_orbit():
    rs = build_root_system("B", 2)
    with pytest.raises(NotInOrbit):
        weyl_search(rs, rs.fundamental[1], rs.fundamental[0])


def test_weyl_orbit_all_same_length():
    rs = build_root_system("C", 3)
    base = rs.fundamental[0]
    for root in rs.roots:
        if rs.norm2(root) == rs.norm2(base):
            w = weyl_search(rs, root, base)
            assert apply_weyl_word(rs, w, base) == root


def fundamental_by_length(rs):
    short = min(rs.norm2(r) for r in rs.roots)
    s = next(f for f in rs.fundamental if rs.norm2(f) == short)
    lo = next(f for f in rs.fundamental if rs.norm2(f) != short)
    return s, lo


@pytest.mark.parametrize("typ,r,mu_abs", [("B", 2, F(1, 2)),
                                          ("C", 3, F(1, 2)),
                                          ("F4", 4, F(1, 2)),
                                          ("G2", 2, F(1, 3))])
def test_cocharacter_split(typ, r, mu_abs):
    rs = build_root_system(typ, r)
    s, lo = fundamental_by_length(rs)
    w1, w2, mu = cocharacter_split(rs, s, lo)
    assert abs(mu) == mu_abs
    g1 = apply_weyl_word(rs, w1, lo)
    g2 = apply_weyl_word(rs, w2, lo)
    assert tuple(mu * (a + b) for a, b in zip(g1, g2)) == s


def test_cocharacter_no_split():
    rs = build_root_system("A", 2)
    with pytest.raises(NoSplit):
        cocharacter_split(rs, rs.fundamental[0], rs.fundamental[1])


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


# ------------------------------------------- large-rank decomposition


def uniform_spacing_element(r, d=F(1, 8)):
    ang = [F(0) if i % 2 == 0 else d for i in range(r + 1)]
    s = sum(ang)
    return TorusElement("A", r, tuple(a - s / (r + 1) for a in ang))


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
    with pytest.raises(BoundViolated):
        large_rank_decompose(g, h, 1, 2)


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


def test_counterexample_lambda_tilde_exact():
    # three distinct angle values keep the orbit search exact at any n
    g3, h3 = counterexample_family(3)
    assert lambda_tilde(h3) == brute_lambda_tilde(h3)
    assert lambda_tilde(g3) == brute_lambda_tilde(g3)
