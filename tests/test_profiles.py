"""Tests for profiles, their quasiorder, and monomial spectra."""

import cmath
import itertools
import math
import random
import re
import zlib
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from lengthlab.perms import Permutation
from lengthlab.profiles import (
    IndexOutOfRange,
    OrderWitness,
    Profile,
    ProfileSequence,
    Unrealizable,
    _OPT_STATE_CAP,
    _lex_greedy,
    _monomial_units,
    _product_units,
    _profile,
    _realize_candidates,
    _shifted_singular_values,
    _spectrum_units,
    incomparability_demo,
    kyfan_profile_check,
    monomial_matrix,
    monomial_product,
    monomial_spectrum,
    optimal_torus_element,
    precede_check,
    precede_search,
    profile_join,
    profile_meet,
    profile_of,
    profile_of_finite_type,
    realize_profile,
    underline_singular,
)
from lengthlab.roots import (
    BadRank,
    TorusElement,
    _distances,
    _Orbit,
    _units,
    lfrac,
    normalize_angle,
)


def random_element(typ, rank, rng, denoms=(12,)):
    """Angle i is drawn in steps of 1/denoms[i % len(denoms)]."""
    n = rank + 1 if typ in ("A", "U") else rank
    angs = [F(rng.randint(-d, d), d)
            for d in (denoms[i % len(denoms)] for i in range(n))]
    if typ == "A":
        angs[-1] = -sum(angs[:-1])
    return TorusElement(typ, rank, tuple(angs))


def brute_optimal_dseq(t):
    """Lex-max distance sequence over the full rearrangement orbit."""
    typ = "A" if t.type == "U" else t.type
    angs = [normalize_angle(a) for a in t.angles]
    signs = [1] if typ in ("A", "U") else [1, -1]
    best = None
    profiles_of_best = set()
    for perm in set(itertools.permutations(angs)):
        for sg in itertools.product(signs, repeat=len(angs)):
            if typ == "D" and sg.count(-1) % 2:
                continue
            arr = tuple(normalize_angle(s * v) for s, v in zip(sg, perm))
            d = tuple(lfrac(b) for b in TorusElement(t.type, t.rank, arr).betas())
            if best is None or d > best:
                best = d
                profiles_of_best = set()
            if d == best:
                profiles_of_best.add(tuple(sorted(d, reverse=True)))
    # well-definedness: every lex-optimal arrangement has the same profile
    assert len(profiles_of_best) == 1
    return best


# ------------------------------------------------ optimal elements

# angles in twelfths, and in thirds, quarters and fifths mixed so that
# the common denominator is 60
@pytest.mark.parametrize("typ,denoms", [
    pytest.param(typ, (12,), id=typ) for typ in "AUBCD"
] + [
    pytest.param(typ, (3, 4, 5), id=f"{typ}-mixed") for typ in "AUBCD"
])
def test_optimal_element_matches_brute_force(typ, denoms):
    rng = random.Random(zlib.crc32(typ.encode()))
    for _ in range(8):
        rank = 4 if typ == "D" else rng.randint(2, 4)
        t = random_element(typ, rank, rng, denoms)
        opt, exact = optimal_torus_element(t)
        assert exact
        d = tuple(lfrac(b) for b in opt.betas())
        assert d == brute_optimal_dseq(t)


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_optimal_element_early_abort(typ):
    rng = random.Random(3)
    t = random_element(typ, 4, rng, (3, 4, 5))
    orb = _Orbit.of(t)
    values, exact = _lex_greedy(orb, _OPT_STATE_CAP)
    assert exact
    own = Counter(_distances(orb.typ, values, orb.D))
    assert _lex_greedy(orb, _OPT_STATE_CAP, dict(own)) == (values, True)
    # a distance in no table of the orbit is never drawn
    tables = [orb.end, *orb.step, *(orb.close or [])]
    never = [u for u in range(orb.D + 1) if all(u not in r for r in tables)]
    assert never
    swapped = own.copy()
    swapped[next(iter(own))] -= 1
    swapped[never[0]] += 1
    assert _lex_greedy(orb, _OPT_STATE_CAP, dict(swapped)) == (None, True)


def test_optimal_element_stays_in_orbit():
    rng = random.Random(5)
    for typ in ("A", "B", "C", "D"):
        rank = 5 if typ != "D" else 4
        t = random_element(typ, rank, rng)
        opt, _ = optimal_torus_element(t)
        folded = sorted(lfrac(a) for a in t.angles)
        assert sorted(lfrac(a) for a in opt.angles) == folded
        if typ == "A":
            assert sorted(map(normalize_angle, opt.angles)) == \
                sorted(map(normalize_angle, t.angles))


def test_integer_distances_match_betas():
    rng = random.Random(17)
    for typ in "AUBCD":
        for denoms in ((12,), (3, 4, 5), (7,)):
            for _ in range(20):
                t = random_element(typ, rng.randint(2, 7), rng, denoms)
                nums, D = _units(t.angles)
                assert [F(d, D) for d in _distances(typ, nums, D)] == \
                    [lfrac(b) for b in t.betas()]


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_profile_independent_of_denominator(typ):
    # the Ky Fan spectra reach _profile over a multiple of the least D
    rng = random.Random(zlib.crc32(typ.encode()) + 3)
    for _ in range(12):
        rank = rng.randint(2, 6)
        t = random_element(typ, rank, rng, (3, 4, 5))
        nums, D = _units(t.angles)
        for cap in (_OPT_STATE_CAP, 2):
            want = profile_of(t, state_cap=cap)
            for k in (1, 2, 7):
                got = _profile(_Orbit(typ, [k * a for a in nums], k * D),
                               rank, cap)
                assert (got.values, got.distances, got.exact) == \
                    (want.values, want.distances, want.exact)


def test_heuristic_flagged_inexact():
    rng = random.Random(9)
    t = random_element("B", 6, rng)
    opt, exact = optimal_torus_element(t, state_cap=1)
    assert not exact
    assert sorted(lfrac(a) for a in opt.angles) == \
        sorted(lfrac(a) for a in t.angles)
    assert not profile_of(t, state_cap=1).exact


@pytest.mark.parametrize("typ", ["B", "C"])
def test_rank_zero_signed_types_are_rejected(typ):
    # SO(1) and Sp(0) are trivial, so B and C start at rank 1 as D starts
    # at rank 2; no profile_of or optimal_torus_element call sees them
    with pytest.raises(BadRank, match=f"^{typ} needs rank >= 1$"):
        TorusElement(typ, 0, ())
    with pytest.raises(Unrealizable):
        realize_profile(Profile((), 0, (), True), typ, 0)


def test_realize_profile_follows_the_torus_rank_rule():
    # every rank TorusElement rejects is unrealizable, D at rank 1 too;
    # every other rank realizes the empty profile by a central element
    empty = Profile((), 0, (), True)
    for typ in ("A", "U", "B", "C", "D"):
        for rank in range(-2, 4):
            n = rank + 1 if typ in ("A", "U") else rank
            try:
                TorusElement(typ, rank, (0,) * max(n, 0))
            except BadRank:
                with pytest.raises(Unrealizable):
                    realize_profile(empty, typ, rank)
            else:
                t = realize_profile(empty, typ, rank)
                assert not any(profile_of(t).values)


def test_profile_is_decreasing_and_exact():
    rng = random.Random(11)
    for typ in ("A", "B", "C", "D"):
        t = random_element(typ, 5 if typ != "D" else 4, rng)
        P = profile_of(t)
        assert P.exact
        assert list(P.values) == sorted(P.values, reverse=True)
        assert all(P.value(i + 1) <= P.value(i) for i in range(1, P.support_bound))
        assert P.value(P.support_bound + 3) == 0.0


# ------------------------------------------------------ realization

@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_realize_round_trip(typ):
    rng = random.Random(zlib.crc32(typ.encode()))
    for _ in range(10):
        rank = rng.randint(2, 6)
        t = random_element(typ, rank, rng)
        P = profile_of(t)
        back = profile_of(realize_profile(P, typ, rank))
        assert list(back.distances) == sorted(P.distances, reverse=True)


def test_realize_round_trip_rank_8():
    rng = random.Random(81)
    for typ in ("A", "B", "C", "D"):
        t = random_element(typ, 8, rng)
        P = profile_of(t)
        back = profile_of(realize_profile(P, typ, 8))
        assert list(back.distances) == sorted(P.distances, reverse=True)


def test_realize_rejects_oversized_support():
    P = Profile((1.0, 0.5), 2, (F(1), F(1, 2)))
    with pytest.raises(Unrealizable):
        realize_profile(P, "A", 1)


def test_realize_from_float_values():
    # no exact distances attached: values get rationalized first
    P = Profile((math.sin(math.pi / 8),), 1)
    t = realize_profile(P, "A", 1)
    assert abs(profile_of(t).value(1) - math.sin(math.pi / 8)) < 1e-9
    assert t == realize_profile_reference(P, "A", 1)


def test_realize_detects_sandwich_obstruction():
    # a single positive distance among zeros cannot be optimal at rank
    # three: the lone distinct point always gets flanked twice
    with pytest.raises(Unrealizable):
        realize_profile(Profile((0.5,), 3, (F(1, 3),)), "A", 3)


# Fraction enumeration and realization, the oracle of the integer ones:
# candidates and dedup keys in Fractions, each candidate checked through
# the public optimal_torus_element, which runs without the early abort.

def distinct_orderings(items):
    items = sorted(items, reverse=True)

    def rec(rem):
        if not rem:
            yield ()
            return
        prev = object()
        for i, x in enumerate(rem):
            if x == prev:
                continue
            prev = x
            for tail in rec(rem[:i] + rem[i + 1:]):
                yield (x, *tail)

    return rec(items)


def realize_candidates_reference(dists, typ, rank):
    n = rank + 1 if typ in ("A", "U") else rank
    if typ in ("A", "U"):
        for edges in distinct_orderings(dists):
            for pat in itertools.product((1, -1), repeat=max(0, rank - 1)):
                zig = [F(0), edges[0]] if rank else [F(0)]
                for s, d in zip(pat, edges[1:]):
                    zig.append(zig[-1] + s * d)
                shift = -sum(zig) / n if typ == "A" else F(0)
                yield tuple(z + shift for z in zig)
        return
    for e in sorted(set(dists)):
        rest = list(dists)
        rest.remove(e)
        for edges in distinct_orderings(rest):
            for pat in itertools.product((1, -1), repeat=max(0, n - 2)):
                zig = [F(0)]
                if n >= 2:
                    zig.append(edges[0])
                for s, d in zip(pat, edges[1:]):
                    zig.append(zig[-1] + s * d)
                for es in (1, -1):
                    if typ == "B":
                        shift = es * e - zig[-1]
                    elif typ == "C":
                        shift = F(es * e, 2) - zig[-1]
                    else:
                        shift = (es * e - zig[-2] - zig[-1]) / 2
                    yield tuple(z + shift for z in zig)


def realize_profile_reference(P, typ, rank, cap=100_000):
    if P.distances is not None:
        dists = [F(d) for d in P.distances]
    else:
        dists = [F(2 * math.asin(min(1.0, max(0.0, v))) / math.pi)
                 .limit_denominator(10**12) for v in P.values]
    if len(dists) > rank:
        raise Unrealizable("support exceeds rank")
    dists = sorted(dists + [F(0)] * (rank - len(dists)), reverse=True)
    expect = Counter(dists)
    tried = 0
    seen = set()
    for angles in realize_candidates_reference(dists, typ, rank):
        norm = tuple(normalize_angle(a) for a in angles)
        if typ in ("A", "U"):
            key = tuple(sorted(norm))
        else:
            folded = tuple(sorted(lfrac(a) for a in norm))
            par = 0
            if typ == "D" and 0 not in folded and 1 not in folded:
                par = sum(1 for a in norm if a < 0) % 2
            key = (folded, par)
        if key in seen:
            continue
        seen.add(key)
        tried += 1
        if tried > cap:
            break
        t = TorusElement(typ, rank, angles)
        opt, exact = optimal_torus_element(t)
        if exact and Counter(lfrac(b) for b in opt.betas()) == expect:
            return t
    raise Unrealizable(f"no realization found for {dists} in type {typ}")


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_integer_candidates_match_fraction_reference(typ):
    # realize_profile's D: every step and every shift is integral over it
    rng = random.Random(zlib.crc32(typ.encode()) + 1)
    for _ in range(12):
        rank = rng.randint(2 if typ == "D" else 1, 5)
        den = rng.choice((1, 2, 5, 12, 30))
        dists = sorted((F(rng.randint(0, den), den) for _ in range(rank)),
                       reverse=True)
        n = rank + 1 if typ in ("A", "U") else rank
        D = math.lcm(*(d.denominator for d in dists)) * \
            {"A": n, "C": 2, "D": 2}.get(typ, 1)
        units = [int(d * D) for d in dists]
        got = [tuple(F(a, D) for a in c)
               for c in _realize_candidates(units, typ, rank)]
        assert got == list(realize_candidates_reference(dists, typ, rank))


@pytest.mark.parametrize("typ", ["A", "B", "C", "D"])
def test_realize_matches_fraction_reference(typ):
    rng = random.Random(zlib.crc32(typ.encode()) + 2)
    for rank in range(2, 7):
        for denoms in ((12,), (3, 4)):
            t = random_element(typ, rank, rng, denoms)
            P = profile_of(t)
            # the float path rationalizes the values first
            for Q in (P, Profile(P.values, P.support_bound)):
                assert realize_profile(Q, typ, rank) == \
                    realize_profile_reference(Q, typ, rank)
            # halving the top distance is often unrealizable; both agree
            d = sorted([P.distances[0] / 2, *P.distances[1:]], reverse=True)
            Q = Profile(tuple(math.sin(math.pi * float(x) / 2) for x in d),
                        rank, tuple(d))
            try:
                want = realize_profile_reference(Q, typ, rank, cap=200)
            except Unrealizable as exc:
                with pytest.raises(Unrealizable, match=re.escape(str(exc))):
                    realize_profile(Q, typ, rank, cap=200)
            else:
                assert realize_profile(Q, typ, rank, cap=200) == want


# ------------------------------------------------------- quasiorder

def seq_of(lengths, dims):
    return ProfileSequence({
        n: profile_of_finite_type(ell, d)
        for n, (ell, d) in enumerate(zip(lengths, dims))
    })


def test_precede_check_step_profiles():
    # support n vs support 2n: k = 2 works, k = 1 fails at the first
    # index past the smaller support
    F_seq = seq_of([F(1, 2)] * 4, [8, 8, 8, 8])
    H_seq = seq_of([F(1, 4)] * 4, [8, 8, 8, 8])
    ok, viol = precede_check(F_seq, H_seq, OrderWitness(1, 2))
    assert ok and viol is None
    ok, viol = precede_check(F_seq, H_seq, OrderWitness(64, 1))
    assert not ok
    assert viol == (0, 2)  # F(3) = 1 > 64 * H(3) = 0


def test_precede_search_finds_least_witness():
    F_seq = seq_of([F(1, 2)] * 3, [12, 12, 12])
    H_seq = seq_of([F(1, 4)] * 3, [12, 12, 12])
    w = precede_search(F_seq, H_seq, c_max=8, k_max=8)
    assert (w.k, w.c) == (2, 1)
    assert precede_search(H_seq, F_seq, c_max=8, k_max=8).k == 1
    # an all-ones profile can never dominate from a zero profile
    Z = ProfileSequence({0: profile_of_finite_type(0, 8)})
    O = ProfileSequence({0: profile_of_finite_type(1, 8)})
    assert precede_search(O, Z, c_max=64, k_max=8) is None


def test_witness_composition_transitivity():
    rng = random.Random(13)
    for _ in range(20):
        dims = [rng.randint(4, 30) for _ in range(3)]
        trip = []
        for _ in range(3):
            trip.append(seq_of(
                [F(rng.randint(0, d), d) for d in dims], dims))
        ws = []
        for A, B in ((trip[0], trip[1]), (trip[1], trip[2])):
            w = precede_search(A, B, c_max=4, k_max=6)
            ws.append(w)
        if None in ws:
            continue
        composed = OrderWitness(ws[0].c * ws[1].c, ws[0].k * ws[1].k)
        ok, viol = precede_check(trip[0], trip[2], composed)
        assert ok, (ws, viol)


def test_meet_join_lattice_laws():
    rng = random.Random(29)
    profs = []
    for _ in range(3):
        t = random_element("B", 5, rng)
        profs.append(profile_of(t))
    a, b, c = profs
    assert profile_meet(a, a).values == a.values
    assert profile_meet(a, b).values == profile_meet(b, a).values
    # distributivity holds exactly for pointwise min/max
    lhs = profile_meet(a, profile_join(b, c))
    rhs = profile_join(profile_meet(a, b), profile_meet(a, c))
    assert lhs.values == rhs.values
    assert lhs.distances == rhs.distances
    lhs = profile_join(a, profile_meet(b, c))
    rhs = profile_meet(profile_join(a, b), profile_join(a, c))
    assert lhs.values == rhs.values
    for i in range(1, 7):
        assert profile_meet(a, b).value(i) <= a.value(i) <= \
            profile_join(a, b).value(i)


def test_meet_join_match_validated_construction():
    rng = random.Random(41)

    def draw():
        if rng.random() < 0.5:
            return profile_of(random_element(rng.choice("ABCD"), 4, rng),
                              state_cap=rng.choice((1, 50_000)))
        k = rng.randint(0, 6)
        return Profile(tuple(sorted((rng.random() for _ in range(k)),
                                    reverse=True)), rng.randint(k, 8))

    def reference(P, Q, op):
        ln = max(len(P.values), len(Q.values))
        values = [op(P.value(i), Q.value(i)) for i in range(1, ln + 1)]
        dists = None
        if P.distances is not None and Q.distances is not None:
            pd = list(P.distances) + [F(0)] * (ln - len(P.distances))
            qd = list(Q.distances) + [F(0)] * (ln - len(Q.distances))
            dists = tuple(op(a, b) for a, b in zip(pd, qd))
        return Profile(tuple(values), max(P.support_bound, Q.support_bound),
                       dists, P.exact and Q.exact)

    for _ in range(300):
        a, b, c = draw(), draw(), draw()
        for got, want in (
                (profile_meet(a, b), reference(a, b, min)),
                (profile_join(a, b), reference(a, b, max)),
                (profile_meet(a, profile_join(b, c)),
                 reference(a, reference(b, c, max), min)),
                (profile_join(a, profile_meet(b, c)),
                 reference(a, reference(b, c, min), max))):
            assert got == want
            assert (got.values, got.distances, got.exact) == \
                (want.values, want.distances, want.exact)


def test_index_errors():
    P = profile_of_finite_type(F(1, 2), 6)
    with pytest.raises(IndexOutOfRange):
        P.value(0)
    with pytest.raises(IndexOutOfRange):
        underline_singular([F(1, 3)], 2)
    with pytest.raises(IndexOutOfRange):
        underline_singular([F(1, 3)], 0)


def test_step_profile_of_transposition_length():
    # normalized Hamming length 2/6 of a transposition in S_6
    P = profile_of_finite_type(F(2, 6), 6)
    assert P.support() == 2
    assert P.values == (1.0, 1.0)


# ------------------------------------------------ monomial unitaries

def random_monomial(n, rng):
    img = list(range(n))
    rng.shuffle(img)
    phases = tuple(F(rng.randint(-24, 24), 24) for _ in range(n))
    return Permutation(tuple(img)), phases


@pytest.mark.parametrize("n", [2, 5, 8])
def test_monomial_spectrum_matches_eigensolver(n):
    rng = random.Random(n)
    for _ in range(10):
        mon = random_monomial(n, rng)
        spec = monomial_spectrum(*mon)
        eig = sorted(np.angle(np.linalg.eigvals(monomial_matrix(mon)))
                     / np.pi)
        for a, b in zip(spec, eig):
            gap = abs(float(a) - b)
            assert min(gap, abs(gap - 2)) < 1e-9


def test_monomial_product_matches_matrix_product():
    rng = random.Random(77)
    for _ in range(10):
        g = random_monomial(6, rng)
        h = random_monomial(6, rng)
        M = monomial_matrix(monomial_product(g, h))
        assert np.allclose(M, monomial_matrix(g) @ monomial_matrix(h))


def test_monomial_spectrum_single_cycle():
    # one n-cycle with total phase Theta has angles (Theta + 2j)/n
    p = Permutation((1, 2, 0))
    spec = monomial_spectrum(p, (F(1, 2), F(0), F(0)))
    assert spec == sorted(normalize_angle(F(1 + 4 * j, 6)) for j in range(3))


def test_kyfan_profile_check_random_pairs():
    rng = random.Random(123)
    for trial in range(15):
        n = rng.randint(2, 10)
        rep = kyfan_profile_check(random_monomial(n, rng),
                                  random_monomial(n, rng),
                                  z_trials=3, seed=trial)
        assert rep["main_ok"] and rep["kyfan_ok"], rep
        assert rep["violations"] == []
        assert rep["pairs_checked"] > 0


def monomial_spectrum_reference(perm, phases):
    """The eigenvalue angles summed and divided in Fractions."""
    images = perm.images
    seen = [False] * len(images)
    angles = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = images[cur]
        theta = sum((F(phases[i]) for i in cyc), F(0))
        angles.extend(normalize_angle((theta + 2 * j) / len(cyc))
                      for j in range(len(cyc)))
    return sorted(angles)


def mixed_monomial(n, rng):
    img = list(range(n))
    rng.shuffle(img)
    dens = rng.sample((2, 3, 5, 7, 8, 9, 12, 24), 3)
    phases = tuple(F(rng.randint(-d, d), d)
                   for d in (rng.choice(dens) for _ in range(n)))
    return Permutation(tuple(img)), phases


@pytest.mark.parametrize("draw", [random_monomial, mixed_monomial],
                         ids=["24ths", "mixed"])
def test_integer_spectrum_matches_fraction_reference(draw):
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 12)
        g, h = draw(n, rng), draw(n, rng)
        units = [_monomial_units(g), _monomial_units(h)]
        units.append(_product_units(*units))
        gh = monomial_product(g, h)
        assert gh[1] == tuple(F(fh) + F(fg) for fh, fg in
                              zip(h[1], (g[1][j] for j in h[0].images)))
        for mon, mu in zip((g, h, gh), units):
            nums, E = _spectrum_units(*mu)
            assert all(-E < a <= E for a in nums) and nums == sorted(nums)
            want = monomial_spectrum_reference(*mon)
            assert [F(a, E) for a in nums] == want == monomial_spectrum(*mon)
            for phi in (-24, -7, 0, 5, 24, 31):
                assert _shifted_singular_values((nums, E), phi) == sorted(
                    (abs(1 - cmath.exp(1j * math.pi * float(F(phi, 24) + a)))
                     for a in want), reverse=True)


# --------------------------------------------------- min singular value

def test_underline_singular_grid_oracle():
    rng = random.Random(31)
    for _ in range(4):
        spec = [F(rng.randint(-24, 24), 24) for _ in range(5)]
        prev = None
        for i in range(1, 6):
            v = underline_singular(spec, i)
            grid = min(
                sorted((2 * abs(math.sin(math.pi * (p / 20000 + float(a)) / 2))
                        for a in spec), reverse=True)[i - 1] / 2
                for p in range(-20000, 20001))
            assert grid - 1e-4 <= v <= grid + 1e-12
            if prev is not None:
                assert v <= prev + 1e-12  # monotone in the index
            prev = v


def test_underline_singular_shared_eigenvalue():
    # for the top index the best z cancels one eigenvalue exactly
    spec = [F(1, 3), F(1, 3), F(-1, 2)]
    assert underline_singular(spec, 3) == 0.0


# ------------------------------------------------------ incomparability

def test_incomparability_demo_small_grid():
    rows = incomparability_demo(16, c_max=4, k_max=3)
    assert len(rows) == 2 * 4 * 3
    dirs = {r[0] for r in rows}
    assert dirs == {"g_preceq_h", "h_preceq_g"}
    # every grid witness fails in both directions at some family index
    assert all(r[3] is not None and 2 <= r[3] <= 16 for r in rows)
    # the rank-length direction first fails exactly at n = 2k
    for d, c, k, first in rows:
        if d == "g_preceq_h":
            assert first == 2 * k


def test_certificate_profile_instance():
    # a k-factor conjugate decomposition forces the profile inequality
    # F_g(6ki+1) <= 2^k * 6k * F_h(i+1) on the spectra
    from lengthlab.roots import torus_decompose_typeA

    rng = random.Random(4)
    for _ in range(5):
        r = rng.randint(2, 5)
        g = random_element("A", r, rng, denoms=(8,))
        h = random_element("A", r, rng, denoms=(8,))
        try:
            cert = torus_decompose_typeA(g, h, 16)
        except Exception:
            continue
        k = cert.count
        Fg = profile_of(TorusElement("U", r, g.angles))
        Fh = profile_of(TorusElement("U", r, h.angles))
        for i in range(r + 2):
            lhs = Fg.value(6 * k * i + 1) if 6 * k * i + 1 <= r else 0.0
            assert lhs <= (2 ** k) * 6 * k * Fh.value(i + 1) + 1e-12
