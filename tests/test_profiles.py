"""Tests for profiles, their quasiorder, and monomial spectra."""

import cmath
import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
import zlib
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from lengthlab import InvariantFailed, OutOfRange, profiles
from lengthlab.perms import Permutation
from lengthlab.profiles import (
    IndexOutOfRange,
    OrderWitness,
    Profile,
    Unrealizable,
    _OPT_STATE_CAP,
    _lex_greedy,
    _monomial_units,
    _pointwise,
    _product_units,
    _profile,
    _realize_candidates,
    _shifted_singular_values,
    _spectrum_units,
    incomparability_demo,
    kyfan_profile_check,
    precede_check,
    precede_search,
    profile_join,
    profile_meet,
    profile_of,
    profile_of_finite_type,
    random_monomial_pairs,
    realize_profile,
)
from lengthlab.roots import (
    BadRank,
    TorusElement,
    _distances,
    _first_violation,
    _Orbit,
    _units,
    _zigzag,
    lambda_of,
    lambda_tilde,
    lfrac,
    normalize_angle,
    sorted_distance_profile,
)


def random_element(typ, rank, rng, denoms=(12,)):
    """Angle i is drawn in steps of 1/denoms[i % len(denoms)]."""
    n = rank + 1 if typ in ("A", "U") else rank
    angs = [F(rng.randint(-d, d), d)
            for d in (denoms[i % len(denoms)] for i in range(n))]
    if typ == "A":
        angs[-1] = -sum(angs[:-1])
    return TorusElement(typ, rank, tuple(angs))


def betas(t):
    """Fundamental character angles of t, exact and normalized: the
    Fraction reference for `_distances`, whose lfrac they are."""
    th = t.angles
    if t.type in ("A", "U"):
        return [normalize_angle(th[i] - th[i + 1])
                for i in range(len(th) - 1)]
    out = [normalize_angle(th[i] - th[i + 1]) for i in range(t.rank - 1)]
    if t.type == "B":
        out.append(th[-1])
    elif t.type == "C":
        out.append(normalize_angle(2 * th[-1]))
    else:
        out.append(normalize_angle(th[-2] + th[-1]))
    return out


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
            d = tuple(map(lfrac, betas(TorusElement(t.type, t.rank, arr))))
            if best is None or d > best:
                best = d
                profiles_of_best = set()
            if d == best:
                profiles_of_best.add(tuple(sorted(d, reverse=True)))
    # well-definedness: every lex-optimal arrangement has the same profile
    assert len(profiles_of_best) == 1
    return best


def optimal_torus_element(t, state_cap=_OPT_STATE_CAP):
    """Orbit representative with lexicographically maximal cumulative
    character-distance sums; returns (element, exact_flag), exact_flag
    False for the zigzag heuristic past state_cap (see _lex_greedy)."""
    orb = _Orbit.of(t)
    values, _, exact = _lex_greedy(orb, state_cap)
    return TorusElement._trusted(
        t.type, t.rank, tuple(F(v, orb.D) for v in values)), exact


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
        d = tuple(lfrac(b) for b in betas(opt))
        assert d == brute_optimal_dseq(t)


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_optimal_element_early_abort(typ):
    rng = random.Random(3)
    t = random_element(typ, 4, rng, (3, 4, 5))
    orb = _Orbit.of(t)
    values, draws, exact = _lex_greedy(orb, _OPT_STATE_CAP)
    assert exact
    own = Counter(draws)
    assert _lex_greedy(orb, _OPT_STATE_CAP, dict(own)) == \
        (values, draws, True)
    # a distance in no table of the orbit is never drawn
    tables = [orb.end, *orb.step, *(orb.close or [])]
    never = [u for u in range(orb.D + 1) if all(u not in r for r in tables)]
    assert never
    swapped = own.copy()
    swapped[next(iter(own))] -= 1
    swapped[never[0]] += 1
    assert _lex_greedy(orb, _OPT_STATE_CAP, dict(swapped)) == \
        (None, None, True)


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


def test_type_d_profile_keeps_the_sign_parity():
    # lambda_tilde drops the parity of the sign flips, a profile cannot:
    # over all signed arrangements this one's would end (3/4, 0)
    t = TorusElement("D", 4, (F(3, 8), F(-3, 4), F(1, 8), F(3, 8)))
    assert profile_of(t).distances == (F(7, 8), F(7, 8), F(1, 2), F(1, 4))
    sums = {0: F(0), 1: F(0)}  # the best distance sum by flip parity
    for perm in itertools.permutations(t.angles):
        for signs in itertools.product((1, -1), repeat=4):
            arr = tuple(s * a for s, a in zip(signs, perm))
            total = sum(lfrac(b) for b in betas(TorusElement("D", 4, arr)))
            odd = signs.count(-1) % 2
            sums[odd] = max(sums[odd], total)
    assert sums[0] == sums[1]
    assert lambda_tilde(t) == sums[0] / 4


def test_integer_distances_match_betas():
    rng = random.Random(17)
    for typ in "AUBCD":
        for denoms in ((12,), (3, 4, 5), (7,)):
            for _ in range(20):
                t = random_element(typ, rng.randint(2, 7), rng, denoms)
                nums, D = _units(t.angles)
                assert [F(d, D) for d in _distances(typ, nums, D)] == \
                    [lfrac(b) for b in betas(t)]


def central_elements(typ, rank):
    """Elements of typ and rank whose character angles all vanish."""
    n = rank + 1 if typ in ("A", "U") else rank
    if typ == "A":
        return [TorusElement("A", rank, (F(2 * j, n),) * n) for j in range(n)]
    vals = {"U": (0, F(1, 3), 1), "B": (0,)}.get(typ, (0, 1))
    return [TorusElement(typ, rank, (F(v),) * n) for v in vals]


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_torus_kernels_match_betas(typ):
    # is_central, lambda_of and sorted_distance_profile against the
    # Fraction character angles, from the least rank of each type up
    rng = random.Random(zlib.crc32(typ.encode()) + 27)
    least = TorusElement.LEAST_RANK[typ]
    central = Counter()
    for rank in range(least, least + 6):
        for t in central_elements(typ, rank) + [
                random_element(typ, rank, rng, denoms)
                for denoms in ((12,), (3, 4, 5), (2,), (1,)) for _ in range(8)]:
            d = [lfrac(b) for b in betas(t)]
            central[t.is_central()] += 1
            assert t.is_central() == (set(d) <= {0})
            if rank == 0:
                with pytest.raises(BadRank):
                    lambda_of(t)
            else:
                assert lambda_of(t) == sum(d, F(0)) / rank
            order = sorted(range(len(d)), key=lambda i: (-d[i], i))
            steps = [math.sin(math.pi * float(d[i]) / 2) for i in order]
            assert sorted_distance_profile(t) == (steps, order)
    assert central[True] > 6 and central[False] > 100


def first_violation_reference(f, h, c, k):
    """The first i with F(k*i+1) > c*H(i+1) + 1e-12, F and H zero past
    the ends of f and h, scanning past both ends."""
    def at(values, i):
        return values[i - 1] if i <= len(values) else 0.0

    for i in range(len(f) + len(h) + 2):
        if at(f, k * i + 1) > c * at(h, i + 1) + 1e-12:
            return i
    return None


def test_first_violation_matches_brute_force():
    rng = random.Random(61)
    found = Counter()
    for _ in range(400):
        k, c = rng.randint(1, 4), rng.choice((1, 2, 3, 1.5, 64))
        h = [rng.choice((0.0, rng.random())) for _ in range(rng.randint(0, 6))]
        f = [rng.random() / c for _ in range(rng.randint(0, 12))]
        cases = [f, [x / 1e12 for x in f]]
        for i in range((len(f) + k - 1) // k):
            # F(k*i+1) at exactly c*H(i+1) + 1e-12, and one float above,
            # over a zero or a random f
            edge = c * (h[i] if i < len(h) else 0.0) + 1e-12
            for base in ([0.0] * len(f), f):
                for x in (edge, math.nextafter(edge, 2.0)):
                    g = list(base)
                    g[k * i] = x
                    cases.append(g)
        for g in cases:
            got = _first_violation(g, h, c, k)
            assert got == first_violation_reference(g, h, c, k)
            found[got is None] += 1
            if got is not None:
                found["last"] += k * (got + 1) >= len(g)
    assert found[True] > 1000 and found[False] > 1000 and found["last"] > 300


def test_witnesses_within_the_slack_do_not_compose():
    # the module docstring's example: F before G at (2, 1) and G before H
    # at (1, 1), but F before H at no c and k
    Fs, G, H = ({0: Profile(v, 1)} for v in ((2.5e-12,), (1e-12,), ()))
    assert precede_check(Fs, G, OrderWitness(2, 1)) == (True, None)
    assert precede_check(G, H, OrderWitness(1, 1)) == (True, None)
    assert precede_search(Fs, H, 2**64, 64) is None


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


# The scan of all successors, the oracle of the ranked scan: the same
# values, exact flag and budget left behind on every input.

def lex_greedy_reference(orb, state_cap, budget=None):
    """The lex-greedy search as a scan of every successor of every state
    in ascending label order, restarting the layer at each new maximum:
    the oracle of _lex_greedy's ranked scan."""

    def draw(d):
        # early abort: the greedy maximum is forced, so any draw outside
        # the expected multiset already decides the mismatch
        if budget is None:
            return True
        if budget.get(d, 0) == 0:
            return False
        budget[d] -= 1
        return True

    def successors(rem):
        # (rem2, label, flip) for every next placement, values ascending
        # and sign +1 first
        return [(rem[:i] + (c - 1,) + rem[i + 1:], lab, orb.flips[lab])
                for i, (c, labs) in enumerate(zip(rem, orb.labels)) if c
                for lab in labs]

    # lex fold: state -> labels of the first-found prefix reaching it
    states = {key: (key[1],) for key in successors(orb.counts)}
    draws = []
    exact = True
    for step in range(orb.n - 1):
        closing = orb.close is not None and step == orb.n - 2
        tab = orb.step
        if closing:
            # rank (step, close) pairs lexicographically as one integer
            width = orb.D + 1
            tab = [[a * width + b for a, b in zip(r, c)]
                   for r, c in zip(orb.step, orb.close)]
        best = -1
        nxt = {}
        succ = {}
        for (rem, lab, par), path in states.items():
            if rem not in succ:
                succ[rem] = successors(rem)
            row = tab[lab]
            for rem2, lab2, flip in succ[rem]:
                par2 = par ^ flip
                if closing and par2:
                    continue
                score = row[lab2]
                if score > best:
                    best = score
                    nxt = {}
                if score == best:
                    nxt.setdefault((rem2, lab2, par2), path + (lab2,))
        got = divmod(best, width) if closing else (best,)
        if not all(draw(d) for d in got):
            return None, None, True
        draws.extend(got)
        states = nxt
        if len(states) > state_cap:
            exact = False
            break

    if not exact:
        if budget is not None:
            return None, None, False
        # zigzag of the sorted angles: large distances first
        values = _zigzag([orb.values[labs[0]] for labs, c in
                          zip(orb.labels, orb.counts) for _ in range(c)])
        return values, _distances(orb.typ, values, orb.D), False

    if orb.typ in ("B", "C"):
        best_end = max(orb.end[key[1]] for key in states)
        states = {key: path for key, path in states.items()
                  if orb.end[key[1]] == best_end}
        if not draw(best_end):
            return None, None, True
        draws.append(best_end)

    values = [orb.values[lab] for lab in next(iter(states.values()))]
    # all survivors share the draws by construction; cross-check the
    # witness
    assert _distances(orb.typ, values, orb.D) == draws
    return values, draws, True


def orbit_tables_reference(orb):
    """(step, close, end) of orb by the mod-2D formulas."""
    D2 = 2 * orb.D
    step = [[min((a - b) % D2, (b - a) % D2) for b in orb.values]
            for a in orb.values]
    close = [[min((a + b) % D2, -(a + b) % D2) for b in orb.values]
             for a in orb.values] if orb.typ == "D" else None
    mult = {"B": 1, "C": 2}.get(orb.typ, 0)
    end = [min(mult * a % D2, -mult * a % D2) for a in orb.values]
    return step, close, end


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_orbit_tables_match_reference(typ):
    rng = random.Random(zlib.crc32(typ.encode()) + 5)
    for D in (1, 2, 3, 6, 12, 24, 60):
        for _ in range(20):
            nums = [rng.randint(-3 * D, 3 * D)
                    for _ in range(rng.randint(2, 10))]
            orb = _Orbit(typ, nums, D)
            assert (orb.step, orb.close, orb.end) == \
                orbit_tables_reference(orb)


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_lex_greedy_matches_reference(typ):
    # budgets: none, the orbit's own distances, and each of them short
    # by one; caps that stop the search at once, early, or not at all
    rng = random.Random(zlib.crc32(typ.encode()) + 7)
    orbits = [_Orbit(typ, [rng.randint(-D, D) for _ in range(n)], D)
              for D in (2, 6, 12, 24, 60)
              for n in range(2 if typ == "D" else 1, 11) for _ in range(2)]
    # counts whose bit fields are 1 to 5 bits wide, one value repeated
    # beside one to three others
    for count in (1, 2, 3, 4, 7, 8, 15, 16):
        for others in (1, 2, 3):
            v, *rest = rng.sample(range(-11, 13), 1 + others)
            orb = _Orbit(typ, [v] * count + rest, 12)
            assert max(orb.counts) == count
            orbits.append(orb)
    for orb in orbits:
        _, draws, _ = lex_greedy_reference(orb, _OPT_STATE_CAP)
        own = Counter(draws)
        budgets = [None, own] + [own - Counter({d: 1}) for d in own]
        for cap in (1, 3, _OPT_STATE_CAP):
            for budget in budgets:
                want = None if budget is None else dict(budget)
                got = None if budget is None else dict(budget)
                assert _lex_greedy(orb, cap, got) == \
                    lex_greedy_reference(orb, cap, want)
                assert got == want


@pytest.mark.parametrize("typ", ["A", "U", "B", "C", "D"])
def test_lex_greedy_draws_are_the_distances_in_order(typ):
    # draws in the order of _distances, type D's closing (step, close)
    # pair included, for the exact search and the zigzag fallback alike;
    # checked here independently of the search's own cross-check
    rng = random.Random(zlib.crc32(typ.encode()) + 11)
    flags = set()
    for _ in range(120):
        D = rng.choice((2, 6, 12, 24, 60))
        n = rng.randint(2, 9)
        orb = _Orbit(typ, [rng.randint(-D, D) for _ in range(n)], D)
        for cap in (_OPT_STATE_CAP, 1):
            values, draws, exact = _lex_greedy(orb, cap)
            flags.add((cap, exact))
            assert draws == _distances(orb.typ, values, orb.D)
    assert (1, False) in flags and (_OPT_STATE_CAP, False) not in flags


def test_lex_greedy_cross_checks_its_draws(monkeypatch):
    # a planted fault: distances that disagree with the greedy draws
    monkeypatch.setattr(profiles, "_distances", lambda typ, values, D: [])
    t = TorusElement("A", 2, (F(1, 3), F(1, 6), F(-1, 2)))
    with pytest.raises(InvariantFailed, match="^lex-greedy draws differ "
                       "from the distances of the path found$"):
        profile_of(t)


@pytest.mark.parametrize("typ", ["B", "C"])
def test_rank_zero_signed_types_are_rejected(typ):
    # SO(1) and Sp(0) are trivial, so B and C start at rank 1 as D starts
    # at rank 2; no profile_of or _lex_greedy call sees them
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


def test_realize_rejects_unknown_type():
    with pytest.raises(ValueError, match="^unknown type E$"):
        realize_profile(Profile((), 1), "E", 3)


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
# optimal_torus_element above, which runs without the early abort.

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
        if exact and Counter(lfrac(b) for b in betas(opt)) == expect:
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
    return {n: profile_of_finite_type(ell, d)
            for n, (ell, d) in enumerate(zip(lengths, dims))}


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
    Z = {0: profile_of_finite_type(0, 8)}
    O = {0: profile_of_finite_type(1, 8)}
    assert precede_search(O, Z, c_max=64, k_max=8) is None


def precede_search_reference(F_seq, H_seq, c_max, k_max, n0=0):
    """The full grid scan: every k, then every c, one check each."""
    for k in range(1, k_max + 1):
        for c in range(1, c_max + 1):
            w = OrderWitness(c, k, n0)
            if precede_check(F_seq, H_seq, w)[0]:
                return w
    return None


def random_values(rng, length):
    """Decreasing values in [0, 1] with Profile's 1e-12 slack: some rise
    by up to 1e-12 and some sit at -1e-12."""
    pool = [0.0, 1.0, 0.5, 1 / 3, 0.25]
    vals = sorted((rng.choice(pool + [rng.random()]) for _ in range(length)),
                  reverse=True)
    for j in range(1, length):
        if rng.random() < 0.15:
            vals[j] = min(vals[j - 1] + rng.choice([1e-13, 1e-12]), 1.0)
    if vals and rng.random() < 0.15:
        vals[-1] = -1e-12
    return vals


def random_pair(rng):
    """Two profile sequences on ragged, partly shared indices."""
    seqs = []
    for _ in range(2):
        seq = {}
        for n in rng.sample(range(6), rng.randint(1, 4)):
            vals = random_values(rng, rng.randint(0, 9))
            try:
                seq[n] = Profile(tuple(vals), 9)
            except OutOfRange:  # the rises broke the 1e-12 slack
                seq[n] = Profile(tuple(sorted(vals, reverse=True)), 9)
        seqs.append(seq)
    Fd, Hd = seqs
    if rng.random() < 0.2:
        # a value exactly at c * H + 1e-12, which passes
        n = rng.choice(sorted(Hd))
        h, c = rng.random() / 16, rng.randint(1, 12)
        Hd[n] = Profile((h,), 9)
        Fd[n] = Profile((c * h + 1e-12, 0.0), 9)
    if rng.random() < 0.1:
        # F(1) > 0 over H(1) = 0: no witness at any (c, k)
        n = rng.choice(sorted(Fd))
        Fd[n], Hd[n] = Profile((0.5,), 9), Profile((0.0, 0.0), 9)
    return Fd, Hd


def seeded_grid_pairs():
    """3000 seeded profile pairs, each with a (c_max, k_max, n0) grid."""
    rng = random.Random(97)
    for _ in range(3000):
        F_seq, H_seq = random_pair(rng)
        yield (F_seq, H_seq, rng.randint(1, 12), rng.randint(1, 12),
               rng.randint(0, 3))


def test_precede_search_matches_grid_reference():
    found = none = 0
    for F_seq, H_seq, c_max, k_max, n0 in seeded_grid_pairs():
        w = precede_search(F_seq, H_seq, c_max, k_max, n0)
        assert w == precede_search_reference(F_seq, H_seq, c_max, k_max, n0)
        found += w is not None and w.c > 1
        none += w is None
    assert found > 100 and none > 100


def test_witnesses_stay_witnesses_as_c_grows():
    # in normal form c * H(i+1) never decreases in c and F(k*i+1) never
    # increases in k, so each row and each column of the grid is sorted
    for F_seq, H_seq, c_max, k_max, n0 in seeded_grid_pairs():
        grid = [[precede_check(F_seq, H_seq, OrderWitness(c, k, n0))[0]
                 for c in range(1, c_max + 2)] for k in range(1, k_max + 2)]
        for k, oks in enumerate(grid, 1):
            assert oks == sorted(oks), (k, n0, oks)
        for c, oks in enumerate(zip(*grid), 1):
            assert list(oks) == sorted(oks), (c, n0, oks)


def test_profile_reads_tiny_negatives_as_zero():
    assert Profile((0.5, -1e-13, -1e-12), 3).values == (0.5, 0.0, 0.0)
    assert repr(Profile((-0.0,), 1).values[0]) == "-0.0"  # as given
    with pytest.raises(OutOfRange, match="-2e-12"):
        Profile((0.5, -2e-12), 2)


def test_profile_clamps_rises_to_the_running_minimum():
    assert Profile((1 + 5e-13, 0.5, 0.5 + 5e-13), 3).values == (1.0, 0.5, 0.5)
    # each rise is measured from the least value stored so far, so rises
    # of 1e-12 each cannot add up
    assert Profile((0.5, 0.5 + 1e-12, 0.5 + 1e-12), 3).values == (0.5,) * 3
    with pytest.raises(OutOfRange, match="at index 2"):
        Profile((0.5, 0.5 + 1e-12, 0.5 + 2e-12), 3)
    with pytest.raises(OutOfRange, match="nan"):
        Profile((float("nan"),), 1)


def test_profile_is_a_slotted_frozen_value():
    P = Profile((0.5, 0.25), 4, (F(1, 3), F(1, 6)))
    assert not hasattr(P, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.values = (1.0,)
    Q = Profile._trusted((0.5, 0.25), 4, (F(1, 3), F(1, 6)))
    assert Q == P and hash(Q) == hash(P) and repr(Q) == repr(P)
    assert dataclasses.replace(P, exact=False) == Profile(
        (0.5, 0.25), 4, (F(1, 3), F(1, 6)), False)
    with pytest.raises(OutOfRange):
        dataclasses.replace(P, values=(0.25, 0.5))


def test_profile_distances_are_made_on_first_read():
    # an orbit search's profile leaves the distances slot unset; the
    # first read makes the Fractions and fills it, later reads find it
    t = TorusElement("B", 4, (F(1, 2), F(1, 3), F(-1, 4), F(1, 8)))
    P = profile_of(t)
    slot = Profile.__dict__["distances"]
    with pytest.raises(AttributeError):
        slot.__get__(P)
    first = P.distances
    assert first == (F(5, 6), F(3, 4), F(3, 8), F(1, 8))
    assert slot.__get__(P) is first and P.distances is first
    with pytest.raises(AttributeError, match="^nothing$"):
        P.nothing
    # given distances are stored as they are
    Q = Profile(P.values, 4, first)
    assert slot.__get__(Q) is first
    assert Q == P and hash(Q) == hash(P) and repr(Q) == repr(P)
    assert profile_of(t) == P and repr(profile_of(t)) == repr(P)


def assert_normal_form(values, given):
    """values exactly non-increasing in [0, 1], each within 1e-12 of given."""
    assert len(values) == len(given)
    assert all(a >= b for a, b in zip(values, values[1:])), values
    assert all(0.0 <= v <= 1.0 and abs(v - g) <= 1e-12
               for v, g in zip(values, given)), (values, given)


def test_every_construction_is_in_normal_form():
    rng = random.Random(53)
    built = []
    for _ in range(2000):
        vals = random_values(rng, rng.randint(0, 9))
        try:
            P = Profile(tuple(vals), 9)
        except OutOfRange:
            continue
        assert_normal_form(P.values, vals)
        built.append(P)
    for _ in range(400):
        typ = rng.choice("AUBCD")
        t = random_element(typ, rng.randint(2, 6), rng,
                           rng.choice(((12,), (3, 4, 5), (7, 9))))
        orb = _Orbit.of(t)
        for cap in (1, _OPT_STATE_CAP):
            P = _profile(orb, t.rank, cap)
            assert_normal_form(P.values, [math.sin(math.pi * float(d) / 2)
                                          for d in P.distances])
            built.append(P)
    for _ in range(200):
        n = rng.randint(1, 40)
        P = profile_of_finite_type(F(rng.randint(0, n), n), n)
        assert_normal_form(P.values, [1.0] * len(P.values))
        built.append(P)
    for _ in range(3000):
        P, Q = rng.choice(built), rng.choice(built)
        ln = max(len(P.values), len(Q.values))
        for op in (min, max):
            R = _pointwise(P, Q, op)
            assert_normal_form(R.values, [op(P.value(i), Q.value(i))
                                          for i in range(1, ln + 1)])


BAD_INPUTS = {
    "Profile((0.2, 5.0, -3.0), 1)":
        "profile value 5.0 at index 1 is outside [-1e-12, 0.2 + 1e-12]",
    "OrderWitness(0, -4)": "need c >= 1 and k >= 1, got c=0, k=-4",
    "profile_of_finite_type(7, 4)": "need 0 <= ell <= 1, got 7",
    "precede_search({}, {}, 0, 3)": "empty (c, k) grid: c_max=0, k_max=3",
    "incomparability_demo(1)": "need n_max >= 2 and a nonempty (c, k) "
        "grid, got n_max=1, c_max=64, k_max=8",
    "list(random_monomial_pairs(0, 1, n_max=1001))":
        "need 2 <= n_max <= 1000, got 1001",
    # monomials of two sizes, and phase counts other than the size
    "kyfan_profile_check((Permutation((1, 0)), (0, 1)), "
    "(Permutation((0, 2, 1)), (0, 0, 0)))":
        "need one size n and n phases, got sizes 2 and 3 "
        "with 2 and 3 phases",
    "kyfan_profile_check((Permutation((1, 0)), (0, 1, 1)), "
    "(Permutation((1, 0)), (0, 0)))":
        "need one size n and n phases, got sizes 2 and 2 "
        "with 3 and 2 phases",
    "kyfan_profile_check((Permutation((1, 0)), (0, 1)), "
    "(Permutation((2, 0, 1)), (0, 0)))":
        "need one size n and n phases, got sizes 2 and 3 "
        "with 2 and 2 phases",
    "kyfan_profile_check((Permutation((1, 0)), (0, 1)), "
    "(Permutation((1, 0)), (0, 0)), z_trials=-4)":
        "need z_trials >= 0, got -4",
}


def test_input_checks_survive_python_O():
    # the checks raise, so python -O, which strips asserts, keeps them
    for expr, message in BAD_INPUTS.items():
        with pytest.raises(OutOfRange, match=re.escape(message)):
            eval(expr)
    code = f"""if True:
        from lengthlab import OutOfRange
        from lengthlab.perms import Permutation
        from lengthlab.profiles import (OrderWitness, Profile,
                                        incomparability_demo,
                                        kyfan_profile_check, precede_search,
                                        profile_of_finite_type,
                                        random_monomial_pairs)
        for expr in {list(BAD_INPUTS)!r}:
            try:
                eval(expr)
            except OutOfRange as exc:
                print(exc)
            else:
                print("accepted")
    """
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == list(BAD_INPUTS.values())


def test_precede_search_huge_grid():
    O = {0: profile_of_finite_type(1, 8)}
    Z = {0: profile_of_finite_type(0, 8)}
    assert precede_search(O, Z, c_max=2**64, k_max=2**64) is None
    # past the largest float, c is clamped: the product c * H stays finite
    H_seq = {0: Profile((1e-300, 1e-300), 2)}
    assert precede_search(O, H_seq, c_max=2**1100, k_max=3) is None
    F_seq = seq_of([F(1, 2)] * 3, [12, 12, 12])
    G_seq = seq_of([F(1, 4)] * 3, [12, 12, 12])
    assert (precede_search(F_seq, G_seq, c_max=2**1100, k_max=2)
            == precede_search_reference(F_seq, G_seq, c_max=8, k_max=2)
            == OrderWitness(1, 2))


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


def test_step_profile_of_transposition_length():
    # normalized Hamming length 2/6 of a transposition in S_6
    P = profile_of_finite_type(F(2, 6), 6)
    assert P.values == (1.0, 1.0)


# ------------------------------------------------ monomial unitaries

def random_monomial(n, rng):
    img = list(range(n))
    rng.shuffle(img)
    phases = tuple(F(rng.randint(-24, 24), 24) for _ in range(n))
    return Permutation(tuple(img)), phases


def monomial_product(g_mon, h_mon):
    """(perm, phases) of the matrix product g*h of two monomials."""
    perm, nums, D = _product_units(_monomial_units(g_mon),
                                   _monomial_units(h_mon))
    return perm, tuple(F(a, D) for a in nums)


def monomial_matrix(mon):
    perm, phases = mon
    n = len(perm.images)
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        M[perm.images[i], i] = cmath.exp(1j * math.pi * float(phases[i]))
    return M


@pytest.mark.parametrize("n", [2, 5, 8])
def test_monomial_spectrum_matches_eigensolver(n):
    rng = random.Random(n)
    for _ in range(10):
        mon = random_monomial(n, rng)
        nums, E = _spectrum_units(*_monomial_units(mon))
        eig = sorted(np.angle(np.linalg.eigvals(monomial_matrix(mon)))
                     / np.pi)
        for a, b in zip(nums, eig):
            gap = abs(a / E - b)
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
    nums, E = _spectrum_units(*_monomial_units((p, (F(1, 2), F(0), F(0)))))
    assert [F(a, E) for a in nums] == \
        sorted(normalize_angle(F(1 + 4 * j, 6)) for j in range(3))


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


def test_random_monomial_pairs_are_seeded_and_of_one_size():
    pairs = list(random_monomial_pairs(7, 20, n_max=5))
    assert pairs == list(random_monomial_pairs(7, 20, n_max=5))
    assert [trial for trial, _, _ in pairs] == list(range(20))
    for _, (pg, g_phases), (ph, h_phases) in pairs:
        assert 2 <= pg.n == len(g_phases) == ph.n == len(h_phases) <= 5
        assert all((24 * x).denominator == 1 and -1 <= x <= 1
                   for x in g_phases + h_phases)
    _, g, h = pairs[0]
    assert kyfan_profile_check(g, h, z_trials=1)["main_ok"]


def test_monomial_units_convert_only_other_phase_types():
    # int and Fraction phases reach _units as they are; a float or a
    # string is converted with Fraction
    p = Permutation((1, 0, 3, 2))
    phases = (F(1, 3), 2, 0.5, "-1/4")
    assert _monomial_units((p, phases)) == (p, [4, 24, 6, -3], 12)


def test_kyfan_check_reports_main_violations(monkeypatch):
    # a fault: the profiles of g and h read zero, that of g*h stays
    exact_profile, calls = profiles._profile, []

    def fault(orb, rank):
        calls.append(orb)
        return exact_profile(orb, rank) if len(calls) == 3 else \
            Profile((), rank)

    monkeypatch.setattr(profiles, "_profile", fault)
    g = (Permutation((1, 0)), (F(1, 2), F(0)))
    h = (Permutation((0, 1)), (F(0), F(0)))
    rep = kyfan_profile_check(g, h, z_trials=1)
    # g*h = g has the spectrum {1/4, -3/4}, so F_gh(1) = sin(pi/2)
    assert (rep["main_ok"], rep["kyfan_ok"]) == (False, True)
    assert rep["violations"] == [("main", 0, 0, 1.0, 0.0)]


def test_kyfan_check_reports_kyfan_violations(monkeypatch):
    # a fault: the singular values of 1 - xy*gh read 1, the others 0
    calls = []

    def fault(spec, phi):
        calls.append(phi)
        return [float(len(calls) % 3 == 0)] * len(spec[0])

    monkeypatch.setattr(profiles, "_shifted_singular_values", fault)
    rng = random.Random(4)
    g, h = random_monomial(3, rng), random_monomial(3, rng)
    rep = kyfan_profile_check(g, h, z_trials=2, seed=5)
    draw = random.Random(5)
    phis = [(draw.randint(-24, 24), draw.randint(-24, 24)) for _ in range(2)]
    assert calls == [p for x, y in phis for p in (x, y, x + y)]
    assert (rep["main_ok"], rep["kyfan_ok"]) == (True, False)
    assert rep["violations"] == [("kyfan", x / 24, y / 24, i, j)
                                 for x, y in phis
                                 for i in range(3) for j in range(3 - i)]


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
            assert [F(a, E) for a in nums] == want
            for phi in (-24, -7, 0, 5, 24, 31):
                assert _shifted_singular_values((nums, E), phi) == sorted(
                    (abs(1 - cmath.exp(1j * math.pi * float(F(phi, 24) + a)))
                     for a in want), reverse=True)


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


def incomparability_demo_reference(n_max, c_max, k_max):
    """Every (c, k) scans the family from n = 2 on."""
    from lengthlab.roots import (counterexample_family, lambda_tilde,
                                 scaled_rank_length_inf)

    ns = range(2, n_max + 1)
    g_rank, h_rank, g_tilde, h_tilde = {}, {}, {}, {}
    for n in ns:
        g, h = counterexample_family(n)
        g_rank[n] = profile_of_finite_type(scaled_rank_length_inf(g), 2 * n + 1)
        h_rank[n] = profile_of_finite_type(scaled_rank_length_inf(h), 2 * n + 1)
        g_tilde[n] = profile_of_finite_type(lambda_tilde(g), 2 * n)
        h_tilde[n] = profile_of_finite_type(lambda_tilde(h), 2 * n)
    rows = []
    for direction, Fd, Hd in (("g_preceq_h", g_rank, h_rank),
                              ("h_preceq_g", h_tilde, g_tilde)):
        for k in range(1, k_max + 1):
            for c in range(1, c_max + 1):
                first = next((n for n in ns if not precede_check(
                    {n: Fd[n]}, {n: Hd[n]}, OrderWitness(c, k))[0]), None)
                rows.append((direction, c, k, first))
    return rows


@pytest.mark.parametrize("n_max, c_max, k_max", [(8, 3, 5), (30, 100, 20)])
def test_incomparability_demo_matches_reference(n_max, c_max, k_max):
    assert (incomparability_demo(n_max, c_max, k_max)
            == incomparability_demo_reference(n_max, c_max, k_max))


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
