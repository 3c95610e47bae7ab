"""Profiles of torus elements and the (c,k)-quasiorder between them.

The profile of a torus element lists, in decreasing order, half the
distances |1-beta_i(t)|/2 of the fundamental character values of an
*optimal* representative t of its rearrangement orbit: the one whose
cumulative character-distance sums are lexicographically maximal.
Profiles of sequences of elements, {n: Profile} dicts, are compared by
F(k*i+1) <= c*H(i+1) + 1e-12.  Without the additive slack the witnesses
(c, k) would compose under transitivity to (c1*c2, k1*k2); within it they
need not (F = (2.5e-12,), G = (1e-12,), H = () has F before G and G
before H, and no witness of F before H).  A Profile keeps its values in
one normal form, exactly non-increasing floats in [0, 1], each within
1e-12 of its input, so a witness stays one as c or k grows.

Monomial unitaries (permutation matrices with phases) provide a class
with closed-form spectra on which the Ky Fan singular-value estimates
can be exercised without any dense eigensolver.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import InvariantFailed, LengthlabError, OutOfRange
from .perms import Permutation
from .roots import (
    TorusElement,
    _distances,
    _first_violation,
    _Orbit,
    _step_values,
    _units,
    _zigzag,
    lambda_tilde,
    scaled_rank_length_inf,
)


class Unrealizable(LengthlabError):
    pass


class IndexOutOfRange(LengthlabError):
    pass


# ----------------------------------------------------------- profiles

@dataclass(frozen=True, slots=True)
class Profile:
    """Decreasing values in [0,1], implicitly zero beyond the support.

    distances, None unless the profile came from exact arithmetic, are
    the character distances (units of pi), made on first read for an
    orbit search; exact=False marks a heuristic orbit search's profile.
    """

    values: tuple
    support_bound: int
    distances: tuple = None
    exact: bool = True
    _lazy: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # each value lies within 1e-12 of [0, low], low the least value
        # stored before it or 1.0, and is stored as min(low, max(v, 0.0))
        vals, low = [], 1.0
        for v in map(float, self.values):
            if not (v >= -1e-12 and v - low <= 1e-12):
                raise OutOfRange(f"profile value {v!r} at index {len(vals)} "
                                 f"is outside [-1e-12, {low!r} + 1e-12]")
            v = v if v >= 0.0 else 0.0
            if v < low:
                low = v
            vals.append(low)
        object.__setattr__(self, "values", tuple(vals))

    @classmethod
    def _trusted(cls, values, support_bound, distances=None, exact=True,
                 lazy=None):
        # values already in normal form: skip the checks; lazy, the
        # distances as (nums, D), leaves the distances slot unset
        P, set_ = cls.__new__(cls), object.__setattr__
        set_(P, "values", values)
        set_(P, "support_bound", support_bound)
        if lazy is None:
            set_(P, "distances", distances)
        set_(P, "exact", exact)
        set_(P, "_lazy", lazy)
        return P

    def __getattr__(self, name):
        # reached only while the distances slot is unset
        if name != "distances":
            raise AttributeError(name)
        nums, D = self._lazy
        object.__setattr__(self, name, tuple(Fraction(d, D) for d in nums))
        return self.distances

    def value(self, i):
        """F(i), 1-based, zero beyond the support."""
        if i < 1:
            raise IndexOutOfRange(i)
        return self.values[i - 1] if i <= len(self.values) else 0.0


@dataclass(frozen=True)
class OrderWitness:
    c: float
    k: int
    n0: int = 0

    def __post_init__(self):
        if not (self.c >= 1 and self.k >= 1):
            raise OutOfRange(f"need c >= 1 and k >= 1, got c={self.c}, "
                             f"k={self.k}")


# ------------------------------------------- optimal torus elements

_OPT_STATE_CAP = 50_000


def _lex_greedy(orb, state_cap, budget=None):
    """The lex-greedy orbit search in the integer units of orb: (values,
    draws, exact_flag), values the optimal arrangement as integers over
    orb.D and draws its `_distances`, in their order.

    Lex-maximality of cumulative distance sums equals lex-maximality of
    the distance sequence, so the search keeps every partial arrangement
    achieving the running maximum, over states (rem, label, parity): the
    remaining counts packed in one int, a bit field per value, the last
    label placed and the parity of the sign flips, which only type D's
    closing step reads.  Past state_cap it falls back to a sorted zigzag
    (exact_flag False).  budget, a distance -> count map in orb's units,
    is drawn down as the search goes; values and draws are None when it
    rules the orbit out, or when the state cap is hit with a budget.

    Each layer walks, for every state in order, the next labels ranked by
    decreasing score, ties in ascending label order (type D's closing
    layer ranks its (step, close) pairs as one integer).  It skips labels
    whose value is used up or whose parity the closing step rules out,
    and stops at the first score below the layer's best so far; a score
    above it restarts the layer.  A scan of every successor in ascending
    label order, restarting at each new maximum, keeps the same after its
    last restart: from the state with the first maximum on, each
    successor at the maximum, in label order.  So the states, their order
    and first-found paths agree, and with them the witness, the
    early-abort point and the state-cap hit.
    """

    # the remaining counts in one int, `bits` bits per value: label lab
    # is available while rem & mask[lab], and placing it takes unit[lab]
    bits = max(orb.counts).bit_length()
    unit = [1 << bits * i for i, labs in enumerate(orb.labels) for _ in labs]
    mask = [((1 << bits) - 1) * u for u in unit]
    flips = orb.flips

    def ranked(row):
        # the labels by decreasing score in row, ties in ascending order
        return sorted(range(len(row)), key=row.__getitem__, reverse=True)

    # lex fold: state -> labels of the first-found prefix reaching it
    rem = sum(c << bits * i for i, c in enumerate(orb.counts))
    states = {(rem - unit[lab], lab, flips[lab]): (lab,)
              for labs in orb.labels for lab in labs}
    tab = orb.step
    order = [ranked(row) for row in tab]
    draws = []
    exact = True
    for layer in range(orb.n - 1):
        closing = orb.close is not None and layer == orb.n - 2
        if closing:
            # (step, close) pairs as one integer, for the labels states end on
            width = orb.D + 1
            tab = {lab: [a * width + b for a, b in
                         zip(orb.step[lab], orb.close[lab])]
                   for lab in {key[1] for key in states}}
            order = {lab: ranked(row) for lab, row in tab.items()}
        best = -1
        nxt = {}
        for (rem, lab, par), path in states.items():
            row = tab[lab]
            for lab2 in order[lab]:
                if not rem & mask[lab2] or closing and par ^ flips[lab2]:
                    continue
                score = row[lab2]
                if score < best:
                    break
                if score > best:
                    best = score
                    nxt = {}
                nxt.setdefault((rem - unit[lab2], lab2, par ^ flips[lab2]),
                               path + (lab2,))
        got = divmod(best, width) if closing else (best,)
        if budget is not None:
            # early abort: the greedy maximum is forced, so any draw
            # outside the expected multiset already decides the mismatch
            for d in got:
                if not budget.get(d):
                    return None, None, True
                budget[d] -= 1
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
        if budget is not None:
            if not budget.get(best_end):
                return None, None, True
            budget[best_end] -= 1
        draws.append(best_end)

    values = [orb.values[lab] for lab in next(iter(states.values()))]
    # all survivors share the draws by construction; cross-check them
    if _distances(orb.typ, values, orb.D) != draws:
        raise InvariantFailed("lex-greedy draws differ from the distances "
                              "of the path found")
    return values, draws, True


def _profile(orb, rank, state_cap=_OPT_STATE_CAP) -> Profile:
    """Decreasing half-distances of the optimal arrangement of orb, whose
    D may be any common denominator of the angles."""
    _, dists, exact = _lex_greedy(orb, state_cap)
    dists.sort(reverse=True)
    return Profile._trusted(tuple(_step_values(dists, orb.D)), rank,
                            exact=exact, lazy=(dists, orb.D))


def profile_of(t: TorusElement, state_cap=_OPT_STATE_CAP) -> Profile:
    """Decreasing half-distances of the optimal orbit representative."""
    return _profile(_Orbit.of(t), t.rank, state_cap)


def profile_of_finite_type(ell, n) -> Profile:
    """Step profile of a normalized length value: 1 on [1, floor(n*ell)]."""
    ell = Fraction(ell)
    if not 0 <= ell <= 1:
        raise OutOfRange(f"need 0 <= ell <= 1, got {ell}")
    support = int(n * ell)
    return Profile((1.0,) * support, n, (Fraction(1),) * support, True)


# --------------------------------------------------------- quasiorder

def precede_check(F: dict, H: dict, w: OrderWitness):
    """Does F_n(k*i+1) <= c*H_n(i+1) hold for all n >= n0, i >= 0?

    Returns (ok, first violation (n, i) or None), up to the additive
    slack of `_first_violation`.  Indices beyond every support carry
    value zero, so the scan is finite.
    """
    for n in sorted(n for n in F if n in H and n >= w.n0):
        i = _first_violation(F[n].values, H[n].values, w.c, w.k)
        if i is not None:
            return False, (n, i)
    return True, None


def _least(hi, ok):
    """Least x in [1, hi] with ok(x), for ok monotone and ok(hi) true."""
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def precede_search(F: dict, H: dict, c_max, k_max, n0=0):
    """Least (k, then c) integer witness on the grid, or None.

    In normal form the witnesses form an up-set in both c and k, so the
    least k is the least that passes at c_max, and bisection finds it and
    then the least c at that k.  None is grid-relative only; it never
    proves incomparability.
    """
    if c_max < 1 or k_max < 1:
        raise OutOfRange(f"empty (c, k) grid: c_max={c_max}, k_max={k_max}")
    # a larger c overflows the float product c * H(i+1)
    c_max = min(c_max, int(sys.float_info.max))

    def ok(c, k):
        return precede_check(F, H, OrderWitness(c, k, n0))[0]

    if not ok(c_max, k_max):
        return None
    k = _least(k_max, lambda k: ok(c_max, k))
    return OrderWitness(_least(c_max, lambda c: ok(c, k)), k, n0)


def profile_meet(F: Profile, H: Profile) -> Profile:
    return _pointwise(F, H, min)


def profile_join(F: Profile, H: Profile) -> Profile:
    return _pointwise(F, H, max)


def _pointwise(F, H, op):
    # the pointwise min or max of two profiles in normal form is again in
    # normal form; the shorter values get zeros, as value() reads past
    # the support
    values = tuple(itertools.starmap(op, itertools.zip_longest(
        F.values, H.values, fillvalue=0.0)))
    dists = None
    if F.distances is not None and H.distances is not None:
        ln, zero = len(values), (Fraction(0),)
        dists = tuple(map(op,
                          tuple(F.distances) + zero * (ln - len(F.distances)),
                          tuple(H.distances) + zero * (ln - len(H.distances))))
    return Profile._trusted(values, max(F.support_bound, H.support_bound),
                            dists, F.exact and H.exact)


# --------------------------------------------------------- realization

def _distinct_orderings(items):
    """Distinct permutations of a multiset, near-sorted orders first."""
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


def _realize_candidates(dists, typ, rank):
    """Angle tuples whose own distance multiset equals dists.

    Any element realizing the target profile has its optimal arrangement
    among these: consecutive angles differ by one of the distances up to
    sign, the end character fixes the global shift (for signed types),
    and a global reflection is free.  Distances and angles are integers
    over one D (see realize_profile) that makes every shift integral;
    the angles are not normalized.
    """
    n = rank + 1 if typ in ("A", "U") else rank

    def zigzags(edges):
        # the n - 1 edges as steps from 0, the first one up
        for pat in itertools.product((1, -1), repeat=max(0, n - 2)):
            zig = [0, edges[0]] if n >= 2 else [0]
            for s, d in zip(pat, edges[1:]):
                zig.append(zig[-1] + s * d)
            yield zig

    if typ in ("A", "U"):
        for edges in _distinct_orderings(dists):
            for zig in zigzags(edges):
                shift = -sum(zig) // n if typ == "A" else 0
                yield tuple(z + shift for z in zig)
        return
    for e in sorted(set(dists)):
        rest = list(dists)
        rest.remove(e)
        for edges in _distinct_orderings(rest):
            for zig in zigzags(edges):
                for es in (1, -1):
                    if typ == "B":
                        shift = es * e - zig[-1]
                    elif typ == "C":
                        shift = es * e // 2 - zig[-1]
                    else:
                        shift = (es * e - zig[-2] - zig[-1]) // 2
                    yield tuple(z + shift for z in zig)


def realize_profile(P: Profile, typ, rank, cap=100_000) -> TorusElement:
    """Torus element whose profile equals P exactly.

    Candidate elements trace the distances as consecutive steps on the
    angle circle; each is accepted only if its own optimal profile
    reproduces P, since a rearrangement with sign flips can beat the
    intended arrangement.  Raises Unrealizable when no candidate within
    the cap verifies.

    Candidates and their checks run in integer units of 1/D, D the least
    common denominator of the distances times n = rank + 1 for type A
    and times 2 for C and D.  The steps are then integral, and so are
    the shifts: type A's minus the mean of n integers that are all
    multiples of n, C's half an end distance and D's half a sum of
    three distances that are all even.
    """
    least = TorusElement.LEAST_RANK.get(typ)
    if least is None:
        raise ValueError(f"unknown type {typ}")
    if rank < least:
        raise Unrealizable(f"{typ} has no elements of rank {rank}")
    if P.distances is not None:
        dists = [Fraction(d) for d in P.distances]
    else:
        dists = [Fraction(2 * math.asin(min(1.0, max(0.0, v))) / math.pi)
                 .limit_denominator(10**12) for v in P.values]
    if len(dists) > rank:
        raise Unrealizable("support exceeds rank")
    dists = sorted(dists + [Fraction(0)] * (rank - len(dists)), reverse=True)

    n = rank + 1 if typ in ("A", "U") else rank
    D = math.lcm(*(d.denominator for d in dists)) * \
        {"A": n, "C": 2, "D": 2}.get(typ, 1)
    units = [d.numerator * (D // d.denominator) for d in dists]
    expect = Counter(units)
    tried = 0
    seen = set()
    for angles in _realize_candidates(units, typ, rank):
        # candidates are only defined up to the rearrangement orbit, so
        # dedup by an orbit invariant before the expensive check
        norm = tuple(D - (D - a) % (2 * D) for a in angles)
        if typ in ("A", "U"):
            key = tuple(sorted(norm))
        else:
            folded = tuple(sorted(map(abs, norm)))
            par = 0
            if typ == "D" and 0 not in folded and D not in folded:
                par = sum(1 for a in norm if a < 0) % 2
            key = (folded, par)
        if key in seen:
            continue
        seen.add(key)
        tried += 1
        if tried > cap:
            break
        values, _, exact = _lex_greedy(_Orbit(typ, norm, D), _OPT_STATE_CAP,
                                       dict(expect))
        if values is not None and exact:
            return TorusElement._trusted(
                typ, rank, tuple(Fraction(a, D) for a in norm))
    raise Unrealizable(f"no realization found for {dists} in type {typ}")


# --------------------------------------------------- monomial unitaries
#
# Inside the Ky Fan check a monomial is (perm, nums, D): its phases as
# integers over their least common denominator D, and a spectrum is
# (angles, E): sorted normalized angles over one E per monomial.

def _monomial_units(mon):
    perm, phases = mon
    return (perm, *_units([p if isinstance(p, (int, Fraction)) else
                           Fraction(p) for p in phases]))


def _spectrum_units(perm, nums, D):
    """Spectrum of a monomial in units, over E = D*L with L the lcm of
    its cycle lengths: a cycle of length k and phase sum T/D has the k
    angles (T/D + 2j)/k = (T + 2jD)*(L/k)/E."""
    cycles = [(sum(nums[i] for i in c), len(c)) for c in perm.cycles()]
    L = math.lcm(*(k for _, k in cycles))
    E = D * L
    return sorted(E - (E - (T + 2 * j * D) * (L // k)) % (2 * E)
                  for T, k in cycles for j in range(k)), E


def _product_units(g, h):
    """The monomial g*h in units: e_i goes to e_{g(h(i))} with phase
    h_i + g_{h(i)}."""
    (pg, gn, gD), (ph, hn, hD) = g, h
    D = math.lcm(gD, hD)
    return pg * ph, [hn[i] * (D // hD) + gn[j] * (D // gD)
                     for i, j in enumerate(ph.images)], D


# one Ky Fan pair of size 1000 takes 0.6-0.9 s on a 2-core VM at
# z_trials=2, and 36 s at z_trials=1000
MAX_MONOMIAL_N = 1000


def random_monomial_pairs(seed, pairs, n_max=10):
    """The seeded Ky Fan inputs: (trial, g, h) for each trial < pairs, g
    and h monomials (permutation, phases in 24ths) of one size n drawn
    from 2..n_max."""
    if not 2 <= n_max <= MAX_MONOMIAL_N:
        raise OutOfRange(f"need 2 <= n_max <= {MAX_MONOMIAL_N}, got {n_max}")
    rng = random.Random(seed)

    def mon(n):
        img = list(range(n))
        rng.shuffle(img)
        return (Permutation(tuple(img)),
                tuple(Fraction(rng.randint(-24, 24), 24) for _ in range(n)))

    for trial in range(pairs):
        n = rng.randint(2, n_max)
        yield trial, mon(n), mon(n)


def kyfan_profile_check(g_mon, h_mon, z_trials=5, seed=0) -> dict:
    """Verify F_gh(6i+6j+1) <= 2F_g(i+1) + 2F_h(j+1) on a monomial pair,
    plus the underlying additive singular-value step on sampled central
    multipliers.  Returns a report; violations are collected, not raised."""
    (pg, gp), (ph, hp) = g_mon, h_mon
    if not pg.n == len(gp) == ph.n == len(hp):
        raise OutOfRange(f"need one size n and n phases, got sizes {pg.n} "
                         f"and {ph.n} with {len(gp)} and {len(hp)} phases")
    if z_trials < 0:
        raise OutOfRange(f"need z_trials >= 0, got {z_trials}")
    rng = random.Random(seed)
    g, h = _monomial_units(g_mon), _monomial_units(h_mon)
    specs = [_spectrum_units(*m) for m in (g, h, _product_units(g, h))]
    Fg, Fh, Fgh = (_profile(_Orbit("U", nums, E), len(nums) - 1)
                   for nums, E in specs)

    report = {"main_ok": True, "kyfan_ok": True, "violations": [],
              "pairs_checked": 0, "exact": Fg.exact and Fh.exact
              and Fgh.exact}
    n = len(specs[0][0])
    for i in range((n // 6) + 2):
        for j in range((n // 6) + 2):
            lhs = Fgh.value(6 * i + 6 * j + 1)
            rhs = 2 * Fg.value(i + 1) + 2 * Fh.value(j + 1)
            report["pairs_checked"] += 1
            if lhs > rhs + 1e-12:
                report["main_ok"] = False
                report["violations"].append(("main", i, j, lhs, rhs))

    # raw additive step: s_{i+j+1}(1 - xy*gh) <= s_{i+1}(1-x*g) + s_{j+1}(1-y*h)
    # for x = e^{i*pi*phi_x/24} and y = e^{i*pi*phi_y/24}
    for _ in range(z_trials):
        phi_x = rng.randint(-24, 24)
        phi_y = rng.randint(-24, 24)
        u, v, w = (_shifted_singular_values(spec, phi) for spec, phi in
                   zip(specs, (phi_x, phi_y, phi_x + phi_y)))
        for i in range(n):
            for j in range(n - i):
                if w[i + j] > u[i] + v[j] + 1e-12:
                    report["kyfan_ok"] = False
                    report["violations"].append(
                        ("kyfan", phi_x / 24, phi_y / 24, i, j))
    return report


def _shifted_singular_values(spec, phi):
    """Singular values of 1 - e^{i*pi*phi/24} g, decreasing (g normal),
    for the spectrum (nums, D) of g; int / int rounds exactly as
    float(Fraction) does."""
    nums, D = spec
    E = math.lcm(D, 24)
    a, p = E // D, phi * (E // 24)
    return sorted(
        (abs(1 - cmath.exp(1j * math.pi * ((p + x * a) / E))) for x in nums),
        reverse=True)


# ------------------------------------------------- incomparability demo

def incomparability_demo(n_max, c_max=64, k_max=8) -> list:
    """First failing family index for every grid witness, both ways.

    Uses the two proof-backed length functions: scaled rank length for
    the direction g before h, and the orbit-maximal torus length for the
    reverse.  Rows: (direction, c, k, first_failing_n).
    """
    if n_max < 2 or c_max < 1 or k_max < 1:
        raise OutOfRange(f"need n_max >= 2 and a nonempty (c, k) grid, got "
                         f"n_max={n_max}, c_max={c_max}, k_max={k_max}")
    ns = range(2, n_max + 1)
    from .roots import counterexample_family

    g_rank, h_rank = {}, {}
    g_tilde, h_tilde = {}, {}
    for n in ns:
        g, h = counterexample_family(n)
        dim = 2 * n + 1
        g_rank[n] = profile_of_finite_type(scaled_rank_length_inf(g), dim)
        h_rank[n] = profile_of_finite_type(scaled_rank_length_inf(h), dim)
        g_tilde[n] = profile_of_finite_type(lambda_tilde(g), 2 * n)
        h_tilde[n] = profile_of_finite_type(lambda_tilde(h), 2 * n)

    rows = []
    for direction, F, H in (("g_preceq_h", g_rank, h_rank),
                            ("h_preceq_g", h_tilde, g_tilde)):
        for k in range(1, k_max + 1):
            # on these step profiles (values 0 and 1) a larger c passes
            # wherever a smaller one does, so the first failing n never
            # decreases in c: resume where c - 1 failed
            n = 2
            for c in range(1, c_max + 1):
                while n <= n_max and _first_violation(
                        F[n].values, H[n].values, c, k) is None:
                    n += 1
                rows.append((direction, c, k, n if n <= n_max else None))
    return rows
