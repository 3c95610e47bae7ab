"""Profiles of torus elements and the (c,k)-quasiorder between them.

The profile of a torus element lists, in decreasing order, half the
distances |1-beta_i(t)|/2 of the fundamental character values of an
*optimal* representative t of its rearrangement orbit: the one whose
cumulative character-distance sums are lexicographically maximal.
Profiles of sequences of elements are compared by F(k*i+1) <= c*H(i+1),
a quasiorder whose witnesses (c, k) compose under transitivity.

Monomial unitaries (permutation matrices with phases) provide a class
with closed-form spectra on which the Ky Fan singular-value estimates
can be exercised without any dense eigensolver.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import LengthlabError, OutOfRange
from .perms import Permutation
from .roots import (
    TorusElement,
    _distances,
    _Orbit,
    _units,
    _zigzag,
    lambda_tilde,
    normalize_angle,
    scaled_rank_length_inf,
)


class Unrealizable(LengthlabError):
    pass


class IndexOutOfRange(LengthlabError):
    pass


# ----------------------------------------------------------- profiles

@dataclass(frozen=True)
class Profile:
    """Decreasing values in [0,1], implicitly zero beyond the support.

    distances carries the exact character distances (units of pi) when
    the profile came from exact arithmetic; exact=False marks profiles
    built by a heuristic orbit search.
    """

    values: tuple
    support_bound: int
    distances: tuple = None
    exact: bool = True

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        assert all(-1e-12 <= v <= 1 + 1e-12 for v in vals), vals
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), vals

    @classmethod
    def _trusted(cls, values, support_bound, distances=None, exact=True):
        # values already a decreasing tuple of floats in [0, 1]: skip checks
        P = cls.__new__(cls)
        P.__dict__.update(values=values, support_bound=support_bound,
                          distances=distances, exact=exact)
        return P

    def value(self, i):
        """F(i), 1-based, zero beyond the support."""
        if i < 1:
            raise IndexOutOfRange(i)
        return self.values[i - 1] if i <= len(self.values) else 0.0

    def support(self):
        return sum(1 for v in self.values if v > 1e-12)

    def to_json(self):
        return {
            "values": [repr(v) for v in self.values],
            "support_bound": self.support_bound,
            "distances": None if self.distances is None
            else [str(d) for d in self.distances],
            "exact": self.exact,
        }


@dataclass(frozen=True)
class ProfileSequence:
    """Finite indexed family n -> Profile."""

    profiles: dict

    def indices(self):
        return sorted(self.profiles)


@dataclass(frozen=True)
class OrderWitness:
    c: float
    k: int
    n0: int = 0

    def __post_init__(self):
        assert self.c >= 1 and self.k >= 1


# ------------------------------------------- optimal torus elements

_OPT_STATE_CAP = 50_000


def _lex_greedy(orb, state_cap, budget=None):
    """The lex-greedy orbit search in the integer units of orb: (values,
    exact_flag), values the optimal arrangement as integers over orb.D.

    Lex-maximality of cumulative distance sums equals lex-maximality of
    the distance sequence, so the search keeps every partial arrangement
    achieving the running maximum, over states (rem, label, parity): the
    remaining count of each value, the last label placed and the parity
    of the sign flips, which only type D's closing step reads.  Past
    state_cap it falls back to a sorted zigzag (exact_flag False).
    budget, a distance -> count map in orb's units, is drawn down as the
    search goes; values is None when it rules the orbit out, or when the
    state cap is hit with a budget.
    """

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
            return None, True
        draws.extend(got)
        states = nxt
        if len(states) > state_cap:
            exact = False
            break

    if not exact:
        if budget is not None:
            return None, False
        # zigzag of the sorted angles: large distances first
        return _zigzag([orb.values[labs[0]] for labs, c in
                        zip(orb.labels, orb.counts) for _ in range(c)]), False

    if orb.typ in ("B", "C"):
        best_end = max(orb.end[key[1]] for key in states)
        states = {key: path for key, path in states.items()
                  if orb.end[key[1]] == best_end}
        if not draw(best_end):
            return None, True
        draws.append(best_end)

    values = [orb.values[lab] for lab in next(iter(states.values()))]
    # all survivors share the draws by construction; cross-check the
    # witness
    assert orb.typ == "D" or _distances(orb.typ, values, orb.D) == draws
    return values, True


def _profile(orb, rank, state_cap=_OPT_STATE_CAP) -> Profile:
    """Decreasing half-distances of the optimal arrangement of orb, whose
    D may be any common denominator of the angles."""
    values, exact = _lex_greedy(orb, state_cap)
    D = orb.D
    dists = sorted(_distances(orb.typ, values, D), reverse=True)
    return Profile._trusted(
        tuple(math.sin(math.pi * (d / D) / 2) for d in dists), rank,
        tuple(Fraction(d, D) for d in dists), exact)


def optimal_torus_element(t: TorusElement, state_cap=_OPT_STATE_CAP):
    """Orbit representative with lexicographically maximal cumulative
    character-distance sums; returns (element, exact_flag), exact_flag
    False for the zigzag heuristic past state_cap (see _lex_greedy)."""
    orb = _Orbit.of(t)
    values, exact = _lex_greedy(orb, state_cap)
    return TorusElement._trusted(
        t.type, t.rank, tuple(Fraction(v, orb.D) for v in values)), exact


def profile_of(t: TorusElement, state_cap=_OPT_STATE_CAP) -> Profile:
    """Decreasing half-distances of the optimal orbit representative."""
    return _profile(_Orbit.of(t), t.rank, state_cap)


def profile_of_finite_type(ell, n) -> Profile:
    """Step profile of a normalized length value: 1 on [1, floor(n*ell)]."""
    ell = Fraction(ell)
    assert 0 <= ell <= 1
    support = int(n * ell)
    return Profile((1.0,) * support, n, (Fraction(1),) * support, True)


# --------------------------------------------------------- quasiorder

def precede_check(F: ProfileSequence, H: ProfileSequence, w: OrderWitness):
    """Does F_n(k*i+1) <= c*H_n(i+1) hold for all n >= n0, i >= 0?

    Returns (ok, first violation (n, i) or None).  Indices beyond every
    support carry value zero, so the scan is finite.
    """
    shared = [n for n in F.indices() if n in H.profiles and n >= w.n0]
    for n in shared:
        fp, hp = F.profiles[n], H.profiles[n]
        imax = max(len(fp.values), len(hp.values)) + 1
        for i in range(imax):
            if fp.value(w.k * i + 1) > w.c * hp.value(i + 1) + 1e-12:
                return False, (n, i)
    return True, None


def precede_search(F: ProfileSequence, H: ProfileSequence,
                   c_max, k_max, n0=0):
    """Least (k, then c) integer witness on the grid, or None.

    None is grid-relative only; it never proves incomparability.
    """
    if c_max < 1 or k_max < 1:
        raise OutOfRange(f"empty (c, k) grid: c_max={c_max}, k_max={k_max}")
    for k in range(1, k_max + 1):
        for c in range(1, c_max + 1):
            w = OrderWitness(c, k, n0)
            ok, _ = precede_check(F, H, w)
            if ok:
                return w
    return None


def profile_meet(F: Profile, H: Profile) -> Profile:
    return _pointwise(F, H, min)


def profile_join(F: Profile, H: Profile) -> Profile:
    return _pointwise(F, H, max)


def _pointwise(F, H, op):
    # the pointwise min or max of two valid profiles is again one; the
    # shorter values get zeros, as value() reads past the support
    fv, hv = F.values, H.values
    gap = len(fv) - len(hv)
    if gap > 0:
        hv += (0.0,) * gap
    elif gap < 0:
        fv += (0.0,) * -gap
    dists = None
    if F.distances is not None and H.distances is not None:
        ln, zero = len(fv), (Fraction(0),)
        dists = tuple(map(op,
                          tuple(F.distances) + zero * (ln - len(F.distances)),
                          tuple(H.distances) + zero * (ln - len(H.distances))))
    return Profile._trusted(tuple(map(op, fv, hv)),
                            max(F.support_bound, H.support_bound), dists,
                            F.exact and H.exact)


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
    if typ in ("A", "U"):
        for edges in _distinct_orderings(dists):
            for pat in itertools.product((1, -1), repeat=max(0, rank - 1)):
                zig = [0, edges[0]] if rank else [0]
                for s, d in zip(pat, edges[1:]):
                    zig.append(zig[-1] + s * d)
                shift = -sum(zig) // n if typ == "A" else 0
                yield tuple(z + shift for z in zig)
        return
    ends = sorted(set(dists))
    for e in ends:
        rest = list(dists)
        rest.remove(e)
        for edges in _distinct_orderings(rest):
            for pat in itertools.product((1, -1), repeat=max(0, n - 2)):
                zig = [0]
                if n >= 2:
                    zig.append(edges[0])
                for s, d in zip(pat, edges[1:]):
                    zig.append(zig[-1] + s * d)
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
        values, exact = _lex_greedy(_Orbit(typ, norm, D), _OPT_STATE_CAP,
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
    return (perm, *_units([Fraction(p) for p in phases]))


def _spectrum_units(perm, nums, D):
    """Spectrum of a monomial in units, over E = D*L with L the lcm of
    its cycle lengths: a cycle of length k and phase sum T/D has the k
    angles (T/D + 2j)/k = (T + 2jD)*(L/k)/E."""
    assert len(nums) == perm.n
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


def monomial_spectrum(perm, phases):
    """Eigenvalue angles of the monomial unitary sending e_i to
    e^{i*pi*phases[i]} e_{perm(i)}: per cycle of length k with phase sum
    Theta, the k angles (Theta + 2j)/k, sorted."""
    nums, E = _spectrum_units(*_monomial_units((perm, phases)))
    return [Fraction(a, E) for a in nums]


def monomial_product(g_mon, h_mon):
    """(perm, phases) of the matrix product g*h of two monomials."""
    perm, nums, D = _product_units(_monomial_units(g_mon),
                                   _monomial_units(h_mon))
    return perm, tuple(Fraction(a, D) for a in nums)


def monomial_matrix(mon):
    perm, phases = mon
    n = len(perm.images)
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        M[perm.images[i], i] = cmath.exp(1j * math.pi * float(phases[i]))
    return M


# one Ky Fan pair of size 1000 takes about 30 s on a 2-core VM
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
            lhs = Fgh.value(6 * i + 6 * j + 1) if 6 * i + 6 * j + 1 <= n - 1 \
                else 0.0
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


def underline_singular(spec, i) -> float:
    """min over unit z of half the i-th largest |1 - z*mu_j|, 1-based.

    Each |1 - z*mu_j| = 2|sin(pi(phi+theta_j)/2)| is piecewise concave in
    phi, so the minimum of the i-th order statistic is attained at a
    kink, a crest, or a crossing of two branches; all are rational."""
    n = len(spec)
    if not 1 <= i <= n:
        raise IndexOutOfRange(i)
    spec = [normalize_angle(a) for a in spec]
    candidates = set()
    for a in spec:
        candidates.add(normalize_angle(-a))
        candidates.add(normalize_angle(1 - a))
        for b in spec:
            candidates.add(normalize_angle(-(a + b) / 2))
            candidates.add(normalize_angle(-(a + b) / 2 + 1))
    best = math.inf
    for phi in candidates:
        vals = sorted(
            (2 * abs(math.sin(math.pi * float(phi + a) / 2)) for a in spec),
            reverse=True)
        best = min(best, vals[i - 1] / 2)
    return best


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
            for c in range(1, c_max + 1):
                first = None
                for n in ns:
                    ok, _ = precede_check(
                        ProfileSequence({n: F[n]}),
                        ProfileSequence({n: H[n]}),
                        OrderWitness(c, k))
                    if not ok:
                        first = n
                        break
                rows.append((direction, c, k, first))
    return rows
