"""Root systems, torus elements with exact rational angles, and bounded
conjugate decompositions.

Torus elements live in the standard maximal tori of the classical compact
groups; an angle theta stands for the eigenvalue e^{i*pi*theta}, with theta
a Fraction normalized to (-1, 1].  All character evaluations and length
bounds are exact rational arithmetic; only quaternion/matrix products and
minimizations go through floating point.

Decomposition certificates express a torus element as a short product of
conjugates of another element (or its inverse), with explicit conjugators
and a multiply-back error.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import InvariantFailed, LengthlabError
from .coloring import partition_permutation
from .perms import Permutation


class BadRank(LengthlabError, ValueError):
    pass


class BoundViolated(LengthlabError):
    pass


class PolarInfeasible(BoundViolated):
    """The length bound holds but the rotation angle is out of reach.

    In SU(2) the torus length vanishes on the center, so a target near -1
    can satisfy lambda(g) <= m*lambda(h) while no product of m conjugates
    of h reaches its rotation angle.
    """


class CentralH(LengthlabError):
    pass


class RankTooSmall(LengthlabError):
    pass


class RankTooLargeForExact(LengthlabError):
    pass


# ------------------------------------------------------------- angles

def normalize_angle(x) -> Fraction:
    """Reduce an angle (in units of pi) to the window (-1, 1]."""
    x = Fraction(x) % 2
    return x - 2 if x > 1 else x


def lfrac(x) -> Fraction:
    """Distance from x to the nearest even integer: |normalized angle|."""
    return abs(normalize_angle(x))


def _units(angles):
    """(nums, D): the angles as integers over their least common
    denominator D."""
    D = math.lcm(*(a.denominator for a in angles))
    return [a.numerator * (D // a.denominator) for a in angles], D


def _distances(typ, vals, D):
    """lfrac of each fundamental character angle of the arrangement vals/D
    of normalized angles, in units of 1/D."""
    D2 = 2 * D
    out = [min((a - b) % D2, (b - a) % D2) for a, b in zip(vals, vals[1:])]
    if typ == "B":
        out.append(abs(vals[-1]))
    elif typ == "C":
        out.append(min(2 * vals[-1] % D2, -2 * vals[-1] % D2))
    elif typ == "D":
        out.append(min((vals[-2] + vals[-1]) % D2,
                       -(vals[-2] + vals[-1]) % D2))
    return out


# ------------------------------------------------------- root systems

_VALID_MU = {Fraction(sign, d) for sign in (1, -1) for d in (1, 2, 3)}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _neg(v):
    return tuple(-a for a in v)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


@dataclass(frozen=True)
class RootSystem:
    """A crystallographic root system in its standard vector model."""

    type: str
    rank: int
    roots: tuple
    fundamental: tuple

    def norm2(self, root):
        return _dot(root, root)

    def short_roots(self):
        m = min(self.norm2(r) for r in self.roots)
        return [r for r in self.roots if self.norm2(r) == m]

    def long_roots(self):
        m = max(self.norm2(r) for r in self.roots)
        return [r for r in self.roots if self.norm2(r) == m]

    def simply_laced(self):
        norms = {self.norm2(r) for r in self.roots}
        return len(norms) == 1


# the simple roots of G2 and F4 in their standard vector models
_EXCEPTIONAL = {
    "G2": ["1 -1 0", "-1 2 -1"],
    "F4": ["0 1 -1 0", "0 0 1 -1", "0 0 0 1", "1/2 -1/2 -1/2 -1/2"]}


def _fundamental(typ, rank):
    """The simple roots of the standard vector model of each type."""
    if typ in _EXCEPTIONAL:
        fund = [v.split() for v in _EXCEPTIONAL[typ]]
        if rank != len(fund):
            raise BadRank(f"{typ} has rank {len(fund)}")
    elif typ in ("A", "B", "C", "D"):
        if rank < 1 or rank > 12 or (typ == "D" and rank < 2):
            raise BadRank(f"{typ} rank {rank} unsupported")
        n = rank + (typ == "A")  # the dimension
        # e_i - e_{i+1}, then B's e_r, C's 2e_r or D's e_{r-1} + e_r
        fund = [[0] * i + [1, -1] + [0] * (n - i - 2) for i in range(n - 1)]
        if tail := {"A": [], "B": [1], "C": [2], "D": [1, 1]}[typ]:
            fund.append([0] * (n - len(tail)) + tail)
    else:
        raise BadRank(f"unknown type {typ}")
    return [tuple(map(Fraction, v)) for v in fund]


def _reflection_closure(fund):
    """Every root: the closure of the simple roots under their own
    reflections v -> v - (2(v.a)/(a.a)) a.  It is complete because in a
    crystallographic system every root is a Weyl conjugate of a simple
    root, and the simple reflections generate the Weyl group.  Runs over
    one common denominator; a Cartan number 2(v.a)/(a.a) that is not an
    integer raises InvariantFailed, which also stops a list that is no
    system's simple roots from growing forever."""
    dim = len(fund[0])
    flat, D = _units([x for a in fund for x in a])
    simple = [tuple(flat[i:i + dim]) for i in range(0, len(flat), dim)]
    reflections = [(a, _dot(a, a)) for a in simple]
    seen, todo = set(simple), list(simple)
    while todo:
        v = todo.pop()
        for a, aa in reflections:
            if va := _dot(v, a):
                c, rest = divmod(2 * va, aa)
                if rest:
                    raise InvariantFailed(
                        f"non-integer Cartan number {Fraction(2 * va, aa)}")
                w = tuple(x - c * y for x, y in zip(v, a))
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    frac = {x: Fraction(x, D) for x in {x for v in seen for x in v}}
    return tuple(sorted(tuple(map(frac.__getitem__, v)) for v in seen))


def build_root_system(typ, rank) -> RootSystem:
    """Standard vector models of the classical systems plus G2 and F4,
    each generated from its simple roots."""
    typ = typ.upper()
    fund = _fundamental(typ, rank)
    rs = RootSystem(typ, rank, _reflection_closure(fund), tuple(fund))
    _validate_root_system(rs)
    return rs


def _rref(rows):
    """In-place fraction row reduction; returns pivot column list."""
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def coefficients_in_fundamentals(rs, vectors):
    """Exact coefficients of each vector over the fundamental roots."""
    dim = len(rs.fundamental[0])
    r = rs.rank
    rows = [
        [rs.fundamental[j][i] for j in range(r)] + [v[i] for v in vectors]
        for i in range(dim)
    ]
    pivots = _rref(rows)
    if pivots != list(range(r)):
        raise ValueError("fundamental roots are not independent")
    for i in range(r, dim):
        if any(rows[i][r + t] != 0 for t in range(len(vectors))):
            raise ValueError("vector outside fundamental span")
    return [tuple(rows[j][r + t] for j in range(r))
            for t in range(len(vectors))]


def _validate_root_system(rs):
    rootset = set(rs.roots)
    for v, coeffs in zip(rs.roots, coefficients_in_fundamentals(rs, rs.roots)):
        if not (_neg(v) in rootset and all(c.denominator == 1 for c in coeffs)
                and (min(coeffs) >= 0 or max(coeffs) <= 0)):
            raise InvariantFailed(f"not a root system at {v}: -v missing, or "
                                  f"coefficients not integers of one sign")


def _direction(v):
    """(scale, key) with v = scale * key, key the primitive integer vector
    whose first nonzero entry is positive, or None for v = 0.  Rational v
    are parallel exactly when their keys are equal."""
    ints, den = _units(v)
    g = math.gcd(*ints)
    if g == 0:
        return None
    if next(x for x in ints if x) < 0:
        g = -g
    return Fraction(g, den), tuple(x // g for x in ints)


def check_root_combinations(rs) -> dict:
    """Exhaustive check of the two-root decompositions of long and short
    roots.  Roots and long + long sums are keyed by their _direction, so
    each sum meets only the short roots parallel to it."""
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
    if not any(shorts[0]):
        raise ValueError("the zero vector is not a root")
    # over one common denominator the roots and their sums are integer
    # vectors, and all scales share a unit that no ratio of two sees
    dim = len(shorts[0])
    flat, _ = _units([a for r in shorts + longs for a in r])
    ints = [tuple(flat[i:i + dim]) for i in range(0, len(flat), dim)]
    short_ints, long_ints = ints[:len(shorts)], ints[len(shorts):]
    shortset = set(short_ints)

    for beta, b in zip(longs, long_ints):
        if not any(_add(b, _neg(a)) in shortset for a in short_ints):
            report["long_ok"] = False
            report["violations"].append(("long", beta))

    short_dirs = [_direction(v) for v in short_ints]
    by_key = {}
    for s, (scale, key) in zip(shorts, short_dirs):
        by_key.setdefault(key, []).append((s, scale))
    sum_scales = {}  # key -> scales of the nonzero long + long sums
    for i, g1 in enumerate(longs):
        for j in range(i, len(longs)):
            d = _direction(_add(long_ints[i], long_ints[j]))
            if d is None:
                continue
            scale, key = d
            sum_scales.setdefault(key, set()).add(scale)
            for s, s_scale in by_key.get(key, ()):
                mu = s_scale / scale
                report["mu_values"].add(mu)
                if mu not in _VALID_MU:
                    report["violations"].append(("mu", g1, longs[j], s, mu))

    for alpha, (scale, key) in zip(shorts, short_dirs):
        if not any(scale / v in _VALID_MU for v in sum_scales.get(key, ())):
            report["short_ok"] = False
            report["violations"].append(("short", alpha))
    report["mu_values"] = sorted(report["mu_values"])
    return report


# ------------------------------------------------------ torus elements

@dataclass(frozen=True)
class TorusElement:
    """Maximal-torus element of a classical group, by half-spectrum.

    type "A": SU(n), angles are all n = rank+1 eigenvalue angles, summing
    to an even integer.  type "U": U(n), same shape without the
    determinant constraint.  Types "B", "C", "D" store the free half of
    the spectrum of SO(2n+1), Sp(2n), SO(2n).
    """

    # SO(1) and Sp(0) are trivial; type D's last character needs 2 angles
    LEAST_RANK = {"A": 0, "U": 0, "B": 1, "C": 1, "D": 2}

    type: str
    rank: int
    angles: tuple

    def __post_init__(self):
        angles = tuple(normalize_angle(a) for a in self.angles)
        object.__setattr__(self, "angles", angles)
        least = self.LEAST_RANK.get(self.type)
        if least is None:
            raise ValueError(f"unknown type {self.type}")
        if self.rank < 0:
            raise BadRank(f"rank {self.rank} < 0")
        if self.rank < least:
            raise BadRank(f"{self.type} needs rank >= {least}")
        if self.type in ("A", "U"):
            if len(angles) != self.rank + 1:
                raise ValueError("need rank+1 angles")
            if self.type == "A" and sum(angles) % 2 != 0:
                raise ValueError("SU angles must sum to an even integer")
        elif len(angles) != self.rank:
            raise ValueError("need rank angles")

    @classmethod
    def _trusted(cls, typ, rank, angles):
        """An element from angles that are already normalized and fit typ
        and rank (at least LEAST_RANK), without the constructor's work."""
        t = cls.__new__(cls)
        t.__dict__.update(type=typ, rank=rank, angles=angles)
        return t

    def spectrum(self):
        """All eigenvalue angles under the standard representation."""
        th = list(self.angles)
        if self.type in ("A", "U"):
            return th
        full = th + [normalize_angle(-a) for a in th]
        if self.type == "B":
            full.append(Fraction(0))
        return full

    def is_central(self):
        return not any(_distances(self.type, *_units(self.angles)))

    def matrix(self):
        return np.diag([cmath.exp(1j * math.pi * float(a))
                        for a in self.spectrum()])

    def to_json(self):
        return {"type": self.type, "rank": self.rank,
                "angles": [str(a) for a in self.angles]}


def _rank(t: TorusElement) -> int:
    """t.rank, by which every normalized length divides; BadRank if 0."""
    if t.rank == 0:
        raise BadRank(f"{t.type} rank 0 has no normalized length")
    return t.rank


def lambda_of(t: TorusElement) -> Fraction:
    """Mean character angle (units of pi): exact rational in [0, 1]."""
    nums, D = _units(t.angles)
    return Fraction(sum(_distances(t.type, nums, D)), D * _rank(t))


# ------------------------------------- rearrangement orbit, lambda-tilde

_STATE_CAP = 200_000


class _Orbit:
    """The rearrangement orbit of a torus element, in integer units.

    The angles are integers over a common denominator D, so a signed
    value is an integer in (-D, D] and lfrac is integer arithmetic mod
    2D: every table entry is lfrac of a sum or difference of two angles,
    or of an angle or its double.  `_Orbit.of` takes the least D of an
    element; any multiple of it gives the same searches, since the
    tables only scale with D and the labels, their order and every
    comparison stay the same.  Label i*len(signs) + s names distinct
    value i with sign signs[s]; flips[label] is 1 for the sign flips
    that type D counts.
    """

    def __init__(self, typ, nums, D):
        """The orbit of the element of type typ with angles nums/D."""
        self.typ = "A" if typ == "U" else typ
        norm = [D - (D - a) % (2 * D) for a in nums]
        vals = sorted(set(norm))
        self.n = len(nums)
        self.counts = tuple(map(norm.count, vals))
        signs = (1, -1) if self.typ in ("B", "C", "D") else (1,)
        self.D = D
        # s*v normalized to (-D, D]
        self.values = values = [D - (D - s * v) % (2 * D)
                                for v in vals for s in signs]
        self.flips = [int(s < 0 and self.typ == "D")
                      for _ in vals for s in signs]
        self.labels = [range(i * len(signs), (i + 1) * len(signs))
                       for i in range(len(vals))]

        # step[a][b] = lfrac(a - b); the type-D arrangement closes with
        # lfrac(a + b) on its last pair, B and C end on lfrac(a), lfrac(2a);
        # each x there is in (-2D, 2D]: lfrac(x) is |x| up to D, else 2D - |x|
        D2 = 2 * D
        self.step = [[d if (d := abs(a - b)) <= D else D2 - d
                      for b in values] for a in values]
        self.close = [[d if (d := abs(a + b)) <= D else D2 - d
                       for b in values] for a in values] \
            if self.typ == "D" else None
        mult = {"B": 1, "C": 2}.get(self.typ, 0)
        self.end = [d if (d := abs(mult * a)) <= D else D2 - d
                    for a in values]

    @classmethod
    def of(cls, t: TorusElement):
        """The orbit of t, over the least common denominator of its
        angles."""
        return cls(t.type, *_units(t.angles))


def _half_turn_max(nums, D):
    """The type-A/U orbit maximum of the angles nums/D, in units of 1/D,
    if they lie in one closed half-turn; else None.  Cut at the widest
    gap (at least D): every step is then |x - y| on a line, and the
    sorted zigzag is optimal (an end counts once, an inner value twice or
    not at all, the low half negative, the coefficients summing to 0)."""
    v = sorted(nums)  # normalized angles: each in (-D, D]
    gap, i = max((b - a, i) for i, (a, b) in
                 enumerate(zip(v, v[1:] + [v[0] + 2 * D])))
    if gap < D:
        return None
    xs = v[i + 1:] + [x + 2 * D for x in v[:i + 1]]
    h = len(xs) // 2
    if len(xs) % 2 == 0:
        return 2 * (sum(xs[h:]) - sum(xs[:h])) - xs[h] + xs[h - 1]
    return max(2 * (sum(xs[h + 1:]) - sum(xs[:h + 1])) + xs[h] + xs[h - 1],
               2 * (sum(xs[h:]) - sum(xs[:h])) - xs[h] - xs[h + 1])


def lambda_tilde(t: TorusElement, state_cap=_STATE_CAP) -> Fraction:
    """Exact maximum of lambda over the orbit of rearrangements.

    Type A/U: permutations of the angles.  B/C: signed permutations.
    D: evenly-signed permutations.  A type-A/U element within one closed
    half-turn takes the closed form of `_half_turn_max`, in O(n log n);
    every other element takes an exact dynamic programming over the
    multiset of distinct angles, reduced twice without changing the max.
    A/U keep (n - c) + 1 of an angle's c > (n - c) + 1 copies: two copies
    sit side by side in every arrangement, a step of 0 that deleting one
    drops.  D keeps no parity of sign flips: flipping the last sign swaps
    the last step lfrac(a - b) with the closing term lfrac(a + b).

    The max-plus fold keeps V[label, row]: the largest distance sum of a
    prefix ending on label and leaving that row's reduced counts, each
    layer maximized over the outer label axis in contiguous blocks.
    state_cap bounds the fold only: it raises RankTooLargeForExact when
    the labels times the product of (reduced count + 1) exceed state_cap
    (use lambda_tilde_lower_bound).
    """
    rank = _rank(t)
    nums, D = _units(t.angles)
    if t.type in ("A", "U") and (best := _half_turn_max(nums, D)) is not None:
        return Fraction(best, D * rank)
    orb = _Orbit(t.type, nums, D)
    counts = orb.counts if orb.typ != "A" else \
        tuple(min(c, orb.n - c + 1) for c in orb.counts)
    bound = L = len(orb.values)
    for c in counts:
        bound *= c + 1
        if bound > state_cap:
            raise RankTooLargeForExact(
                f"{bound}+ states exceeds cap {state_cap}")

    # the remaining counts rem[:, r] as one mixed-radix index r < R, digit
    # j of stride[j] (np.indices puts its last axis fastest, so reverse)
    counts = np.array(counts)
    n = int(counts.sum())
    stride = np.cumprod(np.concatenate(([1], counts[:-1] + 1)))
    R = int((counts + 1).prod())
    rem = np.indices(tuple(counts[::-1] + 1)).reshape(len(counts), R)[::-1]
    # rows of the fold in layers of rem's digit sum (row 0 is rem = 0, row
    # R - 1 rem = counts); layer s, the states with s values left to place,
    # is rows cuts[s]:cuts[s + 1], and row R is a sentinel no prefix reaches
    left = rem.sum(axis=0)
    order = np.argsort(left, kind="stable")
    cuts = np.searchsorted(left[order], np.arange(n + 1)).tolist()
    at = np.full(R + 1, R)  # at[r]: the row of rem index r
    at[order] = np.arange(R)
    value_of = np.arange(L) // (L // len(counts))
    # src[lab, i]: the row before placing lab left the rem of row i
    src = at[np.where(rem < counts[:, None],
                      np.arange(R) + stride[:, None], R)][:, order][value_of]

    # every sum is at most (n + 1) * D: int64 below the threshold, Python
    # ints past it; unreached states start negative and stay negative
    dtype = np.int64 if 2 * orb.D * n < 2 ** 60 else object
    V = np.full((L, R + 1), -4 * orb.D * n, dtype=dtype)
    V[:, R - 1] = 0  # nothing placed yet: every value left
    step = np.array(orb.step, dtype=dtype)[:, :, None]
    last = step if orb.close is None else \
        step + np.array(orb.close, dtype=dtype)[:, :, None]
    for s in range(n - 1, -1, -1):
        a, b = cuts[s], cuts[s + 1]
        cand = V.take(src[:, a:b], axis=1)  # [lab, lab2, i]
        # + step[lab][lab2]; placing the first value adds nothing
        cand += 0 if s == n - 1 else last if s == 0 else step
        np.maximum.reduce(cand, axis=0, out=V[:, a:b])

    # row 0, every value placed, is reached by every arrangement
    best = int((V[:, 0] + np.array(orb.end, dtype=dtype)).max())
    return Fraction(best, orb.D * rank)


def _zigzag(values):
    """The sorted values taken lowest, highest, second lowest, ..."""
    srt = sorted(values)
    return [srt[i // 2] if i % 2 == 0 else srt[-1 - i // 2]
            for i in range(len(srt))]


def lambda_tilde_lower_bound(t: TorusElement, tries=200, seed=0) -> Fraction:
    """Heuristic lower bound for lambda_tilde (arbitrary rank).

    Scores the low/high zigzag, its reverse and `tries` random signed
    shuffles from random.Random(seed), the angles as integers over their
    least common denominator (see `_units`), by the sum of their
    `_distances`; type D evens an odd number of flips on the first angle.
    Always <= the true orbit maximum, which is all the flagged heuristic
    mode promises.
    """
    rng = random.Random(seed)
    nums, D = _units(t.angles)
    zig = _zigzag(nums)
    best = max(sum(_distances(t.type, seq, D)) for seq in (zig, zig[::-1]))
    for _ in range(tries):
        seq = nums[:]
        rng.shuffle(seq)
        flips = 0
        if t.type in ("B", "C", "D"):
            for i, a in enumerate(seq):
                if rng.random() < 0.5:
                    seq[i] = D - (D + a) % (2 * D)  # normalized -a
                    flips += 1
        if t.type == "D" and flips % 2:
            seq[0] = D - (D + seq[0]) % (2 * D)
        best = max(best, sum(_distances(t.type, seq, D)))
    return Fraction(best, D * _rank(t))


# --------------------------------------------------- l1 lengths

def ell1_prime(t: TorusElement) -> float:
    """Center-minimized l1 length, rescaled by matrix size over rank.

    The objective sum_j 2|sin(pi(phi+theta_j)/2)| is concave between its
    kinks phi = -theta_j, so the global minimum sits at a kink; we
    evaluate all of them exactly.
    """
    spec = t.spectrum()
    # in units of 1/D; int / int rounds exactly as float(Fraction) does
    nums, D = _units(spec)
    best = math.inf
    for kink in {D - (D + a) % (2 * D) for a in nums}:  # normalized -a
        val = sum(2 * abs(math.sin(math.pi * ((kink + a) / D) / 2))
                  for a in nums)
        best = min(best, val)
    return best / (2 * _rank(t))


def scaled_rank_length_inf(t: TorusElement) -> Fraction:
    """inf over unit scalars z of rank(1 - z*g)/n for the spectrum of g."""
    spec = t.spectrum()  # already normalized
    return Fraction(len(spec) - max(Counter(spec).values()), len(spec))


# ----------------------------------------------- quaternion utilities

def _qmul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _qconj(q):
    return (q[0], -q[1], -q[2], -q[3])


def _qpolar(q):
    return math.atan2(math.hypot(q[1], q[2], q[3]), q[0])


def _qaxis(q):
    n = math.hypot(q[1], q[2], q[3])
    if n < 1e-14:
        return (0.0, 0.0, 1.0)
    return (q[1] / n, q[2] / n, q[3] / n)


def _perp(u):
    ax, ay, az = u
    if abs(ax) <= abs(ay) and abs(ax) <= abs(az):
        v = (0.0, -az, ay)
    elif abs(ay) <= abs(az):
        v = (-az, 0.0, ax)
    else:
        v = (-ay, ax, 0.0)
    n = math.hypot(*v)
    return (v[0] / n, v[1] / n, v[2] / n)


def _rot_between(u, w):
    """Unit quaternion whose conjugation rotates direction u onto w."""
    cross = (u[1] * w[2] - u[2] * w[1],
             u[2] * w[0] - u[0] * w[2],
             u[0] * w[1] - u[1] * w[0])
    dot = u[0] * w[0] + u[1] * w[1] + u[2] * w[2]
    nc = math.hypot(*cross)
    if nc < 1e-14:
        if dot > 0:
            return (1.0, 0.0, 0.0, 0.0)
        p = _perp(u)
        return (0.0, p[0], p[1], p[2])  # half-turn about any perpendicular
    axis = (cross[0] / nc, cross[1] / nc, cross[2] / nc)
    half = math.atan2(nc, dot) / 2
    c, s = math.cos(half), math.sin(half)
    return (c, s * axis[0], s * axis[1], s * axis[2])


def _torus_q(theta):
    """The unit quaternion of diag(e^{i*pi*theta}, e^{-i*pi*theta})."""
    x = math.pi * float(theta)
    return (math.cos(x), 0.0, 0.0, math.sin(x))


def su2_matrix(q):
    """2x2 special unitary matrix of a unit quaternion; (c,0,0,s) maps to
    diag(c+is, c-is)."""
    w, x, y, z = q
    return np.array([[w + 1j * z, x + 1j * y],
                     [-x + 1j * y, w - 1j * z]])


# --------------------------------------------- rotation-angle planning

def _reach_interval(lo, hi, a):
    """Rotation angles of q*f over polar(q) in [lo,hi], polar(f) = a."""
    lower = 0.0 if lo - 1e-15 <= a <= hi + 1e-15 else min(abs(lo - a),
                                                          abs(hi - a))
    peak = math.pi - a
    if hi <= peak:
        upper = hi + a
    elif lo >= peak:
        upper = 2 * math.pi - lo - a
    else:
        upper = math.pi
    return (max(0.0, lower), min(math.pi, upper))


def _plan_polar_path(target, a, count):
    """Polar angles after each of `count` factors of polar a, ending at
    target; greedy toward the target, ties toward the lower endpoint.
    Returns None when the target is unreachable in exactly count steps."""
    back = [(target, target)]
    for _ in range(count):
        back.append(_reach_interval(back[-1][0], back[-1][1], a))
    if not back[count][0] - 1e-9 <= 0.0 <= back[count][1] + 1e-9:
        return None
    path = []
    p = 0.0
    for t in range(1, count + 1):
        lo1, hi1 = _reach_interval(p, p, a)
        lo2, hi2 = back[count - t]
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:  # numerical sliver
            lo = hi = (lo + hi) / 2
        p = min(max(target, lo), hi)
        path.append(p)
    return path


def _least_paths(plans, counts):
    """The `_plan_polar_path` of every (target, a) in plans at the first
    count in counts that reaches all of them, or None; each path's length
    is that count."""
    for count in counts:
        paths = [_plan_polar_path(target, a, count) for target, a in plans]
        if None not in paths:
            return paths
    return None


def _realize_path(path, a, target_q):
    """Quaternion factors of polar a following the planned polar path,
    conjugated at the end so the product is exactly target_q."""
    cur = (1.0, 0.0, 0.0, 0.0)
    factors = []
    ca, sa = math.cos(a), math.sin(a)
    for p_next in path:
        p = _qpolar(cur)
        exact = None
        # planned polars of exactly pi or 0 suffer sqrt-amplified cosine
        # error; build those factors as exact (anti)inverses instead
        if p_next > math.pi - 1e-9:
            exact = tuple(-c for c in _qconj(cur))
        elif p_next < 1e-9:
            exact = _qconj(cur)
        if exact is not None and abs(_qpolar(exact) - a) < 1e-6:
            f = exact
        elif sa < 1e-14:
            f = (ca, 0.0, 0.0, 0.0)
        elif math.sin(p) < 1e-14:
            f = (ca, 0.0, 0.0, sa)
        else:
            cpsi = (math.cos(p) * ca - math.cos(p_next)) / (math.sin(p) * sa)
            cpsi = max(-1.0, min(1.0, cpsi))
            spsi = math.sqrt(max(0.0, 1 - cpsi * cpsi))
            n = _qaxis(cur)
            mpen = _perp(n)
            ax = tuple(cpsi * n[i] + spsi * mpen[i] for i in range(3))
            f = (ca, sa * ax[0], sa * ax[1], sa * ax[2])
        factors.append(f)
        cur = _qmul(cur, f)

    # align the axis onto the target (same polar angle by construction)
    if math.sin(_qpolar(cur)) > 1e-12 and math.sin(_qpolar(target_q)) > 1e-12:
        w = _rot_between(_qaxis(cur), _qaxis(target_q))
        factors = [_qmul(_qmul(w, f), _qconj(w)) for f in factors]
    return factors


def _conjugator_for(f, base_q):
    """v with v * base_q * v^-1 = f (same polar angle)."""
    if math.sin(_qpolar(base_q)) < 1e-14:
        return (1.0, 0.0, 0.0, 0.0)
    return _rot_between(_qaxis(base_q), _qaxis(f))


# ------------------------------------------------------- certificates

@dataclass
class DecompositionCertificate:
    """g written as a bounded product of conjugates of h^{+-1}."""

    # the multiply-back error a certificate of each kind must stay below
    ERROR_GATE = {"su2": 1e-9, "torus-A": 1e-8, "large-rank": 1e-8}

    kind: str
    target: object
    base: object
    factors: list = field(default_factory=list)  # (conjugator, eps)
    bound: int = 0
    product_error: float = 0.0
    central_remainder: object = None

    @property
    def count(self):
        return len(self.factors)

    def holds(self):
        """The verdict: at most bound factors, and a multiply-back error
        below the gate of the certificate's kind."""
        return (self.count <= self.bound
                and self.product_error < self.ERROR_GATE[self.kind])

    def to_json(self):
        def ser(c):
            if isinstance(c, tuple):
                return list(c)
            return [[[z.real, z.imag] for z in row] for row in np.asarray(c)]

        return {
            "kind": self.kind,
            "target": self.target.to_json()
            if isinstance(self.target, TorusElement) else str(self.target),
            "base": self.base.to_json()
            if isinstance(self.base, TorusElement) else str(self.base),
            "factors": [{"conjugator": ser(c), "eps": e}
                        for c, e in self.factors],
            "count": self.count,
            "bound": self.bound,
            "product_error": self.product_error,
        }


def su2_lambda(theta) -> Fraction:
    """Torus length in SU(2): lfrac of the single character angle."""
    return lfrac(2 * Fraction(theta))


def su2_decompose(theta_g, theta_h, m) -> DecompositionCertificate:
    """Write diag(e^{i*pi*tg}, e^{-i*pi*tg}) as a product of at most m
    conjugates of the corresponding h; conjugators are unit quaternions."""
    tg = normalize_angle(theta_g)
    th = normalize_angle(theta_h)
    if m < 1:
        raise ValueError("need m >= 1")
    if su2_lambda(tg) > m * su2_lambda(th):
        raise BoundViolated(
            f"lambda(g)={su2_lambda(tg)} > {m}*lambda(h)={m * su2_lambda(th)}")

    target = math.pi * abs(float(tg))
    a = math.pi * abs(float(th))
    paths = [[]] if target < 1e-15 else _least_paths([(target, a)],
                                                     range(1, m + 1))
    if paths is None:
        raise PolarInfeasible(
            f"rotation angle {target:.6f} unreachable with {m} factors "
            f"of angle {a:.6f}")

    target_q, base_q = _torus_q(tg), _torus_q(th)
    factors = _realize_path(paths[0], a, target_q)
    conjugators = [(_conjugator_for(f, base_q), 1) for f in factors]

    prod = (1.0, 0.0, 0.0, 0.0)
    for v, _ in conjugators:
        prod = _qmul(prod, _qmul(_qmul(v, base_q), _qconj(v)))
    err = max(abs(x - y) for x, y in zip(prod, target_q))

    cert = DecompositionCertificate(
        kind="su2", target=tg, base=th,
        factors=conjugators, bound=m, product_error=err)
    return cert


# ------------------------------------- SU(r+1) torus decompositions

def _psi_coordinates(t: TorusElement):
    """Parameters of the coordinate SU(2)-block factorization of a type-A
    torus element: partial angle sums, exact and normalized."""
    return list(map(normalize_angle, itertools.accumulate(t.angles[:-1])))


def _block_permutation(n, pairs):
    """Permutation matrix sending block (b, b+1) to (a, a+1) for each
    (b, a) pair, disjointly, and the other coordinates in order onto the
    free ones.  Its determinant is +1: each block moves two adjacent
    coordinates to two adjacent ones, so every other coordinate crosses
    it an even number of times."""
    mapping = {}
    for b, a in pairs:
        mapping[b - 1] = a - 1
        mapping[b] = a
    used_targets = set(mapping.values())
    free_targets = [i for i in range(n) if i not in used_targets]
    it = iter(free_targets)
    perm = [mapping[s] if s in mapping else next(it) for s in range(n)]
    P = np.zeros((n, n))
    P[perm, range(n)] = 1.0
    return P.astype(complex)


def _h_block_parameter(h: TorusElement, j):
    """SU(2)-block parameter of h at coordinates (j, j+1): the lift of
    (eta_j - eta_{j+1})/2 with the larger rotation angle."""
    raw = normalize_angle(Fraction(h.angles[j - 1] - h.angles[j], 2))
    alt = normalize_angle(raw + 1)
    return raw if abs(raw) >= abs(alt) else alt


def _block_factor_group(n, h, drivers, targets, counts):
    """Factors (conjugator, eps) writing the commuting product of the
    target blocks as conjugates of h^{+-1}, half each sign, at the first
    count in counts that reaches every target.

    targets: list of (block index a, parameter psi).  The h-blocks at the
    driver positions drive all targets through one shared conjugator per
    factor.  Returns None if no count reaches every target."""
    chis = [_h_block_parameter(h, jj) for jj in drivers]
    plans = [(math.pi * abs(float(psi)), math.pi * abs(float(chi)))
             for (_, psi), chi in zip(targets, chis)]
    paths = _least_paths(plans, counts)
    if paths is None:
        return None
    count = len(paths[0])
    if count % 2:
        raise InvariantFailed(f"odd factor count {count}: h and h^-1 unpaired")
    per_block = [(_torus_q(chi), _realize_path(path, step, _torus_q(psi)))
                 for (_, psi), chi, path, (_, step)
                 in zip(targets, chis, paths, plans)]

    W = _block_permutation(
        n, [(jj, a) for (a, _), jj in zip(targets, drivers)])
    group = []
    for tind in range(count):
        eps = 1 if tind < count // 2 else -1
        # the driving blocks (jj, jj+1), 1-based, are disjoint: their
        # product is each 2x2 block written in place
        E = np.eye(n, dtype=complex)
        for (base_q, factors), jj in zip(per_block, drivers):
            bq = base_q if eps == 1 else _qconj(base_q)
            v = _conjugator_for(factors[tind], bq)
            E[jj - 1:jj + 1, jj - 1:jj + 1] = su2_matrix(v)
        group.append((W @ E, eps))
    return group


def _verify_certificate(cert, g_mat, h_mat):
    n = g_mat.shape[0]
    prod = np.eye(n, dtype=complex)
    h_inv = h_mat.conj().T
    for c, eps in cert.factors:
        base = h_mat if eps == 1 else h_inv
        prod = prod @ (c @ base @ c.conj().T)
    if cert.central_remainder is not None:
        prod = prod * complex(cert.central_remainder)
    cert.product_error = float(np.max(np.abs(prod - g_mat)))
    return cert.product_error


def torus_decompose_typeA(g: TorusElement, h: TorusElement,
                          m) -> DecompositionCertificate:
    """Write a torus element of SU(r+1) as at most 4*m*r^2 conjugates of
    h^{+-1}, via its coordinate SU(2)-block factors.

    The driving block of h is the fundamental character of largest angle
    (smallest index on ties); each block of g costs an even number of
    factors, half conjugates of h and half of h^-1 so the off-block part
    of h cancels exactly.
    """
    if g.type != "A" or h.type != "A":
        raise ValueError("type-A torus elements required")
    if g.rank != h.rank:
        raise ValueError("equal ranks required")
    r = g.rank
    if r > 12:
        raise BadRank("rank must be at most 12")
    if m < 2 or m % 2:
        raise ValueError("m must be even and at least 2")
    if h.is_central():
        raise CentralH("h is central")
    if lambda_of(g) > m * lambda_of(h):
        raise BoundViolated(
            f"lambda(g)={lambda_of(g)} > {m}*lambda(h)={m * lambda_of(h)}")

    jstar = sorted_distance_profile(h)[1][0] + 1
    budget = 4 * m * r * r

    # each block's count is at most what the budget has left, so the
    # certificate keeps its bound
    cert = DecompositionCertificate(kind="torus-A", target=g, base=h,
                                    bound=budget)
    for i, psi in enumerate(_psi_coordinates(g), start=1):
        if psi == 0:
            continue
        group = _block_factor_group(r + 1, h, [jstar], [(i, psi)],
                                    range(2, budget - cert.count + 1, 2))
        if group is None:
            raise BoundViolated(
                f"block {i} needs more than the {budget}-factor budget")
        cert.factors.extend(group)
    _verify_certificate(cert, g.matrix(), h.matrix())
    return cert


# ------------------------------------------- large-rank decomposition

def _step_values(dists, D):
    """sin(pi*d/(2D)) of each distance d/D (units of pi): half of
    |1 - e^{i*pi*d/D}|; int / int rounds as float(Fraction) does."""
    return [math.sin(math.pi * (d / D) / 2) for d in dists]


def sorted_distance_profile(t: TorusElement):
    """(F, order): the step values F(i) = sin(pi*d_i/2) of the character
    distances d_i of t, largest first, and the sorting permutation (the
    smaller index first on ties)."""
    nums, D = _units(t.angles)
    d = _distances(t.type, nums, D)
    order = sorted(range(len(d)), key=d.__getitem__, reverse=True)
    return _step_values([d[i] for i in order], D), order


def _first_violation(f, h, c, k):
    """The least i >= 0 with F(k*i+1) > c*H(i+1) + 1e-12, or None; F and
    H read the value lists f and h 1-based and are zero past their ends,
    so only i with k*i < len(f) can violate.  The additive slack 1e-12
    absorbs float rounding but does not compose: two witnesses within it
    need not compose to one."""
    for i, x in enumerate(f[::k]):
        if x > c * (h[i] if i < len(h) else 0.0) + 1e-12:
            return i
    return None


def _orthogonal_triples(indices):
    """partition_permutation of the rank permutation of the distinct
    indices, its entries mapped back through the sorted indices."""
    order = sorted(range(len(indices)), key=indices.__getitem__)
    vectors = partition_permutation(Permutation(order).inverse())
    return [[indices[order[x - 1]] for x in vec] for vec in vectors]


def large_rank_decompose(g: TorusElement, h: TorusElement, k,
                         m) -> DecompositionCertificate:
    """High-rank SU decomposition with at most 140*k*m + 4*m factors.

    Requires rank r > 20k and the step-profile domination
    F_g(k*i+1) <= m*F_h(i+1) for all i >= 0.  Groups the SU(2)-blocks of
    g into orthogonal triples so one conjugate of h drives many blocks at
    once: coloring.partition_permutation splits the ranked block indices
    into three vectors with no two adjacent indices in one, and
    check_partition_vectors verifies that on every result.
    """
    if g.type != "A" or h.type != "A" or g.rank != h.rank:
        raise ValueError("type-A torus elements of equal rank required")
    r = g.rank
    if r <= 20 * k:
        raise RankTooSmall(f"rank {r} <= 20k = {20 * k}")
    if k < 1 or m < 2 or m % 2:
        raise ValueError("need k >= 1 and an even m >= 2")
    bound = 140 * k * m + 4 * m
    n = r + 1

    fg, sigma = sorted_distance_profile(g)
    fh, tau = sorted_distance_profile(h)
    i = _first_violation(fg, fh, m, k)
    if i is not None:
        raise BoundViolated(f"F_g({k * i + 1})={fg[k * i]:.3g} > "
                            f"m*F_h({i + 1})={m * fh[i]:.3g}")

    cert = DecompositionCertificate(kind="large-rank", target=g, base=h,
                                    bound=bound)
    if g.is_central():
        # the step profile of a central element vanishes identically
        spec = g.spectrum()
        cert.central_remainder = cmath.exp(1j * math.pi * float(spec[0]))
        _verify_certificate(cert, g.matrix(), h.matrix())
        return cert
    if h.is_central():
        raise CentralH("h is central")

    K = 5 * k
    N = ((r - K - 1) // K // 3) * 3
    psis = _psi_coordinates(g)

    treated = set()
    if N >= 3:
        t0 = [tau[p] + 1 for p in range(N)]
        bsets = _orthogonal_triples(t0)
        for l in range(1, K + 1):
            sl = [sigma[(q * K + l) - 1] + 1 for q in range(N)]
            csets = _orthogonal_triples(sl)
            for drivers, blocks in zip(bsets, csets):
                treated.update(blocks)
                live = [(jj, a) for jj, a in zip(drivers, blocks)
                        if psis[a - 1] != 0]
                if not live:
                    continue
                group = _block_factor_group(
                    n, h, [jj for jj, _ in live],
                    [(a, psis[a - 1]) for _, a in live], (4 * m,))
                if group is None:
                    raise BoundViolated(
                        "a grouped block is unreachable in 4m factors")
                cert.factors.extend(group)

    bstar = tau[0] + 1
    for a in range(1, r + 1):
        if a in treated or psis[a - 1] == 0:
            continue
        group = _block_factor_group(n, h, [bstar], [(a, psis[a - 1])],
                                    (4 * m,))
        if group is None:
            raise BoundViolated(
                f"leftover block {a} unreachable in 4m factors")
        cert.factors.extend(group)

    _verify_certificate(cert, g.matrix(), h.matrix())
    if cert.count > bound:
        raise BoundViolated(f"{cert.count} factors exceed bound {bound}")
    return cert


# ------------------------------------------------- counterexample family

def counterexample_family(n):
    """The U(2n+1) pair separating step-profile domination from bounded
    conjugate generation: g has one angle 2(n-1)/n, n angles 1/n^2 and n
    zeros; h has two angles 1 and 2n-1 zeros (units of pi)."""
    if n < 2:
        raise ValueError("need n >= 2")
    # each distinct angle normalized once: 2(n-1)/n is -2/n for n >= 3
    top, small, zero, one = map(normalize_angle, (
        Fraction(2 * (n - 1), n), Fraction(1, n * n), 0, 1))
    g = TorusElement._trusted("U", 2 * n, (top,) + (small,) * n + (zero,) * n)
    h = TorusElement._trusted("U", 2 * n, (one, one) + (zero,) * (2 * n - 1))
    return g, h
