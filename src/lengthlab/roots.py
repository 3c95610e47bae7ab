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
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import LengthlabError


class BadRank(LengthlabError, ValueError):
    pass


class NotInOrbit(LengthlabError):
    pass


class NoSplit(LengthlabError):
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
    """lfrac of each fundamental character (as TorusElement.betas) of
    the arrangement vals/D of normalized angles, in units of 1/D."""
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


def angle(theta) -> float:
    """Geometric angle of e^{i*pi*theta}, a real in [0, pi]."""
    return math.pi * float(lfrac(theta))


# ------------------------------------------------------- root systems

_VALID_MU = {Fraction(sign, d) for sign in (1, -1) for d in (1, 2, 3)}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _neg(v):
    return tuple(-a for a in v)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _scale(c, v):
    return tuple(c * a for a in v)


@dataclass(frozen=True)
class RootSystem:
    """A crystallographic root system in its standard vector model.

    coroots uses the normalization in which coroots satisfy the same
    linear relations as the roots themselves, so additive identities
    transfer verbatim between the two.
    """

    type: str
    rank: int
    roots: tuple
    fundamental: tuple

    def coroot(self, root):
        return root

    @property
    def coroots(self):
        return {r: self.coroot(r) for r in self.roots}

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

    def reflect(self, i, v):
        """Apply the simple reflection in fundamental root i (0-based)."""
        f = self.fundamental[i]
        c = 2 * _dot(v, f) / Fraction(_dot(f, f))
        return tuple(a - c * b for a, b in zip(v, f))


def _unit(i, dim):
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def build_root_system(typ, rank) -> RootSystem:
    """Standard vector models of the classical systems plus G2 and F4."""
    typ = typ.upper()
    roots, fund = [], []
    if typ in ("A", "B", "C", "D"):
        if rank < 1 or rank > 12 or (typ == "D" and rank < 2):
            raise BadRank(f"{typ} rank {rank} unsupported")
    if typ == "A":
        dim = rank + 1
        e = [_unit(i, dim) for i in range(dim)]
        roots = [_add(e[i], _neg(e[j])) for i in range(dim)
                 for j in range(dim) if i != j]
        fund = [_add(e[i], _neg(e[i + 1])) for i in range(rank)]
    elif typ in ("B", "C", "D"):
        dim = rank
        e = [_unit(i, dim) for i in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                for sj in (1, -1):
                    v = _add(e[i], _scale(sj, e[j]))
                    roots.extend([v, _neg(v)])
        if typ == "B":
            for i in range(dim):
                roots.extend([e[i], _neg(e[i])])
        elif typ == "C":
            for i in range(dim):
                v = _scale(2, e[i])
                roots.extend([v, _neg(v)])
        fund = [_add(e[i], _neg(e[i + 1])) for i in range(rank - 1)]
        if typ == "B":
            fund.append(e[rank - 1])
        elif typ == "C":
            fund.append(_scale(2, e[rank - 1]))
        else:
            if rank == 1:
                raise BadRank("D needs rank >= 2")
            fund = [_add(e[i], _neg(e[i + 1])) for i in range(rank - 1)]
            fund.append(_add(e[rank - 2], e[rank - 1]))
    elif typ == "G2":
        if rank != 2:
            raise BadRank("G2 has rank 2")
        rank = 2
        shorts = [(1, -1, 0), (-1, 1, 0), (0, 1, -1),
                  (0, -1, 1), (1, 0, -1), (-1, 0, 1)]
        longs = [(2, -1, -1), (-2, 1, 1), (-1, 2, -1),
                 (1, -2, 1), (-1, -1, 2), (1, 1, -2)]
        roots = [tuple(Fraction(a) for a in v) for v in shorts + longs]
        fund = [tuple(Fraction(a) for a in v)
                for v in [(1, -1, 0), (-1, 2, -1)]]
    elif typ == "F4":
        if rank != 4:
            raise BadRank("F4 has rank 4")
        rank = 4
        e = [_unit(i, 4) for i in range(4)]
        for i in range(4):
            roots.extend([e[i], _neg(e[i])])
            for j in range(i + 1, 4):
                for sj in (1, -1):
                    v = _add(e[i], _scale(sj, e[j]))
                    roots.extend([v, _neg(v)])
        half = Fraction(1, 2)
        for s0 in (1, -1):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    for s3 in (1, -1):
                        roots.append((s0 * half, s1 * half,
                                      s2 * half, s3 * half))
        fund = [
            _add(e[1], _neg(e[2])),
            _add(e[2], _neg(e[3])),
            e[3],
            (half, -half, -half, -half),
        ]
    else:
        raise BadRank(f"unknown type {typ}")

    roots = tuple(sorted(set(roots)))
    rs = RootSystem(typ, rank, roots, tuple(fund))
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
    for v in rs.roots:
        assert _neg(v) in rootset, v
    for coeffs in coefficients_in_fundamentals(rs, rs.roots):
        assert all(c.denominator == 1 for c in coeffs), coeffs
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


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
        and rank, without the constructor's work; only a negative rank
        still raises BadRank."""
        if rank < 0:
            raise BadRank(f"rank {rank} < 0")
        t = cls.__new__(cls)
        t.__dict__.update(type=typ, rank=rank, angles=angles)
        return t

    def betas(self):
        """Fundamental character angles, exact and normalized."""
        th = self.angles
        if self.type in ("A", "U"):
            return [normalize_angle(th[i] - th[i + 1])
                    for i in range(len(th) - 1)]
        out = [normalize_angle(th[i] - th[i + 1])
               for i in range(self.rank - 1)]
        if self.type == "B":
            out.append(th[-1])
        elif self.type == "C":
            out.append(normalize_angle(2 * th[-1]))
        else:
            out.append(normalize_angle(th[-2] + th[-1]))
        return out

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
        return all(b == 0 for b in self.betas())

    def matrix(self):
        return np.diag([cmath.exp(1j * math.pi * float(a))
                        for a in self.spectrum()])

    def to_json(self):
        return {"type": self.type, "rank": self.rank,
                "angles": [str(a) for a in self.angles]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["type"], obj["rank"],
                   tuple(Fraction(a) for a in obj["angles"]))


def lambda_of(t: TorusElement) -> Fraction:
    """Mean character angle (units of pi): exact rational in [0, 1]."""
    return sum((lfrac(b) for b in t.betas()), Fraction(0)) / t.rank


# ------------------------------------- rearrangement orbit, lambda-tilde

_STATE_CAP = 200_000


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
        counts = Counter(D - (D - a) % (2 * D) for a in nums)
        vals = sorted(counts)
        self.n = len(nums)
        self.counts = tuple(counts[v] for v in vals)
        signs = (1, -1) if self.typ in ("B", "C", "D") else (1,)
        self.D = D
        # s*v normalized to (-D, D]
        self.values = [D - (D - s * v) % (2 * D) for v in vals for s in signs]
        self.flips = [int(s < 0 and self.typ == "D")
                      for _ in vals for s in signs]
        self.labels = [range(i * len(signs), (i + 1) * len(signs))
                       for i in range(len(vals))]

        D2 = 2 * D
        # step[a][b] = lfrac(a - b); the type-D arrangement closes with
        # lfrac(a + b) on its last pair, B and C end on lfrac(a), lfrac(2a)
        self.step = [[min((a - b) % D2, (b - a) % D2) for b in self.values]
                     for a in self.values]
        self.close = [[min((a + b) % D2, -(a + b) % D2) for b in self.values]
                      for a in self.values] if self.typ == "D" else None
        mult = {"B": 1, "C": 2}.get(self.typ, 0)
        self.end = [min(mult * a % D2, -mult * a % D2) for a in self.values]

    @classmethod
    def of(cls, t: TorusElement):
        """The orbit of t, over the least common denominator of its
        angles."""
        return cls(t.type, *_units(t.angles))


def lambda_tilde(t: TorusElement, state_cap=_STATE_CAP) -> Fraction:
    """Exact maximum of lambda over the orbit of rearrangements.

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


def _zigzag(values):
    """The sorted values taken lowest, highest, second lowest, ..."""
    srt = sorted(values)
    return [srt[i // 2] if i % 2 == 0 else srt[-1 - i // 2]
            for i in range(len(srt))]


def lambda_tilde_lower_bound(t: TorusElement, tries=200, seed=0) -> Fraction:
    """Heuristic lower bound for lambda_tilde (arbitrary rank).

    Random signed shuffles plus a low/high zigzag; always <= the true
    orbit maximum, which is all the flagged heuristic mode promises.
    """
    import random

    rng = random.Random(seed)
    typ = "A" if t.type == "U" else t.type
    signed = typ in ("B", "C", "D")
    angles = [normalize_angle(a) for a in t.angles]

    def candidates():
        zig = _zigzag(angles)
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
        val = _arrangement_value(typ, tuple(seq))
        if val > best:
            best = val
    return best / t.rank


# --------------------------------------------------- l1 lengths

def ell1(t: TorusElement) -> float:
    """Normalized trace-norm distance to the identity: (1/2n)sum|1-mu|."""
    spec = t.spectrum()
    return sum(abs(1 - cmath.exp(1j * math.pi * float(a)))
               for a in spec) / (2 * len(spec))


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
    return best / (2 * t.rank)


def scaled_rank_length_inf(t: TorusElement) -> Fraction:
    """inf over unit scalars z of rank(1 - z*g)/n for the spectrum of g."""
    spec = [normalize_angle(a) for a in t.spectrum()]
    top = max(spec.count(v) for v in set(spec))
    return Fraction(len(spec) - top, len(spec))


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
        cur = _qmul(_qmul(w, cur), _qconj(w))
    return factors, cur


def _conjugator_for(f, base_q):
    """v with v * base_q * v^-1 = f (same polar angle)."""
    if math.sin(_qpolar(base_q)) < 1e-14:
        return (1.0, 0.0, 0.0, 0.0)
    return _rot_between(_qaxis(base_q), _qaxis(f))


# ------------------------------------------------------- certificates

@dataclass
class DecompositionCertificate:
    """g written as a bounded product of conjugates of h^{+-1}."""

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

    def check_bound(self):
        return self.count <= self.bound

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
    path = None
    used = 0
    if target < 1e-15:
        path = []
    else:
        for c in range(1, m + 1):
            path = _plan_polar_path(target, a, c)
            if path is not None:
                used = c
                break
        if path is None:
            raise PolarInfeasible(
                f"rotation angle {target:.6f} unreachable with {m} factors "
                f"of angle {a:.6f}")

    tgf = math.pi * float(tg)
    target_q = (math.cos(tgf), 0.0, 0.0, math.sin(tgf))
    thf = math.pi * float(th)
    base_q = (math.cos(thf), 0.0, 0.0, math.sin(thf))
    factors, cur = _realize_path(path, a, target_q)
    conjugators = [(_conjugator_for(f, base_q), 1) for f in factors]

    prod = (1.0, 0.0, 0.0, 0.0)
    for v, _ in conjugators:
        prod = _qmul(prod, _qmul(_qmul(v, base_q), _qconj(v)))
    err = max(abs(x - y) for x, y in zip(prod, target_q)) if conjugators \
        else max(abs(x - y) for x, y in zip((1.0, 0.0, 0.0, 0.0), target_q))

    cert = DecompositionCertificate(
        kind="su2", target=tg, base=th,
        factors=conjugators, bound=m, product_error=err)
    assert used <= m
    return cert


# ----------------------------------------------------- Weyl machinery

def weyl_search(rs: RootSystem, alpha, beta):
    """Shortest word in simple reflections carrying beta to alpha.

    Returned as a list of fundamental-root indices applied left to
    right.  BFS over the root orbit; roots of different lengths are
    never conjugate (NotInOrbit).
    """
    if rs.type != "A" and rs.rank > 6:
        raise BadRank("Weyl search materialized only up to rank 6")
    alpha, beta = tuple(alpha), tuple(beta)
    if rs.norm2(alpha) != rs.norm2(beta):
        raise NotInOrbit("roots of different lengths")
    from collections import deque

    seen = {beta: []}
    queue = deque([beta])
    while queue:
        v = queue.popleft()
        if v == alpha:
            return seen[v]
        for i in range(rs.rank):
            w = rs.reflect(i, v)
            if w not in seen:
                seen[w] = seen[v] + [i]
                queue.append(w)
    raise NotInOrbit("orbit exhausted")


def apply_weyl_word(rs, word, v):
    for i in word:
        v = rs.reflect(i, v)
    return v


def cocharacter_split(rs: RootSystem, alpha_short, beta_long):
    """Weyl words w1, w2 and mu with alpha = mu*(beta^w1 + beta^w2), and
    the matching coroot identity h_{beta^w1} + h_{beta^w2} = mu^-1 h_alpha,
    both verified exactly."""
    alpha = tuple(alpha_short)
    beta = tuple(beta_long)
    if alpha not in rs.fundamental or beta not in rs.fundamental:
        raise ValueError("both roots must be fundamental")
    if rs.norm2(alpha) == rs.norm2(beta):
        raise NoSplit("equal-length fundamental roots")
    longs = [r for r in rs.roots if rs.norm2(r) == rs.norm2(beta)]
    a_scale, a_key = _direction(alpha)
    for g1 in longs:
        for g2 in longs:
            d = _direction(v := _add(g1, g2))
            if d is None or d[1] != a_key:
                continue
            mu = a_scale / d[0]
            if mu not in _VALID_MU:
                continue
            w1 = weyl_search(rs, g1, beta)
            w2 = weyl_search(rs, g2, beta)
            assert alpha == _scale(mu, v)
            lhs = _add(rs.coroot(g1), rs.coroot(g2))
            rhs = _scale(Fraction(1) / mu, rs.coroot(alpha))
            assert lhs == rhs, (lhs, rhs)
            return (w1, w2, mu)
    raise NoSplit("no two-root combination found")


# ------------------------------------- SU(r+1) torus decompositions

def _psi_coordinates(t: TorusElement):
    """Parameters of the coordinate SU(2)-block factorization of a type-A
    torus element: partial angle sums, exact and normalized."""
    psis = []
    acc = Fraction(0)
    for th in t.angles[:-1]:
        acc += th
        psis.append(normalize_angle(acc))
    return psis


def _block_embed(n, i, mat2):
    """Place a 2x2 block at coordinates (i, i+1), 1-based."""
    out = np.eye(n, dtype=complex)
    out[i - 1:i + 1, i - 1:i + 1] = mat2
    return out


def _block_permutation(n, pairs):
    """Unimodular permutation-style matrix sending block (b, b+1) to
    (a, a+1) for each (b, a) pair, disjointly; determinant fixed by a
    sign outside all target blocks."""
    mapping = {}
    for b, a in pairs:
        mapping[b - 1] = a - 1
        mapping[b] = a
    used_targets = set(mapping.values())
    free_targets = [i for i in range(n) if i not in used_targets]
    it = iter(free_targets)
    perm = [mapping[s] if s in mapping else next(it) for s in range(n)]
    P = np.zeros((n, n))
    for src, dst in enumerate(perm):
        P[dst, src] = 1.0
    if round(np.linalg.det(P)) == -1:
        blocked = {a - 1 for _, a in pairs} | {a for _, a in pairs}
        spot = next(i for i in range(n) if i not in blocked)
        P[spot, :] *= -1
    return P.astype(complex)


def _h_block_parameter(h: TorusElement, j):
    """SU(2)-block parameter of h at coordinates (j, j+1): the lift of
    (eta_j - eta_{j+1})/2 with the larger rotation angle."""
    raw = normalize_angle(Fraction(h.angles[j - 1] - h.angles[j], 2))
    alt = normalize_angle(raw + 1)
    return raw if abs(raw) >= abs(alt) else alt


def _block_factor_group(n, h, j, targets, count):
    """Factors (conjugator, eps) writing the commuting product of the
    target blocks as `count` conjugates of h^{+-1}, half each sign.

    targets: list of (block index a, parameter psi).  The same h-blocks
    at the j-positions drive all targets through one shared conjugator
    per factor.  Returns None if some target is unreachable in count
    steps."""
    assert count % 2 == 0
    paths = []
    for (a, psi), jj in zip(targets, j):
        step = math.pi * abs(float(_h_block_parameter(h, jj)))
        target = math.pi * abs(float(psi))
        path = _plan_polar_path(target, step, count)
        if path is None:
            return None
        paths.append(path)

    per_block = []
    for (a, psi), jj, path in zip(targets, j, paths):
        chi = _h_block_parameter(h, jj)
        step = math.pi * abs(float(chi))
        tpf = math.pi * float(psi)
        target_q = (math.cos(tpf), 0.0, 0.0, math.sin(tpf))
        chif = math.pi * float(chi)
        base_q = (math.cos(chif), 0.0, 0.0, math.sin(chif))
        factors, _ = _realize_path(path, step, target_q)
        per_block.append((base_q, factors))

    pairs = [(jj, a) for (a, _), jj in zip(targets, j)]
    W = _block_permutation(n, pairs)
    group = []
    for tind in range(count):
        eps = 1 if tind < count // 2 else -1
        E = np.eye(n, dtype=complex)
        for (base_q, factors), jj in zip(per_block, j):
            bq = base_q if eps == 1 else _qconj(base_q)
            v = _conjugator_for(factors[tind], bq)
            E = E @ _block_embed(n, jj, su2_matrix(v))
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

    dists = [lfrac(b) for b in h.betas()]
    jstar = max(range(r), key=lambda i: (dists[i], -i)) + 1
    step = math.pi * abs(float(_h_block_parameter(h, jstar)))
    n = r + 1
    budget = 4 * m * r * r

    psis = _psi_coordinates(g)
    blocks = []
    total = 0
    for i, psi in enumerate(psis, start=1):
        if psi == 0:
            continue
        target = math.pi * abs(float(psi))
        count = None
        for c in range(2, budget + 2, 2):
            if _plan_polar_path(target, step, c) is not None:
                count = c
                break
            if total + c > budget:
                break
        if count is None or total + count > budget:
            raise BoundViolated(
                f"block {i} needs more than the {budget}-factor budget")
        total += count
        blocks.append((i, psi, count))

    cert = DecompositionCertificate(kind="torus-A", target=g, base=h,
                                    bound=budget)
    for i, psi, count in blocks:
        group = _block_factor_group(n, h, [jstar], [(i, psi)], count)
        assert group is not None
        cert.factors.extend(group)
    _verify_certificate(cert, g.matrix(), h.matrix())
    if not cert.check_bound():
        raise BoundViolated(f"{cert.count} factors exceed bound {budget}")
    return cert


# ------------------------------------------- large-rank decomposition

def sorted_distance_profile(t: TorusElement):
    """(sorted distances, sorting permutation): F(i) = sin(pi*d_i/2)."""
    d = [lfrac(b) for b in t.betas()]
    order = sorted(range(len(d)), key=lambda i: (-d[i], i))
    return [d[i] for i in order], order


def profile_value(dists, i):
    """F(i) = half the i-th largest |1 - beta(t)|, 1-based, 0 beyond."""
    if i <= len(dists):
        return math.sin(math.pi * float(dists[i - 1]) / 2)
    return 0.0


def large_rank_decompose(g: TorusElement, h: TorusElement, k,
                         m) -> DecompositionCertificate:
    """High-rank SU decomposition with at most 140*k*m + 4*m factors.

    Requires rank r > 20k and the step-profile domination
    F_g(k*i+1) <= m*F_h(i+1) for all i >= 0.  Groups the SU(2)-blocks of
    g into orthogonal triples via strong cycle colorings so one conjugate
    of h drives many blocks at once.
    """
    from .coloring import strong_color_cycle

    if g.type != "A" or h.type != "A" or g.rank != h.rank:
        raise ValueError("type-A torus elements of equal rank required")
    r = g.rank
    if r <= 20 * k:
        raise RankTooSmall(f"rank {r} <= 20k = {20 * k}")
    if k < 1 or m < 2 or m % 2:
        raise ValueError("need k >= 1 and an even m >= 2")
    bound = 140 * k * m + 4 * m
    n = r + 1

    dg, sigma = sorted_distance_profile(g)
    dh, tau = sorted_distance_profile(h)
    i = 0
    while True:
        fg = profile_value(dg, k * i + 1)
        fh = profile_value(dh, i + 1)
        if fg > m * fh + 1e-12:
            raise BoundViolated(
                f"F_g({k * i + 1})={fg:.3g} > m*F_h({i + 1})={m * fh:.3g}")
        if k * i + 1 > r:
            break
        i += 1

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

    def orthogonal_triples(indices):
        """Partition index list into 3 slot-ordered vectors, no two
        adjacent root indices sharing a vector."""
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

    treated = set()
    if N >= 3:
        t0 = [tau[p] + 1 for p in range(N)]
        bsets = orthogonal_triples(t0)
        for l in range(1, K + 1):
            sl = [sigma[(q * K + l) - 1] + 1 for q in range(N)]
            csets = orthogonal_triples(sl)
            for which in range(3):
                drivers = bsets[which]
                targets = [(a, psis[a - 1]) for a in csets[which]]
                treated.update(a for a, _ in targets)
                live = [(tgt, jj) for tgt, jj in zip(targets, drivers)
                        if tgt[1] != 0]
                if not live:
                    continue
                group = _block_factor_group(
                    n, h, [jj for _, jj in live],
                    [tgt for tgt, _ in live], 4 * m)
                if group is None:
                    raise BoundViolated(
                        "a grouped block is unreachable in 4m factors")
                cert.factors.extend(group)

    bstar = tau[0] + 1
    for a in range(1, r + 1):
        if a in treated or psis[a - 1] == 0:
            continue
        group = _block_factor_group(n, h, [bstar], [(a, psis[a - 1])], 4 * m)
        if group is None:
            raise BoundViolated(
                f"leftover block {a} unreachable in 4m factors")
        cert.factors.extend(group)

    _verify_certificate(cert, g.matrix(), h.matrix())
    if not cert.check_bound():
        raise BoundViolated(f"{cert.count} factors exceed bound {bound}")
    return cert


# ------------------------------------------------- counterexample family

def counterexample_family(n):
    """The U(2n+1) pair separating step-profile domination from bounded
    conjugate generation: g has one angle 2(n-1)/n, n angles 1/n^2 and n
    zeros; h has two angles 1 and 2n-1 zeros (units of pi)."""
    if n < 2:
        raise ValueError("need n >= 2")
    g_angles = [Fraction(2 * (n - 1), n)] + [Fraction(1, n * n)] * n \
        + [Fraction(0)] * n
    h_angles = [Fraction(1), Fraction(1)] + [Fraction(0)] * (2 * n - 1)
    g = TorusElement("U", 2 * n, tuple(g_angles))
    h = TorusElement("U", 2 * n, tuple(h_angles))
    return g, h
