"""Length functions on symmetric and alternating groups.

Everything here is driven by cycle types: the Hamming length, the rank
length, conjugacy class sizes (with the alternating-group splitting
rule) and the conjugacy length all depend on a permutation only through
its cycle type, so the comparison sweeps enumerate integer partitions
rather than group elements.

A cycle type is the ascending tuple of its cycle lengths (CycleType, a
slotted tuple subclass), so a comparison row holds one small tuple and
no dict. The partition walk carries, for each prefix, only its
class-size denominator and the run length of its last part; a row's
tail parts extend that run or start new ones.

Hamming and rank lengths are exact rationals; the conjugacy length goes
through floating point logarithms (class sizes stay exact big integers).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from . import LengthlabError, OutOfRange

SYM = "Sym"
ALT = "Alt"


class OddTypeInAlt(LengthlabError, ValueError):
    """Raised when an odd cycle type is used in an alternating group."""


class Permutation:
    """A permutation of {0, ..., n-1} stored as an image array."""

    __slots__ = ("n", "images")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a bijection of range(n)")
        self.n = len(images)
        self.images = images

    @classmethod
    def _trusted(cls, images: Sequence[int]) -> "Permutation":
        # images already a bijection of range(n): skip the check
        p = cls.__new__(cls)
        p.images = tuple(images)
        p.n = len(p.images)
        return p

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build a permutation of range(n) from disjoint cycles (0-based)."""
        images = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                images[a] = b
        return cls(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(x) = self(other(x))
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(inv)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def cycles(self) -> List[List[int]]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(cyc)
        return out

    def is_even(self) -> bool:
        return cycle_type(self).is_even()


class CycleType(tuple):
    """The cycle lengths of a permutation of n = sum(self) points, as an
    ascending tuple.

    CycleType(parts) checks and sorts the parts; code holding parts that
    are already sorted and valid skips that with tuple.__new__.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "CycleType":
        parts = list(parts)
        if any(type(i) is not int or i < 1 for i in parts):
            raise ValueError(f"cycle lengths must be positive ints, got {parts}")
        parts.sort()
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self)

    def parts(self) -> List[int]:
        return list(self)

    def is_even(self) -> bool:
        # parity = sum over cycles of (length - 1)
        return (sum(self) - len(self)) % 2 == 0

    def __repr__(self) -> str:
        return f"CycleType({tuple(self)})"


def cycle_type(p: Permutation) -> CycleType:
    """Cycle type of a permutation."""
    return tuple.__new__(CycleType, sorted(map(len, p.cycles())))


def class_size(t: CycleType, ambient: str = SYM) -> int:
    """Conjugacy class size of a cycle type in S_n or A_n.

    In S_n the class size is n! / (prod i^{c_i} * prod c_i!). In A_n the
    S_n-class either stays whole or splits into two classes of equal
    size; it splits exactly when all cycle lengths are odd and pairwise
    distinct.

    Raises:
        OddTypeInAlt: if ambient is Alt and t is an odd type.
    """
    # the c-th part equal to i adds i * c to the denominator
    denom, prev, c = 1, 0, 0
    for i in t:
        c = c + 1 if i == prev else 1
        denom, prev = denom * i * c, i
    size = math.factorial(t.n) // denom
    if ambient == SYM:
        return size
    if ambient != ALT:
        raise ValueError(f"unknown ambient {ambient!r}")
    if not t.is_even():
        raise OddTypeInAlt(f"odd cycle type {t!r} in Alt")
    return size // 2 if _splits_in_alt(t) else size


def _splits_in_alt(parts: Sequence[int]) -> bool:
    """Does A_n split the S_n-class: are the parts odd and distinct?"""
    return all(i % 2 for i in parts) and len(set(parts)) == len(parts)


def group_order(n: int, ambient: str = SYM) -> int:
    if ambient == SYM:
        return math.factorial(n)
    if ambient == ALT:
        return math.factorial(n) // 2 if n >= 2 else 1
    raise ValueError(f"unknown ambient {ambient!r}")


def _ascending(n: int) -> Iterator[tuple]:
    """accelAsc (Kelleher and O'Sullivan) on n >= 1, prefix carried along.

    Yields (a, run, den, k, x, y) in lexicographic order: the parts are
    a[:k] + [x, y] with x <= y, or a[:k] + [x] when y is 0; both tail
    parts are at least a[k-1].  For each prefix length j >= 1, run[j] is
    how many of a[:j] equal its last part a[j-1], and den[j] is
    prod i^c * c! over the multiplicities c of a[:j]: the c-th part equal
    to i adds i * c.  A push starts a new run, since x > a[k-1] there.
    """
    a = [0] * n
    run = [0] * (n + 1)
    den = [1] * (n + 1)
    k, y = 1, n - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        c = 0
        while 2 * x <= y:  # push x
            c += 1
            a[k], run[k + 1], den[k + 1] = x, c, den[k] * x * c
            y -= x
            k += 1
        while x <= y:
            yield a, run, den, k, x, y
            x += 1
            y -= 1
        yield a, run, den, k, x + y, 0
        y += x - 1


ASYMPTOTIC_THRESHOLD_N = 17  # bound flags below this are informational only

REPORT_HEADER = "n,cycle_type,ell_H,ell_r,ell_c,flag_exact,flag_asym"


def comparison_rows(
    n_min: int, n_max: int, ambient: str = SYM
) -> Iterator[Tuple[int, CycleType, Fraction, Fraction, float, bool, bool]]:
    """Per-cycle-type length comparison over n in [n_min, n_max].

    flag_exact marks violations of the exact sandwich
    l_r <= l_H <= 2*l_r; flag_asym marks violations of l_c <= 2*l_H or
    l_H <= 8*l_c, counted only for n >= 17 (below that the asymptotic
    bounds carry no guarantee and the flag stays False).
    """
    if not 1 <= n_min <= n_max:
        raise OutOfRange(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    for n in range(n_min, n_max + 1):
        log_order = math.log(group_order(n, ambient))
        fact = math.factorial(n)
        frac = [Fraction(k, n) for k in range(n + 1)]
        for a, run, den, k, x, y in _ascending(n):
            l = k + 2 if y else k + 1
            if ambient == ALT and (n - l) % 2:  # parity of the type is n - l
                continue
            # class_size with n! hoisted and the prefix's denominator
            # carried: x extends the prefix's last run or starts one
            c = run[k] + 1 if k and a[k - 1] == x else 1
            denom = den[k] * x * c
            if y:
                denom *= y * (c + 1 if y == x else 1)
                t = tuple.__new__(CycleType, a[:k] + [x, y])
            else:
                t = tuple.__new__(CycleType, a[:k] + [x])
            size = fact // denom
            if ambient == ALT and _splits_in_alt(t):
                size //= 2
            lc = math.log(size) / log_order if size > 1 else 0.0
            c1 = t.count(1)
            # l_r <= l_H <= 2 l_r  <=>  c1 <= l and n - c1 <= 2(n - l)
            flag_exact = not (c1 <= l and n - c1 <= 2 * (n - l))
            lh = (n - c1) / n  # rounds as float(Fraction(n - c1, n)) does
            flag_asym = n >= ASYMPTOTIC_THRESHOLD_N and (
                lc > 2 * lh + 1e-12 or lh > 8 * lc + 1e-12)
            yield n, t, frac[n - c1], frac[n - l], lc, flag_exact, flag_asym


def _census(n_max: int) -> List[Dict[Tuple[int, int], int]]:
    """Number of cycle types on n points by (fixed points c1, cycles l).

    Entry n maps (c1, l) to its count, for 0 <= n <= n_max. A type with c1
    fixed points and l cycles is c1 ones plus l - c1 parts >= 2 summing to
    n - c1; taking 1 from each of those parts leaves a partition of n - l
    into exactly l - c1 parts, counted by p(m, k) = p(m-1, k-1) + p(m-k, k).
    """
    p = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    p[0][0] = 1
    for m in range(1, n_max + 1):
        for k in range(1, m + 1):
            p[m][k] = p[m - 1][k - 1] + p[m - k][k]
    census = []
    for n in range(n_max + 1):
        cells = {}
        for c1 in range(n + 1):
            for j in range((n - c1) // 2 + 1):
                if p[n - c1 - j][j]:
                    cells[c1, c1 + j] = p[n - c1 - j][j]
        census.append(cells)
    return census


def exact_sandwich_scan(n_max: int) -> int:
    """Count violations of l_r <= l_H <= 2*l_r over all cycle types, n <= n_max.

    Both lengths depend only on (n, fixed points, cycle count), so each
    cell of the census is checked once and weighted by its count.
    """
    violations = 0
    for n, cells in enumerate(_census(max(n_max, 0))):
        for (c1, l), count in cells.items():
            # l_r <= l_H <= 2 l_r  <=>  c1 <= l and n - c1 <= 2(n - l)
            if not (c1 <= l and n - c1 <= 2 * (n - l)):
                violations += count
    return violations
