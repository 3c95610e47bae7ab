"""Length functions on symmetric and alternating groups.

Everything here is driven by cycle types: the Hamming length, the rank
length, conjugacy class sizes (with the alternating-group splitting
rule) and the conjugacy length all depend on a permutation only through
its cycle type, so the comparison sweeps enumerate integer partitions
rather than group elements.

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


class IdentityElement(LengthlabError, ValueError):
    pass


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
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

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


class CycleType:
    """Multiset of cycle lengths of a permutation of n points.

    counts maps cycle length i to its multiplicity c_i; sum(i * c_i) = n.
    """

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: Dict[int, int]):
        counts = {i: c for i, c in counts.items() if c}
        if any(i < 1 or c < 0 for i, c in counts.items()):
            raise ValueError("invalid cycle type")
        if sum(i * c for i, c in counts.items()) != n:
            raise ValueError("cycle lengths must sum to n")
        self.n = n
        self.counts = counts

    @classmethod
    def _trusted(cls, n: int, counts: Dict[int, int]) -> "CycleType":
        # counts already valid (no zero entries, sum(i * c) = n): skip checks
        t = cls.__new__(cls)
        t.n, t.counts = n, counts
        return t

    @classmethod
    def from_parts(cls, parts: Sequence[int]) -> "CycleType":
        counts: Dict[int, int] = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        return cls(sum(parts), counts)

    def parts(self) -> List[int]:
        out: List[int] = []
        for i in sorted(self.counts):
            out.extend([i] * self.counts[i])
        return out

    def is_even(self) -> bool:
        # parity = sum over cycles of (length - 1)
        return sum((i - 1) * c for i, c in self.counts.items()) % 2 == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycleType)
            and self.n == other.n
            and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.counts.items()))))

    def __repr__(self) -> str:
        return f"CycleType({self.n}, {self.counts})"


def cycle_type(p: Permutation) -> CycleType:
    """Cycle type of a permutation."""
    counts: Dict[int, int] = {}
    for cyc in p.cycles():
        counts[len(cyc)] = counts.get(len(cyc), 0) + 1
    return CycleType(p.n, counts)


def class_size(t: CycleType, ambient: str = SYM) -> int:
    """Conjugacy class size of a cycle type in S_n or A_n.

    In S_n the class size is n! / (prod i^{c_i} * prod c_i!). In A_n the
    S_n-class either stays whole or splits into two classes of equal
    size; it splits exactly when all cycle lengths are odd and pairwise
    distinct.

    Raises:
        OddTypeInAlt: if ambient is Alt and t is an odd type.
    """
    denom = 1
    for i, c in t.counts.items():
        denom *= i**c * math.factorial(c)
    size = math.factorial(t.n) // denom
    if ambient == SYM:
        return size
    if ambient != ALT:
        raise ValueError(f"unknown ambient {ambient!r}")
    if not t.is_even():
        raise OddTypeInAlt(f"odd cycle type {t!r} in Alt")
    return size // 2 if _splits_in_alt(t.counts) else size


def _splits_in_alt(counts: Dict[int, int]) -> bool:
    """Does A_n split the S_n-class: are the lengths odd and distinct?"""
    return all(i % 2 and c == 1 for i, c in counts.items())


def group_order(n: int, ambient: str = SYM) -> int:
    if ambient == SYM:
        return math.factorial(n)
    if ambient == ALT:
        return math.factorial(n) // 2 if n >= 2 else 1
    raise ValueError(f"unknown ambient {ambient!r}")


def _ascending(n: int) -> Iterator[tuple]:
    """accelAsc (Kelleher and O'Sullivan) on n >= 1, prefix carried along.

    Yields (a, cnt, den, k, x, y) in lexicographic order: the parts are
    a[:k] + [x, y] with x <= y, or a[:k] + [x] when y is 0; both tail
    parts are at least a[k-1].  For each prefix length j, cnt[j] holds the
    multiplicities of a[:j], inserted in ascending order, and den[j] is
    prod i^c * c! over them: the c-th part equal to i adds i * c.
    """
    a = [0] * n
    cnt = [{}] * (n + 1)
    den = [1] * (n + 1)
    k, y = 1, n - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:  # push x
            counts = cnt[k].copy()
            counts[x] = c = counts.get(x, 0) + 1
            a[k], cnt[k + 1], den[k + 1] = x, counts, den[k] * x * c
            y -= x
            k += 1
        while x <= y:
            yield a, cnt, den, k, x, y
            x += 1
            y -= 1
        yield a, cnt, den, k, x + y, 0
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
        for _, cnt, den, k, x, y in _ascending(n):
            l = k + 2 if y else k + 1
            if ambient == ALT and (n - l) % 2:  # parity of the type is n - l
                continue
            # class_size with n! hoisted and the prefix's denominator
            # carried: the tail adds its parts to a copy of the prefix's
            counts = cnt[k].copy()
            counts[x] = c = counts.get(x, 0) + 1
            denom = den[k] * x * c
            if y:
                counts[y] = c = counts.get(y, 0) + 1
                denom *= y * c
            size = fact // denom
            if ambient == ALT and _splits_in_alt(counts):
                size //= 2
            lc = math.log(size) / log_order if size > 1 else 0.0
            c1 = counts.get(1, 0)
            # l_r <= l_H <= 2 l_r  <=>  c1 <= l and n - c1 <= 2(n - l)
            flag_exact = not (c1 <= l and n - c1 <= 2 * (n - l))
            lh = (n - c1) / n  # rounds as float(Fraction(n - c1, n)) does
            flag_asym = n >= ASYMPTOTIC_THRESHOLD_N and (
                lc > 2 * lh + 1e-12 or lh > 8 * lc + 1e-12)
            yield (n, CycleType._trusted(n, counts), frac[n - c1],
                   frac[n - l], lc, flag_exact, flag_asym)


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
