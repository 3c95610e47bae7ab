"""Tests for length functions on symmetric/alternating groups.

Expected class sizes below were frozen from brute-force conjugation
orbits (see the oracle helpers at the top), not from the product
formula under test.
"""

import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations as iter_perms

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lengthlab import LengthlabError
from lengthlab.perms import (
    ALT,
    SYM,
    CycleType,
    OddTypeInAlt,
    Permutation,
    class_size,
    comparison_rows,
    cycle_type,
    exact_sandwich_scan,
    group_order,
)
from lengthlab.perms import _ascending, _census


# ---------------------------------------------------------------- oracles


def all_perms(n):
    return [Permutation(p) for p in iter_perms(range(n))]


class NegativeSize(LengthlabError, ValueError):
    pass


def partitions(n):
    """All partitions of n as ascending part lists: the flat view of the
    accelAsc walk that comparison_rows reads in place."""
    if n <= 0:
        if n:
            raise NegativeSize(f"no partitions of a negative size {n}")
        yield []
        return
    for a, _, _, k, x, y in _ascending(n):
        yield a[:k] + [x, y] if y else a[:k] + [x]


def hamming_length(t):
    """Fraction of non-fixed points: 1 - c_1/n."""
    return Fraction(t.n - t.count(1), t.n)


def rank_length_perm(t):
    """1 - (number of cycles)/n, the permutation-matrix rank length."""
    return Fraction(t.n - len(t), t.n)


def cycle_types(n, ambient=SYM):
    """All cycle types of the ambient group on n points."""
    for parts in partitions(n):
        t = CycleType(parts)
        if ambient == ALT and not t.is_even():
            continue
        yield t


def orbit_class_size(p, elements):
    """|{xpx^-1 : x in elements}| by direct enumeration."""
    orbit = set()
    for x in elements:
        orbit.add((x * p * x.inverse()).images)
    return len(orbit)


class CycleTypeReference:
    """The dict-based cycle type: counts maps cycle length i to its
    multiplicity c_i, sum(i * c_i) = n."""

    __slots__ = ("n", "counts")

    def __init__(self, n, counts):
        counts = {i: c for i, c in counts.items() if c}
        if any(i < 1 or c < 0 for i, c in counts.items()):
            raise ValueError("invalid cycle type")
        if sum(i * c for i, c in counts.items()) != n:
            raise ValueError("cycle lengths must sum to n")
        self.n = n
        self.counts = counts

    @classmethod
    def from_parts(cls, parts):
        counts = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        return cls(sum(parts), counts)

    def parts(self):
        out = []
        for i in sorted(self.counts):
            out.extend([i] * self.counts[i])
        return out

    def is_even(self):
        return sum((i - 1) * c for i, c in self.counts.items()) % 2 == 0

    def __eq__(self, other):
        return (isinstance(other, CycleTypeReference) and self.n == other.n
                and self.counts == other.counts)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.counts.items()))))


def cycle_type_reference(p):
    counts = {}
    for cyc in p.cycles():
        counts[len(cyc)] = counts.get(len(cyc), 0) + 1
    return CycleTypeReference(p.n, counts)


def class_size_reference(t, ambient=SYM):
    """n! / prod i^c_i c_i!, halved in Alt when the lengths are odd and
    distinct; OddTypeInAlt for an odd type in Alt."""
    denom = 1
    for i, c in t.counts.items():
        denom *= i**c * math.factorial(c)
    size = math.factorial(t.n) // denom
    if ambient == SYM:
        return size
    if not t.is_even():
        raise OddTypeInAlt(f"odd cycle type {t!r} in Alt")
    splits = all(i % 2 and c == 1 for i, c in t.counts.items())
    return size // 2 if splits else size


# ------------------------------------------------------------ cycle types


def test_cycle_type_identity():
    assert cycle_type(Permutation(range(4))) == (1, 1, 1, 1)


def test_cycle_type_mixed():
    # the 3-cycle comes first in cycles(); the type is ascending
    p = Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
    assert cycle_type(p) == (2, 3)


def test_cycle_type_ncycle():
    p = Permutation.from_cycles(7, [list(range(7))])
    assert cycle_type(p) == (7,)


def assert_matches_reference(pairs):
    """pairs: (CycleType, CycleTypeReference) of the same multiset."""
    for t, ref in pairs:
        assert type(t) is CycleType
        assert t.parts() == list(t) == ref.parts() and t.n == ref.n
        assert t.is_even() == ref.is_even()
        assert class_size(t, SYM) == class_size_reference(ref, SYM)
        if ref.is_even():
            assert class_size(t, ALT) == class_size_reference(ref, ALT)
        else:
            with pytest.raises(OddTypeInAlt):
                class_size(t, ALT)
            with pytest.raises(OddTypeInAlt):
                class_size_reference(ref, ALT)
    # equality and hashing group the pairs into the same classes
    new, old = {}, {}
    for pos, (t, ref) in enumerate(pairs):
        new.setdefault(t, []).append(pos)
        old.setdefault(ref, []).append(pos)
    assert list(new.values()) == list(old.values())


def test_cycle_type_matches_reference_on_partitions():
    every = [parts for n in range(15) for parts in partitions(n)]
    assert len(every) == sum(pentagonal_partition_counts(14))
    # each partition ascending and descending: the constructor sorts
    pairs = [(CycleType(order), CycleTypeReference.from_parts(parts))
             for parts in every for order in (parts, parts[::-1])]
    assert_matches_reference(pairs)


def test_cycle_type_matches_reference_on_permutations():
    pairs = [(cycle_type(p), cycle_type_reference(p))
             for n in range(1, 7) for p in all_perms(n)]
    assert_matches_reference(pairs)
    assert all(p.is_even() == cycle_type_reference(p).is_even()
               for n in range(1, 7) for p in all_perms(n))


@pytest.mark.parametrize("parts", [
    [1.5, 2.5], [2.0, 1], [True, 1], [False], [0], [3, -1], ["2"], [None],
    [Fraction(2)], [1, "a"]])
def test_cycle_type_rejects_non_int_parts(parts):
    with pytest.raises(ValueError, match="positive ints"):
        CycleType(parts)


def test_cycle_type_is_a_bare_tuple():
    t = CycleType([3, 1, 2, 1])
    assert t == (1, 1, 2, 3) and t.n == 7 and isinstance(t, tuple)
    assert repr(t) == "CycleType((1, 1, 2, 3))"
    assert not hasattr(t, "__dict__")
    assert sys.getsizeof(t) == sys.getsizeof((1, 1, 2, 3))
    assert CycleType() == () and CycleType().n == 0


def test_partitions_count():
    # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, e in enumerate(expected):
        assert sum(1 for _ in partitions(n)) == e


def ascending_partitions(n, least=1):
    """Partitions of n into parts >= least, ascending, in lexicographic
    order: the first part, then the rest, by recursion."""
    if n == 0:
        yield []
    for p in range(least, n + 1):
        for rest in ascending_partitions(n - p, p):
            yield [p, *rest]


def test_partitions_are_partitions():
    for parts in partitions(9):
        assert sum(parts) == 9
        assert list(parts) == sorted(parts)
    # old_comparison_rows reads partitions, which comparison_rows' walk
    # now serves too, so the order gets its own oracle here
    for n in range(1, 19):
        assert list(partitions(n)) == list(ascending_partitions(n))


def test_partitions_yield_fresh_lists():
    kept = list(partitions(7))
    assert len({tuple(p) for p in kept}) == len(kept) == 15


def test_negative_sizes_raise():
    assert issubclass(NegativeSize, LengthlabError)
    assert issubclass(NegativeSize, ValueError)
    with pytest.raises(NegativeSize):
        list(partitions(-1))
    with pytest.raises(NegativeSize):
        list(cycle_types(-3, ALT))
    assert list(partitions(0)) == [[]]


# ---------------------------------------------------------------- lengths


def test_hamming_trivial_cases():
    assert hamming_length(CycleType([1, 1, 1, 1])) == 0
    assert hamming_length(CycleType([2, 1, 1])) == Fraction(1, 2)
    assert hamming_length(CycleType([6])) == 1


def test_rank_length_trivial_cases():
    assert rank_length_perm(CycleType([1] * 5)) == 0
    assert rank_length_perm(CycleType([2, 1, 1])) == Fraction(1, 4)
    assert rank_length_perm(CycleType([6])) == Fraction(5, 6)


def test_class_size_trivial_and_derived():
    # Frozen from orbit enumeration in S4: the 6 transpositions.
    assert class_size(CycleType([2, 1, 1])) == 6
    assert class_size(CycleType([1, 1, 1, 1])) == 1
    # Frozen from orbit enumeration in A5: 5-cycles split, 24 -> 12.
    assert class_size(CycleType([5]), ALT) == 12


def test_class_size_odd_type_in_alt_raises():
    with pytest.raises(OddTypeInAlt):
        class_size(CycleType([2, 1, 1]), ALT)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(class_size(t) for t in cycle_types(n)) == math.factorial(n)
    for n in range(2, 9):
        total = 0
        for t in cycle_types(n, ALT):
            # split types form two A_n-classes of the returned size
            splits = class_size(t, ALT) != class_size(t, SYM)
            total += class_size(t, ALT) * (2 if splits else 1)
        assert total == group_order(n, ALT)


@pytest.mark.parametrize("n", range(2, 8))
def test_class_size_matches_orbit_enumeration_sym(n):
    elements = all_perms(n)
    seen = {}
    for p in elements:
        t = cycle_type(p)
        if t not in seen:
            seen[t] = orbit_class_size(p, elements)
    for t, orbit in seen.items():
        assert class_size(t, SYM) == orbit


@pytest.mark.parametrize("n", range(3, 8))
def test_class_size_matches_orbit_enumeration_alt(n):
    elements = [p for p in all_perms(n) if p.is_even()]
    # A_n-classes of a type can split in two; orbit size from one
    # representative is then half the formula for Sym, which is what
    # class_size(t, ALT) returns for split types.
    seen = {}
    for p in elements:
        t = cycle_type(p)
        if t not in seen:
            seen[t] = orbit_class_size(p, elements)
    for t, orbit in seen.items():
        assert class_size(t, ALT) == orbit


def test_conj_length_values():
    assert conj_length_perm(CycleType([1, 1, 1, 1])) == 0.0
    t = CycleType([2, 1, 1])
    assert conj_length_perm(t) == pytest.approx(math.log(6) / math.log(24))
    t5 = CycleType([5])
    assert conj_length_perm(t5, ALT) == pytest.approx(math.log(12) / math.log(60))


def test_conj_length_of_powers_never_increases():
    # centralizer containment: l_c(g^k) <= l_c(g), checked in S_n, n <= 7
    for n in range(2, 8):
        for p in all_perms(n):
            lc = conj_length_perm(cycle_type(p))
            q = p
            for _ in range(n):
                q = q * p
                assert conj_length_perm(cycle_type(q)) <= lc + 1e-12


# ------------------------------------------------- length function axioms


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_length_axioms_random_pairs(data):
    n = data.draw(st.integers(2, 10))
    g = Permutation(data.draw(st.permutations(list(range(n)))))
    h = Permutation(data.draw(st.permutations(list(range(n)))))
    for fn in (hamming_length, rank_length_perm):
        lg = fn(cycle_type(g))
        assert (lg == 0) == (g == Permutation(range(n)))
        assert fn(cycle_type(g.inverse())) == lg
        assert fn(cycle_type(g * h)) <= lg + fn(cycle_type(h))
        assert fn(cycle_type(h * g * h.inverse())) == lg


# ------------------------------------------------------------- the bounds


def test_exact_sandwich_small():
    for _, _, lh, lr, _, flag_exact, _ in comparison_rows(1, 25):
        assert lr <= lh <= 2 * lr
        assert not flag_exact


def test_exact_sandwich_scan_runs_clean():
    assert exact_sandwich_scan(40) == 0


def pentagonal_partition_counts(n_max):
    """p(0..n_max) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    p[n] += sign * p[n - g]
            k += 1
    return p


def test_census_matches_enumeration():
    census = _census(25)
    for n in range(26):
        cells = Counter((parts.count(1), len(parts)) for parts in partitions(n))
        assert census[n] == cells, n


def test_census_sums_to_partition_counts():
    p = pentagonal_partition_counts(60)
    assert p[60] == 966467
    assert [sum(cells.values()) for cells in _census(60)] == p


def conj_length_perm(t, ambient=SYM):
    """log|C(g)| / log|G| with exact class sizes, float logs."""
    size = class_size(t, ambient)
    order = group_order(t.n, ambient)
    if order == 1 or size == 1:
        return 0.0
    return math.log(size) / math.log(order)


def old_comparison_rows(n_min, n_max, ambient):
    """comparison_rows as first written: one dict-based cycle type,
    Fraction lengths and class_size per type."""
    for n in range(n_min, n_max + 1):
        order = group_order(n, ambient)
        for parts in partitions(n):
            t = CycleTypeReference.from_parts(parts)
            if ambient == ALT and not t.is_even():
                continue
            lh = Fraction(n - t.counts.get(1, 0), n)
            lr = Fraction(n - sum(t.counts.values()), n)
            size = class_size_reference(t, ambient)
            lc = 0.0 if order == 1 or size == 1 else (
                math.log(size) / math.log(order))
            flag_exact = not (lr <= lh <= 2 * lr)
            flag_asym = False
            if n >= 17:
                flag_asym = (lc > 2 * float(lh) + 1e-12) or (
                    float(lh) > 8 * lc + 1e-12)
            yield n, t, lh, lr, lc, flag_exact, flag_asym


@pytest.mark.parametrize("ambient", [SYM, ALT])
def test_comparison_rows_match_reference(ambient):
    rows = list(comparison_rows(1, 26, ambient))
    ref = list(old_comparison_rows(1, 26, ambient))
    assert len(rows) == len(ref)
    for row, old in zip(rows, ref):
        assert row[:1] + row[2:4] + row[5:] == old[:1] + old[2:4] + old[5:]
        assert type(row[1]) is CycleType
        assert row[1].parts() == old[1].parts() and row[1].n == old[1].n
        # a bare tuple of the parts: no dict, no per-row overhead
        assert not hasattr(row[1], "__dict__")
        assert sys.getsizeof(row[1]) == sys.getsizeof(tuple(row[1]))
        assert repr(row[4]) == repr(old[4])  # same float bits
        assert type(row[5]) is type(row[6]) is bool


def test_comparison_rows_n4_count():
    rows = list(comparison_rows(4, 4))
    assert len(rows) == 5
    assert not any(r[5] for r in rows)


def test_ncycle_row():
    for n in (5, 12, 31):
        t = CycleType([n])
        assert hamming_length(t) == 1
        assert rank_length_perm(t) == Fraction(n - 1, n)
        assert hamming_length(t) / rank_length_perm(t) <= 2


def test_asymptotic_flags_17_to_24():
    for _, _, _, _, _, _, flag_asym in comparison_rows(17, 24):
        assert not flag_asym

