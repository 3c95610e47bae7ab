"""Tests for length functions on symmetric/alternating groups.

Expected class sizes below were frozen from brute-force conjugation
orbits (see the oracle helpers at the bottom), not from the product
formula under test.
"""

import math
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
    NegativeSize,
    OddTypeInAlt,
    Permutation,
    class_size,
    comparison_rows,
    conj_length_perm,
    cycle_type,
    cycle_types,
    diameter,
    exact_sandwich_scan,
    group_order,
    hamming_length,
    partitions,
    rank_length_perm,
)
from lengthlab.perms import _census


# ---------------------------------------------------------------- oracles


def all_perms(n):
    return [Permutation(p) for p in iter_perms(range(n))]


def orbit_class_size(p, elements):
    """|{xpx^-1 : x in elements}| by direct enumeration."""
    orbit = set()
    for x in elements:
        orbit.add((x * p * x.inverse()).images)
    return len(orbit)


# ------------------------------------------------------------ cycle types


def test_cycle_type_identity():
    assert cycle_type(Permutation.identity(4)).counts == {1: 4}


def test_cycle_type_mixed():
    p = Permutation.from_cycles(5, [[0, 1], [2, 3, 4]])
    assert cycle_type(p).counts == {2: 1, 3: 1}


def test_cycle_type_ncycle():
    p = Permutation.from_cycles(7, [list(range(7))])
    assert cycle_type(p).counts == {7: 1}


def test_partitions_count():
    # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, e in enumerate(expected):
        assert sum(1 for _ in partitions(n)) == e


def test_partitions_are_partitions():
    for parts in partitions(9):
        assert sum(parts) == 9
        assert list(parts) == sorted(parts)


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
    with pytest.raises(NegativeSize):
        diameter(-2)
    assert list(partitions(0)) == [[]]


# ---------------------------------------------------------------- lengths


def test_hamming_trivial_cases():
    assert hamming_length(CycleType.from_parts([1, 1, 1, 1])) == 0
    assert hamming_length(CycleType.from_parts([2, 1, 1])) == Fraction(1, 2)
    assert hamming_length(CycleType.from_parts([6])) == 1


def test_rank_length_trivial_cases():
    assert rank_length_perm(CycleType.from_parts([1] * 5)) == 0
    assert rank_length_perm(CycleType.from_parts([2, 1, 1])) == Fraction(1, 4)
    assert rank_length_perm(CycleType.from_parts([6])) == Fraction(5, 6)


def test_class_size_trivial_and_derived():
    # Frozen from orbit enumeration in S4: the 6 transpositions.
    assert class_size(CycleType.from_parts([2, 1, 1])) == 6
    assert class_size(CycleType.from_parts([1, 1, 1, 1])) == 1
    # Frozen from orbit enumeration in A5: 5-cycles split, 24 -> 12.
    assert class_size(CycleType.from_parts([5]), ALT) == 12


def test_class_size_odd_type_in_alt_raises():
    with pytest.raises(OddTypeInAlt):
        class_size(CycleType.from_parts([2, 1, 1]), ALT)


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
    assert conj_length_perm(CycleType.from_parts([1, 1, 1, 1])) == 0.0
    t = CycleType.from_parts([2, 1, 1])
    assert conj_length_perm(t) == pytest.approx(math.log(6) / math.log(24))
    t5 = CycleType.from_parts([5])
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
        assert (lg == 0) == (g == Permutation.identity(n))
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


def old_comparison_rows(n_min, n_max, ambient):
    """comparison_rows as first written: one CycleType, Fraction lengths
    and class_size per type."""
    for n in range(n_min, n_max + 1):
        for parts in partitions(n):
            t = CycleType.from_parts(parts)
            if ambient == ALT and not t.is_even():
                continue
            lh, lr = hamming_length(t), rank_length_perm(t)
            lc = conj_length_perm(t, ambient)
            flag_exact = not (lr <= lh <= 2 * lr)
            flag_asym = False
            if n >= 17:
                flag_asym = (lc > 2 * float(lh) + 1e-12) or (
                    float(lh) > 8 * lc + 1e-12)
            yield n, t, lh, lr, lc, flag_exact, flag_asym


@pytest.mark.parametrize("ambient", [SYM, ALT])
def test_comparison_rows_match_reference(ambient):
    rows = list(comparison_rows(1, 22, ambient))
    ref = list(old_comparison_rows(1, 22, ambient))
    assert len(rows) == len(ref)
    for row, old in zip(rows, ref):
        assert row[:4] + row[5:] == old[:4] + old[5:]
        assert list(row[1].counts.items()) == list(old[1].counts.items())
        assert repr(row[4]) == repr(old[4])  # same float bits
        assert type(row[5]) is type(row[6]) is bool


def test_comparison_rows_n4_count():
    rows = list(comparison_rows(4, 4))
    assert len(rows) == 5
    assert not any(r[5] for r in rows)


def test_ncycle_row():
    for n in (5, 12, 31):
        t = CycleType.from_parts([n])
        assert hamming_length(t) == 1
        assert rank_length_perm(t) == Fraction(n - 1, n)
        assert hamming_length(t) / rank_length_perm(t) <= 2


def test_asymptotic_flags_17_to_24():
    for _, _, _, _, _, _, flag_asym in comparison_rows(17, 24):
        assert not flag_asym


def test_diameter_reports_max():
    assert diameter(6, SYM, "hamming") == 1
    assert diameter(6, SYM, "rank") == Fraction(5, 6)
