"""Reference computations written apart from the library.

The benchmark checks the library's outputs against these, outside the
timed region.  They are brute force on purpose: exhaustive orbits,
solution counting and explicit matrix products, usable only on inputs
small enough to enumerate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ------------------------------------------------------- torus elements

def dist(x) -> Fraction:
    """Distance from x to the nearest even integer (angles in units of pi)."""
    x = Fraction(x) % 2
    return 2 - x if x > 1 else x


def wrap(x) -> Fraction:
    """The angle x reduced to (-1, 1]."""
    x = Fraction(x) % 2
    return x - 2 if x > 1 else x


def distance_sequence(typ, seq):
    """Character distances of one ordered (signed) arrangement of angles."""
    out = [dist(a - b) for a, b in zip(seq, seq[1:])]
    if typ == "B":
        out.append(dist(seq[-1]))
    elif typ == "C":
        out.append(dist(2 * seq[-1]))
    elif typ == "D":
        out.append(dist(seq[-2] + seq[-1]))
    return out


def lam(typ, rank, angles) -> Fraction:
    """Mean character distance of the element as given."""
    return sum(distance_sequence(typ, list(angles)), Fraction(0)) / rank


def _distinct_permutations(items):
    items = sorted(items)

    def rec(rest):
        if not rest:
            yield ()
            return
        prev = None
        for i, x in enumerate(rest):
            if i and x == prev:
                continue
            prev = x
            for tail in rec(rest[:i] + rest[i + 1:]):
                yield (x, *tail)

    return rec(items)


def orbit(typ, angles):
    """Every arrangement in the rearrangement orbit: permutations for
    type A/U, signed permutations for B/C, evenly signed ones for D."""
    angles = [wrap(a) for a in angles]
    for perm in _distinct_permutations(angles):
        if typ in ("A", "U"):
            yield perm
            continue
        for signs in itertools.product((1, -1), repeat=len(perm)):
            if typ == "D" and signs.count(-1) % 2:
                continue
            yield tuple(wrap(s * a) for s, a in zip(signs, perm))


def orbit_size_ok(typ, rank) -> bool:
    """Whether the brute-force orbit is small enough to enumerate."""
    return rank <= 5 if typ in ("A", "U") else rank <= 4


def lambda_tilde(typ, rank, angles) -> Fraction:
    """Maximum of the mean character distance over the orbit."""
    return max(sum(distance_sequence(typ, seq), Fraction(0))
               for seq in orbit(typ, angles)) / rank


def lexmax_profile(typ, angles):
    """Decreasing distances of the orbit member whose distance sequence
    is lexicographically largest."""
    best = max(tuple(distance_sequence(typ, seq))
               for seq in orbit(typ, angles))
    return tuple(sorted(best, reverse=True))


def ell1_at_identity(typ, rank, angles) -> float:
    """The center-free l1 objective at phi = 0, an upper bound of ell1'."""
    spec = list(angles)
    if typ in ("B", "C", "D"):
        spec += [-a for a in angles]
        if typ == "B":
            spec.append(Fraction(0))
    return sum(2 * abs(math.sin(math.pi * float(a) / 2)) for a in spec) \
        / (2 * rank)


def torus_matrix(angles):
    """Diagonal matrix of a type A/U torus element's eigenvalues."""
    return np.diag(np.exp(1j * np.pi * np.array([float(a) for a in angles])))


def quaternion_matrix(q):
    """Unit quaternion w + xi + yj + zk as a 2x2 complex matrix."""
    w, x, y, z = q
    a, b = complex(w, x), complex(y, z)
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def product_error(factors, base, target, remainder=None):
    """max |prod_i c_i base^(eps_i) c_i^-1 - target| over the entries."""
    prod = np.eye(target.shape[0], dtype=complex)
    base_inv = np.linalg.inv(base)
    for c, eps in factors:
        prod = prod @ c @ (base if eps == 1 else base_inv) @ np.linalg.inv(c)
    if remainder is not None:
        prod = prod * complex(remainder)
    return float(np.max(np.abs(prod - target)))


# -------------------------------------------------------- finite fields

def kernel_dim(rows, q) -> int:
    """dim ker(A) over the prime field F_q, by counting all solutions."""
    a = np.array(rows, dtype=np.int64)
    n = a.shape[1]
    vectors = np.array(list(itertools.product(range(q), repeat=n)),
                       dtype=np.int64)
    solutions = int(np.count_nonzero(((vectors @ a.T) % q == 0).all(axis=1)))
    return round(math.log(solutions, q))


def det_mod(rows, q) -> int:
    """Determinant over the prime field F_q by elimination."""
    m = [[x % q for x in r] for r in rows]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % q
        inv = pow(m[c][c], q - 2, q)
        for r in range(c + 1, n):
            f = m[r][c] * inv % q
            m[r] = [(x - f * y) % q for x, y in zip(m[r], m[c])]
    return det % q


# --------------------------------------------------- groups and colorings

def psl2_order(q) -> int:
    return q * (q * q - 1) // math.gcd(2, q - 1)


def partition_count(n) -> int:
    """Number of integer partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def strong_coloring_ok(n, blocks, colors, s=3) -> bool:
    """Every block sees each color once and adjacent vertices of the
    cycle C_n (n >= 3) differ."""
    if any(sorted(colors[v] for v in b) != list(range(s)) for b in blocks):
        return False
    return all(colors[v] != colors[(v + 1) % n] for v in range(n))


def partition_vectors_ok(images, vectors, s=3) -> bool:
    """The split of (sigma(1), ..., sigma(n)) into s spread-out vectors:
    every value once, no two entries of a vector cyclically adjacent, and
    the entry in slot j taken from a position within s-1 of s*j."""
    n = len(images)
    position = {images[k] + 1: k + 1 for k in range(n)}
    if sorted(a for vec in vectors for a in vec) != list(range(1, n + 1)):
        return False
    for vec in vectors:
        entries = set(vec)
        if any(a % n + 1 in entries for a in vec):
            return False
        if any(abs(s * j - position[a]) > s - 1
               for j, a in enumerate(vec, start=1)):
            return False
    return True
