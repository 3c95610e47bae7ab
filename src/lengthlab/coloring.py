"""Strong 3-colorings of cycles and the ordered-set partition built on them.

A strong s-coloring of the cycle C_n with a prescribed partition of the
vertices into blocks of size s assigns each vertex one of s colors so
that adjacent vertices differ and every block sees each color exactly
once.  For s = 3 (cycle plus triangles) one always exists (Fleischner
and Stiebitz, Discrete Math. 101, 1992), but the proof builds none.  Up
to n = 60 a most-constrained-first backtracker with forward checking and
random restarts decides each instance; beyond, a repair search keeps
every block rainbow and swaps colors inside blocks until no cycle edge
is monochromatic (min-conflicts, Minton et al., Artificial Intelligence
58, 1992).  Every result passes check_strong_coloring; an exhausted
budget raises SearchExhausted, which is treated as a bug signal.
"""

from __future__ import annotations

import random

from . import InvariantFailed, LengthlabError, OutOfRange


class SearchExhausted(LengthlabError):
    """Raised when the search budget runs out (should not happen)."""


DEFAULT_BUDGET = 10**7
RESTART_NODES = 50_000
# repair search: the chance of a random swap when none lowers the
# conflict count, and the steps a swapped vertex is left alone
NOISE = 0.1
TABU = 8


def strong_color_cycle(n, blocks, s=3, budget=DEFAULT_BUDGET):
    """Strongly s-color the cycle on vertices 0..n-1 with the given blocks.

    blocks: disjoint lists covering 0..m-1 for some m >= n, each of size s.
    Vertices >= n are isolated padding and carry no adjacency constraint.
    Returns a dict vertex -> color in range(s).
    """
    if s < 3:
        raise ValueError("need s >= 3")
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    try:  # one pass: each vertex's block-mates, set once
        m = sum(map(len, blocks))
        mates = [None] * m
        for b in blocks:
            if len(b) != s:
                raise ValueError
            for i, v in enumerate(b):
                if v < 0 or mates[v] is not None:
                    raise ValueError
                mates[v] = (*b[:i], *b[i + 1:])
    except (TypeError, IndexError, ValueError):  # v >= m or not an int
        mates = None
    if mates is None or m < n:
        raise ValueError("blocks must partition 0..m-1 into s-sets, m >= n")

    # deterministic seed: restarts reshuffle value order only
    rng = random.Random(n * 1_000_003 + len(blocks))

    if n > 60:  # large loose instances: the repair converges far faster
        colors = _min_conflicts(n, m, s, mates, rng, budget)
    else:
        # cycle neighbors, then block-mates; at n <= 2 a neighbor repeats
        # or is v, which _attempt skips as already pruned or colored
        adj = [((v - 1) % n, (v + 1) % n, *mates[v]) for v in range(n)]
        adj += mates[n:]
        nodes = 0
        while not isinstance(colors := _attempt(
                m, s, adj, sorted(blocks[0]), rng,
                min(RESTART_NODES, budget - nodes)), dict):
            if colors is None:
                raise SearchExhausted(
                    f"no strong {s}-coloring exists at n={n}")
            nodes += colors
            if nodes >= budget:
                raise SearchExhausted(f"budget {budget} exhausted at n={n}")
    check_strong_coloring(n, blocks, s, colors)
    return colors


def _min_conflicts(n, m, s, mates, rng, budget):
    """Repair search: keep every block rainbow, swap colors inside blocks
    until no cycle edge is monochromatic."""
    # padding vertices neighbor the sentinel m, which stays uncolored
    nbrs = [((v - 1) % n, (v + 1) % n) for v in range(n)]
    nbrs += [(m, m)] * (m - n)
    color = [-1] * (m + 1)
    bit = [1 << c for c in range(s)] + [0]  # bit[-1] == 0: uncolored
    for v in range(m):  # greedy start in cycle order, blocks stay rainbow
        p, q = nbrs[v]
        taken = bit[color[p]] | bit[color[q]]
        free = (1 << s) - 1
        for u in mates[v]:
            free &= ~bit[color[u]]
        if free & ~taken:
            free &= ~taken
        else:  # forced: hand a free color to a block-mate that can take it
            low = free & -free
            for u in mates[v]:
                pu, qu = nbrs[u]
                if color[u] >= 0 and not (bit[color[u]] & taken or (
                        bit[color[pu]] | bit[color[qu]]) & low):
                    free, color[u] = bit[color[u]], low.bit_length() - 1
                    break
        color[v] = (free & -free).bit_length() - 1

    conflicted, pos = [], [-1] * m  # swap-remove list, pos[v] index or -1
    free_at = [0] * m  # tabu: a swapped vertex stays put until this step
    rand = rng.random
    steps, touched = 0, range(n)
    while True:
        for x in touched:
            if x < n:
                p, q = nbrs[x]
                if color[x] == color[p] or color[x] == color[q]:
                    if pos[x] < 0:
                        pos[x] = len(conflicted)
                        conflicted.append(x)
                elif pos[x] >= 0:
                    i, last = pos[x], conflicted[-1]
                    conflicted[i], pos[last], pos[x] = last, i, -1
                    conflicted.pop()
        if not conflicted:
            return dict(enumerate(color[:m]))
        steps += 1
        if steps > budget:
            raise SearchExhausted(f"budget {budget} exhausted at n={n}")
        # for a monochromatic edge, the swap of either end with one of its
        # block-mates that removes the most such edges, ties at random
        v = conflicted[int(rand() * len(conflicted))]
        c, (p, q) = color[v], nbrs[v]
        ends = (v, q if color[q] == c else p)
        best, best_delta = None, 9
        for a in ends:
            pa, qa = nbrs[a]
            for b in mates[a]:
                if free_at[b] <= steps:
                    cb, (pb, qb) = color[b], nbrs[b]
                    delta = ((color[pa] == cb) + (color[qa] == cb)
                             + (color[pb] == c) + (color[qb] == c)
                             - (color[pa] == c) - (color[qa] == c)
                             - (color[pb] == cb) - (color[qb] == cb)
                             - 2 * (b == pa or b == qa) + rand())
                    if delta < best_delta:
                        best, best_delta = (a, b), delta
        # plateau escape: occasionally take a random swap instead
        if best is None or (best_delta >= 0 and rand() < NOISE):
            a = ends[rand() < 0.5]
            best = (a, mates[a][int(rand() * (s - 1))])
        a, b = best
        color[a], color[b] = color[b], color[a]
        free_at[a] = free_at[b] = steps + TABU
        touched = (a, b, *nbrs[a], *nbrs[b])


def _attempt(m, s, adj, pinned, rng, cap):
    """One restart: MRV backtracking over adj[v], the cycle neighbors and
    then the block-mates of v.  Returns dict on success, None when the
    tree is exhausted, the node count when the slice of cap runs out."""
    color = [-1] * m  # read only at the end: allowed marks colored as 0
    allowed = [(1 << s) - 1] * m
    trail = []  # (vertex, old allowed) for undo
    push, pop, shuffle = trail.append, trail.pop, rng.shuffle

    def assign(v, c):
        push((v, allowed[v]))
        color[v] = c
        allowed[v] = 0
        cbit = 1 << c
        for w in adj[v]:  # forward checking on the uncolored neighbors
            a = allowed[w]
            if a & cbit:
                push((w, a))
                allowed[w] = a ^ cbit
                if a == cbit:
                    return False
        return True

    def undo(mark):
        for _ in range(len(trail) - mark):
            w, old = pop()
            allowed[w] = old

    # symmetry breaking: colors are interchangeable, pin the first block
    for c, v in enumerate(pinned):
        if not assign(v, c):
            return None  # pinning is WLOG, so a conflict here means unsat

    nodes = 0
    stack = []  # (vertex, candidate colors, next index, trail mark)
    while True:
        v, fewest = -1, s + 1  # the first uncolored vertex with fewest colors
        for u in range(m):
            if a := allowed[u]:
                k = a.bit_count()
                if k < fewest:
                    v, fewest = u, k
                    if k == 1:
                        break
        if v == -1:
            return dict(enumerate(color))
        a = allowed[v]
        if fewest == 1:
            cand = [a.bit_length() - 1]
        else:  # shuffle draws nothing for a single candidate: skip it there
            cand = [c for c in range(s) if a >> c & 1]
            shuffle(cand)
        stack.append([v, cand, 0, 0])
        while True:
            v, cand, idx, _ = frame = stack[-1]
            nodes += 1
            if nodes > cap:
                return nodes
            if idx < len(cand):
                frame[2] += 1
                frame[3] = mark = len(trail)
                if assign(v, cand[idx]):
                    break  # descend
                undo(mark)
            else:
                stack.pop()
                if not stack:
                    return None  # tree exhausted: no coloring exists
                undo(stack[-1][3])


def check_strong_coloring(n, blocks, s, color):
    """Independent verifier; raises InvariantFailed on a bad coloring."""
    rainbow = set(range(s))
    for b in blocks:
        if not (len(b) == s and {color[v] for v in b} == rainbow):
            raise InvariantFailed(f"block {b} is not rainbow")
    # the cycle edges (v, v+1) and (n-1, 0); C_2 has the one edge (0, 1)
    ring = [color[v] for v in range(n)]
    nxt = ring[1:] + ring[:1] if n > 2 else ring[1:]
    for v, (a, b) in enumerate(zip(ring, nxt)):
        if a == b:
            raise InvariantFailed(
                f"cycle edge {(v, (v + 1) % n)} is monochromatic")


def partition_permutation(sigma, s=3, budget=DEFAULT_BUDGET):
    """Split (sigma(1),...,sigma(n)) into s vectors with spread-out entries.

    sigma is a Permutation of {0..n-1}, read 1-indexed: sigma(k) is
    sigma.images[k-1] + 1.  Requires s | n.  Returns a list of s vectors
    v_i of length n/s such that no two entries of a v_i differ by 1 or
    n-1, and the entry at slot j of any vector is sigma(k) for some k
    with |s*j - k| <= s-1.
    """
    n = len(sigma.images)
    if n % s != 0:
        raise ValueError("n must be divisible by s")
    # vertices of the cycle are the values 1..n (0-indexed: value-1); a
    # block holds the values at s consecutive sigma-positions
    blocks = [sorted(sigma.images[k:k + s]) for k in range(0, n, s)]
    color = strong_color_cycle(n, blocks, s, budget=budget)
    vectors = [[None] * (n // s) for _ in range(s)]
    for k, x in enumerate(sigma.images):
        vectors[color[x]][k // s] = x + 1
    inv = sigma.inverse()
    for i, vec in enumerate(vectors):
        check_partition_vectors(sigma, s, i, vec, inv)
    return vectors


def check_partition_vectors(sigma, s, i, vec, inv=None):
    """Verify one output vector against all three guarantees, raising
    InvariantFailed; inv, if given, is sigma.inverse()."""
    n = len(sigma.images)
    pos = (inv or sigma.inverse()).images
    if None in vec:
        raise InvariantFailed(f"vector {i} has an empty slot")
    # a pair differing by d in either order is an entry a with a + d
    entries = set(vec)
    for d in (1, n - 1):
        clash = entries.intersection([a + d for a in vec])
        if clash:
            b = min(clash)
            raise InvariantFailed(
                f"vector {i} has entries {b - d} and {b} differing by {d}")
    for j, a in enumerate(vec, start=1):
        k = pos[a - 1] + 1
        if abs(s * j - k) > s - 1:
            raise InvariantFailed(f"entry {a} = sigma({k}) at slot {j} of "
                                  f"vector {i}: |{s * j} - {k}| > {s - 1}")
