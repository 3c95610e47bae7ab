"""Strong 3-colorings of cycles and the ordered-set partition built on them.

A strong s-coloring of the cycle C_n with a prescribed partition of the
vertices into blocks of size s assigns each vertex one of s colors so
that adjacent vertices differ and every block sees each color exactly
once.  For s >= 3 such a coloring always exists; the search below is a
most-constrained-first backtracker with forward checking and random
restarts, and treats budget exhaustion as a bug signal.
"""

from __future__ import annotations

import random

from . import LengthlabError, OutOfRange


class SearchExhausted(LengthlabError):
    """Raised when the search budget runs out (should not happen)."""


DEFAULT_BUDGET = 10**7
RESTART_NODES = 50_000


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
    m = sum(len(b) for b in blocks)
    seen = sorted(v for b in blocks for v in b)
    if seen != list(range(m)) or any(len(b) != s for b in blocks) or m < n:
        raise ValueError("blocks must partition 0..m-1 into s-sets, m >= n")

    block_of = [0] * m
    for bi, b in enumerate(blocks):
        for v in b:
            block_of[v] = bi

    def neighbors(v):
        if v >= n or n == 1:
            return ()
        if n == 2:
            return (1 - v,)
        return ((v - 1) % n, (v + 1) % n)

    # deterministic seed: restarts reshuffle value order only
    rng = random.Random(n * 1_000_003 + len(blocks))
    full = (1 << s) - 1

    if n > 60:
        # large loose instances: repair search converges far faster than
        # systematic backtracking
        colors = _min_conflicts(n, m, s, blocks, block_of, rng, budget)
        check_strong_coloring(n, blocks, s, colors)
        return colors

    popcount = [bin(x).count("1") for x in range(1 << s)]
    nodes = 0
    while True:
        colors = _attempt(
            n, m, s, blocks, block_of, neighbors, rng, full, popcount,
            min(RESTART_NODES, budget - nodes),
        )
        if isinstance(colors, dict):
            check_strong_coloring(n, blocks, s, colors)
            return colors
        if colors is None:
            raise SearchExhausted(f"no strong {s}-coloring exists at n={n}")
        nodes += colors
        if nodes >= budget:
            raise SearchExhausted(f"budget {budget} exhausted at n={n}")


def _min_conflicts(n, m, s, blocks, block_of, rng, budget):
    """Repair search: keep every block rainbow, swap colors inside blocks
    until no cycle edge is monochromatic."""
    color = [-1] * m
    used = [0] * len(blocks)
    for v in range(m):  # greedy init in cycle order, blocks stay rainbow
        bi = block_of[v]
        free = [c for c in range(s) if not (used[bi] >> c) & 1]
        prev = color[v - 1] if 0 < v < n else -1
        pick = [c for c in free if c != prev] or free
        c = pick[0]
        color[v] = c
        used[bi] |= 1 << c

    def bad_edges_at(v):
        cnt = 0
        if v < n and n >= 2:
            if color[v] == color[(v + 1) % n]:
                cnt += 1
            if color[v] == color[(v - 1) % n]:
                cnt += 1
        return cnt

    conflicted = {v for v in range(n) if bad_edges_at(v)}
    steps = 0
    while conflicted:
        steps += 1
        if steps > budget:
            raise SearchExhausted(f"budget {budget} exhausted at n={n}")
        v = rng.choice(tuple(conflicted))
        mates = [u for u in blocks[block_of[v]] if u != v]
        best, best_delta = None, None
        rng.shuffle(mates)
        for u in mates:
            before = bad_edges_at(v) + bad_edges_at(u)
            color[v], color[u] = color[u], color[v]
            delta = bad_edges_at(v) + bad_edges_at(u) - before
            color[v], color[u] = color[u], color[v]
            if best_delta is None or delta < best_delta:
                best, best_delta = u, delta
        # plateau escape: occasionally take a random sideways/uphill swap
        if best_delta > 0 or (best_delta == 0 and rng.random() < 0.1):
            best = rng.choice(mates)
        u = best
        color[v], color[u] = color[u], color[v]
        for w in (v, u, (v - 1) % n, (v + 1) % n, (u - 1) % n, (u + 1) % n):
            if w < n:
                if bad_edges_at(w):
                    conflicted.add(w)
                else:
                    conflicted.discard(w)
    return {v: color[v] for v in range(m)}


def _attempt(n, m, s, blocks, block_of, neighbors, rng, full, popcount, cap):
    """One restart: MRV backtracking. Returns dict on success, node count
    on budget-slice exhaustion (caller restarts with fresh value order)."""
    color = [-1] * m
    allowed = [full] * m

    # trail of (vertex, old_allowed, was_assignment) for undo
    def prune(v, c, trail):
        for w in (*neighbors(v), *(x for x in blocks[block_of[v]] if x != v)):
            if color[w] == -1 and (allowed[w] >> c) & 1:
                trail.append((w, allowed[w], False))
                allowed[w] &= ~(1 << c)
                if allowed[w] == 0:
                    return False
        return True

    def assign(v, c, trail):
        trail.append((v, allowed[v], True))
        color[v] = c
        allowed[v] = 1 << c
        return prune(v, c, trail)

    def undo(trail, mark):
        while len(trail) > mark:
            w, old, was_assignment = trail.pop()
            if was_assignment:
                color[w] = -1
            allowed[w] = old

    # symmetry breaking: colors are interchangeable, pin the first block
    base_trail = []
    ok = True
    for c, v in enumerate(sorted(blocks[0])):
        if not assign(v, c, base_trail):
            ok = False
            break
    if not ok:
        return None  # pinning is WLOG, so a conflict here means unsat

    nodes = 0
    stack = []  # (vertex, tried colors list, next index, trail mark)

    def pick():
        best, best_n = -1, s + 1
        for v in range(m):
            if color[v] == -1:
                k = popcount[allowed[v]]
                if k < best_n:
                    best, best_n = v, k
                    if k <= 1:
                        break
        return best

    while True:
        v = pick()
        if v == -1:
            return {u: color[u] for u in range(m)}
        cand = [c for c in range(s) if (allowed[v] >> c) & 1]
        rng.shuffle(cand)
        stack.append([v, cand, 0, None])
        while True:
            frame = stack[-1]
            v, cand, idx, _ = frame
            nodes += 1
            if nodes > cap:
                return nodes
            if idx < len(cand):
                frame[2] += 1
                trail = []
                frame[3] = trail
                if assign(v, cand[idx], trail):
                    break  # descend
                undo(trail, 0)
            else:
                stack.pop()
                if not stack:
                    return None  # tree exhausted: no coloring exists
                undo(stack[-1][3], 0)


def check_strong_coloring(n, blocks, s, color):
    """Independent verifier; raises AssertionError on a bad coloring."""
    for b in blocks:
        assert sorted(color[v] for v in b) == list(range(s)), b
    if n >= 2:
        for v in range(n):
            w = (v + 1) % n
            if n == 2 and v == 1:
                break
            assert color[v] != color[w], (v, w)


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

    # label(value) = index of the block of s consecutive sigma-positions
    # that produced it
    inv = sigma.inverse()
    label = {}
    for value in range(1, n + 1):
        k = inv.images[value - 1] + 1  # position with sigma(k) = value
        label[value] = (k + s - 1) // s

    # vertices of the cycle are the values 1..n (0-indexed: value-1);
    # blocks group equal labels
    blocks = [[] for _ in range(n // s)]
    for value in range(1, n + 1):
        blocks[label[value] - 1].append(value - 1)

    color = strong_color_cycle(n, blocks, s, budget=budget)

    vectors = [[None] * (n // s) for _ in range(s)]
    for value in range(1, n + 1):
        vectors[color[value - 1]][label[value] - 1] = value
    for i, vec in enumerate(vectors):
        check_partition_vectors(sigma, s, i, vec)
    return vectors


def check_partition_vectors(sigma, s, i, vec):
    """Verify one output vector against all three guarantees."""
    n = len(sigma.images)
    inv = sigma.inverse()
    assert all(a is not None for a in vec), i
    entries = set(vec)
    for a in vec:
        for d in (1, n - 1):
            assert a + d not in entries and a - d not in entries, (a, d)
    for j, a in enumerate(vec, start=1):
        k = inv.images[a - 1] + 1
        assert abs(s * j - k) <= s - 1, (a, j, k)
