"""Tests for strong cycle colorings and the permutation partition."""

import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from lengthlab import InvariantFailed
from lengthlab.coloring import (
    DEFAULT_BUDGET,
    NOISE,
    RESTART_NODES,
    TABU,
    SearchExhausted,
    check_partition_vectors,
    check_strong_coloring,
    partition_permutation,
    strong_color_cycle,
)
from lengthlab.perms import Permutation


def strong_color_cycle_reference(n, blocks, s=3, budget=DEFAULT_BUDGET):
    """strong_color_cycle as two references: up to n = 60 the backtracker,
    written with closures, and beyond it the repair search, with a tuple
    of neighbors and a tuple of mates per vertex.  Each makes the same
    moves and random draws as the library, so the same coloring."""
    m = sum(len(b) for b in blocks)
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

    rng = random.Random(n * 1_000_003 + len(blocks))
    if n > 60:
        mates = [tuple(x for x in blocks[block_of[v]] if x != v)
                 for v in range(m)]
        return _min_conflicts_reference(n, m, s, mates, rng, budget)
    full = (1 << s) - 1
    popcount = [bin(x).count("1") for x in range(1 << s)]
    nodes = 0
    while True:
        colors = _attempt_reference(
            n, m, s, blocks, block_of, neighbors, rng, full, popcount,
            min(RESTART_NODES, budget - nodes),
        )
        if isinstance(colors, list):
            return colors
        if colors is None:
            raise SearchExhausted(f"no strong {s}-coloring exists at n={n}")
        nodes += colors
        if nodes >= budget:
            raise SearchExhausted(f"budget {budget} exhausted at n={n}")


def _attempt_reference(n, m, s, blocks, block_of, neighbors, rng, full,
                       popcount, cap):
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

    base_trail = []
    for c, v in enumerate(sorted(blocks[0])):
        if not assign(v, c, base_trail):
            return None

    nodes = 0
    stack = []  # (vertex, tried colors list, next index, trail)

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
            return color
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
                    break
                undo(trail, 0)
            else:
                stack.pop()
                if not stack:
                    return None
                undo(stack[-1][3], 0)


def _min_conflicts_reference(n, m, s, mates, rng, budget):
    """The repair search that serves n > 60, over mates[v], the
    block-mates of v in block order."""
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
            del color[m]  # the sentinel
            return color
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


def triple_partitions(items):
    """All ways to split items into unordered triples."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    rest = items[1:]
    for pair in itertools.combinations(rest, 2):
        block = [first, *pair]
        remaining = [x for x in rest if x not in pair]
        for tail in triple_partitions(remaining):
            yield [block, *tail]


def test_n3_single_block():
    colors = strong_color_cycle(3, [[0, 1, 2]])
    assert sorted(colors) == [0, 1, 2]


def test_arithmetic_blocks_n9():
    blocks = [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
    colors = strong_color_cycle(9, blocks)
    check_strong_coloring(9, blocks, 3, colors)


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_exhaustive_all_triple_partitions(n):
    for blocks in triple_partitions(range(n)):
        colors = strong_color_cycle(n, blocks)
        check_strong_coloring(n, blocks, 3, colors)
        assert colors == strong_color_cycle_reference(n, blocks)


def _padded_draw(rng, s, n_min, n_max):
    """A cycle of random length with random s-blocks over it and up to
    two blocks' worth of isolated padding vertices."""
    n = rng.randint(n_min, n_max)
    m = n + (-n) % s + s * rng.randint(0, 2)
    verts = list(range(m))
    rng.shuffle(verts)
    return n, [verts[i:i + s] for i in range(0, m, s)]


def _same_as_reference(n, blocks, s, budget=200_000):
    results = []
    for search in (strong_color_cycle, strong_color_cycle_reference):
        try:
            results.append(search(n, blocks, s, budget=budget))
        except SearchExhausted as exc:
            results.append(str(exc))
    assert results[0] == results[1], (n, blocks)


@pytest.mark.parametrize("s", [3, 4, 9])
def test_backtracker_matches_reference(s):
    # same coloring, or the same exception, as the closure-based oracle
    rng = random.Random(s)
    for _ in range(150):
        _same_as_reference(*_padded_draw(rng, s, 1, 60), s)
    if s == 3:  # every triple partition of m <= 9 vertices, every n <= m
        for m in (3, 6, 9):
            for blocks in triple_partitions(range(m)):
                for n in range(1, m + 1):
                    _same_as_reference(n, blocks, s)


@pytest.mark.parametrize("s", [3, 4, 5])
def test_repair_search_matches_reference(s):
    # n > 60: the same coloring, or the same exception, as the repair
    # search with per-vertex tuples; a budget of n/8 steps runs out on
    # half the s = 3 draws, so both outcomes are compared
    rng = random.Random(61 * s)
    for _ in range(20):
        n, blocks = _padded_draw(rng, s, 61, 3000)
        _same_as_reference(n, blocks, s, rng.choice((n // 8, 200_000)))


def test_backtracker_budget_exhausted():
    # n <= 60: the restarts stop once their nodes reach the budget
    blocks = [list(range(i, 30, 10)) for i in range(10)]
    with pytest.raises(SearchExhausted, match="^budget 1 exhausted at n=30$"):
        strong_color_cycle(30, blocks, budget=1)


def test_padding_vertices():
    # n = 4 not divisible by 3: pad with isolated vertices 4, 5
    blocks = [[0, 1, 4], [2, 3, 5]]
    colors = strong_color_cycle(4, blocks)
    check_strong_coloring(4, blocks, 3, colors)


def test_unsatisfiable_padding_instance():
    # in C_4 both 1 and 3 neighbor both 0 and 2, forcing them to share
    # the third color inside one block: no strong coloring exists
    from lengthlab.coloring import SearchExhausted

    with pytest.raises(SearchExhausted):
        strong_color_cycle(4, [[0, 2, 4], [1, 3, 5]])


def test_bad_blocks_rejected():
    for n, blocks in [
            (6, [[0, 1, 2], [3, 4, 4]]),
            (6, [[0, 1, 2]]),  # m < n
            (7, [[0, 1, 2], [3, 4, 5]]),  # m < n
            (1, []),
            (6, [[0, 1, 2], [3, 4, 5.0]]),  # not an int
            (6, [[0, 1, 2], [3, 4, "5"]]),
            (6, [[0, 1, 2], [3, 4, -1]]),
            (6, [[0, 1, 2], [3, 4, 6]]),  # >= m
            (6, [[0, 1, 2], [3, 4, 2]]),  # repeated across blocks
            (6, [[0, 1, 2], [3, 4]]),
            (6, [[0, 1, 2], [3, 4, 5, 6]])]:
        with pytest.raises(ValueError, match="blocks must partition"):
            strong_color_cycle(n, blocks)
    for s in (2, 4, 2**64):
        with pytest.raises(ValueError):
            strong_color_cycle(6, [[0, 1, 2], [3, 4, 5]], s=s)


def _padded_coloring(cycle_colors, s=3):
    """Each cycle vertex in a block with s - 1 padding vertices that take
    the other colors, so every block is rainbow."""
    n = len(cycle_colors)
    blocks, color = [], {}
    for v, c in enumerate(cycle_colors):
        pad = list(range(n + (s - 1) * v, n + (s - 1) * (v + 1)))
        blocks.append([v, *pad])
        color[v] = c
        color.update(zip(pad, (x for x in range(s) if x != c)))
    return n, blocks, color


@pytest.mark.parametrize("cycle_colors", [
    (0,), (0, 1), (1, 0), (0, 1, 2), (0, 1, 0, 1), (0, 1, 2, 1, 2)])
def test_verifier_accepts(cycle_colors):
    n, blocks, color = _padded_coloring(cycle_colors)
    check_strong_coloring(n, blocks, 3, color)


@pytest.mark.parametrize("cycle_colors, edge", [
    ((0, 1, 1, 2, 1), (1, 2)),  # in the middle
    ((0, 0, 1, 2, 1), (0, 1)),
    ((0, 1, 2, 1, 0), (4, 0)),  # at the wrap
    ((1, 2, 2), (1, 2)),
    ((1, 2, 1), (2, 0)),
    ((1, 1), (0, 1)),  # C_2 has one edge
])
def test_verifier_rejects_monochromatic_edge(cycle_colors, edge):
    n, blocks, color = _padded_coloring(cycle_colors)
    with pytest.raises(InvariantFailed, match=f"^cycle edge "
                       f"{re.escape(str(edge))} is monochromatic$"):
        check_strong_coloring(n, blocks, 3, color)


def test_verifier_rejects_bad_blocks():
    def rejects(n, blocks, color, bad):  # naming the bad block
        with pytest.raises(InvariantFailed,
                           match=f"^block {re.escape(str(bad))} is not rainbow$"):
            check_strong_coloring(n, blocks, 3, color)

    n, blocks, color = _padded_coloring((0, 1, 2))
    color[blocks[1][1]] = color[blocks[1][2]]  # not rainbow
    rejects(n, blocks, color, blocks[1])
    n, blocks, color = _padded_coloring((0, 1, 2))
    blocks[0].append(9)  # four vertices, three colors
    color[9] = 0
    rejects(n, blocks, color, blocks[0])
    del blocks[0][1:]  # one vertex
    rejects(n, blocks, color, blocks[0])


def test_s4_coloring():
    blocks = [[0, 2, 4, 6], [1, 3, 5, 7]]
    colors = strong_color_cycle(8, blocks, s=4)
    check_strong_coloring(8, blocks, 4, colors)


@pytest.mark.parametrize("n", [30, 300, 1500, 3000])
def test_large_random_partitions(n):
    rng = random.Random(n)
    verts = list(range(n))
    rng.shuffle(verts)
    blocks = [verts[i:i + 3] for i in range(0, n, 3)]
    colors = strong_color_cycle(n, blocks)
    check_strong_coloring(n, blocks, 3, colors)


def test_wide_blocks_backtrack_without_a_mask_table():
    # 30 colors: the backtracker counts mask bits without a 2^30 table
    rng = random.Random(30)
    verts = list(range(60))
    rng.shuffle(verts)
    blocks = [verts[:30], verts[30:]]
    check_strong_coloring(60, blocks, 30, strong_color_cycle(60, blocks, 30))


@pytest.mark.parametrize("s", [3, 4, 5])
def test_repair_search_with_padding(s):
    rng = random.Random(100 + s)
    for _ in range(20):
        n, blocks = _padded_draw(rng, s, 61, 600)
        colors = strong_color_cycle(n, blocks, s)
        check_strong_coloring(n, blocks, s, colors)
        assert len(colors) == s * len(blocks)
        assert strong_color_cycle(n, blocks, s) == colors  # seeded


def test_repair_budget_counts_steps():
    rng = random.Random(0)
    verts = list(range(300))
    rng.shuffle(verts)
    blocks = [verts[i:i + 3] for i in range(0, 300, 3)]
    with pytest.raises(SearchExhausted, match="budget 1 exhausted at n=300"):
        strong_color_cycle(300, blocks, budget=1)


def test_repair_search_sweep():
    # the repair needs about a quarter step per vertex (at most half in
    # 1500 seeded draws), so a budget of 2n steps has a wide margin
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(300):
        n = 3 * rng.randint(21, 1000)
        verts = list(range(n))
        rng.shuffle(verts)
        blocks = [verts[i:i + 3] for i in range(0, n, 3)]
        colors = strong_color_cycle(n, blocks, budget=2 * n)
        check_strong_coloring(n, blocks, 3, colors)
    assert time.perf_counter() - start < 10


def test_partition_identity_n9():
    vectors = partition_permutation(Permutation(tuple(range(9))))
    flat = sorted(v for vec in vectors for v in vec)
    assert flat == list(range(1, 10))


def test_partition_reversal_n12():
    sigma = Permutation(tuple(range(11, -1, -1)))
    vectors = partition_permutation(sigma)
    for i, vec in enumerate(vectors):
        check_partition_vectors(sigma, 3, i, vec)


def test_partition_n3_vacuous():
    vectors = partition_permutation(Permutation((0, 1, 2)))
    assert sorted(len(v) for v in vectors) == [1, 1, 1]
    assert sorted(v[0] for v in vectors) == [1, 2, 3]


# bad output vectors for the identity on 9 points, each with the message
# check_partition_vectors rejects it with at i = 0
PLANTED_VECTORS = [
    ([None, 4, 7], "vector 0 has an empty slot"),
    ([3, 4, 7], "vector 0 has entries 3 and 4 differing by 1"),
    ([1, 5, 9], "vector 0 has entries 1 and 9 differing by 8"),  # n - 1
    ([1, 7, 4], "entry 4 = sigma(4) at slot 3 of vector 0: |9 - 4| > 2"),
]


@pytest.mark.parametrize("with_inverse", [False, True])
def test_partition_verifier_stays_strict(with_inverse):
    # identity on 9 points: slot j holds a value within 2 of 3j
    sigma = Permutation(tuple(range(9)))
    inv = sigma.inverse() if with_inverse else None
    for vec in ([1, 4, 7], [2, 6, 9], [3, 5, 8]):
        check_partition_vectors(sigma, 3, 0, vec, inv)
    for vec, message in PLANTED_VECTORS:
        with pytest.raises(InvariantFailed, match=f"^{re.escape(message)}$"):
            check_partition_vectors(sigma, 3, 0, vec, inv)


def test_partition_rejects_bad_n():
    with pytest.raises(ValueError):
        partition_permutation(Permutation((0, 1, 2, 3)))


@pytest.mark.parametrize("n", [9, 30, 99, 600])
def test_partition_random_permutations(n):
    rng = random.Random(17 * n)
    for _ in range(5):
        imgs = list(range(n))
        rng.shuffle(imgs)
        sigma = Permutation(tuple(imgs))
        vectors = partition_permutation(sigma)
        # re-verify independently of the internal checks
        inv = sigma.inverse()
        seen = set()
        for vec in vectors:
            assert len(vec) == n // 3
            for j, a in enumerate(vec, start=1):
                seen.add(a)
                k = inv.images[a - 1] + 1
                assert abs(3 * j - k) <= 2
            for a, b in itertools.combinations(vec, 2):
                assert abs(a - b) not in (1, n - 1)
        assert seen == set(range(1, n + 1))


def test_verifiers_reject_under_python_O():
    # python -O strips asserts: both verifiers still reject planted faults,
    # with the same messages as without it
    script = textwrap.dedent("""
        from lengthlab import InvariantFailed
        from lengthlab.coloring import (check_partition_vectors,
                                        check_strong_coloring)
        from lengthlab.perms import Permutation

        def rejects(check, *args):
            try:
                check(*args)
            except InvariantFailed as exc:
                return str(exc)
            return "accepted"

        assert False, "asserts are on"
        print(rejects(check_strong_coloring, 3, [[0, 1, 2]], 3,
                      {0: 0, 1: 1, 2: 1}))  # not rainbow
        print(rejects(check_strong_coloring, 6, [[0, 1, 2], [3, 4, 5]], 3,
                      dict(enumerate((0, 1, 2, 2, 0, 1)))))  # edge (2, 3)
        for vec in %r:
            print(rejects(check_partition_vectors, Permutation(range(9)), 3,
                          0, vec))
    """) % [vec for vec, _ in PLANTED_VECTORS]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "block [0, 1, 2] is not rainbow", "cycle edge (2, 3) is monochromatic",
        *(message for _, message in PLANTED_VECTORS)]
