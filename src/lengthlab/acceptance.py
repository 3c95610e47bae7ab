"""Acceptance suites: one function per headline property of the library.

Each suite takes a seed and returns (ok, detail); run_suite wraps it in a
dict with the name, verdict, detail, elapsed seconds and budget, so both
the test harness and the CLI can print one pass/fail line per suite.
Randomized suites are deterministic given the seed.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from . import OutOfRange, coloring, engine, fqlin, perms, profiles, roots

DEFAULT_SEED = 20260823


# ------------------------------------------------------------ helpers

def _random_torus_element(typ, rank, rng, denom=12):
    n = rank + 1 if typ in ("A", "U") else rank
    angs = [Fraction(rng.randint(-denom, denom), denom) for _ in range(n)]
    if typ == "A":
        angs[-1] = -sum(angs[:-1])
    return roots.TorusElement(typ, rank, tuple(angs))


def _random_invertible(F, n, rng):
    while True:
        m = fqlin.FqMatrix(
            F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def _triple_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for pair in itertools.combinations(rest, 2):
        block = [first, *pair]
        remaining = [x for x in rest if x not in pair]
        for tail in _triple_partitions(remaining):
            yield [block, *tail]


# ------------------------------------------------------------ suites

def suite_sandwich(seed=DEFAULT_SEED):
    """l_r <= l_H <= 2 l_r over all cycle types, n <= 60."""
    v = perms.exact_sandwich_scan(60)
    return v == 0, f"violations={v} over all cycle types n<=60"


def suite_class_sizes(seed=DEFAULT_SEED):
    """class_size formula vs direct orbit enumeration, S_n and A_n, n <= 7."""
    checked, bad = 0, []
    for n in range(2, 8):
        elements = [perms.Permutation(p)
                    for p in itertools.permutations(range(n))]
        even = [(c, c.inverse()) for c in elements if c.is_even()]
        buckets = {}
        for p in elements:
            parts = tuple(perms.cycle_type(p).parts())
            buckets.setdefault(parts, []).append(p)
        for parts, members in buckets.items():
            t = perms.CycleType.from_parts(list(parts))
            checked += 1
            if perms.class_size(t, perms.SYM) != len(members):
                bad.append(("S", n, parts))
            if not t.is_even():
                continue
            # A_n orbit of one representative by explicit conjugation
            rep = members[0]
            orbit = {c * rep * ci for c, ci in even}
            checked += 1
            if perms.class_size(t, perms.ALT) != len(orbit):
                bad.append(("A", n, parts))
            splits = len(orbit) * 2 == len(members)
            if splits != (perms.class_size(t, perms.ALT) * 2 == len(members)):
                bad.append(("A-split", n, parts))
    return not bad, f"classes checked={checked} mismatches={bad}"


def suite_asymptotic_bounds(seed=DEFAULT_SEED):
    """l_c <= 2 l_H and l_H <= 8 l_c on cycle types with 17 <= n <= 40."""
    rows = bad = 0
    for n, t, lh, lr, lc, fe, fa in perms.comparison_rows(17, 40):
        rows += 1
        if fa or fe:
            bad += 1
    return bad == 0, f"rows={rows} flagged={bad}"


def suite_jordan(seed=DEFAULT_SEED):
    """l_J vs l_r: inequality, equality below 1/2, and the min bound."""
    rng = random.Random(seed)
    checked, bad = 0, 0

    def verify(g):
        nonlocal checked, bad
        lr = fqlin.rank_length_mat(g)
        lj, _, _ = fqlin.jordan_length(g)
        checked += 1
        ok = lj <= lr and lj >= min(lr, 1 - lr)
        if lr <= Fraction(1, 2):
            ok = ok and lj == lr
        if not ok:
            bad += 1

    for q in (3, 5, 7):
        F = fqlin.FqField(q)
        for a, b, c, d in itertools.product(range(q), repeat=4):
            g = fqlin.FqMatrix(F, [[a, b], [c, d]])
            if g.is_invertible():
                verify(g)
    for _ in range(10_000):
        q = rng.choice((3, 5, 7))
        n = rng.randint(2, 6)
        verify(_random_invertible(fqlin.FqField(q), n, rng))
    return bad == 0, f"elements checked={checked} violations={bad}"


def suite_geometry(seed=DEFAULT_SEED):
    """extend_to_nondegenerate postconditions on random subspaces."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(1000):
        kind = rng.choice(("symplectic", "hermitian"))
        p = rng.choice((3, 5))
        if kind == "symplectic":
            n = 2 * rng.randint(1, 4)
            space = fqlin.BilinearSpace.symplectic(fqlin.FqField(p), n)
        else:
            n = rng.randint(2, 5 if p == 3 else 4)
            space = fqlin.BilinearSpace.hermitian(fqlin.FqField(p, 2), n)
        F = space.field
        dim = rng.randint(0, n)
        w = fqlin.Subspace(
            F, n, [[rng.randrange(F.q) for _ in range(n)] for _ in range(dim)])
        rad = fqlin.radical(space, w)
        wp, wpp = fqlin.extend_to_nondegenerate(space, w)
        # the library's own checker ran; re-assert the headline claims
        assert wpp.dim == rad.dim
        assert wp.dim + rad.dim == w.dim
        checked += 1
    return True, f"subspaces checked={checked}"


def suite_width_ore(seed=DEFAULT_SEED):
    """Normal closures, symmetric widths, Ore, and mutual domination."""
    details = []
    ok = True
    for name in ("A5", "A6", "PSL2_7", "PSL2_8"):
        t = engine.named_group(name)
        lg = math.log(t.order)
        for cls in t.classes:
            rep = cls[0]
            if rep == t.identity_index:
                continue
            if engine.normal_closure(t, rep) != t.full_bits:
                ok = False
                details.append(f"{name}: closure not full")
            w = engine.conjugacy_width(t, rep, symmetric=True)
            if isinstance(w, engine.Unbounded):
                ok = False
                details.append(f"{name}: unbounded width")
                continue
            lc = math.log(len(cls)) / lg
            if w * lc < 1 - 1e-12:
                ok = False
                details.append(f"{name}: width*l_c = {w * lc:.3f} < 1")
        ore_ok, bad = engine.ore_check(t)
        if not ore_ok:
            ok = False
            details.append(f"{name}: non-commutator at {bad}")
        k1 = engine.mutual_domination(t)
        k2 = engine.mutual_domination(t)
        if k1 != k2:
            ok = False
            details.append(f"{name}: unstable domination {k1} != {k2}")
        details.append(f"{name}: ore ok, domination k={k1}")
    return ok, "; ".join(details)


def suite_root_combinations(seed=DEFAULT_SEED):
    """Two-root decompositions across A-D (rank <= 8), F4, G2."""
    systems = [("A", r) for r in range(1, 9)]
    systems += [("B", r) for r in range(2, 9)]
    systems += [("C", r) for r in range(2, 9)]
    systems += [("D", r) for r in range(4, 9)]
    systems += [("F4", 4), ("G2", 2)]
    mus = set()
    ok = True
    for typ, rank in systems:
        rep = roots.check_root_combinations(roots.build_root_system(typ, rank))
        if not (rep["long_ok"] and rep["short_ok"]) or rep["violations"]:
            ok = False
        mus |= set(rep["mu_values"])
    # the long-root decompositions carry coefficient 1 by definition
    allowed = {Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2),
               Fraction(-1, 2), Fraction(1), Fraction(-1)}
    ok = ok and mus | {Fraction(1), Fraction(-1)} == allowed
    return ok, f"coefficients seen: {sorted(mus | {Fraction(1), Fraction(-1)})}"


def suite_decompositions(seed=DEFAULT_SEED):
    """Certificate suites: SU(2), type A small rank, and large rank."""
    rng = random.Random(seed)
    details = []

    worst_err, worst_count_ratio = 0.0, 0.0
    done = 0
    while done < 1000:
        th = Fraction(rng.randint(1, 64), 64) * rng.choice((1, -1))
        tg = Fraction(rng.randint(0, 64), 64) * rng.choice((1, -1))
        lam_h = roots.su2_lambda(th)
        if lam_h == 0:
            continue
        m = int(math.ceil(roots.su2_lambda(tg) / lam_h)) + rng.randint(0, 4)
        m = max(m, 1)
        try:
            cert = roots.su2_decompose(tg, th, m)
        except roots.PolarInfeasible:
            continue  # inadmissible pair at this m: not part of the draw
        done += 1
        worst_err = max(worst_err, cert.product_error)
        worst_count_ratio = max(worst_count_ratio, cert.count / m)
    ok = worst_err < 1e-9 and worst_count_ratio <= 1
    details.append(f"su2: 1000 pairs, max err {worst_err:.2e}")

    worst_err = 0.0
    done = 0
    while done < 100:
        r = rng.randint(1, 8)
        g = _random_torus_element("A", r, rng, denom=16)
        h = _random_torus_element("A", r, rng, denom=16)
        if h.is_central():
            continue
        m = 2
        cert = None
        while m <= 64 and cert is None:
            try:
                cert = roots.torus_decompose_typeA(g, h, m)
            except (roots.BoundViolated, roots.PolarInfeasible):
                m *= 2
        if cert is None:
            continue
        done += 1
        worst_err = max(worst_err, cert.product_error)
        if cert.count > 4 * m * r * r:
            ok = False
    ok = ok and worst_err < 1e-8
    details.append(f"typeA: 100 pairs, max err {worst_err:.2e}")

    for r in (21, 25):
        g = _random_torus_element("A", r, rng, denom=8)
        # the profile of h must dominate that of g index by index, which
        # a fresh random draw rarely does: pair g with itself and with a
        # rejection-sampled partner
        support = sum(1 for d in roots.sorted_distance_profile(g)[0] if d)
        partners = [g]
        while len(partners) < 2:
            h = _random_torus_element("A", r, rng, denom=8)
            # no m can cover an index where the h-profile vanishes
            if not h.is_central() and sum(
                    1 for d in roots.sorted_distance_profile(h)[0]
                    if d) >= support:
                partners.append(h)
        for h in partners:
            m = 2
            cert = None
            while m <= 256 and cert is None:
                try:
                    cert = roots.large_rank_decompose(g, h, 1, m)
                except roots.BoundViolated:
                    m *= 2
            if cert is None or cert.count > 140 * m + 4 * m \
                    or cert.product_error > 1e-8:
                ok = False
                details.append(f"large rank r={r}: failed")
            else:
                details.append(
                    f"large rank r={r}: count {cert.count} <= {144 * m}, "
                    f"err {cert.product_error:.2e}")
    return ok, "; ".join(details)


# per classical type: lambda-tilde <= c1 * ell1' and ell1' <= c2 * lambda-tilde
L1_CONSTANTS = {"A": (2, 2), "B": (1, 6), "C": (1, 6), "D": (2, 6)}


def suite_l1_constants(seed=DEFAULT_SEED, per_type=1000):
    rng = random.Random(seed)
    bad = {}
    for typ, (c1, c2) in L1_CONSTANTS.items():
        for _ in range(per_type):
            t = _random_torus_element(typ, rng.randint(2, 8), rng)
            lt = float(roots.lambda_tilde(t))
            lp = roots.ell1_prime(t)
            if lt > c1 * lp + 1e-8:
                bad.setdefault(f"{typ}: lt<={c1}*l1'", []).append(t.angles)
            if lp > c2 * lt + 1e-8:
                bad.setdefault(f"{typ}: l1'<={c2}*lt", []).append(t.angles)
    detail = "; ".join(f"{k} fails x{len(v)}, e.g. {v[0]}"
                       for k, v in bad.items()) or \
        f"{per_type} elements per type, all within constants"
    return not bad, detail


def suite_kyfan(seed=DEFAULT_SEED, pairs=10_000):
    bad = 0
    for trial, g, h in profiles.random_monomial_pairs(seed, pairs):
        rep = profiles.kyfan_profile_check(g, h, z_trials=2, seed=trial)
        # a profile from the zigzag fallback (exact=False) proves nothing
        if not (rep["main_ok"] and rep["kyfan_ok"] and rep["exact"]):
            bad += 1
    return bad == 0, f"{pairs} monomial pairs, violations={bad}"


def suite_counterexample(seed=DEFAULT_SEED):
    """The U(2n+1) family: rank-length pins, torus-length pins, and
    incomparability of the two profile orders on the full witness grid."""
    issues = []
    for n in range(2, 65):
        g, h = roots.counterexample_family(n)
        if roots.scaled_rank_length_inf(h) != Fraction(2, 2 * n + 1):
            issues.append(f"rank pin h_{n}")
        if roots.scaled_rank_length_inf(g) != Fraction(n + 1, 2 * n + 1):
            issues.append(f"rank pin g_{n}")
        lt_h = roots.lambda_tilde(h)
        if n <= 8:
            if lt_h != Fraction(4, 2 * n + 1):
                issues.append(f"lt(h_{n})={lt_h} != 4/{2 * n + 1}")
            lt_g = roots.lambda_tilde(g)
            if lt_g > Fraction(4, n * (2 * n + 1)):
                issues.append(f"lt(g_{n})={lt_g} > 4/{n * (2 * n + 1)}")
        elif lt_h < Fraction(4, 2 * n + 1):
            issues.append(f"lt(h_{n}) lower bound")
    rows = profiles.incomparability_demo(64, c_max=64, k_max=8)
    if not all(r[3] is not None and r[3] <= 64 for r in rows):
        issues.append("a witness survived the incomparability grid")
    detail = "; ".join(issues[:6]) if issues else \
        "all pins exact; every (c,k) witness fails both ways by n=64"
    if issues and len(issues) > 6:
        detail += f"; +{len(issues) - 6} more"
    return not issues, detail


def suite_lattice(seed=DEFAULT_SEED, triples=100_000):
    rng = random.Random(seed)

    def rand_profile():
        k = rng.randint(0, 6)
        vals = sorted((rng.random() for _ in range(k)), reverse=True)
        return profiles.Profile(tuple(vals), 8)

    for _ in range(triples):
        a, b, c = rand_profile(), rand_profile(), rand_profile()
        lhs = profiles.profile_meet(a, profiles.profile_join(b, c))
        rhs = profiles.profile_join(profiles.profile_meet(a, b),
                                    profiles.profile_meet(a, c))
        if lhs.values != rhs.values:
            return False, "meet-join distributivity violated"
        lhs = profiles.profile_join(a, profiles.profile_meet(b, c))
        rhs = profiles.profile_meet(profiles.profile_join(a, b),
                                    profiles.profile_join(a, c))
        if lhs.values != rhs.values:
            return False, "join-meet distributivity violated"

    for typ in ("A", "B", "C", "D"):
        for rank in (4, 8):
            t = _random_torus_element(typ, rank, rng)
            P = profiles.profile_of(t)
            back = profiles.profile_of(profiles.realize_profile(P, typ, rank))
            if list(back.distances) != sorted(P.distances, reverse=True):
                return False, f"realize round trip failed ({typ}, {rank})"

    rep = engine.normal_lattice_analyze(engine.named_group("S4"))
    if not rep["is_chain"] or sorted(rep["orders"]) != [1, 4, 12, 24]:
        return False, f"S4 chain mismatch: orders {rep['orders']}"
    for name in ("A5", "PSL2_7"):
        rep = engine.normal_lattice_analyze(engine.named_group(name))
        if len(rep["subgroups"]) != 2:
            return False, f"{name} is not lattice 2"
    return True, (f"{triples} distributivity triples, realize round trips "
                  "rank 4 and 8, S4 chain and simple-group lattice 2 ok")


def suite_strong_coloring(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    from .perms import Permutation

    count = 0
    for n in (6, 9, 12):
        for blocks in _triple_partitions(range(n)):
            colors = coloring.strong_color_cycle(n, blocks)
            coloring.check_strong_coloring(n, blocks, 3, colors)
            count += 1
    for _ in range(1000):
        n = 3 * rng.randint(1, 1000)
        imgs = list(range(n))
        rng.shuffle(imgs)
        coloring.partition_permutation(Permutation(tuple(imgs)))
    return True, f"{count} exhaustive partitions + 1000 random permutations"


SUITES = [
    ("sandwich", suite_sandwich, 5),
    ("class-sizes", suite_class_sizes, 30),
    ("asymptotic-bounds", suite_asymptotic_bounds, 60),
    ("jordan", suite_jordan, 60),
    ("geometry", suite_geometry, 30),
    ("width-ore", suite_width_ore, 300),
    ("root-combinations", suite_root_combinations, 10),
    ("decompositions", suite_decompositions, 300),
    ("l1-constants", suite_l1_constants, 120),
    ("kyfan", suite_kyfan, 120),
    ("counterexample", suite_counterexample, 60),
    ("lattice", suite_lattice, 60),
    ("strong-coloring", suite_strong_coloring, 120),
]


def run_suite(name, fn, budget, seed=DEFAULT_SEED):
    """Run one suite; returns its result dict with the elapsed seconds."""
    start = time.perf_counter()
    try:
        ok, detail = fn(seed)
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"exception: {exc!r}"
    elapsed = time.perf_counter() - start
    return {"name": name, "ok": ok, "detail": detail,
            "elapsed": round(elapsed, 3), "budget": budget}


def run_suites(name_filter=None, seed=DEFAULT_SEED):
    """Run matching suites; returns a list of result dicts.  A filter
    that matches no suite raises OutOfRange: it would check nothing."""
    chosen = [(name, fn, budget) for name, fn, budget in SUITES
              if not name_filter or name_filter in name]
    if not chosen:
        raise OutOfRange(f"no acceptance suite matches {name_filter!r}")
    return [run_suite(name, fn, budget, seed) for name, fn, budget in chosen]
