"""Command-line front end: deterministic experiment runs per subcommand.

Configuration is a flat key=value file (--config) with command-line
overrides (--set key=value).  Every randomized run draws from a single
64-bit seeded generator whose seed is serialized in the report header.
Reports are CSV with declared headers or JSON with a schema_version
field; the exit code is 0 exactly when all checked invariants held.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import (LengthlabError, OutOfRange, acceptance, coloring, engine,
               fqlin, perms, profiles, roots)

SCHEMA_VERSION = 1
# strong-color at n = 10^5 takes about 1 s and 75 MB on a 2-core VM
STRONG_COLOR_MAX_N = 10**6


class ConfigInvalid(LengthlabError, ValueError):
    pass


# ----------------------------------------------------------- plumbing

def _load_config(path):
    out = {}
    if path is None:
        return out
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigInvalid(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigInvalid(str(exc))
    return out


def _flag_overrides(extras, defaults):
    """Convenience flags: --key value (or --key=value, or a bare --key
    meaning true).  --n A..B expands to n_min/n_max and --grid c=C,k=K
    to c_max/k_max when the command has those parameters."""
    out = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--"):
            raise ConfigInvalid(f"unexpected argument {tok!r}")
        key, eq, val = tok[2:].partition("=")
        key = key.replace("-", "_")
        if not eq:
            if i + 1 < len(extras) and not extras[i + 1].startswith("--"):
                i += 1
                val = extras[i]
            else:
                val = "true"
        if key == "n" and "n_min" in defaults and ".." in val:
            out["n_min"], out["n_max"] = val.split("..", 1)
        elif key == "grid" and "c_max" in defaults:
            for part in val.split(","):
                k, v = part.split("=", 1)
                out[k.strip() + "_max"] = v.strip()
        else:
            out[key] = val
        i += 1
    return out


def _params(defaults, args):
    """Defaults, overridden by the config file, then convenience flags,
    then --set."""
    params = dict(defaults)
    for source in (_load_config(args.config),
                   _flag_overrides(args.extras, defaults),
                   dict(kv.split("=", 1) for kv in args.set)):
        for key, val in source.items():
            if key not in params:
                raise ConfigInvalid(f"unknown parameter {key!r}; "
                                    f"known: {sorted(params)}")
            params[key] = val
    return params


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, seed, payload):
    doc = {"schema_version": SCHEMA_VERSION, "seed": seed}
    doc.update(payload)
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_csv(args, seed, header, rows):
    lines = [f"# schema_version={SCHEMA_VERSION} seed={seed}", header]
    lines += [",".join(str(x) for x in row) for row in rows]
    _emit(args, "\n".join(lines) + "\n")


def _angles(text):
    return tuple(Fraction(a) for a in text.split(",") if a.strip())


# --------------------------------------------------------- subcommands

def cmd_sym_lengths(args):
    p = _params({"n_min": "4", "n_max": "30", "ambient": perms.SYM}, args)
    rows = []
    flagged = 0
    for n, t, lh, lr, lc, fe, fa in perms.comparison_rows(
            int(p["n_min"]), int(p["n_max"]), p["ambient"]):
        flagged += fe or fa
        rows.append((n, "+".join(map(str, t.parts())), lh, lr,
                     f"{lc:.12g}", int(fe), int(fa)))
    _emit_csv(args, args.seed, perms.REPORT_HEADER, rows)
    return flagged == 0


GL_RATIO_CASES = ((2, 3), (2, 5), (3, 2), (3, 3))


def _gl_generators(n, q):
    """Generators of GL_n(q): the unit transvections and one primitive
    diagonal."""
    F = fqlin.FqField(q)

    def unit(i, j, a):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][j] = a
        return fqlin.FqMatrix(F, rows)

    prim = next(a for a in F.units()
                if len({F.pow(a, k) for k in range(1, q)}) == q - 1)
    return [unit(i, j, 1) for i in range(n) for j in range(n)
            if i != j] + [unit(0, 0, prim)]


def cmd_linear_lengths(args):
    _params({}, args)
    rows = []
    ok = True
    for n, q in GL_RATIO_CASES:
        t = engine.generate_group(_gl_generators(n, q))
        ratios = []
        for cls in t.classes:
            if len(cls) == 1:
                continue  # central
            lc = math.log(len(cls)) / math.log(t.order)
            lj = float(fqlin.jordan_length(t.element(cls[0]))[0])
            ratios.append(lc / lj)
        ok = ok and all(r > 0 and math.isfinite(r) for r in ratios)
        rows.append((f"GL{n}({q})", n, q, len(t.classes),
                     f"{min(ratios):.6f}", f"{max(ratios):.6f}"))
    _emit_csv(args, args.seed,
              "group,n,q,classes,min_lc_over_lj,max_lc_over_lj", rows)
    return ok


def cmd_width(args):
    p = _params({"group": "A5", "symmetric": "true"}, args)
    t = engine.named_group(p["group"])
    symmetric = p["symmetric"].lower() == "true"
    widths = []
    ok = True
    for i, cls in enumerate(t.classes):
        if cls[0] == t.identity_index:
            continue
        w = engine.conjugacy_width(t, cls[0], symmetric=symmetric)
        if isinstance(w, engine.Unbounded):
            ok = False
            w = None
        widths.append({"class_index": i, "class_size": len(cls),
                       "width": w})
    _emit_json(args, args.seed, {
        "group": p["group"], "order": t.order, "symmetric": symmetric,
        "widths": widths})
    return ok


def cmd_ore_check(args):
    p = _params({"group": "A5"}, args)
    t = engine.named_group(p["group"])
    ok, bad = engine.ore_check(t)
    _emit_json(args, args.seed, {
        "group": p["group"], "order": t.order, "ore_ok": ok,
        "counterexample_index": bad})
    return ok


def cmd_lattice(args):
    p = _params({"group": "S4"}, args)
    rep = engine.normal_lattice_analyze(engine.named_group(p["group"]))
    _emit_json(args, args.seed, {
        "group": p["group"], "orders": rep["orders"],
        "hasse": rep["hasse"], "is_chain": rep["is_chain"],
        "is_distributive": rep["is_distributive"],
        "is_modular": rep["is_modular"]})
    return True


def cmd_root_check(args):
    p = _params({"type": "G2", "rank": "2"}, args)
    rep = roots.check_root_combinations(
        roots.build_root_system(p["type"], int(p["rank"])))
    ok = rep["long_ok"] and rep["short_ok"] and not rep["violations"]
    _emit_json(args, args.seed, {
        "type": rep["type"], "rank": rep["rank"],
        "simply_laced": rep["simply_laced"],
        "long_ok": rep["long_ok"], "short_ok": rep["short_ok"],
        "mu_values": [str(m) for m in rep["mu_values"]],
        "violations": [str(v) for v in rep["violations"]]})
    return ok


def cmd_su2_decompose(args):
    p = _params({"theta_g": "1/3", "theta_h": "1/4", "m": "8"}, args)
    cert = roots.su2_decompose(Fraction(p["theta_g"]),
                               Fraction(p["theta_h"]), int(p["m"]))
    _emit_json(args, args.seed, {"certificate": cert.to_json()})
    return cert.product_error < 1e-9 and cert.check_bound()


def cmd_torus_decompose(args):
    p = _params({"g": "1/3,1/6,-1/2", "h": "1/4,-1/4,0", "m": "8"}, args)
    g_angles, h_angles = _angles(p["g"]), _angles(p["h"])
    r = len(g_angles) - 1
    cert = roots.torus_decompose_typeA(
        roots.TorusElement("A", r, g_angles),
        roots.TorusElement("A", r, h_angles), int(p["m"]))
    _emit_json(args, args.seed, {"certificate": cert.to_json()})
    return cert.product_error < 1e-8 and cert.check_bound()


def cmd_large_rank(args):
    p = _params({"rank": "21", "k": "1", "m": "8", "denom": "8"}, args)
    import random

    rng = random.Random(args.seed)
    r, denom = int(p["rank"]), int(p["denom"])
    if denom < 1:
        raise ConfigInvalid(f"need denom >= 1, got {denom}")
    angs = [Fraction(rng.randint(-denom, denom), denom) for _ in range(r)]
    angs.append(-sum(angs))
    g = roots.TorusElement("A", r, tuple(angs))
    cert = roots.large_rank_decompose(g, g, int(p["k"]), int(p["m"]))
    _emit_json(args, args.seed, {
        "rank": r, "k": int(p["k"]), "m": int(p["m"]),
        "count": cert.count, "bound": cert.bound,
        "product_error": f"{cert.product_error:.3e}"})
    return cert.product_error < 1e-8 and cert.check_bound()


def _profile_sequence(typ, text):
    """The one-term profile sequence of a torus element given by its
    angles: rank + 1 of them for types A and U, rank for B, C and D."""
    angles = _angles(text)
    rank = len(angles) - 1 if typ in ("A", "U") else len(angles)
    return profiles.ProfileSequence(
        {0: profiles.profile_of(roots.TorusElement(typ, rank, angles))})


def cmd_profile_order(args):
    p = _params({"f_type": "U", "f": "1/2,0,0", "h_type": "U",
                 "h": "1/3,1/3,0", "c_max": "8", "k_max": "8"}, args)
    F = _profile_sequence(p["f_type"], p["f"])
    H = _profile_sequence(p["h_type"], p["h"])
    w = profiles.precede_search(F, H, int(p["c_max"]), int(p["k_max"]))
    _emit_json(args, args.seed, {
        "witness": None if w is None else {"c": w.c, "k": w.k, "n0": w.n0}})
    return True


def cmd_kyfan(args):
    p = _params({"pairs": "200", "n_max": "10", "z_trials": "2"}, args)
    pairs, z_trials = int(p["pairs"]), int(p["z_trials"])
    if pairs < 1:
        raise ConfigInvalid(f"need pairs >= 1, got {pairs}")
    violations, exact = 0, True
    for trial, g, h in profiles.random_monomial_pairs(
            args.seed, pairs, int(p["n_max"])):
        rep = profiles.kyfan_profile_check(g, h, z_trials=z_trials,
                                           seed=trial)
        violations += len(rep["violations"])
        # a profile from the zigzag fallback (exact=False) proves nothing
        exact = exact and rep["exact"]
    _emit_json(args, args.seed, {
        "pairs": pairs, "violations": violations})
    return violations == 0 and exact


def cmd_counterexample(args):
    p = _params({"n_max": "64", "c_max": "64", "k_max": "8"}, args)
    rows = profiles.incomparability_demo(
        int(p["n_max"]), c_max=int(p["c_max"]), k_max=int(p["k_max"]))
    _emit_csv(args, args.seed, "direction,c,k,first_failing_n",
              [(d, c, k, "" if f is None else f) for d, c, k, f in rows])
    return all(f is not None for _, _, _, f in rows)


def cmd_strong_color(args):
    p = _params({"n": "30", "s": "3"}, args)
    import random

    rng = random.Random(args.seed)
    n, s = int(p["n"]), int(p["s"])
    if n > STRONG_COLOR_MAX_N:  # before the n vertices are drawn
        raise OutOfRange(f"need n <= {STRONG_COLOR_MAX_N}, got {n}")
    verts = list(range(n))
    rng.shuffle(verts)
    blocks = [verts[i:i + s] for i in range(0, n, s)]
    colors = coloring.strong_color_cycle(n, blocks, s)
    _emit_json(args, args.seed, {
        "n": n, "s": s, "blocks": blocks,
        "colors": [colors[v] for v in range(n)]})
    return True


def cmd_acceptance(args):
    p = _params({"filter": ""}, args)
    results = acceptance.run_suites(p["filter"] or None, seed=args.seed)
    for r in results:
        line = "PASS" if r["ok"] else "FAIL"
        print(f"{line} {r['name']:20s} [{r['elapsed']:8.2f}s] {r['detail']}",
              file=sys.stderr)
    _emit_json(args, args.seed, {"suites": [
        {"name": r["name"], "ok": r["ok"], "detail": r["detail"]}
        for r in results]})
    return all(r["ok"] for r in results)


COMMANDS = {
    "sym-lengths": cmd_sym_lengths,
    "linear-lengths": cmd_linear_lengths,
    "width": cmd_width,
    "ore-check": cmd_ore_check,
    "lattice": cmd_lattice,
    "root-check": cmd_root_check,
    "su2-decompose": cmd_su2_decompose,
    "torus-decompose": cmd_torus_decompose,
    "large-rank": cmd_large_rank,
    "profile-order": cmd_profile_order,
    "kyfan": cmd_kyfan,
    "counterexample": cmd_counterexample,
    "strong-color": cmd_strong_color,
    "acceptance": cmd_acceptance,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lengthlab",
        description="Length functions, decompositions, and profile "
        "lattices: deterministic experiment reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value parameter file")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override one parameter")
        sp.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                        help="64-bit seed for all randomness")
        sp.add_argument("--out", help="write the report to this file")
    args, extras = parser.parse_known_args(argv)
    args.extras = extras
    try:
        if args.seed < 0 or args.seed >= 1 << 64:
            raise ConfigInvalid("seed must fit in 64 bits")
        ok = COMMANDS[args.command](args)
    except (LengthlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
