"""Command-line front end: deterministic experiment runs per subcommand.

Configuration is a flat key=value file (--config) with command-line
overrides (--set key=value).  Every randomized run draws from a single
64-bit seeded generator whose seed is serialized in the report header.
Reports are CSV with declared headers or JSON with a schema_version
field; the exit code is 0 exactly when all checked invariants held.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction

from . import (InvariantFailed, LengthlabError, OutOfRange, acceptance,
               coloring, engine, fqlin, perms, profiles, roots)

SCHEMA_VERSION = 1
# Caps on the sizes that set a run's cost, checked before any work; each is
# above its default and every README value.  The comments time one run at
# the cap, the other parameters at their defaults, on a 2-core VM.
CAPS = {
    "sym-lengths": {"n_max": 50},  # 11 s
    "large-rank": {"rank": 200, "m": 1024},  # 5-5.5 s; 4-5 s
    # 5-6 s, the acceptance suite's number of pairs; 4 s; n_max is the
    # library's own cap, 49 s (one pair at n = 1000 takes 0.6-0.9 s).
    # n_max and z_trials compound: one pair at n = 1000 takes 36 s at
    # z_trials = 1000, and a run pays up to that for each of its pairs
    "kyfan": {"pairs": 10**4, "z_trials": 1000,
              "n_max": profiles.MAX_MONOMIAL_N},
    # 0.27 s; 0.31 s; 0.31 s; 0.9-1.2 s with all three at their caps
    "counterexample": {"n_max": 128, "c_max": 1024, "k_max": 64},
    # 16-17 s and 321 MB at n = 999999, the largest n that s = 3
    # divides (the search alone peaks at 214 MB, the JSON report sets the
    # peak); 1.0 s and 63 MB at n = 99999
    "strong-color": {"n": 10**6},
}


class ConfigInvalid(LengthlabError, ValueError):
    pass


# ----------------------------------------------------------- plumbing

def _split_pair(item, what):
    """KEY=VALUE split at its first '=', or ConfigInvalid naming the item."""
    if "=" not in item:
        raise ConfigInvalid(f"bad {what}: {item!r}")
    return item.split("=", 1)


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
                key, val = _split_pair(line, "config line")
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
                k, v = _split_pair(part, "--grid part")
                if not k.strip():
                    raise ConfigInvalid(f"bad --grid part: {part!r}")
                out[k.strip() + "_max"] = v.strip()
        else:
            out[key] = val
        i += 1
    return out


def _int(params, key):
    """params[key] as an int, or ConfigInvalid naming the key and value."""
    try:
        return int(params[key])
    except ValueError:
        raise ConfigInvalid(
            f"{key} must be an integer, got {params[key]!r}") from None


def _params(defaults, args):
    """Defaults, overridden by the config file, then convenience flags,
    then --set; then the command's CAPS are checked."""
    params = dict(defaults)
    for source in (_load_config(args.config),
                   _flag_overrides(args.extras, defaults),
                   dict(_split_pair(kv, "--set item") for kv in args.set)):
        for key, val in source.items():
            if key not in params:
                raise ConfigInvalid(f"unknown parameter {key!r}; "
                                    f"known: {sorted(params)}")
            params[key] = val
    for key, cap in CAPS.get(args.command, {}).items():
        if (size := _int(params, key)) > cap:
            raise OutOfRange(f"need {key} <= {cap}, got {size}")
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
            _int(p, "n_min"), _int(p, "n_max"), p["ambient"]):
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
            lc = t.conj_length(cls[0])
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
    symmetric = {"true": True, "false": False}.get(p["symmetric"].lower())
    if symmetric is None:
        raise ConfigInvalid(f"symmetric must be true or false, got "
                            f"{p['symmetric']!r}")
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
        roots.build_root_system(p["type"], _int(p, "rank")))
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
                               Fraction(p["theta_h"]), _int(p, "m"))
    _emit_json(args, args.seed, {"certificate": cert.to_json()})
    return cert.holds()


def cmd_torus_decompose(args):
    p = _params({"g": "1/3,1/6,-1/2", "h": "1/4,-1/4,0", "m": "8"}, args)
    g_angles, h_angles = _angles(p["g"]), _angles(p["h"])
    r = len(g_angles) - 1
    cert = roots.torus_decompose_typeA(
        roots.TorusElement("A", r, g_angles),
        roots.TorusElement("A", r, h_angles), _int(p, "m"))
    _emit_json(args, args.seed, {"certificate": cert.to_json()})
    return cert.holds()


def cmd_large_rank(args):
    p = _params({"rank": "21", "k": "1", "m": "8", "denom": "8"}, args)
    rng = random.Random(args.seed)
    r, denom = _int(p, "rank"), _int(p, "denom")
    if denom < 1:
        raise ConfigInvalid(f"need denom >= 1, got {denom}")
    angs = [Fraction(rng.randint(-denom, denom), denom) for _ in range(r)]
    angs.append(-sum(angs))
    g = roots.TorusElement("A", r, tuple(angs))
    k, m = _int(p, "k"), _int(p, "m")
    cert = roots.large_rank_decompose(g, g, k, m)
    _emit_json(args, args.seed, {
        "rank": r, "k": k, "m": m,
        "count": cert.count, "bound": cert.bound,
        "product_error": f"{cert.product_error:.3e}"})
    return cert.holds()


def _profile_sequence(typ, text):
    """The one-term profile sequence of a torus element given by its
    angles: rank + 1 of them for types A and U, rank for B, C and D."""
    angles = _angles(text)
    rank = len(angles) - 1 if typ in ("A", "U") else len(angles)
    return {0: profiles.profile_of(roots.TorusElement(typ, rank, angles))}


def cmd_profile_order(args):
    p = _params({"f_type": "U", "f": "1/2,0,0", "h_type": "U",
                 "h": "1/3,1/3,0", "c_max": "8", "k_max": "8"}, args)
    F = _profile_sequence(p["f_type"], p["f"])
    H = _profile_sequence(p["h_type"], p["h"])
    w = profiles.precede_search(F, H, _int(p, "c_max"), _int(p, "k_max"))
    _emit_json(args, args.seed, {
        "witness": None if w is None else {"c": w.c, "k": w.k, "n0": w.n0}})
    return True


def cmd_kyfan(args):
    p = _params({"pairs": "200", "n_max": "10", "z_trials": "2"}, args)
    pairs, z_trials = _int(p, "pairs"), _int(p, "z_trials")
    if pairs < 1:
        raise ConfigInvalid(f"need pairs >= 1, got {pairs}")
    violations, exact = 0, True
    for trial, g, h in profiles.random_monomial_pairs(
            args.seed, pairs, _int(p, "n_max")):
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
        _int(p, "n_max"), c_max=_int(p, "c_max"), k_max=_int(p, "k_max"))
    _emit_csv(args, args.seed, "direction,c,k,first_failing_n",
              [(d, c, k, "" if f is None else f) for d, c, k, f in rows])
    return all(f is not None for _, _, _, f in rows)


def cmd_strong_color(args):
    p = _params({"n": "30", "s": "3"}, args)
    rng = random.Random(args.seed)
    n, s = _int(p, "n"), _int(p, "s")
    verts = list(range(n))
    rng.shuffle(verts)
    blocks = [verts[i:i + s] for i in range(0, n, s)]
    colors = coloring.strong_color_cycle(n, blocks, s)
    _emit_json(args, args.seed, {
        "n": n, "s": s, "blocks": blocks,
        "colors": colors[:n]})
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once: argparse copies --set's default list to append to it."""
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
    return parser


def main(argv=None) -> int:
    args, extras = _parser().parse_known_args(argv)
    args.extras = extras
    try:
        if args.seed < 0 or args.seed >= 1 << 64:
            raise ConfigInvalid("seed must fit in 64 bits")
        ok = COMMANDS[args.command](args)
    except InvariantFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LengthlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
