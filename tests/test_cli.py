import contextlib
import dataclasses
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lengthlab import acceptance, cli, profiles


def run(argv):
    return cli.main(argv)


def read(path):
    return path.read_bytes()


def test_reports_are_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["counterexample", "--seed", "7",
            "--set", "n_max=16", "--set", "c_max=4", "--set", "k_max=3"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    header, columns = read(a).decode().splitlines()[:2]
    assert header == "# schema_version=1 seed=7"
    assert columns == "direction,c,k,first_failing_n"


def test_seeded_json_reports_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["kyfan", "--seed", "99", "--set", "pairs=20"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    doc = json.loads(read(a))
    assert doc["schema_version"] == 1
    assert doc["seed"] == 99
    assert doc["violations"] == 0


def test_kyfan_exits_1_on_inexact_profile(monkeypatch, tmp_path):
    exact_profile = profiles._profile

    def fallback(*args):
        # as if every orbit search had fallen back to the zigzag
        return dataclasses.replace(exact_profile(*args), exact=False)

    monkeypatch.setattr(profiles, "_profile", fallback)
    out = tmp_path / "k.json"
    assert run(["kyfan", "--set", "pairs=5", "--out", str(out)]) == 1
    assert json.loads(read(out)) == {
        "pairs": 5, "schema_version": 1, "seed": 20260823, "violations": 0}
    # the suite draws the same pairs and counts each one
    assert acceptance.suite_kyfan(pairs=5) == (
        False, "5 monomial pairs, violations=5")


def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ngroup = S4\n")
    out = tmp_path / "lat.json"
    assert run(["lattice", "--config", str(cfg),
                "--out", str(out)]) == 0
    assert json.loads(read(out))["orders"] == [1, 4, 12, 24]
    out2 = tmp_path / "lat2.json"
    assert run(["lattice", "--config", str(cfg), "--set", "group=A5",
                "--out", str(out2)]) == 0
    assert json.loads(read(out2))["orders"] == [1, 60]


def test_convenience_flags(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sym-lengths", "--n", "4..8", "--out", str(a)]) == 0
    assert run(["sym-lengths", "--set", "n_min=4", "--set", "n_max=8",
                "--out", str(b)]) == 0
    assert read(a) == read(b)
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert run(["counterexample", "--n-max", "8", "--grid", "c=2,k=2",
                "--out", str(c)]) == 0
    assert run(["counterexample", "--set", "n_max=8", "--set", "c_max=2",
                "--set", "k_max=2", "--out", str(d)]) == 0
    assert read(c) == read(d)
    out = tmp_path / "w.json"
    assert run(["width", "--group", "A5", "--symmetric",
                "--out", str(out)]) == 0
    assert json.loads(read(out))["symmetric"] is True


def test_unknown_parameter_is_an_error(capsys):
    assert run(["lattice", "--set", "grp=S4"]) == 2
    assert "unknown parameter" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["width", "--set", "group=A9"],
    ["torus-decompose", "--set", "h=0,0,0"],
    ["lattice", "--set", "group=A9"],  # the 100k build cap
    ["width", "--set", "group=S1"],
    ["lattice", "--set", "group=A1"],
    ["width", "--set", "group=A2"],
    ["lattice", "--set", "group=A0"],
    ["width", "--set", "group=PSL2_6"],  # 6 is not a prime power
    ["width", "--set", "group=PSL2_1"],
], ids=["cap-exceeded", "central-h", "lattice-cap", "S1", "A1", "A2", "A0",
        "PSL2_6", "PSL2_1"])
def test_library_error_exits_2(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# Each subcommand against 0, 1, a negative value and an empty range (or
# an empty name or angle list), and the group commands against a group
# above the build cap, with the exit code the contract gives:
# 0 every invariant held, 1 one failed, 2 bad input.  linear-lengths takes
# no parameters; acceptance's empty filter is test_acceptance_filter_and_noop.
EDGE_CASES = {
    "sym-lengths": [(["n_min=0", "n_max=0"], 2), (["n_min=1", "n_max=1"], 0),
                    (["n_min=-1", "n_max=3"], 2), (["n_min=5", "n_max=4"], 2)],
    "width": [(["group=S0"], 2), (["group=S1"], 2), (["group=S-1"], 2),
              (["group="], 2), (["group=A12"], 2)],
    "ore-check": [(["group=A0"], 2), (["group=A1"], 2), (["group=A-1"], 2),
                  (["group=PSL2_"], 2), (["group=S9"], 2)],
    "lattice": [(["group=PSL2_0"], 2), (["group=PSL2_1"], 2),
                (["group=PSL2_-1"], 2), (["group=S"], 2),
                (["group=PSL2_59"], 2)],  # order 102660
    "root-check": [(["type=A", "rank=0"], 2), (["type=A", "rank=1"], 0),
                   (["type=B", "rank=-1"], 2), (["type=D", "rank=1"], 2)],
    "su2-decompose": [(["m=0"], 2), (["m=1"], 2), (["m=-1"], 2),
                      (["theta_h=0"], 2)],
    "torus-decompose": [(["m=0"], 2), (["m=1"], 2), (["m=-1"], 2),
                        (["g=", "h="], 2)],
    "large-rank": [(["denom=0"], 2), (["denom=1"], 0), (["rank=-1"], 2),
                   (["k=0"], 2)],
    "profile-order": [(["c_max=0"], 2), (["c_max=1"], 0), (["k_max=-1"], 2),
                      (["f=", "h="], 2)],
    "kyfan": [(["pairs=0"], 2), (["pairs=1"], 0), (["pairs=-1"], 2),
              (["pairs=5", "n_max=1"], 2)],
    "counterexample": [(["n_max=0"], 2), (["n_max=1"], 2), (["n_max=-1"], 2),
                       (["n_max=8", "c_max=0"], 2)],
    "strong-color": [(["n=0"], 2), (["n=1"], 2), (["n=-1"], 2), (["s=0"], 2),
                     (["n=63", "s=1"], 2), (["n=63", "s=2"], 2)],
}


@pytest.mark.parametrize("argv, code", [
    pytest.param([cmd] + [a for s in sets for a in ("--set", s)], code,
                 id=f"{cmd}-{'-'.join(sets)}")
    for cmd, cases in EDGE_CASES.items() for sets, code in cases])
def test_edge_values_keep_exit_contract(argv, code, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


HUGE = (str(2**64), str(-2**64))
_small = st.integers(-3, 12).map(str)
_junk = st.sampled_from(["", "x", "1/2", "-1/3", "1e3", "0x10", " 7", "3.5"])
_angles = st.lists(st.fractions(-2, 2, max_denominator=12).map(str),
                   max_size=4).map(",".join)


def _ints(*huge):
    return st.one_of(_small, _junk, *[st.sampled_from(huge)] if huge else [])


def _words(*words):
    return st.one_of(st.sampled_from(words), _junk)


# Each parameter's values.  Left out because they start real work, not
# because they break the contract: 2**64 as sym-lengths n_max, large-rank
# rank and m, kyfan pairs and z_trials and counterexample n_max, c_max
# and k_max; acceptance filters that match a slow suite, such as "x" or
# the empty one, which matches all; and linear-lengths, which takes no
# parameter and runs for a second.
PARAMETERS = {
    "sym-lengths": {"n_min": _ints(*HUGE), "n_max": _ints(HUGE[1]),
                    "ambient": _words("Sym", "Alt")},
    "width": {"group": _words("A5", "S4", "PSL2_7", "Q8", "A0", "S-1",
                              "PSL2_", "PSL2_" + HUGE[0], "A" + HUGE[0]),
              "symmetric": _words("true", "false")},
    "ore-check": {"group": _words("A5", "D4", "SL2_3", "PSL2_4", "A1")},
    "lattice": {"group": _words("S4", "A5", "PSL2_8", "PSL2_1", "S")},
    "root-check": {"type": _words("A", "B", "C", "D", "G2", "F4", "E8"),
                   "rank": _ints(*HUGE)},
    "su2-decompose": {"theta_g": _angles, "theta_h": _angles,
                      "m": _ints(*HUGE)},
    "torus-decompose": {"g": _angles, "h": _angles, "m": _ints(*HUGE)},
    "large-rank": {"rank": st.one_of(_ints(), st.sampled_from(["21", "41"])),
                   "k": _ints(*HUGE), "m": _ints(HUGE[1]),
                   "denom": _ints(*HUGE)},
    "profile-order": {"f_type": _words("U", "A", "B", "C", "D"), "f": _angles,
                      "h_type": _words("U", "A", "B", "C", "D"), "h": _angles,
                      "c_max": _ints(*HUGE), "k_max": _ints(*HUGE)},
    "kyfan": {"pairs": _ints(HUGE[1]), "n_max": _ints(*HUGE),
              "z_trials": _ints(HUGE[1])},
    "counterexample": {"n_max": _ints(HUGE[1]), "c_max": _ints(HUGE[1]),
                       "k_max": _ints(HUGE[1])},
    "strong-color": {"n": _ints(*HUGE), "s": _ints(*HUGE)},
    "acceptance": {"filter": st.sampled_from(
        ["sandwich", "nosuchsuite", "-1", "2", "1/2", " 7"])},
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_exit_contract_property(data):
    cmd = data.draw(st.sampled_from(sorted(PARAMETERS)))
    argv = [cmd, "--out", os.devnull]
    for key, values in PARAMETERS[cmd].items():
        # acceptance without a filter would run every suite
        if key == "filter" or data.draw(st.booleans()):
            argv += ["--set", f"{key}={data.draw(values)}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_width_report(tmp_path):
    out = tmp_path / "w.json"
    assert run(["width", "--set", "group=A5", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert doc["order"] == 60
    assert all(row["width"] <= 3 for row in doc["widths"])


@pytest.mark.parametrize("argv, key, expect", [
    (["width", "--set", "group=A7"], "order", 2520),
    (["ore-check", "--set", "group=PSL2_9"], "order", 360),
    (["lattice", "--set", "group=A7"], "orders", [1, 2520]),
], ids=["width-A7", "ore-PSL2_9", "lattice-A7"])
def test_larger_simple_groups(argv, key, expect, tmp_path):
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(read(out))[key] == expect


def test_linear_lengths_golden(tmp_path):
    out = tmp_path / "gl.csv"
    assert run(["linear-lengths", "--out", str(out)]) == 0
    assert read(out).decode() == (
        "# schema_version=1 seed=20260823\n"
        "group,n,q,classes,min_lc_over_lj,max_lc_over_lj\n"
        "GL2(3),2,3,8,0.462843,1.283791\n"
        "GL2(5),2,5,24,0.485234,1.101819\n"
        "GL3(2),3,2,6,0.620233,1.782520\n"
        "GL3(3),3,3,24,0.650663,1.531817\n")


def test_sym_lengths_rows(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sym-lengths", "--set", "n_max=8", "--out", str(out)]) == 0
    lines = read(out).decode().splitlines()
    assert lines[1].startswith("n,cycle_type,")
    assert all(line.endswith(",0,0") for line in lines[2:])


def test_root_check_exit_codes(tmp_path):
    assert run(["root-check", "--set", "type=F4", "--set", "rank=4",
                "--out", str(tmp_path / "r.json")]) == 0


def test_decompose_commands(tmp_path):
    assert run(["su2-decompose", "--set", "m=6",
                "--out", str(tmp_path / "a.json")]) == 0
    assert run(["torus-decompose", "--out", str(tmp_path / "b.json")]) == 0
    assert run(["large-rank", "--out", str(tmp_path / "c.json")]) == 0
    doc = json.loads(read(tmp_path / "c.json"))
    assert doc["count"] <= doc["bound"]


def test_strong_color_report(tmp_path):
    out = tmp_path / "col.json"
    assert run(["strong-color", "--set", "n=30", "--seed", "5",
                "--out", str(out)]) == 0
    doc = json.loads(read(out))
    colors = doc["colors"]
    n = doc["n"]
    # proper cycle coloring, one of each color per block
    assert all(colors[i] != colors[(i + 1) % n] for i in range(n))
    assert all(sorted(colors[v] for v in blk) == [0, 1, 2]
               for blk in doc["blocks"])


@pytest.mark.parametrize("n, colors, digest", [
    (30, "202102010102010121020201212121",
     "22a5facd2081f4d44f3e6996c9bd1781171113d1ac2fff4533cd68dbdfc9fa64"),
    (60, "121202021010201021021210120201012010202121212010120120210210",
     "d82a6bace278e83866df6b74853b9ad7aefb131c5d68e3be627fe3ba06b72494"),
])
def test_strong_color_golden(n, colors, digest, tmp_path):
    # the backtracker serves n <= 60: its report is pinned byte for byte
    out = tmp_path / "col.json"
    assert run(["strong-color", "--set", f"n={n}", "--seed", "5",
                "--out", str(out)]) == 0
    assert "".join(map(str, json.loads(read(out))["colors"])) == colors
    assert hashlib.sha256(read(out)).hexdigest() == digest


@pytest.mark.parametrize("sets, witness", [
    (["f_type=B", "f=1/2,1/3"], {"c": 2, "k": 1, "n0": 0}),
    (["f_type=C", "f=1/2,1/3", "h_type=C", "h=1/5,1/7"],
     {"c": 2, "k": 1, "n0": 0}),
    (["f_type=D", "f=1/2,1/3,1/4", "h_type=D", "h=1/5,0,0"],
     {"c": 4, "k": 1, "n0": 0}),
    (["f_type=B", "f=1/2", "h_type=C", "h=1/3"], {"c": 1, "k": 1, "n0": 0}),
    (["f_type=B", "f=1/2,1/3", "c_max=1"], None),
], ids=["B-U", "C-C", "D-D", "B-C", "B-U-no-witness"])
def test_profile_order_signed_types(sets, witness, tmp_path):
    # types B, C and D take one angle per rank, A and U one more
    out = tmp_path / "po.json"
    argv = ["profile-order"] + [a for s in sets for a in ("--set", s)]
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(read(out))["witness"] == witness


def test_profile_order_rank_rule_errors(capsys):
    assert run(["profile-order", "--set", "f_type=D", "--set", "f=1/2"]) == 2
    assert capsys.readouterr().err == "error: D needs rank >= 2\n"


def test_acceptance_filter_and_noop(tmp_path, capsys):
    out = tmp_path / "acc.json"
    assert run(["acceptance", "--set", "filter=sandwich",
                "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert [s["name"] for s in doc["suites"]] == ["sandwich"]
    assert "PASS sandwich" in capsys.readouterr().err
    # a filter matching nothing would check nothing: bad input
    assert run(["acceptance", "--set", "filter=nosuchsuite",
                "--out", str(tmp_path / "empty.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: no acceptance suite matches 'nosuchsuite'\n"
    assert not (tmp_path / "empty.json").exists()


def test_failing_invariant_gives_nonzero_exit(tmp_path):
    # witnesses only start failing at n = 2k, so a short scan leaves
    # some incomparability directions unconfirmed
    assert run(["counterexample", "--set", "n_max=3", "--set", "c_max=2",
                "--set", "k_max=4", "--out", str(tmp_path / "x.csv")]) == 1


def test_bad_seed_rejected(tmp_path, capsys):
    for seed in (-1, 1 << 64):
        assert run(["lattice", "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == (
            "error: seed must fit in 64 bits\n")
    out = tmp_path / "lat.json"
    assert run(["lattice", "--seed", str((1 << 64) - 1),
                "--out", str(out)]) == 0
    assert json.loads(read(out))["seed"] == (1 << 64) - 1
