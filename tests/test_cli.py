import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lengthlab import acceptance, cli, coloring, profiles


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


@pytest.mark.parametrize("argv, message", [
    (["width", "--set", "group"], "bad --set item: 'group'"),
    (["profile-order", "--grid", "c=5,k"], "bad --grid part: 'k'"),
    (["profile-order", "--grid", "=5"], "bad --grid part: '=5'"),
], ids=["set", "grid", "grid-empty-name"])
def test_item_without_equals_is_named(argv, message, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_config_line_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\ngroup\n")
    assert run(["width", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: bad config line: 'group'\n"


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


def test_invariant_failure_exits_1(monkeypatch, tmp_path, capsys):
    # a repair search that colors every vertex 0: the verifier inside
    # strong_color_cycle rejects the first block, and no report is written
    monkeypatch.setattr(coloring, "_min_conflicts",
                        lambda n, m, *args: dict.fromkeys(range(m), 0))
    out = tmp_path / "col.json"
    assert run(["strong-color", "--set", "n=90", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: block [")
    assert err[0].endswith("] is not rainbow")
    assert not out.exists()


# Each subcommand against 0, 1, a negative value and an empty range (or
# an empty name or angle list), the group commands against a group above
# the build cap and every size in cli.CAPS just above its cap and at
# 2**64, with the exit code the contract gives: 0 every invariant held,
# 1 one failed, 2 bad input.  linear-lengths takes no parameters;
# acceptance's empty filter is test_acceptance_filter_and_noop.  An item
# is a --set value, or a flag when it starts with "--"; a third entry is
# text the error line must contain, such as the name of a non-integer.
BIG = f"={2**64}"
EDGE_CASES = {
    "sym-lengths": [(["n_min=0", "n_max=0"], 2), (["n_min=1", "n_max=1"], 0),
                    (["n_min=-1", "n_max=3"], 2), (["n_min=5", "n_max=4"], 2),
                    (["n_max=51"], 2), (["n_max" + BIG], 2),
                    (["n_max=abc"], 2, "n_max must be an integer, got 'abc'"),
                    (["n_min=1/2"], 2, "n_min"), (["--n=5.."], 2, "n_max")],
    "width": [(["group=S0"], 2), (["group=S1"], 2), (["group=S-1"], 2),
              (["group="], 2), (["group=A12"], 2),
              (["symmetric=maybe"], 2, "symmetric"),
              (["symmetric="], 2, "symmetric"), (["symmetric=1"], 2),
              (["--symmetric=no"], 2, "symmetric")],
    "ore-check": [(["group=A0"], 2), (["group=A1"], 2), (["group=A-1"], 2),
                  (["group=PSL2_"], 2), (["group=S9"], 2)],
    "lattice": [(["group=PSL2_0"], 2), (["group=PSL2_1"], 2),
                (["group=PSL2_-1"], 2), (["group=S"], 2),
                (["group=PSL2_59"], 2)],  # order 102660
    "root-check": [(["type=A", "rank=0"], 2), (["type=A", "rank=1"], 0),
                   (["type=B", "rank=-1"], 2), (["type=D", "rank=1"], 2),
                   (["type=F4", "rank=4"], 0), (["rank=2.0"], 2, "rank")],
    "su2-decompose": [(["m=0"], 2), (["m=1"], 2), (["m=-1"], 2),
                      (["theta_h=0"], 2)],
    "torus-decompose": [(["m=0"], 2), (["m=1"], 2), (["m=-1"], 2),
                        (["g=", "h="], 2)],
    "large-rank": [(["denom=0"], 2), (["denom=1"], 0), (["rank=-1"], 2),
                   (["k=0"], 2), (["rank=201"], 2), (["rank" + BIG], 2),
                   (["m=1026"], 2), (["m=1000000"], 2), (["m" + BIG], 2)],
    "profile-order": [(["c_max=0"], 2), (["c_max=1"], 0), (["k_max=-1"], 2),
                      (["f=", "h="], 2),
                      # no witness, on a grid that has no cap
                      (["f=1/2,0,0", "h=0,0,0", "c_max" + BIG, "k_max" + BIG],
                       0),
                      (["--grid=c=x,k=2"], 2, "c_max"),
                      (["k_max=1e3"], 2, "k_max")],
    "kyfan": [(["pairs=0"], 2), (["pairs=1"], 0), (["pairs=-1"], 2),
              (["pairs=5", "n_max=1"], 2), (["pairs=10001"], 2),
              (["pairs" + BIG], 2), (["z_trials=1001"], 2),
              (["z_trials" + BIG], 2), (["n_max=1001"], 2),
              (["n_max" + BIG], 2),
              (["pairs=1", "z_trials=-4"], 2, "need z_trials >= 0, got -4"),
              (["pairs=1", "z_trials=0"], 0)],
    "counterexample": [(["n_max=0"], 2), (["n_max=1"], 2), (["n_max=-1"], 2),
                       (["n_max=8", "c_max=0"], 2), (["n_max=129"], 2),
                       (["n_max" + BIG], 2), (["c_max=1025"], 2),
                       (["c_max" + BIG], 2), (["k_max=65"], 2),
                       (["k_max" + BIG], 2),
                       # c_max and k_max at their caps run; k > 32 first
                       # fails past the default n_max = 64
                       (["c_max=1024", "k_max=64"], 1),
                       (["k_max=x"], 2, "k_max")],
    "strong-color": [(["n=0"], 2), (["n=1"], 2), (["n=-1"], 2), (["s=0"], 2),
                     (["n=63", "s=1"], 2), (["n=63", "s=2"], 2),
                     (["n=1000001"], 2), (["n" + BIG], 2),
                     (["s=three"], 2, "s must be an integer")],
}


@pytest.mark.parametrize("argv, code, needle", [
    pytest.param([cmd] + [a for s in sets
                          for a in ((s,) if s[:2] == "--" else ("--set", s))],
                 code, needle[0] if needle else None,
                 id=f"{cmd}-{'-'.join(sets)}")
    for cmd, cases in EDGE_CASES.items() for sets, code, *needle in cases])
def test_edge_values_keep_exit_contract(argv, code, needle, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert needle is None or needle in lines[0]


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
# because they break the contract: acceptance filters that match a slow
# suite, such as "x" or the empty one, which matches all; and
# linear-lengths, which takes no parameter and runs for a second.
PARAMETERS = {
    "sym-lengths": {"n_min": _ints(*HUGE), "n_max": _ints(*HUGE),
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
    "large-rank": {"rank": st.one_of(_ints(*HUGE),
                                     st.sampled_from(["21", "41"])),
                   "k": _ints(*HUGE), "m": _ints(*HUGE),
                   "denom": _ints(*HUGE)},
    "profile-order": {"f_type": _words("U", "A", "B", "C", "D"), "f": _angles,
                      "h_type": _words("U", "A", "B", "C", "D"), "h": _angles,
                      "c_max": _ints(*HUGE), "k_max": _ints(*HUGE)},
    "kyfan": {"pairs": _ints(*HUGE), "n_max": _ints(*HUGE),
              "z_trials": _ints(*HUGE)},
    "counterexample": {"n_max": _ints(*HUGE), "c_max": _ints(*HUGE),
                       "k_max": _ints(*HUGE)},
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


@pytest.mark.parametrize("flags, symmetric", [
    ([], True), (["--symmetric"], True), (["--set", "symmetric=TRUE"], True),
    (["--set", "symmetric=False"], False), (["--symmetric", "false"], False),
])
def test_width_symmetric_flag(flags, symmetric, tmp_path):
    out = tmp_path / "w.json"
    assert run(["width", *flags, "--out", str(out)]) == 0
    assert json.loads(read(out))["symmetric"] is symmetric


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


def test_python_dash_m_runs_the_cli(tmp_path):
    # a checkout without an install: the package directory on PYTHONPATH
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "lengthlab", "strong-color", "--set", "n=30"],
        env=env, capture_output=True, timeout=60)
    out = tmp_path / "col.json"
    assert run(["strong-color", "--set", "n=30", "--out", str(out)]) == 0
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == read(out)


@pytest.mark.parametrize("n, colors, digest", [
    (30, "202102010102010121020201212121",
     "22a5facd2081f4d44f3e6996c9bd1781171113d1ac2fff4533cd68dbdfc9fa64"),
    (60, "121202021010201021021210120201012010202121212010120120210210",
     "d82a6bace278e83866df6b74853b9ad7aefb131c5d68e3be627fe3ba06b72494"),
    (300, "012012121010121010101010120210212020101010121010120201210201"
     "202012010202010102121021020202012121012121020202010101010210"
     "201201020201210201010202012102010102020212120201021201212010"
     "121210212120212012121201012101202012010202012020212121021202"
     "101020201012120210121212012021212102121202120212012021201201",
     "c6aa9c7af399c5b605e5c1e8724bc1742698ad3bd0423def34b9cac409a1cc9a"),
])
def test_strong_color_golden(n, colors, digest, tmp_path):
    # the backtracker serves n <= 60 and the repair search n > 60: each
    # report is pinned byte for byte
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


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The commands of README's CLI block, without `lengthlab` and the
    comments."""
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(line.split("#")[0].split()[1:])
            for line in block.splitlines() if line.strip()]


# sha256 of the report of each README command; acceptance, whose suites
# tests/test_acceptance.py runs one by one, is left out
README_REPORTS = {
    "sym-lengths --set n_min=4 --set n_max=30":
        "0f55889253b0a3f076f1e6011584c354c52a28c2c38bfc6ad31ea19684f0abbe",
    "linear-lengths":
        "24c91f3d611be19f6fabcfa452a65d432435ec3e97594ffe7c0709aca841c5f0",
    "width --set group=A5 --set symmetric=true":
        "1002d276d576929f451a838de03f7cf5d3b7663be7e1277e293ea1976be63abf",
    "ore-check --set group=PSL2_7":
        "dac1eee807ae06cca444e55a3e0d8593739730baa534e70b450d20eaceea4617",
    "lattice --set group=S4":
        "2a2d6291efcf4e273782e540a2a2875dcadc7cd96d246ac573df66a9f4c632b3",
    "lattice --set group=A7":
        "0cef145de100d650ca7317d84d67cf5f8e7dfe3b26bb3db1f4f922cc535d43da",
    "root-check --set type=G2 --set rank=2":
        "33ecf6dce821317a0b18ed96524ef0416a860d3155b9c3905c1adc0926090288",
    "su2-decompose --set theta_g=1/3 --set theta_h=1/4 --set m=8":
        "6f19d2e312a15eccaf1a75640814566b8945cd555c7f53e22ecf3fa9d770839c",
    "torus-decompose --set g=1/3,1/6,-1/2 --set h=1/4,-1/4,0 --set m=8":
        "b33b12d2a142e6ab3525aa38f6c521391890e4bc68a6d39661324d9dfe6925d7",
    "large-rank --set rank=21 --set k=1 --set m=8":
        "23bd9a9e4c2899f29f860b12a2283af9b5d54613abed23d7956f6872b6fff2ae",
    "profile-order --set f=1/2,0,0 --set h=1/3,1/3,0":
        "5c497cc7260d4e8e4403885d67ab0640c426fb7ad490c25b1594d836792dd2b3",
    "kyfan --set pairs=200":
        "86ce860428d0a4a9667543773892adfefe497918ecf81896f6f6fef617e82278",
    "counterexample --set n_max=64 --set c_max=64 --set k_max=8":
        "7dc013c5a34481f0250e23efb1c44316ddfaa7ef1e62aa1aa11775217d58bfb0",
    "strong-color --set n=30":
        "2b671b09add134071743aa8006598d4c70f4528526b4f67a0190abf2ce2b438b",
}


def test_large_rank_grouped_triples_pinned(tmp_path):
    # rank 76 splits nn = 12 block indices at a time into triples through
    # coloring.partition_permutation; README's rank 21 splits only 3
    out = tmp_path / "report"
    assert run(["large-rank", "--set", "rank=76", "--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == (
        "258b622191293f14810018e0ba97dcbe0626fd2d9126c00aef873212266fdd95")


@pytest.mark.parametrize("command", list(README_REPORTS))
def test_readme_reports_pinned(command, tmp_path):
    assert list(README_REPORTS) == [
        c for c in readme_commands() if not c.startswith("acceptance")]
    out = tmp_path / "report"
    assert run(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == README_REPORTS[command]
