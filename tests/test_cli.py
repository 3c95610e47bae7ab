import json

import pytest

from lengthlab import cli


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


def test_acceptance_filter_and_noop(tmp_path, capsys):
    out = tmp_path / "acc.json"
    assert run(["acceptance", "--set", "filter=sandwich",
                "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert [s["name"] for s in doc["suites"]] == ["sandwich"]
    assert "PASS sandwich" in capsys.readouterr().err
    # a filter matching nothing checks nothing and succeeds
    assert run(["acceptance", "--set", "filter=nosuchsuite",
                "--out", str(tmp_path / "empty.json")]) == 0


def test_failing_invariant_gives_nonzero_exit(tmp_path):
    # witnesses only start failing at n = 2k, so a short scan leaves
    # some incomparability directions unconfirmed
    assert run(["counterexample", "--set", "n_max=3", "--set", "c_max=2",
                "--set", "k_max=4", "--out", str(tmp_path / "x.csv")]) == 1


def test_bad_seed_rejected():
    with pytest.raises(cli.ConfigInvalid):
        run(["lattice", "--seed", "-1"])
