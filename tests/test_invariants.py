"""The library's checks hold under ``python -O``, which strips asserts."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_has_no_assert():
    # every check in src/ raises, so none of them depends on __debug__
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "lengthlab").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_checks_fire_under_python_O():
    # one planted fault per module; coloring's verifiers have their own
    # test (test_verifiers_reject_under_python_O)
    script = textwrap.dedent("""
        from fractions import Fraction as F

        from lengthlab import InvariantFailed, engine, fqlin, profiles, roots

        def rejects(check, *args):
            try:
                check(*args)
            except InvariantFailed as exc:
                return str(exc)
            return "accepted"

        assert False, "asserts are on"
        F3 = fqlin.FqField(3)
        zero, line = (fqlin.Subspace(F3, 2, basis) for basis in ([], [[0, 1]]))
        print(rejects(fqlin._check_extension,  # W'' too small
                      fqlin.BilinearSpace.symplectic(F3, 2),
                      zero, line, zero, zero))
        engine._filtration = lambda t, g: [0]  # no class is ever reached
        print(rejects(engine.mutual_domination, engine.named_group("A5")))
        profiles._distances = lambda typ, values, D: []  # wrong distances
        print(rejects(profiles.profile_of, roots.TorusElement(
            "A", 2, (F(1, 3), F(1, 6), F(-1, 2)))))
        root = ((F(1), F(-1)),)  # a root without its negative
        print(rejects(roots._validate_root_system,
                      roots.RootSystem("A", 1, root, root)))
    """)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "dim W'' != dim rad W",
        "neither class dominates the other",
        "lex-greedy draws differ from the distances of the path found",
        "not a root system at (Fraction(1, 1), Fraction(-1, 1)): -v missing, "
        "or coefficients not integers of one sign",
    ]
