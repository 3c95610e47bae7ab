"""Acceptance gate: one test per end-to-end suite.

Each test runs its suite at the default seed, prints a single PASS/FAIL
line with the elapsed time, and asserts both the verdict and the time
budget.  Run with -s (or rely on captured output on failure) to see the
lines.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lengthlab import acceptance, fqlin, profiles, roots

_BY_NAME = {name: (fn, budget) for name, fn, budget in acceptance.SUITES}


@pytest.mark.parametrize("name", list(_BY_NAME))
def test_suite(name):
    fn, budget = _BY_NAME[name]
    r = acceptance.run_suite(name, fn, budget)
    verdict = "PASS" if r["ok"] else "FAIL"
    print(f"{verdict} {name:20s} [{r['elapsed']:8.2f}s / {budget}s] "
          f"{r['detail']}")
    assert r["elapsed"] < budget, f"{name} exceeded its {budget}s budget"
    assert r["ok"], f"{name}: {r['detail']}"


def test_kyfan_fails_on_inexact_profile(monkeypatch):
    assert acceptance.suite_kyfan(pairs=3)[0]
    exact_search = profiles._lex_greedy

    def fallback(*args):
        # as if every orbit search had hit its state cap
        values, draws, _ = exact_search(*args)
        return values, draws, False

    monkeypatch.setattr(profiles, "_lex_greedy", fallback)
    assert acceptance.suite_kyfan(pairs=3) == (
        False, "3 monomial pairs, violations=3")


EXTEND = fqlin.extend_to_nondegenerate


def short_extension(space, w):
    """extend_to_nondegenerate with a W'' one dimension short wherever
    the radical of w is nonzero."""
    wp, wpp = EXTEND(space, w)
    return wp, fqlin.Subspace(wpp.field, wpp.n, wpp.basis[1:])


def test_geometry_fails_on_short_extension_under_python_O(monkeypatch):
    # the suite counts its checks into the verdict, so python -O, which
    # strips asserts, still sees the planted fault
    assert acceptance.suite_geometry() == (True, "subspaces checked=1000")
    expect = (False, "subspaces checked=1000 mismatches=313")
    monkeypatch.setattr(acceptance.fqlin, "extend_to_nondegenerate",
                        short_extension)
    assert acceptance.suite_geometry() == expect
    code = """if True:
        from lengthlab import acceptance
        from test_acceptance import short_extension
        acceptance.fqlin.extend_to_nondegenerate = short_extension
        print(acceptance.suite_geometry())
    """
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (here.parent / "src", here)))
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{expect}\n"


def test_decompositions_fails_when_large_rank_never_fits(monkeypatch):
    tried = []

    def never(g, h, k, m):
        tried.append(m)
        raise roots.BoundViolated("planted")

    monkeypatch.setattr(acceptance.roots, "large_rank_decompose", never)
    ok, detail = acceptance.suite_decompositions()
    assert not ok
    # each of the four pairs doubles m from 2 to 256, then gives up
    assert tried == [2 ** e for e in range(1, 9)] * 4
    assert detail.split("; ")[2:] == [
        "large rank r=21: failed", "large rank r=21: failed",
        "large rank r=25: failed", "large rank r=25: failed"]
