"""Acceptance gate: one test per end-to-end suite.

Each test runs its suite at the default seed, prints a single PASS/FAIL
line with the elapsed time, and asserts both the verdict and the time
budget.  Run with -s (or rely on captured output on failure) to see the
lines.
"""

import pytest

from lengthlab import acceptance, profiles

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
