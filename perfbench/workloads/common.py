"""Input generation and CLI calls shared by the workloads."""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

from lengthlab import cli, roots


class ExitContractBroken(Exception):
    """A CLI call did not exit 2 with a one-line message."""


def random_torus_element(rng, typ, rank, denom=12):
    """Torus element with angles in 1/denom steps; type A angles sum to 0."""
    n = rank + 1 if typ in ("A", "U") else rank
    angles = [Fraction(rng.randint(-denom, denom), denom) for _ in range(n)]
    if typ == "A":
        angles[-1] = -sum(angles[:-1])
    return roots.TorusElement(typ, rank, tuple(angles))


def cli_exit_2(argv, tr):
    """Run `lengthlab <argv>` in this process and require the bad-input
    contract: exit code 2 and a one-line message, no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = tr.call("cli.main", cli.main, argv)
    lines = err.getvalue().splitlines()
    if code != 2 or len(lines) != 1:
        raise ExitContractBroken(f"{argv}: exit {code}, {len(lines)} lines")
    return code
