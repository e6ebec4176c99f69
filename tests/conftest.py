"""Shared test plumbing: every test starts without shared family systems
and measures; acceptance criteria results are collected here and printed as
one line per criterion in the terminal summary; the error of computed monic
recurrence rows against a family's closed form; the command line in a child
process."""

import math
import os
import subprocess
import sys

import pytest

import orthopoly
from orthopoly.families import clear_systems, family_monic_system

acceptance_lines = []


@pytest.fixture(autouse=True)
def fresh_systems():
    """Clear the shared systems and measures before and after each test, so
    that a test that monkeypatches rows never reads rows that another test
    built, nor a result that a measure kept."""
    clear_systems()
    yield
    clear_systems()


def record_criterion(num, label, passed, elapsed):
    status = "PASS" if passed else "FAIL"
    acceptance_lines.append(
        (num, f"criterion {num:2d} {label:<34s} {status} ({elapsed:.2f}s)"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(acceptance_lines):
        terminalreporter.write_line(line)


def monic_row_error(b, c, spec) -> float:
    """Largest difference of b_j and sqrt(c_j), j < len(b), from the closed
    monic form of the family, relative to the Jacobi-row scale |b_j| +
    sqrt(c_j) + sqrt(c_{j+1}) (c_{N+1} = 0 on a lattice of N + 1 points)."""
    n = len(b) - 1
    last = spec.parameters.get("N", n + 1)
    ref = family_monic_system(spec).table(min(n + 1, last))
    err = 0.0
    for j in range(n + 1):
        rb, rc = ref[j][1:]
        rc1 = ref[j + 1][2] if j + 1 < len(ref) else 0.0
        scale = abs(rb) + math.sqrt(rc) + math.sqrt(rc1)
        err = max(err, abs(b[j] - rb) / scale,
                  abs(math.sqrt(c[j]) - math.sqrt(rc)) / scale)
    return err


def child_cli(*argv, module=False):
    """The command line in a child process, whose stderr shows what numpy
    and LAPACK print there: launched as the console script does, or, with
    module=True, as `python -m orthopoly.cli`."""
    src = os.path.dirname(os.path.dirname(orthopoly.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    launch = (("-m", "orthopoly.cli") if module else
              ("-c", "import sys; from orthopoly.cli import main; "
                     "sys.exit(main())"))
    return subprocess.run([sys.executable, *launch, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
