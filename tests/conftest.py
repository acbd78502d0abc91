import os
import stat
import sys

import pytest

from aspsubcount import parse_program

EXAMPLE1 = """\
p0 | p1.
q0 | q1.
q0 :- w.
q1 :- w.
w :- p0.
w :- p1, q1.
:- not w.
"""

# Small named programs reused across suites. All have at most 12 atoms so
# exhaustive interpretation scans stay cheap.
FIXTURES = {
    "worked": EXAMPLE1,
    "pair": "a | b.\n",
    "two_pairs": "a1 | b1.\na2 | b2.\n",
    "selfloop": "a :- a.\n",
    "posloop2": "a :- b.\nb :- a.\nc :- a.\n",
    "mixloop": "x | y :- z.\nz :- x.\nq | z.\n",
    "negtwo": "a :- not b.\nb :- not a.\n",
    "constraint_unsat": "b.\n:- not a.\n",
    "fact_chain": "a.\nb :- a.\nc :- b, not d.\n",
    "threehead": "a | b | c.\n:- a, b.\nd :- c.\nc :- d, not e.\n",
    "overlap": "a :- a, b.\nb.\n",
    "empty": "",
    "wide12": (
        EXAMPLE1
        + "s | t.\n"
        + "u :- s.\n"
        + "u :- v.\n"
        + "v :- u, t.\n"
        + "x1 :- u, not s.\n"
        + "x2 | x3 :- v, not x1.\n"
        + ":- x2, x3.\n"
    ),
}


@pytest.fixture
def example1():
    return parse_program(EXAMPLE1)


@pytest.fixture
def fixture_programs():
    return {name: parse_program(text) for name, text in FIXTURES.items()}


STUB = os.path.join(os.path.dirname(__file__), "external_stub.py")

# pyproject's ``pythonpath`` puts the source tree on this process's path
# only; the child processes (the stub counter, the entry-point test) get it
# through the environment.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criteria verdict lines where output capture
    cannot swallow them."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in REPORT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def wrapper_factory(tmp_path_factory):
    """Build a single-file executable wrapping the stub with fixed flags,
    the counter path that the library's ``counter`` parameter and the CLI's
    --backend exec:PATH take. The shell execs the stub, or with
    ``exec_stub=False`` runs it as its child and exits with its status."""
    made = {}

    def make(*extra_flags: str, exec_stub: bool = True) -> str:
        key = (extra_flags, exec_stub)
        if key in made:
            return made[key]
        directory = tmp_path_factory.mktemp("counter")
        path = directory / "counter"
        command = f'"{sys.executable}" "{STUB}" {" ".join(extra_flags)} "$@"'
        if exec_stub:
            path.write_text(f"#!/bin/sh\nexec {command}\n")
        else:
            path.write_text(f"#!/bin/sh\n{command}\nexit $?\n")
        path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
        made[key] = str(path)
        return made[key]

    return make
